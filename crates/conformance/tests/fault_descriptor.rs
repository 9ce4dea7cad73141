//! `CompiledKernel::design` describes the module as compiled, and
//! `inject_fault` mutates the HLS function afterwards: the descriptor the
//! cycle engine is handed must be the mutated function's, not the stale
//! one from the compile.

use shmls_conformance::harness::inject_fault;
use shmls_conformance::Fault;
use shmls_fpga_sim::design::DesignDescriptor;
use stencil_hmls::{compile, CompileOptions};

const SRC: &str = r#"
kernel h {
  grid(6, 5)
  halo 1
  field a : input
  field t : temp
  field b : output
  compute t { t = a[-1,0] + a[1,0] }
  compute b { b = t[0,0] + a[0,-1] * a[0,1] }
}
"#;

#[test]
fn every_fault_leaves_the_descriptor_of_the_mutated_function() {
    for fault in Fault::ALL {
        let mut compiled = compile(SRC, &CompileOptions::default()).unwrap();
        let pristine = compiled.design_fingerprint();
        // The faults change values, not structure: mark the compile's
        // descriptor, so a harness that kept it would show.
        compiled.design.name.push_str(" (as compiled)");
        assert!(inject_fault(&mut compiled, fault), "{fault} applies");
        assert_ne!(compiled.design_fingerprint(), pristine, "{fault} mutates");
        let fresh = DesignDescriptor::from_hls_func(&compiled.ctx, compiled.hls_func).unwrap();
        assert_eq!(compiled.design, fresh, "{fault}");
    }
}
