//! The unused-temp regression: a kernel declaring a temp field nobody
//! reads or stores used to compile to a design with a dead compute stage
//! whose result stream had no consumer — the sequential (unbounded Kahn)
//! engine completed but the threaded engine deadlocked. The transform now
//! prunes dead stages, so the design is well-formed by construction and
//! all three engines complete and agree.

use shmls_fpga_sim::cycle;
use shmls_fpga_sim::design::DesignDescriptor;
use shmls_ir::interp::Buffer;
use shmls_ir::types::StencilBounds;
use stencil_hmls::engine::{Engine, Threaded};
use stencil_hmls::runner::{run_hls, run_stencil, KernelData};
use stencil_hmls::{compile, CompileOptions, TargetPath};

const SRC: &str = r#"
kernel unused {
  grid(64)
  halo 1
  field a : input
  field t : temp
  field b : output
  compute t { t = 2.0 * a[0] }
  compute b { b = a[1] + a[-1] }
}
"#;

#[test]
fn unused_temp_completes_on_all_engines() {
    let opts = CompileOptions {
        paths: TargetPath::HlsOnly,
        ..Default::default()
    };
    let compiled = compile(SRC, &opts).unwrap();
    // The dead temp's compute stage is pruned at compile time.
    assert_eq!(compiled.report.pruned_stages, 1);
    assert_eq!(compiled.report.compute_stages, 1);

    let bounded =
        StencilBounds::from_extents(&compiled.signature.grid).grown(compiled.signature.halo);
    let mut a = Buffer::zeroed(bounded.extents(), bounded.lb.clone());
    for (i, v) in a.data.iter_mut().enumerate() {
        *v = i as f64 * 0.25 - 3.0;
    }
    let data = KernelData::default().buffer("a", a);

    // Reference semantics, sequential Kahn engine, threaded engine.
    let reference = run_stencil(&compiled, &data).unwrap();
    let (sequential, _) = run_hls(&compiled, &data).unwrap();
    let threaded = Threaded.sweep(&compiled, &data, 1);
    let threaded = threaded.unwrap_or_else(|e| panic!("pruned design must not deadlock:\n{e}"));
    let threaded = threaded.outputs;

    for p in 0..64 {
        let r = reference["b"].load(&[p]).unwrap();
        assert_eq!(sequential["b"].load(&[p]).unwrap(), r, "sequential @ {p}");
        assert_eq!(threaded["b"].load(&[p]).unwrap(), r, "threaded @ {p}");
    }

    // Cycle-accurate engine: completes at the declared depths and even
    // with depth-1 FIFOs, draining every interior point.
    let design = DesignDescriptor::from_hls_func(&compiled.ctx, compiled.hls_func).unwrap();
    let last = design.stages.len() - 1;
    let report = cycle::simulate(&design, None).unwrap();
    assert_eq!(report.fires[last], design.interior_points);
    let shallow = cycle::simulate(&design, Some(1)).unwrap();
    assert_eq!(shallow.fires[last], design.interior_points);
}
