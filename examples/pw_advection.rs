//! PW advection end-to-end: the paper's first benchmark kernel.
//!
//! Compiles the Piacsek–Williams advection scheme, validates the dataflow
//! design against the hand-written golden implementation on a small grid,
//! then reports the modelled performance / power / resources at the
//! paper's problem sizes (8M / 32M / 134M) for all frameworks.
//!
//! ```sh
//! cargo run --example pw_advection
//! ```

use shmls_baselines::{all_frameworks, EvalContext, KernelProfile, Outcome};
use shmls_kernels::{pw_advection, pw_sizes};
use stencil_hmls::runner::run_hls;
use stencil_hmls::{compile, CompileOptions, TargetPath};

fn main() {
    // ---- functional validation at a small size --------------------------
    let n = [12, 10, 8];
    let compiled = compile(
        &pw_advection::source(n[0], n[1], n[2]),
        &CompileOptions::default(),
    )
    .expect("PW advection compiles");
    println!(
        "PW advection: {} stencil computations over {} fields,",
        compiled.report.compute_stages,
        compiled.report.inputs + compiled.report.outputs
    );
    println!(
        "  {} shift buffers ({} window values each), {} streams",
        compiled.report.shift_buffers, compiled.report.window_elems, compiled.report.streams
    );

    let inputs = pw_advection::PwInputs::random(n[0], n[1], n[2], 42);
    let (su_golden, sv_golden, sw_golden) = pw_advection::golden(&inputs);
    let data = inputs.data();
    let (out, _) = run_hls(&compiled, &data).expect("dataflow runs");
    for (name, golden) in [("su", &su_golden), ("sv", &sv_golden), ("sw", &sw_golden)] {
        let got = shmls_kernels::Grid3::from_buffer(&out[name]);
        let diff = got.max_diff(golden);
        println!("  {name}: max |dataflow - golden| = {diff:.2e}");
        assert!(diff < 1e-12);
    }

    // ---- paper-scale evaluation ----------------------------------------
    let eval = EvalContext::default();
    println!("\nmodelled results at the paper's sizes (Figure 4 left / Figure 5 / Table 1):");
    for size in pw_sizes() {
        let opts = CompileOptions {
            paths: TargetPath::HlsOnly,
            ..Default::default()
        };
        let c = compile(
            &pw_advection::source(size.grid[0], size.grid[1], size.grid[2]),
            &opts,
        )
        .unwrap();
        let profile = KernelProfile::from_compiled(&c).unwrap();
        println!("  size {} ({} points):", size.label, size.points());
        for f in all_frameworks() {
            match f.evaluate(&profile, &eval) {
                Outcome::Completed(m) => println!(
                    "    {:<14} {:>9.1} MPt/s  {:>5.1} W  {:>9.2} J  ({} CU, II {})",
                    f.name(),
                    m.mpts,
                    m.watts,
                    m.joules,
                    m.cus,
                    m.ii
                ),
                Outcome::CompileError(e) => println!("    {:<14} compile error: {e}", f.name()),
                Outcome::RuntimeDeadlock { reason, .. } => {
                    println!("    {:<14} deadlock: {reason}", f.name())
                }
                Outcome::Inexpressible(e) => println!("    {:<14} inexpressible: {e}", f.name()),
            }
        }
    }
}
