//! Tracer advection end-to-end: the paper's second benchmark kernel.
//!
//! The NEMO-style MUSCL tracer advection has 24 stencil computations whose
//! producer→consumer chains prevent a clean per-field split — this example
//! shows both the functional validation and the dependency analysis
//! driving the evaluation (single CU, reduced advantage over DaCe).
//!
//! ```sh
//! cargo run --example tracer_advection
//! ```

use shmls_baselines::{DaceModel, EvalContext, FrameworkModel, KernelProfile, StencilHmlsModel};
use shmls_kernels::tracer_advection;
use stencil_hmls::engine::{Engine, Threaded};
use stencil_hmls::runner::run_hls;
use stencil_hmls::{compile, CompileOptions, TargetPath};

fn main() {
    let n = [10, 8, 6];
    let compiled = compile(
        &tracer_advection::source(n[0], n[1], n[2]),
        &CompileOptions::default(),
    )
    .expect("tracer advection compiles");

    println!("tracer advection:");
    println!(
        "  stencil computations : {}",
        compiled.report.compute_stages
    );
    println!("  written fields       : {}", compiled.report.outputs);
    println!(
        "  memory ports per CU  : {} (16 field bundles + 1 small-data bundle)",
        compiled
            .report
            .bundles
            .iter()
            .filter(|b| b.starts_with("gmem"))
            .collect::<std::collections::BTreeSet<_>>()
            .len()
    );

    // Dependency structure: the reason the paper sees a reduced advantage.
    let profile = KernelProfile::from_compiled(&compiled).unwrap();
    println!("  independent groups   : {}", profile.split_groups);
    println!(
        "  longest chain        : {} computations deep",
        profile.chain_depth
    );
    println!(
        "  DaCe serialisation   : {} fused passes (vs 3 for PW advection)",
        DaceModel::serial_factor(&profile)
    );

    // Functional validation against the golden implementation.
    let inputs = tracer_advection::TracerInputs::random(n[0], n[1], n[2], 7);
    let golden = tracer_advection::golden(&inputs);
    let data = inputs.data();

    let (out, (streams, elements, _)) = run_hls(&compiled, &data).expect("dataflow runs");
    println!("\nsequential Kahn engine: {streams} streams, {elements} elements moved");
    for name in ["mydomain", "zind", "zslpx", "zslpy", "zwx", "zwy"] {
        let got = shmls_kernels::Grid3::from_buffer(&out[name]);
        let reference = match name {
            "mydomain" => &golden.mydomain,
            "zind" => &golden.zind,
            "zslpx" => &golden.zslpx,
            "zslpy" => &golden.zslpy,
            "zwx" => &golden.zwx,
            _ => &golden.zwy,
        };
        let diff = got.max_diff(reference);
        println!("  {name:<9} max |dataflow - golden| = {diff:.2e}");
        assert!(diff < 1e-12);
    }

    // The 24-stage design is a deadlock-free Kahn network under bounded
    // FIFOs (one thread per dataflow stage).
    let threaded = Threaded
        .sweep(&compiled, &data, 1)
        .expect("design runs, no deadlock");
    let diff =
        shmls_kernels::Grid3::from_buffer(&threaded.outputs["mydomain"]).max_diff(&golden.mydomain);
    println!("threaded engine (bounded FIFOs): max |diff| = {diff:.2e}");

    // Paper-scale headline: single CU, ~14-21x over DaCe.
    let eval = EvalContext::default();
    let opts = CompileOptions {
        paths: TargetPath::HlsOnly,
        ..Default::default()
    };
    let big = compile(&tracer_advection::source(256, 256, 128), &opts).unwrap();
    let big_profile = KernelProfile::from_compiled(&big).unwrap();
    let hmls = StencilHmlsModel::default()
        .evaluate(&big_profile, &eval)
        .measurement()
        .cloned()
        .unwrap();
    let dace = DaceModel
        .evaluate(&big_profile, &eval)
        .measurement()
        .cloned()
        .unwrap();
    println!(
        "\nat 8M points: Stencil-HMLS {:.1} MPt/s ({} CU) vs DaCe {:.1} MPt/s -> {:.1}x (paper: 14-21x)",
        hmls.mpts,
        hmls.cus,
        dace.mpts,
        hmls.mpts / dace.mpts
    );
}
