//! The shipped example kernels (`kernels/*.stencil`) must stay
//! compilable and correct. They are parsed from the actual files at
//! their declared (full) grids, compiled, and time-marched at temporal
//! depth 2 over parallel compute units against the iterated sequential
//! interpreter oracle — so a DSL change, a compiler regression, or a
//! temporal-blocking bug that only shows at realistic grid sizes fails
//! here. (Reduced-grid copies also live in the conformance corpus so
//! every engine replays them on each `cargo test`.)

use std::path::Path;

use shmls_conformance::{check_kernel, CheckOptions, ScaleConfig};

fn check_kernel_file(name: &str, scale: Vec<ScaleConfig>) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../kernels")
        .join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    let kernel = shmls_frontend::parse_kernel(&text)
        .unwrap_or_else(|e| panic!("parsing {}: {e}", path.display()));
    let opts = CheckOptions {
        // The full grids are large for the cycle-level engines in debug
        // builds; the stream executor plus the scale dimension is
        // the coverage this test is after (the corpus copies run every
        // engine at reduced grids).
        engines: vec!["stream"],
        scale,
        ..Default::default()
    };
    let report = check_kernel(&kernel, &opts);
    if let Some(failure) = report.failure {
        panic!("{}: {failure}", path.display());
    }
}

#[test]
fn heat3d_kernel_file_marches_at_depth_2() {
    check_kernel_file(
        "heat3d.stencil",
        vec![ScaleConfig {
            cus: 2,
            steps: 3, // 3 = 2 + 1: one whole round plus a remainder round
            depth: 2,
        }],
    );
}

#[test]
fn smooth2d_kernel_file_marches_at_depth_2() {
    check_kernel_file(
        "smooth2d.stencil",
        vec![
            ScaleConfig {
                cus: 2,
                steps: 4,
                depth: 2,
            },
            ScaleConfig {
                cus: 3,
                steps: 2,
                depth: 4, // depth > steps: one shallow sweep
            },
        ],
    );
}
