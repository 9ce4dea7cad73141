//! Pinned module bytes: `design_fingerprint()` (FNV-1a over the printed
//! module) of the four bench kernels across the two options that reshape
//! the dataflow design. A refactor of the stencil-to-HLS transformation or
//! of the driver must leave every constant untouched; a deliberate change
//! to the emitted IR re-records them (run with `--nocapture` to print the
//! table in source form).

use shmls_kernels::{heat3d, laplace, pw_advection, tracer_advection};
use stencil_hmls::{compile, CompileOptions, HmlsOptions};

const GRID: [i64; 3] = [12, 8, 6];

/// `(kernel, temporal_depth, unroll, fingerprint)`.
const GOLDEN: [(&str, usize, i64, u64); 24] = [
    ("heat3d", 1, 1, 0xda952c6f278d619a),
    ("heat3d", 1, 2, 0xe0a2ce9ab89e8d2d),
    ("heat3d", 2, 1, 0x1bd4c95aa4f84503),
    ("heat3d", 2, 2, 0xcfbec60077e747c6),
    ("heat3d", 4, 1, 0x4d50ac6f58e5f5a1),
    ("heat3d", 4, 2, 0x50129748bf049bf1),
    ("laplace", 1, 1, 0x1a4adb90fad665ed),
    ("laplace", 1, 2, 0x87efee22e309d3ca),
    ("laplace", 2, 1, 0x8c11381540ba0078),
    ("laplace", 2, 2, 0x5c10ef786c414d34),
    ("laplace", 4, 1, 0xcb964cd070807fb3),
    ("laplace", 4, 2, 0x71c78f518c096009),
    ("pw_advection", 1, 1, 0x79439dc2992953ba),
    ("pw_advection", 1, 2, 0xb6efcc2697528616),
    ("pw_advection", 2, 1, 0x2674e096ee605272),
    ("pw_advection", 2, 2, 0x79ecb8d0591ebc1c),
    ("pw_advection", 4, 1, 0x5eff7326d3c07341),
    ("pw_advection", 4, 2, 0x53ceabce4f5157ce),
    ("tracer_advection", 1, 1, 0x14673aa6ba3dfe7b),
    ("tracer_advection", 1, 2, 0xb72c567c3c53f643),
    ("tracer_advection", 2, 1, 0x2662c0677dbc6085),
    ("tracer_advection", 2, 2, 0xba724a8ee6817b96),
    ("tracer_advection", 4, 1, 0x496e3e4a1007d930),
    ("tracer_advection", 4, 2, 0x7fe9bebeaaf3ecac),
];

fn source(kernel: &str) -> String {
    let [nx, ny, nz] = GRID;
    match kernel {
        "heat3d" => heat3d::source(nx, ny, nz),
        "laplace" => laplace::source_3d(nx, ny, nz),
        "pw_advection" => pw_advection::source(nx, ny, nz),
        "tracer_advection" => tracer_advection::source(nx, ny, nz),
        other => panic!("no such bench kernel `{other}`"),
    }
}

#[test]
fn bench_kernel_fingerprints_are_pinned() {
    let mut mismatches = Vec::new();
    for &(kernel, temporal_depth, unroll, expected) in &GOLDEN {
        let opts = CompileOptions {
            hmls: HmlsOptions {
                temporal_depth,
                unroll,
                ..HmlsOptions::default()
            },
            ..CompileOptions::default()
        };
        let got = compile(&source(kernel), &opts)
            .unwrap_or_else(|e| panic!("{kernel} d{temporal_depth}u{unroll}: {e}"))
            .design_fingerprint();
        println!("    (\"{kernel}\", {temporal_depth}, {unroll}, 0x{got:016x}),");
        if got != expected {
            mismatches.push(format!(
                "{kernel} d{temporal_depth}u{unroll}: expected {expected:016x}, got {got:016x}"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "compiled modules changed:\n{}",
        mismatches.join("\n")
    );
}
