//! Compute-unit replication: domain decomposition along the slowest axis
//! must be value-identical to a single-CU run — the functional
//! counterpart of §4's 4-CU PW advection deployment.

use shmls_kernels::pw_advection;
use stencil_hmls::runner::{run_hls, run_hls_multi_cu, KernelData};
use stencil_hmls::{compile, CompileOptions, TargetPath};

fn pw_data(n: [i64; 3]) -> (shmls_frontend::KernelDef, KernelData) {
    let kernel = shmls_frontend::parse_kernel(&pw_advection::source(n[0], n[1], n[2])).unwrap();
    let inputs = pw_advection::PwInputs::random(n[0], n[1], n[2], 11);
    let data = inputs.data();
    (kernel, data)
}

#[test]
fn four_cus_match_single_cu() {
    let n = [13, 6, 5]; // 13 rows over 4 CUs: slabs of 4, 3, 3, 3
    let (kernel, data) = pw_data(n);
    let opts = CompileOptions {
        paths: TargetPath::HlsOnly,
        ..Default::default()
    };

    let single = compile(&pw_advection::source(n[0], n[1], n[2]), &opts).unwrap();
    let (reference, _) = run_hls(&single, &data).unwrap();

    let multi = run_hls_multi_cu(&kernel, &data, 4, &opts).unwrap();

    for name in ["su", "sv", "sw"] {
        let a = &reference[name];
        let b = &multi[name];
        for p in shmls_ir::interp::iter_box(&[0, 0, 0], &n) {
            let va = a.load(&p).unwrap();
            let vb = b.load(&p).unwrap();
            assert!(
                (va - vb).abs() < 1e-12,
                "{name} at {p:?}: single {va} vs 4-CU {vb}"
            );
        }
    }
}

#[test]
fn cu_counts_sweep() {
    let n = [8, 5, 4];
    let (kernel, data) = pw_data(n);
    let opts = CompileOptions {
        paths: TargetPath::HlsOnly,
        ..Default::default()
    };
    let single = compile(&pw_advection::source(n[0], n[1], n[2]), &opts).unwrap();
    let (reference, _) = run_hls(&single, &data).unwrap();
    for cus in [1usize, 2, 3, 8] {
        let multi = run_hls_multi_cu(&kernel, &data, cus, &opts).unwrap();
        for name in ["su", "sv", "sw"] {
            for p in shmls_ir::interp::iter_box(&[0, 0, 0], &n) {
                let va = reference[name].load(&p).unwrap();
                let vb = multi[name].load(&p).unwrap();
                assert!((va - vb).abs() < 1e-12, "{cus} CUs, {name} at {p:?}");
            }
        }
    }
}

#[test]
fn too_many_cus_rejected() {
    let n = [4, 4, 4];
    let (kernel, data) = pw_data(n);
    let opts = CompileOptions {
        paths: TargetPath::HlsOnly,
        ..Default::default()
    };
    let e = run_hls_multi_cu(&kernel, &data, 5, &opts).unwrap_err();
    assert!(e.to_string().contains("cannot split"), "{e}");
    let e = run_hls_multi_cu(&kernel, &data, 0, &opts).unwrap_err();
    assert!(e.to_string().contains("at least one"), "{e}");
}
