//! Golden equivalence: the paper's two benchmark kernels, compiled through
//! the full pipeline, must produce bit-identical results on every
//! execution path — stencil interpretation, the Von-Neumann CPU lowering,
//! the Stencil-HMLS dataflow design on the sequential Kahn engine, and the
//! same design on the threaded engine with bounded FIFOs.
//!
//! The references are the *hand-written native Rust* implementations in
//! `shmls-kernels`, written independently of the compiler.

use std::collections::BTreeMap;

use shmls_ir::interp::Buffer;
use shmls_kernels::{pw_advection, tracer_advection};
use stencil_hmls::engine::{Engine, Threaded};
use stencil_hmls::runner::{run_cpu, run_hls, run_stencil, KernelData};
use stencil_hmls::{compile, CompileOptions};

const TOL: f64 = 1e-12;

fn assert_matches_golden(
    outputs: &BTreeMap<String, Buffer>,
    golden: &BTreeMap<String, shmls_kernels::Grid3>,
    path: &str,
) {
    for (name, grid) in golden {
        let buffer = outputs
            .get(name)
            .unwrap_or_else(|| panic!("{path}: output `{name}` missing"));
        let got = shmls_kernels::Grid3::from_buffer(buffer);
        let diff = got.max_diff(grid);
        assert!(
            diff < TOL,
            "{path}: field `{name}` differs from golden by {diff}"
        );
    }
}

// ---- PW advection ----------------------------------------------------

fn pw_setup(n: [i64; 3]) -> (KernelData, BTreeMap<String, shmls_kernels::Grid3>) {
    let inputs = pw_advection::PwInputs::random(n[0], n[1], n[2], 2024);
    let (su, sv, sw) = pw_advection::golden(&inputs);
    let data = inputs.data();
    let mut golden = BTreeMap::new();
    golden.insert("su".to_string(), su);
    golden.insert("sv".to_string(), sv);
    golden.insert("sw".to_string(), sw);
    (data, golden)
}

#[test]
fn pw_advection_all_paths_match_golden() {
    let n = [10, 8, 6];
    let compiled = compile(
        &pw_advection::source(n[0], n[1], n[2]),
        &CompileOptions::default(),
    )
    .unwrap();
    let (data, golden) = pw_setup(n);

    let stencil = run_stencil(&compiled, &data).unwrap();
    assert_matches_golden(&stencil, &golden, "stencil-interp");

    let cpu = run_cpu(&compiled, &data).unwrap();
    assert_matches_golden(&cpu, &golden, "cpu-loops");

    let (hls, (streams, pushed, beats)) = run_hls(&compiled, &data).unwrap();
    assert_matches_golden(&hls, &golden, "hls-sequential");
    assert!(streams >= 9, "PW should create many streams, got {streams}");
    assert!(pushed > 0 && beats > 0);

    let threaded = Threaded.sweep(&compiled, &data, 1);
    let threaded = threaded
        .expect("PW advection dataflow design must not deadlock")
        .outputs;
    assert_matches_golden(&threaded, &golden, "hls-threaded");
}

#[test]
fn pw_advection_structure_matches_paper() {
    let compiled = compile(&pw_advection::source(12, 10, 8), &CompileOptions::default()).unwrap();
    let r = &compiled.report;
    // 3 computations across 3 fields; 27-value windows in 3D.
    assert_eq!(r.compute_stages, 3);
    assert_eq!(r.inputs, 3);
    assert_eq!(r.outputs, 3);
    assert_eq!(r.window_elems, 27);
    // 7 AXI ports per CU: 6 per-field bundles + 1 shared small-data bundle.
    let mut bundles: Vec<&str> = r.bundles.iter().map(String::as_str).collect();
    bundles.sort_unstable();
    bundles.dedup();
    let m_axi = bundles.iter().filter(|b| b.starts_with("gmem")).count();
    assert_eq!(m_axi, 7, "PW advection needs 7 memory ports per CU (§4)");
}

// ---- tracer advection --------------------------------------------------

fn tracer_setup(n: [i64; 3]) -> (KernelData, BTreeMap<String, shmls_kernels::Grid3>) {
    let inputs = tracer_advection::TracerInputs::random(n[0], n[1], n[2], 77);
    let out = tracer_advection::golden(&inputs);
    let data = inputs.data();
    let mut golden = BTreeMap::new();
    golden.insert("mydomain".to_string(), out.mydomain);
    golden.insert("zind".to_string(), out.zind);
    golden.insert("zslpx".to_string(), out.zslpx);
    golden.insert("zslpy".to_string(), out.zslpy);
    golden.insert("zwx".to_string(), out.zwx);
    golden.insert("zwy".to_string(), out.zwy);
    (data, golden)
}

#[test]
fn tracer_advection_all_paths_match_golden() {
    let n = [8, 7, 6];
    let compiled = compile(
        &tracer_advection::source(n[0], n[1], n[2]),
        &CompileOptions::default(),
    )
    .unwrap();
    let (data, golden) = tracer_setup(n);

    let stencil = run_stencil(&compiled, &data).unwrap();
    assert_matches_golden(&stencil, &golden, "stencil-interp");

    let cpu = run_cpu(&compiled, &data).unwrap();
    assert_matches_golden(&cpu, &golden, "cpu-loops");

    let (hls, _) = run_hls(&compiled, &data).unwrap();
    assert_matches_golden(&hls, &golden, "hls-sequential");

    let threaded = Threaded.sweep(&compiled, &data, 1);
    let threaded = threaded
        .expect("tracer advection dataflow design must not deadlock")
        .outputs;
    assert_matches_golden(&threaded, &golden, "hls-threaded");
}

#[test]
fn tracer_advection_structure_matches_paper() {
    let compiled = compile(
        &tracer_advection::source(8, 8, 6),
        &CompileOptions::default(),
    )
    .unwrap();
    let r = &compiled.report;
    // 24 computations, 6 written fields, 17 memory ports.
    assert_eq!(r.compute_stages, 24);
    assert_eq!(r.outputs, 6);
    let mut bundles: Vec<&str> = r.bundles.iter().map(String::as_str).collect();
    bundles.sort_unstable();
    bundles.dedup();
    let m_axi = bundles.iter().filter(|b| b.starts_with("gmem")).count();
    assert_eq!(m_axi, 17, "tracer advection maps 17 memory ports (§4)");
    // The fpp round trip recovered every pipeline directive at II = 1.
    let d = compiled.directives.as_ref().unwrap();
    assert!(d.pipelined_loops.get(&1).copied().unwrap_or(0) >= 24);
}

#[test]
fn pw_advection_medium_grid_matches_golden() {
    // A larger functional run (16k interior points) to catch scaling bugs
    // in the ring buffers, window indexing and stream plumbing that tiny
    // grids might mask.
    let n = [32, 32, 16];
    let opts = CompileOptions {
        paths: stencil_hmls::TargetPath::HlsOnly,
        ..Default::default()
    };
    let compiled = compile(&pw_advection::source(n[0], n[1], n[2]), &opts).unwrap();
    let (data, golden) = pw_setup(n);
    let (hls, (_streams, _elements, beats)) = run_hls(&compiled, &data).unwrap();
    assert_matches_golden(&hls, &golden, "hls-sequential-medium");
    // Beat accounting scales: 3 loads of the padded field + 3 interior
    // writes + 6 kernel-init small-data copies (tzc1/tzc2 for su and sv,
    // tzd1/tzd2 for sw — one per consuming stage), in 8-element beats.
    let padded: u64 = n.iter().map(|&e| (e + 2) as u64).product();
    let interior: u64 = n.iter().map(|&e| e as u64).product();
    let param_elems = (n[2] + 2) as u64;
    assert_eq!(
        beats,
        3 * padded.div_ceil(8) + 3 * interior.div_ceil(8) + 6 * param_elems.div_ceil(8)
    );
}
