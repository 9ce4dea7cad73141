//! The kernel catalogue (`shmls_kernels::catalogue`): every row the two
//! command lines can name parses, compiles and binds its seeded inputs on
//! every execution engine, and those inputs are bit for bit what
//! `telemetry::kernel_data` built for the same name before the catalogue
//! replaced it — `bench/baseline.json` was recorded over them.

use std::collections::BTreeMap;

use shmls_ir::bytecode::{ApplyMode, BLOCK};
use shmls_ir::interp::Buffer;
use shmls_kernels::catalogue::{self, CATALOGUE};
use stencil_hmls::engine::{Engine, Interp, NAMED, VECTOR};
use stencil_hmls::{compile, CompileOptions, Fnv64};

/// FNV-1a over every buffer (name, shape, origin, element bits) and every
/// scalar (name, bits), in name order.
fn digest(data: &stencil_hmls::runner::KernelData) -> u64 {
    let mut h = Fnv64::new();
    for (name, b) in &data.buffers {
        h.update(name.as_bytes());
        for v in b.shape.iter().chain(&b.origin) {
            h.update(&v.to_le_bytes());
        }
        for v in &b.data {
            h.update(&v.to_bits().to_le_bytes());
        }
    }
    for (name, v) in &data.scalars {
        h.update(name.as_bytes());
        h.update(&v.to_bits().to_le_bytes());
    }
    h.finish()
}

#[test]
fn seeded_inputs_are_the_ones_the_ledger_was_recorded_over() {
    // Recorded at the parent commit from `telemetry::kernel_data`.
    let recorded = [
        ("heat3d", [10, 8, 6], 0x965247aab87a2e6d),
        ("heat3d", [12, 10, 8], 0x7b042a51f93fd152),
        ("laplace", [10, 8, 6], 0x273b629541a79530),
        ("laplace", [12, 10, 8], 0xf2aa8cc3232e3a5c),
        ("pw_advection", [10, 8, 6], 0x54d2466f8ed77d23),
        ("pw_advection", [12, 10, 8], 0x0e876f81359821f3),
        ("tracer_advection", [10, 8, 6], 0x0e0ffd8b1899c8a6),
        ("tracer_advection", [12, 10, 8], 0xdb68fec4023d761c),
    ];
    for (name, grid, expected) in recorded {
        let kernel = catalogue::by_name(name).expect(name);
        assert_eq!(digest(&kernel.data(grid)), expected, "{name} at {grid:?}");
    }
    assert_eq!(recorded.len(), 2 * CATALOGUE.len(), "a row has no pin");
    assert!(catalogue::by_name("laplace3d").is_none());
}

/// Whether two sweeps wrote the same outputs: names, shapes, origins and
/// element bits. `==` on the elements would let −0 pass for +0.
fn same_bits(a: &BTreeMap<String, Buffer>, b: &BTreeMap<String, Buffer>) -> bool {
    let bits = |buf: &Buffer| buf.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    a.len() == b.len()
        && a.iter().zip(b).all(|((name_a, x), (name_b, y))| {
            name_a == name_b && x.shape == y.shape && x.origin == y.origin && bits(x) == bits(y)
        })
}

#[test]
fn every_row_runs_on_every_engine() {
    // The small grids' short inner rows run several to a block, as strips
    // read in place: every catalogue kernel's fields share one row pitch
    // and none indexes a parameter along the rows of a strip, so none is
    // packed (`bytecode::tests` hold the packed twins). Rows of 2 strip
    // with more halo lanes than points. The last grid's rows, of
    // 2·BLOCK + 1 points, run as blocks in place. All on the vector
    // engine's wide copy where the host has one, against the
    // tree-walker, which runs at the baseline width.
    let grids = [
        [6, 5, 2],
        [6, 5, 4],
        [6, 5, 16],
        [3, 2, 2 * BLOCK as i64 + 1],
    ];
    let mut engines: Vec<&dyn Engine> = NAMED.to_vec();
    engines.extend([
        &Interp::Bytecode(ApplyMode::Scalar) as &dyn Engine,
        &Interp::Cpu,
    ]);
    for (kernel, grid) in CATALOGUE.into_iter().flat_map(|k| grids.map(|g| (k, g))) {
        let compiled = compile(&kernel.source(grid), &CompileOptions::default())
            .unwrap_or_else(|e| panic!("{} does not compile: {e}", kernel.name));
        let data = kernel.data(grid);
        let reference = Interp::Tree.sweep(&compiled, &data, 1).unwrap().outputs;
        assert!(!reference.is_empty(), "{} writes nothing", kernel.name);
        for engine in &engines {
            let outputs = engine
                .sweep(&compiled, &data, 1)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", kernel.name, engine.name()))
                .outputs;
            assert!(
                same_bits(&outputs, &reference),
                "{} {grid:?} on {}",
                kernel.name,
                engine.name()
            );
        }
        let work = VECTOR.sweep(&compiled, &data, 1).unwrap().work.unwrap();
        assert_eq!(work.gathered, 0, "{} {grid:?} gathered", kernel.name);
    }
}

#[test]
fn only_the_paper_kernels_have_paper_sizes() {
    let sized: Vec<&str> = CATALOGUE
        .into_iter()
        .filter(|k| !k.sizes().is_empty())
        .map(|k| k.name)
        .collect();
    assert_eq!(sized, ["pw_advection", "tracer_advection"]);
    assert_eq!(catalogue::PW_ADVECTION.title, "PW advection");
    assert_eq!(catalogue::TRACER_ADVECTION.title, "tracer advection");
}
