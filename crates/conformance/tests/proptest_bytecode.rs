//! Property test for the bytecode tier: for generated kernels, the flat
//! register programs compiled from every `stencil.apply` must reproduce
//! the tree-walking interpreter **bit for bit** — the bytecode emits the
//! exact same f64 operation sequence, so any ULP of drift is a compile
//! bug, not rounding. The same holds one layer down: the threaded
//! engine's stage plans (shmls-fpga-sim's `stageplan`) must leave the
//! dataflow results bitwise-identical to the sequential Kahn engine,
//! which still tree-walks every stage body.
//!
//! The fixed sweep pins one rotation; the seeded property sweeps
//! ([`shmls_ir::rng::sweep`], reproducible from the `(seed, case)` pair a
//! failure prints) widen the seed space. The fault-injection test closes
//! the loop: a
//! single flipped opcode in a compiled plan must be caught by the same
//! differential that the sweep relies on, proving the harness can see
//! miscompiles at all.
//!
//! Regression note: this differential is what exposed the input-register
//! recycling bug (a scalar constant's register was reused as a temp
//! destination, so every grid point after the first read the previous
//! point's result) — pinned as `input_registers_survive_repeated_runs`
//! in `shmls_ir::bytecode`.

use std::sync::Arc;

use shmls_conformance::generator::generate;
use shmls_conformance::rng::{sweep, Rng};
use shmls_conformance::GenOptions;
use shmls_ir::bytecode::{ApplyMode, Instr, Program, BLOCK};
use shmls_ir::interp::iter_box;
use shmls_ir::ir::{IdMap, OpId};
use shmls_ir::scalar::{BinOp, UnOp};
use stencil_hmls::engine::{Engine, Threaded};
use stencil_hmls::runner::{run_hls, run_stencil, run_stencil_bytecode_with};
use stencil_hmls::{compile_kernel, CompileOptions, TargetPath};

fn compile_opts() -> CompileOptions {
    CompileOptions {
        paths: TargetPath::HlsOnly,
        ..Default::default()
    }
}

/// Generate kernel (`seed`, `case`), compile it, and require bitwise
/// agreement between the tree-walking oracle and (a) the bytecode tier,
/// (b) the threaded engine's stage-plan execution. Panics with a
/// point-level description on any divergence. Returns the number of
/// compiled apply plans so callers can assert coverage.
fn check_bytecode_bitwise(seed: u64, case: u64, data_seed: u64) -> usize {
    let mut rng = Rng::new(seed).fork(case);
    let kernel = generate(&mut rng, case, &GenOptions::default());
    let compiled = compile_kernel(kernel.clone(), &compile_opts()).expect("compile");
    let data = kernel.seeded_data(data_seed);

    let oracle = run_stencil(&compiled, &data).expect("tree-walker oracle");
    let fast = run_stencil_bytecode_with(&compiled, &data, ApplyMode::Scalar)
        .expect("bytecode tier (scalar)");
    assert_bitwise(seed, case, "bytecode", &oracle, &fast, &kernel.grid);
    // The vector tier, in both its serial and threaded schedules: still
    // zero drift — blocking moves points between dispatches, never
    // operations between points.
    let simd = run_stencil_bytecode_with(&compiled, &data, ApplyMode::Chunked { threads: 1 })
        .expect("bytecode tier (blocks)");
    assert_bitwise(seed, case, "simd", &oracle, &simd, &kernel.grid);
    let threaded_simd =
        run_stencil_bytecode_with(&compiled, &data, ApplyMode::Chunked { threads: 3 })
            .expect("bytecode tier (blocks+threaded)");
    assert_bitwise(
        seed,
        case,
        "simd-threaded",
        &oracle,
        &threaded_simd,
        &kernel.grid,
    );

    // One layer down: sequential Kahn engine (tree-walks stage bodies)
    // vs the threaded engine (executes planned stages as bytecode).
    let (kahn, _) = run_hls(&compiled, &data).expect("sequential engine");
    let threaded = Threaded.sweep(&compiled, &data, 1);
    let threaded = threaded.unwrap_or_else(|e| panic!("seed {seed} case {case}: {e}"));
    assert_bitwise(
        seed,
        case,
        "threaded",
        &kahn,
        &threaded.outputs,
        &kernel.grid,
    );

    compiled.apply_plans.len()
}

fn assert_bitwise(
    seed: u64,
    case: u64,
    engine: &str,
    oracle: &std::collections::BTreeMap<String, shmls_ir::interp::Buffer>,
    got: &std::collections::BTreeMap<String, shmls_ir::interp::Buffer>,
    grid: &[i64],
) {
    let lb = vec![0i64; grid.len()];
    for (name, expect) in oracle {
        let out = got
            .get(name)
            .unwrap_or_else(|| panic!("output `{name}` missing from {engine} run"));
        for p in iter_box(&lb, grid) {
            let e = expect.load(&p).unwrap();
            let g = out.load(&p).unwrap();
            assert_eq!(
                e.to_bits(),
                g.to_bits(),
                "seed {seed} case {case}: `{engine}` disagrees with oracle on \
                 `{name}` at {p:?}: expected {e:e}, got {g:e}"
            );
        }
    }
}

/// Deterministic sweep over the PR 3 generator. Every generated kernel
/// must execute bitwise-identically on the bytecode tier, and every one
/// must actually get compiled plans — a sweep where the tier silently
/// fell back to the tree-walker would "pass" without testing anything.
#[test]
fn bytecode_matches_tree_walker_sweep() {
    let mut planned = 0usize;
    for case in 0u64..24 {
        let n = check_bytecode_bitwise(11, case, case + 1);
        assert!(n > 0, "case {case}: no apply compiled to bytecode");
        planned += n;
    }
    assert!(planned >= 24, "suspiciously low plan coverage: {planned}");
}

/// Run a seam kernel in the block mode at every thread count up to
/// `max_threads` and require bitwise agreement with the tree-walker, so
/// the axis-0 slab split and the inner-axis block split are exercised
/// together.
fn check_chunk_seam(source: &str, label: &str, max_threads: usize) {
    let kernel = shmls_frontend::parse_kernel(source).expect("parse seam kernel");
    let compiled = compile_kernel(kernel.clone(), &compile_opts()).expect("compile");
    assert!(
        !compiled.apply_plans.is_empty(),
        "{label}: no apply compiled to bytecode"
    );
    let data = kernel.seeded_data(5);
    let oracle = run_stencil(&compiled, &data).expect("oracle");
    for threads in 1..=max_threads {
        let got = run_stencil_bytecode_with(&compiled, &data, ApplyMode::Chunked { threads })
            .unwrap_or_else(|e| panic!("{label} threads={threads}: {e}"));
        let lb = vec![0i64; kernel.grid.len()];
        for (name, expect) in &oracle {
            let out = &got[name];
            for p in iter_box(&lb, &kernel.grid) {
                let e = expect.load(&p).unwrap();
                let g = out.load(&p).unwrap();
                assert_eq!(
                    e.to_bits(),
                    g.to_bits(),
                    "{label} threads={threads}: `{name}` at {p:?}: {e:e} vs {g:e}"
                );
            }
        }
    }
}

/// The block-grid seams, deterministically, for the vector tier's block
/// width W = [`BLOCK`]. Rows read in place: inner extents of W−1 (one
/// partial block), W (one full block), W+1 and 2W+1 (full blocks plus a
/// one-lane block). Short rows of a 1-D grid, which has no strips, packed
/// several to a block: 1, 3 and 16 points. Plus the 3-D cases where the
/// seams run along every row of a threaded slab split with more threads
/// than rows: laplace's 16-, 48- and 2-point rows run as strips read in
/// place, the 2-point rows with more halo lanes between them than
/// points. These are exactly the off-by-one shapes a block split, a strip
/// and a packing get wrong first.
#[test]
fn chunk_boundary_extents_are_bitwise_exact() {
    let w = BLOCK as i64;
    for n in [1, 3, 16, w - 1, w, w + 1, 2 * w + 1] {
        check_chunk_seam(
            &shmls_kernels::laplace::source_1d(n),
            &format!("laplace1d n={n}"),
            4,
        );
    }
    // (axis-0 rows, middle, inner): in place with inner W+1; a strip of
    // eight 16-point rows a plane; strips of 96 rows of 48 and of 700
    // rows of 2, each over enough points that three workers spawn — a
    // thread per row at most, so 4 and 5 clamp.
    for [nx, ny, nz] in [[3, 4, w + 1], [4, 8, 16], [3, 96, 48], [3, 700, 2]] {
        check_chunk_seam(
            &shmls_kernels::laplace::source_3d(nx, ny, nz),
            &format!("laplace3d {nx}x{ny}x{nz}"),
            5,
        );
    }
}

/// Flip one opcode in a compiled plan and require the differential to
/// notice, on both forms a kernel's plans come in: the split form's,
/// which the scalar bytecode tier runs, and the fused host form's, which
/// the vector tier runs. Each kind of flip runs on its own: an unfused
/// `Binary` or `Unary` opcode, and a fused pair's inner and outer opcode.
/// If this test ever passes with a mutation in place, the bitwise harness
/// has lost its teeth.
#[test]
fn mutated_opcode_is_detected() {
    let kernel = shmls_frontend::parse_kernel(&shmls_kernels::pw_advection::source(6, 5, 4))
        .expect("parse pw_advection");
    let data = kernel.seeded_data(3);
    let lb = vec![0i64; kernel.grid.len()];
    for flip in [Flip::Unfused, Flip::Inner, Flip::Outer] {
        let mut compiled = compile_kernel(kernel.clone(), &compile_opts()).expect("compile");
        assert!(
            !compiled.apply_plans.is_empty(),
            "pw_advection must compile to bytecode for this test to mean anything"
        );
        assert!(
            compiled.host_form().is_some(),
            "pw_advection must have a host form"
        );

        let mutated = mutate_one_opcode(&mut compiled.apply_plans, flip);
        assert!(
            mutated,
            "{flip:?}: no mutable instruction found in any plan"
        );
        let host = compiled.host.get_mut().and_then(Option::as_mut);
        let host_mutated = host.is_some_and(|host| mutate_one_opcode(&mut host.apply_plans, flip));
        assert!(
            host_mutated,
            "{flip:?}: no mutable instruction found in the host form's plan"
        );

        let oracle = run_stencil(&compiled, &data).expect("oracle");
        for mode in [ApplyMode::Scalar, ApplyMode::default()] {
            let fast = run_stencil_bytecode_with(&compiled, &data, mode).expect("mutated bytecode");
            let detected = oracle.iter().any(|(name, expect)| {
                let out = &fast[name];
                iter_box(&lb, &kernel.grid)
                    .into_iter()
                    .any(|p| expect.load(&p).unwrap().to_bits() != out.load(&p).unwrap().to_bits())
            });
            assert!(
                detected,
                "{mode:?}, {flip:?}: flipped opcode produced bitwise-identical output; \
                 the differential is blind"
            );
        }
    }
}

/// Which opcode [`mutate_one_opcode`] flips.
#[derive(Debug, Clone, Copy)]
enum Flip {
    /// A `Binary` or `Unary` instruction's.
    Unfused,
    /// A fused pair's inner opcode.
    Inner,
    /// A fused pair's outer opcode.
    Outer,
}

/// `op` flipped: `Add<->Sub`, `Mul<->Div`, `Max<->Min`, `Pow->Mul`,
/// `Copysign->Add`.
fn flipped(op: BinOp) -> BinOp {
    match op {
        BinOp::Add => BinOp::Sub,
        BinOp::Sub => BinOp::Add,
        BinOp::Mul => BinOp::Div,
        BinOp::Div => BinOp::Mul,
        BinOp::Max => BinOp::Min,
        BinOp::Min => BinOp::Max,
        BinOp::Pow => BinOp::Mul,
        BinOp::Copysign => BinOp::Add,
    }
}

/// Flip the first opcode of kind `flip` in the first of `plans` that has
/// one (a `Unary` flips `Abs->Neg`, the others to `Abs`). Returns whether
/// a mutation was applied.
fn mutate_one_opcode(plans: &mut IdMap<OpId, Arc<Program>>, flip: Flip) -> bool {
    for plan in plans.values_mut() {
        let mut prog = (**plan).clone();
        for instr in &mut prog.instrs {
            let flipped = match (flip, instr) {
                (Flip::Unfused, Instr::Binary { op, .. }) => {
                    *op = flipped(*op);
                    true
                }
                (Flip::Unfused, Instr::Unary { op, .. }) => {
                    *op = match *op {
                        UnOp::Abs | UnOp::Sqrt | UnOp::Exp => UnOp::Neg,
                        UnOp::Neg => UnOp::Abs,
                    };
                    true
                }
                (Flip::Inner, Instr::Bin2 { inner: op, .. })
                | (Flip::Outer, Instr::Bin2 { outer: op, .. }) => {
                    *op = flipped(*op);
                    true
                }
                _ => false,
            };
            if flipped {
                *plan = Arc::new(prog);
                return true;
            }
        }
    }
    false
}

/// Root seed of the property sweeps below.
const SEED: u64 = 0xb7c_0001;

#[test]
fn bytecode_matches_tree_walker() {
    // `(seed, case, data_seed) in (any u64, 0..256, 1..1_000_000)`
    let gen = |r: &mut Rng| {
        (
            r.next_u64(),
            r.range(0, 255) as u64,
            r.range(1, 999_999) as u64,
        )
    };
    sweep(SEED, 32, gen, |&(seed, case, data_seed)| {
        check_bytecode_bitwise(seed, case, data_seed);
    });
}

/// Block split property: for a random row length of a 1-D grid — short
/// enough to be packed, or straddling the block grid — and a random
/// thread count, the block executor's full blocks + partial last block
/// must partition the row with no gap, no overlap, and no arithmetic
/// difference — checked by bitwise comparison against the tree-walker at
/// every point.
#[test]
fn interior_halo_split_is_exact() {
    // `(n, threads, data_seed) in (1..80 ∪ W−1..3W+1, 1..5, 1..1_000)`
    let w = BLOCK as i64;
    let gen = |r: &mut Rng| {
        let n = match r.range(0, 1) {
            0 => r.range_i64(1, 79),
            _ => w - 1 + r.range_i64(0, 2 * w + 1),
        };
        (n, r.range(1, 4), r.range(1, 999) as u64)
    };
    sweep(SEED, 32, gen, |&(n, threads, data_seed)| {
        let kernel =
            shmls_frontend::parse_kernel(&shmls_kernels::laplace::source_1d(n)).expect("parse");
        let compiled = compile_kernel(kernel.clone(), &compile_opts()).expect("compile");
        let data = kernel.seeded_data(data_seed);
        let oracle = run_stencil(&compiled, &data).expect("oracle");
        let got = run_stencil_bytecode_with(&compiled, &data, ApplyMode::Chunked { threads })
            .expect("block mode");
        let lb = vec![0i64; kernel.grid.len()];
        for (name, expect) in &oracle {
            let out = &got[name];
            for p in iter_box(&lb, &kernel.grid) {
                let e = expect.load(&p).unwrap();
                let g = out.load(&p).unwrap();
                assert_eq!(
                    e.to_bits(),
                    g.to_bits(),
                    "n={n} threads={threads} `{name}` at {p:?}: {e:e} vs {g:e}"
                );
            }
        }
    });
}
