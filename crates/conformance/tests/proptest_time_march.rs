//! Property test for the scale-out path: for generated kernels, random
//! slab splits, random step counts, and random temporal depths,
//! time-marching over parallel compute units must equal the monolithic
//! run — bit-for-bit for one step, and within a small ULP tolerance for
//! multi-step marches (in practice the slab path executes the identical
//! f64 operation sequence per point, so the tolerance is headroom, not
//! an excuse). A temporally-blocked march (`depth > 1`) must
//! additionally be *bitwise* identical to the depth-1 march of the same
//! configuration: chaining timesteps on-chip is a scheduling change, not
//! a numerical one. Every march runs twice, on the vector tier the march
//! defaults to and on the stream executor (the only thing that runs the
//! deep slab designs' seam stages), and the two must agree bitwise too.
//!
//! The fixed sweep below covers a full rotation of the configuration
//! space; the seeded property sweep ([`shmls_ir::rng::sweep`],
//! reproducible from the `(seed, case)` pair a failure prints) widens
//! the seed space. Any regression found here should be pinned as a
//! `pinned_*` test with its exact (seed, case, cus, steps, depth, data
//! seed).

use shmls_conformance::fuzz::rotated_scale;
use shmls_conformance::generator::generate;
use shmls_conformance::harness::{clamp_scale, ulp_distance};
use shmls_conformance::rng::{sweep, Rng};
use shmls_conformance::{GenOptions, ScaleConfig};
use stencil_hmls::engine::{Engine, Stream, VECTOR};
use stencil_hmls::runner::run_hls;
use stencil_hmls::scale::{run_time_marched_with, time_march_reference, MarchOptions};
use stencil_hmls::{compile_kernel, CompileOptions, TargetPath};

/// Generate kernel (`seed`, `case`), clamp `(cus, steps, depth)` to its
/// grid, and compare the slab march against the iterated monolithic run
/// — and, at `depth > 1`, bitwise against the depth-1 march. Panics
/// with a point-level description on any divergence.
fn check_slab_march(seed: u64, case: u64, cfg: ScaleConfig, data_seed: u64) {
    let mut rng = Rng::new(seed).fork(case);
    let kernel = generate(&mut rng, case, &GenOptions::default());
    check_march_of(&kernel, cfg, data_seed, &format!("seed {seed} case {case}"));
}

/// The body of [`check_slab_march`] on an explicit kernel, so the
/// pinned seam tests can drive hand-written degenerate kernels.
fn check_march_of(kernel: &shmls_frontend::KernelDef, cfg: ScaleConfig, data_seed: u64, who: &str) {
    let cfg = clamp_scale(kernel, cfg);
    let data = kernel.seeded_data(data_seed);
    let mut opts = CompileOptions {
        paths: TargetPath::HlsOnly,
        ..Default::default()
    };
    opts.hmls.temporal_depth = cfg.depth;

    let mono_opts = CompileOptions {
        paths: TargetPath::HlsOnly,
        ..Default::default()
    };
    let monolithic = compile_kernel(kernel.clone(), &mono_opts).expect("monolithic compile");
    let reference = time_march_reference(kernel, &data, cfg.steps, |d| {
        run_hls(&monolithic, d).map(|(out, _)| out)
    })
    .expect("monolithic march");
    type Outputs = std::collections::BTreeMap<String, shmls_ir::interp::Buffer>;
    let assert_bitwise = |a: &Outputs, b: &Outputs, what: &str| {
        assert_eq!(
            a.len(),
            b.len(),
            "{who} ({cfg}): {what}: output sets differ"
        );
        for (name, a_buf) in a {
            let b_buf = b
                .get(name)
                .unwrap_or_else(|| panic!("{who} ({cfg}): {what}: output `{name}` missing"));
            for (i, (x, y)) in a_buf.data.iter().zip(&b_buf.data).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{who} ({cfg}): {what}: `{name}` element {i}: {x:e} vs {y:e}"
                );
            }
        }
    };
    let mut marches = Vec::new();
    for engine in [&VECTOR as &dyn Engine, &Stream] {
        let march = MarchOptions {
            engine: Some(engine),
            ..Default::default()
        };
        let (marched, report) =
            run_time_marched_with(kernel, &data, cfg.steps, cfg.cus, &opts, &march)
                .unwrap_or_else(|e| panic!("{who} ({cfg}): {} march: {e}", engine.name()));
        assert_eq!(report.cus, cfg.cus);
        assert_eq!(report.steps, cfg.steps);
        assert_eq!(report.temporal_depth, cfg.depth);
        assert_eq!(report.engine, engine.name());

        let max_ulps = if cfg.steps == 1 { 0 } else { 4 };
        let lb = vec![0i64; kernel.rank()];
        for (name, mono) in &reference {
            let slab = marched
                .get(name)
                .unwrap_or_else(|| panic!("output `{name}` missing from slab march"));
            for p in shmls_ir::interp::iter_box(&lb, &kernel.grid) {
                let expect = mono.load(&p).unwrap();
                let got = slab.load(&p).unwrap();
                let d = ulp_distance(expect, got);
                assert!(
                    d <= max_ulps,
                    "{who} ({cfg}, {}): `{name}` at {p:?}: \
                     monolithic {expect:e} vs slab {got:e} ({d} ulps)",
                    engine.name()
                );
            }
        }

        // Temporal blocking is a scheduling change, not a numerical one:
        // the deep march must be bitwise identical to the depth-1 march.
        if cfg.depth > 1 {
            let (shallow, _) =
                run_time_marched_with(kernel, &data, cfg.steps, cfg.cus, &mono_opts, &march)
                    .expect("depth-1 march");
            assert_bitwise(
                &marched,
                &shallow,
                &format!("{} depth-{} vs depth-1", engine.name(), cfg.depth),
            );
        }
        marches.push(marched);
    }
    // So is the choice of engine.
    assert_bitwise(&marches[0], &marches[1], "vector vs stream");
}

/// Deterministic sweep: one full rotation of `(cus, steps, depth)` over
/// distinct generated kernels and data seeds — the same rotation the
/// fuzzer's scale dimension walks, including remainder rounds
/// (steps 5, depth 2|4) and depth > steps (steps 1|2, depth 4).
#[test]
fn slab_march_matches_monolithic_sweep() {
    for case in 0u64..24 {
        check_slab_march(7, case, rotated_scale(case), case + 1);
    }
}

/// Seam: the whole march is a single sweep shallower than the
/// configured depth (`depth > steps` — no feed, no remainder).
#[test]
fn pinned_depth_exceeds_steps() {
    for case in [0u64, 3, 11] {
        check_slab_march(
            11,
            case,
            ScaleConfig {
                cus: 2,
                steps: 2,
                depth: 4,
            },
            case + 9,
        );
    }
}

/// Seam: the march is exactly one whole round (`depth == steps` — one
/// deep sweep, no feed between rounds).
#[test]
fn pinned_depth_equals_steps() {
    for case in [1u64, 5, 17] {
        check_slab_march(
            13,
            case,
            ScaleConfig {
                cus: 2,
                steps: 4,
                depth: 4,
            },
            case + 2,
        );
    }
}

/// Seam: a non-divisible step count finishes with a shallower remainder
/// round (5 = 2 + 2 + 1) whose design differs from the whole rounds'.
#[test]
fn pinned_remainder_round() {
    for case in [2u64, 7, 23] {
        check_slab_march(
            17,
            case,
            ScaleConfig {
                cus: 2,
                steps: 5,
                depth: 2,
            },
            case + 4,
        );
    }
}

/// Seam: a halo-0 pointwise kernel at depth > 1 has *empty* merge rings
/// (bounded == interior) and zero slab extension — the inter-step merge
/// stages degenerate to pure pass-through.
#[test]
fn pinned_pointwise_empty_ring_at_depth() {
    let kernel = shmls_frontend::parse_kernel(
        "kernel pw { grid(6, 5) halo 0 field a : input field b : output \
         compute b { b = a[0,0] + a[0,0] } }",
    )
    .unwrap();
    for (cus, steps, depth) in [(1, 4, 2), (2, 5, 2), (3, 3, 4)] {
        check_march_of(
            &kernel,
            ScaleConfig { cus, steps, depth },
            31,
            "pointwise halo-0",
        );
    }
}

/// Seam: a single-row grid cannot extend its slab at all (both clamps
/// bind), and a rank-1 two-row grid over two CUs extends each slab to
/// the full domain.
#[test]
fn pinned_degenerate_grids_at_depth() {
    let one_row = shmls_frontend::parse_kernel(
        "kernel r1 { grid(1, 6) halo 1 field a : input field b : output \
         compute b { b = a[0,-1] + a[0,1] } }",
    )
    .unwrap();
    check_march_of(
        &one_row,
        ScaleConfig {
            cus: 1,
            steps: 5,
            depth: 3,
        },
        41,
        "one-row grid",
    );
    let two_rows = shmls_frontend::parse_kernel(
        "kernel r2 { grid(2) halo 1 field a : input field b : output \
         compute b { b = a[-1] + a[1] } }",
    )
    .unwrap();
    check_march_of(
        &two_rows,
        ScaleConfig {
            cus: 2,
            steps: 4,
            depth: 2,
        },
        43,
        "two-row rank-1 grid",
    );
}

#[test]
fn slab_march_matches_monolithic() {
    // `(seed, case, (cus, steps, depth), data_seed) in (any u64, 0..256,
    // (1..=3, one of 1|2|4|5, one of 1|2|4), 1..1_000_000)`
    let gen = |r: &mut Rng| {
        let (seed, case) = (r.next_u64(), r.range(0, 255) as u64);
        let cfg = ScaleConfig {
            cus: r.range(1, 3),
            steps: *r.pick(&[1, 2, 4, 5]),
            depth: *r.pick(&[1, 2, 4]),
        };
        (seed, case, cfg, r.range(1, 999_999) as u64)
    };
    sweep(0x7a3_0001, 24, gen, |&(seed, case, cfg, data_seed)| {
        check_slab_march(seed, case, cfg, data_seed);
    });
}
