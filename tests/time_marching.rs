//! Scale-out execution: parallel CU workers must be byte-identical to
//! the serial path, time-marching with halo exchange must match the
//! monolithic reference — to the bit, whole buffers, on every engine at
//! every (compute units × steps × temporal depth) — the compile cache
//! must make the compile count independent of the step count, and the
//! error paths and the fault-injection self-test must all fire.

use std::collections::BTreeMap;

use shmls_ir::interp::Buffer;
use shmls_kernels::{heat3d, pw_advection, tracer_advection};
use stencil_hmls::cache::CompileCache;
use stencil_hmls::engine::{Engine, Stream, Threaded, VECTOR};
use stencil_hmls::runner::{run_hls, run_hls_multi_cu, run_stencil, KernelData};
use stencil_hmls::scale::{
    run_time_marched, run_time_marched_with, time_march_reference, HaloFault, MarchOptions,
};
use stencil_hmls::{compile, compile_kernel, CompileOptions, TargetPath};

fn pw_data(n: [i64; 3]) -> (shmls_frontend::KernelDef, KernelData) {
    let kernel = shmls_frontend::parse_kernel(&pw_advection::source(n[0], n[1], n[2])).unwrap();
    let inputs = pw_advection::PwInputs::random(n[0], n[1], n[2], 23);
    let data = inputs.data();
    (kernel, data)
}

fn heat_data(n: [i64; 3]) -> (shmls_frontend::KernelDef, KernelData) {
    let kernel = shmls_frontend::parse_kernel(&heat3d::source(n[0], n[1], n[2])).unwrap();
    let inputs = heat3d::Heat3dInputs::random(n[0], n[1], n[2], 3);
    let data = inputs.data();
    (kernel, data)
}

fn tracer_data(n: [i64; 3]) -> (shmls_frontend::KernelDef, KernelData) {
    let source = tracer_advection::source(n[0], n[1], n[2]);
    let kernel = shmls_frontend::parse_kernel(&source).unwrap();
    let inputs = tracer_advection::TracerInputs::random(n[0], n[1], n[2], 7);
    let data = inputs.data();
    (kernel, data)
}

fn opts() -> CompileOptions {
    opts_depth(1)
}

fn opts_depth(depth: usize) -> CompileOptions {
    let mut opts = CompileOptions {
        paths: TargetPath::HlsOnly,
        ..Default::default()
    };
    opts.hmls.temporal_depth = depth;
    opts
}

/// Assert two output maps are bit-for-bit identical (shape, origin, and
/// every stored f64, halo included).
fn assert_bitwise_eq(a: &BTreeMap<String, Buffer>, b: &BTreeMap<String, Buffer>, what: &str) {
    assert_eq!(
        a.keys().collect::<Vec<_>>(),
        b.keys().collect::<Vec<_>>(),
        "{what}: output fields differ"
    );
    for (name, ba) in a {
        let bb = &b[name];
        assert_eq!(ba.shape, bb.shape, "{what}: `{name}` shape");
        assert_eq!(ba.origin, bb.origin, "{what}: `{name}` origin");
        for (i, (va, vb)) in ba.data.iter().zip(&bb.data).enumerate() {
            assert_eq!(
                va.to_bits(),
                vb.to_bits(),
                "{what}: `{name}` word {i}: {va} vs {vb}"
            );
        }
    }
}

#[test]
fn parallel_cus_byte_identical_to_serial() {
    let (kernel, data) = pw_data([11, 6, 5]);
    let serial = MarchOptions {
        serial: true,
        ..Default::default()
    };
    for steps in [1usize, 3] {
        let (par, _) = run_time_marched(&kernel, &data, steps, 4, &opts()).unwrap();
        let (seq, _) = run_time_marched_with(&kernel, &data, steps, 4, &opts(), &serial).unwrap();
        assert_bitwise_eq(&par, &seq, &format!("steps={steps}"));
    }
}

#[test]
fn engines_march_to_the_oracles_bits_at_every_cus_steps_depth() {
    // The engines are interchangeable under the march: vector, stream and
    // threaded agree with the iterated monolithic stencil function on
    // whole buffers, halo ring included, over a grid that covers the
    // single sweep, whole rounds, the shallower remainder round and a
    // depth beyond the step count.
    let engines: [&dyn Engine; 3] = [&VECTOR, &Stream, &Threaded];
    let n = [6, 4, 3];
    for (kernel, data) in [pw_data(n), heat_data(n), tracer_data(n)] {
        let monolithic = compile_kernel(kernel.clone(), &opts()).unwrap();
        let cache = CompileCache::new();
        for steps in [1usize, 3, 5] {
            let oracle =
                time_march_reference(&kernel, &data, steps, |d| run_stencil(&monolithic, d))
                    .unwrap();
            for cus in [1usize, 2, 3] {
                for depth in [1usize, 2, 4] {
                    for engine in engines {
                        let what = format!(
                            "{} on {}: cus={cus} steps={steps} depth={depth}",
                            kernel.name,
                            engine.name()
                        );
                        let march = MarchOptions {
                            cache: Some(&cache),
                            engine: Some(engine),
                            ..Default::default()
                        };
                        let o = opts_depth(depth);
                        let (marched, report) =
                            run_time_marched_with(&kernel, &data, steps, cus, &o, &march)
                                .unwrap_or_else(|e| panic!("{what}: {e}"));
                        assert_bitwise_eq(&oracle, &marched, &what);
                        let round_depths: Vec<usize> =
                            report.rounds.iter().map(|r| r.depth).collect();
                        let mut expected = vec![depth; steps / depth];
                        expected.extend((steps % depth != 0).then_some(steps % depth));
                        assert_eq!(round_depths, expected, "{what}: rounds");
                    }
                }
            }
        }
    }
}

#[test]
fn a_march_on_worker_threads_is_the_serial_march() {
    // The stream engine puts slabs of any size on worker threads; the
    // vector tier sweeps small ones on the calling thread either way, so
    // it gets a grid past its threshold.
    let big = [24, 40, 40];
    let depth = 2;
    assert!((big[0] / 3 * big[1] * big[2]) as u64 * depth as u64 >= VECTOR.min_parallel_work());
    let small = [6, 4, 3];
    let cases: [(_, &dyn Engine); 4] = [
        (pw_data(small), &Stream),
        (heat_data(small), &Stream),
        (tracer_data(small), &Stream),
        (heat_data(big), &VECTOR),
    ];
    for ((kernel, data), engine) in cases {
        let cache = CompileCache::new();
        let run = |serial: bool| {
            let march = MarchOptions {
                serial,
                cache: Some(&cache),
                engine: Some(engine),
                ..Default::default()
            };
            run_time_marched_with(&kernel, &data, 5, 3, &opts_depth(depth), &march)
                .unwrap()
                .0
        };
        let what = format!("{} on {}", kernel.name, engine.name());
        assert_bitwise_eq(&run(false), &run(true), &what);
    }
}

#[test]
fn one_step_matches_run_hls_multi_cu_exactly() {
    let (kernel, data) = pw_data([10, 6, 5]);
    for cus in [1usize, 3] {
        let merged = run_hls_multi_cu(&kernel, &data, cus, &opts()).unwrap();
        let (marched, report) = run_time_marched(&kernel, &data, 1, cus, &opts()).unwrap();
        assert_bitwise_eq(&merged, &marched, &format!("cus={cus}"));
        assert_eq!(report.steps, 1);
        assert_eq!(report.cus, cus);
    }
}

#[test]
fn time_marching_matches_monolithic_reference() {
    let n = [10, 6, 5];
    let (kernel, data) = pw_data(n);
    let single = compile(&pw_advection::source(n[0], n[1], n[2]), &opts()).unwrap();
    let reference = time_march_reference(&kernel, &data, 3, |d| {
        run_hls(&single, d).map(|(out, _)| out)
    })
    .unwrap();
    let (marched, _) = run_time_marched(&kernel, &data, 3, 3, &opts()).unwrap();
    // Same floating-point operations on the same values in the same
    // per-point order: the slab path must agree bit-for-bit on the
    // interior (the monolithic reference carries different halo values,
    // so compare interior points only).
    for (name, mono) in &reference {
        let slab = &marched[name];
        for p in shmls_ir::interp::iter_box(&[0, 0, 0], &n) {
            let va = mono.load(&p).unwrap();
            let vb = slab.load(&p).unwrap();
            assert_eq!(va.to_bits(), vb.to_bits(), "{name} at {p:?}: {va} vs {vb}");
        }
    }
}

#[test]
fn error_paths_are_reported() {
    let (kernel, data) = pw_data([6, 5, 4]);
    let e = run_time_marched(&kernel, &data, 0, 2, &opts()).unwrap_err();
    assert!(e.to_string().contains("at least one timestep"), "{e}");
    let e = run_time_marched(&kernel, &data, 1, 0, &opts()).unwrap_err();
    assert!(e.to_string().contains("at least one compute unit"), "{e}");
    let e = run_time_marched(&kernel, &data, 1, 7, &opts()).unwrap_err();
    assert!(e.to_string().contains("cannot split"), "{e}");
}

#[test]
fn slab_height_below_halo_rejected_for_multi_step() {
    // halo-2 kernel on 5 rows over 3 CUs: slabs of 1–2 rows cannot
    // source a 2-row halo from one neighbour.
    let kernel = shmls_frontend::parse_kernel(
        "kernel deep { grid(5, 6) halo 2 field a : input field b : output \
         compute b { b = a[-2,0] + a[0,2] } }",
    )
    .unwrap();
    let mut a = Buffer::zeroed(vec![9, 10], vec![-2, -2]);
    for r in -2..7 {
        for c in -2..8 {
            a.store(&[r, c], (3 * r + c) as f64).unwrap();
        }
    }
    let data = KernelData::default().buffer("a", a);
    let e = run_time_marched(&kernel, &data, 2, 3, &opts()).unwrap_err();
    assert!(
        e.to_string().contains("smaller than the halo"),
        "expected slab-height error, got: {e}"
    );
    // A single step needs no exchange, so the same split is fine.
    run_time_marched(&kernel, &data, 1, 3, &opts()).unwrap();
}

#[test]
fn dropped_halo_row_changes_the_answer() {
    // Self-test of the differential harness: a lost halo-exchange
    // message must be observable in the next step's output.
    let (kernel, data) = pw_data([8, 6, 5]);
    for engine in [&VECTOR as &dyn Engine, &Stream] {
        let clean_march = MarchOptions {
            engine: Some(engine),
            ..Default::default()
        };
        let (clean, _) =
            run_time_marched_with(&kernel, &data, 2, 2, &opts(), &clean_march).unwrap();
        let faulty_march = MarchOptions {
            fault: Some(HaloFault { cu: 1, step: 0 }),
            ..clean_march
        };
        let (faulty, _) =
            run_time_marched_with(&kernel, &data, 2, 2, &opts(), &faulty_march).unwrap();
        let differs = clean.iter().any(|(name, cb)| {
            let words = cb.data.iter().zip(&faulty[name].data);
            words
                .into_iter()
                .any(|(va, vb)| va.to_bits() != vb.to_bits())
        });
        assert!(
            differs,
            "{}: dropping an exchanged halo row went undetected",
            engine.name()
        );
    }
}

#[test]
fn compile_count_is_independent_of_steps() {
    let (kernel, data) = pw_data([10, 6, 5]);
    // 10 rows over 3 CUs → heights 4, 3, 3: two distinct designs.
    let cache1 = CompileCache::new();
    let march1 = MarchOptions {
        cache: Some(&cache1),
        ..Default::default()
    };
    let (_, one_step) = run_time_marched_with(&kernel, &data, 1, 3, &opts(), &march1).unwrap();
    let cache9 = CompileCache::new();
    let march9 = MarchOptions {
        cache: Some(&cache9),
        ..Default::default()
    };
    let (_, nine_steps) = run_time_marched_with(&kernel, &data, 9, 3, &opts(), &march9).unwrap();
    assert_eq!(one_step.cache_misses, 2, "two distinct slab heights");
    assert_eq!(one_step.cache_hits, 1, "third CU reuses a design");
    assert_eq!(
        nine_steps.cache_misses, one_step.cache_misses,
        "compile count must not grow with steps"
    );
    assert_eq!(cache9.stats().misses, 2);
    // A second run through the same cache compiles nothing.
    let (_, warm) = run_time_marched_with(&kernel, &data, 1, 3, &opts(), &march9).unwrap();
    assert_eq!(warm.cache_misses, 0);
    assert_eq!(warm.cache_hits, 3);
}

#[test]
fn report_aggregates_are_consistent() {
    let (kernel, data) = pw_data([10, 6, 5]);
    let on_streams = MarchOptions {
        engine: Some(&Stream),
        ..Default::default()
    };
    let (_, report) = run_time_marched_with(&kernel, &data, 2, 3, &opts(), &on_streams).unwrap();
    assert_eq!(report.engine, "stream");
    assert_eq!(report.per_cu.len(), 3);
    // The slabs tile the axis without gaps or overlap.
    assert_eq!(report.per_cu[0].rows, (0, 4));
    assert_eq!(report.per_cu[1].rows, (4, 7));
    assert_eq!(report.per_cu[2].rows, (7, 10));
    let elems: u64 = report.per_cu.iter().map(|c| c.interior_elems).sum();
    assert_eq!(elems, 10 * 6 * 5);
    assert!(report.elems_per_s > 0.0);
    assert!(report.load_imbalance >= 1.0);
    assert!(report.cache_hit_rate() > 0.0);
    // Model aggregates mirror the per-CU cycle estimates.
    let max_cycles = report.per_cu.iter().map(|c| c.model_cycles).max().unwrap();
    assert_eq!(report.model.makespan_cycles, max_cycles);
    assert_eq!(report.model.per_cu_cycles.len(), 3);
    // Stream statistics are the stream engine's to report: present on
    // it, pushed elements summed over both steps, and absent from the
    // default vector march, whose other columns are the same.
    let (_, one_step) = run_time_marched_with(&kernel, &data, 1, 3, &opts(), &on_streams).unwrap();
    for (cu, once) in report.per_cu.iter().zip(&one_step.per_cu) {
        let (streams, pushed, beats) = cu.stream.expect("stream statistics");
        let (streams_once, pushed_once, beats_once) = once.stream.expect("stream statistics");
        assert!(streams > 0 && streams == streams_once);
        assert_eq!((pushed, beats), (2 * pushed_once, 2 * beats_once));
    }
    let (_, vector) = run_time_marched(&kernel, &data, 2, 3, &opts()).unwrap();
    assert_eq!(vector.engine, "vector");
    for (cu, streamed) in vector.per_cu.iter().zip(&report.per_cu) {
        assert!(cu.stream.is_none());
        assert_eq!(cu.rows, streamed.rows);
        assert_eq!(cu.model_cycles, streamed.model_cycles);
    }
}

#[test]
fn tuned_best_design_matches_default_march_bitwise() {
    // The autotuner only picks *how* the work is scheduled (CU count,
    // temporal depth); it must never change *what* is computed. March the
    // best frontier candidate and the default single-CU depth-1 design
    // over the same inputs and demand bit-identical outputs.
    use stencil_hmls::autotune::{self, TuneOptions};

    let (kernel, data) = heat_data([12, 10, 8]);

    // Cap the CU axis so every swept slab keeps at least `halo x depth`
    // rows and the tuned schedule is always marchable on this grid.
    let cache = CompileCache::new();
    let tune_opts = TuneOptions {
        cus: vec![1, 2, 4],
        ..TuneOptions::quick()
    };
    let report = autotune::tune(&kernel, &tune_opts, &cache).unwrap();
    let best = &report
        .frontier
        .first()
        .expect("a non-empty frontier")
        .costed;
    assert!(
        report.best_speedup > 1.0,
        "tuned best must beat the default (got {}x)",
        report.best_speedup
    );

    let steps = 4;
    let run = |cus: usize, depth: usize| {
        let o = opts_depth(depth);
        let march = MarchOptions {
            cache: Some(&cache),
            ..Default::default()
        };
        run_time_marched_with(&kernel, &data, steps, cus, &o, &march)
            .unwrap()
            .0
    };
    let default = run(1, 1);
    let tuned = run(best.cus as usize, best.temporal_depth);
    assert_bitwise_eq(&tuned, &default, "tuned vs default march");
}

#[test]
fn inout_accumulator_marches_like_the_reference() {
    // An `inout` field feeds itself; the constant input `a` is unpaired
    // because there is no pure output to feed it.
    let kernel = shmls_frontend::parse_kernel(
        "kernel acc { grid(8, 6) halo 1 field a : input field t : inout \
         compute t { t = t[0,0] + a[0,1] + a[1,0] } }",
    )
    .unwrap();
    let mut a = Buffer::zeroed(vec![10, 8], vec![-1, -1]);
    let mut t = Buffer::zeroed(vec![10, 8], vec![-1, -1]);
    for r in -1..9 {
        for c in -1..7 {
            a.store(&[r, c], (r - 2 * c) as f64).unwrap();
            t.store(&[r, c], (r * c) as f64).unwrap();
        }
    }
    let data = KernelData::default().buffer("a", a).buffer("t", t);
    let single = compile(&shmls_frontend::kernel_to_source(&kernel), &opts()).unwrap();
    let reference = time_march_reference(&kernel, &data, 4, |d| {
        run_hls(&single, d).map(|(out, _)| out)
    })
    .unwrap();
    let (marched, _) = run_time_marched(&kernel, &data, 4, 2, &opts()).unwrap();
    for p in shmls_ir::interp::iter_box(&[0, 0], &[8, 6]) {
        let va = reference["t"].load(&p).unwrap();
        let vb = marched["t"].load(&p).unwrap();
        assert_eq!(va.to_bits(), vb.to_bits(), "t at {p:?}: {va} vs {vb}");
    }
}
