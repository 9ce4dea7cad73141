//! `compile_cold`: the compiler with no cache in front of it. Frontend, IR
//! passes, the stencil→HLS transformation, verification and the lowerings
//! do all the work; engines and sockets none.

use shmls_dialects::builtin::create_module;
use shmls_frontend::{lower_kernel, parse_kernel};
use shmls_ir::error::IrResult;
use shmls_ir::pass::{Pass, PassManager};
use shmls_ir::prelude::*;
use shmls_ir::verifier::verify_with;
use stencil_hmls::cpu_lowering::stencil_to_cpu;
use stencil_hmls::driver::compile_apply_plans;
use stencil_hmls::fpp::run_fpp;
use stencil_hmls::llvm_lowering::hls_to_llvm;
use stencil_hmls::runner::run_hls;
use stencil_hmls::{
    compile, fnv1a, stencil_to_hls, CanonicalizePass, CompileOptions, HmlsOptions, HmlsReport,
    SplitPass,
};

use std::time::Instant;

use shmls_conformance::rng::Rng;

use super::{end_to_end, record_setup, set_up_again, set_up_repeatedly, time, RunConfig, Window};
use crate::inputs::{kernel_set, order_rng, shuffle, CompileCase, Library, Origin};
use crate::kernels::{case, max_abs_diff};
use crate::report::RunResult;
use crate::stats;
use crate::trace::Tracer;

/// Set-ups measured before the timed region, and again after it (the
/// reported `setup_s` is their quiet twentieth).
const SETUP_REPEATS: usize = 5;

/// Grid for the functional check of each library kernel's design, in a
/// full run and in a smoke run.
const CHECK_GRID: [i64; 3] = [12, 10, 8];
const SMOKE_CHECK_GRID: [i64; 3] = [6, 5, 4];

/// The stages of the replayed pipeline whose spans add up to a compile;
/// `(span name, per-layer metric)`.
const STAGES: [(&str, &str); 10] = [
    ("frontend.parse", "frontend.parse_us"),
    ("frontend.lower", "frontend.lower_us"),
    ("ir.verify", "ir.verify_us"),
    ("core.canonicalize", "core.canonicalize_us"),
    ("core.split", "core.split_us"),
    ("core.hmls", "core.hmls_us"),
    ("core.cpu_lowering", "core.cpu_lowering_us"),
    ("core.llvm_lowering", "core.llvm_lowering_us"),
    ("core.fpp", "core.fpp_us"),
    ("core.bytecode_plans", "core.bytecode_plans_us"),
];

/// `[compute stages, dup stages, shift buffers, streams]` of the four
/// library kernels' designs. A transformation change that alters a design
/// must change these on purpose.
fn pinned_shape(kind: Library) -> [usize; 4] {
    match kind {
        Library::Pw => [3, 3, 3, 18],
        Library::Tracer => [24, 21, 10, 99],
        Library::Heat3d => [1, 0, 1, 3],
        Library::Laplace => [1, 0, 1, 3],
    }
}

fn shape(report: &HmlsReport) -> [usize; 4] {
    [
        report.compute_stages,
        report.dup_stages,
        report.shift_buffers,
        report.streams,
    ]
}

/// What a replayed compile leaves behind.
struct Replayed {
    ctx: Context,
    module: OpId,
    report: HmlsReport,
}

fn run_pass(ctx: &mut Context, module: OpId, pass: impl Pass + 'static) -> IrResult<()> {
    let mut pm = PassManager::new();
    // The replay verifies between passes itself, under its own span.
    pm.verify_each = false;
    pm.add(pass);
    pm.run(ctx, module).map(|_| ())
}

/// `compile(source, &CompileOptions::default())` replayed through the
/// public stage functions, one span per call, in the driver's order and
/// with the driver's seven verifications.
fn replay(source: &str, op: u64, t: &mut Tracer) -> IrResult<Replayed> {
    let kernel = t.span("frontend.parse", op, || parse_kernel(source))?;
    let mut ctx = Context::new();
    let (module, body) = create_module(&mut ctx);
    let lowered = t.span("frontend.lower", op, || {
        lower_kernel(&mut ctx, body, &kernel)
    })?;
    let registry = shmls_dialects::registry();
    let verify = |t: &mut Tracer, ctx: &Context| {
        t.span("ir.verify", op, || verify_with(ctx, module, &registry))
    };
    verify(t, &ctx)?;

    verify(t, &ctx)?;
    t.span("core.canonicalize", op, || {
        run_pass(&mut ctx, module, CanonicalizePass)
    })?;
    verify(t, &ctx)?;
    t.span("core.split", op, || run_pass(&mut ctx, module, SplitPass))?;
    verify(t, &ctx)?;

    let hls = t.span("core.hmls", op, || {
        stencil_to_hls(&mut ctx, lowered.func, &HmlsOptions::default())
    })?;
    verify(t, &ctx)?;
    t.span("core.cpu_lowering", op, || {
        stencil_to_cpu(&mut ctx, lowered.func)
    })?;
    verify(t, &ctx)?;
    let llvm = t.span("core.llvm_lowering", op, || hls_to_llvm(&mut ctx, hls.func))?;
    t.span("core.fpp", op, || run_fpp(&mut ctx, llvm))?;
    verify(t, &ctx)?;
    t.span("core.bytecode_plans", op, || {
        std::hint::black_box(compile_apply_plans(&ctx, lowered.func));
    });
    Ok(Replayed {
        ctx,
        module,
        report: hls.report,
    })
}

/// One pass over the kernel set: `(kernel, seconds counted)` per compile,
/// in the order compiled.
type Round = Vec<(usize, f64)>;

/// The kernel set and the seeded order its timed rounds go through it in.
struct Rounds {
    set: Vec<CompileCase>,
    /// Fingerprint of each kernel's first compile; `None` if it failed.
    fingerprints: Vec<Option<u64>>,
    /// Indices of the kernels that compile, reshuffled every round.
    order: Vec<usize>,
    rng: Rng,
}

impl Rounds {
    /// Go through the set in fresh seeded orders until `seconds` have
    /// passed. `one` compiles kernel `k` and returns the seconds to count
    /// for it.
    fn run(&mut self, seconds: f64, mut one: impl FnMut(&Rounds, usize) -> f64) -> Vec<Round> {
        let start = Instant::now();
        let mut rounds = Vec::new();
        while rounds.is_empty() || start.elapsed().as_secs_f64() < seconds {
            shuffle(&mut self.rng, &mut self.order);
            rounds.push(self.order.iter().map(|&k| (k, one(self, k))).collect());
        }
        rounds
    }

    /// One window per round, so that every window holds the same kernels
    /// and is as short as it can be (a fourteenth of a second). A
    /// generated kernel costs anything from a tenth to ten times a library
    /// kernel, by the seed's luck; the library kernels cost the
    /// same under every seed (a grid's extents do not change the work). So
    /// that runs with different seeds compare, a window's throughput
    /// counts its library compiles over the time they took, its median
    /// latency is the geometric mean of its four pinned compiles (the
    /// 0.5 ms and the 5 ms kernel weigh the same).
    fn window(&self, round: &[(usize, f64)]) -> Window {
        let of = |wanted: fn(&Origin) -> bool| -> Vec<f64> {
            round
                .iter()
                .filter(|(k, _)| wanted(&self.set[*k].origin))
                .map(|(_, s)| *s)
                .collect()
        };
        let library_s = of(|o| *o != Origin::Generated);
        let pinned_ms: Vec<f64> = of(|o| matches!(o, Origin::Pinned(_)))
            .iter()
            .map(|s| s * 1e3)
            .collect();
        Window {
            per_s: library_s.len() as f64 / library_s.iter().sum::<f64>(),
            p50_ms: stats::geomean(&pinned_ms),
        }
    }
}

/// Mean microseconds per compile over the rounds.
fn mean_us(rounds: &[Round]) -> f64 {
    let compiles = rounds.iter().map(Vec::len).sum::<usize>();
    let seconds: f64 = rounds.iter().flatten().map(|(_, s)| s).sum();
    seconds / compiles as f64 * 1e6
}

/// Run the workload.
pub fn run(cfg: &RunConfig, tracer: &mut Tracer) -> RunResult {
    let mut result = RunResult::default();
    let (resized, generated) = if cfg.smoke { (0, 2) } else { (4, 12) };
    let options = CompileOptions::default();

    // Set-up: generate the kernel set and compile each kernel once.
    let mut set_up = || {
        let set = kernel_set(cfg.seed, resized, generated);
        let first: Vec<_> = set.iter().map(|c| compile(&c.source, &options)).collect();
        (set, first)
    };
    let ((set, first), mut setups) =
        set_up_repeatedly(cfg.setup_repeats(SETUP_REPEATS), &mut set_up);
    // A kernel that does not compile is a failed operation, once; it is
    // left out of the timed rounds.
    for (case, compiled) in set.iter().zip(&first) {
        result.checks.check(compiled.is_ok(), || {
            format!("{}: does not compile", case.label)
        });
        if let (Origin::Pinned(kind), Ok(compiled)) = (case.origin, compiled) {
            let shape = shape(&compiled.report);
            result.checks.check(shape == pinned_shape(kind), || {
                format!(
                    "{}: design shape {shape:?}, pinned {:?}",
                    case.label,
                    pinned_shape(kind)
                )
            });
        }
    }
    let fingerprints: Vec<Option<u64>> = first
        .iter()
        .map(|c| c.as_ref().ok().map(|c| c.design_fingerprint()))
        .collect();
    drop(first);
    let mut rounds = Rounds {
        order: (0..set.len())
            .filter(|&k| fingerprints[k].is_some())
            .collect(),
        set,
        fingerprints,
        rng: order_rng(cfg.seed, 0),
    };

    let mut mismatches = 0u64;
    let plain_seconds = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let plain = rounds.run(plain_seconds, |rounds, k| {
        let (compiled, took) = time(|| compile(&rounds.set[k].source, &options));
        // Untimed: every compile of a kernel must give the design the first
        // one did.
        if compiled.ok().map(|c| c.design_fingerprint()) != rounds.fingerprints[k] {
            mismatches += 1;
        }
        took
    });
    result
        .checks
        .passed(plain.iter().map(|round| round.len() as u64).sum());
    for _ in 0..mismatches {
        result
            .checks
            .fail("a timed compile's fingerprint differs from the first".to_string());
    }

    if cfg.trace {
        traced_half(cfg, tracer, &mut rounds, mean_us(&plain), &mut result);
    } else {
        let windows: Vec<Window> = plain.iter().map(|round| rounds.window(round)).collect();
        end_to_end(&mut result, &windows);
        // The slow end of the costliest kernel's compiles, as a fact: it
        // moves with the host's speed too much to carry a bound.
        let costliest_ms: Vec<f64> = plain
            .iter()
            .flatten()
            .filter(|(k, _)| rounds.set[*k].origin == Origin::Pinned(Library::Tracer))
            .map(|(_, s)| s * 1e3)
            .collect();
        let (percentile, tail_ms) = stats::tail(&costliest_ms);
        result.fact("latency_ms_tail.tracer", tail_ms, "ms");
        result.fact("latency_ms_tail.percentile", percentile, "percent");
        setups.extend(set_up_again(cfg.setup_repeats(SETUP_REPEATS), &mut set_up));
        record_setup(&mut result, &setups);
    }

    // The four library kernels' designs must also compute the right thing.
    let check_grid = if cfg.smoke {
        SMOKE_CHECK_GRID
    } else {
        CHECK_GRID
    };
    for kind in Library::ALL {
        let compiled = compile(&kind.source(check_grid), &options);
        let (data, golden) = case(kind, check_grid, cfg.seed);
        let diff = compiled
            .and_then(|c| run_hls(&c, &data))
            .map_or(f64::INFINITY, |(outputs, _)| {
                max_abs_diff(&outputs, &golden)
            });
        result.checks.check(diff < 1e-12, || {
            format!("{}: run_hls differs from golden by {diff:e}", kind.name())
        });
    }
    result
}

/// The traced half of a traced run: rounds of replayed compiles, then the
/// per-layer metrics from their spans.
fn traced_half(
    cfg: &RunConfig,
    tracer: &mut Tracer,
    rounds: &mut Rounds,
    compile_us: f64,
    result: &mut RunResult,
) {
    let mut replays = 0u64;
    let mut unfaithful = 0u64;
    // Sums over every replay: source and printed-module bytes, live ops,
    // and the designs' stream and compute-stage counts.
    let mut sums = [0u64; 5];
    let traced = rounds.run(cfg.seconds / 2.0, |rounds, k| {
        replays += 1;
        let source = &rounds.set[k].source;
        tracer.begin("compile", replays);
        let replayed = replay(source, replays, tracer);
        let took = tracer.end();
        // Outside the compile span: the print the cache and the service
        // fingerprint a finished module with.
        let text = replayed
            .as_ref()
            .ok()
            .map(|r| tracer.span("ir.print", replays, || print_op(&r.ctx, r.module)));
        if text.as_ref().map(|t| fnv1a(t.as_bytes())) != rounds.fingerprints[k] {
            unfaithful += 1;
        }
        if let (Ok(r), Some(text)) = (&replayed, &text) {
            let add = [
                source.len(),
                text.len(),
                r.ctx.num_ops(),
                r.report.streams,
                r.report.compute_stages,
            ];
            for (sum, n) in sums.iter_mut().zip(add) {
                *sum += n as u64;
            }
        }
        took
    });
    result.checks.passed(replays);
    for _ in 0..unfaithful {
        result
            .checks
            .fail("the replayed pipeline's module differs from compile()'s".to_string());
    }

    let totals = tracer.totals();
    let total_us = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e3);
    let mut stage_sum_us = 0.0;
    for (span, metric) in STAGES {
        let us = total_us(span) / replays as f64;
        stage_sum_us += us;
        result.metric(metric, us);
    }
    let [source_bytes, text_bytes, module_ops, streams, compute_stages] = sums.map(|s| s as f64);
    result.metric(
        "frontend.parse_mb_per_s",
        source_bytes / total_us("frontend.parse"),
    );
    result.metric(
        "ir.verify_calls",
        totals.get("ir.verify").map_or(0.0, |t| t.count as f64) / replays as f64,
    );
    result.metric("ir.print_us", total_us("ir.print") / replays as f64);
    // Per round, i.e. summed over the kernel set.
    let per_round = |sum: f64| sum / traced.len() as f64;
    result.metric("ir.module_ops", per_round(module_ops));
    result.metric("ir.module_text_bytes", per_round(text_bytes));
    result.metric("core.hmls.streams", per_round(streams));
    result.metric("core.hmls.compute_stages", per_round(compute_stages));

    // What `compile()` spends that no stage function accounts for: its own
    // bookkeeping, timing records, the pass manager around the two passes.
    result.metric(
        "core.compile.residual_pct",
        (compile_us - stage_sum_us) / compile_us * 100.0,
    );
    result.fact("compile.untraced_us", compile_us, "us");
    result.fact("compile.stage_sum_us", stage_sum_us, "us");
    // The replay's own self time: the context, module and registry it
    // builds between the stage calls.
    let replay_self_ns = totals.get("compile").map_or(0, |t| t.self_ns);
    result.fact(
        "compile.replay_self_us",
        replay_self_ns as f64 / 1e3 / replays as f64,
        "us",
    );
    // The replay against `compile()`, mean against mean: the two halves of
    // the run see the same mix of kernels, not the same neighbours.
    result.metric(
        "tracing_overhead_pct",
        (mean_us(&traced) - compile_us) / compile_us * 100.0,
    );
}
