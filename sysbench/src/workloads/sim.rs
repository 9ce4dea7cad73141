//! `sim_designs`: the FPGA-side answer. Two designs — PW advection and
//! tracer advection — are extracted from their compiled HLS functions and
//! stepped cycle by cycle. The workload keeps two things apart: how fast
//! the *host* steps the simulation (the end-to-end metrics) and what the
//! simulation *says* about the designs (cycle counts and simulated
//! throughput, which only a change to the generated design may move).
//!
//! The cycle engine never looks at field values, so the seed has nothing
//! to vary here but the order in which the two designs are stepped.

use shmls_baselines::{DaceModel, EvalContext, FrameworkModel, KernelProfile, StencilHmlsModel};
use shmls_conformance::rng::Rng;
use shmls_fpga_sim::cycle::{simulate, CycleReport};
use shmls_fpga_sim::design::DesignDescriptor;
use shmls_fpga_sim::device::{CostTable, Device};
use shmls_fpga_sim::perf::hmls_estimate;
use shmls_fpga_sim::resources;
use shmls_frontend::parse_kernel;
use stencil_hmls::{compile, tune, CompileCache, CompileOptions, TargetPath, TuneOptions};

use super::{
    median_us, record_setup, set_up_again, set_up_repeatedly, time, timed, timed_region, RunConfig,
};
use crate::inputs::{Library, PAPER_GRID};
use crate::report::RunResult;
use crate::stats;
use crate::trace::Tracer;

/// Set-ups measured before the timed region, and again after it (the
/// reported `setup_s` is their quiet twentieth).
const SETUP_REPEATS: usize = 5;

/// The paper's headline: Stencil-HMLS over DaCe on PW advection.
const PAPER_SPEEDUP: f64 = 90.0;

fn hls_only() -> CompileOptions {
    CompileOptions {
        paths: TargetPath::HlsOnly,
        ..CompileOptions::default()
    }
}

fn design(kind: Library, grid: [i64; 3]) -> DesignDescriptor {
    let compiled = compile(&kind.source(grid), &hls_only()).expect("library kernel compiles");
    DesignDescriptor::from_hls_func(&compiled.ctx, compiled.hls_func)
        .expect("compiled design has a descriptor")
}

/// Run the workload.
pub fn run(cfg: &RunConfig, tracer: &mut Tracer) -> RunResult {
    let mut result = RunResult::default();
    let (pw_grid, tracer_grid, tune_grid) = if cfg.smoke {
        ([12, 10, 8], [8, 8, 8], [12, 8, 8])
    } else {
        ([64, 64, 32], [32, 32, 16], [64, 64, 32])
    };

    // Set-up: compile, extract, and step each design once.
    let mut set_up = || {
        let designs = [
            ("pw", design(Library::Pw, pw_grid)),
            ("tracer", design(Library::Tracer, tracer_grid)),
        ];
        let reference: Vec<Option<CycleReport>> = designs
            .iter()
            .map(|(_, d)| simulate(d, None).ok())
            .collect();
        (designs, reference)
    };
    let ((designs, reference), mut setups) =
        set_up_repeatedly(cfg.setup_repeats(SETUP_REPEATS), &mut set_up);
    for ((name, design), report) in designs.iter().zip(&reference) {
        // A pipeline at initiation interval 1 cannot stream its padded
        // grid in fewer cycles than it has points.
        let floor = design.bounded_points;
        result
            .checks
            .check(report.as_ref().is_some_and(|r| r.cycles >= floor), || {
                format!("{name}: simulation deadlocked or beat the II=1 floor of {floor} cycles")
            });
    }
    let cycles_per_pair: u64 = reference.iter().flatten().map(|r| r.cycles).sum();

    // One operation steps both designs, in a seeded order.
    let mut rng = Rng::new(cfg.seed);
    let mut simulations = 0u64;
    let mut drifted = 0u64;
    let mut pair = |spans: Option<&mut Tracer>, i: u64| {
        let first = rng.range(0, 1);
        let ((), took) = timed(spans, "fpga_sim.cycle.simulate", i, || {
            for index in [first, 1 - first] {
                let report = simulate(&designs[index].1, None).ok();
                simulations += 1;
                let cycles = |r: &Option<CycleReport>| r.as_ref().map(|r| r.cycles);
                if cycles(&report) != cycles(&reference[index]) {
                    drifted += 1;
                }
            }
        });
        took
    };
    timed_region(cfg, tracer, &mut result, cycles_per_pair as f64, &mut pair);
    if !cfg.trace {
        setups.extend(set_up_again(cfg.setup_repeats(SETUP_REPEATS), &mut set_up));
        record_setup(&mut result, &setups);
    }
    result.checks.passed(simulations);
    for _ in 0..drifted {
        result
            .checks
            .fail("a simulation's cycle count differs from the first".to_string());
    }

    if cfg.trace {
        layers(cfg, &designs, &reference, pw_grid, tune_grid, &mut result);
    }
    result
}

/// Per-layer metrics: descriptor extraction, what the cycle engine
/// reported, the analytic models beside it, and the autotuner.
fn layers(
    cfg: &RunConfig,
    designs: &[(&'static str, DesignDescriptor)],
    reference: &[Option<CycleReport>],
    pw_grid: [i64; 3],
    tune_grid: [i64; 3],
    result: &mut RunResult,
) {
    let device = Device::u280();
    let costs = CostTable::default_f64();
    let compiled = compile(&Library::Pw.source(pw_grid), &hls_only()).expect("PW compiles");
    result.metric(
        "fpga_sim.design.extract_us",
        median_us(20, || {
            DesignDescriptor::from_hls_func(&compiled.ctx, compiled.hls_func)
        }),
    );
    let pw = &designs[0].1;
    result.metric(
        "fpga_sim.perf.estimate_us",
        median_us(200, || hmls_estimate(pw, &device, 1)),
    );
    result.metric(
        "fpga_sim.resources.estimate_us",
        median_us(200, || resources::estimate(pw, &costs, 1)),
    );

    let mut mpts = Vec::new();
    let mut model_err_pct: f64 = 0.0;
    let (mut fires, mut stalled_empty, mut stalled_full) = (0u64, 0u64, 0u64);
    for ((name, design), report) in designs.iter().zip(reference) {
        let Some(report) = report else { continue };
        result.metric(
            if *name == "pw" {
                "fpga_sim.cycle.cycles_pw"
            } else {
                "fpga_sim.cycle.cycles_tracer"
            },
            report.cycles as f64,
        );
        mpts.push(report.mpts(design.interior_points, &device));
        let analytic = hmls_estimate(design, &device, 1).cycles;
        model_err_pct = model_err_pct
            .max(analytic.abs_diff(report.cycles) as f64 / report.cycles as f64 * 100.0);
        fires += report.fires.iter().sum::<u64>();
        stalled_empty += report.stalled_empty.iter().sum::<u64>();
        stalled_full += report.stalled_full.iter().sum::<u64>();
    }
    let pair_s: f64 = designs
        .iter()
        .map(|(_, d)| time(|| simulate(d, None)).1)
        .sum();
    result.metric("fpga_sim.cycle.fires_per_s", fires as f64 / pair_s);
    result.metric("fpga_sim.cycle.stalled_empty_cycles", stalled_empty as f64);
    result.metric("fpga_sim.cycle.stalled_full_cycles", stalled_full as f64);
    result.metric("fpga_sim.cycle.simulated_mpts", stats::geomean(&mpts));
    result.metric("fpga_sim.perf.model_vs_sim_err_pct", model_err_pct);

    // The paper's headline ratio from the framework models, at its grid.
    let paper = if cfg.smoke { pw_grid } else { PAPER_GRID };
    let profile = compile(&Library::Pw.source(paper), &CompileOptions::default())
        .and_then(|c| KernelProfile::from_compiled(&c))
        .expect("PW profiles");
    let eval = EvalContext::default();
    let mpts_of = |model: &dyn FrameworkModel| {
        model
            .evaluate(&profile, &eval)
            .measurement()
            .map(|m| m.mpts)
    };
    let speedup = mpts_of(&StencilHmlsModel::default())
        .zip(mpts_of(&DaceModel))
        .map(|(hmls, dace)| hmls / dace);
    result.checks.check(speedup.is_some(), || {
        "a framework model did not complete on PW advection".to_string()
    });
    if let Some(speedup) = speedup {
        result.fact("baselines.hmls_over_dace", speedup, "x");
        result.metric(
            "baselines.speedup_vs_paper_err_pct",
            (speedup - PAPER_SPEEDUP).abs() / PAPER_SPEEDUP * 100.0,
        );
    }

    let kernel = parse_kernel(&Library::Heat3d.source(tune_grid)).expect("heat3d parses");
    let (report, tune_s) = time(|| tune(&kernel, &TuneOptions::quick(), &CompileCache::new()));
    result
        .checks
        .check(report.is_ok(), || "the autotuner failed".to_string());
    if let Ok(report) = report {
        result.metric("core.autotune.tune_ms", tune_s * 1e3);
        result.metric(
            "core.autotune.candidates_simulated",
            report.simulated as f64,
        );
        result.metric(
            "core.autotune.candidates_pruned",
            (report.pruned_ports + report.pruned_resources + report.pruned_dominated) as f64,
        );
        result.metric(
            "core.autotune.redundant_compiles",
            report.redundant_compiles as f64,
        );
    }
}
