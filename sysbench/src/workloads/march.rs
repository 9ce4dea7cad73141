//! `march_spatial` and `march_temporal`: the scale-out time march —
//! slice the domain into compute-unit slabs, run each slab's dataflow
//! design on the stream executor, exchange halos, merge. This is the path
//! `repro run`, the autotuner's bitwise check and the fuzzer take.
//!
//! The spatial workload steps one timestep per sweep over four slabs; the
//! temporal one uses the same entry point differently, advancing four
//! timesteps per sweep over overlapping slabs (`run_deep_march`, seam
//! stages, redundant overlap rows), so a depth-1 gain paid for by the deep
//! path shows on it.
//!
//! The grids are small: the stream executor streams some 27k points a
//! second, and a march has to be short (a quarter to a third of a second)
//! for some of a run's marches to escape the host's neighbours. Slicing,
//! exchange and merging are about 1 % of a march even so. When the march
//! moves to a faster engine the grids should grow — by a benchmark change,
//! not by the change claiming the gain.

use std::cell::RefCell;
use std::time::Duration;

use shmls_frontend::{parse_kernel, KernelDef};
use shmls_kernels::heat3d::Heat3dInputs;
use shmls_kernels::pw_advection::PwInputs;
use shmls_kernels::Grid3;
use stencil_hmls::runner::{run_hls, run_hls_threaded, KernelData};
use stencil_hmls::scale::{run_time_marched_with, MarchOptions, MultiCuReport};
use stencil_hmls::{CompileCache, CompileOptions};

use super::{
    check_digests, digest, median_us, record_setup, set_up_again, set_up_repeatedly, time, timed,
    timed_region, RunConfig,
};
use crate::inputs::Library;
use crate::kernels::{heat_data, heat_golden, max_abs_diff, pw_data, pw_golden};
use crate::report::RunResult;
use crate::stats;
use crate::trace::Tracer;

/// Set-ups measured before the timed region, and again after it (the
/// reported `setup_s` is their quiet twentieth).
const SETUP_REPEATS: usize = 5;

/// One march workload's shape.
#[derive(Debug, Clone)]
pub struct Spec {
    kind: Library,
    grid: [i64; 3],
    cus: usize,
    steps: usize,
    depth: usize,
}

impl Spec {
    /// PW advection over four compute units, four steps of depth 1: three
    /// halo exchanges per march.
    pub fn spatial(smoke: bool) -> Spec {
        Spec {
            kind: Library::Pw,
            grid: if smoke { [8, 4, 4] } else { [16, 16, 16] },
            cus: 4,
            steps: 4,
            depth: 1,
        }
    }

    /// Heat diffusion over two compute units, eight steps at temporal
    /// depth 4: two deep rounds per march.
    pub fn temporal(smoke: bool) -> Spec {
        Spec {
            kind: Library::Heat3d,
            grid: if smoke { [8, 4, 4] } else { [24, 16, 16] },
            cus: 2,
            steps: 8,
            depth: 4,
        }
    }

    fn options(&self) -> CompileOptions {
        let mut options = CompileOptions::default();
        options.hmls.temporal_depth = self.depth;
        options
    }

    /// The kernel, its seeded inputs, and the golden result of `steps`
    /// applications with each step's outputs fed back over a zero ring.
    fn inputs(
        &self,
        grid: [i64; 3],
        steps: usize,
        seed: u64,
    ) -> (KernelDef, KernelData, Vec<(&'static str, Grid3)>) {
        let [nx, ny, nz] = grid;
        let kernel = parse_kernel(&self.kind.source(grid)).expect("library kernel parses");
        let (data, golden) = match self.kind {
            Library::Pw => {
                let inputs = PwInputs::random(nx, ny, nz, seed);
                (pw_data(&inputs), pw_golden(inputs, steps))
            }
            _ => {
                let inputs = Heat3dInputs::random(nx, ny, nz, seed);
                (heat_data(&inputs), heat_golden(inputs, steps))
            }
        };
        (kernel, data, golden)
    }

    fn elems_per_march(&self) -> f64 {
        (self.grid.iter().product::<i64>() * self.steps as i64) as f64
    }
}

/// Run the workload.
pub fn run(spec: &Spec, cfg: &RunConfig, tracer: &mut Tracer) -> RunResult {
    let mut result = RunResult::default();
    let options = spec.options();

    // Shared by the set-up and the timed march, which both outlive the
    // timed region.
    let digests = RefCell::new(Vec::new());
    let mut last = None;
    // A set-up marches once with an empty private cache, which compiles
    // the slab designs into it, so no timed march compiles.
    let mut set_up = || {
        let cache = CompileCache::new();
        let (kernel, data, golden) = spec.inputs(spec.grid, spec.steps, cfg.seed);
        let cold = MarchOptions {
            cache: Some(&cache),
            ..MarchOptions::default()
        };
        let outputs = run_time_marched_with(&kernel, &data, spec.steps, spec.cus, &options, &cold);
        let cold_digest = outputs.as_ref().map(|(o, _)| digest(o)).ok();
        digests.borrow_mut().push(cold_digest);
        (cache, kernel, data, golden)
    };
    let ((cache, kernel, data, golden), mut setups) =
        set_up_repeatedly(cfg.setup_repeats(SETUP_REPEATS), &mut set_up);
    let parallel = MarchOptions {
        cache: Some(&cache),
        ..MarchOptions::default()
    };

    let mut report: Option<MultiCuReport> = None;
    let mut march = |spans: Option<&mut Tracer>, i: u64| {
        let (outcome, took) = timed(spans, "core.scale.march", i, || {
            run_time_marched_with(&kernel, &data, spec.steps, spec.cus, &options, &parallel)
        });
        let digest = outcome.as_ref().map(|(o, _)| digest(o)).ok();
        digests.borrow_mut().push(digest);
        if let Ok((outputs, r)) = outcome {
            last = Some(outputs);
            report = Some(r);
        }
        took
    };
    let marches = timed_region(cfg, tracer, &mut result, spec.elems_per_march(), &mut march);
    if !cfg.trace {
        setups.extend(set_up_again(cfg.setup_repeats(SETUP_REPEATS), &mut set_up));
        record_setup(&mut result, &setups);
    }

    check_digests(&mut result, "march", &digests.borrow());
    let diff = last.map_or(f64::INFINITY, |outputs| max_abs_diff(&outputs, &golden));
    result.checks.check(diff < 1e-9, || {
        format!("outputs differ from the iterated golden by {diff:e}")
    });
    if let Some(report) = &report {
        result.checks.check(report.cache_misses == 0, || {
            format!("a timed march compiled {} designs", report.cache_misses)
        });
    }

    if let (true, Some(report)) = (cfg.trace, report) {
        layers(
            spec,
            cfg,
            &kernel,
            &data,
            &cache,
            &report,
            &marches,
            &mut result,
        );
    }
    result
}

/// Per-layer metrics: the `scale` layer's own share of a serial march, its
/// speed-up from the worker pool, the compile cache in front of it, and
/// the two stream engines on one slab's design.
#[allow(clippy::too_many_arguments)]
fn layers(
    spec: &Spec,
    cfg: &RunConfig,
    kernel: &KernelDef,
    data: &KernelData,
    cache: &CompileCache,
    report: &MultiCuReport,
    parallel_s: &[f64],
    result: &mut RunResult,
) {
    let options = spec.options();
    let serial = MarchOptions {
        serial: true,
        cache: Some(cache),
        ..MarchOptions::default()
    };
    let (outcome, serial_s) =
        time(|| run_time_marched_with(kernel, data, spec.steps, spec.cus, &options, &serial));
    if let Ok((_, serial_report)) = outcome {
        // With the slabs run one after another, whatever the march takes
        // beyond their execution is slicing, halo exchange and merging.
        let executing: f64 = serial_report
            .per_cu
            .iter()
            .map(|c| c.wall.as_secs_f64())
            .sum();
        result.metric(
            "core.scale.overhead_pct",
            (1.0 - executing / serial_report.wall.as_secs_f64()) * 100.0,
        );
    }
    result.metric(
        "core.scale.parallel_speedup",
        serial_s / stats::median(parallel_s),
    );
    result.metric("core.scale.load_imbalance", report.load_imbalance);
    result.metric("core.scale.cache_hits", report.cache_hits as f64);
    result.metric("core.scale.cache_misses", report.cache_misses as f64);
    result.metric(
        "core.scale.overlap_rows",
        report.rounds.iter().map(|r| r.overlap_rows).sum::<i64>() as f64,
    );

    // One slab as the march cuts it: its share of axis 0, plus the overlap
    // rows a deep sweep adds on one side.
    let halo = kernel.halo;
    let rows = spec.grid[0] / spec.cus as i64 + (spec.depth as i64 - 1) * halo;
    let slab_grid = [rows, spec.grid[1], spec.grid[2]];
    let (slab_kernel, slab_data, _) = spec.inputs(slab_grid, 1, cfg.seed);
    result.metric(
        "core.cache.key_us",
        median_us(200, || CompileCache::key(&slab_kernel, &options)),
    );
    let warm = CompileCache::new();
    let compiled = warm
        .get_or_compile(&slab_kernel, &options)
        .expect("slab design compiles")
        .0;
    result.metric(
        "core.cache.hit_us",
        median_us(200, || warm.get_or_compile(&slab_kernel, &options).is_ok()),
    );

    let slab_elems = (slab_grid.iter().product::<i64>() * spec.depth as i64) as f64;
    let repeats = if cfg.smoke { 1 } else { 3 };
    let mut stream_stats = (0, 0, 0);
    let executor: Vec<f64> = (0..repeats)
        .map(|_| {
            let (outcome, took) = time(|| run_hls(&compiled, &slab_data));
            stream_stats = outcome.expect("slab design runs").1;
            took
        })
        .collect();
    result.metric(
        "fpga_sim.executor.elems_per_s",
        slab_elems / stats::median(&executor),
    );
    result.metric("fpga_sim.executor.stream_elements", stream_stats.1 as f64);
    result.metric("fpga_sim.executor.mem_beats", stream_stats.2 as f64);
    let threaded: Vec<f64> = (0..repeats)
        .map(|_| {
            let (outcome, took) =
                time(|| run_hls_threaded(&compiled, &slab_data, Duration::from_secs(30)));
            result.checks.check(matches!(outcome, Ok(Ok(_))), || {
                "the threaded engine did not complete the slab design".to_string()
            });
            took
        })
        .collect();
    result.metric(
        "fpga_sim.threaded.elems_per_s",
        slab_elems / stats::median(&threaded),
    );
}
