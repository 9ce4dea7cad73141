//! `exec_8m`: PW advection at the paper's 8M-point grid on the fastest
//! execution tier, the chunked bytecode interpreter on two threads. A
//! padded field is 69 MB, far beyond the last-level cache; compile cost is
//! noise here, so a compiler change must not move this workload.

use std::cell::RefCell;

use shmls_ir::bytecode::ApplyMode;
use shmls_kernels::pw_advection::{self, PwInputs};
use stencil_hmls::runner::{run_stencil, run_stencil_bytecode_with, KernelData};
use stencil_hmls::{compile, CompileOptions, CompiledKernel};

use super::{
    check_digests, digest, record_setup, set_up_again, set_up_repeatedly, time, timed,
    timed_region, RunConfig, PARALLELISM,
};
use crate::inputs::PAPER_GRID;
use crate::kernels::{max_abs_diff, pw_data, pw_golden};
use crate::report::RunResult;
use crate::stats;
use crate::trace::Tracer;

/// Untimed sweeps that end a set-up: the first one of a process touches
/// the inputs for the first time.
const WARM_UP_SWEEPS: usize = 1;

/// Set-ups measured before the timed region, and again after it (the
/// reported `setup_s` is their quiet twentieth). A set-up takes a second or
/// two here, so there are few.
const SETUP_REPEATS: usize = 2;

fn compiled_pw([nx, ny, nz]: [i64; 3]) -> CompiledKernel {
    compile(
        &pw_advection::source(nx, ny, nz),
        &CompileOptions::default(),
    )
    .expect("PW advection compiles")
}

fn points(grid: [i64; 3]) -> f64 {
    grid.iter().product::<i64>() as f64
}

/// Median interior points per second of `repeats` runs of PW advection at
/// `grid` through `run`.
fn probe(
    grid: [i64; 3],
    seed: u64,
    repeats: usize,
    run: impl Fn(&CompiledKernel, &KernelData),
) -> f64 {
    let compiled = compiled_pw(grid);
    let data = pw_data(&PwInputs::random(grid[0], grid[1], grid[2], seed));
    let seconds: Vec<f64> = (0..repeats)
        .map(|_| time(|| run(&compiled, &data)).1)
        .collect();
    points(grid) / stats::median(&seconds)
}

/// Run the workload.
pub fn run(cfg: &RunConfig, tracer: &mut Tracer) -> RunResult {
    let mut result = RunResult::default();
    let grid = if cfg.smoke { [16, 16, 8] } else { PAPER_GRID };
    let mode = ApplyMode::Chunked {
        threads: PARALLELISM,
    };

    // Shared by the set-up and the timed sweep, which both outlive the
    // timed region.
    let digests = RefCell::new(Vec::new());
    let mut set_up = || {
        let inputs = PwInputs::random(grid[0], grid[1], grid[2], cfg.seed);
        let compiled = compiled_pw(grid);
        let data = pw_data(&inputs);
        for _ in 0..WARM_UP_SWEEPS {
            let outputs = run_stencil_bytecode_with(&compiled, &data, mode);
            digests.borrow_mut().push(outputs.as_ref().map(digest).ok());
        }
        (inputs, compiled, data)
    };
    let ((inputs, compiled, data), mut setups) =
        set_up_repeatedly(cfg.setup_repeats(SETUP_REPEATS), &mut set_up);

    // One operation is one sweep over the grid; the digest of its outputs
    // is taken outside the timed call. The allocator is the default one,
    // as for any caller of the runner: every sweep clones 200 MB of inputs
    // and allocates as much output, each block is mapped and unmapped, and
    // the page faults (two thirds of a sweep on this virtualised host) are
    // part of what the sweep costs.
    let mut last = None;
    let mut sweep = |spans: Option<&mut Tracer>, i: u64| {
        let (outputs, took) = timed(spans, "ir.bytecode.chunked", i, || {
            run_stencil_bytecode_with(&compiled, &data, mode)
        });
        digests.borrow_mut().push(outputs.as_ref().map(digest).ok());
        last = outputs.ok();
        took
    };
    timed_region(cfg, tracer, &mut result, points(grid), &mut sweep);
    if !cfg.trace {
        setups.extend(set_up_again(cfg.setup_repeats(SETUP_REPEATS), &mut set_up));
        record_setup(&mut result, &setups);
    }

    // Every sweep must have produced the same bits, and those bits must be
    // the hand-written golden's.
    check_digests(&mut result, "sweep", &digests.borrow());
    let diff = last.map_or(f64::INFINITY, |outputs| {
        max_abs_diff(&outputs, &pw_golden(inputs, 1))
    });
    result.checks.check(diff < 1e-12, || {
        format!("outputs differ from pw_advection::golden by {diff:e}")
    });

    if cfg.trace {
        // The slower tiers, each at the largest grid it sweeps in well
        // under a second, and the single-threaded baseline at full size.
        let (tree, scalar) = if cfg.smoke {
            ([8, 8, 8], [8, 8, 8])
        } else {
            ([32, 32, 32], [64, 64, 64])
        };
        result.metric(
            "ir.interp.tree_elems_per_s",
            probe(tree, cfg.seed, 3, |c, d| {
                run_stencil(c, d).expect("the tree interpreter runs PW advection");
            }),
        );
        result.metric(
            "ir.bytecode.scalar_elems_per_s",
            probe(scalar, cfg.seed, 3, |c, d| {
                run_stencil_bytecode_with(c, d, ApplyMode::Scalar)
                    .expect("the scalar tier runs PW advection");
            }),
        );
        let single = ApplyMode::Chunked { threads: 1 };
        let seconds: Vec<f64> = (0..2)
            .map(|_| time(|| run_stencil_bytecode_with(&compiled, &data, single)).1)
            .collect();
        result.metric(
            "ir.bytecode.chunked1_elems_per_s",
            points(grid) / stats::median(&seconds),
        );
    }
    result
}
