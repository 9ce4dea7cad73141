//! Pinned cycle-engine behaviour: one FNV-1a digest over what
//! `cycle::simulate` reports — `(cycles, fires, stalled_empty,
//! stalled_full, done_at)`, or the `DeadlockReport` text where the run
//! deadlocks — for 240 seeded conformance-generator designs plus the four
//! library kernels at temporal depth 1 and 2, each at FIFO depths `None`,
//! 1, 2 and 16. The constant was recorded from the engine as it stood
//! before its inner loop was rebuilt (the per-cycle `BTreeMap` body of
//! PR 19's tree), so a rewrite of the loop must leave it untouched; a
//! deliberate change to the engine's semantics re-records it (run with
//! `--nocapture` to print the digest).
//!
//! Beside it, the property that holds the engine's jumps over stationary
//! cycles: over the same generator, `simulate` equals `simulate_stepped`
//! — the same loop with every cycle stepped — field for field.

use shmls_conformance::generator::generate;
use shmls_conformance::rng::{sweep, Rng};
use shmls_conformance::GenOptions;
use shmls_fpga_sim::cycle::{simulate, simulate_stepped, CycleReport};
use shmls_fpga_sim::deadlock::DeadlockReport;
use shmls_fpga_sim::design::{DesignDescriptor, Stage};
use shmls_kernels::{heat3d, laplace, pw_advection, tracer_advection};
use stencil_hmls::cache::Fnv64;
use stencil_hmls::{compile, compile_kernel, CompileOptions, HmlsOptions, TargetPath};

const SEED: u64 = 20;
const CASES: u64 = 240;
const DEPTHS: [Option<usize>; 4] = [None, Some(1), Some(2), Some(16)];

const GOLDEN: u64 = 0x3f6b_b9be_9f72_118a;

fn options(hmls: HmlsOptions) -> CompileOptions {
    CompileOptions {
        paths: TargetPath::HlsOnly,
        hmls,
        ..CompileOptions::default()
    }
}

/// A second reading of the function, which must be the one the compile
/// kept.
fn descriptor(compiled: &stencil_hmls::CompiledKernel) -> DesignDescriptor {
    let fresh = DesignDescriptor::from_hls_func(&compiled.ctx, compiled.hls_func);
    let fresh = fresh.expect("design extracts");
    assert_eq!(fresh, compiled.design, "{}", compiled.kernel.name);
    fresh
}

/// One generated kernel compiled under drawn options: a third of the
/// designs are temporally blocked (merge stages), a third run their
/// compute loops at II 2 or 3, a quarter are unrolled.
fn generated_design(rng: &mut Rng) -> DesignDescriptor {
    let kernel = generate(rng, 0, &GenOptions::default());
    let hmls = HmlsOptions {
        temporal_depth: *rng.pick(&[1, 1, 1, 1, 2, 3]),
        ii: *rng.pick(&[1, 1, 1, 1, 2, 3]),
        unroll: *rng.pick(&[1, 1, 1, 2]),
        ..HmlsOptions::default()
    };
    descriptor(&compile_kernel(kernel, &options(hmls)).expect("generated kernel compiles"))
}

fn library_designs() -> Vec<DesignDescriptor> {
    let (nx, ny, nz) = (12, 8, 6);
    let sources = [
        heat3d::source(nx, ny, nz),
        laplace::source_3d(nx, ny, nz),
        pw_advection::source(nx, ny, nz),
        tracer_advection::source(nx, ny, nz),
    ];
    let mut designs = Vec::new();
    for source in &sources {
        for temporal_depth in [1, 2] {
            let hmls = HmlsOptions {
                temporal_depth,
                ..HmlsOptions::default()
            };
            let compiled = compile(source, &options(hmls)).expect("library kernel compiles");
            designs.push(descriptor(&compiled));
        }
    }
    designs
}

/// Does a compute stage of `design` run at II > 1?
fn is_paced(design: &DesignDescriptor) -> bool {
    let slow = |s: &Stage| matches!(s, Stage::Compute { ii, .. } if *ii > 1);
    design.stages.iter().any(slow)
}

/// Absorb one run's outcome: everything the parent engine reported.
fn absorb(digest: &mut Fnv64, outcome: &Result<CycleReport, Box<DeadlockReport>>) {
    match outcome {
        Ok(report) => {
            digest.update(b"ok");
            digest.update(&report.cycles.to_le_bytes());
            for series in [
                &report.fires,
                &report.stalled_empty,
                &report.stalled_full,
                &report.done_at,
            ] {
                for value in series {
                    digest.update(&value.to_le_bytes());
                }
            }
        }
        Err(deadlock) => {
            digest.update(b"deadlock");
            digest.update(deadlock.to_string().as_bytes());
        }
    }
}

#[test]
fn cycle_reports_are_pinned() {
    let root = Rng::new(SEED);
    let mut designs: Vec<DesignDescriptor> = (0..CASES)
        .map(|case| generated_design(&mut root.fork(case)))
        .collect();
    designs.extend(library_designs());

    let mut digest = Fnv64::new();
    let (mut completed, mut deadlocked, mut paced) = (0, 0, 0);
    for design in &designs {
        paced += is_paced(design) as usize;
        for depth in DEPTHS {
            let outcome = simulate(design, depth);
            match outcome {
                Ok(_) => completed += 1,
                Err(_) => deadlocked += 1,
            }
            absorb(&mut digest, &outcome);
        }
    }
    println!(
        "{} designs ({paced} with II > 1), {completed} runs completed, {deadlocked} deadlocked",
        designs.len()
    );
    println!("const GOLDEN: u64 = 0x{:016x};", digest.finish());
    assert_eq!(
        digest.finish(),
        GOLDEN,
        "the cycle engine's reports changed: got 0x{:016x}",
        digest.finish()
    );
}

/// `simulate` against its stepped oracle on one design at one depth:
/// every field but `stepped_cycles`, `Ok` and `Err` alike (a
/// `DeadlockReport` compares every stage's status and every stream's
/// occupancy and `full_stall_cycles`). Returns the cycles jumped.
fn assert_jumps_are_exact(design: &DesignDescriptor, depth: Option<usize>) -> u64 {
    match (simulate(design, depth), simulate_stepped(design, depth)) {
        (Ok(jumped), Ok(stepped)) => {
            assert_eq!(jumped.cycles, stepped.cycles, "cycles at {depth:?}");
            assert_eq!(jumped.fires, stepped.fires, "fires at {depth:?}");
            assert_eq!(jumped.stalled_empty, stepped.stalled_empty, "at {depth:?}");
            assert_eq!(jumped.stalled_full, stepped.stalled_full, "at {depth:?}");
            assert_eq!(jumped.done_at, stepped.done_at, "done_at at {depth:?}");
            assert_eq!(stepped.stepped_cycles, stepped.cycles);
            jumped.cycles - jumped.stepped_cycles
        }
        (Err(jumped), Err(stepped)) => {
            assert_eq!(jumped, stepped, "deadlock reports at {depth:?}");
            0
        }
        (jumped, stepped) => panic!(
            "at {depth:?} the jumping run {} and the stepped run {}",
            if jumped.is_ok() {
                "completed"
            } else {
                "deadlocked"
            },
            if stepped.is_ok() {
                "completed"
            } else {
                "deadlocked"
            },
        ),
    }
}

#[test]
fn jumped_runs_equal_stepped_runs() {
    let jumped = std::cell::Cell::new(0u64);
    let paced = std::cell::Cell::new(0u64);
    let check = |design: &DesignDescriptor| {
        paced.set(paced.get() + is_paced(design) as u64);
        for depth in DEPTHS {
            jumped.set(jumped.get() + assert_jumps_are_exact(design, depth));
        }
    };
    sweep(SEED + 1, CASES, generated_design, check);
    library_designs().iter().for_each(check);
    // The sweep must have exercised what it is there to hold.
    assert!(paced.get() > 0, "no design with II > 1 was drawn");
    assert!(jumped.get() > 0, "no run jumped a single cycle");
}
