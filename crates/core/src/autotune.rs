//! Joint design-space autotuner with a Pareto front.
//!
//! This module searches the joint space the paper says the transformation
//! stack — not the programmer — should own:
//!
//! ```text
//! {CU count} × {slab split} × {stream/FIFO depth} × {bundled fields}
//!            × {temporal depth}
//! ```
//!
//! [`tune`] is named phases over one `Plan`, staged so the expensive tool
//! (the cycle-stepped simulator) only ever sees candidates that earned it:
//!
//! 1. **Compile** one design per `temporal_depth` — the only axis that
//!    changes the compiled design — through the content-addressed
//!    [`CompileCache`]; the other four axes are runtime/model knobs, so
//!    siblings never recompile (`redundant_compiles` must be 0).
//! 2. **Enumerate** every combination of the swept axes.
//! 3. **Cost** and **prune** with the analytic models, cheapest test
//!    first: the 32-port shell budget (`cus × ports_per_cu ≤
//!    max_axi_ports`), then the resource model
//!    ([`shmls_fpga_sim::resources`]), then Pareto dominance over
//!    (throughput ↑, BRAM ↓, watts ↓) using the [`shmls_fpga_sim::perf`]
//!    and [`power`] models.
//! 4. **Simulate** only the Pareto frontier, in parallel. Candidates that
//!    differ only in axes the simulator cannot see (CU count, split,
//!    bundling) share one raw simulation per (design, FIFO depth) pair;
//!    the per-candidate makespan is the raw sweep scaled by its slab
//!    fraction and shared-port penalty.
//! 5. **Rank and explain**: every survivor names which constraint binds
//!    (HBM bandwidth, BRAM, or the port budget — the maximum of the three
//!    modelled utilisations) and its margin over the next-ranked
//!    candidate, so `repro tune` reads as a decision, not a dump.
//!
//! `repro dse`'s two tables are views of the same phases: [`bundling_view`]
//! of cost, [`depth_view`] of simulate.

use shmls_fpga_sim::cycle;
use shmls_fpga_sim::design::{DesignDescriptor, Stage, StreamDesc};
use shmls_fpga_sim::device::{CostTable, Device, PowerCoefficients};
use shmls_fpga_sim::perf::{hmls_estimate, STAGE_FILL_CYCLES};
use shmls_fpga_sim::power;
use shmls_fpga_sim::resources::{self, bram_blocks, ResourceUsage};
use shmls_frontend::KernelDef;
use shmls_ir::error::{panic_reason, IrResult};
use shmls_ir::ir_error;
use shmls_ir::json::Json;

use crate::cache::{global_cache, CompileCache};
use crate::driver::{CompileOptions, TargetPath};
use crate::scale;

/// How the axis-0 domain is partitioned across compute units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitStrategy {
    /// [`scale::partition`]'s balanced split: heights differ by at most
    /// one row, remainder rows on the *leading* CUs.
    Balanced,
    /// Every CU gets `floor(n0/cus)` rows and the last CU absorbs the
    /// whole remainder — the naive split; swept so the report can show
    /// what load imbalance costs.
    FloorRemainderLast,
}

impl SplitStrategy {
    /// Short display name.
    pub fn as_str(&self) -> &'static str {
        match self {
            SplitStrategy::Balanced => "balanced",
            SplitStrategy::FloorRemainderLast => "floor-last",
        }
    }
}

/// Which modelled constraint binds a candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Constraint {
    /// The memory side of the load/write/merge stages is the steady-state
    /// bottleneck: more banks (or fewer beats) would make it faster.
    HbmBandwidth,
    /// On-chip storage: BRAM36 occupancy is the scarcest share.
    Bram,
    /// The shell's AXI port budget: the deployment cannot replicate
    /// further without bundling more ports.
    PortBudget,
}

impl Constraint {
    /// Stable string used in reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            Constraint::HbmBandwidth => "hbm-bandwidth",
            Constraint::Bram => "bram",
            Constraint::PortBudget => "port-budget",
        }
    }
}

/// Modelled utilisation of each potentially-binding constraint, all in
/// `[0, 1]`-ish fractions so they are comparable.
#[derive(Debug, Clone, Copy)]
pub struct Utilisation {
    /// Memory-stage steady cycles over total steady cycles: 1.0 means the
    /// pipeline is purely bandwidth-bound.
    pub hbm: f64,
    /// BRAM36 blocks over the device total.
    pub bram: f64,
    /// AXI ports consumed over the shell budget.
    pub ports: f64,
}

impl Utilisation {
    /// Encode as a JSON object keyed by field name.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("hbm".into(), self.hbm.into()),
            ("bram".into(), self.bram.into()),
            ("ports".into(), self.ports.into()),
        ])
    }

    /// The constraint with the maximum modelled utilisation (ties resolve
    /// in `hbm`, `bram`, `ports` order, deterministically).
    pub fn binding(&self) -> Constraint {
        let mut best = (self.hbm, Constraint::HbmBandwidth);
        if self.bram > best.0 {
            best = (self.bram, Constraint::Bram);
        }
        if self.ports > best.0 {
            best = (self.ports, Constraint::PortBudget);
        }
        best.1
    }
}

/// The swept axes and the models evaluating them.
#[derive(Debug, Clone)]
pub struct TuneOptions {
    /// Target device.
    pub device: Device,
    /// Resource cost table.
    pub costs: CostTable,
    /// Power coefficients.
    pub power: PowerCoefficients,
    /// CU counts to sweep.
    pub cus: Vec<u32>,
    /// Temporal-blocking depths to sweep (each is one compilation).
    pub temporal_depths: Vec<usize>,
    /// Uniform FIFO depth overrides to sweep.
    pub fifo_depths: Vec<usize>,
    /// Slab-split strategies to sweep.
    pub splits: Vec<SplitStrategy>,
}

impl TuneOptions {
    /// The fast sweep used by CI and `repro tune --quick`.
    pub fn quick() -> Self {
        Self {
            device: Device::u280(),
            costs: CostTable::default_f64(),
            power: PowerCoefficients::default_u280(),
            cus: vec![1, 2, 4, 8],
            temporal_depths: vec![1, 2],
            fifo_depths: vec![2, 8],
            splits: vec![SplitStrategy::Balanced, SplitStrategy::FloorRemainderLast],
        }
    }

    /// The full sweep for `repro tune`.
    pub fn full() -> Self {
        Self {
            cus: vec![1, 2, 4, 8, 16],
            temporal_depths: vec![1, 2, 4],
            fifo_depths: vec![2, 4, 8, 16],
            ..Self::quick()
        }
    }
}

/// One point of the swept axes priced by the analytic models — what the
/// cost phase produces and the Pareto cut, [`bundling_view`] and every
/// frontier entry read.
#[derive(Debug, Clone)]
pub struct Candidate {
    design: usize,
    max_rows: i64,
    /// Compute units.
    pub cus: u32,
    /// Slab split across those CUs.
    pub split: SplitStrategy,
    /// Temporal-blocking depth of the compiled design.
    pub temporal_depth: usize,
    /// Uniform FIFO depth override; `None` keeps every stream's declared
    /// depth (the default configuration, and [`bundling_view`]'s rows).
    pub fifo_depth: Option<usize>,
    /// Field ports folded into one shared AXI bundle.
    pub bundled_fields: usize,
    /// AXI ports per CU under that bundling.
    pub ports_per_cu: usize,
    /// Analytic makespan of one sweep (slowest slab).
    pub cycles: u64,
    /// Analytic effective throughput in mega point-*timesteps*/s (a
    /// depth-d sweep advances d steps, so deeper designs get credit).
    pub mpts: f64,
    /// Resource usage of the full deployment (FIFO override included).
    pub resources: ResourceUsage,
    /// Modelled average power of the deployment.
    pub watts: f64,
    /// Modelled utilisation of each constraint.
    pub utilisation: Utilisation,
}

/// One Pareto-frontier candidate: its costed [`Candidate`] plus what cycle
/// simulation and ranking add.
#[derive(Debug, Clone)]
pub struct TunedCandidate {
    /// The analytic half, as the cost phase produced it.
    pub costed: Candidate,
    /// Cycle-simulated makespan (raw sweep scaled to the slowest slab).
    pub simulated_cycles: u64,
    /// Cycle-simulated effective throughput, MPt·steps/s.
    pub simulated_mpts: f64,
    /// The binding constraint (argmax of `utilisation`).
    pub binding: Constraint,
    /// Simulated-throughput margin over the next-ranked candidate (the
    /// last entry: over the default configuration), in percent.
    pub margin_pct: f64,
}

impl TunedCandidate {
    /// Encode as a JSON object keyed by field name.
    pub fn to_json(&self) -> Json {
        let c = &self.costed;
        Json::Obj(vec![
            ("cus".into(), c.cus.into()),
            ("split".into(), Json::Str(format!("{:?}", c.split))),
            ("temporal_depth".into(), c.temporal_depth.into()),
            (
                "fifo_depth".into(),
                c.fifo_depth.map_or(Json::Null, Json::from),
            ),
            ("bundled_fields".into(), c.bundled_fields.into()),
            ("ports_per_cu".into(), c.ports_per_cu.into()),
            ("cycles".into(), c.cycles.into()),
            ("mpts".into(), c.mpts.into()),
            ("resources".into(), c.resources.to_json()),
            ("watts".into(), c.watts.into()),
            ("simulated_cycles".into(), self.simulated_cycles.into()),
            ("simulated_mpts".into(), self.simulated_mpts.into()),
            ("utilisation".into(), c.utilisation.to_json()),
            ("binding".into(), Json::Str(format!("{:?}", self.binding))),
            ("margin_pct".into(), self.margin_pct.into()),
        ])
    }
}

/// The autotuner's full report.
#[derive(Debug, Clone)]
pub struct TuneReport {
    /// Kernel name.
    pub kernel: String,
    /// Interior points of one sweep.
    pub interior_points: u64,
    /// Every enumerated combination of the swept axes.
    pub candidates_total: usize,
    /// Pruned: over the shell's AXI port budget.
    pub pruned_ports: usize,
    /// Pruned: resource model says the deployment does not fit.
    pub pruned_resources: usize,
    /// Pruned: Pareto-dominated on (throughput, BRAM, power).
    pub pruned_dominated: usize,
    /// Dropped after the frontier: their (design, FIFO depth) simulation
    /// deadlocked.
    pub pruned_deadlocked: usize,
    /// Raw cycle simulations actually run (unique (design, depth) pairs —
    /// *not* one per frontier candidate).
    pub simulated: usize,
    /// Distinct compiled designs the sweep needed (one per temporal
    /// depth, plus the depth-1 baseline).
    pub unique_designs: usize,
    /// Compile-cache misses during the sweep.
    pub compile_misses: u64,
    /// Compile-cache hits during the sweep.
    pub compile_hits: u64,
    /// Misses beyond `unique_designs`: must be 0 — runtime-knob-only
    /// siblings share compilations by construction.
    pub redundant_compiles: u64,
    /// Simulated sweep cycles of the default configuration
    /// (1 CU, depth 1, unbundled, declared FIFO depths).
    pub default_cycles: u64,
    /// Simulated throughput of the default configuration, MPt/s.
    pub default_mpts: f64,
    /// Best frontier candidate's simulated throughput over the default's.
    pub best_speedup: f64,
    /// The Pareto frontier, ranked by simulated throughput (best first).
    pub frontier: Vec<TunedCandidate>,
}

impl TuneReport {
    /// Encode as the `repro tune --json` document.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("kernel".into(), Json::Str(self.kernel.clone())),
            ("interior_points".into(), self.interior_points.into()),
            ("candidates_total".into(), self.candidates_total.into()),
            ("pruned_ports".into(), self.pruned_ports.into()),
            ("pruned_resources".into(), self.pruned_resources.into()),
            ("pruned_dominated".into(), self.pruned_dominated.into()),
            ("pruned_deadlocked".into(), self.pruned_deadlocked.into()),
            ("simulated".into(), self.simulated.into()),
            ("unique_designs".into(), self.unique_designs.into()),
            ("compile_misses".into(), self.compile_misses.into()),
            ("compile_hits".into(), self.compile_hits.into()),
            ("redundant_compiles".into(), self.redundant_compiles.into()),
            ("default_cycles".into(), self.default_cycles.into()),
            ("default_mpts".into(), self.default_mpts.into()),
            ("best_speedup".into(), self.best_speedup.into()),
            (
                "frontier".into(),
                Json::Arr(self.frontier.iter().map(TunedCandidate::to_json).collect()),
            ),
        ])
    }
}

/// `a` Pareto-dominates `b` over (throughput ↑, BRAM ↓, watts ↓).
fn dominates(a: &Candidate, b: &Candidate) -> bool {
    let no_worse =
        a.mpts >= b.mpts && a.resources.bram36 <= b.resources.bram36 && a.watts <= b.watts;
    let better = a.mpts > b.mpts || a.resources.bram36 < b.resources.bram36 || a.watts < b.watts;
    no_worse && better
}

/// One compiled design and what every candidate of its temporal depth
/// shares, derived once. The three vectors are indexed by the number of
/// field ports folded into one shared bundle.
struct PlannedDesign {
    temporal_depth: usize,
    design: DesignDescriptor,
    /// Pipeline fill along the critical path.
    fill: u64,
    /// AXI ports one CU needs.
    ports_per_cu: Vec<usize>,
    /// Steady cycles of the full domain on one CU: the unbundled estimate,
    /// or the shared bundle's serialisation where that is slower.
    steady: Vec<u64>,
    /// The memory side of `steady` (load/write beats, the merge stages'
    /// halo-ring reads, the shared bundle): the HBM utilisation numerator.
    memory: Vec<u64>,
}

impl PlannedDesign {
    fn new(temporal_depth: usize, design: DesignDescriptor, device: &Device) -> Self {
        let small = |bundle: &str| bundle.ends_with("_small");
        let has_small = design.interfaces.iter().any(|(_, b)| small(b));
        let field_ports = design
            .interfaces
            .iter()
            .filter(|(p, b)| p == "m_axi" && !small(b))
            .count();
        let (mut field_beats, mut ring_beats) = (0u64, 0u64);
        for stage in &design.stages {
            match stage {
                Stage::Load {
                    beats_per_field, ..
                }
                | Stage::Write {
                    beats_per_field, ..
                } => field_beats = field_beats.max(*beats_per_field),
                Stage::Merge { ring, .. } => ring_beats = ring_beats.max(ring.div_ceil(8)),
                _ => {}
            }
        }
        let bank_rate = device.beats_per_cycle_per_bank();
        let unbundled = hmls_estimate(&design, device, 1).steady_cycles;
        let unbundled_memory = (field_beats.max(ring_beats) as f64 / bank_rate).ceil() as u64;
        // The shared bundle's members ride one port whose effective rate
        // degrades with the member count (their bursts interleave) — the
        // performance effect §4 anticipated when it chose not to bundle
        // without a heuristic. With no member, or one sharing with nobody,
        // the term is at most a load stage's own and the maxima absorb it.
        let shared = |bundled: usize| -> u64 {
            let efficiency = 1.0 / (1.0 + 0.15 * (bundled as f64 - 1.0));
            (field_beats as f64 * bundled as f64 / (bank_rate * efficiency)).ceil() as u64
        };
        let bundlings = 0..=field_ports.saturating_sub(1);
        Self {
            temporal_depth,
            fill: STAGE_FILL_CYCLES * design.critical_path_stages(),
            ports_per_cu: bundlings
                .clone()
                .map(|b| field_ports - b + usize::from(b > 0) + usize::from(has_small))
                .collect(),
            steady: bundlings
                .clone()
                .map(|b| unbundled.max(shared(b)))
                .collect(),
            memory: bundlings.map(|b| unbundled_memory.max(shared(b))).collect(),
            design,
        }
    }

    /// Fill plus the shared bundle's arbitration latency.
    fn fill_cycles(&self, bundled: usize) -> u64 {
        self.fill + STAGE_FILL_CYCLES * if bundled > 1 { bundled as u64 } else { 0 }
    }

    /// Effective throughput of a sweep taking `cycles`, MPt·steps/s.
    fn mpts(&self, device: &Device, cycles: u64) -> f64 {
        let seconds = device.cycles_to_seconds(cycles);
        self.design.interior_points as f64 * self.temporal_depth as f64 / seconds / 1.0e6
    }
}

/// What the phases share: the compiled designs and the axis-0 extent the
/// slab splits divide.
struct Plan {
    n0: i64,
    designs: Vec<PlannedDesign>,
    /// Index of the depth-1 design, the default configuration's.
    baseline: usize,
}

/// One combination of the swept axes, before it is priced.
struct Point {
    design: usize,
    cus: u32,
    split: SplitStrategy,
    max_rows: i64,
    bundled: usize,
    fifo_depth: Option<usize>,
}

/// Rows of the tallest slab under `split`, or `None` when `cus` exceeds
/// the axis-0 extent (no valid decomposition).
fn max_slab_rows(n0: i64, cus: u32, split: SplitStrategy) -> Option<i64> {
    if i64::from(cus) > n0 {
        return None;
    }
    match split {
        SplitStrategy::Balanced => scale::partition(n0, cus as usize)
            .iter()
            .map(|(s, e)| e - s)
            .max(),
        // The last CU: its own floor share plus the whole remainder.
        SplitStrategy::FloorRemainderLast => Some(n0 - n0 / i64::from(cus) * (i64::from(cus) - 1)),
    }
}

/// Compile phase: one design per temporal depth (the only compile-time
/// axis) through `cache`; depth 1 is always compiled because it is the
/// report's default/baseline configuration.
fn compile(
    kernel: &KernelDef,
    temporal_depths: &[usize],
    device: &Device,
    cache: &CompileCache,
) -> IrResult<Plan> {
    let Some(&n0) = kernel.grid.first() else {
        return Err(ir_error!("autotune: kernel `{}` has no grid", kernel.name));
    };
    let mut depths = temporal_depths.to_vec();
    if !depths.contains(&1) {
        depths.insert(0, 1);
    }
    let mut designs = Vec::with_capacity(depths.len());
    for &depth in &depths {
        let mut copts = CompileOptions {
            paths: TargetPath::HlsOnly,
            ..Default::default()
        };
        copts.hmls.temporal_depth = depth;
        let (compiled, _hit) = cache.get_or_compile(kernel, &copts)?;
        designs.push(PlannedDesign::new(depth, compiled.design.clone(), device));
    }
    let baseline = depths.iter().position(|&d| d == 1);
    Ok(Plan {
        n0,
        designs,
        baseline: baseline.expect("depth 1 present"),
    })
}

/// Enumerate phase: every combination of the swept axes.
fn enumerate(plan: &Plan, opts: &TuneOptions) -> IrResult<Vec<Point>> {
    if opts.cus.contains(&0) {
        return Err(ir_error!(
            "autotune: the `cus` axis holds 0; a deployment needs at least one compute unit"
        ));
    }
    let mut points = Vec::new();
    for (design, planned) in plan.designs.iter().enumerate() {
        if !opts.temporal_depths.contains(&planned.temporal_depth) {
            continue; // depth 1 compiled only as the baseline
        }
        for &cus in &opts.cus {
            let mut seen_rows: Vec<i64> = Vec::new();
            for &split in &opts.splits {
                let Some(max_rows) = max_slab_rows(plan.n0, cus, split) else {
                    continue;
                };
                // Splits that produce the same tallest slab model
                // identically — keep the first (Balanced sorts first in
                // the quick/full axes) and skip the duplicate.
                if seen_rows.contains(&max_rows) {
                    continue;
                }
                seen_rows.push(max_rows);
                for bundled in 0..planned.steady.len() {
                    points.extend(opts.fifo_depths.iter().map(|&depth| Point {
                        design,
                        cus,
                        split,
                        max_rows,
                        bundled,
                        fifo_depth: Some(depth),
                    }));
                }
            }
        }
    }
    Ok(points)
}

/// Cost phase, one point. The analytic makespan is the slowest slab's
/// share of the full-domain steady state, plus fill; the resources are
/// `cus` replicas with the AXI protocol engines `estimate_cu` priced
/// swapped for the bundled count and, under a FIFO override, the declared
/// per-stream storage swapped for the overridden.
fn cost(plan: &Plan, opts: &TuneOptions, point: &Point) -> Candidate {
    let planned = &plan.designs[point.design];
    let (design, device, costs) = (&planned.design, &opts.device, &opts.costs);
    let steady_full = planned.steady[point.bundled];
    let makespan_steady =
        ((steady_full as f64 * point.max_rows as f64 / plan.n0 as f64).ceil()) as u64;
    let cycles = makespan_steady + planned.fill_cycles(point.bundled);

    let ports_per_cu = planned.ports_per_cu[point.bundled];
    let mut per_cu = resources::estimate_cu(design, costs, u64::from(point.cus));
    let (old_ports, new_ports) = (design.axi_ports() as u64, ports_per_cu as u64);
    per_cu.luts = per_cu.luts - old_ports * costs.axi_port.luts + new_ports * costs.axi_port.luts;
    per_cu.ffs = per_cu.ffs - old_ports * costs.axi_port.ffs + new_ports * costs.axi_port.ffs;
    if let Some(depth) = point.fifo_depth {
        let blocks = |s: &StreamDesc, depth: u64| bram_blocks(depth * s.elem_bytes);
        let streams = design.streams.iter();
        let declared: u64 = streams
            .clone()
            .map(|s| blocks(s, s.depth.max(0) as u64))
            .sum();
        let overridden: u64 = streams.map(|s| blocks(s, depth as u64)).sum();
        per_cu.bram36 = per_cu.bram36.saturating_sub(declared) + overridden;
    }
    let resources = per_cu.scaled(u64::from(point.cus));

    let seconds = device.cycles_to_seconds(cycles);
    let bytes_moved = design.total_beats() * 64;
    Candidate {
        design: point.design,
        max_rows: point.max_rows,
        cus: point.cus,
        split: point.split,
        temporal_depth: planned.temporal_depth,
        fifo_depth: point.fifo_depth,
        bundled_fields: point.bundled,
        ports_per_cu,
        cycles,
        mpts: planned.mpts(device, cycles),
        watts: power::estimate(device, &opts.power, &resources, bytes_moved, seconds).watts,
        utilisation: Utilisation {
            hbm: planned.memory[point.bundled] as f64 / steady_full.max(1) as f64,
            bram: resources.bram36 as f64 / device.bram36.max(1) as f64,
            ports: (point.cus as usize * ports_per_cu) as f64 / device.max_axi_ports.max(1) as f64,
        },
        resources,
    }
}

/// Prune phase: the Pareto frontier of `costed` — the candidates no other
/// candidate dominates.
fn prune(costed: Vec<Candidate>) -> Vec<Candidate> {
    let keep: Vec<bool> = costed
        .iter()
        .map(|c| !costed.iter().any(|other| dominates(other, c)))
        .collect();
    let kept = costed
        .into_iter()
        .zip(keep)
        .filter_map(|(c, keep)| keep.then_some(c));
    kept.collect()
}

/// How a FIFO depth reads in a table or a message.
fn fifo_label(fifo_depth: Option<usize>) -> String {
    fifo_depth.map_or_else(|| "declared".to_string(), |d| d.to_string())
}

/// Cycle-simulate each `(design, FIFO depth)` pair on its own thread;
/// `None` marks a pair that deadlocked. Every thread is joined before any
/// panic surfaces, so one poisoned simulation cannot abort the sweep
/// mid-join (the same containment pattern as `scale::sweep_slabs`).
fn simulate_pairs(plan: &Plan, pairs: &[(usize, Option<usize>)]) -> IrResult<Vec<Option<u64>>> {
    let sweep = |(design, fifo_depth): (usize, Option<usize>)| {
        let report = cycle::simulate(&plan.designs[design].design, fifo_depth);
        report.ok().map(|r| r.cycles)
    };
    let joined: Vec<std::thread::Result<Option<u64>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = pairs
            .iter()
            .map(|&pair| scope.spawn(move || sweep(pair)))
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let contained = pairs.iter().zip(joined).map(|(&(design, fifo), result)| {
        result.map_err(|payload| {
            let (depth, fifo) = (plan.designs[design].temporal_depth, fifo_label(fifo));
            let reason = panic_reason(&*payload);
            ir_error!("autotune: depth {depth} fifo {fifo} simulation panicked: {reason}")
        })
    });
    contained.collect()
}

/// Simulate phase: the default configuration — (depth-1 design, declared
/// FIFOs), always the first pair — and every unique pair `candidates`
/// need. The simulator models one full-domain CU; a candidate's makespan
/// is that raw sweep's steady part scaled by its slab fraction and its
/// shared-port penalty over the unbundled steady state, plus its fill.
/// Returns the default's cycles, the raw sweeps run for the candidates,
/// and the candidates whose pair did not deadlock, in the order given.
fn simulate(
    plan: &Plan,
    device: &Device,
    candidates: Vec<Candidate>,
) -> IrResult<(u64, usize, Vec<TunedCandidate>)> {
    let mut pairs = vec![(plan.baseline, None)];
    for c in &candidates {
        if !pairs.contains(&(c.design, c.fifo_depth)) {
            pairs.push((c.design, c.fifo_depth));
        }
    }
    let raw = simulate_pairs(plan, &pairs)?;
    let default_cycles = raw[0]
        .ok_or_else(|| ir_error!("autotune: the default configuration deadlocked in simulation"))?;
    let mut entries = Vec::new();
    for c in candidates {
        let pair = pairs.iter().position(|&p| p == (c.design, c.fifo_depth));
        let Some(raw_cycles) = raw[pair.expect("pair enumerated above")] else {
            continue;
        };
        let planned = &plan.designs[c.design];
        let penalty = planned.steady[c.bundled_fields] as f64 / planned.steady[0].max(1) as f64;
        let raw_steady = raw_cycles.saturating_sub(planned.fill).max(1);
        let simulated_cycles = ((raw_steady as f64 * c.max_rows as f64 / plan.n0 as f64 * penalty)
            .ceil()) as u64
            + planned.fill_cycles(c.bundled_fields);
        entries.push(TunedCandidate {
            simulated_cycles,
            simulated_mpts: planned.mpts(device, simulated_cycles),
            binding: c.utilisation.binding(),
            margin_pct: 0.0,
            costed: c,
        });
    }
    Ok((default_cycles, pairs.len() - 1, entries))
}

/// Rank phase: order by simulated throughput (deterministic tie-break on
/// the axes) and give each entry its margin over the next-ranked one, the
/// last entry over the default configuration.
fn rank(frontier: &mut [TunedCandidate], default_mpts: f64) {
    frontier.sort_by(|a, b| {
        b.simulated_mpts
            .total_cmp(&a.simulated_mpts)
            .then_with(|| a.costed.cus.cmp(&b.costed.cus))
            .then_with(|| a.costed.temporal_depth.cmp(&b.costed.temporal_depth))
            .then_with(|| a.costed.bundled_fields.cmp(&b.costed.bundled_fields))
            .then_with(|| a.costed.fifo_depth.cmp(&b.costed.fifo_depth))
    });
    for i in 0..frontier.len() {
        let next = frontier.get(i + 1).map(|next| next.simulated_mpts);
        let reference = next.unwrap_or(default_mpts);
        frontier[i].margin_pct = if reference > 0.0 {
            (frontier[i].simulated_mpts / reference - 1.0) * 100.0
        } else {
            0.0
        };
    }
}

/// Run the joint sweep for `kernel`, sharing compilations through
/// `cache`. Pass a fresh private cache to measure the zero-recompile
/// property, or [`crate::cache::global_cache`] to share designs with the
/// rest of the process.
pub fn tune(kernel: &KernelDef, opts: &TuneOptions, cache: &CompileCache) -> IrResult<TuneReport> {
    let device = &opts.device;
    let stats_before = cache.stats();
    let plan = compile(kernel, &opts.temporal_depths, device, cache)?;
    let points = enumerate(&plan, opts)?;
    // Cheapest test first: the shell's port budget needs no pricing.
    let budget = device.max_axi_ports as usize;
    let ports = |p: &Point| p.cus as usize * plan.designs[p.design].ports_per_cu[p.bundled];
    let within_budget: Vec<&Point> = points.iter().filter(|p| ports(p) <= budget).collect();
    let costed = within_budget.iter().map(|p| cost(&plan, opts, p));
    let fitting: Vec<Candidate> = costed.filter(|c| c.resources.fits(device)).collect();
    let fitting_count = fitting.len();
    let frontier = prune(fitting);
    let frontier_count = frontier.len();
    let (default_cycles, simulated, mut frontier) = simulate(&plan, device, frontier)?;
    let baseline = &plan.designs[plan.baseline];
    let default_mpts = baseline.mpts(device, default_cycles);
    rank(&mut frontier, default_mpts);

    let stats_after = cache.stats();
    let compile_misses = stats_after.misses - stats_before.misses;
    let best = frontier.first();
    Ok(TuneReport {
        kernel: kernel.name.clone(),
        interior_points: baseline.design.interior_points,
        candidates_total: points.len(),
        pruned_ports: points.len() - within_budget.len(),
        pruned_resources: within_budget.len() - fitting_count,
        pruned_dominated: fitting_count - frontier_count,
        pruned_deadlocked: frontier_count - frontier.len(),
        simulated,
        unique_designs: plan.designs.len(),
        compile_misses,
        compile_hits: stats_after.hits - stats_before.hits,
        redundant_compiles: compile_misses.saturating_sub(plan.designs.len() as u64),
        default_cycles,
        default_mpts,
        best_speedup: best.map_or(0.0, |best| best.simulated_mpts / default_mpts),
        frontier,
    })
}

/// The port-bundling heuristic §4 leaves to "heuristics … required by our
/// transformation", as a view of the cost phase: one row per number of
/// field ports folded into a shared bundle, each at the CU count its
/// `ports_per_cu` lets the shell's port budget replicate (balanced split,
/// depth 1, declared FIFOs; `opts`' swept axes are not read). Fewer ports
/// per CU buys replicas; the shared bundle serialising its members' beats
/// pays for them. Returns the rows and the index of the highest-throughput
/// row that fits the device, if any does.
pub fn bundling_view(
    kernel: &KernelDef,
    opts: &TuneOptions,
) -> IrResult<(Vec<Candidate>, Option<usize>)> {
    let plan = compile(kernel, &[1], &opts.device, global_cache())?;
    let budget = opts.device.max_axi_ports as usize;
    let row = |(bundled, &ports_per_cu): (usize, &usize)| {
        // At least one CU, at most one per axis-0 row.
        let cus = (budget / ports_per_cu.max(1)).clamp(1, plan.n0 as usize) as u32;
        let split = SplitStrategy::Balanced;
        let point = Point {
            design: plan.baseline,
            cus,
            split,
            max_rows: max_slab_rows(plan.n0, cus, split).expect("cus <= n0"),
            bundled,
            fifo_depth: None,
        };
        cost(&plan, opts, &point)
    };
    let ports_per_cu = &plan.designs[plan.baseline].ports_per_cu;
    let rows: Vec<Candidate> = ports_per_cu.iter().enumerate().map(row).collect();
    let fitting = rows
        .iter()
        .enumerate()
        .filter(|(_, c)| c.resources.fits(&opts.device));
    let best = fitting.max_by(|(_, a), (_, b)| a.mpts.total_cmp(&b.mpts));
    let best = best.map(|(i, _)| i);
    Ok((rows, best))
}

/// How deep do the FIFOs need to be — the question the paper's runtime
/// answers with a fixed constant (`@llvm.fpga.set.stream.depth`) — as a
/// view of the simulate phase: `(depth, cycles)` for each uniform depth of
/// a fixed ladder through the depth-1 design, and the index of the
/// shallowest row within 2% of the fastest. A depth that deadlocks reads
/// `u64::MAX` cycles, so it is never recommended. The generated designs
/// are rate-matched Kahn networks, so the expected answer is "barely
/// deeper than a handshake".
pub fn depth_view(kernel: &KernelDef, opts: &TuneOptions) -> IrResult<(Vec<(usize, u64)>, usize)> {
    const DEPTHS: [usize; 5] = [1, 2, 4, 8, 16];
    const TOLERANCE: f64 = 0.02;
    let plan = compile(kernel, &[1], &opts.device, global_cache())?;
    let raw = simulate_pairs(&plan, &DEPTHS.map(|depth| (plan.baseline, Some(depth))))?;
    let cycles = raw.into_iter().map(|c| c.unwrap_or(u64::MAX));
    let rows: Vec<(usize, u64)> = DEPTHS.into_iter().zip(cycles).collect();
    let fastest = rows.iter().map(|r| r.1).min().unwrap_or(1).max(1);
    let within = |r: &(usize, u64)| r.1 as f64 / fastest as f64 <= 1.0 + TOLERANCE;
    let recommended = rows.iter().position(within).unwrap_or(rows.len() - 1);
    Ok((rows, recommended))
}

/// Render the report as the `repro tune` table.
pub fn render(report: &TuneReport) -> String {
    use std::fmt::Write;
    let mut out = format!(
        "Joint design-space autotune for {} ({} interior points)\n\
         =======================================================\n\
         candidates: {} enumerated, {} over the port budget, {} over resources, \
         {} dominated, {} deadlocked, {} on the frontier\n\
         simulations: {} raw sweeps for {} frontier candidates\n\
         compile cache: {} unique designs, {} misses, {} hits, {} redundant compiles\n\
         default (1 CU, depth 1, unbundled, declared FIFOs): {} cycles, {:.1} MPt/s\n\n",
        report.kernel,
        report.interior_points,
        report.candidates_total,
        report.pruned_ports,
        report.pruned_resources,
        report.pruned_dominated,
        report.pruned_deadlocked,
        report.frontier.len(),
        report.simulated,
        report.frontier.len(),
        report.unique_designs,
        report.compile_misses,
        report.compile_hits,
        report.redundant_compiles,
        report.default_cycles,
        report.default_mpts,
    );
    out.push_str(
        "rank   CUs split       depth  fifo  bundled  ports/CU  sim-cycles   MPt·st/s   BRAM  watts  binding          margin\n",
    );
    for (i, entry) in report.frontier.iter().enumerate() {
        let c = &entry.costed;
        writeln!(
            out,
            "{:<5} {:>4} {:<11} {:>5} {:>5} {:>8} {:>9} {:>11} {:>10.1} {:>6} {:>6.1}  {:<14} {:>7.1}%",
            i + 1,
            c.cus,
            c.split.as_str(),
            c.temporal_depth,
            fifo_label(c.fifo_depth),
            c.bundled_fields,
            c.ports_per_cu,
            entry.simulated_cycles,
            entry.simulated_mpts,
            c.resources.bram36,
            c.watts,
            entry.binding.as_str(),
            entry.margin_pct,
        )
        .unwrap();
    }
    writeln!(
        out,
        "\nbest vs default (cycle-simulated): {:.2}x",
        report.best_speedup
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CompileCache;

    fn heat3d() -> KernelDef {
        shmls_frontend::parse_kernel(&shmls_kernels::heat3d::source(12, 10, 8)).unwrap()
    }

    /// The quick axes on a device nothing fits.
    fn no_resources() -> TuneOptions {
        let device = Device {
            luts: 0,
            ffs: 0,
            bram36: 0,
            uram: 0,
            dsps: 0,
            ..Device::u280()
        };
        TuneOptions {
            device,
            ..TuneOptions::quick()
        }
    }

    fn quick_tune(kernel: &KernelDef) -> TuneReport {
        let cache = CompileCache::new();
        tune(kernel, &TuneOptions::quick(), &cache).unwrap()
    }

    #[test]
    fn frontier_is_non_dominated_and_ranked() {
        let report = quick_tune(&heat3d());
        assert!(!report.frontier.is_empty());
        // Property: no frontier entry dominates another on the pruning
        // axes (throughput, BRAM, watts).
        for (i, a) in report.frontier.iter().enumerate() {
            for (j, b) in report.frontier.iter().enumerate() {
                assert!(
                    !dominates(&a.costed, &b.costed),
                    "frontier entry {i} dominates {j}:\n{a:#?}\n{b:#?}"
                );
            }
        }
        // Ranked best-first by simulated throughput.
        for pair in report.frontier.windows(2) {
            assert!(pair[0].simulated_mpts >= pair[1].simulated_mpts);
        }
        // Bookkeeping adds up: every enumerated candidate is pruned,
        // dropped, or on the frontier.
        assert_eq!(
            report.candidates_total,
            report.pruned_ports
                + report.pruned_resources
                + report.pruned_dominated
                + report.pruned_deadlocked
                + report.frontier.len()
        );
    }

    #[test]
    fn search_is_deterministic() {
        let kernel = heat3d();
        let a = quick_tune(&kernel).to_json().compact();
        let b = quick_tune(&kernel).to_json().compact();
        assert_eq!(a, b);
    }

    /// The `repro tune --json` shape: every report and candidate field
    /// under its own name, unit enums as their variant names.
    #[test]
    fn report_json_has_the_documented_shape() {
        let report = quick_tune(&heat3d());
        let doc = Json::parse(&report.to_json().pretty()).expect("emitted JSON parses");
        let keys = |v: &Json| -> Vec<String> {
            let pairs = v.as_obj().expect("an object");
            pairs.iter().map(|(k, _)| k.clone()).collect()
        };
        assert_eq!(
            keys(&doc),
            [
                "kernel",
                "interior_points",
                "candidates_total",
                "pruned_ports",
                "pruned_resources",
                "pruned_dominated",
                "pruned_deadlocked",
                "simulated",
                "unique_designs",
                "compile_misses",
                "compile_hits",
                "redundant_compiles",
                "default_cycles",
                "default_mpts",
                "best_speedup",
                "frontier"
            ]
        );
        assert_eq!(doc.get("kernel").and_then(Json::as_str), Some("heat3d"));
        let frontier = doc.get("frontier").and_then(Json::as_arr).unwrap();
        assert_eq!(frontier.len(), report.frontier.len());
        assert!(!frontier.is_empty());
        for (entry, candidate) in frontier.iter().zip(&report.frontier) {
            assert_eq!(
                keys(entry),
                [
                    "cus",
                    "split",
                    "temporal_depth",
                    "fifo_depth",
                    "bundled_fields",
                    "ports_per_cu",
                    "cycles",
                    "mpts",
                    "resources",
                    "watts",
                    "simulated_cycles",
                    "simulated_mpts",
                    "utilisation",
                    "binding",
                    "margin_pct"
                ]
            );
            let split = entry.get("split").and_then(Json::as_str).unwrap();
            assert!(
                ["Balanced", "FloorRemainderLast"].contains(&split),
                "{split}"
            );
            let binding = entry.get("binding").and_then(Json::as_str).unwrap();
            assert!(
                ["HbmBandwidth", "Bram", "PortBudget"].contains(&binding),
                "{binding}"
            );
            assert_eq!(
                keys(entry.get("utilisation").unwrap()),
                ["hbm", "bram", "ports"]
            );
            assert_eq!(
                keys(entry.get("resources").unwrap()),
                ["luts", "ffs", "bram36", "uram", "dsps"]
            );
            assert_eq!(
                entry.get("simulated_cycles").and_then(Json::as_u64),
                Some(candidate.simulated_cycles)
            );
        }
    }

    #[test]
    fn every_explanation_names_the_max_utilisation_constraint() {
        let report = quick_tune(&heat3d());
        for c in &report.frontier {
            let u = c.costed.utilisation;
            let max = u.hbm.max(u.bram).max(u.ports);
            let expected = if max == u.hbm {
                Constraint::HbmBandwidth
            } else if max == u.bram {
                Constraint::Bram
            } else {
                Constraint::PortBudget
            };
            assert_eq!(c.binding, expected, "{c:#?}");
            assert!(!c.binding.as_str().is_empty());
        }
    }

    #[test]
    fn best_beats_default_and_siblings_share_compiles() {
        let kernel = heat3d();
        let cache = CompileCache::new();
        let report = tune(&kernel, &TuneOptions::quick(), &cache).unwrap();
        // The acceptance bar: the tuned best out-simulates the default
        // (1 CU, depth 1, unbundled) configuration.
        assert!(
            report.best_speedup > 1.0,
            "best_speedup = {}",
            report.best_speedup
        );
        // The zero-recompile property: one compilation per temporal
        // depth, nothing else — candidates differing only in runtime
        // knobs shared those designs.
        assert_eq!(report.redundant_compiles, 0);
        assert_eq!(report.compile_misses, report.unique_designs as u64);
        assert!(report.candidates_total > report.unique_designs * 4);
        // And a second sweep over the same cache compiles nothing.
        let again = tune(&kernel, &TuneOptions::quick(), &cache).unwrap();
        assert_eq!(again.compile_misses, 0);
        assert_eq!(again.redundant_compiles, 0);
    }

    #[test]
    fn impossible_device_yields_empty_frontier_without_panicking() {
        let kernel = heat3d();
        let cache = CompileCache::new();
        let report = tune(&kernel, &no_resources(), &cache).unwrap();
        assert!(report.frontier.is_empty());
        assert_eq!(
            report.pruned_resources + report.pruned_ports,
            report.candidates_total
        );
        assert_eq!(report.best_speedup, 0.0);
        // The render path copes with an empty frontier.
        let table = render(&report);
        assert!(table.contains("0 redundant compiles"), "{table}");
    }

    #[test]
    fn temporal_depth_widens_the_frontier_beyond_depth_one() {
        // The joint search must actually use the temporal axis: with the
        // quick axes, at least one frontier entry runs deeper than 1
        // (a depth-2 sweep advances two timesteps per pass, which the
        // effective-throughput metric credits).
        let report = quick_tune(&heat3d());
        assert!(
            report.frontier.iter().any(|c| c.costed.temporal_depth > 1),
            "{:#?}",
            report
                .frontier
                .iter()
                .map(|c| (c.costed.cus, c.costed.temporal_depth, c.simulated_mpts))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn a_zero_on_the_cus_axis_is_an_error_naming_the_axis() {
        // Regression: 0 reached `n0 / cus` under `FloorRemainderLast` and
        // panicked with a divide-by-zero.
        let opts = TuneOptions {
            cus: vec![0],
            ..TuneOptions::quick()
        };
        let err = tune(&heat3d(), &opts, &CompileCache::new()).unwrap_err();
        assert!(err.message().contains("`cus` axis"), "{err}");
    }

    /// The audit of "an analytic model that prunes": push every costed
    /// candidate — not only the frontier — through the same simulate and
    /// rescale path. The throughput model and the rescaled simulation rank
    /// the quick axes alike, so no dominated candidate out-simulates the
    /// ranked best.
    #[test]
    fn no_dominated_candidate_out_simulates_the_ranked_best() {
        let opts = TuneOptions::quick();
        let plan = compile(
            &heat3d(),
            &opts.temporal_depths,
            &opts.device,
            &CompileCache::new(),
        )
        .unwrap();
        let points = enumerate(&plan, &opts).unwrap();
        let costed: Vec<Candidate> = points.iter().map(|p| cost(&plan, &opts, p)).collect();
        assert!(costed.iter().all(|c| c.resources.fits(&opts.device)));
        let (dominated, frontier): (Vec<_>, Vec<_>) = costed
            .iter()
            .cloned()
            .partition(|c| costed.iter().any(|other| dominates(other, c)));
        assert_eq!(frontier.len(), prune(costed.clone()).len());
        assert!(!dominated.is_empty());

        let simulated = |candidates| simulate(&plan, &opts.device, candidates).unwrap().2;
        let mut ranked = simulated(frontier);
        rank(&mut ranked, 0.0);
        let best = &ranked[0];
        for c in simulated(dominated) {
            assert!(
                c.simulated_mpts <= best.simulated_mpts,
                "pruned as dominated, yet out-simulates the best {best:#?}:\n{c:#?}"
            );
        }
    }

    // ---- the two views behind `repro dse`

    fn parse(source: String) -> KernelDef {
        shmls_frontend::parse_kernel(&source).unwrap()
    }

    #[test]
    fn tracer_bundling_unlocks_more_cus() {
        // The paper's own example: "reducing to 12 ports for the input and
        // output fields plus one bundled port for the rest of the
        // arguments would allow for 2 CUs".
        let kernel = parse(shmls_kernels::tracer_advection::source(256, 256, 128));
        let (rows, best) = bundling_view(&kernel, &TuneOptions::quick()).unwrap();
        // Default: 17 ports, 1 CU.
        assert_eq!((rows[0].ports_per_cu, rows[0].cus), (17, 1));
        // Bundling 5 field ports: 11 private + shared + small = 13 → 2 CUs.
        assert_eq!(
            (rows[5].ports_per_cu, rows[5].cus),
            (13, 2),
            "{:?}",
            rows[5]
        );
        // The heuristic finds a configuration at least as fast as the
        // paper's 1-CU deployment, by replicating.
        let best = &rows[best.expect("a feasible row")];
        assert!(best.mpts >= rows[0].mpts, "best {best:?} vs {:?}", rows[0]);
        assert!(
            best.cus >= 2,
            "bundling should unlock replication: {best:?}"
        );
    }

    #[test]
    fn heavy_bundling_hits_the_shared_port() {
        let kernel = parse(shmls_kernels::tracer_advection::source(256, 256, 128));
        let (rows, best) = bundling_view(&kernel, &TuneOptions::quick()).unwrap();
        // Folding *everything* into one bundle serialises all traffic: the
        // most aggressive bundling must not be the best choice.
        let last = rows.last().unwrap();
        let best = &rows[best.expect("a feasible row")];
        assert!(best.bundled_fields < last.bundled_fields, "best {best:?}");
        // And the shared-port penalty is visible per CU.
        let per_cu = |c: &Candidate| c.mpts / f64::from(c.cus);
        assert!(per_cu(last) < per_cu(&rows[0]) * 1.01, "{last:?}");
    }

    #[test]
    fn pw_advection_keeps_the_paper_deployment_competitive() {
        let kernel = parse(shmls_kernels::pw_advection::source(256, 256, 128));
        let (rows, best) = bundling_view(&kernel, &TuneOptions::quick()).unwrap();
        // Paper default: 7 ports → 4 CUs, within 1% of the best row.
        assert_eq!((rows[0].ports_per_cu, rows[0].cus), (7, 4));
        let best = &rows[best.expect("a feasible row")];
        assert!(best.mpts >= rows[0].mpts * 0.99);
        // One row per bundling, each at the streams' declared depths.
        assert!(rows.iter().all(|c| c.fifo_depth.is_none()));
        assert_eq!(rows.len(), 6);
    }

    #[test]
    fn no_feasible_config_reports_none_instead_of_panicking() {
        // Regression: the old explorer indexed `choices[0]` when *nothing*
        // fit, silently presenting an infeasible design as the winner.
        let kernel = parse(shmls_kernels::pw_advection::source(64, 64, 32));
        let opts = no_resources();
        let (rows, best) = bundling_view(&kernel, &opts).unwrap();
        assert!(rows.iter().all(|c| !c.resources.fits(&opts.device)));
        assert_eq!(best, None);
    }

    #[test]
    fn rate_matched_designs_need_shallow_fifos() {
        let kernel = parse(shmls_kernels::pw_advection::source(16, 14, 10));
        let (rows, recommended) = depth_view(&kernel, &TuneOptions::quick()).unwrap();
        // A handshake-depth FIFO suffices on a rate-matched network.
        assert!(
            rows[recommended].0 <= 4,
            "recommended {:?}",
            rows[recommended]
        );
        // Depths are swept in order and cycles never increase with depth.
        for pair in rows.windows(2) {
            assert!(pair[0].0 < pair[1].0);
            assert!(pair[0].1 >= pair[1].1);
        }
    }

    #[test]
    fn tracer_chain_also_tolerates_shallow_fifos() {
        let kernel = parse(shmls_kernels::tracer_advection::source(10, 8, 6));
        let (rows, recommended) = depth_view(&kernel, &TuneOptions::quick()).unwrap();
        assert!(rows[recommended].0 <= 8);
        // Even depth 1 completes (deadlock-freedom at minimal buffering).
        assert!(rows[0].1 < u64::MAX);
    }
}
