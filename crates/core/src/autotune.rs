//! Joint design-space autotuner with a Pareto front.
//!
//! `core::dse` explores port bundling and FIFO depths in *isolation*; this
//! module searches the joint space the paper says the transformation stack
//! — not the programmer — should own:
//!
//! ```text
//! {CU count} × {slab split} × {stream/FIFO depth} × {bundled fields}
//!            × {temporal depth}
//! ```
//!
//! The search is staged so the expensive tool (the cycle-stepped
//! simulator) only ever sees candidates that earned it:
//!
//! 1. **Enumerate** every combination of the swept axes. Only
//!    `temporal_depth` changes the compiled design; the other four axes
//!    are runtime/model knobs, so all candidates of one depth share one
//!    compilation through the content-addressed [`CompileCache`] —
//!    runtime-knob-only siblings never recompile (the report's
//!    `redundant_compiles` must be 0).
//! 2. **Prune** with the analytic models, cheapest test first: the
//!    32-port shell budget (`cus × ports_per_cu ≤ max_axi_ports`), then
//!    the resource model ([`shmls_fpga_sim::resources`]), then Pareto
//!    dominance over (throughput ↑, BRAM ↓, watts ↓) using the
//!    [`shmls_fpga_sim::perf`] and [`power`] models.
//! 3. **Simulate** only the Pareto frontier, in parallel. Candidates that
//!    differ only in axes the simulator cannot see (CU count, split,
//!    bundling) share one raw simulation per (design, FIFO depth) pair;
//!    the per-candidate makespan is the raw sweep scaled by its slab
//!    fraction and shared-port penalty.
//!
//! Every surviving candidate carries an *explanation*: which constraint
//! binds (HBM bandwidth, BRAM, or the port budget — the maximum of the
//! three modelled utilisations) and its margin over the next-ranked
//! candidate, so `repro tune` reads as a decision, not a dump.

use shmls_fpga_sim::design::{DesignDescriptor, Stage};
use shmls_fpga_sim::device::{CostTable, Device, PowerCoefficients};
use shmls_fpga_sim::perf::{hmls_estimate, STAGE_FILL_CYCLES};
use shmls_fpga_sim::power;
use shmls_fpga_sim::resources::{bram_blocks, ResourceUsage};
use shmls_frontend::KernelDef;
use shmls_ir::error::IrResult;
use shmls_ir::ir_error;
use shmls_ir::json::Json;

use crate::cache::CompileCache;
use crate::driver::{CompileOptions, TargetPath};
use crate::dse;
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

    /// Encode as the variant's name.
    pub fn to_json(&self) -> Json {
        Json::Str(
            match self {
                SplitStrategy::Balanced => "Balanced",
                SplitStrategy::FloorRemainderLast => "FloorRemainderLast",
            }
            .into(),
        )
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

    /// Encode as the variant's name.
    pub fn to_json(&self) -> Json {
        Json::Str(
            match self {
                Constraint::HbmBandwidth => "HbmBandwidth",
                Constraint::Bram => "Bram",
                Constraint::PortBudget => "PortBudget",
            }
            .into(),
        )
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

/// One Pareto-frontier candidate, fully costed and cycle-simulated.
#[derive(Debug, Clone)]
pub struct TunedCandidate {
    /// Compute units.
    pub cus: u32,
    /// Slab split across those CUs.
    pub split: SplitStrategy,
    /// Temporal-blocking depth of the compiled design.
    pub temporal_depth: usize,
    /// Uniform FIFO depth override.
    pub fifo_depth: usize,
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
    /// Cycle-simulated makespan (raw sweep scaled to the slowest slab).
    pub simulated_cycles: u64,
    /// Cycle-simulated effective throughput, MPt·steps/s.
    pub simulated_mpts: f64,
    /// Modelled utilisation of each constraint.
    pub utilisation: Utilisation,
    /// The binding constraint (argmax of `utilisation`).
    pub binding: Constraint,
    /// Simulated-throughput margin over the next-ranked candidate (the
    /// last entry: over the default configuration), in percent.
    pub margin_pct: f64,
}

impl TunedCandidate {
    /// Encode as a JSON object keyed by field name.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("cus".into(), self.cus.into()),
            ("split".into(), self.split.to_json()),
            ("temporal_depth".into(), self.temporal_depth.into()),
            ("fifo_depth".into(), self.fifo_depth.into()),
            ("bundled_fields".into(), self.bundled_fields.into()),
            ("ports_per_cu".into(), self.ports_per_cu.into()),
            ("cycles".into(), self.cycles.into()),
            ("mpts".into(), self.mpts.into()),
            ("resources".into(), self.resources.to_json()),
            ("watts".into(), self.watts.into()),
            ("simulated_cycles".into(), self.simulated_cycles.into()),
            ("simulated_mpts".into(), self.simulated_mpts.into()),
            ("utilisation".into(), self.utilisation.to_json()),
            ("binding".into(), self.binding.to_json()),
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

/// A candidate between enumeration and the frontier cut.
#[derive(Debug, Clone)]
struct Candidate {
    depth_idx: usize,
    cus: u32,
    split: SplitStrategy,
    temporal_depth: usize,
    fifo_depth: usize,
    bundled_fields: usize,
    ports_per_cu: usize,
    max_rows: i64,
    cycles: u64,
    mpts: f64,
    resources: ResourceUsage,
    watts: f64,
    utilisation: Utilisation,
}

/// `a` Pareto-dominates `b` over (throughput ↑, BRAM ↓, watts ↓).
fn dominates(a: &Candidate, b: &Candidate) -> bool {
    let no_worse =
        a.mpts >= b.mpts && a.resources.bram36 <= b.resources.bram36 && a.watts <= b.watts;
    let better = a.mpts > b.mpts || a.resources.bram36 < b.resources.bram36 || a.watts < b.watts;
    no_worse && better
}

/// Steady-state cycles of the full-domain design on one CU with `bundled`
/// field ports sharing a physical port — [`dse::estimate_bundled`]'s
/// steady term, separated from fill so it can be scaled per slab.
fn bundled_steady(design: &DesignDescriptor, device: &Device, bundled: usize) -> u64 {
    let base = hmls_estimate(design, device, 1).steady_cycles;
    base.max(shared_port_cycles(design, device, bundled))
}

/// The shared bundle's serialisation term: its members' beats ride one
/// port whose effective rate degrades with the member count.
fn shared_port_cycles(design: &DesignDescriptor, device: &Device, bundled: usize) -> u64 {
    if bundled <= 1 {
        return 0;
    }
    let arbitration_efficiency = 1.0 / (1.0 + 0.15 * (bundled as f64 - 1.0));
    let shared_rate = device.beats_per_cycle_per_bank() * arbitration_efficiency;
    let mut shared: u64 = 0;
    for stage in &design.stages {
        if let Stage::Load {
            beats_per_field, ..
        }
        | Stage::Write {
            beats_per_field, ..
        } = stage
        {
            let shared_beats = *beats_per_field as f64 * bundled as f64;
            shared = shared.max((shared_beats / shared_rate).ceil() as u64);
        }
    }
    shared
}

/// Steady cycles attributable to the *memory side* of the design (the
/// load/write beat streams, the merge stages' halo-ring reads, and the
/// shared bundle) — the numerator of the HBM utilisation fraction.
fn memory_steady(design: &DesignDescriptor, device: &Device, bundled: usize) -> u64 {
    let bank_rate = device.beats_per_cycle_per_bank();
    let mut mem: u64 = 0;
    for stage in &design.stages {
        match stage {
            Stage::Load {
                beats_per_field, ..
            }
            | Stage::Write {
                beats_per_field, ..
            } => {
                mem = mem.max((*beats_per_field as f64 / bank_rate).ceil() as u64);
            }
            Stage::Merge { ring, .. } => {
                mem = mem.max((ring.div_ceil(8) as f64 / bank_rate).ceil() as u64);
            }
            _ => {}
        }
    }
    mem.max(shared_port_cycles(design, device, bundled))
}

/// BRAM36 blocks one CU's FIFOs occupy at `depth` elements each.
fn fifo_bram_at_depth(design: &DesignDescriptor, depth: u64) -> u64 {
    design
        .streams
        .iter()
        .map(|s| bram_blocks(depth * s.elem_bytes))
        .sum()
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
        SplitStrategy::FloorRemainderLast => {
            let base = n0 / i64::from(cus);
            let last = n0 - base * (i64::from(cus) - 1);
            Some(base.max(last))
        }
    }
}

/// Run the joint sweep for `kernel`, sharing compilations through
/// `cache`. Pass a fresh private cache to measure the zero-recompile
/// property, or [`crate::cache::global_cache`] to share designs with the
/// rest of the process.
pub fn tune(kernel: &KernelDef, opts: &TuneOptions, cache: &CompileCache) -> IrResult<TuneReport> {
    if kernel.grid.is_empty() {
        return Err(ir_error!("autotune: kernel `{}` has no grid", kernel.name));
    }
    let n0 = kernel.grid[0];
    let device = &opts.device;
    let stats_before = cache.stats();

    // --- compile one design per temporal depth (the only compile-time
    // axis); depth 1 is always compiled because it is the report's
    // default/baseline configuration.
    let mut depths: Vec<usize> = opts.temporal_depths.clone();
    if !depths.contains(&1) {
        depths.insert(0, 1);
    }
    let mut designs: Vec<DesignDescriptor> = Vec::with_capacity(depths.len());
    for &depth in &depths {
        let mut copts = CompileOptions {
            paths: TargetPath::HlsOnly,
            ..Default::default()
        };
        copts.hmls.temporal_depth = depth;
        let (compiled, _hit) = cache.get_or_compile(kernel, &copts)?;
        designs.push(
            DesignDescriptor::from_hls_func(&compiled.ctx, compiled.hls_func)
                .map_err(|e| e.context(format!("autotune: depth-{depth} design extraction")))?,
        );
    }
    let default_design = &designs[depths
        .iter()
        .position(|&d| d == 1)
        .expect("depth 1 present")];
    let interior_points = default_design.interior_points;

    // --- enumerate and prune with the analytic models.
    let mut candidates: Vec<Candidate> = Vec::new();
    let mut candidates_total = 0usize;
    let mut pruned_ports = 0usize;
    let mut pruned_resources = 0usize;
    for (depth_idx, &temporal_depth) in depths.iter().enumerate() {
        if !opts.temporal_depths.contains(&temporal_depth) {
            continue; // depth 1 compiled only as the baseline
        }
        let design = &designs[depth_idx];
        let total_field_ports = design
            .interfaces
            .iter()
            .filter(|(p, b)| p == "m_axi" && !b.ends_with("_small"))
            .count();
        let has_small = design.interfaces.iter().any(|(_, b)| b.ends_with("_small"));
        let fill = STAGE_FILL_CYCLES * design.critical_path_stages();

        for &cus in &opts.cus {
            let mut seen_rows: Vec<i64> = Vec::new();
            for &split in &opts.splits {
                let Some(max_rows) = max_slab_rows(n0, cus, split) else {
                    continue;
                };
                // Splits that produce the same tallest slab model
                // identically — keep the first (Balanced sorts first in
                // the quick/full axes) and skip the duplicate.
                if seen_rows.contains(&max_rows) {
                    continue;
                }
                seen_rows.push(max_rows);
                for bundled in 0..=total_field_ports.saturating_sub(1) {
                    let private_ports = total_field_ports - bundled;
                    let shared_ports = usize::from(bundled > 0) + usize::from(has_small);
                    let ports_per_cu = private_ports + shared_ports;
                    let steady_full = bundled_steady(design, device, bundled);
                    let extra_fill = if bundled > 1 {
                        STAGE_FILL_CYCLES * bundled as u64
                    } else {
                        0
                    };
                    for &fifo_depth in &opts.fifo_depths {
                        candidates_total += 1;
                        // Prune 1: the shell's port budget.
                        if cus as usize * ports_per_cu > device.max_axi_ports as usize {
                            pruned_ports += 1;
                            continue;
                        }
                        // Analytic makespan: the slowest slab's share of
                        // the full-domain steady state, plus fill.
                        let makespan_steady =
                            ((steady_full as f64 * max_rows as f64 / n0 as f64).ceil()) as u64;
                        let cycles = makespan_steady + fill + extra_fill;
                        let seconds = device.cycles_to_seconds(cycles);
                        let mpts =
                            design.interior_points as f64 * temporal_depth as f64 / seconds / 1.0e6;
                        // Resources: bundling swaps port engines; the
                        // FIFO override swaps per-stream storage.
                        let mut resources =
                            dse::resources_with_ports(design, &opts.costs, cus, ports_per_cu);
                        let declared: u64 = design
                            .streams
                            .iter()
                            .map(|s| bram_blocks(s.depth.max(0) as u64 * s.elem_bytes))
                            .sum();
                        let overridden = fifo_bram_at_depth(design, fifo_depth as u64);
                        resources.bram36 =
                            resources.bram36.saturating_sub(declared * u64::from(cus))
                                + overridden * u64::from(cus);
                        // Prune 2: the resource model.
                        if !resources.fits(device) {
                            pruned_resources += 1;
                            continue;
                        }
                        let bytes_moved = design.total_beats() * 64;
                        let pe =
                            power::estimate(device, &opts.power, &resources, bytes_moved, seconds);
                        let utilisation = Utilisation {
                            hbm: memory_steady(design, device, bundled) as f64
                                / steady_full.max(1) as f64,
                            bram: resources.bram36 as f64 / device.bram36.max(1) as f64,
                            ports: (cus as usize * ports_per_cu) as f64
                                / device.max_axi_ports.max(1) as f64,
                        };
                        candidates.push(Candidate {
                            depth_idx,
                            cus,
                            split,
                            temporal_depth,
                            fifo_depth,
                            bundled_fields: bundled,
                            ports_per_cu,
                            max_rows,
                            cycles,
                            mpts,
                            resources,
                            watts: pe.watts,
                            utilisation,
                        });
                    }
                }
            }
        }
    }

    // --- prune 3: Pareto dominance over (throughput, BRAM, watts).
    let frontier_mask: Vec<bool> = candidates
        .iter()
        .map(|c| !candidates.iter().any(|other| dominates(other, c)))
        .collect();
    let pruned_dominated = frontier_mask.iter().filter(|&&keep| !keep).count();
    let frontier_candidates: Vec<Candidate> = candidates
        .into_iter()
        .zip(&frontier_mask)
        .filter_map(|(c, &keep)| keep.then_some(c))
        .collect();

    // --- simulate the default configuration and every unique
    // (design, FIFO depth) pair the frontier needs, in parallel. The
    // simulator models one full-domain CU; per-candidate makespans are
    // that raw sweep scaled by slab fraction and shared-port penalty.
    let default_idx = depths
        .iter()
        .position(|&d| d == 1)
        .expect("depth 1 present");
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for c in &frontier_candidates {
        let pair = (c.depth_idx, c.fifo_depth);
        if !pairs.contains(&pair) {
            pairs.push(pair);
        }
    }
    let mut sim_results: Vec<Option<u64>> = Vec::with_capacity(pairs.len());
    let mut default_cycles: u64 = 0;
    {
        let designs = &designs;
        let joined: Vec<(String, std::thread::Result<Option<u64>>)> =
            std::thread::scope(|scope| {
                let default_handle = scope.spawn(move || {
                    shmls_fpga_sim::cycle::simulate(&designs[default_idx], None)
                        .ok()
                        .map(|r| r.cycles)
                });
                let handles: Vec<_> = pairs
                    .iter()
                    .map(|&(di, fd)| {
                        scope.spawn(move || {
                            shmls_fpga_sim::cycle::simulate(&designs[di], Some(fd))
                                .ok()
                                .map(|r| r.cycles)
                        })
                    })
                    .collect();
                // Join *all* threads before surfacing any panic, so one
                // poisoned simulation cannot abort the sweep mid-join
                // (the same containment pattern as `scale::sweep_slabs`).
                std::iter::once(("default".to_string(), default_handle.join()))
                    .chain(pairs.iter().zip(handles).map(|(&(di, fd), h)| {
                        (format!("depth {} fifo {fd}", depths[di]), h.join())
                    }))
                    .collect()
            });
        for (label, result) in joined {
            let cycles = match result {
                Ok(c) => c,
                Err(payload) => {
                    let reason = payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_string());
                    return Err(ir_error!("autotune: {label} simulation panicked: {reason}"));
                }
            };
            if label == "default" {
                default_cycles = cycles.ok_or_else(|| {
                    ir_error!("autotune: the default configuration deadlocked in simulation")
                })?;
            } else {
                sim_results.push(cycles);
            }
        }
    }
    let simulated = pairs.len();
    let default_seconds = device.cycles_to_seconds(default_cycles);
    let default_mpts = interior_points as f64 / default_seconds / 1.0e6;

    // --- attach simulated makespans, dropping deadlocked pairs.
    let mut pruned_deadlocked = 0usize;
    let mut frontier: Vec<TunedCandidate> = Vec::new();
    for c in frontier_candidates {
        let pair_idx = pairs
            .iter()
            .position(|&p| p == (c.depth_idx, c.fifo_depth))
            .expect("pair enumerated above");
        let Some(raw_cycles) = sim_results[pair_idx] else {
            pruned_deadlocked += 1;
            continue;
        };
        let design = &designs[c.depth_idx];
        let fill = STAGE_FILL_CYCLES * design.critical_path_stages();
        let extra_fill = if c.bundled_fields > 1 {
            STAGE_FILL_CYCLES * c.bundled_fields as u64
        } else {
            0
        };
        // Shared-port penalty relative to the unbundled steady state.
        let unbundled = bundled_steady(design, device, 0).max(1);
        let penalty = bundled_steady(design, device, c.bundled_fields) as f64 / unbundled as f64;
        let raw_steady = raw_cycles.saturating_sub(fill).max(1);
        let simulated_cycles = ((raw_steady as f64 * c.max_rows as f64 / n0 as f64 * penalty)
            .ceil()) as u64
            + fill
            + extra_fill;
        let sim_seconds = device.cycles_to_seconds(simulated_cycles);
        let simulated_mpts =
            design.interior_points as f64 * c.temporal_depth as f64 / sim_seconds / 1.0e6;
        frontier.push(TunedCandidate {
            cus: c.cus,
            split: c.split,
            temporal_depth: c.temporal_depth,
            fifo_depth: c.fifo_depth,
            bundled_fields: c.bundled_fields,
            ports_per_cu: c.ports_per_cu,
            cycles: c.cycles,
            mpts: c.mpts,
            resources: c.resources,
            watts: c.watts,
            simulated_cycles,
            simulated_mpts,
            utilisation: c.utilisation,
            binding: c.utilisation.binding(),
            margin_pct: 0.0,
        });
    }

    // --- rank by simulated throughput (deterministic tie-break on the
    // axes) and compute margins: each entry over the next-ranked one, the
    // last entry over the default configuration.
    frontier.sort_by(|a, b| {
        b.simulated_mpts
            .total_cmp(&a.simulated_mpts)
            .then_with(|| a.cus.cmp(&b.cus))
            .then_with(|| a.temporal_depth.cmp(&b.temporal_depth))
            .then_with(|| a.bundled_fields.cmp(&b.bundled_fields))
            .then_with(|| a.fifo_depth.cmp(&b.fifo_depth))
    });
    for i in 0..frontier.len() {
        let reference = if i + 1 < frontier.len() {
            frontier[i + 1].simulated_mpts
        } else {
            default_mpts
        };
        frontier[i].margin_pct = if reference > 0.0 {
            (frontier[i].simulated_mpts / reference - 1.0) * 100.0
        } else {
            0.0
        };
    }
    let best_speedup = frontier
        .first()
        .map(|c| c.simulated_mpts / default_mpts)
        .unwrap_or(0.0);

    let stats_after = cache.stats();
    let compile_misses = stats_after.misses - stats_before.misses;
    let compile_hits = stats_after.hits - stats_before.hits;
    Ok(TuneReport {
        kernel: kernel.name.clone(),
        interior_points,
        candidates_total,
        pruned_ports,
        pruned_resources,
        pruned_dominated,
        pruned_deadlocked,
        simulated,
        unique_designs: designs.len(),
        compile_misses,
        compile_hits,
        redundant_compiles: compile_misses.saturating_sub(designs.len() as u64),
        default_cycles,
        default_mpts,
        best_speedup,
        frontier,
    })
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
    writeln!(
        out,
        "{:<5} {:>4} {:<11} {:>5} {:>5} {:>8} {:>9} {:>11} {:>10} {:>6} {:>6}  {:<14} {:>8}",
        "rank",
        "CUs",
        "split",
        "depth",
        "fifo",
        "bundled",
        "ports/CU",
        "sim-cycles",
        "MPt·st/s",
        "BRAM",
        "watts",
        "binding",
        "margin"
    )
    .unwrap();
    for (i, c) in report.frontier.iter().enumerate() {
        writeln!(
            out,
            "{:<5} {:>4} {:<11} {:>5} {:>5} {:>8} {:>9} {:>11} {:>10.1} {:>6} {:>6.1}  {:<14} {:>7.1}%",
            i + 1,
            c.cus,
            c.split.as_str(),
            c.temporal_depth,
            c.fifo_depth,
            c.bundled_fields,
            c.ports_per_cu,
            c.simulated_cycles,
            c.simulated_mpts,
            c.resources.bram36,
            c.watts,
            c.binding.as_str(),
            c.margin_pct,
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
                if i == j {
                    continue;
                }
                let dominates = a.mpts >= b.mpts
                    && a.resources.bram36 <= b.resources.bram36
                    && a.watts <= b.watts
                    && (a.mpts > b.mpts
                        || a.resources.bram36 < b.resources.bram36
                        || a.watts < b.watts);
                assert!(
                    !dominates,
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
            let u = c.utilisation;
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
        let opts = TuneOptions {
            device: Device {
                luts: 0,
                ffs: 0,
                bram36: 0,
                uram: 0,
                dsps: 0,
                ..Device::u280()
            },
            ..TuneOptions::quick()
        };
        let report = tune(&kernel, &opts, &cache).unwrap();
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
            report.frontier.iter().any(|c| c.temporal_depth > 1),
            "{:#?}",
            report
                .frontier
                .iter()
                .map(|c| (c.cus, c.temporal_depth, c.simulated_mpts))
                .collect::<Vec<_>>()
        );
    }
}
