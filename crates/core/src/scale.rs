//! Scale-out execution: parallel compute units and time-marching in
//! temporally-blocked rounds.
//!
//! The paper's headline numbers replicate the dataflow design across
//! compute units (4 CUs for PW advection, one HBM bank per field per CU)
//! and run iterative stencils over many timesteps. This module supplies
//! both dimensions for the simulated system, with one scheduler
//! ([`run_time_marched_with`]):
//!
//! - **Spatial**: the domain is decomposed along axis 0 into contiguous
//!   slabs, one per CU. Each CU owns a disjoint row range of every
//!   written field, so running the slabs concurrently is race-free by
//!   construction — workers share only the immutable compiled designs
//!   and their own sliced inputs, and return their own outputs; the
//!   global state is touched only after they are all done (DESIGN.md §12
//!   has the full ownership argument).
//! - **Temporal**: the march runs `ceil(steps / depth)` *rounds*, `depth`
//!   being `temporal_depth` in [`crate::hmls::HmlsOptions`]. A round
//!   slices every CU a slab out of the global state — extended
//!   `(depth-1)*halo` rows past each internal side, clamped at the
//!   domain edges where the true boundary ring makes extension
//!   unnecessary — runs one sweep that advances `depth` timesteps, and
//!   gathers each CU's *owned* rows back into the global state, which is
//!   the halo exchange: the next round's slices read the neighbours'
//!   fresh rows from it. The extension rows are recomputed redundantly —
//!   the classic temporal-blocking trade: `ceil(steps/depth)`
//!   external-memory passes instead of `steps`, paid for with
//!   `(depth-1)*halo` ghost rows per slab side. At depth 1 the extension
//!   is zero and a round is one step. A non-divisible `steps` finishes
//!   with a shallower remainder round.
//! - **Engines**: a sweep runs on any [`Engine`] — by default the vector
//!   tier ([`VECTOR`]), which computes the values some five hundred times
//!   faster than the stream executor; [`MarchOptions::engine`] selects a
//!   dataflow engine for what only it can report (stream counts, pushed
//!   elements, memory beats). Either way every slab's dataflow design is
//!   compiled, once per distinct slab height and depth, through the
//!   content-addressed [`CompileCache`]: the report's model columns are
//!   read from it. Each CU prepares its design once for the rounds of
//!   one depth ([`Engine::prepare`]), so a sweep pays none of the set-up
//!   that does not depend on the data.
//!
//! The scheduler is named phases over one `MarchPlan`: `validate` →
//! `plan` → per run of rounds at one depth, `designs` and `prepare` →
//! its `round`s → `report`.
//!
//! Feedback between steps follows a declaration-order pairing rule
//! ([`feedback_pairs`]): an `inout` field feeds itself, and the *k*-th
//! pure `output` field feeds the *k*-th pure `input` field. Unpaired
//! inputs stay constant across steps. [`time_march_reference`] applies
//! the same rule to a monolithic (single-domain) runner and is the oracle
//! the slab path is differentially tested against.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use shmls_fpga_sim::device::Device;
use shmls_fpga_sim::perf::{
    external_passes, hmls_estimate, scale_estimate, PerfEstimate, ScaleEstimate,
};
use shmls_frontend::{FieldDecl, FieldKind, KernelDef};
use shmls_ir::error::{panic_reason, IrResult};
use shmls_ir::interp::Buffer;
use shmls_ir::{ir_bail, ir_error};

use crate::cache::{global_cache, CompileCache};
use crate::driver::{CompileOptions, CompiledKernel, TargetPath};
use crate::engine::{Engine, Prepared, StreamStats, Sweep, VECTOR};
use crate::runner::KernelData;

/// Split `n0` rows into `cus` contiguous `[start, end)` slabs; the
/// remainder rows go one each to the first CUs, so heights differ by at
/// most one. Delegates to [`shmls_ir::bytecode::slab_partition`] so the
/// CU decomposition and the bytecode tier's thread decomposition are the
/// same function — a threaded interpreter run and a multi-CU run agree on
/// slab ownership by construction.
pub fn partition(n0: i64, cus: usize) -> Vec<(i64, i64)> {
    shmls_ir::bytecode::slab_partition(n0, cus)
}

/// The `(output field, input field)` feedback pairs for time-marching:
/// every `inout` field feeds itself, and the *k*-th pure `output` feeds
/// the *k*-th pure `input`, both in declaration order (pairing stops at
/// the shorter list). Unpaired inputs are held constant.
pub fn feedback_pairs(kernel: &KernelDef) -> Vec<(String, String)> {
    let mut pairs: Vec<(String, String)> = kernel
        .fields
        .iter()
        .filter(|f| matches!(f.kind, FieldKind::InOut))
        .map(|f| (f.name.clone(), f.name.clone()))
        .collect();
    let outs = kernel
        .fields
        .iter()
        .filter(|f| matches!(f.kind, FieldKind::Output));
    let ins = kernel
        .fields
        .iter()
        .filter(|f| matches!(f.kind, FieldKind::Input));
    pairs.extend(outs.zip(ins).map(|(o, i)| (o.name.clone(), i.name.clone())));
    pairs
}

/// A fault injected into the halo exchange: the gather after the round
/// that covers step `step` (0-indexed) skips the first row CU `cu` owns
/// of the first fed field, so the next round's slices read a stale value
/// there — a lost exchange message. Used to self-test that the
/// differential harness detects exchange bugs; a run whose last round
/// covers `step`, or whose kernel feeds nothing back, is unaffected
/// (no later sweep reads the gather).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HaloFault {
    /// The compute unit whose row is lost.
    pub cu: usize,
    /// The step after which the exchange is corrupted (0-indexed).
    pub step: usize,
}

/// Execution policy for the scale-out runners.
#[derive(Debug, Clone, Copy, Default)]
pub struct MarchOptions<'a> {
    /// Run the CU slabs one after another instead of on worker threads
    /// (for byte-identity checks and speedup measurements).
    pub serial: bool,
    /// Compile through this cache instead of the process-wide
    /// [`global_cache`] — tests use a private cache so hit/miss counts
    /// are deterministic.
    pub cache: Option<&'a CompileCache>,
    /// Corrupt one halo-exchange row (self-test hook).
    pub fault: Option<HaloFault>,
    /// Panic inside this CU's worker (self-test hook): verifies a worker
    /// panic surfaces as a structured error naming the CU instead of
    /// tearing down the whole process. The march aborts on the first
    /// round's error, so the panic fires exactly once.
    pub panic_cu: Option<usize>,
    /// The tier every slab sweep runs on; `None` is the vector tier
    /// ([`VECTOR`]). The values are the same bits on every engine — pass
    /// a dataflow engine for its stream statistics.
    pub engine: Option<&'a dyn Engine>,
}

/// Per-compute-unit execution record.
#[derive(Debug, Clone)]
pub struct CuReport {
    /// Compute unit index.
    pub cu: usize,
    /// Owned global row range `[start, end)` on axis 0.
    pub rows: (i64, i64),
    /// Interior points this CU produces per step.
    pub interior_elems: u64,
    /// From an engine that executes streams, `None` otherwise: the
    /// streams one sweep instantiates, and the stream elements pushed and
    /// 512-bit memory beats summed over all sweeps.
    pub stream: Option<StreamStats>,
    /// Modelled cycles per sweep for this CU's slab design
    /// (analytic model, U280 clock).
    pub model_cycles: u64,
    /// Wall-clock time this CU spent executing, summed over all sweeps.
    pub wall: Duration,
}

/// One round of the march: a single sweep that advances every slab
/// `depth` timesteps.
#[derive(Debug, Clone)]
pub struct RoundReport {
    /// Round index (0-based).
    pub round: usize,
    /// Timesteps this round's sweep advanced — the final remainder round
    /// may be shallower than the configured temporal depth.
    pub depth: usize,
    /// Compile-cache hits among this round's design lookups. Designs are
    /// looked up when the round depth changes (the first round and a
    /// remainder round); the rounds between reuse them unasked.
    pub cache_hits: u64,
    /// Compile-cache misses (each one compiled a slab design).
    pub cache_misses: u64,
    /// Redundant axis-0 rows recomputed because slabs overlap: the sum
    /// over CUs of the extension rows (`(depth-1)*halo` per internal
    /// side, clamped at the domain edges).
    pub overlap_rows: i64,
    /// Wall-clock time of the round (slice + sweep + gather).
    pub wall: Duration,
}

/// Aggregated report for a multi-CU (optionally time-marched) run.
#[derive(Debug, Clone)]
pub struct MultiCuReport {
    /// Compute units used.
    pub cus: usize,
    /// Timesteps executed.
    pub steps: usize,
    /// Name of the engine the sweeps ran on.
    pub engine: &'static str,
    /// Per-CU records, in CU order.
    pub per_cu: Vec<CuReport>,
    /// End-to-end wall-clock time: every round's slice, sweep and gather
    /// (design lookups, compiles and preparing excluded).
    pub wall: Duration,
    /// Aggregate interior elements produced per second of wall-clock
    /// (all CUs, all steps).
    pub elems_per_s: f64,
    /// Measured load imbalance: slowest CU's total execution time over
    /// the mean (`1.0` = perfectly even; wall-clock, so noisy).
    pub load_imbalance: f64,
    /// Compile-cache hits among this run's design lookups.
    pub cache_hits: u64,
    /// Compile-cache misses (each one compiled a slab design).
    pub cache_misses: u64,
    /// Temporal depth the march ran at (timesteps per sweep).
    pub temporal_depth: usize,
    /// External-memory passes the model charges:
    /// `ceil(steps / temporal_depth)` (see
    /// [`shmls_fpga_sim::perf::external_passes`]).
    pub model_passes: u64,
    /// Per-round records, one per external pass.
    pub rounds: Vec<RoundReport>,
    /// Analytic per-sweep estimate for the CU ensemble (one sweep is
    /// `temporal_depth` steps).
    pub model: ScaleEstimate,
}

impl MultiCuReport {
    /// Cache hit fraction for this run's design lookups; `0.0` when the
    /// run performed no lookups (same convention as
    /// [`crate::cache::CacheStats::hit_rate`] — an idle cache must not
    /// read as a perfect one).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// One CU's share of a round.
struct SlabPlan {
    /// Owned global rows `[start, end)`.
    rows: (i64, i64),
    /// Rows the slab reaches below `start` and above `end`.
    ext: (i64, i64),
    /// The design for a slab of `ext.0 + (end - start) + ext.1` rows.
    compiled: Arc<CompiledKernel>,
}

/// One CU's prepared sweep, for the rounds of one depth.
type SlabSweep<'c> = Box<dyn Prepared + Send + 'c>;

/// A march worked out before any round runs: what it sweeps on, how the
/// domain splits, which output feeds which input, and its rounds as runs
/// of one depth — the whole ones, then a shallower remainder.
struct MarchPlan<'a> {
    kernel: &'a KernelDef,
    data: &'a KernelData,
    opts: &'a CompileOptions,
    march: &'a MarchOptions<'a>,
    engine: &'a dyn Engine,
    cache: &'a CompileCache,
    steps: usize,
    /// Timesteps per round but the remainder.
    depth: usize,
    pairs: Vec<(String, String)>,
    /// Each CU's owned rows.
    slabs: Vec<(i64, i64)>,
    /// `(depth, rounds)`: the whole rounds, then the remainder.
    runs: Vec<(usize, usize)>,
}

/// What the rounds add up as they run: per CU its execution time and
/// stream statistics, the model's estimates (from the first designs),
/// and a report per round.
struct Ledger {
    walls: Vec<Duration>,
    streams: Vec<Option<StreamStats>>,
    estimates: Vec<PerfEstimate>,
    rounds: Vec<RoundReport>,
}

/// Refuse a march that cannot run: no steps, no CUs, more CUs than rows,
/// slabs too thin to exchange a full halo, or temporal depth 0.
fn validate(kernel: &KernelDef, steps: usize, cus: usize, depth: usize) -> IrResult<()> {
    if steps == 0 {
        ir_bail!("at least one timestep required");
    }
    if cus == 0 {
        ir_bail!("at least one compute unit required");
    }
    let (n0, halo) = (kernel.grid[0], kernel.halo);
    if (cus as i64) > n0 {
        ir_bail!("cannot split {n0} rows over {cus} compute units");
    }
    if steps > 1 && cus > 1 && n0 / (cus as i64) < halo {
        ir_bail!(
            "slab height {} is smaller than the halo {halo}: \
             halo exchange cannot supply a full halo (use fewer compute \
             units or a taller grid)",
            n0 / (cus as i64)
        );
    }
    if depth == 0 {
        ir_bail!("temporal depth must be at least 1 (got 0)");
    }
    Ok(())
}

impl<'a> MarchPlan<'a> {
    fn new(
        kernel: &'a KernelDef,
        data: &'a KernelData,
        steps: usize,
        cus: usize,
        opts: &'a CompileOptions,
        march: &'a MarchOptions<'a>,
    ) -> Self {
        let depth = opts.hmls.temporal_depth;
        let runs = [(depth, steps / depth), (steps % depth, 1)]
            .into_iter()
            .filter(|&(d, rounds)| d > 0 && rounds > 0)
            .collect();
        MarchPlan {
            kernel,
            data,
            opts,
            march,
            engine: march.engine.unwrap_or(&VECTOR),
            cache: march.cache.unwrap_or_else(|| global_cache()),
            steps,
            depth,
            pairs: feedback_pairs(kernel),
            slabs: partition(kernel.grid[0], cus),
            runs,
        }
    }

    /// The rounds of the march.
    fn rounds(&self) -> usize {
        self.runs.iter().map(|&(_, rounds)| rounds).sum()
    }

    /// The global state of the written fields, which the rounds gather
    /// into and slice the fed inputs out of, and which is the result.
    /// Outside the rows the CUs write it keeps what it starts with — the
    /// halo ring: the caller's for an `inout` field (a march input), zero
    /// for a pure output (output buffers are not march inputs: no slab is
    /// ever sliced one, so every sweep starts them zeroed). A sweep reads
    /// its fed fields' rings from exactly these values, so the gathered
    /// state is the whole buffer the monolithic oracle feeds back.
    fn initial_state(&self) -> IrResult<BTreeMap<String, Buffer>> {
        let kernel = self.kernel;
        let bounded = shmls_ir::types::StencilBounds::from_extents(&kernel.grid).grown(kernel.halo);
        let written = |f: &&FieldDecl| matches!(f.kind, FieldKind::Output | FieldKind::InOut);
        let start = |f: &FieldDecl| match f.kind {
            FieldKind::InOut => self
                .data
                .buffers
                .get(&f.name)
                .cloned()
                .ok_or_else(|| ir_error!("missing input buffer `{}`", f.name)),
            _ => Ok(Buffer::zeroed(bounded.extents(), bounded.lb.clone())),
        };
        kernel
            .fields
            .iter()
            .filter(written)
            .map(|f| Ok((f.name.clone(), start(f)?)))
            .collect()
    }

    /// Every CU's slab design for rounds of depth `d`, through the cache:
    /// the designs with the lookups' `(hits, misses)`.
    fn designs(&self, d: usize) -> IrResult<(Vec<SlabPlan>, u64, u64)> {
        let mut slab_opts = CompileOptions {
            paths: TargetPath::HlsOnly,
            ..self.opts.clone()
        };
        slab_opts.hmls.temporal_depth = d;
        let (n0, margin) = (self.kernel.grid[0], (d as i64 - 1) * self.kernel.halo);
        let (mut plans, mut hits, mut misses) = (Vec::new(), 0, 0);
        let mut slab_kernel = self.kernel.clone();
        for &(start, end) in &self.slabs {
            let ext = (margin.min(start), margin.min(n0 - end));
            slab_kernel.grid[0] = ext.0 + (end - start) + ext.1;
            let (compiled, hit) = self.cache.get_or_compile(&slab_kernel, &slab_opts)?;
            hits += u64::from(hit);
            misses += u64::from(!hit);
            plans.push(SlabPlan {
                rows: (start, end),
                ext,
                compiled,
            });
        }
        Ok((plans, hits, misses))
    }

    /// Round `round`, `d` steps deep: slice every CU's slab out of the
    /// state, sweep it, and gather the owned rows back — the exchange.
    fn round(
        &self,
        (round, d): (usize, usize),
        plans: &[SlabPlan],
        sweeps: &mut [SlabSweep<'_>],
        state: &mut BTreeMap<String, Buffer>,
        ledger: &mut Ledger,
    ) -> IrResult<Duration> {
        let round_start = Instant::now();
        // After the first round a fed input is read from the state of the
        // output that feeds it.
        let fed: BTreeMap<&str, &Buffer> = self
            .pairs
            .iter()
            .filter(|_| round > 0)
            .filter_map(|(out_name, in_name)| Some((in_name.as_str(), state.get(out_name)?)))
            .collect();
        let swept = sweep_slabs(self.engine, plans, sweeps, d, self.march, |plan| {
            slice_slab(self.kernel, self.data, &fed, plan)
        })?;
        let mut outputs = Vec::with_capacity(plans.len());
        for (cu, (sweep, wall)) in swept.into_iter().enumerate() {
            ledger.walls[cu] += wall;
            if let Some((n_streams, pushed, beats)) = sweep.stats {
                let (_, all_pushed, all_beats) = ledger.streams[cu].unwrap_or_default();
                ledger.streams[cu] = Some((n_streams, all_pushed + pushed, all_beats + beats));
            }
            outputs.push(sweep.outputs);
        }
        // Gather — the exchange: every CU's owned rows go back into the
        // state, where the next round's slices find their neighbours'.
        // Only the last round's gather needs the fields nothing reads.
        let last = round + 1 == self.rounds();
        let steps_done = round * self.depth;
        let mut drop_first = (self.march.fault)
            .filter(|f| !last && (steps_done..steps_done + d).contains(&f.step))
            .map(|f| f.cu);
        for (name, whole) in state.iter_mut() {
            if last || self.pairs.iter().any(|(out_name, _)| out_name == name) {
                gather_owned(whole, plans, &outputs, name, drop_first.take())?;
            }
        }
        Ok(round_start.elapsed())
    }

    /// The march's report from what its rounds added up.
    fn report(&self, ledger: Ledger) -> MultiCuReport {
        let Ledger {
            walls,
            streams,
            estimates,
            rounds,
        } = ledger;
        let cus = self.slabs.len();
        let wall: Duration = rounds.iter().map(|r| r.wall).sum();
        let off_axis: i64 = self.kernel.grid[1..].iter().product();
        let per_cu: Vec<CuReport> = (self.slabs.iter().enumerate())
            .map(|(cu, &(start, end))| CuReport {
                cu,
                rows: (start, end),
                interior_elems: ((end - start) * off_axis) as u64,
                stream: streams[cu],
                model_cycles: estimates[cu].cycles,
                wall: walls[cu],
            })
            .collect();
        let total_elems = per_cu.iter().map(|c| c.interior_elems).sum::<u64>() * self.steps as u64;
        let mean_wall = walls.iter().map(|w| w.as_secs_f64()).sum::<f64>() / cus as f64;
        let max_wall = walls.iter().map(|w| w.as_secs_f64()).fold(0.0f64, f64::max);
        MultiCuReport {
            cus,
            steps: self.steps,
            engine: self.engine.name(),
            per_cu,
            wall,
            elems_per_s: total_elems as f64 / wall.as_secs_f64().max(1e-9),
            load_imbalance: if mean_wall > 0.0 {
                max_wall / mean_wall
            } else {
                1.0
            },
            cache_hits: rounds.iter().map(|r| r.cache_hits).sum(),
            cache_misses: rounds.iter().map(|r| r.cache_misses).sum(),
            temporal_depth: self.depth,
            model_passes: external_passes(self.steps as u64, self.depth as u64),
            rounds,
            model: scale_estimate(&estimates),
        }
    }
}

/// Run `kernel` over `cus` compute units for one application of the
/// stencil, returning the merged outputs and the execution report.
/// Identical results to [`crate::runner::run_hls_multi_cu`] (which is
/// now a thin wrapper over this).
pub fn run_hls_multi_cu_report(
    kernel: &KernelDef,
    data: &KernelData,
    cus: usize,
    opts: &CompileOptions,
) -> IrResult<(BTreeMap<String, Buffer>, MultiCuReport)> {
    run_time_marched_with(kernel, data, 1, cus, opts, &MarchOptions::default())
}

/// Time-march `kernel` for `steps` timesteps over `cus` parallel compute
/// units, exchanging halo rows between neighbouring slabs after each
/// round. Compiles each distinct slab design exactly once (through the
/// process-wide compile cache), regardless of `steps`.
pub fn run_time_marched(
    kernel: &KernelDef,
    data: &KernelData,
    steps: usize,
    cus: usize,
    opts: &CompileOptions,
) -> IrResult<(BTreeMap<String, Buffer>, MultiCuReport)> {
    run_time_marched_with(kernel, data, steps, cus, opts, &MarchOptions::default())
}

/// [`run_time_marched`] with an explicit execution policy: the round
/// scheduler. Runs `ceil(steps / depth)` rounds of slice → sweep →
/// gather, the last one shallower when `depth` does not divide `steps`
/// (its depth-`steps % depth` designs come out of the same cache, so a
/// repeated march never recompiles them).
///
/// **Validity of the extension.** One step contaminates at most `halo`
/// rows inward from a slab edge whose ring holds stale values, so after
/// `d` steps the wavefront has eaten `(d-1)*halo` rows (the first step
/// reads freshly-sliced, globally-correct halos). Extending each internal
/// slab side by exactly `ext = (d-1)*halo` rows therefore keeps the
/// *owned* rows bitwise-identical to the monolithic sweep. At a domain
/// edge the slab ring *is* the global boundary ring — always correct, no
/// extension needed — hence the clamp
/// `ext = min((d-1)*halo, distance to domain edge)`.
pub fn run_time_marched_with(
    kernel: &KernelDef,
    data: &KernelData,
    steps: usize,
    cus: usize,
    opts: &CompileOptions,
    march: &MarchOptions<'_>,
) -> IrResult<(BTreeMap<String, Buffer>, MultiCuReport)> {
    validate(kernel, steps, cus, opts.hmls.temporal_depth)?;
    let plan = MarchPlan::new(kernel, data, steps, cus, opts, march);
    let mut state = plan.initial_state()?;
    let mut ledger = Ledger {
        walls: vec![Duration::ZERO; cus],
        streams: vec![None; cus],
        estimates: Vec::new(),
        rounds: Vec::with_capacity(plan.rounds()),
    };
    let mut round = 0;
    for &(d, rounds) in &plan.runs {
        // Designs, and each CU's sweep prepared on its design: once per
        // distinct round depth, never per round.
        let (designs, mut cache_hits, mut cache_misses) = plan.designs(d)?;
        if round == 0 {
            let device = Device::u280();
            let estimate = |p: &SlabPlan| hmls_estimate(&p.compiled.design, &device, 1);
            ledger.estimates = designs.iter().map(estimate).collect();
        }
        let mut sweeps = (designs.iter())
            .map(|p| plan.engine.prepare(&p.compiled))
            .collect::<IrResult<Vec<_>>>()?;
        for _ in 0..rounds {
            let wall = plan.round((round, d), &designs, &mut sweeps, &mut state, &mut ledger)?;
            ledger.rounds.push(RoundReport {
                round,
                depth: d,
                cache_hits: std::mem::take(&mut cache_hits),
                cache_misses: std::mem::take(&mut cache_misses),
                overlap_rows: designs.iter().map(|p| p.ext.0 + p.ext.1).sum(),
                wall,
            });
            round += 1;
        }
    }
    Ok((state, plan.report(ledger)))
}

/// Monolithic time-marching oracle: apply `run_once` to the full domain
/// `steps` times, feeding outputs back to inputs by [`feedback_pairs`].
/// The slab path is differentially tested against this with `run_once`
/// ranging over the single-CU engines and the stencil interpreter.
pub fn time_march_reference<F>(
    kernel: &KernelDef,
    data: &KernelData,
    steps: usize,
    mut run_once: F,
) -> IrResult<BTreeMap<String, Buffer>>
where
    F: FnMut(&KernelData) -> IrResult<BTreeMap<String, Buffer>>,
{
    if steps == 0 {
        ir_bail!("at least one timestep required");
    }
    let pairs = feedback_pairs(kernel);
    let mut current = data.clone();
    let mut last = BTreeMap::new();
    for step in 0..steps {
        last = run_once(&current)?;
        if step + 1 < steps {
            for (out_name, in_name) in &pairs {
                let fed = last
                    .get(out_name)
                    .ok_or_else(|| ir_error!("missing feedback output `{out_name}`"))?
                    .clone();
                current.buffers.insert(in_name.clone(), fed);
            }
        }
    }
    Ok(last)
}

/// Slice one CU's halo-padded slab inputs out of the global state — the
/// `fed` fields, the caller's `data` for the rest. With `first` the
/// slab's lowest global row (extension included), read fields get rows
/// `[first - halo, last + halo)` re-indexed so that slab row 0 is global
/// row `first`; axis-0 params are sliced likewise, other params and
/// scalars pass through. Pure outputs are not inputs.
fn slice_slab(
    kernel: &KernelDef,
    data: &KernelData,
    fed: &BTreeMap<&str, &Buffer>,
    plan: &SlabPlan,
) -> IrResult<KernelData> {
    let halo = kernel.halo;
    let first = plan.rows.0 - plan.ext.0;
    let rows = plan.rows.1 + plan.ext.1 - first + 2 * halo;
    // Rows `[from, from + rows)` of `global` as a buffer of its own whose
    // axis-0 origin is `origin`.
    let cut = |global: &Buffer, from: i64, origin: i64| -> IrResult<Buffer> {
        let on_axis0 = |first: i64, all: &[i64]| -> Vec<i64> {
            std::iter::once(first)
                .chain(all.iter().skip(1).copied())
                .collect()
        };
        let mut slab = Buffer::zeroed(
            on_axis0(rows, &global.shape),
            on_axis0(origin, &global.origin),
        );
        slab.copy_rows_from(global, from, origin, rows)?;
        Ok(slab)
    };
    let mut slab = KernelData {
        scalars: data.scalars.clone(),
        ..Default::default()
    };
    for field in &kernel.fields {
        if !matches!(field.kind, FieldKind::Input | FieldKind::InOut) {
            continue;
        }
        let global = fed
            .get(field.name.as_str())
            .copied()
            .or_else(|| data.buffers.get(&field.name))
            .ok_or_else(|| ir_error!("missing input buffer `{}`", field.name))?;
        slab.buffers
            .insert(field.name.clone(), cut(global, first - halo, -halo)?);
    }
    for p in &kernel.params {
        let global = data
            .buffers
            .get(&p.name)
            .ok_or_else(|| ir_error!("missing param buffer `{}`", p.name))?;
        let buffer = if p.axis == 0 {
            cut(global, first, 0)?
        } else {
            global.clone()
        };
        slab.buffers.insert(p.name.clone(), buffer);
    }
    Ok(slab)
}

/// Overlay each CU's *owned* axis-0 rows of field `name`
/// (`[ext.0, ext.0 + height)` in slab coordinates, re-indexed to global
/// rows) onto `whole`. The extension rows on either side are the
/// redundantly recomputed overlap and are discarded. With
/// `drop_first = Some(cu)`, the first owned row that CU would contribute
/// is skipped (the [`HaloFault`] hook — leaves the stale value in place,
/// like a lost exchange message).
fn gather_owned(
    whole: &mut Buffer,
    plans: &[SlabPlan],
    outputs: &[BTreeMap<String, Buffer>],
    name: &str,
    drop_first: Option<usize>,
) -> IrResult<()> {
    for (cu, (plan, out)) in plans.iter().zip(outputs).enumerate() {
        let slab = out
            .get(name)
            .ok_or_else(|| ir_error!("missing output `{name}` from compute unit {cu}"))?;
        let (start, end) = plan.rows;
        let skip = i64::from(drop_first == Some(cu));
        whole.copy_rows_from(slab, plan.ext.0 + skip, start + skip, end - start - skip)?;
    }
    Ok(())
}

/// Slice and sweep every CU's slab once — concurrently on scoped worker
/// threads, or one after another on the calling thread when the march is
/// `serial` or a slab is less work than a thread costs to spawn and join
/// ([`Engine::min_parallel_work`]). Workers share only the immutable
/// designs and the global state `slice` reads, and each returns its own
/// outputs; nothing is written to shared state until they are all done.
///
/// A panicking sweep is *contained*, on a worker or on the calling
/// thread: it becomes a structured [`IrResult`] error naming the CU (with
/// the panic payload when it is a string), exactly like any other per-CU
/// failure — callers see `Err`, not an aborted process. The remaining
/// slabs still run to completion first, so no slab is left half-executed
/// when the error propagates.
fn sweep_slabs(
    engine: &dyn Engine,
    plans: &[SlabPlan],
    sweeps: &mut [SlabSweep<'_>],
    depth: usize,
    march: &MarchOptions<'_>,
    slice: impl Fn(&SlabPlan) -> IrResult<KernelData> + Sync,
) -> IrResult<Vec<(Sweep, Duration)>> {
    let panic_cu = march.panic_cu;
    let run_one = |cu: usize, prepared: &mut SlabSweep<'_>| -> IrResult<(Sweep, Duration)> {
        if panic_cu == Some(cu) {
            panic!("injected fault in compute unit {cu}");
        }
        let slab_data = slice(&plans[cu])?;
        let t0 = Instant::now();
        let sweep = prepared.sweep(&slab_data, depth)?;
        Ok((sweep, t0.elapsed()))
    };
    // Slab heights differ by at most one row, so the tallest speaks for
    // them all.
    let work = plans
        .iter()
        .map(|p| p.compiled.kernel.grid.iter().product::<i64>())
        .max()
        .unwrap_or(0) as u64
        * depth as u64;
    let inline = march.serial || plans.len() == 1 || work < engine.min_parallel_work();
    let joined: Vec<std::thread::Result<_>> = if inline {
        (sweeps.iter_mut().enumerate())
            .map(|(cu, prepared)| catch_unwind(AssertUnwindSafe(|| run_one(cu, prepared))))
            .collect()
    } else {
        let run_one = &run_one;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (sweeps.iter_mut().enumerate())
                .map(|(cu, prepared)| scope.spawn(move || run_one(cu, prepared)))
                .collect();
            // Join *every* handle here: a panicked handle left to the
            // scope's implicit join would re-raise the panic in the
            // caller.
            handles.into_iter().map(|h| h.join()).collect()
        })
    };
    joined
        .into_iter()
        .enumerate()
        .map(|(cu, result)| {
            result.unwrap_or_else(|payload| {
                let reason = panic_reason(&*payload);
                Err(ir_error!("compute-unit {cu} worker panicked: {reason}"))
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Stream, Threaded};
    use shmls_frontend::parse_kernel;

    /// The engines every march property below is held on: the default
    /// vector tier and the stream executor (whose deep designs run the
    /// halo-merge seam stages the vector tier replaces with a loop).
    const ENGINES: [&dyn Engine; 2] = [&VECTOR, &Stream];

    fn march_on(engine: &dyn Engine) -> MarchOptions<'_> {
        MarchOptions {
            engine: Some(engine),
            ..Default::default()
        }
    }

    #[test]
    fn partition_distributes_remainder_to_leading_cus() {
        assert_eq!(partition(10, 3), vec![(0, 4), (4, 7), (7, 10)]);
        assert_eq!(partition(8, 4), vec![(0, 2), (2, 4), (4, 6), (6, 8)]);
        assert_eq!(partition(5, 1), vec![(0, 5)]);
        let slabs = partition(7, 7);
        assert_eq!(slabs.len(), 7);
        assert!(slabs.iter().all(|(s, e)| e - s == 1));
    }

    #[test]
    fn feedback_pairs_inout_and_positional() {
        let k = parse_kernel(
            "kernel f { grid(6, 6) halo 1 \
             field a : input field s : inout field b : output \
             compute s { s = a[0,1] } compute b { b = s[0,0] } }",
        )
        .unwrap();
        assert_eq!(
            feedback_pairs(&k),
            vec![
                ("s".to_string(), "s".to_string()),
                ("b".to_string(), "a".to_string()),
            ]
        );
    }

    #[test]
    fn worker_panic_surfaces_as_structured_error() {
        // Regression: a panicking compute-unit worker used to hit the
        // harness's `.expect("compute-unit worker panicked")`, re-raising
        // the panic in the coordinating thread and tearing the whole
        // process down. It must instead surface as an ordinary `Err`
        // naming the CU, like every other per-CU failure (cf. HaloFault)
        // — on a worker thread (the stream engine spawns them for slabs
        // this small), on the calling thread (the vector tier sweeps
        // them inline), and in a serial march.
        let kernel = parse_kernel(
            "kernel p { grid(8, 6) halo 1 field a : input field b : output \
             compute b { b = a[-1,0] + a[0,1] } }",
        )
        .unwrap();
        let mut a = Buffer::zeroed(vec![10, 8], vec![-1, -1]);
        for (i, v) in a.data.iter_mut().enumerate() {
            *v = i as f64 * 0.25 - 3.0;
        }
        let data = KernelData::default()
            .buffer("a", a)
            .buffer("b", Buffer::zeroed(vec![10, 8], vec![-1, -1]));
        let opts = CompileOptions {
            paths: TargetPath::HlsOnly,
            ..Default::default()
        };
        let cache = CompileCache::new();
        // A slab is 4 rows of 6 points: threads on one engine, not the other.
        assert!(24 >= Stream.min_parallel_work() && 24 < VECTOR.min_parallel_work());

        for (engine, serial) in [(ENGINES[0], false), (ENGINES[1], false), (ENGINES[1], true)] {
            // Sanity: the same configuration succeeds without the fault.
            let clean = MarchOptions {
                cache: Some(&cache),
                serial,
                ..march_on(engine)
            };
            run_time_marched_with(&kernel, &data, 2, 2, &opts, &clean)
                .expect("clean march must succeed");

            let faulty = MarchOptions {
                panic_cu: Some(1),
                ..clean
            };
            let err = run_time_marched_with(&kernel, &data, 2, 2, &opts, &faulty)
                .expect_err("injected worker panic must fail the march");
            let msg = err.to_string();
            assert!(
                msg.contains("compute-unit 1 worker panicked"),
                "error must name the CU: {msg}"
            );
            assert!(
                msg.contains("injected fault in compute unit 1"),
                "error must carry the panic payload: {msg}"
            );
        }
    }

    /// Deterministic pseudo-random fill in [-1, 1) (splitmix-style).
    fn fill(buf: &mut Buffer, seed: u64) {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        for v in buf.data.iter_mut() {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *v = ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0;
        }
    }

    fn opts_depth(depth: usize) -> CompileOptions {
        let mut o = CompileOptions {
            paths: TargetPath::HlsOnly,
            ..Default::default()
        };
        o.hmls.temporal_depth = depth;
        o
    }

    fn assert_bitwise_eq(a: &BTreeMap<String, Buffer>, b: &BTreeMap<String, Buffer>, what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: output field sets differ");
        for (name, ab) in a {
            let bb = b
                .get(name)
                .unwrap_or_else(|| panic!("{what}: missing {name}"));
            assert_eq!(ab.data.len(), bb.data.len(), "{what}: {name} shape");
            for (i, (x, y)) in ab.data.iter().zip(&bb.data).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{what}: field `{name}` element {i}: {x} vs {y}"
                );
            }
        }
    }

    /// Every (cus, steps, depth) march of `kernel`, on every engine, is
    /// bitwise the single-CU depth-1 vector march of the same step count.
    fn assert_marches_agree(kernel: &KernelDef, data: &KernelData, configs: &[[usize; 3]]) {
        for &[cus, steps, depth] in configs {
            let (plain, _) =
                run_time_marched(kernel, data, steps, 1, &opts_depth(1)).expect("plain march");
            for engine in ENGINES {
                let what = format!("{} cus={cus} steps={steps} depth={depth}", engine.name());
                let (marched, report) = run_time_marched_with(
                    kernel,
                    data,
                    steps,
                    cus,
                    &opts_depth(depth),
                    &march_on(engine),
                )
                .unwrap_or_else(|e| panic!("{what}: {e}"));
                assert_bitwise_eq(&plain, &marched, &what);
                assert_eq!(report.engine, engine.name());
                assert_eq!(report.temporal_depth, depth);
                assert_eq!(report.model_passes, (steps as u64).div_ceil(depth as u64));
                assert_eq!(report.rounds.len(), report.model_passes as usize);
                assert_eq!(
                    report.per_cu.iter().all(|cu| cu.stream.is_some()),
                    engine.name() == "stream",
                    "{what}: stream statistics come from the stream engine alone"
                );
            }
        }
    }

    #[test]
    fn deep_march_is_bitwise_equal_to_depth1_march() {
        let kernel = parse_kernel(
            "kernel t1 { grid(12, 6) halo 1 field a : input field b : output \
             compute b { b = a[0,0] + a[-1,0] + a[1,0] + a[0,-1] + a[0,1] } }",
        )
        .unwrap();
        let mut a = Buffer::zeroed(vec![14, 8], vec![-1, -1]);
        let mut b = Buffer::zeroed(vec![14, 8], vec![-1, -1]);
        fill(&mut a, 11);
        fill(&mut b, 22); // a caller's output buffer is not a march input
        let data = KernelData::default().buffer("a", a).buffer("b", b);
        // Divisible, remainder round, depth > steps, and plain depth 1.
        assert_marches_agree(
            &kernel,
            &data,
            &[
                [1, 4, 2],
                [2, 5, 2],
                [3, 5, 4],
                [2, 3, 8],
                [3, 4, 4],
                [3, 3, 1],
            ],
        );
    }

    #[test]
    fn deep_march_inout_matches_depth1() {
        let kernel = parse_kernel(
            "kernel t2 { grid(10, 6) halo 1 field u : inout \
             compute u { u = u[0,0] + u[-1,0] + u[1,0] } }",
        )
        .unwrap();
        let mut u = Buffer::zeroed(vec![12, 8], vec![-1, -1]);
        fill(&mut u, 7);
        let data = KernelData::default().buffer("u", u.clone());
        assert_marches_agree(
            &kernel,
            &data,
            &[[1, 3, 3], [2, 5, 3], [3, 4, 2], [2, 2, 1]],
        );
        // An `inout` field comes back inside the caller's ring, as it
        // does from a monolithic run.
        let (marched, _) = run_time_marched(&kernel, &data, 3, 2, &opts_depth(2)).unwrap();
        assert_eq!(marched["u"].data[..8], u.data[..8]);
    }

    #[test]
    fn deep_march_rounds_report_cache_and_overlap() {
        let kernel = parse_kernel(
            "kernel t3 { grid(10, 6) halo 1 field a : input field b : output \
             compute b { b = a[-1,0] + a[0,1] } }",
        )
        .unwrap();
        let mut a = Buffer::zeroed(vec![12, 8], vec![-1, -1]);
        fill(&mut a, 3);
        let data = KernelData::default().buffer("a", a);
        for engine in ENGINES {
            let cache = CompileCache::new();
            let march = MarchOptions {
                cache: Some(&cache),
                ..march_on(engine)
            };
            // 5 steps at depth 2 over 2 CUs of 5 rows: rounds [2, 2, 1].
            let (_, report) =
                run_time_marched_with(&kernel, &data, 5, 2, &opts_depth(2), &march).unwrap();
            assert_eq!(
                report.rounds.iter().map(|r| r.depth).collect::<Vec<_>>(),
                vec![2, 2, 1]
            );
            // Round 0: both extended slabs are 6 rows tall — one miss, one
            // hit. Round 1 keeps its designs without asking. The depth-1
            // remainder round compiles one fresh 5-row design, then hits.
            let lookups: Vec<(u64, u64)> = report
                .rounds
                .iter()
                .map(|r| (r.cache_misses, r.cache_hits))
                .collect();
            assert_eq!(lookups, [(1, 1), (0, 0), (1, 1)]);
            assert_eq!((report.cache_misses, report.cache_hits), (2, 2));
            // Overlap: (depth-1)*halo = 1 row per internal side.
            let overlap: Vec<i64> = report.rounds.iter().map(|r| r.overlap_rows).collect();
            assert_eq!(overlap, [2, 2, 0]);
            // A second identical march is all hits — remainder rounds
            // never recompile once their depth is cached.
            let (_, warm) =
                run_time_marched_with(&kernel, &data, 5, 2, &opts_depth(2), &march).unwrap();
            assert_eq!((warm.cache_misses, warm.cache_hits), (0, 4));
        }
    }

    #[test]
    fn temporal_depth_zero_is_a_structured_error() {
        let kernel = parse_kernel(
            "kernel z { grid(8, 6) halo 1 field a : input field b : output \
             compute b { b = a[0,1] } }",
        )
        .unwrap();
        let data = KernelData::default()
            .buffer("a", Buffer::zeroed(vec![10, 8], vec![-1, -1]))
            .buffer("b", Buffer::zeroed(vec![10, 8], vec![-1, -1]));
        let err = run_time_marched(&kernel, &data, 2, 1, &opts_depth(0)).unwrap_err();
        assert!(
            err.to_string()
                .contains("temporal depth must be at least 1"),
            "unexpected message: {err}"
        );
    }

    #[test]
    fn deep_march_halo_fault_perturbs_non_final_rounds_only() {
        let kernel = parse_kernel(
            "kernel f { grid(10, 6) halo 1 field a : input field b : output \
             compute b { b = a[-1,0] + a[1,0] } }",
        )
        .unwrap();
        let mut a = Buffer::zeroed(vec![12, 8], vec![-1, -1]);
        fill(&mut a, 17);
        let data = KernelData::default().buffer("a", a);
        for engine in ENGINES {
            for depth in [1, 2] {
                let opts = opts_depth(depth);
                let what = format!("{} depth {depth}", engine.name());
                let (clean, _) =
                    run_time_marched_with(&kernel, &data, 4, 2, &opts, &march_on(engine)).unwrap();
                // A fault in the first round's gather corrupts the feed
                // and must be visible downstream.
                let faulty = MarchOptions {
                    fault: Some(HaloFault { cu: 1, step: 0 }),
                    ..march_on(engine)
                };
                let (hit, _) = run_time_marched_with(&kernel, &data, 4, 2, &opts, &faulty).unwrap();
                assert!(
                    clean["b"]
                        .data
                        .iter()
                        .zip(&hit["b"].data)
                        .any(|(x, y)| x.to_bits() != y.to_bits()),
                    "{what}: a dropped gather row must perturb the result"
                );
                // A fault aimed at the final round has no later feed to
                // corrupt.
                let late = MarchOptions {
                    fault: Some(HaloFault { cu: 1, step: 3 }),
                    ..march_on(engine)
                };
                let (unhit, _) = run_time_marched_with(&kernel, &data, 4, 2, &opts, &late).unwrap();
                assert_bitwise_eq(&clean, &unhit, &format!("{what}: final-round fault"));
            }
        }
    }

    #[test]
    fn a_dataflow_engine_refuses_a_depth_its_design_was_not_built_for() {
        let kernel = parse_kernel(
            "kernel d { grid(6, 6) halo 1 field a : input field b : output \
             compute b { b = a[0,1] } }",
        )
        .unwrap();
        let compiled = crate::compile_kernel(kernel, &opts_depth(2)).unwrap();
        let data = KernelData::default();
        for engine in [&Stream as &dyn Engine, &Threaded] {
            assert!(engine.sweep(&compiled, &data, 2).is_ok());
            let e = engine.sweep(&compiled, &data, 1).unwrap_err();
            assert!(
                e.to_string().contains("compiled at temporal depth 2"),
                "{e}"
            );
        }
        // The interpreter tiers run the stencil function, whatever the
        // design's depth.
        assert!(VECTOR.sweep(&compiled, &data, 3).is_ok());
    }

    #[test]
    fn feedback_pairs_stop_at_shorter_list() {
        let k = parse_kernel(
            "kernel g { grid(6, 6) halo 1 field a : input field b : output \
             field c : output compute b { b = a[0,1] } compute c { c = a[1,0] } }",
        )
        .unwrap();
        // Two outputs, one input: only the first output is fed back.
        assert_eq!(feedback_pairs(&k), vec![("b".to_string(), "a".to_string())]);
    }
}
