//! The Stencil-HMLS transformation: stencil dialect → HLS dialect (§3.3).
//!
//! Implements the paper's nine steps, producing the dataflow structure of
//! Figure 3 — `load_data → shift_buffer(s) → stream duplication → one
//! compute stage per stencil field → write_data`, all connected by HLS
//! streams so every stage makes progress each cycle:
//!
//! 1. **Classification of kernel arguments** — [`crate::classify`].
//! 2. **512-bit packed interface types** — field pointers become
//!    `!llvm.ptr<!llvm.struct<(!llvm.array<8 x f64>)>>` so each external
//!    beat moves 8 doubles.
//! 3. **Streams replace direct memory access, through a single load stage,
//!    emitted directly** (the paper's steps 3 and 7) — one `load_data`
//!    stage feeds an element stream per read field (Listing 4, Figure 3:
//!    one data-loading stage, many shift buffers). The paper first plants
//!    a placeholder load per field and later fuses them into
//!    the real call, because an xDSL rewrite pattern sees one
//!    `stencil.load` at a time and cannot know the full field list when it
//!    fires. This builder has every read field of a step in hand before it
//!    emits anything, so it writes the one call and there is nothing to
//!    replace.
//! 4. **Per-field compute stages** — one pipelined loop per
//!    `stencil.apply` result (multi-result applies must be split first,
//!    [`crate::split`]).
//! 5. **`stencil.access` → window extraction** — the shift buffer streams
//!    all `(2h+1)^rank` neighbour values; accesses become
//!    `llvm.extractvalue` at the flattened window position.
//! 6. **Result storage** — a single `write_data` stage drains the result
//!    streams into external memory in 512-bit chunks.
//! 7. *(folded into step 3.)*
//! 8. **Small data to local memory** — each `memref` argument is copied
//!    into a `memref.alloca` (BRAM) at kernel start, duplicated per
//!    consuming compute stage to respect the one-accessor dataflow rule.
//! 9. **AXI bundle assignment** — every field argument gets its own
//!    `m_axi` bundle (own HBM port); all small data shares one bundle;
//!    scalars ride the `s_axilite` control bundle.
//!
//! [`stencil_to_hls`] runs these as named phases: two that only read the
//! stencil function (`analyse_sources`, `plan_steps`) and leave an
//! `Analysis` and one `StepPlan` per temporal step, then the `Design`
//! builder's — `open` (steps 2, 8, 9), per temporal step `feed`, `shift`,
//! `dup` and `compute` (steps 3–5), and `write` (step 6) — each appending
//! its stages to the end of the new function's entry block, and last
//! `connectivity`: the design read back into its [`DesignDescriptor`],
//! whose wiring check is the stream-graph check. The names and operand
//! layouts of the runtime calls come from
//! [`shmls_dialects::hls::RuntimeKind`]; nothing here spells them.

use std::collections::BTreeMap;

use shmls_dialects::hls::{RuntimeCall, RuntimeKind};
use shmls_dialects::{arith, func, hls, llvm, memref, scf, stencil};
use shmls_fpga_sim::design::DesignDescriptor;
use shmls_ir::error::IrResult;
use shmls_ir::prelude::*;
use shmls_ir::{ir_bail, ir_ensure, ir_error};

use crate::classify::{classify_args, ArgClass, Classification};
use crate::shift_buffer::{offset_to_window_pos, shift_register_len, window_size};

/// Number of f64 lanes in a 512-bit beat.
pub const PACK_LANES: u64 = 8;

/// Options controlling the generated design.
#[derive(Debug, Clone)]
pub struct HmlsOptions {
    /// FIFO depth for element/result streams.
    pub stream_depth: i64,
    /// FIFO depth for window streams (deepened to decouple stages).
    pub window_stream_depth: i64,
    /// Target initiation interval for compute loops.
    pub ii: i64,
    /// Unroll factor for compute loops (1 = none). Each iteration then
    /// processes `unroll` points — the body is physically replicated, so
    /// resources scale with the factor (the §4 SODA-opt observation:
    /// unrolled pipelines can become "too large to fit within the U280").
    /// Factors that do not divide the interior point count fall back to 1.
    pub unroll: i64,
    /// Temporal-blocking depth (1 = no temporal blocking). The compute
    /// chain is replicated `temporal_depth` times: one sweep of the
    /// generated design advances that many timesteps, with each deeper
    /// step fed by a `halo_merge` seam stage (previous step's results over
    /// the interior, the constant halo ring from memory) instead of a full
    /// external-memory pass. Every step computes the full interior
    /// (overlapped computation); callers that need exact agreement with
    /// the iterated oracle on partitioned domains must extend the slab by
    /// `(depth-1)*halo` rows per internal side — `run_time_marched` does.
    pub temporal_depth: usize,
}

impl Default for HmlsOptions {
    fn default() -> Self {
        Self {
            stream_depth: 8,
            window_stream_depth: 8,
            ii: 1,
            unroll: 1,
            temporal_depth: 1,
        }
    }
}

/// Summary of the generated design, used by tests and fed (via the IR) to
/// the simulator's resource and performance models.
#[derive(Debug, Clone, Default)]
pub struct HmlsReport {
    /// Input (read) field count.
    pub inputs: usize,
    /// Output (written) field count.
    pub outputs: usize,
    /// Compute stages generated (one per stencil field — step 4).
    pub compute_stages: usize,
    /// Stream-duplication stages generated.
    pub dup_stages: usize,
    /// Total streams created.
    pub streams: usize,
    /// Shift buffers (one per read field).
    pub shift_buffers: usize,
    /// Shift-register length per shift buffer (elements).
    pub shift_register_lens: Vec<i64>,
    /// Window size (elements per window).
    pub window_elems: usize,
    /// Local BRAM copies of small data (step 8), as (param-arg-index,
    /// elements) pairs — one per consuming stage.
    pub local_copies: Vec<(usize, i64)>,
    /// AXI bundle per function argument (step 9).
    pub bundles: Vec<String>,
    /// Dead compute stages pruned before construction: applies whose
    /// result is never stored and never feeds a live apply. Left in, each
    /// would push to a consumer-less stream and deadlock the design.
    pub pruned_stages: usize,
    /// Temporal depth the design was built for.
    pub temporal_depth: usize,
    /// `halo_merge` seam stages generated (one per fed field per step > 1).
    pub merge_stages: usize,
}

/// Result of the transformation.
#[derive(Debug)]
pub struct HmlsOutput {
    /// The generated `func.func` (named `<kernel>_hls`).
    pub func: OpId,
    /// Design summary.
    pub report: HmlsReport,
    /// The design as every model and engine reads it — stages, streams and
    /// their wiring — extracted from `func` once, here.
    pub design: DesignDescriptor,
    /// Wall-clock telemetry: `"stencil-to-hls"` (analysis + dataflow
    /// construction) and `"connectivity"` (the extraction, whose wiring
    /// check is the stream-graph verification).
    pub timings: Timings,
}

/// The 512-bit packed pointer type used for field interfaces (step 2).
pub fn packed_field_type() -> Type {
    Type::llvm_ptr(Type::LlvmStruct(vec![Type::llvm_array(
        PACK_LANES,
        Type::F64,
    )]))
}

/// Where an apply operand comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    /// Window stream of the field bound to function argument `arg`.
    FieldWindow { arg: usize },
    /// Result stream of an earlier apply (index into the apply list).
    Producer { apply: usize },
    /// Small-data argument `arg` (read from the stage-local BRAM copy).
    Param { arg: usize },
    /// Scalar constant argument `arg`.
    Const { arg: usize },
}

/// Per-apply analysis results.
struct ApplyInfo {
    op: OpId,
    /// Source of each operand.
    sources: Vec<Source>,
    /// Function-arg index this apply's result is stored to, if any.
    stored_to: Option<usize>,
    /// Interior bounds of the result.
    interior: StencilBounds,
}

/// Apply the full Stencil-HMLS transformation to `stencil_func`, emitting
/// the HLS-dialect kernel next to it in the same module.
pub fn stencil_to_hls(
    ctx: &mut Context,
    stencil_func: OpId,
    opts: &HmlsOptions,
) -> IrResult<HmlsOutput> {
    let mut timings = Timings::new();
    let mut stopwatch = Stopwatch::start();

    let kernel = analyse_sources(ctx, stencil_func)?;
    let steps = plan_steps(&kernel, opts.temporal_depth)?;

    // Streams and stages, one step of the temporal chain at a time. Each
    // phase appends in program order (feed → shift → dup → compute), so
    // the entry block remains a topologically ordered Kahn network and the
    // executor's sequential schedule can run stages to completion in
    // order. Step 1 is exactly the single-step design.
    let mut design = Design::open(ctx, &kernel, &steps, opts)?;
    for step in 0..steps.len() {
        design.feed(step)?;
        design.shift(step);
        design.dup(step);
        design.compute(step)?;
    }
    design.write()?;
    let (hls_func, report) = (design.func, design.report);

    // The generated design must be a well-formed Kahn network: every
    // stream fed and drained. Anything else would deadlock at runtime, so
    // the extraction (`check_wiring`) refuses it.
    stopwatch.lap(&mut timings, "stencil-to-hls");
    let descriptor =
        DesignDescriptor::from_hls_func(ctx, hls_func).map_err(|e| e.context("connectivity"))?;
    stopwatch.lap(&mut timings, "connectivity");

    Ok(HmlsOutput {
        func: hls_func,
        report,
        design: descriptor,
        timings,
    })
}

// ---- analysis ---------------------------------------------------------------

/// What the analysis learns about the stencil function. The construction
/// phases only read it.
struct Analysis {
    name: String,
    /// The module block the new function is appended to.
    module_body: BlockId,
    /// Entry-block arguments of the stencil function.
    old_args: Vec<ValueId>,
    classification: Classification,
    applies: Vec<ApplyInfo>,
    /// `live[i]`: apply `i` is stored or feeds a stored apply. Dead applies
    /// must not become compute stages: each would push to a result stream
    /// with no consumer, fill it, block, and back-pressure its window dup —
    /// deadlocking the whole design under bounded FIFOs.
    live: Vec<bool>,
    /// Interior bounds every compute stage loops over.
    interior: StencilBounds,
    /// Extents of the halo-padded box every field occupies.
    bounded_extents: Vec<i64>,
    halo: i64,
    /// Feedback pairing, mirroring `scale::feedback_pairs` (declaration
    /// order): an inout field feeds itself; the k-th pure output feeds the
    /// k-th pure input. `pair_out_of[in_arg]` names the output arg whose
    /// step-s result becomes `in_arg`'s step-(s+1) value.
    pair_out_of: BTreeMap<usize, usize>,
    /// `(field arg, apply whose result is stored to it)`, sorted.
    stored: Vec<(usize, usize)>,
}

/// Phase 1: trace every apply operand to where its values come from, find
/// what is stored where, and derive the geometry all stages share.
fn analyse_sources(ctx: &Context, stencil_func: OpId) -> IrResult<Analysis> {
    let classification = classify_args(ctx, stencil_func)?;
    let entry = ctx
        .entry_block(stencil_func)
        .expect("classified func has a body");
    let old_args = ctx.block_args(entry).to_vec();
    let name = func::func_name(ctx, stencil_func)
        .ok_or_else(|| ir_error!("stencil function has no name"))?
        .to_string();
    let module_body = ctx
        .parent_block(stencil_func)
        .ok_or_else(|| ir_error!("stencil function is detached"))?;

    let applies = trace_applies(ctx, stencil_func, entry, &name, &classification)?;
    let stored = applies.iter().map(|a| a.stored_to.is_some()).collect();
    let live = close_over_producers(&applies, stored);
    let first_live = live.iter().position(|&l| l).ok_or_else(|| {
        ir_error!("stencil_to_hls: kernel stores no results — every compute stage is dead")
    })?;
    let interior = applies[first_live].interior.clone();

    let fields = classification.fields();
    let bounds_of = |f: usize| {
        ctx.value_type(old_args[f])
            .stencil_bounds()
            .ok_or_else(|| ir_error!("field arg without bounds"))
    };
    let first_field = *fields
        .first()
        .ok_or_else(|| ir_error!("kernel has no fields"))?;
    let bounded = bounds_of(first_field)?;
    // Halo derivation below assumes a single uniform field geometry (the
    // frontend guarantees it; hand-written IR through compile_stencil_ir
    // must satisfy it too).
    for &f in &fields {
        let b = bounds_of(f)?;
        ir_ensure!(
            b == bounded,
            "field arguments have differing bounds ({b} vs {bounded}); \
             uniform field geometry is required"
        );
    }

    let inouts = classification.indices_of(ArgClass::FieldInOut);
    let outs = classification.indices_of(ArgClass::FieldOutput);
    let ins = classification.indices_of(ArgClass::FieldInput);
    let pair_out_of = inouts
        .iter()
        .map(|&io| (io, io))
        .chain(ins.into_iter().zip(outs))
        .collect();
    let mut stored: Vec<(usize, usize)> = applies
        .iter()
        .enumerate()
        .filter_map(|(i, info)| info.stored_to.map(|arg| (arg, i)))
        .collect();
    stored.sort_unstable();

    Ok(Analysis {
        name,
        module_body,
        halo: interior.lb[0] - bounded.lb[0],
        bounded_extents: bounded.extents(),
        interior,
        old_args,
        classification,
        applies,
        live,
        pair_out_of,
        stored,
    })
}

/// The function's applies in program order, each operand traced to its
/// [`Source`] and each result to the field it is stored to.
fn trace_applies(
    ctx: &Context,
    stencil_func: OpId,
    entry: BlockId,
    name: &str,
    classification: &Classification,
) -> IrResult<Vec<ApplyInfo>> {
    let applies: Vec<OpId> = ctx
        .block_ops(entry)
        .iter()
        .copied()
        .filter(|&o| ctx.op_name(o) == stencil::APPLY)
        .collect();
    ir_ensure!(
        !applies.is_empty(),
        "stencil_to_hls: no stencil.apply in `{name}`"
    );
    for &a in &applies {
        ir_ensure!(
            ctx.results(a).len() == 1,
            "stencil_to_hls: multi-result stencil.apply found; run split_applies first"
        );
    }
    let old_args = ctx.block_args(entry);
    let arg_index = |v: ValueId| old_args.iter().position(|&a| a == v);

    // stencil.load result -> field arg index
    let mut load_of: BTreeMap<ValueId, usize> = BTreeMap::new();
    for l in ctx.find_ops(stencil_func, stencil::LOAD) {
        if let Some(arg) = arg_index(ctx.operands(l)[0]) {
            load_of.insert(ctx.result(l, 0), arg);
        }
    }
    // apply result -> apply index
    let result_of: BTreeMap<ValueId, usize> = applies
        .iter()
        .enumerate()
        .map(|(i, &a)| (ctx.result(a, 0), i))
        .collect();
    // apply index -> stored field arg
    let mut stored_to: BTreeMap<usize, usize> = BTreeMap::new();
    for s in ctx.find_ops(stencil_func, stencil::STORE) {
        let (temp, field) = (ctx.operands(s)[0], ctx.operands(s)[1]);
        if let (Some(&apply_idx), Some(arg)) = (result_of.get(&temp), arg_index(field)) {
            stored_to.insert(apply_idx, arg);
        }
    }

    let mut infos = Vec::with_capacity(applies.len());
    for (i, &a) in applies.iter().enumerate() {
        let mut sources = Vec::new();
        for &operand in ctx.operands(a) {
            let src = if let Some(&arg) = load_of.get(&operand) {
                Source::FieldWindow { arg }
            } else if let Some(&apply) = result_of.get(&operand) {
                ir_ensure!(apply < i, "apply operand from a later apply");
                Source::Producer { apply }
            } else if let Some(arg) = arg_index(operand) {
                match classification.classes[arg] {
                    ArgClass::SmallData => Source::Param { arg },
                    ArgClass::Scalar => Source::Const { arg },
                    other => ir_bail!("direct apply operand of class {other:?}"),
                }
            } else {
                ir_bail!("cannot trace apply operand to a source")
            };
            sources.push(src);
        }
        let interior = ctx
            .value_type(ctx.result(a, 0))
            .stencil_bounds()
            .ok_or_else(|| ir_error!("apply result is not a stencil temp"))?
            .clone();
        infos.push(ApplyInfo {
            op: a,
            sources,
            stored_to: stored_to.get(&i).copied(),
            interior,
        });
    }
    Ok(infos)
}

/// The one liveness walk: starting from `live`, mark every apply a live
/// apply reads from. Back-to-front works because producers precede their
/// consumers in the apply list. Seeded with the stored applies it is the
/// base pruning; seeded with the applies the next temporal step reads, a
/// step's liveness.
fn close_over_producers(applies: &[ApplyInfo], mut live: Vec<bool>) -> Vec<bool> {
    for i in (0..applies.len()).rev() {
        if live[i] {
            for src in &applies[i].sources {
                if let Source::Producer { apply } = *src {
                    live[apply] = true;
                }
            }
        }
    }
    live
}

/// What one step of the temporal chain builds. Streams, shift buffers and
/// the feed stages are demand-driven: only fields some live apply actually
/// reads get them (a declared-but-unused input would otherwise feed a
/// window stream nobody drains — a guaranteed deadlock under bounded
/// FIFOs).
struct StepPlan {
    /// Applies that become compute stages at this step.
    live: Vec<bool>,
    /// Field arg -> number of live applies reading its window stream; the
    /// keys are the fields the step reads.
    window_consumers: BTreeMap<usize, usize>,
    /// Apply -> number of consumers of its result stream: same-step
    /// applies, plus `write_data` (final step) or the next step's seam.
    result_consumers: BTreeMap<usize, usize>,
}

impl StepPlan {
    fn read_fields(&self) -> Vec<usize> {
        self.window_consumers.keys().copied().collect()
    }
}

/// Phase 2: liveness and consumer counts per temporal step.
///
/// The final step is the base-pruned design. An apply at an earlier step
/// is live iff its stored field feeds — through the declaration-order
/// pairing — a field some live apply reads one step later (via a
/// halo_merge seam), or it feeds a live same-step consumer. Dead
/// earlier-step stages are dropped for the same reason as base pruning.
fn plan_steps(k: &Analysis, depth: usize) -> IrResult<Vec<StepPlan>> {
    ir_ensure!(
        depth >= 1,
        "stencil_to_hls: temporal_depth must be at least 1 (got 0)"
    );
    // Built back-to-front (liveness flows backwards), then reversed.
    let mut steps: Vec<StepPlan> = Vec::with_capacity(depth);
    for _ in 0..depth {
        let next = steps.last();
        let feeds_next = |info: &ApplyInfo| {
            let mut read_next = next.iter().flat_map(|n| n.window_consumers.keys());
            info.stored_to
                .is_some_and(|out| read_next.any(|f| k.pair_out_of.get(f) == Some(&out)))
        };
        let live = match next {
            None => k.live.clone(),
            Some(_) => close_over_producers(&k.applies, k.applies.iter().map(feeds_next).collect()),
        };
        let mut window_consumers: BTreeMap<usize, usize> = BTreeMap::new();
        let mut result_consumers: BTreeMap<usize, usize> = BTreeMap::new();
        for (i, info) in k.applies.iter().enumerate().filter(|&(i, _)| live[i]) {
            for src in &info.sources {
                match *src {
                    Source::FieldWindow { arg } => *window_consumers.entry(arg).or_default() += 1,
                    Source::Producer { apply } => *result_consumers.entry(apply).or_default() += 1,
                    _ => {}
                }
            }
            // Final-step results drain to write_data, earlier ones to the
            // next step's halo_merge seam.
            if info.stored_to.is_some() && (next.is_none() || feeds_next(info)) {
                *result_consumers.entry(i).or_default() += 1;
            }
        }
        steps.push(StepPlan {
            live,
            window_consumers,
            result_consumers,
        });
    }
    steps.reverse();
    Ok(steps)
}

// ---- construction -----------------------------------------------------------

/// `(step, field arg)` or `(step, apply)`.
type Key = (usize, usize);

/// The copies of stream `source`, handed out one per consumer; `source`
/// itself when it has no more than one.
#[derive(Clone)]
struct Copies {
    source: ValueId,
    streams: Vec<ValueId>,
    taken: usize,
}

/// Take the next unused copy of stream `key`.
fn take_copy(copies: &mut BTreeMap<Key, Copies>, key: Key) -> IrResult<ValueId> {
    let c = copies
        .get_mut(&key)
        .ok_or_else(|| ir_error!("no stream copies for key {key:?}"))?;
    let v = *c
        .streams
        .get(c.taken)
        .ok_or_else(|| ir_error!("stream copies for key {key:?} exhausted"))?;
    c.taken += 1;
    Ok(v)
}

/// The design under construction: the new function, the streams created
/// so far and the report. Every phase appends at the end of `entry`.
struct Design<'a> {
    ctx: &'a mut Context,
    k: &'a Analysis,
    steps: &'a [StepPlan],
    opts: &'a HmlsOptions,
    func: OpId,
    entry: BlockId,
    args: Vec<ValueId>,
    report: HmlsReport,
    /// `(param arg, apply)` -> the apply's stage-local BRAM copy.
    local_for: BTreeMap<Key, ValueId>,
    elem_stream: BTreeMap<Key, ValueId>,
    window_stream: BTreeMap<Key, ValueId>,
    window_copies: BTreeMap<Key, Copies>,
    result_copies: BTreeMap<Key, Copies>,
}

impl<'a> Design<'a> {
    /// Steps 2, 9 and 8: the new function's signature, its AXI bundles and
    /// the local copies of small data.
    fn open(
        ctx: &'a mut Context,
        k: &'a Analysis,
        steps: &'a [StepPlan],
        opts: &'a HmlsOptions,
    ) -> IrResult<Self> {
        let classes = &k.classification.classes;
        // Step 2: packed field pointers.
        let input_types = k
            .old_args
            .iter()
            .zip(classes)
            .map(|(&arg, class)| match class {
                c if c.is_field() => packed_field_type(),
                _ => ctx.value_type(arg).clone(),
            })
            .collect();
        let hls_name = format!("{}_hls", k.name);
        let (func, entry) = func::create_func(ctx, k.module_body, &hls_name, input_types, vec![]);
        let args = ctx.block_args(entry).to_vec();
        let mut report = HmlsReport {
            inputs: steps[steps.len() - 1].window_consumers.len(),
            outputs: k.classification.written_fields().len(),
            window_elems: window_size(k.interior.rank(), k.halo),
            pruned_stages: k.live.iter().filter(|&&l| !l).count(),
            temporal_depth: steps.len(),
            ..HmlsReport::default()
        };

        // Step 9: AXI bundle assignment.
        let mut b = OpBuilder::at_block_end(ctx, entry);
        let mut gmem = 0usize;
        for (&arg, class) in args.iter().zip(classes) {
            let (protocol, bundle) = match class {
                c if c.is_field() => {
                    gmem += 1;
                    (hls::AXI4, format!("gmem{}", gmem - 1))
                }
                ArgClass::SmallData => (hls::AXI4, "gmem_small".to_string()),
                _ => ("s_axilite", "control".to_string()),
            };
            hls::interface(&mut b, arg, protocol, &bundle);
            report.bundles.push(bundle);
        }

        // Step 8: local BRAM copies of small data, one per consuming stage.
        let mut local_for = BTreeMap::new();
        for (i, info) in k.applies.iter().enumerate().filter(|&(i, _)| k.live[i]) {
            for src in &info.sources {
                let Source::Param { arg } = *src else {
                    continue;
                };
                if local_for.contains_key(&(arg, i)) {
                    continue;
                }
                let Type::MemRef { shape, elem } = b.ctx_ref().value_type(args[arg]).clone() else {
                    ir_bail!("small data argument is not a memref");
                };
                let local = memref::alloca(&mut b, shape.clone(), *elem);
                let copy = RuntimeCall {
                    kind: RuntimeKind::CopySmallData,
                    pointers: &[args[arg], local],
                    consumed: &[],
                    produced: &[],
                    extents: shape,
                    halo: 0,
                };
                hls::runtime_call(&mut b, &copy);
                local_for.insert((arg, i), local);
                report
                    .local_copies
                    .push((arg, copy.extents.iter().product()));
            }
        }

        Ok(Design {
            ctx,
            k,
            steps,
            opts,
            func,
            entry,
            args,
            report,
            local_for,
            elem_stream: BTreeMap::new(),
            window_stream: BTreeMap::new(),
            window_copies: BTreeMap::new(),
            result_copies: BTreeMap::new(),
        })
    }

    /// Append one stream to the entry block.
    fn stream(&mut self, elem: Type, depth: i64) -> ValueId {
        self.report.streams += 1;
        hls::create_stream(
            &mut OpBuilder::at_block_end(self.ctx, self.entry),
            elem,
            depth,
        )
    }

    /// Append the dataflow stage that is one runtime call, over the box
    /// that call walks: the interior for `write_data`, the halo-padded
    /// field for the rest.
    fn runtime_stage(
        &mut self,
        kind: RuntimeKind,
        pointers: &[ValueId],
        consumed: &[ValueId],
        produced: &[ValueId],
    ) {
        let extents = match kind {
            RuntimeKind::WriteData => self.k.interior.extents(),
            _ => self.k.bounded_extents.clone(),
        };
        let call = RuntimeCall {
            kind,
            pointers,
            consumed,
            produced,
            extents,
            halo: self.k.halo,
        };
        let (_stage, body) = hls::dataflow(&mut OpBuilder::at_block_end(self.ctx, self.entry));
        hls::runtime_call(&mut OpBuilder::at_block_end(self.ctx, body), &call);
    }

    /// Step 3: the step's element and window streams, and the stages that
    /// fill the element streams. A deeper step's feedback-paired fields
    /// come from the previous step's results through a `halo_merge` seam;
    /// every other field — all of them at the first step — from the step's
    /// one `load_data` stage (a loader shared across steps would block on
    /// the deeper step's bounded FIFOs and starve the shallower one).
    fn feed(&mut self, s: usize) -> IrResult<()> {
        let k = self.k;
        let fields = self.steps[s].read_fields();
        for &f in &fields {
            let es = self.stream(Type::F64, self.opts.stream_depth);
            self.elem_stream.insert((s, f), es);
        }
        let window_ty = Type::LlvmStruct(vec![Type::llvm_array(
            self.report.window_elems as u64,
            Type::F64,
        )]);
        for &f in &fields {
            let ws = self.stream(window_ty.clone(), self.opts.window_stream_depth);
            self.window_stream.insert((s, f), ws);
        }
        let mut loaded: Vec<usize> = Vec::new();
        for &f in &fields {
            let Some(&out_arg) = k.pair_out_of.get(&f).filter(|_| s > 0) else {
                loaded.push(f);
                continue;
            };
            let mut storers = k.stored.iter().rev();
            let &(_, producer) = storers
                .find(|&&(arg, _)| arg == out_arg)
                .ok_or_else(|| ir_error!("paired output arg {out_arg} has no storing apply"))?;
            let src = take_copy(&mut self.result_copies, (s - 1, producer))?;
            let out = self.elem_stream[&(s, f)];
            self.runtime_stage(
                RuntimeKind::HaloMerge,
                &[self.args[out_arg]],
                &[src],
                &[out],
            );
            self.report.merge_stages += 1;
        }
        if !loaded.is_empty() {
            let ptrs: Vec<ValueId> = loaded.iter().map(|&f| self.args[f]).collect();
            let streams: Vec<ValueId> = loaded.iter().map(|f| self.elem_stream[&(s, *f)]).collect();
            self.runtime_stage(RuntimeKind::LoadData, &ptrs, &[], &streams);
        }
        Ok(())
    }

    /// One shift buffer per read field: element stream → window stream.
    fn shift(&mut self, s: usize) {
        for f in self.steps[s].read_fields() {
            let (elems, windows) = (self.elem_stream[&(s, f)], self.window_stream[&(s, f)]);
            self.runtime_stage(RuntimeKind::ShiftBuffer, &[], &[elems], &[windows]);
            self.report.shift_buffers += 1;
            self.report
                .shift_register_lens
                .push(shift_register_len(&self.k.bounded_extents, self.k.halo));
        }
    }

    /// Result streams, and duplication (Listing 4's stream-copy region):
    /// one copy of each window/result stream per consumer. Copies (streams)
    /// are created up front; the dup *stages* are placed so they follow
    /// their producer in program order — window dups right here (after the
    /// shift buffers), result dups after each compute stage in `compute`.
    fn dup(&mut self, s: usize) {
        let step = &self.steps[s];
        let live = (0..self.k.applies.len()).filter(|&i| step.live[i]);
        let results: Vec<(usize, ValueId)> = live
            .map(|i| (i, self.stream(Type::F64, self.opts.stream_depth)))
            .collect();
        for (&f, &consumers) in &step.window_consumers {
            let depth = self.opts.window_stream_depth;
            let copies = self.stream_copies(self.window_stream[&(s, f)], consumers, depth);
            self.dup_stage(&copies);
            self.window_copies.insert((s, f), copies);
        }
        for (i, source) in results {
            let consumers = step.result_consumers.get(&i).copied().unwrap_or(0);
            let copies = self.stream_copies(source, consumers, self.opts.stream_depth);
            self.result_copies.insert((s, i), copies);
        }
    }

    /// Steps 4 + 5: one compute stage per live apply, each immediately
    /// followed by the duplication stage for its result stream when it
    /// has several consumers.
    fn compute(&mut self, s: usize) -> IrResult<()> {
        let step = &self.steps[s];
        for i in (0..self.k.applies.len()).filter(|&i| step.live[i]) {
            self.compute_stage(s, i)?;
            self.report.compute_stages += 1;
            let copies = self.result_copies[&(s, i)].clone();
            self.dup_stage(&copies);
        }
        Ok(())
    }

    /// Step 6: a single write_data stage draining the FINAL step's results
    /// — intermediate steps live entirely on-chip.
    fn write(&mut self) -> IrResult<()> {
        let last = self.steps.len() - 1;
        let mut streams = Vec::new();
        let mut ptrs = Vec::new();
        for &(arg, apply) in &self.k.stored {
            streams.push(take_copy(&mut self.result_copies, (last, apply))?);
            ptrs.push(self.args[arg]);
        }
        self.runtime_stage(RuntimeKind::WriteData, &ptrs, &streams, &[]);
        func::ret(&mut OpBuilder::at_block_end(self.ctx, self.entry), vec![]);
        Ok(())
    }

    /// Create `consumers` copy streams of `source`, as deep as it (when
    /// more than one consumer needs it); with zero or one consumer the
    /// source itself is the single "copy". Stream creation happens at the
    /// current end of the entry block so the values dominate every later
    /// stage.
    fn stream_copies(&mut self, source: ValueId, consumers: usize, depth: i64) -> Copies {
        let mut streams = vec![source];
        if consumers > 1 {
            let elem = self.ctx.value_type(source).element_type();
            let elem = elem.expect("copies are made of streams").clone();
            streams = (0..consumers)
                .map(|_| self.stream(elem.clone(), depth))
                .collect();
        }
        Copies {
            source,
            streams,
            taken: 0,
        }
    }

    /// Append the dataflow stage that fans a stream out into its copies
    /// (Listing 4's stream-duplication region), unless it is its own single
    /// copy. Must be placed after the stage producing the stream in program
    /// order.
    fn dup_stage(&mut self, copies: &Copies) {
        if copies.streams.len() <= 1 {
            return;
        }
        let trips = self.k.interior.num_points();
        let (_for_op, loop_body) = self.stage_loop(trips);
        let mut b = OpBuilder::at_block_end(self.ctx, loop_body);
        hls::pipeline(&mut b, self.opts.ii);
        let v = hls::read(&mut b, copies.source);
        for &c in &copies.streams {
            hls::write(&mut b, v, c);
        }
        scf::yield_op(&mut b, vec![]);
        self.report.dup_stages += 1;
    }

    /// Append a dataflow stage holding one `0..trips` loop; returns the
    /// loop and its (still empty) body.
    fn stage_loop(&mut self, trips: i64) -> (OpId, BlockId) {
        let (_stage, body) = hls::dataflow(&mut OpBuilder::at_block_end(self.ctx, self.entry));
        let mut b = OpBuilder::at_block_end(self.ctx, body);
        let lb = arith::constant_index(&mut b, 0);
        let ub = arith::constant_index(&mut b, trips);
        let step = arith::constant_index(&mut b, 1);
        scf::for_loop(&mut b, lb, ub, step, vec![])
    }

    /// Build one compute stage: a pipelined loop over the interior that
    /// reads its input streams, evaluates the cloned stencil body, and
    /// writes the result stream.
    fn compute_stage(&mut self, s: usize, apply_idx: usize) -> IrResult<()> {
        let info = &self.k.applies[apply_idx];
        // The stream feeding each operand (window or producer element).
        let mut operand_stream: Vec<Option<ValueId>> = Vec::with_capacity(info.sources.len());
        for src in &info.sources {
            operand_stream.push(match *src {
                Source::FieldWindow { arg } => Some(take_copy(&mut self.window_copies, (s, arg))?),
                Source::Producer { apply } => Some(take_copy(&mut self.result_copies, (s, apply))?),
                Source::Param { .. } | Source::Const { .. } => None,
            });
        }
        let n_points = self.k.interior.num_points();
        let unroll = if self.opts.unroll > 1 && n_points % self.opts.unroll == 0 {
            self.opts.unroll
        } else {
            1
        };
        let (for_op, loop_body) = self.stage_loop(n_points / unroll);
        let lin = scf::induction_var(self.ctx, for_op);
        let mut b = OpBuilder::at_block_end(self.ctx, loop_body);
        hls::pipeline(&mut b, self.opts.ii);
        if unroll > 1 {
            hls::unroll(&mut b, unroll);
        }

        let src_block = self.ctx.entry_block(info.op).expect("apply body");
        let src_args = self.ctx.block_args(src_block).to_vec();
        let needs_index = !self.ctx.find_ops(info.op, stencil::INDEX).is_empty();
        let out = self.result_copies[&(s, apply_idx)].source;

        // One physically replicated point-computation per unroll step.
        for u in 0..unroll {
            // Per-step stream reads: window packs / producer elements.
            // `subst` maps the apply body's values to the stage's.
            let mut window_value: BTreeMap<ValueId, ValueId> = BTreeMap::new();
            let mut scalar_value: BTreeMap<ValueId, ValueId> = BTreeMap::new();
            let mut subst: IdMap<ValueId, ValueId> = IdMap::default();
            let mut b = OpBuilder::at_block_end(self.ctx, loop_body);
            for ((src, &stream), &src_arg) in
                info.sources.iter().zip(&operand_stream).zip(&src_args)
            {
                match *src {
                    Source::FieldWindow { .. } => {
                        let w = hls::read(&mut b, stream.expect("window stream"));
                        window_value.insert(src_arg, w);
                    }
                    Source::Producer { .. } => {
                        let v = hls::read(&mut b, stream.expect("producer stream"));
                        scalar_value.insert(src_arg, v);
                    }
                    Source::Param { arg } => {
                        subst.insert(src_arg, self.local_for[&(arg, apply_idx)]);
                    }
                    Source::Const { arg } => {
                        scalar_value.insert(src_arg, self.args[arg]);
                    }
                }
            }
            subst.extend(scalar_value.iter().map(|(&k, &v)| (k, v)));
            let axis_index = if needs_index {
                self.point_index(loop_body, lin, unroll, u)
            } else {
                Vec::new()
            };
            let point = PointValues {
                window_value,
                scalar_value,
                axis_index,
            };
            self.clone_body(src_block, loop_body, out, &point, subst)?;
        }
        scf::yield_op(&mut OpBuilder::at_block_end(self.ctx, loop_body), vec![]);
        Ok(())
    }

    /// Reconstruct the multi-dimensional index of a point from the linear
    /// induction variable (point = lin * unroll + u).
    fn point_index(
        &mut self,
        loop_body: BlockId,
        lin: ValueId,
        unroll: i64,
        u: i64,
    ) -> Vec<ValueId> {
        let extents = self.k.interior.extents();
        let rank = extents.len();
        let mut b = OpBuilder::at_block_end(self.ctx, loop_body);
        let point = if unroll == 1 {
            lin
        } else {
            let factor = arith::constant_index(&mut b, unroll);
            let scaled = arith::muli(&mut b, lin, factor);
            let off = arith::constant_index(&mut b, u);
            arith::addi(&mut b, scaled, off)
        };
        // Row-major: last dim fastest.
        let mut divisors = vec![1i64; rank];
        for d in (0..rank.saturating_sub(1)).rev() {
            divisors[d] = divisors[d + 1] * extents[d + 1];
        }
        (0..rank)
            .map(|d| {
                let div = arith::constant_index(&mut b, divisors[d]);
                let q = arith::divsi(&mut b, point, div);
                if d == 0 {
                    q
                } else {
                    let ext = arith::constant_index(&mut b, extents[d]);
                    arith::remsi(&mut b, q, ext)
                }
            })
            .collect()
    }

    /// Step 5: clone the apply body `src_block` into `loop_body` for one
    /// point, with accesses, indices and the return substituted.
    fn clone_body(
        &mut self,
        src_block: BlockId,
        loop_body: BlockId,
        out: ValueId,
        point: &PointValues,
        mut subst: IdMap<ValueId, ValueId>,
    ) -> IrResult<()> {
        let ctx = &mut *self.ctx;
        for op in ctx.block_ops(src_block).to_vec() {
            match ctx.op_name(op) {
                stencil::ACCESS => {
                    let operand = ctx.operands(op)[0];
                    let offset = stencil::access_offset(ctx, op)
                        .ok_or_else(|| ir_error!("access without offset"))?
                        .to_vec();
                    let result = ctx.result(op, 0);
                    if let Some(&wv) = point.window_value.get(&operand) {
                        let pos = offset_to_window_pos(&offset, self.k.halo);
                        let mut b = OpBuilder::at_block_end(ctx, loop_body);
                        let e = llvm::extractvalue(&mut b, wv, &[0, pos as i64], Type::F64);
                        subst.insert(result, e);
                    } else if let Some(&sv) = point.scalar_value.get(&operand) {
                        ir_ensure!(
                            offset.iter().all(|&o| o == 0),
                            "producer-temp access at non-zero offset {offset:?}"
                        );
                        subst.insert(result, sv);
                    } else {
                        ir_bail!("stencil.access on unmapped operand");
                    }
                }
                stencil::INDEX => {
                    let dim = ctx
                        .attr(op, "dim")
                        .and_then(Attribute::as_int)
                        .ok_or_else(|| ir_error!("stencil.index without dim"))?
                        as usize;
                    subst.insert(ctx.result(op, 0), point.axis_index[dim]);
                }
                stencil::RETURN => {
                    // The returned value may be a cloned body value, a
                    // scalar block argument (const operand / producer
                    // element), or — for constant kernels — nothing local.
                    let v = ctx.operands(op)[0];
                    let mapped = subst.get(&v).copied().unwrap_or(v);
                    hls::write(&mut OpBuilder::at_block_end(ctx, loop_body), mapped, out);
                }
                _ => {
                    // `clone_op` records the clone's results in `subst`.
                    let cloned = ctx.clone_op(op, &mut subst);
                    ctx.append_op(loop_body, cloned);
                }
            }
        }
        Ok(())
    }
}

/// The values one replicated point-computation reads its operands from.
struct PointValues {
    /// Apply block argument -> the window pack read for it.
    window_value: BTreeMap<ValueId, ValueId>,
    /// Apply block argument -> producer element or scalar constant.
    scalar_value: BTreeMap<ValueId, ValueId>,
    /// Per-axis index of the point, when the body asks for it.
    axis_index: Vec<ValueId>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmls_dialects::builtin::create_module;
    use shmls_fpga_sim::threaded::{execute, Outcome, Schedule};
    use shmls_frontend::{lower_kernel, parse_kernel};
    use shmls_ir::interp::{Buffer, Machine, NoExtern, RtValue, Store};
    use shmls_ir::verifier::verify_with;

    /// Run `func` on the executor's sequential schedule: the final store,
    /// the elements pushed into each stream and the beats moved.
    fn run_sequential<'d>(
        ctx: &'d Context,
        module: OpId,
        func: &str,
        setup: impl FnOnce(&mut Store<'d>) -> Vec<RtValue>,
    ) -> (Store<'d>, Vec<u64>, u64) {
        match execute(ctx, module, func, setup, Schedule::Sequential).unwrap() {
            Outcome::Completed {
                store,
                streams,
                mem_beats,
            } => (store, streams, mem_beats),
            Outcome::Deadlock { report } => panic!("{report}"),
        }
    }

    const LAPLACE: &str = r#"
kernel laplace {
  grid(8, 6)
  halo 1
  field a : input
  field b : output
  const w
  compute b {
    b = w * (a[-1,0] + a[1,0] + a[0,-1] + a[0,1] - 4.0 * a[0,0])
  }
}
"#;

    const MULTI: &str = r#"
kernel multi {
  grid(6, 5, 4)
  halo 1
  field u : input
  field v : input
  field su : output
  field sv : output
  param tz[k]
  const c
  compute su { su = c * (u[1,0,0] - u[-1,0,0]) + tz[k] * v[0,0,0] }
  compute sv { sv = v[0,1,0] + v[0,-1,0] + u[0,0,1] }
}
"#;

    const CHAIN: &str = r#"
kernel chain {
  grid(6)
  halo 1
  field a : input
  field t : temp
  field b : output
  field c : output
  compute t { t = 2.0 * a[0] }
  compute b { b = t[0] + a[1] }
  compute c { c = t[0] - a[-1] }
}
"#;

    /// Dataflow stages of `func` built around runtime function `kind`.
    fn count_stages(ctx: &Context, func: OpId, kind: RuntimeKind) -> usize {
        ctx.find_ops(func, hls::DATAFLOW)
            .into_iter()
            .filter(|&stage| hls::stage_kind(ctx, stage) == Some(kind))
            .count()
    }

    fn build(src: &str) -> (Context, OpId, HmlsOutput, shmls_frontend::KernelSignature) {
        let k = parse_kernel(src).unwrap();
        let mut ctx = Context::new();
        let (module, body) = create_module(&mut ctx);
        let lowered = lower_kernel(&mut ctx, body, &k).unwrap();
        let out = stencil_to_hls(&mut ctx, lowered.func, &HmlsOptions::default()).unwrap();
        (ctx, module, out, lowered.signature)
    }

    #[test]
    fn laplace_structure() {
        let (ctx, module, out, _sig) = build(LAPLACE);
        verify_with(&ctx, module, &shmls_dialects::registry()).unwrap();
        let r = &out.report;
        assert_eq!(r.inputs, 1);
        assert_eq!(r.outputs, 1);
        assert_eq!(r.compute_stages, 1);
        assert_eq!(r.dup_stages, 0);
        assert_eq!(r.window_elems, 9);
        assert_eq!(r.shift_buffers, 1);
        // Streams: 1 elem + 1 window + 1 result.
        assert_eq!(r.streams, 3);
        // The step's single load stage, emitted directly.
        assert_eq!(count_stages(&ctx, out.func, RuntimeKind::LoadData), 1);
        // Bundles: one gmem per field, control for the scalar.
        assert_eq!(
            r.bundles,
            vec!["gmem0".to_string(), "gmem1".into(), "control".into()]
        );
        // Pipeline directives request II = 1.
        for p in ctx.find_ops(module, shmls_dialects::hls::PIPELINE) {
            assert_eq!(shmls_dialects::hls::pipeline_ii(&ctx, p), Some(1));
        }
    }

    #[test]
    fn multi_field_structure() {
        let (ctx, module, out, _sig) = build(MULTI);
        verify_with(&ctx, module, &shmls_dialects::registry()).unwrap();
        let r = &out.report;
        assert_eq!(r.inputs, 2);
        assert_eq!(r.outputs, 2);
        assert_eq!(r.compute_stages, 2);
        assert_eq!(r.window_elems, 27);
        assert_eq!(r.shift_buffers, 2);
        // Both u's and v's windows feed both compute stages -> two dup
        // stages.
        assert_eq!(r.dup_stages, 2);
        // Small data local copy for the one consuming stage.
        assert_eq!(r.local_copies.len(), 1);
        // Bundles: 4 fields + small data + control.
        assert_eq!(
            r.bundles,
            vec![
                "gmem0".to_string(),
                "gmem1".into(),
                "gmem2".into(),
                "gmem3".into(),
                "gmem_small".into(),
                "control".into()
            ]
        );
    }

    #[test]
    fn chain_uses_producer_streams() {
        let (ctx, module, out, _sig) = build(CHAIN);
        verify_with(&ctx, module, &shmls_dialects::registry()).unwrap();
        let r = &out.report;
        assert_eq!(r.compute_stages, 3);
        // t feeds b and c -> result dup stage; a's window feeds all three
        // stages -> window dup stage.
        assert_eq!(r.dup_stages, 2);
        // t is consumed downstream: it must NOT be pruned as dead.
        assert_eq!(r.pruned_stages, 0);
        let _ = module;
    }

    const DEAD_TEMP: &str = r#"
kernel unused {
  grid(8)
  halo 1
  field a : input
  field t : temp
  field b : output
  compute t { t = 2.0 * a[0] }
  compute b { b = a[1] + a[-1] }
}
"#;

    #[test]
    fn dead_temp_stage_is_pruned() {
        // t is never stored and feeds nothing: left in, its result stream
        // would have no consumer and the design would deadlock.
        let (ctx, module, out, _sig) = build(DEAD_TEMP);
        verify_with(&ctx, module, &shmls_dialects::registry()).unwrap();
        let r = &out.report;
        assert_eq!(r.pruned_stages, 1);
        assert_eq!(r.compute_stages, 1);
        // With t gone, a's window feeds only b: no dup stage, and the
        // stream count matches a single-compute design (elem + window +
        // result).
        assert_eq!(r.dup_stages, 0);
        assert_eq!(r.streams, 3);
        // The generated design passes the wiring check (made inside
        // stencil_to_hls) and computes the right values.
        out.design.check_wiring().unwrap();
    }

    #[test]
    fn dead_temp_semantics_match() {
        check_equivalence(DEAD_TEMP, 424242);
    }

    #[test]
    fn all_dead_kernel_is_rejected() {
        // Every compute dead (nothing stored): the transform must refuse
        // rather than emit an empty design. The frontend cannot express
        // this (outputs are always stored), so drive the IR directly.
        let src = r#"
kernel nothing {
  grid(8)
  halo 1
  field a : input
  field t : temp
  field b : output
  compute t { t = 2.0 * a[0] }
  compute b { b = a[1] + a[-1] }
}
"#;
        let k = parse_kernel(src).unwrap();
        let mut ctx = Context::new();
        let (_module, body) = create_module(&mut ctx);
        let lowered = lower_kernel(&mut ctx, body, &k).unwrap();
        // Delete the stencil.store ops so nothing is live.
        for s in ctx.find_ops(lowered.func, stencil::STORE) {
            ctx.erase_op(s);
        }
        let e = stencil_to_hls(&mut ctx, lowered.func, &HmlsOptions::default()).unwrap_err();
        assert!(e.to_string().contains("every compute stage is dead"), "{e}");
    }

    /// Execute both paths and compare outputs exactly.
    fn check_equivalence(src: &str, seed: u64) {
        let k = parse_kernel(src).unwrap();
        let mut ctx = Context::new();
        let (module, body) = create_module(&mut ctx);
        let lowered = lower_kernel(&mut ctx, body, &k).unwrap();
        let _out = stencil_to_hls(&mut ctx, lowered.func, &HmlsOptions::default()).unwrap();
        verify_with(&ctx, module, &shmls_dialects::registry()).unwrap();

        let sig = &lowered.signature;
        let bounded = StencilBounds::from_extents(&sig.grid).grown(sig.halo);
        let mut next = seed;
        let mut rnd = move || {
            // xorshift-ish deterministic filler.
            next ^= next << 13;
            next ^= next >> 7;
            next ^= next << 17;
            (next % 1000) as f64 / 100.0 - 5.0
        };

        // Reference (pure stencil interpretation).
        let mut no = NoExtern;
        let mut ref_machine = Machine::new(&ctx, module, &mut no);
        // HLS path.
        let mut seed_values: Vec<Vec<f64>> = Vec::new();
        let mut ref_args = Vec::new();
        for arg in &sig.args {
            match arg {
                shmls_frontend::KernelArg::Field(_, _) => {
                    let mut buf = Buffer::zeroed(bounded.extents(), bounded.lb.clone());
                    let vals: Vec<f64> = (0..buf.data.len()).map(|_| rnd()).collect();
                    buf.data.copy_from_slice(&vals);
                    seed_values.push(vals);
                    ref_args.push(RtValue::MemRef(ref_machine.store.alloc(buf)));
                }
                shmls_frontend::KernelArg::Param(_, _, extent) => {
                    let mut buf = Buffer::zeroed(vec![*extent], vec![0]);
                    let vals: Vec<f64> = (0..buf.data.len()).map(|_| rnd()).collect();
                    buf.data.copy_from_slice(&vals);
                    seed_values.push(vals);
                    ref_args.push(RtValue::MemRef(ref_machine.store.alloc(buf)));
                }
                shmls_frontend::KernelArg::Const(_) => {
                    let v = rnd();
                    seed_values.push(vec![v]);
                    ref_args.push(RtValue::F64(v));
                }
            }
        }
        ref_machine.call(&sig.name, &ref_args).unwrap();
        let ref_store = std::mem::take(&mut ref_machine.store);
        drop(ref_machine);

        let hls_name = format!("{}_hls", sig.name);
        let (hls_store, streams, mem_beats) = run_sequential(&ctx, module, &hls_name, |store| {
            let mut args = Vec::new();
            let mut seeds = seed_values.iter();
            for arg in &sig.args {
                match arg {
                    shmls_frontend::KernelArg::Field(_, _) => {
                        let mut buf = Buffer::zeroed(bounded.extents(), bounded.lb.clone());
                        buf.data.copy_from_slice(seeds.next().unwrap());
                        args.push(RtValue::MemRef(store.alloc(buf)));
                    }
                    shmls_frontend::KernelArg::Param(_, _, extent) => {
                        let mut buf = Buffer::zeroed(vec![*extent], vec![0]);
                        buf.data.copy_from_slice(seeds.next().unwrap());
                        args.push(RtValue::MemRef(store.alloc(buf)));
                    }
                    shmls_frontend::KernelArg::Const(_) => {
                        args.push(RtValue::F64(seeds.next().unwrap()[0]));
                    }
                }
            }
            args
        });

        // Compare every output field buffer over the interior.
        let interior = StencilBounds::from_extents(&sig.grid);
        for (i, arg) in sig.args.iter().enumerate() {
            if let shmls_frontend::KernelArg::Field(name, kind) = arg {
                if matches!(
                    kind,
                    shmls_frontend::FieldKind::Output | shmls_frontend::FieldKind::InOut
                ) {
                    let r = ref_store.get(i).unwrap();
                    let h = hls_store.get(i).unwrap();
                    for p in shmls_ir::interp::iter_box(&interior.lb, &interior.ub) {
                        let rv = r.load(&p).unwrap();
                        let hv = h.load(&p).unwrap();
                        assert!(
                            (rv - hv).abs() < 1e-12,
                            "field `{name}` at {p:?}: stencil={rv} hls={hv}"
                        );
                    }
                }
            }
        }
        // Sanity: the HLS path actually moved data through streams.
        assert!(
            streams.len() >= 3,
            "expected streams, got {}",
            streams.len()
        );
        assert!(streams.iter().sum::<u64>() > 0);
        assert!(mem_beats > 0);
    }

    #[test]
    fn laplace_hls_matches_stencil_semantics() {
        check_equivalence(LAPLACE, 0xDEADBEEF);
    }

    #[test]
    fn multi_field_hls_matches_stencil_semantics() {
        check_equivalence(MULTI, 12345);
    }

    #[test]
    fn chain_hls_matches_stencil_semantics() {
        check_equivalence(CHAIN, 999);
    }

    #[test]
    fn unrolled_compute_matches_semantics() {
        // unroll = 4 divides the 8x6 interior; values must be identical.
        let k = parse_kernel(LAPLACE).unwrap();
        let mut ctx = Context::new();
        let (module, body) = create_module(&mut ctx);
        let lowered = lower_kernel(&mut ctx, body, &k).unwrap();
        let opts = HmlsOptions {
            unroll: 4,
            ..Default::default()
        };
        let out = stencil_to_hls(&mut ctx, lowered.func, &opts).unwrap();
        verify_with(&ctx, module, &shmls_dialects::registry()).unwrap();
        // Structure: 4 window reads and 4 result writes per iteration,
        // plus the hls.unroll directive.
        let hls_func = out.func;
        assert_eq!(ctx.find_ops(hls_func, shmls_dialects::hls::UNROLL).len(), 1);
        let compute_reads = ctx.find_ops(hls_func, shmls_dialects::hls::READ).len();
        assert_eq!(compute_reads, 4, "4 unrolled window reads");

        // Functional equivalence against the plain design.
        let mut ref_ctx = Context::new();
        let (ref_module, ref_body) = create_module(&mut ref_ctx);
        let ref_lowered = lower_kernel(&mut ref_ctx, ref_body, &k).unwrap();
        let _ = stencil_to_hls(&mut ref_ctx, ref_lowered.func, &HmlsOptions::default()).unwrap();

        let bounded = StencilBounds::from_extents(&k.grid).grown(k.halo);
        let fill = |store: &mut shmls_ir::interp::Store| -> Vec<RtValue> {
            let mut a = Buffer::zeroed(bounded.extents(), bounded.lb.clone());
            for (i, v) in a.data.iter_mut().enumerate() {
                *v = (i % 97) as f64 / 9.0;
            }
            let b = Buffer::zeroed(bounded.extents(), bounded.lb.clone());
            vec![
                RtValue::MemRef(store.alloc(a)),
                RtValue::MemRef(store.alloc(b)),
                RtValue::F64(0.2),
            ]
        };
        let (unrolled_store, _, _) = run_sequential(&ctx, module, "laplace_hls", fill);
        let (ref_store, _, _) = run_sequential(&ref_ctx, ref_module, "laplace_hls", fill);
        let a = unrolled_store.get(1).unwrap();
        let b = ref_store.get(1).unwrap();
        assert_eq!(
            a.data, b.data,
            "unrolled design must compute identical values"
        );
    }

    #[test]
    fn non_dividing_unroll_falls_back() {
        let k = parse_kernel(LAPLACE).unwrap(); // 8*6 = 48 points
        let mut ctx = Context::new();
        let (_module, body) = create_module(&mut ctx);
        let lowered = lower_kernel(&mut ctx, body, &k).unwrap();
        let opts = HmlsOptions {
            unroll: 7,
            ..Default::default()
        };
        let out = stencil_to_hls(&mut ctx, lowered.func, &opts).unwrap();
        assert!(ctx
            .find_ops(out.func, shmls_dialects::hls::UNROLL)
            .is_empty());
    }

    #[test]
    fn multi_result_apply_rejected() {
        let k = parse_kernel(CHAIN).unwrap();
        let mut ctx = Context::new();
        let (_module, body) = create_module(&mut ctx);
        let lowered = lower_kernel(&mut ctx, body, &k).unwrap();
        crate::fuse::fuse_applies(&mut ctx, lowered.func).unwrap();
        let e = stencil_to_hls(&mut ctx, lowered.func, &HmlsOptions::default()).unwrap_err();
        assert!(e.to_string().contains("split_applies"), "{e}");
    }

    // ---- temporal blocking ------------------------------------------------

    const INOUT: &str = r#"
kernel relax {
  grid(7, 5)
  halo 1
  field u : inout
  const w
  compute u {
    u = u[0,0] + w * (u[-1,0] + u[1,0] + u[0,-1] + u[0,1] - 4.0 * u[0,0])
  }
}
"#;

    #[test]
    fn temporal_depth_zero_is_rejected() {
        let k = parse_kernel(LAPLACE).unwrap();
        let mut ctx = Context::new();
        let (_module, body) = create_module(&mut ctx);
        let lowered = lower_kernel(&mut ctx, body, &k).unwrap();
        let opts = HmlsOptions {
            temporal_depth: 0,
            ..Default::default()
        };
        let e = stencil_to_hls(&mut ctx, lowered.func, &opts).unwrap_err();
        assert!(e.to_string().contains("temporal_depth"), "{e}");
    }

    #[test]
    fn temporal_structure_laplace_depth3() {
        let k = parse_kernel(LAPLACE).unwrap();
        let mut ctx = Context::new();
        let (module, body) = create_module(&mut ctx);
        let lowered = lower_kernel(&mut ctx, body, &k).unwrap();
        let opts = HmlsOptions {
            temporal_depth: 3,
            ..Default::default()
        };
        let out = stencil_to_hls(&mut ctx, lowered.func, &opts).unwrap();
        verify_with(&ctx, module, &shmls_dialects::registry()).unwrap();
        let r = &out.report;
        assert_eq!(r.temporal_depth, 3);
        // One shift buffer and one compute stage per step; a halo_merge
        // seam per deeper step; every stream single-consumer (no dups).
        assert_eq!(r.shift_buffers, 3);
        assert_eq!(r.compute_stages, 3);
        assert_eq!(r.merge_stages, 2);
        assert_eq!(r.dup_stages, 0);
        // Per step: elem + window + result.
        assert_eq!(r.streams, 9);
        // Still exactly one load_data (step 1); deeper steps are fed by
        // halo_merge seams, not fresh external passes.
        assert_eq!(count_stages(&ctx, out.func, RuntimeKind::LoadData), 1);
        assert_eq!(count_stages(&ctx, out.func, RuntimeKind::HaloMerge), 2);
        assert_eq!(count_stages(&ctx, out.func, RuntimeKind::WriteData), 1);
    }

    #[test]
    fn one_load_stage_per_step_that_loads() {
        // `b` feeds `a` through a seam, but `m` has no paired output: every
        // step reads it from memory, through that step's own single loader.
        const MASKED: &str = r#"
kernel masked {
  grid(6, 5)
  halo 1
  field a : input
  field m : input
  field b : output
  compute b { b = m[0,0] * (a[-1,0] + a[1,0]) }
}
"#;
        let k = parse_kernel(MASKED).unwrap();
        let mut ctx = Context::new();
        let (module, body) = create_module(&mut ctx);
        let lowered = lower_kernel(&mut ctx, body, &k).unwrap();
        let opts = HmlsOptions {
            temporal_depth: 3,
            ..Default::default()
        };
        let out = stencil_to_hls(&mut ctx, lowered.func, &opts).unwrap();
        verify_with(&ctx, module, &shmls_dialects::registry()).unwrap();
        let stages: Vec<&str> = out.design.stages.iter().map(|s| s.kind()).collect();
        let step0 = ["load", "shift", "shift", "compute"];
        let deeper = ["merge", "load", "shift", "shift", "compute"];
        let expected: Vec<&str> = [&step0[..], &deeper, &deeper, &["write"]].concat();
        assert_eq!(stages, expected);
        // Step 0 loads both fields in its one call, deeper steps only `m`.
        let loads: Vec<usize> = ctx
            .find_ops(out.func, func::CALL)
            .into_iter()
            .filter_map(|c| hls::decode_runtime_call(&ctx, c, ctx.operands(c)).unwrap())
            .filter(|call| call.kind == RuntimeKind::LoadData)
            .map(|call| call.fields())
            .collect();
        assert_eq!(loads, [2, 1, 1]);
    }

    #[test]
    fn temporal_dead_tail_stages_are_elided() {
        // CHAIN's `c` output feeds nothing (only `b` is feedback-paired
        // with `a`), so at depth 2 the step-1 `c` stage would push to a
        // stream nobody drains. It must only exist at the final step.
        let k = parse_kernel(CHAIN).unwrap();
        let mut ctx = Context::new();
        let (module, body) = create_module(&mut ctx);
        let lowered = lower_kernel(&mut ctx, body, &k).unwrap();
        let opts = HmlsOptions {
            temporal_depth: 2,
            ..Default::default()
        };
        let out = stencil_to_hls(&mut ctx, lowered.func, &opts).unwrap();
        verify_with(&ctx, module, &shmls_dialects::registry()).unwrap();
        // Step 1: t + b live (c's result is discarded by the next step's
        // overwrite); step 2: all three.
        assert_eq!(out.report.compute_stages, 5);
        assert_eq!(out.report.merge_stages, 1);
    }

    /// Feedback pairing over the kernel signature, mirroring the transform
    /// (and `scale::feedback_pairs`): an inout feeds itself; the k-th pure
    /// output feeds the k-th pure input, declaration order.
    fn signature_pairs(sig: &shmls_frontend::KernelSignature) -> Vec<(usize, usize)> {
        let mut outs = Vec::new();
        let mut ins = Vec::new();
        let mut pairs = Vec::new();
        for (idx, arg) in sig.args.iter().enumerate() {
            if let shmls_frontend::KernelArg::Field(_, kind) = arg {
                match kind {
                    shmls_frontend::FieldKind::InOut => pairs.push((idx, idx)),
                    shmls_frontend::FieldKind::Output => outs.push(idx),
                    shmls_frontend::FieldKind::Input => ins.push(idx),
                    _ => {}
                }
            }
        }
        pairs.extend(outs.into_iter().zip(ins));
        pairs
    }

    /// One argument's initial value in [`check_depth_equivalence`].
    #[derive(Clone)]
    enum Seed {
        Field(Vec<f64>),
        Param(Vec<f64>),
        Const(f64),
    }

    /// Random initial values for every argument of `sig`. Every field
    /// buffer (outputs included) gets random contents so the halo-ring
    /// path is exercised with nonzero values, not just the zeroed-buffer
    /// case.
    fn random_seeds(sig: &shmls_frontend::KernelSignature, seed: u64) -> Vec<Seed> {
        let bounded = StencilBounds::from_extents(&sig.grid).grown(sig.halo);
        let mut next = seed;
        let mut rnd = move || {
            next ^= next << 13;
            next ^= next >> 7;
            next ^= next << 17;
            (next % 1000) as f64 / 100.0 - 5.0
        };
        sig.args
            .iter()
            .map(|arg| match arg {
                shmls_frontend::KernelArg::Field(_, _) => {
                    let n = bounded.num_points();
                    Seed::Field((0..n).map(|_| rnd()).collect())
                }
                shmls_frontend::KernelArg::Param(_, _, extent) => {
                    Seed::Param((0..*extent).map(|_| rnd()).collect())
                }
                shmls_frontend::KernelArg::Const(_) => Seed::Const(rnd()),
            })
            .collect()
    }

    /// Allocate `seeds` in `store` as the arguments of a kernel over
    /// `bounded`.
    fn alloc_seeds(store: &mut Store, bounded: &StencilBounds, seeds: &[Seed]) -> Vec<RtValue> {
        let mut filled = |shape: Vec<i64>, origin: Vec<i64>, v: &[f64]| {
            let mut buf = Buffer::zeroed(shape, origin);
            buf.data.copy_from_slice(v);
            RtValue::MemRef(store.alloc(buf))
        };
        seeds
            .iter()
            .map(|s| match s {
                Seed::Field(v) => filled(bounded.extents(), bounded.lb.clone(), v),
                Seed::Param(v) => filled(vec![v.len() as i64], vec![0], v),
                Seed::Const(v) => RtValue::F64(*v),
            })
            .collect()
    }

    /// One sweep of a depth-D design must be bitwise-equal to D iterated
    /// sweeps of the depth-1 design with results fed back through the
    /// declaration-order pairing — the exact oracle the conformance
    /// time-marching dimension uses.
    fn check_depth_equivalence(src: &str, depth: usize, seed: u64) {
        let k = parse_kernel(src).unwrap();
        let mut deep_ctx = Context::new();
        let (deep_module, body) = create_module(&mut deep_ctx);
        let deep_lowered = lower_kernel(&mut deep_ctx, body, &k).unwrap();
        let opts = HmlsOptions {
            temporal_depth: depth,
            ..Default::default()
        };
        let out = stencil_to_hls(&mut deep_ctx, deep_lowered.func, &opts).unwrap();
        assert_eq!(out.report.temporal_depth, depth);
        verify_with(&deep_ctx, deep_module, &shmls_dialects::registry()).unwrap();

        let mut ctx1 = Context::new();
        let (module1, body1) = create_module(&mut ctx1);
        let lowered1 = lower_kernel(&mut ctx1, body1, &k).unwrap();
        let _ = stencil_to_hls(&mut ctx1, lowered1.func, &HmlsOptions::default()).unwrap();

        let sig = &deep_lowered.signature;
        let bounded = StencilBounds::from_extents(&sig.grid).grown(sig.halo);
        let pairs = signature_pairs(sig);
        let init = random_seeds(sig, seed);

        // Oracle: depth iterated single-step sweeps, outputs fed to their
        // paired inputs between sweeps (full buffers — write_data touches
        // the interior only, so the ring carries the initial values, which
        // is exactly what the deep design's halo_merge reads). Unpaired
        // inputs, params and consts are constant across steps.
        let hls_name = format!("{}_hls", sig.name);
        let mut cur = init.clone();
        let mut last = None;
        for _ in 0..depth {
            let (store, _, _) = run_sequential(&ctx1, module1, &hls_name, |st| {
                alloc_seeds(st, &bounded, &cur)
            });
            for &(o, i) in &pairs {
                cur[i] = Seed::Field(store.get(o).unwrap().data.clone());
                if o != i {
                    cur[o] = init[o].clone();
                }
            }
            last = Some(store);
        }
        let oracle = last.unwrap();

        // One deep sweep from the same initial values.
        let (deep_store, _, mem_beats) = run_sequential(&deep_ctx, deep_module, &hls_name, |st| {
            alloc_seeds(st, &bounded, &init)
        });
        assert!(mem_beats > 0);

        for (i, arg) in sig.args.iter().enumerate() {
            if let shmls_frontend::KernelArg::Field(name, kind) = arg {
                if matches!(
                    kind,
                    shmls_frontend::FieldKind::Output | shmls_frontend::FieldKind::InOut
                ) {
                    let o = oracle.get(i).unwrap();
                    let d = deep_store.get(i).unwrap();
                    for (j, (ov, dv)) in o.data.iter().zip(&d.data).enumerate() {
                        assert_eq!(
                            ov.to_bits(),
                            dv.to_bits(),
                            "field `{name}` flat index {j}: oracle={ov} deep={dv}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn laplace_depth2_matches_iterated_oracle() {
        check_depth_equivalence(LAPLACE, 2, 0xBADC0FFE);
    }

    #[test]
    fn laplace_depth4_matches_iterated_oracle() {
        check_depth_equivalence(LAPLACE, 4, 7);
    }

    #[test]
    fn multi_field_depth3_matches_iterated_oracle() {
        check_depth_equivalence(MULTI, 3, 2024);
    }

    #[test]
    fn chain_depth2_matches_iterated_oracle() {
        check_depth_equivalence(CHAIN, 2, 31337);
    }

    #[test]
    fn inout_depth3_matches_iterated_oracle() {
        check_depth_equivalence(INOUT, 3, 99);
    }

    #[test]
    fn dead_temp_depth2_matches_iterated_oracle() {
        check_depth_equivalence(DEAD_TEMP, 2, 5150);
    }

    #[test]
    fn unrolled_depth2_matches_iterated_oracle() {
        // Unroll composes with temporal depth: each step's compute loop is
        // physically replicated, results must not change.
        let k = parse_kernel(LAPLACE).unwrap();
        let mut ctx = Context::new();
        let (module, body) = create_module(&mut ctx);
        let lowered = lower_kernel(&mut ctx, body, &k).unwrap();
        let opts = HmlsOptions {
            unroll: 4,
            temporal_depth: 2,
            ..Default::default()
        };
        let out = stencil_to_hls(&mut ctx, lowered.func, &opts).unwrap();
        verify_with(&ctx, module, &shmls_dialects::registry()).unwrap();
        assert_eq!(out.report.temporal_depth, 2);

        let mut ref_ctx = Context::new();
        let (ref_module, ref_body) = create_module(&mut ref_ctx);
        let ref_lowered = lower_kernel(&mut ref_ctx, ref_body, &k).unwrap();
        let ref_opts = HmlsOptions {
            temporal_depth: 2,
            ..Default::default()
        };
        let _ = stencil_to_hls(&mut ref_ctx, ref_lowered.func, &ref_opts).unwrap();

        let bounded = StencilBounds::from_extents(&k.grid).grown(k.halo);
        let fill = |store: &mut shmls_ir::interp::Store| -> Vec<RtValue> {
            let mut a = Buffer::zeroed(bounded.extents(), bounded.lb.clone());
            for (i, v) in a.data.iter_mut().enumerate() {
                *v = (i % 89) as f64 / 7.0;
            }
            let b = Buffer::zeroed(bounded.extents(), bounded.lb.clone());
            vec![
                RtValue::MemRef(store.alloc(a)),
                RtValue::MemRef(store.alloc(b)),
                RtValue::F64(0.25),
            ]
        };
        let (u, _, _) = run_sequential(&ctx, module, "laplace_hls", fill);
        let (r, _, _) = run_sequential(&ref_ctx, ref_module, "laplace_hls", fill);
        assert_eq!(u.get(1).unwrap().data, r.get(1).unwrap().data);
    }
}
