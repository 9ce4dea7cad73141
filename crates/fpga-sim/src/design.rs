//! Design extraction: from HLS-dialect IR to the structural facts the
//! performance, resource and power models consume.
//!
//! The models never look at the IR directly; everything they need —
//! stages, stream depths and widths, shift-register lengths, local buffer
//! sizes, AXI bundles, per-stage operation mix — is summarised in a
//! [`DesignDescriptor`] extracted here. This keeps the models testable in
//! isolation and mirrors how a real HLS report summarises a design.

use std::collections::{BTreeMap, BTreeSet};

use shmls_dialects::hls::RuntimeKind;
use shmls_dialects::{arith, func, hls, memref, scf};
use shmls_ir::attributes::Attribute;
use shmls_ir::error::IrResult;
use shmls_ir::prelude::*;
use shmls_ir::scalar::{self, Cost};
use shmls_ir::{ir_bail, ir_ensure, ir_error};

/// Floating/integer operation mix of one compute stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpMix {
    /// f64 additions/subtractions.
    pub fadd: u64,
    /// f64 multiplications.
    pub fmul: u64,
    /// f64 divisions.
    pub fdiv: u64,
    /// Other f64 ops (abs/min/max/select/compare/copysign …).
    pub fmisc: u64,
    /// Integer/index ALU operations.
    pub ialu: u64,
}

impl OpMix {
    /// Total floating-point operations per point.
    pub fn flops(&self) -> u64 {
        self.fadd + self.fmul + self.fdiv + self.fmisc
    }

    /// Count one operator of class `cost`.
    pub fn count(&mut self, cost: Cost) {
        *match cost {
            Cost::FAdd => &mut self.fadd,
            Cost::FMul => &mut self.fmul,
            Cost::FDiv => &mut self.fdiv,
            Cost::FMisc => &mut self.fmisc,
            Cost::IAlu => &mut self.ialu,
        } += 1;
    }
}

/// One dataflow stage of the design.
#[derive(Debug, Clone, PartialEq)]
pub enum Stage {
    /// The single external-read stage (`load_data`): `fields` streams fed
    /// from memory, `beats` 512-bit beats each.
    Load {
        /// Number of input fields.
        fields: usize,
        /// 512-bit beats per field.
        beats_per_field: u64,
        /// Elements streamed per field.
        elements_per_field: u64,
    },
    /// A shift buffer: element stream → window stream.
    Shift {
        /// Shift-register length in elements.
        register_len: i64,
        /// Elements consumed.
        elements: u64,
        /// Windows produced.
        windows: u64,
    },
    /// A stream-duplication stage.
    Dup {
        /// Fan-out.
        copies: usize,
        /// Trip count.
        trips: u64,
        /// Element width in bytes (windows are wide).
        elem_bytes: u64,
    },
    /// A per-field compute stage (pipelined loop).
    Compute {
        /// Initiation interval requested by `hls.pipeline`.
        ii: i64,
        /// Trip count (interior points).
        trips: u64,
        /// Streams read per iteration.
        reads: usize,
        /// Streams written per iteration.
        writes: usize,
        /// Operation mix per iteration.
        ops: OpMix,
    },
    /// A temporal-blocking seam (`halo_merge`): the previous step's result
    /// stream over the interior merged with the halo ring read from the
    /// output field's buffer, re-emitting the full bounded box.
    Merge {
        /// Interior elements consumed from the result stream.
        interior: u64,
        /// Total (halo-included) elements produced.
        bounded: u64,
        /// Halo-ring elements read from external memory.
        ring: u64,
    },
    /// The single external-write stage (`write_data`).
    Write {
        /// Output fields drained.
        fields: usize,
        /// 512-bit beats per field.
        beats_per_field: u64,
        /// Elements per field.
        elements_per_field: u64,
    },
}

impl Stage {
    /// The one name of the stage's kind — `load`, `shift`, `dup`,
    /// `compute`, `merge` or `write` — in every label a report, a
    /// deadlock snapshot or an error shows.
    pub fn kind(&self) -> &'static str {
        match self {
            Stage::Load { .. } => "load",
            Stage::Shift { .. } => "shift",
            Stage::Dup { .. } => "dup",
            Stage::Compute { .. } => "compute",
            Stage::Merge { .. } => "merge",
            Stage::Write { .. } => "write",
        }
    }

    /// `stage{i}:{kind}`, the name stage `i` of a design carries in
    /// deadlock snapshots and wiring errors.
    pub fn label(&self, i: usize) -> String {
        format!("stage{i}:{}", self.kind())
    }
}

/// One FIFO stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamDesc {
    /// Declared depth.
    pub depth: i64,
    /// Element width in bytes.
    pub elem_bytes: u64,
}

/// Stream connections of one dataflow stage (indices into
/// [`DesignDescriptor::streams`], creation order).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageWiring {
    /// Streams the stage consumes from.
    pub reads: Vec<usize>,
    /// Streams the stage produces into.
    pub writes: Vec<usize>,
}

/// The extracted design.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DesignDescriptor {
    /// Kernel name (the HLS function's symbol).
    pub name: String,
    /// Interior points per kernel invocation.
    pub interior_points: u64,
    /// Padded (halo-included) points streamed by the load stage.
    pub bounded_points: u64,
    /// Dataflow stages in program order.
    pub stages: Vec<Stage>,
    /// Stream wiring per stage (parallel to `stages`).
    pub wiring: Vec<StageWiring>,
    /// All FIFO streams.
    pub streams: Vec<StreamDesc>,
    /// AXI interface bindings: (protocol, bundle) per kernel argument.
    pub interfaces: Vec<(String, String)>,
    /// Local (BRAM) buffer sizes in bytes (step-8 copies).
    pub local_buffer_bytes: Vec<u64>,
    /// Elements copied into local buffers at kernel init.
    pub init_copy_elements: u64,
}

impl DesignDescriptor {
    /// Number of distinct `m_axi` bundles (physical memory ports per CU).
    pub fn axi_ports(&self) -> usize {
        let m_axi = self.interfaces.iter().filter(|(p, _)| p == "m_axi");
        let bundles: BTreeSet<&str> = m_axi.map(|(_, b)| b.as_str()).collect();
        bundles.len()
    }

    /// Shift-register storage in bytes (8-byte elements).
    pub fn shift_register_bytes(&self) -> u64 {
        self.stages
            .iter()
            .map(|s| match s {
                Stage::Shift { register_len, .. } => *register_len as u64 * 8,
                _ => 0,
            })
            .sum()
    }

    /// FIFO storage in bytes.
    pub fn fifo_bytes(&self) -> u64 {
        self.streams
            .iter()
            .map(|s| s.depth as u64 * s.elem_bytes)
            .sum()
    }

    /// Total 512-bit beats moved to/from external memory.
    pub fn total_beats(&self) -> u64 {
        self.stages
            .iter()
            .map(|s| match s {
                Stage::Load {
                    fields,
                    beats_per_field,
                    ..
                }
                | Stage::Write {
                    fields,
                    beats_per_field,
                    ..
                } => *fields as u64 * beats_per_field,
                Stage::Merge { ring, .. } => ring.div_ceil(8),
                _ => 0,
            })
            .sum::<u64>()
            + self.init_copy_elements.div_ceil(8)
    }

    /// The aggregate op mix over all compute stages.
    pub fn total_ops(&self) -> OpMix {
        let mut total = OpMix::default();
        for s in &self.stages {
            if let Stage::Compute { ops, .. } = s {
                total.fadd += ops.fadd;
                total.fmul += ops.fmul;
                total.fdiv += ops.fdiv;
                total.fmisc += ops.fmisc;
                total.ialu += ops.ialu;
            }
        }
        total
    }

    /// Length (in stages) of the longest producer→consumer chain through
    /// the dataflow graph — the depth that determines pipeline fill/drain.
    pub fn critical_path_stages(&self) -> u64 {
        // Stages appear in program (topological) order, so a stream's
        // producer has its depth before any consumer asks for it.
        let mut producer_depth = vec![0u64; self.streams.len()];
        let mut longest = 0;
        for wiring in &self.wiring {
            let feeds = wiring.reads.iter().filter_map(|&s| producer_depth.get(s));
            let depth = 1 + feeds.max().copied().unwrap_or(0);
            for &s in &wiring.writes {
                if let Some(slot) = producer_depth.get_mut(s) {
                    *slot = depth;
                }
            }
            longest = longest.max(depth);
        }
        longest
    }

    /// The stream graph: `[pusher, popper]` stage of each stream. Refuses
    /// what no engine can walk — a wiring entry missing for a stage, a
    /// stream index out of range, or a stream popped (or pushed) by two
    /// stages, which would drain tokens the other had been promised. A
    /// stage may list a stream several times (an unrolled body).
    pub fn stream_ends(&self) -> IrResult<Vec<[Option<usize>; 2]>> {
        ir_ensure!(
            self.wiring.len() == self.stages.len(),
            "{} stages but {} wiring entries",
            self.stages.len(),
            self.wiring.len()
        );
        let label = |i: usize| self.stages[i].label(i);
        let n = self.streams.len();
        let mut ends = vec![[None; 2]; n];
        for (stage, wiring) in self.wiring.iter().enumerate() {
            for (side, streams, verb) in
                [(0, &wiring.writes, "written"), (1, &wiring.reads, "read")]
            {
                for &s in streams {
                    let end = ends
                        .get_mut(s)
                        .ok_or_else(|| ir_error!("{} names stream {s} of {n}", label(stage)))?;
                    let first = *end[side].get_or_insert(stage);
                    ir_ensure!(
                        first == stage,
                        "stream {s} is {verb} by {} and by {}",
                        label(first),
                        label(stage)
                    );
                }
            }
        }
        Ok(ends)
    }

    /// A well-formed Kahn network: [`Self::stream_ends`], and every stream
    /// pushed by one stage and popped by one. A stream written but never
    /// drained fills up and blocks its producer; one read but never fed
    /// starves its consumer — certain deadlocks under bounded FIFOs (the
    /// StencilFlow runs the paper reports as never finishing).
    pub fn check_wiring(&self) -> IrResult<()> {
        let label = |i: usize| self.stages[i].label(i);
        for (s, ends) in self.stream_ends()?.into_iter().enumerate() {
            let fault = match ends {
                [Some(_), Some(_)] => continue,
                [None, None] => "is created but no stage reads or writes it".to_string(),
                [None, Some(reader)] => format!("has no producer but is read by {}", label(reader)),
                [Some(writer), None] => format!(
                    "has no consumer but is written by {} — an unconsumed producer \
                     deadlocks under bounded FIFOs",
                    label(writer)
                ),
            };
            ir_bail!("`{}` stream {s} {fault}", self.name);
        }
        Ok(())
    }

    /// Extract the descriptor from an HLS-dialect `func.func` — the one
    /// reader of a generated design, run once per compile
    /// (`HmlsOutput::design`). What it returns passes
    /// [`Self::check_wiring`].
    pub fn from_hls_func(ctx: &Context, hls_func: OpId) -> IrResult<Self> {
        let design = Self::extract(ctx, hls_func)?;
        design.check_wiring()?;
        Ok(design)
    }

    /// [`Self::from_hls_func`] before the wiring check: what the threaded
    /// engine names the stages of a deadlocked design from.
    pub(crate) fn extract(ctx: &Context, hls_func: OpId) -> IrResult<Self> {
        ir_ensure!(
            ctx.op_name(hls_func) == func::FUNC,
            "expected func.func, got `{}`",
            ctx.op_name(hls_func)
        );
        let name = func::func_name(ctx, hls_func)
            .ok_or_else(|| ir_error!("HLS function has no name"))?
            .to_string();
        let entry = ctx
            .entry_block(hls_func)
            .ok_or_else(|| ir_error!("HLS function has no body"))?;

        let mut d = DesignDescriptor {
            name,
            ..Default::default()
        };
        // Stream handle (value) -> index into `d.streams` (creation order).
        let mut stream_index: BTreeMap<ValueId, usize> = BTreeMap::new();

        for &op in ctx.block_ops(entry) {
            match ctx.op_name(op) {
                hls::INTERFACE => {
                    let (p, b) = hls::interface_binding(ctx, op)
                        .ok_or_else(|| ir_error!("interface without binding"))?;
                    d.interfaces.push((p.to_string(), b.to_string()));
                }
                hls::CREATE_STREAM => {
                    let depth = hls::stream_depth(ctx, op);
                    let elem_bytes = ctx
                        .value_type(ctx.result(op, 0))
                        .element_type()
                        .and_then(Type::byte_size)
                        .unwrap_or(8);
                    stream_index.insert(ctx.result(op, 0), d.streams.len());
                    d.streams.push(StreamDesc { depth, elem_bytes });
                }
                memref::ALLOCA => {
                    let bytes = ctx
                        .value_type(ctx.result(op, 0))
                        .byte_size()
                        .ok_or_else(|| ir_error!("alloca of unsized type"))?;
                    d.local_buffer_bytes.push(bytes);
                }
                hls::DATAFLOW => d.push_stage(ctx, op, &stream_index)?,
                name => {
                    // Kernel init: the small-data copies. Stream traffic
                    // belongs to the stages.
                    if let Some(s) = ctx.operands(op).iter().find_map(|v| stream_index.get(v)) {
                        ir_bail!("stream {s} is touched by `{name}` outside a dataflow stage");
                    }
                    if let Some(call) = hls::decode_runtime_call(ctx, op, ctx.operands(op))? {
                        if call.kind == RuntimeKind::CopySmallData {
                            d.init_copy_elements += call.extents[0] as u64;
                        }
                    }
                }
            }
        }
        ir_ensure!(!d.stages.is_empty(), "design has no dataflow stages");
        Ok(d)
    }

    /// Read one `hls.dataflow` op into the next entry of `stages` and
    /// `wiring`: one walk for its stream traffic and its operation mix.
    fn push_stage(
        &mut self,
        ctx: &Context,
        dataflow: OpId,
        stream_index: &BTreeMap<ValueId, usize>,
    ) -> IrResult<()> {
        let idx = |v: &ValueId| stream_index.get(v).copied();
        let mut wiring = StageWiring::default();
        let mut ops = OpMix::default();
        let mut foreign_call = None;
        for op in ctx.walk_collect(dataflow) {
            let operands = ctx.operands(op);
            match ctx.op_name(op) {
                hls::READ => wiring.reads.extend(idx(&operands[0])),
                hls::WRITE => wiring.writes.extend(idx(&operands[1])),
                func::CALL => match hls::decode_runtime_call(ctx, op, operands)? {
                    Some(call) => {
                        wiring.reads.extend(call.consumed.iter().filter_map(idx));
                        wiring.writes.extend(call.produced.iter().filter_map(idx));
                    }
                    None => {
                        foreign_call = foreign_call.or(operands.iter().find_map(idx).zip(Some(op)))
                    }
                },
                name => {
                    if let Some(cost) = scalar::lookup(name).and_then(|row| row.cost) {
                        ops.count(cost);
                    }
                }
            }
        }
        let stage = extract_stage(ctx, dataflow, &wiring, ops, &self.streams)?;
        // Only the runtime functions may be handed a stream.
        if let Some((s, call)) = foreign_call {
            ir_bail!(
                "{}: call to {:?} passes stream {s} but is not a runtime function",
                stage.label(self.stages.len()),
                func::callee(ctx, call).unwrap_or("<unknown>")
            );
        }
        match stage {
            Stage::Load {
                elements_per_field: n,
                ..
            } => self.bounded_points = n,
            Stage::Write {
                elements_per_field: n,
                ..
            } => self.interior_points = n,
            _ => {}
        }
        self.stages.push(stage);
        self.wiring.push(wiring);
        Ok(())
    }
}

/// The stage a `hls.dataflow` op with this wiring and operation mix is.
fn extract_stage(
    ctx: &Context,
    dataflow: OpId,
    wiring: &StageWiring,
    ops: OpMix,
    streams: &[StreamDesc],
) -> IrResult<Stage> {
    let body = ctx
        .entry_block(dataflow)
        .ok_or_else(|| ir_error!("dataflow without body"))?;
    // Runtime-call stages: a single func.call.
    for &op in ctx.block_ops(body) {
        let Some(call) = hls::decode_runtime_call(ctx, op, ctx.operands(op))? else {
            continue;
        };
        let halo = call.halo;
        let bounded = call.extents.iter().product::<i64>().max(0) as u64;
        let interior = call.extents.iter().map(|&e| (e - 2 * halo).max(0));
        let interior = interior.product::<i64>() as u64;
        return Ok(match call.kind {
            RuntimeKind::LoadData => Stage::Load {
                fields: call.fields(),
                beats_per_field: bounded.div_ceil(8),
                elements_per_field: bounded,
            },
            RuntimeKind::ShiftBuffer => Stage::Shift {
                register_len: shmls_dialects::window::shift_register_len(&call.extents, halo),
                elements: bounded,
                windows: interior,
            },
            RuntimeKind::HaloMerge => Stage::Merge {
                interior,
                bounded,
                ring: bounded - interior,
            },
            RuntimeKind::WriteData => Stage::Write {
                fields: call.fields(),
                beats_per_field: bounded.div_ceil(8),
                elements_per_field: bounded,
            },
            RuntimeKind::CopySmallData => continue,
        });
    }
    // Loop stages. A dup stage is a loop with one read fanned out into N
    // identical-width writes and no floating-point work.
    let LoopStage { trips, ii, .. } = LoopStage::read(ctx, dataflow)?;
    let (reads, writes) = (wiring.reads.len(), wiring.writes.len());
    Ok(if reads == 1 && writes >= 2 && ops.flops() == 0 {
        Stage::Dup {
            copies: writes,
            trips,
            elem_bytes: streams[wiring.writes[0]].elem_bytes,
        }
    } else {
        Stage::Compute {
            ii,
            trips,
            reads,
            writes,
            ops,
        }
    })
}

/// A dataflow stage that is one pipelined loop, the shape the transform's
/// `stage_loop` builds: index constants, then a single `scf.for` over
/// `0..trips` by 1 carrying no values. Read once, for [`Stage::Dup`] /
/// [`Stage::Compute`] and for the stage planner ([`crate::stageplan`]).
pub(crate) struct LoopStage {
    /// The loop's body.
    pub body: BlockId,
    /// The induction variable, counting `0..trips`.
    pub induction: ValueId,
    pub trips: u64,
    /// Initiation interval the body's `hls.pipeline` asks for (else 1).
    pub ii: i64,
}

impl LoopStage {
    pub(crate) fn read(ctx: &Context, dataflow: OpId) -> IrResult<Self> {
        let stage_body = ctx
            .entry_block(dataflow)
            .ok_or_else(|| ir_error!("dataflow without body"))?;
        let index = |&op: &OpId| arith::constant_value(ctx, op).and_then(Attribute::as_int);
        let for_op = match ctx.block_ops(stage_body).split_last() {
            Some((&last, before))
                if ctx.op_name(last) == scf::FOR && before.iter().all(|op| index(op).is_some()) =>
            {
                last
            }
            _ => ir_bail!("unrecognised dataflow stage"),
        };
        let body = ctx
            .entry_block(for_op)
            .ok_or_else(|| ir_error!("stage loop without body"))?;
        let mut body_ops = ctx.block_ops(body).iter().copied();
        let pipeline = body_ops.find(|&op| ctx.op_name(op) == hls::PIPELINE);
        let ii = pipeline.and_then(|op| hls::pipeline_ii(ctx, op));
        Ok(LoopStage {
            body,
            induction: scf::induction_var(ctx, for_op),
            trips: loop_trip_count(ctx, for_op)?,
            ii: ii.unwrap_or(1),
        })
    }
}

/// Constant trip count of a stage loop: `0..n by 1`, every bound an
/// `arith.constant`.
fn loop_trip_count(ctx: &Context, for_op: OpId) -> IrResult<u64> {
    ir_ensure!(ctx.operands(for_op).len() == 3, "stage loop carries values");
    let (lb, ub, step) = scf::loop_bounds(ctx, for_op);
    let constant = |v: ValueId| -> IrResult<i64> {
        ctx.defining_op(v)
            .and_then(|def| arith::constant_value(ctx, def))
            .and_then(Attribute::as_int)
            .ok_or_else(|| ir_error!("loop bound is not a constant integer"))
    };
    let (lb, step) = (constant(lb)?, constant(step)?);
    ir_ensure!(lb == 0 && step == 1, "stage loop is not 0..n by 1");
    Ok(constant(ub)?.max(0) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmls_ir::builder::OpBuilder;

    // Descriptor extraction over real transformed kernels is covered by
    // integration tests in the `stencil-hmls` crate (which owns the
    // transform); here we test the arithmetic helpers.

    #[test]
    fn op_mix_totals() {
        let m = OpMix {
            fadd: 3,
            fmul: 2,
            fdiv: 1,
            fmisc: 4,
            ialu: 7,
        };
        assert_eq!(m.flops(), 10);
    }

    /// load → compute → write over streams 0 and 1.
    fn wired(wiring: Vec<(Vec<usize>, Vec<usize>)>) -> DesignDescriptor {
        let stream = StreamDesc {
            depth: 8,
            elem_bytes: 8,
        };
        DesignDescriptor {
            name: "k".into(),
            interior_points: 4,
            bounded_points: 4,
            stages: vec![
                Stage::Load {
                    fields: 1,
                    beats_per_field: 1,
                    elements_per_field: 4,
                },
                Stage::Compute {
                    ii: 1,
                    trips: 4,
                    reads: 1,
                    writes: 1,
                    ops: OpMix::default(),
                },
                Stage::Write {
                    fields: 1,
                    beats_per_field: 1,
                    elements_per_field: 4,
                },
            ],
            wiring: wiring
                .into_iter()
                .map(|(reads, writes)| StageWiring { reads, writes })
                .collect(),
            streams: vec![stream.clone(), stream],
            interfaces: vec![],
            local_buffer_bytes: vec![],
            init_copy_elements: 0,
        }
    }

    #[test]
    fn check_wiring_accepts_one_reader_and_one_writer_per_stream() {
        let chain = vec![(vec![], vec![0]), (vec![0], vec![1]), (vec![1], vec![])];
        wired(chain).check_wiring().unwrap();
        // One stage may list a stream several times (an unrolled body).
        let unrolled = vec![
            (vec![], vec![0, 0]),
            (vec![0, 0], vec![1]),
            (vec![1], vec![]),
        ];
        wired(unrolled).check_wiring().unwrap();
    }

    fn rejected(wiring: Vec<(Vec<usize>, Vec<usize>)>, needles: &[&str]) {
        let e = wired(wiring).check_wiring().unwrap_err().to_string();
        for needle in needles {
            assert!(e.contains(needle), "`{e}` does not mention `{needle}`");
        }
    }

    #[test]
    fn check_wiring_rejects_each_malformed_shape() {
        rejected(
            vec![(vec![], vec![0]), (vec![0], vec![])],
            &["3 stages but 2 wiring entries"],
        );
        rejected(
            vec![(vec![], vec![0]), (vec![2], vec![1]), (vec![1], vec![])],
            &["stage1:compute names stream 2 of 2"],
        );
        rejected(
            vec![(vec![], vec![0]), (vec![0], vec![7]), (vec![1], vec![])],
            &["stage1:compute names stream 7 of 2"],
        );
        rejected(
            vec![(vec![], vec![0]), (vec![0], vec![1]), (vec![0, 1], vec![])],
            &["stream 0 is read by stage1:compute and by stage2:write"],
        );
        rejected(
            vec![(vec![], vec![0, 1]), (vec![0], vec![1]), (vec![1], vec![])],
            &["stream 1 is written by stage0:load and by stage1:compute"],
        );
    }

    // The four cases of the stream-graph verifier this check replaced
    // (`core/src/connectivity.rs`), on the wiring it now reads.

    #[test]
    fn balanced_stream_passes() {
        let chain = vec![(vec![], vec![0]), (vec![0], vec![1]), (vec![1], vec![])];
        let d = wired(chain);
        d.check_wiring().unwrap();
        let ends = d.stream_ends().unwrap();
        assert_eq!(ends, [[Some(0), Some(1)], [Some(1), Some(2)]]);
    }

    #[test]
    fn unconsumed_producer_is_rejected_naming_stream_and_stage() {
        // The compute stage pushes into stream 1 but nothing ever drains
        // it — the exact shape a dead compute stage would leave behind.
        rejected(
            vec![(vec![], vec![0]), (vec![0], vec![1]), (vec![], vec![])],
            &["`k` stream 1", "no consumer", "stage1:compute"],
        );
    }

    #[test]
    fn unfed_consumer_is_rejected() {
        rejected(
            vec![(vec![], vec![]), (vec![0], vec![1]), (vec![1], vec![])],
            &["`k` stream 0", "no producer", "stage1:compute"],
        );
    }

    #[test]
    fn orphan_stream_is_rejected() {
        rejected(
            vec![(vec![], vec![0]), (vec![0], vec![]), (vec![], vec![])],
            &["`k` stream 1", "no stage reads or writes"],
        );
    }

    /// A function over three f64 streams whose stages `build` appends:
    /// `loop_stage(ctx, entry, body)` is one `0..4` loop stage.
    fn hls_func(build: impl FnOnce(&mut Context, BlockId, &[ValueId])) -> (Context, OpId) {
        use shmls_dialects::builtin::create_module;
        let mut ctx = Context::new();
        let (_module, top) = create_module(&mut ctx);
        let (f, entry) = func::create_func(&mut ctx, top, "k", vec![], vec![]);
        let mut b = OpBuilder::at_block_end(&mut ctx, entry);
        let streams: Vec<ValueId> = (0..3)
            .map(|_| hls::create_stream(&mut b, Type::F64, 4))
            .collect();
        build(&mut ctx, entry, &streams);
        func::ret(&mut OpBuilder::at_block_end(&mut ctx, entry), vec![]);
        (ctx, f)
    }

    fn loop_stage(ctx: &mut Context, entry: BlockId, body: impl FnOnce(&mut OpBuilder<'_>)) {
        let (_stage, stage_body) = hls::dataflow(&mut OpBuilder::at_block_end(ctx, entry));
        let mut b = OpBuilder::at_block_end(ctx, stage_body);
        let lb = arith::constant_index(&mut b, 0);
        let ub = arith::constant_index(&mut b, 4);
        let step = arith::constant_index(&mut b, 1);
        let (_for_op, loop_body) = scf::for_loop(&mut b, lb, ub, step, vec![]);
        let mut b = OpBuilder::at_block_end(ctx, loop_body);
        hls::pipeline(&mut b, 2);
        body(&mut b);
        scf::yield_op(&mut b, vec![]);
    }

    /// producer → dup → two consumers, read back stage by stage.
    #[test]
    fn loop_stages_extract_with_their_wiring() {
        let (ctx, f) = hls_func(|ctx, entry, s| {
            let s = s.to_vec();
            loop_stage(ctx, entry, |b| {
                let one = arith::constant_f64(b, 1.0);
                let two = arith::addf(b, one, one);
                hls::write(b, two, s[0]);
            });
            loop_stage(ctx, entry, |b| {
                let v = hls::read(b, s[0]);
                hls::write(b, v, s[1]);
                hls::write(b, v, s[2]);
            });
            for i in [1, 2] {
                loop_stage(ctx, entry, |b| {
                    hls::read(b, s[i]);
                });
            }
        });
        let d = DesignDescriptor::from_hls_func(&ctx, f).unwrap();
        let kinds: Vec<&str> = d.stages.iter().map(Stage::kind).collect();
        assert_eq!(kinds, ["compute", "dup", "compute", "compute"]);
        assert_eq!(d.stages[1].label(1), "stage1:dup");
        let fadd = OpMix {
            fadd: 1,
            ..Default::default()
        };
        let producer = Stage::Compute {
            ii: 2,
            trips: 4,
            reads: 0,
            writes: 1,
            ops: fadd,
        };
        assert_eq!(d.stages[0], producer);
        let dup = Stage::Dup {
            copies: 2,
            trips: 4,
            elem_bytes: 8,
        };
        assert_eq!(d.stages[1], dup);
        assert_eq!(d.wiring[1].reads, [0]);
        assert_eq!(d.wiring[1].writes, [1, 2]);
        assert_eq!(d.critical_path_stages(), 3);
    }

    /// What only the deleted verifier refused: a call that is handed a
    /// stream without being one of the runtime functions.
    #[test]
    fn a_non_runtime_call_with_a_stream_is_refused_naming_the_stage() {
        let (ctx, f) = hls_func(|ctx, entry, s| {
            let s = s.to_vec();
            loop_stage(ctx, entry, |b| {
                let one = arith::constant_f64(b, 1.0);
                hls::write(b, one, s[0]);
            });
            loop_stage(ctx, entry, |b| {
                func::call(b, "drain", vec![s[0]], vec![]);
            });
        });
        let e = DesignDescriptor::from_hls_func(&ctx, f)
            .unwrap_err()
            .to_string();
        for needle in [
            "stage1:compute",
            "\"drain\"",
            "stream 0",
            "not a runtime function",
        ] {
            assert!(e.contains(needle), "`{e}` does not mention `{needle}`");
        }
    }

    /// A stream op in the entry block belongs to no stage: refused, not
    /// counted against a pseudo-stage.
    #[test]
    fn a_stream_touched_outside_a_stage_is_refused() {
        let (ctx, f) = hls_func(|ctx, entry, s| {
            hls::read(&mut OpBuilder::at_block_end(ctx, entry), s[0]);
            let s0 = s[0];
            loop_stage(ctx, entry, |b| {
                let one = arith::constant_f64(b, 1.0);
                hls::write(b, one, s0);
            });
        });
        let e = DesignDescriptor::from_hls_func(&ctx, f)
            .unwrap_err()
            .to_string();
        assert!(
            e.contains("stream 0 is touched by `hls.read` outside"),
            "{e}"
        );
    }

    /// The one loop shape: anything but `0..n by 1` after index constants
    /// is not a stage the descriptor (or the planner) reads.
    #[test]
    fn a_stage_loop_is_zero_to_n_by_one() {
        let (ctx, f) = hls_func(|ctx, entry, _| {
            let (_stage, stage_body) = hls::dataflow(&mut OpBuilder::at_block_end(ctx, entry));
            let mut b = OpBuilder::at_block_end(ctx, stage_body);
            let lb = arith::constant_index(&mut b, 1);
            let ub = arith::constant_index(&mut b, 4);
            let (_for_op, loop_body) = scf::for_loop(&mut b, lb, ub, lb, vec![]);
            scf::yield_op(&mut OpBuilder::at_block_end(ctx, loop_body), vec![]);
        });
        let e = DesignDescriptor::from_hls_func(&ctx, f)
            .unwrap_err()
            .to_string();
        assert!(e.contains("stage loop is not 0..n by 1"), "{e}");
    }

    #[test]
    fn descriptor_aggregates() {
        let d = DesignDescriptor {
            name: "k".into(),
            interior_points: 100,
            bounded_points: 144,
            stages: vec![
                Stage::Load {
                    fields: 2,
                    beats_per_field: 18,
                    elements_per_field: 144,
                },
                Stage::Shift {
                    register_len: 27,
                    elements: 144,
                    windows: 100,
                },
                Stage::Compute {
                    ii: 1,
                    trips: 100,
                    reads: 1,
                    writes: 1,
                    ops: OpMix {
                        fadd: 2,
                        ..Default::default()
                    },
                },
                Stage::Write {
                    fields: 1,
                    beats_per_field: 13,
                    elements_per_field: 100,
                },
            ],
            streams: vec![
                StreamDesc {
                    depth: 8,
                    elem_bytes: 8,
                },
                StreamDesc {
                    depth: 8,
                    elem_bytes: 72,
                },
            ],
            wiring: Vec::new(),
            interfaces: vec![
                ("m_axi".into(), "gmem0".into()),
                ("m_axi".into(), "gmem1".into()),
                ("m_axi".into(), "gmem1".into()),
                ("s_axilite".into(), "control".into()),
            ],
            local_buffer_bytes: vec![64],
            init_copy_elements: 8,
        };
        assert_eq!(d.axi_ports(), 2);
        assert_eq!(d.shift_register_bytes(), 27 * 8);
        assert_eq!(d.fifo_bytes(), 8 * 8 + 8 * 72);
        assert_eq!(d.total_beats(), 2 * 18 + 13 + 1);
        assert_eq!(d.total_ops().fadd, 2);
    }
}
