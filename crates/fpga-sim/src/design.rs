//! Design extraction: from HLS-dialect IR to the structural facts the
//! performance, resource and power models consume.
//!
//! The models never look at the IR directly; everything they need —
//! stages, stream depths and widths, shift-register lengths, local buffer
//! sizes, AXI bundles, per-stage operation mix — is summarised in a
//! [`DesignDescriptor`] extracted here. This keeps the models testable in
//! isolation and mirrors how a real HLS report summarises a design.

use std::collections::BTreeMap;

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
#[derive(Debug, Clone, PartialEq)]
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
        let mut bundles: Vec<&str> = self
            .interfaces
            .iter()
            .filter(|(p, _)| p == "m_axi")
            .map(|(_, b)| b.as_str())
            .collect();
        bundles.sort_unstable();
        bundles.dedup();
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
    /// Falls back to the stage count when no wiring was recorded.
    pub fn critical_path_stages(&self) -> u64 {
        if self.wiring.len() != self.stages.len() || self.stages.is_empty() {
            return self.stages.len() as u64;
        }
        // Producer stage per stream.
        let mut producer = vec![usize::MAX; self.streams.len()];
        for (i, w) in self.wiring.iter().enumerate() {
            for &s in &w.writes {
                if s < producer.len() {
                    producer[s] = i;
                }
            }
        }
        // Stages appear in program (topological) order.
        let mut depth = vec![1u64; self.stages.len()];
        for (i, w) in self.wiring.iter().enumerate() {
            for &s in &w.reads {
                if s < producer.len() && producer[s] != usize::MAX && producer[s] < i {
                    depth[i] = depth[i].max(depth[producer[s]] + 1);
                }
            }
        }
        depth.into_iter().max().unwrap_or(1)
    }

    /// The shape every engine that walks the wiring relies on: one wiring
    /// entry per stage, every stream index in range, and each stream
    /// popped by at most one stage and pushed by at most one (a stage may
    /// list a stream several times). Two poppers would drain tokens the
    /// other had been promised; the generated designs never have them.
    pub fn check_wiring(&self) -> IrResult<()> {
        ir_ensure!(
            self.wiring.len() == self.stages.len(),
            "{} stages but {} wiring entries",
            self.stages.len(),
            self.wiring.len()
        );
        let mut reader = vec![None; self.streams.len()];
        let mut writer = vec![None; self.streams.len()];
        for (stage, wiring) in self.wiring.iter().enumerate() {
            for (ends, owner, verb) in [
                (&wiring.reads, &mut reader, "read"),
                (&wiring.writes, &mut writer, "written"),
            ] {
                for &s in ends {
                    let slot = owner.get_mut(s).ok_or_else(|| {
                        ir_error!("stage {stage} names stream {s} of {}", self.streams.len())
                    })?;
                    let first = *slot.get_or_insert(stage);
                    ir_ensure!(
                        first == stage,
                        "stream {s} is {verb} by stage {first} and by stage {stage}"
                    );
                }
            }
        }
        Ok(())
    }

    /// Extract the descriptor from an HLS-dialect `func.func`.
    pub fn from_hls_func(ctx: &Context, hls_func: OpId) -> IrResult<Self> {
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
            interior_points: 0,
            bounded_points: 0,
            stages: Vec::new(),
            wiring: Vec::new(),
            streams: Vec::new(),
            interfaces: Vec::new(),
            local_buffer_bytes: Vec::new(),
            init_copy_elements: 0,
        };

        // Stream handle (value) -> elem bytes, for dup width lookup.
        let mut stream_width: BTreeMap<ValueId, u64> = BTreeMap::new();
        // Stream handle (value) -> creation index, for stage wiring.
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
                    stream_width.insert(ctx.result(op, 0), elem_bytes);
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
                func::CALL => {
                    if let Some(call) = hls::decode_runtime_call(ctx, op, ctx.operands(op))? {
                        if call.kind == RuntimeKind::CopySmallData {
                            d.init_copy_elements += call.extents[0] as u64;
                        }
                    }
                }
                hls::DATAFLOW => {
                    let stage = extract_stage(ctx, op, &stream_width)?;
                    match &stage {
                        Stage::Load {
                            elements_per_field, ..
                        } => {
                            d.bounded_points = *elements_per_field;
                        }
                        Stage::Write {
                            elements_per_field, ..
                        } => {
                            d.interior_points = *elements_per_field;
                        }
                        _ => {}
                    }
                    d.wiring.push(extract_wiring(ctx, op, &stream_index)?);
                    d.stages.push(stage);
                }
                _ => {}
            }
        }
        ir_ensure!(!d.stages.is_empty(), "design has no dataflow stages");
        d.check_wiring()?;
        Ok(d)
    }
}

fn extract_stage(
    ctx: &Context,
    dataflow: OpId,
    stream_width: &BTreeMap<ValueId, u64>,
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
    // Loop stages: dup or compute.
    for &op in ctx.block_ops(body) {
        if ctx.op_name(op) == scf::FOR {
            return extract_loop_stage(ctx, op, stream_width);
        }
    }
    ir_bail!("unrecognised dataflow stage")
}

fn extract_loop_stage(
    ctx: &Context,
    for_op: OpId,
    stream_width: &BTreeMap<ValueId, u64>,
) -> IrResult<Stage> {
    let trips = loop_trip_count(ctx, for_op)?;
    let mut ii = 1;
    let mut reads = 0usize;
    let mut writes = 0usize;
    let mut written_streams: Vec<ValueId> = Vec::new();
    let mut ops = OpMix::default();
    for op in ctx.walk_collect(for_op) {
        match ctx.op_name(op) {
            hls::PIPELINE => {
                ii = hls::pipeline_ii(ctx, op).unwrap_or(1);
            }
            hls::READ => reads += 1,
            hls::WRITE => {
                writes += 1;
                written_streams.push(ctx.operands(op)[1]);
            }
            name => {
                if let Some(cost) = scalar::lookup(name).and_then(|row| row.cost) {
                    ops.count(cost);
                }
            }
        }
    }
    // A dup stage is a loop with one read fanned out into N identical-width
    // writes and no floating-point work.
    if reads == 1 && writes >= 2 && ops.flops() == 0 {
        let elem_bytes = written_streams
            .first()
            .and_then(|s| stream_width.get(s).copied())
            .unwrap_or(8);
        return Ok(Stage::Dup {
            copies: writes,
            trips,
            elem_bytes,
        });
    }
    Ok(Stage::Compute {
        ii,
        trips,
        reads,
        writes,
        ops,
    })
}

/// Determine which streams a stage reads/writes.
fn extract_wiring(
    ctx: &Context,
    dataflow: OpId,
    stream_index: &BTreeMap<ValueId, usize>,
) -> IrResult<StageWiring> {
    let mut wiring = StageWiring::default();
    let idx = |v: &ValueId| stream_index.get(v).copied();
    for op in ctx.walk_collect(dataflow) {
        let operands = ctx.operands(op);
        match ctx.op_name(op) {
            hls::READ => wiring.reads.extend(idx(&operands[0])),
            hls::WRITE => wiring.writes.extend(idx(&operands[1])),
            func::CALL => {
                if let Some(call) = hls::decode_runtime_call(ctx, op, operands)? {
                    wiring.reads.extend(call.consumed.iter().filter_map(idx));
                    wiring.writes.extend(call.produced.iter().filter_map(idx));
                }
            }
            _ => {}
        }
    }
    Ok(wiring)
}

/// Constant trip count of a normalised loop (`lb`, `ub`, `step` all
/// `arith.constant`).
fn loop_trip_count(ctx: &Context, for_op: OpId) -> IrResult<u64> {
    let (lb, ub, step) = scf::loop_bounds(ctx, for_op);
    let read_const = |v: ValueId| -> IrResult<i64> {
        let def = ctx
            .defining_op(v)
            .ok_or_else(|| ir_error!("loop bound is not a constant"))?;
        arith::constant_value(ctx, def)
            .and_then(Attribute::as_int)
            .ok_or_else(|| ir_error!("loop bound is not a constant integer"))
    };
    let (lb, ub, step) = (read_const(lb)?, read_const(ub)?, read_const(step)?);
    ir_ensure!(step > 0, "non-positive loop step");
    Ok(((ub - lb).max(0) as u64).div_ceil(step as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // One stage may list a stream several times (an unrolled body),
        // and a stream may go unread or unwritten.
        let unrolled = vec![(vec![], vec![0, 0]), (vec![0, 0], vec![]), (vec![], vec![])];
        wired(unrolled).check_wiring().unwrap();
    }

    #[test]
    fn check_wiring_rejects_each_malformed_shape() {
        let rejected = |wiring, needle: &str| {
            let e = wired(wiring).check_wiring().unwrap_err().to_string();
            assert!(e.contains(needle), "`{e}` does not mention `{needle}`");
        };
        rejected(
            vec![(vec![], vec![0]), (vec![0], vec![])],
            "3 stages but 2 wiring entries",
        );
        rejected(
            vec![(vec![], vec![0]), (vec![2], vec![1]), (vec![1], vec![])],
            "stage 1 names stream 2 of 2",
        );
        rejected(
            vec![(vec![], vec![0]), (vec![0], vec![7]), (vec![1], vec![])],
            "stage 1 names stream 7 of 2",
        );
        rejected(
            vec![(vec![], vec![0]), (vec![0], vec![1]), (vec![0, 1], vec![])],
            "stream 0 is read by stage 1 and by stage 2",
        );
        rejected(
            vec![(vec![], vec![0, 1]), (vec![0], vec![1]), (vec![1], vec![])],
            "stream 1 is written by stage 0 and by stage 1",
        );
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
