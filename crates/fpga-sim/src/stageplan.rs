//! Bytecode plans for dataflow stages.
//!
//! The threaded engine's default stage executor is the tree-walking
//! [`Machine`](shmls_ir::interp::Machine): every loop iteration re-walks
//! the stage body op by op, paying hash-map traffic per operand. This
//! module compiles the *shape the HMLS lowering actually generates* — a
//! single pipelined `scf.for` whose body is stream reads, straight-line
//! `f64` arithmetic, index reconstruction and stream writes — into a flat
//! [`StagePlan`] executed with nothing but slice indexing and the stream
//! transport. Stages that do not match (the `load_data` / `write_data` /
//! `shift_buffer` runtime stages, or anything with control flow) return
//! `None` from [`plan_stage`] and keep the tree-walker; the interpreter
//! remains the oracle.
//!
//! The float work reuses the shared bytecode ISA
//! ([`shmls_ir::bytecode::Program`]); the stream-facing
//! [`InputRef::PackElem`] / [`InputRef::ReadScalar`] variants index into
//! the plan's per-iteration read list. Every opcode executes through the
//! functions the tree-walker calls — [`Program::run`] routes each float
//! instruction through [`shmls_ir::scalar`]'s `un_op` / `bin_op`, the
//! integer program through its `int_op` — so a planned stage is
//! bitwise-identical to the interpreted one, and any future opcode change
//! lands in every execution tier at once.
//!
//! Stage plans deliberately stay *scalar* (one loop iteration per
//! [`Program::run`] dispatch) rather than borrowing the apply tier's
//! [`LANES`](shmls_ir::bytecode::LANES)-wide chunking: a stage's reads
//! and writes interleave with other stages through bounded FIFOs, and
//! batching N iterations' pops before their pushes would change the
//! occupancy pattern the deadlock and cycle models are validating. The
//! sharing is the opcode *semantics*, not the traversal schedule.

use std::collections::HashMap;

use shmls_dialects::{hls, scf};
use shmls_ir::attributes::Attribute;
use shmls_ir::bytecode::{InputRef, Instr, Program, ProgramBuilder, VReg};
use shmls_ir::error::IrResult;
use shmls_ir::interp::{Buffer, RtValue, Store};
use shmls_ir::ir::{Context, OpId, ValueId};
use shmls_ir::scalar::{self, int_op, Eval, IntOp};
use shmls_ir::types::Type;
use shmls_ir::{ir_bail, ir_ensure, ir_error};

use crate::design::OpMix;
use crate::executor::StreamIo;

/// One integer micro-instruction, evaluated once per loop iteration.
/// Register 0 always holds the induction variable. Integer ops execute
/// through [`int_op`], the function the interpreter calls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IntInstr {
    /// `int[dst] = value`.
    Const {
        /// Destination register.
        dst: usize,
        /// Immediate.
        value: i64,
    },
    /// `int[dst] = int_op(op, int[lhs], int[rhs])`.
    Bin {
        /// Opcode.
        op: IntOp,
        /// Destination register.
        dst: usize,
        /// Left operand.
        lhs: usize,
        /// Right operand.
        rhs: usize,
    },
}

/// Where a stream write takes its value from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WriteSrc {
    /// The result of the `Eval` that filled value slot `n`.
    Eval(usize),
    /// Forward read slot `n` verbatim (scalar *or* window pack — this is
    /// how dup stages replicate).
    Read(usize),
    /// A scalar resolved from the stage environment (slot into
    /// [`StagePlan::scalars`]).
    Env(usize),
}

/// One step of a loop iteration, in original op order. Order is
/// preserved exactly — with bounded FIFOs, interleaving of blocking reads
/// and writes is part of the design's deadlock behaviour, not a detail.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Pop stream slot `stream` into read slot `slot`.
    Read {
        /// Destination read slot.
        slot: usize,
        /// Index into [`StagePlan::streams`].
        stream: usize,
    },
    /// Run a float program; its single result lands in value slot `dst`.
    Eval {
        /// Straight-line float code (shared bytecode ISA).
        prog: Program,
        /// Destination value slot.
        dst: usize,
    },
    /// Push a value onto stream slot `stream`.
    Write {
        /// Value source.
        src: WriteSrc,
        /// Index into [`StagePlan::streams`].
        stream: usize,
    },
}

/// A compiled dataflow stage: `trips` iterations of a fixed action list.
#[derive(Debug, Clone, PartialEq)]
pub struct StagePlan {
    /// Loop trip count (`lb = 0`, `step = 1`).
    pub trips: i64,
    /// Stream SSA values used by reads/writes, resolved from the stage
    /// environment at run start.
    pub streams: Vec<ValueId>,
    /// Scalar `f64` SSA values resolved from the environment
    /// ([`InputRef::Scalar`] / [`WriteSrc::Env`] index into this).
    pub scalars: Vec<ValueId>,
    /// 1-D parameter memrefs resolved from the environment
    /// ([`InputRef::ParamLoad::operand`] indexes into this).
    pub params: Vec<ValueId>,
    /// Integer code run once per iteration (register 0 = induction var).
    /// [`InputRef::ParamLoad::dim`] names a register here.
    pub int_prog: Vec<IntInstr>,
    /// Integer register file size.
    pub n_int_regs: usize,
    /// The per-iteration steps, in op order.
    pub actions: Vec<Action>,
    /// Read slot count per iteration.
    pub n_reads: usize,
    /// Value slot count per iteration.
    pub n_evals: usize,
}

/// Try to compile a `hls.dataflow` stage into a [`StagePlan`]. Returns
/// `None` for any stage outside the planned vocabulary (runtime calls,
/// nested control flow, non-canonical loop bounds, …) — the caller falls
/// back to the tree-walking interpreter.
pub fn plan_stage(ctx: &Context, stage: OpId) -> Option<StagePlan> {
    try_plan_stage(ctx, stage).ok()
}

fn try_plan_stage(ctx: &Context, stage: OpId) -> IrResult<StagePlan> {
    ir_ensure!(
        ctx.op_name(stage) == hls::DATAFLOW,
        "stage plan: not a dataflow op"
    );
    let body = ctx
        .entry_block(stage)
        .ok_or_else(|| ir_error!("stage plan: dataflow without body"))?;

    // The stage body must be `constants…, one scf.for` — nothing else.
    let mut consts: HashMap<ValueId, i64> = HashMap::new();
    let mut for_op = None;
    for &op in ctx.block_ops(body) {
        match ctx.op_name(op) {
            "arith.constant" => {
                if let Some(Attribute::Int(v, _)) = ctx.attr(op, "value") {
                    consts.insert(ctx.result(op, 0), *v);
                } else {
                    ir_bail!("stage plan: non-integer stage constant");
                }
            }
            scf::FOR => {
                ir_ensure!(for_op.is_none(), "stage plan: multiple loops");
                for_op = Some(op);
            }
            other => ir_bail!("stage plan: unsupported stage op `{other}`"),
        }
    }
    let for_op = for_op.ok_or_else(|| ir_error!("stage plan: no loop"))?;
    let bounds = ctx.operands(for_op).to_vec();
    ir_ensure!(bounds.len() == 3, "stage plan: non-canonical loop operands");
    let c = |v: ValueId| consts.get(&v).copied();
    let (lb, ub, step) = (c(bounds[0]), c(bounds[1]), c(bounds[2]));
    ir_ensure!(
        lb == Some(0) && step == Some(1),
        "stage plan: loop is not 0..n by 1"
    );
    let trips = ub.ok_or_else(|| ir_error!("stage plan: non-constant trip count"))?;
    ir_ensure!(trips >= 0, "stage plan: negative trip count");

    let loop_body = ctx
        .entry_block(for_op)
        .ok_or_else(|| ir_error!("stage plan: loop without body"))?;
    let induction = scf::induction_var(ctx, for_op);

    let mut plan = StagePlan {
        trips,
        streams: Vec::new(),
        scalars: Vec::new(),
        params: Vec::new(),
        int_prog: Vec::new(),
        n_int_regs: 1, // register 0 = induction variable
        actions: Vec::new(),
        n_reads: 0,
        n_evals: 0,
    };

    let mut ints: HashMap<ValueId, usize> = HashMap::new();
    ints.insert(induction, 0);
    let mut read_slot: HashMap<ValueId, usize> = HashMap::new();
    let mut scalar_slot: HashMap<ValueId, usize> = HashMap::new();
    let mut param_slot: HashMap<ValueId, usize> = HashMap::new();
    let mut stream_slot: HashMap<ValueId, usize> = HashMap::new();

    // Current float segment (flushed into an `Eval` at each write).
    let mut builder = ProgramBuilder::new();
    let mut floats: HashMap<ValueId, VReg> = HashMap::new();

    fn slot_of(table: &mut Vec<ValueId>, map: &mut HashMap<ValueId, usize>, v: ValueId) -> usize {
        *map.entry(v).or_insert_with(|| {
            table.push(v);
            table.len() - 1
        })
    }

    fn int_reg(plan: &mut StagePlan) -> usize {
        let r = plan.n_int_regs;
        plan.n_int_regs += 1;
        r
    }

    for &op in ctx.block_ops(loop_body) {
        let operands = ctx.operands(op).to_vec();
        match ctx.op_name(op) {
            n if n == hls::PIPELINE || n == hls::UNROLL => {}
            n if n == scf::YIELD => break,
            n if n == hls::READ => {
                let s = slot_of(&mut plan.streams, &mut stream_slot, operands[0]);
                let slot = plan.n_reads;
                plan.n_reads += 1;
                plan.actions.push(Action::Read { slot, stream: s });
                read_slot.insert(ctx.result(op, 0), slot);
            }
            n if n == hls::WRITE => {
                let s = slot_of(&mut plan.streams, &mut stream_slot, operands[1]);
                let v = operands[0];
                let src = if let Some(&r) = floats.get(&v) {
                    // Flush the pending float segment; its result is what
                    // this write sends.
                    let prog = std::mem::take(&mut builder).finish(&[r])?;
                    floats.clear();
                    let dst = plan.n_evals;
                    plan.n_evals += 1;
                    plan.actions.push(Action::Eval { prog, dst });
                    WriteSrc::Eval(dst)
                } else if let Some(&slot) = read_slot.get(&v) {
                    WriteSrc::Read(slot)
                } else if is_env_scalar(ctx, loop_body, &v) {
                    WriteSrc::Env(slot_of(&mut plan.scalars, &mut scalar_slot, v))
                } else {
                    ir_bail!("stage plan: write of unsupported value");
                };
                plan.actions.push(Action::Write { src, stream: s });
            }
            "arith.constant" => {
                let attr = ctx
                    .attr(op, "value")
                    .ok_or_else(|| ir_error!("arith.constant without value"))?;
                match attr {
                    Attribute::Float(v, _) => {
                        let r = builder.constant(*v);
                        floats.insert(ctx.result(op, 0), r);
                    }
                    Attribute::Int(v, _) => {
                        let dst = int_reg(&mut plan);
                        plan.int_prog.push(IntInstr::Const { dst, value: *v });
                        ints.insert(ctx.result(op, 0), dst);
                    }
                    other => ir_bail!("stage plan: unsupported constant {other}"),
                }
            }
            "llvm.extractvalue" => {
                let &slot = read_slot
                    .get(&operands[0])
                    .ok_or_else(|| ir_error!("stage plan: extract from non-read value"))?;
                let position = ctx
                    .attr(op, "position")
                    .and_then(Attribute::as_index_array)
                    .ok_or_else(|| ir_error!("llvm.extractvalue without position"))?;
                let elem = *position
                    .last()
                    .ok_or_else(|| ir_error!("empty extractvalue position"))?;
                ir_ensure!(elem >= 0, "stage plan: negative pack position");
                let r = builder.input(InputRef::PackElem {
                    read: u16::try_from(slot)
                        .map_err(|_| ir_error!("stage plan: read slot overflow"))?,
                    elem: u32::try_from(elem)
                        .map_err(|_| ir_error!("stage plan: pack position overflow"))?,
                });
                floats.insert(ctx.result(op, 0), r);
            }
            "memref.load" => {
                ir_ensure!(
                    operands.len() == 2,
                    "stage plan: only 1-D parameter loads supported"
                );
                ir_ensure!(
                    ctx.defining_op(operands[0])
                        .map(|d| !op_in_block(ctx, d, loop_body))
                        .unwrap_or(true),
                    "stage plan: load from loop-local memref"
                );
                let p = slot_of(&mut plan.params, &mut param_slot, operands[0]);
                let &idx = ints
                    .get(&operands[1])
                    .ok_or_else(|| ir_error!("stage plan: non-planned load index"))?;
                let r = builder.input(InputRef::ParamLoad {
                    operand: u16::try_from(p)
                        .map_err(|_| ir_error!("stage plan: param slot overflow"))?,
                    dim: u8::try_from(idx)
                        .map_err(|_| ir_error!("stage plan: int register overflow"))?,
                    shift: 0,
                });
                floats.insert(ctx.result(op, 0), r);
            }
            other => {
                let unsupported = || ir_error!("stage plan: unsupported loop op `{other}`");
                match scalar::lookup(other).ok_or_else(unsupported)?.eval {
                    Eval::Int(int) => {
                        let reg = |v: &ValueId| {
                            ints.get(v)
                                .copied()
                                .ok_or_else(|| ir_error!("stage plan: non-planned integer operand"))
                        };
                        let (lhs, rhs) = (reg(&operands[0])?, reg(&operands[1])?);
                        let dst = int_reg(&mut plan);
                        plan.int_prog.push(IntInstr::Bin {
                            op: int,
                            dst,
                            lhs,
                            rhs,
                        });
                        ints.insert(ctx.result(op, 0), dst);
                    }
                    eval if eval.is_float() => {
                        let args = operands
                            .iter()
                            .map(|&v| {
                                float_use(
                                    ctx,
                                    loop_body,
                                    &mut builder,
                                    &mut floats,
                                    &read_slot,
                                    &mut plan.scalars,
                                    &mut scalar_slot,
                                    v,
                                )
                            })
                            .collect::<IrResult<Vec<_>>>()?;
                        let r = builder.emit(eval, &args).ok_or_else(unsupported)?;
                        floats.insert(ctx.result(op, 0), r);
                    }
                    _ => return Err(unsupported()),
                }
            }
        }
    }
    Ok(plan)
}

/// Is `v` a scalar `f64` defined outside `block` (a kernel constant or
/// other environment value)?
fn is_env_scalar(ctx: &Context, block: shmls_ir::ir::BlockId, v: &ValueId) -> bool {
    matches!(ctx.value_type(*v), Type::F64)
        && ctx
            .defining_op(*v)
            .map(|d| !op_in_block(ctx, d, block))
            .unwrap_or(true)
}

fn op_in_block(ctx: &Context, op: OpId, block: shmls_ir::ir::BlockId) -> bool {
    ctx.block_ops(block).contains(&op)
}

/// Resolve a float operand inside the current segment: a computed value,
/// a scalar stream read, or an environment scalar promoted to an input.
#[allow(clippy::too_many_arguments)]
fn float_use(
    ctx: &Context,
    loop_body: shmls_ir::ir::BlockId,
    builder: &mut ProgramBuilder,
    floats: &mut HashMap<ValueId, VReg>,
    read_slot: &HashMap<ValueId, usize>,
    scalars: &mut Vec<ValueId>,
    scalar_slot: &mut HashMap<ValueId, usize>,
    v: ValueId,
) -> IrResult<VReg> {
    if let Some(&r) = floats.get(&v) {
        return Ok(r);
    }
    if let Some(&slot) = read_slot.get(&v) {
        let r = builder.input(InputRef::ReadScalar {
            read: u16::try_from(slot).map_err(|_| ir_error!("stage plan: read slot overflow"))?,
        });
        floats.insert(v, r);
        return Ok(r);
    }
    if is_env_scalar(ctx, loop_body, &v) {
        let slot = *scalar_slot.entry(v).or_insert_with(|| {
            scalars.push(v);
            scalars.len() - 1
        });
        let r = builder.input(InputRef::Scalar {
            operand: u16::try_from(slot)
                .map_err(|_| ir_error!("stage plan: scalar slot overflow"))?,
        });
        floats.insert(v, r);
        return Ok(r);
    }
    Err(ir_error!("stage plan: unresolvable float operand"))
}

// ---- execution -----------------------------------------------------------

/// Execute a [`StagePlan`] against the stage's environment and store,
/// using `io` for all stream traffic (so the threaded engine's stall
/// detection and deadlock reporting work unchanged).
pub fn run_stage_plan(
    plan: &StagePlan,
    env: &HashMap<ValueId, RtValue>,
    store: &Store,
    io: &mut impl StreamIo,
) -> IrResult<()> {
    let get = |v: &ValueId| {
        env.get(v)
            .ok_or_else(|| ir_error!("stage plan: unbound environment value"))
    };
    let streams = plan
        .streams
        .iter()
        .map(|v| get(v)?.as_stream())
        .collect::<IrResult<Vec<_>>>()?;
    let scalars = plan
        .scalars
        .iter()
        .map(|v| get(v)?.as_f64())
        .collect::<IrResult<Vec<_>>>()?;
    let params = plan
        .params
        .iter()
        .map(|v| -> IrResult<&Buffer> {
            let buf = store.get(get(v)?.as_memref()?)?;
            ir_ensure!(buf.shape.len() == 1, "stage plan: parameter is not 1-D");
            Ok(buf)
        })
        .collect::<IrResult<Vec<_>>>()?;

    let mut int_regs = vec![0i64; plan.n_int_regs];
    let max_regs = plan
        .actions
        .iter()
        .map(|a| match a {
            Action::Eval { prog, .. } => prog.n_regs as usize,
            _ => 0,
        })
        .max()
        .unwrap_or(0);
    let mut regs = vec![0.0f64; max_regs];
    let mut reads: Vec<RtValue> = vec![RtValue::Unit; plan.n_reads];
    let mut evals = vec![0.0f64; plan.n_evals];

    for iter in 0..plan.trips {
        int_regs[0] = iter;
        for instr in &plan.int_prog {
            match *instr {
                IntInstr::Const { dst, value } => int_regs[dst] = value,
                IntInstr::Bin { op, dst, lhs, rhs } => {
                    int_regs[dst] = int_op(op, int_regs[lhs], int_regs[rhs])?;
                }
            }
        }
        for action in &plan.actions {
            match action {
                Action::Read { slot, stream } => {
                    reads[*slot] = io.pop(streams[*stream])?;
                }
                Action::Eval { prog, dst } => {
                    for (i, input) in prog.inputs.iter().enumerate() {
                        regs[i] = match input {
                            InputRef::Scalar { operand } => scalars[*operand as usize],
                            InputRef::ReadScalar { read } => reads[*read as usize].as_f64()?,
                            InputRef::PackElem { read, elem } => {
                                let pack = reads[*read as usize].as_pack()?;
                                let at = *elem as usize;
                                ir_ensure!(
                                    at < pack.len(),
                                    "stage plan: pack position {at} out of range"
                                );
                                pack[at]
                            }
                            InputRef::ParamLoad {
                                operand,
                                dim,
                                shift,
                            } => {
                                let buf = params[*operand as usize];
                                let pos = int_regs[*dim as usize] + shift - buf.origin[0];
                                ir_ensure!(
                                    pos >= 0 && pos < buf.shape[0],
                                    "stage plan: parameter index out of bounds"
                                );
                                buf.data[pos as usize]
                            }
                            InputRef::Access { .. } => {
                                ir_bail!("stage plan: stencil access is not valid in a stage")
                            }
                        };
                    }
                    prog.run(&mut regs);
                    evals[*dst] = regs[prog.results[0] as usize];
                }
                Action::Write { src, stream } => {
                    let value = match src {
                        WriteSrc::Eval(slot) => RtValue::F64(evals[*slot]),
                        WriteSrc::Read(slot) => reads[*slot].clone(),
                        WriteSrc::Env(slot) => RtValue::F64(scalars[*slot]),
                    };
                    io.push(streams[*stream], value)?;
                }
            }
        }
    }
    Ok(())
}

/// The plan's operation mix: each executed opcode counted under the
/// [`Cost`](scalar::Cost) its op's row in [`scalar::TABLE`] carries — the
/// classification [`crate::design`] applies when it walks the IR for a
/// [`Stage::Compute`](crate::design::Stage) descriptor. Two independent
/// walks (IR there, compiled plan here) under one classification, so the
/// cycle model's per-iteration work and the bytecode that actually
/// executes can be cross-checked against each other.
pub fn plan_op_mix(plan: &StagePlan) -> OpMix {
    let mut mix = OpMix::default();
    let mut count = |eval| {
        if let Some(cost) = scalar::cost_of(eval) {
            mix.count(cost);
        }
    };
    for instr in &plan.int_prog {
        if let IntInstr::Bin { op, .. } = instr {
            count(Eval::Int(*op));
        }
    }
    for action in &plan.actions {
        if let Action::Eval { prog, .. } = action {
            for instr in &prog.instrs {
                match *instr {
                    Instr::Unary { op, .. } => count(Eval::Un(op)),
                    Instr::Binary { op, .. } => count(Eval::Bin(op)),
                    Instr::Fma { .. } => count(Eval::Fma),
                    Instr::Const { .. } => {}
                }
            }
        }
    }
    mix
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmls_dialects::builtin::create_module;
    use shmls_dialects::{arith, func as fdial};
    use shmls_ir::builder::OpBuilder;

    /// In-memory FIFO transport for direct plan tests.
    #[derive(Default)]
    struct VecIo {
        queues: Vec<std::collections::VecDeque<RtValue>>,
    }

    impl StreamIo for VecIo {
        fn pop(&mut self, handle: usize) -> IrResult<RtValue> {
            self.queues[handle]
                .pop_front()
                .ok_or_else(|| ir_error!("pop from empty test stream {handle}"))
        }
        fn push(&mut self, handle: usize, value: RtValue) -> IrResult<()> {
            self.queues[handle].push_back(value);
            Ok(())
        }
    }

    /// Build a module with one dataflow stage:
    /// `for i in 0..4 { v = read(s0); write(v * 2.0 + w, s1) }`
    /// where `w` is a function argument.
    fn compute_stage_module() -> (Context, OpId, OpId, ValueId, ValueId, ValueId) {
        let mut ctx = Context::new();
        let (module, body) = create_module(&mut ctx);
        let (_f, entry) = fdial::create_func(&mut ctx, body, "k", vec![Type::F64], vec![]);
        let w = ctx.block_args(entry)[0];
        let mut b = OpBuilder::at_block_end(&mut ctx, entry);
        let s0 = hls::create_stream(&mut b, Type::F64, 4);
        let s1 = hls::create_stream(&mut b, Type::F64, 4);
        let (df, dfb) = hls::dataflow(&mut b);
        let mut ib = OpBuilder::at_block_end(&mut ctx, dfb);
        let lb = arith::constant_index(&mut ib, 0);
        let ub = arith::constant_index(&mut ib, 4);
        let st = arith::constant_index(&mut ib, 1);
        let (_for_op, lbody) = shmls_dialects::scf::for_loop(&mut ib, lb, ub, st, vec![]);
        let mut lb2 = OpBuilder::at_block_end(&mut ctx, lbody);
        hls::pipeline(&mut lb2, 1);
        let v = hls::read(&mut lb2, s0);
        let two = arith::constant_f64(&mut lb2, 2.0);
        let scaled = arith::mulf(&mut lb2, v, two);
        let shifted = arith::addf(&mut lb2, scaled, w);
        hls::write(&mut lb2, shifted, s1);
        shmls_dialects::scf::yield_op(&mut lb2, vec![]);
        let mut b = OpBuilder::at_block_end(&mut ctx, entry);
        fdial::ret(&mut b, vec![]);
        (ctx, module, df, s0, s1, w)
    }

    #[test]
    fn compute_stage_plans_and_runs() {
        let (ctx, _m, df, s0, s1, w) = compute_stage_module();
        let plan = plan_stage(&ctx, df).expect("stage should plan");
        assert_eq!(plan.trips, 4);
        assert_eq!(plan.n_reads, 1);
        assert_eq!(plan.n_evals, 1);

        let mut env: HashMap<ValueId, RtValue> = HashMap::new();
        env.insert(s0, RtValue::Stream(0));
        env.insert(s1, RtValue::Stream(1));
        env.insert(w, RtValue::F64(0.25));
        let store = Store::default();
        let mut io = VecIo {
            queues: vec![Default::default(), Default::default()],
        };
        for i in 0..4 {
            io.queues[0].push_back(RtValue::F64(i as f64 + 0.5));
        }
        run_stage_plan(&plan, &env, &store, &mut io).unwrap();
        let out: Vec<f64> = io.queues[1].iter().map(|v| v.as_f64().unwrap()).collect();
        assert_eq!(out, vec![1.25, 3.25, 5.25, 7.25]);
    }

    #[test]
    fn plan_op_mix_matches_hand_count() {
        let (ctx, _m, df, ..) = compute_stage_module();
        let plan = plan_stage(&ctx, df).unwrap();
        let mix = plan_op_mix(&plan);
        assert_eq!((mix.fadd, mix.fmul, mix.fdiv, mix.ialu), (1, 1, 0, 0));
    }

    /// A module with one dataflow stage, `for i in 0..1 { body }`, over
    /// `n_streams` f64 streams that `body` is handed.
    fn one_trip_stage(
        n_streams: usize,
        body: impl FnOnce(&mut OpBuilder<'_>, &[ValueId]),
    ) -> (Context, OpId, Vec<ValueId>) {
        let mut ctx = Context::new();
        let (_module, top) = create_module(&mut ctx);
        let (_f, entry) = fdial::create_func(&mut ctx, top, "k", vec![], vec![]);
        let mut b = OpBuilder::at_block_end(&mut ctx, entry);
        let streams: Vec<ValueId> = (0..n_streams)
            .map(|_| hls::create_stream(&mut b, Type::F64, 4))
            .collect();
        let (df, dfb) = hls::dataflow(&mut b);
        let mut ib = OpBuilder::at_block_end(&mut ctx, dfb);
        let lb = arith::constant_index(&mut ib, 0);
        let one = arith::constant_index(&mut ib, 1);
        let (_for_op, lbody) = shmls_dialects::scf::for_loop(&mut ib, lb, one, one, vec![]);
        let mut lb2 = OpBuilder::at_block_end(&mut ctx, lbody);
        hls::pipeline(&mut lb2, 1);
        body(&mut lb2, &streams);
        shmls_dialects::scf::yield_op(&mut lb2, vec![]);
        let mut b = OpBuilder::at_block_end(&mut ctx, entry);
        fdial::ret(&mut b, vec![]);
        (ctx, df, streams)
    }

    /// Run a [`one_trip_stage`]'s plan with `inputs[i]` queued on stream
    /// `i`; the last stream is the output.
    fn run_one_trip(
        plan: &StagePlan,
        streams: &[ValueId],
        inputs: &[f64],
    ) -> IrResult<Option<RtValue>> {
        let env = streams
            .iter()
            .enumerate()
            .map(|(i, &s)| (s, RtValue::Stream(i)))
            .collect();
        let mut io = VecIo {
            queues: vec![Default::default(); streams.len()],
        };
        for (queue, &v) in io.queues.iter_mut().zip(inputs) {
            queue.push_back(RtValue::F64(v));
        }
        run_stage_plan(plan, &env, &Store::default(), &mut io)?;
        Ok(io.queues[streams.len() - 1].pop_front())
    }

    #[test]
    fn planned_integer_division_shares_the_interpreters_checks() {
        type Build = fn(&mut OpBuilder<'_>, ValueId, ValueId) -> ValueId;
        for divide in [arith::divsi as Build, arith::remsi] {
            for (a, b, why) in [
                (7, 0, "division by zero"),
                (i64::MIN, -1, "signed overflow"),
            ] {
                let (ctx, df, streams) = one_trip_stage(2, |lb, s| {
                    let (a, b) = (arith::constant_index(lb, a), arith::constant_index(lb, b));
                    divide(lb, a, b);
                    let v = hls::read(lb, s[0]);
                    hls::write(lb, v, s[1]);
                });
                let plan = plan_stage(&ctx, df).expect("stage should plan");
                assert!(plan
                    .int_prog
                    .iter()
                    .any(|i| matches!(i, IntInstr::Bin { .. })));
                let e = run_one_trip(&plan, &streams, &[1.0]).unwrap_err();
                assert!(e.to_string().contains(why), "{a} by {b}: {e}");
            }
        }
    }

    /// Every `Un` / `Bin` / `Fma` row of the scalar table, evaluated by the
    /// tree-walker, `Program::run`, `Program::run_lanes` and a planned
    /// stage over special and seeded operands, must agree to the bit.
    #[test]
    fn every_float_row_agrees_bitwise_across_the_four_evaluators() {
        use shmls_ir::bytecode::LANES;
        use shmls_ir::interp::{Machine, NoExtern};

        let mut rng = shmls_ir::rng::Rng::new(19);
        let values = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE / 8.0, // subnormal
            -1.0,
            rng.coarse_f64(0.1, 9.0) / 7.0,
            -rng.coarse_f64(1.0, 900.0) / 3.0,
        ];
        let mut rows = 0;
        for row in scalar::TABLE.iter().filter(|row| row.eval.is_float()) {
            rows += 1;
            let n = row.operands.len();

            // Tree-walker: `main(args…) -> op(args…)`.
            let mut tctx = Context::new();
            let (tmodule, top) = create_module(&mut tctx);
            let (_f, entry) =
                fdial::create_func(&mut tctx, top, "main", vec![Type::F64; n], vec![Type::F64]);
            let params = tctx.block_args(entry).to_vec();
            let mut b = OpBuilder::at_block_end(&mut tctx, entry);
            let r = b.build_value(row.name, params, Type::F64);
            fdial::ret(&mut b, vec![r]);

            // The bytecode program, for the scalar and the lane loop.
            let mut pb = ProgramBuilder::new();
            let ins: Vec<VReg> = (0..n as u16)
                .map(|operand| pb.input(InputRef::Scalar { operand }))
                .collect();
            let r = pb.emit(row.eval, &ins).expect("a float row emits");
            let prog = pb.finish(&[r]).unwrap();

            // A stage planned from IR: read n streams, apply, write.
            let (sctx, df, streams) = one_trip_stage(n + 1, |lb, s| {
                let args = s[..n].iter().map(|&s| hls::read(lb, s)).collect();
                let r = lb.build_value(row.name, args, Type::F64);
                hls::write(lb, r, s[n]);
            });
            let plan = plan_stage(&sctx, df).expect("a float row plans");
            let evals = plan
                .actions
                .iter()
                .filter(|a| matches!(a, Action::Eval { .. }));
            assert_eq!(evals.count(), 1, "{}", row.name);

            for case in 0..values.len().pow(n as u32) {
                let args: Vec<f64> = (0..n as u32)
                    .map(|i| values[case / values.len().pow(i) % values.len()])
                    .collect();

                let rt: Vec<RtValue> = args.iter().map(|&v| RtValue::F64(v)).collect();
                let mut no = NoExtern;
                let tree = Machine::new(&tctx, tmodule, &mut no)
                    .call("main", &rt)
                    .unwrap()[0]
                    .as_f64()
                    .unwrap();

                let mut regs = vec![0.0; prog.n_regs as usize];
                regs[..n].copy_from_slice(&args);
                prog.run(&mut regs);
                let run = regs[prog.results[0] as usize];

                // The case's operands ride in one lane; the others carry
                // different values, which must not leak across.
                let lane = case % LANES;
                let mut lanes = vec![[0.0; LANES]; prog.n_regs as usize];
                for (i, reg) in lanes.iter_mut().enumerate().take(n) {
                    for (l, slot) in reg.iter_mut().enumerate() {
                        *slot = values[(case + i + l) % values.len()];
                    }
                    reg[lane] = args[i];
                }
                prog.run_lanes(&mut lanes);
                let laned = lanes[prog.results[0] as usize][lane];

                let staged = run_one_trip(&plan, &streams, &args)
                    .unwrap()
                    .expect("the stage writes one value")
                    .as_f64()
                    .unwrap();

                for (tier, got) in [("run", run), ("run_lanes", laned), ("stage plan", staged)] {
                    assert_eq!(
                        got.to_bits(),
                        tree.to_bits(),
                        "{}{args:?}: {tier} gives {got}, the tree-walker {tree}",
                        row.name
                    );
                }
            }
        }
        assert_eq!(rows, 13, "4 unary, 8 binary and fma");
    }

    #[test]
    fn runtime_call_stage_does_not_plan() {
        let mut ctx = Context::new();
        let (_module, body) = create_module(&mut ctx);
        let (_f, entry) = fdial::create_func(&mut ctx, body, "k", vec![], vec![]);
        let mut b = OpBuilder::at_block_end(&mut ctx, entry);
        let (df, dfb) = hls::dataflow(&mut b);
        let mut ib = OpBuilder::at_block_end(&mut ctx, dfb);
        fdial::call(&mut ib, "load_data", vec![], vec![]);
        assert!(plan_stage(&ctx, df).is_none());
    }

    #[test]
    fn dup_stage_forwards_packs_verbatim() {
        // read s0 → write to both s1 and s2, including Pack values.
        let mut ctx = Context::new();
        let (_module, body) = create_module(&mut ctx);
        let (_f, entry) = fdial::create_func(&mut ctx, body, "k", vec![], vec![]);
        let mut b = OpBuilder::at_block_end(&mut ctx, entry);
        let s0 = hls::create_stream(&mut b, Type::F64, 2);
        let s1 = hls::create_stream(&mut b, Type::F64, 2);
        let s2 = hls::create_stream(&mut b, Type::F64, 2);
        let (df, dfb) = hls::dataflow(&mut b);
        let mut ib = OpBuilder::at_block_end(&mut ctx, dfb);
        let lb = arith::constant_index(&mut ib, 0);
        let ub = arith::constant_index(&mut ib, 2);
        let st = arith::constant_index(&mut ib, 1);
        let (_for_op, lbody) = shmls_dialects::scf::for_loop(&mut ib, lb, ub, st, vec![]);
        let mut lb2 = OpBuilder::at_block_end(&mut ctx, lbody);
        hls::pipeline(&mut lb2, 1);
        let v = hls::read(&mut lb2, s0);
        hls::write(&mut lb2, v, s1);
        hls::write(&mut lb2, v, s2);
        shmls_dialects::scf::yield_op(&mut lb2, vec![]);
        let mut b = OpBuilder::at_block_end(&mut ctx, entry);
        fdial::ret(&mut b, vec![]);

        let plan = plan_stage(&ctx, df).expect("dup stage should plan");
        let mut env: HashMap<ValueId, RtValue> = HashMap::new();
        env.insert(s0, RtValue::Stream(0));
        env.insert(s1, RtValue::Stream(1));
        env.insert(s2, RtValue::Stream(2));
        let mut io = VecIo {
            queues: vec![Default::default(), Default::default(), Default::default()],
        };
        io.queues[0].push_back(RtValue::pack(vec![1.0, 2.0]));
        io.queues[0].push_back(RtValue::F64(9.0));
        run_stage_plan(&plan, &env, &Store::default(), &mut io).unwrap();
        assert_eq!(io.queues[1].len(), 2);
        assert_eq!(io.queues[2].len(), 2);
        assert_eq!(io.queues[1][0].as_pack().unwrap(), &[1.0, 2.0]);
        assert_eq!(io.queues[2][1].as_f64().unwrap(), 9.0);
    }
}
