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
//! [`BLOCK`](shmls_ir::bytecode::BLOCK)-wide blocks: a stage's reads
//! and writes interleave with other stages through bounded FIFOs, and
//! batching N iterations' pops before their pushes would change the
//! occupancy pattern the deadlock and cycle models are validating. The
//! sharing is the opcode *semantics*, not the traversal schedule.

#![deny(clippy::too_many_lines)]

use shmls_dialects::{hls, scf};
use shmls_ir::attributes::Attribute;
use shmls_ir::bytecode::{InputRef, Program, ProgramBuilder, VReg};
use shmls_ir::error::IrResult;
use shmls_ir::interp::{Buffer, RtValue, Store};
use shmls_ir::ir::{BlockId, Context, IdMap, OpId, ValueId};
use shmls_ir::scalar::{self, int_op, Eval, IntOp};
use shmls_ir::types::Type;
use shmls_ir::{ir_bail, ir_ensure, ir_error};

use crate::design::LoopStage;
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
#[derive(Debug, Clone, Default, PartialEq)]
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
    let stage = LoopStage::read(ctx, stage).ok()?;
    let mut planner = Planner::new(ctx, &stage);
    for &op in ctx.block_ops(stage.body) {
        if ctx.op_name(op) == scf::YIELD {
            break;
        }
        planner.op(op).ok()?;
    }
    Some(planner.plan)
}

/// `v`'s slot in the (short) environment table `table`, appended on first
/// use.
fn slot_of(table: &mut Vec<ValueId>, v: ValueId) -> usize {
    table.iter().position(|&t| t == v).unwrap_or_else(|| {
        table.push(v);
        table.len() - 1
    })
}

/// The plan under construction, with where every SSA value of the loop
/// body lives: an integer register, a read slot, the current float
/// segment, or a slot of one of the plan's environment tables.
struct Planner<'c> {
    ctx: &'c Context,
    loop_body: BlockId,
    plan: StagePlan,
    ints: IdMap<ValueId, usize>,
    read_slot: IdMap<ValueId, usize>,
    /// Current float segment (flushed into an `Eval` at each write).
    builder: ProgramBuilder,
    floats: IdMap<ValueId, VReg>,
}

/// Narrow a slot number to the width the bytecode's operands have.
fn narrow<T: TryFrom<usize>>(slot: usize, what: &str) -> IrResult<T> {
    T::try_from(slot).map_err(|_| ir_error!("stage plan: {what} overflow"))
}

impl<'c> Planner<'c> {
    fn new(ctx: &'c Context, stage: &LoopStage) -> Self {
        Planner {
            ctx,
            loop_body: stage.body,
            plan: StagePlan {
                trips: stage.trips as i64,
                n_int_regs: 1, // register 0 = induction variable
                ..Default::default()
            },
            ints: IdMap::from_iter([(stage.induction, 0)]),
            read_slot: IdMap::default(),
            builder: ProgramBuilder::new(),
            floats: IdMap::default(),
        }
    }

    /// Plan one op of the loop body, by family.
    fn op(&mut self, op: OpId) -> IrResult<()> {
        match self.ctx.op_name(op) {
            hls::PIPELINE | hls::UNROLL => Ok(()),
            hls::READ => self.read(op),
            hls::WRITE => self.write(op),
            "arith.constant" => self.constant(op),
            "llvm.extractvalue" => self.pack_extract(op),
            "memref.load" => self.param_load(op),
            other => self.scalar_op(op, other),
        }
    }

    fn int_reg(&mut self) -> usize {
        self.plan.n_int_regs += 1;
        self.plan.n_int_regs - 1
    }

    fn read(&mut self, op: OpId) -> IrResult<()> {
        let s = slot_of(&mut self.plan.streams, self.ctx.operands(op)[0]);
        let slot = self.plan.n_reads;
        self.plan.n_reads += 1;
        self.plan.actions.push(Action::Read { slot, stream: s });
        self.read_slot.insert(self.ctx.result(op, 0), slot);
        Ok(())
    }

    fn write(&mut self, op: OpId) -> IrResult<()> {
        let (v, stream) = (self.ctx.operands(op)[0], self.ctx.operands(op)[1]);
        let s = slot_of(&mut self.plan.streams, stream);
        let src = if let Some(&r) = self.floats.get(&v) {
            // Flush the pending float segment; its result is what this
            // write sends.
            let prog = std::mem::take(&mut self.builder).finish(&[r])?;
            self.floats.clear();
            let dst = self.plan.n_evals;
            self.plan.n_evals += 1;
            self.plan.actions.push(Action::Eval { prog, dst });
            WriteSrc::Eval(dst)
        } else if let Some(&slot) = self.read_slot.get(&v) {
            WriteSrc::Read(slot)
        } else if self.is_env_scalar(v) {
            WriteSrc::Env(slot_of(&mut self.plan.scalars, v))
        } else {
            ir_bail!("stage plan: write of unsupported value");
        };
        self.plan.actions.push(Action::Write { src, stream: s });
        Ok(())
    }

    fn constant(&mut self, op: OpId) -> IrResult<()> {
        let attr = self
            .ctx
            .attr(op, "value")
            .ok_or_else(|| ir_error!("arith.constant without value"))?;
        match attr {
            Attribute::Float(v, _) => {
                let r = self.builder.constant(*v);
                self.floats.insert(self.ctx.result(op, 0), r);
            }
            Attribute::Int(v, _) => {
                let dst = self.int_reg();
                self.plan.int_prog.push(IntInstr::Const { dst, value: *v });
                self.ints.insert(self.ctx.result(op, 0), dst);
            }
            other => ir_bail!("stage plan: unsupported constant {other}"),
        }
        Ok(())
    }

    fn pack_extract(&mut self, op: OpId) -> IrResult<()> {
        let &slot = self
            .read_slot
            .get(&self.ctx.operands(op)[0])
            .ok_or_else(|| ir_error!("stage plan: extract from non-read value"))?;
        let position = self
            .ctx
            .attr(op, "position")
            .and_then(Attribute::as_index_array)
            .ok_or_else(|| ir_error!("llvm.extractvalue without position"))?;
        let elem = *position
            .last()
            .ok_or_else(|| ir_error!("empty extractvalue position"))?;
        ir_ensure!(elem >= 0, "stage plan: negative pack position");
        let r = self.builder.input(InputRef::PackElem {
            read: narrow(slot, "read slot")?,
            elem: narrow(elem as usize, "pack position")?,
        });
        self.floats.insert(self.ctx.result(op, 0), r);
        Ok(())
    }

    fn param_load(&mut self, op: OpId) -> IrResult<()> {
        let operands = self.ctx.operands(op);
        ir_ensure!(
            operands.len() == 2,
            "stage plan: only 1-D parameter loads supported"
        );
        ir_ensure!(
            self.is_outside_loop(operands[0]),
            "stage plan: load from loop-local memref"
        );
        let p = slot_of(&mut self.plan.params, operands[0]);
        let &idx = self
            .ints
            .get(&operands[1])
            .ok_or_else(|| ir_error!("stage plan: non-planned load index"))?;
        let r = self.builder.input(InputRef::ParamLoad {
            operand: narrow(p, "param slot")?,
            dim: narrow(idx, "int register")?,
            shift: 0,
        });
        self.floats.insert(self.ctx.result(op, 0), r);
        Ok(())
    }

    /// An op of [`scalar::TABLE`]: integer ops join the per-iteration
    /// integer program, float ops the current float segment.
    fn scalar_op(&mut self, op: OpId, name: &str) -> IrResult<()> {
        let unsupported = || ir_error!("stage plan: unsupported loop op `{name}`");
        let operands = self.ctx.operands(op);
        match scalar::lookup(name).ok_or_else(unsupported)?.eval {
            Eval::Int(int) => {
                let reg = |v: &ValueId| {
                    self.ints
                        .get(v)
                        .copied()
                        .ok_or_else(|| ir_error!("stage plan: non-planned integer operand"))
                };
                let (lhs, rhs) = (reg(&operands[0])?, reg(&operands[1])?);
                let dst = self.int_reg();
                self.plan.int_prog.push(IntInstr::Bin {
                    op: int,
                    dst,
                    lhs,
                    rhs,
                });
                self.ints.insert(self.ctx.result(op, 0), dst);
            }
            eval if eval.is_float() => {
                let args = operands
                    .iter()
                    .map(|&v| self.float_use(v))
                    .collect::<IrResult<Vec<_>>>()?;
                let r = self.builder.emit(eval, &args).ok_or_else(unsupported)?;
                self.floats.insert(self.ctx.result(op, 0), r);
            }
            _ => return Err(unsupported()),
        }
        Ok(())
    }

    /// Resolve a float operand inside the current segment: a computed
    /// value, a scalar stream read, or an environment scalar promoted to
    /// an input.
    fn float_use(&mut self, v: ValueId) -> IrResult<VReg> {
        if let Some(&r) = self.floats.get(&v) {
            return Ok(r);
        }
        let input = if let Some(&slot) = self.read_slot.get(&v) {
            InputRef::ReadScalar {
                read: narrow(slot, "read slot")?,
            }
        } else if self.is_env_scalar(v) {
            let slot = slot_of(&mut self.plan.scalars, v);
            InputRef::Scalar {
                operand: narrow(slot, "scalar slot")?,
            }
        } else {
            ir_bail!("stage plan: unresolvable float operand");
        };
        let r = self.builder.input(input);
        self.floats.insert(v, r);
        Ok(r)
    }

    /// Is `v` defined outside the loop body (an environment value)?
    fn is_outside_loop(&self, v: ValueId) -> bool {
        let in_body = |def| self.ctx.block_ops(self.loop_body).contains(&def);
        !self.ctx.defining_op(v).is_some_and(in_body)
    }

    /// Is `v` a scalar `f64` of the environment (a kernel constant)?
    fn is_env_scalar(&self, v: ValueId) -> bool {
        matches!(self.ctx.value_type(v), Type::F64) && self.is_outside_loop(v)
    }
}

// ---- execution -----------------------------------------------------------

/// What input `input` of a float program reads this iteration.
fn input_value(
    input: &InputRef,
    scalars: &[f64],
    reads: &[RtValue],
    params: &[&Buffer],
    int_regs: &[i64],
) -> IrResult<f64> {
    Ok(match input {
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
        InputRef::Access { .. } => ir_bail!("stage plan: stencil access is not valid in a stage"),
    })
}

/// Execute a [`StagePlan`] against the stage's environment and store,
/// using `io` for all stream traffic (so the threaded engine's stall
/// detection and deadlock reporting work unchanged).
pub fn run_stage_plan(
    plan: &StagePlan,
    env: &IdMap<ValueId, RtValue>,
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
    let mut regs: Vec<f64> = Vec::new(); // grown to the widest program met
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
                    if regs.len() < prog.n_regs as usize {
                        regs.resize(prog.n_regs as usize, 0.0);
                    }
                    for (reg, input) in regs.iter_mut().zip(&prog.inputs) {
                        *reg = input_value(input, &scalars, &reads, &params, &int_regs)?;
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

        let mut env: IdMap<ValueId, RtValue> = IdMap::default();
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
    /// tree-walker, `Program::run`, `Program::run_block` (in one lane of
    /// a full block and one of a partial block) and a planned stage over
    /// special and seeded operands, must agree to the bit.
    #[test]
    fn every_float_row_agrees_bitwise_across_the_four_evaluators() {
        use shmls_ir::bytecode::BLOCK;
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

                // The case's operands ride in one lane of a full block
                // and one of a partial block; the other lanes carry
                // different values, which must not leak across.
                let blocked = [(BLOCK, case % BLOCK), (case % 7 + 1, case % (case % 7 + 1))].map(
                    |(width, lane)| {
                        let mut inputs = vec![0.0; n * BLOCK];
                        for (i, reg) in inputs.chunks_mut(BLOCK).enumerate() {
                            for (l, slot) in reg.iter_mut().enumerate() {
                                *slot = values[(case + i + l) % values.len()];
                            }
                            reg[lane] = args[i];
                        }
                        let input = |i: usize| &inputs[i * BLOCK..][..width];
                        let mut temps = vec![0.0; prog.block_temps()];
                        prog.run_block(width, input, &mut temps);
                        prog.block_lanes(prog.results[0], width, input, &temps)[lane]
                    },
                );

                let staged = run_one_trip(&plan, &streams, &args)
                    .unwrap()
                    .expect("the stage writes one value")
                    .as_f64()
                    .unwrap();

                for (tier, got) in [
                    ("run", run),
                    ("run_block (full)", blocked[0]),
                    ("run_block (partial)", blocked[1]),
                    ("stage plan", staged),
                ] {
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
        let mut env: IdMap<ValueId, RtValue> = IdMap::default();
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
