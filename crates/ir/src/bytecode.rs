//! Bytecode compilation tier for `stencil.apply` bodies.
//!
//! The tree-walking [`Machine`](crate::interp::Machine) re-traverses the
//! apply region once per grid point: every op pays a `HashMap` lookup per
//! operand, a `HashMap` insert per result and an allocation for its operand
//! vector. This module compiles the region *once* into a flat,
//! register-based program that the inner loop then executes with nothing
//! but slice indexing — the classic split-compilation move (compile the
//! per-point compute once, run it millions of times).
//!
//! ## The ISA
//!
//! A [`Program`] is three tables:
//!
//! * `inputs` — how to fill the low registers before each point: a stencil
//!   access (buffer + constant offset), a small-data parameter load
//!   (`param[index[dim] + shift]`), a scalar operand, or — for the FPGA
//!   simulator's stage plans — an element of a window pack / a scalar
//!   stream read. Input `i` always lands in register `i`.
//! * `instrs` — straight-line register code: `Const`, `Unary`, `Binary`,
//!   `Fma`. There is no control flow; anything that needs it fails to
//!   compile and falls back to the tree-walker.
//! * `results` — which registers hold the values a `stencil.return` /
//!   `hls.write` would yield.
//!
//! ## Bitwise contract
//!
//! Every opcode executes through the functions the tree-walker calls
//! ([`un_op`], [`bin_op`], `f64::mul_add`), so a compiled program is
//! bitwise-identical to interpretation — including NaN propagation and
//! signed zeros. The conformance suite enforces this with
//! differential fuzzing; the interpreter stays the oracle.
//!
//! ## Register allocation
//!
//! [`ProgramBuilder`] emits SSA-ish virtual registers and assigns physical
//! registers in [`ProgramBuilder::finish`] with a last-use free list:
//! inputs are pinned to registers `0..n_inputs`, every other register is
//! recycled the moment its value dies. Kernels with dozens of ops
//! typically fit in a handful of registers.

use std::cmp::Ordering;

use crate::attributes::Attribute;
use crate::error::IrResult;
use crate::interp::{Buffer, RtValue, Store};
use crate::ir::{Context, IdMap, OpId, ValueId};
use crate::scalar::{self, bin_op, un_op, BinOp, Eval, UnOp};
use crate::types::Type;
use crate::{ir_bail, ir_ensure, ir_error};

/// A physical register index.
pub type Reg = u16;

/// One straight-line instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Instr {
    /// `regs[dst] = value`.
    Const {
        /// Destination register.
        dst: Reg,
        /// Immediate value.
        value: f64,
    },
    /// `regs[dst] = op(regs[src])`.
    Unary {
        /// Opcode.
        op: UnOp,
        /// Destination register.
        dst: Reg,
        /// Operand register.
        src: Reg,
    },
    /// `regs[dst] = op(regs[lhs], regs[rhs])`.
    Binary {
        /// Opcode.
        op: BinOp,
        /// Destination register.
        dst: Reg,
        /// Left operand register.
        lhs: Reg,
        /// Right operand register.
        rhs: Reg,
    },
    /// `regs[dst] = regs[a].mul_add(regs[b], regs[c])` (`math.fma`).
    Fma {
        /// Destination register.
        dst: Reg,
        /// Multiplicand register.
        a: Reg,
        /// Multiplier register.
        b: Reg,
        /// Addend register.
        c: Reg,
    },
}

/// How the host fills one input register before each evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum InputRef {
    /// `buffer(args[operand]).load(point + offset)` — a `stencil.access`.
    Access {
        /// Apply-operand index of the field/temp buffer.
        operand: u16,
        /// Constant neighbour offset (one entry per dimension).
        offset: Vec<i64>,
    },
    /// `buffer(args[operand]).load([point[dim] + shift])` — the frontend's
    /// small-data parameter pattern (`stencil.index` + constant shift +
    /// `memref.load`).
    ParamLoad {
        /// Apply-operand index of the 1-D parameter memref.
        operand: u16,
        /// Grid axis whose index selects the element.
        dim: u8,
        /// Constant shift added to the axis index (offset + halo).
        shift: i64,
    },
    /// `args[operand]` itself, a scalar `f64` operand (a kernel constant).
    Scalar {
        /// Apply-operand index of the scalar.
        operand: u16,
    },
    /// Element `elem` of the `read`-th stream pop (a shift-buffer window
    /// pack). Used by the FPGA simulator's compute-stage plans.
    PackElem {
        /// Index into the plan's per-point read list.
        read: u16,
        /// Flat window position (`llvm.extractvalue` position).
        elem: u32,
    },
    /// The `read`-th stream pop as a scalar (a producer stream element).
    ReadScalar {
        /// Index into the plan's per-point read list.
        read: u16,
    },
}

/// A compiled, allocation-free register program.
///
/// Fields are public deliberately: the conformance suite's fault-injection
/// self-test mutates an opcode and asserts the differential harness
/// notices.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Input loads; input `i` is placed in register `i` by the host.
    pub inputs: Vec<InputRef>,
    /// Straight-line code, executed in order.
    pub instrs: Vec<Instr>,
    /// Number of registers the evaluator must provide.
    pub n_regs: u16,
    /// Registers holding the yielded values, in `stencil.return` order.
    pub results: Vec<Reg>,
}

/// Width `W` of the vector tier's blocks: the block executor dispatches
/// each instruction once per block of up to `BLOCK` grid points, every
/// register `BLOCK` lanes wide. 128 × f64 is 1 KiB a register: one
/// dispatch is spread over enough points that its cost vanishes, while a
/// program's temps — and the inputs a packed block gathers — stay in L1.
pub const BLOCK: usize = 128;

impl Program {
    /// Execute the straight-line code over a register file of at least
    /// [`Program::n_regs`] slots. Inputs must already sit in registers
    /// `0..inputs.len()`; results are left in [`Program::results`].
    ///
    /// This is the one-point opcode loop shared by every per-point
    /// executor: `ApplyMode::Scalar`, the tree-walker's fast path and the
    /// FPGA simulator's stage plans all dispatch through here.
    #[inline]
    pub fn run(&self, regs: &mut [f64]) {
        for instr in &self.instrs {
            match *instr {
                Instr::Const { dst, value } => regs[dst as usize] = value,
                Instr::Unary { op, dst, src } => {
                    regs[dst as usize] = un_op(op, regs[src as usize]);
                }
                Instr::Binary { op, dst, lhs, rhs } => {
                    regs[dst as usize] = bin_op(op, regs[lhs as usize], regs[rhs as usize]);
                }
                Instr::Fma { dst, a, b, c } => {
                    regs[dst as usize] =
                        regs[a as usize].mul_add(regs[b as usize], regs[c as usize]);
                }
            }
        }
    }

    /// Length of the temp half of a block register file: [`BLOCK`] lanes
    /// for every register above the pinned inputs.
    pub fn block_temps(&self) -> usize {
        usize::from(self.n_regs).saturating_sub(self.inputs.len()) * BLOCK
    }

    /// Execute the straight-line code once over a block of `n <= BLOCK`
    /// lanes (grid points), dispatching each instruction once.
    ///
    /// Input register `i` is `input(i)`, at least `n` lanes the caller
    /// may hand over straight from a buffer: inputs are pinned, so no
    /// instruction writes one ([`ProgramBuilder::finish`]). Every other
    /// register `r` is the `BLOCK` lanes of `temps` from `(r −
    /// inputs.len()) · BLOCK`; `temps` is at least
    /// [`Program::block_temps`] long. [`Program::block_lanes`] reads the
    /// results.
    ///
    /// Each opcode applies [`un_op`]/[`bin_op`]/`mul_add` *elementwise per
    /// lane* — the identical scalar expression [`Program::run`] uses, in
    /// the identical instruction order. Lanes never interact (no shuffles,
    /// no horizontal reductions, no reassociation across lanes), so lane
    /// `l`'s result is bitwise what a scalar run at that point produces.
    /// An operand that is also the destination is copied before the
    /// destination is written, so aliasing is handled exactly as in the
    /// scalar loop (reads happen before the write).
    ///
    /// # Panics
    ///
    /// When an instruction writes an input register, or `n` or `temps`
    /// is short of the above.
    #[deny(clippy::too_many_lines)]
    pub fn run_block<'a>(&self, n: usize, input: impl Fn(usize) -> &'a [f64], temps: &mut [f64]) {
        let n_in = self.inputs.len();
        // Holds a destination's old lanes while an instruction that also
        // reads it runs; never allocated for a program from the builder.
        let mut stash = Vec::new();
        for instr in &self.instrs {
            match *instr {
                Instr::Const { dst, value } => {
                    let (d, _) = split_at_dst(n_in, n, temps, &mut stash, dst, &[], &input);
                    d.fill(value);
                }
                Instr::Unary { op, dst, src } => {
                    let (d, regs) = split_at_dst(n_in, n, temps, &mut stash, dst, &[src], &input);
                    let a = regs.lanes(src);
                    // One dispatch per block, not per element: each arm
                    // re-enters `un_op` with the opcode constant-folded,
                    // so the lane loop vectorises without a per-lane
                    // branch while the semantics stay single-sourced.
                    macro_rules! lanes {
                        ($op:expr) => {
                            for (d, &a) in d.iter_mut().zip(a) {
                                *d = un_op($op, a);
                            }
                        };
                    }
                    match op {
                        UnOp::Neg => lanes!(UnOp::Neg),
                        UnOp::Abs => lanes!(UnOp::Abs),
                        UnOp::Sqrt => lanes!(UnOp::Sqrt),
                        UnOp::Exp => lanes!(UnOp::Exp),
                    }
                }
                Instr::Binary { op, dst, lhs, rhs } => {
                    let srcs = [lhs, rhs];
                    let (d, regs) = split_at_dst(n_in, n, temps, &mut stash, dst, &srcs, &input);
                    let (a, b) = (regs.lanes(lhs), regs.lanes(rhs));
                    macro_rules! lanes {
                        ($op:expr) => {
                            for (d, (&a, &b)) in d.iter_mut().zip(a.iter().zip(b)) {
                                *d = bin_op($op, a, b);
                            }
                        };
                    }
                    match op {
                        BinOp::Add => lanes!(BinOp::Add),
                        BinOp::Sub => lanes!(BinOp::Sub),
                        BinOp::Mul => lanes!(BinOp::Mul),
                        BinOp::Div => lanes!(BinOp::Div),
                        BinOp::Max => lanes!(BinOp::Max),
                        BinOp::Min => lanes!(BinOp::Min),
                        BinOp::Pow => lanes!(BinOp::Pow),
                        BinOp::Copysign => lanes!(BinOp::Copysign),
                    }
                }
                Instr::Fma { dst, a, b, c } => {
                    let (d, regs) =
                        split_at_dst(n_in, n, temps, &mut stash, dst, &[a, b, c], &input);
                    let (x, y, z) = (regs.lanes(a), regs.lanes(b), regs.lanes(c));
                    for (d, ((&x, &y), &z)) in d.iter_mut().zip(x.iter().zip(y).zip(z)) {
                        *d = x.mul_add(y, z);
                    }
                }
            }
        }
    }

    /// Register `r`'s first `n` lanes after [`Program::run_block`] over
    /// the same `input` and `temps`.
    pub fn block_lanes<'a>(
        &self,
        r: Reg,
        n: usize,
        input: impl Fn(usize) -> &'a [f64],
        temps: &'a [f64],
    ) -> &'a [f64] {
        let r = usize::from(r);
        match r.checked_sub(self.inputs.len()) {
            None => &input(r)[..n],
            Some(t) => &temps[t * BLOCK..][..n],
        }
    }
}

/// A block's register file around one instruction's destination, which
/// [`split_at_dst`] hands out writable: every register's first `n` lanes
/// readable, the destination's as they were before the instruction.
struct Around<'t, F> {
    n_in: usize,
    n: usize,
    /// Where the destination's lanes start in the temps.
    at: usize,
    below: &'t [f64],
    above: &'t [f64],
    /// The destination's lanes, when the instruction reads them too.
    stash: &'t [f64],
    input: &'t F,
}

impl<'t, 'a: 't, F: Fn(usize) -> &'a [f64]> Around<'t, F> {
    #[inline(always)]
    fn lanes(&self, r: Reg) -> &'t [f64] {
        let Some(t) = usize::from(r).checked_sub(self.n_in) else {
            return &(self.input)(usize::from(r))[..self.n];
        };
        match (t * BLOCK).cmp(&self.at) {
            Ordering::Less => &self.below[t * BLOCK..][..self.n],
            Ordering::Greater => &self.above[t * BLOCK - self.at - BLOCK..][..self.n],
            Ordering::Equal => self.stash,
        }
    }
}

/// Split `temps` at `dst`: its first `n` lanes writable, beside an
/// [`Around`] that reads every other register. When one of `srcs` is
/// `dst` itself, its lanes are copied to `stash` first, so the
/// instruction reads them before it writes them.
#[inline(always)]
fn split_at_dst<'t, 'a: 't, F: Fn(usize) -> &'a [f64]>(
    n_in: usize,
    n: usize,
    temps: &'t mut [f64],
    stash: &'t mut Vec<f64>,
    dst: Reg,
    srcs: &[Reg],
    input: &'t F,
) -> (&'t mut [f64], Around<'t, F>) {
    let at = usize::from(dst)
        .checked_sub(n_in)
        .expect("block executor: an instruction writes a pinned input register")
        * BLOCK;
    let (below, rest) = temps.split_at_mut(at);
    let (d, above) = rest.split_at_mut(BLOCK);
    let d = &mut d[..n];
    if srcs.contains(&dst) {
        stash.clear();
        stash.extend_from_slice(d);
    }
    let regs = Around {
        n_in,
        n,
        at,
        below,
        above,
        stash,
        input,
    };
    (d, regs)
}

// ---- builder -------------------------------------------------------------

/// A virtual register handed out by [`ProgramBuilder`]; resolved to a
/// physical register at [`ProgramBuilder::finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VReg(Slot);

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Slot {
    Input(u32),
    Temp(u32),
}

/// Builder over virtual registers; physical allocation happens in
/// [`ProgramBuilder::finish`].
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    inputs: Vec<InputRef>,
    code: Vec<VInstr>,
}

#[derive(Debug)]
enum VInstr {
    Const { value: f64 },
    Unary { op: UnOp, src: VReg },
    Binary { op: BinOp, lhs: VReg, rhs: VReg },
    Fma { a: VReg, b: VReg, c: VReg },
}

impl ProgramBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare (or reuse) an input; identical inputs share a register.
    pub fn input(&mut self, input: InputRef) -> VReg {
        if let Some(i) = self.inputs.iter().position(|x| *x == input) {
            return VReg(Slot::Input(i as u32));
        }
        self.inputs.push(input);
        VReg(Slot::Input((self.inputs.len() - 1) as u32))
    }

    fn push(&mut self, instr: VInstr) -> VReg {
        self.code.push(instr);
        VReg(Slot::Temp((self.code.len() - 1) as u32))
    }

    /// Emit an immediate.
    pub fn constant(&mut self, value: f64) -> VReg {
        self.push(VInstr::Const { value })
    }

    /// Emit the instruction a scalar op's [`Eval`] compiles to, over
    /// operands the caller has resolved to registers. `None` when the row
    /// is not a float op ([`Eval::is_float`]) or `args` is not its arity.
    pub fn emit(&mut self, eval: Eval, args: &[VReg]) -> Option<VReg> {
        Some(self.push(match (eval, args) {
            (Eval::Un(op), &[src]) => VInstr::Unary { op, src },
            (Eval::Bin(op), &[lhs, rhs]) => VInstr::Binary { op, lhs, rhs },
            (Eval::Fma, &[a, b, c]) => VInstr::Fma { a, b, c },
            _ => return None,
        }))
    }

    /// Allocate physical registers (inputs pinned to `0..n_inputs`, temps
    /// via a last-use free list) and produce the runnable program.
    pub fn finish(self, results: &[VReg]) -> IrResult<Program> {
        let n_in = self.inputs.len();
        let n_temp = self.code.len();
        let id = |v: VReg| match v.0 {
            Slot::Input(i) => i as usize,
            Slot::Temp(j) => n_in + j as usize,
        };

        // Last instruction index using each value (results count as one
        // past the end, so they are never recycled).
        let mut last_use: Vec<Option<usize>> = vec![None; n_in + n_temp];
        {
            let mut touch = |v: VReg, at: usize| {
                let slot = &mut last_use[id(v)];
                *slot = Some(slot.map_or(at, |p| p.max(at)));
            };
            for (j, instr) in self.code.iter().enumerate() {
                match *instr {
                    VInstr::Const { .. } => {}
                    VInstr::Unary { src, .. } => touch(src, j),
                    VInstr::Binary { lhs, rhs, .. } => {
                        touch(lhs, j);
                        touch(rhs, j);
                    }
                    VInstr::Fma { a, b, c } => {
                        touch(a, j);
                        touch(b, j);
                        touch(c, j);
                    }
                }
            }
            for &r in results {
                touch(r, n_temp);
            }
        }
        // A dead temp dies at its own definition.
        for j in 0..n_temp {
            let slot = &mut last_use[n_in + j];
            if slot.is_none() {
                *slot = Some(j);
            }
        }

        // Inputs are never recycled: executors are allowed to fill
        // loop-invariant inputs (scalars) once and run the program many
        // times, so an input register must still hold its value after
        // every run. Only temps expire.
        let mut expire: Vec<Vec<usize>> = vec![Vec::new(); n_temp];
        for (v, lu) in last_use.iter().enumerate().skip(n_in) {
            if let Some(at) = *lu {
                if at < n_temp {
                    expire[at].push(v);
                }
            }
        }

        const NONE: Reg = Reg::MAX;
        let mut phys: Vec<Reg> = vec![NONE; n_in + n_temp];
        for (i, p) in phys.iter_mut().enumerate().take(n_in) {
            *p = Reg::try_from(i).map_err(|_| ir_error!("bytecode: too many inputs"))?;
        }
        let mut next: usize = n_in;
        let mut free: Vec<Reg> = Vec::new();
        let mut instrs = Vec::with_capacity(n_temp);
        let reg_of = |phys: &[Reg], v: VReg| -> IrResult<Reg> {
            let r = phys[id(v)];
            ir_ensure!(r != NONE, "bytecode: use of undefined virtual register");
            Ok(r)
        };
        for (j, instr) in self.code.iter().enumerate() {
            // Operands are read before the destination is allocated, and
            // operand registers are only recycled after this instruction,
            // so a destination never aliases its own operands.
            let emitted = match *instr {
                VInstr::Const { value } => Instr::Const { dst: NONE, value },
                VInstr::Unary { op, src } => Instr::Unary {
                    op,
                    dst: NONE,
                    src: reg_of(&phys, src)?,
                },
                VInstr::Binary { op, lhs, rhs } => Instr::Binary {
                    op,
                    dst: NONE,
                    lhs: reg_of(&phys, lhs)?,
                    rhs: reg_of(&phys, rhs)?,
                },
                VInstr::Fma { a, b, c } => Instr::Fma {
                    dst: NONE,
                    a: reg_of(&phys, a)?,
                    b: reg_of(&phys, b)?,
                    c: reg_of(&phys, c)?,
                },
            };
            let dst = match free.pop() {
                Some(r) => r,
                None => {
                    let r = Reg::try_from(next)
                        .map_err(|_| ir_error!("bytecode: register file overflow"))?;
                    next += 1;
                    r
                }
            };
            phys[n_in + j] = dst;
            instrs.push(match emitted {
                Instr::Const { value, .. } => Instr::Const { dst, value },
                Instr::Unary { op, src, .. } => Instr::Unary { op, dst, src },
                Instr::Binary { op, lhs, rhs, .. } => Instr::Binary { op, dst, lhs, rhs },
                Instr::Fma { a, b, c, .. } => Instr::Fma { dst, a, b, c },
            });
            for &v in &expire[j] {
                if phys[v] != NONE {
                    free.push(phys[v]);
                }
            }
        }
        let results = results
            .iter()
            .map(|&r| reg_of(&phys, r))
            .collect::<IrResult<Vec<_>>>()?;
        Ok(Program {
            inputs: self.inputs,
            instrs,
            n_regs: Reg::try_from(next.max(n_in))
                .map_err(|_| ir_error!("bytecode: register file overflow"))?,
            results,
        })
    }
}

// ---- compiling a stencil.apply ------------------------------------------

/// Integer shapes the compiler tracks symbolically (only what the
/// frontend's parameter pattern needs).
#[derive(Debug, Clone, Copy)]
enum IntExpr {
    Const(i64),
    Index(usize),
    IndexPlus(usize, i64),
}

/// Compile the body of a `stencil.apply` into a [`Program`].
///
/// Fails (so the caller falls back to the tree-walker) on any op outside
/// the supported straight-line `f64` vocabulary, on integer arithmetic
/// that is not the frontend's `param[index[dim] + shift]` pattern, and on
/// applies whose results do not share identical bounds (the fast path
/// writes results by linear element index).
pub fn compile_apply(ctx: &Context, apply: OpId) -> IrResult<Program> {
    ir_ensure!(
        ctx.op_name(apply) == "stencil.apply",
        "compile_apply expects a stencil.apply, got `{}`",
        ctx.op_name(apply)
    );
    let results = ctx.results(apply);
    ir_ensure!(!results.is_empty(), "stencil.apply without results");
    // The register file is f64-only: an f32 apply must not be "compiled"
    // by silently widening every constant and load. Refuse with a
    // structured unsupported error (the driver-level guard rejects such
    // kernels before execution; this keeps the tier honest when called
    // directly).
    let mut value_f32 = false;
    ctx.walk(apply, &mut |op| {
        value_f32 |= ctx
            .results(op)
            .iter()
            .any(|&v| ctx.value_type(v).contains_f32())
            || ctx.regions(op).iter().any(|&r| {
                ctx.region_blocks(r).iter().any(|&blk| {
                    ctx.block_args(blk)
                        .iter()
                        .any(|&v| ctx.value_type(v).contains_f32())
                })
            });
    });
    if value_f32 {
        return Err(crate::error::IrError::unsupported(
            "bytecode tier computes in f64 only; f32 applies are unsupported",
        ));
    }
    let bounds = ctx
        .value_type(results[0])
        .stencil_bounds()
        .ok_or_else(|| ir_error!("stencil.apply result is not a stencil.temp"))?
        .clone();
    for &r in results {
        let b = ctx
            .value_type(r)
            .stencil_bounds()
            .ok_or_else(|| ir_error!("stencil.apply result is not a stencil.temp"))?;
        ir_ensure!(
            *b == bounds,
            "bytecode: apply results with differing bounds"
        );
    }
    let rank = bounds.rank();

    let block = ctx
        .entry_block(apply)
        .ok_or_else(|| ir_error!("stencil.apply without body"))?;
    let params = ctx.block_args(block).to_vec();
    let param_pos: IdMap<ValueId, usize> =
        params.iter().enumerate().map(|(i, &p)| (p, i)).collect();

    let mut b = ProgramBuilder::new();
    let mut floats: IdMap<ValueId, VReg> = IdMap::default();
    let mut ints: IdMap<ValueId, IntExpr> = IdMap::default();

    // Resolve an SSA value to a float register: a computed value, or a
    // scalar block argument (kernel constant) promoted to an input.
    fn float_of(
        ctx: &Context,
        b: &mut ProgramBuilder,
        floats: &mut IdMap<ValueId, VReg>,
        param_pos: &IdMap<ValueId, usize>,
        v: ValueId,
    ) -> IrResult<VReg> {
        if let Some(&r) = floats.get(&v) {
            return Ok(r);
        }
        if let Some(&pos) = param_pos.get(&v) {
            if matches!(ctx.value_type(v), Type::F64) {
                let r = b.input(InputRef::Scalar {
                    operand: u16::try_from(pos)
                        .map_err(|_| ir_error!("bytecode: operand index overflow"))?,
                });
                floats.insert(v, r);
                return Ok(r);
            }
        }
        Err(ir_error!("bytecode: value is not a float register"))
    }

    for &op in ctx.block_ops(block) {
        let name = ctx.op_name(op);
        let operands = ctx.operands(op).to_vec();
        match name {
            "arith.constant" => {
                let attr = ctx
                    .attr(op, "value")
                    .ok_or_else(|| ir_error!("arith.constant without value"))?;
                match attr {
                    Attribute::Float(v, _) => {
                        let r = b.constant(*v);
                        floats.insert(ctx.result(op, 0), r);
                    }
                    Attribute::Int(v, _) => {
                        ints.insert(ctx.result(op, 0), IntExpr::Const(*v));
                    }
                    other => ir_bail!("bytecode: unsupported constant {other}"),
                }
            }
            "stencil.index" => {
                let dim = ctx
                    .attr(op, "dim")
                    .and_then(Attribute::as_int)
                    .ok_or_else(|| ir_error!("stencil.index without dim"))?
                    as usize;
                ir_ensure!(dim < rank, "stencil.index dim {dim} out of range");
                ints.insert(ctx.result(op, 0), IntExpr::Index(dim));
            }
            "arith.addi" => {
                let a = *ints
                    .get(&operands[0])
                    .ok_or_else(|| ir_error!("bytecode: non-symbolic integer operand"))?;
                let c = *ints
                    .get(&operands[1])
                    .ok_or_else(|| ir_error!("bytecode: non-symbolic integer operand"))?;
                let sum = match (a, c) {
                    (IntExpr::Const(x), IntExpr::Const(y)) => IntExpr::Const(x.wrapping_add(y)),
                    (IntExpr::Index(d), IntExpr::Const(s))
                    | (IntExpr::Const(s), IntExpr::Index(d)) => IntExpr::IndexPlus(d, s),
                    (IntExpr::IndexPlus(d, s), IntExpr::Const(t))
                    | (IntExpr::Const(t), IntExpr::IndexPlus(d, s)) => {
                        IntExpr::IndexPlus(d, s.wrapping_add(t))
                    }
                    _ => ir_bail!("bytecode: unsupported integer addition shape"),
                };
                ints.insert(ctx.result(op, 0), sum);
            }
            "memref.load" => {
                let &pos = param_pos
                    .get(&operands[0])
                    .ok_or_else(|| ir_error!("bytecode: load from non-operand memref"))?;
                ir_ensure!(
                    operands.len() == 2,
                    "bytecode: only 1-D parameter loads supported"
                );
                let (dim, shift) = match ints
                    .get(&operands[1])
                    .ok_or_else(|| ir_error!("bytecode: non-symbolic load index"))?
                {
                    IntExpr::Index(d) => (*d, 0),
                    IntExpr::IndexPlus(d, s) => (*d, *s),
                    IntExpr::Const(_) => ir_bail!("bytecode: constant-index load unsupported"),
                };
                let r = b.input(InputRef::ParamLoad {
                    operand: u16::try_from(pos)
                        .map_err(|_| ir_error!("bytecode: operand index overflow"))?,
                    dim: u8::try_from(dim).map_err(|_| ir_error!("bytecode: dim overflow"))?,
                    shift,
                });
                floats.insert(ctx.result(op, 0), r);
            }
            "stencil.access" => {
                let &pos = param_pos
                    .get(&operands[0])
                    .ok_or_else(|| ir_error!("bytecode: access to non-operand temp"))?;
                let offset = ctx
                    .attr(op, "offset")
                    .and_then(Attribute::as_index_array)
                    .ok_or_else(|| ir_error!("stencil.access without offset"))?
                    .to_vec();
                ir_ensure!(offset.len() == rank, "stencil.access offset rank mismatch");
                let r = b.input(InputRef::Access {
                    operand: u16::try_from(pos)
                        .map_err(|_| ir_error!("bytecode: operand index overflow"))?,
                    offset,
                });
                floats.insert(ctx.result(op, 0), r);
            }
            "stencil.return" => {
                let outs = operands
                    .iter()
                    .map(|&v| float_of(ctx, &mut b, &mut floats, &param_pos, v))
                    .collect::<IrResult<Vec<_>>>()?;
                return b.finish(&outs);
            }
            other => {
                let unsupported = || ir_error!("bytecode: unsupported op `{other}` in apply body");
                let eval = scalar::lookup(other)
                    .map(|row| row.eval)
                    .filter(Eval::is_float)
                    .ok_or_else(unsupported)?;
                let args = operands
                    .iter()
                    .map(|&v| float_of(ctx, &mut b, &mut floats, &param_pos, v))
                    .collect::<IrResult<Vec<_>>>()?;
                let r = b.emit(eval, &args).ok_or_else(unsupported)?;
                floats.insert(ctx.result(op, 0), r);
            }
        }
    }
    ir_bail!("stencil.apply body has no stencil.return")
}

// ---- executing a compiled apply -----------------------------------------

/// How [`exec_apply_with`] traverses the iteration box.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyMode {
    /// The PR 5 path: dispatch the whole program once per grid point.
    /// Kept measurable so the bench harness can report the vector tier's
    /// speedup over it (and CI can detect a silent fallback).
    Scalar,
    /// The vector tier: block execution along the inner axis (up to
    /// [`BLOCK`] points per dispatch, short rows packed several to a
    /// block), optionally threaded over the axis-0 slab partition
    /// ([`slab_partition`]) when `threads > 1`. Bitwise-identical to
    /// `Scalar` by construction.
    Chunked {
        /// Worker threads for the axis-0 slab split (1 = run in place).
        threads: usize,
    },
}

impl Default for ApplyMode {
    fn default() -> Self {
        ApplyMode::Chunked { threads: 1 }
    }
}

/// Split `n0` axis-0 rows into `parts` contiguous slabs, remainder rows
/// going to the leading slabs — the same partition `core::scale` uses for
/// multi-CU slabs, shared here so the threaded executor and the scale-out
/// runner agree on ownership. Returns `parts` half-open `(start, end)`
/// ranges (some empty when `parts > n0`).
pub fn slab_partition(n0: i64, parts: usize) -> Vec<(i64, i64)> {
    let base = n0 / parts as i64;
    let remainder = n0 % parts as i64;
    let mut slabs = Vec::with_capacity(parts);
    let mut start = 0i64;
    for p in 0..parts as i64 {
        let end = start + base + i64::from(p < remainder);
        slabs.push((start, end));
        start = end;
    }
    slabs
}

/// The affine map from grid point to linear element of one row-major
/// buffer, shifted by a constant neighbour offset.
#[derive(Debug, Clone)]
struct Affine {
    /// Row-major strides of the buffer, one per grid dim. The inner
    /// (last) stride is always 1: buffers and the iteration box share
    /// rank and layout, which is what makes in-row block loads and
    /// stores contiguous.
    stride: Vec<i64>,
    /// `point[d] + offset[d] - origin[d] = point[d] - sub[d]`.
    sub: Vec<i64>,
}

impl Affine {
    fn new(shape: &[i64], origin: &[i64], offset: &[i64]) -> Affine {
        let rank = shape.len();
        let mut stride = vec![1i64; rank];
        for d in (0..rank.saturating_sub(1)).rev() {
            stride[d] = stride[d + 1] * shape[d + 1];
        }
        Affine {
            stride,
            sub: origin
                .iter()
                .zip(offset)
                .map(|(&o, &off)| o - off)
                .collect(),
        }
    }

    /// Linear element index of `point`.
    #[inline]
    fn lin(&self, point: &[i64]) -> i64 {
        let mut lin = 0;
        for ((&p, &sub), &stride) in point.iter().zip(&self.sub).zip(&self.stride) {
            lin += (p - sub) * stride;
        }
        lin
    }
}

/// Where the block executor writes one result: a run of whole axis-0
/// planes of the destination buffer — an apply's own temp, or the padded
/// field its `stencil.store` names — addressed by grid point like an
/// input, so a row lands inside the destination's halo ring without the
/// executor knowing there is one.
struct OutRows<'a> {
    /// The planes' storage; `data[0]` is linear element `start` of the
    /// destination.
    data: &'a mut [f64],
    start: i64,
    map: Affine,
}

impl<'a> OutRows<'a> {
    fn whole(buffer: &'a mut Buffer) -> OutRows<'a> {
        let zero = vec![0; buffer.shape.len()];
        OutRows {
            map: Affine::new(&buffer.shape, &buffer.origin, &zero),
            data: &mut buffer.data,
            start: 0,
        }
    }

    /// Offset into `data` of the row starting at `point`.
    #[inline]
    fn row(&self, point: &[i64]) -> usize {
        (self.map.lin(point) - self.start) as usize
    }

    /// Split off the planes of axis-0 rows `[from, to)`, which must lie
    /// at or after the first plane still held; `self` keeps what follows
    /// them.
    fn split_off_rows(&mut self, from: i64, to: i64) -> OutRows<'a> {
        let plane = self.map.stride[0];
        let skip = (from - self.map.sub[0]) * plane - self.start;
        let len = (to - from) * plane;
        let (_, tail) = std::mem::take(&mut self.data).split_at_mut(skip as usize);
        let (rows, rest) = tail.split_at_mut(len as usize);
        let start = self.start + skip;
        self.data = rest;
        self.start = start + len;
        OutRows {
            data: rows,
            start,
            map: self.map.clone(),
        }
    }
}

/// A program's inputs bound to one run's data ([`Layout::bind`]).
/// Borrowed buffer data is shared read-only, so one binding can be
/// executed from many threads.
struct ResolvedInputs<'a> {
    layout: &'a Layout,
    /// `(register, value)` for scalar operands — loop-invariant, filled
    /// into a register file once before any point runs (inputs are
    /// pinned, see [`ProgramBuilder::finish`]).
    scalars: Vec<(usize, f64)>,
    /// By apply operand, the data of the buffer it is bound to (empty
    /// for a scalar).
    data: Vec<&'a [f64]>,
}

/// A stencil-access input resolved against its operand's buffer:
/// register to fill, apply operand, and the map from grid point to
/// linear element.
#[derive(Debug)]
struct BufLoad {
    reg: usize,
    operand: usize,
    map: Affine,
}

/// A 1-D parameter input resolved against its operand's buffer:
/// register, apply operand, grid axis, and `data index = point[dim] -
/// sub`.
#[derive(Debug)]
struct ParamRead {
    reg: usize,
    operand: usize,
    dim: usize,
    sub: i64,
}

/// A program's inputs resolved against the shapes and origins of the
/// buffers its memref operands are bound to: every bounds check made and
/// every map built, no data borrowed. What it holds depends on nothing
/// else — the iteration box is the apply's own — so a later run whose
/// operands have the same geometry reuses it with no check left out
/// ([`PreparedApplies`]).
#[derive(Debug)]
struct Layout {
    /// `(operand, shape, origin)` of every memref operand resolved against.
    geometry: Vec<(usize, Vec<i64>, Vec<i64>)>,
    /// `(register, operand)` of every scalar input.
    scalars: Vec<(usize, usize)>,
    buf_loads: Vec<BufLoad>,
    param_reads: Vec<ParamRead>,
}

/// Apply operand `operand` of `args`.
fn arg(args: &[RtValue], operand: usize) -> IrResult<&RtValue> {
    args.get(operand)
        .ok_or_else(|| ir_error!("bytecode: operand index out of range"))
}

/// The buffer memref operand `operand` of `args` is bound to in `store`.
fn operand_buffer<'a>(args: &[RtValue], store: &'a Store, operand: usize) -> IrResult<&'a Buffer> {
    store.get(arg(args, operand)?.as_memref()?)
}

impl Layout {
    /// Resolve and bounds-check every program input against the apply's
    /// arguments. The iteration box is a product of per-dim intervals, so
    /// checking both interval endpoints per dim bounds every point any
    /// executor will touch — all downstream loads are branch-free.
    fn resolve(
        prog: &Program,
        args: &[RtValue],
        store: &Store,
        rank: usize,
        lb: &[i64],
        ub: &[i64],
    ) -> IrResult<Layout> {
        let mut layout = Layout {
            geometry: Vec::new(),
            scalars: Vec::new(),
            buf_loads: Vec::new(),
            param_reads: Vec::new(),
        };
        // The buffer behind memref operand `operand`, its geometry
        // recorded the first time it is met.
        let buffer = |geometry: &mut Vec<(usize, _, _)>, operand: u16| -> IrResult<&Buffer> {
            let operand = usize::from(operand);
            let buf = operand_buffer(args, store, operand)?;
            if geometry.iter().all(|&(o, ..)| o != operand) {
                geometry.push((operand, buf.shape.clone(), buf.origin.clone()));
            }
            Ok(buf)
        };
        for (i, input) in prog.inputs.iter().enumerate() {
            match input {
                InputRef::Scalar { operand } => {
                    let operand = usize::from(*operand);
                    arg(args, operand)?.as_f64()?;
                    layout.scalars.push((i, operand));
                }
                InputRef::Access { operand, offset } => {
                    let buf = buffer(&mut layout.geometry, *operand)?;
                    ir_ensure!(
                        buf.shape.len() == rank && offset.len() == rank,
                        "bytecode: access rank mismatch"
                    );
                    for d in 0..rank {
                        let lo = lb[d] + offset[d] - buf.origin[d];
                        let hi = (ub[d] - 1) + offset[d] - buf.origin[d];
                        ir_ensure!(
                            lo >= 0 && hi < buf.shape[d],
                            "bytecode: access offset {offset:?} out of bounds \
                             (dim {d}, shape {:?}, origin {:?})",
                            buf.shape,
                            buf.origin
                        );
                    }
                    layout.buf_loads.push(BufLoad {
                        reg: i,
                        operand: usize::from(*operand),
                        map: Affine::new(&buf.shape, &buf.origin, offset),
                    });
                }
                InputRef::ParamLoad {
                    operand,
                    dim,
                    shift,
                } => {
                    let buf = buffer(&mut layout.geometry, *operand)?;
                    let dim = *dim as usize;
                    ir_ensure!(
                        buf.shape.len() == 1 && dim < rank,
                        "bytecode: parameter load shape mismatch"
                    );
                    let lo = lb[dim] + shift - buf.origin[0];
                    let hi = (ub[dim] - 1) + shift - buf.origin[0];
                    ir_ensure!(
                        lo >= 0 && hi < buf.shape[0],
                        "bytecode: parameter index out of bounds (dim {dim}, shift {shift})"
                    );
                    layout.param_reads.push(ParamRead {
                        reg: i,
                        operand: usize::from(*operand),
                        dim,
                        sub: buf.origin[0] - shift,
                    });
                }
                InputRef::PackElem { .. } | InputRef::ReadScalar { .. } => {
                    ir_bail!("bytecode: stream inputs are not valid in a stencil.apply plan")
                }
            }
        }
        Ok(layout)
    }

    /// Whether every memref operand of `args` is bound to a buffer of the
    /// shape and origin this layout was resolved against.
    fn holds(&self, args: &[RtValue], store: &Store) -> bool {
        self.geometry.iter().all(|(operand, shape, origin)| {
            operand_buffer(args, store, *operand)
                .is_ok_and(|buf| buf.shape == *shape && buf.origin == *origin)
        })
    }

    /// The inputs over this run's data: the scalars' values and the
    /// buffers' elements, under the maps resolved before.
    fn bind<'a>(&'a self, args: &[RtValue], store: &'a Store) -> IrResult<ResolvedInputs<'a>> {
        let scalars = self.scalars.iter().map(|&(reg, operand)| {
            let value = arg(args, operand)?.as_f64()?;
            Ok((reg, value))
        });
        let mut data = vec![&[][..]; args.len()];
        for &(operand, ..) in &self.geometry {
            data[operand] = &operand_buffer(args, store, operand)?.data;
        }
        Ok(ResolvedInputs {
            layout: self,
            scalars: scalars.collect::<IrResult<_>>()?,
            data,
        })
    }
}

/// What a caller that runs the same planned applies again and again keeps
/// between runs: each apply's inputs' `Layout`, resolved again only
/// when an operand's buffer changes shape or origin, and one block
/// register file per worker, which the applies — run one after another —
/// share. Empty until the first run fills it; a caller with nothing to
/// keep passes a fresh one.
#[derive(Debug, Default)]
pub struct PreparedApplies {
    layouts: IdMap<OpId, Layout>,
    workers: Vec<Registers>,
}

/// Step `point` to the next position of the row-major odometer over its
/// first `end` dimensions (the last of them fastest, as `iter_box`
/// orders), wrapping each back to `lb` — all but axis 0, which the caller
/// stops before it runs out. Returns the dimension that stepped without
/// wrapping.
fn advance(point: &mut [i64], lb: &[i64], ub: &[i64], end: usize) -> usize {
    let mut d = end;
    while d > 0 {
        d -= 1;
        point[d] += 1;
        if d > 0 && point[d] >= ub[d] {
            point[d] = lb[d];
        } else {
            break;
        }
    }
    d
}

/// The per-point path: dispatch the program once per grid point over the
/// whole box. `outs[o]` is result `o`'s temp of exactly the box, indexed
/// by its row-major linear order. Returns the instructions dispatched.
///
/// A rank-0 box is one point (the empty index), matching the
/// tree-walker's `iter_box(&[], &[])`, so the program runs exactly once.
fn run_points(
    prog: &Program,
    inputs: &ResolvedInputs<'_>,
    lb: &[i64],
    ub: &[i64],
    outs: &mut [&mut [f64]],
) -> u64 {
    let mut point = lb.to_vec();
    let n_points: usize = lb
        .iter()
        .zip(ub)
        .map(|(&l, &u)| (u - l).max(0) as usize)
        .product();
    let mut regs = vec![0.0f64; prog.n_regs as usize];
    for &(r, v) in &inputs.scalars {
        regs[r] = v;
    }
    for k in 0..n_points {
        for bl in &inputs.layout.buf_loads {
            regs[bl.reg] = inputs.data[bl.operand][bl.map.lin(&point) as usize];
        }
        for pr in &inputs.layout.param_reads {
            regs[pr.reg] = inputs.data[pr.operand][(point[pr.dim] - pr.sub) as usize];
        }
        prog.run(&mut regs);
        for (o, &r) in outs.iter_mut().zip(&prog.results) {
            o[k] = regs[r as usize];
        }
        advance(&mut point, lb, ub, lb.len());
    }
    (n_points * prog.instrs.len()) as u64
}

/// Rows shorter than this are packed, several to a block: a block of one
/// short row would spread each dispatch over a handful of lanes (the
/// march's 16-point slab rows pay for 16). Longer rows are cut into
/// blocks of their own and read in place.
const PACK_BELOW: usize = 64;

/// One worker's block register file and row bookkeeping: grown to the
/// largest apply that has run on it, never per block, and kept for the
/// next run by [`PreparedApplies`]. Aligned so that no two workers' files
/// share a cache line: each writes its own every row.
#[derive(Debug, Default)]
#[repr(align(128))]
struct Registers {
    /// Where in its data the current row of each streamed input starts.
    bases: Vec<usize>,
    /// Per input register, its index among the streamed inputs, if it is
    /// one.
    in_place: Vec<Option<usize>>,
    /// Outer-axis parameters as `(register, value at the current row)`.
    splats: Vec<(usize, f64)>,
    /// Where the current row starts in each output.
    out_rows: Vec<usize>,
    /// How far each of `bases`, then each of `out_rows`, moves when the
    /// row cursor steps along the axis next to the inner one — all a row
    /// change does but where an outer axis wraps.
    steps: Vec<usize>,
    /// [`BLOCK`] lanes per input register, for what is not read in
    /// place: scalars (filled once a run), splatted outer-axis
    /// parameters, and everything a packed block gathers.
    own: Vec<f64>,
    /// [`BLOCK`] lanes per temp register.
    temps: Vec<f64>,
    /// `(first lane, lanes)` of each row segment in the current packed
    /// block, and where each lands in every output (`outs.len()` apiece).
    segs: Vec<(usize, usize)>,
    seg_rows: Vec<usize>,
}

/// Make `lanes` at least `len` long.
fn grow(lanes: &mut Vec<f64>, len: usize) {
    if lanes.len() < len {
        lanes.resize(len, 0.0);
    }
}

/// One worker's run of an apply: its register file, the inputs it
/// streams along a row, and the lanes of the current packed block.
struct Blocks<'p, 'a> {
    prog: &'p Program,
    inputs: &'p ResolvedInputs<'a>,
    /// The inputs read along a row — every access, then every
    /// inner-axis parameter — as `(register, data)`.
    streamed: Vec<(usize, &'a [f64])>,
    regs: &'p mut Registers,
    /// Lanes of the current packed block filled so far.
    filled: usize,
    dispatches: u64,
}

impl<'p, 'a> Blocks<'p, 'a> {
    /// Set `regs` up for a run of `prog` over `inputs` into `outs`. Every
    /// lane a block reads is written first in the run — scalars here,
    /// parameters and gathered inputs per row, temps by the program —
    /// so what a register file holds from an earlier run is never read;
    /// and every run ends with its packed block flushed, which leaves no
    /// segment behind.
    fn new(
        prog: &'p Program,
        inputs: &'p ResolvedInputs<'a>,
        inner: usize,
        outs: &[OutRows<'_>],
        regs: &'p mut Registers,
    ) -> Self {
        let layout = inputs.layout;
        let inner_params = layout.param_reads.iter().filter(|pr| pr.dim == inner);
        // An inner-axis parameter's row starts at the same index on every
        // row. (Rank 1 has one row and never steps.)
        let step = |map: &Affine| map.stride[inner.saturating_sub(1)] as usize;
        regs.steps.clear();
        regs.steps.extend(
            (layout.buf_loads.iter().map(|bl| step(&bl.map)))
                .chain(inner_params.clone().map(|_| 0))
                .chain(outs.iter().map(|o| step(&o.map))),
        );
        let streamed: Vec<(usize, &'a [f64])> = (layout.buf_loads.iter())
            .map(|bl| (bl.reg, inputs.data[bl.operand]))
            .chain(inner_params.map(|pr| (pr.reg, inputs.data[pr.operand])))
            .collect();
        regs.in_place.clear();
        regs.in_place.resize(prog.inputs.len(), None);
        for (k, &(reg, _)) in streamed.iter().enumerate() {
            regs.in_place[reg] = Some(k);
        }
        grow(&mut regs.own, prog.inputs.len() * BLOCK);
        for &(reg, v) in &inputs.scalars {
            regs.own[reg * BLOCK..][..BLOCK].fill(v);
        }
        grow(&mut regs.temps, prog.block_temps());
        regs.bases.clear();
        regs.bases.resize(streamed.len(), 0);
        regs.out_rows.clear();
        regs.out_rows.resize(outs.len(), 0);
        Blocks {
            prog,
            inputs,
            streamed,
            regs,
            filled: 0,
            dispatches: 0,
        }
    }

    /// Take the row starting at `point` (whose inner-axis coordinate is
    /// the row's first) as the current one. `stepped`: it is the row
    /// after the current one along the axis next to the inner one.
    fn start_row(&mut self, point: &[i64], inner: usize, outs: &[OutRows<'_>], stepped: bool) {
        let regs = &mut *self.regs;
        let starts = regs.bases.iter_mut().chain(&mut regs.out_rows);
        if stepped {
            for (start, step) in starts.zip(&regs.steps) {
                *start += step;
            }
        } else {
            let layout = self.inputs.layout;
            let inner_params = layout.param_reads.iter().filter(|pr| pr.dim == inner);
            let loads = layout.buf_loads.iter().map(|bl| bl.map.lin(point) as usize);
            let params = inner_params.map(|pr| (point[pr.dim] - pr.sub) as usize);
            let rows = outs.iter().map(|o| o.row(point));
            for (start, at) in starts.zip(loads.chain(params).chain(rows)) {
                *start = at;
            }
        }
        regs.splats.clear();
        let outer_params = self
            .inputs
            .layout
            .param_reads
            .iter()
            .filter(|pr| pr.dim != inner);
        for pr in outer_params {
            let data = self.inputs.data[pr.operand];
            regs.splats
                .push((pr.reg, data[(point[pr.dim] - pr.sub) as usize]));
        }
    }

    /// Fill lanes `at..at + len` of every outer-axis parameter register.
    fn splat(&mut self, at: usize, len: usize) {
        let regs = &mut *self.regs;
        for &(reg, v) in &regs.splats {
            regs.own[reg * BLOCK + at..][..len].fill(v);
        }
    }

    /// Run lanes `j..j + n` of the current row as one block, every
    /// streamed input read in place, and write them to every output.
    fn run_in_row(&mut self, j: usize, n: usize, outs: &mut [OutRows<'_>]) {
        let regs = &mut *self.regs;
        let (own, streamed, bases, in_place) =
            (&regs.own, &self.streamed, &regs.bases, &regs.in_place);
        let read = |i: usize| match in_place[i] {
            Some(k) => &streamed[k].1[bases[k] + j..][..n],
            None => &own[i * BLOCK..][..n],
        };
        self.prog.run_block(n, read, &mut regs.temps);
        for ((o, &row), &r) in outs.iter_mut().zip(&regs.out_rows).zip(&self.prog.results) {
            o.data[row + j..][..n].copy_from_slice(self.prog.block_lanes(r, n, read, &regs.temps));
        }
        self.dispatches += self.prog.instrs.len() as u64;
    }

    /// Gather lanes `j..j + len` of the current row into the packed block
    /// after what it holds.
    fn gather(&mut self, j: usize, len: usize) {
        let at = self.filled;
        let regs = &mut *self.regs;
        for (&(reg, data), &base) in self.streamed.iter().zip(&regs.bases) {
            regs.own[reg * BLOCK + at..][..len].copy_from_slice(&data[base + j..][..len]);
        }
        self.splat(at, len);
        let regs = &mut *self.regs;
        regs.segs.push((at, len));
        regs.seg_rows
            .extend(regs.out_rows.iter().map(|&row| row + j));
        self.filled += len;
    }

    /// Run the packed block, if it holds anything, and scatter each
    /// segment back to its row of every output.
    fn flush(&mut self, outs: &mut [OutRows<'_>]) {
        let n = std::mem::take(&mut self.filled);
        if n == 0 {
            return;
        }
        let regs = &mut *self.regs;
        let own = &regs.own;
        let read = |i: usize| &own[i * BLOCK..][..n];
        self.prog.run_block(n, read, &mut regs.temps);
        for (&(at, len), rows) in regs.segs.iter().zip(regs.seg_rows.chunks(outs.len())) {
            for ((o, &row), &r) in outs.iter_mut().zip(rows).zip(&self.prog.results) {
                let lanes = self.prog.block_lanes(r, n, read, &regs.temps);
                o.data[row..][..len].copy_from_slice(&lanes[at..at + len]);
            }
        }
        regs.segs.clear();
        regs.seg_rows.clear();
        self.dispatches += self.prog.instrs.len() as u64;
    }
}

/// The block path over one axis-0 slab (`rank >= 1`), rows `[lb[0] + r0,
/// lb[0] + r1)`: all odometer and index bookkeeping happens once per
/// *row* (a maximal inner-axis run). A row of [`PACK_BELOW`] points or
/// more is cut into blocks of up to [`BLOCK`] lanes whose inputs are
/// read straight from their buffers; shorter rows are packed into full
/// blocks, a row straddling two where it must. Returns the instructions
/// dispatched.
#[deny(clippy::too_many_lines)]
fn run_slab_blocks(
    prog: &Program,
    inputs: &ResolvedInputs<'_>,
    lb: &[i64],
    ub: &[i64],
    (r0, r1): (i64, i64),
    outs: &mut [OutRows<'_>],
    regs: &mut Registers,
) -> u64 {
    let rank = lb.len();
    debug_assert!(rank >= 1);
    // Inner-axis geometry. For rank 1 the slab itself is the inner run.
    let inner = rank - 1;
    let (inner_lo, inner_n) = if rank == 1 {
        (lb[0] + r0, (r1 - r0).max(0) as usize)
    } else {
        (lb[inner], (ub[inner] - lb[inner]).max(0) as usize)
    };
    if inner_n == 0 {
        return 0;
    }
    let n_rows: usize = if rank == 1 {
        1
    } else {
        ((r1 - r0).max(0) as usize)
            * lb[1..inner]
                .iter()
                .zip(&ub[1..inner])
                .map(|(&l, &u)| (u - l).max(0) as usize)
                .product::<usize>()
    };
    let packed = inner_n < PACK_BELOW;
    let mut blocks = Blocks::new(prog, inputs, inner, outs, regs);
    // Row cursor: the first point of the current row.
    let mut point = lb.to_vec();
    point[0] = lb[0] + r0;
    point[inner] = inner_lo;
    let mut stepped = false;
    for _row in 0..n_rows {
        blocks.start_row(&point, inner, outs, stepped);
        if packed {
            let mut j = 0;
            while j < inner_n {
                let len = (inner_n - j).min(BLOCK - blocks.filled);
                blocks.gather(j, len);
                if blocks.filled == BLOCK {
                    blocks.flush(outs);
                }
                j += len;
            }
        } else {
            blocks.splat(0, inner_n.min(BLOCK));
            for j in (0..inner_n).step_by(BLOCK) {
                blocks.run_in_row(j, (inner_n - j).min(BLOCK), outs);
            }
        }
        stepped = advance(&mut point, lb, ub, inner) + 1 == inner;
    }
    blocks.flush(outs);
    blocks.dispatches
}

/// Execute a compiled `stencil.apply` over `store` with an explicit
/// [`ApplyMode`], filling one buffer per apply result. Returns the
/// buffers' handles in result order.
///
/// Mirrors the tree-walker's `exec_stencil_apply` exactly: the iteration
/// box is the result bounds, traversed row-major (last dimension fastest).
/// Every mode produces bitwise-identical buffers; `Chunked` only changes
/// how many points are in flight per opcode dispatch and which thread
/// owns which axis-0 slab. The instructions dispatched — instructions ×
/// blocks, a block of one point on the per-point path — are added to the
/// store's [`StoreWork::dispatches`](crate::interp::StoreWork).
///
/// `dests[o]`, when present and `Some`, names a buffer of `store` that
/// result `o` may be computed into directly (destination passing, see
/// [`direct_stores`]): the block path writes the result box there, row
/// by row, touching nothing outside the box, and returns that handle
/// instead of a fresh temp's — provided the box fits inside the buffer;
/// otherwise, and on the per-point paths, the result gets a temp as if
/// no destination had been named. A destination must be a different
/// buffer from every memref operand and every other destination: it is
/// out of the store while the apply runs.
///
/// `prepared` is what earlier runs left — the apply's input layout, kept
/// while its operands keep their shapes and origins, and register
/// files — and what this run leaves for the next.
#[allow(clippy::too_many_arguments)]
pub fn exec_apply_with(
    ctx: &Context,
    apply: OpId,
    args: &[RtValue],
    store: &mut Store<'_>,
    prog: &Program,
    mode: ApplyMode,
    dests: &[Option<usize>],
    prepared: &mut PreparedApplies,
) -> IrResult<Vec<usize>> {
    let results = ctx.results(apply);
    ir_ensure!(!results.is_empty(), "stencil.apply without results");
    let bounds = ctx
        .value_type(results[0])
        .stencil_bounds()
        .ok_or_else(|| ir_error!("stencil.apply result is not a stencil.temp"))?;
    for &r in results {
        let rb = ctx
            .value_type(r)
            .stencil_bounds()
            .ok_or_else(|| ir_error!("stencil.apply result is not a stencil.temp"))?;
        ir_ensure!(
            rb == bounds,
            "bytecode: apply results with differing bounds"
        );
    }
    // Normalise degenerate bounds once: a non-positive extent means an
    // empty box, and the *normalised* extents are what both the element
    // count and the allocated buffer shape use — a degenerate apply gets
    // empty zero-shaped buffers, never a negative shape that would wrap
    // on a later `as usize` index.
    let extents: Vec<i64> = bounds.extents().iter().map(|&e| e.max(0)).collect();
    let n_points: usize = extents.iter().map(|&e| e as usize).product();
    let direct = matches!(mode, ApplyMode::Chunked { .. }) && bounds.rank() > 0 && n_points > 0;

    // One target per result: the named destination, taken out of the
    // store for the duration, or a zeroed temp of exactly the box.
    let mut targets: Vec<(Option<usize>, Buffer)> = Vec::with_capacity(results.len());
    for o in 0..results.len() {
        let named = dests.get(o).copied().flatten().filter(|_| direct);
        let dest = named.filter(|&h| {
            store.get(h).is_ok_and(|buf| {
                buf.shape.len() == bounds.rank()
                    && (0..bounds.rank()).all(|d| {
                        bounds.lb[d] >= buf.origin[d]
                            && bounds.ub[d] <= buf.origin[d] + buf.shape[d]
                    })
            })
        });
        targets.push(match dest {
            Some(h) => (dest, store.take(h)?),
            None => (None, Buffer::zeroed(extents.clone(), bounds.lb.clone())),
        });
    }
    let computed = if n_points > 0 {
        fill_targets(
            prog,
            (apply, args),
            store,
            mode,
            bounds,
            &mut targets,
            prepared,
        )
    } else {
        Ok(0)
    };
    let mut handles = Vec::with_capacity(targets.len());
    for (dest, buffer) in targets {
        handles.push(match dest {
            Some(h) => store.put(h, buffer).map(|()| h)?,
            None => store.alloc(buffer),
        });
    }
    store.count_dispatches(computed?);
    Ok(handles)
}

/// Run `prog` over the non-empty box `bounds`, result `o` into
/// `targets[o]`'s buffer. Returns the instructions dispatched.
fn fill_targets(
    prog: &Program,
    (apply, args): (OpId, &[RtValue]),
    store: &Store<'_>,
    mode: ApplyMode,
    bounds: &crate::types::StencilBounds,
    targets: &mut [(Option<usize>, Buffer)],
    prepared: &mut PreparedApplies,
) -> IrResult<u64> {
    let rank = bounds.rank();
    let (lb, ub) = (&bounds.lb[..], &bounds.ub[..]);
    let PreparedApplies { layouts, workers } = prepared;
    if !layouts
        .get(&apply)
        .is_some_and(|kept| kept.holds(args, store))
    {
        let layout = Layout::resolve(prog, args, store, rank, lb, ub)?;
        layouts.insert(apply, layout);
    }
    let inputs = layouts[&apply].bind(args, store)?;
    let threads = match mode {
        ApplyMode::Chunked { threads } if rank > 0 => threads,
        // Scalar dispatch, or one point with nothing to block or split:
        // the per-point path (which runs a rank-0 program exactly once,
        // like the tree-walker). Its targets are always temps of exactly
        // the box, so the k-th point is the k-th element.
        _ => {
            let mut outs: Vec<&mut [f64]> = targets
                .iter_mut()
                .map(|(_, buffer)| buffer.data.as_mut_slice())
                .collect();
            return Ok(run_points(prog, &inputs, lb, ub, &mut outs));
        }
    };
    let rows = ub[0] - lb[0];
    let mut outs: Vec<OutRows<'_>> = targets
        .iter_mut()
        .map(|(_, buffer)| OutRows::whole(buffer))
        .collect();
    let n_points: usize = lb.iter().zip(ub).map(|(&l, &u)| (u - l) as usize).product();
    // Cap the fan-out twice: a thread per row at most, and at least ~2k
    // points per worker — below that, spawn and join cost more than the
    // slab's compute and threading makes small applies *slower*.
    let threads = threads.clamp(1, rows as usize).min(1 + n_points / 2048);
    if workers.len() < threads {
        workers.resize_with(threads, Registers::default);
    }
    if threads <= 1 {
        let regs = &mut workers[0];
        let rows = (0, rows);
        return Ok(run_slab_blocks(
            prog, &inputs, lb, ub, rows, &mut outs, regs,
        ));
    }
    // Give each worker the planes of its slab's axis-0 rows in every
    // target (axis 0 is outermost, so they are one contiguous range of
    // each, halo columns included), and a register file of its own.
    // Inputs are shared read-only.
    let inputs = &inputs;
    Ok(std::thread::scope(|scope| {
        let workers: Vec<_> = slab_partition(rows, threads)
            .into_iter()
            .filter(|&(s, e)| e > s)
            .zip(workers.iter_mut())
            .map(|((s, e), regs)| {
                let mut mine: Vec<OutRows<'_>> = outs
                    .iter_mut()
                    .map(|o| o.split_off_rows(lb[0] + s, lb[0] + e))
                    .collect();
                let rows = (s, e);
                scope.spawn(move || run_slab_blocks(prog, inputs, lb, ub, rows, &mut mine, regs))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| {
                w.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .sum()
    }))
}

/// Apply results that may be computed straight into a field, each mapped
/// to the `stencil.store` that would otherwise copy it there.
pub type DirectStores = IdMap<ValueId, OpId>;

/// Decide, from the IR alone, which `stencil.apply` results under `func`
/// need no temp (destination passing). A result qualifies when
///
/// * its apply sits in `func`'s entry block,
/// * its only use is as the source of a `stencil.store` in that block,
///   whose bounds are the result's whole bounds, and
/// * the store's field is an argument of `func` with no other use —
///   nothing in the function loads it or stores to it again.
///
/// Under that rule writing the field when the apply runs rather than
/// when the store does is unobservable: the same elements receive the
/// same values, no op between the two can read the field, and the store
/// runs whenever the apply did. What the IR cannot show — that the
/// caller bound the field's buffer to no other argument — the
/// [`Machine`](crate::interp::Machine) checks per call.
pub fn direct_stores(ctx: &Context, func: OpId) -> DirectStores {
    let mut direct = DirectStores::default();
    let Some(entry) = ctx.entry_block(func) else {
        return direct;
    };
    for &apply in ctx.block_ops(entry) {
        if ctx.op_name(apply) != "stencil.apply" {
            continue;
        }
        for &result in ctx.results(apply) {
            let [only] = ctx.value_uses(result) else {
                continue;
            };
            let store = only.op;
            if ctx.op_name(store) != "stencil.store"
                || only.operand_index != 0
                || ctx.operands(store).len() != 2
                || ctx.parent_block(store) != Some(entry)
            {
                continue;
            }
            let field = ctx.operands(store)[1];
            let whole = ctx
                .value_type(result)
                .stencil_bounds()
                .zip(
                    ctx.attr(store, "bounds")
                        .and_then(Attribute::as_index_array),
                )
                .is_some_and(|(b, flat)| flat == [&b.lb[..], &b.ub[..]].concat());
            if whole && ctx.block_args(entry).contains(&field) && ctx.value_uses(field).len() == 1 {
                direct.insert(result, store);
            }
        }
    }
    direct
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::OpBuilder;
    use crate::interp::{Machine, NoExtern};
    use crate::prelude::*;

    #[test]
    fn builder_runs_and_reuses_registers() {
        let mut b = ProgramBuilder::new();
        let a = b.input(InputRef::Scalar { operand: 0 });
        let c = b.constant(2.0);
        let t1 = b.emit(Eval::Bin(BinOp::Mul), &[a, c]).unwrap(); // dies feeding t2
        let t2 = b.emit(Eval::Bin(BinOp::Add), &[t1, a]).unwrap();
        let t3 = b.emit(Eval::Un(UnOp::Neg), &[t2]).unwrap();
        let p = b.finish(&[t3]).unwrap();
        // 1 input + at most 3 live temps; the free list keeps it tight.
        assert!(p.n_regs <= 4, "n_regs = {}", p.n_regs);
        let mut regs = vec![0.0; p.n_regs as usize];
        regs[0] = 3.0;
        p.run(&mut regs);
        assert_eq!(regs[p.results[0] as usize], -(3.0 * 2.0 + 3.0));
    }

    #[test]
    fn input_registers_survive_repeated_runs() {
        // Shrunk from a fuzzed kernel: `out = (c + 1.0) / 0.65` with a
        // scalar constant `c`. The scalar's last use is early, so a naive
        // allocator recycles its register as the division's destination —
        // and a host that prefills scalars once (as `exec_apply` does)
        // then reads the previous point's result instead of `c` on every
        // point after the first.
        let mut b = ProgramBuilder::new();
        let c = b.input(InputRef::Scalar { operand: 0 });
        let one = b.constant(1.0);
        let s = b.emit(Eval::Bin(BinOp::Add), &[c, one]).unwrap();
        let d = b.constant(0.65);
        let q = b.emit(Eval::Bin(BinOp::Div), &[s, d]).unwrap();
        let p = b.finish(&[q]).unwrap();
        let mut regs = vec![0.0; p.n_regs as usize];
        regs[0] = 1.84;
        p.run(&mut regs);
        let first = regs[p.results[0] as usize];
        assert_eq!(first.to_bits(), ((1.84f64 + 1.0) / 0.65).to_bits());
        // Without refilling anything, a second run must see the scalar
        // intact and reproduce the same answer bit-for-bit.
        p.run(&mut regs);
        assert_eq!(regs[0].to_bits(), 1.84f64.to_bits());
        assert_eq!(regs[p.results[0] as usize].to_bits(), first.to_bits());
    }

    #[test]
    fn long_chain_stays_in_few_registers() {
        let mut b = ProgramBuilder::new();
        let x = b.input(InputRef::Scalar { operand: 0 });
        let mut acc = b.constant(0.0);
        for _ in 0..64 {
            acc = b.emit(Eval::Bin(BinOp::Add), &[acc, x]).unwrap();
        }
        let p = b.finish(&[acc]).unwrap();
        assert!(p.n_regs <= 4, "n_regs = {}", p.n_regs);
        let mut regs = vec![0.0; p.n_regs as usize];
        regs[0] = 1.5;
        p.run(&mut regs);
        assert_eq!(regs[p.results[0] as usize], 64.0 * 1.5);
    }

    #[test]
    fn duplicate_inputs_share_a_register() {
        let mut b = ProgramBuilder::new();
        let a1 = b.input(InputRef::Access {
            operand: 0,
            offset: vec![1],
        });
        let a2 = b.input(InputRef::Access {
            operand: 0,
            offset: vec![1],
        });
        assert_eq!(a1, a2);
        let s = b.emit(Eval::Bin(BinOp::Add), &[a1, a2]).unwrap();
        let p = b.finish(&[s]).unwrap();
        assert_eq!(p.inputs.len(), 1);
    }

    /// Hand-build `out[i] = in[i-1] + in[i+1]` (the interpreter test's
    /// apply) over `[0, n)`, compile it, and check the fast path is
    /// bitwise-identical to the tree-walker.
    fn build_sum_module_n(n: i64) -> (Context, OpId, OpId) {
        let mut ctx = Context::new();
        let module = ctx.create_op("builtin.module", vec![], vec![], []);
        let mr = ctx.add_region(module);
        let mb = ctx.add_block(mr, vec![]);
        let field_ty = Type::stencil_field(StencilBounds::new(vec![-1], vec![n + 1]), Type::F64);
        let temp_in = Type::stencil_temp(StencilBounds::new(vec![-1], vec![n + 1]), Type::F64);
        let temp_out = Type::stencil_temp(StencilBounds::new(vec![0], vec![n]), Type::F64);

        let mut b = OpBuilder::at_block_end(&mut ctx, mb);
        let mut fattrs = std::collections::BTreeMap::new();
        fattrs.insert("sym_name".to_string(), Attribute::string("main"));
        let (_f, fb) = b.build_with_region(
            "func.func",
            vec![],
            vec![],
            fattrs,
            vec![field_ty.clone(), field_ty.clone(), Type::F64],
        );
        let fin = ctx.block_args(fb)[0];
        let fout = ctx.block_args(fb)[1];
        let w = ctx.block_args(fb)[2];
        let mut b = OpBuilder::at_block_end(&mut ctx, fb);
        let loaded = b.build_value("stencil.load", vec![fin], temp_in.clone());
        let (apply, ab) = b.build_with_region(
            "stencil.apply",
            vec![loaded, w],
            vec![temp_out.clone()],
            [],
            vec![temp_in, Type::F64],
        );
        let arg = ctx.block_args(ab)[0];
        let warg = ctx.block_args(ab)[1];
        let mut ib = OpBuilder::at_block_end(&mut ctx, ab);
        let l = ib.build_value("stencil.access", vec![arg], Type::F64);
        ctx.set_attr(
            ctx.defining_op(l).unwrap(),
            "offset",
            Attribute::IndexArray(vec![-1]),
        );
        let mut ib = OpBuilder::at_block_end(&mut ctx, ab);
        let r = ib.build_value("stencil.access", vec![arg], Type::F64);
        ctx.set_attr(
            ctx.defining_op(r).unwrap(),
            "offset",
            Attribute::IndexArray(vec![1]),
        );
        let mut ib = OpBuilder::at_block_end(&mut ctx, ab);
        let s = ib.build_value("arith.addf", vec![l, r], Type::F64);
        let scaled = ib.build_value("arith.mulf", vec![s, warg], Type::F64);
        ib.build("stencil.return", vec![scaled], vec![]);

        let apply_res = ctx.result(apply, 0);
        let mut b = OpBuilder::at_block_end(&mut ctx, fb);
        let store = b.build("stencil.store", vec![apply_res, fout], vec![]);
        b.build("func.return", vec![], vec![]);
        ctx.set_attr(store, "bounds", Attribute::IndexArray(vec![0, n]));
        (ctx, module, apply)
    }

    fn build_sum_module() -> (Context, OpId, OpId) {
        build_sum_module_n(8)
    }

    fn run_sum_n(
        ctx: &Context,
        module: OpId,
        plans: IdMap<OpId, std::sync::Arc<Program>>,
        mode: ApplyMode,
        n: i64,
    ) -> Vec<f64> {
        let mut no = NoExtern;
        let mut m = Machine::new(ctx, module, &mut no);
        m.apply_plans = plans;
        m.apply_mode = mode;
        let mut in_buf = Buffer::zeroed(vec![n + 2], vec![-1]);
        for i in -1..n + 1 {
            in_buf.store(&[i], 0.1 * i as f64 + 0.3).unwrap();
        }
        let in_h = m.store.alloc(in_buf);
        let out_h = m.store.alloc(Buffer::zeroed(vec![n + 2], vec![-1]));
        m.call(
            "main",
            &[
                RtValue::MemRef(in_h),
                RtValue::MemRef(out_h),
                RtValue::F64(0.7),
            ],
        )
        .unwrap();
        m.store.get(out_h).unwrap().data.clone()
    }

    fn run_sum(
        ctx: &Context,
        module: OpId,
        plans: IdMap<OpId, std::sync::Arc<Program>>,
    ) -> Vec<f64> {
        run_sum_n(ctx, module, plans, ApplyMode::default(), 8)
    }

    #[test]
    fn compiled_apply_is_bitwise_identical_to_tree_walker() {
        let (ctx, module, apply) = build_sum_module();
        let prog = compile_apply(&ctx, apply).unwrap();
        assert_eq!(prog.inputs.len(), 3); // two accesses + one scalar
        let tree = run_sum(&ctx, module, IdMap::default());
        let mut plans = IdMap::default();
        plans.insert(apply, std::sync::Arc::new(prog));
        let fast = run_sum(&ctx, module, plans);
        assert_eq!(tree.len(), fast.len());
        for (i, (a, b)) in tree.iter().zip(&fast).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "element {i}: {a} vs {b}");
        }
    }

    #[test]
    fn unsupported_op_fails_to_compile() {
        let (mut ctx, _module, apply) = build_sum_module();
        // Wedge an unsupported op into the body, ahead of the return.
        let ab = ctx.entry_block(apply).unwrap();
        let first = ctx.block_ops(ab)[0];
        let arg = ctx.block_args(ab)[1];
        let mut b = OpBuilder::before(&mut ctx, first);
        b.build_value("arith.fptosi", vec![arg], Type::I64);
        let e = compile_apply(&ctx, apply).unwrap_err();
        assert!(e.to_string().contains("unsupported op"), "{e}");
    }

    #[test]
    fn mutated_opcode_changes_the_result() {
        // The self-test the conformance fault-injection suite relies on:
        // flipping one opcode must produce observably different output.
        let (ctx, module, apply) = build_sum_module();
        let mut prog = compile_apply(&ctx, apply).unwrap();
        let pos = prog
            .instrs
            .iter()
            .position(|i| matches!(i, Instr::Binary { op: BinOp::Add, .. }))
            .unwrap();
        if let Instr::Binary { op, .. } = &mut prog.instrs[pos] {
            *op = BinOp::Sub;
        }
        let tree = run_sum(&ctx, module, IdMap::default());
        let mut plans = IdMap::default();
        plans.insert(apply, std::sync::Arc::new(prog));
        let mutated = run_sum(&ctx, module, plans);
        assert_ne!(tree, mutated);
    }

    #[test]
    fn every_mode_is_bitwise_identical_at_chunk_boundaries() {
        // The block-grid seams of one row: packed lengths (1, 3, 16 and
        // either side of `PACK_BELOW`), one block less one lane, exactly
        // one, one plus a one-lane block, two plus one, and a row long
        // enough that the threaded schedule splits it between workers.
        // Scalar, block, and block+threaded must all reproduce the
        // tree-walker bit-for-bit at each of them.
        let (w, pack) = (BLOCK as i64, PACK_BELOW as i64);
        for n in [
            1,
            3,
            16,
            pack - 1,
            pack,
            w - 1,
            w,
            w + 1,
            2 * w + 1,
            17 * w + 3,
        ] {
            let (ctx, module, apply) = build_sum_module_n(n);
            let prog = std::sync::Arc::new(compile_apply(&ctx, apply).unwrap());
            let tree = run_sum_n(&ctx, module, IdMap::default(), ApplyMode::Scalar, n);
            for mode in [
                ApplyMode::Scalar,
                ApplyMode::Chunked { threads: 1 },
                ApplyMode::Chunked { threads: 3 },
            ] {
                let mut plans = IdMap::default();
                plans.insert(apply, std::sync::Arc::clone(&prog));
                let got = run_sum_n(&ctx, module, plans, mode, n);
                assert_eq!(tree.len(), got.len());
                for (i, (a, b)) in tree.iter().zip(&got).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "n={n} mode={mode:?} element {i}: {a} vs {b}"
                    );
                }
            }
        }
    }

    /// Run `prog` over `n` lanes of seeded inputs as one block and point
    /// by point through [`Program::run`], and require every result equal
    /// to the bit in every lane.
    fn assert_block_matches_points(prog: &Program, n: usize) {
        let n_in = prog.inputs.len();
        let mut rng = crate::rng::Rng::new(3);
        let own: Vec<f64> = (0..n_in * BLOCK)
            .map(|_| rng.coarse_f64(0.5, 4.0))
            .collect();
        let input = |i: usize| &own[i * BLOCK..][..n];
        let mut temps = vec![f64::NAN; prog.block_temps()];
        prog.run_block(n, input, &mut temps);
        for l in 0..n {
            let mut regs = vec![0.0; prog.n_regs as usize];
            for (i, reg) in regs.iter_mut().enumerate().take(n_in) {
                *reg = own[i * BLOCK + l];
            }
            prog.run(&mut regs);
            for &r in &prog.results {
                let (block, point) = (prog.block_lanes(r, n, input, &temps)[l], regs[r as usize]);
                assert_eq!(
                    block.to_bits(),
                    point.to_bits(),
                    "n={n} lane {l} register {r}"
                );
            }
        }
    }

    #[test]
    fn aliased_registers_run_in_place_as_the_scalar_loop_does() {
        // The builder never aliases a destination with its operands, but
        // `Program`'s fields are public: every aliasing a hand-made
        // program can spell must read before it writes, lane by lane.
        let (x, y, t, u) = (0, 1, 2, 3);
        let bin = |op, dst, lhs, rhs| Instr::Binary { op, dst, lhs, rhs };
        let prog = Program {
            inputs: vec![
                InputRef::Scalar { operand: 0 },
                InputRef::Scalar { operand: 1 },
            ],
            instrs: vec![
                bin(BinOp::Mul, t, x, y),
                bin(BinOp::Sub, t, t, x), // dst == lhs
                bin(BinOp::Div, t, y, t), // dst == rhs
                bin(BinOp::Add, u, t, t), // lhs == rhs, a temp
                bin(BinOp::Mul, u, u, u), // all three equal
                bin(BinOp::Max, t, x, x), // lhs == rhs, an input
                Instr::Unary {
                    op: UnOp::Sqrt,
                    dst: u,
                    src: u,
                }, // unary in place
                Instr::Fma {
                    dst: t,
                    a: t,
                    b: u,
                    c: t,
                },
            ],
            n_regs: 4,
            results: vec![t, u, x], // and a result that is an input
        };
        for n in [BLOCK, 5] {
            assert_block_matches_points(&prog, n);
        }
    }

    /// Build an apply with no grid dimensions at all: result bounds
    /// `[] → []`, body `out = w * w` from one scalar operand.
    fn build_rank0_apply() -> (Context, OpId) {
        let mut ctx = Context::new();
        let module = ctx.create_op("builtin.module", vec![], vec![], []);
        let mr = ctx.add_region(module);
        let mb = ctx.add_block(mr, vec![]);
        let temp_out = Type::stencil_temp(StencilBounds::new(vec![], vec![]), Type::F64);
        let mut b = OpBuilder::at_block_end(&mut ctx, mb);
        let mut fattrs = std::collections::BTreeMap::new();
        fattrs.insert("sym_name".to_string(), Attribute::string("main"));
        let (_f, fb) = b.build_with_region("func.func", vec![], vec![], fattrs, vec![Type::F64]);
        let w = ctx.block_args(fb)[0];
        let mut b = OpBuilder::at_block_end(&mut ctx, fb);
        let (apply, ab) = b.build_with_region(
            "stencil.apply",
            vec![w],
            vec![temp_out],
            [],
            vec![Type::F64],
        );
        let warg = ctx.block_args(ab)[0];
        let mut ib = OpBuilder::at_block_end(&mut ctx, ab);
        let sq = ib.build_value("arith.mulf", vec![warg, warg], Type::F64);
        ib.build("stencil.return", vec![sq], vec![]);
        (ctx, apply)
    }

    /// A kept layout holds only for operands of the geometry it was
    /// resolved against: one run after another over the same
    /// `PreparedApplies`, an input buffer that moves its origin is
    /// resolved again (a stale map would read the wrong elements), one too
    /// short for the box is refused as a fresh run would refuse it, and
    /// the first geometry is taken back up after both.
    #[test]
    fn a_kept_layout_is_resolved_again_when_an_operand_moves() {
        let (ctx, _, apply) = build_sum_module_n(8);
        let prog = compile_apply(&ctx, apply).unwrap();
        let mut prepared = PreparedApplies::default();
        let w = 0.7;
        for (shape, origin) in [(10, -1), (12, -2), (9, -1), (10, -1)] {
            let mut input = Buffer::zeroed(vec![shape], vec![origin]);
            input.data.fill_with({
                let mut v = shape as f64;
                move || {
                    v += 0.25;
                    v * v
                }
            });
            let mut store = Store::new();
            let h = store.alloc(input.clone());
            let args = [RtValue::MemRef(h), RtValue::F64(w)];
            let mode = ApplyMode::Chunked { threads: 1 };
            let ran = exec_apply_with(
                &ctx,
                apply,
                &args,
                &mut store,
                &prog,
                mode,
                &[],
                &mut prepared,
            );
            if shape == 9 {
                let e = ran.unwrap_err().to_string();
                assert!(e.contains("out of bounds"), "{e}");
                continue;
            }
            let out = store.get(ran.unwrap()[0]).unwrap();
            for i in 0..8 {
                let want = (input.load(&[i - 1]).unwrap() + input.load(&[i + 1]).unwrap()) * w;
                let got = out.load(&[i]).unwrap();
                assert_eq!(got.to_bits(), want.to_bits(), "{shape}@{origin}, point {i}");
            }
        }
    }

    #[test]
    fn rank0_apply_runs_the_program_once() {
        // Regression: a rank-0 iteration box is *one* point (the empty
        // index — the tree-walker's `iter_box(&[], &[])` yields exactly
        // it), but the executor's old `n_points > 0 && rank > 0` guard
        // skipped the loop entirely and returned a zero-filled buffer
        // without ever running the program. (Compilation also rejected
        // rank 0 outright, hiding the dead path.)
        let (ctx, apply) = build_rank0_apply();
        let prog = compile_apply(&ctx, apply).expect("rank-0 apply must compile");
        let mut store = Store::new();
        for mode in [
            ApplyMode::Scalar,
            ApplyMode::Chunked { threads: 1 },
            ApplyMode::Chunked { threads: 4 },
        ] {
            let handles = exec_apply_with(
                &ctx,
                apply,
                &[RtValue::F64(1.5)],
                &mut store,
                &prog,
                mode,
                &[],
                &mut PreparedApplies::default(),
            )
            .unwrap();
            assert_eq!(handles.len(), 1);
            let buf = store.get(handles[0]).unwrap();
            assert_eq!(buf.shape, Vec::<i64>::new());
            assert_eq!(buf.data.len(), 1, "rank-0 box is one point");
            assert_eq!(
                buf.data[0].to_bits(),
                (1.5f64 * 1.5).to_bits(),
                "mode {mode:?}: the program must actually run"
            );
        }
    }

    /// Build an apply over an *empty* box (`lb > ub`, extent −3), body
    /// `out = w` — no accesses, so input resolution has nothing to
    /// bounds-check against the degenerate box.
    fn build_empty_box_apply() -> (Context, OpId) {
        let mut ctx = Context::new();
        let module = ctx.create_op("builtin.module", vec![], vec![], []);
        let mr = ctx.add_region(module);
        let mb = ctx.add_block(mr, vec![]);
        let temp_out = Type::stencil_temp(StencilBounds::new(vec![5], vec![2]), Type::F64);
        let mut b = OpBuilder::at_block_end(&mut ctx, mb);
        let mut fattrs = std::collections::BTreeMap::new();
        fattrs.insert("sym_name".to_string(), Attribute::string("main"));
        let (_f, fb) = b.build_with_region("func.func", vec![], vec![], fattrs, vec![Type::F64]);
        let w = ctx.block_args(fb)[0];
        let mut b = OpBuilder::at_block_end(&mut ctx, fb);
        let (apply, ab) = b.build_with_region(
            "stencil.apply",
            vec![w],
            vec![temp_out],
            [],
            vec![Type::F64],
        );
        let warg = ctx.block_args(ab)[0];
        let mut ib = OpBuilder::at_block_end(&mut ctx, ab);
        ib.build("stencil.return", vec![warg], vec![]);
        (ctx, apply)
    }

    #[test]
    fn empty_box_apply_yields_consistent_empty_buffers() {
        // Regression: result buffers used to be allocated with the raw
        // extents as their shape while the element count clamped negative
        // extents to zero — an empty `data` under a shape claiming −3
        // elements, which wraps to huge indices the moment anything
        // computes a linear offset from it. The normalised contract:
        // empty box ⇒ shape is the *clamped* extents and data is empty.
        let (ctx, apply) = build_empty_box_apply();
        let prog = compile_apply(&ctx, apply).unwrap();
        let mut store = Store::new();
        for mode in [ApplyMode::Scalar, ApplyMode::Chunked { threads: 2 }] {
            let handles = exec_apply_with(
                &ctx,
                apply,
                &[RtValue::F64(2.0)],
                &mut store,
                &prog,
                mode,
                &[],
                &mut PreparedApplies::default(),
            )
            .unwrap();
            let buf = store.get(handles[0]).unwrap();
            assert_eq!(buf.shape, vec![0], "mode {mode:?}: shape must be clamped");
            assert!(buf.data.is_empty(), "mode {mode:?}");
            assert_eq!(buf.shape.iter().product::<i64>() as usize, buf.data.len());
        }
    }

    /// What [`stored_module`] varies: the fields `main` takes, the one it
    /// loads, how many results the apply yields and which `(result,
    /// field, store bounds)` triples follow it (`None` = the result's
    /// whole bounds).
    struct Stored<'a> {
        fields: &'a [&'a str],
        load: &'a str,
        results: usize,
        stores: &'a [(usize, &'a str, Option<&'a [i64]>)],
    }

    /// `main(fields.., %w)` over an interior of `extents` with `halo`:
    /// `r0 = in[-halo, 0..] + in[0.., +halo] * w`, `r1 = in[0.., +halo] *
    /// w`, then the stores — the shape the frontend emits, as text.
    fn stored_module(extents: &[i64], halo: i64, case: &Stored<'_>) -> (Context, OpId) {
        let rank = extents.len();
        let dims = |lo: i64, grow: i64| {
            let d: Vec<String> = extents
                .iter()
                .map(|&n| format!("[{},{}]", lo, n + grow))
                .collect();
            d.join("x")
        };
        let field = format!("!stencil.field<{}xf64>", dims(-halo, halo));
        let padded = format!("!stencil.temp<{}xf64>", dims(-halo, halo));
        let interior = format!("!stencil.temp<{}xf64>", dims(0, 0));
        let offset = |axis: usize, by: i64| {
            let o: Vec<String> = (0..rank)
                .map(|d| {
                    if d == axis {
                        by.to_string()
                    } else {
                        "0".into()
                    }
                })
                .collect();
            o.join(", ")
        };
        let params: Vec<String> = case
            .fields
            .iter()
            .map(|f| format!("%{f}: {field}"))
            .collect();
        let names: Vec<String> = (0..case.results).map(|o| format!("%r{o}")).collect();
        let yielded = ["%v", "%m"][..case.results].join(", ");
        let tys = |ty: &str, n: usize| vec![ty; n].join(", ");
        let stores: String = case
            .stores
            .iter()
            .map(|&(o, f, partial)| {
                let whole: Vec<i64> = vec![0; rank].into_iter().chain(extents.iter().copied()).collect();
                let bounds: Vec<String> = partial.unwrap_or(&whole).iter().map(i64::to_string).collect();
                format!(
                    "    \"stencil.store\"(%r{o}, %{f}) {{bounds = <[{}]>}} : ({interior}, {field}) -> ()\n",
                    bounds.join(", ")
                )
            })
            .collect();
        let text = format!(
            r#""builtin.module"() ({{
^bb():
  "func.func"() ({{
  ^bb({params}, %w: f64):
    %t = "stencil.load"(%{load}) : ({field}) -> ({padded})
    {names} = "stencil.apply"(%t, %w) ({{
    ^bb(%a: {padded}, %s: f64):
      %l = "stencil.access"(%a) {{offset = <[{lo}]>}} : ({padded}) -> (f64)
      %u = "stencil.access"(%a) {{offset = <[{hi}]>}} : ({padded}) -> (f64)
      %m = "arith.mulf"(%u, %s) : (f64, f64) -> (f64)
      %v = "arith.addf"(%l, %m) : (f64, f64) -> (f64)
      "stencil.return"({yielded}) : ({f64s}) -> ()
    }}) : ({padded}, f64) -> ({interiors})
{stores}    "func.return"() : () -> ()
  }}) {{sym_name = "main"}} : () -> ()
}}) : () -> ()"#,
            params = params.join(", "),
            load = case.load,
            names = names.join(", "),
            lo = offset(0, -halo),
            hi = offset(rank - 1, halo),
            f64s = tys("f64", case.results),
            interiors = tys(&interior, case.results),
        );
        parse_op(&text).unwrap_or_else(|e| panic!("{e}\n{text}"))
    }

    /// The contents every [`run_stored`] starts its fields with.
    fn seeded_fields(ctx: &Context, func: OpId, n_fields: usize) -> Vec<Buffer> {
        let first = ctx.block_args(ctx.entry_block(func).unwrap())[0];
        let bounds = ctx.value_type(first).stencil_bounds().unwrap();
        let mut rng = crate::rng::Rng::new(11);
        (0..n_fields)
            .map(|_| {
                let mut field = Buffer::zeroed(bounds.extents(), bounds.lb.clone());
                field.data.fill_with(|| rng.coarse_f64(-4.0, 4.0));
                field
            })
            .collect()
    }

    /// Run `main` of a [`stored_module`] on seeded field contents (rings
    /// included) and return every field's final buffer plus how many
    /// buffers the store ended with. `direct` installs the module's
    /// [`direct_stores`]; plans are installed unless `mode` is `None`
    /// (the tree-walker).
    fn run_stored(
        (ctx, module): &(Context, OpId),
        n_fields: usize,
        mode: Option<ApplyMode>,
        direct: bool,
    ) -> (Vec<Buffer>, usize) {
        let func = ctx.find_ops(*module, "func.func")[0];
        let mut no = NoExtern;
        let mut m = Machine::new(ctx, *module, &mut no);
        if let Some(mode) = mode {
            for apply in ctx.find_ops(func, "stencil.apply") {
                let plan = compile_apply(ctx, apply).unwrap();
                m.apply_plans.insert(apply, std::sync::Arc::new(plan));
            }
            m.apply_mode = mode;
        }
        if direct {
            m.direct_stores = direct_stores(ctx, func);
        }
        let mut args: Vec<RtValue> = seeded_fields(ctx, func, n_fields)
            .into_iter()
            .map(|field| RtValue::MemRef(m.store.alloc(field)))
            .collect();
        args.push(RtValue::F64(0.7));
        m.call("main", &args).unwrap();
        let fields = (0..n_fields)
            .map(|h| m.store.get(h).unwrap().clone())
            .collect();
        (fields, m.store.len())
    }

    fn assert_bitwise(got: &[Buffer], want: &[Buffer], what: &str) {
        for (f, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.shape, w.shape, "{what}: field {f}");
            for (i, (a, b)) in g.data.iter().zip(&w.data).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{what}: field {f} element {i}");
            }
        }
    }

    #[test]
    fn destination_passing_holds_at_every_eligibility_edge() {
        let part: &[i64] = &[1, 0, 3, 9];
        // (what, module shape, results computed in place)
        let cases: [(&str, Stored<'_>, usize); 5] = [
            (
                "eligible",
                Stored {
                    fields: &["in", "out"],
                    load: "in",
                    results: 1,
                    stores: &[(0, "out", None)],
                },
                1,
            ),
            (
                "destination also loaded (inout)",
                Stored {
                    fields: &["io", "other"],
                    load: "io",
                    results: 1,
                    stores: &[(0, "io", None)],
                },
                0,
            ),
            (
                "temp with two uses",
                Stored {
                    fields: &["in", "out", "twin"],
                    load: "in",
                    results: 1,
                    stores: &[(0, "out", None), (0, "twin", None)],
                },
                0,
            ),
            (
                "store of partial bounds",
                Stored {
                    fields: &["in", "out"],
                    load: "in",
                    results: 1,
                    stores: &[(0, "out", Some(part))],
                },
                0,
            ),
            (
                "two results stored to one field",
                Stored {
                    fields: &["in", "out"],
                    load: "in",
                    results: 2,
                    stores: &[(0, "out", None), (1, "out", None)],
                },
                0,
            ),
        ];
        for (what, case, in_place) in &cases {
            let built = stored_module(&[4, 9], 1, case);
            crate::verifier::verify(&built.0, built.1).unwrap();
            let func = built.0.find_ops(built.1, "func.func")[0];
            assert_eq!(direct_stores(&built.0, func).len(), *in_place, "{what}");
            let n = case.fields.len();
            let (tree, _) = run_stored(&built, n, None, false);
            for threads in [1, 3] {
                let mode = ApplyMode::Chunked { threads };
                let (got, buffers) = run_stored(&built, n, Some(mode), true);
                assert_bitwise(&got, &tree, what);
                // In place means no temp: the arguments are all there is.
                assert_eq!(buffers, n + case.results - in_place, "{what}");
            }
            // The per-point tier keeps its temps whatever the IR allows.
            let (scalar, buffers) = run_stored(&built, n, Some(ApplyMode::Scalar), true);
            assert_bitwise(&scalar, &tree, what);
            assert_eq!(buffers, n + case.results, "{what}");
        }
    }

    #[test]
    fn a_destination_bound_to_two_arguments_gets_a_temp() {
        // What the IR cannot show: the caller passing one buffer as both
        // the loaded field and the stored one. The early write would be
        // read back by the apply itself, so the machine must notice.
        let case = Stored {
            fields: &["in", "out"],
            load: "in",
            results: 1,
            stores: &[(0, "out", None)],
        };
        let (ctx, module) = stored_module(&[3, 9], 1, &case);
        let func = ctx.find_ops(module, "func.func")[0];
        let apply = ctx.find_ops(func, "stencil.apply")[0];
        let run = |direct: bool| {
            let mut no = NoExtern;
            let mut m = Machine::new(&ctx, module, &mut no);
            let plan = compile_apply(&ctx, apply).unwrap();
            m.apply_plans.insert(apply, std::sync::Arc::new(plan));
            if direct {
                m.direct_stores = direct_stores(&ctx, func);
            }
            let mut both = Buffer::zeroed(vec![5, 11], vec![-1, -1]);
            let mut rng = crate::rng::Rng::new(5);
            both.data.fill_with(|| rng.coarse_f64(-4.0, 4.0));
            let h = m.store.alloc(both);
            let args = [RtValue::MemRef(h), RtValue::MemRef(h), RtValue::F64(0.7)];
            m.call("main", &args).unwrap();
            (vec![m.store.get(h).unwrap().clone()], m.store.len())
        };
        let (with, buffers) = run(true);
        assert_eq!(buffers, 2, "one shared argument and the temp");
        assert_bitwise(&with, &run(false).0, "aliased arguments");
    }

    #[test]
    fn destination_passing_equals_temp_and_copy_on_seeded_shapes() {
        // (extents, halo, threads): inner extents packed several to a
        // block and cut into blocks of their own, one to six axis-0 rows
        // (so threads > rows occurs) and, at rank 3, enough points — a
        // worker per 2048 — that the slab split really spawns up to three
        // of them.
        let (w, pack) = (BLOCK as i64, PACK_BELOW as i64);
        let gen = |rng: &mut crate::rng::Rng| {
            let inner = *rng.pick(&[1, 3, 16, pack, w + 1]);
            let extents = match rng.range(1, 4) {
                1 => vec![inner],
                2 => vec![rng.range_i64(1, 6), inner],
                _ => vec![rng.range_i64(1, 6), rng.range_i64(48, 96), inner],
            };
            (extents, rng.range_i64(1, 2), rng.range(1, 6))
        };
        let case = Stored {
            fields: &["in", "out"],
            load: "in",
            results: 1,
            stores: &[(0, "out", None)],
        };
        crate::rng::sweep(15, 48, gen, |(extents, halo, threads)| {
            let built = stored_module(extents, *halo, &case);
            let mode = Some(ApplyMode::Chunked { threads: *threads });
            let (direct, buffers) = run_stored(&built, 2, mode, true);
            let (copied, _) = run_stored(&built, 2, mode, false);
            assert_eq!(buffers, 2, "no temp was allocated");
            assert_bitwise(&direct, &copied, "direct vs temp + copy");
            // Outside the box the destination is exactly what it was.
            let func = built.0.find_ops(built.1, "func.func")[0];
            let (initial, out) = (&seeded_fields(&built.0, func, 2)[1], &direct[1]);
            let ub: Vec<i64> = extents.iter().map(|&n| n + halo).collect();
            for p in crate::interp::iter_box(&out.origin, &ub) {
                if p.iter().zip(extents).any(|(&x, &n)| x < 0 || x >= n) {
                    let (was, is) = (initial.load(&p).unwrap(), out.load(&p).unwrap());
                    assert_eq!(was.to_bits(), is.to_bits(), "ring at {p:?}");
                }
            }
        });
    }

    #[test]
    fn slab_partition_covers_and_balances() {
        for (n0, parts) in [(10, 3), (8, 8), (3, 5), (0, 2), (64, 7), (1, 1)] {
            let slabs = slab_partition(n0, parts);
            assert_eq!(slabs.len(), parts);
            assert_eq!(slabs.first().unwrap().0, 0);
            assert_eq!(slabs.last().unwrap().1, n0);
            let mut total = 0;
            for w in slabs.windows(2) {
                assert_eq!(w[0].1, w[1].0, "slabs must be contiguous");
            }
            for &(s, e) in &slabs {
                assert!(e >= s);
                assert!(
                    e - s <= n0 / parts as i64 + 1,
                    "heights differ by at most one"
                );
                total += e - s;
            }
            assert_eq!(total, n0);
        }
    }
}
