//! Reference interpreter for the structured-control-flow subset of the IR.
//!
//! The interpreter executes `builtin` / `func` / `arith` / `math` / `scf` /
//! `memref` and the `stencil` dialect directly. Ops it does not know
//! (every `hls` op and the runtime functions `load_data` / `shift_buffer`
//! / `write_data`) are forwarded to a pluggable [`ExternOps`] hook — the
//! pure interpreter rejects them, the FPGA simulator implements them with
//! FIFO/stream semantics. A dataflow region is not run here: the
//! simulator's executor schedules its stages, each of which it runs
//! through a [`Machine`].

use std::borrow::Cow;
use std::collections::BTreeMap;

use crate::attributes::Attribute;
use crate::error::IrResult;
use crate::ir::{BlockId, Context, IdMap, IdSet, OpId, ValueId};
use crate::scalar;
use crate::types::Type;
use crate::{ir_bail, ir_ensure, ir_error};

pub mod storage;

/// A runtime scalar, aggregate, or handle.
#[derive(Debug, Clone, PartialEq)]
pub enum RtValue {
    /// Integer (also used for `index` and `i32`).
    I64(i64),
    /// Float (also used for `f32`).
    F64(f64),
    /// Boolean (`i1`).
    Bool(bool),
    /// Handle into the [`Store`]'s buffer table.
    MemRef(usize),
    /// Handle into an extern-managed stream table.
    Stream(usize),
    /// A packed aggregate of floats — used for 512-bit memory beats and for
    /// shift-buffer windows (all stencil neighbour values in one element).
    /// `Arc` keeps stream elements cheap to duplicate across dataflow
    /// stages and `Send` for the threaded engine.
    Pack(std::sync::Arc<Vec<f64>>),
    /// No value.
    Unit,
}

impl RtValue {
    /// Integer content or error.
    pub fn as_i64(&self) -> IrResult<i64> {
        match self {
            RtValue::I64(v) => Ok(*v),
            RtValue::Bool(b) => Ok(*b as i64),
            _ => Err(ir_error!("expected integer runtime value, got {self:?}")),
        }
    }

    /// Float content or error.
    pub fn as_f64(&self) -> IrResult<f64> {
        match self {
            RtValue::F64(v) => Ok(*v),
            _ => Err(ir_error!("expected float runtime value, got {self:?}")),
        }
    }

    /// Bool content or error.
    pub fn as_bool(&self) -> IrResult<bool> {
        match self {
            RtValue::Bool(v) => Ok(*v),
            RtValue::I64(v) => Ok(*v != 0),
            _ => Err(ir_error!("expected bool runtime value, got {self:?}")),
        }
    }

    /// MemRef handle or error.
    pub fn as_memref(&self) -> IrResult<usize> {
        match self {
            RtValue::MemRef(h) => Ok(*h),
            _ => Err(ir_error!("expected memref runtime value, got {self:?}")),
        }
    }

    /// Stream handle or error.
    pub fn as_stream(&self) -> IrResult<usize> {
        match self {
            RtValue::Stream(h) => Ok(*h),
            _ => Err(ir_error!("expected stream runtime value, got {self:?}")),
        }
    }

    /// Packed aggregate content or error.
    pub fn as_pack(&self) -> IrResult<&[f64]> {
        match self {
            RtValue::Pack(p) => Ok(p),
            _ => Err(ir_error!("expected packed runtime value, got {self:?}")),
        }
    }

    /// Wrap a float vector as a packed aggregate.
    pub fn pack(values: Vec<f64>) -> RtValue {
        RtValue::Pack(std::sync::Arc::new(values))
    }
}

/// A dense row-major buffer backing a `memref` or stencil field/temp. Its
/// elements are allocated by [`storage`], a clone's included.
#[derive(Debug, PartialEq)]
pub struct Buffer {
    /// Logical shape. For stencil fields this is the *bounded* shape
    /// including halo; `origin` maps logical indices to storage offsets.
    pub shape: Vec<i64>,
    /// Logical index of the first stored element per dimension (the lower
    /// bound of stencil bounds; all-zero for plain memrefs).
    pub origin: Vec<i64>,
    /// Element storage.
    pub data: Vec<f64>,
}

impl Clone for Buffer {
    fn clone(&self) -> Self {
        Self {
            shape: self.shape.clone(),
            origin: self.origin.clone(),
            data: storage::copied(&self.data),
        }
    }
}

impl Buffer {
    /// A zero-filled buffer of the given logical shape and origin.
    pub fn zeroed(shape: Vec<i64>, origin: Vec<i64>) -> Self {
        // Normalise per dimension: any non-positive extent means an empty
        // buffer, and the stored shape must agree with the (empty) data —
        // a negative extent must never survive into `shape`, where a later
        // `as usize` index computation would wrap.
        let shape: Vec<i64> = shape.iter().map(|&e| e.max(0)).collect();
        let n: usize = shape.iter().map(|&e| e as usize).product();
        Self {
            data: storage::zeroed(n),
            shape,
            origin,
        }
    }

    /// Row-major linear offset of a logical index.
    pub fn offset(&self, index: &[i64]) -> IrResult<usize> {
        ir_ensure!(
            index.len() == self.shape.len(),
            "rank mismatch: index {index:?} vs shape {:?}",
            self.shape
        );
        let mut off: i64 = 0;
        for (d, &i) in index.iter().enumerate() {
            let local = i - self.origin[d];
            ir_ensure!(
                local >= 0 && local < self.shape[d],
                "index {index:?} out of bounds (shape {:?}, origin {:?}, dim {d})",
                self.shape,
                self.origin
            );
            off = off * self.shape[d] + local;
        }
        Ok(off as usize)
    }

    /// Read the element at a logical index.
    pub fn load(&self, index: &[i64]) -> IrResult<f64> {
        Ok(self.data[self.offset(index)?])
    }

    /// Write the element at a logical index.
    pub fn store(&mut self, index: &[i64], value: f64) -> IrResult<()> {
        let off = self.offset(index)?;
        self.data[off] = value;
        Ok(())
    }

    /// Copy the box `[lb, ub)` from `src` into `self`, element for
    /// element — semantically identical to a per-point `load`/`store`
    /// loop, executed as one contiguous `copy_from_slice` per inner-axis
    /// row (both buffers are row-major, so a row is contiguous in each).
    /// Bounds are validated once per dimension up front: the box is a
    /// product of intervals, so the two interval endpoints bound every
    /// point the copy will touch. Dimensions with `ub <= lb` make the
    /// box empty and the copy a no-op.
    pub fn copy_box_from(&mut self, src: &Buffer, lb: &[i64], ub: &[i64]) -> IrResult<()> {
        let rank = self.shape.len();
        ir_ensure!(
            src.shape.len() == rank && lb.len() == rank && ub.len() == rank,
            "copy_box_from rank mismatch: {lb:?}/{ub:?} vs shape {:?}",
            self.shape
        );
        if lb.iter().zip(ub).any(|(&l, &u)| u <= l) {
            return Ok(());
        }
        for buf in [&*self, src] {
            for d in 0..rank {
                let lo = lb[d] - buf.origin[d];
                let hi = (ub[d] - 1) - buf.origin[d];
                ir_ensure!(
                    lo >= 0 && hi < buf.shape[d],
                    "box {lb:?}..{ub:?} out of bounds (dim {d}, shape {:?}, origin {:?})",
                    buf.shape,
                    buf.origin
                );
            }
        }
        if rank == 0 {
            self.data[0] = src.data[0];
            return Ok(());
        }
        let row_len = (ub[rank - 1] - lb[rank - 1]) as usize;
        let n_rows: usize = lb[..rank - 1]
            .iter()
            .zip(&ub[..rank - 1])
            .map(|(&l, &u)| (u - l) as usize)
            .product();
        let mut point = lb.to_vec();
        for _ in 0..n_rows.max(1) {
            // `offset` re-checks per element, but only once per row here.
            let d0 = self.offset(&point)?;
            let s0 = src.offset(&point)?;
            self.data[d0..d0 + row_len].copy_from_slice(&src.data[s0..s0 + row_len]);
            let mut d = rank - 1;
            while d > 0 {
                d -= 1;
                point[d] += 1;
                if d > 0 && point[d] >= ub[d] {
                    point[d] = lb[d];
                } else {
                    break;
                }
            }
        }
        Ok(())
    }

    /// Copy `rows` whole axis-0 rows of `src`, starting at its logical
    /// row `src_row`, over the rows of `self` starting at logical row
    /// `dst_row`. The buffers must agree on every other axis (extent and
    /// origin), so the row range is one contiguous slice of each —
    /// storage is row-major — and the copy is a single
    /// `copy_from_slice`. A rank or off-axis mismatch, a negative count
    /// and a range outside either buffer are errors; zero rows copy
    /// nothing.
    pub fn copy_rows_from(
        &mut self,
        src: &Buffer,
        src_row: i64,
        dst_row: i64,
        rows: i64,
    ) -> IrResult<()> {
        ir_ensure!(
            !self.shape.is_empty()
                && self.shape.len() == src.shape.len()
                && self.shape[1..] == src.shape[1..]
                && self.origin[1..] == src.origin[1..],
            "copy_rows_from: source (shape {:?}, origin {:?}) and destination \
             (shape {:?}, origin {:?}) differ off axis 0",
            src.shape,
            src.origin,
            self.shape,
            self.origin
        );
        ir_ensure!(rows >= 0, "copy_rows_from: negative row count {rows}");
        let row_len: usize = self.shape[1..].iter().map(|&e| e as usize).product();
        let span = |buf: &Buffer, first: i64| -> IrResult<std::ops::Range<usize>> {
            let local = first - buf.origin[0];
            ir_ensure!(
                local >= 0 && local + rows <= buf.shape[0],
                "copy_rows_from: rows [{first}, {}) outside axis 0 (origin {}, extent {})",
                first + rows,
                buf.origin[0],
                buf.shape[0]
            );
            Ok(local as usize * row_len..(local + rows) as usize * row_len)
        };
        let from = span(src, src_row)?;
        let to = span(self, dst_row)?;
        self.data[to].copy_from_slice(&src.data[from]);
        Ok(())
    }
}

/// Named input data for a kernel run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelData {
    /// Field and parameter buffers by name. Field buffers must be
    /// halo-padded (`origin = -halo`); parameter buffers span
    /// `n + 2·halo` with origin 0.
    pub buffers: BTreeMap<String, Buffer>,
    /// Scalar constants by name.
    pub scalars: BTreeMap<String, f64>,
}

impl KernelData {
    /// Insert a buffer.
    pub fn buffer(mut self, name: &str, buffer: Buffer) -> Self {
        self.buffers.insert(name.to_string(), buffer);
        self
    }

    /// Insert a scalar.
    pub fn scalar(mut self, name: &str, value: f64) -> Self {
        self.scalars.insert(name.to_string(), value);
        self
    }
}

/// What a [`Store`] did besides the kernel's own loads and stores — the
/// deterministic work counters `repro bench` gates: the same kernel over
/// the same shapes counts the same on any host.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StoreWork {
    /// Bytes of buffers allocated through [`Store::alloc`] (temps,
    /// `memref.alloc`) since the last [`Store::reset_work`].
    pub allocated_bytes: u64,
    /// Bytes copied since then: the copy a lent buffer pays on its first
    /// write, and every box or whole-buffer copy between two buffers.
    pub copied_bytes: u64,
    /// Bytecode instructions dispatched since then, instructions × blocks
    /// summed over the applies run as compiled programs
    /// ([`crate::bytecode::exec_apply_with`]); a tree-walked apply counts
    /// none.
    pub dispatches: u64,
    /// Input elements the block executor copied into packed blocks since
    /// then — what a block read in place, or a strip, copies none of.
    pub gathered: u64,
}

fn bytes(elements: usize) -> u64 {
    (elements * std::mem::size_of::<f64>()) as u64
}

/// The buffer in `slot`, made the store's own first — the one copy a
/// lent buffer pays, counted in `work`.
fn own<'a>(work: &mut StoreWork, slot: &'a mut Cow<'_, Buffer>) -> &'a mut Buffer {
    if let Cow::Borrowed(lent) = slot {
        work.copied_bytes += bytes(lent.data.len());
    }
    slot.to_mut()
}

fn slot<'a, 'd>(
    buffers: &'a mut [Cow<'d, Buffer>],
    handle: usize,
) -> IrResult<&'a mut Cow<'d, Buffer>> {
    buffers
        .get_mut(handle)
        .ok_or_else(|| ir_error!("invalid buffer handle {handle}"))
}

/// The interpreter's memory: a table of buffers addressed by handle.
///
/// A buffer is either owned by the store or *lent* to it for `'d`
/// ([`Store::lend`]). A lent buffer is read in place and copied the first
/// time something asks to write it (`get_mut`, `pair_mut`'s destination,
/// `take`), so the lender's data is never mutated and a buffer nothing
/// writes is never copied.
#[derive(Debug, Default, Clone)]
pub struct Store<'d> {
    buffers: Vec<Cow<'d, Buffer>>,
    work: StoreWork,
}

impl<'d> Store<'d> {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate a buffer, returning its handle.
    pub fn alloc(&mut self, buffer: Buffer) -> usize {
        self.work.allocated_bytes += bytes(buffer.data.len());
        self.buffers.push(Cow::Owned(buffer));
        self.buffers.len() - 1
    }

    /// Bind a caller's buffer by reference, returning its handle.
    pub fn lend(&mut self, buffer: &'d Buffer) -> usize {
        self.buffers.push(Cow::Borrowed(buffer));
        self.buffers.len() - 1
    }

    /// A store that lends every buffer of this one under the same
    /// handles, with its counters at zero.
    pub fn lend_all(&self) -> Store<'_> {
        Store {
            buffers: self.buffers.iter().map(|b| Cow::Borrowed(&**b)).collect(),
            work: StoreWork::default(),
        }
    }

    /// The buffers this store owns, by handle — `None` where the buffer
    /// is still the lender's. With [`Store::put`] this carries what a
    /// store made by [`Store::lend_all`] wrote back to the one it
    /// borrowed from.
    pub fn into_owned_buffers(self) -> Vec<Option<Buffer>> {
        self.buffers
            .into_iter()
            .map(|b| match b {
                Cow::Owned(buffer) => Some(buffer),
                Cow::Borrowed(_) => None,
            })
            .collect()
    }

    /// Borrow a buffer.
    pub fn get(&self, handle: usize) -> IrResult<&Buffer> {
        self.buffers
            .get(handle)
            .map(|b| &**b)
            .ok_or_else(|| ir_error!("invalid buffer handle {handle}"))
    }

    /// Borrow a buffer mutably, copying it first if it was lent.
    pub fn get_mut(&mut self, handle: usize) -> IrResult<&mut Buffer> {
        Ok(own(&mut self.work, slot(&mut self.buffers, handle)?))
    }

    /// Move a buffer out of the store (a copy of it, if it was lent),
    /// leaving an empty one behind its handle — for collecting a finished
    /// run's results without copying them.
    pub fn take(&mut self, handle: usize) -> IrResult<Buffer> {
        let empty = Buffer {
            shape: vec![0],
            origin: vec![0],
            data: Vec::new(),
        };
        let slot = slot(&mut self.buffers, handle)?;
        own(&mut self.work, slot);
        Ok(std::mem::replace(slot, Cow::Owned(empty)).into_owned())
    }

    /// Put `buffer` behind `handle`, dropping what was there (a lent
    /// buffer is only let go of).
    pub fn put(&mut self, handle: usize, buffer: Buffer) -> IrResult<()> {
        *slot(&mut self.buffers, handle)? = Cow::Owned(buffer);
        Ok(())
    }

    /// Borrow `src` shared and `dst` mutable at once (for region copies
    /// that would otherwise have to clone the source), copying `dst`
    /// first if it was lent. Errors when the handles alias — a region
    /// copy between a buffer and itself is always a bug in this IR (temps
    /// are never stored back to themselves).
    pub fn pair_mut(&mut self, src: usize, dst: usize) -> IrResult<(&Buffer, &mut Buffer)> {
        ir_ensure!(
            src != dst,
            "aliasing region copy: source and destination are buffer {src}"
        );
        ir_ensure!(
            src < self.buffers.len() && dst < self.buffers.len(),
            "invalid buffer handle {}",
            src.max(dst)
        );
        let (a, b) = self.buffers.split_at_mut(src.max(dst));
        if src < dst {
            Ok((&a[src], own(&mut self.work, &mut b[0])))
        } else {
            Ok((&b[0], own(&mut self.work, &mut a[dst])))
        }
    }

    /// [`Buffer::copy_box_from`] between two buffers of the store.
    pub fn copy_box(&mut self, src: usize, dst: usize, lb: &[i64], ub: &[i64]) -> IrResult<()> {
        let (src_buf, dst_buf) = self.pair_mut(src, dst)?;
        dst_buf.copy_box_from(src_buf, lb, ub)?;
        let volume: usize = lb
            .iter()
            .zip(ub)
            .map(|(&l, &u)| (u - l).max(0) as usize)
            .product();
        self.work.copied_bytes += bytes(volume);
        Ok(())
    }

    /// Make `dst` an element-for-element copy of `src` (equal shapes). A
    /// lent `dst` is replaced by the copy rather than copied twice.
    pub fn copy_whole(&mut self, src: usize, dst: usize) -> IrResult<()> {
        let (from, to) = (self.get(src)?, self.get(dst)?);
        ir_ensure!(
            from.shape == to.shape,
            "whole-buffer copy between shapes {:?} and {:?}",
            from.shape,
            to.shape
        );
        self.work.copied_bytes += bytes(from.data.len());
        if let Cow::Borrowed(_) = self.buffers[dst] {
            let copy = self.get(src)?.clone();
            return self.put(dst, copy);
        }
        let (from, to) = self.pair_mut(src, dst)?;
        to.data.copy_from_slice(&from.data);
        Ok(())
    }

    /// Number of buffers allocated.
    pub fn len(&self) -> usize {
        self.buffers.len()
    }

    /// True when no buffer has been allocated.
    pub fn is_empty(&self) -> bool {
        self.buffers.is_empty()
    }

    /// The work counted since the last [`Store::reset_work`].
    pub fn work(&self) -> StoreWork {
        self.work
    }

    /// Count `dispatches` bytecode instructions dispatched and `gathered`
    /// input elements copied into packed blocks.
    pub fn count_blocks(&mut self, dispatches: u64, gathered: u64) {
        self.work.dispatches += dispatches;
        self.work.gathered += gathered;
    }

    /// Start the work counters again from zero — called once the
    /// arguments are bound, so a sweep's counters are the sweep's own.
    pub fn reset_work(&mut self) {
        self.work = StoreWork::default();
    }
}

/// Hook for ops the core interpreter does not implement.
pub trait ExternOps {
    /// Execute `op` (with evaluated operands), returning its result values,
    /// or `Ok(None)` to signal the op is not handled here either.
    fn exec(
        &mut self,
        ctx: &Context,
        op: OpId,
        args: &[RtValue],
        store: &mut Store,
    ) -> IrResult<Option<Vec<RtValue>>>;
}

/// Extern hook that handles nothing — for interpreting pure core-dialect IR.
pub struct NoExtern;

impl ExternOps for NoExtern {
    fn exec(
        &mut self,
        _ctx: &Context,
        _op: OpId,
        _args: &[RtValue],
        _store: &mut Store,
    ) -> IrResult<Option<Vec<RtValue>>> {
        Ok(None)
    }
}

/// Control-flow outcome of running a block to its terminator.
#[derive(Debug, Clone, PartialEq)]
pub enum BlockExit {
    /// Block ended without an explicit terminator (e.g. a module body).
    FellThrough,
    /// `scf.yield` / `stencil.return` with these values.
    Yield(Vec<RtValue>),
    /// `func.return` with these values.
    Return(Vec<RtValue>),
}

/// The interpreter state machine.
pub struct Machine<'c, 'e> {
    /// The IR being executed.
    pub ctx: &'c Context,
    /// SSA value bindings.
    pub env: IdMap<ValueId, RtValue>,
    /// Memory.
    pub store: Store<'c>,
    /// Symbol table: function name → `func.func` op, filled on demand.
    functions: BTreeMap<String, OpId>,
    /// Where a name the table lacks is looked for: the root, walked once
    /// for every `func.func` under it on the first miss (`None` after).
    /// A caller that holds the function's op calls it by op
    /// ([`Machine::call_func`]) and never pays the walk.
    unwalked: Option<OpId>,
    extern_ops: &'e mut dyn ExternOps,
    /// Current stencil apply index (set while evaluating a `stencil.apply`
    /// region, consumed by `stencil.access`/`stencil.index`).
    stencil_index: Vec<i64>,
    /// Fuel: remaining op executions before aborting (runaway-loop guard).
    pub fuel: u64,
    /// Bytecode fast paths for `stencil.apply` ops, keyed by op. Empty by
    /// default — the tree-walker is the oracle; a driver that has compiled
    /// plans (see [`crate::bytecode`]) installs them here and the machine
    /// uses them transparently, with identical (bitwise) results.
    pub apply_plans: IdMap<OpId, std::sync::Arc<crate::bytecode::Program>>,
    /// How installed apply plans are executed (scalar vs blocks vs
    /// blocks+threaded). Bitwise-identical results in every mode; see
    /// [`crate::bytecode::ApplyMode`].
    pub apply_mode: crate::bytecode::ApplyMode,
    /// Apply results a planned apply may compute straight into the field
    /// their `stencil.store` names (see
    /// [`crate::bytecode::direct_stores`]). Empty by default.
    pub direct_stores: crate::bytecode::DirectStores,
    /// What the planned applies' runs leave for the next: their inputs'
    /// layouts and the register files. Empty by default; a caller that
    /// runs the same function again over same-shaped buffers keeps it
    /// from one machine to the next.
    pub prepared: crate::bytecode::PreparedApplies,
    /// The `stencil.store` ops whose copy the apply before them already
    /// made, each removed again when it executes.
    stored_in_place: IdSet<OpId>,
}

impl<'c, 'e> Machine<'c, 'e> {
    /// A machine over `ctx` with the given extern hook. A function called
    /// by name is looked for among the `func.func` ops under `root`, which
    /// are collected the first time a name is asked for.
    pub fn new(ctx: &'c Context, root: OpId, extern_ops: &'e mut dyn ExternOps) -> Self {
        Self {
            ctx,
            env: IdMap::default(),
            store: Store::new(),
            functions: BTreeMap::new(),
            unwalked: Some(root),
            extern_ops,
            stencil_index: Vec::new(),
            fuel: u64::MAX,
            apply_plans: IdMap::default(),
            apply_mode: crate::bytecode::ApplyMode::default(),
            direct_stores: IdMap::default(),
            prepared: Default::default(),
            stored_in_place: IdSet::default(),
        }
    }

    /// Bind an SSA value.
    pub fn bind(&mut self, value: ValueId, rt: RtValue) {
        self.env.insert(value, rt);
    }

    /// Look up an SSA value.
    pub fn lookup(&self, value: ValueId) -> IrResult<RtValue> {
        self.env
            .get(&value)
            .cloned()
            .ok_or_else(|| ir_error!("unbound SSA value (type {})", self.ctx.value_type(value)))
    }

    /// The `func.func` called `name`: from the table, or from the one walk
    /// of the root the first name it lacks sets off.
    pub fn function(&mut self, name: &str) -> IrResult<OpId> {
        let miss = !self.functions.contains_key(name);
        if let Some(root) = self.unwalked.take_if(|_| miss) {
            for f in self.ctx.find_ops(root, "func.func") {
                if let Some(sym) = self.ctx.attr(f, "sym_name").and_then(Attribute::as_str) {
                    self.functions.entry(sym.to_string()).or_insert(f);
                }
            }
        }
        self.functions
            .get(name)
            .copied()
            .ok_or_else(|| ir_error!("call to unknown function `{name}`"))
    }

    /// Call function `name` with `args`, returning its results.
    pub fn call(&mut self, name: &str, args: &[RtValue]) -> IrResult<Vec<RtValue>> {
        let f = self.function(name)?;
        self.call_func(f, args)
    }

    /// Call the `func.func` op `f` with `args`, returning its results.
    pub fn call_func(&mut self, f: OpId, args: &[RtValue]) -> IrResult<Vec<RtValue>> {
        let ctx = self.ctx;
        let name = || ctx.attr(f, "sym_name").and_then(Attribute::as_str);
        let block = ctx
            .entry_block(f)
            .ok_or_else(|| ir_error!("function `{}` has no body", name().unwrap_or("?")))?;
        let params = ctx.block_args(block);
        ir_ensure!(
            params.len() == args.len(),
            "function `{}` takes {} args, got {}",
            name().unwrap_or("?"),
            params.len(),
            args.len()
        );
        for (p, a) in params.iter().zip(args) {
            self.bind(*p, a.clone());
        }
        match self.run_block(block)? {
            BlockExit::Return(values) | BlockExit::Yield(values) => Ok(values),
            BlockExit::FellThrough => Ok(vec![]),
        }
    }

    /// Execute every op in `block`; stop at a terminator.
    pub fn run_block(&mut self, block: BlockId) -> IrResult<BlockExit> {
        for &op in self.ctx.block_ops(block) {
            match self.exec_op(op)? {
                ExecFlow::Next => {}
                ExecFlow::Yield(values) => return Ok(BlockExit::Yield(values)),
                ExecFlow::Return(values) => return Ok(BlockExit::Return(values)),
            }
        }
        Ok(BlockExit::FellThrough)
    }

    /// Evaluate the operand values of `op`.
    fn operand_values(&self, op: OpId) -> IrResult<Vec<RtValue>> {
        self.ctx
            .operands(op)
            .iter()
            .map(|&v| self.lookup(v))
            .collect()
    }

    fn bind_results(&mut self, op: OpId, values: Vec<RtValue>) -> IrResult<()> {
        let results = self.ctx.results(op);
        ir_ensure!(
            results.len() == values.len(),
            "op `{}` produced {} values for {} results",
            self.ctx.op_name(op),
            values.len(),
            results.len()
        );
        for (&r, v) in results.iter().zip(values) {
            self.bind(r, v);
        }
        Ok(())
    }

    /// Execute a single op.
    pub fn exec_op(&mut self, op: OpId) -> IrResult<ExecFlow> {
        self.fuel = self
            .fuel
            .checked_sub(1)
            .ok_or_else(|| ir_error!("interpreter out of fuel"))?;
        if self.fuel == 0 {
            ir_bail!("interpreter out of fuel");
        }
        let name = self.ctx.op_name(op);
        match name {
            // ---- terminators ------------------------------------------
            "scf.yield" | "stencil.return" => {
                return Ok(ExecFlow::Yield(self.operand_values(op)?));
            }
            "func.return" => {
                return Ok(ExecFlow::Return(self.operand_values(op)?));
            }
            // ---- structure --------------------------------------------
            "builtin.module" | "func.func" => {
                // Not executed inline; functions run via `call`.
                ir_bail!("op `{name}` cannot be executed as a statement");
            }
            "func.call" => {
                let callee = self
                    .ctx
                    .attr(op, "callee")
                    .and_then(Attribute::as_str)
                    .ok_or_else(|| ir_error!("func.call without callee"))?
                    .to_string();
                let args = self.operand_values(op)?;
                // Extern hook gets first refusal: the runtime functions
                // (load_data, shift_buffer, write_data, …) are provided by
                // the simulator, mirroring the paper's linked C++ runtime.
                if let Some(res) = self.extern_ops.exec(self.ctx, op, &args, &mut self.store)? {
                    self.bind_results(op, res)?;
                } else {
                    let res = self.call(&callee, &args)?;
                    self.bind_results(op, res)?;
                }
            }
            "scf.for" => self.exec_scf_for(op)?,
            "scf.if" => self.exec_scf_if(op)?,
            // ---- everything else: flat ops ------------------------------
            _ => {
                let args = self.operand_values(op)?;
                if let Some(values) = self.exec_flat(op, &args)? {
                    self.bind_results(op, values)?;
                } else if let Some(values) =
                    self.extern_ops.exec(self.ctx, op, &args, &mut self.store)?
                {
                    self.bind_results(op, values)?;
                } else {
                    ir_bail!("no interpretation for op `{name}`");
                }
            }
        }
        Ok(ExecFlow::Next)
    }

    fn exec_scf_for(&mut self, op: OpId) -> IrResult<()> {
        let args = self.operand_values(op)?;
        ir_ensure!(args.len() >= 3, "scf.for needs lb, ub, step");
        let lb = args[0].as_i64()?;
        let ub = args[1].as_i64()?;
        let step = args[2].as_i64()?;
        ir_ensure!(step > 0, "scf.for requires positive step, got {step}");
        let iter_init = &args[3..];
        let block = self
            .ctx
            .entry_block(op)
            .ok_or_else(|| ir_error!("scf.for without body"))?;
        let block_args = self.ctx.block_args(block).to_vec();
        ir_ensure!(
            block_args.len() == 1 + iter_init.len(),
            "scf.for body must take induction variable + {} iter args",
            iter_init.len()
        );
        let mut carried: Vec<RtValue> = iter_init.to_vec();
        let mut iv = lb;
        while iv < ub {
            self.bind(block_args[0], RtValue::I64(iv));
            for (b, v) in block_args[1..].iter().zip(&carried) {
                self.bind(*b, v.clone());
            }
            match self.run_block(block)? {
                BlockExit::Yield(values) => {
                    ir_ensure!(
                        values.len() == carried.len(),
                        "scf.yield arity mismatch in scf.for"
                    );
                    carried = values;
                }
                BlockExit::FellThrough if carried.is_empty() => {}
                other => ir_bail!("unexpected scf.for body exit: {other:?}"),
            }
            iv += step;
        }
        self.bind_results(op, carried)
    }

    fn exec_scf_if(&mut self, op: OpId) -> IrResult<()> {
        let args = self.operand_values(op)?;
        ir_ensure!(args.len() == 1, "scf.if takes exactly the condition");
        let cond = args[0].as_bool()?;
        let regions = self.ctx.regions(op);
        ir_ensure!(!regions.is_empty(), "scf.if needs a then-region");
        let region = if cond {
            Some(regions[0])
        } else {
            regions.get(1).copied()
        };
        let values = match region {
            Some(r) => {
                let block = *self
                    .ctx
                    .region_blocks(r)
                    .first()
                    .ok_or_else(|| ir_error!("scf.if region has no block"))?;
                match self.run_block(block)? {
                    BlockExit::Yield(values) => values,
                    BlockExit::FellThrough => vec![],
                    other => ir_bail!("unexpected scf.if body exit: {other:?}"),
                }
            }
            None => vec![],
        };
        if self.ctx.results(op).is_empty() {
            Ok(())
        } else {
            self.bind_results(op, values)
        }
    }

    /// Execute a region-free (or stencil) op. Returns `None` when unknown.
    fn exec_flat(&mut self, op: OpId, args: &[RtValue]) -> IrResult<Option<Vec<RtValue>>> {
        let ctx = self.ctx;
        let name = ctx.op_name(op);
        // Fixed-arity guard: parseable-but-malformed IR (wrong operand
        // count) must fail with a diagnostic, not an index panic. Ops with
        // shape-dependent arity (memref, stencil) check in their own arms.
        let row = scalar::lookup(name);
        let required: Option<usize> = match name {
            "arith.constant" | "llvm.mlir.constant" | "llvm.mlir.undef" | "stencil.index"
            | "memref.alloc" | "memref.alloca" => Some(0),
            "llvm.extractvalue"
            | "stencil.external_load"
            | "stencil.cast"
            | "stencil.buffer_cast"
            | "stencil.load" => Some(1),
            "llvm.insertvalue" | "stencil.store" => Some(2),
            _ => row.map(|row| row.operands.len()),
        };
        if let Some(required) = required {
            ir_ensure!(
                args.len() == required,
                "op `{name}` takes {required} operand(s), got {}",
                args.len()
            );
        }
        if let Some(row) = row {
            let predicate = ctx.attr(op, "predicate").and_then(Attribute::as_str);
            return Ok(Some(vec![scalar::eval(row, predicate, args)?]));
        }
        match name {
            "arith.constant" | "llvm.mlir.constant" => Ok(Some(vec![self.constant(op, name)?])),
            _ if name.starts_with("llvm.") => self.exec_llvm(op, args),
            _ if name.starts_with("memref.") => self.exec_memref(op, args),
            _ if name.starts_with("stencil.") => self.exec_stencil(op, args),
            _ => Ok(None),
        }
    }

    /// `arith.constant` or `llvm.mlir.constant`: the `value` attribute.
    /// Only `arith.constant` takes a `Bool`.
    fn constant(&self, op: OpId, name: &str) -> IrResult<RtValue> {
        let arith = name == "arith.constant";
        let Some(attr) = self.ctx.attr(op, "value") else {
            ir_bail!(
                "{name} without value{}",
                if arith { " attribute" } else { "" }
            );
        };
        match attr {
            Attribute::Int(v, _) => Ok(RtValue::I64(*v)),
            Attribute::Float(v, _) => Ok(RtValue::F64(*v)),
            Attribute::Bool(b) if arith => Ok(RtValue::Bool(*b)),
            other if arith => ir_bail!("unsupported constant attribute {other}"),
            other => ir_bail!("unsupported llvm constant {other}"),
        }
    }

    /// The llvm ops on packed aggregates.
    fn exec_llvm(&mut self, op: OpId, args: &[RtValue]) -> IrResult<Option<Vec<RtValue>>> {
        let ctx = self.ctx;
        let name = ctx.op_name(op);
        let position = || -> IrResult<i64> {
            let position = ctx
                .attr(op, "position")
                .and_then(Attribute::as_index_array)
                .ok_or_else(|| ir_error!("{name} without position"))?;
            Ok(*position.last().ok_or_else(|| ir_error!("empty position"))?)
        };
        let value = match name {
            "llvm.mlir.undef" => {
                // Packed aggregates start zeroed; size from the result type.
                let ty = ctx.value_type(ctx.result(op, 0));
                let n = (ty.byte_size().unwrap_or(8) / 8) as usize;
                RtValue::pack(vec![0.0; n])
            }
            "llvm.extractvalue" => {
                let flat = position()?;
                let pack = args[0].as_pack()?;
                ir_ensure!(
                    (flat as usize) < pack.len(),
                    "extractvalue position {flat} out of range for pack of {}",
                    pack.len()
                );
                RtValue::F64(pack[flat as usize])
            }
            "llvm.insertvalue" => {
                let flat = position()? as usize;
                let mut pack = args[0].as_pack()?.to_vec();
                ir_ensure!(flat < pack.len(), "insertvalue position out of range");
                pack[flat] = args[1].as_f64()?;
                RtValue::pack(pack)
            }
            _ => return Ok(None),
        };
        Ok(Some(vec![value]))
    }

    fn exec_memref(&mut self, op: OpId, args: &[RtValue]) -> IrResult<Option<Vec<RtValue>>> {
        let index = |args: &[RtValue]| {
            args.iter()
                .map(RtValue::as_i64)
                .collect::<IrResult<Vec<_>>>()
        };
        let value = match self.ctx.op_name(op) {
            "memref.alloc" | "memref.alloca" => {
                let Type::MemRef { shape, .. } = self.ctx.value_type(self.ctx.result(op, 0)) else {
                    ir_bail!("memref.alloc result is not a memref");
                };
                ir_ensure!(
                    shape.iter().all(|&d| d >= 0),
                    "memref.alloc of dynamic shape unsupported"
                );
                let handle = self
                    .store
                    .alloc(Buffer::zeroed(shape.clone(), vec![0; shape.len()]));
                RtValue::MemRef(handle)
            }
            "memref.dealloc" => return Ok(Some(vec![])),
            "memref.load" => {
                let handle = args[0].as_memref()?;
                let index = index(&args[1..])?;
                RtValue::F64(self.store.get(handle)?.load(&index)?)
            }
            "memref.store" => {
                let value = args[0].as_f64()?;
                let handle = args[1].as_memref()?;
                let index = index(&args[2..])?;
                self.store.get_mut(handle)?.store(&index, value)?;
                return Ok(Some(vec![]));
            }
            _ => return Ok(None),
        };
        Ok(Some(vec![value]))
    }

    fn exec_stencil(&mut self, op: OpId, args: &[RtValue]) -> IrResult<Option<Vec<RtValue>>> {
        let ctx = self.ctx;
        let value = match ctx.op_name(op) {
            // Reinterpret the underlying buffer handle with another type;
            // `stencil.load` (field -> temp) keeps the same buffer, value
            // semantics preserved by our transforms never writing through
            // temps.
            "stencil.external_load" | "stencil.cast" | "stencil.buffer_cast" | "stencil.load" => {
                args[0].clone()
            }
            "stencil.external_store" => return Ok(Some(vec![])),
            "stencil.store" => {
                // temp -> field region copy, unless the apply computed
                // the temp into the field to begin with.
                if self.stored_in_place.remove(&op) {
                    return Ok(Some(vec![]));
                }
                let src = args[0].as_memref()?;
                let dst = args[1].as_memref()?;
                let bounds = ctx
                    .attr(op, "bounds")
                    .and_then(Attribute::as_index_array)
                    .ok_or_else(|| ir_error!("stencil.store without bounds"))?
                    .to_vec();
                let (lb, ub) = split_bounds(&bounds)?;
                self.store.copy_box(src, dst, &lb, &ub)?;
                return Ok(Some(vec![]));
            }
            "stencil.apply" => {
                self.exec_stencil_apply(op, args)?;
                // Results already bound inside; signal by re-reading.
                let results = ctx.results(op).iter().map(|&r| self.lookup(r));
                return Ok(Some(results.collect::<IrResult<Vec<_>>>()?));
            }
            "stencil.access" => {
                let handle = args[0].as_memref()?;
                let offset = ctx
                    .attr(op, "offset")
                    .and_then(Attribute::as_index_array)
                    .ok_or_else(|| ir_error!("stencil.access without offset"))?;
                ir_ensure!(
                    !self.stencil_index.is_empty(),
                    "stencil.access outside stencil.apply"
                );
                let index: Vec<i64> = self
                    .stencil_index
                    .iter()
                    .zip(offset)
                    .map(|(&i, &o)| i + o)
                    .collect();
                RtValue::F64(self.store.get(handle)?.load(&index)?)
            }
            "stencil.index" => {
                let dim = ctx
                    .attr(op, "dim")
                    .and_then(Attribute::as_int)
                    .ok_or_else(|| ir_error!("stencil.index without dim"))?
                    as usize;
                ir_ensure!(
                    dim < self.stencil_index.len(),
                    "stencil.index dim {dim} out of range"
                );
                RtValue::I64(self.stencil_index[dim])
            }
            _ => return Ok(None),
        };
        Ok(Some(vec![value]))
    }

    /// `stencil.apply`: run the region once per point of the result bounds.
    fn exec_stencil_apply(&mut self, op: OpId, args: &[RtValue]) -> IrResult<()> {
        // Bytecode tier: when a compiled plan exists for this apply, run
        // the flat register program instead of re-walking the region per
        // point. Bitwise-identical by construction (same ops, same order).
        if !self.apply_plans.is_empty() {
            if let Some(plan) = self.apply_plans.get(&op).cloned() {
                let ctx = self.ctx;
                let results = ctx.results(op);
                // Where each result may be computed in place: the buffer
                // bound to the field its one `stencil.store` names — if
                // this call bound that buffer to no other argument of the
                // function, so nothing else here can read or write it.
                let stores: Vec<Option<OpId>> = results
                    .iter()
                    .map(|r| self.direct_stores.get(r).copied())
                    .collect();
                let func_args = match self.ctx.parent_block(op) {
                    Some(block) => self.ctx.block_args(block),
                    None => &[],
                };
                let dests: Vec<Option<usize>> = stores
                    .iter()
                    .map(|s| {
                        let field = self.ctx.operands((*s)?)[1];
                        let bound = self.env.get(&field)?;
                        let shared = func_args
                            .iter()
                            .any(|a| *a != field && self.env.get(a) == Some(bound));
                        bound.as_memref().ok().filter(|_| !shared)
                    })
                    .collect();
                let handles = crate::bytecode::exec_apply_with(
                    self.ctx,
                    op,
                    args,
                    &mut self.store,
                    &plan,
                    self.apply_mode,
                    &dests,
                    &mut self.prepared,
                )?;
                ir_ensure!(
                    results.len() == handles.len(),
                    "bytecode plan result arity mismatch"
                );
                for (o, (&r, h)) in results.iter().zip(handles).enumerate() {
                    if dests[o] == Some(h) {
                        self.stored_in_place.extend(stores[o]);
                    }
                    self.bind(r, RtValue::MemRef(h));
                }
                return Ok(());
            }
        }
        let ctx = self.ctx;
        let results = ctx.results(op).to_vec();
        ir_ensure!(!results.is_empty(), "stencil.apply without results");
        // Allocate result temp buffers from the result types.
        let mut out_handles = Vec::with_capacity(results.len());
        for &r in &results {
            let ty = ctx.value_type(r);
            let bounds = ty
                .stencil_bounds()
                .ok_or_else(|| ir_error!("stencil.apply result is not a stencil.temp"))?;
            let handle = self
                .store
                .alloc(Buffer::zeroed(bounds.extents(), bounds.lb.clone()));
            out_handles.push(handle);
            self.bind(r, RtValue::MemRef(handle));
        }
        let bounds = ctx
            .value_type(results[0])
            .stencil_bounds()
            .expect("checked above")
            .clone();
        let block = ctx
            .entry_block(op)
            .ok_or_else(|| ir_error!("stencil.apply without body"))?;
        let params = ctx.block_args(block).to_vec();
        ir_ensure!(
            params.len() == args.len(),
            "stencil.apply region takes {} args, got {} operands",
            params.len(),
            args.len()
        );
        let saved_index = std::mem::take(&mut self.stencil_index);
        for index in iter_box(&bounds.lb, &bounds.ub) {
            self.stencil_index = index.clone();
            for (p, a) in params.iter().zip(args) {
                self.bind(*p, a.clone());
            }
            match self.run_block(block)? {
                BlockExit::Yield(values) => {
                    ir_ensure!(
                        values.len() == out_handles.len(),
                        "stencil.return arity mismatch"
                    );
                    for (&h, v) in out_handles.iter().zip(values) {
                        let value = v.as_f64()?;
                        self.store.get_mut(h)?.store(&index, value)?;
                    }
                }
                other => ir_bail!("stencil.apply body must end in stencil.return, got {other:?}"),
            }
        }
        self.stencil_index = saved_index;
        Ok(())
    }
}

/// Control-flow signal from executing one op.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecFlow {
    /// Continue with the next op.
    Next,
    /// Enclosing region op receives these values (scf.yield etc.).
    Yield(Vec<RtValue>),
    /// Enclosing function returns these values.
    Return(Vec<RtValue>),
}

/// Split a flattened `[lb..., ub...]` bounds attribute into halves.
pub fn split_bounds(flat: &[i64]) -> IrResult<(Vec<i64>, Vec<i64>)> {
    ir_ensure!(
        flat.len().is_multiple_of(2),
        "bounds attribute must have even length"
    );
    let rank = flat.len() / 2;
    Ok((flat[..rank].to_vec(), flat[rank..].to_vec()))
}

/// Iterate all integer points of the box `[lb, ub)` in row-major order.
pub fn iter_box(lb: &[i64], ub: &[i64]) -> Vec<Vec<i64>> {
    assert_eq!(lb.len(), ub.len());
    let rank = lb.len();
    if rank == 0 {
        return vec![vec![]];
    }
    let mut out = Vec::new();
    let mut index = lb.to_vec();
    if lb.iter().zip(ub).any(|(&l, &u)| l >= u) {
        return out;
    }
    loop {
        out.push(index.clone());
        // Increment like an odometer, last dim fastest.
        let mut d = rank;
        loop {
            if d == 0 {
                return out;
            }
            d -= 1;
            index[d] += 1;
            if index[d] < ub[d] {
                break;
            }
            index[d] = lb[d];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::OpBuilder;
    use crate::prelude::*;

    fn run_main(src: &str, args: &[RtValue]) -> IrResult<Vec<RtValue>> {
        let (ctx, module) = parse_op(src).unwrap();
        let mut no = NoExtern;
        let mut m = Machine::new(&ctx, module, &mut no);
        m.call("main", args)
    }

    #[test]
    fn arith_and_return() {
        let src = r#""builtin.module"() ({
^bb():
  "func.func"() ({
  ^bb(%a: f64, %b: f64):
    %0 = "arith.mulf"(%a, %b) : (f64, f64) -> (f64)
    %1 = "arith.addf"(%0, %a) : (f64, f64) -> (f64)
    "func.return"(%1) : (f64) -> ()
  }) {sym_name = "main"} : () -> ()
}) : () -> ()"#;
        let out = run_main(src, &[RtValue::F64(3.0), RtValue::F64(4.0)]).unwrap();
        assert_eq!(out, vec![RtValue::F64(15.0)]);
    }

    /// A module of `main`, which calls the function named for `CALLEE`,
    /// and `twice`.
    const CALLS: &str = r#""builtin.module"() ({
^bb():
  "func.func"() ({
  ^bb(%a: f64):
    %0 = "func.call"(%a) {callee = "CALLEE"} : (f64) -> (f64)
    "func.return"(%0) : (f64) -> ()
  }) {sym_name = "main"} : () -> ()
  "func.func"() ({
  ^bb(%x: f64):
    %1 = "arith.addf"(%x, %x) : (f64, f64) -> (f64)
    "func.return"(%1) : (f64) -> ()
  }) {sym_name = "twice"} : () -> ()
}) : () -> ()"#;

    /// The function table is filled on the first name asked for — a
    /// `func.call` inside a function called by op resolves like one
    /// called by name — and a name the module lacks is an error.
    #[test]
    fn calls_resolve_module_functions_on_demand() {
        let (ctx, module) = parse_op(&CALLS.replace("CALLEE", "twice")).unwrap();
        let main = ctx.find_ops(module, "func.func")[0];
        let mut no = NoExtern;
        let mut m = Machine::new(&ctx, module, &mut no);
        assert_eq!(
            m.call_func(main, &[RtValue::F64(1.5)]).unwrap(),
            [RtValue::F64(3.0)]
        );
        let by_name = run_main(&CALLS.replace("CALLEE", "twice"), &[RtValue::F64(2.0)]);
        assert_eq!(by_name.unwrap(), [RtValue::F64(4.0)]);

        let (ctx, module) = parse_op(&CALLS.replace("CALLEE", "thrice")).unwrap();
        let main = ctx.find_ops(module, "func.func")[0];
        let mut m = Machine::new(&ctx, module, &mut no);
        let e = m.call_func(main, &[RtValue::F64(1.5)]).unwrap_err();
        assert!(
            e.to_string().contains("call to unknown function `thrice`"),
            "{e}"
        );
        let e = m.call("nowhere", &[]).unwrap_err();
        assert!(
            e.to_string().contains("call to unknown function `nowhere`"),
            "{e}"
        );
    }

    #[test]
    fn scf_for_accumulates() {
        // sum = Σ_{i=0}^{9} i   via iter_args
        let src = r#""builtin.module"() ({
^bb():
  "func.func"() ({
  ^bb():
    %lb = "arith.constant"() {value = 0 : index} : () -> (index)
    %ub = "arith.constant"() {value = 10 : index} : () -> (index)
    %st = "arith.constant"() {value = 1 : index} : () -> (index)
    %init = "arith.constant"() {value = 0 : i64} : () -> (i64)
    %sum = "scf.for"(%lb, %ub, %st, %init) ({
    ^bb(%i: index, %acc: i64):
      %ii = "arith.index_cast"(%i) : (index) -> (i64)
      %next = "arith.addi"(%acc, %ii) : (i64, i64) -> (i64)
      "scf.yield"(%next) : (i64) -> ()
    }) : (index, index, index, i64) -> (i64)
    "func.return"(%sum) : (i64) -> ()
  }) {sym_name = "main"} : () -> ()
}) : () -> ()"#;
        let out = run_main(src, &[]).unwrap();
        assert_eq!(out, vec![RtValue::I64(45)]);
    }

    #[test]
    fn scf_if_selects_branch() {
        let src = r#""builtin.module"() ({
^bb():
  "func.func"() ({
  ^bb(%c: i1):
    %r = "scf.if"(%c) ({
    ^bb():
      %a = "arith.constant"() {value = 1 : i64} : () -> (i64)
      "scf.yield"(%a) : (i64) -> ()
    }, {
    ^bb():
      %b = "arith.constant"() {value = 2 : i64} : () -> (i64)
      "scf.yield"(%b) : (i64) -> ()
    }) : (i1) -> (i64)
    "func.return"(%r) : (i64) -> ()
  }) {sym_name = "main"} : () -> ()
}) : () -> ()"#;
        assert_eq!(
            run_main(src, &[RtValue::Bool(true)]).unwrap(),
            vec![RtValue::I64(1)]
        );
        assert_eq!(
            run_main(src, &[RtValue::Bool(false)]).unwrap(),
            vec![RtValue::I64(2)]
        );
    }

    #[test]
    fn memref_load_store() {
        let src = r#""builtin.module"() ({
^bb():
  "func.func"() ({
  ^bb():
    %m = "memref.alloc"() : () -> (memref<4xf64>)
    %i = "arith.constant"() {value = 2 : index} : () -> (index)
    %v = "arith.constant"() {value = 7.5e0 : f64} : () -> (f64)
    "memref.store"(%v, %m, %i) : (f64, memref<4xf64>, index) -> ()
    %r = "memref.load"(%m, %i) : (memref<4xf64>, index) -> (f64)
    "func.return"(%r) : (f64) -> ()
  }) {sym_name = "main"} : () -> ()
}) : () -> ()"#;
        assert_eq!(run_main(src, &[]).unwrap(), vec![RtValue::F64(7.5)]);
    }

    #[test]
    fn buffer_bounds_checked() {
        let mut b = Buffer::zeroed(vec![4, 4], vec![0, 0]);
        assert!(b.store(&[3, 3], 1.0).is_ok());
        assert!(b.store(&[4, 0], 1.0).is_err());
        assert!(b.load(&[-1, 0]).is_err());
        // With a shifted origin (halo), negative logical indices are valid.
        let b2 = Buffer::zeroed(vec![6, 6], vec![-1, -1]);
        assert!(b2.load(&[-1, -1]).is_ok());
        assert!(b2.load(&[4, 4]).is_ok());
        assert!(b2.load(&[5, 5]).is_err());
    }

    #[test]
    fn copy_rows_moves_whole_axis0_rows() {
        // A 3-row slab cut out of a 6x4 halo-1 buffer and written back
        // two rows further down, off-axis halo columns included.
        let mut global = Buffer::zeroed(vec![6, 4], vec![-1, -1]);
        for (i, v) in global.data.iter_mut().enumerate() {
            *v = i as f64;
        }
        let mut slab = Buffer::zeroed(vec![3, 4], vec![-1, -1]);
        slab.copy_rows_from(&global, 0, -1, 3).unwrap();
        assert_eq!(slab.data, global.data[4..16]);
        let mut back = Buffer::zeroed(vec![6, 4], vec![-1, -1]);
        back.copy_rows_from(&slab, -1, 2, 3).unwrap();
        assert_eq!(back.data[12..24], global.data[4..16]);
        assert!(back.data[..12].iter().all(|&v| v == 0.0));
        // Rank 1 (an axis parameter): a row is one element.
        let param = Buffer {
            shape: vec![5],
            origin: vec![0],
            data: vec![1.0, 2.0, 3.0, 4.0, 5.0],
        };
        let mut cut = Buffer::zeroed(vec![2], vec![0]);
        cut.copy_rows_from(&param, 3, 0, 2).unwrap();
        assert_eq!(cut.data, [4.0, 5.0]);
        // Zero rows copy nothing, wherever they point inside the buffers.
        cut.copy_rows_from(&param, 5, 2, 0).unwrap();
        assert_eq!(cut.data, [4.0, 5.0]);
    }

    #[test]
    fn copy_rows_rejects_mismatched_buffers_and_ranges() {
        let src = Buffer::zeroed(vec![4, 3], vec![-1, 0]);
        let mut dst = Buffer::zeroed(vec![4, 3], vec![-1, 0]);
        for (what, e) in [
            (
                "source range past the end",
                dst.copy_rows_from(&src, 2, -1, 2),
            ),
            (
                "source range before the origin",
                dst.copy_rows_from(&src, -2, -1, 1),
            ),
            (
                "destination range past the end",
                dst.copy_rows_from(&src, -1, 0, 4),
            ),
            ("negative count", dst.copy_rows_from(&src, 0, 0, -1)),
        ] {
            assert!(e.is_err(), "{what} must be an error");
        }
        let wider = Buffer::zeroed(vec![4, 5], vec![-1, 0]);
        let shifted = Buffer::zeroed(vec![4, 3], vec![-1, -1]);
        let flat = Buffer::zeroed(vec![4], vec![-1]);
        for other in [&wider, &shifted, &flat] {
            let e = dst.copy_rows_from(other, 0, 0, 1).unwrap_err();
            assert!(e.to_string().contains("differ off axis 0"), "{e}");
        }
        let mut scalar = Buffer::zeroed(vec![], vec![]);
        assert!(scalar
            .copy_rows_from(&Buffer::zeroed(vec![], vec![]), 0, 0, 1)
            .is_err());
        assert_eq!(dst, Buffer::zeroed(vec![4, 3], vec![-1, 0]));
    }

    #[test]
    fn store_take_moves_the_buffer_out() {
        let mut store = Store::new();
        let mut b = Buffer::zeroed(vec![2, 2], vec![0, 0]);
        b.data[3] = 9.0;
        let keep = store.alloc(Buffer::zeroed(vec![1], vec![0]));
        let h = store.alloc(b.clone());
        assert_eq!(store.take(h).unwrap(), b);
        assert!(store.get(h).unwrap().data.is_empty());
        assert_eq!(store.get(keep).unwrap().data, [0.0]);
        assert!(store.take(7).is_err());
    }

    #[test]
    fn lent_buffers_are_read_in_place_and_copied_on_first_write() {
        let mut caller = Buffer::zeroed(vec![4], vec![0]);
        caller.data = vec![1.0, 2.0, 3.0, 4.0];
        let before = caller.clone();
        let mut store = Store::new();
        let read = store.lend(&caller);
        let written = store.lend(&caller);
        let taken = store.lend(&caller);
        let fed = store.lend(&caller);
        // A read is the caller's own storage; nothing has been copied.
        assert!(std::ptr::eq(store.get(read).unwrap(), &caller));
        assert_eq!(store.work(), StoreWork::default());
        // The first write copies the buffer (once), later ones do not.
        store.get_mut(written).unwrap().data[0] = 9.0;
        store.get_mut(written).unwrap().data[1] = 8.0;
        assert_eq!(store.work().copied_bytes, 32);
        assert_eq!(store.get(written).unwrap().data, [9.0, 8.0, 3.0, 4.0]);
        // Taking a lent buffer hands out a copy; a whole-buffer copy over
        // a lent one replaces it instead of copying it first.
        assert_eq!(store.take(taken).unwrap(), before);
        store.copy_whole(written, fed).unwrap();
        assert_eq!(store.get(fed).unwrap().data, [9.0, 8.0, 3.0, 4.0]);
        store.copy_whole(read, fed).unwrap();
        assert_eq!(store.get(fed).unwrap(), &before);
        assert_eq!(store.work().copied_bytes, 4 * 32);
        // A box copy counts the box, and its lent destination once.
        let temp = store.alloc(Buffer::zeroed(vec![2], vec![1]));
        let dst = store.lend(&caller);
        store.copy_box(temp, dst, &[1], &[3]).unwrap();
        assert_eq!(store.get(dst).unwrap().data, [1.0, 0.0, 0.0, 4.0]);
        assert_eq!(
            store.work(),
            StoreWork {
                allocated_bytes: 16,
                copied_bytes: 4 * 32 + 32 + 16,
                dispatches: 0,
                gathered: 0,
            }
        );
        store.reset_work();
        assert_eq!(store.work(), StoreWork::default());
        assert_eq!(caller, before, "the lender's buffer is never written");
        // A store of lent views hands back only what it came to own.
        let mut view = store.lend_all();
        view.get_mut(read).unwrap().data[3] = 7.0;
        let owned = view.into_owned_buffers();
        assert_eq!(owned.iter().flatten().count(), 1);
        assert_eq!(owned[read].as_ref().unwrap().data, [1.0, 2.0, 3.0, 7.0]);
    }

    #[test]
    fn iter_box_order_and_count() {
        let pts = iter_box(&[0, 0], &[2, 3]);
        assert_eq!(pts.len(), 6);
        assert_eq!(pts[0], vec![0, 0]);
        assert_eq!(pts[1], vec![0, 1]); // last dim fastest
        assert_eq!(pts[5], vec![1, 2]);
        assert!(iter_box(&[0], &[0]).is_empty());
        assert_eq!(iter_box(&[], &[]), vec![Vec::<i64>::new()]);
    }

    #[test]
    fn stencil_apply_one_dimensional_sum() {
        // The paper's Listing 1: out[i] = in[i-1] + in[i+1] over [0, 8).
        let mut ctx = Context::new();
        let module = ctx.create_op("builtin.module", vec![], vec![], []);
        let mr = ctx.add_region(module);
        let mb = ctx.add_block(mr, vec![]);
        let field_ty = Type::stencil_field(StencilBounds::new(vec![-1], vec![9]), Type::F64);
        let temp_in = Type::stencil_temp(StencilBounds::new(vec![-1], vec![9]), Type::F64);
        let temp_out = Type::stencil_temp(StencilBounds::new(vec![0], vec![8]), Type::F64);

        let mut b = OpBuilder::at_block_end(&mut ctx, mb);
        let mut fattrs = std::collections::BTreeMap::new();
        fattrs.insert("sym_name".to_string(), Attribute::string("main"));
        let (_f, fb) = b.build_with_region(
            "func.func",
            vec![],
            vec![],
            fattrs,
            vec![field_ty.clone(), field_ty.clone()],
        );
        let fin = ctx.block_args(fb)[0];
        let fout = ctx.block_args(fb)[1];
        let mut b = OpBuilder::at_block_end(&mut ctx, fb);
        let loaded = b.build_value("stencil.load", vec![fin], temp_in.clone());
        let (apply, ab) = b.build_with_region(
            "stencil.apply",
            vec![loaded],
            vec![temp_out.clone()],
            [],
            vec![temp_in.clone()],
        );
        let arg = ctx.block_args(ab)[0];
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
        ib.build("stencil.return", vec![s], vec![]);

        let apply_res = ctx.result(apply, 0);
        let mut b = OpBuilder::at_block_end(&mut ctx, fb);
        let store = b.build("stencil.store", vec![apply_res, fout], vec![]);
        b.build("func.return", vec![], vec![]);
        ctx.set_attr(store, "bounds", Attribute::IndexArray(vec![0, 8]));

        crate::verifier::verify(&ctx, module).unwrap();

        let mut no = NoExtern;
        let mut m = Machine::new(&ctx, module, &mut no);
        // input field: value = index, with halo.
        let mut in_buf = Buffer::zeroed(vec![10], vec![-1]);
        for i in -1..9 {
            in_buf.store(&[i], i as f64).unwrap();
        }
        let in_h = m.store.alloc(in_buf);
        let out_h = m.store.alloc(Buffer::zeroed(vec![10], vec![-1]));
        m.call("main", &[RtValue::MemRef(in_h), RtValue::MemRef(out_h)])
            .unwrap();
        for i in 0..8i64 {
            let got = m.store.get(out_h).unwrap().load(&[i]).unwrap();
            assert_eq!(got, (i - 1) as f64 + (i + 1) as f64, "point {i}");
        }
    }

    #[test]
    fn fuel_limits_runaway() {
        let src = r#""builtin.module"() ({
^bb():
  "func.func"() ({
  ^bb():
    %lb = "arith.constant"() {value = 0 : index} : () -> (index)
    %ub = "arith.constant"() {value = 1000000 : index} : () -> (index)
    %st = "arith.constant"() {value = 1 : index} : () -> (index)
    "scf.for"(%lb, %ub, %st) ({
    ^bb(%i: index):
      "scf.yield"() : () -> ()
    }) : (index, index, index) -> ()
    "func.return"() : () -> ()
  }) {sym_name = "main"} : () -> ()
}) : () -> ()"#;
        let (ctx, module) = parse_op(src).unwrap();
        let mut no = NoExtern;
        let mut m = Machine::new(&ctx, module, &mut no);
        m.fuel = 1000;
        let e = m.call("main", &[]).unwrap_err();
        assert!(e.to_string().contains("fuel"), "{e}");
    }

    #[test]
    fn unknown_op_is_error() {
        let src = r#""builtin.module"() ({
^bb():
  "func.func"() ({
  ^bb():
    "hls.pipeline"() : () -> ()
    "func.return"() : () -> ()
  }) {sym_name = "main"} : () -> ()
}) : () -> ()"#;
        let e = run_main(src, &[]).unwrap_err();
        assert!(e.to_string().contains("no interpretation"), "{e}");
    }

    /// A dataflow region is the simulator's executor's to schedule: the
    /// interpreter no longer runs one inline, so a machine without an
    /// extern hook refuses it like any other op it does not know.
    #[test]
    fn dataflow_regions_are_not_interpreted() {
        let src = r#""builtin.module"() ({
^bb():
  "func.func"() ({
  ^bb():
    "hls.dataflow"() ({
    ^bb():
      %a = "arith.constant"() {value = 1 : i64} : () -> (i64)
    }) : () -> ()
    "func.return"() : () -> ()
  }) {sym_name = "main"} : () -> ()
}) : () -> ()"#;
        let e = run_main(src, &[]).unwrap_err();
        assert!(
            e.to_string()
                .contains("no interpretation for op `hls.dataflow`"),
            "{e}"
        );
    }
}
