//! The dataflow executor: one stage loop, two schedules.
//!
//! An `hls.dataflow` region is a Kahn process network — stages joined by
//! FIFOs, blocking reads, no peeking — so every schedule that completes
//! it computes the same values and pushes the same elements. [`execute`]
//! runs a kernel's init phase (everything outside its dataflow regions),
//! then its stages under a [`Schedule`]: in program order over unbounded
//! FIFOs, every stage tree-walked (the functional reference), or one OS
//! thread each over FIFOs bounded at their declared depth, compute and dup
//! stages as [`stageplan`](crate::stageplan) programs. A run has stalled —
//! the paper's StencilFlow "likely indicator of deadlock" — exactly when
//! every stage still running waits on a FIFO, which it counts, not times.
//! Both share one transport, one [`ExternOps`] for the `hls` ops and the
//! runtime calls, a copy-on-write view of the initial store per stage, the
//! merge of what the writing stage wrote and one [`Outcome`]: a stall is a
//! [`DeadlockReport`] naming the stage and the stream, and a stage that
//! fails or panics is an error naming the stage.

use std::collections::VecDeque;
use std::iter::zip;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

use shmls_dialects::func;
use shmls_dialects::hls::{self, RuntimeKind};
use shmls_ir::error::{panic_reason, IrError, IrResult};
use shmls_ir::interp::{Buffer, ExternOps, Machine, RtValue, Store};
use shmls_ir::ir::IdMap;
use shmls_ir::ir_error;
use shmls_ir::prelude::*;

use crate::deadlock::{DeadlockReport, StageSnapshot, StageStatus, StreamSnapshot};
use crate::design::DesignDescriptor;
use crate::executor::{dispatch_runtime_call, StreamIo};
use crate::stageplan::{plan_stage, run_stage_plan};

/// How the stages of a dataflow region are scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// The calling thread runs the stages in program order over unbounded
    /// FIFOs; a pop from an empty FIFO stalls at once.
    Sequential,
    /// One OS thread per stage over FIFOs bounded at their declared depth;
    /// the run stalls once every stage still running is parked on one.
    Threaded,
}

/// Outcome of a run.
#[derive(Debug)]
pub enum Outcome<'d> {
    /// All stages completed.
    Completed {
        /// The initial store with the buffers the writing stage wrote.
        store: Store<'d>,
        /// Total 512-bit beats moved.
        mem_beats: u64,
        /// Elements pushed into each stream, creation order.
        streams: Vec<u64>,
    },
    /// At least one stage stalled.
    Deadlock {
        /// Structured diagnosis naming the blocked stages and streams.
        report: Box<DeadlockReport>,
    },
}

/// One FIFO: its state under one lock, the one condition the stages
/// parked on it wait for — a bound is at least 1, so pushers and poppers
/// never wait on the same FIFO at once — and, on the threaded schedule,
/// its declared depth as the bound a push waits under.
struct Channel {
    fifo: Mutex<Fifo>,
    released: Condvar,
    depth: usize,
    bound: Option<usize>,
}

/// What a FIFO's lock guards: its values, the count of values ever
/// pushed, the stages parked on it, and the ticket each release of them
/// draws.
#[derive(Default)]
struct Fifo {
    queue: VecDeque<RtValue>,
    pushed: u64,
    parked: usize,
    ticket: u64,
}

/// Lock a mutex whose data every critical section here leaves valid (a
/// whole push, a whole pop), so a stage that panicked while holding it
/// must not take the other stages down with a second panic.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Channel {
    /// At its bound: what `hls.full` answers and a push waits out. An
    /// unbounded FIFO is never full.
    fn full(&self, occupancy: usize) -> bool {
        self.bound.is_some_and(|bound| occupancy >= bound)
    }
}

/// The streams of one run, shared by all its stages, whether they are
/// bounded, and the counts `(running, parked)`: the stages counted in and
/// not yet exited, and those of them parked on a FIFO. The sequential
/// schedule and the init phase count none running, so they stall at once.
#[derive(Default)]
pub(crate) struct ChannelTable {
    channels: Mutex<Vec<Arc<Channel>>>,
    bounded: bool,
    counts: Mutex<(usize, usize)>,
    stalled: AtomicBool,
}

/// A stage counted running, held by its thread: dropped as the thread
/// exits, by return or by panic, it counts the stage out again.
struct Exit<'t>(&'t ChannelTable);

impl Drop for Exit<'_> {
    fn drop(&mut self) {
        if self.0.recount(|(running, _)| *running -= 1) {
            self.0.wake_all();
        }
    }
}

impl ChannelTable {
    /// No streams yet; each FIFO created is bounded as `schedule` says.
    pub(crate) fn new(schedule: Schedule) -> Arc<ChannelTable> {
        let bounded = schedule == Schedule::Threaded;
        Arc::new(ChannelTable {
            bounded,
            ..Default::default()
        })
    }

    pub(crate) fn create(&self, depth: usize) -> usize {
        let mut guard = lock(&self.channels);
        guard.push(Arc::new(Channel {
            fifo: Mutex::default(),
            released: Condvar::new(),
            depth,
            bound: self.bounded.then_some(depth),
        }));
        guard.len() - 1
    }

    /// Count `stages` more stages running, one [`Exit`] each to hold.
    fn start(&self, stages: usize) -> Vec<Exit<'_>> {
        lock(&self.counts).0 += stages;
        (0..stages).map(|_| Exit(self)).collect()
    }

    /// Apply `change` to the counts: true if the run has stalled, whose
    /// parked stages the caller then wakes with [`ChannelTable::wake_all`].
    fn recount(&self, change: impl FnOnce(&mut (usize, usize))) -> bool {
        let mut counts = lock(&self.counts);
        change(&mut counts);
        let (running, parked) = *counts;
        let stalled = parked > 0 && parked >= running;
        self.stalled.fetch_or(stalled, Ordering::SeqCst) || stalled
    }

    /// Wake the stages parked on every FIFO to find the run stalled, each
    /// FIFO locked to notify it: a stage parking there sees or hears it.
    fn wake_all(&self) {
        for channel in lock(&self.channels).iter() {
            let _fifo = lock(&channel.fifo);
            channel.released.notify_all();
        }
    }

    /// Apply `op` to `channel` once it can (answers `Some`), parked while it
    /// cannot, then release the stages parked there, counted out before
    /// they wake. `None` once the run has stalled.
    fn transfer<T>(
        &self,
        channel: &Channel,
        mut op: impl FnMut(&mut Fifo) -> Option<T>,
    ) -> Option<T> {
        let (mut fifo, released) = (lock(&channel.fifo), &channel.released);
        loop {
            if let Some(done) = op(&mut fifo) {
                if fifo.parked > 0 {
                    lock(&self.counts).1 -= std::mem::take(&mut fifo.parked);
                    fifo.ticket += 1;
                    released.notify_all();
                }
                return Some(done);
            }
            if self.recount(|(_, parked)| *parked += 1) {
                drop(fifo);
                self.wake_all();
                return None;
            }
            fifo.parked += 1;
            let ticket = fifo.ticket;
            while fifo.ticket == ticket && !self.stalled.load(Ordering::SeqCst) {
                fifo = released.wait(fifo).unwrap_or_else(PoisonError::into_inner);
            }
        }
    }

    /// Occupancy vs. declared depth for every FIFO, creation order.
    pub(crate) fn snapshot(&self) -> Vec<StreamSnapshot> {
        lock(&self.channels)
            .iter()
            .enumerate()
            .map(|(i, c)| StreamSnapshot {
                stream: i,
                occupancy: lock(&c.fifo).queue.len(),
                depth: c.depth,
                full_stall_cycles: None,
            })
            .collect()
    }

    /// Elements ever pushed into every FIFO, creation order.
    pub(crate) fn pushed(&self) -> Vec<u64> {
        let pushed = |c: &Arc<Channel>| lock(&c.fifo).pushed;
        lock(&self.channels).iter().map(pushed).collect()
    }
}

/// One stage's side of the streams — the init phase's, too: its
/// transport, the executor's one [`ExternOps`] for the `hls` ops and the
/// runtime calls, the beats it moved, and the last operation that stalled,
/// so the deadlock report can name the stream the stage was stuck on.
pub(crate) struct ChannelIo {
    table: Arc<ChannelTable>,
    /// The table's channels as last seen. The table only ever grows, so
    /// a handle found here is current and the shared table is locked
    /// only for a handle this stage has not met yet.
    known: Vec<Arc<Channel>>,
    last_stall: Option<StageStatus>,
    mem_beats: u64,
}

impl ChannelIo {
    pub(crate) fn new(table: Arc<ChannelTable>) -> ChannelIo {
        ChannelIo {
            table,
            known: Vec::new(),
            last_stall: None,
            mem_beats: 0,
        }
    }

    /// The run's table and the FIFO behind `handle`.
    fn channel(&mut self, handle: usize) -> IrResult<(&ChannelTable, &Channel)> {
        if handle >= self.known.len() {
            self.known = lock(&self.table.channels).clone();
        }
        match self.known.get(handle) {
            Some(channel) => Ok((&self.table, channel)),
            None => Err(ir_error!("invalid stream handle {handle}")),
        }
    }

    /// Fail a blocked operation, keeping what blocked it for the report.
    fn stall(&mut self, status: StageStatus) -> IrError {
        self.last_stall = Some(status);
        ir_error!("stalled: {status:?}")
    }
}

impl StreamIo for ChannelIo {
    fn pop(&mut self, handle: usize) -> IrResult<RtValue> {
        let (table, channel) = self.channel(handle)?;
        let popped = table.transfer(channel, |fifo| fifo.queue.pop_front());
        popped.ok_or_else(|| self.stall(StageStatus::BlockedOnPop { stream: handle }))
    }

    fn push(&mut self, handle: usize, value: RtValue) -> IrResult<()> {
        let (table, channel) = self.channel(handle)?;
        let mut value = Some(value);
        let pushed = table.transfer(channel, |fifo| {
            (!channel.full(fifo.queue.len())).then(|| {
                fifo.queue.extend(value.take());
                fifo.pushed += 1;
            })
        });
        pushed.ok_or_else(|| self.stall(StageStatus::BlockedOnPush { stream: handle }))
    }
}

impl ExternOps for ChannelIo {
    fn exec(
        &mut self,
        ctx: &Context,
        op: OpId,
        args: &[RtValue],
        store: &mut Store<'_>,
    ) -> IrResult<Option<Vec<RtValue>>> {
        let name = ctx.op_name(op);
        let results = match name {
            hls::CREATE_STREAM => {
                let depth = hls::stream_depth(ctx, op).max(1) as usize;
                vec![RtValue::Stream(self.table.create(depth))]
            }
            hls::READ => vec![self.pop(args[0].as_stream()?)?],
            hls::WRITE => {
                self.push(args[1].as_stream()?, args[0].clone())?;
                vec![]
            }
            hls::EMPTY | hls::FULL => {
                let (_, channel) = self.channel(args[0].as_stream()?)?;
                let occupancy = lock(&channel.fifo).queue.len();
                vec![RtValue::Bool(match name {
                    hls::EMPTY => occupancy == 0,
                    _ => channel.full(occupancy),
                })]
            }
            // Directive ops are structural no-ops at functional level.
            hls::PIPELINE | hls::UNROLL | hls::ARRAY_PARTITION | hls::INTERFACE => vec![],
            func::CALL => {
                let beats = dispatch_runtime_call(self, ctx, op, args, store)?;
                self.mem_beats += beats.unwrap_or(0);
                return Ok(beats.map(|_| vec![]));
            }
            _ => return Ok(None),
        };
        Ok(Some(results))
    }
}

/// What one stage came to.
enum StageResult {
    /// The buffers the stage wrote or allocated, by handle, and its beats.
    Done(Vec<Option<Buffer>>, u64),
    /// The stage stalled on the named stream operation.
    Stalled(StageStatus),
    Failed(IrError),
}

/// A kernel after its init phase: the stages still to run and what they
/// share — the SSA values and the memory the init phase left.
struct Network<'d> {
    ctx: &'d Context,
    /// Where a stage's machine looks for a function it calls by name —
    /// walked only by a stage that calls one the runtime does not provide.
    module: OpId,
    func: OpId,
    stages: Vec<OpId>,
    env: IdMap<ValueId, RtValue>,
    store: Store<'d>,
    table: Arc<ChannelTable>,
    mem_beats: u64,
}

impl<'d> Network<'d> {
    /// Bind the arguments `setup` returns and run everything of `func`
    /// but its dataflow regions, which are collected.
    fn init(
        ctx: &'d Context,
        module: OpId,
        func: impl Entry,
        setup: impl FnOnce(&mut Store<'d>) -> Vec<RtValue>,
        table: Arc<ChannelTable>,
    ) -> IrResult<Self> {
        let mut io = ChannelIo::new(Arc::clone(&table));
        let mut machine = Machine::new(ctx, module, &mut io);
        let func = func.resolve(&mut machine)?;
        let entry = ctx.entry_block(func).ok_or_else(|| {
            let name = func::func_name(ctx, func).unwrap_or("?");
            ir_error!("function `{name}` has no body")
        })?;
        let args = setup(&mut machine.store);
        for (&p, a) in ctx.block_args(entry).iter().zip(args) {
            machine.bind(p, a);
        }
        let mut stages = Vec::new();
        for &op in ctx.block_ops(entry) {
            match ctx.op_name(op) {
                hls::DATAFLOW => stages.push(op),
                func::RETURN => break,
                _ => {
                    machine.exec_op(op)?;
                }
            }
        }
        let env = std::mem::take(&mut machine.env);
        let store = std::mem::take(&mut machine.store);
        drop(machine);
        Ok(Network {
            ctx,
            module,
            func,
            stages,
            env,
            store,
            table,
            mem_beats: io.mem_beats,
        })
    }

    /// Run stage `i` over its own view of the initial memory — it reads
    /// in place and pays only for the buffers it writes — as a stage plan
    /// if `planned` and it has one, tree-walked otherwise.
    fn run_stage(&self, i: usize, planned: bool) -> StageResult {
        let store = self.store.lend_all();
        let mut io = ChannelIo::new(Arc::clone(&self.table));
        let (run, store) = match planned.then(|| plan_stage(self.ctx, self.stages[i])) {
            Some(Some(plan)) => (run_stage_plan(&plan, &self.env, &store, &mut io), store),
            _ => {
                let mut machine = Machine::new(self.ctx, self.module, &mut io);
                machine.env = self.env.clone();
                machine.store = store;
                let run = match self.ctx.entry_block(self.stages[i]) {
                    Some(body) => machine.run_block(body).map(|_| ()),
                    None => Err(ir_error!("dataflow stage without body")),
                };
                (run, std::mem::take(&mut machine.store))
            }
        };
        match (run, io.last_stall) {
            (Ok(()), _) => StageResult::Done(store.into_owned_buffers(), io.mem_beats),
            // A stall fails its stage on the spot, so a stage that
            // recorded one failed of it.
            (Err(_), Some(status)) => StageResult::Stalled(status),
            (Err(e), None) => StageResult::Failed(e),
        }
    }

    /// Run every stage under `schedule`, a panic contained to its stage.
    fn run_stages(&self, schedule: Schedule) -> Vec<thread::Result<StageResult>> {
        let stages = 0..self.stages.len();
        match schedule {
            Schedule::Sequential => stages
                .map(|i| catch_unwind(AssertUnwindSafe(|| self.run_stage(i, false))))
                .collect(),
            // Every stage is counted running before any can park.
            Schedule::Threaded => thread::scope(|scope| {
                let exits = self.table.start(self.stages.len());
                let handles: Vec<_> = zip(stages, exits)
                    .map(|(i, exit)| {
                        scope.spawn(move || {
                            let _exit = exit;
                            self.run_stage(i, true)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join()).collect()
            }),
        }
    }

    /// `stage{i}:{kind}` for every stage, from the design descriptor.
    fn labels(&self) -> Vec<String> {
        let design = DesignDescriptor::extract(self.ctx, self.func).ok();
        let label = |i: usize| match design.as_ref().and_then(|d| d.stages.get(i)) {
            Some(stage) => stage.label(i),
            None => format!("stage{i}:unknown"),
        };
        (0..self.stages.len()).map(label).collect()
    }

    /// One outcome from every stage's result. The first failure in
    /// program order is the error — a failing stage is a bug in the
    /// program, not a deadlock, even if its failure starved the others.
    fn finish(self, results: Vec<thread::Result<StageResult>>) -> IrResult<Outcome<'d>> {
        let write_data = |&s: &OpId| hls::stage_kind(self.ctx, s) == Some(RuntimeKind::WriteData);
        let writer = self.stages.iter().position(write_data);
        let (mut mem_beats, mut written, mut statuses) = (self.mem_beats, Vec::new(), Vec::new());
        for (i, result) in results.into_iter().enumerate() {
            match result {
                Ok(StageResult::Done(owned, beats)) => {
                    statuses.push(StageStatus::Finished);
                    mem_beats += beats;
                    if writer == Some(i) {
                        written = owned;
                    }
                }
                Ok(StageResult::Stalled(status)) => statuses.push(status),
                Ok(StageResult::Failed(e)) => return Err(e),
                Err(payload) => {
                    let (label, reason) = (&self.labels()[i], panic_reason(&*payload));
                    return Err(ir_error!("dataflow stage {label} panicked: {reason}"));
                }
            }
        }
        if statuses.iter().any(|s| *s != StageStatus::Finished) {
            let snapshot = |(stage, status)| StageSnapshot { stage, status };
            let stages = zip(self.labels(), statuses).map(snapshot).collect();
            let streams = self.table.snapshot();
            let report = Box::new(DeadlockReport {
                stages,
                streams,
                cycles: None,
            });
            return Ok(Outcome::Deadlock { report });
        }
        // What the writing stage came to own goes back behind its handle.
        // (A buffer a stage allocated for itself has no handle outside it.)
        let mut store = self.store;
        for (handle, buffer) in written.into_iter().enumerate().take(store.len()) {
            if let Some(buffer) = buffer {
                store.put(handle, buffer)?;
            }
        }
        Ok(Outcome::Completed {
            store,
            mem_beats,
            streams: self.table.pushed(),
        })
    }
}

/// The function [`execute`] runs: its `func.func` op, which a compiled
/// kernel holds, or its name, found by one walk of the module.
pub trait Entry {
    /// The function's op, looked up through `machine`'s function table.
    fn resolve(self, machine: &mut Machine<'_, '_>) -> IrResult<OpId>;
}

impl Entry for OpId {
    fn resolve(self, _: &mut Machine<'_, '_>) -> IrResult<OpId> {
        Ok(self)
    }
}

impl Entry for &str {
    fn resolve(self, machine: &mut Machine<'_, '_>) -> IrResult<OpId> {
        machine.function(self)
    }
}

/// Execute the HLS kernel `func` of `module` under `schedule`. `setup`
/// allocates the kernel's buffers in the store and returns the argument
/// values in signature order.
pub fn execute<'d>(
    ctx: &'d Context,
    module: OpId,
    func: impl Entry,
    setup: impl FnOnce(&mut Store<'d>) -> Vec<RtValue>,
    schedule: Schedule,
) -> IrResult<Outcome<'d>> {
    let network = Network::init(ctx, module, func, setup, ChannelTable::new(schedule))?;
    let results = network.run_stages(schedule);
    network.finish(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmls_dialects::builtin::create_module;
    use shmls_dialects::{arith, func as fdial, scf};
    use shmls_ir::builder::OpBuilder;

    /// Build a module with one function containing `n` dataflow stages
    /// produced by `build`, for hand-made concurrency tests.
    fn stage_module(build: impl FnOnce(&mut Context, BlockId)) -> (Context, OpId) {
        let mut ctx = Context::new();
        let (module, body) = create_module(&mut ctx);
        let (_f, entry) = fdial::create_func(&mut ctx, body, "k", vec![], vec![]);
        build(&mut ctx, entry);
        let mut b = OpBuilder::at_block_end(&mut ctx, entry);
        fdial::ret(&mut b, vec![]);
        (ctx, module)
    }

    /// Producer writes `n_produce` values; consumer reads `n_consume`.
    fn producer_consumer(n_produce: i64, n_consume: i64, depth: i64) -> (Context, OpId) {
        stage_module(move |ctx, entry| {
            let mut b = OpBuilder::at_block_end(ctx, entry);
            let s = hls::create_stream(&mut b, Type::F64, depth);
            // Producer stage.
            let (_df, pbody) = hls::dataflow(&mut b);
            let mut pb = OpBuilder::at_block_end(ctx, pbody);
            let lb = arith::constant_index(&mut pb, 0);
            let ub = arith::constant_index(&mut pb, n_produce);
            let st = arith::constant_index(&mut pb, 1);
            let (_for1, l1) = scf::for_loop(&mut pb, lb, ub, st, vec![]);
            let mut ib = OpBuilder::at_block_end(ctx, l1);
            let v = arith::constant_f64(&mut ib, 1.5);
            hls::write(&mut ib, v, s);
            scf::yield_op(&mut ib, vec![]);
            // Consumer stage.
            let mut b = OpBuilder::at_block_end(ctx, entry);
            let (_df2, cbody) = hls::dataflow(&mut b);
            let mut cb = OpBuilder::at_block_end(ctx, cbody);
            let lb = arith::constant_index(&mut cb, 0);
            let ub = arith::constant_index(&mut cb, n_consume);
            let st = arith::constant_index(&mut cb, 1);
            let (_for2, l2) = scf::for_loop(&mut cb, lb, ub, st, vec![]);
            let mut ib = OpBuilder::at_block_end(ctx, l2);
            let _ = hls::read(&mut ib, s);
            scf::yield_op(&mut ib, vec![]);
        })
    }

    fn run(ctx: &Context, module: OpId, schedule: Schedule) -> Outcome<'_> {
        execute(ctx, module, "k", |_| vec![], schedule).unwrap()
    }

    /// The transport alone, two threads counted as the run's stages:
    /// values leave in the order they entered, and the queue never holds
    /// more than its declared depth — the consumer starts only once the
    /// producer has filled it.
    #[test]
    fn channel_is_fifo_and_never_exceeds_its_depth() {
        const DEPTH: usize = 3;
        const VALUES: i64 = 2000;
        let table = ChannelTable::new(Schedule::Threaded);
        let stream = table.create(DEPTH);
        let io = || ChannelIo::new(Arc::clone(&table));
        let occupancy = || table.snapshot()[stream].occupancy;
        let filled = std::sync::Barrier::new(2);
        let mut exits = table.start(2);
        let producer_exit = exits.pop();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _exit = producer_exit;
                let mut producer = io();
                for v in 0..VALUES {
                    producer.push(stream, RtValue::I64(v)).unwrap();
                    assert!(occupancy() <= DEPTH);
                    if v + 1 == DEPTH as i64 {
                        filled.wait();
                    }
                }
            });
            let mut consumer = io();
            filled.wait();
            assert_eq!(occupancy(), DEPTH, "the producer blocks on a full FIFO");
            for v in 0..VALUES {
                assert_eq!(consumer.pop(stream).unwrap(), RtValue::I64(v));
                assert!(occupancy() <= DEPTH);
            }
            drop(exits);
        });
        assert_eq!(occupancy(), 0);
        assert_eq!(table.pushed(), [VALUES as u64]);
        assert_eq!(*lock(&table.counts), (0, 0));
    }

    /// However long the other running stage takes, a stage parked on a
    /// FIFO it will fill is waiting, not deadlocked: once the consumer has
    /// parked, the producer sleeps 600 ms — longer than any stall timeout
    /// these tests ever gave — and the pop returns what it then pushes.
    #[test]
    fn a_slow_producer_is_not_a_deadlock() {
        let table = ChannelTable::new(Schedule::Threaded);
        let stream = table.create(1);
        let io = || ChannelIo::new(Arc::clone(&table));
        let mut exits = table.start(2);
        let producer_exit = exits.pop();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _exit = producer_exit;
                while lock(&table.counts).1 == 0 {
                    thread::yield_now();
                }
                thread::sleep(std::time::Duration::from_millis(600));
                io().push(stream, RtValue::I64(7)).unwrap();
            });
            assert_eq!(io().pop(stream).unwrap(), RtValue::I64(7));
            drop(exits);
        });
        assert!(!table.stalled.load(Ordering::SeqCst));
    }

    #[test]
    fn balanced_pipeline_completes() {
        let (ctx, module) = producer_consumer(1000, 1000, 2);
        for schedule in [Schedule::Sequential, Schedule::Threaded] {
            match run(&ctx, module, schedule) {
                Outcome::Completed { streams, .. } => assert_eq!(streams, [1000]),
                other => panic!("{schedule:?}: expected completion, got {other:?}"),
            }
        }
    }

    #[test]
    fn starved_consumer_is_deadlock() {
        // Consumer wants more than the producer sends: blocking read stalls.
        let (ctx, module) = producer_consumer(10, 11, 2);
        for schedule in [Schedule::Sequential, Schedule::Threaded] {
            let Outcome::Deadlock { report } = run(&ctx, module, schedule) else {
                panic!("{schedule:?}: expected deadlock");
            };
            // The consumer (stage 1) is blocked popping the empty
            // stream 0; the producer finished.
            assert_eq!(report.stages.len(), 2);
            assert_eq!(report.stages[0].status, StageStatus::Finished);
            assert_eq!(
                report.stages[1].status,
                StageStatus::BlockedOnPop { stream: 0 }
            );
            assert_eq!(report.streams.len(), 1);
            assert_eq!(report.streams[0].occupancy, 0);
            assert_eq!(report.streams[0].depth, 2);
            let text = report.to_string();
            assert!(text.contains("blocked popping stream 0"), "{text}");
        }
    }

    /// A stage that *fails* (unknown function) surfaces as an error, not
    /// misclassified as a deadlock — alone, or beside a consumer it leaves
    /// waiting on a stream it never fills, which stalls the moment the
    /// failing stage exits.
    #[test]
    fn stage_errors_propagate_as_errors_not_deadlock() {
        let alone = stage_module(|ctx, entry| {
            let mut b = OpBuilder::at_block_end(ctx, entry);
            let (_df, body) = hls::dataflow(&mut b);
            let mut ib = OpBuilder::at_block_end(ctx, body);
            fdial::call(&mut ib, "does_not_exist", vec![], vec![]);
        });
        let starving = stage_module(|ctx, entry| {
            let mut b = OpBuilder::at_block_end(ctx, entry);
            let s = hls::create_stream(&mut b, Type::F64, 2);
            let (_failing, failing) = hls::dataflow(&mut b);
            let (_consumer, consumer) = hls::dataflow(&mut OpBuilder::at_block_end(ctx, entry));
            let mut fb = OpBuilder::at_block_end(ctx, failing);
            fdial::call(&mut fb, "does_not_exist", vec![], vec![]);
            let v = arith::constant_f64(&mut fb, 1.5);
            hls::write(&mut fb, v, s);
            hls::read(&mut OpBuilder::at_block_end(ctx, consumer), s);
        });
        for (ctx, module) in [&alone, &starving] {
            for schedule in [Schedule::Sequential, Schedule::Threaded] {
                let started = std::time::Instant::now();
                let e = execute(ctx, *module, "k", |_| vec![], schedule).unwrap_err();
                assert!(e.to_string().contains("does_not_exist"), "{e}");
                let waited = started.elapsed();
                assert!(waited.as_secs() < 5, "{schedule:?} waited {waited:?}");
            }
        }
    }

    #[test]
    fn blocked_producer_is_deadlock() {
        // Producer sends more than the consumer drains: bounded FIFO fills,
        // the blocking write stalls — the StencilFlow failure mode.
        let (ctx, module) = producer_consumer(100, 10, 2);
        let Outcome::Deadlock { report } = run(&ctx, module, Schedule::Threaded) else {
            panic!("expected deadlock");
        };
        // The producer (stage 0) is blocked pushing the full stream 0; the
        // consumer drained its 10 and finished.
        assert_eq!(
            report.stages[0].status,
            StageStatus::BlockedOnPush { stream: 0 }
        );
        assert_eq!(report.stages[1].status, StageStatus::Finished);
        let s0 = &report.streams[0];
        assert_eq!((s0.occupancy, s0.depth), (2, 2), "FIFO must be full");
        assert!(s0.is_full());
        // Unbounded, the producer is never refused: the 90 undrained
        // values stay queued and the run completes.
        match run(&ctx, module, Schedule::Sequential) {
            Outcome::Completed { streams, .. } => assert_eq!(streams, [100]),
            other => panic!("expected completion, got {other:?}"),
        }
    }

    /// A consumer ahead of its producer in program order: the threaded
    /// schedule runs them side by side and completes; the sequential one
    /// runs the consumer first, whose pop stalls at once — a deadlock
    /// report naming the stage and the stream, as the others give.
    #[test]
    fn a_consumer_before_its_producer_stalls_only_in_program_order() {
        let (ctx, module) = stage_module(|ctx, entry| {
            let mut b = OpBuilder::at_block_end(ctx, entry);
            let s = hls::create_stream(&mut b, Type::F64, 2);
            let (_consumer, consumer) = hls::dataflow(&mut b);
            let (_producer, producer) = hls::dataflow(&mut OpBuilder::at_block_end(ctx, entry));
            hls::read(&mut OpBuilder::at_block_end(ctx, consumer), s);
            let mut b = OpBuilder::at_block_end(ctx, producer);
            let v = arith::constant_f64(&mut b, 1.5);
            hls::write(&mut b, v, s);
        });
        match run(&ctx, module, Schedule::Threaded) {
            Outcome::Completed { streams, .. } => assert_eq!(streams, [1]),
            other => panic!("expected completion, got {other:?}"),
        }
        let Outcome::Deadlock { report } = run(&ctx, module, Schedule::Sequential) else {
            panic!("a pop ahead of its push completed");
        };
        let statuses: Vec<_> = report.stages.iter().map(|s| s.status).collect();
        let popped_early = StageStatus::BlockedOnPop { stream: 0 };
        assert_eq!(statuses, [popped_early, StageStatus::Finished]);
        assert_eq!(report.streams[0].occupancy, 1, "the producer ran after");
    }
}
