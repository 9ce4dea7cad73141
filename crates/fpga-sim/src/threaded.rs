//! Concurrent execution engine: one OS thread per dataflow stage, bounded
//! channels as FIFOs, and a watchdog that converts stalls into deadlock
//! reports.
//!
//! The sequential engine ([`crate::executor`]) validates *values*; this
//! engine validates *concurrency*: that the generated design really is a
//! deadlock-free Kahn network under hardware-like bounded FIFOs. It is
//! also how we reproduce the paper's StencilFlow observation — runs that
//! "did not complete their execution under 10 minutes, a likely indicator
//! of deadlock" — as a first-class outcome rather than a hang.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use shmls_dialects::hls;
use shmls_ir::error::{IrError, IrResult};
use shmls_ir::interp::{Buffer, ExternOps, Machine, RtValue, Store};
use shmls_ir::prelude::*;
use shmls_ir::{ir_bail, ir_error};

use crate::deadlock::{DeadlockReport, StageSnapshot, StageStatus, StreamSnapshot};
use crate::executor::{dispatch_runtime_call, StreamIo};

/// Outcome of a threaded run.
#[derive(Debug)]
pub enum ThreadedOutcome<'d> {
    /// All stages completed; the store contains the written outputs.
    Completed {
        /// Final memory state: the initial store with the buffers the
        /// writing stage wrote.
        store: Store<'d>,
        /// Total 512-bit beats moved.
        mem_beats: u64,
    },
    /// At least one stage stalled past the watchdog — a deadlock (or an
    /// unbalanced producer/consumer pair). The report snapshots every
    /// stage's state and every FIFO's occupancy vs. declared depth.
    Deadlock {
        /// Structured diagnosis naming the blocked stages and streams.
        report: Box<DeadlockReport>,
    },
}

/// One bounded FIFO: a queue that never holds more than `depth` values,
/// with one condition per direction a stage can block in.
struct Channel {
    queue: Mutex<VecDeque<RtValue>>,
    not_empty: Condvar,
    not_full: Condvar,
    depth: usize,
}

/// Lock a mutex whose data every critical section here leaves valid (a
/// whole push, a whole pop), so a stage that panicked while holding it
/// must not take the other stages down with a second panic.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Channel {
    /// Block on `condition` until `ready(queue)` holds, for at most
    /// `watchdog` in total; `None` means the watchdog expired first.
    fn wait_until<'a>(
        &'a self,
        condition: &Condvar,
        watchdog: Duration,
        ready: impl Fn(&VecDeque<RtValue>) -> bool,
    ) -> Option<MutexGuard<'a, VecDeque<RtValue>>> {
        let mut queue = lock(&self.queue);
        let mut deadline = None;
        while !ready(&queue) {
            let deadline = *deadline.get_or_insert_with(|| Instant::now() + watchdog);
            let left = deadline.checked_duration_since(Instant::now())?;
            queue = condition
                .wait_timeout(queue, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        Some(queue)
    }
}

/// A channel-backed stream table shared by all stage threads.
struct ChannelTable {
    channels: Mutex<Vec<Arc<Channel>>>,
    watchdog: Duration,
}

impl ChannelTable {
    fn create(&self, depth: usize) -> usize {
        let mut guard = lock(&self.channels);
        guard.push(Arc::new(Channel {
            queue: Mutex::new(VecDeque::new()),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            depth: depth.max(1),
        }));
        guard.len() - 1
    }

    /// Occupancy vs. declared depth for every FIFO, creation order.
    fn snapshot(&self) -> Vec<StreamSnapshot> {
        lock(&self.channels)
            .iter()
            .enumerate()
            .map(|(i, c)| StreamSnapshot {
                stream: i,
                occupancy: lock(&c.queue).len(),
                depth: c.depth,
                full_stall_cycles: None,
            })
            .collect()
    }
}

/// Stream transport over bounded channels with stall detection. Records
/// the last blocking operation that timed out so the deadlock report can
/// name the stream the owning stage was stuck on.
struct ChannelIo {
    table: Arc<ChannelTable>,
    /// The table's channels as last seen. The table only ever grows, so
    /// a handle found here is current and the shared table is locked
    /// only for a handle this stage has not met yet.
    known: Vec<Arc<Channel>>,
    last_stall: Option<StageStatus>,
}

impl ChannelIo {
    fn new(table: Arc<ChannelTable>) -> ChannelIo {
        ChannelIo {
            table,
            known: Vec::new(),
            last_stall: None,
        }
    }

    fn channel(&mut self, handle: usize) -> IrResult<&Channel> {
        if handle >= self.known.len() {
            self.known = lock(&self.table.channels).clone();
        }
        match self.known.get(handle) {
            Some(channel) => Ok(channel),
            None => Err(ir_error!("invalid stream handle {handle}")),
        }
    }
}

impl StreamIo for ChannelIo {
    fn pop(&mut self, handle: usize) -> IrResult<RtValue> {
        let watchdog = self.table.watchdog;
        let channel = self.channel(handle)?;
        if let Some(mut queue) = channel.wait_until(&channel.not_empty, watchdog, |q| !q.is_empty())
        {
            let value = queue.pop_front().expect("waited for a non-empty queue");
            drop(queue);
            channel.not_full.notify_one();
            return Ok(value);
        }
        self.last_stall = Some(StageStatus::BlockedOnPop { stream: handle });
        Err(stall_error("read", handle))
    }

    fn push(&mut self, handle: usize, value: RtValue) -> IrResult<()> {
        let watchdog = self.table.watchdog;
        let channel = self.channel(handle)?;
        let depth = channel.depth;
        if let Some(mut queue) =
            channel.wait_until(&channel.not_full, watchdog, |q| q.len() < depth)
        {
            queue.push_back(value);
            drop(queue);
            channel.not_empty.notify_one();
            return Ok(());
        }
        self.last_stall = Some(StageStatus::BlockedOnPush { stream: handle });
        Err(stall_error("write", handle))
    }
}

fn stall_error(what: &str, handle: usize) -> IrError {
    ir_error!("stalled: blocking {what} on stream {handle} exceeded the watchdog")
}

/// Extern hook for stage threads and for the init phase.
struct ChannelExtern {
    io: ChannelIo,
    mem_beats: u64,
}

impl ExternOps for ChannelExtern {
    fn exec(
        &mut self,
        ctx: &Context,
        op: OpId,
        args: &[RtValue],
        store: &mut Store<'_>,
    ) -> IrResult<Option<Vec<RtValue>>> {
        match ctx.op_name(op) {
            hls::CREATE_STREAM => {
                let depth = hls::stream_depth(ctx, op).max(1) as usize;
                Ok(Some(vec![RtValue::Stream(self.io.table.create(depth))]))
            }
            hls::READ => Ok(Some(vec![self.io.pop(args[0].as_stream()?)?])),
            hls::WRITE => {
                self.io.push(args[1].as_stream()?, args[0].clone())?;
                Ok(Some(vec![]))
            }
            hls::EMPTY | hls::FULL => {
                ir_bail!("hls.empty/full are not supported by the threaded engine")
            }
            hls::PIPELINE | hls::UNROLL | hls::ARRAY_PARTITION | hls::INTERFACE => Ok(Some(vec![])),
            shmls_dialects::func::CALL => {
                let mut beats = 0u64;
                let r = dispatch_runtime_call(&mut self.io, &mut beats, ctx, op, args, store);
                self.mem_beats += beats;
                r
            }
            _ => Ok(None),
        }
    }
}

/// Execute the HLS kernel `func_name` with one thread per dataflow stage
/// and bounded FIFOs. `setup` allocates buffers and returns the argument
/// values; `watchdog` bounds how long any single blocking stream operation
/// may stall before the run is declared deadlocked.
pub fn execute_threaded<'d>(
    ctx: &'d Context,
    module: OpId,
    func_name: &str,
    setup: impl FnOnce(&mut Store<'d>) -> Vec<RtValue>,
    watchdog: Duration,
) -> IrResult<ThreadedOutcome<'d>> {
    let table = Arc::new(ChannelTable {
        channels: Mutex::new(Vec::new()),
        watchdog,
    });

    // ---- init phase: run everything except dataflow regions -------------
    let mut init_extern = ChannelExtern {
        io: ChannelIo::new(Arc::clone(&table)),
        mem_beats: 0,
    };
    let mut machine = Machine::new(ctx, module, &mut init_extern);
    let func = *machine
        .functions
        .get(func_name)
        .ok_or_else(|| ir_error!("unknown function `{func_name}`"))?;
    let entry = ctx
        .entry_block(func)
        .ok_or_else(|| ir_error!("function `{func_name}` has no body"))?;
    let params = ctx.block_args(entry).to_vec();
    let args = setup(&mut machine.store);
    for (p, a) in params.iter().zip(&args) {
        machine.bind(*p, a.clone());
    }

    let mut stages: Vec<OpId> = Vec::new();
    for &op in ctx.block_ops(entry) {
        match ctx.op_name(op) {
            hls::DATAFLOW => stages.push(op),
            shmls_dialects::func::RETURN => break,
            _ => {
                machine.exec_op(op)?;
            }
        }
    }
    let env = machine.env.clone();
    let init_store = std::mem::take(&mut machine.store);
    drop(machine);
    let init_beats = init_extern.mem_beats;

    // Identify the stage doing external writes — what it wrote is the
    // result.
    let write_stage = stages
        .iter()
        .position(|&s| hls::stage_kind(ctx, s) == Some(hls::RuntimeKind::WriteData));

    // ---- concurrent phase ------------------------------------------------
    enum StageResult {
        /// The buffers the stage wrote or allocated, by handle, and its
        /// memory beats.
        Done(Vec<Option<Buffer>>, u64),
        /// The stage timed out blocking on the named stream operation.
        Stalled(StageStatus),
        Failed(IrError),
    }

    // Bytecode tier: stages matching the generated compute/dup shape run
    // as flat register programs; everything else (runtime-call stages,
    // unplanned shapes) keeps the tree-walking interpreter.
    let plans: Vec<Option<crate::stageplan::StagePlan>> = stages
        .iter()
        .map(|&s| crate::stageplan::plan_stage(ctx, s))
        .collect();

    let results: Vec<StageResult> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (&stage, plan) in stages.iter().zip(plans) {
            let env = env.clone();
            // Every stage reads the initial memory in place and pays only
            // for the buffers it writes.
            let store = init_store.lend_all();
            let table = Arc::clone(&table);
            handles.push(scope.spawn(move || -> StageResult {
                let mut ext = ChannelExtern {
                    io: ChannelIo::new(table),
                    mem_beats: 0,
                };
                let (run, store, beats) = if let Some(plan) = plan {
                    let run = crate::stageplan::run_stage_plan(&plan, &env, &store, &mut ext.io);
                    (run, store, 0)
                } else {
                    let mut m = Machine::new(ctx, module, &mut ext);
                    m.env = env;
                    m.store = store;
                    let Some(body) = ctx.entry_block(stage) else {
                        return StageResult::Failed(ir_error!("dataflow stage without body"));
                    };
                    let run = m.run_block(body).map(|_| ());
                    let store = std::mem::take(&mut m.store);
                    drop(m);
                    (run, store, ext.mem_beats)
                };
                match run {
                    Ok(()) => StageResult::Done(store.into_owned_buffers(), beats),
                    // A stall fails its stage on the spot, so a stage that
                    // recorded one failed of it.
                    Err(e) => match ext.io.last_stall {
                        Some(status) => StageResult::Stalled(status),
                        None => StageResult::Failed(e),
                    },
                }
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("stage thread panicked"))
            .collect()
    });

    // Non-stall errors take precedence: a failing stage is a bug in the
    // program, not a deadlock, even if its failure starved the others.
    let mut mem_beats = init_beats;
    let mut written: Vec<Option<Buffer>> = Vec::new();
    let mut statuses: Vec<StageStatus> = Vec::new();
    for (i, r) in results.into_iter().enumerate() {
        match r {
            StageResult::Done(owned, beats) => {
                statuses.push(StageStatus::Finished);
                mem_beats += beats;
                if write_stage == Some(i) {
                    written = owned;
                }
            }
            StageResult::Stalled(status) => statuses.push(status),
            StageResult::Failed(e) => return Err(e),
        }
    }
    if statuses.iter().any(|s| *s != StageStatus::Finished) {
        // The labels every report carries: the descriptor's.
        let design = crate::design::DesignDescriptor::extract(ctx, func);
        let label = |i: usize| match &design {
            Ok(design) => design.stages[i].label(i),
            Err(_) => format!("stage{i}:unknown"),
        };
        let snapshot = |(i, status)| StageSnapshot {
            stage: label(i),
            status,
        };
        let report = DeadlockReport {
            stages: statuses.into_iter().enumerate().map(snapshot).collect(),
            streams: table.snapshot(),
            cycles: None,
        };
        return Ok(ThreadedOutcome::Deadlock {
            report: Box::new(report),
        });
    }
    // What the writing stage came to own goes back behind its handle. (A
    // buffer a stage allocated for itself has no handle outside it.)
    let mut store = init_store;
    for (handle, buffer) in written.into_iter().enumerate().take(store.len()) {
        if let Some(buffer) = buffer {
            store.put(handle, buffer)?;
        }
    }
    Ok(ThreadedOutcome::Completed { store, mem_beats })
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

    /// The transport alone, two threads: values leave in the order they
    /// entered, and the queue never holds more than its declared depth —
    /// the consumer starts only once the producer has filled it.
    #[test]
    fn channel_is_fifo_and_never_exceeds_its_depth() {
        const DEPTH: usize = 3;
        const VALUES: i64 = 2000;
        let table = Arc::new(ChannelTable {
            channels: Mutex::new(Vec::new()),
            watchdog: Duration::from_secs(5),
        });
        let stream = table.create(DEPTH);
        let io = || ChannelIo::new(Arc::clone(&table));
        let occupancy = || table.snapshot()[stream].occupancy;
        let filled = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
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
        });
        assert_eq!(occupancy(), 0);
    }

    #[test]
    fn balanced_pipeline_completes() {
        let (ctx, module) = producer_consumer(1000, 1000, 2);
        let out = execute_threaded(&ctx, module, "k", |_| vec![], Duration::from_secs(5)).unwrap();
        assert!(matches!(out, ThreadedOutcome::Completed { .. }));
    }

    #[test]
    fn starved_consumer_is_deadlock() {
        // Consumer wants more than the producer sends: blocking read stalls.
        let (ctx, module) = producer_consumer(10, 11, 2);
        let out =
            execute_threaded(&ctx, module, "k", |_| vec![], Duration::from_millis(200)).unwrap();
        match out {
            ThreadedOutcome::Deadlock { report } => {
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
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn stage_errors_propagate_as_errors_not_deadlock() {
        // A stage that *fails* (unknown function) must surface as an
        // error, not be misclassified as a deadlock.
        let (ctx, module) = stage_module(|ctx, entry| {
            let mut b = OpBuilder::at_block_end(ctx, entry);
            let (_df, body) = hls::dataflow(&mut b);
            let mut ib = OpBuilder::at_block_end(ctx, body);
            fdial::call(&mut ib, "does_not_exist", vec![], vec![]);
        });
        let e = execute_threaded(&ctx, module, "k", |_| vec![], Duration::from_millis(200))
            .unwrap_err();
        assert!(e.to_string().contains("does_not_exist"), "{e}");
    }

    #[test]
    fn blocked_producer_is_deadlock() {
        // Producer sends more than the consumer drains: bounded FIFO fills,
        // the blocking write stalls — the StencilFlow failure mode.
        let (ctx, module) = producer_consumer(100, 10, 2);
        let out =
            execute_threaded(&ctx, module, "k", |_| vec![], Duration::from_millis(200)).unwrap();
        match out {
            ThreadedOutcome::Deadlock { report } => {
                // The producer (stage 0) is blocked pushing the full
                // stream 0; the consumer drained its 10 and finished.
                assert_eq!(
                    report.stages[0].status,
                    StageStatus::BlockedOnPush { stream: 0 }
                );
                assert_eq!(report.stages[1].status, StageStatus::Finished);
                let s0 = &report.streams[0];
                assert_eq!((s0.occupancy, s0.depth), (2, 2), "FIFO must be full");
                assert!(s0.is_full());
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }
}
