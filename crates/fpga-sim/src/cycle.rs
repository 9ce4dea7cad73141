//! Cycle-level Kahn-network simulation of a dataflow design.
//!
//! Where [`crate::perf`] computes a closed-form makespan (max stage time +
//! fill) and [`crate::executor`] computes *values* with no notion of time,
//! this engine steps the design cycle by cycle at the *token* level:
//! every stage is a small state machine that fires when its input FIFOs
//! have tokens, its output FIFOs have space, and its initiation interval
//! permits — exactly the discipline a Vitis dataflow region follows in
//! hardware. It reports total cycles plus per-stage busy/stall statistics,
//! and is used to validate the analytic model (they must agree within a
//! few percent — see `tests/model_validation.rs`).
//!
//! Token semantics per stage kind:
//!
//! - **Load** fires once per element per field stream (the 512-bit port
//!   supplies ≥ 1 element/cycle, so the stream side is the rate limit).
//! - **Shift** consumes one element per fire; window `j` becomes
//!   emittable once the consumed count passes the warm-up
//!   (`register_len`) plus the approximately uniform halo-gap spread —
//!   the cycle-approximate part of the simulator.
//! - **Dup** forwards one token to every copy per fire.
//! - **Compute** consumes one token from each input stream and produces
//!   one result every `II` cycles.
//! - **Write** drains one token per result stream per fire.
//!
//! The step allocates nothing, and a stationary cycle — one that leaves
//! every FIFO level where it found it — is not stepped again: the cycles
//! that can only repeat it are counted in one jump (see [`simulate`]).
//! That is what lets the engine reach the paper's 8M-point grids.

use crate::deadlock::{DeadlockReport, StageSnapshot, StageStatus, StreamSnapshot};
use crate::design::{DesignDescriptor, Stage, StageWiring};
use crate::device::Device;

/// Result of a cycle-level run.
#[derive(Debug, Clone)]
pub struct CycleReport {
    /// Total cycles until every stage completed.
    pub cycles: u64,
    /// Fires per stage.
    pub fires: Vec<u64>,
    /// Cycles each stage spent unable to fire for lack of input tokens.
    pub stalled_empty: Vec<u64>,
    /// Cycles each stage spent unable to fire because an output was full.
    pub stalled_full: Vec<u64>,
    /// Completion cycle per stage.
    pub done_at: Vec<u64>,
    /// Cycles the engine iterated one by one; the other
    /// `cycles - stepped_cycles` were counted in stationary-run jumps. A
    /// cost of the simulation, not a property of the design.
    pub stepped_cycles: u64,
}

impl CycleReport {
    /// Throughput in million points per second at the device clock.
    pub fn mpts(&self, points: u64, device: &Device) -> f64 {
        points as f64 / device.cycles_to_seconds(self.cycles) / 1.0e6
    }
}

struct StageState {
    /// Remaining fires.
    remaining: u64,
    /// Tokens consumed so far (shift stages).
    consumed: u64,
    /// Tokens produced so far.
    produced: u64,
    /// Cycle at which the stage may fire next (II pacing).
    ready_at: u64,
    /// Initiation interval.
    ii: u64,
    /// For shift stages: warm-up length and totals for the emit gate.
    shift: Option<(u64, u64, u64)>, // (register_len, elements, windows)
    /// For merge stages: totals for the consume gate.
    merge: Option<(u64, u64)>, // (interior, bounded)
    /// Streams popped per fire as `(stream, tokens)`, ascending by stream
    /// (a stream listed k times — e.g. by an unrolled compute body —
    /// needs k tokens).
    reads: Vec<(usize, usize)>,
    /// Streams pushed per fire, likewise.
    writes: Vec<(usize, usize)>,
}

/// `streams` as a sorted multiset of `(stream, occurrences)`.
fn multiset(streams: &[usize]) -> Vec<(usize, usize)> {
    let mut sorted = streams.to_vec();
    sorted.sort_unstable();
    let mut counted: Vec<(usize, usize)> = Vec::new();
    for s in sorted {
        match counted.last_mut() {
            Some((last, k)) if *last == s => *k += 1,
            _ => counted.push((s, 1)),
        }
    }
    counted
}

impl StageState {
    fn new(stage: &Stage, wiring: &StageWiring) -> Self {
        let (remaining, ii, shift, merge) = match stage {
            Stage::Load {
                elements_per_field, ..
            } => (*elements_per_field, 1, None, None),
            Stage::Shift {
                register_len,
                elements,
                windows,
            } => (
                *elements,
                1,
                Some((*register_len as u64, *elements, *windows)),
                None,
            ),
            Stage::Dup { trips, .. } => (*trips, 1, None, None),
            Stage::Compute { ii, trips, .. } => (*trips, (*ii).max(1) as u64, None, None),
            Stage::Merge {
                interior, bounded, ..
            } => (*bounded, 1, None, Some((*interior, *bounded))),
            Stage::Write {
                elements_per_field, ..
            } => (*elements_per_field, 1, None, None),
        };
        StageState {
            remaining,
            consumed: 0,
            produced: 0,
            ready_at: 0,
            ii,
            shift,
            merge,
            reads: multiset(&wiring.reads),
            writes: multiset(&wiring.writes),
        }
    }

    /// A merge stage pops its result stream only for the interior share of
    /// its emissions; the halo ring comes from memory.
    fn consumes(&self) -> bool {
        match self.merge {
            Some((interior, bounded)) => {
                merge_consumes(self.produced + 1, interior, bounded) > self.consumed
            }
            None => true,
        }
    }

    /// A shift stage may fire without emitting.
    fn emits(&self) -> bool {
        match self.shift {
            Some((register_len, elements, windows)) => {
                shift_emits(self.consumed + 1, register_len, elements, windows) > self.produced
            }
            None => true,
        }
    }

    /// The stage just fired as `(consumes, emits)` and did not finish: for
    /// how many more fires in a row do both flags stay as they were and
    /// the stage stay unfinished?
    fn repeatable_fires(&self, consumes: bool, emits: bool) -> u64 {
        let mut run = self.remaining - 1;
        if let Some((register_len, elements, windows)) = self.shift {
            let span = elements.saturating_sub(register_len) + 1;
            let gate = (self.consumed, register_len, windows, span);
            run = run.min(gate_run(gate, self.produced, emits));
        }
        if let Some((interior, bounded)) = self.merge {
            let gate = (self.produced, 1, interior, bounded);
            run = run.min(gate_run(gate, self.consumed, consumes));
        }
        run
    }
}

/// What a stage did in the cycle just stepped.
#[derive(Clone, Copy)]
enum Decision {
    /// Finished, or waiting out its initiation interval.
    Idle,
    Fired {
        consumes: bool,
        emits: bool,
    },
    StalledEmpty,
    StalledFull,
}

/// Simulate `design` cycle by cycle with the declared FIFO depths
/// (`depth_override` replaces every depth when given). The simulation is
/// deterministic: stages fire in program order within a cycle, consuming
/// the FIFO states left by the previous cycle (writes become visible the
/// next cycle, like registered FIFO outputs).
///
/// A cycle that leaves every FIFO level unchanged, finishes no stage and
/// fires only II-1 stages hands the next cycle the inputs it had itself,
/// so the next cycle takes the same decisions, stage for stage, until a
/// shift's emit gate or a merge's consume gate flips, a stage is about to
/// finish, or the budget runs out. The engine computes the length of that
/// run in closed form and adds it to the counters instead of stepping it;
/// the report is the one stepping every cycle gives
/// ([`CycleReport::stepped_cycles`] aside).
///
/// A run that exceeds the cycle budget without every stage finishing is
/// deadlocked (no legal design needs that many cycles); instead of
/// panicking, the engine returns a [`DeadlockReport`] naming each blocked
/// stage, the stream it is blocked on, and how many cycles each stream
/// spent back-pressuring its producer.
///
/// # Panics
///
/// If the design has no [`DesignDescriptor::stream_ends`] — descriptors
/// from [`DesignDescriptor::from_hls_func`] always do. A stream nobody
/// pops, or nobody pushes, is simulated: that is a deadlock to report.
pub fn simulate(
    design: &DesignDescriptor,
    depth_override: Option<usize>,
) -> Result<CycleReport, Box<DeadlockReport>> {
    simulate_with(design, depth_override, true)
}

/// [`simulate`] with every cycle stepped and none jumped: the oracle the
/// jumps are tested against.
#[doc(hidden)]
pub fn simulate_stepped(
    design: &DesignDescriptor,
    depth_override: Option<usize>,
) -> Result<CycleReport, Box<DeadlockReport>> {
    simulate_with(design, depth_override, false)
}

fn simulate_with(
    design: &DesignDescriptor,
    depth_override: Option<usize>,
    jump: bool,
) -> Result<CycleReport, Box<DeadlockReport>> {
    if let Err(e) = design.stream_ends() {
        panic!("cannot simulate `{}`: {e}", design.name);
    }
    Sim::new(design, depth_override).run(jump)
}

/// One simulation's state between cycles.
struct Sim<'d> {
    design: &'d DesignDescriptor,
    fifo_cap: Vec<usize>,
    /// Fires see `visible`, last cycle's levels, and move `fifo_len`.
    fifo_len: Vec<usize>,
    visible: Vec<usize>,
    states: Vec<StageState>,
    /// What each stage did in the cycle just stepped.
    decisions: Vec<Decision>,
    report: CycleReport,
    /// Per-stream back-pressure accounting: cycles a producer spent
    /// unable to push because this stream was full.
    stream_full_stalls: Vec<u64>,
    /// Safety valve: no legal design needs this many cycles.
    budget: u64,
}

impl<'d> Sim<'d> {
    fn new(design: &'d DesignDescriptor, depth_override: Option<usize>) -> Self {
        let n_stages = design.stages.len();
        let states: Vec<StageState> = design
            .stages
            .iter()
            .zip(&design.wiring)
            .map(|(stage, wiring)| StageState::new(stage, wiring))
            .collect();
        Sim {
            design,
            fifo_cap: design
                .streams
                .iter()
                .map(|s| depth_override.unwrap_or(s.depth.max(1) as usize))
                .collect(),
            fifo_len: vec![0; design.streams.len()],
            visible: vec![0; design.streams.len()],
            budget: 64 + 4 * states.iter().map(|s| s.remaining * s.ii).sum::<u64>(),
            states,
            decisions: vec![Decision::Idle; n_stages],
            report: CycleReport {
                cycles: 0,
                fires: vec![0; n_stages],
                stalled_empty: vec![0; n_stages],
                stalled_full: vec![0; n_stages],
                done_at: vec![0; n_stages],
                stepped_cycles: 0,
            },
            stream_full_stalls: vec![0; design.streams.len()],
        }
    }

    /// Step cycles until every stage finished, jumping stationary runs
    /// when `jump` is set.
    fn run(mut self, jump: bool) -> Result<CycleReport, Box<DeadlockReport>> {
        let mut live = self.states.iter().filter(|s| s.remaining > 0).count();
        let mut cycle: u64 = 0;
        while live > 0 {
            cycle += 1;
            if cycle >= self.budget {
                return Err(Box::new(diagnose(
                    self.design,
                    &self.states,
                    &self.fifo_len,
                    &self.fifo_cap,
                    &self.stream_full_stalls,
                    cycle,
                )));
            }
            self.report.stepped_cycles += 1;
            self.visible.copy_from_slice(&self.fifo_len);
            let (visible, fifo_cap) = (&self.visible, &self.fifo_cap);
            let report = &mut self.report;
            // Can the next cycle differ from this one only through a gate?
            let mut repeats = jump;
            for (i, state) in self.states.iter_mut().enumerate() {
                self.decisions[i] = Decision::Idle;
                if state.remaining == 0 {
                    continue;
                }
                if state.ready_at > cycle {
                    repeats = false;
                    continue;
                }
                let consumes = state.consumes();
                if consumes && state.reads.iter().any(|&(s, k)| visible[s] < k) {
                    report.stalled_empty[i] += 1;
                    self.decisions[i] = Decision::StalledEmpty;
                    continue;
                }
                let emits = state.emits();
                let full = |w: &(usize, usize)| overflows(visible, fifo_cap, w);
                if emits && state.writes.iter().any(full) {
                    report.stalled_full[i] += 1;
                    for &(s, _) in state.writes.iter().filter(|w| full(w)) {
                        self.stream_full_stalls[s] += 1;
                    }
                    self.decisions[i] = Decision::StalledFull;
                    continue;
                }
                // Fire. `stream_ends` gave each stream one reading stage,
                // so the tokens seen in `visible` are still there to pop.
                if consumes {
                    for &(s, k) in &state.reads {
                        self.fifo_len[s] -= k;
                    }
                    state.consumed += 1;
                }
                if emits {
                    for &(s, k) in &state.writes {
                        self.fifo_len[s] += k;
                    }
                    state.produced += 1;
                }
                state.remaining -= 1;
                state.ready_at = cycle + state.ii;
                report.fires[i] += 1;
                self.decisions[i] = Decision::Fired { consumes, emits };
                if state.remaining == 0 {
                    report.done_at[i] = cycle;
                    live -= 1;
                }
                repeats &= state.remaining > 0 && state.ii == 1;
            }
            if repeats && self.fifo_len == self.visible {
                cycle += self.stationary_run(cycle);
            }
        }
        self.report.cycles = cycle;
        Ok(self.report)
    }

    /// `cycle` left the design stationary: every following cycle repeats
    /// it until a firing stage's gate flips or it is one fire from
    /// finishing. Count that run of cycles at once and return its length.
    /// With nothing firing the design is stuck, and the run is the
    /// budget's.
    fn stationary_run(&mut self, cycle: u64) -> u64 {
        let fired = self.states.iter().zip(&self.decisions);
        let fired = fired.filter_map(|(s, d)| match *d {
            Decision::Fired { consumes, emits } => Some(s.repeatable_fires(consumes, emits)),
            _ => None,
        });
        let run = fired.min().unwrap_or(u64::MAX).min(self.budget - 1 - cycle);
        let report = &mut self.report;
        for (i, (state, decision)) in self.states.iter_mut().zip(&self.decisions).enumerate() {
            match *decision {
                Decision::Idle => {}
                Decision::Fired { consumes, emits } => {
                    state.remaining -= run;
                    state.consumed += if consumes { run } else { 0 };
                    state.produced += if emits { run } else { 0 };
                    report.fires[i] += run;
                }
                Decision::StalledEmpty => report.stalled_empty[i] += run,
                Decision::StalledFull => {
                    report.stalled_full[i] += run;
                    for w in &state.writes {
                        if overflows(&self.visible, &self.fifo_cap, w) {
                            self.stream_full_stalls[w.0] += run;
                        }
                    }
                }
            }
        }
        run
    }
}

/// Would pushing `(stream, tokens)` overfill the stream?
fn overflows(fifo_len: &[usize], fifo_cap: &[usize], &(s, k): &(usize, usize)) -> bool {
    fifo_len[s] + k > fifo_cap[s]
}

/// Snapshot every stage's state and every FIFO's occupancy for a run that
/// exceeded its cycle budget.
fn diagnose(
    design: &DesignDescriptor,
    states: &[StageState],
    fifo_len: &[usize],
    fifo_cap: &[usize],
    stream_full_stalls: &[u64],
    cycle: u64,
) -> DeadlockReport {
    let stages = states
        .iter()
        .enumerate()
        .map(|(i, state)| {
            let stage = design.stages[i].label(i);
            let status = if state.remaining == 0 {
                StageStatus::Finished
            } else {
                // Re-evaluate the fire conditions against the final FIFO
                // state: a starved input wins over a full output (the stage
                // checks inputs first), matching the per-cycle logic.
                let starved = state.reads.iter().find(|&&(s, k)| fifo_len[s] < k);
                let full = state
                    .writes
                    .iter()
                    .find(|w| overflows(fifo_len, fifo_cap, w));
                match (starved, full) {
                    (Some(&(s, _)), _) => StageStatus::BlockedOnPop { stream: s },
                    (None, Some(&(s, _))) => StageStatus::BlockedOnPush { stream: s },
                    (None, None) => StageStatus::Running,
                }
            };
            StageSnapshot { stage, status }
        })
        .collect();
    let streams = fifo_len
        .iter()
        .enumerate()
        .map(|(s, &occupancy)| StreamSnapshot {
            stream: s,
            occupancy,
            depth: fifo_cap[s],
            full_stall_cycles: Some(stream_full_stalls[s]),
        })
        .collect();
    DeadlockReport {
        stages,
        streams,
        cycles: Some(cycle),
    }
}

/// How many result-stream tokens a merge stage must have popped after
/// emitting `produced` of its `bounded` elements: the `interior` pops are
/// spread uniformly over the emissions (the exact interleaving depends on
/// where the halo ring falls in the iteration order — uniform spread is
/// the same cycle-approximation the shift gate makes).
fn merge_consumes(produced: u64, interior: u64, bounded: u64) -> u64 {
    if bounded == 0 {
        return 0;
    }
    spread(produced, interior, bounded)
}

/// How many windows are emittable after `consumed` elements: none during
/// the `register_len` warm-up, then the remaining consumption is spread
/// uniformly over the `windows` emissions (the halo rows/planes create the
/// gap between `elements` and `register_len + windows - 1`; spreading them
/// uniformly is the "approximate" in cycle-approximate).
fn shift_emits(consumed: u64, register_len: u64, elements: u64, windows: u64) -> u64 {
    if windows == 0 || consumed < register_len {
        return 0;
    }
    let span = elements.saturating_sub(register_len) + 1;
    let progressed = consumed - register_len + 1;
    spread(progressed, windows, span)
}

/// `⌊progress · num / den⌋`, exact; 64-bit division when the product fits
/// (at 134M points it is below 2⁵⁵), which the per-cycle gates feel.
fn spread(progress: u64, num: u64, den: u64) -> u64 {
    match progress.checked_mul(num) {
        Some(product) => product / den,
        None => (progress as u128 * num as u128 / den as u128) as u64,
    }
}

/// Both gates have one shape: after `fires` fires, `⌊(fires + 1 − lead) ·
/// num / den⌋` gated events are due (none while `fires < lead`), and a
/// fire carries one exactly when more are due after it than the `done`
/// before it — [`shift_emits`] is `(consumed, register_len, windows,
/// span)` gating emissions, [`merge_consumes`] `(produced, 1, interior,
/// bounded)` gating pops. Given the gate `(fires, lead, num, den)` and
/// `done` as they stand after a fire that was `open` (carried an event) or
/// not, the number of following fires that go the same way.
fn gate_run((fires, lead, num, den): (u64, u64, u64, u64), done: u64, open: bool) -> u64 {
    let (num, den, done) = (num as u128, den as u128, done as u128);
    let run = if open {
        // Fire m stays open while (p + m)·num ≥ (done + m)·den, where
        // p·num ≥ done·den already: the slack shrinks den − num a fire.
        if den <= num {
            return u64::MAX;
        }
        let progressed = (fires + 1).saturating_sub(lead) as u128;
        (progressed * num).saturating_sub(done * den) / (den - num)
    } else {
        // Fire m stays shut while (p + m)·num < (done + 1)·den.
        if num == 0 || den == 0 {
            return u64::MAX;
        }
        let last_shut = ((done + 1) * den - 1) / num;
        last_shut
            .saturating_add(lead as u128)
            .saturating_sub(fires as u128 + 1)
    };
    run.min(u64::MAX as u128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{OpMix, StageWiring, StreamDesc};

    /// load → shift → compute → write over a 1D field.
    fn linear_design(n: u64, halo: u64, ii: i64) -> DesignDescriptor {
        let bounded = n + 2 * halo;
        let register_len = (2 * halo + 1) as i64;
        DesignDescriptor {
            name: "linear".into(),
            interior_points: n,
            bounded_points: bounded,
            stages: vec![
                Stage::Load {
                    fields: 1,
                    beats_per_field: bounded.div_ceil(8),
                    elements_per_field: bounded,
                },
                Stage::Shift {
                    register_len,
                    elements: bounded,
                    windows: n,
                },
                Stage::Compute {
                    ii,
                    trips: n,
                    reads: 1,
                    writes: 1,
                    ops: OpMix::default(),
                },
                Stage::Write {
                    fields: 1,
                    beats_per_field: n.div_ceil(8),
                    elements_per_field: n,
                },
            ],
            wiring: vec![
                StageWiring {
                    reads: vec![],
                    writes: vec![0],
                },
                StageWiring {
                    reads: vec![0],
                    writes: vec![1],
                },
                StageWiring {
                    reads: vec![1],
                    writes: vec![2],
                },
                StageWiring {
                    reads: vec![2],
                    writes: vec![],
                },
            ],
            streams: vec![
                StreamDesc {
                    depth: 8,
                    elem_bytes: 8,
                },
                StreamDesc {
                    depth: 8,
                    elem_bytes: 24,
                },
                StreamDesc {
                    depth: 8,
                    elem_bytes: 8,
                },
            ],
            interfaces: vec![("m_axi".into(), "gmem0".into())],
            local_buffer_bytes: vec![],
            init_copy_elements: 0,
        }
    }

    #[test]
    fn ii1_linear_pipeline_is_about_n_cycles() {
        let d = linear_design(1000, 1, 1);
        let r = simulate(&d, None).unwrap();
        // Steady state: one point per cycle, small fill.
        assert!(
            r.cycles >= 1002 && r.cycles < 1100,
            "cycles {} for 1000 points",
            r.cycles
        );
        assert_eq!(r.fires[2], 1000, "compute fires once per point");
        assert_eq!(r.fires[1], 1002, "shift consumes every padded element");
    }

    #[test]
    fn ii_scales_cycles() {
        let fast = simulate(&linear_design(500, 1, 1), None).unwrap();
        let slow = simulate(&linear_design(500, 1, 4), None).unwrap();
        let ratio = slow.cycles as f64 / fast.cycles as f64;
        assert!(
            (3.5..4.5).contains(&ratio),
            "II 4 should be ~4x slower: {ratio} ({} vs {})",
            slow.cycles,
            fast.cycles
        );
        // Back-pressure propagates: the load stage stalls on full FIFOs.
        assert!(slow.stalled_full[0] > 0, "{:?}", slow.stalled_full);
    }

    #[test]
    fn tiny_fifos_still_complete() {
        let d = linear_design(300, 1, 1);
        let deep = simulate(&d, None).unwrap();
        let shallow = simulate(&d, Some(1)).unwrap();
        // Depth-1 FIFOs serialise hand-offs but must not deadlock.
        assert!(shallow.cycles >= deep.cycles);
        assert_eq!(shallow.fires[3], 300);
    }

    #[test]
    fn shift_emit_gate() {
        // 1D: bounded 12, halo 1 → reg 3, windows 10: emissions start at
        // consumed = 3 and end exactly at consumed = elements.
        assert_eq!(shift_emits(2, 3, 12, 10), 0);
        assert!(shift_emits(3, 3, 12, 10) >= 1);
        assert_eq!(shift_emits(12, 3, 12, 10), 10);
        // Monotone.
        let mut last = 0;
        for c in 0..=12 {
            let e = shift_emits(c, 3, 12, 10);
            assert!(e >= last);
            last = e;
        }
    }

    #[test]
    fn dead_producer_reports_backpressured_stream() {
        // A write stage that drains only stream 2 while the compute stage's
        // output stream has no consumer: the compute stream fills, the
        // compute stage blocks pushing, and everything upstream starves.
        let mut d = linear_design(200, 1, 1);
        d.wiring[3].reads = vec![]; // write stage no longer drains stream 2
        let err = simulate(&d, None).unwrap_err();
        assert!(err.cycles.unwrap_or(0) > 0);
        // The compute stage (index 2) must be reported blocked pushing its
        // full output stream (handle 2, depth 8).
        let compute = &err.stages[2];
        assert_eq!(compute.stage, "stage2:compute");
        assert_eq!(
            compute.status,
            crate::deadlock::StageStatus::BlockedOnPush { stream: 2 }
        );
        let s2 = &err.streams[2];
        assert_eq!((s2.occupancy, s2.depth), (8, 8));
        assert!(s2.full_stall_cycles.unwrap() > 0, "{s2:?}");
        // Display names the offenders.
        let text = err.to_string();
        assert!(text.contains("stage2:compute"), "{text}");
        assert!(text.contains("blocked pushing stream 2"), "{text}");
    }

    #[test]
    fn starved_consumer_reports_blocked_pop() {
        // Nothing ever writes stream 0: the shift stage starves forever.
        let mut d = linear_design(50, 1, 1);
        d.wiring[0].writes = vec![]; // load feeds nothing
        let err = simulate(&d, None).unwrap_err();
        let shift = &err.stages[1];
        assert_eq!(
            shift.status,
            crate::deadlock::StageStatus::BlockedOnPop { stream: 0 }
        );
        assert!(err.blocked_stages().count() >= 1);
    }

    /// A degenerate one-stage design with no streams at all: nothing to
    /// block on, so the run must complete and produce a sane report.
    #[test]
    fn single_stage_design_without_streams_completes() {
        let d = DesignDescriptor {
            name: "solo-load".into(),
            interior_points: 16,
            bounded_points: 16,
            stages: vec![Stage::Load {
                fields: 1,
                beats_per_field: 2,
                elements_per_field: 16,
            }],
            wiring: vec![StageWiring {
                reads: vec![],
                writes: vec![],
            }],
            streams: vec![],
            interfaces: vec![],
            local_buffer_bytes: vec![],
            init_copy_elements: 0,
        };
        let r = simulate(&d, None).unwrap();
        assert!(r.cycles > 0);
        assert_eq!(r.fires.len(), 1);
    }

    /// A single stage starving on a producer-less stream: the report must
    /// stay coherent with exactly one stage and one (empty) stream.
    #[test]
    fn single_stage_design_diagnoses_its_own_starvation() {
        let d = DesignDescriptor {
            name: "solo-compute".into(),
            interior_points: 4,
            bounded_points: 4,
            stages: vec![Stage::Compute {
                ii: 1,
                trips: 4,
                reads: 1,
                writes: 0,
                ops: OpMix::default(),
            }],
            wiring: vec![StageWiring {
                reads: vec![0],
                writes: vec![],
            }],
            streams: vec![StreamDesc {
                depth: 4,
                elem_bytes: 8,
            }],
            interfaces: vec![],
            local_buffer_bytes: vec![],
            init_copy_elements: 0,
        };
        let err = simulate(&d, None).unwrap_err();
        assert_eq!(err.stages.len(), 1);
        assert_eq!(
            err.stages[0].status,
            crate::deadlock::StageStatus::BlockedOnPop { stream: 0 }
        );
        assert_eq!(err.blocked_stages().count(), 1);
        assert_eq!(err.full_streams().count(), 0);
        let snap = err.blocked_stream(&err.stages[0]).unwrap();
        assert_eq!((snap.occupancy, snap.depth), (0, 4));
    }

    /// Declared depth 0 is clamped to capacity 1: hand-offs serialise but
    /// the pipeline still drains completely.
    #[test]
    fn zero_depth_streams_clamp_to_one_and_complete() {
        let mut d = linear_design(100, 1, 1);
        for s in &mut d.streams {
            s.depth = 0;
        }
        let r = simulate(&d, None).unwrap();
        assert_eq!(r.fires[3], 100, "write stage must drain every point");
    }

    /// When a zero-depth design does deadlock, the report must show the
    /// *clamped* capacity (1/1 full), not a nonsensical 1/0 occupancy.
    #[test]
    fn zero_depth_stream_reports_clamped_capacity_on_deadlock() {
        let mut d = linear_design(60, 1, 1);
        for s in &mut d.streams {
            s.depth = 0;
        }
        d.wiring[3].reads = vec![]; // kill the consumer of stream 2
        let err = simulate(&d, None).unwrap_err();
        let s2 = &err.streams[2];
        assert_eq!((s2.occupancy, s2.depth), (1, 1));
        assert!(s2.is_full());
        assert_eq!(
            err.stages[2].status,
            crate::deadlock::StageStatus::BlockedOnPush { stream: 2 }
        );
    }

    /// load → compute forking into two output streams, one consumed.
    fn fork_design(n: u64) -> DesignDescriptor {
        DesignDescriptor {
            name: "fork".into(),
            interior_points: n,
            bounded_points: n,
            stages: vec![
                Stage::Load {
                    fields: 1,
                    beats_per_field: n.div_ceil(8),
                    elements_per_field: n,
                },
                Stage::Compute {
                    ii: 1,
                    trips: n,
                    reads: 1,
                    writes: 2,
                    ops: OpMix::default(),
                },
                Stage::Write {
                    fields: 1,
                    beats_per_field: n.div_ceil(8),
                    elements_per_field: n,
                },
            ],
            wiring: vec![
                StageWiring {
                    reads: vec![],
                    writes: vec![0],
                },
                StageWiring {
                    reads: vec![0],
                    writes: vec![1, 2],
                },
                StageWiring {
                    reads: vec![1],
                    writes: vec![],
                },
            ],
            streams: vec![
                StreamDesc {
                    depth: 8,
                    elem_bytes: 8,
                },
                StreamDesc {
                    depth: 8,
                    elem_bytes: 8,
                },
                StreamDesc {
                    depth: 8,
                    elem_bytes: 8,
                },
            ],
            interfaces: vec![],
            local_buffer_bytes: vec![],
            init_copy_elements: 0,
        }
    }

    /// Two candidate output streams, only one actually full: the blame
    /// must land on the full one (stream 2) even though stream 1 has the
    /// lower handle and is checked first.
    #[test]
    fn blame_falls_on_the_actually_full_stream() {
        let d = fork_design(100);
        let err = simulate(&d, None).unwrap_err();
        assert_eq!(
            err.stages[1].status,
            crate::deadlock::StageStatus::BlockedOnPush { stream: 2 }
        );
        let full: Vec<usize> = err.full_streams().map(|s| s.stream).collect();
        assert!(full.contains(&2), "stream 2 must be full: {full:?}");
        assert!(
            !full.contains(&1),
            "stream 1 is drained by the write stage: {full:?}"
        );
        assert!(err.streams[2].full_stall_cycles.unwrap() > 0);
    }

    /// Both output streams full at once: every full stream shows up in the
    /// report, and the blocked push is attributed to a genuinely full one.
    #[test]
    fn two_full_streams_are_both_reported() {
        let mut d = fork_design(80);
        d.wiring[2].reads = vec![]; // now neither compute output drains
        let err = simulate(&d, None).unwrap_err();
        let full: Vec<usize> = err.full_streams().map(|s| s.stream).collect();
        assert!(full.contains(&1) && full.contains(&2), "{full:?}");
        match err.stages[1].status {
            crate::deadlock::StageStatus::BlockedOnPush { stream } => {
                assert!(full.contains(&stream), "blamed non-full stream {stream}")
            }
            ref other => panic!("compute should be push-blocked, got {other:?}"),
        }
    }

    /// Temporal depth 2: load → shift → compute → merge → shift →
    /// compute → write over a 1D field.
    fn temporal_design(n: u64, halo: u64) -> DesignDescriptor {
        let bounded = n + 2 * halo;
        let register_len = (2 * halo + 1) as i64;
        let shift = Stage::Shift {
            register_len,
            elements: bounded,
            windows: n,
        };
        let compute = Stage::Compute {
            ii: 1,
            trips: n,
            reads: 1,
            writes: 1,
            ops: OpMix::default(),
        };
        let stream = |elem_bytes: u64| StreamDesc {
            depth: 8,
            elem_bytes,
        };
        DesignDescriptor {
            name: "temporal".into(),
            interior_points: n,
            bounded_points: bounded,
            stages: vec![
                Stage::Load {
                    fields: 1,
                    beats_per_field: bounded.div_ceil(8),
                    elements_per_field: bounded,
                },
                shift.clone(),
                compute.clone(),
                Stage::Merge {
                    interior: n,
                    bounded,
                    ring: 2 * halo,
                },
                shift,
                compute,
                Stage::Write {
                    fields: 1,
                    beats_per_field: n.div_ceil(8),
                    elements_per_field: n,
                },
            ],
            wiring: vec![
                StageWiring {
                    reads: vec![],
                    writes: vec![0],
                },
                StageWiring {
                    reads: vec![0],
                    writes: vec![1],
                },
                StageWiring {
                    reads: vec![1],
                    writes: vec![2],
                },
                StageWiring {
                    reads: vec![2],
                    writes: vec![3],
                },
                StageWiring {
                    reads: vec![3],
                    writes: vec![4],
                },
                StageWiring {
                    reads: vec![4],
                    writes: vec![5],
                },
                StageWiring {
                    reads: vec![5],
                    writes: vec![],
                },
            ],
            streams: vec![
                stream(8),
                stream(24),
                stream(8),
                stream(8),
                stream(24),
                stream(8),
            ],
            interfaces: vec![("m_axi".into(), "gmem0".into())],
            local_buffer_bytes: vec![],
            init_copy_elements: 0,
        }
    }

    /// A depth-2 chain still streams one point per cycle in steady state:
    /// doubling the temporal depth must NOT double the cycle count — that
    /// is the whole point of temporal blocking.
    #[test]
    fn temporal_chain_pipelines_instead_of_serialising() {
        let single = simulate(&linear_design(1000, 1, 1), None).unwrap();
        let double = simulate(&temporal_design(1000, 1), None).unwrap();
        assert_eq!(double.fires[6], 1000, "write drains every point");
        assert_eq!(double.fires[3], 1002, "merge emits the full bounded box");
        let ratio = double.cycles as f64 / single.cycles as f64;
        assert!(
            ratio < 1.2,
            "depth 2 should cost fill, not a second pass: {} vs {} ({ratio})",
            double.cycles,
            single.cycles
        );
    }

    #[test]
    fn merge_consume_gate() {
        // 1D: bounded 12, interior 10 — pops finish exactly at the end.
        assert_eq!(merge_consumes(0, 10, 12), 0);
        assert_eq!(merge_consumes(12, 10, 12), 10);
        // Monotone, never exceeding interior.
        let mut last = 0;
        for p in 0..=12 {
            let c = merge_consumes(p, 10, 12);
            assert!(c >= last && c <= 10);
            last = c;
        }
        // Degenerate empty box.
        assert_eq!(merge_consumes(5, 0, 12), 0);
        assert_eq!(merge_consumes(0, 0, 0), 0);
    }

    /// The closed-form run length against the definition: replay a gate
    /// fire by fire and, after each, count the following fires that go
    /// the same way.
    #[test]
    fn gate_run_matches_a_scan() {
        let check = |fires_total: u64, lead: u64, num: u64, den: u64, due: &dyn Fn(u64) -> u64| {
            let mut flags = Vec::new();
            let mut done = 0;
            for fired in 0..fires_total {
                flags.push(due(fired + 1) > done);
                done += flags[fired as usize] as u64;
            }
            let mut done = 0;
            for (fired, &open) in flags.iter().enumerate() {
                done += open as u64;
                let scan = flags[fired + 1..]
                    .iter()
                    .take_while(|&&f| f == open)
                    .count() as u64;
                let left = fires_total - (fired as u64 + 1);
                let run = gate_run((fired as u64 + 1, lead, num, den), done, open);
                assert_eq!(
                    run.min(left),
                    scan,
                    "after fire {fired} of {fires_total} (lead {lead}, {num}/{den}, open {open})"
                );
            }
        };
        // Shift gates: 1D (windows == span), 3D-like (windows < span), a
        // long warm-up, no windows at all, more windows than span.
        for (register_len, elements, windows) in [
            (3, 12, 10),
            (7, 60, 23),
            (31, 64, 5),
            (5, 300, 211),
            (3, 20, 0),
            (3, 12, 14),
        ] {
            let span = elements - register_len + 1;
            check(elements, register_len, windows, span, &|consumed| {
                shift_emits(consumed, register_len, elements, windows)
            });
        }
        // Merge gates, incl. nothing to pop and everything to pop.
        for (interior, bounded) in [(10, 12), (64, 216), (0, 12), (12, 12), (1, 50)] {
            check(bounded, 1, interior, bounded, &|produced| {
                merge_consumes(produced, interior, bounded)
            });
        }
    }

    /// The steady state of an II-1 pipeline is jumped, not stepped, and the
    /// report is the stepped one.
    #[test]
    fn stationary_cycles_are_jumped_and_change_nothing() {
        for (design, depth) in [
            (linear_design(5000, 1, 1), None),
            (linear_design(5000, 2, 1), Some(1)),
            (temporal_design(3000, 1), None),
            (linear_design(500, 1, 3), None),
        ] {
            let jumped = simulate(&design, depth).unwrap();
            let stepped = simulate_stepped(&design, depth).unwrap();
            assert_eq!(stepped.stepped_cycles, stepped.cycles);
            assert_eq!(jumped.cycles, stepped.cycles);
            assert_eq!(jumped.fires, stepped.fires);
            assert_eq!(jumped.stalled_empty, stepped.stalled_empty);
            assert_eq!(jumped.stalled_full, stepped.stalled_full);
            assert_eq!(jumped.done_at, stepped.done_at);
        }
        let r = simulate(&linear_design(5000, 1, 1), None).unwrap();
        assert!(
            r.stepped_cycles < 100,
            "{} of {}",
            r.stepped_cycles,
            r.cycles
        );
    }

    /// A stuck design is stationary with nothing firing: one jump takes it
    /// to the budget, with the report the stepped run gives.
    #[test]
    fn a_deadlock_is_reached_in_one_jump() {
        let mut d = linear_design(200, 1, 1);
        d.wiring[3].reads = vec![]; // nothing drains stream 2
        let jumped = simulate(&d, None).unwrap_err();
        assert_eq!(jumped, simulate_stepped(&d, None).unwrap_err());
    }

    /// Two stages popping one stream would take tokens the other had been
    /// promised (a level of −1, which a release build used to report as a
    /// deadlock with 2⁶⁴−1 tokens queued): refused before the first cycle.
    #[test]
    #[should_panic(expected = "stream 1 is read by stage2:compute and by stage3:write")]
    fn a_stream_with_two_readers_is_refused() {
        let mut d = linear_design(100, 1, 1);
        d.wiring[3].reads = vec![1];
        let _ = simulate(&d, None);
    }

    #[test]
    fn report_throughput_helper() {
        let d = linear_design(3000, 1, 1);
        let r = simulate(&d, None).unwrap();
        let device = Device::u280();
        let mpts = r.mpts(d.interior_points, &device);
        // ~300 MPt/s at one point per cycle at 300 MHz.
        assert!(mpts > 270.0 && mpts < 305.0, "{mpts}");
    }
}
