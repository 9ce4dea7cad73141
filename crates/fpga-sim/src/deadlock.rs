//! Structured deadlock diagnosis shared by the execution engines.
//!
//! When a bounded-FIFO run stalls (the StencilFlow failure mode the paper
//! cites: runs that "did not complete their execution under 10 minutes, a
//! likely indicator of deadlock"), the engines no longer report a bare
//! timeout: they snapshot every stage's state (blocked on a push, blocked
//! on a pop, finished) and every FIFO's occupancy against its declared
//! depth, so the offending stream and stage can be read straight off the
//! report.

use std::fmt;

/// What a stage was doing when the run was declared deadlocked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageStatus {
    /// The stage ran to completion.
    Finished,
    /// The stage was blocked pushing into a full stream.
    BlockedOnPush {
        /// Stream handle (creation order).
        stream: usize,
    },
    /// The stage was blocked popping from an empty stream.
    BlockedOnPop {
        /// Stream handle (creation order).
        stream: usize,
    },
    /// The stage had not finished but was not blocked on a stream when the
    /// snapshot was taken (e.g. it was still mid-computation).
    Running,
}

/// One stage's state at deadlock time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSnapshot {
    /// Stage label ([`Stage::label`](crate::design::Stage::label), e.g.
    /// `stage2:compute`).
    pub stage: String,
    /// What the stage was doing.
    pub status: StageStatus,
}

/// One FIFO's state at deadlock time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamSnapshot {
    /// Stream handle (creation order).
    pub stream: usize,
    /// Elements queued when the snapshot was taken.
    pub occupancy: usize,
    /// Declared FIFO depth.
    pub depth: usize,
    /// Cycles the stream spent back-pressuring a producer (cycle engine
    /// only; the threaded engine has no cycle clock).
    pub full_stall_cycles: Option<u64>,
}

impl StreamSnapshot {
    /// True when the FIFO was at capacity.
    pub fn is_full(&self) -> bool {
        self.occupancy >= self.depth
    }
}

/// A full deadlock diagnosis: every stage's state and every FIFO's
/// occupancy versus declared depth.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DeadlockReport {
    /// Per-stage state, program order.
    pub stages: Vec<StageSnapshot>,
    /// Per-FIFO state, creation order.
    pub streams: Vec<StreamSnapshot>,
    /// Simulated cycles elapsed before the run was declared stuck (cycle
    /// engine only).
    pub cycles: Option<u64>,
}

impl DeadlockReport {
    /// The stages blocked on a stream operation.
    pub fn blocked_stages(&self) -> impl Iterator<Item = &StageSnapshot> {
        self.stages.iter().filter(|s| {
            matches!(
                s.status,
                StageStatus::BlockedOnPush { .. } | StageStatus::BlockedOnPop { .. }
            )
        })
    }

    /// The streams at capacity (back-pressuring their producers).
    pub fn full_streams(&self) -> impl Iterator<Item = &StreamSnapshot> {
        self.streams.iter().filter(|s| s.is_full())
    }

    /// The stream a stage is blocked on, if any.
    pub fn blocked_stream(&self, stage: &StageSnapshot) -> Option<&StreamSnapshot> {
        let handle = match stage.status {
            StageStatus::BlockedOnPush { stream } | StageStatus::BlockedOnPop { stream } => stream,
            _ => return None,
        };
        self.streams.iter().find(|s| s.stream == handle)
    }
}

impl fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "dataflow deadlock:")?;
        for s in &self.stages {
            match &s.status {
                StageStatus::Finished => writeln!(f, "  {}: finished", s.stage)?,
                StageStatus::Running => writeln!(f, "  {}: running (not blocked)", s.stage)?,
                StageStatus::BlockedOnPush { stream } => {
                    let occ = self
                        .streams
                        .iter()
                        .find(|t| t.stream == *stream)
                        .map(|t| format!(" ({}/{} full)", t.occupancy, t.depth))
                        .unwrap_or_default();
                    writeln!(f, "  {}: blocked pushing stream {stream}{occ}", s.stage)?;
                }
                StageStatus::BlockedOnPop { stream } => {
                    let occ = self
                        .streams
                        .iter()
                        .find(|t| t.stream == *stream)
                        .map(|t| format!(" ({}/{} queued)", t.occupancy, t.depth))
                        .unwrap_or_default();
                    writeln!(f, "  {}: blocked popping stream {stream}{occ}", s.stage)?;
                }
            }
        }
        for t in &self.streams {
            write!(f, "  stream {}: {}/{}", t.stream, t.occupancy, t.depth)?;
            if let Some(c) = t.full_stall_cycles {
                if c > 0 {
                    write!(f, " (back-pressured {c} cycles)")?;
                }
            }
            writeln!(f)?;
        }
        if let Some(c) = self.cycles {
            writeln!(f, "  declared stuck after {c} cycles")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DeadlockReport {
        DeadlockReport {
            stages: vec![
                StageSnapshot {
                    stage: "stage0:load".into(),
                    status: StageStatus::Finished,
                },
                StageSnapshot {
                    stage: "stage1:compute".into(),
                    status: StageStatus::BlockedOnPush { stream: 2 },
                },
                StageSnapshot {
                    stage: "stage2:write".into(),
                    status: StageStatus::BlockedOnPop { stream: 3 },
                },
            ],
            streams: vec![
                StreamSnapshot {
                    stream: 2,
                    occupancy: 8,
                    depth: 8,
                    full_stall_cycles: Some(40),
                },
                StreamSnapshot {
                    stream: 3,
                    occupancy: 0,
                    depth: 8,
                    full_stall_cycles: None,
                },
            ],
            cycles: Some(1234),
        }
    }

    #[test]
    fn accessors_pick_out_blocked_state() {
        let r = sample();
        let blocked: Vec<_> = r.blocked_stages().collect();
        assert_eq!(blocked.len(), 2);
        let full: Vec<_> = r.full_streams().collect();
        assert_eq!(full.len(), 1);
        assert_eq!(full[0].stream, 2);
        let s = r.blocked_stream(blocked[0]).unwrap();
        assert!(s.is_full());
    }

    /// A report for a one-stage design must be coherent: the only stage's
    /// blocked stream resolves, and nothing else is implicated.
    #[test]
    fn single_stage_report_is_coherent() {
        let r = DeadlockReport {
            stages: vec![StageSnapshot {
                stage: "stage0:compute".into(),
                status: StageStatus::BlockedOnPop { stream: 0 },
            }],
            streams: vec![StreamSnapshot {
                stream: 0,
                occupancy: 0,
                depth: 4,
                full_stall_cycles: None,
            }],
            cycles: None,
        };
        assert_eq!(r.blocked_stages().count(), 1);
        assert_eq!(r.full_streams().count(), 0);
        let s = r.blocked_stream(&r.stages[0]).unwrap();
        assert_eq!(s.stream, 0);
        let text = r.to_string();
        assert!(
            text.contains("blocked popping stream 0 (0/4 queued)"),
            "{text}"
        );
    }

    /// Declared depth 0 means the stream can never hold anything: by the
    /// `occupancy >= depth` rule it counts as full even when empty, so a
    /// producer push-blocked on it is always accounted for. (The engines
    /// clamp executable capacity to 1, but a report built from declared
    /// depths must not divide blame by zero.)
    #[test]
    fn zero_depth_stream_is_always_full() {
        let s = StreamSnapshot {
            stream: 7,
            occupancy: 0,
            depth: 0,
            full_stall_cycles: Some(0),
        };
        assert!(s.is_full());
        let r = DeadlockReport {
            stages: vec![StageSnapshot {
                stage: "stage0:load".into(),
                status: StageStatus::BlockedOnPush { stream: 7 },
            }],
            streams: vec![s],
            cycles: Some(1),
        };
        assert_eq!(r.full_streams().count(), 1);
        assert!(r.to_string().contains("0/0"), "{r}");
    }

    #[test]
    fn display_names_stage_and_stream() {
        let text = sample().to_string();
        assert!(text.contains("stage1:compute"), "{text}");
        assert!(text.contains("blocked pushing stream 2"), "{text}");
        assert!(text.contains("8/8"), "{text}");
        assert!(text.contains("back-pressured 40 cycles"), "{text}");
        assert!(text.contains("1234 cycles"), "{text}");
    }
}
