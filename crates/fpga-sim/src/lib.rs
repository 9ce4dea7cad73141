//! # shmls-fpga-sim — the Alveo U280 substitute
//!
//! A cycle-approximate dataflow FPGA simulator standing in for the paper's
//! hardware: bounded FIFO streams, concurrently scheduled dataflow stages,
//! HBM banks behind AXI ports, BRAM-resident local buffers, and calibrated
//! resource / performance / power models.
//!
//! Layers:
//!
//! - [`deadlock`] — structured stall diagnosis ([`deadlock::DeadlockReport`])
//!   shared by the threaded and cycle engines.
//! - [`threaded`] — the dataflow executor: one stage loop over one FIFO
//!   transport, run sequentially in program order (unbounded FIFOs, the
//!   functional reference) or one thread per stage (FIFOs bounded at
//!   their declared depth, deadlock detection).
//! - [`executor`] — the paper's linked runtime functions (`load_data`,
//!   `shift_buffer`, `halo_merge`, `write_data`, `copy_small_data`) over
//!   any stream transport.
//! - [`stageplan`] — bytecode compilation of dataflow stage bodies, so
//!   the threaded schedule executes compute/dup stages as flat register
//!   programs instead of re-entering the tree-walking interpreter per
//!   element (the interpreter stays the oracle and the fallback).
//! - [`cycle`] — cycle-stepped token-level Kahn simulation used to
//!   validate the analytic model against FIFO dynamics.
//! - [`design`] — extraction of a [`design::DesignDescriptor`] from
//!   HLS-dialect IR: the structural facts the models and the cycle engine
//!   consume, read once per compile and checked to be a well-formed
//!   stream graph; the one source of stage names.
//! - [`memory`] — HBM bank connectivity (Vitis-style `.cfg` generation)
//!   under the device's bank budget.
//! - [`device`] — the Alveo U280 description and calibration constants.
//! - [`perf`] — the analytic cycle/throughput model.
//! - [`resources`] — LUT/FF/BRAM/DSP estimation (Tables 1 and 2).
//! - [`power`] — power draw and energy (Figures 5 and 6).

#![warn(missing_docs)]

pub mod cycle;
pub mod deadlock;
pub mod design;
pub mod device;
pub mod executor;
pub mod memory;
pub mod perf;
pub mod power;
pub mod resources;
pub mod stageplan;
pub mod threaded;

/// The FIFO transport every schedule streams through ([`threaded`]'s
/// channels), driven from one stage's side.
#[cfg(test)]
mod stream {
    mod tests {
        use std::sync::Arc;

        use shmls_ir::interp::RtValue;

        use crate::executor::StreamIo;
        use crate::threaded::{ChannelIo, ChannelTable, Schedule};

        #[test]
        fn fifo_order_and_stats() {
            let table = ChannelTable::new(Schedule::Sequential);
            let s = table.create(4);
            let mut io = ChannelIo::new(Arc::clone(&table));
            let occupancy = || table.snapshot()[s].occupancy;
            assert_eq!(occupancy(), 0);
            for i in 0..3 {
                io.push(s, RtValue::I64(i)).unwrap();
            }
            assert_eq!(occupancy(), 3);
            assert_eq!(io.pop(s).unwrap(), RtValue::I64(0));
            assert_eq!(io.pop(s).unwrap(), RtValue::I64(1));
            io.push(s, RtValue::I64(3)).unwrap();
            assert_eq!(io.pop(s).unwrap(), RtValue::I64(2));
            assert_eq!(io.pop(s).unwrap(), RtValue::I64(3));
            let stall = io.pop(s).unwrap_err().to_string();
            assert!(stall.contains("BlockedOnPop { stream: 0 }"), "{stall}");
            assert_eq!(occupancy(), 0);
            assert_eq!(table.pushed(), [4]);
        }

        /// The sequential schedule's FIFOs hold whatever is pushed,
        /// however far past their declared depth.
        #[test]
        fn unbounded_ignores_depth() {
            let table = ChannelTable::new(Schedule::Sequential);
            let s = table.create(2);
            let mut io = ChannelIo::new(Arc::clone(&table));
            for i in 0..100 {
                io.push(s, RtValue::I64(i)).unwrap();
            }
            assert_eq!(table.snapshot()[s].occupancy, 100);
            assert_eq!(table.snapshot()[s].depth, 2);
            assert_eq!(table.pushed(), [100]);
        }

        #[test]
        fn table_create_and_stats() {
            let table = ChannelTable::new(Schedule::Sequential);
            let a = table.create(8);
            let b = table.create(2);
            assert_ne!(a, b);
            let mut io = ChannelIo::new(Arc::clone(&table));
            io.push(a, RtValue::F64(0.0)).unwrap();
            io.push(a, RtValue::F64(0.0)).unwrap();
            io.push(b, RtValue::F64(0.0)).unwrap();
            let snapshot = table.snapshot();
            let occupancy: Vec<usize> = snapshot.iter().map(|s| s.occupancy).collect();
            let depths: Vec<usize> = snapshot.iter().map(|s| s.depth).collect();
            assert_eq!((occupancy, depths), (vec![2, 1], vec![8, 2]));
            assert_eq!(table.pushed(), [2, 1]);
        }
    }
}
