//! # shmls-fpga-sim — the Alveo U280 substitute
//!
//! A cycle-approximate dataflow FPGA simulator standing in for the paper's
//! hardware: bounded FIFO streams, concurrently scheduled dataflow stages,
//! HBM banks behind AXI ports, BRAM-resident local buffers, and calibrated
//! resource / performance / power models.
//!
//! Layers:
//!
//! - [`stream`] — FIFO semantics with back-pressure and statistics.
//! - [`deadlock`] — structured stall diagnosis ([`deadlock::DeadlockReport`])
//!   shared by the threaded and cycle engines.
//! - [`executor`] — functional execution of HLS-dialect kernels
//!   (sequential Kahn engine + the paper's linked runtime functions).
//! - [`threaded`] — true concurrent execution with bounded FIFOs and
//!   deadlock detection (one thread per dataflow stage).
//! - [`stageplan`] — bytecode compilation of dataflow stage bodies, so
//!   the threaded engine executes compute/dup stages as flat register
//!   programs instead of re-entering the tree-walking interpreter per
//!   element (the interpreter stays the oracle and the fallback).
//! - [`cycle`] — cycle-stepped token-level Kahn simulation used to
//!   validate the analytic model against FIFO dynamics.
//! - [`design`] — extraction of a [`design::DesignDescriptor`] from
//!   HLS-dialect IR: the structural facts the models and the cycle engine
//!   consume, read once per compile and checked to be a well-formed
//!   stream graph; the one source of stage names.
//! - [`memory`] — HBM bank connectivity (Vitis-style `.cfg` generation)
//!   and round-robin contention modelling.
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
pub mod stream;
pub mod threaded;
