//! Analytic performance model: cycles → seconds → MPt/s.
//!
//! Two entry points:
//!
//! - [`hmls_estimate`] — for Stencil-HMLS designs, driven entirely by the
//!   extracted [`DesignDescriptor`]: all dataflow stages stream
//!   concurrently, so the steady-state makespan is the *maximum* stage
//!   time plus pipeline fill (shift-register warm-up dominates).
//! - [`pipeline_estimate`] — a generic single-pipeline model
//!   parameterised by II, serial stage factor, CU count and memory
//!   behaviour; the comparator frameworks (DaCe, SODA-opt, Vitis HLS,
//!   StencilFlow) are expressed through it with their published
//!   characteristics (see `shmls-baselines`).
//!
//! The model is validated against the cycle counts implied by the
//! functional simulator's stream statistics on small grids (integration
//! tests), and the absolute scale is set by the device clock.

use crate::design::{DesignDescriptor, Stage};
use crate::device::Device;

/// Pipeline fill overhead charged per dataflow stage (FIFOs, FSM, operator
/// latency) in cycles.
pub const STAGE_FILL_CYCLES: u64 = 64;

/// A performance estimate.
#[derive(Debug, Clone)]
pub struct PerfEstimate {
    /// Total kernel cycles (per compute unit, all CUs run concurrently).
    pub cycles: u64,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Throughput in million points per second (the paper's metric).
    pub mpts: f64,
    /// Which stage bounds the makespan.
    pub bottleneck: String,
    /// Steady-state cycles (excluding fill).
    pub steady_cycles: u64,
    /// Fill/drain cycles.
    pub fill_cycles: u64,
}

/// Estimate a Stencil-HMLS dataflow design on `device` replicated over
/// `cus` compute units (domain-decomposed).
pub fn hmls_estimate(design: &DesignDescriptor, device: &Device, cus: u32) -> PerfEstimate {
    assert!(cus >= 1, "at least one compute unit");
    let cus_u64 = cus as u64;
    let bank_rate = device.beats_per_cycle_per_bank();

    let mut steady: u64 = 0;
    let mut bottleneck = String::from("none");
    for (i, stage) in design.stages.iter().enumerate() {
        let cycles = match stage {
            Stage::Load {
                beats_per_field,
                elements_per_field,
                ..
            } => {
                // Each field rides its own AXI port/bank; the element
                // stream side must also feed the shift buffer at one
                // element per cycle.
                let mem = (*beats_per_field as f64 / bank_rate).ceil() as u64;
                mem.max(*elements_per_field).div_ceil(cus_u64)
            }
            // The shift buffer's warm-up is part of streaming its padded
            // elements — it overlaps the load, so it contributes stage
            // time, not extra fill.
            Stage::Shift { elements, .. } => elements.div_ceil(cus_u64),
            Stage::Dup { trips, .. } => trips.div_ceil(cus_u64),
            Stage::Compute { ii, trips, .. } => (trips * (*ii as u64)).div_ceil(cus_u64),
            // The merge emits the full bounded box; its memory side only
            // touches the thin halo ring, so the stream side dominates
            // except for degenerate all-halo boxes.
            Stage::Merge { bounded, ring, .. } => {
                let mem = (ring.div_ceil(8) as f64 / bank_rate).ceil() as u64;
                mem.max(*bounded).div_ceil(cus_u64)
            }
            Stage::Write {
                beats_per_field,
                elements_per_field,
                ..
            } => {
                let mem = (*beats_per_field as f64 / bank_rate).ceil() as u64;
                mem.max(*elements_per_field).div_ceil(cus_u64)
            }
        };
        if cycles > steady {
            steady = cycles;
            bottleneck = format!("{}[{i}]", stage.kind());
        }
    }
    // Fill/drain: one pipeline latency per stage along the longest
    // producer→consumer chain (concurrent siblings overlap).
    let fill: u64 = STAGE_FILL_CYCLES * design.critical_path_stages();
    let cycles = steady + fill;
    let seconds = device.cycles_to_seconds(cycles);
    let mpts = design.interior_points as f64 / seconds / 1.0e6;
    PerfEstimate {
        cycles,
        seconds,
        mpts,
        bottleneck,
        steady_cycles: steady,
        fill_cycles: fill,
    }
}

/// Aggregate estimate for a set of compute units executing concurrently
/// over a domain decomposition (possibly with unequal slab heights).
#[derive(Debug, Clone)]
pub struct ScaleEstimate {
    /// Modelled cycles per compute unit, in CU order.
    pub per_cu_cycles: Vec<u64>,
    /// Concurrent makespan: the slowest CU bounds the step.
    pub makespan_cycles: u64,
    /// Serial-equivalent work: the sum over CUs (what a one-CU device
    /// iterating the slabs would spend).
    pub sum_cycles: u64,
    /// Load imbalance: slowest CU over the mean, `1.0` = perfectly even.
    pub load_imbalance: f64,
}

/// Combine per-CU estimates (one [`hmls_estimate`] per slab design) into
/// a [`ScaleEstimate`] for the concurrent ensemble.
pub fn scale_estimate(per_cu: &[PerfEstimate]) -> ScaleEstimate {
    assert!(!per_cu.is_empty(), "at least one compute unit");
    let per_cu_cycles: Vec<u64> = per_cu.iter().map(|e| e.cycles).collect();
    let makespan_cycles = per_cu_cycles.iter().copied().max().unwrap_or(0);
    let sum_cycles = per_cu_cycles.iter().sum();
    let mean = sum_cycles as f64 / per_cu_cycles.len() as f64;
    let load_imbalance = if mean > 0.0 {
        makespan_cycles as f64 / mean
    } else {
        1.0
    };
    ScaleEstimate {
        per_cu_cycles,
        makespan_cycles,
        sum_cycles,
        load_imbalance,
    }
}

/// External-memory passes a `steps`-step time-march performs at temporal
/// depth `depth`: one sweep advances `depth` timesteps entirely on-chip,
/// so `ceil(steps / depth)` round-trips through external memory remain
/// (the final pass may be a shallower remainder sweep). Depth 0 is
/// clamped to 1 so the model never divides by zero on invalid input.
pub fn external_passes(steps: u64, depth: u64) -> u64 {
    steps.div_ceil(depth.max(1))
}

/// A generic single-pipeline (or fused-dataflow) execution model used for
/// the comparator frameworks.
#[derive(Debug, Clone)]
pub struct PipelineModel {
    /// Total problem points.
    pub points: u64,
    /// Achieved initiation interval of the critical loop.
    pub ii: f64,
    /// Number of *serialised* passes over the data (fused stencil groups
    /// executing back-to-back instead of concurrently).
    pub serial_factor: f64,
    /// Compute units.
    pub cus: u32,
    /// External memory accesses per point (reads + writes).
    pub mem_accesses_per_point: f64,
    /// Elements per memory beat (8 for 512-bit packed f64, 1 for naive
    /// per-element access).
    pub elements_per_beat: f64,
    /// Memory ports usable in parallel.
    pub mem_ports: u32,
    /// Fixed startup overhead in cycles.
    pub startup_cycles: u64,
}

/// Evaluate a [`PipelineModel`] on `device`.
pub fn pipeline_estimate(model: &PipelineModel, device: &Device) -> PerfEstimate {
    assert!(model.cus >= 1);
    let points_per_cu = (model.points as f64 / model.cus as f64).ceil();
    let compute = points_per_cu * model.ii * model.serial_factor;
    let beats = points_per_cu * model.mem_accesses_per_point / model.elements_per_beat.max(1e-9);
    let bank_rate = device.beats_per_cycle_per_bank();
    let mem = beats / (model.mem_ports.max(1) as f64 * bank_rate);
    let steady = compute.max(mem);
    let cycles = steady.ceil() as u64 + model.startup_cycles;
    let seconds = device.cycles_to_seconds(cycles);
    let mpts = model.points as f64 / seconds / 1.0e6;
    PerfEstimate {
        cycles,
        seconds,
        mpts,
        bottleneck: if compute >= mem {
            "compute".into()
        } else {
            "memory".into()
        },
        steady_cycles: steady.ceil() as u64,
        fill_cycles: model.startup_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{OpMix, StageWiring, StreamDesc};

    #[test]
    fn external_passes_ceil_and_clamp() {
        assert_eq!(external_passes(8, 1), 8);
        assert_eq!(external_passes(8, 4), 2);
        assert_eq!(external_passes(5, 4), 2); // remainder sweep still a pass
        assert_eq!(external_passes(1, 4), 1); // depth > steps: one shallow sweep
        assert_eq!(external_passes(8, 0), 8); // invalid depth clamps, no div-by-zero
    }

    fn toy_design(points: u64, bounded: u64) -> DesignDescriptor {
        DesignDescriptor {
            name: "toy".into(),
            interior_points: points,
            bounded_points: bounded,
            stages: vec![
                Stage::Load {
                    fields: 1,
                    beats_per_field: bounded.div_ceil(8),
                    elements_per_field: bounded,
                },
                Stage::Shift {
                    register_len: 100,
                    elements: bounded,
                    windows: points,
                },
                Stage::Compute {
                    ii: 1,
                    trips: points,
                    reads: 1,
                    writes: 1,
                    ops: OpMix {
                        fadd: 4,
                        fmul: 2,
                        ..Default::default()
                    },
                },
                Stage::Write {
                    fields: 1,
                    beats_per_field: points.div_ceil(8),
                    elements_per_field: points,
                },
            ],
            streams: vec![
                StreamDesc {
                    depth: 8,
                    elem_bytes: 8,
                };
                3
            ],
            // A chain: stage i pushes stream i, stage i + 1 pops it.
            wiring: (0..4)
                .map(|i| StageWiring {
                    reads: (i > 0).then(|| i - 1).into_iter().collect(),
                    writes: (i < 3).then_some(i).into_iter().collect(),
                })
                .collect(),
            interfaces: vec![("m_axi".into(), "gmem0".into())],
            local_buffer_bytes: vec![],
            init_copy_elements: 0,
        }
    }

    #[test]
    fn ii1_design_is_about_one_point_per_cycle() {
        let device = Device::u280();
        let d = toy_design(1_000_000, 1_030_301);
        let e = hmls_estimate(&d, &device, 1);
        // Steady state bound by the shift stage streaming the padded field.
        assert!(
            e.bottleneck.starts_with("load") || e.bottleneck.starts_with("shift"),
            "{e:?}"
        );
        let points_per_cycle = d.interior_points as f64 / e.cycles as f64;
        assert!(
            points_per_cycle > 0.9 && points_per_cycle <= 1.0,
            "{points_per_cycle}"
        );
        // ~300 MPt/s at 300 MHz.
        assert!(e.mpts > 270.0 && e.mpts < 300.0, "{}", e.mpts);
    }

    #[test]
    fn cu_replication_scales_throughput() {
        let device = Device::u280();
        let d = toy_design(8_000_000, 8_120_601);
        let one = hmls_estimate(&d, &device, 1);
        let four = hmls_estimate(&d, &device, 4);
        let speedup = four.mpts / one.mpts;
        assert!(speedup > 3.5 && speedup <= 4.1, "speedup {speedup}");
    }

    #[test]
    fn fill_is_critical_path_latency() {
        let device = Device::u280();
        let d = toy_design(1000, 1331);
        let e = hmls_estimate(&d, &device, 1);
        // Four stages in a chain: 4 × STAGE_FILL_CYCLES.
        assert_eq!(e.fill_cycles, 4 * STAGE_FILL_CYCLES);
        assert_eq!(e.cycles, e.steady_cycles + e.fill_cycles);
    }

    #[test]
    fn scale_estimate_aggregates_uneven_slabs() {
        let device = Device::u280();
        // 7 rows over 2 CUs: slabs of 4 and 3 rows — uneven by design.
        let tall = hmls_estimate(&toy_design(4_000, 4_840), &device, 1);
        let short = hmls_estimate(&toy_design(3_000, 3_630), &device, 1);
        let s = scale_estimate(&[tall.clone(), short.clone()]);
        assert_eq!(s.per_cu_cycles, vec![tall.cycles, short.cycles]);
        assert_eq!(s.makespan_cycles, tall.cycles.max(short.cycles));
        assert_eq!(s.sum_cycles, tall.cycles + short.cycles);
        assert!(s.load_imbalance >= 1.0, "{}", s.load_imbalance);
        // Even slabs: imbalance collapses to exactly 1.
        let even = scale_estimate(&[tall.clone(), tall]);
        assert!((even.load_imbalance - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pipeline_model_ii_scaling() {
        let device = Device::u280();
        let base = PipelineModel {
            points: 1_000_000,
            ii: 1.0,
            serial_factor: 1.0,
            cus: 1,
            mem_accesses_per_point: 2.0,
            elements_per_beat: 8.0,
            mem_ports: 2,
            startup_cycles: 0,
        };
        let fast = pipeline_estimate(&base, &device);
        let slow = pipeline_estimate(
            &PipelineModel {
                ii: 9.0,
                ..base.clone()
            },
            &device,
        );
        let ratio = fast.mpts / slow.mpts;
        assert!((ratio - 9.0).abs() < 0.5, "ratio {ratio}");
    }

    #[test]
    fn von_neumann_memory_bound() {
        let device = Device::u280();
        // Per-element accesses through one port: memory becomes the
        // bottleneck even at a nominal II of 1.
        let m = PipelineModel {
            points: 1_000_000,
            ii: 1.0,
            serial_factor: 1.0,
            cus: 1,
            mem_accesses_per_point: 7.0,
            elements_per_beat: 1.0,
            mem_ports: 1,
            startup_cycles: 0,
        };
        let e = pipeline_estimate(&m, &device);
        assert_eq!(e.bottleneck, "memory");
        assert!(e.mpts < 50.0, "{}", e.mpts);
    }
}
