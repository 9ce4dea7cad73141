//! Resource estimation: LUT / FF / BRAM / DSP usage of a design
//! (reproducing the shape of Tables 1 and 2).
//!
//! The estimator prices each compute operator as a dedicated hardware
//! instance (dataflow stages are spatially replicated, never shared),
//! sizes shift registers / FIFOs / local copies into BRAM36 blocks, and
//! charges infrastructure per AXI port, per stream and per stage. The
//! per-operator cost table lives in [`crate::device::CostTable`].

use shmls_ir::json::Json;

use crate::design::{DesignDescriptor, Stage};
use crate::device::{CostTable, Device};

/// Bytes of one BRAM36 block (36 Kbit).
pub const BRAM36_BYTES: u64 = 4608;
/// Bytes of one UltraRAM block (288 Kbit).
pub const URAM_BYTES: u64 = 36 * 1024;
/// Storage below this many bytes is implemented in LUTRAM, not BRAM.
pub const LUTRAM_THRESHOLD_BYTES: u64 = 1024;
/// Storage above this is placed in UltraRAM instead of BRAM (the paper's
/// step 8: "copied into local FPGA BRAM or URAM if it will fit") — the
/// large-plane shift registers of the 134M problem size would otherwise
/// exhaust the 2016 BRAM36 blocks.
pub const URAM_THRESHOLD_BYTES: u64 = 512 * 1024;

/// Absolute resource usage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResourceUsage {
    /// LUTs.
    pub luts: u64,
    /// Flip-flops.
    pub ffs: u64,
    /// BRAM36 blocks.
    pub bram36: u64,
    /// UltraRAM blocks.
    pub uram: u64,
    /// DSP slices.
    pub dsps: u64,
}

impl ResourceUsage {
    /// Encode as a JSON object, one key per resource class.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("luts".into(), self.luts.into()),
            ("ffs".into(), self.ffs.into()),
            ("bram36".into(), self.bram36.into()),
            ("uram".into(), self.uram.into()),
            ("dsps".into(), self.dsps.into()),
        ])
    }

    /// Element-wise sum.
    pub fn add(&mut self, other: ResourceUsage) {
        self.luts += other.luts;
        self.ffs += other.ffs;
        self.bram36 += other.bram36;
        self.uram += other.uram;
        self.dsps += other.dsps;
    }

    /// Scale by a replication factor (CU count).
    #[must_use]
    pub fn scaled(&self, factor: u64) -> ResourceUsage {
        ResourceUsage {
            luts: self.luts * factor,
            ffs: self.ffs * factor,
            bram36: self.bram36 * factor,
            uram: self.uram * factor,
            dsps: self.dsps * factor,
        }
    }

    /// Percentages of the device totals, in the paper's table order
    /// (%LUTs, %FFs, %BRAM, %DSPs).
    pub fn percentages(&self, device: &Device) -> [f64; 4] {
        [
            100.0 * self.luts as f64 / device.luts as f64,
            100.0 * self.ffs as f64 / device.ffs as f64,
            100.0 * self.bram36 as f64 / device.bram36 as f64,
            100.0 * self.dsps as f64 / device.dsps as f64,
        ]
    }

    /// URAM utilisation percentage.
    pub fn uram_pct(&self, device: &Device) -> f64 {
        100.0 * self.uram as f64 / device.uram as f64
    }

    /// True when the design fits the device.
    pub fn fits(&self, device: &Device) -> bool {
        self.luts <= device.luts
            && self.ffs <= device.ffs
            && self.bram36 <= device.bram36
            && self.uram <= device.uram
            && self.dsps <= device.dsps
    }
}

/// BRAM36 blocks needed for `bytes` of storage (0 when small enough for
/// LUTRAM).
pub fn bram_blocks(bytes: u64) -> u64 {
    if bytes < LUTRAM_THRESHOLD_BYTES {
        0
    } else {
        bytes.div_ceil(BRAM36_BYTES)
    }
}

/// Place `bytes` of storage: returns `(bram36, uram)` blocks.
pub fn place_storage(bytes: u64) -> (u64, u64) {
    if bytes > URAM_THRESHOLD_BYTES {
        (0, bytes.div_ceil(URAM_BYTES))
    } else {
        (bram_blocks(bytes), 0)
    }
}

/// Estimate the resources of one compute unit of `design` when the domain
/// is decomposed over `cus` compute units (each CU's shift registers span
/// `1/cus` of the plane).
pub fn estimate_cu(design: &DesignDescriptor, costs: &CostTable, cus: u64) -> ResourceUsage {
    let mut total = ResourceUsage::default();
    let cus = cus.max(1);

    // Compute operators: one hardware instance per op per stage.
    for stage in &design.stages {
        // Per-stage control.
        total.luts += costs.stage_ctrl.luts;
        total.ffs += costs.stage_ctrl.ffs;
        if let Stage::Compute { ops, .. } = stage {
            for (count, cost) in [
                (ops.fadd, costs.fadd),
                (ops.fmul, costs.fmul),
                (ops.fdiv, costs.fdiv),
                (ops.fmisc, costs.fmisc),
                (ops.ialu, costs.ialu),
            ] {
                total.luts += count * cost.luts;
                total.ffs += count * cost.ffs;
                total.dsps += count * cost.dsps;
            }
        }
        if let Stage::Merge { .. } = stage {
            // Halo-ring address generation and the interior/ring select.
            total.luts += 2 * costs.ialu.luts;
            total.ffs += 2 * costs.ialu.ffs;
        }
        if let Stage::Shift { register_len, .. } = stage {
            let bytes = (*register_len as u64 * 8).div_ceil(cus);
            let (bram, uram) = place_storage(bytes);
            total.bram36 += if uram == 0 { bram.max(1) } else { 0 };
            total.uram += uram;
            // Address/shift logic.
            total.luts += 2 * costs.ialu.luts + costs.stage_ctrl.luts;
            total.ffs += 2 * costs.ialu.ffs + costs.stage_ctrl.ffs;
        }
    }

    // FIFO storage and control.
    for s in &design.streams {
        let bytes = s.depth as u64 * s.elem_bytes;
        total.bram36 += bram_blocks(bytes);
        total.luts += costs.fifo_ctrl.luts + bytes.min(LUTRAM_THRESHOLD_BYTES) / 8;
        total.ffs += costs.fifo_ctrl.ffs;
    }

    // Step-8 local copies ("into local FPGA BRAM or URAM if it will fit").
    for &bytes in &design.local_buffer_bytes {
        let (bram, uram) = place_storage(bytes);
        total.bram36 += if uram == 0 { bram.max(1) } else { 0 };
        total.uram += uram;
    }

    // AXI ports (one protocol engine per distinct m_axi bundle).
    let ports = design.axi_ports() as u64;
    total.luts += ports * costs.axi_port.luts;
    total.ffs += ports * costs.axi_port.ffs;

    total
}

/// Estimate the whole deployment: one CU's resources replicated `cus`
/// times.
pub fn estimate(design: &DesignDescriptor, costs: &CostTable, cus: u32) -> ResourceUsage {
    estimate_cu(design, costs, cus as u64).scaled(cus as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{OpMix, StreamDesc};

    fn toy(shift_len: i64, local_bytes: Vec<u64>) -> DesignDescriptor {
        DesignDescriptor {
            name: "toy".into(),
            interior_points: 1000,
            bounded_points: 1100,
            stages: vec![
                Stage::Load {
                    fields: 1,
                    beats_per_field: 138,
                    elements_per_field: 1100,
                },
                Stage::Shift {
                    register_len: shift_len,
                    elements: 1100,
                    windows: 1000,
                },
                Stage::Compute {
                    ii: 1,
                    trips: 1000,
                    reads: 1,
                    writes: 1,
                    ops: OpMix {
                        fadd: 4,
                        fmul: 2,
                        fdiv: 1,
                        ..Default::default()
                    },
                },
                Stage::Write {
                    fields: 1,
                    beats_per_field: 125,
                    elements_per_field: 1000,
                },
            ],
            streams: vec![
                StreamDesc {
                    depth: 8,
                    elem_bytes: 8,
                },
                StreamDesc {
                    depth: 8,
                    elem_bytes: 216,
                },
                StreamDesc {
                    depth: 8,
                    elem_bytes: 8,
                },
            ],
            wiring: Vec::new(),
            interfaces: vec![
                ("m_axi".into(), "gmem0".into()),
                ("m_axi".into(), "gmem1".into()),
                ("s_axilite".into(), "control".into()),
            ],
            local_buffer_bytes: local_bytes,
            init_copy_elements: 0,
        }
    }

    #[test]
    fn operators_price_dsps() {
        let u = estimate_cu(&toy(100, vec![]), &CostTable::default_f64(), 1);
        // 4 fadd × 3 + 2 fmul × 10 = 32 DSPs.
        assert_eq!(u.dsps, 32);
        assert!(u.luts > 0 && u.ffs > 0);
    }

    #[test]
    fn bigger_shift_register_needs_more_memory() {
        let costs = CostTable::default_f64();
        let small = estimate_cu(&toy(100, vec![]), &costs, 1);
        let medium = estimate_cu(&toy(5_000, vec![]), &costs, 1);
        let large = estimate_cu(&toy(100_000, vec![]), &costs, 1);
        // Mid-sized registers grow BRAM; past the URAM threshold the
        // storage moves wholesale to UltraRAM (step 8's "BRAM or URAM").
        assert!(medium.bram36 > small.bram36, "{medium:?} vs {small:?}");
        assert!(large.uram > 0 && large.uram > medium.uram, "{large:?}");
    }

    #[test]
    fn local_copies_add_bram() {
        let costs = CostTable::default_f64();
        let without = estimate_cu(&toy(100, vec![]), &costs, 1);
        let with = estimate_cu(&toy(100, vec![40_000, 40_000]), &costs, 1);
        assert_eq!(
            with.bram36 - without.bram36,
            2 * 40_000u64.div_ceil(BRAM36_BYTES)
        );
    }

    #[test]
    fn cu_scaling_replicates_logic_but_splits_buffers() {
        let costs = CostTable::default_f64();
        let d = toy(1000, vec![]);
        let one = estimate(&d, &costs, 1);
        let four = estimate(&d, &costs, 4);
        // Logic replicates linearly.
        assert_eq!(four.luts, 4 * one.luts);
        assert_eq!(four.dsps, 4 * one.dsps);
        // Shift-register storage is domain-decomposed: total BRAM grows
        // sublinearly (each CU buffers 1/4 of the plane).
        assert!(four.bram36 >= one.bram36);
        assert!(four.bram36 <= 4 * one.bram36);
    }

    #[test]
    fn percentages_and_fit() {
        let device = Device::u280();
        let u = ResourceUsage {
            luts: 130_368,
            ffs: 260_736,
            bram36: 504,
            uram: 0,
            dsps: 902,
        };
        let p = u.percentages(&device);
        assert!((p[0] - 10.0).abs() < 0.01);
        assert!((p[1] - 10.0).abs() < 0.01);
        assert!((p[2] - 25.0).abs() < 0.01);
        assert!((p[3] - 10.0).abs() < 0.05);
        assert!(u.fits(&device));
        let too_big = ResourceUsage {
            luts: 2_000_000,
            ..u
        };
        assert!(!too_big.fits(&device));
    }

    #[test]
    fn small_storage_stays_in_lutram() {
        assert_eq!(bram_blocks(512), 0);
        assert_eq!(bram_blocks(4608), 1);
        assert_eq!(bram_blocks(4609), 2);
    }
}
