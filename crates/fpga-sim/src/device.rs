//! Device description: the AMD Xilinx Alveo U280 and the calibration
//! constants behind the performance, resource and power models.
//!
//! Resource totals come from the public U280 data sheet; the per-operator
//! cost table and the power coefficients are calibrated so the *relative*
//! results of the paper's evaluation (Figures 4–6, Tables 1–2) are
//! reproduced — see EXPERIMENTS.md for the calibration notes. Absolute
//! agreement with physical hardware is explicitly out of scope.

/// A reconfigurable device (defaults describe the Alveo U280).
#[derive(Debug, Clone)]
pub struct Device {
    /// Marketing name.
    pub name: String,
    /// Total 6-input LUTs.
    pub luts: u64,
    /// Total flip-flops.
    pub ffs: u64,
    /// Total BRAM36 blocks (36 Kbit each).
    pub bram36: u64,
    /// Total UltraRAM blocks (288 Kbit each).
    pub uram: u64,
    /// Total DSP48E2 slices.
    pub dsps: u64,
    /// Number of HBM pseudo-channels (banks).
    pub hbm_banks: u32,
    /// Usable bandwidth per HBM bank in bytes/second.
    pub hbm_bank_bandwidth: f64,
    /// HBM capacity in bytes.
    pub hbm_capacity: u64,
    /// Maximum AXI4 master ports supported by the shell (the paper: the
    /// U280 shell caps at 32, which limits PW advection to 4 CUs).
    pub max_axi_ports: u32,
    /// Kernel clock in Hz.
    pub clock_hz: f64,
    /// Shell + HBM static power draw in watts.
    pub static_power_w: f64,
}

impl Device {
    /// The AMD Xilinx Alveo U280 used throughout the paper's evaluation.
    pub fn u280() -> Self {
        Self {
            name: "Alveo U280".to_string(),
            luts: 1_303_680,
            ffs: 2_607_360,
            bram36: 2016,
            uram: 960,
            dsps: 9024,
            hbm_banks: 32,
            // 460 GB/s aggregate over 32 banks.
            hbm_bank_bandwidth: 460.0e9 / 32.0,
            hbm_capacity: 8 * 1024 * 1024 * 1024,
            max_axi_ports: 32,
            clock_hz: 300.0e6,
            static_power_w: 22.0,
        }
    }

    /// Seconds for the given number of cycles at the device clock.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / self.clock_hz
    }

    /// Peak 512-bit beats per cycle a single HBM bank can sustain
    /// (fraction ≤ 1; 64 bytes per beat).
    pub fn beats_per_cycle_per_bank(&self) -> f64 {
        (self.hbm_bank_bandwidth / 64.0) / self.clock_hz
    }
}

/// Per-operator implementation cost used by the resource estimator
/// (double-precision floating point on UltraScale+; representative
/// figures from Vitis HLS operator library reports).
#[derive(Debug, Clone, Copy)]
pub struct OpCost {
    /// LUTs consumed.
    pub luts: u64,
    /// Flip-flops consumed.
    pub ffs: u64,
    /// DSP slices consumed.
    pub dsps: u64,
}

/// Cost table for double-precision operators and infrastructure blocks.
#[derive(Debug, Clone)]
pub struct CostTable {
    /// f64 add/sub.
    pub fadd: OpCost,
    /// f64 multiply.
    pub fmul: OpCost,
    /// f64 divide.
    pub fdiv: OpCost,
    /// f64 miscellaneous (abs/min/max/select/compare).
    pub fmisc: OpCost,
    /// Integer/index ALU op.
    pub ialu: OpCost,
    /// Per-FIFO control logic (excluding storage).
    pub fifo_ctrl: OpCost,
    /// Per AXI4 master port (protocol engine).
    pub axi_port: OpCost,
    /// Per dataflow stage control FSM.
    pub stage_ctrl: OpCost,
}

impl CostTable {
    /// Default calibration (see module docs).
    pub fn default_f64() -> Self {
        Self {
            fadd: OpCost {
                luts: 180,
                ffs: 330,
                dsps: 3,
            },
            fmul: OpCost {
                luts: 110,
                ffs: 240,
                dsps: 10,
            },
            fdiv: OpCost {
                luts: 3000,
                ffs: 4200,
                dsps: 0,
            },
            fmisc: OpCost {
                luts: 90,
                ffs: 130,
                dsps: 0,
            },
            ialu: OpCost {
                luts: 40,
                ffs: 40,
                dsps: 0,
            },
            fifo_ctrl: OpCost {
                luts: 50,
                ffs: 80,
                dsps: 0,
            },
            axi_port: OpCost {
                luts: 1500,
                ffs: 2300,
                dsps: 0,
            },
            stage_ctrl: OpCost {
                luts: 300,
                ffs: 440,
                dsps: 0,
            },
        }
    }
}

/// Power-model coefficients: `P = static + Σ class · coefficient`.
#[derive(Debug, Clone)]
pub struct PowerCoefficients {
    /// Watts per active LUT.
    pub per_lut: f64,
    /// Watts per active flip-flop.
    pub per_ff: f64,
    /// Watts per BRAM36 in use.
    pub per_bram: f64,
    /// Watts per URAM block in use.
    pub per_uram: f64,
    /// Watts per DSP in use.
    pub per_dsp: f64,
    /// Watts per GB/s of HBM traffic actually moved.
    pub per_gbps: f64,
}

impl PowerCoefficients {
    /// Default calibration producing paper-magnitude power draws
    /// (≈ 25–40 W across the evaluated designs).
    pub fn default_u280() -> Self {
        Self {
            per_lut: 5.0e-5,
            per_ff: 1.2e-5,
            per_bram: 8.0e-3,
            per_uram: 1.2e-2,
            per_dsp: 1.8e-3,
            per_gbps: 0.15,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u280_headline_numbers() {
        let d = Device::u280();
        assert_eq!(d.max_axi_ports, 32);
        assert_eq!(d.hbm_banks, 32);
        assert_eq!(d.bram36, 2016);
        assert_eq!(d.dsps, 9024);
        assert_eq!(d.hbm_capacity, 8 << 30);
    }

    #[test]
    fn timing_helpers() {
        let d = Device::u280();
        assert!((d.cycles_to_seconds(300_000_000) - 1.0).abs() < 1e-12);
        // A bank sustains less than one 64-byte beat per 300 MHz cycle.
        let bpc = d.beats_per_cycle_per_bank();
        assert!(bpc > 0.5 && bpc < 1.0, "{bpc}");
    }

    #[test]
    fn cost_table_sane() {
        let t = CostTable::default_f64();
        assert!(t.fdiv.luts > t.fadd.luts);
        assert!(t.fmul.dsps > t.fadd.dsps);
    }
}
