//! Power and energy model (reproducing the shape of Figures 5 and 6).
//!
//! Following the measurement methodology of the paper (\[13\]: average of the
//! card's instantaneous power over the kernel run, energy = average power ×
//! execution time), we model average power as
//!
//! ```text
//! P = P_static + Σ_class usage_class · coeff_class + BW · coeff_bw
//! ```
//!
//! The resource terms capture the leakage+clocking cost of the configured
//! logic; the bandwidth term captures HBM/PHY activity, which is why the
//! fastest design (Stencil-HMLS, saturating its ports) draws *slightly
//! more* power yet consumes far less energy — the paper's headline
//! energy-efficiency result.

use crate::device::{Device, PowerCoefficients};
use crate::resources::ResourceUsage;

/// A power/energy estimate for one kernel execution.
#[derive(Debug, Clone)]
pub struct PowerEstimate {
    /// Average power draw in watts.
    pub watts: f64,
    /// Energy in joules for the given runtime.
    pub joules: f64,
    /// The bandwidth actually sustained, GB/s (for reporting).
    pub bandwidth_gbps: f64,
}

/// Estimate average power and energy.
///
/// * `usage` — configured resources (all CUs).
/// * `total_bytes_moved` — external memory traffic of one kernel run.
/// * `seconds` — kernel runtime.
pub fn estimate(
    device: &Device,
    coeffs: &PowerCoefficients,
    usage: &ResourceUsage,
    total_bytes_moved: u64,
    seconds: f64,
) -> PowerEstimate {
    let bandwidth_gbps = if seconds > 0.0 {
        total_bytes_moved as f64 / seconds / 1.0e9
    } else {
        0.0
    };
    let watts = device.static_power_w
        + usage.luts as f64 * coeffs.per_lut
        + usage.ffs as f64 * coeffs.per_ff
        + usage.bram36 as f64 * coeffs.per_bram
        + usage.uram as f64 * coeffs.per_uram
        + usage.dsps as f64 * coeffs.per_dsp
        + bandwidth_gbps * coeffs.per_gbps;
    PowerEstimate {
        watts,
        joules: watts * seconds,
        bandwidth_gbps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Device, PowerCoefficients) {
        (Device::u280(), PowerCoefficients::default_u280())
    }

    #[test]
    fn static_floor() {
        let (d, c) = setup();
        let e = estimate(&d, &c, &ResourceUsage::default(), 0, 1.0);
        assert!((e.watts - d.static_power_w).abs() < 1e-9);
        assert!((e.joules - d.static_power_w).abs() < 1e-9);
    }

    #[test]
    fn more_resources_more_power() {
        let (d, c) = setup();
        let small = ResourceUsage {
            luts: 10_000,
            ffs: 15_000,
            bram36: 20,
            uram: 0,
            dsps: 30,
        };
        let large = ResourceUsage {
            luts: 300_000,
            ffs: 450_000,
            bram36: 1200,
            uram: 0,
            dsps: 400,
        };
        let ps = estimate(&d, &c, &small, 0, 1.0);
        let pl = estimate(&d, &c, &large, 0, 1.0);
        assert!(pl.watts > ps.watts);
    }

    #[test]
    fn fast_run_saves_energy_despite_higher_power() {
        // The paper's central energy result: a design that draws a bit more
        // power but finishes 90x faster consumes ~85x less energy.
        let (d, c) = setup();
        let hmls = ResourceUsage {
            luts: 56_000,
            ffs: 79_000,
            bram36: 288,
            uram: 0,
            dsps: 118,
        };
        let dace = ResourceUsage {
            luts: 108_000,
            ffs: 52_000,
            bram36: 111,
            uram: 0,
            dsps: 44,
        };
        let bytes = 8_000_000u64 * 7 * 8;
        let fast = estimate(&d, &c, &hmls, bytes, 0.007);
        let slow = estimate(&d, &c, &dace, bytes, 0.7);
        assert!(
            fast.watts > slow.watts * 0.8,
            "{} vs {}",
            fast.watts,
            slow.watts
        );
        let energy_ratio = slow.joules / fast.joules;
        assert!(energy_ratio > 50.0, "energy ratio {energy_ratio}");
    }

    #[test]
    fn power_magnitudes_match_paper_band() {
        // Paper power draws sit roughly between 23 W and 45 W.
        let (d, c) = setup();
        let typical = ResourceUsage {
            luts: 60_000,
            ffs: 80_000,
            bram36: 300,
            uram: 0,
            dsps: 120,
        };
        let e = estimate(&d, &c, &typical, 4_000_000_000, 1.0);
        assert!(e.watts > 23.0 && e.watts < 45.0, "{}", e.watts);
    }

    #[test]
    fn zero_runtime_guard() {
        let (d, c) = setup();
        let e = estimate(&d, &c, &ResourceUsage::default(), 1_000_000, 0.0);
        assert_eq!(e.bandwidth_gbps, 0.0);
        assert_eq!(e.joules, 0.0);
    }
}
