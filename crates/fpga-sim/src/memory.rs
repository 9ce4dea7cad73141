//! HBM bank model: port→bank connectivity and contention.
//!
//! The paper wires each AXI bundle to its own HBM pseudo-channel through a
//! hand-written Vitis connectivity file ("The connectivity to HBM was done
//! manually for our approach"). This module generates that assignment (and
//! the `.cfg` text a real Vitis run would consume), and models what happens
//! when assignments collide: beats queued on the same bank are served
//! round-robin at the bank's rate.
//!
//! Two implementations are provided and property-tested against each other:
//! an analytic bound and an exact cycle-stepped arbitration simulation.

use crate::design::DesignDescriptor;
use crate::device::Device;
use shmls_ir::error::IrResult;
use shmls_ir::ir_ensure;

/// One AXI port's bank assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortAssignment {
    /// Compute-unit instance (1-based, like Vitis `kernel_1`).
    pub cu: u32,
    /// Bundle name (`gmem0`, `gmem_small`, …).
    pub bundle: String,
    /// HBM pseudo-channel index.
    pub bank: u32,
}

/// A full connectivity map for a replicated deployment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Connectivity {
    /// Kernel name.
    pub kernel: String,
    /// All port assignments.
    pub ports: Vec<PortAssignment>,
}

impl Connectivity {
    /// Render as a Vitis `--config` connectivity section:
    ///
    /// ```text
    /// [connectivity]
    /// sp=pw_advection_1.gmem0:HBM[0]
    /// …
    /// ```
    pub fn to_cfg(&self) -> String {
        let mut out = String::from("[connectivity]\n");
        for p in &self.ports {
            out.push_str(&format!(
                "sp={}_{}.{}:HBM[{}]\n",
                self.kernel, p.cu, p.bundle, p.bank
            ));
        }
        out
    }

    /// Number of distinct banks used.
    pub fn banks_used(&self) -> usize {
        let mut banks: Vec<u32> = self.ports.iter().map(|p| p.bank).collect();
        banks.sort_unstable();
        banks.dedup();
        banks.len()
    }
}

/// Assign every `m_axi` bundle of every CU to its own HBM bank (step 9's
/// "each of these ports is connected to a separate bank of HBM"). Errors
/// when the deployment needs more banks than the device has — the paper's
/// hard constraint that capped PW advection at 4 CUs.
pub fn assign_banks(
    design: &DesignDescriptor,
    device: &Device,
    cus: u32,
) -> IrResult<Connectivity> {
    let mut bundles: Vec<&str> = design
        .interfaces
        .iter()
        .filter(|(p, _)| p == "m_axi")
        .map(|(_, b)| b.as_str())
        .collect();
    bundles.sort_unstable();
    bundles.dedup();
    let needed = bundles.len() * cus as usize;
    ir_ensure!(
        needed <= device.hbm_banks as usize,
        "deployment needs {needed} HBM banks but {} has {}",
        device.name,
        device.hbm_banks
    );
    let mut ports = Vec::with_capacity(needed);
    let mut bank = 0u32;
    for cu in 1..=cus {
        for bundle in &bundles {
            ports.push(PortAssignment {
                cu,
                bundle: (*bundle).to_string(),
                bank,
            });
            bank += 1;
        }
    }
    Ok(Connectivity {
        kernel: design.name.clone(),
        ports,
    })
}

/// A traffic demand: `beats` 512-bit beats through the port on `bank`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Traffic {
    /// Bank the port is wired to.
    pub bank: u32,
    /// Beats to move.
    pub beats: u64,
}

/// Analytic contention bound: each bank serves its queued beats at
/// `beats_per_cycle`; total cycles = the slowest bank.
pub fn contention_cycles_analytic(traffic: &[Traffic], beats_per_cycle: f64) -> u64 {
    let mut per_bank = std::collections::BTreeMap::<u32, u64>::new();
    for t in traffic {
        *per_bank.entry(t.bank).or_default() += t.beats;
    }
    per_bank
        .values()
        .map(|&beats| (beats as f64 / beats_per_cycle).ceil() as u64)
        .max()
        .unwrap_or(0)
}

/// Exact round-robin arbitration: step cycles, each bank serving up to
/// `beats_per_cycle` (accumulated fractionally) among its pending ports in
/// round-robin order. Returns `(total_cycles, per-port completion cycle)`.
pub fn simulate_arbitration(traffic: &[Traffic], beats_per_cycle: f64) -> (u64, Vec<u64>) {
    ir_assert_positive(beats_per_cycle);
    let mut remaining: Vec<u64> = traffic.iter().map(|t| t.beats).collect();
    let mut done_at = vec![0u64; traffic.len()];
    let mut credit = std::collections::BTreeMap::<u32, f64>::new();
    let mut rr_cursor = std::collections::BTreeMap::<u32, usize>::new();
    let mut cycle: u64 = 0;
    while remaining.iter().any(|&r| r > 0) {
        cycle += 1;
        let banks: std::collections::BTreeSet<u32> = traffic
            .iter()
            .enumerate()
            .filter(|(i, _)| remaining[*i] > 0)
            .map(|(_, t)| t.bank)
            .collect();
        for bank in banks {
            let c = credit.entry(bank).or_insert(0.0);
            *c += beats_per_cycle;
            let mut budget = c.floor() as u64;
            *c -= budget as f64;
            // Ports on this bank with pending beats, round-robin.
            let members: Vec<usize> = traffic
                .iter()
                .enumerate()
                .filter(|(i, t)| t.bank == bank && remaining[*i] > 0)
                .map(|(i, _)| i)
                .collect();
            let cursor = rr_cursor.entry(bank).or_insert(0);
            let mut idx = 0;
            while budget > 0 && members.iter().any(|&m| remaining[m] > 0) {
                let m = members[(*cursor + idx) % members.len()];
                if remaining[m] > 0 {
                    remaining[m] -= 1;
                    budget -= 1;
                    if remaining[m] == 0 {
                        done_at[m] = cycle;
                    }
                }
                idx += 1;
                if idx >= members.len() {
                    idx = 0;
                }
            }
            *cursor = (*cursor + 1) % members.len().max(1);
        }
    }
    (cycle, done_at)
}

fn ir_assert_positive(rate: f64) {
    assert!(rate > 0.0, "bank rate must be positive");
}

/// Contention factor of a connectivity under uniform per-port traffic: the
/// slowdown versus a conflict-free assignment (1.0 = no contention).
pub fn contention_factor(connectivity: &Connectivity, beats_per_port: u64, device: &Device) -> f64 {
    if connectivity.ports.is_empty() || beats_per_port == 0 {
        return 1.0;
    }
    let traffic: Vec<Traffic> = connectivity
        .ports
        .iter()
        .map(|p| Traffic {
            bank: p.bank,
            beats: beats_per_port,
        })
        .collect();
    let rate = device.beats_per_cycle_per_bank();
    let actual = contention_cycles_analytic(&traffic, rate);
    let ideal = (beats_per_port as f64 / rate).ceil() as u64;
    actual as f64 / ideal.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{DesignDescriptor, Stage, StreamDesc};

    fn toy_design(fields: usize) -> DesignDescriptor {
        DesignDescriptor {
            name: "pw_advection".into(),
            interior_points: 1000,
            bounded_points: 1100,
            stages: vec![Stage::Load {
                fields,
                beats_per_field: 138,
                elements_per_field: 1100,
            }],
            streams: vec![StreamDesc {
                depth: 8,
                elem_bytes: 8,
            }],
            wiring: Vec::new(),
            interfaces: (0..fields)
                .map(|i| ("m_axi".to_string(), format!("gmem{i}")))
                .chain(std::iter::once((
                    "m_axi".to_string(),
                    "gmem_small".to_string(),
                )))
                .chain(std::iter::once((
                    "s_axilite".to_string(),
                    "control".to_string(),
                )))
                .collect(),
            local_buffer_bytes: vec![],
            init_copy_elements: 0,
        }
    }

    #[test]
    fn connectivity_is_one_bank_per_port() {
        let design = toy_design(6);
        let device = Device::u280();
        let c = assign_banks(&design, &device, 4).unwrap();
        // 7 bundles × 4 CUs = 28 ports, all on distinct banks.
        assert_eq!(c.ports.len(), 28);
        assert_eq!(c.banks_used(), 28);
        // The Vitis config names instances kernel_1..kernel_4.
        let cfg = c.to_cfg();
        assert!(cfg.starts_with("[connectivity]\n"), "{cfg}");
        assert!(cfg.contains("sp=pw_advection_1.gmem0:HBM[0]"), "{cfg}");
        assert!(cfg.contains("sp=pw_advection_4.gmem_small:HBM["), "{cfg}");
        assert_eq!(cfg.lines().count(), 1 + 28);
    }

    #[test]
    fn bank_budget_enforced() {
        let design = toy_design(6); // 7 m_axi bundles per CU
        let device = Device::u280();
        // 5 CUs × 7 = 35 > 32 banks: exactly the paper's 4-CU cap.
        assert!(assign_banks(&design, &device, 4).is_ok());
        let e = assign_banks(&design, &device, 5).unwrap_err();
        assert!(e.to_string().contains("HBM banks"), "{e}");
    }

    #[test]
    fn analytic_matches_stepped_simulation() {
        let rate = 0.75;
        for traffic in [
            vec![Traffic {
                bank: 0,
                beats: 100,
            }],
            vec![
                Traffic {
                    bank: 0,
                    beats: 100,
                },
                Traffic {
                    bank: 0,
                    beats: 100,
                },
            ],
            vec![
                Traffic { bank: 0, beats: 64 },
                Traffic { bank: 0, beats: 32 },
                Traffic {
                    bank: 1,
                    beats: 200,
                },
            ],
            vec![
                Traffic { bank: 2, beats: 17 },
                Traffic { bank: 2, beats: 3 },
                Traffic { bank: 2, beats: 55 },
            ],
        ] {
            let analytic = contention_cycles_analytic(&traffic, rate);
            let (stepped, done) = simulate_arbitration(&traffic, rate);
            // The stepped simulation can finish at most one cycle later
            // (fractional credit rounding).
            assert!(
                stepped >= analytic && stepped <= analytic + 1,
                "analytic {analytic} vs stepped {stepped} for {traffic:?}"
            );
            assert_eq!(done.len(), traffic.len());
            assert_eq!(done.iter().copied().max().unwrap(), stepped);
        }
    }

    #[test]
    fn round_robin_is_fair() {
        // Two equal ports on one bank finish within a cycle of each other.
        let traffic = vec![
            Traffic {
                bank: 0,
                beats: 500,
            },
            Traffic {
                bank: 0,
                beats: 500,
            },
        ];
        let (_, done) = simulate_arbitration(&traffic, 1.0);
        assert!((done[0] as i64 - done[1] as i64).abs() <= 1, "{done:?}");
    }

    #[test]
    fn contention_factor_scales_with_sharing() {
        let device = Device::u280();
        let design = toy_design(3);
        let conflict_free = assign_banks(&design, &device, 1).unwrap();
        assert!((contention_factor(&conflict_free, 1000, &device) - 1.0).abs() < 0.01);
        // Force all ports onto one bank: factor = number of ports.
        let mut shared = conflict_free.clone();
        for p in &mut shared.ports {
            p.bank = 0;
        }
        let f = contention_factor(&shared, 1000, &device);
        assert!((f - shared.ports.len() as f64).abs() < 0.05, "{f}");
    }
}
