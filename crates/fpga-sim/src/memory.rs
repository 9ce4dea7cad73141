//! HBM bank connectivity: port→bank assignment.
//!
//! The paper wires each AXI bundle to its own HBM pseudo-channel through a
//! hand-written Vitis connectivity file ("The connectivity to HBM was done
//! manually for our approach"). This module generates that assignment (and
//! the `.cfg` text a real Vitis run would consume), refusing a deployment
//! that needs more banks than the device has. The analytic model
//! ([`perf`](crate::perf)) assumes that wiring: every port streams at one
//! bank's rate.

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
}
