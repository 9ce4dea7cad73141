//! Kernel profiling: the framework models consume a [`KernelProfile`]
//! summarising the structural facts every tool in the paper's comparison
//! would see — problem size, access counts, operation mix, dependency
//! structure, port requirements — extracted from the compiled kernel.

use std::collections::BTreeMap;

use shmls_dialects::stencil;
use shmls_fpga_sim::design::{DesignDescriptor, OpMix};
use shmls_ir::error::IrResult;
use shmls_ir::prelude::*;
use stencil_hmls::CompiledKernel;

/// Structural profile of a kernel at a specific problem size.
#[derive(Debug, Clone)]
pub struct KernelProfile {
    /// Kernel name.
    pub name: String,
    /// Interior points.
    pub points: u64,
    /// Halo-padded points.
    pub bounded_points: u64,
    /// External fields read.
    pub fields_in: usize,
    /// External fields written.
    pub fields_out: usize,
    /// `stencil.access` reads per point (across all computations).
    pub reads_per_point: u64,
    /// External writes per point (one per written field).
    pub writes_per_point: u64,
    /// Total operation mix per point.
    pub ops: OpMix,
    /// Stencil computations (stencil.apply count).
    pub computations: usize,
    /// Independent computation groups (connected components of the
    /// producer→consumer graph) — the paper's "split" opportunity.
    pub split_groups: usize,
    /// Longest producer→consumer chain (serialisation depth).
    pub chain_depth: usize,
    /// AXI ports one compute unit needs (fields + small-data bundle).
    pub ports_per_cu: usize,
    /// Small-data elements copied to BRAM.
    pub small_data_elements: u64,
    /// The full Stencil-HMLS design descriptor.
    pub design: DesignDescriptor,
}

impl KernelProfile {
    /// Build the profile from a compiled kernel.
    pub fn from_compiled(compiled: &CompiledKernel) -> IrResult<Self> {
        let ctx = &compiled.ctx;
        let design = compiled.design.clone();

        let applies = ctx.find_ops(compiled.stencil_func, stencil::APPLY);
        let reads_per_point = applies
            .iter()
            .map(|&a| ctx.find_ops(a, stencil::ACCESS).len() as u64)
            .sum();

        // Producer→consumer graph over the applies.
        let result_of: BTreeMap<ValueId, usize> = applies
            .iter()
            .enumerate()
            .map(|(i, &a)| (ctx.result(a, 0), i))
            .collect();
        let mut parents: Vec<usize> = (0..applies.len()).collect();
        fn find(parents: &mut Vec<usize>, x: usize) -> usize {
            if parents[x] != x {
                let root = find(parents, parents[x]);
                parents[x] = root;
            }
            parents[x]
        }
        let mut depth = vec![1usize; applies.len()];
        for (i, &a) in applies.iter().enumerate() {
            for &operand in ctx.operands(a) {
                if let Some(&p) = result_of.get(&operand) {
                    let (ra, rb) = (find(&mut parents, p), find(&mut parents, i));
                    if ra != rb {
                        parents[ra] = rb;
                    }
                    depth[i] = depth[i].max(depth[p] + 1);
                }
            }
        }
        let mut roots: Vec<usize> = (0..applies.len()).map(|i| find(&mut parents, i)).collect();
        roots.sort_unstable();
        roots.dedup();

        let m_axi_ports = design.axi_ports();
        Ok(Self {
            name: compiled.kernel.name.clone(),
            points: design.interior_points,
            bounded_points: design.bounded_points,
            fields_in: compiled.report.inputs,
            fields_out: compiled.report.outputs,
            reads_per_point,
            writes_per_point: compiled.report.outputs as u64,
            ops: design.total_ops(),
            computations: applies.len(),
            split_groups: roots.len(),
            chain_depth: depth.iter().copied().max().unwrap_or(1),
            ports_per_cu: m_axi_ports,
            small_data_elements: design.init_copy_elements,
            design,
        })
    }

    /// External memory accesses per point (reads of distinct field values
    /// plus writes), used by the Von-Neumann baseline models.
    pub fn external_accesses_per_point(&self) -> u64 {
        self.reads_per_point + self.writes_per_point
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_hmls::{compile, CompileOptions};

    #[test]
    fn pw_profile_shape() {
        let compiled = compile(
            &shmls_kernels::pw_advection::source(16, 12, 8),
            &CompileOptions::default(),
        )
        .unwrap();
        let p = KernelProfile::from_compiled(&compiled).unwrap();
        assert_eq!(p.computations, 3);
        assert_eq!(p.split_groups, 3, "PW's three computations are independent");
        assert_eq!(p.chain_depth, 1);
        assert_eq!(p.ports_per_cu, 7, "6 fields + 1 small-data bundle");
        assert_eq!(p.points, 16 * 12 * 8);
        assert!(
            p.reads_per_point >= 30,
            "PW reads many neighbours: {}",
            p.reads_per_point
        );
        assert_eq!(p.writes_per_point, 3);
        assert!(p.small_data_elements > 0);
    }

    #[test]
    fn tracer_profile_shape() {
        let compiled = compile(
            &shmls_kernels::tracer_advection::source(10, 8, 6),
            &CompileOptions::default(),
        )
        .unwrap();
        let p = KernelProfile::from_compiled(&compiled).unwrap();
        assert_eq!(p.computations, 24);
        assert_eq!(p.ports_per_cu, 17, "tracer advection maps 17 memory ports");
        assert!(
            p.split_groups < p.computations / 4,
            "tracer computations are dependency-chained: {} groups",
            p.split_groups
        );
        assert!(
            p.chain_depth >= 5,
            "deep MUSCL chain, got {}",
            p.chain_depth
        );
    }
}
