//! The kernels a command line can name: one row each, with the DSL
//! source, the seeded inputs the ledger and the scale-out runs use, and
//! the paper's problem sizes.

use shmls_ir::interp::KernelData;

use crate::workload::{pw_sizes, tracer_sizes, ProblemSize};
use crate::{heat3d, laplace, pw_advection, tracer_advection, Grid3};

/// One catalogue row.
#[derive(Debug)]
pub struct Kernel {
    /// Name on the command line and in ledger keys.
    pub name: &'static str,
    /// Display name as in the paper.
    pub title: &'static str,
    source: fn(i64, i64, i64) -> String,
    data: fn(i64, i64, i64) -> KernelData,
    sizes: fn() -> Vec<ProblemSize>,
}

impl Kernel {
    /// DSL source at a grid size.
    pub fn source(&self, [nx, ny, nz]: [i64; 3]) -> String {
        (self.source)(nx, ny, nz)
    }

    /// Deterministic random inputs at a grid size (one fixed seed a row).
    pub fn data(&self, [nx, ny, nz]: [i64; 3]) -> KernelData {
        (self.data)(nx, ny, nz)
    }

    /// The paper's problem sizes; empty for a kernel it does not evaluate.
    pub fn sizes(&self) -> Vec<ProblemSize> {
        (self.sizes)()
    }
}

/// 3D heat diffusion, the temporal-blocking workload.
pub const HEAT3D: Kernel = Kernel {
    name: "heat3d",
    title: "heat diffusion",
    source: heat3d::source,
    data: |nx, ny, nz| heat3d::Heat3dInputs::random(nx, ny, nz, 3).data(),
    sizes: Vec::new,
};

/// The 3D 7-point Jacobi smoother.
pub const LAPLACE: Kernel = Kernel {
    name: "laplace",
    title: "Laplace smoother",
    source: laplace::source_3d,
    data: |nx, ny, nz| {
        let mut a = Grid3::zeros([nx, ny, nz], 1);
        a.fill_random(5);
        KernelData::default()
            .buffer("a", a.to_buffer())
            .scalar("w", 0.15)
    },
    sizes: Vec::new,
};

/// Piacsek–Williams advection (MONC).
pub const PW_ADVECTION: Kernel = Kernel {
    name: "pw_advection",
    title: "PW advection",
    source: pw_advection::source,
    data: |nx, ny, nz| pw_advection::PwInputs::random(nx, ny, nz, 1).data(),
    sizes: pw_sizes,
};

/// NEMO tracer advection (PSycloneBench).
pub const TRACER_ADVECTION: Kernel = Kernel {
    name: "tracer_advection",
    title: "tracer advection",
    source: tracer_advection::source,
    data: |nx, ny, nz| tracer_advection::TracerInputs::random(nx, ny, nz, 2).data(),
    sizes: tracer_sizes,
};

/// Every row, by name.
pub const CATALOGUE: [&Kernel; 4] = [&HEAT3D, &LAPLACE, &PW_ADVECTION, &TRACER_ADVECTION];

/// The row called `name`.
pub fn by_name(name: &str) -> Option<&'static Kernel> {
    CATALOGUE.into_iter().find(|k| k.name == name)
}
