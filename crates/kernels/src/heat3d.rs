//! 3D heat diffusion with a depth-varying vertical conductivity — the
//! temporal-blocking benchmark workload (the Rust twin of
//! `kernels/heat3d.stencil`). One input field, one output field, a
//! per-level `kz[k]` conductivity profile, and a `dt` scalar: small
//! enough per step that chaining several steps on-chip (temporal depth)
//! visibly cuts the external-memory round trips.

use shmls_ir::interp::KernelData;

use crate::grid::{Grid3, Param1};

/// DSL source for the heat-diffusion kernel at the given grid size.
pub fn source(nx: i64, ny: i64, nz: i64) -> String {
    format!(
        r#"
// 3D heat diffusion: horizontal 5-point Laplacian plus a vertical
// second difference scaled by a per-level conductivity.
kernel heat3d {{
  grid({nx}, {ny}, {nz})
  halo 1

  field t    : input
  field tnew : output

  param kz[k]

  const dt

  compute tnew {{
    tnew = t[0,0,0] + dt * (t[-1,0,0] + t[1,0,0] + t[0,-1,0] + t[0,1,0]
         - 4.0 * t[0,0,0]) + dt * kz[k] * (t[0,0,-1] + t[0,0,1] - 2.0 * t[0,0,0])
  }}
}}
"#
    )
}

/// Inputs to the native golden implementation.
#[derive(Debug, Clone)]
pub struct Heat3dInputs {
    /// Temperature field.
    pub t: Grid3,
    /// Per-level vertical conductivity.
    pub kz: Param1,
    /// Time step.
    pub dt: f64,
}

impl Heat3dInputs {
    /// Deterministic test inputs at the given size.
    pub fn random(nx: i64, ny: i64, nz: i64, seed: u64) -> Self {
        let mut t = Grid3::zeros([nx, ny, nz], 1);
        t.fill_random(seed);
        let mut kz = Param1::zeros(nz, 1);
        kz.fill_with(|k| 0.4 + 0.003 * k as f64);
        Self { t, kz, dt: 0.1 }
    }

    /// These inputs as the runners take them, keyed by the DSL's names.
    pub fn data(&self) -> KernelData {
        kernel_data!(self; t, kz; dt)
    }
}

/// Native golden implementation: one diffusion step.
pub fn golden(inp: &Heat3dInputs) -> Grid3 {
    let t = &inp.t;
    let mut tnew = Grid3::zeros(t.n, t.halo);
    for (i, j, k) in tnew.interior().collect::<Vec<_>>() {
        let horizontal =
            t.get(i - 1, j, k) + t.get(i + 1, j, k) + t.get(i, j - 1, k) + t.get(i, j + 1, k)
                - 4.0 * t.get(i, j, k);
        let vertical = t.get(i, j, k - 1) + t.get(i, j, k + 1) - 2.0 * t.get(i, j, k);
        tnew.set(
            i,
            j,
            k,
            t.get(i, j, k) + inp.dt * horizontal + inp.dt * inp.kz.get(k) * vertical,
        );
    }
    tnew
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmls_frontend::parse_kernel;

    #[test]
    fn source_parses() {
        let k = parse_kernel(&source(8, 7, 6)).unwrap();
        assert_eq!(k.name, "heat3d");
        assert_eq!(k.grid, vec![8, 7, 6]);
        assert_eq!(k.params.len(), 1);
    }

    #[test]
    fn source_matches_the_shipped_kernel_file() {
        // The Rust generator and `kernels/heat3d.stencil` must stay the
        // same kernel: same fields, same params, same compute expression
        // (compared structurally, so formatting may differ).
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../kernels");
        let text = std::fs::read_to_string(path.join("heat3d.stencil")).unwrap();
        let file = parse_kernel(&text).unwrap();
        let gen = parse_kernel(&source(file.grid[0], file.grid[1], file.grid[2])).unwrap();
        assert_eq!(gen, file);
    }

    #[test]
    fn golden_uniform_field_is_fixed_point() {
        // With a spatially constant temperature every difference term
        // vanishes, so one step must return the same field.
        let mut inp = Heat3dInputs::random(5, 5, 4, 1);
        inp.t.fill_with(|_, _, _| 2.5);
        let out = golden(&inp);
        for (i, j, k) in out.interior().collect::<Vec<_>>() {
            assert!((out.get(i, j, k) - 2.5).abs() < 1e-12);
        }
    }
}
