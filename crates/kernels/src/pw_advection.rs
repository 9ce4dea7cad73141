//! The Piacsek–Williams (PW) advection scheme — the paper's first
//! benchmark kernel, "commonly found in weather simulation codes, such as
//! the Met Office's MONC high-resolution atmospheric model".
//!
//! Three stencil computations (`su`, `sv`, `sw`) over three momentum
//! fields (`u`, `v`, `w`), with per-level small data (`tzc1`, `tzc2`,
//! `tzd1`, `tzd2`) and horizontal scalars (`tcx`, `tcy`). Each compute
//! unit needs 7 AXI ports: one per field (3 in + 3 out) plus one for the
//! small data — exactly the paper's port budget that caps PW advection at
//! 4 CUs on the U280.

use shmls_ir::interp::KernelData;

use crate::grid::{Grid3, Param1};

/// DSL source for the PW advection kernel at the given grid size.
pub fn source(nx: i64, ny: i64, nz: i64) -> String {
    format!(
        r#"
// Piacsek-Williams advection (MONC), 3 stencil computations / 3 fields.
kernel pw_advection {{
  grid({nx}, {ny}, {nz})
  halo 1

  field u  : input
  field v  : input
  field w  : input
  field su : output
  field sv : output
  field sw : output

  param tzc1[k]
  param tzc2[k]
  param tzd1[k]
  param tzd2[k]

  const tcx
  const tcy

  compute su {{
    su = tcx * (u[-1,0,0] * (u[0,0,0] + u[-1,0,0]) - u[1,0,0] * (u[0,0,0] + u[1,0,0]))
       + tcy * (u[0,-1,0] * (v[0,-1,0] + v[1,-1,0]) - u[0,1,0] * (v[0,0,0] + v[1,0,0]))
       + tzc1[k] * u[0,0,-1] * (w[0,0,-1] + w[1,0,-1])
       - tzc2[k] * u[0,0,1] * (w[0,0,0] + w[1,0,0])
  }}

  compute sv {{
    sv = tcx * (v[-1,0,0] * (u[-1,0,0] + u[-1,1,0]) - v[1,0,0] * (u[0,0,0] + u[0,1,0]))
       + tcy * (v[0,-1,0] * (v[0,0,0] + v[0,-1,0]) - v[0,1,0] * (v[0,0,0] + v[0,1,0]))
       + tzc1[k] * v[0,0,-1] * (w[0,0,-1] + w[0,1,-1])
       - tzc2[k] * v[0,0,1] * (w[0,0,0] + w[0,1,0])
  }}

  compute sw {{
    sw = tcx * (w[-1,0,0] * (u[-1,0,0] + u[-1,0,1]) - w[1,0,0] * (u[0,0,0] + u[0,0,1]))
       + tcy * (w[0,-1,0] * (v[0,-1,0] + v[0,-1,1]) - w[0,1,0] * (v[0,0,0] + v[0,0,1]))
       + tzd1[k] * w[0,0,-1] * (w[0,0,0] + w[0,0,-1])
       - tzd2[k] * w[0,0,1] * (w[0,0,0] + w[0,0,1])
  }}
}}
"#
    )
}

/// Inputs to the native golden implementation.
#[derive(Debug, Clone)]
pub struct PwInputs {
    /// Zonal velocity.
    pub u: Grid3,
    /// Meridional velocity.
    pub v: Grid3,
    /// Vertical velocity.
    pub w: Grid3,
    /// Vertical coefficient 1.
    pub tzc1: Param1,
    /// Vertical coefficient 2.
    pub tzc2: Param1,
    /// Vertical coefficient (w equation) 1.
    pub tzd1: Param1,
    /// Vertical coefficient (w equation) 2.
    pub tzd2: Param1,
    /// Horizontal coefficient x.
    pub tcx: f64,
    /// Horizontal coefficient y.
    pub tcy: f64,
}

impl PwInputs {
    /// Deterministic test inputs at the given size.
    pub fn random(nx: i64, ny: i64, nz: i64, seed: u64) -> Self {
        let mut u = Grid3::zeros([nx, ny, nz], 1);
        let mut v = Grid3::zeros([nx, ny, nz], 1);
        let mut w = Grid3::zeros([nx, ny, nz], 1);
        u.fill_random(seed);
        v.fill_random(seed + 1);
        w.fill_random(seed + 2);
        let mut tzc1 = Param1::zeros(nz, 1);
        let mut tzc2 = Param1::zeros(nz, 1);
        let mut tzd1 = Param1::zeros(nz, 1);
        let mut tzd2 = Param1::zeros(nz, 1);
        tzc1.fill_with(|k| 0.25 + 0.001 * k as f64);
        tzc2.fill_with(|k| 0.25 - 0.001 * k as f64);
        tzd1.fill_with(|k| 0.2 + 0.002 * k as f64);
        tzd2.fill_with(|k| 0.2 - 0.002 * k as f64);
        Self {
            u,
            v,
            w,
            tzc1,
            tzc2,
            tzd1,
            tzd2,
            tcx: 0.25,
            tcy: 0.25,
        }
    }

    /// These inputs as the runners take them, keyed by the DSL's names.
    pub fn data(&self) -> KernelData {
        kernel_data!(self; u, v, w, tzc1, tzc2, tzd1, tzd2; tcx, tcy)
    }
}

/// Native golden implementation: computes `(su, sv, sw)`.
pub fn golden(inp: &PwInputs) -> (Grid3, Grid3, Grid3) {
    let n = inp.u.n;
    let mut su = Grid3::zeros(n, 1);
    let mut sv = Grid3::zeros(n, 1);
    let mut sw = Grid3::zeros(n, 1);
    let (u, v, w) = (&inp.u, &inp.v, &inp.w);
    let (tcx, tcy) = (inp.tcx, inp.tcy);
    for (i, j, k) in su.interior().collect::<Vec<_>>() {
        let su_v = tcx
            * (u.get(i - 1, j, k) * (u.get(i, j, k) + u.get(i - 1, j, k))
                - u.get(i + 1, j, k) * (u.get(i, j, k) + u.get(i + 1, j, k)))
            + tcy
                * (u.get(i, j - 1, k) * (v.get(i, j - 1, k) + v.get(i + 1, j - 1, k))
                    - u.get(i, j + 1, k) * (v.get(i, j, k) + v.get(i + 1, j, k)))
            + inp.tzc1.get(k) * u.get(i, j, k - 1) * (w.get(i, j, k - 1) + w.get(i + 1, j, k - 1))
            - inp.tzc2.get(k) * u.get(i, j, k + 1) * (w.get(i, j, k) + w.get(i + 1, j, k));
        su.set(i, j, k, su_v);

        let sv_v = tcx
            * (v.get(i - 1, j, k) * (u.get(i - 1, j, k) + u.get(i - 1, j + 1, k))
                - v.get(i + 1, j, k) * (u.get(i, j, k) + u.get(i, j + 1, k)))
            + tcy
                * (v.get(i, j - 1, k) * (v.get(i, j, k) + v.get(i, j - 1, k))
                    - v.get(i, j + 1, k) * (v.get(i, j, k) + v.get(i, j + 1, k)))
            + inp.tzc1.get(k) * v.get(i, j, k - 1) * (w.get(i, j, k - 1) + w.get(i, j + 1, k - 1))
            - inp.tzc2.get(k) * v.get(i, j, k + 1) * (w.get(i, j, k) + w.get(i, j + 1, k));
        sv.set(i, j, k, sv_v);

        let sw_v = tcx
            * (w.get(i - 1, j, k) * (u.get(i - 1, j, k) + u.get(i - 1, j, k + 1))
                - w.get(i + 1, j, k) * (u.get(i, j, k) + u.get(i, j, k + 1)))
            + tcy
                * (w.get(i, j - 1, k) * (v.get(i, j - 1, k) + v.get(i, j - 1, k + 1))
                    - w.get(i, j + 1, k) * (v.get(i, j, k) + v.get(i, j, k + 1)))
            + inp.tzd1.get(k) * w.get(i, j, k - 1) * (w.get(i, j, k) + w.get(i, j, k - 1))
            - inp.tzd2.get(k) * w.get(i, j, k + 1) * (w.get(i, j, k) + w.get(i, j, k + 1));
        sw.set(i, j, k, sw_v);
    }
    (su, sv, sw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmls_frontend::parse_kernel;

    #[test]
    fn source_parses_with_expected_shape() {
        let k = parse_kernel(&source(16, 16, 8)).unwrap();
        assert_eq!(k.name, "pw_advection");
        assert_eq!(k.grid, vec![16, 16, 8]);
        assert_eq!(k.fields.len(), 6);
        assert_eq!(k.params.len(), 4);
        assert_eq!(k.consts.len(), 2);
        assert_eq!(
            k.computes.len(),
            3,
            "PW advection has 3 stencil computations"
        );
        // 7 ports per CU: 6 fields + 1 small-data bundle.
        assert_eq!(k.external_fields().len(), 6);
    }

    #[test]
    fn golden_is_deterministic() {
        let inp = PwInputs::random(6, 5, 4, 7);
        let (a1, _, _) = golden(&inp);
        let (a2, _, _) = golden(&inp);
        assert_eq!(a1.max_diff(&a2), 0.0);
    }

    #[test]
    fn golden_uniform_flow_gives_zero_horizontal_terms() {
        // With u = v = w = const, all advection differences cancel except
        // the vertical coefficient asymmetry.
        let mut inp = PwInputs::random(4, 4, 4, 0);
        inp.u.fill_with(|_, _, _| 1.0);
        inp.v.fill_with(|_, _, _| 1.0);
        inp.w.fill_with(|_, _, _| 1.0);
        let (su, _, _) = golden(&inp);
        for (i, j, k) in su.interior().collect::<Vec<_>>() {
            let expect = inp.tzc1.get(k) * 2.0 - inp.tzc2.get(k) * 2.0;
            assert!((su.get(i, j, k) - expect).abs() < 1e-12);
        }
    }
}
