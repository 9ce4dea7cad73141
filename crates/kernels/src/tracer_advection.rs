//! The tracer advection scheme — the paper's second benchmark kernel,
//! "from the NEMO ocean model which is part of the PSyclone benchmark
//! suite". A representative formulation of the MUSCL tracer-advection
//! step preserving the properties the evaluation depends on:
//!
//! - **24 stencil computations across 6 written fields** (the paper's
//!   complexity characterisation),
//! - a deep producer→consumer dependency chain (ice mask → upstream
//!   indicator → gradients → limited slopes → directional fluxes → tracer
//!   update) that *"do\[es\] not allow for a clean split across
//!   components"*, and
//! - **17 memory-mapped arguments** (16 field ports + 1 small-data port),
//!   which forces a single compute unit on the U280 exactly as in §4.
//!
//! Neighbour accesses of intermediate quantities are algebraically inlined
//! one level (reading the *input* fields at the neighbouring point) so all
//! cross-point reads touch external inputs — see DESIGN.md §8.

use shmls_ir::interp::KernelData;

use crate::grid::{fsign, Grid3, Param1};

/// DSL source for the tracer advection kernel at the given grid size.
pub fn source(nx: i64, ny: i64, nz: i64) -> String {
    TEMPLATE
        .replace("@NX@", &nx.to_string())
        .replace("@NY@", &ny.to_string())
        .replace("@NZ@", &nz.to_string())
}

const TEMPLATE: &str = r#"
// NEMO-style MUSCL tracer advection, 24 stencil computations / 6 fields.
kernel tracer_advection {
  grid(@NX@, @NY@, @NZ@)
  halo 1

  field tsn     : input
  field pun     : input
  field pvn     : input
  field pwn     : input
  field tmask   : input
  field umask   : input
  field vmask   : input
  field rnfmsk  : input
  field upsmsk  : input
  field ztfreez : input

  field mydomain : output
  field zind     : output
  field zslpx    : output
  field zslpy    : output
  field zwx      : output
  field zwy      : output

  field zice   : temp
  field zgrx   : temp
  field zgry   : temp
  field zgrxm  : temp
  field zgrym  : temp
  field zslpx2 : temp
  field zslpy2 : temp
  field z0u    : temp
  field zalpha : temp
  field zu     : temp
  field zzwx   : temp
  field zzwy   : temp
  field z0v    : temp
  field zbeta  : temp
  field zv     : temp
  field zzwyx  : temp
  field zzwyy  : temp
  field zbtr   : temp

  param rnfmsk_z[k]
  param e3t[k]

  const pdt

  // 1. Freezing-point ice indicator.
  compute zice { zice = 0.5 - 0.5 * sign(1.0, tsn[0,0,0] - ztfreez[0,0,0]) }
  // 2. Upstream-scheme indicator (river mouths, polynyas, ice shelves).
  compute zind {
    zind = max(rnfmsk[0,0,0] * rnfmsk_z[k], max(upsmsk[0,0,0], zice[0,0,0])) * tmask[0,0,0]
  }
  // 3-6. Masked tracer gradients (x/y, forward/backward).
  compute zgrx  { zgrx  = umask[0,0,0]  * (tsn[1,0,0] - tsn[0,0,0])  }
  compute zgry  { zgry  = vmask[0,0,0]  * (tsn[0,1,0] - tsn[0,0,0])  }
  compute zgrxm { zgrxm = umask[-1,0,0] * (tsn[0,0,0] - tsn[-1,0,0]) }
  compute zgrym { zgrym = vmask[0,-1,0] * (tsn[0,0,0] - tsn[0,-1,0]) }
  // 7-8. Raw slopes (monotone where gradients agree).
  compute zslpx {
    zslpx = (zgrx[0,0,0] + zgrxm[0,0,0]) * (0.25 + sign(0.25, zgrx[0,0,0] * zgrxm[0,0,0]))
  }
  compute zslpy {
    zslpy = (zgry[0,0,0] + zgrym[0,0,0]) * (0.25 + sign(0.25, zgry[0,0,0] * zgrym[0,0,0]))
  }
  // 9-10. Slope limiting.
  compute zslpx2 {
    zslpx2 = sign(1.0, zslpx[0,0,0])
           * min(abs(zslpx[0,0,0]), min(2.0 * abs(zgrxm[0,0,0]), 2.0 * abs(zgrx[0,0,0])))
  }
  compute zslpy2 {
    zslpy2 = sign(1.0, zslpy[0,0,0])
           * min(abs(zslpy[0,0,0]), min(2.0 * abs(zgrym[0,0,0]), 2.0 * abs(zgry[0,0,0])))
  }
  // 11-16. x-direction flux.
  compute z0u    { z0u = sign(0.5, pun[0,0,0]) }
  compute zalpha { zalpha = 0.5 - z0u[0,0,0] }
  compute zu     { zu = z0u[0,0,0] - 0.5 * pun[0,0,0] * pdt }
  compute zzwx   { zzwx = tsn[1,0,0] + zind[0,0,0] * zu[0,0,0] * zslpx2[0,0,0] }
  compute zzwy   { zzwy = tsn[0,0,0] + zind[0,0,0] * zu[0,0,0] * zslpx2[0,0,0] }
  compute zwx {
    zwx = pun[0,0,0] * (zalpha[0,0,0] * zzwx[0,0,0] + (1.0 - zalpha[0,0,0]) * zzwy[0,0,0])
  }
  // 17-22. y-direction flux.
  compute z0v   { z0v = sign(0.5, pvn[0,0,0]) }
  compute zbeta { zbeta = 0.5 - z0v[0,0,0] }
  compute zv    { zv = z0v[0,0,0] - 0.5 * pvn[0,0,0] * pdt }
  compute zzwyx { zzwyx = tsn[0,1,0] + zind[0,0,0] * zv[0,0,0] * zslpy2[0,0,0] }
  compute zzwyy { zzwyy = tsn[0,0,0] + zind[0,0,0] * zv[0,0,0] * zslpy2[0,0,0] }
  compute zwy {
    zwy = pvn[0,0,0] * (zbeta[0,0,0] * zzwyx[0,0,0] + (1.0 - zbeta[0,0,0]) * zzwyy[0,0,0])
  }
  // 23. Inverse cell metric.
  compute zbtr { zbtr = e3t[k] * tmask[0,0,0] }
  // 24. Tracer update (horizontal flux divergence + vertical advection).
  compute mydomain {
    mydomain = tsn[0,0,0]
             - pdt * zbtr[0,0,0]
             * (zwx[0,0,0] + zwy[0,0,0] + pwn[0,0,0] * (tsn[0,0,1] - tsn[0,0,-1]))
  }
}
"#;

/// Inputs to the native golden implementation.
#[derive(Debug, Clone)]
pub struct TracerInputs {
    /// Tracer field ("now").
    pub tsn: Grid3,
    /// Velocities.
    pub pun: Grid3,
    /// Velocities.
    pub pvn: Grid3,
    /// Velocities.
    pub pwn: Grid3,
    /// Land/sea masks.
    pub tmask: Grid3,
    /// Land/sea masks.
    pub umask: Grid3,
    /// Land/sea masks.
    pub vmask: Grid3,
    /// River-mouth mask.
    pub rnfmsk: Grid3,
    /// Upstream-scheme mask.
    pub upsmsk: Grid3,
    /// Freezing temperature.
    pub ztfreez: Grid3,
    /// Vertical river-mouth coefficient.
    pub rnfmsk_z: Param1,
    /// Vertical cell metric.
    pub e3t: Param1,
    /// Timestep.
    pub pdt: f64,
}

impl TracerInputs {
    /// Deterministic test inputs at the given size.
    pub fn random(nx: i64, ny: i64, nz: i64, seed: u64) -> Self {
        let n = [nx, ny, nz];
        let mk = |s: u64| {
            let mut g = Grid3::zeros(n, 1);
            g.fill_random(seed + s);
            g
        };
        let tsn = mk(0);
        let pun = mk(1);
        let pvn = mk(2);
        let pwn = mk(3);
        // Masks are 0/1 patterns.
        let mut tmask = mk(4);
        let mut umask = mk(5);
        let mut vmask = mk(6);
        for g in [&mut tmask, &mut umask, &mut vmask] {
            for v in &mut g.data {
                *v = if *v > -0.8 { 1.0 } else { 0.0 };
            }
        }
        let mut rnfmsk = mk(7);
        let mut upsmsk = mk(8);
        for g in [&mut rnfmsk, &mut upsmsk] {
            for v in &mut g.data {
                *v = (*v * 0.5 + 0.5).clamp(0.0, 1.0);
            }
        }
        let mut ztfreez = mk(9);
        for v in &mut ztfreez.data {
            *v *= 0.1;
        }
        let mut rnfmsk_z = Param1::zeros(nz, 1);
        rnfmsk_z.fill_with(|k| if k < nz / 2 { 1.0 } else { 0.0 });
        let mut e3t = Param1::zeros(nz, 1);
        e3t.fill_with(|k| 1.0 / (1.0 + 0.05 * k as f64));
        Self {
            tsn,
            pun,
            pvn,
            pwn,
            tmask,
            umask,
            vmask,
            rnfmsk,
            upsmsk,
            ztfreez,
            rnfmsk_z,
            e3t,
            pdt: 0.5,
        }
    }

    /// These inputs as the runners take them, keyed by the DSL's names.
    pub fn data(&self) -> KernelData {
        kernel_data!(self; tsn, pun, pvn, pwn, tmask, umask, vmask, rnfmsk, upsmsk, ztfreez,
            rnfmsk_z, e3t; pdt)
    }
}

/// Outputs of the tracer advection kernel (the six written fields).
#[derive(Debug, Clone)]
pub struct TracerOutputs {
    /// Updated tracer.
    pub mydomain: Grid3,
    /// Upstream indicator.
    pub zind: Grid3,
    /// Raw slope, x.
    pub zslpx: Grid3,
    /// Raw slope, y.
    pub zslpy: Grid3,
    /// Flux, x.
    pub zwx: Grid3,
    /// Flux, y.
    pub zwy: Grid3,
}

/// Native golden implementation.
pub fn golden(inp: &TracerInputs) -> TracerOutputs {
    let n = inp.tsn.n;
    let mut out = TracerOutputs {
        mydomain: Grid3::zeros(n, 1),
        zind: Grid3::zeros(n, 1),
        zslpx: Grid3::zeros(n, 1),
        zslpy: Grid3::zeros(n, 1),
        zwx: Grid3::zeros(n, 1),
        zwy: Grid3::zeros(n, 1),
    };
    for (i, j, k) in out.mydomain.interior().collect::<Vec<_>>() {
        let tsn = |di: i64, dj: i64, dk: i64| inp.tsn.get(i + di, j + dj, k + dk);
        let zice = 0.5 - 0.5 * fsign(1.0, tsn(0, 0, 0) - inp.ztfreez.get(i, j, k));
        let zind = (inp.rnfmsk.get(i, j, k) * inp.rnfmsk_z.get(k))
            .max(inp.upsmsk.get(i, j, k).max(zice))
            * inp.tmask.get(i, j, k);
        out.zind.set(i, j, k, zind);

        let zgrx = inp.umask.get(i, j, k) * (tsn(1, 0, 0) - tsn(0, 0, 0));
        let zgry = inp.vmask.get(i, j, k) * (tsn(0, 1, 0) - tsn(0, 0, 0));
        let zgrxm = inp.umask.get(i - 1, j, k) * (tsn(0, 0, 0) - tsn(-1, 0, 0));
        let zgrym = inp.vmask.get(i, j - 1, k) * (tsn(0, 0, 0) - tsn(0, -1, 0));

        let zslpx = (zgrx + zgrxm) * (0.25 + fsign(0.25, zgrx * zgrxm));
        let zslpy = (zgry + zgrym) * (0.25 + fsign(0.25, zgry * zgrym));
        out.zslpx.set(i, j, k, zslpx);
        out.zslpy.set(i, j, k, zslpy);

        let zslpx2 = fsign(1.0, zslpx) * zslpx.abs().min((2.0 * zgrxm.abs()).min(2.0 * zgrx.abs()));
        let zslpy2 = fsign(1.0, zslpy) * zslpy.abs().min((2.0 * zgrym.abs()).min(2.0 * zgry.abs()));

        let pun = inp.pun.get(i, j, k);
        let z0u = fsign(0.5, pun);
        let zalpha = 0.5 - z0u;
        let zu = z0u - 0.5 * pun * inp.pdt;
        let zzwx = tsn(1, 0, 0) + zind * zu * zslpx2;
        let zzwy = tsn(0, 0, 0) + zind * zu * zslpx2;
        let zwx = pun * (zalpha * zzwx + (1.0 - zalpha) * zzwy);
        out.zwx.set(i, j, k, zwx);

        let pvn = inp.pvn.get(i, j, k);
        let z0v = fsign(0.5, pvn);
        let zbeta = 0.5 - z0v;
        let zv = z0v - 0.5 * pvn * inp.pdt;
        let zzwyx = tsn(0, 1, 0) + zind * zv * zslpy2;
        let zzwyy = tsn(0, 0, 0) + zind * zv * zslpy2;
        let zwy = pvn * (zbeta * zzwyx + (1.0 - zbeta) * zzwyy);
        out.zwy.set(i, j, k, zwy);

        let zbtr = inp.e3t.get(k) * inp.tmask.get(i, j, k);
        let mydomain = tsn(0, 0, 0)
            - inp.pdt * zbtr * (zwx + zwy + inp.pwn.get(i, j, k) * (tsn(0, 0, 1) - tsn(0, 0, -1)));
        out.mydomain.set(i, j, k, mydomain);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmls_frontend::{parse_kernel, FieldKind};

    #[test]
    fn source_parses_with_paper_shape() {
        let k = parse_kernel(&source(8, 8, 4)).unwrap();
        assert_eq!(k.name, "tracer_advection");
        assert_eq!(k.computes.len(), 24, "24 stencil computations (§4)");
        let written = k
            .fields
            .iter()
            .filter(|f| matches!(f.kind, FieldKind::Output | FieldKind::InOut))
            .count();
        assert_eq!(written, 6, "across six fields (§4)");
        // 17 memory-mapped args: 16 external fields + 1 small-data bundle.
        assert_eq!(k.external_fields().len() + 1, 17);
        assert_eq!(k.params.len(), 2);
    }

    #[test]
    fn golden_masked_cells_update_is_pure_tracer() {
        // Where tmask = 0 (land), zbtr = 0, so mydomain = tsn.
        let mut inp = TracerInputs::random(4, 4, 4, 1);
        inp.tmask.fill_with(|_, _, _| 0.0);
        let out = golden(&inp);
        for (i, j, k) in out.mydomain.interior().collect::<Vec<_>>() {
            assert_eq!(out.mydomain.get(i, j, k), inp.tsn.get(i, j, k));
            assert_eq!(out.zind.get(i, j, k), 0.0);
        }
    }

    #[test]
    fn golden_zero_velocity_keeps_tracer() {
        let mut inp = TracerInputs::random(4, 4, 4, 2);
        inp.pun.fill_with(|_, _, _| 0.0);
        inp.pvn.fill_with(|_, _, _| 0.0);
        inp.pwn.fill_with(|_, _, _| 0.0);
        let out = golden(&inp);
        for (i, j, k) in out.mydomain.interior().collect::<Vec<_>>() {
            assert!(
                (out.mydomain.get(i, j, k) - inp.tsn.get(i, j, k)).abs() < 1e-12,
                "zero flow must not change the tracer"
            );
        }
    }

    #[test]
    fn golden_ice_indicator_behaviour() {
        let mut inp = TracerInputs::random(3, 3, 2, 3);
        // Tracer far below freezing everywhere → zice = 1 → zind = tmask.
        inp.tsn.fill_with(|_, _, _| -100.0);
        inp.ztfreez.fill_with(|_, _, _| 0.0);
        let out = golden(&inp);
        for (i, j, k) in out.zind.interior().collect::<Vec<_>>() {
            assert_eq!(out.zind.get(i, j, k), inp.tmask.get(i, j, k));
        }
    }
}
