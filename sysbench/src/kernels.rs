//! Library kernels bound to seeded data, with their hand-written golden
//! outputs — the reference every execution workload checks against.

use std::collections::BTreeMap;

use shmls_ir::interp::Buffer;
use shmls_kernels::{heat3d, laplace, pw_advection, tracer_advection, Grid3};
use stencil_hmls::runner::KernelData;

use crate::inputs::Library;

/// Smoother weight for the Laplace kernel's `w` constant.
const LAPLACE_W: f64 = 0.15;

/// Seeded inputs for PW advection as the runners take them.
pub fn pw_data(inputs: &pw_advection::PwInputs) -> KernelData {
    KernelData::default()
        .buffer("u", inputs.u.to_buffer())
        .buffer("v", inputs.v.to_buffer())
        .buffer("w", inputs.w.to_buffer())
        .buffer("tzc1", inputs.tzc1.to_buffer())
        .buffer("tzc2", inputs.tzc2.to_buffer())
        .buffer("tzd1", inputs.tzd1.to_buffer())
        .buffer("tzd2", inputs.tzd2.to_buffer())
        .scalar("tcx", inputs.tcx)
        .scalar("tcy", inputs.tcy)
}

/// Seeded inputs for heat diffusion as the runners take them.
pub fn heat_data(inputs: &heat3d::Heat3dInputs) -> KernelData {
    KernelData::default()
        .buffer("t", inputs.t.to_buffer())
        .buffer("kz", inputs.kz.to_buffer())
        .scalar("dt", inputs.dt)
}

/// `steps` applications of the PW golden, each step's outputs becoming the
/// next step's `u, v, w` over a zero ring — the march's feedback rule.
pub fn pw_golden(mut inputs: pw_advection::PwInputs, steps: usize) -> Vec<(&'static str, Grid3)> {
    for _ in 1..steps {
        (inputs.u, inputs.v, inputs.w) = pw_advection::golden(&inputs);
    }
    let (su, sv, sw) = pw_advection::golden(&inputs);
    vec![("su", su), ("sv", sv), ("sw", sw)]
}

/// `steps` applications of the heat golden, `tnew` feeding `t`.
pub fn heat_golden(mut inputs: heat3d::Heat3dInputs, steps: usize) -> Vec<(&'static str, Grid3)> {
    for _ in 1..steps {
        inputs.t = heat3d::golden(&inputs);
    }
    vec![("tnew", heat3d::golden(&inputs))]
}

/// A library kernel's seeded inputs and golden outputs at `[nx, ny, nz]`.
pub fn case(
    kind: Library,
    [nx, ny, nz]: [i64; 3],
    seed: u64,
) -> (KernelData, Vec<(&'static str, Grid3)>) {
    match kind {
        Library::Pw => {
            let inputs = pw_advection::PwInputs::random(nx, ny, nz, seed);
            (pw_data(&inputs), pw_golden(inputs, 1))
        }
        Library::Heat3d => {
            let inputs = heat3d::Heat3dInputs::random(nx, ny, nz, seed);
            (heat_data(&inputs), heat_golden(inputs, 1))
        }
        Library::Laplace => {
            let mut a = Grid3::zeros([nx, ny, nz], 1);
            a.fill_random(seed);
            let data = KernelData::default()
                .buffer("a", a.to_buffer())
                .scalar("w", LAPLACE_W);
            (data, vec![("b", laplace::golden_3d(&a, LAPLACE_W))])
        }
        Library::Tracer => {
            let i = tracer_advection::TracerInputs::random(nx, ny, nz, seed);
            let data = KernelData::default()
                .buffer("tsn", i.tsn.to_buffer())
                .buffer("pun", i.pun.to_buffer())
                .buffer("pvn", i.pvn.to_buffer())
                .buffer("pwn", i.pwn.to_buffer())
                .buffer("tmask", i.tmask.to_buffer())
                .buffer("umask", i.umask.to_buffer())
                .buffer("vmask", i.vmask.to_buffer())
                .buffer("rnfmsk", i.rnfmsk.to_buffer())
                .buffer("upsmsk", i.upsmsk.to_buffer())
                .buffer("ztfreez", i.ztfreez.to_buffer())
                .buffer("rnfmsk_z", i.rnfmsk_z.to_buffer())
                .buffer("e3t", i.e3t.to_buffer())
                .scalar("pdt", i.pdt);
            let o = tracer_advection::golden(&i);
            let golden = vec![
                ("mydomain", o.mydomain),
                ("zind", o.zind),
                ("zslpx", o.zslpx),
                ("zslpy", o.zslpy),
                ("zwx", o.zwx),
                ("zwy", o.zwy),
            ];
            (data, golden)
        }
    }
}

/// Largest interior |difference| between a run's outputs and the golden
/// fields; infinite when an output is missing or not a number.
pub fn max_abs_diff(outputs: &BTreeMap<String, Buffer>, golden: &[(&'static str, Grid3)]) -> f64 {
    let mut worst: f64 = 0.0;
    for (name, expected) in golden {
        let Some(buffer) = outputs.get(*name) else {
            return f64::INFINITY;
        };
        let actual = Grid3::from_buffer(buffer);
        if actual.n != expected.n {
            return f64::INFINITY;
        }
        for (i, j, k) in expected.interior() {
            let diff = (actual.get(i, j, k) - expected.get(i, j, k)).abs();
            // `f64::max` would drop a NaN; a NaN output is a wrong output.
            worst = if diff.is_nan() {
                f64::INFINITY
            } else {
                worst.max(diff)
            };
        }
    }
    worst
}
