//! End-to-end property test: for *randomly generated* stencil kernels and
//! random input data, every execution path must agree exactly —
//!
//! 1. direct stencil-dialect interpretation,
//! 2. the Von-Neumann CPU loop lowering,
//! 3. the Stencil-HMLS dataflow design on the sequential Kahn engine,
//! 4. the same compile with canonicalisation disabled.
//!
//! This exercises the whole compiler (frontend lowering, canonicalise,
//! the nine HMLS steps, shift buffers, stream duplication, producer
//! chaining, small-data localisation) over a far broader kernel space
//! than the hand-written benchmarks. The property is a seeded sweep
//! ([`shmls_ir::rng::sweep`]): a failure prints the `(seed, case)` pair
//! that reproduces it.

use std::collections::BTreeMap;

use shmls_frontend::ast::build;
use shmls_frontend::{
    ComputeDef, ConstDecl, Expr, FieldDecl, FieldKind, Intrinsic, KernelDef, ParamDecl,
};
use shmls_ir::interp::Buffer;
use shmls_ir::rng::{sweep, Rng};
use stencil_hmls::runner::{run_cpu, run_hls, run_stencil, KernelData};
use stencil_hmls::{compile_kernel, CompileOptions, TargetPath};

/// Recipe for one expression node (resolved against the kernel's declared
/// names during construction).
///
/// Selector fields (`field`, `offset`, `which`) are raw `usize` draws,
/// reduced modulo the relevant range at resolution time (see [`index`]).
/// The pinned regressions below carry huge values like
/// `9223372036854775808`; the explicit modulo makes out-of-range indexing
/// impossible by construction, whatever the raw draw.
#[derive(Debug, Clone)]
enum ExprRecipe {
    Lit(i32),
    Input {
        field: usize,
        offset: usize,
    },
    Computed {
        which: usize,
    },
    Param {
        offset: i8,
    },
    Const,
    Bin {
        op: u8,
        lhs: Box<ExprRecipe>,
        rhs: Box<ExprRecipe>,
    },
    Neg(Box<ExprRecipe>),
    Unary {
        f: u8,
        arg: Box<ExprRecipe>,
    },
    Binary2 {
        f: u8,
        lhs: Box<ExprRecipe>,
        rhs: Box<ExprRecipe>,
    },
}

/// Reduce a raw selector draw into `0..size`, so resolution can never
/// index out of range however extreme the raw value.
fn index(raw: usize, size: usize) -> usize {
    debug_assert!(size > 0, "selector range must be non-empty");
    raw % size
}

fn gen_expr(rng: &mut Rng, depth: usize) -> ExprRecipe {
    if depth == 0 || rng.chance(1, 3) {
        return match rng.range(0, 4) {
            0 => ExprRecipe::Lit(rng.range_i64(-30, 29) as i32),
            1 => ExprRecipe::Input {
                field: rng.next_u64() as usize,
                offset: rng.next_u64() as usize,
            },
            2 => ExprRecipe::Computed {
                which: rng.next_u64() as usize,
            },
            3 => ExprRecipe::Param {
                offset: rng.range_i64(-1, 1) as i8,
            },
            _ => ExprRecipe::Const,
        };
    }
    let sub = |rng: &mut Rng| Box::new(gen_expr(rng, depth - 1));
    match rng.range(0, 3) {
        0 => ExprRecipe::Bin {
            op: rng.range(0, 2) as u8,
            lhs: sub(rng),
            rhs: sub(rng),
        },
        1 => ExprRecipe::Neg(sub(rng)),
        2 => ExprRecipe::Unary {
            f: 0,
            arg: sub(rng),
        },
        _ => ExprRecipe::Binary2 {
            f: rng.range(0, 2) as u8,
            lhs: sub(rng),
            rhs: sub(rng),
        },
    }
}

#[derive(Debug, Clone)]
struct KernelRecipe {
    rank: usize,
    dims: Vec<i64>,
    n_inputs: usize,
    n_temps: usize,
    n_outputs: usize,
    has_param: bool,
    has_const: bool,
    exprs: Vec<ExprRecipe>,
    seed: u64,
}

fn gen_kernel(rng: &mut Rng) -> KernelRecipe {
    let rank = rng.range(1, 3);
    let (n_inputs, n_temps, n_outputs) = (rng.range(1, 3), rng.range(0, 2), rng.range(1, 2));
    KernelRecipe {
        rank,
        dims: (0..rank).map(|_| rng.range_i64(3, 5)).collect(),
        n_inputs,
        n_temps,
        n_outputs,
        has_param: rng.chance(1, 2),
        has_const: rng.chance(1, 2),
        exprs: (0..n_temps + n_outputs).map(|_| gen_expr(rng, 3)).collect(),
        seed: rng.next_u64(),
    }
}

/// Resolve a recipe into a valid expression for compute number `k`
/// (temps are computed before outputs, so computes 0..k are readable).
fn resolve(recipe: &ExprRecipe, r: &KernelRecipe, k: usize) -> Expr {
    match recipe {
        ExprRecipe::Lit(v) => build::num(*v as f64 / 4.0),
        ExprRecipe::Input { field, offset } => {
            let f = index(*field, r.n_inputs);
            // Offsets: one axis gets -1/0/1, the rest 0.
            let mut offsets = vec![0i64; r.rank];
            let pick = index(*offset, r.rank * 3);
            offsets[pick / 3] = (pick % 3) as i64 - 1;
            build::field(&format!("in{f}"), &offsets)
        }
        ExprRecipe::Computed { which } => {
            if k == 0 {
                build::field("in0", &vec![0i64; r.rank])
            } else {
                let c = index(*which, k);
                build::field(&compute_name(r, c), &vec![0i64; r.rank])
            }
        }
        ExprRecipe::Param { offset } => {
            if r.has_param {
                build::param("coef", *offset as i64)
            } else {
                build::num(0.5)
            }
        }
        ExprRecipe::Const => {
            if r.has_const {
                build::cst("alpha")
            } else {
                build::num(1.5)
            }
        }
        ExprRecipe::Bin { op, lhs, rhs } => {
            let l = resolve(lhs, r, k);
            let rr = resolve(rhs, r, k);
            match op % 3 {
                0 => build::add(l, rr),
                1 => build::sub(l, rr),
                _ => build::mul(l, rr),
            }
        }
        ExprRecipe::Neg(e) => build::neg(resolve(e, r, k)),
        ExprRecipe::Unary { f, arg } => {
            let a = resolve(arg, r, k);
            let _ = f;
            build::call(Intrinsic::Abs, vec![a])
        }
        ExprRecipe::Binary2 { f, lhs, rhs } => {
            let l = resolve(lhs, r, k);
            let rr = resolve(rhs, r, k);
            let intrinsic = match f % 3 {
                0 => Intrinsic::Min,
                1 => Intrinsic::Max,
                _ => Intrinsic::Sign,
            };
            build::call(intrinsic, vec![l, rr])
        }
    }
}

fn compute_name(r: &KernelRecipe, index: usize) -> String {
    if index < r.n_temps {
        format!("t{index}")
    } else {
        format!("out{}", index - r.n_temps)
    }
}

fn build_kernel(r: &KernelRecipe) -> KernelDef {
    let mut fields = Vec::new();
    for i in 0..r.n_inputs {
        fields.push(FieldDecl {
            name: format!("in{i}"),
            kind: FieldKind::Input,
        });
    }
    for t in 0..r.n_temps {
        fields.push(FieldDecl {
            name: format!("t{t}"),
            kind: FieldKind::Temp,
        });
    }
    for o in 0..r.n_outputs {
        fields.push(FieldDecl {
            name: format!("out{o}"),
            kind: FieldKind::Output,
        });
    }
    let params = if r.has_param {
        vec![ParamDecl {
            name: "coef".into(),
            axis: r.rank - 1,
        }]
    } else {
        vec![]
    };
    let consts = if r.has_const {
        vec![ConstDecl {
            name: "alpha".into(),
        }]
    } else {
        vec![]
    };
    let computes = (0..r.n_temps + r.n_outputs)
        .map(|k| ComputeDef {
            target: compute_name(r, k),
            expr: resolve(&r.exprs[k], r, k),
        })
        .collect();
    KernelDef {
        name: "random_kernel".into(),
        grid: r.dims.clone(),
        halo: 1,
        fields,
        params,
        consts,
        computes,
    }
}

/// Deterministic fill values in a small range (keeps sign/abs/min/max
/// branches exercised without overflow).
fn fill(seed: u64, len: usize) -> Vec<f64> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state % 2000) as f64 - 1000.0) / 250.0
        })
        .collect()
}

fn make_data(kernel: &KernelDef, seed: u64) -> KernelData {
    let bounded = shmls_ir::types::StencilBounds::from_extents(&kernel.grid).grown(kernel.halo);
    let mut data = KernelData::default();
    let mut s = seed;
    for f in &kernel.fields {
        if f.kind == FieldKind::Input {
            let mut buf = Buffer::zeroed(bounded.extents(), bounded.lb.clone());
            let values = fill(s, buf.data.len());
            buf.data.copy_from_slice(&values);
            s = s.wrapping_add(0x9E3779B9);
            data = data.buffer(&f.name, buf);
        }
    }
    for p in &kernel.params {
        let extent = kernel.grid[p.axis] + 2 * kernel.halo;
        let mut buf = Buffer::zeroed(vec![extent], vec![0]);
        let values = fill(s, buf.data.len());
        buf.data.copy_from_slice(&values);
        s = s.wrapping_add(0x9E3779B9);
        data = data.buffer(&p.name, buf);
    }
    for c in &kernel.consts {
        data = data.scalar(&c.name, ((s % 17) as f64 - 8.0) / 4.0);
    }
    data
}

fn outputs_equal(
    a: &BTreeMap<String, Buffer>,
    b: &BTreeMap<String, Buffer>,
    kernel: &KernelDef,
) -> Result<(), String> {
    let lb = vec![0i64; kernel.rank()];
    let ub = kernel.grid.clone();
    for (name, ba) in a {
        let bb = b
            .get(name)
            .ok_or_else(|| format!("missing output `{name}`"))?;
        for p in shmls_ir::interp::iter_box(&lb, &ub) {
            let va = ba.load(&p).map_err(|e| e.to_string())?;
            let vb = bb.load(&p).map_err(|e| e.to_string())?;
            if va.to_bits() != vb.to_bits() && (va - vb).abs() > 1e-12 {
                return Err(format!("`{name}` at {p:?}: {va} vs {vb}"));
            }
        }
    }
    Ok(())
}

/// The full property: every execution path agrees on `recipe`. Panics
/// with a description on any disagreement. Shared by the random property
/// test and the pinned regression cases below.
fn check_all_paths(recipe: &KernelRecipe) {
    let kernel = build_kernel(recipe);
    kernel.validate().expect("generated kernel must be valid");
    let data = make_data(&kernel, recipe.seed);

    let compiled = compile_kernel(
        kernel.clone(),
        &CompileOptions {
            paths: TargetPath::HlsAndCpu,
            ..Default::default()
        },
    )
    .expect("random kernel compiles");

    let reference = run_stencil(&compiled, &data).expect("stencil path runs");
    let cpu = run_cpu(&compiled, &data).expect("cpu path runs");
    let (hls, _) = run_hls(&compiled, &data).expect("hls path runs");

    if let Err(e) = outputs_equal(&reference, &cpu, &kernel) {
        panic!("cpu mismatch: {e}");
    }
    if let Err(e) = outputs_equal(&reference, &hls, &kernel) {
        panic!("hls mismatch: {e}");
    }

    // The CPU-favoured fuse and its FPGA split must round-trip
    // semantically: fuse all applies, split them back, rebuild the
    // dataflow design, and compare against the reference.
    {
        use shmls_dialects::builtin::create_module;
        use shmls_frontend::lower_kernel;
        let mut ctx = shmls_ir::ir::Context::new();
        let (module, body) = create_module(&mut ctx);
        let lowered = lower_kernel(&mut ctx, body, &kernel).expect("lowers");
        stencil_hmls::fuse::fuse_applies(&mut ctx, lowered.func).expect("fuses");
        stencil_hmls::split::split_applies(&mut ctx, module).expect("splits");
        shmls_ir::verifier::verify_with(&ctx, module, &shmls_dialects::registry())
            .expect("verifies after fuse+split");
        // Interpret the fused+split stencil function directly.
        let mut no = shmls_ir::interp::NoExtern;
        let mut machine = shmls_ir::interp::Machine::new(&ctx, module, &mut no);
        let mut args = Vec::new();
        let mut handles = std::collections::BTreeMap::new();
        let bounded = shmls_ir::types::StencilBounds::from_extents(&kernel.grid).grown(kernel.halo);
        for arg in &compiled.signature.args {
            match arg {
                shmls_frontend::KernelArg::Field(name, _) => {
                    let buffer =
                        data.buffers.get(name).cloned().unwrap_or_else(|| {
                            Buffer::zeroed(bounded.extents(), bounded.lb.clone())
                        });
                    let h = machine.store.alloc(buffer);
                    handles.insert(name.clone(), h);
                    args.push(shmls_ir::interp::RtValue::MemRef(h));
                }
                shmls_frontend::KernelArg::Param(name, _, extent) => {
                    let buffer = data
                        .buffers
                        .get(name)
                        .cloned()
                        .unwrap_or_else(|| Buffer::zeroed(vec![*extent], vec![0]));
                    args.push(shmls_ir::interp::RtValue::MemRef(
                        machine.store.alloc(buffer),
                    ));
                }
                shmls_frontend::KernelArg::Const(name) => {
                    args.push(shmls_ir::interp::RtValue::F64(data.scalars[name]));
                }
            }
        }
        machine.call(&kernel.name, &args).expect("fused+split runs");
        let mut fused_out = BTreeMap::new();
        for arg in &compiled.signature.args {
            if let shmls_frontend::KernelArg::Field(name, kind) = arg {
                if matches!(
                    kind,
                    shmls_frontend::FieldKind::Output | shmls_frontend::FieldKind::InOut
                ) {
                    fused_out.insert(
                        name.clone(),
                        machine.store.get(handles[name]).unwrap().clone(),
                    );
                }
            }
        }
        if let Err(e) = outputs_equal(&reference, &fused_out, &kernel) {
            panic!("fuse+split mismatch: {e}");
        }
    }

    // Canonicalisation must not change semantics.
    let unopt = compile_kernel(
        kernel.clone(),
        &CompileOptions {
            paths: TargetPath::HlsOnly,
            optimize: false,
            ..Default::default()
        },
    )
    .expect("unoptimised compile");
    let (hls_unopt, _) = run_hls(&unopt, &data).expect("unoptimised hls runs");
    if let Err(e) = outputs_equal(&reference, &hls_unopt, &kernel) {
        panic!("canonicalise changed values: {e}");
    }
}

#[test]
fn all_paths_agree_on_random_kernels() {
    sweep(0xe9_0001, 64, gen_kernel, check_all_paths);
}

// Three regressions the property once shrank to, pinned as deterministic
// tests. Their signature is the huge raw selector values (e.g.
// `9223372036854775808`) that must reduce in-range via [`index`] rather
// than panic in the recipe resolver.

#[test]
fn pinned_rank1_two_temps_huge_selectors() {
    let r1 = KernelRecipe {
        rank: 1,
        dims: vec![3],
        n_inputs: 2,
        n_temps: 2,
        n_outputs: 1,
        has_param: false,
        has_const: true,
        exprs: vec![
            ExprRecipe::Unary {
                f: 0,
                arg: Box::new(ExprRecipe::Neg(Box::new(ExprRecipe::Binary2 {
                    f: 0,
                    lhs: Box::new(ExprRecipe::Lit(0)),
                    rhs: Box::new(ExprRecipe::Input {
                        field: 9223372036854775808,
                        offset: 9909478,
                    }),
                }))),
            },
            ExprRecipe::Binary2 {
                f: 2,
                lhs: Box::new(ExprRecipe::Neg(Box::new(ExprRecipe::Const))),
                rhs: Box::new(ExprRecipe::Bin {
                    op: 1,
                    lhs: Box::new(ExprRecipe::Bin {
                        op: 2,
                        lhs: Box::new(ExprRecipe::Lit(-26)),
                        rhs: Box::new(ExprRecipe::Const),
                    }),
                    rhs: Box::new(ExprRecipe::Binary2 {
                        f: 0,
                        lhs: Box::new(ExprRecipe::Computed {
                            which: 13816947040361381355,
                        }),
                        rhs: Box::new(ExprRecipe::Lit(-13)),
                    }),
                }),
            },
            ExprRecipe::Bin {
                op: 1,
                lhs: Box::new(ExprRecipe::Bin {
                    op: 2,
                    lhs: Box::new(ExprRecipe::Const),
                    rhs: Box::new(ExprRecipe::Input {
                        field: 13795840102280043210,
                        offset: 4144246166807939672,
                    }),
                }),
                rhs: Box::new(ExprRecipe::Unary {
                    f: 0,
                    arg: Box::new(ExprRecipe::Const),
                }),
            },
        ],
        seed: 14057307636149143301,
    };
    check_all_paths(&r1);
}

#[test]
fn pinned_rank3_param_and_chained_computed() {
    let r2 = KernelRecipe {
        rank: 3,
        dims: vec![3, 3, 3],
        n_inputs: 1,
        n_temps: 0,
        n_outputs: 2,
        has_param: true,
        has_const: true,
        exprs: vec![
            ExprRecipe::Param { offset: 0 },
            ExprRecipe::Binary2 {
                f: 0,
                lhs: Box::new(ExprRecipe::Computed { which: 16344541 }),
                rhs: Box::new(ExprRecipe::Binary2 {
                    f: 1,
                    lhs: Box::new(ExprRecipe::Computed {
                        which: 11697982217553240617,
                    }),
                    rhs: Box::new(ExprRecipe::Const),
                }),
            },
        ],
        seed: 9719278599767481186,
    };
    check_all_paths(&r2);
}

#[test]
fn pinned_rank3_double_negated_const_temp() {
    let r3 = KernelRecipe {
        rank: 3,
        dims: vec![3, 3, 3],
        n_inputs: 2,
        n_temps: 2,
        n_outputs: 1,
        has_param: false,
        has_const: true,
        exprs: vec![
            ExprRecipe::Unary {
                f: 0,
                arg: Box::new(ExprRecipe::Input {
                    field: 24,
                    offset: 1321723315434644032,
                }),
            },
            ExprRecipe::Neg(Box::new(ExprRecipe::Neg(Box::new(ExprRecipe::Const)))),
            ExprRecipe::Bin {
                op: 1,
                lhs: Box::new(ExprRecipe::Unary {
                    f: 0,
                    arg: Box::new(ExprRecipe::Bin {
                        op: 0,
                        lhs: Box::new(ExprRecipe::Const),
                        rhs: Box::new(ExprRecipe::Const),
                    }),
                }),
                rhs: Box::new(ExprRecipe::Neg(Box::new(ExprRecipe::Input {
                    field: 4892271038459241677,
                    offset: 12994908259423360077,
                }))),
            },
        ],
        seed: 15305569472585956697,
    };
    check_all_paths(&r3);
}
