//! Property test: the DSL printer/parser round-trip on randomly generated
//! kernels — `parse(print(k))` is `k` up to literal-sign normalisation
//! (the parser represents `-3.0` as `Neg(Num(3.0))`). The property is a
//! seeded sweep ([`shmls_ir::rng::sweep`]): a failure prints the
//! `(seed, case)` pair that reproduces it.

use shmls_frontend::ast::build;
use shmls_frontend::{
    kernel_to_source, parse_kernel, ComputeDef, ConstDecl, Expr, FieldDecl, FieldKind, Intrinsic,
    KernelDef, ParamDecl,
};
use shmls_ir::rng::{sweep, Rng};

/// What an expression of one kernel may name.
#[derive(Clone, Copy)]
struct Scope {
    n_inputs: usize,
    rank: usize,
    has_param: bool,
    has_const: bool,
}

fn gen_leaf(rng: &mut Rng, scope: Scope) -> Expr {
    let options = 2 + scope.has_param as usize + scope.has_const as usize;
    match rng.range(0, options - 1) {
        0 => build::num(rng.range_i64(0, 119) as f64 / 4.0),
        1 => {
            let field = rng.range(0, scope.n_inputs - 1);
            let mut offsets = vec![0i64; scope.rank];
            offsets[rng.range(0, scope.rank - 1)] = rng.range_i64(-1, 1);
            build::field(&format!("in{field}"), &offsets)
        }
        2 if scope.has_param => build::param("coef", rng.range_i64(-1, 1)),
        _ => build::cst("alpha"),
    }
}

fn gen_expr(rng: &mut Rng, scope: Scope, depth: usize) -> Expr {
    if depth == 0 || rng.chance(1, 3) {
        return gen_leaf(rng, scope);
    }
    let sub = |rng: &mut Rng| gen_expr(rng, scope, depth - 1);
    match rng.range(0, 4) {
        0 => {
            let (op, l, r) = (rng.range(0, 3), sub(rng), sub(rng));
            match op {
                0 => build::add(l, r),
                1 => build::sub(l, r),
                2 => build::mul(l, r),
                _ => build::div(l, r),
            }
        }
        1 => build::neg(sub(rng)),
        2 => build::call(Intrinsic::Abs, vec![sub(rng)]),
        3 => build::call(Intrinsic::Sqrt, vec![sub(rng)]),
        _ => {
            let intr = *rng.pick(&[Intrinsic::Min, Intrinsic::Max, Intrinsic::Sign]);
            build::call(intr, vec![sub(rng), sub(rng)])
        }
    }
}

/// A kernel that passes `validate` (the few draws that do not are
/// redrawn, so every case of the sweep checks the property).
fn gen_kernel(rng: &mut Rng) -> KernelDef {
    loop {
        let scope = Scope {
            rank: rng.range(1, 3),
            n_inputs: rng.range(1, 2),
            has_param: rng.chance(1, 2),
            has_const: rng.chance(1, 2),
        };
        let grid: Vec<i64> = (0..scope.rank).map(|_| rng.range_i64(3, 7)).collect();
        let exprs = rng.vec(1, 3, |r| gen_expr(r, scope, 3));
        let mut fields: Vec<FieldDecl> = (0..scope.n_inputs)
            .map(|i| FieldDecl {
                name: format!("in{i}"),
                kind: FieldKind::Input,
            })
            .collect();
        fields.extend((0..exprs.len()).map(|o| FieldDecl {
            name: format!("out{o}"),
            kind: FieldKind::Output,
        }));
        let computes = exprs
            .into_iter()
            .enumerate()
            .map(|(o, expr)| ComputeDef {
                target: format!("out{o}"),
                expr,
            })
            .collect();
        let kernel = KernelDef {
            name: "roundtrip".into(),
            grid,
            halo: 1,
            fields,
            params: if scope.has_param {
                vec![ParamDecl {
                    name: "coef".into(),
                    axis: scope.rank - 1,
                }]
            } else {
                vec![]
            },
            consts: if scope.has_const {
                vec![ConstDecl {
                    name: "alpha".into(),
                }]
            } else {
                vec![]
            },
            computes,
        };
        if kernel.validate().is_ok() {
            return kernel;
        }
    }
}

/// `-3.0` parses as `Neg(Num(3.0))`; normalise both sides for comparison.
fn normalize(e: &Expr) -> Expr {
    match e {
        Expr::Neg(inner) => match normalize(inner) {
            Expr::Num(v) => Expr::Num(-v),
            other => build::neg(other),
        },
        Expr::Bin { op, lhs, rhs } => Expr::Bin {
            op: *op,
            lhs: Box::new(normalize(lhs)),
            rhs: Box::new(normalize(rhs)),
        },
        Expr::Call { f, args } => Expr::Call {
            f: *f,
            args: args.iter().map(normalize).collect(),
        },
        other => other.clone(),
    }
}

fn normalize_kernel(k: &KernelDef) -> KernelDef {
    let mut k = k.clone();
    for c in &mut k.computes {
        c.expr = normalize(&c.expr);
    }
    k
}

/// The round-trip property for one kernel, with panic-based assertions so
/// it can be shared between the sweep and the pinned regression.
fn check_round_trip(kernel: &KernelDef) {
    let source = kernel_to_source(kernel);
    let reparsed =
        parse_kernel(&source).unwrap_or_else(|e| panic!("reparse failed: {e}\n{source}"));
    assert_eq!(
        normalize_kernel(&reparsed),
        normalize_kernel(kernel),
        "source:\n{source}"
    );
    // And printing again is a fixpoint.
    assert_eq!(kernel_to_source(&reparsed), source);
}

#[test]
fn dsl_round_trip() {
    sweep(0xd51_0001, 256, gen_kernel, check_round_trip);
}

/// A regression the property once shrank to, pinned as a deterministic
/// test: a nested right-associated add `0.0 + (0.0 + 0.0)`
/// must keep its parentheses through print → parse → print.
#[test]
fn pinned_nested_add_round_trips() {
    let kernel = KernelDef {
        name: "roundtrip".into(),
        grid: vec![3],
        halo: 1,
        fields: vec![
            FieldDecl {
                name: "in0".into(),
                kind: FieldKind::Input,
            },
            FieldDecl {
                name: "out0".into(),
                kind: FieldKind::Output,
            },
        ],
        params: vec![],
        consts: vec![],
        computes: vec![ComputeDef {
            target: "out0".into(),
            expr: build::add(
                build::num(0.0),
                build::add(build::num(0.0), build::num(0.0)),
            ),
        }],
    };
    kernel.validate().unwrap();
    check_round_trip(&kernel);
    // The printed form must parenthesise the right operand — flattening to
    // `0.0 + 0.0 + 0.0` would reparse left-associated and change the tree.
    assert!(
        kernel_to_source(&kernel).contains("0.0 + (0.0 + 0.0)"),
        "printer lost the nested-add grouping:\n{}",
        kernel_to_source(&kernel)
    );
}
