//! Targeted interpreter coverage: arithmetic edge cases, math intrinsics,
//! comparison predicates, and runtime error paths.

use shmls_ir::interp::{Machine, NoExtern, RtValue};
use shmls_ir::prelude::*;

/// Run a one-expression function: `main(args...) -> result` where the body
/// is given as generic-form IR text.
fn run(body: &str, params: &str, args: &[RtValue]) -> IrResult<Vec<RtValue>> {
    let src = format!(
        "\"builtin.module\"() ({{\n^bb():\n\"func.func\"() ({{\n^bb({params}):\n{body}\n}}) {{sym_name = \"main\"}} : () -> ()\n}}) : () -> ()"
    );
    let (ctx, module) = parse_op(&src).map_err(|e| e.context("parse"))?;
    let mut no = NoExtern;
    let mut m = Machine::new(&ctx, module, &mut no);
    m.call("main", args)
}

#[test]
fn math_intrinsics() {
    let cases: Vec<(&str, f64, f64)> = vec![
        ("math.absf", -2.5, 2.5),
        ("math.sqrt", 9.0, 3.0),
        ("math.exp", 0.0, 1.0),
    ];
    for (op, input, expect) in cases {
        let body = format!("%r = \"{op}\"(%x) : (f64) -> (f64)\n\"func.return\"(%r) : (f64) -> ()");
        let out = run(&body, "%x: f64", &[RtValue::F64(input)]).unwrap();
        assert_eq!(out, vec![RtValue::F64(expect)], "{op}");
    }
}

#[test]
fn copysign_and_fma() {
    let body =
        "%r = \"math.copysign\"(%x, %y) : (f64, f64) -> (f64)\n\"func.return\"(%r) : (f64) -> ()";
    let out = run(
        body,
        "%x: f64, %y: f64",
        &[RtValue::F64(3.0), RtValue::F64(-1.0)],
    )
    .unwrap();
    assert_eq!(out, vec![RtValue::F64(-3.0)]);

    let body = "%r = \"math.fma\"(%a, %b, %c) : (f64, f64, f64) -> (f64)\n\"func.return\"(%r) : (f64) -> ()";
    let out = run(
        body,
        "%a: f64, %b: f64, %c: f64",
        &[RtValue::F64(2.0), RtValue::F64(3.0), RtValue::F64(1.0)],
    )
    .unwrap();
    assert_eq!(out, vec![RtValue::F64(7.0)]);
}

#[test]
fn integer_division_by_zero_is_error() {
    for op in ["arith.divsi", "arith.remsi"] {
        let body = format!(
            "%r = \"{op}\"(%a, %b) : (i64, i64) -> (i64)\n\"func.return\"(%r) : (i64) -> ()"
        );
        let e = run(
            &body,
            "%a: i64, %b: i64",
            &[RtValue::I64(7), RtValue::I64(0)],
        )
        .unwrap_err();
        assert!(e.to_string().contains("division by zero"), "{op}: {e}");
        // The one quotient i64 cannot hold is an error too, not a panic.
        let e = run(
            &body,
            "%a: i64, %b: i64",
            &[RtValue::I64(i64::MIN), RtValue::I64(-1)],
        )
        .unwrap_err();
        assert!(e.to_string().contains("signed overflow"), "{op}: {e}");
    }
}

#[test]
fn float_division_by_zero_is_ieee() {
    let body =
        "%r = \"arith.divf\"(%a, %b) : (f64, f64) -> (f64)\n\"func.return\"(%r) : (f64) -> ()";
    let out = run(
        body,
        "%a: f64, %b: f64",
        &[RtValue::F64(1.0), RtValue::F64(0.0)],
    )
    .unwrap();
    assert_eq!(out, vec![RtValue::F64(f64::INFINITY)]);
}

#[test]
fn cmp_predicates() {
    for (pred, a, b, expect) in [
        ("eq", 3, 3, true),
        ("ne", 3, 4, true),
        ("slt", -1, 0, true),
        ("sle", 0, 0, true),
        ("sgt", 1, 0, true),
        ("sge", 0, 1, false),
    ] {
        let body = format!(
            "%r = \"arith.cmpi\"(%a, %b) {{predicate = \"{pred}\"}} : (i64, i64) -> (i1)\n\"func.return\"(%r) : (i1) -> ()"
        );
        let out = run(
            &body,
            "%a: i64, %b: i64",
            &[RtValue::I64(a), RtValue::I64(b)],
        )
        .unwrap();
        assert_eq!(out, vec![RtValue::Bool(expect)], "cmpi {pred}");
    }
    for (pred, a, b, expect) in [
        ("oeq", 1.0, 1.0, true),
        ("one", 1.0, 2.0, true),
        ("one", f64::NAN, 1.0, false),
        ("one", 1.0, f64::NAN, false),
        ("olt", 1.0, 2.0, true),
        ("ole", 2.0, 2.0, true),
        ("ogt", 3.0, 2.0, true),
        ("oge", 1.0, 2.0, false),
    ] {
        let body = format!(
            "%r = \"arith.cmpf\"(%a, %b) {{predicate = \"{pred}\"}} : (f64, f64) -> (i1)\n\"func.return\"(%r) : (i1) -> ()"
        );
        let out = run(
            &body,
            "%a: f64, %b: f64",
            &[RtValue::F64(a), RtValue::F64(b)],
        )
        .unwrap();
        assert_eq!(out, vec![RtValue::Bool(expect)], "cmpf {pred}");
    }
}

#[test]
fn unknown_predicate_is_error() {
    let body = "%r = \"arith.cmpi\"(%a, %a) {predicate = \"ult\"} : (i64, i64) -> (i1)\n\"func.return\"(%r) : (i1) -> ()";
    let e = run(body, "%a: i64", &[RtValue::I64(1)]).unwrap_err();
    assert!(e.to_string().contains("unsupported cmpi predicate"), "{e}");
}

#[test]
fn type_confusion_is_caught() {
    // Passing a float where the body does integer arithmetic.
    let body =
        "%r = \"arith.addi\"(%a, %a) : (i64, i64) -> (i64)\n\"func.return\"(%r) : (i64) -> ()";
    let e = run(body, "%a: i64", &[RtValue::F64(1.0)]).unwrap_err();
    assert!(e.to_string().contains("expected integer"), "{e}");
}

#[test]
fn call_arity_mismatch_is_error() {
    let body = "\"func.return\"() : () -> ()";
    let e = run(body, "%a: f64", &[]).unwrap_err();
    assert!(e.to_string().contains("takes 1 args, got 0"), "{e}");
}

#[test]
fn negative_loop_step_rejected() {
    let body = "%z = \"arith.constant\"() {value = 0 : index} : () -> (index)\n\
                \"scf.for\"(%z, %z, %z) ({\n^bb(%i: index):\n\"scf.yield\"() : () -> ()\n}) : (index, index, index) -> ()\n\
                \"func.return\"() : () -> ()";
    let e = run(body, "", &[]).unwrap_err();
    assert!(e.to_string().contains("positive step"), "{e}");
}

// ---- regressions from code review ----------------------------------------

#[test]
fn wrong_arity_is_error_not_panic() {
    // A parseable op with too few operands must fail with a diagnostic.
    let body = "%r = \"arith.addf\"(%a) : (f64) -> (f64)\n\"func.return\"(%r) : (f64) -> ()";
    let e = run(body, "%a: f64", &[RtValue::F64(1.0)]).unwrap_err();
    assert!(e.to_string().contains("takes 2 operand(s)"), "{e}");
}

#[test]
fn empty_if_region_is_error_not_panic() {
    let body = "\"scf.if\"(%c) ({}) : (i1) -> ()\n\"func.return\"() : () -> ()";
    let e = run(body, "%c: i1", &[RtValue::Bool(true)]).unwrap_err();
    assert!(e.to_string().contains("no block"), "{e}");
}
