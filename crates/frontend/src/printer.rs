//! Pretty-printer: [`KernelDef`] back to DSL source text.
//!
//! Together with [`crate::parser::parse_kernel`] this gives the DSL a
//! round-trip property (tested in `tests/proptest_dsl.rs`), and lets tools
//! persist programmatically-built kernels in the human-readable format.

use std::fmt::{self, Write};

use crate::ast::{BinOp, Expr, Intrinsic, KernelDef};

/// Render a kernel as DSL source text that re-parses to the same AST.
pub fn kernel_to_source(k: &KernelDef) -> String {
    let mut out = String::new();
    write_kernel(&mut out, k).expect("writing to a String cannot fail");
    out
}

/// Render an expression in DSL syntax.
pub fn expr_to_source(e: &Expr) -> String {
    let mut out = String::new();
    write_expr(&mut out, e).expect("writing to a String cannot fail");
    out
}

/// [`kernel_to_source`] into `out`, every node written in place.
fn write_kernel(out: &mut impl Write, k: &KernelDef) -> fmt::Result {
    writeln!(out, "kernel {} {{", k.name)?;
    out.write_str("  grid(")?;
    for (i, extent) in k.grid.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(out, "{sep}{extent}")?;
    }
    out.write_str(")\n")?;
    writeln!(out, "  halo {}", k.halo)?;
    for f in &k.fields {
        writeln!(out, "  field {} : {}", f.name, f.kind)?;
    }
    for p in &k.params {
        writeln!(out, "  param {}[{}]", p.name, axis_name(p.axis))?;
    }
    for c in &k.consts {
        writeln!(out, "  const {}", c.name)?;
    }
    for c in &k.computes {
        write!(out, "  compute {} {{ {} = ", c.target, c.target)?;
        write_expr(out, &c.expr)?;
        out.write_str(" }\n")?;
    }
    out.write_str("}\n")
}

fn axis_name(axis: usize) -> &'static str {
    match axis {
        0 => "i",
        1 => "j",
        _ => "k",
    }
}

/// Operator precedence for minimal parenthesisation.
fn precedence(e: &Expr) -> u8 {
    match e {
        Expr::Bin {
            op: BinOp::Add | BinOp::Sub,
            ..
        } => 1,
        Expr::Bin {
            op: BinOp::Mul | BinOp::Div,
            ..
        } => 2,
        Expr::Neg(_) => 3,
        _ => 4,
    }
}

/// [`expr_to_source`] into `out`.
fn write_expr(out: &mut impl Write, e: &Expr) -> fmt::Result {
    match e {
        Expr::Num(v) => {
            // Always float-looking so the parser keeps it a literal.
            if v.fract() == 0.0 && v.is_finite() && v.abs() < 1e15 {
                write!(out, "{v:.1}")
            } else {
                write!(out, "{v}")
            }
        }
        Expr::ConstRef(name) => out.write_str(name),
        Expr::FieldRef { name, offsets } => {
            write!(out, "{name}[")?;
            for (i, o) in offsets.iter().enumerate() {
                let sep = if i == 0 { "" } else { "," };
                write!(out, "{sep}{o}")?;
            }
            out.write_str("]")
        }
        Expr::ParamRef { name, offset } => {
            // The frontend only supports axis-indexed params; the axis
            // letter is irrelevant to the AST (it is fixed per param), so
            // `k` is used generically and re-resolves on parse.
            match offset.cmp(&0) {
                std::cmp::Ordering::Equal => write!(out, "{name}[k]"),
                std::cmp::Ordering::Greater => write!(out, "{name}[k+{offset}]"),
                std::cmp::Ordering::Less => write!(out, "{name}[k-{}]", -offset),
            }
        }
        Expr::Neg(inner) => {
            out.write_str("-")?;
            write_wrapped(out, inner, precedence(inner) < 3)
        }
        Expr::Bin { op, lhs, rhs } => {
            let my_prec = precedence(e);
            let sym = match op {
                BinOp::Add => " + ",
                BinOp::Sub => " - ",
                BinOp::Mul => " * ",
                BinOp::Div => " / ",
            };
            write_wrapped(out, lhs, precedence(lhs) < my_prec)?;
            out.write_str(sym)?;
            // The grammar is left-associative: a right child at the same
            // precedence level needs parentheses to keep the tree shape
            // (both for non-associative `-`/`/` semantics and for exact
            // AST round-tripping of `+`/`*`).
            let needs = precedence(rhs) <= my_prec && matches!(rhs.as_ref(), Expr::Bin { .. });
            write_wrapped(out, rhs, needs)
        }
        Expr::Call { f, args } => {
            let name = match f {
                Intrinsic::Abs => "abs",
                Intrinsic::Min => "min",
                Intrinsic::Max => "max",
                Intrinsic::Sign => "sign",
                Intrinsic::Sqrt => "sqrt",
            };
            write!(out, "{name}(")?;
            for (i, arg) in args.iter().enumerate() {
                if i > 0 {
                    out.write_str(", ")?;
                }
                write_expr(out, arg)?;
            }
            out.write_str(")")
        }
    }
}

/// `e`, in parentheses if it `needs` them.
fn write_wrapped(out: &mut impl Write, e: &Expr, needs: bool) -> fmt::Result {
    if needs {
        out.write_str("(")?;
        write_expr(out, e)?;
        out.write_str(")")
    } else {
        write_expr(out, e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::build::*;
    use crate::parser::parse_kernel;

    #[test]
    fn simple_kernel_round_trips() {
        let src = r#"
kernel k {
  grid(8, 8)
  halo 1
  field a : input
  field b : output
  param tz[j]
  const w
  compute b { b = w * (a[-1,0] + a[1,0]) - tz[j+1] * 2.0 }
}
"#;
        let k = parse_kernel(src).unwrap();
        let printed = kernel_to_source(&k);
        let reparsed = parse_kernel(&printed).unwrap();
        assert_eq!(k, reparsed, "printed:\n{printed}");
    }

    #[test]
    fn subtraction_associativity_preserved() {
        // (a - b) - c  vs  a - (b - c) must print differently.
        let a = || num(1.0);
        let left = sub(sub(a(), num(2.0)), num(3.0));
        let right = sub(a(), sub(num(2.0), num(3.0)));
        assert_ne!(expr_to_source(&left), expr_to_source(&right));
        assert_eq!(expr_to_source(&left), "1.0 - 2.0 - 3.0");
        assert_eq!(expr_to_source(&right), "1.0 - (2.0 - 3.0)");
    }

    #[test]
    fn negation_parenthesised() {
        let e = mul(neg(add(num(1.0), num(2.0))), num(3.0));
        assert_eq!(expr_to_source(&e), "-(1.0 + 2.0) * 3.0");
    }

    #[test]
    fn whole_numbers_stay_floats() {
        assert_eq!(expr_to_source(&num(4.0)), "4.0");
        assert_eq!(expr_to_source(&num(0.25)), "0.25");
    }
}
