//! Abstract syntax of the stencil kernel DSL.
//!
//! The DSL plays the role PSyclone plays in the paper: a high-level,
//! domain-scientist-facing description of a multi-field stencil kernel that
//! the frontend lowers into the stencil dialect. A kernel looks like:
//!
//! ```text
//! kernel pw_advection {
//!   grid(64, 64, 64)
//!   halo 1
//!
//!   field u  : input
//!   field su : output
//!   param tzc1[k]
//!   const tcx
//!
//!   compute su {
//!     su = tcx * (u[1,0,0] + u[-1,0,0]) + tzc1[k] * u[0,0,0]
//!   }
//! }
//! ```

use std::collections::BTreeSet;
use std::fmt;

use shmls_ir::error::IrResult;
use shmls_ir::interp::{Buffer, KernelData};
use shmls_ir::rng::Rng;
use shmls_ir::types::StencilBounds;
use shmls_ir::{ir_bail, ir_ensure};

/// Role of a field in the kernel signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldKind {
    /// Read-only external input.
    Input,
    /// Write-only external output.
    Output,
    /// Read and written externally.
    InOut,
    /// Internal intermediate (never touches external memory).
    Temp,
}

impl fmt::Display for FieldKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldKind::Input => write!(f, "input"),
            FieldKind::Output => write!(f, "output"),
            FieldKind::InOut => write!(f, "inout"),
            FieldKind::Temp => write!(f, "temp"),
        }
    }
}

/// A grid field declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDecl {
    /// Field name.
    pub name: String,
    /// Role.
    pub kind: FieldKind,
}

/// A small static 1D parameter array over one grid axis — the paper's
/// "small data" that the transformation copies into BRAM (step 8).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamDecl {
    /// Parameter name.
    pub name: String,
    /// Axis the array spans (0 = i, 1 = j, 2 = k).
    pub axis: usize,
}

/// A runtime scalar constant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConstDecl {
    /// Constant name.
    pub name: String,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
}

/// Intrinsic functions available in compute expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Intrinsic {
    /// `abs(x)`.
    Abs,
    /// `min(a, b)`.
    Min,
    /// `max(a, b)`.
    Max,
    /// Fortran `sign(a, b)` = `|a| * signum(b)` (with `sign(a, 0) = |a|`).
    Sign,
    /// `sqrt(x)`.
    Sqrt,
}

impl Intrinsic {
    /// Parse an intrinsic by name.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "abs" => Some(Intrinsic::Abs),
            "min" => Some(Intrinsic::Min),
            "max" => Some(Intrinsic::Max),
            "sign" => Some(Intrinsic::Sign),
            "sqrt" => Some(Intrinsic::Sqrt),
            _ => None,
        }
    }

    /// Number of arguments the intrinsic takes.
    pub fn arity(&self) -> usize {
        match self {
            Intrinsic::Abs | Intrinsic::Sqrt => 1,
            Intrinsic::Min | Intrinsic::Max | Intrinsic::Sign => 2,
        }
    }
}

/// A compute expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Floating literal.
    Num(f64),
    /// Reference to a declared scalar constant.
    ConstRef(String),
    /// `field[o1, o2, …]` — neighbour access at a constant offset.
    FieldRef {
        /// Field name.
        name: String,
        /// Per-axis offsets.
        offsets: Vec<i64>,
    },
    /// `param[axis ± off]` — small-data access indexed by a grid axis.
    ParamRef {
        /// Parameter name.
        name: String,
        /// Offset from the axis index.
        offset: i64,
    },
    /// Unary negation.
    Neg(Box<Expr>),
    /// Binary operation.
    Bin {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Intrinsic call.
    Call {
        /// The intrinsic.
        f: Intrinsic,
        /// Arguments.
        args: Vec<Expr>,
    },
}

/// One stencil computation: `target = expr` over the interior.
#[derive(Debug, Clone, PartialEq)]
pub struct ComputeDef {
    /// The field written.
    pub target: String,
    /// The per-point expression.
    pub expr: Expr,
}

/// A full kernel definition.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelDef {
    /// Kernel name (becomes the generated function's symbol).
    pub name: String,
    /// Grid extents per axis (rank 1–3).
    pub grid: Vec<i64>,
    /// Halo width (same in every direction of every axis).
    pub halo: i64,
    /// Field declarations, in order.
    pub fields: Vec<FieldDecl>,
    /// Small-data parameter arrays.
    pub params: Vec<ParamDecl>,
    /// Scalar constants.
    pub consts: Vec<ConstDecl>,
    /// Stencil computations, in program order.
    pub computes: Vec<ComputeDef>,
}

impl KernelDef {
    /// Grid rank.
    pub fn rank(&self) -> usize {
        self.grid.len()
    }

    /// Total interior points.
    pub fn points(&self) -> i64 {
        self.grid.iter().product()
    }

    /// Find a field declaration by name.
    pub fn field(&self, name: &str) -> Option<&FieldDecl> {
        self.fields.iter().find(|f| f.name == name)
    }

    /// Find a parameter by name.
    pub fn param(&self, name: &str) -> Option<&ParamDecl> {
        self.params.iter().find(|p| p.name == name)
    }

    /// Externally visible fields (everything but temps), in order.
    pub fn external_fields(&self) -> Vec<&FieldDecl> {
        self.fields
            .iter()
            .filter(|f| f.kind != FieldKind::Temp)
            .collect()
    }

    /// Deterministic input data: every input/inout field (halo-padded),
    /// every axis parameter, every scalar constant, each on its own stream
    /// of `seed`. Values are small and irregular so a flipped access or
    /// dropped term moves some interior point.
    pub fn seeded_data(&self, seed: u64) -> KernelData {
        let bounds = StencilBounds::from_extents(&self.grid).grown(self.halo);
        let root = Rng::new(seed);
        let filled = |stream: u64, shape: Vec<i64>, origin: Vec<i64>, bound: f64| {
            let mut rng = root.fork(stream);
            let mut buffer = Buffer::zeroed(shape, origin);
            buffer.data.fill_with(|| rng.coarse_f64(-bound, bound));
            buffer
        };
        let mut data = KernelData::default();
        let (fields, params) = (self.fields.len() as u64, self.params.len() as u64);
        for (stream, field) in (0..).zip(&self.fields) {
            if matches!(field.kind, FieldKind::Input | FieldKind::InOut) {
                let buffer = filled(stream, bounds.extents(), bounds.lb.clone(), 4.0);
                data = data.buffer(&field.name, buffer);
            }
        }
        for (stream, p) in (fields..).zip(&self.params) {
            let extent = self.grid[p.axis] + 2 * self.halo;
            data = data.buffer(&p.name, filled(stream, vec![extent], vec![0], 2.0));
        }
        for (stream, c) in (fields + params..).zip(&self.consts) {
            data = data.scalar(&c.name, root.fork(stream).coarse_f64(-2.0, 2.0));
        }
        data
    }

    /// Semantic validation: names resolve, kinds make sense, offsets fit in
    /// the halo, every output is computed, reads-before-writes are sound.
    pub fn validate(&self) -> IrResult<()> {
        ir_ensure!(
            (1..=3).contains(&self.rank()),
            "kernel `{}`: rank must be 1–3, got {}",
            self.name,
            self.rank()
        );
        ir_ensure!(
            self.grid.iter().all(|&e| e > 0),
            "kernel `{}`: grid extents must be positive",
            self.name
        );
        ir_ensure!(
            self.halo >= 0,
            "kernel `{}`: halo must be non-negative",
            self.name
        );
        // Unique names across all declaration kinds.
        let mut seen = BTreeSet::new();
        for n in self
            .fields
            .iter()
            .map(|f| &f.name)
            .chain(self.params.iter().map(|p| &p.name))
            .chain(self.consts.iter().map(|c| &c.name))
        {
            ir_ensure!(
                seen.insert(n.clone()),
                "kernel `{}`: duplicate name `{n}`",
                self.name
            );
        }
        for p in &self.params {
            ir_ensure!(
                p.axis < self.rank(),
                "kernel `{}`: param `{}` spans axis {} but rank is {}",
                self.name,
                p.name,
                p.axis,
                self.rank()
            );
        }
        // Track which fields have been written so far.
        let mut written: BTreeSet<&str> = BTreeSet::new();
        let mut compute_targets: BTreeSet<&str> = BTreeSet::new();
        for c in &self.computes {
            let Some(target) = self.field(&c.target) else {
                ir_bail!(
                    "kernel `{}`: compute targets unknown field `{}`",
                    self.name,
                    c.target
                );
            };
            ir_ensure!(
                target.kind != FieldKind::Input,
                "kernel `{}`: compute writes input field `{}`",
                self.name,
                c.target
            );
            self.validate_expr(&c.expr, &written)?;
            written.insert(&c.target);
            compute_targets.insert(&c.target);
        }
        for f in &self.fields {
            if matches!(f.kind, FieldKind::Output | FieldKind::Temp) {
                ir_ensure!(
                    compute_targets.contains(f.name.as_str()),
                    "kernel `{}`: {} field `{}` is never computed",
                    self.name,
                    f.kind,
                    f.name
                );
            }
        }
        Ok(())
    }

    fn validate_expr(&self, expr: &Expr, written: &BTreeSet<&str>) -> IrResult<()> {
        match expr {
            Expr::Num(_) => Ok(()),
            Expr::ConstRef(name) => {
                ir_ensure!(
                    self.consts.iter().any(|c| &c.name == name),
                    "kernel `{}`: unknown constant `{name}`",
                    self.name
                );
                Ok(())
            }
            Expr::FieldRef { name, offsets } => {
                let Some(field) = self.field(name) else {
                    ir_bail!("kernel `{}`: unknown field `{name}`", self.name);
                };
                ir_ensure!(
                    offsets.len() == self.rank(),
                    "kernel `{}`: access to `{name}` has {} offsets, rank is {}",
                    self.name,
                    offsets.len(),
                    self.rank()
                );
                ir_ensure!(
                    offsets.iter().all(|o| o.abs() <= self.halo),
                    "kernel `{}`: access to `{name}` at {offsets:?} exceeds halo {}",
                    self.name,
                    self.halo
                );
                // Reading temps/outputs requires a prior compute; reading a
                // computed field at a non-zero offset requires halo data the
                // producer did not write, so restrict to centre accesses
                // unless the field is external input/inout.
                match field.kind {
                    FieldKind::Input => {}
                    FieldKind::InOut => {}
                    FieldKind::Output | FieldKind::Temp => {
                        ir_ensure!(
                            written.contains(name.as_str()),
                            "kernel `{}`: field `{name}` read before it is computed",
                            self.name
                        );
                    }
                }
                if written.contains(name.as_str()) {
                    ir_ensure!(
                        offsets.iter().all(|&o| o == 0),
                        "kernel `{}`: computed field `{name}` may only be read at offset 0 \
                         (its halo is never produced)",
                        self.name
                    );
                }
                Ok(())
            }
            Expr::ParamRef { name, offset } => {
                if self.param(name).is_none() {
                    ir_bail!("kernel `{}`: unknown param `{name}`", self.name);
                }
                ir_ensure!(
                    offset.abs() <= self.halo,
                    "kernel `{}`: param `{name}` offset {offset} exceeds halo",
                    self.name
                );
                Ok(())
            }
            Expr::Neg(e) => self.validate_expr(e, written),
            Expr::Bin { lhs, rhs, .. } => {
                self.validate_expr(lhs, written)?;
                self.validate_expr(rhs, written)
            }
            Expr::Call { f, args } => {
                ir_ensure!(
                    args.len() == f.arity(),
                    "kernel `{}`: {f:?} takes {} args, got {}",
                    self.name,
                    f.arity(),
                    args.len()
                );
                for a in args {
                    self.validate_expr(a, written)?;
                }
                Ok(())
            }
        }
    }

    /// Names of input fields read by compute `c` *before* any compute has
    /// written them (i.e. true external reads).
    pub fn referenced_fields(expr: &Expr, out: &mut BTreeSet<String>) {
        match expr {
            Expr::FieldRef { name, .. } => {
                out.insert(name.clone());
            }
            Expr::Neg(e) => Self::referenced_fields(e, out),
            Expr::Bin { lhs, rhs, .. } => {
                Self::referenced_fields(lhs, out);
                Self::referenced_fields(rhs, out);
            }
            Expr::Call { args, .. } => {
                for a in args {
                    Self::referenced_fields(a, out);
                }
            }
            _ => {}
        }
    }
}

/// Convenience constructors for building kernels programmatically (the
/// "builder API" counterpart to the text syntax).
pub mod build {
    use super::*;

    /// Literal.
    pub fn num(v: f64) -> Expr {
        Expr::Num(v)
    }

    /// Constant reference.
    pub fn cst(name: &str) -> Expr {
        Expr::ConstRef(name.to_string())
    }

    /// Field access.
    pub fn field(name: &str, offsets: &[i64]) -> Expr {
        Expr::FieldRef {
            name: name.to_string(),
            offsets: offsets.to_vec(),
        }
    }

    /// Param access at the axis index plus `offset`.
    pub fn param(name: &str, offset: i64) -> Expr {
        Expr::ParamRef {
            name: name.to_string(),
            offset,
        }
    }

    /// `lhs + rhs`.
    pub fn add(lhs: Expr, rhs: Expr) -> Expr {
        Expr::Bin {
            op: BinOp::Add,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// `lhs - rhs`.
    pub fn sub(lhs: Expr, rhs: Expr) -> Expr {
        Expr::Bin {
            op: BinOp::Sub,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// `lhs * rhs`.
    pub fn mul(lhs: Expr, rhs: Expr) -> Expr {
        Expr::Bin {
            op: BinOp::Mul,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// `lhs / rhs`.
    pub fn div(lhs: Expr, rhs: Expr) -> Expr {
        Expr::Bin {
            op: BinOp::Div,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// `-e`.
    pub fn neg(e: Expr) -> Expr {
        Expr::Neg(Box::new(e))
    }

    /// Intrinsic call.
    pub fn call(f: Intrinsic, args: Vec<Expr>) -> Expr {
        Expr::Call { f, args }
    }
}

#[cfg(test)]
mod tests {
    use super::build::*;
    use super::*;

    fn simple_kernel() -> KernelDef {
        KernelDef {
            name: "lap".into(),
            grid: vec![8, 8],
            halo: 1,
            fields: vec![
                FieldDecl {
                    name: "a".into(),
                    kind: FieldKind::Input,
                },
                FieldDecl {
                    name: "b".into(),
                    kind: FieldKind::Output,
                },
            ],
            params: vec![],
            consts: vec![],
            computes: vec![ComputeDef {
                target: "b".into(),
                expr: add(field("a", &[-1, 0]), field("a", &[1, 0])),
            }],
        }
    }

    #[test]
    fn valid_kernel_passes() {
        simple_kernel().validate().unwrap();
    }

    #[test]
    fn offset_beyond_halo_rejected() {
        let mut k = simple_kernel();
        k.computes[0].expr = field("a", &[-2, 0]);
        let e = k.validate().unwrap_err();
        assert!(e.to_string().contains("exceeds halo"), "{e}");
    }

    #[test]
    fn rank_mismatch_rejected() {
        let mut k = simple_kernel();
        k.computes[0].expr = field("a", &[-1]);
        let e = k.validate().unwrap_err();
        assert!(e.to_string().contains("offsets, rank"), "{e}");
    }

    #[test]
    fn write_to_input_rejected() {
        let mut k = simple_kernel();
        k.computes[0].target = "a".into();
        let e = k.validate().unwrap_err();
        assert!(e.to_string().contains("writes input"), "{e}");
    }

    #[test]
    fn read_before_compute_rejected() {
        let mut k = simple_kernel();
        k.fields.push(FieldDecl {
            name: "t".into(),
            kind: FieldKind::Temp,
        });
        k.computes.insert(
            0,
            ComputeDef {
                target: "b".into(),
                expr: field("t", &[0, 0]),
            },
        );
        k.computes.push(ComputeDef {
            target: "t".into(),
            expr: num(0.0),
        });
        let e = k.validate().unwrap_err();
        assert!(e.to_string().contains("read before it is computed"), "{e}");
    }

    #[test]
    fn computed_field_offset_read_rejected() {
        let mut k = simple_kernel();
        k.fields.push(FieldDecl {
            name: "t".into(),
            kind: FieldKind::Temp,
        });
        k.computes.insert(
            0,
            ComputeDef {
                target: "t".into(),
                expr: field("a", &[0, 0]),
            },
        );
        k.computes[1].expr = field("t", &[1, 0]);
        let e = k.validate().unwrap_err();
        assert!(e.to_string().contains("offset 0"), "{e}");
    }

    #[test]
    fn uncomputed_output_rejected() {
        let mut k = simple_kernel();
        k.fields.push(FieldDecl {
            name: "c".into(),
            kind: FieldKind::Output,
        });
        let e = k.validate().unwrap_err();
        assert!(e.to_string().contains("never computed"), "{e}");
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut k = simple_kernel();
        k.consts.push(ConstDecl { name: "a".into() });
        let e = k.validate().unwrap_err();
        assert!(e.to_string().contains("duplicate name"), "{e}");
    }

    #[test]
    fn intrinsic_arity_checked() {
        let mut k = simple_kernel();
        k.computes[0].expr = call(Intrinsic::Min, vec![num(1.0)]);
        let e = k.validate().unwrap_err();
        assert!(e.to_string().contains("takes 2 args"), "{e}");
    }

    #[test]
    fn referenced_fields_collects() {
        let k = simple_kernel();
        let mut set = BTreeSet::new();
        KernelDef::referenced_fields(&k.computes[0].expr, &mut set);
        assert!(set.contains("a"));
        assert_eq!(set.len(), 1);
    }
}
