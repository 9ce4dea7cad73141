//! Transformation step 1: classification of kernel arguments.
//!
//!> *"Where the data arguments in a stencil region are classified as either
//! > stencil field inputs, stencil field outputs or constants."* (§3.3)
//!
//! We classify every argument of the stencil function by type and use:
//! stencil fields split into inputs / outputs / in-outs depending on whether
//! they are `stencil.load`ed, `stencil.store`d, or both; `memref` arguments
//! are the small static data of step 8; scalars are runtime constants.

use shmls_dialects::stencil;
use shmls_ir::error::IrResult;
use shmls_ir::prelude::*;
use shmls_ir::{ir_bail, ir_ensure};

/// Classification of one kernel argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArgClass {
    /// Stencil field that is only read.
    FieldInput,
    /// Stencil field that is only written.
    FieldOutput,
    /// Stencil field that is read and written.
    FieldInOut,
    /// Small static data (copied to BRAM by step 8).
    SmallData,
    /// Runtime scalar constant.
    Scalar,
}

impl ArgClass {
    /// True for any stencil-field class.
    pub fn is_field(self) -> bool {
        matches!(
            self,
            ArgClass::FieldInput | ArgClass::FieldOutput | ArgClass::FieldInOut
        )
    }

    /// True when the field is read from external memory.
    pub fn is_read(self) -> bool {
        matches!(self, ArgClass::FieldInput | ArgClass::FieldInOut)
    }

    /// True when the field is written to external memory.
    pub fn is_written(self) -> bool {
        matches!(self, ArgClass::FieldOutput | ArgClass::FieldInOut)
    }
}

/// The classification of a stencil kernel's arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Classification {
    /// One class per function argument, in order.
    pub classes: Vec<ArgClass>,
}

impl Classification {
    /// Argument indices of a given class.
    pub fn indices_of(&self, class: ArgClass) -> Vec<usize> {
        self.classes
            .iter()
            .enumerate()
            .filter_map(|(i, &c)| (c == class).then_some(i))
            .collect()
    }

    /// Argument indices of fields read from external memory.
    pub fn read_fields(&self) -> Vec<usize> {
        self.classes
            .iter()
            .enumerate()
            .filter_map(|(i, &c)| (c.is_field() && c.is_read()).then_some(i))
            .collect()
    }

    /// Argument indices of fields written to external memory.
    pub fn written_fields(&self) -> Vec<usize> {
        self.classes
            .iter()
            .enumerate()
            .filter_map(|(i, &c)| (c.is_field() && c.is_written()).then_some(i))
            .collect()
    }

    /// Argument indices of all stencil fields.
    pub fn fields(&self) -> Vec<usize> {
        self.classes
            .iter()
            .enumerate()
            .filter_map(|(i, &c)| c.is_field().then_some(i))
            .collect()
    }

    /// Argument indices of scalar constants.
    pub fn scalars(&self) -> Vec<usize> {
        self.indices_of(ArgClass::Scalar)
    }
}

/// Classify the arguments of a stencil `func.func`.
pub fn classify_args(ctx: &Context, func: OpId) -> IrResult<Classification> {
    ir_ensure!(
        ctx.op_name(func) == shmls_dialects::func::FUNC,
        "classify_args expects a func.func, got `{}`",
        ctx.op_name(func)
    );
    let entry = ctx
        .entry_block(func)
        .ok_or_else(|| shmls_ir::ir_error!("function has no body"))?;
    let mut classes = Vec::new();
    for &arg in ctx.block_args(entry) {
        let class = match ctx.value_type(arg) {
            Type::StencilField { .. } => {
                let mut read = false;
                let mut written = false;
                for u in ctx.value_uses(arg) {
                    match ctx.op_name(u.op) {
                        stencil::LOAD => read = true,
                        stencil::STORE if u.operand_index == 1 => written = true,
                        stencil::EXTERNAL_STORE if u.operand_index == 0 => written = true,
                        other => {
                            ir_bail!("unexpected use of field argument by `{other}`")
                        }
                    }
                }
                match (read, written) {
                    (true, false) => ArgClass::FieldInput,
                    (false, true) => ArgClass::FieldOutput,
                    (true, true) => ArgClass::FieldInOut,
                    // A declared-but-unused field (its stencil.load was
                    // dead-code-eliminated): classified as an input so it
                    // still receives an AXI interface, but downstream
                    // stages are demand-driven and create no streams for
                    // it.
                    (false, false) => ArgClass::FieldInput,
                }
            }
            Type::MemRef { .. } => ArgClass::SmallData,
            Type::F64 | Type::F32 | Type::I64 | Type::I32 | Type::Index => ArgClass::Scalar,
            other => ir_bail!("cannot classify argument of type {other}"),
        };
        classes.push(class);
    }
    Ok(Classification { classes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmls_dialects::builtin::create_module;
    use shmls_frontend::{lower_kernel, parse_kernel};

    fn classify(src: &str) -> Classification {
        let k = parse_kernel(src).unwrap();
        let mut ctx = Context::new();
        let (_m, body) = create_module(&mut ctx);
        let lowered = lower_kernel(&mut ctx, body, &k).unwrap();
        classify_args(&ctx, lowered.func).unwrap()
    }

    #[test]
    fn classifies_all_roles() {
        let c = classify(
            r#"
kernel k {
  grid(4, 4)
  halo 1
  field a : input
  field b : output
  field c : inout
  param tz[j]
  const w
  compute b { b = w * a[0,0] + tz[j] }
  compute c { c = c[0,0] + b[0,0] }
}
"#,
        );
        assert_eq!(
            c.classes,
            vec![
                ArgClass::FieldInput,
                ArgClass::FieldOutput,
                ArgClass::FieldInOut,
                ArgClass::SmallData,
                ArgClass::Scalar,
            ]
        );
        assert_eq!(c.read_fields(), vec![0, 2]);
        assert_eq!(c.written_fields(), vec![1, 2]);
        assert_eq!(c.fields(), vec![0, 1, 2]);
        assert_eq!(c.scalars(), vec![4]);
    }

    #[test]
    fn class_predicates() {
        assert!(ArgClass::FieldInOut.is_field());
        assert!(ArgClass::FieldInOut.is_read());
        assert!(ArgClass::FieldInOut.is_written());
        assert!(!ArgClass::SmallData.is_field());
        assert!(!ArgClass::FieldInput.is_written());
    }

    #[test]
    fn non_func_rejected() {
        let mut ctx = Context::new();
        let (m, _body) = create_module(&mut ctx);
        let e = classify_args(&ctx, m).unwrap_err();
        assert!(e.to_string().contains("expects a func.func"), "{e}");
    }
}
