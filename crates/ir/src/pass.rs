//! Pass manager: named IR-to-IR transformations composed into pipelines,
//! with optional verification between passes and per-pass timing.

use std::time::{Duration, Instant};

use crate::error::IrResult;
use crate::ir::{Context, OpId};
use crate::verifier::{verify_with, OpVerifiers};

/// A compiler pass over a module-rooted IR.
pub trait Pass {
    /// Pass name for diagnostics/timing (e.g. `"stencil-to-hls"`).
    fn name(&self) -> &str;

    /// Run the pass on `root` in `ctx`.
    fn run(&self, ctx: &mut Context, root: OpId) -> IrResult<()>;
}

/// Timing record for one executed pass.
#[derive(Debug, Clone)]
pub struct PassTiming {
    /// The pass name.
    pub name: String,
    /// Wall-clock duration of the pass body (excludes verification).
    pub duration: Duration,
    /// Live op count after the pass.
    pub ops_after: usize,
}

/// A linear pipeline of passes.
#[derive(Default)]
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
    /// Verify after every pass (on by default; the cost is negligible at
    /// kernel-IR sizes and it localises transform bugs precisely).
    pub verify_each: bool,
    verifiers: OpVerifiers,
}

impl PassManager {
    /// An empty pipeline with verification enabled.
    pub fn new() -> Self {
        Self {
            passes: Vec::new(),
            verify_each: true,
            verifiers: OpVerifiers::default(),
        }
    }

    /// Append a pass.
    pub fn add(&mut self, pass: impl Pass + 'static) -> &mut Self {
        self.passes.push(Box::new(pass));
        self
    }

    /// Run the pipeline, returning per-pass timings.
    pub fn run(&self, ctx: &mut Context, root: OpId) -> IrResult<Vec<PassTiming>> {
        let mut timings = Vec::with_capacity(self.passes.len());
        if self.verify_each {
            verify_with(ctx, root, &self.verifiers)
                .map_err(|e| e.context("verification before pipeline"))?;
        }
        for pass in &self.passes {
            let start = Instant::now();
            pass.run(ctx, root)
                .map_err(|e| e.context(format!("pass `{}`", pass.name())))?;
            let duration = start.elapsed();
            if self.verify_each {
                verify_with(ctx, root, &self.verifiers)
                    .map_err(|e| e.context(format!("verification after pass `{}`", pass.name())))?;
            }
            timings.push(PassTiming {
                name: pass.name().to_string(),
                duration,
                ops_after: ctx.num_ops(),
            });
        }
        Ok(timings)
    }
}

/// Wrap a closure as a [`Pass`].
pub struct FnPass<F> {
    name: String,
    f: F,
}

impl<F: Fn(&mut Context, OpId) -> IrResult<()>> FnPass<F> {
    /// A pass running `f` under `name`.
    pub fn new(name: impl Into<String>, f: F) -> Self {
        Self {
            name: name.into(),
            f,
        }
    }
}

impl<F: Fn(&mut Context, OpId) -> IrResult<()>> Pass for FnPass<F> {
    fn name(&self) -> &str {
        &self.name
    }
    fn run(&self, ctx: &mut Context, root: OpId) -> IrResult<()> {
        (self.f)(ctx, root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir_bail;
    use std::collections::BTreeMap;

    fn module(ctx: &mut Context) -> OpId {
        let m = ctx.create_op("builtin.module", vec![], vec![], BTreeMap::new());
        let r = ctx.add_region(m);
        ctx.add_block(r, vec![]);
        m
    }

    #[test]
    fn pipeline_runs_in_order() {
        let mut ctx = Context::new();
        let m = module(&mut ctx);
        let mut pm = PassManager::new();
        pm.add(FnPass::new("first", |ctx: &mut Context, root| {
            ctx.set_attr(root, "first", crate::attributes::Attribute::Unit);
            Ok(())
        }));
        pm.add(FnPass::new("second", |ctx: &mut Context, root| {
            if ctx.attr(root, "first").is_none() {
                ir_bail!("first pass did not run");
            }
            ctx.set_attr(root, "second", crate::attributes::Attribute::Unit);
            Ok(())
        }));
        let timings = pm.run(&mut ctx, m).unwrap();
        assert_eq!(timings.len(), 2);
        assert!(ctx.attr(m, "second").is_some());
    }

    #[test]
    fn failing_pass_reports_name() {
        let mut ctx = Context::new();
        let m = module(&mut ctx);
        let mut pm = PassManager::new();
        pm.add(FnPass::new("boom", |_: &mut Context, _| ir_bail!("kaput")));
        let e = pm.run(&mut ctx, m).unwrap_err();
        assert!(e.to_string().contains("pass `boom`"), "{e}");
    }

    #[test]
    fn broken_ir_caught_after_pass() {
        let mut ctx = Context::new();
        let m = module(&mut ctx);
        let mut pm = PassManager::new();
        pm.add(FnPass::new("breaker", |ctx: &mut Context, root| {
            // Create a def-after-use violation.
            let block = ctx.entry_block(root).unwrap();
            let def = ctx.create_op(
                "test.def",
                vec![],
                vec![crate::types::Type::F64],
                BTreeMap::new(),
            );
            let v = ctx.result(def, 0);
            let user = ctx.create_op("test.use", vec![v], vec![], BTreeMap::new());
            ctx.append_op(block, user);
            ctx.append_op(block, def);
            Ok(())
        }));
        let e = pm.run(&mut ctx, m).unwrap_err();
        assert!(
            e.to_string().contains("verification after pass `breaker`"),
            "{e}"
        );
    }
}
