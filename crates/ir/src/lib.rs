//! # shmls-ir — SSA multi-dialect IR infrastructure
//!
//! A from-scratch reproduction of the slice of MLIR/xDSL that the
//! Stencil-HMLS paper builds on: a region-based SSA IR with operations,
//! blocks, values, attributes and types; a textual printer/parser pair; a
//! structural verifier with per-dialect hooks; a greedy pattern rewriter; a
//! pass manager; and a reference interpreter used both for testing lowering
//! correctness and as the execution core of the FPGA dataflow simulator.
//!
//! The design goal is *behavioural* fidelity to the concepts the paper's
//! transformations rely on (ops/regions/streams/attributes), not API
//! fidelity to MLIR.
//!
//! ## Quick tour
//!
//! ```
//! use shmls_ir::prelude::*;
//! use std::collections::BTreeMap;
//!
//! let mut ctx = Context::new();
//! let module = ctx.create_op("builtin.module", vec![], vec![], BTreeMap::new());
//! let region = ctx.add_region(module);
//! let block = ctx.add_block(region, vec![]);
//!
//! let mut b = OpBuilder::at_block_end(&mut ctx, block);
//! let cst = b.build_value("arith.constant", vec![], Type::F64);
//! let cst_op = ctx.defining_op(cst).unwrap();
//! ctx.set_attr(cst_op, "value", Attribute::f64(2.0));
//!
//! let text = print_op(&ctx, module);
//! let (ctx2, module2) = parse_op(&text).unwrap();
//! assert_eq!(print_op(&ctx2, module2), text);
//! ```

#![warn(missing_docs)]

pub mod attributes;
pub mod builder;
pub mod bytecode;
pub mod error;
pub mod interp;
pub mod ir;
pub mod json;
pub mod parser;
pub mod pass;
pub mod printer;
pub mod rewrite;
pub mod rng;
pub mod scalar;
pub mod timing;
pub mod types;
pub mod verifier;

/// Commonly used items, re-exported for downstream crates.
pub mod prelude {
    pub use crate::attributes::Attribute;
    pub use crate::builder::{InsertPoint, OpBuilder};
    pub use crate::error::{IrError, IrResult};
    pub use crate::ir::{BlockId, Context, IdMap, IdSet, OpId, RegionId, Use, ValueDef, ValueId};
    pub use crate::parser::{parse_attribute, parse_op, parse_op_into, parse_type};
    pub use crate::printer::print_op;
    pub use crate::timing::{Stopwatch, TimingRecord, Timings};
    pub use crate::types::{StencilBounds, Type};
}
