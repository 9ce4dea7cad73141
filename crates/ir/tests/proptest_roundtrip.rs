//! Property tests: printer/parser round-trips on randomly generated
//! types, attributes, and whole modules. Each property is a seeded sweep
//! ([`shmls_ir::rng::sweep`]): a failure prints the `(seed, case)` pair
//! that reproduces it.

use shmls_ir::prelude::*;
use shmls_ir::rng::{sweep, Rng};

/// Root seed of every sweep in this file.
const SEED: u64 = 0x1e_0001;

// ---- generators ---------------------------------------------------------

fn gen_scalar_type(rng: &mut Rng) -> Type {
    rng.pick(&[
        Type::I1,
        Type::I32,
        Type::I64,
        Type::Index,
        Type::F32,
        Type::F64,
    ])
    .clone()
}

fn gen_type(rng: &mut Rng, depth: usize) -> Type {
    if depth == 0 || rng.chance(1, 3) {
        return gen_scalar_type(rng);
    }
    let d = depth - 1;
    match rng.range(0, 7) {
        0 => Type::memref(rng.vec(0, 2, |r| r.range_i64(1, 15)), gen_type(rng, d)),
        1 => Type::llvm_ptr(gen_type(rng, d)),
        2 => Type::LlvmStruct(rng.vec(0, 3, |r| gen_type(r, d))),
        3 => Type::llvm_array(rng.range(1, 63) as u64, gen_type(rng, d)),
        4 => Type::hls_stream(gen_type(rng, d)),
        5 => Type::stencil_result(gen_type(rng, d)),
        6 => {
            let bounds = rng.vec(1, 3, |r| (r.range_i64(-4, 3), r.range_i64(5, 69)));
            let (lb, ub): (Vec<i64>, Vec<i64>) = bounds.into_iter().unzip();
            Type::stencil_field(StencilBounds::new(lb, ub), gen_type(rng, d))
        }
        _ => Type::function(
            rng.vec(0, 2, |r| gen_type(r, d)),
            rng.vec(0, 2, |r| gen_type(r, d)),
        ),
    }
}

/// Any `i64`, with the values integer printers get wrong first drawn
/// one time in eight.
fn gen_i64(rng: &mut Rng) -> i64 {
    if rng.chance(1, 8) {
        *rng.pick(&[0, 1, -1, i64::MIN, i64::MAX])
    } else {
        rng.next_u64() as i64
    }
}

/// Uniform in `[lo, hi)` at full 53-bit resolution, so the shortest
/// round-trip float printing is exercised on long mantissas.
fn gen_f64(rng: &mut Rng, lo: f64, hi: f64) -> f64 {
    let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    lo + unit * (hi - lo)
}

/// `[a-z][a-z0-9_]{0,max_tail}`
fn gen_ident(rng: &mut Rng, max_tail: usize) -> String {
    const TAIL: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_";
    let mut name = String::from(*rng.pick(&TAIL[..26]) as char);
    name.extend(rng.vec(0, max_tail, |r| *r.pick(TAIL) as char));
    name
}

fn gen_attribute(rng: &mut Rng, depth: usize) -> Attribute {
    if depth > 0 && rng.chance(1, 2) {
        let d = depth - 1;
        return if rng.chance(1, 2) {
            Attribute::Array(rng.vec(0, 3, |r| gen_attribute(r, d)))
        } else {
            let entries = rng.vec(0, 3, |r| (gen_ident(r, 6), gen_attribute(r, d)));
            Attribute::Dict(entries.into_iter().collect())
        };
    }
    match rng.range(0, 7) {
        0 => Attribute::Unit,
        1 => Attribute::Bool(rng.chance(1, 2)),
        2 => Attribute::int(gen_i64(rng)),
        3 => Attribute::f64(gen_f64(rng, -1.0e12, 1.0e12)),
        4 => Attribute::string(gen_ident(rng, 8)),
        5 => Attribute::symbol(gen_ident(rng, 8)),
        6 => Attribute::IndexArray(rng.vec(0, 4, gen_i64)),
        _ => Attribute::TypeAttr(gen_scalar_type(rng)),
    }
}

#[test]
fn type_round_trip() {
    sweep(
        SEED,
        256,
        |rng| gen_type(rng, 3),
        |t| {
            let text = t.to_string();
            let parsed = shmls_ir::parser::parse_type(&text)
                .unwrap_or_else(|e| panic!("parse `{text}`: {e}"));
            assert_eq!(&parsed, t);
            assert_eq!(parsed.to_string(), text);
        },
    );
}

#[test]
fn attribute_round_trip() {
    sweep(
        SEED,
        256,
        |rng| gen_attribute(rng, 2),
        |a| {
            let text = a.to_string();
            let parsed = shmls_ir::parser::parse_attribute(&text)
                .unwrap_or_else(|e| panic!("parse `{text}`: {e}"));
            // Floats may lose no precision with {:e}; require exact equality.
            assert_eq!(&parsed, a);
            assert_eq!(parsed.to_string(), text);
        },
    );
}

// ---- random module round trip -------------------------------------------

/// A recipe for one op in a random straight-line function body.
#[derive(Debug, Clone)]
enum OpRecipe {
    ConstF64(f64),
    ConstIndex(i64),
    /// Binary float op over two earlier f64 values (by index).
    Binary(u8, usize, usize),
    /// A region op (scf.for-like) whose body uses an earlier f64 value.
    Loop(usize),
    /// A binary op carrying discretionary attributes (string, index
    /// array, bool) — exercises attribute printing on real ops, not just
    /// standalone attribute text.
    Annotated(usize, i64),
    /// Two nested region ops: the printer must indent and the parser
    /// re-nest identically.
    DeepLoop(usize),
}

fn gen_recipes(rng: &mut Rng) -> Vec<OpRecipe> {
    const PICK: usize = (1 << 16) - 1;
    rng.vec(1, 23, |r| match r.range(0, 5) {
        0 => OpRecipe::ConstF64(gen_f64(r, -1.0e6, 1.0e6)),
        1 => OpRecipe::ConstIndex(r.range_i64(0, 99)),
        2 => OpRecipe::Binary(r.range(0, 3) as u8, r.range(0, PICK), r.range(0, PICK)),
        3 => OpRecipe::Loop(r.range(0, PICK)),
        4 => OpRecipe::Annotated(r.range(0, PICK), gen_i64(r)),
        _ => OpRecipe::DeepLoop(r.range(0, PICK)),
    })
}

fn build_module(recipes: &[OpRecipe]) -> (Context, OpId) {
    let mut ctx = Context::new();
    let module = ctx.create_op("builtin.module", vec![], vec![], []);
    let mregion = ctx.add_region(module);
    let mblock = ctx.add_block(mregion, vec![]);
    let f = ctx.create_op("func.func", vec![], vec![], []);
    ctx.set_attr(f, "sym_name", Attribute::string("random"));
    let fregion = ctx.add_region(f);
    let fblock = ctx.add_block(fregion, vec![Type::F64]);
    ctx.append_op(mblock, f);

    let mut floats: Vec<ValueId> = vec![ctx.block_args(fblock)[0]];
    for r in recipes {
        match r {
            OpRecipe::ConstF64(v) => {
                let mut b = OpBuilder::at_block_end(&mut ctx, fblock);
                let op = b.build("arith.constant", vec![], vec![Type::F64]);
                ctx.set_attr(op, "value", Attribute::f64(*v));
                floats.push(ctx.result(op, 0));
            }
            OpRecipe::ConstIndex(v) => {
                let mut b = OpBuilder::at_block_end(&mut ctx, fblock);
                let op = b.build("arith.constant", vec![], vec![Type::Index]);
                ctx.set_attr(op, "value", Attribute::index(*v));
            }
            OpRecipe::Binary(kind, a, b_idx) => {
                let name = match kind % 4 {
                    0 => "arith.addf",
                    1 => "arith.subf",
                    2 => "arith.mulf",
                    _ => "arith.divf",
                };
                let lhs = floats[a % floats.len()];
                let rhs = floats[b_idx % floats.len()];
                let mut b = OpBuilder::at_block_end(&mut ctx, fblock);
                floats.push(b.build_value(name, vec![lhs, rhs], Type::F64));
            }
            OpRecipe::Loop(a) => {
                let used = floats[a % floats.len()];
                let mut b = OpBuilder::at_block_end(&mut ctx, fblock);
                let lb = b.build_value("arith.constant", vec![], Type::Index);
                let lb_op = ctx.defining_op(lb).unwrap();
                ctx.set_attr(lb_op, "value", Attribute::index(0));
                let mut b = OpBuilder::at_block_end(&mut ctx, fblock);
                let (for_op, body) =
                    b.build_with_region("scf.for", vec![lb, lb, lb], vec![], [], vec![Type::Index]);
                let _ = for_op;
                let mut ib = OpBuilder::at_block_end(&mut ctx, body);
                let doubled = ib.build_value("arith.addf", vec![used, used], Type::F64);
                let _ = doubled;
                let mut ib = OpBuilder::at_block_end(&mut ctx, body);
                ib.build("scf.yield", vec![], vec![]);
            }
            OpRecipe::Annotated(a, v) => {
                let lhs = floats[a % floats.len()];
                let mut b = OpBuilder::at_block_end(&mut ctx, fblock);
                let val = b.build_value("arith.mulf", vec![lhs, lhs], Type::F64);
                let op = ctx.defining_op(val).unwrap();
                ctx.set_attr(op, "note", Attribute::string("annotated"));
                ctx.set_attr(
                    op,
                    "tags",
                    Attribute::IndexArray(vec![*v, v.wrapping_neg()]),
                );
                ctx.set_attr(op, "hot", Attribute::Bool(*v % 2 == 0));
                floats.push(val);
            }
            OpRecipe::DeepLoop(a) => {
                let used = floats[a % floats.len()];
                let mut b = OpBuilder::at_block_end(&mut ctx, fblock);
                let lb = b.build_value("arith.constant", vec![], Type::Index);
                let lb_op = ctx.defining_op(lb).unwrap();
                ctx.set_attr(lb_op, "value", Attribute::index(0));
                let mut b = OpBuilder::at_block_end(&mut ctx, fblock);
                let (_outer, obody) =
                    b.build_with_region("scf.for", vec![lb, lb, lb], vec![], [], vec![Type::Index]);
                let mut ob = OpBuilder::at_block_end(&mut ctx, obody);
                let (_inner, ibody) = ob.build_with_region(
                    "scf.for",
                    vec![lb, lb, lb],
                    vec![],
                    [],
                    vec![Type::Index],
                );
                let mut ib = OpBuilder::at_block_end(&mut ctx, ibody);
                let _ = ib.build_value("arith.subf", vec![used, used], Type::F64);
                let mut ib = OpBuilder::at_block_end(&mut ctx, ibody);
                ib.build("scf.yield", vec![], vec![]);
                let mut ob = OpBuilder::at_block_end(&mut ctx, obody);
                ob.build("scf.yield", vec![], vec![]);
            }
        }
    }
    let mut b = OpBuilder::at_block_end(&mut ctx, fblock);
    b.build("func.return", vec![], vec![]);
    (ctx, module)
}

/// Deterministic pin of the recipe generator's newest arms (attribute-
/// carrying ops and doubly nested regions): one fixed recipe list must
/// round-trip and reach a printing fixpoint — a case that needs no
/// generation at all.
#[test]
fn pinned_annotated_and_nested_module_round_trips() {
    let recipes = vec![
        OpRecipe::ConstF64(1.5),
        OpRecipe::Annotated(0, 3),
        OpRecipe::DeepLoop(1),
        OpRecipe::Binary(2, 1, 0),
        OpRecipe::Loop(2),
    ];
    let (ctx, module) = build_module(&recipes);
    shmls_ir::verifier::verify(&ctx, module).unwrap();
    let pass0 = print_op(&ctx, module);
    let (ctx1, m1) = parse_op(&pass0).unwrap_or_else(|e| panic!("reparse: {e}\n{pass0}"));
    let pass1 = print_op(&ctx1, m1);
    let (ctx2, m2) = parse_op(&pass1).unwrap_or_else(|e| panic!("second reparse: {e}\n{pass1}"));
    assert_eq!(pass0, pass1);
    assert_eq!(pass1, print_op(&ctx2, m2));
    shmls_ir::verifier::verify(&ctx2, m2).unwrap();
}

fn check_module_round_trip(recipes: &[OpRecipe]) {
    let (ctx, module) = build_module(recipes);
    shmls_ir::verifier::verify(&ctx, module).unwrap();
    let text = print_op(&ctx, module);
    let (ctx2, module2) = parse_op(&text).unwrap_or_else(|e| panic!("reparse failed: {e}\n{text}"));
    let text2 = print_op(&ctx2, module2);
    assert_eq!(text, text2);
    shmls_ir::verifier::verify(&ctx2, module2).unwrap();
}

/// Print → parse is *idempotent*: the first printed form is already a
/// fixpoint, so a second round trip must reproduce it byte-for-byte.
/// (A printer that, say, canonicalises attribute order only on parsed
/// input would pass a single round trip but fail this.)
fn check_module_round_trip_is_idempotent(recipes: &[OpRecipe]) {
    let (ctx, module) = build_module(recipes);
    let pass0 = print_op(&ctx, module);
    let (ctx1, m1) =
        parse_op(&pass0).unwrap_or_else(|e| panic!("first reparse failed: {e}\n{pass0}"));
    let pass1 = print_op(&ctx1, m1);
    let (ctx2, m2) =
        parse_op(&pass1).unwrap_or_else(|e| panic!("second reparse failed: {e}\n{pass1}"));
    let pass2 = print_op(&ctx2, m2);
    assert_eq!(&pass0, &pass1);
    assert_eq!(&pass1, &pass2);
    shmls_ir::verifier::verify(&ctx2, m2).unwrap();
}

fn check_clone_preserves_structure(recipes: &[OpRecipe]) {
    let (mut ctx, module) = build_module(recipes);
    let before = print_op(&ctx, module);
    let mut map = shmls_ir::ir::IdMap::default();
    let clone = ctx.clone_op(module, &mut map);
    // Original unchanged, clone prints identically.
    assert_eq!(&print_op(&ctx, module), &before);
    assert_eq!(&print_op(&ctx, clone), &before);
    // The clone is fully disjoint: erasing it leaves the original.
    ctx.erase_op(clone);
    assert_eq!(&print_op(&ctx, module), &before);
    shmls_ir::verifier::verify(&ctx, module).unwrap();
}

#[test]
fn module_round_trip() {
    sweep(SEED, 128, gen_recipes, |r| check_module_round_trip(r));
}

#[test]
fn module_round_trip_is_idempotent() {
    sweep(SEED, 128, gen_recipes, |r| {
        check_module_round_trip_is_idempotent(r)
    });
}

#[test]
fn clone_preserves_structure() {
    sweep(SEED, 128, gen_recipes, |r| {
        check_clone_preserves_structure(r)
    });
}

fn check_every_module_property(recipes: &[OpRecipe]) {
    check_module_round_trip(recipes);
    check_module_round_trip_is_idempotent(recipes);
    check_clone_preserves_structure(recipes);
}

/// Regression once shrunk to `recipes = [Loop(0)]`: a region op whose body
/// uses the function's own block argument.
#[test]
fn pinned_loop_over_the_block_argument() {
    check_every_module_property(&[OpRecipe::Loop(0)]);
}

/// Regression once shrunk to `recipes = [Annotated(0, 1), DeepLoop(0)]`:
/// an attribute-carrying op followed by a doubly nested region.
#[test]
fn pinned_annotated_op_then_deep_loop() {
    check_every_module_property(&[OpRecipe::Annotated(0, 1), OpRecipe::DeepLoop(0)]);
}
