//! Textual IR parser for the generic operation form emitted by
//! [`crate::printer`].
//!
//! The parser is a hand-written recursive-descent parser over a character
//! cursor (no separate tokenizer — MLIR's type syntax such as
//! `memref<4x4xf64>` interleaves numbers and identifiers in ways that a
//! conventional lexer handles poorly).
//!
//! Scoping: SSA names (`%0`, `%arg` …) live in a single flat scope per parse
//! because the printer numbers values uniquely across the whole top-level
//! op. Uses must appear after definitions (no forward references), matching
//! the structured-control-flow subset this project uses.

use std::collections::{BTreeMap, HashMap};

use crate::attributes::Attribute;
use crate::error::{IrError, IrResult};
use crate::ir::{Context, OpId, ValueId};
use crate::ir_ensure;
use crate::types::{StencilBounds, Type};

/// Parse the textual form of a single top-level op (usually
/// `builtin.module`) into a fresh [`Context`].
pub fn parse_op(src: &str) -> IrResult<(Context, OpId)> {
    let mut ctx = Context::new();
    let op = parse_op_into(src, &mut ctx)?;
    Ok((ctx, op))
}

/// Parse a single top-level op into an existing context.
pub fn parse_op_into(src: &str, ctx: &mut Context) -> IrResult<OpId> {
    let mut cursor = Cursor::new(src);
    let mut scope = HashMap::new();
    let op = cursor.parse_operation(ctx, &mut scope)?;
    cursor.skip_ws();
    ir_ensure!(
        cursor.at_end(),
        "trailing input after top-level op at {}",
        cursor.location()
    );
    Ok(op)
}

/// Parse a type written in the printer's syntax.
pub fn parse_type(src: &str) -> IrResult<Type> {
    let mut cursor = Cursor::new(src);
    let t = cursor.parse_type()?;
    cursor.skip_ws();
    ir_ensure!(
        cursor.at_end(),
        "trailing input after type at {}",
        cursor.location()
    );
    Ok(t)
}

/// Parse an attribute written in the printer's syntax.
pub fn parse_attribute(src: &str) -> IrResult<Attribute> {
    let mut cursor = Cursor::new(src);
    let a = cursor.parse_attribute()?;
    cursor.skip_ws();
    ir_ensure!(
        cursor.at_end(),
        "trailing input after attribute at {}",
        cursor.location()
    );
    Ok(a)
}

struct Cursor<'s> {
    src: &'s str,
    bytes: &'s [u8],
    pos: usize,
}

impl<'s> Cursor<'s> {
    fn new(src: &'s str) -> Self {
        Self {
            src,
            bytes: src.as_bytes(),
            pos: 0,
        }
    }

    fn location(&self) -> String {
        // `pos` may sit inside a multi-byte character (the cursor advances
        // bytewise); floor it to a char boundary before slicing.
        let mut boundary = self.pos.min(self.src.len());
        while boundary > 0 && !self.src.is_char_boundary(boundary) {
            boundary -= 1;
        }
        let consumed = &self.src[..boundary];
        let line = consumed.matches('\n').count() + 1;
        let col = consumed.rsplit('\n').next().map_or(0, str::len) + 1;
        format!("line {line}, column {col}")
    }

    fn err(&self, msg: impl std::fmt::Display) -> IrError {
        IrError::new(format!("{msg} at {}", self.location()))
    }

    fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while let Some(c) = self.peek() {
            match c {
                b' ' | b'\t' | b'\n' | b'\r' => {
                    self.pos += 1;
                }
                b'/' if self.bytes.get(self.pos + 1) == Some(&b'/') => {
                    while let Some(c) = self.peek() {
                        self.pos += 1;
                        if c == b'\n' {
                            break;
                        }
                    }
                }
                _ => break,
            }
        }
    }

    /// Consume `lit` (after skipping whitespace) or fail.
    fn expect(&mut self, lit: &str) -> IrResult<()> {
        self.skip_ws();
        if self.src[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(())
        } else {
            let found: String = self.src[self.pos..].chars().take(12).collect();
            Err(self.err(format!("expected `{lit}`, found `{found}`")))
        }
    }

    /// Consume `lit` if present (after skipping whitespace).
    fn eat(&mut self, lit: &str) -> bool {
        self.skip_ws();
        if self.src[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    /// Peek whether `lit` comes next (after whitespace), without consuming.
    fn looking_at(&mut self, lit: &str) -> bool {
        self.skip_ws();
        self.src[self.pos..].starts_with(lit)
    }

    /// Parse a comma-separated list of `item`s, then consume `close`. The
    /// list is empty when `close`'s first character comes next, so `)>`
    /// ends an empty `()` as well as a non-empty one.
    fn list<T>(
        &mut self,
        close: &str,
        mut item: impl FnMut(&mut Self) -> IrResult<T>,
    ) -> IrResult<Vec<T>> {
        let mut items = Vec::new();
        if !self.looking_at(&close[..1]) {
            loop {
                items.push(item(self)?);
                if !self.eat(",") {
                    break;
                }
            }
        }
        self.expect(close)?;
        Ok(items)
    }

    /// Parse an identifier: `[A-Za-z_][A-Za-z0-9_.$-]*`.
    fn parse_ident(&mut self) -> IrResult<String> {
        self.skip_ws();
        let start = self.pos;
        match self.peek() {
            Some(c) if c.is_ascii_alphabetic() || c == b'_' => {
                self.pos += 1;
            }
            _ => return Err(self.err("expected identifier")),
        }
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'$') {
                self.pos += 1;
            } else {
                break;
            }
        }
        Ok(self.src[start..self.pos].to_string())
    }

    /// Parse an SSA value name after `%`: alnum/underscore.
    fn parse_value_name(&mut self) -> IrResult<String> {
        self.expect("%")?;
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' {
                self.pos += 1;
            } else {
                break;
            }
        }
        ir_ensure!(self.pos > start, "empty SSA name at {}", self.location());
        Ok(self.src[start..self.pos].to_string())
    }

    /// Parse a double-quoted string literal with `\"`/`\\`/`\n`/`\t`
    /// escapes. Content is decoded as UTF-8 (the cursor is byte-based, so
    /// multi-byte characters are consumed whole here).
    fn parse_string(&mut self) -> IrResult<String> {
        self.expect("\"")?;
        let mut out = String::new();
        loop {
            let Some(c) = self.src[self.pos..].chars().next() else {
                return Err(self.err("unterminated string literal"));
            };
            self.pos += c.len_utf8();
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let Some(esc) = self.src[self.pos..].chars().next() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += esc.len_utf8();
                    match esc {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        'n' => out.push('\n'),
                        't' => out.push('\t'),
                        other => {
                            return Err(self.err(format!("bad escape \\{other}")));
                        }
                    }
                }
                c => out.push(c),
            }
        }
    }

    /// Parse a (possibly signed) integer.
    fn parse_int(&mut self) -> IrResult<i64> {
        self.skip_ws();
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        self.src[start..self.pos]
            .parse()
            .map_err(|e| self.err(format!("bad integer: {e}")))
    }

    /// Parse the numeric text of an int-or-float and report whether it has
    /// float syntax (contains `.`, `e`/`E`, `inf` or `NaN`).
    fn parse_number_text(&mut self) -> IrResult<(String, bool)> {
        self.skip_ws();
        let start = self.pos;
        let mut is_float = false;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.looking_at("inf") || self.looking_at("NaN") {
            self.pos += 3;
            is_float = true;
        } else {
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.peek() == Some(b'.') {
                is_float = true;
                self.pos += 1;
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
            if matches!(self.peek(), Some(b'e' | b'E')) {
                is_float = true;
                self.pos += 1;
                if matches!(self.peek(), Some(b'+' | b'-')) {
                    self.pos += 1;
                }
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
        }
        ir_ensure!(self.pos > start, "expected number at {}", self.location());
        Ok((self.src[start..self.pos].to_string(), is_float))
    }

    // ---- types ----------------------------------------------------------

    fn parse_type(&mut self) -> IrResult<Type> {
        self.skip_ws();
        if self.eat("memref<") {
            let mut shape = Vec::new();
            loop {
                self.skip_ws();
                if self.eat("?x") {
                    shape.push(-1);
                    continue;
                }
                // A dimension is digits followed by 'x'; otherwise it is the
                // start of the element type.
                let mark = self.pos;
                let mut p = self.pos;
                while matches!(self.bytes.get(p), Some(c) if c.is_ascii_digit()) {
                    p += 1;
                }
                if p > self.pos && self.bytes.get(p) == Some(&b'x') {
                    let dim: i64 = self.src[self.pos..p]
                        .parse()
                        .map_err(|e| self.err(format!("bad dim: {e}")))?;
                    shape.push(dim);
                    self.pos = p + 1;
                    continue;
                }
                self.pos = mark;
                break;
            }
            let elem = self.parse_type()?;
            self.expect(">")?;
            return Ok(Type::memref(shape, elem));
        }
        if self.eat("!llvm.ptr<") {
            let t = self.parse_type()?;
            self.expect(">")?;
            return Ok(Type::llvm_ptr(t));
        }
        if self.eat("!llvm.struct<(") {
            return Ok(Type::LlvmStruct(self.list(")>", Self::parse_type)?));
        }
        if self.eat("!llvm.array<") {
            let n = self.parse_int()?;
            ir_ensure!(n >= 0, "negative array size at {}", self.location());
            self.expect("x")?;
            let t = self.parse_type()?;
            self.expect(">")?;
            return Ok(Type::llvm_array(n as u64, t));
        }
        if self.eat("!stencil.field<") {
            let (bounds, elem) = self.parse_stencil_bounds_and_elem()?;
            return Ok(Type::stencil_field(bounds, elem));
        }
        if self.eat("!stencil.temp<") {
            let (bounds, elem) = self.parse_stencil_bounds_and_elem()?;
            return Ok(Type::stencil_temp(bounds, elem));
        }
        if self.eat("!stencil.result<") {
            let t = self.parse_type()?;
            self.expect(">")?;
            return Ok(Type::stencil_result(t));
        }
        if self.eat("!hls.stream<") {
            let t = self.parse_type()?;
            self.expect(">")?;
            return Ok(Type::hls_stream(t));
        }
        if self.looking_at("(") {
            let (inputs, results) = self.parse_signature()?;
            return Ok(Type::function(inputs, results));
        }
        for (lit, ty) in [
            ("index", Type::Index),
            ("i1", Type::I1),
            ("i32", Type::I32),
            ("i64", Type::I64),
            ("f32", Type::F32),
            ("f64", Type::F64),
            ("none", Type::None),
        ] {
            if self.looking_at(lit) {
                // Reject identifiers that merely start with the keyword.
                let after = self.bytes.get(self.pos + lit.len());
                let ok = !matches!(after, Some(c) if c.is_ascii_alphanumeric() || *c == b'_');
                if ok {
                    self.pos += lit.len();
                    return Ok(ty);
                }
            }
        }
        Err(self.err("expected type"))
    }

    /// `(ins) -> (outs)`: a function type, or an op's trailing signature.
    fn parse_signature(&mut self) -> IrResult<(Vec<Type>, Vec<Type>)> {
        self.expect("(")?;
        let inputs = self.list(")", Self::parse_type)?;
        self.expect("->")?;
        self.expect("(")?;
        Ok((inputs, self.list(")", Self::parse_type)?))
    }

    fn parse_stencil_bounds_and_elem(&mut self) -> IrResult<(StencilBounds, Type)> {
        let mut lb = Vec::new();
        let mut ub = Vec::new();
        while self.eat("[") {
            lb.push(self.parse_int()?);
            self.expect(",")?;
            ub.push(self.parse_int()?);
            self.expect("]")?;
            self.expect("x")?;
        }
        let elem = self.parse_type()?;
        self.expect(">")?;
        Ok((StencilBounds::new(lb, ub), elem))
    }

    // ---- attributes -----------------------------------------------------

    fn parse_attribute(&mut self) -> IrResult<Attribute> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => Ok(Attribute::String(self.parse_string()?)),
            Some(b'@') => {
                self.pos += 1;
                Ok(Attribute::SymbolRef(self.parse_ident()?))
            }
            Some(b'[') => {
                self.pos += 1;
                Ok(Attribute::Array(self.list("]", Self::parse_attribute)?))
            }
            Some(b'<') => {
                self.expect("<[")?;
                Ok(Attribute::IndexArray(self.list("]>", Self::parse_int)?))
            }
            Some(b'{') => {
                self.pos += 1;
                let entries = self.list("}", |c| {
                    let key = c.parse_ident()?;
                    c.expect("=")?;
                    Ok((key, c.parse_attribute()?))
                })?;
                Ok(Attribute::Dict(entries.into_iter().collect()))
            }
            Some(c)
                if c.is_ascii_digit()
                    || c == b'-'
                    || self.looking_at("inf")
                    || self.looking_at("NaN") =>
            {
                let (text, is_float) = self.parse_number_text()?;
                self.expect(":")?;
                let ty = self.parse_type()?;
                if is_float || ty.is_float() {
                    let v: f64 = text
                        .parse()
                        .map_err(|e| self.err(format!("bad float: {e}")))?;
                    Ok(Attribute::Float(v, ty))
                } else {
                    let v: i64 = text
                        .parse()
                        .map_err(|e| self.err(format!("bad int: {e}")))?;
                    Ok(Attribute::Int(v, ty))
                }
            }
            _ => {
                if self.eat("unit") {
                    return Ok(Attribute::Unit);
                }
                if self.eat("true") {
                    return Ok(Attribute::Bool(true));
                }
                if self.eat("false") {
                    return Ok(Attribute::Bool(false));
                }
                Ok(Attribute::TypeAttr(self.parse_type()?))
            }
        }
    }

    // ---- operations -----------------------------------------------------

    fn parse_operation(
        &mut self,
        ctx: &mut Context,
        scope: &mut HashMap<String, ValueId>,
    ) -> IrResult<OpId> {
        self.skip_ws();
        // Optional result list.
        let result_names = if self.looking_at("%") {
            self.list("=", Self::parse_value_name)?
        } else {
            Vec::new()
        };
        let name = self.parse_string()?;
        self.expect("(")?;
        let operand_names = self.list(")", Self::parse_value_name)?;
        let operands: Vec<ValueId> = operand_names
            .iter()
            .map(|n| {
                scope
                    .get(n)
                    .copied()
                    .ok_or_else(|| self.err(format!("use of undefined value %{n}")))
            })
            .collect::<IrResult<_>>()?;

        let op = ctx.create_op(&name, operands, vec![], BTreeMap::new());

        // Optional regions: `({ ... }, { ... })`.
        if self.looking_at("({") {
            self.expect("(")?;
            self.list(")", |c| c.parse_region(ctx, scope, op))?;
        }

        // Optional attribute dict.
        if self.looking_at("{") {
            let attr = self.parse_attribute()?;
            match attr {
                Attribute::Dict(map) => {
                    for (k, v) in map {
                        ctx.set_attr(op, k, v);
                    }
                }
                _ => unreachable!("`{{` always parses as a dict"),
            }
        }

        // Trailing function type.
        self.expect(":")?;
        let (operand_types, result_types) = self.parse_signature()?;

        ir_ensure!(
            operand_types.len() == ctx.operands(op).len(),
            "op {name}: {} operands but {} operand types at {}",
            ctx.operands(op).len(),
            operand_types.len(),
            self.location()
        );
        for (i, (&v, t)) in ctx.operands(op).iter().zip(&operand_types).enumerate() {
            ir_ensure!(
                ctx.value_type(v) == t,
                "op {name}: operand {i} has type {} but signature says {t} at {}",
                ctx.value_type(v),
                self.location()
            );
        }
        ir_ensure!(
            result_types.len() == result_names.len(),
            "op {name}: {} result names but {} result types at {}",
            result_names.len(),
            result_types.len(),
            self.location()
        );
        let results = ctx.add_op_results(op, result_types);
        for (rname, r) in result_names.into_iter().zip(results) {
            ir_ensure!(
                scope.insert(rname.clone(), r).is_none(),
                "redefinition of %{rname} at {}",
                self.location()
            );
        }
        Ok(op)
    }

    fn parse_region(
        &mut self,
        ctx: &mut Context,
        scope: &mut HashMap<String, ValueId>,
        op: OpId,
    ) -> IrResult<()> {
        self.expect("{")?;
        let region = ctx.add_region(op);
        while self.looking_at("^") {
            self.expect("^bb(")?;
            let block = ctx.add_block(region, vec![]);
            self.list("):", |c| {
                let arg_name = c.parse_value_name()?;
                c.expect(":")?;
                let arg = ctx.add_block_arg(block, c.parse_type()?);
                ir_ensure!(
                    scope.insert(arg_name.clone(), arg).is_none(),
                    "redefinition of block arg %{arg_name} at {}",
                    c.location()
                );
                Ok(())
            })?;
            loop {
                self.skip_ws();
                if self.looking_at("}") || self.looking_at("^") {
                    break;
                }
                let inner = self.parse_operation(ctx, scope)?;
                ctx.append_op(block, inner);
            }
        }
        self.expect("}")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::printer::print_op;

    #[test]
    fn round_trip_flat() {
        let src = r#"%0 = "arith.constant"() {value = 1.5e0 : f64} : () -> (f64)"#;
        let (ctx, op) = parse_op(src).unwrap();
        assert_eq!(print_op(&ctx, op), src);
    }

    #[test]
    fn round_trip_nested() {
        let src = "\"builtin.module\"() ({\n  ^bb():\n    %0 = \"test.c\"() : () -> (i64)\n    \"test.use\"(%0, %0) : (i64, i64) -> ()\n}) : () -> ()";
        let (ctx, op) = parse_op(src).unwrap();
        assert_eq!(print_op(&ctx, op), src);
    }

    #[test]
    fn parse_types() {
        for s in [
            "i1",
            "i32",
            "i64",
            "index",
            "f32",
            "f64",
            "none",
            "memref<4x4xf64>",
            "memref<?x8xf64>",
            "memref<f64>",
            "!llvm.ptr<!llvm.struct<(f64)>>",
            "!llvm.struct<(!llvm.array<8 x f64>)>",
            "!llvm.array<8 x f64>",
            "!stencil.field<[-1,65]x[-1,65]x[0,64]xf64>",
            "!stencil.temp<[0,64]xf64>",
            "!stencil.result<f64>",
            "!hls.stream<f64>",
            "(i64, f64) -> (f64)",
            "() -> ()",
        ] {
            let t = parse_type(s).unwrap_or_else(|e| panic!("{s}: {e}"));
            assert_eq!(t.to_string(), s, "round trip {s}");
        }
    }

    #[test]
    fn parse_attributes() {
        for s in [
            "unit",
            "true",
            "false",
            "42 : i64",
            "-7 : i32",
            "1.5e0 : f64",
            "\"load_data\"",
            "@shift_buffer",
            "<[-1, 0, 1]>",
            "[1 : i64, 2 : i64]",
            "{ii = 1 : i64}",
            "f64",
            "!hls.stream<f64>",
        ] {
            let a = parse_attribute(s).unwrap_or_else(|e| panic!("{s}: {e}"));
            assert_eq!(a.to_string(), s, "round trip {s}");
        }
    }

    #[test]
    fn undefined_value_is_error() {
        let src = r#""test.use"(%9) : (i64) -> ()"#;
        let e = parse_op(src).unwrap_err();
        assert!(e.to_string().contains("undefined value"), "{e}");
    }

    #[test]
    fn operand_type_mismatch_is_error() {
        let src = "\"builtin.module\"() ({\n^bb():\n%0 = \"test.c\"() : () -> (i64)\n\"test.u\"(%0) : (f64) -> ()\n}) : () -> ()";
        let e = parse_op(src).unwrap_err();
        assert!(e.to_string().contains("operand 0 has type"), "{e}");
    }

    #[test]
    fn block_args_parse() {
        let src = "\"test.h\"() ({\n^bb(%0: index, %1: f64):\n\"test.u\"(%1) : (f64) -> ()\n}) : () -> ()";
        let (ctx, op) = parse_op(src).unwrap();
        let block = ctx.entry_block(op).unwrap();
        assert_eq!(ctx.block_args(block).len(), 2);
        assert_eq!(ctx.value_type(ctx.block_args(block)[1]), &Type::F64);
    }

    enum Parsed {
        Op,
        Ty,
        Attr,
    }

    /// Every comma list — operands, results, signature types, struct
    /// fields, attribute and index arrays, dicts, block arguments and
    /// regions — with a trailing comma, without its close, and empty (a
    /// two-character close split by a space is refused): what is parsed,
    /// the source, and the printed round trip or the exact error.
    #[rustfmt::skip]
    const LISTS: &[(Parsed, &str, Result<&str, &str>)] = {
        use Parsed::{Attr, Op, Ty};
        &[
            (Op, r#""test.u"(%0,) : (i64) -> ()"#, Err("expected `%`, found `) : (i64) ->` at line 1, column 13")),
            (Op, r#""test.u"(%0 : (i64) -> ()"#, Err("expected `)`, found `: (i64) -> (` at line 1, column 13")),
            (Op, r#""test.u"() : () -> ()"#, Ok(r#""test.u"() : () -> ()"#)),
            (Op, r#"%0, = "test.c"() : () -> (i64)"#, Err(r#"expected `%`, found `= "test.c"()` at line 1, column 5"#)),
            (Op, r#"%0 "test.c"() : () -> (i64)"#, Err(r#"expected `=`, found `"test.c"() :` at line 1, column 4"#)),
            (Op, r#""test.c"() : () -> (i64,)"#, Err("expected type at line 1, column 25")),
            (Op, r#""test.c"() : () -> (i64"#, Err("expected `)`, found `` at line 1, column 24")),
            (Op, r#""test.c"() : (i64, -> ()"#, Err("expected type at line 1, column 20")),
            (Op, r#""test.c"() : ( -> ()"#, Err("expected type at line 1, column 16")),
            (Op, "\"test.h\"() ({\n^bb(%0: index,):\n}) : () -> ()", Err("expected `%`, found `):\n}) : () -` at line 2, column 15")),
            (Op, "\"test.h\"() ({\n^bb(%0: index:\n}) : () -> ()", Err("expected `):`, found `:\n}) : () ->` at line 2, column 14")),
            (Op, "\"test.h\"() ({\n^bb():\n}) : () -> ()", Ok("\"test.h\"() ({\n  ^bb():\n}) : () -> ()")),
            (Op, "\"test.h\"() ({\n^bb() :\n}) : () -> ()", Err("expected `):`, found `) :\n}) : () ` at line 2, column 5")),
            (Op, "\"test.h\"() ({\n^bb():\n}, ) : () -> ()", Err("expected `{`, found `) : () -> ()` at line 3, column 4")),
            (Op, "\"test.h\"() ({\n^bb():\n} : () -> ()", Err("expected `)`, found `: () -> ()` at line 3, column 3")),
            (Op, r#""test.c"() {} : () -> ()"#, Ok(r#""test.c"() : () -> ()"#)),
            (Op, r#""test.c"() {a = unit,} : () -> ()"#, Err("expected identifier at line 1, column 22")),
            (Ty, "(i64,) -> ()", Err("expected type at line 1, column 6")),
            (Ty, "(i64 -> ()", Err("expected `)`, found `-> ()` at line 1, column 6")),
            (Ty, "() -> (f64,)", Err("expected type at line 1, column 12")),
            (Ty, "() -> ()", Ok("() -> ()")),
            (Ty, "!llvm.struct<(f64,)>", Err("expected type at line 1, column 19")),
            (Ty, "!llvm.struct<(f64>", Err("expected `)>`, found `>` at line 1, column 18")),
            (Ty, "!llvm.struct<()>", Ok("!llvm.struct<()>")),
            (Ty, "!llvm.struct<() >", Err("expected `)>`, found `) >` at line 1, column 15")),
            (Attr, "[1 : i64,]", Err("expected type at line 1, column 10")),
            (Attr, "[1 : i64", Err("expected `]`, found `` at line 1, column 9")),
            (Attr, "[]", Ok("[]")),
            (Attr, "<[1,]>", Err("bad integer: cannot parse integer from empty string at line 1, column 5")),
            (Attr, "<[1, 2>", Err("expected `]>`, found `>` at line 1, column 7")),
            (Attr, "<[]>", Ok("<[]>")),
            (Attr, "<[] >", Err("expected `]>`, found `] >` at line 1, column 3")),
            (Attr, "{a = unit,}", Err("expected identifier at line 1, column 11")),
            (Attr, "{a = unit", Err("expected `}`, found `` at line 1, column 10")),
            (Attr, "{}", Ok("{}")),
        ]
    };

    #[test]
    fn malformed_and_empty_lists() {
        for (parsed, src, want) in LISTS {
            let got = match parsed {
                Parsed::Op => parse_op(src).map(|(ctx, op)| print_op(&ctx, op)),
                Parsed::Ty => parse_type(src).map(|t| t.to_string()),
                Parsed::Attr => parse_attribute(src).map(|a| a.to_string()),
            };
            let got = got.as_deref().map_err(ToString::to_string);
            assert_eq!(got, want.map_err(str::to_string), "{src:?}");
        }
    }

    #[test]
    fn float_attr_whole_value() {
        // Regression guard: printer must emit floats in a form the parser
        // keeps as floats.
        let a = parse_attribute(&Attribute::f64(1.0).to_string()).unwrap();
        assert_eq!(a, Attribute::f64(1.0));
    }
}

#[cfg(test)]
mod review_regressions {
    use super::*;
    use crate::attributes::Attribute;

    #[test]
    fn utf8_string_content_survives() {
        let a = parse_attribute("\"héllo wörld\"").unwrap();
        assert_eq!(a, Attribute::string("héllo wörld"));
        // And round-trips through the printer.
        assert_eq!(parse_attribute(&a.to_string()).unwrap(), a);
    }

    #[test]
    fn bad_escape_on_multibyte_is_error_not_panic() {
        let e = parse_attribute("\"\\é\"").unwrap_err();
        assert!(e.to_string().contains("bad escape"), "{e}");
    }

    #[test]
    fn non_finite_float_attributes_round_trip() {
        for v in [f64::INFINITY, f64::NEG_INFINITY] {
            let text = Attribute::f64(v).to_string();
            let parsed = parse_attribute(&text).unwrap();
            assert_eq!(parsed, Attribute::f64(v), "{text}");
        }
        let nan_text = Attribute::f64(f64::NAN).to_string();
        match parse_attribute(&nan_text).unwrap() {
            Attribute::Float(v, _) => assert!(v.is_nan()),
            other => panic!("expected float, got {other}"),
        }
    }
}
