//! The IR type system.
//!
//! Unlike MLIR, which supports open-ended dialect-defined types through a
//! uniquing context, this reproduction models types as a closed `enum`
//! covering every type the Stencil-HMLS pipeline needs: the `builtin`
//! scalar types, `memref`, a structural subset of the `llvm` dialect types
//! (pointer / struct / array, used for 512-bit packing and stream
//! legalisation), the `stencil` dialect types (field / temp / result), and
//! the `hls` dialect stream type.
//!
//! Types are small, cheap to clone (`Box` indirection for the recursive
//! cases) and printable in MLIR-compatible syntax via [`std::fmt::Display`].

use std::fmt;

/// Inclusive-exclusive index bounds of a stencil field or temporary, one
/// `(lb, ub)` pair per dimension, following the MLIR stencil dialect:
/// `!stencil.field<[-1,65]x[-1,65]x[0,64]xf64>` has
/// `lb = [-1,-1,0]`, `ub = [65,65,64]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StencilBounds {
    /// Lower bound per dimension (inclusive).
    pub lb: Vec<i64>,
    /// Upper bound per dimension (exclusive).
    pub ub: Vec<i64>,
}

impl StencilBounds {
    /// Bounds spanning `[lb, ub)` in every dimension.
    pub fn new(lb: Vec<i64>, ub: Vec<i64>) -> Self {
        assert_eq!(lb.len(), ub.len(), "bounds rank mismatch");
        Self { lb, ub }
    }

    /// Bounds `[0, extent_d)` for the given extents.
    pub fn from_extents(extents: &[i64]) -> Self {
        Self {
            lb: vec![0; extents.len()],
            ub: extents.to_vec(),
        }
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.lb.len()
    }

    /// Extent (`ub - lb`) of dimension `d`.
    pub fn extent(&self, d: usize) -> i64 {
        self.ub[d] - self.lb[d]
    }

    /// Extents of all dimensions.
    pub fn extents(&self) -> Vec<i64> {
        (0..self.rank()).map(|d| self.extent(d)).collect()
    }

    /// Total number of points covered by the bounds.
    pub fn num_points(&self) -> i64 {
        (0..self.rank()).map(|d| self.extent(d).max(0)).product()
    }

    /// Grow the bounds by `halo` in every direction of every dimension.
    #[must_use]
    pub fn grown(&self, halo: i64) -> Self {
        Self {
            lb: self.lb.iter().map(|&l| l - halo).collect(),
            ub: self.ub.iter().map(|&u| u + halo).collect(),
        }
    }

    /// True when `offset` indexes a point inside the bounds.
    pub fn contains(&self, offset: &[i64]) -> bool {
        offset.len() == self.rank()
            && offset
                .iter()
                .zip(self.lb.iter().zip(&self.ub))
                .all(|(&o, (&l, &u))| o >= l && o < u)
    }
}

impl fmt::Display for StencilBounds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in 0..self.rank() {
            write!(f, "[{},{}]x", self.lb[d], self.ub[d])?;
        }
        Ok(())
    }
}

/// An IR type.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Type {
    /// 1-bit integer (boolean).
    I1,
    /// 32-bit signless integer.
    I32,
    /// 64-bit signless integer.
    I64,
    /// Platform index type (used for loop induction variables).
    Index,
    /// 32-bit IEEE float.
    F32,
    /// 64-bit IEEE float.
    F64,
    /// Absence of a value (used for ops with no results in function types).
    None,
    /// `memref<shape x elem>`: a ranked buffer in some memory space.
    /// A dynamic dimension is encoded as `-1` (printed `?`).
    MemRef {
        /// Dimension extents (`-1` = dynamic).
        shape: Vec<i64>,
        /// Element type.
        elem: Box<Type>,
    },
    /// `!llvm.ptr<pointee>`: typed pointer (opaque pointers are not needed
    /// because the Vitis flow of the paper predates them).
    LlvmPtr(Box<Type>),
    /// `!llvm.struct<(T0, T1, ...)>`: literal structure.
    LlvmStruct(Vec<Type>),
    /// `!llvm.array<N x T>`: fixed-size array.
    LlvmArray {
        /// Element count.
        size: u64,
        /// Element type.
        elem: Box<Type>,
    },
    /// `(inputs) -> (results)` function type.
    Function {
        /// Parameter types.
        inputs: Vec<Type>,
        /// Result types.
        results: Vec<Type>,
    },
    /// `!stencil.field<boundsxT>`: a stencil input/output field bound to
    /// external memory, including halo.
    StencilField {
        /// Index bounds (halo included).
        bounds: StencilBounds,
        /// Element type.
        elem: Box<Type>,
    },
    /// `!stencil.temp<boundsxT>`: a value-semantics temporary produced by
    /// `stencil.load` / `stencil.apply`.
    StencilTemp {
        /// Index bounds.
        bounds: StencilBounds,
        /// Element type.
        elem: Box<Type>,
    },
    /// `!stencil.result<T>`: the per-point result yielded by
    /// `stencil.return` inside a `stencil.apply` region.
    StencilResult(Box<Type>),
    /// `!hls.stream<T>`: a FIFO stream carrying elements of `T`
    /// (the paper's `hls.streamtype` attribute realised as a type).
    HlsStream(Box<Type>),
}

impl Type {
    /// Shorthand for a `memref` type.
    pub fn memref(shape: Vec<i64>, elem: Type) -> Type {
        Type::MemRef {
            shape,
            elem: Box::new(elem),
        }
    }

    /// Shorthand for an `!llvm.ptr` type.
    pub fn llvm_ptr(pointee: Type) -> Type {
        Type::LlvmPtr(Box::new(pointee))
    }

    /// Shorthand for an `!llvm.array` type.
    pub fn llvm_array(size: u64, elem: Type) -> Type {
        Type::LlvmArray {
            size,
            elem: Box::new(elem),
        }
    }

    /// Shorthand for a `!stencil.field` type.
    pub fn stencil_field(bounds: StencilBounds, elem: Type) -> Type {
        Type::StencilField {
            bounds,
            elem: Box::new(elem),
        }
    }

    /// Shorthand for a `!stencil.temp` type.
    pub fn stencil_temp(bounds: StencilBounds, elem: Type) -> Type {
        Type::StencilTemp {
            bounds,
            elem: Box::new(elem),
        }
    }

    /// Shorthand for a `!stencil.result` type.
    pub fn stencil_result(elem: Type) -> Type {
        Type::StencilResult(Box::new(elem))
    }

    /// Shorthand for an `!hls.stream` type.
    pub fn hls_stream(elem: Type) -> Type {
        Type::HlsStream(Box::new(elem))
    }

    /// Shorthand for a function type.
    pub fn function(inputs: Vec<Type>, results: Vec<Type>) -> Type {
        Type::Function { inputs, results }
    }

    /// True for the built-in integer types (including `index`).
    pub fn is_integer(&self) -> bool {
        matches!(self, Type::I1 | Type::I32 | Type::I64 | Type::Index)
    }

    /// True for the built-in float types.
    pub fn is_float(&self) -> bool {
        matches!(self, Type::F32 | Type::F64)
    }

    /// Byte size of a type when laid out naively (no padding), if computable.
    /// Used by the resource estimator and the 512-bit packing transform.
    pub fn byte_size(&self) -> Option<u64> {
        match self {
            Type::I1 => Some(1),
            Type::I32 | Type::F32 => Some(4),
            Type::I64 | Type::F64 | Type::Index => Some(8),
            Type::LlvmStruct(fields) => fields
                .iter()
                .map(Type::byte_size)
                .try_fold(0u64, |a, s| s.map(|s| a + s)),
            Type::LlvmArray { size, elem } => elem.byte_size().map(|s| s * size),
            Type::MemRef { shape, elem } => {
                if shape.iter().any(|&d| d < 0) {
                    None
                } else {
                    elem.byte_size()
                        .map(|s| s * shape.iter().product::<i64>() as u64)
                }
            }
            _ => None,
        }
    }

    /// The element type of any aggregate/wrapper type.
    pub fn element_type(&self) -> Option<&Type> {
        match self {
            Type::MemRef { elem, .. }
            | Type::LlvmPtr(elem)
            | Type::LlvmArray { elem, .. }
            | Type::StencilField { elem, .. }
            | Type::StencilTemp { elem, .. }
            | Type::StencilResult(elem)
            | Type::HlsStream(elem) => Some(elem),
            _ => None,
        }
    }

    /// Bounds of a stencil field/temp type.
    pub fn stencil_bounds(&self) -> Option<&StencilBounds> {
        match self {
            Type::StencilField { bounds, .. } | Type::StencilTemp { bounds, .. } => Some(bounds),
            _ => None,
        }
    }

    /// True when the type is `f32` or transitively contains one. The
    /// execution tiers (interpreter, bytecode, SIMD) compute in f64 only,
    /// so any `f32` anywhere in a kernel's signature or body makes the
    /// kernel unsupported there — the compile-time guards use this to
    /// reject such kernels instead of silently widening.
    pub fn contains_f32(&self) -> bool {
        match self {
            Type::F32 => true,
            Type::MemRef { elem, .. }
            | Type::LlvmPtr(elem)
            | Type::LlvmArray { elem, .. }
            | Type::StencilField { elem, .. }
            | Type::StencilTemp { elem, .. }
            | Type::StencilResult(elem)
            | Type::HlsStream(elem) => elem.contains_f32(),
            Type::LlvmStruct(fields) => fields.iter().any(Type::contains_f32),
            Type::Function { inputs, results } => {
                inputs.iter().any(Type::contains_f32) || results.iter().any(Type::contains_f32)
            }
            _ => false,
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::I1 => write!(f, "i1"),
            Type::I32 => write!(f, "i32"),
            Type::I64 => write!(f, "i64"),
            Type::Index => write!(f, "index"),
            Type::F32 => write!(f, "f32"),
            Type::F64 => write!(f, "f64"),
            Type::None => write!(f, "none"),
            Type::MemRef { shape, elem } => {
                write!(f, "memref<")?;
                for d in shape {
                    if *d < 0 {
                        write!(f, "?x")?;
                    } else {
                        write!(f, "{d}x")?;
                    }
                }
                write!(f, "{elem}>")
            }
            Type::LlvmPtr(p) => write!(f, "!llvm.ptr<{p}>"),
            Type::LlvmStruct(fields) => {
                write!(f, "!llvm.struct<(")?;
                for (i, t) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{t}")?;
                }
                write!(f, ")>")
            }
            Type::LlvmArray { size, elem } => write!(f, "!llvm.array<{size} x {elem}>"),
            Type::Function { inputs, results } => {
                write!(f, "(")?;
                for (i, t) in inputs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{t}")?;
                }
                write!(f, ") -> (")?;
                for (i, t) in results.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{t}")?;
                }
                write!(f, ")")
            }
            Type::StencilField { bounds, elem } => write!(f, "!stencil.field<{bounds}{elem}>"),
            Type::StencilTemp { bounds, elem } => write!(f, "!stencil.temp<{bounds}{elem}>"),
            Type::StencilResult(elem) => write!(f, "!stencil.result<{elem}>"),
            Type::HlsStream(elem) => write!(f, "!hls.stream<{elem}>"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_predicates() {
        assert!(Type::I64.is_integer());
        assert!(Type::Index.is_integer());
        assert!(!Type::F64.is_integer());
        assert!(Type::F32.is_float());
    }

    #[test]
    fn byte_sizes() {
        assert_eq!(Type::F64.byte_size(), Some(8));
        let packed = Type::LlvmStruct(vec![Type::llvm_array(8, Type::F64)]);
        assert_eq!(packed.byte_size(), Some(64)); // 512 bits
        let m = Type::memref(vec![4, 4], Type::F32);
        assert_eq!(m.byte_size(), Some(64));
        let dyn_m = Type::memref(vec![-1], Type::F32);
        assert_eq!(dyn_m.byte_size(), None);
    }

    #[test]
    fn bounds_arithmetic() {
        let b = StencilBounds::new(vec![-1, -1, 0], vec![65, 65, 64]);
        assert_eq!(b.rank(), 3);
        assert_eq!(b.extent(0), 66);
        assert_eq!(b.num_points(), 66 * 66 * 64);
        assert!(b.contains(&[-1, 0, 63]));
        assert!(!b.contains(&[-2, 0, 0]));
        assert!(!b.contains(&[0, 0, 64]));
        let g = StencilBounds::from_extents(&[8, 8]).grown(1);
        assert_eq!(g.lb, vec![-1, -1]);
        assert_eq!(g.ub, vec![9, 9]);
    }

    #[test]
    fn display_round_shapes() {
        assert_eq!(
            Type::memref(vec![-1, 8], Type::F64).to_string(),
            "memref<?x8xf64>"
        );
        assert_eq!(
            Type::stencil_field(StencilBounds::new(vec![-1], vec![65]), Type::F64).to_string(),
            "!stencil.field<[-1,65]xf64>"
        );
        assert_eq!(Type::hls_stream(Type::F64).to_string(), "!hls.stream<f64>");
        assert_eq!(
            Type::function(vec![Type::I64], vec![Type::F64]).to_string(),
            "(i64) -> (f64)"
        );
        assert_eq!(
            Type::llvm_ptr(Type::LlvmStruct(vec![Type::F64])).to_string(),
            "!llvm.ptr<!llvm.struct<(f64)>>"
        );
    }

    #[test]
    fn element_type_traversal() {
        let s = Type::hls_stream(Type::F64);
        assert_eq!(s.element_type(), Some(&Type::F64));
        assert_eq!(Type::I32.element_type(), None);
    }
}
