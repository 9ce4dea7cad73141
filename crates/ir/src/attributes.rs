//! Attributes: compile-time constant metadata attached to operations.
//!
//! As with [`crate::types::Type`], attributes are a closed enum covering the
//! needs of the Stencil-HMLS pipeline rather than an open dialect-extensible
//! system. The stencil dialect's index/offset attributes are first-class
//! (`Attribute::IndexArray`) because nearly every transform manipulates them.

use std::collections::BTreeMap;
use std::fmt;

use crate::types::Type;

/// A compile-time attribute value.
#[derive(Debug, Clone, PartialEq, PartialOrd)]
pub enum Attribute {
    /// Unit attribute: presence is the information (e.g. `{inbounds}`).
    Unit,
    /// Boolean attribute.
    Bool(bool),
    /// Integer attribute with its type (`42 : i64`).
    Int(i64, Type),
    /// Float attribute with its type (`1.0 : f64`).
    Float(f64, Type),
    /// String attribute (`"load_data"`).
    String(String),
    /// Symbol reference (`@kernel_0`).
    SymbolRef(String),
    /// Type attribute (`!hls.stream<f64>` used as a payload).
    TypeAttr(Type),
    /// Array of attributes.
    Array(Vec<Attribute>),
    /// Array of i64 indices — stencil offsets/bounds (`<[-1, 0, 1]>`).
    IndexArray(Vec<i64>),
    /// Dictionary of named attributes.
    Dict(BTreeMap<String, Attribute>),
}

impl Attribute {
    /// Integer attribute of type `i64`.
    pub fn int(v: i64) -> Attribute {
        Attribute::Int(v, Type::I64)
    }

    /// Integer attribute of type `index`.
    pub fn index(v: i64) -> Attribute {
        Attribute::Int(v, Type::Index)
    }

    /// Integer attribute of type `i32`.
    pub fn i32(v: i64) -> Attribute {
        Attribute::Int(v, Type::I32)
    }

    /// Float attribute of type `f64`.
    pub fn f64(v: f64) -> Attribute {
        Attribute::Float(v, Type::F64)
    }

    /// String attribute.
    pub fn string(s: impl Into<String>) -> Attribute {
        Attribute::String(s.into())
    }

    /// Symbol reference attribute.
    pub fn symbol(s: impl Into<String>) -> Attribute {
        Attribute::SymbolRef(s.into())
    }

    /// The contained integer, if this is an integer attribute.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Attribute::Int(v, _) => Some(*v),
            _ => None,
        }
    }

    /// The contained float, if this is a float attribute.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Attribute::Float(v, _) => Some(*v),
            _ => None,
        }
    }

    /// The contained bool, if this is a bool attribute.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Attribute::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// The contained string, for string or symbol attributes.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Attribute::String(s) | Attribute::SymbolRef(s) => Some(s),
            _ => None,
        }
    }

    /// The contained type, if this is a type attribute.
    pub fn as_type(&self) -> Option<&Type> {
        match self {
            Attribute::TypeAttr(t) => Some(t),
            _ => None,
        }
    }

    /// The contained index array, if this is an index-array attribute.
    pub fn as_index_array(&self) -> Option<&[i64]> {
        match self {
            Attribute::IndexArray(v) => Some(v),
            _ => None,
        }
    }
}

impl fmt::Display for Attribute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Attribute::Unit => write!(f, "unit"),
            Attribute::Bool(b) => write!(f, "{b}"),
            Attribute::Int(v, t) => write!(f, "{v} : {t}"),
            Attribute::Float(v, t) => write!(f, "{v:e} : {t}"),
            Attribute::String(s) => write!(f, "{s:?}"),
            Attribute::SymbolRef(s) => write!(f, "@{s}"),
            Attribute::TypeAttr(t) => write!(f, "{t}"),
            Attribute::Array(items) => {
                write!(f, "[")?;
                for (i, a) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, "]")
            }
            Attribute::IndexArray(items) => {
                write!(f, "<[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]>")
            }
            Attribute::Dict(map) => {
                write!(f, "{{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k} = {v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        assert_eq!(Attribute::int(3).as_int(), Some(3));
        assert_eq!(Attribute::f64(2.5).as_float(), Some(2.5));
        assert_eq!(Attribute::Bool(true).as_bool(), Some(true));
        assert_eq!(Attribute::string("x").as_str(), Some("x"));
        assert_eq!(Attribute::symbol("f").as_str(), Some("f"));
        assert_eq!(Attribute::TypeAttr(Type::F64).as_type(), Some(&Type::F64));
        assert_eq!(
            Attribute::IndexArray(vec![-1, 0, 1]).as_index_array(),
            Some(&[-1, 0, 1][..])
        );
        assert_eq!(Attribute::int(1).as_float(), None);
        assert_eq!(Attribute::int(1).as_str(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Attribute::int(42).to_string(), "42 : i64");
        assert_eq!(
            Attribute::IndexArray(vec![-1, 0, 1]).to_string(),
            "<[-1, 0, 1]>"
        );
        assert_eq!(
            Attribute::symbol("shift_buffer").to_string(),
            "@shift_buffer"
        );
        assert_eq!(Attribute::string("a\"b").to_string(), "\"a\\\"b\"");
        assert_eq!(
            Attribute::Array(vec![Attribute::int(1), Attribute::int(2)]).to_string(),
            "[1 : i64, 2 : i64]"
        );
        let mut d = BTreeMap::new();
        d.insert("ii".to_string(), Attribute::int(1));
        assert_eq!(Attribute::Dict(d).to_string(), "{ii = 1 : i64}");
    }

    #[test]
    fn float_display_parses_back_distinctly() {
        // Whole floats must keep a float-looking form so the parser does not
        // confuse them with integers.
        let s = Attribute::f64(1.0).to_string();
        assert!(s.contains('e'), "{s}");
    }
}
