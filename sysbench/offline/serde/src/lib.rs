//! Offline stand-in for `serde`: the marker trait and derive the product
//! crates name. No code the benchmark measures serialises through serde
//! (the report structs only derive it for `repro json`), so the trait
//! has no methods.

/// Marker for types the product crates declare serialisable.
pub trait Serialize {}

#[cfg(feature = "derive")]
pub use serde_derive::Serialize;
