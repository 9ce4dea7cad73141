//! Error types shared across the IR infrastructure.

use std::fmt;

/// Classification of an [`IrError`], for the few cases callers *do* need
/// to dispatch on (everything else stays a plain diagnostic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IrErrorKind {
    /// An ordinary diagnostic: malformed input, a verifier failure, a
    /// runtime fault.
    #[default]
    General,
    /// The input is well-formed but asks for something this
    /// implementation deliberately does not support (e.g. `f32` kernels
    /// on the f64-only execution tiers). Callers reject these up front
    /// instead of producing answers in the wrong precision.
    Unsupported,
    /// A dataflow run stalled: some stage waits forever on a stream. The
    /// message is the deadlock report, whichever schedule ran it.
    Deadlock,
}

/// An error produced by IR construction, verification, parsing, rewriting or
/// interpretation.
///
/// The IR layer deliberately uses a single string-carrying error type: errors
/// here are programmer- or input-facing diagnostics, not values that callers
/// dispatch on. Pass pipelines wrap these with pass names, the parser wraps
/// them with line/column information. The dispatchable distinctions are
/// the [`IrErrorKind`]s: *unsupported* inputs (well-formed, deliberately
/// rejected) and *deadlocked* runs versus everything else.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IrError {
    message: String,
    kind: IrErrorKind,
}

impl IrError {
    /// Create a new error with the given diagnostic message.
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            kind: IrErrorKind::General,
        }
    }

    /// Create an [`IrErrorKind::Unsupported`] error: the input is valid
    /// but this implementation refuses it by design.
    pub fn unsupported(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            kind: IrErrorKind::Unsupported,
        }
    }

    /// Create an [`IrErrorKind::Deadlock`] error: a run that stalled,
    /// `message` its report.
    pub fn deadlock(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            kind: IrErrorKind::Deadlock,
        }
    }

    /// The diagnostic message.
    pub fn message(&self) -> &str {
        &self.message
    }

    /// The error's classification.
    pub fn kind(&self) -> IrErrorKind {
        self.kind
    }

    /// Whether this error marks a deliberately unsupported input.
    pub fn is_unsupported(&self) -> bool {
        self.kind == IrErrorKind::Unsupported
    }

    /// Wrap this error with additional leading context (the kind is
    /// preserved).
    #[must_use]
    pub fn context(self, ctx: impl fmt::Display) -> Self {
        Self {
            message: format!("{ctx}: {}", self.message),
            kind: self.kind,
        }
    }
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for IrError {}

/// Convenience alias used throughout the workspace.
pub type IrResult<T> = Result<T, IrError>;

/// The message a caught panic carried: `panic!`'s payload is a `&str` or a
/// `String`; anything else (`std::panic::panic_any`) has no text to show.
pub fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Construct an [`IrError`] with `format!` semantics.
#[macro_export]
macro_rules! ir_error {
    ($($arg:tt)*) => {
        $crate::error::IrError::new(format!($($arg)*))
    };
}

/// Early-return an [`IrError`] built with `format!` semantics.
#[macro_export]
macro_rules! ir_bail {
    ($($arg:tt)*) => {
        return Err($crate::ir_error!($($arg)*))
    };
}

/// Assert a condition, early-returning an [`IrError`] when it fails.
#[macro_export]
macro_rules! ir_ensure {
    ($cond:expr, $($arg:tt)*) => {
        if !$cond {
            $crate::ir_bail!($($arg)*);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_message() {
        let e = IrError::new("bad op");
        assert_eq!(e.to_string(), "bad op");
        assert_eq!(e.message(), "bad op");
    }

    #[test]
    fn context_prepends() {
        let e = IrError::new("bad op").context("verifying func.func");
        assert_eq!(e.to_string(), "verifying func.func: bad op");
    }

    #[test]
    fn unsupported_kind_survives_context() {
        let e = IrError::unsupported("f32 kernels are not executable");
        assert!(e.is_unsupported());
        assert_eq!(e.kind(), IrErrorKind::Unsupported);
        let wrapped = e.context("compiling heat3d");
        assert!(wrapped.is_unsupported());
        assert_eq!(
            wrapped.to_string(),
            "compiling heat3d: f32 kernels are not executable"
        );
        assert_eq!(IrError::new("plain").kind(), IrErrorKind::General);
    }

    #[test]
    fn macros_format() {
        let e: IrError = ir_error!("op {} has {} results", "arith.addf", 2);
        assert_eq!(e.to_string(), "op arith.addf has 2 results");
        fn f(x: i32) -> IrResult<i32> {
            ir_ensure!(x > 0, "x must be positive, got {x}");
            Ok(x)
        }
        assert!(f(1).is_ok());
        assert_eq!(f(-1).unwrap_err().to_string(), "x must be positive, got -1");
    }
}
