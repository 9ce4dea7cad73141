//! The front door both binaries share: one pull-style flag reader, one
//! failure type and one exit path.
//!
//! A command's parser asks [`Flags`] for each flag it knows — valued
//! flags first, then switches, then positionals — and [`Flags::finish`]
//! refuses what nobody asked for. Every refusal is a [`Failure`] with
//! exit code 2 naming the flag; a failed run or gate is code 1. `main`
//! hands its result to [`exit_code`], the one place a message is printed.

use std::fmt::Display;
use std::ops::RangeBounds;
use std::process::ExitCode;
use std::str::FromStr;

/// Why a command ended early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// Process exit code: 2 = usage, 1 = failed run or gate.
    pub code: u8,
    /// The diagnostic, without the program prefix; empty says nothing.
    pub message: String,
}

impl Failure {
    /// A command line the program refuses (exit 2).
    pub fn usage(message: impl Into<String>) -> Self {
        let message = message.into();
        Self { code: 2, message }
    }

    /// A run or gate that failed (exit 1).
    pub fn failed(message: impl Into<String>) -> Self {
        let message = message.into();
        Self { code: 1, message }
    }
}

/// A failed write to the command's output. A reader that closed the pipe
/// (`| head -1`) is not an error: the command stops quietly.
impl From<std::io::Error> for Failure {
    fn from(e: std::io::Error) -> Self {
        let mut failure = Self::failed(format!("cannot write output: {e}"));
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            (failure.code, failure.message) = (0, String::new());
        }
        failure
    }
}

/// `.map_err(because("compilation failed"))`: the run failure
/// "`what`: `error`".
pub fn because<E: Display>(what: impl Display) -> impl Fn(E) -> Failure {
    move |e| Failure::failed(format!("{what}: {e}"))
}

/// "one of a|b|c": the `what` of a flag whose values are a registry's names.
pub fn one_of<'a>(names: impl IntoIterator<Item = &'a str>) -> String {
    format!("one of {}", Vec::from_iter(names).join("|"))
}

/// The usual `parse` of [`Flags::value`]: `FromStr`, held to `range` (`..`
/// for any).
pub fn within<T: FromStr + PartialOrd>(range: impl RangeBounds<T>) -> impl Fn(&str) -> Option<T> {
    move |v| v.parse().ok().filter(|n| range.contains(n))
}

/// The process's exit: print `prefix: message` once, report the code.
pub fn exit_code(prefix: &str, result: Result<(), Failure>) -> ExitCode {
    let Err(failure) = result else {
        return ExitCode::SUCCESS;
    };
    if !failure.message.is_empty() {
        eprintln!("{prefix}: {}", failure.message);
    }
    ExitCode::from(failure.code)
}

/// The arguments of one command, consumed flag by flag.
#[derive(Debug)]
pub struct Flags(Vec<String>);

impl Flags {
    /// Start reading `argv` (the arguments after the command name).
    pub fn new(argv: &[String]) -> Self {
        Self(argv.to_vec())
    }

    /// Whether the valueless `flag` was given.
    pub fn switch(&mut self, flag: &str) -> bool {
        let before = self.0.len();
        self.0.retain(|arg| arg != flag);
        self.0.len() != before
    }

    /// Every value given for the repeatable `flag`, each read by `parse`;
    /// a missing or refused value is "`flag` needs `what`".
    pub fn values<T>(
        &mut self,
        flag: &str,
        what: &str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<Vec<T>, Failure> {
        let needs = || Failure::usage(format!("`{flag}` needs {what}"));
        let mut values = Vec::new();
        while let Some(at) = self.0.iter().position(|arg| arg == flag) {
            self.0.remove(at);
            if at == self.0.len() {
                return Err(needs());
            }
            values.push(parse(&self.0.remove(at)).ok_or_else(needs)?);
        }
        Ok(values)
    }

    /// The value of `flag` (the last, if repeated) as `parse` reads it.
    pub fn value<T>(
        &mut self,
        flag: &str,
        what: &str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<Option<T>, Failure> {
        Ok(self.values(flag, what, parse)?.pop())
    }

    /// Overwrite `slot` with the [`Flags::value`] of `flag`, if given.
    pub fn set<T>(
        &mut self,
        slot: &mut T,
        flag: &str,
        what: &str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<(), Failure> {
        if let Some(value) = self.value(flag, what, parse)? {
            *slot = value;
        }
        Ok(())
    }

    /// The next argument that is not a flag. Ask after every valued flag
    /// has been read, or a flag's value is taken for a positional.
    pub fn positional(&mut self) -> Option<String> {
        let at = self.0.iter().position(|arg| !arg.starts_with('-'))?;
        Some(self.0.remove(at))
    }

    /// Refuse whatever no call above consumed.
    pub fn finish(self) -> Result<(), Failure> {
        let Some(arg) = self.0.first() else {
            return Ok(());
        };
        let what = if arg.starts_with('-') {
            "unknown flag"
        } else {
            "unexpected argument"
        };
        Err(Failure::usage(format!("{what} `{arg}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(line: &str) -> Flags {
        let argv: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        Flags::new(&argv)
    }

    #[test]
    fn flags_are_pulled_in_any_order_and_the_rest_is_refused() {
        let mut f = flags("a.json --quick --tolerance 2.5 b.json --engine cpu --engine hls");
        assert_eq!(
            f.value("--tolerance", "a number", within(0.0..)),
            Ok(Some(2.5))
        );
        assert_eq!(f.value("--absent", "a number", within::<u32>(..)), Ok(None));
        let engines = f.values("--engine", "a name", |v| Some(v.to_string()));
        assert_eq!(engines.unwrap(), ["cpu", "hls"]);
        assert!(f.switch("--quick"));
        assert!(!f.switch("--quick"), "a switch is consumed");
        assert_eq!(f.positional().as_deref(), Some("a.json"));
        assert_eq!(f.positional().as_deref(), Some("b.json"));
        assert_eq!(f.positional(), None);
        assert_eq!(f.finish(), Ok(()));

        // A flag given twice keeps the last value, like the loops it replaced.
        let mut f = flags("--cus 2 --cus 3");
        assert_eq!(f.value("--cus", "a count", within(1..)), Ok(Some(3)));
        assert_eq!(f.finish(), Ok(()));
    }

    #[test]
    fn every_refusal_is_a_usage_failure_naming_the_flag() {
        let needs = Failure::usage("`--cus` needs a count");
        for line in ["--cus", "--cus many", "--cus 0", "--cus 1 --cus"] {
            let got = flags(line).value("--cus", "a count", within(1..=64u32));
            assert_eq!(got, Err(needs.clone()), "{line}");
        }
        assert_eq!(needs.code, 2);
        let unknown = flags("--bogus 3").finish().unwrap_err();
        assert_eq!(unknown, Failure::usage("unknown flag `--bogus`"));
        let extra = flags("stray").finish().unwrap_err();
        assert_eq!(extra, Failure::usage("unexpected argument `stray`"));
        assert_eq!(one_of(["a", "b", "c"]), "one of a|b|c");
    }

    #[test]
    fn a_closed_pipe_is_a_quiet_exit_and_other_write_errors_are_not() {
        let closed = Failure::from(std::io::Error::from(std::io::ErrorKind::BrokenPipe));
        assert_eq!((closed.code, closed.message.as_str()), (0, ""));
        let full = Failure::from(std::io::Error::other("disk full"));
        assert_eq!(full, Failure::failed("cannot write output: disk full"));
        let wrapped = because("compilation failed")("bad halo");
        assert_eq!(wrapped, Failure::failed("compilation failed: bad halo"));
    }
}
