//! `shmlsc` as a process: exit codes 0 / 1 / 2, what lands on which
//! stream, and a reader that closes the pipe.

use std::process::{Command, Output, Stdio};

const HEAT3D: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../kernels/heat3d.stencil");

fn shmlsc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_shmlsc"))
        .args(args)
        .output()
        .expect("shmlsc runs")
}

fn text(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("utf-8 output")
}

#[test]
fn a_compile_exits_0_with_the_report_on_stdout() {
    let out = shmlsc(&[HEAT3D, "--validate"]);
    assert_eq!(out.status.code(), Some(0), "{}", text(&out.stderr));
    assert!(text(&out.stdout).starts_with("kernel `heat3d`:\n"));
    assert!(text(&out.stdout).ends_with("  PASS\n"));
    assert!(out.stderr.is_empty());

    let help = shmlsc(&["--help"]);
    assert_eq!(help.status.code(), Some(0));
    assert!(text(&help.stdout).contains("shmlsc kernel.stencil --emit all"));
}

#[test]
fn a_failed_run_exits_1_with_one_prefixed_line() {
    let missing = shmlsc(&["no-such-file.stencil"]);
    assert_eq!(missing.status.code(), Some(1));
    assert!(missing.stdout.is_empty());
    let message = text(&missing.stderr);
    assert!(
        message.starts_with("shmlsc: cannot read `no-such-file.stencil`: "),
        "{message}"
    );
    assert_eq!(message.lines().count(), 1);

    // 11 CUs × 3 m_axi bundles is past the U280's 32 HBM banks.
    let banks = shmlsc(&[HEAT3D, "--connectivity", "11"]);
    assert_eq!(banks.status.code(), Some(1));
    assert!(text(&banks.stderr).contains("HBM banks"));
}

#[test]
fn a_refused_command_line_exits_2_before_anything_is_read_or_compiled() {
    // The input file does not exist: exit 2, not 1, shows the flags were
    // checked first.
    for (args, named) in [
        (
            &["nowhere.stencil", "--emit", "wasm"][..],
            "`--emit` needs one of stencil|hls|llvm|all",
        ),
        (
            &["nowhere.stencil", "--connectivity", "0"],
            "`--connectivity` needs",
        ),
        (&["nowhere.stencil", "--cus", "0"], "`--cus` needs"),
        (&["nowhere.stencil", "--bogus"], "unknown flag `--bogus`"),
        (&[], "no input file"),
    ] {
        let out = shmlsc(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let message = text(&out.stderr);
        assert!(message.starts_with("shmlsc: "), "{args:?}: {message}");
        assert!(message.contains(named), "{args:?}: {message}");
        assert!(
            message.contains("shmlsc kernel.stencil --emit all"),
            "usage follows"
        );
    }
}

#[test]
fn a_closed_pipe_is_not_a_panic() {
    // `shmlsc … --emit all | head -1` once the reader is gone: every
    // write fails with EPIPE.
    let (reader, writer) = std::io::pipe().expect("a pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_shmlsc"))
        .args([HEAT3D, "--emit", "all"])
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("shmlsc runs");
    assert_eq!(out.status.code(), Some(0));
    assert!(out.stderr.is_empty(), "{}", text(&out.stderr));
}
