//! The experiment binaries reject a bad flag value, and a flag they do not
//! read, the way the `skip` CLI does: `error: <message>` on stderr and exit
//! status 1, never a panic, never a run that quietly plans nothing and
//! never a typo that silently falls back to a default.

use std::process::Command;

/// Runs `bin` with `args`, expecting exit status 1, and returns the
/// trimmed stderr.
fn stderr_of_failure(bin: &str, args: &[&str]) -> String {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr).trim().to_owned();
    assert_eq!(out.status.code(), Some(1), "{bin} {args:?}: {stderr}");
    stderr
}

#[test]
fn bad_flag_values_are_errors_not_panics() {
    let capacity = env!("CARGO_BIN_EXE_capacity");
    let fig6 = env!("CARGO_BIN_EXE_fig6");
    let fig3 = env!("CARGO_BIN_EXE_fig3");
    for (bin, args, want) in [
        (
            capacity,
            &["--max-replicas", "x"][..],
            "--max-replicas: bad number 'x'",
        ),
        (
            capacity,
            &["--max-replicas", "0"],
            "--max-replicas must be at least 1",
        ),
        (
            capacity,
            &["--max-replicas"],
            "--max-replicas requires a value",
        ),
        (
            capacity,
            &["--threads", "0"],
            "--threads must be at least 1",
        ),
        (fig6, &["--threads", "0"], "--threads must be at least 1"),
        (fig6, &["--threads", "-2"], "--threads: bad number '-2'"),
        (fig6, &["--threads"], "--threads requires a value"),
        (
            capacity,
            &["--max-replica", "8"],
            "capacity does not read --max-replica (it reads --threads --max-replicas)",
        ),
        (
            fig6,
            &["--thraeds", "4"],
            "fig6 does not read --thraeds (it reads --threads)",
        ),
        (
            fig3,
            &["--bogus", "1"],
            "fig3 does not read --bogus (it reads --threads)",
        ),
    ] {
        assert_eq!(
            stderr_of_failure(bin, args),
            format!("error: {want}"),
            "{bin} {args:?}"
        );
    }
}
