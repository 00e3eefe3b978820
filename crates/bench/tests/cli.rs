//! The experiment binaries' command-line contract: a mistyped flag is a
//! usage error (exit 2, one stderr line naming it), never a silent
//! default run.

use std::process::Command;

#[test]
fn an_unknown_flag_exits_2_with_one_line_naming_it() {
    let out = Command::new(env!("CARGO_BIN_EXE_exp_table5"))
        .arg("--bogus")
        .output()
        .expect("exp_table5 runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.contains("--bogus"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing ran");
}
