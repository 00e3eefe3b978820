//! The experiment binaries' command-line contract: a mistyped flag or
//! environment knob is a usage error (exit 2, one stderr line naming
//! it), never a silent default run.

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

#[test]
fn an_unaccepted_environment_knob_exits_2_with_one_line_naming_it() {
    // A mistyped engine name must not fall back to the decoded engine:
    // a differential run would then compare it with itself.
    for (var, value) in [("TICS_VM_ENGINE", "Reference"), ("TICS_VM_ENGINE", "fast")] {
        let out = Command::new(env!("CARGO_BIN_EXE_exp_table5"))
            .env_remove("TICS_VM_ENGINE")
            .env(var, value)
            .output()
            .expect("exp_table5 runs");
        assert_eq!(out.status.code(), Some(2), "{var}={value}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.lines().count(), 1, "{var}={value}: {stderr}");
        assert!(stderr.contains(var), "{stderr}");
        assert!(out.stdout.is_empty(), "{var}={value}: nothing ran");
    }
}

#[test]
fn a_malformed_resumed_row_fails_the_fault_demo_gate_naming_it() {
    // A `--resume` journal is outside input: a naive row whose shrunk
    // cut list cannot be parsed must fail the demo gate, not be replayed
    // with the bad token silently dropped.
    let dir = std::env::temp_dir().join(format!("tics-cli-fault-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let run = |resume: bool| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_exp_fault"));
        cmd.current_dir(&dir)
            .args(["--quick", "--threads", "2", "--journal", "j.jsonl"]);
        if resume {
            cmd.arg("--resume");
        }
        cmd.output().expect("exp_fault runs")
    };
    assert_eq!(run(false).status.code(), Some(0));
    let journal = dir.join("j.jsonl");
    let text = std::fs::read_to_string(&journal).expect("journal written");
    let naive = text
        .lines()
        .position(|l| l.contains("\"MementOS\"") && l.contains("\"shrunk_cuts\""))
        .expect("a naive row carries a shrunk counterexample");
    let damaged: Vec<String> = text
        .lines()
        .enumerate()
        .map(|(i, l)| {
            if i != naive {
                return l.to_string();
            }
            let key = "\"shrunk_cuts\":\"";
            let start = l.find(key).expect("shrunk_cuts") + key.len();
            let end = start + l[start..].find('"').expect("closing quote");
            format!("{}12,x,40{}", &l[..start], &l[end..])
        })
        .collect();
    std::fs::write(&journal, damaged.join("\n") + "\n").expect("journal rewritten");
    let out = run(true);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    let line = stderr
        .lines()
        .find(|l| l.contains("malformed row"))
        .unwrap_or_else(|| panic!("no malformed-row line: {stderr}"));
    assert!(line.contains(&format!("cell {naive} ")), "{line}");
    assert!(line.contains("\"x\""), "{line}");
    assert!(
        stderr.contains("gate naive divergence demo: FAIL"),
        "{stderr}"
    );
}
