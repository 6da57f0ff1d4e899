//! CLI goldens for `anvilc`: bad invocations exit 2 with a usage or
//! read error on stderr — never a panic, never exit 101 — and good
//! invocations exit 0 and write the SystemVerilog artifact.
//!
//! These pin the bugfixes to the example binary's argument handling;
//! they locate the prebuilt example next to the test executable (cargo
//! builds examples before running integration tests).

use std::path::PathBuf;
use std::process::{Command, Output};

/// Path to a prebuilt example binary: `target/<profile>/examples/<name>`
/// (the test executable itself lives in `target/<profile>/deps/`).
fn example(name: &str) -> PathBuf {
    let mut path = std::env::current_exe().expect("current_exe");
    path.pop(); // test binary name
    if path.ends_with("deps") {
        path.pop();
    }
    path.push("examples");
    path.push(name);
    assert!(path.exists(), "example binary missing: {}", path.display());
    path
}

fn run(args: &[&str]) -> Output {
    Command::new(example("anvilc"))
        .args(args)
        .output()
        .expect("spawn anvilc")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn no_arguments_prints_usage_and_exits_2() {
    let out = run(&[]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("usage:"), "{}", stderr(&out));
}

#[test]
fn unknown_flag_prints_usage_and_exits_2() {
    let out = run(&["--frobnicate"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("usage:"), "{}", stderr(&out));
}

#[test]
fn missing_input_file_is_a_read_error_not_a_panic() {
    let out = run(&["/nonexistent/definitely-missing.anv"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("cannot read"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn unreadable_path_is_a_read_error_not_a_panic() {
    // A directory is open-able but not readable as a file.
    let out = run(&["/tmp"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("cannot read"), "{}", stderr(&out));
}

#[test]
fn flags_missing_their_value_exit_2() {
    for args in [
        &["in.anv", "-o"][..],
        &["in.anv", "--repeat"][..],
        &["in.anv", "--repeat", "zero"][..],
        &["in.anv", "--prove"][..],
        &["in.anv", "--top"][..],
        &["in.anv", "--max-k"][..],
    ] {
        let out = run(args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "args {args:?}: {}",
            stderr(&out)
        );
        assert!(stderr(&out).contains("usage:"), "args {args:?}");
    }
}

#[test]
fn good_invocation_compiles_and_writes_the_artifact() {
    let dir = std::env::temp_dir().join(format!("anvilc-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let input = dir.join("blink.anv");
    let output = dir.join("blink.sv");
    std::fs::write(
        &input,
        "proc blink() { reg led : logic; loop { set led := ~*led >> cycle 1 } }",
    )
    .expect("write input");

    let out = run(&[input.to_str().unwrap(), "-o", output.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let sv = std::fs::read_to_string(&output).expect("artifact written");
    assert!(sv.contains("module blink"), "{sv}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_program_exits_1_with_rendered_diagnostic() {
    // Exit 1 is reserved for "your program is wrong" (vs 2 = "your
    // invocation is wrong"): a parse error must not shift classes.
    let dir = std::env::temp_dir().join(format!("anvilc-golden-bad-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let input = dir.join("broken.anv");
    std::fs::write(&input, "proc p() { loop { ??? } }").expect("write input");

    let out = run(&[input.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("unexpected character"),
        "{}",
        stderr(&out)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn non_ascii_character_exits_1_with_rendered_diagnostic() {
    // The lexer names the whole character and spans all of its bytes, so
    // rendering the diagnostic cannot slice the source inside it.
    let dir = std::env::temp_dir().join(format!("anvilc-golden-utf8-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let input = dir.join("accent.anv");
    std::fs::write(
        &input,
        "proc p() { reg r : logic; loop { set r := é >> cycle 1 } }",
    )
    .expect("write input");

    let out = run(&[input.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    assert_eq!(
        stderr(&out),
        "1:43: unexpected character `é` (at `é`)\n",
        "{}",
        stderr(&out)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
