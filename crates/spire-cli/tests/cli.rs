//! The command-line contract of the `spire` binary: each subcommand
//! accepts only the flags it declares, `--help` prints its usage and runs
//! nothing, and a rejected command line creates no file.
//!
//! Every test runs the binary in a fresh directory of its own, so a
//! command that writes relative to its working directory shows up there.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh, empty directory for one test.
fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spire-cli-{test}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn spire(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_spire"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("run spire")
}

fn entries(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .expect("read scratch dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    names
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

#[test]
fn help_prints_usage_and_runs_nothing() {
    let dir = scratch_dir("help");
    let out = spire(&dir, &["report", "--help"]);
    assert!(out.status.success(), "{}", text(&out.stderr));
    let stdout = text(&out.stdout);
    assert!(stdout.starts_with("usage: spire report"), "{stdout}");
    assert!(stdout.contains("--check"), "{stdout}");
    assert!(
        entries(&dir).is_empty(),
        "report --help wrote {:?}",
        entries(&dir)
    );

    // Every subcommand, including the long-running ones.
    for command in [
        "compile",
        "analyze",
        "check",
        "benchmarks",
        "experiments",
        "serve",
        "loadtest",
        "trace",
    ] {
        let out = spire(&dir, &[command, "--help"]);
        assert!(out.status.success(), "{command} --help failed");
        let usage = format!("usage: spire {command}");
        assert!(text(&out.stdout).starts_with(&usage), "{command} --help");
    }
    assert!(entries(&dir).is_empty(), "--help wrote {:?}", entries(&dir));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn unknown_flags_are_rejected_before_any_work() {
    let dir = scratch_dir("unknown");
    for (args, flag) in [
        (&["report", "--chek"][..], "--chek"),
        (&["serve", "--cache-byts", "8m"][..], "--cache-byts"),
    ] {
        let out = spire(&dir, args);
        assert!(!out.status.success(), "{args:?} succeeded");
        let stderr = text(&out.stderr);
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: spire"), "{args:?}: {stderr}");
        assert!(
            entries(&dir).is_empty(),
            "{args:?} wrote {:?}",
            entries(&dir)
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn stray_operands_and_missing_values_are_rejected() {
    let dir = scratch_dir("stray");
    fs::write(
        dir.join("prog.twr"),
        "fun f(x: uint) -> uint { let out <- x + 1; return out; }\n",
    )
    .expect("write program");
    let stray = spire(
        &dir,
        &[
            "compile", "prog.twr", "--entry", "f", "--depth", "1", "stray",
        ],
    );
    assert!(!stray.status.success(), "stray operand accepted");
    assert!(text(&stray.stderr).contains("`stray`"));
    assert!(
        stray.stdout.is_empty(),
        "compiled despite the stray operand"
    );

    let missing = spire(&dir, &["compile", "prog.twr", "--entry", "f", "--depth"]);
    assert!(
        !missing.status.success(),
        "--depth without a value accepted"
    );
    assert!(text(&missing.stderr).contains("--depth needs a value"));
    assert_eq!(entries(&dir), ["prog.twr"]);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn repeated_set_flags_all_apply() {
    let dir = scratch_dir("set");
    fs::write(
        dir.join("add.twr"),
        "fun add(x: uint, y: uint) -> uint { let out <- x + y; return out; }\n",
    )
    .expect("write program");
    let out = spire(
        &dir,
        &[
            "compile",
            "add.twr",
            "--entry",
            "add",
            "--depth",
            "0",
            "--out",
            "add.qc",
            "--simulate",
            "--set",
            "x=41",
            "--set",
            "y=1",
        ],
    );
    assert!(out.status.success(), "{}", text(&out.stderr));
    let stdout = text(&out.stdout);
    for line in ["  x: uint = 41", "  y: uint = 1", "  out: uint = 42"] {
        assert!(
            stdout.lines().any(|l| l == line),
            "missing {line:?}:\n{stdout}"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn analyze_locates_compile_errors() {
    let dir = scratch_dir("analyze");
    fs::write(
        dir.join("bad.twr"),
        "fun f(x: uint) -> uint {\n    let out <- x + 1;\n    let out <- true;\n    return out;\n}\n",
    )
    .expect("write program");
    let out = spire(
        &dir,
        &["analyze", "bad.twr", "--entry", "f", "--depth", "0"],
    );
    assert!(!out.status.success(), "ill-typed program analyzed");
    let stderr = text(&out.stderr);
    assert!(
        stderr.contains("[tower/redeclared-at-different-type]"),
        "no code in:\n{stderr}"
    );
    assert!(stderr.contains(" --> 2:9 "), "no location in:\n{stderr}");
    assert!(stderr.contains("  |         ^^^"), "no caret in:\n{stderr}");
    let _ = fs::remove_dir_all(&dir);
}

/// `experiments <id>` prints exactly the Markdown of `reports/<id>.md`
/// below its generated-by header. Table 4 has no timing cells.
#[test]
fn experiments_prints_the_committed_report() {
    let dir = scratch_dir("experiments");
    let out = spire(&dir, &["experiments", "table4"]);
    assert!(out.status.success(), "{}", text(&out.stderr));
    let committed = fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../reports/table4.md"
    ))
    .expect("read reports/table4.md");
    let (header, body) = committed.split_once("\n\n").expect("header line");
    assert!(header.starts_with("<!--"), "{header}");
    assert_eq!(text(&out.stdout), body);
    assert!(
        entries(&dir).is_empty(),
        "experiments wrote {:?}",
        entries(&dir)
    );
    let _ = fs::remove_dir_all(&dir);
}
