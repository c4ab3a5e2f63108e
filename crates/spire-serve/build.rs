//! Embeds build provenance into the binary: the git commit and rustc
//! version surface in `/metrics` as `build_info`, so an operator can
//! tell *which build* produced a latency regression without shelling
//! into the host. Both probes degrade to `"unknown"` — a tarball build
//! without `.git` or a stripped environment must still compile.

use std::fs;
use std::path::Path;
use std::process::Command;

fn probe(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    let git_hash = probe("git", &["rev-parse", "--short=12", "HEAD"]);
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let rustc_version = probe(&rustc, &["--version"]);
    println!("cargo:rustc-env=SPIRE_BUILD_GIT_HASH={git_hash}");
    println!("cargo:rustc-env=SPIRE_BUILD_RUSTC={rustc_version}");
    watch_git_head();
}

/// Re-run when the commit moves so the hash stays honest in dev loops.
/// `.git/HEAD` usually holds `ref: refs/heads/<branch>` and does not
/// change on commit; the ref file it names (or `packed-refs`, where
/// `git gc` moves it) does. Only existing paths are declared: Cargo
/// reruns a script on every build while a declared path is missing, so
/// a build without `.git` watches `build.rs` alone.
fn watch_git_head() {
    println!("cargo:rerun-if-changed=build.rs");
    let git = Path::new("../../.git");
    let Ok(head) = fs::read_to_string(git.join("HEAD")) else {
        return;
    };
    let mut watched = vec![git.join("HEAD"), git.join("packed-refs")];
    if let Some(name) = head.strip_prefix("ref: ") {
        watched.push(git.join(name.trim()));
    }
    for path in watched.iter().filter(|path| path.exists()) {
        println!("cargo:rerun-if-changed={}", path.display());
    }
}
