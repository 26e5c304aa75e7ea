//! The one child-process harness of the determinism suites.
//!
//! The worker pool reads `BENCHTEMP_THREADS` once per process, so every
//! thread-count (or cross-process) comparison re-invokes the running test
//! binary as a child with `BENCHTEMP_TEST_CHILD=1` plus the env vars under
//! test, runs a single worker test in it, and compares the `RESULT …`
//! marker lines the workers print. Worker tests return early unless
//! [`is_child`]; driver tests return early if it is (no recursion).
//!
//! Std-only, so suites outside `benchtemp-core` include this file with
//! `#[path]`.

use std::process::Command;

/// Is this process a child spawned by [`run_child`]?
pub fn is_child() -> bool {
    std::env::var("BENCHTEMP_TEST_CHILD").is_ok()
}

/// FNV-1a over a byte stream — endian-stable and dependency-free.
pub fn fnv1a(bytes: impl Iterator<Item = u8>) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Re-invoke this test binary running only `worker`, with
/// `BENCHTEMP_TEST_CHILD=1` plus `envs`, and return the worker's
/// `RESULT …` marker line.
pub fn run_child(worker: &str, envs: &[(&str, &str)]) -> String {
    let exe = std::env::current_exe().expect("current test binary");
    let mut cmd = Command::new(exe);
    cmd.args([worker, "--exact", "--nocapture"])
        .env("BENCHTEMP_TEST_CHILD", "1");
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("spawn child test process");
    assert!(
        out.status.success(),
        "child {worker} with {envs:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // libtest's unbuffered "test … ok" progress text can share a line with
    // the worker's output, so match the marker anywhere in the line.
    stdout
        .lines()
        .find_map(|l| l.find("RESULT ").map(|at| l[at..].to_string()))
        .unwrap_or_else(|| panic!("no RESULT line from child {worker}:\n{stdout}"))
}
