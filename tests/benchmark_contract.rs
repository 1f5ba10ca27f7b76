//! Tier-1 guard for the frozen repo benchmark (`BENCHMARK.json`,
//! `benchmark/`).
//!
//! The benchmark is a package of its own outside the root workspace, so
//! `cargo test` never compiles it: an engine change could break its
//! `--locked` crate graph, or rename an entry point that
//! `benchmark/src/seams.rs` / `engine.rs` call, and still pass every
//! other test. This one type-checks the benchmark against the engine as
//! it stands, exactly as `benchmark/run.sh` resolves it.

use std::path::Path;
use std::process::Command;

#[test]
fn benchmark_still_builds_against_the_engine() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .args(["check", "--locked", "--offline", "--manifest-path"])
        .arg(root.join("benchmark/Cargo.toml"))
        // run.sh's default target directory (ignored by git), whatever
        // directory the enclosing `cargo test` builds into.
        .env("CARGO_TARGET_DIR", root.join("benchmark/target"))
        .output()
        .expect("cargo runs");
    assert!(
        out.status.success(),
        "the benchmark no longer builds against the engine:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
