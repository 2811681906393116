//! Determinism lint: a dependency-free source scan over the simulator
//! crates (`c3-sim`, `c3-memsys`, `c3`, `c3-cxl`) and the workload
//! generators (`c3-workloads`) denying constructs that break same-seed
//! reproducibility:
//!
//! * wall-clock time (`std::time::Instant`, `SystemTime`) — simulation
//!   behaviour must depend only on virtual time;
//! * the standard `HashMap`/`HashSet` (SipHash with a random seed, and
//!   iteration order that varies run-to-run) — use
//!   `c3_sim::hash::FxHashMap` / `FxHashSet`;
//! * thread spawning — the kernel is single-threaded by design; only the
//!   experiment *runner* (outside these crates) parallelises. No scanned
//!   file is exempt.
//!
//! A small allowlist covers the legitimate uses: the kernel's
//! wall-clock run timer (reported, never fed back into simulation) and
//! the `hash` module that wraps `HashMap` to define `FxHashMap`. Nobody
//! may size a worker pool from the host (`available_parallelism`).

use std::fs;
use std::path::{Path, PathBuf};

/// Crates whose sources must be deterministic. The workload generators
/// are included: per-thread program streams (including the OLTP/KV
/// zipfian engine) must be a pure function of (spec, thread, seed).
const SCANNED: [&str; 6] = [
    "crates/sim/src",
    "crates/memsys/src",
    "crates/core/src",
    "crates/cxl/src",
    "crates/workloads/src",
    "crates/verif/src",
];

/// `(file suffix, substring)` pairs exempt from the deny list.
const ALLOWLIST: [(&str, &str); 4] = [
    // Wall-clock timing of the whole run, reported as host seconds and
    // never fed back into simulated behaviour.
    ("crates/sim/src/kernel.rs", "Instant"),
    // The FxHashMap wrapper itself must import the std types it wraps.
    ("crates/sim/src/hash.rs", "HashMap"),
    ("crates/sim/src/hash.rs", "HashSet"),
    ("crates/sim/src/hash.rs", "std::collections"),
];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("read {dir:?}: {e}")) {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Strip `//` comments and string literals so the scan only sees code.
fn code_only(line: &str) -> String {
    let line = match line.find("//") {
        Some(i) => &line[..i],
        None => line,
    };
    let mut out = String::with_capacity(line.len());
    let mut in_str = false;
    let mut prev = '\0';
    for c in line.chars() {
        if c == '"' && prev != '\\' {
            in_str = !in_str;
            prev = c;
            continue;
        }
        if !in_str {
            out.push(c);
        }
        prev = c;
    }
    out
}

fn allowed(rel: &str, needle: &str) -> bool {
    ALLOWLIST
        .iter()
        .any(|(file, what)| rel.ends_with(file) && needle.contains(what))
}

#[test]
fn simulator_crates_are_deterministic() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let deny: [(&str, &str); 8] = [
        ("std::time::Instant", "wall-clock time in simulation code"),
        ("Instant::now", "wall-clock time in simulation code"),
        ("SystemTime", "wall-clock time in simulation code"),
        (
            "std::collections::HashMap",
            "randomly-seeded std HashMap; use c3_sim::hash::FxHashMap",
        ),
        ("std::thread", "thread spawning inside the simulator"),
        ("thread::spawn", "thread spawning inside the simulator"),
        (
            "available_parallelism",
            "host-dependent worker sizing; thread counts must be explicit",
        ),
        (
            "values().sum", // representative of unordered map-iteration folds
            "iteration over unordered map values; collect and sort first",
        ),
    ];

    let mut files = Vec::new();
    for dir in SCANNED {
        rust_files(&root.join(dir), &mut files);
    }
    assert!(files.len() > 10, "lint scanned only {} files", files.len());

    let mut violations = Vec::new();
    for path in &files {
        let rel = path.strip_prefix(root).unwrap().to_string_lossy();
        let src = fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
        for (ln, raw) in src.lines().enumerate() {
            let code = code_only(raw);
            for (needle, why) in deny {
                if code.contains(needle) && !allowed(&rel, needle) {
                    violations.push(format!("{rel}:{}: {needle} — {why}", ln + 1));
                }
            }
            // Bare HashMap/HashSet (imported once, used bare) — only the
            // Fx variants are deterministic.
            for bare in ["HashMap", "HashSet"] {
                if code.replace(&format!("Fx{bare}"), "").contains(bare)
                    && !code.contains("std::collections")
                    && !allowed(&rel, bare)
                {
                    violations.push(format!(
                        "{rel}:{}: bare {bare} — use c3_sim::hash::Fx{bare}",
                        ln + 1
                    ));
                }
            }
        }
    }

    assert!(
        violations.is_empty(),
        "determinism lint found {} violation(s):\n{}",
        violations.len(),
        violations.join("\n")
    );
}
