//! Guards against the root-package trap: plain `cargo test -q` at the
//! workspace root runs only this facade package's suite, **not** the member
//! crates' unit and property tests — `--workspace` is required for those.
//! This test (which plain `cargo test -q` *does* run) pins the CI workflow
//! to the full-coverage invocations, so dropping a `--workspace` flag or
//! the bench smoke step fails loudly instead of silently shrinking CI.
//!
//! The assertions are comment-anchored: `.github/workflows/ci.yml` carries
//! a `workspace-guard:` marker comment pointing back at this file.

use std::fs;
use std::path::Path;

fn ci_config() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(".github/workflows/ci.yml");
    fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read CI workflow {}: {e}", path.display()))
}

#[test]
fn ci_tests_the_whole_workspace() {
    let ci = ci_config();
    for required in [
        "cargo test -q --workspace",
        "cargo test -q --doc --workspace",
        "cargo clippy --workspace --all-targets",
        "cargo build --release --workspace --all-targets",
    ] {
        assert!(
            ci.contains(required),
            "CI workflow no longer runs `{required}` — plain `cargo test` at \
             the root covers only the facade package, so CI must keep the \
             --workspace invocations (see this file's module docs)"
        );
    }
}

#[test]
fn ci_keeps_the_rustdoc_step() {
    // The builder/engine/sink redesign leans on intra-doc links between
    // crates; this step turns a broken link into a CI failure instead of a
    // silently rotting docs surface.
    let ci = ci_config();
    for required in [
        r#"RUSTDOCFLAGS="-D warnings""#,
        "cargo doc --no-deps --workspace",
    ] {
        assert!(
            ci.contains(required),
            "CI workflow dropped `{required}` — without the rustdoc step, \
             broken intra-doc links on the builder/engine API surface would \
             accrue silently"
        );
    }
}

#[test]
fn ci_keeps_the_bench_smoke_step() {
    let ci = ci_config();
    assert!(
        ci.contains("cargo bench -p berkmin-bench --bench bcp -- --test"),
        "CI workflow dropped the criterion-shim BCP bench smoke step; the \
         bench layer would rot silently without it"
    );
    assert!(
        ci.contains("cargo bench -p berkmin-bench --bench incremental_bmc -- --test"),
        "CI workflow dropped the incremental-BMC bench smoke step; it is \
         what re-checks that clause reuse keeps beating per-depth scratch \
         re-solving"
    );
    assert!(
        ci.contains("workspace-guard:"),
        "CI workflow lost its marker comment linking back to tests/workspace_guard.rs"
    );
}

#[test]
fn ci_runs_every_example() {
    // The examples assert their own answers, and `bmc_counter`,
    // `equivalence_checking` and `solver_shootout` run the circuit
    // encoders end to end; building them with `--all-targets` checks none
    // of that, so CI runs each one.
    let ci = ci_config();
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples");
    let mut examples = Vec::new();
    rust_files(&dir, &mut examples);
    assert!(!examples.is_empty(), "no examples found");
    for example in examples {
        let name = example.file_stem().expect("file name").to_string_lossy();
        let required = format!("cargo run --release --example {name}\n");
        assert!(
            ci.contains(&required),
            "CI workflow does not run the `{name}` example; its assertions \
             would go unchecked"
        );
    }
}

#[test]
fn ci_keeps_the_portfolio_steps() {
    // The portfolio's correctness claim rests on the agreement sweep
    // (two-worker portfolio vs single-threaded BerkMin, deterministic with
    // sharing on and off, and the threaded race with sharing on). It must
    // keep running on every push.
    let ci = ci_config();
    assert!(
        ci.contains("cargo test -q --release --test solver_agreement portfolio"),
        "CI workflow dropped the portfolio agreement sweep; portfolio \
         verdicts would no longer be checked against the lone solver"
    );
}

#[test]
fn ci_keeps_the_threaded_portfolio_smoke_step() {
    // Every other CLI portfolio step runs the deterministic scheduler; this
    // one is the only end-to-end run of the threaded race (scoped worker
    // threads, the cancel flag, a proof spliced from a threaded winner and
    // one race per BMC depth).
    let ci = ci_config();
    for required in [
        "--engine portfolio --threads 2 \\\n            --stats-json tstats.json hole5.cnf || rc=$?; [ \"$rc\" -eq 20 ]",
        "--no-share \\\n            --proof hole5t.drat --check-proof hole5.cnf || rc=$?; [ \"$rc\" -eq 20 ]",
        "bmc --bits 4 --engine portfolio --threads 2 \\\n            || rc=$?; [ \"$rc\" -eq 10 ]",
        r#"s = json.load(open("tstats.json"))"#,
    ] {
        assert!(
            ci.contains(required),
            "CI workflow dropped `{required}` from the threaded portfolio \
             smoke step; the threaded race would run in no CLI check"
        );
    }
}

#[test]
fn ci_keeps_the_telemetry_smoke_step() {
    // The observability layer's end-to-end check: solve a generated
    // instance with --stats-json and -v, parse the emitted JSON back and
    // require the key counters non-zero — for the single engine and the
    // deterministic portfolio. Without this step a silently empty or
    // malformed stats file would ship unnoticed.
    let ci = ci_config();
    for required in [
        "-v --stats-json stats.json",
        "--deterministic \\\n            --stats-json pstats.json",
        r#"assert s["stats"]["conflicts"] > 0"#,
        r#"assert len(s["workers"]) == 2"#,
    ] {
        assert!(
            ci.contains(required),
            "CI workflow dropped `{required}` from the telemetry smoke step; \
             the --stats-json/-v surface would rot silently"
        );
    }
}

#[test]
fn ci_keeps_the_preprocessing_steps() {
    // The preprocessing subsystem's two CI legs: the agreement sweep that
    // runs every paper configuration with simplification off and fully on,
    // and the proof pipeline that pushes elimination's add/delete lines
    // through the independent checker (plus the reconstructed-model SAT
    // arm).
    let ci = ci_config();
    assert!(
        ci.contains("cargo test -q --release --test solver_agreement all_configs"),
        "CI workflow dropped the simplified agreement sweep; preprocessing \
         could silently move verdicts on the paper configurations"
    );
    assert!(
        ci.contains("--elim --proof hole5.drat --check-proof hole5.cnf"),
        "CI workflow dropped the elimination proof pipeline; DRAT streams \
         with elimination deletions would no longer be checked end-to-end"
    );
    assert!(
        ci.contains("grep -q '^d ' hole5.drat"),
        "CI workflow no longer insists the elimination proof carries `d` \
         lines — the deletion-emitting path would rot silently"
    );
    assert!(
        ci.contains("--elim elim_sat.cnf"),
        "CI workflow dropped the reconstructed-model SAT arm; model \
         extension over eliminated variables would go unexercised"
    );
    let portfolio = "--engine portfolio --threads 2 --deterministic --no-share --elim";
    assert!(
        ci.contains(&format!(
            "{portfolio} --proof hole5p.drat --check-proof hole5.cnf"
        )) && ci.contains("grep -q '^d ' hole5p.drat"),
        "CI workflow dropped the portfolio elimination proof arm; the \
         front's DRAT prefix would no longer be checked end-to-end"
    );
    assert!(
        ci.contains(&format!("{portfolio} elim_sat.cnf")),
        "CI workflow dropped the portfolio reconstructed-model SAT arm; the \
         front's model extension would go unexercised"
    );
}

#[test]
fn ci_keeps_the_fuzz_smoke_step() {
    // The differential fuzz harness is the integrity layer's teeth: a
    // bounded fixed-seed sweep in which every SAT model, UNSAT core and
    // refutation proof is independently certified. CI must keep running it.
    let ci = ci_config();
    assert!(
        ci.contains("cargo run --release -p berkmin-fuzz -- run --cases"),
        "CI workflow dropped the differential fuzz smoke step; solver \
         answers would no longer be cross-certified on every push"
    );
}

#[test]
fn ci_keeps_the_checker_mutation_step() {
    // The mutation test pins the DRAT checker to a naive reference on
    // mutated solver proofs, and `check_reports` pins its report counts on
    // the solver's own proofs; in release mode both run in about a second,
    // so CI must keep running them.
    let ci = ci_config();
    assert!(
        ci.contains(
            "cargo test -q --release -p berkmin-drat --test mutations --test check_reports"
        ),
        "CI workflow dropped the proof-checker mutation step; a checker \
         that accepts a bad proof or rejects a good one would go unnoticed"
    );
}

#[test]
fn ci_keeps_the_search_fingerprint_step() {
    // The fingerprint test pins verdicts, search counters and DRAT hashes
    // on a fixed suite; it is what holds the hot-loop rewrites of
    // propagate/analyze/decide bit-identical. Release mode keeps it to
    // well under a second, so CI must keep running it.
    let ci = ci_config();
    assert!(
        ci.contains("cargo test -q --release -p berkmin --test search_fingerprint"),
        "CI workflow dropped the search-fingerprint step; a speedup that \
         silently changed the search would go unnoticed"
    );
}

#[test]
fn ci_keeps_the_hinted_proof_step() {
    // The checker falls back to full RUP whenever a hint chain fails, so a
    // solver that logs broken chains still passes every correctness test;
    // only the CI step that requires hole(8) to need no fallback notices
    // the lost speed. An unmatched deletion is ignored just as quietly, so
    // the step also requires that none of hole(8)'s deletions was.
    let ci = ci_config();
    for required in [
        "--proof hole8.drat --check-proof hole8.cnf",
        "grep -q ' by hints, 0 by full RUP)' hole8.log",
        "grep -q ', 0 ignored,' hole8.log",
    ] {
        assert!(
            ci.contains(required),
            "CI workflow dropped `{required}` from the hinted proof step; \
             failing hint chains would go unnoticed"
        );
    }
}

#[test]
fn ci_keeps_the_drat_text_stability_step() {
    // The search fingerprint hashes only the in-memory text; this step is
    // the one that pins the CLI's streamed proof files byte for byte, on
    // the default, `--elim` and `--no-simplify` paths, and the share-free
    // deterministic portfolio's spliced proof without and with `--elim`.
    let ci = ci_config();
    for required in [
        "--proof h7.drat --check-proof h7.cnf",
        "5af8a4f0cc9f0efc2ef9ca0716e48df6bddc61e36c195c453961b8e21e8cdaaf  h7.drat\" | sha256sum -c -",
        "--elim --proof h7e.drat --check-proof h7.cnf",
        "cd8415a177b59206811aa2deb3394d3f1140145c2dd35d40e9fab2f13c0e1960  h7e.drat\" | sha256sum -c -",
        "--no-simplify --proof h7n.drat --check-proof h7.cnf",
        "5af8a4f0cc9f0efc2ef9ca0716e48df6bddc61e36c195c453961b8e21e8cdaaf  h7n.drat\" | sha256sum -c -",
        "--proof h7p.drat --check-proof h7.cnf",
        "1028534ed776975e5a0bfbdc88444b52a5c8d4991ee4eddad7182eb99c5003f2  h7p.drat\" | sha256sum -c -",
        "--elim --proof h7pe.drat --check-proof h7.cnf",
        "e84faf4c023d347c718fc8c5de22e8c296561c3ee47a14e1402dae11d5f9d7dd  h7pe.drat\" | sha256sum -c -",
    ] {
        assert!(
            ci.contains(required),
            "CI workflow dropped `{required}` from the DRAT text stability \
             step; a change to the streamed proof file would go unnoticed"
        );
    }
}

#[test]
fn ci_keeps_the_benchmark_package_step() {
    // The benchmark is a package outside the workspace, so no workspace
    // invocation builds it; this step is what notices a workspace API
    // change that breaks it.
    let ci = ci_config();
    assert!(
        ci.contains("cargo test --release --offline --manifest-path benchmark/Cargo.toml"),
        "CI workflow dropped the benchmark package step; a workspace API \
         change could break the benchmark unnoticed"
    );
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
    {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// `source` without its `#[cfg(test)]` items (each from the attribute to
/// its matching closing brace, or to its `;`), plus the names of the
/// test-only module files it declares (`#[cfg(test)] mod name;`).
fn non_test_code(source: &str) -> (String, Vec<String>) {
    let mut code = String::new();
    let mut test_mods = Vec::new();
    let mut lines = source.lines();
    while let Some(line) = lines.next() {
        if line.trim() != "#[cfg(test)]" {
            code.push_str(line);
            code.push('\n');
            continue;
        }
        let mut depth = 0i64;
        for item in lines.by_ref() {
            let item = item.trim();
            if depth == 0 && item.starts_with('#') {
                continue; // further attributes on the same item
            }
            if depth == 0 && item.ends_with(';') {
                if let Some(name) = item.strip_prefix("mod ") {
                    test_mods.push(name.trim_end_matches(';').to_string());
                }
                break;
            }
            depth += item.matches('{').count() as i64 - item.matches('}').count() as i64;
            if depth <= 0 && item.contains('}') {
                break;
            }
        }
    }
    (code, test_mods)
}

#[test]
fn non_test_code_allows_no_dead_code() {
    // An item only tests reach should be `#[cfg(test)]`, so that clippy's
    // `-D warnings` in CI flags the next one instead of an allowance
    // hiding it.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    for krate in fs::read_dir(root.join("crates")).expect("crates directory") {
        let src = krate.expect("directory entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    assert!(files.len() > 50, "found only {} source files", files.len());
    let mut test_only = Vec::new();
    let mut offenders = Vec::new();
    for file in &files {
        let source = fs::read_to_string(file).expect("readable source");
        let (code, test_mods) = non_test_code(&source);
        let dir = file.parent().expect("file in a directory");
        for name in test_mods {
            test_only.push(dir.join(format!("{name}.rs")));
            test_only.push(dir.join(name).join("mod.rs"));
        }
        if code.contains("allow(dead_code)") {
            offenders.push(file.clone());
        }
    }
    offenders.retain(|f| !test_only.contains(f));
    assert!(
        offenders.is_empty(),
        "non-test code allows dead code in {offenders:?}; gate test-only \
         items with #[cfg(test)] instead"
    );
}
