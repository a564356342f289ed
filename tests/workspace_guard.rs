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
    // the default, `--elim` and `--no-simplify` paths.
    let ci = ci_config();
    for required in [
        "--proof h7.drat --check-proof h7.cnf",
        "5af8a4f0cc9f0efc2ef9ca0716e48df6bddc61e36c195c453961b8e21e8cdaaf  h7.drat\" | sha256sum -c -",
        "--elim --proof h7e.drat --check-proof h7.cnf",
        "cd8415a177b59206811aa2deb3394d3f1140145c2dd35d40e9fab2f13c0e1960  h7e.drat\" | sha256sum -c -",
        "--no-simplify --proof h7n.drat --check-proof h7.cnf",
        "5af8a4f0cc9f0efc2ef9ca0716e48df6bddc61e36c195c453961b8e21e8cdaaf  h7n.drat\" | sha256sum -c -",
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
