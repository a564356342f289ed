//! Bit-identity guard for the search hot loops: BCP, conflict analysis and
//! decision. Pure speedups of those loops must leave the search itself
//! untouched — the same verdicts, the same counters, the same skin-effect
//! histogram and the same DRAT text, byte for byte. This test pins all of
//! them on a small fixed suite: a pigeonhole formula, three random 3-SAT
//! instances from the benchmark's pinned pool, a multiplier miter and an
//! incremental BMC sweep through the deterministic two-worker portfolio.
//!
//! Hashes are 64-bit FNV-1a, which (unlike `DefaultHasher`) is fixed by
//! its definition and therefore stable across Rust versions.
//!
//! A pinned value may only change together with a change that is meant
//! to alter the search; run with `FINGERPRINT_PRINT=1` and `--nocapture`
//! to print the current values in the table's own syntax.

use std::cell::RefCell;
use std::rc::Rc;

use berkmin::{
    PortfolioConfig, PortfolioEngine, SatEngine, SolveStatus, SolverBuilder, SolverConfig, Stats,
};
use berkmin_circuit::arith::enabled_counter;
use berkmin_circuit::bmc::BmcDriver;
use berkmin_cnf::Cnf;
use berkmin_drat::DratProof;
use berkmin_gens::hole::pigeonhole;
use berkmin_gens::ksat::random_ksat;
use berkmin_gens::miters::multiplier_miter;

/// 64-bit FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Everything one run pins. `verdict` is `"SAT"`, `"UNSAT"` or
/// `"UNKNOWN"`; for the BMC sweep it is the per-depth sequence of `S`,
/// `U` and `?`. `top_distance_hist` hashes the histogram's entries as
/// little-endian words; `drat` hashes the proof text (the empty text when
/// the run logs no proof).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Fingerprint {
    verdict: String,
    conflicts: u64,
    decisions: u64,
    propagations: u64,
    restarts: u64,
    learnt_lits_total: u64,
    top_distance_hist: u64,
    drat: u64,
    /// `[watchers_visited, clauses_touched]`, pinned in a table of their
    /// own (see [`pinned_visits`]).
    visits: [u64; 2],
}

impl Fingerprint {
    fn new(verdict: String, stats: &Stats, drat_text: &[u8]) -> Self {
        let hist_bytes: Vec<u8> = stats
            .top_distance_hist
            .iter()
            .flat_map(|n| n.to_le_bytes())
            .collect();
        Fingerprint {
            verdict,
            conflicts: stats.conflicts,
            decisions: stats.decisions,
            propagations: stats.propagations,
            restarts: stats.restarts,
            learnt_lits_total: stats.learnt_lits_total,
            top_distance_hist: fnv1a(&hist_bytes),
            drat: fnv1a(drat_text),
            visits: [stats.watchers_visited, stats.clauses_touched],
        }
    }
}

fn verdict_name(status: &SolveStatus) -> &'static str {
    match status {
        SolveStatus::Sat(_) => "SAT",
        SolveStatus::Unsat => "UNSAT",
        SolveStatus::Unknown(_) => "UNKNOWN",
    }
}

/// Solves `cnf` under the default configuration with a DRAT proof
/// attached, checking a SAT model against the formula.
fn solve_single(cnf: &Cnf) -> Fingerprint {
    let proof = Rc::new(RefCell::new(DratProof::new()));
    let mut solver = SolverBuilder::with_config(SolverConfig::berkmin())
        .proof(Rc::clone(&proof))
        .cnf(cnf)
        .build();
    let status = solver.solve();
    if let SolveStatus::Sat(model) = &status {
        assert!(
            cnf.clauses()
                .iter()
                .all(|c| c.lits().iter().any(|&l| model.satisfies(l))),
            "model does not satisfy the formula"
        );
    }
    let text = proof.borrow().to_text();
    Fingerprint::new(
        verdict_name(&status).into(),
        solver.stats(),
        text.as_bytes(),
    )
}

/// Incremental BMC of `enabled_counter(4)` through the deterministic
/// two-worker portfolio with clause sharing: one query per depth until
/// every count bit can be 1 (depth 15).
fn bmc_portfolio_sweep() -> Fingerprint {
    let bits = 4;
    let engine = PortfolioEngine::new(
        PortfolioConfig::new(2)
            .with_deterministic(true)
            .with_share_lbd(Some(4)),
    );
    let mut driver = BmcDriver::with_engine(enabled_counter(bits), engine);
    let pattern: Vec<(usize, bool)> = (0..bits).map(|o| (o, true)).collect();
    let mut verdicts = String::new();
    for t in 0..(1usize << bits) {
        let status = driver.check_outputs_at(t, &pattern);
        verdicts.push(match status {
            SolveStatus::Sat(_) => 'S',
            SolveStatus::Unsat => 'U',
            SolveStatus::Unknown(_) => '?',
        });
    }
    Fingerprint::new(verdicts, driver.engine().stats(), b"")
}

/// The suite, in table order.
fn runs() -> Vec<(&'static str, Fingerprint)> {
    vec![
        ("hole6", solve_single(&pigeonhole(6).cnf)),
        (
            "r3sat150_s1",
            solve_single(&random_ksat(150, 639, 3, 1).cnf),
        ),
        (
            "r3sat150_s3",
            solve_single(&random_ksat(150, 639, 3, 3).cnf),
        ),
        (
            "r3sat150_s16",
            solve_single(&random_ksat(150, 639, 3, 16).cnf),
        ),
        ("mulmiter4", solve_single(&multiplier_miter(4, 0).cnf)),
        ("bmc_counter4_portfolio", bmc_portfolio_sweep()),
    ]
}

fn fp(
    verdict: &str,
    [conflicts, decisions, propagations, restarts, learnt_lits_total]: [u64; 5],
    top_distance_hist: u64,
    drat: u64,
) -> Fingerprint {
    Fingerprint {
        verdict: verdict.into(),
        conflicts,
        decisions,
        propagations,
        restarts,
        learnt_lits_total,
        top_distance_hist,
        drat,
        visits: [0; 2],
    }
}

/// The pinned values: `[conflicts, decisions, propagations, restarts,
/// learnt_lits_total]`, then the hashes of the skin-effect histogram and
/// of the DRAT text. The single-solver rows were generated before the
/// hot-loop rewrite they guard; the portfolio row, after the portfolio's
/// workers became persistent across incremental calls.
fn pinned() -> Vec<(&'static str, Fingerprint)> {
    vec![
        (
            "hole6",
            fp(
                "UNSAT",
                [718, 739, 10424, 1, 7371],
                0xa3dc553b05f5add1,
                0x045ad234e05a9e93,
            ),
        ),
        (
            "r3sat150_s1",
            fp(
                "UNSAT",
                [5074, 6074, 194296, 9, 59254],
                0xca891c54d6049e03,
                0x57f295c6e567b551,
            ),
        ),
        (
            "r3sat150_s3",
            fp(
                "SAT",
                [614, 737, 24715, 1, 7955],
                0x427bf26ecf42cd6c,
                0xb73bd72d12fb06a7,
            ),
        ),
        (
            "r3sat150_s16",
            fp(
                "UNSAT",
                [2191, 2608, 81863, 3, 22082],
                0x22a45e22f7dbab7c,
                0x0c1e0f8571566fca,
            ),
        ),
        (
            "mulmiter4",
            fp(
                "UNSAT",
                [338, 434, 29990, 0, 4848],
                0x3d4fc221aeeac0bb,
                0x491f2a71a4f954b4,
            ),
        ),
        (
            "bmc_counter4_portfolio",
            fp(
                "UUUUUUUUUUUUUUUS",
                [61, 110, 2564, 0, 142],
                0x28eed1faa708663b,
                0xcbf29ce484222325,
            ),
        ),
    ]
}

/// `[watchers_visited, clauses_touched]` per run. The two counters
/// arrived after the table above; the single-solver values were taken
/// from the pre-rewrite BCP loop with only the counting added, and the
/// portfolio row was re-pinned with the table above.
fn pinned_visits() -> Vec<(&'static str, [u64; 2])> {
    vec![
        ("hole6", [90072, 45860]),
        ("r3sat150_s1", [2234798, 1247308]),
        ("r3sat150_s3", [112365, 78457]),
        ("r3sat150_s16", [582152, 339841]),
        ("mulmiter4", [56617, 34276]),
        ("bmc_counter4_portfolio", [3796, 2018]),
    ]
}

#[test]
fn search_is_bit_identical_to_the_pinned_fingerprints() {
    let got = runs();
    if std::env::var_os("FINGERPRINT_PRINT").is_some() {
        for (name, f) in &got {
            println!(
                "        (\n            {name:?},\n            fp(\n                {:?},\n                \
                 [{}, {}, {}, {}, {}],\n                {:#018x},\n                {:#018x},\n            ),\n        ),",
                f.verdict,
                f.conflicts,
                f.decisions,
                f.propagations,
                f.restarts,
                f.learnt_lits_total,
                f.top_distance_hist,
                f.drat
            );
        }
        for (name, f) in &got {
            println!("        ({name:?}, {:?}),", f.visits);
        }
    }
    let want = pinned();
    assert_eq!(
        got.len(),
        want.len(),
        "suite and pinned table differ in size"
    );
    let visits = pinned_visits();
    assert_eq!(
        got.len(),
        visits.len(),
        "suite and visit table differ in size"
    );
    for (((name, g), (pname, w)), (vname, v)) in got.iter().zip(&want).zip(&visits) {
        assert!(
            name == pname && name == vname,
            "suite and pinned tables out of order"
        );
        let w = Fingerprint {
            visits: *v,
            ..w.clone()
        };
        assert_eq!(*g, w, "{name}: the search moved");
    }
}

#[test]
fn fnv1a_matches_the_reference_vectors() {
    assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
}
