//! The answer oracle, independent of the solver under test.
//!
//! * SAT models are checked against the formula.
//! * `r3sat` answers are checked against a verdict pinned in
//!   `r3sat_pool.txt`, established once by `perfbench pin r3sat`: a model
//!   check for SAT, a re-solve whose DRAT proof `check_refutation` accepts
//!   for UNSAT. Instances with no pinned verdict (`--fresh`) are certified
//!   the same way, untimed, before the run measures anything.
//! * `certified-unsat` instances are UNSAT by construction and every
//!   answer carries its own certificate: each proof is run through
//!   `check_refutation` as part of the operation.
//! * BMC answers are checked against the counter's known first reaching
//!   depth, and the reaching trace is replayed on the netlist simulator.

use std::cell::RefCell;
use std::rc::Rc;

use berkmin::cnf::{Cnf, Lit, Var};
use berkmin::{Budget, SolveStatus, SolverBuilder, SolverConfig};
use berkmin_circuit::bmc::BmcEncoding;
use berkmin_circuit::{Netlist, Simulator};
use berkmin_drat::{check_refutation, DratProof};
use berkmin_gens::ksat::random_ksat;
use berkmin_gens::miters::equivalent_miter;

/// Variables of the `r3sat` instances.
pub const R3SAT_VARS: usize = 150;
/// Clauses of the `r3sat` instances (ratio 4.26, the threshold region).
pub const R3SAT_CLAUSES: usize = 639;
/// Instances per `r3sat` pass: one from each difficulty stratum.
pub const R3SAT_STRATA: usize = 40;
/// Pool members kept (the easiest by pinned conflicts); the hardest tenth
/// of the pool is left out so that no single instance dominates a pass.
pub const R3SAT_POOL_KEPT: usize = 400;
/// Generator seeds of fresh (unpinned) instances start here, far from the
/// pinned pool's seeds.
const FRESH_SEED_BASE: u64 = 1 << 32;

/// Gates and window of the `certified-unsat` random-circuit miter.
pub const MITER_GATES: usize = 1500;
pub const MITER_WINDOW: usize = 20;
/// Miter seeds a workload seed chooses from: this many pool members,
/// starting at the tenth percentile of pinned difficulty. Miter difficulty
/// spreads from 0 to over 400 conflicts across seeds; in this band the
/// miter stays lighter than the three fixed instances, so the seed moves
/// neither the median nor the slowest operation.
pub const MITER_BAND: usize = 16;

/// Safety cap on conflicts per solve call. Reaching it is a failure.
pub const CONFLICT_CAP: u64 = 2_000_000;

/// The configuration every workload solves under: the CLI default plus the
/// safety cap.
pub fn config() -> SolverConfig {
    SolverConfig::berkmin().with_budget(Budget::conflicts(CONFLICT_CAP))
}

/// One pinned pool member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pinned {
    /// Generator seed.
    pub seed: u64,
    /// `true` for SAT.
    pub sat: bool,
    /// Conflicts the default configuration needed (used only to rank
    /// instances by difficulty).
    pub conflicts: u64,
}

/// Parses the pinned pool text: one `seed SAT|UNSAT conflicts` line per
/// instance, `#` comments.
pub fn parse_pool(text: &str) -> Result<Vec<Pinned>, String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|line| {
            let f: Vec<&str> = line.split_whitespace().collect();
            let bad = || format!("malformed pool line {line:?}");
            if f.len() != 3 {
                return Err(bad());
            }
            let sat = match f[1] {
                "SAT" => true,
                "UNSAT" => false,
                _ => return Err(bad()),
            };
            Ok(Pinned {
                seed: f[0].parse().map_err(|_| bad())?,
                sat,
                conflicts: f[2].parse().map_err(|_| bad())?,
            })
        })
        .collect()
}

/// The pinned `r3sat` pool shipped with the benchmark.
pub fn r3sat_pool() -> Vec<Pinned> {
    parse_pool(include_str!("../r3sat_pool.txt")).expect("r3sat_pool.txt is well-formed")
}

/// The pinned miter pool shipped with the benchmark.
pub fn miter_pool() -> Vec<Pinned> {
    parse_pool(include_str!("../miter_pool.txt")).expect("miter_pool.txt is well-formed")
}

/// SplitMix64: a stateless mix of the workload seed into per-slot choices.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `r3sat` instances of workload seed `seed`, with their pinned
/// verdicts: the pool ranked by pinned conflicts, cut to its easiest
/// [`R3SAT_POOL_KEPT`], split into [`R3SAT_STRATA`] equal strata, and one
/// member drawn from each stratum. Stratifying keeps the difficulty of a
/// pass nearly the same from seed to seed while the instances change.
pub fn select_pinned(pool: &[Pinned], seed: u64) -> Vec<Pinned> {
    let mut ranked = pool.to_vec();
    ranked.sort_by_key(|p| (p.conflicts, p.seed));
    ranked.truncate(R3SAT_POOL_KEPT);
    let per = ranked.len() / R3SAT_STRATA;
    assert!(per > 0, "pinned pool smaller than the stratum count");
    (0..R3SAT_STRATA)
        .map(|i| {
            let pick = mix(seed ^ mix(i as u64)) as usize % per;
            ranked[i * per + pick]
        })
        .collect()
}

/// The miter seed of workload seed `seed`: one of the [`MITER_BAND`] pool
/// members from the tenth percentile of pinned difficulty up.
pub fn select_miter(pool: &[Pinned], seed: u64) -> u64 {
    let mut ranked = pool.to_vec();
    ranked.sort_by_key(|p| (p.conflicts, p.seed));
    let low = ranked.len() / 10;
    assert!(
        ranked.len() >= low + MITER_BAND,
        "pinned miter pool smaller than its band"
    );
    ranked[low + mix(seed) as usize % MITER_BAND].seed
}

/// Generator seeds of fresh instances for workload seed `seed`: outside
/// the pool, with no pinned verdicts.
pub fn fresh_seeds(seed: u64) -> Vec<u64> {
    (0..R3SAT_STRATA as u64)
        .map(|i| FRESH_SEED_BASE + seed.wrapping_mul(R3SAT_STRATA as u64) + i)
        .collect()
}

/// The `r3sat` formula of generator seed `seed`.
pub fn r3sat_instance(seed: u64) -> Cnf {
    random_ksat(R3SAT_VARS, R3SAT_CLAUSES, 3, seed).cnf
}

/// Judges one answer against the expected verdict (`true` = SAT),
/// checking a SAT model against the formula itself.
pub fn judge(expected_sat: bool, status: &SolveStatus, cnf: &Cnf) -> Result<(), String> {
    match status {
        SolveStatus::Sat(_) if !expected_sat => Err("answered SAT, expected UNSAT".into()),
        SolveStatus::Sat(model) if !cnf.is_satisfied_by(model) => {
            Err("SAT model falsifies a clause".into())
        }
        SolveStatus::Sat(_) => Ok(()),
        SolveStatus::Unsat if expected_sat => Err("answered UNSAT, expected SAT".into()),
        SolveStatus::Unsat => Ok(()),
        SolveStatus::Unknown(reason) => Err(format!("aborted: {reason}")),
    }
}

/// Establishes the verdict of `cnf` independently of any pinned answer:
/// solves with a DRAT proof and accepts SAT only with a model that
/// satisfies the formula, UNSAT only with a proof `check_refutation`
/// accepts. Returns the verdict (`true` = SAT).
pub fn certify(cnf: &Cnf) -> Result<bool, String> {
    let proof = Rc::new(RefCell::new(DratProof::new()));
    let mut solver = SolverBuilder::with_config(config())
        .proof(Rc::clone(&proof))
        .cnf(cnf)
        .build();
    match solver.solve() {
        SolveStatus::Sat(model) if cnf.is_satisfied_by(&model) => Ok(true),
        SolveStatus::Sat(_) => Err("SAT model falsifies a clause".into()),
        SolveStatus::Unsat => check_refutation(cnf, &proof.borrow())
            .map(|_| false)
            .map_err(|e| format!("UNSAT proof rejected: {e}")),
        SolveStatus::Unknown(reason) => Err(format!("aborted: {reason}")),
    }
}

/// Checks a BMC answer at depth `t` of an all-ones reachability sweep
/// whose first reaching depth is `target`. Below `target` the answer must
/// be UNSAT; at `target` it must be SAT with a model that satisfies the
/// encoding and whose enable trace, replayed on the simulator, drives
/// every output to 1 at cycle `t`.
pub fn judge_bmc(
    t: usize,
    target: usize,
    status: &SolveStatus,
    netlist: &Netlist,
    enc: &BmcEncoding,
) -> Result<(), String> {
    judge(t == target, status, &enc.cnf)?;
    let Some(model) = status.model() else {
        return Ok(());
    };
    let mut sim = Simulator::new(netlist);
    let mut outputs = Vec::new();
    for frame in &enc.input_vars[..=t] {
        let inputs: Vec<u64> = frame
            .iter()
            .map(|&v: &Var| {
                if model.satisfies(Lit::pos(v)) {
                    u64::MAX
                } else {
                    0
                }
            })
            .collect();
        outputs = sim.step(&inputs);
    }
    if outputs.iter().all(|&o| o & 1 == 1) {
        Ok(())
    } else {
        Err(format!(
            "replayed trace does not reach all-ones at depth {t}"
        ))
    }
}

/// The `certified-unsat` miter of generator seed `seed`.
pub fn miter_instance(seed: u64) -> Cnf {
    equivalent_miter(MITER_GATES, MITER_WINDOW, seed).cnf
}

/// `perfbench pin r3sat|miter <count>`: solves the first `count`
/// generator seeds of a pool and prints its lines. `r3sat` verdicts are
/// certified; miters are UNSAT by construction, and the answer must agree.
pub fn pin(kind: &str, count: u64) -> Result<(), String> {
    let (generate, certifies): (fn(u64) -> Cnf, bool) = match kind {
        "r3sat" => {
            println!(
                "# r3sat pool: uniform random 3-SAT, {R3SAT_VARS} vars, {R3SAT_CLAUSES} \
                 clauses (berkmin_gens::ksat::random_ksat). SAT verdicts carry a model"
            );
            println!("# checked against the formula, UNSAT verdicts a DRAT proof accepted by check_refutation.");
            (r3sat_instance, true)
        }
        "miter" => {
            println!(
                "# certified-unsat miter pool: berkmin_gens::miters::equivalent_miter\
                 ({MITER_GATES}, {MITER_WINDOW}, seed), UNSAT by construction."
            );
            (miter_instance, false)
        }
        _ => return Err(format!("unknown pool {kind:?} (r3sat or miter)")),
    };
    println!("# seed, verdict, conflicts under the benchmark's configuration; written by `perfbench pin {kind} {count}`.");
    for seed in 0..count {
        let cnf = generate(seed);
        let mut solver = SolverBuilder::with_config(config()).cnf(&cnf).build();
        let status = solver.solve();
        let sat = if certifies {
            certify(&cnf).map_err(|e| format!("seed {seed}: {e}"))?
        } else {
            false
        };
        judge(sat, &status, &cnf).map_err(|e| format!("seed {seed}: {e}"))?;
        let verdict = if sat { "SAT" } else { "UNSAT" };
        println!("{seed} {verdict} {}", solver.stats().conflicts);
        eprintln!("pinned {kind} seed {seed}: {verdict}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use berkmin::cnf::Assignment;
    use berkmin::Solver;
    use berkmin_gens::hole::pigeonhole;

    fn solve(cnf: &Cnf) -> SolveStatus {
        Solver::new(cnf, config()).solve()
    }

    #[test]
    fn judge_rejects_a_wrong_pinned_verdict() {
        let unsat = pigeonhole(3).cnf;
        let status = solve(&unsat);
        assert!(judge(false, &status, &unsat).is_ok());
        assert!(judge(true, &status, &unsat).is_err());

        let sat = r3sat_instance(r3sat_pool().iter().find(|p| p.sat).unwrap().seed);
        let status = solve(&sat);
        assert!(judge(true, &status, &sat).is_ok());
        assert!(judge(false, &status, &sat).is_err());
    }

    #[test]
    fn judge_rejects_a_model_that_falsifies_the_formula() {
        let mut cnf = Cnf::new();
        cnf.add_clause([Lit::from_dimacs(1), Lit::from_dimacs(2)]);
        let bad = SolveStatus::Sat(Assignment::from_bools([false, false]));
        assert!(judge(true, &bad, &cnf).is_err());
        let good = SolveStatus::Sat(Assignment::from_bools([true, false]));
        assert!(judge(true, &good, &cnf).is_ok());
    }

    #[test]
    fn pinned_verdicts_of_the_cheapest_members_still_certify() {
        let mut ranked = r3sat_pool();
        ranked.sort_by_key(|p| p.conflicts);
        for sat in [true, false] {
            for p in ranked.iter().filter(|p| p.sat == sat).take(2) {
                assert_eq!(
                    certify(&r3sat_instance(p.seed)),
                    Ok(p.sat),
                    "seed {}",
                    p.seed
                );
            }
        }
    }

    #[test]
    fn selection_is_seeded_stratified_and_within_the_kept_pool() {
        let pool = r3sat_pool();
        let a = select_pinned(&pool, 7);
        assert_eq!(a, select_pinned(&pool, 7));
        assert_ne!(a, select_pinned(&pool, 8));
        assert_eq!(a.len(), R3SAT_STRATA);
        assert!(a.windows(2).all(|w| w[0].conflicts <= w[1].conflicts));
        let mut ranked = pool.clone();
        ranked.sort_by_key(|p| (p.conflicts, p.seed));
        let cutoff = ranked[R3SAT_POOL_KEPT - 1].conflicts;
        assert!(a.iter().all(|p| p.conflicts <= cutoff));
    }

    #[test]
    fn miter_selection_stays_in_its_band() {
        let pool = miter_pool();
        let mut ranked = pool.clone();
        ranked.sort_by_key(|p| (p.conflicts, p.seed));
        let low = ranked.len() / 10;
        let band = &ranked[low..low + MITER_BAND];
        let picks: Vec<u64> = (0..50).map(|s| select_miter(&pool, s)).collect();
        assert!(picks.iter().all(|s| band.iter().any(|p| p.seed == *s)));
        assert!(picks.iter().any(|&s| s != picks[0]));
        assert!(pool.iter().all(|p| !p.sat));
    }

    #[test]
    fn fresh_seeds_avoid_the_pool() {
        let pool = r3sat_pool();
        let fresh = fresh_seeds(3);
        assert!(fresh.iter().all(|s| pool.iter().all(|p| p.seed != *s)));
        assert_eq!(fresh.len(), R3SAT_STRATA);
    }

    #[test]
    fn malformed_pool_lines_are_rejected() {
        assert!(parse_pool("1 SAT").is_err());
        assert!(parse_pool("1 MAYBE 3").is_err());
        assert_eq!(
            parse_pool("# c\n\n4 UNSAT 9\n"),
            Ok(vec![Pinned {
                seed: 4,
                sat: false,
                conflicts: 9
            }])
        );
    }
}
