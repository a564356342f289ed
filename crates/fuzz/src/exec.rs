//! Differential execution of one fuzz case: replay the ops on several
//! production engines (including a fully-preprocessing arm and a sharing
//! portfolio), certify every answer, cross-check the verdicts.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

use berkmin::{
    ActivityIndex, Budget, PortfolioConfig, PortfolioEngine, RestartPolicy, SatEngine,
    SimplifyConfig, SolveEvent, SolveStatus, Solver, SolverBuilder, SolverConfig,
};
use berkmin_cnf::{Cnf, Lit};
use berkmin_drat::{check_refutation, DratProof};

use crate::ops::{Case, Op};
use crate::reference;

/// Outcome summary of a clean (discrepancy-free) case execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CaseReport {
    /// Number of `solve` ops executed.
    pub solves: usize,
    /// Answers whose certification had to be skipped because the reference
    /// solver ran out of nodes. Zero on every case the generator emits.
    pub uncertified: usize,
}

/// Decided-or-not view of a [`SolveStatus`], for cross-checking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Sat,
    Unsat,
    Unknown,
}

fn verdict(status: &SolveStatus) -> Verdict {
    match status {
        SolveStatus::Sat(_) => Verdict::Sat,
        SolveStatus::Unsat => Verdict::Unsat,
        SolveStatus::Unknown(_) => Verdict::Unknown,
    }
}

/// Lifetime totals accumulated from the observer event stream, checked
/// against the engine's own [`berkmin::Stats`] after every solve. Any
/// divergence means an emission site was skipped or double-fired.
#[derive(Debug, Default)]
struct EventTally {
    solve_starts: u64,
    solve_dones: u64,
    restarts: u64,
    reductions: u64,
    /// Sum of the per-call `SolveDone` conflict deltas.
    conflicts: u64,
    /// Sum of the per-call `SolveDone` decision deltas.
    decisions: u64,
    /// Sum of the per-call `SolveDone` restart deltas.
    restart_deltas: u64,
}

impl EventTally {
    fn record(&mut self, event: &SolveEvent) {
        match event {
            SolveEvent::SolveStart { .. } => self.solve_starts += 1,
            SolveEvent::SolveDone {
                conflicts,
                decisions,
                restarts,
                ..
            } => {
                self.solve_dones += 1;
                self.conflicts += conflicts;
                self.decisions += decisions;
                self.restart_deltas += restarts;
            }
            SolveEvent::Restart { .. } => self.restarts += 1,
            SolveEvent::Reduce { .. } => self.reductions += 1,
            _ => {}
        }
    }

    /// Checks the tallied stream against the engine's lifetime counters.
    fn check(&self, name: &'static str, at: usize, stats: &berkmin::Stats) -> Result<(), String> {
        let fail = |what: &str, event: u64, stat: u64| {
            Err(format!(
                "[{name} op {at}] event stream disagrees with stats: \
                 {what} tallied {event}, stats say {stat}"
            ))
        };
        if self.solve_starts != stats.solve_calls {
            return fail("SolveStart", self.solve_starts, stats.solve_calls);
        }
        if self.solve_dones != stats.solve_calls {
            return fail("SolveDone", self.solve_dones, stats.solve_calls);
        }
        if self.restarts != stats.restarts {
            return fail("Restart", self.restarts, stats.restarts);
        }
        if self.restart_deltas != stats.restarts {
            return fail(
                "SolveDone restart deltas",
                self.restart_deltas,
                stats.restarts,
            );
        }
        if self.reductions != stats.reductions {
            return fail("Reduce", self.reductions, stats.reductions);
        }
        if self.conflicts != stats.conflicts {
            return fail("SolveDone conflict deltas", self.conflicts, stats.conflicts);
        }
        if self.decisions != stats.decisions {
            return fail("SolveDone decision deltas", self.decisions, stats.decisions);
        }
        Ok(())
    }
}

/// One engine under test plus its accumulated proof and event tally.
struct Arm {
    name: &'static str,
    solver: Solver,
    proof: Rc<RefCell<DratProof>>,
    events: Arc<Mutex<EventTally>>,
}

impl Arm {
    fn new(name: &'static str, config: SolverConfig) -> Arm {
        let proof = Rc::new(RefCell::new(DratProof::new()));
        let events = Arc::new(Mutex::new(EventTally::default()));
        let tap = Arc::clone(&events);
        let solver = SolverBuilder::with_config(config.with_paranoid(true))
            .proof(Rc::clone(&proof))
            .on_event(move |e: &SolveEvent| tap.lock().unwrap().record(e))
            .build();
        Arm {
            name,
            solver,
            proof,
            events,
        }
    }
}

/// Executes `case`, certifying every answer of every engine.
///
/// `Ok` means every answer was consistent and certified (modulo
/// [`CaseReport::uncertified`] reference-budget skips); `Err` carries a
/// human-readable discrepancy description. Paranoid-audit panics are *not*
/// caught here — use [`run_case_catching`] for that.
pub fn run_case(case: &Case) -> Result<CaseReport, String> {
    // A restart-every-2-conflicts arm with the heap decision index churns
    // clause-DB reduction, garbage collection and heap maintenance far
    // harder than any sane configuration would.
    let mut churn_cfg = SolverConfig::berkmin().with_seed(0xC0FFEE);
    churn_cfg.restart = RestartPolicy::FixedInterval(2);
    churn_cfg.activity_index = ActivityIndex::Heap;
    let mut arms = [
        Arm::new("berkmin", SolverConfig::berkmin().with_seed(0x5EED)),
        Arm::new("chaff", SolverConfig::chaff_like().with_seed(7)),
        Arm::new("churn", churn_cfg),
        // Full preprocessing: subsumption, strengthening and bounded
        // variable elimination at the first solve. Its SAT models exercise
        // reconstruction (certified against the original accumulated
        // formula below) and its refutations carry elimination additions
        // and deletions through the same DRAT check as the others.
        Arm::new(
            "simplify",
            SolverConfig::berkmin()
                .with_seed(0x51A9)
                .with_simplify(SimplifyConfig::full()),
        ),
    ];
    // The last arm: a deterministic two-worker sharing portfolio whose
    // front runs the `--elim` path, so its SAT models exercise the front's
    // reconstruction. Clause import makes its DRAT stream unsound, so its
    // absolute refutations are certified through the independent DPLL
    // reference instead of a proof. Its 4-conflict slices let a fuzz
    // case's first hard call come late in the session, so worker 1 is
    // often staged only then, over the formula and log the earlier calls
    // built.
    let mut portfolio = PortfolioEngine::new(PortfolioConfig {
        slice_conflicts: 4,
        ..PortfolioConfig::new(2)
            .with_share_lbd(Some(4))
            .with_deterministic(true)
            .with_paranoid(true)
            .with_simplify(SimplifyConfig {
                var_elim: true,
                ..SimplifyConfig::default()
            })
    });
    // Variable elimination forbids re-introducing an eliminated variable,
    // so the eliminating engines freeze up front every variable the rest
    // of the case will assume, or add after the first solve — the contract
    // a real incremental user follows for variables they intend to come
    // back to.
    let [.., simplify] = &mut arms;
    let mut seen_solve = false;
    for op in &case.ops {
        let vars: &[Lit] = match op {
            Op::Solve => {
                seen_solve = true;
                &[]
            }
            Op::Assume(l) => std::slice::from_ref(l),
            Op::Add(lits) if seen_solve => lits,
            _ => &[],
        };
        for l in vars {
            simplify.solver.freeze(l.var());
            portfolio.freeze(l.var());
        }
    }

    let mut formula: Vec<Vec<Lit>> = Vec::new();
    let mut staged: Vec<Lit> = Vec::new();
    let mut budget: Option<u64> = None;
    // Variables the session has touched *so far* — later ops may introduce
    // more, which a model produced now cannot be expected to cover.
    let mut num_vars = 0usize;
    let mut report = CaseReport::default();

    for (at, op) in case.ops.iter().enumerate() {
        match op {
            Op::Reserve(n) => {
                num_vars = num_vars.max(*n);
                for arm in &mut arms {
                    arm.solver.reserve_vars(*n);
                }
                portfolio.reserve_vars(*n);
            }
            Op::Add(lits) => {
                for l in lits {
                    num_vars = num_vars.max(l.var().index() + 1);
                }
                formula.push(lits.clone());
                for arm in &mut arms {
                    arm.solver.add_clause(lits.iter().copied());
                }
                portfolio.add_clause(lits);
            }
            Op::Assume(l) => {
                num_vars = num_vars.max(l.var().index() + 1);
                staged.push(*l);
                for arm in &mut arms {
                    arm.solver.assume(*l);
                }
                portfolio.assume(*l);
            }
            Op::Budget(b) => {
                budget = *b;
                let budget = match b {
                    Some(n) => Budget::conflicts(*n),
                    None => Budget::unlimited(),
                };
                for arm in &mut arms {
                    arm.solver.set_budget(budget);
                }
                portfolio.set_budget(budget);
            }
            Op::Solve => {
                report.solves += 1;
                let assumptions = std::mem::take(&mut staged);
                let mut verdicts = Vec::with_capacity(arms.len() + 1);
                for arm in &mut arms {
                    let status = arm.solver.solve();
                    let core = arm.solver.failed_assumptions().to_vec();
                    certify(
                        arm.name,
                        Some(&arm.proof),
                        at,
                        &status,
                        &core,
                        &formula,
                        &assumptions,
                        num_vars,
                        budget,
                        &mut report,
                    )?;
                    arm.solver.audit_invariants().map_err(|e| {
                        format!("[{} op {at}] post-solve audit failed: {e}", arm.name)
                    })?;
                    arm.events
                        .lock()
                        .unwrap()
                        .check(arm.name, at, arm.solver.stats())?;
                    verdicts.push(verdict(&status));
                }
                let status = portfolio.solve();
                let core = portfolio.failed_assumptions().to_vec();
                certify(
                    "portfolio",
                    None,
                    at,
                    &status,
                    &core,
                    &formula,
                    &assumptions,
                    num_vars,
                    budget,
                    &mut report,
                )?;
                verdicts.push(verdict(&status));
                cross_check(at, &verdicts, &formula, &assumptions, num_vars, &mut report)?;
            }
        }
    }
    Ok(report)
}

/// Certifies a single engine answer against ground truth.
///
/// `proof` is the engine's accumulated DRAT stream when it keeps a sound
/// one; engines without a proof (the clause-sharing portfolio) have their
/// absolute refutations certified by the DPLL reference instead.
#[allow(clippy::too_many_arguments)]
fn certify(
    name: &'static str,
    proof: Option<&Rc<RefCell<DratProof>>>,
    at: usize,
    status: &SolveStatus,
    core: &[Lit],
    formula: &[Vec<Lit>],
    assumptions: &[Lit],
    num_vars: usize,
    budget: Option<u64>,
    report: &mut CaseReport,
) -> Result<(), String> {
    let fail = |msg: String| Err(format!("[{name} op {at}] {msg}"));
    match status {
        SolveStatus::Sat(model) => {
            if model.num_vars() < num_vars {
                return fail(format!(
                    "model covers {} vars, the session touched {num_vars}",
                    model.num_vars()
                ));
            }
            for (i, clause) in formula.iter().enumerate() {
                if !clause.iter().any(|&l| model.satisfies(l)) {
                    return fail(format!("model violates clause #{i} {clause:?}"));
                }
            }
            for &a in assumptions {
                if !model.satisfies(a) {
                    return fail(format!("model violates assumption {a:?}"));
                }
            }
            if !core.is_empty() {
                return fail(format!(
                    "SAT answer carries a failed-assumption core {core:?}"
                ));
            }
        }
        SolveStatus::Unsat => {
            let mut sorted = core.to_vec();
            sorted.sort_unstable_by_key(|l| l.code());
            sorted.dedup();
            if sorted.len() != core.len() {
                return fail(format!("failed-assumption core has duplicates: {core:?}"));
            }
            if let Some(stray) = core.iter().find(|l| !assumptions.contains(l)) {
                return fail(format!(
                    "core literal {stray:?} was never assumed (assumptions {assumptions:?})"
                ));
            }
            if core.is_empty() {
                if let Some(proof) = proof {
                    // Absolute refutation: the accumulated DRAT proof of the
                    // whole session must check against the accumulated
                    // formula.
                    let mut cnf = Cnf::with_vars(num_vars);
                    cnf.extend(formula.iter().map(|c| c.iter().copied()));
                    match check_refutation(&cnf, &proof.borrow()) {
                        Err(e) => return fail(format!("DRAT check of the refutation failed: {e}")),
                        // A single solver hints every addition; a chain that
                        // needs the full-RUP fallback is a logging bug even
                        // though the proof checks.
                        Ok(report) if report.chain_failures > 0 => {
                            return fail(format!(
                                "{} hint chains of the refutation failed",
                                report.chain_failures
                            ))
                        }
                        Ok(_) => {}
                    }
                } else {
                    // No sound proof exists (clause sharing): the formula
                    // itself must be UNSAT per the independent reference.
                    match reference::dpll(num_vars, formula, &[]) {
                        Some(false) => {}
                        Some(true) => {
                            return fail(
                                "absolute refutation contradicts the reference (SAT)".to_string(),
                            )
                        }
                        None => report.uncertified += 1,
                    }
                }
            } else {
                // Assumption conflict: formula ∧ core must be UNSAT per the
                // independent reference solver.
                match reference::dpll(num_vars, formula, core) {
                    Some(false) => {}
                    Some(true) => {
                        return fail(format!(
                            "core {core:?} does not force UNSAT (reference found a model)"
                        ))
                    }
                    None => report.uncertified += 1,
                }
            }
        }
        SolveStatus::Unknown(reason) => {
            if budget.is_none() {
                return fail(format!("Unknown({reason:?}) without any budget installed"));
            }
        }
    }
    Ok(())
}

/// Cross-checks all engine verdicts against each other and the reference.
fn cross_check(
    at: usize,
    verdicts: &[Verdict],
    formula: &[Vec<Lit>],
    assumptions: &[Lit],
    num_vars: usize,
    report: &mut CaseReport,
) -> Result<(), String> {
    let decided: Vec<Verdict> = verdicts
        .iter()
        .copied()
        .filter(|v| *v != Verdict::Unknown)
        .collect();
    if decided.contains(&Verdict::Sat) && decided.contains(&Verdict::Unsat) {
        return Err(format!("[op {at}] engines disagree: verdicts {verdicts:?}"));
    }
    match reference::dpll(num_vars, formula, assumptions) {
        Some(truth) => {
            let want = if truth { Verdict::Sat } else { Verdict::Unsat };
            if let Some(bad) = decided.iter().find(|&&v| v != want) {
                return Err(format!(
                    "[op {at}] engine verdict {bad:?} contradicts reference {want:?}"
                ));
            }
        }
        None => report.uncertified += 1,
    }
    Ok(())
}

/// [`run_case`], but converting panics (e.g. from the paranoid in-search
/// audits, or any plain solver bug) into an `Err` discrepancy.
pub fn run_case_catching(case: &Case) -> Result<CaseReport, String> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_case(case))) {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic payload>");
            Err(format!("panic: {msg}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(script: &str) -> Case {
        Case::parse_script(script).unwrap()
    }

    #[test]
    fn empty_session_is_sat() {
        let r = run_case(&parse("solve\n")).unwrap();
        assert_eq!(
            r,
            CaseReport {
                solves: 1,
                uncertified: 0
            }
        );
    }

    #[test]
    fn explicit_empty_clause_is_certified_unsat() {
        run_case(&parse("add 1 2\nadd\nsolve\nsolve\n")).unwrap();
    }

    #[test]
    fn contradictory_units_check_through_drat() {
        run_case(&parse("add 1\nadd -1\nsolve\n")).unwrap();
    }

    #[test]
    fn duplicate_and_contradictory_assumptions_certify() {
        run_case(&parse(
            "add 1 2\nassume 1\nassume 1\nsolve\nassume 1\nassume -1\nsolve\n",
        ))
        .unwrap();
    }

    #[test]
    fn budget_abort_is_legal_only_under_a_budget() {
        // A tiny conflict budget on a hard-ish formula must produce Unknown
        // on at least one engine without tripping certification.
        let mut script = String::from("budget 1\n");
        for c in crate::gen::pigeonhole_clauses(5) {
            script.push_str("add");
            for l in &c {
                script.push_str(&format!(" {}", l.to_dimacs()));
            }
            script.push('\n');
        }
        script.push_str("solve\nbudget inf\nsolve\n");
        run_case(&parse(&script)).unwrap();
    }

    #[test]
    fn incremental_cores_are_certified() {
        // x1→x2→x3; assuming x1 and ¬x3 must yield a certified core.
        run_case(&parse(
            "add -1 2\nadd -2 3\nassume 1\nassume -3\nsolve\nsolve\n",
        ))
        .unwrap();
    }
}
