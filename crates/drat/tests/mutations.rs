//! Differential mutation test of the forward RUP checker.
//!
//! Real solver proofs of three small UNSAT instances (pigeonhole, a
//! multiplier miter, random 3-SAT) are mutated at seeded positions: a
//! lemma gets one literal flipped (with or without its hints), a lemma is
//! dropped, or a deletion is turned into an empty-clause addition. Other
//! mutations touch only the hint chains: a hint is dropped, two are
//! swapped, or one is pointed out of range, at a deleted clause, or at the
//! neighbouring lemma. For every proof, mutated or not, `check_refutation`
//! must give exactly the outcome of [`reference_check`] (errors and every
//! report count the reference keeps): a naive checker that keeps a plain
//! clause list, ignores hints and repeats unit propagation to a fixpoint.
//! The reference shares no code with the checker and stays as the oracle
//! for any future change to it. The unmutated solver proofs must also have
//! every hint chain verify.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use berkmin::{ClauseId, ProofSink, SimplifyConfig, SolverBuilder, SolverConfig};
use berkmin_cnf::{Cnf, LBool, Lit};
use berkmin_drat::{check_refutation, CheckError, CheckReport, DratProof, Step};
use berkmin_gens::hole::pigeonhole;
use berkmin_gens::ksat::random_ksat;
use berkmin_gens::miters::multiplier_miter;

/// Mutated proofs per mutation kind and instance.
const MUTATIONS_PER_KIND: u64 = 20;

/// The solver's DRAT proof of an UNSAT formula. Variable elimination is
/// on so that even instances too small for a clause-database reduction
/// get `d` lines to mutate.
fn solver_proof(cnf: &Cnf) -> DratProof {
    let proof = Rc::new(RefCell::new(DratProof::new()));
    let config = SolverConfig::berkmin().with_simplify(SimplifyConfig::full());
    let mut solver = SolverBuilder::with_config(config)
        .proof(Rc::clone(&proof))
        .cnf(cnf)
        .build();
    assert!(solver.solve().is_unsat(), "instance must be UNSAT");
    let proof = proof.borrow().clone();
    proof
}

/// The first UNSAT random 3-SAT instance at clause/variable ratio 4.7.
fn unsat_random_3sat() -> Cnf {
    (0..)
        .map(|seed| random_ksat(70, 330, 3, seed).cnf)
        .find(|cnf| {
            let mut solver = SolverBuilder::new().cnf(cnf).build();
            solver.solve().is_unsat()
        })
        .expect("ratio 4.7 random 3-SAT is mostly UNSAT")
}

/// splitmix64: a tiny seeded generator for mutation positions.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

#[derive(Clone, Copy, Debug)]
enum Mutation {
    /// Flip one literal of a lemma and drop the lemma's hints.
    FlipLiteral,
    /// Flip one literal of a lemma and keep its hints.
    FlipLiteralHinted,
    /// Remove a lemma with its hints; later lemma IDs then name the
    /// lemma after the one they meant.
    DropLemma,
    DeletionToEmpty,
    /// Remove one hint of a lemma.
    DropHint,
    /// Swap two hints of a lemma.
    SwapHints,
    /// Point a hint at a clause that does not exist.
    HintOutOfRange,
    /// Point a hint at a clause deleted earlier in the proof.
    HintToDeleted,
    /// Move a lemma hint to the neighbouring lemma.
    ShiftLemmaId,
}

const MUTATIONS: [Mutation; 9] = [
    Mutation::FlipLiteral,
    Mutation::FlipLiteralHinted,
    Mutation::DropLemma,
    Mutation::DeletionToEmpty,
    Mutation::DropHint,
    Mutation::SwapHints,
    Mutation::HintOutOfRange,
    Mutation::HintToDeleted,
    Mutation::ShiftLemmaId,
];

/// An owned, editable proof step.
#[derive(Clone)]
struct OwnedStep {
    deletion: bool,
    lits: Vec<Lit>,
    hints: Vec<ClauseId>,
}

fn owned_steps(proof: &DratProof) -> Vec<OwnedStep> {
    proof
        .steps()
        .enumerate()
        .map(|(i, step)| OwnedStep {
            deletion: matches!(step, Step::Delete(_)),
            lits: step.lits().collect(),
            hints: proof.hints(i).collect(),
        })
        .collect()
}

/// For every deletion step, the ID of the clause it removes, under the
/// checker's rule (the oldest live clause with the same literal set).
fn deleted_ids(cnf: &Cnf, steps: &[OwnedStep]) -> Vec<(usize, ClauseId)> {
    let normalized = |lits: &[Lit]| {
        let mut set = lits.to_vec();
        set.sort_unstable();
        set.dedup();
        set
    };
    let mut live: HashMap<Vec<Lit>, VecDeque<ClauseId>> = HashMap::new();
    for (k, clause) in cnf.iter().enumerate() {
        let id = ClauseId::Original(k as u32);
        live.entry(normalized(clause)).or_default().push_back(id);
    }
    let mut lemmas = 0;
    let mut deleted = Vec::new();
    for (i, step) in steps.iter().enumerate() {
        let key = normalized(&step.lits);
        if step.deletion {
            if let Some(id) = live.get_mut(&key).and_then(VecDeque::pop_front) {
                deleted.push((i, id));
            }
        } else if !step.lits.is_empty() {
            live.entry(key)
                .or_default()
                .push_back(ClauseId::Lemma(lemmas));
            lemmas += 1;
        }
    }
    deleted
}

/// Applies `kind` at a position drawn from `rng`; `None` if the proof has
/// no step the mutation applies to.
fn mutate(cnf: &Cnf, proof: &DratProof, kind: Mutation, rng: &mut Rng) -> Option<DratProof> {
    let mut steps = owned_steps(proof);
    let candidates: Vec<usize> = steps
        .iter()
        .enumerate()
        .filter(|(_, s)| match kind {
            Mutation::FlipLiteral | Mutation::FlipLiteralHinted => {
                !s.deletion && !s.lits.is_empty()
            }
            Mutation::DropLemma => !s.deletion,
            Mutation::DeletionToEmpty => s.deletion,
            Mutation::DropHint | Mutation::HintOutOfRange | Mutation::HintToDeleted => {
                !s.hints.is_empty()
            }
            Mutation::SwapHints => s.hints.len() >= 2,
            Mutation::ShiftLemmaId => s.hints.iter().any(|h| matches!(h, ClauseId::Lemma(_))),
        })
        .map(|(i, _)| i)
        .collect();
    if candidates.is_empty() {
        return None;
    }
    let at = candidates[rng.below(candidates.len())];
    let step = &mut steps[at];
    match kind {
        Mutation::FlipLiteral | Mutation::FlipLiteralHinted => {
            let k = rng.below(step.lits.len());
            step.lits[k] = !step.lits[k];
            if matches!(kind, Mutation::FlipLiteral) {
                step.hints.clear();
            }
        }
        Mutation::DropLemma => {
            steps.remove(at);
        }
        Mutation::DeletionToEmpty => {
            *step = OwnedStep {
                deletion: false,
                lits: Vec::new(),
                hints: Vec::new(),
            }
        }
        Mutation::DropHint => {
            step.hints.remove(rng.below(step.hints.len()));
        }
        Mutation::SwapHints => {
            let n = step.hints.len();
            let a = rng.below(n);
            let b = (a + 1 + rng.below(n - 1)) % n;
            step.hints.swap(a, b);
        }
        Mutation::HintOutOfRange => {
            let k = rng.below(step.hints.len());
            step.hints[k] = if rng.below(2) == 0 {
                ClauseId::Original(cnf.num_clauses() as u32 + rng.below(3) as u32)
            } else {
                ClauseId::Lemma(u32::MAX - rng.below(3) as u32)
            };
        }
        Mutation::HintToDeleted => {
            let gone: Vec<ClauseId> = deleted_ids(cnf, &steps)
                .into_iter()
                .filter(|&(i, _)| i < at)
                .map(|(_, id)| id)
                .collect();
            if gone.is_empty() {
                return None;
            }
            let step = &mut steps[at];
            let k = rng.below(step.hints.len());
            step.hints[k] = gone[rng.below(gone.len())];
        }
        Mutation::ShiftLemmaId => {
            let lemma_hints: Vec<usize> = (0..step.hints.len())
                .filter(|&k| matches!(step.hints[k], ClauseId::Lemma(_)))
                .collect();
            let k = lemma_hints[rng.below(lemma_hints.len())];
            let ClauseId::Lemma(j) = step.hints[k] else {
                unreachable!("filtered to lemma hints")
            };
            step.hints[k] = ClauseId::Lemma(if j > 0 && rng.below(2) == 0 {
                j - 1
            } else {
                j + 1
            });
        }
    }
    let mut mutated = DratProof::new();
    for step in &steps {
        if step.deletion {
            mutated.delete_clause(&step.lits);
        } else {
            mutated.add_clause_hinted(&step.lits, &step.hints);
        }
    }
    Some(mutated)
}

/// The outcome with the hint counts cleared: the part of a
/// [`CheckReport`] the hints must never change, and all the reference
/// computes.
fn without_hint_counts(
    outcome: Result<CheckReport, CheckError>,
) -> Result<CheckReport, CheckError> {
    outcome.map(|report| CheckReport {
        additions_hinted: 0,
        chain_failures: 0,
        ..report
    })
}

/// A naive forward checker with the operational DRAT semantics: a clause
/// list with tombstones, a persistent assignment that deletions never
/// roll back, and unit propagation by repeated passes to a fixpoint.
fn reference_check(cnf: &Cnf, proof: &DratProof) -> Result<CheckReport, CheckError> {
    struct Db {
        /// (sorted, deduplicated literals, alive)
        clauses: Vec<(Vec<Lit>, bool)>,
        /// The persistent assignment, indexed by variable.
        assigns: Vec<LBool>,
        contradiction: bool,
    }

    fn value(assigns: &[LBool], l: Lit) -> LBool {
        match assigns[l.var().index()] {
            LBool::Undef => LBool::Undef,
            v if l.is_negative() => !v,
            v => v,
        }
    }

    fn assign(assigns: &mut [LBool], l: Lit) {
        assigns[l.var().index()] = LBool::from(l.is_positive());
    }

    /// Unit propagation to a fixpoint; returns `true` on conflict.
    fn propagate(clauses: &[(Vec<Lit>, bool)], assigns: &mut [LBool]) -> bool {
        loop {
            let mut changed = false;
            for (lits, alive) in clauses {
                if !alive || lits.iter().any(|&l| value(assigns, l) == LBool::True) {
                    continue;
                }
                let mut open = lits.iter().filter(|&&l| value(assigns, l) == LBool::Undef);
                match (open.next(), open.next()) {
                    (None, _) => return true,
                    (Some(&unit), None) => {
                        assign(assigns, unit);
                        changed = true;
                    }
                    _ => {}
                }
            }
            if !changed {
                return false;
            }
        }
    }

    fn normalized(lits: &[Lit]) -> Vec<Lit> {
        let mut set = lits.to_vec();
        set.sort_unstable();
        set.dedup();
        set
    }

    impl Db {
        fn add(&mut self, lits: &[Lit]) {
            if lits.is_empty() {
                self.contradiction = true;
            } else {
                self.clauses.push((normalized(lits), true));
            }
        }

        fn settle(&mut self) {
            if propagate(&self.clauses, &mut self.assigns) {
                self.contradiction = true;
            }
        }

        fn is_rup(&self, lits: &[Lit]) -> bool {
            if self.contradiction {
                return true;
            }
            let mut assigns = self.assigns.clone();
            for &l in lits {
                match value(&assigns, l) {
                    LBool::True => return true,
                    LBool::False => {}
                    LBool::Undef => assign(&mut assigns, !l),
                }
            }
            propagate(&self.clauses, &mut assigns)
        }

        fn delete(&mut self, lits: &[Lit]) -> bool {
            let key = normalized(lits);
            match self
                .clauses
                .iter_mut()
                .find(|(c, alive)| *alive && *c == key)
            {
                Some((_, alive)) => {
                    *alive = false;
                    true
                }
                None => false,
            }
        }
    }

    let mut nvars = cnf.num_vars();
    for step in proof.steps() {
        for l in step.lits() {
            nvars = nvars.max(l.var().index() + 1);
        }
    }
    let mut db = Db {
        clauses: Vec::new(),
        assigns: vec![LBool::Undef; nvars],
        contradiction: false,
    };
    for clause in cnf.iter() {
        db.add(clause);
    }
    db.settle();
    let mut report = CheckReport::default();
    for (i, step) in proof.steps().enumerate() {
        if db.contradiction {
            report.steps_after_empty = proof.len() - i;
            return Ok(report);
        }
        let lits: Vec<Lit> = step.lits().collect();
        match step {
            Step::Add(_) => {
                if !db.is_rup(&lits) {
                    return Err(CheckError::NotRup {
                        step: i,
                        clause: lits,
                    });
                }
                report.additions_checked += 1;
                db.add(&lits);
                db.settle();
            }
            Step::Delete(_) => {
                if db.delete(&lits) {
                    report.deletions_applied += 1;
                } else {
                    report.deletions_ignored += 1;
                }
            }
        }
    }
    if db.contradiction {
        Ok(report)
    } else {
        Err(CheckError::NoEmptyClause)
    }
}

#[test]
fn checker_agrees_with_the_naive_reference_on_mutated_solver_proofs() {
    let instances = [
        ("hole5", pigeonhole(5).cnf),
        ("mulmiter3", multiplier_miter(3, 0).cnf),
        ("random-3sat", unsat_random_3sat()),
    ];
    let (mut accepted, mut rejected, mut chain_failures) = (0, 0, 0);
    for (name, cnf) in &instances {
        let proof = solver_proof(cnf);
        assert!(
            proof.num_deletions() > 0,
            "{name}: the proof must contain deletions to mutate"
        );
        let original = check_refutation(cnf, &proof);
        let Ok(report) = &original else {
            panic!("{name}: solver proof rejected: {original:?}");
        };
        assert_eq!(
            report.chain_failures, 0,
            "{name}: a chain of the solver's own proof failed"
        );
        assert!(
            report.additions_hinted > 0,
            "{name}: no addition was hinted"
        );
        assert_eq!(
            without_hint_counts(original),
            reference_check(cnf, &proof),
            "{name}: unmutated"
        );
        for kind in MUTATIONS {
            for seed in 0..MUTATIONS_PER_KIND {
                let mut rng = Rng(seed);
                let Some(mutated) = mutate(cnf, &proof, kind, &mut rng) else {
                    continue;
                };
                let got = check_refutation(cnf, &mutated);
                if let Ok(report) = &got {
                    chain_failures += report.chain_failures;
                }
                assert_eq!(
                    without_hint_counts(got.clone()),
                    reference_check(cnf, &mutated),
                    "{name}: {kind:?} with seed {seed}"
                );
                if got.is_ok() {
                    accepted += 1;
                } else {
                    rejected += 1;
                }
            }
        }
    }
    // Both verdicts must occur, or the comparison would test one side only.
    assert!(
        accepted > 0 && rejected > 0,
        "accepted {accepted}, rejected {rejected}"
    );
    // The broken chains must reach the full-RUP fallback.
    assert!(chain_failures > 0, "no mutated chain failed");
}
