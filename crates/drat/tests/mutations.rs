//! Differential mutation test of the forward RUP checker.
//!
//! Real solver proofs of three small UNSAT instances (pigeonhole, a
//! multiplier miter, random 3-SAT) are mutated at seeded positions: a
//! lemma gets one literal flipped, a lemma is dropped, or a deletion is
//! turned into an empty-clause addition. For every proof, mutated or not,
//! `check_refutation` must give exactly the outcome of [`reference_check`]:
//! a naive checker that keeps a plain clause list and repeats unit
//! propagation to a fixpoint. The reference shares no code with the checker
//! and stays as the oracle for any future change to it.

use std::cell::RefCell;
use std::rc::Rc;

use berkmin::{SimplifyConfig, SolverBuilder, SolverConfig};
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
    FlipLiteral,
    DropLemma,
    DeletionToEmpty,
}

/// Applies `kind` at a position drawn from `rng`; `None` if the proof has
/// no step the mutation applies to.
fn mutate(proof: &DratProof, kind: Mutation, rng: &mut Rng) -> Option<DratProof> {
    let mut steps = proof.steps().to_vec();
    let candidates: Vec<usize> = steps
        .iter()
        .enumerate()
        .filter(|(_, s)| match (kind, s) {
            (Mutation::FlipLiteral, Step::Add(lits)) => !lits.is_empty(),
            (Mutation::DropLemma, Step::Add(_)) => true,
            (Mutation::DeletionToEmpty, Step::Delete(_)) => true,
            _ => false,
        })
        .map(|(i, _)| i)
        .collect();
    if candidates.is_empty() {
        return None;
    }
    let at = candidates[rng.below(candidates.len())];
    match kind {
        Mutation::FlipLiteral => {
            let Step::Add(lits) = &mut steps[at] else {
                unreachable!("candidates are additions")
            };
            let k = rng.below(lits.len());
            lits[k] = !lits[k];
        }
        Mutation::DropLemma => {
            steps.remove(at);
        }
        Mutation::DeletionToEmpty => steps[at] = Step::Add(Vec::new()),
    }
    let mut mutated = DratProof::new();
    for step in steps {
        mutated.push(step);
    }
    Some(mutated)
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
        let (Step::Add(lits) | Step::Delete(lits)) = step;
        for l in lits {
            nvars = nvars.max(l.var().index() + 1);
        }
    }
    let mut db = Db {
        clauses: Vec::new(),
        assigns: vec![LBool::Undef; nvars],
        contradiction: false,
    };
    for clause in cnf.iter() {
        db.add(clause.lits());
    }
    db.settle();
    let mut report = CheckReport::default();
    for (i, step) in proof.steps().iter().enumerate() {
        if db.contradiction {
            report.steps_after_empty = proof.len() - i;
            return Ok(report);
        }
        match step {
            Step::Add(lits) => {
                if !db.is_rup(lits) {
                    return Err(CheckError::NotRup {
                        step: i,
                        clause: lits.clone(),
                    });
                }
                report.additions_checked += 1;
                db.add(lits);
                db.settle();
            }
            Step::Delete(lits) => {
                if db.delete(lits) {
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
    let (mut accepted, mut rejected) = (0, 0);
    for (name, cnf) in &instances {
        let proof = solver_proof(cnf);
        assert!(
            proof.num_deletions() > 0,
            "{name}: the proof must contain deletions to mutate"
        );
        let original = check_refutation(cnf, &proof);
        assert!(
            original.is_ok(),
            "{name}: solver proof rejected: {original:?}"
        );
        assert_eq!(original, reference_check(cnf, &proof), "{name}: unmutated");
        for kind in [
            Mutation::FlipLiteral,
            Mutation::DropLemma,
            Mutation::DeletionToEmpty,
        ] {
            for seed in 0..MUTATIONS_PER_KIND {
                let mut rng = Rng(seed);
                let Some(mutated) = mutate(&proof, kind, &mut rng) else {
                    continue;
                };
                let got = check_refutation(cnf, &mutated);
                assert_eq!(
                    got,
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
}
