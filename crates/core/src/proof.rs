//! Proof-emission hook.
//!
//! The solver reports every deduced conflict clause and every database
//! deletion to a [`ProofSink`]. The `berkmin-drat` crate implements sinks
//! that record DRAT proofs and check them; the default [`NoProof`] sink
//! compiles away to nothing.
//!
//! With a sink attached, the single [`Solver`](crate::Solver) also names
//! the clauses that derive each addition, its *hint chain*; see
//! [`ClauseId`] for the ID scheme and the chain order.

use berkmin_cnf::Lit;

/// Names a clause in a hint chain.
///
/// # Hint chains
///
/// With a sink attached, the single [`Solver`](crate::Solver) also names,
/// for each addition, the clauses that derive it: its *hint chain*, a list
/// of `ClauseId`s delivered through [`ProofSink::add_clause_hinted`]. A
/// checker that assumes every literal of the addition false can then walk
/// the chain instead of searching: each clause in turn is unit (its one
/// non-false literal becomes true) and the last one is falsified. Literals
/// the solver holds at decision level 0 need no hint, because a forward
/// checker holds them on its persistent trail too.
///
/// **Clause IDs.** An ID names a clause by the order in which the solver
/// received or derived it, so neither side needs the final formula size:
///
/// - [`ClauseId::Original`]`(k)` is the clause of the `k`-th
///   [`Solver::add_clause`](crate::Solver::add_clause) call (from 0), the
///   order in which a checker reads the formula;
/// - [`ClauseId::Lemma`]`(j)` is the `j`-th *non-empty* addition reported
///   to the sink (from 0), whatever produced it.
///
/// The solver keeps each stored clause's ID in its arena record, so the ID
/// survives garbage collection, and an in-place strengthening takes the ID
/// of the addition that logged the shorter clause.
///
/// **Chain order.** For a learnt clause the chain is the *clauses
/// responsible for the conflict* that conflict analysis resolves on (paper
/// §4), in trail order of the literals they imply, with the conflicting
/// clause last. Under learnt-clause minimization the reasons of the removed
/// literals come first, also in trail order. A level-0 strengthening
/// carries `[old clause]`; a preprocessing strengthening by
/// self-subsumption `[subsuming clause, old clause]`; a resolvent of
/// variable elimination `[positive parent, negative parent]`. An addition
/// that rests on a clause without an ID (one stored before the sink was
/// attached, or an import) is reported with an empty chain, which a
/// checker verifies the slow way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClauseId {
    /// The clause of the `k`-th `Solver::add_clause` call, counted from 0.
    Original(u32),
    /// The `j`-th non-empty addition reported to the sink, counted from 0.
    Lemma(u32),
}

impl ClauseId {
    /// The ID as one integer: the index shifted left by one, with the low
    /// bit set for a lemma.
    pub fn tagged(self) -> u64 {
        match self {
            ClauseId::Original(k) => u64::from(k) << 1,
            ClauseId::Lemma(j) => u64::from(j) << 1 | 1,
        }
    }

    /// The inverse of [`ClauseId::tagged`]; `None` if the index does not
    /// fit in a `u32`.
    pub fn from_tagged(tagged: u64) -> Option<ClauseId> {
        let index = u32::try_from(tagged >> 1).ok()?;
        Some(if tagged & 1 == 0 {
            ClauseId::Original(index)
        } else {
            ClauseId::Lemma(index)
        })
    }
}

/// Receiver for clause additions and deletions, in deduction order.
///
/// Every clause the solver reports as added is a *reverse unit propagation*
/// (RUP) consequence of the clauses added before it plus the original
/// formula, which is exactly what a DRAT checker verifies. The final added
/// clause of an UNSAT run is the empty clause.
pub trait ProofSink {
    /// Called when the solver deduces (and records) `lits` as a clause.
    /// `lits` is empty exactly when unsatisfiability has been established.
    fn add_clause(&mut self, lits: &[Lit]);

    /// Called when the solver deletes a clause from its database.
    fn delete_clause(&mut self, lits: &[Lit]);

    /// Called instead of [`ProofSink::add_clause`] by a solver that knows
    /// the addition's hint chain (see [`ClauseId`]); an empty
    /// `hints` means no chain is known. The default drops the hints and
    /// forwards to `add_clause`, so a sink that has no use for them
    /// implements only the two required methods.
    fn add_clause_hinted(&mut self, lits: &[Lit], hints: &[ClauseId]) {
        let _ = hints;
        self.add_clause(lits);
    }
}

/// A sink that discards everything — the default when no proof is wanted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoProof;

impl ProofSink for NoProof {
    #[inline]
    fn add_clause(&mut self, _lits: &[Lit]) {}

    #[inline]
    fn delete_clause(&mut self, _lits: &[Lit]) {}
}

impl<S: ProofSink + ?Sized> ProofSink for &mut S {
    fn add_clause(&mut self, lits: &[Lit]) {
        (**self).add_clause(lits);
    }

    fn delete_clause(&mut self, lits: &[Lit]) {
        (**self).delete_clause(lits);
    }

    fn add_clause_hinted(&mut self, lits: &[Lit], hints: &[ClauseId]) {
        (**self).add_clause_hinted(lits, hints);
    }
}

impl<S: ProofSink + ?Sized> ProofSink for Box<S> {
    fn add_clause(&mut self, lits: &[Lit]) {
        (**self).add_clause(lits);
    }

    fn delete_clause(&mut self, lits: &[Lit]) {
        (**self).delete_clause(lits);
    }

    fn add_clause_hinted(&mut self, lits: &[Lit], hints: &[ClauseId]) {
        (**self).add_clause_hinted(lits, hints);
    }
}

/// Shared-ownership sink: attach `Rc::clone(&sink)` to a
/// [`SolverBuilder`](crate::SolverBuilder) and keep the other handle to
/// read the recorded proof back after solving — the session replacement
/// for the per-call `&mut sink` the removed `solve_with_proof` took.
impl<S: ProofSink> ProofSink for std::rc::Rc<std::cell::RefCell<S>> {
    fn add_clause(&mut self, lits: &[Lit]) {
        self.borrow_mut().add_clause(lits);
    }

    fn delete_clause(&mut self, lits: &[Lit]) {
        self.borrow_mut().delete_clause(lits);
    }

    fn add_clause_hinted(&mut self, lits: &[Lit], hints: &[ClauseId]) {
        self.borrow_mut().add_clause_hinted(lits, hints);
    }
}

/// The solver's side of the hint chains: the two ID counters and the chain
/// of the addition being built.
#[derive(Debug, Default)]
pub(crate) struct HintLog {
    /// Whether chains are collected and stored clauses carry IDs: set once
    /// a proof sink is attached.
    pub(crate) on: bool,
    /// `Solver::add_clause` calls so far.
    originals: u32,
    /// Non-empty additions reported so far.
    lemmas: u32,
    /// The chain of the next addition.
    chain: Vec<ClauseId>,
    /// Set when a chain clause has no ID: the addition goes out unhinted.
    broken: bool,
}

impl HintLog {
    /// Counts one `Solver::add_clause` call; returns the ID its clause
    /// takes when IDs are stored.
    pub(crate) fn next_original(&mut self) -> Option<ClauseId> {
        let id = ClauseId::Original(self.originals);
        self.originals = self.originals.saturating_add(1);
        self.on.then_some(id)
    }

    /// Appends a clause to the chain being built, if chains are
    /// collected. A clause without an ID leaves the whole addition
    /// unhinted.
    #[inline]
    pub(crate) fn push(&mut self, id: Option<ClauseId>) {
        match id {
            _ if !self.on => {}
            Some(id) => self.chain.push(id),
            None => self.broken = true,
        }
    }

    /// The chain being built, for reordering in place.
    pub(crate) fn chain_mut(&mut self) -> &mut Vec<ClauseId> {
        &mut self.chain
    }

    /// Reports `lits` to `sink` with the chain built since the last
    /// addition, then starts a fresh chain. Returns the ID the addition
    /// takes when IDs are stored (an empty clause takes none).
    pub(crate) fn add<S: ProofSink + ?Sized>(
        &mut self,
        sink: &mut S,
        lits: &[Lit],
    ) -> Option<ClauseId> {
        let hints: &[ClauseId] = if self.broken { &[] } else { &self.chain };
        sink.add_clause_hinted(lits, hints);
        self.chain.clear();
        self.broken = false;
        if lits.is_empty() {
            return None;
        }
        let id = ClauseId::Lemma(self.lemmas);
        self.lemmas = self.lemmas.saturating_add(1);
        self.on.then_some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use berkmin_cnf::Var;

    #[derive(Default)]
    struct Counting {
        adds: usize,
        dels: usize,
    }

    impl ProofSink for Counting {
        fn add_clause(&mut self, _lits: &[Lit]) {
            self.adds += 1;
        }
        fn delete_clause(&mut self, _lits: &[Lit]) {
            self.dels += 1;
        }
    }

    #[test]
    fn mut_ref_forwards() {
        let mut c = Counting::default();
        {
            // Route through the blanket `impl ProofSink for &mut S`.
            let mut sink = &mut c;
            ProofSink::add_clause(&mut sink, &[Lit::pos(Var::new(0))]);
            ProofSink::delete_clause(&mut sink, &[]);
        }
        assert_eq!((c.adds, c.dels), (1, 1));
    }

    /// Records the hints it is given.
    #[derive(Default)]
    struct Hinted(Vec<Vec<ClauseId>>);

    impl ProofSink for Hinted {
        fn add_clause(&mut self, _lits: &[Lit]) {
            self.0.push(Vec::new());
        }
        fn delete_clause(&mut self, _lits: &[Lit]) {}
        fn add_clause_hinted(&mut self, _lits: &[Lit], hints: &[ClauseId]) {
            self.0.push(hints.to_vec());
        }
    }

    #[test]
    fn hints_default_to_a_plain_addition() {
        let mut c = Counting::default();
        c.add_clause_hinted(&[], &[ClauseId::Original(0)]);
        assert_eq!(c.adds, 1);
    }

    #[test]
    fn wrappers_forward_hints() {
        let hints = [ClauseId::Lemma(3), ClauseId::Original(1)];
        let shared = std::rc::Rc::new(std::cell::RefCell::new(Hinted::default()));
        let mut boxed: Box<dyn ProofSink> = Box::new(std::rc::Rc::clone(&shared));
        boxed.add_clause_hinted(&[], &hints);
        // Route through the blanket `impl ProofSink for &mut S` as well.
        let mut by_ref = &mut boxed;
        ProofSink::add_clause_hinted(&mut by_ref, &[], &hints[..1]);
        assert_eq!(shared.borrow().0, vec![hints.to_vec(), hints[..1].to_vec()]);
    }

    #[test]
    fn tagged_ids_round_trip() {
        for id in [
            ClauseId::Original(0),
            ClauseId::Lemma(0),
            ClauseId::Original(u32::MAX),
            ClauseId::Lemma(u32::MAX),
        ] {
            assert_eq!(ClauseId::from_tagged(id.tagged()), Some(id));
        }
        assert_eq!(ClauseId::Lemma(2).tagged(), 5);
        assert_eq!(ClauseId::from_tagged(u64::MAX), None);
    }

    #[test]
    fn hint_log_numbers_originals_and_non_empty_additions() {
        let x = Lit::pos(Var::new(0));
        let mut log = HintLog {
            on: true,
            ..HintLog::default()
        };
        let mut sink = Hinted::default();
        assert_eq!(log.next_original(), Some(ClauseId::Original(0)));
        assert_eq!(log.next_original(), Some(ClauseId::Original(1)));
        log.push(Some(ClauseId::Original(1)));
        assert_eq!(log.add(&mut sink, &[x]), Some(ClauseId::Lemma(0)));
        // A chain clause without an ID sends the addition out unhinted.
        log.push(Some(ClauseId::Lemma(0)));
        log.push(None);
        assert_eq!(log.add(&mut sink, &[x, !x]), Some(ClauseId::Lemma(1)));
        // The empty clause takes no ID.
        assert_eq!(log.add(&mut sink, &[]), None);
        assert_eq!(log.add(&mut sink, &[x]), Some(ClauseId::Lemma(2)));
        assert_eq!(
            sink.0,
            vec![vec![ClauseId::Original(1)], vec![], vec![], vec![]]
        );
        // Without a sink attached the counters still run, but no ID is
        // handed out for storage.
        log.on = false;
        assert_eq!(log.next_original(), None);
        assert_eq!(log.add(&mut sink, &[x]), None);
        log.on = true;
        assert_eq!(log.next_original(), Some(ClauseId::Original(3)));
        assert_eq!(log.add(&mut sink, &[x]), Some(ClauseId::Lemma(4)));
    }

    #[test]
    fn no_proof_is_a_no_op() {
        let mut sink = NoProof;
        sink.add_clause(&[]);
        sink.delete_clause(&[]);
    }
}
