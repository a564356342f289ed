//! Forward RUP proof checking with a hint fast path.
//!
//! Every clause a CDCL solver learns is a *reverse unit propagation* (RUP)
//! consequence: asserting the negation of all its literals and running unit
//! propagation over the current database yields a conflict. The checker
//! works forward through the proof: it verifies every addition that way,
//! maintains the database across deletions, and accepts iff the empty
//! clause is derived.
//!
//! # Hints
//!
//! An addition may carry a *hint chain* (see [`berkmin::ClauseId`]): the
//! clauses that derive it, in order. The checker first walks that chain
//! once, with the addition's literals assumed false: each clause must have
//! exactly one non-false literal, which is then assigned, until one clause
//! has none. That proves the addition RUP without any propagation search.
//! A missing chain, or one that names an unknown clause, a deleted clause
//! with no live copy of its literal set (a copy added only after every
//! copy was deleted does not count), or a clause with two non-false
//! literals, changes nothing: the checker runs the full RUP check on that
//! addition instead. A chain that works only ever confirms what the full
//! check would find, so the accepted proofs, the errors and the counts of
//! [`CheckReport`] are the same with or without hints; only
//! [`CheckReport::additions_hinted`] and [`CheckReport::chain_failures`]
//! tell the paths apart.
//!
//! The checker resolves IDs through two tables: original `k` is the `k`-th
//! clause of the formula, lemma `j` the `j`-th non-empty addition of the
//! proof.
//!
//! # Data structures
//!
//! - **One compacting arena.** The literals of the live clauses sit back
//!   to back in a single `Vec<Lit>`, deduplicated; a clause is a start
//!   offset and a length into it. A deleted clause's literals stay until
//!   deleted literals outnumber live ones; then the live clauses slide
//!   down over them, in order, and only their offsets change. Clause
//!   indices never move, so the watchers, the ID tables and the deletion
//!   index need no remapping. Each compaction moves at most as many
//!   literals as were deleted since the last one, so it costs O(1) per
//!   deleted literal, amortised, and the arena stays within about twice
//!   the live literals.
//! - **Watchers with a blocker.** Each watch-list entry names its clause
//!   and carries a *blocker*, another literal of the clause: while the
//!   blocker is true the clause is satisfied and the arena is not read.
//!   A binary clause's blocker is its other literal and its watcher is
//!   flagged binary, so it propagates straight from the watcher. Lists are
//!   compacted in order as they are scanned; watchers of deleted clauses
//!   are dropped when next visited, and at the latest by the next arena
//!   compaction, which sweeps the lists of their watched literals.
//! - **Values by literal code.** Assignments are stored per literal, so
//!   reading a literal's value needs no sign test.
//! - **A hashed deletion index.** A 64-bit hash of a clause's sorted,
//!   deduplicated literal set maps to a chain of the live clauses with that
//!   hash, oldest first. Every candidate is verified against the arena, so
//!   a hash collision can never delete the wrong clause. A deleted clause
//!   keeps, in place of its chain link, the oldest live copy of its set at
//!   the time it was deleted; a hint that names it follows those links to
//!   a live copy without reading its (possibly compacted) literals.
//!
//! # Deletion semantics
//!
//! A deletion names a literal set: literal order and repeated literals do
//! not matter. It removes the *oldest* live clause with that set, so a
//! formula holding a clause twice needs two deletions to lose it. A
//! deletion that matches no live clause is counted in
//! [`CheckReport::deletions_ignored`] and changes nothing.
//!
//! Deletions follow the operational DRAT convention (as in `drat-trim`):
//! the persistent trail is never rolled back, so literals already implied
//! stay valid even if a clause that justified them is deleted. In
//! particular unit deletions are ignored by propagation: a matched unit
//! clause is counted as applied and leaves the database, but its literal
//! stays assigned.

use std::collections::hash_map::{Entry, HashMap};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;

use berkmin_cnf::{Cnf, LBool, Lit};

use berkmin::ClauseId;

use crate::proof::{DratProof, Hints, Step};

/// Why a proof was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckError {
    /// Addition step `step` is not a RUP consequence of the database.
    NotRup {
        /// Index of the offending step in the proof.
        step: usize,
        /// The clause that failed the check.
        clause: Vec<Lit>,
    },
    /// The proof never derives the empty clause.
    NoEmptyClause,
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::NotRup { step, clause } => {
                write!(f, "step {step}: clause {clause:?} is not RUP")
            }
            CheckError::NoEmptyClause => write!(f, "proof does not derive the empty clause"),
        }
    }
}

impl std::error::Error for CheckError {}

/// Outcome of a successful check.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckReport {
    /// Number of addition steps verified.
    pub additions_checked: usize,
    /// Number of deletion steps applied.
    pub deletions_applied: usize,
    /// Deletions that referenced clauses absent from the database (ignored,
    /// per the operational convention).
    pub deletions_ignored: usize,
    /// Steps after the empty clause (not checked — the proof is complete).
    pub steps_after_empty: usize,
    /// Additions among [`CheckReport::additions_checked`] verified by
    /// their hint chain; the others took the full RUP check.
    pub additions_hinted: usize,
    /// Additions whose hint chain did not verify them, so the full RUP
    /// check ran instead (a solver's own proofs should have none).
    pub chain_failures: usize,
}

/// Verifies that `proof` is a valid RUP refutation of `cnf`.
///
/// # Errors
///
/// Returns [`CheckError::NotRup`] if an added clause does not follow by
/// unit propagation, or [`CheckError::NoEmptyClause`] if the proof never
/// reaches the empty clause.
pub fn check_refutation(cnf: &Cnf, proof: &DratProof) -> Result<CheckReport, CheckError> {
    // Size the per-clause tables for every clause the check may add, since
    // clause indices are never reused, and reserve the arena for every
    // literal, so that neither grows by copying; compaction keeps the part
    // of the arena in use near twice the live literals, and the pages it
    // never reaches are never touched. The proof keeps the counts as it
    // records.
    let nvars = cnf.num_vars().max(proof.num_vars());
    let clauses = cnf.num_clauses() + proof.num_additions();
    let lits = cnf.num_lits() + proof.num_addition_lits();
    let mut db = Propagator::new(nvars, clauses, lits);
    let mut report = CheckReport::default();

    // Load the original formula; a conflict here already refutes it.
    for clause in cnf.iter() {
        let cref = db.add_clause(clause);
        db.originals.push(cref);
    }
    db.propagate_persistent();

    // Each step's literals, decoded once.
    let mut lits = Vec::new();
    for (i, step) in proof.steps().enumerate() {
        if db.contradiction {
            report.steps_after_empty = proof.len() - i;
            return Ok(report);
        }
        lits.clear();
        lits.extend(step.lits());
        match step {
            Step::Add(_) => {
                let hints = proof.hints(i);
                let chained = !hints.is_empty();
                if chained && db.chain_refutes(&lits, hints) {
                    report.additions_hinted += 1;
                } else {
                    if chained {
                        report.chain_failures += 1;
                    }
                    if !db.is_rup(&lits) {
                        return Err(CheckError::NotRup {
                            step: i,
                            clause: lits,
                        });
                    }
                }
                report.additions_checked += 1;
                let cref = db.add_clause(&lits);
                if !lits.is_empty() {
                    db.lemmas.push(cref);
                }
                db.propagate_persistent();
            }
            Step::Delete(_) => {
                if db.delete_clause(&lits) {
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

/// Ends a chain of clauses in the deletion index.
const NO_CLAUSE: u32 = u32::MAX;

/// Where a clause's literals sit in the arena, until a compaction drops
/// them after the clause is deleted.
#[derive(Clone, Copy)]
struct ClauseSpan {
    start: u32,
    len: u32,
    /// For a live clause, the next live clause with the same literal-set
    /// hash, in insertion order. For a deleted one, the oldest clause with
    /// the same literal set that was live when it was deleted. [`NO_CLAUSE`]
    /// ends either chain.
    next_same: u32,
}

impl ClauseSpan {
    fn range(self) -> Range<usize> {
        let start = self.start as usize;
        start..start + self.len as usize
    }
}

/// A watch-list entry.
#[derive(Clone, Copy)]
struct Watcher {
    /// A literal of the clause; while it is true the clause is satisfied.
    blocker: Lit,
    /// Clause index shifted left by one; the low bit marks a binary clause.
    tagged: u32,
}

impl Watcher {
    fn new(cref: u32, blocker: Lit, binary: bool) -> Self {
        Watcher {
            blocker,
            tagged: cref << 1 | u32::from(binary),
        }
    }

    fn cref(self) -> usize {
        (self.tagged >> 1) as usize
    }

    fn is_binary(self) -> bool {
        self.tagged & 1 == 1
    }
}

/// The deletion index's hasher: its keys are [`set_hash`] values already,
/// so they are used as they are.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("the deletion index hashes only u64 keys")
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

/// Hashes a sorted, deduplicated literal set.
fn set_hash(set: &[Lit]) -> u64 {
    let mut h = set.len() as u64;
    for l in set {
        h = (h.rotate_left(5) ^ l.code() as u64).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    h
}

/// Watch preference: true literals first, then unassigned, then false.
fn watch_rank(v: LBool) -> u8 {
    match v {
        LBool::True => 0,
        LBool::Undef => 1,
        LBool::False => 2,
    }
}

/// A two-watched-literal propagation engine for proof checking.
struct Propagator {
    /// The literals of the resident clauses, back to back. The first two
    /// slots of a clause with two or more literals are its watches.
    arena: Vec<Lit>,
    /// The clauses whose literals are in the arena, in arena order: every
    /// live clause, and the clauses deleted since the last compaction.
    resident: Vec<u32>,
    /// How many of the arena's literals belong to deleted clauses.
    dead_lits: usize,
    clauses: Vec<ClauseSpan>,
    alive: Vec<bool>,
    /// Literal-set hash → the oldest live clause with that hash.
    index: HashMap<u64, u32, BuildHasherDefault<PassThrough>>,
    /// watches[lit.code()] = watchers of the clauses where ¬lit is watched.
    watches: Vec<Vec<Watcher>>,
    /// vals[lit.code()] = the value of `lit`.
    vals: Vec<LBool>,
    trail: Vec<Lit>,
    qhead: usize,
    /// Set once the database is contradictory by unit propagation.
    contradiction: bool,
    /// Scratch buffer for a sorted, deduplicated literal set.
    key: Vec<Lit>,
    /// originals[k] = the clause index of the formula's `k`-th clause
    /// ([`NO_CLAUSE`] for an empty one).
    originals: Vec<u32>,
    /// lemmas[j] = the clause index of the proof's `j`-th non-empty
    /// addition.
    lemmas: Vec<u32>,
}

impl Propagator {
    /// An empty database over `nvars` variables, with room for `clauses`
    /// clauses of `lits` literals in all.
    fn new(nvars: usize, clauses: usize, lits: usize) -> Self {
        Propagator {
            arena: Vec::with_capacity(lits),
            resident: Vec::new(),
            dead_lits: 0,
            clauses: Vec::with_capacity(clauses),
            alive: Vec::with_capacity(clauses),
            index: HashMap::with_capacity_and_hasher(clauses, Default::default()),
            watches: vec![Vec::new(); 2 * nvars],
            vals: vec![LBool::Undef; 2 * nvars],
            trail: Vec::new(),
            qhead: 0,
            contradiction: false,
            key: Vec::new(),
            originals: Vec::new(),
            lemmas: Vec::new(),
        }
    }

    fn value(&self, l: Lit) -> LBool {
        self.vals[l.code()]
    }

    fn enqueue(&mut self, l: Lit) -> bool {
        match self.value(l) {
            LBool::True => true,
            LBool::False => false,
            LBool::Undef => {
                self.vals[l.code()] = LBool::True;
                self.vals[(!l).code()] = LBool::False;
                self.trail.push(l);
                true
            }
        }
    }

    /// Fills `key` with the sorted, deduplicated literals of `lits`.
    fn load_key(&mut self, lits: &[Lit]) {
        self.key.clear();
        self.key.extend_from_slice(lits);
        self.key.sort_unstable();
        self.key.dedup();
    }

    /// Adds a clause; returns its index ([`NO_CLAUSE`] for the empty
    /// clause, which is not stored).
    fn add_clause(&mut self, lits: &[Lit]) -> u32 {
        // Watch selection below must see each literal once: a duplicated
        // literal (legal in DIMACS, and produced by some generators) would
        // otherwise occupy both watch slots, leaving the rest of the clause
        // unwatched and propagation incomplete.
        self.load_key(lits);
        match self.key.len() {
            0 => {
                self.contradiction = true;
                return NO_CLAUSE;
            }
            1 => {
                if !self.enqueue(self.key[0]) {
                    self.contradiction = true;
                }
                // Units live on the trail; no watch entry needed, but we
                // still register the clause so deletions can match it.
                return self.register();
            }
            _ => {}
        }
        let cref = self.register();
        let c = &mut self.arena[self.clauses[cref as usize].range()];
        // The first two literals are the watches unless one of them is false
        // under the persistent trail (a lemma's rarely is); then prefer true,
        // then unassigned literals, so the invariant holds.
        if c[..2].iter().any(|l| self.vals[l.code()] == LBool::False) {
            for slot in 0..2 {
                let best = (slot..c.len())
                    .min_by_key(|&k| watch_rank(self.vals[c[k].code()]))
                    .expect("a clause has at least two literals here");
                c.swap(slot, best);
            }
        }
        let (w0, w1) = (c[0], c[1]);
        let binary = c.len() == 2;
        self.watches[(!w0).code()].push(Watcher::new(cref, w1, binary));
        self.watches[(!w1).code()].push(Watcher::new(cref, w0, binary));
        // If both best watches are false, the clause is conflicting or unit
        // under the trail.
        if self.value(w1) == LBool::False {
            match self.value(w0) {
                LBool::False => self.contradiction = true,
                LBool::Undef => {
                    if !self.enqueue(w0) {
                        self.contradiction = true;
                    }
                }
                LBool::True => {}
            }
        }
        cref
    }

    /// Appends the literal set in `key` to the arena and the deletion
    /// index; returns the new clause's index.
    fn register(&mut self) -> u32 {
        let cref = u32::try_from(self.clauses.len())
            .ok()
            .filter(|&c| c < NO_CLAUSE >> 1)
            .expect("the checker holds fewer than 2^31 clauses");
        self.clauses.push(ClauseSpan {
            start: u32::try_from(self.arena.len())
                .expect("the arena holds fewer than 2^32 literals"),
            len: u32::try_from(self.key.len()).expect("a clause has fewer than 2^32 literals"),
            next_same: NO_CLAUSE,
        });
        self.alive.push(true);
        self.resident.push(cref);
        self.arena.extend_from_slice(&self.key);
        match self.index.entry(set_hash(&self.key)) {
            Entry::Vacant(e) => {
                e.insert(cref);
            }
            Entry::Occupied(e) => {
                let mut tail = *e.get() as usize;
                while self.clauses[tail].next_same != NO_CLAUSE {
                    tail = self.clauses[tail].next_same as usize;
                }
                self.clauses[tail].next_same = cref;
            }
        }
        cref
    }

    /// Finds the first clause, walking a hash chain of live clauses from
    /// `cur` on, whose literal set is the one in `key`; returns it with its
    /// predecessor in the chain ([`NO_CLAUSE`] when it is `cur` itself).
    fn find_key(&self, mut cur: u32) -> Option<(u32, u32)> {
        let mut prev = NO_CLAUSE;
        while cur != NO_CLAUSE {
            let span = self.clauses[cur as usize];
            let stored = &self.arena[span.range()];
            // Both sides are deduplicated, so equal length plus inclusion
            // is set equality.
            if stored.len() == self.key.len()
                && stored.iter().all(|l| self.key.binary_search(l).is_ok())
            {
                return Some((prev, cur));
            }
            prev = cur;
            cur = span.next_same;
        }
        None
    }

    /// Removes the oldest live clause whose literal set equals that of
    /// `lits`; returns whether a clause was found. Compacts the arena once
    /// deleted clauses hold more of its literals than live ones.
    fn delete_clause(&mut self, lits: &[Lit]) -> bool {
        self.load_key(lits);
        let hash = set_hash(&self.key);
        let Some((prev, cur)) = self.index.get(&hash).and_then(|&head| self.find_key(head)) else {
            return false;
        };
        let span = self.clauses[cur as usize];
        if prev != NO_CLAUSE {
            self.clauses[prev as usize].next_same = span.next_same;
        } else if span.next_same != NO_CLAUSE {
            self.index.insert(hash, span.next_same);
        } else {
            self.index.remove(&hash);
        }
        // Younger copies of the set follow it in the chain; hints that
        // still name this clause go to the oldest of them.
        self.clauses[cur as usize].next_same = self
            .find_key(span.next_same)
            .map_or(NO_CLAUSE, |(_, twin)| twin);
        self.alive[cur as usize] = false;
        self.dead_lits += span.len as usize;
        if 2 * self.dead_lits > self.arena.len() {
            self.compact();
        }
        true
    }

    /// Slides the live clauses' literals down over the deleted ones' and
    /// drops the deleted clauses' watchers. Clause indices do not change.
    fn compact(&mut self) {
        let mut stale = Vec::new();
        let mut end = 0;
        self.resident.retain(|&cref| {
            let span = &mut self.clauses[cref as usize];
            let range = span.range();
            if !self.alive[cref as usize] {
                // Its watchers sit in the lists of the negations of its
                // first two literals.
                if range.len() >= 2 {
                    stale.push((!self.arena[range.start]).code());
                    stale.push((!self.arena[range.start + 1]).code());
                }
                return false;
            }
            // Clauses before the first deleted one stay where they are.
            if range.start != end {
                span.start = end as u32;
                self.arena.copy_within(range.clone(), end);
            }
            end += range.len();
            true
        });
        self.arena.truncate(end);
        self.dead_lits = 0;
        stale.sort_unstable();
        stale.dedup();
        for code in stale {
            self.watches[code].retain(|w| self.alive[w.cref()]);
        }
    }

    /// Unit propagation; returns `true` on conflict.
    fn propagate(&mut self) -> bool {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let false_lit = !p;
            let mut ws = std::mem::take(&mut self.watches[p.code()]);
            let (mut i, mut j) = (0, 0);
            let mut conflict = false;
            while i < ws.len() {
                let w = ws[i];
                i += 1;
                if self.vals[w.blocker.code()] == LBool::True {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                let cref = w.cref();
                if !self.alive[cref] {
                    continue; // deleted clause: drop its watcher
                }
                if w.is_binary() {
                    ws[j] = w;
                    j += 1;
                    if !self.enqueue(w.blocker) {
                        conflict = true;
                        break;
                    }
                    continue;
                }
                let c = &mut self.arena[self.clauses[cref].range()];
                if c[0] == false_lit {
                    c.swap(0, 1);
                }
                debug_assert_eq!(
                    c[1], false_lit,
                    "a clause is watched in its first two slots"
                );
                let first = c[0];
                let w = Watcher {
                    blocker: first,
                    ..w
                };
                if self.vals[first.code()] == LBool::True {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                if let Some(k) = (2..c.len()).find(|&k| self.vals[c[k].code()] != LBool::False) {
                    c.swap(1, k);
                    self.watches[(!c[1]).code()].push(w);
                    continue;
                }
                ws[j] = w;
                j += 1;
                if !self.enqueue(first) {
                    conflict = true;
                    break;
                }
            }
            if conflict {
                ws.copy_within(i.., j);
                j += ws.len() - i;
            }
            ws.truncate(j);
            self.watches[p.code()] = ws;
            if conflict {
                self.qhead = self.trail.len();
                return true;
            }
        }
        false
    }

    /// Propagates and commits the result to the persistent trail.
    fn propagate_persistent(&mut self) {
        if self.propagate() {
            self.contradiction = true;
        }
    }

    /// Assumes the negation of every literal of `lits`; returns `true`
    /// if one of them is already false (a conflict on the spot).
    fn assume_negation(&mut self, lits: &[Lit]) -> bool {
        lits.iter().any(|&l| !self.enqueue(!l))
    }

    /// Unassigns the trail above `saved`.
    fn roll_back(&mut self, saved: usize) {
        for &l in &self.trail[saved..] {
            self.vals[l.code()] = LBool::Undef;
            self.vals[(!l).code()] = LBool::Undef;
        }
        self.trail.truncate(saved);
    }

    /// RUP check: assume the negation of every literal of `lits`,
    /// propagate, expect a conflict, then roll back.
    fn is_rup(&mut self, lits: &[Lit]) -> bool {
        if self.contradiction {
            return true; // anything follows from a contradictory database
        }
        let saved = self.trail.len();
        let saved_qhead = self.qhead;
        let conflict = self.assume_negation(lits) || self.propagate();
        self.roll_back(saved);
        self.qhead = saved_qhead.min(saved);
        conflict
    }

    /// A live clause with the literal set of the clause `id` names, if
    /// there is one: that clause itself, or else the oldest live copy of
    /// its set, found by following each deleted copy to the copy that was
    /// oldest live at its deletion. A deletion removes the oldest copy of a
    /// set while the solver may have meant a younger one, and any copy
    /// serves a chain.
    fn resolve(&self, id: ClauseId) -> Option<usize> {
        let cref = match id {
            ClauseId::Original(k) => self.originals.get(k as usize),
            ClauseId::Lemma(j) => self.lemmas.get(j as usize),
        };
        let mut cref = *cref? as usize;
        while !*self.alive.get(cref)? {
            cref = self.clauses[cref].next_same as usize;
        }
        Some(cref)
    }

    /// Hint check: assume the negation of every literal of `lits`, then
    /// walk `hints` once. Each clause must be unit — its one non-false
    /// literal is assigned — until one is falsified, which proves `lits`
    /// RUP. Returns `false`, having changed nothing, if the chain names a
    /// clause that is not live or reaches a clause with two non-false
    /// literals, or ends without a conflict. Nothing is propagated.
    fn chain_refutes(&mut self, lits: &[Lit], hints: Hints<'_>) -> bool {
        let saved = self.trail.len();
        let mut refuted = self.assume_negation(lits);
        if !refuted {
            for id in hints {
                let Some(cref) = self.resolve(id) else {
                    break;
                };
                let mut open = None;
                let mut stalled = false;
                for &l in &self.arena[self.clauses[cref].range()] {
                    if self.vals[l.code()] != LBool::False {
                        if open.is_some() {
                            stalled = true;
                            break;
                        }
                        open = Some(l);
                    }
                }
                match open {
                    _ if stalled => break,
                    None => {
                        refuted = true;
                        break;
                    }
                    // Already true when the chain repeats a derivation.
                    Some(unit) => {
                        self.enqueue(unit);
                    }
                }
            }
        }
        self.roll_back(saved);
        refuted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proof::DratProof;
    use berkmin::ProofSink;

    fn lit(n: i32) -> Lit {
        Lit::from_dimacs(n)
    }

    fn cnf(clauses: &[&[i32]]) -> Cnf {
        let mut f = Cnf::new();
        for c in clauses {
            f.add_clause(c.iter().map(|&n| lit(n)));
        }
        f
    }

    #[test]
    fn accepts_textbook_refutation() {
        // (a∨b)(a∨¬b)(¬a∨c)(¬a∨¬c): derive a, then ⊥.
        let f = cnf(&[&[1, 2], &[1, -2], &[-1, 3], &[-1, -3]]);
        let mut p = DratProof::new();
        p.add_clause(&[lit(1)]); // RUP: ¬a → b and ¬b conflict
        p.add_clause(&[]); // a → c and ¬c conflict
        let report = check_refutation(&f, &p).expect("valid refutation");
        // Adding the unit `a` already makes the database contradictory by
        // propagation, so the checker may finish after one verified step.
        assert!(report.additions_checked >= 1);
        assert_eq!(report.additions_checked + report.steps_after_empty, 2);
    }

    #[test]
    fn rejects_non_rup_addition() {
        let f = cnf(&[&[1, 2]]);
        let mut p = DratProof::new();
        p.add_clause(&[lit(1)]); // does not follow
        let err = check_refutation(&f, &p).unwrap_err();
        match err {
            CheckError::NotRup { step, .. } => assert_eq!(step, 0),
            e => panic!("unexpected {e:?}"),
        }
    }

    #[test]
    fn rejects_incomplete_proof() {
        let f = cnf(&[&[1], &[-1]]);
        let p = DratProof::new();
        // The formula is contradictory by propagation alone, so even the
        // empty proof succeeds here...
        assert!(check_refutation(&f, &p).is_ok());
        // ...but a satisfiable formula with no derivation must fail.
        let sat = cnf(&[&[1, 2]]);
        assert_eq!(
            check_refutation(&sat, &p).unwrap_err(),
            CheckError::NoEmptyClause
        );
    }

    #[test]
    fn deletion_bookkeeping() {
        // Extra redundant clause so a deletion can precede the refutation.
        let f = cnf(&[&[1, 2], &[1, -2], &[-1, 3], &[-1, -3], &[1, 2, 3]]);
        let mut p = DratProof::new();
        p.delete_clause(&[lit(1), lit(2), lit(3)]); // applied
        p.delete_clause(&[lit(9), lit(8)]); // unknown: ignored
        p.add_clause(&[lit(1)]);
        p.add_clause(&[]);
        let report = check_refutation(&f, &p).unwrap();
        assert_eq!(report.deletions_applied, 1);
        assert_eq!(report.deletions_ignored, 1);
        assert!(report.additions_checked >= 1);
    }

    #[test]
    fn deleted_clauses_no_longer_support_rup() {
        // (a∨b)(a∨¬b): "a" is RUP. After deleting (a∨b) first, it is not —
        // assuming ¬a only yields ¬b with no conflict.
        let f = cnf(&[&[1, 2], &[1, -2]]);
        let mut good = DratProof::new();
        good.add_clause(&[lit(1)]);
        // (Not a refutation — formula is SAT — but step 0 must verify.)
        assert!(matches!(
            check_refutation(&f, &good),
            Err(CheckError::NoEmptyClause)
        ));

        let mut bad = DratProof::new();
        bad.delete_clause(&[lit(1), lit(2)]);
        bad.add_clause(&[lit(1)]);
        let err = check_refutation(&f, &bad).unwrap_err();
        assert!(matches!(err, CheckError::NotRup { step: 1, .. }));
    }

    #[test]
    fn deletion_removes_one_copy_at_a_time() {
        // (a∨b) twice, plus (a∨¬b): "a" is RUP while one copy of (a∨b)
        // is live, and stops being RUP once both copies are deleted.
        let f = cnf(&[&[1, 2], &[1, 2], &[1, -2]]);
        let mut once = DratProof::new();
        once.delete_clause(&[lit(1), lit(2)]);
        once.add_clause(&[lit(1)]);
        let err = check_refutation(&f, &once).unwrap_err();
        assert_eq!(err, CheckError::NoEmptyClause, "step 1 must verify");

        let mut twice = DratProof::new();
        twice.delete_clause(&[lit(1), lit(2)]);
        twice.delete_clause(&[lit(1), lit(2)]);
        twice.add_clause(&[lit(1)]);
        let err = check_refutation(&f, &twice).unwrap_err();
        assert!(matches!(err, CheckError::NotRup { step: 2, .. }), "{err:?}");
    }

    #[test]
    fn deletion_matches_the_literal_set() {
        // A deletion written in another literal order, or with a repeated
        // literal, still names the stored clause (a∨b).
        let f = cnf(&[&[1, 2], &[1, -2]]);
        for written in [&[2, 1][..], &[1, 2, 1], &[2, 2, 1, 1]] {
            let mut p = DratProof::new();
            p.delete_clause(&written.iter().map(|&n| lit(n)).collect::<Vec<_>>());
            p.add_clause(&[lit(1)]);
            let err = check_refutation(&f, &p).unwrap_err();
            assert!(
                matches!(err, CheckError::NotRup { step: 1, .. }),
                "deleting {written:?}: {err:?}"
            );
        }
        // A clause stored with a repeated literal is matched by its set too.
        let f = cnf(&[&[1, 1, 2], &[1, -2]]);
        let mut p = DratProof::new();
        p.delete_clause(&[lit(2), lit(1)]);
        p.delete_clause(&[lit(2), lit(1)]); // no copy left: ignored
        let err = check_refutation(&f, &p).unwrap_err();
        assert_eq!(err, CheckError::NoEmptyClause);
        let mut q = p.clone();
        q.add_clause(&[lit(1)]);
        assert!(matches!(
            check_refutation(&f, &q).unwrap_err(),
            CheckError::NotRup { step: 2, .. }
        ));
    }

    #[test]
    fn deletion_counts_copies_and_misses() {
        let f = cnf(&[&[1, 2], &[2, 1], &[1, 3], &[1, -3], &[-1, 4], &[-1, -4]]);
        let mut p = DratProof::new();
        p.delete_clause(&[lit(2), lit(1)]); // first copy
        p.delete_clause(&[lit(1), lit(2), lit(2)]); // second copy
        p.delete_clause(&[lit(1), lit(2)]); // no copy left: ignored
        p.add_clause(&[lit(1)]);
        p.add_clause(&[]);
        let report = check_refutation(&f, &p).unwrap();
        assert_eq!((report.deletions_applied, report.deletions_ignored), (2, 1));
        assert_eq!(report.additions_checked + report.steps_after_empty, 2);
    }

    #[test]
    fn duplicate_literals_do_not_blind_the_propagator() {
        // A clause with a repeated literal (legal DIMACS, emitted by some
        // circuit generators) must not occupy both watch slots with the
        // same literal: (b∨b∨¬a) has to wake when a is assigned, or the
        // propagator silently loses the a→b implication. The rest of the
        // formula makes ¬b non-derivable by UP (a case-split pair), so a
        // blind propagator cannot recover via back-propagation and wrongly
        // rejects the final — perfectly valid — RUP addition.
        let f = cnf(&[
            &[2, 2, -1],   // a → b        (duplicated literal)
            &[3],          // s
            &[-4, -2, -3], // b ∧ s → ¬t
            &[4, 2, -3],   // ¬b ∧ s → t   (case-split partner: blocks ¬b)
            &[5, 4, -3],   // ¬t ∧ s → u
            &[-5, -2, 6],  // u ∧ b → g
        ]);
        let mut p = DratProof::new();
        p.add_clause(&[lit(6), lit(-1)]); // a → g: RUP only via the dup clause
                                          // Not a refutation (f is satisfiable), but the step must verify.
        assert_eq!(
            check_refutation(&f, &p).unwrap_err(),
            CheckError::NoEmptyClause
        );
    }

    #[test]
    fn hint_chains_take_the_fast_path_and_bad_ones_fall_back() {
        // (a∨b)(a∨¬b)(¬a∨c)(¬a∨¬c). Lemma 0 is `a`: with ¬a, clause 0
        // gives b and clause 1 is falsified. The empty clause then follows
        // from the lemma and clauses 2 and 3.
        let f = cnf(&[&[1, 2], &[1, -2], &[-1, 3], &[-1, -3]]);
        let prove = |hints: &[ClauseId]| {
            let mut p = DratProof::new();
            p.add_clause_hinted(&[lit(1)], hints);
            p.add_clause(&[]);
            check_refutation(&f, &p).expect("valid refutation")
        };
        let good = prove(&[ClauseId::Original(0), ClauseId::Original(1)]);
        assert_eq!((good.additions_hinted, good.chain_failures), (1, 0));
        for bad in [
            // Stalls: with a false, clause 2 has two non-false literals.
            &[ClauseId::Original(2), ClauseId::Original(0)][..],
            // Ends without a conflict.
            &[ClauseId::Original(0)],
            // Out of range, for either kind.
            &[ClauseId::Original(4), ClauseId::Original(1)],
            &[ClauseId::Lemma(0), ClauseId::Original(1)],
            &[ClauseId::Lemma(u32::MAX)],
        ] {
            let report = prove(bad);
            assert_eq!(
                (report.additions_hinted, report.chain_failures),
                (0, 1),
                "{bad:?}"
            );
            assert_eq!(report.additions_checked, good.additions_checked);
        }
    }

    #[test]
    fn compaction_keeps_the_live_clauses_and_drops_the_deleted_ones() {
        // Each round adds a 4-clause, a 3-clause and a binary x → y, then
        // deletes the first two (in another literal order): the 7 deleted
        // literals then outnumber the live ones, so every round compacts.
        let mut db = Propagator::new(40, 0, 0);
        let mut compactions = 0;
        for round in 0..3 {
            let x = |k: i32| lit(10 * round + k);
            db.add_clause(&[x(1), x(2), x(3), x(4)]);
            db.add_clause(&[x(5), x(6), x(7)]);
            db.add_clause(&[!x(1), x(8)]);
            for deleted in [&[x(4), x(3), x(2), x(1)][..], &[x(7), x(5), x(6)]] {
                let before = db.arena.len();
                assert!(db.delete_clause(deleted));
                compactions += usize::from(db.arena.len() < before);
            }
        }
        assert_eq!(compactions, 3);
        // Only the binaries' literals are left, and no watcher names a
        // deleted clause.
        assert_eq!(db.arena.len(), 2 * 3);
        assert!(db.watches.iter().flatten().all(|w| db.alive[w.cref()]));
        for round in 0..3 {
            let x = |k: i32| lit(10 * round + k);
            // The binaries still propagate and still match deletions; the
            // deleted clauses do neither.
            assert!(db.is_rup(&[!x(1), x(8)]));
            assert!(!db.is_rup(&[x(1), x(2), x(3), x(4)]));
            assert!(!db.delete_clause(&[x(5), x(6), x(7)]));
            assert!(db.delete_clause(&[x(8), !x(1)]));
        }
        assert!(!db.is_rup(&[lit(-1), lit(8)]));
    }

    #[test]
    fn a_deleted_hint_resolves_to_a_live_copy_of_its_clause() {
        // Lemma 0 repeats original 0, (a∨b). Deleting (a∨b) removes the
        // older copy, original 0; deleting the 8-literal original 2 then
        // leaves 10 of the 18 stored literals dead, so the arena compacts
        // and original 0's literals are gone. A chain naming original 0
        // still reaches the live copy (with ¬a, lemma 0 gives b, and
        // original 1 is falsified) until both copies are gone.
        let f = cnf(&[
            &[1, 2],
            &[1, -2],
            &[3, 4, 5, 6, 7, 8, 9, 10],
            &[-1, 11],
            &[-1, -11],
        ]);
        let check = |delete_twin: bool| {
            let mut p = DratProof::new();
            p.add_clause_hinted(&[lit(1), lit(2)], &[ClauseId::Original(0)]);
            p.delete_clause(&[lit(2), lit(1)]);
            p.delete_clause(&[3, 4, 5, 6, 7, 8, 9, 10].map(lit));
            if delete_twin {
                p.delete_clause(&[lit(1), lit(2)]);
            }
            p.add_clause_hinted(&[lit(1)], &[ClauseId::Original(0), ClauseId::Original(1)]);
            p.add_clause(&[]);
            check_refutation(&f, &p)
        };
        let report = check(false).expect("valid refutation");
        assert_eq!(
            (report.additions_hinted, report.chain_failures),
            (report.additions_checked, 0),
            "{report:?}"
        );
        assert_eq!(report.deletions_applied, 2);
        // With both copies gone, `a` is no longer RUP at all.
        assert!(matches!(
            check(true),
            Err(CheckError::NotRup { step: 4, .. })
        ));
    }

    #[test]
    fn end_to_end_with_real_solver_unsat_run() {
        // Pigeonhole PHP(3) refuted by the solver; proof must check.
        let mut f = Cnf::new();
        let holes = 3usize;
        let l = |p: usize, h: usize| lit((p * holes + h + 1) as i32);
        for p in 0..=holes {
            f.add_clause((0..holes).map(|h| l(p, h)));
        }
        for h in 0..holes {
            for p1 in 0..=holes {
                for p2 in (p1 + 1)..=holes {
                    f.add_clause([!l(p1, h), !l(p2, h)]);
                }
            }
        }
        let proof = std::rc::Rc::new(std::cell::RefCell::new(DratProof::new()));
        let mut solver = berkmin::SolverBuilder::new()
            .proof(std::rc::Rc::clone(&proof))
            .cnf(&f)
            .build();
        assert!(solver.solve().is_unsat());
        let proof = proof.borrow();
        assert!(proof.ends_with_empty_clause());
        let report = check_refutation(&f, &proof).expect("solver proof must check");
        assert!(report.additions_checked > 0);
        assert_eq!(report.additions_hinted, report.additions_checked);
    }
}
