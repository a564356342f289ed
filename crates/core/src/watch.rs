//! The watch structure: one typed owner for the two-watched-literal
//! indexes.
//!
//! [`Watches`] bundles the long-clause watch lists (with Chaff-style
//! blockers) and the inline binary watch lists. Attachment, detachment and
//! the post-GC rebuild all go through the one surface here, so BCP's
//! watch-relocation, garbage collection's watch rewrite, and the audit's
//! symmetry check can never disagree about the structure's shape.
//!
//! encapsulation-guard: every field of `Watches` is private by design.
//! `tests/encapsulation_guard.rs` greps the rest of `crates/core/src` for
//! raw watch-list indexing; new watch-touching code belongs behind a
//! method in this file.

use std::collections::{HashMap, HashSet};

use berkmin_cnf::{LBool, Lit};

use crate::clause_db::{ClauseDb, ClauseRef};
use crate::trail::Trail;

/// A watch-list entry for a clause of length ≥ 3: the clause plus a
/// *blocker* literal whose truth lets BCP skip the clause without touching
/// its memory (SATO/Chaff-style fast BCP, paper §2).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Watcher {
    pub(crate) cref: ClauseRef,
    pub(crate) blocker: Lit,
}

/// A binary clause stored *inline* in the watch list: the other literal is
/// the watcher, so propagating through a binary clause never touches the
/// clause arena. `cref` exists only to serve as the reason/conflict handle
/// for conflict analysis.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BinWatcher {
    /// The clause's other literal — everything BCP needs.
    pub(crate) other: Lit,
    /// Arena record backing this clause (activity, stack age, proofs).
    pub(crate) cref: ClauseRef,
}

/// One entry yielded by [`Watches::for_each_watcher`]: either a
/// long-clause watcher or an inline binary watcher.
#[cfg(test)]
#[derive(Debug, Clone, Copy)]
pub(crate) enum WatchRef<'a> {
    /// A long-clause (length ≥ 3) watcher with its blocker.
    Long(&'a Watcher),
    /// An inline binary watcher.
    Binary(&'a BinWatcher),
}

/// The two-watched-literal indexes of the solver, indexed by literal code.
///
/// `long` lists hold the clauses of length ≥ 3 in which the *negation* of
/// the index literal is watched (visited when the index literal becomes
/// true); binary clauses live inline in the `binary` lists, which double
/// as the occurrence lists behind `nb_two` (paper §7): the binary clauses
/// containing `l` are exactly the entries of `binary[(¬l).code()]`.
#[derive(Default)]
pub(crate) struct Watches {
    long: Vec<Vec<Watcher>>,
    binary: Vec<Vec<BinWatcher>>,
}

impl Watches {
    /// Creates an empty watch structure covering no literals.
    pub(crate) fn new() -> Self {
        Watches::default()
    }

    /// Grows the per-literal lists to cover `n` variables (2n codes).
    pub(crate) fn grow(&mut self, n: usize) {
        self.long.resize(2 * n, Vec::new());
        self.binary.resize(2 * n, Vec::new());
    }

    /// Number of literal codes covered (2 × variables).
    #[cfg(test)]
    pub(crate) fn num_codes(&self) -> usize {
        self.long.len()
    }

    /// Registers the two watched literals of `cref` (positions 0 and 1 of
    /// `lits`). Binary clauses go to the inline lists, longer clauses to
    /// the blocker-carrying long lists.
    pub(crate) fn attach(&mut self, cref: ClauseRef, lits: &[Lit]) {
        let (l0, l1) = (lits[0], lits[1]);
        if lits.len() == 2 {
            self.binary[(!l0).code()].push(BinWatcher { other: l1, cref });
            self.binary[(!l1).code()].push(BinWatcher { other: l0, cref });
        } else {
            self.long[(!l0).code()].push(Watcher { cref, blocker: l1 });
            self.long[(!l1).code()].push(Watcher { cref, blocker: l0 });
        }
    }

    /// Clears every list and re-attaches each live clause of `db`. Only
    /// valid at decision level 0 with an empty propagation queue (i.e.
    /// during database reduction / garbage collection).
    pub(crate) fn rebuild(&mut self, db: &ClauseDb) {
        for w in &mut self.long {
            w.clear();
        }
        for w in &mut self.binary {
            w.clear();
        }
        for cref in db.iter_live() {
            debug_assert!(db.len(cref) >= 2);
            self.attach(cref, db.lits(cref));
        }
    }

    /// The long-clause watchers visited when the literal of `code` becomes
    /// true.
    #[inline]
    pub(crate) fn long(&self, code: usize) -> &[Watcher] {
        &self.long[code]
    }

    /// The inline binary watchers visited when the literal of `code`
    /// becomes true.
    #[inline]
    pub(crate) fn binary(&self, code: usize) -> &[BinWatcher] {
        &self.binary[code]
    }

    /// Takes a long list out for BCP's long-clause pass, which walks it
    /// while relocating watchers onto other long lists; return it with
    /// [`Watches::put_long`]. (The binary pass reads its list in place
    /// through [`Watches::binary`], since it never writes one.)
    #[inline]
    pub(crate) fn take_long(&mut self, code: usize) -> Vec<Watcher> {
        std::mem::take(&mut self.long[code])
    }

    /// Puts a long list taken by [`Watches::take_long`] back in place.
    #[inline]
    pub(crate) fn put_long(&mut self, code: usize, ws: Vec<Watcher>) {
        debug_assert!(self.long[code].is_empty());
        self.long[code] = ws;
    }

    /// Appends one long watcher to the list of `code` — BCP's watch
    /// relocation target.
    #[inline]
    pub(crate) fn push_long(&mut self, code: usize, w: Watcher) {
        self.long[code].push(w);
    }

    /// Visits every watcher entry (long and binary) together with the
    /// clause literal it watches.
    #[cfg(test)]
    pub(crate) fn for_each_watcher<'a>(&'a self, mut f: impl FnMut(Lit, WatchRef<'a>)) {
        for code in 0..self.long.len().min(self.binary.len()) {
            // `long[l]` is visited when `l` becomes true, i.e. it holds
            // the clauses containing `¬l` — the negation is the watched
            // clause literal.
            let watched = !Lit::from_code(code as u32);
            for w in &self.long[code] {
                f(watched, WatchRef::Long(w));
            }
            for w in &self.binary[code] {
                f(watched, WatchRef::Binary(w));
            }
        }
    }

    /// Table-size self-check against the solver's variable count
    /// (`tables:`-prefixed, so the auditor can stop before deeper checks
    /// would index out of bounds).
    pub(crate) fn self_check_sizes(&self, num_vars: usize, out: &mut Vec<String>) {
        for (name, len) in [
            ("watches", self.long.len()),
            ("bin_watches", self.binary.len()),
        ] {
            if len != 2 * num_vars {
                out.push(format!(
                    "tables: {name} covers {len} literal codes, expected {}",
                    2 * num_vars
                ));
            }
        }
    }

    /// Watch-list structure check, plus the semantic two-watched-literal
    /// contract when the propagation queue is drained: every live clause
    /// is watched exactly twice, long clauses at their first two literals,
    /// binary clauses inline with the correct partner, blockers inside
    /// their clause, no watcher dangling into garbage.
    pub(crate) fn self_check(
        &self,
        db: &ClauseDb,
        trail: &Trail,
        live: &HashSet<ClauseRef>,
        ok: bool,
        out: &mut Vec<String>,
    ) {
        let mut watch_count: HashMap<ClauseRef, usize> = HashMap::new();
        for code in 0..self.long.len().min(self.binary.len()) {
            // `long[l]` is visited when `l` becomes true, i.e. it holds
            // the clauses containing `¬l` — `watched` is the clause literal.
            let watched = !Lit::from_code(code as u32);
            for w in &self.long[code] {
                if !live.contains(&w.cref) {
                    out.push(format!(
                        "watches[{code}]: dangling long watcher {:?}",
                        w.cref
                    ));
                    continue;
                }
                let lits = db.lits(w.cref);
                if lits.len() < 3 {
                    out.push(format!(
                        "watches[{code}]: binary clause {:?} in the long lists",
                        w.cref
                    ));
                }
                if lits[0] != watched && lits[1] != watched {
                    out.push(format!(
                        "watches[{code}]: clause {:?} is not watched at its \
                         first two literals",
                        w.cref
                    ));
                }
                if !lits.contains(&w.blocker) {
                    out.push(format!(
                        "watches[{code}]: blocker of {:?} is outside the clause",
                        w.cref
                    ));
                }
                *watch_count.entry(w.cref).or_insert(0) += 1;
            }
            for w in &self.binary[code] {
                if !live.contains(&w.cref) {
                    out.push(format!(
                        "bin_watches[{code}]: dangling binary watcher {:?}",
                        w.cref
                    ));
                    continue;
                }
                let lits = db.lits(w.cref);
                if lits.len() != 2 {
                    out.push(format!(
                        "bin_watches[{code}]: long clause {:?} in the binary lists",
                        w.cref
                    ));
                } else if !(lits.contains(&watched) && lits.contains(&w.other)) {
                    out.push(format!(
                        "bin_watches[{code}]: inline watcher does not encode \
                         clause {:?}",
                        w.cref
                    ));
                }
                *watch_count.entry(w.cref).or_insert(0) += 1;
            }
        }
        for &cref in live {
            let n = watch_count.get(&cref).copied().unwrap_or(0);
            if n != 2 {
                out.push(format!(
                    "watches: live clause {cref:?} is watched {n} time(s), \
                     expected exactly 2"
                ));
            }
        }
        // The semantic contract only holds once BCP has drained the queue;
        // a refuted solver keeps a falsified clause by design.
        if ok && trail.queue_drained() {
            for &cref in live {
                let lits = db.lits(cref);
                let satisfied = lits.iter().any(|&l| trail.lit_value(l) == LBool::True);
                let watches_ok = trail.lit_value(lits[0]) != LBool::False
                    && trail.lit_value(lits[1]) != LBool::False;
                if !satisfied && !watches_ok {
                    out.push(format!(
                        "watch semantics: clause {cref:?} {lits:?} has a \
                         falsified watched literal but no satisfying literal \
                         on a fully propagated trail"
                    ));
                }
            }
        }
    }

    /// Empties the long watch list of `code` (test-only): lets the
    /// auditors prove they catch a missing watch.
    #[cfg(test)]
    pub(crate) fn test_clear_long(&mut self, code: usize) {
        self.long[code].clear();
    }
}

impl std::fmt::Debug for Watches {
    /// Summarizes the watch-list population: covered codes, total entries,
    /// and how many lists are non-empty.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let long_entries: usize = self.long.iter().map(Vec::len).sum();
        let bin_entries: usize = self.binary.iter().map(Vec::len).sum();
        let populated = self.long.iter().filter(|w| !w.is_empty()).count()
            + self.binary.iter().filter(|w| !w.is_empty()).count();
        f.debug_struct("Watches")
            .field("codes", &self.long.len())
            .field("long_watchers", &long_entries)
            .field("binary_watchers", &bin_entries)
            .field("populated_lists", &populated)
            .finish()
    }
}
