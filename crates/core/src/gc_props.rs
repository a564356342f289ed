//! Property tests for the flat clause arena and its compacting collector.
//!
//! Random interleavings of clause addition, learning, deletion and GC must
//! preserve the watch invariant — every live clause is watched at exactly
//! its first two literals, once in each of the two lists (inline binary or
//! blocker-carrying long) — and must leave no dangling [`ClauseRef`] in any
//! watch list, the conflict-clause stack, or the trail's reason pointers.

use std::collections::{HashMap, HashSet};

use berkmin_cnf::{LBool, Lit, Var};
use proptest::prelude::*;

use crate::cdcl::Cdcl;
use crate::clause_db::ClauseRef;
use crate::config::SolverConfig;
use crate::proof::NoProof;
use crate::watch::WatchRef;

/// Size of the variable pool the generated clauses draw from.
const VARS: usize = 24;

/// Derives a clause of `len` distinct variables (signs from the seed bits).
fn clause_from_seed(seed: u64, len: usize) -> Vec<Lit> {
    let mut vars: Vec<u32> = Vec::with_capacity(len);
    let mut x = seed | 1;
    while vars.len() < len {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let v = (x >> 33) as u32 % VARS as u32;
        if !vars.contains(&v) {
            vars.push(v);
        }
    }
    vars.iter()
        .enumerate()
        .map(|(i, &v)| Lit::new(Var::new(v), (seed >> i) & 1 == 1))
        .collect()
}

/// Asserts every arena/watch/stack/reason invariant the solver relies on.
fn check_invariants(s: &Cdcl) {
    assert_eq!(
        s.db.garbage_words(),
        0,
        "collection must leave a fully compacted arena"
    );
    let live: HashSet<ClauseRef> = s.db.iter_live().collect();
    let mut watch_count: HashMap<ClauseRef, usize> = HashMap::new();

    s.watches.for_each_watcher(|watched, entry| match entry {
        WatchRef::Long(w) => {
            assert!(live.contains(&w.cref), "dangling long watcher {:?}", w.cref);
            let lits = s.db.lits(w.cref);
            assert!(lits.len() >= 3, "binary clause in the long watch lists");
            assert!(
                lits[0] == watched || lits[1] == watched,
                "clause not watched at its first two literals"
            );
            assert!(lits.contains(&w.blocker), "blocker outside the clause");
            *watch_count.entry(w.cref).or_insert(0) += 1;
        }
        WatchRef::Binary(w) => {
            assert!(
                live.contains(&w.cref),
                "dangling binary watcher {:?}",
                w.cref
            );
            let lits = s.db.lits(w.cref);
            assert_eq!(lits.len(), 2, "long clause in the binary watch lists");
            assert!(
                lits.contains(&watched) && lits.contains(&w.other),
                "inline binary watcher does not encode its clause"
            );
            *watch_count.entry(w.cref).or_insert(0) += 1;
        }
    });
    for cref in &live {
        assert_eq!(
            watch_count.get(cref).copied().unwrap_or(0),
            2,
            "live clause {cref:?} must be watched exactly twice"
        );
    }
    for cref in &s.db.stack {
        assert!(live.contains(cref), "dangling stack entry {cref:?}");
        assert!(s.db.is_learnt(*cref), "original clause on the stack");
    }
    for &l in s.trail.iter() {
        if let Some(cref) = s.trail.reason_of(l.var()) {
            assert!(
                live.contains(&cref),
                "dangling reason for var {}",
                l.var().index()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn gc_preserves_watch_invariant(ops in prop::collection::vec((0u8..4, any::<u64>()), 1..=64)) {
        let mut s = Cdcl::new(SolverConfig::berkmin());
        s.ensure_vars(VARS);
        // Mirrors the solver's real discipline: deletions only mark records,
        // and search (propagation) resumes only after the following GC has
        // purged the marked clauses from every watch list.
        let mut dirty = false;
        for (op, seed) in ops {
            match op {
                0 => {
                    // Original clause through the public path (tautology
                    // dropping, level-0 simplification, unit enqueueing).
                    let len = 2 + (seed % 5) as usize;
                    if s.add_clause(clause_from_seed(seed, len)) && !dirty {
                        let _ = s.propagate();
                    }
                }
                1 => {
                    // Learnt clause installed directly on the stack, as the
                    // reduction tests do; only over unassigned literals so
                    // the fresh watches respect the 2WL discipline.
                    let len = 2 + (seed % 5) as usize;
                    let lits = clause_from_seed(seed, len);
                    if lits.iter().all(|&l| s.lit_value(l) == LBool::Undef) {
                        let cref = s.db.add_learnt(&lits, None);
                        s.attach(cref);
                    }
                }
                2 => {
                    // Mark a random learnt clause deleted (§8-style).
                    if !s.db.stack.is_empty() {
                        let i = seed as usize % s.db.stack.len();
                        let cref = s.db.stack[i];
                        if !s.db.is_garbage(cref) {
                            s.db.delete(cref);
                            dirty = true;
                        }
                    }
                }
                _ => {
                    s.collect_garbage(&mut NoProof);
                    dirty = false;
                    check_invariants(&s);
                }
            }
        }
        s.collect_garbage(&mut NoProof);
        check_invariants(&s);
    }

    #[test]
    fn gc_preserves_clause_contents(seeds in prop::collection::vec(any::<u64>(), 1..=24)) {
        // Adds + deletes, then GC: the surviving clauses' literal sets and
        // stack order must be exactly the non-deleted ones, in order.
        let mut s = Cdcl::new(SolverConfig::berkmin());
        s.ensure_vars(VARS);
        let mut expect: Vec<Vec<Lit>> = Vec::new();
        for (i, &seed) in seeds.iter().enumerate() {
            let lits = clause_from_seed(seed, 2 + (seed % 5) as usize);
            let cref = s.db.add_learnt(&lits, None);
            s.attach(cref);
            if i % 3 == 0 {
                s.db.delete(cref);
            } else {
                expect.push(lits);
            }
        }
        s.collect_garbage(&mut NoProof);
        let got: Vec<Vec<Lit>> =
            s.db.stack.iter().map(|&c| s.db.lits(c).to_vec()).collect();
        prop_assert_eq!(got, expect);
        check_invariants(&s);
    }
}
