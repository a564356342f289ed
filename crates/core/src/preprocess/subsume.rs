//! Backward subsumption and self-subsuming resolution.
//!
//! The pass is queue-driven: every indexed clause starts queued, and any
//! clause the simplifier rewrites (strengthening) or creates (elimination
//! resolvents) is re-queued. For a queued clause `A`:
//!
//! * **Subsumption** — candidates are the occurrence list of `A`'s rarest
//!   literal (every superset of `A` must contain it). A candidate `B`
//!   survives the signature filter (`sig(A) & !sig(B) == 0`) and the
//!   length check only if it might really include `A`; the exact test
//!   stamps `B`'s literals and checks that every literal of `A` is
//!   stamped. `A ⊆ B` deletes `B`.
//! * **Self-subsuming resolution** — for each literal `l ∈ A`, candidates
//!   containing `¬l` are scanned with the signature of `A[l := ¬l]`; if
//!   `(A \ {l}) ∪ {¬l} ⊆ B`, resolving `A` with `B` on `l` yields
//!   `B \ {¬l}`, which subsumes `B` — so `B` is strengthened in place.
//!
//! Unit consequences enqueued by strengthening are assimilated between
//! queue pops, so the occurrence lists never go stale against the trail.

use berkmin_cnf::Lit;

use crate::cdcl::Cdcl;
use crate::proof::ProofSink;

use super::occur::signature;
use super::SimpState;

impl Cdcl {
    /// Drains the subsumption queue, interleaving unit application.
    pub(crate) fn subsumption_pass(&mut self, st: &mut SimpState, proof: &mut dyn ProofSink) {
        loop {
            self.apply_units(st, proof);
            if !self.ok {
                return;
            }
            let Some(id) = st.queue.pop() else {
                break;
            };
            if !st.idx.is_live(id) {
                continue;
            }
            self.backward_subsume(id, st, proof);
            if !self.ok {
                return;
            }
        }
    }

    /// One clause's backward scan: kill every live clause it subsumes, then
    /// strengthen every clause it self-subsumes.
    fn backward_subsume(&mut self, id: u32, st: &mut SimpState, proof: &mut dyn ProofSink) {
        let a: Vec<Lit> = self.db.lits(st.idx.cref(id)).to_vec();
        let asig = st.idx.sig(id);

        let pivot = st.idx.min_occ_lit(&a);
        for bid in st.idx.compact_occ(pivot) {
            if bid == id || !st.idx.is_live(bid) {
                continue;
            }
            if asig & !st.idx.sig(bid) != 0 {
                continue;
            }
            let bref = st.idx.cref(bid);
            if self.db.len(bref) < a.len() {
                continue;
            }
            st.idx.stamp_clause(self.db.lits(bref));
            if a.iter().all(|&l| st.idx.stamped(l)) {
                st.idx.kill(bid);
                for &l in self.db.lits(bref) {
                    st.touch(l.var());
                }
                self.db.delete(bref);
                self.stats.clauses_subsumed += 1;
                self.stats.deleted_clauses += 1;
            }
        }

        let mut alt = a.clone();
        for i in 0..a.len() {
            if !st.idx.is_live(id) {
                return; // defensive: A itself dissolved
            }
            let l = a[i];
            alt[i] = !l;
            let altsig = signature(&alt);
            for bid in st.idx.compact_occ(!l) {
                if !st.idx.is_live(bid) {
                    continue;
                }
                if altsig & !st.idx.sig(bid) != 0 {
                    continue;
                }
                let bref = st.idx.cref(bid);
                if self.db.len(bref) < a.len() {
                    continue;
                }
                st.idx.stamp_clause(self.db.lits(bref));
                if alt.iter().all(|&x| st.idx.stamped(x)) {
                    let aref = st.idx.cref(id);
                    self.strengthen_clause(st, bid, !l, Some(aref), proof);
                    self.stats.clauses_strengthened += 1;
                    if !self.ok {
                        return;
                    }
                }
            }
            alt[i] = l;
        }
    }
}

#[cfg(test)]
mod tests {
    use berkmin_cnf::Lit;

    use crate::cdcl::Cdcl;
    use crate::config::{SimplifyConfig, SolverConfig};

    fn lit(n: i32) -> Lit {
        Lit::from_dimacs(n)
    }

    fn solver() -> Cdcl {
        let mut cfg = SolverConfig::berkmin();
        cfg.simplify = SimplifyConfig::default();
        Cdcl::new(cfg)
    }

    #[test]
    fn duplicate_clauses_collapse_to_one() {
        let mut s = solver();
        s.add_clause([lit(1), lit(2), lit(3)]);
        s.add_clause([lit(3), lit(2), lit(1)]); // same clause, same form
        s.add_clause([lit(-1), lit(-2)]);
        assert!(s.solve().is_sat());
        assert_eq!(s.stats.clauses_subsumed, 1);
    }

    #[test]
    fn chained_strengthening_reaches_fixpoint() {
        // (x1 ∨ x2), (¬x1 ∨ x2 ∨ x3) → strengthen to (x2 ∨ x3);
        // (x2 ∨ x3) then subsumes (x2 ∨ x3 ∨ x4).
        let mut s = solver();
        s.add_clause([lit(1), lit(2)]);
        s.add_clause([lit(-1), lit(2), lit(3)]);
        s.add_clause([lit(2), lit(3), lit(4)]);
        s.add_clause([lit(-2), lit(5)]);
        assert!(s.solve().is_sat());
        assert_eq!(s.stats.clauses_strengthened, 1);
        assert_eq!(s.stats.clauses_subsumed, 1);
    }

    #[test]
    fn mutual_self_subsumption_derives_a_unit() {
        // (x1 ∨ x2) and (x1 ∨ ¬x2): strengthening either on x2 gives the
        // unit x1, asserted at level 0 before search starts.
        let mut s = solver();
        s.add_clause([lit(1), lit(2)]);
        s.add_clause([lit(1), lit(-2)]);
        let status = s.solve();
        assert!(status.is_sat());
        assert!(status.model().unwrap().satisfies(lit(1)));
        assert!(s.stats.clauses_strengthened >= 1);
    }

    #[test]
    fn subsumption_detects_unsat_at_level_zero() {
        // Strengthening cascades to contradictory units: x1, ¬x1.
        let mut s = solver();
        s.add_clause([lit(1), lit(2)]);
        s.add_clause([lit(1), lit(-2)]);
        s.add_clause([lit(-1), lit(3)]);
        s.add_clause([lit(-1), lit(-3)]);
        assert!(s.solve().is_unsat());
    }
}
