//! Decision making: BerkMin's top-clause rule, the `Less_mobility`
//! most-active-variable rule, and the VSIDS baseline (paper §5).

use berkmin_cnf::{LBool, Lit, Var};

use crate::cdcl::Cdcl;
use crate::config::{ActivityIndex, DecisionStrategy};

impl Cdcl {
    /// Picks the next decision literal, or `None` when every variable is
    /// assigned (i.e. the formula is satisfied).
    pub(crate) fn decide(&mut self) -> Option<Lit> {
        match self.config.decision {
            DecisionStrategy::BerkMin => self.decide_berkmin(1),
            DecisionStrategy::BerkMinWindow { window } => self.decide_berkmin(window.max(1)),
            DecisionStrategy::MostActiveVar => self.decide_most_active(),
            DecisionStrategy::Vsids => self.decide_vsids(),
        }
    }

    /// BerkMin's rule (§5): scan the conflict-clause stack from the top for
    /// the *current top clause* (the unsatisfied conflict clause closest to
    /// the top), then branch on its most active free variable. The scan
    /// distance feeds the skin-effect histogram (§6). Falls back to the
    /// most active free variable of the whole formula when every conflict
    /// clause is satisfied.
    ///
    /// With `window > 1` this is the Remark 2 relaxation: the candidate
    /// pool is the union of the `window` topmost unsatisfied clauses.
    fn decide_berkmin(&mut self, window: usize) -> Option<Lit> {
        let stack_len = self.db.stack.len();
        let mut found = 0usize;
        let mut best: Option<(Lit, u64)> = None;
        let mut first_distance = None;
        for (r, idx) in (0..stack_len).rev().enumerate() {
            let cref = self.db.stack[idx];
            let mut satisfied = false;
            let mut clause_best: Option<(Lit, u64)> = None;
            // One contiguous arena slice per clause — the scan over the
            // stack is a linear walk, not a pointer chase.
            for &l in self.db.lits(cref) {
                match self.lit_value(l) {
                    LBool::True => {
                        satisfied = true;
                        break;
                    }
                    LBool::Undef => {
                        let a = self.var_activity[l.var().index()];
                        if clause_best.map_or(true, |(_, ba)| a > ba) {
                            clause_best = Some((l, a));
                        }
                    }
                    LBool::False => {}
                }
            }
            if satisfied {
                continue;
            }
            let (l, a) = clause_best
                .expect("an unsatisfied, non-falsified clause has a free literal after BCP");
            if best.map_or(true, |(_, ba)| a > ba) {
                best = Some((l, a));
            }
            found += 1;
            if first_distance.is_none() {
                first_distance = Some(r);
            }
            if found >= window {
                break;
            }
        }
        if let Some((lit_in_clause, _)) = best {
            self.stats
                .record_top_distance(first_distance.expect("set with first hit"));
            return Some(self.pick_top_polarity(lit_in_clause));
        }
        // All conflict clauses satisfied: most active free variable (§5).
        self.decide_most_active()
    }

    /// The `Less_mobility` rule (§5, Table 2), also BerkMin's fallback:
    /// globally most active free variable, polarity via `nb_two` (§7).
    fn decide_most_active(&mut self) -> Option<Lit> {
        let var = match self.config.activity_index {
            ActivityIndex::NaiveScan => self.most_active_free_scan(),
            ActivityIndex::Heap => self.most_active_free_heap(),
        }?;
        self.stats.decisions_from_free_var += 1;
        Some(self.pick_free_polarity(var))
    }

    /// Naive linear scan — the implementation the paper's experiments used
    /// (Remark 1). Ties break toward the lowest variable index.
    fn most_active_free_scan(&self) -> Option<Var> {
        let mut best: Option<(Var, u64)> = None;
        for i in 0..self.num_vars {
            if self.trail.value(Var::new(i as u32)) == LBool::Undef && !self.eliminated[i] {
                let a = self.var_activity[i];
                if best.map_or(true, |(_, ba)| a > ba) {
                    best = Some((Var::new(i as u32), a));
                }
            }
        }
        best.map(|(v, _)| v)
    }

    /// Heap-indexed lookup — the BerkMin561 "strategy 3" optimization.
    fn most_active_free_heap(&mut self) -> Option<Var> {
        while let Some(v) = self.heap.pop(&self.var_activity) {
            if self.trail.value(v) == LBool::Undef && !self.eliminated[v.index()] {
                return Some(v);
            }
        }
        None
    }

    /// Chaff's VSIDS: free literal with the highest (periodically halved)
    /// counter; ties break toward the lowest literal code.
    fn decide_vsids(&mut self) -> Option<Lit> {
        let mut best: Option<(Lit, u64)> = None;
        for code in 0..2 * self.num_vars {
            let l = Lit::from_code(code as u32);
            if self.trail.value(l.var()) == LBool::Undef && !self.eliminated[l.var().index()] {
                let c = self.vsids[code];
                if best.map_or(true, |(_, bc)| c > bc) {
                    best = Some((l, c));
                }
            }
        }
        let (l, _) = best?;
        self.stats.decisions_from_free_var += 1;
        Some(l)
    }
}

#[cfg(test)]
mod tests {
    use crate::cdcl::Cdcl;
    use crate::config::{ActivityIndex, DecisionStrategy, SolverConfig, TopClausePolarity};
    use berkmin_cnf::{Lit, Var};

    fn lit(n: i32) -> Lit {
        Lit::from_dimacs(n)
    }

    /// Builds a solver with two learnt clauses on the stack, the top one
    /// satisfied, so the decision must come from the one below (r = 1).
    fn solver_with_stack() -> Cdcl {
        let mut cfg = SolverConfig::berkmin();
        cfg.top_polarity = TopClausePolarity::SatTop; // deterministic polarity
        let mut s = Cdcl::new(cfg);
        // Original clauses keep vars 1..=6 alive.
        s.add_clause([lit(1), lit(2), lit(3)]);
        s.add_clause([lit(4), lit(5), lit(6)]);
        s
    }

    #[test]
    fn berkmin_picks_from_topmost_unsatisfied_clause() {
        let mut s = solver_with_stack();
        // Fake two "learnt" clauses directly on the stack.
        s.record_learnt(&[lit(-1), lit(2)], None); // older (asserts ¬x1 at level 0)
        s.cancel_until(0);
        // The asserting literal ¬1 was enqueued; clause {-1,2} is satisfied.
        assert!(s.propagate().is_none());
        // New top clause {4,5}: record_learnt asserts lit 4 at level 0, so
        // it is satisfied too. The decision should then come from a lower
        // clause: {4,5} (top, satisfied) → skip; {-1,2} (satisfied by ¬x1)
        // → skip; falls back to the most-active free variable.
        s.record_learnt(&[lit(4), lit(5)], None);
        let d = s.decide().expect("free vars remain");
        assert!(s.lit_value(d).is_undef());
        // Both learnt clauses satisfied → fallback path was taken.
        assert_eq!(s.stats.decisions_from_top_clause, 0);
        assert_eq!(s.stats.decisions_from_free_var, 1);
    }

    #[test]
    fn skin_effect_histogram_records_distance() {
        // Solve a pigeonhole instance end-to-end: the BerkMin strategy must
        // take decisions from top clauses, and the histogram must account
        // for exactly those decisions (paper §6).
        let mut s = Cdcl::new(SolverConfig::berkmin());
        let hole = 4usize; // PHP(4): 5 pigeons, 4 holes — UNSAT
        let l = |p: usize, h: usize| lit((p * hole + h + 1) as i32);
        for p in 0..=hole {
            s.add_clause((0..hole).map(|h| l(p, h)));
        }
        for h in 0..hole {
            for p1 in 0..=hole {
                for p2 in (p1 + 1)..=hole {
                    s.add_clause([!l(p1, h), !l(p2, h)]);
                }
            }
        }
        assert!(s.solve().is_unsat());
        let st = s.stats;
        assert!(
            st.decisions_from_top_clause > 0,
            "stack decisions must occur"
        );
        let hist_sum: u64 = st.top_distance_hist.iter().sum();
        assert_eq!(hist_sum, st.decisions_from_top_clause);
        assert_eq!(
            st.decisions,
            st.decisions_from_top_clause + st.decisions_from_free_var
        );
    }

    #[test]
    fn most_active_scan_prefers_higher_activity() {
        let mut cfg = SolverConfig::berkmin();
        cfg.decision = DecisionStrategy::MostActiveVar;
        let mut s = Cdcl::new(cfg);
        s.add_clause([lit(1), lit(2), lit(3)]);
        s.bump_var(Var::new(1));
        s.bump_var(Var::new(1));
        s.bump_var(Var::new(2));
        let d = s.decide().unwrap();
        assert_eq!(d.var(), Var::new(1));
    }

    #[test]
    fn heap_and_scan_agree_on_max() {
        for idx in [ActivityIndex::NaiveScan, ActivityIndex::Heap] {
            let mut cfg = SolverConfig::berkmin();
            cfg.decision = DecisionStrategy::MostActiveVar;
            cfg.activity_index = idx;
            let mut s = Cdcl::new(cfg);
            s.add_clause([lit(1), lit(2), lit(3), lit(4)]);
            for _ in 0..3 {
                s.bump_var(Var::new(2));
            }
            s.bump_var(Var::new(0));
            assert_eq!(s.decide().unwrap().var(), Var::new(2), "index {idx:?}");
        }
    }

    #[test]
    fn vsids_picks_highest_counter_literal() {
        let mut cfg = SolverConfig::chaff_like();
        cfg.restart = crate::RestartPolicy::Never;
        let mut s = Cdcl::new(cfg);
        s.add_clause([lit(1), lit(2)]);
        s.vsids[lit(-2).code()] = 5;
        s.vsids[lit(1).code()] = 3;
        assert_eq!(s.decide().unwrap(), lit(-2));
    }

    #[test]
    fn only_the_vsids_strategy_keeps_vsids_counters() {
        for (cfg, counters) in [
            (SolverConfig::chaff_like(), 2 * 3),
            (SolverConfig::berkmin(), 0),
        ] {
            let mut s = Cdcl::new(cfg);
            s.add_clause([lit(1), lit(2)]);
            s.add_clause([lit(-1), lit(3)]);
            s.add_clause([lit(-2), lit(-3)]);
            assert!(s.solve().is_sat());
            assert_eq!(s.vsids.len(), counters);
        }
    }

    #[test]
    fn window_one_matches_plain_berkmin() {
        // Same instance, window=1 vs plain: identical search statistics.
        let run = |strategy: DecisionStrategy| {
            let mut cfg = SolverConfig::berkmin();
            cfg.decision = strategy;
            let mut s = Cdcl::new(cfg);
            let hole = 4usize;
            let l = |p: usize, h: usize| lit((p * hole + h + 1) as i32);
            for p in 0..=hole {
                s.add_clause((0..hole).map(|h| l(p, h)));
            }
            for h in 0..hole {
                for p1 in 0..=hole {
                    for p2 in (p1 + 1)..=hole {
                        s.add_clause([!l(p1, h), !l(p2, h)]);
                    }
                }
            }
            assert!(s.solve().is_unsat());
            (s.stats.decisions, s.stats.conflicts)
        };
        assert_eq!(
            run(DecisionStrategy::BerkMin),
            run(DecisionStrategy::BerkMinWindow { window: 1 })
        );
    }

    #[test]
    fn wider_windows_stay_sound() {
        for window in [2usize, 4, 16] {
            let mut cfg = SolverConfig::berkmin();
            cfg.decision = DecisionStrategy::BerkMinWindow { window };
            let mut s = Cdcl::new(cfg);
            let hole = 4usize;
            let l = |p: usize, h: usize| lit((p * hole + h + 1) as i32);
            for p in 0..=hole {
                s.add_clause((0..hole).map(|h| l(p, h)));
            }
            for h in 0..hole {
                for p1 in 0..=hole {
                    for p2 in (p1 + 1)..=hole {
                        s.add_clause([!l(p1, h), !l(p2, h)]);
                    }
                }
            }
            assert!(s.solve().is_unsat(), "window {window}");
        }
    }

    #[test]
    fn decide_none_when_all_assigned() {
        let mut s = Cdcl::new(SolverConfig::berkmin());
        s.add_clause([lit(1)]);
        assert!(s.propagate().is_none());
        assert_eq!(s.decide(), None);
    }
}
