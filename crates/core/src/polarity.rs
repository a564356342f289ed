//! Branch-polarity selection (paper §7): database symmetrization via
//! `lit_activity` for top-clause decisions, `nb_two` for free-variable
//! decisions, plus the five comparison heuristics of Table 4.

use berkmin_cnf::{LBool, Lit, Var};

use crate::cdcl::Cdcl;
use crate::config::{FreeVarPolarity, TopClausePolarity};

/// `nb_two` evaluation stops once its sum exceeds this (paper §7: 100).
const NB_TWO_THRESHOLD: u32 = 100;

impl Cdcl {
    /// Chooses the branch for a decision taken on the current top clause.
    ///
    /// `lit_in_clause` is the chosen variable's literal as it occurs in the
    /// top clause (needed by the `Sat_top`/`Unsat_top` arms). Returns the
    /// decision literal (the literal to be made true).
    pub(crate) fn pick_top_polarity(&mut self, lit_in_clause: Lit) -> Lit {
        let var = lit_in_clause.var();
        match self.config.top_polarity {
            TopClausePolarity::Symmetrize => self.symmetrize(var),
            TopClausePolarity::SatTop => lit_in_clause,
            TopClausePolarity::UnsatTop => !lit_in_clause,
            TopClausePolarity::Take0 => Lit::neg(var),
            TopClausePolarity::Take1 => Lit::pos(var),
            TopClausePolarity::TakeRand => Lit::new(var, self.rng.next_bool()),
        }
    }

    /// BerkMin's symmetrization rule (§7). Exploring branch `x = 0` can only
    /// produce conflict clauses containing the *positive* literal of `x`, so
    /// when `lit_activity(x) < lit_activity(¬x)` we take `x = 0` first to
    /// close the census gap the restarts introduced (and vice versa). Ties
    /// break uniformly at random.
    fn symmetrize(&mut self, var: Var) -> Lit {
        let pos = self.lit_activity[Lit::pos(var).code()];
        let neg = self.lit_activity[Lit::neg(var).code()];
        if pos < neg {
            Lit::neg(var) // branch x = 0 → future clauses contain x
        } else if neg < pos {
            Lit::pos(var) // branch x = 1 → future clauses contain ¬x
        } else {
            Lit::new(var, self.rng.next_bool())
        }
    }

    /// Chooses the branch for a decision on the globally most active free
    /// variable (all conflict clauses satisfied, §7).
    pub(crate) fn pick_free_polarity(&mut self, var: Var) -> Lit {
        match self.config.free_polarity {
            FreeVarPolarity::NbTwo => {
                let np = self.nb_two(Lit::pos(var));
                let nn = self.nb_two(Lit::neg(var));
                let chosen = if np > nn {
                    Lit::pos(var)
                } else if nn > np {
                    Lit::neg(var)
                } else {
                    Lit::new(var, self.rng.next_bool())
                };
                // "x is assigned the value setting the chosen literal l to 0"
                // — maximizing the BCP cascade through binary clauses.
                !chosen
            }
            FreeVarPolarity::Take0 => Lit::neg(var),
            FreeVarPolarity::Take1 => Lit::pos(var),
            FreeVarPolarity::TakeRand => Lit::new(var, self.rng.next_bool()),
        }
    }

    /// The `nb_two(l)` cost function (§7): the number of live binary clauses
    /// containing `l`, plus for each such clause `l ∨ v` the number of
    /// binary clauses containing `¬v` — a rough estimate of the BCP power of
    /// setting `l` to 0. Evaluation stops once the sum exceeds
    /// [`NB_TWO_THRESHOLD`].
    ///
    /// Clauses whose second literal is already true are skipped (they are
    /// satisfied); the second-level counts use the static occurrence lists,
    /// matching the paper's "rough estimate" framing.
    pub(crate) fn nb_two(&self, l: Lit) -> u32 {
        let mut total = 0u32;
        // The live binary clauses containing `l` are exactly the inline
        // watch entries visited when `¬l` becomes true, and the clauses
        // containing `¬v` are the entries visited when `v` becomes true —
        // the occurrence lists the paper's `nb_two` wants fall out of the
        // binary watch scheme for free.
        for w in self.watches.binary((!l).code()) {
            let other = w.other;
            if self.lit_value(other) == LBool::True {
                continue;
            }
            total += 1 + self.watches.binary(other.code()).len() as u32;
            if total > NB_TWO_THRESHOLD {
                break;
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use crate::cdcl::Cdcl;
    use crate::config::{FreeVarPolarity, SolverConfig, TopClausePolarity};
    use berkmin_cnf::{Lit, Var};

    fn lit(n: i32) -> Lit {
        Lit::from_dimacs(n)
    }

    fn solver(top: TopClausePolarity) -> Cdcl {
        let mut cfg = SolverConfig::berkmin();
        cfg.top_polarity = top;
        let mut s = Cdcl::new(cfg);
        s.ensure_vars(4);
        s
    }

    #[test]
    fn symmetrize_prefers_lagging_literal() {
        let mut s = solver(TopClausePolarity::Symmetrize);
        let x = Var::new(0);
        // Paper §7: lit_activity(c)=3, lit_activity(¬c)=5 ⇒ branch c=0.
        s.lit_activity[Lit::pos(x).code()] = 3;
        s.lit_activity[Lit::neg(x).code()] = 5;
        assert_eq!(s.pick_top_polarity(Lit::pos(x)), Lit::neg(x));
        // Mirror case.
        s.lit_activity[Lit::pos(x).code()] = 9;
        assert_eq!(s.pick_top_polarity(Lit::pos(x)), Lit::pos(x));
    }

    #[test]
    fn symmetrize_tie_is_random_but_valid() {
        let mut s = solver(TopClausePolarity::Symmetrize);
        let x = Var::new(0);
        let d = s.pick_top_polarity(Lit::pos(x));
        assert_eq!(d.var(), x);
    }

    #[test]
    fn fixed_polarity_arms() {
        let x = Var::new(1);
        let in_clause = Lit::neg(x);
        assert_eq!(
            solver(TopClausePolarity::SatTop).pick_top_polarity(in_clause),
            Lit::neg(x)
        );
        assert_eq!(
            solver(TopClausePolarity::UnsatTop).pick_top_polarity(in_clause),
            Lit::pos(x)
        );
        assert_eq!(
            solver(TopClausePolarity::Take0).pick_top_polarity(in_clause),
            Lit::neg(x)
        );
        assert_eq!(
            solver(TopClausePolarity::Take1).pick_top_polarity(in_clause),
            Lit::pos(x)
        );
    }

    #[test]
    fn take_rand_is_deterministic_per_seed() {
        let picks = |seed: u64| {
            let mut cfg = SolverConfig::berkmin().with_seed(seed);
            cfg.top_polarity = TopClausePolarity::TakeRand;
            let mut s = Cdcl::new(cfg);
            s.ensure_vars(1);
            (0..16)
                .map(|_| s.pick_top_polarity(Lit::pos(Var::new(0))))
                .collect::<Vec<_>>()
        };
        assert_eq!(picks(11), picks(11));
        assert_ne!(picks(11), picks(12));
    }

    #[test]
    fn nb_two_counts_two_levels() {
        // Binary clauses: (a∨b), (¬b∨c), (¬b∨d)  [a=1,b=2,c=3,d=4]
        let mut s = solver(TopClausePolarity::Symmetrize);
        s.add_clause([lit(1), lit(2)]);
        s.add_clause([lit(-2), lit(3)]);
        s.add_clause([lit(-2), lit(4)]);
        // nb_two(a): one binary clause (a∨b); v=b, ¬v=¬b occurs in 2 binary
        // clauses ⇒ 1 + 2 = 3.
        assert_eq!(s.nb_two(lit(1)), 3);
        // nb_two(¬b): clauses (¬b∨c),(¬b∨d); for v=c and v=d, ¬v occurs in 0
        // ⇒ (1+0)+(1+0) = 2.
        assert_eq!(s.nb_two(lit(-2)), 2);
        // nb_two(d): no binary clause contains d positively ⇒ ... it does:
        // (¬b∨d) contains d ⇒ 1 + |bin(b)| = 1 + 1 = 2.
        assert_eq!(s.nb_two(lit(4)), 2);
    }

    #[test]
    fn nb_two_skips_satisfied_clauses() {
        let mut s = solver(TopClausePolarity::Symmetrize);
        s.add_clause([lit(1), lit(2)]);
        assert_eq!(s.nb_two(lit(1)), 1);
        s.push_decision(lit(2)); // satisfies (a∨b)
        assert_eq!(s.nb_two(lit(1)), 0);
    }

    #[test]
    fn nb_two_respects_threshold_cutoff() {
        let mut s = solver(TopClausePolarity::Symmetrize);
        // 150 binary clauses containing a, each worth 1.
        for i in 0..150 {
            s.add_clause([lit(1), lit(2 + i)]);
        }
        assert_eq!(
            s.nb_two(lit(1)),
            super::NB_TWO_THRESHOLD + 1,
            "evaluation must stop just past the threshold"
        );
    }

    #[test]
    fn free_polarity_nb_two_falsifies_stronger_literal() {
        let mut s = solver(TopClausePolarity::Symmetrize);
        // Give positive literal of x1 a big nb_two; negative none.
        s.add_clause([lit(1), lit(2)]);
        s.add_clause([lit(1), lit(3)]);
        let d = s.pick_free_polarity(Var::new(0));
        // chosen l = x1 (nb_two 2 vs 0); assign value setting l to 0 ⇒ ¬x1.
        assert_eq!(d, lit(-1));
    }

    #[test]
    fn free_polarity_fixed_arms() {
        for (pol, want) in [
            (FreeVarPolarity::Take0, lit(-1)),
            (FreeVarPolarity::Take1, lit(1)),
        ] {
            let mut cfg = SolverConfig::berkmin();
            cfg.free_polarity = pol;
            let mut s = Cdcl::new(cfg);
            s.ensure_vars(1);
            assert_eq!(s.pick_free_polarity(Var::new(0)), want);
        }
    }
}
