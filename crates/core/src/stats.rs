//! Search statistics, including the skin-effect histogram of paper §6.

use berkmin_cnf::Var;

/// Counters collected during a solve run.
///
/// Everything the paper's tables report is derivable from this structure:
/// decisions and runtimes (Table 8), database-size ratios (Table 9), and the
/// skin-effect distribution `f(r)` (Table 3).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stats {
    /// Number of branching decisions made.
    pub decisions: u64,
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of literals propagated by BCP.
    pub propagations: u64,
    /// Long-clause (length ≥ 3) watchers BCP examined, blocked or not.
    /// Together with [`Stats::clauses_touched`] this splits BCP cost into
    /// how many watchers were visited and how many of those reached the
    /// clause arena.
    pub watchers_visited: u64,
    /// Long-clause watchers whose blocker did not satisfy the clause, so
    /// BCP read the clause's literals from the arena.
    pub clauses_touched: u64,
    /// Number of restarts performed (paper §1: search-tree abandonments).
    pub restarts: u64,
    /// Number of clause-database reductions performed (paper §8).
    pub reductions: u64,
    /// Total conflict clauses ever deduced (including later-deleted ones).
    pub learnt_total: u64,
    /// Conflict clauses deduced as unit clauses (asserted at level 0).
    pub learnt_units: u64,
    /// Total literals across all deduced conflict clauses.
    pub learnt_lits_total: u64,
    /// Conflict clauses deleted by database management.
    pub deleted_clauses: u64,
    /// Compacting clause-arena garbage collections performed (one per §8
    /// reduction).
    pub gc_runs: u64,
    /// Total arena words reclaimed by the compacting collector.
    pub gc_words_reclaimed: u64,
    /// Maximum number of live clauses (original + learnt) ever in memory —
    /// the "Largest CNF size" column of Table 9.
    pub max_live_clauses: u64,
    /// Number of clauses in the initial formula (Table 9 denominator).
    pub initial_clauses: u64,
    /// Decisions taken from the current top conflict clause (paper §5).
    pub decisions_from_top_clause: u64,
    /// Decisions taken on the globally most active free variable, i.e. when
    /// every conflict clause was satisfied (paper §5).
    pub decisions_from_free_var: u64,
    /// Skin-effect histogram: `top_distance_hist[r]` is `f(r)`, the number
    /// of times the branching variable was chosen from the conflict clause
    /// at distance `r` from the top of the stack (paper §6, Table 3).
    pub top_distance_hist: Vec<u64>,
    /// Optional per-decision log of the chosen variable, recorded when
    /// [`crate::SolverConfig::record_decisions`] is set (used by the Fig. 1
    /// cone-switching experiment).
    pub decision_log: Vec<Var>,
    /// Number of clauses inspected as "responsible for a conflict" during
    /// conflict analysis (paper §4's sensitivity set).
    pub responsible_clauses: u64,
    /// Number of solve calls made on this solver (incremental use: the
    /// counters above accumulate across calls).
    pub solve_calls: u64,
    /// Number of solve calls answered UNSAT by final-conflict analysis of a
    /// falsified assumption (the formula itself was not refuted).
    pub assumption_conflicts: u64,
    /// Sum of the LBD (literal block distance, "glue") of every deduced
    /// conflict clause: the number of distinct decision levels among its
    /// literals at deduction time. Low-LBD clauses are the ones worth
    /// sharing between portfolio workers; `lbd_sum / learnt_total` is the
    /// average glue ([`Stats::avg_lbd`]).
    pub lbd_sum: u64,
    /// Largest LBD ever observed on a deduced conflict clause.
    pub lbd_max: u32,
    /// Learnt clauses a portfolio worker published to the share pool
    /// (those the pool kept under its sharing rule); a single solver
    /// reports 0.
    pub clauses_exported: u64,
    /// Clauses a portfolio worker integrated from the share pool at solve
    /// entry and restart boundaries (after level-0 simplification dropped
    /// the rest).
    pub clauses_imported: u64,
    /// Entries the portfolio's bounded share pool evicted past its
    /// capacity (each eviction is a shared clause some consumer may never
    /// see — best-effort sharing, never a soundness issue).
    pub pool_evicted: u64,
    /// Clauses removed by the preprocessor's backward-subsumption pass (a
    /// live clause was a superset of another).
    pub clauses_subsumed: u64,
    /// Clauses strengthened by the preprocessor's self-subsuming
    /// resolution pass (one literal dropped per count).
    pub clauses_strengthened: u64,
    /// Variables dissolved by bounded variable elimination (their models
    /// are recovered through the reconstruction stack).
    pub vars_eliminated: u64,
    /// Resolvent clauses the preprocessor added while eliminating
    /// variables (tautological and satisfied resolvents are not counted).
    pub elim_resolvents: u64,
}

impl Stats {
    /// Creates a zeroed statistics block.
    pub fn new() -> Self {
        Stats::default()
    }

    /// Records that the branching variable was taken from the conflict
    /// clause at distance `r` from the top of the stack.
    pub(crate) fn record_top_distance(&mut self, r: usize) {
        if self.top_distance_hist.len() <= r {
            self.top_distance_hist.resize(r + 1, 0);
        }
        self.top_distance_hist[r] += 1;
        self.decisions_from_top_clause += 1;
    }

    /// The skin-effect count `f(r)` (0 when `r` was never observed).
    pub fn f(&self, r: usize) -> u64 {
        self.top_distance_hist.get(r).copied().unwrap_or(0)
    }

    /// Ratio (total clauses ever in database)/(initial clauses), the
    /// "(Database size)/(Initial CNF size)" column of Table 9.
    pub fn database_growth_ratio(&self) -> f64 {
        if self.initial_clauses == 0 {
            return 0.0;
        }
        (self.initial_clauses + self.learnt_total) as f64 / self.initial_clauses as f64
    }

    /// Ratio (largest simultaneous clause count)/(initial clauses), the
    /// "(Largest CNF size)/(Initial CNF size)" column of Table 9.
    pub fn peak_memory_ratio(&self) -> f64 {
        if self.initial_clauses == 0 {
            return 0.0;
        }
        self.max_live_clauses as f64 / self.initial_clauses as f64
    }

    /// Average LBD ("glue") of deduced conflict clauses.
    pub fn avg_lbd(&self) -> f64 {
        if self.learnt_total == 0 {
            return 0.0;
        }
        self.lbd_sum as f64 / self.learnt_total as f64
    }

    /// Folds another statistics block into this one — how the portfolio
    /// engine aggregates its per-worker counters into one view.
    ///
    /// Additive counters are summed, peak counters (`max_live_clauses`,
    /// `lbd_max`) take the maximum, the skin-effect histogram is merged
    /// element-wise, and `other`'s decision log is appended.
    ///
    /// The *formula-level* counters `initial_clauses` and `solve_calls`
    /// are **not** merged: every worker sees a copy of the same formula
    /// and runs its own solve calls, so summing them would count the
    /// formula once per worker. An aggregator keeps (or sets) its own
    /// values for those two fields.
    pub fn merge(&mut self, other: &Stats) {
        self.decisions += other.decisions;
        self.conflicts += other.conflicts;
        self.propagations += other.propagations;
        self.watchers_visited += other.watchers_visited;
        self.clauses_touched += other.clauses_touched;
        self.restarts += other.restarts;
        self.reductions += other.reductions;
        self.learnt_total += other.learnt_total;
        self.learnt_units += other.learnt_units;
        self.learnt_lits_total += other.learnt_lits_total;
        self.deleted_clauses += other.deleted_clauses;
        self.gc_runs += other.gc_runs;
        self.gc_words_reclaimed += other.gc_words_reclaimed;
        self.max_live_clauses = self.max_live_clauses.max(other.max_live_clauses);
        self.decisions_from_top_clause += other.decisions_from_top_clause;
        self.decisions_from_free_var += other.decisions_from_free_var;
        if self.top_distance_hist.len() < other.top_distance_hist.len() {
            self.top_distance_hist
                .resize(other.top_distance_hist.len(), 0);
        }
        for (slot, &count) in self
            .top_distance_hist
            .iter_mut()
            .zip(&other.top_distance_hist)
        {
            *slot += count;
        }
        self.decision_log.extend_from_slice(&other.decision_log);
        self.responsible_clauses += other.responsible_clauses;
        self.assumption_conflicts += other.assumption_conflicts;
        self.lbd_sum += other.lbd_sum;
        self.lbd_max = self.lbd_max.max(other.lbd_max);
        self.clauses_exported += other.clauses_exported;
        self.clauses_imported += other.clauses_imported;
        self.pool_evicted += other.pool_evicted;
        self.clauses_subsumed += other.clauses_subsumed;
        self.clauses_strengthened += other.clauses_strengthened;
        self.vars_eliminated += other.vars_eliminated;
        self.elim_resolvents += other.elim_resolvents;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_grows_on_demand() {
        let mut s = Stats::new();
        s.record_top_distance(3);
        s.record_top_distance(0);
        s.record_top_distance(3);
        assert_eq!(s.f(0), 1);
        assert_eq!(s.f(3), 2);
        assert_eq!(s.f(1), 0);
        assert_eq!(s.f(99), 0);
        assert_eq!(s.decisions_from_top_clause, 3);
    }

    #[test]
    fn ratios_handle_empty_formula() {
        let s = Stats::new();
        assert_eq!(s.database_growth_ratio(), 0.0);
        assert_eq!(s.peak_memory_ratio(), 0.0);
    }

    #[test]
    fn merge_sums_counters_and_maxes_peaks() {
        let mut a = Stats {
            conflicts: 10,
            learnt_total: 4,
            lbd_sum: 8,
            lbd_max: 3,
            max_live_clauses: 100,
            clauses_exported: 2,
            watchers_visited: 30,
            clauses_touched: 12,
            top_distance_hist: vec![1, 2],
            ..Stats::new()
        };
        let b = Stats {
            conflicts: 5,
            learnt_total: 1,
            lbd_sum: 7,
            lbd_max: 7,
            max_live_clauses: 60,
            clauses_imported: 3,
            watchers_visited: 9,
            clauses_touched: 4,
            top_distance_hist: vec![1, 0, 4],
            ..Stats::new()
        };
        a.merge(&b);
        assert_eq!(a.conflicts, 15);
        assert_eq!(a.learnt_total, 5);
        assert_eq!(a.lbd_sum, 15);
        assert_eq!(a.lbd_max, 7);
        assert_eq!(a.max_live_clauses, 100);
        assert_eq!(a.clauses_exported, 2);
        assert_eq!(a.clauses_imported, 3);
        assert_eq!((a.watchers_visited, a.clauses_touched), (39, 16));
        assert_eq!(a.top_distance_hist, vec![2, 2, 4]);
        assert!((a.avg_lbd() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn merge_leaves_formula_level_counters_alone() {
        // Two workers on the same 100-clause formula, one solve call each:
        // the aggregate must NOT double-count the formula or the calls.
        let mut a = Stats {
            initial_clauses: 100,
            solve_calls: 1,
            conflicts: 10,
            ..Stats::new()
        };
        let b = Stats {
            initial_clauses: 100,
            solve_calls: 1,
            conflicts: 20,
            ..Stats::new()
        };
        a.merge(&b);
        assert_eq!(a.initial_clauses, 100);
        assert_eq!(a.solve_calls, 1);
        assert_eq!(a.conflicts, 30);
    }

    #[test]
    fn growth_ratio_matches_table9_definition() {
        let s = Stats {
            initial_clauses: 100,
            learnt_total: 140,
            max_live_clauses: 104,
            ..Stats::new()
        };
        assert!((s.database_growth_ratio() - 2.4).abs() < 1e-9);
        assert!((s.peak_memory_ratio() - 1.04).abs() < 1e-9);
    }
}
