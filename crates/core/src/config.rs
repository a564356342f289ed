//! Solver configuration: every heuristic the paper ablates is a switch
//! here. A value with only one setting in use — §8's keep rule (43 / 7 /
//! 9 / 60, +1 per reduction), §7's `nb_two` cut-off of 100, the
//! simplifier's SatELite caps, the progress-tick period — is instead a
//! named constant beside the code that reads it.
//!
//! Each ablation arm of the paper's Tables 1, 2, 4 and 5 is a preset
//! constructor on [`SolverConfig`]:
//!
//! | Paper arm | Preset |
//! |-----------|--------|
//! | BerkMin (all features on) | [`SolverConfig::berkmin`] |
//! | `Less_sensitivity` (Table 1) | [`SolverConfig::less_sensitivity`] |
//! | `Less_mobility` (Table 2) | [`SolverConfig::less_mobility`] |
//! | `Sat_top`/`Unsat_top`/`Take_0`/`Take_1`/`Take_rand` (Table 4) | [`SolverConfig::with_top_polarity`] |
//! | `limited_keeping` (Table 5) | [`SolverConfig::limited_keeping`] |
//! | zChaff baseline (Tables 6–10) | [`SolverConfig::chaff_like`] |
//! | limmat stand-in (Table 10) | [`SolverConfig::limmat_like`] |

/// How variable activities are updated at each conflict (paper §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Sensitivity {
    /// BerkMin's rule: bump `var_activity(v)` once per occurrence of a
    /// literal of `v` in **every clause responsible for the conflict**
    /// (the conflicting clause plus each reason clause resolved during
    /// reverse BCP).
    #[default]
    Berkmin,
    /// Chaff-like rule (`Less_sensitivity` arm of Table 1): bump only the
    /// variables whose literals appear in the deduced conflict clause.
    ConflictClauseOnly,
}

/// How the next branching variable is selected (paper §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DecisionStrategy {
    /// BerkMin's rule: branch on the most active free variable of the
    /// *current top clause* — the unsatisfied conflict clause closest to the
    /// top of the chronologically ordered clause stack. Falls back to the
    /// globally most active free variable when every conflict clause is
    /// satisfied.
    #[default]
    BerkMin,
    /// The relaxation the paper's Remark 2 proposes as future work: examine
    /// the `window` topmost *unsatisfied* conflict clauses (not just the
    /// first) and branch on the most active free variable among all of
    /// them. `window = 1` coincides with [`DecisionStrategy::BerkMin`].
    BerkMinWindow {
        /// How many unsatisfied top clauses to pool variables from.
        window: usize,
    },
    /// `Less_mobility` arm of Table 2: always pick the globally most active
    /// free variable (activities still computed per [`Sensitivity`]).
    MostActiveVar,
    /// Chaff's VSIDS: per-literal counters bumped by learnt clauses and
    /// periodically halved; pick the free literal with the highest counter.
    Vsids,
}

/// How the globally most-active variable is located (paper Remark 1:
/// the experiments used a naive scan; BerkMin561's "strategy 3" optimized it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ActivityIndex {
    /// Linear scan over all variables — what the paper's experiments used.
    #[default]
    NaiveScan,
    /// Indexed max-heap with lazy deletion — the BerkMin561-style optimized
    /// implementation.
    Heap,
}

/// Branch-polarity heuristic applied when the decision variable comes from
/// the current top clause (paper §7, Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TopClausePolarity {
    /// BerkMin's database-symmetrization rule: explore first the branch
    /// that can only generate conflict clauses containing the literal with
    /// the currently *smaller* `lit_activity` (§7's worked example: with
    /// `lit_activity(c)=3 < lit_activity(¬c)=5`, branch `c=0` first).
    /// Ties are broken uniformly at random.
    #[default]
    Symmetrize,
    /// Always pick the value satisfying the current top clause.
    SatTop,
    /// Always pick the value falsifying the chosen literal of the top clause
    /// (the clause then gets satisfied by BCP at the latest).
    UnsatTop,
    /// Always assign 0.
    Take0,
    /// Always assign 1.
    Take1,
    /// Assign a uniformly random value.
    TakeRand,
}

/// Branch-polarity heuristic for decisions on the globally most active free
/// variable, i.e. when all conflict clauses are satisfied (paper §7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FreeVarPolarity {
    /// BerkMin's rule: choose the literal `l ∈ {x, ¬x}` with the greatest
    /// `nb_two(l)` estimate and assign the value setting `l` to 0,
    /// maximizing the expected BCP cascade through binary clauses.
    #[default]
    NbTwo,
    /// Always assign 0.
    Take0,
    /// Always assign 1.
    Take1,
    /// Assign a uniformly random value.
    TakeRand,
}

/// Restart policy (paper §1; BerkMin's published strategy is a fixed
/// conflict interval, described as "primitive, close to random").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RestartPolicy {
    /// Restart every `n` conflicts. BerkMin56 used 550.
    FixedInterval(u64),
    /// Luby sequence scaled by `base` conflicts — the modern strategy,
    /// offered as the future-work extension §10 calls for.
    Luby(u64),
    /// Never restart (turns off clause-database reduction as well, since
    /// reduction runs between search trees).
    Never,
}

impl Default for RestartPolicy {
    fn default() -> Self {
        RestartPolicy::FixedInterval(550)
    }
}

/// Clause-database management policy, applied between search trees
/// (paper §8, Table 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DbPolicy {
    /// BerkMin's policy with the paper's constants. A learnt clause at
    /// distance `< 15/16·stack` from the top is *young* and kept iff
    /// `len < 43 ∨ activity > 7`; otherwise it is *old* and kept iff
    /// `len < 9 ∨ activity > threshold`, where the old-clause threshold
    /// starts at 60 and grows by 1 per reduction. The topmost stack clause
    /// is never removed (anti-looping guard).
    #[default]
    BerkMin,
    /// GRASP-style `limited_keeping` (Table 5): remove every learnt clause
    /// longer than `max_len` (paper used 42), regardless of age/activity.
    LengthBounded {
        /// Maximum kept clause length.
        max_len: u32,
    },
    /// Keep every learnt clause (memory permitting).
    KeepAll,
}

/// Configuration of the SatELite-style preprocessor (the
/// `crate::preprocess` module): subsumption, self-subsuming resolution and
/// bounded variable elimination, run once, at the first solve call, over
/// the occurrence lists before the search starts.
///
/// Three presets cover the useful points of the space:
///
/// * [`SimplifyConfig::default`] — subsumption and strengthening on,
///   variable elimination **off**. This is the conservative default: it
///   never removes a variable, so incremental sessions can keep adding
///   clauses over any variable without ceremony.
/// * [`SimplifyConfig::full`] — everything on, including bounded variable
///   elimination. Eliminated variables **may not** be mentioned by later
///   [`add_clause`](crate::Solver::add_clause)/[`assume`](crate::Solver::assume)
///   calls (the solver panics); incremental users must
///   [`freeze`](crate::Solver::freeze) variables they intend to reuse
///   before the first solve call.
/// * [`SimplifyConfig::off`] — the preprocessor never runs; the search
///   sees the raw formula exactly as before this subsystem existed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SimplifyConfig {
    /// Backward subsumption + self-subsuming resolution (clause
    /// strengthening) over the occurrence lists.
    pub subsumption: bool,
    /// Bounded variable elimination. Off in the default preset: BVE
    /// removes variables, which constrains later incremental reuse (see
    /// the freeze contract on [`crate::Solver::freeze`]).
    pub var_elim: bool,
}

impl SimplifyConfig {
    /// Everything on: subsumption, strengthening and bounded variable
    /// elimination.
    pub const fn full() -> Self {
        SimplifyConfig {
            subsumption: true,
            var_elim: true,
        }
    }

    /// Preprocessing disabled entirely.
    pub const fn off() -> Self {
        SimplifyConfig {
            subsumption: false,
            var_elim: false,
        }
    }
}

impl Default for SimplifyConfig {
    /// Subsumption and strengthening on, variable elimination off — safe
    /// for unrestricted incremental use.
    fn default() -> Self {
        SimplifyConfig {
            subsumption: true,
            var_elim: false,
        }
    }
}

/// Resource budgets turning a run into a deterministic, machine-independent
/// experiment. A budget of `u64::MAX` means unlimited.
///
/// Budgets are accounted **per solve call**: each call to
/// [`Solver::solve`](crate::Solver::solve) (or its assumption/proof
/// variants) measures its own spend, so in incremental use a later call
/// never inherits an earlier call's consumption — re-calling after an
/// abort simply grants a fresh allowance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Budget {
    /// Abort after this many conflicts.
    pub max_conflicts: u64,
}

impl Budget {
    /// An unlimited budget.
    pub const fn unlimited() -> Self {
        Budget::conflicts(u64::MAX)
    }

    /// A budget capping the number of conflicts — the harness's
    /// deterministic analog of the paper's wall-clock timeouts.
    pub const fn conflicts(n: u64) -> Self {
        Budget { max_conflicts: n }
    }
}

impl Default for Budget {
    fn default() -> Self {
        Budget::unlimited()
    }
}

/// Full solver configuration. Construct via a preset and override fields.
///
/// # Examples
///
/// ```
/// use berkmin::{SolverConfig, RestartPolicy};
///
/// let mut cfg = SolverConfig::berkmin();
/// cfg.restart = RestartPolicy::Luby(100); // try the modern restart scheme
/// assert_ne!(cfg, SolverConfig::berkmin());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolverConfig {
    /// Variable-activity update rule (paper §4).
    pub sensitivity: Sensitivity,
    /// Branching-variable selection rule (paper §5).
    pub decision: DecisionStrategy,
    /// Implementation of "most active free variable" lookup (Remark 1).
    pub activity_index: ActivityIndex,
    /// Polarity rule for top-clause decisions (paper §7).
    pub top_polarity: TopClausePolarity,
    /// Polarity rule for most-active-variable decisions (paper §7).
    pub free_polarity: FreeVarPolarity,
    /// Restart schedule.
    pub restart: RestartPolicy,
    /// Clause-database management policy (paper §8).
    pub db_policy: DbPolicy,
    /// Apply conflict-clause minimization (self-subsumption) — a *post-paper*
    /// technique (MiniSat 2005), off by default for faithfulness; exposed for
    /// the extension ablation bench.
    pub minimize_learnt: bool,
    /// Seed for the heuristics' internal PRNG.
    pub seed: u64,
    /// Resource budget.
    pub budget: Budget,
    /// Record every decision variable in [`crate::Stats::decision_log`]
    /// (used by the Fig. 1 experiment; costs memory on long runs).
    pub record_decisions: bool,
    /// Run [`Solver::audit_invariants`](crate::Solver::audit_invariants)
    /// at every quiescent point of the search (after propagation, conflict
    /// handling and restarts), panicking on the first violation. Expensive —
    /// meant for fuzzing, debugging and the `--paranoid` CLI flag, not for
    /// production runs.
    pub paranoid: bool,
    /// Preprocessor configuration (subsumption, self-subsuming resolution,
    /// bounded variable elimination) applied at the first solve call.
    pub simplify: SimplifyConfig,
}

impl SolverConfig {
    /// The full BerkMin56 configuration — every feature of the paper on.
    pub fn berkmin() -> Self {
        SolverConfig {
            sensitivity: Sensitivity::Berkmin,
            decision: DecisionStrategy::BerkMin,
            activity_index: ActivityIndex::NaiveScan,
            top_polarity: TopClausePolarity::Symmetrize,
            free_polarity: FreeVarPolarity::NbTwo,
            restart: RestartPolicy::default(),
            db_policy: DbPolicy::BerkMin,
            minimize_learnt: false,
            seed: 0x5EED_B16B_00B5,
            budget: Budget::unlimited(),
            record_decisions: false,
            paranoid: false,
            simplify: SimplifyConfig::default(),
        }
    }

    /// Table 1 ablation arm: Chaff-like variable activities (bump only the
    /// variables of the deduced conflict clause), everything else BerkMin.
    pub fn less_sensitivity() -> Self {
        SolverConfig {
            sensitivity: Sensitivity::ConflictClauseOnly,
            ..SolverConfig::berkmin()
        }
    }

    /// Table 2 ablation arm: Chaff-like decision mobility (always the most
    /// active free variable, computed with BerkMin sensitivity).
    pub fn less_mobility() -> Self {
        SolverConfig {
            decision: DecisionStrategy::MostActiveVar,
            ..SolverConfig::berkmin()
        }
    }

    /// Table 4 ablation arms: BerkMin with a different polarity heuristic
    /// for decisions made on the current top clause.
    pub fn with_top_polarity(polarity: TopClausePolarity) -> Self {
        SolverConfig {
            top_polarity: polarity,
            ..SolverConfig::berkmin()
        }
    }

    /// Table 5 ablation arm: GRASP-style database management (remove learnt
    /// clauses longer than 42).
    pub fn limited_keeping() -> Self {
        SolverConfig {
            db_policy: DbPolicy::LengthBounded { max_len: 42 },
            ..SolverConfig::berkmin()
        }
    }

    /// The zChaff baseline of Tables 6–10: VSIDS decisions with periodic
    /// halving, GRASP-like database management (the paper notes Chaff's
    /// management "is similar to GRASP's", §8).
    pub fn chaff_like() -> Self {
        SolverConfig {
            sensitivity: Sensitivity::ConflictClauseOnly,
            decision: DecisionStrategy::Vsids,
            top_polarity: TopClausePolarity::Take0,
            free_polarity: FreeVarPolarity::Take0,
            restart: RestartPolicy::FixedInterval(700),
            db_policy: DbPolicy::LengthBounded { max_len: 42 },
            ..SolverConfig::berkmin()
        }
    }

    /// A limmat-like third configuration for the Table 10 shootout: VSIDS
    /// with aggressive Luby restarts and positive default polarity. (The
    /// real limmat binary is unavailable; any differently-tuned complete
    /// CDCL solver fills its role in the robustness comparison.)
    pub fn limmat_like() -> Self {
        SolverConfig {
            sensitivity: Sensitivity::ConflictClauseOnly,
            decision: DecisionStrategy::Vsids,
            top_polarity: TopClausePolarity::Take1,
            free_polarity: FreeVarPolarity::Take1,
            restart: RestartPolicy::Luby(64),
            db_policy: DbPolicy::LengthBounded { max_len: 100 },
            ..SolverConfig::berkmin()
        }
    }

    /// The diversified configuration for portfolio worker `index` — the
    /// schedule the [`PortfolioEngine`](crate::PortfolioEngine) assigns its
    /// worker threads. The first four slots cover the qualitatively
    /// different search behaviors the repo already has presets for
    /// (BerkMin, zChaff-like VSIDS, limmat-like Luby, BerkMin with opposite
    /// default polarity); further slots recycle those with varied restart
    /// intervals. Every slot gets a distinct PRNG seed derived from `index`
    /// so even same-preset workers explore different trees.
    pub fn portfolio_worker(index: usize) -> Self {
        let seed = 0x9E37_79B9_7F4A_7C15u64
            .wrapping_mul(index as u64 + 1)
            .wrapping_add(0x5EED);
        let mut cfg = match index % 4 {
            0 => SolverConfig::berkmin(),
            1 => SolverConfig::chaff_like(),
            2 => SolverConfig::limmat_like(),
            _ => {
                let mut c = SolverConfig::with_top_polarity(TopClausePolarity::Take1);
                c.free_polarity = FreeVarPolarity::Take1;
                c.minimize_learnt = true;
                c
            }
        };
        // Later rounds re-tune the restart cadence so repeats of a preset
        // still cut the search into differently sized trees.
        let round = (index / 4) as u64;
        if round > 0 {
            cfg.restart = match cfg.restart {
                RestartPolicy::FixedInterval(n) => {
                    RestartPolicy::FixedInterval((n / (round + 1)).max(64))
                }
                RestartPolicy::Luby(b) => RestartPolicy::Luby((b * (round + 1)).min(1024)),
                RestartPolicy::Never => RestartPolicy::FixedInterval(550),
            };
        }
        cfg.with_seed(seed)
    }

    /// Sets the conflict budget, returning the modified config (builder-style).
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the PRNG seed, returning the modified config (builder-style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables (or disables) paranoid self-auditing, returning the modified
    /// config (builder-style). See [`SolverConfig::paranoid`].
    pub fn with_paranoid(mut self, paranoid: bool) -> Self {
        self.paranoid = paranoid;
        self
    }

    /// Sets the preprocessor configuration, returning the modified config
    /// (builder-style). See [`SimplifyConfig`].
    pub fn with_simplify(mut self, simplify: SimplifyConfig) -> Self {
        self.simplify = simplify;
        self
    }
}

impl Default for SolverConfig {
    /// The default configuration is the paper's full BerkMin.
    fn default() -> Self {
        SolverConfig::berkmin()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_only_in_documented_axes() {
        let base = SolverConfig::berkmin();
        let ls = SolverConfig::less_sensitivity();
        assert_eq!(ls.sensitivity, Sensitivity::ConflictClauseOnly);
        assert_eq!(ls.decision, base.decision);

        let lm = SolverConfig::less_mobility();
        assert_eq!(lm.decision, DecisionStrategy::MostActiveVar);
        assert_eq!(lm.sensitivity, base.sensitivity);

        let lk = SolverConfig::limited_keeping();
        assert_eq!(lk.db_policy, DbPolicy::LengthBounded { max_len: 42 });
    }

    #[test]
    fn default_is_berkmin() {
        assert_eq!(SolverConfig::default(), SolverConfig::berkmin());
    }

    #[test]
    fn budget_constructors() {
        assert_eq!(Budget::conflicts(100).max_conflicts, 100);
        assert_eq!(Budget::unlimited().max_conflicts, u64::MAX);
        assert_eq!(Budget::default(), Budget::unlimited());
    }

    #[test]
    fn portfolio_workers_are_diversified() {
        let cfgs: Vec<SolverConfig> = (0..8).map(SolverConfig::portfolio_worker).collect();
        // Distinct seeds everywhere.
        let mut seeds: Vec<u64> = cfgs.iter().map(|c| c.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 8);
        // Worker 0 is plain BerkMin modulo the seed.
        assert_eq!(
            cfgs[0].clone().with_seed(SolverConfig::berkmin().seed),
            SolverConfig::berkmin()
        );
        // Round 2 repeats a preset family but with a different restart cadence.
        assert_ne!(cfgs[4].restart, cfgs[0].restart);
        assert_eq!(cfgs[4].decision, cfgs[0].decision);
    }

    #[test]
    fn builder_style_overrides() {
        let cfg = SolverConfig::berkmin()
            .with_seed(7)
            .with_budget(Budget::conflicts(5));
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.budget.max_conflicts, 5);
    }
}
