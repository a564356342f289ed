//! Bounded model checking: time-frame expansion of sequential circuits.
//!
//! Unrolls a netlist with flip-flops into a combinational CNF over clock
//! cycles, with the power-on state asserted at cycle 0. This is the
//! encoding behind the SAT-2002 `bmc2/cnt10` instances the paper solves in
//! Table 10 (reachability of a counter state).
//!
//! Each frame encodes its gates with the Tseitin gate encoder of
//! [`crate::tseitin`]; this module adds only the flip-flop wiring: the
//! power-on unit in frame 0 and `q_t ≡ d_{t-1}` after.
//!
//! Two ways to use it:
//!
//! * **Scratch** — [`unroll`] builds a fixed-depth [`BmcEncoding`] whose
//!   CNF is handed to any solver (the classic one-shot flow).
//! * **Incremental** — [`BmcDriver`] owns *one* growing encoding and *one*
//!   warm [`Solver`]: each deeper frame is appended with
//!   [`BmcEncoding::push_frame`] and fed to the solver as new clauses,
//!   per-depth properties are asserted through fresh *activation literals*
//!   passed as assumptions (then retired with a unit clause), and the
//!   learnt clauses, variable activities and saved polarities of earlier
//!   depths keep working for later ones. On typical reachability sweeps
//!   this answers the same questions in a fraction of the conflicts of
//!   per-depth scratch re-solving.

use berkmin::{SatEngine, SolveStatus, Solver, SolverBuilder, SolverConfig, StopReason};
use berkmin_cnf::{Assignment, Cnf, Lit, Var};

use crate::netlist::{Gate, Netlist};
use crate::tseitin::encode_gate;

/// The unrolled encoding: CNF plus per-cycle variable maps. Grows one frame
/// at a time via [`BmcEncoding::push_frame`]; [`unroll`] builds a
/// fixed-depth encoding in one call.
#[derive(Debug, Clone, Default)]
pub struct BmcEncoding {
    /// Clauses of all time frames plus the initial-state units (and, when
    /// the encoding is driven by a [`BmcDriver`], the activation-literal
    /// guard clauses of past queries — all satisfied by their retirement
    /// units, so the CNF stays equisatisfiable with the plain unrolling).
    pub cnf: Cnf,
    /// `input_vars[t][i]` is the CNF variable of input `i` at cycle `t`.
    pub input_vars: Vec<Vec<Var>>,
    /// `output_vars[t][o]` is the CNF variable of output `o` at cycle `t`.
    pub output_vars: Vec<Vec<Var>>,
    /// `state_vars[t][k]` is the CNF variable of flip-flop `k`'s output at
    /// cycle `t` (t ranges over `0..steps`).
    pub state_vars: Vec<Vec<Var>>,
    /// Full node→variable map of the most recent frame, needed to wire the
    /// next frame's flip-flop inputs to this frame's data nodes.
    prev_frame: Vec<Var>,
}

impl BmcEncoding {
    /// An empty encoding (zero frames); grow it with
    /// [`BmcEncoding::push_frame`].
    pub fn new() -> Self {
        BmcEncoding::default()
    }

    /// Number of unrolled cycles.
    pub fn steps(&self) -> usize {
        self.output_vars.len()
    }

    /// Appends one time frame for `netlist` at cycle [`BmcEncoding::steps`].
    ///
    /// Cycle `t`'s flip-flop outputs equal cycle `t-1`'s data inputs; cycle
    /// 0 uses the power-on values (added as unit clauses). The caller must
    /// pass the same netlist on every call.
    pub fn push_frame(&mut self, netlist: &Netlist) {
        let first = self.steps() == 0;
        let mut frame: Vec<Var> = Vec::with_capacity(netlist.num_nodes());
        let mut frame_states = Vec::with_capacity(netlist.dffs().len());
        for &gate in netlist.gates() {
            let y = encode_gate(&mut self.cnf, gate, &frame);
            if let Gate::Dff { d, init } = gate {
                if first {
                    // Cycle 0: power-on value.
                    self.cnf.add_clause([Lit::new(y, !init)]);
                } else {
                    // q_t ≡ d_{t-1}
                    let d_prev = self.prev_frame[d.index()];
                    self.cnf.add_clause([Lit::neg(y), Lit::pos(d_prev)]);
                    self.cnf.add_clause([Lit::pos(y), Lit::neg(d_prev)]);
                }
                frame_states.push(y);
            }
            frame.push(y);
        }
        self.input_vars
            .push(netlist.inputs().iter().map(|n| frame[n.index()]).collect());
        self.output_vars
            .push(netlist.outputs().iter().map(|n| frame[n.index()]).collect());
        self.state_vars.push(frame_states);
        self.prev_frame = frame;
    }

    /// Adds a unit clause forcing output `o` at cycle `t` to `value` — the
    /// usual way of asking "is this state reachable within the bound?".
    ///
    /// # Panics
    ///
    /// Panics if `t` or `o` is out of range.
    pub fn constrain_output_at(&mut self, t: usize, o: usize, value: bool) {
        let v = self.output_vars[t][o];
        self.cnf.add_clause([Lit::new(v, !value)]);
    }
}

/// Unrolls `netlist` for `steps` cycles in one shot (the scratch flow).
///
/// # Panics
///
/// Panics if `steps == 0`.
pub fn unroll(netlist: &Netlist, steps: usize) -> BmcEncoding {
    assert!(steps > 0, "must unroll at least one step");
    let mut enc = BmcEncoding::new();
    for _ in 0..steps {
        enc.push_frame(netlist);
    }
    enc
}

/// Result of a [`BmcDriver::first_reaching_depth`] sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BmcOutcome {
    /// The output pattern is reachable; `model` witnesses the trace.
    Reached {
        /// First cycle at which the pattern holds.
        depth: usize,
        /// Satisfying assignment over the whole unrolling (read the trace
        /// through the encoding's `input_vars`/`state_vars` maps).
        model: Assignment,
    },
    /// Unreachable at every depth in `0..=max_depth`.
    Exhausted,
    /// The solver's budget ran out while checking `depth`.
    Aborted {
        /// Depth whose query was aborted.
        depth: usize,
        /// Which budget was exhausted.
        reason: StopReason,
    },
}

/// Incremental bounded-model-checking driver: one growing unrolling, one
/// warm engine, per-depth properties asserted via activation literals.
///
/// The driver is generic over any [`SatEngine`] (defaulting to the
/// concrete [`Solver`]): [`BmcDriver::new`] builds a BerkMin engine from a
/// [`SolverConfig`], while [`BmcDriver::with_engine`] accepts a
/// pre-assembled engine — including a `Box<dyn SatEngine>`, so harnesses
/// can pick the configuration at runtime behind one trait object.
///
/// Each query [`BmcDriver::check_outputs_at`] allocates a fresh activation
/// variable `act`, adds guard clauses `¬act ∨ constraint` and solves under
/// the single assumption `act` — so the property constrains the search
/// only while assumed. Afterwards the driver *retires* `act` with a unit
/// clause `¬act`, permanently satisfying the guards (the next database
/// reduction sweeps them); the learnt clauses remain valid consequences of
/// the transition relation and accelerate every later depth.
///
/// # Examples
///
/// ```
/// use berkmin::SolverConfig;
/// use berkmin_circuit::arith::counter;
/// use berkmin_circuit::bmc::{BmcDriver, BmcOutcome};
///
/// // A 3-bit counter first shows all-ones at cycle 7.
/// let mut driver = BmcDriver::new(counter(3), SolverConfig::berkmin());
/// let all_ones = [(0, true), (1, true), (2, true)];
/// match driver.first_reaching_depth(&all_ones, 10, |_, _, _| {}) {
///     BmcOutcome::Reached { depth, .. } => assert_eq!(depth, 7),
///     other => panic!("expected Reached, got {other:?}"),
/// }
/// ```
#[derive(Debug)]
pub struct BmcDriver<E: SatEngine = Solver> {
    netlist: Netlist,
    enc: BmcEncoding,
    engine: E,
    /// Number of `enc.cnf` clauses already fed to the engine.
    clauses_fed: usize,
    /// Activation literal of the last query, retired (unit `¬act`) at the
    /// start of the next one — deferred so that a SAT answer's model still
    /// satisfies the encoding's CNF as the caller sees it.
    pending_retire: Option<Lit>,
}

impl BmcDriver {
    /// Creates a driver for `netlist` with a fresh BerkMin engine under
    /// `config`. No frame is unrolled yet; queries extend the encoding on
    /// demand.
    pub fn new(netlist: Netlist, config: SolverConfig) -> Self {
        BmcDriver::with_engine(netlist, SolverBuilder::with_config(config).build())
    }
}

impl<E: SatEngine> BmcDriver<E> {
    /// Creates a driver for `netlist` around a pre-assembled engine (e.g.
    /// a `Box<dyn SatEngine>` from
    /// [`SolverBuilder::build_engine`](berkmin::SolverBuilder::build_engine)).
    pub fn with_engine(netlist: Netlist, engine: E) -> Self {
        BmcDriver {
            netlist,
            enc: BmcEncoding::new(),
            engine,
            clauses_fed: 0,
            pending_retire: None,
        }
    }

    /// The growing encoding (read the per-cycle variable maps here).
    pub fn encoding(&self) -> &BmcEncoding {
        &self.enc
    }

    /// The underlying warm engine (stats, failed cores, …).
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// The netlist being checked.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Extends the unrolling to at least `steps` cycles and feeds every new
    /// clause to the engine. Learnt clauses from earlier depths are kept:
    /// they are consequences of the (monotonically growing) formula.
    pub fn extend_to(&mut self, steps: usize) {
        while self.enc.steps() < steps {
            self.enc.push_frame(&self.netlist);
        }
        self.sync();
    }

    /// Feeds the encoding's clauses the engine has not seen yet, keeping
    /// the variable spaces aligned even for constraint-free variables
    /// (primary inputs).
    fn sync(&mut self) {
        self.engine.reserve_vars(self.enc.cnf.num_vars());
        for clause in self.enc.cnf.iter().skip(self.clauses_fed) {
            self.engine.add_clause(clause);
        }
        self.clauses_fed = self.enc.cnf.num_clauses();
    }

    /// Asks whether the outputs can match `pattern` (pairs of output index
    /// and demanded value) at cycle `t`, extending the unrolling as needed.
    ///
    /// The query is posed through a fresh activation literal and a single
    /// assumption, so an UNSAT answer leaves the formula unconstrained for
    /// later (deeper or different) queries.
    pub fn check_outputs_at(&mut self, t: usize, pattern: &[(usize, bool)]) -> SolveStatus {
        self.extend_to(t + 1);
        // Retire the previous query's activation literal: its guards become
        // permanently satisfied and the next reduction removes them from
        // the database. Deferred to here (not done right after its solve)
        // so a SAT answer's model satisfies the encoding the caller sees.
        if let Some(prev) = self.pending_retire.take() {
            self.enc.cnf.add_clause([!prev]);
        }
        let act = Lit::pos(self.enc.cnf.fresh_var());
        for &(o, value) in pattern {
            let out = Lit::new(self.enc.output_vars[t][o], !value);
            self.enc.cnf.add_clause([!act, out]);
        }
        self.sync();
        self.engine.assume(act);
        let status = self.engine.solve();
        self.pending_retire = Some(act);
        status
    }

    /// Sweeps depths `0..=max_depth` for the first cycle at which the
    /// outputs can match `pattern`, reusing the growing encoding and the
    /// warm solver across the per-depth queries. `on_depth` is invoked
    /// after each per-depth solve (depth, status, the engine's conflicts
    /// so far), as in [`scratch_first_reaching_depth`].
    pub fn first_reaching_depth(
        &mut self,
        pattern: &[(usize, bool)],
        max_depth: usize,
        mut on_depth: impl FnMut(usize, &SolveStatus, u64),
    ) -> BmcOutcome {
        for t in 0..=max_depth {
            let status = self.check_outputs_at(t, pattern);
            on_depth(t, &status, self.engine.stats().conflicts);
            match status {
                SolveStatus::Sat(model) => return BmcOutcome::Reached { depth: t, model },
                SolveStatus::Unsat => {}
                SolveStatus::Unknown(reason) => return BmcOutcome::Aborted { depth: t, reason },
            }
        }
        BmcOutcome::Exhausted
    }
}

/// The per-depth **scratch baseline** the incremental [`BmcDriver`]
/// replaces: a fresh unrolling and a fresh engine from `make` for every
/// depth, nothing reused. Returns the sweep outcome plus the total
/// conflicts spent across all depths; `on_depth` is invoked after each
/// per-depth solve (depth, status, cumulative conflicts) — pass
/// `|_, _, _| {}` when progress is not needed. Kept next to the driver so
/// the CLI, tests and benches all measure clause reuse against the same
/// baseline.
pub fn scratch_first_reaching_depth<E: SatEngine>(
    netlist: &Netlist,
    pattern: &[(usize, bool)],
    max_depth: usize,
    mut make: impl FnMut() -> E,
    mut on_depth: impl FnMut(usize, &SolveStatus, u64),
) -> (BmcOutcome, u64) {
    let mut total_conflicts = 0;
    for t in 0..=max_depth {
        let mut enc = unroll(netlist, t + 1);
        for &(o, v) in pattern {
            enc.constrain_output_at(t, o, v);
        }
        let mut engine = make();
        engine.reserve_vars(enc.cnf.num_vars());
        for clause in &enc.cnf {
            engine.add_clause(clause);
        }
        let status = engine.solve();
        total_conflicts += engine.stats().conflicts;
        on_depth(t, &status, total_conflicts);
        match status {
            SolveStatus::Sat(model) => {
                return (BmcOutcome::Reached { depth: t, model }, total_conflicts)
            }
            SolveStatus::Unsat => {}
            SolveStatus::Unknown(reason) => {
                return (BmcOutcome::Aborted { depth: t, reason }, total_conflicts)
            }
        }
    }
    (BmcOutcome::Exhausted, total_conflicts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith::{counter, enabled_counter};
    use crate::netlist::Netlist;
    use berkmin::ActivityIndex;

    /// "Counter reaches its maximum" is SAT exactly when the bound covers
    /// 2^bits − 1 increments — the cnt10 recipe at toy scale. (The unrolled
    /// CNF has too many Tseitin variables for the enumeration oracle, so
    /// the real solver answers here.)
    #[test]
    fn counter_reachability_matches_arithmetic() {
        let bits = 3;
        let n = counter(bits);
        // Output value at cycle t is t (mod 8). Ask: all bits set at cycle t?
        for (t, expect_sat) in [(7usize, true), (6, false), (8, false)] {
            let mut enc = unroll(&n, t + 1);
            for o in 0..bits {
                enc.constrain_output_at(t, o, true);
            }
            let mut solver = berkmin::Solver::new(&enc.cnf, berkmin::SolverConfig::berkmin());
            assert_eq!(solver.solve().is_sat(), expect_sat, "cycle {t}");
        }
    }

    #[test]
    fn toggle_ff_alternates_in_unrolling() {
        let mut n = Netlist::new();
        let q = n.dff(false);
        let nq = n.not(q);
        n.connect_dff(q, nq);
        n.set_output(q);
        // q is 0 at even cycles, 1 at odd cycles.
        for (t, val, expect_sat) in [
            (0usize, true, false),
            (1, true, true),
            (2, true, false),
            (3, false, false),
        ] {
            let mut enc = unroll(&n, t + 1);
            enc.constrain_output_at(t, 0, val);
            assert_eq!(
                enc.cnf.solve_by_enumeration().is_some(),
                expect_sat,
                "t={t} val={val}"
            );
        }
    }

    #[test]
    fn inputs_are_free_per_cycle() {
        // A DFF sampling an input: output at cycle t+1 equals input at t.
        let mut n = Netlist::new();
        let i = n.input();
        let q = n.dff(false);
        n.connect_dff(q, i);
        n.set_output(q);
        let mut enc = unroll(&n, 3);
        // Force output(2) = 1: requires input(1) = 1, freely choosable ⇒ SAT.
        enc.constrain_output_at(2, 0, true);
        let model = enc.cnf.solve_by_enumeration().expect("reachable");
        assert!(model.satisfies(Lit::pos(enc.input_vars[1][0])));
    }

    #[test]
    fn unrolled_size_scales_linearly() {
        let n = counter(4);
        let e1 = unroll(&n, 2);
        let e2 = unroll(&n, 4);
        assert!(e2.cnf.num_clauses() > e1.cnf.num_clauses());
        assert_eq!(e2.steps(), 4);
        assert_eq!(e2.state_vars[0].len(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one step")]
    fn zero_steps_rejected() {
        let n = counter(2);
        let _ = unroll(&n, 0);
    }

    #[test]
    fn incremental_unrolling_matches_scratch_unrolling() {
        // Frame-by-frame growth must produce exactly the scratch encoding:
        // same clause count, same variable maps.
        let n = counter(3);
        let scratch = unroll(&n, 5);
        let mut grown = BmcEncoding::new();
        for _ in 0..5 {
            grown.push_frame(&n);
        }
        assert_eq!(grown.cnf.num_clauses(), scratch.cnf.num_clauses());
        assert_eq!(grown.cnf.num_vars(), scratch.cnf.num_vars());
        assert_eq!(grown.output_vars, scratch.output_vars);
        assert_eq!(grown.state_vars, scratch.state_vars);
        assert_eq!(grown.input_vars, scratch.input_vars);
    }

    /// The shared scratch baseline, reduced to (first SAT depth, conflicts).
    fn scratch_sweep(
        netlist: &Netlist,
        pattern: &[(usize, bool)],
        max_depth: usize,
    ) -> (Option<usize>, u64) {
        let make = || Solver::with_config(berkmin::SolverConfig::berkmin());
        let (outcome, conflicts) =
            scratch_first_reaching_depth(netlist, pattern, max_depth, make, |_, _, _| {});
        match outcome {
            BmcOutcome::Reached { depth, .. } => (Some(depth), conflicts),
            BmcOutcome::Exhausted => (None, conflicts),
            BmcOutcome::Aborted { reason, .. } => panic!("aborted without budget: {reason}"),
        }
    }

    #[test]
    fn incremental_driver_matches_scratch_failure_depth() {
        // The enabled 3-bit counter reaches all-ones first at depth 7 (every
        // enable high); the incremental driver and the scratch loop agree.
        let bits = 3;
        let pattern: Vec<(usize, bool)> = (0..bits).map(|o| (o, true)).collect();
        let (scratch_depth, _) = scratch_sweep(&enabled_counter(bits), &pattern, 10);
        assert_eq!(scratch_depth, Some(7));

        let mut driver = BmcDriver::new(enabled_counter(bits), berkmin::SolverConfig::berkmin());
        match driver.first_reaching_depth(&pattern, 10, |_, _, _| {}) {
            BmcOutcome::Reached { depth, model } => {
                assert_eq!(Some(depth), scratch_depth);
                // The witness satisfies the whole unrolled formula…
                assert!(driver.encoding().cnf.is_satisfied_by(&model));
                // …shows the all-ones output pattern at that depth…
                for &(o, v) in &pattern {
                    let out = driver.encoding().output_vars[depth][o];
                    assert!(model.satisfies(Lit::new(out, !v)));
                }
                // …and its trace drives enable high on every cycle.
                for t in 0..depth {
                    let en = driver.encoding().input_vars[t][0];
                    assert!(model.satisfies(Lit::pos(en)), "enable low at cycle {t}");
                }
            }
            other => panic!("expected Reached, got {other:?}"),
        }
    }

    #[test]
    fn driver_keeps_learnt_clauses_and_heap_state_across_depths() {
        let bits = 3;
        let pattern: Vec<(usize, bool)> = (0..bits).map(|o| (o, true)).collect();
        let mut cfg = berkmin::SolverConfig::berkmin();
        cfg.activity_index = ActivityIndex::Heap;
        let mut driver = BmcDriver::new(enabled_counter(bits), cfg);

        // Probe the UNSAT depths one by one, watching the warm state.
        for t in 0..7 {
            assert!(driver.check_outputs_at(t, &pattern).is_unsat(), "depth {t}");
            assert_eq!(
                driver.engine().failed_assumptions().len(),
                1,
                "per-depth UNSAT must core on the activation literal"
            );
        }
        assert!(
            driver.engine().stats().learnt_total > 0,
            "enabled-counter BMC must force learning"
        );
        assert!(
            driver.engine().num_learnt_clauses() > 0,
            "learnt clauses wiped between depths"
        );
        // The audit checks heap membership: every free variable is queued.
        driver
            .engine()
            .audit_invariants()
            .expect("decision heap emptied between calls");
        assert_eq!(driver.engine().stats().solve_calls, 7);
        // Depth 7 is then reachable on the same warm solver.
        assert!(driver.check_outputs_at(7, &pattern).is_sat());
    }

    #[test]
    fn incremental_driver_spends_fewer_conflicts_than_scratch() {
        // The acceptance criterion behind the bench: on the counter sweep
        // the clause-reusing driver needs fewer total conflicts than
        // re-solving every depth from scratch.
        let bits = 3;
        let pattern: Vec<(usize, bool)> = (0..bits).map(|o| (o, true)).collect();
        let (scratch_depth, scratch_conflicts) =
            scratch_sweep(&enabled_counter(bits), &pattern, 10);
        assert_eq!(scratch_depth, Some(7));

        let mut driver = BmcDriver::new(enabled_counter(bits), berkmin::SolverConfig::berkmin());
        match driver.first_reaching_depth(&pattern, 10, |_, _, _| {}) {
            BmcOutcome::Reached { depth, .. } => assert_eq!(depth, 7),
            other => panic!("expected Reached, got {other:?}"),
        }
        let incremental_conflicts = driver.engine().stats().conflicts;
        assert!(
            incremental_conflicts < scratch_conflicts,
            "incremental ({incremental_conflicts} conflicts) not cheaper \
             than scratch ({scratch_conflicts})"
        );
    }

    #[test]
    fn driver_budget_abort_surfaces_as_aborted() {
        let bits = 3;
        let pattern: Vec<(usize, bool)> = (0..bits).map(|o| (o, true)).collect();
        let cfg = berkmin::SolverConfig::berkmin().with_budget(berkmin::Budget::conflicts(1));
        let mut driver = BmcDriver::new(enabled_counter(bits), cfg);
        match driver.first_reaching_depth(&pattern, 10, |_, _, _| {}) {
            BmcOutcome::Aborted { reason, .. } => {
                assert_eq!(reason, StopReason::ConflictBudget);
            }
            // Depth ≥ 1 queries need search; a 1-conflict-per-call budget
            // cannot carry the sweep to depth 7.
            BmcOutcome::Reached { .. } => panic!("1-conflict budget cannot reach depth 7"),
            BmcOutcome::Exhausted => panic!("sweep must abort before exhausting"),
        }
    }
}
