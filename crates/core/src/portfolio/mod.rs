//! Parallel portfolio solving with learnt-clause sharing.
//!
//! A [`PortfolioEngine`] races N diversified solver configurations
//! ([`SolverConfig::portfolio_worker`]) on the same formula; the first
//! definitive answer (SAT or UNSAT) wins and the losers are cancelled
//! cooperatively through the solvers' terminate hook (polled every ~1024
//! conflicts and at restart boundaries). Optionally the workers exchange
//! short / low-LBD learnt clauses through a bounded [`share::ClausePool`]:
//! each worker's core holds a [`ShareLink`] to the pool and offers it every
//! learnt clause; the pool keeps those passing the sharing rule
//! (`len ≤ 2 || lbd ≤ cap`) while some worker other than the source is
//! staged (see below), and hands them to the other workers at their solve
//! entries and restart boundaries. Each core counts the clauses it
//! exported and imported; the pool counts only its evictions.
//!
//! The workers are **persistent**: they are built once, at the first solve
//! call, and every later call only hands each worker the clauses and
//! variables added since it last ran, stages the assumptions and races
//! again. The engine keeps the formula in one clause log; each worker
//! holds its own cursor into it and is **staged** — handed the log past
//! its cursor — before it runs, so a worker's original clause `k` is log
//! clause `k`. Learnt clauses, activities, saved phases and the share pool
//! all stay warm across incremental calls.
//!
//! Two execution modes, behind one race core:
//!
//! * **Threaded** (default): every call lends worker 0 to the calling
//!   thread and each other worker to a `std::thread::scope` thread of its
//!   own; real wall-clock racing. Non-deterministic — the winner depends on
//!   scheduling. Each worker stages itself on its own thread at the start
//!   of every call, and since every worker runs from the first call on,
//!   all of them join the share pool when the crew is built.
//! * **Deterministic** ([`PortfolioConfig::deterministic`]): the workers
//!   run round-robin on the calling thread in fixed conflict-budget slices
//!   ([`PortfolioConfig::slice_conflicts`]); the first definitive answer in
//!   worker order wins. Same code paths (including sharing), reproducible
//!   verdicts, winner and statistics — what the test suite and the fuzz
//!   harness drive. The workers are built empty and each is staged right
//!   before each of its slices; it joins the share pool the first time. A
//!   worker the schedule never reaches (worker 1 while worker 0 answers
//!   every call inside its first slice, as on an incremental BMC sweep)
//!   holds no formula and makes its peers publish nothing. A worker staged
//!   in a later call starts without the clauses its peers learnt before:
//!   they were never published.
//!
//! # Pre-simplification
//!
//! Until the first call the engine holds a **front**: an ordinary CDCL
//! core built from [`SolverConfig::berkmin`] with the portfolio's
//! [`PortfolioConfig::simplify`], which never searches and takes the
//! freeze contract ([`PortfolioEngine::freeze`]). Added clauses only go to
//! the log. At the first call the front absorbs the log, runs the ordinary
//! [`crate::preprocess`] passes over it and dissolves: the log becomes the
//! front's formula — its level-0 units, then its live original clauses,
//! then the empty clause if it refuted the formula — and the engine keeps
//! only the front's elimination flags, its reconstruction stack (which
//! extends winning SAT models over eliminated variables) and its counters.
//! Subsumption, strengthening and variable elimination are thus paid once
//! instead of once per worker; the workers themselves run with
//! simplification off. A crew rebuilt after a worker panic restages every
//! worker from log position 0.
//!
//! # Proofs
//!
//! With sharing **off**, a proof sink attached via
//! [`PortfolioEngine::set_proof`] before the first solve receives the
//! front's additions and deletions as it simplifies, followed, call by call,
//! by each call's winner's DRAT operations. Every worker logs privately
//! into a buffer that accumulates across calls; a call's winner publishes
//! what it has not published yet, and a loser's operations wait until that
//! worker wins. The splice checks against the original formula: each
//! worker's operations are RUP against the formula plus its own earlier
//! lemmas, all of which precede them in the sink, and a worker's deletions
//! only touch its own copies or clauses satisfied or strengthened by units
//! already in the stream. With sharing **on**, imported clauses are not
//! RUP-derivable in the importer's own proof, so attaching a proof sink is
//! a configuration error and `set_proof` panics — the engine never emits an
//! unsound proof silently.

mod share;
mod worker;

pub(crate) use share::ShareLink;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use berkmin_cnf::{Assignment, Cnf, LBool, Lit, Var};

use crate::cdcl::{reject_eliminated, Cdcl};
use crate::config::{Budget, SimplifyConfig, SolverConfig};
use crate::engine::SatEngine;
use crate::preprocess::Reconstructor;
use crate::proof::{NoProof, ProofSink};
use crate::search::{SolveStatus, StopReason};
use crate::stats::Stats;
use crate::telemetry::{SolveEvent, SolveObserver, SolveVerdict};

use share::ClausePool;
use worker::{emit_shared, CallResult, ProofOp, SharedObserver, Worker};

/// Maximum clauses the share pool retains; older entries are evicted
/// (sharing is best-effort — dropping a clause never costs soundness).
const POOL_CAPACITY: usize = 4096;

/// Configuration of a [`PortfolioEngine`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortfolioConfig {
    /// Number of worker solvers to race (≥ 1; diversified per
    /// [`SolverConfig::portfolio_worker`]).
    pub threads: usize,
    /// Learnt-clause sharing: `Some(cap)` exports clauses with
    /// `len ≤ 2 || lbd ≤ cap` to the other workers; `None` disables
    /// sharing (required for proof logging).
    pub share_lbd: Option<u32>,
    /// Run the workers round-robin on the calling thread in fixed
    /// conflict slices instead of spawning threads — reproducible verdict,
    /// winner and statistics (used by tests and the fuzz harness).
    pub deterministic: bool,
    /// Conflict-budget slice per worker per round in deterministic mode.
    pub slice_conflicts: u64,
    /// Per-worker conflict budget for each solve call.
    pub budget: Budget,
    /// Run every worker with paranoid in-search self-audits (expensive;
    /// meant for the fuzz harness and debugging).
    pub paranoid: bool,
    /// Simplification of the shared formula by the engine's front at the
    /// first call, as on a single solver (the workers themselves never
    /// simplify). Defaults to [`SimplifyConfig::default`] — subsumption
    /// on, elimination off.
    pub simplify: SimplifyConfig,
}

impl Default for PortfolioConfig {
    fn default() -> Self {
        PortfolioConfig {
            threads: 4,
            share_lbd: Some(4),
            deterministic: false,
            slice_conflicts: 512,
            budget: Budget::unlimited(),
            paranoid: false,
            simplify: SimplifyConfig::default(),
        }
    }
}

impl PortfolioConfig {
    /// A default-sharing portfolio of `threads` workers.
    pub fn new(threads: usize) -> Self {
        PortfolioConfig {
            threads: threads.max(1),
            ..PortfolioConfig::default()
        }
    }

    /// Sets the sharing policy (builder-style): `Some(cap)` shares clauses
    /// with `len ≤ 2 || lbd ≤ cap`, `None` disables sharing.
    pub fn with_share_lbd(mut self, share_lbd: Option<u32>) -> Self {
        self.share_lbd = share_lbd;
        self
    }

    /// Selects the deterministic fixed-schedule mode (builder-style).
    pub fn with_deterministic(mut self, deterministic: bool) -> Self {
        self.deterministic = deterministic;
        self
    }

    /// Sets the per-worker budget (builder-style).
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Enables paranoid worker self-audits (builder-style).
    pub fn with_paranoid(mut self, paranoid: bool) -> Self {
        self.paranoid = paranoid;
        self
    }

    /// Sets the front's simplification configuration (builder-style).
    pub fn with_simplify(mut self, simplify: SimplifyConfig) -> Self {
        self.simplify = simplify;
        self
    }
}

/// How one worker's last run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerOutcome {
    /// Found a model.
    Sat,
    /// Proved unsatisfiability (absolutely or under the assumptions).
    Unsat,
    /// Stopped without an answer: cancelled after another worker won
    /// ([`StopReason::Callback`]), ran out of budget, or — in deterministic
    /// mode — was still mid-schedule when the race ended.
    Stopped(StopReason),
}

/// Per-worker summary of the last [`PortfolioEngine::solve`] call — what
/// the CLI's `c workers` line prints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerReport {
    /// Worker index (also its slot in [`SolverConfig::portfolio_worker`]).
    pub id: usize,
    /// How the worker's run ended.
    pub outcome: WorkerOutcome,
    /// Whether this worker's answer was the one the portfolio returned.
    pub winner: bool,
    /// Conflicts the worker spent this call.
    pub conflicts: u64,
    /// Decisions the worker spent this call.
    pub decisions: u64,
    /// Clauses the worker published to the share pool this call (those
    /// the pool kept under its sharing rule).
    pub exported: u64,
    /// Foreign clauses the worker integrated from the share pool this
    /// call.
    pub imported: u64,
}

/// A parallel portfolio of diversified CDCL solvers behind the ordinary
/// [`SatEngine`] interface.
///
/// Clauses and assumptions accumulate exactly as on a single
/// [`Solver`](crate::Solver). The first [`solve`](SatEngine::solve) call
/// builds the diversified workers over the accumulated formula; every later
/// call extends the same workers with the clauses added since and races
/// them again (threaded or deterministic per [`PortfolioConfig`];
/// deterministic workers take the formula only when they first run). Each
/// worker keeps its learnt clauses, activities and phases between calls,
/// so an incremental session (BMC depth after depth, say) stays warm, as
/// it does on a single solver.
///
/// # Examples
///
/// ```
/// use berkmin::{PortfolioConfig, PortfolioEngine, SatEngine};
/// use berkmin_cnf::Lit;
///
/// let mut engine = PortfolioEngine::new(
///     PortfolioConfig::new(2).with_deterministic(true),
/// );
/// engine.add_clause(&[Lit::from_dimacs(1), Lit::from_dimacs(2)]);
/// engine.add_clause(&[Lit::from_dimacs(-1)]);
/// assert!(engine.solve().is_sat());
/// assert!(engine.reports().iter().any(|r| r.winner));
/// ```
pub struct PortfolioEngine {
    config: PortfolioConfig,
    num_vars: usize,
    /// The formula every worker stages from through its own cursor: the
    /// clauses added so far until the front dissolves, then the front's
    /// formula followed by the clauses added since (see the module docs).
    log: Cnf,
    /// `false` once an empty clause was added or the front refuted the
    /// formula.
    ok: bool,
    pending: Vec<Lit>,
    calls: u64,
    stats: Stats,
    model: Option<Assignment>,
    failed: Vec<Lit>,
    reports: Vec<WorkerReport>,
    winner: Option<usize>,
    proof: Option<Box<dyn ProofSink>>,
    observer: Option<Box<dyn SolveObserver + Send>>,
    /// The formula front, a simplifier that never searches, until the
    /// first call dissolves it (see the module docs).
    front: Option<Cdcl>,
    /// The variables the front eliminated.
    eliminated: Vec<bool>,
    /// The front's reconstruction stack.
    reconstructor: Reconstructor,
    /// The live workers (`None` before the first call, and after a worker
    /// panic).
    crew: Option<Crew>,
    /// The front's counters plus the lifetime counters of retired crews.
    settled: Stats,
    /// The live crew's lifetime counters as of its last call. After each
    /// call `stats` is `settled` plus this.
    live: Stats,
}

impl std::fmt::Debug for PortfolioEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PortfolioEngine")
            .field("config", &self.config)
            .field("num_vars", &self.num_vars)
            .field("log", &self.log.num_clauses())
            .field("eliminated", &self.settled.vars_eliminated)
            .field("winner", &self.winner)
            .field("proof", &self.proof.is_some())
            .field("observer", &self.observer.is_some())
            .finish()
    }
}

impl PortfolioEngine {
    /// Creates an empty portfolio engine.
    pub fn new(config: PortfolioConfig) -> Self {
        let front = Cdcl::new(
            SolverConfig::berkmin()
                .with_simplify(config.simplify)
                .with_paranoid(config.paranoid),
        );
        PortfolioEngine {
            config: PortfolioConfig {
                threads: config.threads.max(1),
                slice_conflicts: config.slice_conflicts.max(1),
                ..config
            },
            num_vars: 0,
            log: Cnf::new(),
            ok: true,
            pending: Vec::new(),
            calls: 0,
            stats: Stats::new(),
            model: None,
            failed: Vec::new(),
            reports: Vec::new(),
            winner: None,
            proof: None,
            observer: None,
            front: Some(front),
            eliminated: Vec::new(),
            reconstructor: Reconstructor::default(),
            crew: None,
            settled: Stats::new(),
            live: Stats::new(),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &PortfolioConfig {
        &self.config
    }

    /// Attaches a proof sink that will receive the front's additions and
    /// deletions and each call's winning worker's DRAT operations.
    ///
    /// # Panics
    ///
    /// Panics when clause sharing is enabled
    /// ([`PortfolioConfig::share_lbd`] is `Some`): imported clauses are not
    /// RUP-derivable in the importing worker's proof, so no sound DRAT log
    /// exists. Disable sharing to log proofs. Also panics after the first
    /// solve call: the front and the workers have already derived clauses
    /// the sink would miss.
    pub fn set_proof(&mut self, sink: Box<dyn ProofSink>) {
        assert!(
            self.config.share_lbd.is_none(),
            "configuration error: portfolio proof logging requires clause \
             sharing to be off (--share-lbd would make the winner's DRAT \
             stream unsound)"
        );
        assert!(
            self.calls == 0,
            "configuration error: attach the portfolio's proof sink before \
             the first solve call"
        );
        self.proof = Some(sink);
    }

    /// Per-worker reports from the last solve call (empty before the first
    /// call).
    pub fn reports(&self) -> &[WorkerReport] {
        &self.reports
    }

    /// Index of the worker whose answer the last solve call returned
    /// (`None` before the first call or when every worker stopped
    /// without an answer).
    pub fn winner(&self) -> Option<usize> {
        self.winner
    }

    /// Replaces the per-worker budget for subsequent solve calls.
    pub fn set_budget(&mut self, budget: Budget) {
        self.config.budget = budget;
    }

    /// Protects `var` from elimination by the front — the same contract
    /// as [`Solver::freeze`](crate::Solver::freeze): freeze every variable
    /// that *future* clauses or assumptions may mention before the first
    /// solve call. The assumption variables of a call that simplifies are
    /// frozen automatically (and permanently).
    pub fn freeze(&mut self, var: Var) {
        self.num_vars = self.num_vars.max(var.index() + 1);
        if let Some(front) = &mut self.front {
            front.freeze(var);
        }
    }

    /// Whether the front has eliminated `var` (see
    /// [`PortfolioEngine::freeze`] for the contract this implies).
    pub fn is_eliminated(&self, var: Var) -> bool {
        self.eliminated().get(var.index()) == Some(&true)
    }

    /// The front's elimination flags, read from the front while it lives.
    fn eliminated(&self) -> &[bool] {
        self.front
            .as_ref()
            .map_or(&self.eliminated, |front| &front.eliminated)
    }

    /// Dissolves the front at the first call: it absorbs the log and
    /// simplifies it — its DRAT stream going straight into the sink and
    /// its events to the observer — and the log becomes its formula (see
    /// the module docs). Its elimination flags, reconstruction stack and
    /// counters move to the engine.
    fn dissolve_front(&mut self, assumptions: &[Lit], shared: &Option<SharedObserver>) {
        let Some(front) = &mut self.front else {
            return;
        };
        front.ensure_vars(self.num_vars);
        for clause in &std::mem::take(&mut self.log) {
            front.add_clause(clause.iter().copied());
        }
        if front.ok && front.propagate().is_some() {
            front.ok = false;
        }
        // The simplifying (first) call freezes its assumption variables, as
        // on a single solver.
        front.assumptions = assumptions.to_vec();
        if let Some(obs) = shared {
            let obs = Arc::clone(obs);
            front.events.observer = Some(Box::new(move |e: &SolveEvent| emit_shared(&obs, e)));
        }
        let mut no_proof = NoProof;
        let sink: &mut dyn ProofSink = match &mut self.proof {
            Some(sink) => sink.as_mut(),
            None => &mut no_proof,
        };
        front.simplify_formula(sink);
        let front = self.front.take().expect("the front is live");
        let units = front.trail.iter().map(std::slice::from_ref);
        let clauses = front
            .db
            .iter_live()
            .filter(|&cref| !front.db.is_learnt(cref))
            .map(|cref| front.db.lits(cref));
        let empty: Option<&[Lit]> = (!front.ok).then_some(&[]);
        self.log = units
            .chain(clauses)
            .chain(empty)
            .map(|c| c.iter().copied())
            .collect();
        if !front.ok && self.ok {
            // Refuted at level 0. The empty clause is RUP here (unit
            // propagation over the front's formula conflicts), so it
            // completes the front's proof; the log carries it too, which
            // resolves the race trivially.
            sink.add_clause(&[]);
            self.ok = false;
        }
        self.settled.merge(&front.stats);
        self.eliminated = front.eliminated;
        self.reconstructor = front.reconstructor;
    }

    /// The race core, shared by both modes: dissolves the front at the
    /// first call, builds the workers if none are live, races them (each
    /// staged from the log as it runs), and settles the call — the winner, the per-call reports, the
    /// engine's counters, the pool's evictions, the worker events and the
    /// winner's unpublished proof. When observing, the
    /// stream is `WorkerStart` in worker order, the tagged worker events
    /// (in schedule order when deterministic), then `WorkerDone` in worker
    /// order.
    fn race(&mut self, assumptions: &[Lit], shared: &Option<SharedObserver>) -> SolveStatus {
        self.dissolve_front(assumptions, shared);
        let mut crew = match self.crew.take() {
            Some(crew) => crew,
            None => {
                self.settled.merge(&std::mem::take(&mut self.live));
                Crew::new(&self.config, self.proof.is_some())
            }
        };
        if let Some(obs) = shared {
            for id in 0..self.config.threads {
                emit_shared(obs, &SolveEvent::WorkerStart { worker: id });
            }
        }
        let mut results = crew.solve(&self.log, self.num_vars, assumptions, &self.config, shared);
        let evicted = crew.call_evictions();

        // The counters are set, not accumulated: the front and the retired
        // crews, the live pool's evictions and every live worker's
        // lifetime (each counts its own exports and imports), so no call
        // is counted twice.
        self.live = Stats {
            pool_evicted: crew.evicted,
            ..Stats::new()
        };
        self.crew = Some(crew);
        for result in &results {
            self.live.merge(&result.lifetime);
        }
        self.stats = self.settled.clone();
        self.stats.merge(&self.live);
        // `Stats::merge` leaves the formula-level counters alone; set the
        // portfolio-level view explicitly (the formula is shared, not
        // duplicated N times, and one portfolio call is one solve call).
        self.stats.initial_clauses = self.log.num_clauses() as u64;
        self.stats.solve_calls = self.calls;

        self.reports
            .extend(results.iter().map(|result| result.report.clone()));
        let winner = results.iter().position(|r| r.report.winner);
        self.winner = winner;
        if let Some(obs) = shared {
            for result in &results {
                emit_shared(
                    obs,
                    &SolveEvent::WorkerDone {
                        worker: result.report.id,
                        verdict: SolveVerdict::from(&result.status),
                    },
                );
            }
            if evicted > 0 {
                emit_shared(obs, &SolveEvent::PoolEvicted { evicted });
            }
        }

        let Some(w) = winner else {
            // Every worker stopped without answering: surface the first
            // worker's stop reason (budget exhaustion in practice).
            return results.swap_remove(0).status;
        };
        let result = results.swap_remove(w);
        if let Some(sink) = &mut self.proof {
            publish(sink.as_mut(), result.proof_ops);
        }
        match result.status {
            SolveStatus::Sat(mut model) => {
                // Extend the winner's model back over every variable the
                // front eliminated (the worker valued them arbitrarily —
                // the reconstruction overwrites with the value that
                // satisfies the dissolved clauses).
                self.reconstructor.extend_model(&mut model);
                self.model = Some(model.clone());
                SolveStatus::Sat(model)
            }
            SolveStatus::Unsat => {
                self.failed = result.failed;
                SolveStatus::Unsat
            }
            SolveStatus::Unknown(_) => unreachable!("winner is definitive"),
        }
    }
}

/// Replays buffered proof operations into `sink`.
fn publish(sink: &mut dyn ProofSink, ops: impl IntoIterator<Item = ProofOp>) {
    for op in ops {
        match &op {
            ProofOp::Add(lits) => sink.add_clause(lits),
            ProofOp::Delete(lits) => sink.delete_clause(lits),
        }
    }
}

/// The diversified configuration worker `id` runs with. Budgets are set
/// per call (or per slice), and the workers never simplify: the front
/// simplifies the shared formula for them.
fn worker_config(config: &PortfolioConfig, id: usize) -> SolverConfig {
    SolverConfig::portfolio_worker(id)
        .with_budget(Budget::unlimited())
        .with_paranoid(config.paranoid)
        .with_simplify(SimplifyConfig::off())
}

/// The live workers with their share pool: built at the first call (and
/// again after a worker panic), then raced again on every call.
struct Crew {
    workers: Vec<Worker>,
    pool: Option<Arc<ClausePool>>,
    /// The pool's eviction count at the end of the previous call.
    evicted: u64,
    /// Threaded mode's cancel flag, polled by every worker's terminate
    /// hook (`None` in deterministic mode).
    cancel: Option<Arc<AtomicBool>>,
}

impl Crew {
    /// Builds the workers empty.
    fn new(config: &PortfolioConfig, record_proof: bool) -> Crew {
        let n = config.threads;
        let pool = config
            .share_lbd
            .map(|cap| Arc::new(ClausePool::new(POOL_CAPACITY, n, cap)));
        let cancel = (!config.deterministic).then(|| Arc::new(AtomicBool::new(false)));
        if let (Some(pool), Some(_)) = (&pool, &cancel) {
            // Threaded workers all run from their first call on: they read
            // the pool from the start.
            (0..n).for_each(|id| pool.stage(id));
        }
        let workers = (0..n)
            .map(|id| {
                let config = worker_config(config, id);
                Worker::new(id, config, pool.clone(), cancel.clone(), record_proof)
            })
            .collect();
        Crew {
            workers,
            pool,
            evicted: 0,
            cancel,
        }
    }

    /// Runs one call on every worker over the engine's clause `log` of
    /// `num_vars` variables; results come back in worker order.
    fn solve(
        &mut self,
        log: &Cnf,
        num_vars: usize,
        assumptions: &[Lit],
        config: &PortfolioConfig,
        observer: &Option<SharedObserver>,
    ) -> Vec<CallResult> {
        match &self.cancel {
            None => race_slices(
                &mut self.workers,
                log,
                num_vars,
                assumptions,
                config.slice_conflicts,
                config.budget.max_conflicts,
                observer,
            ),
            Some(cancel) => race_threads(
                &mut self.workers,
                log,
                num_vars,
                assumptions,
                config.budget,
                cancel,
                observer,
            ),
        }
    }

    /// The evictions the pool made during the last call; the running
    /// total moves on to [`Crew::evicted`].
    fn call_evictions(&mut self) -> u64 {
        let total = self.pool.as_ref().map_or(0, |pool| pool.evicted());
        let call = total - self.evicted;
        self.evicted = total;
        call
    }
}

/// Deterministic mode's schedule: round-robin conflict slices on the
/// calling thread; the first definitive answer in worker order wins. Every
/// slice is preceded by staging the worker from the clause log (a worker
/// the schedule never reaches stays as it is). A worker retires once the
/// conflicts it spent in this call reach the per-worker cap.
fn race_slices(
    workers: &mut [Worker],
    log: &Cnf,
    num_vars: usize,
    assumptions: &[Lit],
    slice: u64,
    cap: u64,
    observer: &Option<SharedObserver>,
) -> Vec<CallResult> {
    for worker in workers.iter_mut() {
        worker.begin(observer.clone());
    }
    let mut last: Vec<Option<SolveStatus>> = vec![None; workers.len()];
    let mut retired = vec![false; workers.len()];
    let mut winner = None;
    'race: loop {
        let mut live = false;
        for (id, worker) in workers.iter_mut().enumerate() {
            if retired[id] {
                continue;
            }
            let allowance = slice.min(cap.saturating_sub(worker.call_conflicts()));
            if allowance == 0 {
                retired[id] = true;
                last[id] = Some(SolveStatus::Unknown(StopReason::ConflictBudget));
                continue;
            }
            live = true;
            worker.stage(num_vars, log);
            let status = worker.run(assumptions, Budget::conflicts(allowance));
            let definitive = !status.is_unknown();
            last[id] = Some(status);
            if definitive {
                winner = Some(id);
                break 'race;
            }
        }
        if !live {
            break;
        }
    }
    workers
        .iter_mut()
        .zip(last)
        .enumerate()
        .map(|(id, (worker, status))| {
            // Workers the schedule never reached before the race ended
            // report the cooperative-stop reason, like threaded losers.
            let status = status.unwrap_or(SolveStatus::Unknown(StopReason::Callback));
            worker.finish(status, winner == Some(id))
        })
        .collect()
}

/// Threaded mode's race: every worker stages itself from the clause log
/// and runs the call, worker 0 on the calling thread and each other worker
/// on a scoped thread of its own. The first definitive answer claims the
/// win by raising `cancel`, which also stops the others. A worker that
/// panics raises the flag as it unwinds, so its peers stop too, and its
/// panic is re-raised here with its original payload once every worker has
/// stopped.
fn race_threads(
    workers: &mut [Worker],
    log: &Cnf,
    num_vars: usize,
    assumptions: &[Lit],
    budget: Budget,
    cancel: &AtomicBool,
    observer: &Option<SharedObserver>,
) -> Vec<CallResult> {
    cancel.store(false, Ordering::SeqCst);
    let call = |worker: &mut Worker| {
        let _stop_peers = CancelOnUnwind(cancel);
        worker.stage(num_vars, log);
        worker.begin(observer.clone());
        let status = worker.run(assumptions, budget);
        let won = !status.is_unknown()
            && cancel
                .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok();
        worker.finish(status, won)
    };
    let call = &call;
    let (first, rest) = workers.split_first_mut().expect("a crew has a worker");
    std::thread::scope(|scope| {
        let peers: Vec<_> = rest
            .iter_mut()
            .map(|w| scope.spawn(move || call(w)))
            .collect();
        let mut results = vec![call(first)];
        for peer in peers {
            results.push(peer.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
        results
    })
}

/// Raises the cancel flag when dropped during a panic: the guard of one
/// threaded worker's call, so a panicking worker stops its peers.
struct CancelOnUnwind<'a>(&'a AtomicBool);

impl Drop for CancelOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::SeqCst);
        }
    }
}

impl SatEngine for PortfolioEngine {
    fn reserve_vars(&mut self, n: usize) {
        self.num_vars = self.num_vars.max(n);
    }

    fn add_clause(&mut self, lits: &[Lit]) -> bool {
        reject_eliminated(self.eliminated(), "add_clause", lits);
        for l in lits {
            self.num_vars = self.num_vars.max(l.var().index() + 1);
        }
        if lits.is_empty() {
            self.ok = false;
        }
        self.log.add_clause(lits.iter().copied());
        self.ok
    }

    fn assume(&mut self, lit: Lit) {
        reject_eliminated(self.eliminated(), "assume", &[lit]);
        self.num_vars = self.num_vars.max(lit.var().index() + 1);
        self.pending.push(lit);
    }

    fn solve(&mut self) -> SolveStatus {
        let assumptions = std::mem::take(&mut self.pending);
        self.calls += 1;
        self.reports.clear();
        self.winner = None;
        self.model = None;
        self.failed.clear();

        // The observer moves behind an `Arc<Mutex<..>>` for the race (the
        // workers' `Forward` adapters and the portfolio itself share it)
        // and is reclaimed afterwards for the next call.
        let shared: Option<SharedObserver> = self.observer.take().map(|b| Arc::new(Mutex::new(b)));
        if let Some(obs) = &shared {
            emit_shared(
                obs,
                &SolveEvent::SolveStart {
                    call: self.calls,
                    num_vars: self.num_vars,
                    num_clauses: self.log.num_clauses(),
                    assumptions: assumptions.len(),
                },
            );
        }
        let base = (
            self.stats.conflicts,
            self.stats.decisions,
            self.stats.propagations,
            self.stats.restarts,
        );

        let status = self.race(&assumptions, &shared);

        if let Some(obs) = &shared {
            emit_shared(
                obs,
                &SolveEvent::SolveDone {
                    verdict: SolveVerdict::from(&status),
                    conflicts: self.stats.conflicts - base.0,
                    decisions: self.stats.decisions - base.1,
                    propagations: self.stats.propagations - base.2,
                    restarts: self.stats.restarts - base.3,
                },
            );
        }
        if let Some(arc) = shared {
            // Every worker removed its `Forward` adapter before reporting,
            // so this is the last clone; reclaim the observer for the next
            // call.
            if let Ok(mutex) = Arc::try_unwrap(arc) {
                self.observer = Some(mutex.into_inner().unwrap());
            }
        }
        status
    }

    fn value(&self, var: Var) -> LBool {
        self.model
            .as_ref()
            .map(|m| m.value(var))
            .unwrap_or(LBool::Undef)
    }

    fn failed_assumptions(&self) -> &[Lit] {
        &self.failed
    }

    fn stats(&self) -> &Stats {
        &self.stats
    }

    fn set_observer(&mut self, observer: Option<Box<dyn SolveObserver + Send>>) {
        self.observer = observer;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(n: i32) -> Lit {
        Lit::from_dimacs(n)
    }

    fn deterministic(threads: usize, share: Option<u32>) -> PortfolioEngine {
        PortfolioEngine::new(
            PortfolioConfig::new(threads)
                .with_deterministic(true)
                .with_share_lbd(share),
        )
    }

    /// hole(n) clauses: n+1 pigeons, n holes (UNSAT).
    fn pigeonhole(n: usize) -> Vec<Vec<Lit>> {
        let lit = |p: usize, h: usize| Lit::from_dimacs((p * n + h + 1) as i32);
        let mut clauses = Vec::new();
        for p in 0..=n {
            clauses.push((0..n).map(|h| lit(p, h)).collect());
        }
        for h in 0..n {
            for p1 in 0..=n {
                for p2 in (p1 + 1)..=n {
                    clauses.push(vec![!lit(p1, h), !lit(p2, h)]);
                }
            }
        }
        clauses
    }

    #[test]
    fn trivial_sat_and_unsat_through_the_trait() {
        let mut engine = deterministic(2, Some(4));
        assert!(engine.add_clause(&[lit(1), lit(2)]));
        assert!(engine.add_clause(&[lit(-1)]));
        assert!(engine.solve().is_sat());
        assert_eq!(engine.value(Var::new(0)), LBool::False);
        assert_eq!(engine.value(Var::new(1)), LBool::True);
        assert!(engine.winner().is_some());

        assert!(engine.add_clause(&[lit(2)]));
        assert!(engine.add_clause(&[lit(-2)]));
        assert!(engine.solve().is_unsat());
        assert!(engine.failed_assumptions().is_empty());
    }

    #[test]
    fn empty_clause_makes_add_clause_report_false() {
        let mut engine = deterministic(2, None);
        assert!(!engine.add_clause(&[]));
        assert!(engine.solve().is_unsat());
    }

    #[test]
    fn assumptions_yield_cores_like_a_single_solver() {
        let mut engine = deterministic(2, Some(4));
        engine.add_clause(&[lit(-1), lit(2)]);
        engine.add_clause(&[lit(-2), lit(3)]);
        engine.assume(lit(1));
        engine.assume(lit(-3));
        assert!(engine.solve().is_unsat());
        let core = engine.failed_assumptions();
        assert!(!core.is_empty());
        assert!(core.iter().all(|l| [lit(1), lit(-3)].contains(l)));
        // Assumptions were consumed: a plain re-solve is SAT.
        assert!(engine.solve().is_sat());
    }

    #[test]
    fn unsat_race_has_one_winner_and_stopped_losers() {
        let mut engine = deterministic(3, Some(4));
        for c in pigeonhole(5) {
            engine.add_clause(&c);
        }
        assert!(engine.solve().is_unsat());
        let winners: Vec<_> = engine.reports().iter().filter(|r| r.winner).collect();
        assert_eq!(winners.len(), 1);
        assert_eq!(winners[0].outcome, WorkerOutcome::Unsat);
        for r in engine.reports() {
            if !r.winner {
                assert!(
                    matches!(r.outcome, WorkerOutcome::Stopped(_)),
                    "loser {} must have stopped, got {:?}",
                    r.id,
                    r.outcome
                );
            }
        }
    }

    #[test]
    fn sharing_moves_clauses_between_workers() {
        // Small slices force many solve-entry import polls; hole(6) makes
        // every worker learn plenty of short clauses. (Under the default
        // 512-conflict slice, worker 1 refutes hole(6) in its first slice,
        // before anything it could import was published.)
        let mut engine = PortfolioEngine::new(PortfolioConfig {
            slice_conflicts: 64,
            ..PortfolioConfig::new(2)
                .with_deterministic(true)
                .with_share_lbd(Some(8))
        });
        for c in pigeonhole(6) {
            engine.add_clause(&c);
        }
        assert!(engine.solve().is_unsat());
        let exported: u64 = engine.reports().iter().map(|r| r.exported).sum();
        let imported: u64 = engine.reports().iter().map(|r| r.imported).sum();
        assert!(exported > 0, "workers must export on hole(6)");
        assert!(imported > 0, "workers must import at slice boundaries");
        assert_eq!(engine.stats().clauses_imported, imported);
    }

    #[test]
    fn imported_clauses_are_formula_implied_and_preserve_the_verdict() {
        // An exporter core on link 0 refutes hole(5) and publishes its
        // shareable learnt clauses; a chaff-like importer on link 1 then
        // solves the same formula and drains them. Consumer 2 never runs:
        // its poll reads everything the exporter published, a superset of
        // what the importer took in. The import must not change the
        // verdict, and every shared clause must be a consequence of the
        // formula alone — checked by solving with its negation assumed.
        let formula = pigeonhole(5);
        let pool = Arc::new(ClausePool::new(POOL_CAPACITY, 3, 3));
        (0..3).for_each(|id| pool.stage(id));
        let linked = |config: SolverConfig, id: usize| {
            let mut core = Cdcl::new(config);
            for c in &formula {
                core.add_clause(c.iter().copied());
            }
            core.share = Some(ShareLink {
                pool: Arc::clone(&pool),
                id,
            });
            core
        };
        let mut exporter = linked(SolverConfig::berkmin(), 0);
        assert!(exporter.solve().is_unsat());
        let shared = pool.collect(2);
        assert!(!shared.is_empty(), "exporter published nothing");
        assert_eq!(exporter.stats.clauses_exported, shared.len() as u64);

        let mut importer = linked(SolverConfig::chaff_like(), 1);
        assert!(
            importer.solve().is_unsat(),
            "importing sound clauses must not change the verdict"
        );
        let imported = importer.stats.clauses_imported;
        assert!(imported > 0, "the importer drained nothing");
        assert!(imported <= shared.len() as u64);
        for clause in &shared {
            let mut checker = Cdcl::new(SolverConfig::berkmin());
            for c in &formula {
                checker.add_clause(c.iter().copied());
            }
            for &l in clause {
                checker.assume(!l);
            }
            assert!(
                checker.solve().is_unsat(),
                "shared clause {clause:?} is not implied by the formula"
            );
        }
    }

    #[test]
    fn budgeted_portfolio_reports_unknown() {
        let mut engine = PortfolioEngine::new(
            PortfolioConfig::new(2)
                .with_deterministic(true)
                .with_share_lbd(None)
                .with_budget(Budget::conflicts(3)),
        );
        for c in pigeonhole(7) {
            engine.add_clause(&c);
        }
        let status = engine.solve();
        assert!(status.is_unknown(), "3 conflicts cannot settle hole(7)");
        assert!(engine.winner().is_none());
        assert!(engine
            .reports()
            .iter()
            .all(|r| matches!(r.outcome, WorkerOutcome::Stopped(_))));
    }

    #[test]
    fn threaded_mode_agrees_on_small_instances() {
        let mut engine = PortfolioEngine::new(PortfolioConfig::new(2).with_share_lbd(Some(4)));
        for c in pigeonhole(4) {
            engine.add_clause(&c);
        }
        assert!(engine.solve().is_unsat());
        assert_eq!(engine.reports().iter().filter(|r| r.winner).count(), 1);

        let mut sat = PortfolioEngine::new(PortfolioConfig::new(2));
        sat.add_clause(&[lit(1), lit(2)]);
        sat.add_clause(&[lit(-2)]);
        let status = sat.solve();
        let model = status.model().expect("satisfiable");
        assert!(model.satisfies(lit(1)));
    }

    #[test]
    fn a_worker_thread_panic_is_reraised_on_the_caller() {
        let mut engine = PortfolioEngine::new(PortfolioConfig::new(2).with_share_lbd(None));
        for c in pigeonhole(4) {
            engine.add_clause(&c);
        }
        engine.set_observer(Some(Box::new(|e: &SolveEvent| {
            if matches!(e, SolveEvent::Worker { .. }) {
                panic!("observer refuses worker events");
            }
        })));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.solve()));
        let payload = caught.expect_err("the worker's panic must reach the caller");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"observer refuses worker events"),
            "the caller sees the worker's own panic"
        );
        // The dead crew was dropped: the next call builds a new one.
        assert!(engine.crew.is_none());
        assert!(engine.solve().is_unsat());
        assert!(engine.crew.is_some());
        assert_eq!(engine.reports().len(), 2);
    }

    #[test]
    fn a_panic_on_the_calling_thread_stops_the_other_workers() {
        // Worker 0 runs on the caller and panics at its first event; worker
        // 1 starts on hole(12), which takes it tens of seconds even in a
        // release build. The panic must raise the cancel flag, so the call
        // unwinds as soon as worker 1 polls it.
        let mut engine = PortfolioEngine::new(PortfolioConfig::new(2).with_share_lbd(None));
        for c in pigeonhole(12) {
            engine.add_clause(&c);
        }
        engine.set_observer(Some(Box::new(|e: &SolveEvent| {
            if matches!(e, SolveEvent::Worker { worker: 0, .. }) {
                panic!("worker 0 fails");
            }
        })));
        let start = std::time::Instant::now();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.solve()));
        let payload = caught.expect_err("worker 0's panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"worker 0 fails"));
        let elapsed = start.elapsed();
        assert!(
            elapsed < std::time::Duration::from_secs(10),
            "worker 1 searched on for {elapsed:?} after worker 0 panicked"
        );
        // The next call still answers: two pigeons in hole 0 conflict at
        // once.
        engine.assume(lit(1));
        engine.assume(lit(13));
        assert!(engine.solve().is_unsat());
        assert!(!engine.failed_assumptions().is_empty());
    }

    #[test]
    fn workers_stay_warm_across_calls() {
        let mut engine = deterministic(2, Some(4));
        for c in pigeonhole(5) {
            engine.add_clause(&c);
        }
        assert!(engine.solve().is_unsat());
        let first: u64 = engine.reports().iter().map(|r| r.conflicts).sum();
        assert!(first > 0);
        // The winner kept its refutation: the repeat costs no conflicts,
        // and the lifetime totals do not grow.
        assert!(engine.solve().is_unsat());
        assert_eq!(engine.reports().iter().map(|r| r.conflicts).sum::<u64>(), 0);
        assert_eq!(engine.stats().conflicts, first);
    }

    #[test]
    fn winner_proof_replays_into_the_sink() {
        use std::cell::RefCell;
        use std::rc::Rc;

        #[derive(Default)]
        struct Counting {
            adds: usize,
            empty: bool,
        }
        impl ProofSink for Counting {
            fn add_clause(&mut self, lits: &[Lit]) {
                self.adds += 1;
                if lits.is_empty() {
                    self.empty = true;
                }
            }
            fn delete_clause(&mut self, _lits: &[Lit]) {}
        }

        let sink = Rc::new(RefCell::new(Counting::default()));
        let mut engine = deterministic(2, None);
        engine.set_proof(Box::new(Rc::clone(&sink)));
        for c in pigeonhole(4) {
            engine.add_clause(&c);
        }
        assert!(engine.solve().is_unsat());
        assert!(sink.borrow().empty, "winner's refutation ends in []");
        assert!(sink.borrow().adds > 1);
    }

    #[test]
    #[should_panic(expected = "configuration error")]
    fn proof_with_sharing_is_rejected() {
        let mut engine = deterministic(2, Some(4));
        engine.set_proof(Box::new(crate::proof::NoProof));
    }

    #[test]
    #[should_panic(expected = "configuration error")]
    fn proof_after_the_first_solve_is_rejected() {
        let mut engine = deterministic(2, None);
        engine.add_clause(&[lit(1)]);
        assert!(engine.solve().is_sat());
        engine.set_proof(Box::new(crate::proof::NoProof));
    }

    /// Regression for the `Stats::merge` formula-counter bug: merging the
    /// workers' stats used to sum their per-worker copies of
    /// `initial_clauses` and `solve_calls` (N× the truth), relying on the
    /// aggregator to overwrite afterwards. The counters are now excluded
    /// from the merge and pinned to the portfolio-level view.
    #[test]
    fn portfolio_stats_keep_formula_level_counters() {
        let mut engine = deterministic(3, Some(4));
        for c in pigeonhole(4) {
            engine.add_clause(&c);
        }
        let num_clauses = engine.log.num_clauses() as u64;
        assert!(engine.solve().is_unsat());
        assert_eq!(engine.stats().initial_clauses, num_clauses);
        assert_eq!(engine.stats().solve_calls, 1);
        assert!(engine.solve().is_unsat());
        assert_eq!(engine.stats().initial_clauses, num_clauses);
        assert_eq!(engine.stats().solve_calls, 2);
    }

    /// Deterministic, share-free engine with full pre-simplification
    /// (subsumption + elimination).
    fn simplifying(threads: usize) -> PortfolioEngine {
        PortfolioEngine::new(
            PortfolioConfig::new(threads)
                .with_deterministic(true)
                .with_share_lbd(None)
                .with_simplify(SimplifyConfig::full()),
        )
    }

    #[test]
    fn pre_simplification_shrinks_the_shared_formula_once() {
        let mut engine = simplifying(2);
        engine.add_clause(&[lit(1), lit(2)]);
        engine.add_clause(&[lit(1), lit(2), lit(3)]); // subsumed
        engine.add_clause(&[lit(-1), lit(-2), lit(4)]);
        assert!(engine.solve().is_sat());
        assert_eq!(engine.stats().clauses_subsumed, 1);
        assert!(
            engine.stats().initial_clauses < 3,
            "the workers must race on the reduced formula"
        );
        // The second call reuses the reduction.
        assert!(engine.solve().is_sat());
        assert_eq!(engine.stats().clauses_subsumed, 1);
    }

    #[test]
    fn models_reconstruct_over_engine_eliminated_variables() {
        let mut engine = simplifying(2);
        engine.add_clause(&[lit(1), lit(2)]);
        engine.add_clause(&[lit(-2), lit(3)]);
        engine.add_clause(&[lit(-1), lit(4)]);
        let status = engine.solve();
        let model = status.model().expect("satisfiable");
        assert!(engine.stats().vars_eliminated >= 1);
        assert!(model.satisfies(lit(1)) || model.satisfies(lit(2)));
        assert!(model.satisfies(lit(-2)) || model.satisfies(lit(3)));
        assert!(model.satisfies(lit(-1)) || model.satisfies(lit(4)));
        // `value` answers through the reconstructed model too.
        for v in 0..4 {
            assert_ne!(engine.value(Var::new(v)), LBool::Undef);
        }
    }

    #[test]
    fn frozen_variables_survive_engine_elimination() {
        let mut engine = simplifying(2);
        engine.freeze(Var::new(1));
        assert!(engine.front.as_ref().unwrap().frozen[1]);
        engine.add_clause(&[lit(1), lit(2)]);
        engine.add_clause(&[lit(-2), lit(3)]);
        assert!(engine.solve().is_sat());
        assert!(!engine.is_eliminated(Var::new(1)));
        // The frozen variable can still be assumed afterwards.
        engine.assume(lit(-2));
        assert!(engine.solve().is_sat());
    }

    #[test]
    #[should_panic(expected = "eliminated variable")]
    fn eliminated_variables_reject_new_clauses() {
        let mut engine = simplifying(2);
        engine.add_clause(&[lit(1), lit(2)]);
        engine.add_clause(&[lit(-2), lit(3)]);
        engine.add_clause(&[lit(-1), lit(4)]);
        assert!(engine.solve().is_sat());
        let v = (0..4)
            .map(Var::new)
            .find(|&v| engine.is_eliminated(v))
            .expect("full simplification eliminates at least one variable");
        engine.add_clause(&[Lit::pos(v)]);
    }

    #[test]
    fn simplifier_proof_precedes_the_winner_refutation() {
        #[derive(Default)]
        struct Recording {
            adds: usize,
            dels: usize,
            empty: bool,
        }
        impl ProofSink for Recording {
            fn add_clause(&mut self, lits: &[Lit]) {
                self.adds += 1;
                if lits.is_empty() {
                    self.empty = true;
                }
            }
            fn delete_clause(&mut self, _lits: &[Lit]) {
                self.dels += 1;
            }
        }

        let sink = std::rc::Rc::new(std::cell::RefCell::new(Recording::default()));
        let mut engine = simplifying(2);
        engine.set_proof(Box::new(std::rc::Rc::clone(&sink)));
        // The ternary clause is subsumed (a deletion in the prefix) and the
        // remainder collapses by strengthening into a contradiction.
        engine.add_clause(&[lit(1), lit(2)]);
        engine.add_clause(&[lit(1), lit(2), lit(3)]);
        engine.add_clause(&[lit(-1), lit(2)]);
        engine.add_clause(&[lit(-2), lit(3)]);
        engine.add_clause(&[lit(-3), lit(-2)]);
        assert!(engine.solve().is_unsat());
        assert!(sink.borrow().empty, "the refutation ends in []");
        assert!(sink.borrow().dels > 0, "simplifier deletions are logged");
    }

    #[test]
    fn deterministic_runs_are_reproducible() {
        let run = || {
            let mut engine = deterministic(3, Some(4));
            for c in pigeonhole(6) {
                engine.add_clause(&c);
            }
            let status = engine.solve();
            (
                status.is_unsat(),
                engine.winner(),
                engine.stats().conflicts,
                engine.reports().to_vec(),
            )
        };
        assert_eq!(run(), run());
    }
}
