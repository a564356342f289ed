//! Parallel portfolio solving with learnt-clause sharing.
//!
//! A [`PortfolioEngine`] races N diversified solver configurations
//! ([`SolverConfig::portfolio_worker`]) on the same formula; the first
//! definitive answer (SAT or UNSAT) wins and the losers are cancelled
//! cooperatively through the solvers' terminate hook (polled every ~1024
//! conflicts and at restart boundaries). Optionally the workers exchange
//! short / low-LBD learnt clauses through a bounded [`share::ClausePool`]:
//! each worker's learnt-clause tap offers every clause to the pool, which
//! keeps those passing the sharing rule (`len ≤ 2 || lbd ≤ cap`) and hands
//! them to the other workers at their solve entries and restart
//! boundaries. The pool also counts what each worker published.
//!
//! The workers are **persistent**: they are built once, at the first solve
//! call (after pre-simplification), and every later call only hands each
//! worker the clauses and variables added since the previous call, stages
//! the assumptions and races again. Learnt clauses, activities, saved
//! phases and the share pool all stay warm across incremental calls.
//!
//! Two execution modes, behind one race core:
//!
//! * **Threaded** (default): one long-lived `std::thread` per worker,
//!   started at the first call and joined when the engine is dropped; real
//!   wall-clock racing. Non-deterministic — the winner depends on
//!   scheduling.
//! * **Deterministic** ([`PortfolioConfig::deterministic`]): the workers
//!   run round-robin on the calling thread in fixed conflict-budget slices
//!   ([`PortfolioConfig::slice_conflicts`]); the first definitive answer in
//!   worker order wins. Same code paths (including sharing), reproducible
//!   verdicts, winner and statistics — what the test suite and the fuzz
//!   harness drive.
//!
//! # Pre-simplification
//!
//! Per [`PortfolioConfig::simplify`], the engine simplifies the accumulated
//! formula **once, before diversifying** (through a throwaway solver
//! running the ordinary [`crate::preprocess`] passes), so subsumption,
//! strengthening and variable elimination are paid one time instead of
//! once per worker; the workers themselves run with simplification off.
//! Eliminated variables accumulate on an engine-level reconstruction
//! stack — winning SAT models are extended back over them — and the
//! freeze/melt contract matches the single solver's
//! ([`PortfolioEngine::freeze`]). Under [`SimplifyConfig::inprocess`] the
//! shared formula is rewritten on every call, so the workers are rebuilt
//! on every call too.
//!
//! # Proofs
//!
//! With sharing **off**, a proof sink attached via
//! [`PortfolioEngine::set_proof`] receives the pre-simplifier's additions
//! and deletions followed, call by call, by each call's winner's DRAT
//! operations. Every worker logs privately into a buffer that accumulates
//! across calls; a call's winner publishes what it has not published yet,
//! and a loser's operations wait until that worker wins. The splice checks
//! against the original formula: each worker's operations are RUP against
//! the formula plus its own earlier lemmas, all of which precede them in
//! the sink, and a worker's deletions only touch its own copies or clauses
//! satisfied or strengthened by units already in the stream. With sharing
//! **on**, imported clauses are not RUP-derivable in the importer's own
//! proof, so attaching a proof sink is a configuration error and
//! `set_proof` panics — the engine never emits an unsound proof silently.

mod share;
mod worker;

pub(crate) use share::ClausePool;

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

use berkmin_cnf::{Assignment, LBool, Lit, Var};

use crate::config::{Budget, SimplifyConfig, SolverConfig};
use crate::engine::SatEngine;
use crate::preprocess::Reconstructor;
use crate::proof::ProofSink;
use crate::search::{SolveStatus, StopReason};
use crate::solver::Solver;
use crate::stats::Stats;
use crate::telemetry::{SolveEvent, SolveObserver, SolveVerdict};

use share::PoolSummary;
use worker::{
    emit_shared, CallResult, ProofBuffer, ProofOp, SharedObserver, Worker, WorkerThreads,
};

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
    /// Per-worker resource budget for each solve call. In deterministic
    /// mode only the conflict component is honored (the schedule slices by
    /// conflicts).
    pub budget: Budget,
    /// Run every worker with paranoid in-search self-audits (expensive;
    /// meant for the fuzz harness and debugging).
    pub paranoid: bool,
    /// Pre-simplification of the shared formula, run once before the
    /// workers diversify (the workers themselves never simplify). Defaults
    /// to [`SimplifyConfig::default`] — subsumption on, elimination off.
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

    /// Sets the pre-simplification configuration (builder-style).
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
    /// that passed the pool's sharing rule).
    pub exported: u64,
    /// Foreign clauses the worker integrated from the share pool this
    /// call.
    pub imported: u64,
    /// Pool entries evicted this call before this worker's import polls
    /// reached them — shared clauses the worker never got to see (an upper bound:
    /// it includes the worker's own publications).
    pub missed: u64,
}

/// A parallel portfolio of diversified CDCL solvers behind the ordinary
/// [`SatEngine`] interface.
///
/// Clauses and assumptions accumulate exactly as on a single
/// [`Solver`](crate::Solver). The first [`solve`](SatEngine::solve) call
/// builds the diversified workers over the accumulated formula; every later
/// call extends the same workers with the clauses added since and races
/// them again (threaded or deterministic per [`PortfolioConfig`]). Each
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
    clauses: Vec<Vec<Lit>>,
    /// `false` once an empty clause was added (trivial unsatisfiability).
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
    /// Variables protected from elimination by the pre-simplifier.
    frozen: Vec<bool>,
    /// Variables the pre-simplifier has eliminated (see
    /// [`PortfolioEngine::freeze`] for the contract this implies).
    eliminated: Vec<bool>,
    /// Engine-level reconstruction stack accumulating the eliminations of
    /// every pre-simplification run; winning SAT models are extended
    /// through it.
    recon: Reconstructor,
    /// Whether pre-simplification already ran (without
    /// [`SimplifyConfig::inprocess`] it runs only once).
    simplified_once: bool,
    /// The pre-simplifier's buffered proof stream, drained into the
    /// attached sink ahead of the winner's ops.
    pending_simplify_ops: Vec<ProofOp>,
    /// The live workers (`None` before the first call, and after an event
    /// that forces a rebuild).
    crew: Option<Crew>,
    /// The counters of everything but the live crew: pre-simplification
    /// runs and retired crews. After each call `stats` is this plus every
    /// live worker's lifetime counters.
    settled: Stats,
}

impl std::fmt::Debug for PortfolioEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PortfolioEngine")
            .field("config", &self.config)
            .field("num_vars", &self.num_vars)
            .field("clauses", &self.clauses.len())
            .field("eliminated", &self.recon.len())
            .field("winner", &self.winner)
            .field("proof", &self.proof.is_some())
            .field("observer", &self.observer.is_some())
            .finish()
    }
}

impl PortfolioEngine {
    /// Creates an empty portfolio engine.
    pub fn new(config: PortfolioConfig) -> Self {
        PortfolioEngine {
            config: PortfolioConfig {
                threads: config.threads.max(1),
                slice_conflicts: config.slice_conflicts.max(1),
                ..config
            },
            num_vars: 0,
            clauses: Vec::new(),
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
            frozen: Vec::new(),
            eliminated: Vec::new(),
            recon: Reconstructor::default(),
            simplified_once: false,
            pending_simplify_ops: Vec::new(),
            crew: None,
            settled: Stats::new(),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &PortfolioConfig {
        &self.config
    }

    /// Attaches a proof sink that will receive each call's winning worker's
    /// DRAT operations, prefixed by the pre-simplifier's additions and
    /// deletions (attach before the first solve so the prefix lands ahead
    /// of any worker-derived clause). Live workers were not logging, so
    /// they are rebuilt at the next call.
    ///
    /// # Panics
    ///
    /// Panics when clause sharing is enabled
    /// ([`PortfolioConfig::share_lbd`] is `Some`): imported clauses are not
    /// RUP-derivable in the importing worker's proof, so no sound DRAT log
    /// exists. Disable sharing to log proofs.
    pub fn set_proof(&mut self, sink: Box<dyn ProofSink>) {
        assert!(
            self.config.share_lbd.is_none(),
            "configuration error: portfolio proof logging requires clause \
             sharing to be off (--share-lbd would make the winner's DRAT \
             stream unsound)"
        );
        self.proof = Some(sink);
        self.crew = None;
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

    /// Protects `var` from elimination by the pre-simplifier — the same
    /// contract as [`Solver::freeze`](crate::Solver::freeze): freeze every
    /// variable that *future* clauses or assumptions may mention before the
    /// first solve call. The current call's assumption variables are frozen
    /// automatically (and permanently).
    pub fn freeze(&mut self, var: Var) {
        self.num_vars = self.num_vars.max(var.index() + 1);
        if self.frozen.len() < self.num_vars {
            self.frozen.resize(self.num_vars, false);
        }
        self.frozen[var.index()] = true;
    }

    /// Lifts a [`PortfolioEngine::freeze`]: the next pre-simplification run
    /// (under [`SimplifyConfig::inprocess`]) may eliminate `var` again.
    pub fn melt(&mut self, var: Var) {
        if let Some(f) = self.frozen.get_mut(var.index()) {
            *f = false;
        }
    }

    /// Whether `var` is currently protected from elimination.
    pub fn is_frozen(&self, var: Var) -> bool {
        self.frozen.get(var.index()).copied().unwrap_or(false)
    }

    /// Whether the pre-simplifier has eliminated `var` (see
    /// [`PortfolioEngine::freeze`] for the contract this implies).
    pub fn is_eliminated(&self, var: Var) -> bool {
        self.eliminated.get(var.index()).copied().unwrap_or(false)
    }

    /// Simplifies the accumulated formula through a throwaway solver before
    /// the workers diversify — the reduction is paid once instead of N
    /// times. Runs at the first solve call only, unless
    /// [`SimplifyConfig::inprocess`] asks for every call.
    ///
    /// The simplifier's proof stream is buffered into
    /// `pending_simplify_ops` (drained into the attached sink by
    /// [`SatEngine::solve`] ahead of the winner's ops); its eliminations are
    /// folded into the engine's `eliminated` flags and reconstruction
    /// stack, and its `Simplify` telemetry is re-emitted through `shared`.
    /// The rewritten formula retires the live workers, so the race rebuilds
    /// them.
    fn pre_simplify(&mut self, assumptions: &[Lit], shared: &Option<SharedObserver>) {
        let cfg = self.config.simplify;
        if !self.ok || !cfg.enable || (!cfg.subsumption && !cfg.var_elim) {
            return;
        }
        if self.simplified_once && !cfg.inprocess {
            return;
        }
        self.simplified_once = true;
        self.crew = None;
        // This call's assumption variables must survive elimination
        // (permanently — a later call may assume them again).
        for &a in assumptions {
            self.freeze(a.var());
        }

        let mut s = Solver::with_config(
            SolverConfig::berkmin()
                .with_simplify(cfg)
                .with_paranoid(self.config.paranoid),
        );
        s.reserve_vars(self.num_vars);
        for (i, &frozen) in self.frozen.iter().enumerate() {
            if frozen {
                s.freeze(Var::new(i as u32));
            }
        }
        let captured: Rc<RefCell<Vec<SolveEvent>>> = Rc::new(RefCell::new(Vec::new()));
        if shared.is_some() {
            let tap = Rc::clone(&captured);
            s.set_observer(Some(Box::new(move |e: &SolveEvent| {
                tap.borrow_mut().push(e.clone())
            })));
        }
        for c in &self.clauses {
            s.add_clause(c.iter().copied());
        }
        let mut buf = ProofBuffer::default();
        if s.is_ok() && s.propagate().is_some() {
            s.ok = false;
        }
        if s.is_ok() {
            s.simplify_formula(&mut buf);
        }

        // Export the simplified formula: the level-0 trail as unit clauses
        // plus the live original clauses (the throwaway never searches, so
        // learnt clauses cannot arise).
        let mut clauses: Vec<Vec<Lit>> = s.trail.iter().map(|&l| vec![l]).collect();
        for cref in s.db.iter_live() {
            if !s.db.is_learnt(cref) {
                clauses.push(s.db.lits(cref).to_vec());
            }
        }
        if !s.is_ok() {
            // Refuted at level 0. The empty clause is RUP here (unit
            // propagation over the simplified formula conflicts), so it
            // both completes the buffered proof and resolves the race
            // trivially and uniformly.
            buf.ops.push(ProofOp::Add(Vec::new()));
            clauses.push(Vec::new());
            self.ok = false;
        }
        self.clauses = clauses;
        self.pending_simplify_ops.extend(buf.ops);

        // Fold the run into the engine: eliminated flags, reconstruction
        // entries (appended — these eliminations are the latest) and the
        // simplification work counters.
        if self.eliminated.len() < self.num_vars {
            self.eliminated.resize(self.num_vars, false);
        }
        for (i, &e) in s.eliminated.iter().enumerate() {
            if e {
                self.eliminated[i] = true;
            }
        }
        self.recon.absorb(&s.reconstructor);
        self.stats.merge(s.stats());
        if let Some(obs) = shared {
            for event in captured.borrow().iter() {
                emit_shared(obs, event);
            }
        }
    }

    /// The race core, shared by both modes: builds the workers if none are
    /// live, hands them the clauses added since the previous call, races
    /// them, and settles the call — the winner, the per-call reports, the
    /// engine's counters, the pool's per-call accounting, the worker
    /// events and the winner's unpublished proof. When observing, the
    /// stream is `WorkerStart` in worker order, the tagged worker events
    /// (in schedule order when deterministic), then `WorkerDone` in worker
    /// order.
    fn race(&mut self, assumptions: &[Lit], shared: &Option<SharedObserver>) -> SolveStatus {
        let mut crew = match self.crew.take() {
            Some(crew) => crew,
            None => {
                // Whatever ran before (pre-simplification, retired crews)
                // is settled from here on.
                self.settled = self.stats.clone();
                Crew::new(&self.config, self.proof.is_some())
            }
        };
        crew.extend(self.num_vars, &self.clauses);
        if let Some(obs) = shared {
            for id in 0..self.config.threads {
                emit_shared(obs, &SolveEvent::WorkerStart { worker: id });
            }
        }
        let mut results = crew.solve(assumptions, &self.config, shared);
        let pool = crew.pool_accounting();
        self.crew = Some(crew);

        // The counters are set, not accumulated: the settled part plus
        // every live worker's lifetime, so no call is counted twice.
        self.stats = self.settled.clone();
        for result in &results {
            self.stats.merge(&result.lifetime);
        }
        if let Some((total, _)) = &pool {
            self.stats.clauses_exported += total.published.iter().sum::<u64>();
            self.stats.pool_evicted += total.evicted;
            self.stats.pool_missed += total.missed.iter().sum::<u64>();
        }
        // `Stats::merge` leaves the formula-level counters alone; set the
        // portfolio-level view explicitly (the formula is shared, not
        // duplicated N times, and one portfolio call is one solve call).
        self.stats.initial_clauses = self.clauses.len() as u64;
        self.stats.solve_calls = self.calls;

        for result in &mut results {
            if let Some((_, call)) = &pool {
                result.report.exported = call.published[result.report.id];
                result.report.missed = call.missed[result.report.id];
            }
            self.reports.push(result.report.clone());
        }
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
            if let Some((_, call)) = pool.as_ref().filter(|(_, call)| call.evicted > 0) {
                emit_shared(
                    obs,
                    &SolveEvent::PoolEvicted {
                        evicted: call.evicted,
                    },
                );
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
                // pre-simplifier eliminated (the worker valued them
                // arbitrarily — the reconstruction overwrites with the
                // value that satisfies the dissolved clauses).
                if self.recon.len() > 0 {
                    self.recon.extend_model(&mut model);
                }
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
/// per call (or per slice), and the workers never simplify: the engine
/// simplifies the shared formula once up front.
fn worker_config(config: &PortfolioConfig, id: usize) -> SolverConfig {
    SolverConfig::portfolio_worker(id)
        .with_budget(Budget::unlimited())
        .with_paranoid(config.paranoid)
        .with_simplify(SimplifyConfig::off())
}

/// The live workers of one formula generation, with their share pool:
/// built at the first call (and again after the formula was rewritten),
/// then extended and raced again on every call.
struct Crew {
    workers: Workers,
    pool: Option<Arc<ClausePool>>,
    /// The pool's accounting at the end of the previous call.
    pool_seen: PoolSummary,
    /// How many of the engine's clauses every worker has absorbed — the
    /// workers advance together, so one cursor serves them all.
    synced: usize,
}

/// Where a crew's workers run.
enum Workers {
    /// Deterministic mode: sliced round-robin on the calling thread.
    Inline(Vec<Worker>),
    /// Threaded mode: each worker on its own long-lived thread.
    Threads(WorkerThreads),
}

impl Crew {
    fn new(config: &PortfolioConfig, record_proof: bool) -> Crew {
        let n = config.threads;
        let pool = config
            .share_lbd
            .map(|cap| Arc::new(ClausePool::new(POOL_CAPACITY, n, cap)));
        let configs = (0..n).map(|id| worker_config(config, id));
        let workers = if config.deterministic {
            Workers::Inline(
                configs
                    .enumerate()
                    .map(|(id, c)| Worker::new(id, c, pool.clone(), None, record_proof))
                    .collect(),
            )
        } else {
            Workers::Threads(WorkerThreads::spawn(
                configs.collect(),
                pool.clone(),
                record_proof,
            ))
        };
        Crew {
            workers,
            pool,
            pool_seen: PoolSummary::default(),
            synced: 0,
        }
    }

    /// Hands every worker the variables and the clauses of `clauses` (the
    /// engine's whole list) it has not absorbed yet.
    fn extend(&mut self, num_vars: usize, clauses: &[Vec<Lit>]) {
        let fresh = &clauses[self.synced..];
        match &mut self.workers {
            Workers::Inline(workers) => {
                for worker in workers {
                    worker.extend(num_vars, fresh);
                }
            }
            Workers::Threads(threads) => threads.extend(num_vars, fresh),
        }
        self.synced = clauses.len();
    }

    /// Runs one call on every worker; results come back in worker order.
    fn solve(
        &mut self,
        assumptions: &[Lit],
        config: &PortfolioConfig,
        observer: &Option<SharedObserver>,
    ) -> Vec<CallResult> {
        match &mut self.workers {
            Workers::Inline(workers) => race_slices(
                workers,
                assumptions,
                config.slice_conflicts,
                config.budget.max_conflicts,
                observer,
            ),
            Workers::Threads(threads) => threads.solve(assumptions, config.budget, observer),
        }
    }

    /// The pool's totals and the share of them the last call produced.
    fn pool_accounting(&mut self) -> Option<(PoolSummary, PoolSummary)> {
        let total = self.pool.as_ref()?.summary();
        let call = total.since(&self.pool_seen);
        self.pool_seen = total.clone();
        Some((total, call))
    }
}

/// Deterministic mode's schedule: round-robin conflict slices on the
/// calling thread; the first definitive answer in worker order wins. A
/// worker retires once the conflicts it spent in this call reach the
/// per-worker cap.
fn race_slices(
    workers: &mut [Worker],
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

impl SatEngine for PortfolioEngine {
    fn reserve_vars(&mut self, n: usize) {
        self.num_vars = self.num_vars.max(n);
    }

    fn add_clause(&mut self, lits: &[Lit]) -> bool {
        for l in lits {
            assert!(
                !self.is_eliminated(l.var()),
                "add_clause mentions eliminated variable {:?}: freeze it \
                 before the first solve, or disable variable elimination \
                 (SimplifyConfig::var_elim)",
                l.var()
            );
            self.num_vars = self.num_vars.max(l.var().index() + 1);
        }
        if lits.is_empty() {
            self.ok = false;
        }
        self.clauses.push(lits.to_vec());
        self.ok
    }

    fn assume(&mut self, lit: Lit) {
        assert!(
            !self.is_eliminated(lit.var()),
            "assume mentions eliminated variable {:?}: freeze it before \
             solving, or disable variable elimination \
             (SimplifyConfig::var_elim)",
            lit.var()
        );
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
                    num_clauses: self.clauses.len(),
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

        // Simplify the shared formula once before diversifying, and flush
        // the simplifier's proof prefix before any worker-derived clause.
        self.pre_simplify(&assumptions, &shared);
        if let Some(sink) = &mut self.proof {
            publish(sink.as_mut(), self.pending_simplify_ops.drain(..));
        }

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
        // every worker learn plenty of short clauses.
        let mut engine = PortfolioEngine::new(
            PortfolioConfig::new(2)
                .with_deterministic(true)
                .with_share_lbd(Some(8)),
        );
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
        assert!(caught.is_err(), "the worker's panic must reach the caller");
        // The dead crew was joined and dropped: the next call rebuilds it.
        assert!(engine.solve().is_unsat());
        assert_eq!(engine.reports().len(), 2);
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
        let num_clauses = engine.clauses.len() as u64;
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
        // Without inprocessing the second call reuses the reduction.
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
        assert!(engine.is_frozen(Var::new(1)));
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

        let sink = std::rc::Rc::new(RefCell::new(Recording::default()));
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
