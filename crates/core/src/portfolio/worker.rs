//! One persistent portfolio worker, and the thread that hosts it in
//! threaded mode.
//!
//! A [`Worker`] owns an ordinary [`Solver`] with a diversified configuration
//! ([`SolverConfig::portfolio_worker`]), an optional cancellation flag wired
//! through the `on_terminate` hook, its learnt-clause tap and import source
//! connected to the shared [`ClausePool`] when sharing is on, and a private
//! proof buffer. It is built empty once per formula generation and then,
//! call after call, [extended](Worker::extend) with the clauses it has not
//! seen yet (the first time with the front's whole seed) and run again —
//! its learnt clauses, activities and saved phases stay warm across
//! incremental calls.
//!
//! In threaded mode each worker lives on its own long-lived thread
//! ([`WorkerThreads`]), which builds the worker itself and owns it until the
//! engine is dropped: [`Solver`] is deliberately `!Send` (it carries boxed
//! callbacks and `Rc` proof taps), so only plain data crosses the channels.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use berkmin_cnf::{Cnf, Lit};

use crate::builder::SolverBuilder;
use crate::config::{Budget, SolverConfig};
use crate::proof::ProofSink;
use crate::search::SolveStatus;
use crate::solver::Solver;
use crate::stats::Stats;
use crate::telemetry::{SolveEvent, SolveObserver};

use super::share::ClausePool;
use super::{WorkerOutcome, WorkerReport};

/// The portfolio's observer as shared by its workers: one mutex serializes
/// events from all threads, so the observer sees a totally ordered stream.
pub(crate) type SharedObserver = Arc<Mutex<Box<dyn SolveObserver + Send>>>;

/// Per-worker adapter installed as the worker solver's observer for the
/// length of one call: wraps each event in [`SolveEvent::Worker`] with the
/// worker's id and forwards it to the portfolio's shared observer under the
/// mutex.
struct Forward {
    worker: usize,
    shared: SharedObserver,
}

impl SolveObserver for Forward {
    fn on_event(&mut self, event: &SolveEvent) {
        let tagged = SolveEvent::Worker {
            worker: self.worker,
            event: Box::new(event.clone()),
        };
        self.shared.lock().unwrap().on_event(&tagged);
    }
}

/// Emits a portfolio-level (untagged) event into the shared observer.
pub(crate) fn emit_shared(observer: &SharedObserver, event: &SolveEvent) {
    observer.lock().unwrap().on_event(event);
}

/// One buffered proof operation — the `Send`-able form of a worker's DRAT
/// stream, replayed into the portfolio's real sink when that worker wins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ProofOp {
    /// A deduced clause (empty on refutation).
    Add(Vec<Lit>),
    /// A database deletion.
    Delete(Vec<Lit>),
}

/// A [`ProofSink`] that records operations instead of writing them — each
/// worker logs privately; a call's winner publishes what it has logged.
/// Hint chains are dropped (the provided
/// [`ProofSink::add_clause_hinted`] forwards to `add_clause`): their
/// clause IDs are private to the worker, and the splice renumbers them.
#[derive(Debug, Default)]
pub(crate) struct ProofBuffer {
    pub(crate) ops: Vec<ProofOp>,
}

impl ProofSink for ProofBuffer {
    fn add_clause(&mut self, lits: &[Lit]) {
        self.ops.push(ProofOp::Add(lits.to_vec()));
    }

    fn delete_clause(&mut self, lits: &[Lit]) {
        self.ops.push(ProofOp::Delete(lits.to_vec()));
    }
}

/// What one worker hands back at the end of a call — plain `Send` data.
#[derive(Debug)]
pub(crate) struct CallResult {
    pub(crate) status: SolveStatus,
    pub(crate) failed: Vec<Lit>,
    /// The call's report; `exported` and `missed` are left at 0 for the
    /// engine to fill in from the share pool.
    pub(crate) report: WorkerReport,
    /// The worker's counters over its whole life, which the engine folds
    /// into its own totals.
    pub(crate) lifetime: Stats,
    /// The winner's proof operations not yet published (empty for losers,
    /// whose operations wait until they win a call).
    pub(crate) proof_ops: Vec<ProofOp>,
}

/// A persistent worker solver (see the module docs).
pub(crate) struct Worker {
    id: usize,
    solver: Solver,
    /// Proof operations logged but not yet published (`None` when the
    /// engine has no proof sink).
    proof: Option<Rc<RefCell<ProofBuffer>>>,
    /// The solver's counters when the current call began.
    base: Stats,
}

impl Worker {
    /// Builds an empty worker solver.
    ///
    /// `config` is the fully diversified per-worker configuration; `pool`
    /// (when sharing) receives every learnt clause and supplies the other
    /// workers' clauses; `cancel` (when given) is polled through the
    /// solver's `on_terminate` hook, so a raised flag stops the worker
    /// within one terminate-poll interval (~1024 conflicts); `record_proof`
    /// attaches the private [`ProofBuffer`].
    pub(crate) fn new(
        id: usize,
        config: SolverConfig,
        pool: Option<Arc<ClausePool>>,
        cancel: Option<Arc<AtomicBool>>,
        record_proof: bool,
    ) -> Worker {
        debug_assert!(
            !(record_proof && pool.is_some()),
            "proof recording with sharing on would be unsound"
        );
        let mut builder = SolverBuilder::with_config(config);
        if let Some(flag) = cancel {
            builder = builder.on_terminate(move || flag.load(Ordering::Relaxed));
        }
        if let Some(pool) = pool {
            let export_pool = Arc::clone(&pool);
            builder = builder.on_learnt(move |lits, lbd| export_pool.publish(id, lits, lbd));
            builder = builder.share_import(move |buf| pool.collect(id, buf));
        }
        let mut proof = None;
        if record_proof {
            let buffer = Rc::new(RefCell::new(ProofBuffer::default()));
            builder = builder.proof(Rc::clone(&buffer));
            proof = Some(buffer);
        }
        Worker {
            id,
            solver: builder.build(),
            proof,
            base: Stats::new(),
        }
    }

    /// Grows the variable space to `num_vars` and adds `clauses` — the
    /// engine's clauses this worker has not seen yet.
    pub(crate) fn extend<'a>(
        &mut self,
        num_vars: usize,
        clauses: impl IntoIterator<Item = &'a [Lit]>,
    ) {
        self.solver.reserve_vars(num_vars);
        for clause in clauses {
            self.solver.add_clause(clause.iter().copied());
        }
    }

    /// Opens a call: snapshots the counters the call's report is measured
    /// from and, when observing, installs the [`Forward`] adapter.
    pub(crate) fn begin(&mut self, observer: Option<SharedObserver>) {
        self.base = self.solver.stats().clone();
        if let Some(shared) = observer {
            let forward = Forward {
                worker: self.id,
                shared,
            };
            self.solver.set_observer(Some(Box::new(forward)));
        }
    }

    /// Runs the call, or one slice of it, under `budget` with `assumptions`
    /// staged.
    pub(crate) fn run(&mut self, assumptions: &[Lit], budget: Budget) -> SolveStatus {
        self.solver.set_budget(budget);
        for &a in assumptions {
            self.solver.assume(a);
        }
        self.solver.solve()
    }

    /// Conflicts spent since [`Worker::begin`].
    pub(crate) fn call_conflicts(&self) -> u64 {
        self.solver.stats().conflicts - self.base.conflicts
    }

    /// Closes the call that ended in `status`: removes the observer
    /// adapter (releasing its handle on the shared observer), reports the
    /// call's deltas and, if `won`, hands over the unpublished proof.
    pub(crate) fn finish(&mut self, status: SolveStatus, won: bool) -> CallResult {
        self.solver.set_observer(None);
        let stats = self.solver.stats();
        let report = WorkerReport {
            id: self.id,
            outcome: match &status {
                SolveStatus::Sat(_) => WorkerOutcome::Sat,
                SolveStatus::Unsat => WorkerOutcome::Unsat,
                SolveStatus::Unknown(reason) => WorkerOutcome::Stopped(*reason),
            },
            winner: won,
            conflicts: stats.conflicts - self.base.conflicts,
            decisions: stats.decisions - self.base.decisions,
            exported: 0,
            imported: stats.clauses_imported - self.base.clauses_imported,
            missed: 0,
        };
        let proof_ops = match &self.proof {
            Some(buffer) if won => std::mem::take(&mut buffer.borrow_mut().ops),
            _ => Vec::new(),
        };
        CallResult {
            failed: self.solver.failed_assumptions().to_vec(),
            status,
            report,
            lifetime: stats.clone(),
            proof_ops,
        }
    }
}

/// One call's order to a worker thread: the variables and clauses it has
/// not seen yet (for [`Worker::extend`]), then the race ([`Worker::run`]).
struct Order {
    num_vars: usize,
    clauses: Arc<Cnf>,
    assumptions: Arc<[Lit]>,
    budget: Budget,
    observer: Option<SharedObserver>,
}

/// One worker thread's end of the engine: its order and result channels.
struct Lane {
    orders: Sender<Order>,
    results: Receiver<CallResult>,
    thread: JoinHandle<()>,
}

/// Threaded mode's workers: one long-lived thread per worker, started at
/// the first call and joined when this is dropped (closing the order
/// channels ends each thread's loop).
pub(crate) struct WorkerThreads {
    lanes: Vec<Lane>,
    /// Raised by the first definitive answer of a call (claiming the win)
    /// or on shutdown; lowered at the start of every call.
    cancel: Arc<AtomicBool>,
}

impl WorkerThreads {
    /// Starts one thread per configuration; each builds its [`Worker`]
    /// there (the solver never crosses a thread boundary).
    pub(crate) fn spawn(
        configs: Vec<SolverConfig>,
        pool: Option<Arc<ClausePool>>,
        record_proof: bool,
    ) -> WorkerThreads {
        let cancel = Arc::new(AtomicBool::new(false));
        let lanes = configs
            .into_iter()
            .enumerate()
            .map(|(id, config)| {
                let (orders, order_rx) = channel();
                let (result_tx, results) = channel();
                let pool = pool.clone();
                let cancel = Arc::clone(&cancel);
                let thread = std::thread::Builder::new()
                    .name(format!("berkmin-worker-{id}"))
                    .spawn(move || {
                        let worker =
                            Worker::new(id, config, pool, Some(Arc::clone(&cancel)), record_proof);
                        serve(worker, &cancel, order_rx, result_tx);
                    })
                    .expect("spawn portfolio worker thread");
                Lane {
                    orders,
                    results,
                    thread,
                }
            })
            .collect();
        WorkerThreads { lanes, cancel }
    }

    /// Hands every worker the clauses it has not seen yet (all of them
    /// advance together), then races them on one call and collects the
    /// results in worker order. The first definitive answer claims the win
    /// by raising the cancel flag, which also stops the others. A worker
    /// that panicked is re-raised here, on the caller's thread, once the
    /// others stopped.
    pub(crate) fn solve<'a>(
        &mut self,
        num_vars: usize,
        clauses: impl IntoIterator<Item = &'a [Lit]>,
        assumptions: &[Lit],
        budget: Budget,
        observer: &Option<SharedObserver>,
    ) -> Vec<CallResult> {
        self.cancel.store(false, Ordering::SeqCst);
        let clauses: Arc<Cnf> = Arc::new(clauses.into_iter().map(|c| c.iter().copied()).collect());
        let assumptions: Arc<[Lit]> = assumptions.into();
        for lane in &self.lanes {
            // A dead thread surfaces (with its panic) below.
            let _ = lane.orders.send(Order {
                num_vars,
                clauses: Arc::clone(&clauses),
                assumptions: Arc::clone(&assumptions),
                budget,
                observer: observer.clone(),
            });
        }
        let mut results = Vec::with_capacity(self.lanes.len());
        let mut died = false;
        for lane in &self.lanes {
            match lane.results.recv() {
                Ok(result) => results.push(result),
                Err(_) => {
                    died = true;
                    self.cancel.store(true, Ordering::SeqCst);
                }
            }
        }
        if died {
            match self.shutdown() {
                Some(payload) => std::panic::resume_unwind(payload),
                None => panic!("a portfolio worker thread exited mid-call"),
            }
        }
        results
    }

    /// Stops and joins every thread, returning the first panic payload.
    fn shutdown(&mut self) -> Option<Box<dyn std::any::Any + Send>> {
        self.cancel.store(true, Ordering::SeqCst);
        // Dropping each lane's sender first ends every thread's loop.
        let lanes = std::mem::take(&mut self.lanes);
        let threads: Vec<JoinHandle<()>> = lanes.into_iter().map(|lane| lane.thread).collect();
        let mut first_panic = None;
        for thread in threads {
            if let Err(payload) = thread.join() {
                first_panic.get_or_insert(payload);
            }
        }
        first_panic
    }
}

impl Drop for WorkerThreads {
    fn drop(&mut self) {
        // A panic from a worker has already been re-raised by `solve` (or
        // is unwinding right now); there is nothing left to report.
        let _ = self.shutdown();
    }
}

/// A worker thread's loop: extend and run the worker for each order until
/// the engine closes the channel.
fn serve(
    mut worker: Worker,
    cancel: &AtomicBool,
    orders: Receiver<Order>,
    results: Sender<CallResult>,
) {
    for order in orders {
        worker.extend(order.num_vars, order.clauses.iter());
        worker.begin(order.observer);
        let status = worker.run(&order.assumptions, order.budget);
        let won = !status.is_unknown()
            && cancel
                .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok();
        if results.send(worker.finish(status, won)).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::StopReason;

    /// hole(n): n+1 pigeons in n holes — small but exponentially hard, so a
    /// worker is reliably mid-search when the flag rises.
    fn pigeonhole(n: usize) -> Vec<Vec<Lit>> {
        let lit = |pigeon: usize, hole: usize| Lit::from_dimacs((pigeon * n + hole + 1) as i32);
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

    /// One whole call on a fresh worker over hole(`n`), cancelled through
    /// `cancel`.
    fn run_cancellable(n: usize, cancel: Arc<AtomicBool>) -> CallResult {
        let mut worker = Worker::new(
            0,
            SolverConfig::portfolio_worker(0),
            None,
            Some(cancel),
            false,
        );
        worker.extend((n + 1) * n, pigeonhole(n).iter().map(Vec::as_slice));
        worker.begin(None);
        let status = worker.run(&[], Budget::unlimited());
        worker.finish(status, false)
    }

    #[test]
    fn pre_raised_cancel_flag_stops_at_solve_entry() {
        let result = run_cancellable(8, Arc::new(AtomicBool::new(true)));
        assert_eq!(
            result.status,
            SolveStatus::Unknown(StopReason::Callback),
            "the entry poll must observe an already-raised flag"
        );
        assert_eq!(result.report.conflicts, 0);
    }

    #[test]
    fn raising_the_flag_mid_search_cancels_the_worker() {
        // hole(10) takes far longer than the flag-raising thread's delay;
        // the terminate poll fires at restart boundaries and every 1024
        // conflicts, so the worker stops soon after the flag rises.
        let cancel = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&cancel);
        let raiser = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(30));
            flag.store(true, Ordering::SeqCst);
        });
        let result = run_cancellable(10, cancel);
        raiser.join().unwrap();
        assert_eq!(
            result.status,
            SolveStatus::Unknown(StopReason::Callback),
            "a loser must observe termination instead of searching on"
        );
    }
}
