//! The three workloads. Each runs as a closed loop: one caller on one
//! thread, the next operation starting only after the previous verdict.
//! An operation is one instance (ingest, construction, solve and, for
//! `certified-unsat`, proof rendering and checking) or one BMC depth query
//! (encoding plus the assumption solve). Oracle checks run between
//! operations, outside their timers.

use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::{Duration, Instant};

use berkmin::cnf::{dimacs, Cnf};
use berkmin::{
    Budget, PortfolioConfig, PortfolioEngine, SatEngine, SolveStatus, Solver, SolverBuilder,
};
use berkmin_circuit::arith::enabled_counter;
use berkmin_circuit::bmc::BmcDriver;
use berkmin_circuit::Netlist;
use berkmin_drat::{check_refutation, DratProof};
use berkmin_gens::hole::pigeonhole;
use berkmin_gens::miters::multiplier_miter;
use berkmin_gens::pipeline::npipe;

use crate::oracle;
use crate::trace::{EventClock, Ingest, Layers, TimedEngine, TimedProof};

/// Workload names, as `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["r3sat", "certified-unsat", "bmc-portfolio"];

/// One finished operation.
#[derive(Debug, Clone)]
pub struct Op {
    pub secs: f64,
    /// Why the oracle rejected it, if it did.
    pub failure: Option<String>,
}

/// A workload with its inputs built.
pub trait Workload {
    /// Untimed oracle preparation: certifies every verdict that is not
    /// pinned.
    fn certify(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// One pass over the inputs, traced when `layers` is given.
    fn pass(&self, layers: Option<&mut Layers>) -> Vec<Op>;
}

/// Builds the inputs of workload `name` from `seed`: generated instances
/// rendered as DIMACS text, or a netlist. This is the timed set-up.
/// `fresh` takes `r3sat` instances and the miter seed from outside the
/// pinned pools.
pub fn setup(name: &str, seed: u64, fresh: bool) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "r3sat" => {
            let chosen: Vec<(u64, Option<bool>)> = if fresh {
                oracle::fresh_seeds(seed)
                    .into_iter()
                    .map(|s| (s, None))
                    .collect()
            } else {
                oracle::select_pinned(&oracle::r3sat_pool(), seed)
                    .into_iter()
                    .map(|p| (p.seed, Some(p.sat)))
                    .collect()
            };
            let instances = chosen
                .into_iter()
                .map(|(s, sat)| Instance::new(oracle::r3sat_instance(s), sat))
                .collect();
            Box::new(R3sat { instances })
        }
        "certified-unsat" => {
            let miter_seed = if fresh {
                seed
            } else {
                oracle::select_miter(&oracle::miter_pool(), seed)
            };
            let instances = [
                pigeonhole(7).cnf,
                multiplier_miter(6, 0).cnf,
                oracle::miter_instance(miter_seed),
                npipe(3).cnf,
            ]
            .into_iter()
            .map(|cnf| Instance::new(cnf, Some(false)))
            .collect();
            Box::new(CertifiedUnsat { instances })
        }
        "bmc-portfolio" => Box::new(Bmc::new(6)),
        _ => {
            return Err(format!(
                "unknown workload {name:?} (expected one of {})",
                NAMES.join(", ")
            ))
        }
    })
}

/// A solver on the CLI's default configuration (plus the safety cap).
fn solver() -> Solver {
    SolverBuilder::with_config(oracle::config()).build()
}

/// Times `f`, turning a panic into an `Err`.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, Result<T, String>) {
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(f)).map_err(|_| "panicked".to_string());
    (start.elapsed().as_secs_f64(), result)
}

/// A generated formula, its DIMACS text and its expected verdict
/// (`Some(true)` = SAT; `None` until certified).
struct Instance {
    cnf: Cnf,
    text: String,
    expected_sat: Option<bool>,
}

impl Instance {
    fn new(cnf: Cnf, expected_sat: Option<bool>) -> Self {
        let text = dimacs::to_string(&cnf);
        Instance {
            cnf,
            text,
            expected_sat,
        }
    }
}

/// Streams `text` into `solver` (and `mirror`), tallying the ingestion
/// when traced.
fn ingest(solver: &mut Solver, mirror: Option<&mut Cnf>, text: &str, layers: Option<&mut Layers>) {
    let start = Instant::now();
    let mut sink = Ingest::new(solver, mirror, layers.is_some());
    dimacs::stream_into(text.as_bytes(), &mut sink).expect("generated DIMACS parses");
    if let Some(layers) = layers {
        layers.add_ingest(start.elapsed(), &sink, text.len());
    }
}

/// Uniform random 3-SAT solved to a verdict on the default path: DIMACS
/// streamed into a fresh solver, no proof.
struct R3sat {
    instances: Vec<Instance>,
}

impl Workload for R3sat {
    fn certify(&mut self) -> Result<(), String> {
        for inst in self
            .instances
            .iter_mut()
            .filter(|i| i.expected_sat.is_none())
        {
            inst.expected_sat = Some(oracle::certify(&inst.cnf)?);
        }
        Ok(())
    }

    fn pass(&self, mut layers: Option<&mut Layers>) -> Vec<Op> {
        self.instances
            .iter()
            .map(|inst| {
                let (secs, status) = timed(|| {
                    let mut solver = solver();
                    match layers.as_deref_mut() {
                        None => {
                            dimacs::stream_into(inst.text.as_bytes(), &mut solver)
                                .expect("generated DIMACS parses");
                            solver.solve()
                        }
                        Some(l) => {
                            solver.set_observer(Some(Box::new(l.events.clone())));
                            ingest(&mut solver, None, &inst.text, Some(&mut *l));
                            let status = solver.solve();
                            l.add_stats(solver.stats());
                            status
                        }
                    }
                });
                let expected = inst.expected_sat.expect("verdicts certified before timing");
                let failure = status
                    .and_then(|s| oracle::judge(expected, &s, &inst.cnf))
                    .err();
                Op { secs, failure }
            })
            .collect()
    }
}

/// Structured UNSAT instances on the CLI's `--proof --check-proof` path:
/// solve with an in-memory DRAT proof, render it as text, check it.
struct CertifiedUnsat {
    instances: Vec<Instance>,
}

impl CertifiedUnsat {
    /// One certified solve; returns the answer and the checker's verdict
    /// on its proof.
    fn prove(
        inst: &Instance,
        mut layers: Option<&mut Layers>,
    ) -> (SolveStatus, Result<(), String>) {
        let proof = Rc::new(RefCell::new(DratProof::new()));
        let write = Rc::new(Cell::new(Duration::ZERO));
        let builder = SolverBuilder::with_config(oracle::config());
        let mut solver = match layers.as_deref_mut() {
            None => builder.proof(Rc::clone(&proof)).build(),
            Some(l) => {
                let mut solver = builder
                    .proof(TimedProof {
                        inner: Rc::clone(&proof),
                        spent: Rc::clone(&write),
                    })
                    .build();
                solver.set_observer(Some(Box::new(l.events.clone())));
                solver
            }
        };
        let mut mirror = Cnf::new();
        ingest(
            &mut solver,
            Some(&mut mirror),
            &inst.text,
            layers.as_deref_mut(),
        );
        let status = solver.solve();
        if !status.is_unsat() {
            return (status, Ok(()));
        }
        let proof = proof.borrow();
        let start = Instant::now();
        let text = proof.to_text();
        let render = start.elapsed();
        std::hint::black_box(&text);
        let start = Instant::now();
        let checked = check_refutation(&mirror, &proof);
        let check = start.elapsed();
        if let Some(l) = layers {
            l.add_stats(solver.stats());
            l.proof_write += write.get();
            l.proof_steps += proof.len() as u64;
            l.render += render;
            l.text_bytes += text.len() as u64;
            l.check += check;
            if let Ok(report) = &checked {
                l.check_adds += report.additions_checked as u64;
            }
        }
        let checked = checked
            .map(|_| ())
            .map_err(|e| format!("proof rejected: {e}"));
        (status, checked)
    }
}

impl Workload for CertifiedUnsat {
    fn pass(&self, mut layers: Option<&mut Layers>) -> Vec<Op> {
        self.instances
            .iter()
            .map(|inst| {
                let (secs, result) = timed(|| Self::prove(inst, layers.as_deref_mut()));
                let failure = result
                    .and_then(|(status, checked)| {
                        oracle::judge(false, &status, &inst.cnf)?;
                        checked
                    })
                    .err();
                Op { secs, failure }
            })
            .collect()
    }
}

/// Incremental BMC of an enabled counter through the portfolio: one query
/// per depth, on one engine, from depth 0 to the first depth at which
/// every count bit is 1 (`2^bits - 1`).
struct Bmc {
    netlist: Netlist,
    bits: usize,
}

impl Bmc {
    fn new(bits: usize) -> Self {
        Bmc {
            netlist: enabled_counter(bits),
            bits,
        }
    }

    /// The race of `bmc-portfolio`: two workers, deterministic slices,
    /// sharing clauses of LBD up to 4.
    fn portfolio_engine() -> PortfolioEngine {
        PortfolioEngine::new(
            PortfolioConfig::new(2)
                .with_deterministic(true)
                .with_share_lbd(Some(4))
                .with_budget(Budget::conflicts(oracle::CONFLICT_CAP)),
        )
    }

    /// Runs the depth sweep on the engine `make` builds (inside the first
    /// operation's timer). When traced, `after_query` tallies each query's
    /// engine state.
    fn sweep<E: SatEngine>(
        &self,
        make: impl FnOnce() -> E,
        mut layers: Option<&mut Layers>,
        mut after_query: impl FnMut(&E, &mut Layers),
    ) -> Vec<Op> {
        let target = (1usize << self.bits) - 1;
        let pattern: Vec<(usize, bool)> = (0..self.bits).map(|o| (o, true)).collect();
        let netlist = self.netlist.clone();
        let mut ops = Vec::with_capacity(target + 1);
        let mut start = Instant::now();
        let mut driver = BmcDriver::with_engine(netlist, make());
        for t in 0..=target {
            let status = catch_unwind(AssertUnwindSafe(|| {
                match layers.as_deref_mut() {
                    None => driver.extend_to(t + 1),
                    Some(l) => {
                        let encode = Instant::now();
                        driver.extend_to(t + 1);
                        l.encode += encode.elapsed();
                    }
                }
                driver.check_outputs_at(t, &pattern)
            }));
            let secs = start.elapsed().as_secs_f64();
            let Ok(status) = status else {
                // The driver's state is unknown after a panic: the rest of
                // the sweep fails unrun.
                ops.extend((t..=target).map(|_| Op {
                    secs: 0.0,
                    failure: Some("panicked".into()),
                }));
                break;
            };
            let failure =
                oracle::judge_bmc(t, target, &status, &self.netlist, driver.encoding()).err();
            ops.push(Op { secs, failure });
            if let Some(l) = layers.as_deref_mut() {
                l.queries += 1;
                after_query(driver.engine(), l);
            }
            start = Instant::now();
        }
        if let Some(l) = layers {
            l.stats.merge(driver.engine().stats());
        }
        ops
    }
}

/// Wraps a BMC engine for a traced pass: `add_clause` timed, events to
/// the pass's clock.
fn traced<E: SatEngine>(inner: E, clock: EventClock) -> TimedEngine<E> {
    let mut engine = TimedEngine::new(inner);
    engine.set_observer(Some(Box::new(clock)));
    engine
}

/// Tallies a traced BMC engine after a query. The engine is the pass's
/// only one, so its running totals are the pass's.
fn tally_engine<E: SatEngine>(engine: &TimedEngine<E>, layers: &mut Layers) {
    let ratio = engine.stats().peak_memory_ratio();
    layers.max_live_ratio = layers.max_live_ratio.max(ratio);
    layers.add_clause = engine.add_clause;
    layers.clauses_added = engine.clauses;
}

impl Workload for Bmc {
    fn pass(&self, layers: Option<&mut Layers>) -> Vec<Op> {
        match layers {
            None => self.sweep(Self::portfolio_engine, None, |_, _| {}),
            Some(l) => {
                let clock = l.events.clone();
                let make = || traced(Self::portfolio_engine(), clock);
                self.sweep(make, Some(&mut *l), |e, l| {
                    tally_engine(e, l);
                    let others = e.inner.config().threads as u64 - 1;
                    for r in e.inner.reports() {
                        l.worker_conflicts += r.conflicts;
                        if r.winner {
                            l.winner_conflicts += r.conflicts;
                        }
                        l.exported += r.exported;
                        l.imported += r.imported;
                        l.import_offers += r.exported * others;
                    }
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_workload_is_an_error() {
        assert!(setup("nope", 0, false).is_err());
    }

    #[test]
    fn every_workload_builds() {
        for name in NAMES {
            assert!(setup(name, 1, false).is_ok(), "{name}");
        }
    }
}
