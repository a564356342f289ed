//! Command-line front end: solve a DIMACS CNF file with any of the paper's
//! solver configurations, optionally emitting and self-checking a DRAT
//! proof — or run an incremental bounded-model-checking sweep with the
//! `bmc` subcommand. Output follows the SAT-competition conventions
//! (`c` comments, `s` status, `v` model lines wrapped at 78 columns).
//!
//! Both subcommands share one flag parser and one engine assembly: the
//! engine is a `SolverBuilder`-built solver (proof sink attached at
//! construction) or the portfolio, used as a `dyn SatEngine`. Plain solving
//! streams the DIMACS input straight into the engine's clause database —
//! no intermediate `Cnf` is materialized (the only exception is
//! `--check-proof`, which must retain the original formula for the
//! independent RUP checker).
//!
//! ```text
//! usage: berkmin-cli [OPTIONS] [FILE]
//!        berkmin-cli bmc [OPTIONS]
//!
//!   FILE                   DIMACS CNF file ('-' or absent = stdin)
//!   --engine NAME          berkmin | chaff | limmat | less-sensitivity |
//!                          less-mobility | limited-keeping | portfolio
//!                          (default: berkmin)
//!   --threads N            portfolio worker count (default 4)
//!   --share-lbd K          portfolio: share learnt clauses with
//!                          len ≤ 2 or LBD ≤ K (default 4)
//!   --no-share             portfolio: disable clause sharing (required
//!                          for --proof/--check-proof; contradicts
//!                          --share-lbd)
//!   --deterministic        portfolio: fixed round-robin schedule on one
//!                          thread (reproducible winner and statistics)
//!   --max-conflicts N      abort after N conflicts
//!   --seed N               heuristic PRNG seed (single engines; portfolio
//!                          workers derive their own diversified seeds)
//!   --no-simplify          disable preprocessing (subsumption runs by
//!                          default at the first solve; the portfolio's
//!                          front simplifies for all its workers)
//!   --elim                 enable bounded variable elimination (SAT models
//!                          are reconstructed over eliminated variables;
//!                          proofs carry the elimination additions and
//!                          deletions; contradicts --no-simplify)
//!   --proof FILE           write a DRAT refutation to FILE on UNSAT
//!   --check-proof          verify the proof with the built-in RUP checker
//!   --paranoid             audit solver invariants at every quiescent
//!                          point of the search (slow; panics on violation)
//!   --stats-json FILE      write a machine-readable run summary to FILE
//!                          (verdict, seconds, full stats block; per-worker
//!                          reports for the portfolio)
//!   -v, --verbose          MiniSat-style progress table (one row per
//!                          progress tick; restarts/reductions annotated;
//!                          worker-tagged rows for the portfolio)
//!   --no-model             suppress the 'v' model lines
//!   --quiet                suppress statistics
//!
//! bmc (enabled-counter all-ones reachability sweep) takes the engine,
//! portfolio, budget, seed, --no-simplify, --paranoid, --stats-json,
//! --verbose and --quiet options above, plus:
//!   --bits N               counter width (default 3)
//!   --max-depth D          deepest cycle to try (default 2^bits - 1)
//!   --scratch              re-solve every depth with a fresh engine
//!                          instead of reusing one incremental engine (for
//!                          comparison)
//!   --stats-json FILE      adds a per-depth "depths" array; in --scratch
//!                          mode the stats block carries the total conflict
//!                          count only (no warm engine exists to snapshot)
//!
//! A flag that means nothing to the chosen subcommand is a usage error:
//! FILE, --proof, --check-proof, --elim and --no-model under bmc;
//! --bits, --max-depth and --scratch without it. So is a contradictory
//! pair: --elim with --no-simplify, or --share-lbd with --no-share.
//! ```
//!
//! Exit codes follow the SAT-competition convention: **10** = SAT,
//! **20** = UNSAT, **0** = unknown (budget or termination), **2** = usage
//! or input error, **3** = internal error (model or proof self-verification
//! failure, or an output file that cannot be written). The summary lines
//! (`c time …`, warm-engine and worker reports) print on *every* outcome,
//! including unknown — a budget-stopped run still reports where its time
//! went.

use std::cell::RefCell;
use std::fs;
use std::process::ExitCode;
use std::rc::Rc;
use std::str::FromStr;

use berkmin::telemetry::json::Value as JsonValue;
use berkmin::{
    Budget, PortfolioConfig, PortfolioEngine, SatEngine, SimplifyConfig, SolveEvent, SolveStatus,
    SolveVerdict, SolverBuilder, SolverConfig, Stats, StatsSnapshot, WorkerOutcome,
};
use berkmin_circuit::arith::enabled_counter;
use berkmin_circuit::bmc::{scratch_first_reaching_depth, BmcDriver, BmcOutcome};
use berkmin_cnf::{dimacs, Assignment, ClauseSink, Cnf, LBool, Lit, Var};
use berkmin_drat::{check_refutation, DratProof};

/// The one error-exit path for usage and input problems: message to
/// stderr, exit code 2. (Solver outcomes exit through `main`'s `ExitCode`.)
fn die(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

fn usage() -> ! {
    die(
        "usage: berkmin-cli [--engine NAME] [--threads N] [--share-lbd K] [--no-share] \
         [--deterministic] [--max-conflicts N] [--seed N] \
         [--no-simplify] [--elim] [--proof FILE] [--check-proof] [--paranoid] \
         [--stats-json FILE] [--verbose] [--no-model] [--quiet] [FILE]\n\
         \x20      berkmin-cli bmc [--bits N] [--max-depth D] [--scratch] [--engine NAME] \
         [--threads N] [--share-lbd K] [--no-share] [--deterministic] \
         [--max-conflicts N] [--seed N] [--no-simplify] [--paranoid] \
         [--stats-json FILE] [--verbose] [--quiet]",
    );
}

/// Maps a single-solver `--engine` preset name to its configuration — the
/// one switch behind which every comparison arm hides, since all of them
/// are driven through the same `dyn SatEngine`.
fn config_by_name(name: &str) -> SolverConfig {
    match name {
        "berkmin" => SolverConfig::berkmin(),
        "chaff" => SolverConfig::chaff_like(),
        "limmat" => SolverConfig::limmat_like(),
        "less-sensitivity" => SolverConfig::less_sensitivity(),
        "less-mobility" => SolverConfig::less_mobility(),
        "limited-keeping" => SolverConfig::limited_keeping(),
        other => die(format!("unknown engine {other:?}")),
    }
}

/// The options of both subcommands, as the one parser leaves them.
struct Options {
    /// The `bmc` subcommand was given.
    bmc: bool,
    file: Option<String>,
    /// The single-solver configuration, or the portfolio's budget,
    /// paranoia and simplification.
    config: SolverConfig,
    /// `--engine portfolio`: race diversified workers instead of one solver.
    portfolio: bool,
    threads: usize,
    share_lbd: u32,
    no_share: bool,
    deterministic: bool,
    proof_path: Option<String>,
    check_proof: bool,
    print_model: bool,
    quiet: bool,
    stats_json: Option<String>,
    verbose: bool,
    bits: Option<usize>,
    max_depth: Option<usize>,
    scratch: bool,
}

/// The value following a flag, parsed; a missing or malformed value is a
/// usage error.
fn value<T: FromStr>(args: &mut impl Iterator<Item = String>) -> T {
    args.next()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage())
}

/// `n` if it lies in `range`; otherwise a usage error.
fn in_range(n: usize, range: std::ops::RangeInclusive<usize>) -> usize {
    if range.contains(&n) {
        n
    } else {
        usage()
    }
}

/// Parses the command line of either subcommand. The configuration is
/// assembled after the loop, so flag order never matters (`--engine`
/// cannot clobber a `--seed` given before it).
fn parse_args() -> Options {
    let mut args = std::env::args().skip(1).peekable();
    let bmc = args.next_if(|a| a == "bmc").is_some();
    let mut opts = Options {
        bmc,
        file: None,
        config: SolverConfig::berkmin(),
        portfolio: false,
        threads: 4,
        share_lbd: 4,
        no_share: false,
        deterministic: false,
        proof_path: None,
        check_proof: false,
        print_model: true,
        quiet: false,
        stats_json: None,
        verbose: false,
        bits: None,
        max_depth: None,
        scratch: false,
    };
    let mut engine = String::from("berkmin");
    let mut max_conflicts: Option<u64> = None;
    let mut seed: Option<u64> = None;
    let mut paranoid = false;
    let mut no_simplify = false;
    let mut elim = false;
    let mut share_lbd: Option<u32> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--engine" => engine = args.next().unwrap_or_else(|| usage()),
            "--threads" => opts.threads = in_range(value(&mut args), 1..=64),
            "--share-lbd" => share_lbd = Some(value(&mut args)),
            "--no-share" => opts.no_share = true,
            "--deterministic" => opts.deterministic = true,
            "--max-conflicts" => max_conflicts = Some(value(&mut args)),
            "--seed" => seed = Some(value(&mut args)),
            "--no-simplify" => no_simplify = true,
            "--elim" => elim = true,
            "--proof" => opts.proof_path = Some(args.next().unwrap_or_else(|| usage())),
            "--check-proof" => opts.check_proof = true,
            "--paranoid" => paranoid = true,
            "--stats-json" => opts.stats_json = Some(args.next().unwrap_or_else(|| usage())),
            "-v" | "--verbose" => opts.verbose = true,
            "--no-model" => opts.print_model = false,
            "--quiet" => opts.quiet = true,
            "--bits" => opts.bits = Some(in_range(value(&mut args), 1..=16)),
            "--max-depth" => opts.max_depth = Some(value(&mut args)),
            "--scratch" => opts.scratch = true,
            f if f == "-" || !f.starts_with('-') => opts.file = Some(f.to_string()),
            _ => usage(),
        }
    }
    let misplaced = if opts.bmc {
        vec![
            (opts.file.is_some(), "FILE"),
            (opts.proof_path.is_some(), "--proof"),
            (opts.check_proof, "--check-proof"),
            (elim, "--elim"),
            (!opts.print_model, "--no-model"),
        ]
    } else {
        vec![
            (opts.bits.is_some(), "--bits"),
            (opts.max_depth.is_some(), "--max-depth"),
            (opts.scratch, "--scratch"),
        ]
    };
    if let Some((_, flag)) = misplaced.iter().find(|(given, _)| *given) {
        let side = if opts.bmc { "under" } else { "without" };
        die(format!("{flag} has no meaning {side} the bmc subcommand"));
    }
    if no_simplify && elim {
        die("--elim contradicts --no-simplify");
    }
    if opts.no_share && share_lbd.is_some() {
        die("--share-lbd contradicts --no-share");
    }
    opts.share_lbd = share_lbd.unwrap_or(opts.share_lbd);
    if opts.file.as_deref() == Some("-") {
        opts.file = None;
    }

    opts.portfolio = engine == "portfolio";
    if !opts.portfolio {
        opts.config = config_by_name(&engine);
    }
    let config = &mut opts.config;
    if let Some(n) = max_conflicts {
        config.budget = Budget::conflicts(n);
    }
    if let Some(n) = seed {
        config.seed = n;
    }
    config.paranoid = paranoid;
    if no_simplify {
        config.simplify = SimplifyConfig::off();
    }
    config.simplify.var_elim |= elim;
    opts
}

/// Assembles the engine either subcommand drives: one preset solver behind
/// the trait object, or the portfolio. `proof` attaches at construction;
/// `-v` installs the progress-table observer.
fn build_engine(opts: &Options, proof: Option<Rc<RefCell<DratProof>>>) -> EngineHolder {
    let mut holder = if opts.portfolio {
        let share = (!opts.no_share).then_some(opts.share_lbd);
        if proof.is_some() && share.is_some() {
            die("configuration error: --proof/--check-proof with clause \
                 sharing on would emit an unsound DRAT proof (imported \
                 clauses are not derivable in the winner's log); add \
                 --no-share to keep proofs");
        }
        let mut engine = PortfolioEngine::new(
            PortfolioConfig::new(opts.threads)
                .with_share_lbd(share)
                .with_deterministic(opts.deterministic)
                .with_budget(opts.config.budget)
                .with_paranoid(opts.config.paranoid)
                .with_simplify(opts.config.simplify),
        );
        if let Some(proof) = proof {
            engine.set_proof(Box::new(proof));
        }
        EngineHolder::Portfolio(Box::new(engine))
    } else {
        let mut builder = SolverBuilder::with_config(opts.config.clone());
        if let Some(proof) = proof {
            builder = builder.proof(proof);
        }
        EngineHolder::Single(builder.build_engine())
    };
    if opts.verbose {
        holder
            .as_engine()
            .set_observer(Some(Box::new(verbose_observer())));
    }
    holder
}

/// Streaming ingestion target: every clause goes straight into the engine;
/// only when the RUP checker will need the original formula afterwards is
/// a mirror `Cnf` kept alongside.
struct Ingest<'a> {
    engine: &'a mut dyn SatEngine,
    mirror: Option<&'a mut Cnf>,
}

impl ClauseSink for Ingest<'_> {
    fn header(&mut self, num_vars: usize, num_clauses: usize) {
        self.engine.reserve_vars(num_vars);
        if let Some(cnf) = &mut self.mirror {
            cnf.header(num_vars, num_clauses);
        }
    }

    fn clause(&mut self, lits: &[Lit]) {
        self.engine.add_clause(lits);
        if let Some(cnf) = &mut self.mirror {
            cnf.clause(lits);
        }
    }
}

/// The solving backend behind the plain-solve path: either one configured
/// solver behind the trait object, or the concrete portfolio engine (kept
/// concrete so the `c workers` summary can read its per-worker reports).
enum EngineHolder {
    Single(Box<dyn SatEngine>),
    Portfolio(Box<PortfolioEngine>),
}

impl EngineHolder {
    fn as_engine(&mut self) -> &mut dyn SatEngine {
        match self {
            EngineHolder::Single(e) => &mut **e,
            EngineHolder::Portfolio(p) => &mut **p,
        }
    }

    fn into_engine(self) -> Box<dyn SatEngine> {
        match self {
            EngineHolder::Single(e) => e,
            EngineHolder::Portfolio(p) => p,
        }
    }

    fn stats(&self) -> &berkmin::Stats {
        match self {
            EngineHolder::Single(e) => e.stats(),
            EngineHolder::Portfolio(p) => p.stats(),
        }
    }

    fn portfolio(&self) -> Option<&PortfolioEngine> {
        match self {
            EngineHolder::Single(_) => None,
            EngineHolder::Portfolio(p) => Some(p),
        }
    }

    /// The portfolio's `"workers"` section of `--stats-json`, if any.
    fn workers_json(&self) -> Option<(String, JsonValue)> {
        self.portfolio()
            .map(|p| ("workers".to_string(), workers_json(p)))
    }
}

/// Formats the per-worker portfolio summary: winner id, pool eviction
/// pressure, then each worker's outcome, conflict spend and sharing
/// traffic.
fn workers_line(portfolio: &PortfolioEngine) -> String {
    let mut line = format!("c workers {}", portfolio.reports().len());
    match portfolio.winner() {
        Some(w) => line.push_str(&format!(" winner {w}")),
        None => line.push_str(" winner none"),
    }
    line.push_str(&format!(" evicted {}", portfolio.stats().pool_evicted));
    for r in portfolio.reports() {
        line.push_str(&format!(
            "  w{} {} conflicts {} exported {} imported {}",
            r.id,
            outcome_name(r.outcome),
            r.conflicts,
            r.exported,
            r.imported
        ));
    }
    line
}

/// A worker outcome as the `c workers` line and `--stats-json` spell it.
fn outcome_name(outcome: WorkerOutcome) -> &'static str {
    match outcome {
        WorkerOutcome::Sat => "sat",
        WorkerOutcome::Unsat => "unsat",
        WorkerOutcome::Stopped(_) => "stopped",
    }
}

/// The worker name shown in a `-v` table row: blank for the single engine,
/// `wN` under the portfolio.
fn worker_tag(worker: Option<usize>) -> String {
    worker.map(|w| format!("w{w}")).unwrap_or_default()
}

/// The `-v/--verbose` observer: a MiniSat-style progress table, one row
/// per progress tick, with restart/reduction annotations. Portfolio
/// worker events arrive tagged and print under their `wN` label.
fn verbose_observer() -> impl FnMut(&SolveEvent) + Send + 'static {
    let mut header_printed = false;
    move |event: &SolveEvent| {
        let (worker, inner) = match event {
            SolveEvent::Worker { worker, event } => (Some(*worker), &**event),
            other => (None, other),
        };
        match inner {
            SolveEvent::Progress {
                conflicts,
                trail,
                heap,
                learnt,
                avg_lbd,
            } => {
                if !header_printed {
                    println!("c | who |  conflicts |  trail |   heap | learnt | avg lbd |");
                    header_printed = true;
                }
                println!(
                    "c | {:>3} | {conflicts:>10} | {trail:>6} | {heap:>6} | {learnt:>6} | {avg_lbd:>7.2} |",
                    worker_tag(worker)
                );
            }
            SolveEvent::Restart {
                restarts,
                conflicts,
            } => println!(
                "c {:>3} restart {restarts} at conflict {conflicts}",
                worker_tag(worker)
            ),
            SolveEvent::Reduce {
                live_before,
                live_after,
                words_reclaimed,
            } => println!(
                "c {:>3} reduce {live_before} -> {live_after} clauses \
                 ({words_reclaimed} words reclaimed)",
                worker_tag(worker)
            ),
            SolveEvent::WorkerDone { worker, verdict } => {
                println!("c w{worker} done: {verdict}");
            }
            SolveEvent::PoolEvicted { evicted } => {
                println!("c share pool evicted {evicted} clauses (capacity pressure)");
            }
            _ => {}
        }
    }
}

/// Writes the machine-readable run summary to `path`. `extra` carries
/// additional top-level sections (worker reports, BMC depths) that parsers
/// of the core schema ignore.
fn write_stats_json(
    path: &str,
    verdict: SolveVerdict,
    seconds: f64,
    stats: &Stats,
    extra: Vec<(String, JsonValue)>,
) -> Result<(), String> {
    let mut value = StatsSnapshot::new(verdict, seconds, stats).to_json();
    if let JsonValue::Object(fields) = &mut value {
        fields.extend(extra);
    }
    fs::write(path, value.render()).map_err(|e| format!("cannot write stats to {path}: {e}"))
}

/// The portfolio's per-worker reports as a JSON array (the `"workers"`
/// section of `--stats-json`).
fn workers_json(portfolio: &PortfolioEngine) -> JsonValue {
    JsonValue::Array(
        portfolio
            .reports()
            .iter()
            .map(|r| {
                JsonValue::Object(vec![
                    ("id".to_string(), JsonValue::Int(r.id as u64)),
                    (
                        "outcome".to_string(),
                        JsonValue::Str(outcome_name(r.outcome).to_string()),
                    ),
                    ("winner".to_string(), JsonValue::Bool(r.winner)),
                    ("conflicts".to_string(), JsonValue::Int(r.conflicts)),
                    ("decisions".to_string(), JsonValue::Int(r.decisions)),
                    ("exported".to_string(), JsonValue::Int(r.exported)),
                    ("imported".to_string(), JsonValue::Int(r.imported)),
                ])
            })
            .collect(),
    )
}

/// Streams the DIMACS input (file or stdin) into `sink` without buffering
/// the whole text, exiting with code 2 on I/O or parse errors.
fn stream_input(file: &Option<String>, sink: &mut Ingest) -> dimacs::DimacsSummary {
    let result = match file {
        Some(path) => match fs::File::open(path) {
            Ok(f) => dimacs::stream_into(std::io::BufReader::new(f), sink),
            Err(e) => die(format!("cannot read {path}: {e}")),
        },
        None => dimacs::stream_into(std::io::stdin().lock(), sink),
    };
    result.unwrap_or_else(|e| die(format!("cannot read DIMACS input: {e}")))
}

/// Clause sink that checks every streamed clause against a model — how
/// the SAT answer of the streaming (no intermediate `Cnf`) path gets its
/// self-verification back: the input file is streamed a second time,
/// clause by clause, against the model.
struct ModelCheck<'a> {
    model: &'a Assignment,
    ok: bool,
}

impl ClauseSink for ModelCheck<'_> {
    fn clause(&mut self, lits: &[Lit]) {
        if !lits.iter().any(|&l| self.model.satisfies(l)) {
            self.ok = false;
        }
    }
}

/// Self-verifies a SAT model: against the mirror `Cnf` when one was kept
/// (`--check-proof`), else by re-streaming the input file. Returns `None`
/// when verification is impossible (stdin input, or the file vanished) —
/// the model is still correct by construction of the solver.
fn verify_model(model: &Assignment, mirror: &Option<Cnf>, file: &Option<String>) -> Option<bool> {
    if let Some(cnf) = mirror {
        return Some(cnf.is_satisfied_by(model));
    }
    let path = file.as_ref()?;
    let f = fs::File::open(path).ok()?;
    let mut check = ModelCheck { model, ok: true };
    dimacs::stream_into(std::io::BufReader::new(f), &mut check).ok()?;
    Some(check.ok)
}

/// Prints the `v` model lines, wrapped at ≤ 78 columns as the
/// SAT-competition output format requires.
fn print_model(model: &Assignment, num_vars: usize) {
    let mut line = String::from("v");
    let push_tok = |line: &mut String, tok: &str| {
        if line.len() + 1 + tok.len() > 78 {
            println!("{line}");
            line.clear();
            line.push('v');
        }
        line.push(' ');
        line.push_str(tok);
    };
    for i in 0..num_vars {
        let var = Var::new(i as u32);
        let lit = if model.value(var) == LBool::True {
            (i as i64) + 1
        } else {
            -((i as i64) + 1)
        };
        push_tok(&mut line, &lit.to_string());
    }
    push_tok(&mut line, "0");
    println!("{line}");
}

/// The `bmc` subcommand: sweep an enabled-counter netlist for the first
/// depth at which the all-ones state is reachable — incrementally (one
/// growing encoding, one warm engine, per-depth activation literals) or,
/// with `--scratch`, by re-unrolling and re-solving every depth.
fn run_bmc(opts: &Options) -> ExitCode {
    let bits = opts.bits.unwrap_or(3);
    let max_depth = opts.max_depth.unwrap_or((1 << bits) - 1);
    let pattern: Vec<(usize, bool)> = (0..bits).map(|o| (o, true)).collect();
    if !opts.quiet {
        println!(
            "c berkmin-cli bmc: {bits}-bit enabled counter, all-ones target, \
             depths 0..={max_depth}, {} mode",
            if opts.scratch {
                "scratch"
            } else {
                "incremental"
            }
        );
    }

    let netlist = enabled_counter(bits);
    let start = std::time::Instant::now();
    // Per-depth record for --stats-json: (depth, result, conflicts so far).
    let mut depths: Vec<(usize, &'static str, u64)> = Vec::new();
    let on_depth = |t: usize, status: &SolveStatus, so_far: u64| {
        depths.push((t, describe(status), so_far));
        if !opts.quiet {
            println!(
                "c depth {t}: {} (conflicts so far {so_far})",
                describe(status)
            );
        }
    };
    let mut holder = (!opts.scratch).then(|| build_engine(opts, None));
    // An aborted sweep (budget/termination) still prints the summary lines
    // below: an unknown verdict must never swallow the run's accounting.
    let (outcome, total_conflicts) = match &mut holder {
        Some(holder) => {
            // The incremental sweep runs entirely behind the trait object:
            // the engine options only decide what gets assembled.
            let mut driver = BmcDriver::with_engine(netlist, holder.as_engine());
            let outcome = driver.first_reaching_depth(&pattern, max_depth, on_depth);
            (outcome, driver.engine().stats().conflicts)
        }
        None => scratch_first_reaching_depth(
            &netlist,
            &pattern,
            max_depth,
            || build_engine(opts, None).into_engine(),
            on_depth,
        ),
    };
    let final_stats = match &holder {
        Some(holder) => {
            let s = holder.stats();
            if !opts.quiet {
                println!(
                    "c warm engine: {} solve calls, {} learnt total, {} deleted",
                    s.solve_calls, s.learnt_total, s.deleted_clauses
                );
                if let Some(p) = holder.portfolio() {
                    println!("{}", workers_line(p));
                }
            }
            s.clone()
        }
        // Scratch mode has no single engine to snapshot; the stats block
        // carries the summed conflict count only.
        None => Stats {
            conflicts: total_conflicts,
            ..Stats::default()
        },
    };

    if !opts.quiet {
        println!(
            "c time {:.3} s  total conflicts {total_conflicts}",
            start.elapsed().as_secs_f64()
        );
    }

    let verdict = match outcome {
        BmcOutcome::Reached { .. } => SolveVerdict::Sat,
        BmcOutcome::Aborted { .. } => SolveVerdict::Unknown,
        BmcOutcome::Exhausted => SolveVerdict::Unsat,
    };
    if let Some(path) = &opts.stats_json {
        let depths_json = JsonValue::Array(
            depths
                .iter()
                .map(|&(depth, result, conflicts)| {
                    JsonValue::Object(vec![
                        ("depth".to_string(), JsonValue::Int(depth as u64)),
                        ("result".to_string(), JsonValue::Str(result.to_string())),
                        ("conflicts".to_string(), JsonValue::Int(conflicts)),
                    ])
                })
                .collect(),
        );
        let mut extra = vec![("depths".to_string(), depths_json)];
        if let Some(holder) = &holder {
            extra.extend(holder.workers_json());
        }
        if let Err(e) = write_stats_json(
            path,
            verdict,
            start.elapsed().as_secs_f64(),
            &final_stats,
            extra,
        ) {
            eprintln!("internal error: {e}");
            return ExitCode::from(3);
        }
    }

    match outcome {
        BmcOutcome::Reached { depth, .. } => {
            println!("s SATISFIABLE");
            println!("c all-ones first reachable at depth {depth}");
            ExitCode::from(10)
        }
        BmcOutcome::Aborted { depth, reason } => {
            println!("s UNKNOWN");
            println!("c stopped at depth {depth}: {reason}");
            ExitCode::SUCCESS
        }
        BmcOutcome::Exhausted => {
            println!("s UNSATISFIABLE");
            println!("c all-ones unreachable within depth {max_depth}");
            ExitCode::from(20)
        }
    }
}

fn describe(status: &SolveStatus) -> &'static str {
    match status {
        SolveStatus::Sat(_) => "reachable",
        SolveStatus::Unsat => "unreachable",
        SolveStatus::Unknown(_) => "unknown",
    }
}

fn main() -> ExitCode {
    let opts = parse_args();
    if opts.bmc {
        return run_bmc(&opts);
    }

    // The proof sink attaches at construction time, shared through an Rc
    // so the recorded proof can be read back after solving.
    let want_proof = opts.proof_path.is_some() || opts.check_proof;
    let proof = Rc::new(RefCell::new(DratProof::new()));
    let mut holder = build_engine(&opts, want_proof.then(|| Rc::clone(&proof)));

    // Stream the input straight into the engine. A mirror Cnf is retained
    // only for --check-proof, whose RUP checker needs the original formula.
    let mut mirror = opts.check_proof.then(Cnf::new);
    let summary = {
        let mut ingest = Ingest {
            engine: holder.as_engine(),
            mirror: mirror.as_mut(),
        };
        stream_input(&opts.file, &mut ingest)
    };
    if !opts.quiet {
        println!(
            "c berkmin-cli: {} variables, {} clauses",
            summary.num_vars, summary.num_clauses
        );
    }

    let start = std::time::Instant::now();
    let status = holder.as_engine().solve();
    let elapsed = start.elapsed();

    if !opts.quiet {
        let s = holder.stats();
        println!(
            "c decisions {} conflicts {} propagations {} restarts {} learnt {}",
            s.decisions, s.conflicts, s.propagations, s.restarts, s.learnt_total
        );
        // Propagation throughput: the arena/BCP speedups show up here
        // without needing the criterion benches. The long-watcher visits
        // and arena touches behind it tell fewer visits from cheaper ones.
        // Average glue (LBD) of the learnt clauses rides along — low glue
        // means reusable lemmas.
        let secs = elapsed.as_secs_f64().max(1e-9);
        println!(
            "c time {:.3} s  propagation rate {:.0} lits/sec  watchers visited {} \
             (clauses touched {})  gc {} ({} words reclaimed)  avg lbd {:.2} (max {})",
            elapsed.as_secs_f64(),
            s.propagations as f64 / secs,
            s.watchers_visited,
            s.clauses_touched,
            s.gc_runs,
            s.gc_words_reclaimed,
            s.avg_lbd(),
            s.lbd_max
        );
        let simp = opts.config.simplify;
        if simp.subsumption || simp.var_elim {
            println!(
                "c simplify subsumed {} strengthened {} eliminated {} resolvents {}",
                s.clauses_subsumed, s.clauses_strengthened, s.vars_eliminated, s.elim_resolvents
            );
        }
        if let Some(p) = holder.portfolio() {
            println!("{}", workers_line(p));
        }
    }

    if let Some(path) = &opts.stats_json {
        if let Err(e) = write_stats_json(
            path,
            SolveVerdict::from(&status),
            elapsed.as_secs_f64(),
            holder.stats(),
            holder.workers_json().into_iter().collect(),
        ) {
            eprintln!("internal error: {e}");
            return ExitCode::from(3);
        }
    }

    match status {
        SolveStatus::Sat(model) => {
            println!("s SATISFIABLE");
            if opts.print_model {
                print_model(&model, summary.num_vars);
            }
            if verify_model(&model, &mirror, &opts.file) == Some(false) {
                eprintln!("internal error: model verification failed");
                return ExitCode::from(3);
            }
            ExitCode::from(10) // SAT-competition exit code
        }
        SolveStatus::Unsat => {
            println!("s UNSATISFIABLE");
            let proof = proof.borrow();
            if let Some(path) = &opts.proof_path {
                if let Err(e) = fs::File::create(path).and_then(|f| proof.write_text(f)) {
                    eprintln!("cannot write proof to {path}: {e}");
                    return ExitCode::from(3);
                }
                if !opts.quiet {
                    println!("c proof: {} steps written to {path}", proof.len());
                }
            }
            if opts.check_proof {
                let cnf = mirror.as_ref().expect("mirror kept for --check-proof");
                let start = std::time::Instant::now();
                match check_refutation(cnf, &proof) {
                    Ok(report) => {
                        if !opts.quiet {
                            println!(
                                "c proof checked: {} additions verified ({} by hints, {} by \
                                 full RUP), {} deletions applied, {} ignored, {:.3} s",
                                report.additions_checked,
                                report.additions_hinted,
                                report.additions_checked - report.additions_hinted,
                                report.deletions_applied,
                                report.deletions_ignored,
                                start.elapsed().as_secs_f64()
                            );
                        }
                    }
                    Err(e) => {
                        eprintln!("internal error: proof rejected: {e}");
                        return ExitCode::from(3);
                    }
                }
            }
            ExitCode::from(20) // SAT-competition exit code
        }
        SolveStatus::Unknown(reason) => {
            println!("s UNKNOWN");
            if !opts.quiet {
                println!("c stopped: {reason}");
            }
            ExitCode::SUCCESS
        }
    }
}
