//! Incremental-vs-scratch bounded model checking on the enabled-counter
//! netlist: the clause-reusing `BmcDriver` sweep against per-depth scratch
//! re-unrolling/re-solving. Beyond wall-clock, each incremental iteration
//! asserts the acceptance property directly — same failure depth as
//! scratch, strictly fewer total conflicts — so the `-- --test` smoke run
//! in CI re-checks it on every push. The property is checked twice: for a
//! single warm solver and for the deterministic two-worker portfolio,
//! whose workers must stay warm across the per-depth calls too.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use berkmin::{PortfolioConfig, PortfolioEngine, SatEngine, SolverBuilder, SolverConfig};
use berkmin_circuit::arith::enabled_counter;
use berkmin_circuit::bmc::{scratch_first_reaching_depth, BmcDriver, BmcOutcome};

/// The shared scratch baseline, reduced to (first SAT depth, conflicts).
fn scratch_sweep(bits: usize, max_depth: usize) -> (Option<usize>, u64) {
    let pattern: Vec<(usize, bool)> = (0..bits).map(|o| (o, true)).collect();
    let cfg = SolverConfig::berkmin();
    let (outcome, conflicts) = scratch_first_reaching_depth(
        &enabled_counter(bits),
        &pattern,
        max_depth,
        &cfg,
        |_, _, _| {},
    );
    match outcome {
        BmcOutcome::Reached { depth, .. } => (Some(depth), conflicts),
        BmcOutcome::Exhausted => (None, conflicts),
        BmcOutcome::Aborted { reason, .. } => panic!("scratch aborted without budget: {reason}"),
    }
}

/// Incremental sweep with one warm driver. Returns depth and conflicts.
fn incremental_sweep(bits: usize, max_depth: usize) -> (Option<usize>, u64) {
    let pattern: Vec<(usize, bool)> = (0..bits).map(|o| (o, true)).collect();
    let mut driver = BmcDriver::new(enabled_counter(bits), SolverConfig::berkmin());
    let depth = match driver.first_reaching_depth(&pattern, max_depth) {
        BmcOutcome::Reached { depth, .. } => Some(depth),
        BmcOutcome::Exhausted => None,
        BmcOutcome::Aborted { reason, .. } => panic!("aborted without budget: {reason}"),
    };
    (depth, driver.engine().stats().conflicts)
}

/// The same incremental sweep, but driven through a `Box<dyn SatEngine>`
/// trait object — the API-redesign guard: the trait indirection must cost
/// nothing observable, i.e. the search (conflict count) is *identical* to
/// the concrete-type path.
fn dyn_engine_sweep(bits: usize, max_depth: usize) -> (Option<usize>, u64) {
    let pattern: Vec<(usize, bool)> = (0..bits).map(|o| (o, true)).collect();
    let engine: Box<dyn SatEngine> =
        SolverBuilder::with_config(SolverConfig::berkmin()).build_engine();
    let mut driver = BmcDriver::with_engine(enabled_counter(bits), engine);
    let depth = match driver.first_reaching_depth(&pattern, max_depth) {
        BmcOutcome::Reached { depth, .. } => Some(depth),
        BmcOutcome::Exhausted => None,
        BmcOutcome::Aborted { reason, .. } => panic!("aborted without budget: {reason}"),
    };
    (depth, driver.engine().stats().conflicts)
}

/// The same incremental sweep through the deterministic two-worker
/// portfolio with clause sharing (the `bmc-portfolio` benchmark's engine,
/// without its budget). Conflicts are summed over both workers.
fn portfolio_sweep(bits: usize, max_depth: usize) -> (Option<usize>, u64) {
    let pattern: Vec<(usize, bool)> = (0..bits).map(|o| (o, true)).collect();
    let engine = PortfolioEngine::new(
        PortfolioConfig::new(2)
            .with_deterministic(true)
            .with_share_lbd(Some(4)),
    );
    let mut driver = BmcDriver::with_engine(enabled_counter(bits), engine);
    let depth = match driver.first_reaching_depth(&pattern, max_depth) {
        BmcOutcome::Reached { depth, .. } => Some(depth),
        BmcOutcome::Exhausted => None,
        BmcOutcome::Aborted { reason, .. } => panic!("portfolio aborted without budget: {reason}"),
    };
    (depth, driver.engine().stats().conflicts)
}

fn bench_incremental_bmc(c: &mut Criterion) {
    let mut group = c.benchmark_group("incremental_bmc");
    group.sample_size(10);
    for bits in [3usize, 4] {
        let horizon = (1 << bits) - 1;
        // Acceptance check, once and untimed: same failure depth, strictly
        // fewer total conflicts for the clause-reusing driver.
        let (scratch_depth, scratch_conflicts) = scratch_sweep(bits, horizon);
        let (incremental_depth, incremental_conflicts) = incremental_sweep(bits, horizon);
        assert_eq!(scratch_depth, Some(horizon));
        assert_eq!(incremental_depth, scratch_depth);
        assert!(
            incremental_conflicts < scratch_conflicts,
            "clause reuse regressed at {bits} bits: incremental \
             {incremental_conflicts} >= scratch {scratch_conflicts} conflicts"
        );
        // Trait-object guard: the dyn-SatEngine sweep must be search-for-
        // search identical to the concrete-type sweep.
        let (dyn_depth, dyn_conflicts) = dyn_engine_sweep(bits, horizon);
        assert_eq!(dyn_depth, incremental_depth);
        assert_eq!(
            dyn_conflicts, incremental_conflicts,
            "dyn SatEngine indirection changed the search at {bits} bits"
        );
        // Warm portfolio guard: persistent workers must beat scratch too.
        let (portfolio_depth, portfolio_conflicts) = portfolio_sweep(bits, horizon);
        assert_eq!(portfolio_depth, scratch_depth);
        assert!(
            portfolio_conflicts < scratch_conflicts,
            "warm portfolio regressed at {bits} bits: portfolio \
             {portfolio_conflicts} >= scratch {scratch_conflicts} conflicts"
        );
        group.bench_function(format!("scratch_cnt{bits}e"), |b| {
            b.iter_batched(
                || (),
                |()| scratch_sweep(bits, horizon),
                BatchSize::SmallInput,
            )
        });
        group.bench_function(format!("incremental_cnt{bits}e"), |b| {
            b.iter_batched(
                || (),
                |()| incremental_sweep(bits, horizon),
                BatchSize::SmallInput,
            )
        });
        group.bench_function(format!("portfolio_cnt{bits}e"), |b| {
            b.iter_batched(
                || (),
                |()| portfolio_sweep(bits, horizon),
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_incremental_bmc);
criterion_main!(benches);
