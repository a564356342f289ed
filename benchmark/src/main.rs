//! The repository benchmark: one command that builds a workload's inputs
//! from a seed, runs it as a closed loop for a fixed time, checks every
//! answer with an independent oracle, and prints every metric by name
//! with its unit.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--fresh]
//! perfbench pin <r3sat|miter> <count>
//! ```
//!
//! An untraced run (`--trace 0`) prints the end-to-end metrics; a traced
//! run (`--trace 1`) spends the first half of its time untraced and the
//! second half traced, and prints the per-layer metrics plus the tracing
//! overhead. The last line of standard output is the JSON result; the
//! exit code is non-zero when any answer failed its check. See
//! `README.md` beside this crate for the workloads and their metrics.

mod metrics;
mod oracle;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use metrics::{best, median, END_TO_END, PER_LAYER, TAIL_BEYOND};
use trace::Layers;
use workloads::{Op, Workload};

/// A set-up sample times batches of set-ups until it has run this long
/// and keeps the fastest batch, for the reason operation samples keep
/// their best pass. `setup_s` is the median of the samples.
const SETUP_SAMPLE_MIN: Duration = Duration::from_millis(50);

/// A batch repeats the set-up until it has run this long and divides by
/// the count, so that a set-up of well under a microsecond is timed far
/// above the timer's resolution.
const SETUP_BATCH_MIN: Duration = Duration::from_millis(1);

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> \
                     --trace <0|1> [--fresh]\n       perfbench pin <r3sat|miter> <count>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    fresh: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        fresh: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--fresh" => args.fresh = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Samples gathered from a run's passes.
#[derive(Default)]
struct Tally {
    walls: Vec<f64>,
    /// Operation times, one vector per pass.
    passes: Vec<Vec<f64>>,
    attempted: usize,
    failures: Vec<String>,
}

impl Tally {
    /// Records one pass. Its wall time is the sum of its operations: the
    /// closed loop from the first ingest to the last verdict, without the
    /// oracle checks between operations.
    fn add(&mut self, ops: Vec<Op>) {
        self.walls.push(ops.iter().map(|op| op.secs).sum());
        self.passes.push(ops.iter().map(|op| op.secs).collect());
        self.attempted += ops.len();
        self.failures
            .extend(ops.into_iter().filter_map(|op| op.failure));
    }

    /// One sample per operation: its best time over the passes. A busy
    /// neighbour on a shared host only ever adds time, so the best of
    /// several passes is the reading it disturbs least. Every pass runs
    /// the same operations, so the sample count is fixed by the workload,
    /// not by how many passes fit in the run.
    fn op_samples(&self) -> Vec<f64> {
        let ops = self.passes.first().map_or(0, Vec::len);
        (0..ops)
            .map(|i| {
                let times: Vec<f64> = self.passes.iter().map(|p| p[i]).collect();
                best(&times)
            })
            .collect()
    }

    /// One pass with every operation at its best: the sum of the
    /// operation samples. A whole pass is less likely to fall in a quiet
    /// stretch of the host than each of its operations is.
    fn wall(&self) -> f64 {
        self.op_samples().iter().sum()
    }
}

/// Runs one pass into `tally`, returning how long it took.
fn run_pass(tally: &mut Tally, pass: impl FnOnce() -> Vec<Op>) -> Duration {
    let start = Instant::now();
    tally.add(pass());
    start.elapsed()
}

/// Runs passes while at least half of another pass, judged by the `last`
/// one, fits before `deadline`; a run thus overshoots its time by at most
/// about half a pass. `between` runs after each pass, outside its timer.
fn run_passes(
    start: Instant,
    deadline: Duration,
    mut last: Duration,
    tally: &mut Tally,
    mut pass: impl FnMut() -> Vec<Op>,
    mut between: impl FnMut() -> Result<(), String>,
) -> Result<(), String> {
    while start.elapsed() + last / 2 < deadline {
        last = run_pass(tally, &mut pass);
        between()?;
    }
    Ok(())
}

/// One `setup_s` sample: the fastest per-set-up time of the batches run
/// until [`SETUP_SAMPLE_MIN`] has passed.
fn setup_sample(setup: &impl Fn() -> Result<Box<dyn Workload>, String>) -> Result<f64, String> {
    let start = Instant::now();
    let mut fastest = f64::INFINITY;
    while fastest.is_infinite() || start.elapsed() < SETUP_SAMPLE_MIN {
        let batch = Instant::now();
        let mut reps = 0;
        while reps == 0 || batch.elapsed() < SETUP_BATCH_MIN {
            drop(setup()?);
            reps += 1;
        }
        fastest = fastest.min(batch.elapsed().as_secs_f64() / f64::from(reps));
    }
    Ok(fastest)
}

/// A printed metric: name, unit and value.
type Metric = (&'static str, &'static str, f64);

fn run(args: &Args) -> Result<(Tally, Vec<Metric>), String> {
    let setup = || workloads::setup(&args.workload, args.seed, args.fresh);
    let mut workload = setup()?;
    workload.certify()?;

    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut tally = Tally::default();
    // The peak is read after the first pass: later passes repeat its
    // allocations, and the set-up samples below allocate a
    // timing-dependent number of times.
    let first = run_pass(&mut tally, || workload.pass(None));
    let peak_rss_mb = metrics::peak_rss_mb()?;
    // Set-up samples are taken between passes, spread over the run: on a
    // shared host the speed can change from one second to the next, and
    // samples taken back to back would all land in the same phase.
    let mut setups = vec![setup_sample(&setup)?];
    let untraced = if args.trace { budget / 2 } else { budget };
    run_passes(
        start,
        untraced,
        first,
        &mut tally,
        || workload.pass(None),
        || {
            setups.push(setup_sample(&setup)?);
            Ok(())
        },
    )?;

    let values: Vec<(&str, f64)> = if args.trace {
        let untraced_wall = tally.wall();
        let mut traced = Tally::default();
        let mut per_pass: Vec<Vec<(&str, f64)>> = Vec::new();
        let mut traced_pass = || {
            let mut layers = Layers::default();
            let ops = workload.pass(Some(&mut layers));
            per_pass.push(layers.metrics());
            ops
        };
        let first = run_pass(&mut traced, &mut traced_pass);
        run_passes(start, budget, first, &mut traced, traced_pass, || Ok(()))?;
        let overhead = metrics::ratio(traced.wall(), untraced_wall) - 1.0;
        tally.attempted += traced.attempted;
        tally.failures.append(&mut traced.failures);
        println!(
            "# {} untraced and {} traced passes",
            tally.walls.len(),
            traced.walls.len()
        );
        let mut values: Vec<(&str, f64)> = per_pass[0]
            .iter()
            .enumerate()
            .map(|(i, (name, _))| {
                let samples: Vec<f64> = per_pass.iter().map(|m| m[i].1).collect();
                (*name, median(&samples))
            })
            .collect();
        values.push(("telemetry.trace_overhead_frac", overhead));
        values
    } else {
        let samples = tally.op_samples();
        let tail = metrics::tail(&samples, TAIL_BEYOND);
        println!(
            "# {} passes ({:.3?} s); op_s_tail is p{:.2} of {} operation samples ({} beyond)",
            tally.walls.len(),
            tally.walls,
            tail.percentile,
            tail.count,
            tail.beyond
        );
        vec![
            ("wall_s", tally.wall()),
            ("op_s_p50", median(&samples)),
            ("op_s_tail", tail.value),
            ("setup_s", median(&setups)),
            ("peak_rss_mb", peak_rss_mb),
        ]
    };

    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    let metrics = declared
        .iter()
        .map(|&(name, unit)| {
            let value = values
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, v)| v)
                .unwrap_or_else(|| panic!("metric {name} was not computed"));
            (name, unit, value)
        })
        .collect();
    Ok((tally, metrics))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("pin") {
        let count = argv.get(2).and_then(|c| c.parse().ok());
        let (Some(kind), Some(count)) = (argv.get(1), count) else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        return match oracle::pin(kind, count) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench pin: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((tally, metrics)) => {
            for failure in tally.failures.iter().take(10) {
                eprintln!("perfbench: failed operation: {failure}");
            }
            println!(
                "{}",
                metrics::render_result(tally.attempted, tally.failures.len(), &metrics)
            );
            if tally.failures.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_run_arguments() {
        let a = parse_args(&argv("--workload r3sat --seed 7 --seconds 20 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("r3sat", 7, 20.0, true)
        );
        assert!(!a.fresh);
    }

    #[test]
    fn operation_samples_are_bests_over_passes() {
        let op = |secs| Op {
            secs,
            failure: None,
        };
        let mut tally = Tally::default();
        tally.add(vec![op(1.0), op(5.0)]);
        tally.add(vec![op(3.0), op(4.0)]);
        tally.add(vec![op(2.0), op(9.0)]);
        assert_eq!(tally.op_samples(), vec![1.0, 4.0]);
        assert_eq!(tally.wall(), 5.0);
        assert_eq!(tally.walls, vec![6.0, 7.0, 11.0]);
        assert_eq!(tally.attempted, 6);
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "",
            "--seed 1",
            "--workload r3sat --trace 2",
            "--workload r3sat --seconds 0",
            "--workload r3sat --bogus",
            "--workload r3sat --seed",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?}");
        }
    }
}
