//! Structured solver telemetry: typed solve events, an observer hook, and
//! machine-readable statistics snapshots.
//!
//! The paper's entire evaluation is built on instrumented counters (the
//! Table 3 skin-effect histogram, Table 8 decision counts, Table 9
//! database-size ratios); this module is the runtime half of that story —
//! a structured event stream a caller can tap while the search runs,
//! instead of scraping ad-hoc `c` lines off the CLI.
//!
//! Three pieces:
//!
//! * [`SolveEvent`] — the typed event vocabulary: solve-call begin/end
//!   (with per-call counter deltas), restarts, §8 database reductions,
//!   periodic progress ticks, clause-sharing traffic, and portfolio worker
//!   lifecycle. Portfolio workers' own events arrive wrapped in
//!   [`SolveEvent::Worker`] so one observer can demultiplex a whole race.
//! * [`SolveObserver`] — the observer hook. Any `FnMut(&SolveEvent)`
//!   closure qualifies. Attach via
//!   [`SolverBuilder::on_event`](crate::SolverBuilder::on_event),
//!   [`Solver::set_observer`](crate::Solver::set_observer), or
//!   [`SatEngine::set_observer`](crate::SatEngine::set_observer). With no
//!   observer attached every emission site is a single `Option` check —
//!   the search pays nothing.
//! * [`StatsSnapshot`] + the [`json`] module — a hand-rolled JSON
//!   serialization of a run's verdict, timing and [`Stats`] counters (the
//!   workspace is offline-shimmed, so no serde). The test suite reads the
//!   CLI's `--stats-json` output back with [`json::parse`] and compares its
//!   `"stats"` object with [`stats_to_json`] of `engine.stats()`.

use crate::search::SolveStatus;
use crate::stats::Stats;

/// The decided-or-not outcome of a solve call, stripped of its payload
/// (model / failed core / stop reason) so it can be carried by value in
/// events and snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolveVerdict {
    /// A model was found.
    Sat,
    /// Unsatisfiability was proven (absolutely or under the assumptions).
    Unsat,
    /// The run stopped without an answer (budget or callback).
    Unknown,
}

impl SolveVerdict {
    /// The canonical uppercase name — matches the CLI's `s` line.
    pub fn as_str(&self) -> &'static str {
        match self {
            SolveVerdict::Sat => "SAT",
            SolveVerdict::Unsat => "UNSAT",
            SolveVerdict::Unknown => "UNKNOWN",
        }
    }
}

impl std::fmt::Display for SolveVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&SolveStatus> for SolveVerdict {
    fn from(status: &SolveStatus) -> Self {
        match status {
            SolveStatus::Sat(_) => SolveVerdict::Sat,
            SolveStatus::Unsat => SolveVerdict::Unsat,
            SolveStatus::Unknown(_) => SolveVerdict::Unknown,
        }
    }
}

/// One structured telemetry event.
///
/// Counter-carrying variants state explicitly whether the numbers are
/// *lifetime* totals (accumulated across solve calls, like [`Stats`]) or
/// *per-call* deltas.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveEvent {
    /// A solve call began (after the pending assumptions were consumed).
    SolveStart {
        /// 1-based index of this call on the engine (`stats().solve_calls`).
        call: u64,
        /// Variables known at call entry.
        num_vars: usize,
        /// Live clauses (original + learnt) at call entry.
        num_clauses: usize,
        /// Assumptions this call runs under.
        assumptions: usize,
    },
    /// The solve call ended. All counters are **per-call deltas**.
    SolveDone {
        /// How the call ended.
        verdict: SolveVerdict,
        /// Conflicts spent by this call.
        conflicts: u64,
        /// Decisions spent by this call.
        decisions: u64,
        /// Literals propagated by this call.
        propagations: u64,
        /// Restarts performed by this call.
        restarts: u64,
    },
    /// The preprocessor ran at solve entry (subsumption, self-subsuming
    /// resolution, bounded variable elimination). All counters are
    /// **per-run deltas** for this simplification, not lifetime totals.
    Simplify {
        /// Sweeps the run performed before reaching a fixpoint (or the cap
        /// of 3 rounds).
        rounds: u32,
        /// Clauses deleted by backward subsumption.
        subsumed: u64,
        /// Clauses strengthened by self-subsuming resolution.
        strengthened: u64,
        /// Variables dissolved by bounded variable elimination.
        eliminated: u64,
        /// Resolvent clauses added while eliminating variables.
        resolvents: u64,
        /// Live original clauses before the run.
        clauses_before: u64,
        /// Live original clauses after the run.
        clauses_after: u64,
    },
    /// The search abandoned its current tree (paper §1). Lifetime totals.
    Restart {
        /// Restarts performed so far (`stats().restarts`).
        restarts: u64,
        /// Conflicts encountered so far (`stats().conflicts`).
        conflicts: u64,
    },
    /// A §8 clause-database reduction ran (always directly after a
    /// restart).
    Reduce {
        /// Live clauses before the reduction.
        live_before: u64,
        /// Live clauses after the reduction.
        live_after: u64,
        /// Arena words reclaimed by the compacting collector this
        /// reduction.
        words_reclaimed: u64,
    },
    /// Periodic progress tick, emitted every 1024 conflicts of the current
    /// call.
    Progress {
        /// Lifetime conflict total at the tick.
        conflicts: u64,
        /// Current trail length (assigned literals).
        trail: usize,
        /// Variables queued in the decision heap (0 under
        /// [`ActivityIndex::NaiveScan`](crate::ActivityIndex::NaiveScan)).
        heap: usize,
        /// Live learnt clauses.
        learnt: usize,
        /// Average LBD ("glue") of all clauses learnt so far.
        avg_lbd: f64,
    },
    /// A portfolio worker integrated foreign clauses from the share pool.
    ShareImport {
        /// Clauses integrated at this poll (after level-0
        /// simplification).
        count: u64,
    },
    /// The bounded share pool evicted entries past its capacity during the
    /// last portfolio race (sharing is best-effort; eviction costs reuse,
    /// never soundness).
    PoolEvicted {
        /// Entries evicted during the race.
        evicted: u64,
    },
    /// A portfolio worker began solving.
    WorkerStart {
        /// Worker index.
        worker: usize,
    },
    /// A portfolio worker finished (answered, was cancelled, or retired).
    WorkerDone {
        /// Worker index.
        worker: usize,
        /// How its run ended.
        verdict: SolveVerdict,
    },
    /// An event emitted *inside* a portfolio worker's solver, tagged with
    /// the worker's index. The portfolio serializes these through one
    /// mutex, so a threaded race delivers an interleaved but well-formed
    /// stream; in deterministic mode the order is reproducible.
    Worker {
        /// Worker index.
        worker: usize,
        /// The worker's own event (never itself a [`SolveEvent::Worker`]).
        event: Box<SolveEvent>,
    },
}

/// Receiver of [`SolveEvent`]s.
///
/// Implemented for every `FnMut(&SolveEvent)` closure, so the common case
/// needs no named type:
///
/// ```
/// use std::sync::{Arc, Mutex};
/// use berkmin::{SolveEvent, SolverBuilder};
/// use berkmin_cnf::Lit;
///
/// let events = Arc::new(Mutex::new(Vec::new()));
/// let tap = Arc::clone(&events);
/// let mut solver = SolverBuilder::new()
///     .on_event(move |e: &SolveEvent| tap.lock().unwrap().push(e.clone()))
///     .clause([Lit::from_dimacs(1)])
///     .build();
/// assert!(solver.solve().is_sat());
/// let events = events.lock().unwrap();
/// assert!(matches!(events[0], SolveEvent::SolveStart { .. }));
/// assert!(matches!(events.last(), Some(SolveEvent::SolveDone { .. })));
/// ```
pub trait SolveObserver {
    /// Called once per emitted event, synchronously, on the solving
    /// thread. Keep it cheap — the search blocks on it.
    fn on_event(&mut self, event: &SolveEvent);
}

impl<F: FnMut(&SolveEvent)> SolveObserver for F {
    fn on_event(&mut self, event: &SolveEvent) {
        self(event);
    }
}

/// A machine-readable record of one finished run: verdict, wall-clock
/// seconds, and the engine's [`Stats`] — what the CLI's `--stats-json`
/// writes.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSnapshot {
    /// How the run ended.
    pub verdict: SolveVerdict,
    /// Wall-clock seconds the run took.
    pub seconds: f64,
    /// The engine's accumulated counters.
    pub stats: Stats,
}

impl StatsSnapshot {
    /// Captures a snapshot of `stats` under the given outcome.
    pub fn new(verdict: SolveVerdict, seconds: f64, stats: &Stats) -> Self {
        StatsSnapshot {
            verdict,
            seconds,
            stats: stats.clone(),
        }
    }

    /// The snapshot as a JSON value: `{"verdict": …, "seconds": …,
    /// "stats": {…}}` with the stats object per [`stats_to_json`].
    pub fn to_json(&self) -> json::Value {
        json::Value::Object(vec![
            (
                "verdict".to_string(),
                json::Value::Str(self.verdict.as_str().to_string()),
            ),
            ("seconds".to_string(), json::Value::Num(self.seconds)),
            ("stats".to_string(), stats_to_json(&self.stats)),
        ])
    }

    /// Renders the snapshot as a JSON document.
    pub fn render(&self) -> String {
        self.to_json().render()
    }
}

/// Serializes every [`Stats`] counter as a JSON object. The skin-effect
/// histogram becomes an array; the decision log (a debugging artifact of
/// [`SolverConfig::record_decisions`](crate::SolverConfig::record_decisions),
/// empty in normal runs) is **not** serialized.
pub fn stats_to_json(stats: &Stats) -> json::Value {
    use json::Value::{Array, Int};
    // Exhaustive on purpose: a counter added to `Stats` without a key here
    // fails to compile.
    let Stats {
        decisions,
        conflicts,
        propagations,
        watchers_visited,
        clauses_touched,
        restarts,
        reductions,
        learnt_total,
        learnt_units,
        learnt_lits_total,
        deleted_clauses,
        gc_runs,
        gc_words_reclaimed,
        max_live_clauses,
        initial_clauses,
        decisions_from_top_clause,
        decisions_from_free_var,
        top_distance_hist,
        decision_log: _,
        responsible_clauses,
        solve_calls,
        assumption_conflicts,
        lbd_sum,
        lbd_max,
        clauses_exported,
        clauses_imported,
        pool_evicted,
        clauses_subsumed,
        clauses_strengthened,
        vars_eliminated,
        elim_resolvents,
    } = stats;
    let hist = Array(top_distance_hist.iter().map(|&n| Int(n)).collect());
    let fields = [
        ("decisions", Int(*decisions)),
        ("conflicts", Int(*conflicts)),
        ("propagations", Int(*propagations)),
        ("watchers_visited", Int(*watchers_visited)),
        ("clauses_touched", Int(*clauses_touched)),
        ("restarts", Int(*restarts)),
        ("reductions", Int(*reductions)),
        ("learnt_total", Int(*learnt_total)),
        ("learnt_units", Int(*learnt_units)),
        ("learnt_lits_total", Int(*learnt_lits_total)),
        ("deleted_clauses", Int(*deleted_clauses)),
        ("gc_runs", Int(*gc_runs)),
        ("gc_words_reclaimed", Int(*gc_words_reclaimed)),
        ("max_live_clauses", Int(*max_live_clauses)),
        ("initial_clauses", Int(*initial_clauses)),
        ("decisions_from_top_clause", Int(*decisions_from_top_clause)),
        ("decisions_from_free_var", Int(*decisions_from_free_var)),
        ("top_distance_hist", hist),
        ("responsible_clauses", Int(*responsible_clauses)),
        ("solve_calls", Int(*solve_calls)),
        ("assumption_conflicts", Int(*assumption_conflicts)),
        ("lbd_sum", Int(*lbd_sum)),
        ("lbd_max", Int(u64::from(*lbd_max))),
        ("clauses_exported", Int(*clauses_exported)),
        ("clauses_imported", Int(*clauses_imported)),
        ("pool_evicted", Int(*pool_evicted)),
        ("clauses_subsumed", Int(*clauses_subsumed)),
        ("clauses_strengthened", Int(*clauses_strengthened)),
        ("vars_eliminated", Int(*vars_eliminated)),
        ("elim_resolvents", Int(*elim_resolvents)),
    ];
    json::Value::Object(
        fields
            .into_iter()
            .map(|(key, value)| (key.to_string(), value))
            .collect(),
    )
}

/// A minimal JSON value model, renderer and parser.
///
/// The workspace is offline-shimmed (no serde), so the telemetry layer
/// hand-rolls the little JSON it needs. The one deliberate refinement over
/// a toy model: integers get their own [`Value::Int`](json::Value::Int)
/// variant and are
/// parsed and rendered without ever passing through `f64`, so `u64`
/// counters round-trip **exactly** — the property the `--stats-json`
/// golden tests rely on.
pub mod json {
    /// A JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// A non-negative integer without fraction or exponent — kept
        /// exact (never routed through `f64`).
        Int(u64),
        /// Any other number.
        Num(f64),
        /// A string.
        Str(String),
        /// An array.
        Array(Vec<Value>),
        /// An object, with insertion order preserved.
        Object(Vec<(String, Value)>),
    }

    impl Value {
        /// Object field lookup (`None` for non-objects / missing keys).
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        /// The value as an exact unsigned integer.
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Value::Int(n) => Some(*n),
                _ => None,
            }
        }

        /// The value as a float (integers convert).
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Int(n) => Some(*n as f64),
                Value::Num(x) => Some(*x),
                _ => None,
            }
        }

        /// The value as a boolean.
        pub fn as_bool(&self) -> Option<bool> {
            match self {
                Value::Bool(b) => Some(*b),
                _ => None,
            }
        }

        /// The value as a string slice.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The value as an array slice.
        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Array(items) => Some(items),
                _ => None,
            }
        }

        /// Renders the value as a compact JSON document.
        pub fn render(&self) -> String {
            let mut out = String::new();
            self.render_into(&mut out);
            out
        }

        fn render_into(&self, out: &mut String) {
            match self {
                Value::Null => out.push_str("null"),
                Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                Value::Int(n) => out.push_str(&n.to_string()),
                Value::Num(x) => {
                    if x.is_finite() {
                        // `{}` prints integral floats bare ("3"), which is
                        // still valid JSON; non-finite floats have no JSON
                        // spelling and degrade to null.
                        out.push_str(&format!("{x}"));
                    } else {
                        out.push_str("null");
                    }
                }
                Value::Str(s) => render_string(s, out),
                Value::Array(items) => {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        item.render_into(out);
                    }
                    out.push(']');
                }
                Value::Object(fields) => {
                    out.push('{');
                    for (i, (key, value)) in fields.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        render_string(key, out);
                        out.push(':');
                        value.render_into(out);
                    }
                    out.push('}');
                }
            }
        }
    }

    fn render_string(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    /// Parses a JSON document. Rejects trailing garbage.
    pub fn parse(input: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(value)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while let Some(b) = self.bytes.get(self.pos) {
                if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn expect(&mut self, b: u8) -> Result<(), String> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(format!("expected '{}' at byte {}", char::from(b), self.pos))
            }
        }

        fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                Ok(value)
            } else {
                Err(format!("malformed literal at byte {}", self.pos))
            }
        }

        fn value(&mut self) -> Result<Value, String> {
            match self.peek() {
                Some(b'n') => self.literal("null", Value::Null),
                Some(b't') => self.literal("true", Value::Bool(true)),
                Some(b'f') => self.literal("false", Value::Bool(false)),
                Some(b'"') => self.string().map(Value::Str),
                Some(b'[') => self.array(),
                Some(b'{') => self.object(),
                Some(b'-' | b'0'..=b'9') => self.number(),
                _ => Err(format!("unexpected input at byte {}", self.pos)),
            }
        }

        fn number(&mut self) -> Result<Value, String> {
            let start = self.pos;
            while let Some(b) = self.peek() {
                if matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                    self.pos += 1;
                } else {
                    break;
                }
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| "non-UTF-8 number".to_string())?;
            // A plain non-negative integer stays exact; anything with a
            // sign, fraction or exponent goes through f64.
            if text.bytes().all(|b| b.is_ascii_digit()) {
                if let Ok(n) = text.parse::<u64>() {
                    return Ok(Value::Int(n));
                }
            }
            text.parse::<f64>()
                .map(Value::Num)
                .map_err(|_| format!("malformed number at byte {start}"))
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err("unterminated string".to_string()),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        match self.peek() {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'u') => {
                                let hex = self
                                    .bytes
                                    .get(self.pos + 1..self.pos + 5)
                                    .and_then(|h| std::str::from_utf8(h).ok())
                                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                                    .ok_or("malformed \\u escape")?;
                                // Surrogate pairs are not needed for the
                                // telemetry output; lone surrogates map to
                                // the replacement character.
                                out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                                self.pos += 4;
                            }
                            _ => return Err("malformed escape".to_string()),
                        }
                        self.pos += 1;
                    }
                    Some(_) => {
                        // Consume one UTF-8 scalar, not one byte.
                        let rest = std::str::from_utf8(&self.bytes[self.pos..])
                            .map_err(|_| "non-UTF-8 string".to_string())?;
                        let c = rest.chars().next().unwrap();
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
        }

        fn array(&mut self) -> Result<Value, String> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                self.skip_ws();
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(format!("malformed array at byte {}", self.pos)),
                }
            }
        }

        fn object(&mut self) -> Result<Value, String> {
            self.expect(b'{')?;
            let mut fields = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Value::Object(fields));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                let value = self.value()?;
                fields.push((key, value));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Value::Object(fields));
                    }
                    _ => return Err(format!("malformed object at byte {}", self.pos)),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::json::Value;
    use super::*;

    #[test]
    fn verdict_names_match_the_status_line() {
        let names = [
            SolveVerdict::Sat,
            SolveVerdict::Unsat,
            SolveVerdict::Unknown,
        ]
        .map(|v| v.to_string());
        assert_eq!(names, ["SAT", "UNSAT", "UNKNOWN"]);
    }

    #[test]
    fn json_values_render_and_parse_back() {
        let value = Value::Object(vec![
            ("name".to_string(), Value::Str("a \"b\"\n\\c".to_string())),
            ("count".to_string(), Value::Int(u64::MAX)),
            ("ratio".to_string(), Value::Num(1.5)),
            ("flag".to_string(), Value::Bool(true)),
            ("nothing".to_string(), Value::Null),
            (
                "items".to_string(),
                Value::Array(vec![Value::Int(1), Value::Int(2)]),
            ),
        ]);
        let parsed = json::parse(&value.render()).unwrap();
        assert_eq!(parsed, value);
        // u64::MAX survived exactly — it would not fit in an f64.
        assert_eq!(parsed.get("count").and_then(|v| v.as_u64()), Some(u64::MAX));
    }

    #[test]
    fn json_parser_handles_whitespace_and_rejects_garbage() {
        let v = json::parse(" { \"a\" : [ 1 , 2.5 , \"x\" ] } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert!(json::parse("{} trailing").is_err());
        assert!(json::parse("{\"a\":}").is_err());
        assert!(json::parse("[1,]").is_err());
        assert!(json::parse("").is_err());
    }

    #[test]
    fn negative_and_exponent_numbers_parse_as_floats() {
        let v = json::parse("[-3, 1e2, 0.5]").unwrap();
        let items = v.as_array().unwrap();
        assert_eq!(items[0].as_f64(), Some(-3.0));
        assert_eq!(items[0].as_u64(), None);
        assert_eq!(items[1].as_f64(), Some(100.0));
        assert_eq!(items[2].as_f64(), Some(0.5));
    }

    #[test]
    fn stats_round_trip_through_json_exactly() {
        let stats = Stats {
            decisions: 123,
            conflicts: u64::MAX - 7,
            propagations: 456,
            watchers_visited: 789,
            clauses_touched: 321,
            restarts: 3,
            reductions: 2,
            learnt_total: 40,
            lbd_sum: 100,
            lbd_max: 9,
            top_distance_hist: vec![5, 0, 2],
            pool_evicted: 11,
            clauses_subsumed: 6,
            vars_eliminated: 2,
            ..Stats::new()
        };
        let json = stats_to_json(&stats);
        assert_eq!(json::parse(&json.render()).unwrap(), json);
        assert_eq!(
            json.get("conflicts").and_then(Value::as_u64),
            Some(u64::MAX - 7)
        );
        assert_eq!(
            json.get("top_distance_hist").and_then(Value::as_array),
            Some(&[Value::Int(5), Value::Int(0), Value::Int(2)][..])
        );
    }

    #[test]
    fn snapshot_renders_verdict_seconds_and_stats() {
        let stats = Stats {
            conflicts: 17,
            ..Stats::new()
        };
        let snapshot = StatsSnapshot::new(SolveVerdict::Unsat, 0.25, &stats);
        let parsed = json::parse(&snapshot.render()).unwrap();
        assert_eq!(parsed.get("verdict").and_then(Value::as_str), Some("UNSAT"));
        assert_eq!(parsed.get("seconds").and_then(Value::as_f64), Some(0.25));
        assert_eq!(parsed.get("stats"), Some(&stats_to_json(&stats)));
    }

    #[test]
    fn closures_are_observers() {
        let mut seen = 0usize;
        {
            let mut obs = |_: &SolveEvent| seen += 1;
            obs.on_event(&SolveEvent::Restart {
                restarts: 1,
                conflicts: 550,
            });
            obs.on_event(&SolveEvent::WorkerStart { worker: 0 });
        }
        assert_eq!(seen, 2);
    }
}
