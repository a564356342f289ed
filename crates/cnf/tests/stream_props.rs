//! Property tests pinning the agreement between the two DIMACS paths:
//! `dimacs::parse` (string → `Cnf`) and `dimacs::stream_into` (reader →
//! any `ClauseSink`). On generated formulas — and on mutated renderings of
//! them (reflowed clauses, injected comments/blank lines, corrupted
//! tokens) — the streaming path must produce clause-for-clause the same
//! `Cnf`, the same summary, and the same accept/reject decisions.

use berkmin_cnf::{dimacs, Cnf, Lit, Var};
use proptest::prelude::*;

fn arb_lit(max_vars: u32) -> impl Strategy<Value = Lit> {
    (0..max_vars, any::<bool>()).prop_map(|(v, neg)| Lit::new(Var::new(v), neg))
}

fn arb_clause(max_vars: u32, max_len: usize) -> impl Strategy<Value = Vec<Lit>> {
    prop::collection::vec(arb_lit(max_vars), 0..=max_len)
}

fn arb_cnf(max_vars: u32, max_clauses: usize) -> impl Strategy<Value = Cnf> {
    prop::collection::vec(arb_clause(max_vars, 6), 0..=max_clauses)
        .prop_map(|cs| cs.into_iter().collect())
}

/// Tiny deterministic PRNG for the text mutations (the shim's `proptest`
/// strategies drive the *choice*, this drives the byte positions).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// Reflows the clause body of a rendered DIMACS text: comment and header
/// lines stay line-oriented (the format requires it), while every clause
/// token is re-wrapped at pseudo-random points — clauses end up spanning
/// and sharing lines, which both parsers must tolerate identically.
fn reflow(text: &str, rng: &mut Rng) -> String {
    let mut out = String::new();
    let mut body_tokens: Vec<&str> = Vec::new();
    for line in text.lines() {
        let t = line.trim();
        if t.starts_with('c') || t.starts_with('p') {
            out.push_str(line);
            out.push('\n');
        } else {
            body_tokens.extend(t.split_whitespace());
        }
    }
    for tok in body_tokens {
        out.push_str(tok);
        match rng.next() % 4 {
            0 => out.push('\n'),
            1 => out.push_str("  "),
            2 => out.push_str(" \n "),
            _ => out.push(' '),
        }
    }
    out.push('\n');
    out
}

/// Injects benign noise: comment lines and blank lines at pseudo-random
/// line boundaries (after the header, so `c`-vs-clause interleaving is
/// exercised too).
fn inject_noise(text: &str, rng: &mut Rng) -> String {
    let mut out = String::new();
    for line in text.lines() {
        out.push_str(line);
        out.push('\n');
        match rng.next() % 5 {
            0 => out.push_str("c noise comment\n"),
            1 => out.push('\n'),
            2 => out.push_str("   \n"),
            _ => {}
        }
    }
    out
}

/// Corrupts the text so it may (or may not) become invalid: both parsers
/// must make the same call, and on rejection report the same error.
fn corrupt(text: &str, rng: &mut Rng) -> String {
    let mut s = text.to_string();
    match rng.next() % 4 {
        0 => s.push_str("7 "), // unterminated trailing clause
        1 => {
            // A non-numeric token somewhere in the body.
            s.push_str("\nbogus 0\n");
        }
        2 => {
            // A literal out of range.
            s.push_str("\n99999999999 0\n");
        }
        _ => {
            // A malformed header appended mid-file.
            s.push_str("\np cnf x y\n");
        }
    }
    s
}

/// Runs both paths on `text` and asserts full agreement: same Ok/Err
/// decision, same resulting formula (clauses, vars, comments), same error
/// line and message otherwise. Returns whether the text was accepted.
fn assert_paths_agree(text: &str) -> Result<bool, TestCaseError> {
    let parsed = dimacs::parse(text);
    let mut streamed_cnf = Cnf::new();
    let streamed = dimacs::stream_into(text.as_bytes(), &mut streamed_cnf);
    match (parsed, streamed) {
        (Ok(cnf), Ok(summary)) => {
            prop_assert_eq!(&cnf, &streamed_cnf);
            prop_assert_eq!(summary.num_vars, cnf.num_vars());
            prop_assert_eq!(summary.num_clauses, cnf.num_clauses());
            Ok(true)
        }
        (Err(pe), Err(dimacs::ReadDimacsError::Parse(se))) => {
            prop_assert_eq!(pe.line(), se.line(), "error lines differ");
            prop_assert_eq!(pe.to_string(), se.to_string(), "error messages differ");
            Ok(false)
        }
        (p, s) => Err(TestCaseError::fail(format!(
            "paths disagree on accept/reject: parse={p:?} stream={s:?}"
        ))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn stream_agrees_with_parse_on_rendered_formulas(cnf in arb_cnf(12, 20)) {
        let text = dimacs::to_string(&cnf);
        prop_assert!(assert_paths_agree(&text)?, "rendered CNF must parse");
        // And the streamed reconstruction equals the original formula.
        let mut rebuilt = Cnf::new();
        dimacs::stream_into(text.as_bytes(), &mut rebuilt).expect("own output streams");
        prop_assert_eq!(cnf, rebuilt);
    }

    #[test]
    fn stream_agrees_with_parse_on_mutated_text(cnf in arb_cnf(10, 12), seed in any::<u64>()) {
        let mut rng = Rng(seed | 1);
        let text = dimacs::to_string(&cnf);
        let reflowed = reflow(&text, &mut rng);
        prop_assert!(assert_paths_agree(&reflowed)?, "reflowed CNF must parse");
        let noisy = inject_noise(&reflowed, &mut rng);
        prop_assert!(assert_paths_agree(&noisy)?, "noise-injected CNF must parse");
    }

    #[test]
    fn stream_agrees_with_parse_on_corrupted_text(cnf in arb_cnf(8, 8), seed in any::<u64>()) {
        let mut rng = Rng(seed | 1);
        let text = corrupt(&dimacs::to_string(&cnf), &mut rng);
        // Agreement is the property; acceptance depends on the corruption.
        assert_paths_agree(&text)?;
    }
}
