//! DIMACS round-trip and robustness properties: parse → print → parse is
//! the identity, printing is a fixpoint, and malformed input is rejected
//! with an error — never a panic.

use berkmin_cnf::{dimacs, Cnf, Lit, Var};
use proptest::prelude::*;

fn arb_lit(max_vars: u32) -> impl Strategy<Value = Lit> {
    (0..max_vars, any::<bool>()).prop_map(|(v, neg)| Lit::new(Var::new(v), neg))
}

fn arb_cnf(max_vars: u32, max_clauses: usize) -> impl Strategy<Value = Cnf> {
    prop::collection::vec(
        prop::collection::vec(arb_lit(max_vars), 0..=6),
        0..=max_clauses,
    )
    .prop_map(|cs| cs.into_iter().collect())
}

proptest! {
    /// parse(print(f)) reproduces f exactly: clauses (with order, duplicate
    /// literals, and empty clauses preserved) and the variable count.
    #[test]
    fn parse_print_parse_is_identity(cnf in arb_cnf(14, 24)) {
        let text = dimacs::to_string(&cnf);
        let parsed = dimacs::parse(&text).expect("own output must parse");
        prop_assert_eq!(cnf, parsed);
    }

    /// Printing is a fixpoint: print(parse(print(f))) == print(f), so the
    /// textual form is stable under repeated round-trips.
    #[test]
    fn printing_is_a_fixpoint(cnf in arb_cnf(10, 16)) {
        let once = dimacs::to_string(&cnf);
        let twice = dimacs::to_string(&dimacs::parse(&once).expect("parses"));
        prop_assert_eq!(once, twice);
    }

    /// Arbitrary junk never panics the parser: it either parses (the format
    /// is lenient about headers) or returns a structured error.
    #[test]
    fn parser_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..=64)) {
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let _ = dimacs::parse(&text); // must return, not panic
    }

    /// Out-of-range literals are a structured error, not a panic or a
    /// silent wrap-around.
    #[test]
    fn oversized_literals_are_rejected(n in 2_147_483_648i64..4_000_000_000) {
        let text = format!("p cnf 1 1\n{n} 0\n");
        prop_assert!(dimacs::parse(&text).is_err());
        let neg = format!("p cnf 1 1\n-{n} 0\n");
        prop_assert!(dimacs::parse(&neg).is_err());
    }
}

#[test]
fn malformed_headers_are_errors_not_panics() {
    for bad in [
        "p\n1 0\n",
        "p cnf\n",
        "p cnf 3\n",
        "p dnf 3 2\n1 0\n",
        "p cnf x y\n",
        "p cnf 3 -2\n",
        "p cnf 18446744073709551616 1\n", // u64 overflow
    ] {
        let got = dimacs::parse(bad);
        assert!(got.is_err(), "{bad:?} should be rejected, got {got:?}");
    }
}

#[test]
fn malformed_literals_are_errors_not_panics() {
    for bad in [
        "p cnf 2 1\n1 two 0\n",
        "p cnf 2 1\n1 2\n",     // missing terminator
        "p cnf 2 1\n1 2 0 3\n", // trailing unterminated clause
        "p cnf 2 1\n1 +-2 0\n",
        "p cnf 2 1\n1 2.5 0\n",
        "clause 1 0\n", // 'c' must be a standalone token
    ] {
        let got = dimacs::parse(bad);
        assert!(got.is_err(), "{bad:?} should be rejected, got {got:?}");
    }
}

#[test]
fn error_lines_point_at_the_offender() {
    let err = dimacs::parse("p cnf 2 2\n1 0\nbogus 0\n").unwrap_err();
    assert_eq!(err.line(), 3);
}
