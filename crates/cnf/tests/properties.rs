//! Property-based tests for the CNF foundation types.

use berkmin_cnf::{dimacs, Assignment, Cnf, LBool, Lit, Var};
use proptest::prelude::*;

/// Strategy: an arbitrary literal over `max_vars` variables.
fn arb_lit(max_vars: u32) -> impl Strategy<Value = Lit> {
    (0..max_vars, any::<bool>()).prop_map(|(v, neg)| Lit::new(Var::new(v), neg))
}

/// Strategy: an arbitrary clause of up to `max_len` literals.
fn arb_clause(max_vars: u32, max_len: usize) -> impl Strategy<Value = Vec<Lit>> {
    prop::collection::vec(arb_lit(max_vars), 0..=max_len)
}

/// Strategy: an arbitrary CNF formula.
fn arb_cnf(max_vars: u32, max_clauses: usize) -> impl Strategy<Value = Cnf> {
    prop::collection::vec(arb_clause(max_vars, 6), 0..=max_clauses)
        .prop_map(|cs| cs.into_iter().collect())
}

proptest! {
    #[test]
    fn lit_code_roundtrip(v in 0u32..1_000_000, neg in any::<bool>()) {
        let l = Lit::new(Var::new(v), neg);
        prop_assert_eq!(Lit::from_code(l.code() as u32), l);
        prop_assert_eq!(l.var(), Var::new(v));
        prop_assert_eq!(l.is_negative(), neg);
    }

    #[test]
    fn lit_dimacs_roundtrip(n in prop_oneof![1..100_000i32, -100_000i32..-1]) {
        prop_assert_eq!(Lit::from_dimacs(n).to_dimacs(), n);
    }

    #[test]
    fn negation_flips_evaluation(v in 0u32..16, neg in any::<bool>(), val in any::<bool>()) {
        let l = Lit::new(Var::new(v), neg);
        let mut a = Assignment::new(16);
        a.assign(Var::new(v), val);
        prop_assert_eq!(a.lit_value(l), !a.lit_value(!l));
    }

    #[test]
    fn dimacs_roundtrip_preserves_formula(cnf in arb_cnf(12, 20)) {
        let text = dimacs::to_string(&cnf);
        let parsed = dimacs::parse(&text).expect("own output parses");
        prop_assert_eq!(cnf, parsed);
    }

    #[test]
    fn eval_agrees_with_clausewise_eval(cnf in arb_cnf(8, 12), bits in any::<u8>()) {
        let a = Assignment::from_bools((0..8).map(|i| bits >> i & 1 == 1));
        // A total assignment satisfies a clause or falsifies it.
        let expected = if cnf.iter().all(|c| c.iter().any(|&l| a.satisfies(l))) {
            LBool::True
        } else {
            LBool::False
        };
        prop_assert_eq!(cnf.eval(&a), expected);
    }

    #[test]
    fn enumeration_model_satisfies(cnf in arb_cnf(8, 10)) {
        if let Some(model) = cnf.solve_by_enumeration() {
            prop_assert!(cnf.is_satisfied_by(&model));
        }
    }

}
