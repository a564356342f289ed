//! The flat `Cnf` layout against a `Vec<Vec<Lit>>` model: every read of
//! a formula (iteration, skipping, indexing, counts, evaluation, disjoint
//! append, rendering) must match what the model of one literal vector per
//! clause says. Empty clauses, duplicate literals and zero-clause
//! formulas are all in range.

use berkmin_cnf::{Assignment, Cnf, LBool, Lit, Var};
use proptest::prelude::*;

fn arb_lit(max_vars: u32) -> impl Strategy<Value = Lit> {
    (0..max_vars, any::<bool>()).prop_map(|(v, neg)| Lit::new(Var::new(v), neg))
}

/// A clause model of up to 5 literals over 4 variables, so duplicate
/// literals and empty clauses come up often.
fn arb_model(max_clauses: usize) -> impl Strategy<Value = Vec<Vec<Lit>>> {
    prop::collection::vec(prop::collection::vec(arb_lit(4), 0..=5), 0..=max_clauses)
}

fn build(model: &[Vec<Lit>]) -> Cnf {
    let mut cnf = Cnf::new();
    for clause in model {
        cnf.add_clause(clause.iter().copied());
    }
    cnf
}

/// The model's value of the conjunction under `a`.
fn model_eval(model: &[Vec<Lit>], a: &Assignment) -> LBool {
    let values: Vec<LBool> = model
        .iter()
        .map(|c| {
            if c.iter().any(|&l| a.lit_value(l) == LBool::True) {
                LBool::True
            } else if c.iter().all(|&l| a.lit_value(l) == LBool::False) {
                LBool::False
            } else {
                LBool::Undef
            }
        })
        .collect();
    if values.contains(&LBool::False) {
        LBool::False
    } else if values.contains(&LBool::Undef) {
        LBool::Undef
    } else {
        LBool::True
    }
}

fn model_display(model: &[Vec<Lit>]) -> String {
    if model.is_empty() {
        return "⊤".to_string();
    }
    let clauses: Vec<String> = model
        .iter()
        .map(|c| match &c[..] {
            [] => "(⊥)".to_string(),
            _ => {
                let lits: Vec<String> = c.iter().map(Lit::to_string).collect();
                format!("({})", lits.join(" ∨ "))
            }
        })
        .collect();
    clauses.join(" ∧ ")
}

proptest! {
    #[test]
    fn reads_agree_with_the_model(model in arb_model(8)) {
        let cnf = build(&model);
        prop_assert_eq!(cnf.num_clauses(), model.len());
        prop_assert_eq!(cnf.num_lits(), model.iter().map(Vec::len).sum::<usize>());
        let max_var = model.iter().flatten().map(|l| l.var().index() + 1).max();
        prop_assert_eq!(cnf.num_vars(), max_var.unwrap_or(0));

        let iterated: Vec<Vec<Lit>> = cnf.iter().map(<[Lit]>::to_vec).collect();
        prop_assert_eq!(&iterated, &model);
        let by_index: Vec<Vec<Lit>> =
            (0..cnf.num_clauses()).map(|i| cnf.clause(i).to_vec()).collect();
        prop_assert_eq!(&by_index, &model);
        prop_assert_eq!(cnf.iter().len(), model.len());
        prop_assert_eq!((&cnf).into_iter().count(), model.len());
    }

    #[test]
    fn skipping_agrees_with_the_model(model in arb_model(8), skip in 0usize..10) {
        let cnf = build(&model);
        let skipped: Vec<&[Lit]> = cnf.iter().skip(skip).collect();
        let expected: Vec<&[Lit]> = model.iter().skip(skip).map(Vec::as_slice).collect();
        prop_assert_eq!(skipped, expected);
        prop_assert_eq!(cnf.iter().nth(skip), model.get(skip).map(Vec::as_slice));

        // Skipping twice lands where skipping once does, and the
        // remaining length follows.
        let mut it = cnf.iter();
        let half = skip / 2;
        let _ = it.nth(half);
        prop_assert_eq!(it.len(), model.len().saturating_sub(half + 1));
        prop_assert_eq!(it.nth(skip - half), model.get(skip + 1).map(Vec::as_slice));
    }

    #[test]
    fn eval_agrees_with_the_model(model in arb_model(6), bits in any::<u8>(), set in any::<u8>()) {
        let cnf = build(&model);
        // A partial assignment: variable i is set when bit i of `set` is.
        let mut a = Assignment::new(4);
        for i in 0..4 {
            if set >> i & 1 == 1 {
                a.assign(Var::new(i), bits >> i & 1 == 1);
            }
        }
        prop_assert_eq!(cnf.eval(&a), model_eval(&model, &a));
        prop_assert_eq!(cnf.is_satisfied_by(&a), model_eval(&model, &a) == LBool::True);
    }

    #[test]
    fn display_agrees_with_the_model(model in arb_model(5)) {
        prop_assert_eq!(build(&model).to_string(), model_display(&model));
    }

    #[test]
    fn append_disjoint_agrees_with_the_model(
        left in arb_model(5),
        right in arb_model(5),
        extra_vars in 0usize..3,
    ) {
        let mut cnf = build(&left);
        cnf.ensure_vars(cnf.num_vars() + extra_vars);
        let mut other = build(&right);
        other.ensure_vars(other.num_vars() + extra_vars);
        let offset = cnf.num_vars();
        prop_assert_eq!(cnf.append_disjoint(&other), offset);
        prop_assert_eq!(cnf.num_vars(), offset + other.num_vars());

        let shift = |l: &Lit| Lit::new(Var::new((l.var().index() + offset) as u32), l.is_negative());
        let mut model = left.clone();
        model.extend(right.iter().map(|c| c.iter().map(shift).collect::<Vec<_>>()));
        let got: Vec<Vec<Lit>> = cnf.iter().map(<[Lit]>::to_vec).collect();
        prop_assert_eq!(got, model);
    }

    #[test]
    fn collecting_and_extending_agree_with_adding(model in arb_model(6), split in 0usize..7) {
        let built = build(&model);
        let collected: Cnf = model.iter().cloned().collect();
        prop_assert_eq!(&collected, &built);
        let split = split.min(model.len());
        let mut extended = build(&model[..split]);
        extended.extend(model[split..].iter().cloned());
        prop_assert_eq!(&extended, &built);
    }
}

#[test]
fn zero_clause_formulas() {
    let cnf = Cnf::with_vars(3);
    assert_eq!((cnf.num_clauses(), cnf.num_lits()), (0, 0));
    assert_eq!(cnf.iter().next(), None);
    assert_eq!(cnf.iter().nth(1), None);
    assert_eq!(cnf.eval(&Assignment::new(3)), LBool::True);
    assert_eq!(cnf.to_string(), "⊤");
}

#[test]
fn empty_and_duplicate_clauses_keep_their_shape() {
    let l = Lit::from_dimacs;
    let mut cnf = Cnf::new();
    cnf.add_clause([]);
    cnf.add_clause([l(2), l(2), l(-1)]);
    cnf.add_clause([]);
    assert_eq!(cnf.num_clauses(), 3);
    assert_eq!(cnf.num_lits(), 3);
    assert!(cnf.clause(0).is_empty());
    assert_eq!(cnf.clause(1), &[l(2), l(2), l(-1)]);
    assert!(cnf.clause(2).is_empty());
    assert_eq!(cnf.to_string(), "(⊥) ∧ (x1 ∨ x1 ∨ ¬x0) ∧ (⊥)");
    assert_eq!(
        format!("{cnf:?}"),
        "Cnf { num_vars: 2, clauses: [[], [Lit(2), Lit(2), Lit(-1)], []], comments: [] }"
    );
}

#[test]
#[should_panic]
fn indexing_past_the_last_clause_panics() {
    let mut cnf = Cnf::new();
    cnf.add_clause([Lit::from_dimacs(1)]);
    let _ = cnf.clause(1);
}
