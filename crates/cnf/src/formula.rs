//! CNF formulas.

use std::fmt;
use std::iter::FusedIterator;

use crate::{Assignment, LBool, Lit, Var};

/// A formula in conjunctive normal form: a conjunction of clauses over
/// variables `x0 .. x(n-1)`.
///
/// `Cnf` is the interchange type between benchmark generators, the solver
/// and the DIMACS reader/writer. It tracks the number of variables
/// explicitly so that formulas with unreferenced variables (common in
/// DIMACS files) round-trip faithfully.
///
/// # Layout
///
/// All clauses share one literal buffer: clause `i` is the slice of that
/// buffer between the end offsets of clauses `i - 1` and `i`. A clause
/// costs 4 bytes per literal plus a 4-byte end offset (16 bytes for a
/// ternary clause, against about 56 for a `Vec` of its own), clauses are
/// read back as `&[Lit]` in insertion order, and [`Cnf::num_lits`] is
/// O(1). Offsets are `u32`, so one formula holds fewer than 2^32 literal
/// occurrences. [`Cnf::add_clause`] takes any literal iterator and copies
/// its literals in place.
///
/// # Examples
///
/// ```
/// use berkmin_cnf::{Cnf, Lit};
///
/// // (x0 ∨ ¬x1) ∧ (x1)
/// let mut cnf = Cnf::new();
/// let x0 = cnf.fresh_var();
/// let x1 = cnf.fresh_var();
/// cnf.add_clause([Lit::pos(x0), Lit::neg(x1)]);
/// cnf.add_clause([Lit::pos(x1)]);
/// assert_eq!((cnf.num_vars(), cnf.num_clauses(), cnf.num_lits()), (2, 2, 3));
/// assert_eq!(cnf.clause(1), &[Lit::pos(x1)]);
/// ```
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Cnf {
    num_vars: usize,
    /// Every clause's literals, back to back.
    lits: Vec<Lit>,
    /// `ends[i]` is the offset in `lits` one past clause `i`.
    ends: Vec<u32>,
    /// Optional human-readable comment lines (serialized as DIMACS `c` lines).
    comments: Vec<String>,
}

impl Cnf {
    /// Creates an empty formula with no variables and no clauses.
    pub fn new() -> Self {
        Cnf::default()
    }

    /// Creates a formula over `num_vars` variables and no clauses.
    pub fn with_vars(num_vars: usize) -> Self {
        Cnf {
            num_vars,
            ..Cnf::default()
        }
    }

    /// Reserves room for `clauses` more clauses holding `lits` more
    /// literals in total, so a producer that knows its size appends
    /// without reallocating.
    pub fn reserve(&mut self, clauses: usize, lits: usize) {
        self.ends.reserve(clauses);
        self.lits.reserve(lits);
    }

    /// Allocates and returns a fresh variable.
    pub fn fresh_var(&mut self) -> Var {
        let v = Var::new(self.num_vars as u32);
        self.num_vars += 1;
        v
    }

    /// Number of variables.
    #[inline]
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Grows the variable count to at least `n` without adding clauses —
    /// used when an external source (a DIMACS header, a solver) declares
    /// variables the clauses may never mention. Never shrinks.
    pub fn ensure_vars(&mut self, n: usize) {
        self.num_vars = self.num_vars.max(n);
    }

    /// Number of clauses.
    #[inline]
    pub fn num_clauses(&self) -> usize {
        self.ends.len()
    }

    /// Total number of literal occurrences across all clauses.
    #[inline]
    pub fn num_lits(&self) -> usize {
        self.lits.len()
    }

    /// The literals of clause `i`, in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.num_clauses()`.
    #[inline]
    pub fn clause(&self, i: usize) -> &[Lit] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.lits[start as usize..self.ends[i] as usize]
    }

    /// Appends a clause built from `lits`, growing the variable count to
    /// cover every referenced variable.
    ///
    /// # Panics
    ///
    /// Panics if the formula would hold 2^32 or more literal occurrences.
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) {
        let start = self.lits.len();
        self.lits.extend(lits);
        if let Some(need) = self.lits[start..].iter().map(|l| l.var().index() + 1).max() {
            self.num_vars = self.num_vars.max(need);
        }
        let end = u32::try_from(self.lits.len()).expect("a Cnf holds fewer than 2^32 literals");
        self.ends.push(end);
    }

    /// Adds a comment line, emitted as a DIMACS `c` line by the writer.
    pub fn add_comment(&mut self, text: impl Into<String>) {
        self.comments.push(text.into());
    }

    /// Returns the comment lines.
    pub fn comments(&self) -> &[String] {
        &self.comments
    }

    /// Iterates over the clauses, each as a literal slice.
    pub fn iter(&self) -> Clauses<'_> {
        Clauses {
            lits: &self.lits,
            start: 0,
            ends: self.ends.iter(),
        }
    }

    /// Evaluates the formula under `assignment`.
    ///
    /// Returns [`LBool::True`] if every clause is satisfied, [`LBool::False`]
    /// if some clause is falsified, otherwise [`LBool::Undef`].
    pub fn eval(&self, assignment: &Assignment) -> LBool {
        let mut all_true = true;
        for clause in self {
            match eval_lits(clause, assignment) {
                LBool::False => return LBool::False,
                LBool::Undef => all_true = false,
                LBool::True => {}
            }
        }
        if all_true {
            LBool::True
        } else {
            LBool::Undef
        }
    }

    /// Returns `true` iff `assignment` satisfies every clause — the model
    /// check used throughout the test suite to validate solver output.
    pub fn is_satisfied_by(&self, assignment: &Assignment) -> bool {
        self.eval(assignment) == LBool::True
    }

    /// Merges another formula into this one, remapping its variables to a
    /// fresh block. Returns the variable offset applied.
    ///
    /// Useful for composing benchmark instances (e.g. stacking several
    /// miters into one CNF).
    pub fn append_disjoint(&mut self, other: &Cnf) -> usize {
        let offset = self.num_vars;
        self.reserve(other.num_clauses(), other.num_lits());
        for clause in other {
            let shifted = clause
                .iter()
                .map(|l| Lit::new(Var::new((l.var().index() + offset) as u32), l.is_negative()));
            self.add_clause(shifted);
        }
        self.num_vars = self.num_vars.max(offset + other.num_vars);
        offset
    }

    /// Exhaustive satisfiability check by enumeration — the reference oracle
    /// for property tests. Returns a model if one exists.
    ///
    /// # Panics
    ///
    /// Panics if the formula has more than 24 variables (enumeration would
    /// be infeasible); this is a test-support method, not a solver.
    pub fn solve_by_enumeration(&self) -> Option<Assignment> {
        assert!(
            self.num_vars <= 24,
            "enumeration oracle limited to 24 variables, formula has {}",
            self.num_vars
        );
        let n = self.num_vars;
        for bits in 0u64..(1u64 << n) {
            let a = Assignment::from_bools((0..n).map(|i| bits >> i & 1 == 1));
            if self.is_satisfied_by(&a) {
                return Some(a);
            }
        }
        None
    }
}

/// Iterator over the clauses of a [`Cnf`] as literal slices, from
/// [`Cnf::iter`]. Skipping ahead (`nth`, `skip`) is O(1).
#[derive(Clone, Debug)]
pub struct Clauses<'a> {
    lits: &'a [Lit],
    /// Offset of the next clause from the front.
    start: u32,
    ends: std::slice::Iter<'a, u32>,
}

impl<'a> Iterator for Clauses<'a> {
    type Item = &'a [Lit];

    #[inline]
    fn next(&mut self) -> Option<&'a [Lit]> {
        let end = *self.ends.next()?;
        let clause = &self.lits[self.start as usize..end as usize];
        self.start = end;
        Some(clause)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ends.size_hint()
    }

    fn nth(&mut self, n: usize) -> Option<&'a [Lit]> {
        if n > 0 {
            self.start = *self.ends.nth(n - 1)?;
        }
        self.next()
    }
}

impl ExactSizeIterator for Clauses<'_> {}

impl FusedIterator for Clauses<'_> {}

/// Collects clauses given as literal iterators (a `Vec<Lit>`, an array),
/// in order.
impl<C: IntoIterator<Item = Lit>> FromIterator<C> for Cnf {
    fn from_iter<I: IntoIterator<Item = C>>(iter: I) -> Self {
        let mut cnf = Cnf::new();
        cnf.extend(iter);
        cnf
    }
}

impl<C: IntoIterator<Item = Lit>> Extend<C> for Cnf {
    fn extend<I: IntoIterator<Item = C>>(&mut self, iter: I) {
        for clause in iter {
            self.add_clause(clause);
        }
    }
}

impl<'a> IntoIterator for &'a Cnf {
    type Item = &'a [Lit];
    type IntoIter = Clauses<'a>;

    fn into_iter(self) -> Clauses<'a> {
        self.iter()
    }
}

/// Shows the clauses, not the buffer layout.
impl fmt::Debug for Cnf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cnf")
            .field("num_vars", &self.num_vars)
            .field("clauses", &self.iter().collect::<Vec<_>>())
            .field("comments", &self.comments)
            .finish()
    }
}

impl fmt::Display for Cnf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.ends.is_empty() {
            return write!(f, "⊤");
        }
        for (i, clause) in self.iter().enumerate() {
            if i > 0 {
                write!(f, " ∧ ")?;
            }
            write!(f, "(")?;
            fmt_lits(clause, f)?;
            write!(f, ")")?;
        }
        Ok(())
    }
}

/// The value of the disjunction `lits` under `assignment`: true if some
/// literal is, false if all are, otherwise undefined.
fn eval_lits(lits: &[Lit], assignment: &Assignment) -> LBool {
    let mut all_false = true;
    for &lit in lits {
        match assignment.lit_value(lit) {
            LBool::True => return LBool::True,
            LBool::Undef => all_false = false,
            LBool::False => {}
        }
    }
    if all_false {
        LBool::False
    } else {
        LBool::Undef
    }
}

/// Renders the disjunction `lits` as `x0 ∨ ¬x1`, or `⊥` when empty.
fn fmt_lits(lits: &[Lit], f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if lits.is_empty() {
        return write!(f, "⊥");
    }
    for (i, lit) in lits.iter().enumerate() {
        if i > 0 {
            write!(f, " ∨ ")?;
        }
        write!(f, "{lit}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(n: i32) -> Lit {
        Lit::from_dimacs(n)
    }

    #[test]
    fn add_clause_grows_vars() {
        let mut cnf = Cnf::new();
        cnf.add_clause([lit(5)]);
        assert_eq!(cnf.num_vars(), 5);
        assert_eq!(cnf.num_clauses(), 1);
    }

    #[test]
    fn eval_three_states() {
        let mut cnf = Cnf::new();
        cnf.add_clause([lit(1), lit(2)]);
        cnf.add_clause([lit(-1)]);
        let mut a = Assignment::new(2);
        assert_eq!(cnf.eval(&a), LBool::Undef);
        a.assign(Var::new(0), false);
        a.assign(Var::new(1), true);
        assert_eq!(cnf.eval(&a), LBool::True);
        a.assign(Var::new(0), true);
        assert_eq!(cnf.eval(&a), LBool::False);
    }

    #[test]
    fn enumeration_finds_model_of_simple_formula() {
        let mut cnf = Cnf::new();
        cnf.add_clause([lit(1), lit(2)]);
        cnf.add_clause([lit(-1), lit(2)]);
        cnf.add_clause([lit(-2), lit(3)]);
        let model = cnf.solve_by_enumeration().expect("satisfiable");
        assert!(cnf.is_satisfied_by(&model));
    }

    #[test]
    fn enumeration_detects_unsat() {
        let mut cnf = Cnf::new();
        cnf.add_clause([lit(1)]);
        cnf.add_clause([lit(-1)]);
        assert!(cnf.solve_by_enumeration().is_none());
    }

    #[test]
    fn empty_formula_is_trivially_true() {
        let cnf = Cnf::new();
        assert_eq!(cnf.eval(&Assignment::new(0)), LBool::True);
        assert!(cnf.solve_by_enumeration().is_some());
    }

    #[test]
    fn formula_with_empty_clause_is_unsat() {
        let mut cnf = Cnf::new();
        cnf.add_clause([]);
        assert!(cnf.solve_by_enumeration().is_none());
    }

    #[test]
    fn append_disjoint_offsets_variables() {
        let mut a = Cnf::new();
        a.add_clause([lit(1), lit(2)]);
        let mut b = Cnf::new();
        b.add_clause([lit(1)]);
        let off = a.append_disjoint(&b);
        assert_eq!(off, 2);
        assert_eq!(a.num_vars(), 3);
        assert_eq!(a.clause(1), &[lit(3)]);
    }

    #[test]
    fn num_lits_counts_occurrences() {
        let mut cnf = Cnf::new();
        cnf.add_clause([lit(1), lit(2)]);
        cnf.add_clause([lit(2)]);
        assert_eq!(cnf.num_lits(), 3);
    }
}
