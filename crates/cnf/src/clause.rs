//! Owned clauses (disjunctions of literals).

use std::fmt;
use std::ops::Index;

use crate::{Assignment, LBool, Lit};

/// An owned clause: a disjunction of literals.
///
/// `Clause` is the exchange format between generators, the solver and the
/// proof checker. The solver keeps its own packed representation internally;
/// this type optimizes for clarity, not propagation speed.
///
/// # Examples
///
/// ```
/// use berkmin_cnf::{Clause, Lit, Var};
///
/// let x = Var::new(0);
/// let y = Var::new(1);
/// let c = Clause::from_lits([Lit::pos(x), Lit::neg(y)]);
/// assert_eq!(c.len(), 2);
/// assert!(c.contains(Lit::pos(x)));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Clause {
    lits: Vec<Lit>,
}

impl Clause {
    /// Creates an empty clause (which is unsatisfiable).
    #[inline]
    pub fn new() -> Self {
        Clause { lits: Vec::new() }
    }

    /// Creates a clause from an iterator of literals, preserving order.
    pub fn from_lits<I: IntoIterator<Item = Lit>>(lits: I) -> Self {
        Clause {
            lits: lits.into_iter().collect(),
        }
    }

    /// Returns the literals as a slice.
    #[inline]
    pub fn lits(&self) -> &[Lit] {
        &self.lits
    }

    /// Returns the number of literals (the clause *length* in the paper's
    /// terminology, §8).
    #[inline]
    pub fn len(&self) -> usize {
        self.lits.len()
    }

    /// Returns `true` if the clause has no literals.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lits.is_empty()
    }

    /// Returns `true` if the clause contains exactly one literal.
    #[inline]
    pub fn is_unit(&self) -> bool {
        self.lits.len() == 1
    }

    /// Returns `true` if the clause contains exactly two literals — the
    /// "binary" clauses the `nb_two` branch-selection cost function counts
    /// (paper §7).
    #[inline]
    pub fn is_binary(&self) -> bool {
        self.lits.len() == 2
    }

    /// Returns `true` if `lit` occurs in the clause.
    #[inline]
    pub fn contains(&self, lit: Lit) -> bool {
        self.lits.contains(&lit)
    }

    /// Appends a literal.
    #[inline]
    pub fn push(&mut self, lit: Lit) {
        self.lits.push(lit);
    }

    /// Iterates over the literals.
    pub fn iter(&self) -> std::slice::Iter<'_, Lit> {
        self.lits.iter()
    }

    /// Sorts literals and removes duplicates; returns `None` if the clause is
    /// a tautology (contains both `x` and `¬x`), since a tautology carries no
    /// constraint and solvers may drop it.
    pub fn normalized(mut self) -> Option<Clause> {
        self.lits.sort_unstable();
        self.lits.dedup();
        for w in self.lits.windows(2) {
            if w[0].var() == w[1].var() {
                return None;
            }
        }
        Some(self)
    }

    /// Evaluates the clause under a (possibly partial) assignment.
    ///
    /// Returns [`LBool::True`] if some literal is true, [`LBool::False`] if
    /// all literals are false, and [`LBool::Undef`] otherwise.
    pub fn eval(&self, assignment: &Assignment) -> LBool {
        eval_lits(&self.lits, assignment)
    }

    /// Consumes the clause and returns the underlying literal vector.
    #[inline]
    pub fn into_lits(self) -> Vec<Lit> {
        self.lits
    }
}

impl Index<usize> for Clause {
    type Output = Lit;

    #[inline]
    fn index(&self, i: usize) -> &Lit {
        &self.lits[i]
    }
}

impl From<Vec<Lit>> for Clause {
    #[inline]
    fn from(lits: Vec<Lit>) -> Self {
        Clause { lits }
    }
}

impl FromIterator<Lit> for Clause {
    fn from_iter<I: IntoIterator<Item = Lit>>(iter: I) -> Self {
        Clause::from_lits(iter)
    }
}

impl Extend<Lit> for Clause {
    fn extend<I: IntoIterator<Item = Lit>>(&mut self, iter: I) {
        self.lits.extend(iter);
    }
}

impl<'a> IntoIterator for &'a Clause {
    type Item = &'a Lit;
    type IntoIter = std::slice::Iter<'a, Lit>;

    fn into_iter(self) -> Self::IntoIter {
        self.lits.iter()
    }
}

impl IntoIterator for Clause {
    type Item = Lit;
    type IntoIter = std::vec::IntoIter<Lit>;

    fn into_iter(self) -> Self::IntoIter {
        self.lits.into_iter()
    }
}

impl fmt::Debug for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries(self.lits.iter().map(|l| l.to_dimacs()))
            .finish()
    }
}

impl fmt::Display for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_lits(&self.lits, f)
    }
}

/// The value of the disjunction `lits` under `assignment` (see
/// [`Clause::eval`]).
pub(crate) fn eval_lits(lits: &[Lit], assignment: &Assignment) -> LBool {
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
pub(crate) fn fmt_lits(lits: &[Lit], f: &mut fmt::Formatter<'_>) -> fmt::Result {
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
    use crate::Var;

    fn lit(n: i32) -> Lit {
        Lit::from_dimacs(n)
    }

    #[test]
    fn classification_helpers() {
        assert!(Clause::new().is_empty());
        assert!(Clause::from_lits([lit(1)]).is_unit());
        assert!(Clause::from_lits([lit(1), lit(-2)]).is_binary());
        assert!(!Clause::from_lits([lit(1), lit(2), lit(3)]).is_binary());
    }

    #[test]
    fn normalized_dedups_and_sorts() {
        let c = Clause::from_lits([lit(3), lit(1), lit(3)])
            .normalized()
            .unwrap();
        assert_eq!(c.lits(), &[lit(1), lit(3)]);
    }

    #[test]
    fn normalized_detects_tautology() {
        assert!(Clause::from_lits([lit(2), lit(-2)]).normalized().is_none());
    }

    #[test]
    fn eval_reports_three_states() {
        let mut a = Assignment::new(3);
        let c = Clause::from_lits([lit(1), lit(2)]);
        assert_eq!(c.eval(&a), LBool::Undef);
        a.assign(Var::new(0), false);
        assert_eq!(c.eval(&a), LBool::Undef);
        a.assign(Var::new(1), false);
        assert_eq!(c.eval(&a), LBool::False);
        a.assign(Var::new(1), true);
        assert_eq!(c.eval(&a), LBool::True);
    }

    #[test]
    fn empty_clause_is_false_under_any_assignment() {
        let a = Assignment::new(0);
        assert_eq!(Clause::new().eval(&a), LBool::False);
    }

    #[test]
    fn display_renders_disjunction() {
        let c = Clause::from_lits([lit(1), lit(-2)]);
        assert_eq!(c.to_string(), "x0 ∨ ¬x1");
        assert_eq!(Clause::new().to_string(), "⊥");
    }

    #[test]
    fn collect_from_iterator() {
        let c: Clause = [lit(1), lit(2)].into_iter().collect();
        assert_eq!(c.len(), 2);
    }
}
