//! Partial and total valuations of variables.

use std::fmt;

use crate::{Lit, Var};

/// A three-valued truth value: the lattice used by DPLL-style solvers.
///
/// # Examples
///
/// ```
/// use berkmin_cnf::LBool;
///
/// assert_eq!(LBool::from(true), LBool::True);
/// assert_eq!(!LBool::True, LBool::False);
/// assert_eq!(!LBool::Undef, LBool::Undef);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum LBool {
    /// Assigned true.
    True,
    /// Assigned false.
    False,
    /// Not (yet) assigned.
    #[default]
    Undef,
}

impl LBool {
    /// Returns `true` iff the value is [`LBool::Undef`].
    #[inline]
    pub const fn is_undef(self) -> bool {
        matches!(self, LBool::Undef)
    }

    /// Converts to `Option<bool>` (`Undef` becomes `None`).
    #[inline]
    pub const fn to_bool(self) -> Option<bool> {
        match self {
            LBool::True => Some(true),
            LBool::False => Some(false),
            LBool::Undef => None,
        }
    }
}

impl From<bool> for LBool {
    #[inline]
    fn from(b: bool) -> Self {
        if b {
            LBool::True
        } else {
            LBool::False
        }
    }
}

impl std::ops::Not for LBool {
    type Output = LBool;

    #[inline]
    fn not(self) -> LBool {
        match self {
            LBool::True => LBool::False,
            LBool::False => LBool::True,
            LBool::Undef => LBool::Undef,
        }
    }
}

impl fmt::Display for LBool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LBool::True => write!(f, "1"),
            LBool::False => write!(f, "0"),
            LBool::Undef => write!(f, "?"),
        }
    }
}

/// A (partial) assignment of truth values to variables.
///
/// Used both as the solver's exported model and as the reference valuation
/// in tests and generators.
///
/// # Examples
///
/// ```
/// use berkmin_cnf::{Assignment, LBool, Lit, Var};
///
/// let mut a = Assignment::new(2);
/// let x = Var::new(0);
/// a.assign(x, true);
/// assert_eq!(a.value(x), LBool::True);
/// assert_eq!(a.lit_value(Lit::neg(x)), LBool::False);
/// assert_eq!(a.value(Var::new(1)), LBool::Undef);
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Assignment {
    values: Vec<LBool>,
}

impl Assignment {
    /// Creates an assignment over `num_vars` variables, all unassigned.
    pub fn new(num_vars: usize) -> Self {
        Assignment {
            values: vec![LBool::Undef; num_vars],
        }
    }

    /// Builds a total assignment from booleans, variable `i` ← `values[i]`.
    pub fn from_bools<I: IntoIterator<Item = bool>>(values: I) -> Self {
        Assignment {
            values: values.into_iter().map(LBool::from).collect(),
        }
    }

    /// Number of variables tracked.
    #[inline]
    pub fn num_vars(&self) -> usize {
        self.values.len()
    }

    /// Grows the assignment to cover at least `num_vars` variables.
    pub fn grow(&mut self, num_vars: usize) {
        if num_vars > self.values.len() {
            self.values.resize(num_vars, LBool::Undef);
        }
    }

    /// Returns the value of `var` ([`LBool::Undef`] if out of range).
    #[inline]
    pub fn value(&self, var: Var) -> LBool {
        self.values
            .get(var.index())
            .copied()
            .unwrap_or(LBool::Undef)
    }

    /// Returns the value of a literal under this assignment.
    #[inline]
    pub fn lit_value(&self, lit: Lit) -> LBool {
        let v = self.value(lit.var());
        if lit.is_negative() {
            !v
        } else {
            v
        }
    }

    /// Returns `true` iff `lit` evaluates to true.
    #[inline]
    pub fn satisfies(&self, lit: Lit) -> bool {
        self.lit_value(lit) == LBool::True
    }

    /// Sets `var` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range; use [`Assignment::grow`] first.
    #[inline]
    pub fn assign(&mut self, var: Var, value: bool) {
        self.values[var.index()] = LBool::from(value);
    }

    /// Iterates over `(Var, LBool)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Var, LBool)> + '_ {
        self.values
            .iter()
            .enumerate()
            .map(|(i, &v)| (Var::new(i as u32), v))
    }
}

impl fmt::Display for Assignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for (var, val) in self.iter() {
            if val.is_undef() {
                continue;
            }
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{var}={val}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lbool_negation() {
        assert_eq!(!LBool::True, LBool::False);
        assert_eq!(!LBool::False, LBool::True);
        assert_eq!(!LBool::Undef, LBool::Undef);
    }

    #[test]
    fn lbool_to_bool() {
        assert_eq!(LBool::True.to_bool(), Some(true));
        assert_eq!(LBool::False.to_bool(), Some(false));
        assert_eq!(LBool::Undef.to_bool(), None);
    }

    #[test]
    fn assign_sets_a_definite_value() {
        let mut a = Assignment::new(1);
        let x = Var::new(0);
        assert!(a.value(x).is_undef());
        a.assign(x, false);
        assert_eq!(a.value(x), LBool::False);
    }

    #[test]
    fn lit_value_respects_sign() {
        let mut a = Assignment::new(1);
        let x = Var::new(0);
        a.assign(x, true);
        assert!(a.satisfies(Lit::pos(x)));
        assert!(!a.satisfies(Lit::neg(x)));
        assert_eq!(a.lit_value(Lit::neg(x)), LBool::False);
    }

    #[test]
    fn out_of_range_reads_are_undef() {
        let a = Assignment::new(1);
        assert_eq!(a.value(Var::new(10)), LBool::Undef);
    }

    #[test]
    fn from_bools_is_total() {
        let a = Assignment::from_bools([true, false]);
        assert_eq!(a.value(Var::new(0)), LBool::True);
        assert_eq!(a.value(Var::new(1)), LBool::False);
    }

    #[test]
    fn grow_preserves_existing_values() {
        let mut a = Assignment::new(1);
        a.assign(Var::new(0), true);
        a.grow(3);
        assert_eq!(a.num_vars(), 3);
        assert_eq!(a.value(Var::new(0)), LBool::True);
        assert!(a.value(Var::new(2)).is_undef());
    }

    #[test]
    fn display_lists_only_assigned() {
        let mut a = Assignment::new(3);
        a.assign(Var::new(1), true);
        assert_eq!(a.to_string(), "{x1=1}");
    }
}
