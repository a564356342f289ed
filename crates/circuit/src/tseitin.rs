//! Tseitin transformation: combinational netlist → equisatisfiable CNF.
//!
//! Every node gets a CNF variable; each gate contributes the clauses of its
//! defining biconditional. The encoding is linear in circuit size and is
//! how the paper's Miters / Beijing / microprocessor-verification CNFs were
//! produced from circuits.
//!
//! This module is the one place that writes a gate's clauses: [`encode`]
//! and each time frame of [`crate::bmc`] call the same per-gate encoder,
//! so a combinational netlist and one frame of a sequential one get the
//! same variables and clauses in the same order.

use berkmin_cnf::{Cnf, Lit, Var};

use crate::netlist::{Gate, Netlist, NodeId};

/// The result of encoding a netlist: the CNF plus variable maps.
#[derive(Debug, Clone)]
pub struct TseitinEncoding {
    /// The clauses (one biconditional per gate, plus constant units).
    pub cnf: Cnf,
    /// CNF variable of every netlist node, indexed by node id.
    pub node_vars: Vec<Var>,
    /// CNF variables of the primary inputs, in input order.
    pub input_vars: Vec<Var>,
    /// CNF variables of the primary outputs, in output order.
    pub output_vars: Vec<Var>,
}

impl TseitinEncoding {
    /// Adds a unit clause forcing output `i` to `value` — the standard way
    /// to turn a miter encoding into a satisfiability question.
    pub fn constrain_output(&mut self, i: usize, value: bool) {
        let v = self.output_vars[i];
        self.cnf.add_clause([Lit::new(v, !value)]);
    }
}

/// Encodes a combinational netlist as CNF.
///
/// # Panics
///
/// Panics if the netlist contains flip-flops (sequential circuits go
/// through [`crate::bmc::unroll`] instead).
pub fn encode(netlist: &Netlist) -> TseitinEncoding {
    assert!(
        netlist.is_combinational(),
        "Tseitin encoding requires a combinational netlist; unroll sequential ones first"
    );
    let mut cnf = Cnf::new();
    let mut node_vars = Vec::with_capacity(netlist.num_nodes());
    for &gate in netlist.gates() {
        let y = encode_gate(&mut cnf, gate, &node_vars);
        node_vars.push(y);
    }
    let input_vars = netlist
        .inputs()
        .iter()
        .map(|n| node_vars[n.index()])
        .collect();
    let output_vars = netlist
        .outputs()
        .iter()
        .map(|n| node_vars[n.index()])
        .collect();
    TseitinEncoding {
        cnf,
        node_vars,
        input_vars,
        output_vars,
    }
}

/// Allocates the variable `y` of `gate` in `cnf`, writes the clauses of
/// its defining biconditional over `vars` (the variables of the nodes
/// before it, indexed by node id) and returns `y`. Inputs and flip-flops
/// get a variable and no clauses: a flip-flop's value is wired by the
/// caller ([`crate::bmc`] ties it to the previous time frame).
///
/// `#[inline]`: both encoders call it once per gate, `bmc` from another
/// module, and an outlined call measurably slows their loops.
#[inline]
pub(crate) fn encode_gate(cnf: &mut Cnf, gate: Gate, vars: &[Var]) -> Var {
    let y = cnf.fresh_var();
    let (yp, yn) = (Lit::pos(y), Lit::neg(y));
    let var = |n: NodeId| vars[n.index()];
    match gate {
        Gate::Input(_) | Gate::Dff { .. } => {}
        Gate::Const(v) => cnf.add_clause([Lit::new(y, !v)]),
        Gate::Not(a) => {
            let a = var(a);
            cnf.add_clause([yp, Lit::pos(a)]);
            cnf.add_clause([yn, Lit::neg(a)]);
        }
        Gate::And(a, b) | Gate::Nand(a, b) | Gate::Or(a, b) | Gate::Nor(a, b) => {
            // o ≡ x ∧ z: NAND and OR complement the output, OR and NOR
            // the inputs (De Morgan).
            let o = Lit::new(y, matches!(gate, Gate::Nand(..) | Gate::Or(..)));
            let inv = matches!(gate, Gate::Or(..) | Gate::Nor(..));
            let (x, z) = (Lit::new(var(a), inv), Lit::new(var(b), inv));
            cnf.add_clause([!o, x]);
            cnf.add_clause([!o, z]);
            cnf.add_clause([o, !x, !z]);
        }
        Gate::Xor(a, b) | Gate::Xnor(a, b) => {
            // o ≡ a ⊕ b, with o = ¬y for XNOR.
            let o = Lit::new(y, matches!(gate, Gate::Xnor(..)));
            let (a, b) = (Lit::pos(var(a)), Lit::pos(var(b)));
            cnf.add_clause([!o, a, b]);
            cnf.add_clause([!o, !a, !b]);
            cnf.add_clause([o, !a, b]);
            cnf.add_clause([o, a, !b]);
        }
        Gate::Mux { sel, lo, hi } => {
            let (s, l, h) = (var(sel), var(lo), var(hi));
            // sel=1 ⇒ y ≡ hi
            cnf.add_clause([Lit::neg(s), yn, Lit::pos(h)]);
            cnf.add_clause([Lit::neg(s), yp, Lit::neg(h)]);
            // sel=0 ⇒ y ≡ lo
            cnf.add_clause([Lit::pos(s), yn, Lit::pos(l)]);
            cnf.add_clause([Lit::pos(s), yp, Lit::neg(l)]);
        }
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Netlist;
    use crate::sim::eval64;
    use berkmin_cnf::Assignment;

    /// Checks the encoding gate-by-gate against simulation: for every input
    /// assignment, the CNF restricted to the input values must be satisfied
    /// exactly by the simulated node values.
    fn check_encoding(n: &Netlist) {
        let enc = encode(n);
        let bits = n.num_inputs();
        assert!(bits <= 6, "test helper limited to 6 inputs");
        for pattern in 0u64..(1 << bits) {
            let words: Vec<u64> = (0..bits)
                .map(|i| if pattern >> i & 1 == 1 { u64::MAX } else { 0 })
                .collect();
            // Simulate every node by re-running eval through outputs of a
            // netlist clone that exposes all nodes.
            let mut all_out = n.clone();
            for id in 0..n.num_nodes() {
                all_out.set_output(crate::netlist::NodeId(id as u32));
            }
            let values = eval64(&all_out, &words);
            let extra = &values[values.len() - n.num_nodes()..];
            let mut assignment = Assignment::new(enc.cnf.num_vars());
            for (node, var) in enc.node_vars.iter().enumerate() {
                assignment.assign(*var, extra[node] & 1 == 1);
            }
            assert!(
                enc.cnf.is_satisfied_by(&assignment),
                "encoding disagrees with simulation on pattern {pattern:b}"
            );
        }
    }

    #[test]
    fn every_gate_type_encodes_correctly() {
        let mut n = Netlist::new();
        let a = n.input();
        let b = n.input();
        let s = n.input();
        let g1 = n.and(a, b);
        let g2 = n.or(g1, s);
        let g3 = n.xor(g2, a);
        let g4 = n.nand(g3, b);
        let g5 = n.nor(g4, s);
        let g6 = n.xnor(g5, g1);
        let g7 = n.not(g6);
        let g8 = n.mux(s, g7, g3);
        let t = n.constant(true);
        let f = n.constant(false);
        let g9 = n.and(g8, t);
        let g10 = n.or(g9, f);
        n.set_output(g10);
        check_encoding(&n);
    }

    #[test]
    fn forcing_output_finds_justifying_input() {
        // out = a ∧ ¬b; force out=1, solve by enumeration: a=1, b=0.
        let mut n = Netlist::new();
        let a = n.input();
        let b = n.input();
        let nb = n.not(b);
        let g = n.and(a, nb);
        n.set_output(g);
        let mut enc = encode(&n);
        enc.constrain_output(0, true);
        let model = enc.cnf.solve_by_enumeration().expect("justifiable");
        assert!(model.satisfies(Lit::pos(enc.input_vars[0])));
        assert!(model.satisfies(Lit::neg(enc.input_vars[1])));
    }

    #[test]
    fn unjustifiable_output_is_unsat() {
        // out = a ∧ ¬a ≡ 0; forcing out=1 must be UNSAT.
        let mut n = Netlist::new();
        let a = n.input();
        let na = n.not(a);
        let g = n.and(a, na);
        n.set_output(g);
        let mut enc = encode(&n);
        enc.constrain_output(0, true);
        assert!(enc.cnf.solve_by_enumeration().is_none());
    }

    #[test]
    fn encoding_size_is_linear() {
        let mut n = Netlist::new();
        let ins = n.inputs_n(4);
        let r = n.and_reduce(&ins);
        n.set_output(r);
        let enc = encode(&n);
        // 4 inputs (no clauses) + 3 ANDs (3 clauses each) = 9 clauses.
        assert_eq!(enc.cnf.num_clauses(), 9);
        assert_eq!(enc.cnf.num_vars(), 7);
    }

    #[test]
    #[should_panic(expected = "combinational")]
    fn sequential_netlists_are_rejected() {
        let mut n = Netlist::new();
        let q = n.dff(false);
        let nq = n.not(q);
        n.connect_dff(q, nq);
        let _ = encode(&n);
    }
}
