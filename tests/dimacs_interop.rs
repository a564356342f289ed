//! DIMACS interop: generated instances survive serialization, and solving
//! the reparsed formula gives the same verdict — the path an external user
//! of the DIMACS files would take.

use berkmin_cnf::dimacs;
use berkmin_gens::*;
use berkmin_suite::prelude::*;

fn roundtrip_and_compare(inst: &BenchInstance) {
    let text = dimacs::to_string(&inst.cnf);
    let parsed = dimacs::parse(&text).expect("generated DIMACS must parse");
    assert_eq!(parsed.num_vars(), inst.cnf.num_vars(), "{}", inst.name);
    assert!(parsed.iter().eq(&inst.cnf), "{}", inst.name);

    let mut original = Solver::new(&inst.cnf, SolverConfig::berkmin());
    let mut reparsed = Solver::new(&parsed, SolverConfig::berkmin());
    assert_eq!(
        original.solve().is_sat(),
        reparsed.solve().is_sat(),
        "{}: verdict changed across DIMACS round-trip",
        inst.name
    );
}

#[test]
fn all_families_roundtrip_through_dimacs() {
    let pool = vec![
        hole::pigeonhole(4),
        parity::parity_learning(8, 12, 1),
        hanoi::hanoi(2),
        blocksworld::blocksworld(3, 3, 1),
        beijing::adder_unsat(6),
        miters::multiplier_miter(3, 1),
        pipeline::sss_check(3, true, 7),
        ksat::planted_ksat(20, 80, 3, 3),
        bmc_gen::bmc_counter_enable(3),
    ];
    for inst in &pool {
        roundtrip_and_compare(inst);
    }
}

#[test]
fn dimacs_comments_carry_provenance() {
    let inst = hole::pigeonhole(4);
    let text = dimacs::to_string(&inst.cnf);
    assert!(text.starts_with("c "), "comment header expected:\n{text}");
    assert!(text.contains("pigeonhole"));
}

#[test]
fn solver_accepts_foreign_dimacs_quirks() {
    // Multi-line clauses, missing trailing newline, '%' terminator.
    let text = "c quirky\np cnf 4 3\n1 2\n3 0 -1\n-2 0\n4 -3 0\n%";
    let cnf = dimacs::parse(text).expect("tolerant parser");
    let mut solver = Solver::new(&cnf, SolverConfig::berkmin());
    assert!(solver.solve().is_sat());
}
