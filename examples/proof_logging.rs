//! Proof logging and independent checking: solve an unsatisfiable
//! instance with DRAT recording (the sink attaches to the solver at
//! construction time through the builder), write the proof in the standard
//! textual format, parse it back and verify it with the forward RUP
//! checker.
//!
//! Run with: `cargo run --release --example proof_logging`

use std::cell::RefCell;
use std::rc::Rc;

use berkmin_drat::{check_refutation, DratProof};
use berkmin_gens::hole;
use berkmin_suite::prelude::*;

fn main() {
    let inst = hole::pigeonhole(5);
    println!(
        "instance: {} ({} vars, {} clauses) — pigeonhole, UNSAT by construction\n",
        inst.name,
        inst.cnf.num_vars(),
        inst.cnf.num_clauses()
    );

    // Record the proof in memory while solving: the shared sink attaches
    // once at construction; the clone we keep reads the proof afterwards.
    let proof = Rc::new(RefCell::new(DratProof::new()));
    let mut solver = SolverBuilder::with_config(SolverConfig::berkmin())
        .proof(Rc::clone(&proof))
        .cnf(&inst.cnf)
        .build();
    assert!(solver.solve().is_unsat());
    let proof = proof.borrow();
    println!(
        "solved UNSAT in {} conflicts; proof: {} additions, {} deletions",
        solver.stats().conflicts,
        proof.num_additions(),
        proof.num_deletions()
    );

    // Serialize to the standard DRAT text format (as `drat-trim` reads).
    let mut buffer = Vec::new();
    proof
        .write_text(&mut buffer)
        .expect("in-memory writer cannot fail");
    println!("textual DRAT: {} bytes; first lines:", buffer.len());
    let text = String::from_utf8(buffer).expect("DRAT text is ASCII");
    for line in text.lines().take(5) {
        println!("  {line}");
    }

    // Round-trip and check with the independent RUP checker.
    let parsed = DratProof::parse(&text).expect("own output parses");
    let report = check_refutation(&inst.cnf, &parsed).expect("proof must verify");
    println!(
        "\nRUP check ✓  ({} additions verified, {} deletions applied)",
        report.additions_checked, report.deletions_applied
    );

    // A tampered proof must be rejected.
    let mut tampered = DratProof::new();
    tampered.add_clause(&[Lit::pos(Var::new(0))]);
    tampered.add_clause(&[]);
    match check_refutation(&inst.cnf, &tampered) {
        Err(e) => println!("tampered proof correctly rejected: {e}"),
        Ok(_) => unreachable!("bogus proof must not verify"),
    }
}
