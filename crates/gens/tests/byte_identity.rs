//! Pins the exact DIMACS text of representative generated formulas.
//!
//! Each row is the 64-bit FNV-1a of `dimacs::to_string` of one instance:
//! the same clauses, in the same order, with the same literal order and
//! the same comment lines. A change to how `Cnf` stores or receives
//! clauses must leave every row unchanged; a row moves only when a
//! generator is changed on purpose.
//!
//! The miter rows go through `tseitin::encode` and the BMC rows through
//! `bmc::unroll`; between them they send every `Gate` variant through each
//! encoder (checked below), so a change to how a gate is encoded moves a
//! row too.

use std::collections::BTreeSet;

use berkmin_circuit::arith::{carry_select_adder, enabled_counter, ripple_carry_adder};
use berkmin_circuit::bmc::unroll;
use berkmin_circuit::random::{random_circuit, RandomCircuitSpec};
use berkmin_circuit::rewrite::restructure;
use berkmin_circuit::{miter, miter_cnf, Gate, Netlist};
use berkmin_cnf::dimacs;
use berkmin_gens::bmc_gen::bmc_f2clk;
use berkmin_gens::ksat::random_ksat;
use berkmin_gens::miters::{adder_miter, buggy_miter, equivalent_miter, multiplier_miter};
use berkmin_gens::pipeline::npipe;

/// 64-bit FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn hashes() -> Vec<(String, u64)> {
    let mut rows = Vec::new();
    for seed in 0..5 {
        let inst = random_ksat(150, 639, 3, seed);
        rows.push((inst.name, fnv1a(dimacs::to_string(&inst.cnf).as_bytes())));
    }
    for inst in [multiplier_miter(6, 0), npipe(3)] {
        rows.push((inst.name, fnv1a(dimacs::to_string(&inst.cnf).as_bytes())));
    }
    let enc = unroll(&enabled_counter(6), 64);
    rows.push((
        "enabled_counter6@64".to_string(),
        fnv1a(dimacs::to_string(&enc.cnf).as_bytes()),
    ));
    for inst in [
        equivalent_miter(300, 20, 0),
        adder_miter(8, 4),
        buggy_miter(300, 20, 0),
        bmc_f2clk(4),
    ] {
        rows.push((inst.name, fnv1a(dimacs::to_string(&inst.cnf).as_bytes())));
    }
    let enc = unroll(&every_gate_sequential(), 8);
    rows.push((
        "every_gate_sequential@8".to_string(),
        fnv1a(dimacs::to_string(&enc.cnf).as_bytes()),
    ));
    rows
}

/// Two flip-flops with different power-on values whose feedback runs
/// through one gate of every combinational kind.
fn every_gate_sequential() -> Netlist {
    let mut n = Netlist::new();
    let a = n.input();
    let b = n.input();
    let q0 = n.dff(false);
    let q1 = n.dff(true);
    let one = n.constant(true);
    let not = n.not(q0);
    let and = n.and(a, q1);
    let or = n.or(not, b);
    let xor = n.xor(and, q0);
    let nand = n.nand(or, one);
    let nor = n.nor(xor, q1);
    let xnor = n.xnor(nand, nor);
    let mux = n.mux(a, xnor, xor);
    n.connect_dff(q0, mux);
    n.connect_dff(q1, xnor);
    n.set_output(q0);
    n.set_output(mux);
    n
}

/// The name of `gate`'s variant. The match is exhaustive, so a new variant
/// does not compile until the coverage test below accounts for it.
fn kind(gate: &Gate) -> &'static str {
    match gate {
        Gate::Input(_) => "Input",
        Gate::Const(_) => "Const",
        Gate::Not(_) => "Not",
        Gate::And(..) => "And",
        Gate::Or(..) => "Or",
        Gate::Xor(..) => "Xor",
        Gate::Nand(..) => "Nand",
        Gate::Nor(..) => "Nor",
        Gate::Xnor(..) => "Xnor",
        Gate::Mux { .. } => "Mux",
        Gate::Dff { .. } => "Dff",
    }
}

/// Every `Gate` variant, the one sequential kind last.
const GATE_KINDS: [&str; 11] = [
    "Input", "Const", "Not", "And", "Or", "Xor", "Nand", "Nor", "Xnor", "Mux", "Dff",
];

fn kinds(netlists: &[Netlist]) -> BTreeSet<&'static str> {
    netlists
        .iter()
        .flat_map(|n| n.gates().iter().map(kind))
        .collect()
}

#[test]
fn generated_dimacs_text_is_pinned() {
    const PINNED: [u64; 13] = [
        0x8a6d_dab6_7a14_53c9, // uf3_150_639_0
        0xa9c7_7c5f_27f3_7c99, // uf3_150_639_1
        0x774e_4ea3_8d17_60d4, // uf3_150_639_2
        0x216a_7e4f_27c8_1eee, // uf3_150_639_3
        0xf9e2_4572_6267_e6b3, // uf3_150_639_4
        0x486e_f982_e8b3_83a5, // mulmiter6_0
        0x9263_f0db_acf3_3183, // 3pipe
        0x97d9_d862_87c9_32da, // enabled_counter(6) unrolled to 64 frames
        0x2f26_6613_7db1_644c, // miter300_20_0
        0x54c9_12c5_39e9_0db7, // addmiter8_4
        0x8bca_c875_242a_8893, // miter300_20_0b
        0x4072_bff2_d61b_94d1, // f2clk_4
        0xa188_53f4_4b14_9036, // every_gate_sequential unrolled to 8 frames
    ];
    let got = hashes();
    let table: Vec<String> = got
        .iter()
        .map(|(name, h)| format!("{name}: {h:#018x}"))
        .collect();
    let got: Vec<u64> = got.iter().map(|&(_, h)| h).collect();
    assert_eq!(
        got,
        PINNED,
        "generated formulas moved:\n{}",
        table.join("\n")
    );
}

#[test]
fn pinned_netlists_reach_every_gate_kind_through_each_encoder() {
    // The netlists behind the `encode` rows, rebuilt from the generators'
    // recipes; each must give its row's formula exactly.
    let c = random_circuit(&RandomCircuitSpec {
        inputs: 16,
        gates: 300,
        outputs: 8,
        window: 20,
        seed: 0,
    });
    let encoded: Vec<Netlist> = [
        (equivalent_miter(300, 20, 0), c.clone(), restructure(&c, 1)),
        (
            adder_miter(8, 4),
            ripple_carry_adder(8),
            carry_select_adder(8, 4),
        ),
    ]
    .into_iter()
    .map(|(inst, a, b)| {
        assert_eq!(
            dimacs::to_string(&miter_cnf(&a, &b)),
            dimacs::to_string(&inst.cnf),
            "{} is no longer built from this recipe",
            inst.name
        );
        miter(&a, &b)
    })
    .collect();
    let combinational: BTreeSet<_> = GATE_KINDS[..10].iter().copied().collect(); // all but Dff
    assert_eq!(kinds(&encoded), combinational);
    let unrolled = [enabled_counter(6), every_gate_sequential()];
    assert_eq!(kinds(&unrolled), GATE_KINDS.iter().copied().collect());
}

#[test]
fn fnv1a_matches_the_reference_vectors() {
    assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
}
