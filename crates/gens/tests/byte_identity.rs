//! Pins the exact DIMACS text of representative generated formulas.
//!
//! Each row is the 64-bit FNV-1a of `dimacs::to_string` of one instance:
//! the same clauses, in the same order, with the same literal order and
//! the same comment lines. A change to how `Cnf` stores or receives
//! clauses must leave every row unchanged; a row moves only when a
//! generator is changed on purpose.

use berkmin_circuit::arith::enabled_counter;
use berkmin_circuit::bmc::unroll;
use berkmin_cnf::dimacs;
use berkmin_gens::ksat::random_ksat;
use berkmin_gens::miters::multiplier_miter;
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
    rows
}

#[test]
fn generated_dimacs_text_is_pinned() {
    const PINNED: [u64; 8] = [
        0x8a6d_dab6_7a14_53c9, // uf3_150_639_0
        0xa9c7_7c5f_27f3_7c99, // uf3_150_639_1
        0x774e_4ea3_8d17_60d4, // uf3_150_639_2
        0x216a_7e4f_27c8_1eee, // uf3_150_639_3
        0xf9e2_4572_6267_e6b3, // uf3_150_639_4
        0x486e_f982_e8b3_83a5, // mulmiter6_0
        0x9263_f0db_acf3_3183, // 3pipe
        0x97d9_d862_87c9_32da, // enabled_counter(6) unrolled to 64 frames
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
fn fnv1a_matches_the_reference_vectors() {
    assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
}
