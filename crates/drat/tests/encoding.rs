//! Round-trip test of `DratProof`'s in-memory encoding.
//!
//! Literal codes are stored LEB128-encoded, so the width of a code in the
//! buffer changes at every multiple of seven bits. Random proofs are drawn
//! with codes on both sides of each width boundary, up to the largest
//! DIMACS literal ±(2^31−1), mixed with small codes, deletions, empty
//! clauses and hinted additions. Every proof must decode back to its input,
//! render the text a plain `format!` rendering of the input gives, stream
//! the same bytes through `write_text`, report that text's length, and
//! parse back to the same literals.

use berkmin::{ClauseId, ProofSink};
use berkmin_cnf::Lit;
use berkmin_drat::{DratProof, Step};

/// Random proofs drawn.
const PROOFS: u64 = 200;

/// splitmix64: a tiny seeded generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Literal codes on both sides of every LEB128 width boundary, the
/// smallest codes, and the codes of DIMACS 2^31−1 and −(2^31−1).
fn boundary_codes() -> Vec<u32> {
    let mut codes = vec![0, 1, 2, 3];
    for bits in [7, 14, 21, 28] {
        let edge = 1u32 << bits;
        codes.extend([edge - 2, edge - 1, edge, edge + 1]);
    }
    let top = Lit::from_dimacs(i32::MAX).code() as u32;
    codes.extend([top - 2, top - 1, top, top + 1]);
    codes
}

/// One step as the test wrote it.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Written {
    deletion: bool,
    lits: Vec<Lit>,
    hints: Vec<ClauseId>,
}

fn random_lit(rng: &mut Rng, codes: &[u32]) -> Lit {
    if rng.below(3) == 0 {
        Lit::from_code(rng.below(64) as u32)
    } else {
        Lit::from_code(codes[rng.below(codes.len())])
    }
}

fn random_id(rng: &mut Rng) -> ClauseId {
    let n = match rng.below(3) {
        0 => rng.below(200) as u32,
        1 => u32::MAX - rng.below(3) as u32,
        _ => rng.next() as u32,
    };
    if rng.below(2) == 0 {
        ClauseId::Original(n)
    } else {
        ClauseId::Lemma(n)
    }
}

fn random_steps(rng: &mut Rng, codes: &[u32]) -> Vec<Written> {
    (0..rng.below(40))
        .map(|_| {
            let deletion = rng.below(4) == 0;
            let len = if rng.below(8) == 0 { 0 } else { rng.below(7) };
            let lits = (0..len).map(|_| random_lit(rng, codes)).collect();
            let hints = if !deletion && rng.below(2) == 0 {
                (0..1 + rng.below(6)).map(|_| random_id(rng)).collect()
            } else {
                Vec::new()
            };
            Written {
                deletion,
                lits,
                hints,
            }
        })
        .collect()
}

fn record(steps: &[Written]) -> DratProof {
    let mut proof = DratProof::new();
    for s in steps {
        if s.deletion {
            proof.delete_clause(&s.lits);
        } else {
            proof.add_clause_hinted(&s.lits, &s.hints);
        }
    }
    proof
}

/// The textual DRAT of `steps`, rendered by `format!`.
fn reference_text(steps: &[Written]) -> String {
    let mut text = String::new();
    for s in steps {
        if s.deletion {
            text.push_str("d ");
        }
        for l in &s.lits {
            text.push_str(&format!("{} ", l.to_dimacs()));
        }
        text.push_str("0\n");
    }
    text
}

fn decoded(proof: &DratProof) -> Vec<Written> {
    proof
        .steps()
        .enumerate()
        .map(|(i, step)| {
            assert_eq!(step.lits().is_empty(), step.lits().next().is_none());
            Written {
                deletion: matches!(step, Step::Delete(_)),
                lits: step.lits().collect(),
                hints: proof.hints(i).collect(),
            }
        })
        .collect()
}

#[test]
fn boundary_codes_survive_every_path() {
    let codes = boundary_codes();
    let mut rng = Rng(20);
    let mut seen = vec![false; codes.len()];
    for seed in 0..PROOFS {
        let steps = random_steps(&mut rng, &codes);
        for l in steps.iter().flat_map(|s| &s.lits) {
            if let Some(k) = codes.iter().position(|&c| c as usize == l.code()) {
                seen[k] = true;
            }
        }
        let proof = record(&steps);
        assert_eq!(decoded(&proof), steps, "proof {seed}: decoding");

        let text = proof.to_text();
        assert_eq!(text, reference_text(&steps), "proof {seed}: to_text");
        let mut streamed = Vec::new();
        proof.write_text(&mut streamed).unwrap();
        assert_eq!(streamed, text.as_bytes(), "proof {seed}: write_text");
        assert_eq!(proof.text_len(), text.len(), "proof {seed}: text_len");

        let deletions = steps.iter().filter(|s| s.deletion).count();
        assert_eq!(proof.num_deletions(), deletions, "proof {seed}");
        assert_eq!(
            proof.num_additions(),
            steps.len() - deletions,
            "proof {seed}"
        );
        assert_eq!(
            proof.ends_with_empty_clause(),
            steps.iter().any(|s| !s.deletion && s.lits.is_empty()),
            "proof {seed}"
        );

        let parsed = DratProof::parse(&text).expect("rendered text parses");
        let unhinted: Vec<Written> = steps
            .iter()
            .map(|s| Written {
                hints: Vec::new(),
                ..s.clone()
            })
            .collect();
        assert_eq!(decoded(&parsed), unhinted, "proof {seed}: parse");
        assert_eq!(parsed, record(&unhinted), "proof {seed}: parse");
    }
    // Each width boundary must have been drawn, or a width went untested.
    assert!(seen.iter().all(|&s| s), "undrawn boundary codes: {seen:?}");
}
