//! Tiny deterministic PRNG used for the randomized branch-selection
//! heuristics (`Take_rand`, and tie-breaking in `nb_two`, paper §7).
//!
//! The solver embeds its own xorshift64* generator instead of depending on
//! an external crate so that runs are bit-reproducible from the seed alone
//! and the core crate stays dependency-free.

/// A xorshift64* pseudo-random generator.
///
/// Not cryptographically secure — it only drives heuristic tie-breaking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Creates a generator from a seed. A zero seed is remapped to a fixed
    /// non-zero constant (xorshift has an all-zero fixed point).
    pub fn new(seed: u64) -> Self {
        XorShift64 {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// Returns the next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Returns a uniformly distributed boolean.
    pub fn next_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

impl Default for XorShift64 {
    fn default() -> Self {
        XorShift64::new(0xBE2C_51A9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = XorShift64::new(1);
        let mut b = XorShift64::new(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn zero_seed_is_remapped() {
        let mut r = XorShift64::new(0);
        assert_ne!(r.next_u64(), 0);
    }

    #[test]
    fn next_bool_hits_both_values() {
        let mut r = XorShift64::new(3);
        let vals: Vec<bool> = (0..64).map(|_| r.next_bool()).collect();
        assert!(vals.iter().any(|&b| b));
        assert!(vals.iter().any(|&b| !b));
    }
}
