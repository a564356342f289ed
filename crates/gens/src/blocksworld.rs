//! The *Blocksworld* class: blocks-world SAT planning (`bw_large.*`).
//!
//! Classical linear STRIPS→SAT encoding: `pos(x, y, t)` places block `x`
//! on block `y` or the table, one `move(x, y, t)` action per step,
//! explanatory frame axioms. Instances are generated by scrambling a
//! random start state with `steps` legal moves, so a plan of exactly
//! `steps` moves exists by construction (satisfiable).

use berkmin_cnf::{Cnf, Lit, Var};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::BenchInstance;

struct Vars {
    blocks: usize,
    steps: usize,
}

impl Vars {
    /// Number of possible supports: each other block, or the table.
    fn supports(&self) -> usize {
        self.blocks + 1
    }

    /// The table's support index.
    fn table(&self) -> usize {
        self.blocks
    }

    /// `pos(x, y, t)`: block `x` sits on support `y` at time `t`.
    fn pos(&self, x: usize, y: usize, t: usize) -> Var {
        debug_assert!(x < self.blocks && y < self.supports() && t <= self.steps);
        Var::new(((t * self.blocks + x) * self.supports() + y) as u32)
    }

    /// `mv(x, y, t)`: block `x` is moved onto support `y` at step `t`.
    fn mv(&self, x: usize, y: usize, t: usize) -> Var {
        debug_assert!(x < self.blocks && y < self.supports() && t < self.steps);
        let base = (self.steps + 1) * self.blocks * self.supports();
        Var::new((base + (t * self.blocks + x) * self.supports() + y) as u32)
    }

    fn total(&self) -> usize {
        (self.steps + 1) * self.blocks * self.supports()
            + self.steps * self.blocks * self.supports()
    }
}

/// A blocks-world state: `support[x]` is the block under `x`, or `table`.
type State = Vec<usize>;

/// Builds the planning CNF from explicit start/goal states.
pub fn blocksworld_cnf(blocks: usize, steps: usize, start: &State, goal: &State) -> Cnf {
    assert!(blocks > 1, "need at least two blocks");
    assert!(steps > 0, "need at least one step");
    let v = Vars { blocks, steps };
    let table = v.table();
    let mut cnf = Cnf::with_vars(v.total());
    cnf.add_comment(format!("blocksworld: {blocks} blocks, {steps} steps"));

    // Each block on exactly one support; a block never supports itself.
    for t in 0..=steps {
        for x in 0..blocks {
            let supports: Vec<usize> = (0..v.supports()).filter(|&y| y != x).collect();
            cnf.add_clause(supports.iter().map(|&y| Lit::pos(v.pos(x, y, t))));
            for (i, &y1) in supports.iter().enumerate() {
                for &y2 in &supports[i + 1..] {
                    cnf.add_clause([Lit::neg(v.pos(x, y1, t)), Lit::neg(v.pos(x, y2, t))]);
                }
            }
            cnf.add_clause([Lit::neg(v.pos(x, x, t))]);
        }
        // At most one block directly on any block.
        for y in 0..blocks {
            for x1 in 0..blocks {
                for x2 in (x1 + 1)..blocks {
                    if x1 != y && x2 != y {
                        cnf.add_clause([Lit::neg(v.pos(x1, y, t)), Lit::neg(v.pos(x2, y, t))]);
                    }
                }
            }
        }
    }

    // Start and goal.
    for x in 0..blocks {
        cnf.add_clause([Lit::pos(v.pos(x, start[x], 0))]);
        cnf.add_clause([Lit::pos(v.pos(x, goal[x], steps))]);
    }

    // Exactly one move per step.
    for t in 0..steps {
        let mut ms = Vec::new();
        for x in 0..blocks {
            for y in 0..v.supports() {
                if y != x {
                    ms.push(v.mv(x, y, t));
                }
            }
        }
        cnf.add_clause(ms.iter().map(|&m| Lit::pos(m)));
        for i in 0..ms.len() {
            for j in (i + 1)..ms.len() {
                cnf.add_clause([Lit::neg(ms[i]), Lit::neg(ms[j])]);
            }
        }
    }

    // Preconditions and effects.
    for t in 0..steps {
        for x in 0..blocks {
            for y in 0..v.supports() {
                if y == x {
                    continue;
                }
                let m = Lit::neg(v.mv(x, y, t));
                // x must be clear: nothing on x.
                for z in 0..blocks {
                    if z != x {
                        cnf.add_clause([m, Lit::neg(v.pos(z, x, t))]);
                    }
                }
                // A block target must be clear (except for x itself, which
                // may already sit there — the move is then a no-op).
                if y != table {
                    for z in 0..blocks {
                        if z != x && z != y {
                            cnf.add_clause([m, Lit::neg(v.pos(z, y, t))]);
                        }
                    }
                }
                // Effect.
                cnf.add_clause([m, Lit::pos(v.pos(x, y, t + 1))]);
            }
        }
    }

    // Explanatory frame axioms.
    for t in 0..steps {
        for x in 0..blocks {
            for y in 0..v.supports() {
                if y == x {
                    continue;
                }
                // Left support y ⇒ x was moved somewhere.
                let mut away: Vec<Lit> =
                    vec![Lit::neg(v.pos(x, y, t)), Lit::pos(v.pos(x, y, t + 1))];
                for y2 in 0..v.supports() {
                    if y2 != x {
                        away.push(Lit::pos(v.mv(x, y2, t)));
                    }
                }
                cnf.add_clause(away);
                // Arrived on support y ⇒ x was moved onto y.
                cnf.add_clause([
                    Lit::pos(v.pos(x, y, t)),
                    Lit::neg(v.pos(x, y, t + 1)),
                    Lit::pos(v.mv(x, y, t)),
                ]);
            }
        }
    }

    cnf
}

/// Generates a random reachable instance: a random start state scrambled by
/// `steps` legal moves gives the goal, so the horizon-`steps` plan exists.
pub fn blocksworld(blocks: usize, steps: usize, seed: u64) -> BenchInstance {
    assert!(blocks > 1, "need at least two blocks");
    let mut rng = StdRng::seed_from_u64(seed);
    let table = blocks;

    // Random start: insert blocks one by one onto the table or a clear block.
    let mut support: State = vec![table; blocks];
    let mut clear: Vec<usize> = Vec::new();
    for (x, slot) in support.iter_mut().enumerate() {
        if !clear.is_empty() && rng.gen_bool(0.6) {
            let idx = rng.gen_range(0..clear.len());
            *slot = clear.remove(idx);
        }
        clear.push(x);
    }
    let start = support.clone();

    // Scramble with legal moves.
    for _ in 0..steps {
        let x = clear[rng.gen_range(0..clear.len())];
        // Target: table, or another clear block.
        let mut targets: Vec<usize> = clear.iter().copied().filter(|&y| y != x).collect();
        targets.push(table);
        let y = targets[rng.gen_range(0..targets.len())];
        // x leaves its old support (which becomes clear if it is a block).
        let old = support[x];
        if old != table {
            clear.push(old);
        }
        if y != table {
            clear.retain(|&c| c != y);
        }
        support[x] = y;
    }
    let goal = support;

    BenchInstance::new(
        format!("bw{blocks}_{steps}_{seed}"),
        blocksworld_cnf(blocks, steps, &start, &goal),
        Some(true),
    )
}

/// Breadth-first search over concrete blocks-world states; returns the
/// optimal plan length from `start` to `goal`.
///
/// Used at generation time to produce *tight* horizons: `optimal` gives a
/// satisfiable instance with no slack, `optimal − 1` a genuinely hard
/// unsatisfiable one (proving no shorter plan exists requires real search,
/// unlike slack-horizon instances which BCP dispatches instantly).
///
/// # Panics
///
/// Panics if the goal is unreachable (cannot happen for states produced by
/// legal scrambles) or the state space exceeds an internal safety cap.
pub fn optimal_plan_length(blocks: usize, start: &State, goal: &State) -> usize {
    use std::collections::{HashMap, VecDeque};
    let table = blocks;
    let mut dist: HashMap<State, usize> = HashMap::new();
    let mut queue: VecDeque<State> = VecDeque::new();
    dist.insert(start.clone(), 0);
    queue.push_back(start.clone());
    while let Some(state) = queue.pop_front() {
        let d = dist[&state];
        if state == *goal {
            return d;
        }
        assert!(
            dist.len() < 5_000_000,
            "state space too large for BFS; use fewer blocks"
        );
        // Clear blocks: not supporting any other block.
        let clear: Vec<usize> = (0..blocks)
            .filter(|&x| (0..blocks).all(|z| state[z] != x))
            .collect();
        for &x in &clear {
            let mut targets: Vec<usize> = clear.iter().copied().filter(|&y| y != x).collect();
            targets.push(table);
            for y in targets {
                if state[x] == y {
                    continue;
                }
                let mut next = state.clone();
                next[x] = y;
                if !dist.contains_key(&next) {
                    dist.insert(next.clone(), d + 1);
                    queue.push_back(next);
                }
            }
        }
    }
    panic!("goal unreachable — scrambled states are always reachable");
}

/// Generates a *tight* satisfiable instance: the horizon equals the
/// BFS-optimal plan length, leaving the solver no slack.
pub fn blocksworld_tight(blocks: usize, scramble: usize, seed: u64) -> BenchInstance {
    let (start, goal) = scrambled_pair(blocks, scramble, seed);
    let optimal = optimal_plan_length(blocks, &start, &goal);
    let optimal = optimal.max(1);
    BenchInstance::new(
        format!("bwt{blocks}_{scramble}_{seed}"),
        blocksworld_cnf(blocks, optimal, &start, &goal),
        Some(true),
    )
}

/// Generates a hard unsatisfiable instance: horizon = optimal − 1, so the
/// solver must prove that no shorter plan exists.
pub fn blocksworld_tight_unsat(blocks: usize, scramble: usize, seed: u64) -> BenchInstance {
    let (start, goal) = scrambled_pair(blocks, scramble, seed);
    let optimal = optimal_plan_length(blocks, &start, &goal);
    assert!(optimal >= 2, "scramble produced a ≤1-move goal; reseed");
    BenchInstance::new(
        format!("bwt{blocks}u_{scramble}_{seed}"),
        blocksworld_cnf(blocks, optimal - 1, &start, &goal),
        Some(false),
    )
}

/// Random start plus a `scramble`-move shuffle, retried until the goal
/// actually differs from the start.
fn scrambled_pair(blocks: usize, scramble: usize, seed: u64) -> (State, State) {
    assert!(blocks > 1, "need at least two blocks");
    let mut rng = StdRng::seed_from_u64(seed);
    let table = blocks;
    loop {
        let mut support: State = vec![table; blocks];
        let mut clear: Vec<usize> = Vec::new();
        for (x, slot) in support.iter_mut().enumerate() {
            if !clear.is_empty() && rng.gen_bool(0.6) {
                let idx = rng.gen_range(0..clear.len());
                *slot = clear.remove(idx);
            }
            clear.push(x);
        }
        let start = support.clone();
        for _ in 0..scramble {
            let x = clear[rng.gen_range(0..clear.len())];
            let mut targets: Vec<usize> = clear.iter().copied().filter(|&y| y != x).collect();
            targets.push(table);
            let y = targets[rng.gen_range(0..targets.len())];
            let old = support[x];
            if old != table {
                clear.push(old);
            }
            if y != table {
                clear.retain(|&c| c != y);
            }
            support[x] = y;
        }
        if support != start {
            return (start, support);
        }
    }
}

/// Generates an unsatisfiable instance: the goal displaces `d` blocks from
/// their start supports, but the horizon allows only `d − 1` moves — since
/// a block's support changes only when that block itself is moved (frame
/// axiom), `d` displaced blocks need at least `d` moves.
pub fn blocksworld_unsat(blocks: usize, scramble: usize, seed: u64) -> BenchInstance {
    assert!(blocks > 1, "need at least two blocks");
    // One move displaces at most one block, so `displaced >= 2` (needed for
    // a nonzero horizon below) is unreachable with fewer than two moves.
    assert!(scramble >= 2, "need at least two scramble moves");
    let mut rng = StdRng::seed_from_u64(seed);
    let table = blocks;

    // A scramble can land back near the start; retry (continuing the same
    // deterministic RNG stream) until ≥ 2 blocks are displaced, so the
    // `horizon = displaced − 1` bound below is meaningful.
    let mut attempts = 0;
    let (start, goal, displaced) = loop {
        attempts += 1;
        assert!(
            attempts <= 1000,
            "scramble never displaced 2 blocks; raise `scramble` or reseed"
        );
        let mut support: State = vec![table; blocks];
        let mut clear: Vec<usize> = Vec::new();
        for (x, slot) in support.iter_mut().enumerate() {
            if !clear.is_empty() && rng.gen_bool(0.6) {
                let idx = rng.gen_range(0..clear.len());
                *slot = clear.remove(idx);
            }
            clear.push(x);
        }
        let start = support.clone();
        for _ in 0..scramble {
            let x = clear[rng.gen_range(0..clear.len())];
            let mut targets: Vec<usize> = clear.iter().copied().filter(|&y| y != x).collect();
            targets.push(table);
            let y = targets[rng.gen_range(0..targets.len())];
            let old = support[x];
            if old != table {
                clear.push(old);
            }
            if y != table {
                clear.retain(|&c| c != y);
            }
            support[x] = y;
        }
        let goal = support;
        let displaced = (0..blocks).filter(|&x| start[x] != goal[x]).count();
        if displaced >= 2 {
            break (start, goal, displaced);
        }
    };
    let horizon = displaced - 1;

    BenchInstance::new(
        format!("bw{blocks}u_{scramble}_{seed}"),
        blocksworld_cnf(blocks, horizon, &start, &goal),
        Some(false),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use berkmin::{Solver, SolverConfig};

    #[test]
    fn swap_two_block_towers() {
        // Start: b1 on b0 on table. Goal: b0 on b1 on table.
        // Optimal plan: b1 → table, b0 → b1 (two moves).
        let start = vec![2, 0]; // b0 on table(2), b1 on b0
        let goal = vec![1, 2]; // b0 on b1, b1 on table
        let unsat = blocksworld_cnf(2, 1, &start, &goal);
        let mut s = Solver::new(&unsat, SolverConfig::berkmin());
        assert!(s.solve().is_unsat(), "one move cannot invert a 2-tower");

        let sat = blocksworld_cnf(2, 2, &start, &goal);
        let mut s = Solver::new(&sat, SolverConfig::berkmin());
        let status = s.solve();
        assert!(status.is_sat(), "2 moves suffice");
        assert!(sat.is_satisfied_by(status.model().unwrap()));
    }

    #[test]
    fn generated_instances_are_sat() {
        for seed in 0..3 {
            let inst = blocksworld(4, 4, seed);
            let mut s = Solver::new(&inst.cnf, SolverConfig::berkmin());
            let status = s.solve();
            let model = status.model().unwrap_or_else(|| {
                panic!("{} must be SAT (plan exists by construction)", inst.name)
            });
            assert!(inst.cnf.is_satisfied_by(model));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = blocksworld(5, 6, 42);
        let b = blocksworld(5, 6, 42);
        assert_eq!(a.cnf, b.cnf);
    }

    #[test]
    fn larger_instance_solves() {
        let inst = blocksworld(6, 8, 7);
        let mut s = Solver::new(&inst.cnf, SolverConfig::berkmin());
        assert!(s.solve().is_sat());
    }

    #[test]
    fn displacement_bound_instances_are_unsat() {
        for seed in 0..3 {
            let inst = blocksworld_unsat(5, 6, seed);
            let mut s = Solver::new(&inst.cnf, SolverConfig::berkmin());
            assert!(s.solve().is_unsat(), "{}", inst.name);
        }
    }
}
