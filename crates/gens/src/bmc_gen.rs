//! Bounded-model-checking instances (the SAT-2002 `bmc2/cnt10` analog in
//! Table 10, plus `fifo`/`f2clk`-style reachability questions).

use berkmin_circuit::arith::{counter, enabled_counter};
use berkmin_circuit::bmc::unroll;
use berkmin_circuit::Netlist;
use berkmin_cnf::{Cnf, Lit};

use crate::BenchInstance;

/// Unrolls `netlist` to cycle `cycle` and demands every output high there.
fn all_outputs_high_at(netlist: &Netlist, cycle: usize) -> Cnf {
    let mut enc = unroll(netlist, cycle + 1);
    for o in 0..netlist.outputs().len() {
        enc.constrain_output_at(cycle, o, true);
    }
    enc.cnf
}

/// `cntN`: does the N-bit counter reach the all-ones state within its
/// horizon? SAT exactly at `2^bits − 1` cycles after reset.
pub fn bmc_counter(bits: usize) -> BenchInstance {
    let cnf = all_outputs_high_at(&counter(bits), (1usize << bits) - 1);
    BenchInstance::new(format!("cnt{bits}"), cnf, Some(true))
}

/// The unsatisfiable sibling: all-ones demanded one cycle too early.
pub fn bmc_counter_unsat(bits: usize) -> BenchInstance {
    let cnf = all_outputs_high_at(&counter(bits), (1usize << bits) - 2);
    BenchInstance::new(format!("cnt{bits}u"), cnf, Some(false))
}

/// `cntN` with a free enable input per cycle: reaching all-ones at cycle
/// `2^bits − 1` forces *every* enable high — satisfiable with a unique
/// enable trace the solver must discover (unlike the free-running counter,
/// this is not solved by propagation alone).
pub fn bmc_counter_enable(bits: usize) -> BenchInstance {
    let cnf = all_outputs_high_at(&enabled_counter(bits), (1usize << bits) - 1);
    BenchInstance::new(format!("cnt{bits}e"), cnf, Some(true))
}

/// The unsatisfiable sibling of [`bmc_counter_enable`]: all-ones demanded
/// one cycle too early — no enable trace can get there.
pub fn bmc_counter_enable_unsat(bits: usize) -> BenchInstance {
    let cnf = all_outputs_high_at(&enabled_counter(bits), (1usize << bits) - 2);
    BenchInstance::new(format!("cnt{bits}eu"), cnf, Some(false))
}

/// One per-depth query of the enabled-counter reachability sweep: "is the
/// count all-ones at cycle `depth`?" — SAT iff `depth ≥ 2^bits − 1` (the
/// enable input lets the counter park once it arrives). This is the scratch
/// instance the incremental `BmcDriver` sweep answers with one warm solver;
/// benches build one per depth to measure what clause reuse saves.
pub fn bmc_counter_enable_at(bits: usize, depth: usize) -> BenchInstance {
    let cnf = all_outputs_high_at(&enabled_counter(bits), depth);
    let expected = Some(depth >= (1usize << bits) - 1);
    BenchInstance::new(format!("cnt{bits}e@{depth}"), cnf, expected)
}

/// Builds a `depth`-stage shift register (FIFO skeleton): input bit enters
/// stage 0; output is the last stage.
fn shift_register(depth: usize) -> Netlist {
    let mut n = Netlist::new();
    let din = n.input();
    let mut prev = din;
    let mut regs = Vec::with_capacity(depth);
    for _ in 0..depth {
        let q = n.dff(false);
        n.connect_dff(q, prev);
        regs.push(q);
        prev = q;
    }
    n.set_output(*regs.last().expect("depth > 0"));
    n
}

/// `fifoN_T` analog: can the FIFO's output be 1 at cycle `T`? The first
/// bit needs `depth` cycles to traverse, so the property is SAT iff
/// `cycle ≥ depth`.
pub fn bmc_fifo(depth: usize, cycle: usize) -> BenchInstance {
    assert!(depth > 0, "fifo needs at least one stage");
    let n = shift_register(depth);
    let mut enc = unroll(&n, cycle + 1);
    enc.constrain_output_at(cycle, 0, true);
    let expected = Some(cycle >= depth);
    BenchInstance::new(format!("fifo{depth}_{cycle}"), enc.cnf, expected)
}

/// `f2clk` analog: two counters clocked against each other — a fast 1-bit
/// toggle and a slow `bits`-bit counter; ask whether the toggle and the
/// counter's MSB can be simultaneously high *and* the counter's lower bits
/// all zero at an odd cycle where parity forbids it. Constructed UNSAT:
/// the toggle equals cycle parity and the counter MSB first rises at cycle
/// `2^(bits-1)` (even), so demanding both `toggle = 1` (odd cycle) and
/// `count = 2^(bits-1)` (which happens only at even cycles ≤ horizon) at
/// the same cycle `2^(bits-1)` is impossible.
pub fn bmc_f2clk(bits: usize) -> BenchInstance {
    assert!(bits >= 2, "need a multi-bit counter");
    let mut n = Netlist::new();
    // Toggle flip-flop: equals cycle parity.
    let t = n.dff(false);
    let nt = n.not(t);
    n.connect_dff(t, nt);
    // Counter.
    let cnt = counter(bits);
    let cnt_outs = n.import(&cnt, &[]);
    n.set_output(t);
    for o in cnt_outs {
        n.set_output(o);
    }
    let cycle = 1usize << (bits - 1); // counter == 2^(bits-1) exactly here
    let mut enc = unroll(&n, cycle + 1);
    // toggle = 1 at an even cycle: impossible.
    enc.constrain_output_at(cycle, 0, true);
    // counter = 2^(bits-1): MSB 1, others 0 (consistent on its own).
    for b in 0..bits {
        enc.constrain_output_at(cycle, 1 + b, b == bits - 1);
    }
    BenchInstance::new(format!("f2clk_{bits}"), enc.cnf, Some(false))
}

/// Extra units pinning input bits for [`bmc_fifo`]-style instances where a
/// specific data pattern must traverse (used by tests to cross-check the
/// data path, not just reachability).
pub fn bmc_fifo_pattern(depth: usize, cycle: usize, bit: bool) -> BenchInstance {
    let mut inst = bmc_fifo(depth, cycle);
    if cycle >= depth {
        // Force the input at the cycle that reaches the output.
        let n = shift_register(depth);
        let enc = unroll(&n, cycle + 1);
        let v = enc.input_vars[cycle - depth][0];
        inst.cnf.add_clause([Lit::new(v, !bit)]);
        inst.expected = Some(bit); // output must equal the injected bit
        inst.name = format!("fifo{depth}_{cycle}_{}", u8::from(bit));
    }
    inst
}

#[cfg(test)]
mod tests {
    use super::*;
    use berkmin::{Solver, SolverConfig};

    fn solve(inst: &BenchInstance) -> bool {
        let mut s = Solver::new(&inst.cnf, SolverConfig::berkmin());
        match s.solve() {
            berkmin::SolveStatus::Sat(m) => {
                assert!(inst.cnf.is_satisfied_by(&m), "{}: bad model", inst.name);
                true
            }
            berkmin::SolveStatus::Unsat => false,
            berkmin::SolveStatus::Unknown(r) => panic!("{}: aborted {r}", inst.name),
        }
    }

    #[test]
    fn counter_reaches_max_exactly_on_time() {
        assert!(solve(&bmc_counter(3)));
        assert!(!solve(&bmc_counter_unsat(3)));
    }

    #[test]
    fn counter_cnt4_solves() {
        assert!(solve(&bmc_counter(4)));
    }

    #[test]
    fn enabled_counter_needs_every_enable() {
        assert!(solve(&bmc_counter_enable(3)));
        assert!(!solve(&bmc_counter_enable_unsat(3)));
    }

    #[test]
    fn per_depth_queries_flip_at_the_horizon() {
        for depth in 0..=8 {
            let inst = bmc_counter_enable_at(3, depth);
            assert_eq!(solve(&inst), depth >= 7, "{}", inst.name);
        }
    }

    #[test]
    fn fifo_latency_is_exact() {
        assert!(!solve(&bmc_fifo(4, 3)), "bit cannot arrive early");
        assert!(solve(&bmc_fifo(4, 4)), "bit arrives after depth cycles");
        assert!(solve(&bmc_fifo(4, 7)), "later cycles also reachable");
    }

    #[test]
    fn fifo_pattern_forces_data_value() {
        assert!(solve(&bmc_fifo_pattern(3, 5, true)));
        assert!(!solve(&bmc_fifo_pattern(3, 5, false)));
    }

    #[test]
    fn f2clk_parity_conflict_is_unsat() {
        assert!(!solve(&bmc_f2clk(3)));
        assert!(!solve(&bmc_f2clk(4)));
    }
}
