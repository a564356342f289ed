//! # berkmin-bench — the experiment harness
//!
//! Regenerates every table and figure of the BerkMin paper. Each `tableN`
//! binary (and `fig1`) prints the paper-style table from freshly generated
//! workloads; `all_experiments` runs the lot and writes the results
//! directory consumed by EXPERIMENTS.md.
//!
//! The paper's wall-clock timeouts become deterministic *conflict budgets*
//! here (see `DESIGN.md`); a run that exhausts its budget is reported in
//! the paper's `>time (aborted)` cell style.
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `table1` | Table 1 — sensitivity of decision making |
//! | `table2` | Table 2 — mobility of decision making |
//! | `table3` | Table 3 — skin effect `f(r)` |
//! | `table4` | Table 4 — branch-selection heuristics |
//! | `table5` | Table 5 — database management |
//! | `table6` | Table 6 — BerkMin vs zChaff, comparable classes |
//! | `table7` | Table 7 — classes where BerkMin dominates |
//! | `table8` | Table 8 — per-instance decisions/time |
//! | `table9` | Table 9 — database size ratios |
//! | `table10` | Table 10 — SAT-2002 three-solver shootout |
//! | `fig1` | Fig. 1 — cone switching from idle to active |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ablation;
mod runner;
mod table;

pub use ablation::run_ablation;
pub use runner::{run_class, run_instance, ClassResult, RunResult, Verdict};
pub use table::TextTable;

use berkmin::Budget;
use berkmin_gens::suites::PaperClass;

/// Per-class conflict budgets for the ablation tables (Tables 1/2/4/5).
///
/// Chosen so that the full BerkMin configuration finishes every class
/// comfortably while crippled ablation arms can (and do) abort — mirroring
/// the paper's 60,000 s timeout, which BerkMin never hit but several
/// ablation arms did.
pub fn class_budget(class: PaperClass) -> Budget {
    // Roughly 6–10× what the full BerkMin configuration needs per class
    // (measured; see EXPERIMENTS.md).
    let conflicts = match class {
        PaperClass::Hole => 300_000,
        PaperClass::Blocksworld => 100_000,
        PaperClass::Par16 => 400_000,
        PaperClass::Sss10 => 100_000,
        PaperClass::Sss10a => 100_000,
        PaperClass::SssSat10 => 100_000,
        PaperClass::FvpUnsat10 => 300_000,
        PaperClass::VliwSat10 => 200_000,
        PaperClass::Beijing => 100_000,
        PaperClass::Hanoi => 200_000,
        PaperClass::Miters => 400_000,
        PaperClass::FvpUnsat20 => 400_000,
    };
    Budget::conflicts(conflicts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use berkmin_gens::suites::ABLATION_ORDER;

    #[test]
    fn every_class_has_a_budget() {
        for class in ABLATION_ORDER {
            assert!(class_budget(class).max_conflicts > 0);
        }
    }
}
