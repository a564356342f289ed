//! Property tests for the [`Trail`] subsystem driven through its methods
//! alone: random scripts of decisions, implied assignments and
//! backtracks must keep the assignment view, the level bookkeeping and the
//! chronological trail mutually consistent, and `backtrack_to(0)` must be
//! indistinguishable from a full restart. The three value views —
//! `value(v)`, `value_opt(v)` and `lit_value` of both polarities, which
//! the trail stores as separate per-literal entries — must agree at every
//! step.

use berkmin_cnf::{LBool, Lit, Var};
use proptest::prelude::*;

use crate::trail::Trail;

const NUM_VARS: usize = 12;

/// One scripted trail operation. Variables are drawn from a fixed pool;
/// an op whose variable is already assigned (or the queue's state makes it
/// meaningless) is skipped by the interpreter, so every generated script
/// is valid.
#[derive(Debug, Clone)]
enum Op {
    /// Open a decision level with the given literal (skipped if assigned).
    Decide(u32, bool),
    /// Assign a literal at the current level, as an implied fact
    /// (skipped if assigned).
    Imply(u32, bool),
    /// Backtrack to `target % (decision_level + 1)`.
    Backtrack(usize),
    /// Drain the propagation queue.
    Drain,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u32..NUM_VARS as u32, any::<bool>()).prop_map(|(v, s)| Op::Decide(v, s)),
        (0u32..NUM_VARS as u32, any::<bool>()).prop_map(|(v, s)| Op::Imply(v, s)),
        (0usize..8).prop_map(Op::Backtrack),
        Just(Op::Drain),
    ]
}

fn lit(v: u32, sign: bool) -> Lit {
    if sign {
        Lit::pos(Var::new(v))
    } else {
        Lit::neg(Var::new(v))
    }
}

/// Applies `ops` to a fresh trail, tracking a shadow model (assigned
/// variable → (literal, level)) that the trail must agree with at every
/// step.
fn run_script(ops: &[Op]) -> Trail {
    let mut t = Trail::new();
    t.grow(NUM_VARS);
    let mut shadow: Vec<Option<(Lit, u32)>> = vec![None; NUM_VARS];
    for o in ops {
        match *o {
            Op::Decide(v, s) => {
                if t.value(Var::new(v)) == LBool::Undef {
                    t.push_decision(lit(v, s));
                    shadow[v as usize] = Some((lit(v, s), t.decision_level() as u32));
                }
            }
            Op::Imply(v, s) => {
                if t.value(Var::new(v)) == LBool::Undef {
                    t.assign(lit(v, s), None);
                    shadow[v as usize] = Some((lit(v, s), t.decision_level() as u32));
                }
            }
            Op::Backtrack(target) => {
                let level = target % (t.decision_level() + 1);
                let mut unassigned = Vec::new();
                t.backtrack_to(level, |v| unassigned.push(v));
                for v in &unassigned {
                    let (_, lvl) = shadow[v.index()].take().expect("unassign of assigned var");
                    assert!(
                        lvl as usize > level,
                        "backtrack_to({level}) unassigned {v:?} from level {lvl}"
                    );
                }
                assert_eq!(t.decision_level(), level);
            }
            Op::Drain => t.drain_queue(),
        }
        check_consistent(&t, &shadow);
    }
    t
}

/// The trail's views must all tell the same story as the shadow.
fn check_consistent(t: &Trail, shadow: &[Option<(Lit, u32)>]) {
    let mut assigned = 0;
    for (i, entry) in shadow.iter().enumerate() {
        let v = Var::new(i as u32);
        let value = t.value(v);
        assert_eq!(t.value_opt(v), value, "value_opt vs value for {v:?}");
        assert_eq!(t.lit_value(Lit::pos(v)), value, "positive literal of {v:?}");
        assert_eq!(
            t.lit_value(Lit::neg(v)),
            !value,
            "negative literal of {v:?}"
        );
        match entry {
            Some((l, lvl)) => {
                assigned += 1;
                assert_eq!(t.lit_value(*l), LBool::True, "shadow lit {l:?} not true");
                assert_eq!(t.level_of(v), *lvl, "level mismatch for {v:?}");
            }
            None => {
                assert_eq!(t.value(v), LBool::Undef, "{v:?} should be unassigned");
                assert_eq!(t.reason_of(v), None, "unassigned {v:?} keeps a reason");
            }
        }
    }
    // Beyond the known variables the forgiving view reads unassigned.
    assert_eq!(t.value_opt(Var::new(NUM_VARS as u32)), LBool::Undef);
    assert_eq!(t.num_vars(), NUM_VARS);
    assert_eq!(t.len(), assigned, "trail length vs assigned-var count");
    assert_eq!(t.is_empty(), assigned == 0);
    // The chronological trail is exactly the assigned literals, each true,
    // each at the level the decision markers imply.
    for (i, &l) in t.iter().enumerate() {
        assert_eq!(t.lit_at(i), l);
        assert_eq!(t.lit_value(l), LBool::True);
    }
    assert_eq!(t.as_slice().len(), t.len());
    // Levels partition the trail: each level's segment starts at its
    // marker, and `decisions()` yields that segment's first literal.
    let decisions: Vec<Option<Lit>> = t.decisions().collect();
    assert_eq!(decisions.len(), t.decision_level());
    for (d, dec) in decisions.iter().enumerate() {
        let start = t.level_start(d);
        assert_eq!(
            *dec,
            (start < t.len()).then(|| t.lit_at(start)),
            "decision of level {} disagrees with the trail segment",
            d + 1
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Random scripts keep every view of the trail consistent.
    #[test]
    fn random_scripts_maintain_consistency(ops in prop::collection::vec(op(), 1..=48)) {
        run_script(&ops);
    }

    /// `backtrack_to(0)` is a full restart: no decision levels, only the
    /// (nonexistent here) level-0 facts remain, and a fresh script replayed
    /// on the wiped trail behaves as on a new one.
    #[test]
    fn backtrack_to_zero_is_a_full_restart(ops in prop::collection::vec(op(), 1..=48)) {
        let mut t = run_script(&ops);
        let root_facts: Vec<Lit> = t
            .iter()
            .copied()
            .filter(|l| t.level_of(l.var()) == 0)
            .collect();
        let mut unassigned = Vec::new();
        t.backtrack_to(0, |v| unassigned.push(v));
        assert_eq!(t.decision_level(), 0, "no decision levels survive");
        assert_eq!(
            t.as_slice(),
            &root_facts[..],
            "exactly the level-0 facts survive a full restart"
        );
        let survivors = t.len();
        // Unassigned count + survivors account for every prior assignment.
        for v in &unassigned {
            assert_eq!(t.value(*v), LBool::Undef);
        }
        // The wiped trail accepts a fresh script like a new trail would.
        let mut t2 = Trail::new();
        t2.grow(NUM_VARS);
        for l in &root_facts {
            t2.assign(*l, None);
        }
        assert_eq!(t.len(), t2.len());
        assert_eq!(t.as_slice(), t2.as_slice());
        assert_eq!(survivors + unassigned.len(), root_facts.len() + unassigned.len());
    }
}
