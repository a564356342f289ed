//! The bounded learnt-clause exchange between portfolio workers, and the
//! link that ties one worker core to it.
//!
//! A sharing worker's core carries a [`ShareLink`]: the pool and the
//! worker's index. The search offers each of its learnt clauses to the pool
//! through the link and, at its solve entries and restart boundaries,
//! drains the foreign clauses published since its last poll. Nothing else
//! in the core knows the pool exists.
//!
//! The pool owns the sharing rule: a clause is kept when it is short
//! (length ≤ 2) or its LBD is within the cap the pool was built with, and
//! some worker other than its source is staged — has been handed the
//! formula and may run (see [`ClausePool::stage`]); a clause nobody could
//! import is not stored. The pool is a bounded FIFO guarded by one mutex:
//! publishing appends (evicting the oldest entries past capacity), polling
//! walks the suffix the consumer has not seen yet, identified by a
//! per-consumer sequence cursor the pool keeps itself. Nothing here blocks
//! for long — both operations touch the queue for O(new entries) under the
//! lock, and a rejected offer never takes it.
//!
//! Each worker counts its own traffic: its core adds to
//! `Stats::clauses_exported` when the pool keeps an offered clause and to
//! `Stats::clauses_imported` for each clause it installs. The pool counts
//! only its evictions, which the portfolio reports per call as
//! `Stats::pool_evicted` and the
//! [`PoolEvicted`](crate::telemetry::SolveEvent::PoolEvicted) event.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};

use berkmin_cnf::Lit;

/// A worker core's connection to the share pool: the pool, and the index
/// the worker publishes and polls under.
#[derive(Debug)]
pub(crate) struct ShareLink {
    pub(crate) pool: Arc<ClausePool>,
    pub(crate) id: usize,
}

/// One published clause with its provenance.
#[derive(Debug, Clone)]
struct Entry {
    /// Monotone publication number — consumers filter by this.
    seq: u64,
    /// Worker index that learnt the clause (consumers skip their own).
    source: usize,
    lits: Vec<Lit>,
}

#[derive(Debug, Default)]
struct PoolInner {
    /// Next sequence number to assign.
    next_seq: u64,
    entries: VecDeque<Entry>,
    /// Entries dropped past capacity since the pool was created.
    evicted: u64,
    /// Per-consumer flag: the worker is staged (see [`ClausePool::stage`]).
    staged: Vec<bool>,
    /// Per-consumer resume point: the sequence number each consumer's next
    /// [`ClausePool::collect`] starts from.
    cursors: Vec<u64>,
}

/// Bounded multi-producer multi-consumer clause exchange.
///
/// Capacity-bounded: when full, the *oldest* clauses are dropped — sharing
/// is best-effort (losing a shared clause costs performance, never
/// soundness, since every worker can re-derive it). Every drop is counted,
/// so capacity pressure is visible instead of silent.
#[derive(Debug)]
pub(crate) struct ClausePool {
    inner: Mutex<PoolInner>,
    capacity: usize,
    /// The sharing rule's LBD cap (see [`ClausePool::publish`]).
    max_lbd: u32,
}

impl ClausePool {
    /// A pool retaining at most `capacity` clauses, serving `workers`
    /// workers (indexed `0..workers`) as both sources and consumers, and
    /// sharing clauses of length ≤ 2 or LBD ≤ `max_lbd`.
    pub(crate) fn new(capacity: usize, workers: usize, max_lbd: u32) -> Self {
        ClausePool {
            inner: Mutex::new(PoolInner {
                staged: vec![false; workers],
                cursors: vec![0; workers],
                ..PoolInner::default()
            }),
            capacity: capacity.max(1),
            max_lbd,
        }
    }

    /// Locks the pool's state. A poisoned lock means a worker panicked
    /// mid-update; that worker's call re-raises its panic and the engine
    /// drops the pool with the crew.
    fn inner(&self) -> MutexGuard<'_, PoolInner> {
        self.inner
            .lock()
            .expect("a worker panicked while holding the share pool")
    }

    /// Marks `consumer` as staged: it holds the formula and may run, so
    /// from now on the other workers' clauses are kept for it. Until a
    /// second worker is staged, publishing stores nothing.
    pub(crate) fn stage(&self, consumer: usize) {
        self.inner().staged[consumer] = true;
    }

    /// Offers a clause learnt by worker `source`, with its LBD, and returns
    /// whether the pool kept it. The sharing rule is applied here and
    /// nowhere else: short clauses are always worth the wire, longer ones
    /// only when their glue is low (paper-era portfolio practice; the LBD
    /// cap is the one knob). A rejected clause is dropped without taking
    /// the lock; a clause no other staged worker could import is dropped
    /// too.
    pub(crate) fn publish(&self, source: usize, lits: &[Lit], lbd: u32) -> bool {
        let shared = lits.len() <= 2 || lbd <= self.max_lbd;
        if !shared {
            return false;
        }
        let mut inner = self.inner();
        let read = |(reader, &staged): (usize, &bool)| staged && reader != source;
        if !inner.staged.iter().enumerate().any(read) {
            return false;
        }
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.entries.push_back(Entry {
            seq,
            source,
            lits: lits.to_vec(),
        });
        while inner.entries.len() > self.capacity {
            inner.entries.pop_front();
            inner.evicted += 1;
        }
        true
    }

    /// Every retained clause published since `consumer`'s last poll that
    /// the consumer has not produced itself, in publication order; the
    /// consumer's cursor advances past everything currently published.
    pub(crate) fn collect(&self, consumer: usize) -> Vec<Vec<Lit>> {
        let mut inner = self.inner();
        let cursor = inner.cursors[consumer];
        let fresh = inner
            .entries
            .iter()
            .filter(|e| e.seq >= cursor && e.source != consumer)
            .map(|e| e.lits.clone())
            .collect();
        inner.cursors[consumer] = inner.next_seq;
        fresh
    }

    /// Entries evicted past capacity since the pool was created.
    pub(crate) fn evicted(&self) -> u64 {
        self.inner().evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(n: i32) -> Lit {
        Lit::from_dimacs(n)
    }

    /// A pool whose `workers` consumers are all staged.
    fn staged_pool(capacity: usize, workers: usize, max_lbd: u32) -> ClausePool {
        let pool = ClausePool::new(capacity, workers, max_lbd);
        for consumer in 0..workers {
            pool.stage(consumer);
        }
        pool
    }

    #[test]
    fn consumers_skip_own_clauses_and_track_cursors() {
        let pool = staged_pool(16, 2, 8);
        assert!(pool.publish(0, &[lit(1), lit(2)], 2));
        assert!(pool.publish(1, &[lit(-3)], 1));

        assert_eq!(
            pool.collect(0),
            vec![vec![lit(-3)]],
            "worker 0 sees only worker 1's"
        );
        // Cursor advanced: a second poll with nothing new is empty.
        assert!(pool.collect(0).is_empty());

        assert!(pool.publish(1, &[lit(4), lit(5), lit(6)], 3));
        assert_eq!(pool.collect(0).len(), 1);
    }

    #[test]
    fn publish_applies_the_sharing_rule() {
        let pool = staged_pool(16, 3, 2);
        // Long with high glue, binary with high glue, long with glue at the
        // cap, long with glue past the cap, unit.
        let kept = [
            pool.publish(0, &[lit(1), lit(2), lit(3)], 9),
            pool.publish(0, &[lit(4), lit(5)], 9),
            pool.publish(1, &[lit(6), lit(7), lit(8)], 2),
            pool.publish(1, &[lit(9), lit(10), lit(11)], 3),
            pool.publish(1, &[lit(12)], 40),
        ];
        assert_eq!(kept, [false, true, true, false, true]);

        // Consumer 2 published nothing: `collect` hands it every kept
        // clause, in publication order.
        assert_eq!(
            pool.collect(2),
            vec![
                vec![lit(4), lit(5)],
                vec![lit(6), lit(7), lit(8)],
                vec![lit(12)]
            ]
        );
    }

    #[test]
    fn capacity_evicts_oldest_and_counts_it() {
        let pool = staged_pool(2, 2, 8);
        for n in 1..=3 {
            assert!(pool.publish(0, &[lit(n)], 1), "an evicting offer is kept");
        }
        assert_eq!(pool.collect(1), vec![vec![lit(2)], vec![lit(3)]]);
        assert_eq!(pool.evicted(), 1);
    }

    #[test]
    fn publishing_waits_for_a_second_staged_worker() {
        let pool = ClausePool::new(16, 3, 8);
        // Nobody staged, then only the source: nothing is stored.
        assert!(!pool.publish(0, &[lit(1)], 1));
        pool.stage(0);
        assert!(!pool.publish(0, &[lit(2)], 1));

        // A second staged worker opens the pool to both of them; worker 2
        // is still unstaged and receives what was kept once it polls.
        pool.stage(1);
        assert!(pool.publish(0, &[lit(3)], 1));
        assert!(pool.publish(1, &[lit(4)], 1));
        assert_eq!(pool.collect(2), vec![vec![lit(3)], vec![lit(4)]]);
    }
}
