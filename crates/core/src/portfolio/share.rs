//! The bounded learnt-clause exchange between portfolio workers.
//!
//! Every worker offers each of its learnt clauses to the pool, which owns
//! the sharing rule: a clause is kept when it is short (length ≤ 2) or its
//! LBD is within the cap the pool was built with, and some worker other
//! than its source is staged — has been handed the formula and may run (see
//! [`ClausePool::stage`]); a clause nobody could import is not stored.
//! Workers poll for foreign
//! clauses at their solve entries and restart boundaries. The pool is a
//! bounded FIFO guarded by one mutex: publishing appends (evicting the
//! oldest entries past capacity), polling walks the suffix the consumer
//! has not seen yet, identified by a per-consumer sequence cursor the pool
//! keeps itself. Nothing here blocks for long — both operations touch the
//! queue for O(new entries) under the lock, and a rejected offer never
//! takes it.
//!
//! Eviction is **accounted, not silent**: the pool counts every evicted
//! entry, and whenever a consumer's cursor lags behind the oldest retained
//! sequence number the gap is charged to that consumer's *missed* counter —
//! the trace of shared clauses a slow consumer lost to capacity pressure.
//! Publications are counted per source worker. The totals surface in
//! [`PoolSummary`], the portfolio's `Stats` (`clauses_exported` /
//! `pool_evicted` / `pool_missed`), the per-worker reports (`exported` /
//! `missed`), the CLI's `c workers` line, and the
//! [`PoolEvicted`](crate::telemetry::SolveEvent::PoolEvicted) event.

use std::collections::VecDeque;
use std::sync::Mutex;

use berkmin_cnf::Lit;

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
    /// Per-source count of clauses published.
    published: Vec<u64>,
    /// Per-consumer flag: the worker is staged (see [`ClausePool::stage`]).
    staged: Vec<bool>,
    /// Per-consumer resume point: the sequence number each consumer's next
    /// [`ClausePool::collect`] starts from.
    cursors: Vec<u64>,
    /// Per-consumer count of entries evicted before the consumer's cursor
    /// reached them (an upper bound on lost import candidates: it includes
    /// the consumer's own publications — once evicted, an entry's source is
    /// unknowable).
    missed: Vec<u64>,
}

/// Accounting of a [`ClausePool`]: totals since the pool was created
/// ([`ClausePool::summary`]), or one call's share of them
/// ([`PoolSummary::since`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct PoolSummary {
    /// Per-source clauses published (evicted ones included).
    pub(crate) published: Vec<u64>,
    /// Entries evicted past capacity.
    pub(crate) evicted: u64,
    /// Per-consumer missed-entry counts (see [`PoolInner::missed`]).
    pub(crate) missed: Vec<u64>,
}

impl PoolSummary {
    /// What the pool accumulated between `earlier` and `self`, two
    /// summaries of the same pool — how a pool that outlives many solve
    /// calls reports each call's publications, evictions and misses.
    pub(crate) fn since(&self, earlier: &PoolSummary) -> PoolSummary {
        let minus = |now: &[u64], then: &[u64]| -> Vec<u64> {
            let then = |i: usize| then.get(i).copied().unwrap_or(0);
            now.iter().enumerate().map(|(i, &n)| n - then(i)).collect()
        };
        PoolSummary {
            published: minus(&self.published, &earlier.published),
            evicted: self.evicted - earlier.evicted,
            missed: minus(&self.missed, &earlier.missed),
        }
    }
}

/// Bounded multi-producer multi-consumer clause exchange.
///
/// Capacity-bounded: when full, the *oldest* clauses are dropped — sharing
/// is best-effort (losing a shared clause costs performance, never
/// soundness, since every worker can re-derive it). Every drop is counted,
/// and consumers that were too slow to see a dropped entry are charged a
/// *miss*, so capacity pressure is visible instead of silent.
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
                published: vec![0; workers],
                staged: vec![false; workers],
                cursors: vec![0; workers],
                missed: vec![0; workers],
                ..PoolInner::default()
            }),
            capacity: capacity.max(1),
            max_lbd,
        }
    }

    /// Marks `consumer` as staged: it holds the formula and may run, so
    /// from now on the other workers' clauses are kept for it. Until a
    /// second worker is staged, publishing stores nothing.
    pub(crate) fn stage(&self, consumer: usize) {
        self.inner.lock().unwrap().staged[consumer] = true;
    }

    /// Offers a clause learnt by worker `source`, with its LBD. The sharing
    /// rule is applied here and nowhere else: short clauses are always
    /// worth the wire, longer ones only when their glue is low (paper-era
    /// portfolio practice; the LBD cap is the one knob). A rejected clause
    /// is dropped without taking the lock; a clause no other staged worker
    /// could import is dropped uncounted.
    pub(crate) fn publish(&self, source: usize, lits: &[Lit], lbd: u32) {
        let shared = lits.len() <= 2 || lbd <= self.max_lbd;
        if !shared {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        let read = |(reader, &staged): (usize, &bool)| staged && reader != source;
        if !inner.staged.iter().enumerate().any(read) {
            return;
        }
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.published[source] += 1;
        inner.entries.push_back(Entry {
            seq,
            source,
            lits: lits.to_vec(),
        });
        while inner.entries.len() > self.capacity {
            inner.entries.pop_front();
            inner.evicted += 1;
        }
    }

    /// Appends to `out` every clause published since `consumer`'s last
    /// poll that the consumer has not produced itself, and advances the
    /// consumer's cursor past everything currently published. Entries that
    /// were evicted before the cursor reached them are charged to the
    /// consumer's missed counter.
    pub(crate) fn collect(&self, consumer: usize, out: &mut Vec<Vec<Lit>>) {
        let mut inner = self.inner.lock().unwrap();
        let cursor = inner.cursors[consumer];
        // Entries with seq in [cursor, oldest_retained) are gone for good:
        // this consumer never saw them.
        let oldest_retained = inner
            .entries
            .front()
            .map(|e| e.seq)
            .unwrap_or(inner.next_seq);
        if oldest_retained > cursor {
            inner.missed[consumer] += oldest_retained - cursor;
        }
        for e in &inner.entries {
            if e.seq >= cursor && e.source != consumer {
                out.push(e.lits.clone());
            }
        }
        inner.cursors[consumer] = inner.next_seq;
    }

    /// Snapshot of the pool's accounting: per-source publications,
    /// evictions and per-consumer misses. A final implicit poll is **not**
    /// performed — the summary charges only entries consumers actually
    /// failed to see at their real polls.
    pub(crate) fn summary(&self) -> PoolSummary {
        let inner = self.inner.lock().unwrap();
        PoolSummary {
            published: inner.published.clone(),
            evicted: inner.evicted,
            missed: inner.missed.clone(),
        }
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
        pool.publish(0, &[lit(1), lit(2)], 2);
        pool.publish(1, &[lit(-3)], 1);

        let mut got = Vec::new();
        pool.collect(0, &mut got);
        assert_eq!(got, vec![vec![lit(-3)]], "worker 0 sees only worker 1's");

        // Cursor advanced: a second poll with nothing new is empty.
        got.clear();
        pool.collect(0, &mut got);
        assert!(got.is_empty());

        pool.publish(1, &[lit(4), lit(5), lit(6)], 3);
        got.clear();
        pool.collect(0, &mut got);
        assert_eq!(got.len(), 1);
        assert_eq!(pool.summary().published, vec![1, 2]);
    }

    #[test]
    fn publish_applies_the_sharing_rule_and_counts_per_source() {
        let pool = staged_pool(16, 3, 2);
        pool.publish(0, &[lit(1), lit(2), lit(3)], 9); // long, high glue: dropped
        pool.publish(0, &[lit(4), lit(5)], 9); // binary, high glue: kept
        pool.publish(1, &[lit(6), lit(7), lit(8)], 2); // long, glue at the cap: kept
        pool.publish(1, &[lit(9), lit(10), lit(11)], 3); // long, glue past the cap: dropped
        pool.publish(1, &[lit(12)], 40); // unit: kept
        assert_eq!(pool.summary().published, vec![1, 2, 0]);

        // Consumer 2 published nothing: `collect` hands it every kept
        // clause, in publication order.
        let mut got = Vec::new();
        pool.collect(2, &mut got);
        assert_eq!(
            got,
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
        pool.publish(0, &[lit(1)], 1);
        pool.publish(0, &[lit(2)], 1);
        pool.publish(0, &[lit(3)], 1);
        let mut got = Vec::new();
        pool.collect(1, &mut got);
        assert_eq!(got, vec![vec![lit(2)], vec![lit(3)]]);
        let summary = pool.summary();
        assert_eq!(summary.published, vec![3, 0]);
        assert_eq!(summary.evicted, 1);
        // Consumer 1's first poll arrived after the eviction: it missed
        // entry 0 and is told so.
        assert_eq!(summary.missed, vec![0, 1]);
    }

    #[test]
    fn slow_consumer_is_charged_for_evicted_entries() {
        let pool = staged_pool(2, 3, 8);
        // The fast consumer (1) polls while everything is still retained.
        pool.publish(0, &[lit(1)], 1);
        pool.publish(0, &[lit(2)], 1);
        let mut got = Vec::new();
        pool.collect(1, &mut got);
        assert_eq!(got.len(), 2);

        // Four more publications evict seqs 0..4 — past both cursors.
        for n in 3..7 {
            pool.publish(0, &[lit(n)], 1);
        }
        // The slow consumer (2) has never polled: its cursor (0) lags the
        // oldest retained seq (4) by 4 missed entries.
        got.clear();
        pool.collect(2, &mut got);
        assert_eq!(got, vec![vec![lit(5)], vec![lit(6)]]);
        // The fast consumer's cursor (2) lags by 2.
        got.clear();
        pool.collect(1, &mut got);
        assert_eq!(got, vec![vec![lit(5)], vec![lit(6)]]);

        let summary = pool.summary();
        assert_eq!(summary.evicted, 4);
        assert_eq!(summary.missed, vec![0, 2, 4]);

        // Misses accumulate only on real gaps: an immediate re-poll adds
        // nothing.
        got.clear();
        pool.collect(2, &mut got);
        assert!(got.is_empty());
        assert_eq!(pool.summary().missed, vec![0, 2, 4]);
    }

    #[test]
    fn since_reports_one_calls_share_per_source() {
        let pool = staged_pool(16, 2, 8);
        pool.publish(0, &[lit(1)], 1);
        let before = pool.summary();
        pool.publish(1, &[lit(2)], 1);
        pool.publish(1, &[lit(3)], 1);
        let call = pool.summary().since(&before);
        assert_eq!(call.published, vec![0, 2]);
    }

    #[test]
    fn publishing_waits_for_a_second_staged_worker() {
        let pool = ClausePool::new(16, 3, 8);
        // Nobody staged, then only the source: nothing is stored or counted.
        pool.publish(0, &[lit(1)], 1);
        pool.stage(0);
        pool.publish(0, &[lit(2)], 1);
        assert_eq!(pool.summary().published, vec![0, 0, 0]);

        // A second staged worker opens the pool to both of them; worker 2
        // is still unstaged and receives what was kept once it polls.
        pool.stage(1);
        pool.publish(0, &[lit(3)], 1);
        pool.publish(1, &[lit(4)], 1);
        assert_eq!(pool.summary().published, vec![1, 1, 0]);
        let mut got = Vec::new();
        pool.collect(2, &mut got);
        assert_eq!(got, vec![vec![lit(3)], vec![lit(4)]]);
    }
}
