//! The bounded learnt-clause exchange between portfolio workers.
//!
//! Workers publish clauses that pass the export filter (length ≤ 2 or LBD
//! within the cap) and poll for foreign clauses at their restart
//! boundaries. The pool is a bounded FIFO guarded by one mutex: publishing
//! appends (evicting the oldest entries past capacity), polling walks the
//! suffix the consumer has not seen yet, identified by a per-consumer
//! sequence cursor the pool keeps itself. Nothing here blocks for long —
//! both operations touch the queue for O(new entries) under the lock.
//!
//! Eviction is **accounted, not silent**: the pool counts every evicted
//! entry, and whenever a consumer's cursor lags behind the oldest retained
//! sequence number the gap is charged to that consumer's *missed* counter —
//! the trace of shared clauses a slow consumer lost to capacity pressure.
//! The totals surface in [`PoolSummary`], the portfolio's `Stats`
//! (`pool_evicted` / `pool_missed`), the CLI's `c workers` line, and the
//! [`PoolEvicted`](crate::telemetry::SolveEvent::PoolEvicted) event.

use std::collections::VecDeque;
use std::sync::Mutex;

use berkmin_cnf::Lit;

/// One published clause with its provenance and quality.
#[derive(Debug, Clone)]
struct Entry {
    /// Monotone publication number — consumers filter by this.
    seq: u64,
    /// Worker index that learnt the clause (consumers skip their own).
    source: usize,
    /// The clause's LBD at deduction time (importers may refine the cap).
    lbd: u32,
    lits: Vec<Lit>,
}

#[derive(Debug, Default)]
struct PoolInner {
    /// Next sequence number to assign.
    next_seq: u64,
    entries: VecDeque<Entry>,
    /// Entries dropped past capacity since the pool was created.
    evicted: u64,
    /// Per-consumer resume point: the sequence number each consumer's next
    /// [`ClausePool::collect`] starts from.
    cursors: Vec<u64>,
    /// Per-consumer count of entries evicted before the consumer's cursor
    /// reached them (an upper bound on lost import candidates: it includes
    /// the consumer's own publications and clauses its LBD filter would
    /// have rejected — once evicted, their fate is unknowable).
    missed: Vec<u64>,
}

/// Accounting of a [`ClausePool`]: totals since the pool was created
/// ([`ClausePool::summary`]), or one call's share of them
/// ([`PoolSummary::since`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct PoolSummary {
    /// Total clauses ever published (evicted ones included).
    pub(crate) published: u64,
    /// Entries evicted past capacity.
    pub(crate) evicted: u64,
    /// Per-consumer missed-entry counts (see [`PoolInner::missed`]).
    pub(crate) missed: Vec<u64>,
}

impl PoolSummary {
    /// What the pool accumulated between `earlier` and `self`, two
    /// summaries of the same pool — how a pool that outlives many solve
    /// calls reports each call's evictions and misses.
    pub(crate) fn since(&self, earlier: &PoolSummary) -> PoolSummary {
        PoolSummary {
            published: self.published - earlier.published,
            evicted: self.evicted - earlier.evicted,
            missed: self
                .missed
                .iter()
                .enumerate()
                .map(|(i, &m)| m - earlier.missed.get(i).copied().unwrap_or(0))
                .collect(),
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
}

impl ClausePool {
    /// A pool retaining at most `capacity` clauses, serving `consumers`
    /// workers (indexed `0..consumers`).
    pub(crate) fn new(capacity: usize, consumers: usize) -> Self {
        ClausePool {
            inner: Mutex::new(PoolInner {
                cursors: vec![0; consumers],
                missed: vec![0; consumers],
                ..PoolInner::default()
            }),
            capacity: capacity.max(1),
        }
    }

    /// Publishes a clause learnt by worker `source`.
    pub(crate) fn publish(&self, source: usize, lits: &[Lit], lbd: u32) {
        let mut inner = self.inner.lock().unwrap();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.entries.push_back(Entry {
            seq,
            source,
            lbd,
            lits: lits.to_vec(),
        });
        while inner.entries.len() > self.capacity {
            inner.entries.pop_front();
            inner.evicted += 1;
        }
    }

    /// Appends to `out` every clause published since `consumer`'s last
    /// poll that the consumer has not produced itself and whose LBD is ≤
    /// `max_lbd` (length-≤-2 clauses always pass — they are the cheapest,
    /// most reusable lemmas). Advances the consumer's cursor past
    /// everything currently published, seen or filtered alike; entries
    /// that were evicted before the cursor reached them are charged to the
    /// consumer's missed counter.
    pub(crate) fn collect(&self, consumer: usize, max_lbd: u32, out: &mut Vec<Vec<Lit>>) {
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
            if e.seq < cursor || e.source == consumer {
                continue;
            }
            if e.lits.len() <= 2 || e.lbd <= max_lbd {
                out.push(e.lits.clone());
            }
        }
        inner.cursors[consumer] = inner.next_seq;
    }

    /// Snapshot of the pool's accounting: publications, evictions and
    /// per-consumer misses. A final implicit poll is **not** performed —
    /// the summary charges only entries consumers actually failed to see
    /// at their real polls.
    pub(crate) fn summary(&self) -> PoolSummary {
        let inner = self.inner.lock().unwrap();
        PoolSummary {
            published: inner.next_seq,
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

    #[test]
    fn consumers_skip_own_clauses_and_track_cursors() {
        let pool = ClausePool::new(16, 2);
        pool.publish(0, &[lit(1), lit(2)], 2);
        pool.publish(1, &[lit(-3)], 1);

        let mut got = Vec::new();
        pool.collect(0, 8, &mut got);
        assert_eq!(got, vec![vec![lit(-3)]], "worker 0 sees only worker 1's");

        // Cursor advanced: a second poll with nothing new is empty.
        got.clear();
        pool.collect(0, 8, &mut got);
        assert!(got.is_empty());

        pool.publish(1, &[lit(4), lit(5), lit(6)], 3);
        got.clear();
        pool.collect(0, 8, &mut got);
        assert_eq!(got.len(), 1);
        assert_eq!(pool.summary().published, 3);
    }

    #[test]
    fn importer_lbd_filter_spares_short_clauses() {
        let pool = ClausePool::new(16, 2);
        pool.publish(0, &[lit(1), lit(2), lit(3)], 9); // long, high glue
        pool.publish(0, &[lit(4), lit(5)], 9); // binary, high glue
        let mut got = Vec::new();
        pool.collect(1, 2, &mut got);
        assert_eq!(got, vec![vec![lit(4), lit(5)]]);
    }

    #[test]
    fn capacity_evicts_oldest_and_counts_it() {
        let pool = ClausePool::new(2, 2);
        pool.publish(0, &[lit(1)], 1);
        pool.publish(0, &[lit(2)], 1);
        pool.publish(0, &[lit(3)], 1);
        let mut got = Vec::new();
        pool.collect(1, 8, &mut got);
        assert_eq!(got, vec![vec![lit(2)], vec![lit(3)]]);
        let summary = pool.summary();
        assert_eq!(summary.published, 3);
        assert_eq!(summary.evicted, 1);
        // Consumer 1's first poll arrived after the eviction: it missed
        // entry 0 and is told so.
        assert_eq!(summary.missed, vec![0, 1]);
    }

    #[test]
    fn slow_consumer_is_charged_for_evicted_entries() {
        let pool = ClausePool::new(2, 3);
        // The fast consumer (1) polls while everything is still retained.
        pool.publish(0, &[lit(1)], 1);
        pool.publish(0, &[lit(2)], 1);
        let mut got = Vec::new();
        pool.collect(1, 8, &mut got);
        assert_eq!(got.len(), 2);

        // Four more publications evict seqs 0..4 — past both cursors.
        for n in 3..7 {
            pool.publish(0, &[lit(n)], 1);
        }
        // The slow consumer (2) has never polled: its cursor (0) lags the
        // oldest retained seq (4) by 4 missed entries.
        got.clear();
        pool.collect(2, 8, &mut got);
        assert_eq!(got, vec![vec![lit(5)], vec![lit(6)]]);
        // The fast consumer's cursor (2) lags by 2.
        got.clear();
        pool.collect(1, 8, &mut got);
        assert_eq!(got, vec![vec![lit(5)], vec![lit(6)]]);

        let summary = pool.summary();
        assert_eq!(summary.evicted, 4);
        assert_eq!(summary.missed, vec![0, 2, 4]);

        // Misses accumulate only on real gaps: an immediate re-poll adds
        // nothing.
        got.clear();
        pool.collect(2, 8, &mut got);
        assert!(got.is_empty());
        assert_eq!(pool.summary().missed, vec![0, 2, 4]);
    }
}
