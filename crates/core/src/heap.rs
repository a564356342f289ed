//! Indexed max-heap over variables keyed by activity.
//!
//! This is the BerkMin561-style optimized "most active free variable"
//! lookup (paper Remark 1 / "strategy 3"); the naive linear scan the paper's
//! experiments used lives in `decide.rs`. The heap is *lazy*: assigned
//! variables stay inside and are skipped at pop time, then re-inserted on
//! backtracking.

use berkmin_cnf::Var;

/// Indexed binary max-heap of variables ordered by an external activity key.
#[derive(Debug, Default, Clone)]
pub(crate) struct VarHeap {
    /// Heap array of variable indices.
    heap: Vec<u32>,
    /// `pos[v]` = index of `v` in `heap`, or `u32::MAX` if absent.
    pos: Vec<u32>,
}

const ABSENT: u32 = u32::MAX;

impl VarHeap {
    pub fn new() -> Self {
        VarHeap::default()
    }

    /// Grows the position table to cover `num_vars` variables.
    pub fn grow(&mut self, num_vars: usize) {
        if self.pos.len() < num_vars {
            self.pos.resize(num_vars, ABSENT);
        }
    }

    #[inline]
    pub fn contains(&self, v: Var) -> bool {
        self.pos
            .get(v.index())
            .map(|&p| p != ABSENT)
            .unwrap_or(false)
    }

    #[inline]
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Inserts `v` (no-op if already present).
    pub fn insert(&mut self, v: Var, key: &[u64]) {
        self.grow(v.index() + 1);
        if self.contains(v) {
            return;
        }
        self.heap.push(v.raw());
        self.pos[v.index()] = (self.heap.len() - 1) as u32;
        self.sift_up(self.heap.len() - 1, key);
    }

    /// Restores the heap property after `v`'s key increased.
    pub fn bumped(&mut self, v: Var, key: &[u64]) {
        if let Some(&p) = self.pos.get(v.index()) {
            if p != ABSENT {
                self.sift_up(p as usize, key);
            }
        }
    }

    /// Pops the variable with the maximum key.
    pub fn pop(&mut self, key: &[u64]) -> Option<Var> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        let last = self.heap.pop().unwrap();
        self.pos[top as usize] = ABSENT;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.sift_down(0, key);
        }
        Some(Var::new(top))
    }

    /// Removes `v` from the heap if present (used when the preprocessor
    /// eliminates a variable: an eliminated variable must never surface as
    /// a branching candidate again).
    pub fn remove(&mut self, v: Var, key: &[u64]) {
        let Some(&p) = self.pos.get(v.index()) else {
            return;
        };
        if p == ABSENT {
            return;
        }
        let p = p as usize;
        let last = self.heap.pop().unwrap();
        self.pos[v.index()] = ABSENT;
        if p < self.heap.len() {
            self.heap[p] = last;
            self.pos[last as usize] = p as u32;
            // The replacement may be larger than the removed entry's parent
            // or smaller than its children — restore both directions.
            self.sift_up(p, key);
            self.sift_down(p, key);
        }
    }

    /// Rebuilds the heap from scratch (used after global activity decay,
    /// which preserves order only approximately under integer division).
    pub fn rebuild(&mut self, key: &[u64]) {
        let n = self.heap.len();
        for i in (0..n / 2).rev() {
            self.sift_down(i, key);
        }
    }

    /// Structural audit: the `heap`/`pos` tables must be mutual inverses
    /// and the array must satisfy the max-heap property under `key`.
    /// Violations are appended to `out`; an intact heap appends nothing.
    pub fn audit(&self, key: &[u64], out: &mut Vec<String>) {
        for (i, &v) in self.heap.iter().enumerate() {
            let v = v as usize;
            if v >= key.len() {
                out.push(format!("heap: entry {i} names unknown var {v}"));
                continue;
            }
            if self.pos.get(v).copied() != Some(i as u32) {
                out.push(format!("heap: pos[{v}] does not point back at heap[{i}]"));
            }
            if i > 0 {
                let parent = self.heap[(i - 1) / 2] as usize;
                if key[v] > key[parent] {
                    out.push(format!(
                        "heap: property violated at index {i} (var {v} above \
                         its parent var {parent})"
                    ));
                }
            }
        }
        let present = self.pos.iter().filter(|&&p| p != ABSENT).count();
        if present != self.heap.len() {
            out.push(format!(
                "heap: {present} vars claim membership, heap holds {}",
                self.heap.len()
            ));
        }
    }

    fn sift_up(&mut self, mut i: usize, key: &[u64]) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if key[self.heap[i] as usize] <= key[self.heap[parent] as usize] {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize, key: &[u64]) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut best = i;
            if l < self.heap.len() && key[self.heap[l] as usize] > key[self.heap[best] as usize] {
                best = l;
            }
            if r < self.heap.len() && key[self.heap[r] as usize] > key[self.heap[best] as usize] {
                best = r;
            }
            if best == i {
                break;
            }
            self.swap(i, best);
            i = best;
        }
    }

    #[inline]
    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos[self.heap[a] as usize] = a as u32;
        self.pos[self.heap[b] as usize] = b as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(h: &mut VarHeap, key: &[u64]) -> Vec<u32> {
        let mut out = Vec::new();
        while let Some(v) = h.pop(key) {
            out.push(v.raw());
        }
        out
    }

    #[test]
    fn pops_in_descending_key_order() {
        let key = vec![5u64, 9, 1, 7];
        let mut h = VarHeap::new();
        for i in 0..4 {
            h.insert(Var::new(i), &key);
        }
        assert_eq!(drain(&mut h, &key), vec![1, 3, 0, 2]);
    }

    #[test]
    fn insert_is_idempotent() {
        let key = vec![1u64, 2];
        let mut h = VarHeap::new();
        h.insert(Var::new(0), &key);
        h.insert(Var::new(0), &key);
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn bumped_reorders() {
        let mut key = vec![1u64, 2, 3];
        let mut h = VarHeap::new();
        for i in 0..3 {
            h.insert(Var::new(i), &key);
        }
        key[0] = 10;
        h.bumped(Var::new(0), &key);
        assert_eq!(h.pop(&key), Some(Var::new(0)));
    }

    #[test]
    fn rebuild_restores_heap_after_global_decay() {
        let mut key: Vec<u64> = vec![40, 30, 20, 10, 35];
        let mut h = VarHeap::new();
        for i in 0..5 {
            h.insert(Var::new(i), &key);
        }
        for k in key.iter_mut() {
            *k /= 4;
        }
        h.rebuild(&key);
        assert_eq!(drain(&mut h, &key), vec![0, 4, 1, 2, 3]);
    }

    #[test]
    fn contains_tracks_membership() {
        let key = vec![1u64];
        let mut h = VarHeap::new();
        let v = Var::new(0);
        assert!(!h.contains(v));
        h.insert(v, &key);
        assert!(h.contains(v));
        h.pop(&key);
        assert!(!h.contains(v));
    }

    #[test]
    fn remove_detaches_any_entry_and_keeps_order() {
        let key = vec![5u64, 9, 1, 7, 3];
        let mut h = VarHeap::new();
        for i in 0..5 {
            h.insert(Var::new(i), &key);
        }
        h.remove(Var::new(1), &key); // the max
        h.remove(Var::new(2), &key); // a leaf
        h.remove(Var::new(2), &key); // idempotent
        assert!(!h.contains(Var::new(1)));
        assert_eq!(drain(&mut h, &key), vec![3, 0, 4]);
    }

    #[test]
    fn pop_empty_returns_none() {
        let mut h = VarHeap::new();
        assert_eq!(h.pop(&[]), None);
        assert!(h.is_empty());
    }
}
