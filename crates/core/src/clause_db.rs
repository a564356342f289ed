//! Flat clause-arena storage and the chronologically ordered conflict-clause
//! stack.
//!
//! All clause literals live in **one contiguous buffer** (the arena) instead
//! of a slab of per-clause `Vec<Lit>`s, so BCP walks at most one cache line
//! away from a watcher instead of pointer-chasing through two indirections.
//! Each clause is a variable-length record:
//!
//! ```text
//!            ClauseRef(r) ──┐
//!                           ▼
//! arena:  … ┃ header ┃ activity ┃ lit0 ┃ lit1 ┃ … ┃ litN-1 ┃ header ┃ …
//!             │                   └─ watched ──┘
//!             └ ID? | len << 3 | FILLER | LEARNT | GARBAGE
//! ```
//!
//! The arena is a `Vec<Lit>`: `Lit` is a transparent `u32` index newtype, so
//! this is a flat `u32` buffer, and the header/activity words are raw `u32`s
//! packed through [`Lit::from_code`] (the crate forbids `unsafe`, which rules
//! out transmuting a `&[u32]` into `&[Lit]` — storing literals natively and
//! packing the two bookkeeping words is the safe dual of that layout).
//!
//! Deletion marks the `GARBAGE` header bit; space is reclaimed by the
//! **compacting collector** [`ClauseDb::collect`], run at every §8 database
//! reduction. The collector slides live records down in chronological order,
//! leaves a forwarding pointer in each moved record's old activity slot, and
//! reports every reclaimed clause to the proof sink as a DRAT `d` line.
//! Callers remap their outstanding [`ClauseRef`]s through the returned
//! [`GcMap`]. In-place strengthening ([`ClauseDb::shrink`]) never moves a
//! record: the tail the shorter clause no longer needs becomes a `FILLER`
//! pseudo-record the sweep skips.
//!
//! When the solver logs a proof, a record also carries its proof
//! [`ClauseId`] in one trailing word after the literals, flagged by the
//! header's top bit. The literals stay at offset 2, so BCP does not notice
//! the extra word, and the collector moves it with the record. A solver
//! without a proof never sets the bit, so its arena is word for word the
//! same as without the feature.

use berkmin_cnf::Lit;

use crate::proof::{ClauseId, ProofSink};

/// Handle to a clause: the word offset of its header in the arena.
///
/// Stable across additions and deletions, but **not** across garbage
/// collection — the collector hands back a remapping table through which
/// every outstanding reference is rewritten. It is also the reason handle
/// of [`Trail::reason_of`](crate::trail::Trail::reason_of) /
/// [`Trail::assign`](crate::trail::Trail::assign).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClauseRef(pub(crate) u32);

impl ClauseRef {
    #[inline]
    pub(crate) fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Header bit: the record is dead and will be reclaimed by the next GC.
const GARBAGE: u32 = 0b001;
/// Header bit: the clause is a deduced conflict clause (vs. original).
const LEARNT: u32 = 0b010;
/// Header bit: a header-only pad record left behind by [`ClauseDb::shrink`];
/// its `len` field counts the pad words that follow the header.
const FILLER: u32 = 0b100;
/// Header bit: the record ends with a word holding its [`ClauseId`]
/// (see [`ClauseId::tagged`]).
const WITH_ID: u32 = 1 << 31;
/// The clause length is stored between the three low flag bits and
/// [`WITH_ID`].
const LEN_SHIFT: u32 = 3;
/// Words before the literals: header + activity.
const HEADER_WORDS: usize = 2;

/// The length field of `header`.
#[inline]
const fn header_len(header: u32) -> usize {
    ((header & !WITH_ID) >> LEN_SHIFT) as usize
}

/// The ID word of a record, if `id` is given and fits in one word.
#[inline]
fn pack(id: Option<ClauseId>) -> Option<u32> {
    id.and_then(|id| u32::try_from(id.tagged()).ok())
}

/// Total words occupied by the record whose header is `header`.
#[inline]
const fn record_words(header: u32) -> usize {
    let len = header_len(header);
    if header & FILLER != 0 {
        1 + len
    } else {
        HEADER_WORDS + len + (header & WITH_ID != 0) as usize
    }
}

/// The clause database: original and learnt clauses in one flat arena, plus
/// the chronologically ordered stack of conflict clauses (paper §5: "the set
/// of conflict clauses is organized as a stack, each new conflict clause
/// being added to the top").
#[derive(Debug, Default)]
pub(crate) struct ClauseDb {
    arena: Vec<Lit>,
    /// Learnt clauses in deduction order; the last element is the top of
    /// the stack. Purged of deleted clauses at every reduction so that
    /// "age" is always a position in the *current* stack (§8).
    pub stack: Vec<ClauseRef>,
    /// Arena words held by garbage and filler records, reclaimed at GC.
    garbage_words: usize,
    num_original_live: usize,
    num_learnt_live: usize,
}

impl ClauseDb {
    pub fn new() -> Self {
        ClauseDb::default()
    }

    #[inline]
    fn header(&self, cref: ClauseRef) -> u32 {
        self.arena[cref.idx()].code() as u32
    }

    #[inline]
    fn set_header(&mut self, cref: ClauseRef, header: u32) {
        self.arena[cref.idx()] = Lit::from_code(header);
    }

    /// Appends a record to the arena, with a trailing ID word if `id` is
    /// given and fits in one word.
    fn alloc(&mut self, lits: &[Lit], learnt: bool, id: Option<ClauseId>) -> ClauseRef {
        debug_assert!(lits.len() >= 2, "unit/empty clauses are not stored");
        debug_assert!(
            lits.len() < 1 << 28,
            "the length field ends below the ID flag"
        );
        let cref = ClauseRef(self.arena.len() as u32);
        let id = pack(id);
        let flags = if learnt { LEARNT } else { 0 } | if id.is_some() { WITH_ID } else { 0 };
        self.arena
            .push(Lit::from_code((lits.len() as u32) << LEN_SHIFT | flags));
        self.arena.push(Lit::from_code(0)); // activity
        self.arena.extend_from_slice(lits);
        if let Some(id) = id {
            self.arena.push(Lit::from_code(id));
        }
        cref
    }

    /// Adds an original (problem) clause, or a preprocessing resolvent,
    /// with its proof ID when a proof is logged.
    pub fn add_original(&mut self, lits: &[Lit], id: Option<ClauseId>) -> ClauseRef {
        self.num_original_live += 1;
        self.alloc(lits, false, id)
    }

    /// Adds a learnt clause, with its proof ID when a proof is logged, and
    /// pushes it onto the top of the stack.
    pub fn add_learnt(&mut self, lits: &[Lit], id: Option<ClauseId>) -> ClauseRef {
        self.num_learnt_live += 1;
        let cref = self.alloc(lits, true, id);
        self.stack.push(cref);
        cref
    }

    /// The clause's proof ID, if its record carries one.
    #[inline]
    pub fn id(&self, cref: ClauseRef) -> Option<ClauseId> {
        let header = self.header(cref);
        if header & WITH_ID == 0 {
            return None;
        }
        let word = self.arena[cref.idx() + HEADER_WORDS + header_len(header)].code() as u32;
        ClauseId::from_tagged(u64::from(word))
    }

    /// Marks a clause as garbage; the record (and its literals, still
    /// readable until then) is reclaimed by the next [`ClauseDb::collect`],
    /// which also emits the DRAT `d` line. The caller is responsible for
    /// stack compaction and watch rebuilding (done wholesale at reduction
    /// time).
    pub fn delete(&mut self, cref: ClauseRef) {
        let header = self.header(cref);
        debug_assert_eq!(header & (GARBAGE | FILLER), 0, "double delete of {cref:?}");
        self.set_header(cref, header | GARBAGE);
        self.garbage_words += record_words(header);
        debug_assert!(
            self.garbage_words <= self.arena.len(),
            "garbage accounting exceeds the arena"
        );
        if header & LEARNT != 0 {
            self.num_learnt_live -= 1;
        } else {
            self.num_original_live -= 1;
        }
    }

    /// Whether `cref` points at a garbage (deleted) record.
    #[inline]
    pub fn is_garbage(&self, cref: ClauseRef) -> bool {
        self.header(cref) & GARBAGE != 0
    }

    /// Shrinks a clause in place to its first `new_len` literals (the caller
    /// has already reordered them). The record never moves: the orphaned
    /// tail becomes a `FILLER` pseudo-record so the arena stays walkable.
    /// A record with an ID word takes `id`, the ID of the addition that
    /// logged the shorter clause, right after its literals; without one it
    /// loses its ID word to the pad.
    pub fn shrink(&mut self, cref: ClauseRef, new_len: usize, id: Option<ClauseId>) {
        let header = self.header(cref);
        let old_len = header_len(header);
        debug_assert!(
            (2..old_len).contains(&new_len),
            "shrink {old_len}→{new_len}"
        );
        let new_id = if header & WITH_ID != 0 {
            pack(id)
        } else {
            None
        };
        let id_flag = if new_id.is_some() { WITH_ID } else { 0 };
        let pad = record_words(header) - (HEADER_WORDS + new_len + usize::from(new_id.is_some()));
        self.set_header(
            cref,
            (new_len as u32) << LEN_SHIFT | (header & (LEARNT | GARBAGE)) | id_flag,
        );
        let mut tail = cref.idx() + HEADER_WORDS + new_len;
        if let Some(word) = new_id {
            self.arena[tail] = Lit::from_code(word);
            tail += 1;
        }
        self.arena[tail] = Lit::from_code((pad as u32 - 1) << LEN_SHIFT | FILLER | GARBAGE);
        self.garbage_words += pad;
        debug_assert_eq!(
            record_words(self.arena[tail].code() as u32),
            pad,
            "filler pad does not cover the orphaned tail"
        );
        debug_assert_eq!(self.len(cref), new_len, "shrunk header does not round-trip");
    }

    /// Drops deleted entries from the stack, preserving chronological order.
    pub fn compact_stack(&mut self) {
        let arena = &self.arena;
        self.stack
            .retain(|cref| arena[cref.idx()].code() as u32 & GARBAGE == 0);
    }

    /// Clause length (number of literals).
    #[inline]
    pub fn len(&self, cref: ClauseRef) -> usize {
        header_len(self.header(cref))
    }

    /// Whether this is a deduced conflict clause (vs. an original clause).
    #[inline]
    pub fn is_learnt(&self, cref: ClauseRef) -> bool {
        self.header(cref) & LEARNT != 0
    }

    /// `clause_activity(C)`: the number of conflicts this clause has been
    /// responsible for (§8).
    #[inline]
    pub fn activity(&self, cref: ClauseRef) -> u32 {
        self.arena[cref.idx() + 1].code() as u32
    }

    /// Credits the clause with one more conflict (§8).
    #[inline]
    pub fn bump_activity(&mut self, cref: ClauseRef) {
        let a = self.activity(cref).saturating_add(1);
        self.arena[cref.idx() + 1] = Lit::from_code(a);
    }

    /// The literal array; positions 0 and 1 are the watched literals.
    #[inline]
    pub fn lits(&self, cref: ClauseRef) -> &[Lit] {
        let start = cref.idx() + HEADER_WORDS;
        &self.arena[start..start + self.len(cref)]
    }

    /// Mutable literal array (for watch reordering during BCP).
    #[inline]
    pub fn lits_mut(&mut self, cref: ClauseRef) -> &mut [Lit] {
        let start = cref.idx() + HEADER_WORDS;
        let end = start + self.len(cref);
        &mut self.arena[start..end]
    }

    /// Number of live (non-deleted) clauses, original + learnt.
    #[inline]
    pub fn num_live(&self) -> usize {
        self.num_original_live + self.num_learnt_live
    }

    /// Number of live learnt clauses.
    #[inline]
    pub fn num_learnt(&self) -> usize {
        self.num_learnt_live
    }

    /// Number of live original clauses.
    #[cfg(test)]
    pub fn num_original(&self) -> usize {
        self.num_original_live
    }

    /// Arena words currently held by garbage and filler records.
    #[inline]
    pub fn garbage_words(&self) -> usize {
        self.garbage_words
    }

    /// Iterates over live clause references in arena (allocation) order.
    pub fn iter_live(&self) -> impl Iterator<Item = ClauseRef> + '_ {
        let mut off = 0usize;
        std::iter::from_fn(move || {
            while off < self.arena.len() {
                let header = self.arena[off].code() as u32;
                let cur = off;
                off += record_words(header);
                if header & (GARBAGE | FILLER) == 0 {
                    return Some(ClauseRef(cur as u32));
                }
            }
            None
        })
    }

    /// Structural arena audit: walks every record and cross-checks the
    /// header encoding against the database's running counters. Violations
    /// are appended to `out` as human-readable descriptions; an intact
    /// arena appends nothing. Part of
    /// [`Solver::audit_invariants`](crate::Solver::audit_invariants).
    pub fn audit(&self, out: &mut Vec<String>) {
        let mut off = 0usize;
        let mut garbage = 0usize;
        let mut original = 0usize;
        let mut learnt = 0usize;
        while off < self.arena.len() {
            let header = self.arena[off].code() as u32;
            let words = record_words(header);
            if off + words > self.arena.len() {
                out.push(format!(
                    "arena: record at word {off} ({words} words) overruns the \
                     arena end ({})",
                    self.arena.len()
                ));
                return; // the walk is lost — no further record is trustworthy
            }
            if header & FILLER != 0 {
                if header & GARBAGE == 0 {
                    out.push(format!(
                        "arena: filler record at word {off} is not marked garbage"
                    ));
                }
                garbage += words;
            } else if header & GARBAGE != 0 {
                garbage += words;
            } else {
                let len = header_len(header);
                if len < 2 {
                    out.push(format!(
                        "arena: live record at word {off} stores {len} literal(s); \
                         unit/empty clauses must never reach the arena"
                    ));
                }
                if header & LEARNT != 0 {
                    learnt += 1;
                } else {
                    original += 1;
                }
            }
            off += words;
        }
        if garbage != self.garbage_words {
            out.push(format!(
                "arena: walked garbage ({garbage} words) disagrees with the \
                 running counter ({})",
                self.garbage_words
            ));
        }
        if original != self.num_original_live {
            out.push(format!(
                "arena: walked {original} live original clauses, counter says {}",
                self.num_original_live
            ));
        }
        if learnt != self.num_learnt_live {
            out.push(format!(
                "arena: walked {learnt} live learnt clauses, counter says {}",
                self.num_learnt_live
            ));
        }
    }

    /// Compacting garbage collection: slides every live record to the front
    /// of a fresh arena (preserving chronological order), reports each
    /// reclaimed clause to `proof` as a DRAT deletion, rewrites the stack,
    /// and returns a [`GcMap`] through which the caller must remap every
    /// other outstanding [`ClauseRef`] (watch lists, trail reasons).
    ///
    /// Returns the map plus the number of words reclaimed.
    pub fn collect<S: ProofSink + ?Sized>(&mut self, proof: &mut S) -> (GcMap, usize) {
        let live_words = self.arena.len() - self.garbage_words;
        let mut old = std::mem::replace(&mut self.arena, Vec::with_capacity(live_words));
        let reclaimed = self.garbage_words;
        self.garbage_words = 0;

        let mut off = 0usize;
        while off < old.len() {
            let header = old[off].code() as u32;
            let words = record_words(header);
            if header & FILLER != 0 {
                // Strengthening pads: no clause to report, nothing to move.
            } else if header & GARBAGE != 0 {
                // The record is still intact here — this is where the
                // database's deletions become DRAT `d` lines.
                let len = header_len(header);
                proof.delete_clause(&old[off + HEADER_WORDS..off + HEADER_WORDS + len]);
            } else {
                let new_ref = self.arena.len() as u32;
                self.arena.extend_from_slice(&old[off..off + words]);
                // Forwarding pointer in the old activity slot; the record
                // has already been copied out, so the slot is free.
                old[off + 1] = Lit::from_code(new_ref);
            }
            off += words;
        }

        let map = GcMap { old };
        for cref in &mut self.stack {
            *cref = map.remap(*cref);
        }
        (map, reclaimed)
    }
}

/// Forwarding table of one garbage collection: wraps the pre-GC arena, whose
/// live records now carry their post-GC offsets.
#[derive(Debug)]
pub(crate) struct GcMap {
    old: Vec<Lit>,
}

impl GcMap {
    /// New location of a clause that was live at collection time.
    #[inline]
    pub fn remap(&self, cref: ClauseRef) -> ClauseRef {
        debug_assert_eq!(
            self.old[cref.idx()].code() as u32 & (GARBAGE | FILLER),
            0,
            "remap of a collected {cref:?}"
        );
        ClauseRef(self.old[cref.idx() + 1].code() as u32)
    }

    /// New location of a clause, or `None` if it was collected — used for
    /// reason pointers whose clause was deleted (only legal for level-0
    /// facts, whose reasons are never consulted again).
    #[inline]
    pub fn remap_live(&self, cref: ClauseRef) -> Option<ClauseRef> {
        if self.old[cref.idx()].code() as u32 & GARBAGE != 0 {
            None
        } else {
            Some(self.remap(cref))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proof::{NoProof, ProofSink};
    use berkmin_cnf::Var;

    fn lits(ns: &[i32]) -> Vec<Lit> {
        ns.iter().map(|&n| Lit::from_dimacs(n)).collect()
    }

    #[test]
    fn add_and_read_back() {
        let mut db = ClauseDb::new();
        let c = db.add_original(&lits(&[1, -2]), None);
        assert_eq!(db.lits(c), &[Lit::pos(Var::new(0)), Lit::neg(Var::new(1))]);
        assert_eq!(db.num_live(), 1);
        assert_eq!(db.num_original(), 1);
        assert!(!db.is_learnt(c));
        assert_eq!(db.len(c), 2);
    }

    #[test]
    fn learnt_clauses_stack_in_order() {
        let mut db = ClauseDb::new();
        let a = db.add_learnt(&lits(&[1, 2]), None);
        let b = db.add_learnt(&lits(&[2, 3]), None);
        assert_eq!(db.stack, vec![a, b]);
        assert_eq!(db.num_learnt(), 2);
        assert!(db.is_learnt(a));
    }

    #[test]
    fn delete_and_compact() {
        let mut db = ClauseDb::new();
        let a = db.add_learnt(&lits(&[1, 2]), None);
        let b = db.add_learnt(&lits(&[2, 3]), None);
        let c = db.add_learnt(&lits(&[3, 4]), None);
        db.delete(b);
        db.compact_stack();
        assert_eq!(db.stack, vec![a, c]);
        assert_eq!(db.num_learnt(), 2);
        assert_eq!(db.num_live(), 2);
    }

    #[test]
    fn collect_compacts_and_remaps() {
        let mut db = ClauseDb::new();
        let a = db.add_learnt(&lits(&[1, 2]), None);
        let b = db.add_learnt(&lits(&[2, 3, 4]), None);
        let c = db.add_learnt(&lits(&[3, 4]), None);
        db.delete(b);
        db.compact_stack();
        let (map, reclaimed) = db.collect(&mut NoProof);
        assert_eq!(reclaimed, HEADER_WORDS + 3);
        assert_eq!(db.garbage_words(), 0);
        let (a2, c2) = (map.remap(a), map.remap(c));
        assert_eq!(db.stack, vec![a2, c2]);
        assert_eq!(a2, a, "records before the hole do not move");
        assert!(c2 < c, "records after the hole slide down");
        assert_eq!(db.lits(a2), &lits(&[1, 2])[..]);
        assert_eq!(db.lits(c2), &lits(&[3, 4])[..]);
        assert_eq!(map.remap_live(b), None);
        assert_eq!(db.iter_live().count(), 2);
    }

    #[test]
    fn collect_emits_drat_deletions() {
        struct Rec(Vec<Vec<Lit>>);
        impl ProofSink for Rec {
            fn add_clause(&mut self, _lits: &[Lit]) {}
            fn delete_clause(&mut self, lits: &[Lit]) {
                self.0.push(lits.to_vec());
            }
        }
        let mut db = ClauseDb::new();
        let a = db.add_original(&lits(&[1, 2, 3]), None);
        db.add_learnt(&lits(&[2, 3]), None);
        db.delete(a);
        let mut sink = Rec(Vec::new());
        db.collect(&mut sink);
        assert_eq!(sink.0, vec![lits(&[1, 2, 3])]);
    }

    #[test]
    fn shrink_keeps_ref_and_arena_walkable() {
        let mut db = ClauseDb::new();
        let a = db.add_original(&lits(&[1, 2, 3, 4]), None);
        let b = db.add_original(&lits(&[5, 6]), None);
        db.shrink(a, 2, None);
        assert_eq!(db.lits(a), &lits(&[1, 2])[..]);
        assert_eq!(db.len(a), 2);
        assert_eq!(db.num_live(), 2, "shrinking is not deletion");
        let live: Vec<_> = db.iter_live().collect();
        assert_eq!(live, vec![a, b], "filler pad must be skipped");
        let (map, reclaimed) = db.collect(&mut NoProof);
        assert_eq!(reclaimed, 2);
        assert_eq!(db.lits(map.remap(b)), &lits(&[5, 6])[..]);
    }

    #[test]
    fn ids_survive_collection_and_shrinking() {
        let mut db = ClauseDb::new();
        let a = db.add_original(&lits(&[1, 2, 3]), Some(ClauseId::Original(4)));
        let b = db.add_learnt(&lits(&[2, 3]), None);
        let c = db.add_learnt(&lits(&[3, 4, 5, 6]), Some(ClauseId::Lemma(9)));
        let d = db.add_learnt(&lits(&[4, 5, 6]), Some(ClauseId::Lemma(10)));
        assert_eq!((db.id(a), db.id(b)), (Some(ClauseId::Original(4)), None));
        assert_eq!(
            db.lits(c),
            &lits(&[3, 4, 5, 6])[..],
            "the ID word trails the literals"
        );
        // A shrunk record takes the ID of the addition that logged it, or
        // loses its ID word when there is none.
        db.shrink(c, 2, Some(ClauseId::Lemma(11)));
        db.shrink(d, 2, None);
        assert_eq!((db.id(c), db.id(d)), (Some(ClauseId::Lemma(11)), None));
        assert_eq!(db.lits(c), &lits(&[3, 4])[..]);
        db.delete(a);
        db.compact_stack();
        let (map, reclaimed) = db.collect(&mut NoProof);
        // `a` with its ID word, `c`'s two orphaned literals and `d`'s
        // literal plus ID word.
        assert_eq!(reclaimed, HEADER_WORDS + 4 + 2 + 2);
        assert_eq!(db.id(map.remap(b)), None);
        assert_eq!(db.id(map.remap(c)), Some(ClauseId::Lemma(11)));
        assert_eq!(db.lits(map.remap(c)), &lits(&[3, 4])[..]);
        assert_eq!(db.lits(map.remap(d)), &lits(&[4, 5])[..]);
        let mut problems = Vec::new();
        db.audit(&mut problems);
        assert!(problems.is_empty(), "{problems:?}");
    }

    #[test]
    fn records_without_ids_keep_their_layout() {
        let mut db = ClauseDb::new();
        db.add_original(&lits(&[1, 2, 3]), None);
        db.add_learnt(&lits(&[2, 3]), None);
        assert_eq!(db.arena.len(), 2 * HEADER_WORDS + 5);
        assert_eq!(db.arena[0].code() as u32, 3 << LEN_SHIFT);
    }

    #[test]
    fn iter_live_skips_deleted() {
        let mut db = ClauseDb::new();
        let a = db.add_original(&lits(&[1, 2]), None);
        let b = db.add_learnt(&lits(&[2, 3]), None);
        db.delete(a);
        let live: Vec<_> = db.iter_live().collect();
        assert_eq!(live, vec![b]);
    }

    #[test]
    fn activity_is_mutable() {
        let mut db = ClauseDb::new();
        let a = db.add_learnt(&lits(&[1, 2]), None);
        for _ in 0..3 {
            db.bump_activity(a);
        }
        assert_eq!(db.activity(a), 3);
    }

    #[test]
    fn activity_survives_collection() {
        let mut db = ClauseDb::new();
        let a = db.add_learnt(&lits(&[1, 2]), None);
        let b = db.add_learnt(&lits(&[3, 4]), None);
        db.bump_activity(b);
        db.bump_activity(b);
        db.delete(a);
        db.compact_stack();
        let (map, _) = db.collect(&mut NoProof);
        assert_eq!(db.activity(map.remap(b)), 2);
    }
}
