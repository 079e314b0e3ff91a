//! Indexed domains and dense bit-matrices.
//!
//! The information flow analysis of the paper runs interactively because the
//! real Flowistry artifact iterates its fixpoint over *interned* domains:
//! every place and dependency is assigned a dense integer up front, the
//! dataflow state is a matrix of bitsets, and the per-block join is a
//! wordwise OR. This module provides those building blocks, kept generic and
//! std-only so they are reusable by any analysis built on [`crate::engine`]:
//!
//! * [`IndexedDomain`] — a value ↔ dense `u32` interner;
//! * [`BitSet`] — a hybrid bitset (inline words for small sets, spilling to
//!   a boxed word vector when the universe outgrows them);
//! * [`IndexMatrix`] — one bitset row per interned key, with copy-on-write
//!   rows (`Arc`'d, cloned only when written) so a row can be shared by
//!   several states, or kept as a state's past value, without a copy.

use crate::engine::JoinSemiLattice;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A bidirectional mapping between values and dense `u32` indices.
///
/// Interning is append-only: the index of a value never changes once
/// assigned, so indices can be baked into precomputed lookup tables.
#[derive(Debug, Clone, Default)]
pub struct IndexedDomain<T> {
    values: Vec<T>,
    indices: HashMap<T, u32>,
}

impl<T: Clone + Eq + Hash> IndexedDomain<T> {
    /// An empty domain.
    pub fn new() -> Self {
        IndexedDomain {
            values: Vec::new(),
            indices: HashMap::new(),
        }
    }

    /// Returns the index of `value`, interning it if it is new.
    pub fn intern(&mut self, value: T) -> u32 {
        if let Some(&idx) = self.indices.get(&value) {
            return idx;
        }
        let idx = u32::try_from(self.values.len()).expect("domain exceeds u32 indices");
        self.values.push(value.clone());
        self.indices.insert(value, idx);
        idx
    }

    /// The index of `value`, if it has been interned.
    pub fn index_of(&self, value: &T) -> Option<u32> {
        self.indices.get(value).copied()
    }

    /// The value at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` was never returned by [`IndexedDomain::intern`].
    pub fn value(&self, index: u32) -> &T {
        &self.values[index as usize]
    }

    /// Number of interned values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the domain is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// All interned values in index order.
    pub fn as_slice(&self) -> &[T] {
        &self.values
    }

    /// Consumes the interner, keeping only the index-ordered value table.
    pub fn into_values(self) -> Vec<T> {
        self.values
    }
}

/// Number of words stored inline before a [`BitSet`] spills to the heap.
/// Two words = 128 bits, enough for the dependency sets of most real
/// function bodies.
const INLINE_WORDS: usize = 2;

const BITS_PER_WORD: u32 = 64;

#[derive(Debug, Clone)]
enum Words {
    Inline([u64; INLINE_WORDS]),
    // Boxed so the spilled variant is one pointer wide: the enum stays the
    // size of the inline array, keeping unspilled sets (the common case)
    // dense in row storage.
    #[allow(clippy::box_collection)]
    Spilled(Box<Vec<u64>>),
}

/// A hybrid bitset over `u32` indices.
///
/// Small sets (indices below `128`) live entirely inline with zero heap
/// traffic; inserting a larger index spills the words to a boxed vector.
/// Capacity is implicit — any index beyond the stored words is simply
/// absent — so sets over differently sized universes compare and union
/// freely.
#[derive(Debug)]
pub struct BitSet {
    words: Words,
}

impl Clone for BitSet {
    fn clone(&self) -> Self {
        BitSet {
            words: self.words.clone(),
        }
    }

    /// Reuses `self`'s spilled words when both sets are spilled.
    fn clone_from(&mut self, source: &Self) {
        match (&mut self.words, &source.words) {
            (Words::Spilled(own), Words::Spilled(src)) => own.clone_from(src),
            (own, src) => *own = src.clone(),
        }
    }
}

impl Default for BitSet {
    fn default() -> Self {
        BitSet::new()
    }
}

impl BitSet {
    /// An empty set.
    pub fn new() -> Self {
        BitSet {
            words: Words::Inline([0; INLINE_WORDS]),
        }
    }

    fn words(&self) -> &[u64] {
        match &self.words {
            Words::Inline(w) => w,
            Words::Spilled(v) => v,
        }
    }

    /// Grows the word storage so `word_index` is addressable, spilling the
    /// inline words to the heap if needed.
    fn grow_to(&mut self, word_index: usize) {
        if word_index < self.words().len() {
            return;
        }
        match &mut self.words {
            Words::Inline(w) => {
                let mut v = Vec::with_capacity(word_index + 1);
                v.extend_from_slice(w);
                v.resize(word_index + 1, 0);
                self.words = Words::Spilled(Box::new(v));
            }
            Words::Spilled(v) => v.resize(word_index + 1, 0),
        }
    }

    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.words {
            Words::Inline(w) => w,
            Words::Spilled(v) => v,
        }
    }

    /// Inserts `bit`, returning `true` if it was new.
    pub fn insert(&mut self, bit: u32) -> bool {
        let (word, mask) = (
            (bit / BITS_PER_WORD) as usize,
            1u64 << (bit % BITS_PER_WORD),
        );
        self.grow_to(word);
        let slot = &mut self.words_mut()[word];
        let new = *slot & mask == 0;
        *slot |= mask;
        new
    }

    /// Removes `bit`, returning `true` if it was present.
    pub fn remove(&mut self, bit: u32) -> bool {
        let (word, mask) = (
            (bit / BITS_PER_WORD) as usize,
            1u64 << (bit % BITS_PER_WORD),
        );
        let Some(slot) = self.words_mut().get_mut(word) else {
            return false;
        };
        let present = *slot & mask != 0;
        *slot &= !mask;
        present
    }

    /// Whether `bit` is in the set.
    pub fn contains(&self, bit: u32) -> bool {
        let (word, mask) = (
            (bit / BITS_PER_WORD) as usize,
            1u64 << (bit % BITS_PER_WORD),
        );
        self.words().get(word).is_some_and(|w| w & mask != 0)
    }

    /// Whether the set has no bits.
    pub fn is_empty(&self) -> bool {
        self.words().iter().all(|&w| w == 0)
    }

    /// Number of bits in the set.
    pub fn count(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Removes every bit.
    pub fn clear(&mut self) {
        self.words_mut().fill(0);
    }

    /// ORs `other` into `self`, returning `true` if `self` changed.
    pub fn union(&mut self, other: &BitSet) -> bool {
        let other_words = other.words();
        let needed = other_words
            .iter()
            .rposition(|&w| w != 0)
            .map(|i| i + 1)
            .unwrap_or(0);
        if needed > self.words().len() {
            self.grow_to(needed - 1);
        }
        let mut changed = false;
        let own = self.words_mut();
        for (slot, &w) in own.iter_mut().zip(other_words) {
            let merged = *slot | w;
            changed |= merged != *slot;
            *slot = merged;
        }
        changed
    }

    /// Whether `self` and `other` share any bit.
    pub fn intersects(&self, other: &BitSet) -> bool {
        self.words()
            .iter()
            .zip(other.words())
            .any(|(a, b)| a & b != 0)
    }

    /// Whether every bit of `other` is also in `self` (so a union of
    /// `other` into `self` would change nothing).
    pub fn is_superset(&self, other: &BitSet) -> bool {
        let own = self.words();
        other
            .words()
            .iter()
            .enumerate()
            .all(|(i, &w)| w & !own.get(i).copied().unwrap_or(0) == 0)
    }

    /// Iterates the set bits in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words().iter().enumerate().flat_map(|(i, &word)| {
            let base = i as u32 * BITS_PER_WORD;
            std::iter::successors((word != 0).then_some(word), |w| {
                let next = w & (w - 1);
                (next != 0).then_some(next)
            })
            .map(move |w| base + w.trailing_zeros())
        })
    }
}

impl PartialEq for BitSet {
    /// Logical equality: trailing zero words (and inline vs spilled
    /// storage) do not matter.
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (self.words(), other.words());
        let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
        short == &long[..short.len()] && long[short.len()..].iter().all(|&w| w == 0)
    }
}

impl Eq for BitSet {}

impl Hash for BitSet {
    /// Hashes the words up to the last nonzero one, so logically equal sets
    /// hash alike whatever their storage.
    fn hash<H: Hasher>(&self, state: &mut H) {
        let words = self.words();
        let len = words.iter().rposition(|&w| w != 0).map_or(0, |i| i + 1);
        words[..len].hash(state);
    }
}

impl FromIterator<u32> for BitSet {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        let mut set = BitSet::new();
        for bit in iter {
            set.insert(bit);
        }
        set
    }
}

impl JoinSemiLattice for BitSet {
    fn join(&mut self, other: &Self) -> bool {
        self.union(other)
    }
}

/// A dense matrix of bitsets: one row per interned key.
///
/// Rows are `Arc`'d and copy-on-write — cloning a matrix clones row
/// *pointers*, and writing through [`IndexMatrix::row_mut`] clones the row's
/// words only if they are shared. A caller that keeps a row's `Arc` (a
/// block's entry state, or a record of what a statement changed) can keep
/// mutating the matrix: the kept row is copied on its next write and never
/// changes under the caller.
#[derive(Debug, Default)]
pub struct IndexMatrix {
    rows: Vec<Option<Arc<BitSet>>>,
}

impl Clone for IndexMatrix {
    fn clone(&self) -> Self {
        IndexMatrix {
            rows: self.rows.clone(),
        }
    }

    /// Points every slot at the source's row, touching only the slots that
    /// differ: a slot already sharing the source's `Arc` (or empty in both)
    /// keeps it without a refcount round trip. The result shares every row
    /// with `source`, so a later write unshares it as after `clone`.
    fn clone_from(&mut self, source: &Self) {
        self.rows.truncate(source.rows.len());
        for (own, src) in self.rows.iter_mut().zip(&source.rows) {
            let shared = match (&*own, src) {
                (Some(own), Some(src)) => Arc::ptr_eq(own, src),
                (own, src) => own.is_none() && src.is_none(),
            };
            if !shared {
                *own = src.clone();
            }
        }
        let len = self.rows.len();
        self.rows.extend_from_slice(&source.rows[len..]);
    }
}

impl IndexMatrix {
    /// A matrix with `rows` empty rows.
    pub fn with_rows(rows: usize) -> Self {
        IndexMatrix {
            rows: vec![None; rows],
        }
    }

    fn ensure_len(&mut self, row: usize) {
        if row >= self.rows.len() {
            self.rows.resize(row + 1, None);
        }
    }

    /// A matrix over the given row slots, sharing each row's allocation
    /// (`None` is a row never written).
    pub fn from_rows(rows: Vec<Option<Arc<BitSet>>>) -> Self {
        IndexMatrix { rows }
    }

    /// Number of allocated row slots.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// The row for `row`, if it has ever been written.
    pub fn row(&self, row: u32) -> Option<&BitSet> {
        self.rows.get(row as usize).and_then(|r| r.as_deref())
    }

    /// The shared allocation of the row for `row`, if it has ever been
    /// written.
    pub fn row_arc(&self, row: u32) -> Option<&Arc<BitSet>> {
        self.rows.get(row as usize).and_then(Option::as_ref)
    }

    /// Points `row` at a shared allocation (`None`: no row).
    pub fn set_row_arc(&mut self, row: u32, set: Option<Arc<BitSet>>) {
        if set.is_some() {
            self.ensure_len(row as usize);
        }
        if let Some(slot) = self.rows.get_mut(row as usize) {
            *slot = set;
        }
    }

    /// Mutable access to the row for `row`, creating it empty if missing
    /// and unsharing it if another matrix clone still points at it.
    pub fn row_mut(&mut self, row: u32) -> &mut BitSet {
        self.ensure_len(row as usize);
        let slot = &mut self.rows[row as usize];
        Arc::make_mut(slot.get_or_insert_with(|| Arc::new(BitSet::new())))
    }

    /// Inserts one bit into `row`, returning `true` if it was new.
    pub fn insert(&mut self, row: u32, bit: u32) -> bool {
        self.row_mut(row).insert(bit)
    }

    /// ORs `set` into `row`, returning `true` if the row changed. A union
    /// that changes nothing neither materializes a missing row nor unshares
    /// a shared one.
    pub fn union_into_row(&mut self, row: u32, set: &BitSet) -> bool {
        if set.is_empty() || self.row(row).is_some_and(|own| own.is_superset(set)) {
            return false;
        }
        self.row_mut(row).union(set)
    }

    /// Replaces `row` wholesale (a strong update).
    pub fn set_row(&mut self, row: u32, set: BitSet) {
        self.ensure_len(row as usize);
        self.rows[row as usize] = Some(Arc::new(set));
    }

    /// Joins `other` into `self` rowwise (wordwise OR per row), returning
    /// `true` if any row changed. A row `self` never wrote is *shared* with
    /// `other` (an `Arc` clone), not copied.
    pub fn join_rows(&mut self, other: &IndexMatrix) -> bool {
        let mut changed = false;
        for (index, other_row) in other.rows.iter().enumerate() {
            let Some(other_row) = other_row else {
                continue;
            };
            self.ensure_len(index);
            match &mut self.rows[index] {
                slot @ None => {
                    if !other_row.is_empty() {
                        *slot = Some(other_row.clone());
                        changed = true;
                    }
                }
                Some(own) => {
                    // Read-only no-change check before `make_mut`: near
                    // convergence most joins are no-ops, and unsharing a
                    // copy-on-write row just to discover that wastes an
                    // allocation and a word copy per shared row.
                    if !Arc::ptr_eq(own, other_row) && !own.is_superset(other_row) {
                        Arc::make_mut(own).union(other_row);
                        changed = true;
                    }
                }
            }
        }
        changed
    }
}

impl PartialEq for IndexMatrix {
    /// Logical equality: missing rows equal empty rows, and trailing empty
    /// rows do not matter.
    fn eq(&self, other: &Self) -> bool {
        let empty = BitSet::new();
        let len = self.rows.len().max(other.rows.len());
        (0..len).all(|i| {
            let a = self.rows.get(i).and_then(|r| r.as_deref());
            let b = other.rows.get(i).and_then(|r| r.as_deref());
            match (a, b) {
                (Some(a), Some(b)) => std::ptr::eq(a, b) || a == b,
                (Some(s), None) | (None, Some(s)) => *s == empty,
                (None, None) => true,
            }
        })
    }
}

impl Eq for IndexMatrix {}

impl JoinSemiLattice for IndexMatrix {
    fn join(&mut self, other: &Self) -> bool {
        self.join_rows(other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interner_roundtrips_and_is_stable() {
        let mut domain = IndexedDomain::new();
        let a = domain.intern("a");
        let b = domain.intern("b");
        assert_eq!(domain.intern("a"), a);
        assert_ne!(a, b);
        assert_eq!(domain.value(a), &"a");
        assert_eq!(domain.index_of(&"b"), Some(b));
        assert_eq!(domain.index_of(&"zzz"), None);
        assert_eq!(domain.len(), 2);
        assert!(!domain.is_empty());
        assert_eq!(domain.as_slice(), &["a", "b"]);
        assert_eq!(domain.into_values(), vec!["a", "b"]);
    }

    #[test]
    fn bitset_inserts_and_iterates() {
        let mut set = BitSet::new();
        assert!(set.is_empty());
        assert!(set.insert(3));
        assert!(!set.insert(3));
        assert!(set.insert(64));
        assert!(set.contains(3));
        assert!(!set.contains(4));
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![3, 64]);
        assert_eq!(set.count(), 2);
        set.clear();
        assert!(set.is_empty());
    }

    #[test]
    fn bitset_spills_past_inline_capacity() {
        let mut set = BitSet::new();
        set.insert(5);
        // 128+ forces the spill; the inline bits must survive it.
        set.insert(1000);
        assert!(set.contains(5));
        assert!(set.contains(1000));
        assert!(!set.contains(999));
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![5, 1000]);
    }

    #[test]
    fn bitset_equality_ignores_storage_representation() {
        let mut inline = BitSet::new();
        inline.insert(7);
        let mut spilled = BitSet::new();
        spilled.insert(7);
        spilled.insert(500);
        // Different word lengths, same logical content after clearing the
        // spilled-only bit: still equal.
        let mut spilled_cleared = spilled.clone();
        assert_ne!(inline, spilled);
        spilled_cleared.words_mut()[7] = 0;
        assert_eq!(inline, spilled_cleared);
        assert_eq!(spilled_cleared, inline);
        // Equal sets hash alike, whatever their storage.
        let hash = |set: &BitSet| {
            let mut hasher = std::collections::hash_map::DefaultHasher::new();
            set.hash(&mut hasher);
            hasher.finish()
        };
        assert_eq!(hash(&inline), hash(&spilled_cleared));
        let mut emptied = spilled.clone();
        emptied.clear();
        assert_eq!(hash(&BitSet::new()), hash(&emptied));
    }

    #[test]
    fn bitset_union_reports_changes_and_grows() {
        let mut a: BitSet = [1, 2].into_iter().collect();
        let b: BitSet = [2, 300].into_iter().collect();
        assert!(a.union(&b));
        assert!(!a.union(&b));
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 2, 300]);
        assert!(a.intersects(&b));
        let c: BitSet = [77].into_iter().collect();
        assert!(!a.intersects(&c));
        // Joining a small set into a large one must not shrink it.
        let mut big: BitSet = [400].into_iter().collect();
        assert!(big.join(&a));
        assert!(big.contains(400) && big.contains(300) && big.contains(1));
    }

    #[test]
    fn matrix_rows_are_copy_on_write() {
        let mut m = IndexMatrix::with_rows(4);
        m.insert(0, 10);
        m.insert(2, 20);
        let snapshot = m.clone();
        // Unwritten clone shares rows.
        assert!(Arc::ptr_eq(
            m.rows[0].as_ref().unwrap(),
            snapshot.rows[0].as_ref().unwrap()
        ));
        m.insert(0, 11);
        // The written row unshared; the untouched row is still shared.
        assert!(!Arc::ptr_eq(
            m.rows[0].as_ref().unwrap(),
            snapshot.rows[0].as_ref().unwrap()
        ));
        assert!(Arc::ptr_eq(
            m.rows[2].as_ref().unwrap(),
            snapshot.rows[2].as_ref().unwrap()
        ));
        assert!(!snapshot.row(0).unwrap().contains(11));
        assert!(m.row(0).unwrap().contains(11));
    }

    #[test]
    fn no_op_unions_keep_rows_shared() {
        let mut m = IndexMatrix::with_rows(2);
        m.insert(0, 10);
        let kept = m.row_arc(0).cloned().unwrap();
        let subset: BitSet = [10].into_iter().collect();
        assert!(!m.union_into_row(0, &subset));
        assert!(Arc::ptr_eq(m.row_arc(0).unwrap(), &kept));
        assert!(!m.union_into_row(1, &BitSet::new()));
        assert!(m.row_arc(1).is_none());
        m.set_row_arc(1, Some(kept.clone()));
        assert!(Arc::ptr_eq(m.row_arc(1).unwrap(), &kept));
        m.set_row_arc(0, None);
        m.set_row_arc(7, None);
        assert!(m.row(0).is_none() && m.num_rows() == 2);
    }

    #[test]
    fn bitset_remove_reports_presence() {
        let mut set: BitSet = [3, 200].into_iter().collect();
        assert!(set.remove(200));
        assert!(!set.remove(200));
        assert!(!set.remove(5000));
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![3]);
    }

    #[test]
    fn matrix_join_is_rowwise_or_and_shares_fresh_rows() {
        let mut a = IndexMatrix::with_rows(2);
        a.insert(0, 1);
        let mut b = IndexMatrix::with_rows(3);
        b.insert(0, 2);
        b.insert(2, 9);
        assert!(a.join(&b));
        assert!(!a.join(&b));
        assert_eq!(a.row(0).unwrap().iter().collect::<Vec<_>>(), vec![1, 2]);
        // Row 2 was fresh in `a`: it must be shared, not copied.
        assert!(Arc::ptr_eq(
            a.rows[2].as_ref().unwrap(),
            b.rows[2].as_ref().unwrap()
        ));
    }

    #[test]
    fn no_op_joins_do_not_unshare_rows() {
        let mut a = IndexMatrix::with_rows(1);
        a.insert(0, 1);
        a.insert(0, 2);
        let shared = a.clone();
        // `b` holds a subset in a distinct allocation: the join changes
        // nothing and must leave `a`'s row shared with `shared`.
        let mut b = IndexMatrix::with_rows(1);
        b.insert(0, 2);
        assert!(!a.join(&b));
        assert!(Arc::ptr_eq(
            a.rows[0].as_ref().unwrap(),
            shared.rows[0].as_ref().unwrap()
        ));
        // Superset checks across storage sizes.
        let big: BitSet = [1, 2, 500].into_iter().collect();
        let small: BitSet = [2].into_iter().collect();
        assert!(big.is_superset(&small));
        assert!(!small.is_superset(&big));
        assert!(big.is_superset(&BitSet::new()));
    }

    #[test]
    fn matrix_equality_is_logical() {
        let mut a = IndexMatrix::with_rows(2);
        a.insert(1, 5);
        let mut b = IndexMatrix::with_rows(8);
        b.insert(1, 5);
        assert_eq!(a, b);
        b.insert(7, 1);
        assert_ne!(a, b);
        // An explicitly emptied row equals a missing row.
        let mut c = IndexMatrix::with_rows(2);
        c.insert(1, 5);
        c.row_mut(0);
        assert_eq!(a, c);
        assert!(c.row(1).unwrap().contains(5));
        assert_eq!(c.num_rows(), 2);
        // union_into_row with an empty set does not materialize the row.
        let mut d = IndexMatrix::with_rows(1);
        assert!(!d.union_into_row(0, &BitSet::new()));
        assert!(d.rows[0].is_none());
        d.set_row(0, [3].into_iter().collect());
        assert!(d.row(0).unwrap().contains(3));
    }

    /// Every slot of `a` holds the same allocation as `b`'s (or both none).
    fn shares_every_row(a: &IndexMatrix, b: &IndexMatrix) -> bool {
        a.rows.len() == b.rows.len()
            && a.rows.iter().zip(&b.rows).all(|pair| match pair {
                (Some(x), Some(y)) => Arc::ptr_eq(x, y),
                (x, y) => x.is_none() && y.is_none(),
            })
    }

    #[test]
    fn matrix_clone_from_matches_clone_and_shares_rows() {
        let mut source = IndexMatrix::with_rows(5);
        source.insert(0, 1);
        source.insert(2, 7);
        source.insert(4, 300);
        let kept = source.row_arc(2).cloned();
        // Targets shorter and longer than the source, with slots that are
        // `None` where the source has a row and rows where it has `None`,
        // and one slot already sharing the source's row.
        let mut shorter = IndexMatrix::with_rows(2);
        shorter.insert(1, 9);
        let mut longer = IndexMatrix::with_rows(9);
        longer.insert(0, 5);
        longer.insert(3, 6);
        longer.insert(8, 2);
        longer.set_row_arc(2, kept.clone());
        for mut target in [shorter, longer, IndexMatrix::default()] {
            target.clone_from(&source);
            assert_eq!(target, source.clone());
            assert!(shares_every_row(&target, &source));
            assert!(Arc::ptr_eq(
                target.row_arc(2).unwrap(),
                kept.as_ref().unwrap()
            ));
        }
        // An empty source empties the target.
        let mut target = source.clone();
        target.clone_from(&IndexMatrix::default());
        assert_eq!(target.num_rows(), 0);
    }

    #[test]
    fn writes_after_clone_from_never_reach_the_source() {
        let mut source = IndexMatrix::with_rows(3);
        source.insert(0, 1);
        source.insert(1, 2);
        let before = source.clone();
        let mut working = IndexMatrix::with_rows(3);
        // A row the working state owns alone, about to be replaced.
        working.insert(0, 40);
        working.clone_from(&source);
        working.insert(0, 3);
        working.row_mut(1).clear();
        working.insert(2, 4);
        let mut other = IndexMatrix::with_rows(2);
        other.insert(1, 50);
        assert!(working.join(&other));
        assert_eq!(source, before);
        assert!(shares_every_row(&source, &before));
        assert_eq!(source.row(0).unwrap().iter().collect::<Vec<_>>(), vec![1]);
        assert!(source.row(2).is_none());
        // And the working state can be reset from the source again.
        working.clone_from(&source);
        assert_eq!(working, source);
        assert!(shares_every_row(&working, &source));
    }

    #[test]
    fn bitset_clone_from_matches_clone_across_storage() {
        let inline: BitSet = [3].into_iter().collect();
        let spilled: BitSet = [3, 900].into_iter().collect();
        let other_spilled: BitSet = [1000, 2000].into_iter().collect();
        for source in [&inline, &spilled] {
            for target in [&inline, &spilled, &other_spilled] {
                let mut copy = target.clone();
                copy.clone_from(source);
                assert_eq!(&copy, source);
                assert_eq!(
                    copy.iter().collect::<Vec<_>>(),
                    source.iter().collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn matrix_from_rows_shares_the_given_rows() {
        let row = Arc::new([4].into_iter().collect::<BitSet>());
        let m = IndexMatrix::from_rows(vec![None, Some(row.clone()), Some(row.clone())]);
        assert_eq!(m.num_rows(), 3);
        assert!(m.row(0).is_none());
        assert!(std::ptr::eq(m.row(1).unwrap(), &*row));
        assert!(std::ptr::eq(m.row(2).unwrap(), &*row));
    }
}
