//! Table entries and the augmented records used internally by the join.

use obliv_primitives::{Choice, CtSelect, Routable};

/// A join-attribute value.
///
/// Keys are fixed-width words: an oblivious record must have a fixed size so
/// that moving it between public and local memory is a constant-time bitwise
/// copy.  Variable-length keys should be hashed or dictionary-encoded to a
/// word before joining (standard practice for sort-based join operators).
pub type JoinKey = u64;

/// A data-attribute value carried alongside the join key.
///
/// Like [`JoinKey`] this is a fixed-width word; wider payloads use the
/// generic kernel records ([`AugRecord<P>`]) with a `[u64; W]` payload, or
/// store row identifiers here and fetch the full rows after the join (late
/// materialisation).
pub type DataValue = u64;

/// Payloads the kernel records can carry through the oblivious join.
///
/// A payload must be a fixed-size, branch-free-selectable value with a
/// total order (the augment phase sorts by `(j, tid, d)`); `u64` is the
/// legacy pair shape and `[u64; W]` carries `W` columns at once.  The
/// blanket impl covers both.  Payloads are additionally `Send` so the
/// sorts that move them can fork across threads; every fixed-width word
/// payload satisfies this for free.
pub trait Payload: Copy + Ord + Eq + std::fmt::Debug + std::hash::Hash + CtSelect + Send {
    /// The all-zero payload used for null padding records.
    fn zero() -> Self;
}

impl Payload for u64 {
    #[inline(always)]
    fn zero() -> Self {
        0
    }
}

impl<const N: usize> Payload for [u64; N] {
    #[inline(always)]
    fn zero() -> Self {
        [0; N]
    }
}

/// One row of an input table: the pair `(j, d)` of §4.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Entry {
    /// The join attribute `j`.
    pub key: JoinKey,
    /// The data attribute `d`.
    pub value: DataValue,
}

impl Entry {
    /// Construct an entry from its two attributes.
    pub fn new(key: JoinKey, value: DataValue) -> Self {
        Entry { key, value }
    }
}

impl From<(JoinKey, DataValue)> for Entry {
    fn from((key, value): (JoinKey, DataValue)) -> Self {
        Entry::new(key, value)
    }
}

/// One row of the join output: the data values of a matching pair of input
/// rows, `(d₁, d₂)`.
///
/// The payload type defaults to the legacy single word; the wide operators
/// instantiate it with `[u64; W]` to carry several columns per side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JoinRow<P: Payload = DataValue> {
    /// Data value contributed by the left table.
    pub left: P,
    /// Data value contributed by the right table.
    pub right: P,
}

impl<P: Payload> JoinRow<P> {
    /// Construct an output row.
    pub fn new(left: P, right: P) -> Self {
        JoinRow { left, right }
    }
}

impl<P: Payload> Default for JoinRow<P> {
    fn default() -> Self {
        JoinRow {
            left: P::zero(),
            right: P::zero(),
        }
    }
}

impl<P: Payload> CtSelect for JoinRow<P> {
    #[inline(always)]
    fn ct_select(c: Choice, a: Self, b: Self) -> Self {
        JoinRow {
            left: P::ct_select(c, a.left, b.left),
            right: P::ct_select(c, a.right, b.right),
        }
    }
}

/// Identifier of the originating table inside the combined table `T_C`
/// (Algorithm 2).  Encoded as 1 / 2 exactly as in the paper so that sorting
/// by `(j, tid)` groups a join value's `T₁` entries before its `T₂` entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TableId {
    /// The left input table `T₁`.
    Left = 1,
    /// The right input table `T₂`.
    Right = 2,
}

impl TableId {
    /// Numeric encoding used as a sort key (1 for left, 2 for right).
    #[inline]
    pub fn as_u32(self) -> u32 {
        self as u32
    }
}

/// The augmented record `(j, d, tid, α₁, α₂, …)` that flows through every
/// stage of the join.
///
/// On top of the paper's attributes it carries the routing destination used
/// by oblivious expansion (`dest`, which Algorithm 5 reuses for its
/// alignment index) and a validity flag (`live`) so that null padding
/// entries are representable.  Every conditional assignment to a record
/// goes through [`CtSelect`].
///
/// Every sorting gate and routing hop moves two whole records, so the
/// layout is as narrow as the public sizes allow: `α₁ ≤ n₁`, `α₂ ≤ n₂`,
/// `tid` and `live` are `u32` — the join asserts `n₁ + n₂ < 2³²` — while
/// `dest` stays a full word because `m` can reach `n₁·n₂`.  With the
/// one-word payload that is 40 bytes, five words.  Operators that want
/// wider per-record accumulators define their own record type instead of
/// widening this one.
///
/// The data attribute is generic: `u64` for the paper's pair shape (the
/// default) or `[u64; W]` for the wide operators' multi-column carries.
///
/// `repr(C)` keeps the four `u32` attributes adjacent and in declaration
/// order, so that [`CtSelect`] can move them as two words (measured: 4.0
/// against 5.2 ns per sorting gate for field-wise `u32` selects, n = 10⁵).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub struct AugRecord<P: Payload = DataValue> {
    /// Join attribute `j`.
    pub key: JoinKey,
    /// Data attribute `d`.
    pub value: P,
    /// 1-based routing destination during oblivious expansion; 0 in null
    /// records (`f̂(∅) = 0`).  Once expansion has placed a record its
    /// destination is dead, and `Align-Table` stores the alignment index
    /// `ii` of Algorithm 5 in the same word
    /// ([`align_idx`](AugRecord::align_idx)).
    pub dest: u64,
    /// Group dimension `α₁(j)`: how many entries of `T₁` carry this key.
    pub alpha1: u32,
    /// Group dimension `α₂(j)`: how many entries of `T₂` carry this key.
    pub alpha2: u32,
    /// Originating table id (1 or 2); 0 in null records.
    pub tid: u32,
    /// 1 for real records, 0 for null padding.
    pub live: u32,
}

impl AugRecord {
    /// Build a live, un-augmented record from an input entry.
    pub fn from_entry(entry: Entry, tid: TableId) -> Self {
        AugRecord::from_parts(entry.key, entry.value, tid)
    }

    /// The `(d₁, d₂)`-producing projection used by the final zip is handled
    /// in the join module; here we expose the entry view for tests.
    pub fn entry(&self) -> Entry {
        Entry::new(self.key, self.value)
    }
}

impl<P: Payload> Default for AugRecord<P> {
    fn default() -> Self {
        AugRecord {
            key: 0,
            value: P::zero(),
            dest: 0,
            alpha1: 0,
            alpha2: 0,
            tid: 0,
            live: 0,
        }
    }
}

impl<P: Payload> AugRecord<P> {
    /// Build a live, un-augmented record from a key, payload and table id.
    pub fn from_parts(key: JoinKey, value: P, tid: TableId) -> Self {
        AugRecord {
            key,
            value,
            dest: 1, // a harmless non-zero placeholder; set properly before routing
            alpha1: 0,
            alpha2: 0,
            tid: tid.as_u32(),
            live: 1,
        }
    }

    /// Whether the record is a real entry (as opposed to null padding).
    pub fn is_live(&self) -> bool {
        self.live == 1
    }

    /// The alignment index `ii` of Algorithm 5 (shares `dest`'s word).
    #[inline]
    pub fn align_idx(&self) -> u64 {
        self.dest
    }

    /// Store the alignment index `ii` of Algorithm 5 (shares `dest`'s word).
    #[inline]
    pub fn set_align_idx(&mut self, ii: u64) {
        self.dest = ii;
    }
}

impl<P: Payload> CtSelect for AugRecord<P> {
    #[inline(always)]
    fn ct_select(c: Choice, a: Self, b: Self) -> Self {
        // Adjacent `u32`s travel as one word: one load, one select, one
        // store per pair once the compiler has merged the halves.
        let pair = |lo: u32, hi: u32| u64::from(lo) | u64::from(hi) << 32;
        let dims = u64::ct_select(c, pair(a.alpha1, a.alpha2), pair(b.alpha1, b.alpha2));
        let flags = u64::ct_select(c, pair(a.tid, a.live), pair(b.tid, b.live));
        AugRecord {
            key: u64::ct_select(c, a.key, b.key),
            value: P::ct_select(c, a.value, b.value),
            dest: u64::ct_select(c, a.dest, b.dest),
            alpha1: dims as u32,
            alpha2: (dims >> 32) as u32,
            tid: flags as u32,
            live: (flags >> 32) as u32,
        }
    }
}

impl<P: Payload> Routable for AugRecord<P> {
    fn dest(&self) -> u64 {
        self.dest
    }

    fn set_dest(&mut self, dest: u64) {
        self.dest = dest;
    }

    fn null() -> Self {
        AugRecord::default()
    }

    fn is_null(&self) -> bool {
        // Nullity is carried by the explicit flag rather than `dest == 0` so
        // records remain distinguishable before destinations are assigned.
        self.live == 0
    }

    fn set_null(&mut self) {
        self.live = 0;
        self.dest = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_constructors() {
        let e = Entry::new(3, 14);
        assert_eq!(e, Entry::from((3, 14)));
        assert_eq!(e.key, 3);
        assert_eq!(e.value, 14);
    }

    #[test]
    fn table_id_encoding_orders_left_before_right() {
        assert_eq!(TableId::Left.as_u32(), 1);
        assert_eq!(TableId::Right.as_u32(), 2);
        assert!(TableId::Left.as_u32() < TableId::Right.as_u32());
    }

    #[test]
    fn pair_shaped_record_is_five_words() {
        assert_eq!(std::mem::size_of::<AugRecord<u64>>(), 40);
        assert_eq!(std::mem::size_of::<AugRecord<[u64; 4]>>(), 64);
    }

    #[test]
    fn align_idx_shares_the_destination_word() {
        let mut r = AugRecord::from_entry(Entry::new(1, 2), TableId::Right);
        r.set_align_idx(1 << 40);
        assert_eq!(r.align_idx(), 1 << 40);
        assert_eq!(r.dest(), 1 << 40);
    }

    #[test]
    fn aug_record_from_entry_is_live() {
        let r = AugRecord::from_entry(Entry::new(7, 70), TableId::Right);
        assert!(r.is_live());
        assert!(!r.is_null());
        assert_eq!(r.tid, 2);
        assert_eq!(r.entry(), Entry::new(7, 70));
    }

    #[test]
    fn null_record_is_null_regardless_of_dest() {
        let mut n = AugRecord::<u64>::null();
        assert!(n.is_null());
        n.set_dest(5);
        assert!(n.is_null(), "nullity is carried by the live flag, not dest");
        assert_eq!(n.dest(), 5);
    }

    #[test]
    fn ct_select_picks_whole_record() {
        let a = AugRecord::from_entry(Entry::new(1, 10), TableId::Left);
        let b = AugRecord::from_entry(Entry::new(2, 20), TableId::Right);
        assert_eq!(AugRecord::ct_select(Choice::TRUE, a, b), a);
        assert_eq!(AugRecord::ct_select(Choice::FALSE, a, b), b);
    }

    #[test]
    fn join_row_ct_select() {
        let a = JoinRow::<u64>::new(1, 2);
        let b = JoinRow::<u64>::new(3, 4);
        assert_eq!(JoinRow::ct_select(Choice::TRUE, a, b), a);
        assert_eq!(JoinRow::ct_select(Choice::FALSE, a, b), b);
    }
}
