//! Table entries and the three records the join moves.
//!
//! Every sorting gate and routing hop moves two whole records, so each
//! phase moves a record that carries only the words that phase and the next
//! one read:
//!
//! * [`AugmentRecord`] — `(j, tid, d)`, the sort over `T_C` in
//!   Augment-Tables; 24 bytes with the one-word payload.
//! * [`AugRecord`] — `(j, d, dest, α₁, α₂, tid, live)`, written by
//!   Fill-Dimensions and moved by both expansions; 40 bytes.
//! * [`AlignRecord`] — `(slot, d)`, the sort over `m` in Align-Table;
//!   16 bytes.

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

/// The record the augment sort moves: the row's join value, table id and
/// data value, sorted by `(j, tid, d)`.
///
/// The group dimensions, the routing destination and the validity flag are
/// not known before the sort, so they do not ride through it:
/// Fill-Dimensions reads the sorted run and writes the [`AugRecord`]s.
/// `tid` takes a whole word so the record has no padding: 16 + 8W bytes,
/// 24 with the one-word payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub struct AugmentRecord<P: Payload = DataValue> {
    /// Join attribute `j`.
    pub key: JoinKey,
    /// Originating table id (1 or 2).
    pub tid: u64,
    /// Data attribute `d`.
    pub value: P,
}

impl<P: Payload> AugmentRecord<P> {
    /// The record of one input row.
    pub fn new(key: JoinKey, value: P, tid: TableId) -> Self {
        AugmentRecord {
            key,
            tid: tid.as_u32().into(),
            value,
        }
    }

    /// The augment sort's key, `(j, tid, d)`.
    #[inline(always)]
    pub fn sort_key(&self) -> (JoinKey, u64, P) {
        (self.key, self.tid, self.value)
    }

    /// The live [`AugRecord`] of this row, carrying the group dimensions
    /// `(α₁, α₂)`.
    #[inline(always)]
    pub fn augment(self, alpha1: u32, alpha2: u32) -> AugRecord<P> {
        AugRecord {
            key: self.key,
            value: self.value,
            dest: 1, // a harmless non-zero placeholder; set properly before routing
            alpha1,
            alpha2,
            tid: self.tid as u32,
            live: 1,
        }
    }
}

impl<P: Payload> CtSelect for AugmentRecord<P> {
    #[inline(always)]
    fn ct_select(c: Choice, a: Self, b: Self) -> Self {
        AugmentRecord {
            key: u64::ct_select(c, a.key, b.key),
            tid: u64::ct_select(c, a.tid, b.tid),
            value: P::ct_select(c, a.value, b.value),
        }
    }
}

/// The record the align sort moves: a row of `S₂`'s data value and the slot
/// of `S₁` it must line up with.
///
/// The slots of an expanded `S₂` are a permutation of `0..m`, so the sort
/// key is the one word `slot`, without ties; the join value stays behind in
/// `S₁`, which the zip reads it from.  8 + 8W bytes, 16 with the one-word
/// payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub struct AlignRecord<P: Payload = DataValue> {
    /// The 0-based row of `S₁` this data value is paired with.
    pub slot: u64,
    /// Data attribute `d₂`.
    pub value: P,
}

impl<P: Payload> Default for AlignRecord<P> {
    fn default() -> Self {
        AlignRecord {
            slot: 0,
            value: P::zero(),
        }
    }
}

impl<P: Payload> CtSelect for AlignRecord<P> {
    #[inline(always)]
    fn ct_select(c: Choice, a: Self, b: Self) -> Self {
        AlignRecord {
            slot: u64::ct_select(c, a.slot, b.slot),
            value: P::ct_select(c, a.value, b.value),
        }
    }
}

/// The augmented record `(j, d, tid, α₁, α₂, …)` that Fill-Dimensions
/// writes and both expansions move.
///
/// On top of the paper's attributes it carries the routing destination used
/// by oblivious expansion (`dest`) and a validity flag (`live`) so that null
/// padding entries are representable.  Every conditional assignment to a
/// record goes through [`CtSelect`].
///
/// Every routing hop moves two whole records, so the layout is as narrow
/// as the public sizes allow: `α₁ ≤ n₁`, `α₂ ≤ n₂`,
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
    /// records (`f̂(∅) = 0`).
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
        AugmentRecord::new(entry.key, entry.value, tid).augment(0, 0)
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
    /// Whether the record is a real entry (as opposed to null padding).
    pub fn is_live(&self) -> bool {
        self.live == 1
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
    fn sort_records_carry_only_their_words() {
        use std::mem::size_of;
        assert_eq!(size_of::<AugmentRecord<u64>>(), 24);
        assert_eq!(size_of::<AugmentRecord<[u64; 4]>>(), 48);
        assert_eq!(size_of::<AlignRecord<u64>>(), 16);
        assert_eq!(size_of::<AlignRecord<[u64; 4]>>(), 40);
    }

    #[test]
    fn augment_record_sorts_by_key_then_table_then_value() {
        let r = AugmentRecord::new(7, 70u64, TableId::Right);
        assert_eq!(r.sort_key(), (7, 2, 70));
        assert!(AugmentRecord::new(7, 99u64, TableId::Left).sort_key() < r.sort_key());
        let b = AugmentRecord::new(1, 10u64, TableId::Left);
        assert_eq!(AugmentRecord::ct_select(Choice::TRUE, r, b), r);
        assert_eq!(AugmentRecord::ct_select(Choice::FALSE, r, b), b);
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
