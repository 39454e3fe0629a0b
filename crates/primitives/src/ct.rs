//! Branch-free (constant-time) building blocks.
//!
//! A level-II oblivious program may branch on secret data as long as both
//! branches perform the *same public-memory accesses*; a level-III program
//! (§3.2, §3.4 of the paper) additionally requires the executed instruction
//! sequence to be input-independent, which in practice means replacing
//! secret-dependent branches with arithmetic selection:
//!
//! ```text
//! x ← y·secret + z·(¬secret)
//! ```
//!
//! The helpers here implement that transformation for machine words and for
//! any record type made of such words (via [`CtSelect`]).  All sorting and
//! routing primitives in this crate route their secret-dependent *data
//! movement* through these helpers: whether a compare-exchange swaps, a hop
//! moves or a mark pass drops an element is a masked selection, never a
//! branch, and never an address.
//!
//! What is **not** constant-time is the comparison that *decides* a sorting
//! gate: the sorts take a key closure returning any `K: Ord`, and `>` on `K`
//! is whatever the compiler makes of it — a `setcc` for a word, a
//! short-circuiting lexicographic compare (with a branch per component) for
//! a tuple such as the join's `(j, tid, d)`.  That is within level II, which
//! is what this workspace claims and its trace checks verify; it is not
//! level III.  A constant-time alternative — a lexicographic scan over the
//! key's words that visits every word pair whatever the first difference —
//! was measured on the join's augment sort, n = 10⁵, same process,
//! alternating: three key words through it cost 7.6 ns per gate against
//! 6.1 ns for the tuple compare (+25 %; +10–15 % on the earlier 64-byte
//! record, where moving the record was a larger share of the gate), so it
//! was struck.  A level-III build should pay that in the key type, not in
//! these helpers.

/// A secret boolean represented as a full-width mask (`0` or `!0`).
///
/// Constructing a `Choice` from a `bool` is itself branch-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Choice(u64);

impl Choice {
    /// The constant "false" choice.
    pub const FALSE: Choice = Choice(0);
    /// The constant "true" choice.
    pub const TRUE: Choice = Choice(u64::MAX);

    /// Build a choice from a boolean without branching: `true → !0`,
    /// `false → 0`.
    #[inline(always)]
    pub fn from_bool(b: bool) -> Self {
        // `b as u64` is 0 or 1; negation turns 1 into the all-ones mask.
        Choice((b as u64).wrapping_neg())
    }

    /// Build a choice that is true iff `a == b`.
    #[inline(always)]
    pub fn eq_u64(a: u64, b: u64) -> Self {
        let diff = a ^ b;
        // diff == 0  ⇔  (diff | diff.wrapping_neg()) has MSB 0.
        let nonzero_msb = (diff | diff.wrapping_neg()) >> 63;
        Choice((1u64 ^ nonzero_msb).wrapping_neg())
    }

    /// Build a choice that is true iff `a < b` (unsigned).
    #[inline(always)]
    pub fn lt_u64(a: u64, b: u64) -> Self {
        // Carry-out of a - b: standard constant-time unsigned comparison.
        let borrow = ((!a & b) | ((!a | b) & a.wrapping_sub(b))) >> 63;
        Choice(borrow.wrapping_neg())
    }

    /// Build a choice that is true iff `a >= b` (unsigned).
    #[inline(always)]
    pub fn ge_u64(a: u64, b: u64) -> Self {
        Self::lt_u64(a, b).not()
    }

    /// Logical AND of two choices.
    #[inline(always)]
    pub fn and(self, other: Choice) -> Choice {
        Choice(self.0 & other.0)
    }

    /// Logical OR of two choices.
    #[inline(always)]
    pub fn or(self, other: Choice) -> Choice {
        Choice(self.0 | other.0)
    }

    /// Logical negation.
    #[inline(always)]
    #[allow(clippy::should_implement_trait)] // deliberate: mirrors `and`/`or`
    pub fn not(self) -> Choice {
        Choice(!self.0)
    }

    /// The underlying mask (0 or all ones).
    #[inline(always)]
    pub fn mask(self) -> u64 {
        self.0
    }

    /// Collapse to a `bool` (for assertions and tests; using this to drive a
    /// branch re-introduces the data-dependent control flow the type is
    /// meant to avoid).
    #[inline(always)]
    pub fn to_bool(self) -> bool {
        self.0 != 0
    }
}

/// Types that support branch-free conditional selection.
pub trait CtSelect: Copy {
    /// Return `a` if `c` is true, else `b`, without branching on `c`.
    fn ct_select(c: Choice, a: Self, b: Self) -> Self;
}

impl CtSelect for u64 {
    #[inline(always)]
    fn ct_select(c: Choice, a: Self, b: Self) -> Self {
        (a & c.mask()) | (b & !c.mask())
    }
}

impl CtSelect for u32 {
    #[inline(always)]
    fn ct_select(c: Choice, a: Self, b: Self) -> Self {
        u64::ct_select(c, a as u64, b as u64) as u32
    }
}

impl CtSelect for u16 {
    #[inline(always)]
    fn ct_select(c: Choice, a: Self, b: Self) -> Self {
        u64::ct_select(c, a as u64, b as u64) as u16
    }
}

impl CtSelect for u8 {
    #[inline(always)]
    fn ct_select(c: Choice, a: Self, b: Self) -> Self {
        u64::ct_select(c, a as u64, b as u64) as u8
    }
}

impl CtSelect for i64 {
    #[inline(always)]
    fn ct_select(c: Choice, a: Self, b: Self) -> Self {
        u64::ct_select(c, a as u64, b as u64) as i64
    }
}

impl CtSelect for bool {
    #[inline(always)]
    fn ct_select(c: Choice, a: Self, b: Self) -> Self {
        u64::ct_select(c, a as u64, b as u64) != 0
    }
}

impl CtSelect for usize {
    #[inline(always)]
    fn ct_select(c: Choice, a: Self, b: Self) -> Self {
        u64::ct_select(c, a as u64, b as u64) as usize
    }
}

impl<A: CtSelect, B: CtSelect> CtSelect for (A, B) {
    #[inline(always)]
    fn ct_select(c: Choice, a: Self, b: Self) -> Self {
        (A::ct_select(c, a.0, b.0), B::ct_select(c, a.1, b.1))
    }
}

impl<T: CtSelect, const N: usize> CtSelect for [T; N] {
    #[inline(always)]
    fn ct_select(c: Choice, a: Self, b: Self) -> Self {
        std::array::from_fn(|i| T::ct_select(c, a[i], b[i]))
    }
}

/// Branch-free minimum of two unsigned words.
#[inline(always)]
pub fn ct_min_u64(a: u64, b: u64) -> u64 {
    u64::ct_select(Choice::lt_u64(a, b), a, b)
}

/// Branch-free maximum of two unsigned words.
#[inline(always)]
pub fn ct_max_u64(a: u64, b: u64) -> u64 {
    u64::ct_select(Choice::lt_u64(a, b), b, a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choice_from_bool() {
        assert_eq!(Choice::from_bool(true).mask(), u64::MAX);
        assert_eq!(Choice::from_bool(false).mask(), 0);
        assert!(Choice::from_bool(true).to_bool());
        assert!(!Choice::from_bool(false).to_bool());
    }

    #[test]
    fn comparisons_match_native_operators() {
        let samples = [0u64, 1, 2, 63, 64, 1 << 32, u64::MAX - 1, u64::MAX];
        for &a in &samples {
            for &b in &samples {
                assert_eq!(Choice::eq_u64(a, b).to_bool(), a == b, "eq {a} {b}");
                assert_eq!(Choice::lt_u64(a, b).to_bool(), a < b, "lt {a} {b}");
                assert_eq!(Choice::ge_u64(a, b).to_bool(), a >= b, "ge {a} {b}");
            }
        }
    }

    #[test]
    fn boolean_algebra() {
        let t = Choice::TRUE;
        let f = Choice::FALSE;
        assert!(t.and(t).to_bool());
        assert!(!t.and(f).to_bool());
        assert!(t.or(f).to_bool());
        assert!(!f.or(f).to_bool());
        assert!(f.not().to_bool());
        assert!(!t.not().to_bool());
    }

    #[test]
    fn select_and_swap() {
        assert_eq!(u64::ct_select(Choice::TRUE, 7, 9), 7);
        assert_eq!(u64::ct_select(Choice::FALSE, 7, 9), 9);
        assert_eq!(u32::ct_select(Choice::TRUE, 7, 9), 7);
        assert_eq!(i64::ct_select(Choice::FALSE, -7, -9), -9);
        assert!(bool::ct_select(Choice::TRUE, true, false));
        assert_eq!(
            <(u64, u32)>::ct_select(Choice::FALSE, (1, 2), (3, 4)),
            (3, 4)
        );

        // A swap is two selects, as every sorting gate writes it back.
        let swap = |c: Choice, a: u64, b: u64| (u64::ct_select(c, b, a), u64::ct_select(c, a, b));
        assert_eq!(swap(Choice::FALSE, 10, 20), (10, 20));
        assert_eq!(swap(Choice::TRUE, 10, 20), (20, 10));
    }

    #[test]
    fn min_max() {
        assert_eq!(ct_min_u64(3, 5), 3);
        assert_eq!(ct_min_u64(5, 3), 3);
        assert_eq!(ct_max_u64(3, 5), 5);
        assert_eq!(ct_max_u64(u64::MAX, 0), u64::MAX);
        assert_eq!(ct_min_u64(7, 7), 7);
    }
}
