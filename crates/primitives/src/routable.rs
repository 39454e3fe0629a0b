//! The element contract shared by the distribution / expansion primitives.

use crate::ct::CtSelect;

/// An element that the oblivious distribution and expansion primitives can
//  route.
///
/// The paper stores routing metadata ("the values of `f` are stored as
/// attributes in augmented entries", §5.2) inside the entries themselves so
/// that a constant amount of local memory suffices; this trait is the Rust
/// rendering of that convention.
///
/// Destinations are **1-based**, exactly as in Algorithm 3: `dest() == 0`
/// marks a null / discarded element (`f̂(∅) = 0`), and a real element with
/// destination `d ≥ 1` must end up at array position `d − 1`.
///
/// Elements are `Send` so that the sorts which move them can fork across
/// threads.
pub trait Routable: Copy + CtSelect + Send {
    /// The element's 1-based destination index; 0 for null elements.
    fn dest(&self) -> u64;

    /// Overwrite the destination attribute.
    fn set_dest(&mut self, dest: u64);

    /// A canonical null element (`∅` in the paper): a placeholder written
    /// into slots that hold no real data.
    fn null() -> Self;

    /// Whether this element is null.  The default ties nullity to a zero
    /// destination, matching `f̂(∅) = 0`.
    fn is_null(&self) -> bool {
        self.dest() == 0
    }

    /// Turn this element into a null / discarded element.
    ///
    /// Implementations must guarantee `is_null()` afterwards **and** a zero
    /// destination (so the routing networks never move the element).  The
    /// default clears the destination, which suffices when nullity is
    /// derived from it.
    fn set_null(&mut self) {
        self.set_dest(0);
    }
}

/// A minimal routable element: a payload plus an explicit destination.
///
/// The join core defines richer records; this pair type is what the
/// primitive-level tests, benchmarks and examples use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Keyed<T: Copy> {
    /// The carried payload.
    pub value: T,
    /// 1-based destination (0 = null).
    pub dest: u64,
}

impl<T: Copy> Keyed<T> {
    /// A real element with the given payload and 1-based destination.
    pub fn new(value: T, dest: u64) -> Self {
        Keyed { value, dest }
    }
}

impl<T: Copy + CtSelect> CtSelect for Keyed<T> {
    #[inline(always)]
    fn ct_select(c: crate::ct::Choice, a: Self, b: Self) -> Self {
        Keyed {
            value: T::ct_select(c, a.value, b.value),
            dest: u64::ct_select(c, a.dest, b.dest),
        }
    }
}

impl<T: Copy + CtSelect + Default + Send> Routable for Keyed<T> {
    fn dest(&self) -> u64 {
        self.dest
    }

    fn set_dest(&mut self, dest: u64) {
        self.dest = dest;
    }

    fn null() -> Self {
        Keyed {
            value: T::default(),
            dest: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ct::Choice;

    #[test]
    fn keyed_roundtrip() {
        let mut k = Keyed::new(42u64, 3);
        assert_eq!(k.dest(), 3);
        assert!(!k.is_null());
        k.set_dest(0);
        assert!(k.is_null());
        assert_eq!(Keyed::<u64>::null().dest(), 0);
        assert!(Keyed::<u64>::null().is_null());
    }

    #[test]
    fn keyed_ct_select() {
        let a = Keyed::new(1u64, 10);
        let b = Keyed::new(2u64, 20);
        assert_eq!(Keyed::ct_select(Choice::TRUE, a, b), a);
        assert_eq!(Keyed::ct_select(Choice::FALSE, a, b), b);
    }
}
