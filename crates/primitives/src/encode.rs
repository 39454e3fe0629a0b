//! Order-preserving word encodings for typed sort keys.
//!
//! The oblivious kernel compares, routes and sorts fixed-width `u64` words.
//! Typed columns (signed integers, booleans, short byte strings) take part
//! in key comparisons by first being mapped into the `u64` domain through an
//! *order-preserving code*: `a < b` (in the column's natural order) iff
//! `encode(a) < encode(b)` (as unsigned words).  All codes here are
//! invertible, so values can be decoded back after flowing through a sort,
//! join or min/max aggregate.
//!
//! Every function is branch-free and data-independent: encoding a value is a
//! fixed sequence of arithmetic/bit operations, so performing it inside an
//! oblivious pipeline adds nothing to the observable trace.
//!
//! ```
//! use obliv_primitives::encode::{encode_i64, decode_i64};
//!
//! let words: Vec<u64> = [-5i64, -1, 0, 3].iter().map(|&v| encode_i64(v)).collect();
//! assert!(words.windows(2).all(|w| w[0] < w[1]), "order is preserved");
//! assert_eq!(decode_i64(encode_i64(-5)), -5);
//! ```

/// Maximum byte-string length representable in one key word.
pub const MAX_BYTES_WORD: usize = 8;

/// Encode an unsigned word (the identity; present so every column type has
/// a uniform `encode_*` entry point).
#[inline]
pub fn encode_u64(v: u64) -> u64 {
    v
}

/// Decode an unsigned word (the identity).
#[inline]
pub fn decode_u64(w: u64) -> u64 {
    w
}

/// Encode a signed integer order-preservingly by flipping the sign bit:
/// `i64::MIN → 0`, `-1 → 2⁶³ - 1`, `0 → 2⁶³`, `i64::MAX → u64::MAX`.
#[inline]
pub fn encode_i64(v: i64) -> u64 {
    (v as u64) ^ (1u64 << 63)
}

/// Invert [`encode_i64`].
#[inline]
pub fn decode_i64(w: u64) -> i64 {
    (w ^ (1u64 << 63)) as i64
}

/// Encode a boolean as `false → 0`, `true → 1`.
#[inline]
pub fn encode_bool(v: bool) -> u64 {
    v as u64
}

/// Invert [`encode_bool`] (any non-zero word decodes to `true`).
#[inline]
pub fn decode_bool(w: u64) -> bool {
    w != 0
}

/// Encode up to [`MAX_BYTES_WORD`] bytes big-endian and left-justified, so
/// that comparing the resulting words as unsigned integers matches the
/// lexicographic order of equal-length byte strings.
///
/// Fixed-width columns always compare strings of one length, so the
/// zero-padding on the right never affects their relative order.
///
/// # Panics
///
/// Panics if `bytes.len() > MAX_BYTES_WORD`; callers gate on the column
/// width (a public schema property), so the check is data-independent.
#[inline]
pub fn encode_bytes_be(bytes: &[u8]) -> u64 {
    assert!(
        bytes.len() <= MAX_BYTES_WORD,
        "byte-string keys wider than {MAX_BYTES_WORD} bytes do not fit one word"
    );
    let mut w = [0u8; 8];
    w[..bytes.len()].copy_from_slice(bytes);
    u64::from_be_bytes(w)
}

/// Invert [`encode_bytes_be`] for a known fixed width `len`.
#[inline]
pub fn decode_bytes_be(word: u64, len: usize) -> Vec<u8> {
    assert!(len <= MAX_BYTES_WORD);
    word.to_be_bytes()[..len].to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn i64_code_is_order_preserving_and_invertible() {
        let samples = [i64::MIN, i64::MIN + 1, -77, -1, 0, 1, 42, i64::MAX];
        for w in samples.windows(2) {
            assert!(encode_i64(w[0]) < encode_i64(w[1]), "{} vs {}", w[0], w[1]);
        }
        for &v in &samples {
            assert_eq!(decode_i64(encode_i64(v)), v);
        }
    }

    #[test]
    fn bool_code_orders_false_before_true() {
        assert!(encode_bool(false) < encode_bool(true));
        assert!(!decode_bool(encode_bool(false)));
        assert!(decode_bool(encode_bool(true)));
    }

    #[test]
    fn bytes_code_matches_lexicographic_order() {
        let mut strings: Vec<&[u8]> = vec![b"abcd", b"abce", b"abzz", b"zzzz", b"aaaa"];
        strings.sort();
        let words: Vec<u64> = strings.iter().map(|s| encode_bytes_be(s)).collect();
        assert!(words.windows(2).all(|w| w[0] < w[1]));
        for &s in &strings {
            assert_eq!(decode_bytes_be(encode_bytes_be(s), s.len()), s);
        }
    }

    #[test]
    #[should_panic(expected = "wider than 8 bytes")]
    fn bytes_code_rejects_wide_strings() {
        let _ = encode_bytes_be(b"123456789");
    }
}
