//! # obliv-primitives — oblivious building blocks
//!
//! The data-independent primitives that *Efficient Oblivious Database Joins*
//! (Krastnikov, Kerschbaum, Stebila; VLDB 2020) composes into its join:
//!
//! * [`ct`] — branch-free conditional selection and swaps (the level-III
//!   discipline of §3.4, applied to every secret-dependent move),
//! * [`sort`] — the bitonic sorting network over
//!   [`TrackedBuffer`](obliv_trace::TrackedBuffer)s, for arbitrary lengths,
//! * [`oblivious_distribute`] — Algorithm 3, the deterministic routing
//!   network (§5.2),
//! * [`oblivious_expand`] — Algorithm 4 (§5.3), with order-preserving
//!   compaction where the paper's distribution sorts,
//! * [`compact`] — oblivious compaction, the mirror image of distribution,
//! * [`encode`] — order-preserving codes mapping typed column values
//!   (signed integers, booleans, short byte strings) into the `u64` word
//!   domain the comparators operate on.
//!
//! Every primitive operates on buffers allocated from an
//! [`obliv_trace::Tracer`], so its memory-access sequence can be logged,
//! hashed, counted or discarded without touching the algorithm code.
//!
//! ```
//! use obliv_trace::{CountingSink, Tracer};
//! use obliv_primitives::{oblivious_distribute, Keyed, Routable};
//!
//! // Place five records at chosen slots of an 8-slot array, obliviously
//! // (the example of the paper's Figure 3: destinations 4, 1, 3, 8, 6).
//! let tracer = Tracer::new(CountingSink::new());
//! let input = tracer.alloc_from(vec![
//!     Keyed::new(101u64, 4), Keyed::new(102, 1), Keyed::new(103, 3),
//!     Keyed::new(104, 8), Keyed::new(105, 6),
//! ]);
//! let placed = oblivious_distribute(input, 8);
//! assert_eq!(placed.as_slice()[0].value, 102);
//! assert_eq!(placed.as_slice()[3].value, 101);
//! assert!(placed.as_slice()[1].is_null());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compact;
pub mod ct;
pub mod distribute;
pub mod encode;
pub mod expand;
pub mod par;
mod routable;
pub mod sort;

pub use compact::{oblivious_compact, Compaction};
pub use ct::{ct_max_u64, ct_min_u64, Choice, CtSelect};
pub use distribute::oblivious_distribute;
pub use encode::{
    decode_bool, decode_bytes_be, decode_i64, decode_u64, encode_bool, encode_bytes_be, encode_i64,
    encode_u64, MAX_BYTES_WORD,
};
pub use expand::{oblivious_expand, Expansion};
pub use par::{context, with_parallelism, Branch, ParCtx, ParExecutor, ParStats, ScopedThreads};
pub use routable::{Keyed, Routable};
pub use sort::{is_sorted_by_key, Direction};
