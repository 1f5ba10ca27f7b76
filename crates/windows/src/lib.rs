//! # tcq-windows
//!
//! The window semantics of TelegraphCQ (§4.1 of the paper).
//!
//! TelegraphCQ generalizes landmark and sliding windows with a *for-loop*
//! construct: a variable `t` moves over the timeline, and each iteration
//! declares, per stream, a window `[left_end(t), right_end(t)]` (ends
//! inclusive) via a `WindowIs` statement. "For every instant in time, a
//! window on a stream defines a set of tuples over which the query is to
//! be executed", so the output of a query is a *sequence of sets*.
//!
//! * [`spec`] — affine window bounds, the for-loop iterator
//!   ([`ForLoop`], [`WindowIs`], [`WindowSeq`]), and window-kind
//!   classification (snapshot / landmark / sliding / hopping / backward).
//! * [`agg`] — incremental window aggregates. The paper's §4.1.2
//!   observation is implemented literally: a landmark `MAX` keeps O(1)
//!   state, while a sliding `MAX` must retain the window (we use a
//!   monotonic deque, so state is O(window) worst-case but per-tuple work
//!   is amortized O(1)).
//! * [`buffer`] — an in-memory, time-indexed tuple buffer implementing
//!   [`WindowSource`], with eviction below a low-water mark; the storage
//!   manager offers a disk-backed implementation of the same trait.

//!
//! ## Example
//!
//! ```
//! use tcq_windows::{AggKind, SlidingAgg, WindowAgg};
//! use tcq_common::{Timestamp, Value};
//!
//! let mut max = SlidingAgg::new(AggKind::Max);
//! for (t, v) in [(1, 5.0), (2, 9.0), (3, 3.0)] {
//!     max.push(Timestamp::logical(t), &Value::Float(v));
//! }
//! assert_eq!(max.value(), Value::Float(9.0));
//! max.evict_before(Timestamp::logical(3)); // slide past the 9.0
//! assert_eq!(max.value(), Value::Float(3.0));
//! ```

pub mod agg;
pub mod buffer;
pub mod spec;

pub use agg::{AggKind, LandmarkAgg, RetractableAgg, SlidingAgg, WindowAgg};
pub use buffer::{VecWindowBuffer, WindowSource};
pub use spec::{
    right_released, right_released_at, Bound, ForLoop, LoopCond, WindowIs, WindowKind, WindowSeq,
};

#[cfg(test)]
mod tests {
    use super::*;
    use tcq_common::{Timestamp, Value};

    /// E8 (§4.1.2): over the same stream a landmark MAX keeps O(1)
    /// state while a 10k-tick sliding MAX retains its window.
    #[test]
    fn e8_state_shapes() {
        let mut landmark = LandmarkAgg::new(AggKind::Max);
        let mut sliding = SlidingAgg::new(AggKind::Max);
        for i in 1..=50_000 {
            let v = Value::Float((i % 997) as f64);
            landmark.push(Timestamp::logical(i), &v);
            sliding.push(Timestamp::logical(i), &v);
            sliding.evict_before(Timestamp::logical(i - 10_000 + 1));
        }
        assert_eq!(landmark.value(), sliding.value());
        assert!(sliding.state_bytes() > landmark.state_bytes() * 100);
    }
}
