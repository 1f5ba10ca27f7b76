//! The for-loop window specification.
//!
//! The paper's syntax (§4.1.1):
//!
//! ```text
//! for(t = initial_value; continue_condition(t); change(t)) {
//!     WindowIs(Stream A, left_end(t), right_end(t));
//!     WindowIs(Stream B, left_end(t), right_end(t));
//! }
//! ```
//!
//! Window ends are *affine in t* — every example in the paper is of the
//! form `a·t + b` with `a ∈ {0, 1}` (constants like `1`, moving ends like
//! `t`, lagged ends like `t - 4`, reversed ends like `ST - t`, i.e.
//! `-t + ST`). [`Bound`] captures the general affine form, which is also
//! what lets us *classify* the resulting window sequence into the
//! paper's taxonomy ([`WindowKind`]) and derive eviction safety.

use tcq_common::{Consistency, TimeDomain, Timestamp};

/// An affine function of the loop variable: `coeff · t + offset`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bound {
    /// Multiplier of `t`.
    pub coeff: i64,
    /// Constant offset.
    pub offset: i64,
}

impl Bound {
    /// The constant bound `offset`.
    pub const fn constant(offset: i64) -> Bound {
        Bound { coeff: 0, offset }
    }

    /// The bound `t + offset`.
    pub const fn t_plus(offset: i64) -> Bound {
        Bound { coeff: 1, offset }
    }

    /// The general affine bound `coeff·t + offset`.
    pub const fn affine(coeff: i64, offset: i64) -> Bound {
        Bound { coeff, offset }
    }

    /// Evaluate at a loop-variable value.
    pub fn eval(&self, t: i64) -> i64 {
        self.coeff.saturating_mul(t).saturating_add(self.offset)
    }
}

/// The for-loop continuation condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopCond {
    /// Run exactly one iteration (the paper writes `t == 0; t = -1`).
    Once,
    /// Continue while `t < limit`.
    Lt(i64),
    /// Continue while `t <= limit`.
    Le(i64),
    /// Run forever (a standing continuous query).
    Forever,
}

impl LoopCond {
    /// Whether iteration continues at `t`.
    pub fn holds(&self, t: i64, iterations_done: u64) -> bool {
        match self {
            LoopCond::Once => iterations_done == 0,
            LoopCond::Lt(limit) => t < *limit,
            LoopCond::Le(limit) => t <= *limit,
            LoopCond::Forever => true,
        }
    }
}

/// One `WindowIs(stream, left, right)` declaration. Ends are inclusive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowIs {
    /// The stream this window applies to (lowercased name).
    pub stream: String,
    /// Left (older) end.
    pub left: Bound,
    /// Right (newer) end.
    pub right: Bound,
}

impl WindowIs {
    /// A window declaration for `stream`.
    pub fn new(stream: impl Into<String>, left: Bound, right: Bound) -> WindowIs {
        WindowIs {
            stream: stream.into().to_ascii_lowercase(),
            left,
            right,
        }
    }

    /// The concrete window `[left, right]` at loop value `t`, as
    /// timestamps in `domain`.
    pub fn at(&self, t: i64, domain: TimeDomain) -> (Timestamp, Timestamp) {
        (
            Timestamp::new(domain, self.left.eval(t)),
            Timestamp::new(domain, self.right.eval(t)),
        )
    }

    /// Classify this window's transition behaviour for a given loop step.
    pub fn kind(&self, loop_step: i64, cond: LoopCond) -> WindowKind {
        if matches!(cond, LoopCond::Once) {
            return WindowKind::Snapshot;
        }
        let l = self.left.coeff * loop_step;
        let r = self.right.coeff * loop_step;
        match (l, r) {
            (0, 0) => WindowKind::Snapshot,
            (0, r) if r > 0 => WindowKind::Landmark,
            (l, r) if l > 0 && r > 0 => {
                // Both ends move forward. "Hop" distance is the left-end
                // movement per iteration; when it exceeds the window size
                // tuples can be skipped, but both are Sliding/Hopping.
                if l == 1 && r == 1 {
                    WindowKind::Sliding
                } else {
                    WindowKind::Hopping
                }
            }
            (l, r) if l < 0 || r < 0 => WindowKind::Backward,
            _ => WindowKind::Custom,
        }
    }

    /// The smallest timestamp that any *current or future* window can
    /// still reference, given the loop value `t` and a non-negative loop
    /// step. Tuples older than this can be evicted (`None` means nothing
    /// may ever be evicted — e.g. a backward-moving window revisits
    /// history).
    pub fn eviction_bound(&self, t: i64, loop_step: i64) -> Option<i64> {
        if loop_step <= 0 || self.left.coeff < 0 || self.right.coeff < 0 {
            // Backward or stationary loops can revisit anything.
            return None;
        }
        if self.left.coeff == 0 {
            // Landmark: the fixed left end is needed forever.
            Some(self.left.offset)
        } else {
            // Forward-moving left end: nothing before the current left
            // end will be referenced again.
            Some(self.left.eval(t))
        }
    }
}

/// The window release rule: is a window right end at tick `right`
/// provably complete, given the stream's high-water tick and its latest
/// punctuation?
///
/// Released iff a strictly later tuple has arrived (`high_water >
/// right` — per-stream timestamps are monotone, so a later tick closes
/// every earlier one) or a punctuation covers it (`punct >= right` — a
/// punctuation at `t` promises no more tuples with tick <= `t`). This
/// single definition is shared by the executor's window driver and the
/// simulation oracle, so the engine and its reference model cannot
/// drift on when an instant fires.
pub fn right_released(right: i64, high_water: i64, punct: i64) -> bool {
    high_water > right || punct >= right
}

/// The consistency-aware release rule for event-time streams.
///
/// [`right_released`]'s `high_water > right` clause bakes in the
/// in-order assumption: a later tick only closes earlier ones when
/// per-stream timestamps are monotone. Once a stream has been observed
/// *disordered* (some tuple arrived below the running high-water mark),
/// that clause becomes a guess — how the two consistency levels differ
/// is precisely whether they still take it:
///
/// * [`Consistency::Watermark`] stops trusting the head on a disordered
///   stream and waits for a watermark/punctuation (`punct >= right`,
///   the only completeness proof left).
/// * [`Consistency::Speculative`] keeps releasing on the head and
///   compensates later arrivals with signed retraction deltas.
///
/// On a stream never seen out of order (`disordered == false`) both
/// levels reduce to [`right_released`] exactly.
pub fn right_released_at(
    right: i64,
    high_water: i64,
    punct: i64,
    disordered: bool,
    consistency: Consistency,
) -> bool {
    match consistency {
        Consistency::Watermark => punct >= right || (!disordered && high_water > right),
        Consistency::Speculative => right_released(right, high_water, punct),
    }
}

/// The paper's window taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowKind {
    /// Executes exactly once over one fixed window.
    Snapshot,
    /// Fixed older end, forward-moving newer end.
    Landmark,
    /// Both ends move forward in unison, one unit per iteration.
    Sliding,
    /// Both ends move forward by more than one unit per iteration (the
    /// window "hops"; with hop > width, parts of the stream are skipped —
    /// §4.1.2).
    Hopping,
    /// A window end moves backward ("windows that move backwards starting
    /// from the present time").
    Backward,
    /// Anything else expressible with affine bounds.
    Custom,
}

/// The for-loop header: `for (t = init; cond; t += step)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForLoop {
    /// Initial loop-variable value.
    pub init: i64,
    /// Continuation condition.
    pub cond: LoopCond,
    /// Per-iteration increment (may be negative for backward queries).
    pub step: i64,
}

impl ForLoop {
    /// A loop running once (snapshot queries).
    pub const fn once() -> ForLoop {
        ForLoop {
            init: 0,
            cond: LoopCond::Once,
            step: -1,
        }
    }

    /// A standing loop from `init`, stepping by 1 forever.
    pub const fn forever_from(init: i64) -> ForLoop {
        ForLoop {
            init,
            cond: LoopCond::Forever,
            step: 1,
        }
    }

    /// Iterate the loop-variable values (possibly unbounded — callers of
    /// a `Forever` loop must `take` what they need).
    pub fn values(&self) -> LoopValues {
        LoopValues {
            next: self.init,
            cond: self.cond,
            step: self.step,
            done: 0,
        }
    }
}

/// Iterator over a for-loop's `t` values.
#[derive(Debug, Clone)]
pub struct LoopValues {
    next: i64,
    cond: LoopCond,
    step: i64,
    done: u64,
}

impl Iterator for LoopValues {
    type Item = i64;

    fn next(&mut self) -> Option<i64> {
        if !self.cond.holds(self.next, self.done) {
            return None;
        }
        let t = self.next;
        self.next = self.next.saturating_add(self.step);
        self.done += 1;
        Some(t)
    }
}

/// A full window sequence: the loop header plus one [`WindowIs`] per
/// stream, evaluated in a time domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowSeq {
    /// The loop header.
    pub header: ForLoop,
    /// One declaration per stream sharing this transition behaviour ("one
    /// for-loop for every group of streams that exhibit the same window
    /// transition behavior").
    pub windows: Vec<WindowIs>,
    /// The time domain the bounds are expressed in.
    pub domain: TimeDomain,
}

impl WindowSeq {
    /// A sequence with a single stream declaration in the logical domain.
    pub fn single(header: ForLoop, window: WindowIs) -> WindowSeq {
        WindowSeq {
            header,
            windows: vec![window],
            domain: TimeDomain::LOGICAL,
        }
    }

    /// The declaration for `stream`, if present.
    pub fn window_for(&self, stream: &str) -> Option<&WindowIs> {
        let stream = stream.to_ascii_lowercase();
        self.windows.iter().find(|w| w.stream == stream)
    }

    /// Iterate `(t, [(stream, left, right)...])` per iteration. Unbounded
    /// for `Forever` loops.
    pub fn iter(&self) -> impl Iterator<Item = (i64, Vec<(String, Timestamp, Timestamp)>)> + '_ {
        self.header.values().map(move |t| {
            let ws = self
                .windows
                .iter()
                .map(|w| {
                    let (l, r) = w.at(t, self.domain);
                    (w.stream.clone(), l, r)
                })
                .collect();
            (t, ws)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Paper example 1: "closing prices for MSFT on the first five days"
    /// — `for (; t==0; t=-1) { WindowIs(CSP, 1, 5); }`
    #[test]
    fn snapshot_query_windows() {
        let seq = WindowSeq::single(
            ForLoop::once(),
            WindowIs::new("csp", Bound::constant(1), Bound::constant(5)),
        );
        let all: Vec<_> = seq.iter().collect();
        assert_eq!(all.len(), 1);
        let (t, ws) = &all[0];
        assert_eq!(*t, 0);
        assert_eq!(ws[0].1, Timestamp::logical(1));
        assert_eq!(ws[0].2, Timestamp::logical(5));
        assert_eq!(
            seq.windows[0].kind(seq.header.step, seq.header.cond),
            WindowKind::Snapshot
        );
    }

    /// Paper example 2 (landmark): `for (t = 101; t <= 1100; t++)
    /// { WindowIs(CSP, 101, t); }`
    #[test]
    fn landmark_query_windows() {
        let header = ForLoop {
            init: 101,
            cond: LoopCond::Le(1100),
            step: 1,
        };
        let w = WindowIs::new("csp", Bound::constant(101), Bound::t_plus(0));
        let seq = WindowSeq::single(header, w.clone());
        let all: Vec<_> = seq.iter().collect();
        assert_eq!(all.len(), 1000);
        assert_eq!(all[0].1[0].1.ticks(), 101);
        assert_eq!(all[0].1[0].2.ticks(), 101);
        assert_eq!(all[999].1[0].2.ticks(), 1100);
        assert_eq!(w.kind(1, header.cond), WindowKind::Landmark);
        // Landmark never evicts past its fixed left end.
        assert_eq!(w.eviction_bound(500, 1), Some(101));
    }

    /// Paper example 3 (sliding, width 5): `WindowIs(c1, t-4, t)`.
    #[test]
    fn sliding_query_windows() {
        let header = ForLoop {
            init: 10,
            cond: LoopCond::Lt(30),
            step: 1,
        };
        let w = WindowIs::new("c1", Bound::t_plus(-4), Bound::t_plus(0));
        assert_eq!(w.kind(1, header.cond), WindowKind::Sliding);
        let (l, r) = w.at(10, TimeDomain::LOGICAL);
        assert_eq!((l.ticks(), r.ticks()), (6, 10));
        // Once t=10 is processed, ticks before 6 are dead.
        assert_eq!(w.eviction_bound(10, 1), Some(6));
    }

    #[test]
    fn hopping_window_classification() {
        // for (t=0; ...; t+=10) { WindowIs(s, t, t+4) } — hop 10, width 5:
        // parts of the stream are skipped (§4.1.2).
        let w = WindowIs::new("s", Bound::t_plus(0), Bound::t_plus(4));
        assert_eq!(w.kind(10, LoopCond::Forever), WindowKind::Hopping);
    }

    #[test]
    fn backward_window_classification_and_no_eviction() {
        // Windows moving backward from the present: WindowIs(s, 100-t, 100-t+9).
        let w = WindowIs::new("s", Bound::affine(-1, 100), Bound::affine(-1, 109));
        assert_eq!(w.kind(1, LoopCond::Forever), WindowKind::Backward);
        assert_eq!(w.eviction_bound(5, 1), None);
    }

    #[test]
    fn loop_values_respect_conditions() {
        let lt: Vec<i64> = ForLoop {
            init: 0,
            cond: LoopCond::Lt(3),
            step: 1,
        }
        .values()
        .collect();
        assert_eq!(lt, vec![0, 1, 2]);
        let once: Vec<i64> = ForLoop::once().values().collect();
        assert_eq!(once, vec![0]);
        let forever: Vec<i64> = ForLoop::forever_from(5).values().take(4).collect();
        assert_eq!(forever, vec![5, 6, 7, 8]);
    }

    #[test]
    fn negative_step_walks_backward() {
        let vals: Vec<i64> = ForLoop {
            init: 10,
            cond: LoopCond::Forever,
            step: -2,
        }
        .values()
        .take(3)
        .collect();
        assert_eq!(vals, vec![10, 8, 6]);
    }

    #[test]
    fn multi_stream_window_seq() {
        // Paper example 4: same window on c1 and c2.
        let header = ForLoop {
            init: 50,
            cond: LoopCond::Lt(70),
            step: 1,
        };
        let seq = WindowSeq {
            header,
            windows: vec![
                WindowIs::new("c1", Bound::t_plus(-4), Bound::t_plus(0)),
                WindowIs::new("c2", Bound::t_plus(-4), Bound::t_plus(0)),
            ],
            domain: TimeDomain::LOGICAL,
        };
        let (t, ws) = seq.iter().next().unwrap();
        assert_eq!(t, 50);
        assert_eq!(ws.len(), 2);
        assert_eq!(ws[0].0, "c1");
        assert_eq!(ws[1].0, "c2");
        assert!(seq.window_for("C2").is_some());
        assert!(seq.window_for("c3").is_none());
    }

    #[test]
    fn bound_eval_saturates() {
        let b = Bound::affine(i64::MAX, 2);
        assert_eq!(b.eval(2), i64::MAX);
    }

    #[test]
    fn release_rule() {
        // A strictly later tuple proves the right end complete...
        assert!(right_released(5, 6, i64::MIN));
        // ...a same-tick tuple does not (ties may still arrive)...
        assert!(!right_released(5, 5, i64::MIN));
        // ...but a punctuation at the right end does: no more tuples
        // with tick <= 5 means tick 5 is closed.
        assert!(right_released(5, 5, 5));
        assert!(!right_released(5, i64::MIN, 4));
        // Consistency-aware rule: identical on ordered streams...
        for c in [Consistency::Watermark, Consistency::Speculative] {
            assert!(right_released_at(5, 6, i64::MIN, false, c));
            assert!(!right_released_at(5, 5, i64::MIN, false, c));
            assert!(right_released_at(5, i64::MIN, 5, false, c));
        }
        // ...but a disordered stream head only releases speculatively.
        assert!(!right_released_at(
            5,
            6,
            i64::MIN,
            true,
            Consistency::Watermark
        ));
        assert!(right_released_at(
            5,
            6,
            i64::MIN,
            true,
            Consistency::Speculative
        ));
        // A watermark releases regardless of disorder.
        assert!(right_released_at(5, 6, 5, true, Consistency::Watermark));
        // No data, no punctuation: never released.
        assert!(!right_released(5, i64::MIN, i64::MIN));
    }
}
