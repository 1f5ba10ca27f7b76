//! Symmetric hash join built from two SteMs (Figure 2 of the paper).
//!
//! "When an S tuple arrives, it is first sent as a build tuple to SteM_S
//! and then sent as a probe tuple to SteM_T. ST matches produced from
//! either SteM are routed to the output."
//!
//! The join is fully pipelined and non-blocking \[WA91\]: either side may
//! arrive in any interleaving, and every match is produced exactly once
//! (build-before-probe on the arriving side prevents both duplicate and
//! missed matches). Output tuples are always laid out `left ++ right`,
//! regardless of which side arrived last, so downstream column references
//! are stable. An optional residual predicate (evaluated on the
//! concatenated layout) supports non-equi conjuncts, and window bounds
//! per side provide stream eviction.

use tcq_common::{Expr, Timestamp, Tuple};

use crate::stem::SteM;

/// A two-way symmetric hash join.
#[derive(Debug)]
pub struct SymmetricHashJoin {
    left: SteM,
    right: SteM,
    /// Residual predicate over the concatenated `left ++ right` layout.
    residual: Option<Expr>,
    left_arity: usize,
}

impl SymmetricHashJoin {
    /// A join matching `left_key` columns of left tuples against
    /// `right_key` columns of right tuples. `left_arity` is the arity of
    /// left tuples (needed to lay out concatenated outputs); `residual`
    /// is an extra predicate over the concatenated output layout.
    pub fn new(
        left_key: Vec<usize>,
        right_key: Vec<usize>,
        left_arity: usize,
        residual: Option<Expr>,
    ) -> SymmetricHashJoin {
        SymmetricHashJoin {
            left: SteM::new("left", left_key),
            right: SteM::new("right", right_key),
            residual,
            left_arity,
        }
    }

    /// Number of tuples currently held on the left side.
    pub fn left_len(&self) -> usize {
        self.left.len()
    }

    /// Number of tuples currently held on the right side.
    pub fn right_len(&self) -> usize {
        self.right.len()
    }

    /// Process an arriving left tuple: build left, probe right. Returns
    /// concatenated `left ++ right` matches passing the residual.
    pub fn push_left(&mut self, t: Tuple) -> Vec<Tuple> {
        let probe_cols = self.left.key_cols().to_vec();
        let matches = self.right.probe_tuple(&t, &probe_cols);
        self.left.build(t.clone());
        self.filter_residual(matches.into_iter().map(|r| t.concat(&r)).collect())
    }

    /// Process an arriving right tuple: build right, probe left. Returns
    /// concatenated `left ++ right` matches passing the residual.
    pub fn push_right(&mut self, t: Tuple) -> Vec<Tuple> {
        let probe_cols = self.right.key_cols().to_vec();
        let matches = self.left.probe_tuple(&t, &probe_cols);
        self.right.build(t.clone());
        self.filter_residual(matches.into_iter().map(|l| l.concat(&t)).collect())
    }

    /// Insert a left tuple *without* probing (state installation during
    /// Flux partition movement; probing would re-emit old matches).
    pub fn build_left(&mut self, t: Tuple) {
        self.left.build(t);
    }

    /// Insert a right tuple without probing.
    pub fn build_right(&mut self, t: Tuple) {
        self.right.build(t);
    }

    /// Drain all left-side state in arrival order (partition movement).
    pub fn drain_left(&mut self) -> Vec<Tuple> {
        self.left.drain_all()
    }

    /// Drain all right-side state in arrival order.
    pub fn drain_right(&mut self) -> Vec<Tuple> {
        self.right.drain_all()
    }

    /// Evict tuples older than `bound` from both sides (sliding-window
    /// join maintenance).
    pub fn evict_before(&mut self, bound: Timestamp) -> usize {
        self.left.evict_before(bound) + self.right.evict_before(bound)
    }

    /// Evict each side against its own bound (asymmetric windows).
    pub fn evict_sides(&mut self, left_bound: Timestamp, right_bound: Timestamp) -> usize {
        self.left.evict_before(left_bound) + self.right.evict_before(right_bound)
    }

    /// Arity of left-side tuples.
    pub fn left_arity(&self) -> usize {
        self.left_arity
    }

    fn filter_residual(&self, out: Vec<Tuple>) -> Vec<Tuple> {
        match &self.residual {
            None => out,
            Some(pred) => out
                .into_iter()
                .filter(|t| pred.eval_pred(t).unwrap_or(false))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcq_common::{CmpOp, Value};

    fn l(key: i64, v: &str, seq: i64) -> Tuple {
        Tuple::at_seq(vec![Value::Int(key), Value::str(v)], seq)
    }

    fn r(key: i64, w: f64, seq: i64) -> Tuple {
        Tuple::at_seq(vec![Value::Int(key), Value::Float(w)], seq)
    }

    #[test]
    fn basic_equijoin_both_arrival_orders() {
        let mut j = SymmetricHashJoin::new(vec![0], vec![0], 2, None);
        assert!(j.push_left(l(1, "a", 1)).is_empty());
        let out = j.push_right(r(1, 9.0, 2));
        assert_eq!(out.len(), 1);
        assert_eq!(
            out[0].fields(),
            &[
                Value::Int(1),
                Value::str("a"),
                Value::Int(1),
                Value::Float(9.0)
            ]
        );
        // Now the reverse order for a different key.
        assert!(j.push_right(r(2, 8.0, 3)).is_empty());
        let out2 = j.push_left(l(2, "b", 4));
        assert_eq!(out2.len(), 1);
        // Layout is still left ++ right.
        assert_eq!(out2[0].field(1), &Value::str("b"));
        assert_eq!(out2[0].field(3), &Value::Float(8.0));
    }

    #[test]
    fn every_match_exactly_once_under_interleaving() {
        // 3 left and 2 right tuples with the same key => 6 matches total,
        // no matter the interleaving.
        let mut j = SymmetricHashJoin::new(vec![0], vec![0], 1, None);
        let mut total = 0;
        total += j.push_left(l(7, "x", 1)).len();
        total += j.push_right(r(7, 1.0, 2)).len();
        total += j.push_left(l(7, "y", 3)).len();
        total += j.push_left(l(7, "z", 4)).len();
        total += j.push_right(r(7, 2.0, 5)).len();
        assert_eq!(total, 6);
    }

    #[test]
    fn no_self_match_on_single_tuple() {
        let mut j = SymmetricHashJoin::new(vec![0], vec![0], 1, None);
        assert!(j.push_left(l(1, "a", 1)).is_empty());
        assert!(
            j.push_left(l(1, "b", 2)).is_empty(),
            "same side never joins itself"
        );
    }

    #[test]
    fn residual_predicate_filters() {
        // Join on key, keep only right.w > 5.0 (column 3 in concat layout).
        let residual = Expr::col(3).cmp(CmpOp::Gt, Expr::lit(5.0f64));
        let mut j = SymmetricHashJoin::new(vec![0], vec![0], 2, Some(residual));
        j.push_left(l(1, "a", 1));
        assert_eq!(j.push_right(r(1, 4.0, 2)).len(), 0);
        assert_eq!(j.push_right(r(1, 6.0, 3)).len(), 1);
    }

    #[test]
    fn eviction_prunes_matches() {
        let mut j = SymmetricHashJoin::new(vec![0], vec![0], 1, None);
        j.push_left(l(1, "old", 1));
        j.push_left(l(1, "new", 10));
        j.evict_before(Timestamp::logical(5));
        assert_eq!(j.left_len(), 1);
        let out = j.push_right(r(1, 0.0, 11));
        assert_eq!(out.len(), 1, "only the in-window left tuple matches");
    }

    #[test]
    fn asymmetric_eviction() {
        let mut j = SymmetricHashJoin::new(vec![0], vec![0], 1, None);
        j.push_left(l(1, "a", 1));
        j.push_right(r(1, 1.0, 1));
        j.evict_sides(Timestamp::logical(100), Timestamp::logical(0));
        assert_eq!(j.left_len(), 0);
        assert_eq!(j.right_len(), 1);
    }

    #[test]
    fn matches_reference_nested_loop_join() {
        // Property-style cross-check on a deterministic workload.
        let mut lefts = Vec::new();
        let mut rights = Vec::new();
        for i in 0..40i64 {
            lefts.push(l(i % 5, "L", i));
            rights.push(r(i % 7, i as f64, i + 100));
        }
        let mut j = SymmetricHashJoin::new(vec![0], vec![0], 2, None);
        let mut got = 0usize;
        // Interleave pushes.
        for i in 0..40 {
            got += j.push_left(lefts[i].clone()).len();
            got += j.push_right(rights[i].clone()).len();
        }
        let expected = lefts
            .iter()
            .flat_map(|a| rights.iter().map(move |b| (a, b)))
            .filter(|(a, b)| a.field(0).sql_eq(b.field(0)))
            .count();
        assert_eq!(got, expected);
    }
}
