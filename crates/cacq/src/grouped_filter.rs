//! Grouped filters: shared indexes over single-variable predicates.
//!
//! "A grouped filter is an index for single-variable boolean factors over
//! the same attribute. When a new query is inserted into the system, it
//! is decomposed into its individual boolean factors. The single-variable
//! boolean factors are then inserted into appropriate grouped filters."
//!
//! One [`GroupedFilter`] indexes every registered predicate over one
//! column of one stream:
//!
//! * range predicates (`<`, `<=`, `>`, `>=`) live in threshold-sorted
//!   arrays; the satisfied predicates for a value form a *prefix* or
//!   *suffix* of each array, found by binary search — so an evaluation
//!   costs O(log n + matches) instead of O(n);
//! * equality predicates live in a hash table;
//! * inequality (`<>`) predicates live in a short list (rare in
//!   monitoring workloads).
//!
//! The filter reports *satisfied* predicates only (via a callback); the
//! caller counts matches per query and declares a query's stream-side
//! conjunction passed when its match count equals its predicate count.
//! This keeps per-tuple work proportional to the number of satisfied
//! predicates, which is what makes shared processing beat
//! query-at-a-time on selective workloads (experiment E4).

use std::collections::HashMap;
use std::sync::Arc;

use tcq_common::value::KeyRepr;
use tcq_common::{CmpOp, Value};

/// Numeric view of a value for range lists: Int/Float/Bool coerce to
/// f64; timestamps order by ticks. `None` for strings and NULL.
fn as_num(v: &Value) -> Option<f64> {
    match v {
        Value::Ts(t) => Some(t.ticks() as f64),
        other => other
            .as_float()
            .or_else(|| other.as_bool().map(|b| b as i64 as f64)),
    }
}

/// One sorted range list, segregated by threshold type so binary search
/// stays valid even when one column sees mixed-type predicates.
#[derive(Debug, Default)]
struct RangeList {
    /// `(threshold, query slot)`, sorted by threshold ascending.
    nums: Vec<(f64, usize)>,
    /// String thresholds, sorted ascending.
    strs: Vec<(Arc<str>, usize)>,
}

impl RangeList {
    fn insert(&mut self, threshold: Value, query: usize) {
        match &threshold {
            Value::Str(s) => {
                let pos = self.strs.partition_point(|(t, _)| t.as_ref() < s.as_ref());
                self.strs.insert(pos, (s.clone(), query));
            }
            other => {
                // NULL thresholds satisfy nothing; store as NaN which
                // compares false against everything below.
                let x = as_num(other).unwrap_or(f64::NAN);
                let pos = self.nums.partition_point(|(t, _)| *t < x);
                self.nums.insert(pos, (x, query));
            }
        }
    }

    fn remove_query(&mut self, query: usize) -> usize {
        let before = self.nums.len() + self.strs.len();
        self.nums.retain(|(_, q)| *q != query);
        self.strs.retain(|(_, q)| *q != query);
        before - (self.nums.len() + self.strs.len())
    }

    /// Visit queries in the satisfied *suffix*: entries with
    /// `threshold > v` (strict) or `threshold >= v`.
    fn suffix_above(&self, v: &Value, strict: bool, f: &mut impl FnMut(usize)) {
        match v {
            Value::Str(s) => self.suffix_above_str(s, strict, f),
            other => {
                if let Some(x) = as_num(other) {
                    self.suffix_above_num(x, strict, f);
                }
            }
        }
    }

    /// Visit queries in the satisfied *prefix*: entries with
    /// `threshold < v` (strict) or `threshold <= v`.
    fn prefix_below(&self, v: &Value, strict: bool, f: &mut impl FnMut(usize)) {
        match v {
            Value::Str(s) => self.prefix_below_str(s, strict, f),
            other => {
                if let Some(x) = as_num(other) {
                    self.prefix_below_num(x, strict, f);
                }
            }
        }
    }

    /// [`RangeList::suffix_above`] with a pre-coerced numeric view —
    /// the columnar kernels extract the f64 once per value instead of
    /// re-matching the `Value` per list.
    fn suffix_above_num(&self, x: f64, strict: bool, f: &mut impl FnMut(usize)) {
        let start = if strict {
            self.nums.partition_point(|(t, _)| *t <= x)
        } else {
            self.nums.partition_point(|(t, _)| *t < x)
        };
        for (t, q) in &self.nums[start..] {
            if !t.is_nan() {
                f(*q);
            }
        }
    }

    /// [`RangeList::prefix_below`] on the numeric list only.
    fn prefix_below_num(&self, x: f64, strict: bool, f: &mut impl FnMut(usize)) {
        let end = if strict {
            self.nums.partition_point(|(t, _)| *t < x)
        } else {
            self.nums.partition_point(|(t, _)| *t <= x)
        };
        for (t, q) in &self.nums[..end] {
            if !t.is_nan() {
                f(*q);
            }
        }
    }

    /// [`RangeList::suffix_above`] on the string list only.
    fn suffix_above_str(&self, s: &str, strict: bool, f: &mut impl FnMut(usize)) {
        let start = if strict {
            self.strs.partition_point(|(t, _)| t.as_ref() <= s)
        } else {
            self.strs.partition_point(|(t, _)| t.as_ref() < s)
        };
        for (_, q) in &self.strs[start..] {
            f(*q);
        }
    }

    /// [`RangeList::prefix_below`] on the string list only.
    fn prefix_below_str(&self, s: &str, strict: bool, f: &mut impl FnMut(usize)) {
        let end = if strict {
            self.strs.partition_point(|(t, _)| t.as_ref() < s)
        } else {
            self.strs.partition_point(|(t, _)| t.as_ref() <= s)
        };
        for (_, q) in &self.strs[..end] {
            f(*q);
        }
    }
}

/// A grouped filter over one column.
#[derive(Debug, Default)]
pub struct GroupedFilter {
    /// `col < t` predicates: v satisfies the suffix with `t > v`.
    lt: RangeList,
    /// `col <= t`: suffix with `t >= v`.
    le: RangeList,
    /// `col > t`: prefix with `t < v`.
    gt: RangeList,
    /// `col >= t`: prefix with `t <= v`.
    ge: RangeList,
    /// `col = t`.
    eq: HashMap<KeyRepr, Vec<usize>>,
    /// `col <> t` (short list; each entry checked directly).
    ne: Vec<(Value, usize)>,
    /// Number of registered predicates.
    preds: usize,
}

impl GroupedFilter {
    /// An empty grouped filter.
    pub fn new() -> GroupedFilter {
        GroupedFilter::default()
    }

    /// Number of predicates registered.
    pub fn len(&self) -> usize {
        self.preds
    }

    /// True iff no predicates are registered.
    pub fn is_empty(&self) -> bool {
        self.preds == 0
    }

    /// Register `col <op> threshold` for query slot `query`.
    pub fn insert(&mut self, op: CmpOp, threshold: Value, query: usize) {
        match op {
            CmpOp::Lt => self.lt.insert(threshold, query),
            CmpOp::Le => self.le.insert(threshold, query),
            CmpOp::Gt => self.gt.insert(threshold, query),
            CmpOp::Ge => self.ge.insert(threshold, query),
            CmpOp::Eq => self
                .eq
                .entry(threshold.key_bytes())
                .or_default()
                .push(query),
            CmpOp::Ne => self.ne.push((threshold, query)),
        }
        self.preds += 1;
    }

    /// Remove every predicate owned by query slot `query`. Returns how
    /// many were removed.
    pub fn remove_query(&mut self, query: usize) -> usize {
        let mut removed = 0;
        for list in [&mut self.lt, &mut self.le, &mut self.gt, &mut self.ge] {
            removed += list.remove_query(query);
        }
        let before = self.ne.len();
        self.ne.retain(|(_, q)| *q != query);
        removed += before - self.ne.len();
        self.eq.retain(|_, qs| {
            let before = qs.len();
            qs.retain(|&q| q != query);
            removed += before - qs.len();
            !qs.is_empty()
        });
        self.preds -= removed;
        removed
    }

    /// Invoke `f(query_slot)` once per predicate on this column that `v`
    /// satisfies. NULL satisfies nothing (SQL semantics); incomparable
    /// types satisfy nothing (UNKNOWN fails closed).
    pub fn for_each_match(&self, v: &Value, mut f: impl FnMut(usize)) {
        if v.is_null() {
            return;
        }
        // col < t holds when t > v: strict suffix.
        self.lt.suffix_above(v, true, &mut f);
        // col <= t holds when t >= v.
        self.le.suffix_above(v, false, &mut f);
        // col > t holds when t < v: strict prefix.
        self.gt.prefix_below(v, true, &mut f);
        // col >= t holds when t <= v.
        self.ge.prefix_below(v, false, &mut f);
        if let Some(qs) = self.eq.get(&v.key_bytes()) {
            for &q in qs {
                f(q);
            }
        }
        for (t, q) in &self.ne {
            if matches!(
                v.sql_cmp(t),
                Some(std::cmp::Ordering::Less) | Some(std::cmp::Ordering::Greater)
            ) {
                f(*q);
            }
        }
    }

    /// [`GroupedFilter::for_each_match`] for a non-NULL numeric-ish value
    /// from a typed column (Int/Float/Bool): `x` is the caller's
    /// precomputed `as_num` view of `v`, so the four range lists run
    /// their binary searches on a raw f64 with no per-list re-coercion,
    /// and `v` is consulted only for the (exact-typed) equality and
    /// inequality predicates. Matches `for_each_match(v, f)` exactly.
    pub fn for_each_match_num(&self, v: &Value, x: f64, mut f: impl FnMut(usize)) {
        self.lt.suffix_above_num(x, true, &mut f);
        self.le.suffix_above_num(x, false, &mut f);
        self.gt.prefix_below_num(x, true, &mut f);
        self.ge.prefix_below_num(x, false, &mut f);
        if !self.eq.is_empty() {
            if let Some(qs) = self.eq.get(&v.key_bytes()) {
                for &q in qs {
                    f(q);
                }
            }
        }
        for (t, q) in &self.ne {
            if matches!(
                v.sql_cmp(t),
                Some(std::cmp::Ordering::Less) | Some(std::cmp::Ordering::Greater)
            ) {
                f(*q);
            }
        }
    }

    /// [`GroupedFilter::for_each_match`] for a string value from a typed
    /// column: only the string sides of the range lists are walked, and
    /// inequality reduces to exact string comparison (a string never
    /// compares against a non-string threshold). Matches
    /// `for_each_match(&Value::Str(s), f)` exactly.
    pub fn for_each_match_str(&self, s: &Arc<str>, mut f: impl FnMut(usize)) {
        self.lt.suffix_above_str(s, true, &mut f);
        self.le.suffix_above_str(s, false, &mut f);
        self.gt.prefix_below_str(s, true, &mut f);
        self.ge.prefix_below_str(s, false, &mut f);
        if !self.eq.is_empty() {
            if let Some(qs) = self.eq.get(&KeyRepr::Str(s.clone())) {
                for &q in qs {
                    f(q);
                }
            }
        }
        for (t, q) in &self.ne {
            if let Value::Str(ts) = t {
                if ts.as_ref() != s.as_ref() {
                    f(*q);
                }
            }
        }
    }

    /// Collect the satisfied query slots into a vector (testing aid).
    pub fn matches(&self, v: &Value) -> Vec<usize> {
        let mut out = Vec::new();
        self.for_each_match(v, |q| out.push(q));
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_predicates_partition_queries() {
        let mut gf = GroupedFilter::new();
        gf.insert(CmpOp::Gt, Value::Float(50.0), 0); // price > 50
        gf.insert(CmpOp::Gt, Value::Float(100.0), 1); // price > 100
        gf.insert(CmpOp::Lt, Value::Float(80.0), 2); // price < 80
        assert_eq!(gf.len(), 3);
        assert_eq!(gf.matches(&Value::Float(60.0)), vec![0, 2]);
        assert_eq!(gf.matches(&Value::Float(120.0)), vec![0, 1]);
    }

    #[test]
    fn boundary_strictness() {
        let mut gf = GroupedFilter::new();
        gf.insert(CmpOp::Gt, Value::Int(10), 0);
        gf.insert(CmpOp::Ge, Value::Int(10), 1);
        gf.insert(CmpOp::Lt, Value::Int(10), 2);
        gf.insert(CmpOp::Le, Value::Int(10), 3);
        assert_eq!(gf.matches(&Value::Int(10)), vec![1, 3]);
        assert_eq!(gf.matches(&Value::Int(11)), vec![0, 1]);
        assert_eq!(gf.matches(&Value::Int(9)), vec![2, 3]);
    }

    #[test]
    fn equality_and_inequality() {
        let mut gf = GroupedFilter::new();
        gf.insert(CmpOp::Eq, Value::str("MSFT"), 0);
        gf.insert(CmpOp::Eq, Value::str("IBM"), 1);
        gf.insert(CmpOp::Ne, Value::str("MSFT"), 2);
        assert_eq!(gf.matches(&Value::str("MSFT")), vec![0]);
        assert_eq!(gf.matches(&Value::str("AAPL")), vec![2]);
    }

    #[test]
    fn string_range_predicates() {
        let mut gf = GroupedFilter::new();
        gf.insert(CmpOp::Ge, Value::str("M"), 0); // symbols M..Z
        gf.insert(CmpOp::Lt, Value::str("M"), 1); // symbols A..L
        assert_eq!(gf.matches(&Value::str("MSFT")), vec![0]);
        assert_eq!(gf.matches(&Value::str("IBM")), vec![1]);
    }

    #[test]
    fn null_matches_nothing() {
        let mut gf = GroupedFilter::new();
        gf.insert(CmpOp::Gt, Value::Int(1), 0);
        gf.insert(CmpOp::Eq, Value::Int(1), 1);
        gf.insert(CmpOp::Ne, Value::Int(1), 2);
        assert!(gf.matches(&Value::Null).is_empty());
    }

    #[test]
    fn cross_type_matches_nothing() {
        let mut gf = GroupedFilter::new();
        gf.insert(CmpOp::Gt, Value::Int(1), 0);
        gf.insert(CmpOp::Ne, Value::Int(1), 1);
        // A string value against numeric thresholds: UNKNOWN, no match.
        assert!(gf.matches(&Value::str("oops")).is_empty());
        // And numeric values ignore string thresholds.
        let mut gf2 = GroupedFilter::new();
        gf2.insert(CmpOp::Lt, Value::str("zzz"), 0);
        assert!(gf2.matches(&Value::Int(5)).is_empty());
    }

    #[test]
    fn remove_query_drops_all_its_predicates() {
        let mut gf = GroupedFilter::new();
        gf.insert(CmpOp::Gt, Value::Int(1), 0);
        gf.insert(CmpOp::Lt, Value::Int(100), 0);
        gf.insert(CmpOp::Eq, Value::Int(5), 1);
        assert_eq!(gf.remove_query(0), 2);
        assert_eq!(gf.len(), 1);
        assert_eq!(gf.matches(&Value::Int(5)), vec![1]);
    }

    #[test]
    fn mixed_numeric_types_compare() {
        let mut gf = GroupedFilter::new();
        gf.insert(CmpOp::Ge, Value::Float(2.5), 0);
        assert_eq!(gf.matches(&Value::Int(3)), vec![0]);
        assert!(gf.matches(&Value::Int(2)).is_empty());
    }

    #[test]
    fn duplicate_predicates_from_one_query_count_twice() {
        // x > 10 AND x > 20 registered by the same slot: a value of 30
        // satisfies both entries — the caller's conjunction counting
        // relies on seeing two callbacks.
        let mut gf = GroupedFilter::new();
        gf.insert(CmpOp::Gt, Value::Int(10), 7);
        gf.insert(CmpOp::Gt, Value::Int(20), 7);
        assert_eq!(gf.matches(&Value::Int(30)), vec![7, 7]);
        assert_eq!(gf.matches(&Value::Int(15)), vec![7]);
    }

    #[test]
    fn many_queries_scale_with_matches_not_registrations() {
        let mut gf = GroupedFilter::new();
        for q in 0..10_000 {
            gf.insert(CmpOp::Gt, Value::Int(q as i64), q);
        }
        // Value 5: only thresholds 0..=4 match — 5 callbacks, found by
        // binary search, not a 10k walk (asserted behaviourally).
        assert_eq!(gf.matches(&Value::Int(5)).len(), 5);
        assert_eq!(gf.matches(&Value::Int(9_999)).len(), 9_999);
    }

    #[test]
    fn typed_kernels_match_generic_path() {
        let ops = [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
            CmpOp::Eq,
            CmpOp::Ne,
        ];
        let mut gf = GroupedFilter::new();
        let mut x = 99u64;
        for q in 0..120 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(7);
            let op = ops[(x >> 33) as usize % ops.len()];
            // Mix numeric, float, string, and bool thresholds.
            let th = match (x >> 40) % 4 {
                0 => Value::Int(((x >> 45) % 30) as i64),
                1 => Value::Float(((x >> 45) % 30) as f64 / 2.0),
                2 => Value::str(format!("s{:02}", (x >> 45) % 20)),
                _ => Value::Bool((x >> 45).is_multiple_of(2)),
            };
            gf.insert(op, th, q);
        }
        let collect = |run: &dyn Fn(&mut Vec<usize>)| {
            let mut got = Vec::new();
            run(&mut got);
            got.sort_unstable();
            got
        };
        for i in -3i64..33 {
            let v = Value::Int(i);
            let x = as_num(&v).unwrap();
            let want = collect(&|out| gf.for_each_match(&v, |q| out.push(q)));
            let got = collect(&|out| gf.for_each_match_num(&v, x, |q| out.push(q)));
            assert_eq!(got, want, "int {i}");
            let vf = Value::Float(i as f64 / 2.0);
            let xf = as_num(&vf).unwrap();
            let want = collect(&|out| gf.for_each_match(&vf, |q| out.push(q)));
            let got = collect(&|out| gf.for_each_match_num(&vf, xf, |q| out.push(q)));
            assert_eq!(got, want, "float {i}");
        }
        for i in 0..25 {
            let s: Arc<str> = Arc::from(format!("s{i:02}").as_str());
            let v = Value::Str(s.clone());
            let want = collect(&|out| gf.for_each_match(&v, |q| out.push(q)));
            let got = collect(&|out| gf.for_each_match_str(&s, |q| out.push(q)));
            assert_eq!(got, want, "str s{i:02}");
        }
        for b in [true, false] {
            let v = Value::Bool(b);
            let x = as_num(&v).unwrap();
            let want = collect(&|out| gf.for_each_match(&v, |q| out.push(q)));
            let got = collect(&|out| gf.for_each_match_num(&v, x, |q| out.push(q)));
            assert_eq!(got, want, "bool {b}");
        }
    }

    #[test]
    fn brute_force_equivalence() {
        // Randomized predicates vs direct evaluation.
        let ops = [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
            CmpOp::Eq,
            CmpOp::Ne,
        ];
        let mut gf = GroupedFilter::new();
        let mut preds = Vec::new();
        let mut x = 12345u64;
        for q in 0..200 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let op = ops[(x >> 33) as usize % ops.len()];
            let th = ((x >> 40) % 50) as i64;
            gf.insert(op, Value::Int(th), q);
            preds.push((q, op, th));
        }
        for v in -5i64..55 {
            let got = gf.matches(&Value::Int(v));
            let mut want: Vec<usize> = preds
                .iter()
                .filter(|(_, op, th)| op.matches(v.cmp(th)))
                .map(|(q, _, _)| *q)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "value {v}");
        }
    }
}
