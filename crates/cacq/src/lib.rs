//! # tcq-cacq
//!
//! CACQ: Continuously Adaptive Continuous Queries — shared processing of
//! many standing queries over the same streams (§3.1 of the TelegraphCQ
//! paper, after Madden, Shah, Hellerstein & Raman \[MSHR02\]).
//!
//! "The key innovation in CACQ is the modification of Eddies to execute
//! multiple queries simultaneously. This is accomplished by essentially
//! having the Eddy execute a single 'super'-query corresponding to the
//! disjunction of all the individual queries posed by the clients of the
//! system. Extra state, called tuple lineage, is maintained with each
//! tuple ... to help determine the clients to which the output ...
//! should be transmitted. Another key feature of CACQ is its use of
//! grouped filters to optimize selections."
//!
//! * [`bitset::QuerySet`] — growable per-tuple lineage bitsets over query
//!   slots.
//! * [`grouped_filter::GroupedFilter`] — "an index for single-variable
//!   boolean factors over the same attribute": range-indexed `<`/`<=`/
//!   `>`/`>=` predicates plus hashed `=` and listed `<>`, answering "which
//!   queries' predicates on this column does value v satisfy" in one pass.
//! * [`engine::CacqEngine`] — the shared super-query executor: queries
//!   (conjunctive selections, optionally a two-stream equi-join) are
//!   decomposed into boolean factors; single-variable factors go into
//!   grouped filters, join factors into shared SteMs; tuples flow through
//!   once, carrying lineage, and outputs are fanned out per query.
//!   Queries can be added and removed while streams flow.

//!
//! ## Example
//!
//! ```
//! use tcq_cacq::{CacqEngine, QuerySpec};
//! use tcq_common::{CmpOp, Tuple, Value};
//!
//! let mut engine = CacqEngine::new();
//! let hot = engine
//!     .add_query(QuerySpec::select(0, vec![(1, CmpOp::Gt, Value::Float(50.0))]))
//!     .unwrap();
//! let cold = engine
//!     .add_query(QuerySpec::select(0, vec![(1, CmpOp::Lt, Value::Float(10.0))]))
//!     .unwrap();
//! let out = engine.push(0, Tuple::at_seq(vec![Value::str("MSFT"), Value::Float(57.0)], 1));
//! assert_eq!(out.len(), 1);
//! assert_eq!(out[0].0, hot);
//! let _ = cold;
//! ```

pub mod bitset;
pub mod engine;
pub mod grouped_filter;

pub use bitset::QuerySet;
pub use engine::{CacqEngine, CacqStats, JoinSpec, QueryId, QuerySpec, Selection};
pub use grouped_filter::GroupedFilter;

#[cfg(test)]
mod tests {
    use super::*;
    use tcq_common::{CmpOp, Tuple, Value};

    /// E4 (§3.1, \[MSHR02\]): grouped filters serve 128 standing range
    /// queries with ≥ 50× fewer predicate evaluations than evaluating
    /// each query per tuple, delivering exactly the same matches.
    #[test]
    fn e4_sharing_cuts_eval_ops() {
        let thresholds: Vec<f64> = (0..128).map(|i| 90.0 + (i % 100) as f64 / 10.0).collect();
        let mut engine = CacqEngine::new();
        for &th in &thresholds {
            let spec = QuerySpec::select(0, vec![(1, CmpOp::Gt, Value::Float(th))]);
            engine.add_query(spec).unwrap();
        }
        let (mut shared, mut per_query) = (0, 0);
        for i in 0..2_000i64 {
            let price = (i * 37 % 100) as f64 + 0.5;
            let t = Tuple::at_seq(vec![Value::str("SYM"), Value::Float(price)], i);
            shared += engine.push(0, t).len();
            per_query += thresholds.iter().filter(|&&th| price > th).count();
        }
        assert_eq!(shared, per_query, "same deliveries");
        assert!(engine.stats().filter_lookups * 50 < 128 * 2_000);
    }
}
