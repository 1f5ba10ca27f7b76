//! Running queries, result sets, and client handles.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use tcq_common::{Schema, Tuple};
use tcq_fjords::{DequeueResult, Fjord};
use tcq_flux::OrderedMerge;
use tcq_sql::QueryPlan;

/// The egress merge of a partitioned query: one per query, shared by
/// every partition's Execution Object (result offers) and the
/// dispatcher's overload-triage path (empty offers for evicted shares).
/// `None` on a query that lives whole on one EO.
pub type MergeRef = Arc<Mutex<OrderedMerge<Tuple>>>;

/// One delivery to a client: either a batch of streamed results
/// (`window_t == None`) or the complete answer set for one window of the
/// query's for-loop (`window_t == Some(t)`): "the output of a query is
/// presented to the end-user as a sequence of sets, each set being
/// associated with an instant in time" (§4.1.1).
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// The for-loop instant this set belongs to, when windowed.
    pub window_t: Option<i64>,
    /// The projected result rows.
    pub rows: Vec<Tuple>,
}

/// Internal representation of a registered query.
#[derive(Debug, Clone)]
pub struct RunningQuery {
    /// Server-assigned id.
    pub id: u64,
    /// The analyzed plan.
    pub plan: Arc<QueryPlan>,
    /// Global indexes of the streams in the plan's footprint, parallel
    /// to `plan.streams`.
    pub stream_ids: Vec<usize>,
    /// Where results go.
    pub output: Fjord<ResultSet>,
    /// Set when an operator of this query panicked and was quarantined:
    /// the query keeps running, but some batches may be missing from its
    /// answers. Shared with the client's [`QueryHandle`].
    pub degraded: Arc<AtomicBool>,
    /// Present iff the query is partitioned across every EO
    /// (`Config::partitions > 1` and the plan's state shards cleanly):
    /// each partition offers its per-batch results here instead of
    /// delivering directly.
    pub merge: Option<MergeRef>,
}

/// A client's handle to a standing query.
#[derive(Debug)]
pub struct QueryHandle {
    /// Server-assigned query id (use with [`crate::Server::stop_query`]).
    pub id: u64,
    /// The result schema.
    pub schema: Schema,
    output: Fjord<ResultSet>,
    degraded: Arc<AtomicBool>,
}

impl QueryHandle {
    pub(crate) fn new(
        id: u64,
        schema: Schema,
        output: Fjord<ResultSet>,
        degraded: Arc<AtomicBool>,
    ) -> QueryHandle {
        QueryHandle {
            id,
            schema,
            output,
            degraded,
        }
    }

    /// Whether an operator of this query panicked and was quarantined
    /// (see the `tcq$errors` stream for the fault records). A degraded
    /// query keeps producing results, but batches quarantined mid-fault
    /// are missing from them.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Fetch the next result set without blocking; `None` when nothing
    /// is ready (or the query has been stopped and drained).
    pub fn try_next(&self) -> Option<ResultSet> {
        match self.output.try_dequeue() {
            DequeueResult::Item(r) => Some(r),
            _ => None,
        }
    }

    /// Block for the next result set; `None` once the query is stopped
    /// and all buffered results are drained.
    pub fn next_blocking(&self) -> Option<ResultSet> {
        match self.output.dequeue_blocking() {
            DequeueResult::Item(r) => Some(r),
            _ => None,
        }
    }

    /// Drain everything currently buffered.
    pub fn drain(&self) -> Vec<ResultSet> {
        let mut out = Vec::new();
        while let Some(r) = self.try_next() {
            out.push(r);
        }
        out
    }

    /// Whether the query has ended and all results were consumed.
    pub fn is_finished(&self) -> bool {
        self.output.is_finished()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcq_common::Value;
    use tcq_wrappers::egress::deliver;

    fn handle(q: Fjord<ResultSet>) -> QueryHandle {
        QueryHandle::new(
            1,
            Schema::unqualified(vec![]),
            q,
            Arc::new(AtomicBool::new(false)),
        )
    }

    fn rs(i: i64) -> ResultSet {
        ResultSet {
            window_t: Some(i),
            rows: vec![Tuple::at_seq(vec![Value::Int(i)], i)],
        }
    }

    #[test]
    fn handle_drains_in_order() {
        let q: Fjord<ResultSet> = Fjord::with_capacity(8);
        let h = handle(q.clone());
        q.try_enqueue(rs(1));
        q.try_enqueue(rs(2));
        let got = h.drain();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].window_t, Some(1));
        assert!(h.try_next().is_none());
        assert!(!h.is_degraded());
    }

    #[test]
    fn finished_after_close_and_drain() {
        let q: Fjord<ResultSet> = Fjord::with_capacity(8);
        let h = handle(q.clone());
        q.try_enqueue(rs(1));
        q.close();
        assert!(!h.is_finished(), "buffered result still pending");
        assert!(h.next_blocking().is_some());
        assert!(h.next_blocking().is_none());
        assert!(h.is_finished());
    }

    #[test]
    fn deliver_sheds_oldest_under_pressure() {
        let q: Fjord<ResultSet> = Fjord::with_capacity(2);
        for i in 1..=4 {
            deliver(&q, rs(i));
        }
        let h = handle(q);
        let got = h.drain();
        assert_eq!(
            got.iter().map(|r| r.window_t.unwrap()).collect::<Vec<_>>(),
            vec![3, 4]
        );
    }
}
