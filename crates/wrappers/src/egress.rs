//! Egress: delivering results to clients (§4.3 "Egress Modules").
//!
//! "Push-based egress operators support interaction where clients are
//! continually streamed query results, while pull-based egress operators
//! may log data and support intermittent retrieval of results."
//!
//! Both modalities share one bounded Fjord per query: the executor
//! [`deliver`]s into it, and the client either streams from it
//! (`try_dequeue` / `dequeue_blocking`) or returns intermittently and
//! fetches the retained backlog (`dequeue_up_to`).

use tcq_fjords::{EnqueueResult, Fjord};

/// Deliver one result into a client's bounded buffer. When the client
/// lags (the buffer is full), the oldest buffered result is shed to make
/// room, so the buffer always holds the newest `capacity` results — the
/// QoS "knob" surface the paper discusses for clients that cannot keep
/// up. A closed buffer (the query was stopped) drops the result.
pub fn deliver<T>(queue: &Fjord<T>, item: T) {
    match queue.try_enqueue(item) {
        EnqueueResult::Ok | EnqueueResult::Closed(_) => {}
        EnqueueResult::Full(item) => {
            let _ = queue.try_dequeue();
            let _ = queue.try_enqueue(item);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcq_common::{Tuple, Value};
    use tcq_fjords::DequeueResult;

    fn t(i: i64) -> Tuple {
        Tuple::at_seq(vec![Value::Int(i)], i)
    }

    #[test]
    fn push_egress_streams_to_client() {
        let client = Fjord::with_capacity(8);
        deliver(&client, t(1));
        deliver(&client, t(2));
        assert_eq!(client.try_dequeue(), DequeueResult::Item(t(1)));
        assert_eq!(client.try_dequeue(), DequeueResult::Item(t(2)));
        assert_eq!(client.try_dequeue(), DequeueResult::Empty);
        client.close();
        deliver(&client, t(3));
        assert_eq!(client.try_dequeue(), DequeueResult::Closed);
    }

    #[test]
    fn push_egress_sheds_oldest_when_client_lags() {
        let client = Fjord::with_capacity(2);
        for i in 1..=5 {
            deliver(&client, t(i));
        }
        // The two newest survive; the three oldest were shed.
        assert_eq!(client.try_dequeue(), DequeueResult::Item(t(4)));
        assert_eq!(client.try_dequeue(), DequeueResult::Item(t(5)));
        assert_eq!(client.try_dequeue(), DequeueResult::Empty);
    }

    #[test]
    fn pull_egress_logs_and_fetches() {
        let log = Fjord::with_capacity(16);
        for i in 1..=5 {
            deliver(&log, t(i));
        }
        assert_eq!(log.len(), 5);
        // A fetch consumes the oldest results first.
        assert_eq!(
            log.dequeue_up_to(3),
            DequeueResult::Item(vec![t(1), t(2), t(3)])
        );
        assert_eq!(log.len(), 2);
        assert_eq!(log.dequeue_up_to(10), DequeueResult::Item(vec![t(4), t(5)]));
        assert!(log.is_empty());
    }

    #[test]
    fn pull_egress_retention_bound() {
        let log = Fjord::with_capacity(3);
        for i in 1..=10 {
            deliver(&log, t(i));
        }
        assert_eq!(log.len(), 3);
        // Seven results were shed to keep the newest three.
        assert_eq!(log.stats().dequeued, 7);
        assert_eq!(
            log.dequeue_up_to(10),
            DequeueResult::Item(vec![t(8), t(9), t(10)])
        );
    }
}
