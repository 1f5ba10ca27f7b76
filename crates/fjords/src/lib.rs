//! # tcq-fjords
//!
//! Fjords: the inter-module communication API of Telegraph (§2.3 of the
//! TelegraphCQ paper).
//!
//! "Fjords allow pairs of modules to be connected by various types of
//! queues. For example, a pull-queue is implemented using a blocking
//! dequeue on the consumer side and a blocking enqueue on the producer
//! side. A push-queue is implemented using non-blocking enqueue and
//! dequeue; control is returned to the consumer when the queue is empty.
//! ... Fjords can provide Exchange semantics using a blocking dequeue and
//! a non-blocking enqueue."
//!
//! The central type is [`Fjord<T>`], a bounded MPMC queue offering *both*
//! blocking and non-blocking endpoint operations, plus an end-of-stream
//! (close) signal. Each side picks its modality per call: `try_enqueue` /
//! `try_dequeue` are the push endpoints, `enqueue_blocking` /
//! `dequeue_blocking` the pull endpoints, and a non-blocking enqueue
//! paired with a blocking dequeue is Exchange. A module is written
//! against its own endpoints only, so it is agnostic to what sits on the
//! other end — the property the paper calls out as the key advantage of
//! Fjords.
//!
//! The [`module`] sub-module defines the non-preemptive, state-machine
//! execution discipline ([`DataflowModule`]/[`StepResult`]) that the
//! TelegraphCQ executor's Dispatch Units follow, and [`graph::Dataflow`]
//! is a minimal scheduler for compositions of such modules.

//!
//! ## Example
//!
//! ```
//! use tcq_fjords::{DequeueResult, EnqueueResult, Fjord};
//!
//! let q: Fjord<i32> = Fjord::with_capacity(2);
//! assert!(q.try_enqueue(1).is_ok());
//! assert!(q.try_enqueue(2).is_ok());
//! // Push modality never blocks: a full queue hands the item back.
//! assert_eq!(q.try_enqueue(3), EnqueueResult::Full(3));
//! assert_eq!(q.try_dequeue(), DequeueResult::Item(1));
//! q.close();
//! ```

pub mod graph;
pub mod module;
pub mod queue;

pub use graph::Dataflow;
pub use module::{DataflowModule, StepResult};
pub use queue::{DequeueResult, EnqueueResult, Fjord, FjordStats};
