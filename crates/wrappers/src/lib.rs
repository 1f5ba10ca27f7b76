//! # tcq-wrappers
//!
//! Ingress and egress operators (§2.1 "Ingress and Caching" and §4.2.3
//! "Ingress Operators" / §4.3 "Egress Modules" of the TelegraphCQ
//! paper).
//!
//! The paper's wrappers normalize external sources — sensor proxies, the
//! TeSS screen scraper, P2P proxies — into tuple streams hosted in a
//! separate Wrapper process "where they can be accessed in a
//! non-blocking manner (à la Fjords)". Live external feeds are outside a
//! reproduction's reach, so this crate provides (per DESIGN.md §2) the
//! synthetic equivalents that exercise the same code paths:
//!
//! * [`source::Source`] — the non-blocking ingress interface: `poll`
//!   yields whatever is ready, never blocks.
//! * [`gen`] — deterministic workload generators: stock tickers
//!   ([`gen::StockTicker`], the paper's `ClosingStockPrices` schema),
//!   network packets with Zipf-skewed keys ([`gen::PacketGen`], for the
//!   Flux examples), sensor readings ([`gen::SensorGen`]), and a
//!   drifting-selectivity generator ([`gen::DriftGen`], for the eddy
//!   adaptivity test).
//! * [`source::CsvSource`] — a pull source over local files (the "local
//!   file reader" of Figure 1).
//! * [`source::ChannelSource`] / [`source::IterSource`] — push-server
//!   and pull adapters.
//! * [`remote::SimulatedRemoteIndex`] — a latency-injected index over a
//!   local table, implementing [`tcq_stems::IndexSource`]; the stand-in
//!   for "a web lookup form wrapped by TeSS" in the SteM hybrid-join
//!   claim (E3, asserted below).
//! * [`egress`] — push egress (streamed delivery via a Fjord) and pull
//!   egress (logged results fetched on demand).

//!
//! ## Example
//!
//! ```
//! use tcq_wrappers::{Source, StockTicker};
//!
//! let mut ticker = StockTicker::with_symbols(7, vec!["MSFT", "IBM"], Some(3));
//! let quotes = ticker.poll(100);
//! assert_eq!(quotes.len(), 6); // 3 days x 2 symbols
//! assert!(ticker.is_exhausted());
//! ```

pub mod egress;
pub mod gen;
pub mod remote;
pub mod source;

pub use egress::{PullEgress, PushEgress};
pub use gen::{DriftGen, PacketGen, SensorGen, StockTicker};
pub use remote::SimulatedRemoteIndex;
pub use source::{
    ChannelSource, CsvSource, DisorderSource, FlakySource, IterSource, Source, SourceError,
};

#[cfg(test)]
mod tests {
    use super::*;
    use tcq_common::{Tuple, Value};
    use tcq_stems::AsyncIndexJoin;

    /// E3 (§2.2, \[RDH02\]): a SteM caching remote-index answers pays one
    /// lookup per distinct key; without it every probe pays one. Same
    /// join answers either way.
    #[test]
    fn e3_cache_saves_lookups() {
        let run = |cached: bool| {
            let table = (0..50)
                .map(|k| Tuple::at_seq(vec![Value::Int(k), Value::Int(k * 100)], k))
                .collect();
            let index = SimulatedRemoteIndex::new(3, table, &[0], 2, 2);
            let join = AsyncIndexJoin::new(vec![0], vec![0], Box::new(index));
            let mut join = if cached { join } else { join.without_cache() };
            let mut out = 0;
            for i in 0..2_000i64 {
                out += join
                    .push_probe(Tuple::at_seq(vec![Value::Int(i * 7 % 50)], i))
                    .len();
                out += join.poll().len();
            }
            while !join.idle() {
                out += join.poll().len();
            }
            (out, join.stats().index_lookups)
        };
        assert_eq!(run(true), (2_000, 50), "one lookup per key");
        assert_eq!(run(false), (2_000, 2_000), "one lookup per probe");
    }
}
