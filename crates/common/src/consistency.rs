//! Consistency levels for out-of-order (event-time) streams.
//!
//! Wrappers may deliver tuples whose event timestamps lag the stream
//! head by a bounded disorder. CEDR-style consistency ("Consistent
//! Streaming Through Time") gives each query a choice of how to trade
//! latency against provisional answers:
//!
//! * [`Consistency::Watermark`] — hold a window instant until the
//!   stream's low-watermark (punctuation) passes its right end. Output
//!   is emitted once and never amended; on a disordered stream this is
//!   the only completeness proof, so releases wait for watermarks.
//! * [`Consistency::Speculative`] — emit each instant as soon as the
//!   stream head passes its right end (the in-order assumption, applied
//!   speculatively), then compensate: when a late tuple lands inside an
//!   already-emitted window, re-emit the difference as signed delta
//!   rows (`sign = +1` assertions, `sign = -1` retractions) that
//!   downstream consumers fold into the same final answer.
//!
//! Streams that never arrive out of order behave identically under both
//! levels: the stream head *is* a completeness proof there, so no
//! speculation and no retraction ever happens.

/// Per-query (and engine-default) consistency level; see module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Consistency {
    /// Hold results until the watermark proves them complete.
    #[default]
    Watermark,
    /// Emit speculatively; amend with signed retraction deltas.
    Speculative,
}

impl Consistency {
    /// Parse from a (case-insensitive) keyword, as in CQ-SQL's
    /// `WITH CONSISTENCY <level>` clause and a simulation episode's
    /// `consistency` line.
    pub fn parse(s: &str) -> Option<Consistency> {
        match s.to_ascii_lowercase().as_str() {
            "watermark" => Some(Consistency::Watermark),
            "speculative" => Some(Consistency::Speculative),
            _ => None,
        }
    }

    /// The canonical lowercase token (inverse of [`Consistency::parse`]).
    pub fn name(&self) -> &'static str {
        match self {
            Consistency::Watermark => "watermark",
            Consistency::Speculative => "speculative",
        }
    }
}

impl std::fmt::Display for Consistency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        for c in [Consistency::Watermark, Consistency::Speculative] {
            assert_eq!(Consistency::parse(c.name()), Some(c));
            assert_eq!(Consistency::parse(&c.name().to_uppercase()), Some(c));
        }
        assert_eq!(Consistency::parse("eventual"), None);
    }

    #[test]
    fn default_is_watermark() {
        assert_eq!(Consistency::default(), Consistency::Watermark);
    }
}
