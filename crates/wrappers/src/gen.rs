//! Deterministic synthetic stream generators.
//!
//! These play the role of the paper's live sources, with the knobs the
//! examples and paper-claim tests need: rate (tuples per poll), key skew
//! (Zipf), and mid-stream distribution drift.

use tcq_common::rng::SplitMix64;
use tcq_common::{Clock, Timestamp, Tuple, Value};

use crate::source::Source;

/// Daily closing stock prices — the paper's running example schema:
/// `(timestamp: INT, stockSymbol: STR, closingPrice: FLOAT)`.
///
/// Each trading day emits one quote per symbol; prices follow a
/// per-symbol random walk. Timestamps are the trading day (logical
/// domain), matching §4.1 ("one entry for every trading day for every
/// stock symbol").
pub struct StockTicker {
    symbols: Vec<&'static str>,
    prices: Vec<f64>,
    rng: SplitMix64,
    day: i64,
    next_symbol: usize,
    max_days: Option<i64>,
}

/// Symbols used by examples and tests.
pub const DEFAULT_SYMBOLS: [&str; 8] =
    ["MSFT", "IBM", "ORCL", "SUNW", "INTC", "AAPL", "DELL", "HPQ"];

impl StockTicker {
    /// A ticker over the default symbols, running forever.
    pub fn new(seed: u64) -> StockTicker {
        StockTicker::with_symbols(seed, DEFAULT_SYMBOLS.to_vec(), None)
    }

    /// A ticker over `symbols`, stopping after `max_days` when given.
    pub fn with_symbols(
        seed: u64,
        symbols: Vec<&'static str>,
        max_days: Option<i64>,
    ) -> StockTicker {
        let n = symbols.len();
        StockTicker {
            symbols,
            prices: vec![50.0; n],
            rng: SplitMix64::new(seed),
            day: 1,
            next_symbol: 0,
            max_days,
        }
    }
}

impl Source for StockTicker {
    fn poll(&mut self, max: usize) -> Vec<Tuple> {
        let mut out = Vec::new();
        while out.len() < max && !self.is_exhausted() {
            let sym = self.symbols[self.next_symbol];
            let price = &mut self.prices[self.next_symbol];
            // Random walk with a floor: +/- up to 2.5%.
            let delta = (self.rng.next_f64() - 0.5) * 0.05 * *price;
            *price = (*price + delta).max(1.0);
            out.push(Tuple::new(
                vec![
                    Value::Int(self.day),
                    Value::str(sym),
                    Value::Float((*price * 100.0).round() / 100.0),
                ],
                Timestamp::logical(self.day),
            ));
            self.next_symbol += 1;
            if self.next_symbol == self.symbols.len() {
                self.next_symbol = 0;
                self.day += 1;
            }
        }
        out
    }

    fn is_exhausted(&self) -> bool {
        self.max_days.is_some_and(|m| self.day > m)
    }

    fn name(&self) -> &str {
        "ClosingStockPrices"
    }
}

/// Network packet headers `(src: INT, dst: INT, port: INT, bytes: INT)`
/// with Zipf-skewed destination addresses — the skewed-key workload for
/// the Flux examples.
pub struct PacketGen {
    rng: SplitMix64,
    clock: Clock,
    /// Inverse-CDF table over destination ranks.
    cdf: Vec<f64>,
    n_keys: usize,
}

impl PacketGen {
    /// Packets over `n_keys` destinations with Zipf parameter `theta`
    /// (0.0 = uniform; 1.0 = heavily skewed).
    pub fn new(seed: u64, n_keys: usize, theta: f64) -> PacketGen {
        let n_keys = n_keys.max(1);
        let mut weights: Vec<f64> = (1..=n_keys).map(|r| 1.0 / (r as f64).powf(theta)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        for w in &mut weights {
            acc += *w / total;
            *w = acc;
        }
        PacketGen {
            rng: SplitMix64::new(seed),
            clock: Clock::logical(),
            cdf: weights,
            n_keys,
        }
    }

    fn sample_key(&mut self) -> i64 {
        let u = self.rng.next_f64();
        // Binary search the CDF.
        let idx = self.cdf.partition_point(|&c| c < u);
        idx.min(self.n_keys - 1) as i64
    }
}

impl Source for PacketGen {
    fn poll(&mut self, max: usize) -> Vec<Tuple> {
        (0..max)
            .map(|_| {
                let dst = self.sample_key();
                let src = self.rng.next_below(1 << 16) as i64;
                let port = [22, 53, 80, 443, 8080][self.rng.next_below(5) as usize];
                let bytes = 40 + self.rng.next_below(1460) as i64;
                Tuple::new(
                    vec![
                        Value::Int(src),
                        Value::Int(dst),
                        Value::Int(port),
                        Value::Int(bytes),
                    ],
                    self.clock.tick(),
                )
            })
            .collect()
    }

    fn is_exhausted(&self) -> bool {
        false
    }

    fn name(&self) -> &str {
        "packets"
    }
}

/// Sensor readings `(sensor_id: INT, reading: FLOAT)`: per-sensor slow
/// sinusoidal drift plus noise.
pub struct SensorGen {
    rng: SplitMix64,
    clock: Clock,
    n_sensors: usize,
    next: usize,
    step: u64,
}

impl SensorGen {
    /// Readings from `n_sensors` sensors, round-robin.
    pub fn new(seed: u64, n_sensors: usize) -> SensorGen {
        SensorGen {
            rng: SplitMix64::new(seed),
            clock: Clock::logical(),
            n_sensors: n_sensors.max(1),
            next: 0,
            step: 0,
        }
    }
}

impl Source for SensorGen {
    fn poll(&mut self, max: usize) -> Vec<Tuple> {
        (0..max)
            .map(|_| {
                let id = self.next;
                self.next = (self.next + 1) % self.n_sensors;
                self.step += 1;
                let phase = self.step as f64 / 500.0 + id as f64;
                let reading = 20.0 + 5.0 * phase.sin() + (self.rng.next_f64() - 0.5);
                Tuple::new(
                    vec![Value::Int(id as i64), Value::Float(reading)],
                    self.clock.tick(),
                )
            })
            .collect()
    }

    fn is_exhausted(&self) -> bool {
        false
    }

    fn name(&self) -> &str {
        "sensors"
    }
}

/// The drifting-selectivity workload of the eddy adaptivity test (E1):
/// tuples `(a: INT, b: INT)` where `a` and `b` are uniform in
/// `[0, 100)`, except that at `switch_at` tuples the distributions swap
/// ranges, flipping which of two threshold filters is selective.
pub struct DriftGen {
    rng: SplitMix64,
    clock: Clock,
    emitted: u64,
    /// After this many tuples, the distributions swap.
    pub switch_at: u64,
}

impl DriftGen {
    /// A generator swapping distributions after `switch_at` tuples.
    pub fn new(seed: u64, switch_at: u64) -> DriftGen {
        DriftGen {
            rng: SplitMix64::new(seed),
            clock: Clock::logical(),
            emitted: 0,
            switch_at,
        }
    }
}

impl Source for DriftGen {
    fn poll(&mut self, max: usize) -> Vec<Tuple> {
        (0..max)
            .map(|_| {
                let swapped = self.emitted >= self.switch_at;
                self.emitted += 1;
                // Phase 1: a is small (filter `a > 90` is selective),
                //          b is large (filter `b > 10` passes most).
                // Phase 2: swapped.
                let small = self.rng.next_below(100) as i64 / 2; // [0, 50)
                let large = 50 + self.rng.next_below(100) as i64 / 2; // [50, 100)
                let (a, b) = if swapped {
                    (large, small)
                } else {
                    (small, large)
                };
                Tuple::new(vec![Value::Int(a), Value::Int(b)], self.clock.tick())
            })
            .collect()
    }

    fn is_exhausted(&self) -> bool {
        false
    }

    fn name(&self) -> &str {
        "drift"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stock_ticker_covers_all_symbols_per_day() {
        let mut g = StockTicker::new(7);
        let rows = g.poll(16);
        assert_eq!(rows.len(), 16);
        // First 8 rows are day 1, one per symbol.
        let day1: Vec<&str> = rows[..8]
            .iter()
            .map(|t| t.field(1).as_str().unwrap())
            .collect();
        assert_eq!(day1, DEFAULT_SYMBOLS.to_vec());
        assert!(rows[..8].iter().all(|t| t.ts().ticks() == 1));
        assert!(rows[8..].iter().all(|t| t.ts().ticks() == 2));
    }

    #[test]
    fn stock_ticker_deterministic_and_bounded() {
        let a: Vec<Tuple> = StockTicker::new(3).poll(100);
        let b: Vec<Tuple> = StockTicker::new(3).poll(100);
        assert_eq!(a, b);
        let mut lim = StockTicker::with_symbols(1, vec!["A"], Some(5));
        assert_eq!(lim.poll(100).len(), 5);
        assert!(lim.is_exhausted());
        assert!(lim.poll(10).is_empty());
    }

    #[test]
    fn stock_prices_stay_positive() {
        let mut g = StockTicker::new(99);
        for t in g.poll(10_000) {
            assert!(t.field(2).as_float().unwrap() >= 1.0);
        }
    }

    #[test]
    fn packet_gen_zipf_skew() {
        let mut uniform = PacketGen::new(5, 100, 0.0);
        let mut skewed = PacketGen::new(5, 100, 1.2);
        let count_top = |g: &mut PacketGen| {
            let mut top = 0;
            for t in g.poll(10_000) {
                if t.field(1).as_int().unwrap() == 0 {
                    top += 1;
                }
            }
            top
        };
        let u = count_top(&mut uniform);
        let s = count_top(&mut skewed);
        assert!(
            s > u * 5,
            "rank-0 key should dominate under skew: uniform={u}, skewed={s}"
        );
    }

    #[test]
    fn sensor_gen_rotates_sensors() {
        let mut g = SensorGen::new(1, 4);
        let rows = g.poll(8);
        let ids: Vec<i64> = rows.iter().map(|t| t.field(0).as_int().unwrap()).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn drift_gen_swaps_distributions() {
        let mut g = DriftGen::new(11, 1000);
        let phase1 = g.poll(1000);
        let phase2 = g.poll(1000);
        let mean_a = |rows: &[Tuple]| {
            rows.iter()
                .map(|t| t.field(0).as_int().unwrap() as f64)
                .sum::<f64>()
                / rows.len() as f64
        };
        assert!(mean_a(&phase1) < 30.0, "a starts small");
        assert!(mean_a(&phase2) > 70.0, "a becomes large after the switch");
    }

    #[test]
    fn generators_stamp_monotone_timestamps() {
        let mut g = PacketGen::new(2, 10, 0.5);
        let rows = g.poll(100);
        for w in rows.windows(2) {
            assert!(w[0].ts() < w[1].ts());
        }
    }
}
