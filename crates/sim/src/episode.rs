//! The replayable simulation unit and its plain-text serialization.
//!
//! An [`Episode`] is everything a run depends on: the root seed (which
//! drives the engine's eddy lotteries, shed sampling, and backoff
//! jitter via `SplitMix64::derive`), the engine knobs that shape
//! overload behaviour, the CQ-SQL query set, and a totally ordered
//! [`Step`] schedule interleaving the input trace with chaos actions.
//! Running the same episode twice produces byte-identical engine output
//! (the property `check_episode` asserts), so a failing episode is a
//! complete bug report — the corpus under `tests/sim_corpus/` is a set
//! of these files.
//!
//! The serialization is a deliberately simple line format (no external
//! dependencies, diff-friendly, hand-editable while shrinking):
//!
//! ```text
//! # tcq-sim episode
//! seed 42
//! policy sample 0.5
//! batch 4
//! queue 8
//! flux 20
//! query SELECT day, price FROM quotes WHERE price > 10.0
//! step row quotes 3 i:3 s:msft f:52.5
//! step punct quotes 64
//! step panic 0
//! step source sensors 7 0.25 2
//! srow 1 i:1 i:4 f:2.5
//! srow 2 i:2 i:4 f:3.5
//! step wrapper 5
//! step settle
//! ```
//!
//! Floats round-trip exactly through Rust's shortest-representation
//! `Display`; strings are restricted to non-whitespace tokens (the
//! generator only emits such).

use tcq::FaultKind;
use tcq_common::{Consistency, Durability, OnStorageError, ShedPolicy, Value};

/// Rows an attached flaky source will deliver: `(ticks, fields)` in
/// nondecreasing tick order.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceSpec {
    /// Stream the source feeds.
    pub stream: String,
    /// Seed of the `FlakySource` wrapper's own failure draw.
    pub seed: u64,
    /// Probability a poll fails transiently.
    pub fail_rate: f64,
    /// The underlying rows.
    pub rows: Vec<(i64, Vec<Value>)>,
}

/// One schedule entry. The schedule is executed strictly in order; all
/// engine progress happens inside `Wrapper` and `Settle` steps, so the
/// interleaving of data and chaos is part of the episode identity.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// Push one tuple at an explicit logical tick.
    Row {
        stream: String,
        ticks: i64,
        fields: Vec<Value>,
    },
    /// Punctuate a stream: no rows at or before `ticks` remain.
    Punctuate { stream: String, ticks: i64 },
    /// Arm an operator panic in the `query`-th submitted query; its
    /// next batch (or window evaluation) is quarantined.
    Panic { query: usize },
    /// Attach a `FlakySource` over the given rows.
    Source(SourceSpec),
    /// Run `rounds` Wrapper poll rounds (virtual milliseconds) without
    /// quiescing the Execution Objects — sources poll and backlog
    /// builds.
    Wrapper { rounds: u64 },
    /// Run the engine to quiescence (wrapper + every EO), then drain
    /// all query handles. Every settle is a quiesce point at which the
    /// driver asserts the Fjord conservation invariant.
    Settle,
    /// Crash the whole server (drop it without shutdown, exactly as a
    /// process kill leaves the disk) and reboot it from the same
    /// archive directory: re-register streams, re-submit queries, then
    /// replay the WAL via `Server::recover`. Requires the episode's
    /// `durability` to be on; any result sets collected before the
    /// crash are discarded (the recovered incarnation regenerates the
    /// entire result stream).
    Crash,
    /// Arm a counted storage fault on the WAL's injectable I/O layer:
    /// after `after` matching operations succeed, the next `count` of
    /// them fail, then the fault heals. Requires the episode's
    /// `durability` to be on (there is no WAL I/O to fault otherwise).
    /// The engine must either heal (byte-exact oracle equality) or
    /// declare degradation with exact loss accounting — the driver
    /// asserts both.
    DiskFault {
        kind: FaultKind,
        after: u32,
        count: u32,
    },
    /// Declare a stream event-time disordered with the given bound:
    /// its `Row` ticks may regress below the running maximum by up to
    /// `bound`, and any source attached to it is wrapped in a
    /// `DisorderSource` (seeded bounded shuffle plus low-watermarks).
    /// The declaration is boot-scoped — the driver collects every
    /// `Disorder` step and issues `Server::declare_disordered` for its
    /// stream at every boot (including crash reboots), *before* any
    /// data, because a `Watermark`-level query must never release a
    /// window on the high-water mark that a straggler could still
    /// amend. The step's schedule position therefore only marks where
    /// the generator started shuffling.
    Disorder { stream: String, bound: i64 },
}

/// A complete replayable episode.
#[derive(Debug, Clone, PartialEq)]
pub struct Episode {
    /// Root seed: `Config::seed`, so eddy lotteries, shed sampling and
    /// wrapper backoff jitter all derive from it.
    pub seed: u64,
    /// Engine-wide overload policy.
    pub policy: ShedPolicy,
    /// Pipeline batch size.
    pub batch_size: usize,
    /// EO input queue capacity (small values make shedding reachable).
    pub input_queue: usize,
    /// Steps of the embedded Flux chaos schedule (0 = none): a seeded
    /// kill/restart/rebalance run against a replicated cluster whose
    /// conservation invariants are self-checked by the driver.
    pub flux_steps: u64,
    /// EO partition count (`Config::partitions`). 1 — the default, and
    /// what episodes without a `partitions` line parse to — is the
    /// single-partition engine; > 1 shards every stream through the
    /// thread-backed Flux exchange, which must be invisible here: the
    /// run stays a pure function of the episode and the oracle diff is
    /// unchanged.
    pub partitions: usize,
    /// Durability mode (`Config::durability`). `Off` — the default, and
    /// what episodes without a `durability` line parse to — runs without
    /// a WAL; `Buffered`/`Fsync` log every admit and make `step crash`
    /// legal. Like partitioning, durability must be invisible to the
    /// oracle diff when no crash fires.
    pub durability: Durability,
    /// Columnar execution override (`Config::columnar`). `None` — the
    /// default, and what episodes without a `columnar` line parse to —
    /// inherits the engine default; `Some(_)` pins it, letting corpus
    /// files and the recovery sweep exercise both paths explicitly.
    pub columnar: Option<bool>,
    /// Storage-failure policy (`Config::on_storage_error`). `None` —
    /// the default, and what episodes without an `onerror` line parse
    /// to — inherits the engine default (`Degrade`); `Some(Halt)` makes
    /// a persistent disk fault drive the read-only admission gate.
    pub on_storage_error: Option<OnStorageError>,
    /// Default consistency level for the episode's queries
    /// (`Config::consistency`). `None` — the default, and what episodes
    /// without a `consistency` line parse to — inherits the engine
    /// default; `Some(_)` pins it. Queries carrying their own
    /// `WITH CONSISTENCY` clause override it per query either way.
    pub consistency: Option<Consistency>,
    /// CQ-SQL queries, submitted in order before the schedule runs.
    pub queries: Vec<String>,
    /// The schedule.
    pub steps: Vec<Step>,
}

impl Episode {
    /// A tick safely past every row and punctuation in the episode —
    /// the driver's final punctuation, closing all standing windows.
    pub fn horizon(&self) -> i64 {
        let mut max = 0i64;
        for s in &self.steps {
            match s {
                Step::Row { ticks, .. } | Step::Punctuate { ticks, .. } => max = max.max(*ticks),
                Step::Source(src) => {
                    for (t, _) in &src.rows {
                        max = max.max(*t);
                    }
                }
                _ => {}
            }
        }
        max + 1_000
    }

    /// Event-time disorder declarations: stream name → largest declared
    /// bound, collected from every [`Step::Disorder`] in the schedule.
    /// Boot-scoped (see the step's docs), so the collection ignores
    /// schedule position.
    pub fn disorder_declarations(&self) -> std::collections::BTreeMap<String, i64> {
        let mut out = std::collections::BTreeMap::new();
        for s in &self.steps {
            if let Step::Disorder { stream, bound } = s {
                let e = out.entry(stream.clone()).or_insert(*bound);
                *e = (*e).max(*bound);
            }
        }
        out
    }

    /// True iff any stream is declared event-time disordered.
    pub fn has_disorder(&self) -> bool {
        self.steps
            .iter()
            .any(|s| matches!(s, Step::Disorder { .. }))
    }

    /// The metamorphic twin of a disordered episode: each disordered
    /// stream's `Row` ticks are re-sorted into event-time order across
    /// that stream's existing schedule slots (a stable sort, so the
    /// interleaving with other streams and with chaos steps is
    /// untouched), and the disorder declarations are dropped — which
    /// also unwraps any `DisorderSource`. The twin delivers the same
    /// multiset of (tick, fields) per stream, merely in order; both
    /// runs must fold to the same final answers.
    pub fn in_order(&self) -> Episode {
        let mut ep = self.clone();
        for stream in self.disorder_declarations().keys() {
            let slots: Vec<usize> = ep
                .steps
                .iter()
                .enumerate()
                .filter(|(_, s)| matches!(s, Step::Row { stream: st, .. } if st == stream))
                .map(|(i, _)| i)
                .collect();
            let mut rows: Vec<(i64, Vec<Value>)> = slots
                .iter()
                .map(|&i| match &ep.steps[i] {
                    Step::Row { ticks, fields, .. } => (*ticks, fields.clone()),
                    _ => unreachable!("slots hold Row steps"),
                })
                .collect();
            rows.sort_by_key(|(t, _)| *t);
            for (&i, (ticks, fields)) in slots.iter().zip(rows) {
                ep.steps[i] = Step::Row {
                    stream: stream.clone(),
                    ticks,
                    fields,
                };
            }
        }
        ep.steps.retain(|s| !matches!(s, Step::Disorder { .. }));
        ep
    }

    /// Serialize to the line format (inverse of [`Episode::parse`]).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("# tcq-sim episode\n");
        let _ = writeln!(out, "seed {}", self.seed);
        let policy = match self.policy {
            ShedPolicy::Block => "block".to_string(),
            ShedPolicy::DropNewest => "dropnewest".to_string(),
            ShedPolicy::DropOldest => "dropoldest".to_string(),
            ShedPolicy::Sample { rate } => format!("sample {rate}"),
            ShedPolicy::Spill => "spill".to_string(),
        };
        let _ = writeln!(out, "policy {policy}");
        let _ = writeln!(out, "batch {}", self.batch_size);
        let _ = writeln!(out, "queue {}", self.input_queue);
        let _ = writeln!(out, "flux {}", self.flux_steps);
        // Only non-default partition counts are written, so pre-existing
        // episodes render byte-stably.
        if self.partitions != 1 {
            let _ = writeln!(out, "partitions {}", self.partitions);
        }
        if !self.durability.is_off() {
            let _ = writeln!(out, "durability {}", self.durability.name());
        }
        if let Some(columnar) = self.columnar {
            let _ = writeln!(out, "columnar {}", columnar as u8);
        }
        if let Some(policy) = self.on_storage_error {
            let _ = writeln!(out, "onerror {}", policy.name());
        }
        if let Some(level) = self.consistency {
            let _ = writeln!(out, "consistency {}", level.name());
        }
        for q in &self.queries {
            let _ = writeln!(out, "query {}", q.replace('\n', " "));
        }
        for s in &self.steps {
            match s {
                Step::Row {
                    stream,
                    ticks,
                    fields,
                } => {
                    let _ = writeln!(out, "step row {stream} {ticks} {}", encode_fields(fields));
                }
                Step::Punctuate { stream, ticks } => {
                    let _ = writeln!(out, "step punct {stream} {ticks}");
                }
                Step::Panic { query } => {
                    let _ = writeln!(out, "step panic {query}");
                }
                Step::Source(src) => {
                    let _ = writeln!(
                        out,
                        "step source {} {} {} {}",
                        src.stream,
                        src.seed,
                        src.fail_rate,
                        src.rows.len()
                    );
                    for (t, fields) in &src.rows {
                        let _ = writeln!(out, "srow {t} {}", encode_fields(fields));
                    }
                }
                Step::Wrapper { rounds } => {
                    let _ = writeln!(out, "step wrapper {rounds}");
                }
                Step::Settle => {
                    let _ = writeln!(out, "step settle");
                }
                Step::Crash => {
                    let _ = writeln!(out, "step crash");
                }
                Step::DiskFault { kind, after, count } => {
                    let _ = writeln!(out, "step diskfault {} {after} {count}", kind.name());
                }
                Step::Disorder { stream, bound } => {
                    let _ = writeln!(out, "step disorder {stream} {bound}");
                }
            }
        }
        out
    }

    /// Parse the line format produced by [`Episode::render`].
    pub fn parse(text: &str) -> Result<Episode, String> {
        let mut ep = Episode {
            seed: 0,
            policy: ShedPolicy::Block,
            batch_size: 1,
            input_queue: 4096,
            flux_steps: 0,
            partitions: 1,
            durability: Durability::Off,
            columnar: None,
            on_storage_error: None,
            consistency: None,
            queries: Vec::new(),
            steps: Vec::new(),
        };
        let mut pending_srows = 0usize;
        for (ln, raw) in text.lines().enumerate() {
            let line = raw.trim();
            let err = |msg: &str| format!("line {}: {msg}: {raw}", ln + 1);
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut it = line.split_whitespace();
            let head = it.next().unwrap();
            if head == "srow" {
                if pending_srows == 0 {
                    return Err(err("srow outside a source step"));
                }
                pending_srows -= 1;
                let t: i64 = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err("bad srow tick"))?;
                let fields = decode_fields(it).map_err(|m| err(&m))?;
                match ep.steps.last_mut() {
                    Some(Step::Source(src)) => src.rows.push((t, fields)),
                    _ => return Err(err("srow outside a source step")),
                }
                continue;
            }
            if pending_srows > 0 {
                return Err(err("source step truncated (missing srow lines)"));
            }
            match head {
                "seed" => {
                    ep.seed = it
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| err("bad seed"))?;
                }
                "policy" => {
                    ep.policy = match it.next() {
                        Some("block") => ShedPolicy::Block,
                        Some("dropnewest") => ShedPolicy::DropNewest,
                        Some("dropoldest") => ShedPolicy::DropOldest,
                        Some("spill") => ShedPolicy::Spill,
                        Some("sample") => ShedPolicy::Sample {
                            rate: it
                                .next()
                                .and_then(|s| s.parse().ok())
                                .ok_or_else(|| err("sample needs a rate"))?,
                        },
                        _ => return Err(err("unknown policy")),
                    };
                }
                "batch" => {
                    ep.batch_size = it
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| err("bad batch"))?;
                }
                "queue" => {
                    ep.input_queue = it
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| err("bad queue"))?;
                }
                "flux" => {
                    ep.flux_steps = it
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| err("bad flux"))?;
                }
                "partitions" => {
                    ep.partitions = it
                        .next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&p| p >= 1)
                        .ok_or_else(|| err("bad partitions"))?;
                }
                "durability" => {
                    ep.durability = it
                        .next()
                        .and_then(Durability::parse)
                        .ok_or_else(|| err("bad durability"))?;
                }
                "columnar" => {
                    ep.columnar = match it.next() {
                        Some("0") => Some(false),
                        Some("1") => Some(true),
                        _ => return Err(err("bad columnar (0 or 1)")),
                    };
                }
                "onerror" => {
                    ep.on_storage_error = Some(
                        it.next()
                            .and_then(OnStorageError::parse)
                            .ok_or_else(|| err("bad onerror (degrade or halt)"))?,
                    );
                }
                "consistency" => {
                    ep.consistency = Some(
                        it.next()
                            .and_then(Consistency::parse)
                            .ok_or_else(|| err("bad consistency (watermark or speculative)"))?,
                    );
                }
                "query" => {
                    let sql = line["query".len()..].trim().to_string();
                    if sql.is_empty() {
                        return Err(err("empty query"));
                    }
                    ep.queries.push(sql);
                }
                "step" => match it.next() {
                    Some("row") => {
                        let stream = it.next().ok_or_else(|| err("row needs a stream"))?;
                        let ticks: i64 = it
                            .next()
                            .and_then(|s| s.parse().ok())
                            .ok_or_else(|| err("bad row tick"))?;
                        let fields = decode_fields(it).map_err(|m| err(&m))?;
                        ep.steps.push(Step::Row {
                            stream: stream.to_string(),
                            ticks,
                            fields,
                        });
                    }
                    Some("punct") => {
                        let stream = it.next().ok_or_else(|| err("punct needs a stream"))?;
                        let ticks: i64 = it
                            .next()
                            .and_then(|s| s.parse().ok())
                            .ok_or_else(|| err("bad punct tick"))?;
                        ep.steps.push(Step::Punctuate {
                            stream: stream.to_string(),
                            ticks,
                        });
                    }
                    Some("panic") => {
                        let query: usize = it
                            .next()
                            .and_then(|s| s.parse().ok())
                            .ok_or_else(|| err("bad panic index"))?;
                        ep.steps.push(Step::Panic { query });
                    }
                    Some("source") => {
                        let stream = it.next().ok_or_else(|| err("source needs a stream"))?;
                        let seed: u64 = it
                            .next()
                            .and_then(|s| s.parse().ok())
                            .ok_or_else(|| err("bad source seed"))?;
                        let fail_rate: f64 = it
                            .next()
                            .and_then(|s| s.parse().ok())
                            .ok_or_else(|| err("bad source fail_rate"))?;
                        pending_srows = it
                            .next()
                            .and_then(|s| s.parse().ok())
                            .ok_or_else(|| err("bad source row count"))?;
                        ep.steps.push(Step::Source(SourceSpec {
                            stream: stream.to_string(),
                            seed,
                            fail_rate,
                            rows: Vec::new(),
                        }));
                    }
                    Some("wrapper") => {
                        let rounds: u64 = it
                            .next()
                            .and_then(|s| s.parse().ok())
                            .ok_or_else(|| err("bad wrapper rounds"))?;
                        ep.steps.push(Step::Wrapper { rounds });
                    }
                    Some("settle") => ep.steps.push(Step::Settle),
                    Some("crash") => ep.steps.push(Step::Crash),
                    Some("diskfault") => {
                        let kind = it
                            .next()
                            .and_then(FaultKind::parse)
                            .ok_or_else(|| err("bad diskfault kind"))?;
                        let after: u32 = it
                            .next()
                            .and_then(|s| s.parse().ok())
                            .ok_or_else(|| err("bad diskfault after"))?;
                        let count: u32 = it
                            .next()
                            .and_then(|s| s.parse().ok())
                            .ok_or_else(|| err("bad diskfault count"))?;
                        ep.steps.push(Step::DiskFault { kind, after, count });
                    }
                    Some("disorder") => {
                        let stream = it.next().ok_or_else(|| err("disorder needs a stream"))?;
                        let bound: i64 = it
                            .next()
                            .and_then(|s| s.parse().ok())
                            .filter(|&b| b >= 1)
                            .ok_or_else(|| err("bad disorder bound"))?;
                        ep.steps.push(Step::Disorder {
                            stream: stream.to_string(),
                            bound,
                        });
                    }
                    _ => return Err(err("unknown step")),
                },
                _ => return Err(err("unknown directive")),
            }
        }
        if pending_srows > 0 {
            return Err("source step truncated at end of file".into());
        }
        Ok(ep)
    }
}

fn encode_fields(fields: &[Value]) -> String {
    fields
        .iter()
        .map(|v| match v {
            Value::Int(i) => format!("i:{i}"),
            Value::Float(f) => format!("f:{f}"),
            Value::Str(s) => format!("s:{s}"),
            Value::Bool(b) => format!("b:{b}"),
            Value::Null => "null".to_string(),
            Value::Ts(t) => format!("t:{}", t.ticks()),
        })
        .collect::<Vec<_>>()
        .join(" ")
}

fn decode_fields<'a>(it: impl Iterator<Item = &'a str>) -> Result<Vec<Value>, String> {
    let mut out = Vec::new();
    for tok in it {
        let v = if tok == "null" {
            Value::Null
        } else if let Some(rest) = tok.strip_prefix("i:") {
            Value::Int(rest.parse().map_err(|_| format!("bad int {tok}"))?)
        } else if let Some(rest) = tok.strip_prefix("f:") {
            Value::Float(rest.parse().map_err(|_| format!("bad float {tok}"))?)
        } else if let Some(rest) = tok.strip_prefix("s:") {
            Value::str(rest)
        } else if let Some(rest) = tok.strip_prefix("b:") {
            Value::Bool(rest.parse().map_err(|_| format!("bad bool {tok}"))?)
        } else if let Some(rest) = tok.strip_prefix("t:") {
            Value::Ts(tcq_common::Timestamp::logical(
                rest.parse().map_err(|_| format!("bad ts {tok}"))?,
            ))
        } else {
            return Err(format!("unknown value token {tok}"));
        };
        out.push(v);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_episode() -> Episode {
        Episode {
            seed: 42,
            policy: ShedPolicy::Sample { rate: 0.5 },
            batch_size: 4,
            input_queue: 8,
            flux_steps: 20,
            partitions: 4,
            durability: Durability::Buffered,
            columnar: Some(false),
            on_storage_error: Some(OnStorageError::Halt),
            consistency: Some(Consistency::Speculative),
            queries: vec!["SELECT day FROM quotes WHERE price > 10.0".into()],
            steps: vec![
                Step::Disorder {
                    stream: "quotes".into(),
                    bound: 3,
                },
                Step::Crash,
                Step::DiskFault {
                    kind: FaultKind::ShortWrite,
                    after: 2,
                    count: 1,
                },
                Step::Row {
                    stream: "quotes".into(),
                    ticks: 3,
                    fields: vec![Value::Int(3), Value::str("msft"), Value::Float(52.5)],
                },
                Step::Source(SourceSpec {
                    stream: "sensors".into(),
                    seed: 7,
                    fail_rate: 0.25,
                    rows: vec![(1, vec![Value::Int(1), Value::Int(4), Value::Float(2.5)])],
                }),
                Step::Wrapper { rounds: 5 },
                Step::Panic { query: 0 },
                Step::Punctuate {
                    stream: "quotes".into(),
                    ticks: 64,
                },
                Step::Settle,
            ],
        }
    }

    #[test]
    fn render_parse_round_trips() {
        let ep = sample_episode();
        let text = ep.render();
        let back = Episode::parse(&text).unwrap();
        assert_eq!(ep, back);
        // And rendering the parsed episode is byte-stable.
        assert_eq!(text, back.render());
    }

    #[test]
    fn floats_round_trip_exactly() {
        let vals = vec![
            Value::Float(0.1),
            Value::Float(1.0 / 3.0),
            Value::Float(-52.5),
            Value::Float(1e300),
        ];
        let enc = encode_fields(&vals);
        let dec = decode_fields(enc.split_whitespace()).unwrap();
        assert_eq!(vals, dec, "shortest-repr Display round-trips f64");
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(Episode::parse("seed x").is_err());
        assert!(Episode::parse("partitions 0").is_err());
        assert!(Episode::parse("policy maybe").is_err());
        assert!(Episode::parse("step row quotes 1 z:9").is_err());
        assert!(Episode::parse("srow 1 i:1").is_err(), "orphan srow");
        assert!(
            Episode::parse("step source s 1 0.5 2\nsrow 1 i:1").is_err(),
            "truncated source rows"
        );
        assert!(
            Episode::parse("step source s 1 0 18446744073709551615").is_err(),
            "a row count no input can back"
        );
    }

    #[test]
    fn partitions_default_to_one_and_stay_off_the_wire() {
        // Pre-existing corpus files have no `partitions` line: they
        // parse to 1 and keep rendering without the line.
        let ep = Episode::parse("seed 3\nflux 0").unwrap();
        assert_eq!(ep.partitions, 1);
        assert!(!ep.render().contains("partitions"));
    }

    #[test]
    fn durability_defaults_off_and_stays_off_the_wire() {
        let ep = Episode::parse("seed 3\nflux 0").unwrap();
        assert!(ep.durability.is_off());
        assert!(ep.columnar.is_none());
        assert!(ep.on_storage_error.is_none());
        assert!(ep.consistency.is_none());
        assert!(!ep.render().contains("durability"));
        assert!(!ep.render().contains("columnar"));
        assert!(!ep.render().contains("onerror"));
        assert!(!ep.render().contains("consistency"));
    }

    #[test]
    fn durability_and_crash_round_trip() {
        let text = "seed 9\ndurability fsync\ncolumnar 1\nstep crash\n";
        let ep = Episode::parse(text).unwrap();
        assert_eq!(ep.durability, Durability::Fsync);
        assert_eq!(ep.columnar, Some(true));
        assert_eq!(ep.steps, vec![Step::Crash]);
        assert_eq!(Episode::parse(&ep.render()).unwrap(), ep);
        assert!(Episode::parse("durability always").is_err());
        assert!(Episode::parse("columnar maybe").is_err());
    }

    #[test]
    fn diskfault_and_onerror_round_trip() {
        let text = "seed 4\ndurability buffered\nonerror halt\nstep diskfault fsyncfail 1 2\n";
        let ep = Episode::parse(text).unwrap();
        assert_eq!(ep.on_storage_error, Some(OnStorageError::Halt));
        assert_eq!(
            ep.steps,
            vec![Step::DiskFault {
                kind: FaultKind::FsyncFail,
                after: 1,
                count: 2,
            }]
        );
        assert_eq!(Episode::parse(&ep.render()).unwrap(), ep);
        assert!(Episode::parse("onerror retry").is_err());
        assert!(Episode::parse("step diskfault gremlins 0 1").is_err());
        assert!(Episode::parse("step diskfault eio x 1").is_err());
    }

    #[test]
    fn horizon_covers_all_ticks() {
        let ep = sample_episode();
        assert!(ep.horizon() > 64);
    }

    #[test]
    fn disorder_and_consistency_round_trip() {
        let text = "seed 8\nconsistency speculative\nstep disorder quotes 4\n";
        let ep = Episode::parse(text).unwrap();
        assert_eq!(ep.consistency, Some(Consistency::Speculative));
        assert_eq!(
            ep.steps,
            vec![Step::Disorder {
                stream: "quotes".into(),
                bound: 4,
            }]
        );
        assert_eq!(ep.disorder_declarations().get("quotes"), Some(&4));
        assert_eq!(Episode::parse(&ep.render()).unwrap(), ep);
        assert!(Episode::parse("consistency eventual").is_err());
        assert!(Episode::parse("step disorder quotes 0").is_err());
        assert!(Episode::parse("step disorder quotes").is_err());
    }

    #[test]
    fn in_order_twin_sorts_rows_and_drops_declarations() {
        let row = |ticks: i64| Step::Row {
            stream: "quotes".into(),
            ticks,
            fields: vec![Value::Int(ticks)],
        };
        let ep = Episode {
            steps: vec![
                Step::Disorder {
                    stream: "quotes".into(),
                    bound: 3,
                },
                row(5),
                Step::Settle,
                row(2),
                Step::Row {
                    stream: "sensors".into(),
                    ticks: 9,
                    fields: vec![Value::Int(9)],
                },
                row(4),
            ],
            ..Episode::parse("seed 1").unwrap()
        };
        let twin = ep.in_order();
        assert!(!twin.has_disorder());
        let quote_ticks: Vec<i64> = twin
            .steps
            .iter()
            .filter_map(|s| match s {
                Step::Row { stream, ticks, .. } if stream == "quotes" => Some(*ticks),
                _ => None,
            })
            .collect();
        assert_eq!(quote_ticks, vec![2, 4, 5], "quotes rows now in order");
        // The untouched stream and the schedule shape are preserved.
        assert!(matches!(twin.steps[1], Step::Settle));
        assert!(
            matches!(&twin.steps[3], Step::Row { stream, ticks: 9, .. } if stream == "sensors")
        );
    }
}
