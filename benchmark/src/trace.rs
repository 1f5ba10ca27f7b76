//! Outside-in spans: the benchmark times its own calls into each layer's
//! public functions. Spans live in a preallocated `Vec` and are written
//! out when the run ends; nothing inside the engine is instrumented.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

pub const NO_PARENT: u32 = u32::MAX;

/// One timed call. `name` is `<layer>.<operation>`; the layer is the
/// crate the call lands in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// The input batch this call served (shared by every span of it).
    pub batch_id: u32,
    /// Work items the call covered (tuples, rows, queries…): the
    /// denominator of the layer's `ns_per_*` metric.
    pub units: u32,
}

/// Per-name totals derived from a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Total {
    pub calls: u64,
    pub units: u64,
    /// Duration minus the part covered by child spans.
    pub self_ns: u64,
}

impl Total {
    pub fn ns_per_unit(&self) -> f64 {
        if self.units == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.units as f64
        }
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn with_capacity(spans: usize) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(spans),
            open: Vec::with_capacity(16),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, batch_id: u32) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            batch_id,
            units: 0,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: u32, units: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close innermost-first");
        let end_ns = self.now();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.units = units.min(u32::MAX as usize) as u32;
    }

    /// Time `f` as a leaf span; `units` is computed from its result.
    pub fn leaf<T>(
        &mut self,
        name: &'static str,
        batch_id: u32,
        f: impl FnOnce() -> T,
        units: impl FnOnce(&T) -> usize,
    ) -> T {
        let id = self.begin(name, batch_id);
        let out = f();
        let n = units(&out);
        self.end(id, n);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "every span was closed");
        self.spans
    }
}

/// Self time per span: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Totals by span name over the subtrees of every top-level span named
/// `root_name` (those spans included).
pub fn totals_under(spans: &[Span], root_name: &str) -> BTreeMap<&'static str, Total> {
    let own = self_times(spans);
    // Parents precede children, so membership propagates in one pass.
    let mut inside = vec![false; spans.len()];
    let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        inside[i] = if s.parent == NO_PARENT {
            s.name == root_name
        } else {
            inside[s.parent as usize]
        };
        if inside[i] {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.units += s.units as u64;
            t.self_ns += own[i];
        }
    }
    out
}

/// The layer of a span name: the part before the first dot.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// The trace file: one object per span, in start order.
pub fn to_json(workload: &str, spans: &[Span]) -> Json {
    let own = self_times(spans);
    Json::obj([
        ("workload", Json::str(workload)),
        ("unit", Json::str("ns")),
        (
            "spans",
            Json::Arr(
                spans
                    .iter()
                    .zip(&own)
                    .map(|(s, &self_ns)| {
                        Json::obj([
                            ("name", Json::str(s.name)),
                            ("start_ns", Json::Num(s.start_ns as f64)),
                            ("end_ns", Json::Num(s.end_ns as f64)),
                            (
                                "parent",
                                if s.parent == NO_PARENT {
                                    Json::Null
                                } else {
                                    Json::Num(s.parent as f64)
                                },
                            ),
                            ("batch_id", Json::Num(s.batch_id as f64)),
                            ("units", Json::Num(s.units as f64)),
                            ("self_ns", Json::Num(self_ns as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            batch_id: 0,
            units: 10,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100] ⊃ a [10,60] ⊃ b [20,50]; root ⊃ c [70,90].
        let spans = [
            span("replay.root", 0, 100, NO_PARENT),
            span("x.a", 10, 60, 0),
            span("y.b", 20, 50, 1),
            span("x.c", 70, 90, 0),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 30, 20]);
        let totals = totals_under(&spans, "replay.root");
        let sum: u64 = totals.values().map(|t| t.self_ns).sum();
        assert_eq!(sum, 100, "self times partition the root's duration");
        assert_eq!(totals["x.a"].self_ns, 20);
        assert_eq!(totals["x.a"].ns_per_unit(), 2.0);
        // Another root's subtree is left out.
        let mut two = spans.to_vec();
        two.push(span("probe.root", 100, 150, NO_PARENT));
        two.push(span("x.a", 110, 140, 4));
        assert_eq!(totals_under(&two, "replay.root"), totals);
        let probes = totals_under(&two, "probe.root");
        assert_eq!(probes.len(), 2);
        assert_eq!(probes["x.a"].self_ns, 30);
        assert_eq!(probes["probe.root"].self_ns, 20);
        assert_eq!(layer_of("storage.wal_append"), "storage");
    }

    #[test]
    fn tracer_nests_and_records_units() {
        let mut tr = Tracer::with_capacity(8);
        let root = tr.begin("replay.root", 7);
        let got = tr.leaf("common.transpose", 7, || vec![1, 2, 3], Vec::len);
        assert_eq!(got.len(), 3);
        let mid = tr.begin("cacq.push", 7);
        tr.leaf("core.egress", 7, || (), |_| 2);
        tr.end(mid, 5);
        tr.end(root, 1);
        let spans = tr.into_spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[1].units, 3);
        assert_eq!(spans[3].parent, 2);
        assert!(spans
            .iter()
            .all(|s| s.batch_id == 7 && s.end_ns >= s.start_ns));
        let json = to_json("w", &spans);
        assert_eq!(json.get("spans").unwrap().as_arr().unwrap().len(), 4);
    }
}
