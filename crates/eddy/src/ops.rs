//! The modules an Eddy routes tuples among.
//!
//! Two kinds suffice for the paper's workloads: pipelined selections
//! ([`FilterOp`]) and SteM probes ([`StemOp`]). Both are "commutative
//! modules" in the paper's sense — an Eddy may visit them in any order —
//! and both carry the metadata the Eddy needs to compute eligibility
//! (which streams a module touches).

use tcq_common::{Expr, Timestamp, Tuple, Value};
use tcq_stems::{Key, SteM};

use crate::layout::Layout;
use crate::mask::Mask;

/// A pipelined selection over full-layout columns.
#[derive(Debug)]
pub struct FilterOp {
    /// Diagnostic name.
    pub name: String,
    /// The predicate, authored against the full layout.
    pub predicate: Expr,
    /// Streams referenced (computed by the builder from the layout).
    pub streams: Mask,
}

impl FilterOp {
    /// A filter with `predicate` named `name`.
    pub fn new(name: impl Into<String>, predicate: Expr) -> FilterOp {
        FilterOp {
            name: name.into(),
            predicate,
            streams: Mask::EMPTY, // filled by the builder
        }
    }

    /// Evaluate the (pre-remapped) predicate against a partial tuple.
    pub fn eval(&self, remapped: &Expr, tuple: &Tuple) -> bool {
        remapped.eval_pred(tuple).unwrap_or(false)
    }
}

/// One way to probe a SteM: a set of stored-side key columns matched
/// against full-layout columns on the probing side.
///
/// A SteM participating in several join edges has several probe specs —
/// in a chain join `S ⋈ T ⋈ U`, the T SteM is probed on `T.k1` by S-side
/// tuples and on `T.k2` by U-side tuples.
#[derive(Debug, Clone)]
pub struct ProbeSpec {
    /// Key columns within the stored stream's own layout.
    pub local: Vec<usize>,
    /// Matching columns in the full layout (probing side).
    pub full: Vec<usize>,
    /// Streams the `full` columns live on (filled by the builder).
    pub streams: Mask,
    /// The SteM index number serving this spec.
    pub index_no: usize,
}

/// A probe module over one base stream's SteM.
///
/// Builds happen *eagerly at submission* (see [`crate::eddy::Eddy::submit`]);
/// routing a tuple here always means probing. A probe is eligible when
/// the routed tuple covers the columns of at least one [`ProbeSpec`] and
/// does not yet cover [`StemOp::stream`]. When several specs are covered
/// the probe uses one index and verifies the remaining key equalities on
/// the matches, so results are identical regardless of derivation path.
#[derive(Debug)]
pub struct StemOp {
    /// Diagnostic name.
    pub name: String,
    /// The base stream whose tuples this SteM stores.
    pub stream: usize,
    /// The probe access paths.
    pub specs: Vec<ProbeSpec>,
    /// Residual join predicate over the full layout (non-equi conjuncts
    /// "that can be evaluated on the columns in p and T").
    pub residual: Option<Expr>,
    /// The repository.
    pub stem: SteM,
    /// Arrival sequence number of each stored entry, parallel to the
    /// SteM's insertion ids (ids are assigned in build order, so pruning
    /// after eviction is a range drop).
    seqs: std::collections::BTreeMap<u64, u64>,
    /// Probe-entry scratch, reused across probes.
    probe_buf: Vec<(u64, Tuple)>,
}

impl StemOp {
    /// A SteM module for base stream `stream`, storing tuples keyed on
    /// `local_key` and probed with full-layout columns `probe_cols`.
    pub fn new(
        name: impl Into<String>,
        stream: usize,
        local_key: Vec<usize>,
        probe_cols: Vec<usize>,
    ) -> StemOp {
        let name = name.into();
        StemOp {
            stem: SteM::new(name.clone(), local_key.clone()),
            name,
            stream,
            specs: vec![ProbeSpec {
                local: local_key,
                full: probe_cols,
                streams: Mask::EMPTY,
                index_no: 0,
            }],
            residual: None,
            seqs: std::collections::BTreeMap::new(),
            probe_buf: Vec::new(),
        }
    }

    /// Add a secondary probe path: stored-side columns `local` matched
    /// against full-layout columns `full`.
    pub fn with_probe(mut self, local: Vec<usize>, full: Vec<usize>) -> StemOp {
        let index_no = self.stem.add_index(local.clone());
        self.specs.push(ProbeSpec {
            local,
            full,
            streams: Mask::EMPTY,
            index_no,
        });
        self
    }

    /// Attach a residual (full-layout) predicate applied to merged
    /// outputs of this probe.
    pub fn with_residual(mut self, residual: Expr) -> StemOp {
        self.residual = Some(residual);
        self
    }

    /// Whether a tuple with `coverage` can probe this SteM.
    pub fn eligible(&self, coverage: Mask) -> bool {
        !coverage.contains(self.stream)
            && self
                .specs
                .iter()
                .any(|sp| coverage.is_superset_of(sp.streams))
    }

    /// Store an arriving singleton of this stream, tagged with its global
    /// arrival sequence number.
    pub fn build(&mut self, tuple: Tuple, seq: u64) {
        let id = self.stem.build(tuple);
        self.seqs.insert(id, seq);
    }

    /// Store a batch of arriving singletons with consecutive sequence
    /// numbers starting at `base_seq`; the SteM's indexes are each
    /// walked once for the whole batch.
    pub fn build_batch(&mut self, tuples: &[Tuple], base_seq: u64) {
        let ids = self.stem.build_batch(tuples);
        for (i, id) in ids.enumerate() {
            self.seqs.insert(id, base_seq + i as u64);
        }
    }

    /// [`StemOp::build_batch`] from a typed column batch: index keys are
    /// extracted column-wise (`SteM::build_batch_columnar`) instead of per
    /// tuple field array. Stored tuples and assigned ids are identical.
    pub fn build_batch_columnar(&mut self, batch: &tcq_common::ColumnBatch, base_seq: u64) {
        let ids = self.stem.build_batch_columnar(batch);
        for (i, id) in ids.enumerate() {
            self.seqs.insert(id, base_seq + i as u64);
        }
    }

    /// Probe with a driver tuple: uses the first covered spec's index,
    /// verifies any other covered specs' key equalities, and returns
    /// stored tuples built strictly before arrival `before_seq` (the
    /// exactly-once rule: only the latest arriving component of a join
    /// result drives its derivation).
    pub fn probe_matches(
        &mut self,
        driver: &Tuple,
        layout: &Layout,
        coverage: Mask,
        before_seq: u64,
    ) -> Vec<Tuple> {
        let covered: Vec<usize> = (0..self.specs.len())
            .filter(|&i| coverage.is_superset_of(self.specs[i].streams))
            .collect();
        let Some(&first) = covered.first() else {
            return Vec::new();
        };
        let Some(key) = spec_key(&self.specs[first], driver, layout, coverage) else {
            return Vec::new(); // NULL key never joins
        };
        let index_no = self.specs[first].index_no;
        let mut entries = std::mem::take(&mut self.probe_buf);
        self.stem.probe_entries_into(index_no, &key, &mut entries);
        let mut out = Vec::new();
        'entry: for (id, t) in entries.drain(..) {
            if self.seqs.get(&id).is_none_or(|&s| s >= before_seq) {
                continue;
            }
            // Verify the remaining covered specs' equalities.
            for &si in &covered[1..] {
                let sp = &self.specs[si];
                for (&lc, &fc) in sp.local.iter().zip(sp.full.iter()) {
                    let p = layout
                        .full_to_partial(coverage, fc)
                        .expect("covered spec implies covered columns");
                    if !t.field(lc).sql_eq(driver.field(p)) {
                        continue 'entry;
                    }
                }
            }
            out.push(t);
        }
        self.probe_buf = entries;
        out
    }

    /// Window eviction on the stored side, pruning the seq side table.
    pub fn evict_before(&mut self, bound: Timestamp) -> usize {
        let n = self.stem.evict_before(bound);
        if n > 0 {
            match self.stem.oldest_live_id() {
                Some(min_id) => self.seqs = self.seqs.split_off(&min_id),
                None => self.seqs.clear(),
            }
        }
        n
    }

    /// Number of stored tuples.
    pub fn len(&self) -> usize {
        self.stem.len()
    }

    /// True iff nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.stem.is_empty()
    }
}

/// Extract a probe key for `spec` from a partial tuple; `None` when a key
/// value is NULL.
fn spec_key(spec: &ProbeSpec, driver: &Tuple, layout: &Layout, coverage: Mask) -> Option<Key> {
    let vals: Vec<Value> = spec
        .full
        .iter()
        .map(|&c| {
            let p = layout
                .full_to_partial(coverage, c)
                .expect("probe eligibility guarantees covered key columns");
            driver.field(p).clone()
        })
        .collect();
    let key = Key::from_values(&vals);
    if key.has_null() {
        None
    } else {
        Some(key)
    }
}

/// A module connected to an Eddy.
#[derive(Debug)]
pub enum EddyOp {
    /// Pipelined selection.
    Filter(FilterOp),
    /// SteM probe (boxed: a SteM is far larger than a filter).
    Stem(Box<StemOp>),
}

impl EddyOp {
    /// Diagnostic name.
    pub fn name(&self) -> &str {
        match self {
            EddyOp::Filter(f) => &f.name,
            EddyOp::Stem(s) => &s.name,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stem_op_probe_respects_seq_rule() {
        let layout = Layout::new(vec![1, 1]);
        let mut op = StemOp::new("stem", 1, vec![0], vec![0]);
        op.specs[0].streams = Mask::bit(0);
        op.build(Tuple::at_seq(vec![Value::Int(1)], 1), 5);
        op.build(Tuple::at_seq(vec![Value::Int(1)], 2), 9);
        let driver = Tuple::at_seq(vec![Value::Int(1)], 3);
        assert_eq!(
            op.probe_matches(&driver, &layout, Mask::bit(0), 7).len(),
            1,
            "only the seq-5 entry is older"
        );
        assert_eq!(
            op.probe_matches(&driver, &layout, Mask::bit(0), 10).len(),
            2
        );
        assert_eq!(
            op.probe_matches(&driver, &layout, Mask::bit(0), 5).len(),
            0,
            "strictly-before excludes 5"
        );
    }

    #[test]
    fn stem_op_eviction_prunes_seq_table() {
        let mut op = StemOp::new("stem", 0, vec![0], vec![0]);
        for i in 0..10i64 {
            op.build(Tuple::at_seq(vec![Value::Int(1)], i), i as u64);
        }
        assert_eq!(op.evict_before(Timestamp::logical(5)), 5);
        assert_eq!(op.len(), 5);
        assert_eq!(op.seqs.len(), 5, "side table pruned with the stem");
    }

    #[test]
    fn null_probe_keys_match_nothing() {
        let layout = Layout::new(vec![1, 1]);
        let mut op = StemOp::new("stem", 1, vec![0], vec![0]);
        op.specs[0].streams = Mask::bit(0);
        op.build(Tuple::at_seq(vec![Value::Null], 1), 0);
        let driver = Tuple::at_seq(vec![Value::Null], 2);
        assert!(op
            .probe_matches(&driver, &layout, Mask::bit(0), 10)
            .is_empty());
    }

    #[test]
    fn multiple_probe_specs_verify_all_covered_keys() {
        // Streams: A(x), B(y), T(k1, k2). T is probed on k1 = A.x and on
        // k2 = B.y. Full layout: A=[0], B=[1], T=[2,3].
        let layout = Layout::new(vec![1, 1, 2]);
        let mut op = StemOp::new("stemT", 2, vec![0], vec![0]).with_probe(vec![1], vec![1]);
        op.specs[0].streams = Mask::bit(0);
        op.specs[1].streams = Mask::bit(1);
        op.build(Tuple::at_seq(vec![Value::Int(1), Value::Int(5)], 1), 0);
        op.build(Tuple::at_seq(vec![Value::Int(1), Value::Int(6)], 2), 1);
        // Driver covering only A: probes on k1, both match.
        let a = Tuple::at_seq(vec![Value::Int(1)], 3);
        assert_eq!(op.probe_matches(&a, &layout, Mask::bit(0), 10).len(), 2);
        // Driver covering only B: probes on k2.
        let b = Tuple::at_seq(vec![Value::Int(6)], 4);
        assert_eq!(op.probe_matches(&b, &layout, Mask::bit(1), 10).len(), 1);
        // Driver covering A and B: both key equalities must hold.
        let ab = Tuple::at_seq(vec![Value::Int(1), Value::Int(6)], 5);
        let m = op.probe_matches(&ab, &layout, Mask::from_iter([0, 1]), 10);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].field(1), &Value::Int(6));
    }

    #[test]
    fn eligibility_requires_some_spec_and_uncovered_stream() {
        let mut op = StemOp::new("stemT", 2, vec![0], vec![0]).with_probe(vec![1], vec![1]);
        op.specs[0].streams = Mask::bit(0);
        op.specs[1].streams = Mask::bit(1);
        assert!(op.eligible(Mask::bit(0)));
        assert!(op.eligible(Mask::bit(1)));
        assert!(!op.eligible(Mask::bit(2)), "own stream covered");
        assert!(!op.eligible(Mask::from_iter([0, 2])), "own stream covered");
        assert!(op.eligible(Mask::from_iter([0, 1])));
    }

    #[test]
    fn eddy_op_names() {
        let f = EddyOp::Filter(FilterOp::new("sel", Expr::lit(true)));
        let s = EddyOp::Stem(Box::new(StemOp::new("stemS", 0, vec![0], vec![0])));
        assert_eq!(f.name(), "sel");
        assert_eq!(s.name(), "stemS");
    }
}
