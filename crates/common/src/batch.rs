//! Columnar batch representation: one typed vector per column plus a
//! selection bitmap.
//!
//! [`ColumnBatch`] is the unit the vectorized execution path routes: a
//! window of tuples decomposed column-by-column into typed vectors
//! (`Int64`/`Float64`/`Bool`/`Str`, each with a validity bitmap), with
//! the original row-form tuples retained alongside. Keeping the rows
//! makes the row⇄column boundary free on the way out — operators select
//! *which* rows survive with a [`Bitmap`], and egress hands the original
//! `Tuple`s (same `Arc` fields, same timestamps) to clients, so columnar
//! results are byte-identical to the row path by construction.
//!
//! Columns are typed strictly: a column is `Int64` only when every
//! non-NULL value in the batch is `Value::Int`, and so on. A column
//! holding mixed types, or timestamps, is kept as [`ColumnData::Mixed`]
//! and the vectorized evaluator falls back to the row evaluator for
//! expressions touching it (see `vexpr`).

use std::sync::Arc;

use crate::tuple::Tuple;
use crate::value::Value;

/// A fixed-length bitmap over the rows of a batch, stored as `u64`
/// words. Bits past `len` are always zero (every operation re-masks the
/// tail), so word-level folds (`count_ones`, AND/OR across words) need
/// no edge handling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// An all-zero bitmap over `len` rows.
    pub fn zeros(len: usize) -> Bitmap {
        Bitmap {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// An all-one bitmap over `len` rows.
    pub fn ones(len: usize) -> Bitmap {
        let mut b = Bitmap {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        b.mask_tail();
        b
    }

    /// Build from a per-row predicate, packing 64 rows per word.
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> bool) -> Bitmap {
        let mut words = Vec::with_capacity(len.div_ceil(64));
        let mut i = 0;
        while i < len {
            let mut w = 0u64;
            let end = (i + 64).min(len);
            for j in i..end {
                w |= (f(j) as u64) << (j - i);
            }
            words.push(w);
            i = end;
        }
        Bitmap { words, len }
    }

    /// Number of rows covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the bitmap covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bit for `row`.
    pub fn get(&self, row: usize) -> bool {
        debug_assert!(row < self.len);
        self.words[row / 64] >> (row % 64) & 1 == 1
    }

    /// Set the bit for `row`.
    pub fn set(&mut self, row: usize, on: bool) {
        debug_assert!(row < self.len);
        let (w, b) = (row / 64, row % 64);
        if on {
            self.words[w] |= 1 << b;
        } else {
            self.words[w] &= !(1 << b);
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True iff every row's bit is set.
    pub fn all_set(&self) -> bool {
        self.count_ones() == self.len
    }

    /// True iff no bit is set.
    pub fn none_set(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// `self &= other` (word-parallel).
    pub fn and_assign(&mut self, other: &Bitmap) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// `self |= other` (word-parallel).
    pub fn or_assign(&mut self, other: &Bitmap) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// `self &= !other` (word-parallel).
    pub fn and_not_assign(&mut self, other: &Bitmap) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// The complement over the covered rows.
    pub fn not(&self) -> Bitmap {
        let mut out = Bitmap {
            words: self.words.iter().map(|w| !w).collect(),
            len: self.len,
        };
        out.mask_tail();
        out
    }

    /// `a & b` as a new bitmap.
    pub fn and(&self, other: &Bitmap) -> Bitmap {
        let mut out = self.clone();
        out.and_assign(other);
        out
    }

    /// `a | b` as a new bitmap.
    pub fn or(&self, other: &Bitmap) -> Bitmap {
        let mut out = self.clone();
        out.or_assign(other);
        out
    }

    /// Indexes of the set bits, ascending.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }

    /// Zero any bits past `len` so word-level folds stay exact.
    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

/// The typed vector behind one column of a batch. Slots where the
/// validity bitmap is unset hold an arbitrary default and must not be
/// read as data.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// Every non-NULL value is `Value::Int`.
    Int(Vec<i64>),
    /// Every non-NULL value is `Value::Float`.
    Float(Vec<f64>),
    /// Every non-NULL value is `Value::Bool`.
    Bool(Vec<bool>),
    /// Every non-NULL value is `Value::Str` (refcount-shared with the
    /// source tuples).
    Str(Vec<Arc<str>>),
    /// Mixed types, timestamps, or all-NULL: kept as boxed values; the
    /// vectorized evaluator treats such columns as non-vectorizable.
    Mixed(Vec<Value>),
}

/// One column of a [`ColumnBatch`]: typed data plus a validity bitmap
/// (`valid` bit unset ⇔ the value is SQL NULL).
#[derive(Debug, Clone)]
pub struct Column {
    /// Typed values (see [`ColumnData`] for the slot contract).
    pub data: ColumnData,
    /// Bit per row: set ⇔ the value is non-NULL.
    pub valid: Bitmap,
}

/// A batch of tuples in columnar form, with the original rows retained.
#[derive(Debug, Clone)]
pub struct ColumnBatch {
    rows: Vec<Tuple>,
    cols: Vec<Column>,
}

impl ColumnBatch {
    /// Decompose `rows` into typed columns. When rows disagree on arity
    /// (heterogeneous batch), no columns are produced and every
    /// expression falls back to the row evaluator.
    pub fn from_tuples(rows: Vec<Tuple>) -> ColumnBatch {
        let arity = rows.first().map_or(0, Tuple::arity);
        if rows.iter().any(|t| t.arity() != arity) {
            return ColumnBatch {
                rows,
                cols: Vec::new(),
            };
        }
        let cols = (0..arity).map(|c| build_column(&rows, c)).collect();
        ColumnBatch { rows, cols }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of decomposed columns (0 for a heterogeneous batch).
    pub fn num_cols(&self) -> usize {
        self.cols.len()
    }

    /// The original tuples, in arrival order.
    pub fn rows(&self) -> &[Tuple] {
        &self.rows
    }

    /// Delta sign per row (`+1` assertion, `-1` retraction), in arrival
    /// order. Signs ride on the retained row-form tuples, so the columnar
    /// path carries them losslessly through selection and re-batching.
    pub fn signs(&self) -> impl Iterator<Item = i8> + '_ {
        self.rows.iter().map(Tuple::sign)
    }

    /// Column `idx`, if decomposed.
    pub fn col(&self, idx: usize) -> Option<&Column> {
        self.cols.get(idx)
    }

    /// Clone the rows whose bit is set in `sel`, in order.
    pub fn selected(&self, sel: &Bitmap) -> Vec<Tuple> {
        debug_assert_eq!(sel.len(), self.rows.len());
        sel.iter_ones().map(|i| self.rows[i].clone()).collect()
    }

    /// Consume the batch, keeping only the rows whose bit is set.
    pub fn into_selected(self, sel: &Bitmap) -> Vec<Tuple> {
        debug_assert_eq!(sel.len(), self.rows.len());
        let mut out = Vec::with_capacity(sel.count_ones());
        for (i, t) in self.rows.into_iter().enumerate() {
            if sel.get(i) {
                out.push(t);
            }
        }
        out
    }

    /// Give the rows back (the inverse of [`ColumnBatch::from_tuples`]).
    pub fn into_rows(self) -> Vec<Tuple> {
        self.rows
    }
}

/// Type-detect and fill one column (two passes: discriminant scan, then
/// a monomorphic fill loop).
fn build_column(rows: &[Tuple], c: usize) -> Column {
    let n = rows.len();
    let mut ty: Option<&Value> = None;
    let mut mixed = false;
    for t in rows {
        let v = t.field(c);
        if v.is_null() {
            continue;
        }
        match ty {
            None => ty = Some(v),
            Some(first) => {
                if std::mem::discriminant(first) != std::mem::discriminant(v) {
                    mixed = true;
                    break;
                }
            }
        }
    }
    let valid = Bitmap::from_fn(n, |i| !rows[i].field(c).is_null());
    let data = if mixed {
        ColumnData::Mixed(rows.iter().map(|t| t.field(c).clone()).collect())
    } else {
        match ty {
            Some(Value::Int(_)) => ColumnData::Int(
                rows.iter()
                    .map(|t| match t.field(c) {
                        Value::Int(i) => *i,
                        _ => 0,
                    })
                    .collect(),
            ),
            Some(Value::Float(_)) => ColumnData::Float(
                rows.iter()
                    .map(|t| match t.field(c) {
                        Value::Float(f) => *f,
                        _ => 0.0,
                    })
                    .collect(),
            ),
            Some(Value::Bool(_)) => ColumnData::Bool(
                rows.iter()
                    .map(|t| matches!(t.field(c), Value::Bool(true)))
                    .collect(),
            ),
            Some(Value::Str(_)) => {
                let empty: Arc<str> = Arc::from("");
                ColumnData::Str(
                    rows.iter()
                        .map(|t| match t.field(c) {
                            Value::Str(s) => s.clone(),
                            _ => empty.clone(),
                        })
                        .collect(),
                )
            }
            // Timestamps and all-NULL columns stay boxed.
            _ => ColumnData::Mixed(rows.iter().map(|t| t.field(c).clone()).collect()),
        }
    };
    Column { data, valid }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Timestamp;

    fn t(vals: Vec<Value>, seq: i64) -> Tuple {
        Tuple::at_seq(vals, seq)
    }

    #[test]
    fn signs_survive_batching_and_selection() {
        let rows = vec![
            t(vec![Value::Int(1)], 1),
            t(vec![Value::Int(2)], 2).with_sign(-1),
            t(vec![Value::Int(3)], 3),
        ];
        let batch = ColumnBatch::from_tuples(rows);
        assert_eq!(batch.signs().collect::<Vec<_>>(), vec![1, -1, 1]);
        let sel = Bitmap::from_fn(3, |i| i != 0);
        let kept = batch.selected(&sel);
        assert_eq!(kept[0].sign(), -1);
        assert_eq!(kept[1].sign(), 1);
    }

    #[test]
    fn bitmap_ops_mask_the_tail() {
        let ones = Bitmap::ones(70);
        assert_eq!(ones.count_ones(), 70);
        assert!(ones.all_set());
        let not = ones.not();
        assert_eq!(not.count_ones(), 0);
        assert!(not.none_set());
        let evens = Bitmap::from_fn(70, |i| i % 2 == 0);
        assert_eq!(evens.count_ones(), 35);
        assert_eq!(evens.not().count_ones(), 35);
        let mut x = evens.clone();
        x.and_assign(&ones);
        assert_eq!(x, evens);
        x.or_assign(&evens.not());
        assert!(x.all_set());
        x.and_not_assign(&evens);
        assert_eq!(x, evens.not());
    }

    #[test]
    fn bitmap_iter_ones_ascending() {
        let b = Bitmap::from_fn(130, |i| i % 63 == 0);
        let got: Vec<usize> = b.iter_ones().collect();
        assert_eq!(got, vec![0, 63, 126]);
    }

    #[test]
    fn columns_are_typed_strictly() {
        let rows = vec![
            t(vec![Value::Int(1), Value::Float(0.5), Value::str("a")], 1),
            t(vec![Value::Null, Value::Float(1.5), Value::str("b")], 2),
            t(vec![Value::Int(3), Value::Null, Value::Null], 3),
        ];
        let b = ColumnBatch::from_tuples(rows);
        assert_eq!(b.num_cols(), 3);
        match &b.col(0).unwrap().data {
            ColumnData::Int(v) => assert_eq!(&v[..], &[1, 0, 3]),
            other => panic!("expected Int column, got {other:?}"),
        }
        assert!(!b.col(0).unwrap().valid.get(1));
        match &b.col(1).unwrap().data {
            ColumnData::Float(v) => assert_eq!(&v[..2], &[0.5, 1.5]),
            other => panic!("expected Float column, got {other:?}"),
        }
        match &b.col(2).unwrap().data {
            ColumnData::Str(v) => assert_eq!(v[1].as_ref(), "b"),
            other => panic!("expected Str column, got {other:?}"),
        }
    }

    #[test]
    fn mixed_and_ts_columns_stay_boxed() {
        let rows = vec![
            t(vec![Value::Int(1), Value::Ts(Timestamp::logical(1))], 1),
            t(vec![Value::Float(2.0), Value::Ts(Timestamp::logical(2))], 2),
        ];
        let b = ColumnBatch::from_tuples(rows);
        assert!(matches!(b.col(0).unwrap().data, ColumnData::Mixed(_)));
        assert!(matches!(b.col(1).unwrap().data, ColumnData::Mixed(_)));
    }

    #[test]
    fn all_null_column_is_mixed_and_invalid() {
        let rows = vec![t(vec![Value::Null], 1), t(vec![Value::Null], 2)];
        let b = ColumnBatch::from_tuples(rows);
        assert!(matches!(b.col(0).unwrap().data, ColumnData::Mixed(_)));
        assert!(b.col(0).unwrap().valid.none_set());
    }

    #[test]
    fn ragged_batches_produce_no_columns() {
        let rows = vec![t(vec![Value::Int(1)], 1), t(vec![], 2)];
        let b = ColumnBatch::from_tuples(rows);
        assert_eq!(b.num_cols(), 0);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn selection_returns_original_tuples() {
        let rows: Vec<Tuple> = (0..10).map(|i| t(vec![Value::Int(i)], i)).collect();
        let b = ColumnBatch::from_tuples(rows.clone());
        let sel = Bitmap::from_fn(10, |i| i % 3 == 0);
        let got = b.selected(&sel);
        assert_eq!(got.len(), 4);
        for (g, i) in got.iter().zip([0usize, 3, 6, 9]) {
            assert_eq!(g, &rows[i]);
        }
        let moved = b.into_selected(&sel);
        assert_eq!(moved, got);
    }
}
