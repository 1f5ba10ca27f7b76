//! The independent reference: brute-force evaluation of the standing
//! queries over the verify prefix, sharing no code with the engine
//! beyond the `Tuple`/`Value` data model. Predicates are evaluated
//! directly, every window instant is recomputed from scratch, and joins
//! are a hash join bounded by the window.

use std::collections::{BTreeMap, HashMap};

use tcq_common::{Tuple, Value};

use crate::workload::{mix, Atom, Op, Plan, Query, Rhs, Window, Workload};

/// Order-insensitive digest of one query's output: rows are hashed with
/// their window instant and summed, so any delivery order or batching of
/// the same multiset of rows gives the same digest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    pub rows: u64,
    pub sum: u64,
}

impl Digest {
    /// Fold one output row in. `skip` lists columns left out of the hash
    /// (wall-clock stamps in the timed phases).
    pub fn add(&mut self, window_t: Option<i64>, fields: &[Value], skip: &[usize]) {
        let mut h = mix(window_t.map_or(0x77, |t| t as u64 ^ 0x5eed));
        for (i, v) in fields.iter().enumerate() {
            if !skip.contains(&i) {
                h = mix(h ^ value_hash(v));
            }
        }
        self.rows += 1;
        self.sum = self.sum.wrapping_add(h);
    }

    pub fn merge(&mut self, other: &Digest) {
        self.rows += other.rows;
        self.sum = self.sum.wrapping_add(other.sum);
    }
}

/// Hash by numeric value, not representation: `Int(3)` and `Float(3.0)`
/// agree, as they do under SQL equality.
fn value_hash(v: &Value) -> u64 {
    match v {
        Value::Null => 0x6e75_6c6c,
        Value::Bool(b) => *b as u64 + 1,
        Value::Int(i) => mix((*i as f64).to_bits()),
        Value::Float(f) => mix((if *f == 0.0 { 0.0 } else { *f }).to_bits()),
        Value::Str(s) => s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
        }),
        Value::Ts(t) => mix(t.ticks() as u64),
    }
}

fn holds(atom: &Atom, row: &[Value]) -> bool {
    let lhs = &row[atom.col];
    let ord = match (&atom.rhs, lhs) {
        (Rhs::Str(s), Value::Str(l)) => Some(l.as_ref().cmp(s.as_ref())),
        (Rhs::Str(_), _) => None,
        (rhs, lhs) => {
            let r = match rhs {
                Rhs::Int(i) => Some(*i as f64),
                Rhs::Float(f) => Some(*f),
                Rhs::Col(c) => row[*c].as_float(),
                Rhs::Str(_) => None,
            };
            lhs.as_float().zip(r).and_then(|(l, r)| l.partial_cmp(&r))
        }
    };
    let Some(ord) = ord else { return false };
    match atom.op {
        Op::Lt => ord.is_lt(),
        Op::Gt => ord.is_gt(),
        Op::Ge => ord.is_ge(),
        Op::Eq => ord.is_eq(),
    }
}

fn passes(conj: &[Atom], t: &Tuple) -> bool {
    conj.iter().all(|a| holds(a, t.fields()))
}

/// The instants a window's loop reaches over a stream whose last tick is
/// `last`: the engine punctuates an exhausted stream at its clock, which
/// releases every instant up to it.
fn instants(window: Window, last: i64) -> impl Iterator<Item = i64> {
    (0..)
        .map(move |k| window.width + k * window.hop)
        .take_while(move |&t| t <= last)
}

/// The rows of `stream` (ordered by tick) whose tick is in `[lo, hi]`.
fn in_window(stream: &[Tuple], lo: i64, hi: i64) -> &[Tuple] {
    let from = stream.partition_point(|t| t.ts().ticks() < lo);
    let to = stream.partition_point(|t| t.ts().ticks() <= hi);
    &stream[from..to]
}

fn last_tick(stream: &[Tuple]) -> i64 {
    stream.last().map_or(0, |t| t.ts().ticks())
}

/// Evaluate one query over the whole input (`inputs[s]` is stream `s` in
/// arrival order) and digest its expected output.
pub fn evaluate(w: &Workload, query: &Query, inputs: &[Vec<Tuple>]) -> Digest {
    let mut d = Digest::default();
    match &query.plan {
        Plan::Select { conj } => {
            let spec = &w.streams[0];
            for t in inputs[0].iter().filter(|t| passes(conj, t)) {
                let row = [t.field(spec.seq_col).clone(), t.field(spec.gen_col).clone()];
                d.add(None, &row, &[]);
            }
        }
        Plan::WinAgg {
            conj,
            key,
            val,
            window,
        } => {
            let spec = &w.streams[0];
            for t in instants(*window, last_tick(&inputs[0])) {
                // key → (sum, max, count, newest gen_ns)
                let mut groups: BTreeMap<i64, (f64, f64, i64, i64)> = BTreeMap::new();
                for row in in_window(&inputs[0], t - window.width + 1, t) {
                    if !passes(conj, row) {
                        continue;
                    }
                    let k = row.field(*key).as_int().expect("integer group key");
                    let x = row.field(*val).as_float().expect("numeric value");
                    let gen = row.field(spec.gen_col).as_int().expect("gen_ns");
                    let g = groups.entry(k).or_insert((0.0, f64::MIN, 0, i64::MIN));
                    g.0 += x;
                    g.1 = g.1.max(x);
                    g.2 += 1;
                    g.3 = g.3.max(gen);
                }
                for (k, (sum, max, n, gen)) in groups {
                    let row = [
                        Value::Int(k),
                        Value::Float(sum / n as f64),
                        Value::Float(max),
                        Value::Int(n),
                        Value::Int(gen),
                    ];
                    d.add(Some(t), &row, &[]);
                }
            }
        }
        Plan::WinJoin {
            left,
            right,
            left_key,
            right_key,
            window,
        } => {
            let (ls, rs) = (&w.streams[0], &w.streams[1]);
            let last = last_tick(&inputs[0]).min(last_tick(&inputs[1]));
            for t in instants(*window, last) {
                let lo = t - window.width + 1;
                let mut build: HashMap<i64, Vec<&Tuple>> = HashMap::new();
                for l in in_window(&inputs[0], lo, t)
                    .iter()
                    .filter(|l| passes(left, l))
                {
                    let k = l.field(*left_key).as_int().expect("integer join key");
                    build.entry(k).or_default().push(l);
                }
                for r in in_window(&inputs[1], lo, t)
                    .iter()
                    .filter(|r| passes(right, r))
                {
                    let k = r.field(*right_key).as_int().expect("integer join key");
                    for l in build.get(&k).into_iter().flatten() {
                        let row = [
                            l.field(ls.seq_col).clone(),
                            r.field(rs.seq_col).clone(),
                            l.field(ls.gen_col).clone(),
                            r.field(rs.gen_col).clone(),
                        ];
                        d.add(Some(t), &row, &[]);
                    }
                }
            }
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Kind, Shape};

    #[test]
    fn digest_ignores_order_and_number_representation() {
        let rows = [
            vec![Value::Int(1), Value::Float(2.5)],
            vec![Value::Int(2), Value::Float(4.0)],
            vec![Value::Int(3), Value::str("x")],
        ];
        let mut a = Digest::default();
        let mut b = Digest::default();
        for r in &rows {
            a.add(Some(5), r, &[]);
        }
        for r in rows.iter().rev() {
            b.add(Some(5), r, &[]);
        }
        assert_eq!(a, b);
        let mut c = Digest::default();
        c.add(Some(5), &[Value::Float(1.0), Value::Float(2.5)], &[]);
        let mut d = Digest::default();
        d.add(Some(5), &rows[0], &[]);
        assert_eq!(c, d, "Int(1) hashes as Float(1.0)");
        let mut e = Digest::default();
        e.add(Some(6), &rows[0], &[]);
        assert_ne!(d, e, "the instant is part of the row");
        let mut f = Digest::default();
        f.add(Some(5), &[Value::Int(1), Value::Float(9.9)], &[1]);
        let mut g = Digest::default();
        g.add(Some(5), &[Value::Int(1), Value::Float(0.1)], &[1]);
        assert_eq!(f, g, "skipped columns do not count");
    }

    #[test]
    fn predicates_follow_sql_comparison() {
        let row = [Value::str("K0003"), Value::Float(960.5), Value::Int(100)];
        let at = |col, op, rhs| holds(&Atom::new(col, op, rhs), &row);
        assert!(at(1, Op::Gt, Rhs::Float(960.0)));
        assert!(!at(1, Op::Gt, Rhs::Float(960.5)));
        assert!(at(1, Op::Ge, Rhs::Float(960.5)));
        assert!(
            at(2, Op::Lt, Rhs::Col(1)),
            "Int column against Float column"
        );
        assert!(at(2, Op::Eq, Rhs::Int(100)));
        assert!(at(0, Op::Eq, Rhs::Str("K0003".into())));
        assert!(!at(0, Op::Eq, Rhs::Str("K0004".into())));
        assert!(
            !at(1, Op::Eq, Rhs::Str("K0003".into())),
            "type mismatch is unknown"
        );
    }

    #[test]
    fn window_instants_and_bounds() {
        let w = Window { width: 5, hop: 2 };
        assert_eq!(instants(w, 10).collect::<Vec<_>>(), vec![5, 7, 9]);
        assert_eq!(instants(w, 4).count(), 0);
        let rows: Vec<Tuple> = (1..=6)
            .flat_map(|t| [Tuple::at_seq(vec![], t), Tuple::at_seq(vec![], t)])
            .collect();
        assert_eq!(in_window(&rows, 2, 3).len(), 4);
        assert_eq!(in_window(&rows, 6, 9).len(), 2);
        assert_eq!(in_window(&rows, 7, 9).len(), 0);
    }

    #[test]
    fn join_reference_counts_pairs_inside_the_window_only() {
        let w = Workload::new(Kind::StreamJoin, 1, Shape::default());
        let q = Query {
            sql: String::new(),
            plan: Plan::WinJoin {
                left: vec![],
                right: vec![Atom::new(1, Op::Ge, Rhs::Int(5))],
                left_key: 0,
                right_key: 0,
                window: Window { width: 2, hop: 1 },
            },
        };
        let t = |key: i64, v: i64, seq: i64, tick: i64| {
            Tuple::at_seq(
                vec![
                    Value::Int(key),
                    Value::Int(v),
                    Value::Int(seq),
                    Value::Int(0),
                ],
                tick,
            )
        };
        let left = vec![t(1, 0, 0, 1), t(2, 0, 1, 2), t(1, 0, 2, 3)];
        let right = vec![t(1, 9, 0, 1), t(1, 1, 1, 2), t(1, 9, 2, 3)];
        // t=2 [1,2]: left {seq0,seq1} × right {seq0 (9 passes)} on key 1 → (0,0)
        // t=3 [2,3]: left {seq1,seq2} × right {seq2} on key 1 → (2,2)
        let d = evaluate(&w, &q, &[left, right]);
        assert_eq!(d.rows, 2);
    }
}
