//! The analyzer and adaptive-plan compiler.
//!
//! [`Planner::plan`] binds a parsed query against the catalog and
//! produces a [`QueryPlan`]: streams with their full-layout offsets, the
//! WHERE clause decomposed into boolean factors (single- and
//! multi-variable filters plus equi-join edges), resolved projections
//! and aggregates, and the window sequence. [`QueryPlan::build_eddy_vectorized`]
//! then emits the adaptive plan — an Eddy wired with filter modules and
//! SteMs — that the executor folds into its running dataflow.

use tcq_common::{
    Catalog, CmpOp, Consistency, Expr, Field, Result, Schema, StreamKind, TcqError, Tuple, Value,
};
use tcq_eddy::{Eddy, EddyBuilder, FilterOp, Layout, RoutingPolicy, StemOp};
use tcq_windows::{AggKind, Bound, ForLoop, LoopCond, WindowIs, WindowSeq};

use crate::ast::{AstExpr, AstForLoop, AstLoopCond, AstLoopStep, QueryAst, SelectItem};

/// A FROM-list stream bound to the catalog.
#[derive(Debug, Clone)]
pub struct BoundStream {
    /// Catalog name.
    pub name: String,
    /// Alias used in the query (defaults to the name).
    pub alias: String,
    /// Column layout.
    pub schema: Schema,
    /// Whether it is a live stream or a static table in the catalog.
    pub kind: StreamKind,
    /// Offset of this stream's first column in the full layout.
    pub offset: usize,
    /// Number of columns.
    pub arity: usize,
    /// Whether the query declared a window over it (absent ⇒ treated as
    /// a static table, per §4.1.1).
    pub windowed: bool,
}

/// An equi-join boolean factor: full-layout columns that must be equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinEdge {
    /// One side (full-layout column).
    pub a: usize,
    /// Other side (full-layout column).
    pub b: usize,
}

/// A resolved output column.
#[derive(Debug, Clone)]
pub struct OutputCol {
    /// Column name in the result schema.
    pub name: String,
    /// Scalar projection, or `None` for aggregate outputs.
    pub expr: Option<Expr>,
    /// Aggregate, when this output is one.
    pub agg: Option<(AggKind, Option<Expr>)>,
}

/// A fully analyzed continuous query.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// Streams in FROM order (their order defines the full layout).
    pub streams: Vec<BoundStream>,
    /// Non-join boolean factors (full-layout expressions).
    pub filters: Vec<Expr>,
    /// Equi-join edges.
    pub joins: Vec<JoinEdge>,
    /// Output columns (projections and/or aggregates).
    pub outputs: Vec<OutputCol>,
    /// GROUP BY columns (full layout), when aggregating.
    pub group_by: Vec<Expr>,
    /// The window sequence, if the query declared one.
    pub window: Option<WindowSeq>,
    /// `SELECT DISTINCT`: result rows are duplicate-eliminated.
    pub distinct: bool,
    /// ORDER BY: output column positions with descending flags, applied
    /// per result set.
    pub order_by: Vec<(usize, bool)>,
    /// Per-query consistency level from `WITH CONSISTENCY`; `None`
    /// defers to the engine default (see `Config::consistency`).
    pub consistency: Option<Consistency>,
}

/// Plans queries against a catalog.
#[derive(Debug, Clone)]
pub struct Planner {
    catalog: Catalog,
}

impl Planner {
    /// A planner over `catalog`.
    pub fn new(catalog: Catalog) -> Planner {
        Planner { catalog }
    }

    /// Parse and plan in one step.
    pub fn plan_sql(&self, sql: &str) -> Result<QueryPlan> {
        self.plan(&crate::parser::parse(sql)?)
    }

    /// Analyze a parsed query.
    pub fn plan(&self, ast: &QueryAst) -> Result<QueryPlan> {
        // 1. Bind FROM items.
        let mut streams = Vec::new();
        let mut joint = Schema::unqualified(vec![]);
        let mut offset = 0;
        for item in &ast.from {
            let def = self.catalog.lookup(&item.name)?;
            let alias = item
                .alias
                .clone()
                .unwrap_or_else(|| item.name.clone())
                .to_ascii_lowercase();
            if streams.iter().any(|s: &BoundStream| s.alias == alias) {
                return Err(TcqError::PlanError(format!(
                    "duplicate relation alias {alias}"
                )));
            }
            let schema = def.schema.with_qualifier(alias.clone());
            joint = joint.join(&schema);
            let arity = schema.len();
            streams.push(BoundStream {
                name: def.name.clone(),
                alias,
                schema,
                kind: def.kind,
                offset,
                arity,
                windowed: false,
            });
            offset += arity;
        }

        // 2. Resolve WHERE and split into boolean factors.
        let mut filters = Vec::new();
        let mut joins = Vec::new();
        if let Some(w) = &ast.where_clause {
            let resolved = resolve_expr(w, &joint)?;
            let layout = Layout::new(streams.iter().map(|s| s.arity).collect());
            for conjunct in resolved.conjuncts() {
                if let Expr::Cmp(CmpOp::Eq, a, b) = conjunct {
                    if let (Expr::Column(ca), Expr::Column(cb)) = (a.as_ref(), b.as_ref()) {
                        let sa = layout.stream_of_column(*ca);
                        let sb = layout.stream_of_column(*cb);
                        if sa != sb {
                            joins.push(JoinEdge { a: *ca, b: *cb });
                            continue;
                        }
                    }
                }
                filters.push(conjunct.clone());
            }
        }

        // 3. Resolve the SELECT list and GROUP BY.
        let group_by: Vec<Expr> = ast
            .group_by
            .iter()
            .map(|g| resolve_expr(g, &joint))
            .collect::<Result<_>>()?;
        let mut outputs = Vec::new();
        let mut has_agg = false;
        for (i, item) in ast.select.iter().enumerate() {
            match item {
                SelectItem::Star => {
                    for (pos, (q, f)) in joint.iter().enumerate() {
                        let name = match q {
                            Some(q) if ast.from.len() > 1 => format!("{q}.{}", f.name),
                            _ => f.name.clone(),
                        };
                        outputs.push(OutputCol {
                            name,
                            expr: Some(Expr::Column(pos)),
                            agg: None,
                        });
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    let resolved = resolve_expr(expr, &joint)?;
                    let name = alias.clone().unwrap_or_else(|| default_name(expr, i));
                    outputs.push(OutputCol {
                        name,
                        expr: Some(resolved),
                        agg: None,
                    });
                }
                SelectItem::Agg { func, arg, alias } => {
                    has_agg = true;
                    let kind = AggKind::from_name(func)
                        .ok_or_else(|| TcqError::PlanError(format!("unknown aggregate {func}")))?;
                    let arg = match arg {
                        None if kind == AggKind::Count => None,
                        None => {
                            return Err(TcqError::PlanError(format!("{kind} requires an argument")))
                        }
                        Some(a) => Some(resolve_expr(a, &joint)?),
                    };
                    let name = alias
                        .clone()
                        .unwrap_or_else(|| format!("{}", kind).to_ascii_lowercase());
                    outputs.push(OutputCol {
                        name,
                        expr: None,
                        agg: Some((kind, arg)),
                    });
                }
            }
        }
        if has_agg {
            // Every plain output must be one of the GROUP BY expressions.
            for out in outputs.iter().filter(|o| o.agg.is_none()) {
                let e = out.expr.as_ref().expect("plain outputs have exprs");
                if !group_by.iter().any(|g| g == e) {
                    return Err(TcqError::PlanError(format!(
                        "column {} must appear in GROUP BY when aggregating",
                        out.name
                    )));
                }
            }
        } else if !group_by.is_empty() {
            return Err(TcqError::PlanError(
                "GROUP BY without aggregates is not supported".into(),
            ));
        }

        // 4. ORDER BY: items name output columns (by alias/name or
        //    1-based position), since sorting applies to result sets.
        let mut order_by = Vec::new();
        for (item, desc) in &ast.order_by {
            let pos = match item {
                AstExpr::Literal(Value::Int(n)) => {
                    let n = *n;
                    if n < 1 || n as usize > outputs.len() {
                        return Err(TcqError::PlanError(format!(
                            "ORDER BY position {n} out of range"
                        )));
                    }
                    n as usize - 1
                }
                AstExpr::Column {
                    qualifier: None,
                    name,
                } => {
                    let lname = name.to_ascii_lowercase();
                    outputs
                        .iter()
                        .position(|o| o.name == lname)
                        .ok_or_else(|| {
                            TcqError::PlanError(format!(
                                "ORDER BY column {name} is not an output column"
                            ))
                        })?
                }
                other => {
                    return Err(TcqError::PlanError(format!(
                        "ORDER BY supports output names or positions, got {other:?}"
                    )))
                }
            };
            order_by.push((pos, *desc));
        }

        // 5. Windows.
        let window = match &ast.window {
            None => None,
            Some(fl) => Some(plan_window(fl, &mut streams)?),
        };

        Ok(QueryPlan {
            streams,
            filters,
            joins,
            outputs,
            group_by,
            window,
            distinct: ast.distinct,
            order_by,
            consistency: ast.consistency,
        })
    }
}

/// Derive a stable output name for an unaliased select expression.
fn default_name(expr: &AstExpr, index: usize) -> String {
    match expr {
        AstExpr::Column { name, .. } => name.to_ascii_lowercase(),
        _ => format!("col{index}"),
    }
}

/// Resolve an AST expression against the joint schema.
fn resolve_expr(e: &AstExpr, schema: &Schema) -> Result<Expr> {
    Ok(match e {
        AstExpr::Column { qualifier, name } => {
            Expr::Column(schema.resolve(qualifier.as_deref(), name)?)
        }
        AstExpr::Literal(v) => Expr::Literal(v.clone()),
        AstExpr::Cmp(op, a, b) => Expr::Cmp(
            *op,
            Box::new(resolve_expr(a, schema)?),
            Box::new(resolve_expr(b, schema)?),
        ),
        AstExpr::Arith(op, a, b) => Expr::Arith(
            *op,
            Box::new(resolve_expr(a, schema)?),
            Box::new(resolve_expr(b, schema)?),
        ),
        AstExpr::And(a, b) => resolve_expr(a, schema)?.and(resolve_expr(b, schema)?),
        AstExpr::Or(a, b) => resolve_expr(a, schema)?.or(resolve_expr(b, schema)?),
        AstExpr::Not(a) => Expr::Not(Box::new(resolve_expr(a, schema)?)),
        AstExpr::IsNull(a) => Expr::IsNull(Box::new(resolve_expr(a, schema)?)),
        AstExpr::Neg(a) => Expr::Neg(Box::new(resolve_expr(a, schema)?)),
    })
}

/// Convert the AST for-loop into a [`WindowSeq`], marking windowed
/// streams.
fn plan_window(fl: &AstForLoop, streams: &mut [BoundStream]) -> Result<WindowSeq> {
    let cond = match fl.cond {
        AstLoopCond::Forever => LoopCond::Forever,
        AstLoopCond::Lt(n) => LoopCond::Lt(n),
        AstLoopCond::Le(n) => LoopCond::Le(n),
        AstLoopCond::EqOnce(n) => {
            if n != fl.init {
                return Err(TcqError::PlanError(format!(
                    "snapshot condition t == {n} never holds with t starting at {}",
                    fl.init
                )));
            }
            LoopCond::Once
        }
    };
    let step = match fl.step {
        AstLoopStep::Add(k) => k,
        AstLoopStep::Set(_) => {
            if cond != LoopCond::Once {
                return Err(TcqError::PlanError(
                    "t = <value> as the loop change is only valid in snapshot queries".into(),
                ));
            }
            -1
        }
    };
    let mut windows = Vec::new();
    for w in &fl.windows {
        let alias = w.stream.to_ascii_lowercase();
        let stream = streams
            .iter_mut()
            .find(|s| s.alias == alias)
            .ok_or_else(|| {
                TcqError::PlanError(format!("WindowIs references unknown relation {alias}"))
            })?;
        stream.windowed = true;
        windows.push(WindowIs::new(
            alias,
            Bound::affine(w.left.coeff, w.left.offset),
            Bound::affine(w.right.coeff, w.right.offset),
        ));
    }
    Ok(WindowSeq {
        header: ForLoop {
            init: fl.init,
            cond,
            step,
        },
        windows,
        domain: tcq_common::TimeDomain::LOGICAL,
    })
}

impl QueryPlan {
    /// The full-layout [`Layout`] of this plan.
    pub fn layout(&self) -> Layout {
        Layout::new(self.streams.iter().map(|s| s.arity).collect())
    }

    /// Index of the stream bound to `alias` (or name).
    pub fn stream_index(&self, alias: &str) -> Option<usize> {
        let alias = alias.to_ascii_lowercase();
        self.streams
            .iter()
            .position(|s| s.alias == alias || s.name == alias)
    }

    /// Whether any output is an aggregate.
    pub fn is_aggregating(&self) -> bool {
        self.outputs.iter().any(|o| o.agg.is_some())
    }

    /// The result schema.
    pub fn output_schema(&self) -> Schema {
        Schema::unqualified(
            self.outputs
                .iter()
                .map(|o| Field::new(o.name.clone(), tcq_common::DataType::Null))
                .collect(),
        )
    }

    /// Apply the scalar projections to a full-layout tuple (non-agg
    /// queries only).
    pub fn project(&self, tuple: &Tuple) -> Result<Tuple> {
        let fields: Vec<Value> = self
            .outputs
            .iter()
            .map(|o| {
                o.expr
                    .as_ref()
                    .expect("project() requires non-aggregate outputs")
                    .eval(tuple)
            })
            .collect::<Result<_>>()?;
        Ok(Tuple::new(fields, tuple.ts()))
    }

    /// Sort projected result rows per the plan's ORDER BY (stable;
    /// NULLs and incomparable values sort last).
    pub fn sort_rows(&self, rows: &mut [Tuple]) {
        if self.order_by.is_empty() {
            return;
        }
        rows.sort_by(|a, b| {
            for &(pos, desc) in &self.order_by {
                let (va, vb) = (a.field(pos), b.field(pos));
                let ord = match va.sql_cmp(vb) {
                    Some(o) => o,
                    // UNKNOWN (NULL / cross-type): push after comparable
                    // values, deterministically.
                    None => match (va.is_null(), vb.is_null()) {
                        (true, false) => std::cmp::Ordering::Greater,
                        (false, true) => std::cmp::Ordering::Less,
                        _ => std::cmp::Ordering::Equal,
                    },
                };
                let ord = if desc { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
    }

    /// Render a human-readable description of the adaptive plan — the
    /// CQ analogue of `EXPLAIN`. Shows the execution class, the modules
    /// an eddy would be wired with, the window sequence, and the output
    /// shape.
    pub fn explain(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let class = if self.window.is_some() {
            "windowed (driver releases one result set per loop instant)"
        } else if self.streams.len() == 1
            && self.joins.is_empty()
            && !self.is_aggregating()
            && !self.filters.is_empty()
            && self
                .filters
                .iter()
                .all(|f| f.as_single_column_cmp().is_some())
        {
            "shared (folds into the CACQ grouped-filter engine)"
        } else {
            "continuous (dedicated adaptive eddy)"
        };
        let _ = writeln!(out, "Continuous Query Plan");
        let _ = writeln!(out, "  class: {class}");
        for bs in &self.streams {
            let _ = writeln!(
                out,
                "  scan: {} AS {} [{}{}]",
                bs.name,
                bs.alias,
                if bs.kind == StreamKind::Stream {
                    "stream"
                } else {
                    "table"
                },
                if bs.windowed { ", windowed" } else { "" }
            );
        }
        for f in &self.filters {
            let _ = writeln!(out, "  filter: {f}");
        }
        let layout = self.layout();
        for e in &self.joins {
            let (sa, sb) = (
                layout.stream_of_column(e.a).unwrap_or(0),
                layout.stream_of_column(e.b).unwrap_or(0),
            );
            let _ = writeln!(
                out,
                "  join (shared SteMs): {}.#{} = {}.#{}",
                self.streams[sa].alias,
                e.a - self.streams[sa].offset,
                self.streams[sb].alias,
                e.b - self.streams[sb].offset,
            );
        }
        if let Some(seq) = &self.window {
            let _ = writeln!(
                out,
                "  for-loop: init {} step {} ({:?})",
                seq.header.init, seq.header.step, seq.header.cond
            );
            for w in &seq.windows {
                let _ = writeln!(
                    out,
                    "    WindowIs({}, {}t{:+}, {}t{:+}) [{:?}]",
                    w.stream,
                    w.left.coeff,
                    w.left.offset,
                    w.right.coeff,
                    w.right.offset,
                    w.kind(seq.header.step, seq.header.cond)
                );
            }
        }
        let cols: Vec<String> = self
            .outputs
            .iter()
            .map(|o| match &o.agg {
                Some((k, _)) => format!("{}({})", k, o.name),
                None => o.name.clone(),
            })
            .collect();
        let _ = writeln!(
            out,
            "  output{}{}: ({})",
            if self.distinct { " DISTINCT" } else { "" },
            if self.order_by.is_empty() {
                ""
            } else {
                " ORDERED"
            },
            cols.join(", ")
        );
        if let Some(c) = self.consistency {
            let _ = writeln!(out, "  consistency: {c}");
        }
        out
    }

    /// Compile this plan into an adaptive Eddy plan.
    ///
    /// Filters become [`FilterOp`]s; each stream of a multi-stream query
    /// gets a [`StemOp`] whose probe specs come from its incident join
    /// edges (a stream with no incident edge gets an empty-key SteM —
    /// a cartesian building block).
    ///
    /// `batch_size` is the §4.3 batching knob: one routing decision can
    /// cover up to that many same-lineage tuples — the executor passes
    /// its pipeline batch size here so batches fed via
    /// [`Eddy::push_batch`] share decisions end to end. `columnar` opts
    /// the eddy into columnar execution (`Config::columnar`):
    /// filter-only single-stream plans route whole
    /// [`tcq_common::ColumnBatch`]es through vectorized predicate
    /// kernels, and join plans build their SteM hash keys from column
    /// slices. Results are byte-identical to the row path either way.
    pub fn build_eddy_vectorized(
        &self,
        policy: Box<dyn RoutingPolicy>,
        batch_size: usize,
        columnar: bool,
    ) -> Result<Eddy> {
        let layout = self.layout();
        let mut builder = EddyBuilder::new(self.streams.iter().map(|s| s.arity).collect(), policy)
            .batch_size(batch_size)
            .columnar(columnar);
        for (i, f) in self.filters.iter().enumerate() {
            builder = builder.filter(FilterOp::new(format!("filter{i}"), f.clone()));
        }
        if self.streams.len() > 1 {
            for (si, stream) in self.streams.iter().enumerate() {
                let mut specs: Vec<(Vec<usize>, Vec<usize>)> = Vec::new();
                for edge in &self.joins {
                    let (mine, other) = if layout.stream_of_column(edge.a) == Some(si) {
                        (edge.a, edge.b)
                    } else if layout.stream_of_column(edge.b) == Some(si) {
                        (edge.b, edge.a)
                    } else {
                        continue;
                    };
                    specs.push((vec![mine - stream.offset], vec![other]));
                }
                let mut op = match specs.first() {
                    Some((local, full)) => StemOp::new(
                        format!("stem.{}", stream.alias),
                        si,
                        local.clone(),
                        full.clone(),
                    ),
                    // No incident edges: cartesian SteM (empty key).
                    None => StemOp::new(format!("stem.{}", stream.alias), si, vec![], vec![]),
                };
                for (local, full) in specs.into_iter().skip(1) {
                    op = op.with_probe(local, full);
                }
                builder = builder.stem(op);
            }
        }
        Ok(builder.build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcq_common::{DataType, Field};
    use tcq_eddy::NaivePolicy;
    use tcq_windows::WindowKind;

    fn catalog() -> Catalog {
        let c = Catalog::new();
        c.register_stream(
            "ClosingStockPrices",
            Schema::qualified(
                "closingstockprices",
                vec![
                    Field::new("timestamp", DataType::Int),
                    Field::new("stockSymbol", DataType::Str),
                    Field::new("closingPrice", DataType::Float),
                ],
            ),
        )
        .unwrap();
        c.register_table(
            "Companies",
            Schema::qualified(
                "companies",
                vec![
                    Field::new("symbol", DataType::Str),
                    Field::new("sector", DataType::Str),
                ],
            ),
        )
        .unwrap();
        c
    }

    fn planner() -> Planner {
        Planner::new(catalog())
    }

    #[test]
    fn paper_landmark_query_plans() {
        let p = planner()
            .plan_sql(
                "SELECT closingPrice, timestamp \
                 FROM ClosingStockPrices \
                 WHERE stockSymbol = 'MSFT' AND closingPrice > 50.00 \
                 for (t = 101; t <= 1100; t++) { \
                   WindowIs(ClosingStockPrices, 101, t); \
                 }",
            )
            .unwrap();
        assert_eq!(p.streams.len(), 1);
        assert!(p.streams[0].windowed);
        assert_eq!(p.filters.len(), 2);
        assert!(p.joins.is_empty());
        assert_eq!(p.outputs.len(), 2);
        let w = p.window.as_ref().unwrap();
        assert_eq!(
            w.windows[0].kind(w.header.step, w.header.cond),
            WindowKind::Landmark
        );
    }

    #[test]
    fn join_edges_extracted() {
        let p = planner()
            .plan_sql(
                "SELECT c1.closingPrice, c2.closingPrice \
                 FROM ClosingStockPrices c1, ClosingStockPrices c2 \
                 WHERE c1.stockSymbol = 'MSFT' AND c2.stockSymbol = 'IBM' \
                   AND c2.closingPrice > c1.closingPrice \
                   AND c2.timestamp = c1.timestamp \
                 for (t = 50; t < 70; t++) { \
                   WindowIs(c1, t - 4, t); \
                   WindowIs(c2, t - 4, t); \
                 }",
            )
            .unwrap();
        assert_eq!(p.streams.len(), 2);
        assert_eq!(p.joins.len(), 1, "c2.timestamp = c1.timestamp is a join");
        assert_eq!(p.filters.len(), 3, "two symbol filters + price residual");
        // Full layout: c1 = cols 0..3, c2 = cols 3..6.
        let e = p.joins[0];
        let cols = [e.a.min(e.b), e.a.max(e.b)];
        assert_eq!(cols, [0, 3]);
    }

    #[test]
    fn same_stream_equality_is_a_filter_not_a_join() {
        let p = planner()
            .plan_sql("SELECT * FROM ClosingStockPrices WHERE timestamp = closingPrice")
            .unwrap();
        assert!(p.joins.is_empty());
        assert_eq!(p.filters.len(), 1);
    }

    #[test]
    fn star_expands_with_qualifiers_on_joins() {
        let p = planner()
            .plan_sql("SELECT * FROM ClosingStockPrices c1, Companies c2")
            .unwrap();
        assert_eq!(p.outputs.len(), 5);
        assert_eq!(p.outputs[0].name, "c1.timestamp");
        assert_eq!(p.outputs[3].name, "c2.symbol");
    }

    #[test]
    fn aggregates_validated_against_group_by() {
        let ok = planner().plan_sql(
            "SELECT stockSymbol, MAX(closingPrice) FROM ClosingStockPrices GROUP BY stockSymbol",
        );
        assert!(ok.is_ok());
        assert!(ok.unwrap().is_aggregating());
        let bad = planner().plan_sql(
            "SELECT closingPrice, MAX(closingPrice) FROM ClosingStockPrices GROUP BY stockSymbol",
        );
        assert!(bad.is_err());
        let bad2 =
            planner().plan_sql("SELECT stockSymbol FROM ClosingStockPrices GROUP BY stockSymbol");
        assert!(bad2.is_err(), "GROUP BY without aggregates");
        let bad3 = planner().plan_sql("SELECT SUM(*) FROM ClosingStockPrices");
        assert!(bad3.is_err(), "SUM(*) is invalid");
    }

    #[test]
    fn unknown_names_error() {
        assert!(matches!(
            planner().plan_sql("SELECT * FROM nosuch"),
            Err(TcqError::UnknownStream(_))
        ));
        assert!(matches!(
            planner().plan_sql("SELECT nosuch FROM ClosingStockPrices"),
            Err(TcqError::UnknownColumn { .. })
        ));
        assert!(planner()
            .plan_sql("SELECT * FROM ClosingStockPrices for (;;) { WindowIs(other, 1, 2); }")
            .is_err());
        assert!(planner()
            .plan_sql("SELECT * FROM ClosingStockPrices c, ClosingStockPrices c")
            .is_err());
    }

    #[test]
    fn snapshot_idiom_validated() {
        let ok = planner().plan_sql(
            "SELECT * FROM ClosingStockPrices for (; t == 0; t = -1) { \
             WindowIs(ClosingStockPrices, 1, 5); }",
        );
        assert!(ok.is_ok());
        let bad = planner().plan_sql(
            "SELECT * FROM ClosingStockPrices for (t = 5; t == 0; t = -1) { \
             WindowIs(ClosingStockPrices, 1, 5); }",
        );
        assert!(bad.is_err());
    }

    #[test]
    fn projection_applies() {
        let p = planner()
            .plan_sql("SELECT closingPrice, stockSymbol FROM ClosingStockPrices")
            .unwrap();
        let t = Tuple::at_seq(
            vec![Value::Int(1), Value::str("MSFT"), Value::Float(50.0)],
            1,
        );
        let out = p.project(&t).unwrap();
        assert_eq!(out.fields(), &[Value::Float(50.0), Value::str("MSFT")]);
        assert_eq!(p.output_schema().field(1).name, "stocksymbol");
    }

    #[test]
    fn end_to_end_filter_query_through_eddy() {
        let p = planner()
            .plan_sql(
                "SELECT closingPrice FROM ClosingStockPrices \
                 WHERE stockSymbol = 'MSFT' AND closingPrice > 50.0",
            )
            .unwrap();
        let mut eddy = p
            .build_eddy_vectorized(Box::new(NaivePolicy::new(1)), 1, false)
            .unwrap();
        let mut results = Vec::new();
        for (i, (sym, price)) in [
            ("MSFT", 60.0),
            ("IBM", 70.0),
            ("MSFT", 40.0),
            ("MSFT", 90.0),
        ]
        .iter()
        .enumerate()
        {
            let t = Tuple::at_seq(
                vec![Value::Int(i as i64), Value::str(*sym), Value::Float(*price)],
                i as i64,
            );
            for full in eddy.push(0, t) {
                results.push(p.project(&full).unwrap());
            }
        }
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].field(0), &Value::Float(60.0));
        assert_eq!(results[1].field(0), &Value::Float(90.0));
    }

    #[test]
    fn end_to_end_join_query_through_eddy() {
        // Paper example 4 shape: MSFT vs IBM, same day, IBM higher.
        let p = planner()
            .plan_sql(
                "SELECT c1.closingPrice, c2.closingPrice \
                 FROM ClosingStockPrices c1, ClosingStockPrices c2 \
                 WHERE c1.stockSymbol = 'MSFT' AND c2.stockSymbol = 'IBM' \
                   AND c2.closingPrice > c1.closingPrice \
                   AND c2.timestamp = c1.timestamp",
            )
            .unwrap();
        let mut eddy = p
            .build_eddy_vectorized(Box::new(NaivePolicy::new(7)), 1, false)
            .unwrap();
        let day = |d: i64, sym: &str, price: f64| {
            Tuple::at_seq(vec![Value::Int(d), Value::str(sym), Value::Float(price)], d)
        };
        let mut results = Vec::new();
        for d in 1..=5i64 {
            // Every day has an MSFT and an IBM quote; both sides of the
            // self-join receive every tuple.
            for t in [day(d, "MSFT", 50.0 + d as f64), day(d, "IBM", 53.0)] {
                for full in eddy.push(0, t.clone()) {
                    results.push(p.project(&full).unwrap());
                }
                for full in eddy.push(1, t) {
                    results.push(p.project(&full).unwrap());
                }
            }
        }
        // IBM (53) > MSFT (50+d) only for d in {1, 2}.
        assert_eq!(results.len(), 2);
        for r in &results {
            let msft = r.field(0).as_float().unwrap();
            let ibm = r.field(1).as_float().unwrap();
            assert!(ibm > msft);
        }
    }

    #[test]
    fn explain_describes_the_plan() {
        let p = planner()
            .plan_sql(
                "SELECT c1.closingPrice FROM ClosingStockPrices c1, ClosingStockPrices c2 \
                 WHERE c1.stockSymbol = 'MSFT' AND c2.timestamp = c1.timestamp \
                 for (t = 5; t <= 9; t++) { WindowIs(c1, t - 4, t); WindowIs(c2, t - 4, t); }",
            )
            .unwrap();
        let text = p.explain();
        assert!(text.contains("class: windowed"), "{text}");
        assert!(text.contains("join (shared SteMs)"), "{text}");
        assert!(text.contains("Sliding"), "{text}");
        let shared = planner()
            .plan_sql("SELECT closingPrice FROM ClosingStockPrices WHERE closingPrice > 1.0")
            .unwrap();
        assert!(shared.explain().contains("class: shared"));
        let tap = planner()
            .plan_sql("SELECT * FROM ClosingStockPrices")
            .unwrap();
        assert!(tap.explain().contains("class: continuous"));
    }

    #[test]
    fn cartesian_join_gets_empty_key_stem() {
        let p = planner()
            .plan_sql("SELECT * FROM ClosingStockPrices c1, Companies c2")
            .unwrap();
        assert!(p.joins.is_empty());
        let mut eddy = p
            .build_eddy_vectorized(Box::new(NaivePolicy::new(3)), 1, false)
            .unwrap();
        let quote = Tuple::at_seq(
            vec![Value::Int(1), Value::str("MSFT"), Value::Float(50.0)],
            1,
        );
        let company = Tuple::at_seq(vec![Value::str("MSFT"), Value::str("tech")], 2);
        assert!(eddy.push(0, quote).is_empty());
        assert_eq!(eddy.push(1, company).len(), 1, "cartesian pairing");
    }
}
