//! The rewrite rule engine.
//!
//! Every rewrite here is proven against the engine's 3VL + error
//! semantics, not plain boolean algebra. The engine evaluates *both*
//! operands of `AND`/`OR` (no short-circuit), propagates evaluation
//! errors (division by zero, overflow) upward, and drops a row when a
//! WHERE conjunct yields anything other than SQL TRUE — including an
//! error. A rewrite is applied only when it is **value-safe**: `eval`
//! returns the identical `Result<Value>` for every tuple, so it holds
//! in filters, projections, and grouping alike, at any nesting depth.
//!
//! Concretely:
//! * constant folding replaces a column-free subtree with its value
//!   only when evaluation *succeeds* — erroring constants (`1/0`) keep
//!   their error;
//! * `NOT (a <op> b)` → `a <!op> b` is unconditionally value-safe
//!   (comparisons yield Bool/NULL and evaluate both operands);
//! * De Morgan, double negation, and TRUE/FALSE absorption require the
//!   affected operand to be *boolean-shaped* (certainly Bool or NULL),
//!   because `NOT <non-boolean>` errors while `AND`/`OR` coerce a
//!   non-boolean like NULL;
//! * `x OR TRUE → TRUE` and `x AND FALSE → FALSE` are **never** applied
//!   to column-bearing `x`: if `x` errors, the original drops the row
//!   (or poisons an enclosing NOT) while the folded form would not.
//!
//! CNF distribution of OR over AND is value-safe (Kleene logic is
//! distributive and both forms evaluate the same operand set) and is
//! bounded by a factor budget so pathological predicates do not blow
//! up. Canonical term ordering — commutative operand sorting, a
//! literal-left comparison flip, and sorting the conjunct list — is
//! what makes `a AND b` and `b AND a` land on one plan signature.

use tcq_common::{CmpOp, Expr, Tuple, Value};

use crate::logical::LogicalPlan;

/// Upper bound on CNF expansion: distributing OR over AND is abandoned
/// for a conjunct when it would produce more than this many factors.
const CNF_MAX_FACTORS: usize = 16;

/// Rewrite `lp` in place; returns the names of the rules that changed
/// something, in application order (for EXPLAIN).
pub fn rewrite(lp: &mut LogicalPlan) -> Vec<&'static str> {
    let mut applied = Vec::new();
    let mark = |name: &'static str, changed: bool, applied: &mut Vec<&'static str>| {
        if changed && !applied.contains(&name) {
            applied.push(name);
        }
    };

    // 1. Constant folding — value-safe, so outputs and grouping fold too.
    let mut changed = false;
    for c in &mut lp.predicate {
        changed |= fold_in_place(&mut c.expr);
    }
    for o in &mut lp.outputs {
        if let Some(e) = &mut o.expr {
            changed |= fold_in_place(e);
        }
        if let Some((_, Some(arg))) = &mut o.agg {
            changed |= fold_in_place(arg);
        }
    }
    for g in &mut lp.group_by {
        changed |= fold_in_place(g);
    }
    mark("const_fold", changed, &mut applied);

    // 2. Simplification: NOT pushdown (De Morgan + comparison
    //    negation), double negation, TRUE/FALSE absorption.
    let mut changed = false;
    for c in &mut lp.predicate {
        changed |= simplify_in_place(&mut c.expr);
    }
    mark("simplify", changed, &mut applied);

    // 3. CNF normalization with a size guard, then re-split top-level
    //    ANDs into separate boolean factors (splitting is exact: AND
    //    evaluates both sides, so "all factors TRUE" and errors match
    //    the composite). Conjuncts folded to literal TRUE are dropped —
    //    at the top level of the WHERE clause a TRUE factor never
    //    affects the pass/drop decision.
    let mut changed = false;
    let mut split: Vec<Expr> = Vec::new();
    for c in lp.predicate.drain(..) {
        let factors = cnf_factors(&c.expr);
        changed |= factors.len() != 1 || factors[0] != c.expr;
        split.extend(factors);
    }
    let mut rebuilt = Vec::with_capacity(split.len());
    for mut e in split {
        fold_in_place(&mut e);
        simplify_in_place(&mut e);
        if matches!(e, Expr::Literal(Value::Bool(true))) {
            changed = true;
            continue;
        }
        rebuilt.push(e);
    }
    lp.predicate = rebuilt
        .into_iter()
        .map(|e| {
            let mut lpless = lp.make_conjunct(e);
            // canonical operand ordering + literal-left flip before the
            // final indexability check.
            if canonicalize_in_place(&mut lpless.expr) {
                lpless.indexable = lpless.expr.as_single_column_cmp();
            }
            lpless
        })
        .collect();
    mark("cnf", changed, &mut applied);

    // 4. Canonical term ordering across the conjunct list.
    let before: Vec<String> = lp.predicate.iter().map(|c| c.expr.to_string()).collect();
    lp.predicate.sort_by_key(|c| c.expr.to_string());
    let after: Vec<String> = lp.predicate.iter().map(|c| c.expr.to_string()).collect();
    mark("order_terms", before != after, &mut applied);

    // 5/6. Pushdown + projection pruning are annotations recomputed
    //      from the final predicate (EXPLAIN shows them; the shared
    //      family evaluator uses live columns to materialize less).
    lp.annotate();
    if lp.scans.iter().any(|s| !s.pushed.is_empty()) {
        applied.push("pushdown");
    }
    if lp.scans.iter().any(|s| s.live_cols.len() < s.stream.arity) {
        applied.push("prune_projection");
    }
    applied
}

/// Fold column-free subtrees to literals when they evaluate cleanly.
pub fn fold_in_place(e: &mut Expr) -> bool {
    let mut changed = false;
    fold_rec(e, &mut changed);
    changed
}

fn fold_rec(e: &mut Expr, changed: &mut bool) -> bool {
    // Returns whether the subtree is column-free.
    let column_free = match e {
        Expr::Column(_) => false,
        Expr::Literal(_) => true,
        Expr::Cmp(_, a, b) | Expr::Arith(_, a, b) | Expr::And(a, b) | Expr::Or(a, b) => {
            let fa = fold_rec(a, changed);
            let fb = fold_rec(b, changed);
            fa && fb
        }
        Expr::Not(a) | Expr::IsNull(a) | Expr::Neg(a) => fold_rec(a, changed),
    };
    if column_free && !matches!(e, Expr::Literal(_)) {
        let empty = Tuple::at_seq(vec![], 0);
        if let Ok(v) = e.eval(&empty) {
            *e = Expr::Literal(v);
            *changed = true;
        }
    }
    column_free
}

/// Whether an expression certainly evaluates to Bool or NULL (never a
/// non-boolean value, though it may still error).
fn boolean_shaped(e: &Expr) -> bool {
    match e {
        Expr::Cmp(..) | Expr::IsNull(_) => true,
        Expr::Literal(v) => matches!(v, Value::Bool(_) | Value::Null),
        Expr::And(a, b) | Expr::Or(a, b) => boolean_shaped(a) && boolean_shaped(b),
        Expr::Not(a) => boolean_shaped(a),
        Expr::Column(_) | Expr::Arith(..) | Expr::Neg(_) => false,
    }
}

fn negated_cmp(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Eq => CmpOp::Ne,
        CmpOp::Ne => CmpOp::Eq,
        CmpOp::Lt => CmpOp::Ge,
        CmpOp::Ge => CmpOp::Lt,
        CmpOp::Gt => CmpOp::Le,
        CmpOp::Le => CmpOp::Gt,
    }
}

fn take(e: &mut Expr) -> Expr {
    std::mem::replace(e, Expr::Literal(Value::Null))
}

/// Value-safe simplification to a fixpoint.
pub fn simplify_in_place(e: &mut Expr) -> bool {
    let mut changed = false;
    loop {
        let step = simplify_step(e);
        changed |= step;
        if !step {
            break;
        }
    }
    changed
}

fn simplify_step(e: &mut Expr) -> bool {
    let mut changed = match e {
        Expr::Cmp(_, a, b) | Expr::Arith(_, a, b) | Expr::And(a, b) | Expr::Or(a, b) => {
            let ca = simplify_step(a);
            let cb = simplify_step(b);
            ca || cb
        }
        Expr::Not(a) | Expr::IsNull(a) | Expr::Neg(a) => simplify_step(a),
        _ => false,
    };
    let replacement = match e {
        // x AND TRUE → x when x is boolean-shaped (tvl_and(v, TRUE) = v
        // over {TRUE, FALSE, NULL}; errors in x propagate either way).
        Expr::And(a, b) => {
            if matches!(a.as_ref(), Expr::Literal(Value::Bool(true))) && boolean_shaped(b) {
                Some(take(b.as_mut()))
            } else if matches!(b.as_ref(), Expr::Literal(Value::Bool(true))) && boolean_shaped(a) {
                Some(take(a.as_mut()))
            } else {
                None
            }
        }
        // x OR FALSE → x under the same guard.
        Expr::Or(a, b) => {
            if matches!(a.as_ref(), Expr::Literal(Value::Bool(false))) && boolean_shaped(b) {
                Some(take(b.as_mut()))
            } else if matches!(b.as_ref(), Expr::Literal(Value::Bool(false))) && boolean_shaped(a) {
                Some(take(a.as_mut()))
            } else {
                None
            }
        }
        Expr::Not(inner) => match inner.as_mut() {
            // NOT NOT x → x for boolean-shaped x.
            Expr::Not(x) if boolean_shaped(x) => Some(take(x.as_mut())),
            // NOT (a <op> b) → a <!op> b — unconditionally value-safe.
            Expr::Cmp(op, a, b) => Some(Expr::Cmp(
                negated_cmp(*op),
                Box::new(take(a.as_mut())),
                Box::new(take(b.as_mut())),
            )),
            // De Morgan, guarded on boolean shape of both operands.
            Expr::And(a, b) if boolean_shaped(a) && boolean_shaped(b) => Some(Expr::Or(
                Box::new(Expr::Not(Box::new(take(a.as_mut())))),
                Box::new(Expr::Not(Box::new(take(b.as_mut())))),
            )),
            Expr::Or(a, b) if boolean_shaped(a) && boolean_shaped(b) => Some(Expr::And(
                Box::new(Expr::Not(Box::new(take(a.as_mut())))),
                Box::new(Expr::Not(Box::new(take(b.as_mut())))),
            )),
            _ => None,
        },
        _ => None,
    };
    if let Some(r) = replacement {
        *e = r;
        changed = true;
    }
    changed
}

/// Conjunctive normal form with a size guard: returns the top-level
/// AND factors after distributing OR over AND. When the expansion
/// would exceed `CNF_MAX_FACTORS` the original expression is kept as
/// a single factor.
pub fn cnf_factors(e: &Expr) -> Vec<Expr> {
    fn go(e: &Expr, budget: usize) -> Option<Vec<Expr>> {
        match e {
            Expr::And(a, b) => {
                let mut fa = go(a, budget)?;
                let fb = go(b, budget)?;
                fa.extend(fb);
                if fa.len() > budget {
                    return None;
                }
                Some(fa)
            }
            Expr::Or(a, b) => {
                let fa = go(a, budget)?;
                let fb = go(b, budget)?;
                if fa.len().saturating_mul(fb.len()) > budget {
                    return None;
                }
                let mut out = Vec::with_capacity(fa.len() * fb.len());
                for x in &fa {
                    for y in &fb {
                        out.push(x.clone().or(y.clone()));
                    }
                }
                Some(out)
            }
            other => Some(vec![other.clone()]),
        }
    }
    match go(e, CNF_MAX_FACTORS) {
        Some(factors) if !factors.is_empty() => factors,
        _ => vec![e.clone()],
    }
}

/// Canonical form for signatures: order commutative AND/OR operands by
/// rendered form (both operands always evaluate, and 3VL AND/OR are
/// symmetric, so this is value-safe up to which of several errors
/// surfaces — either way the row drops) and flip literal-left
/// comparisons to column-left via [`CmpOp::flipped`].
pub fn canonicalize_in_place(e: &mut Expr) -> bool {
    let mut changed = match e {
        Expr::Cmp(_, a, b) | Expr::Arith(_, a, b) | Expr::And(a, b) | Expr::Or(a, b) => {
            let ca = canonicalize_in_place(a);
            let cb = canonicalize_in_place(b);
            ca || cb
        }
        Expr::Not(a) | Expr::IsNull(a) | Expr::Neg(a) => canonicalize_in_place(a),
        _ => false,
    };
    match e {
        Expr::Cmp(op, a, b) => {
            if matches!(
                (a.as_ref(), b.as_ref()),
                (Expr::Literal(_), Expr::Column(_))
            ) {
                let lit = take(a.as_mut());
                let col = take(b.as_mut());
                *e = Expr::Cmp(op.flipped(), Box::new(col), Box::new(lit));
                changed = true;
            }
        }
        Expr::And(a, b) | Expr::Or(a, b) if a.to_string() > b.to_string() => {
            std::mem::swap(a, b);
            changed = true;
        }
        _ => {}
    }
    changed
}
