//! Recursive-descent parser for CQ-SQL.

use tcq_common::{BinOp, CmpOp, Consistency, Result, TcqError, Value};

use crate::ast::{
    AstBound, AstExpr, AstForLoop, AstLoopCond, AstLoopStep, AstWindowIs, FromItem, QueryAst,
    SelectItem,
};
use crate::lexer::{tokenize, Spanned, Tok};

/// Parse one CQ-SQL query.
pub fn parse(src: &str) -> Result<QueryAst> {
    let tokens = tokenize(src)?;
    let mut p = Parser { tokens, pos: 0 };
    let q = p.query()?;
    if p.pos < p.tokens.len() {
        return Err(p.err("trailing input after query"));
    }
    Ok(q)
}

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
}

const AGG_FUNCS: [&str; 5] = ["COUNT", "SUM", "MIN", "MAX", "AVG"];

impl Parser {
    fn err(&self, message: impl Into<String>) -> TcqError {
        TcqError::ParseError {
            offset: self
                .tokens
                .get(self.pos)
                .or_else(|| self.tokens.last())
                .map_or(0, |s| s.offset),
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos).map(|s| &s.tok)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.tokens.get(self.pos).map(|s| s.tok.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Consume a specific token or error.
    fn expect(&mut self, tok: Tok, what: &str) -> Result<()> {
        if self.peek() == Some(&tok) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {what}")))
        }
    }

    /// Whether the next token is the keyword `kw` (case-insensitive).
    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    /// Consume the keyword if present.
    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.at_keyword(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected {kw}")))
        }
    }

    fn ident(&mut self, what: &str) -> Result<String> {
        match self.bump() {
            Some(Tok::Ident(s)) => Ok(s),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err(format!("expected {what}")))
            }
        }
    }

    fn int_literal(&mut self, what: &str) -> Result<i64> {
        // Allow a leading minus.
        let neg = self.peek() == Some(&Tok::Minus);
        if neg {
            self.pos += 1;
        }
        match self.bump() {
            Some(Tok::Int(v)) => Ok(if neg { -v } else { v }),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err(format!("expected {what}")))
            }
        }
    }

    fn query(&mut self) -> Result<QueryAst> {
        self.expect_keyword("SELECT")?;
        let distinct = self.eat_keyword("DISTINCT");
        let select = self.select_list()?;
        self.expect_keyword("FROM")?;
        let from = self.parse_from_list()?;
        let where_clause = if self.eat_keyword("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        let group_by = if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            let mut cols = vec![self.primary()?];
            while self.peek() == Some(&Tok::Comma) {
                self.pos += 1;
                cols.push(self.primary()?);
            }
            cols
        } else {
            Vec::new()
        };
        let order_by = if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            let mut items = vec![self.order_item()?];
            while self.peek() == Some(&Tok::Comma) {
                self.pos += 1;
                items.push(self.order_item()?);
            }
            items
        } else {
            Vec::new()
        };
        let window = if self.at_keyword("FOR") {
            Some(self.for_loop()?)
        } else {
            None
        };
        // The grammar puts ORDER BY before the for-loop; diagnose the
        // common misplacement instead of a bare "trailing input".
        if window.is_some() && self.at_keyword("ORDER") {
            return Err(self.err(
                "ORDER BY must precede the window for-loop: \
                 SELECT ... ORDER BY ... for (...) { WindowIs(...); }",
            ));
        }
        // Trailing consistency clause (after the for-loop, if any).
        let consistency = if self.eat_keyword("WITH") {
            self.expect_keyword("CONSISTENCY")?;
            let level = self.ident("consistency level")?;
            match Consistency::parse(&level) {
                Some(c) => Some(c),
                None => {
                    return Err(self.err(format!(
                        "unknown consistency level {level}: expected WATERMARK or SPECULATIVE"
                    )))
                }
            }
        } else {
            None
        };
        Ok(QueryAst {
            distinct,
            select,
            from,
            where_clause,
            group_by,
            order_by,
            window,
            consistency,
        })
    }

    /// One ORDER BY item: an output name or 1-based position, with an
    /// optional ASC/DESC.
    fn order_item(&mut self) -> Result<(AstExpr, bool)> {
        let e = self.primary()?;
        let desc = if self.eat_keyword("DESC") {
            true
        } else {
            self.eat_keyword("ASC");
            false
        };
        Ok((e, desc))
    }

    fn select_list(&mut self) -> Result<Vec<SelectItem>> {
        if self.peek() == Some(&Tok::Star) {
            self.pos += 1;
            return Ok(vec![SelectItem::Star]);
        }
        let mut items = vec![self.select_item()?];
        while self.peek() == Some(&Tok::Comma) {
            self.pos += 1;
            items.push(self.select_item()?);
        }
        Ok(items)
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        // Aggregate call?
        if let Some(Tok::Ident(name)) = self.peek() {
            let is_agg = AGG_FUNCS.iter().any(|f| name.eq_ignore_ascii_case(f));
            let next_is_paren = matches!(
                self.tokens.get(self.pos + 1).map(|s| &s.tok),
                Some(Tok::LParen)
            );
            if is_agg && next_is_paren {
                let func = self.ident("aggregate name")?.to_ascii_uppercase();
                self.expect(Tok::LParen, "(")?;
                let arg = if self.peek() == Some(&Tok::Star) {
                    self.pos += 1;
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(Tok::RParen, ")")?;
                let alias = self.alias()?;
                return Ok(SelectItem::Agg { func, arg, alias });
            }
        }
        let expr = self.expr()?;
        let alias = self.alias()?;
        Ok(SelectItem::Expr { expr, alias })
    }

    fn alias(&mut self) -> Result<Option<String>> {
        if self.eat_keyword("AS") {
            Ok(Some(self.ident("alias after AS")?))
        } else {
            Ok(None)
        }
    }

    fn parse_from_list(&mut self) -> Result<Vec<FromItem>> {
        let mut items = vec![self.parse_from_item()?];
        while self.peek() == Some(&Tok::Comma) {
            self.pos += 1;
            items.push(self.parse_from_item()?);
        }
        Ok(items)
    }

    fn parse_from_item(&mut self) -> Result<FromItem> {
        let name = self.ident("relation name")?;
        // Optional alias: a bare identifier that is not a clause keyword.
        let alias = match self.peek() {
            Some(Tok::Ident(s))
                if !["WHERE", "GROUP", "ORDER", "FOR", "AS", "WITH"]
                    .iter()
                    .any(|k| s.eq_ignore_ascii_case(k)) =>
            {
                Some(self.ident("alias")?)
            }
            _ => {
                if self.eat_keyword("AS") {
                    Some(self.ident("alias after AS")?)
                } else {
                    None
                }
            }
        };
        Ok(FromItem { name, alias })
    }

    // Expression precedence: OR < AND < NOT < cmp < add < mul < unary.
    fn expr(&mut self) -> Result<AstExpr> {
        let mut lhs = self.and_expr()?;
        while self.eat_keyword("OR") {
            let rhs = self.and_expr()?;
            lhs = AstExpr::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<AstExpr> {
        let mut lhs = self.not_expr()?;
        while self.eat_keyword("AND") {
            let rhs = self.not_expr()?;
            lhs = AstExpr::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<AstExpr> {
        if self.eat_keyword("NOT") {
            Ok(AstExpr::Not(Box::new(self.not_expr()?)))
        } else {
            self.cmp_expr()
        }
    }

    fn cmp_expr(&mut self) -> Result<AstExpr> {
        let lhs = self.add_expr()?;
        // IS [NOT] NULL
        if self.eat_keyword("IS") {
            let negated = self.eat_keyword("NOT");
            self.expect_keyword("NULL")?;
            let e = AstExpr::IsNull(Box::new(lhs));
            return Ok(if negated {
                AstExpr::Not(Box::new(e))
            } else {
                e
            });
        }
        let op = match self.peek() {
            Some(Tok::Eq) => CmpOp::Eq,
            Some(Tok::Ne) => CmpOp::Ne,
            Some(Tok::Lt) => CmpOp::Lt,
            Some(Tok::Le) => CmpOp::Le,
            Some(Tok::Gt) => CmpOp::Gt,
            Some(Tok::Ge) => CmpOp::Ge,
            _ => return Ok(lhs),
        };
        self.pos += 1;
        let rhs = self.add_expr()?;
        Ok(AstExpr::Cmp(op, Box::new(lhs), Box::new(rhs)))
    }

    fn add_expr(&mut self) -> Result<AstExpr> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Plus) => BinOp::Add,
                Some(Tok::Minus) => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.mul_expr()?;
            lhs = AstExpr::Arith(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<AstExpr> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Star) => BinOp::Mul,
                Some(Tok::Slash) => BinOp::Div,
                Some(Tok::Percent) => BinOp::Mod,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.unary()?;
            lhs = AstExpr::Arith(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<AstExpr> {
        if self.peek() == Some(&Tok::Minus) {
            self.pos += 1;
            return Ok(AstExpr::Neg(Box::new(self.unary()?)));
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<AstExpr> {
        match self.bump() {
            Some(Tok::Int(v)) => Ok(AstExpr::Literal(Value::Int(v))),
            Some(Tok::Float(v)) => Ok(AstExpr::Literal(Value::Float(v))),
            Some(Tok::Str(s)) => Ok(AstExpr::Literal(Value::str(s))),
            Some(Tok::LParen) => {
                let e = self.expr()?;
                self.expect(Tok::RParen, ")")?;
                Ok(e)
            }
            Some(Tok::Ident(first)) => {
                if first.eq_ignore_ascii_case("TRUE") {
                    return Ok(AstExpr::Literal(Value::Bool(true)));
                }
                if first.eq_ignore_ascii_case("FALSE") {
                    return Ok(AstExpr::Literal(Value::Bool(false)));
                }
                if first.eq_ignore_ascii_case("NULL") {
                    return Ok(AstExpr::Literal(Value::Null));
                }
                if self.peek() == Some(&Tok::Dot) {
                    self.pos += 1;
                    let name = self.ident("column name after '.'")?;
                    Ok(AstExpr::Column {
                        qualifier: Some(first),
                        name,
                    })
                } else {
                    Ok(AstExpr::Column {
                        qualifier: None,
                        name: first,
                    })
                }
            }
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err("expected an expression"))
            }
        }
    }

    // for (t = init; cond; change) { WindowIs(...); ... }
    fn for_loop(&mut self) -> Result<AstForLoop> {
        self.expect_keyword("FOR")?;
        self.expect(Tok::LParen, "( after for")?;
        // Init: `t = n` or empty.
        let init = if self.peek() == Some(&Tok::Semi) {
            0
        } else {
            let v = self.ident("loop variable")?;
            if !v.eq_ignore_ascii_case("t") {
                return Err(self.err("the loop variable must be named t"));
            }
            self.expect(Tok::Eq, "= in loop init")?;
            self.int_literal("loop initial value")?
        };
        self.expect(Tok::Semi, "; after loop init")?;
        // Condition: empty | t < n | t <= n | t == n.
        let cond = if self.peek() == Some(&Tok::Semi) {
            AstLoopCond::Forever
        } else {
            let v = self.ident("loop variable in condition")?;
            if !v.eq_ignore_ascii_case("t") {
                return Err(self.err("the loop condition must test t"));
            }
            match self.bump() {
                Some(Tok::Lt) => AstLoopCond::Lt(self.int_literal("condition bound")?),
                Some(Tok::Le) => AstLoopCond::Le(self.int_literal("condition bound")?),
                Some(Tok::Eq) => AstLoopCond::EqOnce(self.int_literal("condition bound")?),
                _ => return Err(self.err("expected <, <= or == in loop condition")),
            }
        };
        self.expect(Tok::Semi, "; after loop condition")?;
        // Change: empty (defaults to t++) | t++ | t-- | t += n | t -= n | t = n.
        let step = if self.peek() == Some(&Tok::RParen) {
            AstLoopStep::Add(1)
        } else {
            let v = self.ident("loop variable in change")?;
            if !v.eq_ignore_ascii_case("t") {
                return Err(self.err("the loop change must assign t"));
            }
            match self.bump() {
                Some(Tok::PlusPlus) => AstLoopStep::Add(1),
                Some(Tok::MinusMinus) => AstLoopStep::Add(-1),
                Some(Tok::PlusEq) => AstLoopStep::Add(self.int_literal("step amount")?),
                Some(Tok::MinusEq) => AstLoopStep::Add(-self.int_literal("step amount")?),
                Some(Tok::Eq) => AstLoopStep::Set(self.int_literal("step value")?),
                _ => return Err(self.err("expected ++, --, +=, -= or = in loop change")),
            }
        };
        self.expect(Tok::RParen, ") after loop header")?;
        self.expect(Tok::LBrace, "{ before WindowIs block")?;
        let mut windows = Vec::new();
        while !matches!(self.peek(), Some(Tok::RBrace)) {
            windows.push(self.window_is()?);
        }
        self.expect(Tok::RBrace, "} after WindowIs block")?;
        if windows.is_empty() {
            return Err(self.err("a for loop needs at least one WindowIs"));
        }
        Ok(AstForLoop {
            init,
            cond,
            step,
            windows,
        })
    }

    fn window_is(&mut self) -> Result<AstWindowIs> {
        let kw = self.ident("WindowIs")?;
        if !kw.eq_ignore_ascii_case("WINDOWIS") {
            return Err(self.err("expected WindowIs"));
        }
        self.expect(Tok::LParen, "( after WindowIs")?;
        let stream = self.ident("stream name")?;
        self.expect(Tok::Comma, ", after stream name")?;
        let left = self.bound()?;
        self.expect(Tok::Comma, ", between window bounds")?;
        let right = self.bound()?;
        self.expect(Tok::RParen, ") after window bounds")?;
        self.expect(Tok::Semi, "; after WindowIs")?;
        Ok(AstWindowIs {
            stream,
            left,
            right,
        })
    }

    /// bound := [int '*'] t [('+'|'-') int] | ['-'] int ['*' t [...]]
    fn bound(&mut self) -> Result<AstBound> {
        // Leading integer (possibly negative) or `t`.
        let mut coeff = 0i64;
        let mut offset = 0i64;
        let neg = self.peek() == Some(&Tok::Minus);
        if neg {
            self.pos += 1;
        }
        match self.bump() {
            Some(Tok::Int(v)) => {
                let v = if neg { -v } else { v };
                // `v * t` or plain constant v.
                if self.peek() == Some(&Tok::Star) {
                    self.pos += 1;
                    let t = self.ident("t after *")?;
                    if !t.eq_ignore_ascii_case("t") {
                        return Err(self.err("window bounds may only reference t"));
                    }
                    coeff = v;
                } else {
                    offset = v;
                }
            }
            Some(Tok::Ident(s)) if s.eq_ignore_ascii_case("t") => {
                coeff = if neg { -1 } else { 1 };
            }
            _ => {
                self.pos = self.pos.saturating_sub(1);
                return Err(self.err("expected a window bound (t ± k or a constant)"));
            }
        }
        // Optional `± int` or `± t` tail (one level is enough for the
        // affine form).
        loop {
            let sign = match self.peek() {
                Some(Tok::Plus) => 1i64,
                Some(Tok::Minus) => -1i64,
                _ => break,
            };
            self.pos += 1;
            match self.bump() {
                Some(Tok::Int(v)) => {
                    offset = offset
                        .checked_add(sign * v)
                        .ok_or_else(|| self.err("window bound overflows"))?;
                }
                Some(Tok::Ident(s)) if s.eq_ignore_ascii_case("t") => coeff += sign,
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err("expected a number or t in window bound"));
                }
            }
        }
        Ok(AstBound { coeff, offset })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::*;

    #[test]
    fn paper_snapshot_query() {
        // §4.1 example 1 (with C-style loop syntax).
        let q = parse(
            "SELECT closingPrice, timestamp \
             FROM ClosingStockPrices \
             WHERE stockSymbol = 'MSFT' \
             for (; t == 0; t = -1) { \
               WindowIs(ClosingStockPrices, 1, 5); \
             }",
        )
        .unwrap();
        assert_eq!(q.select.len(), 2);
        assert_eq!(q.from[0].name, "ClosingStockPrices");
        let w = q.window.unwrap();
        assert_eq!(w.cond, AstLoopCond::EqOnce(0));
        assert_eq!(w.step, AstLoopStep::Set(-1));
        assert_eq!(
            w.windows[0].left,
            AstBound {
                coeff: 0,
                offset: 1
            }
        );
        assert_eq!(
            w.windows[0].right,
            AstBound {
                coeff: 0,
                offset: 5
            }
        );
    }

    #[test]
    fn paper_landmark_query() {
        // §4.1 example 2.
        let q = parse(
            "SELECT closingPrice, timestamp \
             FROM ClosingStockPrices \
             WHERE stockSymbol = 'MSFT' AND closingPrice > 50.00 \
             for (t = 101; t <= 1100; t++) { \
               WindowIs(ClosingStockPrices, 101, t); \
             }",
        )
        .unwrap();
        let w = q.window.unwrap();
        assert_eq!(w.init, 101);
        assert_eq!(w.cond, AstLoopCond::Le(1100));
        assert_eq!(w.step, AstLoopStep::Add(1));
        assert_eq!(
            w.windows[0].right,
            AstBound {
                coeff: 1,
                offset: 0
            }
        );
    }

    #[test]
    fn paper_sliding_join_query() {
        // §4.1 example 4: self-join with aliases and t-4 bounds.
        let q = parse(
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
        assert_eq!(q.from.len(), 2);
        assert_eq!(q.from[0].alias.as_deref(), Some("c1"));
        let w = q.window.unwrap();
        assert_eq!(w.windows.len(), 2);
        assert_eq!(
            w.windows[0].left,
            AstBound {
                coeff: 1,
                offset: -4
            }
        );
    }

    #[test]
    fn aggregates_and_group_by() {
        let q = parse(
            "SELECT stockSymbol, MAX(closingPrice) AS hi, COUNT(*) \
             FROM csp GROUP BY stockSymbol",
        )
        .unwrap();
        assert_eq!(q.group_by.len(), 1);
        match &q.select[1] {
            SelectItem::Agg { func, arg, alias } => {
                assert_eq!(func, "MAX");
                assert!(arg.is_some());
                assert_eq!(alias.as_deref(), Some("hi"));
            }
            other => panic!("expected aggregate, got {other:?}"),
        }
        match &q.select[2] {
            SelectItem::Agg { func, arg, .. } => {
                assert_eq!(func, "COUNT");
                assert!(arg.is_none());
            }
            other => panic!("expected COUNT(*), got {other:?}"),
        }
    }

    #[test]
    fn star_select() {
        let q = parse("SELECT * FROM s").unwrap();
        assert_eq!(q.select, vec![SelectItem::Star]);
        assert!(q.window.is_none());
    }

    #[test]
    fn operator_precedence() {
        let q = parse("SELECT * FROM s WHERE a > 1 + 2 * 3 AND b = 1 OR c = 2").unwrap();
        // ((a > (1 + (2*3))) AND (b=1)) OR (c=2)
        match q.where_clause.unwrap() {
            AstExpr::Or(lhs, _) => match *lhs {
                AstExpr::And(gt, _) => match *gt {
                    AstExpr::Cmp(CmpOp::Gt, _, rhs) => match *rhs {
                        AstExpr::Arith(BinOp::Add, _, _) => {}
                        other => panic!("expected add on rhs, got {other:?}"),
                    },
                    other => panic!("expected cmp, got {other:?}"),
                },
                other => panic!("expected AND, got {other:?}"),
            },
            other => panic!("expected OR at top, got {other:?}"),
        }
    }

    #[test]
    fn is_null_and_not() {
        let q = parse("SELECT * FROM s WHERE a IS NULL AND NOT b IS NOT NULL").unwrap();
        let w = q.where_clause.unwrap();
        match w {
            AstExpr::And(l, r) => {
                assert!(matches!(*l, AstExpr::IsNull(_)));
                assert!(matches!(*r, AstExpr::Not(_)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn forever_loop_and_default_step() {
        let q = parse("SELECT * FROM s for (;;) { WindowIs(s, t - 9, t); }").unwrap();
        let w = q.window.unwrap();
        assert_eq!(w.cond, AstLoopCond::Forever);
        assert_eq!(w.step, AstLoopStep::Add(1));
    }

    #[test]
    fn hopping_backward_bounds() {
        let q = parse(
            "SELECT * FROM s for (t = 100; ; t -= 10) { WindowIs(s, -1 * t + 100, -1 * t + 109); }",
        )
        .unwrap();
        let w = q.window.unwrap();
        assert_eq!(w.step, AstLoopStep::Add(-10));
        assert_eq!(
            w.windows[0].left,
            AstBound {
                coeff: -1,
                offset: 100
            }
        );
        assert_eq!(
            w.windows[0].right,
            AstBound {
                coeff: -1,
                offset: 109
            }
        );
    }

    #[test]
    fn errors_are_positioned() {
        for bad in [
            "SELECT",
            "SELECT * FROM",
            "SELECT * FROM s WHERE",
            "SELECT * FROM s for (x = 1; ; ) { WindowIs(s, 1, 2); }",
            "SELECT * FROM s for (;;) { }",
            "SELECT * FROM s for (;;) { WindowIs(s, 1); }",
            "SELECT * FROM s WHERE a = 1 2",
            "SELECT * FROM s for (;;) { WindowIs(s, t + 9223372036854775807 + 1, t); }",
        ] {
            assert!(
                matches!(parse(bad), Err(TcqError::ParseError { .. })),
                "{bad} should fail"
            );
        }
    }

    #[test]
    fn misplaced_order_by_gets_a_specific_error() {
        let e =
            parse("SELECT day FROM s for (t = 1; t <= 5; t++) { WindowIs(s, 1, t); } ORDER BY day")
                .unwrap_err();
        match e {
            TcqError::ParseError { message, .. } => {
                assert!(
                    message.contains("ORDER BY must precede the window for-loop"),
                    "got: {message}"
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn with_consistency_clause() {
        // Default: no clause.
        assert_eq!(parse("SELECT * FROM s").unwrap().consistency, None);
        // Unwindowed and windowed positions, both levels, any case.
        let q = parse("SELECT * FROM s WITH CONSISTENCY SPECULATIVE").unwrap();
        assert_eq!(q.consistency, Some(Consistency::Speculative));
        let q = parse(
            "SELECT * FROM s for (;;) { WindowIs(s, t - 4, t); } \
             with consistency watermark",
        )
        .unwrap();
        assert_eq!(q.consistency, Some(Consistency::Watermark));
        // `WITH` never parses as a FROM alias.
        let q = parse("SELECT * FROM s WITH CONSISTENCY WATERMARK").unwrap();
        assert_eq!(q.from[0].alias, None);
        // Bad levels and truncated clauses are positioned errors.
        for bad in [
            "SELECT * FROM s WITH CONSISTENCY EVENTUAL",
            "SELECT * FROM s WITH",
            "SELECT * FROM s WITH CONSISTENCY",
        ] {
            assert!(
                matches!(parse(bad), Err(TcqError::ParseError { .. })),
                "{bad} should fail"
            );
        }
    }

    #[test]
    fn string_escapes_and_literals() {
        let q = parse("SELECT * FROM s WHERE sym = 'o''brien' AND ok = TRUE").unwrap();
        match q.where_clause.unwrap() {
            AstExpr::And(l, _) => match *l {
                AstExpr::Cmp(_, _, rhs) => {
                    assert_eq!(*rhs, AstExpr::Literal(Value::str("o'brien")));
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    /// Fuzz pool, `|`-separated: grammar fragments, operator characters
    /// and multi-byte code points, so random strings reach deep into the
    /// grammar.
    const FRAGMENTS: &str = "SELECT |FROM |WHERE |GROUP BY |ORDER BY |WITH |for|WindowIs|t|s|\
        COUNT|AND |*|(|)|{|}|;|,|.|<|=|!|+|-|'|9223372036854775807|2.5| |é|€|🦀";

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2048))]

        /// Any text parses or errors; none panics the caller.
        #[test]
        fn parse_never_panics(
            picks in proptest::collection::vec(proptest::prelude::any::<usize>(), 0..40),
            noise in "\\PC{0,12}",
        ) {
            let pool: Vec<&str> = FRAGMENTS.split('|').collect();
            let src = picks.iter().map(|&i| pool[i % pool.len()]).collect::<String>() + &noise;
            proptest::prop_assert!(
                std::panic::catch_unwind(|| parse(&src)).is_ok(),
                "parse panicked on {src:?}"
            );
        }
    }
}
