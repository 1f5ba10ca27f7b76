//! # tcq-sql
//!
//! The CQ-SQL front end: "dataflows are initiated by clients either via
//! an ad hoc query language (a basic version of SQL), or via a scripting
//! language for representing dataflow graphs explicitly" (§2.1). This
//! crate is the former: a lexer, recursive-descent parser, analyzer and
//! adaptive-plan compiler for the dialect the paper's §4.1 examples use.
//!
//! ## Grammar
//!
//! ```text
//! query      := SELECT [DISTINCT] select_list FROM from_list
//!               [ WHERE predicate ] [ GROUP BY columns ] [ for_loop ]
//! select_list:= '*' | item (',' item)*
//! item       := expr [AS ident] | AGG '(' expr | '*' ')' [AS ident]
//! from_list  := relation (',' relation)*     -- relation := name [alias]
//! for_loop   := FOR '(' [t '=' int] ';' cond ';' change ')'
//!               '{' window_is* '}'
//! cond       := 't' ('<' | '<=') int | 't' '==' int | /* empty: forever */
//! change     := 't' '++' | 't' '--' | 't' '+=' int | 't' '-=' int
//!               | 't' '=' int
//! window_is  := WINDOWIS '(' name ',' bound ',' bound ')' ';'
//! bound      := affine over 't':  [int '*'] 't' [('+'|'-') int] | int
//! ```
//!
//! All of the paper's §4.1 stock-quote examples (snapshot, landmark,
//! sliding, hopping windows) parse under this grammar; see the tests in
//! [`parser`] which use them verbatim (modulo the `for`-loop's C-style
//! `t++`).
//!
//! ## Pipeline
//!
//! text → [`lexer::tokenize`] → [`parser::parse`] ([`ast`]) →
//! [`plan::Planner::plan`] (binds names against a
//! [`tcq_common::Catalog`], decomposes the WHERE clause into boolean
//! factors, extracts equi-join edges) → [`plan::QueryPlan`] →
//! [`plan::QueryPlan::build_eddy_vectorized`] (an adaptive [`tcq_eddy::Eddy`] plan
//! with grouped filters and SteMs — "the server parses, analyzes, and
//! optimizes it into an adaptive plan, that is, a plan that includes the
//! adaptive operators described in Section 2").

pub mod ast;
pub mod lexer;
pub mod parser;
pub mod plan;

pub use ast::QueryAst;
pub use parser::parse;
pub use plan::{BoundStream, JoinEdge, OutputCol, Planner, QueryPlan};
