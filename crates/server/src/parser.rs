//! A SQL subset over the SSB star schema, lowered into [`SsbQuery`]
//! descriptors.
//!
//! The grammar covers exactly what the engines can execute — the study's
//! descriptor algebra, nothing more:
//!
//! ```text
//! [EXPLAIN] SELECT <group cols,> SUM(<agg expr>)
//!           FROM lineorder [, <dim tables>]
//!           [WHERE <conjunct> [AND <conjunct>]...]
//!           [GROUP BY <cols>]
//!           [ORDER BY <cols> [ASC]]
//! ```
//!
//! * aggregate expressions: `SUM(lo_revenue)`,
//!   `SUM(lo_extendedprice * lo_discount)`,
//!   `SUM(lo_revenue - lo_supplycost)` — the three the SSBM uses;
//! * conjuncts: star joins (`lo_custkey = c_custkey`, required once per
//!   dimension table named in `FROM`), dimension predicates, and integer
//!   fact predicates, each one of `=`, `<`, `BETWEEN .. AND ..`, or
//!   `IN (..)`;
//! * `ORDER BY` must repeat the `GROUP BY` list ascending — results are
//!   always returned in normalized key order (see `QueryOutput::new`), so
//!   any other order would be a silently broken promise.
//!
//! Column names are globally unique in the SSB schema (`lo_`, `c_`, `s_`,
//! `p_`, `d_` prefixes), so identifiers resolve without qualification.
//!
//! Lowered queries that are semantically one of the 13 paper queries are
//! **canonicalized** to the paper descriptor (its `QueryId`, predicate
//! order, and `paper_selectivity`). This matters beyond cosmetics: the
//! planner's materialized-view candidates exist only for paper flights, so
//! canonicalization is what makes `Session::query(sql)` plan — and
//! therefore execute, byte-for-byte — exactly like the direct-descriptor
//! path. Everything else becomes an ad-hoc query under
//! [`ADHOC_FLIGHT`].

use cvr_data::queries::{
    all_queries, AggExpr, DimPredicate, FactPredicate, GroupColumn, Pred, QueryId, SsbQuery,
};
use cvr_data::schema::{star_schema, Dim, StarSchema};
use cvr_data::value::{DataType, Value};
use std::sync::OnceLock;

/// Flight number assigned to ad-hoc SQL queries that match no paper query
/// (paper queries are flights 1..=4; the generated workload uses 9).
pub const ADHOC_FLIGHT: u8 = 0;

/// A parse or analysis failure, by category.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Malformed SQL: unexpected token, missing clause, bad literal.
    Syntax(String),
    /// An identifier that is no column of any SSB table.
    UnknownColumn(String),
    /// A `FROM` entry that is no SSB table.
    UnknownTable(String),
    /// A literal whose type does not match its column.
    TypeMismatch(String),
    /// Well-formed SQL outside the supported subset.
    Unsupported(String),
}

impl ParseError {
    /// Stable numeric code, used by the wire protocol's error frames.
    pub fn code(&self) -> u16 {
        match self {
            ParseError::Syntax(_) => 1,
            ParseError::UnknownColumn(_) => 2,
            ParseError::UnknownTable(_) => 3,
            ParseError::TypeMismatch(_) => 4,
            ParseError::Unsupported(_) => 5,
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Syntax(m) => write!(f, "syntax error: {m}"),
            ParseError::UnknownColumn(c) => write!(f, "unknown column: {c}"),
            ParseError::UnknownTable(t) => write!(f, "unknown table: {t}"),
            ParseError::TypeMismatch(m) => write!(f, "type mismatch: {m}"),
            ParseError::Unsupported(m) => write!(f, "unsupported: {m}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// A parsed statement.
#[derive(Debug, Clone)]
pub enum Statement {
    /// `SELECT ...` — execute and return rows.
    Select(SsbQuery),
    /// `EXPLAIN SELECT ...` — plan only, return the explain tree.
    Explain(SsbQuery),
    /// `EXPLAIN ANALYZE SELECT ...` — execute under tracing, return the
    /// explain tree annotated with measured actuals.
    ExplainAnalyze(SsbQuery),
    /// `SNAPSHOT` — write the served tables to the data directory as the
    /// next durable generation.
    Snapshot,
    /// `RELOAD` — load the newest valid generation from the data directory
    /// and swap it in as the served store.
    Reload,
}

/// Parse one SQL statement.
pub fn parse(sql: &str) -> Result<Statement, ParseError> {
    let mut p = Parser { toks: lex(sql)?, at: 0 };
    // Admin statements: a bare keyword (plus optional `;`).
    for (kw, stmt) in [("SNAPSHOT", Statement::Snapshot), ("RELOAD", Statement::Reload)] {
        if p.eat_kw(kw) {
            p.eat_sym(';');
            if let Some(t) = p.peek() {
                return Err(ParseError::Syntax(format!("trailing input at `{t}`")));
            }
            return Ok(stmt);
        }
    }
    let explain = p.eat_kw("EXPLAIN");
    let analyze = explain && p.eat_kw("ANALYZE");
    let q = p.select()?;
    p.eat_sym(';');
    if let Some(t) = p.peek() {
        return Err(ParseError::Syntax(format!("trailing input at `{t}`")));
    }
    Ok(match (explain, analyze) {
        (true, true) => Statement::ExplainAnalyze(q),
        (true, false) => Statement::Explain(q),
        _ => Statement::Select(q),
    })
}

/// Parse a statement that must be a plain `SELECT`, returning the lowered
/// descriptor.
pub fn parse_query(sql: &str) -> Result<SsbQuery, ParseError> {
    match parse(sql)? {
        Statement::Select(q) => Ok(q),
        _ => Err(ParseError::Unsupported("expected a plain SELECT statement".into())),
    }
}

// ---------------------------------------------------------------------------
// Rendering: descriptor → SQL text
// ---------------------------------------------------------------------------

/// Render `q` back to SQL text in this module's subset.
///
/// The renderer and parser are inverses: `parse_query(render_sql(q))`
/// yields a descriptor with the same predicates (in the same order),
/// group-by, and aggregate — the round-trip property test pins this for
/// the 13 paper queries and the generated workload.
pub fn render_sql(q: &SsbQuery) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("SELECT ");
    for g in &q.group_by {
        let _ = write!(out, "{}, ", g.column);
    }
    out.push_str(agg_sql(q.aggregate));
    out.push_str(" FROM lineorder");
    let dims = q.touched_dims();
    for d in &dims {
        let _ = write!(out, ", {}", d.table_name());
    }
    let mut conjuncts: Vec<String> = Vec::new();
    for d in &dims {
        conjuncts.push(format!("{} = {}", d.fact_fk_column(), d.key_column()));
    }
    for p in &q.dim_predicates {
        conjuncts.push(pred_sql(p.column, &p.pred));
    }
    for p in &q.fact_predicates {
        conjuncts.push(pred_sql(p.column, &p.pred));
    }
    if !conjuncts.is_empty() {
        let _ = write!(out, " WHERE {}", conjuncts.join(" AND "));
    }
    if !q.group_by.is_empty() {
        let cols: Vec<&str> = q.group_by.iter().map(|g| g.column).collect();
        let _ = write!(out, " GROUP BY {0} ORDER BY {0}", cols.join(", "));
    }
    out
}

/// The SQL text of an aggregate expression.
pub fn agg_sql(agg: AggExpr) -> &'static str {
    match agg {
        AggExpr::SumExtendedPriceTimesDiscount => "SUM(lo_extendedprice * lo_discount)",
        AggExpr::SumRevenue => "SUM(lo_revenue)",
        AggExpr::SumRevenueMinusSupplyCost => "SUM(lo_revenue - lo_supplycost)",
    }
}

fn pred_sql(column: &str, pred: &Pred) -> String {
    match pred {
        Pred::Eq(v) => format!("{column} = {}", value_sql(v)),
        Pred::Between(lo, hi) => {
            format!("{column} BETWEEN {} AND {}", value_sql(lo), value_sql(hi))
        }
        Pred::Lt(v) => format!("{column} < {}", value_sql(v)),
        Pred::InSet(vs) => {
            let items: Vec<String> = vs.iter().map(value_sql).collect();
            format!("{column} IN ({})", items.join(", "))
        }
    }
}

fn value_sql(v: &Value) -> String {
    match v {
        Value::Int(i) => i.to_string(),
        Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
    }
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    /// Identifier or keyword, original case preserved.
    Word(String),
    /// Integer literal.
    Int(i64),
    /// String literal (quotes stripped, `''` unescaped).
    Str(String),
    /// Single-character symbol: `( ) , * - = < ;`.
    Sym(char),
}

impl std::fmt::Display for Tok {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Tok::Word(w) => write!(f, "{w}"),
            Tok::Int(i) => write!(f, "{i}"),
            Tok::Str(s) => write!(f, "'{s}'"),
            Tok::Sym(c) => write!(f, "{c}"),
        }
    }
}

fn lex(sql: &str) -> Result<Vec<Tok>, ParseError> {
    let mut toks = Vec::new();
    let bytes = sql.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '(' | ')' | ',' | '*' | '-' | '=' | '<' | ';' => {
                toks.push(Tok::Sym(c));
                i += 1;
            }
            '\'' => {
                let mut s = String::new();
                i += 1;
                loop {
                    match bytes.get(i) {
                        None => {
                            return Err(ParseError::Syntax("unterminated string literal".into()))
                        }
                        Some(b'\'') if bytes.get(i + 1) == Some(&b'\'') => {
                            s.push('\'');
                            i += 2;
                        }
                        Some(b'\'') => {
                            i += 1;
                            break;
                        }
                        Some(&b) => {
                            s.push(b as char);
                            i += 1;
                        }
                    }
                }
                toks.push(Tok::Str(s));
            }
            '0'..='9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let text = &sql[start..i];
                let v: i64 = text.parse().map_err(|_| {
                    ParseError::Syntax(format!("integer literal `{text}` overflows"))
                })?;
                toks.push(Tok::Int(v));
            }
            'a'..='z' | 'A'..='Z' | '_' => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b'#')
                {
                    i += 1;
                }
                toks.push(Tok::Word(sql[start..i].to_string()));
            }
            _ => return Err(ParseError::Syntax(format!("unexpected character `{c}`"))),
        }
    }
    Ok(toks)
}

// ---------------------------------------------------------------------------
// Parser + lowering
// ---------------------------------------------------------------------------

/// Where a resolved column lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Table {
    Fact,
    Dim(Dim),
}

/// A resolved column: owning table, the schema's `'static` name, and type.
#[derive(Debug, Clone, Copy)]
struct ColumnRef {
    table: Table,
    name: &'static str,
    dtype: DataType,
}

fn schema() -> &'static StarSchema {
    static S: std::sync::OnceLock<StarSchema> = std::sync::OnceLock::new();
    S.get_or_init(star_schema)
}

fn resolve_column(name: &str) -> Option<ColumnRef> {
    let s = schema();
    for c in &s.lineorder.columns {
        if c.name == name {
            return Some(ColumnRef { table: Table::Fact, name: c.name, dtype: c.dtype });
        }
    }
    for d in Dim::ALL {
        for c in &s.dim(d).columns {
            if c.name == name {
                return Some(ColumnRef { table: Table::Dim(d), name: c.name, dtype: c.dtype });
            }
        }
    }
    None
}

fn resolve_table(name: &str) -> Option<Table> {
    if name == "lineorder" {
        return Some(Table::Fact);
    }
    Dim::ALL.into_iter().find(|d| d.table_name() == name).map(Table::Dim)
}

struct Parser {
    toks: Vec<Tok>,
    at: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.at)
    }

    fn next(&mut self) -> Result<Tok, ParseError> {
        let t = self
            .toks
            .get(self.at)
            .cloned()
            .ok_or_else(|| ParseError::Syntax("unexpected end of input".into()))?;
        self.at += 1;
        Ok(t)
    }

    /// Consume `kw` (case-insensitive) if it is next.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if let Some(Tok::Word(w)) = self.peek() {
            if w.eq_ignore_ascii_case(kw) {
                self.at += 1;
                return true;
            }
        }
        false
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(ParseError::Syntax(format!(
                "expected {kw}, got {}",
                self.peek().map_or("end of input".to_string(), |t| format!("`{t}`"))
            )))
        }
    }

    fn eat_sym(&mut self, sym: char) -> bool {
        if self.peek() == Some(&Tok::Sym(sym)) {
            self.at += 1;
            return true;
        }
        false
    }

    fn expect_sym(&mut self, sym: char) -> Result<(), ParseError> {
        if self.eat_sym(sym) {
            Ok(())
        } else {
            Err(ParseError::Syntax(format!(
                "expected `{sym}`, got {}",
                self.peek().map_or("end of input".to_string(), |t| format!("`{t}`"))
            )))
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.next()? {
            Tok::Word(w) => Ok(w.to_ascii_lowercase()),
            t => Err(ParseError::Syntax(format!("expected identifier, got `{t}`"))),
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.next()? {
            Tok::Int(i) => Ok(Value::Int(i)),
            Tok::Str(s) => Ok(Value::str(s.as_str())),
            t => Err(ParseError::Syntax(format!("expected literal, got `{t}`"))),
        }
    }

    fn column(&mut self) -> Result<ColumnRef, ParseError> {
        let name = self.ident()?;
        resolve_column(&name).ok_or(ParseError::UnknownColumn(name))
    }

    // -- clauses ----------------------------------------------------------

    fn select(&mut self) -> Result<SsbQuery, ParseError> {
        self.expect_kw("SELECT")?;
        let (select_cols, aggregate) = self.select_list()?;
        self.expect_kw("FROM")?;
        let from = self.table_list()?;
        let mut w = WhereClauses::default();
        if self.eat_kw("WHERE") {
            self.conjuncts(&mut w)?;
        }
        let group_by = if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            self.group_list()?
        } else {
            Vec::new()
        };
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            self.order_list(&group_by)?;
        }
        lower(select_cols, aggregate, from, w, group_by)
    }

    /// The select list: plain columns plus exactly one `SUM(...)`.
    fn select_list(&mut self) -> Result<(Vec<ColumnRef>, AggExpr), ParseError> {
        let mut cols = Vec::new();
        let mut agg = None;
        loop {
            if self.eat_kw("SUM") {
                if agg.is_some() {
                    return Err(ParseError::Unsupported(
                        "only one aggregate per query is supported".into(),
                    ));
                }
                agg = Some(self.sum_expr()?);
            } else {
                let col = self.column()?;
                if agg.is_some() {
                    return Err(ParseError::Unsupported(
                        "group columns must precede the aggregate in the select list".into(),
                    ));
                }
                cols.push(col);
            }
            if !self.eat_sym(',') {
                break;
            }
        }
        let agg = agg.ok_or_else(|| {
            ParseError::Unsupported("the select list must contain a SUM aggregate".into())
        })?;
        Ok((cols, agg))
    }

    /// `( lo_x [* | - lo_y] )` after `SUM`, matched against the three SSBM
    /// aggregate expressions.
    fn sum_expr(&mut self) -> Result<AggExpr, ParseError> {
        self.expect_sym('(')?;
        let a = self.ident()?;
        let op = if self.eat_sym('*') {
            Some('*')
        } else if self.eat_sym('-') {
            Some('-')
        } else {
            None
        };
        let b = if op.is_some() { Some(self.ident()?) } else { None };
        self.expect_sym(')')?;
        match (a.as_str(), op, b.as_deref()) {
            ("lo_revenue", None, None) => Ok(AggExpr::SumRevenue),
            ("lo_extendedprice", Some('*'), Some("lo_discount")) => {
                Ok(AggExpr::SumExtendedPriceTimesDiscount)
            }
            ("lo_revenue", Some('-'), Some("lo_supplycost")) => {
                Ok(AggExpr::SumRevenueMinusSupplyCost)
            }
            _ => {
                let expr = match (op, b) {
                    (Some(o), Some(b)) => format!("SUM({a} {o} {b})"),
                    _ => format!("SUM({a})"),
                };
                Err(ParseError::Unsupported(format!(
                    "{expr} is not one of the supported SSBM aggregates"
                )))
            }
        }
    }

    fn table_list(&mut self) -> Result<Vec<Table>, ParseError> {
        let mut tables = Vec::new();
        loop {
            let name = self.ident()?;
            let t = resolve_table(&name).ok_or(ParseError::UnknownTable(name))?;
            if !tables.contains(&t) {
                tables.push(t);
            }
            if !self.eat_sym(',') {
                break;
            }
        }
        if !tables.contains(&Table::Fact) {
            return Err(ParseError::Unsupported(
                "FROM must include the lineorder fact table".into(),
            ));
        }
        Ok(tables)
    }

    fn conjuncts(&mut self, w: &mut WhereClauses) -> Result<(), ParseError> {
        loop {
            self.conjunct(w)?;
            if !self.eat_kw("AND") {
                break;
            }
        }
        Ok(())
    }

    fn conjunct(&mut self, w: &mut WhereClauses) -> Result<(), ParseError> {
        let col = self.column()?;
        if self.eat_sym('=') {
            // `col = <ident>` is a join predicate; `col = <literal>` a
            // filter.
            if matches!(self.peek(), Some(Tok::Word(_))) {
                let rhs = self.column()?;
                return join_predicate(col, rhs, w);
            }
            let v = self.value()?;
            check_type(&col, &v)?;
            return push_pred(col, Pred::Eq(v), w);
        }
        if self.eat_sym('<') {
            if self.eat_sym('=') {
                return Err(ParseError::Unsupported(format!(
                    "`{} <= ...`: only =, <, BETWEEN, and IN are supported",
                    col.name
                )));
            }
            let v = self.value()?;
            check_type(&col, &v)?;
            return push_pred(col, Pred::Lt(v), w);
        }
        if self.eat_kw("BETWEEN") {
            let lo = self.value()?;
            self.expect_kw("AND")?;
            let hi = self.value()?;
            check_type(&col, &lo)?;
            check_type(&col, &hi)?;
            return push_pred(col, Pred::Between(lo, hi), w);
        }
        if self.eat_kw("IN") {
            self.expect_sym('(')?;
            let mut vs = Vec::new();
            loop {
                let v = self.value()?;
                check_type(&col, &v)?;
                vs.push(v);
                if !self.eat_sym(',') {
                    break;
                }
            }
            self.expect_sym(')')?;
            return push_pred(col, Pred::InSet(vs), w);
        }
        Err(ParseError::Unsupported(format!(
            "predicate on {}: only =, <, BETWEEN, and IN are supported",
            col.name
        )))
    }

    fn group_list(&mut self) -> Result<Vec<GroupColumn>, ParseError> {
        let mut out = Vec::new();
        loop {
            let col = self.column()?;
            match col.table {
                Table::Dim(dim) => out.push(GroupColumn { dim, column: col.name }),
                Table::Fact => {
                    return Err(ParseError::Unsupported(format!(
                        "GROUP BY {}: grouping by fact columns is not supported",
                        col.name
                    )))
                }
            }
            if !self.eat_sym(',') {
                break;
            }
        }
        Ok(out)
    }

    /// `ORDER BY` must repeat the `GROUP BY` list, ascending.
    fn order_list(&mut self, group_by: &[GroupColumn]) -> Result<(), ParseError> {
        let mut i = 0;
        loop {
            let col = self.column()?;
            if self.eat_kw("DESC") {
                return Err(ParseError::Unsupported(
                    "ORDER BY ... DESC is not supported (results are in ascending key order)"
                        .into(),
                ));
            }
            self.eat_kw("ASC");
            if group_by.get(i).map(|g| g.column) != Some(col.name) {
                return Err(ParseError::Unsupported(
                    "ORDER BY must repeat the GROUP BY columns in order (results are always \
                     returned in ascending group-key order)"
                        .into(),
                ));
            }
            i += 1;
            if !self.eat_sym(',') {
                break;
            }
        }
        if i != group_by.len() {
            return Err(ParseError::Unsupported(
                "ORDER BY must repeat the GROUP BY columns in order".into(),
            ));
        }
        Ok(())
    }
}

/// Accumulated WHERE-clause state, in conjunct order.
#[derive(Default)]
struct WhereClauses {
    joined: Vec<Dim>,
    dim_predicates: Vec<DimPredicate>,
    fact_predicates: Vec<FactPredicate>,
}

fn check_type(col: &ColumnRef, v: &Value) -> Result<(), ParseError> {
    let ok =
        matches!((col.dtype, v), (DataType::Int, Value::Int(_)) | (DataType::Str, Value::Str(_)));
    if ok {
        Ok(())
    } else {
        Err(ParseError::TypeMismatch(format!(
            "column {} is {:?} but literal {} is not",
            col.name,
            col.dtype,
            value_sql(v)
        )))
    }
}

fn join_predicate(a: ColumnRef, b: ColumnRef, w: &mut WhereClauses) -> Result<(), ParseError> {
    // Accept `lo_fk = key` in either direction.
    let (fact, dim) = match (a.table, b.table) {
        (Table::Fact, Table::Dim(d)) => ((a, d), b),
        (Table::Dim(d), Table::Fact) => ((b, d), a),
        _ => {
            return Err(ParseError::Unsupported(format!(
                "`{} = {}`: only star joins (fact FK = dimension key) are supported",
                a.name, b.name
            )))
        }
    };
    let ((fk, d), key) = (fact, dim);
    if fk.name != d.fact_fk_column() || key.name != d.key_column() {
        return Err(ParseError::Unsupported(format!(
            "`{} = {}` is not a star join; expected {} = {}",
            fk.name,
            key.name,
            d.fact_fk_column(),
            d.key_column()
        )));
    }
    if !w.joined.contains(&d) {
        w.joined.push(d);
    }
    Ok(())
}

fn push_pred(col: ColumnRef, pred: Pred, w: &mut WhereClauses) -> Result<(), ParseError> {
    match col.table {
        Table::Dim(dim) => w.dim_predicates.push(DimPredicate { dim, column: col.name, pred }),
        Table::Fact => {
            if col.dtype != DataType::Int {
                return Err(ParseError::Unsupported(format!(
                    "predicates on string fact column {} are not supported",
                    col.name
                )));
            }
            w.fact_predicates.push(FactPredicate { column: col.name, pred });
        }
    }
    Ok(())
}

/// Semantic analysis + lowering into the descriptor.
fn lower(
    select_cols: Vec<ColumnRef>,
    aggregate: AggExpr,
    from: Vec<Table>,
    w: WhereClauses,
    group_by: Vec<GroupColumn>,
) -> Result<SsbQuery, ParseError> {
    // The plain select columns must be exactly the GROUP BY list.
    let select_as_group: Vec<&str> = select_cols.iter().map(|c| c.name).collect();
    let group_names: Vec<&str> = group_by.iter().map(|g| g.column).collect();
    if select_as_group != group_names {
        return Err(ParseError::Unsupported(
            "the non-aggregate select columns must be exactly the GROUP BY columns, in order"
                .into(),
        ));
    }
    // Every referenced dimension must be named in FROM and star-joined.
    let mut referenced: Vec<Dim> = Vec::new();
    for p in &w.dim_predicates {
        if !referenced.contains(&p.dim) {
            referenced.push(p.dim);
        }
    }
    for g in &group_by {
        if !referenced.contains(&g.dim) {
            referenced.push(g.dim);
        }
    }
    for d in &referenced {
        if !from.contains(&Table::Dim(*d)) {
            return Err(ParseError::Syntax(format!(
                "table {} is referenced but missing from FROM",
                d.table_name()
            )));
        }
        if !w.joined.contains(d) {
            return Err(ParseError::Unsupported(format!(
                "missing star join for {}: add {} = {}",
                d.table_name(),
                d.fact_fk_column(),
                d.key_column()
            )));
        }
    }
    let q = SsbQuery {
        id: QueryId::new(ADHOC_FLIGHT, 1),
        dim_predicates: w.dim_predicates,
        fact_predicates: w.fact_predicates,
        group_by,
        aggregate,
        // Unknown for ad-hoc SQL; the planner uses catalog statistics, not
        // this reporting-only field. Canonicalization below restores the
        // paper value for paper queries.
        paper_selectivity: 0.0,
    };
    Ok(canonicalize(q))
}

/// If `q` is semantically one of the 13 paper queries, adopt the paper
/// descriptor wholesale — id, predicate order, and `paper_selectivity` —
/// so SQL-submitted paper queries plan and execute exactly like the
/// hand-built descriptors (including row-MV applicability, which is gated
/// on paper flights).
fn canonicalize(q: SsbQuery) -> SsbQuery {
    // Built once: every parse compares against the table, only a match is
    // cloned.
    static PAPER: OnceLock<Vec<SsbQuery>> = OnceLock::new();
    let same = |p: &&SsbQuery| {
        q.aggregate == p.aggregate
            && q.group_by == p.group_by
            && multiset_eq(&q.dim_predicates, &p.dim_predicates)
            && multiset_eq(&q.fact_predicates, &p.fact_predicates)
    };
    PAPER.get_or_init(all_queries).iter().find(same).cloned().unwrap_or(q)
}

/// Order-insensitive equality (predicates commute in a conjunction).
fn multiset_eq<T: PartialEq>(a: &[T], b: &[T]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut used = vec![false; b.len()];
    a.iter().all(|x| {
        b.iter().enumerate().any(|(i, y)| {
            if !used[i] && x == y {
                used[i] = true;
                true
            } else {
                false
            }
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvr_data::workload::WorkloadConfig;

    fn code_of(sql: &str) -> u16 {
        parse_query(sql).expect_err(&format!("`{sql}` should not parse")).code()
    }

    /// `parse(render_sql(q))` must restore each paper query *canonically*:
    /// same id, same predicates in the same order, same paper selectivity.
    #[test]
    fn paper_queries_round_trip_canonically() {
        for q in all_queries() {
            let sql = render_sql(&q);
            let back = parse_query(&sql).unwrap_or_else(|e| panic!("{}: {e}\n  {sql}", q.id));
            assert_eq!(back.id, q.id, "{sql}");
            assert_eq!(back.dim_predicates, q.dim_predicates, "{}", q.id);
            assert_eq!(back.fact_predicates, q.fact_predicates, "{}", q.id);
            assert_eq!(back.group_by, q.group_by, "{}", q.id);
            assert_eq!(back.aggregate, q.aggregate, "{}", q.id);
            assert_eq!(back.paper_selectivity, q.paper_selectivity, "{}", q.id);
        }
    }

    /// Generated-workload descriptors round-trip semantically; their ids
    /// become ad-hoc unless the query happens to be a paper query.
    #[test]
    fn generated_workload_round_trips_semantically() {
        for q in WorkloadConfig::with_count(64).generate() {
            let sql = render_sql(&q);
            let back = parse_query(&sql).unwrap_or_else(|e| panic!("{}: {e}\n  {sql}", q.id));
            assert_eq!(back.dim_predicates, q.dim_predicates, "{sql}");
            assert_eq!(back.fact_predicates, q.fact_predicates, "{sql}");
            assert_eq!(back.group_by, q.group_by, "{sql}");
            assert_eq!(back.aggregate, q.aggregate, "{sql}");
            assert!(back.id.flight == ADHOC_FLIGHT || (1..=4).contains(&back.id.flight), "{sql}");
        }
    }

    /// Conjunct order and join direction don't matter; keywords are
    /// case-insensitive; a trailing semicolon is fine.
    #[test]
    fn paper_query_recognized_from_free_form_sql() {
        let q = parse_query(
            "select sum(LO_EXTENDEDPRICE * LO_DISCOUNT) from LINEORDER, DATE \
             where LO_QUANTITY < 25 and D_DATEKEY = LO_ORDERDATE \
             and LO_DISCOUNT between 1 and 3 and D_YEAR = 1993;",
        )
        .unwrap();
        assert_eq!(q.id, QueryId::new(1, 1));
        assert_eq!(q.paper_selectivity, cvr_data::queries::query(1, 1).paper_selectivity);
    }

    #[test]
    fn explain_parses_to_explain_statement() {
        let sql = format!("EXPLAIN {}", render_sql(&cvr_data::queries::query(2, 1)));
        assert!(matches!(parse(&sql).unwrap(), Statement::Explain(_)));
        assert!(matches!(
            parse(&render_sql(&cvr_data::queries::query(2, 1))).unwrap(),
            Statement::Select(_)
        ));
        let sql = format!("EXPLAIN ANALYZE {}", render_sql(&cvr_data::queries::query(3, 2)));
        assert!(matches!(parse(&sql).unwrap(), Statement::ExplainAnalyze(_)));
        // ANALYZE alone is not a keyword — a table named `analyze` is not in
        // the schema, so this fails resolution rather than silently tracing.
        assert!(parse("ANALYZE SELECT SUM(lo_revenue) FROM lineorder").is_err());
    }

    #[test]
    fn admin_statements_parse_as_bare_keywords() {
        assert!(matches!(parse("SNAPSHOT").unwrap(), Statement::Snapshot));
        assert!(matches!(parse("snapshot;").unwrap(), Statement::Snapshot));
        assert!(matches!(parse("RELOAD").unwrap(), Statement::Reload));
        assert!(matches!(parse("reload ;").unwrap(), Statement::Reload));
        // Trailing tokens after an admin statement are rejected.
        assert!(parse("SNAPSHOT now").is_err());
        assert_eq!(code_of("SNAPSHOT"), 5); // not a SELECT for parse_query
    }

    #[test]
    fn unknown_column_and_table_are_distinct_errors() {
        assert_eq!(
            parse_query("SELECT SUM(lo_revenue) FROM lineorder WHERE lo_color = 3").unwrap_err(),
            ParseError::UnknownColumn("lo_color".into())
        );
        assert_eq!(code_of("SELECT SUM(lo_revenue) FROM lineorder WHERE lo_color = 3"), 2);
        assert_eq!(
            parse_query("SELECT SUM(lo_revenue) FROM orders").unwrap_err(),
            ParseError::UnknownTable("orders".into())
        );
        assert_eq!(code_of("SELECT SUM(lo_revenue) FROM orders"), 3);
    }

    #[test]
    fn type_mismatch_is_reported() {
        // lo_discount is an int column; c_region is a string column.
        assert_eq!(code_of("SELECT SUM(lo_revenue) FROM lineorder WHERE lo_discount = 'x'"), 4);
        assert_eq!(
            code_of(
                "SELECT SUM(lo_revenue) FROM lineorder, customer \
                 WHERE lo_custkey = c_custkey AND c_region = 3"
            ),
            4
        );
        assert_eq!(
            code_of("SELECT SUM(lo_revenue) FROM lineorder WHERE lo_discount BETWEEN 1 AND 'x'"),
            4
        );
    }

    #[test]
    fn unsupported_clauses_are_rejected_with_code_5() {
        // <= comparison.
        assert_eq!(code_of("SELECT SUM(lo_revenue) FROM lineorder WHERE lo_discount <= 3"), 5);
        // Aggregate outside the three SSBM forms.
        assert_eq!(code_of("SELECT SUM(lo_quantity) FROM lineorder"), 5);
        // No aggregate at all.
        assert_eq!(code_of("SELECT d_year FROM lineorder"), 5);
        // GROUP BY a fact column.
        assert_eq!(code_of("SELECT SUM(lo_revenue) FROM lineorder GROUP BY lo_quantity"), 5);
        // Missing star join for a referenced dimension.
        assert_eq!(
            code_of("SELECT SUM(lo_revenue) FROM lineorder, customer WHERE c_region = 'ASIA'"),
            5
        );
        // ORDER BY DESC.
        assert_eq!(
            code_of(
                "SELECT d_year, SUM(lo_revenue) FROM lineorder, date \
                 WHERE lo_orderdate = d_datekey GROUP BY d_year ORDER BY d_year DESC"
            ),
            5
        );
        // ORDER BY not matching GROUP BY.
        assert_eq!(
            code_of(
                "SELECT d_year, SUM(lo_revenue) FROM lineorder, date \
                 WHERE lo_orderdate = d_datekey GROUP BY d_year ORDER BY d_yearmonth"
            ),
            5
        );
        // Non-star join predicate.
        assert_eq!(
            code_of("SELECT SUM(lo_revenue) FROM lineorder, date WHERE lo_custkey = d_datekey"),
            5
        );
    }

    #[test]
    fn syntax_errors_are_reported_with_code_1() {
        assert_eq!(code_of("SELECT SUM(lo_revenue)"), 1); // missing FROM
        assert_eq!(code_of("SELECT SUM(lo_revenue) FROM lineorder WHERE"), 1);
        assert_eq!(code_of("SELECT SUM(lo_revenue) FROM lineorder extra"), 1);
        assert_eq!(code_of("SELECT SUM(lo_revenue) FROM lineorder WHERE d_year = 'x"), 1);
        // Dimension referenced but absent from FROM.
        assert_eq!(code_of("SELECT SUM(lo_revenue) FROM lineorder WHERE d_year = 1993"), 1);
    }

    #[test]
    fn select_list_must_mirror_group_by() {
        // Select columns not matching GROUP BY.
        assert_eq!(
            code_of(
                "SELECT d_yearmonth, SUM(lo_revenue) FROM lineorder, date \
                 WHERE lo_orderdate = d_datekey GROUP BY d_year"
            ),
            5
        );
        // Aggregate before the group columns.
        assert_eq!(
            code_of(
                "SELECT SUM(lo_revenue), d_year FROM lineorder, date \
                 WHERE lo_orderdate = d_datekey GROUP BY d_year"
            ),
            5
        );
    }

    /// String literals with embedded quotes survive the round trip.
    #[test]
    fn string_literal_escaping_round_trips() {
        let sql = "SELECT SUM(lo_revenue) FROM lineorder, customer \
                   WHERE lo_custkey = c_custkey AND c_region = 'AM''ERICA'";
        let q = parse_query(sql).unwrap();
        assert_eq!(q.dim_predicates[0].pred, Pred::Eq(Value::str("AM'ERICA")));
        let rendered = render_sql(&q);
        assert!(rendered.contains("'AM''ERICA'"), "{rendered}");
        let back = parse_query(&rendered).unwrap();
        assert_eq!(back.dim_predicates, q.dim_predicates);
    }
}
