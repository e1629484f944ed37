//! The thirteen SSBM queries (Section 3 of the paper) as structured
//! descriptors.
//!
//! Both engines compile these descriptors instead of parsing SQL: the study
//! is about *executors and storage layouts*, not parsers, and the paper
//! itself hand-built plans ("we were required to rewrite all of our queries
//! ... and had to make extensive use of optimizer hints"). Each descriptor
//! carries the dimension predicates, fact-table predicates, group-by columns,
//! aggregate expression, and the LINEORDER selectivity quoted in the paper,
//! which the `selectivity` experiment verifies against generated data.

use crate::schema::Dim;
use crate::value::Value;
use std::sync::OnceLock;

/// Identifier of a benchmark query: flight 1..=4, query 1..=4 within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId {
    /// Flight number, 1..=4.
    pub flight: u8,
    /// Query number within the flight, 1..=4.
    pub number: u8,
}

impl QueryId {
    /// `QueryId { flight, number }` shorthand.
    pub const fn new(flight: u8, number: u8) -> Self {
        QueryId { flight, number }
    }
}

impl std::fmt::Display for QueryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Q{}.{}", self.flight, self.number)
    }
}

/// A scalar comparison predicate over a single column.
///
/// This tiny algebra covers every predicate in the SSBM. `Between` bounds are
/// inclusive, as in SQL.
#[derive(Debug, Clone, PartialEq)]
pub enum Pred {
    /// `col = value`.
    Eq(Value),
    /// `value_lo <= col <= value_hi`.
    Between(Value, Value),
    /// `col < value` (strict).
    Lt(Value),
    /// `col IN (values)`.
    InSet(Vec<Value>),
}

impl Pred {
    /// Evaluate against an integer (column must be an int column).
    pub fn matches_int(&self, v: i64) -> bool {
        match self {
            Pred::Eq(x) => v == x.as_int(),
            Pred::Between(lo, hi) => v >= lo.as_int() && v <= hi.as_int(),
            Pred::Lt(x) => v < x.as_int(),
            Pred::InSet(xs) => xs.iter().any(|x| x.as_int() == v),
        }
    }

    /// Evaluate against a string (column must be a string column).
    pub fn matches_str(&self, v: &str) -> bool {
        match self {
            Pred::Eq(x) => v == x.as_str(),
            Pred::Between(lo, hi) => v >= lo.as_str() && v <= hi.as_str(),
            Pred::Lt(x) => v < x.as_str(),
            Pred::InSet(xs) => xs.iter().any(|x| x.as_str() == v),
        }
    }

    /// Evaluate against a [`Value`].
    pub fn matches(&self, v: &Value) -> bool {
        match v {
            Value::Int(i) => self.matches_int(*i),
            Value::Str(s) => self.matches_str(s),
        }
    }
}

/// A predicate on one column of one dimension table.
#[derive(Debug, Clone, PartialEq)]
pub struct DimPredicate {
    /// Which dimension table.
    pub dim: Dim,
    /// Column name within the dimension, e.g. `"c_region"`.
    pub column: &'static str,
    /// The predicate.
    pub pred: Pred,
}

/// A predicate on a LINEORDER measure column (flight 1 only).
#[derive(Debug, Clone, PartialEq)]
pub struct FactPredicate {
    /// Fact column name, e.g. `"lo_discount"`.
    pub column: &'static str,
    /// The predicate.
    pub pred: Pred,
}

/// A group-by column: either a dimension attribute or (never in SSBM, but
/// supported) a fact column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GroupColumn {
    /// Dimension the attribute lives in.
    pub dim: Dim,
    /// Column name within that dimension.
    pub column: &'static str,
}

/// The aggregate computed by a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggExpr {
    /// `SUM(lo_extendedprice * lo_discount)` — flight 1's "revenue gain".
    SumExtendedPriceTimesDiscount,
    /// `SUM(lo_revenue)` — flights 2 and 3.
    SumRevenue,
    /// `SUM(lo_revenue - lo_supplycost)` — flight 4's "profit".
    SumRevenueMinusSupplyCost,
}

impl AggExpr {
    /// The fact columns this aggregate reads.
    pub fn fact_columns(self) -> &'static [&'static str] {
        match self {
            AggExpr::SumExtendedPriceTimesDiscount => &["lo_extendedprice", "lo_discount"],
            AggExpr::SumRevenue => &["lo_revenue"],
            AggExpr::SumRevenueMinusSupplyCost => &["lo_revenue", "lo_supplycost"],
        }
    }

    /// Evaluate the aggregate's per-row term.
    pub fn term(self, inputs: &[i64]) -> i64 {
        match self {
            AggExpr::SumExtendedPriceTimesDiscount => inputs[0] * inputs[1],
            AggExpr::SumRevenue => inputs[0],
            AggExpr::SumRevenueMinusSupplyCost => inputs[0] - inputs[1],
        }
    }
}

/// One SSBM query.
#[derive(Debug, Clone)]
pub struct SsbQuery {
    /// Query id (flight, number).
    pub id: QueryId,
    /// Predicates on dimension tables (joined through fact FKs).
    pub dim_predicates: Vec<DimPredicate>,
    /// Predicates directly on fact columns (flight 1 only).
    pub fact_predicates: Vec<FactPredicate>,
    /// Group-by columns (empty ⇒ a single scalar aggregate).
    pub group_by: Vec<GroupColumn>,
    /// The aggregate.
    pub aggregate: AggExpr,
    /// LINEORDER selectivity quoted in Section 3 of the paper.
    pub paper_selectivity: f64,
}

impl SsbQuery {
    /// Dimensions restricted by this query.
    pub fn restricted_dims(&self) -> Vec<Dim> {
        let mut v: Vec<Dim> = self.dim_predicates.iter().map(|p| p.dim).collect();
        v.dedup();
        v
    }

    /// Dimensions this query touches at all (predicates or group-by).
    pub fn touched_dims(&self) -> Vec<Dim> {
        let mut v = Vec::new();
        for d in Dim::ALL {
            let used = self.dim_predicates.iter().any(|p| p.dim == d)
                || self.group_by.iter().any(|g| g.dim == d);
            if used {
                v.push(d);
            }
        }
        v
    }

    /// All fact-table columns this query reads (FKs for touched dims, fact
    /// predicate columns, aggregate inputs). Order: FKs, predicates, measures.
    pub fn fact_columns(&self) -> Vec<&'static str> {
        let mut cols: Vec<&'static str> =
            self.touched_dims().iter().map(|d| d.fact_fk_column()).collect();
        for p in &self.fact_predicates {
            if !cols.contains(&p.column) {
                cols.push(p.column);
            }
        }
        for c in self.aggregate.fact_columns() {
            if !cols.contains(c) {
                cols.push(c);
            }
        }
        cols
    }

    /// Predicates of this query restricted to dimension `d`.
    pub fn dim_predicates_on(&self, d: Dim) -> Vec<&DimPredicate> {
        self.dim_predicates.iter().filter(|p| p.dim == d).collect()
    }

    /// A copy of this query with its fact predicates permuted by `order`
    /// (`order[k]` is the index of the predicate to evaluate `k`-th).
    ///
    /// Predicate conjunctions commute, so the result set is unchanged; only
    /// the *evaluation order* the engines follow differs. This is the hook
    /// the cost-based planner uses to apply its chosen fact-predicate order
    /// through the unchanged engine entry points.
    pub fn with_fact_order(&self, order: &[usize]) -> SsbQuery {
        assert_eq!(order.len(), self.fact_predicates.len(), "order must be a permutation");
        let mut seen = vec![false; order.len()];
        let mut q = self.clone();
        q.fact_predicates = order
            .iter()
            .map(|&i| {
                assert!(!std::mem::replace(&mut seen[i], true), "order must be a permutation");
                self.fact_predicates[i].clone()
            })
            .collect();
        q
    }
}

fn int(v: i64) -> Value {
    Value::Int(v)
}

fn s(v: &str) -> Value {
    Value::str(v)
}

/// Build the full 13-query SSBM workload.
pub fn all_queries() -> Vec<SsbQuery> {
    use AggExpr::*;
    use Dim::*;
    let dp = |dim, column, pred| DimPredicate { dim, column, pred };
    let fp = |column, pred| FactPredicate { column, pred };
    let g = |dim, column| GroupColumn { dim, column };

    vec![
        // ---- Flight 1: restriction on DATE + two fact predicates; scalar
        // revenue-gain aggregate. ----
        SsbQuery {
            id: QueryId::new(1, 1),
            dim_predicates: vec![dp(Date, "d_year", Pred::Eq(int(1993)))],
            fact_predicates: vec![
                fp("lo_discount", Pred::Between(int(1), int(3))),
                fp("lo_quantity", Pred::Lt(int(25))),
            ],
            group_by: vec![],
            aggregate: SumExtendedPriceTimesDiscount,
            paper_selectivity: 1.9e-2,
        },
        SsbQuery {
            id: QueryId::new(1, 2),
            dim_predicates: vec![dp(Date, "d_yearmonthnum", Pred::Eq(int(199401)))],
            fact_predicates: vec![
                fp("lo_discount", Pred::Between(int(4), int(6))),
                fp("lo_quantity", Pred::Between(int(26), int(35))),
            ],
            group_by: vec![],
            aggregate: SumExtendedPriceTimesDiscount,
            paper_selectivity: 6.5e-4,
        },
        SsbQuery {
            id: QueryId::new(1, 3),
            dim_predicates: vec![
                dp(Date, "d_weeknuminyear", Pred::Eq(int(6))),
                dp(Date, "d_year", Pred::Eq(int(1994))),
            ],
            fact_predicates: vec![
                fp("lo_discount", Pred::Between(int(5), int(7))),
                fp("lo_quantity", Pred::Between(int(36), int(40))),
            ],
            group_by: vec![],
            aggregate: SumExtendedPriceTimesDiscount,
            paper_selectivity: 7.5e-5,
        },
        // ---- Flight 2: PART category/brand × SUPPLIER region; revenue by
        // (year, brand). ----
        SsbQuery {
            id: QueryId::new(2, 1),
            dim_predicates: vec![
                dp(Part, "p_category", Pred::Eq(s("MFGR#12"))),
                dp(Supplier, "s_region", Pred::Eq(s("AMERICA"))),
            ],
            fact_predicates: vec![],
            group_by: vec![g(Date, "d_year"), g(Part, "p_brand1")],
            aggregate: SumRevenue,
            paper_selectivity: 8.0e-3,
        },
        SsbQuery {
            id: QueryId::new(2, 2),
            dim_predicates: vec![
                dp(Part, "p_brand1", Pred::Between(s("MFGR#2221"), s("MFGR#2228"))),
                dp(Supplier, "s_region", Pred::Eq(s("ASIA"))),
            ],
            fact_predicates: vec![],
            group_by: vec![g(Date, "d_year"), g(Part, "p_brand1")],
            aggregate: SumRevenue,
            paper_selectivity: 1.6e-3,
        },
        SsbQuery {
            id: QueryId::new(2, 3),
            dim_predicates: vec![
                dp(Part, "p_brand1", Pred::Eq(s("MFGR#2239"))),
                dp(Supplier, "s_region", Pred::Eq(s("EUROPE"))),
            ],
            fact_predicates: vec![],
            group_by: vec![g(Date, "d_year"), g(Part, "p_brand1")],
            aggregate: SumRevenue,
            paper_selectivity: 2.0e-4,
        },
        // ---- Flight 3: CUSTOMER × SUPPLIER geography over a time window;
        // revenue by (c-geo, s-geo, year). ----
        SsbQuery {
            id: QueryId::new(3, 1),
            dim_predicates: vec![
                dp(Customer, "c_region", Pred::Eq(s("ASIA"))),
                dp(Supplier, "s_region", Pred::Eq(s("ASIA"))),
                dp(Date, "d_year", Pred::Between(int(1992), int(1997))),
            ],
            fact_predicates: vec![],
            group_by: vec![g(Customer, "c_nation"), g(Supplier, "s_nation"), g(Date, "d_year")],
            aggregate: SumRevenue,
            paper_selectivity: 3.4e-2,
        },
        SsbQuery {
            id: QueryId::new(3, 2),
            dim_predicates: vec![
                dp(Customer, "c_nation", Pred::Eq(s("UNITED STATES"))),
                dp(Supplier, "s_nation", Pred::Eq(s("UNITED STATES"))),
                dp(Date, "d_year", Pred::Between(int(1992), int(1997))),
            ],
            fact_predicates: vec![],
            group_by: vec![g(Customer, "c_city"), g(Supplier, "s_city"), g(Date, "d_year")],
            aggregate: SumRevenue,
            paper_selectivity: 1.4e-3,
        },
        SsbQuery {
            id: QueryId::new(3, 3),
            dim_predicates: vec![
                dp(Customer, "c_city", Pred::InSet(vec![s("UNITED KI1"), s("UNITED KI5")])),
                dp(Supplier, "s_city", Pred::InSet(vec![s("UNITED KI1"), s("UNITED KI5")])),
                dp(Date, "d_year", Pred::Between(int(1992), int(1997))),
            ],
            fact_predicates: vec![],
            group_by: vec![g(Customer, "c_city"), g(Supplier, "s_city"), g(Date, "d_year")],
            aggregate: SumRevenue,
            paper_selectivity: 5.5e-5,
        },
        SsbQuery {
            id: QueryId::new(3, 4),
            dim_predicates: vec![
                dp(Customer, "c_city", Pred::InSet(vec![s("UNITED KI1"), s("UNITED KI5")])),
                dp(Supplier, "s_city", Pred::InSet(vec![s("UNITED KI1"), s("UNITED KI5")])),
                dp(Date, "d_yearmonth", Pred::Eq(s("Dec1997"))),
            ],
            fact_predicates: vec![],
            group_by: vec![g(Customer, "c_city"), g(Supplier, "s_city"), g(Date, "d_year")],
            aggregate: SumRevenue,
            paper_selectivity: 7.6e-7,
        },
        // ---- Flight 4: profit queries over three dimensions. ----
        SsbQuery {
            id: QueryId::new(4, 1),
            dim_predicates: vec![
                dp(Customer, "c_region", Pred::Eq(s("AMERICA"))),
                dp(Supplier, "s_region", Pred::Eq(s("AMERICA"))),
                dp(Part, "p_mfgr", Pred::InSet(vec![s("MFGR#1"), s("MFGR#2")])),
            ],
            fact_predicates: vec![],
            group_by: vec![g(Date, "d_year"), g(Customer, "c_nation")],
            aggregate: SumRevenueMinusSupplyCost,
            paper_selectivity: 1.6e-2,
        },
        SsbQuery {
            id: QueryId::new(4, 2),
            dim_predicates: vec![
                dp(Customer, "c_region", Pred::Eq(s("AMERICA"))),
                dp(Supplier, "s_region", Pred::Eq(s("AMERICA"))),
                dp(Date, "d_year", Pred::Between(int(1997), int(1998))),
                dp(Part, "p_mfgr", Pred::InSet(vec![s("MFGR#1"), s("MFGR#2")])),
            ],
            fact_predicates: vec![],
            group_by: vec![g(Date, "d_year"), g(Supplier, "s_nation"), g(Part, "p_category")],
            aggregate: SumRevenueMinusSupplyCost,
            paper_selectivity: 4.5e-3,
        },
        SsbQuery {
            id: QueryId::new(4, 3),
            dim_predicates: vec![
                dp(Customer, "c_region", Pred::Eq(s("AMERICA"))),
                dp(Supplier, "s_nation", Pred::Eq(s("UNITED STATES"))),
                dp(Date, "d_year", Pred::Between(int(1997), int(1998))),
                dp(Part, "p_category", Pred::Eq(s("MFGR#14"))),
            ],
            fact_predicates: vec![],
            group_by: vec![g(Date, "d_year"), g(Supplier, "s_city"), g(Part, "p_brand1")],
            aggregate: SumRevenueMinusSupplyCost,
            paper_selectivity: 9.1e-5,
        },
    ]
}

/// Find one query by id, panicking when absent.
pub fn query(flight: u8, number: u8) -> SsbQuery {
    all_queries()
        .into_iter()
        .find(|q| q.id == QueryId::new(flight, number))
        .unwrap_or_else(|| panic!("no query Q{flight}.{number}"))
}

/// The query flights, for per-flight reporting: `flights()[0]` is flight 1.
pub fn flights() -> Vec<Vec<SsbQuery>> {
    let mut out = vec![Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    for q in all_queries() {
        out[(q.id.flight - 1) as usize].push(q);
    }
    out
}

/// The fact columns `flight`'s paper queries read, in first-use order, or
/// `None` when `flight` is not one of the paper's four. A per-flight view
/// (the row store's `MV`, CS (Row-MV)'s string views) holds exactly these.
pub fn flight_fact_columns(flight: u8) -> Option<&'static [&'static str]> {
    static FLIGHTS: OnceLock<Vec<Vec<&'static str>>> = OnceLock::new();
    let flights = FLIGHTS.get_or_init(|| {
        flights()
            .iter()
            .map(|f| {
                let mut columns = Vec::new();
                for q in f {
                    push_new(&mut columns, q.fact_columns());
                }
                columns
            })
            .collect()
    });
    flights.get(usize::from(flight).checked_sub(1)?).map(Vec::as_slice)
}

/// Every column some paper query reads, in first-use order.
#[derive(Debug)]
pub struct PaperColumns {
    /// Fact columns.
    pub fact: Vec<&'static str>,
    /// `(dimension, column)` pairs: per query, its predicate columns, then
    /// its group columns.
    pub dims: Vec<(Dim, &'static str)>,
}

/// The columns of the paper workload: what the row store's index-only
/// design indexes and what the pre-joined tables inline.
pub fn paper_columns() -> &'static PaperColumns {
    static PAPER: OnceLock<PaperColumns> = OnceLock::new();
    PAPER.get_or_init(|| {
        let mut cols = PaperColumns { fact: Vec::new(), dims: Vec::new() };
        for q in all_queries() {
            push_new(&mut cols.fact, q.fact_columns());
            push_new(&mut cols.dims, q.dim_predicates.iter().map(|p| (p.dim, p.column)));
            push_new(&mut cols.dims, q.group_by.iter().map(|g| (g.dim, g.column)));
        }
        cols
    })
}

/// Append each of `items` that `into` does not hold yet.
fn push_new<T: PartialEq>(into: &mut Vec<T>, items: impl IntoIterator<Item = T>) {
    for item in items {
        if !into.contains(&item) {
            into.push(item);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::star_schema;

    #[test]
    fn thirteen_queries_in_four_flights() {
        let f = flights();
        assert_eq!(f.iter().map(Vec::len).collect::<Vec<_>>(), vec![3, 3, 4, 3]);
    }

    #[test]
    fn column_sets_cover_the_paper_queries() {
        assert_eq!(flight_fact_columns(0), None);
        assert_eq!(flight_fact_columns(5), None);
        assert_eq!(
            flight_fact_columns(1),
            Some(&["lo_orderdate", "lo_discount", "lo_quantity", "lo_extendedprice"][..])
        );
        let paper = paper_columns();
        for q in all_queries() {
            let flight = flight_fact_columns(q.id.flight).unwrap();
            assert!(q.fact_columns().iter().all(|c| flight.contains(c) && paper.fact.contains(c)));
            assert!(q.group_by.iter().all(|g| paper.dims.contains(&(g.dim, g.column))));
        }
    }

    #[test]
    fn query_lookup() {
        assert_eq!(query(3, 1).id.to_string(), "Q3.1");
    }

    #[test]
    #[should_panic(expected = "no query")]
    fn query_lookup_panics() {
        query(5, 1);
    }

    #[test]
    fn all_referenced_columns_exist() {
        let schema = star_schema();
        for q in all_queries() {
            for p in &q.dim_predicates {
                schema.dim(p.dim).col(p.column);
            }
            for p in &q.fact_predicates {
                schema.lineorder.col(p.column);
            }
            for g in &q.group_by {
                schema.dim(g.dim).col(g.column);
            }
            for c in q.fact_columns() {
                schema.lineorder.col(c);
            }
        }
    }

    #[test]
    fn flight1_reads_minimal_fact_columns() {
        let q = query(1, 1);
        let cols = q.fact_columns();
        // orderdate FK + two predicate columns + two aggregate inputs,
        // with lo_discount shared between predicate and aggregate.
        assert_eq!(cols, vec!["lo_orderdate", "lo_discount", "lo_quantity", "lo_extendedprice"]);
    }

    #[test]
    fn q31_touches_three_dims() {
        let q = query(3, 1);
        assert_eq!(q.touched_dims().len(), 3);
        assert_eq!(q.restricted_dims().len(), 3);
    }

    #[test]
    fn q21_touches_date_via_groupby_only() {
        let q = query(2, 1);
        // DATE is grouped but not restricted.
        assert_eq!(q.restricted_dims().len(), 2);
        assert_eq!(q.touched_dims().len(), 3);
    }

    #[test]
    fn pred_eval() {
        assert!(Pred::Eq(Value::Int(5)).matches_int(5));
        assert!(!Pred::Eq(Value::Int(5)).matches_int(6));
        assert!(Pred::Between(Value::Int(1), Value::Int(3)).matches_int(3));
        assert!(!Pred::Between(Value::Int(1), Value::Int(3)).matches_int(4));
        assert!(Pred::Lt(Value::Int(25)).matches_int(24));
        assert!(!Pred::Lt(Value::Int(25)).matches_int(25));
        assert!(Pred::InSet(vec![Value::str("a"), Value::str("b")]).matches_str("b"));
        assert!(Pred::Eq(Value::str("ASIA")).matches(&Value::str("ASIA")));
        assert!(Pred::Between(Value::str("MFGR#2221"), Value::str("MFGR#2228"))
            .matches_str("MFGR#2225"));
    }

    #[test]
    fn aggregate_terms() {
        assert_eq!(AggExpr::SumRevenue.term(&[10]), 10);
        assert_eq!(AggExpr::SumExtendedPriceTimesDiscount.term(&[10, 3]), 30);
        assert_eq!(AggExpr::SumRevenueMinusSupplyCost.term(&[10, 4]), 6);
    }

    #[test]
    fn with_fact_order_permutes_only_fact_predicates() {
        let q = query(1, 1);
        let r = q.with_fact_order(&[1, 0]);
        assert_eq!(r.fact_predicates[0], q.fact_predicates[1]);
        assert_eq!(r.fact_predicates[1], q.fact_predicates[0]);
        assert_eq!(r.dim_predicates, q.dim_predicates);
        assert_eq!(r.id, q.id);
        // Identity order round-trips.
        assert_eq!(q.with_fact_order(&[0, 1]).fact_predicates, q.fact_predicates);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn with_fact_order_rejects_duplicates() {
        query(1, 1).with_fact_order(&[0, 0]);
    }

    #[test]
    fn paper_selectivities_recorded() {
        let sels: Vec<f64> = all_queries().iter().map(|q| q.paper_selectivity).collect();
        assert_eq!(sels.len(), 13);
        assert!(sels.iter().all(|&s| s > 0.0 && s < 1.0));
        // Spot-check the two extremes quoted in Section 3.
        assert_eq!(query(1, 1).paper_selectivity, 1.9e-2);
        assert_eq!(query(3, 4).paper_selectivity, 7.6e-7);
    }
}
