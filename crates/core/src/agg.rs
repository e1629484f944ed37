//! Grouped aggregation shared by every column-engine plan shape.
//!
//! Two aggregators live here:
//!
//! * [`Grouper`] — the scalar reference implementation: a
//!   `HashMap<Vec<Value>, i64>` keyed by freshly allocated, cloned value
//!   vectors. One entry allocation + `k` value clones per *row* — exactly
//!   the "construct tuples early, pay per tuple" tax Section 5.4 warns
//!   about. It anchors the differential tests the way `kernels::scalar`
//!   anchors the scan kernels.
//! * [`CodeGrouper`] over a [`GroupLayout`] — the code-level aggregator the
//!   engines actually run: group columns are extracted as dense `u32`
//!   *codes* (dictionary codes, frame-of-reference deltas, or interned
//!   locals), composed into one `u64` group id by radix-multiplying the
//!   per-column domain sizes, and accumulated with zero per-row
//!   allocations — a direct-index `Vec<i64>` when the composed domain is
//!   small (it always is for the 13 SSB queries), a `u64`-keyed hash map
//!   otherwise. `finish` decodes each group id back to a `Value` row
//!   exactly **once per group**, which is the paper's late-materialization
//!   argument carried all the way to the operator tail: strings are touched
//!   `O(groups)` times, not `O(rows)`.
//!
//! [`AggStrategy`] picks between them per query: code-level whenever every
//! group column exposes a code space (all compressed SSB configurations),
//! the `Value`-keyed reference otherwise (plain string columns have no
//! global code assignment, and inventing one per morsel would make codes
//! inconsistent across workers).

use crate::extract::{extract_at, extract_codes_at, CodeSpace};
use crate::projection::CStoreDb;
use cvr_data::queries::SsbQuery;
use cvr_data::result::QueryOutput;
use cvr_data::value::Value;
use cvr_storage::column::StoredColumn;
use cvr_storage::io::IoSession;
use std::collections::HashMap;

/// Accumulates `group key → sum` pairs. The scalar reference aggregator.
#[derive(Debug, Default)]
pub struct Grouper {
    map: HashMap<Vec<Value>, i64>,
}

impl Grouper {
    /// Empty grouper.
    pub fn new() -> Grouper {
        Grouper { map: HashMap::new() }
    }

    /// Add `term` to the group `key`.
    #[inline]
    pub fn add(&mut self, key: Vec<Value>, term: i64) {
        *self.map.entry(key).or_insert(0) += term;
    }

    /// Fold another grouper's partial aggregates into this one. Integer sums
    /// commute, and [`Grouper::finish`] sorts rows, so merging per-morsel
    /// groupers in morsel order yields byte-identical outputs on every
    /// morsel grid.
    pub fn merge(&mut self, other: Grouper) {
        if self.map.is_empty() {
            self.map = other.map;
            return;
        }
        for (key, term) in other.map {
            *self.map.entry(key).or_insert(0) += term;
        }
    }

    /// Number of groups so far.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no groups were added.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Finish into a normalized [`QueryOutput`] under `q`'s semantics
    /// (scalar queries over zero rows canonicalize to 0).
    pub fn finish(self, q: &SsbQuery) -> QueryOutput {
        if self.map.is_empty() && q.group_by.is_empty() {
            return QueryOutput::scalar(0);
        }
        QueryOutput::new(self.map.into_iter().collect())
    }
}

// ---------------------------------------------------------------------------
// Code-level aggregation
// ---------------------------------------------------------------------------

/// Largest composed domain the direct-index accumulator will allocate
/// (`8 × LIMIT` bytes of sums per partial). Every paper query's composed
/// domain fits; city × city × year group-bys overflow into the hash kernel.
pub const DIRECT_GROUPS_LIMIT: u64 = 1 << 16;

/// Decodes one group column's codes back to [`Value`]s at finish time.
#[derive(Debug, Clone)]
pub enum CodeDecoder {
    /// `code → Value::Int(reference + code)` (frame-of-reference integers).
    IntOffset(i64),
    /// `code → values[code]` (dictionary strings, interned locals, or
    /// filtered dimension rows).
    Values(Vec<Value>),
}

impl CodeDecoder {
    /// Decode one code.
    fn decode(&self, code: u32) -> Value {
        match self {
            CodeDecoder::IntOffset(reference) => Value::Int(reference + code as i64),
            CodeDecoder::Values(values) => values[code as usize].clone(),
        }
    }
}

/// The shape of a composed group id: per-column domain sizes (the radix
/// multipliers) plus the per-column decoders applied once per group at
/// finish. Built once per query execution and shared read-only by every
/// morsel, so codes and ids are globally consistent.
#[derive(Debug)]
pub struct GroupLayout {
    domains: Vec<u64>,
    decoders: Vec<CodeDecoder>,
    total: u64,
}

impl GroupLayout {
    /// Compose a layout from `(domain, decoder)` pairs, one per group
    /// column. Returns `None` when any domain is zero or the radix product
    /// overflows `u64` — callers fall back to the [`Grouper`] reference.
    pub fn try_new(cols: Vec<(u64, CodeDecoder)>) -> Option<GroupLayout> {
        let mut total = 1u64;
        for (domain, _) in &cols {
            if *domain == 0 {
                return None;
            }
            total = total.checked_mul(*domain)?;
        }
        let (domains, decoders) = cols.into_iter().unzip();
        Some(GroupLayout { domains, decoders, total })
    }

    /// Number of group columns.
    pub fn num_columns(&self) -> usize {
        self.domains.len()
    }

    /// Product of the per-column domains (the group-id universe).
    pub fn total_domain(&self) -> u64 {
        self.total
    }

    /// True when ids fit the direct-index accumulator.
    pub fn is_direct(&self) -> bool {
        self.total <= DIRECT_GROUPS_LIMIT
    }

    /// Decompose `id` and decode each column's code — called once per
    /// *group*, never per row.
    fn decode(&self, mut id: u64) -> Vec<Value> {
        let mut key = vec![Value::Int(0); self.domains.len()];
        for c in (0..self.domains.len()).rev() {
            let code = (id % self.domains[c]) as u32;
            id /= self.domains[c];
            key[c] = self.decoders[c].decode(code);
        }
        key
    }
}

/// The accumulation kernel: composed `u64` group ids → running sums, with
/// zero per-row allocations.
#[derive(Debug)]
pub struct CodeGrouper {
    /// Per-column domains, copied from the layout so row loops can compose
    /// ids without holding the layout.
    radix: Vec<u64>,
    repr: Repr,
}

#[derive(Debug)]
enum Repr {
    /// Direct indexing: `sums[id]` plus a seen-bitmap so zero-sum groups
    /// still surface and absent ids never do.
    Direct { sums: Vec<i64>, seen: Vec<u64>, groups: u32 },
    /// `u64`-keyed fallback for large composed domains.
    Hash(HashMap<u64, i64>),
}

impl CodeGrouper {
    /// An empty accumulator shaped for `layout`.
    pub fn for_layout(layout: &GroupLayout) -> CodeGrouper {
        let repr = if layout.is_direct() {
            let n = layout.total as usize;
            Repr::Direct { sums: vec![0; n], seen: vec![0; n.div_ceil(64)], groups: 0 }
        } else {
            Repr::Hash(HashMap::new())
        };
        CodeGrouper { radix: layout.domains.clone(), repr }
    }

    /// Domain of group column `c` (the radix multiplier row loops use).
    #[inline]
    pub fn radix(&self, c: usize) -> u64 {
        self.radix[c]
    }

    /// Add `term` to the group `id`.
    #[inline]
    pub fn add(&mut self, id: u64, term: i64) {
        match &mut self.repr {
            Repr::Direct { sums, seen, groups } => {
                let i = id as usize;
                let bit = 1u64 << (i & 63);
                let word = &mut seen[i >> 6];
                if *word & bit == 0 {
                    *word |= bit;
                    *groups += 1;
                }
                sums[i] += term;
            }
            Repr::Hash(map) => *map.entry(id).or_insert(0) += term,
        }
    }

    /// Number of groups so far.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Direct { groups, .. } => *groups as usize,
            Repr::Hash(map) => map.len(),
        }
    }

    /// True when no groups were added.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fold another partial into this one (morsel merge). Both sides must
    /// come from the same [`GroupLayout`].
    pub fn merge(&mut self, other: CodeGrouper) {
        assert_eq!(self.radix, other.radix, "merging partials of different layouts");
        match (&mut self.repr, other.repr) {
            (
                Repr::Direct { sums, seen, groups },
                Repr::Direct { sums: osums, seen: oseen, .. },
            ) => {
                for (w, &ow) in oseen.iter().enumerate() {
                    let mut m = ow;
                    while m != 0 {
                        let i = (w << 6) | m.trailing_zeros() as usize;
                        m &= m - 1;
                        let bit = 1u64 << (i & 63);
                        if seen[i >> 6] & bit == 0 {
                            seen[i >> 6] |= bit;
                            *groups += 1;
                        }
                        sums[i] += osums[i];
                    }
                }
            }
            (Repr::Hash(map), Repr::Hash(omap)) => {
                if map.is_empty() {
                    *map = omap;
                } else {
                    for (id, term) in omap {
                        *map.entry(id).or_insert(0) += term;
                    }
                }
            }
            _ => unreachable!("same layout implies same representation"),
        }
    }

    /// Decode every group id exactly once and normalize — byte-identical to
    /// the [`Grouper`] reference over the same rows.
    pub fn finish(self, layout: &GroupLayout, q: &SsbQuery) -> QueryOutput {
        let rows: Vec<(Vec<Value>, i64)> = match self.repr {
            Repr::Direct { sums, seen, .. } => {
                let mut rows = Vec::new();
                for (w, &word) in seen.iter().enumerate() {
                    let mut m = word;
                    while m != 0 {
                        let i = (w << 6) | m.trailing_zeros() as usize;
                        m &= m - 1;
                        rows.push((layout.decode(i as u64), sums[i]));
                    }
                }
                rows
            }
            Repr::Hash(map) => map.into_iter().map(|(id, sum)| (layout.decode(id), sum)).collect(),
        };
        if rows.is_empty() && q.group_by.is_empty() {
            return QueryOutput::scalar(0);
        }
        QueryOutput::new(rows)
    }
}

// ---------------------------------------------------------------------------
// Plan-shape integration
// ---------------------------------------------------------------------------

/// One extracted group column: `u32` codes in code-level mode, materialized
/// [`Value`]s in the reference mode.
#[derive(Debug)]
pub enum GroupData {
    /// Codes in the column's global code space.
    Codes(Vec<u32>),
    /// Materialized values (reference mode).
    Values(Vec<Value>),
}

impl GroupData {
    fn codes(&self) -> &[u32] {
        match self {
            GroupData::Codes(c) => c,
            GroupData::Values(_) => panic!("expected codes, found values"),
        }
    }

    fn values(&self) -> &[Value] {
        match self {
            GroupData::Values(v) => v,
            GroupData::Codes(_) => panic!("expected values, found codes"),
        }
    }

    /// Keep only the entries whose `keep` flag is set (the late join's
    /// compaction as later predicates discard fact rows).
    pub fn retain_marked(&mut self, keep: &[bool]) {
        let mut j = 0;
        match self {
            GroupData::Codes(c) => c.retain(|_| {
                let k = keep[j];
                j += 1;
                k
            }),
            GroupData::Values(v) => v.retain(|_| {
                let k = keep[j];
                j += 1;
                k
            }),
        }
    }
}

/// Intern one column of values into a local dictionary: per-row codes in
/// first-occurrence order plus the distinct values (one clone per
/// *distinct* value, never per row). Callers compose the domain as
/// `values.len().max(1)` so an empty column still contributes radix 1.
pub fn intern_values<'a>(col: impl IntoIterator<Item = &'a Value>) -> (Vec<u32>, Vec<Value>) {
    let mut index: HashMap<&Value, u32> = HashMap::new();
    let mut values: Vec<Value> = Vec::new();
    let mut codes = Vec::new();
    for v in col {
        let next = values.len() as u32;
        codes.push(*index.entry(v).or_insert_with(|| {
            values.push(v.clone());
            next
        }));
    }
    (codes, values)
}

/// True when the `CVR_AGG=value` ablation forces the Value-keyed reference
/// aggregator everywhere — the knob the `agg` benchmark uses to run the
/// pre-refactor aggregation tail against the code-level one (outputs and
/// I/O accounting must stay byte-identical; only CPU time moves).
pub fn value_keyed_forced() -> bool {
    std::env::var_os("CVR_AGG").is_some_and(|v| v == "value")
}

/// The aggregation strategy for one query execution over one storage
/// variant: code-level whenever every group column exposes a global code
/// space, the [`Grouper`] reference otherwise.
#[derive(Debug)]
pub enum AggStrategy {
    /// Code-level: extraction yields codes, accumulation composes ids.
    Code {
        /// Id composition + finish-time decoders.
        layout: GroupLayout,
        /// Per group column (aligned with `q.group_by`): how positions map
        /// to codes.
        spaces: Vec<CodeSpace>,
    },
    /// Value-keyed reference fallback.
    Value,
}

impl AggStrategy {
    /// Build the strategy for `q` over `db`'s dimension columns. Pure
    /// column-header metadata — charges no modeled I/O.
    pub fn for_query(db: &CStoreDb, q: &SsbQuery) -> AggStrategy {
        if value_keyed_forced() {
            return AggStrategy::Value;
        }
        let mut cols = Vec::with_capacity(q.group_by.len());
        let mut spaces = Vec::with_capacity(q.group_by.len());
        for g in &q.group_by {
            let col = db.dim(g.dim).store.column(g.column);
            match CodeSpace::of(col) {
                Some(space) => {
                    cols.push((space.domain(), space.decoder(col)));
                    spaces.push(space);
                }
                None => return AggStrategy::Value,
            }
        }
        match GroupLayout::try_new(cols) {
            Some(layout) => AggStrategy::Code { layout, spaces },
            None => AggStrategy::Value,
        }
    }

    /// True when this query aggregates on codes.
    pub fn is_code_level(&self) -> bool {
        matches!(self, AggStrategy::Code { .. })
    }

    /// Extract group column `gi` at *arbitrary-order* positions (the
    /// dimension-lookup pattern). Charges the same positional gather as
    /// [`extract_at`] in either mode.
    pub fn extract_group_at(
        &self,
        gi: usize,
        col: &StoredColumn,
        positions: &[u32],
        io: &IoSession,
    ) -> GroupData {
        match self {
            AggStrategy::Code { spaces, .. } => {
                GroupData::Codes(extract_codes_at(&spaces[gi], col, positions, io))
            }
            AggStrategy::Value => GroupData::Values(extract_at(col, positions, io)),
        }
    }

    /// An empty partial shaped for this strategy.
    pub fn new_partial(&self) -> AggPartial {
        match self {
            AggStrategy::Code { layout, .. } => AggPartial::Code(CodeGrouper::for_layout(layout)),
            AggStrategy::Value => AggPartial::Value(Grouper::new()),
        }
    }

    /// Finish a (merged) partial into the normalized output.
    pub fn finish(&self, partial: AggPartial, q: &SsbQuery) -> QueryOutput {
        match (self, partial) {
            (AggStrategy::Code { layout, .. }, AggPartial::Code(g)) => g.finish(layout, q),
            (AggStrategy::Value, AggPartial::Value(g)) => g.finish(q),
            _ => panic!("partial does not match strategy"),
        }
    }
}

/// A partial aggregate under one [`AggStrategy`] — what each morsel
/// produces and the coordinator merges in morsel order.
#[derive(Debug)]
pub enum AggPartial {
    /// Code-level partial.
    Code(CodeGrouper),
    /// Reference partial.
    Value(Grouper),
}

impl AggPartial {
    /// Accumulate `count` aligned rows: `group` carries one entry per group
    /// column, `measures` one array per aggregate input. The code arm is
    /// the engine's hot aggregation loop — no allocations, no clones.
    pub fn add_rows(
        &mut self,
        q: &SsbQuery,
        group: &[GroupData],
        measures: &[Vec<i64>],
        count: usize,
    ) {
        let mut inputs = vec![0i64; measures.len()];
        match self {
            AggPartial::Code(g) => {
                for i in 0..count {
                    for (j, m) in measures.iter().enumerate() {
                        inputs[j] = m[i];
                    }
                    let mut id = 0u64;
                    for (c, gd) in group.iter().enumerate() {
                        id = id * g.radix(c) + gd.codes()[i] as u64;
                    }
                    g.add(id, q.aggregate.term(&inputs));
                }
            }
            AggPartial::Value(g) => {
                for i in 0..count {
                    for (j, m) in measures.iter().enumerate() {
                        inputs[j] = m[i];
                    }
                    let key: Vec<Value> = group.iter().map(|gd| gd.values()[i].clone()).collect();
                    g.add(key, q.aggregate.term(&inputs));
                }
            }
        }
    }

    /// Number of groups so far.
    pub fn len(&self) -> usize {
        match self {
            AggPartial::Code(g) => g.len(),
            AggPartial::Value(g) => g.len(),
        }
    }

    /// True when no groups were added.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fold another partial into this one (morsel merge).
    pub fn merge(&mut self, other: AggPartial) {
        match (self, other) {
            (AggPartial::Code(a), AggPartial::Code(b)) => a.merge(b),
            (AggPartial::Value(a), AggPartial::Value(b)) => a.merge(b),
            _ => panic!("merging partials of different strategies"),
        }
    }
}

/// Aggregate column-major inputs: `group_cols` are aligned value arrays (one
/// per group-by column), `terms` the per-row aggregate terms.
///
/// Routed through the code-level aggregator: each column is interned into a
/// local dictionary (one clone per *distinct* value, not per row), rows
/// compose ids, and groups decode once at finish. The former per-row
/// `clone()` path survives only as the overflow fallback.
pub fn aggregate_columns(q: &SsbQuery, group_cols: &[Vec<Value>], terms: &[i64]) -> QueryOutput {
    if value_keyed_forced() {
        return aggregate_columns_value_keyed(q, group_cols, terms);
    }
    let mut cols = Vec::with_capacity(group_cols.len());
    let mut code_arrays: Vec<Vec<u32>> = Vec::with_capacity(group_cols.len());
    for col in group_cols {
        let (codes, values) = intern_values(col);
        cols.push((values.len().max(1) as u64, CodeDecoder::Values(values)));
        code_arrays.push(codes);
    }
    match GroupLayout::try_new(cols) {
        Some(layout) => {
            let mut g = CodeGrouper::for_layout(&layout);
            for (i, &term) in terms.iter().enumerate() {
                let mut id = 0u64;
                for (c, codes) in code_arrays.iter().enumerate() {
                    id = id * g.radix(c) + codes[i] as u64;
                }
                g.add(id, term);
            }
            g.finish(&layout, q)
        }
        // Interned domains overflowed u64 composition: the reference
        // per-row clone path still answers correctly.
        None => aggregate_columns_value_keyed(q, group_cols, terms),
    }
}

/// The pre-refactor per-row clone path, kept as the reference tail (and the
/// `CVR_AGG=value` ablation target).
fn aggregate_columns_value_keyed(
    q: &SsbQuery,
    group_cols: &[Vec<Value>],
    terms: &[i64],
) -> QueryOutput {
    let mut g = Grouper::new();
    for (i, &term) in terms.iter().enumerate() {
        let key: Vec<Value> = group_cols.iter().map(|c| c[i].clone()).collect();
        g.add(key, term);
    }
    g.finish(q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvr_data::queries::query;

    #[test]
    fn grouper_sums() {
        let mut g = Grouper::new();
        g.add(vec![Value::str("a")], 1);
        g.add(vec![Value::str("a")], 2);
        g.add(vec![Value::str("b")], 5);
        assert_eq!(g.len(), 2);
        let out = g.finish(&query(2, 1));
        assert_eq!(out.rows, vec![(vec![Value::str("a")], 3), (vec![Value::str("b")], 5)]);
    }

    #[test]
    fn merge_combines_partial_aggregates() {
        let mut a = Grouper::new();
        a.add(vec![Value::str("x")], 1);
        a.add(vec![Value::str("y")], 10);
        let mut b = Grouper::new();
        b.add(vec![Value::str("x")], 2);
        b.add(vec![Value::str("z")], 100);
        a.merge(b);
        let out = a.finish(&query(2, 1));
        assert_eq!(
            out.rows,
            vec![
                (vec![Value::str("x")], 3),
                (vec![Value::str("y")], 10),
                (vec![Value::str("z")], 100)
            ]
        );
        // Merging into an empty grouper adopts the other side wholesale.
        let mut empty = Grouper::new();
        let mut c = Grouper::new();
        c.add(vec![Value::Int(1)], 7);
        empty.merge(c);
        assert_eq!(empty.len(), 1);
    }

    #[test]
    fn scalar_zero_for_empty() {
        let out = Grouper::new().finish(&query(1, 1));
        assert_eq!(out, QueryOutput::scalar(0));
    }

    #[test]
    fn grouped_empty_stays_empty() {
        let out = Grouper::new().finish(&query(2, 1));
        assert!(out.rows.is_empty());
    }

    #[test]
    fn aggregate_columns_aligns() {
        let groups = vec![
            vec![Value::Int(1), Value::Int(1), Value::Int(2)],
            vec![Value::str("x"), Value::str("y"), Value::str("x")],
        ];
        let terms = vec![10, 20, 30];
        let out = aggregate_columns(&query(2, 1), &groups, &terms);
        assert_eq!(out.rows.len(), 3);
        assert_eq!(out.checksum(), 60);
    }

    #[test]
    fn aggregate_columns_matches_reference_grouper() {
        // The interned code path must be byte-identical to the per-row
        // clone path it replaced.
        let groups = vec![
            vec![Value::Int(5), Value::Int(5), Value::Int(5), Value::Int(9)],
            vec![Value::str("a"), Value::str("b"), Value::str("a"), Value::str("a")],
        ];
        let terms = vec![1, 2, 4, 8];
        let mut reference = Grouper::new();
        for (i, &t) in terms.iter().enumerate() {
            reference.add(groups.iter().map(|c| c[i].clone()).collect(), t);
        }
        let q = query(2, 1);
        assert_eq!(aggregate_columns(&q, &groups, &terms), reference.finish(&q));
    }

    fn int_layout(domains: &[u64]) -> GroupLayout {
        GroupLayout::try_new(domains.iter().map(|&d| (d, CodeDecoder::IntOffset(0))).collect())
            .expect("layout composes")
    }

    #[test]
    fn code_grouper_direct_and_hash_agree() {
        let direct = int_layout(&[10, 10]);
        assert!(direct.is_direct());
        let hash = GroupLayout::try_new(vec![
            (DIRECT_GROUPS_LIMIT + 1, CodeDecoder::IntOffset(0)),
            (10, CodeDecoder::IntOffset(0)),
        ])
        .unwrap();
        assert!(!hash.is_direct());
        let q = query(2, 1);
        let mut a = CodeGrouper::for_layout(&direct);
        let mut b = CodeGrouper::for_layout(&hash);
        for (c0, c1, term) in [(3u64, 4u64, 5i64), (3, 4, -5), (0, 0, 7), (9, 9, 1)] {
            a.add(c0 * 10 + c1, term);
            b.add(c0 * 10 + c1, term);
        }
        // Note the (3, 4) group sums to zero and must still surface.
        assert_eq!(a.len(), 3);
        let out_a = a.finish(&direct, &q);
        assert_eq!(out_a.rows.len(), 3);
        assert!(out_a.rows.contains(&(vec![Value::Int(3), Value::Int(4)], 0)));
        // The hash layout has a different radix, but the same (c0, c1)
        // codes decode to the same key values.
        let out_b = b.finish(&hash, &q);
        assert_eq!(out_a, out_b);
    }

    #[test]
    fn code_grouper_merge_matches_single_pass() {
        let layout = int_layout(&[64]);
        let q = query(2, 1);
        let ids: Vec<u64> = (0..200).map(|i| (i * 7) % 64).collect();
        let mut whole = CodeGrouper::for_layout(&layout);
        for &id in &ids {
            whole.add(id, id as i64 + 1);
        }
        let mut merged = CodeGrouper::for_layout(&layout);
        for chunk in ids.chunks(37) {
            let mut part = CodeGrouper::for_layout(&layout);
            for &id in chunk {
                part.add(id, id as i64 + 1);
            }
            merged.merge(part);
        }
        assert_eq!(merged.len(), whole.len());
        assert_eq!(merged.finish(&layout, &q), whole.finish(&layout, &q));
    }

    #[test]
    fn layout_rejects_zero_and_overflowing_domains() {
        assert!(GroupLayout::try_new(vec![(0, CodeDecoder::IntOffset(0))]).is_none());
        assert!(GroupLayout::try_new(vec![
            (u64::MAX / 2, CodeDecoder::IntOffset(0)),
            (3, CodeDecoder::IntOffset(0)),
        ])
        .is_none());
        let l = int_layout(&[7, 1000]);
        assert_eq!(l.total_domain(), 7000);
        assert_eq!(l.num_columns(), 2);
    }

    #[test]
    fn scalar_semantics_match_reference() {
        let q = query(1, 1); // no group-by
        let layout = GroupLayout::try_new(vec![]).unwrap();
        assert_eq!(layout.total_domain(), 1);
        // Zero rows canonicalize to scalar 0 …
        let empty = CodeGrouper::for_layout(&layout);
        assert_eq!(empty.finish(&layout, &q), QueryOutput::scalar(0));
        // … and rows sum into the single empty-keyed group.
        let mut g = CodeGrouper::for_layout(&layout);
        g.add(0, 41);
        g.add(0, 1);
        assert_eq!(g.finish(&layout, &q), QueryOutput::scalar(42));
    }

    #[test]
    fn retain_marked_compacts_both_variants() {
        let keep = [true, false, true, false];
        let mut codes = GroupData::Codes(vec![1, 2, 3, 4]);
        codes.retain_marked(&keep);
        assert_eq!(codes.codes(), &[1, 3]);
        let mut values =
            GroupData::Values(vec![Value::Int(1), Value::Int(2), Value::Int(3), Value::Int(4)]);
        values.retain_marked(&keep);
        assert_eq!(values.values(), &[Value::Int(1), Value::Int(3)]);
    }
}
