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
//!   locals), composed into one `u64` group id — `Σ code_c × stride_c`, the
//!   stride of a column being the product of the domains after it — and
//!   accumulated with zero per-row allocations: a direct-index `Vec<i64>`
//!   when the composed domain is small (it always is for the 13 SSB
//!   queries), a `u64`-keyed hash map otherwise. `finish` decodes each group
//!   id back to a `Value` row exactly **once per group**, which is the
//!   paper's late-materialization argument carried all the way to the
//!   operator tail: strings are touched `O(groups)` times, not `O(rows)`.
//!
//! [`AggStrategy`] picks between them per query: code-level whenever every
//! group column exposes a code space (all compressed SSB configurations),
//! the `Value`-keyed reference otherwise (plain string columns have no
//! global code assignment, and inventing one per morsel would make codes
//! inconsistent across workers). Either way a plan shape drives one
//! [`AggWorker`] per worker — the extract→aggregate kernel of phase 3.
//!
//! **Partials merge in any order.** A worker's partial covers whichever
//! morsels the scheduler let it claim, so which rows land in which partial,
//! and the order partials merge in, vary from run to run. The merged answer
//! does not: every partial is a set of per-group integer sums over rows no
//! other partial saw, sums are `i64` wrapping additions (associative and
//! commutative, so no merge order can overflow where another does not), the
//! direct accumulator's seen-bitmap merges as a union, the hash and
//! `Value`-keyed partials are maps merged key by key, and `finish` sorts its
//! rows. `tests/prop_agg.rs` merges random partials in every order.

use crate::extract::{add_codes_at, extract_at, gather_ints_into, CodeSpace};
use crate::projection::CStoreDb;
use cvr_data::queries::SsbQuery;
use cvr_data::result::QueryOutput;
use cvr_data::value::Value;
use cvr_storage::column::{ColumnStore, StoredColumn};
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

    /// Add `term` to the group `key` (wrapping, like every sum here: see the
    /// module docs).
    #[inline]
    pub fn add(&mut self, key: Vec<Value>, term: i64) {
        let sum = self.map.entry(key).or_insert(0);
        *sum = sum.wrapping_add(term);
    }

    /// Fold another grouper's partial aggregates into this one. Partials
    /// over disjoint rows merge to the same groups and sums in any order.
    pub fn merge(&mut self, other: Grouper) {
        if self.map.is_empty() {
            self.map = other.map;
            return;
        }
        for (key, term) in other.map {
            self.add(key, term);
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
pub enum CodeDecoder<'d> {
    /// `code → Value::Int(reference + code)` (frame-of-reference integers).
    IntOffset(i64),
    /// `code → Value::Str(dict[code])`: a dictionary column's own entries,
    /// borrowed — a string is copied once per *group* that uses it, never
    /// per row, and nothing per query.
    Dict(&'d [Box<str>]),
    /// `code → values[code]` (interned locals or filtered dimension rows).
    Values(Vec<Value>),
}

impl CodeDecoder<'_> {
    /// Decode one code.
    pub(crate) fn decode(&self, code: u32) -> Value {
        match self {
            CodeDecoder::IntOffset(reference) => Value::Int(reference + code as i64),
            CodeDecoder::Dict(dict) => Value::Str(dict[code as usize].clone()),
            CodeDecoder::Values(values) => values[code as usize].clone(),
        }
    }
}

/// The shape of a composed group id: per-column domain sizes, the stride
/// each column's code is multiplied by, and the per-column decoders applied
/// once per group at finish. Built once per query execution and shared
/// read-only by every worker, so codes and ids are globally consistent.
#[derive(Debug)]
pub struct GroupLayout<'d> {
    domains: Vec<u64>,
    /// `strides[c]` = the product of `domains[c + 1..]`: a group id is
    /// `Σ code_c × strides[c]`, the mixed-radix number whose digits are the
    /// codes, whatever order the columns are added in.
    strides: Vec<u64>,
    decoders: Vec<CodeDecoder<'d>>,
    total: u64,
}

impl<'d> GroupLayout<'d> {
    /// Compose a layout from `(domain, decoder)` pairs, one per group
    /// column. Returns `None` when any domain is zero or the radix product
    /// overflows `u64` — callers fall back to the [`Grouper`] reference.
    pub fn try_new(cols: Vec<(u64, CodeDecoder<'d>)>) -> Option<GroupLayout<'d>> {
        let mut strides = vec![0u64; cols.len()];
        let mut total = 1u64;
        for (c, (domain, _)) in cols.iter().enumerate().rev() {
            if *domain == 0 {
                return None;
            }
            strides[c] = total;
            total = total.checked_mul(*domain)?;
        }
        let (domains, decoders) = cols.into_iter().unzip();
        Some(GroupLayout { domains, strides, decoders, total })
    }

    /// Number of group columns.
    pub fn num_columns(&self) -> usize {
        self.domains.len()
    }

    /// Product of the per-column domains (the group-id universe).
    pub fn total_domain(&self) -> u64 {
        self.total
    }

    /// What column `c`'s code is multiplied by in a group id.
    pub fn stride(&self, c: usize) -> u64 {
        self.strides[c]
    }

    /// True when ids fit the direct-index accumulator.
    pub fn is_direct(&self) -> bool {
        self.total <= DIRECT_GROUPS_LIMIT
    }

    /// Decompose `id` and decode each column's code — called once per
    /// *group*, never per row.
    fn decode(&self, id: u64) -> Vec<Value> {
        let digits = self.strides.iter().zip(&self.domains);
        let codes = digits.map(|(stride, domain)| (id / stride % domain) as u32);
        codes.zip(&self.decoders).map(|(code, decoder)| decoder.decode(code)).collect()
    }
}

/// The accumulation kernel: composed `u64` group ids → running sums, with
/// zero per-row allocations.
#[derive(Debug)]
pub struct CodeGrouper {
    /// The layout's group-id universe, so partials of different layouts
    /// refuse to merge.
    total: u64,
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
    pub fn for_layout(layout: &GroupLayout<'_>) -> CodeGrouper {
        let repr = if layout.is_direct() {
            let n = layout.total as usize;
            Repr::Direct { sums: vec![0; n], seen: vec![0; n.div_ceil(64)], groups: 0 }
        } else {
            Repr::Hash(HashMap::new())
        };
        CodeGrouper { total: layout.total, repr }
    }

    /// Add `term` to the group `id`.
    #[inline]
    pub fn add(&mut self, id: u64, term: i64) {
        self.add_all(&[id], &[term]);
    }

    /// Add `terms[i]` to the group `ids[i]` for every row: the one
    /// accumulation loop, its representation chosen once per call.
    #[inline]
    pub fn add_all(&mut self, ids: &[u64], terms: &[i64]) {
        debug_assert_eq!(ids.len(), terms.len());
        match &mut self.repr {
            Repr::Direct { sums, seen, groups } => {
                for (&id, &term) in ids.iter().zip(terms) {
                    let i = id as usize;
                    let bit = 1u64 << (i & 63);
                    let word = &mut seen[i >> 6];
                    *groups += (*word & bit == 0) as u32;
                    *word |= bit;
                    sums[i] = sums[i].wrapping_add(term);
                }
            }
            Repr::Hash(map) => {
                for (&id, &term) in ids.iter().zip(terms) {
                    let sum = map.entry(id).or_insert(0);
                    *sum = sum.wrapping_add(term);
                }
            }
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

    /// Fold another partial into this one, in any order (module docs). Both
    /// sides must come from the same [`GroupLayout`].
    pub fn merge(&mut self, other: CodeGrouper) {
        assert_eq!(self.total, other.total, "merging partials of different layouts");
        match (&mut self.repr, other.repr) {
            (
                Repr::Direct { sums, seen, groups },
                Repr::Direct { sums: osums, seen: oseen, .. },
            ) => {
                for (w, &ow) in oseen.iter().enumerate() {
                    *groups += (ow & !seen[w]).count_ones();
                    seen[w] |= ow;
                    let mut m = ow;
                    while m != 0 {
                        let i = (w << 6) | m.trailing_zeros() as usize;
                        m &= m - 1;
                        sums[i] = sums[i].wrapping_add(osums[i]);
                    }
                }
            }
            (Repr::Hash(map), Repr::Hash(omap)) => {
                if map.is_empty() {
                    *map = omap;
                } else {
                    for (id, term) in omap {
                        let sum = map.entry(id).or_insert(0);
                        *sum = sum.wrapping_add(term);
                    }
                }
            }
            _ => unreachable!("same layout implies same representation"),
        }
    }

    /// Decode every group id exactly once and normalize — byte-identical to
    /// the [`Grouper`] reference over the same rows.
    pub fn finish(self, layout: &GroupLayout<'_>, q: &SsbQuery) -> QueryOutput {
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

/// The aggregation strategy for one query execution over one storage
/// variant: code-level whenever every group column exposes a global code
/// space, the [`Grouper`] reference otherwise.
#[derive(Debug)]
pub enum AggStrategy<'d> {
    /// Code-level: extraction yields codes, accumulation composes ids.
    Code {
        /// Id composition + finish-time decoders.
        layout: GroupLayout<'d>,
        /// Per group column (aligned with `q.group_by`): how positions map
        /// to codes.
        spaces: Vec<CodeSpace>,
    },
    /// Value-keyed reference fallback.
    Value,
}

impl<'d> AggStrategy<'d> {
    /// Build the strategy for `q` over `db`'s dimension columns. Pure
    /// column-header metadata — charges no modeled I/O, copies no
    /// dictionary.
    pub fn for_query(db: &'d CStoreDb, q: &SsbQuery) -> AggStrategy<'d> {
        AggStrategy::of_columns(q.group_by.iter().map(|g| {
            let col = db.dim(g.dim).store.column(g.column);
            CodeSpace::of(col).map(|space| (space, space.decoder(col)))
        }))
    }

    /// The strategy over group columns given as their code space and
    /// finish-time decoder, `None` for a column without a code space:
    /// code-level when every column has one and the composed layout fits
    /// `u64`, the [`Grouper`] reference otherwise.
    pub(crate) fn of_columns(
        cols: impl IntoIterator<Item = Option<(CodeSpace, CodeDecoder<'d>)>>,
    ) -> AggStrategy<'d> {
        let Some(cols) = cols.into_iter().collect::<Option<Vec<_>>>() else {
            return AggStrategy::Value;
        };
        let (spaces, cols) = cols.into_iter().map(|(s, d)| (s, (s.domain(), d))).unzip();
        match GroupLayout::try_new(cols) {
            Some(layout) => AggStrategy::Code { layout, spaces },
            None => AggStrategy::Value,
        }
    }

    /// True when this query aggregates on codes.
    pub fn is_code_level(&self) -> bool {
        matches!(self, AggStrategy::Code { .. })
    }

    /// An empty partial shaped for this strategy.
    pub fn new_partial(&self) -> AggPartial {
        match self {
            AggStrategy::Code { layout, .. } => AggPartial::Code(CodeGrouper::for_layout(layout)),
            AggStrategy::Value => AggPartial::Value(Grouper::new()),
        }
    }

    /// One worker's aggregation state: an empty partial and empty buffers.
    pub fn worker(&self) -> AggWorker<'_> {
        AggWorker {
            strat: self,
            partial: self.new_partial(),
            ids: Vec::new(),
            values: Vec::new(),
            terms: Vec::new(),
            measure: Vec::new(),
        }
    }

    /// Merge the partials — in any order, see the module docs — and finish
    /// into the normalized output.
    pub fn finish(
        &self,
        partials: impl IntoIterator<Item = AggPartial>,
        q: &SsbQuery,
    ) -> QueryOutput {
        let merged = partials.into_iter().reduce(|mut merged, partial| {
            merged.merge(partial);
            merged
        });
        match (self, merged.unwrap_or_else(|| self.new_partial())) {
            (AggStrategy::Code { layout, .. }, AggPartial::Code(g)) => g.finish(layout, q),
            (AggStrategy::Value, AggPartial::Value(g)) => g.finish(q),
            _ => panic!("partial does not match strategy"),
        }
    }
}

/// A partial aggregate under one [`AggStrategy`] — what each worker
/// accumulates and the coordinator merges.
#[derive(Debug)]
pub enum AggPartial {
    /// Code-level partial.
    Code(CodeGrouper),
    /// Reference partial.
    Value(Grouper),
}

impl AggPartial {
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

    /// Fold another partial into this one, in any order (module docs).
    pub fn merge(&mut self, other: AggPartial) {
        match (self, other) {
            (AggPartial::Code(a), AggPartial::Code(b)) => a.merge(b),
            (AggPartial::Value(a), AggPartial::Value(b)) => a.merge(b),
            _ => panic!("merging partials of different strategies"),
        }
    }
}

/// One worker's extract→aggregate kernel — phase 3 of every
/// late-materialized plan shape: its partial aggregate plus buffers that
/// live as long as the worker, so at code level a morsel allocates nothing.
///
/// Per morsel, over the survivors' positions (a plain `&[u32]`):
/// [`AggWorker::begin`]; one [`AggWorker::extract`] per group column, in
/// any order, at the positions of that column's table (fact positions, or
/// the dimension positions the foreign keys join to);
/// [`AggWorker::retain`] whenever a later join drops survivors; then
/// [`AggWorker::aggregate`]. At code level an extraction adds
/// `code × stride` into each survivor's group id — so the order columns
/// arrive in does not matter — and aggregation is one loop over ids and
/// terms. The `Value`-keyed reference materializes each column and clones a
/// key per row.
#[derive(Debug)]
pub struct AggWorker<'s> {
    strat: &'s AggStrategy<'s>,
    partial: AggPartial,
    /// Code level, per survivor: its group id so far.
    ids: Vec<u64>,
    /// Reference, per group column: its values at the survivors, once
    /// extracted.
    values: Vec<Option<Vec<Value>>>,
    /// Per survivor: the aggregate term.
    terms: Vec<i64>,
    /// Per survivor: a second measure column's value.
    measure: Vec<i64>,
}

impl AggWorker<'_> {
    /// Start a morsel of `survivors` rows, no group column extracted yet.
    pub fn begin(&mut self, survivors: usize) {
        match self.strat {
            AggStrategy::Code { .. } => {
                self.ids.clear();
                self.ids.resize(survivors, 0);
            }
            AggStrategy::Value => self.values.iter_mut().for_each(|v| *v = None),
        }
    }

    /// Extract group column `gi` (of `q.group_by`) from `col` at
    /// `positions`, one per survivor, charging the positional gather in
    /// their order.
    pub fn extract(&mut self, gi: usize, col: &StoredColumn, positions: &[u32], io: &IoSession) {
        match self.strat {
            AggStrategy::Code { layout, spaces } => {
                add_codes_at(&spaces[gi], col, positions, layout.stride(gi), io, &mut self.ids)
            }
            AggStrategy::Value => {
                if self.values.len() <= gi {
                    self.values.resize(gi + 1, None);
                }
                self.values[gi] = Some(extract_at(col, positions, io));
            }
        }
    }

    /// Keep only the survivors whose `keep` flag is set (the late join's
    /// compaction as later predicates discard fact rows).
    pub fn retain(&mut self, keep: &[bool]) {
        retain_marked(&mut self.ids, keep);
        for values in self.values.iter_mut().flatten() {
            retain_marked(values, keep);
        }
    }

    /// Gather the aggregate's measure columns from `fact` at the survivors'
    /// `positions` (ascending; charged), and add each survivor's term to its
    /// group. Every group column must have been extracted.
    pub fn aggregate(
        &mut self,
        q: &SsbQuery,
        fact: &ColumnStore,
        positions: &[u32],
        io: &IoSession,
    ) {
        let agg = q.aggregate;
        let terms = &mut self.terms;
        match agg.fact_columns() {
            [first] => {
                gather_ints_into(fact.column(first), positions, io, terms);
                terms.iter_mut().for_each(|t| *t = agg.term(&[*t]));
            }
            [first, second] => {
                gather_ints_into(fact.column(first), positions, io, terms);
                gather_ints_into(fact.column(second), positions, io, &mut self.measure);
                let rows = terms.iter_mut().zip(&self.measure);
                rows.for_each(|(t, &m)| *t = agg.term(&[*t, m]));
            }
            _ => unreachable!("an aggregate reads one or two fact columns"),
        }
        match &mut self.partial {
            AggPartial::Code(g) => g.add_all(&self.ids, terms),
            AggPartial::Value(g) => {
                let extracted = |gi| self.values.get(gi).and_then(Option::as_deref);
                let columns: Vec<&[Value]> = (0..q.group_by.len())
                    .map(|gi| extracted(gi).expect("every group column extracted"))
                    .collect();
                for (i, &term) in terms.iter().enumerate() {
                    g.add(columns.iter().map(|c| c[i].clone()).collect(), term);
                }
            }
        }
    }

    /// The worker's partial, for the coordinator's merge.
    pub fn into_partial(self) -> AggPartial {
        self.partial
    }
}

/// Keep the entries of `items` whose `keep` flag is set, in order.
fn retain_marked<T>(items: &mut Vec<T>, keep: &[bool]) {
    let mut flags = keep.iter();
    items.retain(|_| *flags.next().expect("one flag per entry"));
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

    /// The group id of one row's codes, one per column.
    fn compose<const N: usize>(layout: &GroupLayout<'_>, codes: [u64; N]) -> u64 {
        codes.iter().enumerate().map(|(c, code)| code * layout.stride(c)).sum()
    }

    fn int_layout(domains: &[u64]) -> GroupLayout<'static> {
        GroupLayout::try_new(domains.iter().map(|&d| (d, CodeDecoder::IntOffset(0))).collect())
            .expect("layout composes")
    }

    #[test]
    fn strides_compose_the_mixed_radix_id_and_decode_inverts_it() {
        let layout = int_layout(&[7, 1000, 3]);
        assert_eq!((layout.stride(0), layout.stride(1), layout.stride(2)), (3000, 3, 1));
        for codes in [[0u64, 0, 0], [6, 999, 2], [3, 17, 1]] {
            let id = compose(&layout, codes);
            assert_eq!(id, (codes[0] * 1000 + codes[1]) * 3 + codes[2], "radix order");
            let decoded: Vec<Value> = codes.iter().map(|&c| Value::Int(c as i64)).collect();
            assert_eq!(layout.decode(id), decoded);
        }
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
            a.add(compose(&direct, [c0, c1]), term);
            b.add(compose(&hash, [c0, c1]), term);
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
    fn retain_marked_keeps_flagged_entries_in_order() {
        let keep = [true, false, true, false];
        let mut codes = vec![1u64, 2, 3, 4];
        retain_marked(&mut codes, &keep);
        assert_eq!(codes, [1, 3]);
        let mut values = vec![Value::Int(1), Value::Int(2), Value::Int(3), Value::Int(4)];
        retain_marked(&mut values, &keep);
        assert_eq!(values, [Value::Int(1), Value::Int(3)]);
    }
}
