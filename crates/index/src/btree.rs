//! A from-scratch B+Tree keyed by (possibly composite) [`Value`] keys.
//!
//! This is the index behind the paper's two index-heavy row-store designs:
//!
//! * **"index-only" (AI)** — an unclustered B+Tree on *every* column, with
//!   plans that read `(value, record-id)` pairs straight out of the leaves
//!   and never touch the heap (Section 4, "Index-only plans");
//! * composite-key indexes on dimension tables, "storing the primary key of
//!   each dimension table as a secondary sort attribute" so a predicate scan
//!   also yields the join keys.
//!
//! The tree supports incremental [`BPlusTree::insert`] (with node splits) and
//! fast bottom-up [`BPlusTree::bulk_load`]; both produce identical lookup
//! semantics (verified by property tests). Nodes are sized to one 32 KB page
//! each and accessed through an [`IoSession`], so index plans pay realistic
//! page counts — full leaf scans are sequential, root-to-leaf descents are
//! random (seeks).

use cvr_data::value::Value;
use cvr_storage::io::{FileId, IoSession, PageId, PAGE_SIZE};

/// A (possibly composite) index key: lexicographically ordered values.
///
/// A single-part key — every fact-column index — holds its [`Value`]
/// inline, so an integer key owns no heap memory and a leaf entry is a
/// plain 32-byte move; only composite keys box their parts. Either way a
/// key reads as the slice of its parts (`key[0]`, `key.iter()`), which is
/// also how keys compare.
#[derive(Debug, Clone)]
pub struct Key(Parts);

#[derive(Debug, Clone)]
enum Parts {
    One(Value),
    Many(Box<[Value]>),
}

impl Key {
    /// A single-part key.
    pub fn new(part: Value) -> Key {
        Key(Parts::One(part))
    }
}

impl From<Vec<Value>> for Key {
    fn from(mut parts: Vec<Value>) -> Key {
        if parts.len() == 1 {
            Key::new(parts.pop().expect("one part"))
        } else {
            Key(Parts::Many(parts.into()))
        }
    }
}

impl std::ops::Deref for Key {
    type Target = [Value];

    fn deref(&self) -> &[Value] {
        match &self.0 {
            Parts::One(part) => std::slice::from_ref(part),
            Parts::Many(parts) => parts,
        }
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Key) -> bool {
        **self == **other
    }
}

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Key) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Key) -> std::cmp::Ordering {
        match (&self.0, &other.0) {
            (Parts::One(a), Parts::One(b)) => a.cmp(b),
            _ => (**self).cmp(&**other),
        }
    }
}

/// Encoded size of a key on a page: 4 bytes per int, len+1 per string.
pub fn key_bytes(key: &Key) -> usize {
    key.iter()
        .map(|v| match v {
            Value::Int(_) => 4,
            Value::Str(s) => 1 + s.len(),
        })
        .sum()
}

/// Record-id payload stored in leaves.
pub type Rid = u32;

#[derive(Debug, Clone)]
enum Node {
    Internal {
        /// `keys[i]` separates `children[i]` (keys < it) from `children[i+1]`.
        keys: Vec<Key>,
        children: Vec<usize>,
    },
    Leaf {
        entries: Vec<(Key, Rid)>,
        next: Option<usize>,
    },
}

/// An unclustered B+Tree mapping keys to record ids. Duplicate keys are
/// allowed (a multiset); scans return entries in key order, with the order
/// of record-ids *within* one key unspecified — consumers (rid joins, rid
/// bitmaps) are order-insensitive.
#[derive(Debug)]
pub struct BPlusTree {
    nodes: Vec<Node>,
    root: usize,
    /// Max entries per leaf / children per internal node.
    order: usize,
    len: usize,
    file: FileId,
}

/// Default node fanout: sized so a leaf of typical SSBM entries (~12-byte
/// key+rid) fills most of a 32 KB page.
pub const DEFAULT_ORDER: usize = 2048;

impl BPlusTree {
    /// Empty tree with the default order.
    pub fn new() -> BPlusTree {
        BPlusTree::with_order(DEFAULT_ORDER)
    }

    /// Empty tree with explicit `order` (≥ 4; small orders are useful in
    /// tests to force deep trees).
    pub fn with_order(order: usize) -> BPlusTree {
        assert!(order >= 4, "order must be at least 4");
        BPlusTree {
            nodes: vec![Node::Leaf { entries: Vec::new(), next: None }],
            root: 0,
            order,
            len: 0,
            file: FileId::fresh(),
        }
    }

    /// Bottom-up bulk load from entries (sorted internally).
    pub fn bulk_load(entries: Vec<(Key, Rid)>) -> BPlusTree {
        Self::bulk_load_with_order(entries, DEFAULT_ORDER)
    }

    /// Bulk load with explicit order. Entries are sorted in place and moved
    /// into their leaves: the load allocates per node, never per entry.
    pub fn bulk_load_with_order(mut entries: Vec<(Key, Rid)>, order: usize) -> BPlusTree {
        assert!(order >= 4);
        // (key, rid) is a total order up to identical entries, so the
        // unstable sort is deterministic — and needs no merge buffer.
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        let len = entries.len();
        // Fill leaves and internal nodes ~2/3 (typical steady-state
        // occupancy).
        let per_node = (order * 2 / 3).max(2);
        let mut nodes = Vec::new();
        let mut level: Vec<(Key, usize)> = Vec::new(); // (first key, node)
        let mut entries = entries.into_iter().peekable();
        while entries.peek().is_some() {
            let leaf: Vec<(Key, Rid)> = entries.by_ref().take(per_node).collect();
            let id = nodes.len();
            if let Some(Node::Leaf { next, .. }) = nodes.last_mut() {
                *next = Some(id);
            }
            level.push((leaf[0].0.clone(), id));
            nodes.push(Node::Leaf { entries: leaf, next: None });
        }
        if nodes.is_empty() {
            nodes.push(Node::Leaf { entries: Vec::new(), next: None });
            return BPlusTree { nodes, root: 0, order, len, file: FileId::fresh() };
        }
        // Build internal levels.
        while level.len() > 1 {
            let mut next_level = Vec::new();
            let mut below = level.into_iter().peekable();
            while below.peek().is_some() {
                let id = nodes.len();
                let mut group = below.by_ref().take(per_node);
                let (first, leftmost) = group.next().expect("peeked");
                let (mut keys, mut children) = (Vec::new(), vec![leftmost]);
                for (key, child) in group {
                    keys.push(key);
                    children.push(child);
                }
                nodes.push(Node::Internal { keys, children });
                next_level.push((first, id));
            }
            level = next_level;
        }
        let root = level[0].1;
        BPlusTree { nodes, root, order, len, file: FileId::fresh() }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height (1 = root is a leaf).
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut n = self.root;
        while let Node::Internal { children, .. } = &self.nodes[n] {
            n = children[0];
            h += 1;
        }
        h
    }

    /// Storage file id.
    pub fn file_id(&self) -> FileId {
        self.file
    }

    /// Number of nodes (each occupies one page).
    pub fn pages(&self) -> u32 {
        self.nodes.len() as u32
    }

    /// Total size: one page per node.
    pub fn bytes(&self) -> u64 {
        self.nodes.len() as u64 * PAGE_SIZE
    }

    /// Insert an entry, splitting nodes as needed.
    pub fn insert(&mut self, key: Key, rid: Rid) {
        if let Some((sep, right)) = self.insert_rec(self.root, key, rid) {
            let new_root = self.nodes.len();
            let old_root = self.root;
            self.nodes.push(Node::Internal { keys: vec![sep], children: vec![old_root, right] });
            self.root = new_root;
        }
        self.len += 1;
    }

    /// Recursive insert; returns `(separator, new_right_node)` on split.
    fn insert_rec(&mut self, node: usize, key: Key, rid: Rid) -> Option<(Key, usize)> {
        enum Step {
            Done,
            SplitLeaf,
            Child(usize, Key, Rid),
        }
        let order = self.order;
        let step = match &mut self.nodes[node] {
            Node::Leaf { entries, .. } => {
                let pos = entries.partition_point(|(k, r)| (k, *r) <= (&key, rid));
                entries.insert(pos, (key, rid));
                if entries.len() > order {
                    Step::SplitLeaf
                } else {
                    Step::Done
                }
            }
            Node::Internal { keys, children } => {
                let idx = keys.partition_point(|k| k <= &key);
                Step::Child(children[idx], key, rid)
            }
        };
        match step {
            Step::Done => None,
            Step::SplitLeaf => {
                let right_id = self.nodes.len();
                let (sep, right_entries, old_next) = {
                    let Node::Leaf { entries, next } = &mut self.nodes[node] else {
                        unreachable!()
                    };
                    let mid = entries.len() / 2;
                    let right_entries = entries.split_off(mid);
                    let sep = right_entries[0].0.clone();
                    let old_next = next.replace(right_id);
                    (sep, right_entries, old_next)
                };
                self.nodes.push(Node::Leaf { entries: right_entries, next: old_next });
                Some((sep, right_id))
            }
            Step::Child(child, key, rid) => {
                let (sep, right) = self.insert_rec(child, key, rid)?;
                let split = {
                    let Node::Internal { keys, children } = &mut self.nodes[node] else {
                        unreachable!()
                    };
                    let idx = keys.partition_point(|k| k <= &sep);
                    keys.insert(idx, sep);
                    children.insert(idx + 1, right);
                    if children.len() > order {
                        let mid = keys.len() / 2;
                        let sep_up = keys[mid].clone();
                        let right_keys = keys.split_off(mid + 1);
                        keys.pop(); // the separator moves up, not right
                        let right_children = children.split_off(mid + 1);
                        Some((sep_up, right_keys, right_children))
                    } else {
                        None
                    }
                };
                split.map(|(sep_up, right_keys, right_children)| {
                    let right_id = self.nodes.len();
                    self.nodes.push(Node::Internal { keys: right_keys, children: right_children });
                    (sep_up, right_id)
                })
            }
        }
    }

    /// Leaf where entries `>= key` begin, plus the root-to-leaf path.
    ///
    /// Descends by *strict* comparison so that with duplicate keys (or a
    /// prefix bound over composite keys) we land at — or one leaf left of —
    /// the first matching entry; the leaf chain covers the rest.
    fn descend(&self, key: &Key) -> (usize, Vec<usize>) {
        let mut path = Vec::new();
        let mut n = self.root;
        loop {
            path.push(n);
            match &self.nodes[n] {
                Node::Leaf { .. } => return (n, path),
                Node::Internal { keys, children } => {
                    let idx =
                        keys.partition_point(|k| prefix_cmp(k, key) == std::cmp::Ordering::Less);
                    n = children[idx];
                }
            }
        }
    }

    /// All rids with key exactly `key`. Charges the descent path and the
    /// visited leaves to `io`.
    pub fn lookup(&self, key: &Key, io: &IoSession) -> Vec<Rid> {
        self.range_scan(Some(key), Some(key), io).into_iter().map(|(_, r)| r).collect()
    }

    /// Entries with `lo <= key <= hi` (either bound may be `None` =
    /// unbounded). Charges the descent path plus each leaf visited.
    ///
    /// Composite-key note: a bound with fewer values than stored keys acts as
    /// a prefix bound, e.g. `lo = [x]` matches every `[x, *]` from its start.
    pub fn range_scan(
        &self,
        lo: Option<&Key>,
        hi: Option<&Key>,
        io: &IoSession,
    ) -> Vec<(Key, Rid)> {
        let (mut leaf, path) = match lo {
            Some(k) => self.descend(k),
            None => {
                let mut n = self.root;
                let mut path = Vec::new();
                loop {
                    path.push(n);
                    match &self.nodes[n] {
                        Node::Leaf { .. } => break (n, path),
                        Node::Internal { children, .. } => n = children[0],
                    }
                }
            }
        };
        for node in &path {
            self.charge_node(*node, io);
        }
        let mut out = Vec::new();
        loop {
            let Node::Leaf { entries, next } = &self.nodes[leaf] else { unreachable!() };
            for (k, rid) in entries {
                if let Some(lo) = lo {
                    if prefix_cmp(k, lo) == std::cmp::Ordering::Less {
                        continue;
                    }
                }
                if let Some(hi) = hi {
                    if prefix_cmp(k, hi) == std::cmp::Ordering::Greater {
                        return out;
                    }
                }
                out.push((k.clone(), *rid));
            }
            match next {
                Some(n) => {
                    leaf = *n;
                    self.charge_node(leaf, io);
                }
                None => return out,
            }
        }
    }

    /// Scan every leaf entry in key order, charging all leaf pages
    /// (the "full index scan" access path of AI plans). The callback
    /// receives `(key, rid)` one entry at a time — index scans in row-stores
    /// are tuple-at-a-time too.
    pub fn full_scan<'a>(&'a self, io: &'a IoSession) -> impl Iterator<Item = (&'a Key, Rid)> + 'a {
        // Find the leftmost leaf.
        let mut n = self.root;
        loop {
            match &self.nodes[n] {
                Node::Leaf { .. } => break,
                Node::Internal { children, .. } => n = children[0],
            }
        }
        FullScan { tree: self, leaf: Some(n), idx: 0, io }
    }

    fn charge_node(&self, node: usize, io: &IoSession) {
        io.read_page(PageId { file: self.file, page: node as u32 }, PAGE_SIZE);
    }
}

impl Default for BPlusTree {
    fn default() -> Self {
        BPlusTree::new()
    }
}

/// Compare `key` against a (possibly shorter) `bound` prefix-wise.
fn prefix_cmp(key: &Key, bound: &Key) -> std::cmp::Ordering {
    for (k, b) in key.iter().zip(bound.iter()) {
        match k.cmp(b) {
            std::cmp::Ordering::Equal => continue,
            other => return other,
        }
    }
    std::cmp::Ordering::Equal
}

struct FullScan<'a> {
    tree: &'a BPlusTree,
    leaf: Option<usize>,
    idx: usize,
    io: &'a IoSession,
}

impl<'a> Iterator for FullScan<'a> {
    type Item = (&'a Key, Rid);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let leaf = self.leaf?;
            let Node::Leaf { entries, next } = &self.tree.nodes[leaf] else { unreachable!() };
            if self.idx == 0 {
                self.tree.charge_node(leaf, self.io);
            }
            if let Some((k, rid)) = entries.get(self.idx) {
                self.idx += 1;
                return Some((k, *rid));
            }
            self.leaf = *next;
            self.idx = 0;
        }
    }
}

/// Convenience: single-int key.
pub fn ikey(v: i64) -> Key {
    Key::new(Value::Int(v))
}

/// Convenience: single-string key.
pub fn skey(v: &str) -> Key {
    Key::new(Value::str(v))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_entries(n: usize) -> Vec<(Key, Rid)> {
        // Shuffle deterministically.
        (0..n).map(|i| (ikey(((i * 131) % n) as i64), i as Rid)).collect()
    }

    #[test]
    fn insert_and_lookup() {
        let mut t = BPlusTree::with_order(4);
        for (k, r) in int_entries(500) {
            t.insert(k, r);
        }
        assert_eq!(t.len(), 500);
        assert!(t.height() > 2, "small order must force splits");
        let io = IoSession::unmetered();
        for v in [0i64, 17, 499] {
            let rids = t.lookup(&ikey(v), &io);
            assert_eq!(rids.len(), 1, "missing key {v}");
        }
        assert!(t.lookup(&ikey(1000), &io).is_empty());
    }

    #[test]
    fn bulk_load_matches_inserts() {
        let entries = int_entries(2000);
        let mut inserted = BPlusTree::with_order(16);
        for (k, r) in entries.clone() {
            inserted.insert(k, r);
        }
        let bulk = BPlusTree::bulk_load_with_order(entries.clone(), 16);
        let io = IoSession::unmetered();
        let a: Vec<_> = inserted.full_scan(&io).map(|(k, r)| (k.clone(), r)).collect();
        let b: Vec<_> = bulk.full_scan(&io).map(|(k, r)| (k.clone(), r)).collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 2000);
        // Sorted by key.
        assert!(a.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn duplicates_preserved() {
        let mut t = BPlusTree::with_order(4);
        for rid in 0..100 {
            t.insert(ikey(7), rid);
        }
        let io = IoSession::unmetered();
        assert_eq!(t.lookup(&ikey(7), &io).len(), 100);
    }

    #[test]
    fn range_scan_inclusive() {
        let entries: Vec<(Key, Rid)> = (0..100).map(|i| (ikey(i), i as Rid)).collect();
        let t = BPlusTree::bulk_load_with_order(entries, 8);
        let io = IoSession::unmetered();
        let got = t.range_scan(Some(&ikey(10)), Some(&ikey(20)), &io);
        assert_eq!(got.len(), 11);
        assert_eq!(got[0].1, 10);
        assert_eq!(got[10].1, 20);
        // Unbounded below.
        assert_eq!(t.range_scan(None, Some(&ikey(5)), &io).len(), 6);
        // Unbounded above.
        assert_eq!(t.range_scan(Some(&ikey(95)), None, &io).len(), 5);
    }

    #[test]
    fn composite_keys_prefix_ranges() {
        // (region, pk) composite entries, like a dimension index.
        let regions = ["AFRICA", "AMERICA", "ASIA", "EUROPE"];
        let mut entries = Vec::new();
        for pk in 0..400i64 {
            let r = regions[(pk % 4) as usize];
            entries.push((vec![Value::str(r), Value::Int(pk)].into(), pk as Rid));
        }
        let t = BPlusTree::bulk_load_with_order(entries, 16);
        let io = IoSession::unmetered();
        // Prefix bound: every (ASIA, *) entry.
        let asia = t.range_scan(Some(&skey("ASIA")), Some(&skey("ASIA")), &io);
        assert_eq!(asia.len(), 100);
        for (k, _) in &asia {
            assert_eq!(k[0], Value::str("ASIA"));
        }
        // The secondary key (the dimension pk) is readable from the entries.
        let pks: Vec<i64> = asia.iter().map(|(k, _)| k[1].as_int()).collect();
        assert!(pks.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn full_scan_charges_leaf_pages_sequentially() {
        let entries = int_entries(5000);
        let t = BPlusTree::bulk_load_with_order(entries, 64);
        let io = IoSession::unmetered();
        let n = t.full_scan(&io).count();
        assert_eq!(n, 5000);
        let stats = io.stats();
        assert!(stats.pages_read > 50, "expected many leaf pages, got {}", stats.pages_read);
        assert!(stats.pages_read < t.pages() as u64 + 1);
    }

    #[test]
    fn point_lookup_charges_height_pages() {
        let entries = int_entries(10_000);
        let t = BPlusTree::bulk_load_with_order(entries, 32);
        let io = IoSession::unmetered();
        t.lookup(&ikey(1234), &io);
        let stats = io.stats();
        assert!(stats.pages_read as usize >= t.height());
        assert!(stats.pages_read as usize <= t.height() + 2);
    }

    #[test]
    fn empty_tree() {
        let t = BPlusTree::new();
        let io = IoSession::unmetered();
        assert!(t.is_empty());
        assert!(t.lookup(&ikey(1), &io).is_empty());
        assert_eq!(t.full_scan(&io).count(), 0);
        let bulk = BPlusTree::bulk_load(Vec::new());
        assert!(bulk.is_empty());
    }

    #[test]
    fn an_entry_is_a_small_plain_move() {
        // Inline single part: 32 bytes per leaf entry, none of it on the heap
        // for an integer key (the tree-of-`Vec<Value>` it replaces spent 66).
        assert!(std::mem::size_of::<(Key, Rid)>() <= 32, "{}", std::mem::size_of::<(Key, Rid)>());
        // A key compares as its parts, whichever way it was built.
        assert_eq!(ikey(7), Key::from(vec![Value::Int(7)]));
        assert!(Key::from(vec![Value::str("a"), Value::Int(9)]) < skey("b"));
        assert!(skey("a") < Key::from(vec![Value::str("a"), Value::Int(0)]));
        assert_eq!(ikey(7).to_vec(), vec![Value::Int(7)]);
    }

    #[test]
    fn key_bytes_accounting() {
        assert_eq!(key_bytes(&ikey(5)), 4);
        assert_eq!(key_bytes(&skey("ASIA")), 5);
        assert_eq!(key_bytes(&vec![Value::str("ASIA"), Value::Int(1)].into()), 9);
    }

    #[test]
    fn string_keys_sorted() {
        let mut t = BPlusTree::with_order(4);
        let words = ["delta", "alpha", "echo", "bravo", "charlie"];
        for (i, w) in words.iter().enumerate() {
            t.insert(skey(w), i as Rid);
        }
        let io = IoSession::unmetered();
        let keys: Vec<String> = t.full_scan(&io).map(|(k, _)| k[0].as_str().to_string()).collect();
        assert_eq!(keys, vec!["alpha", "bravo", "charlie", "delta", "echo"]);
    }
}
