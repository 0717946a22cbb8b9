//! Fingerprint-keyed cache of *mined results*: the interactive-session
//! companion of the preprocess artifact cache (`cache.rs`).
//!
//! Where [`crate::cache::PreprocessCache`] skips `Q0`..`Q8` on a rerun,
//! this cache skips the core operator itself, per *Interactive
//! Constrained Association Rule Mining* (Goethals & Van den Bussche):
//! a session keeps the frequent-itemset inventory of each mined
//! statement — every itemset with its exact group-support and gid-set —
//! and answers refined reruns by *filtering*:
//!
//! * **Tightened support** (`min_groups' ≥ min_groups`): by
//!   anti-monotonicity the inventory filtered at the new threshold *is*
//!   the inventory a cold mine would produce, so rules regenerated from
//!   it (same [`crate::algo::rules_from_itemsets_counted`], same integer
//!   counts, same float divisions) are bit-identical to a cold mine.
//! * **Any confidence change**: rules are re-derived from itemsets, so
//!   confidence refinement is free in both directions — the inventory
//!   does not depend on it.
//! * **Loosened support**: a clean miss — the cache cannot know itemsets
//!   it never mined.
//! * **Source-table deltas** (INSERT/DELETE rows since the cached
//!   version, reported by [`relational::Table::changes_since`]):
//!   incremental re-mining in the FUP style. Gid-sets of cached itemsets
//!   are updated for the affected groups only; itemsets that may have
//!   *become* frequent must occur in at least
//!   `min_groups' − min_groups + 1` of the grown/new groups, so only the
//!   small delta is mined for candidates, which are then verified with
//!   exact counts. A delta beyond the row budget (or crossing an
//!   UPDATE/TRUNCATE, which the table log does not replay) falls back to
//!   a full mine.
//!
//! The cache works in *value space* (type-tagged renderings of the
//! grouping and item attributes), so entries survive re-encoding: a warm
//! serve maps items onto the current `Bset` identifiers right before
//! rule generation, and the pipeline still stores and decodes output
//! tables exactly as a cold run would. Entries are restricted to
//! statements whose grouping the cache can replay from raw rows —
//! simple class, a single FROM table, no source or group condition
//! (the same shape the fused preprocess pass accepts); everything else
//! simply misses. Staleness is ruled out by the same per-table version
//! stamps the preprocess cache uses.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Arc, Mutex};

use relational::{Database, TableDelta, Value};

use crate::algo::{rules_from_itemsets_counted, sort_rules, EncodedRule, LargeItemset};
use crate::ast::MineRuleStatement;
use crate::cache::{source_versions, PreprocessCache, StoreOutcome};
use crate::directives::StatementClass;
use crate::error::Result;
use crate::preprocess::{min_groups_for, PreprocessReport};
use crate::translator::Translation;

/// Most-recently-used mined-result sets kept; older entries are evicted.
const MAX_ENTRIES: usize = 8;

/// Delta re-mining budget: a delta with more rows than
/// `max(BUDGET_MIN_ROWS, cached rows / 4)` falls back to a full mine.
const BUDGET_MIN_ROWS: usize = 64;

/// Candidate cap for the delta miner: enumerating more than this many
/// delta-frequent itemsets aborts incremental re-mining (full mine).
const MAX_DELTA_CANDIDATES: usize = 4096;

/// A group slot: the group's key plus a multiset of its item renderings
/// (values are row multiplicities — an item belongs to the group while
/// its count is positive, matching the preprocessor's DISTINCT).
#[derive(Debug, Clone)]
struct GroupSlot {
    key: String,
    items: BTreeMap<String, u32>,
}

impl GroupSlot {
    fn row_count(&self) -> u64 {
        self.items.values().map(|&c| c as u64).sum()
    }

    fn item_set(&self) -> HashSet<&str> {
        self.items
            .iter()
            .filter(|(_, &c)| c > 0)
            .map(|(k, _)| k.as_str())
            .collect()
    }
}

/// A cached frequent itemset: value-space items (sorted) plus the sorted
/// slot ids of every group containing it. The exact group-support is
/// `gids.len()`.
#[derive(Debug, Clone)]
struct CachedItemset {
    items: Vec<String>,
    gids: Vec<u32>,
}

/// One cached mined result with its validity conditions.
#[derive(Debug, Clone)]
struct MineEntry {
    fingerprint: String,
    /// `(lowercase table name, version)` of the FROM table at capture.
    table_versions: Vec<(String, u64)>,
    /// The inventory is complete down to this absolute threshold.
    min_groups: u64,
    /// EXTRACTING thresholds at capture, to tell refines from reruns.
    capture_support: f64,
    capture_confidence: f64,
    /// Live groups (`:totg` of the cached snapshot).
    total_groups: u64,
    /// Group slots; `None` marks a deleted group (its id is retired).
    slots: Vec<Option<GroupSlot>>,
    /// Group key → slot id.
    index: HashMap<String, u32>,
    inventory: Vec<CachedItemset>,
    bytes: u64,
}

#[derive(Debug, Default)]
struct CacheState {
    /// LRU order: least-recently used first.
    entries: Vec<MineEntry>,
}

/// How a warm serve was produced, for telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeKind {
    /// Same snapshot, same thresholds: a plain rerun.
    Hit,
    /// Same snapshot, different thresholds: answered by filtering.
    Refine,
    /// Source delta replayed: answered by incremental re-mining.
    Delta,
}

/// A warm answer: encoded rules bit-identical to what a cold core run
/// would produce at the statement's thresholds and snapshot.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    pub rules: Vec<EncodedRule>,
    pub kind: ServeKind,
}

/// The mined-result cache. Clones share the same store (like
/// [`PreprocessCache`]); a disabled cache never hits and never retains
/// anything.
#[derive(Debug, Clone)]
pub struct MineResultCache {
    inner: Option<Arc<Mutex<CacheState>>>,
}

impl Default for MineResultCache {
    fn default() -> Self {
        MineResultCache::new()
    }
}

impl MineResultCache {
    /// An enabled, empty cache.
    pub fn new() -> MineResultCache {
        MineResultCache {
            inner: Some(Arc::new(Mutex::new(CacheState::default()))),
        }
    }

    /// A cache that never hits and never stores.
    pub fn disabled() -> MineResultCache {
        MineResultCache { inner: None }
    }

    /// Whether lookups and stores do anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Number of retained mined-result sets.
    pub fn len(&self) -> usize {
        match &self.inner {
            Some(inner) => inner.lock().unwrap().entries.len(),
            None => 0,
        }
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the cache can capture/serve this statement at all: the
    /// grouping must be replayable from raw source rows (simple class,
    /// one FROM table, no source/group condition — the fused-pass shape).
    pub fn eligible(translation: &Translation) -> bool {
        translation.class == StatementClass::Simple
            && !translation.directives.w
            && !translation.directives.g
            && translation.stmt.from.len() == 1
    }

    /// Try to answer the core-operator phase from the cache. Runs after
    /// preprocessing (cold or restored); on a hit the caller skips
    /// `read_encoded` and the core operator entirely and feeds the
    /// returned rules straight into the postprocessor. `None` means the
    /// caller must mine (and should then [`MineResultCache::store`]).
    pub fn try_serve(
        &self,
        db: &mut Database,
        translation: &Translation,
        prefix: &str,
        report: &PreprocessReport,
    ) -> Result<Option<ServeOutcome>> {
        let inner = match &self.inner {
            Some(inner) => inner,
            None => return Ok(None),
        };
        if !Self::eligible(translation) {
            return Ok(None);
        }
        let stmt = &translation.stmt;
        let versions = match source_versions(db, stmt) {
            Some(v) => v,
            None => return Ok(None),
        };
        let fingerprint = PreprocessCache::fingerprint(stmt, prefix);
        let mut state = inner.lock().unwrap();
        let pos = match state
            .entries
            .iter()
            .position(|e| e.fingerprint == fingerprint)
        {
            Some(pos) => pos,
            None => return Ok(None),
        };

        if state.entries[pos].table_versions == versions {
            // Same snapshot: filter the cached inventory in place. Only a
            // delta needs a private copy to patch.
            let entry = &mut state.entries[pos];
            let new_min = min_groups_for(entry.total_groups, stmt.min_support);
            if new_min < entry.min_groups {
                return Ok(None); // loosened support: the inventory is incomplete there
            }
            // The SQL preprocessor must agree on the group universe; any
            // divergence (or a run that bypassed preprocessing) is a miss.
            if report.total_groups != entry.total_groups {
                return Ok(None);
            }
            let kind = if stmt.min_support == entry.capture_support
                && stmt.min_confidence == entry.capture_confidence
            {
                ServeKind::Hit
            } else {
                ServeKind::Refine
            };
            let rules = match extract_rules(db, entry, translation, new_min)? {
                Some(rules) => rules,
                None => return Ok(None),
            };
            // Commit: refresh thresholds and touch LRU order.
            entry.capture_support = stmt.min_support;
            entry.capture_confidence = stmt.min_confidence;
            let entry = state.entries.remove(pos);
            state.entries.push(entry);
            return Ok(Some(ServeOutcome { rules, kind }));
        }

        let entry = state.entries[pos].clone();
        drop(state);
        let updated = match apply_delta(db, entry, translation)? {
            Some(updated) => updated,
            None => return Ok(None),
        };
        if report.total_groups != updated.total_groups {
            return Ok(None);
        }
        let new_min = min_groups_for(updated.total_groups, stmt.min_support);
        let rules = match extract_rules(db, &updated, translation, new_min)? {
            Some(rules) => rules,
            None => return Ok(None),
        };

        // Commit: refresh thresholds/versions and touch LRU order.
        let mut committed = updated;
        committed.capture_support = stmt.min_support;
        committed.capture_confidence = stmt.min_confidence;
        committed.min_groups = new_min;
        committed.bytes = approx_entry_bytes(&committed);
        let mut state = inner.lock().unwrap();
        state.entries.retain(|e| e.fingerprint != fingerprint);
        state.entries.push(committed);
        Ok(Some(ServeOutcome {
            rules,
            kind: ServeKind::Delta,
        }))
    }

    /// Capture a cold mine's inventory. `large` is the simple-path
    /// large-itemset inventory the core operator just produced. A
    /// same-fingerprint entry is replaced; beyond the 8-entry capacity
    /// the least-recently-used entry is evicted. Statements the cache cannot
    /// replay (or whose value-space accounting disagrees with the SQL
    /// preprocessor — never observed, but checked) are skipped.
    pub fn store(
        &self,
        db: &mut Database,
        translation: &Translation,
        prefix: &str,
        report: &PreprocessReport,
        large: &[LargeItemset],
    ) -> StoreOutcome {
        let inner = match &self.inner {
            Some(inner) => inner.clone(),
            None => return StoreOutcome::default(),
        };
        // Skipped stores still report the retained total, so the bytes
        // gauge never zeroes out under an uncacheable statement.
        let retained = |inner: &Arc<Mutex<CacheState>>| StoreOutcome {
            evicted: 0,
            bytes: inner.lock().unwrap().entries.iter().map(|e| e.bytes).sum(),
        };
        if !Self::eligible(translation) || report.total_groups == 0 {
            return retained(&inner);
        }
        let stmt = &translation.stmt;
        let versions = match source_versions(db, stmt) {
            Some(v) => v,
            None => return retained(&inner),
        };
        let (slots, index) = match scan_source(db, stmt) {
            Some(v) => v,
            None => return retained(&inner),
        };
        if slots.len() as u64 != report.total_groups {
            return retained(&inner);
        }
        let bid_items = match read_bid_items(db, translation) {
            Some(map) => map,
            None => return retained(&inner),
        };
        let inventory = match build_inventory(large, &bid_items, &slots) {
            Some(inv) => inv,
            None => return retained(&inner),
        };
        let mut entry = MineEntry {
            fingerprint: PreprocessCache::fingerprint(stmt, prefix),
            table_versions: versions,
            min_groups: report.min_groups,
            capture_support: stmt.min_support,
            capture_confidence: stmt.min_confidence,
            total_groups: report.total_groups,
            slots,
            index,
            inventory,
            bytes: 0,
        };
        entry.bytes = approx_entry_bytes(&entry);

        let mut state = inner.lock().unwrap();
        state.entries.retain(|e| e.fingerprint != entry.fingerprint);
        state.entries.push(entry);
        let mut evicted = 0;
        while state.entries.len() > MAX_ENTRIES {
            state.entries.remove(0);
            evicted += 1;
        }
        StoreOutcome {
            evicted,
            bytes: state.entries.iter().map(|e| e.bytes).sum(),
        }
    }
}

/// A collision-free rendering of one value: type-tagged so `1`, `'1'`
/// and `1.0` never alias (floats render by bit pattern).
fn value_key(v: &Value) -> String {
    match v {
        Value::Null => "n:".into(),
        Value::Int(i) => format!("i:{i}"),
        Value::Float(f) => format!("f:{:016x}", f.to_bits()),
        Value::Str(s) => format!("s:{s}"),
        Value::Bool(b) => format!("b:{b}"),
        Value::Date(d) => format!("d:{d}"),
    }
}

/// Join multi-attribute keys with a separator no rendering contains
/// naturally (unit separator).
fn compound_key(values: &[&Value]) -> String {
    values
        .iter()
        .map(|v| value_key(v))
        .collect::<Vec<_>>()
        .join("\u{1f}")
}

/// Resolve the statement's grouping and item (body-schema) columns on the
/// source table.
fn resolve_columns(db: &Database, stmt: &MineRuleStatement) -> Option<(Vec<usize>, Vec<usize>)> {
    let table = db.catalog().table(&stmt.from[0].name).ok()?;
    let schema = table.schema();
    let resolve = |names: &[String]| -> Option<Vec<usize>> {
        names.iter().map(|n| schema.resolve(None, n).ok()).collect()
    };
    Some((resolve(&stmt.group_by)?, resolve(&stmt.body.schema)?))
}

/// Key a row's grouping attributes / item attributes.
fn row_keys(row: &[Value], group_cols: &[usize], item_cols: &[usize]) -> (String, String) {
    let gvals: Vec<&Value> = group_cols.iter().map(|&i| &row[i]).collect();
    let ivals: Vec<&Value> = item_cols.iter().map(|&i| &row[i]).collect();
    (compound_key(&gvals), compound_key(&ivals))
}

/// Build the value-space group map from the raw source rows.
#[allow(clippy::type_complexity)]
fn scan_source(
    db: &Database,
    stmt: &MineRuleStatement,
) -> Option<(Vec<Option<GroupSlot>>, HashMap<String, u32>)> {
    let (group_cols, item_cols) = resolve_columns(db, stmt)?;
    let table = db.catalog().table(&stmt.from[0].name).ok()?;
    let mut slots: Vec<Option<GroupSlot>> = Vec::new();
    let mut index: HashMap<String, u32> = HashMap::new();
    for row in table.rows() {
        let (gkey, ikey) = row_keys(row, &group_cols, &item_cols);
        let slot = match index.get(&gkey) {
            Some(&s) => s,
            None => {
                let s = slots.len() as u32;
                slots.push(Some(GroupSlot {
                    key: gkey.clone(),
                    items: BTreeMap::new(),
                }));
                index.insert(gkey, s);
                s
            }
        };
        *slots[slot as usize]
            .as_mut()
            .unwrap()
            .items
            .entry(ikey)
            .or_insert(0) += 1;
    }
    Some((slots, index))
}

/// Read `Bid → item key` from the statement's `Bset` table.
fn read_bid_items(db: &mut Database, translation: &Translation) -> Option<HashMap<u32, String>> {
    let rs = db
        .query(&format!(
            "SELECT Bid, {} FROM {}",
            translation.stmt.body.schema.join(", "),
            translation.names.bset()
        ))
        .ok()?;
    let mut map = HashMap::with_capacity(rs.len());
    for row in rs.rows() {
        let bid = match &row[0] {
            Value::Int(i) if *i >= 0 => *i as u32,
            _ => return None,
        };
        let vals: Vec<&Value> = row[1..].iter().collect();
        map.insert(bid, compound_key(&vals));
    }
    Some(map)
}

/// Convert the bid-space inventory to value space and attach exact
/// gid-sets, computed by prefix intersection over the (downward-closed)
/// inventory: `gids(X) = gids(X[..k-1]) ∩ slots(X[k-1])`. Returns `None`
/// when any computed support disagrees with the miner's count (a
/// value-rendering collision — bail rather than cache wrong results).
fn build_inventory(
    large: &[LargeItemset],
    bid_items: &HashMap<u32, String>,
    slots: &[Option<GroupSlot>],
) -> Option<Vec<CachedItemset>> {
    // Inverted index: item key → sorted slot ids containing it.
    let mut item_slots: HashMap<&str, Vec<u32>> = HashMap::new();
    for (i, slot) in slots.iter().enumerate() {
        if let Some(slot) = slot {
            for item in slot.item_set() {
                item_slots.entry(item).or_default().push(i as u32);
            }
        }
    }

    let mut sets: Vec<(Vec<String>, u32)> = Vec::with_capacity(large.len());
    for (set, cnt) in large {
        let mut items: Vec<String> = set
            .iter()
            .map(|bid| bid_items.get(bid).cloned())
            .collect::<Option<_>>()?;
        items.sort();
        sets.push((items, *cnt));
    }
    sets.sort_by(|a, b| a.0.len().cmp(&b.0.len()).then_with(|| a.0.cmp(&b.0)));

    let mut gid_map: HashMap<Vec<String>, Vec<u32>> = HashMap::with_capacity(sets.len());
    let mut inventory = Vec::with_capacity(sets.len());
    for (items, cnt) in sets {
        let last = item_slots.get(items.last()?.as_str())?;
        let gids = if items.len() == 1 {
            last.clone()
        } else {
            intersect_sorted(gid_map.get(&items[..items.len() - 1])?, last)
        };
        if gids.len() as u32 != cnt {
            return None;
        }
        gid_map.insert(items.clone(), gids.clone());
        inventory.push(CachedItemset { items, gids });
    }
    Some(inventory)
}

fn intersect_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Replay the source-table delta onto a clone of the entry: update slot
/// multisets, patch gid-sets of cached itemsets for affected groups,
/// mine the grown/new groups for borderline candidates and verify them
/// exactly. Returns `None` whenever incremental re-mining is unsound or
/// over budget — the caller falls back to a full mine.
fn apply_delta(
    db: &Database,
    mut entry: MineEntry,
    translation: &Translation,
) -> Result<Option<MineEntry>> {
    let stmt = &translation.stmt;
    let table = match db.catalog().table(&stmt.from[0].name) {
        Ok(t) => t,
        Err(_) => return Ok(None),
    };
    let delta = match table.changes_since(entry.table_versions[0].1) {
        Some(d) => d,
        None => return Ok(None),
    };
    let cached_rows: u64 = entry.slots.iter().flatten().map(|s| s.row_count()).sum();
    let budget = (cached_rows as usize / 4).max(BUDGET_MIN_ROWS);
    if delta.row_count() > budget {
        return Ok(None);
    }
    let (group_cols, item_cols) = match resolve_columns(db, stmt) {
        Some(v) => v,
        None => return Ok(None),
    };

    // Pre-delta item sets of every slot the delta touches.
    let mut before: HashMap<u32, HashSet<String>> = HashMap::new();
    let touch = |entry: &MineEntry, slot: u32, before: &mut HashMap<u32, HashSet<String>>| {
        before.entry(slot).or_insert_with(|| {
            entry.slots[slot as usize]
                .as_ref()
                .map(|s| s.item_set().into_iter().map(str::to_string).collect())
                .unwrap_or_default()
        });
    };

    if !apply_rows(&mut entry, &delta, &group_cols, &item_cols, &mut |e, s| {
        touch(e, s, &mut before)
    }) {
        return Ok(None);
    }

    // Retire emptied groups; classify the touched slots.
    let mut grown_or_new: Vec<(u32, HashSet<String>)> = Vec::new();
    let mut changed: Vec<u32> = Vec::new();
    for (&slot, old_set) in &before {
        let now: HashSet<String> = entry.slots[slot as usize]
            .as_ref()
            .map(|s| {
                if s.row_count() == 0 {
                    HashSet::new()
                } else {
                    s.item_set().into_iter().map(str::to_string).collect()
                }
            })
            .unwrap_or_default();
        if entry.slots[slot as usize]
            .as_ref()
            .is_some_and(|s| s.row_count() == 0)
        {
            let key = entry.slots[slot as usize].as_ref().unwrap().key.clone();
            entry.index.remove(&key);
            entry.slots[slot as usize] = None;
        }
        if now == *old_set {
            continue; // duplicate-row churn only: the item set is unchanged
        }
        changed.push(slot);
        if now.iter().any(|i| !old_set.contains(i)) {
            grown_or_new.push((slot, now));
        }
    }

    let new_totg = entry.slots.iter().flatten().count() as u64;
    let new_min = min_groups_for(new_totg, stmt.min_support);
    if new_min < entry.min_groups {
        // The effective threshold loosened (mass deletes): itemsets below
        // the cached pruning line are unknown. Full mine.
        return Ok(None);
    }

    // Patch gid-sets of the cached inventory for the changed slots only.
    for cached in &mut entry.inventory {
        for &slot in &changed {
            let contains_now = entry.slots[slot as usize]
                .as_ref()
                .is_some_and(|s| cached.items.iter().all(|i| s.items.contains_key(i)));
            let pos = cached.gids.binary_search(&slot);
            match (pos, contains_now) {
                (Ok(p), false) => {
                    cached.gids.remove(p);
                }
                (Err(p), true) => cached.gids.insert(p, slot),
                _ => {}
            }
        }
    }

    // Borderline candidates: an itemset absent from the inventory had
    // support < cached min_groups, so to reach new_min it must occur in
    // at least `t` of the grown/new groups. Mine just those.
    let t = (new_min - entry.min_groups + 1) as usize;
    let delta_sets: Vec<&HashSet<String>> = grown_or_new.iter().map(|(_, s)| s).collect();
    let candidates = match mine_delta_candidates(&delta_sets, t) {
        Some(c) => c,
        None => return Ok(None), // candidate blow-up: full mine
    };
    if !candidates.is_empty() {
        let known: HashSet<Vec<String>> = entry.inventory.iter().map(|c| c.items.clone()).collect();
        // Exact verification over all live groups via an inverted index
        // restricted to candidate items.
        let mut item_slots: HashMap<&str, Vec<u32>> = HashMap::new();
        let wanted: HashSet<&str> = candidates
            .iter()
            .flat_map(|c| c.iter().map(String::as_str))
            .collect();
        for (i, slot) in entry.slots.iter().enumerate() {
            if let Some(slot) = slot {
                for item in slot.item_set() {
                    if wanted.contains(item) {
                        item_slots.entry(item).or_default().push(i as u32);
                    }
                }
            }
        }
        let mut fresh: Vec<CachedItemset> = Vec::new();
        for items in candidates {
            if known.contains(&items) {
                continue;
            }
            let mut gids: Option<Vec<u32>> = None;
            for item in &items {
                let slots = match item_slots.get(item.as_str()) {
                    Some(s) => s,
                    None => {
                        gids = Some(Vec::new());
                        break;
                    }
                };
                gids = Some(match gids {
                    None => slots.clone(),
                    Some(g) => intersect_sorted(&g, slots),
                });
                if gids.as_ref().is_some_and(Vec::is_empty) {
                    break;
                }
            }
            let gids = gids.unwrap_or_default();
            if gids.len() as u64 >= new_min {
                fresh.push(CachedItemset { items, gids });
            }
        }
        entry.inventory.extend(fresh);
    }

    // Keep exactly the frequent set at the new threshold: the inventory
    // is complete there (cached updates + verified candidates).
    entry.inventory.retain(|c| c.gids.len() as u64 >= new_min);
    entry.inventory.sort_by(|a, b| {
        a.items
            .len()
            .cmp(&b.items.len())
            .then_with(|| a.items.cmp(&b.items))
    });
    entry.total_groups = new_totg;
    entry.table_versions = match source_versions(db, stmt) {
        Some(v) => v,
        None => return Ok(None),
    };
    Ok(Some(entry))
}

/// Apply the delta rows to the entry's group map. Returns false when a
/// deleted row cannot be accounted for (the map and the table diverged —
/// never expected, but never cache through it).
fn apply_rows(
    entry: &mut MineEntry,
    delta: &TableDelta,
    group_cols: &[usize],
    item_cols: &[usize],
    touch: &mut impl FnMut(&MineEntry, u32),
) -> bool {
    let max_col = group_cols.iter().chain(item_cols).copied().max();
    for row in delta.inserted.iter().chain(&delta.deleted) {
        if max_col.is_some_and(|m| m >= row.len()) {
            return false; // schema drift
        }
    }
    for row in &delta.inserted {
        let (gkey, ikey) = row_keys(row, group_cols, item_cols);
        let slot = match entry.index.get(&gkey) {
            Some(&s) => s,
            None => {
                let s = entry.slots.len() as u32;
                entry.slots.push(Some(GroupSlot {
                    key: gkey.clone(),
                    items: BTreeMap::new(),
                }));
                entry.index.insert(gkey, s);
                s
            }
        };
        touch(entry, slot);
        *entry.slots[slot as usize]
            .as_mut()
            .unwrap()
            .items
            .entry(ikey)
            .or_insert(0) += 1;
    }
    for row in &delta.deleted {
        let (gkey, ikey) = row_keys(row, group_cols, item_cols);
        let slot = match entry.index.get(&gkey) {
            Some(&s) => s,
            None => return false,
        };
        touch(entry, slot);
        let slot_ref = entry.slots[slot as usize].as_mut().unwrap();
        match slot_ref.items.get_mut(&ikey) {
            Some(c) if *c > 0 => {
                *c -= 1;
                if *c == 0 {
                    slot_ref.items.remove(&ikey);
                }
            }
            _ => return false,
        }
    }
    true
}

/// Enumerate every itemset occurring in at least `t` of the given group
/// item-sets (depth-first with tid-lists over the — small — delta).
/// Returns `None` past [`MAX_DELTA_CANDIDATES`].
fn mine_delta_candidates(groups: &[&HashSet<String>], t: usize) -> Option<Vec<Vec<String>>> {
    if groups.is_empty() || t > groups.len() {
        return Some(Vec::new());
    }
    let mut tids: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, set) in groups.iter().enumerate() {
        for item in set.iter() {
            tids.entry(item).or_default().push(i);
        }
    }
    let items: Vec<(&str, Vec<usize>)> = tids
        .into_iter()
        .filter(|(_, tids)| tids.len() >= t)
        .collect();
    let mut out: Vec<Vec<String>> = Vec::new();

    fn extend(
        items: &[(&str, Vec<usize>)],
        start: usize,
        prefix: &mut Vec<String>,
        prefix_tids: &[usize],
        t: usize,
        out: &mut Vec<Vec<String>>,
    ) -> bool {
        for (i, (item, item_tids)) in items.iter().enumerate().skip(start) {
            let tids: Vec<usize> = if prefix.is_empty() {
                item_tids.clone()
            } else {
                prefix_tids
                    .iter()
                    .copied()
                    .filter(|x| item_tids.binary_search(x).is_ok())
                    .collect()
            };
            if tids.len() < t {
                continue;
            }
            prefix.push(item.to_string());
            if out.len() >= MAX_DELTA_CANDIDATES {
                return false;
            }
            let mut emitted = prefix.clone();
            emitted.sort();
            out.push(emitted);
            if !extend(items, i + 1, prefix, &tids, t, out) {
                return false;
            }
            prefix.pop();
        }
        true
    }

    let mut prefix = Vec::new();
    if !extend(&items, 0, &mut prefix, &[], t, &mut out) {
        return None;
    }
    Some(out)
}

/// Filter the inventory at the statement's threshold, map value-space
/// items onto the current `Bset` identifiers and regenerate rules with
/// the same derivation a cold mine uses — bit-identical output. `None`
/// when an item cannot be mapped (serve as a miss instead).
fn extract_rules(
    db: &mut Database,
    entry: &MineEntry,
    translation: &Translation,
    new_min: u64,
) -> Result<Option<Vec<EncodedRule>>> {
    let stmt = &translation.stmt;
    let bid_items = match read_bid_items(db, translation) {
        Some(map) => map,
        None => return Ok(None),
    };
    let item_bids: HashMap<&str, u32> = bid_items
        .iter()
        .map(|(&bid, item)| (item.as_str(), bid))
        .collect();
    let mut large: Vec<LargeItemset> = Vec::new();
    for cached in &entry.inventory {
        if (cached.gids.len() as u64) < new_min {
            continue;
        }
        let mut set: Vec<u32> = Vec::with_capacity(cached.items.len());
        for item in &cached.items {
            match item_bids.get(item.as_str()) {
                Some(&bid) => set.push(bid),
                None => return Ok(None),
            }
        }
        set.sort_unstable();
        large.push((set, cached.gids.len() as u32));
    }
    let (mut rules, _) = rules_from_itemsets_counted(
        &large,
        entry.total_groups as u32,
        stmt.body.card,
        stmt.head.card,
        stmt.min_confidence,
    )?;
    sort_rules(&mut rules);
    Ok(Some(rules))
}

/// Rough retained size of one entry, for the bytes gauge.
fn approx_entry_bytes(entry: &MineEntry) -> u64 {
    let slot_bytes: u64 = entry
        .slots
        .iter()
        .flatten()
        .map(|s| s.key.len() as u64 + s.items.keys().map(|k| k.len() as u64 + 12).sum::<u64>() + 32)
        .sum();
    let inv_bytes: u64 = entry
        .inventory
        .iter()
        .map(|c| {
            c.items.iter().map(|i| i.len() as u64 + 8).sum::<u64>() + c.gids.len() as u64 * 4 + 32
        })
        .sum();
    slot_bytes + inv_bytes + 256
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example::purchase_db;
    use crate::pipeline::MineRuleEngine;

    fn stmt_text(support: f64, confidence: f64, output: &str) -> String {
        format!(
            "MINE RULE {output} AS SELECT DISTINCT item AS BODY, item AS HEAD \
             FROM Purchase GROUP BY tr \
             EXTRACTING RULES WITH SUPPORT: {support}, CONFIDENCE: {confidence}"
        )
    }

    /// Rules of a cold mine (mined-result cache off) on a freshly built
    /// database with the given extra SQL applied first.
    fn cold_reference(mutations: &[&str], text: &str) -> Vec<crate::postprocess::DecodedRule> {
        let mut db = purchase_db();
        for sql in mutations {
            db.execute(sql).unwrap();
        }
        MineRuleEngine::new()
            .with_minecache(false)
            .execute(&mut db, text)
            .unwrap()
            .rules
    }

    #[test]
    fn refined_thresholds_serve_without_core_work() {
        let engine = MineRuleEngine::new();
        let mut db = purchase_db();
        engine.execute(&mut db, &stmt_text(0.25, 0.1, "R")).unwrap();
        let before = engine.metrics_snapshot();
        let warm = engine.execute(&mut db, &stmt_text(0.5, 0.4, "R")).unwrap();
        let after = engine.metrics_snapshot();
        assert_eq!(after.counter("core.minecache.hit"), 1);
        assert_eq!(after.counter("core.minecache.refine"), 1);
        assert_eq!(after.counter("core.minecache.delta"), 0);
        // The core operator never ran on the warm serve: no new levels,
        // no new simple-path dispatch.
        assert_eq!(
            before.counter("core.level.1.generated"),
            after.counter("core.level.1.generated")
        );
        assert_eq!(
            before.counter("core.path.simple"),
            after.counter("core.path.simple")
        );
        assert_eq!(warm.rules, cold_reference(&[], &stmt_text(0.5, 0.4, "R")));
    }

    #[test]
    fn identical_rerun_is_a_plain_hit() {
        let engine = MineRuleEngine::new();
        let mut db = purchase_db();
        let cold = engine.execute(&mut db, &stmt_text(0.25, 0.1, "R")).unwrap();
        let warm = engine.execute(&mut db, &stmt_text(0.25, 0.1, "R")).unwrap();
        let snap = engine.metrics_snapshot();
        assert_eq!(snap.counter("core.minecache.hit"), 1);
        assert_eq!(snap.counter("core.minecache.refine"), 0);
        assert_eq!(warm.rules, cold.rules);
    }

    #[test]
    fn loosened_support_misses_then_recaptures() {
        let engine = MineRuleEngine::new();
        let mut db = purchase_db();
        engine.execute(&mut db, &stmt_text(0.5, 0.4, "R")).unwrap();
        let loose = engine.execute(&mut db, &stmt_text(0.25, 0.1, "R")).unwrap();
        let snap = engine.metrics_snapshot();
        assert_eq!(snap.counter("core.minecache.hit"), 0);
        assert_eq!(snap.counter("core.minecache.miss"), 2);
        assert_eq!(loose.rules, cold_reference(&[], &stmt_text(0.25, 0.1, "R")));
        // The loose mine replaced the entry, so tightening hits again.
        engine.execute(&mut db, &stmt_text(0.5, 0.4, "R")).unwrap();
        assert_eq!(engine.metrics_snapshot().counter("core.minecache.hit"), 1);
    }

    #[test]
    fn insert_delete_delta_is_remined_incrementally() {
        let mutations: &[&str] = &[
            "INSERT INTO Purchase VALUES \
             (90, 'c9', 'ski_pants', DATE '1997-01-08', 140, 1), \
             (90, 'c9', 'brown_boots', DATE '1997-01-08', 180, 1)",
            "DELETE FROM Purchase WHERE tr = 1 AND item = 'hiking_boots'",
        ];
        let engine = MineRuleEngine::new();
        let mut db = purchase_db();
        engine.execute(&mut db, &stmt_text(0.25, 0.1, "R")).unwrap();
        for sql in mutations {
            db.execute(sql).unwrap();
        }
        let warm = engine.execute(&mut db, &stmt_text(0.25, 0.1, "R")).unwrap();
        let snap = engine.metrics_snapshot();
        assert_eq!(snap.counter("core.minecache.hit"), 1);
        assert_eq!(snap.counter("core.minecache.delta"), 1);
        assert_eq!(
            warm.rules,
            cold_reference(mutations, &stmt_text(0.25, 0.1, "R"))
        );
    }

    #[test]
    fn update_delta_is_remined_incrementally() {
        let engine = MineRuleEngine::new();
        let mut db = purchase_db();
        engine.execute(&mut db, &stmt_text(0.25, 0.1, "R")).unwrap();
        // UPDATE logs as a tracked delete+insert pair, so the rerun is
        // served through the incremental delta path.
        db.execute("UPDATE Purchase SET price = price + 1 WHERE tr = 1")
            .unwrap();
        let warm = engine.execute(&mut db, &stmt_text(0.25, 0.1, "R")).unwrap();
        let snap = engine.metrics_snapshot();
        assert_eq!(snap.counter("core.minecache.hit"), 1);
        assert_eq!(snap.counter("core.minecache.delta"), 1);
        assert_eq!(snap.counter("core.minecache.miss"), 1);
        assert_eq!(
            warm.rules,
            cold_reference(
                &["UPDATE Purchase SET price = price + 1 WHERE tr = 1"],
                &stmt_text(0.25, 0.1, "R")
            )
        );
    }

    #[test]
    fn unreplayable_mutations_fall_back_to_a_full_mine() {
        let engine = MineRuleEngine::new();
        let mut db = purchase_db();
        engine.execute(&mut db, &stmt_text(0.25, 0.1, "R")).unwrap();
        // Churn past the bounded change log: the cached stamp's window
        // falls off, so the rerun must miss — and still be correct.
        let mutations = vec!["INSERT INTO Purchase (SELECT * FROM Purchase)"; 9];
        for sql in &mutations {
            db.execute(sql).unwrap();
        }
        let warm = engine.execute(&mut db, &stmt_text(0.25, 0.1, "R")).unwrap();
        let snap = engine.metrics_snapshot();
        assert_eq!(snap.counter("core.minecache.hit"), 0);
        assert_eq!(snap.counter("core.minecache.delta"), 0);
        assert_eq!(snap.counter("core.minecache.miss"), 2);
        assert_eq!(
            warm.rules,
            cold_reference(&mutations, &stmt_text(0.25, 0.1, "R"))
        );
    }

    #[test]
    fn general_class_statements_bypass_the_cache() {
        let text = "MINE RULE C AS SELECT DISTINCT item AS BODY, item AS HEAD \
                    FROM Purchase GROUP BY customer CLUSTER BY date \
                    EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1";
        let engine = MineRuleEngine::new();
        let mut db = purchase_db();
        engine.execute(&mut db, text).unwrap();
        engine.execute(&mut db, text).unwrap();
        let snap = engine.metrics_snapshot();
        assert_eq!(snap.counter("core.minecache.hit"), 0);
        assert_eq!(snap.counter("core.minecache.miss"), 2);
    }

    #[test]
    fn disabled_cache_never_serves_or_counts() {
        let engine = MineRuleEngine::new().with_minecache(false);
        assert!(!engine.minecache_enabled());
        let mut db = purchase_db();
        engine.execute(&mut db, &stmt_text(0.25, 0.1, "R")).unwrap();
        let warm = engine.execute(&mut db, &stmt_text(0.5, 0.4, "R")).unwrap();
        let snap = engine.metrics_snapshot();
        assert_eq!(snap.counter("core.minecache.hit"), 0);
        assert_eq!(snap.counter("core.minecache.miss"), 0);
        assert_eq!(warm.rules, cold_reference(&[], &stmt_text(0.5, 0.4, "R")));
    }

    #[test]
    fn value_keys_never_alias_across_types() {
        assert_ne!(
            value_key(&Value::Int(1)),
            value_key(&Value::Str("1".into()))
        );
        assert_ne!(value_key(&Value::Int(1)), value_key(&Value::Float(1.0)));
        assert_ne!(
            value_key(&Value::Null),
            value_key(&Value::Str(String::new()))
        );
        assert_ne!(
            compound_key(&[&Value::Str("a\u{1f}b".into())]),
            compound_key(&[&Value::Str("a".into()), &Value::Str("b".into())])
        );
        // Still... the last two render the same joined text, which is
        // exactly why stores verify counts before trusting the map.
    }

    #[test]
    fn delta_candidate_miner_enumerates_exactly() {
        let a: HashSet<String> = ["x", "y", "z"].iter().map(|s| s.to_string()).collect();
        let b: HashSet<String> = ["x", "y"].iter().map(|s| s.to_string()).collect();
        let c: HashSet<String> = ["y"].iter().map(|s| s.to_string()).collect();
        let groups = [&a, &b, &c];
        let mut found = mine_delta_candidates(&groups, 2).unwrap();
        found.sort();
        let expect: Vec<Vec<String>> = vec![
            vec!["x".into()],
            vec!["x".into(), "y".into()],
            vec!["y".into()],
        ];
        assert_eq!(found, expect);
        assert!(mine_delta_candidates(&groups, 4).unwrap().is_empty());
    }
}
