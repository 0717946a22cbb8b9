//! Durable paged storage: slotted pages, a pinning page cache, a pager
//! over one heap file, and a write-ahead log with recovery-on-open.
//!
//! The tightly-coupled architecture assumes the DBMS side provides real
//! storage; this module is that side's storage engine. A database opened
//! with [`StorageBackend::Paged`] writes every committed statement
//! through a WAL before it touches the heap, so a crash at *any* point —
//! mid-append, mid-fsync, mid-checkpoint — loses nothing that was
//! committed and resurrects nothing that was not. The full protocol and
//! its invariants are documented in `docs/STORAGE.md`.
//!
//! Layout of a store directory:
//!
//! * `heap.tcdm` — flat array of checksummed [`page::PAGE_SIZE`] slotted
//!   pages; page 0 is the superblock pointing at the catalog chain, and
//!   every table heap is a singly-linked chain of pages.
//! * `wal.tcdm` — the write-ahead log ([`wal`]); one transaction per SQL
//!   statement, full-page redo images, truncated at each checkpoint.
//!
//! Because encoded mining artifacts (`CodedSource`, `Bset`, `Hset`, the
//! rule tables) are ordinary catalog tables, the preprocessor and
//! postprocessor inherit durability with zero extra plumbing: their
//! tables flow through the same pager as user data.
//!
//! ## Kill and recover
//!
//! ```
//! use relational::Database;
//! let dir = std::env::temp_dir().join(format!("tcdm_storage_doc_{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//! {
//!     let mut db = Database::open_paged(&dir).unwrap();
//!     db.execute("CREATE TABLE t (a INT)").unwrap();
//!     db.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
//! } // dropped without a checkpoint — the WAL alone carries the commits
//! let mut db = Database::open_paged(&dir).unwrap();
//! let n = db.query("SELECT COUNT(*) FROM t").unwrap();
//! assert_eq!(n.scalar().unwrap().to_string(), "3");
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

pub mod cache;
pub mod page;
pub mod pager;
pub mod wal;

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::path::Path;

use crate::catalog::{Catalog, View};
use crate::error::{Error, Result};
use crate::row::Row;
use crate::sequence::Sequence;
use crate::sql::ast::Statement;
use crate::sql::parser::parse_statement;
use crate::table::Table;
use crate::types::{Column, DataType, Schema};
use crate::value::{Date, Value};

use page::{Page, MAX_CELL, PAGE_SIZE};
use pager::Pager;
use wal::{Wal, WalRecord};
pub use wal::{WalFault, WalFaultKind};

/// Which storage engine a [`crate::Database`] runs on.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum StorageBackend {
    /// Everything lives in process memory; persistence only via the
    /// explicit [`crate::persist`] snapshot. The default.
    #[default]
    Memory,
    /// Durable paged storage: slotted pages + WAL, crash-safe at every
    /// statement boundary. Requires a storage directory.
    Paged,
}

impl StorageBackend {
    /// Parse a backend name (`memory` | `paged`), ASCII-case-insensitively.
    pub fn from_name(name: &str) -> Option<StorageBackend> {
        match name.to_ascii_lowercase().as_str() {
            "memory" => Some(StorageBackend::Memory),
            "paged" => Some(StorageBackend::Paged),
            _ => None,
        }
    }

    /// The canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            StorageBackend::Memory => "memory",
            StorageBackend::Paged => "paged",
        }
    }
}

impl fmt::Display for StorageBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Tuning knobs of the paged backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageConfig {
    /// Memory budget of the page cache, in pages (× 4 KiB each).
    pub cache_pages: usize,
    /// Auto-checkpoint once the WAL grows past this many bytes.
    pub checkpoint_bytes: u64,
}

impl Default for StorageConfig {
    fn default() -> StorageConfig {
        StorageConfig {
            cache_pages: 256,          // 1 MiB of cached pages
            checkpoint_bytes: 1 << 20, // 1 MiB of WAL
        }
    }
}

/// Work counters of the paged backend, all zero under the memory
/// backend. Surfaced as `relational.storage.*` telemetry deltas.
#[derive(Debug, Default, Clone, Copy)]
pub struct StorageStats {
    /// Pages read from the heap file (cache misses).
    pub page_reads: u64,
    /// Pages written to the heap file (LRU spills + checkpoints).
    pub page_writes: u64,
    /// Page lookups served by the cache.
    pub cache_hits: u64,
    /// Pages pushed out of the cache by the LRU policy.
    pub cache_evictions: u64,
    /// Records appended to the write-ahead log.
    pub wal_appends: u64,
    /// Successful WAL fsyncs (one per committed transaction).
    pub wal_fsyncs: u64,
    /// Recoveries performed at open (a non-empty WAL was replayed).
    pub recoveries: u64,
}

impl StorageStats {
    /// Field-wise sum (used to fold a detached store into a running total).
    pub fn merged(self, other: StorageStats) -> StorageStats {
        StorageStats {
            page_reads: self.page_reads + other.page_reads,
            page_writes: self.page_writes + other.page_writes,
            cache_hits: self.cache_hits + other.cache_hits,
            cache_evictions: self.cache_evictions + other.cache_evictions,
            wal_appends: self.wal_appends + other.wal_appends,
            wal_fsyncs: self.wal_fsyncs + other.wal_fsyncs,
            recoveries: self.recoveries + other.recoveries,
        }
    }
}

const MAGIC: &[u8; 8] = b"TCDMPG01";
const CATALOG_HEADER: &str = "tcdm-storage-catalog v1";
const HEAP_FILE: &str = "heap.tcdm";
const WAL_FILE: &str = "wal.tcdm";

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('\t', "\\t")
        .replace('\n', "\\n")
}

fn unesc(s: &str) -> Result<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('t') => out.push('\t'),
                Some('n') => out.push('\n'),
                Some('\\') => out.push('\\'),
                other => {
                    return Err(Error::storage(format!(
                        "bad escape in stored catalog: \\{other:?}"
                    )))
                }
            }
        } else {
            out.push(c);
        }
    }
    Ok(out)
}

/// Encode one row as one page cell: `ncols u16`, then a tag byte per
/// value (0 NULL, 1 INT i64, 2 FLOAT bits u64, 3 STR len u32 + UTF-8,
/// 4 BOOL u8, 5 DATE days i32), all little-endian. Floats round-trip by
/// bit pattern, so the codec is bit-exact.
fn encode_row(row: &Row) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 + row.len() * 9);
    out.extend_from_slice(&(row.len() as u16).to_le_bytes());
    for v in row {
        match v {
            Value::Null => out.push(0),
            Value::Int(i) => {
                out.push(1);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Value::Float(f) => {
                out.push(2);
                out.extend_from_slice(&f.to_bits().to_le_bytes());
            }
            Value::Str(s) => {
                out.push(3);
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            Value::Bool(b) => {
                out.push(4);
                out.push(*b as u8);
            }
            Value::Date(d) => {
                out.push(5);
                out.extend_from_slice(&d.days_since_epoch().to_le_bytes());
            }
        }
    }
    out
}

fn decode_row(cell: &[u8]) -> Result<Row> {
    fn take<'a>(cell: &'a [u8], at: &mut usize, n: usize) -> Result<&'a [u8]> {
        let s = cell
            .get(*at..*at + n)
            .ok_or_else(|| Error::storage("truncated row cell"))?;
        *at += n;
        Ok(s)
    }
    let mut at = 0usize;
    let b = take(cell, &mut at, 2)?;
    let ncols = u16::from_le_bytes([b[0], b[1]]);
    let mut row = Vec::with_capacity(ncols as usize);
    for _ in 0..ncols {
        let tag = take(cell, &mut at, 1)?[0];
        row.push(match tag {
            0 => Value::Null,
            1 => {
                let b = take(cell, &mut at, 8)?;
                Value::Int(i64::from_le_bytes(b.try_into().expect("8 bytes")))
            }
            2 => {
                let b = take(cell, &mut at, 8)?;
                Value::Float(f64::from_bits(u64::from_le_bytes(
                    b.try_into().expect("8 bytes"),
                )))
            }
            3 => {
                let b = take(cell, &mut at, 4)?;
                let len = u32::from_le_bytes(b.try_into().expect("4 bytes")) as usize;
                let s = take(cell, &mut at, len)?;
                Value::Str(
                    String::from_utf8(s.to_vec())
                        .map_err(|_| Error::storage("stored string is not UTF-8"))?,
                )
            }
            4 => Value::Bool(take(cell, &mut at, 1)?[0] != 0),
            5 => {
                let b = take(cell, &mut at, 4)?;
                Value::Date(Date::from_days_since_epoch(i32::from_le_bytes(
                    b.try_into().expect("4 bytes"),
                )))
            }
            other => return Err(Error::storage(format!("unknown value tag {other}"))),
        });
    }
    if at != cell.len() {
        return Err(Error::storage("trailing bytes in row cell"));
    }
    Ok(row)
}

/// The disk-side identity of one table heap.
#[derive(Debug)]
struct HeapEntry {
    /// First page of the chain.
    root: u32,
    /// Version stamp of the in-memory [`Table`] this chain mirrors
    /// (0 = not yet bound to a live table).
    version: u64,
    /// Every page of the chain, in order (freeing needs no re-walk).
    pages: Vec<u32>,
}

/// The parsed form of the on-disk catalog blob.
struct CatalogImage {
    tables: Vec<(String, u32, Vec<Column>)>,
    views: Vec<(String, String)>,
    sequences: Vec<(String, i64, i64)>,
}

fn parse_catalog_blob(blob: &str) -> Result<CatalogImage> {
    let mut lines = blob.lines();
    if lines.next() != Some(CATALOG_HEADER) {
        return Err(Error::storage("catalog blob has a bad header"));
    }
    let mut image = CatalogImage {
        tables: Vec::new(),
        views: Vec::new(),
        sequences: Vec::new(),
    };
    for line in lines {
        let mut parts = line.split('\t');
        match parts.next() {
            Some("table") => {
                let (Some(name), Some(root)) = (parts.next(), parts.next()) else {
                    return Err(Error::storage("catalog blob: malformed table line"));
                };
                let root: u32 = root
                    .parse()
                    .map_err(|_| Error::storage("catalog blob: bad root page id"))?;
                let mut cols = Vec::new();
                for spec in parts {
                    let Some((cname, ctype)) = spec.rsplit_once(':') else {
                        return Err(Error::storage("catalog blob: malformed column spec"));
                    };
                    let dtype = DataType::from_sql_name(ctype).ok_or_else(|| {
                        Error::storage(format!("catalog blob: unknown type {ctype}"))
                    })?;
                    cols.push(Column::new(unesc(cname)?, dtype));
                }
                image.tables.push((unesc(name)?, root, cols));
            }
            Some("view") => {
                let (Some(name), Some(sql)) = (parts.next(), parts.next()) else {
                    return Err(Error::storage("catalog blob: malformed view line"));
                };
                image.views.push((unesc(name)?, unesc(sql)?));
            }
            Some("sequence") => {
                let (Some(name), Some(next), Some(inc)) =
                    (parts.next(), parts.next(), parts.next())
                else {
                    return Err(Error::storage("catalog blob: malformed sequence line"));
                };
                let next: i64 = next
                    .parse()
                    .map_err(|_| Error::storage("catalog blob: bad sequence value"))?;
                let inc: i64 = inc
                    .parse()
                    .map_err(|_| Error::storage("catalog blob: bad sequence increment"))?;
                image.sequences.push((unesc(name)?, next, inc));
            }
            Some("") | None => {}
            Some(other) => {
                return Err(Error::storage(format!(
                    "catalog blob: unknown record '{other}'"
                )))
            }
        }
    }
    Ok(image)
}

/// A durable store attached to one directory: pager + WAL + the table
/// map that links in-memory version stamps to on-disk page chains.
///
/// The store is *write-through at statement granularity*: the engine
/// calls [`PagedStore::sync`] after every statement, which diffs table
/// version stamps, rewrites only the chains that changed, and commits
/// the whole statement as one WAL transaction. See `docs/STORAGE.md`.
#[derive(Debug)]
pub struct PagedStore {
    pager: Pager,
    wal: Wal,
    cfg: StorageConfig,
    catalog_root: u32,
    catalog_pages: Vec<u32>,
    catalog_blob: String,
    /// Lowercased table name → its heap chain.
    tables: BTreeMap<String, HeapEntry>,
    next_tx: u64,
    recoveries: u64,
    poisoned: bool,
}

impl PagedStore {
    /// Open (or create) a store under `dir`, replaying the WAL first if
    /// the previous process died with committed-but-unflushed work.
    pub fn open(dir: &Path, cfg: StorageConfig) -> Result<PagedStore> {
        std::fs::create_dir_all(dir)
            .map_err(|e| Error::storage(format!("create {}: {e}", dir.display())))?;
        let (wal, records) = Wal::open(&dir.join(WAL_FILE))?;
        let pager = Pager::open(&dir.join(HEAP_FILE), cfg.cache_pages)?;
        let fresh = pager.file_pages() == 0 && records.is_empty();
        let mut store = PagedStore {
            pager,
            wal,
            cfg,
            catalog_root: 0,
            catalog_pages: Vec::new(),
            catalog_blob: String::new(),
            tables: BTreeMap::new(),
            next_tx: 1,
            recoveries: 0,
            poisoned: false,
        };
        if fresh {
            store.init_fresh()?;
        } else {
            if !records.is_empty() {
                store.recover(records)?;
            }
            store.load_metadata()?;
        }
        Ok(store)
    }

    fn check_poisoned(&self) -> Result<()> {
        if self.poisoned {
            return Err(Error::storage(
                "storage hit a fault; reopen the database to recover",
            ));
        }
        Ok(())
    }

    /// True when the store holds no tables, views or sequences.
    pub fn is_empty(&self) -> bool {
        self.catalog_blob.trim_end() == CATALOG_HEADER
    }

    /// Current work counters.
    pub fn stats(&self) -> StorageStats {
        StorageStats {
            page_reads: self.pager.reads(),
            page_writes: self.pager.writes(),
            cache_hits: self.pager.cache_hits(),
            cache_evictions: self.pager.cache_evictions(),
            wal_appends: self.wal.appends(),
            wal_fsyncs: self.wal.fsyncs(),
            recoveries: self.recoveries,
        }
    }

    /// Arm (or disarm) the WAL crash-injection hook (tests only).
    pub fn set_fault(&mut self, fault: Option<WalFault>) {
        self.wal.set_fault(fault);
    }

    fn init_fresh(&mut self) -> Result<()> {
        self.catalog_blob = format!("{CATALOG_HEADER}\n");
        let cells = vec![self.catalog_blob.as_bytes().to_vec()];
        let (root, pages) = self.write_chain(&cells)?;
        self.catalog_root = root;
        self.catalog_pages = pages;
        self.write_superblock(root)?;
        self.commit()?;
        self.checkpoint()
    }

    fn recover(&mut self, records: Vec<WalRecord>) -> Result<()> {
        type TxImages = Vec<(u32, Box<[u8; PAGE_SIZE]>)>;
        self.recoveries = 1;
        let mut in_flight: HashMap<u64, TxImages> = HashMap::new();
        let mut committed: TxImages = Vec::new();
        let mut max_tx = 0u64;
        for record in records {
            match record {
                WalRecord::Begin { tx } => {
                    max_tx = max_tx.max(tx);
                    in_flight.insert(tx, Vec::new());
                }
                WalRecord::Page { tx, page_id, image } => {
                    if let Some(pages) = in_flight.get_mut(&tx) {
                        pages.push((page_id, image));
                    }
                }
                WalRecord::Commit { tx } => {
                    // Commit order == file order: later images win.
                    committed.extend(in_flight.remove(&tx).unwrap_or_default());
                }
            }
        }
        // Anything still in `in_flight` never committed: discarded.
        for (page_id, image) in committed {
            let page = Page::from_bytes(&image[..])?;
            if page.id() != page_id {
                return Err(Error::storage(format!(
                    "wal image for page {page_id} carries id {}",
                    page.id()
                )));
            }
            self.pager.install(page)?;
        }
        self.next_tx = max_tx + 1;
        // Make the replayed state the new heap baseline, then empty the
        // WAL — the crash is fully absorbed.
        self.checkpoint()
    }

    fn load_metadata(&mut self) -> Result<()> {
        let sb = self.pager.read(0)?;
        let cell_ok = sb.cell_count() == 1 && sb.cell(0).len() == 12 && &sb.cell(0)[..8] == MAGIC;
        if !cell_ok {
            return Err(Error::storage(
                "superblock is not a tcdm paged store (bad magic)",
            ));
        }
        let c = sb.cell(0);
        self.catalog_root = u32::from_le_bytes([c[8], c[9], c[10], c[11]]);
        let (cells, pages) = self.read_chain(self.catalog_root)?;
        let bytes: Vec<u8> = cells.concat();
        self.catalog_blob =
            String::from_utf8(bytes).map_err(|_| Error::storage("catalog blob is not UTF-8"))?;
        self.catalog_pages = pages;
        let image = parse_catalog_blob(&self.catalog_blob)?;

        // Walk every table chain once: binds roots to page lists and
        // feeds the mark phase of the free-list sweep.
        let mut live: BTreeSet<u32> = BTreeSet::new();
        live.insert(0);
        live.extend(&self.catalog_pages);
        for (name, root, _) in &image.tables {
            let (_, pages) = self.read_chain(*root)?;
            live.extend(&pages);
            self.tables.insert(
                name.to_ascii_lowercase(),
                HeapEntry {
                    root: *root,
                    version: 0,
                    pages,
                },
            );
        }
        let free: Vec<u32> = (1..self.pager.page_count())
            .filter(|id| !live.contains(id))
            .collect();
        self.pager.set_free(free);
        Ok(())
    }

    /// Materialise the stored catalog as in-memory tables, views and
    /// sequences. Every table gets a *fresh* version stamp, so index or
    /// cache entries from before the reopen can never hit it.
    pub fn load_catalog(&mut self) -> Result<Catalog> {
        let image = parse_catalog_blob(&self.catalog_blob)?;
        let mut catalog = Catalog::new();
        for (name, root, cols) in image.tables {
            let mut table = Table::new(name.clone(), Schema::new(cols));
            let (cells, _) = self.read_chain(root)?;
            let rows = cells
                .iter()
                .map(|c| decode_row(c))
                .collect::<Result<Vec<_>>>()?;
            table.insert_all(rows)?;
            let version = table.version();
            if let Some(entry) = self.tables.get_mut(&name.to_ascii_lowercase()) {
                entry.version = version;
            }
            catalog.create_table(table)?;
        }
        for (name, sql) in image.views {
            let Statement::Select(query) = parse_statement(&sql)? else {
                return Err(Error::storage("stored view body is not a SELECT"));
            };
            catalog.create_view(View { name, query })?;
        }
        for (name, next, inc) in image.sequences {
            catalog.create_sequence(Sequence::new(name, next, inc))?;
        }
        Ok(catalog)
    }

    fn write_superblock(&mut self, root: u32) -> Result<()> {
        let mut page = Page::new(0);
        let mut cell = Vec::with_capacity(12);
        cell.extend_from_slice(MAGIC);
        cell.extend_from_slice(&root.to_le_bytes());
        page.push_cell(&cell)?;
        self.pager.write(page)
    }

    fn write_chain(&mut self, cells: &[Vec<u8>]) -> Result<(u32, Vec<u32>)> {
        let root = self.pager.allocate();
        let mut pages = vec![root];
        let mut current = Page::new(root);
        for cell in cells {
            if !current.push_cell(cell)? {
                let next = self.pager.allocate();
                current.set_next(next);
                self.pager.write(current)?;
                current = Page::new(next);
                pages.push(next);
                // An empty page accepts any cell push_cell didn't reject.
                let pushed = current.push_cell(cell)?;
                debug_assert!(pushed);
            }
        }
        self.pager.write(current)?;
        Ok((root, pages))
    }

    fn read_chain(&mut self, root: u32) -> Result<(Vec<Vec<u8>>, Vec<u32>)> {
        let mut cells = Vec::new();
        let mut pages = Vec::new();
        let mut id = root;
        loop {
            let page = self.pager.read(id)?;
            cells.extend(page.cells().map(|c| c.to_vec()));
            pages.push(id);
            id = page.next();
            if id == 0 {
                break;
            }
            if pages.len() as u64 > self.pager.page_count() as u64 {
                return Err(Error::storage(format!(
                    "page chain from {root} has a cycle"
                )));
            }
        }
        Ok((cells, pages))
    }

    fn free_entry_pages(&mut self, pages: Vec<u32>) {
        for p in pages {
            self.pager.free_page(p);
        }
    }

    /// Serialize the catalog using this store's current root map.
    fn serialize_catalog(&self, catalog: &Catalog) -> String {
        let mut out = format!("{CATALOG_HEADER}\n");
        for name in catalog.table_names() {
            let root = self
                .tables
                .get(&name.to_ascii_lowercase())
                .map(|e| e.root)
                .unwrap_or(0);
            let table = catalog.table(name).expect("listed table exists");
            out.push_str(&format!("table\t{}\t{root}", esc(name)));
            for c in table.schema().columns() {
                out.push_str(&format!("\t{}:{}", esc(&c.name), c.dtype));
            }
            out.push('\n');
        }
        for (name, sql) in catalog.view_definitions() {
            out.push_str(&format!("view\t{}\t{}\n", esc(&name), esc(&sql)));
        }
        for (name, next, inc) in catalog.sequence_states() {
            out.push_str(&format!("sequence\t{}\t{next}\t{inc}\n", esc(&name)));
        }
        out
    }

    /// Mirror `catalog` to disk as one committed transaction. Diffs by
    /// table version stamp: unchanged tables cost one u64 comparison;
    /// changed tables get their chain rewritten. A no-op when nothing
    /// moved (the common case for pure SELECTs).
    pub fn sync(&mut self, catalog: &Catalog) -> Result<()> {
        self.check_poisoned()?;
        let mut changed: Vec<String> = Vec::new();
        let mut live_keys: BTreeSet<String> = BTreeSet::new();
        for name in catalog.table_names() {
            let key = name.to_ascii_lowercase();
            let version = catalog.table(name).expect("listed table exists").version();
            if self.tables.get(&key).map(|e| e.version) != Some(version) {
                changed.push(name.to_string());
            }
            live_keys.insert(key);
        }
        let dropped: Vec<String> = self
            .tables
            .keys()
            .filter(|k| !live_keys.contains(*k))
            .cloned()
            .collect();
        if changed.is_empty()
            && dropped.is_empty()
            && self.serialize_catalog(catalog) == self.catalog_blob
        {
            return Ok(());
        }

        for key in dropped {
            if let Some(entry) = self.tables.remove(&key) {
                self.free_entry_pages(entry.pages);
            }
        }
        for name in &changed {
            let key = name.to_ascii_lowercase();
            if let Some(entry) = self.tables.remove(&key) {
                self.free_entry_pages(entry.pages);
            }
            let table = catalog.table(name)?;
            let cells: Vec<Vec<u8>> = table.rows().iter().map(encode_row).collect();
            let (root, pages) = self.write_chain(&cells)?;
            self.tables.insert(
                key,
                HeapEntry {
                    root,
                    version: table.version(),
                    pages,
                },
            );
        }
        let blob = self.serialize_catalog(catalog);
        if blob != self.catalog_blob {
            let old = std::mem::take(&mut self.catalog_pages);
            self.free_entry_pages(old);
            let cells: Vec<Vec<u8>> = blob
                .as_bytes()
                .chunks(MAX_CELL)
                .map(<[u8]>::to_vec)
                .collect();
            let (root, pages) = self.write_chain(&cells)?;
            self.catalog_pages = pages;
            if root != self.catalog_root {
                self.catalog_root = root;
                self.write_superblock(root)?;
            }
            self.catalog_blob = blob;
        }
        self.commit()?;
        if self.wal.len() > self.cfg.checkpoint_bytes {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// WAL-commit the current transaction: Begin, one full-page image
    /// per dirtied page, Commit, then one fsync. Durability boundary.
    fn commit(&mut self) -> Result<()> {
        let mut dirty = self.pager.tx_dirty_pages();
        if dirty.is_empty() {
            return Ok(());
        }
        let tx = self.next_tx;
        self.next_tx += 1;
        let result = (|| -> Result<()> {
            self.wal.append(&WalRecord::Begin { tx })?;
            for page in dirty.iter_mut() {
                let mut image = Box::new([0u8; PAGE_SIZE]);
                image.copy_from_slice(page.sealed_bytes());
                self.wal.append(&WalRecord::Page {
                    tx,
                    page_id: page.id(),
                    image,
                })?;
            }
            self.wal.append(&WalRecord::Commit { tx })?;
            self.wal.sync()
        })();
        if result.is_err() {
            self.poisoned = true;
            return result;
        }
        self.pager.end_tx();
        Ok(())
    }

    /// Flush every dirty page to the heap, fsync it, then truncate the
    /// WAL: the heap alone now carries the whole state. Ordering is the
    /// crash-safety linchpin — the WAL only shrinks *after* the heap is
    /// durable.
    pub fn checkpoint(&mut self) -> Result<()> {
        self.check_poisoned()?;
        let result = self.pager.flush_dirty().and_then(|_| self.wal.reset());
        if result.is_err() {
            self.poisoned = true;
            return result;
        }
        self.pager.end_tx();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    fn temp_store(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tcdm_store_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_catalog() -> Catalog {
        let mut c = Catalog::new();
        let mut t = Table::new(
            "t",
            Schema::new(vec![
                Column::new("a", DataType::Int),
                Column::new("b", DataType::Str),
                Column::new("c", DataType::Float),
                Column::new("d", DataType::Date),
                Column::new("e", DataType::Bool),
            ]),
        );
        t.insert(vec![
            Value::Int(1),
            Value::Str("tab\there".into()),
            Value::Float(0.1),
            Value::Date(Date::from_ymd(1995, 12, 17).unwrap()),
            Value::Bool(true),
        ])
        .unwrap();
        t.insert(vec![
            Value::Null,
            Value::Null,
            Value::Float(-0.0),
            Value::Null,
            Value::Bool(false),
        ])
        .unwrap();
        c.create_table(t).unwrap();
        c.create_sequence(Sequence::new("ids", 10, 3)).unwrap();
        c
    }

    #[test]
    fn row_codec_is_bit_exact() {
        let rows = [
            row![1i64, "x", 2.5],
            vec![
                Value::Null,
                Value::Bool(true),
                Value::Float(f64::MIN_POSITIVE),
            ],
            vec![
                Value::Date(Date::from_ymd(1899, 3, 31).unwrap()),
                Value::Str("multi\nline\\slash".into()),
                Value::Int(i64::MIN),
            ],
        ];
        for row in &rows {
            let decoded = decode_row(&encode_row(row)).unwrap();
            assert_eq!(decoded.len(), row.len());
            for (a, b) in row.iter().zip(&decoded) {
                // Value::eq treats Int(7) == Float(7.0); compare debug
                // renderings to check the exact variant and bits survive.
                assert_eq!(format!("{a:?}"), format!("{b:?}"));
            }
        }
        assert!(decode_row(&[5, 0]).is_err(), "truncated cell");
        assert!(decode_row(&[1, 0, 9]).is_err(), "unknown tag");
    }

    #[test]
    fn fresh_store_roundtrips_a_catalog() {
        let dir = temp_store("roundtrip");
        {
            let mut store = PagedStore::open(&dir, StorageConfig::default()).unwrap();
            assert!(store.is_empty());
            store.sync(&sample_catalog()).unwrap();
            assert!(!store.is_empty());
        } // dropped without checkpoint: WAL carries the commit
        let mut store = PagedStore::open(&dir, StorageConfig::default()).unwrap();
        assert_eq!(store.stats().recoveries, 1);
        let catalog = store.load_catalog().unwrap();
        let t = catalog.table("T").unwrap();
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.rows()[0][1], Value::Str("tab\there".into()));
        match &t.rows()[1][2] {
            Value::Float(f) => assert_eq!(f.to_bits(), (-0.0f64).to_bits()),
            other => panic!("{other:?}"),
        }
        assert_eq!(catalog.sequence_states(), vec![("ids".into(), 10, 3)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unchanged_catalog_sync_is_a_noop() {
        let dir = temp_store("noop");
        let mut store = PagedStore::open(&dir, StorageConfig::default()).unwrap();
        let catalog = sample_catalog();
        store.sync(&catalog).unwrap();
        let before = store.stats();
        store.sync(&catalog).unwrap();
        store.sync(&catalog).unwrap();
        let after = store.stats();
        assert_eq!(before.wal_appends, after.wal_appends);
        assert_eq!(before.page_writes, after.page_writes);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dropped_tables_free_their_pages_for_reuse() {
        let dir = temp_store("free");
        let mut store = PagedStore::open(&dir, StorageConfig::default()).unwrap();
        let mut catalog = sample_catalog();
        store.sync(&catalog).unwrap();
        let grown = store.pager.page_count();
        catalog.drop_table("t", false).unwrap();
        store.sync(&catalog).unwrap();
        // Recreate a similar table: its chain reuses the freed ids, so
        // the heap does not grow.
        let mut t = Table::new("t", Schema::new(vec![Column::new("a", DataType::Int)]));
        t.insert(row![42]).unwrap();
        catalog.create_table(t).unwrap();
        store.sync(&catalog).unwrap();
        assert_eq!(store.pager.page_count(), grown, "freed pages were reused");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_fault_poisons_then_reopen_recovers_committed_only() {
        let dir = temp_store("fault");
        let mut catalog = sample_catalog();
        {
            let mut store = PagedStore::open(&dir, StorageConfig::default()).unwrap();
            store.sync(&catalog).unwrap(); // committed
            store.set_fault(Some(WalFault {
                kind: WalFaultKind::Fsync,
                at: store.stats().wal_fsyncs,
            }));
            catalog
                .table_mut("t")
                .unwrap()
                .insert(row![
                    9,
                    "uncommitted",
                    0.0,
                    Date::from_ymd(2000, 1, 1).unwrap(),
                    false
                ])
                .unwrap();
            assert!(store.sync(&catalog).is_err(), "fsync fault fires");
            assert!(store.sync(&catalog).is_err(), "store is poisoned");
            assert!(store.checkpoint().is_err(), "checkpoint refused too");
        }
        let mut store = PagedStore::open(&dir, StorageConfig::default()).unwrap();
        let recovered = store.load_catalog().unwrap();
        assert_eq!(
            recovered.table("t").unwrap().row_count(),
            2,
            "committed rows present, uncommitted row absent"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tiny_cache_budget_still_roundtrips() {
        let dir = temp_store("tiny");
        let cfg = StorageConfig {
            cache_pages: 1,
            checkpoint_bytes: 4096,
        };
        {
            let mut store = PagedStore::open(&dir, cfg).unwrap();
            let mut catalog = Catalog::new();
            let mut t = Table::new("big", Schema::new(vec![Column::new("s", DataType::Str)]));
            for i in 0..2000 {
                t.insert(vec![Value::Str(format!("row-{i}-{}", "x".repeat(40)))])
                    .unwrap();
            }
            catalog.create_table(t).unwrap();
            store.sync(&catalog).unwrap();
            assert!(store.stats().cache_evictions > 0, "budget forced spills");
            store.checkpoint().unwrap();
        }
        let mut store = PagedStore::open(&dir, cfg).unwrap();
        let catalog = store.load_catalog().unwrap();
        let t = catalog.table("big").unwrap();
        assert_eq!(t.row_count(), 2000);
        assert_eq!(
            t.rows()[1999][0],
            Value::Str(format!("row-1999-{}", "x".repeat(40)))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
