//! The closed-loop client shared by every workload: timed operations,
//! their accounting, and — in a traced run — the traced copy next to the
//! engine with the per-layer numbers it collects.
//!
//! An untraced run times `MineRuleEngine::execute`, `Database::execute`,
//! `Database::query` and `decoupled::run_decoupled` on one database. A
//! traced run keeps a second, identical database (the shadow): every
//! operation runs on both, the engine's way on the first and the traced
//! way on the shadow, and the two must agree.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use minerule::decoupled::{run_decoupled, FlatRule};
use minerule::{DecodedRule, MineRuleEngine};
use relational::{Database, ExecStats, ResultSet};

use crate::calibrate::Calibration;
use crate::data::LoadTimes;
use crate::report::{ms, Report};
use crate::trace::{self, CacheCounts, Layers, TracedEngine, STEP_IDS};

/// WAL frame sizes (`relational::storage::wal`): a page record carries a
/// 4 KiB image behind an 8-byte frame header and a 17-byte payload
/// header; begin and commit records are 17 bytes in all. Every commit
/// fsyncs once and logs one begin and one commit record.
const PAGE_SIZE: u64 = 4096;
const WAL_PAGE_FRAME: u64 = 8 + 1 + 8 + 8 + PAGE_SIZE;
const WAL_MARK_FRAME: u64 = 8 + 1 + 8;

/// The `Database::stats()` counters the traced run reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct SqlCounters {
    pub scanned: u64,
    pub filtered: u64,
    pub joined: u64,
    pub index_built: u64,
    pub index_hits: u64,
    pub vector_rows: u64,
    pub vector_fallback: u64,
    pub est_rows_err: u64,
    pub page_reads: u64,
    pub page_writes: u64,
    pub cache_hits: u64,
    pub cache_evictions: u64,
    pub wal_appends: u64,
    pub wal_fsyncs: u64,
}

impl SqlCounters {
    fn of(s: &ExecStats) -> SqlCounters {
        SqlCounters {
            scanned: s.rows_scanned,
            filtered: s.rows_filtered,
            joined: s.rows_joined,
            index_built: s.indexes_built,
            index_hits: s.index_hits,
            vector_rows: s.vector_rows,
            vector_fallback: s.vector_fallback_batches,
            est_rows_err: s.planner_est_rows_err,
            page_reads: s.storage_page_reads,
            page_writes: s.storage_page_writes,
            cache_hits: s.storage_cache_hits,
            cache_evictions: s.storage_cache_evictions,
            wal_appends: s.storage_wal_appends,
            wal_fsyncs: s.storage_wal_fsyncs,
        }
    }

    /// Field-wise `after − before`, accumulated into `self`.
    fn add_delta(&mut self, before: &ExecStats, after: &ExecStats) {
        let (b, a) = (SqlCounters::of(before), SqlCounters::of(after));
        self.scanned += a.scanned.saturating_sub(b.scanned);
        self.filtered += a.filtered.saturating_sub(b.filtered);
        self.joined += a.joined.saturating_sub(b.joined);
        self.index_built += a.index_built.saturating_sub(b.index_built);
        self.index_hits += a.index_hits.saturating_sub(b.index_hits);
        self.vector_rows += a.vector_rows.saturating_sub(b.vector_rows);
        self.vector_fallback += a.vector_fallback.saturating_sub(b.vector_fallback);
        self.est_rows_err += a.est_rows_err.saturating_sub(b.est_rows_err);
        self.page_reads += a.page_reads.saturating_sub(b.page_reads);
        self.page_writes += a.page_writes.saturating_sub(b.page_writes);
        self.cache_hits += a.cache_hits.saturating_sub(b.cache_hits);
        self.cache_evictions += a.cache_evictions.saturating_sub(b.cache_evictions);
        self.wal_appends += a.wal_appends.saturating_sub(b.wal_appends);
        self.wal_fsyncs += a.wal_fsyncs.saturating_sub(b.wal_fsyncs);
    }

    /// Bytes the storage layer wrote: WAL frames plus heap pages.
    fn bytes_written(&self) -> u64 {
        let marks = 2 * self.wal_fsyncs;
        self.wal_appends.saturating_sub(marks) * WAL_PAGE_FRAME
            + marks * WAL_MARK_FRAME
            + self.page_writes * PAGE_SIZE
    }
}

/// Everything a traced run collects besides the per-layer spans.
#[derive(Debug, Default)]
pub struct Tracer {
    pub layers: Layers,
    /// Cache outcomes the engines counted, summed over every engine.
    pub engine_counts: CacheCounts,
    /// Engine (untraced) and traced-copy time over the same statements.
    pub engine_time: Duration,
    pub traced_time: Duration,
    /// Operations that ran on the traced side.
    pub ops: u64,
    /// `Database::stats()` deltas over every traced operation.
    pub all: SqlCounters,
    /// Deltas over SELECTs, and their result rows.
    pub selects: SqlCounters,
    pub select_rows: u64,
    /// Time and count per SELECT shape.
    pub shapes: BTreeMap<&'static str, (Duration, u64)>,
    /// Deltas over one-row writes, their count and user bytes.
    pub writes: SqlCounters,
    pub write_count: u64,
    pub write_user_bytes: u64,
}

/// One operation's latency in ms: as measured, and scaled to the
/// reference host speed (see `calibrate`; equal to `wall` when traced).
#[derive(Debug, Clone, Copy)]
pub struct Latency {
    pub wall: f64,
    pub scaled: f64,
}

impl Latency {
    fn new(elapsed: Duration, scale: f64) -> Latency {
        Latency {
            wall: ms(elapsed),
            scaled: ms(elapsed) * scale,
        }
    }
}

/// The client: accounting plus the optional tracer.
#[derive(Debug, Default)]
pub struct Bench {
    pub report: Report,
    pub tracer: Option<Tracer>,
    /// Scales untraced latencies to the reference host speed; traced
    /// runs report raw wall time.
    calibration: Option<Calibration>,
}

impl Bench {
    pub fn new(trace: bool) -> Bench {
        Bench {
            report: Report::default(),
            tracer: trace.then(Tracer::default),
            calibration: (!trace).then(Calibration::default),
        }
    }

    /// The factor that scales the next operation's wall time (1 when
    /// traced).
    fn scale(&mut self) -> f64 {
        self.calibration.as_mut().map_or(1.0, Calibration::scale)
    }

    /// One MINE RULE statement. Returns its latency and its rules; `None`
    /// when it failed (counted, never fatal).
    pub fn mine(
        &mut self,
        engine: &MineRuleEngine,
        copy: &TracedEngine,
        db: &mut Database,
        shadow: Option<&mut Database>,
        text: &str,
    ) -> Option<(Latency, Vec<DecodedRule>)> {
        let scale = self.scale();
        let t = Instant::now();
        let outcome = engine.execute(db, text);
        let elapsed = t.elapsed();
        let rules = self.report.record("MINE RULE", outcome)?.rules;
        if let (Some(tracer), Some(shadow)) = (self.tracer.as_mut(), shadow) {
            tracer.engine_time += elapsed;
            let before = shadow.stats();
            let t = Instant::now();
            let traced = copy.execute(shadow, text, &mut tracer.layers);
            tracer.traced_time += t.elapsed();
            tracer.all.add_delta(&before, &shadow.stats());
            tracer.ops += 1;
            let agree = matches!(&traced, Ok(r) if trace::same_rules(r, &rules));
            self.report.check(agree, || {
                format!("traced copy disagrees with MineRuleEngine::execute on `{text}`")
            });
        }
        Some((Latency::new(elapsed, scale), rules))
    }

    /// Fold a finished engine's cache counters into the traced run's
    /// copy-agreement tally (a no-op when untraced).
    pub fn retire_engine(&mut self, engine: &MineRuleEngine) {
        if let Some(tracer) = self.tracer.as_mut() {
            tracer.engine_counts.add(CacheCounts::of_engine(engine));
        }
    }

    /// The decoupled flow on the same statement. Returns its latency and
    /// the flat rules.
    pub fn decoupled(
        &mut self,
        db: &mut Database,
        shadow: Option<&mut Database>,
        query: &str,
        support: f64,
        confidence: f64,
        table: &str,
    ) -> Option<(Latency, Vec<FlatRule>)> {
        let scale = self.scale();
        let t = Instant::now();
        let outcome = run_decoupled(db, query, support, confidence, table);
        let elapsed = t.elapsed();
        let rules = self.report.record("decoupled flow", outcome)?;
        if let (Some(tracer), Some(shadow)) = (self.tracer.as_mut(), shadow) {
            let before = shadow.stats();
            let traced = trace::decoupled(
                shadow,
                query,
                support,
                confidence,
                table,
                &mut tracer.layers,
            );
            tracer.all.add_delta(&before, &shadow.stats());
            tracer.ops += 1;
            self.report
                .check(matches!(&traced, Ok(r) if *r == rules), || {
                    "traced decoupled copy disagrees with decoupled::run_decoupled".into()
                });
        }
        Some((Latency::new(elapsed, scale), rules))
    }

    /// A one-row write through `Database::execute`. `user_bytes` is the
    /// payload of the row written (or deleted). Returns its latency and
    /// the rows it affected.
    pub fn write(
        &mut self,
        db: &mut Database,
        shadow: Option<&mut Database>,
        sql: &str,
        user_bytes: u64,
    ) -> Option<(Latency, usize)> {
        let scale = self.scale();
        let t = Instant::now();
        let outcome = db.execute(sql);
        let elapsed = t.elapsed();
        let affected = self.report.record("write", outcome)?.rows_affected;
        if let (Some(tracer), Some(shadow)) = (self.tracer.as_mut(), shadow) {
            let before = shadow.stats();
            let traced = shadow.execute(sql);
            let after = shadow.stats();
            tracer.all.add_delta(&before, &after);
            tracer.writes.add_delta(&before, &after);
            tracer.ops += 1;
            tracer.write_count += 1;
            tracer.write_user_bytes += user_bytes;
            self.report.check(
                matches!(&traced, Ok(o) if o.rows_affected == affected),
                || format!("shadow database disagrees on `{sql}`"),
            );
        }
        Some((Latency::new(elapsed, scale), affected))
    }

    /// A plain SELECT through `Database::query`, of the given shape. A
    /// traced run sends it to the shadow only, so both sides stay equal.
    pub fn query(
        &mut self,
        shape: &'static str,
        db: &mut Database,
        shadow: Option<&mut Database>,
        sql: &str,
    ) -> Option<(Latency, ResultSet)> {
        let target = match shadow {
            Some(shadow) => shadow,
            None => db,
        };
        let scale = self.scale();
        let before = target.stats();
        let t = Instant::now();
        let outcome = target.query(sql);
        let elapsed = t.elapsed();
        let after = target.stats();
        let rs = self.report.record("query", outcome)?;
        if let Some(tracer) = self.tracer.as_mut() {
            tracer.all.add_delta(&before, &after);
            tracer.selects.add_delta(&before, &after);
            tracer.select_rows += rs.len() as u64;
            tracer.ops += 1;
            let entry = tracer.shapes.entry(shape).or_default();
            entry.0 += elapsed;
            entry.1 += 1;
        }
        Some((Latency::new(elapsed, scale), rs))
    }

    /// The traced run's closing checks and every per-layer metric.
    /// `heap_ratio` is the paged heap's size over the user data it holds
    /// (paged workloads only).
    pub fn finish_trace(&mut self, load: LoadTimes, heap_ratio: Option<f64>) {
        let Some(t) = self.tracer.take() else {
            return;
        };
        let r = &mut self.report;
        r.check(t.layers.counts == t.engine_counts, || {
            format!(
                "traced copy cache outcomes {:?} differ from the engine's counters {:?}",
                t.layers.counts, t.engine_counts
            )
        });

        let l = &t.layers;
        let per = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
        let per_ms = |d: Duration, n: u64| if n == 0 { 0.0 } else { ms(d) / n as f64 };
        let s = l.statements;
        r.metric("translator.ms", per_ms(l.translator, s), "ms");
        r.metric("preprocess.ms", per_ms(l.preprocess, s), "ms");
        r.metric("preprocess.rows", per(l.preprocess_rows, s), "rows");
        r.metric("preprocess.fused_steps", per(l.fused_steps, s), "count");
        for id in STEP_IDS.iter().copied().chain(["other"]) {
            let d = l.steps.get(id).copied().unwrap_or_default();
            r.metric(format!("preprocess.step.{id}.ms"), per_ms(d, s), "ms");
        }
        r.metric("cache.restore.ms", per_ms(l.cache_restore, s), "ms");
        r.metric("cache.store.ms", per_ms(l.cache_store, s), "ms");
        r.metric("cache.hits", per(l.counts.pre_hit, s), "count");
        r.metric("cache.misses", per(l.counts.pre_miss, s), "count");
        r.metric("cache.bytes", l.cache_bytes as f64, "bytes");
        r.metric("minecache.serve.ms", per_ms(l.mc_serve, s), "ms");
        r.metric("minecache.store.ms", per_ms(l.mc_store, s), "ms");
        r.metric("minecache.hit", per(l.counts.mc_hit, s), "count");
        r.metric("minecache.refine", per(l.counts.mc_refine, s), "count");
        r.metric("minecache.delta", per(l.counts.mc_delta, s), "count");
        r.metric("minecache.miss", per(l.counts.mc_miss, s), "count");
        r.metric("minecache.bytes", l.mc_bytes as f64, "bytes");
        r.metric("encoded.read.ms", per_ms(l.encoded_read, s), "ms");
        r.metric("encoded.groups", per(l.encoded_groups, s), "count");
        r.metric("core_op.ms", per_ms(l.core, s), "ms");
        r.metric("core_op.shard_busy.ms", per_ms(l.shard_busy, s), "ms");
        r.metric("core_op.candidates", per(l.candidates, s), "count");
        r.metric("core_op.large_itemsets", per(l.large, s), "count");
        r.metric("core_op.useful_ratio", per(l.large, l.candidates), "ratio");
        r.metric("postprocess.store.ms", per_ms(l.pp_store, s), "ms");
        r.metric("postprocess.decode.ms", per_ms(l.pp_decode, s), "ms");
        r.metric("postprocess.read.ms", per_ms(l.pp_read, s), "ms");
        r.metric("postprocess.rules", per(l.rules, s), "count");
        let d = l.decoupled_runs;
        r.metric("decoupled.export.ms", per_ms(l.dec_export, d), "ms");
        r.metric("decoupled.mine.ms", per_ms(l.dec_mine, d), "ms");
        r.metric("decoupled.import.ms", per_ms(l.dec_import, d), "ms");
        r.metric("decoupled.file.ms", per_ms(l.dec_file, d), "ms");

        for shape in crate::workloads::QUERY_SHAPES {
            let (d, n) = t.shapes.get(shape).copied().unwrap_or_default();
            r.metric(format!("relational.query.{shape}.ms"), per_ms(d, n), "ms");
        }
        let (a, ops) = (&t.all, t.ops);
        r.metric("relational.rows.scanned", per(a.scanned, ops), "rows");
        r.metric("relational.rows.filtered", per(a.filtered, ops), "rows");
        r.metric("relational.rows.joined", per(a.joined, ops), "rows");
        r.metric("relational.index.built", per(a.index_built, ops), "count");
        r.metric("relational.index.hits", per(a.index_hits, ops), "count");
        r.metric("relational.vector.rows", per(a.vector_rows, ops), "rows");
        r.metric(
            "relational.vector.fallback_batches",
            per(a.vector_fallback, ops),
            "count",
        );
        r.metric(
            "relational.planner.est_rows_err",
            per(a.est_rows_err, ops),
            "rows",
        );
        r.metric(
            "relational.rows_scanned_per_result",
            per(t.selects.scanned, t.select_rows),
            "ratio",
        );

        let (w, n) = (&t.writes, t.write_count);
        r.metric(
            "storage.wal_appends_per_write",
            per(w.wal_appends, n),
            "count",
        );
        r.metric(
            "storage.wal_fsyncs_per_write",
            per(w.wal_fsyncs, n),
            "count",
        );
        r.metric(
            "storage.page_writes_per_write",
            per(w.page_writes, n),
            "count",
        );
        r.metric("storage.page_reads", per(a.page_reads, ops), "count");
        r.metric("storage.cache_hits", per(a.cache_hits, ops), "count");
        r.metric(
            "storage.cache_evictions",
            per(a.cache_evictions, ops),
            "count",
        );
        r.metric(
            "storage.bytes_written_per_user_byte",
            per(w.bytes_written(), t.write_user_bytes),
            "ratio",
        );
        r.metric(
            "storage.heap_bytes_per_user_byte",
            heap_ratio.unwrap_or(0.0),
            "ratio",
        );

        r.metric("datagen.generate.ms", ms(load.generate), "ms");
        r.metric("datagen.load.ms", ms(load.load), "ms");
        let overhead = if t.engine_time.is_zero() {
            0.0
        } else {
            t.traced_time.as_secs_f64() / t.engine_time.as_secs_f64() - 1.0
        };
        r.metric("trace.overhead_frac", overhead, "ratio");
        r.metric("trace.unattributed.ms", per_ms(l.unattributed, s), "ms");
        r.metric("trace.stmt.ms", per_ms(l.total, s), "ms");
    }
}
