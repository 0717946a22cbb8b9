//! The end-to-end mining pipeline: the kernel of Figure 3a.
//!
//! [`MineRuleEngine::execute`] runs translator → preprocessor → core
//! operator → postprocessor against a [`relational::Database`], exactly
//! mirroring the process flow of the paper's architecture, and returns a
//! [`MiningOutcome`] with the decoded rules and a per-phase breakdown.
//!
//! Every run reports through the engine's [`Telemetry`] registry: phase
//! spans (`phase.*` histograms), translator directive counters,
//! preprocessor row counts per `Qi` step, core-operator work counters
//! and postprocessor row counts — see `docs/OBSERVABILITY.md` for the
//! full metric inventory. [`PhaseTimings`] is a per-run view derived
//! from the same spans, kept for its established accessors.

use std::time::Duration;

use relational::{
    Database, ExecMode, ExecStats, IndexPolicy, PlannerMode, SqlExec, StorageBackend,
};

use crate::cache::PreprocessCache;
use crate::core_op::{run_core_with_telemetry, CoreOptions, CoreOutput};
use crate::encoded::{handed_over, read_encoded, SimpleGroups};
use crate::error::{MineError, Result};
use crate::minecache::{CaptureSource, MineResultCache, ServeKind};
use crate::parser::parse_mine_rule;
use crate::postprocess::{postprocess, read_rules, store_encoded_rules, DecodedRule};
use crate::preprocess::{preprocess_with_handoff, PreprocessReport, SourceSlots};
use crate::telemetry::{MetricsSnapshot, Telemetry};
use crate::translator::{translate_with_prefix, Translation};

/// Wall-clock breakdown of one mining run.
#[derive(Debug, Clone, Default)]
pub struct PhaseTimings {
    pub translate: Duration,
    pub preprocess: Duration,
    pub core: Duration,
    pub postprocess: Duration,
    /// Per-shard wall-clock of the core's mining executor (simple path
    /// with `workers > 0`; empty on the general path). One entry per
    /// shard of each sharded pass, in pass order.
    pub core_shards: Vec<Duration>,
}

impl PhaseTimings {
    /// Total time across phases.
    pub fn total(&self) -> Duration {
        self.translate + self.preprocess + self.core + self.postprocess
    }

    /// Busy time summed across executor shards — compares against
    /// [`PhaseTimings::core`] to show the parallel win (core wall-clock
    /// below summed shard time means shards overlapped).
    pub fn core_shard_busy(&self) -> Duration {
        self.core_shards.iter().sum()
    }
}

/// Everything a mining run produces.
#[derive(Debug, Clone)]
pub struct MiningOutcome {
    /// Decoded rules, sorted by (body, head).
    pub rules: Vec<DecodedRule>,
    /// The translation that drove the run.
    pub translation: Translation,
    /// Preprocessing row counts and thresholds.
    pub preprocess_report: PreprocessReport,
    /// Whether the general core path ran.
    pub used_general: bool,
    /// Per-phase wall-clock times.
    pub timings: PhaseTimings,
}

/// The mining engine: core-operator options plus encoded-table naming.
#[derive(Debug, Clone)]
pub struct MineRuleEngine {
    /// Core-operator configuration (algorithm choice, lattice order).
    pub core: CoreOptions,
    /// Prefix for the encoded tables (lets several statements share one
    /// catalog, and enables preprocessing reuse).
    pub table_prefix: String,
    /// How the SQL server evaluates expressions for this engine's runs
    /// (`compiled` by default). Both choices produce bit-identical rules
    /// and preprocessing reports; this is a perf/debugging knob, enforced
    /// by `tests/sqlexec_agreement.rs`.
    pub sqlexec: SqlExec,
    /// How the SQL server executes its hot sites for this engine's runs
    /// (`auto` — the default — runs a site batch-at-a-time when every
    /// program it evaluates is vector-safe). Every choice produces
    /// bit-identical rules and row orders; this is a perf/debugging
    /// knob, enforced by `tests/vector_agreement.rs`.
    pub exec: ExecMode,
    /// The storage backend the database is switched to before each run
    /// (`None` — the default — leaves the database on whatever backend
    /// it already uses). Memory and paged mine bit-identical rules; the
    /// paged backend adds durability (enforced by
    /// `tests/persist_roundtrip.rs`). Switching to `paged` requires the
    /// database to have a storage directory configured
    /// ([`relational::Database::set_storage_dir`]).
    pub storage: Option<StorageBackend>,
    /// How the SQL server plans queries for this engine's runs (`cost` —
    /// the default — chooses join order, build sides and access paths
    /// from catalog statistics, and lets the preprocessor fuse the
    /// simple-class `Qi` program into one pipelined pass). `naive` keeps
    /// written order and materialises every step. Both modes mine
    /// bit-identical rules (enforced by `tests/planner_agreement.rs`).
    pub planner: PlannerMode,
    /// The metrics registry every run reports into. Enabled by default;
    /// clones of the engine share the same registry. Disabling it
    /// changes no mined output (enforced by `tests/telemetry.rs`).
    telemetry: Telemetry,
    /// The preprocess artifact cache. Enabled by default; clones of the
    /// engine share the same store. Disabling it changes no mined output
    /// (enforced by `tests/cache_agreement.rs`).
    preprocache: PreprocessCache,
    /// The mined-result cache: frequent-itemset inventories keyed like
    /// the preprocess cache, serving tightened-threshold reruns and
    /// small source deltas without running the core operator. Enabled by
    /// default; clones share the same store. On/off mines bit-identical
    /// rules (enforced by `tests/cache_agreement.rs`).
    minecache: MineResultCache,
}

impl Default for MineRuleEngine {
    fn default() -> Self {
        MineRuleEngine {
            core: CoreOptions::default(),
            table_prefix: String::new(),
            sqlexec: SqlExec::default(),
            exec: ExecMode::default(),
            storage: None,
            planner: PlannerMode::default(),
            telemetry: Telemetry::new(),
            preprocache: PreprocessCache::new(),
            minecache: MineResultCache::new(),
        }
    }
}

impl MineRuleEngine {
    /// An engine with default options.
    pub fn new() -> MineRuleEngine {
        MineRuleEngine::default()
    }

    /// Select the simple-class mining algorithm by pool name
    /// (`"apriori"`, `"count"`, `"dhp"`, `"partition"`, `"sampling"`).
    pub fn with_algorithm(mut self, name: &str) -> MineRuleEngine {
        self.core.algorithm = name.to_string();
        self
    }

    /// Use a table prefix for all encoded tables.
    pub fn with_prefix(mut self, prefix: &str) -> MineRuleEngine {
        self.table_prefix = prefix.to_string();
        self
    }

    /// Run the core operator's mining executor with `workers` threads.
    /// The mined rule set is identical for every valid value; only
    /// wall-clock changes. A count of 0 is rejected when the statement
    /// runs ([`crate::MineError::InvalidWorkerCount`]).
    pub fn with_workers(mut self, workers: usize) -> MineRuleEngine {
        self.core.workers = workers;
        self
    }

    /// Pin the SQL server's expression execution mode for every run of
    /// this engine (`compiled` by default).
    /// Every choice mines the same rules; this is a perf/debugging knob.
    pub fn with_sqlexec(mut self, mode: SqlExec) -> MineRuleEngine {
        self.sqlexec = mode;
        self
    }

    /// Pin the SQL server's batch execution mode for every run of this
    /// engine (`auto` — the default — vectorizes each hot site whose
    /// programs are all vector-safe). Every choice mines the same rules;
    /// this is a perf/debugging knob.
    pub fn with_exec(mut self, mode: ExecMode) -> MineRuleEngine {
        self.exec = mode;
        self
    }

    /// Switch the database to the given storage backend before each run
    /// of this engine. Both backends mine bit-identical rules; `paged`
    /// adds crash-safe durability and needs a storage directory on the
    /// database ([`relational::Database::set_storage_dir`]).
    pub fn with_storage(mut self, backend: StorageBackend) -> MineRuleEngine {
        self.storage = Some(backend);
        self
    }

    /// Pin the SQL server's planner mode for every run of this engine
    /// (`cost` — the default — plans from catalog statistics and fuses
    /// the simple-class preprocess program). Every choice mines the same
    /// rules; this is a perf/debugging knob.
    pub fn with_planner(mut self, mode: PlannerMode) -> MineRuleEngine {
        self.planner = mode;
        self
    }

    /// Turn the preprocess artifact cache on (a fresh store) or off. The
    /// cache skips `Q0`..`Q8` when a statement reruns with only changed
    /// EXTRACTING thresholds over unmodified source tables; on/off mines
    /// bit-identical rules (enforced by `tests/cache_agreement.rs`).
    pub fn with_preprocache(mut self, enabled: bool) -> MineRuleEngine {
        self.set_preprocache_enabled(enabled);
        self
    }

    /// Turn the preprocess artifact cache on (a fresh store) or off.
    pub fn set_preprocache_enabled(&mut self, enabled: bool) {
        if enabled != self.preprocache.is_enabled() {
            self.preprocache = if enabled {
                PreprocessCache::new()
            } else {
                PreprocessCache::disabled()
            };
        }
    }

    /// Whether runs currently consult the preprocess artifact cache.
    pub fn preprocache_enabled(&self) -> bool {
        self.preprocache.is_enabled()
    }

    /// Turn the mined-result cache on (a fresh store) or off. The cache
    /// answers reruns of a statement with tightened thresholds — and
    /// reruns after small INSERT/DELETE deltas on the source table —
    /// without running the core operator; on/off mines bit-identical
    /// rules (enforced by `tests/cache_agreement.rs`).
    pub fn with_minecache(mut self, enabled: bool) -> MineRuleEngine {
        self.set_minecache_enabled(enabled);
        self
    }

    /// Turn the mined-result cache on (a fresh store) or off.
    pub fn set_minecache_enabled(&mut self, enabled: bool) {
        if enabled != self.minecache.is_enabled() {
            self.minecache = if enabled {
                MineResultCache::new()
            } else {
                MineResultCache::disabled()
            };
        }
    }

    /// Whether runs currently consult the mined-result cache.
    pub fn minecache_enabled(&self) -> bool {
        self.minecache.is_enabled()
    }

    /// The engine's mined-result cache (clones share its store).
    #[cfg(test)]
    pub(crate) fn minecache(&self) -> &MineResultCache {
        &self.minecache
    }

    /// Report runs into the given telemetry registry (replaces the
    /// engine's own). Useful to share one registry across engines.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> MineRuleEngine {
        self.telemetry = telemetry;
        self
    }

    /// Turn metric recording on (a fresh registry) or off.
    pub fn set_telemetry_enabled(&mut self, enabled: bool) {
        if enabled != self.telemetry.is_enabled() {
            self.telemetry = if enabled {
                Telemetry::new()
            } else {
                Telemetry::disabled()
            };
        }
    }

    /// Whether runs currently record metrics.
    pub fn telemetry_enabled(&self) -> bool {
        self.telemetry.is_enabled()
    }

    /// The engine's telemetry handle (cloning it shares the registry).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// A point-in-time copy of every metric recorded so far.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.telemetry.snapshot()
    }

    /// Clear all recorded metrics.
    pub fn reset_metrics(&self) {
        self.telemetry.reset();
    }

    /// Parse and execute a MINE RULE statement end to end.
    pub fn execute(&self, db: &mut Database, text: &str) -> Result<MiningOutcome> {
        self.telemetry.counter_inc("translator.statements");
        db.set_sqlexec(self.sqlexec);
        db.set_exec(self.exec);
        db.set_planner(self.planner);
        if let Some(backend) = self.storage {
            db.set_storage(backend)?;
        }
        let sql_before = db.stats();
        let stmt = parse_mine_rule(text)?;

        let span = self.telemetry.span("phase.translate");
        let translation = translate_with_prefix(&stmt, db.catalog(), &self.table_prefix)?;
        let translate_time = span.stop();
        self.record_translation(&translation);

        let span = self.telemetry.span("phase.preprocess");
        let (preprocess_report, handoff) = self.run_preprocess(db, &translation)?;
        let preprocess_time = span.stop();
        self.record_preprocess(&preprocess_report);

        self.finish(
            db,
            translation,
            (preprocess_report, handoff),
            translate_time,
            preprocess_time,
            sql_before,
        )
    }

    /// Run preprocessing through the artifact cache: a hit reinstates the
    /// cached encoded tables (no `Qi` step executes); a miss runs the
    /// full program and captures the artifacts for the next run. With the
    /// cache disabled this is exactly [`crate::preprocess::preprocess`].
    /// A fused pass also hands over the simple-class groups and slots it
    /// built.
    fn run_preprocess(
        &self,
        db: &mut Database,
        translation: &Translation,
    ) -> Result<(PreprocessReport, Option<(SimpleGroups, SourceSlots)>)> {
        if !self.preprocache.is_enabled() {
            return preprocess_with_handoff(db, translation);
        }
        if let Some(report) = self
            .preprocache
            .try_restore(db, translation, &self.table_prefix)?
        {
            self.telemetry.counter_inc("preprocess.cache.hit");
            return Ok((report, None));
        }
        self.telemetry.counter_inc("preprocess.cache.miss");
        let (report, handoff) = preprocess_with_handoff(db, translation)?;
        let stored = self
            .preprocache
            .store(db, translation, &self.table_prefix, &report);
        if stored.evicted > 0 {
            self.telemetry
                .counter_add("preprocess.cache.evict", stored.evicted);
        }
        self.telemetry
            .gauge_set("preprocess.cache.bytes", stored.bytes as i64);
        Ok((report, handoff))
    }

    /// Count the translation's directive classification
    /// (`translator.*` metrics).
    fn record_translation(&self, translation: &Translation) {
        if !self.telemetry.is_enabled() {
            return;
        }
        self.telemetry
            .counter_inc(&format!("translator.class.{}", translation.class));
        let d = &translation.directives;
        for (flag, set) in [
            ("h", d.h),
            ("w", d.w),
            ("m", d.m),
            ("g", d.g),
            ("c", d.c),
            ("k", d.k),
            ("f", d.f),
            ("r", d.r),
        ] {
            if set {
                self.telemetry
                    .counter_inc(&format!("translator.directive.{flag}"));
            }
        }
    }

    /// Count rows materialised per `Qi` step (`preprocess.*` metrics).
    fn record_preprocess(&self, report: &PreprocessReport) {
        if !self.telemetry.is_enabled() {
            return;
        }
        self.telemetry
            .counter_add("preprocess.steps", report.executed.len() as u64);
        if report.fused_steps > 0 {
            self.telemetry
                .counter_add("preprocess.fused_steps", report.fused_steps as u64);
        }
        for (id, rows) in &report.executed {
            self.telemetry
                .counter_add(&format!("preprocess.rows.{id}"), *rows as u64);
        }
        self.telemetry
            .gauge_set("preprocess.total_groups", report.total_groups as i64);
        self.telemetry
            .gauge_set("preprocess.min_groups", report.min_groups as i64);
    }

    /// Execute against *already materialised* encoded tables (the shared
    /// preprocessing of §3: "the same preprocessing could be in common to
    /// the execution of several data mining queries"). The caller must
    /// have run [`MineRuleEngine::execute`] for an identical statement
    /// shape first; only core + postprocessing run here.
    pub fn execute_reusing_preprocessing(
        &self,
        db: &mut Database,
        text: &str,
    ) -> Result<MiningOutcome> {
        self.telemetry.counter_inc("translator.statements");
        self.telemetry.counter_inc("preprocess.reused");
        db.set_sqlexec(self.sqlexec);
        db.set_exec(self.exec);
        db.set_planner(self.planner);
        if let Some(backend) = self.storage {
            db.set_storage(backend)?;
        }
        let sql_before = db.stats();
        let stmt = parse_mine_rule(text)?;
        let span = self.telemetry.span("phase.translate");
        let translation = translate_with_prefix(&stmt, db.catalog(), &self.table_prefix)?;
        let translate_time = span.stop();
        self.record_translation(&translation);

        // Drop only the output-side tables so the decode joins can rerun.
        let out = &translation.stmt.output_table;
        for table in [
            translation.names.output_rules(),
            translation.names.output_bodies(),
            translation.names.output_heads(),
            out.clone(),
            format!("{out}_Bodies"),
            format!("{out}_Heads"),
        ] {
            db.execute(&format!("DROP TABLE IF EXISTS {table}"))?;
        }

        self.finish(
            db,
            translation,
            (PreprocessReport::default(), None),
            translate_time,
            Duration::ZERO,
            sql_before,
        )
    }

    /// Publish the SQL server's execution-counter deltas for one run
    /// (`relational.*` metrics). Zero deltas are skipped so interpreted
    /// runs don't mint empty `relational.compile.*` counters and
    /// memory-backend runs don't mint `relational.storage.*` ones; every
    /// published value is independent of the core's worker count because
    /// the relational layer runs single-threaded.
    fn record_relational(&self, before: ExecStats, after: ExecStats) {
        if !self.telemetry.is_enabled() {
            return;
        }
        for (name, before, after) in [
            (
                "relational.compile.programs",
                before.programs_compiled,
                after.programs_compiled,
            ),
            (
                "relational.compile.const_folded",
                before.exprs_const_folded,
                after.exprs_const_folded,
            ),
            (
                "relational.compile.fallback_ops",
                before.compile_fallback_ops,
                after.compile_fallback_ops,
            ),
            (
                "relational.rows.scanned",
                before.rows_scanned,
                after.rows_scanned,
            ),
            (
                "relational.rows.filtered",
                before.rows_filtered,
                after.rows_filtered,
            ),
            (
                "relational.rows.joined",
                before.rows_joined,
                after.rows_joined,
            ),
            (
                "relational.index.built",
                before.indexes_built,
                after.indexes_built,
            ),
            ("relational.index.hits", before.index_hits, after.index_hits),
            (
                "relational.index.invalidations",
                before.index_invalidations,
                after.index_invalidations,
            ),
            (
                "relational.storage.page_reads",
                before.storage_page_reads,
                after.storage_page_reads,
            ),
            (
                "relational.storage.page_writes",
                before.storage_page_writes,
                after.storage_page_writes,
            ),
            (
                "relational.storage.cache_hits",
                before.storage_cache_hits,
                after.storage_cache_hits,
            ),
            (
                "relational.storage.cache_evictions",
                before.storage_cache_evictions,
                after.storage_cache_evictions,
            ),
            (
                "relational.storage.wal_appends",
                before.storage_wal_appends,
                after.storage_wal_appends,
            ),
            (
                "relational.storage.wal_fsyncs",
                before.storage_wal_fsyncs,
                after.storage_wal_fsyncs,
            ),
            (
                "relational.storage.recoveries",
                before.storage_recoveries,
                after.storage_recoveries,
            ),
            (
                "relational.planner.plans",
                before.planner_plans,
                after.planner_plans,
            ),
            (
                "relational.planner.reordered_joins",
                before.planner_reordered_joins,
                after.planner_reordered_joins,
            ),
            (
                "relational.planner.pushed_filters",
                before.planner_pushed_filters,
                after.planner_pushed_filters,
            ),
            (
                "relational.planner.est_rows_err",
                before.planner_est_rows_err,
                after.planner_est_rows_err,
            ),
            (
                "relational.vector.batches",
                before.vector_batches,
                after.vector_batches,
            ),
            (
                "relational.vector.rows",
                before.vector_rows,
                after.vector_rows,
            ),
            (
                "relational.vector.sel_narrowings",
                before.vector_sel_narrowings,
                after.vector_sel_narrowings,
            ),
            (
                "relational.vector.fallback_batches",
                before.vector_fallback_batches,
                after.vector_fallback_batches,
            ),
        ] {
            let delta = after.saturating_sub(before);
            if delta > 0 {
                self.telemetry.counter_add(name, delta);
            }
        }
    }

    fn finish(
        &self,
        db: &mut Database,
        translation: Translation,
        (preprocess_report, handoff): (PreprocessReport, Option<(SimpleGroups, SourceSlots)>),
        translate_time: Duration,
        preprocess_time: Duration,
        sql_before: ExecStats,
    ) -> Result<MiningOutcome> {
        let span = self.telemetry.span("phase.core");
        // A mined-result cache serve replaces the whole core phase: no
        // encoded read, no itemset mining, no `core.level.*` activity —
        // the cached inventory filtered at the current thresholds yields
        // rules bit-identical to a cold mine.
        let serve =
            self.minecache
                .try_serve(db, &translation, &self.table_prefix, &preprocess_report)?;
        let (rules, used_general, shard_timings) = match serve {
            Some(serve) => {
                self.telemetry.counter_inc("core.minecache.hit");
                match serve.kind {
                    ServeKind::Hit => {}
                    ServeKind::Refine => self.telemetry.counter_inc("core.minecache.refine"),
                    ServeKind::Delta => self.telemetry.counter_inc("core.minecache.delta"),
                }
                (serve.rules, false, Vec::new())
            }
            None => {
                if self.minecache.is_enabled() {
                    self.telemetry.counter_inc("core.minecache.miss");
                }
                // A cold fused pass handed its groups over; every other
                // path reads them back from the encoded tables. Its slots
                // wait for the mined-result cache capture.
                let (encoded, slots) = match handoff {
                    Some((groups, slots)) => {
                        self.telemetry.counter_inc("core.encoded.handoff");
                        (handed_over(db, &translation, groups)?, Some(slots))
                    }
                    None => {
                        self.telemetry.counter_inc("core.encoded.read");
                        (read_encoded(db, &translation)?, None)
                    }
                };
                let CoreOutput {
                    rules,
                    used_general,
                    shard_timings,
                    large_itemsets,
                    ..
                } = run_core_with_telemetry(&encoded, &self.core, &self.telemetry)?;
                if let Some(large) = &large_itemsets {
                    let (stored, source) = self.minecache.capture(
                        db,
                        &translation,
                        &self.table_prefix,
                        &preprocess_report,
                        large,
                        slots,
                    );
                    match source {
                        Some(CaptureSource::Handoff) => {
                            self.telemetry.counter_inc("core.minecache.capture.handoff")
                        }
                        Some(CaptureSource::Scan) => {
                            self.telemetry.counter_inc("core.minecache.capture.scan")
                        }
                        None => {}
                    }
                    if stored.evicted > 0 {
                        self.telemetry
                            .counter_add("core.minecache.evict", stored.evicted);
                    }
                    if self.minecache.is_enabled() {
                        self.telemetry
                            .gauge_set("core.minecache.bytes", stored.bytes as i64);
                    }
                }
                (rules, used_general, shard_timings)
            }
        };
        let core_time = span.stop();

        let span = self.telemetry.span("phase.postprocess");
        store_encoded_rules(db, &translation, &rules)?;
        self.telemetry
            .counter_add("postprocess.rules_stored", rules.len() as u64);
        postprocess(db, &translation)?;
        let decoded = read_rules(db, &translation)?;
        self.telemetry
            .counter_add("postprocess.rules_decoded", decoded.len() as u64);
        let postprocess_time = span.stop();
        self.record_relational(sql_before, db.stats());

        Ok(MiningOutcome {
            rules: decoded,
            translation,
            preprocess_report,
            used_general,
            timings: PhaseTimings {
                translate: translate_time,
                preprocess: preprocess_time,
                core: core_time,
                postprocess: postprocess_time,
                core_shards: shard_timings,
            },
        })
    }
}

/// Resolve a SQL execution mode by name (`"compiled"`, `"interpreted"`;
/// ASCII-case-insensitive), reporting unknown names with the
/// valid domain like [`crate::MineError::UnknownAlgorithm`] does.
pub fn parse_sqlexec(name: &str) -> Result<SqlExec> {
    SqlExec::from_name(name).ok_or_else(|| MineError::UnknownSqlExec {
        name: name.to_string(),
    })
}

/// Resolve a batch execution mode by name (`"vector"`, `"row"`,
/// `"auto"`; ASCII-case-insensitive), reporting unknown names with the
/// valid domain like [`crate::MineError::UnknownAlgorithm`] does.
pub fn parse_exec(name: &str) -> Result<ExecMode> {
    ExecMode::from_name(name).ok_or_else(|| MineError::UnknownExecMode {
        name: name.to_string(),
    })
}

/// Resolve a preprocess cache mode by name (`"on"`, `"off"`;
/// ASCII-case-insensitive), reporting unknown names with the valid domain
/// like [`crate::MineError::UnknownAlgorithm`] does.
pub fn parse_preprocache(name: &str) -> Result<bool> {
    match name.to_ascii_lowercase().as_str() {
        "on" => Ok(true),
        "off" => Ok(false),
        _ => Err(MineError::UnknownCacheMode {
            name: name.to_string(),
        }),
    }
}

/// Resolve a mined-result cache mode by name (`"on"`, `"off"`;
/// ASCII-case-insensitive), reporting unknown names with the valid domain
/// like [`crate::MineError::UnknownAlgorithm`] does.
pub fn parse_minecache(name: &str) -> Result<bool> {
    match name.to_ascii_lowercase().as_str() {
        "on" => Ok(true),
        "off" => Ok(false),
        _ => Err(MineError::UnknownMineCacheMode {
            name: name.to_string(),
        }),
    }
}

/// Resolve a relational index policy by name (`"auto"`, `"off"`;
/// ASCII-case-insensitive), reporting unknown names with the valid domain
/// like [`crate::MineError::UnknownAlgorithm`] does.
pub fn parse_index_policy(name: &str) -> Result<IndexPolicy> {
    IndexPolicy::from_name(name).ok_or_else(|| MineError::UnknownIndexPolicy {
        name: name.to_string(),
    })
}

/// Resolve a planner mode by name (`"cost"`, `"naive"`;
/// ASCII-case-insensitive), reporting unknown names with the valid domain
/// like [`crate::MineError::UnknownAlgorithm`] does.
pub fn parse_planner(name: &str) -> Result<PlannerMode> {
    PlannerMode::from_name(name).ok_or_else(|| MineError::UnknownPlanner {
        name: name.to_string(),
    })
}

/// Resolve a storage backend by name (`"memory"`, `"paged"`;
/// ASCII-case-insensitive), reporting unknown names with the valid domain
/// like [`crate::MineError::UnknownAlgorithm`] does.
pub fn parse_storage_backend(name: &str) -> Result<StorageBackend> {
    StorageBackend::from_name(name).ok_or_else(|| MineError::UnknownStorageBackend {
        name: name.to_string(),
    })
}
