//! The traced run: a benchmark-side copy of `MineRuleEngine::execute`
//! that calls the kernel's public functions in the engine's order and
//! times each call, plus the same for `decoupled::run_decoupled`.
//!
//! Spans are recorded here, around the calls into each kernel module, so
//! the program under test is unchanged. The copy must produce rules
//! bit-identical to the engine's and the same cache outcomes; the
//! workloads check both on every statement of a traced run.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use minerule::core_op::{run_core_with_telemetry, CoreOptions, CoreOutput};
use minerule::decoupled::{export_to_csv, import_rules, mine_flat_file, FlatRule};
use minerule::encoded::{read_encoded, EncodedData};
use minerule::postprocess::{postprocess, read_rules, store_encoded_rules};
use minerule::preprocess::{fusible, preprocess, run_steps, PreprocessReport};
use minerule::translator::{Step, Translation};
use minerule::{
    parse_mine_rule, translate_with_prefix, DecodedRule, MineError, MineResultCache,
    PreprocessCache, ServeKind, Telemetry,
};
use relational::{Database, ExecMode, PlannerMode, SqlExec};

/// The Appendix-A step ids whose time the traced run reports one by one
/// (`cleanup` is the statement's cleanup program, `mingroups` the
/// `:mingroups` computation); any other id is reported as `other`.
pub const STEP_IDS: [&str; 14] = [
    "cleanup",
    "DDL",
    "Q0",
    "Q1",
    "mingroups",
    "Q2",
    "Q3",
    "Q4b",
    "Q6",
    "Q7",
    "Q8",
    "Q9",
    "Q10",
    "Q11",
];

/// The deepest itemset level whose `core.level.<k>.generated` candidate
/// count the traced run sums (far beyond any level these workloads reach).
const MAX_LEVEL: usize = 64;

/// Cache outcomes as the engine counts them: `mc_hit` counts every
/// mined-result-cache serve, `mc_refine` and `mc_delta` the serves of
/// those kinds (the engine's `core.minecache.*` semantics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounts {
    pub pre_hit: u64,
    pub pre_miss: u64,
    pub mc_hit: u64,
    pub mc_refine: u64,
    pub mc_delta: u64,
    pub mc_miss: u64,
}

impl CacheCounts {
    /// The counts an engine's telemetry registry holds.
    pub fn of_engine(engine: &minerule::MineRuleEngine) -> CacheCounts {
        let s = engine.metrics_snapshot();
        CacheCounts {
            pre_hit: s.counter("preprocess.cache.hit"),
            pre_miss: s.counter("preprocess.cache.miss"),
            mc_hit: s.counter("core.minecache.hit"),
            mc_refine: s.counter("core.minecache.refine"),
            mc_delta: s.counter("core.minecache.delta"),
            mc_miss: s.counter("core.minecache.miss"),
        }
    }

    pub fn add(&mut self, o: CacheCounts) {
        self.pre_hit += o.pre_hit;
        self.pre_miss += o.pre_miss;
        self.mc_hit += o.mc_hit;
        self.mc_refine += o.mc_refine;
        self.mc_delta += o.mc_delta;
        self.mc_miss += o.mc_miss;
    }
}

/// Per-layer totals over every traced MINE RULE statement (and every
/// traced decoupled run).
#[derive(Debug, Default)]
pub struct Layers {
    pub statements: u64,
    /// Wall time of the traced statements, first call to last.
    pub total: Duration,
    /// Statement time covered by no layer span.
    pub unattributed: Duration,
    pub translator: Duration,
    pub preprocess: Duration,
    pub preprocess_rows: u64,
    pub fused_steps: u64,
    pub steps: BTreeMap<&'static str, Duration>,
    pub cache_restore: Duration,
    pub cache_store: Duration,
    pub cache_bytes: u64,
    pub counts: CacheCounts,
    pub mc_serve: Duration,
    pub mc_store: Duration,
    pub mc_bytes: u64,
    pub encoded_read: Duration,
    pub encoded_groups: u64,
    pub core: Duration,
    pub shard_busy: Duration,
    pub candidates: u64,
    pub large: u64,
    pub pp_store: Duration,
    pub pp_decode: Duration,
    pub pp_read: Duration,
    pub rules: u64,
    pub decoupled_runs: u64,
    pub dec_export: Duration,
    pub dec_mine: Duration,
    pub dec_import: Duration,
    pub dec_file: Duration,
}

/// Run `f`, adding its wall time to `acc` and to the statement's
/// attributed time.
fn span<T>(acc: &mut Duration, attributed: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    let d = t.elapsed();
    *acc += d;
    *attributed += d;
    out
}

/// The traced copy of a `MineRuleEngine` with default knobs: its own
/// preprocess and mined-result caches, an empty table prefix and the
/// default core options (apriori, one worker).
#[derive(Debug, Default)]
pub struct TracedEngine {
    core: CoreOptions,
    prefix: String,
    preprocache: PreprocessCache,
    minecache: MineResultCache,
}

impl TracedEngine {
    pub fn new() -> TracedEngine {
        TracedEngine::default()
    }

    /// Execute one MINE RULE statement exactly as
    /// `MineRuleEngine::execute` does, timing each kernel call.
    pub fn execute(
        &self,
        db: &mut Database,
        text: &str,
        layers: &mut Layers,
    ) -> minerule::Result<Vec<DecodedRule>> {
        let start = Instant::now();
        let mut attributed = Duration::ZERO;
        let result = self.run(db, text, layers, &mut attributed);
        let total = start.elapsed();
        layers.statements += 1;
        layers.total += total;
        layers.unattributed += total.saturating_sub(attributed);
        result
    }

    fn run(
        &self,
        db: &mut Database,
        text: &str,
        l: &mut Layers,
        at: &mut Duration,
    ) -> minerule::Result<Vec<DecodedRule>> {
        db.set_sqlexec(SqlExec::default());
        db.set_exec(ExecMode::default());
        db.set_planner(PlannerMode::default());

        let translation = span(&mut l.translator, at, || {
            let stmt = parse_mine_rule(text)?;
            translate_with_prefix(&stmt, db.catalog(), &self.prefix)
        })?;

        let restored = span(&mut l.cache_restore, at, || {
            self.preprocache.try_restore(db, &translation, &self.prefix)
        })?;
        let report = match restored {
            Some(report) => {
                l.counts.pre_hit += 1;
                report
            }
            None => {
                l.counts.pre_miss += 1;
                let report = self.preprocess(db, &translation, l, at)?;
                let stored = span(&mut l.cache_store, at, || {
                    self.preprocache
                        .store(db, &translation, &self.prefix, &report)
                });
                l.cache_bytes = stored.bytes;
                report
            }
        };
        l.preprocess_rows += report.executed.iter().map(|(_, n)| *n as u64).sum::<u64>();
        l.fused_steps += report.fused_steps as u64;

        let serve = span(&mut l.mc_serve, at, || {
            self.minecache
                .try_serve(db, &translation, &self.prefix, &report)
        })?;
        let rules = match serve {
            Some(serve) => {
                l.counts.mc_hit += 1;
                match serve.kind {
                    ServeKind::Hit => {}
                    ServeKind::Refine => l.counts.mc_refine += 1,
                    ServeKind::Delta => l.counts.mc_delta += 1,
                }
                serve.rules
            }
            None => {
                l.counts.mc_miss += 1;
                let encoded = span(&mut l.encoded_read, at, || read_encoded(db, &translation))?;
                l.encoded_groups += match &encoded.data {
                    EncodedData::Simple { groups } => groups.len() as u64,
                    EncodedData::General { tuples, .. } => {
                        let mut gids: Vec<u32> = tuples.iter().map(|t| t.gid).collect();
                        gids.sort_unstable();
                        gids.dedup();
                        gids.len() as u64
                    }
                };
                let telemetry = Telemetry::new();
                let CoreOutput {
                    rules,
                    shard_timings,
                    large_itemsets,
                    lattice_stats,
                    ..
                } = span(&mut l.core, at, || {
                    run_core_with_telemetry(&encoded, &self.core, &telemetry)
                })?;
                l.shard_busy += shard_timings.iter().sum::<Duration>();
                match (&large_itemsets, &lattice_stats) {
                    (Some(large), _) => {
                        let snapshot = telemetry.snapshot();
                        l.candidates += (1..=MAX_LEVEL)
                            .map(|k| snapshot.counter(&format!("core.level.{k}.generated")))
                            .sum::<u64>();
                        l.large += large.len() as u64;
                    }
                    (None, Some(stats)) => {
                        l.candidates += stats.candidates_evaluated;
                        l.large += stats.set_sizes.iter().map(|(_, n)| *n as u64).sum::<u64>();
                    }
                    (None, None) => {}
                }
                if let Some(large) = &large_itemsets {
                    let stored = span(&mut l.mc_store, at, || {
                        self.minecache
                            .store(db, &translation, &self.prefix, &report, large)
                    });
                    l.mc_bytes = stored.bytes;
                }
                rules
            }
        };

        span(&mut l.pp_store, at, || {
            store_encoded_rules(db, &translation, &rules)
        })?;
        span(&mut l.pp_decode, at, || postprocess(db, &translation))?;
        let decoded = span(&mut l.pp_read, at, || read_rules(db, &translation))?;
        l.rules += decoded.len() as u64;
        Ok(decoded)
    }

    /// `preprocess` with each step of the step-by-step program timed on
    /// its own through `run_steps`; the fused pass is one call.
    fn preprocess(
        &self,
        db: &mut Database,
        translation: &Translation,
        l: &mut Layers,
        at: &mut Duration,
    ) -> minerule::Result<PreprocessReport> {
        if db.planner_mode() == PlannerMode::Cost && fusible(translation) {
            return span(&mut l.preprocess, at, || preprocess(db, translation));
        }
        let support = translation.stmt.min_support;
        let start = Instant::now();
        let mut step_time = |id: &str, d: Duration| {
            let key = STEP_IDS
                .iter()
                .find(|k| **k == id)
                .copied()
                .unwrap_or("other");
            *l.steps.entry(key).or_default() += d;
        };
        let t = Instant::now();
        run_steps(db, &translation.cleanup, support)?;
        step_time("cleanup", t.elapsed());
        let mut report = PreprocessReport::default();
        for step in &translation.preprocess {
            let t = Instant::now();
            let part = run_steps(db, std::slice::from_ref(step), support)?;
            let id = match step {
                Step::Sql { id, .. } => id.as_str(),
                Step::ComputeMinGroups => {
                    report.total_groups = part.total_groups;
                    report.min_groups = part.min_groups;
                    "mingroups"
                }
            };
            step_time(id, t.elapsed());
            report.executed.extend(part.executed);
        }
        let d = start.elapsed();
        l.preprocess += d;
        *at += d;
        Ok(report)
    }
}

/// `decoupled::run_decoupled` with each stage timed: export, the flat
/// file round trip, the standalone miner and the re-import.
pub fn decoupled(
    db: &mut Database,
    extract_query: &str,
    min_support: f64,
    min_confidence: f64,
    rule_table: &str,
    l: &mut Layers,
) -> minerule::Result<Vec<FlatRule>> {
    let mut at = Duration::ZERO;
    let csv = span(&mut l.dec_export, &mut at, || {
        export_to_csv(db, extract_query)
    })?;
    let reread = span(&mut l.dec_file, &mut at, || {
        let path = std::env::temp_dir().join(format!(
            "tcdm_decoupled_{}_{}.csv",
            std::process::id(),
            rule_table
        ));
        let io_err = |e: std::io::Error| MineError::Internal {
            message: format!("decoupled flat-file I/O failed: {e}"),
        };
        std::fs::write(&path, &csv).map_err(io_err)?;
        let reread = std::fs::read_to_string(&path).map_err(io_err)?;
        let _ = std::fs::remove_file(&path);
        Ok::<_, MineError>(reread)
    })?;
    let rules = span(&mut l.dec_mine, &mut at, || {
        mine_flat_file(&reread, min_support, min_confidence)
    })?;
    span(&mut l.dec_import, &mut at, || {
        import_rules(db, rule_table, &rules)
    })?;
    l.decoupled_runs += 1;
    Ok(rules)
}

/// Whether two decoded rule sets are bit-identical (floats compared by
/// their bit patterns).
pub fn same_rules(a: &[DecodedRule], b: &[DecodedRule]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.body == y.body
                && x.head == y.head
                && x.support.to_bits() == y.support.to_bits()
                && x.confidence.to_bits() == y.confidence.to_bits()
        })
}
