//! The cache agreement contract: every combination of worker count ×
//! preprocess cache × mined-result cache × index policy mines
//! bit-identical rules — including warm (cache-hit) runs after a
//! threshold-only refinement, incremental re-mines after a source-table
//! delta, and runs after a source-table mutation (which must *never*
//! serve stale artifacts).

use minerule::paper_example::{purchase_db, FILTERED_ORDERED_SETS};
use minerule::{DecodedRule, MineRuleEngine};
use relational::{Database, IndexPolicy, PlannerMode};

const WORKERS: [usize; 3] = [1, 2, 4];
const CACHE: [bool; 2] = [true, false];
const POLICIES: [IndexPolicy; 2] = [IndexPolicy::Auto, IndexPolicy::Off];

/// Bit-exact signature of a rule set (f64s compared by bit pattern).
fn signature(rules: &[DecodedRule]) -> Vec<String> {
    rules
        .iter()
        .map(|r| {
            format!(
                "{:?}=>{:?} s={:016x} c={:016x}",
                r.body,
                r.head,
                r.support.to_bits(),
                r.confidence.to_bits()
            )
        })
        .collect()
}

fn simple(support: f64, confidence: f64) -> String {
    format!(
        "MINE RULE SimpleAssoc AS SELECT DISTINCT item AS BODY, item AS HEAD, \
         SUPPORT, CONFIDENCE FROM Purchase GROUP BY customer \
         EXTRACTING RULES WITH SUPPORT: {support}, CONFIDENCE: {confidence}"
    )
}

#[test]
fn threshold_refinement_agrees_across_all_knobs() {
    let mut reference: Option<(Vec<String>, Vec<String>)> = None;
    for workers in WORKERS {
        for cache in CACHE {
            for policy in POLICIES {
                let label = format!("workers={workers} cache={cache} indexes={policy}");
                let mut db = purchase_db();
                db.set_index_policy(policy);
                let engine = MineRuleEngine::new()
                    .with_workers(workers)
                    .with_preprocache(cache);

                // Cold run, then a support-only refinement of the same
                // statement: with the cache on, the second run must be a
                // warm hit that skips every Qi step.
                let cold = engine.execute(&mut db, &simple(0.25, 0.1)).unwrap();
                assert!(!cold.preprocess_report.executed.is_empty(), "{label}");
                let warm = engine.execute(&mut db, &simple(0.5, 0.4)).unwrap();

                let snapshot = engine.metrics_snapshot();
                if cache {
                    assert!(
                        warm.preprocess_report.executed.is_empty(),
                        "{label}: warm run must not execute preprocessing"
                    );
                    assert_eq!(snapshot.counter("preprocess.cache.hit"), 1, "{label}");
                    assert_eq!(snapshot.counter("preprocess.cache.miss"), 1, "{label}");
                } else {
                    assert!(
                        !warm.preprocess_report.executed.is_empty(),
                        "{label}: cache off must preprocess every run"
                    );
                    assert_eq!(snapshot.counter("preprocess.cache.hit"), 0, "{label}");
                }
                // The warm report still states the *current* threshold.
                assert_eq!(
                    warm.preprocess_report.min_groups,
                    minerule::preprocess::min_groups_for(warm.preprocess_report.total_groups, 0.5),
                    "{label}"
                );

                let sigs = (signature(&cold.rules), signature(&warm.rules));
                assert!(!sigs.0.is_empty() && !sigs.1.is_empty(), "{label}");
                match &reference {
                    None => reference = Some(sigs),
                    Some(expected) => {
                        assert_eq!(&sigs.0, &expected.0, "{label}: cold rules diverge");
                        assert_eq!(&sigs.1, &expected.1, "{label}: warm rules diverge");
                    }
                }
            }
        }
    }
}

#[test]
fn general_class_agrees_across_all_knobs() {
    let mut reference: Option<Vec<String>> = None;
    for workers in WORKERS {
        for cache in CACHE {
            for policy in POLICIES {
                let label = format!("workers={workers} cache={cache} indexes={policy}");
                let mut db = purchase_db();
                db.set_index_policy(policy);
                let engine = MineRuleEngine::new()
                    .with_workers(workers)
                    .with_preprocache(cache);
                // Run the paper's §2 statement twice: identical statement,
                // so with the cache on the second run is a warm hit even
                // though the thresholds did not move.
                let first = engine.execute(&mut db, FILTERED_ORDERED_SETS).unwrap();
                let second = engine.execute(&mut db, FILTERED_ORDERED_SETS).unwrap();
                assert_eq!(
                    second.preprocess_report.executed.is_empty(),
                    cache,
                    "{label}"
                );
                let sig = signature(&second.rules);
                assert_eq!(signature(&first.rules), sig, "{label}: rerun diverges");
                match &reference {
                    None => reference = Some(sig),
                    Some(expected) => assert_eq!(&sig, expected, "{label}: rules diverge"),
                }
            }
        }
    }
}

#[test]
fn source_mutation_never_serves_stale_artifacts() {
    for policy in POLICIES {
        let label = format!("indexes={policy}");
        // Cached engine: cold run, mutate the source, rerun.
        let mut db = purchase_db();
        db.set_index_policy(policy);
        let engine = MineRuleEngine::new().with_preprocache(true);
        engine.execute(&mut db, &simple(0.25, 0.1)).unwrap();
        db.execute(
            "INSERT INTO Purchase VALUES \
             (9, 'c9', 'col_shirts', DATE '1997-01-08', 25, 1)",
        )
        .unwrap();
        let after = engine.execute(&mut db, &simple(0.25, 0.1)).unwrap();
        assert!(
            !after.preprocess_report.executed.is_empty(),
            "{label}: a mutated source must force a cold preprocess"
        );
        let snapshot = engine.metrics_snapshot();
        assert_eq!(snapshot.counter("preprocess.cache.hit"), 0, "{label}");
        assert_eq!(snapshot.counter("preprocess.cache.miss"), 2, "{label}");

        // Reference: an uncached engine over a database that was mutated
        // the same way sees exactly the same rules.
        let mut fresh = purchase_db();
        fresh.set_index_policy(policy);
        fresh
            .execute(
                "INSERT INTO Purchase VALUES \
                 (9, 'c9', 'col_shirts', DATE '1997-01-08', 25, 1)",
            )
            .unwrap();
        let reference = MineRuleEngine::new()
            .with_preprocache(false)
            .execute(&mut fresh, &simple(0.25, 0.1))
            .unwrap();
        assert_eq!(
            signature(&after.rules),
            signature(&reference.rules),
            "{label}: post-mutation rules diverge from a cold run"
        );
    }
}

#[test]
fn looser_threshold_refinement_misses_but_agrees() {
    // Group by transaction (4 groups) so the two supports actually map to
    // different :mingroups (2 vs 1) — grouping by customer (2 groups)
    // would round both to 1 and legitimately hit.
    fn by_tr(support: f64) -> String {
        format!(
            "MINE RULE TrAssoc AS SELECT DISTINCT item AS BODY, item AS HEAD, \
             SUPPORT, CONFIDENCE FROM Purchase GROUP BY tr \
             EXTRACTING RULES WITH SUPPORT: {support}, CONFIDENCE: 0.1"
        )
    }
    let mut db = purchase_db();
    let engine = MineRuleEngine::new().with_preprocache(true);
    engine.execute(&mut db, &by_tr(0.5)).unwrap();
    // A *looser* support needs items the cached artifacts pruned, so the
    // superset rule forces a cold run.
    let loose = engine.execute(&mut db, &by_tr(0.25)).unwrap();
    assert!(!loose.preprocess_report.executed.is_empty());
    let snapshot = engine.metrics_snapshot();
    assert_eq!(snapshot.counter("preprocess.cache.hit"), 0);

    let reference = MineRuleEngine::new()
        .with_preprocache(false)
        .execute(&mut purchase_db(), &by_tr(0.25))
        .unwrap();
    assert_eq!(signature(&loose.rules), signature(&reference.rules));
}

// ---- mined-result cache ------------------------------------------------

/// A simple-class statement over `tr` (4 groups), so support thresholds
/// 0.25 / 0.5 map to distinct `:mingroups` (1 vs 2) and loosening is a
/// genuine mined-result cache miss.
fn tr_mine(support: f64, confidence: f64) -> String {
    format!(
        "MINE RULE TrCached AS SELECT DISTINCT item AS BODY, item AS HEAD, \
         SUPPORT, CONFIDENCE FROM Purchase GROUP BY tr \
         EXTRACTING RULES WITH SUPPORT: {support}, CONFIDENCE: {confidence}"
    )
}

const DELTA_INSERT: &str =
    "INSERT INTO Purchase VALUES (9, 'c9', 'col_shirts', DATE '1997-01-08', 25, 1)";

/// An UPDATE is logged as a delete+insert pair, so it rides the same
/// incremental delta path as the INSERT above — while genuinely changing
/// the mined rules (transaction 1 swaps an item).
const DELTA_UPDATE: &str =
    "UPDATE Purchase SET item = 'wool_socks' WHERE tr = 1 AND item = 'hiking_boots'";

/// Counters that prove the core operator ran (or did not).
fn core_work(snapshot: &minerule::telemetry::MetricsSnapshot) -> Vec<(String, u64)> {
    snapshot
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("core.level.") || name.starts_with("core.path."))
        .map(|(name, value)| (name.clone(), *value))
        .collect()
}

/// The tentpole sequence — cold mine, loosen (clean miss + recapture),
/// tighten support (refine), tighten confidence (refine), insert delta
/// (incremental re-mine), update delta (delete+insert re-mine) — must
/// stay bit-identical to a cold mine at every stage, for every worker
/// count, with the cache on or off. Warm stages must do zero
/// core-operator work.
#[test]
fn mined_result_refinement_sequence_agrees_across_workers() {
    // (mutation applied before the mine, support, confidence, warm?)
    let stages: [(Option<&str>, f64, f64, bool); 6] = [
        (None, 0.5, 0.4, false),               // cold capture
        (None, 0.25, 0.1, false),              // loosened support: clean miss
        (None, 0.5, 0.1, true),                // tightened support: refine
        (None, 0.5, 0.7, true),                // tightened confidence: refine
        (Some(DELTA_INSERT), 0.25, 0.1, true), // delta: incremental re-mine
        (Some(DELTA_UPDATE), 0.25, 0.1, true), // update delta: delete+insert re-mine
    ];
    for workers in WORKERS {
        for minecache in CACHE {
            let label = format!("workers={workers} minecache={minecache}");
            let mut db = purchase_db();
            let engine = MineRuleEngine::new()
                .with_workers(workers)
                .with_minecache(minecache);
            let mut mutations: Vec<&str> = Vec::new();
            for (stage, (mutation, support, confidence, warm)) in stages.iter().enumerate() {
                if let Some(dml) = mutation {
                    db.execute(dml).unwrap();
                    mutations.push(dml);
                }
                let before = core_work(&engine.metrics_snapshot());
                let run = engine
                    .execute(&mut db, &tr_mine(*support, *confidence))
                    .unwrap();
                let after = core_work(&engine.metrics_snapshot());
                if minecache && *warm {
                    assert_eq!(
                        before, after,
                        "{label} stage {stage}: warm serve must skip the core operator"
                    );
                } else {
                    assert_ne!(
                        before, after,
                        "{label} stage {stage}: cold stage must run the core operator"
                    );
                }

                // Reference: a cold engine over a fresh, equally-mutated db.
                let mut fresh = purchase_db();
                for dml in &mutations {
                    fresh.execute(dml).unwrap();
                }
                let reference = MineRuleEngine::new()
                    .with_preprocache(false)
                    .with_minecache(false)
                    .execute(&mut fresh, &tr_mine(*support, *confidence))
                    .unwrap();
                assert!(!reference.rules.is_empty(), "{label} stage {stage}");
                assert_eq!(
                    signature(&run.rules),
                    signature(&reference.rules),
                    "{label} stage {stage}: rules diverge from a cold mine"
                );
            }
            let snapshot = engine.metrics_snapshot();
            if minecache {
                assert_eq!(snapshot.counter("core.minecache.miss"), 2, "{label}");
                assert_eq!(snapshot.counter("core.minecache.hit"), 4, "{label}");
                assert_eq!(snapshot.counter("core.minecache.refine"), 2, "{label}");
                assert_eq!(snapshot.counter("core.minecache.delta"), 2, "{label}");
            } else {
                for name in [
                    "core.minecache.miss",
                    "core.minecache.hit",
                    "core.minecache.refine",
                    "core.minecache.delta",
                ] {
                    assert_eq!(snapshot.counter(name), 0, "{label}: {name}");
                }
            }
        }
    }
}

/// Overflowing the bounded store evicts the oldest entry; a rerun of the
/// evicted statement is a clean miss that still agrees with a cold mine.
#[test]
fn mined_result_eviction_recaptures_and_agrees() {
    // The cache fingerprint ignores thresholds and the output name, so
    // distinct entries need distinct source fragments: vary GROUP BY.
    const GROUPINGS: [&str; 9] = [
        "tr",
        "customer",
        "date",
        "price",
        "qty",
        "tr, customer",
        "tr, date",
        "customer, date",
        "tr, price",
    ];
    fn named(group_by: &str) -> String {
        format!(
            "MINE RULE Evict AS SELECT DISTINCT item AS BODY, item AS HEAD, \
             SUPPORT, CONFIDENCE FROM Purchase GROUP BY {group_by} \
             EXTRACTING RULES WITH SUPPORT: 0.25, CONFIDENCE: 0.1"
        )
    }
    let mut db = purchase_db();
    let engine = MineRuleEngine::new().with_minecache(true);
    // Nine distinct statements against an 8-entry store: the first one
    // is evicted by the time the ninth lands.
    for group_by in GROUPINGS {
        engine.execute(&mut db, &named(group_by)).unwrap();
    }
    let snapshot = engine.metrics_snapshot();
    assert!(snapshot.counter("core.minecache.evict") >= 1);
    assert_eq!(snapshot.counter("core.minecache.hit"), 0);

    let rerun = engine.execute(&mut db, &named("tr")).unwrap();
    let snapshot = engine.metrics_snapshot();
    assert_eq!(
        snapshot.counter("core.minecache.miss"),
        10,
        "the evicted statement must miss, not serve stale results"
    );
    let reference = MineRuleEngine::new()
        .with_preprocache(false)
        .with_minecache(false)
        .execute(&mut purchase_db(), &named("tr"))
        .unwrap();
    assert_eq!(signature(&rerun.rules), signature(&reference.rules));
}

/// The two caches are independent: a general-class rerun is a preprocess
/// cache *hit* that still feeds a mined-result cache *miss* (the result
/// cache only captures the simple fused-pass shape).
#[test]
fn preprocess_hit_feeds_mined_result_miss() {
    let mut db = purchase_db();
    let engine = MineRuleEngine::new()
        .with_preprocache(true)
        .with_minecache(true);
    let first = engine.execute(&mut db, FILTERED_ORDERED_SETS).unwrap();
    let second = engine.execute(&mut db, FILTERED_ORDERED_SETS).unwrap();
    assert!(second.preprocess_report.executed.is_empty());
    let snapshot = engine.metrics_snapshot();
    assert_eq!(snapshot.counter("preprocess.cache.hit"), 1);
    assert_eq!(snapshot.counter("core.minecache.hit"), 0);
    assert_eq!(snapshot.counter("core.minecache.miss"), 2);
    assert_eq!(signature(&first.rules), signature(&second.rules));
}

#[test]
fn confidence_only_refinement_always_hits() {
    let mut db = purchase_db();
    let engine = MineRuleEngine::new().with_preprocache(true);
    engine.execute(&mut db, &simple(0.25, 0.1)).unwrap();
    let warm = engine.execute(&mut db, &simple(0.25, 0.8)).unwrap();
    assert!(warm.preprocess_report.executed.is_empty());
    assert_eq!(engine.metrics_snapshot().counter("preprocess.cache.hit"), 1);
    let reference = MineRuleEngine::new()
        .with_preprocache(false)
        .execute(&mut purchase_db(), &simple(0.25, 0.8))
        .unwrap();
    assert_eq!(signature(&warm.rules), signature(&reference.rules));
}

// ---- where the mined-result cache's capture gets its grouping -----------

/// Twenty customers plus NULL keys: `item` NULL on some rows, `cust` NULL
/// on others, `region` a function of the customer, and a FLOAT `size`
/// holding 0.0, -0.0 and 1.5 (distinct keys to the engine). Item `rare`
/// sits in two of the 21 groups: one short of `:mingroups` = 3 at
/// s = 0.1, so the INSERT stage below makes it large.
fn mixed_db() -> Database {
    let mut db = Database::new();
    db.execute(
        "CREATE TABLE Mixed (cust VARCHAR, region VARCHAR, item VARCHAR, \
         color VARCHAR, size FLOAT)",
    )
    .unwrap();
    let mut rows = Vec::new();
    for i in 0..20usize {
        let size = ["0.0", "-0.0", "1.5"][i % 3];
        let color = if i % 2 == 0 { "blue" } else { "red" };
        let mut items = Vec::new();
        for (item, held) in [
            ("a", i % 2 == 0),
            ("b", i % 3 == 0),
            ("c", i % 4 != 1),
            ("d", i % 5 < 3),
            ("rare", i == 1 || i == 2),
        ] {
            if held {
                items.push(format!("'{item}'"));
            }
        }
        if i % 7 == 3 {
            items.push("NULL".into());
        }
        for item in items {
            rows.push(format!("('c{i}', 'r{}', {item}, '{color}', {size})", i % 3));
        }
    }
    rows.push("(NULL, 'r0', 'a', 'blue', 0.0)".into());
    rows.push("(NULL, 'r0', 'c', 'red', -0.0)".into());
    rows.push("('c4', 'r1', 'd', 'blue', NULL)".into());
    db.execute(&format!("INSERT INTO Mixed VALUES {}", rows.join(", ")))
        .unwrap();
    db
}

fn mixed_mine(schemas: &str, group_by: &str, support: f64, confidence: f64) -> String {
    format!(
        "MINE RULE MixedRules AS SELECT DISTINCT 1..n {schemas}, SUPPORT, CONFIDENCE \
         FROM Mixed GROUP BY {group_by} \
         EXTRACTING RULES WITH SUPPORT: {support}, CONFIDENCE: {confidence}"
    )
}

/// What one run did with the mined-result cache, from counter deltas.
fn cache_outcome(
    before: &minerule::telemetry::MetricsSnapshot,
    after: &minerule::telemetry::MetricsSnapshot,
) -> (&'static str, &'static str) {
    let grew = |name: &str| after.counter(name) > before.counter(name);
    let serve = if grew("core.minecache.miss") {
        "miss"
    } else if grew("core.minecache.delta") {
        "delta"
    } else if grew("core.minecache.refine") {
        "refine"
    } else if grew("core.minecache.hit") {
        "hit"
    } else {
        "none"
    };
    let capture = if grew("core.minecache.capture.handoff") {
        "handoff"
    } else if grew("core.minecache.capture.scan") {
        "scan"
    } else {
        "-"
    };
    (serve, capture)
}

/// The capture from the fused pass's hand-off and the capture from its
/// own scan must serve the same: cold → tighten support → change
/// confidence → INSERT, DELETE and UPDATE deltas → loosen, over NULL
/// keys (in the source and in the deltas), multi-attribute schemas and
/// ±0.0 keys, under the cost planner
/// (hand-off) and the naive planner (scan), with the preprocess cache on
/// and off. Every stage is bit-identical to an uncached cold mine, and
/// every configuration sees the same serve outcomes.
#[test]
fn handoff_and_scan_captures_serve_alike() {
    // (mutation applied before the mine, support, confidence)
    let stages: [(Option<&str>, f64, f64); 7] = [
        (None, 0.1, 0.3),
        (None, 0.2, 0.3),
        (None, 0.2, 0.6),
        (
            Some(
                "INSERT INTO Mixed VALUES ('c5', 'r2', 'rare', 'red', -0.0), \
                 ('c5', 'r2', 'a', 'red', -0.0), (NULL, 'r1', 'b', 'red', 1.5), \
                 ('c6', 'r0', NULL, 'blue', 0.0)",
            ),
            0.1,
            0.3,
        ),
        (
            Some(
                "DELETE FROM Mixed WHERE (cust = 'c0' AND item = 'b') \
                 OR (cust = 'c3' AND item IS NULL)",
            ),
            0.1,
            0.3,
        ),
        (
            Some("UPDATE Mixed SET item = 'd' WHERE cust = 'c8' AND item = 'a'"),
            0.1,
            0.3,
        ),
        (None, 0.05, 0.3),
    ];
    let expected = [
        "miss", "refine", "refine", "delta", "delta", "delta", "miss",
    ];
    let statements = [
        ("item AS BODY, 1..1 item AS HEAD", "cust"),
        (
            "item, color AS BODY, 1..1 item, color AS HEAD",
            "cust, region",
        ),
        ("item, size AS BODY, 1..1 item, size AS HEAD", "cust"),
    ];
    for (schemas, group_by) in statements {
        let mut large_rare = false;
        for planner in [PlannerMode::Cost, PlannerMode::Naive] {
            for preprocache in [true, false] {
                let label = format!("{schemas} / {group_by}: {planner} preprocache={preprocache}");
                let mut db = mixed_db();
                let engine = MineRuleEngine::new()
                    .with_planner(planner)
                    .with_preprocache(preprocache);
                let mut mutations = Vec::new();
                let mut captures = Vec::new();
                for (stage, (mutation, support, confidence)) in stages.iter().enumerate() {
                    if let Some(dml) = mutation {
                        db.execute(dml).unwrap();
                        mutations.push(*dml);
                    }
                    let text = mixed_mine(schemas, group_by, *support, *confidence);
                    let before = engine.metrics_snapshot();
                    let run = engine.execute(&mut db, &text).unwrap();
                    let (serve, capture) = cache_outcome(&before, &engine.metrics_snapshot());
                    assert_eq!(serve, expected[stage], "{label} stage {stage}");
                    captures.push(capture);

                    let mut fresh = mixed_db();
                    for dml in &mutations {
                        fresh.execute(dml).unwrap();
                    }
                    let reference = MineRuleEngine::new()
                        .with_preprocache(false)
                        .with_minecache(false)
                        .execute(&mut fresh, &text)
                        .unwrap();
                    assert_eq!(
                        signature(&run.rules),
                        signature(&reference.rules),
                        "{label} stage {stage}: rules diverge from a cold mine"
                    );
                    large_rare |= run
                        .rules
                        .iter()
                        .any(|r| r.body.iter().chain(&r.head).any(|v| v.contains("rare")));
                }
                // A cold fused pass hands its slots over; the loosened
                // rerun cannot restore the preprocess cache (its `Bset`
                // was pruned at the tighter threshold), so it runs cold.
                let cold = match planner {
                    PlannerMode::Cost => "handoff",
                    PlannerMode::Naive => "scan",
                };
                assert_eq!(captures, [cold, "-", "-", "-", "-", "-", cold], "{label}");
            }
        }
        assert!(large_rare, "{schemas}: a delta must make `rare` large");
    }
}

/// `core.minecache.capture.{handoff,scan}` count where each capture's
/// grouping came from; both are worker-invariant.
#[test]
fn capture_counters_name_their_source() {
    for workers in [1usize, 3] {
        let counts = |engine: &MineRuleEngine| {
            let s = engine.metrics_snapshot();
            engine.reset_metrics();
            (
                s.counter("core.minecache.capture.handoff"),
                s.counter("core.minecache.capture.scan"),
                s.counter("preprocess.cache.hit"),
                s.counter("core.minecache.miss"),
            )
        };
        let mut db = purchase_db();
        let mut engine = MineRuleEngine::new().with_workers(workers);
        engine.execute(&mut db, &tr_mine(0.5, 0.1)).unwrap();
        assert_eq!(
            counts(&engine),
            (1, 0, 0, 1),
            "cold fused run, workers {workers}"
        );

        // Leave the preprocess cache holding artifacts pruned at the
        // looser threshold, then start the mined-result cache afresh.
        engine.set_minecache_enabled(false);
        engine.execute(&mut db, &tr_mine(0.25, 0.1)).unwrap();
        engine.set_minecache_enabled(true);
        engine.reset_metrics();
        engine.execute(&mut db, &tr_mine(0.5, 0.1)).unwrap();
        assert_eq!(counts(&engine), (0, 1, 1, 1), "preprocess hit, empty store");
        let loose = engine.execute(&mut db, &tr_mine(0.25, 0.1)).unwrap();
        assert_eq!(
            counts(&engine),
            (0, 1, 1, 1),
            "preprocess hit, loosened support, workers {workers}"
        );
        let reference = MineRuleEngine::new()
            .with_preprocache(false)
            .with_minecache(false)
            .execute(&mut purchase_db(), &tr_mine(0.25, 0.1))
            .unwrap();
        assert_eq!(signature(&loose.rules), signature(&reference.rules));
    }
}
