//! Compiled vs interpreted expression execution must be observationally
//! identical: same rows, same errors, same mined rules, same
//! preprocessing reports. The compiled path (`\set sqlexec compiled`,
//! the default) is a pure performance change — this suite is
//! the contract that keeps it that way.
//!
//! Three layers of evidence:
//!
//! 1. randomized expressions (seeded, reproducible) evaluated per row
//!    under both modes, comparing the full result **or error**;
//! 2. hand-written SELECTs exercising every hot site the compiler
//!    touches (scan filters, hash joins, explicit joins, GROUP BY,
//!    DISTINCT, set operations, subquery fallback, ORDER BY);
//! 3. the paper's own statements (§2 / Appendix A shapes) mined under
//!    every `sqlexec` × worker-count combination, asserting bit-identical
//!    rules and preprocessing reports.

use datagen::rng::Rng;
use minerule::paper_example::{purchase_db, FIGURE_2B, FILTERED_ORDERED_SETS};
use minerule::MineRuleEngine;
use relational::{Database, SqlExec};
use tcdm_fuzz::grammar::{gen_expr, ExprCols};

/// Evaluate `sql` on a fresh fixture database pinned to `mode`, rendering
/// the result-or-error for comparison. Errors are part of the observable
/// contract: a mode that fails differently (or at a different row) is a
/// regression even if successful queries agree.
fn run(build: fn() -> Database, mode: SqlExec, sql: &str) -> String {
    let mut db = build();
    db.set_sqlexec(mode);
    format!("{:?}", db.query(sql))
}

fn assert_modes_agree(build: fn() -> Database, sql: &str) {
    let compiled = run(build, SqlExec::Compiled, sql);
    let interpreted = run(build, SqlExec::Interpreted, sql);
    assert_eq!(compiled, interpreted, "modes disagree on: {sql}");
}

/// A small table with every value class the expression language touches:
/// positive/negative/zero ints, floats, strings, NULLs in two columns.
fn expr_fixture() -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (a INT, b INT, c FLOAT, s VARCHAR)")
        .unwrap();
    db.execute(
        "INSERT INTO t VALUES \
         (1, 10, 1.5, 'alpha'), \
         (2, NULL, -2.25, 'Beta'), \
         (-3, 0, 0.0, NULL), \
         (0, 7, 100.0, 'alpha'), \
         (42, -5, 0.125, 'GAMMA_9')",
    )
    .unwrap();
    db
}

// ---------------------------------------------------------------------
// Layer 1: randomized expression agreement
// ---------------------------------------------------------------------

// The expression generator lives in the fuzz harness (`tcdm_fuzz::grammar`)
// so the differential fuzzer and this suite share one grammar; this suite
// keeps pinning the compiled-vs-interpreted contract on the fixture's
// column mix, including ill-typed and erroring expressions.

#[test]
fn randomized_expressions_agree() {
    let mut rng = Rng::seed_from_u64(0x5eed_0401);
    let cols = ExprCols::abcs_fixture();
    for i in 0..400 {
        let expr = gen_expr(&mut rng, 3, &cols);
        let sql = format!("SELECT {expr} AS v FROM t");
        let compiled = run(expr_fixture, SqlExec::Compiled, &sql);
        let interpreted = run(expr_fixture, SqlExec::Interpreted, &sql);
        assert_eq!(compiled, interpreted, "case {i}: modes disagree on {sql}");
    }
}

#[test]
fn randomized_filters_agree() {
    // The same generator feeding WHERE exercises the scan-filter site
    // (truthiness of NULL/errors in predicate position).
    let mut rng = Rng::seed_from_u64(20260806);
    let cols = ExprCols::abcs_fixture();
    for i in 0..200 {
        let pred = gen_expr(&mut rng, 3, &cols);
        let sql = format!("SELECT a, s FROM t WHERE {pred}");
        let compiled = run(expr_fixture, SqlExec::Compiled, &sql);
        let interpreted = run(expr_fixture, SqlExec::Interpreted, &sql);
        assert_eq!(compiled, interpreted, "case {i}: modes disagree on {sql}");
    }
}

// ---------------------------------------------------------------------
// Layer 2: hand-written query agreement over the paper's Figure 1 table
// ---------------------------------------------------------------------

const QUERIES: &[&str] = &[
    // Scan filter + projection expressions.
    "SELECT item, price * qty FROM Purchase WHERE price >= 100 ORDER BY item, 2",
    "SELECT UPPER(item), price - 100 FROM Purchase WHERE NOT (price < 100) ORDER BY 1",
    // Comma join (hash join keys) and cross join.
    "SELECT p1.item, p2.item FROM Purchase p1, Purchase p2 \
     WHERE p1.tr = p2.tr AND p1.item < p2.item ORDER BY 1, 2",
    "SELECT COUNT(*) FROM Purchase p1, Purchase p2 WHERE p1.price > p2.price",
    // Explicit JOIN ... ON (the ON-predicate site), incl. LEFT OUTER.
    "SELECT p1.item, p2.item FROM Purchase p1 JOIN Purchase p2 \
     ON p1.customer = p2.customer AND p1.date < p2.date ORDER BY 1, 2",
    "SELECT p1.tr, p2.item FROM Purchase p1 LEFT OUTER JOIN Purchase p2 \
     ON p1.price = p2.price AND p1.item <> p2.item ORDER BY 1, 2",
    // GROUP BY keys + HAVING + aggregate projections.
    "SELECT customer, COUNT(*), SUM(price * qty) FROM Purchase \
     GROUP BY customer ORDER BY customer",
    "SELECT customer, MAX(price) FROM Purchase GROUP BY customer \
     HAVING COUNT(DISTINCT item) >= 3 ORDER BY customer",
    "SELECT tr, COUNT(*) FROM Purchase WHERE price >= 25 GROUP BY tr \
     HAVING SUM(qty) > 1 ORDER BY tr",
    // DISTINCT dedup.
    "SELECT DISTINCT customer, date FROM Purchase ORDER BY customer, date",
    "SELECT DISTINCT price >= 100 FROM Purchase ORDER BY 1",
    // Set operations (zero-clone dedup paths).
    "SELECT item FROM Purchase WHERE price >= 150 UNION \
     SELECT item FROM Purchase WHERE qty >= 2 ORDER BY item",
    "SELECT item FROM Purchase WHERE customer = 'cust1' INTERSECT \
     SELECT item FROM Purchase WHERE customer = 'cust2' ORDER BY item",
    "SELECT item FROM Purchase EXCEPT \
     SELECT item FROM Purchase WHERE price < 100 ORDER BY item",
    // Subqueries: the compiler's interpreter-fallback ops.
    "SELECT item FROM Purchase WHERE price > \
     (SELECT AVG(price) FROM Purchase) ORDER BY item",
    "SELECT DISTINCT customer FROM Purchase WHERE item IN \
     (SELECT item FROM Purchase WHERE price < 100) ORDER BY customer",
    "SELECT DISTINCT p1.item FROM Purchase p1 WHERE EXISTS \
     (SELECT * FROM Purchase p2 WHERE p2.item = p1.item AND p2.qty > 1) \
     ORDER BY p1.item",
    // Derived table + outer expressions.
    "SELECT customer, total FROM \
     (SELECT customer, SUM(price * qty) AS total FROM Purchase GROUP BY customer) spend \
     WHERE total > 500 ORDER BY customer",
    // Date arithmetic (the temporal statements lean on this).
    "SELECT item FROM Purchase \
     WHERE date BETWEEN DATE '1995-12-18' AND DATE '1995-12-31' ORDER BY item",
    "SELECT COUNT(*) FROM Purchase p1, Purchase p2 \
     WHERE p1.customer = p2.customer AND p1.date < p2.date",
    // CASE + IN + LIKE through a full pipeline.
    "SELECT item, CASE WHEN price >= 100 THEN 'premium' ELSE 'basic' END \
     FROM Purchase WHERE item LIKE '%oots' OR item IN ('jackets', 'col_shirts') \
     ORDER BY item, 2",
    // LIMIT after ORDER BY.
    "SELECT item, price FROM Purchase ORDER BY price DESC, item LIMIT 3",
];

#[test]
fn handwritten_queries_agree() {
    for sql in QUERIES {
        assert_modes_agree(purchase_db, sql);
    }
}

#[test]
fn error_reporting_agrees() {
    // Per-row evaluation errors must surface identically: same variant,
    // same message, regardless of constant folding or compilation.
    for sql in [
        "SELECT price / 0 FROM Purchase",
        "SELECT price / (qty - qty) FROM Purchase",
        "SELECT item + 1 FROM Purchase",
        "SELECT ABS(item) FROM Purchase",
        "SELECT nonexistent FROM Purchase",
        "SELECT item FROM Purchase WHERE LENGTH(price) > (1 / 0)",
    ] {
        assert_modes_agree(purchase_db, sql);
    }
}

// ---------------------------------------------------------------------
// Layer 3: end-to-end mining agreement (rules + preprocessing reports)
// ---------------------------------------------------------------------

const SIMPLE: &str = "\
MINE RULE SimpleAssoc AS \
SELECT DISTINCT item AS BODY, item AS HEAD, SUPPORT, CONFIDENCE \
FROM Purchase GROUP BY customer \
EXTRACTING RULES WITH SUPPORT: 0.25, CONFIDENCE: 0.5";

#[test]
fn mining_is_bit_identical_across_modes_and_workers() {
    for stmt in [SIMPLE, FILTERED_ORDERED_SETS] {
        let mut db = purchase_db();
        let baseline = MineRuleEngine::new()
            .with_sqlexec(SqlExec::Interpreted)
            .execute(&mut db, stmt)
            .unwrap();
        for mode in [SqlExec::Compiled, SqlExec::Interpreted] {
            for workers in [1, 2, 4] {
                let mut db = purchase_db();
                let outcome = MineRuleEngine::new()
                    .with_sqlexec(mode)
                    .with_workers(workers)
                    .execute(&mut db, stmt)
                    .unwrap();
                let label = format!("sqlexec={mode} workers={workers}");
                assert_eq!(outcome.rules, baseline.rules, "{label}");
                assert_eq!(
                    outcome.preprocess_report.executed, baseline.preprocess_report.executed,
                    "{label}: per-step row counts"
                );
                assert_eq!(
                    outcome.preprocess_report.total_groups, baseline.preprocess_report.total_groups,
                    "{label}"
                );
                assert_eq!(
                    outcome.preprocess_report.min_groups, baseline.preprocess_report.min_groups,
                    "{label}"
                );
            }
        }
    }
}

#[test]
fn compiled_mode_reproduces_figure_2b() {
    // The §2 statement under the compiled path must still produce exactly
    // the paper's Figure 2b rules.
    let mut db = purchase_db();
    let outcome = MineRuleEngine::new()
        .with_sqlexec(SqlExec::Compiled)
        .execute(&mut db, FILTERED_ORDERED_SETS)
        .unwrap();
    assert!(outcome.used_general);
    assert_eq!(outcome.rules.len(), FIGURE_2B.len());
    for (rule, (body, head, support, confidence)) in outcome.rules.iter().zip(FIGURE_2B) {
        assert_eq!(rule.body, *body);
        assert_eq!(rule.head, *head);
        assert!((rule.support - support).abs() < 1e-9);
        assert!((rule.confidence - confidence).abs() < 1e-9);
    }
}

#[test]
fn compiled_mode_publishes_compile_counters() {
    // The telemetry plumbing: compiled runs publish relational.compile.*
    // and relational.rows.*; interpreted runs publish no compile counters.
    let engine = MineRuleEngine::new().with_sqlexec(SqlExec::Compiled);
    let mut db = purchase_db();
    engine.execute(&mut db, SIMPLE).unwrap();
    let snapshot = engine.metrics_snapshot();
    for counter in [
        "relational.compile.programs",
        "relational.rows.scanned",
        "relational.rows.joined",
    ] {
        assert!(
            snapshot.counter(counter) > 0,
            "missing {counter}: {}",
            snapshot.render_text()
        );
    }

    let engine = MineRuleEngine::new().with_sqlexec(SqlExec::Interpreted);
    let mut db = purchase_db();
    engine.execute(&mut db, SIMPLE).unwrap();
    let snapshot = engine.metrics_snapshot();
    assert!(
        !snapshot
            .counters
            .contains_key("relational.compile.programs"),
        "interpreted runs must not mint compile counters"
    );
    assert!(
        snapshot.counter("relational.rows.scanned") > 0,
        "row counters are mode-independent"
    );
}
