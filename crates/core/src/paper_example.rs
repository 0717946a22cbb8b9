//! The paper's running example (§2, Figures 1 and 2): the `Purchase`
//! table, the `FilteredOrderedSets` statement, and the expected output.
//!
//! Used by the examples, the integration tests (golden reproduction of
//! Figure 2b) and the experiments binary.

use relational::{Database, Date, Value};

use crate::error::Result;
use crate::pipeline::{MineRuleEngine, MiningOutcome};

/// The exact MINE RULE statement of §2 (dates in ISO form).
pub const FILTERED_ORDERED_SETS: &str = "\
MINE RULE FilteredOrderedSets AS \
SELECT DISTINCT 1..n item AS BODY, 1..n item AS HEAD, SUPPORT, CONFIDENCE \
WHERE BODY.price >= 100 AND HEAD.price < 100 \
FROM Purchase \
WHERE date BETWEEN DATE '1995-01-01' AND DATE '1995-12-31' \
GROUP BY customer \
CLUSTER BY date HAVING BODY.date < HEAD.date \
EXTRACTING RULES WITH SUPPORT: 0.2, CONFIDENCE: 0.3";

/// One Figure 1 row: (tr, customer, item, (y, m, d), price, qty).
pub type PurchaseRow = (i64, &'static str, &'static str, (i32, u32, u32), i64, i64);

/// Figure 1 rows.
pub const PURCHASE_ROWS: &[PurchaseRow] = &[
    (1, "cust1", "ski_pants", (1995, 12, 17), 140, 1),
    (1, "cust1", "hiking_boots", (1995, 12, 17), 180, 1),
    (2, "cust2", "col_shirts", (1995, 12, 18), 25, 2),
    (2, "cust2", "brown_boots", (1995, 12, 18), 150, 1),
    (2, "cust2", "jackets", (1995, 12, 18), 300, 1),
    (3, "cust1", "jackets", (1995, 12, 18), 300, 1),
    (4, "cust2", "col_shirts", (1995, 12, 19), 25, 3),
    (4, "cust2", "jackets", (1995, 12, 19), 300, 2),
];

/// The rules of Figure 2b: (body, head, support, confidence).
pub const FIGURE_2B: &[(&[&str], &[&str], f64, f64)] = &[
    (&["brown_boots"], &["col_shirts"], 0.5, 1.0),
    (&["brown_boots", "jackets"], &["col_shirts"], 0.5, 1.0),
    (&["jackets"], &["col_shirts"], 0.5, 0.5),
];

/// Create the `Purchase` table (Figure 1) in a database.
pub fn load_purchase_table(db: &mut Database) -> Result<()> {
    db.execute(
        "CREATE TABLE Purchase (tr INT, customer VARCHAR, item VARCHAR, \
         date DATE, price INT, qty INT)",
    )?;
    let rows = PURCHASE_ROWS
        .iter()
        .map(|&(tr, customer, item, (y, m, d), price, qty)| {
            vec![
                Value::Int(tr),
                Value::Str(customer.to_string()),
                Value::Str(item.to_string()),
                Value::Date(Date::from_ymd(y, m, d).expect("valid paper date")),
                Value::Int(price),
                Value::Int(qty),
            ]
        });
    db.catalog_mut().table_mut("Purchase")?.insert_all(rows)?;
    Ok(())
}

/// A database preloaded with Figure 1.
pub fn purchase_db() -> Database {
    let mut db = Database::new();
    load_purchase_table(&mut db).expect("paper data loads");
    db
}

/// Run the §2 statement end to end and return the outcome.
pub fn run_paper_example() -> Result<(Database, MiningOutcome)> {
    let mut db = purchase_db();
    let outcome = MineRuleEngine::new().execute(&mut db, FILTERED_ORDERED_SETS)?;
    Ok((db, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_purchase_table() {
        let mut db = purchase_db();
        let rs = db.query("SELECT COUNT(*) FROM Purchase").unwrap();
        assert_eq!(rs.scalar().unwrap(), &Value::Int(8));
        let rs = db
            .query("SELECT COUNT(DISTINCT customer) FROM Purchase")
            .unwrap();
        assert_eq!(rs.scalar().unwrap(), &Value::Int(2));
    }

    #[test]
    fn figure2a_grouped_clustered() {
        // Grouping by customer then clustering by date must yield the
        // four clusters of Figure 2a.
        let mut db = purchase_db();
        let rs = db
            .query(
                "SELECT customer, date, COUNT(*) AS items FROM Purchase \
                 GROUP BY customer, date ORDER BY customer, date",
            )
            .unwrap();
        let rows: Vec<String> = rs
            .rows()
            .iter()
            .map(|r| format!("{} {} {}", r[0], r[1], r[2]))
            .collect();
        assert_eq!(
            rows,
            vec![
                "cust1 1995-12-17 2",
                "cust1 1995-12-18 1",
                "cust2 1995-12-18 3",
                "cust2 1995-12-19 2",
            ]
        );
    }

    #[test]
    fn figure2b_filtered_ordered_sets() {
        let (_, outcome) = run_paper_example().unwrap();
        assert!(outcome.used_general, "clusters + mining cond → general");
        assert_eq!(outcome.rules.len(), FIGURE_2B.len(), "{:#?}", outcome.rules);
        for (body, head, support, confidence) in FIGURE_2B {
            let found = outcome
                .rules
                .iter()
                .find(|r| {
                    r.body == body.iter().map(|s| s.to_string()).collect::<Vec<_>>()
                        && r.head == head.iter().map(|s| s.to_string()).collect::<Vec<_>>()
                })
                .unwrap_or_else(|| panic!("missing rule {body:?} => {head:?}"));
            assert!(
                (found.support - support).abs() < 1e-9,
                "support of {body:?} => {head:?}: got {}, paper says {support}",
                found.support
            );
            assert!(
                (found.confidence - confidence).abs() < 1e-9,
                "confidence of {body:?} => {head:?}: got {}, paper says {confidence}",
                found.confidence
            );
        }
    }
}
