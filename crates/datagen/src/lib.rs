//! # datagen — synthetic workloads for the MINE RULE reproduction
//!
//! Two generator families:
//!
//! * [`quest`] — IBM Quest-style market baskets (the T·I·D synthetic
//!   family of Agrawal & Srikant used by all the algorithms the paper's
//!   core operator builds on), for simple association rules;
//! * [`retail`] — `Purchase`-shaped rows (customers, dates, prices,
//!   quantities) with planted temporal follow-up patterns, for general
//!   rules with `CLUSTER BY` and mining conditions.
//!
//! Both are deterministic per seed, so tests and benchmarks are
//! reproducible.

pub mod quest;
pub mod retail;
pub mod rng;

pub use quest::{generate as generate_quest, QuestConfig, QuestData};
pub use retail::{generate as generate_retail, RetailConfig, RetailData};

use relational::{Database, Value};

/// Load Quest baskets into `db` as table `name (tr INT, item VARCHAR)` —
/// the canonical input shape for a simple MINE RULE statement grouping by
/// `tr` and mining `item`.
pub fn load_quest(data: &QuestData, db: &mut Database, name: &str) -> relational::Result<()> {
    db.execute(&format!("CREATE TABLE {name} (tr INT, item VARCHAR)"))?;
    let rows = data
        .rows()
        .map(|(tr, item)| vec![Value::Int(tr), Value::Str(format!("i{item:05}"))]);
    db.catalog_mut().table_mut(name)?.insert_all(rows)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quest_loads_as_tr_item() {
        let data = generate_quest(&QuestConfig {
            transactions: 10,
            ..QuestConfig::default()
        });
        let mut db = Database::new();
        load_quest(&data, &mut db, "Sales").unwrap();
        let rs = db.query("SELECT COUNT(DISTINCT tr) FROM Sales").unwrap();
        assert_eq!(rs.scalar().unwrap(), &Value::Int(10));
    }
}
