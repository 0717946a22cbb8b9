//! Seeded workload inputs.
//!
//! Each generator draws its dataset from the repository's own synthetic
//! models with the model seed fixed, then uses the benchmark seed to
//! permute everything that carries no mining structure: basket order and
//! ids, row order, and the labels of items and customers (a bijection, so
//! prices stay attached to their rows). Every seed therefore gives new
//! inputs with identical mining work — the same rule counts, the same
//! cache outcomes — which is what lets the benchmark pin rule counts and
//! compare timings across seeds.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use datagen::rng::Rng;
use datagen::{generate_quest, generate_retail, load_quest, QuestConfig, QuestData, RetailConfig};
use relational::Database;

/// The Quest and retail model seed: the repository's default, which the
/// ROADMAP baseline was measured on.
const MODEL_SEED: u64 = 42;

/// Salts keep the permutations of different inputs independent.
const SALT_QUEST: u64 = 0x5155_4553_5401;
const SALT_RETAIL: u64 = 0x5245_5441_494c;

/// A uniformly random permutation of `0..n` (Fisher–Yates).
pub fn permutation(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range_usize(0, i + 1);
        p.swap(i, j);
    }
    p
}

/// The Quest family of the ROADMAP baseline (T8, 40 patterns, 150 items)
/// at `transactions` baskets.
fn quest_config(transactions: usize) -> QuestConfig {
    QuestConfig {
        transactions,
        avg_transaction_size: 8.0,
        patterns: 40,
        items: 150,
        seed: MODEL_SEED,
        ..QuestConfig::default()
    }
}

/// Quest baskets with seed-permuted basket order and item labels.
pub fn quest(transactions: usize, seed: u64) -> QuestData {
    let base = generate_quest(&quest_config(transactions));
    let universe = base
        .transactions
        .iter()
        .flatten()
        .map(|&i| i as usize + 1)
        .max()
        .unwrap_or(0)
        .max(base.config.items as usize);
    let mut rng = Rng::seed_from_u64(seed ^ SALT_QUEST);
    let relabel = permutation(universe, &mut rng);
    let order = permutation(base.transactions.len(), &mut rng);
    let transactions = order
        .iter()
        .map(|&t| {
            let mut items: Vec<u32> = base.transactions[t]
                .iter()
                .map(|&i| relabel[i as usize] as u32)
                .collect();
            items.sort_unstable();
            items
        })
        .collect();
    QuestData {
        config: base.config,
        transactions,
    }
}

/// The label `datagen::load_quest` gives item `i`.
pub fn item_label(i: u32) -> String {
    format!("i{i:05}")
}

/// The retail model of the temporal example at `customers` customers.
fn retail_config(customers: usize) -> RetailConfig {
    RetailConfig {
        customers,
        dates_per_customer: 4,
        items_per_date: 2.5,
        catalog: 30,
        expensive_items: 10,
        follow_up_probability: 0.7,
        seed: MODEL_SEED,
    }
}

/// Retail purchases with seed-permuted row order, customer names and item
/// names.
pub fn retail(customers: usize, seed: u64) -> datagen::RetailData {
    let mut data = generate_retail(&retail_config(customers));
    let mut rng = Rng::seed_from_u64(seed ^ SALT_RETAIL);
    let rename = |names: Vec<String>, rng: &mut Rng| -> BTreeMap<String, String> {
        let perm = permutation(names.len(), rng);
        names
            .iter()
            .enumerate()
            .map(|(k, name)| (name.clone(), names[perm[k]].clone()))
            .collect()
    };
    let distinct = |f: fn(&datagen::retail::PurchaseRow) -> &String| -> Vec<String> {
        let set: std::collections::BTreeSet<String> =
            data.rows.iter().map(|r| f(r).clone()).collect();
        set.into_iter().collect()
    };
    let customers = distinct(|r| &r.customer);
    let items = distinct(|r| &r.item);
    let customer_map = rename(customers, &mut rng);
    let item_map = rename(items, &mut rng);
    let order = permutation(data.rows.len(), &mut rng);
    let rows = order
        .iter()
        .map(|&k| {
            let mut row = data.rows[k].clone();
            row.customer = customer_map[&row.customer].clone();
            row.item = item_map[&row.item].clone();
            row
        })
        .collect();
    data.rows = rows;
    data
}

/// Time spent making and loading one input.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoadTimes {
    pub generate: Duration,
    pub load: Duration,
}

/// Generate `transactions` seeded Quest baskets and load them into `db`
/// as `table (tr INT, item VARCHAR)`.
pub fn load_baskets(
    db: &mut Database,
    table: &str,
    transactions: usize,
    seed: u64,
) -> relational::Result<(QuestData, LoadTimes)> {
    let t = Instant::now();
    let data = quest(transactions, seed);
    let generate = t.elapsed();
    let t = Instant::now();
    load_quest(&data, db, table)?;
    Ok((
        data,
        LoadTimes {
            generate,
            load: t.elapsed(),
        },
    ))
}

/// Generate seeded retail purchases for `customers` customers and load
/// them into `db` as `table` with the paper's Figure 1 schema.
pub fn load_purchases(
    db: &mut Database,
    table: &str,
    customers: usize,
    seed: u64,
) -> relational::Result<(datagen::RetailData, LoadTimes)> {
    let t = Instant::now();
    let data = retail(customers, seed);
    let generate = t.elapsed();
    let t = Instant::now();
    data.load(db, table)?;
    Ok((
        data,
        LoadTimes {
            generate,
            load: t.elapsed(),
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(quest(200, 1).transactions, quest(200, 1).transactions);
        assert_ne!(quest(200, 1).transactions, quest(200, 2).transactions);
        assert_eq!(retail(20, 1).rows, retail(20, 1).rows);
        assert_ne!(retail(20, 1).rows, retail(20, 2).rows);
    }

    #[test]
    fn seeds_only_relabel_and_reorder() {
        let shape = |d: &QuestData| {
            let mut sizes: Vec<usize> = d.transactions.iter().map(Vec::len).collect();
            sizes.sort_unstable();
            sizes
        };
        assert_eq!(shape(&quest(300, 1)), shape(&quest(300, 9)));
        let mut a: Vec<i64> = retail(30, 1).rows.iter().map(|r| r.price).collect();
        let mut b: Vec<i64> = retail(30, 9).rows.iter().map(|r| r.price).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn permutation_is_a_bijection() {
        let mut rng = Rng::seed_from_u64(7);
        let mut p = permutation(100, &mut rng);
        p.sort_unstable();
        assert_eq!(p, (0..100).collect::<Vec<_>>());
    }
}
