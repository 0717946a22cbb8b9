//! Randomized agreement suite for the hybrid gid-set representation:
//! for random inputs spanning the density spectrum — from sparse (every
//! set stays a sorted list) to dense (sets flip to bitset words) — every
//! pool member must produce an itemset inventory *bit-identical* to
//! `apriori-count`, which counts supports by subset tests and builds no
//! gid sets at all, at every worker count; and the full core operator
//! must mine the same rule sets.

use minerule::algo::executor::ExecStats;
use minerule::algo::{default_pool, sort_itemsets, LargeItemset, ShardExec, SimpleInput};
use minerule::ast::CardSpec;
use minerule::core_op::{run_core, CoreOptions};
use minerule::directives::{Directives, StatementClass};
use minerule::encoded::{EncodedData, EncodedInput};

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 7];

// The workload generator lives in the fuzz harness
// (`tcdm_fuzz::grammar::random_simple_input`) so the differential fuzzer
// and this suite share one scenario space.
use tcdm_fuzz::grammar::random_simple_input;

/// The density × seed grid. Universes of 12, 60 and 150 groups cross the
/// `len * 32 > universe` threshold at very different list lengths, so the
/// grid exercises list-only, bitset-heavy and genuinely mixed runs.
fn grid() -> Vec<(SimpleInput, String)> {
    let mut inputs = Vec::new();
    for (groups, catalog, density) in [
        (12usize, 18u32, 0.5),
        (60, 25, 0.35),
        (60, 120, 0.06),
        (120, 40, 0.22),
        (120, 300, 0.025),
    ] {
        for seed in [1u64, 2] {
            inputs.push((
                random_simple_input(groups, catalog, density, seed ^ (groups as u64) << 8),
                format!("g={groups} c={catalog} d={density} seed={seed}"),
            ));
        }
    }
    inputs
}

fn mine_sorted(
    miner: &dyn minerule::algo::ItemsetMiner,
    input: &SimpleInput,
    workers: usize,
) -> (Vec<LargeItemset>, ExecStats) {
    let exec = ShardExec::new(workers);
    let mut got = miner.mine_sharded(input, &exec);
    sort_itemsets(&mut got);
    (got, exec.take_stats())
}

/// Every pool member × worker count agrees bit-for-bit with the
/// single-worker `apriori-count` inventory on every grid point, and the
/// grid really drives the density rule down both forms.
#[test]
fn inventories_agree_across_representations_and_workers() {
    let reference_miner = minerule::algo::by_name("apriori-count").unwrap();
    let (mut list_picked, mut bitset_picked, mut mixed_runs) = (0u64, 0u64, 0usize);
    for (input, label) in grid() {
        let (reference, _) = mine_sorted(reference_miner.as_ref(), &input, 1);
        for miner in default_pool() {
            for workers in WORKER_COUNTS {
                let (got, stats) = mine_sorted(miner.as_ref(), &input, workers);
                assert_eq!(
                    got,
                    reference,
                    "{label}: {} diverges from apriori-count at workers={workers}",
                    miner.name()
                );
                list_picked += stats.gidset_list_picked;
                bitset_picked += stats.gidset_bitset_picked;
                if stats.gidset_list_picked > 0 && stats.gidset_bitset_picked > 0 {
                    mixed_runs += 1;
                }
            }
        }
    }
    assert!(list_picked > 0, "no gid set took the list form");
    assert!(bitset_picked > 0, "no gid set took the bitset form");
    assert!(mixed_runs > 0, "no run mixed lists and bitsets");
}

/// Gid-set miners mine the same rules as `apriori-count` through the
/// full core operator too, at every worker count.
#[test]
fn rule_sets_agree_across_representations_through_run_core() {
    let simple = random_simple_input(80, 30, 0.3, 77);
    let input = EncodedInput {
        directives: Directives::default(),
        class: StatementClass::Simple,
        total_groups: simple.total_groups,
        min_groups: simple.min_groups,
        min_support: 0.1,
        min_confidence: 0.2,
        body_card: CardSpec::one_to_n(),
        head_card: CardSpec::one_to_one(),
        data: EncodedData::Simple {
            groups: simple
                .groups
                .iter()
                .enumerate()
                .map(|(g, items)| (g as u32, items.clone()))
                .collect(),
        },
    };
    let run = |algorithm: &str, workers: usize| {
        let out = run_core(
            &input,
            &CoreOptions {
                algorithm: algorithm.into(),
                workers,
                ..CoreOptions::default()
            },
        )
        .unwrap();
        assert!(!out.used_general);
        out.rules
    };
    let reference = run("apriori-count", 1);
    assert!(!reference.is_empty(), "the input yields rules");
    for algorithm in ["apriori", "partition", "sampling", "eclat"] {
        for workers in [1usize, 4] {
            assert_eq!(
                run(algorithm, workers),
                reference,
                "{algorithm} workers={workers}"
            );
        }
    }
}
