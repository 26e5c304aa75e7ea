//! Determinism suite for the filtered-negative ranking path (DESIGN.md §14).
//!
//! Two contracts, both witnessed by exact bit patterns printed from child
//! processes (the pool reads `BENCHTEMP_THREADS` once per process, so each
//! thread count gets its own process — which also makes every comparison a
//! *cross-process* comparison, the reproducibility bar for published
//! leaderboard numbers):
//!
//! 1. `FilteredNegativeSet` is a pure function of (graph, split, strategy,
//!    k, seed): identical digests at any thread count, in any process.
//! 2. MRR/Hits@K flow through the pipeline without absorbing thread-count
//!    noise: the full ranking metric set is bit-identical at 1 vs 4
//!    threads, and enabling ranking leaves AUC/AP bits untouched.

mod common;

use benchtemp_core::dataloader::LinkPredSplit;
use benchtemp_core::pipeline::{train_link_prediction, TrainConfig};
use benchtemp_core::{FilteredNegativeSet, NegativeStrategy};
use benchtemp_graph::generators::GeneratorConfig;
use common::child::{is_child, run_child};
use common::{MlpEdgeModel, NODE_DIM};

fn fixture() -> (
    benchtemp_graph::temporal_graph::TemporalGraph,
    LinkPredSplit,
) {
    let mut cfg = GeneratorConfig::small("rank-det", 29);
    cfg.num_edges = 1200;
    cfg.node_dim = NODE_DIM;
    let graph = cfg.generate();
    let split = LinkPredSplit::new(&graph, 7);
    (graph, split)
}

/// Child worker: candidate-set digests for all three pools, then the full
/// ranking metric bits from a trained pipeline run.
#[test]
fn ranking_child_worker() {
    if !is_child() {
        return;
    }
    let (graph, split) = fixture();

    let mut bits = Vec::new();
    for strategy in [
        NegativeStrategy::Random,
        NegativeStrategy::Historical,
        NegativeStrategy::Inductive,
    ] {
        let set = FilteredNegativeSet::build(&graph, &split.train, &split.test, strategy, 10, 99);
        bits.push(format!("{:016x}", set.digest()));
    }

    let cfg = TrainConfig {
        max_epochs: 3,
        rank_negatives: 10,
        ..TrainConfig::default()
    };
    let mut model = MlpEdgeModel::new(3);
    let run = train_link_prediction(&mut model, &graph, &split, &cfg);
    for m in [run.transductive, run.inductive, run.new_old, run.new_new] {
        bits.push(format!("{:016x}", m.auc.to_bits()));
        bits.push(format!("{:016x}", m.ap.to_bits()));
        let r = m.ranking.expect("rank_negatives > 0 must produce ranking");
        for v in [r.mrr, r.hits_at_1, r.hits_at_3, r.hits_at_10] {
            bits.push(format!("{:016x}", v.to_bits()));
        }
        bits.push(format!("{}", m.n_edges));
    }
    println!("RESULT {}", bits.join(" "));
}

/// Contract 1 + 2: digests and ranking metrics are bit-identical across
/// thread counts, compared across separate processes.
#[test]
fn ranking_bits_identical_across_threads_and_processes() {
    if is_child() {
        return; // don't recurse inside a child process
    }
    let single = run_child("ranking_child_worker", &[("BENCHTEMP_THREADS", "1")]);
    let quad = run_child("ranking_child_worker", &[("BENCHTEMP_THREADS", "4")]);
    assert_eq!(
        single, quad,
        "filtered-negative sets / MRR must not depend on the thread count"
    );
    // Same config in a third process: cross-process stability, not just
    // agreement between two equally-wrong runs.
    let again = run_child("ranking_child_worker", &[("BENCHTEMP_THREADS", "4")]);
    assert_eq!(
        quad, again,
        "ranking results must be stable across processes"
    );
}

/// Enabling the ranking pass must not perturb AUC/AP: candidate scoring
/// runs on an isolated RNG and mutates no model state, so the paired
/// AUC/AP bits with `rank_negatives = 10` match a run with ranking off.
#[test]
fn enabling_ranking_leaves_auc_ap_bits_untouched() {
    if is_child() {
        return;
    }
    let (graph, split) = fixture();
    let run_with = |rank_negatives: usize| {
        let cfg = TrainConfig {
            max_epochs: 3,
            rank_negatives,
            ..TrainConfig::default()
        };
        let mut model = MlpEdgeModel::new(3);
        train_link_prediction(&mut model, &graph, &split, &cfg)
    };
    let off = run_with(0);
    let on = run_with(10);
    for (a, b) in [
        (&off.transductive, &on.transductive),
        (&off.inductive, &on.inductive),
        (&off.new_old, &on.new_old),
        (&off.new_new, &on.new_new),
    ] {
        assert_eq!(a.auc.to_bits(), b.auc.to_bits(), "ranking perturbed AUC");
        assert_eq!(a.ap.to_bits(), b.ap.to_bits(), "ranking perturbed AP");
        assert!(a.ranking.is_none() && b.ranking.is_some());
    }
    assert_eq!(
        off.epoch_losses, on.epoch_losses,
        "ranking perturbed training"
    );
}
