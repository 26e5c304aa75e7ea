//! Thread-count determinism suite: the runtime contract says the same seed
//! produces bit-identical metrics at any `BENCHTEMP_THREADS` setting.
//!
//! The pool reads `BENCHTEMP_THREADS` once per process, so each setting runs
//! in a child process (`common::child`): the driver test re-invokes this
//! test binary, the worker test trains a small model through the full
//! link-prediction pipeline (big enough to cross the parallel matmul
//! threshold) and prints the exact bit patterns of every metric, and the
//! driver compares the lines across thread counts.

mod common;

use benchtemp_core::dataloader::LinkPredSplit;
use benchtemp_core::pipeline::{train_link_prediction, TrainConfig};
use benchtemp_graph::generators::GeneratorConfig;
use common::{MlpEdgeModel, NODE_DIM};

/// Child-process worker: runs the pipeline and prints every metric's exact
/// bit pattern. Skipped unless spawned by the driver below.
#[test]
fn determinism_child_worker() {
    if !common::child::is_child() {
        return;
    }
    let mut cfg = GeneratorConfig::small("det", 11);
    cfg.num_edges = 1200;
    cfg.node_dim = NODE_DIM;
    let graph = cfg.generate();
    let split = LinkPredSplit::new(&graph, 7);
    let train_cfg = TrainConfig {
        max_epochs: 3,
        ..TrainConfig::default()
    };
    let mut model = MlpEdgeModel::new(3);
    let run = train_link_prediction(&mut model, &graph, &split, &train_cfg);

    let mut bits = Vec::new();
    for m in [run.transductive, run.inductive, run.new_old, run.new_new] {
        bits.push(format!("{:016x}", m.auc.to_bits()));
        bits.push(format!("{:016x}", m.ap.to_bits()));
        bits.push(format!("{}", m.n_edges));
    }
    bits.push(format!("{:016x}", run.best_val_ap.to_bits()));
    for l in &run.epoch_losses {
        bits.push(format!("{:08x}", l.to_bits()));
    }
    println!("RESULT {}", bits.join(" "));
}

fn run_child(envs: &[(&str, &str)]) -> String {
    common::child::run_child("determinism_child_worker", envs)
}

/// The contract itself: one thread vs four threads, bit-identical metrics.
#[test]
fn metrics_bit_identical_across_thread_counts() {
    if common::child::is_child() {
        return; // don't recurse inside a child process
    }
    let single = run_child(&[("BENCHTEMP_THREADS", "1")]);
    let quad = run_child(&[("BENCHTEMP_THREADS", "4")]);
    assert_eq!(single, quad, "metrics must not depend on the thread count");
}

/// The sanitizer is observation-only: arming `BENCHTEMP_SANITIZE=1` must
/// not change a single metric bit (it only *checks* slot claims, tape
/// accounting, finite gradients and the parameter cone; it never reorders or
/// perturbs work). The model's input is a constant leaf, so every backward
/// pass in the sanitized child also asserts that no node outside the cone
/// holds a gradient.
#[test]
fn metrics_bit_identical_with_sanitizer_on() {
    if common::child::is_child() {
        return; // don't recurse inside a child process
    }
    let plain = run_child(&[("BENCHTEMP_THREADS", "4")]);
    let sanitized = run_child(&[("BENCHTEMP_THREADS", "4"), ("BENCHTEMP_SANITIZE", "1")]);
    assert_eq!(plain, sanitized, "sanitize mode must not reach results");
}
