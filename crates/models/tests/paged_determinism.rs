//! Cross-process, cross-thread-count bit-identity of the paged store
//! backend (DESIGN.md §16).
//!
//! Each child process bulk-loads the same generated graph into an on-disk
//! store with a 64 KiB page-cache budget — small enough that sampling and
//! training continually evict pages — and then asserts, in-process, that
//! (a) a multi-hop frontier expanded through the paged backend matches the
//! resident CSR engine bit for bit, and (b) a short TGAT training
//! trajectory driven through a paged `StreamContext` matches the same
//! model trained resident. The child prints an FNV-1a digest over both;
//! 1-thread and 4-thread children must print the same bits, which also
//! witnesses that eviction scheduling never leaks into results.

#[path = "../../core/tests/common/child.rs"]
mod child;

use benchtemp_core::pipeline::{StreamContext, TgnnModel};
use benchtemp_graph::generators::GeneratorConfig;
use benchtemp_graph::paged::{NeighborBackend, PagedNeighborFinder, StoreOptions};
use benchtemp_graph::{NeighborFinder, SamplingStrategy};
use benchtemp_models::common::ModelConfig;
use benchtemp_models::tgat::Tgat;
use benchtemp_obs::counters::STORE_PAGE_EVICTIONS;

const CACHE_BUDGET: usize = 64 * 1024;

/// Digest every column of every hop of a frontier.
fn frontier_bytes(f: &benchtemp_graph::Frontier, bytes: &mut Vec<u8>) {
    for hop in &f.hops {
        for &n in &hop.nodes {
            bytes.extend((n as u64).to_le_bytes());
        }
        for &t in &hop.times {
            bytes.extend(t.to_bits().to_le_bytes());
        }
        for &e in &hop.event_idx {
            bytes.extend((e as u64).to_le_bytes());
        }
        for &d in &hop.dts {
            bytes.extend(d.to_bits().to_le_bytes());
        }
        for &m in &hop.mask {
            bytes.push(m as u8);
        }
    }
}

/// Train a small TGAT for a few batches through `ctx`, digesting every
/// loss bit and the final eval scores.
fn trajectory_bytes(g: &benchtemp_graph::TemporalGraph, ctx: &StreamContext) -> Vec<u8> {
    let cfg = ModelConfig {
        embed_dim: 16,
        time_dim: 8,
        heads: 2,
        neighbors: 3,
        layers: 2,
        ..Default::default()
    };
    let mut model = Tgat::new(cfg, g);
    let mut bytes: Vec<u8> = Vec::new();
    let batch_size = 20;
    for (i, batch) in g.events.chunks(batch_size).take(6).enumerate() {
        let negs: Vec<usize> = batch
            .iter()
            .enumerate()
            .map(|(j, _)| g.num_users + (i * batch_size + j) % (g.num_nodes - g.num_users))
            .collect();
        let loss = model.train_batch(ctx, batch, &negs);
        bytes.extend(loss.to_bits().to_le_bytes());
    }
    let eval = &g.events[g.num_events() - batch_size..];
    let negs: Vec<usize> = eval.iter().map(|_| g.num_users).collect();
    let (pos, neg) = model.eval_batch(ctx, eval, &negs);
    for s in pos.iter().chain(neg.iter()) {
        bytes.extend(s.to_bits().to_le_bytes());
    }
    bytes
}

/// Full paged-vs-resident witness for one process; returns the digest.
fn paged_digest() -> u64 {
    let mut cfg = GeneratorConfig::small("pageddet", 37);
    cfg.num_edges = 3_000; // ≫ 64 KiB of store columns → guaranteed evictions
    let g = cfg.generate();
    let nf = NeighborFinder::from_events(g.num_nodes, &g.events);
    let dir = std::env::temp_dir().join(format!("benchtemp-paged-det-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = StoreOptions {
        cache_budget_bytes: Some(CACHE_BUDGET),
        run_events: 512,
    };
    let paged = PagedNeighborFinder::bulk_load_graph(&dir, &g, &opts).expect("bulk load");

    let ev0 = STORE_PAGE_EVICTIONS.get();
    // (a) Frontier bit-identity under eviction pressure.
    let roots: Vec<usize> = g.events.iter().step_by(7).map(|e| e.src).collect();
    let times: Vec<f64> = g.events.iter().step_by(7).map(|e| e.t).collect();
    let resident_f = nf.sample_frontier(&roots, &times, 8, 2, SamplingStrategy::TemporalSafe, 55);
    let paged_f = paged.sample_frontier(&roots, &times, 8, 2, SamplingStrategy::TemporalSafe, 55);
    let (mut rb, mut pb) = (Vec::new(), Vec::new());
    frontier_bytes(&resident_f, &mut rb);
    frontier_bytes(&paged_f, &mut pb);
    assert_eq!(
        child::fnv1a(rb.into_iter()),
        child::fnv1a(pb.iter().copied()),
        "paged frontier must be bit-identical to resident"
    );

    // (b) Training-trajectory bit-identity through a paged StreamContext.
    let resident_traj = trajectory_bytes(
        &g,
        &StreamContext {
            graph: &g,
            neighbors: NeighborBackend::Resident(&nf),
        },
    );
    let paged_traj = trajectory_bytes(
        &g,
        &StreamContext {
            graph: &g,
            neighbors: NeighborBackend::Paged(&paged),
        },
    );
    assert_eq!(
        child::fnv1a(resident_traj.into_iter()),
        child::fnv1a(paged_traj.iter().copied()),
        "TGAT trajectory through the paged backend must match resident"
    );
    assert!(
        STORE_PAGE_EVICTIONS.get() > ev0,
        "64 KiB budget must evict mid-run for this test to mean anything"
    );

    drop(paged);
    let _ = std::fs::remove_dir_all(&dir);
    child::fnv1a(pb.into_iter().chain(paged_traj))
}

/// Child-process worker: prints the digest. Skipped unless spawned below.
#[test]
fn paged_child_worker() {
    if !child::is_child() {
        return;
    }
    println!("RESULT {:016x}", paged_digest());
}

/// 1-thread vs 4-thread children: the paged frontier and the paged
/// training trajectory are one bit pattern regardless of worker count or
/// eviction interleaving.
#[test]
fn paged_backend_bit_identical_across_processes_and_threads() {
    if child::is_child() {
        return; // don't recurse inside a child process
    }
    let single = child::run_child("paged_child_worker", &[("BENCHTEMP_THREADS", "1")]);
    let quad = child::run_child("paged_child_worker", &[("BENCHTEMP_THREADS", "4")]);
    assert_eq!(
        single, quad,
        "paged sampling/training must not depend on thread count"
    );
}
