//! Cross-process bit-identity of the anonymized-walk features.
//!
//! `position_counts` used to return a `HashMap`, so anything draining it —
//! the CAWN/NeurTW feature assembly — saw a `RandomState`-dependent order
//! that differed *between processes* even with identical seeds. The
//! `no-hashmap-iteration-in-numeric-path` audit rule now bans that, and
//! `position_counts` emits sorted keys via `BTreeMap`. This regression test
//! proves the property the fix restores: two separate processes (fresh
//! `RandomState` each) hash the drained feature stream to the same bits.

#[path = "../../core/tests/common/child.rs"]
mod child;

use std::collections::BTreeMap;

use benchtemp_core::pipeline::StreamContext;
use benchtemp_graph::generators::GeneratorConfig;
use benchtemp_graph::neighbors::{NeighborFinder, SamplingStrategy};
use benchtemp_graph::paged::NeighborBackend;
use benchtemp_models::walks::{anonymize, position_counts, sample_walks};
use benchtemp_tensor::init;

/// The walk-feature pipeline a CAWN-style model runs per candidate edge,
/// with the count maps drained in their iteration order — exactly the
/// surface the HashMap bug corrupted.
fn walk_feature_digest() -> u64 {
    let g = GeneratorConfig::small("walkdet", 29).generate();
    let nf = NeighborFinder::from_events(g.num_nodes, &g.events);
    let ctx = StreamContext {
        graph: &g,
        neighbors: NeighborBackend::Resident(&nf),
    };
    let mut rng = init::rng(5);
    let mut bytes: Vec<u8> = Vec::new();
    for ev in &g.events[g.num_events() - 50..] {
        let wu = sample_walks(
            &ctx,
            ev.src,
            ev.t,
            4,
            2,
            SamplingStrategy::Uniform,
            &mut rng,
        );
        let wv = sample_walks(
            &ctx,
            ev.dst,
            ev.t,
            4,
            2,
            SamplingStrategy::Uniform,
            &mut rng,
        );
        let cu: BTreeMap<usize, Vec<f32>> = position_counts(&wu);
        let cv = position_counts(&wv);
        // Drain in iteration order: sorted by construction after the fix.
        for (node, hits) in cu.iter().chain(cv.iter()) {
            bytes.extend(node.to_le_bytes());
            for h in hits {
                bytes.extend(h.to_bits().to_le_bytes());
            }
            for f in anonymize(*node, &cu, &cv, 2, 4) {
                bytes.extend(f.to_bits().to_le_bytes());
            }
        }
    }
    child::fnv1a(bytes.into_iter())
}

/// Child-process worker: prints the digest. Skipped unless spawned below.
#[test]
fn walk_child_worker() {
    if !child::is_child() {
        return;
    }
    println!("RESULT {:016x}", walk_feature_digest());
}

/// Two fresh processes — two fresh `RandomState`s — one bit pattern.
#[test]
fn walk_features_bit_identical_across_processes() {
    if child::is_child() {
        return; // don't recurse inside a child process
    }
    let a = child::run_child("walk_child_worker", &[]);
    let b = child::run_child("walk_child_worker", &[]);
    assert_eq!(
        a, b,
        "walk-feature emission order must not depend on RandomState"
    );
    // And the in-process digest agrees too: the order is a property of the
    // data, not of the process.
    assert_eq!(a, format!("RESULT {:016x}", walk_feature_digest()));
}
