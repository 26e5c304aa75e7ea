//! Byte-equivalence of the SoA frontier gather path against per-row
//! reference gathers.
//!
//! The frontier engine emits a pre-resolved `feat_idx` column and the
//! models gather features through `Tape::gather_rows_from` (pooled,
//! run-length coalesced). Both are pure layout/execution choices, so this
//! test pins them bitwise over a seeded grid of hop counts × sampling
//! strategies — with the index lists exactly as the frontier produces them,
//! duplicates and masked (padded) slots included — against the per-slot
//! event resolution and a one-row-at-a-time copy loop.

use benchtemp_core::pipeline::StreamContext;
use benchtemp_graph::generators::GeneratorConfig;
use benchtemp_graph::neighbors::SamplingStrategy;
use benchtemp_graph::paged::NeighborBackend;
use benchtemp_graph::NeighborFinder;
use benchtemp_models::common::{NeighborBatch, NodeMemory};
use benchtemp_tensor::{init, Graph, Matrix, ParamStore};

const STRATS: [SamplingStrategy; 4] = [
    SamplingStrategy::MostRecent,
    SamplingStrategy::Uniform,
    SamplingStrategy::TemporalExp { alpha: 0.05 },
    SamplingStrategy::TemporalSafe,
];

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Reference gather: the bits of `src.row(i)` for each index, one row copy
/// at a time.
fn per_row_bits(src: &Matrix, indices: &[usize]) -> Vec<u32> {
    indices
        .iter()
        .flat_map(|&i| src.row(i).iter().map(|v| v.to_bits()))
        .collect()
}

#[test]
fn frontier_gathers_match_scalar_baselines_bitwise() {
    let g = GeneratorConfig::small("soa-gather", 4021).generate();
    let nf = NeighborFinder::from_events(g.num_nodes, &g.events);
    let ctx = StreamContext {
        graph: &g,
        neighbors: NeighborBackend::Resident(&nf),
    };
    let store = ParamStore::new();

    // Roots: well-connected late endpoints plus the same nodes queried just
    // after the stream starts, where they have little or no history — the
    // early queries force padded slots into every hop level.
    let late = &g.events[g.events.len() - 8..];
    let early_t = g.events[1].t;
    let mut roots: Vec<usize> = late.iter().map(|e| e.src).collect();
    let mut times: Vec<f64> = late.iter().map(|e| e.t).collect();
    roots.extend(late.iter().map(|e| e.src));
    times.extend((0..late.len()).map(|_| early_t));

    let k = 5;
    let mut saw_masked = false;
    let mut saw_duplicate = false;
    for hops in [1usize, 2, 3] {
        for (si, strat) in STRATS.into_iter().enumerate() {
            let seed = 9000 + (hops * 10 + si) as u64;
            let f = ctx
                .neighbors
                .sample_frontier(&roots, &times, k, hops, strat, seed);
            assert_eq!(f.hops.len(), hops);
            for hop in f.hops {
                // The pre-resolved feature column must equal the per-slot
                // scalar resolution the models used to run: a real slot
                // points at its event's edge-feature row, a padded slot at
                // row 0.
                for s in 0..hop.len() {
                    let expect = if hop.mask[s] {
                        g.events[hop.event_idx[s]].feat_idx
                    } else {
                        0
                    };
                    assert_eq!(
                        hop.feat_idx[s], expect,
                        "feat_idx diverged at slot {s} (hops={hops}, strat {si})"
                    );
                }
                saw_masked |= hop.mask.iter().any(|&m| !m);
                let mut sorted = hop.nodes.clone();
                sorted.sort_unstable();
                saw_duplicate |= sorted.windows(2).any(|w| w[0] == w[1]);

                let nb = NeighborBatch::from_hop(hop, k);
                let mut gr = Graph::new(&store);
                let nv = nb.node_feats_var(&mut gr, &ctx);
                let ev = nb.edge_feats_var(&mut gr, &ctx);
                assert_eq!(
                    bits(gr.value(nv)),
                    per_row_bits(&g.node_features, &nb.ids),
                    "node feature gather diverged (hops={hops}, strat {si})"
                );
                assert_eq!(
                    bits(gr.value(ev)),
                    per_row_bits(&g.edge_features, &nb.feat_idx),
                    "edge feature gather diverged (hops={hops}, strat {si})"
                );
            }
        }
    }
    assert!(saw_masked, "grid must exercise masked (padded) slots");
    assert!(saw_duplicate, "grid must exercise duplicate indices");
}

#[test]
fn memory_rows_var_matches_scalar_rows_bitwise() {
    let n = 64;
    let d = 24;
    let mut mem = NodeMemory::new(n, d);
    let mut rng = init::rng(11);
    let values = init::randn(n, d, 1.0, &mut rng);
    let nodes: Vec<usize> = (0..n).collect();
    mem.write(&nodes, &values, &vec![1.0; n]);

    // Frontier-shaped access: repeats, back-jumps, and an ascending run.
    let mut idx: Vec<usize> = vec![3, 3, 3, 17, 5, 6, 7, 8, 0, 63, 63, 2];
    idx.extend(40..52);
    let store = ParamStore::new();
    let mut gr = Graph::new(&store);
    let mv = mem.rows_var(&mut gr, &idx);
    assert_eq!(
        bits(gr.value(mv)),
        per_row_bits(&values, &idx),
        "memory row gather diverged"
    );
}
