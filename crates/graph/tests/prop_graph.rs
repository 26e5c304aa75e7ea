//! Property-style tests on the graph substrate: generator invariants over
//! randomized configurations, neighbor-finder correctness vs a naive scan,
//! reindexing bijectivity, histogram conservation.
//!
//! Configurations are drawn from a seeded in-repo [`Pcg32`] stream rather
//! than an external property-testing framework, so the suite is fully
//! deterministic and builds offline. Each case is tagged with its draw index
//! in assertion messages for replayability.

use benchtemp_graph::features::FeatureInit;
use benchtemp_graph::generators::{GeneratorConfig, LabelGenConfig};
use benchtemp_graph::neighbors::{NeighborEvent, NeighborFinder, SampleScratch, SamplingStrategy};
use benchtemp_graph::paged::NeighborBackend;
use benchtemp_graph::reindex::{reindex_heterogeneous, reindex_homogeneous, RawInteraction};
use benchtemp_graph::stats::temporal_histogram;
use benchtemp_tensor::{init, Pcg32};

const CASES: usize = 48;

/// Up to `k` samples through the resident backend, fresh buffers.
fn sample(
    nf: &NeighborFinder,
    node: usize,
    t: f64,
    k: usize,
    strategy: SamplingStrategy,
    rng: &mut init::SeededRng,
) -> Vec<NeighborEvent> {
    let mut out = Vec::new();
    let mut scratch = SampleScratch::new();
    NeighborBackend::Resident(nf).sample_into(node, t, k, strategy, rng, &mut scratch, &mut out);
    out
}

/// Draw a random-but-valid generator configuration.
fn random_config(rng: &mut Pcg32) -> GeneratorConfig {
    GeneratorConfig {
        name: "prop".into(),
        bipartite: rng.gen_bool(0.5),
        num_users: rng.gen_range(2usize..40),
        num_items: rng.gen_range(2usize..40),
        num_edges: rng.gen_range(50usize..800),
        edge_dim: 4,
        time_span: 500.0,
        granularity_levels: if rng.gen_bool(0.5) {
            Some(rng.gen_range(1usize..20))
        } else {
            None
        },
        recurrence: rng.gen_range(0.0f64..0.95),
        recency_bias: 0.5,
        recency_window: 500,
        zipf_exponent: 0.8,
        communities: rng.gen_range(1usize..6),
        affinity: rng.gen_range(0.0f64..1.0),
        burstiness: rng.gen_range(0.0f64..0.8),
        feature_noise: 0.1,
        label: None,
        node_feature_init: FeatureInit::Zeros,
        node_dim: 4,
        seed: rng.gen_range(0u64..1000),
    }
}

/// Random (user, item) pairs for the reindexing tests.
fn random_pairs(rng: &mut Pcg32, max_id: u64) -> Vec<(u64, u64)> {
    let n = rng.gen_range(1usize..200);
    (0..n)
        .map(|_| (rng.gen_range(0..max_id), rng.gen_range(0..max_id)))
        .collect()
}

/// Every generated graph satisfies the structural invariants.
#[test]
fn generated_graphs_are_always_valid() {
    let mut rng = Pcg32::seed_from_u64(0xA11CE);
    for case in 0..CASES {
        let cfg = random_config(&mut rng);
        let g = cfg.generate();
        assert_eq!(g.validate(), Ok(()), "case {case}");
        assert_eq!(g.num_events(), cfg.num_edges, "case {case}");
        assert_eq!(g.num_nodes, cfg.total_nodes(), "case {case}");
    }
}

/// Generation is a pure function of the config.
#[test]
fn generation_is_deterministic() {
    let mut rng = Pcg32::seed_from_u64(0xB0B);
    for case in 0..CASES {
        let cfg = random_config(&mut rng);
        let a = cfg.generate();
        let b = cfg.generate();
        assert_eq!(a.events, b.events, "case {case}");
    }
}

/// `NeighborFinder::before` matches a naive scan for arbitrary queries.
#[test]
fn neighbor_finder_matches_naive() {
    let mut rng = Pcg32::seed_from_u64(0xCAFE);
    for case in 0..CASES {
        let cfg = random_config(&mut rng);
        let t = rng.gen_range(0.0f64..600.0);
        let g = cfg.generate();
        let nf = NeighborFinder::from_events(g.num_nodes, &g.events);
        let node = rng.gen_range(0usize..g.num_nodes);
        let naive: Vec<usize> = g
            .events
            .iter()
            .enumerate()
            .filter(|(_, e)| e.t < t && (e.src == node || e.dst == node))
            .map(|(i, _)| i)
            .collect();
        let fast: Vec<usize> = nf.before(node, t).iter().map(|e| e.event_idx).collect();
        assert_eq!(naive, fast, "case {case} node {node} t {t}");
    }
}

/// Sampled neighbors always come strictly before the query time.
#[test]
fn sampling_never_leaks_future() {
    let mut rng = Pcg32::seed_from_u64(0xD00D);
    for case in 0..CASES {
        let cfg = random_config(&mut rng);
        let t = rng.gen_range(1.0f64..600.0);
        let g = cfg.generate();
        let nf = NeighborFinder::from_events(g.num_nodes, &g.events);
        let mut sample_rng = init::rng(rng.gen_range(0u64..100));
        for strategy in [
            SamplingStrategy::MostRecent,
            SamplingStrategy::Uniform,
            SamplingStrategy::TemporalSafe,
            SamplingStrategy::TemporalExp { alpha: 0.1 },
        ] {
            for node in 0..g.num_nodes.min(5) {
                let s = sample(&nf, node, t, 4, strategy, &mut sample_rng);
                assert!(s.iter().all(|e| e.t < t), "case {case} node {node} t {t}");
            }
        }
    }
}

/// Histogram bins conserve the event count.
#[test]
fn histogram_conserves_events() {
    let mut rng = Pcg32::seed_from_u64(0xF00D);
    for case in 0..CASES {
        let cfg = random_config(&mut rng);
        let bins = rng.gen_range(1usize..100);
        let g = cfg.generate();
        let h = temporal_histogram(&g, bins);
        assert_eq!(
            h.iter().sum::<usize>(),
            g.num_events(),
            "case {case} bins {bins}"
        );
    }
}

/// Heterogeneous reindexing: injective, contiguous, users below items.
#[test]
fn hetero_reindex_bijective() {
    let mut rng = Pcg32::seed_from_u64(0x8E7);
    for case in 0..CASES {
        let pairs = random_pairs(&mut rng, 10_000);
        let raw: Vec<RawInteraction> = pairs
            .iter()
            .enumerate()
            .map(|(i, &(user, item))| RawInteraction {
                user,
                item,
                t: i as f64,
            })
            .collect();
        let rx = reindex_heterogeneous(&raw);
        let mut seen = vec![false; rx.num_nodes];
        for &v in rx.user_map.values().chain(rx.item_map.values()) {
            assert!(!seen[v], "case {case}: duplicate id {v}");
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "case {case}: ids not contiguous");
        assert!(
            rx.user_map.values().all(|&v| v < rx.num_users),
            "case {case}"
        );
        assert!(
            rx.item_map.values().all(|&v| v >= rx.num_users),
            "case {case}"
        );
        // Round trip: every edge maps back to its raw pair.
        for (r, &(src, dst)) in raw.iter().zip(&rx.edges) {
            assert_eq!(rx.user_map[&r.user], src, "case {case}");
            assert_eq!(rx.item_map[&r.item], dst, "case {case}");
        }
    }
}

/// Homogeneous reindexing: one shared id space, order-preserving lookups.
#[test]
fn homo_reindex_consistent() {
    let mut rng = Pcg32::seed_from_u64(0x9090);
    for case in 0..CASES {
        let pairs = random_pairs(&mut rng, 500);
        let raw: Vec<RawInteraction> = pairs
            .iter()
            .enumerate()
            .map(|(i, &(user, item))| RawInteraction {
                user,
                item,
                t: i as f64,
            })
            .collect();
        let rx = reindex_homogeneous(&raw);
        assert_eq!(rx.num_users, rx.num_nodes, "case {case}");
        for (r, &(src, dst)) in raw.iter().zip(&rx.edges) {
            assert_eq!(rx.user_map[&r.user], src, "case {case}");
            assert_eq!(rx.user_map[&r.item], dst, "case {case}");
        }
    }
}

/// Behavior-exact reproduction of the pre-CSR `Vec<Vec<_>>` sampler, kept
/// as the equivalence oracle for the CSR engine: same adjacency indexing,
/// same per-query weight accumulation, same RNG consumption.
mod seed_reference {
    use benchtemp_graph::neighbors::{NeighborEvent, SamplingStrategy};
    use benchtemp_graph::Interaction;
    use benchtemp_tensor::init::SeededRng;

    pub struct SeedNeighborFinder {
        adj: Vec<Vec<NeighborEvent>>,
    }

    impl SeedNeighborFinder {
        pub fn from_events(num_nodes: usize, events: &[Interaction]) -> Self {
            let mut adj: Vec<Vec<NeighborEvent>> = vec![Vec::new(); num_nodes];
            for (idx, ev) in events.iter().enumerate() {
                adj[ev.src].push(NeighborEvent {
                    neighbor: ev.dst,
                    t: ev.t,
                    event_idx: idx,
                });
                adj[ev.dst].push(NeighborEvent {
                    neighbor: ev.src,
                    t: ev.t,
                    event_idx: idx,
                });
            }
            SeedNeighborFinder { adj }
        }

        fn before(&self, node: usize, t: f64) -> &[NeighborEvent] {
            let list = &self.adj[node];
            let cut = list.partition_point(|e| e.t < t);
            &list[..cut]
        }

        pub fn sample(
            &self,
            node: usize,
            t: f64,
            k: usize,
            strategy: SamplingStrategy,
            rng: &mut SeededRng,
        ) -> Vec<NeighborEvent> {
            let hist = self.before(node, t);
            if hist.is_empty() || k == 0 {
                return Vec::new();
            }
            match strategy {
                SamplingStrategy::MostRecent => hist[hist.len().saturating_sub(k)..].to_vec(),
                SamplingStrategy::Uniform => {
                    (0..k).map(|_| hist[rng.gen_range(0..hist.len())]).collect()
                }
                SamplingStrategy::TemporalExp { alpha } => {
                    let weights: Vec<f64> =
                        hist.iter().map(|e| (alpha * (e.t - t)).exp()).collect();
                    weighted_sample(hist, &weights, k, rng)
                }
                SamplingStrategy::TemporalSafe => {
                    let weights: Vec<f64> = hist
                        .iter()
                        .map(|e| {
                            let d = t - e.t;
                            if d <= 0.0 {
                                1.0
                            } else {
                                1.0 / d
                            }
                        })
                        .collect();
                    weighted_sample(hist, &weights, k, rng)
                }
            }
        }
    }

    fn weighted_sample(
        hist: &[NeighborEvent],
        weights: &[f64],
        k: usize,
        rng: &mut SeededRng,
    ) -> Vec<NeighborEvent> {
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in weights {
            acc += if w.is_finite() { w } else { 0.0 };
            cumulative.push(acc);
        }
        if acc <= 0.0 {
            return (0..k).map(|_| hist[rng.gen_range(0..hist.len())]).collect();
        }
        (0..k)
            .map(|_| {
                let x = rng.gen_range(0.0..acc);
                let idx = cumulative.partition_point(|&c| c <= x);
                hist[idx.min(hist.len() - 1)]
            })
            .collect()
    }
}

/// The CSR engine, driven by the same RNG seed stream, produces
/// byte-identical samples to the pre-refactor `Vec<Vec<_>>` implementation
/// for all four strategies. Each strategy runs many queries against one
/// shared RNG pair, so any divergence in RNG *consumption* (not just in
/// returned values) also fails the later queries.
#[test]
fn csr_sampler_bit_matches_seed_layout() {
    let mut rng = Pcg32::seed_from_u64(0x5EED);
    for case in 0..CASES {
        let cfg = random_config(&mut rng);
        let g = cfg.generate();
        let nf = NeighborFinder::from_events(g.num_nodes, &g.events);
        let oracle = seed_reference::SeedNeighborFinder::from_events(g.num_nodes, &g.events);
        for strategy in [
            SamplingStrategy::MostRecent,
            SamplingStrategy::Uniform,
            SamplingStrategy::TemporalExp { alpha: 0.2 },
            SamplingStrategy::TemporalSafe,
        ] {
            let s = rng.gen_range(0u64..1_000_000);
            let mut r_old = init::rng(s);
            let mut r_new = init::rng(s);
            for q in 0..20 {
                let node = rng.gen_range(0usize..g.num_nodes);
                let t = rng.gen_range(0.0f64..600.0);
                let k = rng.gen_range(1usize..8);
                let a = oracle.sample(node, t, k, strategy, &mut r_old);
                let b = sample(&nf, node, t, k, strategy, &mut r_new);
                assert_eq!(a.len(), b.len(), "case {case} q {q} {strategy:?}");
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.neighbor, y.neighbor, "case {case} q {q} {strategy:?}");
                    assert_eq!(x.event_idx, y.event_idx, "case {case} q {q} {strategy:?}");
                    assert_eq!(
                        x.t.to_bits(),
                        y.t.to_bits(),
                        "case {case} q {q} {strategy:?}"
                    );
                }
            }
        }
    }
}

/// `TemporalSafe` empirical frequencies match the naive weighted reference:
/// P(event i) = w_i / Σw with w = 1/(t − t_i).
#[test]
fn temporal_safe_matches_reference_frequencies() {
    use benchtemp_graph::Interaction;
    let ts = [0.0, 50.0, 90.0, 99.0];
    let t = 100.0;
    let events: Vec<Interaction> = ts
        .iter()
        .enumerate()
        .map(|(i, &et)| Interaction {
            src: 0,
            dst: i + 1,
            t: et,
            feat_idx: i,
        })
        .collect();
    let nf = NeighborFinder::from_events(ts.len() + 1, &events);
    // Naive reference distribution.
    let weights: Vec<f64> = ts.iter().map(|&et| 1.0 / (t - et)).collect();
    let total: f64 = weights.iter().sum();
    let expected: Vec<f64> = weights.iter().map(|w| w / total).collect();
    let n = 200_000usize;
    let mut r = init::rng(0xFE11);
    let samples = sample(&nf, 0, t, n, SamplingStrategy::TemporalSafe, &mut r);
    assert_eq!(samples.len(), n);
    let mut counts = vec![0usize; ts.len()];
    for s in &samples {
        counts[s.event_idx] += 1;
    }
    for (i, (&c, &e)) in counts.iter().zip(&expected).enumerate() {
        let emp = c as f64 / n as f64;
        assert!(
            (emp - e).abs() < 0.01,
            "event {i}: empirical {emp:.4} vs expected {e:.4}"
        );
    }
}

/// Label streams hit their configured class count and rough rate.
#[test]
fn labels_rate_and_classes() {
    for seed in 0u64..50 {
        let mut cfg = GeneratorConfig::small("prop-l", seed);
        cfg.num_edges = 2000;
        cfg.label = Some(LabelGenConfig::binary(0.2));
        let g = cfg.generate();
        let labels = g.labels.unwrap();
        assert_eq!(labels.num_classes, 2, "seed {seed}");
        let rate = labels.class_rates()[1];
        assert!(
            (rate - 0.2).abs() < 0.1,
            "seed {seed}: positive rate {rate}"
        );
    }
}
