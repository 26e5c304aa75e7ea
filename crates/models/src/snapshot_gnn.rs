//! SnapshotGNN — the discrete-time baseline family of §5 Related Work
//! (EvolveGCN/VGRNN style): slice the stream into snapshots, run a static
//! mean-aggregation GCN per snapshot, and evolve node states across
//! snapshots with a GRU.
//!
//! The paper's thesis is that continuous-time models beat this paradigm on
//! interaction streams; having the baseline in the zoo lets the harnesses
//! quantify that gap on the same pipeline.
//!
//! Implementation notes: node states live in a detached [`NodeMemory`]
//! refreshed once per snapshot boundary (as the batch stream crosses into
//! a new window); scoring uses the current states plus a recency feature.
//! Gradients flow through the scoring head and through the state-refresh
//! computation of the most recent boundary, truncated like the TGN family.

use benchtemp_core::efficiency::stage;
use benchtemp_core::pipeline::{Anatomy, StreamContext, TgnnModel};
use benchtemp_graph::snapshots::SnapshotSequence;
use benchtemp_graph::temporal_graph::{Interaction, TemporalGraph};
use benchtemp_obs as obs;
use benchtemp_tensor::nn::{GruCell, Linear, MergeLayer, TimeEncode};
use benchtemp_tensor::{Graph, Matrix};

use crate::common::{pos_neg_targets, BatchView, ModelConfig, ModelCore, NodeMemory};

struct Weights {
    feat_proj: Linear,
    gcn1: Linear,
    gcn2: Linear,
    evolve: GruCell,
    time_enc: TimeEncode,
    decoder: MergeLayer,
}

/// The snapshot-sequence GNN baseline.
pub struct SnapshotGnn {
    weights: Weights,
    core: ModelCore,
    states: NodeMemory,
    /// Number of snapshots the stream is discretized into.
    num_snapshots: usize,
    /// Snapshot index the states currently reflect (-1 = fresh).
    current_snapshot: isize,
    embed_dim: usize,
}

impl SnapshotGnn {
    pub fn new(cfg: ModelConfig, graph: &TemporalGraph) -> Self {
        let mut core = ModelCore::new(cfg.lr, cfg.seed);
        let d = cfg.embed_dim;
        let td = cfg.time_dim;
        let (store, rng) = (&mut core.store, &mut core.rng);
        let weights = Weights {
            feat_proj: Linear::new(store, rng, "feat_proj", graph.node_dim(), d),
            gcn1: Linear::new(store, rng, "gcn1", d, d),
            gcn2: Linear::new(store, rng, "gcn2", d, d),
            evolve: GruCell::new(store, rng, "evolve", d, d),
            time_enc: TimeEncode::new(store, "time_enc", td),
            decoder: MergeLayer::new(store, rng, "decoder", 2 * d + td, d, d, 1),
        };
        SnapshotGnn {
            weights,
            core,
            states: NodeMemory::new(graph.num_nodes, d),
            num_snapshots: 12,
            current_snapshot: -1,
            embed_dim: d,
        }
    }

    /// Mean-aggregate one GCN layer over a snapshot adjacency:
    /// `h' = relu(W·h + W_n·mean(h_neighbors))` computed outside the tape
    /// for the aggregation (inputs are detached states) and on-tape for the
    /// projections.
    fn refresh_states(&mut self, ctx: &StreamContext, snapshot_idx: usize, upto_t: f64) {
        let seq = SnapshotSequence::build(ctx.graph, &ctx.graph.events, self.num_snapshots);
        let snap = &seq.snapshots[snapshot_idx.min(seq.len() - 1)];
        let n = ctx.graph.num_nodes;
        // Mean of neighbor states per node (detached).
        let adj = snap.adjacency(n);
        let mut agg = Matrix::zeros(n, self.embed_dim);
        for (node, neighbors) in adj.iter().enumerate() {
            if neighbors.is_empty() {
                continue;
            }
            let inv = 1.0 / neighbors.len() as f32;
            for &nb in neighbors {
                let row = self.states.row(nb);
                for (o, &x) in agg.row_mut(node).iter_mut().zip(row) {
                    *o += x * inv;
                }
            }
        }

        let mut g = Graph::new(&self.core.store);
        let w = &self.weights;
        let h = {
            let states = self.states.rows_var(&mut g, &(0..n).collect::<Vec<_>>());
            let feats = g.input_from(&ctx.graph.node_features);
            let fp = w.feat_proj.forward(&mut g, feats);
            g.add(states, fp)
        };
        let msg = {
            let a = g.input(agg);
            let m1 = w.gcn1.forward(&mut g, a);
            let m1 = g.relu(m1);
            let m2 = w.gcn2.forward(&mut g, m1);
            g.relu(m2)
        };
        let new_states = w.evolve.forward(&mut g, msg, h);
        let values = g.value(new_states).clone();
        drop(g);
        let nodes: Vec<usize> = (0..n).collect();
        let times = vec![upto_t; n];
        self.states.write(&nodes, &values, &times);
        self.current_snapshot = snapshot_idx as isize;
    }

    fn run_batch(
        &mut self,
        ctx: &StreamContext,
        batch: &[Interaction],
        neg_dsts: &[usize],
        train: bool,
    ) -> (f32, Vec<f32>, Vec<f32>, Matrix) {
        let view = BatchView::new(batch, neg_dsts);
        let n = view.len();
        // Whole-batch dense span; the nested sampling span below subtracts
        // itself from its exclusive time.
        let _dense = obs::span(stage::DENSE);

        // Advance snapshot states if the batch crossed a window boundary
        // (snapshot construction plays the role of neighbor sampling here).
        obs::timed(stage::SAMPLING, || {
            let seq = SnapshotSequence::build(ctx.graph, &ctx.graph.events, self.num_snapshots);
            let target = seq.snapshot_at(view.times[0]) as isize;
            let mut step = self.current_snapshot;
            while step < target {
                step += 1;
                // Refresh from the previous completed window (step-1), so the
                // states never see the current window's future edges.
                if step > 0 {
                    self.refresh_states(ctx, (step - 1) as usize, view.times[0]);
                }
                self.current_snapshot = step;
            }
        });

        let src_dt = self.states.deltas(&view.srcs, &view.times);
        let mut g = Graph::new(&self.core.store);
        let w = &self.weights;
        let src = self.states.rows_var(&mut g, &view.srcs);
        let dst = self.states.rows_var(&mut g, &view.dsts);
        let neg = self.states.rows_var(&mut g, &view.negs);
        let te = w.time_enc.forward_slice(&mut g, &src_dt);
        let src_full = {
            let cat = g.concat_cols(src, src);
            g.concat_cols(cat, te)
        };
        let pos_logit = w.decoder.forward(&mut g, src_full, dst);
        let neg_logit = w.decoder.forward(&mut g, src_full, neg);
        let logits = g.concat_rows(pos_logit, neg_logit);
        let targets = pos_neg_targets(n);
        let loss = g.bce_with_logits(logits, &targets);
        let loss_val = g.value(loss).scalar();
        let lm = g.value(logits).clone();
        let pos: Vec<f32> = (0..n).map(|r| lm.get(r, 0)).collect();
        let negs: Vec<f32> = (0..n).map(|r| lm.get(n + r, 0)).collect();
        let src_emb = g.value(src).clone();
        let grads = if train { Some(g.backward(loss)) } else { None };
        drop(g);
        if let Some(grads) = grads {
            self.core.adam.step(&mut self.core.store, &grads);
        }
        (loss_val, pos, negs, src_emb)
    }
}

impl TgnnModel for SnapshotGnn {
    fn name(&self) -> &'static str {
        "SnapshotGNN"
    }

    fn anatomy(&self) -> Anatomy {
        Anatomy {
            memory: true,
            attention: false,
            rnn: true,
            temp_walk: false,
            scalability: true,
            supervision: "self (semi)-supervised",
        }
    }

    fn reset_state(&mut self) {
        self.states.reset();
        self.current_snapshot = -1;
    }

    fn train_batch(&mut self, ctx: &StreamContext, batch: &[Interaction], neg: &[usize]) -> f32 {
        self.run_batch(ctx, batch, neg, true).0
    }

    fn eval_batch(
        &mut self,
        ctx: &StreamContext,
        batch: &[Interaction],
        neg: &[usize],
    ) -> (Vec<f32>, Vec<f32>) {
        let (_, pos, negs, _) = self.run_batch(ctx, batch, neg, false);
        (pos, negs)
    }

    fn score_candidates(
        &mut self,
        _ctx: &StreamContext,
        batch: &[Interaction],
        cand_dsts: &[usize],
        k: usize,
    ) -> (Vec<f32>, Vec<f32>) {
        // Score from the *current* snapshot states without advancing the
        // snapshot cursor — the positives are scored fresh under the same
        // (possibly one-window-stale) state as the candidates, so ranking
        // queries are self-consistent, and `eval_batch` still performs the
        // boundary crossing itself.
        let n = batch.len();
        let srcs: Vec<usize> = batch.iter().map(|e| e.src).collect();
        let dsts: Vec<usize> = batch.iter().map(|e| e.dst).collect();
        let times: Vec<f64> = batch.iter().map(|e| e.t).collect();
        let src_dt = self.states.deltas(&srcs, &times);
        let mut g = Graph::new(&self.core.store);
        let w = &self.weights;
        let src = self.states.rows_var(&mut g, &srcs);
        let te = w.time_enc.forward_slice(&mut g, &src_dt);
        let src_full = {
            let cat = g.concat_cols(src, src);
            g.concat_cols(cat, te)
        };
        let score_block = |g: &mut Graph, this: &Self, block: &[usize]| -> Vec<f32> {
            let b = this.states.rows_var(g, block);
            let logit = w.decoder.forward(g, src_full, b);
            let lm = g.value(logit);
            (0..n).map(|r| lm.get(r, 0)).collect()
        };
        let pos = score_block(&mut g, self, &dsts);
        let mut cands = Vec::with_capacity(n * k);
        for j in 0..k {
            cands.extend(score_block(&mut g, self, &cand_dsts[j * n..(j + 1) * n]));
        }
        (pos, cands)
    }

    fn embed_events(&mut self, ctx: &StreamContext, batch: &[Interaction]) -> Matrix {
        let negs: Vec<usize> = batch.iter().map(|e| e.dst).collect();
        self.run_batch(ctx, batch, &negs, false).3
    }

    fn embed_dim(&self) -> usize {
        self.embed_dim
    }

    fn snapshot(&self) -> Vec<Matrix> {
        self.core.snapshot()
    }

    fn restore(&mut self, snapshot: &[Matrix]) {
        self.core.restore(snapshot);
    }

    fn state_bytes(&self) -> usize {
        self.core.param_bytes() + self.states.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use benchtemp_graph::generators::GeneratorConfig;
    use benchtemp_graph::paged::NeighborBackend;
    use benchtemp_graph::NeighborFinder;

    fn setup() -> benchtemp_graph::TemporalGraph {
        GeneratorConfig::small("sgnn", 701).generate()
    }

    #[test]
    fn states_refresh_at_snapshot_boundaries() {
        let g = setup();
        let nf = NeighborFinder::from_events(g.num_nodes, &g.events);
        let ctx = StreamContext {
            graph: &g,
            neighbors: NeighborBackend::Resident(&nf),
        };
        let mut m = SnapshotGnn::new(
            ModelConfig {
                embed_dim: 16,
                ..Default::default()
            },
            &g,
        );
        assert_eq!(m.current_snapshot, -1);
        // Drive a late batch → multiple boundary crossings.
        let late = &g.events[1200..1260];
        let negs: Vec<usize> = late.iter().map(|_| g.num_users).collect();
        m.eval_batch(&ctx, late, &negs);
        assert!(m.current_snapshot >= 0);
        // States are no longer all-zero after the GCN refresh.
        let touched = (0..g.num_nodes).any(|n| m.states.row(n).iter().any(|&x| x != 0.0));
        assert!(touched);
    }

    #[test]
    fn training_reduces_loss() {
        let g = setup();
        let nf = NeighborFinder::from_events(g.num_nodes, &g.events);
        let ctx = StreamContext {
            graph: &g,
            neighbors: NeighborBackend::Resident(&nf),
        };
        let mut m = SnapshotGnn::new(
            ModelConfig {
                embed_dim: 16,
                lr: 1e-2,
                ..Default::default()
            },
            &g,
        );
        let batch = &g.events[700..780];
        let negs: Vec<usize> = batch
            .iter()
            .enumerate()
            .map(|(i, _)| g.num_users + (i * 3) % (g.num_nodes - g.num_users))
            .collect();
        let first = m.train_batch(&ctx, batch, &negs);
        let mut last = first;
        for _ in 0..15 {
            last = m.train_batch(&ctx, batch, &negs);
        }
        assert!(last < first, "SnapshotGNN loss went {first} → {last}");
    }

    #[test]
    fn reset_rewinds_to_initial() {
        let g = setup();
        let nf = NeighborFinder::from_events(g.num_nodes, &g.events);
        let ctx = StreamContext {
            graph: &g,
            neighbors: NeighborBackend::Resident(&nf),
        };
        let mut m = SnapshotGnn::new(
            ModelConfig {
                embed_dim: 16,
                ..Default::default()
            },
            &g,
        );
        let batch = &g.events[..40];
        let negs: Vec<usize> = batch.iter().map(|_| g.num_users + 1).collect();
        let (a, _) = m.eval_batch(&ctx, batch, &negs);
        let negs2: Vec<usize> = g.events[40..900].iter().map(|_| g.num_users).collect();
        let _ = m.eval_batch(&ctx, &g.events[40..900], &negs2);
        m.reset_state();
        let (b, _) = m.eval_batch(&ctx, batch, &negs);
        assert_eq!(a, b);
    }
}
