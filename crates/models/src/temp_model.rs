//! TeMP — the authors' model (Appendix E): GNN aggregation + temporal
//! structure, designed to balance quality and efficiency.
//!
//! Pipeline per Fig. 6: **(b) subgraph construction** with a temporal
//! neighbor sampler whose reference timestamp adapts to the data (the mean
//! timestamp of the node's history — the quantile the paper found best);
//! **(c) embedding generation** from three components — temporal **label
//! propagation** (neighbor memory averaging), **message-passing operators**
//! (original edge-feature aggregation), and a **sequence updater** (GRU
//! over a memory module) — with **pre-initialized** node embeddings
//! (memory starts from projected node features, not zeros).
//!
//! The aggregations are uniform means over a small sampled subgraph, not
//! attention — that is what buys TeMP its efficiency lead (Table 14: low
//! state footprint, high compute utilization) while staying behind the
//! walk-based models on raw quality (Table 13).

use benchtemp_core::efficiency::stage;
use benchtemp_core::pipeline::{Anatomy, StreamContext, TgnnModel};
use benchtemp_graph::neighbors::{NeighborSlice, SampleScratch};
use benchtemp_graph::temporal_graph::{Interaction, TemporalGraph};
use benchtemp_obs as obs;
use benchtemp_tensor::nn::{GruCell, Linear, MergeLayer, TimeEncode};
use benchtemp_tensor::{Graph, Matrix, Var};

use crate::common::{pos_neg_targets, BatchView, ModelConfig, ModelCore, NodeMemory};

struct Weights {
    feat_proj: Linear,
    edge_proj: Linear,
    time_enc: TimeEncode,
    /// Combines [memory | LPA aggregate | message aggregate | Δt-enc].
    combine: Linear,
    seq_gru: GruCell,
    decoder: MergeLayer,
}

/// The TeMP model.
pub struct Temp {
    weights: Weights,
    core: ModelCore,
    memory: NodeMemory,
    /// Pre-initialization matrix: projected node features written into the
    /// memory on reset (computed once per reset from current parameters).
    embed_dim: usize,
    neighbors: usize,
    preinit_done: bool,
}

impl Temp {
    pub fn new(cfg: ModelConfig, graph: &TemporalGraph) -> Self {
        let mut core = ModelCore::new(cfg.lr, cfg.seed);
        let d = cfg.embed_dim;
        let td = cfg.time_dim;
        let ed = 16.min(graph.edge_dim().max(4));
        let (store, rng) = (&mut core.store, &mut core.rng);
        let weights = Weights {
            feat_proj: Linear::new(store, rng, "feat_proj", graph.node_dim(), d),
            edge_proj: Linear::new(store, rng, "edge_proj", graph.edge_dim(), ed),
            time_enc: TimeEncode::new(store, "time_enc", td),
            combine: Linear::new(store, rng, "combine", d + d + ed + td, d),
            seq_gru: GruCell::new(store, rng, "seq_gru", ed + td, d),
            decoder: MergeLayer::new(store, rng, "decoder", d, d, d, 1),
        };
        Temp {
            weights,
            core,
            memory: NodeMemory::new(graph.num_nodes, d),
            embed_dim: d,
            neighbors: cfg.neighbors,
            preinit_done: false,
        }
    }

    /// Pre-initialization: memory starts from projected node features.
    fn preinit(&mut self, ctx: &StreamContext) {
        let mut g = Graph::new(&self.core.store);
        let f = g.input(ctx.graph.node_features.clone());
        let p = self.weights.feat_proj.forward(&mut g, f);
        let p = g.tanh(p);
        let init = g.value(p).clone();
        drop(g);
        let nodes: Vec<usize> = (0..ctx.graph.num_nodes).collect();
        let times = vec![0.0f64; nodes.len()];
        self.memory.write(&nodes, &init, &times);
        self.preinit_done = true;
    }

    /// Adaptive reference timestamp: the mean of the node's history
    /// timestamps before `t` (falls back to `t` with empty history).
    /// `hist` is that strictly-before-`t` window.
    fn reference_time(hist: NeighborSlice, t: f64) -> f64 {
        if hist.is_empty() {
            return t;
        }
        let mean = hist.ts().iter().sum::<f64>() / hist.len() as f64;
        // Sampling strictly-before the mean would drop the most recent half;
        // the sampler uses the interval [mean, t] boundary — i.e. neighbors
        // up to t but the *subgraph window* anchored at the mean. We sample
        // before t and weight the window implicitly via most-recent order.
        mean.min(t)
    }

    /// Subgraph aggregates (LPA over memory, message over edge features) —
    /// computed outside the tape (memory is detached; features constant).
    fn aggregates(
        &self,
        ctx: &StreamContext,
        nodes: &[usize],
        times: &[f64],
    ) -> (Matrix, Matrix, Vec<f32>) {
        let k = self.neighbors;
        let d = self.embed_dim;
        let edge_dim = ctx.graph.edge_dim();
        let mut lpa = Matrix::zeros(nodes.len(), d);
        let mut msg = Matrix::zeros(nodes.len(), edge_dim);
        let mut ref_dts = vec![0.0f32; nodes.len()];
        // One window scratch for the whole batch: only the paged backend
        // writes into it, once per query; the reference time and the
        // aggregation both read that one window.
        let mut scratch = SampleScratch::new();
        for (i, (&node, &t)) in nodes.iter().zip(times).enumerate() {
            let hist = ctx.neighbors.before_into(node, t, &mut scratch);
            let ref_t = Self::reference_time(hist, t);
            ref_dts[i] = (t - ref_t).max(0.0) as f32;
            if hist.is_empty() {
                continue;
            }
            // Most recent k within the adaptive window [ref_t, t); if the
            // window is empty (all history before the mean), use the tail.
            // The window is a contiguous suffix of the sorted timestamp
            // column, so one binary search replaces the old filter+collect
            // and no per-query Vec is allocated.
            let ts = hist.ts();
            let wstart = ts.partition_point(|&x| x < ref_t);
            let lo = if wstart == ts.len() {
                ts.len() - k.min(ts.len())
            } else {
                wstart.max(ts.len().saturating_sub(k))
            };
            let inv = 1.0 / (ts.len() - lo) as f32;
            for idx in (lo..ts.len()).rev() {
                let ev = hist.get(idx);
                let mrow = self.memory.row(ev.neighbor);
                for (o, &x) in lpa.row_mut(i).iter_mut().zip(mrow) {
                    *o += x * inv;
                }
                let feat_idx = ctx.graph.events[ev.event_idx].feat_idx;
                let erow = ctx.graph.edge_features.row(feat_idx);
                for (o, &x) in msg.row_mut(i).iter_mut().zip(erow) {
                    *o += x * inv;
                }
            }
        }
        (lpa, msg, ref_dts)
    }

    fn run_batch(
        &mut self,
        ctx: &StreamContext,
        batch: &[Interaction],
        neg_dsts: &[usize],
        train: bool,
    ) -> (f32, Vec<f32>, Vec<f32>, Matrix) {
        if !self.preinit_done {
            self.preinit(ctx);
        }
        let view = BatchView::new(batch, neg_dsts);
        let n = view.len();
        // Whole-batch dense span; the nested sampling span below subtracts
        // itself from its exclusive time.
        let _dense = obs::span(stage::DENSE);

        let (src_agg, dst_agg, neg_agg) = obs::timed(stage::SAMPLING, || {
            (
                self.aggregates(ctx, &view.srcs, &view.times),
                self.aggregates(ctx, &view.dsts, &view.times),
                self.aggregates(ctx, &view.negs, &view.times),
            )
        });
        let (src_lpa, src_msg, src_ref) = src_agg;
        let (dst_lpa, dst_msg, dst_ref) = dst_agg;
        let (neg_lpa, neg_msg, neg_ref) = neg_agg;

        let mut g = Graph::new(&self.core.store);
        let w = &self.weights;
        let embed = |g: &mut Graph, m: Var, lpa: Matrix, msg: Matrix, ref_dt: &[f32]| {
            let l = g.input(lpa);
            let e = {
                let raw = g.input(msg);
                w.edge_proj.forward(g, raw)
            };
            let te = w.time_enc.forward_slice(g, ref_dt);
            let cat = g.concat_cols_many(&[m, l, e, te]);
            let c = w.combine.forward(g, cat);
            g.relu(c)
        };
        let src_m = self.memory.rows_var(&mut g, &view.srcs);
        let src = embed(&mut g, src_m, src_lpa, src_msg, &src_ref);
        let dst_m = self.memory.rows_var(&mut g, &view.dsts);
        let dst = embed(&mut g, dst_m, dst_lpa, dst_msg, &dst_ref);
        let neg_m = self.memory.rows_var(&mut g, &view.negs);
        let neg = embed(&mut g, neg_m, neg_lpa, neg_msg, &neg_ref);
        let pos_logit = w.decoder.forward(&mut g, src, dst);
        let neg_logit = w.decoder.forward(&mut g, src, neg);
        let logits = g.concat_rows(pos_logit, neg_logit);
        let targets = pos_neg_targets(n);
        let loss = g.bce_with_logits(logits, &targets);
        let loss_val = g.value(loss).scalar();
        let lm = g.value(logits).clone();
        let pos: Vec<f32> = (0..n).map(|r| lm.get(r, 0)).collect();
        let negs_s: Vec<f32> = (0..n).map(|r| lm.get(n + r, 0)).collect();

        // Sequence updater: GRU over [edge | Δt-enc] advances the memory.
        let (new_src, new_dst) = {
            let e = view.edge_feats_var(&mut g, ctx);
            let ep = w.edge_proj.forward(&mut g, e);
            let s_dt = self.memory.deltas(&view.srcs, &view.times);
            let d_dt = self.memory.deltas(&view.dsts, &view.times);
            let ste = w.time_enc.forward_slice(&mut g, &s_dt);
            let dte = w.time_enc.forward_slice(&mut g, &d_dt);
            let sx = g.concat_cols(ep, ste);
            let dx = g.concat_cols(ep, dte);
            let sm = self.memory.rows_var(&mut g, &view.srcs);
            let dm = self.memory.rows_var(&mut g, &view.dsts);
            (
                w.seq_gru.forward(&mut g, sx, sm),
                w.seq_gru.forward(&mut g, dx, dm),
            )
        };
        let src_emb = g.value(src).clone();
        let new_src_m = g.value(new_src).clone();
        let new_dst_m = g.value(new_dst).clone();

        let grads = if train { Some(g.backward(loss)) } else { None };
        drop(g);
        if let Some(grads) = grads {
            self.core.adam.step(&mut self.core.store, &grads);
        }

        self.memory.write(&view.srcs, &new_src_m, &view.times);
        self.memory.write(&view.dsts, &new_dst_m, &view.times);
        (loss_val, pos, negs_s, src_emb)
    }
}

impl TgnnModel for Temp {
    fn name(&self) -> &'static str {
        "TeMP"
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
        self.memory.reset();
        self.preinit_done = false; // re-run pre-initialization lazily
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
        ctx: &StreamContext,
        batch: &[Interaction],
        cand_dsts: &[usize],
        k: usize,
    ) -> (Vec<f32>, Vec<f32>) {
        // Ranking reads the pre-batch memory only: aggregates + embed +
        // decode, with no GRU sequence update and no `memory.write`. The
        // lazy pre-initialization still has to run (it is part of "current
        // state", not an advance of it). TeMP needs no RNG here — its
        // aggregations are deterministic means.
        if !self.preinit_done {
            self.preinit(ctx);
        }
        let n = batch.len();
        let srcs: Vec<usize> = batch.iter().map(|e| e.src).collect();
        let dsts: Vec<usize> = batch.iter().map(|e| e.dst).collect();
        let times: Vec<f64> = batch.iter().map(|e| e.t).collect();
        let (src_lpa, src_msg, src_ref) = self.aggregates(ctx, &srcs, &times);
        let mut g = Graph::new(&self.core.store);
        let w = &self.weights;
        let embed = |g: &mut Graph, m: Var, lpa: Matrix, msg: Matrix, ref_dt: &[f32]| {
            let l = g.input(lpa);
            let e = {
                let raw = g.input(msg);
                w.edge_proj.forward(g, raw)
            };
            let te = w.time_enc.forward_slice(g, ref_dt);
            let cat = g.concat_cols_many(&[m, l, e, te]);
            let c = w.combine.forward(g, cat);
            g.relu(c)
        };
        let src_m = self.memory.rows_var(&mut g, &srcs);
        let src = embed(&mut g, src_m, src_lpa, src_msg, &src_ref);
        let score_block = |g: &mut Graph, this: &Self, block: &[usize]| -> Vec<f32> {
            let (lpa, msg, ref_dt) = this.aggregates(ctx, block, &times);
            let m = this.memory.rows_var(g, block);
            let emb = embed(g, m, lpa, msg, &ref_dt);
            let logit = w.decoder.forward(g, src, emb);
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
        self.core.param_bytes() + self.memory.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use benchtemp_graph::generators::GeneratorConfig;
    use benchtemp_graph::paged::NeighborBackend;
    use benchtemp_graph::NeighborFinder;

    fn setup() -> benchtemp_graph::TemporalGraph {
        GeneratorConfig::small("temp", 101).generate()
    }

    #[test]
    fn preinit_fills_memory_from_features() {
        let g = setup();
        let nf = NeighborFinder::from_events(g.num_nodes, &g.events);
        let ctx = StreamContext {
            graph: &g,
            neighbors: NeighborBackend::Resident(&nf),
        };
        let mut m = Temp::new(
            ModelConfig {
                embed_dim: 16,
                ..Default::default()
            },
            &g,
        );
        assert_eq!(m.memory.row(0), vec![0.0; 16].as_slice());
        let negs: Vec<usize> = g.events[..10].iter().map(|_| g.num_users).collect();
        m.eval_batch(&ctx, &g.events[..10], &negs);
        // After the first batch the *untouched* nodes still carry the
        // pre-initialized (non-zero) embedding.
        let untouched = (0..g.num_nodes)
            .find(|&n| g.events[..10].iter().all(|e| e.src != n && e.dst != n))
            .unwrap();
        assert!(m.memory.row(untouched).iter().any(|&x| x != 0.0));
    }

    #[test]
    fn reference_time_is_mean_of_history() {
        let g = setup();
        let nf = NeighborFinder::from_events(g.num_nodes, &g.events);
        let node = g.events[0].src;
        let t = 1e9;
        let hist = nf.before(node, t);
        let mean = hist.iter().map(|e| e.t).sum::<f64>() / hist.len() as f64;
        assert!((Temp::reference_time(hist, t) - mean).abs() < 1e-9);
        // No history → the query time itself.
        assert_eq!(Temp::reference_time(nf.before(node, f64::MIN), 42.0), 42.0);
    }

    #[test]
    fn training_reduces_loss() {
        let g = setup();
        let nf = NeighborFinder::from_events(g.num_nodes, &g.events);
        let ctx = StreamContext {
            graph: &g,
            neighbors: NeighborBackend::Resident(&nf),
        };
        let mut m = Temp::new(
            ModelConfig {
                embed_dim: 16,
                lr: 1e-2,
                ..Default::default()
            },
            &g,
        );
        let batch = &g.events[..80];
        let negs: Vec<usize> = batch
            .iter()
            .enumerate()
            .map(|(i, _)| g.num_users + (i * 5) % (g.num_nodes - g.num_users))
            .collect();
        let first = m.train_batch(&ctx, batch, &negs);
        let mut last = first;
        for _ in 0..15 {
            last = m.train_batch(&ctx, batch, &negs);
        }
        assert!(last < first, "TeMP loss went {first} → {last}");
    }

    #[test]
    fn embeddings_have_configured_dim() {
        let g = setup();
        let nf = NeighborFinder::from_events(g.num_nodes, &g.events);
        let ctx = StreamContext {
            graph: &g,
            neighbors: NeighborBackend::Resident(&nf),
        };
        let mut m = Temp::new(
            ModelConfig {
                embed_dim: 24,
                ..Default::default()
            },
            &g,
        );
        let emb = m.embed_events(&ctx, &g.events[..6]);
        assert_eq!(emb.shape(), (6, 24));
    }
}
