//! Shared fixtures for the child-process determinism suites.
//!
//! [`child`] holds the re-exec harness. `MlpEdgeModel` is the
//! pipeline-conformant model the workers train: stateless in time, but big
//! enough (batch rows × concat width × hidden crosses `PAR_FLOPS`) that the
//! parallel matmul path is genuinely exercised — a thread-count bug shows
//! up as a bit flip.
#![allow(dead_code)]

pub mod child;

use benchtemp_core::pipeline::{Anatomy, StreamContext, TgnnModel};
use benchtemp_graph::temporal_graph::Interaction;
use benchtemp_tensor::nn::Mlp;
use benchtemp_tensor::{init, Adam, Graph, Matrix, ParamStore};

pub const NODE_DIM: usize = 16;
const HIDDEN: usize = 80;

/// Minimal pipeline-conformant model: scores an edge by running the
/// concatenated endpoint features through an MLP.
pub struct MlpEdgeModel {
    store: ParamStore,
    mlp: Mlp,
    adam: Adam,
}

impl MlpEdgeModel {
    pub fn new(seed: u64) -> Self {
        let mut store = ParamStore::new();
        let mut rng = init::rng(seed);
        let mlp = Mlp::new(&mut store, &mut rng, "edge", 2 * NODE_DIM, HIDDEN, 1);
        MlpEdgeModel {
            store,
            mlp,
            adam: Adam::new(1e-3),
        }
    }

    fn pair_features(&self, ctx: &StreamContext, srcs: &[usize], dsts: &[usize]) -> Matrix {
        let mut x = Matrix::zeros(srcs.len(), 2 * NODE_DIM);
        for (r, (&s, &d)) in srcs.iter().zip(dsts).enumerate() {
            x.row_mut(r)[..NODE_DIM].copy_from_slice(ctx.graph.node_features.row(s));
            x.row_mut(r)[NODE_DIM..].copy_from_slice(ctx.graph.node_features.row(d));
        }
        x
    }
}

impl TgnnModel for MlpEdgeModel {
    fn name(&self) -> &'static str {
        "MlpEdge"
    }

    fn anatomy(&self) -> Anatomy {
        Anatomy {
            memory: false,
            attention: false,
            rnn: false,
            temp_walk: false,
            scalability: true,
            supervision: "self-supervised",
        }
    }

    fn reset_state(&mut self) {}

    fn train_batch(
        &mut self,
        ctx: &StreamContext,
        batch: &[Interaction],
        neg_dsts: &[usize],
    ) -> f32 {
        let srcs: Vec<usize> = batch.iter().map(|e| e.src).collect();
        let pos_dsts: Vec<usize> = batch.iter().map(|e| e.dst).collect();
        let mut x = self.pair_features(ctx, &srcs, &pos_dsts);
        let xn = self.pair_features(ctx, &srcs, neg_dsts);
        x = x.concat_rows(&xn);
        let mut targets = vec![1.0f32; batch.len()];
        targets.extend(std::iter::repeat_n(0.0, batch.len()));

        let mut g = Graph::new(&self.store);
        let xv = g.input(x);
        let logits = self.mlp.forward(&mut g, xv);
        let loss = g.bce_with_logits(logits, &targets);
        let loss_val = g.value(loss).get(0, 0);
        let grads = g.backward(loss);
        drop(g);
        self.adam.step(&mut self.store, &grads);
        loss_val
    }

    fn eval_batch(
        &mut self,
        ctx: &StreamContext,
        batch: &[Interaction],
        neg_dsts: &[usize],
    ) -> (Vec<f32>, Vec<f32>) {
        let srcs: Vec<usize> = batch.iter().map(|e| e.src).collect();
        let pos_dsts: Vec<usize> = batch.iter().map(|e| e.dst).collect();
        let score = |dsts: &[usize]| -> Vec<f32> {
            let mut g = Graph::new(&self.store);
            let xv = g.input(self.pair_features(ctx, &srcs, dsts));
            let logits = self.mlp.forward(&mut g, xv);
            let probs = g.sigmoid(logits);
            let m = g.value(probs);
            (0..m.rows()).map(|r| m.get(r, 0)).collect()
        };
        (score(&pos_dsts), score(neg_dsts))
    }

    fn score_candidates(
        &mut self,
        ctx: &StreamContext,
        batch: &[Interaction],
        cand_dsts: &[usize],
        k: usize,
    ) -> (Vec<f32>, Vec<f32>) {
        let srcs: Vec<usize> = batch.iter().map(|e| e.src).collect();
        let pos_dsts: Vec<usize> = batch.iter().map(|e| e.dst).collect();
        let score = |dsts: &[usize]| -> Vec<f32> {
            let mut g = Graph::new(&self.store);
            let xv = g.input(self.pair_features(ctx, &srcs, dsts));
            let logits = self.mlp.forward(&mut g, xv);
            let probs = g.sigmoid(logits);
            let m = g.value(probs);
            (0..m.rows()).map(|r| m.get(r, 0)).collect()
        };
        let pos = score(&pos_dsts);
        let n = batch.len();
        let mut cands = Vec::with_capacity(n * k);
        for j in 0..k {
            cands.extend(score(&cand_dsts[j * n..(j + 1) * n]));
        }
        (pos, cands)
    }

    fn embed_events(&mut self, ctx: &StreamContext, batch: &[Interaction]) -> Matrix {
        let feats = &ctx.graph.node_features;
        let mut out = Matrix::zeros(batch.len(), feats.cols());
        for (r, e) in batch.iter().enumerate() {
            out.row_mut(r).copy_from_slice(feats.row(e.src));
        }
        out
    }

    fn embed_dim(&self) -> usize {
        NODE_DIM
    }

    fn snapshot(&self) -> Vec<Matrix> {
        self.store.snapshot()
    }

    fn restore(&mut self, snapshot: &[Matrix]) {
        self.store.restore(snapshot);
    }

    fn state_bytes(&self) -> usize {
        self.store.heap_bytes()
    }
}
