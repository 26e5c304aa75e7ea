//! The temporal-walk models: **CAWN** (causal anonymous walks, Wang et al.
//! ICLR 2021) and **NeurTW** (neural temporal walks, Jin et al. NeurIPS
//! 2022), sharing one walk-encoding skeleton:
//!
//! 1. sample `M` backward temporal walks of length `L` from each endpoint;
//! 2. anonymize node identities into position-hit counts relative to the
//!    candidate pair's two walk sets (`crate::walks`);
//! 3. encode each walk with a GRU over `[anonymized id | edge feature |
//!    time encoding]` steps; masked at dead ends;
//! 4. mean-pool the pair's `2M` walk encodings and decode to a logit.
//!
//! Differences, as in the papers and Appendix C/H:
//! * CAWN samples **uniform** temporal walks; NeurTW uses **temporal-biased**
//!   sampling — the exponential form where safe, the overflow-safe piecewise
//!   weights of Eq. 2–3 on large-granularity datasets;
//! * NeurTW additionally evolves the hidden state through a **neural ODE**
//!   (RK4-integrated gated flow) across each inter-event interval, the
//!   component ablated in Table 23 (`use_nodes = false` removes it).

use std::collections::BTreeMap;

use benchtemp_core::efficiency::stage;
use benchtemp_core::pipeline::{Anatomy, StreamContext, TgnnModel};
use benchtemp_graph::neighbors::{SampleScratch, SamplingStrategy};
use benchtemp_graph::temporal_graph::{Interaction, TemporalGraph};
use benchtemp_obs as obs;
use benchtemp_tensor::init::SeededRng;
use benchtemp_tensor::nn::{GruCell, Linear, Mlp, TimeEncode};
use benchtemp_tensor::{Graph, Matrix, Var};

use crate::common::{pos_neg_targets, ranking_rng, BatchView, ModelConfig, ModelCore};
use crate::walks::{anon_dim, anonymize, position_counts, sample_walks_with, TemporalWalk};

/// Which walk model this instance is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalkKind {
    Cawn,
    NeurTw {
        /// Ablation switch for the neural-ODE component (Table 23).
        use_nodes: bool,
    },
}

struct Weights {
    anon_proj: Linear,
    edge_proj: Linear,
    time_enc: TimeEncode,
    gru: GruCell,
    /// NeurTW ODE flow: `dh/ds = tanh(h·W1+b1) ⊙ σ(h·W2+b2)`.
    ode_gate: Linear,
    ode_flow: Linear,
    head: Mlp,
}

/// Sampled walk sets for one batch (per node role).
struct WalkSets {
    src: Vec<Vec<TemporalWalk>>,
    dst: Vec<Vec<TemporalWalk>>,
    neg: Vec<Vec<TemporalWalk>>,
    src_counts: Vec<BTreeMap<usize, Vec<f32>>>,
    dst_counts: Vec<BTreeMap<usize, Vec<f32>>>,
    neg_counts: Vec<BTreeMap<usize, Vec<f32>>>,
}

/// CAWN / NeurTW.
pub struct WalkModel {
    kind: WalkKind,
    weights: Weights,
    core: ModelCore,
    m: usize,
    l: usize,
    hidden: usize,
    /// Reused weighted-sampling buffers — walk hops allocate nothing.
    scratch: SampleScratch,
}

impl WalkModel {
    pub fn cawn(cfg: ModelConfig, graph: &TemporalGraph) -> Self {
        Self::new(WalkKind::Cawn, cfg, graph)
    }

    pub fn neurtw(cfg: ModelConfig, graph: &TemporalGraph) -> Self {
        Self::new(WalkKind::NeurTw { use_nodes: true }, cfg, graph)
    }

    /// NeurTW with the NODE component removed (Table 23 "- NODEs").
    pub fn neurtw_without_nodes(cfg: ModelConfig, graph: &TemporalGraph) -> Self {
        Self::new(WalkKind::NeurTw { use_nodes: false }, cfg, graph)
    }

    pub fn new(kind: WalkKind, cfg: ModelConfig, graph: &TemporalGraph) -> Self {
        let mut core = ModelCore::new(cfg.lr, cfg.seed);
        let h = cfg.embed_dim;
        let da = 16;
        let ed = 16.min(graph.edge_dim().max(4));
        let td = cfg.time_dim;
        let l = cfg.walk_len.max(1);
        let (store, rng) = (&mut core.store, &mut core.rng);
        let weights = Weights {
            anon_proj: Linear::new(store, rng, "anon_proj", anon_dim(l), da),
            edge_proj: Linear::new(store, rng, "edge_proj", graph.edge_dim(), ed),
            time_enc: TimeEncode::new(store, "time_enc", td),
            gru: GruCell::new(store, rng, "walk_gru", da + ed + td, h),
            ode_gate: Linear::new(store, rng, "ode_gate", h, h),
            ode_flow: Linear::new(store, rng, "ode_flow", h, h),
            head: Mlp::new(store, rng, "head", h, h, 1),
        };
        WalkModel {
            kind,
            weights,
            core,
            m: cfg.walks.max(1),
            l,
            hidden: h,
            scratch: SampleScratch::new(),
        }
    }

    fn strategy(&self) -> SamplingStrategy {
        match self.kind {
            WalkKind::Cawn => SamplingStrategy::Uniform,
            // NeurTW's temporal-biased sampling, overflow-safe variant
            // (Appendix C Eq. 2–3) — correct on every time granularity.
            WalkKind::NeurTw { .. } => SamplingStrategy::TemporalSafe,
        }
    }

    fn use_nodes(&self) -> bool {
        matches!(self.kind, WalkKind::NeurTw { use_nodes: true })
    }

    /// Appendix C: NeurTW concatenates node/edge/positional features
    /// *without time features* — inter-event time enters only through the
    /// neural-ODE evolution. CAWN keeps the explicit time encoding.
    fn use_time_feats(&self) -> bool {
        matches!(self.kind, WalkKind::Cawn)
    }

    /// Sample all walk sets for a batch.
    #[allow(clippy::too_many_arguments)]
    fn sample_sets(
        ctx: &StreamContext,
        view: &BatchView,
        m: usize,
        l: usize,
        strategy: SamplingStrategy,
        rng: &mut SeededRng,
        scratch: &mut SampleScratch,
    ) -> WalkSets {
        let mut sample_role = |nodes: &[usize], rng: &mut SeededRng| -> Vec<Vec<TemporalWalk>> {
            nodes
                .iter()
                .zip(&view.times)
                .map(|(&n, &t)| sample_walks_with(ctx, n, t, m, l, strategy, rng, scratch))
                .collect()
        };
        let src = sample_role(&view.srcs, rng);
        let dst = sample_role(&view.dsts, rng);
        let neg = sample_role(&view.negs, rng);
        let counts = |sets: &[Vec<TemporalWalk>]| sets.iter().map(|w| position_counts(w)).collect();
        WalkSets {
            src_counts: counts(&src),
            dst_counts: counts(&dst),
            neg_counts: counts(&neg),
            src,
            dst,
            neg,
        }
    }

    /// Encode pairs `(src_i, dst_i)` for i in 0..n and, when `with_neg`,
    /// `(src_i, neg_i)` stacked below. Returns the pooled pair embeddings
    /// ((n or 2n) × hidden) on the tape.
    #[allow(clippy::too_many_arguments)]
    fn encode_pairs(
        &self,
        g: &mut Graph,
        ctx: &StreamContext,
        view: &BatchView,
        sets: &WalkSets,
        with_neg: bool,
    ) -> Var {
        let n = view.len();
        let n_pairs = if with_neg { 2 * n } else { n };
        let walks_per_pair = 2 * self.m;
        let total = n_pairs * walks_per_pair;
        let l = self.l;
        let ad = anon_dim(l);

        // Assemble step-wise raw inputs.
        let mut anon = vec![Matrix::zeros(total, ad); l + 1];
        let mut feat_rows = vec![vec![0usize; total]; l + 1];
        let mut dts = vec![vec![0.0f32; total]; l + 1];
        let mut valid = vec![vec![0.0f32; total]; l + 1];
        let mut itaus = vec![vec![0.0f32; total]; l + 1];

        for p in 0..n_pairs {
            let i = p % n;
            let is_neg_pair = p >= n;
            let (other_walks, other_counts) = if is_neg_pair {
                (&sets.neg[i], &sets.neg_counts[i])
            } else {
                (&sets.dst[i], &sets.dst_counts[i])
            };
            let a_counts = &sets.src_counts[i];
            let t0 = view.times[i];
            for (wi, walk) in sets.src[i].iter().chain(other_walks.iter()).enumerate() {
                let row = p * walks_per_pair + wi;
                for step in 0..=l {
                    let node = walk.nodes[step];
                    let enc = anonymize(node, a_counts, other_counts, l, self.m);
                    anon[step].set_row(row, &enc);
                    if step == 0 {
                        valid[step][row] = 1.0;
                    } else {
                        let ok = walk.valid[step - 1];
                        valid[step][row] = if ok { 1.0 } else { 0.0 };
                        if ok {
                            feat_rows[step][row] = walk.feat_idx[step - 1];
                            let dt = (t0 - walk.hop_times[step - 1]).max(0.0) as f32;
                            dts[step][row] = dt;
                            // Normalized integration horizon for the ODE.
                            itaus[step][row] = (1.0 + dt).ln() * 0.1;
                        }
                    }
                }
            }
        }

        // GRU over the walk, step by step, masked at dead ends, with the
        // NeurTW ODE evolution between steps.
        let mut h = g.input(Matrix::zeros(total, self.hidden));
        for step in 0..=l {
            let x = {
                let a = g.input(anon[step].clone());
                let ap = self.weights.anon_proj.forward(g, a);
                let e = g.gather_rows_from(&ctx.graph.edge_features, &feat_rows[step]);
                let ep = self.weights.edge_proj.forward(g, e);
                let te = if self.use_time_feats() {
                    self.weights.time_enc.forward_slice(g, &dts[step])
                } else {
                    // NeurTW: no explicit time features in the walk encoder.
                    let zeros = vec![0.0f32; dts[step].len()];
                    self.weights.time_enc.forward_slice(g, &zeros)
                };
                g.concat_cols_many(&[ap, ep, te])
            };
            if self.use_nodes() && step > 0 {
                let tau = g.input(Matrix::column(&itaus[step]));
                h = self.ode_evolve(g, h, tau);
            }
            let h_new = self.weights.gru.forward(g, x, h);
            // h = v ⊙ h_new + (1-v) ⊙ h
            let v = g.input(Matrix::column(&valid[step]));
            let vn = g.mul_col_broadcast(h_new, v);
            let nv = {
                let neg_v = g.neg(v);
                g.add_scalar(neg_v, 1.0)
            };
            let keep = g.mul_col_broadcast(h, nv);
            h = g.add(vn, keep);
        }

        // Mean-pool each pair's 2M walks via a fixed block-averaging matrix.
        let mut pool = Matrix::zeros(n_pairs, total);
        let inv = 1.0 / walks_per_pair as f32;
        for p in 0..n_pairs {
            for w in 0..walks_per_pair {
                pool.set(p, p * walks_per_pair + w, inv);
            }
        }
        let pool_v = g.input(pool);
        g.matmul(pool_v, h)
    }

    /// One RK4 step of the gated neural-ODE flow over per-row horizon `tau`.
    fn ode_evolve(&self, g: &mut Graph, h: Var, tau: Var) -> Var {
        let f = |g: &mut Graph, h: Var, weights: &Weights| -> Var {
            let gate = {
                let z = weights.ode_gate.forward(g, h);
                g.sigmoid(z)
            };
            let flow = {
                let z = weights.ode_flow.forward(g, h);
                g.tanh(z)
            };
            g.mul(gate, flow)
        };
        let half_tau = g.scale(tau, 0.5);
        let k1 = f(g, h, &self.weights);
        let h2 = {
            let d = g.mul_col_broadcast(k1, half_tau);
            g.add(h, d)
        };
        let k2 = f(g, h2, &self.weights);
        let h3 = {
            let d = g.mul_col_broadcast(k2, half_tau);
            g.add(h, d)
        };
        let k3 = f(g, h3, &self.weights);
        let h4 = {
            let d = g.mul_col_broadcast(k3, tau);
            g.add(h, d)
        };
        let k4 = f(g, h4, &self.weights);
        // h + tau/6 (k1 + 2k2 + 2k3 + k4)
        let sum = {
            let k2_2 = g.scale(k2, 2.0);
            let k3_2 = g.scale(k3, 2.0);
            let s = g.add(k1, k2_2);
            let s = g.add(s, k3_2);
            g.add(s, k4)
        };
        let sixth = g.scale(tau, 1.0 / 6.0);
        let delta = g.mul_col_broadcast(sum, sixth);
        g.add(h, delta)
    }

    /// Score the (src, dst) pairs of `view` with freshly sampled walks from
    /// the caller-provided RNG — the ranking path (no training, no neg
    /// role: pass `negs: Vec::new()` and `with_neg = false` never reads it).
    fn rank_block(
        &mut self,
        ctx: &StreamContext,
        view: &BatchView,
        rng: &mut SeededRng,
    ) -> Vec<f32> {
        let strategy = self.strategy();
        let (m, l) = (self.m, self.l);
        let sets = {
            let scratch = &mut self.scratch;
            obs::timed(stage::SAMPLING, || {
                Self::sample_sets(ctx, view, m, l, strategy, rng, scratch)
            })
        };
        let mut g = Graph::new(&self.core.store);
        let emb = self.encode_pairs(&mut g, ctx, view, &sets, false);
        let logits = self.weights.head.forward(&mut g, emb);
        let lm = g.value(logits);
        (0..view.len()).map(|r| lm.get(r, 0)).collect()
    }

    fn run_batch(
        &mut self,
        ctx: &StreamContext,
        batch: &[Interaction],
        neg_dsts: &[usize],
        train: bool,
    ) -> (f32, Vec<f32>, Vec<f32>) {
        let view = BatchView::new(batch, neg_dsts);
        let strategy = self.strategy();
        let (m, l) = (self.m, self.l);
        // Whole-batch dense span; the nested sampling span below subtracts
        // itself from its exclusive time.
        let _dense = obs::span(stage::DENSE);
        let sets = {
            let rng = &mut self.core.rng;
            let scratch = &mut self.scratch;
            obs::timed(stage::SAMPLING, || {
                Self::sample_sets(ctx, &view, m, l, strategy, rng, scratch)
            })
        };
        let mut g = Graph::new(&self.core.store);
        let pair_emb = self.encode_pairs(&mut g, ctx, &view, &sets, true);
        let logits = self.weights.head.forward(&mut g, pair_emb);
        let targets = pos_neg_targets(view.len());
        let loss = g.bce_with_logits(logits, &targets);
        let loss_val = g.value(loss).scalar();
        let n = view.len();
        let lm = g.value(logits).clone();
        let pos: Vec<f32> = (0..n).map(|r| lm.get(r, 0)).collect();
        let negs: Vec<f32> = (0..n).map(|r| lm.get(n + r, 0)).collect();
        let grads = if train { Some(g.backward(loss)) } else { None };
        drop(g);
        if let Some(grads) = grads {
            self.core.adam.step(&mut self.core.store, &grads);
        }
        (loss_val, pos, negs)
    }
}

impl TgnnModel for WalkModel {
    fn name(&self) -> &'static str {
        match self.kind {
            WalkKind::Cawn => "CAWN",
            WalkKind::NeurTw { use_nodes: true } => "NeurTW",
            WalkKind::NeurTw { use_nodes: false } => "NeurTW-noNODE",
        }
    }

    fn anatomy(&self) -> Anatomy {
        match self.kind {
            WalkKind::Cawn => Anatomy {
                memory: false,
                attention: true,
                rnn: true,
                temp_walk: true,
                scalability: true,
                supervision: "self-supervised",
            },
            WalkKind::NeurTw { .. } => Anatomy {
                memory: false,
                attention: false,
                rnn: true,
                temp_walk: true,
                scalability: false,
                supervision: "self (semi)-supervised",
            },
        }
    }

    fn reset_state(&mut self) {
        // Walk models are stateless; walks are resampled from the stream.
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
        let (_, pos, negs) = self.run_batch(ctx, batch, neg, false);
        (pos, negs)
    }

    fn score_candidates(
        &mut self,
        ctx: &StreamContext,
        batch: &[Interaction],
        cand_dsts: &[usize],
        k: usize,
    ) -> (Vec<f32>, Vec<f32>) {
        // Walk models are stateless in memory but their own RNG advances per
        // sampled walk — ranking draws all its walks from a query-derived RNG
        // (`ranking_rng`) so `core.rng` (and thus AUC/AP) is untouched.
        let n = batch.len();
        let mut rng = ranking_rng(batch, cand_dsts);
        let srcs: Vec<usize> = batch.iter().map(|e| e.src).collect();
        let times: Vec<f64> = batch.iter().map(|e| e.t).collect();
        let feat_idx: Vec<usize> = batch.iter().map(|e| e.feat_idx).collect();
        let mk_view = |dsts: Vec<usize>| BatchView {
            srcs: srcs.clone(),
            dsts,
            negs: Vec::new(),
            times: times.clone(),
            feat_idx: feat_idx.clone(),
        };
        let pos_view = mk_view(batch.iter().map(|e| e.dst).collect());
        let pos = self.rank_block(ctx, &pos_view, &mut rng);
        let mut cands = Vec::with_capacity(n * k);
        for j in 0..k {
            let view = mk_view(cand_dsts[j * n..(j + 1) * n].to_vec());
            cands.extend(self.rank_block(ctx, &view, &mut rng));
        }
        (pos, cands)
    }

    fn embed_events(&mut self, ctx: &StreamContext, batch: &[Interaction]) -> Matrix {
        // Encode each event as the (src, dst) pair walk embedding — the
        // node-classification head the paper added for CAWN/NeurTW reads
        // the source-centered walk encoding.
        let negs: Vec<usize> = batch.iter().map(|e| e.dst).collect();
        let view = BatchView::new(batch, &negs);
        let strategy = self.strategy();
        let (m, l) = (self.m, self.l);
        let sets = {
            let rng = &mut self.core.rng;
            let scratch = &mut self.scratch;
            Self::sample_sets(ctx, &view, m, l, strategy, rng, scratch)
        };
        let store = &self.core.store;
        let mut g = Graph::new(store);
        let emb = self.encode_pairs(&mut g, ctx, &view, &sets, false);
        g.value(emb).clone()
    }

    fn embed_dim(&self) -> usize {
        self.hidden
    }

    fn snapshot(&self) -> Vec<Matrix> {
        self.core.snapshot()
    }

    fn restore(&mut self, snapshot: &[Matrix]) {
        self.core.restore(snapshot);
    }

    fn state_bytes(&self) -> usize {
        // No persistent temporal state; the sampler scratch dominates and is
        // transient. Parameters + optimizer only.
        self.core.param_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use benchtemp_graph::generators::GeneratorConfig;
    use benchtemp_graph::paged::NeighborBackend;
    use benchtemp_graph::NeighborFinder;

    fn setup() -> benchtemp_graph::TemporalGraph {
        GeneratorConfig::small("wm", 81).generate()
    }

    fn small_cfg() -> ModelConfig {
        ModelConfig {
            embed_dim: 16,
            time_dim: 8,
            walks: 3,
            walk_len: 2,
            ..Default::default()
        }
    }

    #[test]
    fn cawn_scores_are_finite_and_shaped() {
        let g = setup();
        let nf = NeighborFinder::from_events(g.num_nodes, &g.events);
        let ctx = StreamContext {
            graph: &g,
            neighbors: NeighborBackend::Resident(&nf),
        };
        let mut m = WalkModel::cawn(small_cfg(), &g);
        let batch = &g.events[800..830];
        let negs: Vec<usize> = batch.iter().map(|_| g.num_users + 2).collect();
        let (pos, neg) = m.eval_batch(&ctx, batch, &negs);
        assert_eq!(pos.len(), 30);
        assert_eq!(neg.len(), 30);
        assert!(pos.iter().chain(neg.iter()).all(|s| s.is_finite()));
    }

    #[test]
    fn neurtw_ablation_changes_scores() {
        let g = setup();
        let nf = NeighborFinder::from_events(g.num_nodes, &g.events);
        let ctx = StreamContext {
            graph: &g,
            neighbors: NeighborBackend::Resident(&nf),
        };
        let batch = &g.events[800..820];
        let negs: Vec<usize> = batch.iter().map(|_| g.num_users + 2).collect();
        let mut with = WalkModel::neurtw(small_cfg(), &g);
        let mut without = WalkModel::neurtw_without_nodes(small_cfg(), &g);
        let (p1, _) = with.eval_batch(&ctx, batch, &negs);
        let (p2, _) = without.eval_batch(&ctx, batch, &negs);
        assert_ne!(p1, p2, "removing NODEs must change the computation");
        assert_eq!(with.name(), "NeurTW");
        assert_eq!(without.name(), "NeurTW-noNODE");
    }

    #[test]
    fn training_reduces_loss_on_one_batch() {
        let g = setup();
        let nf = NeighborFinder::from_events(g.num_nodes, &g.events);
        let ctx = StreamContext {
            graph: &g,
            neighbors: NeighborBackend::Resident(&nf),
        };
        let mut m = WalkModel::cawn(
            ModelConfig {
                lr: 1e-2,
                ..small_cfg()
            },
            &g,
        );
        let batch = &g.events[900..940];
        let negs: Vec<usize> = batch.iter().map(|_| g.num_users + 5).collect();
        let first = m.train_batch(&ctx, batch, &negs);
        let mut last = first;
        for _ in 0..15 {
            last = m.train_batch(&ctx, batch, &negs);
        }
        assert!(last < first, "walk-model loss went {first} → {last}");
    }

    #[test]
    fn embed_events_shape() {
        let g = setup();
        let nf = NeighborFinder::from_events(g.num_nodes, &g.events);
        let ctx = StreamContext {
            graph: &g,
            neighbors: NeighborBackend::Resident(&nf),
        };
        let mut m = WalkModel::neurtw(small_cfg(), &g);
        let emb = m.embed_events(&ctx, &g.events[500..510]);
        assert_eq!(emb.shape(), (10, 16));
    }

    #[test]
    fn anatomy_matches_table1() {
        let g = setup();
        let cawn = WalkModel::cawn(small_cfg(), &g);
        assert!(cawn.anatomy().temp_walk && !cawn.anatomy().memory);
        let ntw = WalkModel::neurtw(small_cfg(), &g);
        assert!(ntw.anatomy().rnn && ntw.anatomy().temp_walk && !ntw.anatomy().attention);
    }
}
