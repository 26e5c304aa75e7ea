//! The parameter cone: `Tape::backward` computes gradients only for nodes
//! with a trainable parameter upstream.
//!
//! One TGN-shaped step — gathered node features and edge features through
//! `linear_affine` projections, fused multi-head attention, a GRU-style
//! update of a constant memory row, `bce_with_logits` — is built twice over
//! the same values:
//!
//! * **full**: every data matrix is a differentiable `Tape::leaf`, so the
//!   backward pass visits every node (the oracle);
//! * **cone**: the same matrices enter as constants, through
//!   `Tape::gather_rows_from`, `Graph::input` and `Graph::input_from`.
//!
//! Every parameter gradient must match bit for bit, the constants must get
//! no gradient, and the matmul FLOPs of the backward pass must drop by
//! exactly the `dx = gp·wᵀ` products of the projections whose input is a
//! constant.

use benchtemp_obs::counters::MATMUL_FLOPS;
use benchtemp_tensor::tape::{Activation, Var};
use benchtemp_tensor::{init, Graph, Matrix, ParamId, ParamStore, Tape};

/// Queries in the batch.
const N: usize = 4;
/// Neighbor slots per query.
const GROUP: usize = 3;
const HEADS: usize = 2;
/// Node feature width.
const FEAT: usize = 6;
/// Edge feature width.
const EDGE: usize = 5;
/// Model (memory) width.
const DIM: usize = 8;

fn mat(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = init::rng(seed);
    init::uniform(rows, cols, -1.0, 1.0, &mut rng)
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// The data of one batch: a node feature table with the query and
/// neighbor row indices into it, per-slot edge features, the queries'
/// memory rows, the neighbor mask and the labels.
struct Batch {
    nodes: Matrix,
    q_idx: Vec<usize>,
    k_idx: Vec<usize>,
    edges: Matrix,
    mem: Matrix,
    mask: Vec<bool>,
    targets: Vec<f32>,
}

impl Batch {
    fn new() -> Self {
        // Query 1 has one padded slot; query 3 has no valid neighbor.
        let mut mask = vec![true; N * GROUP];
        mask[GROUP + 2] = false;
        mask[3 * GROUP..].iter_mut().for_each(|m| *m = false);
        Batch {
            nodes: mat(20, FEAT, 1),
            q_idx: vec![3, 7, 7, 19],
            k_idx: vec![0, 5, 5, 12, 3, 9, 1, 1, 1, 18, 2, 4],
            edges: mat(N * GROUP, EDGE, 2),
            mem: mat(N, DIM, 3),
            mask,
            targets: vec![1.0, 0.0, 1.0, 0.0],
        }
    }
}

/// Plain row copies — the values `gather_rows_from` produces.
fn gathered(table: &Matrix, idx: &[usize]) -> Matrix {
    let mut out = Matrix::zeros(idx.len(), table.cols());
    for (r, &i) in idx.iter().enumerate() {
        out.row_mut(r).copy_from_slice(table.row(i));
    }
    out
}

/// Weights and biases of the six projections: query, key, value, gate,
/// candidate, output.
fn params() -> (ParamStore, Vec<ParamId>) {
    let mut store = ParamStore::new();
    let shapes = [
        (FEAT, DIM),
        (FEAT, DIM),
        (EDGE, DIM),
        (DIM, DIM),
        (DIM, DIM),
        (2 * DIM, 1),
    ];
    let mut ids = Vec::new();
    for (i, &(fan_in, fan_out)) in shapes.iter().enumerate() {
        let seed = 10 + 2 * i as u64;
        ids.push(store.add(format!("w{i}"), mat(fan_in, fan_out, seed)));
        ids.push(store.add(format!("b{i}"), mat(1, fan_out, seed + 1)));
    }
    (store, ids)
}

/// What one build's backward pass produced.
struct Pass {
    loss: u32,
    /// Gradient bits per parameter, in `params()` order.
    param_grads: Vec<Vec<u32>>,
    /// Which data inputs (query rows, neighbor rows, edge rows, memory
    /// rows) received a gradient.
    data_has_grad: [bool; 4],
    /// `MATMUL_FLOPS` ticked by the backward pass alone.
    backward_flops: u64,
}

fn run(store: &ParamStore, ids: &[ParamId], d: &Batch, constants: bool) -> Pass {
    let mut g = Graph::new(store);
    let p: Vec<Var> = ids.iter().map(|&id| g.param(id)).collect();
    let data = if constants {
        [
            g.gather_rows_from(&d.nodes, &d.q_idx),
            g.gather_rows_from(&d.nodes, &d.k_idx),
            g.input(d.edges.clone()),
            g.input_from(&d.mem),
        ]
    } else {
        [
            g.leaf(gathered(&d.nodes, &d.q_idx)),
            g.leaf(gathered(&d.nodes, &d.k_idx)),
            g.leaf(d.edges.clone()),
            g.leaf(d.mem.clone()),
        ]
    };
    let [xq, xk, e, mem] = data;
    let q = g.linear_affine(xq, p[0], p[1], Activation::None);
    let k = g.linear_affine(xk, p[2], p[3], Activation::None);
    let v = g.linear_affine(e, p[4], p[5], Activation::Relu);
    let att = g.multi_head_grouped_attention(q, k, v, HEADS, GROUP, &d.mask);
    // GRU-style memory update: h' = h + z ⊙ (h̃ − h), plus the gated
    // memory z ⊙ h, with the memory row h a constant.
    let z = g.linear_affine(att, p[6], p[7], Activation::Sigmoid);
    let cand = g.linear_affine(att, p[8], p[9], Activation::Tanh);
    let diff = g.sub(cand, mem);
    let upd = g.mul(z, diff);
    let h = g.add(mem, upd);
    let gated = g.mul(mem, z);
    let feats = g.concat_cols(h, gated);
    let logits = g.linear_affine(feats, p[10], p[11], Activation::None);
    let loss = g.bce_with_logits(logits, &d.targets);

    let before = MATMUL_FLOPS.get();
    let grads = Tape::backward(&mut g, loss);
    let backward_flops = MATMUL_FLOPS.get() - before;
    Pass {
        loss: g.value(loss).scalar().to_bits(),
        param_grads: p
            .iter()
            .map(|&v| bits(grads.get(v).expect("every parameter is in the cone")))
            .collect(),
        data_has_grad: data.map(|v| grads.get(v).is_some()),
        backward_flops,
    }
}

#[test]
fn cone_backward_matches_full_backward_bit_for_bit() {
    let d = Batch::new();
    let (store, ids) = params();
    let full = run(&store, &ids, &d, false);
    let cone = run(&store, &ids, &d, true);

    assert_eq!(
        full.loss, cone.loss,
        "forward values must not depend on the feed"
    );
    assert_eq!(full.param_grads.len(), ids.len());
    for (i, (f, c)) in full.param_grads.iter().zip(&cone.param_grads).enumerate() {
        assert_eq!(f, c, "gradient of parameter {} differs", store.name(ids[i]));
    }
    assert!(
        full.param_grads.iter().flatten().any(|&b| b != 0),
        "the step must produce a non-zero gradient"
    );

    // Differentiable leaves get gradients; constants get none.
    assert_eq!(full.data_has_grad, [true; 4]);
    assert_eq!(cone.data_has_grad, [false; 4]);

    // The only matmuls the cone skips are the `dx` products of the three
    // projections fed by constants: query rows, neighbor rows, edge rows.
    // (The memory row never enters a matmul.)
    let dx_flops = |rows: usize, fan_in: usize| 2 * (rows * DIM * fan_in) as u64;
    let skipped = dx_flops(N, FEAT) + dx_flops(N * GROUP, FEAT) + dx_flops(N * GROUP, EDGE);
    assert_eq!(
        full.backward_flops - cone.backward_flops,
        skipped,
        "backward FLOPs: full {} vs cone {}",
        full.backward_flops,
        cone.backward_flops,
    );
}

/// A loss computed from constants alone is outside the cone: backward
/// seeds nothing and every node reads `None`.
#[test]
fn loss_of_constants_has_no_gradient() {
    let store = ParamStore::new();
    let mut g = Graph::new(&store);
    let x = g.input(mat(3, 2, 4));
    let y = g.tanh(x);
    let loss = g.mean_all(y);
    let grads = Tape::backward(&mut g, loss);
    for v in [x, y, loss] {
        assert!(grads.get(v).is_none());
    }
}
