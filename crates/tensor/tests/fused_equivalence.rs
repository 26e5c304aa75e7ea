//! Bit-for-bit equivalence of the fused tape ops against test-side
//! reference implementations.
//!
//! Each fused op computes every output element with a fixed floating-point
//! operation order, so its forward values *and* gradients must match a
//! reference written from the op's definition exactly (`f32::to_bits`), not
//! just approximately:
//!
//! * `linear_affine` and `time_encode_fused` against forward and backward
//!   passes composed from the public [`Matrix`] kernels (`matmul`,
//!   `matmul_transpose`, `transpose_matmul`) plus the bias column-sum loop;
//! * `multi_head_grouped_attention` with `heads = H` against `H`
//!   single-head calls on column-sliced inputs, stitched back together;
//! * an MLP through [`Graph`] against the reference affine passes chained
//!   by hand.
//!
//! Every test backpropagates a fixed random upstream gradient `G` (the loss
//! is `sum(y ⊙ G)`, whose gradient with respect to `y` is exactly `G`), over
//! a grid of shapes (1×1, ragged, large), every activation, attention masks
//! with padded slots and fully padded rows, and the Δt-memoization path.

use benchtemp_tensor::nn::Mlp;
use benchtemp_tensor::tape::{Activation, Var};
use benchtemp_tensor::{init, Graph, Matrix, ParamStore, Tape};

fn mat(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = init::rng(seed);
    init::uniform(rows, cols, -1.5, 1.5, &mut rng)
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

const ACTS: [Activation; 4] = [
    Activation::None,
    Activation::Relu,
    Activation::Sigmoid,
    Activation::Tanh,
];

/// `sum(y ⊙ G)` on the tape: the gradient reaching `y` is `1.0 · G = G`.
fn weighted_loss(t: &mut Tape, y: Var, upstream: &Matrix) -> Var {
    let gv = t.leaf(upstream.clone());
    let prod = t.mul(y, gv);
    t.sum_all(prod)
}

/// Column sum accumulated row by row from zero — the bias gradient.
fn col_sums(g: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(1, g.cols());
    for r in 0..g.rows() {
        for (o, &v) in out.row_mut(0).iter_mut().zip(g.row(r)) {
            *o += v;
        }
    }
    out
}

/// `a + b` with the 1×n row `b` broadcast over the rows of `a`.
fn add_row(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = a.clone();
    for r in 0..out.rows() {
        for (o, &x) in out.row_mut(r).iter_mut().zip(b.row(0)) {
            *o += x;
        }
    }
    out
}

fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

fn activate(x: f32, act: Activation) -> f32 {
    match act {
        Activation::None => x,
        Activation::Relu => x.max(0.0),
        Activation::Sigmoid => sigmoid(x),
        Activation::Tanh => x.tanh(),
    }
}

/// Reference `act(x·w + b)`; returns `(pre-activation, output)`.
fn ref_affine(x: &Matrix, w: &Matrix, b: &Matrix, act: Activation) -> (Matrix, Matrix) {
    let pre = add_row(&x.matmul(w), b);
    let y = pre.map(|v| activate(v, act));
    (pre, y)
}

/// Reference backward of [`ref_affine`] for upstream gradient `gy`;
/// returns `(dx, dw, db)`.
fn ref_affine_backward(
    x: &Matrix,
    w: &Matrix,
    pre: &Matrix,
    y: &Matrix,
    gy: &Matrix,
    act: Activation,
) -> (Matrix, Matrix, Matrix) {
    let gp = match act {
        Activation::None => gy.clone(),
        Activation::Relu => gy.zip(pre, |g, p| if p > 0.0 { g } else { 0.0 }),
        Activation::Sigmoid => gy.zip(y, |g, s| g * s * (1.0 - s)),
        Activation::Tanh => gy.zip(y, |g, th| g * (1.0 - th * th)),
    };
    (
        gp.matmul_transpose(w),
        x.transpose_matmul(&gp),
        col_sums(&gp),
    )
}

/// One `linear_affine` forward+backward on the tape and the reference;
/// returns both `(y, dx, dw, db)` bit sets.
fn linear_pair(m: usize, k: usize, n: usize, act: Activation, seed: u64) -> [[Vec<u32>; 4]; 2] {
    let (xm, wm, bm, gm) = (
        mat(m, k, seed),
        mat(k, n, seed + 1),
        mat(1, n, seed + 2),
        mat(m, n, seed + 3),
    );
    let mut t = Tape::new();
    let x = t.leaf(xm.clone());
    let w = t.leaf(wm.clone());
    let b = t.leaf(bm.clone());
    let y = t.linear_affine(x, w, b, act);
    let loss = weighted_loss(&mut t, y, &gm);
    let grads = t.backward(loss);
    let tape = [
        bits(t.value(y)),
        bits(grads.get(x).expect("dx")),
        bits(grads.get(w).expect("dw")),
        bits(grads.get(b).expect("db")),
    ];

    let (pre, ry) = ref_affine(&xm, &wm, &bm, act);
    let (dx, dw, db) = ref_affine_backward(&xm, &wm, &pre, &ry, &gm, act);
    [tape, [bits(&ry), bits(&dx), bits(&dw), bits(&db)]]
}

#[test]
fn linear_affine_matches_reference_bitwise() {
    // (batch m, in k, out n): degenerate, ragged, and large-enough-to-tile.
    let shapes = [(1, 1, 1), (3, 5, 7), (8, 9, 2), (17, 4, 13), (33, 16, 8)];
    for (i, &(m, k, n)) in shapes.iter().enumerate() {
        for (j, &act) in ACTS.iter().enumerate() {
            let seed = 100 + (i * ACTS.len() + j) as u64 * 5;
            let [tape, reference] = linear_pair(m, k, n, act, seed);
            assert_eq!(
                tape, reference,
                "linear_affine bits diverged at shape ({m},{k},{n}), act {act:?}"
            );
        }
    }
}

/// One `time_encode_fused` forward+backward on the tape and the reference
/// `cos(column(dts)·ω + φ)`; returns both `(y, dω, dφ)` bit sets.
fn time_encode_pair(dts: &[f32], d: usize, seed: u64) -> [[Vec<u32>; 3]; 2] {
    let (om, ph, gm) = (
        mat(1, d, seed),
        mat(1, d, seed + 1),
        mat(dts.len(), d, seed + 2),
    );
    let mut t = Tape::new();
    let omega = t.leaf(om.clone());
    let phase = t.leaf(ph.clone());
    let y = t.time_encode_fused(dts, omega, phase);
    let loss = weighted_loss(&mut t, y, &gm);
    let grads = t.backward(loss);
    let tape = [
        bits(t.value(y)),
        bits(grads.get(omega).expect("domega")),
        bits(grads.get(phase).expect("dphase")),
    ];

    let col = Matrix::column(dts);
    let s = add_row(&col.matmul(&om), &ph);
    let ry = s.map(f32::cos);
    let gs = gm.zip(&s, |g, x| -g * x.sin());
    let reference = [
        bits(&ry),
        bits(&col.transpose_matmul(&gs)),
        bits(&col_sums(&gs)),
    ];
    [tape, reference]
}

#[test]
fn time_encode_fused_matches_reference_bitwise() {
    let mut rng = init::rng(7);
    let distinct: Vec<f32> = init::uniform(33, 1, 0.0, 50.0, &mut rng)
        .as_slice()
        .to_vec();
    // Duplicate-heavy batch: every Δt appears twice, so the memo serves
    // half the rows via row copy.
    let mut duplicated = distinct[..8].to_vec();
    duplicated.extend_from_slice(&distinct[..8]);
    let cases: Vec<(Vec<f32>, usize)> = vec![
        (vec![0.0], 1),
        (distinct[..7].to_vec(), 8),
        (distinct.clone(), 16),
        (duplicated, 8),
        (vec![3.25; 12], 5), // all rows identical: memo serves n-1 of n
    ];
    for (i, (dts, d)) in cases.iter().enumerate() {
        let seed = 500 + i as u64 * 11;
        let [tape, reference] = time_encode_pair(dts, *d, seed);
        assert_eq!(
            tape,
            reference,
            "time_encode bits diverged for case {i} (n={}, d={d})",
            dts.len()
        );
    }
}

#[test]
fn time_encode_memo_hits_on_duplicate_dts() {
    let dts = vec![1.5f32; 16];
    let before = benchtemp_obs::counters::TIME_ENCODE_MEMO_HITS.get();
    let [tape, reference] = time_encode_pair(&dts, 4, 42);
    let after = benchtemp_obs::counters::TIME_ENCODE_MEMO_HITS.get();
    assert!(
        after - before >= 15,
        "memo should serve 15 of 16 identical rows (got {} hits)",
        after - before
    );
    assert_eq!(tape, reference, "memoized rows diverged from the reference");

    // Duplicate-heavy mixed batch — the shape a frontier hop actually
    // produces (a few distinct Δt values, each repeated across slots, plus
    // padding zeros). The memo must fire (counter strictly increases) and
    // the memoized rows must still match the reference bitwise.
    let mixed: Vec<f32> = (0..24)
        .map(|i| [0.0f32, 2.75, 0.0, 9.5, 2.75, 0.0][i % 6])
        .collect();
    let before = benchtemp_obs::counters::TIME_ENCODE_MEMO_HITS.get();
    let [tape, reference] = time_encode_pair(&mixed, 6, 43);
    let after = benchtemp_obs::counters::TIME_ENCODE_MEMO_HITS.get();
    assert!(
        after > before,
        "memo must register hits on a duplicate-heavy mixed batch"
    );
    assert_eq!(
        tape, reference,
        "memoized rows diverged from the reference on the mixed batch"
    );
}

/// Columns `[lo, hi)` of `m` as a new matrix.
fn cols(m: &Matrix, lo: usize, hi: usize) -> Matrix {
    let mut out = Matrix::zeros(m.rows(), hi - lo);
    for r in 0..m.rows() {
        out.row_mut(r).copy_from_slice(&m.row(r)[lo..hi]);
    }
    out
}

/// One grouped-attention forward+backward on a fresh tape; returns
/// `[y, dq, dk, dv]`.
fn attention(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    upstream: &Matrix,
    heads: usize,
    group: usize,
    mask: &[bool],
) -> [Matrix; 4] {
    let mut t = Tape::new();
    let (qv, kv, vv) = (t.leaf(q.clone()), t.leaf(k.clone()), t.leaf(v.clone()));
    let y = t.multi_head_grouped_attention(qv, kv, vv, heads, group, mask);
    let loss = weighted_loss(&mut t, y, upstream);
    let grads = t.backward(loss);
    [
        t.value(y).clone(),
        grads.get(qv).expect("dq").clone(),
        grads.get(kv).expect("dk").clone(),
        grads.get(vv).expect("dv").clone(),
    ]
}

/// `heads = H` in one node vs `H` single-head calls on the column-sliced
/// Q/K/V (and upstream gradient) stitched back together, over a grid of
/// head counts, group sizes, and mask patterns — including rows whose every
/// neighbor slot is masked (the all-padded case), which must produce a zero
/// output row with zero gradient flow.
#[test]
fn multi_head_attention_matches_per_head_reference_bitwise() {
    // (n, heads, group, model_dim)
    let shapes = [
        (1, 1, 1, 4),
        (3, 1, 4, 8),
        (4, 2, 3, 8),
        (5, 4, 6, 16),
        (9, 2, 5, 12),
    ];
    for (i, &(n, heads, group, model_dim)) in shapes.iter().enumerate() {
        let slots = n * group;
        let full = vec![true; slots];
        // Every third slot padded out.
        let partial: Vec<bool> = (0..slots).map(|s| !s.is_multiple_of(3)).collect();
        // Whole rows fully masked (first and last query rows).
        let mut row_masked = vec![true; slots];
        row_masked[..group].fill(false);
        row_masked[slots - group..].fill(false);
        let all_masked = vec![false; slots];
        for (j, mask) in [full, partial, row_masked, all_masked].iter().enumerate() {
            let seed = 900 + (i * 4 + j) as u64 * 7;
            let q = mat(n, model_dim, seed);
            let k = mat(slots, model_dim, seed + 1);
            let v = mat(slots, model_dim, seed + 2);
            let g = mat(n, model_dim, seed + 3);
            let fused = attention(&q, &k, &v, &g, heads, group, mask);

            let hd = model_dim / heads;
            let per_head: Vec<[Matrix; 4]> = (0..heads)
                .map(|h| {
                    let (lo, hi) = (h * hd, (h + 1) * hd);
                    let [q, k, v, g] = [&q, &k, &v, &g].map(|m| cols(m, lo, hi));
                    attention(&q, &k, &v, &g, 1, group, mask)
                })
                .collect();
            for (part, name) in ["y", "dq", "dk", "dv"].iter().enumerate() {
                let stitched = per_head[1..]
                    .iter()
                    .fold(per_head[0][part].clone(), |acc, h| {
                        acc.concat_cols(&h[part])
                    });
                assert_eq!(
                    bits(&fused[part]),
                    bits(&stitched),
                    "multi-head attention {name} bits diverged at shape \
                     (n={n}, heads={heads}, group={group}, d={model_dim}), mask case {j}"
                );
            }
        }
    }
}

/// Full model-shaped check: an MLP through [`Graph`] (param binding, fused
/// `Linear→ReLU→Linear`, BCE loss) must produce the loss and per-parameter
/// gradients of the reference affine passes chained by hand.
#[test]
fn mlp_graph_matches_reference_bitwise() {
    let mut store = ParamStore::new();
    let mut rng = init::rng(9);
    let mlp = Mlp::new(&mut store, &mut rng, "eq", 6, 16, 1);
    let x = mat(10, 6, 77);
    let targets: Vec<f32> = (0..10).map(|i| (i % 2) as f32).collect();

    let mut g = Graph::new(&store);
    let xv = g.input_from(&x);
    let logits = mlp.forward(&mut g, xv);
    let loss = g.bce_with_logits(logits, &targets);
    let loss_bits = bits(g.value(loss));
    let grads: Vec<(usize, Vec<u32>)> = g
        .backward(loss)
        .iter()
        .map(|(id, m)| (id.index(), bits(m)))
        .collect();

    let p = |id| store.value(id);
    let (fc1, fc2) = (&mlp.fc1, &mlp.fc2);
    let (pre1, h) = ref_affine(&x, p(fc1.w), p(fc1.b), Activation::Relu);
    let (pre2, z) = ref_affine(&h, p(fc2.w), p(fc2.b), Activation::None);
    // Mean BCE with logits in its stable form, accumulated in f64; its
    // gradient is (σ(z) − y)/n per row.
    let n = targets.len();
    let mut ref_loss = 0.0f64;
    for (r, &y) in targets.iter().enumerate() {
        let zr = z.get(r, 0);
        ref_loss += ((-zr.abs()).exp().ln_1p() + zr.max(0.0) - zr * y) as f64;
    }
    let ref_loss = Matrix::full(1, 1, (ref_loss / n as f64) as f32);
    let inv = 1.0 / n as f32;
    let mut gz = Matrix::zeros(n, 1);
    for (r, &y) in targets.iter().enumerate() {
        gz.set(r, 0, (sigmoid(z.get(r, 0)) - y) * inv);
    }
    let (gh, dw2, db2) = ref_affine_backward(&h, p(fc2.w), &pre2, &z, &gz, Activation::None);
    let (_, dw1, db1) = ref_affine_backward(&x, p(fc1.w), &pre1, &h, &gh, Activation::Relu);
    let mut reference = vec![
        (fc1.w.index(), bits(&dw1)),
        (fc1.b.index(), bits(&db1)),
        (fc2.w.index(), bits(&dw2)),
        (fc2.b.index(), bits(&db2)),
    ];
    reference.sort();

    assert_eq!(loss_bits, bits(&ref_loss), "MLP loss bits diverged");
    assert_eq!(grads, reference, "MLP gradient bits diverged");
}
