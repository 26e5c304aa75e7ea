//! Reverse-mode automatic differentiation on an arena tape.
//!
//! A [`Tape`] records every operation as a node; [`Var`] is a copyable handle
//! into the arena. Calling [`Tape::backward`] seeds the gradient of a scalar
//! output and walks the tape in reverse, accumulating gradients into every
//! node. Parameters are ordinary leaves whose gradients are read back by the
//! optimizer after the backward pass.
//!
//! The design trades generality for auditability: each op's backward rule is
//! a hand-derived match arm, and every rule is checked against finite
//! differences in the test suite. The fused ops (`linear_affine`,
//! `time_encode_fused`, `multi_head_grouped_attention`, `gather_rows_from`)
//! are also pinned bit-for-bit against reference compositions over plain
//! [`Matrix`] kernels in `tests/fused_equivalence.rs`.

// audit-allow-file(hot-path-alloc-reachability): forward ops allocate their
// output node's storage by design (one arena push per op), and the parallel
// attention path boxes per-task closures; the zero-alloc pins cover the inner
// row kernels, which run on preallocated rows below the parallel thresholds.

use crate::matrix::Matrix;

/// Handle to a node on a [`Tape`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var(pub(crate) usize);

/// Activation fused into [`Tape::linear_affine`]. Each variant applies the
/// exact elementwise function of the corresponding standalone tape op
/// (`relu`/`sigmoid`/`tanh`), so fusing it changes no bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    None,
    Relu,
    Sigmoid,
    Tanh,
}

impl Activation {
    #[inline]
    fn apply(self, x: f32) -> f32 {
        match self {
            Activation::None => x,
            Activation::Relu => x.max(0.0),
            Activation::Sigmoid => stable_sigmoid(x),
            Activation::Tanh => x.tanh(),
        }
    }
}

/// Operation record; indices refer to parent nodes on the same tape.
enum Op {
    Leaf,
    Add(usize, usize),
    Sub(usize, usize),
    Mul(usize, usize),
    Neg(usize),
    Scale(usize, f32),
    AddScalar(usize),
    MatMul(usize, usize),
    Transpose(usize),
    Sigmoid(usize),
    Tanh(usize),
    Relu(usize),
    Exp(usize),
    Ln(usize),
    Cos(usize),
    SumAll(usize),
    MeanAll(usize),
    MulColBroadcast(usize, usize),
    ConcatCols(usize, usize),
    ConcatRows(usize, usize),
    SliceRows(usize, usize, usize),
    /// Fused multi-head grouped attention — see
    /// [`Tape::multi_head_grouped_attention`]. One node per layer consumes
    /// the packed Q/K/V projections through strided per-head views; the
    /// saved softmax weights are a pool-granted n×(heads·group) matrix laid
    /// out `[row][head][group]`, recycled at reset.
    MultiHeadGroupedAttention {
        q: usize,
        k: usize,
        v: usize,
        heads: usize,
        group: usize,
        scale: f32,
        weights: Matrix,
    },
    /// Fused `act(x·w + b)` — see [`Tape::linear_affine`].
    LinearAffine {
        x: usize,
        w: usize,
        b: usize,
        act: Activation,
    },
    /// Fused `cos(dt·ω + φ)` — see [`Tape::time_encode_fused`]. The Δt
    /// column is saved (pool-granted, recycled at reset) for the backward
    /// `dtᵀ·gs` product.
    TimeEncodeFused {
        omega: usize,
        phase: usize,
        dts: Matrix,
    },
    BceWithLogits {
        logits: usize,
        targets: Vec<f32>,
    },
    SoftmaxCrossEntropy {
        logits: usize,
        labels: Vec<usize>,
        probs: Matrix,
    },
}

struct Node {
    value: Matrix,
    op: Op,
}

/// One shape's free list plus the demand accounting behind the epoch trim.
#[derive(Default)]
struct ShapeBin {
    free: Vec<Vec<f32>>,
    /// Buffers taken since the last batch boundary — one batch's demand.
    takes_this_batch: usize,
    /// Max takes in any batch since the last trim: how many buffers this
    /// shape needs resident to serve a batch allocation-free.
    high_water: usize,
}

/// Shape-keyed recycler for node value storage. Buffers returned by
/// [`Tape::reset`] are handed back out by the forward ops of the next batch,
/// so steady-state training stops allocating per op.
///
/// A `BTreeMap` (not `HashMap`) keys the bins: the trim and accounting paths
/// iterate the map, and the deterministic-order policy from PR 4's audit
/// rule applies — iteration order must never depend on hash state.
#[derive(Default)]
struct BufferPool {
    by_shape: std::collections::BTreeMap<(usize, usize), ShapeBin>,
}

impl BufferPool {
    /// Per-shape retention cap: bounds steady-state memory while covering
    /// every distinct shape one batch's forward pass produces. The epoch
    /// trim ([`BufferPool::trim`]) tightens this to observed demand.
    const MAX_PER_SHAPE: usize = 32;

    fn take(&mut self, rows: usize, cols: usize) -> Option<Vec<f32>> {
        let bin = self.by_shape.entry((rows, cols)).or_default();
        bin.takes_this_batch += 1;
        let got = bin.free.pop();
        if got.is_some() {
            benchtemp_obs::counters::TAPE_POOL_HITS.incr();
        } else {
            benchtemp_obs::counters::TAPE_POOL_MISSES.incr();
        }
        got
    }

    fn put(&mut self, rows: usize, cols: usize, buf: Vec<f32>) {
        debug_assert_eq!(buf.len(), rows * cols);
        let bin = self.by_shape.entry((rows, cols)).or_default();
        if bin.free.len() < Self::MAX_PER_SHAPE {
            bin.free.push(buf);
        }
    }

    /// Close one batch's demand window: fold the batch take counts into the
    /// per-shape high-water marks.
    fn end_batch(&mut self) {
        for bin in self.by_shape.values_mut() {
            bin.high_water = bin.high_water.max(bin.takes_this_batch);
            bin.takes_this_batch = 0;
        }
    }

    /// Epoch-boundary trim: drop every free buffer beyond what the biggest
    /// batch since the last trim actually took, and forget shapes no batch
    /// touched. Restarts the high-water window.
    fn trim(&mut self) {
        self.end_batch();
        self.by_shape.retain(|_, bin| {
            bin.free.truncate(bin.high_water);
            let keep = bin.high_water > 0;
            bin.high_water = 0;
            keep
        });
    }

    /// Heap bytes resident in the free lists.
    fn resident_bytes(&self) -> u64 {
        self.by_shape
            .values()
            .flat_map(|bin| bin.free.iter())
            .map(|buf| (buf.capacity() * std::mem::size_of::<f32>()) as u64)
            .sum()
    }
}

/// Arena tape for one forward/backward round.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    pool: BufferPool,
    /// Matrices handed out by `alloc_raw`/`alloc_zeroed` since the last
    /// [`Tape::reset`]. Every one must become a node value (and so return
    /// to the buffer pool at the next reset); the sanitizer checks the
    /// balance against `absorbed_since_reset`.
    granted_since_reset: usize,
    /// Allocator-granted matrices recorded as node values since the last
    /// reset (every non-leaf `push`).
    absorbed_since_reset: usize,
    /// Δt-bits → first-row memo scratch for [`Tape::time_encode_fused`].
    /// Cleared (capacity kept) at the start of each call; lives on the tape
    /// so steady-state batches don't re-allocate it. Lookup-only — never
    /// iterated — so hash order can't leak into results.
    te_memo: std::collections::HashMap<u32, usize>,
}

impl Tape {
    pub fn new() -> Self {
        Tape {
            nodes: Vec::with_capacity(256),
            pool: BufferPool::default(),
            granted_since_reset: 0,
            absorbed_since_reset: 0,
            te_memo: std::collections::HashMap::new(),
        }
    }

    /// Number of recorded nodes (useful for budgeting in benches).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Clear all nodes while keeping the node arena's capacity and
    /// recycling node value storage into the shape-keyed buffer pool, so
    /// the next forward pass allocates (almost) nothing.
    ///
    /// With `BENCHTEMP_SANITIZE=1` this is also the matrix-buffer leak
    /// check: every matrix granted by `alloc_raw`/`alloc_zeroed` must have
    /// been recorded as a node value (and is recycled here). A granted
    /// matrix that was dropped on an early-exit path instead would bleed
    /// pool storage every batch; the sanitizer turns that into a panic.
    pub fn reset(&mut self) {
        if crate::sanitize::enabled() {
            assert_eq!(
                self.granted_since_reset, self.absorbed_since_reset,
                "sanitize[tape]: matrix-buffer leak: {} matrices granted by the tape \
                 allocator since the last reset but only {} recorded as nodes — a \
                 forward-op path dropped pooled storage",
                self.granted_since_reset, self.absorbed_since_reset,
            );
        }
        self.granted_since_reset = 0;
        self.absorbed_since_reset = 0;
        self.pool.end_batch();
        for node in self.nodes.drain(..) {
            let (r, c) = node.value.shape();
            self.pool.put(r, c, node.value.into_vec());
            // Some fused ops carry a second pool-granted matrix beside the
            // output (the time-encode Δt column, the attention softmax
            // weights); recycle those too.
            match node.op {
                Op::TimeEncodeFused { dts, .. } => {
                    let (r, c) = dts.shape();
                    self.pool.put(r, c, dts.into_vec());
                }
                Op::MultiHeadGroupedAttention { weights, .. } => {
                    let (r, c) = weights.shape();
                    self.pool.put(r, c, weights.into_vec());
                }
                _ => {}
            }
        }
    }

    /// Epoch-boundary pool trim: shed every recycled buffer beyond the
    /// largest single-batch demand observed since the last trim (the
    /// unbounded-growth fix — long runs with many distinct shapes no longer
    /// hold peak RAM forever). Samples the `tape.pool_resident_bytes` gauge
    /// with the pre-trim footprint so `EfficiencyReport` sees the peak.
    pub fn trim_pool(&mut self) {
        benchtemp_obs::counters::TAPE_POOL_RESIDENT_BYTES.sample(self.pool.resident_bytes());
        self.pool.trim();
    }

    /// Heap bytes currently resident in the recycled buffer pool.
    pub fn pool_resident_bytes(&self) -> u64 {
        self.pool.resident_bytes()
    }

    /// Matrix with recycled (arbitrary-content) storage — for ops that
    /// overwrite every entry.
    fn alloc_raw(&mut self, rows: usize, cols: usize) -> Matrix {
        self.granted_since_reset += 1;
        match self.pool.take(rows, cols) {
            Some(buf) => Matrix::from_vec(rows, cols, buf),
            None => Matrix::zeros(rows, cols),
        }
    }

    /// Matrix with recycled zero-filled storage — for accumulation ops.
    fn alloc_zeroed(&mut self, rows: usize, cols: usize) -> Matrix {
        self.granted_since_reset += 1;
        match self.pool.take(rows, cols) {
            Some(buf) => {
                let mut m = Matrix::from_vec(rows, cols, buf);
                m.fill_zero();
                m
            }
            None => Matrix::zeros(rows, cols),
        }
    }

    fn push(&mut self, value: Matrix, op: Op) -> Var {
        benchtemp_obs::counters::TAPE_NODES_ALLOCATED.incr();
        // Leaves carry caller-provided storage; every other op's value came
        // from `alloc_raw`/`alloc_zeroed` (the leak-check balance).
        if !matches!(op, Op::Leaf) {
            self.absorbed_since_reset += 1;
        }
        self.nodes.push(Node { value, op });
        Var(self.nodes.len() - 1)
    }

    /// Insert a constant/input/parameter leaf.
    pub fn leaf(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Leaf)
    }

    /// Leaf whose storage comes from the recycled buffer pool: copies `src`
    /// into a pooled buffer. Bit-identical to `leaf(src.clone())`, minus
    /// the steady-state allocation.
    pub fn leaf_copied(&mut self, src: &Matrix) -> Var {
        let (r, c) = src.shape();
        let mut m = self.alloc_raw(r, c);
        m.copy_from(src);
        // `push` skips the grant balance for leaves (they normally carry
        // caller storage); this leaf's storage is pool-granted, so count it.
        self.absorbed_since_reset += 1;
        self.push(m, Op::Leaf)
    }

    /// Read a node's value.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    pub fn shape(&self, v: Var) -> (usize, usize) {
        self.nodes[v.0].value.shape()
    }

    // ---- elementwise & linear-algebra ops ------------------------------

    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let value = self.zip_op(a, b, |x, y| x + y);
        self.push(value, Op::Add(a.0, b.0))
    }

    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let value = self.zip_op(a, b, |x, y| x - y);
        self.push(value, Op::Sub(a.0, b.0))
    }

    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let value = self.zip_op(a, b, |x, y| x * y);
        self.push(value, Op::Mul(a.0, b.0))
    }

    pub fn neg(&mut self, a: Var) -> Var {
        let value = self.map_op(a, |x| -x);
        self.push(value, Op::Neg(a.0))
    }

    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let value = self.map_op(a, |x| s * x);
        self.push(value, Op::Scale(a.0, s))
    }

    pub fn add_scalar(&mut self, a: Var, s: f32) -> Var {
        let value = self.map_op(a, |x| x + s);
        self.push(value, Op::AddScalar(a.0))
    }

    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let (m, _) = self.shape(a);
        let (_, n) = self.shape(b);
        let mut out = self.alloc_raw(m, n);
        self.nodes[a.0]
            .value
            .matmul_into(&self.nodes[b.0].value, &mut out);
        self.push(out, Op::MatMul(a.0, b.0))
    }

    pub fn transpose(&mut self, a: Var) -> Var {
        let (r, c) = self.shape(a);
        let mut out = self.alloc_raw(c, r);
        self.nodes[a.0].value.transpose_into(&mut out);
        self.push(out, Op::Transpose(a.0))
    }

    pub fn sigmoid(&mut self, a: Var) -> Var {
        let value = self.map_op(a, stable_sigmoid);
        self.push(value, Op::Sigmoid(a.0))
    }

    pub fn tanh(&mut self, a: Var) -> Var {
        let value = self.map_op(a, f32::tanh);
        self.push(value, Op::Tanh(a.0))
    }

    pub fn relu(&mut self, a: Var) -> Var {
        let value = self.map_op(a, |x| x.max(0.0));
        self.push(value, Op::Relu(a.0))
    }

    pub fn exp(&mut self, a: Var) -> Var {
        let value = self.map_op(a, f32::exp);
        self.push(value, Op::Exp(a.0))
    }

    /// Natural log; inputs are clamped away from zero for stability.
    pub fn ln(&mut self, a: Var) -> Var {
        let value = self.map_op(a, |x| x.max(1e-12).ln());
        self.push(value, Op::Ln(a.0))
    }

    pub fn cos(&mut self, a: Var) -> Var {
        let value = self.map_op(a, f32::cos);
        self.push(value, Op::Cos(a.0))
    }

    /// Pooled elementwise map: recycled output, fused single pass.
    fn map_op(&mut self, a: Var, f: impl Fn(f32) -> f32) -> Matrix {
        let (r, c) = self.shape(a);
        let mut out = self.alloc_raw(r, c);
        self.nodes[a.0].value.map_into(&mut out, f);
        out
    }

    /// Pooled elementwise combine: recycled output, fused single pass.
    fn zip_op(&mut self, a: Var, b: Var, f: impl Fn(f32, f32) -> f32) -> Matrix {
        let (r, c) = self.shape(a);
        let mut out = self.alloc_raw(r, c);
        self.nodes[a.0]
            .value
            .zip_into(&self.nodes[b.0].value, &mut out, f);
        out
    }

    // ---- reductions -----------------------------------------------------

    /// Sum of all entries → 1×1.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let s = self.nodes[a.0].value.sum();
        let mut out = self.alloc_raw(1, 1);
        out.set(0, 0, s);
        self.push(out, Op::SumAll(a.0))
    }

    /// Mean of all entries → 1×1.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let m = &self.nodes[a.0].value;
        let s = m.sum() / m.len() as f32;
        let mut out = self.alloc_raw(1, 1);
        out.set(0, 0, s);
        self.push(out, Op::MeanAll(a.0))
    }

    // ---- broadcasting ----------------------------------------------------

    /// `a (n×m) * c (n×1)` broadcast over columns (row-wise scaling).
    pub fn mul_col_broadcast(&mut self, a: Var, c: Var) -> Var {
        let shape = self.shape(a);
        let mut out = self.alloc_raw(shape.0, shape.1);
        let (am, cm) = (&self.nodes[a.0].value, &self.nodes[c.0].value);
        assert_eq!(cm.cols(), 1, "mul_col_broadcast: c must be n×1");
        assert_eq!(am.rows(), cm.rows(), "mul_col_broadcast: height mismatch");
        out.copy_from(am);
        for r in 0..out.rows() {
            let s = cm.get(r, 0);
            out.row_mut(r).iter_mut().for_each(|x| *x *= s);
        }
        self.push(out, Op::MulColBroadcast(a.0, c.0))
    }

    // ---- structural ops --------------------------------------------------

    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let (ar, ac) = self.shape(a);
        let (br, bc) = self.shape(b);
        assert_eq!(ar, br, "concat_cols: row count mismatch");
        let mut out = self.alloc_raw(ar, ac + bc);
        let (am, bm) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        for r in 0..ar {
            out.row_mut(r)[..ac].copy_from_slice(am.row(r));
            out.row_mut(r)[ac..].copy_from_slice(bm.row(r));
        }
        self.push(out, Op::ConcatCols(a.0, b.0))
    }

    /// Horizontal concatenation of any number of vars.
    pub fn concat_cols_many(&mut self, vars: &[Var]) -> Var {
        assert!(!vars.is_empty(), "concat_cols_many: empty input");
        let mut acc = vars[0];
        for &v in &vars[1..] {
            acc = self.concat_cols(acc, v);
        }
        acc
    }

    pub fn concat_rows(&mut self, a: Var, b: Var) -> Var {
        let (ar, ac) = self.shape(a);
        let (br, bc) = self.shape(b);
        assert_eq!(ac, bc, "concat_rows: column count mismatch");
        let mut out = self.alloc_raw(ar + br, ac);
        let (am, bm) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        out.as_mut_slice()[..ar * ac].copy_from_slice(am.as_slice());
        out.as_mut_slice()[ar * ac..].copy_from_slice(bm.as_slice());
        self.push(out, Op::ConcatRows(a.0, b.0))
    }

    /// Pooled SoA gather leaf: rows of an external matrix (node/edge
    /// feature tables, memory states) land in one pool-granted buffer via
    /// run-length-coalesced contiguous copies
    /// ([`Matrix::gather_rows_into`]). Each destination row is
    /// byte-for-byte the source row, so coalescing cannot change bits; the
    /// run count is a pure function of the index list and is ticked into
    /// `tape.gather_coalesced_runs`. The result is a leaf: no gradient
    /// flows to `src`.
    pub fn gather_rows_from(&mut self, src: &Matrix, indices: &[usize]) -> Var {
        let _span = benchtemp_obs::span("gather");
        let mut out = self.alloc_raw(indices.len(), src.cols());
        let runs = src.gather_rows_into(indices, &mut out);
        benchtemp_obs::counters::GATHER_COALESCED_RUNS.add(runs);
        benchtemp_obs::counters::FUSED_OPS_EXECUTED.incr();
        // Pool-granted storage behind a leaf: `push` skips leaves in the
        // grant balance (they normally carry caller storage), so count it —
        // same pattern as `leaf_copied`.
        self.absorbed_since_reset += 1;
        self.push(out, Op::Leaf)
    }

    /// Row slice `[start, end)` — one contiguous copy of the row range; the
    /// backward pass writes the gradient back into that range. This is how
    /// the tri-batched TGAT embedding splits the stacked src/dst/neg towers
    /// back apart.
    pub fn slice_rows(&mut self, a: Var, start: usize, end: usize) -> Var {
        let (rows, cols) = self.shape(a);
        assert!(
            start < end && end <= rows,
            "slice_rows: bad range {start}..{end}"
        );
        let mut out = self.alloc_raw(end - start, cols);
        let m = &self.nodes[a.0].value;
        out.as_mut_slice()
            .copy_from_slice(&m.as_slice()[start * cols..end * cols]);
        self.push(out, Op::SliceRows(a.0, start, end))
    }

    // ---- fused attention --------------------------------------------------

    /// Fused multi-head grouped attention: every head of one attention
    /// layer in a single tape node.
    ///
    /// `q` is n×model_dim and `k`/`v` are (n·group)×model_dim — the packed
    /// projections, consumed through strided per-head column views
    /// (`[h·hd, (h+1)·hd)` of each row, `hd = model_dim/heads`) with no
    /// per-head copies. Rows `i·group .. (i+1)·group` of `k`/`v` are the
    /// candidates for query `i`; `mask[i*group+j] = false` excludes a padded
    /// neighbor, and a row whose mask is entirely false produces a zero
    /// output (and zero gradient) — "no valid temporal neighbors".
    ///
    /// Head outputs land directly in their column stripe of the output, and
    /// the hand-derived backward writes each head's stripe straight into
    /// the shared Q/K/V gradient buffers. Heads are independent: each head's
    /// scores, softmax, and accumulation see only its own stripe, so the
    /// result equals `heads` single-head calls on the column-sliced inputs
    /// stitched back together, bit for bit (see DESIGN.md §12).
    pub fn multi_head_grouped_attention(
        &mut self,
        q: Var,
        k: Var,
        v: Var,
        heads: usize,
        group: usize,
        mask: &[bool],
    ) -> Var {
        let (n, model_dim) = self.shape(q);
        assert!(
            heads > 0 && model_dim.is_multiple_of(heads),
            "multi_head_grouped_attention: model_dim must divide by heads"
        );
        let hd = model_dim / heads;
        let mut out = self.alloc_zeroed(n, model_dim);
        let mut weights = self.alloc_raw(n, heads * group);
        let scale = 1.0 / (hd as f32).sqrt();
        {
            let (qm, km, vm) = (
                &self.nodes[q.0].value,
                &self.nodes[k.0].value,
                &self.nodes[v.0].value,
            );
            assert_eq!(
                km.rows(),
                n * group,
                "multi_head_grouped_attention: k rows != n*group"
            );
            assert_eq!(
                vm.rows(),
                n * group,
                "multi_head_grouped_attention: v rows != n*group"
            );
            assert_eq!(
                km.cols(),
                model_dim,
                "multi_head_grouped_attention: k width != q width"
            );
            assert_eq!(
                vm.cols(),
                model_dim,
                "multi_head_grouped_attention: v width != q width"
            );
            assert_eq!(
                mask.len(),
                n * group,
                "multi_head_grouped_attention: mask length"
            );
            run_attention_rows(
                qm,
                km,
                vm,
                heads,
                group,
                hd,
                scale,
                mask,
                &mut out,
                &mut weights,
            );
        }
        benchtemp_obs::counters::FUSED_OPS_EXECUTED.incr();
        // Output + saved softmax weights are both pool-granted; `push` only
        // counts the output.
        self.absorbed_since_reset += 1;
        self.push(
            out,
            Op::MultiHeadGroupedAttention {
                q: q.0,
                k: k.0,
                v: v.0,
                heads,
                group,
                scale,
                weights,
            },
        )
    }

    // ---- fused affine & time encoding -------------------------------------

    /// Fused `act(x·w + b)`: matmul, row-bias broadcast, and activation in
    /// one node and one output buffer, with a hand-derived backward. The
    /// [`Matrix::matmul_into`] kernel fills the buffer and the epilogue
    /// applies `act(xw + b[j])` per element, so every output is exactly
    /// `act(matmul(x, w)[i][j] + b[j])` (see DESIGN.md §11).
    pub fn linear_affine(&mut self, x: Var, w: Var, b: Var, act: Activation) -> Var {
        let (m, _) = self.shape(x);
        let n = self.shape(w).1;
        let mut out = self.alloc_raw(m, n);
        {
            let (xm, wm, bm) = (
                &self.nodes[x.0].value,
                &self.nodes[w.0].value,
                &self.nodes[b.0].value,
            );
            assert_eq!(bm.rows(), 1, "linear_affine: b must be 1×n");
            assert_eq!(bm.cols(), n, "linear_affine: bias width mismatch");
            xm.matmul_into(wm, &mut out);
            let brow = bm.row(0);
            crate::matrix::fill_rows_par(&mut out, m * n, |_r, row| {
                bias_act_epilogue(row, brow, act);
            });
        }
        benchtemp_obs::counters::FUSED_OPS_EXECUTED.incr();
        self.push(
            out,
            Op::LinearAffine {
                x: x.0,
                w: w.0,
                b: b.0,
                act,
            },
        )
    }

    /// Fused time encoding `cos(dt·ω + φ)` over a Δt slice: the outer
    /// product (n×1 · 1×d), bias broadcast, and cosine in one node. Per
    /// element it computes `cos((0 + dt·ω_j) + φ_j)` — the k=1 matmul
    /// accumulation, then the broadcast add, then `cos`.
    ///
    /// Temporal batches repeat Δt values heavily, so rows are memoized by
    /// Δt bit pattern within the call: a repeated Δt copies the
    /// already-computed row, which is trivially bit-identical because the
    /// row is a function of `(dt, ω, φ)` alone.
    pub fn time_encode_fused(&mut self, dts: &[f32], omega: Var, phase: Var) -> Var {
        let n = dts.len();
        let d = self.shape(omega).1;
        let mut out = self.alloc_raw(n, d);
        let mut col = self.alloc_raw(n, 1);
        col.as_mut_slice().copy_from_slice(dts);
        let mut memo = std::mem::take(&mut self.te_memo);
        memo.clear();
        let mut memo_hits = 0u64;
        {
            let (om, ph) = (&self.nodes[omega.0].value, &self.nodes[phase.0].value);
            assert_eq!(om.rows(), 1, "time_encode_fused: omega must be 1×d");
            assert_eq!(ph.shape(), (1, d), "time_encode_fused: phase must be 1×d");
            let (om_row, ph_row) = (om.row(0), ph.row(0));
            for (r, &dt) in dts.iter().enumerate() {
                match memo.entry(dt.to_bits()) {
                    std::collections::hash_map::Entry::Occupied(e) => {
                        let src = *e.get();
                        memo_hits += 1;
                        out.as_mut_slice()
                            .copy_within(src * d..(src + 1) * d, r * d);
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(r);
                        let row = out.row_mut(r);
                        for j in 0..d {
                            // k=1 matmul accumulation (0.0 + dt·ω, which the
                            // kernel's zero-init `+=` produces — not folded
                            // away, since 0.0 + x is not an f32 identity),
                            // then the bias broadcast, then cos.
                            let mut acc = 0.0f32;
                            acc += dt * om_row[j];
                            row[j] = (acc + ph_row[j]).cos();
                        }
                    }
                }
            }
        }
        self.te_memo = memo;
        if memo_hits > 0 {
            benchtemp_obs::counters::TIME_ENCODE_MEMO_HITS.add(memo_hits);
        }
        benchtemp_obs::counters::FUSED_OPS_EXECUTED.incr();
        // Two pool-granted matrices live in this node (output + saved Δt
        // column); `push` only counts the output, so balance the second.
        self.absorbed_since_reset += 1;
        self.push(
            out,
            Op::TimeEncodeFused {
                omega: omega.0,
                phase: phase.0,
                dts: col,
            },
        )
    }

    // ---- losses ------------------------------------------------------------

    /// Mean binary cross-entropy with logits; `logits` is n×1.
    pub fn bce_with_logits(&mut self, logits: Var, targets: &[f32]) -> Var {
        let lm = &self.nodes[logits.0].value;
        assert_eq!(lm.cols(), 1, "bce_with_logits: logits must be n×1");
        assert_eq!(lm.rows(), targets.len(), "bce_with_logits: target count");
        let mut loss = 0.0f64;
        for (r, &y) in targets.iter().enumerate() {
            let x = lm.get(r, 0);
            // log(1+exp(-|x|)) + max(x,0) - x*y, the numerically stable form.
            loss += ((-x.abs()).exp().ln_1p() + x.max(0.0) - x * y) as f64;
        }
        let mut value = self.alloc_raw(1, 1);
        value.set(0, 0, (loss / targets.len().max(1) as f64) as f32);
        self.push(
            value,
            Op::BceWithLogits {
                logits: logits.0,
                targets: targets.to_vec(),
            },
        )
    }

    /// Mean softmax cross-entropy; `logits` is n×C, `labels[i] ∈ 0..C`.
    pub fn softmax_cross_entropy(&mut self, logits: Var, labels: &[usize]) -> Var {
        let lm = &self.nodes[logits.0].value;
        assert_eq!(
            lm.rows(),
            labels.len(),
            "softmax_cross_entropy: label count"
        );
        let mut probs = Matrix::zeros(lm.rows(), lm.cols());
        let mut loss = 0.0f64;
        for (r, &y) in labels.iter().enumerate() {
            assert!(
                y < lm.cols(),
                "softmax_cross_entropy: label {y} out of range"
            );
            softmax_into(lm.row(r), probs.row_mut(r));
            loss += -(probs.get(r, y).max(1e-12).ln()) as f64;
        }
        let mut value = self.alloc_raw(1, 1);
        value.set(0, 0, (loss / labels.len().max(1) as f64) as f32);
        self.push(
            value,
            Op::SoftmaxCrossEntropy {
                logits: logits.0,
                labels: labels.to_vec(),
                probs,
            },
        )
    }

    // ---- backward ------------------------------------------------------------

    /// Run reverse-mode differentiation from a scalar (1×1) output.
    /// Returns per-node gradients, queryable via [`Gradients::get`].
    pub fn backward(&mut self, output: Var) -> Gradients {
        assert_eq!(
            self.nodes[output.0].value.shape(),
            (1, 1),
            "backward: output must be a scalar (1x1) loss"
        );
        let mut grads: Vec<Option<Matrix>> = (0..self.nodes.len()).map(|_| None).collect();
        grads[output.0] = Some(Matrix::full(1, 1, 1.0));

        for i in (0..=output.0).rev() {
            let Some(g) = grads[i].take() else { continue };
            // Reborrow pattern: compute parent contributions from node i.
            self.accumulate(i, &g, &mut grads);
            grads[i] = Some(g);
        }
        // Sanitizer: a NaN/Inf gradient anywhere poisons the next optimizer
        // step silently; fail loudly at the source instead.
        if crate::sanitize::enabled() {
            for (i, g) in grads.iter().enumerate() {
                if let Some(m) = g {
                    if let Some(bad) = m.as_slice().iter().find(|x| !x.is_finite()) {
                        panic!(
                            "sanitize[tape]: non-finite gradient {bad} at node {i} \
                             (shape {:?}) after backward",
                            m.shape(),
                        );
                    }
                }
            }
        }
        Gradients { grads }
    }

    fn accumulate(&self, i: usize, g: &Matrix, grads: &mut [Option<Matrix>]) {
        let node = &self.nodes[i];
        let mut bump = |idx: usize, delta: Matrix| match &mut grads[idx] {
            Some(acc) => acc.add_assign(&delta),
            slot @ None => *slot = Some(delta),
        };
        match &node.op {
            Op::Leaf => {}
            Op::Add(a, b) => {
                bump(*a, g.clone());
                bump(*b, g.clone());
            }
            Op::Sub(a, b) => {
                bump(*a, g.clone());
                bump(*b, g.map(|x| -x));
            }
            Op::Mul(a, b) => {
                bump(*a, g.zip(&self.nodes[*b].value, |gg, bb| gg * bb));
                bump(*b, g.zip(&self.nodes[*a].value, |gg, aa| gg * aa));
            }
            Op::Neg(a) => bump(*a, g.map(|x| -x)),
            Op::Scale(a, s) => bump(*a, g.map(|x| x * s)),
            Op::AddScalar(a) => bump(*a, g.clone()),
            Op::MatMul(a, b) => {
                bump(*a, g.matmul_transpose(&self.nodes[*b].value));
                bump(*b, self.nodes[*a].value.transpose_matmul(g));
            }
            Op::Transpose(a) => bump(*a, g.transpose()),
            Op::Sigmoid(a) => {
                bump(*a, g.zip(&node.value, |gg, y| gg * y * (1.0 - y)));
            }
            Op::Tanh(a) => {
                bump(*a, g.zip(&node.value, |gg, y| gg * (1.0 - y * y)));
            }
            Op::Relu(a) => {
                bump(
                    *a,
                    g.zip(
                        &self.nodes[*a].value,
                        |gg, x| if x > 0.0 { gg } else { 0.0 },
                    ),
                );
            }
            Op::Exp(a) => bump(*a, g.zip(&node.value, |gg, y| gg * y)),
            Op::Ln(a) => {
                bump(*a, g.zip(&self.nodes[*a].value, |gg, x| gg / x.max(1e-12)));
            }
            Op::Cos(a) => {
                bump(*a, g.zip(&self.nodes[*a].value, |gg, x| -gg * x.sin()));
            }
            Op::SumAll(a) => {
                let (r, c) = self.nodes[*a].value.shape();
                bump(*a, Matrix::full(r, c, g.scalar()));
            }
            Op::MeanAll(a) => {
                let (r, c) = self.nodes[*a].value.shape();
                bump(*a, Matrix::full(r, c, g.scalar() / (r * c) as f32));
            }
            Op::MulColBroadcast(a, c) => {
                let cm = &self.nodes[*c].value;
                let am = &self.nodes[*a].value;
                let mut da = g.clone();
                let mut dc = Matrix::zeros(cm.rows(), 1);
                for r in 0..g.rows() {
                    let s = cm.get(r, 0);
                    da.row_mut(r).iter_mut().for_each(|x| *x *= s);
                    let dot: f32 = g
                        .row(r)
                        .iter()
                        .zip(am.row(r))
                        .map(|(&gg, &aa)| gg * aa)
                        .sum();
                    dc.set(r, 0, dot);
                }
                bump(*a, da);
                bump(*c, dc);
            }
            Op::ConcatCols(a, b) => {
                let ac = self.nodes[*a].value.cols();
                let bc = self.nodes[*b].value.cols();
                let mut da = Matrix::zeros(g.rows(), ac);
                let mut db = Matrix::zeros(g.rows(), bc);
                for r in 0..g.rows() {
                    da.row_mut(r).copy_from_slice(&g.row(r)[..ac]);
                    db.row_mut(r).copy_from_slice(&g.row(r)[ac..]);
                }
                bump(*a, da);
                bump(*b, db);
            }
            Op::ConcatRows(a, b) => {
                let ar = self.nodes[*a].value.rows();
                let mut da = Matrix::zeros(ar, g.cols());
                let mut db = Matrix::zeros(g.rows() - ar, g.cols());
                for r in 0..ar {
                    da.row_mut(r).copy_from_slice(g.row(r));
                }
                for r in ar..g.rows() {
                    db.row_mut(r - ar).copy_from_slice(g.row(r));
                }
                bump(*a, da);
                bump(*b, db);
            }
            Op::SliceRows(a, start, _end) => {
                let (r, c) = self.nodes[*a].value.shape();
                let mut dx = Matrix::zeros(r, c);
                dx.as_mut_slice()[*start * c..*start * c + g.len()].copy_from_slice(g.as_slice());
                bump(*a, dx);
            }
            Op::MultiHeadGroupedAttention {
                q,
                k,
                v,
                heads,
                group,
                scale,
                weights,
            } => {
                // Single-head attention backward applied to the
                // `[h·hd, (h+1)·hd)` column stripe of every packed row,
                // writing straight into the shared gradient buffers. Stripes
                // are disjoint, so each gradient element has one writer and
                // equals the single-head gradient of its head (DESIGN.md §12).
                let qm = &self.nodes[*q].value;
                let km = &self.nodes[*k].value;
                let vm = &self.nodes[*v].value;
                let n = qm.rows();
                let model_dim = qm.cols();
                let hd = model_dim / heads;
                let mut dq = Matrix::zeros(n, model_dim);
                let mut dk = Matrix::zeros(km.rows(), model_dim);
                let mut dv = Matrix::zeros(vm.rows(), vm.cols());
                let mut da = vec![0.0f32; *group];
                let wts = weights.as_slice();
                let w_w = heads * group;
                #[allow(clippy::needless_range_loop)] // indices mirror the math
                for i in 0..n {
                    for h in 0..*heads {
                        let g_seg = &g.row(i)[h * hd..(h + 1) * hd];
                        let mut a_dot_da = 0.0f32;
                        for j in 0..*group {
                            let idx = i * group + j;
                            let w = wts[i * w_w + h * group + j];
                            da[j] = g_seg
                                .iter()
                                .zip(&vm.row(idx)[h * hd..(h + 1) * hd])
                                .map(|(&gg, &vv)| gg * vv)
                                .sum();
                            a_dot_da += w * da[j];
                            if w != 0.0 {
                                for (o, &gg) in
                                    dv.row_mut(idx)[h * hd..(h + 1) * hd].iter_mut().zip(g_seg)
                                {
                                    *o += w * gg;
                                }
                            }
                        }
                        for j in 0..*group {
                            let idx = i * group + j;
                            let w = wts[i * w_w + h * group + j];
                            if w == 0.0 {
                                continue;
                            }
                            let ds = w * (da[j] - a_dot_da) * scale;
                            for (o, &kk) in dq.row_mut(i)[h * hd..(h + 1) * hd]
                                .iter_mut()
                                .zip(&km.row(idx)[h * hd..(h + 1) * hd])
                            {
                                *o += ds * kk;
                            }
                            for (o, &qq) in dk.row_mut(idx)[h * hd..(h + 1) * hd]
                                .iter_mut()
                                .zip(&qm.row(i)[h * hd..(h + 1) * hd])
                            {
                                *o += ds * qq;
                            }
                        }
                    }
                }
                bump(*q, dq);
                bump(*k, dk);
                bump(*v, dv);
            }
            Op::LinearAffine { x, w, b, act } => {
                let xm = &self.nodes[*x].value;
                let wm = &self.nodes[*w].value;
                let y = &node.value;
                let (m, n) = y.shape();
                // gp = g ⊙ act'(y), the derivative taken from the *output*
                // (for ReLU, y > 0 ⟺ pre-activation > 0; sigmoid and tanh
                // derivatives are functions of the output). Row-parallel
                // through the claimed pool partition — each element is
                // written once, so worker count cannot change bits.
                let gp_owned: Option<Matrix> = match act {
                    // Identity activation: the incoming gradient passes
                    // through untouched, so skip the scratch copy entirely
                    // and feed `g` straight into the matmul backward.
                    Activation::None => None,
                    Activation::Relu => {
                        let mut gp = Matrix::zeros(m, n);
                        crate::matrix::fill_rows_par(&mut gp, m * n, |r, row| {
                            for ((o, &gg), &yy) in row.iter_mut().zip(g.row(r)).zip(y.row(r)) {
                                *o = if yy > 0.0 { gg } else { 0.0 };
                            }
                        });
                        Some(gp)
                    }
                    Activation::Sigmoid => {
                        let mut gp = Matrix::zeros(m, n);
                        crate::matrix::fill_rows_par(&mut gp, m * n, |r, row| {
                            for ((o, &gg), &yy) in row.iter_mut().zip(g.row(r)).zip(y.row(r)) {
                                *o = gg * yy * (1.0 - yy);
                            }
                        });
                        Some(gp)
                    }
                    Activation::Tanh => {
                        let mut gp = Matrix::zeros(m, n);
                        crate::matrix::fill_rows_par(&mut gp, m * n, |r, row| {
                            for ((o, &gg), &yy) in row.iter_mut().zip(g.row(r)).zip(y.row(r)) {
                                *o = gg * (1.0 - yy * yy);
                            }
                        });
                        Some(gp)
                    }
                };
                let gp: &Matrix = gp_owned.as_ref().unwrap_or(g);
                // db is the column sum of gp, accumulated row by row.
                let mut db = Matrix::zeros(1, n);
                for r in 0..m {
                    for (o, &v) in db.row_mut(0).iter_mut().zip(gp.row(r)) {
                        *o += v;
                    }
                }
                bump(*b, db);
                bump(*x, gp.matmul_transpose(wm));
                bump(*w, xm.transpose_matmul(gp));
            }
            Op::TimeEncodeFused { omega, phase, dts } => {
                let om = &self.nodes[*omega].value;
                let ph = &self.nodes[*phase].value;
                let (om_row, ph_row) = (om.row(0), ph.row(0));
                let n = dts.rows();
                let d = om.cols();
                let dt_col = dts.as_slice();
                // gs = -g ⊙ sin(s) with s recomputed in the forward's exact
                // per-element order — the Cos backward rule applied to the
                // never-materialized pre-cos matrix. Row-parallel through
                // the claimed pool partition; one writer per element.
                let mut gs = Matrix::zeros(n, d);
                crate::matrix::fill_rows_par(&mut gs, 4 * n * d, |r, row| {
                    let dt = dt_col[r];
                    for (j, o) in row.iter_mut().enumerate() {
                        let mut acc = 0.0f32;
                        acc += dt * om_row[j];
                        let s = acc + ph_row[j];
                        *o = -g.get(r, j) * s.sin();
                    }
                });
                // dφ is the column sum of gs; dω = dtᵀ·gs through the
                // `transpose_matmul` kernel. Δt is data, not a parameter,
                // so no gradient is computed for it.
                let mut dph = Matrix::zeros(1, d);
                for r in 0..n {
                    for (o, &v) in dph.row_mut(0).iter_mut().zip(gs.row(r)) {
                        *o += v;
                    }
                }
                bump(*phase, dph);
                bump(*omega, dts.transpose_matmul(&gs));
            }
            Op::BceWithLogits { logits, targets } => {
                let lm = &self.nodes[*logits].value;
                let inv = g.scalar() / targets.len().max(1) as f32;
                let mut dx = Matrix::zeros(lm.rows(), 1);
                for (r, &y) in targets.iter().enumerate() {
                    dx.set(r, 0, (stable_sigmoid(lm.get(r, 0)) - y) * inv);
                }
                bump(*logits, dx);
            }
            Op::SoftmaxCrossEntropy {
                logits,
                labels,
                probs,
            } => {
                let inv = g.scalar() / labels.len().max(1) as f32;
                let mut dx = probs.clone();
                for (r, &y) in labels.iter().enumerate() {
                    let v = dx.get(r, y) - 1.0;
                    dx.set(r, y, v);
                }
                dx.as_mut_slice().iter_mut().for_each(|x| *x *= inv);
                bump(*logits, dx);
            }
        }
    }
}

/// Per-node gradients produced by [`Tape::backward`].
pub struct Gradients {
    grads: Vec<Option<Matrix>>,
}

impl Gradients {
    /// Gradient of the loss w.r.t. `v`; `None` if `v` did not influence it.
    pub fn get(&self, v: Var) -> Option<&Matrix> {
        self.grads.get(v.0).and_then(|g| g.as_ref())
    }

    /// Gradient of the loss w.r.t. `v`, or a zero matrix of the given shape.
    pub fn get_or_zero(&self, v: Var, shape: (usize, usize)) -> Matrix {
        self.get(v)
            .cloned()
            .unwrap_or_else(|| Matrix::zeros(shape.0, shape.1))
    }
}

/// Lane-blocked bias+activation epilogue of [`Tape::linear_affine`]:
/// fixed-width accumulator blocks the autovectorizer compiles to SIMD,
/// with a scalar remainder. Per element both paths compute exactly
/// `act(out[j] + bias[j])` — same order, same expression — so blocking
/// cannot change bits.
#[inline]
fn bias_act_epilogue(row: &mut [f32], bias: &[f32], act: Activation) {
    const L: usize = crate::matrix::LANES;
    let blocked = row.len() / L * L;
    let mut j = 0;
    while j < blocked {
        let o: &mut [f32; L] = (&mut row[j..j + L]).try_into().unwrap();
        let b: &[f32; L] = bias[j..j + L].try_into().unwrap();
        for l in 0..L {
            o[l] = act.apply(o[l] + b[l]);
        }
        j += L;
    }
    for (o, &bj) in row[blocked..].iter_mut().zip(&bias[blocked..]) {
        *o = act.apply(*o + bj);
    }
}

#[inline]
pub(crate) fn stable_sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Forward pass of multi-head grouped attention over the query rows: per-row
/// blocked-dot scores written into the softmax-weight row segment, in-place
/// softmax, and the value accumulation into the head's output stripe. Above
/// [`crate::matrix::PAR_FLOPS`] of work, contiguous row slabs fan out
/// across the worker pool under the claimed-slot protocol (the combined
/// claim space covers the output elements and, offset past them, the weight
/// elements). Each element is written by exactly one kernel call with an
/// FP order independent of where slab boundaries fall, so the thread count
/// cannot change result bits.
#[allow(clippy::too_many_arguments)]
fn run_attention_rows(
    qm: &Matrix,
    km: &Matrix,
    vm: &Matrix,
    heads: usize,
    group: usize,
    hd: usize,
    scale: f32,
    mask: &[bool],
    out: &mut Matrix,
    weights: &mut Matrix,
) {
    let _span = benchtemp_obs::span("attention");
    let n = qm.rows();
    if n == 0 {
        return;
    }
    let out_w = heads * hd;
    let w_w = heads * group;
    // Score + accumulate flops per query row ≈ 4·group·heads·hd.
    let work = 4 * n * group * heads * hd;
    let p = crate::pool::pool();
    if work < crate::matrix::PAR_FLOPS || p.threads() == 1 || n == 1 {
        attention_rows_kernel(
            qm,
            km,
            vm,
            heads,
            group,
            hd,
            scale,
            mask,
            0,
            out.as_mut_slice(),
            weights.as_mut_slice(),
        );
        return;
    }
    let rows_per = n.div_ceil(p.threads()).max(1);
    let claims = attention_row_claims(n, out_w, w_w, rows_per);
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = out
        .as_mut_slice()
        .chunks_mut(rows_per * out_w)
        .zip(weights.as_mut_slice().chunks_mut(rows_per * w_w))
        .enumerate()
        .map(|(c, (out_block, w_block))| {
            let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                attention_rows_kernel(
                    qm,
                    km,
                    vm,
                    heads,
                    group,
                    hd,
                    scale,
                    mask,
                    c * rows_per,
                    out_block,
                    w_block,
                )
            });
            task
        })
        .collect();
    p.scope_run_claimed("grouped_attention_rows", &claims, tasks);
}

/// Sanitizer claims for the attention row-slab split. One combined claim
/// space covers both buffers each slab writes: slab `c` owns the flat
/// element range of its output rows, plus — offset past the whole output —
/// the flat element range of its softmax-weight rows. Mirrors the paired
/// `chunks_mut` partition in [`run_attention_rows`]. Empty when the
/// sanitizer is off.
fn attention_row_claims(
    n: usize,
    out_w: usize,
    w_w: usize,
    rows_per: usize,
) -> Vec<crate::sanitize::SlotClaim> {
    if !crate::sanitize::enabled() {
        return Vec::new();
    }
    let w_base = n * out_w;
    let mut claims = Vec::new();
    for (c, start) in (0..n).step_by(rows_per.max(1)).enumerate() {
        let end = (start + rows_per).min(n);
        claims.push((c, start * out_w..end * out_w));
        claims.push((c, w_base + start * w_w..w_base + end * w_w));
    }
    claims
}

/// One contiguous slab of attention query rows (`first` is the global index
/// of the slab's first row). `out_block` rows must arrive zeroed;
/// `w_block` rows are fully overwritten. Per head the scores go through
/// [`crate::matrix::dot`] — the same blocked-dot primitive as the matmul
/// kernels — then an in-place softmax, then the masked value accumulation,
/// all over strided per-head column views of the packed rows.
#[allow(clippy::too_many_arguments)]
fn attention_rows_kernel(
    qm: &Matrix,
    km: &Matrix,
    vm: &Matrix,
    heads: usize,
    group: usize,
    hd: usize,
    scale: f32,
    mask: &[bool],
    first: usize,
    out_block: &mut [f32],
    w_block: &mut [f32],
) {
    let out_w = heads * hd;
    let w_w = heads * group;
    for (r, (out_row, w_row)) in out_block
        .chunks_mut(out_w)
        .zip(w_block.chunks_mut(w_w))
        .enumerate()
    {
        let i = first + r;
        let q_row = qm.row(i);
        for h in 0..heads {
            let q_sub = &q_row[h * hd..(h + 1) * hd];
            let w_seg = &mut w_row[h * group..(h + 1) * group];
            #[allow(clippy::needless_range_loop)] // indices mirror the math
            for j in 0..group {
                let idx = i * group + j;
                w_seg[j] = if mask[idx] {
                    crate::matrix::dot(q_sub, &km.row(idx)[h * hd..(h + 1) * hd]) * scale
                } else {
                    f32::NEG_INFINITY
                };
            }
            // All-masked rows come out of the softmax as all-zero weights,
            // leaving the (pre-zeroed) output row untouched — "no valid
            // temporal neighbors" contributes nothing forward or backward.
            softmax_inplace(w_seg);
            let out_seg = &mut out_row[h * hd..(h + 1) * hd];
            for (j, &w) in w_seg.iter().enumerate() {
                if w == 0.0 {
                    continue;
                }
                let v_sub = &vm.row(i * group + j)[h * hd..(h + 1) * hd];
                for (o, &x) in out_seg.iter_mut().zip(v_sub) {
                    *o += w * x;
                }
            }
        }
    }
}

/// Numerically stable softmax of `src` into `dst` (handles -inf masking;
/// all -inf → all zeros).
pub(crate) fn softmax_into(src: &[f32], dst: &mut [f32]) {
    let max = src.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    if max == f32::NEG_INFINITY {
        dst.iter_mut().for_each(|x| *x = 0.0);
        return;
    }
    let mut sum = 0.0;
    for (d, &s) in dst.iter_mut().zip(src.iter()) {
        let e = (s - max).exp();
        *d = e;
        sum += e;
    }
    let inv = 1.0 / sum;
    dst.iter_mut().for_each(|x| *x *= inv);
}

/// In-place [`softmax_into`]: the attention kernel writes scores into the
/// saved-weights row segment and softmaxes them where they sit, eliminating
/// the per-call scores scratch. Element-for-element the same floating-point
/// operation sequence as `softmax_into` (max fold, -inf short-circuit,
/// exp/accumulate, reciprocal scale), so routing through either is
/// bit-identical.
pub(crate) fn softmax_inplace(buf: &mut [f32]) {
    let max = buf.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    if max == f32::NEG_INFINITY {
        buf.iter_mut().for_each(|x| *x = 0.0);
        return;
    }
    let mut sum = 0.0;
    for d in buf.iter_mut() {
        let e = (*d - max).exp();
        *d = e;
        sum += e;
    }
    let inv = 1.0 / sum;
    buf.iter_mut().for_each(|x| *x *= inv);
}

#[cfg(test)]
mod sanitize_tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::MutexGuard;

    /// `set_forced` is process-global; serialize the tests that flip it so
    /// a concurrent restore can't disarm another test's check window.
    fn forced_on() -> MutexGuard<'static, ()> {
        let guard = crate::sanitize::forced_test_lock();
        crate::sanitize::set_forced(Some(true));
        guard
    }

    #[test]
    fn leak_check_catches_granted_but_unrecorded_matrix() {
        let _serial = forced_on();
        let mut t = Tape::new();
        let a = t.leaf(Matrix::full(2, 2, 1.0));
        let _ = t.add(a, a);
        t.reset(); // balanced: granted == absorbed
        let _dropped = t.alloc_raw(2, 2); // granted, never pushed
        let r = catch_unwind(AssertUnwindSafe(|| t.reset()));
        crate::sanitize::set_forced(None);
        assert!(r.is_err(), "leaked tape buffer must fail the reset check");
    }

    #[test]
    fn backward_rejects_non_finite_gradients() {
        let _serial = forced_on();
        let mut t = Tape::new();
        // exp(200) overflows f32 → Inf value → Inf gradient on the input.
        let x = t.leaf(Matrix::full(1, 1, 200.0));
        let y = t.exp(x);
        let loss = t.sum_all(y);
        let r = catch_unwind(AssertUnwindSafe(|| t.backward(loss)));
        crate::sanitize::set_forced(None);
        assert!(r.is_err(), "Inf gradient must trip the sanitizer");
    }

    #[test]
    fn backward_accepts_finite_gradients_under_sanitize() {
        let _serial = forced_on();
        let mut t = Tape::new();
        let x = t.leaf(Matrix::full(3, 2, 0.5));
        let y = t.tanh(x);
        let loss = t.mean_all(y);
        let grads = t.backward(loss);
        assert!(grads.get(x).is_some());
        t.reset();
        crate::sanitize::set_forced(None);
    }
}
