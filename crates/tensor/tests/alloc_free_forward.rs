//! Zero-allocation contract of the steady-state training forward pass:
//! once the tape recycle cache and its shape-keyed buffer pool are warm,
//! building a [`Graph`], binding parameters, and running a fused
//! `Linear→ReLU→Linear` forward must perform no heap allocations at all.
//!
//! Verified with a counting global allocator that counts calls on every
//! thread (pool workers included); failures also report how many came from
//! threads other than the test thread. This file holds exactly one test so
//! no sibling test thread can allocate concurrently and pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use benchtemp_tensor::nn::{Mlp, MultiHeadAttention};
use benchtemp_tensor::{init, Graph, Matrix, ParamStore};

struct CountingAlloc;

static ALLOC_CALLS: AtomicUsize = AtomicUsize::new(0);
/// The subset of `ALLOC_CALLS` made by threads other than the test thread.
static OFF_THREAD_CALLS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set on the test thread. A `const`-initialized `Cell<bool>` needs no
    /// lazy init and no destructor, so reading it cannot allocate.
    static TEST_THREAD: Cell<bool> = const { Cell::new(false) };
}

fn count_call() {
    ALLOC_CALLS.fetch_add(1, Ordering::SeqCst);
    if !TEST_THREAD.with(Cell::get) {
        OFF_THREAD_CALLS.fetch_add(1, Ordering::SeqCst);
    }
}

// SAFETY: pure pass-through to `System`, which upholds every GlobalAlloc
// contract; the only additions are atomic counter bumps and a read of a
// const-initialized thread-local `Cell<bool>`, none of which allocates or
// can unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds GlobalAlloc's layout preconditions; delegated
    // verbatim to `System.alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_call();
        System.alloc(layout)
    }

    // SAFETY: `ptr`/`layout` come from a prior alloc on this same allocator
    // (we always delegate to `System`), so forwarding to `System.realloc`
    // preserves its contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_call();
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: same delegation argument as `realloc` — every pointer we are
    // handed was produced by `System`, so `System.dealloc` may free it.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_forward_is_allocation_free_after_warmup() {
    TEST_THREAD.with(|t| t.set(true));
    let mut store = ParamStore::new();
    let mut rng = init::rng(11);
    let mlp = Mlp::new(&mut store, &mut rng, "steady", 8, 16, 4);
    let x = init::uniform(12, 8, -1.0, 1.0, &mut rng);

    // One forward step: graph from the recycle cache, pooled param/input
    // leaves, fused Linear→ReLU→Linear. Returns a checksum so the work
    // cannot be optimized away.
    let step = |store: &ParamStore, x: &Matrix| -> f32 {
        let mut g = Graph::new(store);
        let xv = g.input_from(x);
        let y = mlp.forward(&mut g, xv);
        g.value(y).as_slice().iter().sum()
    };

    // Warm-up passes grow the tape's node arena, the buffer pool's
    // per-shape free lists, and the binding scratch to their steady state.
    let mut warm = 0.0f32;
    for _ in 0..5 {
        warm += step(&store, &x);
    }
    assert!(
        warm.is_finite(),
        "warm-up forward produced non-finite output"
    );

    let before = ALLOC_CALLS.load(Ordering::SeqCst);
    let off_before = OFF_THREAD_CALLS.load(Ordering::SeqCst);
    let mut measured = 0.0f32;
    for _ in 0..10 {
        measured += step(&store, &x);
    }
    let after = ALLOC_CALLS.load(Ordering::SeqCst);
    let off = OFF_THREAD_CALLS.load(Ordering::SeqCst) - off_before;
    assert!(measured.is_finite());
    assert_eq!(
        after - before,
        0,
        "steady-state forward allocated {} times after warm-up ({off} off the test thread)",
        after - before
    );

    // TGAT-shaped attention steady state: the fused multi-head node's
    // output and its attention-weight scratch both come from the tape's
    // buffer pool, so a full Q/K/V-projected attention forward is also
    // allocation-free once warm. Shapes stay below the parallel dispatch
    // threshold so the kernel runs inline (no task boxing).
    let mut astore = ParamStore::new();
    let heads = 2;
    let group = 4;
    let n = 12;
    let attn = MultiHeadAttention::new(&mut astore, &mut rng, "att", 8, 8, 8, heads, 8);
    let query = init::uniform(n, 8, -1.0, 1.0, &mut rng);
    let keys = init::uniform(n * group, 8, -1.0, 1.0, &mut rng);
    let mut mask = vec![true; n * group];
    mask[..group].fill(false); // one fully-padded row
    let att_step = |store: &ParamStore, q: &Matrix, k: &Matrix, mask: &[bool]| -> f32 {
        let mut g = Graph::new(store);
        let qv = g.input_from(q);
        let kv = g.input_from(k);
        let y = attn.forward(&mut g, qv, kv, group, mask);
        g.value(y).as_slice().iter().sum()
    };
    let mut warm_att = 0.0f32;
    for _ in 0..5 {
        warm_att += att_step(&astore, &query, &keys, &mask);
    }
    assert!(warm_att.is_finite());

    let before = ALLOC_CALLS.load(Ordering::SeqCst);
    let off_before = OFF_THREAD_CALLS.load(Ordering::SeqCst);
    let mut measured_att = 0.0f32;
    for _ in 0..10 {
        measured_att += att_step(&astore, &query, &keys, &mask);
    }
    let after = ALLOC_CALLS.load(Ordering::SeqCst);
    let off = OFF_THREAD_CALLS.load(Ordering::SeqCst) - off_before;
    assert!(measured_att.is_finite());
    assert_eq!(
        after - before,
        0,
        "steady-state attention forward allocated {} times after warm-up ({off} off the test thread)",
        after - before
    );

    // Coalesced frontier gathers join the same contract: `gather_rows_from`
    // takes pool-granted storage and copies runs straight in, so a
    // gather-then-forward step is allocation-free once warm. The index list
    // is frontier-shaped (repeats, an ascending run, back-jumps) and small
    // enough to run inline below the parallel dispatch threshold.
    let table = init::uniform(40, 8, -1.0, 1.0, &mut rng);
    let mut idx: Vec<usize> = vec![7, 7, 7, 3, 0, 39, 12];
    idx.extend(20..25);
    let gather_step = |store: &ParamStore, table: &Matrix, idx: &[usize]| -> f32 {
        let mut g = Graph::new(store);
        let rows = g.gather_rows_from(table, idx);
        let y = mlp.forward(&mut g, rows);
        g.value(y).as_slice().iter().sum()
    };
    let mut warm_gather = 0.0f32;
    for _ in 0..5 {
        warm_gather += gather_step(&store, &table, &idx);
    }
    assert!(warm_gather.is_finite());

    let before = ALLOC_CALLS.load(Ordering::SeqCst);
    let off_before = OFF_THREAD_CALLS.load(Ordering::SeqCst);
    let mut measured_gather = 0.0f32;
    for _ in 0..10 {
        measured_gather += gather_step(&store, &table, &idx);
    }
    let after = ALLOC_CALLS.load(Ordering::SeqCst);
    let off = OFF_THREAD_CALLS.load(Ordering::SeqCst) - off_before;
    assert!(measured_gather.is_finite());
    assert_eq!(
        after - before,
        0,
        "steady-state gather+forward allocated {} times after warm-up ({off} off the test thread)",
        after - before
    );
}
