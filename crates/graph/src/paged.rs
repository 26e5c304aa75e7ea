//! Paged CSR sampler backend, and the one sampler API over both backends.
//!
//! [`PagedNeighborFinder`] serves adjacency windows off `benchtemp-store`
//! pages instead of resident columns. [`NeighborBackend`] is the borrowed
//! view over either backend that every model samples through; each query
//! ([`NeighborBackend::before_into`], [`NeighborBackend::sample_into`],
//! [`NeighborBackend::sample_one`], [`NeighborBackend::sample_frontier`])
//! is defined once, over one private window primitive per backend: the
//! resident backend borrows its CSR slice ([`NeighborFinder::before`]),
//! the paged backend decodes the window's pages into the caller's
//! [`SampleScratch`].
//!
//! Bit-identity with the resident path is by construction, not by luck
//! (DESIGN.md §16):
//!
//! 1. the store's bulk loader appends the time-sorted event stream in
//!    order, so the paged event indices equal the resident
//!    `NeighborFinder`'s;
//! 2. the paged window primitive materialises the *identical*
//!    strictly-before-`t` window bytes: the store's cut search
//!    ([`TemporalStore::cut_before`]) finds the resident `partition_point`
//!    from the resident page-start timestamps plus one page, and
//!    [`TemporalStore::read_adj`] decodes each page the window spans once,
//!    straight from its interleaved 16-byte records (`ts` bits, neighbor,
//!    event index) into the scratch columns;
//! 3. every query then runs the same slice kernels
//!    (`sample_slice_into`/`sample_slice_one`) and frontier engine
//!    (`expand_frontier`) on that window, so RNG consumption and output
//!    bits cannot drift between backends.
//!
//! `MostRecent` consumes no randomness, so the paged window primitive
//! materialises only the window tail of `min(k, window)` entries — the one
//! place the two backends touch different byte counts while producing the
//! same output.

use std::io;
use std::path::Path;

use benchtemp_store::{StoreEvent, TemporalStore};
// Re-exported so samplers can be configured without a direct store
// dependency.
pub use benchtemp_store::{default_store_dir, StoreOptions};
use benchtemp_tensor::init::SeededRng;

use crate::neighbors::{
    expand_frontier, sample_slice_into, sample_slice_one, Frontier, NeighborEvent, NeighborFinder,
    NeighborSlice, SampleScratch, SamplingStrategy, WindowBuf,
};
use crate::temporal_graph::Interaction;

/// Convert the graph crate's interaction to the store's plain-old-data
/// event frame.
fn to_store_event(ev: &Interaction) -> StoreEvent {
    debug_assert!(
        ev.src <= u32::MAX as usize
            && ev.dst <= u32::MAX as usize
            && ev.feat_idx <= u32::MAX as usize,
        "store events are u32-indexed"
    );
    StoreEvent {
        src: ev.src as u32,
        dst: ev.dst as u32,
        t: ev.t,
        feat: ev.feat_idx as u32,
    }
}

/// Temporal adjacency over a paged [`TemporalStore`]: windows are read
/// through the store's byte-budgeted page cache instead of resident
/// columns. Query it through [`NeighborBackend::Paged`].
pub struct PagedNeighborFinder {
    store: TemporalStore,
}

impl PagedNeighborFinder {
    /// Bulk-load a time-sorted interaction stream into a fresh store at
    /// `dir` and open a sampler over it.
    pub fn bulk_load(
        dir: &Path,
        num_nodes: usize,
        events: &[Interaction],
        opts: &StoreOptions,
    ) -> io::Result<Self> {
        let store =
            TemporalStore::bulk_load(dir, num_nodes, events.iter().map(to_store_event), opts)?;
        Ok(PagedNeighborFinder { store })
    }

    /// Open a sampler over an existing sealed store.
    pub fn open(dir: &Path, opts: &StoreOptions) -> io::Result<Self> {
        Ok(PagedNeighborFinder {
            store: TemporalStore::open(dir, opts)?,
        })
    }

    pub fn num_nodes(&self) -> usize {
        self.store.num_nodes()
    }

    /// Total interactions a node participates in.
    pub fn degree(&self, node: usize) -> usize {
        let (s, e) = self.store.node_range(node);
        (e - s) as usize
    }

    /// The paged window primitive: the last `tail` entries of `node`'s
    /// strictly-before-`t` window (all of it when `tail` covers it),
    /// decoded into `buf`. Same bytes as the matching suffix of the
    /// resident [`NeighborFinder::before`].
    fn window_into<'s>(
        &self,
        node: usize,
        t: f64,
        tail: usize,
        buf: &'s mut WindowBuf,
    ) -> NeighborSlice<'s> {
        let (s, cut) = self
            .store
            .cut_before(node, t)
            .expect("paged store: cut search failed");
        let start = cut - (cut - s).min(tail as u64);
        buf.resize((cut - start) as usize);
        self.store
            .read_adj(
                start,
                cut,
                &mut buf.neighbor,
                &mut buf.ts,
                &mut buf.event_idx,
            )
            .expect("paged store: adjacency read failed");
        buf.as_slice()
    }

    /// Bytes this sampler keeps unconditionally resident (CSR offsets, the
    /// per-event feature-row map and the page-start timestamps).
    pub fn resident_index_bytes(&self) -> usize {
        self.store.resident_index_bytes()
    }

    /// Bytes currently held by page-cache frames (bounded by the budget).
    pub fn cache_resident_bytes(&self) -> usize {
        self.store.cache_resident_bytes()
    }
}

/// A borrowed, `Copy` view over either sampler backend — the type
/// `benchtemp_core::pipeline::StreamContext` carries so every model runs
/// unchanged against resident or paged adjacency.
#[derive(Clone, Copy)]
pub enum NeighborBackend<'a> {
    Resident(&'a NeighborFinder),
    Paged(&'a PagedNeighborFinder),
}

impl<'a> NeighborBackend<'a> {
    pub fn num_nodes(&self) -> usize {
        match self {
            NeighborBackend::Resident(nf) => nf.num_nodes(),
            NeighborBackend::Paged(pf) => pf.num_nodes(),
        }
    }

    pub fn degree(&self, node: usize) -> usize {
        match self {
            NeighborBackend::Resident(nf) => nf.degree(node),
            NeighborBackend::Paged(pf) => pf.degree(node),
        }
    }

    /// Edge-feature row of each event (indexed by event idx), resident in
    /// both backends.
    pub(crate) fn event_feat(&self) -> &'a [u32] {
        match *self {
            NeighborBackend::Resident(nf) => nf.event_feat(),
            NeighborBackend::Paged(pf) => pf.store.event_feat(),
        }
    }

    /// The window every query samples from: `node`'s strictly-before-`t`
    /// history, of which a caller needs only the last `tail` entries. The
    /// resident backend borrows its whole CSR window (`buf` untouched); the
    /// paged backend decodes just the tail into `buf`.
    fn window<'s>(
        &self,
        node: usize,
        t: f64,
        tail: usize,
        buf: &'s mut WindowBuf,
    ) -> NeighborSlice<'s>
    where
        'a: 's,
    {
        match *self {
            NeighborBackend::Resident(nf) => nf.before(node, t),
            NeighborBackend::Paged(pf) => pf.window_into(node, t, tail, buf),
        }
    }

    /// All interactions of `node` strictly before `t`, time-sorted.
    pub fn before_into<'s>(
        &self,
        node: usize,
        t: f64,
        scratch: &'s mut SampleScratch,
    ) -> NeighborSlice<'s>
    where
        'a: 's,
    {
        self.window(node, t, usize::MAX, &mut scratch.window)
    }

    /// Sample up to `k` temporal neighbors of `node` before `t` into `out`
    /// (cleared first). Returns fewer than `k` (possibly zero) entries when
    /// history is short and the strategy is `MostRecent`; weighted
    /// strategies sample with replacement, matching the reference
    /// implementations. After warm-up (`scratch` and `out` grown to the
    /// largest window and `k` seen) this performs zero heap allocations.
    #[allow(clippy::too_many_arguments)]
    pub fn sample_into(
        &self,
        node: usize,
        t: f64,
        k: usize,
        strategy: SamplingStrategy,
        rng: &mut SeededRng,
        scratch: &mut SampleScratch,
        out: &mut Vec<NeighborEvent>,
    ) {
        out.clear();
        if k == 0 {
            return;
        }
        let tail = recency_tail(strategy, k);
        let SampleScratch { cum, window } = scratch;
        let hist = self.window(node, t, tail, window);
        sample_slice_into(hist, t, k, strategy, rng, cum, out);
    }

    /// Scalar fast path for walk engines: one sample, no output buffer.
    /// RNG consumption is bit-identical to `sample_into` with `k = 1`, so
    /// walks sampled through this path reproduce the pre-CSR streams.
    pub fn sample_one(
        &self,
        node: usize,
        t: f64,
        strategy: SamplingStrategy,
        rng: &mut SeededRng,
        scratch: &mut SampleScratch,
    ) -> Option<NeighborEvent> {
        let tail = recency_tail(strategy, 1);
        let SampleScratch { cum, window } = scratch;
        let hist = self.window(node, t, tail, window);
        sample_slice_one(hist, t, strategy, rng, cum)
    }

    /// Batched multi-hop frontier expansion: expand every `(roots[i],
    /// times[i])` root `k`-wide for `hops` levels into flat per-hop arrays.
    ///
    /// Each root owns an independent RNG stream seeded by
    /// [`frontier_stream_seed`](crate::neighbors::frontier_stream_seed)`(seed,
    /// root_index)` and is expanded depth-complete before the next, so the
    /// result depends only on `(roots, times, k, hops, strategy, seed)` —
    /// never on thread count, scheduling or backend. Large batches fan out
    /// over the worker pool in contiguous root ranges; padded slots (short
    /// histories) carry the parent's time and a `false` mask, and are
    /// themselves expanded at deeper hops exactly like the recursive
    /// per-node code did.
    pub fn sample_frontier(
        &self,
        roots: &[usize],
        times: &[f64],
        k: usize,
        hops: usize,
        strategy: SamplingStrategy,
        seed: u64,
    ) -> Frontier {
        expand_frontier(*self, roots, times, k, hops, strategy, seed)
    }

    /// Bytes held resident by the backend: the whole CSR for the resident
    /// arm; the in-RAM index plus current page-cache frames for the paged
    /// arm.
    pub fn heap_bytes(&self) -> usize {
        match self {
            NeighborBackend::Resident(nf) => nf.heap_bytes(),
            NeighborBackend::Paged(pf) => pf.resident_index_bytes() + pf.cache_resident_bytes(),
        }
    }
}

/// How many trailing window entries a query of `k` samples reads:
/// `MostRecent` draws no randomness and reads only the last `k`, so paging
/// the full window in would be wasted IO; every RNG-driven strategy needs
/// the full window (draw ranges depend on its length).
fn recency_tail(strategy: SamplingStrategy, k: usize) -> usize {
    match strategy {
        SamplingStrategy::MostRecent => k,
        _ => usize::MAX,
    }
}

/// Owning counterpart of [`NeighborBackend`], for pipelines that build the
/// sampler and then hand out borrowed views per batch.
// Two instances exist per job (train shell + full graph); the variant
// size gap is irrelevant at that count and boxing would cost a deref on
// every `as_backend`.
#[allow(clippy::large_enum_variant)]
pub enum OwnedNeighborBackend {
    Resident(NeighborFinder),
    Paged(PagedNeighborFinder),
}

impl OwnedNeighborBackend {
    pub fn as_backend(&self) -> NeighborBackend<'_> {
        match self {
            OwnedNeighborBackend::Resident(nf) => NeighborBackend::Resident(nf),
            OwnedNeighborBackend::Paged(pf) => NeighborBackend::Paged(pf),
        }
    }

    pub fn heap_bytes(&self) -> usize {
        self.as_backend().heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neighbors::frontier_stream_seed;
    use benchtemp_tensor::init::SeededRng;
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("benchtemp-paged-{}-{}", name, std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A time-sorted interaction stream with repeated endpoints so nodes
    /// accumulate history.
    fn events(n: usize) -> Vec<Interaction> {
        (0..n)
            .map(|i| Interaction {
                src: i % 7,
                dst: 7 + (i % 5),
                t: (i / 2) as f64, // duplicate timestamps exercise tie handling
                feat_idx: i,
            })
            .collect()
    }

    fn backends(dir: &Path, evs: &[Interaction]) -> (NeighborFinder, PagedNeighborFinder) {
        let nf = NeighborFinder::from_events(12, evs);
        // Tiny cache budget: force evictions so hits and misses both occur.
        let opts = StoreOptions {
            cache_budget_bytes: Some(64 * 1024),
        };
        let pf = PagedNeighborFinder::bulk_load(dir, 12, evs, &opts).unwrap();
        (nf, pf)
    }

    #[test]
    fn before_windows_match_resident() {
        let dir = tmpdir("before");
        let evs = events(300);
        let (nf, pf) = backends(&dir, &evs);
        let (br, bp) = (NeighborBackend::Resident(&nf), NeighborBackend::Paged(&pf));
        let (mut s_r, mut s_p) = (SampleScratch::new(), SampleScratch::new());
        for node in 0..12 {
            for t in [0.0, 1.0, 37.5, 80.0, 1e9] {
                let r = br.before_into(node, t, &mut s_r);
                let p = bp.before_into(node, t, &mut s_p);
                assert_eq!(r.len(), p.len(), "node={node} t={t}");
                assert_eq!(r.neighbor_ids(), p.neighbor_ids());
                assert_eq!(r.event_indices(), p.event_indices());
                assert_eq!(r.ts(), p.ts());
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn samples_bit_identical_across_backends() {
        let dir = tmpdir("samples");
        let evs = events(300);
        let (nf, pf) = backends(&dir, &evs);
        let (br, bp) = (NeighborBackend::Resident(&nf), NeighborBackend::Paged(&pf));
        let strategies = [
            SamplingStrategy::MostRecent,
            SamplingStrategy::Uniform,
            SamplingStrategy::TemporalExp { alpha: 0.01 },
            SamplingStrategy::TemporalSafe,
        ];
        for strategy in strategies {
            let mut rng_r = SeededRng::seed_from_u64(7);
            let mut rng_p = SeededRng::seed_from_u64(7);
            let (mut s_r, mut s_p) = (SampleScratch::new(), SampleScratch::new());
            let (mut out_r, mut out_p) = (Vec::new(), Vec::new());
            for node in 0..12 {
                for t in [3.0, 55.0, 150.0] {
                    br.sample_into(node, t, 5, strategy, &mut rng_r, &mut s_r, &mut out_r);
                    bp.sample_into(node, t, 5, strategy, &mut rng_p, &mut s_p, &mut out_p);
                    assert_eq!(out_r, out_p, "strategy={strategy:?} node={node} t={t}");
                    let one_r = br.sample_one(node, t, strategy, &mut rng_r, &mut s_r);
                    let one_p = bp.sample_one(node, t, strategy, &mut rng_p, &mut s_p);
                    assert_eq!(one_r, one_p);
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn frontiers_bit_identical_across_backends() {
        let dir = tmpdir("frontier");
        let evs = events(400);
        let (nf, pf) = backends(&dir, &evs);
        let (br, bp) = (NeighborBackend::Resident(&nf), NeighborBackend::Paged(&pf));
        let roots: Vec<usize> = (0..40).map(|i| i % 12).collect();
        let times: Vec<f64> = (0..40).map(|i| 40.0 + i as f64).collect();
        let seed = frontier_stream_seed(0xfeed, 3); // arbitrary fixed seed
        for strategy in [SamplingStrategy::MostRecent, SamplingStrategy::Uniform] {
            let fr = br.sample_frontier(&roots, &times, 3, 2, strategy, seed);
            let fp = bp.sample_frontier(&roots, &times, 3, 2, strategy, seed);
            assert_eq!(fr.hops.len(), fp.hops.len());
            for (hr, hp) in fr.hops.iter().zip(&fp.hops) {
                assert_eq!(hr.nodes, hp.nodes);
                assert_eq!(
                    hr.times.iter().map(|t| t.to_bits()).collect::<Vec<_>>(),
                    hp.times.iter().map(|t| t.to_bits()).collect::<Vec<_>>()
                );
                assert_eq!(hr.event_idx, hp.event_idx);
                assert_eq!(hr.feat_idx, hp.feat_idx);
                assert_eq!(
                    hr.dts.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
                    hp.dts.iter().map(|d| d.to_bits()).collect::<Vec<_>>()
                );
                assert_eq!(hr.mask, hp.mask);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Hub node 0 with `hub_degree` time-sorted entries (so its window
    /// starts at global entry 0 and every page boundary is a multiple of
    /// the per-page record count), plus background traffic between nodes
    /// 1..=20 sharing the hub's timestamps. Around each page boundary `b`
    /// the hub entries `b-3..b+3` share one timestamp, so every boundary
    /// sits inside a run of ties.
    fn hub_events(hub_degree: usize, per_page: usize) -> (Vec<Interaction>, Vec<f64>) {
        let hub_ts: Vec<f64> = (0..hub_degree)
            .map(|j| {
                let b = (j + 3) / per_page * per_page;
                if b > 0 && j + 3 >= b && j < b + 3 {
                    b as f64
                } else {
                    j as f64
                }
            })
            .collect();
        let mut evs = Vec::new();
        for (j, &t) in hub_ts.iter().enumerate() {
            if j % 7 == 0 {
                evs.push(Interaction {
                    src: 1 + j % 13,
                    dst: 14 + j % 7,
                    t,
                    feat_idx: evs.len(),
                });
            }
            evs.push(Interaction {
                src: 0,
                dst: 1 + j % 20,
                t,
                feat_idx: evs.len(),
            });
        }
        (evs, hub_ts)
    }

    #[test]
    fn multi_page_windows_bit_identical_across_backends() {
        use benchtemp_obs::counters::STORE_PAGE_EVICTIONS;
        use benchtemp_store::pager::PAGE_SIZE;
        use benchtemp_store::ADJ_RECORD_BYTES;

        let per_page = PAGE_SIZE / ADJ_RECORD_BYTES;
        let dir = tmpdir("multipage");
        let (evs, hub_ts) = hub_events(4 * per_page - 40, per_page);
        let nf = NeighborFinder::from_events(21, &evs);
        // Four frames: fewer than the hub's window alone spans.
        let opts = StoreOptions {
            cache_budget_bytes: Some(4 * PAGE_SIZE),
        };
        let ev0 = STORE_PAGE_EVICTIONS.get();
        let pf = PagedNeighborFinder::bulk_load(&dir, 21, &evs, &opts).unwrap();
        assert_eq!(pf.store.node_range(0), (0, hub_ts.len() as u64));
        let (br, bp) = (NeighborBackend::Resident(&nf), NeighborBackend::Paged(&pf));
        assert!(pf.degree(0) > 3 * per_page, "hub must span over 3 pages");

        // Below the first timestamp, on every boundary run, between
        // boundaries, on the first/last timestamp and above the last.
        let mut times = vec![
            -1.0,
            hub_ts[0],
            700.5,
            1300.25,
            hub_ts[hub_ts.len() - 1],
            1e9,
        ];
        for b in (per_page..hub_ts.len()).step_by(per_page) {
            assert_eq!(hub_ts[b - 3], hub_ts[b + 2], "tie run must straddle {b}");
            times.extend([hub_ts[b], hub_ts[b] + 0.5, hub_ts[b - 4]]);
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let nodes = [0usize, 1, 9, 14, 20];

        let (mut s_r, mut s_p) = (SampleScratch::new(), SampleScratch::new());
        for &node in &nodes {
            for &t in &times {
                let r = br.before_into(node, t, &mut s_r);
                let p = bp.before_into(node, t, &mut s_p);
                assert_eq!(r.neighbor_ids(), p.neighbor_ids(), "node={node} t={t}");
                assert_eq!(r.event_indices(), p.event_indices(), "node={node} t={t}");
                assert_eq!(bits(r.ts()), bits(p.ts()), "node={node} t={t}");
            }
        }

        let strategies = [
            SamplingStrategy::MostRecent,
            SamplingStrategy::Uniform,
            SamplingStrategy::TemporalExp { alpha: 0.01 },
            SamplingStrategy::TemporalSafe,
        ];
        for strategy in strategies {
            let mut rng_r = SeededRng::seed_from_u64(11);
            let mut rng_p = SeededRng::seed_from_u64(11);
            let (mut out_r, mut out_p) = (Vec::new(), Vec::new());
            for &node in &nodes {
                for &t in &times {
                    for k in [5, per_page + 100] {
                        br.sample_into(node, t, k, strategy, &mut rng_r, &mut s_r, &mut out_r);
                        bp.sample_into(node, t, k, strategy, &mut rng_p, &mut s_p, &mut out_p);
                        assert_eq!(out_r, out_p, "{strategy:?} node={node} t={t} k={k}");
                    }
                    let one_r = br.sample_one(node, t, strategy, &mut rng_r, &mut s_r);
                    let one_p = bp.sample_one(node, t, strategy, &mut rng_p, &mut s_p);
                    assert_eq!(one_r, one_p, "{strategy:?} node={node} t={t}");
                }
            }

            let roots: Vec<usize> = (0..times.len()).map(|i| nodes[i % nodes.len()]).collect();
            let seed = frontier_stream_seed(0xbeef, 5);
            let fr = br.sample_frontier(&roots, &times, 4, 2, strategy, seed);
            let fp = bp.sample_frontier(&roots, &times, 4, 2, strategy, seed);
            assert_eq!(fr.hops.len(), fp.hops.len());
            for (hr, hp) in fr.hops.iter().zip(&fp.hops) {
                assert_eq!(hr.nodes, hp.nodes);
                assert_eq!(bits(&hr.times), bits(&hp.times));
                assert_eq!(hr.event_idx, hp.event_idx);
                assert_eq!(hr.feat_idx, hp.feat_idx);
                let dts_bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(dts_bits(&hr.dts), dts_bits(&hp.dts));
                assert_eq!(hr.mask, hp.mask);
            }
        }
        assert!(
            STORE_PAGE_EVICTIONS.get() > ev0,
            "the four-frame cache must evict"
        );
        assert!(pf.cache_resident_bytes() <= 4 * PAGE_SIZE);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn backend_enum_dispatches_both_arms() {
        let dir = tmpdir("enum");
        let evs = events(200);
        let (nf, pf) = backends(&dir, &evs);
        let br = NeighborBackend::Resident(&nf);
        let bp = NeighborBackend::Paged(&pf);
        assert_eq!(br.num_nodes(), bp.num_nodes());
        for node in 0..12 {
            assert_eq!(br.degree(node), bp.degree(node));
        }
        let mut scratch = SampleScratch::new();
        let r = br.before_into(3, 60.0, &mut scratch);
        let rts: Vec<u64> = r.ts().iter().map(|t| t.to_bits()).collect();
        let mut scratch_p = SampleScratch::new();
        let p = bp.before_into(3, 60.0, &mut scratch_p);
        assert_eq!(rts, p.ts().iter().map(|t| t.to_bits()).collect::<Vec<_>>());
        assert!(
            scratch.window.ts.is_empty(),
            "resident windows are borrowed"
        );
        assert_eq!(
            scratch_p.window.ts.len(),
            rts.len(),
            "paged windows are decoded"
        );
        assert!(br.heap_bytes() > 0 && bp.heap_bytes() > 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
