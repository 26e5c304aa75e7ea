//! `benchtemp-store`: out-of-core paged adjacency for temporal graphs.
//!
//! The store pages out the part of a temporal graph that the neighbor
//! sampler reads per query: the CSR adjacency records. They live on
//! fixed-size disk pages behind a CLOCK cache with a byte budget
//! ([`crate::cache`]), while the index (per-node CSR offsets, the
//! per-event feature-row map and the first timestamp of each adjacency
//! page) stays resident: ~8 bytes per node plus ~4 bytes per event, against
//! the 32 bytes of adjacency per event that page out. The event stream and
//! the edge features are not stored here; they stay in the caller's
//! resident graph.
//!
//! A store is written once, by [`TemporalStore::bulk_load`] from a
//! time-sorted event stream ([`crate::bulkload`]), and read through
//! [`TemporalStore::cut_before`] and [`TemporalStore::read_adj`].
//! [`TemporalStore::open`] reopens a sealed store from its checksummed
//! manifest ([`crate::manifest`]).
//!
//! Layout inside a store directory:
//!
//! | file | contents |
//! |---|---|
//! | `store.pages` | all pages of the three columns |
//! | `manifest.bin` | counts and page tables, checksummed, replaced by rename |
//!
//! Columns inside `store.pages` (page tables in the manifest):
//!
//! | column | record | contents |
//! |---|---|---|
//! | offsets | 8 B | CSR offsets, `num_nodes + 1` (loaded resident on open) |
//! | adjacency | 16 B: `ts` bits @0, neighbor `u32` @8, event index `u32` @12 | per-node time-sorted entries, 512 per page, never straddling a page |
//! | event feat | 4 B | edge-feature row per event (loaded resident on open) |
//!
//! A window read touches each page it spans once and decodes the whole
//! record there; the strictly-before-`t` cut ([`TemporalStore::cut_before`])
//! searches the resident page-start timestamps and then one page.

pub mod bulkload;
pub mod cache;
pub mod manifest;
pub mod pager;

use std::io;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use cache::CachedPager;
use manifest::{Manifest, COL_ADJ, COL_FEAT, COL_OFF};
use pager::{PageId, PAGE_SIZE};

/// One temporal interaction as the store frames it (plain-old-data; the
/// graph crate adapts its richer `Interaction` down to this).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StoreEvent {
    pub src: u32,
    pub dst: u32,
    pub t: f64,
    /// Edge-feature row of this event.
    pub feat: u32,
}

/// On-disk size of one interleaved adjacency record: timestamp bits at
/// offset 0, neighbor at 8, event index at 12.
pub const ADJ_RECORD_BYTES: usize = 16;

/// Adjacency records per page. `PAGE_SIZE` is a multiple of the record
/// size, so no record straddles a page.
pub(crate) const ADJ_PER_PAGE: u64 = (PAGE_SIZE / ADJ_RECORD_BYTES) as u64;
const _: () = assert!(PAGE_SIZE.is_multiple_of(ADJ_RECORD_BYTES));

/// Little-endian loads out of one page-resident adjacency record.
#[inline]
fn rec_ts(rec: &[u8]) -> f64 {
    f64::from_bits(u64::from_le_bytes(rec[0..8].try_into().unwrap()))
}
#[inline]
fn rec_u32(rec: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(rec[at..at + 4].try_into().unwrap())
}

/// Store construction knobs.
#[derive(Clone, Debug, Default)]
pub struct StoreOptions {
    /// Page-cache budget in bytes; `None` uses the process-wide
    /// `BENCHTEMP_PAGE_CACHE_MB` default.
    pub cache_budget_bytes: Option<usize>,
}

/// Base directory for stores whose caller did not pick one, from
/// `BENCHTEMP_STORE_DIR` (default: the system temp dir). Read exactly
/// once per process.
pub fn default_store_dir() -> &'static Path {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        std::env::var("BENCHTEMP_STORE_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|_| std::env::temp_dir().join("benchtemp-store"))
    })
}

/// Read a whole column (`len` bytes over `pages`) through the cache.
fn read_column(cp: &CachedPager, pages: &[PageId], len: u64) -> io::Result<Vec<u8>> {
    let mut out = Vec::with_capacity(len as usize);
    for &page in pages {
        let take = (len as usize - out.len()).min(PAGE_SIZE);
        cp.with_page(page, |buf| out.extend_from_slice(&buf[..take]))?;
    }
    Ok(out)
}

fn pages_path(dir: &Path) -> PathBuf {
    dir.join("store.pages")
}
fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("manifest.bin")
}

/// A sealed paged adjacency store.
pub struct TemporalStore {
    cp: CachedPager,
    /// Page table of the adjacency column.
    adj_pages: Vec<PageId>,
    /// Resident index: CSR offsets in adjacency entries, `num_nodes + 1`.
    offsets: Vec<u64>,
    /// Resident index: edge-feature row per event.
    event_feat: Vec<u32>,
    /// Resident index: timestamp of the first record on each adjacency
    /// page, for the page-level half of [`TemporalStore::cut_before`].
    page_ts: Vec<f64>,
}

impl TemporalStore {
    /// Bulk-load a fresh store at `dir` from a time-sorted event stream,
    /// replacing any store there. Returns `InvalidData` for an endpoint
    /// out of range or a timestamp below its predecessor's.
    pub fn bulk_load(
        dir: &Path,
        num_nodes: usize,
        events: impl Iterator<Item = StoreEvent> + Clone,
        opts: &StoreOptions,
    ) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let cp = CachedPager::create(&pages_path(dir), opts.cache_budget_bytes)?;
        let built = bulkload::build(&cp, num_nodes, events)?;
        cp.flush()?;
        built.manifest.write_to(&manifest_path(dir))?;
        Ok(TemporalStore {
            cp,
            adj_pages: built.manifest.col_pages[COL_ADJ].clone(),
            offsets: built.offsets,
            event_feat: built.event_feat,
            page_ts: built.page_ts,
        })
    }

    /// Open a sealed store from its manifest. Returns `InvalidData` for a
    /// corrupt or foreign manifest and for a page file shorter than the
    /// manifest's page count.
    pub fn open(dir: &Path, opts: &StoreOptions) -> io::Result<Self> {
        let m = Manifest::read_from(&manifest_path(dir))?;
        let cp = CachedPager::open(&pages_path(dir), opts.cache_budget_bytes, m.num_pages)?;
        let len = m.column_bytes();
        let offsets = read_column(&cp, &m.col_pages[COL_OFF], len[COL_OFF])?
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let event_feat = read_column(&cp, &m.col_pages[COL_FEAT], len[COL_FEAT])?
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let [_, adj_pages, _] = m.col_pages;
        let page_ts = adj_pages
            .iter()
            .map(|&pg| cp.with_page(pg, rec_ts))
            .collect::<io::Result<Vec<f64>>>()?;
        Ok(TemporalStore {
            cp,
            adj_pages,
            offsets,
            event_feat,
            page_ts,
        })
    }

    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// A node's adjacency-entry range `[start, end)`.
    #[inline]
    pub fn node_range(&self, node: usize) -> (u64, u64) {
        (self.offsets[node], self.offsets[node + 1])
    }

    /// Resident per-event edge-feature rows (indexed by event idx).
    #[inline]
    pub fn event_feat(&self) -> &[u32] {
        &self.event_feat
    }

    /// The strictly-before-`t` window of `node`: `(start, cut)` in global
    /// adjacency-entry units, where `cut` is the first entry whose
    /// timestamp is not `< t` (the resident `partition_point`). Every page
    /// after the node's first one starts with one of its entries, so the
    /// resident page-start timestamps locate the page holding the cut; a
    /// binary search inside that one pinned page finishes it.
    pub fn cut_before(&self, node: usize, t: f64) -> io::Result<(u64, u64)> {
        let (s, e) = self.node_range(node);
        if s == e {
            return Ok((s, s));
        }
        let first = s / ADJ_PER_PAGE;
        let last = (e - 1) / ADJ_PER_PAGE;
        let later = &self.page_ts[first as usize + 1..=last as usize];
        let page = first + later.partition_point(|&x| x < t) as u64;
        let base = page * ADJ_PER_PAGE;
        let (lo, hi) = (s.max(base) - base, e.min(base + ADJ_PER_PAGE) - base);
        let within = self.cp.with_page(self.adj_pages[page as usize], |buf| {
            let (mut lo, mut hi) = (lo as usize, hi as usize);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if rec_ts(&buf[mid * ADJ_RECORD_BYTES..]) < t {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            lo
        })?;
        Ok((s, base + within as u64))
    }

    /// Decode adjacency entries `[start, end)` into caller-sized SoA
    /// slices of length `end - start`: each page the window spans is
    /// touched once and its records decoded in place while pinned.
    pub fn read_adj(
        &self,
        start: u64,
        end: u64,
        nbr: &mut [u32],
        ts: &mut [f64],
        evi: &mut [u32],
    ) -> io::Result<()> {
        debug_assert!(start <= end && end <= *self.offsets.last().unwrap());
        let n = (end - start) as usize;
        assert!(nbr.len() == n && ts.len() == n && evi.len() == n);
        let mut entry = start;
        let mut done = 0usize;
        while entry < end {
            let page = entry / ADJ_PER_PAGE;
            let take = (end.min((page + 1) * ADJ_PER_PAGE) - entry) as usize;
            let at = (entry % ADJ_PER_PAGE) as usize * ADJ_RECORD_BYTES;
            let to = done + take;
            let (nbr, ts, evi) = (&mut nbr[done..to], &mut ts[done..to], &mut evi[done..to]);
            self.cp.with_page(self.adj_pages[page as usize], |buf| {
                let bytes = &buf[at..at + take * ADJ_RECORD_BYTES];
                for (i, rec) in bytes.chunks_exact(ADJ_RECORD_BYTES).enumerate() {
                    ts[i] = rec_ts(rec);
                    nbr[i] = rec_u32(rec, 8);
                    evi[i] = rec_u32(rec, 12);
                }
            })?;
            entry += take as u64;
            done += take;
        }
        Ok(())
    }

    /// Bytes held by cache frames right now (bounded by the budget).
    pub fn cache_resident_bytes(&self) -> usize {
        self.cp.resident_bytes()
    }

    /// Bytes of resident index this store keeps in RAM by design.
    pub fn resident_index_bytes(&self) -> usize {
        self.offsets.capacity() * 8 + self.event_feat.capacity() * 4 + self.page_ts.capacity() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("benchtemp-store-{}-{}", name, std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn events() -> Vec<StoreEvent> {
        (0..200)
            .map(|i| StoreEvent {
                src: i % 7,
                dst: 7 + (i % 5),
                t: i as f64,
                feat: i,
            })
            .collect()
    }

    /// Every node's full window as `(neighbors, timestamps, event indices)`.
    fn windows(st: &TemporalStore) -> Vec<(Vec<u32>, Vec<f64>, Vec<u32>)> {
        (0..st.num_nodes())
            .map(|node| {
                let (s, e) = st.node_range(node);
                let n = (e - s) as usize;
                let (mut nbr, mut ts, mut evi) = (vec![0; n], vec![0.0; n], vec![0; n]);
                st.read_adj(s, e, &mut nbr, &mut ts, &mut evi).unwrap();
                (nbr, ts, evi)
            })
            .collect()
    }

    #[test]
    fn bulk_load_roundtrips_adjacency() {
        let dir = tmpdir("bulk");
        let evs = events();
        let st = TemporalStore::bulk_load(&dir, 12, evs.iter().copied(), &StoreOptions::default())
            .unwrap();
        assert_eq!(st.event_feat().len(), 200);
        assert_eq!(st.node_range(11).1, 400);
        // Node 0 participates as src for i ≡ 0 (mod 7).
        let (nbr, ts, evi) = &windows(&st)[0];
        let expect: Vec<u32> = (0..200).filter(|i| i % 7 == 0).collect();
        assert_eq!(evi, &expect);
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
        for (&n, &i) in nbr.iter().zip(evi) {
            assert_eq!(n, 7 + (i % 5));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cut_before_matches_linear_scan_across_pages() {
        let dir = tmpdir("cut");
        // Node 3 is the dst of every event: 1,200 entries starting
        // mid-page at entry 1,200, so its window spans three pages with
        // runs of five tied timestamps.
        let evs: Vec<StoreEvent> = (0..1200)
            .map(|i| StoreEvent {
                src: i % 3,
                dst: 3,
                t: (i / 5) as f64,
                feat: i,
            })
            .collect();
        let opts = StoreOptions {
            cache_budget_bytes: Some(1),
        };
        let bulk = TemporalStore::bulk_load(&dir, 4, evs.iter().copied(), &opts).unwrap();
        let reopened = TemporalStore::open(&dir, &opts).unwrap();
        assert_eq!(
            bulk.page_ts, reopened.page_ts,
            "open must rebuild the page index"
        );
        for st in [&bulk, &reopened] {
            for (node, (_, ts, _)) in windows(st).iter().enumerate() {
                let (s, _) = st.node_range(node);
                let fixed = [-1.0, 0.0, 0.5, 102.4, 239.0, 240.0, f64::NAN];
                // Node 3's page starts (entries 1536, 2048) sit inside tie runs.
                for &t in fixed.iter().chain(&st.page_ts) {
                    let cut = s + ts.partition_point(|&x| x < t) as u64;
                    assert_eq!(
                        st.cut_before(node, t).unwrap(),
                        (s, cut),
                        "node={node} t={t}"
                    );
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_after_bulk_load_sees_same_data() {
        let dir = tmpdir("reopen");
        let evs = events();
        let bulk =
            TemporalStore::bulk_load(&dir, 12, evs.iter().copied(), &StoreOptions::default())
                .unwrap();
        let st = TemporalStore::open(&dir, &StoreOptions::default()).unwrap();
        assert_eq!(st.offsets, bulk.offsets);
        assert_eq!(st.event_feat(), bulk.event_feat());
        assert_eq!(st.event_feat()[42], 42);
        assert_eq!(windows(&st), windows(&bulk));
        std::fs::remove_dir_all(&dir).ok();
    }
}
