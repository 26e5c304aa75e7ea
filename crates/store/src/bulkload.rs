//! Bulk load: one time-sorted event stream → the three store columns.
//!
//! Two passes over the stream, which the caller hands over as a cloneable
//! iterator (in practice a `TemporalGraph` event slice or its chronological
//! train prefix, both already in RAM):
//!
//! * pass A checks endpoints and time order and counts degrees, giving the
//!   CSR offsets (the resident index);
//! * pass B writes each event's two interleaved adjacency records at
//!   per-node cursors through the write-back page cache, one page write per
//!   record, and fills the event → feature-row map and the first timestamp
//!   of each adjacency page as it goes.
//!
//! Appending in stream order leaves every per-node run time-sorted, and an
//! event's index is its stream position, exactly as in the resident
//! `NeighborFinder` — a load-bearing half of the paged backend's
//! bit-identity argument. A stream with `t[i] < t[i-1]`, the predicate
//! `TemporalGraph::validate` rejects, is refused with `InvalidData` before
//! any page is written, rather than sorted: every caller's stream already
//! satisfies that invariant.

use std::io;

use benchtemp_obs::counters::STORE_BULK_EVENTS;

use crate::cache::CachedPager;
use crate::manifest::{Manifest, COL_ADJ, COL_FEAT, COL_OFF};
use crate::pager::{PageId, PAGE_SIZE};
use crate::{StoreEvent, ADJ_PER_PAGE, ADJ_RECORD_BYTES};

/// Serialize one adjacency entry as its interleaved page record:
/// timestamp bits at 0, neighbor at 8, event index at 12.
fn encode_adj(t: f64, neighbor: u32, event_idx: u32) -> [u8; ADJ_RECORD_BYTES] {
    let mut rec = [0u8; ADJ_RECORD_BYTES];
    rec[0..8].copy_from_slice(&t.to_bits().to_le_bytes());
    rec[8..12].copy_from_slice(&neighbor.to_le_bytes());
    rec[12..16].copy_from_slice(&event_idx.to_le_bytes());
    rec
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Write `bytes` across `pages`, page by page.
fn write_column(cp: &CachedPager, pages: &[PageId], bytes: &[u8]) -> io::Result<()> {
    for (&page, chunk) in pages.iter().zip(bytes.chunks(PAGE_SIZE)) {
        cp.with_page_mut(page, |buf| buf[..chunk.len()].copy_from_slice(chunk))?;
    }
    Ok(())
}

/// What [`build`] hands back: the manifest (counts and page tables) and the
/// resident index.
pub(crate) struct Built {
    pub(crate) manifest: Manifest,
    pub(crate) offsets: Vec<u64>,
    pub(crate) event_feat: Vec<u32>,
    /// First timestamp on each adjacency page, recorded as pass B writes
    /// it (a scan afterwards would fault every adjacency page back in).
    pub(crate) page_ts: Vec<f64>,
}

/// Build all store columns inside `cp` from a time-sorted event stream.
pub(crate) fn build(
    cp: &CachedPager,
    num_nodes: usize,
    events: impl Iterator<Item = StoreEvent> + Clone,
) -> io::Result<Built> {
    let _span = benchtemp_obs::span("store.bulk_load");

    // Pass A: validate, then degree counts → offsets.
    let mut degree = vec![0u64; num_nodes];
    let mut num_events = 0u64;
    let mut last_t = f64::NEG_INFINITY;
    for ev in events.clone() {
        let (s, d) = (ev.src as usize, ev.dst as usize);
        if s >= num_nodes || d >= num_nodes {
            return Err(invalid(format!(
                "event {num_events}: endpoint out of range: {s}/{d} >= {num_nodes}"
            )));
        }
        if ev.t < last_t {
            return Err(invalid(format!(
                "event {num_events}: timestamps not sorted ({} after {last_t})",
                ev.t
            )));
        }
        last_t = ev.t;
        degree[s] += 1;
        degree[d] += 1;
        num_events += 1;
    }
    let mut offsets = Vec::with_capacity(num_nodes + 1);
    let mut acc = 0u64;
    offsets.push(0);
    for &d in &degree {
        acc += d;
        offsets.push(acc);
    }
    drop(degree);

    // Allocate every column up front, in manifest order.
    let mut manifest = Manifest {
        num_nodes: num_nodes as u64,
        num_events,
        ..Default::default()
    };
    let lens = manifest.column_bytes();
    for (pages, len) in manifest.col_pages.iter_mut().zip(lens) {
        *pages = (0..len.div_ceil(PAGE_SIZE as u64))
            .map(|_| cp.alloc())
            .collect();
    }
    let off_bytes: Vec<u8> = offsets.iter().flat_map(|v| v.to_le_bytes()).collect();
    write_column(cp, &manifest.col_pages[COL_OFF], &off_bytes)?;
    drop(off_bytes);

    // Pass B: adjacency records at per-node cursors. Random node order
    // means random page writes; the write-back cache absorbs them inside
    // the byte budget.
    let adj_pages = &manifest.col_pages[COL_ADJ];
    let mut event_feat = Vec::with_capacity(num_events as usize);
    let mut page_ts = vec![0f64; adj_pages.len()];
    let mut cursor: Vec<u64> = offsets[..num_nodes].to_vec();
    for (idx, ev) in events.enumerate() {
        event_feat.push(ev.feat);
        for (node, other) in [(ev.src, ev.dst), (ev.dst, ev.src)] {
            let c = cursor[node as usize];
            cursor[node as usize] += 1;
            let rec = encode_adj(ev.t, other, idx as u32);
            let at = (c % ADJ_PER_PAGE) as usize * ADJ_RECORD_BYTES;
            let page = (c / ADJ_PER_PAGE) as usize;
            cp.with_page_mut(adj_pages[page], |buf| {
                buf[at..at + ADJ_RECORD_BYTES].copy_from_slice(&rec)
            })?;
            if at == 0 {
                page_ts[page] = ev.t;
            }
        }
    }
    drop(cursor);
    debug_assert_eq!(event_feat.len() as u64, num_events);

    let feat_bytes: Vec<u8> = event_feat.iter().flat_map(|v| v.to_le_bytes()).collect();
    write_column(cp, &manifest.col_pages[COL_FEAT], &feat_bytes)?;

    STORE_BULK_EVENTS.add(num_events);
    manifest.num_pages = cp.num_pages();
    Ok(Built {
        manifest,
        offsets,
        event_feat,
        page_ts,
    })
}
