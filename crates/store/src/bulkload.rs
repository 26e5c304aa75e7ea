//! External-sort bulk load: events → sorted runs → k-way merge → CSR
//! segments of interleaved adjacency records written straight to pages.
//!
//! The loader never holds more than one run of events in memory (plus the
//! resident index: offsets and per-event feature rows). Input is chunked
//! into runs of `run_events`, each stably sorted by timestamp
//! (`f64::total_cmp`) and spilled to disk; a k-way merge (one heap entry
//! per run, ties broken by run index so the merge is exactly the stable
//! sort of the concatenated input) streams the sorted order to a temp
//! file, which is then scanned twice — once to count degrees, once to
//! fill the CSR adjacency column (one 16-byte record, so one page write,
//! per entry) through the write-back page cache. Because the
//! sort is stable, an already-time-sorted input (every benchtemp
//! generator and dataset) keeps its order, so paged event indices equal
//! the resident `NeighborFinder`'s — a load-bearing half of the paged
//! backend's bit-identity argument.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use benchtemp_obs::counters::STORE_BULK_EVENTS;

use crate::cache::CachedPager;
use crate::snapshot::{Manifest, COL_ADJ, COL_EFEAT, COL_EVT, COL_FEAT, COL_OFF};
use crate::{Column, StoreEvent, ADJ_PER_PAGE, ADJ_RECORD_BYTES, EVT_RECORD_BYTES};

/// Serialize one adjacency entry as its interleaved page record:
/// timestamp bits at 0, neighbor at 8, event index at 12.
fn encode_adj(t: f64, neighbor: u32, event_idx: u32) -> [u8; ADJ_RECORD_BYTES] {
    let mut rec = [0u8; ADJ_RECORD_BYTES];
    rec[0..8].copy_from_slice(&t.to_bits().to_le_bytes());
    rec[8..12].copy_from_slice(&neighbor.to_le_bytes());
    rec[12..16].copy_from_slice(&event_idx.to_le_bytes());
    rec
}

/// Serialize one event as the 20-byte run/merge record (no checksum — the
/// temp files live and die inside one bulk load).
pub(crate) fn encode_ev20(ev: &StoreEvent) -> [u8; EVT_RECORD_BYTES] {
    let mut rec = [0u8; EVT_RECORD_BYTES];
    rec[0..4].copy_from_slice(&ev.src.to_le_bytes());
    rec[4..8].copy_from_slice(&ev.dst.to_le_bytes());
    rec[8..12].copy_from_slice(&ev.feat.to_le_bytes());
    rec[12..20].copy_from_slice(&ev.t.to_bits().to_le_bytes());
    rec
}

pub(crate) fn decode_ev20(rec: &[u8; EVT_RECORD_BYTES]) -> StoreEvent {
    StoreEvent {
        src: u32::from_le_bytes(rec[0..4].try_into().unwrap()),
        dst: u32::from_le_bytes(rec[4..8].try_into().unwrap()),
        feat: u32::from_le_bytes(rec[8..12].try_into().unwrap()),
        t: f64::from_bits(u64::from_le_bytes(rec[12..20].try_into().unwrap())),
    }
}

fn read_ev20(r: &mut impl Read) -> io::Result<Option<StoreEvent>> {
    let mut rec = [0u8; EVT_RECORD_BYTES];
    let mut done = 0usize;
    while done < EVT_RECORD_BYTES {
        let n = r.read(&mut rec[done..])?;
        if n == 0 {
            if done == 0 {
                return Ok(None);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "torn bulk-load temp record",
            ));
        }
        done += n;
    }
    Ok(Some(decode_ev20(&rec)))
}

/// Merge-heap entry: min by (t, run); only one entry per run is live at a
/// time, so within-run order is preserved and the pop order is the stable
/// sort of the concatenated runs.
struct MergeItem {
    ev: StoreEvent,
    run: usize,
}

impl PartialEq for MergeItem {
    fn eq(&self, other: &Self) -> bool {
        self.ev.t.total_cmp(&other.ev.t) == Ordering::Equal && self.run == other.run
    }
}
impl Eq for MergeItem {}
impl PartialOrd for MergeItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for MergeItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the smallest (t, run).
        other
            .ev
            .t
            .total_cmp(&self.ev.t)
            .then_with(|| other.run.cmp(&self.run))
    }
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Spill sorted runs, k-way merge them into `sorted.tmp`, and return the
/// merged path plus the event count.
fn sort_externally(
    dir: &Path,
    events: impl Iterator<Item = io::Result<StoreEvent>>,
    run_events: usize,
) -> io::Result<(PathBuf, u64)> {
    let run_events = run_events.max(1);
    let mut run_paths: Vec<PathBuf> = Vec::new();
    let mut run: Vec<StoreEvent> = Vec::with_capacity(run_events);
    let spill = |run: &mut Vec<StoreEvent>, run_paths: &mut Vec<PathBuf>| -> io::Result<()> {
        if run.is_empty() {
            return Ok(());
        }
        run.sort_by(|a, b| a.t.total_cmp(&b.t)); // stable
        let path = dir.join(format!("bulk_run_{}.tmp", run_paths.len()));
        let mut w = BufWriter::new(File::create(&path)?);
        for ev in run.iter() {
            w.write_all(&encode_ev20(ev))?;
        }
        w.flush()?;
        run_paths.push(path);
        run.clear();
        Ok(())
    };
    for ev in events {
        run.push(ev?);
        if run.len() == run_events {
            spill(&mut run, &mut run_paths)?;
        }
    }
    spill(&mut run, &mut run_paths)?;

    let sorted_path = dir.join("bulk_sorted.tmp");
    let mut out = BufWriter::new(File::create(&sorted_path)?);
    let mut readers: Vec<BufReader<File>> = run_paths
        .iter()
        .map(|p| File::open(p).map(BufReader::new))
        .collect::<io::Result<_>>()?;
    let mut heap = BinaryHeap::with_capacity(readers.len());
    for (run, r) in readers.iter_mut().enumerate() {
        if let Some(ev) = read_ev20(r)? {
            heap.push(MergeItem { ev, run });
        }
    }
    let mut count = 0u64;
    while let Some(MergeItem { ev, run }) = heap.pop() {
        out.write_all(&encode_ev20(&ev))?;
        count += 1;
        if let Some(next) = read_ev20(&mut readers[run])? {
            heap.push(MergeItem { ev: next, run });
        }
    }
    out.flush()?;
    for p in &run_paths {
        std::fs::remove_file(p).ok();
    }
    Ok((sorted_path, count))
}

/// What [`build`] hands back: the manifest (page tables + allocation
/// state) and the resident index.
pub(crate) struct Built {
    pub(crate) manifest: Manifest,
    pub(crate) offsets: Vec<u64>,
    pub(crate) event_feat: Vec<u32>,
    /// First timestamp on each adjacency page, recorded as pass B writes
    /// it (a scan afterwards would fault every adjacency page back in).
    pub(crate) page_ts: Vec<f64>,
}

/// Build all store columns inside `cp` from an event stream.
pub(crate) fn build(
    dir: &Path,
    cp: &CachedPager,
    num_nodes: usize,
    events: impl Iterator<Item = io::Result<StoreEvent>>,
    edge_features: Option<(usize, usize, &[f32])>,
    run_events: usize,
) -> io::Result<Built> {
    let _span = benchtemp_obs::span("store.bulk_load");
    let (sorted_path, num_events) = sort_externally(dir, events, run_events)?;
    let num_entries = num_events * 2;

    // Pass A: degree counts → offsets (the resident index).
    let mut degree = vec![0u64; num_nodes];
    {
        let mut r = BufReader::new(File::open(&sorted_path)?);
        while let Some(ev) = read_ev20(&mut r)? {
            let (s, d) = (ev.src as usize, ev.dst as usize);
            if s >= num_nodes || d >= num_nodes {
                return Err(invalid(format!(
                    "event endpoint out of range: {s}/{d} >= {num_nodes}"
                )));
            }
            degree[s] += 1;
            degree[d] += 1;
        }
    }
    let mut offsets = Vec::with_capacity(num_nodes + 1);
    let mut acc = 0u64;
    offsets.push(0);
    for &d in &degree {
        acc += d;
        offsets.push(acc);
    }
    drop(degree);

    // Allocate every column up front.
    let col_off = Column::with_len(cp, (num_nodes as u64 + 1) * 8);
    let col_adj = Column::with_len(cp, num_entries * ADJ_RECORD_BYTES as u64);
    let col_feat = Column::with_len(cp, num_events * 4);
    let col_evt = Column::with_len(cp, num_events * EVT_RECORD_BYTES as u64);
    let (feat_rows, feat_cols) = edge_features.map_or((0, 0), |(r, c, _)| (r, c));
    let col_efeat = Column::with_len(cp, (feat_rows as u64) * (feat_cols as u64) * 4);

    // Offsets column, written in page-sized strides.
    {
        let mut buf = Vec::with_capacity(1024 * 8);
        let mut byte_off = 0u64;
        for chunk in offsets.chunks(1024) {
            buf.clear();
            for &v in chunk {
                buf.extend_from_slice(&v.to_le_bytes());
            }
            col_off.write_bytes(cp, byte_off, &buf)?;
            byte_off += buf.len() as u64;
        }
    }

    // Pass B: fill the adjacency column at per-node cursors and the event
    // columns sequentially. Random node order means random page writes;
    // the write-back cache absorbs them inside the byte budget.
    let mut event_feat = vec![0u32; num_events as usize];
    let mut page_ts = vec![0f64; num_entries.div_ceil(ADJ_PER_PAGE) as usize];
    {
        let mut cursor: Vec<u64> = offsets[..num_nodes].to_vec();
        let mut r = BufReader::new(File::open(&sorted_path)?);
        let mut idx = 0u64;
        while let Some(ev) = read_ev20(&mut r)? {
            col_evt.write_bytes(cp, idx * EVT_RECORD_BYTES as u64, &encode_ev20(&ev))?;
            event_feat[idx as usize] = ev.feat;
            for (node, other) in [(ev.src, ev.dst), (ev.dst, ev.src)] {
                let c = cursor[node as usize];
                cursor[node as usize] += 1;
                let rec = encode_adj(ev.t, other, idx as u32);
                col_adj.write_bytes(cp, c * ADJ_RECORD_BYTES as u64, &rec)?;
                if c.is_multiple_of(ADJ_PER_PAGE) {
                    page_ts[(c / ADJ_PER_PAGE) as usize] = ev.t;
                }
            }
            idx += 1;
        }
        debug_assert_eq!(idx, num_events);
    }

    // Per-event feature-row column (bulk, from the resident copy).
    {
        let mut buf = Vec::with_capacity(2048 * 4);
        let mut byte_off = 0u64;
        for chunk in event_feat.chunks(2048) {
            buf.clear();
            for &v in chunk {
                buf.extend_from_slice(&v.to_le_bytes());
            }
            col_feat.write_bytes(cp, byte_off, &buf)?;
            byte_off += buf.len() as u64;
        }
    }

    // Edge-feature matrix (row-major f32), paged.
    if let Some((_, _, data)) = edge_features {
        debug_assert_eq!(data.len(), feat_rows * feat_cols);
        let mut buf = Vec::with_capacity(2048 * 4);
        let mut byte_off = 0u64;
        for chunk in data.chunks(2048) {
            buf.clear();
            for &v in chunk {
                buf.extend_from_slice(&v.to_le_bytes());
            }
            col_efeat.write_bytes(cp, byte_off, &buf)?;
            byte_off += buf.len() as u64;
        }
    }

    std::fs::remove_file(&sorted_path).ok();
    STORE_BULK_EVENTS.add(num_events);

    let mut manifest = Manifest::new();
    manifest.num_nodes = num_nodes as u64;
    manifest.num_events = num_events;
    manifest.num_entries = num_entries;
    manifest.feat_rows = feat_rows as u64;
    manifest.feat_cols = feat_cols as u64;
    manifest.col_pages[COL_OFF] = col_off.pages;
    manifest.col_pages[COL_ADJ] = col_adj.pages;
    manifest.col_pages[COL_FEAT] = col_feat.pages;
    manifest.col_pages[COL_EVT] = col_evt.pages;
    manifest.col_pages[COL_EFEAT] = col_efeat.pages;
    manifest.num_pages = cp.num_pages();
    manifest.free = cp.free_list();
    Ok(Built {
        manifest,
        offsets,
        event_feat,
        page_ts,
    })
}
