//! Binary manifest: the store's durable root of trust.
//!
//! The manifest records everything needed to reopen a store against its
//! page file — entity counts, per-column page tables, the pager's free
//! list, and an opaque caller blob (training-resume state). Encoding is
//! little-endian u64 fields with a trailing FNV-1a checksum; decode
//! rejects bad magic, short buffers, and checksum mismatches with
//! `InvalidData`, so a torn manifest write is detected rather than
//! silently misread. Snapshots are manifests under a tag: `snapshot`
//! flushes the cache and writes `snap_<tag>.bin`, `restore` opens the
//! store from that manifest and hands the blob back.

use std::io::{self, Read, Write};
use std::path::Path;

use crate::pager::PageId;

/// Format tag. `BTMANIF1` stores carried three SoA adjacency columns;
/// v2 carries one interleaved adjacency column, so a v1 manifest is
/// rejected at the magic check instead of being misread.
const MAGIC: &[u8; 8] = b"BTMANIF2";

/// Number of column page tables, in fixed order:
/// offsets, adjacency records, event_feat, events, edge_features.
pub const NUM_COLUMNS: usize = 5;

pub const COL_OFF: usize = 0;
pub const COL_ADJ: usize = 1;
pub const COL_FEAT: usize = 2;
pub const COL_EVT: usize = 3;
pub const COL_EFEAT: usize = 4;

/// Durable description of one store generation.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Manifest {
    pub num_nodes: u64,
    pub num_events: u64,
    /// Adjacency entries (2 × events: both directions indexed).
    pub num_entries: u64,
    pub feat_rows: u64,
    pub feat_cols: u64,
    pub num_pages: u64,
    pub free: Vec<PageId>,
    pub col_pages: Vec<Vec<PageId>>,
    pub user_blob: String,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct Reader<'a> {
    bytes: &'a [u8],
    off: usize,
}

impl<'a> Reader<'a> {
    fn u64(&mut self) -> io::Result<u64> {
        let end = self.off + 8;
        if end > self.bytes.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "manifest truncated",
            ));
        }
        let v = u64::from_le_bytes(self.bytes[self.off..end].try_into().unwrap());
        self.off = end;
        Ok(v)
    }

    fn bytes(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self.off + n;
        if end > self.bytes.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "manifest truncated",
            ));
        }
        let s = &self.bytes[self.off..end];
        self.off = end;
        Ok(s)
    }
}

impl Manifest {
    pub fn new() -> Self {
        Manifest {
            col_pages: vec![Vec::new(); NUM_COLUMNS],
            ..Default::default()
        }
    }

    pub fn encode(&self) -> Vec<u8> {
        assert_eq!(self.col_pages.len(), NUM_COLUMNS);
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        for v in [
            self.num_nodes,
            self.num_events,
            self.num_entries,
            self.feat_rows,
            self.feat_cols,
            self.num_pages,
        ] {
            push_u64(&mut out, v);
        }
        push_u64(&mut out, self.free.len() as u64);
        for &p in &self.free {
            push_u64(&mut out, p);
        }
        for col in &self.col_pages {
            push_u64(&mut out, col.len() as u64);
            for &p in col {
                push_u64(&mut out, p);
            }
        }
        push_u64(&mut out, self.user_blob.len() as u64);
        out.extend_from_slice(self.user_blob.as_bytes());
        let check = fnv1a(&out);
        push_u64(&mut out, check);
        out
    }

    pub fn decode(bytes: &[u8]) -> io::Result<Self> {
        if bytes.len() < MAGIC.len() + 8 || &bytes[..MAGIC.len()] != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "bad manifest magic",
            ));
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(tail.try_into().unwrap());
        if fnv1a(body) != stored {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "manifest checksum mismatch",
            ));
        }
        let mut r = Reader {
            bytes: body,
            off: MAGIC.len(),
        };
        let num_nodes = r.u64()?;
        let num_events = r.u64()?;
        let num_entries = r.u64()?;
        let feat_rows = r.u64()?;
        let feat_cols = r.u64()?;
        let num_pages = r.u64()?;
        let n_free = r.u64()? as usize;
        let mut free = Vec::with_capacity(n_free);
        for _ in 0..n_free {
            free.push(r.u64()?);
        }
        let mut col_pages = Vec::with_capacity(NUM_COLUMNS);
        for _ in 0..NUM_COLUMNS {
            let n = r.u64()? as usize;
            let mut pages = Vec::with_capacity(n);
            for _ in 0..n {
                pages.push(r.u64()?);
            }
            col_pages.push(pages);
        }
        let blob_len = r.u64()? as usize;
        let user_blob = String::from_utf8(r.bytes(blob_len)?.to_vec())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "manifest blob not utf-8"))?;
        Ok(Manifest {
            num_nodes,
            num_events,
            num_entries,
            feat_rows,
            feat_cols,
            num_pages,
            free,
            col_pages,
            user_blob,
        })
    }

    pub fn write_to(&self, path: &Path) -> io::Result<()> {
        // Write-then-rename so a crash mid-write leaves the old manifest.
        let tmp = path.with_extension("tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&self.encode())?;
            f.sync_data()?;
        }
        std::fs::rename(&tmp, path)
    }

    pub fn read_from(path: &Path) -> io::Result<Self> {
        let mut bytes = Vec::new();
        std::fs::File::open(path)?.read_to_end(&mut bytes)?;
        Self::decode(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        let mut m = Manifest::new();
        m.num_nodes = 10;
        m.num_events = 7;
        m.num_entries = 14;
        m.feat_rows = 7;
        m.feat_cols = 4;
        m.num_pages = 9;
        m.free = vec![3, 5];
        m.col_pages[COL_ADJ] = vec![0, 1, 2, 4];
        m.user_blob = "epoch=3".to_string();
        m
    }

    #[test]
    fn roundtrip() {
        let m = sample();
        assert_eq!(Manifest::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn corruption_detected() {
        let mut bytes = sample().encode();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(
            Manifest::decode(&bytes).is_err(),
            "checksum must catch flip"
        );
        let short = &sample().encode()[..10];
        assert!(Manifest::decode(short).is_err());
    }

    #[test]
    fn v1_manifest_rejected_as_invalid_data() {
        // A well-formed v1 manifest: old magic, the seven v1 page tables
        // (offsets, neighbor, ts, event_idx, event_feat, events,
        // edge_features), a valid checksum. Without the magic bump its
        // first five tables would decode as a v2 manifest.
        let m = sample();
        let mut v1 = b"BTMANIF1".to_vec();
        for v in [10u64, 7, 14, 7, 4, 9, 2, 3, 5] {
            push_u64(&mut v1, v); // six counts, then the two-entry free list
        }
        let v1_cols: [&[u64]; 7] = [&[], &[0, 1], &[2, 4], &[], &[], &[], &[]];
        for col in v1_cols {
            push_u64(&mut v1, col.len() as u64);
            for &p in col {
                push_u64(&mut v1, p);
            }
        }
        push_u64(&mut v1, m.user_blob.len() as u64);
        v1.extend_from_slice(m.user_blob.as_bytes());
        let check = fnv1a(&v1);
        push_u64(&mut v1, check);
        let err = Manifest::decode(&v1).expect_err("v1 manifest must not decode");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
