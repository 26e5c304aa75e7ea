//! Binary manifest: the store's durable root of trust.
//!
//! The manifest records everything needed to reopen a store against its
//! page file — the node and event counts, the page count, and one page
//! table per column. Encoding is little-endian u64 fields with a trailing
//! FNV-1a checksum; decode rejects bad magic, short buffers, checksum
//! mismatches and page tables that disagree with the counts with
//! `InvalidData`, so a torn or foreign manifest is detected rather than
//! silently misread. [`Manifest::write_to`] writes a temp file and renames
//! it over the old one, so a crash mid-write leaves the old manifest.

use std::io::{self, Read, Write};
use std::path::Path;

use crate::pager::{PageId, PAGE_SIZE};
use crate::ADJ_RECORD_BYTES;

/// Format tag. `BTMANIF1` stores carried three SoA adjacency columns;
/// `BTMANIF2` carried five columns, a free list and a resume blob; v3
/// carries the three columns below and nothing else, so an older manifest
/// is rejected at the magic check instead of being misread.
const MAGIC: &[u8; 8] = b"BTMANIF3";

/// Number of column page tables, in fixed order: offsets, adjacency
/// records, event feature rows.
pub const NUM_COLUMNS: usize = 3;

pub const COL_OFF: usize = 0;
pub const COL_ADJ: usize = 1;
pub const COL_FEAT: usize = 2;

/// Durable description of one sealed store.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Manifest {
    pub num_nodes: u64,
    pub num_events: u64,
    pub num_pages: u64,
    pub col_pages: [Vec<PageId>; NUM_COLUMNS],
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

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

struct Reader<'a> {
    bytes: &'a [u8],
    off: usize,
}

impl Reader<'_> {
    fn u64(&mut self) -> io::Result<u64> {
        let end = self.off + 8;
        if end > self.bytes.len() {
            return Err(invalid("manifest truncated"));
        }
        let v = u64::from_le_bytes(self.bytes[self.off..end].try_into().unwrap());
        self.off = end;
        Ok(v)
    }
}

impl Manifest {
    /// Byte length of each column implied by the counts: `num_nodes + 1`
    /// offsets, two adjacency records per event, one feature row per event.
    pub fn column_bytes(&self) -> [u64; NUM_COLUMNS] {
        [
            (self.num_nodes + 1) * 8,
            2 * self.num_events * ADJ_RECORD_BYTES as u64,
            self.num_events * 4,
        ]
    }

    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        for v in [self.num_nodes, self.num_events, self.num_pages] {
            push_u64(&mut out, v);
        }
        for col in &self.col_pages {
            push_u64(&mut out, col.len() as u64);
            for &p in col {
                push_u64(&mut out, p);
            }
        }
        let check = fnv1a(&out);
        push_u64(&mut out, check);
        out
    }

    pub fn decode(bytes: &[u8]) -> io::Result<Self> {
        if bytes.len() < MAGIC.len() + 8 || &bytes[..MAGIC.len()] != MAGIC {
            return Err(invalid("bad manifest magic"));
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        if fnv1a(body) != u64::from_le_bytes(tail.try_into().unwrap()) {
            return Err(invalid("manifest checksum mismatch"));
        }
        let mut r = Reader {
            bytes: body,
            off: MAGIC.len(),
        };
        let mut m = Manifest {
            num_nodes: r.u64()?,
            num_events: r.u64()?,
            num_pages: r.u64()?,
            ..Default::default()
        };
        for col in &mut m.col_pages {
            let n = r.u64()?;
            *col = (0..n).map(|_| r.u64()).collect::<io::Result<_>>()?;
        }
        if r.off != body.len() {
            return Err(invalid("manifest has trailing bytes"));
        }
        for (pages, len) in m.col_pages.iter().zip(m.column_bytes()) {
            if pages.len() as u64 != len.div_ceil(PAGE_SIZE as u64)
                || pages.iter().any(|&p| p >= m.num_pages)
            {
                return Err(invalid("manifest page tables disagree with its counts"));
            }
        }
        Ok(m)
    }

    pub fn write_to(&self, path: &Path) -> io::Result<()> {
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

    /// Ten nodes (one offsets page), 300 events (two adjacency pages, one
    /// feature page).
    fn sample() -> Manifest {
        Manifest {
            num_nodes: 10,
            num_events: 300,
            num_pages: 5,
            col_pages: [vec![0], vec![1, 2], vec![4]],
        }
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
    fn page_tables_must_match_counts() {
        let mut m = sample();
        m.col_pages[COL_ADJ].pop();
        let err = Manifest::decode(&m.encode()).expect_err("short adjacency table");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let mut m = sample();
        m.col_pages[COL_FEAT] = vec![5];
        let err = Manifest::decode(&m.encode()).expect_err("page id past num_pages");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn v2_manifest_rejected_as_invalid_data() {
        // A well-formed v2 manifest: old magic, six counts (nodes, events,
        // entries, feature rows, feature cols, pages), a two-entry free
        // list, the five v2 page tables (offsets, adjacency, event feat,
        // events, edge features), a resume blob and a valid checksum.
        // Without the magic bump its leading fields would be read as v3
        // counts and page tables.
        let mut v2 = b"BTMANIF2".to_vec();
        for v in [10u64, 7, 14, 7, 4, 9, 2, 3, 5] {
            push_u64(&mut v2, v);
        }
        let v2_cols: [&[u64]; 5] = [&[0], &[1], &[2], &[4], &[6, 7, 8]];
        for col in v2_cols {
            push_u64(&mut v2, col.len() as u64);
            for &p in col {
                push_u64(&mut v2, p);
            }
        }
        let blob = b"epoch=3";
        push_u64(&mut v2, blob.len() as u64);
        v2.extend_from_slice(blob);
        let check = fnv1a(&v2);
        push_u64(&mut v2, check);
        let err = Manifest::decode(&v2).expect_err("v2 manifest must not decode");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
