//! Fault injection: a damaged store directory or a bad input stream must
//! surface as `InvalidData`, never as a store that opens and serves wrong
//! windows.

use std::io::ErrorKind;
use std::path::{Path, PathBuf};

use benchtemp_store::{StoreEvent, StoreOptions, TemporalStore};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("benchtemp-fault-{}-{}", name, std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn events(n: u32) -> Vec<StoreEvent> {
    (0..n)
        .map(|i| StoreEvent {
            src: i % 10,
            dst: 10 + i % 7,
            t: i as f64,
            feat: i,
        })
        .collect()
}

fn bulk_load(dir: &Path, evs: &[StoreEvent]) -> std::io::Result<TemporalStore> {
    TemporalStore::bulk_load(dir, 17, evs.iter().copied(), &StoreOptions::default())
}

#[test]
fn truncated_page_file_is_rejected_on_open() {
    let dir = tmpdir("truncated");
    drop(bulk_load(&dir, &events(3_000)).unwrap());
    assert!(TemporalStore::open(&dir, &StoreOptions::default()).is_ok());

    let pages = dir.join("store.pages");
    let len = std::fs::metadata(&pages).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&pages)
        .unwrap()
        .set_len(len / 4)
        .unwrap();
    let err = TemporalStore::open(&dir, &StoreOptions::default())
        .err()
        .expect("a quarter of the page file must not open");
    assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn flipped_manifest_byte_is_rejected_on_open() {
    let dir = tmpdir("manifest");
    drop(bulk_load(&dir, &events(300)).unwrap());
    let path = dir.join("manifest.bin");
    let clean = std::fs::read(&path).unwrap();
    for at in [8, clean.len() / 2, clean.len() - 1] {
        let mut bytes = clean.clone();
        bytes[at] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = TemporalStore::open(&dir, &StoreOptions::default())
            .err()
            .unwrap_or_else(|| panic!("flip at byte {at} must not open"));
        assert_eq!(err.kind(), ErrorKind::InvalidData, "byte {at}: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn out_of_order_stream_is_rejected_by_bulk_load() {
    let dir = tmpdir("order");
    let mut evs = events(100);
    evs.swap(40, 41);
    let err = bulk_load(&dir, &evs)
        .err()
        .expect("t[41] < t[40] must be refused");
    assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
    // Ties are in order: equal timestamps keep their stream positions.
    let mut ties = events(100);
    ties[41].t = ties[40].t;
    assert!(bulk_load(&dir, &ties).is_ok());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn endpoint_out_of_range_is_rejected_by_bulk_load() {
    let dir = tmpdir("range");
    let mut evs = events(50);
    evs[7].dst = 17;
    let err = bulk_load(&dir, &evs)
        .err()
        .expect("node 17 of 17 must be refused");
    assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
    std::fs::remove_dir_all(&dir).ok();
}
