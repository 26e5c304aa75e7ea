//! Support code of the end-to-end benchmark (`e2ebench`): run statistics,
//! per-layer attribution arithmetic, and the reader for the program's
//! `BENCHTEMP_TRACE` JSONL stream. The runner lives in `main.rs`; this
//! library holds the parts with unit tests in `tests/`.

pub mod stats;
pub mod tracefile;
