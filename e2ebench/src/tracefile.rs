//! Reader for the `BENCHTEMP_TRACE` JSONL stream written by
//! `benchtemp-obs` (one `open`/`close` event per span, paired by `sid`,
//! plus `counters` snapshots).
//!
//! The summary keeps the thread that ran the pipeline apart from pool
//! workers: spans on the pipeline thread nest strictly, so their self times
//! partition that thread's time, while worker spans overlap it and are only
//! totalled.

use std::collections::BTreeMap;

/// One span event of the trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event<'a> {
    pub open: bool,
    pub span: &'a str,
    pub tid: u64,
    pub sid: u64,
    pub dur_us: u64,
    pub self_us: u64,
}

fn raw_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

fn u64_field(line: &str, key: &str) -> Option<u64> {
    raw_field(line, key)?.parse().ok()
}

fn str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    raw_field(line, key)?.strip_prefix('"')?.strip_suffix('"')
}

/// Parse one span event; `None` for counter snapshots and malformed lines.
pub fn parse_line(line: &str) -> Option<Event<'_>> {
    let open = match str_field(line, "ev")? {
        "open" => true,
        "close" => false,
        _ => return None,
    };
    Some(Event {
        open,
        span: str_field(line, "span")?,
        tid: u64_field(line, "tid")?,
        sid: u64_field(line, "sid")?,
        dur_us: if open { 0 } else { u64_field(line, "dur_us")? },
        self_us: if open { 0 } else { u64_field(line, "self_us")? },
    })
}

/// The protocol stage a `dense` call ran under.
fn stage_of(span: &str) -> Option<&'static str> {
    match span {
        "train_epoch" => Some("train"),
        "val_scoring" | "test_scoring" => Some("eval"),
        _ => None,
    }
}

/// Span totals of one traced job.
#[derive(Clone, Debug, Default)]
pub struct TraceSummary {
    /// Thread that opened the pipeline's `setup` span.
    pub main_tid: Option<u64>,
    /// Self seconds per span name on the pipeline thread.
    pub self_s: BTreeMap<String, f64>,
    /// Inclusive seconds per span name on the pipeline thread.
    pub total_s: BTreeMap<String, f64>,
    /// Self seconds of spans closed on other threads (overlapping the
    /// pipeline thread, so outside any partition of its wall time).
    pub worker_self_s: f64,
    /// Durations in milliseconds of every `dense` call, keyed by the stage
    /// it ran under (`train`, `eval`, or `other`).
    pub dense_ms: BTreeMap<String, Vec<f64>>,
    /// Spans opened but never closed, and closes with no matching open.
    pub unpaired: usize,
}

impl TraceSummary {
    pub fn self_secs(&self, span: &str) -> f64 {
        self.self_s.get(span).copied().unwrap_or(0.0)
    }

    pub fn total_secs(&self, span: &str) -> f64 {
        self.total_s.get(span).copied().unwrap_or(0.0)
    }

    pub fn dense_ms(&self, stage: &str) -> &[f64] {
        self.dense_ms.get(stage).map_or(&[], Vec::as_slice)
    }
}

/// Summarize a whole trace file.
pub fn summarize(text: &str) -> TraceSummary {
    let mut out = TraceSummary::default();
    let mut stacks: BTreeMap<u64, Vec<(u64, String)>> = BTreeMap::new();
    for ev in text.lines().filter_map(parse_line) {
        if ev.open {
            if ev.span == "setup" && out.main_tid.is_none() {
                out.main_tid = Some(ev.tid);
            }
            stacks
                .entry(ev.tid)
                .or_default()
                .push((ev.sid, ev.span.to_string()));
            continue;
        }
        let stack = stacks.entry(ev.tid).or_default();
        match stack.iter().rposition(|(sid, _)| *sid == ev.sid) {
            Some(pos) => {
                out.unpaired += stack.len() - pos - 1;
                stack.truncate(pos);
            }
            None => out.unpaired += 1,
        }
        let secs = |us: u64| us as f64 * 1e-6;
        if Some(ev.tid) == out.main_tid {
            *out.self_s.entry(ev.span.to_string()).or_insert(0.0) += secs(ev.self_us);
            *out.total_s.entry(ev.span.to_string()).or_insert(0.0) += secs(ev.dur_us);
        } else {
            out.worker_self_s += secs(ev.self_us);
        }
        if ev.span == "dense" {
            let stage = stack
                .iter()
                .rev()
                .find_map(|(_, s)| stage_of(s))
                .unwrap_or("other");
            out.dense_ms
                .entry(stage.to_string())
                .or_default()
                .push(ev.dur_us as f64 * 1e-3);
        }
    }
    out.unpaired += stacks.values().map(Vec::len).sum::<usize>();
    out
}
