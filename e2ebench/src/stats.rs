//! Summary statistics and attribution arithmetic for benchmark runs.

use std::collections::BTreeMap;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); 0.0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First, second and third quartile by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, which is how run-to-run spread of
/// the benchmark is judged. A single value is its own quartiles; empty
/// input gives zeros.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let ld = v.len();
    if ld == 0 {
        return [0.0; 3];
    }
    if ld == 1 {
        return [v[0]; 3];
    }
    let n = 4usize;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *q = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    out
}

/// Percentile by linear interpolation between closest ranks
/// (`rank = p/100 · (n − 1)`); 0.0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Percentiles a timing may be reported at, lowest first.
pub const TAIL_LADDER: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// The highest percentile of [`TAIL_LADDER`] with at least ten of `n`
/// samples beyond it, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// `hits / (hits + misses)`, or 0.0 when nothing was looked up.
pub fn hit_ratio(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// Slack allowed when checking that layer self times fit in the wall time:
/// the trace stores whole microseconds and the benchmark's own clock reads
/// add a little, so the sum may overshoot by this much without a layer
/// being counted twice.
pub const ATTRIBUTION_SLACK_S: f64 = 2e-3;

/// Wall time of one traced job split across named layers.
#[derive(Clone, Debug, PartialEq)]
pub struct Attribution {
    /// Self seconds per layer, summed over every span or call of the layer.
    pub layers: BTreeMap<String, f64>,
    pub wall_s: f64,
}

impl Attribution {
    pub fn new(wall_s: f64) -> Self {
        Attribution {
            layers: BTreeMap::new(),
            wall_s,
        }
    }

    /// Add `secs` of self time to `layer`.
    pub fn add(&mut self, layer: &str, secs: f64) {
        *self.layers.entry(layer.to_string()).or_insert(0.0) += secs;
    }

    /// Sum of all layer self times.
    pub fn attributed_s(&self) -> f64 {
        self.layers.values().sum()
    }

    /// Wall time no layer accounts for: the job's own self time, wall time
    /// minus its children's. Negative only if a layer was counted twice,
    /// which [`Attribution::check`] rejects.
    pub fn unattributed_s(&self) -> f64 {
        self.wall_s - self.attributed_s()
    }

    /// `Err` when the layers sum to more than the wall time.
    pub fn check(&self) -> Result<(), String> {
        let sum = self.attributed_s();
        if sum > self.wall_s + ATTRIBUTION_SLACK_S {
            Err(format!(
                "layer self times sum to {sum:.6} s, above the {:.6} s wall time",
                self.wall_s
            ))
        } else {
            Ok(())
        }
    }

    /// The layer with the most self time, with its seconds.
    pub fn costliest(&self) -> Option<(&str, f64)> {
        self.layers
            .iter()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(k, v)| (k.as_str(), *v))
    }
}

/// The layer a program span belongs to, by the crate that opens it.
pub fn layer_of(span: &str) -> &'static str {
    match span {
        "setup" | "train_epoch" | "val_scoring" | "test_scoring" | "final_metrics"
        | "embed_collection" => "core",
        "dense" | "sampling" => "models",
        "attention" | "gather" => "tensor",
        s if s.starts_with("store.") => "store",
        _ => "other",
    }
}
