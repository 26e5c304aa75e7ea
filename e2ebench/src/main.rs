//! `e2ebench`: end-to-end benchmark of the BenchTemp training pipeline.
//!
//! ```text
//! e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A workload is one fixed link-prediction job (dataset preset, scale,
//! model, epoch count, sampler backend, ranking) run through
//! `benchtemp_core::pipeline::train_link_prediction`. Every job runs in a
//! child process of its own, so peak RSS, timeouts and panics are per job.
//! `--seed` derives a few input seeds, each generating its own dataset; the
//! runner cycles over them for `--seconds` and reports medians over all
//! jobs.
//!
//! * `--trace 0` runs untraced jobs and reports the end-to-end metrics.
//! * `--trace 1` runs untraced/traced pairs, checks that both give the same
//!   bits, and reports per-layer metrics: timings of the calls the
//!   benchmark makes into each layer, the span profile the pipeline
//!   records, and the `BENCHTEMP_TRACE` JSONL stream.
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Temporary files (traces, paged
//! stores, job results) go to `.bench_run/` under the working directory
//! and are removed before exit.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use benchtemp_core::dataloader::LinkPredSplit;
use benchtemp_core::efficiency::{peak_rss_bytes, stage};
use benchtemp_core::pipeline::{train_link_prediction, PagedStoreConfig, TrainConfig};
use benchtemp_core::{EdgeSampler, FilteredNegativeSet, NegativeStrategy};
use benchtemp_e2ebench::stats::{self, Attribution};
use benchtemp_e2ebench::tracefile::{self, TraceSummary};
use benchtemp_graph::datasets::BenchDataset;
use benchtemp_graph::neighbors::NeighborFinder;
use benchtemp_models::common::ModelConfig;
use benchtemp_models::zoo;
use benchtemp_util::{json, Json};

/// One fixed job: everything that decides how much work it does.
struct Workload {
    name: &'static str,
    model: &'static str,
    dataset: BenchDataset,
    scale: f64,
    epochs: usize,
    batch_size: usize,
    /// Filtered-negative candidates per test query (0 = ranking off).
    rank_negatives: usize,
    /// Page-cache budget of the paged store (`None` = resident CSR).
    page_cache_bytes: Option<usize>,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "tgat-wiki",
        model: "TGAT",
        dataset: BenchDataset::Wikipedia,
        scale: 0.01,
        epochs: 2,
        batch_size: 100,
        rank_negatives: 0,
        page_cache_bytes: None,
    },
    Workload {
        name: "temp-taobao-paged",
        model: "TeMP",
        dataset: BenchDataset::TaobaoLarge,
        scale: 0.01,
        epochs: 3,
        batch_size: 200,
        rank_negatives: 0,
        page_cache_bytes: Some(256 * 1024),
    },
    Workload {
        name: "tgn-uci-rank",
        model: "TGN",
        dataset: BenchDataset::Uci,
        scale: 0.1,
        epochs: 2,
        batch_size: 200,
        rank_negatives: 20,
        page_cache_bytes: None,
    },
];

/// Worker-pool size of every job. One worker: on a shared two-core host a
/// two-worker pool stalls whenever another tenant takes either core (in one
/// busy spell, job-time IQR/median 0.67 with two workers against 0.09 with
/// one, same job interleaved).
const POOL_THREADS: usize = 1;
/// Input seeds a run derives from `--seed`; each cycle runs one job on each.
const INPUT_SEEDS: u64 = 4;
/// No new job starts once a run has taken this long.
const RUN_CAP: Duration = Duration::from_secs(150);
/// Every job still running this long after the run started is killed.
const RUN_KILL: Duration = Duration::from_secs(170);
/// A job still running after this long is killed and counted as failed.
const JOB_KILL: Duration = Duration::from_secs(90);
/// The pipeline's own timeout, inside the kill limit.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);
/// Directory for temporary files, under the working directory.
const RUN_DIR: &str = ".bench_run";

#[derive(Clone, Copy)]
struct Unit(&'static str);

/// End-to-end metrics, reported with tracing off.
const END_TO_END: [(&str, Unit); 6] = [
    ("train_events_per_s", Unit("events/s")),
    ("eval_events_per_s", Unit("events/s")),
    ("setup_s", Unit("s")),
    ("job_s", Unit("s")),
    ("peak_rss_mb", Unit("MiB")),
    ("test_ap", Unit("1")),
];

/// Per-layer metrics, reported by the traced run.
const PER_LAYER: [(&str, Unit); 48] = [
    ("graph.generate_s", Unit("s")),
    ("graph.csr_build_s", Unit("s")),
    ("graph.frontier_nodes_expanded", Unit("count")),
    ("store.bulk_load_s", Unit("s")),
    ("store.page_hits", Unit("count")),
    ("store.page_misses", Unit("count")),
    ("store.page_evictions", Unit("count")),
    ("store.hit_ratio", Unit("1")),
    ("store.cache_resident_bytes", Unit("bytes")),
    ("core.split_s", Unit("s")),
    ("core.pipeline.setup_s", Unit("s")),
    ("core.rank_negs_build_s", Unit("s")),
    ("core.sampler.sample_batch_s", Unit("s")),
    ("core.sampler.negatives", Unit("count")),
    ("core.pipeline.train_self_s", Unit("s")),
    ("core.pipeline.eval_self_s", Unit("s")),
    ("core.final_metrics_s", Unit("s")),
    ("models.build_s", Unit("s")),
    ("models.dense_self_s", Unit("s")),
    ("models.sampling_s", Unit("s")),
    ("models.train_batch_ms_p50", Unit("ms")),
    ("models.train_batch_ms_p90", Unit("ms")),
    ("models.train_batches", Unit("count")),
    ("models.eval_batch_ms_p50", Unit("ms")),
    ("models.eval_batch_ms_p90", Unit("ms")),
    ("models.eval_batches", Unit("count")),
    ("models.state_bytes", Unit("bytes")),
    ("tensor.attention_s", Unit("s")),
    ("tensor.gather_s", Unit("s")),
    ("tensor.matmul_flops", Unit("count")),
    ("tensor.matmul_gflops_per_s", Unit("GFLOP/s")),
    ("tensor.tape_nodes", Unit("count")),
    ("tensor.tape_pool_hit_ratio", Unit("1")),
    ("tensor.pool_resident_bytes", Unit("bytes")),
    ("tensor.pool_tasks", Unit("count")),
    ("tensor.optimizer_steps", Unit("count")),
    ("tensor.time_encode_memo_hits", Unit("count")),
    ("tensor.gather_coalesced_runs", Unit("count")),
    ("layer.graph_self_s", Unit("s")),
    ("layer.store_self_s", Unit("s")),
    ("layer.core_self_s", Unit("s")),
    ("layer.models_self_s", Unit("s")),
    ("layer.tensor_self_s", Unit("s")),
    ("unattributed_s", Unit("s")),
    ("traced_wall_s", Unit("s")),
    ("obs.worker_span_s", Unit("s")),
    ("obs.trace_overhead", Unit("1")),
    ("test_mrr", Unit("1")),
];

/// The input seeds of one run: `INPUT_SEEDS` consecutive seeds, disjoint
/// between runs with different `--seed`. Medians over jobs on several
/// generated datasets keep one dataset's quirks out of the figures.
fn input_seeds(seed: u64) -> Vec<u64> {
    (0..INPUT_SEEDS)
        .map(|i| seed.wrapping_mul(INPUT_SEEDS).wrapping_add(i))
        .collect()
}

fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn secs<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

fn bits_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

// ---------------------------------------------------------------- job ----

/// Run one job in this process and return its raw measurements. With
/// `probes` set, the layer probes run after the job (outside its timing).
fn run_job(w: &Workload, seed: u64, store_dir: &Path, probes: bool) -> Json {
    let job_start = Instant::now();
    let (graph, generate_s) = secs(|| w.dataset.config(w.scale, seed).generate());
    let (split, split_s) = secs(|| LinkPredSplit::new(&graph, seed));
    let model_cfg = ModelConfig {
        seed,
        ..Default::default()
    };
    let (mut model, build_s) = secs(|| zoo::build(w.model, model_cfg, &graph));
    let cfg = TrainConfig {
        batch_size: w.batch_size,
        max_epochs: w.epochs,
        // Patience at the epoch cap: early stopping never cuts the work.
        patience: w.epochs,
        timeout: JOB_TIMEOUT,
        seed,
        neg_strategy: NegativeStrategy::Random,
        rank_negatives: w.rank_negatives,
        paged_store: w.page_cache_bytes.map(|b| PagedStoreConfig {
            dir: Some(store_dir.to_path_buf()),
            cache_budget_bytes: Some(b),
        }),
        ..TrainConfig::default()
    };
    let before_pipeline_s = job_start.elapsed().as_secs_f64();
    let run = train_link_prediction(model.as_mut(), &graph, &split, &cfg);
    let job_s = job_start.elapsed().as_secs_f64();
    let rss = peak_rss_bytes().unwrap_or(0);
    benchtemp_obs::trace::flush();

    let eff = &run.efficiency;
    let p = &eff.profile;
    let epochs = run.epoch_losses.len();
    let scored_epochs = run.val_aps.len();
    let train_s = p.total_secs(stage::TRAIN_EPOCH);
    let eval_s = p.total_secs(stage::VAL_SCORING) + p.total_secs(stage::TEST_SCORING);
    let mrr = run.transductive.ranking.map(|r| r.mrr);

    let mut failures: Vec<String> = Vec::new();
    if eff.timed_out {
        failures.push("job timed out".into());
    }
    if epochs != w.epochs || scored_epochs != w.epochs {
        failures.push(format!(
            "ran {epochs} epochs and scored {scored_epochs}, expected {}",
            w.epochs
        ));
    }
    if let Some(l) = run.epoch_losses.iter().find(|l| !l.is_finite()) {
        failures.push(format!("non-finite epoch loss {l}"));
    }
    if run.transductive.ap.is_nan() || run.transductive.ap <= 0.5 {
        failures.push(format!(
            "test AP {} does not beat chance",
            run.transductive.ap
        ));
    }
    if w.rank_negatives > 0 {
        match mrr {
            Some(m) if m > 0.0 && m <= 1.0 => {}
            other => failures.push(format!("MRR {other:?} outside (0, 1]")),
        }
    }

    // Every bit the job produced that tracing must not change.
    let mut digest: Vec<String> = run
        .epoch_losses
        .iter()
        .map(|l| format!("{:08x}", l.to_bits()))
        .collect();
    digest.extend(run.val_aps.iter().map(|&v| bits_hex(v)));
    for m in [
        &run.transductive,
        &run.inductive,
        &run.new_old,
        &run.new_new,
    ] {
        digest.push(bits_hex(m.auc));
        digest.push(bits_hex(m.ap));
        if let Some(r) = &m.ranking {
            digest.push(bits_hex(r.mrr));
        }
    }

    let counters = Json::obj(
        p.counters
            .iter()
            .map(|(n, v)| (*n, Json::Num(*v as f64)))
            .chain(p.gauges.iter().map(|(n, v)| (*n, Json::Num(*v as f64))))
            .collect(),
    );

    let probe = if probes {
        run_probes(w, seed, &graph, &split)
    } else {
        Json::Null
    };

    json!({
        "failures": failures,
        "digest": digest.join(""),
        "job_s": job_s,
        "setup_s": before_pipeline_s + p.total_secs(stage::SETUP),
        "generate_s": generate_s,
        "split_s": split_s,
        "build_s": build_s,
        "train_events_per_s": (split.train.len() * epochs) as f64 / train_s,
        "eval_events_per_s": ((split.val.len() + split.test.len()) * scored_epochs) as f64 / eval_s,
        "peak_rss_mb": rss as f64 / (1u64 << 20) as f64,
        "test_ap": run.transductive.ap,
        "test_mrr": mrr.unwrap_or(0.0),
        "state_bytes": eff.model_state_bytes,
        "pool_resident_bytes": eff.tape_pool_resident_bytes,
        "counters": counters,
        "probe": probe,
    })
}

/// Time the layer entry points the pipeline calls during set-up and each
/// epoch, from outside, on the job's own inputs.
fn run_probes(
    w: &Workload,
    seed: u64,
    graph: &benchtemp_graph::TemporalGraph,
    split: &LinkPredSplit,
) -> Json {
    // The resident backend builds one CSR over the training events and one
    // over the full stream; the paged backend builds none.
    let csr_build_s = if w.page_cache_bytes.is_none() {
        secs(|| {
            black_box(NeighborFinder::from_events(graph.num_nodes, &split.train));
            black_box(NeighborFinder::from_events(graph.num_nodes, &graph.events));
        })
        .1
    } else {
        0.0
    };

    // Negatives drawn per epoch for the train, val and test streams, as
    // the pipeline draws them.
    let strategy = NegativeStrategy::Random;
    let mut sampler = EdgeSampler::new(graph, &split.train, strategy, seed);
    let mut negatives = 0usize;
    let (_, sample_batch_s) = secs(|| {
        for _ in 0..w.epochs {
            for events in [&split.train, &split.val, &split.test] {
                sampler.reset();
                for batch in events.chunks(w.batch_size) {
                    negatives += black_box(sampler.sample_batch(batch)).len();
                }
            }
        }
    });

    let rank_negs_build_s = if w.rank_negatives > 0 {
        secs(|| {
            black_box(FilteredNegativeSet::build(
                graph,
                &split.train,
                &split.test,
                strategy,
                w.rank_negatives,
                seed,
            ));
        })
        .1
    } else {
        0.0
    };

    json!({
        "csr_build_s": csr_build_s,
        "sample_batch_s": sample_batch_s,
        "negatives": negatives,
        "rank_negs_build_s": rank_negs_build_s,
    })
}

// -------------------------------------------------------------- runner ----

/// What the runner learned from one child job.
struct Outcome {
    /// Parsed job result when the child finished and passed its checks.
    data: Option<Json>,
    /// Trace summary of a traced job.
    trace: Option<TraceSummary>,
}

impl Outcome {
    fn num(&self, key: &str) -> f64 {
        self.data
            .as_ref()
            .and_then(|d| d.get(key))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    }

    fn nested(&self, obj: &str, key: &str) -> f64 {
        self.data
            .as_ref()
            .and_then(|d| d.get(obj))
            .and_then(|o| o.get(key))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    }

    fn digest(&self) -> Option<&str> {
        self.data.as_ref()?.get("digest")?.as_str()
    }
}

struct Runner {
    exe: PathBuf,
    dir: PathBuf,
    workload: &'static Workload,
    jobs: usize,
    /// Start of the run; no job outlives it by more than [`RUN_KILL`].
    start: Instant,
}

impl Runner {
    /// Run one job in a child process, kill it past [`JOB_KILL`] (or
    /// [`RUN_KILL`] into the run), and read its result. Any failure is reported on stderr and yields no data.
    fn job(&mut self, seed: u64, traced: bool) -> Outcome {
        self.jobs += 1;
        let tag = format!("job{}", self.jobs);
        let out_path = self.dir.join(format!("{tag}.json"));
        let trace_path = self.dir.join(format!("{tag}.trace.jsonl"));
        let store_dir = self.dir.join(format!("{tag}.store"));
        let mut cmd = Command::new(&self.exe);
        cmd.arg("--job")
            .arg(self.workload.name)
            .arg("--seed")
            .arg(seed.to_string())
            .arg("--out")
            .arg(&out_path)
            .arg("--store-dir")
            .arg(&store_dir)
            .arg("--probes")
            .arg(if traced { "1" } else { "0" })
            .env("BENCHTEMP_THREADS", POOL_THREADS.to_string())
            .env("BENCHTEMP_STORE_DIR", &self.dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null());
        if traced {
            cmd.env("BENCHTEMP_TRACE", &trace_path);
        } else {
            cmd.env_remove("BENCHTEMP_TRACE");
        }
        let fail = |why: String| {
            eprintln!("e2ebench: {tag} failed: {why}");
            Outcome {
                data: None,
                trace: None,
            }
        };
        let mut child = match cmd.spawn() {
            Ok(c) => c,
            Err(e) => return fail(format!("cannot start: {e}")),
        };
        let kill_at = (Instant::now() + JOB_KILL).min(self.start + RUN_KILL);
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if Instant::now() > kill_at => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return fail("killed: ran past its time limit".into());
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return fail(format!("wait failed: {e}"));
                }
            }
        };
        let _ = std::fs::remove_dir_all(&store_dir);
        if !status.success() {
            return fail(format!("exited with {status}"));
        }
        let text = std::fs::read_to_string(&out_path).unwrap_or_default();
        let _ = std::fs::remove_file(&out_path);
        let data = match benchtemp_util::json::parse(&text) {
            Ok(d) => d,
            Err(e) => return fail(format!("unreadable result: {e}")),
        };
        let failures: Vec<String> = data
            .get("failures")
            .and_then(Json::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(|f| f.as_str().map(str::to_string))
            .collect();
        if !failures.is_empty() {
            return fail(failures.join("; "));
        }
        let trace = traced.then(|| {
            let text = std::fs::read_to_string(&trace_path).unwrap_or_default();
            let _ = std::fs::remove_file(&trace_path);
            tracefile::summarize(&text)
        });
        Outcome {
            data: Some(data),
            trace,
        }
    }
}

/// Per-layer metrics of one traced job, with its attribution check.
fn layer_metrics(
    w: &Workload,
    traced: &Outcome,
    untraced_job_s: f64,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let t = traced.trace.as_ref().ok_or("no trace")?;
    if t.main_tid.is_none() {
        return Err("trace holds no pipeline spans".into());
    }
    if t.unpaired > 0 {
        return Err(format!("trace has {} unpaired span events", t.unpaired));
    }
    let c = |name: &str| traced.nested("counters", name);
    let probe = |name: &str| traced.nested("probe", name);

    // Only the paged workload may touch the store, and its cache budget
    // must be small enough to evict yet never exceeded.
    let cache_bytes = c("store.cache_resident_bytes");
    let evictions = c("store.page_evictions");
    match w.page_cache_bytes {
        Some(_) if evictions == 0.0 => return Err("the page cache never evicted".into()),
        Some(budget) if cache_bytes > budget as f64 => {
            return Err(format!(
                "page cache held {cache_bytes} bytes, budget {budget}"
            ));
        }
        None if c("store.page_hits") + c("store.page_misses") + evictions + cache_bytes > 0.0 => {
            return Err("a resident workload touched the paged store".into());
        }
        _ => {}
    }
    let wall = traced.num("job_s");

    // Partition of the traced job's wall time: the benchmark's own timed
    // calls before the pipeline, plus the self time of every span the
    // pipeline thread closed.
    let mut attr = Attribution::new(wall);
    attr.add("graph", traced.num("generate_s"));
    attr.add("core", traced.num("split_s"));
    attr.add("models", traced.num("build_s"));
    for (span, &s) in &t.self_s {
        attr.add(stats::layer_of(span), s);
    }
    attr.check()?;
    let layer = |name: &str| attr.layers.get(name).copied().unwrap_or(0.0);

    let train_ms = t.dense_ms("train");
    let eval_ms = t.dense_ms("eval");
    let dense_self = t.self_secs(stage::DENSE);
    let mut m = BTreeMap::new();
    m.insert("graph.generate_s", traced.num("generate_s"));
    m.insert("graph.csr_build_s", probe("csr_build_s"));
    m.insert(
        "graph.frontier_nodes_expanded",
        c("frontier_nodes_expanded"),
    );
    m.insert("store.bulk_load_s", t.total_secs("store.bulk_load"));
    m.insert("store.page_hits", c("store.page_hits"));
    m.insert("store.page_misses", c("store.page_misses"));
    m.insert("store.page_evictions", c("store.page_evictions"));
    m.insert(
        "store.hit_ratio",
        stats::hit_ratio(c("store.page_hits") as u64, c("store.page_misses") as u64),
    );
    m.insert(
        "store.cache_resident_bytes",
        c("store.cache_resident_bytes"),
    );
    m.insert("core.split_s", traced.num("split_s"));
    m.insert("core.pipeline.setup_s", t.total_secs(stage::SETUP));
    m.insert("core.rank_negs_build_s", probe("rank_negs_build_s"));
    m.insert("core.sampler.sample_batch_s", probe("sample_batch_s"));
    m.insert("core.sampler.negatives", c("negatives_sampled"));
    m.insert(
        "core.pipeline.train_self_s",
        t.self_secs(stage::TRAIN_EPOCH),
    );
    m.insert(
        "core.pipeline.eval_self_s",
        t.self_secs(stage::VAL_SCORING) + t.self_secs(stage::TEST_SCORING),
    );
    m.insert("core.final_metrics_s", t.total_secs(stage::FINAL_METRICS));
    m.insert("models.build_s", traced.num("build_s"));
    m.insert("models.dense_self_s", dense_self);
    m.insert("models.sampling_s", t.total_secs(stage::SAMPLING));
    m.insert(
        "models.train_batch_ms_p50",
        stats::percentile(train_ms, 50.0),
    );
    m.insert(
        "models.train_batch_ms_p90",
        stats::percentile(train_ms, 90.0),
    );
    m.insert("models.train_batches", train_ms.len() as f64);
    m.insert("models.eval_batch_ms_p50", stats::percentile(eval_ms, 50.0));
    m.insert("models.eval_batch_ms_p90", stats::percentile(eval_ms, 90.0));
    m.insert("models.eval_batches", eval_ms.len() as f64);
    m.insert("models.state_bytes", traced.num("state_bytes"));
    m.insert("tensor.attention_s", t.total_secs("attention"));
    m.insert("tensor.gather_s", t.total_secs("gather"));
    m.insert("tensor.matmul_flops", c("matmul_flops"));
    m.insert(
        "tensor.matmul_gflops_per_s",
        if dense_self > 0.0 {
            c("matmul_flops") / dense_self * 1e-9
        } else {
            0.0
        },
    );
    m.insert("tensor.tape_nodes", c("tape_nodes_allocated"));
    m.insert(
        "tensor.tape_pool_hit_ratio",
        stats::hit_ratio(c("tape_pool_hits") as u64, c("tape_pool_misses") as u64),
    );
    m.insert(
        "tensor.pool_resident_bytes",
        traced.num("pool_resident_bytes"),
    );
    m.insert("tensor.pool_tasks", c("pool_tasks_dispatched"));
    m.insert("tensor.optimizer_steps", c("optimizer_steps"));
    m.insert("tensor.time_encode_memo_hits", c("time_encode_memo_hits"));
    m.insert(
        "tensor.gather_coalesced_runs",
        c("tape.gather_coalesced_runs"),
    );
    m.insert("layer.graph_self_s", layer("graph"));
    m.insert("layer.store_self_s", layer("store"));
    m.insert("layer.core_self_s", layer("core"));
    m.insert("layer.models_self_s", layer("models"));
    m.insert("layer.tensor_self_s", layer("tensor"));
    m.insert("unattributed_s", attr.unattributed_s() + layer("other"));
    m.insert("traced_wall_s", wall);
    m.insert("obs.worker_span_s", t.worker_self_s);
    m.insert("obs.trace_overhead", wall / untraced_job_s);
    m.insert("test_mrr", traced.num("test_mrr"));
    Ok(m)
}

/// `git` revision and dirty flag of the working directory, when it is a
/// git checkout (never searched for above it).
fn git_state() -> (String, String) {
    if !Path::new(".git").exists() {
        return ("unknown".into(), "unknown".into());
    }
    let run = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .stdin(Stdio::null())
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let rev = run(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let dirty = match run(&["status", "--porcelain", "--untracked-files=no"]) {
        Some(s) => (!s.is_empty()).to_string(),
        None => "unknown".into(),
    };
    (rev, dirty)
}

/// Print one metric row: median, quartiles, tail percentile when there
/// are enough samples, and the sample count.
fn print_row(name: &str, unit: Unit, values: &[f64]) {
    let [q1, q2, q3] = stats::quartiles(values);
    let tail = stats::tail_percentile(values.len())
        .filter(|&p| p > 50.0)
        .map(|p| format!("  p{p}={:.6}", stats::percentile(values, p)))
        .unwrap_or_default();
    println!(
        "  {name:<32} {q2:>14.6} {:<9} q1={q1:.6} q3={q3:.6}{tail}  n={}",
        unit.0,
        values.len()
    );
}

fn drive(w: &'static Workload, seed: u64, seconds: u64, trace: bool) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("e2ebench: cannot locate own binary: {e}");
            return ExitCode::from(2);
        }
    };
    let dir = PathBuf::from(RUN_DIR).join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("e2ebench: cannot create {}: {e}", dir.display());
        return ExitCode::from(2);
    }
    let mut d = Runner {
        exe,
        dir: dir.clone(),
        workload: w,
        jobs: 0,
        start: Instant::now(),
    };

    let (rev, dirty) = git_state();
    let env: Vec<(String, Json)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("BENCHTEMP_") && k != "BENCHTEMP_THREADS")
        .map(|(k, v)| (k, Json::Str(v)))
        .chain([(
            "BENCHTEMP_THREADS".to_string(),
            Json::Num(POOL_THREADS as f64),
        )])
        .collect();
    let meta = json!({
        "workload": w.name,
        "model": w.model,
        "dataset": w.dataset.name(),
        "scale": w.scale,
        "epochs": w.epochs,
        "rank_negatives": w.rank_negatives,
        "page_cache_bytes": w.page_cache_bytes,
        "seed": seed,
        "input_seeds": input_seeds(seed),
        "seconds": seconds,
        "trace": trace,
        "git_rev": rev,
        "git_dirty": dirty,
        "host_cores": std::thread::available_parallelism().map_or(1, |n| n.get()),
        "pool_threads": POOL_THREADS,
        "env": Json::Obj(env),
    });
    println!("e2ebench meta {meta}");

    let start = d.start;
    let budget = Duration::from_secs(seconds);
    let mut failed = 0usize;
    let mut attempted = 0usize;
    // First result digest per input seed: every later job on the same
    // inputs, traced or not, must reproduce it bit for bit.
    let mut digests: BTreeMap<u64, String> = BTreeMap::new();
    let mut same_bits = |o: &Outcome, job_seed: u64| {
        let Some(got) = o.digest() else { return false };
        let want = digests.entry(job_seed).or_insert_with(|| got.to_string());
        if want != got {
            eprintln!("e2ebench: seed {job_seed}: result bits differ between jobs");
        }
        want == got
    };
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut cycles = 0usize;
    loop {
        let cycle_start = Instant::now();
        for (i, job_seed) in input_seeds(seed).into_iter().enumerate() {
            if start.elapsed() > RUN_CAP {
                break;
            }
            if trace {
                // Alternate which side of the pair runs first so drift in
                // the host load does not land on one side only.
                let (plain, traced) = if (cycles + i) % 2 == 1 {
                    let t = d.job(job_seed, true);
                    (d.job(job_seed, false), t)
                } else {
                    let p = d.job(job_seed, false);
                    (p, d.job(job_seed, true))
                };
                attempted += 2;
                let ok_plain = same_bits(&plain, job_seed);
                let ok_traced = same_bits(&traced, job_seed);
                failed += usize::from(!ok_plain) + usize::from(!ok_traced);
                if ok_plain && ok_traced {
                    match layer_metrics(w, &traced, plain.num("job_s")) {
                        Ok(m) => {
                            for (k, v) in m {
                                samples.entry(k).or_default().push(v);
                            }
                        }
                        Err(e) => {
                            eprintln!("e2ebench: attribution check failed: {e}");
                            failed += 1;
                        }
                    }
                }
            } else {
                let o = d.job(job_seed, false);
                attempted += 1;
                if same_bits(&o, job_seed) {
                    for (name, _) in END_TO_END {
                        samples.entry(name).or_default().push(o.num(name));
                    }
                } else {
                    failed += 1;
                }
            }
        }
        cycles += 1;
        // Whole cycles only, so every input seed weighs the same in the
        // medians; stop before a cycle that would overrun the budget.
        let next_end = start.elapsed() + cycle_start.elapsed();
        if next_end > budget || next_end > RUN_CAP {
            break;
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(RUN_DIR);

    let table: &[(&str, Unit)] = if trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "e2ebench {} seed={seed} trace={} attempted={attempted} failed={failed} ({:.1} s)",
        w.name,
        u8::from(trace),
        start.elapsed().as_secs_f64()
    );
    let mut medians: BTreeMap<&str, f64> = BTreeMap::new();
    for &(name, unit) in table {
        let values = samples.get(name).map_or(&[][..], Vec::as_slice);
        print_row(name, unit, values);
        medians.insert(name, stats::median(values));
    }
    if trace {
        let mut layers = Attribution::new(medians["traced_wall_s"]);
        for l in ["graph", "store", "core", "models", "tensor"] {
            layers.add(l, medians[format!("layer.{l}_self_s").as_str()]);
        }
        if let Some((name, s)) = layers.costliest() {
            println!(
                "  costliest layer: {name} {s:.3} s of {:.3} s traced wall (medians)",
                layers.wall_s
            );
        }
    }
    let metrics = table
        .iter()
        .map(|&(name, unit)| (name, json!({"value": medians[name], "unit": unit.0})))
        .collect();
    let correct = failed == 0 && !samples.is_empty();
    let result = json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": Json::obj(metrics),
    });
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------- main ----

fn usage() -> ExitCode {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!(
        "usage: e2ebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    for pair in args.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                flags.insert(&k[2..], v);
            }
            _ => return usage(),
        }
    }
    let num = |k: &str, default: u64| -> Option<u64> {
        flags.get(k).map_or(Some(default), |v| v.parse().ok())
    };

    if let Some(name) = flags.get("job") {
        // Child mode: one job, result written to --out.
        let (Some(w), Some(seed), Some(out), Some(store)) = (
            workload(name),
            num("seed", 0),
            flags.get("out"),
            flags.get("store-dir"),
        ) else {
            return usage();
        };
        let probes = flags.get("probes") == Some(&"1");
        let result = run_job(w, seed, Path::new(store), probes);
        return match std::fs::write(out, result.to_string()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("e2ebench: cannot write {out}: {e}");
                ExitCode::from(2)
            }
        };
    }

    let (Some(w), Some(seed), Some(seconds), Some(trace)) = (
        flags.get("workload").and_then(|n| workload(n)),
        num("seed", 0),
        num("seconds", 10),
        num("trace", 0),
    ) else {
        return usage();
    };
    if trace > 1 || seconds == 0 {
        return usage();
    }
    drive(w, seed, seconds, trace == 1)
}
