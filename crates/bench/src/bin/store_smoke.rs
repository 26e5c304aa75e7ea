//! CI smoke check for the paged temporal store (DESIGN.md §16).
//!
//! Bulk-loads generated benchmark presets whose resident footprint is far
//! above the configured page-cache budget, trains real link-prediction
//! jobs through the paged backend — TGN on Wikipedia, and TeMP on
//! Taobao-Large (the end-to-end benchmark's paged workload) — and fails
//! unless
//!
//! * every epoch loss and every eval metric is bit-identical to the same
//!   job trained on the fully resident CSR backend (same seed, same RNG
//!   streams),
//! * the page cache actually evicted during training (the budget bound
//!   was exercised, not merely configured),
//! * the cache's resident bytes never exceeded the budget, and
//! * peak RSS was recorded for the paged run (graceful `None` is only
//!   acceptable off Linux).
//!
//! Prints `STORE_SMOKE_OK` on success so `ci.sh` can grep for it.

use benchtemp_core::dataloader::LinkPredSplit;
use benchtemp_core::pipeline::{
    train_link_prediction, LinkPredictionRun, PagedStoreConfig, TrainConfig,
};
use benchtemp_graph::datasets::{resident_bytes_report, BenchDataset};
use benchtemp_models::common::ModelConfig;
use benchtemp_models::zoo;
use benchtemp_obs::counters::{STORE_CACHE_RESIDENT_BYTES, STORE_PAGE_EVICTIONS};

const CACHE_BUDGET: usize = 256 * 1024;

/// Train `model` on `ds` at `scale` once resident and once through the
/// paged store at [`CACHE_BUDGET`], assert the two runs are bit-identical
/// and that the cache evicted, and return the paged run with its
/// eviction count.
fn paged_matches_resident(model: &str, ds: BenchDataset, scale: f64) -> (LinkPredictionRun, u64) {
    let graph = ds.config(scale, 7).generate();
    println!(
        "store_smoke: {model} on {} at {scale} scale, {} events, estimated resident \
         {:.2} MiB, cache budget {:.0} KiB",
        ds.name(),
        graph.num_events(),
        ds.resident_bytes_estimate(scale) as f64 / (1 << 20) as f64,
        CACHE_BUDGET as f64 / 1024.0
    );
    let split = LinkPredSplit::new(&graph, 11);
    let model_cfg = ModelConfig {
        embed_dim: 16,
        time_dim: 8,
        neighbors: 5,
        layers: 1,
        seed: 11,
        ..Default::default()
    };
    let cfg = TrainConfig {
        max_epochs: 2,
        seed: 11,
        ..TrainConfig::default()
    };

    let mut resident_model = zoo::build(model, model_cfg.clone(), &graph);
    let resident = train_link_prediction(resident_model.as_mut(), &graph, &split, &cfg);

    let paged_cfg = TrainConfig {
        paged_store: Some(PagedStoreConfig {
            dir: None,
            cache_budget_bytes: Some(CACHE_BUDGET),
        }),
        ..cfg
    };
    let ev0 = STORE_PAGE_EVICTIONS.get();
    let mut paged_model = zoo::build(model, model_cfg, &graph);
    let paged = train_link_prediction(paged_model.as_mut(), &graph, &split, &paged_cfg);
    let evictions = STORE_PAGE_EVICTIONS.get() - ev0;

    let loss_bits = |r: &LinkPredictionRun| -> Vec<u32> {
        r.epoch_losses.iter().map(|l| l.to_bits()).collect()
    };
    assert!(
        !resident.epoch_losses.is_empty(),
        "{model}: no epoch trained"
    );
    assert_eq!(
        loss_bits(&resident),
        loss_bits(&paged),
        "{model}: paged epoch losses must be bit-identical to resident"
    );
    for (name, r, p) in [
        ("transductive", &resident.transductive, &paged.transductive),
        ("inductive", &resident.inductive, &paged.inductive),
        ("new_old", &resident.new_old, &paged.new_old),
        ("new_new", &resident.new_new, &paged.new_new),
    ] {
        assert_eq!(
            (r.auc.to_bits(), r.ap.to_bits()),
            (p.auc.to_bits(), p.ap.to_bits()),
            "{model} {name}: paged training must be bit-identical to resident"
        );
    }
    assert!(
        evictions > 0,
        "{model}: no evictions: the {CACHE_BUDGET}-byte budget was never exercised"
    );
    println!(
        "{model} paged == resident: {} epoch losses, transductive auc bits {:016x}",
        paged.epoch_losses.len(),
        paged.transductive.auc.to_bits()
    );
    (paged, evictions)
}

fn main() {
    // Capacity-planning table: which presets would exceed a given cache
    // budget when run resident (satellite of DESIGN.md §16).
    print!("{}", resident_bytes_report(0.05));

    // Wikipedia at 10% scale: ~15.7k events, 62 adjacency pages (496 KiB)
    // in the full store against the 256 KiB budget's 32 frames, so
    // training must stream adjacency pages in and out the whole way.
    let (paged, evictions) = paged_matches_resident("TGN", BenchDataset::Wikipedia, 0.1);
    // TeMP reads each query's whole strictly-before-`t` window (its
    // reference time is the window's mean), so full-window reads and the
    // store's cut search are on this run's path.
    paged_matches_resident("TeMP", BenchDataset::TaobaoLarge, 0.01);

    let max_cache = STORE_CACHE_RESIDENT_BYTES.get();
    assert!(
        max_cache <= CACHE_BUDGET as u64,
        "cache resident bytes {max_cache} exceeded the {CACHE_BUDGET}-byte budget"
    );
    match paged.efficiency.peak_rss_bytes {
        Some(rss) => println!(
            "TGN paged run: peak RSS {:.1} MiB, {} evictions, cache high-water {} bytes",
            rss as f64 / (1 << 20) as f64,
            evictions,
            max_cache
        ),
        None => {
            if cfg!(target_os = "linux") {
                panic!("peak_rss_bytes must be recorded on Linux");
            }
        }
    }
    println!("STORE_SMOKE_OK");
}
