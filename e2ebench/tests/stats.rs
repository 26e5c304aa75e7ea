//! Unit tests of the benchmark's statistics, attribution and trace-reading
//! code, on fixed inputs.

use benchtemp_e2ebench::stats::{
    hit_ratio, layer_of, median, percentile, quartiles, tail_percentile, Attribution,
};
use benchtemp_e2ebench::tracefile::{parse_line, summarize};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-9
}

#[test]
fn median_of_odd_even_and_empty_inputs() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[7.5]), 7.5);
    assert_eq!(median(&[]), 0.0);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    let [q1, q2, q3] = quartiles(&v);
    assert!(close(q1, 2.75) && close(q2, 5.5) && close(q3, 8.25));
    // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
    let [q1, q2, q3] = quartiles(&[4.0, 2.0, 1.0, 3.0]);
    assert!(close(q1, 1.25) && close(q2, 2.5) && close(q3, 3.75));
    // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
    let [q1, q2, q3] = quartiles(&[10.0, 20.0]);
    assert!(close(q1, 7.5) && close(q2, 15.0) && close(q3, 22.5));
    assert_eq!(quartiles(&[5.0]), [5.0; 3]);
    assert_eq!(quartiles(&[]), [0.0; 3]);
}

#[test]
fn percentile_interpolates_between_ranks() {
    let v = [10.0, 20.0, 30.0, 40.0, 50.0];
    assert_eq!(percentile(&v, 0.0), 10.0);
    assert_eq!(percentile(&v, 50.0), 30.0);
    assert_eq!(percentile(&v, 100.0), 50.0);
    assert!(close(percentile(&v, 90.0), 46.0));
    assert!(close(percentile(&[1.0, 2.0], 25.0), 1.25));
    assert_eq!(percentile(&[], 90.0), 0.0);
}

#[test]
fn tail_percentile_keeps_ten_samples_beyond_it() {
    assert_eq!(tail_percentile(0), None);
    assert_eq!(tail_percentile(19), None);
    assert_eq!(tail_percentile(20), Some(50.0));
    assert_eq!(tail_percentile(99), Some(50.0));
    assert_eq!(tail_percentile(100), Some(90.0));
    assert_eq!(tail_percentile(999), Some(90.0));
    assert_eq!(tail_percentile(1_000), Some(99.0));
    assert_eq!(tail_percentile(10_000), Some(99.9));
    assert_eq!(tail_percentile(1_000_000), Some(99.9));
}

#[test]
fn hit_ratio_of_lookups() {
    assert_eq!(hit_ratio(0, 0), 0.0);
    assert_eq!(hit_ratio(3, 1), 0.75);
    assert_eq!(hit_ratio(5, 0), 1.0);
    assert_eq!(hit_ratio(0, 7), 0.0);
}

#[test]
fn attribution_sums_layers_and_rejects_double_counting() {
    let mut a = Attribution::new(10.0);
    a.add("models", 6.0);
    a.add("core", 1.0);
    a.add("models", 1.5);
    a.add("graph", 0.5);
    assert!(close(a.attributed_s(), 9.0));
    assert!(close(a.unattributed_s(), 1.0));
    assert!(close(a.attributed_s() + a.unattributed_s(), a.wall_s));
    assert_eq!(a.costliest(), Some(("models", 7.5)));
    assert!(a.check().is_ok());

    // Microsecond rounding in the trace may overshoot by a hair...
    a.add("tensor", 1.0 + 1e-3);
    assert!(a.check().is_ok());
    // ...but a layer counted twice may not.
    a.add("tensor", 0.5);
    assert!(a.check().is_err(), "10.5 s of layers in 10 s of wall time");
}

#[test]
fn spans_map_to_the_layer_that_opens_them() {
    assert_eq!(layer_of("setup"), "core");
    assert_eq!(layer_of("test_scoring"), "core");
    assert_eq!(layer_of("dense"), "models");
    assert_eq!(layer_of("sampling"), "models");
    assert_eq!(layer_of("attention"), "tensor");
    assert_eq!(layer_of("gather"), "tensor");
    assert_eq!(layer_of("store.bulk_load"), "store");
    assert_eq!(layer_of("something_new"), "other");
}

#[test]
fn trace_lines_parse_and_counters_are_skipped() {
    let open = r#"{"ev":"open","span":"dense","tid":0,"sid":12,"t_us":48210}"#;
    let ev = parse_line(open).unwrap();
    assert!(ev.open);
    assert_eq!((ev.span, ev.tid, ev.sid), ("dense", 0, 12));
    let close_ev =
        r#"{"ev":"close","span":"dense","tid":1,"sid":12,"t_us":9,"dur_us":400,"self_us":300}"#;
    let ev = parse_line(close_ev).unwrap();
    assert!(!ev.open);
    assert_eq!((ev.tid, ev.dur_us, ev.self_us), (1, 400, 300));
    assert_eq!(parse_line(r#"{"ev":"counters","t_us":5,"x":1}"#), None);
    assert_eq!(parse_line("not json"), None);
}

#[test]
fn trace_summary_splits_threads_and_dense_stages() {
    let trace = [
        r#"{"ev":"open","span":"setup","tid":0,"sid":0,"t_us":0}"#,
        r#"{"ev":"close","span":"setup","tid":0,"sid":0,"t_us":100,"dur_us":100,"self_us":100}"#,
        r#"{"ev":"open","span":"train_epoch","tid":0,"sid":1,"t_us":100}"#,
        r#"{"ev":"open","span":"dense","tid":0,"sid":2,"t_us":110}"#,
        r#"{"ev":"open","span":"sampling","tid":1,"sid":3,"t_us":120}"#,
        r#"{"ev":"close","span":"sampling","tid":1,"sid":3,"t_us":150,"dur_us":30,"self_us":30}"#,
        r#"{"ev":"close","span":"dense","tid":0,"sid":2,"t_us":510,"dur_us":400,"self_us":400}"#,
        r#"{"ev":"close","span":"train_epoch","tid":0,"sid":1,"t_us":600,"dur_us":500,"self_us":100}"#,
        r#"{"ev":"counters","t_us":600,"negatives_sampled":6}"#,
        r#"{"ev":"open","span":"test_scoring","tid":0,"sid":4,"t_us":600}"#,
        r#"{"ev":"open","span":"dense","tid":0,"sid":5,"t_us":610}"#,
        r#"{"ev":"close","span":"dense","tid":0,"sid":5,"t_us":810,"dur_us":200,"self_us":200}"#,
        r#"{"ev":"close","span":"test_scoring","tid":0,"sid":4,"t_us":900,"dur_us":300,"self_us":100}"#,
    ]
    .join("\n");
    let s = summarize(&trace);
    assert_eq!(s.main_tid, Some(0));
    assert_eq!(s.unpaired, 0);
    assert!(close(s.self_secs("setup"), 100e-6));
    assert!(close(s.self_secs("dense"), 600e-6));
    assert!(close(s.total_secs("train_epoch"), 500e-6));
    assert!(
        close(s.self_secs("sampling"), 0.0),
        "worker spans stay apart"
    );
    assert!(close(s.worker_self_s, 30e-6));
    assert_eq!(s.dense_ms("train"), &[0.4]);
    assert_eq!(s.dense_ms("eval"), &[0.2]);
    assert!(s.dense_ms("other").is_empty());
    // Main-thread self times partition the time under its top-level spans.
    let self_sum: f64 = s.self_s.values().sum();
    assert!(close(self_sum, 100e-6 + 500e-6 + 300e-6));
}

#[test]
fn trace_summary_counts_unpaired_spans() {
    let trace = [
        r#"{"ev":"open","span":"setup","tid":0,"sid":0,"t_us":0}"#,
        r#"{"ev":"open","span":"dense","tid":0,"sid":1,"t_us":1}"#,
        r#"{"ev":"close","span":"setup","tid":0,"sid":0,"t_us":9,"dur_us":9,"self_us":9}"#,
        r#"{"ev":"close","span":"gather","tid":0,"sid":7,"t_us":9,"dur_us":1,"self_us":1}"#,
    ]
    .join("\n");
    // `dense` never closed inside `setup`, and `gather` closed without an open.
    assert_eq!(summarize(&trace).unpaired, 2);
}
