//! Reproduces Figure 6 of the SWAT paper: running time comparisons.
//!
//! * **6(a)** — maintenance time: feed synthetic streams of 100K / 1M /
//!   10M values into each summary with no queries. SWAT updates its tree
//!   on every arrival, once value by value (`push`) and once through the
//!   blocked cascade (`push_batch`), and the two trees must end
//!   bit-identical; Histogram maintains only the window ring plus the
//!   running sum and squared sum. The series is generated before the
//!   timers start, so only the summaries are timed. The paper finds the
//!   two "very similar".
//! * **6(b)** — query response time: N = 1024, B = 30; evaluate uniformly
//!   generated exponential inner-product queries against both summaries.
//!   SWAT answers from `O(log² N)` coefficient work; Histogram must
//!   construct a `(1+ε)`-approximate V-optimal histogram first, timed at
//!   ε ∈ {0.1, 0.01, 0.001}. The paper (ε = 0.1) reports a gap of four
//!   orders of magnitude.
//!
//! Every line is wall-clock: the output is recorded in EXPERIMENTS.md with
//! the host line it prints, and is not part of `results/figures.txt`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use rand::Rng;
use swat_bench::report::{fmt_duration, print_table};
use swat_data::Dataset;
use swat_histogram::{HistogramConfig, SlidingHistogram};
use swat_tree::{InnerProductQuery, SwatConfig, SwatTree};

const WINDOW: usize = 1024;
const BUCKETS: usize = 30;

fn main() {
    let quick = swat_bench::quick_mode();
    let seed = swat_bench::seed();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("host: nproc {nproc}");
    fig6a(seed, quick);
    fig6b(seed, quick);
}

fn timed(f: impl FnOnce()) -> Duration {
    let start = Instant::now();
    f();
    start.elapsed()
}

fn ns_per_value(d: Duration, n: usize) -> String {
    format!("{:.1}", d.as_secs_f64() * 1e9 / n as f64)
}

fn fig6a(seed: u64, quick: bool) {
    let sizes: &[usize] = if quick {
        &[100_000, 1_000_000]
    } else {
        &[100_000, 1_000_000, 10_000_000]
    };
    let config = SwatConfig::new(WINDOW).expect("valid");
    let mut rows = Vec::new();
    for &n in sizes {
        let series = Dataset::Synthetic.series(seed, n);

        let mut scalar = SwatTree::new(config);
        let push = timed(|| series.iter().for_each(|&v| scalar.push(v)));

        let mut blocked = SwatTree::new(config);
        let batch = timed(|| blocked.push_batch(&series));
        assert_eq!(
            scalar.snapshot(),
            blocked.snapshot(),
            "push and push_batch trees differ after {n} values"
        );

        let mut hist =
            SlidingHistogram::new(HistogramConfig::new(WINDOW, BUCKETS, 0.1).expect("valid"));
        let hist_time = timed(|| series.iter().for_each(|&v| hist.push(v)));
        black_box(&hist);

        let ratio = |d: Duration| format!("{:.2}", d.as_secs_f64() / hist_time.as_secs_f64());
        rows.push(vec![
            n.to_string(),
            ns_per_value(push, n),
            ns_per_value(batch, n),
            ns_per_value(hist_time, n),
            ratio(push),
            ratio(batch),
        ]);
    }
    print_table(
        "Figure 6(a): maintenance time, ns per value (no queries)",
        &[
            "stream size",
            "SWAT push",
            "SWAT push_batch",
            "Histogram",
            "push/Histogram",
            "push_batch/Histogram",
        ],
        &rows,
    );
    println!("\nExpected shape (paper): the maintenance times are very similar (same order).");
}

fn fig6b(seed: u64, quick: bool) {
    let queries = if quick { 10 } else { 100 };
    let data = Dataset::Synthetic.series(seed, 3 * WINDOW);
    let mut tree = SwatTree::new(SwatConfig::new(WINDOW).expect("valid"));
    tree.push_batch(&data);
    let mut rng = swat_sim::rng_stream(seed, 99);
    let qs: Vec<InnerProductQuery> = (0..queries)
        .map(|_| {
            let start = rng.gen_range(0..WINDOW);
            let len = rng.gen_range(1..=WINDOW - start);
            InnerProductQuery::exponential_at(start, len, f64::INFINITY)
        })
        .collect();

    // SWAT: answer directly from the tree.
    let mut sink = 0.0;
    let swat_total = timed(|| {
        for q in &qs {
            sink += tree.inner_product(q).expect("warm").value;
        }
    });
    let swat_avg = swat_total / queries as u32;
    let mut rows = vec![vec![
        "SWAT".into(),
        "-".into(),
        fmt_duration(swat_avg),
        fmt_duration(swat_total),
        queries.to_string(),
    ]];

    // Histogram: construct the (1+eps)-approximate histogram, then answer.
    let mut hist_avg = Vec::new();
    for epsilon in [0.1, 0.01, 0.001] {
        let mut hist =
            SlidingHistogram::new(HistogramConfig::new(WINDOW, BUCKETS, epsilon).expect("valid"));
        data.iter().for_each(|&v| hist.push(v));
        let total = timed(|| {
            for q in &qs {
                sink += hist.build().inner_product(q.indices(), q.weights());
            }
        });
        let avg = total / queries as u32;
        hist_avg.push(avg);
        rows.push(vec![
            "Histogram".into(),
            epsilon.to_string(),
            fmt_duration(avg),
            fmt_duration(total),
            queries.to_string(),
        ]);
    }
    black_box(sink);

    print_table(
        "Figure 6(b): average query response time (N=1024, B=30)",
        &["technique", "eps", "avg response time", "total", "queries"],
        &rows,
    );
    println!(
        "\nSpeed-up at eps=0.1: {:.0}x (paper: ~4 orders of magnitude; 2.8e-3 s vs 25.4 s on 2002 hardware)",
        hist_avg[0].as_secs_f64() / swat_avg.as_secs_f64().max(1e-12)
    );
}
