//! The CLI commands: `summarize`, `simulate`, `generate`, `chaos`,
//! `recover`, `repair-bench`, `failover-bench` (`client` is in
//! [`crate::daemon_cmd`]).

use std::io::Read;

use crate::args::{split_spec, Args};
use crate::errors::PathError;
use swat_data::Dataset;
use swat_net::Topology;
use swat_replication::harness::{run, WorkloadConfig};
use swat_replication::SchemeKind;
use swat_tree::{InnerProductQuery, RangeQuery, SwatConfig, SwatTree};

/// Print top-level usage.
pub fn print_help() {
    println!(
        "swat — hierarchical stream summarization (Bulut & Singh, ICDE 2003)

USAGE
  swat summarize    [input] [summary options] [queries...]
  swat simulate     [workload options]
  swat generate     --dataset weather|synthetic --count N [--seed S]
  swat chaos        [sweep options] [--out PATH] [--quick]
  swat recover      --dir PATH
  swat client       --addr HOST:PORT [requests...]
  swat repair-bench [options] [--out PATH] [--quick]
  swat failover-bench [options] [--out PATH] [--quick]
  swat help

SUMMARIZE — build a SWAT over a stream and answer queries
  input:     --file PATH | --stdin | --dataset weather|synthetic --count N [--seed S]
  summary:   --window N (power of two, default 256)   --coeffs K (default 1)
  queries:   --point IDX                    (repeatable)
             --inner exp:M[:DELTA] | lin:M[:DELTA]    (repeatable)
             --range CENTER:RADIUS[:FROM:TO]          (repeatable)
             --aggregate FROM:TO                      (repeatable)
             --render            print the tree's node layout

SIMULATE — compare replication schemes on one workload
  --scheme asr|dc|aps|all (default all)   --topology single|chain|star|binary
  --clients N | --depth D                 --window N (default 32)
  --td TICKS --tq TICKS --delta D         --horizon T --warmup T --seed S

GENERATE — emit a dataset as CSV on stdout
  --dataset weather|synthetic --count N [--seed S]

CHAOS — sweep SWAT-ASR under deterministic fault injection
  sweep:     --drops P,P,..     per-edge drop probabilities
             --delays D,D,..    max per-edge delays in ticks (uniform 0..=D)
             --depth D          complete binary client tree depth
             --window N --horizon T --warmup T --delta D --seed S
             --heal             run every cell with self-healing on
  output:    --out PATH (default results/BENCH_chaos.json)
  --quick    shrunk grid for smoke runs (no crash variant)

RECOVER — recover a crashed durable store directory
  --dir PATH   the store directory (manifest, segments, write-ahead
               logs); prints what was recovered and re-anchors the store

CLIENT — send requests to a running swatd node or cluster
  --addr HOST:PORT      a node; repeat for the whole cluster — the
                        client then follows NotLeaderR redirects and
                        retries refused/timed-out sockets with backoff
  --ingest V,V,..       apply one global row          (repeatable)
  --point STREAM:IDX    point query                   (repeatable)
  --range STREAM:CENTER:RADIUS:NEWEST:OLDEST          (repeatable)
  --top-k K             exact distributed top-k
  --status              health snapshot   --shutdown  graceful drain
  --req-id N            first write id (default 0)
  --timeout-ms MS       connect/read deadline (default 2000)
  --retries N           retry rounds over the peer list (default 4)
  --retry-ms MS         backoff base between rounds (default 50)

REPAIR-BENCH — self-healing vs static tree under interior crashes
  sweep:     --crash-fracs F,F,..  outage lengths as fractions of the
                                   measured span (default 0.34,0.67,1.0)
             --window N --horizon T --warmup T --delta D --seed S
  healing:   --hb-period TICKS     heartbeat period (default 5)
             --miss-threshold N    misses before repair (default 3)
  output:    --out PATH (default results/BENCH_repair.json)
  --quick    shrunk grid for smoke runs
  errors unless every cell's healed run answers strictly more queries
  than its static run, at zero correctness violations

FAILOVER-BENCH — kill the LEADER of a full failover cluster mid-run
  cluster:   --streams N --shards N (>= 2) --window N --coeffs K
  workload:  --rows-before N --rows-after N --seed S
  timing:    --election-timeout-ms MS (default 250 quick / 300 full)
             --deadline-ms MS   recovery deadline before the run fails
  output:    --out PATH (default results/BENCH_failover.json)
  --quick    shrunk run for smoke tests
  measures election latency, the unavailability window, and the
  answered fraction before/during/after; errors unless the cluster
  re-elects, re-acks, and answers with zero wrong answers"
    );
}

fn load_values(a: &Args) -> Result<Vec<f64>, String> {
    if let Some(path) = a.get("file") {
        return swat_data::csv::load_values(path).map_err(|e| PathError::reading(path, e).into());
    }
    if a.switch("stdin") {
        let mut text = String::new();
        std::io::stdin()
            .read_to_string(&mut text)
            .map_err(|e| format!("reading stdin: {e}"))?;
        return swat_data::csv::parse_values(&text).map_err(|e| e.to_string());
    }
    if let Some(name) = a.get("dataset") {
        let dataset = parse_dataset(name)?;
        let count = a
            .get_parsed("count", 1024usize, "a positive integer")
            .map_err(|e| e.to_string())?;
        let seed = a
            .get_parsed("seed", 42u64, "an integer")
            .map_err(|e| e.to_string())?;
        return Ok(dataset.series(seed, count));
    }
    Err("no input: use --file, --stdin, or --dataset (see `swat help`)".into())
}

fn parse_dataset(name: &str) -> Result<Dataset, String> {
    match name {
        "weather" | "real" => Ok(Dataset::Weather),
        "synthetic" | "uniform" => Ok(Dataset::Synthetic),
        other => Err(format!("unknown dataset {other:?} (weather|synthetic)")),
    }
}

/// `swat summarize`.
pub fn summarize(a: &Args) -> Result<(), String> {
    let values = load_values(a)?;
    let window = a
        .get_parsed("window", 256usize, "a power of two")
        .map_err(|e| e.to_string())?;
    let coeffs = a
        .get_parsed("coeffs", 1usize, "a positive integer")
        .map_err(|e| e.to_string())?;
    let config = SwatConfig::with_coefficients(window, coeffs).map_err(|e| e.to_string())?;
    let mut tree = SwatTree::new(config);
    // Fallible batched ingestion: malformed input (e.g. a NaN that survived
    // parsing) is a user-facing error, not a panic.
    tree.try_push_batch(&values).map_err(|e| e.to_string())?;
    println!(
        "ingested {} values; window {}, {} coefficients/node; {} summaries, {} bytes",
        values.len(),
        window,
        coeffs,
        tree.summary_count(),
        tree.space_bytes()
    );
    if !tree.is_warm() {
        println!("note: tree not fully warm (need ~2N arrivals); old indices may be uncovered");
    }
    if a.switch("render") {
        print!("{}", tree.render());
    }
    for raw in a.get_all("point") {
        let idx: usize = raw
            .parse()
            .map_err(|_| format!("--point {raw:?}: expected an index"))?;
        let p = tree.point(idx).map_err(|e| e.to_string())?;
        println!(
            "point[{idx}] = {:.4} (±{:.4}, level {})",
            p.value, p.error_bound, p.level
        );
    }
    for raw in a.get_all("inner") {
        let q = parse_inner(raw)?;
        let ans = tree.inner_product(&q).map_err(|e| e.to_string())?;
        println!(
            "inner {raw} = {:.4} (error bound {:.4}, {} nodes, precision {})",
            ans.value,
            ans.error_bound,
            ans.nodes_used,
            if ans.meets_precision {
                "met"
            } else {
                "NOT met"
            }
        );
    }
    for raw in a.get_all("range") {
        let q = parse_range(raw, window)?;
        let matches = tree.range_query(&q).map_err(|e| e.to_string())?;
        println!(
            "range {raw}: {} matches{}",
            matches.len(),
            if matches.is_empty() {
                String::new()
            } else {
                format!(
                    " (first at index {}, value {:.4})",
                    matches[0].index, matches[0].value
                )
            }
        );
    }
    for raw in a.get_all("aggregate") {
        let parts = split_spec(raw);
        let [from, to] = parts.as_slice() else {
            return Err(format!("--aggregate {raw:?}: expected FROM:TO"));
        };
        let from: usize = from.parse().map_err(|_| format!("bad FROM in {raw:?}"))?;
        let to: usize = to.parse().map_err(|_| format!("bad TO in {raw:?}"))?;
        let agg = tree.aggregate(from, to).map_err(|e| e.to_string())?;
        println!(
            "aggregate [{from}..{to}]: sum {:.4} (±{:.4}), mean {:.4}, bounds {}",
            agg.sum, agg.sum_error_bound, agg.mean, agg.bounds
        );
    }
    Ok(())
}

fn parse_inner(raw: &str) -> Result<InnerProductQuery, String> {
    let parts = split_spec(raw);
    let (shape, rest) = parts
        .split_first()
        .ok_or_else(|| format!("--inner {raw:?}: expected exp:M or lin:M"))?;
    let m: usize = rest
        .first()
        .ok_or_else(|| format!("--inner {raw:?}: missing length M"))?
        .parse()
        .map_err(|_| format!("--inner {raw:?}: bad length"))?;
    if m == 0 {
        return Err(format!("--inner {raw:?}: length must be positive"));
    }
    let delta: f64 = match rest.get(1) {
        Some(d) => d
            .parse()
            .map_err(|_| format!("--inner {raw:?}: bad delta"))?,
        None => f64::INFINITY,
    };
    if delta.is_nan() || delta < 0.0 {
        return Err(format!("--inner {raw:?}: delta must be >= 0"));
    }
    match *shape {
        "exp" | "exponential" => Ok(InnerProductQuery::exponential(m, delta)),
        "lin" | "linear" => Ok(InnerProductQuery::linear(m, delta)),
        other => Err(format!("--inner {raw:?}: unknown shape {other:?}")),
    }
}

fn parse_range(raw: &str, window: usize) -> Result<RangeQuery, String> {
    let parts = split_spec(raw);
    match parts.as_slice() {
        [center, radius] | [center, radius, ..] => {
            let center: f64 = center
                .parse()
                .map_err(|_| format!("bad CENTER in {raw:?}"))?;
            let radius: f64 = radius
                .parse()
                .map_err(|_| format!("bad RADIUS in {raw:?}"))?;
            if radius < 0.0 {
                return Err(format!("--range {raw:?}: radius must be >= 0"));
            }
            let from: usize = match parts.get(2) {
                Some(s) => s.parse().map_err(|_| format!("bad FROM in {raw:?}"))?,
                None => 0,
            };
            let to: usize = match parts.get(3) {
                Some(s) => s.parse().map_err(|_| format!("bad TO in {raw:?}"))?,
                None => window - 1,
            };
            if from > to {
                return Err(format!("--range {raw:?}: FROM must be <= TO"));
            }
            Ok(RangeQuery::new(center, radius, from, to))
        }
        _ => Err(format!("--range {raw:?}: expected CENTER:RADIUS[:FROM:TO]")),
    }
}

/// `swat simulate`.
pub fn simulate(a: &Args) -> Result<(), String> {
    let window = a
        .get_parsed("window", 32usize, "a power of two")
        .map_err(|e| e.to_string())?;
    let cfg = WorkloadConfig {
        window,
        t_data: a
            .get_parsed("td", 2u64, "ticks")
            .map_err(|e| e.to_string())?,
        t_query: a
            .get_parsed("tq", 1u64, "ticks")
            .map_err(|e| e.to_string())?,
        delta: a
            .get_parsed("delta", 20.0f64, "a number")
            .map_err(|e| e.to_string())?,
        horizon: a
            .get_parsed("horizon", 5000u64, "ticks")
            .map_err(|e| e.to_string())?,
        warmup: a
            .get_parsed("warmup", 1000u64, "ticks")
            .map_err(|e| e.to_string())?,
        seed: a
            .get_parsed("seed", 42u64, "an integer")
            .map_err(|e| e.to_string())?,
        ..WorkloadConfig::default()
    };
    cfg.validate().map_err(|e| e.to_string())?;
    let topo = parse_topology(a)?;
    let dataset = parse_dataset(a.get("dataset").unwrap_or("weather"))?;
    let data = dataset.series(cfg.seed, (cfg.horizon / cfg.t_data + 2) as usize);
    let schemes: Vec<SchemeKind> = match a.get("scheme").unwrap_or("all") {
        "asr" | "swat" | "swat-asr" => vec![SchemeKind::SwatAsr],
        "dc" | "divergence" => vec![SchemeKind::DivergenceCaching],
        "aps" | "precision" => vec![SchemeKind::AdaptivePrecision],
        "all" => SchemeKind::ALL.to_vec(),
        other => return Err(format!("unknown scheme {other:?} (asr|dc|aps|all)")),
    };
    println!(
        "topology: source + {} clients; N={}, T_d={}, T_q={}, delta={}, horizon={}, warmup={}",
        topo.client_count(),
        cfg.window,
        cfg.t_data,
        cfg.t_query,
        cfg.delta,
        cfg.horizon,
        cfg.warmup
    );
    println!(
        "{:<10} {:>10} {:>10} {:>9} {:>15}",
        "scheme", "messages", "weighted", "hit rate", "approximations"
    );
    for kind in schemes {
        let out = run(kind, &topo, &data, &cfg);
        let hits = out.metrics.counter("local_hits") as f64;
        let queries = out.metrics.counter("queries").max(1) as f64;
        println!(
            "{:<10} {:>10} {:>10.1} {:>8.1}% {:>15}",
            out.scheme,
            out.ledger.total(),
            out.ledger.weighted_total(),
            100.0 * hits / queries,
            out.approximations
        );
    }
    Ok(())
}

fn parse_topology(a: &Args) -> Result<Topology, String> {
    let clients = a
        .get_parsed("clients", 1usize, "a count")
        .map_err(|e| e.to_string())?;
    let depth = a
        .get_parsed("depth", 2usize, "a depth")
        .map_err(|e| e.to_string())?;
    match a.get("topology").unwrap_or("single") {
        "single" => Ok(Topology::single_client()),
        "chain" => {
            if clients == 0 {
                return Err("--clients must be positive".into());
            }
            Ok(Topology::chain(clients))
        }
        "star" => {
            if clients == 0 {
                return Err("--clients must be positive".into());
            }
            Ok(Topology::star(clients))
        }
        "binary" => {
            if depth == 0 {
                return Err("--depth must be positive".into());
            }
            Ok(Topology::complete_binary(depth))
        }
        other => Err(format!(
            "unknown topology {other:?} (single|chain|star|binary)"
        )),
    }
}

/// `swat chaos`: sweep SWAT-ASR under fault injection and write the
/// `BENCH_chaos.json` artifact.
pub fn chaos(a: &Args) -> Result<(), String> {
    use swat_bench::chaos::{run, ChaosConfig};
    let seed = a
        .get_parsed("seed", swat_bench::DEFAULT_SEED, "an integer")
        .map_err(|e| e.to_string())?;
    let mut cfg = if a.switch("quick") {
        ChaosConfig::quick(seed)
    } else {
        ChaosConfig::full(seed)
    };
    if let Some(raw) = a.get("drops") {
        cfg.drops = parse_f64_list("drops", raw)?;
        if cfg.drops.iter().any(|p| !(0.0..=1.0).contains(p)) {
            return Err("--drops entries must be probabilities in [0, 1]".into());
        }
    }
    if let Some(raw) = a.get("delays") {
        cfg.delays = parse_u64_list("delays", raw)?;
    }
    cfg.depth = a
        .get_parsed("depth", cfg.depth, "a tree depth")
        .map_err(|e| e.to_string())?;
    if cfg.depth == 0 {
        return Err("--depth must be positive".into());
    }
    cfg.window = a
        .get_parsed("window", cfg.window, "a power of two")
        .map_err(|e| e.to_string())?;
    cfg.horizon = a
        .get_parsed("horizon", cfg.horizon, "ticks")
        .map_err(|e| e.to_string())?;
    cfg.warmup = a
        .get_parsed("warmup", cfg.warmup, "ticks")
        .map_err(|e| e.to_string())?;
    cfg.delta = a
        .get_parsed("delta", cfg.delta, "a number")
        .map_err(|e| e.to_string())?;
    cfg.heal = a.switch("heal");
    // Fail early with the workload's own diagnostics (window shape,
    // warmup vs horizon, delta) before paying for the sweep.
    WorkloadConfig {
        window: cfg.window,
        delta: cfg.delta,
        horizon: cfg.horizon,
        warmup: cfg.warmup,
        seed,
        ..WorkloadConfig::default()
    }
    .validate()
    .map_err(|e| e.to_string())?;
    let report = run(&cfg);
    report.print();
    let violations: usize = report.cases.iter().map(|c| c.violations).sum();
    if violations > 0 {
        return Err(format!(
            "{violations} correctness violations under faults — this is a bug"
        ));
    }
    write_artifact(a, "results/BENCH_chaos.json", &report.to_json())
}

/// `swat recover`.
pub fn recover(a: &Args) -> Result<(), String> {
    use swat_store::RecoveryManager;
    let dir = a
        .get("dir")
        .ok_or("--dir is required (the store directory)")?;
    let (mut store, report) =
        RecoveryManager::recover(dir).map_err(|e| PathError::recovering(dir, e))?;
    match report.checkpoint_t {
        Some(t) => println!("base checkpoint:      t = {t}"),
        None => println!("base checkpoint:      none (bootstrapped from wal-0 header)"),
    }
    if report.checkpoints_skipped > 0 {
        println!(
            "checkpoints skipped:  {} (failed verification)",
            report.checkpoints_skipped
        );
    }
    println!("wal rows replayed:    {}", report.wal_rows_replayed);
    if report.wal_bytes_dropped > 0 {
        println!(
            "wal bytes dropped:    {} (torn, corrupt, or a recycled file's older records)",
            report.wal_bytes_dropped
        );
    }
    println!("recovered arrivals:   {}", report.recovered_arrivals);
    println!(
        "streams × window:     {} × {}",
        store.set().streams(),
        store.set().config().window()
    );
    println!("answers digest:       {:016x}", store.answers_digest());
    println!("store re-anchored: fresh checkpoint + WAL written in {dir}");
    Ok(())
}

/// `swat repair-bench`: compare the self-healing driver against a static
/// tree under interior crashes and write the `BENCH_repair.json`
/// artifact. Fails unless healing strictly dominates in every cell.
pub fn repair_bench(a: &Args) -> Result<(), String> {
    use swat_bench::repair::{run, RepairConfig};
    let seed = a
        .get_parsed("seed", swat_bench::DEFAULT_SEED, "an integer")
        .map_err(|e| e.to_string())?;
    let mut cfg = if a.switch("quick") {
        RepairConfig::quick(seed)
    } else {
        RepairConfig::full(seed)
    };
    if let Some(raw) = a.get("crash-fracs") {
        cfg.crash_fracs = parse_f64_list("crash-fracs", raw)?;
        if cfg.crash_fracs.iter().any(|f| !(0.0..=1.0).contains(f)) {
            return Err("--crash-fracs entries must be fractions in [0, 1]".into());
        }
    }
    cfg.window = a
        .get_parsed("window", cfg.window, "a power of two")
        .map_err(|e| e.to_string())?;
    cfg.horizon = a
        .get_parsed("horizon", cfg.horizon, "ticks")
        .map_err(|e| e.to_string())?;
    cfg.warmup = a
        .get_parsed("warmup", cfg.warmup, "ticks")
        .map_err(|e| e.to_string())?;
    cfg.delta = a
        .get_parsed("delta", cfg.delta, "a number")
        .map_err(|e| e.to_string())?;
    cfg.heal.period = a
        .get_parsed("hb-period", cfg.heal.period, "ticks")
        .map_err(|e| e.to_string())?;
    cfg.heal.miss_threshold = a
        .get_parsed("miss-threshold", cfg.heal.miss_threshold, "a miss count")
        .map_err(|e| e.to_string())?;
    if cfg.heal.period == 0 || cfg.heal.miss_threshold == 0 {
        return Err("--hb-period and --miss-threshold must be positive".into());
    }
    WorkloadConfig {
        window: cfg.window,
        delta: cfg.delta,
        horizon: cfg.horizon,
        warmup: cfg.warmup,
        seed,
        ..WorkloadConfig::default()
    }
    .validate()
    .map_err(|e| e.to_string())?;
    let report = run(&cfg);
    report.print();
    let violations: usize = report.cases.iter().map(|c| c.violations).sum();
    if violations > 0 {
        return Err(format!(
            "{violations} correctness violations under healing — this is a bug"
        ));
    }
    if !report.all_dominate() {
        return Err("a healed cell failed to beat its static run — this is a bug".into());
    }
    write_artifact(a, "results/BENCH_repair.json", &report.to_json())
}

/// `swat failover-bench`: spawn a full failover cluster over real TCP,
/// kill the leader mid-run, and measure election latency, the
/// unavailability window, and the answered fraction — writing the
/// `BENCH_failover.json` artifact. Fails unless the cluster recovers
/// inside the deadline with zero wrong answers.
pub fn failover_bench(a: &Args) -> Result<(), String> {
    use swat_bench::failover::{run, FailoverBenchConfig};
    let seed = a
        .get_parsed("seed", swat_bench::DEFAULT_SEED, "an integer")
        .map_err(|e| e.to_string())?;
    let mut cfg = if a.switch("quick") {
        FailoverBenchConfig::quick(seed)
    } else {
        FailoverBenchConfig::full(seed)
    };
    cfg.streams = a
        .get_parsed("streams", cfg.streams, "a positive count")
        .map_err(|e| e.to_string())?;
    cfg.shards = a
        .get_parsed("shards", cfg.shards, "a count of at least 2")
        .map_err(|e| e.to_string())?;
    cfg.window = a
        .get_parsed("window", cfg.window, "a power of two")
        .map_err(|e| e.to_string())?;
    cfg.coeffs = a
        .get_parsed("coeffs", cfg.coeffs, "a positive count")
        .map_err(|e| e.to_string())?;
    cfg.rows_before = a
        .get_parsed("rows-before", cfg.rows_before, "a positive count")
        .map_err(|e| e.to_string())?;
    cfg.rows_after = a
        .get_parsed("rows-after", cfg.rows_after, "a positive count")
        .map_err(|e| e.to_string())?;
    cfg.election_timeout_ms = a
        .get_parsed(
            "election-timeout-ms",
            cfg.election_timeout_ms,
            "milliseconds",
        )
        .map_err(|e| e.to_string())?;
    cfg.deadline_ms = a
        .get_parsed("deadline-ms", cfg.deadline_ms, "milliseconds")
        .map_err(|e| e.to_string())?;
    if cfg.shards < 2 {
        return Err("--shards must be at least 2 (the bench kills the leader)".into());
    }
    if cfg.streams == 0 || cfg.rows_before == 0 || cfg.rows_after == 0 {
        return Err("--streams, --rows-before, and --rows-after must be positive".into());
    }
    if cfg.election_timeout_ms == 0 || cfg.deadline_ms == 0 {
        return Err("--election-timeout-ms and --deadline-ms must be positive".into());
    }
    SwatConfig::with_coefficients(cfg.window, cfg.coeffs).map_err(|e| e.to_string())?;
    let report = run(&cfg);
    report.print();
    if !report.recovered {
        return Err("the cluster did not recover inside the deadline — this is a bug".into());
    }
    if !report.zero_wrong_answers() {
        return Err("the cluster answered wrongly around a failover — this is a bug".into());
    }
    write_artifact(a, "results/BENCH_failover.json", &report.to_json())
}

/// Write a report's artifact to `--out` (default: the committed file).
fn write_artifact(a: &Args, default: &str, json: &swat_bench::report::Json) -> Result<(), String> {
    let out = a.get("out").unwrap_or(default);
    swat_bench::report::write_json(std::path::Path::new(out), json)
        .map_err(|e| PathError::writing(out, e))?;
    println!("\nwrote {out}");
    Ok(())
}

fn parse_f64_list(flag: &str, raw: &str) -> Result<Vec<f64>, String> {
    let list: Result<Vec<f64>, _> = raw.split(',').map(|s| s.trim().parse()).collect();
    match list {
        Ok(v) if !v.is_empty() && v.iter().all(|x| x.is_finite()) => Ok(v),
        _ => Err(format!(
            "--{flag} {raw:?}: expected comma-separated numbers"
        )),
    }
}

fn parse_u64_list(flag: &str, raw: &str) -> Result<Vec<u64>, String> {
    let list: Result<Vec<u64>, _> = raw.split(',').map(|s| s.trim().parse()).collect();
    match list {
        Ok(v) if !v.is_empty() => Ok(v),
        _ => Err(format!("--{flag} {raw:?}: expected comma-separated counts")),
    }
}

/// `swat generate`.
pub fn generate(a: &Args) -> Result<(), String> {
    let dataset = parse_dataset(
        a.get("dataset")
            .ok_or("--dataset is required (weather|synthetic)")?,
    )?;
    let count = a
        .get_parsed("count", 1024usize, "a count")
        .map_err(|e| e.to_string())?;
    let seed = a
        .get_parsed("seed", 42u64, "an integer")
        .map_err(|e| e.to_string())?;
    let mut out = String::with_capacity(count * 8);
    for v in dataset.series(seed, count) {
        out.push_str(&format!("{v}\n"));
    }
    print!("{out}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inner_spec_parsing() {
        let q = parse_inner("exp:8:5").unwrap();
        assert_eq!(q.len(), 8);
        assert_eq!(q.delta(), 5.0);
        let q = parse_inner("lin:4").unwrap();
        assert_eq!(q.weights()[0], 1.0);
        assert!(q.delta().is_infinite());
        assert!(parse_inner("exp").is_err());
        assert!(parse_inner("exp:0").is_err());
        assert!(parse_inner("wavy:4").is_err());
        assert!(parse_inner("exp:x").is_err());
    }

    #[test]
    fn inner_spec_rejects_a_nan_or_negative_delta() {
        for raw in ["exp:8:nan", "lin:4:NaN", "exp:8:-1", "lin:4:-inf"] {
            let err = parse_inner(raw).unwrap_err();
            assert!(err.contains("delta must be >= 0"), "{raw}: {err}");
        }
        assert_eq!(parse_inner("exp:8:0").unwrap().delta(), 0.0);
        assert!(parse_inner("lin:4:inf").unwrap().delta().is_infinite());
    }

    #[test]
    fn range_spec_parsing() {
        let q = parse_range("80:2.5", 128).unwrap();
        assert_eq!(
            (q.center, q.radius, q.newest, q.oldest),
            (80.0, 2.5, 0, 127)
        );
        let q = parse_range("10:1:5:20", 128).unwrap();
        assert_eq!((q.newest, q.oldest), (5, 20));
        assert!(parse_range("80", 128).is_err());
        assert!(parse_range("80:-1", 128).is_err());
        assert!(parse_range("80:1:9:3", 128).is_err());
    }

    #[test]
    fn dataset_parsing() {
        assert_eq!(parse_dataset("weather").unwrap(), Dataset::Weather);
        assert_eq!(parse_dataset("synthetic").unwrap(), Dataset::Synthetic);
        assert!(parse_dataset("csv").is_err());
    }

    #[test]
    fn topology_parsing() {
        let a = Args::parse(["simulate", "--topology", "binary", "--depth", "3"]).unwrap();
        assert_eq!(parse_topology(&a).unwrap().client_count(), 14);
        let a = Args::parse(["simulate", "--topology", "chain", "--clients", "4"]).unwrap();
        assert_eq!(parse_topology(&a).unwrap().client_count(), 4);
        let a = Args::parse(["simulate"]).unwrap();
        assert_eq!(parse_topology(&a).unwrap().client_count(), 1);
        let a = Args::parse(["simulate", "--topology", "mesh"]).unwrap();
        assert!(parse_topology(&a).is_err());
    }

    #[test]
    fn summarize_end_to_end_with_dataset() {
        let a = Args::parse([
            "summarize",
            "--dataset",
            "weather",
            "--count",
            "600",
            "--window",
            "128",
            "--point",
            "0",
            "--inner",
            "exp:16:50",
            "--aggregate",
            "0:31",
        ])
        .unwrap();
        summarize(&a).unwrap();
    }

    #[test]
    fn simulate_end_to_end() {
        let a = Args::parse([
            "simulate",
            "--horizon",
            "600",
            "--warmup",
            "200",
            "--window",
            "16",
        ])
        .unwrap();
        simulate(&a).unwrap();
        let a = Args::parse(["simulate", "--horizon", "100", "--warmup", "200"]).unwrap();
        assert!(simulate(&a).is_err(), "warmup beyond horizon must fail");
    }

    #[test]
    fn summarize_requires_input() {
        let a = Args::parse(["summarize"]).unwrap();
        assert!(summarize(&a).is_err());
    }
}
