//! cfx-perfbench: the repository benchmark.
//!
//! Three workloads, each run from a seed:
//!
//! * `table4-row-adult` — one Quick Adult Table IV row for "Our method
//!   (a)": prepare data, train the black box, `fit` at the paper step
//!   budget, explain the eval negatives, score the row, then explain
//!   them again a fixed number of times.
//! * `serve-lone-adult` — an in-process `cfx_serve` server with one
//!   worker, driven by one closed-loop caller whose rows are all unique.
//! * `serve-kdd-zipf` — a server with one worker per core, driven by an
//!   open loop over pipelined connections that climbs three fixed rates;
//!   bodies of 1–8 wide KDD rows are drawn with Zipf skew.
//!
//! The benchmark times calls into the crates' public functions from its
//! own files and otherwise reads only what the program exposes: the
//! server's drain report, `GET /metrics`, explain provenance, the `fit`
//! epoch hook and, in the traced run, the tape profiler. The last line
//! of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. `README.md` beside this crate maps every
//! metric to the layer and workload it speaks for.

pub mod check;
pub mod client;
pub mod serve;
pub mod table4;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One Table IV row on Quick Adult, training included.
    Table4RowAdult,
    /// One closed-loop caller, unique Adult rows, one worker.
    ServeLoneAdult,
    /// Open-loop Zipf traffic of wide KDD bodies, one worker per core.
    ServeKddZipf,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Table4RowAdult,
        Workload::ServeLoneAdult,
        Workload::ServeKddZipf,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table4RowAdult => "table4-row-adult",
            Workload::ServeLoneAdult => "serve-lone-adult",
            Workload::ServeKddZipf => "serve-kdd-zipf",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed for every generated input.
    pub seed: u64,
    /// Length of the measured load phase of the serve workloads.
    pub seconds: f64,
    /// `true`: print the per-layer metrics of a traced run.
    pub trace: bool,
    /// Shrink every size so the whole workload finishes in seconds
    /// (the smoke test's mode; numbers are meaningless).
    pub toy: bool,
    /// Damage every response body before checking it, so the smoke test
    /// can see the output checks fire.
    pub corrupt: bool,
}

/// Command-line usage.
pub const USAGE: &str = "\
usage: cfx-perfbench --workload NAME --seed N --seconds S --trace 0|1 [--toy] [--corrupt]

  NAME is table4-row-adult, serve-lone-adult or serve-kdd-zipf.
  --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
  untraced and then traced and prints the per-layer metrics.
  --toy shrinks every size and --corrupt damages every response body
  before it is checked (smoke testing only).";

/// Parses the command line (see [`USAGE`]).
pub fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let (mut toy, mut corrupt) = (false, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--toy" {
            toy = true;
            continue;
        }
        if flag == "--corrupt" {
            corrupt = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "bad --seconds")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        toy,
        corrupt,
    })
}

/// End-to-end metrics: printed by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_pct", "%"),
    ("train_s", "s"),
    ("validity_pct", "%"),
    ("feasibility_pct", "%"),
    ("explain_us_per_cf", "us"),
    ("latency_p50_ms", "ms"),
    ("cfs_per_s", "1/s"),
    ("sustained_rps", "1/s"),
];

/// Tape ops whose time, calls, rate and share the traced run reports:
/// the ten kinds that lead the tape profile of the Table IV row.
pub const TENSOR_OPS: [&str; 10] = [
    "affine_relu",
    "affine",
    "sigmoid_bce",
    "sigmoid",
    "tanh",
    "sub",
    "dropout",
    "sum",
    "add",
    "exp",
];

/// Server stages with a `cfx_serve_stage_ns:<stage>` histogram, whose
/// sum and count give the stage's mean over the requests that ran it
/// (a cache hit runs no worker stage, so on a hit-heavy load the drain
/// report's all-request p50 of those stages reads 0).
pub const SERVE_STAGES: [&str; 7] = [
    "parse",
    "cache_lookup",
    "queue_wait",
    "linger",
    "explain",
    "serialize",
    "respond",
];

/// Timings whose traced-minus-untraced difference the traced run
/// reports as `obs.overhead_pct.<name>`.
pub const OVERHEAD_OF: [&str; 4] = [
    "train_s",
    "explain_us_per_cf",
    "latency_p50_ms",
    "latency_p99_ms",
];

/// Per-layer metrics: printed by every workload with `--trace 1`
/// (zero where the workload does not run the layer).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| m.push((name, unit));
    add("data.prep_s".into(), "s");
    add("models.blackbox_train_s".into(), "s");
    add("core.fit_s".into(), "s");
    add("core.fit.epochs".into(), "count");
    add("core.fit.epoch_ms_p50".into(), "ms");
    for op in TENSOR_OPS {
        add(format!("tensor.{op}.ms"), "ms");
        add(format!("tensor.{op}.calls"), "count");
        add(format!("tensor.{op}.gflops"), "GFLOP/s");
        add(format!("tensor.{op}.share_pct"), "%");
    }
    add("tensor.pool.hit_frac".into(), "ratio");
    for rung in ["first_shot", "resampled", "fallback"] {
        add(format!("core.explain.{rung}"), "count");
    }
    add("core.explain.first_shot_frac".into(), "ratio");
    add("core.explain.req_us.first_shot".into(), "us");
    add("core.explain.req_us.fallback".into(), "us");
    for stage in [
        "parse",
        "queue_wait",
        "linger",
        "explain",
        "serialize",
        "respond",
    ] {
        add(format!("serve.{stage}_us"), "us");
    }
    for stage in SERVE_STAGES {
        add(format!("serve.{stage}_us_mean"), "us");
    }
    add("serve.linger_share_pct".into(), "%");
    for c in ["hits", "misses", "evictions"] {
        add(format!("serve.cache.{c}"), "count");
    }
    add("serve.cache.hit_frac".into(), "ratio");
    add("serve.batches".into(), "count");
    add("serve.batch_rows_mean".into(), "rows");
    for c in ["shed", "timeouts", "expired"] {
        add(format!("serve.{c}"), "count");
    }
    add("client.latency_samples".into(), "count");
    add("client.latency_p50_all_ms".into(), "ms");
    add("client.latency_p99_ms".into(), "ms");
    for k in 1..=serve::LADDER.len() {
        add(format!("client.step{k}.rate_rps"), "1/s");
        for c in ["sent", "ok", "failed"] {
            add(format!("client.step{k}.{c}"), "count");
        }
        add(format!("client.step{k}.p99_ms"), "ms");
        add(format!("client.step{k}.lateness_ms"), "ms");
        add(format!("client.step{k}.backlog_max"), "count");
        add(format!("client.step{k}.backlog_grew"), "bool");
        add(format!("client.step{k}.counted"), "bool");
    }
    for t in OVERHEAD_OF {
        add(format!("obs.overhead_pct.{t}"), "%");
    }
    add("obs.trace_records".into(), "count");
    m
}

/// What one run produced: operation tallies and metric values by name.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests, or pipeline and explain calls).
    pub attempted: u64,
    /// Operations that failed: non-200, transport error or failed check.
    pub failed: u64,
    /// Failed output checks (a subset of `failed`).
    pub check_failures: u64,
    /// Metric values by name.
    pub values: BTreeMap<String, f64>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Counts one failed output check; the first few are logged.
    pub fn check_failed(&mut self, what: &str) {
        if self.check_failures < 5 {
            eprintln!("perfbench: output check failed: {what}");
        }
        self.check_failures += 1;
        self.failed += 1;
    }

    /// The result line: every declared metric of the mode, by name and
    /// unit. An end-to-end metric the workload did not set is a bug; a
    /// per-layer metric it did not set belongs to a layer it never ran
    /// and reads 0.
    pub fn to_json(&self, trace: bool) -> String {
        let declared: Vec<(String, &str)> = if trace {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|(n, u)| (n.to_string(), *u))
                .collect()
        };
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.check_failures == 0,
            self.attempted,
            self.failed
        );
        for (i, (name, unit)) in declared.iter().enumerate() {
            let value = match self.values.get(name) {
                Some(v) => *v,
                None if trace => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Nearest-rank percentile of an ascending slice (0 when empty). With
/// `n` samples, `p = 0.99` leaves `n - ceil(0.99 n)` samples above it:
/// 10 once `n` reaches 1 000.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Training time over repeated, identical trainings, each timed in the
/// same segments: the sum over segments of each segment's fastest
/// repetition. A slow spell of the host then costs only the segments it
/// overlapped in every repetition.
pub fn fastest_segments_s(trainings: &[Vec<f64>]) -> f64 {
    let segments = trainings.iter().map(Vec::len).min().unwrap_or(0);
    (0..segments)
        .map(|i| trainings.iter().map(|t| t[i]).fold(f64::INFINITY, f64::min))
        .sum()
}

/// Peak resident set of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// SplitMix64: the benchmark's own seeded generator for inputs and
/// arrival schedules (independent of the program's RNG).
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        SplitMix(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }
}

/// The traced run's instruments: the JSONL sink (left on disk under
/// `out/` beside this crate for `trace_check`) and the tape profiler.
pub struct Tracing {
    path: PathBuf,
    pool: cfx_tensor::pool::PoolStats,
}

impl Tracing {
    /// Opens a fresh sink for `workload` and arms the profiler.
    pub fn arm(workload: Workload) -> Tracing {
        let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
        std::fs::create_dir_all(&dir).expect("create the trace directory");
        let path = dir.join(format!("{}.jsonl", workload.name()));
        // The sink appends; start from an empty file.
        let _ = std::fs::remove_file(&path);
        cfx_obs::init_jsonl(&path).expect("open the JSONL trace sink");
        cfx_tensor::profile::reset();
        cfx_tensor::profile::set_enabled(true);
        Tracing {
            path,
            pool: cfx_tensor::pool::stats(),
        }
    }

    /// Disarms both instruments and records the tape profile, the
    /// calling thread's buffer-pool hit fraction and the record count.
    pub fn finish(self, out: &mut Outcome) {
        let ops = cfx_tensor::profile::snapshot();
        cfx_tensor::profile::set_enabled(false);
        cfx_obs::close_jsonl();
        let total_ns: u64 = ops.iter().map(|p| p.total_ns()).sum();
        for p in ops.iter().filter(|p| TENSOR_OPS.contains(&p.kind.name())) {
            let op = p.kind.name();
            out.set(&format!("tensor.{op}.ms"), p.total_ns() as f64 / 1e6);
            out.set(&format!("tensor.{op}.calls"), p.fwd_calls as f64);
            out.set(&format!("tensor.{op}.gflops"), p.gflops().unwrap_or(0.0));
            out.set(
                &format!("tensor.{op}.share_pct"),
                100.0 * p.total_ns() as f64 / total_ns.max(1) as f64,
            );
        }
        let top: Vec<String> = ops
            .iter()
            .take(10)
            .map(|p| {
                let share = 100.0 * p.total_ns() as f64 / total_ns.max(1) as f64;
                format!("{} {share:.1}%", p.kind.name())
            })
            .collect();
        eprintln!("perfbench: tape self time by op: {}", top.join(", "));
        let pool = cfx_tensor::pool::stats();
        let (hits, misses) = (pool.hits - self.pool.hits, pool.misses - self.pool.misses);
        out.set(
            "tensor.pool.hit_frac",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        let records = std::fs::read_to_string(&self.path)
            .map(|t| t.lines().count())
            .unwrap_or(0);
        out.set("obs.trace_records", records as f64);
    }
}

/// Runs the workload `opts` names. `started` is process start, the
/// origin of `setup_s` for the training workload.
pub fn run(opts: &Opts, started: Instant) -> Outcome {
    let mut out = match opts.workload {
        Workload::Table4RowAdult => table4::run(opts, started),
        Workload::ServeLoneAdult | Workload::ServeKddZipf => serve::run(opts),
    };
    out.set("peak_rss_mb", peak_rss_mb());
    let ok = out.attempted.saturating_sub(out.failed);
    out.set("ok_pct", 100.0 * ok as f64 / out.attempted.max(1) as f64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_of_a_thousand_leaves_ten_above() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 990.0);
        assert_eq!(percentile(&v, 0.5), 500.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn fastest_segments_sum_per_segment_minima() {
        let t = fastest_segments_s(&[vec![1.0, 5.0, 2.0], vec![3.0, 1.0, 2.5]]);
        assert_eq!(t, 1.0 + 1.0 + 2.0);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        names.extend(END_TO_END.iter().map(|(n, _)| n.to_string()));
        let before = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn args_round_trip() {
        let args: Vec<String> = [
            "--workload",
            "serve-kdd-zipf",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let o = parse_args(&args).expect("valid args");
        assert_eq!(o.workload, Workload::ServeKddZipf);
        assert_eq!(
            (o.seed, o.seconds, o.trace, o.toy, o.corrupt),
            (7, 10.0, true, false, false)
        );
        assert!(parse_args(&args[..6]).is_err(), "--trace missing");
    }
}
