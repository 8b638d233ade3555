//! Wall-clock benchmark of the Coral-Pie tracker.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <grid1000_sparse|city100_surge_lossy|store_mixed_rw|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run builds one workload from its seed, sets it up (several times;
//! `setup_s` is the median), measures a fixed amount of work sized by
//! `--seconds`, checks the outputs, and prints a report followed by one
//! JSON line: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones. A failed check makes the exit code non-zero. See
//! `perfbench/README.md` for what each workload and metric means.
//!
//! `--workload store_sweep` is not a workload: it sweeps the store
//! workload's load and prints where its latency limit breaks, which is
//! where `store_mixed_rw`'s rates come from.

mod city;
mod stats;
mod store;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Bumped whenever a workload's definition changes, so the repeat-run
/// ledger never compares runs of different workloads.
const BENCH_VERSION: u32 = 2;

const WORKLOADS: [&str; 3] = ["grid1000_sparse", "city100_surge_lossy", "store_mixed_rw"];

/// End-to-end metrics every workload reports with `--trace 0`: set-up
/// time, the mean operation latency and peak RSS. The median and p99 are
/// printed in the report but not gated, because on a 2-vCPU host they
/// spread past the largest allowed bound (0.25 of the median) over ten
/// seeds: the city tick's p99 by 0.25–0.28, set by the host's scheduling
/// hiccups, and the store's median request (~15 µs, memory-bound) by
/// 0.21–0.32, moving with other tenants' memory traffic.
const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("op_mean_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics every workload reports with `--trace 1`. Layer
/// times are shares of the workload operation's wall time, so a layer a
/// workload does not exercise reads 0 there.
const PER_LAYER: [(&str, &str); 40] = [
    ("core.analyze_busy_frac", "ratio"),
    ("core.analyze_critical_frac", "ratio"),
    ("core.commit_walk_frac", "ratio"),
    ("core.untimed_frac", "ratio"),
    ("core.active_fraction", "ratio"),
    ("core.frames_stepped", "count"),
    ("sim.traffic_step_frac", "ratio"),
    ("sim.occupancy_assign_frac", "ratio"),
    ("sim.scene_build_frac", "ratio"),
    ("sim.vehicles", "count"),
    ("vision.render_frac", "ratio"),
    ("vision.detect_frac", "ratio"),
    ("vision.sort_frac", "ratio"),
    ("vision.histogram_frac", "ratio"),
    ("vision.process_scene_frac", "ratio"),
    ("net.sent", "count"),
    ("net.retries", "count"),
    ("net.retry_ratio", "ratio"),
    ("net.gave_up", "count"),
    ("net.chaos_dropped", "count"),
    ("topology.mdcs_recompute_frac", "ratio"),
    ("topology.mdcs_recomputes", "count"),
    ("topology.updates_sent", "count"),
    ("storage.insert_event_us", "us"),
    ("storage.insert_edge_us", "us"),
    ("storage.query_trajectory_p50_us", "us"),
    ("storage.query_trajectory_p99_us", "us"),
    ("storage.vehicles_through_camera_p50_us", "us"),
    ("storage.vehicles_through_camera_p99_us", "us"),
    ("storage.scan_window_p50_us", "us"),
    ("storage.scan_window_p99_us", "us"),
    ("storage.find_by_appearance_p50_us", "us"),
    ("storage.find_by_appearance_p99_us", "us"),
    ("storage.vertices", "count"),
    ("storage.edges", "count"),
    ("layer.unattributed_frac", "ratio"),
    ("obs.trace_overhead_frac", "ratio"),
    ("eval.unattributed_frac", "ratio"),
    ("eval.mota", "ratio"),
    ("eval.idf1", "ratio"),
];

/// How many times each city workload sets up per process; `setup_s` is
/// the median. (The store, whose set-up is a 20 ms pre-load, sets up more
/// often.) Traced runs set up just as often, so both measure a deployment
/// built in a heap shaped by the same set-ups before it.
pub const SETUPS: usize = 3;

/// The most of a tick's wall time that may go unattributed (ROADMAP aim 1).
const MAX_UNATTRIBUTED: f64 = 0.10;

/// Process-wide facts a workload needs.
#[derive(Debug)]
pub struct RunContext {
    /// When the process started (the first set-up is timed from here).
    pub process_start: Instant,
}

/// A named value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    name: &'static str,
    passed: bool,
    detail: String,
}

/// Everything one workload run measured and checked.
#[derive(Debug)]
pub struct Outcome {
    workload: &'static str,
    /// Duration of each set-up, seconds.
    pub setup_s: Vec<f64>,
    /// Latency of every timed operation, ms.
    pub op_ms: Vec<f64>,
    /// Timed operations attempted.
    pub ops: u64,
    /// Timed operations that failed.
    pub failed_ops: u64,
    /// Messages the deployment sent during the window (city workloads).
    pub messages: u64,
    /// Messages the reliability layer abandoned.
    pub failed_messages: u64,
    /// What the workload's own failures are a share of in
    /// `ops_failed_frac`: messages sent in a city (a tick cannot fail),
    /// calls in the store.
    pub failable: u64,
    checks: Vec<Check>,
    /// Workload-specific end-to-end figures (report only).
    pub report: Vec<Metric>,
    /// Per-layer metrics (traced runs).
    pub layers: Vec<Metric>,
    /// Absolute per-op layer times and other detail (report only).
    pub layer_detail: Vec<(&'static str, f64)>,
    /// Values that must repeat exactly for the same seed and length.
    pub ledger: Vec<(&'static str, String)>,
    /// Extra provenance.
    pub provenance: Vec<(&'static str, String)>,
    /// VmHWM once the window and its checks are done, MiB.
    pub peak_rss_mb: f64,
    /// Spans of a traced run.
    pub spans: Option<trace::Recorder>,
}

impl Outcome {
    fn new(workload: &'static str) -> Self {
        Self {
            workload,
            setup_s: Vec::new(),
            op_ms: Vec::new(),
            ops: 0,
            failed_ops: 0,
            messages: 0,
            failed_messages: 0,
            failable: 0,
            checks: Vec::new(),
            report: Vec::new(),
            layers: Vec::new(),
            layer_detail: Vec::new(),
            ledger: Vec::new(),
            provenance: Vec::new(),
            peak_rss_mb: f64::NAN,
            spans: None,
        }
    }

    /// Records an output check.
    pub fn check(&mut self, name: &'static str, passed: bool, detail: String) {
        self.checks.push(Check {
            name,
            passed,
            detail,
        });
    }
}

/// The tick-core layers, all zero: for a workload without frame ticks.
pub fn absent_tick_layers() -> Vec<Metric> {
    PER_LAYER
        .iter()
        .filter(|(name, _)| {
            ["core.", "sim.", "vision.", "net.", "topology."]
                .iter()
                .any(|p| name.starts_with(p))
        })
        .map(|&(name, unit)| Metric::new(name, 0.0, unit))
        .collect()
}

/// FNV-1a over 64-bit words: a stable fingerprint across processes and
/// toolchains.
pub mod fnv {
    /// Offset basis.
    pub const START: u64 = 0xcbf2_9ce4_8422_2325;

    /// Folds `word` into `h`.
    pub fn mix(mut h: u64, word: u64) -> u64 {
        for b in word.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        h
    }
}

/// SplitMix64: the benchmark's own input generator.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The process's peak resident set (VmHWM), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["all", "store_sweep"].contains(&workload.as_str())
        && !WORKLOADS.contains(&workload.as_str())
    {
        return Err(format!(
            "unknown workload {workload}; one of {WORKLOADS:?}, all or store_sweep"
        ));
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The benchmark's directory; results and the repeat-run ledger go in
/// its `out/`.
fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Digest of the sources this binary was built from: every `.rs` and
/// `.toml` file under `crates/` and `perfbench/src`, plus both lock files.
/// Stands in for the git revision when the tree is not a git checkout.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let root = bench_dir().join("..");
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    walk(&bench_dir().join("src"), &mut files);
    files.push(root.join("Cargo.lock"));
    files.push(bench_dir().join("Cargo.lock"));
    files.sort();
    let mut h = fnv::START;
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            for chunk in bytes.chunks(8) {
                let mut w = [0u8; 8];
                w[..chunk.len()].copy_from_slice(chunk);
                h = fnv::mix(h, u64::from_le_bytes(w));
            }
        }
    }
    format!("{h:016x}")
}

/// The revision of the tree the benchmark runs in, read at run time (one
/// build serves every later commit that leaves its sources alone).
fn git_rev() -> String {
    let root = bench_dir().join("..");
    if !root.join(".git").exists() {
        return "unknown (not a git checkout)".into();
    }
    std::process::Command::new("git")
        .arg("-C")
        .arg(&root)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// What the repeat-run ledger said about a run.
enum Ledger {
    /// First run of its key; recorded for later runs to match.
    First,
    /// Matched the earlier run of its key.
    Matched,
    /// Differed from the earlier run: the values that changed.
    Differs(String),
}

/// Looks the run up in the repeat-run ledger: the same workload, seed,
/// length and sources must reproduce the same values.
fn ledger_check(key: &str, values: &[(&'static str, String)]) -> Result<Ledger, String> {
    let dir = bench_dir().join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join("ledger.tsv");
    let existing = std::fs::read_to_string(&path).unwrap_or_default();
    let now: Vec<String> = values.iter().map(|(k, v)| format!("{k}={v}")).collect();
    let line = now.join("\t");
    let prefix = format!("{key}\t");
    if let Some(earlier) = existing.lines().find_map(|l| l.strip_prefix(&prefix)) {
        if earlier == line {
            return Ok(Ledger::Matched);
        }
        let before: Vec<&str> = earlier.split('\t').collect();
        let changed: Vec<&str> = now
            .iter()
            .map(String::as_str)
            .filter(|v| !before.contains(v))
            .collect();
        return Ok(Ledger::Differs(format!(
            "{} (earlier run: {earlier})",
            changed.join(", ")
        )));
    }
    let mut file = existing;
    let _ = writeln!(file, "{key}\t{line}");
    std::fs::write(&path, file).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(Ledger::First)
}

fn run_one(args: &Args, ctx: &RunContext) -> Result<bool, String> {
    let mut out = match args.workload.as_str() {
        "grid1000_sparse" => city::run(
            &city::CityWorkload::GRID1000,
            args.seed,
            args.seconds,
            args.trace,
            ctx,
        ),
        "city100_surge_lossy" => city::run(
            &city::CityWorkload::CITY100,
            args.seed,
            args.seconds,
            args.trace,
            ctx,
        ),
        "store_mixed_rw" => store::run(args.seed, args.seconds, args.trace, ctx),
        other => return Err(format!("unknown workload {other}")),
    };

    let digest = source_digest();
    let key = format!(
        "{}\tseed={}\tseconds={}\tv{BENCH_VERSION}\tsrc={digest}",
        out.workload, args.seed, args.seconds
    );
    let (same, detail) = match ledger_check(&key, &out.ledger)? {
        Ledger::First => (
            true,
            "first run of this seed, length and source; recorded".to_string(),
        ),
        Ledger::Matched => (
            true,
            "identical to the earlier run of this seed, length and source".to_string(),
        ),
        Ledger::Differs(d) => (false, format!("differs from the earlier run: {d}")),
    };
    out.check("repeat_run_identical", same, detail);

    let op = stats::Summary::of(&out.op_ms);
    out.report.splice(
        0..0,
        [
            Metric::new("op_p50_ms", op.p50, "ms"),
            Metric::new("op_p99_ms", op.p99, "ms"),
        ],
    );
    let mut metrics: Vec<Metric> = if args.trace {
        if let Some(u) = out
            .layers
            .iter()
            .find(|m| m.name == "layer.unattributed_frac")
        {
            out.provenance.push((
                "unattributed_aim",
                format!(
                    "{:.1}% of op wall time is unattributed; the ≤{:.0}% aim is {}",
                    u.value * 100.0,
                    MAX_UNATTRIBUTED * 100.0,
                    if u.value <= MAX_UNATTRIBUTED {
                        "met"
                    } else {
                        "NOT met"
                    }
                ),
            ));
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = out
                    .layers
                    .iter()
                    .find(|m| m.name == name)
                    .map_or(f64::NAN, |m| m.value);
                Metric::new(name, v, unit)
            })
            .collect()
    } else {
        let values = [stats::median(&out.setup_s), op.mean, out.peak_rss_mb];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| Metric::new(name, v, unit))
            .collect()
    };
    let missing: Vec<String> = metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name.clone())
        .collect();
    out.check(
        "metrics_complete",
        missing.is_empty(),
        format!("every reported metric is a finite number (missing: {missing:?})"),
    );
    for m in &mut metrics {
        if !m.value.is_finite() {
            m.value = -1.0;
        }
    }

    let checks_failed = out.checks.iter().filter(|c| !c.passed).count() as u64;
    let attempted = out.ops + out.messages + out.checks.len() as u64;
    let failed = out.failed_ops + out.failed_messages + checks_failed;
    let correct = checks_failed == 0 && out.failed_ops == 0;
    out.report.push(Metric::new(
        "ops_failed_frac",
        (out.failed_ops + out.failed_messages + checks_failed) as f64
            / (out.failable + out.checks.len() as u64).max(1) as f64,
        "ratio",
    ));

    // Provenance: what ROADMAP aim 1 asks of a perf claim.
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut provenance: Vec<(&str, String)> = vec![
        ("workload", out.workload.to_string()),
        ("seed", args.seed.to_string()),
        ("run_seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("host_cpus", host_cpus.to_string()),
        ("git_rev", git_rev()),
        ("source_digest", digest),
        ("rustc", env!("PERFBENCH_RUSTC").to_string()),
        ("bench_version", BENCH_VERSION.to_string()),
        ("setups", out.setup_s.len().to_string()),
        ("setup_s_each", format!("{:?}", out.setup_s)),
        ("op_samples", out.op_ms.len().to_string()),
        (
            "op_tail_percentile",
            stats::highest_supported_percentile(out.op_ms.len())
                .map_or("none".to_string(), |q| format!("p{}", q * 100.0)),
        ),
        (
            "op_quartiles_ms",
            stats::quartiles(&out.op_ms).map_or("n/a".to_string(), |q| format!("{q:?}")),
        ),
    ];
    provenance.extend(out.provenance.iter().map(|(k, v)| (*k, v.clone())));

    // The report.
    let mut text = String::new();
    let _ = writeln!(
        text,
        "== {} (seed {}, {} s, trace {}) ==",
        out.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (k, v) in &provenance {
        let _ = writeln!(text, "  {k:<28} {v}");
    }
    if !args.trace {
        let _ = writeln!(text, "-- end-to-end");
        for m in metrics.iter().chain(&out.report) {
            let _ = writeln!(text, "  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
        }
    } else {
        let _ = writeln!(text, "-- per layer");
        for m in &metrics {
            let _ = writeln!(text, "  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
        }
        for (k, v) in &out.layer_detail {
            let _ = writeln!(text, "  {k:<40} {v:>16.3}");
        }
    }
    let _ = writeln!(text, "-- checks");
    for c in &out.checks {
        let _ = writeln!(
            text,
            "  {} {:<28} {}",
            if c.passed { "PASS" } else { "FAIL" },
            c.name,
            c.detail
        );
    }
    print!("{text}");

    // Files: the result as JSON, and a traced run's spans.
    let dir = bench_dir().join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let stem = format!(
        "{}-seed{}-trace{}",
        out.workload,
        args.seed,
        u8::from(args.trace)
    );
    if let Some(spans) = &out.spans {
        let path = dir.join(format!("{stem}-spans.jsonl"));
        spans
            .write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("  wrote {} spans to {}", spans.len(), path.display());
    }
    let metric_json = |ms: &[Metric]| -> String {
        ms.iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&m.name),
                    m.value,
                    json_str(m.unit)
                )
            })
            .collect::<Vec<_>>()
            .join(", ")
    };
    let detail = {
        let prov = provenance
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect::<Vec<_>>()
            .join(", ");
        let checks = out
            .checks
            .iter()
            .map(|c| {
                format!(
                    "{{\"name\": {}, \"passed\": {}, \"detail\": {}}}",
                    json_str(c.name),
                    c.passed,
                    json_str(&c.detail)
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        let layer_detail = out
            .layer_detail
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k)))
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"provenance\": {{{prov}}}, \"metrics\": {{{}}}, \"report\": {{{}}}, \"layer_detail\": {{{layer_detail}}}, \"checks\": [{checks}]}}\n",
            metric_json(&metrics),
            metric_json(&out.report)
        )
    };
    let path = dir.join(format!("{stem}.json"));
    std::fs::write(&path, detail).map_err(|e| format!("write {}: {e}", path.display()))?;

    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metric_json(&metrics)
    );
    Ok(correct)
}

/// `--workload all`: each workload in its own process (so peak RSS is
/// per workload), one after another.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_ok = true;
    let mut summary = Vec::new();
    for w in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .map_err(|e| format!("spawn {w}: {e}"))?;
        all_ok &= status.success();
        summary.push(format!(
            "{w}: {}",
            if status.success() { "ok" } else { "FAILED" }
        ));
    }
    println!("== all workloads: {}", summary.join(", "));
    Ok(all_ok)
}

fn main() -> ExitCode {
    let ctx = RunContext {
        process_start: Instant::now(),
    };
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.workload == "all" {
        run_all(&args)
    } else if args.workload == "store_sweep" {
        store::sweep(args.seed, args.seconds);
        Ok(true)
    } else {
        run_one(&args, &ctx)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perfbench: an output check failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
