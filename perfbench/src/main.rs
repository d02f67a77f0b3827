//! `perfbench` — one outside-in benchmark for the paper flow and the
//! `congestd` request path.
//!
//! ```text
//! perfbench --workload <paper_fit|dse_implement|serve_hot|serve_cold>
//!           --seed <n> --seconds <s> --trace <0|1> [--daemon <hls_congest>]
//! perfbench --record-golden        # print src/golden.rs from a fresh build
//! ```
//!
//! Every layer is timed from outside, around calls into that crate's public
//! functions; the serving workloads also drive the real `hls_congest serve`
//! daemon over loopback and read the counters it exports. The last line of
//! stdout is one JSON object: `correct`, `attempted`, `failed`, `metrics`
//! (end-to-end metrics with `--trace 0`, per-layer metrics with `--trace 1`).
//! See `README.md` beside this package for the workloads and metric map.

mod dse;
mod golden;
mod kernels;
mod paper;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// End-to-end metrics: every workload reports every one (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("max_rate_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`); a layer idle on a workload reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("mlkit.fit_s.linear.v", "s"),
    ("mlkit.fit_s.linear.h", "s"),
    ("mlkit.fit_s.ann.v", "s"),
    ("mlkit.fit_s.ann.h", "s"),
    ("mlkit.fit_s.gbrt.v", "s"),
    ("mlkit.fit_s.gbrt.h", "s"),
    ("mlkit.eval_ms.linear.v", "ms"),
    ("mlkit.eval_ms.linear.h", "ms"),
    ("mlkit.eval_ms.ann.v", "ms"),
    ("mlkit.eval_ms.ann.h", "ms"),
    ("mlkit.eval_ms.gbrt.v", "ms"),
    ("mlkit.eval_ms.gbrt.h", "ms"),
    ("mlkit.mae.linear.v", "pp"),
    ("mlkit.mae.linear.h", "pp"),
    ("mlkit.mae.ann.v", "pp"),
    ("mlkit.mae.ann.h", "pp"),
    ("mlkit.mae.gbrt.v", "pp"),
    ("mlkit.mae.gbrt.h", "pp"),
    ("mlkit.predict_us_per_row", "us"),
    ("mlkit.rows", "count"),
    ("hls_ir.compile_ms", "ms"),
    ("hls_ir.ops", "count"),
    ("hls_synth.synth_ms", "ms"),
    ("fpga_fabric.place_ms", "ms"),
    ("fpga_fabric.route_ms", "ms"),
    ("fpga_fabric.congestion_ms", "ms"),
    ("fpga_fabric.timing_ms", "ms"),
    ("fpga_fabric.place.proposed_moves", "count"),
    ("fpga_fabric.place.accepted_moves", "count"),
    ("fpga_fabric.route.conns", "count"),
    ("fpga_fabric.route.passes_run", "count"),
    ("core.features_ms", "ms"),
    ("core.extract_ms", "ms"),
    ("core.rows", "count"),
    ("core.build_ms", "ms"),
    ("parkit.efficiency", "ratio"),
    ("servekit.decode_ms", "ms"),
    ("servekit.encode_ms", "ms"),
    ("servekit.frame_bytes", "bytes"),
    ("servekit.swap_ms", "ms"),
    ("servekit.frontend_ms", "ms"),
    ("servekit.outside_service_ms", "ms"),
    ("serve.queue_depth_peak", "count"),
    ("serve.batch.coalesced_share", "ratio"),
    ("serve.batch.rows_per_batch", "count"),
    ("serve.latency_ms.p50", "ms"),
    ("serve.latency_ms.p99", "ms"),
    ("serve.cache.hit_rate", "ratio"),
    ("serve.cache.invalidations", "count"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.sent", "count"),
    ("loadgen.ok", "count"),
    ("loadgen.failed", "count"),
    ("trace.wall_s", "s"),
    ("trace.self_s.mlkit", "s"),
    ("trace.self_s.hls_ir", "s"),
    ("trace.self_s.hls_synth", "s"),
    ("trace.self_s.fpga_fabric", "s"),
    ("trace.self_s.core", "s"),
    ("trace.self_s.parkit", "s"),
    ("trace.self_s.servekit", "s"),
    ("trace.residual_s", "s"),
    ("trace.overhead_share", "ratio"),
    ("tail.p99_ms", "ms"),
];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `hls_congest` binary the serving workloads spawn.
    pub daemon: PathBuf,
    /// Scratch directory for artifacts, logs and traces (inside the cwd).
    pub work_dir: PathBuf,
}

impl Args {
    /// Where traced runs leave their span files.
    pub fn trace_dir(&self) -> PathBuf {
        PathBuf::from(".bench_run").join("traces")
    }
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (fits, designs, requests).
    pub attempted: u64,
    /// Operations that failed (errors, sheds, wrong answers, ...).
    pub failed: u64,
    /// Named output checks; a failed check also counts as a failed operation.
    pub checks: Vec<(String, bool)>,
    /// End-to-end metric values by name.
    pub e2e: BTreeMap<String, f64>,
    /// Per-layer metric values by name (traced run only).
    pub layers: BTreeMap<String, f64>,
    /// Extra human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.e2e.insert(name.to_string(), value);
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.layers.insert(name.to_string(), value);
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

fn parse_args() -> Result<(Args, bool), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1).cloned())
    };
    let record = argv.iter().any(|a| a == "--record-golden");
    let workload = get("--workload").unwrap_or_default();
    if !record && workload.is_empty() {
        return Err("missing --workload".into());
    }
    let seed = get("--seed")
        .unwrap_or_else(|| "1".into())
        .parse()
        .map_err(|_| "--seed takes an integer")?;
    let seconds: f64 = get("--seconds")
        .unwrap_or_else(|| "10".into())
        .parse()
        .map_err(|_| "--seconds takes a number")?;
    let trace = match get("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, got {other}")),
    };
    let daemon =
        PathBuf::from(get("--daemon").unwrap_or_else(|| "target/release/hls_congest".into()));
    let work_dir = PathBuf::from(".bench_run").join(format!(
        "{}-{}-{}",
        if workload.is_empty() {
            "golden"
        } else {
            &workload
        },
        seed,
        std::process::id()
    ));
    Ok((
        Args {
            workload,
            seed,
            seconds: seconds.max(1.0),
            trace,
            daemon,
            work_dir,
        },
        record,
    ))
}

fn main() {
    let (args, record) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if record {
        print!("{}", golden::record());
        return;
    }
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.work_dir.display());
        std::process::exit(2);
    }
    let started = Instant::now();
    let result = match args.workload.as_str() {
        "paper_fit" => paper::run(&args),
        "dse_implement" => dse::run(&args),
        "serve_hot" => serve::run(&args, serve::Mix::Hot),
        "serve_cold" => serve::run(&args, serve::Mix::Cold),
        other => Err(format!("unknown workload `{other}`")),
    };
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let _ = std::fs::remove_dir_all(&args.work_dir);
    report(&args, out, started.elapsed().as_secs_f64());
}

/// Print every metric by name with its unit, the checks, and the final
/// one-line JSON result.
fn report(args: &Args, mut out: Outcome, elapsed_s: f64) {
    // The tail latency is measured on every run, but it swings by a third
    // between runs on a shared host, so it is reported without a bound.
    if let Some(&p99) = out.e2e.get("p99_ms") {
        out.layers.insert("tail.p99_ms".into(), p99);
    }
    println!(
        "perfbench {} seed={} seconds={} trace={} ({:.1} s)",
        args.workload, args.seed, args.seconds, args.trace as u8, elapsed_s
    );
    for line in &out.notes {
        println!("  {line}");
    }
    let mut failed_checks = 0u64;
    for (name, ok) in &out.checks {
        println!("  check {:<44} {}", name, if *ok { "ok" } else { "FAILED" });
        failed_checks += u64::from(!ok);
    }
    let (list, values): (&[(&str, &str)], &BTreeMap<String, f64>) = if args.trace {
        (PER_LAYER, &out.layers)
    } else {
        (END_TO_END, &out.e2e)
    };
    let mut metrics = Vec::new();
    for (name, unit) in list {
        let value = match values.get(*name) {
            Some(v) => *v,
            // Per-layer metrics of a layer this workload never calls are 0;
            // an end-to-end metric must always be measured.
            None if args.trace => 0.0,
            None => panic!("end-to-end metric {name} was not measured"),
        };
        let value = if value.is_finite() { value } else { -1.0 };
        println!("  {name:<36} {value:>16.6} {unit}");
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let attempted = (out.attempted + out.checks.len() as u64).max(1);
    let failed = (out.failed + failed_checks).min(attempted);
    let correct = failed_checks == 0 && out.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
}
