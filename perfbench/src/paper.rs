//! `paper_fit`: the unfiltered Table IV pass. Set-up builds the paper's
//! training-suite dataset (three groups, `Preset::Optimized`); the measured
//! unit is one fit-and-score pass of Lasso, ANN and GBRT on the vertical
//! and horizontal targets over the paper's fixed 80/20 split.

use crate::stats::{self, median};
use crate::trace::Tracer;
use crate::{golden, Args, Outcome};
use congestion_core::dataset::Target;
use congestion_core::pipeline::CongestionFlow;
use congestion_core::predict::{CongestionPredictor, ModelKind, TrainOptions};
use congestion_core::CongestionDataset;
use std::time::Instant;

/// Split fraction and seed of the paper's Table IV protocol.
const TEST_FRACTION: f64 = 0.2;
const SPLIT_SEED: u64 = 17;

/// Training effort of the measured pass (see README: the default 1.0 pass
/// does not fit the benchmark's time budget).
pub const EFFORT: f64 = 0.5;

/// Times each held-out sample is scored on its own, per fitted model.
const SCORE_ROUNDS: usize = 10;

/// Relative band around the recorded MAEs. Exact equality cannot hold:
/// the suite dataset differs between processes (see README, open defects).
const MAE_BAND: f64 = 0.05;

/// Dataset-builder workers (the host has two cores).
pub const WORKERS: usize = 2;

const MODELS: [(ModelKind, &str); 3] = [
    (ModelKind::Linear, "linear"),
    (ModelKind::Ann, "ann"),
    (ModelKind::Gbrt, "gbrt"),
];
const TARGETS: [(Target, &str); 2] = [(Target::Vertical, "v"), (Target::Horizontal, "h")];

/// What building the suite dataset measured.
pub struct SuiteBuild {
    pub dataset: CongestionDataset,
    pub compile_s: f64,
    pub ops: usize,
    pub report: congestion_core::pipeline::DatasetBuildReport,
}

/// Compile the paper's three suite groups and build their dataset.
pub fn build_suite(tracer: &mut Tracer) -> Result<SuiteBuild, String> {
    let t = Instant::now();
    let modules = tracer.span("hls_ir", "compile_suite", || {
        rosetta_gen::suite::groups(rosetta_gen::Preset::Optimized)
            .iter()
            .map(|b| b.build().map_err(|e| format!("{}: {e}", b.name)))
            .collect::<Result<Vec<_>, _>>()
    })?;
    let compile_s = t.elapsed().as_secs_f64();
    let ops = modules.iter().map(|m| m.total_ops()).sum();
    let flow = CongestionFlow::new().with_workers(WORKERS);
    let report = tracer.span("core", "build_dataset_report", || {
        flow.build_dataset_report(&modules)
    });
    if report.failed() > 0 {
        return Err(format!("{} suite design(s) failed", report.failed()));
    }
    Ok(SuiteBuild {
        dataset: report.dataset.clone(),
        compile_s,
        ops,
        report,
    })
}

/// One fit-and-score of a (model, target) pair.
struct Fit {
    model: &'static str,
    target: &'static str,
    fit_s: f64,
    eval_s: f64,
    mae: f64,
    /// Latency of scoring each held-out sample on its own (ms).
    score_ms: Vec<f64>,
}

/// One Table IV pass over the fixed split.
fn pass(data: &CongestionDataset, tracer: &mut Tracer) -> (f64, Vec<Fit>) {
    let opts = TrainOptions {
        effort: EFFORT,
        ..TrainOptions::default()
    };
    let t = Instant::now();
    let (train, test) = tracer.span("core", "split", || data.split(TEST_FRACTION, SPLIT_SEED));
    let mut fits = Vec::new();
    for (kind, model) in MODELS {
        for (target, tname) in TARGETS {
            let t_fit = Instant::now();
            let p = tracer.span("mlkit", "train", || {
                CongestionPredictor::train(kind, target, &train, &opts)
            });
            let fit_s = t_fit.elapsed().as_secs_f64();
            let t_eval = Instant::now();
            let acc = tracer.span("mlkit", "evaluate", || p.evaluate(&test));
            let eval_s = t_eval.elapsed().as_secs_f64();
            // Each sample's latency is the fastest of SCORE_ROUNDS tries:
            // interrupts and host interference only ever add time.
            let score_ms = tracer.span("mlkit", "predict_features", || {
                let mut best = vec![f64::INFINITY; test.len()];
                for _ in 0..SCORE_ROUNDS {
                    for (i, slot) in best.iter_mut().enumerate() {
                        let t = Instant::now();
                        std::hint::black_box(p.predict_features(test.features_of(i)));
                        *slot = slot.min(t.elapsed().as_secs_f64() * 1e3);
                    }
                }
                best
            });
            fits.push(Fit {
                model,
                target: tname,
                fit_s,
                eval_s,
                mae: acc.mae,
                score_ms,
            });
        }
    }
    (t.elapsed().as_secs_f64(), fits)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut untraced = Tracer::new(false);

    // Set-up, seven times: the reported set-up time is the median.
    let mut setup = Vec::new();
    let mut suite = None;
    for _ in 0..7 {
        let t = Instant::now();
        suite = Some(build_suite(&mut untraced)?);
        setup.push(t.elapsed().as_secs_f64());
    }
    let suite = suite.expect("set-up ran");
    stats::reset_own_peak_rss();
    let data = &suite.dataset;
    out.note(format!(
        "suite dataset: {} samples, {} ops",
        data.len(),
        suite.ops
    ));

    // Measured passes: at least one, more while the budget allows.
    let budget = Instant::now();
    let mut walls = Vec::new();
    let mut cpu_shares = Vec::new();
    let mut score_ms = Vec::new();
    let mut last;
    loop {
        let cpu0 = stats::cpu_seconds();
        let (wall, fits) = pass(data, &mut untraced);
        cpu_shares.push((stats::cpu_seconds() - cpu0) / (wall * stats::cores() as f64));
        walls.push(wall);
        // Per held-out sample: the time to score it with all six models.
        score_ms.extend(
            (0..fits[0].score_ms.len()).map(|i| fits.iter().map(|f| f.score_ms[i]).sum::<f64>()),
        );
        last = fits;
        let elapsed = budget.elapsed().as_secs_f64();
        if elapsed + wall > args.seconds {
            break;
        }
    }
    out.attempted += (walls.len() * last.len()) as u64;

    // Output checks.
    let mae = |model: &str, target: &str| {
        last.iter()
            .find(|f| f.model == model && f.target == target)
            .map_or(f64::NAN, |f| f.mae)
    };
    out.check(
        "paper_fit.mae_finite",
        last.iter().all(|f| f.mae.is_finite()),
    );
    for (_, t) in TARGETS {
        out.check(
            format!("paper_fit.gbrt_le_linear.{t}"),
            mae("gbrt", t) <= mae("linear", t),
        );
    }
    for f in &last {
        let want = golden::paper_mae(f.model, f.target);
        let ok = want.is_some_and(|w| (f.mae - w).abs() <= MAE_BAND * w);
        out.check(format!("paper_fit.mae_golden.{}.{}", f.model, f.target), ok);
        if !ok {
            out.note(format!(
                "MAE {} {}: got {:?}, recorded {:?}",
                f.model, f.target, f.mae, want
            ));
        }
    }
    for f in &last {
        out.note(format!(
            "{:<6} {}: fit {:>7.3} s, eval {:>7.2} ms, MAE {:.4}",
            f.model,
            f.target,
            f.fit_s,
            f.eval_s * 1e3,
            f.mae
        ));
    }
    out.note(format!(
        "mae_v {:.4} pp, mae_h {:.4} pp (GBRT, held-out 20%)",
        mae("gbrt", "v"),
        mae("gbrt", "h")
    ));

    let wall = median(&walls);
    out.set("setup_s", median(&setup));
    out.set("wall_s", wall);
    out.set("max_rate_per_s", last.len() as f64 / wall);
    out.set("p50_ms", median(&score_ms));
    out.set("p99_ms", stats::quantile(&score_ms, 0.99));
    out.set(
        "peak_rss_mb",
        stats::peak_rss_mb("self").ok_or("cannot read VmHWM")?,
    );

    if args.trace {
        layers(args, &mut out, &suite, data, wall, median(&cpu_shares))?;
    }
    Ok(out)
}

/// The traced run: one pass with spans around every call, attributed to
/// layers, plus the layer metrics of the set-up build.
fn layers(
    args: &Args,
    out: &mut Outcome,
    suite: &SuiteBuild,
    data: &CongestionDataset,
    untraced_wall: f64,
    cpu_share: f64,
) -> Result<(), String> {
    let mut tracer = Tracer::new(true);
    let t = Instant::now();
    let (_, fits) = pass(data, &mut tracer);
    let traced_wall = t.elapsed().as_secs_f64();
    let by_layer = tracer.self_time_by_layer();
    let credited: f64 = by_layer.values().sum();
    for f in &fits {
        let key = format!("{}.{}", f.model, f.target);
        out.layer(&format!("mlkit.fit_s.{key}"), f.fit_s);
        out.layer(&format!("mlkit.eval_ms.{key}"), f.eval_s * 1e3);
        out.layer(&format!("mlkit.mae.{key}"), f.mae);
    }
    out.layer("trace.wall_s", traced_wall);
    for (layer, s) in &by_layer {
        out.layer(&format!("trace.self_s.{layer}"), *s);
    }
    out.layer("trace.residual_s", traced_wall - credited);
    out.layer(
        "trace.overhead_share",
        (traced_wall - untraced_wall) / untraced_wall,
    );
    out.layer("parkit.efficiency", cpu_share);
    out.layer("mlkit.rows", data.len() as f64);

    // The set-up build: compile and the program's own stage timings.
    let totals = suite.report.stage_totals();
    out.layer("hls_ir.compile_ms", suite.compile_s * 1e3);
    out.layer("hls_ir.ops", suite.ops as f64);
    out.layer("hls_synth.synth_ms", totals.hls.as_secs_f64() * 1e3);
    out.layer("fpga_fabric.place_ms", totals.place.as_secs_f64() * 1e3);
    out.layer("fpga_fabric.route_ms", totals.route.as_secs_f64() * 1e3);
    out.layer(
        "fpga_fabric.congestion_ms",
        totals.congestion.as_secs_f64() * 1e3,
    );
    out.layer("fpga_fabric.timing_ms", totals.timing.as_secs_f64() * 1e3);
    out.layer("core.features_ms", totals.features.as_secs_f64() * 1e3);
    out.layer("core.build_ms", suite.report.wall.as_secs_f64() * 1e3);
    out.layer("core.rows", data.len() as f64);
    crate::dse::fabric_counters(out, &suite.report);

    std::fs::create_dir_all(args.trace_dir()).map_err(|e| e.to_string())?;
    tracer
        .write(
            &args
                .trace_dir()
                .join(format!("paper_fit-seed{}.json", args.seed)),
        )
        .map_err(|e| e.to_string())?;
    out.note(format!(
        "attribution: traced pass {traced_wall:.3} s = {} + residual {:.3} s",
        by_layer
            .iter()
            .map(|(l, s)| format!("{l} {s:.3} s"))
            .collect::<Vec<_>>()
            .join(" + "),
        traced_wall - credited
    ));
    Ok(())
}

/// The MAEs of one pass (for `--record-golden`).
pub fn maes() -> Vec<(&'static str, &'static str, f64)> {
    let suite = build_suite(&mut Tracer::new(false)).expect("suite builds");
    let (_, fits) = pass(&suite.dataset, &mut Tracer::new(false));
    fits.iter().map(|f| (f.model, f.target, f.mae)).collect()
}
