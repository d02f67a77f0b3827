//! `dse_implement`: a seeded directive sweep over the six `rosetta-gen`
//! kernels, every design implemented (HLS, place, route, congestion
//! labels, features) through `CongestionFlow::build_dataset_report` on two
//! workers. The measured unit is one sweep.

use crate::stats::{self, median};
use crate::trace::Tracer;
use crate::{golden, kernels, Args, Outcome};
use congestion_core::pipeline::{CongestionFlow, DatasetBuildReport};
use congestion_core::CongestionDataset;
use hls_ir::Module;
use std::time::Instant;

/// Minimum sweeps per run, so the median has something to choose from.
const MIN_SWEEPS: usize = 3;
/// Set-up repetitions (the reported set-up time is their median).
const SETUPS: usize = 5;
/// Designs of the universe's canonical order built to warm the flow up.
const WARM_UP: usize = 24;

/// The placer/router counters the flow records in `report.obs`.
pub fn fabric_counters(out: &mut Outcome, report: &DatasetBuildReport) {
    let counters = &report.obs.metrics.counters;
    for name in [
        "place.proposed_moves",
        "place.accepted_moves",
        "route.conns",
        "route.passes_run",
    ] {
        let v = counters.get(name).copied().unwrap_or(0);
        out.layer(&format!("fpga_fabric.{name}"), v as f64);
    }
}

/// Whether two datasets hold bitwise the same feature rows and labels, in
/// the same order.
fn same_bits(a: &CongestionDataset, b: &CongestionDataset) -> bool {
    let bits = |row: &[f64]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    a.len() == b.len()
        && (0..a.len()).all(|i| {
            let (sa, sb) = (&a.samples[i], &b.samples[i]);
            bits(a.features_of(i)) == bits(b.features_of(i))
                && sa.vertical.to_bits() == sb.vertical.to_bits()
                && sa.horizontal.to_bits() == sb.horizontal.to_bits()
        })
}

fn compile(sweep: &[rosetta_gen::Benchmark]) -> Result<Vec<Module>, String> {
    sweep
        .iter()
        .map(|b| b.build().map_err(|e| format!("{}: {e}", b.name)))
        .collect()
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let flow = CongestionFlow::new().with_workers(crate::paper::WORKERS);

    // Set-up, five times: generate the seeded sweep, compile every design,
    // and warm the flow up on a fixed slice of the universe (the first
    // build in a process runs ~1.8x slower).
    let mut setup = Vec::new();
    let mut compile_s = 0.0;
    let mut prepared = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let sweep = kernels::sweep(args.seed);
        let tc = Instant::now();
        let modules = compile(&sweep)?;
        compile_s = tc.elapsed().as_secs_f64();
        let warm_up = compile(&kernels::universe()[..WARM_UP])?;
        let warm = flow.build_dataset_report(&warm_up);
        if warm.failed() > 0 {
            return Err(format!("{} warm-up design(s) failed", warm.failed()));
        }
        setup.push(t.elapsed().as_secs_f64());
        prepared = Some((sweep, modules));
    }
    let (sweep, modules) = prepared.expect("set-up ran");
    stats::reset_own_peak_rss();
    let ops: usize = modules.iter().map(|m| m.total_ops()).sum();

    // Measured sweeps.
    let budget = Instant::now();
    let mut walls = Vec::new();
    let mut design_ms = Vec::new();
    let mut efficiency = Vec::new();
    let mut failed = 0u64;
    let mut first: Option<DatasetBuildReport> = None;
    let mut matrices_agree = true;
    while walls.len() < MIN_SWEEPS || budget.elapsed().as_secs_f64() < args.seconds {
        let t = Instant::now();
        let report = flow.build_dataset_report(&modules);
        let wall = t.elapsed().as_secs_f64();
        walls.push(wall);
        let totals = report.stage_totals().total().as_secs_f64();
        efficiency.push(totals / (wall * report.workers as f64));
        design_ms.extend(
            report
                .designs
                .iter()
                .map(|d| d.timings.total().as_secs_f64() * 1e3),
        );
        failed += report.failed() as u64;
        out.attempted += report.designs.len() as u64;
        match &first {
            None => first = Some(report),
            Some(r0) => matrices_agree &= same_bits(&r0.dataset, &report.dataset),
        }
    }
    out.failed += failed;
    let report = first.expect("at least one sweep ran");
    let digest = report.dataset.fingerprint().matrix_digest;

    // Output checks.
    out.check("dse_implement.all_designs_ok", failed == 0);
    out.check("dse_implement.matrix_repeats", matrices_agree);
    let mut mismatched = Vec::new();
    for (b, d) in sweep.iter().zip(&report.designs) {
        if d.outcome.as_ref().ok().copied() != golden::design_samples(&b.name) {
            mismatched.push(b.name.clone());
        }
    }
    out.check("dse_implement.design_samples_golden", mismatched.is_empty());
    if !mismatched.is_empty() {
        out.note(format!(
            "{} design sample count(s) differ from the recorded ones, e.g. {}",
            mismatched.len(),
            mismatched[0]
        ));
    }
    let wall = median(&walls);
    out.note(format!(
        "{} sweeps of {} designs ({} samples, matrix digest {digest}); median {:.3} s, {:.1} designs/s, efficiency {:.2}",
        walls.len(),
        modules.len(),
        report.dataset.len(),
        wall,
        modules.len() as f64 / wall,
        median(&efficiency)
    ));

    out.set("setup_s", median(&setup));
    out.set("wall_s", wall);
    out.set("max_rate_per_s", modules.len() as f64 / wall);
    out.set("p50_ms", median(&design_ms));
    out.set("p99_ms", stats::quantile(&design_ms, 0.99));
    out.set(
        "peak_rss_mb",
        stats::peak_rss_mb("self").ok_or("cannot read VmHWM")?,
    );

    if args.trace {
        // One traced sweep: the executor span is split by the program's own
        // stage timings (summed over workers, so divided by the worker
        // count); what the stages leave uncovered is the executor's idle
        // and merge time, charged to parkit.
        let mut tracer = Tracer::new(true);
        let t = Instant::now();
        let traced = tracer.span("parkit", "build_dataset_report", || {
            flow.build_dataset_report(&modules)
        });
        let traced_wall = t.elapsed().as_secs_f64();
        let w = traced.workers as f64;
        let st = traced.stage_totals();
        let s = |d: std::time::Duration| d.as_secs_f64() / w;
        let name = "build_dataset_report";
        tracer.attribute_last(name, "hls_synth", s(st.hls));
        tracer.attribute_last(
            name,
            "fpga_fabric",
            s(st.place) + s(st.route) + s(st.congestion) + s(st.timing),
        );
        tracer.attribute_last(name, "core", s(st.features));
        let by_layer = tracer.self_time_by_layer();
        let credited: f64 = by_layer.values().sum();
        out.layer("trace.wall_s", traced_wall);
        for (layer, v) in &by_layer {
            out.layer(&format!("trace.self_s.{layer}"), *v);
        }
        out.layer("trace.residual_s", traced_wall - credited);
        out.layer("trace.overhead_share", (traced_wall - wall) / wall);
        out.note(format!(
            "attribution: traced sweep {traced_wall:.3} s = {} + residual {:.4} s",
            by_layer
                .iter()
                .map(|(l, v)| format!("{l} {v:.3} s"))
                .collect::<Vec<_>>()
                .join(" + "),
            traced_wall - credited
        ));

        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        out.layer("hls_ir.compile_ms", compile_s * 1e3);
        out.layer("hls_ir.ops", ops as f64);
        out.layer("hls_synth.synth_ms", ms(st.hls));
        out.layer("fpga_fabric.place_ms", ms(st.place));
        out.layer("fpga_fabric.route_ms", ms(st.route));
        out.layer("fpga_fabric.congestion_ms", ms(st.congestion));
        out.layer("fpga_fabric.timing_ms", ms(st.timing));
        out.layer("core.features_ms", ms(st.features));
        out.layer("core.build_ms", traced_wall * 1e3);
        out.layer("core.rows", traced.dataset.len() as f64);
        out.layer("parkit.efficiency", median(&efficiency));
        fabric_counters(&mut out, &traced);
        std::fs::create_dir_all(args.trace_dir()).map_err(|e| e.to_string())?;
        tracer
            .write(
                &args
                    .trace_dir()
                    .join(format!("dse_implement-seed{}.json", args.seed)),
            )
            .map_err(|e| e.to_string())?;
    }
    Ok(out)
}
