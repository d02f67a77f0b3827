//! Recorded outputs the checks compare against, kept in `golden_data.rs`.
//! Regenerate (only when the program's outputs change on purpose) with
//! `perfbench --record-golden > perfbench/src/golden_data.rs`.

use std::fmt::Write;

include!("golden_data.rs");

/// The recorded held-out MAE of `model` on `target` (`v` | `h`).
pub fn paper_mae(model: &str, target: &str) -> Option<f64> {
    PAPER_MAE
        .iter()
        .find(|(m, t, _)| *m == model && *t == target)
        .map(|(_, _, bits)| f64::from_bits(*bits))
}

/// The recorded sample count of sweep design `name`.
pub fn design_samples(name: &str) -> Option<usize> {
    DESIGN_SAMPLES
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, d)| *d)
}

/// Measure the values above from a fresh build and print them as Rust.
pub fn record() -> String {
    let mut s = String::from(
        "// Recorded by `perfbench --record-golden`; see golden.rs.\n\n\
         /// (model, target, MAE bits) of one `paper_fit` pass.\n\
         const PAPER_MAE: &[(&str, &str, u64)] = &[\n",
    );
    for (model, target, mae) in crate::paper::maes() {
        let _ = writeln!(
            s,
            "    (\"{model}\", \"{target}\", 0x{:016x}), // {mae}",
            mae.to_bits()
        );
    }
    s.push_str(
        "];\n\n/// (design, samples) of every `dse_implement` sweep design.\n\
         const DESIGN_SAMPLES: &[(&str, usize)] = &[\n",
    );
    let universe = crate::kernels::universe();
    let modules: Vec<_> = universe
        .iter()
        .map(|b| b.build().expect("sweep designs compile"))
        .collect();
    let flow = congestion_core::pipeline::CongestionFlow::new().with_workers(crate::paper::WORKERS);
    let report = flow.build_dataset_report(&modules);
    for (b, d) in universe.iter().zip(&report.designs) {
        let n = d
            .outcome
            .as_ref()
            .unwrap_or_else(|e| panic!("sweep design {} failed: {e}", b.name));
        let _ = writeln!(s, "    (\"{}\", {n}),", b.name);
    }
    s.push_str("];\n");
    s
}
