//! Workload inputs: the directive-sweep universe over the six
//! `rosetta-gen` kernels, and seeded MiniHLS kernels with `#pragma HLS`
//! lines for the serving workloads.

use crate::stats::Rng;
use hls_ir::directives::{Directives, Partition};
use rosetta_gen::{
    bnn, digit_recognition, face_detection, optical_flow, rendering_3d, spam_filter, Benchmark,
};
use std::fmt::Write;

fn cyclic(factor: u32) -> Partition {
    if factor <= 1 {
        Partition::None
    } else {
        Partition::Cyclic(factor)
    }
}

fn variant(name: String, source: &str, directives: Directives) -> Benchmark {
    Benchmark {
        name,
        source: source.to_string(),
        directives,
    }
}

/// Every design of the directive sweep: unroll factor, cyclic partition
/// factor and inline (or pipeline) on/off over the six kernels, as
/// `Benchmark { source, directives }` overlays. 220 small-kernel variants
/// and 12 face-detection-sized ones.
pub fn universe() -> Vec<Benchmark> {
    let mut out = Vec::new();
    let src = digit_recognition::source();
    for u in [1, 2, 4, 8, 16] {
        for p in [1, 2, 4, 8, 16] {
            for inline in [true, false] {
                let mut d = Directives::new();
                d.set_inline("dr_distance", inline);
                d.set_unroll("digit_rec/loop0", u);
                d.set_partition("digit_rec/train", cyclic(p));
                out.push(variant(format!("dr_u{u}_p{p}_i{}", inline as u8), &src, d));
            }
        }
    }
    let src = spam_filter::source();
    for u in [1, 2, 4, 8, 16] {
        for p in [1, 2, 4, 8, 16] {
            for pipe in [true, false] {
                let mut d = Directives::new();
                d.set_unroll("spam_filter/loop1", u);
                d.set_unroll("spam_filter/loop2", u);
                d.set_partition("spam_filter/wvec", cyclic(p));
                d.set_partition("spam_filter/feats", cyclic(p));
                if pipe {
                    d.set_pipeline("spam_filter/loop0", 4);
                }
                out.push(variant(format!("sf_u{u}_p{p}_l{}", pipe as u8), &src, d));
            }
        }
    }
    let src = bnn::source();
    for u in [1, 2, 3, 4, 6] {
        for p in [1, 4, 8, 16] {
            for words in [true, false] {
                let mut d = Directives::new();
                d.set_unroll("bnn/loop0", u);
                if words {
                    d.set_full_unroll("bnn/loop1");
                }
                d.set_partition("bnn/act", Partition::Complete);
                d.set_partition("bnn/wts", cyclic(p));
                out.push(variant(format!("bnn_u{u}_p{p}_w{}", words as u8), &src, d));
            }
        }
    }
    let src = rendering_3d::source();
    for u in [1, 2, 3, 4, 6] {
        for z in [0u32, 4, 8, 1] {
            for tris in [true, false] {
                let mut d = Directives::new();
                d.set_unroll("render3d/loop0", u);
                if tris {
                    d.set_partition("render3d/tris", Partition::Cyclic(7));
                }
                // z = 1 is the fully partitioned depth buffer.
                let zbuf = match z {
                    0 => Partition::None,
                    1 => Partition::Complete,
                    f => Partition::Cyclic(f),
                };
                d.set_partition("render3d/zbuf", zbuf);
                out.push(variant(format!("r3d_u{u}_z{z}_t{}", tris as u8), &src, d));
            }
        }
    }
    let src = optical_flow::source();
    for u in [1, 2, 7, 14] {
        for p in [1, 2, 4, 8, 16] {
            for pipe in [true, false] {
                let mut d = Directives::new();
                d.set_unroll("optical_flow/loop1", u);
                d.set_partition("optical_flow/f0", cyclic(p));
                d.set_partition("optical_flow/f1", cyclic(p));
                if pipe {
                    d.set_pipeline("optical_flow/loop0", 2);
                }
                out.push(variant(format!("of_u{u}_p{p}_l{}", pipe as u8), &src, d));
            }
        }
    }
    // Face-detection-sized designs: the optimized preset with the window
    // positions partly unrolled, and the classifier inline switch and
    // image banking swept.
    let base = face_detection::benchmark(face_detection::FdVariant::Optimized);
    for inline in [true, false] {
        for p in [4, 8, 16] {
            for positions in [1, 2] {
                let mut d = base.directives.clone();
                d.set_inline("fd_classifier", inline);
                d.set_partition("face_detect/img", Partition::Cyclic(p));
                d.set_unroll("face_detect/loop0", positions);
                out.push(variant(
                    format!("fd_i{}_p{p}_w{positions}", inline as u8),
                    &base.source,
                    d,
                ));
            }
        }
    }
    out
}

/// The seeded sweep: the whole universe in a seed-dependent order, so every
/// seed does the same work under a different schedule.
pub fn sweep(seed: u64) -> Vec<Benchmark> {
    let mut all = universe();
    Rng::new(seed, 1).shuffle(&mut all);
    all
}

const SIZES: [u32; 4] = [16, 32, 48, 64];
const FACTORS: [u32; 4] = [1, 2, 4, 8];

/// A fresh seeded MiniHLS kernel with unroll / array_partition / inline
/// pragmas. `tag` makes the text (and the design) unique.
pub fn source_kernel(rng: &mut Rng, tag: u64) -> (String, String) {
    let shape = [
        rng.below(3),
        rng.below(4),
        rng.below(4),
        rng.below(4),
        rng.below(2),
    ];
    kernel_text(rng, tag, shape)
}

/// Kernel `i` of a balanced pool: shape, size and pragma factors cycle
/// through fixed combinations, so every seed's pool costs about the same;
/// the seed only picks constants.
pub fn pool_kernel(rng: &mut Rng, tag: u64, i: usize) -> (String, String) {
    kernel_text(
        rng,
        tag,
        [i % 3, i % 4, (i / 4) % 4, (i / 2 + 1) % 4, i % 2],
    )
}

/// `shape` = [kind, size index, unroll index, partition index, inline].
fn kernel_text(rng: &mut Rng, tag: u64, shape: [usize; 5]) -> (String, String) {
    let n = SIZES[shape[1]];
    let unroll = FACTORS[shape[2]];
    let part = FACTORS[shape[3]];
    let inline = shape[4] == 0;
    let c = 1 + rng.below(97);
    let shape = shape[0];
    let name = format!("k{tag}");
    let mut s = String::new();
    let pragma_part = |s: &mut String, var: &str| {
        if part > 1 {
            let _ = writeln!(
                s,
                "#pragma HLS array_partition variable={var} cyclic factor={part}"
            );
        }
    };
    let pragma_unroll = |s: &mut String| {
        if unroll > 1 {
            let _ = writeln!(s, "#pragma HLS unroll factor={unroll}");
        }
    };
    let inline_line = if inline {
        "#pragma HLS inline"
    } else {
        "#pragma HLS inline off"
    };
    match shape {
        // Multiply-accumulate reduction through a helper.
        0 => {
            let _ = writeln!(s, "{inline_line}");
            let _ = writeln!(s, "int32 {name}_mac(int32 a, int32 b) {{");
            let _ = writeln!(s, "    return a * b + {c};");
            let _ = writeln!(s, "}}");
            let _ = writeln!(s, "int32 {name}(int32 x[{n}], int32 w[{n}]) {{");
            pragma_part(&mut s, "x");
            pragma_part(&mut s, "w");
            let _ = writeln!(s, "    int32 acc = 0;");
            pragma_unroll(&mut s);
            let _ = writeln!(s, "    for (i = 0; i < {n}; i++) {{");
            let _ = writeln!(s, "        acc = acc + {name}_mac(x[i], w[i]);");
            let _ = writeln!(s, "    }}");
            let _ = writeln!(s, "    return acc;");
            let _ = writeln!(s, "}}");
        }
        // Hamming nearest-neighbour search (XOR + popcount).
        1 => {
            let _ = writeln!(s, "{inline_line}");
            let _ = writeln!(s, "int32 {name}_dist(int64 a, int64 b) {{");
            let _ = writeln!(s, "    return popcount(a ^ b) + {c};");
            let _ = writeln!(s, "}}");
            let _ = writeln!(s, "int32 {name}(int64 t, int64 tr[{n}]) {{");
            pragma_part(&mut s, "tr");
            let _ = writeln!(s, "    int32 best = 9999;");
            pragma_unroll(&mut s);
            let _ = writeln!(s, "    for (i = 0; i < {n}; i++) {{");
            let _ = writeln!(s, "        int32 d = {name}_dist(t, tr[i]);");
            let _ = writeln!(s, "        if (d < best) {{");
            let _ = writeln!(s, "            best = d;");
            let _ = writeln!(s, "        }}");
            let _ = writeln!(s, "    }}");
            let _ = writeln!(s, "    return best;");
            let _ = writeln!(s, "}}");
        }
        // 1-D gradient stencil.
        _ => {
            let _ = writeln!(s, "{inline_line}");
            let _ = writeln!(s, "int32 {name}_grad(int16 a, int16 b) {{");
            let _ = writeln!(s, "    return (a - b) * {c};");
            let _ = writeln!(s, "}}");
            let _ = writeln!(s, "int32 {name}(int16 f[{n}], int16 g[{n}]) {{");
            pragma_part(&mut s, "f");
            pragma_part(&mut s, "g");
            let _ = writeln!(s, "    int32 acc = 0;");
            pragma_unroll(&mut s);
            let _ = writeln!(s, "    for (i = 1; i < {}; i++) {{", n - 1);
            let _ = writeln!(s, "        int32 dx = {name}_grad(f[i + 1], f[i - 1]);");
            let _ = writeln!(s, "        int32 dt = g[i] - f[i];");
            let _ = writeln!(s, "        acc = acc + dx * dt;");
            let _ = writeln!(s, "    }}");
            let _ = writeln!(s, "    return acc;");
            let _ = writeln!(s, "}}");
        }
    }
    (name, s)
}
