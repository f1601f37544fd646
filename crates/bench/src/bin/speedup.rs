//! Section VI-D: GPUMech's modeling speed versus detailed timing
//! simulation.
//!
//! For a set of representative kernels, times (a) the cycle-level oracle
//! (`simulate`, round-robin), (b) the one-time GPUMech analysis
//! (`Gpumech::analyze`: functional cache simulation + interval algorithm
//! over every warp), and (c) the per-configuration prediction cost (one
//! default `Gpumech::run` on that analysis: clustering plus the
//! multithreading and contention models). Each column is the minimum over
//! [`ITERS`] timed runs of [`gpumech_perf::wall_time`] after [`WARMUP`]
//! untimed ones. Reports both the full-pipeline speedup and the
//! explore-another-configuration speedup, mirroring the paper's 97x claim
//! and its observation that re-exploration is cheaper still.
//!
//! Usage: `speedup [--blocks N] [kernel ...]`

use std::time::Duration;

use gpumech_bench::{arg_value, fail};
use gpumech_core::{Gpumech, PredictionRequest};
use gpumech_isa::{SchedulingPolicy, SimConfig};
use gpumech_perf::wall_time;
use gpumech_timing::simulate;
use gpumech_trace::workloads;

/// Untimed runs before each measurement.
const WARMUP: u32 = 1;
/// Timed runs per measurement; the minimum is reported.
const ITERS: u32 = 3;

const DEFAULT_KERNELS: [&str; 8] = [
    "cfd_step_factor", "cfd_compute_flux", "kmeans_invert_mapping", "sdk_vectoradd",
    "parboil_sgemm", "bfs_kernel1", "parboil_sad_calc8", "hotspot_calculate_temp",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let blocks: Option<usize> = arg_value(&args, "--blocks").map(|s| s.parse().unwrap_or_else(|_| fail("--blocks expects a number")));
    let mut names: Vec<&str> = args.iter().enumerate()
        .filter(|&(i, a)| !a.starts_with("--") && (i == 0 || args[i - 1] != "--blocks"))
        .map(|(_, a)| a.as_str())
        .collect();
    if names.is_empty() {
        names = DEFAULT_KERNELS.to_vec();
    }

    let cfg = SimConfig::table1();
    let model = Gpumech::new(cfg.clone());
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!("# Section VI-D: modeling speed vs detailed timing simulation");
    println!(
        "# host cpus {cpus}, commit {}, min of {ITERS} after {WARMUP} warmup\n",
        gpumech_perf::git_commit()
    );
    println!(
        "{:<26}{:>12}{:>12}{:>12}{:>10}{:>12}",
        "kernel", "oracle", "analysis", "predict", "speedup", "re-explore"
    );
    let (mut tot_o, mut tot_a, mut tot_p) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    for name in names {
        let mut w = workloads::by_name(name).unwrap_or_else(|| fail(format!("unknown kernel {name}")));
        if let Some(b) = blocks {
            w = w.with_blocks(b);
        }
        let trace = w.trace().unwrap_or_else(|e| fail(format_args!("{name}: trace failed: {e}")));
        let oracle = wall_time(WARMUP, ITERS, || {
            simulate(&trace, &cfg, SchedulingPolicy::RoundRobin).unwrap_or_else(|e| fail(format_args!("{name}: oracle failed: {e}")))
        }).min;
        let analyze = || model.analyze(&trace).unwrap_or_else(|e| fail(format_args!("{name}: analysis failed: {e}")));
        let analysis_t = wall_time(WARMUP, ITERS, analyze).min;
        let analysis = analyze();
        let predict_t = wall_time(WARMUP, ITERS, || {
            model.run(&PredictionRequest::from_analysis(&analysis)).unwrap_or_else(|e| fail(format_args!("{name}: prediction failed: {e}")))
        }).min;
        println!(
            "{:<26}{:>12.2?}{:>12.2?}{:>12.2?}{:>9.0}x{:>11.0}x",
            name,
            oracle,
            analysis_t,
            predict_t,
            oracle.as_secs_f64() / (analysis_t + predict_t).as_secs_f64(),
            oracle.as_secs_f64() / predict_t.as_secs_f64().max(1e-9),
        );
        tot_o += oracle;
        tot_a += analysis_t;
        tot_p += predict_t;
    }
    let model_t = (tot_a + tot_p).as_secs_f64();
    println!(
        "\nTOTAL: oracle {tot_o:.2?}, model {:.2?} -> {:.0}x full-pipeline speedup, {:.0}x when re-exploring configurations",
        tot_a + tot_p,
        tot_o.as_secs_f64() / model_t,
        tot_o.as_secs_f64() / tot_p.as_secs_f64().max(1e-9),
    );
    println!("paper reference: GPUMech is ~97x faster than detailed simulation");
}
