//! Figure 15: mean model error versus DRAM bandwidth
//! (64, 128, 192, 256 GB/s), round-robin policy.
//!
//! Lower bandwidth means higher DRAM queueing delays, so bandwidth-blind
//! models degrade sharply at 64 GB/s while MT_MSHR_BAND degrades least.
//!
//! Usage: `fig15_dram [--blocks N] [--json PATH]`

use gpumech_bench::{arg_value, dump_json, evaluate_kernel, mean_error, pct, Experiment, KernelEval};
use gpumech_core::Model;
use gpumech_isa::SimConfig;
use gpumech_trace::workloads;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let blocks = arg_value(&args, "--blocks").map(|s| s.parse().unwrap_or_else(|_| gpumech_bench::fail("--blocks expects a number")));
    let json = arg_value(&args, "--json");

    println!("# Figure 15: mean error vs DRAM bandwidth (RR policy)");
    println!("# sweep: 64, 128, 192, 256 GB/s\n");

    let mut all_evals: Vec<KernelEval> = Vec::new();
    let mut rows: Vec<(u32, Vec<f64>)> = Vec::new();
    for bw in [64u32, 128, 192, 256] {
        let mut exp = Experiment::baseline();
        exp.cfg = SimConfig::table1().with_dram_bandwidth(f64::from(bw));
        exp.label = format!("dram={bw}GB/s");
        if let Some(b) = blocks {
            exp = exp.with_blocks(b);
        }
        let evals: Vec<KernelEval> =
            workloads::all().iter().map(|w| evaluate_kernel(w, &exp)).collect();
        eprintln!("  swept dram bandwidth={bw} GB/s");
        rows.push((bw, Model::ALL.iter().map(|&m| mean_error(&evals, m)).collect()));
        all_evals.extend(evals);
    }

    print!("{:<8}", "GB/s");
    for m in Model::ALL {
        print!("{:>16}", m.to_string());
    }
    println!();
    for (bw, errs) in &rows {
        print!("{bw:<8}");
        for e in errs {
            print!("{:>16}", pct(*e));
        }
        println!();
    }
    println!(
        "\npaper reference: GPUMech 26.1% at 64 GB/s and under 17.8% elsewhere;\n\
         the gap between MT_MSHR_BAND and the rest shrinks as bandwidth grows"
    );

    if let Some(path) = json {
        dump_json(&all_evals, &path).unwrap_or_else(|e| gpumech_bench::fail(format!("write json failed: {e}")));
        eprintln!("wrote {path}");
    }
}
