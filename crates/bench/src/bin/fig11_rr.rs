//! Figure 11: model comparison for the round-robin policy.
//!
//! Runs all 40 workloads under the Table I machine with RR scheduling,
//! evaluates the five Table II models against the cycle-level oracle, and
//! prints per-kernel relative CPI errors plus the paper's summary metrics
//! (mean error per model; fraction of kernels under 20% error for
//! GPUMech vs Markov_Chain).
//!
//! Usage: `fig11_rr [--blocks N] [--json PATH]`

use gpumech_bench::{
    arg_value, dump_json, evaluate_kernel, fraction_below, mean_error, pct, print_error_table,
    Experiment, KernelEval,
};
use gpumech_core::Model;
use gpumech_trace::workloads;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let blocks = arg_value(&args, "--blocks").map(|s| s.parse().unwrap_or_else(|_| gpumech_bench::fail("--blocks expects a number")));
    let json = arg_value(&args, "--json");

    let mut exp = Experiment::baseline();
    exp.label = "fig11-rr".to_string();
    if let Some(b) = blocks {
        exp = exp.with_blocks(b);
    }

    println!("# Figure 11: model comparison, round-robin policy");
    println!("# machine: Table I (16 cores, 32 warps/core, 32 MSHRs, 192 GB/s)\n");

    let evals: Vec<KernelEval> = workloads::all()
        .iter()
        .map(|w| {
            let e = evaluate_kernel(w, &exp);
            eprintln!(
                "  done {:<28} oracle {:>8.3} cpi  ({:>6.2?} sim, {:>6.2?} model)",
                e.name,
                e.oracle_cpi,
                e.oracle_time,
                e.analysis_time + e.predict_time
            );
            e
        })
        .collect();

    print_error_table(&evals, &Model::ALL);

    println!();
    for m in Model::ALL {
        println!(
            "{:<16} mean error {:>7}   kernels under 20% error: {}",
            m.to_string(),
            pct(mean_error(&evals, m)),
            pct(fraction_below(&evals, m, 0.20)),
        );
    }
    println!(
        "\npaper reference: GPUMech 13.2% mean error (RR), Markov_Chain 62.9%;\n\
         75% of kernels under 20% error for GPUMech vs 50% for Markov_Chain"
    );

    if let Some(path) = json {
        dump_json(&evals, &path).unwrap_or_else(|e| gpumech_bench::fail(format!("write json failed: {e}")));
        eprintln!("wrote {path}");
    }
}
