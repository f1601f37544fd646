//! Figure 12: model comparison for the greedy-then-oldest policy.
//!
//! Identical to the Figure 11 harness but with GTO scheduling in both the
//! oracle and the models.
//!
//! Usage: `fig12_gto [--blocks N] [--json PATH]`

use gpumech_bench::{
    arg_value, dump_json, evaluate_kernel, fraction_below, mean_error, pct, print_error_table,
    Experiment, KernelEval,
};
use gpumech_core::Model;
use gpumech_isa::SchedulingPolicy;
use gpumech_trace::workloads;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let blocks = arg_value(&args, "--blocks").map(|s| s.parse().unwrap_or_else(|_| gpumech_bench::fail("--blocks expects a number")));
    let json = arg_value(&args, "--json");

    let mut exp = Experiment::baseline().with_policy(SchedulingPolicy::GreedyThenOldest);
    exp.label = "fig12-gto".to_string();
    if let Some(b) = blocks {
        exp = exp.with_blocks(b);
    }

    println!("# Figure 12: model comparison, greedy-then-oldest policy");
    println!("# machine: Table I\n");

    let evals: Vec<KernelEval> = workloads::all()
        .iter()
        .map(|w| {
            let e = evaluate_kernel(w, &exp);
            eprintln!("  done {:<28} oracle {:>8.3} cpi", e.name, e.oracle_cpi);
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
    println!("\npaper reference: GPUMech 14.0% mean error (GTO), Markov_Chain 65.3%");

    if let Some(path) = json {
        dump_json(&evals, &path).unwrap_or_else(|e| gpumech_bench::fail(format!("write json failed: {e}")));
        eprintln!("wrote {path}");
    }
}
