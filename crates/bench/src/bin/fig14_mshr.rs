//! Figure 14: mean model error versus MSHR entries (64, 96, 128, 256),
//! round-robin policy.
//!
//! The paper's point: with more MSHRs the MSHR queueing shrinks (MT and
//! MT_MSHR converge) but DRAM queueing *grows* (more in-flight requests),
//! so only MT_MSHR_BAND tracks the oracle across the sweep.
//!
//! Usage: `fig14_mshr [--blocks N] [--json PATH]`

use gpumech_bench::{arg_value, dump_json, evaluate_kernel, mean_error, pct, Experiment, KernelEval};
use gpumech_core::Model;
use gpumech_isa::SimConfig;
use gpumech_trace::workloads;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let blocks = arg_value(&args, "--blocks").map(|s| s.parse().unwrap_or_else(|_| gpumech_bench::fail("--blocks expects a number")));
    let json = arg_value(&args, "--json");

    println!("# Figure 14: mean error vs MSHR entries (RR policy)");
    println!("# sweep: 64, 96, 128, 256 entries\n");

    let mut all_evals: Vec<KernelEval> = Vec::new();
    let mut rows: Vec<(usize, Vec<f64>)> = Vec::new();
    for mshrs in [64usize, 96, 128, 256] {
        let mut exp = Experiment::baseline();
        exp.cfg = SimConfig::table1().with_mshrs(mshrs);
        exp.label = format!("mshrs={mshrs}");
        if let Some(b) = blocks {
            exp = exp.with_blocks(b);
        }
        let evals: Vec<KernelEval> =
            workloads::all().iter().map(|w| evaluate_kernel(w, &exp)).collect();
        eprintln!("  swept mshrs={mshrs}");
        rows.push((mshrs, Model::ALL.iter().map(|&m| mean_error(&evals, m)).collect()));
        all_evals.extend(evals);
    }

    print!("{:<8}", "mshrs");
    for m in Model::ALL {
        print!("{:>16}", m.to_string());
    }
    println!();
    for (mshrs, errs) in &rows {
        print!("{mshrs:<8}");
        for e in errs {
            print!("{:>16}", pct(*e));
        }
        println!();
    }
    println!(
        "\npaper reference: MT vs MT_MSHR error gap shrinks with more MSHRs;\n\
         every model except MT_MSHR_BAND degrades as entries increase"
    );

    if let Some(path) = json {
        dump_json(&all_evals, &path).unwrap_or_else(|e| gpumech_bench::fail(format!("write json failed: {e}")));
        eprintln!("wrote {path}");
    }
}
