//! Figure 13: mean model error versus resident warps per core
//! (8, 16, 32, 48), round-robin policy.
//!
//! The paper's headline: the baselines' errors *grow* with warp count
//! (more warps → more contention they ignore) while GPUMech stays flat.
//!
//! Usage: `fig13_warps [--blocks N] [--json PATH]`

use gpumech_bench::{arg_value, dump_json, evaluate_kernel, mean_error, pct, Experiment, KernelEval};
use gpumech_core::Model;
use gpumech_isa::SimConfig;
use gpumech_trace::workloads;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let blocks = arg_value(&args, "--blocks").map(|s| s.parse().unwrap_or_else(|_| gpumech_bench::fail("--blocks expects a number")));
    let json = arg_value(&args, "--json");

    println!("# Figure 13: mean error vs warps per core (RR policy)");
    println!("# sweep: 8, 16, 32, 48 resident warps\n");

    let mut all_evals: Vec<KernelEval> = Vec::new();
    let mut rows: Vec<(usize, Vec<f64>)> = Vec::new();
    for warps in [8usize, 16, 32, 48] {
        let mut exp = Experiment::baseline();
        exp.cfg = SimConfig::table1().with_warps_per_core(warps);
        exp.label = format!("warps={warps}");
        if let Some(b) = blocks {
            exp = exp.with_blocks(b);
        }
        let evals: Vec<KernelEval> =
            workloads::all().iter().map(|w| evaluate_kernel(w, &exp)).collect();
        eprintln!("  swept warps={warps}");
        let errs: Vec<f64> = Model::ALL.iter().map(|&m| mean_error(&evals, m)).collect();
        rows.push((warps, errs));
        all_evals.extend(evals);
    }

    print!("{:<8}", "warps");
    for m in Model::ALL {
        print!("{:>16}", m.to_string());
    }
    println!();
    for (warps, errs) in &rows {
        print!("{warps:<8}");
        for e in errs {
            print!("{:>16}", pct(*e));
        }
        println!();
    }
    println!(
        "\npaper reference: all models except MT_MSHR/MT_MSHR_BAND degrade as\n\
         warps increase; GPUMech's error is highest at 8 warps and flat after"
    );

    if let Some(path) = json {
        dump_json(&all_evals, &path).unwrap_or_else(|e| gpumech_bench::fail(format!("write json failed: {e}")));
        eprintln!("wrote {path}");
    }
}
