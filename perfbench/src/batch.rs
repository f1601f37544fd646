//! The three batch workloads: `cold-library`, `design-sweep` and
//! `validate`.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use gpumech_core::Prediction;
use gpumech_exec::BatchEngine;
use gpumech_isa::SimConfig;
use gpumech_timing::{simulate, TimingResult};
use gpumech_trace::{workloads, KernelTrace, Workload};

use crate::measure::{secs, Spans};
use crate::pipeline::{self, digest, engine_batch, model_json, Direct, Job, POLICIES};
use crate::plan::{self, Kind};
use crate::report::{Layer, Outcome, Slice};

/// A batch workload's inputs, in the shape both paths consume.
pub struct Plan {
    kind: Kind,
    /// Kernels to trace (grid applied), in order.
    kernels: Vec<Workload>,
    /// `BatchEngine::run` calls, in order; jobs index `kernels`.
    batches: Vec<Vec<Job>>,
    /// Oracle runs (`validate` only): kernel index and configuration,
    /// each simulated under both policies.
    oracle: Vec<(usize, SimConfig)>,
}

fn policy_jobs(trace: usize, cfg: &SimConfig) -> impl Iterator<Item = Job> + '_ {
    POLICIES.into_iter().map(move |policy| Job { trace, cfg: cfg.clone(), policy })
}

/// Builds the catalogue and the seeded inputs.
pub fn prepare(kind: Kind, seed: u64) -> Plan {
    let catalogue: HashMap<String, Workload> =
        workloads::all().into_iter().map(|w| (w.name.clone(), w)).collect();
    let kernel = |name: &str, blocks: usize| catalogue[name].clone().with_blocks(blocks);
    match kind {
        Kind::ColdLibrary => {
            let points = plan::cold_library(seed);
            Plan {
                kind,
                kernels: points.iter().map(|p| kernel(&p.kernel, p.blocks)).collect(),
                batches: vec![points.iter().enumerate().flat_map(|(i, p)| policy_jobs(i, &p.cfg)).collect()],
                oracle: Vec::new(),
            }
        }
        Kind::DesignSweep => {
            let sweep = plan::design_sweep(seed);
            Plan {
                kind,
                kernels: sweep.iter().map(|k| kernel(&k.kernel, plan::FULL_BLOCKS)).collect(),
                batches: sweep
                    .iter()
                    .enumerate()
                    .map(|(i, k)| k.points.iter().flat_map(|c| policy_jobs(i, c)).collect())
                    .collect(),
                oracle: Vec::new(),
            }
        }
        Kind::Validate => {
            let points = plan::validate(seed);
            Plan {
                kind,
                kernels: points.iter().map(|p| kernel(&p.kernel, p.blocks)).collect(),
                batches: vec![points.iter().enumerate().flat_map(|(i, p)| policy_jobs(i, &p.cfg)).collect()],
                oracle: points.iter().enumerate().map(|(i, p)| (i, p.cfg.clone())).collect(),
            }
        }
        Kind::Serve => unreachable!("serve is not a batch workload"),
    }
}

/// What one untraced pass produced.
struct Pass {
    /// Every output, rendered for the digest.
    outputs: Vec<String>,
    /// What the pass measured.
    slice: Slice,
    /// Mean |model - oracle| / oracle CPI, %, for RR and GTO.
    cpi_error_pct: Option<(f64, f64)>,
}

/// Every output of a pass, rendered for the digest: predictions in job
/// order, then oracle results in run order.
fn render(plan: &Plan, preds: &[Prediction], oracle: &[(TimingResult, f64)]) -> Vec<String> {
    let jobs = plan.batches.iter().flatten();
    let mut out: Vec<String> = jobs
        .clone()
        .zip(preds)
        .map(|(j, p)| format!("{}|{:?}|{}", plan.kernels[j.trace].name, j.policy, model_json(p)))
        .collect();
    out.extend(jobs.zip(oracle).map(|(j, (r, _))| {
        let name = &plan.kernels[j.trace].name;
        format!("{name}|{:?}|cycles={}|insts={}|dram={}", j.policy, r.cycles, r.insts, r.dram_requests)
    }));
    out
}

fn trace_all(plan: &Plan) -> Result<Vec<Arc<KernelTrace>>, String> {
    let mut sp = Spans::new(false);
    plan.kernels.iter().map(|w| pipeline::trace(&mut sp, w)).collect()
}

/// Oracle runs under both policies, in plan order, with each run's host time.
fn run_oracle(
    sp: &mut Spans,
    plan: &Plan,
    traces: &[Arc<KernelTrace>],
) -> Result<Vec<(TimingResult, f64)>, String> {
    let mut out = Vec::new();
    for (i, cfg) in &plan.oracle {
        for policy in POLICIES {
            let t0 = Instant::now();
            let r = sp.span("timing.oracle.simulate", |_| simulate(&traces[*i], cfg, policy));
            let r = r.map_err(|e| format!("{}: oracle: {e}", plan.kernels[*i].name))?;
            let dt = secs(t0);
            sp.add("timing.sim_cycles", r.cycles as f64);
            sp.add("timing.dram_requests", r.dram_requests as f64);
            out.push((r, dt));
        }
    }
    Ok(out)
}

/// Mean CPI error per policy of the model jobs (kernel-major, policy-minor
/// order) against the oracle runs (same order).
fn cpi_error_pct(preds: &[Prediction], oracle: &[(TimingResult, f64)]) -> (f64, f64) {
    let mut sums = [0.0; 2];
    for (i, (p, (o, _))) in preds.iter().zip(oracle).enumerate() {
        sums[i % 2] += 100.0 * (p.cpi_total() - o.cpi()).abs() / o.cpi();
    }
    let n = (preds.len() / 2).max(1) as f64;
    (sums[0] / n, sums[1] / n)
}

fn untraced_pass(plan: &Plan, workers: usize) -> Result<Pass, String> {
    let engine = BatchEngine::new(workers);
    match plan.kind {
        Kind::ColdLibrary => {
            let t0 = Instant::now();
            let traces = trace_all(plan)?;
            let preds = engine_batch(&engine, &traces, &plan.batches[0])?;
            let dt = secs(t0);
            Ok(Pass {
                outputs: render(plan, &preds, &[]),
                slice: Slice { items: plan.kernels.len() as f64, busy_s: dt, lat_ms: vec![dt * 1e3] },
                cpi_error_pct: None,
            })
        }
        Kind::DesignSweep => {
            // One kernel at a time: its trace is dropped after its step,
            // while the engine's cache persists across the sweep. The
            // operation timed is the whole sweep: per-kernel steps differ
            // by kernel, so their quantiles would follow the sample.
            let t0 = Instant::now();
            let mut preds = Vec::new();
            let mut sp = Spans::new(false);
            for (w, jobs) in plan.kernels.iter().zip(&plan.batches) {
                let trace = [pipeline::trace(&mut sp, w)?];
                let jobs: Vec<Job> = jobs.iter().map(|j| Job { trace: 0, ..j.clone() }).collect();
                preds.extend(engine_batch(&engine, &trace, &jobs)?);
            }
            let dt = secs(t0);
            let slice = Slice { items: preds.len() as f64, busy_s: dt, lat_ms: vec![dt * 1e3] };
            Ok(Pass { outputs: render(plan, &preds, &[]), slice, cpi_error_pct: None })
        }
        Kind::Validate => {
            // Throughput counts oracle time only; the operation timed is
            // the whole validation pass, model and oracle.
            let t0 = Instant::now();
            let traces = trace_all(plan)?;
            let preds = engine_batch(&engine, &traces, &plan.batches[0])?;
            let oracle = run_oracle(&mut Spans::new(false), plan, &traces)?;
            let slice = Slice {
                items: oracle.iter().map(|(r, _)| r.insts as f64).sum(),
                busy_s: oracle.iter().map(|(_, dt)| dt).sum(),
                lat_ms: vec![secs(t0) * 1e3],
            };
            Ok(Pass { outputs: render(plan, &preds, &oracle), slice, cpi_error_pct: Some(cpi_error_pct(&preds, &oracle)) })
        }
        Kind::Serve => unreachable!("serve is not a batch workload"),
    }
}

/// The untraced run: passes until `seconds` have been measured (at least
/// one). Every pass must reproduce the first pass's outputs exactly.
pub fn run(plan: &Plan, seconds: f64, workers: usize, out: &mut Outcome) {
    let t0 = Instant::now();
    while out.attempted == 0 || secs(t0) < seconds {
        out.attempted += 1;
        let pass = match untraced_pass(plan, workers) {
            Ok(pass) => pass,
            Err(e) => {
                out.fail(e);
                continue;
            }
        };
        let d = digest(pass.outputs.iter().map(String::as_str));
        match out.digest {
            None => {
                out.digest = Some(d);
                if let Some((rr, gto)) = pass.cpi_error_pct {
                    out.info("cpi_error_pct_rr (reduced grid)", rr, "%", plan.kernels.len());
                    out.info("cpi_error_pct_gto (reduced grid)", gto, "%", plan.kernels.len());
                }
            }
            Some(first) if first != d => out.fail(format!("pass {} outputs differ from the first", out.attempted)),
            Some(_) => {}
        }
        out.slices.push(pass.slice);
    }
    let (name, unit) = match plan.kind {
        Kind::ColdLibrary => ("library_kernels_per_s", "kernels/s"),
        Kind::DesignSweep => ("sweep_points_per_s", "predictions/s"),
        _ => ("oracle_insts_per_s", "warp-insts/s"),
    };
    out.info(name, out.throughput(), unit, out.slices.len());
}

/// The traced run: one pass through the engine (the reference outputs),
/// then the same work layer by layer, once plain and once with spans.
pub fn traced(plan: &Plan, layer: &mut Layer) {
    // Engine pass: reference outputs, cache hit ratio, engine wall time.
    let reference = (|| -> Result<_, String> {
        let traces = trace_all(plan)?;
        let engine = BatchEngine::new(1);
        let t0 = Instant::now();
        let mut preds = Vec::new();
        for jobs in &plan.batches {
            preds.extend(engine_batch(&engine, &traces, jobs)?);
        }
        let engine_s = secs(t0);
        let oracle = run_oracle(&mut Spans::new(false), plan, &traces)?;
        Ok((preds, oracle, engine_s, engine.cache().len()))
    })();
    let (ref_preds, ref_oracle, engine_s, entries) = match reference {
        Ok(r) => r,
        Err(e) => return layer.fail(e),
    };
    layer.digest = Some(digest(render(plan, &ref_preds, &ref_oracle).iter().map(String::as_str)));
    let points: usize = plan.batches.iter().map(Vec::len).sum();
    layer.set("exec.cache.points", points as f64);
    layer.set("exec.cache.hit_ratio", 1.0 - entries as f64 / points as f64);

    // Plain and traced passes alternate twice and each mode keeps its
    // fastest wall time, so pass order (first touch of fresh memory)
    // does not bias the overhead.
    let mut walls = [f64::INFINITY; 2];
    for enabled in [false, true, false, true] {
        let mut sp = Spans::new(enabled);
        let t0 = Instant::now();
        let result = sp.span("bench.pass.direct", |sp| -> Result<_, String> {
            let traces: Vec<_> =
                plan.kernels.iter().map(|w| pipeline::trace(sp, w)).collect::<Result<_, _>>()?;
            let t_model = Instant::now();
            let mut direct = Direct::default();
            let mut preds = Vec::new();
            for jobs in &plan.batches {
                preds.extend(direct.batch(sp, &traces, jobs)?);
            }
            let model_s = secs(t_model);
            Ok((preds, run_oracle(sp, plan, &traces)?, model_s))
        });
        let wall = secs(t0);
        let (preds, oracle, model_s) = match result {
            Ok(r) => r,
            Err(e) => return layer.fail(e),
        };
        compare(plan, &ref_preds, &preds, &ref_oracle, &oracle, layer);
        let best = &mut walls[usize::from(enabled)];
        if wall < *best {
            *best = wall;
            if enabled {
                layer.absorb(&sp, wall);
            } else {
                layer.set("exec.batch.overhead_s", engine_s - model_s);
            }
        }
        if enabled && !plan.oracle.is_empty() {
            let (rr, gto) = cpi_error_pct(&preds, &oracle);
            layer.set("accuracy.cpi_error_pct_rr", rr);
            layer.set("accuracy.cpi_error_pct_gto", gto);
        }
    }
    layer.set("bench.trace_overhead_frac", walls[1] / walls[0] - 1.0);
}

/// Counts every direct-path output that differs from the engine path's.
fn compare(
    plan: &Plan,
    ref_preds: &[Prediction],
    preds: &[Prediction],
    ref_oracle: &[(TimingResult, f64)],
    oracle: &[(TimingResult, f64)],
    layer: &mut Layer,
) {
    let jobs: Vec<&Job> = plan.batches.iter().flatten().collect();
    layer.attempted += (jobs.len() + oracle.len()) as u64;
    for ((j, a), b) in jobs.iter().zip(ref_preds).zip(preds) {
        if model_json(a) != model_json(b) {
            layer.fail(format!("{} {:?}: direct path differs from the engine", plan.kernels[j.trace].name, j.policy));
        }
    }
    for (i, ((a, _), (b, _))) in ref_oracle.iter().zip(oracle).enumerate() {
        if a != b {
            layer.fail(format!("oracle run {i}: traced result differs from untraced"));
        }
    }
}
