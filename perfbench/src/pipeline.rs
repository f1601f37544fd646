//! The two ways the benchmark drives the model: through the program's own
//! `BatchEngine` (what users run), and layer by layer through each crate's
//! public functions (what the traced run times). Both must produce the
//! same predictions; the traced run checks that they do.

use std::collections::HashMap;
use std::sync::Arc;

use gpumech_core::{
    build_profile, select_representative, Analysis, Gpumech, Prediction, PredictionRequest,
    SchedulingPolicy, SelectionMethod,
};
use gpumech_exec::{
    analysis_config_fingerprint, cache::payload_checksum, canonical_prediction_json, trace_fingerprint,
    BatchEngine, BatchJob,
};
use gpumech_isa::SimConfig;
use gpumech_perf::AllocScope;
use gpumech_trace::{KernelTrace, Workload};

use crate::measure::Spans;

/// Both scheduling policies, in the order every workload predicts them.
pub const POLICIES: [SchedulingPolicy; 2] =
    [SchedulingPolicy::RoundRobin, SchedulingPolicy::GreedyThenOldest];

/// One prediction to make: a trace (by index), a configuration and a
/// policy, always with the full model and clustering selection.
#[derive(Debug, Clone)]
pub struct Job {
    /// Index into the traces the job list was built against.
    pub trace: usize,
    /// Machine configuration.
    pub cfg: SimConfig,
    /// Warp scheduling policy.
    pub policy: SchedulingPolicy,
}

/// Traces `w`, recording the trace layer's span, counts and allocations.
///
/// # Errors
///
/// The tracer's error, as text.
pub fn trace(sp: &mut Spans, w: &Workload) -> Result<Arc<KernelTrace>, String> {
    sp.span("trace.kernel.run", |sp| {
        let scope = sp.enabled.then(AllocScope::begin);
        let t = w.trace().map_err(|e| format!("{}: {e}", w.name))?;
        if let Some(scope) = scope {
            let d = scope.delta();
            sp.add("trace.alloc_count", d.allocs as f64);
            sp.add("trace.alloc_bytes", d.bytes as f64);
        }
        sp.add("trace.warp_insts", t.total_insts() as f64);
        Ok(Arc::new(t))
    })
}

/// Runs one batch through `engine`, in job order.
///
/// # Errors
///
/// The first failed job, as text.
pub fn engine_batch(
    engine: &BatchEngine,
    traces: &[Arc<KernelTrace>],
    jobs: &[Job],
) -> Result<Vec<Prediction>, String> {
    let batch: Vec<BatchJob> = jobs
        .iter()
        .map(|j| {
            let t = &traces[j.trace];
            let mut b = BatchJob::new(t.name.clone(), Arc::clone(t), j.cfg.clone());
            b.policy = j.policy;
            b
        })
        .collect();
    engine.run(&batch).into_iter().map(|r| r.map_err(|e| e.to_string())).collect()
}

/// The layer-by-layer path. Its analysis memo persists across batches,
/// exactly as a `BatchEngine`'s profile cache does.
#[derive(Default)]
pub struct Direct {
    memo: HashMap<(u64, u64), Arc<Analysis>>,
}

impl Direct {
    /// Predicts `jobs` as one `BatchEngine::run` call would: each distinct
    /// trace fingerprinted once per call, each analysis key analysed once
    /// per `Direct`, then selection and prediction per job.
    ///
    /// # Errors
    ///
    /// A model error, as text.
    pub fn batch(
        &mut self,
        sp: &mut Spans,
        traces: &[Arc<KernelTrace>],
        jobs: &[Job],
    ) -> Result<Vec<Prediction>, String> {
        let mut fps: HashMap<usize, u64> = HashMap::new();
        let mut out = Vec::with_capacity(jobs.len());
        for j in jobs {
            let t = &traces[j.trace];
            let fp = match fps.get(&j.trace) {
                Some(fp) => *fp,
                None => {
                    let fp = sp.span("exec.fingerprint.trace", |_| trace_fingerprint(t));
                    fps.insert(j.trace, fp);
                    fp
                }
            };
            out.push(self.predict(sp, fp, t, &j.cfg, j.policy)?);
        }
        Ok(out)
    }

    /// One prediction for an already-fingerprinted trace.
    ///
    /// # Errors
    ///
    /// A model error, as text.
    pub fn predict(
        &mut self,
        sp: &mut Spans,
        fp: u64,
        t: &KernelTrace,
        cfg: &SimConfig,
        policy: SchedulingPolicy,
    ) -> Result<Prediction, String> {
        let key = (fp, analysis_config_fingerprint(cfg));
        let analysis = match self.memo.get(&key) {
            Some(a) => Arc::clone(a),
            None => {
                let a = Arc::new(analyze(sp, t, cfg));
                self.memo.insert(key, Arc::clone(&a));
                a
            }
        };
        let rep = sp.span("core.cluster.select", |_| {
            select_representative(&analysis.profiles, SelectionMethod::Clustering)
        });
        sp.span("core.predict.run", |_| {
            Gpumech::new(cfg.clone())
                .run(&PredictionRequest::from_profile(&analysis, rep).policy(policy))
                .map_err(|e| format!("{}: {e}", t.name))
        })
    }
}

/// Cache simulation then interval profiling of every warp.
fn analyze(sp: &mut Spans, t: &KernelTrace, cfg: &SimConfig) -> Analysis {
    let mem = sp.span("mem.hierarchy.simulate", |sp| {
        let scope = sp.enabled.then(AllocScope::begin);
        let mem = gpumech_mem::simulate_hierarchy(t, cfg);
        if let Some(scope) = scope {
            sp.add("mem.alloc_count", scope.delta().allocs as f64);
        }
        mem
    });
    let dram: u64 = mem
        .load_pcs()
        .chain(mem.store_pcs())
        .filter_map(|pc| mem.pc_stats(pc))
        .map(|s| s.dram_reqs)
        .sum();
    sp.add("mem.dram_reqs", dram as f64);
    let profiles: Vec<_> = sp.span("core.intervals.build", |_| {
        t.warps.iter().map(|w| build_profile(w, cfg, &mem)).collect()
    });
    sp.add("core.intervals.count", profiles.iter().map(|p| p.intervals.len()).sum::<usize>() as f64);
    let effective_warps = (t.launch.blocks_per_core(cfg.max_warps_per_core)
        * t.launch.warps_per_block())
    .min(t.launch.total_warps());
    Analysis { mem, profiles, effective_warps, stages: Vec::new() }
}

/// A prediction's canonical JSON without its stage report: the engine
/// path records a selection stage and analysis timings that the direct
/// path, which selects by itself, does not.
pub fn model_json(p: &Prediction) -> String {
    let mut p = p.clone();
    p.report = Default::default();
    canonical_prediction_json(&p).unwrap_or_else(|e| format!("unserializable: {e}"))
}

/// Order-sensitive digest of a list of outputs.
pub fn digest<'a>(items: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut h = 0u64;
    for s in items {
        h = payload_checksum(format!("{h:016x}|{s}").as_bytes());
    }
    h
}
