//! Subcommand implementations. Every command returns the text it would
//! print, so tests assert on output without process spawning.

use std::fmt;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError};

use gpumech_analyze::{analyze, KernelAnalysis, Severity};
use gpumech_core::{
    summarize_population, Gpumech, Model, OptionError, Prediction, PredictionRequest,
    RequestOptions, ResolvedOptions, SelectionMethod, StallCategory,
};
use gpumech_exec::{
    analysis_config_fingerprint, job_fingerprints, BatchEngine, BatchError, BatchJob,
    BatchOptions, ExecError, ProfileCache,
};
use gpumech_isa::{Kernel, SimConfig};
use gpumech_obs::Recorder;
use gpumech_perf::{
    baseline::BASELINE_VERSION, run_suite, suite_config, Baseline, SuiteOptions, Tolerance,
    STAGE_NAMES,
};
use gpumech_shard::{
    merge_files, rejected_fingerprint, supervise, verify_expectation, ChaosKill, CounterEntry,
    FindingKind, JobRow, MergeFinding, MergeOptions, MergeOutcome, ShardSpec, SupervisorConfig,
    SweepManifest, SweepReport,
};
use gpumech_timing::simulate;
use gpumech_trace::{workloads, TraceError, Workload};

use crate::args::{ArgError, Args};
use crate::USAGE;

/// Error surfaced to the user by the CLI.
#[derive(Debug)]
pub enum CliError {
    /// Argument parsing or validation failed.
    Args(ArgError),
    /// The named workload does not exist.
    UnknownKernel(String),
    /// The named subcommand does not exist.
    UnknownCommand(String),
    /// A flag accepted only specific values.
    BadChoice {
        /// The flag name.
        flag: &'static str,
        /// The offending value.
        value: String,
        /// The accepted values.
        expected: &'static str,
    },
    /// The machine configuration assembled from `--warps`/`--mshrs`/`--bw`/
    /// `--sfu` flags failed validation.
    Config(String),
    /// The underlying library failed.
    Model(String),
    /// Writing an output file failed.
    Io(std::io::Error),
    /// `lint` found error-severity diagnostics. The report still carries
    /// the full rendered output so `main` can print it before exiting
    /// nonzero.
    LintFailed {
        /// Rendered lint report (same text a clean run would print).
        report: String,
        /// Number of error-severity findings.
        errors: usize,
    },
    /// `obs-validate` found schema or naming violations in a JSONL trace.
    /// The report carries one line per violation so `main` can print it
    /// before exiting nonzero.
    ObsInvalid {
        /// Rendered problem list, one line each.
        report: String,
        /// Number of violations.
        problems: usize,
    },
    /// `perf compare` found stages regressed beyond the noise tolerance.
    /// The report carries the full comparison table so `main` can print
    /// it before exiting nonzero.
    PerfRegression {
        /// Rendered comparison table (same text a clean run would print).
        report: String,
        /// Number of regressed stages.
        regressions: usize,
    },
    /// `merge` (or the auto-merge after `supervise`) found typed merge
    /// findings — corrupt shard files, cross-sweep mixes, coverage gaps,
    /// duplicate conflicts, or a byte mismatch against `--expect`. The
    /// report carries one line per finding so `main` can print it before
    /// exiting nonzero; no merged output is written.
    MergeFailed {
        /// Rendered finding list, one line each.
        report: String,
        /// Number of findings.
        findings: usize,
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}\n\n{USAGE}"),
            CliError::UnknownKernel(k) => {
                write!(f, "unknown kernel {k:?}; run `gpumech list` for the catalogue")
            }
            CliError::UnknownCommand(c) => write!(f, "unknown command {c:?}\n\n{USAGE}"),
            CliError::BadChoice { flag, value, expected } => {
                write!(f, "--{flag} must be one of {expected}, got {value:?}")
            }
            CliError::Config(e) => {
                write!(f, "invalid machine configuration: {e} (run `gpumech config` for defaults)")
            }
            CliError::Model(e) => write!(f, "modeling failed: {e}"),
            CliError::Io(e) => write!(f, "io error: {e}"),
            CliError::LintFailed { errors, .. } => {
                write!(f, "lint found {errors} error-severity finding(s)")
            }
            CliError::ObsInvalid { problems, .. } => {
                write!(f, "observability trace failed validation with {problems} problem(s)")
            }
            CliError::PerfRegression { regressions, .. } => {
                write!(f, "perf compare found {regressions} regressed stage(s)")
            }
            CliError::MergeFailed { findings, .. } => {
                write!(f, "merge failed with {findings} finding(s); no merged output written")
            }
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

const MACHINE_FLAGS: [&str; 5] = ["blocks", "warps", "mshrs", "bw", "sfu"];

/// Serializes installation of the process-global recorder. The recorder
/// slot is shared by every thread, so concurrent commands (the test
/// harness runs them in parallel) must take turns.
static OBS_SERIAL: Mutex<()> = Mutex::new(());

/// Runs `f` under a freshly installed recorder when `--obs-out` was given
/// and writes the JSONL export afterwards; without the flag, runs `f`
/// directly with observability disabled (one atomic load per probe).
fn with_obs<F>(args: &Args, f: F) -> Result<String, CliError>
where
    F: FnOnce() -> Result<String, CliError>,
{
    let Some(path) = args.flag("obs-out") else {
        return f();
    };
    let _serial = OBS_SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let rec = Arc::new(Recorder::new());
    let result = {
        let _installed = gpumech_obs::install(Arc::clone(&rec));
        f()
    };
    let mut out = result?;
    std::fs::write(path, gpumech_obs::to_jsonl(&rec.snapshot()))?;
    out.push_str(&format!("observability trace written to {path}\n"));
    Ok(out)
}

impl From<OptionError> for CliError {
    fn from(e: OptionError) -> Self {
        match e {
            OptionError::BadChoice { field, value, expected } => {
                CliError::BadChoice { flag: field, value, expected }
            }
            OptionError::Config(e) => CliError::Config(e.to_string()),
        }
    }
}

/// The machine and prediction flags, resolved. A flag the subcommand
/// does not accept is absent and takes its default.
fn resolve_options(args: &Args) -> Result<ResolvedOptions, CliError> {
    let opts = RequestOptions {
        warps: args.flag_opt("warps")?,
        mshrs: args.flag_opt("mshrs")?,
        bw: args.flag_opt("bw")?,
        sfu: args.flag_opt("sfu")?,
        policy: args.flag("policy"),
        model: args.flag("model"),
        selection: args.flag("selection"),
    };
    Ok(opts.resolve()?)
}

fn lookup(args: &Args) -> Result<Workload, CliError> {
    let name = args.required(0, "kernel")?;
    let w = workloads::by_name(name).ok_or_else(|| CliError::UnknownKernel(name.to_string()))?;
    Ok(match args.flag_opt::<usize>("blocks")? {
        Some(b) => w.with_blocks(b),
        None => w,
    })
}

/// Dispatches one invocation; returns the text to print.
///
/// # Errors
///
/// Returns a [`CliError`] describing bad arguments, unknown kernels or
/// commands, or failures in the underlying library.
pub fn run<I>(argv: I) -> Result<String, CliError>
where
    I: IntoIterator<Item = String>,
{
    let mut it = argv.into_iter();
    let command = it.next().unwrap_or_else(|| "help".to_string());
    let rest: Vec<String> = it.collect();
    match command.as_str() {
        "list" => cmd_list(&Args::parse(rest, &[])?),
        "config" => cmd_config(&Args::parse(rest, &MACHINE_FLAGS)?),
        "trace" => cmd_trace(&Args::parse(rest, &["blocks", "json"])?),
        "predict" => {
            let args = Args::parse(
                rest,
                &["blocks", "warps", "mshrs", "bw", "sfu", "policy", "model", "selection",
                  "obs-out"],
            )?;
            with_obs(&args, || cmd_predict(&args))
        }
        "simulate" => {
            let args = Args::parse(
                rest,
                &["blocks", "warps", "mshrs", "bw", "sfu", "policy", "obs-out"],
            )?;
            with_obs(&args, || cmd_simulate(&args))
        }
        "compare" => {
            let args = Args::parse(
                rest,
                &["blocks", "warps", "mshrs", "bw", "sfu", "policy", "obs-out"],
            )?;
            with_obs(&args, || cmd_compare(&args))
        }
        "stacks" => {
            let args = Args::parse(rest, &["blocks", "policy", "obs-out"])?;
            with_obs(&args, || cmd_stacks(&args))
        }
        "profile" => cmd_profile(&Args::parse(
            rest,
            &["blocks", "warps", "mshrs", "bw", "sfu", "obs-out", "chrome-out", "folded-out"],
        )?),
        "intervals" => {
            let args = Args::parse(
                rest,
                &["blocks", "warps", "mshrs", "bw", "sfu", "limit", "obs-out"],
            )?;
            with_obs(&args, || cmd_intervals(&args))
        }
        "batch" => {
            // `batch` always records (it surfaces exec.cache/exec.resilience
            // counters in its summary), so it installs its own recorder
            // rather than going through `with_obs`.
            let args = Args::parse_with_switches(
                rest,
                &["blocks", "warps", "mshrs", "bw", "sfu", "policy", "model", "selection",
                  "workers", "sweep", "json", "cache-dir", "obs-out", "timeout-ms",
                  "deadline-ms", "retries", "breaker-threshold", "journal", "shard"],
                &["resume", "oracle"],
            )?;
            cmd_batch(&args)
        }
        "merge" => {
            let args =
                Args::parse(rest, &["out", "report", "expect", "journals", "obs-out"])?;
            with_obs(&args, || cmd_merge(&args))
        }
        "supervise" => {
            let args = Args::parse_with_switches(
                rest,
                &["shards", "dir", "shard-bin", "restart-budget", "heartbeat-ms", "poll-ms",
                  "deadline-ms", "drain-ms", "chaos-kill", "blocks", "warps", "mshrs", "bw",
                  "sfu", "policy", "model", "selection", "workers", "sweep", "cache-dir",
                  "timeout-ms", "retries", "breaker-threshold", "out", "report", "expect",
                  "obs-out"],
                &["oracle"],
            )?;
            with_obs(&args, || cmd_supervise(&args))
        }
        "perf" => {
            let args = Args::parse(
                rest,
                &["out", "baseline", "iters", "warmup", "slow", "tolerance", "obs-out"],
            )?;
            with_obs(&args, || cmd_perf(&args))
        }
        "serve" => {
            let args = Args::parse_with_switches(
                rest,
                &["addr", "port", "workers", "queue-cap", "request-timeout-ms",
                  "read-timeout-ms", "drain-ms", "max-body-bytes", "max-header-bytes",
                  "cache-dir", "warm", "breaker-threshold", "obs-out"],
                &["debug-hooks"],
            )?;
            with_obs(&args, || cmd_serve(&args))
        }
        "lint" => cmd_lint(&Args::parse(rest, &["format", "min-severity", "from-json"])?),
        "obs-validate" => cmd_obs_validate(&Args::parse_with_switches(rest, &[], &["folded"])?),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(CliError::UnknownCommand(other.to_string())),
    }
}

fn cmd_list(_args: &Args) -> Result<String, CliError> {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<28}{:<10}{:<12}{:<8}description\n",
        "name", "suite", "divergence", "cdiv"
    ));
    for w in workloads::all() {
        out.push_str(&format!(
            "{:<28}{:<10}{:<12}{:<8}{}\n",
            w.name,
            w.suite.to_string(),
            format!("{:?}", w.divergence).to_lowercase(),
            if w.control_divergent { "yes" } else { "-" },
            w.description,
        ));
    }
    Ok(out)
}

fn cmd_config(args: &Args) -> Result<String, CliError> {
    let cfg = resolve_options(args)?.config;
    Ok(format!(
        "cores: {}\nclock: {} GHz\nwarps/core: {}\nissue width: {}\n\
         L1: {} KB, {}-way, {} cycles, {} MSHRs\nL2: {} KB, {}-way, {} cycles\n\
         DRAM: {} GB/s, {} cycles (service {:.3} cyc/line)\nSFU lanes: {} (initiation interval {})\n",
        cfg.num_cores,
        cfg.clock_ghz,
        cfg.max_warps_per_core,
        cfg.issue_width,
        cfg.l1.size_bytes / 1024,
        cfg.l1.assoc,
        cfg.l1.latency,
        cfg.num_mshrs,
        cfg.l2.size_bytes / 1024,
        cfg.l2.assoc,
        cfg.l2.latency,
        cfg.dram_bandwidth_gbps,
        cfg.dram_latency,
        cfg.dram_service_cycles(),
        cfg.sfu_per_core,
        cfg.sfu_initiation_interval(),
    ))
}

fn cmd_trace(args: &Args) -> Result<String, CliError> {
    let w = lookup(args)?;
    let trace = w.trace().map_err(|e| CliError::Model(e.to_string()))?;
    let mut out = format!(
        "kernel: {}\nwarps: {}\ntotal instructions: {}\nglobal memory instructions: {}\n",
        trace.name,
        trace.warps.len(),
        trace.total_insts(),
        trace.total_global_mem_insts(),
    );
    let lens: Vec<usize> = trace.warps.iter().map(gpumech_trace::WarpTrace::len).collect();
    let min = lens.iter().min().copied().unwrap_or(0);
    let max = lens.iter().max().copied().unwrap_or(0);
    out.push_str(&format!(
        "per-warp length: min {min}, max {max}, mean {:.1}\n",
        trace.total_insts() as f64 / trace.warps.len().max(1) as f64
    ));
    if let Some(path) = args.flag("json") {
        let json = serde_json::to_string(&trace).map_err(|e| CliError::Model(e.to_string()))?;
        std::fs::write(path, json)?;
        out.push_str(&format!("trace written to {path}\n"));
    }
    Ok(out)
}

fn render_prediction(p: &Prediction, header: &str) -> String {
    let mut out = format!("{header}\n");
    out.push_str(&format!(
        "predicted CPI: {:.3}  (IPC {:.3})\n",
        p.cpi_total(),
        p.ipc()
    ));
    out.push_str(&format!(
        "  multithreading {:.3} + contention {:.3} (MSHR {:.3}, QUEUE {:.3}, SFU {:.3})\n",
        p.multithreading.cpi,
        p.contention.cpi,
        p.contention.cpi_mshr,
        p.contention.cpi_queue,
        p.contention.cpi_sfu,
    ));
    out.push_str(&format!(
        "  representative warp: #{} (single-warp CPI {:.2}), {} warps/core\n",
        p.representative, p.single_warp_cpi, p.warps_per_core
    ));
    out.push_str(&format!("  {}\n", p.cpi.render_bar(60)));
    for w in &p.warnings {
        out.push_str(&format!("  warning: {w}\n"));
    }
    out
}

fn cmd_predict(args: &Args) -> Result<String, CliError> {
    let w = lookup(args)?;
    let opts = resolve_options(args)?;
    let trace = w.trace().map_err(|e| CliError::Model(e.to_string()))?;
    let model = Gpumech::new(opts.config);
    let analysis = model.analyze(&trace).map_err(|e| CliError::Model(e.to_string()))?;
    let req = PredictionRequest::from_analysis(&analysis)
        .policy(opts.policy)
        .model(opts.model)
        .selection(opts.selection)
        .weighting(opts.weighting);
    let p = model.run(&req).map_err(|e| CliError::Model(e.to_string()))?;
    let header = format!("kernel: {} ({} policy, {})", w.name, opts.policy, opts.model);
    Ok(render_prediction(&p, &header))
}

fn cmd_simulate(args: &Args) -> Result<String, CliError> {
    let w = lookup(args)?;
    let ResolvedOptions { config: cfg, policy: pol, .. } = resolve_options(args)?;
    let trace = w.trace().map_err(|e| CliError::Model(e.to_string()))?;
    let t0 = std::time::Instant::now();
    let r = simulate(&trace, &cfg, pol).map_err(|e| CliError::Model(e.to_string()))?;
    let dt = t0.elapsed();
    Ok(format!(
        "kernel: {} ({pol} policy)\ncycles: {}\ninstructions: {}\nCPI: {:.3}  (IPC {:.3})\n\
         DRAM requests: {}  (bus utilization {:.1}%)\nsimulated in {dt:.2?}\n",
        w.name,
        r.cycles,
        r.insts,
        r.cpi(),
        r.ipc(),
        r.dram_requests,
        100.0 * r.dram_utilization,
    ))
}

fn cmd_compare(args: &Args) -> Result<String, CliError> {
    let w = lookup(args)?;
    let ResolvedOptions { config: cfg, policy: pol, .. } = resolve_options(args)?;
    let trace = w.trace().map_err(|e| CliError::Model(e.to_string()))?;
    let oracle = simulate(&trace, &cfg, pol).map_err(|e| CliError::Model(e.to_string()))?;
    let model = Gpumech::new(cfg);
    let analysis = model.analyze(&trace).map_err(|e| CliError::Model(e.to_string()))?;

    let mut out = format!(
        "kernel: {} ({pol} policy)\noracle CPI: {:.3}\n\n{:<16}{:>10}{:>10}\n",
        w.name,
        oracle.cpi(),
        "model",
        "CPI",
        "error"
    );
    for kind in Model::ALL {
        let p = model
            .run(&PredictionRequest::from_analysis(&analysis).policy(pol).model(kind))
            .map_err(|e| CliError::Model(e.to_string()))?;
        let err = (p.cpi_total() - oracle.cpi()).abs() / oracle.cpi();
        out.push_str(&format!(
            "{:<16}{:>10.3}{:>9.1}%\n",
            kind.to_string(),
            p.cpi_total(),
            100.0 * err
        ));
    }
    Ok(out)
}

fn cmd_stacks(args: &Args) -> Result<String, CliError> {
    let w = lookup(args)?;
    let pol = resolve_options(args)?.policy;
    let trace = w.trace().map_err(|e| CliError::Model(e.to_string()))?;
    let mut out = format!("kernel: {} ({pol} policy)\n", w.name);
    out.push_str(&format!("{:<8}", "warps"));
    for cat in StallCategory::ALL {
        out.push_str(&format!("{:>8}", cat.to_string()));
    }
    out.push_str(&format!("{:>10}\n", "CPI"));
    for warps in [8usize, 16, 32, 48] {
        let cfg = SimConfig::table1().with_warps_per_core(warps);
        let model = Gpumech::new(cfg);
        let analysis = model.analyze(&trace).map_err(|e| CliError::Model(e.to_string()))?;
        let p = model
            .run(&PredictionRequest::from_analysis(&analysis).policy(pol))
            .map_err(|e| CliError::Model(e.to_string()))?;
        out.push_str(&format!("{warps:<8}"));
        for cat in StallCategory::ALL {
            out.push_str(&format!("{:>8.2}", p.cpi.get(cat)));
        }
        out.push_str(&format!("{:>10.2}\n", p.cpi_total()));
    }
    Ok(out)
}

/// One `--sweep AXIS=V1,V2,...` axis applied to the base configuration.
/// Without the flag, the base configuration is the single point. Swept
/// values are *not* validated here: the batch engine validates every job's
/// full configuration and reports bad points as per-job errors, so one
/// out-of-range sweep value cannot sink the rest of the batch.
fn sweep_configs(args: &Args, base: &SimConfig) -> Result<Vec<(String, SimConfig)>, CliError> {
    let Some(spec) = args.flag("sweep") else {
        return Ok(vec![(String::new(), base.clone())]);
    };
    let bad = || CliError::BadChoice {
        flag: "sweep",
        value: spec.to_string(),
        expected: "AXIS=V1,V2,... with AXIS one of warps|mshrs|bw|sfu",
    };
    let (axis, values) = spec.split_once('=').ok_or_else(bad)?;
    let mut out = Vec::new();
    for v in values.split(',').filter(|v| !v.is_empty()) {
        let cfg = match axis {
            "warps" => base.clone().with_warps_per_core(v.parse().map_err(|_| bad())?),
            "mshrs" => base.clone().with_mshrs(v.parse().map_err(|_| bad())?),
            "bw" => base.clone().with_dram_bandwidth(v.parse().map_err(|_| bad())?),
            "sfu" => base.clone().with_sfu_per_core(v.parse().map_err(|_| bad())?),
            _ => return Err(bad()),
        };
        out.push((format!(" @ {axis}={v}"), cfg));
    }
    if out.is_empty() {
        return Err(bad());
    }
    Ok(out)
}

/// One entry of the unified sweep enumeration: a runnable job, or a
/// kernel rejected by static verification (one typed failure row per
/// sweep point — every shard enumerates it identically).
enum SweepEntry {
    /// A job that will run (if this shard owns it).
    Run(BatchJob),
    /// A rejected kernel's placeholder for one sweep point.
    Rejected(BatchError),
}

fn cmd_batch(args: &Args) -> Result<String, CliError> {
    let ResolvedOptions { config: cfg, policy: pol, model: kind, selection: sel, weighting } =
        resolve_options(args)?;
    let workers: usize = args.flag_or("workers", 4)?;
    let blocks = args.flag_opt::<usize>("blocks")?;
    let shard: ShardSpec = match args.flag("shard") {
        None => ShardSpec::single(),
        Some(s) => s.parse().map_err(|_| CliError::BadChoice {
            flag: "shard",
            value: s.to_string(),
            expected: "i/N with 0 <= i < N",
        })?,
    };
    let oracle = args.switch("oracle");

    // Kernel set: explicit names, or the whole catalogue for none/"all".
    let mut names: Vec<String> = Vec::new();
    let mut i = 0;
    while let Some(p) = args.positional(i) {
        names.push(p.to_string());
        i += 1;
    }
    let selected: Vec<Workload> = if names.is_empty() || names == ["all"] {
        workloads::all()
    } else {
        names
            .iter()
            .map(|n| workloads::by_name(n).ok_or_else(|| CliError::UnknownKernel(n.clone())))
            .collect::<Result<_, _>>()?
    };

    let points = sweep_configs(args, &cfg)?;
    // The unified enumeration every shard of this sweep computes
    // identically: kernel x sweep point, in order, rejected kernels
    // inline at their position. The manifest (and therefore shard
    // ownership, coverage checking, and merge splice order) is derived
    // from exactly this list.
    let mut entries: Vec<SweepEntry> = Vec::with_capacity(selected.len() * points.len());
    for w in &selected {
        let w = match blocks {
            Some(b) => w.clone().with_blocks(b),
            None => w.clone(),
        };
        match w.trace() {
            Ok(t) => {
                let trace = Arc::new(t);
                for (suffix, cfg) in &points {
                    let mut job = BatchJob::new(
                        format!("{}{suffix}", w.name),
                        Arc::clone(&trace),
                        cfg.clone(),
                    );
                    job.policy = pol;
                    job.model = kind;
                    job.selection = sel;
                    job.weighting = weighting;
                    entries.push(SweepEntry::Run(job));
                }
            }
            Err(TraceError::RejectedByAnalysis { kernel, findings, .. }) => {
                for (suffix, _) in &points {
                    entries.push(SweepEntry::Rejected(BatchError {
                        label: format!("{}{suffix}", w.name),
                        config_fingerprint: 0,
                        error: ExecError::RejectedByAnalysis {
                            kernel: kernel.clone(),
                            findings: findings.clone(),
                        },
                    }));
                }
            }
            Err(e) => return Err(CliError::Model(format!("{}: {e}", w.name))),
        }
    }

    // Stable fingerprints in enumeration order: the journal key for
    // runnable jobs, a synthetic label hash for rejected ones.
    let runnable: Vec<BatchJob> = entries
        .iter()
        .filter_map(|e| match e {
            SweepEntry::Run(j) => Some(j.clone()),
            SweepEntry::Rejected(_) => None,
        })
        .collect();
    let mut run_fps = job_fingerprints(&runnable).into_iter();
    let entry_fps: Vec<u64> = entries
        .iter()
        .map(|e| match e {
            SweepEntry::Run(_) => run_fps.next().unwrap_or(0),
            SweepEntry::Rejected(err) => rejected_fingerprint(&err.label),
        })
        .collect();
    let manifest = SweepManifest::new(
        shard,
        &gpumech_perf::git_commit(),
        analysis_config_fingerprint(&cfg),
        &entry_fps,
    );

    // This shard's slice of the sweep, in enumeration order.
    let owned: Vec<usize> =
        (0..entries.len()).filter(|&i| shard.owns(entry_fps[i])).collect();
    let jobs: Vec<BatchJob> = owned
        .iter()
        .filter_map(|&i| match &entries[i] {
            SweepEntry::Run(j) => Some(j.clone()),
            SweepEntry::Rejected(_) => None,
        })
        .collect();

    let opts = BatchOptions {
        timeout_ms: args.flag_opt("timeout-ms")?,
        deadline_ms: args.flag_opt("deadline-ms")?,
        retries: args.flag_or("retries", 0u32)?,
        breaker_threshold: args.flag_opt("breaker-threshold")?,
        journal: args.flag("journal").map(std::path::PathBuf::from),
        resume: args.switch("resume"),
        ..BatchOptions::default()
    };
    if opts.resume && opts.journal.is_none() {
        return Err(CliError::Args(ArgError::MissingValue(
            "journal (required by --resume)".to_string(),
        )));
    }

    let cache = match args.flag("cache-dir") {
        Some(dir) => ProfileCache::with_disk(dir),
        None => ProfileCache::in_memory(),
    };
    let engine = BatchEngine::with_cache(workers, cache);
    let effective = engine.effective_workers();
    if effective < workers {
        eprintln!(
            "warning: --workers {workers} exceeds this host's available parallelism; \
             running with {effective} worker(s)"
        );
    }
    // Always record: the summary surfaces exec.cache / exec.resilience /
    // shard.partition counters whether or not --obs-out asked for the
    // full trace.
    let _serial = OBS_SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let rec = Arc::new(Recorder::new());
    let t0 = std::time::Instant::now();
    let (results, oracles) = {
        let _installed = gpumech_obs::install(Arc::clone(&rec));
        gpumech_obs::counter!("shard.partition.owned", owned.len() as u64);
        gpumech_obs::counter!("shard.partition.skipped", (entries.len() - owned.len()) as u64);
        let results = engine.run_with(&jobs, &opts);
        // Oracle pass (--oracle): the cycle-level simulator over each
        // *successful* owned job, for the model-vs-oracle report table.
        let oracles: Vec<Option<f64>> = if oracle {
            jobs.iter()
                .zip(&results)
                .map(|(job, r)| {
                    r.as_ref().ok().and_then(|_| {
                        simulate(&job.trace, &job.cfg, job.policy).ok().map(|o| o.cpi())
                    })
                })
                .collect()
        } else {
            vec![None; jobs.len()]
        };
        (results, oracles)
    };
    let dt = t0.elapsed();
    let snap = rec.snapshot();

    let mut out = format!(
        "# batch: {} job(s) ({} kernel(s) x {} config(s)), workers={workers}\n",
        entries.len(),
        selected.len(),
        points.len(),
    );
    if !shard.is_single() {
        out.push_str(&format!(
            "# shard {shard}: owns {} of {} job(s)\n",
            owned.len(),
            entries.len()
        ));
    }
    out.push_str(&format!("{:<40}{:>10}{:>10}\n", "job", "CPI", "IPC"));

    // One row per *owned* enumeration entry, in enumeration order. Row
    // bytes are independent of which shard produced them: cache-layer
    // warnings (environment-dependent) are stripped, and everything else
    // is deterministic — that is what makes a sharded merge byte-identical
    // to an unsharded run.
    let mut rows: Vec<JobRow> = Vec::with_capacity(owned.len());
    let mut failures = 0usize;
    let mut run_ix = 0usize;
    for &i in &owned {
        let fingerprint = gpumech_shard::fingerprint_hex(entry_fps[i]);
        match &entries[i] {
            SweepEntry::Rejected(e) => {
                failures += 1;
                out.push_str(&format!("{:<40}  skipped: {}\n", e.label, e.error));
                rows.push(JobRow {
                    label: e.label.clone(),
                    fingerprint,
                    cpi: None,
                    ipc: None,
                    stack: None,
                    oracle_cpi: None,
                    error: Some(e.to_string()),
                    warnings: Vec::new(),
                });
            }
            SweepEntry::Run(job) => {
                let (r, oracle_cpi) = (&results[run_ix], oracles[run_ix]);
                run_ix += 1;
                match r {
                    Ok(p) => {
                        out.push_str(&format!(
                            "{:<40}{:>10.3}{:>10.3}\n",
                            job.label,
                            p.cpi_total(),
                            p.ipc()
                        ));
                        for w in &p.warnings {
                            out.push_str(&format!("    warning: {w}\n"));
                        }
                        rows.push(JobRow {
                            label: job.label.clone(),
                            fingerprint,
                            cpi: Some(p.cpi_total()),
                            ipc: Some(p.ipc()),
                            stack: Some(p.cpi),
                            oracle_cpi,
                            error: None,
                            warnings: p
                                .warnings
                                .iter()
                                .filter(|w| !w.starts_with("cache: "))
                                .cloned()
                                .collect(),
                        });
                    }
                    Err(e) => {
                        failures += 1;
                        out.push_str(&format!("{:<40}  error: {}\n", job.label, e.error));
                        rows.push(JobRow {
                            label: job.label.clone(),
                            fingerprint,
                            cpi: None,
                            ipc: None,
                            stack: None,
                            oracle_cpi: None,
                            // The full payload: kernel name + config
                            // fingerprint + underlying error.
                            error: Some(e.to_string()),
                            warnings: Vec::new(),
                        });
                    }
                }
            }
        }
    }
    out.push_str(&format!(
        "# {} ok, {failures} failed; {} cached analysis(es); {dt:.2?} wall\n",
        owned.len() - failures,
        engine.cache().len(),
    ));
    // Cache, resilience, and partition behaviour, visible without
    // --obs-out: every counter the run incremented, by family.
    for family in ["exec.cache.", "exec.resilience.", "shard."] {
        let line: Vec<String> = snap
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with(family))
            .map(|(name, agg)| {
                let short = name.rsplit('.').next().unwrap_or(name);
                format!("{short}={}", agg.total)
            })
            .collect();
        if !line.is_empty() {
            let label = family.trim_end_matches('.');
            out.push_str(&format!("# {label}: {}\n", line.join(" ")));
        }
    }
    if let Some(path) = args.flag("json") {
        let mut counters: Vec<CounterEntry> = snap
            .counters
            .iter()
            .map(|(name, agg)| CounterEntry { name: (*name).to_string(), total: agg.total })
            .collect();
        counters.sort_by(|a, b| a.name.cmp(&b.name));
        let report = SweepReport {
            manifest,
            workers: workers as u64,
            cache_entries: engine.cache().len() as u64,
            counters,
            jobs_checksum: String::new(), // recomputed on render
            jobs: rows,
        };
        report
            .write(std::path::Path::new(path))
            .map_err(CliError::Model)?;
        out.push_str(&format!("batch report written to {path}\n"));
    }
    if let Some(path) = args.flag("obs-out") {
        std::fs::write(path, gpumech_obs::to_jsonl(&snap))?;
        out.push_str(&format!("observability trace written to {path}\n"));
    }
    Ok(out)
}

/// Finishes a merge: runs the `--expect` byte-identity check, converts
/// findings into the exit-code-5 error, and writes `--out` / `--report`
/// on success. Shared by `merge` and the auto-merge after `supervise`.
fn finish_merge(args: &Args, mut outcome: MergeOutcome) -> Result<String, CliError> {
    if let (Some(m), Some(expect)) = (&outcome.merged, args.flag("expect")) {
        let expect_text = std::fs::read_to_string(expect)
            .map_err(|e| CliError::Model(format!("--expect {expect}: {e}")))?;
        let merged_text = m.render_json().map_err(CliError::Model)?;
        match verify_expectation(&merged_text, &expect_text) {
            None => outcome.notes.push(format!(
                "byte-identical to the reference run {expect} (from jobs_checksum on)"
            )),
            Some(detail) => outcome.findings.push(MergeFinding {
                kind: FindingKind::ExpectationMismatch,
                path: expect.to_string(),
                detail,
            }),
        }
    }
    if !outcome.findings.is_empty() {
        let mut report = String::new();
        for f in &outcome.findings {
            report.push_str(&format!("finding: {f}\n"));
        }
        for q in &outcome.quarantined {
            report.push_str(&format!("quarantined: {q}\n"));
        }
        return Err(CliError::MergeFailed { report, findings: outcome.findings.len() });
    }
    let Some(m) = outcome.merged else {
        // Unreachable: a merge without findings always carries output.
        return Err(CliError::Model("merge produced no output and no findings".to_string()));
    };
    let ok = m.rows.iter().filter(|r| r.error.is_none()).count();
    let mut out = format!(
        "# merge: {} shard file(s), {} row(s) ({ok} ok, {} failed), sweep {}\n",
        outcome.files_ok,
        m.rows.len(),
        m.rows.len() - ok,
        m.manifest.sweep_fingerprint,
    );
    for note in &outcome.notes {
        out.push_str(&format!("# note: {note}\n"));
    }
    if let Some(path) = args.flag("out") {
        m.write_json(std::path::Path::new(path)).map_err(CliError::Model)?;
        out.push_str(&format!("merged sweep written to {path}\n"));
    }
    if let Some(path) = args.flag("report") {
        std::fs::write(path, m.render_markdown())?;
        out.push_str(&format!("sweep report written to {path}\n"));
    }
    Ok(out)
}

/// `gpumech merge`: union shard result files into one verified sweep.
/// Any typed finding — corrupt file, cross-sweep mix, coverage gap,
/// duplicate conflict, journal corruption, `--expect` mismatch — aborts
/// with exit code 5 and no merged output.
fn cmd_merge(args: &Args) -> Result<String, CliError> {
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut i = 0;
    while let Some(p) = args.positional(i) {
        paths.push(PathBuf::from(p));
        i += 1;
    }
    if paths.is_empty() {
        return Err(CliError::Args(ArgError::MissingValue(
            "shard result file(s) to merge".to_string(),
        )));
    }
    let journals: Vec<PathBuf> = args
        .flag("journals")
        .map(|list| list.split(',').filter(|s| !s.is_empty()).map(PathBuf::from).collect())
        .unwrap_or_default();
    let outcome = merge_files(&paths, &MergeOptions { quarantine: true, journals });
    finish_merge(args, outcome)
}

/// `gpumech supervise`: run a sharded sweep under the crash-tolerant
/// local supervisor, then auto-merge the shard results.
fn cmd_supervise(args: &Args) -> Result<String, CliError> {
    let shards: u32 = args.flag_or("shards", 3u32)?;
    let dir = PathBuf::from(args.flag("dir").unwrap_or("gpumech-sweep"));
    let program = match args.flag("shard-bin") {
        Some(p) => PathBuf::from(p),
        None => std::env::current_exe()
            .map_err(|e| CliError::Model(format!("cannot locate the gpumech binary: {e}")))?,
    };

    // Shard children run `batch` with the forwarded sweep definition; the
    // supervisor appends --shard/--journal/--json/--resume per child.
    let mut shared = vec!["batch".to_string()];
    let mut i = 0;
    while let Some(p) = args.positional(i) {
        shared.push(p.to_string());
        i += 1;
    }
    for f in ["blocks", "warps", "mshrs", "bw", "sfu", "policy", "model", "selection",
              "workers", "sweep", "cache-dir", "timeout-ms", "retries", "breaker-threshold"]
    {
        if let Some(v) = args.flag(f) {
            shared.push(format!("--{f}"));
            shared.push(v.to_string());
        }
    }
    if args.switch("oracle") {
        shared.push("--oracle".to_string());
    }

    let mut chaos_kills: Vec<ChaosKill> = Vec::new();
    if let Some(spec) = args.flag("chaos-kill") {
        for part in spec.split(',').filter(|s| !s.is_empty()) {
            chaos_kills.push(part.parse().map_err(|_| CliError::BadChoice {
                flag: "chaos-kill",
                value: part.to_string(),
                expected: "shard@lines[,shard@lines...]",
            })?);
        }
    }

    let mut cfg = SupervisorConfig::new(program, dir, shards);
    cfg.shared_args = shared;
    cfg.restart_budget = args.flag_or("restart-budget", 3u32)?;
    cfg.heartbeat_ms = args.flag_or("heartbeat-ms", 30_000u64)?;
    cfg.poll_ms = args.flag_or("poll-ms", 25u64)?;
    cfg.deadline_ms = args.flag_opt("deadline-ms")?;
    cfg.drain_ms = args.flag_or("drain-ms", 2_000u64)?;
    cfg.chaos_kills = chaos_kills;
    cfg.handle_signals = true;

    let summary = supervise(&cfg).map_err(|e| CliError::Model(e.to_string()))?;
    let mut out = summary.render();
    if summary.drained {
        out.push_str("# drained before completion; shard journals remain valid for --resume\n");
        return Ok(out);
    }

    // Auto-merge the completed shards, cross-checking every journal.
    let journals: Vec<PathBuf> = (0..shards).map(|i| cfg.journal_path(i)).collect();
    let outcome = merge_files(
        &summary.result_paths,
        &MergeOptions { quarantine: true, journals },
    );
    out.push_str(&finish_merge(args, outcome)?);
    Ok(out)
}

/// `gpumech serve`: run the hardened HTTP prediction service until a
/// drain is requested (SIGTERM/ctrl-c), then return the run summary.
///
/// The "listening on" line is printed (and flushed) *before* the accept
/// loop blocks, so callers that spawn the process — the smoke test, the
/// load harness, an orchestrator — can scrape the bound port from the
/// first line of stdout.
fn cmd_serve(args: &Args) -> Result<String, CliError> {
    let warm: Vec<String> = match args.flag("warm") {
        None => Vec::new(),
        Some("all") => workloads::all().iter().map(|w| w.name.to_string()).collect(),
        Some(list) => list
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect(),
    };
    let cfg = gpumech_serve::ServeConfig {
        addr: args.flag("addr").unwrap_or("127.0.0.1").to_string(),
        port: args.flag_or("port", 0u16)?,
        workers: args.flag_or("workers", 4usize)?,
        queue_cap: args.flag_or("queue-cap", 32usize)?,
        read_timeout_ms: args.flag_or("read-timeout-ms", 2_000u64)?,
        request_timeout_ms: args.flag_or("request-timeout-ms", 30_000u64)?,
        drain_ms: args.flag_or("drain-ms", 5_000u64)?,
        max_header_bytes: args.flag_or("max-header-bytes", 8 * 1024usize)?,
        max_body_bytes: args.flag_or("max-body-bytes", 64 * 1024usize)?,
        breaker_threshold: args.flag_opt("breaker-threshold")?,
        cache_dir: args.flag("cache-dir").map(std::path::PathBuf::from),
        warm,
        debug_hooks: args.switch("debug-hooks"),
        handle_signals: true,
    };
    let server = gpumech_serve::Server::bind(cfg).map_err(|e| CliError::Model(e.to_string()))?;
    println!("gpumech-serve listening on http://{}", server.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    let summary = server.run().map_err(|e| CliError::Model(e.to_string()))?;
    Ok(format!("{summary}\n"))
}

/// The traced portion of `profile`: everything that should land inside
/// the installed recorder's spans runs here, between install and snapshot.
fn profile_pipeline(
    w: &Workload,
    cfg: SimConfig,
) -> Result<(gpumech_core::Analysis, Prediction), CliError> {
    let trace = w.trace().map_err(|e| CliError::Model(e.to_string()))?;
    let model = Gpumech::new(cfg);
    let analysis = model.analyze(&trace).map_err(|e| CliError::Model(e.to_string()))?;
    let p = model
        .run(&PredictionRequest::from_analysis(&analysis))
        .map_err(|e| CliError::Model(e.to_string()))?;
    Ok((analysis, p))
}

fn cmd_profile(args: &Args) -> Result<String, CliError> {
    let w = lookup(args)?;
    let cfg = resolve_options(args)?.config;

    // `profile` is the observability entry point: it always records, and
    // appends the per-stage report and recorder summary to its output.
    let _serial = OBS_SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let rec = Arc::new(Recorder::new());
    let profiled = {
        let _installed = gpumech_obs::install(Arc::clone(&rec));
        profile_pipeline(&w, cfg)
    };
    let (analysis, p) = profiled?;
    let pop = summarize_population(&analysis.profiles);
    let rep = p.representative;
    let s = analysis.profiles[rep].summary();

    let mut out = format!("kernel: {}\n\n== warp population ==\n", w.name);
    out.push_str(&format!(
        "warps: {}\nper-warp IPC: min {:.4}, mean {:.4}, max {:.4} (cv {:.2})\n\
         per-warp instructions: min {}, mean {:.1}, max {}\n",
        pop.num_warps,
        pop.perf_min,
        pop.perf_mean,
        pop.perf_max,
        pop.perf_cv,
        pop.insts_min,
        pop.insts_mean,
        pop.insts_max,
    ));
    out.push_str(&format!("\n== representative warp #{rep} ==\n"));
    out.push_str(&format!(
        "intervals: {} (avg {:.1} insts, avg stall {:.1} cycles)\n\
         instructions: {} ({} loads, {} stores)\n\
         stall cycles: {:.0} total — {:.0} compute, {:.0} memory\n\
         divergence degree: {:.1} requests per memory instruction\n\
         MSHR-allocating requests/inst: {:.2}\nDRAM-reaching requests/inst: {:.2}\n\
         avg miss latency (no queueing): {:.0} cycles\n",
        s.num_intervals,
        s.avg_interval_insts,
        s.avg_stall_cycles,
        s.total_insts,
        s.load_insts,
        s.store_insts,
        s.total_stall_cycles,
        s.compute_stall_cycles,
        s.memory_stall_cycles,
        s.divergence_degree,
        s.mshr_reqs_per_inst,
        s.dram_reqs_per_inst,
        analysis.mem.avg_miss_latency(),
    ));
    out.push_str("\n== pipeline stages ==\n");
    out.push_str(&p.report.render());
    let snap = rec.snapshot();
    out.push_str("\n== recorder ==\n");
    out.push_str(&gpumech_obs::render_tree(&snap));
    if let Some(path) = args.flag("obs-out") {
        std::fs::write(path, gpumech_obs::to_jsonl(&snap))?;
        out.push_str(&format!("observability trace written to {path}\n"));
    }
    if let Some(path) = args.flag("chrome-out") {
        std::fs::write(path, gpumech_obs::to_chrome_trace(&snap))?;
        out.push_str(&format!("Chrome trace written to {path}\n"));
    }
    if let Some(path) = args.flag("folded-out") {
        std::fs::write(path, gpumech_perf::to_folded(&snap))?;
        out.push_str(&format!("folded stacks written to {path}\n"));
    }
    // Self-time attribution: where the wall time actually went, not just
    // which stage contained it.
    let attrs = gpumech_perf::attribute(&snap);
    if !attrs.is_empty() {
        out.push_str("\n== self-time attribution ==\n");
        out.push_str(&format!(
            "{:<44}{:>6}{:>12}{:>12}{:>12}\n",
            "span", "count", "total", "self", "child"
        ));
        for a in &attrs {
            out.push_str(&format!(
                "{:<44}{:>6}{:>11.3}m{:>11.3}m{:>11.3}m\n",
                a.name,
                a.count,
                a.total_ns as f64 / 1e6,
                a.self_ns as f64 / 1e6,
                a.child_ns as f64 / 1e6,
            ));
        }
    }
    Ok(out)
}

/// Parses `--slow stage=millis[,stage=millis...]` into suite slowdowns —
/// the fault hook the perf-gate acceptance test uses.
fn parse_slow(args: &Args) -> Result<Vec<(String, u64)>, CliError> {
    let Some(spec) = args.flag("slow") else {
        return Ok(Vec::new());
    };
    let bad = |value: &str| CliError::BadChoice {
        flag: "slow",
        value: value.to_string(),
        expected: "stage=millis[,stage=millis...] with a known stage name",
    };
    spec.split(',')
        .map(|part| {
            let (name, ms) = part.split_once('=').ok_or_else(|| bad(part))?;
            if !STAGE_NAMES.contains(&name) {
                return Err(bad(part));
            }
            let ms: u64 = ms.parse().map_err(|_| bad(part))?;
            Ok((name.to_string(), ms))
        })
        .collect()
}

/// `gpumech perf record|compare`: run the named micro-benchmark suite and
/// either persist a baseline or gate against one.
fn cmd_perf(args: &Args) -> Result<String, CliError> {
    let action = args.required(0, "record|compare")?;
    let opts = SuiteOptions {
        iters: args.flag_or("iters", 5u32)?,
        warmup: args.flag_or("warmup", 2u32)?,
        slow: parse_slow(args)?,
    };
    match action {
        "record" => cmd_perf_record(args, &opts),
        "compare" => cmd_perf_compare(args, &opts),
        other => Err(CliError::BadChoice {
            flag: "perf",
            value: other.to_string(),
            expected: "record|compare",
        }),
    }
}

/// Default baseline location, shared by `record` and `compare`.
const PERF_BASELINE_PATH: &str = "results/PERF_BASELINE.json";

fn render_suite_table(results: &[gpumech_perf::BenchResult]) -> String {
    let mut out = format!(
        "{:<12}{:>12}{:>12}{:>10}{:>14}{:>14}\n",
        "stage", "min", "mean", "allocs", "alloc_bytes", "peak_live"
    );
    for r in results {
        out.push_str(&format!(
            "{:<12}{:>11.3}m{:>11.3}m{:>10}{:>14}{:>14}\n",
            r.name,
            r.min_ns as f64 / 1e6,
            r.mean_ns as f64 / 1e6,
            r.allocs,
            r.alloc_bytes,
            r.peak_live_bytes,
        ));
    }
    out
}

fn cmd_perf_record(args: &Args, opts: &SuiteOptions) -> Result<String, CliError> {
    let results = run_suite(opts).map_err(|e| CliError::Model(e.to_string()))?;
    let baseline = Baseline {
        version: BASELINE_VERSION,
        git_commit: gpumech_perf::git_commit(),
        config_fingerprint: analysis_config_fingerprint(&suite_config()),
        // The count the timer ran, which is at least 1 whatever was asked.
        iters: results.first().map_or(opts.iters, |r| r.iters),
        warmup: opts.warmup,
        results,
    };
    let path = args.flag("out").unwrap_or(PERF_BASELINE_PATH);
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut json = baseline.to_json().map_err(|e| CliError::Model(e.to_string()))?;
    json.push('\n');
    std::fs::write(path, json)?;
    let mut out = format!(
        "# perf record: {} stage(s), min-of-{} after {} warmup, commit {}\n",
        baseline.results.len(),
        baseline.iters,
        baseline.warmup,
        baseline.git_commit,
    );
    out.push_str(&render_suite_table(&baseline.results));
    out.push_str(&format!("baseline written to {path}\n"));
    Ok(out)
}

fn cmd_perf_compare(args: &Args, opts: &SuiteOptions) -> Result<String, CliError> {
    let path = args.flag("baseline").unwrap_or(PERF_BASELINE_PATH);
    let text = std::fs::read_to_string(path)?;
    let base = Baseline::from_json(&text).map_err(|e| CliError::Model(e.to_string()))?;
    let tol_pct: f64 = args.flag_or("tolerance", 40.0)?;
    let tol = Tolerance { rel: tol_pct / 100.0, ..Tolerance::default() };
    let results = run_suite(opts).map_err(|e| CliError::Model(e.to_string()))?;
    let cmp = gpumech_perf::compare(&base, &results, tol);
    let mut report = format!("# baseline: {path} (commit {})\n", base.git_commit);
    if base.config_fingerprint != analysis_config_fingerprint(&suite_config()) {
        report.push_str(
            "# warning: baseline was recorded against a different machine configuration\n",
        );
    }
    report.push_str(&cmp.render());
    let regressions = cmp.regressions();
    if regressions > 0 {
        Err(CliError::PerfRegression { report, regressions })
    } else {
        Ok(report)
    }
}

fn cmd_intervals(args: &Args) -> Result<String, CliError> {
    let w = lookup(args)?;
    let cfg = resolve_options(args)?.config;
    let limit: usize = args.flag_or("limit", 20)?;
    let trace = w.trace().map_err(|e| CliError::Model(e.to_string()))?;
    let model = Gpumech::new(cfg);
    let analysis = model.analyze(&trace).map_err(|e| CliError::Model(e.to_string()))?;
    let rep = gpumech_core::select_representative(&analysis.profiles, SelectionMethod::Clustering);
    let profile = &analysis.profiles[rep];

    let mut out = format!(
        "kernel: {} — representative warp #{rep} ({} intervals, showing {})\n\n",
        w.name,
        profile.intervals.len(),
        limit.min(profile.intervals.len())
    );
    out.push_str(&format!(
        "{:<6}{:>7}{:>10}{:>10}{:>8}{:>8}{:>9}{:>9}  cause\n",
        "#", "insts", "stall", "loads", "stores", "reqs", "mshr", "dram"
    ));
    for (i, iv) in profile.intervals.iter().take(limit).enumerate() {
        let cause = match iv.cause {
            gpumech_core::StallCause::None => "-".to_string(),
            gpumech_core::StallCause::Compute => "compute".to_string(),
            gpumech_core::StallCause::Memory { pc } => format!("load@pc{pc}"),
        };
        out.push_str(&format!(
            "{:<6}{:>7}{:>10.1}{:>10}{:>8}{:>8.1}{:>9.2}{:>9.2}  {cause}\n",
            i, iv.insts, iv.stall_cycles, iv.load_insts, iv.store_insts, iv.mem_reqs,
            iv.mshr_reqs, iv.dram_reqs,
        ));
    }
    if profile.intervals.len() > limit {
        out.push_str(&format!("... {} more (use --limit)\n", profile.intervals.len() - limit));
    }
    Ok(out)
}

/// Validates a `--obs-out` JSONL trace (or, with `--folded`, a
/// folded-stack export) against the exporter schema and the
/// `stage.subsystem.name` scheme. Exits nonzero on any violation.
fn cmd_obs_validate(args: &Args) -> Result<String, CliError> {
    let path = args.required(0, "path")?;
    let text = std::fs::read_to_string(path)?;
    let verdict = if args.switch("folded") {
        gpumech_obs::validate_folded(&text)
            .map(|stacks| format!("{path}: valid folded stacks — {stacks} stack line(s)\n"))
    } else {
        gpumech_obs::validate_jsonl(&text).map(|c| {
            format!(
                "{path}: valid — {} span(s), {} metric sample(s), {} aggregate(s); \
                 all names within stage.subsystem.name\n",
                c.spans, c.metrics, c.aggregates
            )
        })
    };
    verdict.map_err(|problems| CliError::ObsInvalid {
        report: problems.iter().map(|p| format!("{path}: {p}\n")).collect(),
        problems: problems.len(),
    })
}

fn cmd_lint(args: &Args) -> Result<String, CliError> {
    let target = args.positional(0).unwrap_or("all");
    let min = match args.flag("min-severity").unwrap_or("info") {
        "info" => Severity::Info,
        "warning" => Severity::Warning,
        "error" => Severity::Error,
        other => {
            return Err(CliError::BadChoice {
                flag: "min-severity",
                value: other.to_string(),
                expected: "info|warning|error",
            })
        }
    };
    // Kernels to lint: a JSON file of serialized kernels (external input),
    // or the named catalogue workload, or the whole catalogue.
    let kernels: Vec<Kernel> = if let Some(path) = args.flag("from-json") {
        let text = std::fs::read_to_string(path)?;
        // Accept both a single kernel object and an array of kernels.
        serde_json::from_str::<Vec<Kernel>>(&text)
            .or_else(|_| serde_json::from_str::<Kernel>(&text).map(|k| vec![k]))
            .map_err(|e| CliError::Model(format!("{path}: {e}")))?
    } else if target == "all" {
        workloads::all().into_iter().map(|w| w.kernel).collect()
    } else {
        vec![workloads::by_name(target)
            .ok_or_else(|| CliError::UnknownKernel(target.to_string()))?
            .kernel]
    };

    let analyses: Vec<(String, KernelAnalysis)> =
        kernels.iter().map(|k| (k.name.clone(), analyze(k))).collect();
    let count = |sev| {
        analyses
            .iter()
            .flat_map(|(_, a)| &a.diagnostics)
            .filter(|d| d.severity == sev)
            .count()
    };
    let (errors, warnings, infos) =
        (count(Severity::Error), count(Severity::Warning), count(Severity::Info));

    let report = match args.flag("format").unwrap_or("text") {
        "json" => {
            let objs: Vec<&KernelAnalysis> = analyses.iter().map(|(_, a)| a).collect();
            let mut s =
                serde_json::to_string_pretty(&objs).map_err(|e| CliError::Model(e.to_string()))?;
            s.push('\n');
            s
        }
        "text" => {
            let mut out = String::new();
            for (name, a) in &analyses {
                let m = &a.metrics;
                out.push_str(&format!(
                    "{:<28}{:<9}{:>6} insts  {:>2}/{:<2} branches divergent  \
                     mem b/c/s/x {}/{}/{}/{}",
                    name,
                    a.max_severity().map_or("clean".to_string(), |s| s.to_string()),
                    m.insts,
                    m.divergent_branches,
                    m.branches,
                    m.broadcast_accesses,
                    m.coalesced_accesses,
                    m.strided_accesses,
                    m.scattered_accesses,
                ));
                if m.shared_accesses > 0 {
                    out.push_str(&format!(
                        "  shared {}: {} race pair(s), {}-way banks",
                        m.shared_accesses, m.race_pairs, m.max_bank_degree,
                    ));
                }
                out.push('\n');
                for d in a.diagnostics_at_least(min) {
                    out.push_str(&format!("    {d}\n"));
                }
            }
            out.push_str(&format!(
                "\nlinted {} kernel(s): {errors} error(s), {warnings} warning(s), \
                 {infos} info(s)\n",
                analyses.len()
            ));
            out
        }
        other => {
            return Err(CliError::BadChoice {
                flag: "format",
                value: other.to_string(),
                expected: "text|json",
            })
        }
    };

    if errors > 0 {
        Err(CliError::LintFailed { report, errors })
    } else {
        Ok(report)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use serde::Value;

    fn run_ok(argv: &[&str]) -> String {
        run(argv.iter().map(ToString::to_string)).expect("command succeeds")
    }

    fn run_err(argv: &[&str]) -> CliError {
        run(argv.iter().map(ToString::to_string)).expect_err("command fails")
    }

    #[test]
    fn help_prints_usage() {
        assert!(run_ok(&["help"]).contains("USAGE"));
        assert!(run_ok(&[]).contains("USAGE"), "no args defaults to help");
    }

    #[test]
    fn list_names_all_40_workloads() {
        let out = run_ok(&["list"]);
        assert_eq!(out.lines().count(), 41, "header + 40 rows");
        assert!(out.contains("kmeans_invert_mapping"));
        assert!(out.contains("cfd_step_factor"));
    }

    #[test]
    fn config_reflects_overrides() {
        let out = run_ok(&["config", "--mshrs", "64", "--bw", "96"]);
        assert!(out.contains("64 MSHRs"));
        assert!(out.contains("96 GB/s"));
        assert!(out.contains("cores: 16"));
    }

    #[test]
    fn trace_reports_statistics() {
        let out = run_ok(&["trace", "sdk_vectoradd", "--blocks", "2"]);
        assert!(out.contains("warps: 16"));
        assert!(out.contains("total instructions:"));
    }

    #[test]
    fn predict_outputs_cpi_and_stack_bar() {
        let out = run_ok(&["predict", "sdk_vectoradd", "--blocks", "8"]);
        assert!(out.contains("predicted CPI:"));
        assert!(out.contains("=BASE:"), "stack bar legend expected: {out}");
    }

    #[test]
    fn predict_weighted_selection_works() {
        let out =
            run_ok(&["predict", "lud_diagonal", "--blocks", "8", "--selection", "weighted"]);
        assert!(out.contains("predicted CPI:"));
    }

    #[test]
    fn simulate_and_compare_run() {
        let out = run_ok(&["simulate", "sdk_vectoradd", "--blocks", "4"]);
        assert!(out.contains("cycles:"));
        let out = run_ok(&["compare", "sdk_vectoradd", "--blocks", "4"]);
        assert!(out.contains("Naive_Interval"));
        assert!(out.contains("MT_MSHR_BAND"));
    }

    #[test]
    fn stacks_sweeps_warp_counts() {
        let out = run_ok(&["stacks", "sdk_vectoradd", "--blocks", "8"]);
        assert!(out.contains("QUEUE"));
        assert_eq!(out.lines().filter(|l| l.starts_with(char::is_numeric)).count(), 4);
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(matches!(run_err(&["predict"]), CliError::Args(_)));
        assert!(matches!(run_err(&["predict", "nope"]), CliError::UnknownKernel(_)));
        assert!(matches!(run_err(&["frobnicate"]), CliError::UnknownCommand(_)));
        assert!(matches!(
            run_err(&["predict", "sdk_vectoradd", "--blocks", "4", "--policy", "fifo"]),
            CliError::BadChoice { flag: "policy", .. }
        ));
        assert!(matches!(
            run_err(&["predict", "sdk_vectoradd", "--bogus", "1"]),
            CliError::Args(ArgError::UnknownFlag(_))
        ));
    }

    #[test]
    fn out_of_range_machine_flags_are_rejected_with_one_line_messages() {
        // Every subcommand that accepts machine flags must reject
        // out-of-range values with a typed Config error whose message is a
        // single actionable line (main prints it and exits nonzero).
        for argv in [
            &["predict", "sdk_vectoradd", "--warps", "100000"][..],
            &["predict", "sdk_vectoradd", "--mshrs", "0"],
            &["predict", "sdk_vectoradd", "--bw", "0.5"],
            &["simulate", "sdk_vectoradd", "--warps", "0"],
            &["compare", "sdk_vectoradd", "--bw", "-3"],
            &["config", "--sfu", "64"],
            &["profile", "sdk_vectoradd", "--mshrs", "9999999"],
            &["intervals", "sdk_vectoradd", "--warps", "100000"],
        ] {
            let e = run_err(argv);
            assert!(matches!(e, CliError::Config(_)), "{argv:?} gave {e:?}");
            let msg = e.to_string();
            assert_eq!(msg.lines().count(), 1, "multi-line message for {argv:?}: {msg}");
            assert!(msg.contains("gpumech config"), "message not actionable: {msg}");
        }
    }

    #[test]
    fn bad_flag_values_are_rejected_per_subcommand() {
        assert!(matches!(
            run_err(&["predict", "sdk_vectoradd", "--model", "quantum"]),
            CliError::BadChoice { flag: "model", .. }
        ));
        assert!(matches!(
            run_err(&["predict", "sdk_vectoradd", "--selection", "random"]),
            CliError::BadChoice { flag: "selection", .. }
        ));
        assert_eq!(
            run_err(&["batch", "sdk_vectoradd", "--model", "mt_band"]).to_string(),
            "--model must be one of naive|markov|mt|mt_mshr|full, got \"mt_band\""
        );
        assert_eq!(
            run_err(&["batch", "sdk_vectoradd", "--selection", "Weighted"]).to_string(),
            "--selection must be one of max|min|clustering|weighted, got \"Weighted\""
        );
        assert!(matches!(
            run_err(&["simulate", "sdk_vectoradd", "--policy", "lifo"]),
            CliError::BadChoice { flag: "policy", .. }
        ));
        for cmd in ["trace", "predict", "simulate", "compare", "stacks", "profile", "intervals"] {
            assert!(
                matches!(run_err(&[cmd, "no_such_kernel"]), CliError::UnknownKernel(_)),
                "{cmd} should reject unknown kernels"
            );
            assert!(matches!(run_err(&[cmd]), CliError::Args(_)), "{cmd} requires a kernel");
        }
    }

    #[test]
    fn profile_reports_population_and_representative() {
        let out = run_ok(&["profile", "cfd_compute_flux", "--blocks", "4"]);
        assert!(out.contains("warp population"));
        assert!(out.contains("representative warp"));
        assert!(out.contains("divergence degree"));
    }

    #[test]
    fn profile_appends_stage_report_and_recorder_tree() {
        let out = run_ok(&["profile", "sdk_vectoradd", "--blocks", "4"]);
        assert!(out.contains("== pipeline stages =="), "{out}");
        assert!(out.contains("core.pipeline.cachesim"));
        assert!(out.contains("core.pipeline.predict"));
        assert!(out.contains("== recorder =="));
        assert!(out.contains("spans (wall clock):"));
        assert!(out.contains("core.pipeline.analyze"));
        assert!(out.contains("counters:"));
    }

    /// A unique temp path for tests that write files.
    fn tmp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("gpumech-cli-{}-{tag}", std::process::id()))
    }

    #[test]
    fn obs_out_writes_a_trace_that_validates() {
        let path = tmp_path("predict.jsonl");
        let path_s = path.to_string_lossy().to_string();
        let out = run_ok(&["predict", "sdk_vectoradd", "--blocks", "4", "--obs-out", &path_s]);
        assert!(out.contains("observability trace written to"), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("{\"type\":\"meta\""));
        assert!(text.contains("\"type\":\"span\""));
        let verdict = run_ok(&["obs-validate", &path_s]);
        assert!(verdict.contains("valid"), "{verdict}");
        assert!(verdict.contains("all names within stage.subsystem.name"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn profile_chrome_out_is_trace_event_json() {
        let path = tmp_path("profile.trace.json");
        let path_s = path.to_string_lossy().to_string();
        let out = run_ok(&["profile", "sdk_vectoradd", "--blocks", "4", "--chrome-out", &path_s]);
        assert!(out.contains("Chrome trace written to"), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(text.contains("\"ph\":\"X\""));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn obs_validate_rejects_bad_names_and_schema() {
        let path = tmp_path("bad.jsonl");
        let path_s = path.to_string_lossy().to_string();
        std::fs::write(
            &path,
            "{\"type\":\"meta\",\"version\":1,\"dropped_samples\":0,\"invalid_names\":[]}\n\
             {\"type\":\"span\",\"id\":1,\"parent\":null,\"name\":\"NotAValidName\",\
              \"thread\":0,\"start_ns\":0,\"dur_ns\":5,\"attrs\":{}}\n\
             {\"type\":\"metric\",\"kind\":\"thermometer\",\"name\":\"a.b.c\",\
              \"value\":1,\"ts_ns\":0,\"span\":null}\n\
             not json\n",
        )
        .unwrap();
        let e = run_err(&["obs-validate", &path_s]);
        let CliError::ObsInvalid { report, problems } = e else {
            panic!("expected ObsInvalid, got {e:?}");
        };
        // Four problems: the off-scheme span name, the unknown metric
        // kind, the scheme-valid but unknown-family metric name "a.b.c",
        // and the non-JSON line.
        assert_eq!(problems, 4, "{report}");
        assert!(report.contains("outside the stage.subsystem.name scheme"));
        assert!(report.contains("thermometer"));
        assert!(report.contains("unknown stage family \"a\""));
        assert!(report.contains("not valid JSON"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn obs_validate_requires_path_and_existing_file() {
        assert!(matches!(run_err(&["obs-validate"]), CliError::Args(_)));
        assert!(matches!(
            run_err(&["obs-validate", "/no/such/file.jsonl"]),
            CliError::Io(_)
        ));
    }

    #[test]
    fn intervals_lists_the_representative_profile() {
        let out = run_ok(&["intervals", "srad_kernel1", "--blocks", "4", "--limit", "5"]);
        assert!(out.contains("representative warp"));
        assert!(out.contains("load@pc") || out.contains("compute"));
        assert!(out.contains("more (use --limit)"));
    }

    #[test]
    fn lint_all_is_clean_over_the_workload_library() {
        let out = run_ok(&["lint"]);
        assert!(out.contains("linted 40 kernel(s): 0 error(s)"), "{out}");
        assert!(out.contains("kmeans_invert_mapping"));
    }

    #[test]
    fn lint_single_kernel_shows_divergence_findings() {
        let out = run_ok(&["lint", "bfs_kernel1", "--min-severity", "info"]);
        assert!(out.contains("linted 1 kernel(s)"), "{out}");
    }

    #[test]
    fn lint_json_round_trips() {
        let out = run_ok(&["lint", "sdk_vectoradd", "--format", "json"]);
        let parsed: Vec<KernelAnalysis> = serde_json::from_str(&out).expect("valid JSON");
        assert_eq!(parsed.len(), 1);
        assert!(!parsed[0].has_errors());
    }

    #[test]
    fn lint_rejects_bad_flag_values() {
        assert!(matches!(
            run_err(&["lint", "--format", "xml"]),
            CliError::BadChoice { flag: "format", .. }
        ));
        assert!(matches!(
            run_err(&["lint", "--min-severity", "fatal"]),
            CliError::BadChoice { flag: "min-severity", .. }
        ));
        assert!(matches!(run_err(&["lint", "nope"]), CliError::UnknownKernel(_)));
    }

    #[test]
    fn batch_sweeps_kernels_and_configs() {
        let out = run_ok(&[
            "batch", "sdk_vectoradd", "bfs_kernel1", "--blocks", "4", "--workers", "2",
            "--sweep", "warps=8,32",
        ]);
        assert!(out.contains("4 job(s) (2 kernel(s) x 2 config(s)), workers=2"), "{out}");
        assert!(out.contains("sdk_vectoradd @ warps=8"));
        assert!(out.contains("bfs_kernel1 @ warps=32"));
        assert!(out.contains("4 ok, 0 failed"));
    }

    #[test]
    fn batch_json_report_is_machine_readable() {
        let path = tmp_path("batch.json");
        let path_s = path.to_string_lossy().to_string();
        let out = run_ok(&[
            "batch", "sdk_vectoradd", "--blocks", "4", "--workers", "2", "--json", &path_s,
        ]);
        assert!(out.contains("batch report written to"), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        let v = serde_json::parse_value(&text).unwrap();
        assert_eq!(v.get_field("workers").and_then(Value::as_u64), Some(2));
        assert_eq!(v.get_field("cache_entries").and_then(Value::as_u64), Some(1));
        let Some(Value::Array(jobs)) = v.get_field("jobs") else {
            panic!("jobs array missing: {text}");
        };
        assert_eq!(jobs.len(), 1);
        assert!(jobs[0].get_field("cpi").and_then(Value::as_f64).unwrap() > 0.0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn batch_isolates_bad_sweep_points_per_job() {
        // warps=0 fails validation for its job only; the good point and the
        // other kernel still succeed.
        let out = run_ok(&[
            "batch", "sdk_vectoradd", "--blocks", "4", "--sweep", "warps=0,8",
        ]);
        assert!(out.contains("1 ok, 1 failed"), "{out}");
        assert!(out.contains("error:"), "{out}");
        assert!(out.contains("sdk_vectoradd @ warps=8"));
    }

    #[test]
    fn batch_rejects_bad_arguments() {
        assert!(matches!(run_err(&["batch", "no_such_kernel"]), CliError::UnknownKernel(_)));
        for sweep in ["warps", "volts=1,2", "warps=abc", "warps="] {
            assert!(
                matches!(
                    run_err(&["batch", "sdk_vectoradd", "--sweep", sweep]),
                    CliError::BadChoice { flag: "sweep", .. }
                ),
                "sweep {sweep:?} should be rejected"
            );
        }
    }

    #[test]
    fn batch_resume_requires_a_journal() {
        let e = run_err(&["batch", "sdk_vectoradd", "--blocks", "4", "--resume"]);
        assert!(
            matches!(&e, CliError::Args(ArgError::MissingValue(f)) if f.contains("journal")),
            "{e:?}"
        );
    }

    #[test]
    fn batch_deadline_zero_fails_every_job_with_a_typed_error() {
        let out = run_ok(&[
            "batch", "sdk_vectoradd", "bfs_kernel1", "--blocks", "4", "--workers", "1",
            "--deadline-ms", "0",
        ]);
        assert!(out.contains("0 ok, 2 failed"), "{out}");
        assert!(out.contains("deadline exceeded"), "{out}");
    }

    #[test]
    fn batch_journal_then_resume_replays_byte_identically() {
        let journal = tmp_path("batch-journal.jsonl");
        let journal_s = journal.to_string_lossy().to_string();
        let _ = std::fs::remove_file(&journal);
        let first_json = tmp_path("batch-first.json");
        let second_json = tmp_path("batch-second.json");
        let argv = |json: &std::path::Path, resume: bool| {
            let mut v = vec![
                "batch".to_string(),
                "sdk_vectoradd".to_string(),
                "bfs_kernel1".to_string(),
                "--blocks".to_string(),
                "4".to_string(),
                "--workers".to_string(),
                "1".to_string(),
                "--journal".to_string(),
                journal_s.clone(),
                "--json".to_string(),
                json.to_string_lossy().to_string(),
            ];
            if resume {
                v.push("--resume".to_string());
            }
            v
        };
        run(argv(&first_json, false)).expect("first run succeeds");
        run(argv(&second_json, true)).expect("resumed run succeeds");
        // The journal holds each job exactly once, and the replayed rows
        // match the computed ones byte for byte (compare from the jobs
        // array on: cache_entries legitimately differs, since the resumed
        // run performed zero analyses).
        let lines = std::fs::read_to_string(&journal).unwrap();
        assert_eq!(lines.lines().count(), 2);
        let first = std::fs::read_to_string(&first_json).unwrap();
        let second = std::fs::read_to_string(&second_json).unwrap();
        let tail = |s: &str| s[s.find("\"jobs\"").unwrap()..].to_string();
        assert_eq!(tail(&first), tail(&second));
        for p in [&journal, &first_json, &second_json] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn gto_policy_flag_is_accepted() {
        let out = run_ok(&["predict", "sdk_vectoradd", "--blocks", "4", "--policy", "gto"]);
        assert!(out.contains("gto policy"));
    }

    #[test]
    fn batch_human_output_surfaces_cache_and_resilience_counters() {
        // DRAM bandwidth is a prediction-only axis, so with one worker the
        // second sweep point must hit the profile cache — and the human
        // summary must say so without --obs-out or --json.
        let out = run_ok(&[
            "batch", "sdk_vectoradd", "--blocks", "4", "--workers", "1",
            "--sweep", "bw=96,192",
        ]);
        assert!(out.contains("# exec.cache:"), "{out}");
        assert!(out.contains("misses=1"), "{out}");
        assert!(out.contains("hits=1"), "{out}");
    }

    #[test]
    fn profile_folded_out_round_trips_through_obs_validate() {
        let path = tmp_path("profile.folded");
        let path_s = path.to_string_lossy().to_string();
        let out =
            run_ok(&["profile", "sdk_vectoradd", "--blocks", "4", "--folded-out", &path_s]);
        assert!(out.contains("folded stacks written to"), "{out}");
        assert!(out.contains("== self-time attribution =="), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("core.pipeline.analyze"), "{text}");
        let verdict = run_ok(&["obs-validate", "--folded", &path_s]);
        assert!(verdict.contains("valid folded stacks"), "{verdict}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn obs_validate_folded_rejects_malformed_stacks() {
        let path = tmp_path("bad.folded");
        let path_s = path.to_string_lossy().to_string();
        std::fs::write(
            &path,
            "exec.batch.run;NotAFrame 100\n\
             exec.batch.run\n\
             zzz.bogus.family 5\n\
             exec.batch.run notanumber\n",
        )
        .unwrap();
        let e = run_err(&["obs-validate", "--folded", &path_s]);
        let CliError::ObsInvalid { report, problems } = e else {
            panic!("expected ObsInvalid, got {e:?}");
        };
        assert_eq!(problems, 4, "{report}");
        assert!(report.contains("outside the stage.subsystem.name scheme"));
        assert!(report.contains("unknown stage family \"zzz\""));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn perf_record_writes_a_parseable_baseline_covering_every_stage() {
        let path = tmp_path("perf-baseline.json");
        let path_s = path.to_string_lossy().to_string();
        // `--iters 0` still times one iteration; the baseline records that.
        let out =
            run_ok(&["perf", "record", "--out", &path_s, "--iters", "0", "--warmup", "0"]);
        assert!(out.contains("baseline written to"), "{out}");
        assert!(out.contains("min-of-1 "), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        let base = gpumech_perf::Baseline::from_json(&text).expect("baseline parses back");
        assert_eq!(base.iters, 1);
        for stage in gpumech_perf::STAGE_NAMES {
            let r = base
                .results
                .iter()
                .find(|r| r.name == stage)
                .unwrap_or_else(|| panic!("stage {stage} missing from baseline"));
            assert!(r.min_ns > 0, "{stage} recorded zero time");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn perf_obs_out_trace_validates_with_perf_family_metrics() {
        let trace = tmp_path("perf-obs.jsonl");
        let trace_s = trace.to_string_lossy().to_string();
        let base = tmp_path("perf-obs-baseline.json");
        let base_s = base.to_string_lossy().to_string();
        run_ok(&[
            "perf", "record", "--out", &base_s, "--iters", "1", "--warmup", "0",
            "--obs-out", &trace_s,
        ]);
        let text = std::fs::read_to_string(&trace).unwrap();
        assert!(text.contains("perf.alloc.count"), "{text}");
        assert!(text.contains("perf.bench.min_ns"), "{text}");
        let verdict = run_ok(&["obs-validate", &trace_s]);
        assert!(verdict.contains("valid"), "{verdict}");
        for p in [&trace, &base] {
            std::fs::remove_file(p).unwrap();
        }
    }

    #[test]
    fn perf_compare_passes_clean_and_gates_injected_slowdowns() {
        let path = tmp_path("perf-gate.json");
        let path_s = path.to_string_lossy().to_string();
        run_ok(&["perf", "record", "--out", &path_s, "--iters", "2", "--warmup", "1"]);
        // A clean re-run on the same machine stays within a generous
        // tolerance (wide headroom keeps this robust on loaded CI hosts).
        let out = run_ok(&[
            "perf", "compare", "--baseline", &path_s, "--iters", "2", "--warmup", "1",
            "--tolerance", "1000",
        ]);
        assert!(out.contains("# perf compare"), "{out}");
        assert!(!out.contains("REGRESSED"), "clean compare regressed: {out}");
        // A fault-injected 500 ms sleep in one stage must trip the gate
        // even at that tolerance, and only that stage may regress.
        let e = run_err(&[
            "perf", "compare", "--baseline", &path_s, "--iters", "2", "--warmup", "1",
            "--tolerance", "1000", "--slow", "e2e_batch=500",
        ]);
        let CliError::PerfRegression { report, regressions } = e else {
            panic!("expected PerfRegression, got {e:?}");
        };
        assert_eq!(regressions, 1, "{report}");
        assert!(report.contains("REGRESSED"), "{report}");
        let regressed: Vec<&str> = report
            .lines()
            .filter(|l| l.contains("REGRESSED"))
            .collect();
        assert!(regressed.iter().all(|l| l.starts_with("e2e_batch")), "{report}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn perf_rejects_bad_actions_and_slow_specs() {
        assert!(matches!(
            run_err(&["perf", "tune"]),
            CliError::BadChoice { flag: "perf", .. }
        ));
        assert!(matches!(run_err(&["perf"]), CliError::Args(_)));
        for spec in ["e2e_batch", "nope=5", "trace=abc", "trace=1,nope=2"] {
            assert!(
                matches!(
                    run_err(&["perf", "compare", "--slow", spec]),
                    CliError::BadChoice { flag: "slow", .. }
                ),
                "slow spec {spec:?} should be rejected"
            );
        }
    }

    #[test]
    fn perf_compare_without_a_baseline_is_a_plain_io_error() {
        let e = run_err(&["perf", "compare", "--baseline", "/no/such/baseline.json"]);
        assert!(matches!(e, CliError::Io(_)), "{e:?}");
    }
}
