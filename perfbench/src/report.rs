//! Metric catalogues, run outcomes, provenance and the result files.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::measure::{quantile, Spans};
use crate::plan::Kind;

/// End-to-end metrics, measured with tracing off: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("throughput_per_s", "1/s"), ("latency_p50_ms", "ms"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics of the traced run: `(name, unit)`. A layer that does
/// not run on a workload reports 0.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("trace.busy_s", "s"),
    ("trace.warp_insts", "count"),
    ("trace.alloc_count", "count"),
    ("trace.alloc_bytes", "bytes"),
    ("mem.busy_s", "s"),
    ("mem.dram_reqs", "count"),
    ("mem.alloc_count", "count"),
    ("core.intervals.busy_s", "s"),
    ("core.intervals.count", "count"),
    ("core.cluster.busy_s", "s"),
    ("core.cluster.calls", "count"),
    ("core.predict.busy_s", "s"),
    ("core.predict.calls", "count"),
    ("exec.fingerprint.busy_s", "s"),
    ("exec.fingerprint.calls", "count"),
    ("exec.cache.hit_ratio", "ratio"),
    ("exec.cache.points", "count"),
    ("exec.batch.overhead_s", "s"),
    ("timing.busy_s", "s"),
    ("timing.calls", "count"),
    ("timing.sim_cycles", "count"),
    ("timing.dram_requests", "count"),
    ("serve.lookup.busy_s", "s"),
    ("serve.parse.busy_s", "s"),
    ("serve.render.busy_s", "s"),
    ("serve.service_p50_ms", "ms"),
    ("serve.shed", "count"),
    ("serve.status.200", "count"),
    ("serve.status.4xx", "count"),
    ("serve.status.5xx", "count"),
    ("serve.latency_p99_ms", "ms"),
    ("serve.late_ms_p99", "ms"),
    ("accuracy.cpi_error_pct_rr", "%"),
    ("accuracy.cpi_error_pct_gto", "%"),
    ("bench.traced_wall_s", "s"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.unaccounted_frac", "ratio"),
    ("bench.layer_sum_s", "s"),
    ("bench.spans", "count"),
];

/// Span name -> layer metric prefix: its self time goes to `<prefix>.busy_s`
/// and its count to `<prefix>.calls`.
const SPAN_LAYERS: [(&str, &str); 10] = [
    ("trace.kernel.run", "trace"),
    ("mem.hierarchy.simulate", "mem"),
    ("core.intervals.build", "core.intervals"),
    ("core.cluster.select", "core.cluster"),
    ("core.predict.run", "core.predict"),
    ("exec.fingerprint.trace", "exec.fingerprint"),
    ("timing.oracle.simulate", "timing"),
    ("serve.lookup.catalogue", "serve.lookup"),
    ("serve.parse.request", "serve.parse"),
    ("serve.render.body", "serve.render"),
];

/// The root span of the traced pass; its self time is unaccounted time.
pub const ROOT_SPAN: &str = "bench.pass.direct";

/// Failures shown in full before the rest are only counted.
const SHOWN_FAILURES: usize = 20;

/// An informational metric, printed beside the result.
pub struct Info {
    name: String,
    value: f64,
    unit: String,
    samples: usize,
}

/// What an untraced run measured.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    failures: Vec<String>,
    /// Setup repetitions, s; `setup_s` is their median.
    pub setup_s: Vec<f64>,
    /// The measured slices of the run.
    pub slices: Vec<Slice>,
    /// Digest of the outputs (see README.md).
    pub digest: Option<u64>,
    infos: Vec<Info>,
}

impl Outcome {
    /// Counts one failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    /// Records an informational metric.
    pub fn info(&mut self, name: &str, value: f64, unit: &str, samples: usize) {
        self.infos.push(Info { name: name.to_string(), value, unit: unit.to_string(), samples });
    }

    /// Median over slices of each slice's items per second.
    pub fn throughput(&self) -> f64 {
        let rates: Vec<f64> =
            self.slices.iter().filter(|s| s.busy_s > 0.0).map(|s| s.items / s.busy_s).collect();
        quantile(&rates, 0.5)
    }

    /// The end-to-end metrics, `(name, value, unit, samples)`; the sample
    /// count of a latency is the number of operations timed.
    pub fn metrics(&self, peak_rss: f64) -> Vec<(&'static str, f64, &'static str, usize)> {
        let ops: usize = self.slices.iter().map(|s| s.lat_ms.len()).sum();
        let values =
            [quantile(&self.setup_s, 0.5), self.throughput(), slice_latency(&self.slices, 0.5), peak_rss];
        let samples = [self.setup_s.len(), self.slices.len(), ops, 1];
        END_TO_END.iter().zip(values).zip(samples).map(|(((name, unit), v), s)| (*name, v, *unit, s)).collect()
    }
}

/// Median over slices of each slice's latency quantile `q`, ms.
pub fn slice_latency(slices: &[Slice], q: f64) -> f64 {
    let per_slice: Vec<f64> = slices.iter().map(|s| quantile(&s.lat_ms, q)).collect();
    quantile(&per_slice, 0.5)
}

/// One measured slice of a run: a pass of a batch workload, or a window
/// of the service load. Run metrics are medians over slices, so a
/// disturbance of the host during one slice does not move them.
#[derive(Debug, Default)]
pub struct Slice {
    /// Work items completed (kernels, predictions, oracle instructions or
    /// responses).
    pub items: f64,
    /// Host seconds the items took.
    pub busy_s: f64,
    /// Latency of each operation, ms.
    pub lat_ms: Vec<f64>,
}

/// What a traced run measured.
#[derive(Default)]
pub struct Layer {
    /// Outputs compared.
    pub attempted: u64,
    /// Outputs that differed, or steps that failed.
    pub failed: u64,
    failures: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
    /// Digest of the reference outputs.
    pub digest: Option<u64>,
    /// Closed spans, `(name, start_ns, end_ns, parent)`.
    spans: Vec<(&'static str, u64, u64, Option<u64>)>,
}

impl Layer {
    /// Sets a per-layer metric (must be in [`PER_LAYER`]).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.metrics.insert(name, value);
    }

    /// Counts one failure.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    /// Takes the self times, counts and spans of a traced pass whose
    /// root span lasted `wall` seconds.
    pub fn absorb(&mut self, sp: &Spans, wall: f64) {
        let times = sp.self_times();
        let mut layer_sum = 0.0;
        for (span, prefix) in SPAN_LAYERS {
            let (busy, calls) = times.get(span).copied().unwrap_or((0.0, 0));
            layer_sum += busy;
            for (suffix, v) in [("busy_s", busy), ("calls", calls as f64)] {
                let name = format!("{prefix}.{suffix}");
                if let Some((n, _)) = PER_LAYER.iter().find(|(n, _)| *n == name) {
                    self.metrics.insert(n, v);
                }
            }
        }
        for (name, v) in &sp.counts {
            if let Some((n, _)) = PER_LAYER.iter().find(|(n, _)| n == name) {
                self.metrics.insert(n, *v);
            }
        }
        let root = times.get(ROOT_SPAN).map_or(0.0, |t| t.0);
        self.set("bench.traced_wall_s", wall);
        self.set("bench.layer_sum_s", layer_sum);
        self.set("bench.unaccounted_frac", root / wall);
        self.spans = sp.export();
        self.set("bench.spans", self.spans.len() as f64);
    }

    /// Every per-layer metric, 0 where the layer did not run.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str, usize)> {
        PER_LAYER.iter().map(|(n, u)| (*n, self.metrics.get(n).copied().unwrap_or(0.0), *u, 1)).collect()
    }
}

/// Run provenance, stamped on every result file.
pub struct Provenance {
    /// Workload name.
    pub workload: &'static str,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds requested.
    pub seconds: f64,
    /// `true` for the traced run.
    pub traced: bool,
}

impl Provenance {
    fn json(&self, kind: Kind) -> String {
        let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        format!(
            "\"git_commit\":{},\"host_cpus\":{host_cpus},\"seed\":{},\"rustc\":{},\"workload\":{},\
             \"workload_hash\":\"{:016x}\",\"seconds\":{},\"trace\":{}",
            json_str(&gpumech_perf::git_commit()),
            self.seed,
            json_str(env!("PERFBENCH_RUSTC")),
            json_str(self.workload),
            workload_hash(kind),
            self.seconds,
            u8::from(self.traced)
        )
    }
}

/// Hash of a workload's definition (everything but the seed).
pub fn workload_hash(kind: Kind) -> u64 {
    gpumech_exec::cache::payload_checksum(kind.definition().as_bytes())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON (non-finite values become 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Everything one run reports.
pub struct Result<'a> {
    /// Who, what and where.
    pub provenance: Provenance,
    /// `(name, value, unit, samples)` in catalogue order.
    pub metrics: Vec<(&'static str, f64, &'static str, usize)>,
    /// Attempted operations.
    pub attempted: u64,
    /// Failed operations.
    pub failed: u64,
    /// Reasons, in order.
    pub failures: &'a [String],
    /// Output digest and whether it matched the stored one (`None` when
    /// no digest is stored for this seed).
    pub digest: Option<(u64, Option<bool>)>,
    /// Informational metrics.
    pub infos: &'a [Info],
    /// Spans of the traced run.
    pub spans: &'a [(&'static str, u64, u64, Option<u64>)],
}

impl Outcome {
    /// The reasons recorded so far.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Informational metrics recorded so far.
    pub fn infos(&self) -> &[Info] {
        &self.infos
    }
}

impl Layer {
    /// The reasons recorded so far.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// The spans of the traced pass.
    pub fn spans(&self) -> &[(&'static str, u64, u64, Option<u64>)] {
        &self.spans
    }
}

impl Result<'_> {
    /// `true` when every operation succeeded and every check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && !matches!(self.digest, Some((_, Some(false))))
    }

    /// Human-readable lines: provenance, failures, every metric with its
    /// unit and sample count, and the informational metrics.
    pub fn human(&self, kind: Kind) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "# perfbench {} {{{}}}", self.provenance.workload, self.provenance.json(kind));
        for f in self.failures.iter().take(SHOWN_FAILURES) {
            let _ = writeln!(s, "FAILED: {f}");
        }
        if self.failures.len() > SHOWN_FAILURES {
            let _ = writeln!(s, "FAILED: ... and {} more", self.failures.len() - SHOWN_FAILURES);
        }
        if let Some((d, matched)) = self.digest {
            let verdict = match matched {
                Some(true) => "matches the stored digest",
                Some(false) => "DIFFERS from the stored digest",
                None => "no stored digest for this seed",
            };
            let _ = writeln!(s, "output digest {d:016x}: {verdict}");
        }
        for (name, v, unit, n) in &self.metrics {
            let _ = writeln!(s, "{name:<28} {v:>16.6} {unit:<8} n={n}");
        }
        for i in self.infos {
            let _ = writeln!(s, "info: {:<34} {:>14.6} {:<14} n={}", i.name, i.value, i.unit, i.samples);
        }
        s
    }

    /// The result file: provenance, metrics, checks and (traced) spans.
    pub fn file_json(&self, kind: Kind) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u, c)| format!("{}:{{\"value\":{},\"unit\":{},\"samples\":{c}}}", json_str(n), json_num(*v), json_str(u)))
            .collect();
        let infos: Vec<String> = self
            .infos
            .iter()
            .map(|i| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{},\"samples\":{}}}",
                    json_str(&i.name),
                    json_num(i.value),
                    json_str(&i.unit),
                    i.samples
                )
            })
            .collect();
        let failures: Vec<String> = self.failures.iter().map(|f| json_str(f)).collect();
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|(n, a, b, p)| format!("[{},{a},{b},{}]", json_str(n), p.map_or("null".to_string(), |p| p.to_string())))
            .collect();
        let digest = self.digest.map_or("null".to_string(), |(d, _)| format!("\"{d:016x}\""));
        format!(
            "{{{},\"correct\":{},\"attempted\":{},\"failed\":{},\"digest\":{digest},\"metrics\":{{{}}},\
             \"info\":{{{}}},\"failures\":[{}],\"spans\":[{}]}}\n",
            self.provenance.json(kind),
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(","),
            infos.join(","),
            failures.join(","),
            spans.join(",\n")
        )
    }

    /// The last line of standard output: `correct`, `attempted`, `failed`
    /// and every metric with its value and unit.
    pub fn last_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u, _)| format!("{}:{{\"value\":{},\"unit\":{}}}", json_str(n), json_num(*v), json_str(u)))
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogues_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("{\"name\": ").count();
        assert_eq!(listed, Kind::ALL.len() + END_TO_END.len() + PER_LAYER.len());
        for kind in Kind::ALL {
            assert!(json.contains(&format!("{{\"name\": \"{}\"", kind.name())), "{}", kind.name());
        }
    }

    #[test]
    fn last_line_has_exactly_the_result_keys() {
        let r = Result {
            provenance: Provenance { workload: "serve", seed: 1, seconds: 1.0, traced: false },
            metrics: vec![("setup_s", 0.5, "s", 5)],
            attempted: 3,
            failed: 0,
            failures: &[],
            digest: Some((7, Some(true))),
            infos: &[],
            spans: &[],
        };
        assert_eq!(
            r.last_line(),
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"}}}"#
        );
        let wrong = Result { digest: Some((7, Some(false))), ..r };
        assert!(!wrong.correct(), "a digest mismatch is a failure");
    }
}
