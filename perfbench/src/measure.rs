//! Measurement helpers: quantiles, process memory, and the span store of
//! the traced run.

use std::collections::BTreeMap;
use std::time::Instant;

use gpumech_obs::Recorder;

/// Linear-interpolated quantile of `samples` (`q` in `[0, 1]`); 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The process's resident-set high-water mark (`VmHWM`) in MiB; 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Spans of the traced run, kept in memory until the end.
///
/// A thin owner of a `gpumech_obs::Recorder` that is *not* installed
/// process-wide: only the benchmark's own layer-boundary spans land in
/// it, with explicit parents, so self time (duration minus direct
/// children, via `gpumech_perf::attribute`) is exact per layer.
pub struct Spans {
    /// `false` for the plain pass: spans and allocation scopes are skipped
    /// but counts still accumulate, so both passes run the same code.
    pub enabled: bool,
    rec: Recorder,
    stack: Vec<u64>,
    /// Named counts recorded at the same boundaries as the spans.
    pub counts: BTreeMap<&'static str, f64>,
}

impl Spans {
    /// An empty store, recording spans when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Spans { enabled, rec: Recorder::new(), stack: Vec::new(), counts: BTreeMap::new() }
    }

    /// Runs `f` inside a span named `name`, child of the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.rec.start_span(name, Vec::new(), self.stack.last().copied(), 0);
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.rec.end_span(id);
        out
    }

    /// Adds `v` to the count `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_default() += v;
    }

    /// Self time in seconds and call count per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, (f64, u64)> {
        gpumech_perf::attribute(&self.rec.snapshot())
            .into_iter()
            .map(|a| (a.name, (a.self_ns as f64 / 1e9, a.count)))
            .collect()
    }

    /// Every closed span as `(name, start_ns, end_ns, parent)`, for the
    /// trace file written at the end of the run.
    pub fn export(&self) -> Vec<(&'static str, u64, u64, Option<u64>)> {
        self.rec
            .snapshot()
            .spans
            .iter()
            .filter_map(|s| s.end_ns.map(|e| (s.name, s.start_ns, e, s.parent)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn self_time_excludes_children() {
        let mut s = Spans::new(true);
        s.span("bench.pass.root", |s| {
            s.span("trace.kernel.run", |_| std::thread::sleep(std::time::Duration::from_millis(20)));
        });
        let t = s.self_times();
        let (child, n) = t["trace.kernel.run"];
        let (root, _) = t["bench.pass.root"];
        assert_eq!(n, 1);
        assert!(child >= 0.02, "{child}");
        assert!(root < child, "root self {root} should exclude the child {child}");
    }
}
