//! The `stage.subsystem.name` metric/span naming scheme.

/// Stage families a conforming export may emit under — the short crate
/// names of every instrumented layer (`test` covers unit-test fixtures).
pub const STAGE_FAMILIES: [&str; 14] = [
    "isa", "analyze", "trace", "mem", "timing", "core", "exec", "serve", "cli", "bench", "fault",
    "perf", "shard", "test",
];

/// Subsystems the `perf.*` family is allowed to emit under: the suite's
/// stage spans, the allocation counters, and the benchmark metrics.
pub const PERF_SUBSYSTEMS: [&str; 3] = ["suite", "alloc", "bench"];

/// Validates a span or metric name against the documented scheme:
/// exactly three dot-separated segments, each `[a-z][a-z0-9_]*`.
///
/// The first segment is the emitting stage, one of [`STAGE_FAMILIES`];
/// the second names the subsystem; the third the measurement. The
/// export validators ([`validate_jsonl`](crate::validate_jsonl),
/// [`validate_folded`](crate::validate_folded)) fail any export
/// containing a name this function rejects or whose stage is not in
/// that allowlist.
#[must_use]
pub fn valid_metric_name(name: &str) -> bool {
    let mut segments = 0usize;
    for seg in name.split('.') {
        segments += 1;
        let mut bytes = seg.bytes();
        match bytes.next() {
            Some(b'a'..=b'z') => {}
            _ => return false,
        }
        if !bytes.all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_') {
            return false;
        }
    }
    segments == 3
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn accepts_scheme_conforming_names() {
        for name in [
            "core.kmeans.inertia",
            "mem.cachesim.l1_hits",
            "trace.engine.insts",
            "timing.oracle.dram_utilization",
            "fault.case.pipeline",
            "a.b.c",
            "x1.y_2.z_3x",
        ] {
            assert!(valid_metric_name(name), "{name} should be accepted");
        }
    }

    #[test]
    fn rejects_off_scheme_names() {
        for name in [
            "",
            "one",
            "one.two",
            "one.two.three.four",
            "One.two.three",
            "one.Two.three",
            "one.two.3three",
            "one..three",
            "one.two.thr-ee",
            "one.two.thr ee",
            "_x.y.z",
        ] {
            assert!(!valid_metric_name(name), "{name} should be rejected");
        }
    }
}
