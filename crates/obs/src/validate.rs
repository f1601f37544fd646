//! Schema checks for the JSONL trace written by [`to_jsonl`](crate::to_jsonl)
//! and for folded-stack exports, behind `gpumech obs-validate`. Each
//! problem is one line of text, `line N: <what is wrong>`, in input order.

use serde::Value;

use crate::naming::{valid_metric_name, PERF_SUBSYSTEMS, STAGE_FAMILIES};

/// Line tallies of a valid JSONL export (the one meta line is implied).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JsonlCounts {
    /// `span` lines.
    pub spans: usize,
    /// `metric` sample lines.
    pub metrics: usize,
    /// `aggregate` lines.
    pub aggregates: usize,
}

/// Validates a JSONL trace: every line parses and matches the meta, span,
/// metric or aggregate schema (exactly one meta line), and every name is
/// within the `stage.subsystem.name` scheme, [`STAGE_FAMILIES`] and, for
/// `perf.*`, [`PERF_SUBSYSTEMS`].
///
/// # Errors
///
/// Every problem found.
pub fn validate_jsonl(text: &str) -> Result<JsonlCounts, Vec<String>> {
    let mut problems: Vec<String> = Vec::new();
    let mut counts = [0usize; 4];
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        if line.trim().is_empty() {
            problems.push(format!("line {lineno}: empty line"));
            continue;
        }
        match serde_json::parse_value(line) {
            Err(e) => problems.push(format!("line {lineno}: not valid JSON: {e}")),
            Ok(v) => check_line(&v, lineno, &mut counts, &mut problems),
        }
    }
    if counts[0] != 1 {
        problems.push(format!("expected exactly one meta line, found {}", counts[0]));
    }
    if problems.is_empty() {
        Ok(JsonlCounts { spans: counts[1], metrics: counts[2], aggregates: counts[3] })
    } else {
        Err(problems)
    }
}

/// Validates a folded-stack export: every line is `frame(;frame)* <u64>`
/// with scheme-valid frames from [`STAGE_FAMILIES`]. Returns the number
/// of stack lines.
///
/// # Errors
///
/// Every problem found.
pub fn validate_folded(text: &str) -> Result<usize, Vec<String>> {
    let mut problems: Vec<String> = Vec::new();
    let mut stacks = 0usize;
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        if line.trim().is_empty() {
            problems.push(format!("line {lineno}: empty line"));
            continue;
        }
        let Some((stack, value)) = line.rsplit_once(' ') else {
            problems.push(format!("line {lineno}: no value column (expected \"stack <u64>\")"));
            continue;
        };
        if value.parse::<u64>().is_err() {
            problems.push(format!("line {lineno}: value {value:?} is not an unsigned integer"));
        }
        for frame in stack.split(';') {
            if !valid_metric_name(frame) {
                problems.push(format!(
                    "line {lineno}: frame {frame:?} outside the stage.subsystem.name scheme"
                ));
            } else {
                check_name_family(frame, "frame", lineno, &mut problems);
            }
        }
        stacks += 1;
    }
    if problems.is_empty() {
        Ok(stacks)
    } else {
        Err(problems)
    }
}

fn field_u64(v: &Value, key: &str) -> Option<u64> {
    v.get_field(key).and_then(Value::as_u64)
}

fn field_str<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    match v.get_field(key) {
        Some(Value::Str(s)) => Some(s),
        _ => None,
    }
}

fn u64_or_null(v: &Value, key: &str) -> bool {
    matches!(v.get_field(key), Some(Value::Null)) || field_u64(v, key).is_some()
}

fn num_or_null(v: &Value, key: &str) -> bool {
    matches!(v.get_field(key), Some(Value::Null))
        || v.get_field(key).and_then(Value::as_f64).is_some()
}

/// Checks one scheme-shaped name against the stage-family allowlist, and
/// the `perf.*` family against its subsystem allowlist.
fn check_name_family(name: &str, what: &str, lineno: usize, problems: &mut Vec<String>) {
    let mut segs = name.split('.');
    let stage = segs.next().unwrap_or("");
    if !STAGE_FAMILIES.contains(&stage) {
        problems.push(format!(
            "line {lineno}: {what} name {name:?} uses unknown stage family {stage:?}"
        ));
        return;
    }
    if stage == "perf" {
        let sub = segs.next().unwrap_or("");
        if !PERF_SUBSYSTEMS.contains(&sub) {
            problems.push(format!(
                "line {lineno}: {what} name {name:?} outside the perf.* family \
                 (subsystem must be one of suite|alloc|bench)"
            ));
        }
    }
}

/// Checks the `name` field of a line against the `stage.subsystem.name`
/// scheme and the stage-family allowlist.
fn check_name(v: &Value, what: &str, lineno: usize, problems: &mut Vec<String>) {
    match field_str(v, "name") {
        None => problems.push(format!("line {lineno}: {what} missing string \"name\"")),
        Some(name) if !valid_metric_name(name) => problems.push(format!(
            "line {lineno}: {what} name {name:?} outside the stage.subsystem.name scheme"
        )),
        Some(name) => check_name_family(name, what, lineno, problems),
    }
}

const METRIC_KINDS: [&str; 3] = ["counter", "gauge", "histogram"];

fn check_kind(v: &Value, what: &str, lineno: usize, problems: &mut Vec<String>) {
    match field_str(v, "kind") {
        Some(k) if METRIC_KINDS.contains(&k) => {}
        Some(k) => problems.push(format!(
            "line {lineno}: {what} kind {k:?} not one of counter|gauge|histogram"
        )),
        None => problems.push(format!("line {lineno}: {what} missing string \"kind\"")),
    }
}

/// Schema check for one parsed JSONL line; tallies the line type into
/// `counts` (meta, span, metric, aggregate) and appends problems.
fn check_line(v: &Value, lineno: usize, counts: &mut [usize; 4], problems: &mut Vec<String>) {
    let Some(ty) = field_str(v, "type") else {
        problems.push(format!("line {lineno}: missing string \"type\" field"));
        return;
    };
    match ty {
        "meta" => {
            counts[0] += 1;
            if field_u64(v, "version") != Some(1) {
                problems.push(format!("line {lineno}: meta version must be 1"));
            }
            if field_u64(v, "dropped_samples").is_none() {
                problems.push(format!("line {lineno}: meta missing integer \"dropped_samples\""));
            }
            match v.get_field("invalid_names") {
                Some(Value::Array(names)) => {
                    for n in names {
                        if let Value::Str(s) = n {
                            problems.push(format!(
                                "line {lineno}: recorder saw name {s:?} outside the \
                                 stage.subsystem.name scheme"
                            ));
                        }
                    }
                }
                _ => problems
                    .push(format!("line {lineno}: meta missing \"invalid_names\" array")),
            }
        }
        "span" => {
            counts[1] += 1;
            for key in ["id", "thread", "start_ns"] {
                if field_u64(v, key).is_none() {
                    problems.push(format!("line {lineno}: span missing integer {key:?}"));
                }
            }
            for key in ["dur_ns", "parent"] {
                if !u64_or_null(v, key) {
                    problems.push(format!("line {lineno}: span {key:?} must be integer or null"));
                }
            }
            check_name(v, "span", lineno, problems);
        }
        "metric" => {
            counts[2] += 1;
            check_kind(v, "metric", lineno, problems);
            check_name(v, "metric", lineno, problems);
            if field_u64(v, "ts_ns").is_none() {
                problems.push(format!("line {lineno}: metric missing integer \"ts_ns\""));
            }
            if !num_or_null(v, "value") {
                problems.push(format!("line {lineno}: metric \"value\" must be number or null"));
            }
        }
        "aggregate" => {
            counts[3] += 1;
            check_kind(v, "aggregate", lineno, problems);
            check_name(v, "aggregate", lineno, problems);
            // Histogram aggregates carry the quantile-histogram schema:
            // count/sum plus min/max and p50/p90/p99 (number, or null
            // before any finite observation) and populated log buckets.
            if field_str(v, "kind") == Some("histogram") {
                if field_u64(v, "count").is_none() {
                    problems
                        .push(format!("line {lineno}: histogram missing integer \"count\""));
                }
                for key in ["min", "max", "p50", "p90", "p99"] {
                    if !num_or_null(v, key) {
                        problems.push(format!(
                            "line {lineno}: histogram {key:?} must be number or null"
                        ));
                    }
                }
                match v.get_field("buckets") {
                    Some(Value::Array(_)) => {}
                    _ => problems
                        .push(format!("line {lineno}: histogram missing \"buckets\" array")),
                }
            }
        }
        other => problems.push(format!("line {lineno}: unknown line type {other:?}")),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn committed_jsonl_golden_validates_clean() {
        let counts = validate_jsonl(include_str!("../tests/golden/trace.jsonl")).unwrap();
        assert!(counts.spans > 0 && counts.metrics > 0 && counts.aggregates > 0, "{counts:?}");
    }

    #[test]
    fn malformed_jsonl_lines_are_rejected_with_their_problem_text() {
        let text = "{\"type\":\"meta\",\"version\":1,\"dropped_samples\":0,\"invalid_names\":[]}\n\
             {\"type\":\"span\",\"id\":1,\"parent\":null,\"name\":\"NotAValidName\",\
              \"thread\":0,\"start_ns\":0,\"dur_ns\":5,\"attrs\":{}}\n\
             {\"type\":\"metric\",\"kind\":\"thermometer\",\"name\":\"a.b.c\",\
              \"value\":1,\"ts_ns\":0,\"span\":null}\n\
             not json\n";
        let problems = validate_jsonl(text).unwrap_err();
        // The off-scheme span name, the unknown metric kind, the
        // scheme-valid but unknown-family metric name "a.b.c", and the
        // non-JSON line.
        assert_eq!(problems.len(), 4, "{problems:#?}");
        assert_eq!(
            problems[0],
            "line 2: span name \"NotAValidName\" outside the stage.subsystem.name scheme"
        );
        assert_eq!(
            problems[1],
            "line 3: metric kind \"thermometer\" not one of counter|gauge|histogram"
        );
        assert_eq!(problems[2], "line 3: metric name \"a.b.c\" uses unknown stage family \"a\"");
        assert!(problems[3].starts_with("line 4: not valid JSON: "), "{}", problems[3]);
    }
}
