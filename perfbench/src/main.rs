//! The GPUMech benchmark: one named workload, one seed, one run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold-library --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Prints every metric with its unit and sample count, then, as the last
//! line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Exits 1 when any output check fails. See README.md.

mod batch;
mod measure;
mod pipeline;
mod plan;
mod report;
mod serve;

use std::time::Instant;

use measure::{peak_rss_mib, secs};
use plan::Kind;
use report::{Layer, Outcome, Provenance};

/// Setup repeats at least this many times and for at least
/// [`SETUP_MIN_S`]; `setup_s` is the median repetition. A batch setup
/// takes about 0.1 ms, where single timings are too noisy to compare.
const SETUP_REPS: usize = 9;
/// See [`SETUP_REPS`].
const SETUP_MIN_S: f64 = 0.05;

/// Stored output digests (see digests.txt).
const DIGESTS: &str = include_str!("../digests.txt");

const USAGE: &str =
    "usage: perfbench --workload <cold-library|design-sweep|validate|serve> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, plan::DEFAULT_SEED, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse::<f64>().map_err(|_| bad())?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args { kind: kind.ok_or("--workload is required")?, seed, seconds, trace })
}

/// The digest stored for `(kind, seed)`, if any.
fn stored_digest(kind: Kind, seed: u64) -> Option<u64> {
    DIGESTS.lines().filter(|l| !l.starts_with('#')).find_map(|l| {
        let mut f = l.split_whitespace();
        let (w, s, d) = (f.next()?, f.next()?, f.next()?);
        (w == kind.name() && s.parse() == Ok(seed)).then(|| u64::from_str_radix(d, 16).ok())?
    })
}

/// A workload's prepared inputs (and, for `serve`, its running server).
enum Prepared {
    Batch(batch::Plan),
    Serve(serve::Up),
}

fn prepare(kind: Kind, seed: u64) -> Result<Prepared, String> {
    match kind {
        Kind::Serve => serve::start(seed).map(Prepared::Serve),
        _ => Ok(Prepared::Batch(batch::prepare(kind, seed))),
    }
}

fn main() {
    let process_start = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    // Setup several times; the first repetition counts from process start.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut prepared: Option<Prepared> = None;
    let mut setup_error = None;
    while setup_s.len() < SETUP_REPS || secs(process_start) < SETUP_MIN_S {
        if let Some(Prepared::Serve(up)) = prepared.take() {
            if let Err(e) = up.stop() {
                setup_error = Some(e);
            }
        }
        let t0 = if setup_s.is_empty() { process_start } else { Instant::now() };
        match prepare(args.kind, args.seed) {
            Ok(p) => prepared = Some(p),
            Err(e) => setup_error = Some(e),
        }
        setup_s.push(secs(t0));
    }

    let mut outcome = Outcome::default();
    outcome.setup_s = setup_s;
    let mut layer = Layer::default();
    if let Some(e) = setup_error {
        outcome.fail(format!("setup: {e}"));
        layer.fail(format!("setup: {e}"));
    }
    match (prepared, args.trace) {
        (Some(Prepared::Batch(plan)), false) => batch::run(&plan, args.seconds, workers, &mut outcome),
        (Some(Prepared::Batch(plan)), true) => batch::traced(&plan, &mut layer),
        (Some(Prepared::Serve(up)), false) => serve::run(up, args.seed, args.seconds, &mut outcome),
        (Some(Prepared::Serve(up)), true) => serve::traced(up, args.seed, args.seconds, &mut layer),
        (None, _) => {}
    }

    let provenance =
        Provenance { workload: args.kind.name(), seed: args.seed, seconds: args.seconds, traced: args.trace };
    let stored = stored_digest(args.kind, args.seed);
    let check = |d: Option<u64>| d.map(|d| (d, stored.map(|s| s == d)));
    let result = if args.trace {
        report::Result {
            provenance,
            metrics: layer.metrics(),
            attempted: layer.attempted,
            failed: layer.failed,
            failures: layer.failures(),
            digest: check(layer.digest),
            infos: &[],
            spans: layer.spans(),
        }
    } else {
        report::Result {
            provenance,
            metrics: outcome.metrics(peak_rss_mib()),
            attempted: outcome.attempted,
            failed: outcome.failed,
            failures: outcome.failures(),
            digest: check(outcome.digest),
            infos: outcome.infos(),
            spans: &[],
        }
    };

    print!("{}", result.human(args.kind));
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let file = dir.join(format!("{}-seed{}-trace{}.json", args.kind.name(), args.seed, u8::from(args.trace)));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&file, result.file_json(args.kind))) {
        eprintln!("could not write {}: {e}", file.display());
    }
    println!("{}", result.last_line());
    std::process::exit(if result.correct() { 0 } else { 1 });
}
