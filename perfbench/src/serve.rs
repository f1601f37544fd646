//! The `serve` workload: an in-process `gpumech_serve::Server` with one
//! worker on loopback, driven open-loop from this process.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gpumech_core::SchedulingPolicy;
use gpumech_exec::{trace_fingerprint, BatchEngine, BatchJob, ProfileCache};
use gpumech_isa::SimConfig;
use gpumech_serve::{
    parse_predict_body, parse_request, predict_response_body, Limits, PredictBody, ServeConfig,
    ServeSummary, Server, ServerHandle,
};
use gpumech_trace::{workloads, KernelTrace};

use crate::measure::{quantile, secs, Spans};
use crate::pipeline::{self, digest, model_json, Direct};
use crate::plan::{self, Expect, Request, SERVE_RATE_PER_S};
use crate::report::{slice_latency, Layer, Outcome, Slice};

/// Requests of the schedule replayed layer by layer in the traced run.
const DIRECT_REQUESTS: usize = 2000;

/// Analyses the reference keeps while checking responses: enough for the
/// hit requests, so the check does not grow with the miss count.
const CHECK_CACHE_ENTRIES: usize = 16;

/// Length of one measured window of the load, s; latency metrics are
/// medians over windows.
const WINDOW_S: f64 = 5.0;

/// Requests whose expected bodies make up the output digest.
const DIGEST_REQUESTS: usize = 200;

/// A running server and the thread that runs it.
pub struct Up {
    addr: SocketAddr,
    handle: ServerHandle,
    thread: JoinHandle<Result<ServeSummary, String>>,
    /// Warm-up bodies, in the order they were sent.
    warm: Vec<String>,
}

/// Binds the server and warms it: one default request per served kernel,
/// each of which traces and analyses that kernel.
///
/// # Errors
///
/// A bind failure or a warm-up request that did not return 200.
pub fn start(seed: u64) -> Result<Up, String> {
    let cfg = ServeConfig { workers: 1, queue_cap: 64, ..ServeConfig::default() };
    let server = Server::bind(cfg).map_err(|e| e.to_string())?;
    let addr = server.local_addr();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run().map_err(|e| e.to_string()));
    let (warm, _) = plan::serve(seed, 0);
    let up = Up { addr, handle, thread, warm };
    for body in &up.warm {
        match exchange(addr, &as_request(body).wire_bytes()) {
            Ok((200, _)) => {}
            other => {
                let msg = format!("warm-up {body}: {other:?}");
                let _ = up.stop();
                return Err(msg);
            }
        }
    }
    Ok(up)
}

impl Up {
    /// Drains the server and waits for its thread.
    ///
    /// # Errors
    ///
    /// The server's own error, or a panic of its thread.
    pub fn stop(self) -> Result<ServeSummary, String> {
        self.handle.shutdown();
        self.thread.join().map_err(|_| "server thread panicked".to_string())?
    }
}

/// One HTTP exchange on a fresh connection: status and body.
fn exchange(addr: SocketAddr, bytes: &[u8]) -> Result<(u16, String), String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    s.set_read_timeout(Some(Duration::from_secs(30))).map_err(|e| e.to_string())?;
    s.write_all(bytes).map_err(|e| format!("send: {e}"))?;
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).map_err(|e| format!("receive: {e}"))?;
    let text = String::from_utf8_lossy(&buf);
    let (head, body) = text.split_once("\r\n\r\n").ok_or("response without a header end")?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line in {head:?}"))?;
    Ok((status, body.to_string()))
}

/// What one scheduled request got.
struct Sample {
    /// Status and a digest of the body (bodies are large; only their
    /// equality with the reference matters).
    result: Result<(u16, u64), String>,
    /// From due time to the last response byte, ms.
    lat_ms: f64,
    /// From due time to the send, ms.
    late_ms: f64,
}

/// Sends `reqs` open-loop: each at its due time, on its own connection,
/// from at most `threads` sender threads.
fn drive(addr: SocketAddr, reqs: &[Request], threads: usize) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Option<Sample>>> = Mutex::new((0..reqs.len()).map(|_| None).collect());
    let start = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(req) = reqs.get(i) else { break };
                let bytes = req.wire_bytes();
                let due = start + Duration::from_secs_f64(req.due_s);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let late_ms = Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3;
                let result = exchange(addr, &bytes).map(|(status, body)| (status, digest([body.as_str()])));
                let lat_ms = Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3;
                if let Ok(mut o) = out.lock() {
                    o[i] = Some(Sample { result, lat_ms, late_ms });
                }
            });
        }
    });
    out.into_inner().unwrap_or_default().into_iter().flatten().collect()
}

/// The machine configuration and policy a body asks for, as the server
/// derives them; `Err` carries the status a bad request must get.
fn request_job(b: &PredictBody) -> Result<(SimConfig, SchedulingPolicy), u16> {
    let mut cfg = SimConfig::table1();
    if let Some(w) = b.warps {
        cfg = cfg.with_warps_per_core(w);
    }
    if let Some(m) = b.mshrs {
        cfg = cfg.with_mshrs(m);
    }
    if let Some(bw) = b.bw {
        cfg = cfg.with_dram_bandwidth(bw);
    }
    if let Some(s) = b.sfu {
        cfg = cfg.with_sfu_per_core(s);
    }
    cfg.validate().map_err(|_| 422u16)?;
    let policy = match b.policy.as_deref() {
        None | Some("rr") => SchedulingPolicy::RoundRobin,
        Some("gto") => SchedulingPolicy::GreedyThenOldest,
        Some(_) => return Err(422),
    };
    Ok((cfg, policy))
}

/// A status, or a 200 with its body and the prediction's model JSON (the
/// body's stage report differs between the engine and the layered path;
/// the model JSON must not).
type Reply = Result<(String, String), u16>;

/// The in-process reference: each body through a `BatchEngine` (one
/// worker, persistent cache, as in the server) and `predict_response_body`.
struct InProcess {
    engine: BatchEngine,
    traces: HashMap<(String, usize), Arc<KernelTrace>>,
    /// Host seconds inside `BatchEngine::run`.
    engine_s: f64,
    /// Predictions submitted to the engine.
    points: usize,
}

impl InProcess {
    /// A reference whose cache holds at most `entries` analyses (`None`:
    /// unbounded, as the server's). Outputs never depend on the bound.
    fn new(entries: Option<usize>) -> Self {
        let cache = ProfileCache::in_memory();
        let cache = match entries {
            Some(n) => cache.with_capacity(n),
            None => cache,
        };
        InProcess { engine: BatchEngine::with_cache(1, cache), traces: HashMap::new(), engine_s: 0.0, points: 0 }
    }

    fn reply(&mut self, body: &str) -> Reply {
        let b = parse_predict_body(body.as_bytes()).map_err(|e| e.status)?;
        let (cfg, policy) = request_job(&b)?;
        let w = workloads::by_name(&b.kernel).ok_or(404u16)?;
        let blocks = b.blocks.unwrap_or(w.launch.num_blocks);
        let trace = match self.traces.get(&(b.kernel.clone(), blocks)) {
            Some(t) => Arc::clone(t),
            None => {
                let t = Arc::new(w.with_blocks(blocks).trace().map_err(|_| 422u16)?);
                self.traces.insert((b.kernel.clone(), blocks), Arc::clone(&t));
                t
            }
        };
        let mut job = BatchJob::new(b.kernel.clone(), trace, cfg);
        job.policy = policy;
        let t0 = Instant::now();
        let p = self.engine.run(&[job]).pop().ok_or(500u16)?.map_err(|_| 500u16)?;
        self.engine_s += secs(t0);
        self.points += 1;
        predict_response_body(&b.kernel, &p).map(|body| (body, model_json(&p))).map_err(|e| e.status)
    }

    fn entries(&self) -> usize {
        self.engine.cache().len()
    }
}

/// The same request, layer by layer, with spans around each call.
struct Layered {
    direct: Direct,
    traces: HashMap<(String, usize), Arc<KernelTrace>>,
    /// Host seconds in fingerprinting, analysis, selection and prediction.
    model_s: f64,
}

impl Layered {
    fn reply(&mut self, sp: &mut Spans, req: &Request) -> Result<Reply, String> {
        let wire = req.wire_bytes();
        let parsed = sp.span("serve.parse.request", |_| {
            let (http, _) = parse_request(&wire, &Limits::default()).map_err(|e| e.to_string())?;
            Ok::<_, String>(parse_predict_body(&http.body))
        })?;
        let b = match parsed {
            Ok(b) => b,
            Err(e) => return Ok(Err(e.status)),
        };
        let (cfg, policy) = match request_job(&b) {
            Ok(j) => j,
            Err(status) => return Ok(Err(status)),
        };
        let Some(w) = sp.span("serve.lookup.catalogue", |_| workloads::by_name(&b.kernel)) else {
            return Ok(Err(404));
        };
        let blocks = b.blocks.unwrap_or(w.launch.num_blocks);
        let key = (b.kernel.clone(), blocks);
        let trace = match self.traces.get(&key) {
            Some(t) => Arc::clone(t),
            None => {
                let t = pipeline::trace(sp, &w.with_blocks(blocks))?;
                self.traces.insert(key, Arc::clone(&t));
                t
            }
        };
        let t0 = Instant::now();
        let fp = sp.span("exec.fingerprint.trace", |_| trace_fingerprint(&trace));
        let p = self.direct.predict(sp, fp, &trace, &cfg, policy)?;
        self.model_s += secs(t0);
        let body = sp.span("serve.render.body", |_| predict_response_body(&b.kernel, &p));
        Ok(body.map(|body| (body, model_json(&p))).map_err(|e| e.status))
    }
}

/// A warm-up body as an unscheduled request that expects a prediction.
fn as_request(body: &str) -> Request {
    Request { due_s: 0.0, body: body.to_string(), class: plan::Class::Hit, expect: Expect::Prediction }
}

/// Checks every sample against its expected outcome, reporting each
/// mismatch through `fail`.
fn check(reqs: &[Request], samples: &[Sample], reference: &mut InProcess, fail: &mut dyn FnMut(String)) {
    let mut expected: HashMap<&str, Result<u64, u16>> = HashMap::new();
    for (req, s) in reqs.iter().zip(samples) {
        let want = expected
            .entry(req.body.as_str())
            .or_insert_with(|| reference.reply(&req.body).map(|(body, _)| digest([body.as_str()])));
        let ok = match (&s.result, req.expect, &*want) {
            (Ok((200, got)), Expect::Prediction, Ok(body)) => got == body,
            (Ok((status, _)), Expect::Status(code), Err(code2)) => *status == code && code == *code2,
            _ => false,
        };
        if !ok {
            fail(format!("{}: got {:?}", req.body, s.result.as_ref().map(|(st, _)| st)));
        }
    }
}

/// Digest of the expected replies to the warm-up and the first
/// [`DIGEST_REQUESTS`] scheduled requests: independent of run length.
fn output_digest(warm: &[String], reqs: &[Request]) -> u64 {
    let mut reference = InProcess::new(Some(CHECK_CACHE_ENTRIES));
    let replies: Vec<String> = warm
        .iter()
        .map(String::as_str)
        .chain(reqs.iter().take(DIGEST_REQUESTS).map(|r| r.body.as_str()))
        .map(|b| format!("{b}|{:?}", reference.reply(b).map(|(body, _)| body)))
        .collect();
    digest(replies.iter().map(String::as_str))
}

fn schedule(seed: u64, seconds: f64) -> Vec<Request> {
    let count = (SERVE_RATE_PER_S * seconds).ceil().max(DIGEST_REQUESTS as f64) as usize;
    plan::serve(seed, count).1
}

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The untraced run: the open-loop schedule for `seconds`, every response
/// checked against the in-process reference.
pub fn run(up: Up, seed: u64, seconds: f64, out: &mut Outcome) {
    let reqs = schedule(seed, seconds);
    let samples = drive(up.addr, &reqs, threads());
    let warm = up.warm.clone();
    finish(up.stop(), warm.len() + reqs.len(), &mut |m| out.fail(m));
    out.attempted += reqs.len() as u64;
    check(&reqs, &samples, &mut InProcess::new(Some(CHECK_CACHE_ENTRIES)), &mut |m| out.fail(m));
    out.slices = windows(&reqs, &samples, seconds);
    out.digest = Some(output_digest(&warm, &reqs));
    let n = samples.len();
    let lat: Vec<f64> = samples.iter().map(|s| s.lat_ms).collect();
    out.info("serve_p50_ms (whole run)", quantile(&lat, 0.5), "ms", n);
    out.info("serve_p99_ms (median of 5 s windows)", slice_latency(&out.slices, 0.99), "ms", n);
    out.info("serve_p99_ms (whole run)", quantile(&lat, 0.99), "ms", n);
    out.info("offered_rate", SERVE_RATE_PER_S, "requests/s", n);
    let late: Vec<f64> = samples.iter().map(|s| s.late_ms).collect();
    out.info("late_ms_p99", quantile(&late, 0.99), "ms", n);
}

/// The load cut into windows of about [`WINDOW_S`] by due time; each
/// window's throughput counts answered requests over the span from its
/// first due time to its last response.
fn windows(reqs: &[Request], samples: &[Sample], seconds: f64) -> Vec<Slice> {
    let n = (seconds / WINDOW_S).round().max(1.0) as usize;
    let per_window = reqs.len().div_ceil(n);
    reqs.chunks(per_window)
        .zip(samples.chunks(per_window))
        .map(|(rs, ss)| {
            let end = rs.iter().zip(ss).map(|(r, s)| r.due_s + s.lat_ms / 1e3).fold(0.0, f64::max);
            Slice {
                items: ss.iter().filter(|s| s.result.is_ok()).count() as f64,
                busy_s: end - rs[0].due_s + 1.0 / SERVE_RATE_PER_S,
                lat_ms: ss.iter().map(|s| s.lat_ms).collect(),
            }
        })
        .collect()
}

/// Checks the server's own summary: everything admitted and answered,
/// nothing shed.
fn finish(summary: Result<ServeSummary, String>, sent: usize, fail: &mut dyn FnMut(String)) {
    match summary {
        Ok(s) if s.shed > 0 => fail(format!("server shed {} request(s)", s.shed)),
        Ok(s) if s.requests as usize != sent => {
            fail(format!("server handled {} of {sent} request(s)", s.requests));
        }
        Ok(_) => {}
        Err(e) => fail(e),
    }
}

/// One `name value` line of the server's `/metrics` text.
fn scrape(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name).and_then(|v| v.strip_prefix(' ')))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.0)
}

/// The traced run: the same load with the metrics recorder installed
/// (for the server's own service-time histogram), then the first
/// [`DIRECT_REQUESTS`] requests replayed in process: once through the
/// engine, then layer by layer, plain and with spans.
pub fn traced(up: Up, seed: u64, seconds: f64, layer: &mut Layer) {
    let reqs = schedule(seed, seconds);
    let guard = gpumech_obs::install(Arc::new(gpumech_obs::Recorder::new()));
    let samples = drive(up.addr, &reqs, threads());
    let metrics = exchange(up.addr, b"GET /metrics HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n");
    drop(guard);
    let warm = up.warm.clone();
    finish(up.stop(), warm.len() + reqs.len() + 1, &mut |m| layer.fail(m));
    layer.attempted += reqs.len() as u64;
    check(&reqs, &samples, &mut InProcess::new(Some(CHECK_CACHE_ENTRIES)), &mut |m| layer.fail(m));
    match metrics {
        Ok((200, text)) => {
            layer.set("serve.service_p50_ms", scrape(&text, "serve.predict.latency_ms_p50"));
            layer.set("serve.shed", scrape(&text, "serve.http.shed_total"));
            layer.set("serve.status.200", scrape(&text, "serve.req.ok_total"));
            layer.set("serve.status.4xx", scrape(&text, "serve.req.rejected_total"));
            layer.set("serve.status.5xx", scrape(&text, "serve.req.failed_total"));
        }
        other => layer.fail(format!("/metrics: {other:?}")),
    }
    let late: Vec<f64> = samples.iter().map(|s| s.late_ms).collect();
    layer.set("serve.late_ms_p99", quantile(&late, 0.99));
    layer.set("serve.latency_p99_ms", slice_latency(&windows(&reqs, &samples, seconds), 0.99));

    let replay: Vec<Request> = warm
        .iter()
        .map(|b| as_request(b))
        .chain(reqs.iter().take(DIRECT_REQUESTS).cloned())
        .collect();
    let mut reference = InProcess::new(None);
    let expected: Vec<Reply> = replay.iter().map(|r| reference.reply(&r.body)).collect();
    layer.set("exec.cache.points", reference.points as f64);
    layer.set("exec.cache.hit_ratio", 1.0 - reference.entries() as f64 / reference.points as f64);

    // As in the batch workloads: plain and traced passes alternate twice,
    // and each mode keeps its fastest pass.
    let mut walls = [f64::INFINITY; 2];
    for enabled in [false, true, false, true] {
        let mut sp = Spans::new(enabled);
        let mut layered = Layered { direct: Direct::default(), traces: HashMap::new(), model_s: 0.0 };
        let t0 = Instant::now();
        let got = sp.span("bench.pass.direct", |sp| {
            replay.iter().map(|r| layered.reply(sp, r)).collect::<Result<Vec<Reply>, String>>()
        });
        let wall = secs(t0);
        match got {
            Ok(got) => {
                layer.attempted += got.len() as u64;
                for (r, (a, b)) in replay.iter().zip(expected.iter().zip(&got)) {
                    let same = match (a, b) {
                        (Ok((_, x)), Ok((_, y))) => x == y,
                        (Err(x), Err(y)) => x == y,
                        _ => false,
                    };
                    if !same {
                        layer.fail(format!("{}: layered reply differs from the engine's", r.body));
                    }
                }
            }
            Err(e) => return layer.fail(e),
        }
        let best = &mut walls[usize::from(enabled)];
        if wall < *best {
            *best = wall;
            if enabled {
                layer.absorb(&sp, wall);
            } else {
                layer.set("exec.batch.overhead_s", reference.engine_s - layered.model_s);
            }
        }
    }
    layer.set("bench.trace_overhead_frac", walls[1] / walls[0] - 1.0);
    layer.digest = Some(output_digest(&warm, &reqs));
}
