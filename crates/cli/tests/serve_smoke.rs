//! Smoke test for the real `gpumech serve` binary: spawn it, scrape the
//! port from stdout, drive the endpoints over raw sockets, then SIGTERM
//! and assert a clean (exit 0) drain with a run summary.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use gpumech_obs::send_sigterm;

fn send(addr: SocketAddr, raw: &[u8]) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s.write_all(raw).unwrap();
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).unwrap();
    let text = String::from_utf8_lossy(&buf);
    let (head, body) = text.split_once("\r\n\r\n").expect("framing");
    let status = head.split_whitespace().nth(1).unwrap().parse().unwrap();
    (status, body.to_string())
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    send(addr, format!("GET {path} HTTP/1.1\r\nhost: t\r\n\r\n").as_bytes())
}

#[test]
fn serve_binary_answers_and_drains_cleanly_on_sigterm() {
    let obs = std::env::temp_dir()
        .join(format!("gpumech-serve-smoke-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&obs);
    let mut child = Command::new(env!("CARGO_BIN_EXE_gpumech"))
        .args(["serve", "--port", "0", "--workers", "2"])
        .args(["--obs-out", obs.to_str().unwrap()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn gpumech serve");

    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    let addr: SocketAddr = line
        .trim()
        .rsplit("http://")
        .next()
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| panic!("bad announce line: {line:?}"));

    // Health and readiness.
    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200, "{body}");
    let (status, body) = get(addr, "/readyz");
    assert_eq!(status, 200, "{body}");

    // A real prediction over the wire.
    let req = "{\"kernel\":\"sdk_vectoradd\",\"blocks\":2}";
    let raw = format!(
        "POST /predict HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{req}",
        req.len()
    );
    let (status, body) = send(addr, raw.as_bytes());
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"cpi\":"), "{body}");

    // Metrics exposition reflects the traffic.
    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(metrics.contains("serve.http.requests_total"), "{metrics}");
    assert!(metrics.contains("serve.req.ok_total 1"), "{metrics}");

    // SIGTERM: clean drain, exit 0, summary + obs trace written.
    assert!(send_sigterm(child.id()), "signal delivery failed");
    let t0 = Instant::now();
    let status = loop {
        if let Some(s) = child.try_wait().unwrap() {
            break s;
        }
        assert!(t0.elapsed() < Duration::from_secs(30), "drain hung");
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(status.code(), Some(0), "drain must exit 0");

    let mut rest = String::new();
    stdout.read_to_string(&mut rest).unwrap();
    assert!(rest.contains("drain: clean"), "summary missing from stdout: {rest:?}");
    assert!(obs.exists(), "--obs-out trace was not written");

    let mut stderr_text = String::new();
    child.stderr.take().unwrap().read_to_string(&mut stderr_text).unwrap();
    assert!(!stderr_text.contains("panicked"), "server panicked:\n{stderr_text}");
    let _ = std::fs::remove_file(&obs);
}
