//! A closed-loop HTTP/1.1 client: one request per connection (the server
//! closes every connection after its response), timed from connect to the
//! last response byte. It never sends `Expect: 100-continue`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

use crate::trace::Tracer;

#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
    /// TCP connect time, seconds.
    pub connect_s: f64,
    /// Connect through the last response byte, seconds.
    pub total_s: f64,
}

/// Send one request and read the whole response. With an enabled tracer the
/// request is a `server.http.request` span with a `server.http.connect`
/// child, both filed under `request_id`.
pub fn send(
    tracer: &mut Tracer,
    request_id: u64,
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
) -> Result<Reply, String> {
    tracer.span("server.http.request", request_id, |tracer| {
        let start = Instant::now();
        let mut stream = tracer.span("server.http.connect", request_id, |_| {
            TcpStream::connect(addr).map_err(|e| format!("connect {addr} for {method} {path}: {e}"))
        })?;
        let connect_s = start.elapsed().as_secs_f64();
        stream
            .set_nodelay(true)
            .map_err(|e| format!("{method} {path}: {e}"))?;
        let mut message = format!(
            "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        )
        .into_bytes();
        message.extend_from_slice(body);
        stream
            .write_all(&message)
            .map_err(|e| format!("send {method} {path}: {e}"))?;
        let mut response = Vec::new();
        stream
            .read_to_end(&mut response)
            .map_err(|e| format!("read {method} {path}: {e}"))?;
        let total_s = start.elapsed().as_secs_f64();
        let status = response
            .get(9..12)
            .and_then(|code| std::str::from_utf8(code).ok())
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| format!("{method} {path}: malformed status line"))?;
        let body_at = response
            .windows(4)
            .position(|window| window == b"\r\n\r\n")
            .ok_or_else(|| format!("{method} {path}: no header/body separator"))?;
        Ok(Reply {
            status,
            body: response[body_at + 4..].to_vec(),
            connect_s,
            total_s,
        })
    })
}

/// [`send`], failing unless the status is `expected`.
pub fn expect(
    tracer: &mut Tracer,
    request_id: u64,
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
    expected: u16,
) -> Result<Reply, String> {
    let reply = send(tracer, request_id, addr, method, path, body)?;
    if reply.status != expected {
        return Err(format!(
            "{method} {path}: status {} (expected {expected}): {}",
            reply.status,
            String::from_utf8_lossy(&reply.body).trim()
        ));
    }
    Ok(reply)
}

/// The `/metrics?format=json` body (one metric per line).
pub fn scrape(addr: SocketAddr) -> Result<String, String> {
    let mut off = Tracer::new(Instant::now(), 0, false);
    let reply = expect(&mut off, 0, addr, "GET", "/metrics?format=json", b"", 200)?;
    String::from_utf8(reply.body).map_err(|_| "/metrics: non-UTF-8 body".to_string())
}

/// First number after `"key": ` on `line`.
fn number_after(line: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\": ");
    let rest = &line[line.find(&needle)? + needle.len()..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | 'e' | 'E' | '+')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Sum of the `value` of every line of metric `name` (all label sets).
pub fn counter(metrics: &str, name: &str) -> f64 {
    let tag = format!("\"name\": \"{name}\"");
    metrics
        .lines()
        .filter(|line| line.contains(&tag))
        .filter_map(|line| number_after(line, "value"))
        .sum()
}

/// A field (`p50_seconds`, `count`, `sum_seconds`) of the request-duration
/// histogram of one `method route` pair.
pub fn route_field(metrics: &str, method: &str, route: &str, field: &str) -> Option<f64> {
    metrics
        .lines()
        .find(|line| {
            line.contains("\"name\": \"http_request_duration_seconds\"")
                && line.contains(&format!("\"method\": \"{method}\""))
                && line.contains(&format!("\"route\": \"{route}\""))
        })
        .and_then(|line| number_after(line, field))
}
