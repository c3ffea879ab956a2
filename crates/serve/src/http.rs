//! Minimal HTTP/1.1 layer over [`std::net::TcpListener`].
//!
//! Same philosophy as the vendored serde/crossbeam shims: the workspace is
//! offline, so instead of pulling in hyper we implement exactly the slice
//! of HTTP/1.1 the service needs — request-line + headers + Content-Length
//! bodies (conflicting lengths are a 400, any Transfer-Encoding a 501),
//! `Connection: close` semantics (one request per connection,
//! which is what makes graceful drain trivially correct), a bounded
//! accept→worker handoff, and hard caps on header/body sizes so a
//! misbehaving client cannot balloon memory.
//!
//! The server is deliberately boring: an acceptor thread pushes accepted
//! streams down an mpsc channel to a fixed pool of handler threads. On
//! [`HttpServer::stop`] the acceptor exits, the channel closes, and the
//! workers drain every already-accepted connection before joining — no
//! request that reached `accept(2)` is ever dropped on shutdown.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use serde::de::DeserializeOwned;
use serde::Serialize;

/// Reject request heads larger than this (414/431 territory; we answer 431).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Reject request bodies larger than this (413).
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;
/// Per-connection socket read timeout.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, ...).
    pub method: String,
    /// Percent-decoded path, always starting with `/`.
    pub path: String,
    /// Percent-decoded query parameters, last occurrence wins.
    pub query: BTreeMap<String, String>,
    /// Lower-cased header names → values.
    pub headers: BTreeMap<String, String>,
    /// Raw body bytes (empty unless Content-Length was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// Query parameter by name.
    pub fn query(&self, key: &str) -> Option<&str> {
        self.query.get(key).map(String::as_str)
    }

    /// Parse the body as JSON.
    pub fn json<T: DeserializeOwned>(&self) -> Result<T, String> {
        serde_json::from_slice(&self.body).map_err(|e| format!("invalid json body: {e}"))
    }

    /// `/`-separated path segments, empty segments elided.
    pub fn segments(&self) -> Vec<&str> {
        self.path.split('/').filter(|s| !s.is_empty()).collect()
    }
}

/// An HTTP response under construction.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers (Content-Length/Connection are added at write time).
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// Plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            headers: vec![("content-type".into(), "text/plain; charset=utf-8".into())],
            body: body.into().into_bytes(),
        }
    }

    /// JSON response from a serializable value.
    pub fn json<T: Serialize>(status: u16, value: &T) -> Response {
        Response::json_body(status, serde_json::to_string(value).expect("serializable"))
    }

    /// JSON response from pre-serialized text (the byte-identity paths:
    /// report JSON is served exactly as archived on disk).
    pub fn json_body(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            headers: vec![("content-type".into(), "application/json".into())],
            body: body.into().into_bytes(),
        }
    }

    /// JSON `{"error": ...}` response.
    pub fn error(status: u16, message: impl AsRef<str>) -> Response {
        #[derive(Serialize)]
        struct Err1 {
            error: String,
        }
        Response::json(
            status,
            &Err1 {
                error: message.as_ref().to_string(),
            },
        )
    }

    /// Add a header.
    pub fn header(mut self, name: impl Into<String>, value: impl Into<String>) -> Response {
        self.headers.push((name.into(), value.into()));
        self
    }

    fn reason(status: u16) -> &'static str {
        match status {
            200 => "OK",
            202 => "Accepted",
            204 => "No Content",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            409 => "Conflict",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            501 => "Not Implemented",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    fn write_to(&self, stream: &mut TcpStream) -> std::io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\ncontent-length: {}\r\nconnection: close\r\n",
            self.status,
            Response::reason(self.status),
            self.body.len()
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        stream.write_all(head.as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

/// Decode `%XX` escapes and `+`-as-space (query context only).
fn percent_decode(s: &str, plus_is_space: bool) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' if i + 2 < bytes.len() => {
                let hex = |b: u8| (b as char).to_digit(16);
                match (hex(bytes[i + 1]), hex(bytes[i + 2])) {
                    (Some(h), Some(l)) => {
                        out.push((h * 16 + l) as u8);
                        i += 3;
                    }
                    _ => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' if plus_is_space => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Read and parse one request. `Ok(None)` means the peer closed without
/// sending anything (e.g. the self-connect that wakes the acceptor).
fn read_request(stream: &mut TcpStream) -> Result<Option<Request>, Response> {
    let mut head = Vec::with_capacity(1024);
    let mut buf = [0u8; 1024];
    let head_end;
    loop {
        let n = match stream.read(&mut buf) {
            Ok(0) => {
                if head.is_empty() {
                    return Ok(None);
                }
                return Err(Response::error(400, "truncated request head"));
            }
            Ok(n) => n,
            Err(_) if head.is_empty() => return Ok(None),
            Err(e) => return Err(Response::error(400, format!("read error: {e}"))),
        };
        head.extend_from_slice(&buf[..n]);
        if let Some(pos) = head.windows(4).position(|w| w == b"\r\n\r\n") {
            head_end = pos;
            break;
        }
        if head.len() > MAX_HEAD_BYTES {
            return Err(Response::error(431, "request head too large"));
        }
    }
    let body_prefix = head.split_off(head_end + 4);
    head.truncate(head_end);
    let head_text = String::from_utf8_lossy(&head).into_owned();
    let mut lines = head_text.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) => (m.to_ascii_uppercase(), t, v),
        _ => return Err(Response::error(400, "malformed request line")),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(Response::error(400, "unsupported protocol version"));
    }
    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let path = percent_decode(raw_path, false);
    if !path.starts_with('/') || path.contains("..") {
        return Err(Response::error(400, "invalid path"));
    }
    let mut query = BTreeMap::new();
    if let Some(q) = raw_query {
        for pair in q.split('&').filter(|p| !p.is_empty()) {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            query.insert(percent_decode(k, true), percent_decode(v, true));
        }
    }
    let mut headers: BTreeMap<String, String> = BTreeMap::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            let (name, value) = (name.trim().to_ascii_lowercase(), value.trim());
            // Repeats of one length are harmless; differing lengths leave
            // the body's end ambiguous (request smuggling), so refuse them.
            if name == "content-length" && headers.get(&name).is_some_and(|v| v != value) {
                return Err(Response::error(400, "conflicting content-length"));
            }
            headers.insert(name, value.to_string());
        }
    }
    // Only Content-Length framing is implemented; a chunked (or any
    // other transfer-coded) body must not be read as empty.
    if headers.contains_key("transfer-encoding") {
        return Err(Response::error(501, "transfer-encoding not supported"));
    }
    let content_length: usize = match headers.get("content-length") {
        None => 0,
        Some(v) => v
            .parse()
            .map_err(|_| Response::error(400, "invalid content-length"))?,
    };
    if content_length > MAX_BODY_BYTES {
        return Err(Response::error(413, "request body too large"));
    }
    let mut body = body_prefix;
    while body.len() < content_length {
        let n = stream
            .read(&mut buf)
            .map_err(|e| Response::error(400, format!("body read error: {e}")))?;
        if n == 0 {
            return Err(Response::error(400, "truncated request body"));
        }
        body.extend_from_slice(&buf[..n]);
    }
    body.truncate(content_length);
    Ok(Some(Request {
        method,
        path,
        query,
        headers,
        body,
    }))
}

/// Request handler. Panics inside are caught and mapped to 500s.
pub type Handler = Arc<dyn Fn(&Request) -> Response + Send + Sync>;

/// The accept loop + worker pool.
pub struct HttpServer {
    addr: SocketAddr,
    draining: Arc<AtomicBool>,
    acceptor: Option<thread::JoinHandle<()>>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl HttpServer {
    /// Bind `bind` (e.g. `127.0.0.1:0`) and start serving on `workers`
    /// handler threads.
    pub fn start(bind: &str, workers: usize, handler: Handler) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        let draining = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let worker_handles = (0..workers.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                let handler = Arc::clone(&handler);
                thread::Builder::new()
                    .name(format!("http-worker-{i}"))
                    .spawn(move || loop {
                        // Take the stream with the lock released before
                        // handling, so a slow request never serializes the
                        // whole pool.
                        let stream = match rx.lock().expect("worker queue poisoned").recv() {
                            Ok(s) => s,
                            Err(_) => return, // acceptor gone, queue drained
                        };
                        handle_connection(stream, &handler);
                    })
                    .expect("spawn http worker")
            })
            .collect();
        let acceptor = {
            let draining = Arc::clone(&draining);
            thread::Builder::new()
                .name("http-acceptor".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if draining.load(Ordering::SeqCst) {
                            break; // tx drops here; workers drain and exit
                        }
                        if let Ok(s) = stream {
                            if tx.send(s).is_err() {
                                break;
                            }
                        }
                    }
                })
                .expect("spawn http acceptor")
        };
        Ok(HttpServer {
            addr,
            draining,
            acceptor: Some(acceptor),
            workers: worker_handles,
        })
    }

    /// Bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful stop: stop accepting, then drain every already-accepted
    /// connection before returning.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        if self.acceptor.is_none() {
            return;
        }
        self.draining.store(true, Ordering::SeqCst);
        // Unblock accept(2) so the acceptor observes the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn handle_connection(mut stream: TcpStream, handler: &Handler) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let response = match read_request(&mut stream) {
        Ok(None) => return, // wake-up probe or silent close
        Ok(Some(request)) => {
            // Robustness headline: a panicking handler costs one 500, not
            // the server.
            match catch_unwind(AssertUnwindSafe(|| handler(&request))) {
                Ok(r) => r,
                Err(_) => Response::error(500, "internal handler panic"),
            }
        }
        Err(error_response) => error_response,
    };
    let _ = response.write_to(&mut stream);
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;

    fn echo_server() -> HttpServer {
        let handler: Handler = Arc::new(|req: &Request| {
            if req.path == "/panic" {
                panic!("boom");
            }
            Response::text(
                200,
                format!(
                    "{} {} q={} body={}",
                    req.method,
                    req.path,
                    req.query("x").unwrap_or("-"),
                    String::from_utf8_lossy(&req.body)
                ),
            )
        });
        HttpServer::start("127.0.0.1:0", 2, handler).unwrap()
    }

    #[test]
    fn roundtrip_get_and_post() {
        let server = echo_server();
        let addr = server.addr().to_string();
        let r = client::get(&addr, "/hello?x=1").unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.text(), "GET /hello q=1 body=");
        let r = client::post(&addr, "/submit", "{\"a\":1}").unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.text(), "POST /submit q=- body={\"a\":1}");
        server.stop();
    }

    #[test]
    fn percent_decoding_in_path_and_query() {
        let server = echo_server();
        let addr = server.addr().to_string();
        let r = client::get(&addr, "/seg%2Dment?x=a%20b+c").unwrap();
        assert_eq!(r.text(), "GET /seg-ment q=a b c body=");
        server.stop();
    }

    #[test]
    fn handler_panic_becomes_500() {
        let server = echo_server();
        let addr = server.addr().to_string();
        let r = client::get(&addr, "/panic").unwrap();
        assert_eq!(r.status, 500);
        // And the server is still alive afterwards.
        let r = client::get(&addr, "/ok").unwrap();
        assert_eq!(r.status, 200);
        server.stop();
    }

    #[test]
    fn oversized_body_rejected() {
        let server = echo_server();
        let addr = server.addr().to_string();
        let mut stream = TcpStream::connect(&addr).unwrap();
        let head = format!(
            "POST /big HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        stream.write_all(head.as_bytes()).unwrap();
        let mut out = String::new();
        let _ = stream.read_to_string(&mut out);
        assert!(out.starts_with("HTTP/1.1 413"), "got: {out}");
        server.stop();
    }

    /// Send `raw` on a fresh connection and return the response's status
    /// line.
    fn raw_status_line(addr: &str, raw: &[u8]) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(raw).unwrap();
        let mut out = String::new();
        let _ = stream.read_to_string(&mut out);
        out.lines().next().unwrap_or("").to_string()
    }

    /// Hostile or malformed request heads each get their own 4xx/5xx,
    /// and none of them takes the server down. Every case is sent whole
    /// and fully read by the server before it answers, so the close never
    /// races unread bytes.
    #[test]
    fn malformed_requests_get_their_status() {
        let server = echo_server();
        let addr = server.addr().to_string();
        let mut oversized_head = b"GET / HTTP/1.1\r\nx-pad: ".to_vec();
        oversized_head.resize(MAX_HEAD_BYTES + 1, b'a');
        let cases: [(&str, &[u8], u16); 10] = [
            ("malformed request line", b"GARBAGE\r\n\r\n", 400),
            ("bad version", b"GET / SPDY/3\r\n\r\n", 400),
            (
                "non-numeric length",
                b"POST /x HTTP/1.1\r\ncontent-length: ten\r\n\r\n",
                400,
            ),
            (
                "negative length",
                b"POST /x HTTP/1.1\r\ncontent-length: -1\r\n\r\n",
                400,
            ),
            (
                "overflowing length",
                b"POST /x HTTP/1.1\r\ncontent-length: 99999999999999999999999\r\n\r\n",
                400,
            ),
            (
                "conflicting lengths",
                b"POST /x HTTP/1.1\r\ncontent-length: 2\r\ncontent-length: 3\r\n\r\n",
                400,
            ),
            (
                "repeated equal lengths",
                b"POST /x HTTP/1.1\r\ncontent-length: 2\r\ncontent-length: 2\r\n\r\nhi",
                200,
            ),
            (
                "chunked body",
                b"POST /x HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
                501,
            ),
            (
                "transfer-encoding beside a length",
                b"POST /x HTTP/1.1\r\ncontent-length: 0\r\nTransfer-Encoding: gzip\r\n\r\n",
                501,
            ),
            ("head over the limit", &oversized_head, 431),
        ];
        for (what, raw, status) in cases {
            let line = raw_status_line(&addr, raw);
            assert!(
                line.starts_with(&format!("HTTP/1.1 {status} ")),
                "{what}: expected {status}, got {line:?}"
            );
        }
        let r = client::get(&addr, "/ok").unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.text(), "GET /ok q=- body=");
        server.stop();
    }

    #[test]
    fn traversal_path_rejected() {
        let server = echo_server();
        let addr = server.addr().to_string();
        let r = client::get(&addr, "/jobs/../../etc/passwd").unwrap();
        assert_eq!(r.status, 400);
        server.stop();
    }
}
