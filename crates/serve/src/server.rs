//! The TCP front end: accept loop, worker pool, connection lifecycle.
//!
//! [`Server::start`] binds a `TcpListener`, spawns one supervisor thread
//! and hands accepted connections to a fixed pool of workers over an mpsc
//! channel (`std::thread` only — the workspace ships no async runtime).
//! Workers speak keep-alive HTTP/1.1 via [`crate::http`] and dispatch into
//! the shared [`AppState`]; a panicking request handler answers `500` and
//! the worker lives on, so one bad request can never kill the accept loop.

use crate::http::{parse_request, reason_phrase, write_response};
use crate::state::AppState;
use lncl_tensor::json::Json;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// How a [`Server`] is started.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port `0` picks a free port (reported by
    /// [`Server::addr`]).
    pub addr: String,
    /// Worker threads handling connections.
    pub workers: usize,
    /// Per-connection read timeout; an idle keep-alive connection is
    /// dropped after this long.
    pub read_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self { addr: "127.0.0.1:0".to_string(), workers: 4, read_timeout: Duration::from_secs(5) }
    }
}

/// A running service; dropping it (or calling [`Server::stop`]) shuts the
/// listener and workers down.
pub struct Server {
    addr: SocketAddr,
    state: Arc<AppState>,
    shutdown: Arc<AtomicBool>,
    supervisor: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the worker pool and returns immediately.
    pub fn start(state: Arc<AppState>, config: ServerConfig) -> std::io::Result<Server> {
        assert!(config.workers >= 1, "server needs at least one worker thread");
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let supervisor = {
            let state = Arc::clone(&state);
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || supervise(listener, state, shutdown, &config))
        };
        Ok(Server { addr, state, shutdown, supervisor: Some(supervisor) })
    }

    /// The bound address (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state the workers dispatch into.
    pub fn state(&self) -> &Arc<AppState> {
        &self.state
    }

    /// Signals shutdown and joins the supervisor (and thereby every
    /// worker).  Idempotent; also runs on drop.
    pub fn stop(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // unblock the accept loop with one throwaway connection
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.supervisor.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Accept loop plus scoped worker pool; returns once shutdown is signalled.
fn supervise(listener: TcpListener, state: Arc<AppState>, shutdown: Arc<AtomicBool>, config: &ServerConfig) {
    let (tx, rx) = mpsc::channel::<TcpStream>();
    let rx = Mutex::new(rx);
    std::thread::scope(|scope| {
        for _ in 0..config.workers {
            let rx = &rx;
            let state = &state;
            let timeout = config.read_timeout;
            scope.spawn(move || {
                loop {
                    // hold the lock only while receiving, not while serving
                    let received = rx.lock().unwrap_or_else(std::sync::PoisonError::into_inner).recv();
                    match received {
                        Ok(stream) => serve_connection(stream, state, timeout),
                        Err(_) => break, // sender dropped: shutdown
                    }
                }
            });
        }
        for stream in listener.incoming() {
            if shutdown.load(Ordering::SeqCst) {
                break;
            }
            match stream {
                Ok(stream) => {
                    if tx.send(stream).is_err() {
                        break;
                    }
                }
                Err(_) => continue,
            }
        }
        drop(tx); // workers drain the queue, then exit
    });
}

/// Serves one keep-alive connection until close, error or idle timeout.
fn serve_connection(stream: TcpStream, state: &AppState, timeout: Duration) {
    let _ = stream.set_read_timeout(Some(timeout));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(writer) => writer,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        match parse_request(&mut reader) {
            Ok(None) => return,
            Err(error) => {
                let (status, reason) = error.status();
                let body = Json::Obj(vec![("error".to_string(), Json::Str(error.message().to_string()))]).render();
                let _ = write_response(&mut writer, status, reason, &[], &body, true);
                return;
            }
            Ok(Some(request)) => {
                // a handler panic answers 500 and keeps the worker alive
                let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    state.handle(&request.method, &request.path, &request.body)
                }));
                let (status, body, allow) = match outcome {
                    Ok(response) => (response.status, response.body.render(), response.allow),
                    Err(_) => (
                        500,
                        Json::Obj(vec![("error".to_string(), Json::Str("internal error".to_string()))]).render(),
                        None,
                    ),
                };
                let headers: Vec<(&str, &str)> = allow.map(|v| ("Allow", v)).into_iter().collect();
                let close = request.close;
                if write_response(&mut writer, status, reason_phrase(status), &headers, &body, close).is_err() || close
                {
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lncl_crowd::truth::streaming::StreamingConfig;
    use std::io::{Read, Write};

    fn request(addr: SocketAddr, raw: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(raw.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    #[test]
    fn server_answers_healthz_and_shuts_down() {
        let state = Arc::new(AppState::new(StreamingConfig::pooled(2)));
        let mut server = Server::start(state, ServerConfig::default()).unwrap();
        let response = request(server.addr(), "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(response.contains("\"ok\": true"), "{response}");
        server.stop();
        server.stop(); // idempotent
    }

    #[test]
    fn keep_alive_serves_multiple_requests_per_connection() {
        let state = Arc::new(AppState::new(StreamingConfig::pooled(2)));
        let server = Server::start(state, ServerConfig::default()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
        for _ in 0..3 {
            stream.write_all(b"GET /stats HTTP/1.1\r\n\r\n").unwrap();
            // read exactly one framed response: status line, headers,
            // Content-Length body (TCP reads may be short)
            let mut status_line = String::new();
            std::io::BufRead::read_line(&mut reader, &mut status_line).unwrap();
            assert!(status_line.starts_with("HTTP/1.1 200 OK"), "{status_line}");
            let mut content_length = 0usize;
            loop {
                let mut line = String::new();
                std::io::BufRead::read_line(&mut reader, &mut line).unwrap();
                if line.trim_end().is_empty() {
                    break;
                }
                if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                    content_length = v.trim().parse().unwrap();
                }
            }
            let mut body = vec![0u8; content_length];
            reader.read_exact(&mut body).unwrap();
            assert!(String::from_utf8(body).unwrap().contains("\"mode\""));
        }
    }
}
