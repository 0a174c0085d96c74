//! A minimal HTTP/1.1 request parser and response writer.
//!
//! The container this workspace builds in has no crates.io access, so the
//! serving layer cannot use hyper/axum.  This module implements exactly the
//! subset the truth-inference API needs: request line + headers +
//! `Content-Length` bodies, keep-alive connections, and plain
//! `Content-Type: application/json` responses.  Everything a client can
//! get wrong maps to a typed [`HttpError`] with the right 4xx status —
//! workers answer and drop the connection instead of panicking (the
//! robustness contract tested in `tests/http_service.rs`).

use std::fmt::Write as _;
use std::io::{BufRead, Write};

/// Upper bound on the request line plus headers, in bytes.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;
/// Upper bound on a request body, in bytes.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, …).
    pub method: String,
    /// Request path, query string stripped.
    pub path: String,
    /// Raw request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Whether the client asked to close the connection after the
    /// response (`Connection: close`).
    pub close: bool,
}

/// A request that could not be parsed; maps to one 4xx response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// Malformed request line / headers / `Content-Length` → `400`.
    BadRequest(String),
    /// Declared body larger than [`MAX_BODY_BYTES`] → `413`.
    PayloadTooLarge(String),
    /// Request line + headers larger than [`MAX_HEAD_BYTES`] → `431`.
    HeadersTooLarge(String),
}

impl HttpError {
    /// The status line pair for the error.
    pub fn status(&self) -> (u16, &'static str) {
        match self {
            HttpError::BadRequest(_) => (400, "Bad Request"),
            HttpError::PayloadTooLarge(_) => (413, "Payload Too Large"),
            HttpError::HeadersTooLarge(_) => (431, "Request Header Fields Too Large"),
        }
    }

    /// The human-readable reason carried by the error.
    pub fn message(&self) -> &str {
        match self {
            HttpError::BadRequest(m) | HttpError::PayloadTooLarge(m) | HttpError::HeadersTooLarge(m) => m,
        }
    }
}

/// Reads one line terminated by `\n` (CR stripped) into `line`, bounding
/// the total head size.  The line is copied out of the reader's buffer a
/// buffered run at a time, up to and including the `\n`.  `Ok(None)` means
/// the peer closed before sending any byte of the line.
fn read_line<'a>(
    reader: &mut impl BufRead,
    budget: &mut usize,
    line: &'a mut Vec<u8>,
) -> Result<Option<&'a str>, HttpError> {
    line.clear();
    loop {
        let available = reader.fill_buf().map_err(|e| HttpError::BadRequest(format!("read error: {e}")))?;
        if available.is_empty() {
            if line.is_empty() {
                return Ok(None);
            }
            return Err(HttpError::BadRequest("connection closed mid-line".into()));
        }
        let end = available.iter().position(|&b| b == b'\n');
        let run = end.map_or(available.len(), |i| i + 1);
        if run > *budget {
            return Err(HttpError::HeadersTooLarge(format!("request head exceeds {MAX_HEAD_BYTES} bytes")));
        }
        *budget -= run;
        line.extend_from_slice(&available[..run]);
        reader.consume(run);
        if end.is_some() {
            line.pop();
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return std::str::from_utf8(line)
                .map(Some)
                .map_err(|_| HttpError::BadRequest("non-UTF-8 request head".into()));
        }
    }
}

/// Parses one request from the stream.  `Ok(None)` = the connection ended
/// before a request started: a clean close, or a read error or timeout
/// before its first byte (an idle keep-alive connection has nothing to be
/// answered); `Err` = answer with the error's status and close.
pub fn parse_request(reader: &mut impl BufRead) -> Result<Option<Request>, HttpError> {
    // a read that fails or times out here has no request to answer
    if !reader.fill_buf().is_ok_and(|buffered| !buffered.is_empty()) {
        return Ok(None);
    }
    let mut budget = MAX_HEAD_BYTES;
    let mut buf = Vec::new();
    let Some(request_line) = read_line(reader, &mut budget, &mut buf)? else {
        return Ok(None);
    };
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next()) else {
        return Err(HttpError::BadRequest(format!("malformed request line {request_line:?}")));
    };
    if parts.next().is_some() || !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest(format!("malformed request line {request_line:?}")));
    }
    if !target.starts_with('/') {
        return Err(HttpError::BadRequest(format!("request target {target:?} is not an absolute path")));
    }
    let method = method.to_ascii_uppercase();
    let path = target.split('?').next().unwrap_or(target).to_string();

    let mut content_length: Option<usize> = None;
    let mut close = false;
    loop {
        let Some(line) = read_line(reader, &mut budget, &mut buf)? else {
            return Err(HttpError::BadRequest("connection closed inside headers".into()));
        };
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::BadRequest(format!("malformed header line {line:?}")));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            let parsed: usize =
                value.parse().map_err(|_| HttpError::BadRequest(format!("invalid Content-Length {value:?}")))?;
            // duplicate Content-Length headers are a request-smuggling
            // vector (RFC 9110 §8.6): identical repeats are tolerated,
            // conflicting ones must never silently last-win
            match content_length {
                Some(previous) if previous != parsed => {
                    return Err(HttpError::BadRequest(format!(
                        "conflicting Content-Length headers ({previous} then {parsed})"
                    )));
                }
                _ => content_length = Some(parsed),
            }
        } else if name.eq_ignore_ascii_case("connection") && value.eq_ignore_ascii_case("close") {
            close = true;
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::PayloadTooLarge(format!(
            "body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
        )));
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| HttpError::BadRequest(format!("short body ({content_length} bytes declared): {e}")))?;

    Ok(Some(Request { method, path, body, close }))
}

/// Writes one `application/json` response with `Content-Length`, plus any
/// `extra_headers` (e.g. the `Allow` header a `405` must carry), as a
/// single `write_all`.  The status line, the headers and the body, which
/// `render_body` appends (say, `|buf| json.render_to(buf)`), are built in
/// `buf`, cleared first: one buffer reused across a connection's responses,
/// so a response leaves as one segment instead of one per header.
pub fn write_response(
    stream: &mut impl Write,
    buf: &mut String,
    status: u16,
    reason: &str,
    extra_headers: &[(&str, &str)],
    render_body: impl FnOnce(&mut String),
    close: bool,
) -> std::io::Result<()> {
    buf.clear();
    let _ = write!(buf, "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\n");
    for (name, value) in extra_headers {
        let _ = write!(buf, "{name}: {value}\r\n");
    }
    let head = buf.len();
    render_body(buf);
    // the two headers that need the body's length, formatted on the stack
    // and moved in front of the rendered body
    let (length, connection) = (buf.len() - head, if close { "close" } else { "keep-alive" });
    let mut tail = std::io::Cursor::new([0u8; 64]);
    write!(tail, "Content-Length: {length}\r\nConnection: {connection}\r\n\r\n")?;
    let used = tail.position() as usize;
    buf.insert_str(head, std::str::from_utf8(&tail.get_ref()[..used]).expect("ASCII headers"));
    stream.write_all(buf.as_bytes())?;
    stream.flush()
}

/// The standard reason phrase for the status codes the service emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lncl_tensor::json::Json;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Option<Request>, HttpError> {
        parse_request(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_get_without_body() {
        let req = parse("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap().unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
        assert!(!req.close);
    }

    #[test]
    fn parses_post_with_body_and_strips_query() {
        let req =
            parse("POST /labels?x=1 HTTP/1.1\r\nContent-Length: 4\r\nConnection: close\r\n\r\nabcd").unwrap().unwrap();
        assert_eq!(req.path, "/labels");
        assert_eq!(req.body, b"abcd");
        assert!(req.close);
    }

    #[test]
    fn clean_close_before_request_is_none() {
        assert_eq!(parse("").unwrap(), None);
    }

    #[test]
    fn malformed_request_lines_are_bad_requests() {
        for raw in ["GARBAGE\r\n\r\n", "GET /x\r\n\r\n", "GET /x SPDY/3\r\n\r\n", "GET x HTTP/1.1\r\n\r\n"] {
            assert!(matches!(parse(raw), Err(HttpError::BadRequest(_))), "{raw:?}");
        }
    }

    #[test]
    fn invalid_content_length_is_a_bad_request() {
        let err = parse("POST /labels HTTP/1.1\r\nContent-Length: ten\r\n\r\n").unwrap_err();
        assert!(matches!(err, HttpError::BadRequest(_)));
        assert!(err.message().contains("Content-Length"));
    }

    #[test]
    fn conflicting_duplicate_content_lengths_are_rejected() {
        let err = parse("POST /labels HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 2\r\n\r\nabcd").unwrap_err();
        assert_eq!(err.status().0, 400);
        assert!(err.message().contains("conflicting Content-Length"), "{}", err.message());
    }

    #[test]
    fn identical_duplicate_content_lengths_are_tolerated() {
        let req =
            parse("POST /labels HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nabcd").unwrap().unwrap();
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn oversized_body_is_payload_too_large() {
        let raw = format!("POST /labels HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        let err = parse(&raw).unwrap_err();
        assert_eq!(err.status().0, 413);
    }

    #[test]
    fn oversized_head_is_rejected() {
        let raw = format!("GET /x HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(MAX_HEAD_BYTES));
        let err = parse(&raw).unwrap_err();
        assert_eq!(err.status().0, 431);
    }

    #[test]
    fn truncated_body_is_a_bad_request() {
        let err = parse("POST /labels HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc").unwrap_err();
        assert!(matches!(err, HttpError::BadRequest(_)));
    }

    /// A `BufRead` that hands out one byte per `fill_buf`, so every line
    /// of a head arrives split across as many buffer refills as it has bytes.
    struct OneByte<'a>(&'a [u8]);

    impl std::io::Read for OneByte<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let n = self.fill_buf()?.len().min(out.len());
            out[..n].copy_from_slice(&self.0[..n]);
            self.consume(n);
            Ok(n)
        }
    }

    impl BufRead for OneByte<'_> {
        fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
            Ok(&self.0[..self.0.len().min(1)])
        }

        fn consume(&mut self, n: usize) {
            self.0 = &self.0[n..];
        }
    }

    /// Parses `raw` from one whole buffer and byte by byte; both must agree.
    fn parse_both_ways(raw: &[u8]) -> Result<Option<Request>, HttpError> {
        let whole = parse_request(&mut BufReader::new(raw));
        assert_eq!(parse_request(&mut OneByte(raw)), whole, "{:?}", String::from_utf8_lossy(raw));
        whole
    }

    #[test]
    fn head_reader_parses_the_same_request_from_any_buffering() {
        let expected = Request { method: "POST".into(), path: "/labels".into(), body: b"abcd".to_vec(), close: true };
        for raw in [
            "post /labels?x=1 HTTP/1.1\r\nContent-Length: 4\r\nConnection: close\r\n\r\nabcd",
            "post /labels?x=1 HTTP/1.1\nContent-Length: 4\nConnection: close\n\nabcd",
        ] {
            assert_eq!(parse_both_ways(raw.as_bytes()), Ok(Some(expected.clone())), "{raw:?}");
        }
    }

    #[test]
    fn head_budget_admits_exactly_max_head_bytes() {
        // request line + one padded header + the blank line
        let framing = "GET /x HTTP/1.1\r\nX-Pad: \r\n\r\n".len();
        let head = |len: usize| format!("GET /x HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(len - framing));
        let fits = head(MAX_HEAD_BYTES);
        assert_eq!(fits.len(), MAX_HEAD_BYTES);
        assert_eq!(parse_both_ways(fits.as_bytes()).unwrap().unwrap().path, "/x");
        let over = head(MAX_HEAD_BYTES + 1);
        assert_eq!(parse_both_ways(over.as_bytes()).unwrap_err().status().0, 431);
    }

    #[test]
    fn head_reader_edges() {
        let non_utf8 = parse_both_ways(b"GET /x HTTP/1.1\r\nX-Bad: \xff\xfe\r\n\r\n").unwrap_err();
        assert_eq!(non_utf8, HttpError::BadRequest("non-UTF-8 request head".into()));
        let mid_line = parse_both_ways(b"GET /x HTTP/1.1\r\nHost: x").unwrap_err();
        assert_eq!(mid_line, HttpError::BadRequest("connection closed mid-line".into()));
        let in_headers = parse_both_ways(b"GET /x HTTP/1.1\r\n").unwrap_err();
        assert_eq!(in_headers, HttpError::BadRequest("connection closed inside headers".into()));
        assert_eq!(parse_both_ways(b""), Ok(None));
    }

    #[test]
    fn read_error_before_a_request_is_a_quiet_close_and_inside_one_a_bad_request() {
        /// Hands out `bytes`, then fails every read with a timeout.
        struct TimesOut<'a>(&'a [u8]);
        impl std::io::Read for TimesOut<'_> {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                if self.0.is_empty() {
                    return Err(std::io::ErrorKind::WouldBlock.into());
                }
                let n = self.0.len().min(out.len());
                out[..n].copy_from_slice(&self.0[..n]);
                self.0 = &self.0[n..];
                Ok(n)
            }
        }
        assert_eq!(parse_request(&mut BufReader::new(TimesOut(b""))), Ok(None));
        let mut reader = BufReader::new(TimesOut(b"GET /healthz HTTP/1.1\r\n\r\n"));
        assert_eq!(parse_request(&mut reader).unwrap().unwrap().path, "/healthz");
        assert_eq!(parse_request(&mut reader), Ok(None));
        let stalled = parse_request(&mut BufReader::new(TimesOut(b"GET /healthz HTTP/1.1\r\nHo"))).unwrap_err();
        assert!(matches!(&stalled, HttpError::BadRequest(m) if m.starts_with("read error")), "{stalled:?}");
    }

    /// A `Write` that records its bytes and counts the `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(data);
            Ok(data.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// The bytes of one response and the number of `write` calls it took.
    fn respond(status: u16, headers: &[(&str, &str)], body: &str, close: bool) -> (String, usize) {
        let mut out = CountingWriter::default();
        // a buffer holding a previous, longer response, as on a keep-alive
        // connection
        let mut buf = "x".repeat(1000);
        let render = |buf: &mut String| buf.push_str(body);
        write_response(&mut out, &mut buf, status, reason_phrase(status), headers, render, close).unwrap();
        assert_eq!(buf.as_bytes(), out.bytes);
        (String::from_utf8(out.bytes).unwrap(), out.writes)
    }

    #[test]
    fn every_response_is_one_write_of_the_framed_bytes() {
        let ok = Json::Obj(vec![("ok".into(), Json::Bool(true))]).render();
        let (text, writes) = respond(200, &[], &ok, false);
        let expected = "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 17\r\n\
                        Connection: keep-alive\r\n\r\n{\n  \"ok\": true\n}\n";
        assert_eq!((text.as_str(), text.len(), writes), (expected, 112, 1));

        let (text, writes) = respond(405, &[("Allow", "GET")], "{}", true);
        let expected = "HTTP/1.1 405 Method Not Allowed\r\nContent-Type: application/json\r\nAllow: GET\r\n\
                        Content-Length: 2\r\nConnection: close\r\n\r\n{}";
        assert_eq!((text.as_str(), text.len(), writes), (expected, 119, 1));

        let error = HttpError::HeadersTooLarge(format!("request head exceeds {MAX_HEAD_BYTES} bytes"));
        let body = Json::Obj(vec![("error".into(), Json::Str(error.message().into()))]).render();
        let (text, writes) = respond(error.status().0, &[], &body, true);
        let expected = "HTTP/1.1 431 Request Header Fields Too Large\r\nContent-Type: application/json\r\n\
                        Content-Length: 49\r\nConnection: close\r\n\r\n\
                        {\n  \"error\": \"request head exceeds 8192 bytes\"\n}\n";
        assert_eq!((text.as_str(), writes), (expected, 1));
    }
}
