//! A small, incremental HTTP/1.1 **request** parser and response
//! writer — just enough protocol for the serving layer, hand-rolled
//! over `std` so the workspace stays dependency-free.
//!
//! Scope (deliberately narrow, like the exemplar embedded servers):
//!
//! * methods `GET` / `POST`; request bodies sized by `Content-Length`
//!   only (no chunked transfer coding — a typed error, not a hang);
//! * `HTTP/1.1` keep-alive semantics (1.1 persists by default, 1.0
//!   closes by default, `Connection:` header overrides either way);
//! * **bounded everything**: the request head (request line + headers)
//!   and the body each have hard byte caps, so a hostile or broken
//!   peer cannot balloon memory; overflow is a typed error the server
//!   answers with the right 4xx before closing;
//! * incremental feeding: [`HeadParser`] consumes bytes as they arrive
//!   and says how many it used, so a read loop can hand it arbitrary
//!   chunk boundaries (including one byte at a time — pinned by test).

use std::fmt;

/// Hard cap on the request head (request line + all headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Default cap on a request body; configurable per server.
pub const DEFAULT_MAX_BODY_BYTES: usize = 1024 * 1024;

/// The request methods the server routes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// `GET` — read-only endpoints (`/health`, `/stats`).
    Get,
    /// `POST` — everything that carries a JSON body.
    Post,
}

impl Method {
    /// The canonical spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
        }
    }
}

/// A parsed request head: everything before the body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestHead {
    /// The request method.
    pub method: Method,
    /// The request target (path only; any `?query` is kept verbatim).
    pub path: String,
    /// `true` for `HTTP/1.1`, `false` for `HTTP/1.0`.
    pub http11: bool,
    /// Header name/value pairs, names lowercased, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Parsed `Content-Length` (0 when absent).
    pub content_length: usize,
    /// Whether the connection should persist after this exchange
    /// (version default, overridden by a `Connection:` header).
    pub keep_alive: bool,
}

impl RequestHead {
    /// First header value with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        // Stored names are lowercased; only the lookup name varies.
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Typed parse failures. Each maps to one HTTP status
/// ([`HttpError::status`]), so the server can answer precisely before
/// closing the connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The request line was not `METHOD SP TARGET SP HTTP/1.x`.
    BadRequestLine,
    /// A method this server does not implement.
    UnsupportedMethod(String),
    /// An HTTP version other than 1.0/1.1.
    UnsupportedVersion(String),
    /// A header line without a `:` or with an empty name.
    BadHeader,
    /// A `Content-Length` that is not a decimal integer (or conflicts
    /// with a repeated one).
    BadContentLength,
    /// `Transfer-Encoding` present — bodies must be `Content-Length`
    /// sized here.
    UnsupportedTransferEncoding,
    /// The request head exceeded [`MAX_HEAD_BYTES`].
    HeadTooLarge,
    /// The declared body exceeds the server's body cap.
    BodyTooLarge {
        /// Declared `Content-Length`.
        declared: usize,
        /// The server's cap.
        limit: usize,
    },
    /// The peer closed mid-request (a torn head or short body).
    Torn,
}

impl HttpError {
    /// The HTTP status code this error answers with.
    pub fn status(&self) -> u16 {
        match self {
            HttpError::BadRequestLine
            | HttpError::BadHeader
            | HttpError::BadContentLength
            | HttpError::Torn => 400,
            HttpError::UnsupportedMethod(_) => 405,
            HttpError::UnsupportedVersion(_) => 505,
            HttpError::UnsupportedTransferEncoding => 501,
            HttpError::HeadTooLarge => 431,
            HttpError::BodyTooLarge { .. } => 413,
        }
    }

    /// A stable machine-readable code for the wire error body (the
    /// protocol-level sibling of `GdimError::code`).
    pub fn code(&self) -> &'static str {
        match self {
            HttpError::BadRequestLine => "bad_request_line",
            HttpError::UnsupportedMethod(_) => "method_not_allowed",
            HttpError::UnsupportedVersion(_) => "http_version_not_supported",
            HttpError::BadHeader => "bad_header",
            HttpError::BadContentLength => "bad_content_length",
            HttpError::UnsupportedTransferEncoding => "unsupported_transfer_encoding",
            HttpError::HeadTooLarge => "head_too_large",
            HttpError::BodyTooLarge { .. } => "body_too_large",
            HttpError::Torn => "torn_request",
        }
    }
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::BadRequestLine => write!(f, "malformed request line"),
            HttpError::UnsupportedMethod(m) => write!(f, "unsupported method {m:?}"),
            HttpError::UnsupportedVersion(v) => write!(f, "unsupported HTTP version {v:?}"),
            HttpError::BadHeader => write!(f, "malformed header line"),
            HttpError::BadContentLength => write!(f, "malformed content-length"),
            HttpError::UnsupportedTransferEncoding => {
                write!(
                    f,
                    "transfer-encoding is not supported; size bodies with content-length"
                )
            }
            HttpError::HeadTooLarge => {
                write!(f, "request head exceeds {MAX_HEAD_BYTES} bytes")
            }
            HttpError::BodyTooLarge { declared, limit } => {
                write!(
                    f,
                    "declared body of {declared} bytes exceeds the {limit}-byte limit"
                )
            }
            HttpError::Torn => write!(f, "connection closed mid-request"),
        }
    }
}

impl std::error::Error for HttpError {}

/// Incremental request-head parser: feed it bytes as they arrive until
/// it yields a [`RequestHead`].
///
/// The parser buffers at most [`MAX_HEAD_BYTES`]; the head is complete
/// at the first empty line (`\r\n\r\n`, with a lone-`\n` tolerance).
/// [`HeadParser::feed`] reports how many of the offered bytes it
/// consumed — bytes past the head boundary are left for the caller,
/// which is what lets a read loop hand over raw socket chunks without
/// caring where requests end.
#[derive(Debug, Default)]
pub struct HeadParser {
    buf: Vec<u8>,
}

impl HeadParser {
    /// A fresh parser. One serves a whole connection: a completed head
    /// resets it, keeping the buffer's capacity for the next request.
    pub fn new() -> Self {
        HeadParser::default()
    }

    /// Offers `bytes`; returns the number consumed, plus the parsed
    /// head once the terminating empty line has been seen.
    ///
    /// After `Ok((_, Some(head)))` the parser is empty again, ready for
    /// the next request's head. An error ends the connection (the
    /// server answers its status and closes), so the parser with it.
    pub fn feed(&mut self, bytes: &[u8]) -> Result<(usize, Option<RequestHead>), HttpError> {
        // Find the head terminator across the old/new byte boundary.
        // Scanning restarts at most 3 bytes back, so feeding the head
        // one byte at a time stays linear.
        let scan_from = self.buf.len().saturating_sub(3);
        let mut take = bytes.len();
        let mut complete = false;
        {
            // Look for "\r\n\r\n" in buf + bytes without concatenating.
            let total = self.buf.len() + bytes.len();
            let at = |i: usize| -> u8 {
                if i < self.buf.len() {
                    self.buf[i]
                } else {
                    bytes[i - self.buf.len()]
                }
            };
            let mut i = scan_from;
            while i + 3 < total {
                if at(i) == b'\r' && at(i + 1) == b'\n' && at(i + 2) == b'\r' && at(i + 3) == b'\n'
                {
                    take = i + 4 - self.buf.len();
                    complete = true;
                    break;
                }
                i += 1;
            }
        }
        if self.buf.len() + take > MAX_HEAD_BYTES {
            return Err(HttpError::HeadTooLarge);
        }
        self.buf.extend_from_slice(&bytes[..take]);
        if !complete {
            return Ok((take, None));
        }
        let head = self.parse_complete();
        self.buf.clear();
        Ok((take, Some(head?)))
    }

    fn parse_complete(&self) -> Result<RequestHead, HttpError> {
        let text = std::str::from_utf8(&self.buf).map_err(|_| HttpError::BadHeader)?;
        let mut lines = text.split("\r\n");
        let request_line = lines.next().ok_or(HttpError::BadRequestLine)?;
        let mut parts = request_line.split(' ');
        let (method, target, version) =
            match (parts.next(), parts.next(), parts.next(), parts.next()) {
                (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
                _ => return Err(HttpError::BadRequestLine),
            };
        let method = match method {
            "GET" => Method::Get,
            "POST" => Method::Post,
            other => return Err(HttpError::UnsupportedMethod(other.to_string())),
        };
        let http11 = match version {
            "HTTP/1.1" => true,
            "HTTP/1.0" => false,
            other => return Err(HttpError::UnsupportedVersion(other.to_string())),
        };
        let mut headers = Vec::new();
        let mut content_length: Option<usize> = None;
        let mut keep_alive = http11;
        for line in lines {
            if line.is_empty() {
                break; // the terminating empty line
            }
            let (name, value) = line.split_once(':').ok_or(HttpError::BadHeader)?;
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_string();
            if name.is_empty() {
                return Err(HttpError::BadHeader);
            }
            match name.as_str() {
                "content-length" => {
                    let parsed: usize = value.parse().map_err(|_| HttpError::BadContentLength)?;
                    // Repeated, conflicting lengths are request smuggling
                    // bait; repeated identical ones are tolerated.
                    if content_length.is_some_and(|prev| prev != parsed) {
                        return Err(HttpError::BadContentLength);
                    }
                    content_length = Some(parsed);
                }
                "transfer-encoding" if !value.eq_ignore_ascii_case("identity") => {
                    return Err(HttpError::UnsupportedTransferEncoding);
                }
                "connection" => {
                    // Token list; "close" / "keep-alive" decide.
                    for token in value.split(',') {
                        let token = token.trim();
                        if token.eq_ignore_ascii_case("close") {
                            keep_alive = false;
                        } else if token.eq_ignore_ascii_case("keep-alive") {
                            keep_alive = true;
                        }
                    }
                }
                _ => {}
            }
            headers.push((name, value));
        }
        Ok(RequestHead {
            method,
            path: target.to_string(),
            http11,
            headers,
            content_length: content_length.unwrap_or(0),
            keep_alive,
        })
    }
}

/// The reason phrases of the statuses this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// Serializes one response: status line, `Content-Type:
/// application/json`, explicit `Content-Length`, and a `Connection`
/// header matching `keep_alive`.
pub fn response_bytes(status: u16, body: &str, keep_alive: bool) -> Vec<u8> {
    let mut out = Vec::new();
    write_response_bytes(&mut out, status, "application/json", body, keep_alive, &[]);
    out
}

/// Appends one response — head and body — to `out`: [`response_bytes`]
/// with an explicit content type and extra headers (what `GET /metrics`
/// and the request-id echo need), into a buffer the connection loop
/// reuses and hands to a single `write_all`. Header names/values are
/// emitted verbatim; callers must keep them free of CR/LF.
pub fn write_response_bytes(
    out: &mut Vec<u8>,
    status: u16,
    content_type: &str,
    body: &str,
    keep_alive: bool,
    extra_headers: &[(&str, &str)],
) {
    use std::io::Write as _;
    let connection = if keep_alive { "keep-alive" } else { "close" };
    // Writing to a `Vec` cannot fail.
    let _ = write!(
        out,
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
        status,
        reason(status),
        content_type,
        body.len(),
        connection
    );
    for (name, value) in extra_headers {
        let _ = write!(out, "{name}: {value}\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body.as_bytes());
}

/// Serializes one request the way [`Client`](crate::Client) sends it —
/// request line, `host`, explicit `content-length`, then the body — as
/// one buffer, so head and body leave in a single write (two writes on
/// a `TCP_NODELAY` socket wake the server for a body-less head).
pub fn request_bytes(method: &str, path: &str, host: impl fmt::Display, body: &str) -> Vec<u8> {
    use std::io::Write as _;
    // One allocation in the usual case: 80 bytes cover the fixed text,
    // a socket-address host and the length's digits.
    let mut out = Vec::with_capacity(method.len() + path.len() + 80 + body.len());
    // Writing to a `Vec` cannot fail.
    let _ = write!(
        out,
        "{method} {path} HTTP/1.1\r\nhost: {host}\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    out.extend_from_slice(body.as_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_all(bytes: &[u8]) -> Result<(usize, Option<RequestHead>), HttpError> {
        HeadParser::new().feed(bytes)
    }

    #[test]
    fn parses_a_complete_head_and_reports_consumption() {
        let raw = b"POST /search HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello";
        let (used, head) = parse_all(raw).unwrap();
        let head = head.expect("complete head");
        assert_eq!(used, raw.len() - 5, "body bytes are left to the caller");
        assert_eq!(head.method, Method::Post);
        assert_eq!(head.path, "/search");
        assert!(head.http11);
        assert_eq!(head.content_length, 5);
        assert!(head.keep_alive, "1.1 persists by default");
        assert_eq!(head.header("host"), Some("x"));
        assert_eq!(head.header("HOST"), Some("x"), "lookup is case-insensitive");
    }

    #[test]
    fn byte_at_a_time_feeding_matches_one_shot() {
        let raw = b"GET /stats HTTP/1.1\r\nA: 1\r\nB: two words\r\n\r\n";
        let (_, expect) = parse_all(raw).unwrap();
        let mut p = HeadParser::new();
        let mut head = None;
        for (i, b) in raw.iter().enumerate() {
            let (used, done) = p.feed(std::slice::from_ref(b)).unwrap();
            assert_eq!(used, 1, "byte {i} consumed");
            if let Some(h) = done {
                head = Some(h);
                assert_eq!(i, raw.len() - 1, "completes exactly at the final byte");
            }
        }
        assert_eq!(Some(expect.unwrap()), head);
    }

    #[test]
    fn split_feeding_across_the_terminator_consumes_exactly_the_head() {
        let raw = b"GET / HTTP/1.1\r\n\r\nEXTRA";
        let mut p = HeadParser::new();
        let (used1, none) = p.feed(&raw[..10]).unwrap();
        assert_eq!((used1, none.is_none()), (10, true));
        let (used2, head) = p.feed(&raw[10..]).unwrap();
        assert!(head.is_some());
        assert_eq!(used1 + used2, raw.len() - 5, "EXTRA stays unconsumed");
    }

    #[test]
    fn one_parser_reads_consecutive_heads() {
        let raw = b"GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 0\r\n\r\n";
        let mut p = HeadParser::new();
        let (used, first) = p.feed(raw).unwrap();
        assert_eq!(first.unwrap().path, "/a");
        let (rest, second) = p.feed(&raw[used..]).unwrap();
        assert_eq!(second.unwrap().path, "/b");
        assert_eq!(used + rest, raw.len());
    }

    #[test]
    fn connection_and_version_semantics() {
        let (_, h) = parse_all(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!h.unwrap().keep_alive, "1.0 closes by default");
        let (_, h) = parse_all(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(h.unwrap().keep_alive);
        let (_, h) = parse_all(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!h.unwrap().keep_alive);
    }

    #[test]
    fn typed_errors_for_malformed_heads() {
        assert_eq!(
            parse_all(b"BREW /tea HTTP/1.1\r\n\r\n").unwrap_err(),
            HttpError::UnsupportedMethod("BREW".into())
        );
        assert_eq!(
            parse_all(b"GET / HTTP/2\r\n\r\n").unwrap_err(),
            HttpError::UnsupportedVersion("HTTP/2".into())
        );
        assert_eq!(
            parse_all(b"GET/HTTP/1.1\r\n\r\n").unwrap_err(),
            HttpError::BadRequestLine
        );
        assert_eq!(
            parse_all(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n").unwrap_err(),
            HttpError::BadHeader
        );
        assert_eq!(
            parse_all(b"GET / HTTP/1.1\r\nContent-Length: ten\r\n\r\n").unwrap_err(),
            HttpError::BadContentLength
        );
        assert_eq!(
            parse_all(b"GET / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\n")
                .unwrap_err(),
            HttpError::BadContentLength
        );
        assert_eq!(
            parse_all(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").unwrap_err(),
            HttpError::UnsupportedTransferEncoding
        );
    }

    #[test]
    fn the_head_cap_is_enforced_incrementally() {
        let mut p = HeadParser::new();
        let line = b"GET / HTTP/1.1\r\n";
        p.feed(line).unwrap();
        // Keep feeding header bytes until the cap trips — the buffer
        // never exceeds MAX_HEAD_BYTES.
        let filler = vec![b'a'; 4096];
        let mut total = line.len();
        loop {
            match p.feed(&filler) {
                Ok((used, None)) => total += used,
                Ok((_, Some(_))) => panic!("no terminator was ever fed"),
                Err(e) => {
                    assert_eq!(e, HttpError::HeadTooLarge);
                    assert!(total <= MAX_HEAD_BYTES);
                    break;
                }
            }
        }
    }

    #[test]
    fn error_statuses_and_codes_are_pinned() {
        let table: [(HttpError, u16, &str); 9] = [
            (HttpError::BadRequestLine, 400, "bad_request_line"),
            (
                HttpError::UnsupportedMethod("X".into()),
                405,
                "method_not_allowed",
            ),
            (
                HttpError::UnsupportedVersion("HTTP/2".into()),
                505,
                "http_version_not_supported",
            ),
            (HttpError::BadHeader, 400, "bad_header"),
            (HttpError::BadContentLength, 400, "bad_content_length"),
            (
                HttpError::UnsupportedTransferEncoding,
                501,
                "unsupported_transfer_encoding",
            ),
            (HttpError::HeadTooLarge, 431, "head_too_large"),
            (
                HttpError::BodyTooLarge {
                    declared: 9,
                    limit: 1,
                },
                413,
                "body_too_large",
            ),
            (HttpError::Torn, 400, "torn_request"),
        ];
        for (err, status, code) in table {
            assert_eq!(err.status(), status, "{code}");
            assert_eq!(err.code(), code);
        }
    }

    #[test]
    fn response_bytes_carry_length_and_connection() {
        let bytes = response_bytes(200, "{\"ok\":true}", true);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 11\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
        let closed = String::from_utf8(response_bytes(404, "{}", false)).unwrap();
        assert!(closed.contains("connection: close"));
    }

    #[test]
    fn appended_responses_carry_extra_headers_after_what_was_there() {
        let mut out = b"earlier".to_vec();
        write_response_bytes(&mut out, 200, "text/plain", "hi", false, &[("x-id", "7")]);
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "earlierHTTP/1.1 200 OK\r\ncontent-type: text/plain\r\ncontent-length: 2\r\n\
             connection: close\r\nx-id: 7\r\n\r\nhi"
        );
    }

    #[test]
    fn request_bytes_are_pinned() {
        let text = |m, p, b| String::from_utf8(request_bytes(m, p, "127.0.0.1:7171", b)).unwrap();
        assert_eq!(
            text("GET", "/health", ""),
            "GET /health HTTP/1.1\r\nhost: 127.0.0.1:7171\r\ncontent-length: 0\r\n\r\n"
        );
        assert_eq!(
            text("POST", "/rebuild", ""),
            "POST /rebuild HTTP/1.1\r\nhost: 127.0.0.1:7171\r\ncontent-length: 0\r\n\r\n"
        );
        let body = "{\"query\":{\"id\":3},\"k\":5} é";
        let post = text("POST", "/search", body);
        assert_eq!(
            post,
            format!(
                "POST /search HTTP/1.1\r\nhost: 127.0.0.1:7171\r\ncontent-length: 27\r\n\r\n{body}"
            ),
            "content-length counts bytes, not chars"
        );
        // The server's own parser reads it back: head, then exactly the body.
        let (used, head) = HeadParser::new().feed(post.as_bytes()).unwrap();
        let head = head.expect("complete head");
        assert_eq!((head.method, head.path.as_str()), (Method::Post, "/search"));
        assert_eq!(head.content_length, post.len() - used);
    }
}
