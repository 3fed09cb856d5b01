//! A small blocking HTTP/1.1 client for the gdim wire protocol —
//! keep-alive aware, hand-rolled over `std::net` like everything else
//! here. Shared by the CLI, the integration tests, and the load
//! harness, so they all exercise the same byte-level protocol.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::http::request_bytes;
use crate::json::{parse, Json};

/// Default socket read timeout — generous, because exact-ranker
/// searches and sync rebuilds legitimately take a while.
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(60);

/// A keep-alive HTTP client pinned to one server address.
///
/// The connection is reused across requests; when the server closed
/// it between requests (keep-alive expiry, server restart), the next
/// request transparently reconnects and retries **once** — only safe
/// here because nothing had been read for that attempt yet.
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    timeout: Duration,
}

impl Client {
    /// A client for `addr`; resolves the first address and connects
    /// eagerly so misconfiguration fails fast.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "address resolved empty"))?;
        let mut c = Client {
            addr,
            stream: None,
            timeout: DEFAULT_TIMEOUT,
        };
        c.reconnect()?;
        Ok(c)
    }

    /// Overrides the read timeout (applies from the next reconnect).
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self.stream = None;
        self
    }

    /// The server address this client is pinned to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn reconnect(&mut self) -> io::Result<&mut TcpStream> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(self.timeout))?;
        self.stream = Some(stream);
        Ok(self.stream.as_mut().expect("just set"))
    }

    /// `GET path` → `(status, parsed JSON body)`.
    pub fn get(&mut self, path: &str) -> io::Result<(u16, Json)> {
        self.request("GET", path, None)
    }

    /// `GET path` → `(status, raw body text)` — no JSON parse, for
    /// non-JSON endpoints like `/metrics` (Prometheus text).
    pub fn get_text(&mut self, path: &str) -> io::Result<(u16, String)> {
        let reused = self.stream.is_some();
        match self.try_request_text("GET", path, None) {
            Ok(reply) => Ok(reply),
            Err(_) if reused => {
                self.stream = None;
                self.try_request_text("GET", path, None)
            }
            Err(e) => Err(e),
        }
    }

    /// `POST path` with a JSON body → `(status, parsed JSON body)`.
    /// `Json::Null` sends an empty body.
    pub fn post(&mut self, path: &str, body: &Json) -> io::Result<(u16, Json)> {
        let payload = match body {
            Json::Null => String::new(),
            other => other.to_string_compact(),
        };
        self.post_text(path, &payload)
    }

    /// `POST path` with `body` sent byte for byte.
    pub(crate) fn post_text(&mut self, path: &str, body: &str) -> io::Result<(u16, Json)> {
        self.request("POST", path, Some(body))
    }

    fn request(&mut self, method: &str, path: &str, body: Option<&str>) -> io::Result<(u16, Json)> {
        let reused = self.stream.is_some();
        match self.try_request(method, path, body) {
            Ok(reply) => Ok(reply),
            // A dead keep-alive connection surfaces as an I/O error
            // before any response bytes arrive; retry once on a fresh
            // connection. A fresh-connection failure is real.
            Err(_) if reused => {
                self.stream = None;
                self.try_request(method, path, body)
            }
            Err(e) => Err(e),
        }
    }

    fn try_request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<(u16, Json)> {
        let (status, payload) = self.try_request_text(method, path, body)?;
        let json = parse(&payload).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad response JSON: {e}"),
            )
        })?;
        Ok((status, json))
    }

    fn try_request_text(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<(u16, String)> {
        let addr = self.addr;
        let stream = match self.stream.as_mut() {
            Some(s) => s,
            None => self.reconnect()?,
        };
        // Head and body leave in one write: on this `TCP_NODELAY` socket
        // two writes are two segments, and the server would wake for a
        // head whose body has not arrived.
        stream.write_all(&request_bytes(method, path, addr, body.unwrap_or("")))?;
        let (status, keep_alive, payload) = read_response(stream)?;
        if !keep_alive {
            self.stream = None;
        }
        Ok((status, payload))
    }
}

/// Reads one HTTP response: `(status, keep_alive, body)`. Bodies must
/// be `Content-Length` sized — which the gdim server guarantees.
fn read_response(stream: &mut impl Read) -> io::Result<(u16, bool, String)> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 8 * 1024];
    // Read until the head terminator. Each search resumes 3 bytes
    // before the new bytes (a terminator can straddle the boundary), so
    // a head that drips in byte by byte is still scanned once.
    let mut scanned = 0usize;
    let head_end = loop {
        let from = scanned.saturating_sub(3);
        if let Some(pos) = buf[from..].windows(4).position(|w| w == b"\r\n\r\n") {
            break from + pos;
        }
        scanned = buf.len();
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 response head"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    // "HTTP/1.1 200 OK" — the middle token is the status.
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad status line {status_line:?}"),
            )
        })?;
    let mut content_length = 0usize;
    let mut keep_alive = true; // HTTP/1.1 default
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let (name, value) = (name.trim(), value.trim());
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse()
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad content-length"))?;
        } else if name.eq_ignore_ascii_case("connection") && value.eq_ignore_ascii_case("close") {
            keep_alive = false;
        }
    }
    // The head is parsed; what is left of `buf` becomes the body.
    let mut body = buf;
    body.drain(..head_end + 4);
    while body.len() < content_length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-body",
            ));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    let body = String::from_utf8(body)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 response body"))?;
    Ok((status, keep_alive, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A peer that hands over at most `step` bytes per `read`.
    struct Drip<'a> {
        bytes: &'a [u8],
        step: usize,
    }

    impl Read for Drip<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.step.min(self.bytes.len()).min(buf.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    #[test]
    fn responses_read_the_same_however_the_bytes_are_split() {
        let raw = crate::http::response_bytes(404, "{\"error\":\"é\"}", false);
        let mut mixed_case = b"HTTP/1.1 200 OK\r\nContent-LENGTH: 2\r\nX: y\r\n\r\n{}".to_vec();
        mixed_case.extend_from_slice(b"next response");
        for step in [1, 2, 3, 4, 5, 7, 64, 8192] {
            let got = read_response(&mut Drip { bytes: &raw, step }).unwrap();
            assert_eq!(got, (404, false, "{\"error\":\"é\"}".to_string()), "{step}");
            let got = read_response(&mut Drip {
                bytes: &mixed_case,
                step,
            })
            .unwrap();
            assert_eq!(got, (200, true, "{}".to_string()), "step {step}");
        }
        let torn = read_response(&mut Drip {
            bytes: &raw[..raw.len() - 1],
            step: 5,
        });
        assert_eq!(torn.unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
    }
}
