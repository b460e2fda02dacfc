//! A deliberately small HTTP/1.1 subset over `std::io` streams — just
//! enough for the serving plane and its load generator to talk to each
//! other (and for `curl`/Prometheus to talk to the server): request line
//! + headers + `Content-Length` bodies, keep-alive by default, no
//! chunked transfer, no TLS.

use std::io::{BufRead, Read, Write};

/// Upper bound on one header section (request line included), bytes.
const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Upper bound on a request/response body we are willing to buffer.
const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// Why a request could not be read. A refusal's reason never quotes the
/// client's bytes: it is sent back and logged, and a line may be 16 KiB.
#[derive(Debug)]
pub enum ReadError {
    /// The stream failed, timed out or ended mid-message: there is no one
    /// left to answer.
    Io(std::io::Error),
    /// The peer sent something the server refuses: the caller answers
    /// `status` (400 malformed, 413 body too large, 431 header section
    /// too large) and closes the connection.
    Refused {
        /// The HTTP status to answer with.
        status: u16,
        /// What was wrong, for the error body and the event log.
        reason: String,
    },
}

impl From<std::io::Error> for ReadError {
    fn from(e: std::io::Error) -> ReadError {
        ReadError::Io(e)
    }
}

impl From<ReadError> for std::io::Error {
    fn from(e: ReadError) -> std::io::Error {
        match e {
            ReadError::Io(e) => e,
            ReadError::Refused { reason, .. } => {
                std::io::Error::new(std::io::ErrorKind::InvalidData, reason)
            }
        }
    }
}

/// A parsed HTTP/1.1 request (server side) — method, target, headers and
/// a fully buffered body.
#[derive(Debug, Clone)]
pub struct Request {
    /// `GET`, `POST`, ... (uppercased by the peer, not by us).
    pub method: String,
    /// The raw request target, e.g. `/solve?algorithm=general`.
    pub target: String,
    /// Header `(name, value)` pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty without `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// The target's path component.
    pub fn path(&self) -> &str {
        match self.target.split_once('?') {
            Some((p, _)) => p,
            None => &self.target,
        }
    }

    /// The target's raw query string, if any.
    pub fn query(&self) -> Option<&str> {
        self.target.split_once('?').map(|(_, q)| q)
    }

    /// The first value of query parameter `key` (`k=v` pairs joined by
    /// `&`; no percent-decoding — the serving API's values never need it).
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query()?
            .split('&')
            .filter_map(|kv| kv.split_once('='))
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v)
    }

    /// The value of header `name` (ASCII case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close the connection after this
    /// request.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

fn refused(status: u16, reason: impl Into<String>) -> ReadError {
    ReadError::Refused {
        status,
        reason: reason.into(),
    }
}

fn unexpected_eof() -> ReadError {
    ReadError::Io(std::io::Error::new(
        std::io::ErrorKind::UnexpectedEof,
        "connection closed mid-message",
    ))
}

/// Reads one line (without CRLF) through the running header budget: at
/// most `budget + 1` bytes are consumed, so a peer that never sends a
/// newline cannot grow the line past the budget. `Ok(None)` at end of
/// stream.
fn read_line(r: &mut impl BufRead, budget: &mut usize) -> Result<Option<String>, ReadError> {
    let mut line = Vec::new();
    let n = r
        .by_ref()
        .take(*budget as u64 + 1)
        .read_until(b'\n', &mut line)?;
    if n == 0 {
        return Ok(None);
    }
    *budget = budget
        .checked_sub(n)
        .ok_or_else(|| refused(431, "header section exceeds 16 KiB"))?;
    while matches!(line.last(), Some(b'\n' | b'\r')) {
        line.pop();
    }
    String::from_utf8(line)
        .map(Some)
        .map_err(|_| refused(400, "header line is not UTF-8"))
}

/// Reads the header block shared by requests and responses, returning the
/// `(name, value)` pairs (names lowercased) and the parsed
/// `Content-Length` (0 when absent).
fn read_headers(
    r: &mut impl BufRead,
    budget: &mut usize,
) -> Result<(Vec<(String, String)>, usize), ReadError> {
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    loop {
        let line = read_line(r, budget)?.ok_or_else(unexpected_eof)?;
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| refused(400, "malformed header line"))?;
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_owned();
        if name == "content-length" {
            content_length = value
                .parse()
                .map_err(|_| refused(400, "bad content-length"))?;
            if content_length > MAX_BODY_BYTES {
                return Err(refused(413, "body exceeds 16 MiB"));
            }
        }
        headers.push((name, value));
    }
    Ok((headers, content_length))
}

fn read_body(r: &mut impl BufRead, len: usize) -> std::io::Result<Vec<u8>> {
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(body)
}

/// Reads one request off a keep-alive connection. `Ok(None)` means the
/// peer closed the connection cleanly between requests.
pub fn read_request(r: &mut impl BufRead) -> Result<Option<Request>, ReadError> {
    let mut budget = MAX_HEADER_BYTES;
    let Some(first) = read_line(r, &mut budget)? else {
        return Ok(None);
    };
    let mut parts = first.split_ascii_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) => (m.to_owned(), t.to_owned(), v),
        _ => return Err(refused(400, "malformed request line")),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(refused(400, "unsupported protocol"));
    }
    let (headers, content_length) = read_headers(r, &mut budget)?;
    let body = read_body(r, content_length)?;
    Ok(Some(Request {
        method,
        target,
        headers,
        body,
    }))
}

/// The canonical reason phrase for the handful of statuses we emit.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Content Too Large",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Serializes one response (status line + headers + body) to wire bytes.
/// Encoding is split from writing so the server can record a request's
/// metrics *before* the client can observe the response — a client that
/// completes a request and then scrapes `/metrics` is guaranteed to see
/// itself counted.
pub fn encode_response(status: u16, content_type: &str, body: &[u8]) -> Vec<u8> {
    let head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\n\r\n",
        status,
        reason(status),
        content_type,
        body.len()
    );
    let mut wire = head.into_bytes();
    wire.extend_from_slice(body);
    wire
}

/// Writes one response with a buffered body; returns the total bytes
/// written (header + body), which feeds the access log.
pub fn write_response(
    w: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<u64> {
    let wire = encode_response(status, content_type, body);
    w.write_all(&wire)?;
    w.flush()?;
    Ok(wire.len() as u64)
}

/// Writes one client-side request (keep-alive).
pub fn write_request(
    w: &mut impl Write,
    method: &str,
    target: &str,
    body: Option<&[u8]>,
) -> std::io::Result<()> {
    let body = body.unwrap_or(&[]);
    let head = format!(
        "{method} {target} HTTP/1.1\r\nhost: mc3\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    w.write_all(head.as_bytes())?;
    w.write_all(body)?;
    w.flush()
}

/// Reads one client-side response: `(status, body)`.
pub fn read_response(r: &mut impl BufRead) -> std::io::Result<(u16, Vec<u8>)> {
    let mut budget = MAX_HEADER_BYTES;
    let status_line = read_line(r, &mut budget)?.ok_or_else(unexpected_eof)?;
    let status: u16 = status_line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| refused(400, format!("malformed status line '{status_line}'")))?;
    let (_, content_length) = read_headers(r, &mut budget)?;
    let body = read_body(r, content_length)?;
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parses_request_with_query_and_body() {
        let raw = b"POST /solve?algorithm=general&x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nbodyGET";
        let mut cur = Cursor::new(&raw[..]);
        let req = read_request(&mut cur).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path(), "/solve");
        assert_eq!(req.query_param("algorithm"), Some("general"));
        assert_eq!(req.query_param("x"), Some("1"));
        assert_eq!(req.query_param("missing"), None);
        assert_eq!(req.body, b"body");
        assert!(!req.wants_close());
        assert_eq!(req.header("host"), Some("h"));
    }

    #[test]
    fn eof_between_requests_is_none() {
        let mut cur = Cursor::new(&b""[..]);
        assert!(read_request(&mut cur).unwrap().is_none());
    }

    /// The status a request is refused with; panics on anything else.
    fn refusal(raw: &[u8]) -> u16 {
        match read_request(&mut Cursor::new(raw)) {
            Err(ReadError::Refused { status, .. }) => status,
            other => panic!("expected a refusal, got {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_and_oversized_input() {
        assert_eq!(refusal(b"NOT-HTTP\r\n\r\n"), 400);
        assert_eq!(refusal(b"GET / SPDY/3\r\n\r\n"), 400);
        assert_eq!(refusal(b"GET / HTTP/1.1\r\nno colon here\r\n\r\n"), 400);
        assert_eq!(refusal(b"GET / HTTP/1.1\r\nContent-Length: x\r\n\r\n"), 400);
        let raw = format!("GET / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", usize::MAX);
        assert_eq!(refusal(raw.as_bytes()), 413);
        let raw = format!(
            "GET / HTTP/1.1\r\nx: {}\r\n\r\n",
            "a".repeat(MAX_HEADER_BYTES)
        );
        assert_eq!(refusal(raw.as_bytes()), 431);
        // A stream that ends mid-message is not a refusal: nobody is left
        // to answer.
        let truncated = read_request(&mut Cursor::new(&b"GET / HTTP/1.1\r\nHost: h\r\n"[..]));
        assert!(matches!(truncated, Err(ReadError::Io(_))), "{truncated:?}");
    }

    #[test]
    fn a_line_without_newline_is_read_only_up_to_the_header_budget() {
        let endless = vec![b'a'; 1 << 20];
        let request_line = [&b"GET /"[..], &endless].concat();
        let header_line = [&b"GET / HTTP/1.1\r\nx: "[..], &endless].concat();
        for raw in [request_line, header_line] {
            let mut cur = Cursor::new(raw);
            assert!(matches!(
                read_request(&mut cur),
                Err(ReadError::Refused { status: 431, .. })
            ));
            assert!(
                cur.position() <= MAX_HEADER_BYTES as u64 + 1,
                "consumed {} bytes",
                cur.position()
            );
        }
    }

    #[test]
    fn response_round_trips() {
        let mut wire = Vec::new();
        let n = write_response(&mut wire, 200, "text/plain", b"hello").unwrap();
        assert_eq!(n as usize, wire.len());
        let mut cur = Cursor::new(wire);
        let (status, body) = read_response(&mut cur).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, b"hello");
    }

    #[test]
    fn request_round_trips() {
        let mut wire = Vec::new();
        write_request(&mut wire, "POST", "/solve", Some(b"{}")).unwrap();
        let mut cur = Cursor::new(wire);
        let req = read_request(&mut cur).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/solve");
        assert_eq!(req.body, b"{}");
    }
}
