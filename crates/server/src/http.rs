//! A hand-rolled HTTP/1.1 subset: request parsing with hard limits,
//! response serialization, keep-alive bookkeeping.
//!
//! The server speaks exactly the slice of HTTP/1.1 a query endpoint
//! needs — `GET`/`POST`, `Content-Length` bodies (no chunked transfer
//! encoding), persistent connections with `Connection: close` opt-out —
//! and rejects everything outside it with the *specific* status code a
//! client can act on: `400` for malformed syntax, `405` for other
//! methods, `408` for a request that stalls mid-flight, `413` for a body
//! past the configured cap, `431` for header sections past theirs.
//! Every limit is enforced **while reading**, so a hostile or broken
//! client cannot make the server buffer unbounded input.

use std::io::{self, BufRead, Write};
use std::time::Duration;

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercased method (`GET`, `POST`, ...).
    pub method: String,
    /// The decoded path component of the request target (`/ql`).
    pub path: String,
    /// The raw query string after `?`, if any (percent-encoded).
    pub query: Option<String>,
    /// Header `(name, value)` pairs; names lowercased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// True when the client asked to keep the connection open after this
    /// exchange (HTTP/1.1 default, `Connection: close` opts out).
    pub keep_alive: bool,
}

impl Request {
    /// The first value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The decoded value of a query-string parameter.
    pub fn query_param(&self, name: &str) -> Option<String> {
        let query = self.query.as_deref()?;
        for pair in query.split('&') {
            let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
            if key == name {
                return Some(percent_decode(value));
            }
        }
        None
    }

    /// The request body as UTF-8 text (lossy).
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Why reading a request failed — each variant maps to one response (or,
/// for clean EOF/idle cases, to a silent close).
#[derive(Debug)]
pub enum ReadError {
    /// The connection closed cleanly before a new request started.
    ClosedIdle,
    /// The read timed out before the first byte of a new request — an
    /// idle keep-alive connection, closed without a response.
    TimedOutIdle,
    /// The read timed out after part of a request arrived → `408`.
    TimedOutMidRequest,
    /// The request is syntactically malformed → `400` with the detail.
    Malformed(String),
    /// The declared body exceeds the configured cap → `413`.
    BodyTooLarge {
        /// The `Content-Length` the client declared.
        declared: usize,
        /// The configured cap.
        limit: usize,
    },
    /// The request line + headers exceed the configured cap → `431`.
    HeadersTooLarge {
        /// The configured cap.
        limit: usize,
    },
    /// The method is outside the supported subset → `405`.
    MethodNotAllowed(String),
    /// A transport error with no meaningful response.
    Io(io::Error),
}

/// Hard limits applied while reading a request.
#[derive(Debug, Clone, Copy)]
pub struct ReadLimits {
    /// Cap on the request line plus the whole header section, in bytes.
    pub max_head_bytes: usize,
    /// Cap on the declared `Content-Length`, in bytes.
    pub max_body_bytes: usize,
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Reads one line (up to CRLF or LF) with a running byte budget shared
/// across the whole head section.
fn read_line(
    reader: &mut impl BufRead,
    budget: &mut usize,
    anything_read: &mut bool,
) -> Result<String, ReadError> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() && !*anything_read {
                    return Err(ReadError::ClosedIdle);
                }
                return Err(ReadError::Malformed("unexpected end of stream".into()));
            }
            Ok(_) => {
                *anything_read = true;
                if *budget == 0 {
                    return Err(ReadError::HeadersTooLarge { limit: 0 });
                }
                *budget -= 1;
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    return String::from_utf8(line)
                        .map_err(|_| ReadError::Malformed("non-UTF-8 request head".into()));
                }
                line.push(byte[0]);
            }
            Err(e) if is_timeout(&e) => {
                return Err(if *anything_read {
                    ReadError::TimedOutMidRequest
                } else {
                    ReadError::TimedOutIdle
                });
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ReadError::Io(e)),
        }
    }
}

/// Reads and parses one request from `reader`, enforcing `limits` as the
/// bytes arrive. The stream's read timeout doubles as both the keep-alive
/// idle timeout (before the first byte) and the stall timeout (after it).
pub fn read_request(reader: &mut impl BufRead, limits: ReadLimits) -> Result<Request, ReadError> {
    let mut budget = limits.max_head_bytes;
    let mut anything_read = false;

    // Request line. Tolerate one leading empty line (robustness note in
    // RFC 9112 §2.2).
    let mut request_line = read_line(reader, &mut budget, &mut anything_read)?;
    if request_line.is_empty() {
        request_line = read_line(reader, &mut budget, &mut anything_read)?;
    }
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => {
            (m.to_ascii_uppercase(), t.to_string(), v.to_string())
        }
        _ => {
            return Err(ReadError::Malformed(format!(
                "malformed request line {request_line:?}"
            )))
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(ReadError::Malformed(format!(
            "unsupported protocol version {version:?}"
        )));
    }
    if method != "GET" && method != "POST" {
        // Still drain the head so the 405 lands on a parseable exchange.
        loop {
            let line = read_line(reader, &mut budget, &mut anything_read)?;
            if line.is_empty() {
                break;
            }
        }
        return Err(ReadError::MethodNotAllowed(method));
    }

    // Headers.
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    let mut connection = None::<String>;
    loop {
        let line = match read_line(reader, &mut budget, &mut anything_read) {
            Ok(line) => line,
            Err(ReadError::HeadersTooLarge { .. }) => {
                return Err(ReadError::HeadersTooLarge {
                    limit: limits.max_head_bytes,
                })
            }
            Err(other) => return Err(other),
        };
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ReadError::Malformed(format!(
                "malformed header line {line:?}"
            )));
        };
        let name = name.trim().to_ascii_lowercase();
        if name.is_empty() || name.contains(' ') {
            return Err(ReadError::Malformed(format!(
                "malformed header name in {line:?}"
            )));
        }
        let value = value.trim().to_string();
        match name.as_str() {
            "content-length" => {
                content_length = value.parse().map_err(|_| {
                    ReadError::Malformed(format!("unparsable Content-Length {value:?}"))
                })?;
            }
            "transfer-encoding" => {
                return Err(ReadError::Malformed(
                    "Transfer-Encoding is unsupported; send a Content-Length body".into(),
                ));
            }
            "connection" => connection = Some(value.to_ascii_lowercase()),
            _ => {}
        }
        headers.push((name, value));
    }

    if content_length > limits.max_body_bytes {
        return Err(ReadError::BodyTooLarge {
            declared: content_length,
            limit: limits.max_body_bytes,
        });
    }

    // Body.
    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        let mut filled = 0;
        while filled < content_length {
            match reader.read(&mut body[filled..]) {
                Ok(0) => return Err(ReadError::Malformed("connection closed mid-body".into())),
                Ok(n) => filled += n,
                Err(e) if is_timeout(&e) => return Err(ReadError::TimedOutMidRequest),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(ReadError::Io(e)),
            }
        }
    }

    let keep_alive = match connection.as_deref() {
        Some(c) => !c.split(',').any(|t| t.trim() == "close"),
        None => version == "HTTP/1.1",
    };

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), Some(q.to_string())),
        None => (target, None),
    };
    Ok(Request {
        method,
        path: percent_decode(&path),
        query,
        headers,
        body,
        keep_alive,
    })
}

/// One response, ready to serialize.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` of the body.
    pub content_type: &'static str,
    /// Extra headers (`(name, value)`), e.g. the snapshot epoch.
    pub extra_headers: Vec<(String, String)>,
    /// The body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A response with a body and content type.
    pub fn new(status: u16, content_type: &'static str, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status,
            content_type,
            extra_headers: Vec::new(),
            body: body.into(),
        }
    }

    /// A `200 OK` JSON response.
    pub fn json(body: impl Into<Vec<u8>>) -> Self {
        Response::new(200, "application/json", body)
    }

    /// A `200 OK` plain-text response.
    pub fn text(body: impl Into<Vec<u8>>) -> Self {
        Response::new(200, "text/plain; charset=utf-8", body)
    }

    /// An error response with a JSON `{"error": ...}` body carrying the
    /// engine's message verbatim.
    pub fn error(status: u16, message: &str) -> Self {
        Response::new(
            status,
            "application/json",
            format!("{{\"error\":{}}}\n", json_string(message)),
        )
    }

    /// Attaches an extra header.
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Self {
        self.extra_headers.push((name.to_string(), value.into()));
        self
    }

    /// The standard reason phrase for the status code.
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Content Too Large",
            429 => "Too Many Requests",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "",
        }
    }

    /// Serializes the response head + body; `keep_alive` decides the
    /// `Connection` header the client sees.
    pub fn write_to(&self, stream: &mut impl Write, keep_alive: bool) -> io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        for (name, value) in &self.extra_headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str("\r\n");
        stream.write_all(head.as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

/// Percent-decodes a URL component (`%41` → `A`, `+` → space). Malformed
/// escapes pass through verbatim — the downstream parser then reports its
/// own error on the text it actually received.
pub fn percent_decode(text: &str) -> String {
    let bytes = text.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                match (
                    bytes.get(i + 1).and_then(|b| (*b as char).to_digit(16)),
                    bytes.get(i + 2).and_then(|b| (*b as char).to_digit(16)),
                ) {
                    (Some(hi), Some(lo)) => {
                        out.push((hi * 16 + lo) as u8);
                        i += 3;
                    }
                    _ => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            other => {
                out.push(other);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Percent-encodes a URL component (everything but unreserved characters).
pub fn percent_encode(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for byte in text.bytes() {
        match byte {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(byte as char)
            }
            other => out.push_str(&format!("%{other:02X}")),
        }
    }
    out
}

/// Renders a JSON string literal (quoted, escaped) from `text`.
pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    escape_json_into(&mut out, text);
    out.push('"');
    out
}

/// Appends `text` to `out` with the escapes a JSON string needs, without the
/// surrounding quotes: the one definition of the wire format's escaping,
/// shared by [`json_string`] and the streaming serializers in
/// [`crate::json`].
pub fn escape_json_into(out: &mut String, text: &str) {
    use std::fmt::Write;
    // Every byte that needs an escape is ASCII, so the stretches between
    // them are whole UTF-8 sequences and copy over as they are.
    let mut copied = 0;
    for (at, byte) in text.bytes().enumerate() {
        let escape = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&text[copied..at]);
        if escape.is_empty() {
            write!(out, "\\u{byte:04x}").expect("writing into a String cannot fail");
        } else {
            out.push_str(escape);
        }
        copied = at + 1;
    }
    out.push_str(&text[copied..]);
}

/// The read timeout the connection loop installs: `None` means block
/// forever, which the server never uses.
pub fn effective_timeout(d: Duration) -> Option<Duration> {
    Some(d.max(Duration::from_millis(1)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn limits() -> ReadLimits {
        ReadLimits {
            max_head_bytes: 4096,
            max_body_bytes: 1024,
        }
    }

    fn parse(raw: &str) -> Result<Request, ReadError> {
        read_request(&mut BufReader::new(raw.as_bytes()), limits())
    }

    #[test]
    fn parses_a_get_with_query() {
        let req = parse("GET /sparql?query=SELECT%20%2A&x=1 HTTP/1.1\r\nHost: h\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/sparql");
        assert_eq!(req.query_param("query").as_deref(), Some("SELECT *"));
        assert_eq!(req.query_param("x").as_deref(), Some("1"));
        assert_eq!(req.query_param("missing"), None);
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse("POST /ql HTTP/1.1\r\nContent-Length: 5\r\nConnection: close\r\n\r\nhello")
            .unwrap();
        assert_eq!(req.body_text(), "hello");
        assert!(!req.keep_alive);
        assert_eq!(req.header("content-length"), Some("5"));
    }

    #[test]
    fn malformed_request_lines_are_rejected() {
        for raw in [
            "GARBAGE\r\n\r\n",
            "GET /too many words HTTP/1.1\r\n\r\n",
            "GET /x HTTP/3.0\r\n\r\n",
            " \r\n\r\n",
        ] {
            assert!(
                matches!(parse(raw), Err(ReadError::Malformed(_))),
                "{raw:?} must be malformed"
            );
        }
    }

    #[test]
    fn malformed_headers_are_rejected() {
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nNoColonHere\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: banana\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
    }

    #[test]
    fn oversized_declarations_are_refused_up_front() {
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: 99999\r\n\r\n"),
            Err(ReadError::BodyTooLarge {
                declared: 99999,
                ..
            })
        ));
        let huge = format!("GET / HTTP/1.1\r\nX-Big: {}\r\n\r\n", "a".repeat(8192));
        assert!(matches!(
            parse(&huge),
            Err(ReadError::HeadersTooLarge { .. })
        ));
    }

    #[test]
    fn unsupported_methods_are_a_405() {
        assert!(matches!(
            parse("DELETE /ql HTTP/1.1\r\nHost: h\r\n\r\n"),
            Err(ReadError::MethodNotAllowed(m)) if m == "DELETE"
        ));
    }

    #[test]
    fn clean_eof_is_idle_close() {
        assert!(matches!(parse(""), Err(ReadError::ClosedIdle)));
        assert!(matches!(parse("GET / HTT"), Err(ReadError::Malformed(_))));
    }

    #[test]
    fn http10_defaults_to_close() {
        let req = parse("GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!req.keep_alive);
        let req = parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(req.keep_alive);
    }

    #[test]
    fn percent_coding_round_trips() {
        let original = "SELECT * WHERE { ?s <http://x/p> \"v alue\" }";
        assert_eq!(percent_decode(&percent_encode(original)), original);
        assert_eq!(
            percent_decode("a%2"),
            "a%2",
            "truncated escape passes through"
        );
        assert_eq!(percent_decode("a%zz"), "a%zz", "bad hex passes through");
    }

    #[test]
    fn json_strings_escape_controls() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}
