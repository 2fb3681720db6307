//! Hand-rolled HTTP/1.1 request parsing and response rendering.
//!
//! The parser is incremental over a growing byte buffer: callers feed
//! whatever has arrived on the socket and get back *need more bytes*,
//! *one complete request* (plus how many bytes it consumed), or a typed
//! [`ParseError`]. Every malformed input — truncated frames, garbage
//! bytes, oversized heads or bodies, unparsable `Content-Length` — maps
//! to an error with a definite HTTP status; nothing in this module
//! panics, allocates unboundedly, or loops without consuming input
//! (pinned by `tests/http_prop.rs`).

use std::fmt;

/// Head/body size limits enforced *before* buffering, so a hostile
/// client cannot make the server allocate past them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Max bytes of request line + headers (terminator included).
    pub max_head_bytes: usize,
    /// Max declared `Content-Length`.
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits { max_head_bytes: 8 * 1024, max_body_bytes: 4 * 1024 * 1024 }
    }
}

/// Supported request methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// `GET`
    Get,
    /// `POST`
    Post,
}

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method.
    pub method: Method,
    /// Request target as sent (path + optional query).
    pub target: String,
    /// Headers with lower-cased names, in wire order.
    pub headers: Vec<(String, String)>,
    /// Request body (exactly `Content-Length` bytes; empty without one).
    pub body: Vec<u8>,
}

impl Request {
    /// First header value for `name` (ASCII case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection should stay open after the response
    /// (HTTP/1.1 default unless the client sent `Connection: close`).
    pub fn keep_alive(&self) -> bool {
        !self
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }

    /// The target's path component (query string stripped).
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }
}

/// Typed request-parse failures; each knows its HTTP status. The
/// serving loop renders these as JSON error responses — a malformed
/// frame is a *reply*, never a panic or a hung connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The request line was not `METHOD SP TARGET SP HTTP/1.1`.
    BadRequestLine(String),
    /// The method is not one this server implements.
    UnsupportedMethod(String),
    /// The version was not HTTP/1.0 or HTTP/1.1.
    UnsupportedVersion(String),
    /// A header line had no colon, an empty name, or non-ASCII bytes.
    BadHeader(String),
    /// `Content-Length` was unparsable or duplicated inconsistently.
    BadContentLength(String),
    /// The head grew past [`Limits::max_head_bytes`] without terminating.
    HeadTooLarge(usize),
    /// The declared body length exceeds [`Limits::max_body_bytes`].
    BodyTooLarge {
        /// Declared `Content-Length`.
        declared: usize,
        /// The configured cap it exceeded.
        max: usize,
    },
}

impl ParseError {
    /// The HTTP status this failure is reported with.
    pub fn status(&self) -> u16 {
        match self {
            ParseError::BadRequestLine(_)
            | ParseError::BadHeader(_)
            | ParseError::BadContentLength(_) => 400,
            ParseError::UnsupportedMethod(_) => 405,
            ParseError::UnsupportedVersion(_) => 505,
            ParseError::HeadTooLarge(_) => 431,
            ParseError::BodyTooLarge { .. } => 413,
        }
    }

    /// Stable machine-readable kind tag (used in JSON error bodies and
    /// metrics labels).
    pub fn kind(&self) -> &'static str {
        match self {
            ParseError::BadRequestLine(_) => "bad_request_line",
            ParseError::UnsupportedMethod(_) => "unsupported_method",
            ParseError::UnsupportedVersion(_) => "unsupported_version",
            ParseError::BadHeader(_) => "bad_header",
            ParseError::BadContentLength(_) => "bad_content_length",
            ParseError::HeadTooLarge(_) => "head_too_large",
            ParseError::BodyTooLarge { .. } => "body_too_large",
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::BadRequestLine(l) => write!(f, "bad request line {l:?}"),
            ParseError::UnsupportedMethod(m) => write!(f, "unsupported method {m:?}"),
            ParseError::UnsupportedVersion(v) => write!(f, "unsupported version {v:?}"),
            ParseError::BadHeader(h) => write!(f, "bad header {h:?}"),
            ParseError::BadContentLength(v) => write!(f, "bad content-length {v:?}"),
            ParseError::HeadTooLarge(n) => write!(f, "request head exceeds {n} bytes"),
            ParseError::BodyTooLarge { declared, max } => {
                write!(f, "declared body of {declared} bytes exceeds cap of {max}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// Outcome of one incremental parse attempt.
#[derive(Debug)]
pub enum Parse {
    /// The buffer does not yet hold a complete request; read more.
    Partial,
    /// One complete request, consuming the first `.1` buffer bytes.
    Done(Request, usize),
}

/// Tries to parse one request from the front of `buf`.
///
/// Returns [`Parse::Partial`] while the frame is incomplete (the caller
/// keeps reading), [`Parse::Done`] with the consumed byte count on
/// success, or a typed [`ParseError`]. The head limit is enforced even
/// on incomplete frames, so an attacker dribbling an endless header
/// block is rejected at the cap, not buffered forever.
pub fn parse_request(buf: &[u8], limits: &Limits) -> Result<Parse, ParseError> {
    // Locate the head terminator within the cap.
    let window = &buf[..buf.len().min(limits.max_head_bytes)];
    let head_end = match find_terminator(window) {
        Some(i) => i,
        None if buf.len() >= limits.max_head_bytes => {
            return Err(ParseError::HeadTooLarge(limits.max_head_bytes));
        }
        None => return Ok(Parse::Partial),
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| ParseError::BadHeader("non-utf8 bytes in head".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method_s, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next())
    {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(ParseError::BadRequestLine(clip(request_line))),
    };
    let method = match method_s {
        "GET" => Method::Get,
        "POST" => Method::Post,
        other if other.chars().all(|c| c.is_ascii_uppercase()) => {
            return Err(ParseError::UnsupportedMethod(clip(other)));
        }
        _ => return Err(ParseError::BadRequestLine(clip(request_line))),
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(ParseError::UnsupportedVersion(clip(version)));
    }

    let mut headers = Vec::new();
    let mut content_length: Option<usize> = None;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ParseError::BadHeader(clip(line)))?;
        let name = name.trim();
        if name.is_empty() || !name.chars().all(|c| c.is_ascii_graphic()) {
            return Err(ParseError::BadHeader(clip(line)));
        }
        let name = name.to_ascii_lowercase();
        let value = value.trim().to_string();
        if name == "content-length" {
            let n: usize = value
                .parse()
                .map_err(|_| ParseError::BadContentLength(clip(&value)))?;
            if content_length.is_some_and(|prev| prev != n) {
                return Err(ParseError::BadContentLength(
                    "conflicting duplicates".into(),
                ));
            }
            content_length = Some(n);
        }
        headers.push((name, value));
    }

    let body_len = content_length.unwrap_or(0);
    if body_len > limits.max_body_bytes {
        // Shed before buffering: the declaration alone is grounds for
        // rejection, no matter how much of the body has arrived.
        return Err(ParseError::BodyTooLarge {
            declared: body_len,
            max: limits.max_body_bytes,
        });
    }
    let body_start = head_end + 4;
    if buf.len() < body_start + body_len {
        return Ok(Parse::Partial);
    }
    let body = buf[body_start..body_start + body_len].to_vec();
    Ok(Parse::Done(
        Request { method, target: target.to_string(), headers, body },
        body_start + body_len,
    ))
}

/// Index of `\r\n\r\n` start in `buf`, if present.
fn find_terminator(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Truncates interned copies of attacker-controlled strings so error
/// values stay small however large the input was.
fn clip(s: &str) -> String {
    const MAX: usize = 64;
    if s.len() <= MAX {
        s.to_string()
    } else {
        let mut end = MAX;
        while !s.is_char_boundary(end) {
            end -= 1;
        }
        format!("{}…", &s[..end])
    }
}

/// Reason phrase for the status codes this server emits.
pub fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// Renders a full HTTP/1.1 response. `Content-Length` is always set;
/// `extra` headers (e.g. `Retry-After`) are appended verbatim.
pub fn render_response(
    code: u16,
    content_type: &str,
    extra: &[(&str, String)],
    body: &[u8],
    keep_alive: bool,
) -> Vec<u8> {
    let mut head = format!(
        "HTTP/1.1 {code} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        status_text(code),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (k, v) in extra {
        head.push_str(k);
        head.push_str(": ");
        head.push_str(v);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let mut out = head.into_bytes();
    out.extend_from_slice(body);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(raw: &[u8]) -> (Request, usize) {
        match parse_request(raw, &Limits::default())
            .expect("well-formed request parses")
        {
            Parse::Done(r, n) => (r, n),
            Parse::Partial => panic!("unexpected partial"),
        }
    }

    #[test]
    fn parses_get_and_post() {
        let (r, n) = parse_ok(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(r.method, Method::Get);
        assert_eq!(r.path(), "/healthz");
        assert!(r.keep_alive());
        assert_eq!(n, b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n".len());

        let raw = b"POST /explain HTTP/1.1\r\nContent-Length: 4\r\nConnection: close\r\n\r\nbodyEXTRA";
        let (r, n) = parse_ok(raw);
        assert_eq!(r.method, Method::Post);
        assert_eq!(r.body, b"body");
        assert!(!r.keep_alive());
        assert_eq!(n, raw.len() - 5);
    }

    #[test]
    fn incomplete_frames_are_partial_not_errors() {
        let raw = b"POST /explain HTTP/1.1\r\nContent-Length: 10\r\n\r\nhalf";
        for cut in 0..raw.len() {
            match parse_request(&raw[..cut], &Limits::default()) {
                Ok(Parse::Partial) => {}
                other => panic!("cut {cut}: {other:?}"),
            }
        }
    }

    #[test]
    fn typed_errors_for_malformed_input() {
        let l = Limits::default();
        assert_eq!(
            parse_request(b"nonsense\r\n\r\n", &l).expect_err("malformed input is a typed error").status(),
            400
        );
        assert_eq!(
            parse_request(b"PUT /x HTTP/1.1\r\n\r\n", &l).expect_err("malformed input is a typed error").status(),
            405
        );
        assert_eq!(
            parse_request(b"GET /x HTTP/2\r\n\r\n", &l).expect_err("malformed input is a typed error").status(),
            505
        );
        assert_eq!(
            parse_request(b"GET /x HTTP/1.1\r\nbad header\r\n\r\n", &l)
                .expect_err("malformed input is a typed error")
                .status(),
            400
        );
        assert_eq!(
            parse_request(
                b"POST /x HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
                &l
            )
            .expect_err("malformed input is a typed error")
            .status(),
            400
        );
    }

    #[test]
    fn oversized_head_and_body_are_shed() {
        let small = Limits { max_head_bytes: 64, max_body_bytes: 16 };
        let long = vec![b'a'; 100];
        assert!(matches!(
            parse_request(&long, &small),
            Err(ParseError::HeadTooLarge(64))
        ));
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 99\r\n\r\n";
        assert!(matches!(
            parse_request(raw, &small),
            Err(ParseError::BodyTooLarge { declared: 99, max: 16 })
        ));
    }

    #[test]
    fn response_rendering_is_well_formed() {
        let out = render_response(
            429,
            "application/json",
            &[("Retry-After", "1".to_string())],
            b"{}",
            false,
        );
        let s = String::from_utf8(out).expect("rendered response is UTF-8");
        assert!(s.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(s.contains("Content-Length: 2\r\n"));
        assert!(s.contains("Retry-After: 1\r\n"));
        assert!(s.contains("Connection: close\r\n"));
        assert!(s.ends_with("\r\n\r\n{}"));
    }
}
