//! The load generator's HTTP/1.1 side: request rendering, one
//! keep-alive connection with incremental response parsing, and a
//! `GET /metrics` scrape.

use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::Duration;

/// Renders one complete `POST /explain` request for `rows`.
pub fn explain_request(rows: &[&[f32]]) -> Vec<u8> {
    let mut body = String::from("{\"rows\":[");
    for (i, row) in rows.iter().enumerate() {
        body.push_str(if i == 0 { "[" } else { ",[" });
        for (j, v) in row.iter().enumerate() {
            if j > 0 {
                body.push(',');
            }
            // Shortest text that parses back to the same f32.
            body.push_str(&v.to_string());
        }
        body.push(']');
    }
    body.push_str("]}");
    format!(
        "POST /explain HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One parsed response.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// The body bytes.
    pub body: Vec<u8>,
}

/// Takes one complete response off the front of `buf`, if there is one.
fn take_response(buf: &mut Vec<u8>) -> Result<Option<Response>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 head")?;
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("bad status line")?;
    let len: usize = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse().ok())?
        })
        .ok_or("missing Content-Length")?;
    let end = head_end + 4 + len;
    if buf.len() < end {
        return Ok(None);
    }
    let body = buf[head_end + 4..end].to_vec();
    buf.drain(..end);
    Ok(Some(Response { status, body }))
}

/// One keep-alive client connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Connects with Nagle off.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
        })
    }

    /// Writes one whole request.
    pub fn send(&mut self, request: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(request)
    }

    /// Waits up to `wait` for the next complete response. `Ok(None)`
    /// means the wait ran out first; the connection stays usable.
    pub fn recv_within(&mut self, wait: Duration) -> Result<Option<Response>, String> {
        if let Some(r) = take_response(&mut self.buf)? {
            return Ok(Some(r));
        }
        if !readable_within(&self.stream, wait).map_err(|e| e.to_string())? {
            return Ok(None);
        }
        let mut chunk = [0u8; 16 * 1024];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err("connection closed".into()),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                take_response(&mut self.buf)
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => Ok(None),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Blocks (up to `limit`) for the next complete response.
    pub fn recv(&mut self, limit: Duration) -> Result<Response, String> {
        let until = std::time::Instant::now() + limit;
        loop {
            let left = until.saturating_duration_since(std::time::Instant::now());
            if left.is_zero() {
                return Err(format!("no response within {limit:?}"));
            }
            if let Some(r) = self.recv_within(left)? {
                return Ok(r);
            }
        }
    }
}

/// Waits until `stream` has bytes to read or `wait` passes. `ppoll`
/// sleeps on a high-resolution timer; a socket read timeout would round
/// every wait up to a scheduler tick and make the open loop's sends late.
fn readable_within(stream: &TcpStream, wait: Duration) -> std::io::Result<bool> {
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: u64,
            timeout: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> i32;
    }
    const POLLIN: i16 = 1;
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let timeout = Timespec {
        tv_sec: wait.as_secs().min(i64::MAX as u64) as i64,
        tv_nsec: i64::from(wait.subsec_nanos()),
    };
    // SAFETY: `fd` and `timeout` outlive the call and have the layout of
    // Linux's `struct pollfd` and 64-bit `struct timespec`; `nfds` is 1,
    // the length of the array `fd` stands for; a null `sigmask` leaves
    // the signal mask alone. The descriptor belongs to `stream`, which
    // the borrow keeps open.
    let n = unsafe { ppoll(&mut fd, 1, &timeout, std::ptr::null()) };
    if n < 0 {
        let e = std::io::Error::last_os_error();
        return if e.kind() == ErrorKind::Interrupted {
            Ok(false)
        } else {
            Err(e)
        };
    }
    Ok(n > 0)
}

/// Scrapes `GET /metrics` into `name → value` (bucket lines and
/// comments skipped).
pub fn scrape_metrics(addr: SocketAddr) -> Result<BTreeMap<String, f64>, String> {
    let mut conn = Conn::connect(addr).map_err(|e| e.to_string())?;
    conn.send(b"GET /metrics HTTP/1.1\r\nHost: perfbench\r\nConnection: close\r\n\r\n")
        .map_err(|e| e.to_string())?;
    let r = conn.recv(Duration::from_secs(10))?;
    if r.status != 200 {
        return Err(format!("GET /metrics answered {}", r.status));
    }
    let text = String::from_utf8(r.body).map_err(|_| "non-UTF-8 metrics")?;
    Ok(text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.contains("_bucket{"))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn responses_are_split_off_a_pipelined_stream() {
        let mut buf = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}HTTP/1.1 429 Too Many\r\ncontent-length: 3\r\n\r\nab"
            .to_vec();
        let r = take_response(&mut buf).expect("parse").expect("complete");
        assert_eq!((r.status, r.body.as_slice()), (200, &b"{}"[..]));
        assert!(
            take_response(&mut buf).expect("parse").is_none(),
            "body incomplete"
        );
        buf.push(b'c');
        let r = take_response(&mut buf).expect("parse").expect("complete");
        assert_eq!((r.status, r.body.len(), buf.len()), (429, 3, 0));
    }

    #[test]
    fn rows_render_as_round_tripping_json() {
        let req = explain_request(&[&[0.1, 1.0], &[0.0, 0.333_333_34]]);
        let text = String::from_utf8(req).expect("utf8");
        let body = text.split("\r\n\r\n").nth(1).expect("body");
        assert_eq!(body, "{\"rows\":[[0.1,1],[0,0.33333334]]}");
        assert!(text.contains(&format!("Content-Length: {}\r\n", body.len())));
    }
}
