//! A minimal keep-alive HTTP/1.1 client for `mc3 serve`.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Longest response body accepted (a `/solve` answer is well under this).
const MAX_BODY: usize = 64 << 20;

/// One answered request.
pub struct Response {
    /// HTTP status.
    pub status: u16,
    /// Response body.
    pub body: Vec<u8>,
    /// Request bytes written (head and body).
    pub sent: usize,
    /// Response bytes read (head and body).
    pub received: usize,
}

/// One keep-alive connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    wire: Vec<u8>,
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl Conn {
    /// Connects with Nagle off (requests go out in one write).
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            wire: Vec::new(),
        })
    }

    /// Sends one request and reads the whole response.
    pub fn request(&mut self, method: &str, target: &str, body: &[u8]) -> io::Result<Response> {
        self.wire.clear();
        self.wire.extend_from_slice(
            format!(
                "{method} {target} HTTP/1.1\r\nhost: mc3\r\ncontent-length: {}\r\n\r\n",
                body.len()
            )
            .as_bytes(),
        );
        self.wire.extend_from_slice(body);
        self.writer.write_all(&self.wire)?;
        self.writer.flush()?;

        let mut line = String::new();
        let mut head_bytes = self.reader.read_line(&mut line)?;
        if head_bytes == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before the response",
            ));
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid(format!("bad status line {line:?}")))?;
        let mut len = 0usize;
        loop {
            line.clear();
            let n = self.reader.read_line(&mut line)?;
            if n == 0 {
                return Err(invalid("truncated response head".into()));
            }
            head_bytes += n;
            let l = line.trim_end();
            if l.is_empty() {
                break;
            }
            if let Some((k, v)) = l.split_once(':') {
                if k.trim().eq_ignore_ascii_case("content-length") {
                    len = v
                        .trim()
                        .parse()
                        .map_err(|_| invalid(format!("bad content-length {v:?}")))?;
                }
            }
        }
        if len > MAX_BODY {
            return Err(invalid(format!("response body of {len} bytes")));
        }
        let mut out = vec![0u8; len];
        self.reader.read_exact(&mut out)?;
        Ok(Response {
            status,
            body: out,
            sent: self.wire.len(),
            received: head_bytes + len,
        })
    }
}
