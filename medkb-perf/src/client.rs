//! A minimal HTTP/1.1 keep-alive client for the load generator.
//!
//! One request at a time on one connection (closed loop). Responses are
//! framed by `content-length`, which is all the server under test emits.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One keep-alive connection.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

/// A received response.
#[derive(Debug, Clone)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Body as text.
    pub body: String,
}

impl Client {
    /// Connect to `addr`.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let reader = BufReader::with_capacity(64 * 1024, stream.try_clone()?);
        Ok(Self {
            writer: stream,
            reader,
        })
    }

    /// The wire bytes of a request with an optional JSON body.
    pub fn request_bytes(method: &str, path: &str, body: Option<&str>) -> Vec<u8> {
        match body {
            Some(b) => format!(
                "{method} {path} HTTP/1.1\r\nhost: medkb\r\ncontent-type: application/json\r\n\
                 content-length: {}\r\n\r\n{b}",
                b.len()
            )
            .into_bytes(),
            None => format!("{method} {path} HTTP/1.1\r\nhost: medkb\r\n\r\n").into_bytes(),
        }
    }

    /// Send pre-built request bytes and read the response.
    pub fn send(&mut self, request: &[u8]) -> std::io::Result<Reply> {
        self.writer.write_all(request)?;
        self.read_reply()
    }

    /// `method path` with an optional JSON body.
    pub fn call(&mut self, method: &str, path: &str, body: Option<&str>) -> std::io::Result<Reply> {
        self.send(&Self::request_bytes(method, path, body))
    }

    fn read_reply(&mut self) -> std::io::Result<Reply> {
        let bad = |m: String| std::io::Error::new(std::io::ErrorKind::InvalidData, m);
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed before a status line".into()));
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(format!("bad status line {line:?}")))?;
        let mut length: Option<usize> = None;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed inside the headers".into()));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = Some(
                        value
                            .trim()
                            .parse()
                            .map_err(|_| bad(format!("bad length {value:?}")))?,
                    );
                }
            }
        }
        let length = length.ok_or_else(|| bad("response without content-length".into()))?;
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body).map_err(|_| bad("body is not UTF-8".into()))?;
        Ok(Reply { status, body })
    }
}
