//! A release `mc3 serve` child process.

use crate::http::Conn;
use crate::prom::Scrape;
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A running server; dropping it kills the process and waits for it.
pub struct Server {
    child: Child,
    /// Held open so the server never writes into a closed pipe.
    stdout: BufReader<ChildStdout>,
    /// The address the server bound.
    pub addr: SocketAddr,
}

fn other(msg: String) -> io::Error {
    io::Error::other(msg)
}

impl Server {
    /// Spawns `mc3 serve` on an ephemeral port with production defaults
    /// (both caches on) and `solve_threads` executor workers, and reads
    /// the bound address from its first stdout line.
    pub fn spawn(mc3: &Path, solve_threads: usize) -> io::Result<Server> {
        let mut child = Command::new(mc3)
            .args(["serve", "--addr", "127.0.0.1:0", "--solve-threads"])
            .arg(solve_threads.to_string())
            .env_remove("MC3_LOG")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdout = child.stdout.take();
        let mut server = Server {
            stdout: BufReader::new(stdout.ok_or_else(|| other("no server stdout".into()))?),
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        server.stdout.read_line(&mut line)?;
        server.addr = line
            .trim()
            .rsplit("http://")
            .next()
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| other(format!("unexpected server banner {line:?}")))?;
        Ok(server)
    }

    /// Polls `GET /healthz` every 100 µs until it answers 200.
    pub fn wait_healthy(&self, timeout: Duration) -> io::Result<()> {
        let start = Instant::now();
        loop {
            if let Ok(mut conn) = Conn::connect(self.addr) {
                if conn
                    .request("GET", "/healthz", b"")
                    .is_ok_and(|r| r.status == 200)
                {
                    return Ok(());
                }
            }
            if start.elapsed() > timeout {
                return Err(other("server did not become healthy".into()));
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    /// Scrapes `/metrics`.
    pub fn scrape(&self) -> io::Result<Scrape> {
        let r = Conn::connect(self.addr)?.request("GET", "/metrics", b"")?;
        if r.status != 200 {
            return Err(other(format!("/metrics answered {}", r.status)));
        }
        Ok(Scrape::parse(&String::from_utf8_lossy(&r.body)))
    }

    /// The server's high-water RSS in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Errors here mean the process is already gone; nothing to undo.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file, in MiB.
pub fn peak_rss_mb(status_path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(status_path).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
