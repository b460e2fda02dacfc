//! `mc3 serve` outlives a failed `accept()`. Started under a low
//! open-file limit, the server runs out of descriptors once enough
//! clients connect, so `accept()` fails with `EMFILE`; the server logs a
//! `warn` event, keeps accepting, and answers again once the clients
//! close.

#![cfg(unix)]

use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Open-file limit for the server: a few descriptors for stdio and the
/// listener, the rest for about twenty connections.
const FD_LIMIT: usize = 24;

/// `GET /healthz` on a fresh connection; the status, if answered within
/// two seconds.
fn healthz(addr: SocketAddr) -> Option<u16> {
    let stream = TcpStream::connect(addr).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(2))).ok()?;
    mc3_server::http::write_request(&mut &stream, "GET", "/healthz", None).ok()?;
    let (status, _) = mc3_server::http::read_response(&mut BufReader::new(&stream)).ok()?;
    Some(status)
}

#[test]
fn serve_keeps_accepting_after_running_out_of_file_descriptors() {
    let mut child = Command::new("sh")
        .arg("-c")
        .arg(format!(
            "ulimit -n {FD_LIMIT} && exec \"$0\" serve --addr 127.0.0.1:0 --cache-mb 0"
        ))
        .arg(env!("CARGO_BIN_EXE_mc3"))
        .env("MC3_LOG", "warn")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn mc3 serve");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("read banner");
    let addr: SocketAddr = banner
        .trim()
        .rsplit("http://")
        .next()
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"));

    // Drain stderr for the whole run (a full pipe would block the
    // server's event log) and report the first failed accept.
    let stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
    let (failed_tx, failed_rx) = mpsc::channel();
    let drain = std::thread::spawn(move || {
        let mut lines = Vec::new();
        for line in stderr.lines().map_while(Result::ok) {
            if line.contains("accept failed") {
                // audit:allow(no-swallowed-result) reviewed: only the first failure is waited for; later sends find the receiver gone
                let _ = failed_tx.send(());
            }
            lines.push(line);
        }
        lines
    });

    let clients: Vec<TcpStream> = (0..2 * FD_LIMIT)
        .map(|_| TcpStream::connect(addr).expect("connect into the backlog"))
        .collect();
    let ran_out = failed_rx.recv_timeout(Duration::from_secs(10));
    drop(clients);

    let deadline = Instant::now() + Duration::from_secs(10);
    let mut status = None;
    while status.is_none() && Instant::now() < deadline {
        status = healthz(addr);
        if status.is_none() {
            std::thread::sleep(Duration::from_millis(50));
        }
    }
    let exited = child.try_wait().expect("poll child");
    // audit:allow(no-swallowed-result) reviewed: the child may already have exited, which the assertions below report
    let _ = child.kill();
    child.wait().expect("reap child");
    let log = drain.join().expect("stderr drain").join("\n");

    assert_eq!(exited, None, "mc3 serve exited:\n{log}");
    assert!(ran_out.is_ok(), "accept never failed:\n{log}");
    assert_eq!(
        status,
        Some(200),
        "no /healthz answer after the clients closed:\n{log}"
    );
    assert!(
        log.lines()
            .any(|l| l.contains("\"level\":\"warn\"") && l.contains("accept failed")),
        "no warn event for the failed accept:\n{log}"
    );
}
