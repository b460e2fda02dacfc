//! Idle keep-alive connections do not starve the server: each holds only
//! its own thread, so with more of them open than a machine's cores (and
//! at least nine), one more client's `/healthz` is still answered at
//! once, and every held connection is still served afterwards.
//!
//! A test binary of its own: the server holds the process-exclusive
//! telemetry session, so a second server in `server_e2e` would wait for
//! it.

use mc3_server::{Server, ServerConfig};
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// `GET /healthz` on `stream`, failing if it is not answered within
/// `timeout`.
fn healthz(stream: &TcpStream, timeout: Duration) -> Result<Duration, String> {
    stream
        .set_read_timeout(Some(timeout))
        .expect("read timeout");
    let start = Instant::now();
    mc3_server::http::write_request(&mut &*stream, "GET", "/healthz", None)
        .map_err(|e| format!("write: {e}"))?;
    let (status, body) = mc3_server::http::read_response(&mut BufReader::new(stream))
        .map_err(|e| format!("no answer within {timeout:?}: {e}"))?;
    assert_eq!((status, body.as_slice()), (200, &b"ok\n"[..]));
    Ok(start.elapsed())
}

fn connect(addr: SocketAddr) -> TcpStream {
    TcpStream::connect(addr).expect("connect")
}

#[test]
fn a_client_past_the_held_keep_alive_connections_is_answered() {
    let server = Server::start(&ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        cache_mb: 0,
        solve_threads: 0,
    })
    .expect("server start");
    let addr = server.local_addr();

    // One more than a connection-per-core pool with a floor of 8 would
    // have, capped so the test never opens more than 20 sockets.
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let held: Vec<TcpStream> = (0..cores.clamp(8, 19) + 1).map(|_| connect(addr)).collect();

    let waited = healthz(&connect(addr), Duration::from_secs(1))
        .unwrap_or_else(|e| panic!("with {} idle connections held: {e}", held.len()));
    assert!(waited < Duration::from_secs(1), "{waited:?}");

    for (i, stream) in held.iter().enumerate() {
        healthz(stream, Duration::from_secs(10))
            .unwrap_or_else(|e| panic!("held connection {i}: {e}"));
    }
    drop(held);
    server.shutdown().expect("clean shutdown");
}
