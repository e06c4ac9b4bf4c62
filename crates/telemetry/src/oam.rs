//! Dependency-free OAM scrape endpoint.
//!
//! A [`OamServer`] binds a std [`TcpListener`] and serves two routes over
//! minimal HTTP/1.0:
//!
//! * `GET /metrics` — the Prometheus-style text exposition (v0.0.4),
//!   rendered on demand by the mounted provider closure;
//! * `GET /trace` — the job tracer's JSON-lines dump.
//!
//! Requests are handled serially on one background thread (OAM traffic is
//! a scraper every few seconds, not user traffic), and the thread blocks
//! in `accept` — zero wakeups while nobody scrapes, in keeping with the
//! reactor's no-idle-polling discipline. Shutdown wakes the acceptor
//! with a loopback connection, so no poll loop is needed for that either.
//!
//! Because requests are serial, one scraper must not be able to hold the
//! thread: the whole request head has one 2 s deadline, however slowly
//! its bytes trickle in, and each write of the response times out after
//! the same span, so a client that stops reading is dropped too — and
//! shutdown, which joins the thread, returns.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a client has to send its whole request head, and how long
/// one write of the response may block on a client that does not read.
const CLIENT_DEADLINE: Duration = Duration::from_secs(2);

/// Renders a route body on demand.
pub type RouteFn = Arc<dyn Fn() -> String + Send + Sync>;

/// The two OAM routes.
#[derive(Clone)]
pub struct OamRoutes {
    /// `GET /metrics` body (text exposition).
    pub metrics: RouteFn,
    /// `GET /trace` body (JSON lines).
    pub trace: RouteFn,
}

impl std::fmt::Debug for OamRoutes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OamRoutes").finish_non_exhaustive()
    }
}

/// A running OAM endpoint; dropping it (or calling
/// [`OamServer::shutdown`]) stops the acceptor thread.
#[derive(Debug)]
pub struct OamServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl OamServer {
    /// Binds `addr` (use port 0 for an OS-assigned port) and starts
    /// serving `routes`. The endpoint is loopback-only: non-local bind
    /// addresses are refused — use [`OamServer::start_with`] with an
    /// explicit opt-in to expose the endpoint beyond the host.
    ///
    /// # Errors
    ///
    /// I/O errors from binding, or a non-loopback `addr`.
    pub fn start(addr: impl ToSocketAddrs, routes: OamRoutes) -> std::io::Result<OamServer> {
        Self::start_with(addr, routes, false)
    }

    /// Like [`OamServer::start`], but with the loopback gate explicit:
    /// `allow_non_local = true` permits binding a non-loopback address
    /// (e.g. `0.0.0.0`), exposing unauthenticated metrics and traces to
    /// the network. Keep it `false` unless the deployment really scrapes
    /// from another host.
    ///
    /// Every resolved candidate address is tried in turn (matching
    /// [`TcpListener::bind`]'s each-in-turn semantics, with the loopback
    /// gate applied per candidate), so a hostname like `localhost` that
    /// resolves to `::1` first still falls back to `127.0.0.1` on an
    /// IPv6-less host.
    ///
    /// # Errors
    ///
    /// The last bind error if no candidate could be bound, or
    /// [`PermissionDenied`](std::io::ErrorKind::PermissionDenied) if the
    /// remaining candidates were all non-loopback without the opt-in.
    pub fn start_with(
        addr: impl ToSocketAddrs,
        routes: OamRoutes,
        allow_non_local: bool,
    ) -> std::io::Result<OamServer> {
        let mut listener = None;
        let mut last_err = None;
        for candidate in addr.to_socket_addrs()? {
            if !allow_non_local && !candidate.ip().is_loopback() {
                last_err = Some(std::io::Error::new(
                    std::io::ErrorKind::PermissionDenied,
                    format!(
                        "refusing non-local OAM bind {candidate}: the endpoint is \
                         unauthenticated; pass allow_non_local = true to expose it \
                         beyond loopback"
                    ),
                ));
                continue;
            }
            match TcpListener::bind(candidate) {
                Ok(bound) => {
                    listener = Some(bound);
                    break;
                }
                Err(err) => last_err = Some(err),
            }
        }
        let Some(listener) = listener else {
            return Err(last_err.unwrap_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidInput, "no address")
            }));
        };
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("rtcm-oam".into())
            .spawn(move || {
                while !accept_stop.load(Ordering::SeqCst) {
                    let Ok((stream, _)) = listener.accept() else { break };
                    if accept_stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let _ = serve_one(stream, &routes);
                }
            })
            .expect("spawn oam");
        Ok(OamServer { addr: local, stop, thread: Some(thread) })
    }

    /// The bound address (real port even when started on port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the acceptor and joins its thread.
    pub fn shutdown(mut self) {
        self.close();
    }

    fn close(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the blocking accept with a throwaway loopback connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for OamServer {
    fn drop(&mut self) {
        self.close();
    }
}

/// Reads one request head, dispatches on the path, writes one response,
/// within the `CLIENT_DEADLINE` bounds.
fn serve_one(mut stream: TcpStream, routes: &OamRoutes) -> std::io::Result<()> {
    stream.set_write_timeout(Some(CLIENT_DEADLINE))?;
    let deadline = Instant::now() + CLIENT_DEADLINE;
    let mut head = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    // Read until the end of the request head; bodies are ignored (GET).
    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
        if head.len() > 8192 {
            return respond(&mut stream, "400 Bad Request", "text/plain", "oversized request\n");
        }
        // Each read may wait only for what is left of the head's deadline.
        let left = deadline
            .checked_duration_since(Instant::now())
            .filter(|left| !left.is_zero())
            .ok_or_else(|| std::io::Error::from(std::io::ErrorKind::TimedOut))?;
        stream.set_read_timeout(Some(left))?;
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&chunk[..n]);
    }
    let request = String::from_utf8_lossy(&head);
    let mut parts = request.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    if method != "GET" {
        return respond(&mut stream, "405 Method Not Allowed", "text/plain", "GET only\n");
    }
    match path.split('?').next().unwrap_or("") {
        "/metrics" => {
            let body = (routes.metrics)();
            respond(&mut stream, "200 OK", "text/plain; version=0.0.4; charset=utf-8", &body)
        }
        "/trace" => {
            let body = (routes.trace)();
            respond(&mut stream, "200 OK", "application/x-ndjson; charset=utf-8", &body)
        }
        "/" => respond(&mut stream, "200 OK", "text/plain", "rtcm OAM: /metrics /trace\n"),
        _ => respond(&mut stream, "404 Not Found", "text/plain", "unknown route\n"),
    }
}

fn respond(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Minimal scrape client for tests and the harness: fetches `path` from
/// an OAM endpoint and returns the response body.
///
/// # Errors
///
/// I/O errors, or a non-200 status.
pub fn scrape(addr: impl ToSocketAddrs, path: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let req = format!("GET {path} HTTP/1.0\r\nHost: oam\r\nConnection: close\r\n\r\n");
    stream.write_all(req.as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let Some((head, body)) = response.split_once("\r\n\r\n") else {
        return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, "no response head"));
    };
    let status = head.lines().next().unwrap_or("");
    if !status.contains("200") {
        return Err(std::io::Error::other(format!("scrape {path}: {status}")));
    }
    Ok(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn routes(metrics: &'static str, trace: &'static str) -> OamRoutes {
        OamRoutes {
            metrics: Arc::new(move || metrics.to_string()),
            trace: Arc::new(move || trace.to_string()),
        }
    }

    #[test]
    fn serves_metrics_and_trace() {
        let server = OamServer::start("127.0.0.1:0", routes("m 1\n", "{\"t\":1}\n")).unwrap();
        let addr = server.addr();
        assert_eq!(scrape(addr, "/metrics").unwrap(), "m 1\n");
        assert_eq!(scrape(addr, "/trace").unwrap(), "{\"t\":1}\n");
        assert!(scrape(addr, "/nope").is_err(), "404 is an error");
        server.shutdown();
    }

    #[test]
    fn shutdown_is_prompt_and_port_is_released() {
        let server = OamServer::start("127.0.0.1:0", routes("", "")).unwrap();
        let addr = server.addr();
        let start = std::time::Instant::now();
        server.shutdown();
        assert!(start.elapsed() < Duration::from_secs(2), "no blocked acceptor");
        // The port can be rebound after shutdown.
        let again = OamServer::start(addr, routes("", "")).unwrap();
        again.shutdown();
    }

    #[test]
    fn non_local_bind_is_refused_by_default() {
        let err = OamServer::start("0.0.0.0:0", routes("", "")).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::PermissionDenied);

        // Loopback is unaffected.
        let server = OamServer::start("127.0.0.1:0", routes("ok\n", "")).unwrap();
        assert_eq!(scrape(server.addr(), "/metrics").unwrap(), "ok\n");
        server.shutdown();

        // The explicit opt-in permits a wildcard bind.
        let server = OamServer::start_with("0.0.0.0:0", routes("wide\n", ""), true).unwrap();
        let port = server.addr().port();
        assert_eq!(scrape(("127.0.0.1", port), "/metrics").unwrap(), "wide\n");
        server.shutdown();
    }

    #[test]
    fn hostname_binds_across_all_resolved_candidates() {
        // `localhost` may resolve to `::1` first; the bind must fall
        // back across candidates instead of failing on the first one
        // (e.g. on an IPv6-less host).
        let server = OamServer::start("localhost:0", routes("lo\n", "")).unwrap();
        assert!(server.addr().ip().is_loopback());
        assert_eq!(scrape(server.addr(), "/metrics").unwrap(), "lo\n");
        server.shutdown();
    }

    #[test]
    fn consecutive_scrapes_reflect_live_values() {
        let n = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let n2 = Arc::clone(&n);
        let routes = OamRoutes {
            metrics: Arc::new(move || format!("n {}\n", n2.fetch_add(1, Ordering::SeqCst))),
            trace: Arc::new(String::new),
        };
        let server = OamServer::start("127.0.0.1:0", routes).unwrap();
        assert_eq!(scrape(server.addr(), "/metrics").unwrap(), "n 0\n");
        assert_eq!(scrape(server.addr(), "/metrics").unwrap(), "n 1\n");
        server.shutdown();
    }

    #[test]
    fn a_scraper_that_stops_reading_cannot_hang_shutdown() {
        // A page far larger than the loopback socket buffers.
        let routes =
            OamRoutes { metrics: Arc::new(|| "x".repeat(64 << 20)), trace: Arc::new(String::new) };
        let server = OamServer::start("127.0.0.1:0", routes).unwrap();
        let mut client = TcpStream::connect(server.addr()).unwrap();
        client.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
        // Let the server start writing the page the client never reads.
        std::thread::sleep(Duration::from_millis(200));
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            server.shutdown();
            let _ = done.send(());
        });
        assert!(
            finished.recv_timeout(Duration::from_secs(15)).is_ok(),
            "shutdown is stuck behind a client that does not read"
        );
        drop(client);
    }

    #[test]
    fn a_trickling_scraper_cannot_hold_the_endpoint() {
        let server = OamServer::start("127.0.0.1:0", routes("m 1\n", "")).unwrap();
        let addr = server.addr();
        // One byte of a request head every 300 ms, for at most 6 s: each
        // read is quick, the head never ends.
        let trickler = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            for byte in b"GET /metrics HTTP/1.0".iter().cycle().take(20) {
                if stream.write_all(&[*byte]).is_err() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(300));
            }
        });
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(scrape(addr, "/metrics").unwrap(), "m 1\n", "the endpoint is still served");
        trickler.join().unwrap();
        server.shutdown();
    }
}
