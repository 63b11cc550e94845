//! The long-lived daemon: a listener (Unix socket, or TCP pinned to
//! localhost) accepting line-delimited JSON requests, a per-connection
//! handler thread, and a background scheduler thread driving
//! [`Service::run_round`] whenever work is runnable.
//!
//! Every request handler serializes through the one service mutex, so
//! the protocol semantics are exactly those of the [`Service`] methods;
//! the daemon adds only transport and liveness. `drain` finishes all
//! runnable work, answers with the merged report, and shuts the daemon
//! down.

use crate::protocol::{
    parse_request, render_drained, render_error, render_job, render_pong, render_status_header,
    render_submitted, Request,
};
use crate::service::{ServeError, Service};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The longest request line the daemon reads, newline excluded. A
/// `submit` line is a few hundred bytes; a client that sends more without
/// a newline gets an error reply and is disconnected, so no connection
/// can grow the daemon's memory without bound.
const MAX_REQUEST_BYTES: usize = 64 * 1024;

/// Where the daemon listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A Unix-domain socket at this path (created on bind, removed on
    /// clean shutdown).
    Unix(PathBuf),
    /// TCP on `127.0.0.1:port` — never a routable interface.
    Tcp(u16),
}

impl Endpoint {
    /// Parse a CLI endpoint: `tcp:PORT` for localhost TCP, anything else
    /// is a Unix socket path.
    pub fn parse(text: &str) -> Result<Endpoint, String> {
        if let Some(port) = text.strip_prefix("tcp:") {
            let port: u16 = port
                .parse()
                .map_err(|_| format!("unparseable TCP port '{port}'"))?;
            return Ok(Endpoint::Tcp(port));
        }
        if text.is_empty() {
            return Err("socket path must be non-empty".into());
        }
        Ok(Endpoint::Unix(PathBuf::from(text)))
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Unix(path) => write!(f, "{}", path.display()),
            Endpoint::Tcp(port) => write!(f, "tcp:{port}"),
        }
    }
}

/// A bidirectional client connection (Unix or TCP).
trait Conn: Read + Write + Send {}
impl Conn for UnixStream {}
impl Conn for TcpStream {}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn bind(endpoint: &Endpoint) -> std::io::Result<Listener> {
        match endpoint {
            Endpoint::Unix(path) => {
                // A stale socket file from a crashed daemon must not
                // block the restart; connections to it are long dead.
                if path.exists() {
                    std::fs::remove_file(path)?;
                }
                let listener = UnixListener::bind(path)?;
                listener.set_nonblocking(true)?;
                Ok(Listener::Unix(listener))
            }
            Endpoint::Tcp(port) => {
                let listener = TcpListener::bind(("127.0.0.1", *port))?;
                listener.set_nonblocking(true)?;
                Ok(Listener::Tcp(listener))
            }
        }
    }

    /// Accept one connection if ready (`None` on `WouldBlock`).
    fn accept(&self) -> std::io::Result<Option<Box<dyn Conn>>> {
        let result: std::io::Result<Box<dyn Conn>> = match self {
            Listener::Unix(l) => l.accept().map(|(s, _)| Box::new(s) as Box<dyn Conn>),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Box::new(s) as Box<dyn Conn>),
        };
        match result {
            Ok(conn) => Ok(Some(conn)),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }
}

/// Serve until a client sends `drain`: accept connections, answer
/// requests, and keep the scheduler running in the background. Returns
/// once all runnable work is finished and the listener is closed.
pub fn run_daemon(service: Service, endpoint: &Endpoint) -> Result<(), ServeError> {
    let listener = Listener::bind(endpoint)
        .map_err(|e| ServeError::Invalid(format!("cannot bind {endpoint}: {e}")))?;
    let service = Arc::new(Mutex::new(service));
    let shutdown = Arc::new(AtomicBool::new(false));

    // The scheduler: runs rounds whenever jobs are runnable, idles
    // politely otherwise. Connection handlers interleave between rounds
    // because both sides go through the service mutex.
    let scheduler = {
        let service = service.clone();
        let shutdown = shutdown.clone();
        // ds-lint: allow(raw-thread): control-plane scheduler loop; job execution inside run_round still goes through the sanctioned exec::Pool
        std::thread::spawn(move || {
            while !shutdown.load(Ordering::SeqCst) {
                let ran = {
                    let mut svc = lock_service(&service);
                    if svc.has_runnable() {
                        // A failed round is a durable-state write error;
                        // the daemon keeps serving status requests.
                        svc.run_round().is_ok()
                    } else {
                        false
                    }
                };
                if !ran {
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        })
    };

    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok(Some(conn)) => {
                let service = service.clone();
                let shutdown = shutdown.clone();
                // ds-lint: allow(raw-thread): one accept-loop handler per client connection; blocking socket reads would starve job execution on the exec::Pool
                std::thread::spawn(move || handle_connection(conn, &service, &shutdown));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(5)),
            Err(_) => break,
        }
    }

    scheduler.join().ok();
    if let Endpoint::Unix(path) = endpoint {
        std::fs::remove_file(path).ok();
    }
    Ok(())
}

fn lock_service<'a>(service: &'a Arc<Mutex<Service>>) -> std::sync::MutexGuard<'a, Service> {
    match service.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Serve one client: a loop of request lines, each answered per the
/// protocol. A `drain` request finishes the work, answers, and trips the
/// daemon-wide shutdown flag. A line longer than [`MAX_REQUEST_BYTES`]
/// is answered with an error and ends the connection.
fn handle_connection(
    mut conn: Box<dyn Conn>,
    service: &Arc<Mutex<Service>>,
    shutdown: &Arc<AtomicBool>,
) {
    let mut reader = BufReader::new(ConnReader(&mut conn));
    let mut bytes = Vec::new();
    loop {
        bytes.clear();
        let mut line_reader = (&mut reader).take(MAX_REQUEST_BYTES as u64 + 1);
        match line_reader.read_until(b'\n', &mut bytes) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        if bytes.len() > MAX_REQUEST_BYTES && !bytes.ends_with(b"\n") {
            let error = render_error(&format!("request line exceeds {MAX_REQUEST_BYTES} bytes"));
            let conn = &mut reader.get_mut().0;
            conn.write_all(format!("{error}\n").as_bytes())
                .and_then(|()| conn.flush())
                .ok();
            return;
        }
        let Ok(line) = std::str::from_utf8(&bytes) else {
            return;
        };
        if line.trim().is_empty() {
            continue;
        }
        let mut reply: Vec<String> = Vec::new();
        let mut drained = false;
        match parse_request(line.trim_end()) {
            Err(message) => reply.push(render_error(&message)),
            Ok(Request::Ping) => reply.push(render_pong()),
            Ok(Request::Submit(request)) => {
                let mut svc = lock_service(service);
                match svc.submit(request) {
                    Ok(status) => reply.push(render_submitted(&status)),
                    Err(e) => reply.push(render_error(&e.to_string())),
                }
            }
            Ok(Request::Status { job: Some(id) }) => {
                let svc = lock_service(service);
                match svc.status(id) {
                    Some(status) => reply.push(render_job(status)),
                    None => reply.push(render_error(&format!("no such job {id}"))),
                }
            }
            Ok(Request::Status { job: None }) => {
                let svc = lock_service(service);
                let all: Vec<String> = svc.jobs().map(render_job).collect();
                reply.push(render_status_header(all.len()));
                reply.extend(all);
            }
            Ok(Request::Cancel { job }) => {
                let mut svc = lock_service(service);
                match svc.cancel(job) {
                    Ok(status) => reply.push(render_job(&status)),
                    Err(e) => reply.push(render_error(&e.to_string())),
                }
            }
            Ok(Request::Drain) => {
                let mut svc = lock_service(service);
                match svc.drain() {
                    Ok(report) => reply.push(render_drained(&report)),
                    Err(e) => reply.push(render_error(&e.to_string())),
                }
                drained = true;
            }
        }
        let mut out = String::new();
        for line in reply {
            out.push_str(&line);
            out.push('\n');
        }
        if reader.get_mut().0.write_all(out.as_bytes()).is_err() {
            return;
        }
        reader.get_mut().0.flush().ok();
        if drained {
            shutdown.store(true, Ordering::SeqCst);
            return;
        }
    }
}

/// Lets the handler keep one `BufReader` over the connection while still
/// writing replies to the same stream.
struct ConnReader<'a>(&'a mut Box<dyn Conn>);

impl Read for ConnReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.0.read(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServeConfig;
    use std::sync::atomic::AtomicU64;

    static NEXT: AtomicU64 = AtomicU64::new(0);

    fn tempdir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ds_serve_daemon_{}_{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("tempdir");
        dir
    }

    fn request(stream: &mut UnixStream, line: &str, lines: usize) -> Vec<String> {
        stream.write_all(line.as_bytes()).expect("write");
        stream.write_all(b"\n").expect("write");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut out = Vec::new();
        for _ in 0..lines {
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("read");
            out.push(reply.trim_end().to_string());
        }
        out
    }

    /// Start a daemon on a Unix socket in `dir` and wait for the socket.
    fn start(dir: &std::path::Path) -> (std::thread::JoinHandle<Result<(), ServeError>>, PathBuf) {
        let path = dir.join("serve.sock");
        let endpoint = Endpoint::Unix(path.clone());
        let service = Service::open(&dir.join("state"), ServeConfig::default()).expect("open");
        // ds-lint: allow(raw-thread): test drives the daemon from a
        // client thread; the daemon itself must block in its accept loop.
        let daemon = std::thread::spawn(move || run_daemon(service, &endpoint));
        for _ in 0..500 {
            if path.exists() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        (daemon, path)
    }

    #[test]
    fn daemon_serves_submit_status_drain_over_a_unix_socket() {
        let dir = tempdir();
        let (daemon, path) = start(&dir);
        let mut stream = UnixStream::connect(&path).expect("connect");

        let pong = request(&mut stream, "{\"op\":\"ping\"}", 1);
        assert!(pong[0].contains("\"pong\":true"), "{pong:?}");

        let submitted = request(
            &mut stream,
            "{\"op\":\"submit\",\"tenant\":\"acme\",\"dataset\":\"youtube\",\
             \"scale\":\"0.05\",\"queries\":2,\"seed\":13,\
             \"budget_nanousd\":100000000000}",
            1,
        );
        assert!(submitted[0].contains("\"ok\":true"), "{submitted:?}");
        assert!(submitted[0].contains("\"job\":1"), "{submitted:?}");

        let bad = request(&mut stream, "{\"op\":\"warp\"}", 1);
        assert!(bad[0].contains("\"ok\":false"), "{bad:?}");

        let drained = request(&mut stream, "{\"op\":\"drain\"}", 1);
        assert!(drained[0].contains("\"drained\":true"), "{drained:?}");
        assert!(drained[0].contains("\"completed\":1"), "{drained:?}");

        daemon.join().expect("join").expect("daemon exit");
        assert!(!path.exists(), "socket removed on clean shutdown");

        // Status survives in durable state: reopen and check.
        let reopened = Service::open(&dir.join("state"), ServeConfig::default()).expect("reopen");
        let status = reopened.status(1).expect("job 1");
        assert_eq!(status.state, crate::job::JobState::Completed);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn over_long_request_line_is_refused_and_disconnected() {
        let dir = tempdir();
        let (daemon, path) = start(&dir);
        let mut stream = UnixStream::connect(&path).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        // One byte past the cap and no newline, with the socket held open:
        // the daemon must answer rather than keep buffering.
        stream
            .write_all(&vec![b'x'; MAX_REQUEST_BYTES + 1])
            .expect("write");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut reply = String::new();
        reader
            .read_line(&mut reply)
            .expect("error reply before timeout");
        assert!(reply.contains("\"ok\":false"), "{reply}");
        assert!(reply.contains("exceeds"), "{reply}");
        reply.clear();
        assert_eq!(reader.read_line(&mut reply).expect("eof"), 0, "closed");

        // The daemon itself is unharmed.
        let mut fresh = UnixStream::connect(&path).expect("reconnect");
        let pong = request(&mut fresh, "{\"op\":\"ping\"}", 1);
        assert!(pong[0].contains("\"pong\":true"), "{pong:?}");
        let drained = request(&mut fresh, "{\"op\":\"drain\"}", 1);
        assert!(drained[0].contains("\"drained\":true"), "{drained:?}");
        daemon.join().expect("join").expect("daemon exit");
        std::fs::remove_dir_all(&dir).ok();
    }
}
