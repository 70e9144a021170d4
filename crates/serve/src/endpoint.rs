//! One framed request/response endpoint over TCP: the connection surface
//! the shard server and the router share.
//!
//! [`serve`] owns everything between the listener and a server's request
//! handler. It runs a thread per connection up to a cap; the connection
//! past the cap gets the protocol's error frame and a closed socket. An
//! idle connection is reaped, a peer that stalls mid-frame is cut off
//! ([`read_message_bounded`]), and every write is bounded, so a peer that
//! stops reading cannot pin a thread either. A frame that fails to decode
//! may have desynchronized the stream, so it is answered with an error
//! frame and the connection is closed: never a panic, never a guess at
//! where the next frame starts.
//!
//! A handler that answers [`Reply::Stop`] stops the endpoint: the reply is
//! written, the stop flag set, and the accept loop woken so that it exits.
//! A stopped endpoint answers nothing, not even on connections already
//! open. In process, a stopped server must behave like a dead process, not
//! like a half-alive one.

use flexer_store::{read_message_bounded, write_message, Codec, WireError};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Connection-surface limits of one endpoint.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Limits {
    /// Concurrent connections served; the next one is refused.
    pub(crate) max_conns: usize,
    /// A connection that sends no request for this long is reaped.
    pub(crate) idle: Duration,
    /// Once a frame's first byte arrives, the rest must follow within
    /// this budget; every reply write is bounded by it too.
    pub(crate) io: Duration,
}

/// What a handler makes of one request.
pub(crate) enum Reply<R> {
    /// Write the response and keep serving the connection.
    Answer(R),
    /// Write the response, then stop the endpoint.
    Stop(R),
}

/// What every connection thread shares.
struct Shared<H, Resp> {
    handler: H,
    error: fn(String) -> Resp,
    stop: AtomicBool,
}

/// Serves `listener` until a handler answers [`Reply::Stop`] (thread per
/// connection; blocks the calling thread). `error` makes the protocol's
/// error frame.
pub(crate) fn serve<Req, Resp, H>(
    listener: TcpListener,
    limits: Limits,
    error: fn(String) -> Resp,
    handler: H,
) where
    Req: Codec,
    Resp: Codec + 'static,
    H: Fn(Req) -> Reply<Resp> + Send + Sync + 'static,
{
    let Ok(addr) = listener.local_addr() else { return };
    let shared = Arc::new(Shared { handler, error, stop: AtomicBool::new(false) });
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = stream else { continue };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_write_timeout(Some(limits.io));
        // Each live connection thread holds one clone of `shared`, and only
        // this loop makes clones, so the count can fall behind our back but
        // never rise past the cap.
        if Arc::strong_count(&shared) > limits.max_conns {
            let _ = write_message(&mut stream, &error("at connection capacity".into()));
            continue;
        }
        let shared = Arc::clone(&shared);
        thread::spawn(move || serve_connection(stream, limits, &shared, addr));
    }
}

fn serve_connection<Req, Resp, H>(
    mut stream: TcpStream,
    limits: Limits,
    shared: &Shared<H, Resp>,
    addr: SocketAddr,
) where
    Req: Codec,
    Resp: Codec,
    H: Fn(Req) -> Reply<Resp>,
{
    loop {
        let request = match read_message_bounded::<Req>(&mut stream, limits.idle, limits.io) {
            Ok(Some(request)) => request,
            // Idle past the reap window, or the peer hung up, died or
            // stalled mid-frame.
            Ok(None) | Err(WireError::Io(_)) => return,
            Err(e) => {
                let _ = write_message(&mut stream, &(shared.error)(e.to_string()));
                return;
            }
        };
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        match (shared.handler)(request) {
            Reply::Answer(response) => {
                if write_message(&mut stream, &response).is_err() {
                    return;
                }
            }
            Reply::Stop(response) => {
                let _ = write_message(&mut stream, &response);
                shared.stop.store(true, Ordering::SeqCst);
                // The accept loop is parked in `accept`; poke it awake so
                // it observes the stop flag and exits.
                let _ = TcpStream::connect(addr);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexer_store::read_message;
    use std::io::{Read, Write};
    use std::time::Instant;

    /// Limits long enough that no test trips the ones it does not test.
    const RELAXED: Limits =
        Limits { max_conns: 64, idle: Duration::from_secs(10), io: Duration::from_secs(10) };

    /// An echo endpoint over strings: every request comes back as it went
    /// in, and `"stop"` stops the endpoint.
    fn echo(limits: Limits) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let error = |message| format!("error: {message}");
        let handler = |s: String| if s == "stop" { Reply::Stop(s) } else { Reply::Answer(s) };
        thread::spawn(move || serve(listener, limits, error, handler));
        addr
    }

    fn call(stream: &mut TcpStream, request: &str) -> Result<String, WireError> {
        write_message(stream, &request.to_string())?;
        read_message(stream)
    }

    /// Asserts that the endpoint closes `stream` within a second without
    /// sending another byte.
    fn assert_closed(stream: &mut TcpStream) {
        stream.set_read_timeout(Some(Duration::from_secs(1))).unwrap();
        match stream.read_to_end(&mut Vec::new()) {
            Ok(n) => assert_eq!(n, 0, "bytes after the last reply"),
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "still open"),
        }
    }

    #[test]
    fn connection_past_the_cap_is_refused_until_a_slot_frees() {
        let addr = echo(Limits { max_conns: 2, ..RELAXED });
        let mut held: Vec<TcpStream> = (0..2).map(|_| TcpStream::connect(addr).unwrap()).collect();
        for stream in &mut held {
            assert_eq!(call(stream, "hi").unwrap(), "hi");
        }
        let mut refused = TcpStream::connect(addr).unwrap();
        refused.set_read_timeout(Some(Duration::from_secs(1))).unwrap();
        assert_eq!(read_message::<String>(&mut refused).unwrap(), "error: at connection capacity");
        assert_closed(&mut refused);
        assert_eq!(call(&mut held[0], "still served").unwrap(), "still served");
        // A dropped connection frees its slot once its thread sees the hang-up.
        held.pop();
        let deadline = Instant::now() + Duration::from_secs(2);
        while call(&mut TcpStream::connect(addr).unwrap(), "again").ok().as_deref() != Some("again")
        {
            assert!(Instant::now() < deadline, "the freed slot was never reused");
            thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn idle_connection_is_reaped() {
        let idle = Duration::from_millis(150);
        let mut stream = TcpStream::connect(echo(Limits { idle, ..RELAXED })).unwrap();
        assert_eq!(call(&mut stream, "hi").unwrap(), "hi");
        let t0 = Instant::now();
        assert_closed(&mut stream);
        let waited = t0.elapsed();
        assert!(waited + Duration::from_millis(20) >= idle, "reaped early: {waited:?}");
        assert!(waited < idle + Duration::from_secs(1), "reaped late: {waited:?}");
    }

    #[test]
    fn peer_dribbling_a_frame_is_cut_within_one_io_quantum() {
        let io = Duration::from_millis(150);
        let mut stream = TcpStream::connect(echo(Limits { io, ..RELAXED })).unwrap();
        let mut frame = Vec::new();
        write_message(&mut frame, &"a frame sent one byte at a time ".repeat(4)).unwrap();
        // A byte every 40 ms: the whole frame would take six seconds.
        let mut writer = stream.try_clone().unwrap();
        let t0 = Instant::now();
        thread::spawn(move || {
            for byte in frame {
                if writer.write_all(&[byte]).is_err() {
                    return;
                }
                thread::sleep(Duration::from_millis(40));
            }
        });
        assert_closed(&mut stream);
        assert!(t0.elapsed() < io + Duration::from_secs(1), "cut after {:?}", t0.elapsed());
    }

    #[test]
    fn corrupt_frame_gets_an_error_and_a_closed_socket() {
        let addr = echo(RELAXED);
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"NOT A FRAME AT ALL, JUST NOISE ------------------").unwrap();
        let reply: String = read_message(&mut stream).unwrap();
        assert!(reply.starts_with("error: "), "{reply}");
        assert_closed(&mut stream);
        assert_eq!(call(&mut TcpStream::connect(addr).unwrap(), "ok").unwrap(), "ok");
    }

    #[test]
    fn stopped_endpoint_answers_nothing() {
        let addr = echo(RELAXED);
        let mut open = TcpStream::connect(addr).unwrap();
        assert_eq!(call(&mut open, "hi").unwrap(), "hi");
        let mut stopper = TcpStream::connect(addr).unwrap();
        assert_eq!(call(&mut stopper, "stop").unwrap(), "stop");
        assert_closed(&mut stopper);
        // A connection opened before the stop gets no answer, only a close.
        write_message(&mut open, &"anyone there?".to_string()).unwrap();
        assert_closed(&mut open);
        let deadline = Instant::now() + Duration::from_secs(2);
        while TcpStream::connect(addr).is_ok() {
            assert!(Instant::now() < deadline, "the listener outlived the stop");
            thread::sleep(Duration::from_millis(10));
        }
    }
}
