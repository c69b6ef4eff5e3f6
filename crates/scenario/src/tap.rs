//! The adversary's vantage point: a recording TCP proxy on one layer
//! boundary.
//!
//! A [`RecordingTap`] sits between a UA instance and one IA backend
//! (the harness interposes one tap per UA×IA link via
//! [`LoopbackCluster::reroute_ua_uplink`]). It speaks the frame codec
//! just well enough to *delimit* frames — header parse, body skip — and
//! records what a §2.3 network observer actually gets from a PProx
//! deployment: per-frame **timing**, **direction**, **size class** and
//! **length**, and **per-hop correlation id**. Payloads are ciphertext and every frame
//! of a class has one length, so the recorded trace is exactly the §6.2
//! adversary's input, produced by real sockets rather than a simulator.
//!
//! The tap can also delay each forwarded frame by a fixed amount —
//! injected WAN latency between the layers, used by the `wan` scenario.
//!
//! [`LoopbackCluster::reroute_ua_uplink`]: pprox_wire::LoopbackCluster::reroute_ua_uplink

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;
use pprox_wire::frame::parse_header;
use pprox_wire::{PadClass, HEADER_LEN};

/// Which way a recorded frame was travelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TapDirection {
    /// Client side → upstream server (UA egress toward the IA).
    ClientToServer,
    /// Upstream server → client side (IA responses).
    ServerToClient,
}

/// One frame observation: everything the codec leaks to an on-path
/// observer, and nothing more.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TapFrame {
    /// Observation instant on the shared scenario clock, µs.
    pub at_us: u64,
    /// Travel direction.
    pub dir: TapDirection,
    /// Padding class (one of three fixed on-wire sizes).
    pub class: PadClass,
    /// On-wire bytes: the header plus the body the header declared.
    pub len: usize,
    /// Per-hop correlation id from the header.
    pub corr: u64,
    /// Which tap connection carried the frame.
    pub conn: usize,
}

/// The clock observations are stamped with. The harness passes a closure
/// over the cluster's [`pprox_core::telemetry::Telemetry`] hub so tap
/// frames and ground-truth audit events share one time base.
pub type TapClock = Arc<dyn Fn() -> u64 + Send + Sync>;

/// A live recording proxy for one UA→IA link.
pub struct RecordingTap {
    addr: SocketAddr,
    upstream: SocketAddr,
    frames: Arc<Mutex<Vec<TapFrame>>>,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for RecordingTap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecordingTap")
            .field("addr", &self.addr)
            .field("upstream", &self.upstream)
            .field("frames", &self.frames.lock().len())
            .finish()
    }
}

impl RecordingTap {
    /// Spawns a tap listening on an ephemeral loopback port, forwarding
    /// to `upstream`, delaying each forwarded frame by `delay`, and
    /// stamping observations with `clock`.
    ///
    /// # Errors
    ///
    /// Socket bind failures.
    pub fn spawn(upstream: SocketAddr, delay: Duration, clock: TapClock) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let frames: Arc<Mutex<Vec<TapFrame>>> = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let conn_ids = Arc::new(AtomicUsize::new(0));

        let acceptor = {
            let frames = frames.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    match listener.accept() {
                        Ok((client, _)) => {
                            let conn = conn_ids.fetch_add(1, Ordering::Relaxed);
                            spawn_pumps(
                                client,
                                upstream,
                                delay,
                                conn,
                                frames.clone(),
                                stop.clone(),
                                clock.clone(),
                            );
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(_) => break,
                    }
                }
            })
        };

        Ok(RecordingTap {
            addr,
            upstream,
            frames,
            stop,
            acceptor: Some(acceptor),
        })
    }

    /// The tap's listening address (what the UA's uplink ring is
    /// rerouted to).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The real backend behind this tap.
    pub fn upstream(&self) -> SocketAddr {
        self.upstream
    }

    /// Snapshot of every observation so far, in time order.
    pub fn frames(&self) -> Vec<TapFrame> {
        let mut out = self.frames.lock().clone();
        out.sort_by_key(|f| f.at_us);
        out
    }

    /// Stops accepting and recording; pump threads notice within their
    /// read timeout and exit.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }
}

impl Drop for RecordingTap {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One accepted connection: dial the upstream and pump both directions,
/// recording each frame before forwarding it.
#[allow(clippy::too_many_arguments)]
fn spawn_pumps(
    client: TcpStream,
    upstream: SocketAddr,
    delay: Duration,
    conn: usize,
    frames: Arc<Mutex<Vec<TapFrame>>>,
    stop: Arc<AtomicBool>,
    clock: TapClock,
) {
    let Ok(server) = TcpStream::connect_timeout(&upstream, Duration::from_secs(2)) else {
        return; // client will see the closed socket and retry elsewhere
    };
    server.set_nodelay(true).ok();
    client.set_nodelay(true).ok();
    let (Ok(client_rd), Ok(server_rd)) = (client.try_clone(), server.try_clone()) else {
        return;
    };
    for (rd, wr, dir) in [
        (client_rd, server, TapDirection::ClientToServer),
        (server_rd, client, TapDirection::ServerToClient),
    ] {
        let frames = frames.clone();
        let stop = stop.clone();
        let clock = clock.clone();
        std::thread::spawn(move || {
            pump(rd, wr, dir, delay, conn, &frames, &stop, &clock);
        });
    }
}

/// Reads whole frames from `rd`, records them, applies the WAN delay,
/// and forwards them to `wr` until EOF, a codec error, or shutdown.
#[allow(clippy::too_many_arguments)]
fn pump(
    mut rd: TcpStream,
    mut wr: TcpStream,
    dir: TapDirection,
    delay: Duration,
    conn: usize,
    frames: &Mutex<Vec<TapFrame>>,
    stop: &AtomicBool,
    clock: &TapClock,
) {
    rd.set_read_timeout(Some(Duration::from_millis(50))).ok();
    let mut header = [0u8; HEADER_LEN];
    let mut body = vec![0u8; PadClass::Response.capacity()];
    loop {
        if !read_full(&mut rd, &mut header, stop) {
            return;
        }
        let Ok((class, body_len, corr)) = parse_header(&header) else {
            return; // not our protocol: drop the connection
        };
        if !read_full(&mut rd, &mut body[..body_len], stop) {
            return;
        }
        frames.lock().push(TapFrame {
            at_us: clock(),
            dir,
            class,
            len: HEADER_LEN + body_len,
            corr,
            conn,
        });
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
        if wr.write_all(&header).is_err() || wr.write_all(&body[..body_len]).is_err() {
            return;
        }
    }
}

/// Fills `buf` from `rd`, riding out read timeouts until shutdown.
/// Returns `false` on EOF, hard error, or shutdown.
fn read_full(rd: &mut TcpStream, buf: &mut [u8], stop: &AtomicBool) -> bool {
    let mut off = 0;
    while off < buf.len() {
        if stop.load(Ordering::Acquire) {
            return false;
        }
        match rd.read(&mut buf[off..]) {
            Ok(0) => return false,
            Ok(n) => off += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use pprox_wire::Frame;

    /// A minimal frame-echo server: answers every request frame with a
    /// response frame carrying the same correlation id.
    fn echo_server() -> (SocketAddr, Arc<AtomicBool>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        listener.set_nonblocking(true).unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        std::thread::spawn(move || {
            while !stop2.load(Ordering::Acquire) {
                match listener.accept() {
                    Ok((mut s, _)) => {
                        let stop3 = stop2.clone();
                        std::thread::spawn(move || {
                            s.set_read_timeout(Some(Duration::from_millis(50))).ok();
                            let mut header = [0u8; HEADER_LEN];
                            let mut body = vec![0u8; PadClass::Response.capacity()];
                            loop {
                                if !read_full(&mut s, &mut header, &stop3) {
                                    return;
                                }
                                let Ok((_, body_len, corr)) = parse_header(&header) else {
                                    return;
                                };
                                if !read_full(&mut s, &mut body[..body_len], &stop3) {
                                    return;
                                }
                                let reply = Frame::new(PadClass::Response, corr, b"ok".to_vec())
                                    .unwrap()
                                    .encode()
                                    .unwrap();
                                if s.write_all(&reply).is_err() {
                                    return;
                                }
                            }
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => return,
                }
            }
        });
        (addr, stop)
    }

    #[test]
    fn tap_records_both_directions_and_forwards() {
        let (upstream, stop_echo) = echo_server();
        let t0 = std::time::Instant::now();
        let clock: TapClock = Arc::new(move || t0.elapsed().as_micros() as u64);
        let mut tap = RecordingTap::spawn(upstream, Duration::ZERO, clock).unwrap();

        let mut s = TcpStream::connect(tap.addr()).unwrap();
        for corr in 1..=3u64 {
            let req = Frame::new(PadClass::Request, corr, vec![7; 64])
                .unwrap()
                .encode()
                .unwrap();
            s.write_all(&req).unwrap();
            let mut header = [0u8; HEADER_LEN];
            s.read_exact(&mut header).unwrap();
            let (class, body_len, got_corr) = parse_header(&header).unwrap();
            assert_eq!(class, PadClass::Response);
            assert_eq!(got_corr, corr);
            let mut body = vec![0u8; body_len];
            s.read_exact(&mut body).unwrap();
        }
        drop(s);

        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        loop {
            let frames = tap.frames();
            let c2s = frames
                .iter()
                .filter(|f| f.dir == TapDirection::ClientToServer)
                .count();
            let s2c = frames
                .iter()
                .filter(|f| f.dir == TapDirection::ServerToClient)
                .count();
            if c2s == 3 && s2c == 3 {
                assert!(frames
                    .iter()
                    .all(|f| matches!(f.class, PadClass::Request | PadClass::Response)));
                assert!(frames.iter().all(|f| f.len == f.class.wire_len()));
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "tap recorded {c2s} c2s / {s2c} s2c frames"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        tap.shutdown();
        stop_echo.store(true, Ordering::Release);
    }
}
