//! The connection loop the compile server and the router share.
//!
//! Deliberately built on `std` alone: a blocking `TcpListener`, one
//! accept thread, and a bounded pool of worker threads fed over an
//! `mpsc` channel. Each worker owns one connection at a time and runs
//! its newline-delimited request/response loop to completion, answering
//! every line through the caller's `answer` function over a
//! per-connection state value (the router's backend connection pool;
//! nothing for the server).
//!
//! Shutdown is cooperative: workers poll a shared flag between read
//! timeouts, and dropping the [`Listener`] unblocks the accept loop with
//! a throwaway connection to itself, then joins every thread.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::Duration;

/// How long a worker blocks in a read before re-checking the shutdown
/// flag. Bounds shutdown latency; invisible to clients.
const READ_POLL: Duration = Duration::from_millis(100);

/// Lock a mutex whose every critical section in this crate leaves its
/// data whole (a queue `recv`, an integer increment, a membership update
/// that ends in a ring rebuild): a thread that panicked holding it must
/// not take the request path down with a poisoned lock.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A bound listener with its accept thread and worker pool. Dropping it
/// stops accepting, closes open connections after at most one read-poll
/// interval (100 ms), and joins every thread.
#[derive(Debug)]
pub(crate) struct Listener {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<thread::JoinHandle<()>>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl Listener {
    /// Bind `addr`, spawn `workers` (at least one) connection workers,
    /// and start accepting. Returns as soon as the listener is live —
    /// [`Listener::local_addr`] is immediately connectable. Every
    /// connection gets a fresh `state()`, and every request line on it
    /// (line terminator stripped) is answered with
    /// `answer(&mut state, line)` plus a newline.
    pub(crate) fn start<S: 'static>(
        addr: &str,
        workers: usize,
        state: fn() -> S,
        answer: impl Fn(&mut S, &str) -> String + Send + Sync + 'static,
    ) -> io::Result<Listener> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let answer = Arc::new(answer);

        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..workers.max(1))
            .map(|_| {
                let rx = Arc::clone(&rx);
                let stop = Arc::clone(&stop);
                let answer = Arc::clone(&answer);
                thread::spawn(move || loop {
                    // Holding the lock only for the recv keeps the other
                    // workers free to pick up queued connections.
                    let conn = lock(&rx).recv();
                    // Sender dropped: the accept loop has exited.
                    let Ok(stream) = conn else { return };
                    serve_connection(stream, &stop, &mut state(), answer.as_ref());
                })
            })
            .collect();

        let accept = {
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        return; // drops `tx`, draining the workers
                    }
                    if let Ok(stream) = stream {
                        if tx.send(stream).is_err() {
                            return;
                        }
                    }
                }
            })
        };

        Ok(Listener {
            local_addr,
            stop,
            accept: Some(accept),
            workers,
        })
    }

    /// The address actually bound (resolves port 0).
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // The accept loop sits in a blocking `accept`; a throwaway
        // connection to ourselves wakes it so it can observe the flag.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Run one connection's request/response loop until EOF, a transport
/// error, or shutdown.
fn serve_connection<S>(
    stream: TcpStream,
    stop: &AtomicBool,
    state: &mut S,
    answer: &impl Fn(&mut S, &str) -> String,
) {
    // One small write per response on a request/response protocol:
    // without TCP_NODELAY, Nagle + delayed ACK turns every cache hit
    // into a ~40–200 ms round trip.
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(READ_POLL)).is_err() {
        return;
    }
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        match reader.read_line(&mut line) {
            Ok(0) => return, // EOF
            Ok(_) => {
                let reply = answer(state, line.trim_end_matches(['\r', '\n']));
                line.clear();
                if writer.write_all(reply.as_bytes()).is_err()
                    || writer.write_all(b"\n").is_err()
                    || writer.flush().is_err()
                {
                    return;
                }
            }
            // A poll timeout mid-wait (or even mid-line: `read_line`
            // keeps partial bytes in `line`, so resuming is lossless).
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}
