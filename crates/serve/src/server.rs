//! The TCP compile service.
//!
//! The shared connection loop (`listener.rs`: a blocking `TcpListener`,
//! one accept thread, a bounded pool of workers, each running one
//! connection's newline-delimited request/response loop to completion)
//! answering every request line from the compile cache. The
//! compile cache ([`PersistentCache`]) is shared across workers, so
//! concurrent requests for the same key compile exactly once and — when
//! a cache directory is configured — survive server restarts.
//!
//! Failure containment, layer by layer:
//!
//! - A malformed frame gets a `protocol` error response; the connection
//!   stays up.
//! - A kernel that fails to parse or compile gets a `compile` error
//!   response.
//! - A panic inside the compiler is caught per request
//!   ([`std::panic::catch_unwind`]) and answered as an `internal`
//!   error; the worker, the connection and the server all survive.

use std::io;
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use shmls_frontend::parse_kernel;
use shmls_ir::error::panic_reason;
use stencil_hmls::persist::PersistentCache;

use crate::listener::Listener;
use crate::protocol::{best_effort_id, ErrorKind, Request, Response};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind. Port 0 picks a free port (see
    /// [`ServerHandle::local_addr`]).
    pub addr: String,
    /// Worker threads — the maximum number of concurrently served
    /// connections. Clamped to at least 1.
    pub workers: usize,
    /// Cache directory for the disk-persistent tier; `None` serves from
    /// memory only and starts cold on every launch.
    pub cache_dir: Option<PathBuf>,
    /// Cache capacity: the server keeps `8 × capacity` design records
    /// resident — the one thing this bounds. (Compiled kernels are not
    /// kept at all.)
    pub capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 8,
            cache_dir: None,
            capacity: 64,
        }
    }
}

/// A running server. Dropping the handle shuts the server down; call
/// [`ServerHandle::shutdown`] to do so explicitly.
#[derive(Debug)]
pub struct ServerHandle {
    listener: Listener,
    cache: Arc<PersistentCache>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// The shared compile cache, for in-process stats reads.
    pub fn cache(&self) -> &Arc<PersistentCache> {
        &self.cache
    }

    /// Stop accepting, drain workers, and join every thread. Open
    /// connections are closed after at most one read-poll interval
    /// (100 ms).
    pub fn shutdown(self) {
        drop(self.listener);
    }
}

/// Bind, spawn the worker pool, and start serving. Returns as soon as
/// the listener is live — the handle's address is immediately
/// connectable.
pub fn serve(config: ServerConfig) -> io::Result<ServerHandle> {
    let cache = match &config.cache_dir {
        Some(dir) => PersistentCache::with_dir(dir, config.capacity)?,
        None => PersistentCache::in_memory(config.capacity),
    };
    let cache = Arc::new(cache);
    let listener = {
        let cache = Arc::clone(&cache);
        Listener::start(
            &config.addr,
            config.workers,
            || (),
            move |(), line| respond(&cache, line).encode(),
        )?
    };
    Ok(ServerHandle { listener, cache })
}

/// Answer one request line. Never panics out: compiler panics become
/// `internal` error responses.
pub(crate) fn respond(cache: &PersistentCache, line: &str) -> Response {
    let start = Instant::now();
    match catch_unwind(AssertUnwindSafe(|| handle(cache, line, &start))) {
        Ok(response) => response,
        Err(panic) => {
            let message = panic_reason(&*panic);
            Response::failure(
                best_effort_id(line),
                ErrorKind::Internal,
                format!("panic while serving request: {message}"),
                wall_us(&start),
            )
        }
    }
}

fn handle(cache: &PersistentCache, line: &str, start: &Instant) -> Response {
    let request = match Request::parse(line) {
        Ok(r) => r,
        Err(e) => {
            return Response::failure(best_effort_id(line), ErrorKind::Protocol, e, wall_us(start))
        }
    };
    let opts = match request.compile_options() {
        Ok(o) => o,
        Err(e) => return Response::failure(request.id, ErrorKind::Protocol, e, wall_us(start)),
    };
    #[cfg(test)]
    {
        if request.source == "__serve_test_panic__" {
            panic!("injected test panic");
        }
    }
    let kernel = match parse_kernel(&request.source) {
        Ok(k) => k,
        Err(e) => {
            return Response::failure(
                request.id,
                ErrorKind::Compile,
                e.to_string(),
                wall_us(start),
            )
        }
    };
    match cache.get_or_compile_record(&kernel, &opts) {
        Ok((record, disposition)) => {
            Response::success(request.id, &record, disposition, wall_us(start))
        }
        Err(e) => Response::failure(
            request.id,
            ErrorKind::Compile,
            e.to_string(),
            wall_us(start),
        ),
    }
}

fn wall_us(start: &Instant) -> u64 {
    start.elapsed().as_micros() as u64
}

#[cfg(test)]
mod tests {
    use std::net::TcpListener;

    use super::*;

    #[test]
    fn starts_and_shuts_down_without_traffic() {
        let handle = serve(ServerConfig::default()).unwrap();
        assert_ne!(handle.local_addr().port(), 0);
        handle.shutdown();
    }

    #[test]
    fn drop_shuts_down() {
        let handle = serve(ServerConfig::default()).unwrap();
        let addr = handle.local_addr();
        drop(handle);
        // The port is released: a fresh bind to it succeeds.
        assert!(TcpListener::bind(addr).is_ok());
    }

    #[test]
    fn respond_layers_errors_by_kind() {
        let cache = PersistentCache::in_memory(4);
        // Malformed frame → protocol error, id still echoed.
        let r = respond(&cache, r#"{"id": 3, "options": 7}"#);
        assert!(!r.ok);
        assert_eq!(r.id, Some(3));
        assert_eq!(r.error.as_ref().unwrap().0, ErrorKind::Protocol);
        // Well-formed frame, bad kernel → compile error.
        let r = respond(&cache, r#"{"id": 4, "source": "kernel broken {"}"#);
        assert!(!r.ok);
        assert_eq!(r.error.as_ref().unwrap().0, ErrorKind::Compile);
    }

    #[test]
    fn respond_isolates_panics_as_internal_errors() {
        let cache = PersistentCache::in_memory(4);
        let r = respond(&cache, r#"{"id": 5, "source": "__serve_test_panic__"}"#);
        assert!(!r.ok);
        assert_eq!(r.id, Some(5));
        let (kind, message) = r.error.as_ref().unwrap();
        assert_eq!(*kind, ErrorKind::Internal);
        assert!(message.contains("injected test panic"), "{message}");
        // The cache (and thus the server) is still usable afterwards.
        let request = Request {
            id: Some(6),
            source: "kernel k { grid(6, 6) halo 1 field a : input field b : output \
                     compute b { b = a[-1,0] + a[1,0] } }"
                .to_string(),
            options: crate::protocol::RequestOptions {
                paths: Some("hls".to_string()),
                ..Default::default()
            },
        };
        let r = respond(&cache, &request.encode());
        assert!(r.ok, "{:?}", r.error);
        assert_eq!(r.disposition.as_deref(), Some("miss"));
    }
}
