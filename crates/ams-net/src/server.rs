//! The server façade: bind, run (or spawn), stop.

use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use ams_service::{AmsService, ServiceSnapshot, ServiceStats};

use crate::error::NetError;
use crate::reactor;

/// Tunables of the per-connection bounds.
///
/// Backpressure is flow control: each connection's reader submits
/// through the service's blocking path, so a full shard queue parks
/// that reader, which stops reading, and the peer's further sends
/// stall in TCP. The server never sheds load with `Busy`; a fast
/// producer simply runs at the speed of the shard workers, and server
/// memory stays bounded by the shard queues plus
/// `max_inflight_per_conn` queued responses per connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetServerConfig {
    /// How many responses one connection may have queued for its
    /// writer (ready frames and pending durable or drain waits) before
    /// its reader stops reading more of its requests. `0` is treated
    /// as `1`.
    pub max_inflight_per_conn: usize,
    /// Ignored. Every connection gets its own reader and writer
    /// thread, so I/O parallelism follows the connection count; the
    /// field remains so existing configurations keep compiling.
    pub reactors: usize,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        Self {
            max_inflight_per_conn: 64,
            reactors: 1,
        }
    }
}

/// A handle that asks a running server to shut down gracefully (same
/// path as a wire-level `Shutdown` request, minus the `Goodbye`).
#[derive(Debug, Clone)]
pub struct StopHandle {
    flag: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl StopHandle {
    /// Raises the stop flag and wakes the acceptor out of `accept`
    /// with a connection to the server's own address.
    pub fn stop(&self) {
        reactor::request_stop(&self.flag, self.addr);
    }
}

/// A bound, not-yet-running wire-protocol server.
///
/// ```no_run
/// use ams_net::NetServer;
/// use ams_service::{AmsService, ServiceConfig};
///
/// let service = AmsService::start(ServiceConfig::default(), &["clicks"])?;
/// let server = NetServer::bind("127.0.0.1:0")?;
/// println!("listening on {}", server.local_addr());
/// let (final_snapshot, stats) = server.run(service); // until Shutdown
/// # let _ = (final_snapshot, stats);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct NetServer {
    listener: TcpListener,
    addr: SocketAddr,
    config: NetServerConfig,
    stop: Arc<AtomicBool>,
}

impl NetServer {
    /// Binds a listener with the default [`NetServerConfig`]. Use port
    /// 0 to let the OS pick (read it back with [`Self::local_addr`]).
    ///
    /// # Errors
    /// [`NetError::Io`] when binding fails.
    pub fn bind<A: ToSocketAddrs>(addr: A) -> Result<Self, NetError> {
        Self::bind_with(addr, NetServerConfig::default())
    }

    /// Binds a listener with an explicit configuration.
    ///
    /// # Errors
    /// [`NetError::Io`] when binding fails.
    pub fn bind_with<A: ToSocketAddrs>(addr: A, config: NetServerConfig) -> Result<Self, NetError> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Self {
            listener,
            addr,
            config,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle that can stop the running server from another thread.
    pub fn stop_handle(&self) -> StopHandle {
        StopHandle {
            flag: Arc::clone(&self.stop),
            addr: self.addr,
        }
    }

    /// Runs the front-end on the calling thread (which becomes the
    /// acceptor; every connection gets a reader and a writer thread)
    /// until a wire `Shutdown` request arrives or the stop handle
    /// fires, then returns the service's final snapshot and lifetime
    /// statistics.
    pub fn run(self, service: AmsService) -> (ServiceSnapshot, ServiceStats) {
        reactor::run(self.listener, self.addr, service, self.config, self.stop)
    }

    /// Spawns the acceptor (and, as peers connect, their connection
    /// threads) in the background and returns a handle carrying the
    /// address, a stop handle, and the join point.
    pub fn spawn(self, service: AmsService) -> ServerHandle {
        let addr = self.addr;
        let stop = self.stop_handle();
        let thread = std::thread::Builder::new()
            .name("ams-net-acceptor".into())
            .spawn(move || self.run(service))
            .expect("spawn acceptor thread");
        ServerHandle { addr, stop, thread }
    }
}

/// A running background server (from [`NetServer::spawn`]).
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    stop: StopHandle,
    thread: std::thread::JoinHandle<(ServiceSnapshot, ServiceStats)>,
}

impl ServerHandle {
    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A clonable stop handle.
    pub fn stop_handle(&self) -> StopHandle {
        self.stop.clone()
    }

    /// Asks the server to stop and waits for it, returning the final
    /// snapshot and statistics.
    ///
    /// # Panics
    /// Propagates a panic from the acceptor thread (none are expected;
    /// the front-end is panic-free on arbitrary input by design).
    pub fn stop(self) -> (ServiceSnapshot, ServiceStats) {
        self.stop.stop();
        self.thread.join().expect("acceptor thread panicked")
    }

    /// Waits for the server to finish on its own (wire `Shutdown`).
    ///
    /// # Panics
    /// Propagates a panic from the acceptor thread.
    pub fn join(self) -> (ServiceSnapshot, ServiceStats) {
        self.thread.join().expect("acceptor thread panicked")
    }
}
