//! A blocking wire client for the serving daemon.
//!
//! One [`Client`] owns one TCP connection and issues one request at a
//! time (the protocol is strictly request/reply per frame). The typed
//! helpers ([`Client::explore`], [`Client::batch`], …) unwrap the
//! matching [`Response`] variant and surface server-side
//! [`WireError`]s — including [`crate::protocol::ErrorCode::Busy`]
//! backpressure — as [`ClientError::Server`], so callers can branch on
//! the structured code.

use crate::protocol::{
    read_frame, write_frame, CacheStatsPayload, ExploreResult, ExploreSpec, FrameError, Request,
    Response, StatusPayload, TracePayload, WireError,
};
use std::fmt;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed (connect, send, or receive).
    Io(io::Error),
    /// The reply frame was unreadable (oversized or not UTF-8).
    Frame(FrameError),
    /// The reply document did not decode.
    Decode(WireError),
    /// The server answered with a structured error.
    Server(WireError),
    /// The server answered with a well-formed but wrong-typed response.
    Unexpected(&'static str),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Frame(e) => write!(f, "bad reply frame: {e}"),
            ClientError::Decode(e) => write!(f, "undecodable reply: {e}"),
            ClientError::Server(e) => write!(f, "server error: {e}"),
            ClientError::Unexpected(kind) => write!(f, "unexpected reply of type {kind}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl ClientError {
    /// The server's structured error, when there is one.
    pub fn as_server_error(&self) -> Option<&WireError> {
        match self {
            ClientError::Server(e) => Some(e),
            _ => None,
        }
    }
}

/// A connected client.
pub struct Client {
    stream: TcpStream,
    trace: Option<u64>,
    last_trace: Option<u64>,
}

impl Client {
    /// Connects to a serving daemon.
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            trace: None,
            last_trace: None,
        })
    }

    /// Attaches (or detaches) a trace id to every subsequent request.
    ///
    /// A nonzero id rides the wire envelope, forces server-side span
    /// recording for those requests, and is echoed back in each reply.
    /// Zero is reserved and silently treated as "no trace".
    pub fn set_trace(&mut self, trace: Option<u64>) {
        self.trace = trace.filter(|&id| id != 0);
    }

    /// The trace id the server echoed (or assigned, under sampling) on
    /// the most recent reply, if any.
    pub fn last_trace(&self) -> Option<u64> {
        self.last_trace
    }

    /// Sets (or clears) the receive timeout — useful for tests that must
    /// not hang on a wedged server.
    ///
    /// # Errors
    ///
    /// Propagates the socket-option failure.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.stream.set_read_timeout(timeout)?;
        Ok(())
    }

    /// Sends one request and decodes the reply — any well-formed reply,
    /// including errors. The typed helpers below are usually what you
    /// want.
    ///
    /// # Errors
    ///
    /// Fails on transport or decoding problems; a structured server
    /// error is a *successful* call here.
    pub fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        let trace = self.trace;
        self.request_traced(request, trace)
    }

    fn request_traced(
        &mut self,
        request: &Request,
        trace: Option<u64>,
    ) -> Result<Response, ClientError> {
        write_frame(&mut self.stream, &request.to_json_traced(trace))?;
        let payload = match read_frame(&mut self.stream) {
            Ok(p) => p,
            Err(FrameError::Io(e)) => return Err(ClientError::Io(e)),
            Err(e) => return Err(ClientError::Frame(e)),
        };
        let (response, echoed) =
            Response::from_json_traced(&payload).map_err(ClientError::Decode)?;
        self.last_trace = echoed;
        Ok(response)
    }

    fn expect(&mut self, request: &Request) -> Result<Response, ClientError> {
        match self.request(request)? {
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Ok(other),
        }
    }

    /// Runs (or fetches from cache) one simulation.
    ///
    /// # Errors
    ///
    /// Transport/decoding failures, or the server's structured error.
    pub fn explore(&mut self, spec: ExploreSpec) -> Result<ExploreResult, ClientError> {
        match self.expect(&Request::Explore(spec))? {
            Response::Result(r) => Ok(*r),
            _ => Err(ClientError::Unexpected("non-result")),
        }
    }

    /// Runs a batch as one queued job; results come back in request
    /// order together with the cache hit/miss split.
    ///
    /// # Errors
    ///
    /// Transport/decoding failures, or the server's structured error.
    pub fn batch(
        &mut self,
        specs: Vec<ExploreSpec>,
    ) -> Result<(Vec<ExploreResult>, u64, u64), ClientError> {
        match self.expect(&Request::Batch(specs))? {
            Response::Batch {
                results,
                hits,
                misses,
            } => Ok((results, hits, misses)),
            _ => Err(ClientError::Unexpected("non-batch")),
        }
    }

    /// Fetches the server counters.
    ///
    /// # Errors
    ///
    /// Transport/decoding failures, or the server's structured error.
    pub fn status(&mut self) -> Result<StatusPayload, ClientError> {
        match self.expect(&Request::Status)? {
            Response::Status(s) => Ok(s),
            _ => Err(ClientError::Unexpected("non-status")),
        }
    }

    /// Fetches the result-cache counters.
    ///
    /// # Errors
    ///
    /// Transport/decoding failures, or the server's structured error.
    pub fn cache_stats(&mut self) -> Result<CacheStatsPayload, ClientError> {
        match self.expect(&Request::CacheStats)? {
            Response::CacheStats(c) => Ok(c),
            _ => Err(ClientError::Unexpected("non-cache-stats")),
        }
    }

    /// Fetches the daemon's Prometheus text exposition over the wire
    /// protocol (no HTTP listener required).
    ///
    /// # Errors
    ///
    /// Transport/decoding failures, or the server's structured error.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        match self.expect(&Request::Metrics)? {
            Response::Metrics(text) => Ok(text),
            _ => Err(ClientError::Unexpected("non-metrics")),
        }
    }

    /// Fetches the server's recent-span ring, optionally filtered to one
    /// trace id. The filter rides the request's own `trace` envelope
    /// field; the `trace` request itself is never traced.
    ///
    /// # Errors
    ///
    /// Transport/decoding failures, or the server's structured error.
    pub fn trace_spans(&mut self, filter: Option<u64>) -> Result<TracePayload, ClientError> {
        match self.request_traced(&Request::Trace, filter.filter(|&id| id != 0))? {
            Response::Error(e) => Err(ClientError::Server(e)),
            Response::Trace(t) => Ok(t),
            _ => Err(ClientError::Unexpected("non-trace")),
        }
    }

    /// Asks the server to drain and exit; returns once the server
    /// acknowledged with `Bye`.
    ///
    /// # Errors
    ///
    /// Transport/decoding failures, or the server's structured error.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.expect(&Request::Shutdown)? {
            Response::Bye => Ok(()),
            _ => Err(ClientError::Unexpected("non-bye")),
        }
    }
}
