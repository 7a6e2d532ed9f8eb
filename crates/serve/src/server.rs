//! The analysis daemon: a TCP accept loop feeding a small worker pool,
//! every worker answering framed requests against ONE shared warm-start
//! solve context, ONE (optionally budgeted) hot memo domain, and ONE
//! durable disk memo.
//!
//! Sharing is the whole point of serving: the first request pays for
//! cache fixpoints and simplex bases, every later request that overlaps
//! semantically rides the hot tables. Each submission is a one-worker
//! run of the scenario runner on the serving thread itself, with the
//! shared context, memo and disk memo passed in — so a served matrix
//! gets the runner's per-cell supervision and neighbour reuse. Because
//! every memo key is deterministic and machine-independent, serving
//! changes *when* work happens, never *what* a bound is — the
//! differential test battery in `tests/serve_equivalence.rs` pins that
//! claim against the in-process runner.

use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use wcet_bench::scenario::{
    parse_matrix, run_campaign, CachedRow, CampaignOptions, CampaignRun, CellBudget, DiskCache,
    FailureKind,
};
use wcet_core::{MemoDomain, SolveContext};

use crate::frame::{write_frame, FrameError, FrameReader};
use crate::proto::{
    BoundsResponse, CellBounds, ErrorKind, Request, RequestLimits, RequestStats, Response,
    ServeError, StatsResponse,
};

/// How long a worker blocks — in a read, or waiting on the connection
/// queue — before giving the connection back (or re-checking the stop
/// flag). Long enough that a normal request/response exchange never
/// notices, short enough that an idle keep-alive connection can
/// neither starve the pool nor hold a shutdown hostage.
const POLL_INTERVAL: Duration = Duration::from_millis(150);

/// The backoff hint a shed connection is sent: half a poll interval, so
/// a retrying client lands roughly when the slot it raced for has
/// rotated back through the queue.
const RETRY_AFTER_MS: u64 = 75;

/// How long a shed connection's socket is parked after its `Overloaded`
/// frame is written. Closing immediately would let the kernel answer
/// the client's (already sent) request bytes with an RST that destroys
/// the buffered response on the client side; lingering past one poll
/// interval lets the client read the typed error first.
const SHED_LINGER: Duration = Duration::from_millis(1_000);

/// Most shed sockets parked at once; beyond this the oldest is dropped
/// early (an RST to that one client beats unbounded fd growth under a
/// shed storm).
const SHED_PARK_CAP: usize = 64;

/// How to run the server.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address. The default `127.0.0.1:0` asks the OS for a free
    /// port; read the real one back from [`ServerHandle::addr`].
    pub addr: String,
    /// Worker threads. `0` means the default of 2 — enough that a
    /// stalled connection cannot starve a shutdown request, small
    /// enough for a single-CPU CI container.
    pub workers: usize,
    /// Per-table hot-memo entry budget; `0` means unbounded.
    pub memo_budget: usize,
    /// Durable disk memo path. When set, the server opens it warm at
    /// startup (cells already on disk are served without analysis) and
    /// flushes freshly bounded cells back on shutdown.
    pub cache: Option<PathBuf>,
    /// Open connections actively being served at once; `None` means one
    /// per worker. Together with `max_queue` this is the admission
    /// capacity — a connection over it is answered with a typed
    /// [`ErrorKind::Overloaded`] frame and closed, never silently
    /// dropped.
    pub max_inflight: Option<usize>,
    /// Admitted connections allowed to wait beyond the in-flight cap;
    /// `None` means four per available core.
    pub max_queue: Option<usize>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            memo_budget: 0,
            cache: None,
            max_inflight: None,
            max_queue: None,
        }
    }
}

/// Everything the workers share.
struct ServeState {
    /// The one warm-start simplex context.
    ctx: Arc<SolveContext>,
    /// The one hot memo domain (budgeted iff configured).
    memo: Arc<MemoDomain>,
    /// The disk memo loaded at startup, if any.
    disk: Option<Arc<DiskCache>>,
    /// Where the shutdown flush writes, if anywhere.
    cache_path: Option<PathBuf>,
    /// Bounded cells accumulated since startup, keyed by fingerprint so
    /// a resubmission overwrites instead of duplicating (the disk
    /// format wants each fingerprint at most once per append batch).
    pending: Mutex<HashMap<(u64, u64), Vec<CachedRow>>>,
    /// Requests handled, lifetime.
    requests: AtomicU64,
    /// Cells served straight from the disk memo, lifetime.
    disk_hits: AtomicU64,
    /// Admitted connections not yet closed — the admission gauge the
    /// accept loop checks against `capacity`.
    open: AtomicUsize,
    /// Admission capacity: in-flight cap plus queue bound.
    capacity: usize,
    /// Connections refused with a typed `Overloaded` frame, lifetime.
    shed: AtomicU64,
    /// Submissions aborted on their wall-clock deadline, lifetime.
    deadline_errors: AtomicU64,
    /// Submissions aborted on a pivot/eval budget, lifetime.
    budget_errors: AtomicU64,
    /// Set once; accept loop and idle workers drain out after.
    stop: AtomicBool,
    /// The bound address, for the self-connect that wakes the accept
    /// loop out of its blocking `accept`.
    addr: SocketAddr,
}

/// RAII admission token: holds one unit of the server's `open` gauge
/// from admission until the connection is dropped, wherever that
/// happens (worker, queue, or teardown).
struct OpenSlot {
    state: Arc<ServeState>,
}

impl OpenSlot {
    fn claim(state: &Arc<ServeState>) -> OpenSlot {
        state.open.fetch_add(1, Ordering::AcqRel);
        OpenSlot {
            state: Arc::clone(state),
        }
    }
}

impl Drop for OpenSlot {
    fn drop(&mut self) {
        self.state.open.fetch_sub(1, Ordering::AcqRel);
    }
}

/// An admitted connection as it travels the worker queue: the stream,
/// the partial-frame state a rotation must not discard, and the
/// admission token.
struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    /// Held only for its Drop (releases the admission gauge).
    _slot: OpenSlot,
}

/// A running server: its address and the threads to join.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServeState>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl ServerHandle {
    /// The address the server actually bound (resolves port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the server stops (a client sent `Shutdown`, or
    /// [`ServerHandle::stop`] was called from another thread).
    pub fn join(mut self) {
        self.join_threads();
    }

    /// Programmatic clean stop — the SIGINT-equivalent path: flushes
    /// pending cells to the disk memo, stops the accept loop, drains
    /// the workers, and returns how many cells were flushed.
    pub fn stop(mut self) -> u64 {
        let flushed = flush_pending(&self.state);
        begin_stop(&self.state);
        self.join_threads();
        flushed
    }

    fn join_threads(&mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Binds, spawns the accept loop and worker pool, and returns a handle.
///
/// # Errors
///
/// Whatever binding the listener or spawning a thread reports.
pub fn start(config: &ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(config.addr.as_str())?;
    let addr = listener.local_addr()?;
    let memo = if config.memo_budget > 0 {
        Arc::new(MemoDomain::with_budget(config.memo_budget))
    } else {
        Arc::new(MemoDomain::new())
    };
    let worker_count = if config.workers == 0 {
        2
    } else {
        config.workers
    };
    let max_inflight = config.max_inflight.unwrap_or(worker_count).max(1);
    let max_queue = config.max_queue.unwrap_or_else(|| {
        std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get) * 4
    });
    let state = Arc::new(ServeState {
        ctx: Arc::new(SolveContext::new()),
        memo,
        disk: config
            .cache
            .as_deref()
            .map(|p| Arc::new(DiskCache::open(p))),
        cache_path: config.cache.clone(),
        pending: Mutex::new(HashMap::new()),
        requests: AtomicU64::new(0),
        disk_hits: AtomicU64::new(0),
        open: AtomicUsize::new(0),
        capacity: max_inflight + max_queue,
        shed: AtomicU64::new(0),
        deadline_errors: AtomicU64::new(0),
        budget_errors: AtomicU64::new(0),
        stop: AtomicBool::new(false),
        addr,
    });

    let (tx, rx) = mpsc::channel::<Conn>();
    let rx = Arc::new(Mutex::new(rx));
    let mut workers = Vec::with_capacity(worker_count);
    for i in 0..worker_count {
        let rx = Arc::clone(&rx);
        let tx = tx.clone();
        let state = Arc::clone(&state);
        workers.push(
            std::thread::Builder::new()
                .name(format!("wcet-serve-worker-{i}"))
                .spawn(move || worker_loop(&rx, &tx, &state))?,
        );
    }
    let accept_state = Arc::clone(&state);
    let accept = std::thread::Builder::new()
        .name("wcet-serve-accept".to_string())
        .spawn(move || {
            // Shed sockets linger here after their Overloaded frame so a
            // close-triggered RST cannot beat the response to the client.
            let mut parked: Vec<(TcpStream, Instant)> = Vec::new();
            for conn in listener.incoming() {
                parked.retain(|(_, since)| since.elapsed() < SHED_LINGER);
                if accept_state.stop.load(Ordering::Acquire) {
                    break;
                }
                match conn {
                    Ok(conn) => {
                        if accept_state.open.load(Ordering::Acquire) >= accept_state.capacity {
                            if let Some(conn) = shed(&accept_state, conn) {
                                if parked.len() >= SHED_PARK_CAP {
                                    parked.remove(0);
                                }
                                parked.push((conn, Instant::now()));
                            }
                            continue;
                        }
                        let admitted = Conn {
                            stream: conn,
                            reader: FrameReader::new(),
                            _slot: OpenSlot::claim(&accept_state),
                        };
                        if tx.send(admitted).is_err() {
                            break;
                        }
                    }
                    // A failed accept (peer vanished between SYN and
                    // accept) is the peer's problem, not ours.
                    Err(_) => continue,
                }
            }
            // Dropping the sender lets idle workers drain out.
        })?;

    Ok(ServerHandle {
        addr,
        state,
        accept: Some(accept),
        workers,
    })
}

/// Refuses one over-capacity connection: a typed `Overloaded` frame with
/// a retry hint, then a write-side shutdown. Returns the socket for
/// parking when the frame went out (the read side stays open so the
/// client can drain the error), `None` when the peer was already gone.
fn shed(state: &ServeState, mut conn: TcpStream) -> Option<TcpStream> {
    state.shed.fetch_add(1, Ordering::Relaxed);
    let resp = Response::Error(ServeError {
        kind: ErrorKind::Overloaded {
            retry_after_ms: RETRY_AFTER_MS,
        },
        message: format!(
            "server at capacity ({} connections open); retry after {RETRY_AFTER_MS} ms",
            state.capacity
        ),
    });
    let _ = conn.set_write_timeout(Some(POLL_INTERVAL));
    if write_frame(&mut conn, &resp.encode()).is_err() {
        return None;
    }
    let _ = conn.shutdown(Shutdown::Write);
    Some(conn)
}

fn worker_loop(rx: &Mutex<mpsc::Receiver<Conn>>, tx: &mpsc::Sender<Conn>, state: &Arc<ServeState>) {
    loop {
        // Hold the lock only while waiting for a connection, never while
        // serving one: the next idle worker takes over the receiver.
        let conn = {
            let Ok(guard) = rx.lock() else { return };
            match guard.recv_timeout(POLL_INTERVAL) {
                Ok(conn) => Some(conn),
                Err(mpsc::RecvTimeoutError::Timeout) => None,
                Err(mpsc::RecvTimeoutError::Disconnected) => return,
            }
        };
        if state.stop.load(Ordering::Acquire) {
            return;
        }
        let Some(conn) = conn else { continue };
        // A still-open connection goes back to the queue rather than
        // parking this worker: idle keep-alive clients rotate through
        // the pool instead of starving it. (Send fails only once every
        // receiver is gone, i.e. during teardown — drop is correct.)
        if let Some(conn) = serve_one(state, conn) {
            let _ = tx.send(conn);
        }
    }
}

/// Serves at most ONE request on the connection, then hands it back.
///
/// Returns the connection if it should stay open (answered a normal
/// request, or idle / mid-frame this poll interval — the incremental
/// [`FrameReader`] travels with it, so a client dribbling a frame
/// slower than the poll interval resumes where it left off instead of
/// having its partial frame discarded); `None` when it is done — peer
/// left, transport died, a framing error made the stream offset
/// untrustworthy, or the request asked for a close (decode error,
/// shutdown).
fn serve_one(state: &Arc<ServeState>, mut conn: Conn) -> Option<Conn> {
    // The read timeout bounds how long this worker is tied to one
    // connection, not how long a client may think: an idle or dribbling
    // connection rotates back into the queue.
    let _ = conn.stream.set_read_timeout(Some(POLL_INTERVAL));
    let payload = match conn.reader.poll(&mut conn.stream) {
        Ok(Some(payload)) => payload,
        Ok(None) => {
            // Nothing (or only part of a frame) arrived this interval:
            // rotate the connection back (unless the server is draining
            // out), carrying any buffered partial frame.
            return (!state.stop.load(Ordering::Acquire)).then_some(conn);
        }
        // Clean goodbye, torn frame, or dead transport: nothing to
        // answer on — drop the connection, keep serving others.
        Err(FrameError::Closed | FrameError::Io(_)) => return None,
        // A malformed claim gets a typed error, then the
        // connection is dropped cleanly (the stream offset can no
        // longer be trusted).
        Err(e @ (FrameError::Empty | FrameError::TooLarge(_) | FrameError::Utf8)) => {
            let resp = protocol_error(format!("bad frame: {e}"));
            let _ = write_frame(&mut conn.stream, &resp.encode());
            return None;
        }
    };
    let (response, done) = handle_payload(state, &payload);
    if write_frame(&mut conn.stream, &response.encode()).is_err() || done {
        return None;
    }
    Some(conn)
}

fn protocol_error(message: String) -> Response {
    Response::Error(ServeError {
        kind: ErrorKind::Protocol,
        message,
    })
}

/// Interprets one frame payload. The bool says whether the connection
/// should close after the response is written.
fn handle_payload(state: &Arc<ServeState>, payload: &str) -> (Response, bool) {
    state.requests.fetch_add(1, Ordering::Relaxed);
    let request = match Request::decode(payload) {
        Ok(request) => request,
        Err(message) => return (protocol_error(message), true),
    };
    match request {
        Request::SubmitScenario { spec, limits } => (submit(state, &spec, true, limits), false),
        Request::SubmitMatrix { spec, limits } => (submit(state, &spec, false, limits), false),
        Request::Stats => (stats_response(state), false),
        Request::Shutdown => {
            let flushed = flush_pending(state);
            begin_stop(state);
            (Response::Shutdown { flushed }, true)
        }
    }
}

fn submit(
    state: &Arc<ServeState>,
    spec: &str,
    single_cell: bool,
    limits: RequestLimits,
) -> Response {
    let matrix = match parse_matrix(spec) {
        Ok(matrix) => matrix,
        Err(e) => return protocol_error(format!("bad spec: {e}")),
    };
    if single_cell && matrix.num_cells() != 1 {
        return protocol_error(format!(
            "submit_scenario wants exactly one cell, spec expands to {} (use submit_matrix)",
            matrix.num_cells()
        ));
    }

    // Effort baselines around the run; deltas are approximate under
    // concurrent submissions (documented on RequestStats).
    let memo_before = state.memo.stats();
    let fix_before = state.memo.fixpoint_stats();
    let ctx_before = state.ctx.stats();

    // One worker — this thread — and every cell kept in expansion
    // order. The request's limits become the runner's per-cell budgets
    // plus its run deadline, so a runaway cell unwinds at the cell
    // boundary with a typed failure instead of pinning this worker.
    let opts = CampaignOptions {
        threads: 1,
        keep_cells: true,
        ctx: Some(Arc::clone(&state.ctx)),
        memo: Some(Arc::clone(&state.memo)),
        disk: state.disk.clone(),
        budget: CellBudget {
            max_pivots: limits.budget_pivots,
            max_fixpoint_evals: limits.budget_evals,
            max_cell_ms: limits.deadline_ms,
        },
        deadline: limits.deadline_ms.map(Duration::from_millis),
        ..CampaignOptions::default()
    };
    // The runner supervises every cell; this guard only keeps a panic
    // outside any cell from killing the serving thread.
    let run = match catch_unwind(AssertUnwindSafe(|| run_campaign(&matrix, &opts))) {
        Ok(run) => run,
        Err(payload) => {
            return Response::Error(ServeError {
                kind: ErrorKind::Panic,
                message: panic_message(payload.as_ref()),
            })
        }
    };
    if let Some(error) = aborted(state, &run, limits) {
        return Response::Error(error);
    }

    remember_bounded(state, &run);
    state
        .disk_hits
        .fetch_add(run.disk_hits as u64, Ordering::Relaxed);

    let memo_total = state.memo.stats();
    let ctx_after = state.ctx.stats();
    let stats = RequestStats {
        memo: memo_total.since(&memo_before),
        memo_total,
        solver_warm_hits: ctx_after.warm_hits.saturating_sub(ctx_before.warm_hits),
        solver_cold_solves: ctx_after.cold_solves.saturating_sub(ctx_before.cold_solves),
        solver_pivots: ctx_after
            .totals
            .pivots
            .saturating_sub(ctx_before.totals.pivots),
        fixpoint_evaluated: state
            .memo
            .fixpoint_stats()
            .evaluated
            .saturating_sub(fix_before.evaluated),
    };
    Response::Bounds(BoundsResponse {
        matrix: run.matrix.clone(),
        cells: run.cells.iter().map(CellBounds::of).collect(),
        duplicates: run.duplicates as u64,
        disk_hits: run.disk_hits as u64,
        stats,
    })
}

/// The typed error of a submission the runner could not finish: the
/// first failed cell's class (a counted budget, a wall clock, or a
/// panic), or the run deadline. Budget and deadline aborts are counted
/// in the server's stats.
fn aborted(state: &ServeState, run: &CampaignRun, limits: RequestLimits) -> Option<ServeError> {
    let failed = run
        .cells
        .iter()
        .find_map(|c| c.failure.as_ref().map(|f| (c, f)));
    let (kind, message) = match failed {
        Some((cell, f)) => (
            f.kind,
            format!("request aborted at {}: {}", cell.scenario.name, f.message),
        ),
        None if run.deadline_hit => (
            FailureKind::Deadline,
            format!(
                "request aborted: over its {} ms wall-clock deadline",
                limits.deadline_ms.unwrap_or_default()
            ),
        ),
        None => return None,
    };
    match kind {
        FailureKind::Budget => {
            state.budget_errors.fetch_add(1, Ordering::Relaxed);
        }
        FailureKind::Deadline => {
            state.deadline_errors.fetch_add(1, Ordering::Relaxed);
        }
        FailureKind::Panic => {}
    }
    Some(ServeError {
        kind: kind.into(),
        message,
    })
}

/// Buffers every fully-bounded cell for the shutdown flush. Cells the
/// disk memo already answered round-trip through here too — the append
/// path skips fingerprints that are already durable, so this only costs
/// a map insert.
fn remember_bounded(state: &Arc<ServeState>, run: &CampaignRun) {
    let Ok(mut pending) = state.pending.lock() else {
        return;
    };
    for cell in run.cells.iter().filter(|c| c.all_bounded()) {
        let rows = cell
            .rows
            .iter()
            .filter_map(|r| {
                r.outcome.as_ref().ok().map(|b| CachedRow {
                    task: r.task.clone(),
                    core: r.core,
                    thread: r.thread,
                    mode: r.mode.clone(),
                    wcet: b.wcet,
                })
            })
            .collect();
        pending.insert(cell.fingerprint, rows);
    }
}

fn stats_response(state: &Arc<ServeState>) -> Response {
    let ctx = state.ctx.stats();
    Response::Stats(StatsResponse {
        requests: state.requests.load(Ordering::Relaxed),
        memo: state.memo.stats(),
        memo_entries: state.memo.entries() as u64,
        memo_budget: state.memo.budget().map(|b| b as u64),
        disk_hits: state.disk_hits.load(Ordering::Relaxed),
        solver_warm_hits: ctx.warm_hits,
        solver_cold_solves: ctx.cold_solves,
        queue_depth: state.open.load(Ordering::Acquire) as u64,
        shed: state.shed.load(Ordering::Relaxed),
        deadline_errors: state.deadline_errors.load(Ordering::Relaxed),
        budget_errors: state.budget_errors.load(Ordering::Relaxed),
    })
}

/// Flushes pending bounded cells into the disk memo. Opens a fresh
/// handle so cells another process persisted since startup are seen and
/// skipped; the CRC-checkpointed format makes the append torn-tail safe
/// for the next warm start.
fn flush_pending(state: &ServeState) -> u64 {
    let Some(path) = state.cache_path.as_deref() else {
        return 0;
    };
    let fresh: Vec<((u64, u64), Vec<CachedRow>)> = match state.pending.lock() {
        Ok(mut pending) => pending.drain().collect(),
        Err(_) => return 0,
    };
    if fresh.is_empty() {
        return 0;
    }
    let disk = DiskCache::open(path);
    match disk.append(&fresh) {
        Ok(appended) => appended as u64,
        Err(e) => {
            // A daemon's log is stderr; the shutdown still proceeds.
            eprintln!("wcet-serve: flush to {} failed: {e}", path.display());
            0
        }
    }
}

/// Sets the stop flag and kicks the accept loop out of its blocking
/// `accept` with a throwaway self-connection.
fn begin_stop(state: &ServeState) {
    state.stop.store(true, Ordering::Release);
    let _ = TcpStream::connect(state.addr);
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "analysis panicked".to_string()
    }
}
