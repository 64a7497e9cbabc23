//! The served driver: a recorded client-state stream replayed open loop
//! over `hotpathd`'s unix socket.
//!
//! One thread, one `UnixClient` connection: at each tick's due time the
//! tick's states go out as `SUBMIT_BATCH` frames (at most `MAX_BATCH`
//! per frame) followed by `ADVANCE`; between ticks the thread polls
//! `QUERY` at a bounded rate and notes when each epoch becomes
//! visible. The schedule never waits for the server, so a slow epoch
//! builds a backlog on the writer channel instead of slowing the load.
//!
//! The engine handed to `Hotpathd::spawn` is wrapped in [`TimedEngine`],
//! a benchmark-side decorator that times every call the writer thread
//! makes into it and tells the client when the writer has finished
//! everything sent so far. While it is idle, no thread of the server
//! runs, so the client times the host reference workload then: the
//! replay's host speed, measured during the replay without the
//! program's threads competing for the cores.

use std::hint::black_box;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hotpath_core::checkpoint::{Checkpoint, CheckpointError};
use hotpath_core::config::Config;
use hotpath_core::coordinator::{Coordinator, EndpointResponse, HotSnapshot};
use hotpath_core::engine::{Engine, EngineKind};
use hotpath_core::raytrace::ClientState;
use hotpath_core::snapshot::SnapshotCell;
use hotpath_core::stats::ProcessingStats;
use hotpath_core::time::Timestamp;
use hotpath_serve::server::Hotpathd;
use hotpath_serve::swarm::snapshot_fingerprint;
use hotpath_serve::wire::{serve_unix, UnixClient, MAX_BATCH};

use crate::closed_loop::READ_BURST;
use crate::host::{time_reference, REFERENCE_NOMINAL};
use crate::layers::EpochLayers;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::SERVED_REFERENCE_ROOM;

/// What the writer thread did, as seen by [`TimedEngine`].
#[derive(Debug, Default)]
pub struct WriterLog {
    /// Time inside `submit`/`submit_batch`.
    pub submit: Duration,
    /// Time inside `advance_time`.
    pub advance: Duration,
    /// Per-epoch layer accounting (`process_epoch` wall time included).
    pub epochs: Vec<EpochLayers>,
    /// Writer-lane spans, when traced.
    pub tracer: Option<Tracer>,
}

impl WriterLog {
    /// Total time the writer spent inside the engine.
    pub fn busy(&self) -> Duration {
        self.submit
            + self.advance
            + self.epochs.iter().map(|e| Duration::from_nanos(e.process_ns)).sum::<Duration>()
    }
}

/// A timing decorator around the engine a server owns. Every call is
/// forwarded unchanged; the log is handed back through `out` when the
/// server finishes the engine. `done` holds the last tick the writer
/// has finished: its `advance_time`, and at an epoch boundary its
/// `process_epoch` too.
pub struct TimedEngine {
    inner: Box<dyn Engine>,
    log: WriterLog,
    last: ProcessingStats,
    clock: u64,
    done: Arc<AtomicU64>,
    out: Arc<Mutex<Option<WriterLog>>>,
}

impl TimedEngine {
    /// Wraps `inner`; `trace` starts a writer-lane span log from that
    /// origin.
    pub fn new(
        inner: Box<dyn Engine>,
        trace: Option<Instant>,
        out: Arc<Mutex<Option<WriterLog>>>,
    ) -> Self {
        let log = WriterLog { tracer: trace.map(|o| Tracer::new(o, 2)), ..WriterLog::default() };
        let done = Arc::new(AtomicU64::new(0));
        TimedEngine { inner, log, last: ProcessingStats::default(), clock: 0, done, out }
    }

    /// The last tick the writer has finished.
    pub fn done(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.done)
    }

    fn span(
        &mut self,
        name: &'static str,
        tick: u64,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        self.log.tracer.as_mut().map(|tr| tr.span(name, tick, None, start, end))
    }
}

impl Engine for TimedEngine {
    fn kind(&self) -> EngineKind {
        self.inner.kind()
    }

    fn config(&self) -> &Config {
        self.inner.config()
    }

    fn submit(&mut self, state: ClientState) {
        let start = Instant::now();
        self.inner.submit(state);
        self.log.submit += start.elapsed();
    }

    fn submit_batch(&mut self, states: &mut dyn Iterator<Item = ClientState>) {
        let start = Instant::now();
        self.inner.submit_batch(states);
        let end = Instant::now();
        self.log.submit += end - start;
        // States submitted now belong to the next tick.
        self.span("coordinator.submit", self.clock + 1, start, end);
    }

    fn pending_len(&self) -> usize {
        self.inner.pending_len()
    }

    fn advance_time(&mut self, now: Timestamp) {
        let start = Instant::now();
        self.inner.advance_time(now);
        let end = Instant::now();
        self.log.advance += end - start;
        self.clock = now.0;
        self.span("hotness.advance", now.0, start, end);
        if !self.inner.config().epochs.is_epoch(now) {
            self.done.store(now.0, Ordering::Release);
        }
    }

    fn process_epoch(&mut self, now: Timestamp) -> Vec<EndpointResponse> {
        let start = Instant::now();
        let responses = self.inner.process_epoch(now);
        let end = Instant::now();
        let snap = self.inner.snapshot();
        // The sync backend's snapshot counters stop just before the
        // publish stage, so `publish_time` lags one epoch here.
        let layers = EpochLayers::measure(end - start, &self.last, &snap.processing, &snap, None);
        self.last = snap.processing;
        if let Some(epoch) = self.span("coordinator.process_epoch", now.0, start, end) {
            let tr = self.log.tracer.as_mut().expect("span recorded");
            let (s, dur) = tr.interval(epoch);
            tr.counted_span("strategy.phase_a", now.0, epoch, s, layers.phase_a_ns());
            tr.counted_span(
                "strategy.phase_b",
                now.0,
                epoch,
                s + layers.phase_a_ns(),
                layers.phase_b_wall_ns,
            );
            tr.counted_span(
                "strategy.publish",
                now.0,
                epoch,
                (s + dur).saturating_sub(layers.publish_ns),
                layers.publish_ns,
            );
            tr.counter("index.size", now.0, end, snap.index_size as f64);
            tr.counter("strategy.deferred", now.0, end, layers.deferred as f64);
        }
        self.log.epochs.push(layers);
        self.done.store(now.0, Ordering::Release);
        responses
    }

    fn snapshot(&mut self) -> Arc<HotSnapshot> {
        self.inner.snapshot()
    }

    fn attach_cell(&mut self, cell: Arc<SnapshotCell>) {
        self.inner.attach_cell(cell);
    }

    fn checkpoint(&mut self) -> Checkpoint {
        self.inner.checkpoint()
    }

    fn restore(&mut self, ck: &Checkpoint) -> Result<(), CheckpointError> {
        self.inner.restore(ck)
    }

    fn finish(self: Box<Self>) -> Coordinator {
        let TimedEngine { inner, log, out, .. } = *self;
        *out.lock().expect("writer log mutex poisoned") = Some(log);
        inner.finish()
    }
}

/// The open-loop schedule.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    /// Interval between tick due times.
    pub tick: Duration,
    /// Interval between `QUERY` polls while waiting for the next tick.
    pub poll: Duration,
    /// Give up waiting for the final epoch after this long.
    pub drain_timeout: Duration,
}

/// One completed open-loop replay.
#[derive(Debug)]
pub struct ReplayRun {
    /// `Hotpathd::spawn` + `serve_unix` + connect (engine build included).
    pub setup: Duration,
    /// First tick due → final epoch visible.
    pub replay: Duration,
    /// Boundary tick due → a `QUERY` returned that epoch, ms.
    pub visible_ms: Vec<f64>,
    /// Tick due → last `SUBMIT_BATCH` ack of the tick, µs.
    pub ack_us: Vec<f64>,
    /// `QUERY` round trips, µs.
    pub query_us: Vec<f64>,
    /// Lock-free `SnapshotHandle::read` between ticks, ns (burst mean).
    pub read_ns: Vec<f64>,
    /// How late each tick's sends started, ms.
    pub late_ms: Vec<f64>,
    /// The host reference workload, timed while the server was idle
    /// (at most once per tick), µs.
    pub reference_us: Vec<f64>,
    /// Largest count of boundaries sent but not yet processed.
    pub backlog_max: u64,
    /// Requests sent (submit frames, advances, queries) plus states sent.
    pub attempted: u64,
    /// States not acknowledged plus requests that failed.
    pub failed: u64,
    /// The driving thread's wall time, set-up end to drain end (the
    /// interval its spans account for).
    pub client_wall: Duration,
    /// Fingerprint of the final published snapshot.
    pub fingerprint: u64,
    /// The final published snapshot.
    pub final_snapshot: Arc<HotSnapshot>,
    /// What the writer thread did.
    pub writer: WriterLog,
    /// Client-lane spans, when traced.
    pub tracer: Option<Tracer>,
}

impl ReplayRun {
    /// How much slower than nominal the host ran during the replay:
    /// median idle-moment reference time over its nominal time; `None`
    /// with fewer than [`MIN_PROBES`] probes.
    pub fn slowdown(&self) -> Option<f64> {
        (self.reference_us.len() >= MIN_PROBES)
            .then(|| median(&self.reference_us) / (REFERENCE_NOMINAL.as_secs_f64() * 1e6))
    }
}

/// Fewest idle-moment probes a replay's slowdown is taken from.
pub const MIN_PROBES: usize = 16;

/// Times one served set-up — engine build, `Hotpathd::spawn`,
/// `serve_unix` and connect — and tears it down again.
pub fn time_setup(config: Config, socket: &Path) -> io::Result<Duration> {
    let start = Instant::now();
    let engine = EngineKind::Sync.build(Coordinator::new(config));
    let out = Arc::new(Mutex::new(None));
    let handle = Hotpathd::spawn(Box::new(TimedEngine::new(engine, None, out)));
    let server = serve_unix(&handle, socket)?;
    let client = UnixClient::connect(socket)?;
    let setup = start.elapsed();
    drop(client);
    server.stop();
    handle.shutdown();
    Ok(setup)
}

/// Replays `stream` (index = tick; tick 0 unused) open loop against a
/// fresh in-process `hotpathd` serving `config` on a unix socket at
/// `socket`.
pub fn replay(
    stream: &[Vec<ClientState>],
    config: Config,
    schedule: Schedule,
    socket: &Path,
    trace: Option<Instant>,
) -> io::Result<ReplayRun> {
    let ticks = stream.len().saturating_sub(1) as u64;
    let epochs = config.epochs;
    let total_epochs = epochs.epoch_index(Timestamp(ticks));
    let log_out = Arc::new(Mutex::new(None));

    let setup_start = Instant::now();
    let engine = EngineKind::Sync.build(Coordinator::new(config));
    let timed = TimedEngine::new(engine, trace, Arc::clone(&log_out));
    let done = timed.done();
    let handle = Hotpathd::spawn(Box::new(timed));
    let server = serve_unix(&handle, socket)?;
    let mut client = UnixClient::connect(socket)?;
    let mut reader = handle.reader();
    let setup = setup_start.elapsed();

    let client_start = Instant::now();
    let mut tracer = trace.map(|o| Tracer::new(o, 1));
    let mut run = ReplayRun {
        setup,
        replay: Duration::ZERO,
        visible_ms: Vec::new(),
        ack_us: Vec::new(),
        query_us: Vec::new(),
        read_ns: Vec::new(),
        late_ms: Vec::new(),
        reference_us: Vec::new(),
        backlog_max: 0,
        attempted: 0,
        failed: 0,
        client_wall: Duration::ZERO,
        fingerprint: 0,
        final_snapshot: Arc::new(HotSnapshot::empty()),
        writer: WriterLog::default(),
        tracer: None,
    };
    let mut boundary_due: Vec<Instant> = Vec::new();
    let mut last_visible = Instant::now();

    // One poll: a QUERY round trip, then a burst of lock-free reads.
    let mut poll = |client: &mut UnixClient,
                    run: &mut ReplayRun,
                    boundary_due: &[Instant],
                    tracer: &mut Option<Tracer>,
                    tick: u64|
     -> io::Result<Instant> {
        let start = Instant::now();
        run.attempted += 1;
        let snap = client.query().inspect_err(|_| run.failed += 1)?;
        let end = Instant::now();
        run.query_us.push((end - start).as_secs_f64() * 1e6);
        while (run.visible_ms.len() as u64) < snap.epoch.min(boundary_due.len() as u64) {
            let due = boundary_due[run.visible_ms.len()];
            run.visible_ms.push((end - due).as_secs_f64() * 1e3);
            last_visible = end;
        }
        for _ in 0..READ_BURST {
            black_box(reader.read().epoch);
        }
        let read_end = Instant::now();
        run.read_ns.push((read_end - end).as_nanos() as f64 / f64::from(READ_BURST));
        let backlog = (boundary_due.len() as u64).saturating_sub(handle.stats().epochs);
        run.backlog_max = run.backlog_max.max(backlog);
        if let Some(tr) = tracer.as_mut() {
            tr.span("wire.query", tick, None, start, end);
            tr.span("snapshot.read", tick, None, end, read_end);
        }
        Ok(read_end)
    };

    let t0 = Instant::now() + schedule.tick;
    let mut next_poll = t0;
    for t in 1..=ticks {
        let due = t0 + schedule.tick * (t - 1) as u32;
        let mut probed = false;
        // Poll between ticks at the bounded rate until the tick is due.
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            if now >= next_poll {
                // Read before the poll, so an epoch the writer finished
                // is already recorded as visible when the probe runs.
                let idle = done.load(Ordering::Acquire) == t - 1;
                let mut end = poll(&mut client, &mut run, &boundary_due, &mut tracer, t - 1)?;
                if idle && !probed && due.saturating_duration_since(end) >= SERVED_REFERENCE_ROOM {
                    probed = true;
                    run.reference_us.push(time_reference().as_secs_f64() * 1e6);
                    let probe_end = Instant::now();
                    if let Some(tr) = tracer.as_mut() {
                        tr.span("host.reference", t - 1, None, end, probe_end);
                    }
                    end = probe_end;
                }
                // A slow poll delays the next one rather than bunching
                // polls up: the rate stays bounded.
                next_poll = (next_poll + schedule.poll).max(end);
                continue;
            }
            let wake = next_poll.min(due);
            let sleep_start = Instant::now();
            std::thread::sleep(wake - now);
            if let Some(tr) = tracer.as_mut() {
                tr.span("replay.wait", t - 1, None, sleep_start, Instant::now());
            }
        }
        let start = Instant::now();
        run.late_ms.push((start - due).as_secs_f64() * 1e3);
        let states = &stream[t as usize];
        for chunk in states.chunks(MAX_BATCH) {
            run.attempted += 1 + chunk.len() as u64;
            let acked = client.submit_batch(chunk).inspect_err(|_| run.failed += 1)?;
            run.failed += (chunk.len() as u64).saturating_sub(u64::from(acked));
        }
        let acked = Instant::now();
        if !states.is_empty() {
            run.ack_us.push((acked - due).as_secs_f64() * 1e6);
        }
        run.attempted += 1;
        client.advance(Timestamp(t)).inspect_err(|_| run.failed += 1)?;
        let advanced = Instant::now();
        if epochs.is_epoch(Timestamp(t)) {
            boundary_due.push(due);
        }
        if let Some(tr) = tracer.as_mut() {
            tr.span("wire.submit", t, None, start, acked);
            tr.span("wire.advance", t, None, acked, advanced);
        }
        next_poll = next_poll.max(advanced);
    }
    // Drain: keep polling until the last epoch is visible.
    let drain_deadline = Instant::now() + schedule.drain_timeout;
    while (run.visible_ms.len() as u64) < total_epochs {
        if Instant::now() > drain_deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!(
                    "only {} of {total_epochs} epochs visible after the drain timeout",
                    run.visible_ms.len()
                ),
            ));
        }
        let end = poll(&mut client, &mut run, &boundary_due, &mut tracer, ticks)?;
        let wake = end + schedule.poll;
        let now = Instant::now();
        if wake > now {
            std::thread::sleep(wake - now);
        }
    }
    run.replay = last_visible - t0;
    run.client_wall = client_start.elapsed();

    drop(client);
    server.stop();
    let snap = handle.shutdown();
    run.fingerprint = snapshot_fingerprint(&snap);
    run.final_snapshot = snap;
    run.writer = log_out.lock().expect("writer log mutex poisoned").take().unwrap_or_default();
    if let (Some(mut tr), Some(writer)) = (tracer, run.writer.tracer.take()) {
        tr.absorb(writer);
        run.tracer = Some(tr);
    }
    Ok(run)
}
