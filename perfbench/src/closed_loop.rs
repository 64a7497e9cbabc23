//! The in-process closed-loop driver: a scenario's tick stream feeds one
//! `RayTraceFilter` per object, escaping states go to a `Coordinator`,
//! and at every epoch boundary the endpoint responses go straight back
//! to the filters before the next tick starts — the paper's Section 3.2
//! protocol with no network in between.
//!
//! The driver makes the same calls, in the same order, as the
//! production scenario driver (`hotpath_sim::scenario_run`); the
//! parity tests pin that. Around each call it takes a timestamp, so a
//! replay yields the end-to-end latencies, and with a tracer attached
//! one span per layer boundary per tick.

use std::hint::black_box;
use std::time::{Duration, Instant};

use hotpath_core::coordinator::{Coordinator, HotSnapshot};
use hotpath_core::raytrace::{ClientState, FilterStats, RayTraceFilter};
use hotpath_core::session::SessionTransition;
use hotpath_core::snapshot::SnapshotCell;
use hotpath_core::time::Timestamp;
use hotpath_core::ObjectId;
use hotpath_netsim::scenario::{build, EpochSample, ScenarioOutcome, ScenarioParams};
use hotpath_serve::swarm::snapshot_fingerprint;
use hotpath_serve::wire::SnapshotWire;
use hotpath_sim::scenario_run::ScenarioRunParams;

use crate::host::{time_reference, REFERENCE_NOMINAL};
use crate::layers::EpochLayers;
use crate::stats::median;
use crate::trace::Tracer;

/// Queries timed together per tick (one sample is their mean).
pub const QUERY_BURST: u32 = 16;
/// Snapshot reads timed together per sample.
pub const READ_BURST: u32 = 32;

/// What to record besides the timings every replay takes.
#[derive(Clone, Copy, Debug, Default)]
pub struct LoopOptions {
    /// Keep every tick's submitted client states (resubmissions of the
    /// previous boundary first), for an open-loop replay elsewhere.
    pub record_stream: bool,
    /// Record spans and counters, timestamped from this origin.
    pub trace: Option<Instant>,
    /// Extra times to repeat the set-up before the replay (each repeat
    /// is built, timed and dropped), so a run can report a median.
    pub extra_setups: usize,
}

/// One completed closed-loop replay.
pub struct LoopRun {
    /// Building the filters, the coordinator and the read cell: every
    /// repeat, the one the replay used last.
    pub setups: Vec<Duration>,
    /// Time inside `Scenario::tick` (the generator; excluded from every
    /// end-to-end metric).
    pub generator: Duration,
    /// Wall time of the whole tick loop.
    pub wall: Duration,
    /// Replay wall time minus generator and reference-workload time.
    pub replay: Duration,
    /// The host reference workload timed at every epoch boundary, µs.
    pub reference_us: Vec<f64>,
    /// Time inside `submit_batch`, `advance_time` and `process_epoch`.
    pub engine_busy: Duration,
    /// `process_epoch` latency per epoch, ms.
    pub epoch_ms: Vec<f64>,
    /// Boundary tick due → epoch readable through the snapshot cell, ms.
    pub visible_ms: Vec<f64>,
    /// Tick due → the tick's states accepted by `submit_batch`, µs.
    pub ack_us: Vec<f64>,
    /// One snapshot query (read + wire projection), µs; one sample per
    /// tick, the mean of a burst.
    pub query_us: Vec<f64>,
    /// One lock-free snapshot read, ns; one sample per tick.
    pub read_ns: Vec<f64>,
    /// Per-epoch layer accounting.
    pub epochs: Vec<EpochLayers>,
    /// What the scenario's invariant hook sees.
    pub outcome: ScenarioOutcome,
    /// The scenario's verdict on its invariants.
    pub invariants: Result<(), String>,
    /// Aggregate client-filter statistics.
    pub filter_stats: FilterStats,
    /// Fingerprint of the last published snapshot.
    pub fingerprint: u64,
    /// The final coordinator.
    pub coordinator: Coordinator,
    /// Per-tick submitted states (index = tick), when recorded.
    pub stream: Vec<Vec<ClientState>>,
    /// Spans and counters, when traced.
    pub tracer: Option<Tracer>,
}

impl LoopRun {
    /// How much slower than nominal the host ran during the replay: the
    /// median reference-workload time over its nominal time.
    pub fn slowdown(&self) -> f64 {
        median(&self.reference_us) / (REFERENCE_NOMINAL.as_secs_f64() * 1e6)
    }

    /// Checks the run: coordinator consistency and the scenario's own
    /// invariants.
    pub fn check(&self) -> Result<(), String> {
        self.coordinator
            .check_consistency()
            .map_err(|e| format!("coordinator inconsistent: {e}"))?;
        self.invariants.clone().map_err(|e| format!("scenario invariant failed: {e}"))
    }
}

/// Folds one published snapshot into the invariant hook's per-epoch
/// observation, exactly as the production driver does.
struct SampleLog {
    samples: Vec<EpochSample>,
    connects: u64,
    reconnects: u64,
    ejections: u64,
}

impl SampleLog {
    fn push(&mut self, snap: &HotSnapshot) {
        for ev in snap.session_events.iter() {
            match ev.transition {
                SessionTransition::Connected => self.connects += 1,
                SessionTransition::Reconnected => self.reconnects += 1,
                SessionTransition::Ejected => self.ejections += 1,
                SessionTransition::Dropped => {}
            }
        }
        self.samples.push(EpochSample {
            timestamp: snap.timestamp,
            index_size: snap.index_size,
            top_k_score: snap.top_k_score,
            top_ids: snap.top_k.iter().map(|h| h.path.id.0).collect(),
            top_hotness: snap.top_k.first().map(|h| h.hotness),
            sessions_healthy: snap.sessions_healthy,
            sessions_dropped: snap.sessions_dropped,
            session_connects: self.connects,
            session_reconnects: self.reconnects,
            session_ejections: self.ejections,
            turned_away: snap.admission.turned_away(),
            degraded_epochs: snap.admission.degraded_epochs,
            phase_b_workers: snap.phase_b.workers,
            phase_b_deferred: snap.phase_b.deferred,
            phase_b_stolen: snap.phase_b.stolen,
            phase_b_imbalance: snap.phase_b.imbalance,
        });
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs scenario `name` at `scale` through the closed loop once.
///
/// Only fault-free scenarios without a robustness hint are accepted:
/// the driver executes no faults and no client give-up, so a scenario
/// that needs them would silently diverge from the production driver.
pub fn run_closed_loop(
    name: &str,
    scale: &ScenarioParams,
    params: &ScenarioRunParams,
    opts: LoopOptions,
) -> Result<LoopRun, String> {
    assert!(params.sigma == 0.0, "the closed loop drives crisp filters only");
    // Input generation (network, population): not part of set-up.
    let mut scenario = build(name, scale).ok_or_else(|| format!("unknown scenario {name}"))?;
    if !scenario.fault_windows().is_empty() || scenario.robustness_hint().is_some() {
        return Err(format!("{name}: fault or robustness scenarios are not supported"));
    }
    let config = params.config(&*scenario);
    let n = scenario.n();
    let seeds: Vec<_> =
        (0..n).map(|i| scenario.seed_timepoint(ObjectId(i as u64), Timestamp(0))).collect();

    let set_up = || {
        let start = Instant::now();
        let filters: Vec<RayTraceFilter> = seeds
            .iter()
            .enumerate()
            .map(|(i, &tp)| RayTraceFilter::new(ObjectId(i as u64), tp, params.eps))
            .collect();
        let coord = Coordinator::new(config);
        let cell = SnapshotCell::new();
        cell.publish(coord.snapshot());
        let reader = cell.register();
        (start.elapsed(), filters, coord, cell, reader)
    };
    let mut setups = Vec::with_capacity(opts.extra_setups + 1);
    for _ in 0..opts.extra_setups {
        setups.push(black_box(set_up()).0);
    }
    let (setup, mut filters, mut coord, cell, mut reader) = set_up();
    setups.push(setup);

    let duration = scenario.duration();
    let epochs = config.epochs;
    let mut tracer = opts.trace.map(|origin| Tracer::new(origin, 1));
    let mut batch = Vec::new();
    let mut states: Vec<ClientState> = Vec::new();
    let mut resubmit: Vec<ClientState> = Vec::new();
    let mut stream: Vec<Vec<ClientState>> = Vec::new();
    if opts.record_stream {
        stream.resize(duration as usize + 2, Vec::new());
    }
    let mut log = SampleLog { samples: Vec::new(), connects: 0, reconnects: 0, ejections: 0 };
    let mut run_epochs = Vec::new();
    let (mut epoch_ms, mut visible_ms, mut ack_us, mut query_us, mut read_ns) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut generator = Duration::ZERO;
    let mut reference = Duration::ZERO;
    let mut reference_us = Vec::new();
    let mut engine_busy = Duration::ZERO;
    let mut measurements = 0u64;
    let mut fingerprint = snapshot_fingerprint(&coord.snapshot());

    let loop_start = Instant::now();
    for t in 1..=duration {
        let now = Timestamp(t);
        let tick_span = tracer.as_mut().map(|tr| tr.open("replay.tick", t));
        let gen_start = Instant::now();
        scenario.tick(now, &mut batch);
        // The tick is due once its measurements exist.
        let due = Instant::now();
        generator += due - gen_start;
        measurements += batch.len() as u64;

        for m in &batch {
            if let Some(s) = filters[m.object.0 as usize].observe(m.observed) {
                states.push(s);
            }
        }
        let observed = Instant::now();
        if opts.record_stream {
            stream[t as usize].extend_from_slice(&states);
        }
        coord.submit_batch(states.drain(..));
        let submitted = Instant::now();
        coord.advance_time(now);
        let advanced = Instant::now();
        ack_us.push(us(submitted - due));
        engine_busy += advanced - observed;
        let mut end = advanced;

        if let (Some(tr), Some(tick)) = (tracer.as_mut(), tick_span) {
            tr.span("netsim.tick", t, Some(tick), gen_start, due);
            tr.span("raytrace.observe", t, Some(tick), due, observed);
            tr.span("coordinator.submit", t, Some(tick), observed, submitted);
            tr.span("hotness.advance", t, Some(tick), submitted, advanced);
        }

        if epochs.is_epoch(now) {
            let before = *coord.processing_stats();
            let responses = coord.process_epoch(now);
            let processed = Instant::now();
            let snap = coord.snapshot();
            cell.publish(snap.clone());
            let published = Instant::now();
            for r in &responses {
                if let Some(s) = filters[r.object.0 as usize].receive_endpoint(r.endpoint) {
                    resubmit.push(s);
                }
            }
            let received = Instant::now();
            if opts.record_stream {
                stream[t as usize + 1].extend_from_slice(&resubmit);
            }
            coord.submit_batch(resubmit.drain(..));
            let resubmitted = Instant::now();

            let process = processed - advanced;
            engine_busy += process + (resubmitted - received);
            epoch_ms.push(ms(process));
            visible_ms.push(ms(published - due));
            let pending = coord.pending_expiry_events();
            let layers = EpochLayers::measure(
                process,
                &before,
                coord.processing_stats(),
                &snap,
                Some(pending),
            );
            if let (Some(tr), Some(tick)) = (tracer.as_mut(), tick_span) {
                let epoch =
                    tr.span("coordinator.process_epoch", t, Some(tick), advanced, processed);
                let (start, dur) = tr.interval(epoch);
                tr.counted_span("strategy.phase_a", t, epoch, start, layers.phase_a_ns());
                tr.counted_span(
                    "strategy.phase_b",
                    t,
                    epoch,
                    start + layers.phase_a_ns(),
                    layers.phase_b_wall_ns,
                );
                tr.counted_span(
                    "strategy.publish",
                    t,
                    epoch,
                    (start + dur).saturating_sub(layers.publish_ns),
                    layers.publish_ns,
                );
                tr.span("snapshot.publish", t, Some(tick), processed, published);
                tr.span("raytrace.receive", t, Some(tick), published, received);
                tr.span("coordinator.submit", t, Some(tick), received, resubmitted);
                tr.counter("index.size", t, processed, snap.index_size as f64);
                tr.counter("hotness.pending_events", t, processed, pending as f64);
                tr.counter("strategy.deferred", t, processed, layers.deferred as f64);
            }
            run_epochs.push(layers);
            fingerprint = snapshot_fingerprint(&snap);
            log.push(&snap);

            // The host's speed at this moment, outside every timed span.
            let ref_start = Instant::now();
            let took = time_reference();
            end = Instant::now();
            reference += end - ref_start;
            reference_us.push(took.as_secs_f64() * 1e6);
            if let (Some(tr), Some(tick)) = (tracer.as_mut(), tick_span) {
                tr.span("host.reference", t, Some(tick), ref_start, end);
            }
        }

        // A reader's view between ticks: lock-free reads and queries
        // (read + the wire projection a QUERY serves).
        let q_start = Instant::now();
        for _ in 0..QUERY_BURST {
            black_box(SnapshotWire::from_snapshot(&reader.read()));
        }
        let q_end = Instant::now();
        for _ in 0..READ_BURST {
            black_box(reader.read().epoch);
        }
        let r_end = Instant::now();
        query_us.push(us(q_end - q_start) / f64::from(QUERY_BURST));
        read_ns.push((r_end - q_end).as_nanos() as f64 / f64::from(READ_BURST));
        if let (Some(tr), Some(tick)) = (tracer.as_mut(), tick_span) {
            tr.span("snapshot.query", t, Some(tick), end, r_end);
            tr.close(tick, gen_start, r_end);
        }
    }
    let wall = loop_start.elapsed();

    let mut filter_stats = FilterStats::default();
    for f in &filters {
        filter_stats.merge(&f.stats());
    }
    let outcome = ScenarioOutcome {
        per_epoch: log.samples,
        final_top_k: coord.top_k().iter().map(|h| (h.path.id.0, h.hotness)).collect(),
        measurements,
        reports: filter_stats.reports,
    };
    let invariants = scenario.check_invariants(&outcome);
    Ok(LoopRun {
        setups,
        generator,
        wall,
        replay: wall.saturating_sub(generator + reference),
        reference_us,
        engine_busy,
        epoch_ms,
        visible_ms,
        ack_us,
        query_us,
        read_ns,
        epochs: run_epochs,
        outcome,
        invariants,
        filter_stats,
        fingerprint,
        coordinator: coord,
        stream,
        tracer,
    })
}
