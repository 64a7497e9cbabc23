//! From replays to the reported figures: the end-to-end metrics (untraced
//! replays only) and the per-layer metrics (traced replays).
//!
//! Latency samples are pooled over a run's replays. The tails are fixed
//! percentiles (see [`EPOCH_TAIL`], [`TICK_TAIL`]); the provenance line
//! records the sample count behind each.

use crate::closed_loop::LoopRun;
use crate::layers::EpochLayers;
use crate::served::ReplayRun;
use crate::stats::{mean, median, percentile};
use crate::trace::Tracer;

/// Tail percentile of the once-per-epoch samples (`epoch`, `visible`).
/// At the benchmark's run length a run pools at least 200 of them, so
/// at least 20 lie beyond it. It also sits clear of the two knees of the
/// served distribution — its two retarget epochs per replay (4% of
/// epochs) and the backlog they leave (16–22%) — where a percentile
/// would flip between regimes from run to run.
pub const EPOCH_TAIL: f64 = 90.0;
/// Percentile reported as the typical visibility latency. On `served`
/// the epochs fall into phases: quiet ones (≈46% of epochs, ≤ 15 ms),
/// the hot phase after the fleet retargets (≈30%, 25–50 ms) and the
/// backlog drains (≈24%, 100–650 ms). A median sits at the quiet/hot
/// knee, 4% of the epochs above it, and flipped between 13 and 27 ms
/// from run to run; p60 sits in the middle of the hot phase.
pub const VISIBLE_TYPICAL: f64 = 60.0;
/// Tail percentile of the once-per-tick samples (`ack`, `query`); at
/// least 1000 per run, so at least 10 beyond.
pub const TICK_TAIL: f64 = 99.0;

/// One reported figure.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// One untraced replay, reduced to what the end-to-end metrics need.
#[derive(Clone, Debug, Default)]
pub struct Sample {
    /// Replay wall time with the generator excluded, s.
    ///
    /// This and every other timing of a closed-loop sample is divided by
    /// the replay's host slowdown.
    pub replay_s: f64,
    /// States processed per second of engine time.
    pub states_per_s: f64,
    /// `process_epoch` latencies, ms.
    pub epoch_ms: Vec<f64>,
    /// Boundary due → epoch visible, ms.
    pub visible_ms: Vec<f64>,
    /// Tick due → states accepted, µs.
    pub ack_us: Vec<f64>,
    /// Snapshot query latencies, µs.
    pub query_us: Vec<f64>,
    /// Uplink messages per 1000 measurements.
    pub uplink_per_kmeas: f64,
    /// Mean top-k score over epochs.
    pub top_k_score: f64,
    /// Host slowdown the timings were divided by.
    pub slowdown: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed or refused.
    pub failed: u64,
}

fn states(epochs: &[EpochLayers]) -> u64 {
    epochs.iter().map(|e| e.states).sum()
}

fn mean_score(epochs: &[EpochLayers]) -> f64 {
    mean(&epochs.iter().map(|e| e.top_k_score).collect::<Vec<_>>())
}

impl Sample {
    /// Reduces a closed-loop replay, its timings normalized to the
    /// nominal host speed (divided by [`LoopRun::slowdown`]): the
    /// replay is single-threaded CPU work, and on a shared host its wall
    /// time swings with the host's speed far more than with the code.
    pub fn from_loop(run: &LoopRun) -> Sample {
        let processed = states(&run.epochs);
        let comm = run.coordinator.comm_stats();
        let turned_away = run.coordinator.admission_stats().turned_away();
        let slowdown = run.slowdown();
        let norm = |v: &[f64]| v.iter().map(|x| x / slowdown).collect::<Vec<_>>();
        Sample {
            replay_s: run.replay.as_secs_f64() / slowdown,
            states_per_s: slowdown * processed as f64 / run.engine_busy.as_secs_f64(),
            epoch_ms: norm(&run.epoch_ms),
            visible_ms: norm(&run.visible_ms),
            ack_us: norm(&run.ack_us),
            query_us: norm(&run.query_us),
            uplink_per_kmeas: 1e3 * comm.uplink_msgs as f64 / run.outcome.measurements as f64,
            top_k_score: mean_score(&run.epochs),
            slowdown,
            attempted: comm.uplink_msgs + run.epochs.len() as u64 + run.query_us.len() as u64,
            failed: turned_away,
        }
    }

    /// Reduces a served replay of a stream recorded from `measurements`
    /// raw measurements, its timings divided by `slowdown` like a closed
    /// loop's — except `replay_s`, which the tick schedule sets.
    /// `slowdown` is the replay's own ([`ReplayRun::slowdown`]), probed
    /// while the server was idle, so the server's threads cannot
    /// inflate it.
    pub fn from_replay(run: &ReplayRun, measurements: u64, slowdown: f64) -> Sample {
        let snap = &run.final_snapshot;
        let norm = |v: &[f64]| v.iter().map(|x| x / slowdown).collect::<Vec<_>>();
        let epoch_ms: Vec<f64> =
            run.writer.epochs.iter().map(|e| e.process_ns as f64 * 1e-6).collect();
        Sample {
            replay_s: run.replay.as_secs_f64(),
            states_per_s: slowdown * states(&run.writer.epochs) as f64
                / run.writer.busy().as_secs_f64(),
            epoch_ms: norm(&epoch_ms),
            visible_ms: norm(&run.visible_ms),
            ack_us: norm(&run.ack_us),
            query_us: norm(&run.query_us),
            uplink_per_kmeas: 1e3 * snap.comm.uplink_msgs as f64 / measurements as f64,
            top_k_score: mean_score(&run.writer.epochs),
            slowdown,
            attempted: run.attempted,
            failed: run.failed + snap.admission.turned_away(),
        }
    }
}

fn pooled(samples: &[Sample], f: impl Fn(&Sample) -> &Vec<f64>) -> Vec<f64> {
    samples.iter().flat_map(|s| f(s).iter().copied()).collect()
}

fn med(samples: &[Sample], f: impl Fn(&Sample) -> f64) -> f64 {
    median(&samples.iter().map(f).collect::<Vec<_>>())
}

/// The pooled latency samples of a run, by family.
struct Pooled {
    epoch: Vec<f64>,
    visible: Vec<f64>,
    ack: Vec<f64>,
    query: Vec<f64>,
}

impl Pooled {
    fn of(samples: &[Sample]) -> Pooled {
        Pooled {
            epoch: pooled(samples, |s| &s.epoch_ms),
            visible: pooled(samples, |s| &s.visible_ms),
            ack: pooled(samples, |s| &s.ack_us),
            query: pooled(samples, |s| &s.query_us),
        }
    }
}

/// Per latency family: `(family, pooled sample count, tail percentile)`.
pub fn tail_support(samples: &[Sample]) -> Vec<(&'static str, usize, f64)> {
    let p = Pooled::of(samples);
    vec![
        ("epoch", p.epoch.len(), EPOCH_TAIL),
        ("visible", p.visible.len(), EPOCH_TAIL),
        ("ack", p.ack.len(), TICK_TAIL),
        ("query", p.query.len(), TICK_TAIL),
    ]
}

/// The end-to-end metrics over a run's untraced replays: per-replay
/// figures as medians over replays, latencies as the median and tail of
/// the pooled samples.
pub fn end_to_end(samples: &[Sample], setups_s: &[f64], peak_rss_mb: f64) -> Vec<Metric> {
    let p = Pooled::of(samples);
    vec![
        metric("replay_s", med(samples, |s| s.replay_s), "s"),
        metric("states_per_s", med(samples, |s| s.states_per_s), "1/s"),
        metric("epoch_p50_ms", percentile(&p.epoch, 50.0), "ms"),
        metric("epoch_tail_ms", percentile(&p.epoch, EPOCH_TAIL), "ms"),
        metric("visible_p60_ms", percentile(&p.visible, VISIBLE_TYPICAL), "ms"),
        metric("visible_tail_ms", percentile(&p.visible, EPOCH_TAIL), "ms"),
        metric("ack_p50_us", percentile(&p.ack, 50.0), "us"),
        metric("query_p50_us", percentile(&p.query, 50.0), "us"),
        metric("uplink_per_kmeas", med(samples, |s| s.uplink_per_kmeas), "count"),
        metric("top_k_score", med(samples, |s| s.top_k_score), "score"),
        metric("setup_s", median(setups_s), "s"),
        metric("peak_rss_mb", peak_rss_mb, "MiB"),
    ]
}

/// Tails of the ack and query latencies of a run's untraced replays.
/// On the served workload they are set by how the host schedules the
/// client and connection threads while Phase B saturates its cores, and
/// vary several-fold between runs, so they are reported per layer (with
/// no bound) rather than as end-to-end metrics.
pub fn ingest_tails(samples: &[Sample]) -> Vec<Metric> {
    let p = Pooled::of(samples);
    vec![
        metric("serve.ack_tail_us", percentile(&p.ack, TICK_TAIL), "us"),
        metric("serve.query_tail_us", percentile(&p.query, TICK_TAIL), "us"),
    ]
}

/// Strategy-layer figures from per-epoch accounting.
fn strategy_layers(epochs: &[EpochLayers]) -> Vec<Metric> {
    let sum = |f: fn(&EpochLayers) -> u64| epochs.iter().map(f).sum::<u64>();
    let secs = |ns: u64| ns as f64 * 1e-9;
    let (case1, case2, case3) = (sum(|e| e.case1), sum(|e| e.case2), sum(|e| e.case3));
    let deferred = sum(|e| e.deferred);
    let busy = sum(|e| e.phase_b_busy_ns);
    let imbalance: Vec<f64> =
        epochs.iter().filter(|e| e.deferred > 0).map(|e| e.imbalance).collect();
    vec![
        metric("coordinator.epoch_other_s", secs(sum(|e| e.other_ns())), "s"),
        metric(
            "index.size_mean",
            mean(&epochs.iter().map(|e| e.index_size as f64).collect::<Vec<_>>()),
            "count",
        ),
        metric("strategy.busy_s", secs(sum(|e| e.strategy_ns)), "s"),
        metric("strategy.phase_b_busy_s", secs(busy), "s"),
        metric(
            "strategy.phase_b_ns_per_deferred",
            if deferred == 0 { 0.0 } else { busy as f64 / deferred as f64 },
            "ns",
        ),
        metric("strategy.phase_a_s", secs(sum(|e| e.phase_a_ns())), "s"),
        metric("strategy.deferred", deferred as f64, "count"),
        metric("strategy.case2", case2 as f64, "count"),
        metric("strategy.case3", case3 as f64, "count"),
        metric(
            "strategy.reuse_ratio",
            case1 as f64 / (case1 + case2 + case3).max(1) as f64,
            "ratio",
        ),
        metric(
            "strategy.phase_b_imbalance_mean",
            if imbalance.is_empty() { 1.0 } else { mean(&imbalance) },
            "ratio",
        ),
        metric("strategy.phase_b_stolen", sum(|e| e.stolen) as f64, "count"),
        metric("strategy.publish_s", secs(sum(|e| e.publish_ns)), "s"),
        metric("serve.writer_epoch_s", secs(sum(|e| e.process_ns)), "s"),
    ]
}

fn pending_events_mean(epochs: &[EpochLayers]) -> f64 {
    mean(&epochs.iter().filter_map(|e| e.pending_events.map(|p| p as f64)).collect::<Vec<_>>())
}

/// Share of `wall_ns` not covered by the self time of lane `tid`'s
/// layer spans (every span except the per-tick root).
fn untimed_frac(tracer: &Tracer, tid: u32, wall_ns: f64) -> f64 {
    let timed: u64 = tracer
        .spans()
        .iter()
        .zip(tracer.span_self_ns())
        .filter(|(s, _)| s.tid == tid && s.name != "replay.tick")
        .map(|(_, self_ns)| self_ns)
        .sum();
    (1.0 - timed as f64 / wall_ns).max(0.0)
}

/// Per-layer metrics of one traced closed-loop replay.
pub fn closed_loop_layers(run: &LoopRun) -> Vec<Metric> {
    let tr = run.tracer.as_ref().expect("traced replay");
    let wall = run.wall.as_nanos() as f64;
    let mut out = vec![
        metric("raytrace.observe_s", tr.self_s("raytrace.observe"), "s"),
        metric("raytrace.receive_s", tr.self_s("raytrace.receive"), "s"),
        metric("raytrace.reports", run.filter_stats.reports as f64, "count"),
        metric("coordinator.submit_s", tr.self_s("coordinator.submit"), "s"),
        metric("hotness.advance_s", tr.self_s("hotness.advance"), "s"),
        metric("hotness.pending_events_mean", pending_events_mean(&run.epochs), "count"),
    ];
    out.extend(strategy_layers(&run.epochs));
    out.extend([
        metric(
            "serve.writer_busy_frac",
            run.engine_busy.as_secs_f64() / run.replay.as_secs_f64(),
            "ratio",
        ),
        metric("serve.backlog_epochs_max", 0.0, "count"),
        metric("snapshot.read_ns_p50", median(&run.read_ns), "ns"),
        metric("netsim.tick_s", tr.self_s("netsim.tick"), "s"),
        metric("host.slowdown", run.slowdown(), "ratio"),
        metric("netsim.late_ticks", 0.0, "count"),
        metric("netsim.late_ms_max", 0.0, "ms"),
        metric("trace.untimed_frac", untimed_frac(tr, 1, wall), "ratio"),
    ]);
    out
}

/// Per-layer metrics of one traced served replay; the client-filter,
/// generator and expiry-queue figures come from the traced recording
/// pass over the same stream.
pub fn served_layers(rec: &LoopRun, run: &ReplayRun) -> Vec<Metric> {
    let rec_tr = rec.tracer.as_ref().expect("traced recording pass");
    let tr = run.tracer.as_ref().expect("traced replay");
    let late =
        run.late_ms.iter().filter(|&&l| l > crate::workload::SERVED_LATE_AFTER.as_secs_f64() * 1e3);
    let mut out = vec![
        metric("raytrace.observe_s", rec_tr.self_s("raytrace.observe"), "s"),
        metric("raytrace.receive_s", rec_tr.self_s("raytrace.receive"), "s"),
        metric("raytrace.reports", rec.filter_stats.reports as f64, "count"),
        metric("coordinator.submit_s", run.writer.submit.as_secs_f64(), "s"),
        metric("hotness.advance_s", run.writer.advance.as_secs_f64(), "s"),
        metric("hotness.pending_events_mean", pending_events_mean(&rec.epochs), "count"),
    ];
    out.extend(strategy_layers(&run.writer.epochs));
    out.extend([
        metric(
            "serve.writer_busy_frac",
            run.writer.busy().as_secs_f64() / run.replay.as_secs_f64(),
            "ratio",
        ),
        metric("serve.backlog_epochs_max", run.backlog_max as f64, "count"),
        metric("snapshot.read_ns_p50", median(&run.read_ns), "ns"),
        metric("netsim.tick_s", rec_tr.self_s("netsim.tick"), "s"),
        metric("host.slowdown", run.slowdown().unwrap_or_else(|| rec.slowdown()), "ratio"),
        metric("netsim.late_ticks", late.count() as f64, "count"),
        metric("netsim.late_ms_max", run.late_ms.iter().copied().fold(0.0, f64::max), "ms"),
        metric(
            "trace.untimed_frac",
            untimed_frac(tr, 1, run.client_wall.as_nanos() as f64),
            "ratio",
        ),
    ]);
    out
}

/// Per-metric medians over several runs' metric lists (same names, same
/// order).
pub fn median_by_name(runs: &[Vec<Metric>]) -> Vec<Metric> {
    let Some(first) = runs.first() else { return Vec::new() };
    first
        .iter()
        .enumerate()
        .map(|(i, m)| Metric {
            value: median(&runs.iter().map(|r| r[i].value).collect::<Vec<_>>()),
            ..m.clone()
        })
        .collect()
}
