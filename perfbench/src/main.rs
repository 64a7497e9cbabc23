//! `perfbench`: runs one workload (or all three) for a fixed time and
//! prints its metrics.
//!
//! ```text
//! perfbench --workload <converge|surge|served|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end figures of untraced replays; with
//! `--trace 1` they are the per-layer figures of traced replays, and the
//! spans are written as Chrome trace-event JSON under `out/` in this
//! package. The line before it carries the run's provenance. A failed
//! correctness check prints no metrics and exits 1; bad arguments exit
//! 2.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use perfbench::closed_loop::{run_closed_loop, LoopOptions};
use perfbench::host;
use perfbench::metrics::{
    closed_loop_layers, end_to_end, ingest_tails, median_by_name, served_layers, tail_support,
    Metric, Sample,
};
use perfbench::served::{replay, time_setup, Schedule};
use perfbench::stats::median;
use perfbench::trace::{json_num, Tracer};
use perfbench::workload::{
    find, run_params, sub_seed, Mode, Scale, Workload, SERVED_POLL, SERVED_TICK, WORKLOADS,
};

/// Set-ups timed per run besides the replays' own, for a steady median.
/// They are spread evenly over the run's replays, so the median does not
/// rest on how fast the host ran at any one moment.
const SETUP_REPEATS: u64 = 64;

/// Extra set-ups each of a run's `replays` replays times.
fn setups_per_replay(replays: u64) -> usize {
    SETUP_REPEATS.div_ceil(replays) as usize
}

const USAGE: &str =
    "usage: perfbench --workload <converge|surge|served|all> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let workloads = if workload == "all" {
        WORKLOADS.iter().collect()
    } else {
        vec![find(&workload).ok_or_else(|| format!("unknown workload {workload}"))?]
    };
    Ok(Args {
        workloads,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One workload's result line.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Run facts for the provenance line (already-encoded JSON members).
    facts: String,
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The socket path for this process, relative to the working directory
/// when the absolute one would exceed the unix socket path limit.
fn socket_path(dir: &Path) -> PathBuf {
    let path = dir.join(format!("hotpathd-{}.sock", std::process::id()));
    if path.as_os_str().len() < 100 {
        return path;
    }
    std::env::current_dir()
        .ok()
        .and_then(|cwd| path.strip_prefix(cwd).ok().map(Path::to_path_buf))
        .unwrap_or(path)
}

fn write_trace(workload: &str, seed: u64, tracer: &Tracer, facts: &str) -> Result<PathBuf, String> {
    let mut table = String::new();
    for (name, row) in tracer.self_times() {
        let _ = write!(
            table,
            "{}\"{name}\":{{\"count\":{},\"total_s\":{},\"self_s\":{}}}",
            if table.is_empty() { "" } else { "," },
            row.count,
            row.total_ns as f64 * 1e-9,
            row.self_ns as f64 * 1e-9
        );
    }
    let meta = format!("{facts},\"self_time\":{{{table}}}");
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{workload}-seed{seed}.json"));
    std::fs::write(&path, tracer.to_chrome_json(&meta))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("perfbench: {workload}: self time by layer (traced replay)");
    for (name, row) in tracer.self_times() {
        eprintln!("  {name:<28} {:>6} spans {:>10.4} s self", row.count, row.self_ns as f64 * 1e-9);
    }
    Ok(path)
}

fn common_facts(w: &Workload, args: &Args) -> String {
    let p = Scale::Paper.params(args.seed);
    format!(
        "\"workload\":\"{}\",\"scenario\":\"{}\",\"seed\":{},\"n\":{},\"ticks\":{},\
         \"network\":\"{}\",\"eps\":10,\"epoch\":5,\"k\":10,\"shards\":{},\
         \"phase_b_workers\":{},\"mode\":\"{}\",\"served_tick_ms\":{},\"served_poll_ms\":{}",
        w.name,
        w.scenario,
        args.seed,
        p.n,
        p.duration,
        "athens",
        w.shards,
        w.phase_b_workers,
        if w.mode == Mode::Served { "served-open-loop" } else { "in-process-closed-loop" },
        SERVED_TICK.as_secs_f64() * 1e3,
        SERVED_POLL.as_secs_f64() * 1e3,
    )
}

fn sample_facts(samples: &[Sample]) -> String {
    let support: Vec<String> = tail_support(samples)
        .iter()
        .map(|(family, n, p)| format!("\"{family}\":{{\"samples\":{n},\"tail_percentile\":{p}}}"))
        .collect();
    let slowdowns: Vec<f64> = samples.iter().map(|s| s.slowdown).collect();
    format!(
        ",\"replays\":{},\"latency\":{{{}}},\"host_slowdown\":{}",
        samples.len(),
        support.join(","),
        median(&slowdowns)
    )
}

fn run_closed(w: &Workload, args: &Args) -> Result<Outcome, String> {
    let params = run_params(w.shards, w.phase_b_workers);
    let mut samples = Vec::new();
    let mut setups = Vec::new();
    let mut layer_runs = Vec::new();
    let mut traced_replays = Vec::new();
    let mut last_trace = None;
    let replays = w.replays(args.seconds, args.trace);
    for j in 0..replays {
        let scale = Scale::Paper.params(sub_seed(args.seed, j));
        let opts =
            LoopOptions { extra_setups: setups_per_replay(replays), ..LoopOptions::default() };
        let run = run_closed_loop(w.scenario, &scale, &params, opts)?;
        run.check()?;
        let slowdown = run.slowdown();
        setups.extend(run.setups.iter().map(|d| d.as_secs_f64() / slowdown));
        let fingerprint = run.fingerprint;
        samples.push(Sample::from_loop(&run));
        drop(run);
        if args.trace {
            let traced = LoopOptions { trace: Some(Instant::now()), ..LoopOptions::default() };
            let run = run_closed_loop(w.scenario, &scale, &params, traced)?;
            run.check()?;
            if run.fingerprint != fingerprint {
                return Err("traced and untraced replays of one input diverged".into());
            }
            // Compared with the untraced replays' normalized figure.
            traced_replays.push(run.replay.as_secs_f64() / run.slowdown());
            layer_runs.push(closed_loop_layers(&run));
            last_trace = run.tracer;
        }
    }
    finish(w, args, samples, &setups, layer_runs, traced_replays, last_trace, String::new())
}

fn run_served(w: &Workload, args: &Args) -> Result<Outcome, String> {
    let schedule =
        Schedule { tick: SERVED_TICK, poll: SERVED_POLL, drain_timeout: Duration::from_secs(60) };
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let socket = socket_path(&dir);
    let mut samples = Vec::new();
    let mut setups = Vec::new();
    let mut layer_runs = Vec::new();
    let mut traced_replays = Vec::new();
    let mut last_trace = None;
    let (mut recorded_states, mut recorded_measurements, mut probes) = (0, 0, 0);
    let replays = w.replays(args.seconds, args.trace);
    for j in 0..replays {
        let scale = Scale::Paper.params(sub_seed(args.seed, j));
        // Recording pass (input generation): sequential, closed loop.
        let rec_opts = LoopOptions {
            record_stream: true,
            trace: args.trace.then(Instant::now),
            ..LoopOptions::default()
        };
        let rec = run_closed_loop(w.scenario, &scale, &run_params(1, 1), rec_opts)?;
        rec.check().map_err(|e| format!("recording pass: {e}"))?;
        let measurements = rec.outcome.measurements;
        recorded_measurements += measurements;
        recorded_states += rec.stream.iter().map(Vec::len).sum::<usize>();
        let config =
            rec.coordinator.config().with_shards(w.shards).with_phase_b_workers(w.phase_b_workers);
        let mut replay_setups = Vec::with_capacity(setups_per_replay(replays) + 1);
        for _ in 0..setups_per_replay(replays) {
            replay_setups.push(time_setup(config, &socket).map_err(|e| format!("set-up: {e}"))?);
        }
        let check = |fp: u64| {
            if fp == rec.fingerprint {
                Ok(())
            } else {
                Err(format!(
                    "served final snapshot {fp:#018x} differs from the in-process run's {:#018x}",
                    rec.fingerprint
                ))
            }
        };
        let run = replay(&rec.stream, config, schedule, &socket, None)
            .map_err(|e| format!("served replay: {e}"))?;
        check(run.fingerprint)?;
        // Set-ups are timed just before the replay, so its probes give
        // their host speed too.
        let slowdown = run.slowdown().unwrap_or_else(|| rec.slowdown());
        probes += run.reference_us.len();
        replay_setups.push(run.setup);
        setups.extend(replay_setups.iter().map(|d| d.as_secs_f64() / slowdown));
        samples.push(Sample::from_replay(&run, measurements, slowdown));
        if args.trace {
            let run = replay(&rec.stream, config, schedule, &socket, Some(Instant::now()))
                .map_err(|e| format!("traced served replay: {e}"))?;
            check(run.fingerprint)?;
            traced_replays.push(run.replay.as_secs_f64());
            layer_runs.push(served_layers(&rec, &run));
            last_trace = run.tracer;
        }
    }
    let facts = format!(
        ",\"recorded_states\":{recorded_states},\"recorded_measurements\":{recorded_measurements},\
         \"host_probes\":{probes}"
    );
    finish(w, args, samples, &setups, layer_runs, traced_replays, last_trace, facts)
}

#[allow(clippy::too_many_arguments)]
fn finish(
    w: &Workload,
    args: &Args,
    samples: Vec<Sample>,
    setups: &[f64],
    layer_runs: Vec<Vec<Metric>>,
    traced_replays: Vec<f64>,
    last_trace: Option<Tracer>,
    extra_facts: String,
) -> Result<Outcome, String> {
    let attempted = samples.iter().map(|s| s.attempted).sum();
    let failed = samples.iter().map(|s| s.failed).sum();
    let mut facts = common_facts(w, args);
    facts.push_str(&sample_facts(&samples));
    facts.push_str(&extra_facts);
    let metrics = if args.trace {
        let untraced = median(&samples.iter().map(|s| s.replay_s).collect::<Vec<_>>());
        let overhead = median(&traced_replays) / untraced - 1.0;
        let mut layers = median_by_name(&layer_runs);
        layers.push(Metric { name: "trace.overhead_frac", value: overhead, unit: "ratio" });
        layers.extend(ingest_tails(&samples));
        if let Some(tracer) = &last_trace {
            let path = write_trace(w.name, args.seed, tracer, &facts)?;
            let name =
                path.file_name().map_or_else(String::new, |n| n.to_string_lossy().into_owned());
            let _ = write!(facts, ",\"trace_file\":\"out/{name}\"");
        }
        layers
    } else {
        end_to_end(&samples, setups, host::peak_rss_mb())
    };
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not a finite number", bad.name));
    }
    Ok(Outcome { attempted, failed, metrics, facts })
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, &Metric)],
) -> String {
    let mut body = String::new();
    for (i, (name, m)) in metrics.iter().enumerate() {
        let _ = write!(
            body,
            "{}\"{name}\":{{\"value\":{},\"unit\":\"{}\"}}",
            if i == 0 { "" } else { "," },
            json_num(m.value),
            m.unit
        );
    }
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{body}}}}}"
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = format!(
        "\"nproc\":{},\"cpu\":\"{}\",\"rustc\":\"{}\",\"git_rev\":\"{}\"",
        host::nproc(),
        host::cpu_model().replace('"', "'"),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_GIT_REV"),
    );
    let mut outcomes = Vec::new();
    for w in &args.workloads {
        let run = match w.mode {
            Mode::ClosedLoop => run_closed(w, &args),
            Mode::Served => run_served(w, &args),
        };
        match run {
            Ok(o) => outcomes.push((w.name, o)),
            Err(e) => {
                eprintln!("perfbench: {}: correctness check failed: {e}", w.name);
                let attempted = outcomes.iter().map(|(_, o)| o.attempted).sum::<u64>().max(1);
                println!("{}", result_line(false, attempted, attempted, &[]));
                return ExitCode::FAILURE;
            }
        }
    }
    let facts: Vec<String> = outcomes.iter().map(|(_, o)| format!("{{{}}}", o.facts)).collect();
    println!("{{\"provenance\":{{{host},\"runs\":[{}]}}}}", facts.join(","));
    let prefixed = args.workloads.len() > 1;
    let metrics: Vec<(String, &Metric)> = outcomes
        .iter()
        .flat_map(|(name, o)| {
            o.metrics.iter().map(move |m| {
                (if prefixed { format!("{name}.{}", m.name) } else { m.name.to_string() }, m)
            })
        })
        .collect();
    let attempted = outcomes.iter().map(|(_, o)| o.attempted).sum();
    let failed = outcomes.iter().map(|(_, o)| o.failed).sum();
    println!("{}", result_line(true, attempted, failed, &metrics));
    ExitCode::SUCCESS
}
