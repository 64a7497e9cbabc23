//! Driver parity: the benchmark's drivers must make the program do
//! exactly what the production scenario driver makes it do, so the
//! benchmark cannot drift from the code path it claims to measure.

use std::path::PathBuf;
use std::time::Duration;

use hotpath_sim::metrics::Summary;
use hotpath_sim::scenario_run::{parity_trace, run_named, ParityTrace, ScenarioRunResult};
use perfbench::closed_loop::{run_closed_loop, LoopOptions, LoopRun};
use perfbench::served::{replay, Schedule};
use perfbench::workload::{find, run_params, Scale};

/// The benchmark's closed-loop replay in the production driver's result
/// shape, so both go through the same `parity_trace`.
fn trace_of(run: LoopRun) -> ParityTrace {
    parity_trace(&ScenarioRunResult {
        outcome: run.outcome,
        per_epoch: Vec::new(),
        summary: Summary::default(),
        invariants: run.invariants,
        filter_stats: run.filter_stats,
        coordinator: run.coordinator,
    })
}

fn assert_driver_parity(scale: Scale, seed: u64) {
    for workload in ["converge", "surge", "served"] {
        let w = find(workload).expect("known workload");
        let scale = scale.params(seed);
        let params = run_params(w.shards, w.phase_b_workers);
        let reference = run_named(w.scenario, &scale, &params).expect("registered scenario");
        reference.invariants.as_ref().unwrap_or_else(|e| panic!("{workload}: {e}"));
        let ours = run_closed_loop(w.scenario, &scale, &params, LoopOptions::default())
            .unwrap_or_else(|e| panic!("{workload}: {e}"));
        ours.check().unwrap_or_else(|e| panic!("{workload}: {e}"));
        assert!(!ours.epochs.is_empty(), "{workload}: no epochs");
        assert_eq!(
            trace_of(ours),
            parity_trace(&reference),
            "{workload}: the benchmark driver diverged from scenario_run"
        );
    }
}

#[test]
fn closed_loop_reproduces_the_production_driver_for_every_workload_scenario() {
    assert_driver_parity(Scale::Quick, 42);
}

/// The same check at paper scale (N = 20 000, 250 ticks); a few minutes
/// of work, so it runs on demand with `--ignored`.
#[test]
#[ignore = "paper scale: minutes of work"]
fn closed_loop_reproduces_the_production_driver_at_paper_scale() {
    assert_driver_parity(Scale::Paper, 1);
}

#[test]
fn recorded_stream_is_every_state_the_coordinator_received() {
    let scale = Scale::Quick.params(7);
    let opts = LoopOptions { record_stream: true, ..LoopOptions::default() };
    let run = run_closed_loop("flash_crowd", &scale, &run_params(1, 1), opts).unwrap();
    let recorded: usize = run.stream.iter().map(Vec::len).sum();
    assert_eq!(recorded as u64, run.coordinator.comm_stats().uplink_msgs);
}

#[test]
fn wire_replay_reproduces_the_in_process_final_snapshot() {
    let w = find("served").expect("known workload");
    let scale = Scale::Quick.params(42);
    let opts = LoopOptions { record_stream: true, ..LoopOptions::default() };
    let rec = run_closed_loop(w.scenario, &scale, &run_params(1, 1), opts).unwrap();
    rec.check().unwrap();
    let config =
        rec.coordinator.config().with_shards(w.shards).with_phase_b_workers(w.phase_b_workers);
    let schedule = Schedule {
        tick: Duration::from_millis(1),
        poll: Duration::from_micros(500),
        drain_timeout: Duration::from_secs(60),
    };
    let socket: PathBuf = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("parity-{}.sock", std::process::id()));
    let run = replay(&rec.stream, config, schedule, &socket, None).expect("replay");
    assert_eq!(run.failed, 0);
    assert_eq!(run.visible_ms.len(), rec.epochs.len(), "every epoch became visible");
    assert_eq!(run.writer.epochs.len(), rec.epochs.len());
    assert_eq!(run.fingerprint, rec.fingerprint, "wire replay diverged from the in-process run");
}
