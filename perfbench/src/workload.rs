//! The three workloads and the paper-scale parameters they share.

use std::time::Duration;

use hotpath_netsim::network::NetworkParams;
use hotpath_netsim::scenario::ScenarioParams;
use hotpath_sim::options::RunOptions;
use hotpath_sim::scenario_run::ScenarioRunParams;

/// Objects at paper scale.
pub const PAPER_N: usize = 20_000;
/// Ticks per replay at paper scale.
pub const PAPER_TICKS: u64 = 250;
/// Interval between tick due times on the served workload's open-loop
/// schedule: the backlog the stampede builds drains within the run.
pub const SERVED_TICK: Duration = Duration::from_millis(20);
/// `QUERY` poll interval between ticks (bounded rate: 1 kHz).
pub const SERVED_POLL: Duration = Duration::from_millis(1);
/// The served client times the host reference workload (≈0.3 ms) in an
/// idle moment only when the next tick is due at least this far ahead,
/// so the probe never delays the schedule.
pub const SERVED_REFERENCE_ROOM: Duration = Duration::from_millis(2);
/// A served tick that starts later than this counts as late.
pub const SERVED_LATE_AFTER: Duration = Duration::from_millis(1);

/// How a workload reaches the program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// In-process closed loop: filters ↔ coordinator, no socket.
    ClosedLoop,
    /// Recorded stream replayed open loop over `hotpathd`'s socket.
    Served,
}

/// One named workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// CLI name.
    pub name: &'static str,
    /// Registry scenario that generates its inputs.
    pub scenario: &'static str,
    /// How it drives the program.
    pub mode: Mode,
    /// Coordinator shards.
    pub shards: usize,
    /// Phase-B eval workers.
    pub phase_b_workers: usize,
    /// Run time granted to each replay: a run of a given length makes
    /// `length / budget` replays, whatever the code's speed, so both
    /// sides of a comparison replay the same inputs. Set from the
    /// replay's cost on the reference host (input generation, the
    /// served recording pass and the spread set-ups included):
    /// `converge` ≈ 10 s, `surge` ≈ 0.9 s, `served` ≈ 7 s. At the
    /// benchmark's 45 s run length that is 4, 30 and 5 replays: the
    /// long `converge` replays still get four populations, and no run
    /// takes much over 50 s, so the benchmark's runs of all three
    /// workloads stay well inside the time the whole set may take.
    pub replay_budget: Duration,
}

impl Workload {
    /// Replays a run of `seconds` makes: as many budgets as fit, at
    /// least one. A traced run pairs every traced replay with
    /// an untraced one, so it makes half as many pairs.
    pub fn replays(&self, seconds: Duration, traced: bool) -> u64 {
        let fit = (seconds.as_secs_f64() / self.replay_budget.as_secs_f64()) as u64;
        if traced { fit / 2 } else { fit }.max(1)
    }
}

/// The scenario seed of replay `j` of a run seeded `seed`: replay 0
/// uses the run seed itself, later replays fresh populations derived
/// from it, so a run averages over several inputs.
pub fn sub_seed(seed: u64, j: u64) -> u64 {
    seed.wrapping_add(j.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Every workload, in presentation order.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "converge",
        scenario: "sporting_event",
        mode: Mode::ClosedLoop,
        shards: 1,
        phase_b_workers: 1,
        replay_budget: Duration::from_secs(11),
    },
    Workload {
        name: "surge",
        scenario: "rush_hour_surge",
        mode: Mode::ClosedLoop,
        shards: 1,
        phase_b_workers: 1,
        replay_budget: Duration::from_millis(1500),
    },
    Workload {
        name: "served",
        scenario: "flash_crowd",
        mode: Mode::Served,
        shards: 2,
        phase_b_workers: 2,
        replay_budget: Duration::from_secs(9),
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Input size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// N = 20 000 on the Athens-sized network, 250 ticks.
    Paper,
    /// A few hundred objects on a tiny network (tests).
    Quick,
}

impl Scale {
    /// The scenario parameters for `seed`.
    pub fn params(self, seed: u64) -> ScenarioParams {
        match self {
            Scale::Paper => ScenarioParams {
                n: PAPER_N,
                seed,
                duration: PAPER_TICKS,
                network: NetworkParams::athens(),
            },
            Scale::Quick => ScenarioParams { n: 200, ..ScenarioParams::quick(seed) },
        }
    }
}

/// Driver knobs shared by every workload: eps 10, epoch 5, k 10, crisp.
pub fn run_params(shards: usize, phase_b_workers: usize) -> ScenarioRunParams {
    ScenarioRunParams {
        eps: 10.0,
        epoch: 5,
        k: 10,
        sigma: 0.0,
        run: RunOptions::default().with_shards(shards).with_phase_b_workers(phase_b_workers),
        ..ScenarioRunParams::default()
    }
}
