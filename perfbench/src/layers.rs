//! Per-epoch layer accounting shared by both drivers: what one
//! `process_epoch` cost, split by the counters the program publishes
//! (`ProcessingStats`, `PhaseBLoad`), plus the state sizes that drive
//! that cost.

use std::time::Duration;

use hotpath_core::coordinator::HotSnapshot;
use hotpath_core::stats::ProcessingStats;

/// One epoch's work and cost.
#[derive(Clone, Copy, Debug, Default)]
pub struct EpochLayers {
    /// Wall time of the `process_epoch` call.
    pub process_ns: u64,
    /// `ProcessingStats::strategy_time` delta (Phase A + Phase B).
    pub strategy_ns: u64,
    /// `ProcessingStats::publish_time` delta.
    pub publish_ns: u64,
    /// Phase-B eval busy time summed over workers (`PhaseBLoad::busy_ns`).
    pub phase_b_busy_ns: u64,
    /// The busiest Phase-B worker's time: the eval pass's critical path.
    pub phase_b_wall_ns: u64,
    /// States Phase A deferred to Phase B.
    pub deferred: u64,
    /// Phase-B chunks stolen across workers.
    pub stolen: u64,
    /// Worst/mean per-worker Phase-B busy ratio.
    pub imbalance: f64,
    /// Case-1/2/3 selection deltas.
    pub case1: u64,
    /// Case-2 delta.
    pub case2: u64,
    /// Case-3 delta.
    pub case3: u64,
    /// States the epoch processed.
    pub states: u64,
    /// Motion paths stored after the epoch.
    pub index_size: u64,
    /// Live hotness expiry events after the epoch, when the driver can
    /// see the coordinator.
    pub pending_events: Option<u64>,
    /// Section 3.1 top-k score after the epoch.
    pub top_k_score: f64,
}

fn delta_ns(after: Duration, before: Duration) -> u64 {
    after.saturating_sub(before).as_nanos() as u64
}

impl EpochLayers {
    /// Accounts one epoch from the processing counters before and after
    /// it and the snapshot it published.
    pub fn measure(
        process: Duration,
        before: &ProcessingStats,
        after: &ProcessingStats,
        snap: &HotSnapshot,
        pending_events: Option<usize>,
    ) -> Self {
        let load = &snap.phase_b;
        EpochLayers {
            process_ns: process.as_nanos() as u64,
            strategy_ns: delta_ns(after.strategy_time, before.strategy_time),
            publish_ns: delta_ns(after.publish_time, before.publish_time),
            phase_b_busy_ns: load.busy_ns.iter().sum(),
            phase_b_wall_ns: load.busy_ns.iter().copied().max().unwrap_or(0),
            deferred: load.deferred as u64,
            stolen: load.stolen,
            imbalance: load.imbalance,
            case1: after.case1 - before.case1,
            case2: after.case2 - before.case2,
            case3: after.case3 - before.case3,
            states: after.states_processed - before.states_processed,
            index_size: snap.index_size as u64,
            pending_events: pending_events.map(|p| p as u64),
            top_k_score: snap.top_k_score,
        }
    }

    /// Strategy time outside the Phase-B eval critical path: Phase A,
    /// the FSA delta, and the sequential Phase-B apply pass.
    pub fn phase_a_ns(&self) -> u64 {
        self.strategy_ns.saturating_sub(self.phase_b_wall_ns)
    }

    /// `process_epoch` time outside strategy and publish: drain and
    /// admission, respond, and buffer recycling.
    pub fn other_ns(&self) -> u64 {
        self.process_ns.saturating_sub(self.strategy_ns + self.publish_ns)
    }
}
