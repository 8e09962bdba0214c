//! Per-layer figures of the simulator and trace layers, summed over
//! trials and turned into the `sim.*` / `obs.*` metrics.

use local_routing::LocalRouter;

use crate::sim::{self, TraceRun, Trial, TrialRun};

/// Totals over untraced trials.
#[derive(Default)]
pub struct SimTotals {
    trials: u64,
    nodes: u64,
    build_ns: f64,
    build_bytes: u64,
    msgs: u64,
    hops: u64,
    route_ns: f64,
    route_bytes: u64,
    views_built: u64,
    views_invalidated: u64,
}

impl SimTotals {
    /// Adds an untraced trial.
    pub fn add(&mut self, run: &TrialRun) {
        self.trials += 1;
        self.nodes += run.net.node_count() as u64;
        self.build_ns += run.build_ns;
        self.build_bytes += run.build_bytes;
        self.msgs += run.net.records().len() as u64;
        self.hops += run.hops;
        self.route_ns += run.route_ns;
        self.route_bytes += run.route_bytes;
        self.views_built += run.views_built;
        self.views_invalidated += run.views_invalidated;
    }

    /// Routing-phase time per hop.
    pub fn route_ns_per_hop(&self) -> f64 {
        self.route_ns / self.hops.max(1) as f64
    }

    /// The `sim.build.*`, `sim.run.*` and `sim.views.*` (per trial)
    /// metrics, all but `sim.run.self_ns_per_hop`, which needs the
    /// router's decide cost from a probe.
    pub fn metrics(&self, out: &mut Vec<(&'static str, f64)>) {
        let nodes = self.nodes.max(1) as f64;
        out.push(("sim.build.ns_per_node", self.build_ns / nodes));
        out.push(("sim.build.bytes_per_node", self.build_bytes as f64 / nodes));
        out.push(("sim.run.ns_per_hop", self.route_ns_per_hop()));
        out.push((
            "sim.run.bytes_per_msg",
            self.route_bytes as f64 / self.msgs.max(1) as f64,
        ));
        let trials = self.trials.max(1) as f64;
        out.push(("sim.views.built", self.views_built as f64 / trials));
        out.push((
            "sim.views.invalidated",
            self.views_invalidated as f64 / trials,
        ));
    }
}

/// Totals over traced trials and their trace analysis.
#[derive(Default)]
pub struct TraceTotals {
    hops: u64,
    trace_bytes: u64,
    events: u64,
    stats_ns: f64,
    stats_bytes: u64,
    witness_ns: f64,
    witness_bytes: u64,
    replay_ns: f64,
    replay_hops: u64,
}

impl TraceTotals {
    /// Adds a traced trial and the analysis of its trace.
    pub fn add(&mut self, run: &TrialRun, tr: &TraceRun) {
        self.hops += run.hops;
        self.trace_bytes += run.trace.len() as u64;
        self.events += tr.events;
        self.stats_ns += tr.stats_ns;
        self.stats_bytes += tr.stats_bytes;
        self.witness_ns += tr.witness_ns;
        self.witness_bytes += tr.witness_bytes;
        self.replay_ns += tr.replay_ns;
        self.replay_hops += tr.replay.as_ref().map_or(0, |r| r.hops_checked as u64);
    }

    /// The `obs.*` (but `obs.record.ns_per_hop`, see [`twins`]),
    /// `sim.replay.*`, `trace_mb_per_s` and `replay_hops_per_s` metrics.
    pub fn metrics(&self, out: &mut Vec<(&'static str, f64)>) {
        let hops = self.hops.max(1) as f64;
        let events = self.events.max(1) as f64;
        let replay_hops = self.replay_hops.max(1) as f64;
        out.push(("obs.record.bytes_per_hop", self.trace_bytes as f64 / hops));
        out.push(("obs.analytics.ns_per_event", self.stats_ns / events));
        out.push((
            "obs.analytics.bytes_per_event",
            self.stats_bytes as f64 / events,
        ));
        out.push(("obs.witness.ns_per_event", self.witness_ns / events));
        out.push((
            "obs.witness.bytes_per_event",
            self.witness_bytes as f64 / events,
        ));
        out.push(("sim.replay.ns_per_hop", self.replay_ns / replay_hops));
        out.push((
            "trace_mb_per_s",
            self.trace_bytes as f64 / 1e6 / (self.stats_ns / 1e9),
        ));
        out.push(("replay_hops_per_s", replay_hops / (self.replay_ns / 1e9)));
    }
}

/// Runs an untraced and a traced twin of one trial `rounds` times, in
/// alternation. Returns the routing time per hop the recorder adds
/// (median over the rounds), the untraced runs' totals and the last
/// traced run.
pub fn twins<'a, R: LocalRouter + Copy + Send + Sync + 'static>(
    trial: impl Fn(bool) -> Trial<'a>,
    router: R,
    rounds: usize,
) -> (f64, SimTotals, TrialRun) {
    let mut plain = SimTotals::default();
    let mut added = Vec::new();
    let mut last = None;
    for _ in 0..rounds {
        let off = sim::run_trial(trial(false), router);
        let on = sim::run_trial(trial(true), router);
        let per_hop = |r: &TrialRun| r.route_ns / r.hops.max(1) as f64;
        added.push(per_hop(&on) - per_hop(&off));
        plain.add(&off);
        last = Some(on);
    }
    (
        crate::median(added),
        plain,
        last.expect("at least one round"),
    )
}
