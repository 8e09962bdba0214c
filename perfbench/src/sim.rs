//! Calls into `locality_sim` and `locality_obs`: one simulated trial,
//! and the analysis of its trace.

use local_routing::LocalRouter;
use locality_graph::{Graph, NodeId};
use locality_obs::analytics::stats::StatsMode;
use locality_obs::{
    collect_witnesses, parse_trace, run_mode, Level, Mode, Recorder, RouteWitness, TailMode,
};
use locality_sim::replay::{self, ReplayReport};
use locality_sim::{FaultConfig, FaultPlan, MessageRecord, Network, NetworkBuilder};

use crate::alloc::measure;

/// Messages injected per traffic batch; a batch goes out every
/// [`BATCH_TICKS`] ticks (the windowed open loop of the scale sweeps).
pub const BATCH: usize = 32;
/// Ticks between traffic batches.
pub const BATCH_TICKS: u64 = 4;

/// Ticks the traffic of `messages` messages spans.
pub fn traffic_horizon(messages: usize) -> u64 {
    messages.div_ceil(BATCH) as u64 * BATCH_TICKS
}

/// What a trial is asked to do.
pub struct Trial<'a> {
    /// The graph as parsed by the program.
    pub graph: &'a Graph,
    /// Locality parameter.
    pub k: u32,
    /// `(s, t)` messages in injection order.
    pub traffic: &'a [(u32, u32)],
    /// Source-side reliability (default: none).
    pub faults: FaultConfig,
    /// Scheduled faults.
    pub plan: FaultPlan,
    /// Attach a `Level::Hops` recorder.
    pub traced: bool,
}

/// One finished trial.
pub struct TrialRun {
    /// `NetworkBuilder::build` time (every view provisioned).
    pub build_ns: f64,
    /// Bytes allocated by the build.
    pub build_bytes: u64,
    /// First send to quiescence.
    pub route_ns: f64,
    /// Bytes allocated while routing.
    pub route_bytes: u64,
    /// `finish_trace` time (0 untraced).
    pub flush_ns: f64,
    /// Hops of the final attempt of every message.
    pub hops: u64,
    /// Views materialized (`view_stats().misses`).
    pub views_built: u64,
    /// Views evicted by topology change (`view_stats().invalidations`).
    pub views_invalidated: u64,
    /// The quiescent network (its records are the trial's outcome).
    pub net: Network,
    /// The JSONL trace (empty untraced).
    pub trace: Vec<u8>,
}

/// Builds the network and routes the traffic to quiescence.
pub fn run_trial<R: LocalRouter + Send + Sync + 'static>(t: Trial<'_>, router: R) -> TrialRun {
    let mut b = NetworkBuilder::new(t.graph, t.k)
        .faults(t.faults)
        .fault_plan(t.plan);
    if t.traced {
        b = b.recorder(Recorder::new(Level::Hops));
    }
    let (mut net, build_ns, build_bytes) = measure(|| b.build(router));
    let ((), route_ns, route_bytes) = measure(|| route(&mut net, t.traffic));
    let (trace, flush_ns, _) = measure(|| net.finish_trace());
    let stats = net.view_stats();
    TrialRun {
        build_ns,
        build_bytes,
        route_ns,
        route_bytes,
        flush_ns,
        hops: net.records().iter().map(|r| r.hops() as u64).sum(),
        views_built: stats.misses,
        views_invalidated: stats.invalidations,
        net,
        trace,
    }
}

fn route(net: &mut Network, traffic: &[(u32, u32)]) {
    for batch in traffic.chunks(BATCH) {
        for &(s, t) in batch {
            net.send(NodeId(s), NodeId(t));
        }
        let next = net.now() + BATCH_TICKS;
        net.run_until(next);
    }
    net.run_until_quiet();
}

/// FNV-1a digest of every record's outcome: fate, final path, delivery
/// tick and retries, in injection order.
pub fn outcome_digest(records: &[MessageRecord]) -> u64 {
    let mut d = Fnv::new();
    for r in records {
        d.str(r.fate.tag());
        d.u64(r.path.len() as u64);
        for x in &r.path {
            d.u64(u64::from(x.0));
        }
        d.u64(r.delivered_at.unwrap_or(u64::MAX));
        d.u64(u64::from(r.retries));
    }
    d.0
}

/// 64-bit FNV-1a.
pub struct Fnv(pub u64);

impl Fnv {
    /// The offset basis.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Mixes bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Mixes a string.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]);
    }

    /// Mixes an integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// What the trace analysis found and what it cost.
pub struct TraceRun {
    /// `run_mode` + `StatsMode` time (tracecat `stats`).
    pub stats_ns: f64,
    /// Bytes allocated by it.
    pub stats_bytes: u64,
    /// Events `run_mode` parsed.
    pub events: u64,
    /// Witnesses the stats pass folded.
    pub stats_witnesses: u64,
    /// `sent` and `delivered` of the first trials row of the report.
    pub stats_sent: u64,
    /// See `stats_sent`.
    pub stats_delivered: u64,
    /// `parse_trace` + `collect_witnesses` time.
    pub witness_ns: f64,
    /// Bytes allocated by it.
    pub witness_bytes: u64,
    /// The collected witnesses.
    pub witnesses: Vec<RouteWitness>,
    /// `verify_witnesses` time.
    pub replay_ns: f64,
    /// Its verdict.
    pub replay: Result<ReplayReport, String>,
}

/// Streams the trace through tracecat `stats`, then folds it into
/// witnesses and certifies them against `graph`.
pub fn analyze_trace<R: LocalRouter>(trace: &[u8], graph: &Graph, k: u32, router: &R) -> TraceRun {
    let ((stream, rendered), stats_ns, stats_bytes) = measure(|| {
        let mut mode = StatsMode::new();
        let stream =
            run_mode(trace, 64 * 1024, TailMode::Strict, &mut mode).expect("trace streams");
        let rendered = mode.render(&stream);
        (stream, rendered)
    });
    let (sent, delivered) = first_trial_row(&rendered);
    let (witnesses, witness_ns, witness_bytes) = measure(|| {
        let text = std::str::from_utf8(trace).expect("trace is UTF-8");
        let events = parse_trace(text).expect("trace parses");
        collect_witnesses(&events)
    });
    let (replay, replay_ns, _) = measure(|| {
        replay::verify_witnesses(graph, k, router, &witnesses).map_err(|e| e.to_string())
    });
    TraceRun {
        stats_ns,
        stats_bytes,
        events: stream.events,
        stats_witnesses: stream.witnesses,
        stats_sent: sent,
        stats_delivered: delivered,
        witness_ns,
        witness_bytes,
        witnesses,
        replay_ns,
        replay,
    }
}

/// `(sent, delivered)` of row 0 of the `stats` trials table:
/// `| trial | router | k | sent | delivered | ...`.
fn first_trial_row(rendered: &str) -> (u64, u64) {
    let row = rendered
        .lines()
        .find(|l| l.starts_with("| 0 |"))
        .expect("stats report has a trial row");
    let cells: Vec<&str> = row.split('|').map(str::trim).collect();
    let num = |i: usize| {
        cells
            .get(i)
            .and_then(|c| c.parse().ok())
            .expect("numeric cell")
    };
    (num(4), num(5))
}
