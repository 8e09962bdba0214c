//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <paper-matrix|ring-churn|trace-replay> --seed N --seconds S --trace 0|1
//! ```
//!
//! A run builds its workload's inputs from the seed, then repeats the
//! workload's full pass until `--seconds` have gone by (at least
//! [`MIN_PASSES`] times) and reports medians over the passes. Every pass
//! is checked against the benchmark's own computations, and every pass
//! must reproduce the first pass's outcome digest. `--trace 0` prints
//! the end-to-end metrics; `--trace 1` re-runs the workload with the
//! per-layer timers and the allocation counter on and prints the
//! per-layer metrics. The last line of standard output is one JSON
//! object; a failed check exits 1 without it, bad arguments exit 2.

// The repository's clippy.toml bans `Instant` so that no wall clock can
// reach a routing decision; timing the program is this crate's job.
#![allow(clippy::disallowed_types)]

mod alloc;
mod inputs;
mod layers;
mod paper_matrix;
mod probe;
mod ring_churn;
mod sim;
mod trace_replay;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Fewest passes a run makes, however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// One full pass of a workload.
pub struct Pass {
    /// Edge-list text to a ready program (parsed graph, or a network
    /// with every view provisioned).
    pub setup_ns: f64,
    /// The routing phase: first send to quiescence, or the
    /// `delivery_matrix` calls.
    pub route_ns: f64,
    /// Every call into the program in the pass, setup through analysis.
    pub wall_ns: f64,
    /// Hops routed in the routing phase.
    pub hops: u64,
    /// Operations attempted and failed.
    pub attempted: u64,
    /// See `attempted`.
    pub failed: u64,
    /// Digest of the pass's outcomes (and trace bytes, if any).
    pub digest: u64,
    /// Per-layer samples (traced runs only).
    pub layers: Vec<(&'static str, f64)>,
}

/// A workload: its seeded inputs and the passes over them.
pub trait Workload {
    /// Runs one full pass and checks its outputs; `Err` names the first
    /// violated check.
    fn pass(&mut self, traced: bool) -> Result<Pass, String>;

    /// Traced runs only: per-layer metrics that need probes beyond the
    /// pass, given the medians of the passes' own layer samples.
    fn probe(
        &mut self,
        pass_layers: &BTreeMap<&'static str, f64>,
    ) -> Result<Vec<(&'static str, f64)>, String>;
}

/// `(name, unit)` of every end-to-end metric.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("hops_per_s", "1/s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric.
const PER_LAYER: [(&str, &str); 27] = [
    ("graph.io.parse_ns_per_edge", "ns/edge"),
    ("graph.bfs.ns_per_view", "ns/view"),
    ("graph.bfs.bytes_per_view", "B/view"),
    ("core.view.extract_ns_per_view", "ns/view"),
    ("core.view.extract_bytes_per_view", "B/view"),
    ("core.view.step_table_ns_per_view", "ns/view"),
    ("core.preprocess.ns_per_view", "ns/view"),
    ("core.preprocess.bytes_per_view", "B/view"),
    ("core.decide.ns_per_hop", "ns/hop"),
    ("core.engine.ns_per_pair", "ns/pair"),
    ("core.engine.self_ns_per_pair", "ns/pair"),
    ("sim.build.ns_per_node", "ns/node"),
    ("sim.build.bytes_per_node", "B/node"),
    ("sim.run.ns_per_hop", "ns/hop"),
    ("sim.run.self_ns_per_hop", "ns/hop"),
    ("sim.run.bytes_per_msg", "B/msg"),
    ("sim.views.built", "count"),
    ("sim.views.invalidated", "count"),
    ("sim.replay.ns_per_hop", "ns/hop"),
    ("obs.record.ns_per_hop", "ns/hop"),
    ("obs.record.bytes_per_hop", "B/hop"),
    ("obs.analytics.ns_per_event", "ns/event"),
    ("obs.analytics.bytes_per_event", "B/event"),
    ("obs.witness.ns_per_event", "ns/event"),
    ("obs.witness.bytes_per_event", "B/event"),
    ("trace_mb_per_s", "MB/s"),
    ("replay_hops_per_s", "1/s"),
];

const USAGE: &str = "usage: perfbench --workload <paper-matrix|ring-churn|trace-replay> \
                     --seed N --seconds S --trace 0|1";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Named metric values.
type Metrics = Vec<(&'static str, f64)>;

/// Runs the workload: `(attempted, failed, metrics)`.
fn run(args: &Args) -> Result<(u64, u64, Metrics), String> {
    let mut wl: Box<dyn Workload> = match args.workload.as_str() {
        "paper-matrix" => Box::new(paper_matrix::PaperMatrix::new(args.seed)?),
        "ring-churn" => Box::new(ring_churn::RingChurn::new(args.seed)),
        "trace-replay" => Box::new(trace_replay::TraceReplay::new(args.seed)),
        w => return Err(format!("unknown workload {w}")),
    };
    if args.trace {
        alloc::enable();
    }
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < MIN_PASSES || start.elapsed() < budget {
        let p = wl.pass(args.trace)?;
        if let Some(first) = passes.first() {
            if p.digest != first.digest {
                return Err(format!(
                    "determinism: pass {} digest {:016x} differs from pass 0 digest {:016x}",
                    passes.len(),
                    p.digest,
                    first.digest
                ));
            }
        }
        passes.push(p);
    }
    let attempted = passes.iter().map(|p| p.attempted).sum();
    let failed = passes.iter().map(|p| p.failed).sum();
    let metrics = if args.trace {
        let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for p in &passes {
            for &(name, v) in &p.layers {
                samples.entry(name).or_default().push(v);
            }
        }
        let mut all: BTreeMap<&'static str, f64> =
            samples.into_iter().map(|(k, v)| (k, median(v))).collect();
        // A probe's figure replaces a pass sample of the same name.
        for (name, v) in wl.probe(&all)? {
            all.insert(name, v);
        }
        all.into_iter().collect()
    } else {
        let pick = |f: fn(&Pass) -> f64| median(passes.iter().map(f).collect());
        vec![
            ("setup_s", pick(|p| p.setup_ns / 1e9)),
            ("hops_per_s", pick(|p| p.hops as f64 / (p.route_ns / 1e9))),
            ("wall_s", pick(|p| p.wall_ns / 1e9)),
            ("peak_rss_mb", peak_rss_mb()?),
        ]
    };
    eprintln!(
        "perfbench: {} seed {}: {} passes in {:.1} s, median pass {:.3} s",
        args.workload,
        args.seed,
        passes.len(),
        start.elapsed().as_secs_f64(),
        median(passes.iter().map(|p| p.wall_ns / 1e9).collect()),
    );
    Ok((attempted, failed, metrics))
}

/// Renders the result line, in the order and with the units of the
/// metric tables; every listed metric must be present and finite.
fn result_json(
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, f64)],
    table: &[(&str, &str)],
) -> Result<String, String> {
    let mut fields = Vec::new();
    for &(name, unit) in table {
        let v = metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .ok_or(format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is {v}"));
        }
        println!("{name}: {v} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    match run(&args).and_then(|(a, f, m)| result_json(a, f, &m, table)) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::from(1)
        }
    }
}
