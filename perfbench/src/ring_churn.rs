//! `ring-churn`: `ring_lattice(8192, 8)` routed by `RingGreedy` at
//! k = 1 under windowed traffic, while a `random_churn` plan of link
//! flaps and crashes runs across the whole traffic horizon, with
//! source-side retries. One shard, no recorder.
//!
//! Views are tiny and the graph is big, so any O(n) term on the
//! per-view or per-message path dominates; churn makes view
//! invalidation and rebuild a large share of the routing phase.

use std::collections::BTreeMap;

use local_routing::baselines::RingGreedy;
use locality_graph::rng::DetRng;
use locality_graph::{generators, io, Graph, NodeId};
use locality_sim::{ChurnConfig, FaultConfig, FaultPlan, MessageFate};

use crate::alloc::measure;
use crate::inputs;
use crate::layers::{self, SimTotals, TraceTotals};
use crate::probe::{self, Replay};
use crate::sim::{self, Trial};
use crate::{Pass, Workload};

const N: usize = 8192;
const CHORDS: usize = 8;
const MESSAGES: usize = 4096;
/// Destinations lie 1..=WINDOW ring positions ahead of the source.
const WINDOW: u32 = 512;
const LINK_FLAPS: usize = 256;
const CRASHES: usize = 4;
/// Nodes whose views the per-layer probe extracts, messages whose
/// routes feed the decide replay and the traced twin, and pairs the
/// engine probe routes.
const PROBE_NODES: usize = 2048;
const PROBE_MESSAGES: usize = 512;
const ENGINE_PAIRS: usize = 64;
/// Rounds of untraced and traced twins for `obs.record.ns_per_hop`.
const TWINS: usize = 3;

fn faults(seed: u64) -> FaultConfig {
    FaultConfig {
        timeout: Some(64),
        max_retries: 3,
        backoff: 16,
        seed,
        ..FaultConfig::default()
    }
}

fn ring_dist(a: u32, b: u32) -> u32 {
    let d = a.abs_diff(b);
    d.min(N as u32 - d)
}

pub struct RingChurn {
    seed: u64,
    text: String,
    traffic: Vec<(u32, u32)>,
    plan: FaultPlan,
    /// Routes of the first messages, kept by a traced pass for the
    /// decide replay.
    decide_routes: Vec<Vec<NodeId>>,
}

impl RingChurn {
    pub fn new(seed: u64) -> RingChurn {
        let mut rng = DetRng::seed_from_u64(seed ^ 0x5ca1_e000);
        let traffic = (0..MESSAGES)
            .map(|_| {
                let s = rng.gen_range(0..N as u32);
                (s, (s + 1 + rng.gen_range(0..WINDOW)) % N as u32)
            })
            .collect();
        let churn = ChurnConfig {
            horizon: sim::traffic_horizon(MESSAGES),
            link_events: LINK_FLAPS,
            crash_events: CRASHES,
            min_outage: 5,
            max_outage: 40,
        };
        let plan = FaultPlan::random_churn(&generators::ring_lattice(N, CHORDS), &churn, &mut rng);
        RingChurn {
            seed,
            text: inputs::ring_lattice_text(N, CHORDS),
            traffic,
            plan,
            decide_routes: Vec::new(),
        }
    }

    fn parse(&self) -> Result<Graph, String> {
        io::from_edgelist_reader(self.text.as_bytes()).map_err(|e| e.to_string())
    }
}

impl Workload for RingChurn {
    fn pass(&mut self, traced: bool) -> Result<Pass, String> {
        let (g, parse_ns, _) = measure(|| self.parse());
        let g = g?;
        let run = sim::run_trial(
            Trial {
                graph: &g,
                k: 1,
                traffic: &self.traffic,
                faults: faults(self.seed),
                plan: self.plan.clone(),
                traced: false,
            },
            RingGreedy::new(N as u32),
        );
        let records = run.net.records();
        let mut failed = 0;
        for (i, r) in records.iter().enumerate() {
            if r.fate != MessageFate::Delivered {
                failed += 1;
                continue;
            }
            let path: Vec<u32> = r.path.iter().map(|x| x.0).collect();
            if path.first() != Some(&r.s.0) || path.last() != Some(&r.t.0) {
                return Err(format!("message {i}: path does not run s→t"));
            }
            if let Some(w) = path
                .windows(2)
                .find(|w| !(1..=CHORDS as u32).contains(&ring_dist(w[0], w[1])))
            {
                return Err(format!(
                    "message {i}: hop {}→{} is not a lattice edge",
                    w[0], w[1]
                ));
            }
            let lower = ring_dist(r.s.0, r.t.0).div_ceil(CHORDS as u32) as usize;
            if r.hops() < lower {
                return Err(format!(
                    "message {i}: {} hops, ring distance needs {lower}",
                    r.hops()
                ));
            }
        }
        let mut layers = Vec::new();
        if traced {
            let mut totals = SimTotals::default();
            totals.add(&run);
            layers.push((
                "graph.io.parse_ns_per_edge",
                parse_ns / g.edge_count() as f64,
            ));
            totals.metrics(&mut layers);
            self.decide_routes = records[..PROBE_MESSAGES]
                .iter()
                .map(|r| r.path.clone())
                .collect();
        }
        let setup_ns = parse_ns + run.build_ns;
        Ok(Pass {
            setup_ns,
            route_ns: run.route_ns,
            wall_ns: setup_ns + run.route_ns,
            hops: run.hops,
            attempted: records.len() as u64,
            failed,
            digest: sim::outcome_digest(records),
            layers,
        })
    }

    fn probe(
        &mut self,
        pass: &BTreeMap<&'static str, f64>,
    ) -> Result<Vec<(&'static str, f64)>, String> {
        let g = self.parse()?;
        let router = RingGreedy::new(N as u32);
        let mut rng = DetRng::seed_from_u64(self.seed ^ 0x9a0b_e500);
        let nodes: Vec<NodeId> = (0..PROBE_NODES)
            .map(|_| NodeId(rng.gen_range(0..N as u32)))
            .collect();
        let views = probe::view_cost(&g, 1, &nodes);
        let decide = Replay::from_routes(&g, 1, std::mem::take(&mut self.decide_routes))
            .decide_ns_per_hop(&g, &router);
        let pairs: Vec<(NodeId, NodeId)> = self.traffic[..ENGINE_PAIRS]
            .iter()
            .map(|&(s, t)| (NodeId(s), NodeId(t)))
            .collect();
        let (engine, engine_self, _) = probe::engine_cost(&g, 1, &router, &pairs)?;
        // Trace layers: traced and untraced twins of the first messages,
        // fault-free, since witness replay assumes fresh views.
        let traffic = &self.traffic[..PROBE_MESSAGES];
        let trial = |traced| Trial {
            graph: &g,
            k: 1,
            traffic,
            faults: FaultConfig::default(),
            plan: FaultPlan::new(),
            traced,
        };
        let (added, _, traced) = layers::twins(trial, router, TWINS);
        let tr = sim::analyze_trace(&traced.trace, &g, 1, &router);
        tr.replay.as_ref().map_err(|e| format!("replay: {e}"))?;
        let mut trace = TraceTotals::default();
        trace.add(&traced, &tr);

        let mut out = Vec::new();
        views.metrics(&mut out);
        out.push(("core.decide.ns_per_hop", decide));
        out.push(("core.engine.ns_per_pair", engine));
        out.push(("core.engine.self_ns_per_pair", engine_self));
        out.push((
            "sim.run.self_ns_per_hop",
            pass["sim.run.ns_per_hop"] - decide,
        ));
        trace.metrics(&mut out);
        out.push(("obs.record.ns_per_hop", added));
        Ok(out)
    }
}
