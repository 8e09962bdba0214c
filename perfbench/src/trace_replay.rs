//! `trace-replay`: Algorithm 1 at `T(n)` on a label-scrambled 512-cycle
//! with two chords at a seeded position, with a `Level::Hops` recorder. The trace is
//! then streamed through tracecat `stats` (`run_mode` + `StatsMode`)
//! and certified by `parse_trace` + `collect_witnesses` +
//! `replay::verify_witnesses`.
//!
//! The diameter exceeds `T(n)`, so every rule family and dormant-edge
//! preprocessing fire; it is the only workload whose pass touches the
//! trace layers, and it writes and reads the same format.

use std::collections::BTreeMap;

use local_routing::{Alg1, LocalRouter};
use locality_graph::rng::DetRng;
use locality_graph::{io, Graph, NodeId};
use locality_sim::{FaultConfig, FaultPlan};

use crate::alloc::measure;
use crate::inputs::{self, Adjacency};
use crate::layers::{self, TraceTotals};
use crate::probe::{self, Replay};
use crate::sim::{self, Fnv, Trial};
use crate::{Pass, Workload};

const N: usize = 512;
const MESSAGES: usize = 2048;
const CHORD_SPAN: u32 = 64;
/// Rounds of untraced and traced twins the probe runs for
/// `obs.record.ns_per_hop` and the simulator figures.
const TWINS: usize = 3;
/// Messages whose routes feed the decide replay.
const PROBE_MESSAGES: usize = 512;
/// Pairs the engine probe routes.
const ENGINE_PAIRS: usize = 128;

pub struct TraceReplay {
    seed: u64,
    text: String,
    adj: Adjacency,
    dist: Vec<Vec<u32>>,
    traffic: Vec<(u32, u32)>,
    decide_routes: Vec<Vec<NodeId>>,
}

impl TraceReplay {
    pub fn new(seed: u64) -> TraceReplay {
        let mut rng = DetRng::seed_from_u64(seed ^ 0x7ace_0000);
        let k = Alg1.min_locality(N);
        // Two chords of span CHORD_SPAN on opposite sides of the ring,
        // at a seeded rotation: the graph is the same up to its labels
        // for every seed, so the work per pass is too. Each chord cuts a
        // 63-node arc off a 386-node main cycle, so the diameter (256)
        // stays above T(n).
        let a = rng.gen_range(0..N as u32);
        let at = |x: u32| (a + x) % N as u32;
        let chords = [(at(0), at(CHORD_SPAN)), (at(256), at(256 + CHORD_SPAN))];
        let g = inputs::cycle_with_chords(N, &chords);
        let text = inputs::edgelist_text(&g, &inputs::scramble(N, &mut rng));
        let adj = Adjacency::parse(&text);
        let dist = adj.all_pairs();
        assert!(
            inputs::diameter(&dist) > k,
            "the chords keep the diameter above T(n)"
        );
        let traffic = (0..MESSAGES)
            .map(|_| {
                let s = rng.gen_range(0..N as u32);
                (s, (s + 1 + rng.gen_range(0..N as u32 - 1)) % N as u32)
            })
            .collect();
        TraceReplay {
            seed,
            text,
            adj,
            dist,
            traffic,
            decide_routes: Vec::new(),
        }
    }

    fn parse(&self) -> Result<Graph, String> {
        io::from_edgelist_reader(self.text.as_bytes()).map_err(|e| e.to_string())
    }

    fn trial<'a>(&'a self, g: &'a Graph, traced: bool) -> Trial<'a> {
        Trial {
            graph: g,
            k: Alg1.min_locality(N),
            traffic: &self.traffic,
            faults: FaultConfig::default(),
            plan: FaultPlan::new(),
            traced,
        }
    }
}

impl Workload for TraceReplay {
    fn pass(&mut self, traced: bool) -> Result<Pass, String> {
        let k = Alg1.min_locality(N);
        let (g, parse_ns, _) = measure(|| self.parse());
        let g = g?;
        let run = sim::run_trial(self.trial(&g, true), Alg1);
        let tr = sim::analyze_trace(&run.trace, &g, k, &Alg1);

        let records = run.net.records();
        let delivered = records.iter().filter(|r| r.delivered()).count() as u64;
        let report = tr
            .replay
            .as_ref()
            .map_err(|e| format!("verify_witnesses: {e}"))?;
        if tr.witnesses.len() != records.len() || report.messages != records.len() {
            return Err(format!(
                "{} witnesses for {} messages",
                tr.witnesses.len(),
                records.len()
            ));
        }
        if tr.stats_witnesses != records.len() as u64
            || tr.stats_sent != records.len() as u64
            || tr.stats_delivered != delivered
        {
            return Err(format!(
                "stats saw {} witnesses, {} sent, {} delivered; the network recorded {} sent, {delivered} delivered",
                tr.stats_witnesses,
                tr.stats_sent,
                tr.stats_delivered,
                records.len()
            ));
        }
        let mut witness_hops = 0u64;
        for w in &tr.witnesses {
            let route = w.route();
            if !self.adj.is_walk(&route) {
                return Err(format!("message {}: witness route is not a walk", w.msg));
            }
            let hops = route.len() as u64 - 1;
            let bound = 7 * u64::from(self.dist[w.s as usize][w.t as usize]);
            if !w.delivered() || route.last() != Some(&w.t) || hops > bound {
                return Err(format!(
                    "message {}: {:?} after {hops} hops, bound {bound}",
                    w.msg, w.fate
                ));
            }
            witness_hops += hops;
        }
        if witness_hops != run.hops || report.hops_checked as u64 != run.hops {
            return Err(format!(
                "witnesses carry {witness_hops} hops, replay checked {}, the network routed {}",
                report.hops_checked, run.hops
            ));
        }

        let mut digest = Fnv::new();
        digest.u64(sim::outcome_digest(records));
        digest.bytes(&run.trace);
        let failed = records.len() as u64 - delivered;
        let setup_ns = parse_ns + run.build_ns;
        let analysis_ns = run.flush_ns + tr.stats_ns + tr.witness_ns + tr.replay_ns;
        let mut layers = Vec::new();
        if traced {
            layers.push((
                "graph.io.parse_ns_per_edge",
                parse_ns / g.edge_count() as f64,
            ));
            let mut trace = TraceTotals::default();
            trace.add(&run, &tr);
            trace.metrics(&mut layers);
            self.decide_routes = records[..PROBE_MESSAGES]
                .iter()
                .map(|r| r.path.clone())
                .collect();
        }
        Ok(Pass {
            setup_ns,
            route_ns: run.route_ns,
            wall_ns: setup_ns + run.route_ns + analysis_ns,
            hops: run.hops,
            attempted: 2 * records.len() as u64,
            failed,
            digest: digest.0,
            layers,
        })
    }

    fn probe(
        &mut self,
        _pass: &BTreeMap<&'static str, f64>,
    ) -> Result<Vec<(&'static str, f64)>, String> {
        let k = Alg1.min_locality(N);
        let g = self.parse()?;
        let nodes: Vec<NodeId> = (0..N as u32).map(NodeId).collect();
        let views = probe::view_cost(&g, k, &nodes);
        let decide = Replay::from_routes(&g, k, std::mem::take(&mut self.decide_routes))
            .decide_ns_per_hop(&g, &Alg1);
        let mut rng = DetRng::seed_from_u64(self.seed ^ 0x9a0b_e500);
        let pairs: Vec<(NodeId, NodeId)> = (0..ENGINE_PAIRS)
            .map(|_| {
                let i = rng.gen_range(0..self.traffic.len());
                (NodeId(self.traffic[i].0), NodeId(self.traffic[i].1))
            })
            .collect();
        let (engine, engine_self, _) = probe::engine_cost(&g, k, &Alg1, &pairs)?;
        // The simulator figures come from the untraced twins: the pass
        // itself routes with the recorder on.
        let (added, plain, _) = layers::twins(|traced| self.trial(&g, traced), Alg1, TWINS);
        let untraced = plain.route_ns_per_hop();
        let mut out = Vec::new();
        views.metrics(&mut out);
        out.push(("core.decide.ns_per_hop", decide));
        out.push(("core.engine.ns_per_pair", engine));
        out.push(("core.engine.self_ns_per_pair", engine_self));
        plain.metrics(&mut out);
        out.push(("sim.run.self_ns_per_hop", untraced - decide));
        out.push(("obs.record.ns_per_hop", added));
        Ok(out)
    }
}
