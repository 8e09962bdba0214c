//! `paper-matrix`: `engine::delivery_matrix` over every ordered pair of
//! a seeded suite of label-scrambled `random_mixed` graphs at n = 100,
//! for Algorithms 1, 1B, 2 and 3 each at its own threshold `T(n)`.
//!
//! The suite mixes graphs whose diameter is within `T(n)` of
//! Algorithm 1 with graphs whose diameter is not, so the rules for
//! far destinations fire as well as the shortest-path case.

use std::collections::BTreeMap;

use local_routing::{engine, Alg1, Alg1B, Alg2, Alg3, LocalRouter};
use locality_graph::rng::DetRng;
use locality_graph::{generators, io, Graph, NodeId};
use locality_sim::FaultConfig;

use crate::alloc::measure;
use crate::inputs::{self, Adjacency};
use crate::layers::{self, TraceTotals};
use crate::probe::{self, ViewCost};
use crate::sim::{self, Fnv, Trial};
use crate::{median, Pass, Workload};

const N: usize = 100;
/// Suite make-up, by the shapes `random_mixed` draws: trees, graphs of
/// 100..=150 edges (sparse, or a ring with chords) and denser graphs,
/// all with diameter within `T(n)` of Algorithm 1, plus bare cycles,
/// whose diameter n / 2 is beyond the `T(n)` of Algorithms 1, 1B and 2.
/// Fixed quotas keep the suite's total work nearly the same for every
/// seed.
const QUOTA: [usize; 4] = [3, 6, 3, 2];
/// Parses of the whole suite per pass; the pass reports their median.
const SETUP_REPS: usize = 5;
/// Messages of the simulator probe.
const SIM_MESSAGES: usize = 512;
/// Rounds of untraced and traced twins the simulator probe runs.
const TWINS: usize = 3;

fn routers() -> [&'static dyn LocalRouter; 4] {
    [&Alg1, &Alg1B, &Alg2, &Alg3]
}

/// Proven dilation bound of each router (Alg 1 ≤ 7, 1B ≤ 6, 2 ≤ 3,
/// 3 routes shortest paths).
fn dilation_bound(name: &str) -> f64 {
    match name {
        "algorithm-1" => 7.0,
        "algorithm-1b" => 6.0,
        "algorithm-2" => 3.0,
        _ => 1.0,
    }
}

/// What the benchmark's own walk of every pair found for one router
/// on one graph, with distances from its own BFS.
struct Expected {
    /// Σ hops over every ordered pair.
    hops: u64,
    /// Largest hops / BFS distance over every ordered pair.
    worst: f64,
}

/// Every ordered pair of distinct nodes, in `delivery_matrix`'s order.
fn all_pairs(g: &Graph) -> Vec<(NodeId, NodeId)> {
    g.nodes()
        .flat_map(|s| g.nodes().filter(move |&t| t != s).map(move |t| (s, t)))
        .collect()
}

pub struct PaperMatrix {
    seed: u64,
    texts: Vec<String>,
    edges: usize,
    /// Σ over ordered pairs of the benchmark's own BFS distance, per graph.
    dist_sums: Vec<u64>,
    /// Per graph, per router (in [`routers`] order).
    expected: Vec<Vec<Expected>>,
    /// Whether the suite's make-up has been printed.
    reported: bool,
}

impl PaperMatrix {
    /// Draws the suite, then walks every ordered pair of every graph
    /// with each router's `decide` (untimed) and checks each route
    /// against the benchmark's own adjacency and BFS: a walk from s to
    /// t, within the router's dilation bound. Every pass's
    /// `delivery_matrix` report must then match these walks.
    pub fn new(seed: u64) -> Result<PaperMatrix, String> {
        let mut rng = DetRng::seed_from_u64(seed ^ 0x9a9e_12a7);
        let t1 = Alg1.min_locality(N);
        let (mut texts, mut dist_sums) = (Vec::new(), Vec::new());
        let mut have = [0usize; 4];
        while have != QUOTA {
            let g = generators::random_mixed(N, &mut rng);
            let text = inputs::edgelist_text(&g, &inputs::scramble(N, &mut rng));
            let all = Adjacency::parse(&text).all_pairs();
            let class = match (inputs::diameter(&all) > t1, g.edge_count()) {
                (false, 99) => 0,
                (false, 100..=150) => 1,
                (false, _) => 2,
                (true, 100) => 3,
                (true, _) => continue,
            };
            if have[class] < QUOTA[class] {
                have[class] += 1;
                dist_sums.push(all.iter().flatten().map(|&d| u64::from(d)).sum());
                texts.push(text);
            }
        }
        let mut expected = Vec::new();
        for (gi, text) in texts.iter().enumerate() {
            let g = io::from_edgelist_reader(text.as_bytes()).map_err(|e| e.to_string())?;
            let adj = Adjacency::parse(text);
            let dist = adj.all_pairs();
            let pairs = all_pairs(&g);
            let mut per_router = Vec::new();
            for r in routers() {
                let mut want = Expected {
                    hops: 0,
                    worst: 1.0,
                };
                let mut ids = Vec::new();
                probe::walk(&g, r.min_locality(N), r, &pairs, |route| {
                    ids.clear();
                    ids.extend(route.iter().map(|&x| g.label(x).0));
                    let (s, t) = (ids[0], ids[ids.len() - 1]);
                    let (hops, d) = (ids.len() - 1, dist[s as usize][t as usize]);
                    let dilation = hops as f64 / f64::from(d);
                    if !adj.is_walk(&ids) || dilation > dilation_bound(r.name()) + 1e-9 {
                        return Err(format!(
                            "{} routes {s}→{t} in {hops} hops over {ids:?}, \
                             BFS distance {d}, bound {}",
                            r.name(),
                            dilation_bound(r.name())
                        ));
                    }
                    want.hops += hops as u64;
                    want.worst = want.worst.max(dilation);
                    Ok(())
                })
                .map_err(|e| format!("graph {gi}: {e}"))?;
                per_router.push(want);
            }
            expected.push(per_router);
        }
        let edges = texts.iter().map(|t| t.lines().count()).sum();
        Ok(PaperMatrix {
            seed,
            texts,
            edges,
            dist_sums,
            expected,
            reported: false,
        })
    }

    fn parse(&self) -> Result<Vec<Graph>, String> {
        self.texts
            .iter()
            .map(|t| io::from_edgelist_reader(t.as_bytes()).map_err(|e| e.to_string()))
            .collect()
    }
}

impl Workload for PaperMatrix {
    fn pass(&mut self, traced: bool) -> Result<Pass, String> {
        let mut setups = Vec::new();
        let mut graphs = Vec::new();
        for _ in 0..SETUP_REPS {
            let (gs, ns, _) = measure(|| self.parse());
            graphs = gs?;
            setups.push(ns);
        }
        let setup_ns = median(setups);
        let (mut route_ns, mut hops, mut pairs) = (0.0, 0u64, 0u64);
        let mut digest = Fnv::new();
        let mut by_router: BTreeMap<&str, u64> = BTreeMap::new();
        for (gi, g) in graphs.iter().enumerate() {
            for (ri, r) in routers().into_iter().enumerate() {
                let k = r.min_locality(N);
                let (m, ns, _) = measure(|| engine::delivery_matrix(g, k, r));
                route_ns += ns;
                if !m.all_delivered() || m.runs != N * (N - 1) {
                    return Err(format!(
                        "graph {gi}: {} at k={k} delivered {} of {} pairs, first failure {:?}",
                        r.name(),
                        m.runs - m.failures.len(),
                        N * (N - 1),
                        m.failures.first()
                    ));
                }
                let want = &self.expected[gi][ri];
                let worst = m.worst_dilation.map_or(0.0, |(d, _, _)| d);
                if m.total_hops as u64 != want.hops || (worst - want.worst).abs() > 1e-9 {
                    return Err(format!(
                        "graph {gi}: {} routed {} hops, worst dilation {worst}; the walk \
                         of every pair gives {} hops, worst {} by the benchmark's BFS",
                        r.name(),
                        m.total_hops,
                        want.hops,
                        want.worst
                    ));
                }
                if r.name() == "algorithm-3" && m.total_hops as u64 != self.dist_sums[gi] {
                    return Err(format!(
                        "graph {gi}: algorithm-3 routed {} hops, shortest paths sum to {}",
                        m.total_hops, self.dist_sums[gi]
                    ));
                }
                hops += m.total_hops as u64;
                pairs += m.runs as u64;
                *by_router.entry(r.name()).or_default() += m.total_hops as u64;
                digest.u64(m.runs as u64);
                digest.u64(m.total_hops as u64);
                if let Some((d, s, t)) = m.worst_dilation {
                    digest.u64(d.to_bits());
                    digest.u64(u64::from(s.0) << 32 | u64::from(t.0));
                }
            }
        }
        if !self.reported {
            self.reported = true;
            let dist: u64 = self.dist_sums.iter().sum();
            for (name, h) in &by_router {
                eprintln!(
                    "paper-matrix: {name} Σhops/Σdist = {:.4}",
                    *h as f64 / dist as f64
                );
            }
        }
        let mut layers = Vec::new();
        if traced {
            layers.push(("graph.io.parse_ns_per_edge", setup_ns / self.edges as f64));
            layers.push(("core.engine.ns_per_pair", route_ns / pairs as f64));
        }
        Ok(Pass {
            setup_ns,
            route_ns,
            wall_ns: setup_ns + route_ns,
            hops,
            attempted: pairs,
            failed: 0,
            digest: digest.0,
            layers,
        })
    }

    fn probe(
        &mut self,
        pass: &BTreeMap<&'static str, f64>,
    ) -> Result<Vec<(&'static str, f64)>, String> {
        let graphs = self.parse()?;
        let nodes: Vec<NodeId> = (0..N as u32).map(NodeId).collect();
        let mut views = ViewCost::default();
        let mut decide: BTreeMap<&str, (f64, u64)> = BTreeMap::new();
        let (mut children, mut pairs) = (0.0, 0u64);
        for (gi, g) in graphs.iter().enumerate() {
            // One view probe per distinct k: Algorithms 1 and 1B share T(n).
            let mut ks: Vec<u32> = routers().iter().map(|r| r.min_locality(N)).collect();
            ks.dedup();
            for k in ks {
                views.add(&probe::view_cost(g, k, &nodes));
            }
            let all_pairs = all_pairs(g);
            for r in routers() {
                // The matrix's own pairs, in its order, re-walked with
                // extraction and every decide timed apart.
                let replay = probe::replay(g, r.min_locality(N), r, &all_pairs)
                    .map_err(|e| format!("graph {gi}: {e}"))?;
                children += replay.extract_ns + replay.decide_ns;
                let hops: u64 = replay.routes.iter().map(|x| x.len() as u64 - 1).sum();
                let e = decide.entry(r.name()).or_default();
                e.0 += replay.decide_ns_per_hop(g, r) * hops as f64;
                e.1 += hops;
                pairs += all_pairs.len() as u64;
            }
        }
        // The pass never reaches the simulator or the trace layers; they
        // are probed on the suite's last graph (a bare cycle, beyond
        // T(n)) so that every traced run prints every metric: traced and
        // untraced twins of Algorithm 1 at T(n) on a traffic sample.
        let g = graphs.last().expect("the suite is not empty");
        let mut rng = DetRng::seed_from_u64(self.seed ^ 0x9a0b_e500);
        let traffic: Vec<(u32, u32)> = (0..SIM_MESSAGES)
            .map(|_| {
                let s = rng.gen_range(0..N as u32);
                (s, (s + 1 + rng.gen_range(0..N as u32 - 1)) % N as u32)
            })
            .collect();
        let k = Alg1.min_locality(N);
        let trial = |traced| Trial {
            graph: g,
            k,
            traffic: &traffic,
            faults: FaultConfig::default(),
            plan: Default::default(),
            traced,
        };
        let (added, plain, traced) = layers::twins(trial, Alg1, TWINS);
        let tr = sim::analyze_trace(&traced.trace, g, k, &Alg1);
        tr.replay.as_ref().map_err(|e| format!("replay: {e}"))?;
        let mut trace = TraceTotals::default();
        trace.add(&traced, &tr);

        let (ns, hops) = decide
            .values()
            .fold((0.0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
        let alg1 = decide["algorithm-1"];
        let mut out = Vec::new();
        views.metrics(&mut out);
        out.push(("core.decide.ns_per_hop", ns / hops.max(1) as f64));
        out.push((
            "core.engine.self_ns_per_pair",
            pass["core.engine.ns_per_pair"] - children / pairs as f64,
        ));
        plain.metrics(&mut out);
        out.push((
            "sim.run.self_ns_per_hop",
            plain.route_ns_per_hop() - alg1.0 / alg1.1.max(1) as f64,
        ));
        trace.metrics(&mut out);
        out.push(("obs.record.ns_per_hop", added));
        Ok(out)
    }
}
