//! Per-layer probes: calls into single layers' public functions on a
//! workload's own inputs, timed one layer at a time.

use local_routing::{engine, LocalRouter, LocalView, Packet};
use locality_graph::{neighborhood, Graph, NodeId};

use crate::alloc::measure;

/// Totals over a set of freshly extracted views.
#[derive(Default)]
pub struct ViewCost {
    /// Views probed.
    pub views: u64,
    /// `k_neighborhood_with_distances`.
    pub bfs_ns: f64,
    /// Bytes it allocated.
    pub bfs_bytes: u64,
    /// `LocalView::extract`.
    pub extract_ns: f64,
    /// Bytes it allocated.
    pub extract_bytes: u64,
    /// First `shortest_step_toward` on a fresh view.
    pub step_ns: f64,
    /// First `routing_view()` (the `G'_k(u)` preprocess).
    pub preprocess_ns: f64,
    /// Bytes it allocated.
    pub preprocess_bytes: u64,
}

impl ViewCost {
    /// Adds another probe's totals.
    pub fn add(&mut self, o: &ViewCost) {
        self.views += o.views;
        self.bfs_ns += o.bfs_ns;
        self.bfs_bytes += o.bfs_bytes;
        self.extract_ns += o.extract_ns;
        self.extract_bytes += o.extract_bytes;
        self.step_ns += o.step_ns;
        self.preprocess_ns += o.preprocess_ns;
        self.preprocess_bytes += o.preprocess_bytes;
    }

    /// The per-view layer metrics.
    pub fn metrics(&self, out: &mut Vec<(&'static str, f64)>) {
        let v = self.views.max(1) as f64;
        out.push(("graph.bfs.ns_per_view", self.bfs_ns / v));
        out.push(("graph.bfs.bytes_per_view", self.bfs_bytes as f64 / v));
        out.push(("core.view.extract_ns_per_view", self.extract_ns / v));
        out.push((
            "core.view.extract_bytes_per_view",
            self.extract_bytes as f64 / v,
        ));
        out.push(("core.view.step_table_ns_per_view", self.step_ns / v));
        out.push(("core.preprocess.ns_per_view", self.preprocess_ns / v));
        out.push((
            "core.preprocess.bytes_per_view",
            self.preprocess_bytes as f64 / v,
        ));
    }
}

/// Extracts `G_k(u)` for every `u` in `nodes` and times each stage on
/// its own fresh view.
pub fn view_cost(g: &Graph, k: u32, nodes: &[NodeId]) -> ViewCost {
    let mut c = ViewCost {
        views: nodes.len() as u64,
        ..ViewCost::default()
    };
    for &u in nodes {
        let (sub, ns, bytes) = measure(|| neighborhood::k_neighborhood_with_distances(g, u, k));
        drop(sub);
        c.bfs_ns += ns;
        c.bfs_bytes += bytes;
        let (view, ns, bytes) = measure(|| LocalView::extract(g, u, k));
        c.extract_ns += ns;
        c.extract_bytes += bytes;
        let far = view
            .raw()
            .node_slice()
            .iter()
            .copied()
            .filter(|&x| x != u)
            .max();
        if let Some(far) = far {
            let (_, ns, _) = measure(|| view.shortest_step_toward(far));
            c.step_ns += ns;
        }
        let (_, ns, bytes) = measure(|| view.routing_view().sub.node_count());
        c.preprocess_ns += ns;
        c.preprocess_bytes += bytes;
    }
    c
}

/// Cost of one empty [`measure`] span, subtracted from per-call spans.
fn timer_overhead_ns() -> f64 {
    let mut v: Vec<f64> = (0..1001).map(|_| measure(|| ()).1).collect();
    v.sort_by(f64::total_cmp);
    v[500]
}

/// The engine's routes re-walked call by call on a view map shared
/// across pairs, as `delivery_matrix_for_pairs` shares its cache: each
/// view is extracted on first touch and every decision is timed,
/// including the lazy view work it triggers.
pub struct Replay {
    /// One route per pair.
    pub routes: Vec<Vec<NodeId>>,
    /// `LocalView::extract` time.
    pub extract_ns: f64,
    /// `decide` time, cold views included.
    pub decide_ns: f64,
    views: Vec<Option<LocalView>>,
}

/// Walks every pair with `router.decide`, keeping every route; see
/// [`walk`].
pub fn replay<R: LocalRouter + ?Sized>(
    g: &Graph,
    k: u32,
    router: &R,
    pairs: &[(NodeId, NodeId)],
) -> Result<Replay, String> {
    let mut routes = Vec::with_capacity(pairs.len());
    let mut r = walk(g, k, router, pairs, |route| {
        routes.push(route.to_vec());
        Ok(())
    })?;
    r.routes = routes;
    Ok(r)
}

/// Walks every pair with `router.decide` and hands each finished route
/// to `on_route`, keeping none. `Err` if a decision names a
/// non-neighbour, a walk outlasts the engine's own step cap, or
/// `on_route` fails.
pub fn walk<R: LocalRouter + ?Sized>(
    g: &Graph,
    k: u32,
    router: &R,
    pairs: &[(NodeId, NodeId)],
    mut on_route: impl FnMut(&[NodeId]) -> Result<(), String>,
) -> Result<Replay, String> {
    let overhead = timer_overhead_ns();
    let awareness = router.awareness();
    let cap = 8 * g.node_count() * g.node_count() + 16;
    let mut r = Replay {
        routes: Vec::new(),
        extract_ns: 0.0,
        decide_ns: 0.0,
        views: (0..g.node_count()).map(|_| None).collect(),
    };
    let mut route = Vec::new();
    for &(s, t) in pairs {
        route.clear();
        route.push(s);
        let mut pred: Option<NodeId> = None;
        let mut at = s;
        while at != t {
            if route.len() > cap {
                return Err(format!(
                    "{}: {s:?}→{t:?} outran the step cap",
                    router.name()
                ));
            }
            let slot = &mut r.views[at.index()];
            if slot.is_none() {
                let (v, ns, _) = measure(|| LocalView::extract(g, at, k));
                r.extract_ns += ns - overhead;
                *slot = Some(v);
            }
            let view = slot.as_ref().expect("extracted above");
            let packet =
                Packet::new(g.label(s), g.label(t), pred.map(|p| g.label(p))).masked(awareness);
            let (next, ns, _) = measure(|| router.decide(&packet, view));
            r.decide_ns += ns - overhead;
            let next = next.map_err(|e| format!("{}: {e}", router.name()))?;
            let next = g
                .node_by_label(next)
                .filter(|&x| g.has_edge(at, x))
                .ok_or(format!("{}: invalid decision at {at:?}", router.name()))?;
            route.push(next);
            pred = Some(at);
            at = next;
        }
        on_route(&route)?;
    }
    Ok(r)
}

impl Replay {
    /// Takes recorded routes (a simulator's, say) and extracts, untimed,
    /// a view for every node that decided on them.
    pub fn from_routes(g: &Graph, k: u32, routes: Vec<Vec<NodeId>>) -> Replay {
        let mut views: Vec<Option<LocalView>> = (0..g.node_count()).map(|_| None).collect();
        for route in &routes {
            for &u in &route[..route.len().saturating_sub(1)] {
                views[u.index()].get_or_insert_with(|| LocalView::extract(g, u, k));
            }
        }
        Replay {
            routes,
            extract_ns: 0.0,
            decide_ns: 0.0,
            views,
        }
    }

    /// Warm `decide` cost per hop: every hop is decided once untimed
    /// (building whatever the router reads lazily), then again under one
    /// timer.
    pub fn decide_ns_per_hop<R: LocalRouter + ?Sized>(&self, g: &Graph, router: &R) -> f64 {
        self.warm_decide(g, router);
        let (ns, hops) = self.warm_decide(g, router);
        ns / hops.max(1) as f64
    }

    /// Decides every hop under one timer. Returns `(ns, hops)`.
    fn warm_decide<R: LocalRouter + ?Sized>(&self, g: &Graph, router: &R) -> (f64, u64) {
        let awareness = router.awareness();
        let mut hops = Vec::new();
        for route in &self.routes {
            let (s, t) = (route[0], route[route.len() - 1]);
            for i in 0..route.len() - 1 {
                let pred = (i > 0).then(|| g.label(route[i - 1]));
                hops.push((
                    route[i],
                    Packet::new(g.label(s), g.label(t), pred).masked(awareness),
                ));
            }
        }
        let ((), ns, _) = measure(|| {
            for (u, packet) in &hops {
                let view = self.views[u.index()].as_ref().expect("replayed above");
                let _ = std::hint::black_box(router.decide(packet, view));
            }
        });
        (ns, hops.len() as u64)
    }
}

/// Times `delivery_matrix_for_pairs` over `pairs` and subtracts the
/// children timed apart by [`replay`] (view extraction and every
/// decide). The two alternate three times and the medians are used, as
/// the children are most of the span. Returns
/// `(ns_per_pair, self_ns_per_pair, replay)`.
pub fn engine_cost<R: LocalRouter + ?Sized>(
    g: &Graph,
    k: u32,
    router: &R,
    pairs: &[(NodeId, NodeId)],
) -> Result<(f64, f64, Replay), String> {
    let (mut spans, mut children) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..3 {
        let (_, ns, _) =
            measure(|| engine::delivery_matrix_for_pairs(g, k, router, pairs.iter().copied()));
        spans.push(ns);
        let r = replay(g, k, router, pairs)?;
        children.push(r.extract_ns + r.decide_ns);
        last = Some(r);
    }
    let (span, children) = (crate::median(spans), crate::median(children));
    let p = pairs.len().max(1) as f64;
    Ok((span / p, (span - children) / p, last.expect("three rounds")))
}
