//! Seeded inputs, and the benchmark's own view of them.
//!
//! Every workload hands the program edge-list text (`u v` per line) and
//! nothing else; the program parses it through `graph::io`. The
//! checks never trust the program's graph: [`Adjacency`] is parsed from
//! the same text here, and [`Adjacency::bfs`] is an independent BFS.

use locality_graph::rng::DetRng;
use locality_graph::{generators, Graph};

/// Writes `g` as edge-list text with node `u` renamed `perm[u]`. The
/// edge-list format carries no labels (the parser gives node `i` label
/// `i`), so renaming the ids is how the labels get scrambled.
pub fn edgelist_text(g: &Graph, perm: &[u32]) -> String {
    let mut out = String::with_capacity(g.edge_count() * 12);
    for (u, v) in g.edges() {
        out.push_str(&format!("{} {}\n", perm[u.index()], perm[v.index()]));
    }
    out
}

/// A uniformly random permutation of `0..n`.
pub fn scramble(n: usize, rng: &mut DetRng) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..n as u32).collect();
    rng.shuffle(&mut perm);
    perm
}

/// Cycle `0..n` plus the given chords.
pub fn cycle_with_chords(n: usize, chords: &[(u32, u32)]) -> Graph {
    let mut edges: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
    edges.extend_from_slice(chords);
    Graph::from_edges(n, &edges).expect("cycle with distinct chords is simple")
}

/// The ring lattice of `generators::ring_lattice`, ids unchanged (the
/// ring router reads labels as ring positions).
pub fn ring_lattice_text(n: usize, c: usize) -> String {
    edgelist_text(
        &generators::ring_lattice(n, c),
        &(0..n as u32).collect::<Vec<_>>(),
    )
}

/// Undirected adjacency parsed from edge-list text by the benchmark
/// itself.
pub struct Adjacency {
    adj: Vec<Vec<u32>>,
}

impl Adjacency {
    /// Parses `u v` lines.
    pub fn parse(text: &str) -> Adjacency {
        let mut pairs = Vec::new();
        let mut max = 0u32;
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let mut it = line
                .split_whitespace()
                .map(|x| x.parse::<u32>().expect("id"));
            let (u, v) = (it.next().expect("u"), it.next().expect("v"));
            max = max.max(u).max(v);
            pairs.push((u, v));
        }
        let mut adj = vec![Vec::new(); max as usize + 1];
        for &(u, v) in &pairs {
            adj[u as usize].push(v);
            adj[v as usize].push(u);
        }
        Adjacency { adj }
    }

    /// Node count.
    pub fn n(&self) -> usize {
        self.adj.len()
    }

    /// Whether `{u, v}` is an edge.
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.adj.get(u as usize).is_some_and(|a| a.contains(&v))
    }

    /// Hop distances from `s` (`u32::MAX` = unreachable).
    pub fn bfs(&self, s: u32) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.adj.len()];
        let mut queue = std::collections::VecDeque::new();
        dist[s as usize] = 0;
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            for &w in &self.adj[u as usize] {
                if dist[w as usize] == u32::MAX {
                    dist[w as usize] = dist[u as usize] + 1;
                    queue.push_back(w);
                }
            }
        }
        dist
    }

    /// All-pairs distances, row `s` = [`bfs`](Self::bfs)`(s)`.
    pub fn all_pairs(&self) -> Vec<Vec<u32>> {
        (0..self.n() as u32).map(|s| self.bfs(s)).collect()
    }

    /// Whether `path` is a walk: consecutive nodes are adjacent.
    pub fn is_walk(&self, path: &[u32]) -> bool {
        path.windows(2).all(|w| self.has_edge(w[0], w[1]))
    }
}

/// Diameter from all-pairs distances.
pub fn diameter(all: &[Vec<u32>]) -> u32 {
    all.iter().flatten().copied().max().unwrap_or(0)
}
