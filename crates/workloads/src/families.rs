//! Extra [`GraphFamily`] implementations beyond the paper's `G`/`U`/`J` classes.
//!
//! The paper's constructions are adversarial *worst cases*; benchmarking the engine
//! also needs ordinary topologies across the diameter spectrum (the round complexity
//! of election-style tasks is tied to the diameter, so low- and high-diameter families
//! stress different parts of the pipeline):
//!
//! * [`RandomRegularFamily`] — `d`-regular graphs from the pairing (configuration)
//!   model, retried until simple and connected; diameter `Θ(log n)` for `d ≥ 3`;
//! * [`TorusFamily`] — 2D `w × h` tori; diameter `Θ(w + h)`;
//! * [`HypercubeFamily`] — `d`-dimensional hypercubes; diameter `d = log₂ n`;
//! * [`CirculantFamily`] — circulant graphs with geometric (powers-of-two) offsets,
//!   a classical low-diameter expander-like family.
//!
//! Every instance is a validated [`PortGraph`] (ports `0..deg` per node, involutive
//! port map, simple, connected — checked at construction). The canonical port
//! labellings of tori, hypercubes and circulants are fully symmetric, hence
//! *infeasible* for leader election (every node has the same view); a
//! [`PortLabeling::Shuffled`] labelling permutes the ports at every node with the
//! in-tree SplitMix64 PRNG, which typically breaks the symmetry and yields feasible
//! instances while preserving the topology. All families are deterministic per seed.

use anet_constructions::{FamilyInstance, GraphFamily};
use anet_graph::rng::Rng;
use anet_graph::{permute, GraphBuilder, NodeId, Port, PortGraph};

/// How ports are labelled on an instance after the topology is generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortLabeling {
    /// Keep the generator's canonical labelling (symmetric for tori, hypercubes and
    /// circulants — such instances are infeasible for election, which is itself a
    /// scenario worth sweeping: the engine must report them as unsolved, not fail).
    Canonical,
    /// Shuffle the port labels at every node with a SplitMix64 PRNG seeded from the
    /// given seed (mixed with the instance parameter, so instances of one family get
    /// decorrelated shuffles). Deterministic per seed.
    Shuffled(u64),
}

impl PortLabeling {
    /// Apply the labelling to a freshly generated instance. `salt` is the instance
    /// parameter, mixed into the seed so each instance shuffles differently.
    fn apply(self, graph: PortGraph, salt: u64) -> PortGraph {
        match self {
            PortLabeling::Canonical => graph,
            PortLabeling::Shuffled(seed) => {
                let mut rng = Rng::seed(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let perms: Vec<Vec<Port>> = graph
                    .nodes()
                    .map(|v| {
                        let mut p: Vec<Port> = (0..graph.degree(v) as Port).collect();
                        rng.shuffle(&mut p);
                        p
                    })
                    .collect();
                permute::permute_ports(&graph, &perms)
                    .expect("a port permutation of a valid graph is valid")
            }
        }
    }

    /// Short suffix for family display names.
    fn tag(self) -> String {
        match self {
            PortLabeling::Canonical => String::new(),
            PortLabeling::Shuffled(seed) => format!(", ports~{seed}"),
        }
    }
}

/// Random `d`-regular graphs from the pairing (configuration) model: `d` stubs per
/// node, a uniformly random perfect matching on the stubs, resampled until the result
/// is simple *and* connected. For `d ≥ 3` a uniform pairing is simple with constant
/// probability and connected with probability `1 − o(1)`, so the retry loop terminates
/// quickly; the whole procedure is deterministic for a fixed seed.
///
/// Ports are assigned in stub-matching order, which is itself uniformly random — no
/// extra shuffle is needed to obtain a "random" port labelling.
#[derive(Debug, Clone)]
pub struct RandomRegularFamily {
    /// Degree of every node (`d ≥ 3` recommended; `n · d` must be even).
    pub degree: usize,
    /// Node counts to instantiate, one instance per entry.
    pub sizes: Vec<usize>,
    /// PRNG seed (mixed per size).
    pub seed: u64,
}

/// Attempts before giving up on one (n, d) pair. A uniform pairing of a 4-regular
/// graph is simple with probability ≈ e^{-3.75} ≈ 2.3%, so a few thousand attempts
/// make failure astronomically unlikely while staying cheap (each attempt is `O(nd)`).
const PAIRING_ATTEMPTS: usize = 5_000;

impl RandomRegularFamily {
    /// A family of `degree`-regular graphs at the given sizes.
    pub fn new(degree: usize, sizes: Vec<usize>, seed: u64) -> Self {
        RandomRegularFamily {
            degree,
            sizes,
            seed,
        }
    }

    /// One pairing-model sample: `None` if this pairing produced a self-loop, a
    /// parallel edge, or a disconnected graph.
    fn sample(n: usize, d: usize, rng: &mut Rng) -> Option<PortGraph> {
        let mut stubs: Vec<NodeId> = (0..n as NodeId).flat_map(|v| [v].repeat(d)).collect();
        rng.shuffle(&mut stubs);
        let mut adj: Vec<Vec<(NodeId, Port)>> = vec![Vec::with_capacity(d); n];
        for pair in stubs.chunks_exact(2) {
            let (a, b) = (pair[0], pair[1]);
            if a == b || adj[a as usize].iter().any(|&(u, _)| u == b) {
                return None; // self-loop or parallel edge: reject the whole pairing
            }
            let pa = adj[a as usize].len() as Port;
            let pb = adj[b as usize].len() as Port;
            adj[a as usize].push((b, pb));
            adj[b as usize].push((a, pa));
        }
        // `from_adjacency` re-validates everything, including connectivity.
        PortGraph::from_adjacency(adj).ok()
    }

    /// Generate the `n`-node member (retry-until-simple). Panics only if
    /// 5000 pairings (`PAIRING_ATTEMPTS`) all fail, which for `d ≥ 3` and `n·d` even is
    /// practically impossible.
    pub fn generate(&self, n: usize) -> PortGraph {
        assert!(self.degree >= 2, "random-regular requires degree >= 2");
        assert!(
            n > self.degree,
            "random-regular requires n > d (simple graph)"
        );
        assert!(
            (n * self.degree).is_multiple_of(2),
            "random-regular requires n * d even"
        );
        let mut rng = Rng::seed(self.seed ^ (n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        for _ in 0..PAIRING_ATTEMPTS {
            if let Some(g) = Self::sample(n, self.degree, &mut rng) {
                return g;
            }
        }
        panic!(
            "pairing model failed to produce a simple connected {}-regular graph on {} nodes in {} attempts",
            self.degree, n, PAIRING_ATTEMPTS
        );
    }
}

impl GraphFamily for RandomRegularFamily {
    fn family_name(&self) -> String {
        format!("random-regular(d={}, seed={})", self.degree, self.seed)
    }

    fn instance_cache_key(&self) -> String {
        // The display name omits the size list, so it alone must not key a cache.
        format!("{} sizes={:?}", self.family_name(), self.sizes)
    }

    fn instances(&self, max_instances: usize) -> Vec<FamilyInstance> {
        self.sizes
            .iter()
            .take(max_instances)
            .map(|&n| {
                FamilyInstance::new(
                    format!("{} n={n}", self.family_name()),
                    n as u64,
                    self.generate(n),
                )
            })
            .collect()
    }
}

/// 2D tori (`w × h` grids with wraparound, `w, h ≥ 3` so the graph stays simple).
/// Every node has degree 4; the canonical ports are 0 = east, 1 = west, 2 = south,
/// 3 = north, which makes the network fully symmetric (vertex- and port-transitive).
/// Diameter `⌊w/2⌋ + ⌊h/2⌋` — the high-diameter end of the workload spectrum.
#[derive(Debug, Clone)]
pub struct TorusFamily {
    /// `(width, height)` pairs to instantiate, one instance per entry.
    pub dims: Vec<(usize, usize)>,
    /// Port labelling applied to every instance.
    pub labeling: PortLabeling,
}

impl TorusFamily {
    /// A torus family with canonical port labels.
    pub fn new(dims: Vec<(usize, usize)>) -> Self {
        TorusFamily {
            dims,
            labeling: PortLabeling::Canonical,
        }
    }

    /// Switch every instance to a seed-shuffled port labelling.
    pub fn shuffled(mut self, seed: u64) -> Self {
        self.labeling = PortLabeling::Shuffled(seed);
        self
    }

    /// Build the `w × h` torus with canonical ports.
    pub fn generate(w: usize, h: usize) -> PortGraph {
        assert!(w >= 3 && h >= 3, "torus requires w, h >= 3 (simple graph)");
        let id = |x: usize, y: usize| (y * w + x) as NodeId;
        let mut b = GraphBuilder::with_nodes(w * h);
        for y in 0..h {
            for x in 0..w {
                // East edge: port 0 here, port 1 at the east neighbour.
                b.add_edge(id(x, y), 0, id((x + 1) % w, y), 1)
                    .expect("torus edge");
                // South edge: port 2 here, port 3 at the south neighbour.
                b.add_edge(id(x, y), 2, id(x, (y + 1) % h), 3)
                    .expect("torus edge");
            }
        }
        b.build().expect("torus is a valid network")
    }
}

impl GraphFamily for TorusFamily {
    fn family_name(&self) -> String {
        format!("torus2d{}", self.labeling.tag())
    }

    fn instance_cache_key(&self) -> String {
        // The display name omits the dimension list, so it alone must not key a cache.
        format!("{} dims={:?}", self.family_name(), self.dims)
    }

    fn instances(&self, max_instances: usize) -> Vec<FamilyInstance> {
        self.dims
            .iter()
            .take(max_instances)
            .map(|&(w, h)| {
                let n = (w * h) as u64;
                let graph = self.labeling.apply(Self::generate(w, h), n);
                FamilyInstance::new(format!("torus {w}x{h}{}", self.labeling.tag()), n, graph)
            })
            .collect()
    }
}

/// `d`-dimensional hypercubes (`2^d` nodes, degree `d`, diameter `d`): the classic
/// logarithmic-diameter symmetric interconnect. Canonically the edge flipping bit `b`
/// uses port `b` at both endpoints (fully symmetric, infeasible for election).
#[derive(Debug, Clone)]
pub struct HypercubeFamily {
    /// Dimensions to instantiate, one instance per entry.
    pub dims: Vec<usize>,
    /// Port labelling applied to every instance.
    pub labeling: PortLabeling,
}

impl HypercubeFamily {
    /// A hypercube family with canonical port labels.
    pub fn new(dims: Vec<usize>) -> Self {
        HypercubeFamily {
            dims,
            labeling: PortLabeling::Canonical,
        }
    }

    /// Switch every instance to a seed-shuffled port labelling.
    pub fn shuffled(mut self, seed: u64) -> Self {
        self.labeling = PortLabeling::Shuffled(seed);
        self
    }
}

impl GraphFamily for HypercubeFamily {
    fn family_name(&self) -> String {
        format!("hypercube{}", self.labeling.tag())
    }

    fn instance_cache_key(&self) -> String {
        // The display name omits the dimension list, so it alone must not key a cache.
        format!("{} dims={:?}", self.family_name(), self.dims)
    }

    fn instances(&self, max_instances: usize) -> Vec<FamilyInstance> {
        self.dims
            .iter()
            .take(max_instances)
            .map(|&d| {
                let graph = anet_graph::generators::hypercube(d).expect("valid dimension");
                let n = graph.num_nodes() as u64;
                let graph = self.labeling.apply(graph, n);
                FamilyInstance::new(format!("hypercube d={d}{}", self.labeling.tag()), n, graph)
            })
            .collect()
    }
}

/// Circulant graphs `C_n(1, 2, 4, …, 2^{t−1})` with geometric offsets: node `i` is
/// joined to `i ± 2^j (mod n)` for each offset. With `t ≈ log₂ n` offsets these are
/// classical low-diameter expander-like networks (diameter `O(n / 2^t + t)`); every
/// node has degree `2t` exactly. Canonically offset `j` uses port `2j` clockwise and
/// port `2j + 1` counter-clockwise at every node — again fully symmetric.
#[derive(Debug, Clone)]
pub struct CirculantFamily {
    /// Node counts to instantiate, one instance per entry.
    pub sizes: Vec<usize>,
    /// Number of geometric offsets `t` (offsets `1, 2, …, 2^{t−1}`; each must stay
    /// below `n/2`, enforced per instance).
    pub num_offsets: usize,
    /// Port labelling applied to every instance.
    pub labeling: PortLabeling,
}

impl CirculantFamily {
    /// A circulant family `C_n(1, 2, …, 2^{t−1})` with canonical port labels.
    pub fn powers_of_two(sizes: Vec<usize>, num_offsets: usize) -> Self {
        CirculantFamily {
            sizes,
            num_offsets,
            labeling: PortLabeling::Canonical,
        }
    }

    /// Switch every instance to a seed-shuffled port labelling.
    pub fn shuffled(mut self, seed: u64) -> Self {
        self.labeling = PortLabeling::Shuffled(seed);
        self
    }

    /// Build `C_n(1, 2, …, 2^{t−1})` with canonical ports.
    pub fn generate(n: usize, num_offsets: usize) -> PortGraph {
        assert!(num_offsets >= 1, "circulant requires at least one offset");
        let largest = 1usize << (num_offsets - 1);
        assert!(
            2 * largest < n,
            "circulant offsets must stay below n/2 (largest offset {largest}, n = {n})"
        );
        let mut b = GraphBuilder::with_nodes(n);
        for j in 0..num_offsets {
            let s = 1usize << j;
            for i in 0..n {
                // Edge i -> i+s: port 2j ("clockwise") at i, port 2j+1 at i+s.
                b.add_edge(
                    i as NodeId,
                    2 * j as Port,
                    ((i + s) % n) as NodeId,
                    (2 * j + 1) as Port,
                )
                .expect("circulant edge");
            }
        }
        b.build().expect("circulant is a valid network")
    }
}

impl GraphFamily for CirculantFamily {
    fn family_name(&self) -> String {
        format!(
            "circulant(2^j, t={}){}",
            self.num_offsets,
            self.labeling.tag()
        )
    }

    fn instance_cache_key(&self) -> String {
        // The display name omits the size list, so it alone must not key a cache.
        format!("{} sizes={:?}", self.family_name(), self.sizes)
    }

    fn instances(&self, max_instances: usize) -> Vec<FamilyInstance> {
        self.sizes
            .iter()
            .take(max_instances)
            .map(|&n| {
                let graph = self
                    .labeling
                    .apply(Self::generate(n, self.num_offsets), n as u64);
                FamilyInstance::new(
                    format!(
                        "circulant n={n} t={}{}",
                        self.num_offsets,
                        self.labeling.tag()
                    ),
                    n as u64,
                    graph,
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The model invariant the whole workspace rests on: the port map must be an
    /// involution — the edge at port `p` of `v` leads to some `(u, q)` whose port `q`
    /// leads straight back to `(v, p)`.
    fn assert_port_involution(g: &PortGraph) {
        for v in g.nodes() {
            for (p, u, q) in g.ports(v) {
                assert_eq!(
                    g.neighbor(u, q),
                    Some((v, p)),
                    "port map must be involutive at ({v}, {p})"
                );
            }
        }
    }

    fn assert_connected(g: &PortGraph) {
        let reached = g.bfs_distances(0).iter().filter(|&&d| d < u32::MAX).count();
        assert_eq!(reached, g.num_nodes(), "graph must be connected");
    }

    #[test]
    fn random_regular_is_regular_connected_involutive_and_deterministic() {
        for (d, n) in [(3usize, 16usize), (4, 21), (4, 50)] {
            let fam = RandomRegularFamily::new(d, vec![n], 0xA5EED);
            let g = fam.generate(n);
            assert_eq!(g.num_nodes(), n);
            assert_eq!(g.degree_sequence(), vec![d; n], "exactly {d}-regular");
            assert_connected(&g);
            assert_port_involution(&g);
            // Seed-determinism: same seed → identical graph; different seed → different.
            assert_eq!(g, fam.generate(n));
            let other = RandomRegularFamily::new(d, vec![n], 0xA5EED + 1).generate(n);
            assert_ne!(g, other, "different seeds should differ");
        }
    }

    #[test]
    fn random_regular_family_enumerates_sizes() {
        let fam = RandomRegularFamily::new(3, vec![16, 24, 32], 7);
        let instances = fam.instances(2);
        assert_eq!(instances.len(), 2);
        assert_eq!(instances[0].param, 16);
        assert_eq!(instances[1].param, 24);
        assert!(instances[0].name.contains("random-regular"));
    }

    #[test]
    #[should_panic(expected = "n * d even")]
    fn random_regular_rejects_odd_stub_count() {
        RandomRegularFamily::new(3, vec![15], 1).generate(15);
    }

    #[test]
    fn torus_has_exact_degrees_diameter_and_involution() {
        let g = TorusFamily::generate(4, 5);
        assert_eq!(g.num_nodes(), 20);
        assert_eq!(g.num_edges(), 40);
        assert_eq!(g.degree_sequence(), vec![4; 20]);
        assert_connected(&g);
        assert_port_involution(&g);
        assert_eq!(g.diameter(), 2 + 2, "⌊4/2⌋ + ⌊5/2⌋");
        // Canonical port convention: port 0 (east) is answered by port 1 (west).
        for v in g.nodes() {
            let (_, q) = g.neighbor(v, 0).unwrap();
            assert_eq!(q, 1);
        }
    }

    #[test]
    fn shuffled_torus_keeps_topology_and_is_deterministic() {
        let fam = TorusFamily::new(vec![(3, 4)]).shuffled(99);
        let a = fam.instances(1).remove(0);
        let b = fam.instances(1).remove(0);
        assert_eq!(a.graph, b.graph, "same seed must give the same labelling");
        assert_eq!(a.graph.degree_sequence(), vec![4; 12]);
        assert_eq!(a.graph.diameter(), TorusFamily::generate(3, 4).diameter());
        assert_port_involution(&a.graph);
        let c = TorusFamily::new(vec![(3, 4)])
            .shuffled(100)
            .instances(1)
            .remove(0);
        assert_ne!(a.graph, c.graph, "different shuffle seeds should differ");
    }

    #[test]
    fn hypercube_family_matches_generator_and_shuffles_validly() {
        let canonical = HypercubeFamily::new(vec![3]).instances(1).remove(0);
        assert_eq!(
            canonical.graph,
            anet_graph::generators::hypercube(3).unwrap()
        );
        let shuffled = HypercubeFamily::new(vec![3, 4]).shuffled(5).instances(2);
        assert_eq!(shuffled.len(), 2);
        for inst in &shuffled {
            assert_eq!(
                inst.graph.degree_sequence(),
                vec![(inst.param as f64).log2() as usize; inst.param as usize]
            );
            assert_connected(&inst.graph);
            assert_port_involution(&inst.graph);
        }
    }

    #[test]
    fn circulant_is_2t_regular_low_diameter_and_involutive() {
        let g = CirculantFamily::generate(24, 3); // offsets 1, 2, 4
        assert_eq!(g.num_nodes(), 24);
        assert_eq!(g.degree_sequence(), vec![6; 24]);
        assert_connected(&g);
        assert_port_involution(&g);
        // Diameter is far below the ring's ⌊n/2⌋ thanks to the geometric offsets.
        assert!(g.diameter() <= 5, "diameter {} too large", g.diameter());
    }

    #[test]
    #[should_panic(expected = "below n/2")]
    fn circulant_rejects_too_large_offsets() {
        CirculantFamily::generate(8, 3); // largest offset 4 = 8/2
    }

    #[test]
    fn circulant_family_instances_are_seed_deterministic() {
        let fam = CirculantFamily::powers_of_two(vec![15, 24], 3).shuffled(42);
        let a = fam.instances(2);
        let b = fam.instances(2);
        assert_eq!(a.len(), 2);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.graph, y.graph);
            assert_port_involution(&x.graph);
        }
        // The two instances get decorrelated shuffles (different salts).
        assert_ne!(a[0].graph, a[1].graph);
    }
}
