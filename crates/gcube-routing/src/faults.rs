//! The paper's fault model: fault sets, the A/B/C taxonomy (Definitions
//! 3–5), the per-subcube tolerance bound `N(α,k)` and aggregate bound
//! `T(GC)` (Theorem 3 / Figure 4), and the Theorem-5 precondition over
//! exchanged-hypercube crossings.
//!
//! * **A-category** — a *link* fault in a dimension `c ≥ α`. Such faults
//!   only perturb routing *inside* a `GEEC(α,k,t)` subcube.
//! * **B-category** — an error whose failed links all lie in dimensions
//!   `< α`: either a link fault with `c < α`, or a node fault at a node with
//!   no incident link in any dimension `≥ α`.
//! * **C-category** — a node fault that breaks links on both sides of `α`.
//!
//! B and C faults can block a Gaussian-tree edge crossing; Theorem 5 bounds
//! how many the strategy absorbs by viewing each crossing neighbourhood as
//! an exchanged hypercube.

use std::collections::{BTreeSet, HashSet};
use std::fmt;

use gcube_topology::classes::{dim_count, dims, n_bound_paper, subcube_pos};
use gcube_topology::{GaussianCube, GaussianTree, LinkId, LinkMask, NodeId, Topology};

/// A set of faulty nodes and faulty links: the one store of fault state,
/// probed alike by routing, forwarding and injection.
///
/// Per the simulator's assumption (3), a faulty node makes all of its
/// incident links faulty; [`FaultSet::is_link_usable`] accounts for that.
///
/// Faults are kept in two ordered sets, so iteration is ascending and
/// O(faults), and every probe is an O(1) bit test on a dead-node bitset
/// and per-dimension dead-link bitsets keyed by each link's bit-clear
/// endpoint. A bitset grows, through a zeroed allocation, to the highest
/// faulty id rounded up to a power-of-two word count, so it never exceeds
/// a `2^n`-node cube's `2^n` bits; an empty set owns no heap memory.
///
/// The set carries a [`generation`](FaultSet::generation) change stamp so
/// observers (the simulator's routing view) can detect "nothing changed
/// since I last looked" without comparing the whole set. Equality ignores
/// the stamp: two sets are equal iff their faults are.
#[derive(Clone, Debug, Default)]
pub struct FaultSet {
    nodes: BTreeSet<NodeId>,
    links: BTreeSet<LinkId>,
    /// Bit `v` is set iff node `v` is in `nodes`.
    dead_nodes: Vec<u64>,
    /// `dead_links[dim]`: bit `lo` is set iff link `(lo, dim)` is in `links`.
    dead_links: Vec<Vec<u64>>,
    generation: u64,
}

impl PartialEq for FaultSet {
    fn eq(&self, other: &FaultSet) -> bool {
        self.nodes == other.nodes && self.links == other.links
    }
}

impl Eq for FaultSet {}

/// Whether bit `v` is set; bits past the end read as clear.
#[inline]
fn bit(bits: &[u64], v: u64) -> bool {
    let word = usize::try_from(v / 64).ok().and_then(|w| bits.get(w));
    word.is_some_and(|w| w >> (v % 64) & 1 != 0)
}

/// Set bit `v`, first growing `bits` to a power-of-two word count through
/// a zeroed allocation, which touches only the pages written.
fn set_bit(bits: &mut Vec<u64>, v: u64) {
    let w = usize::try_from(v / 64).expect("a faulty id fits the address space");
    if w >= bits.len() {
        let mut grown = vec![0; (w + 1).next_power_of_two()];
        grown[..bits.len()].copy_from_slice(bits);
        *bits = grown;
    }
    bits[w] |= 1 << (v % 64);
}

/// Clear bit `v`, which [`set_bit`] set.
fn clear_bit(bits: &mut [u64], v: u64) {
    bits[(v / 64) as usize] &= !(1 << (v % 64));
}

/// Make `dst` hold `src`'s bits, in `dst`'s allocation if it is long enough.
fn copy_bits(dst: &mut Vec<u64>, src: &[u64]) {
    if dst.len() < src.len() {
        *dst = src.to_vec();
    } else {
        dst[..src.len()].copy_from_slice(src);
        dst[src.len()..].fill(0);
    }
}

impl FaultSet {
    /// An empty (fault-free) set.
    pub fn new() -> FaultSet {
        FaultSet::default()
    }

    /// Rebuild a set from explicit contents plus a recorded change stamp —
    /// the inverse of iterating [`FaultSet::faulty_nodes`] /
    /// [`FaultSet::faulty_links`] and reading
    /// [`FaultSet::generation`]. Checkpoint restore needs the stamp
    /// preserved exactly: consumers cache it to skip redundant syncs, so a
    /// reset stamp would desynchronise their skip logic.
    pub fn from_parts(
        nodes: impl IntoIterator<Item = NodeId>,
        links: impl IntoIterator<Item = LinkId>,
        generation: u64,
    ) -> FaultSet {
        let mut set = FaultSet::new();
        nodes.into_iter().for_each(|n| set.add_node(n));
        links.into_iter().for_each(|l| set.add_link(l));
        set.generation = generation;
        set
    }

    /// Mark a node faulty.
    pub fn add_node(&mut self, n: NodeId) {
        if self.nodes.insert(n) {
            set_bit(&mut self.dead_nodes, n.0);
            self.generation += 1;
        }
    }

    /// Mark a link faulty.
    pub fn add_link(&mut self, l: LinkId) {
        if self.links.insert(l) {
            let dim = l.dim as usize;
            self.dead_links
                .resize_with(self.dead_links.len().max(dim + 1), Vec::new);
            set_bit(&mut self.dead_links[dim], l.lo.0);
            self.generation += 1;
        }
    }

    /// Repair a node: it participates in routing again. Returns whether the
    /// node was faulty. Links that were *explicitly* marked faulty stay
    /// faulty — only the implicit "faulty endpoint kills the link" effect
    /// is lifted.
    pub fn remove_node(&mut self, n: NodeId) -> bool {
        let removed = self.nodes.remove(&n);
        if removed {
            clear_bit(&mut self.dead_nodes, n.0);
            self.generation += 1;
            self.release_if_empty();
        }
        removed
    }

    /// Repair an explicitly faulty link. Returns whether it was marked.
    /// The link may still be unusable if an endpoint is a faulty node.
    pub fn remove_link(&mut self, l: LinkId) -> bool {
        let removed = self.links.remove(&l);
        if removed {
            clear_bit(&mut self.dead_links[l.dim as usize], l.lo.0);
            self.generation += 1;
            self.release_if_empty();
        }
        removed
    }

    /// Drop the storage of an emptied set, keeping its stamp.
    fn release_if_empty(&mut self) {
        if self.is_empty() {
            *self = FaultSet::from_parts([], [], self.generation);
        }
    }

    /// The change stamp: bumped on every *effective* mutation (inserting a
    /// fault already present, or removing one that is absent, leaves it
    /// untouched). [`FaultSet::sync_from`] adopts the source's stamp, so
    /// the value is a change detector, not a monotone counter.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Make `self` an exact copy of `other` — contents and generation —
    /// copying the bit indexes into `self`'s allocations instead of
    /// cloning them.
    ///
    /// After the call `self.generation() == other.generation()`; a consumer
    /// that records the pair of stamps at sync time can skip future syncs
    /// while both stamps are unchanged.
    pub fn sync_from(&mut self, other: &FaultSet) {
        self.nodes.clone_from(&other.nodes);
        self.links.clone_from(&other.links);
        copy_bits(&mut self.dead_nodes, &other.dead_nodes);
        let dims = self.dead_links.len().max(other.dead_links.len());
        self.dead_links.resize_with(dims, Vec::new);
        for (dim, bits) in self.dead_links.iter_mut().enumerate() {
            copy_bits(bits, other.dead_links.get(dim).map_or(&[], Vec::as_slice));
        }
        self.generation = other.generation;
        self.release_if_empty();
    }

    /// Whether the node itself is faulty.
    #[inline]
    pub fn is_node_faulty(&self, n: NodeId) -> bool {
        bit(&self.dead_nodes, n.0)
    }

    /// Whether the link itself was marked faulty (endpoint faults *not*
    /// considered; see [`FaultSet::is_link_usable`]).
    #[inline]
    pub fn is_link_faulty(&self, l: LinkId) -> bool {
        self.dead_links
            .get(l.dim as usize)
            .is_some_and(|bits| bit(bits, l.lo.0))
    }

    /// Whether a packet may traverse this link: the link is healthy and so
    /// are both endpoints.
    #[inline]
    pub fn is_link_usable(&self, l: LinkId) -> bool {
        let (a, b) = l.endpoints();
        !self.is_link_faulty(l) && !self.is_node_faulty(a) && !self.is_node_faulty(b)
    }

    /// The dead-node bitset (bit `v % 64` of word `v / 64`), only as long as
    /// the highest faulty node needs: a word past its end is all live.
    pub fn dead_node_words(&self) -> &[u64] {
        &self.dead_nodes
    }

    /// Faulty nodes, in ascending order.
    pub fn faulty_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().copied()
    }

    /// Explicitly faulty links (not counting links killed by node faults),
    /// in ascending `(lo, dim)` order.
    pub fn faulty_links(&self) -> impl Iterator<Item = LinkId> + '_ {
        self.links.iter().copied()
    }

    /// Total number of faulty components (nodes + explicit links).
    pub fn len(&self) -> usize {
        self.nodes.len() + self.links.len()
    }

    /// Whether the set is empty (fault-free network).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty() && self.links.is_empty()
    }
}

impl LinkMask for FaultSet {
    #[inline]
    fn node_ok(&self, node: NodeId) -> bool {
        !self.is_node_faulty(node)
    }
    #[inline]
    fn link_ok(&self, link: LinkId) -> bool {
        !self.is_link_faulty(link)
    }
}

/// The paper's fault taxonomy (Definitions 3–5).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultCategory {
    /// Link fault in a dimension `≥ α`.
    A,
    /// All incurred link failures lie in dimensions `< α`.
    B,
    /// Node fault breaking links in dimensions both `< α` and `≥ α`.
    C,
}

/// Classify a faulty link (Definition 3/4): A iff its dimension is `≥ α`.
pub fn link_category(gc: &GaussianCube, l: LinkId) -> FaultCategory {
    if l.dim >= gc.alpha() {
        FaultCategory::A
    } else {
        FaultCategory::B
    }
}

/// Classify a faulty node (Definition 4/5): C iff it owns a link in a
/// dimension `≥ α` (it always owns the dimension-0 link, so it also breaks
/// links `< α`); otherwise B.
pub fn node_category(gc: &GaussianCube, n: NodeId) -> FaultCategory {
    let has_high = (gc.alpha()..gc.n()).any(|c| gc.has_link(n, c));
    if has_high {
        FaultCategory::C
    } else {
        FaultCategory::B
    }
}

/// Counts of faults by category.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CategoryCounts {
    /// A-category (high-dimension link) faults.
    pub a: usize,
    /// B-category faults.
    pub b: usize,
    /// C-category (node) faults.
    pub c: usize,
}

/// Categorise every fault in the set.
pub fn categorize(gc: &GaussianCube, faults: &FaultSet) -> CategoryCounts {
    let mut counts = CategoryCounts::default();
    for l in faults.faulty_links() {
        match link_category(gc, l) {
            FaultCategory::A => counts.a += 1,
            _ => counts.b += 1,
        }
    }
    for n in faults.faulty_nodes() {
        match node_category(gc, n) {
            FaultCategory::C => counts.c += 1,
            _ => counts.b += 1,
        }
    }
    counts
}

/// Whether the fault set contains only A-category faults (Theorem 3's
/// standing assumption).
pub fn only_a_category(gc: &GaussianCube, faults: &FaultSet) -> bool {
    faults.faulty_nodes().next().is_none()
        && faults
            .faulty_links()
            .all(|l| link_category(gc, l) == FaultCategory::A)
}

/// Number of faulty components charged to the subcube `GEEC(α, k, t)`:
/// faulty member nodes plus faulty links among the subcube's dimensions.
pub fn faults_in_geec(gc: &GaussianCube, faults: &FaultSet, k: u64, t: u64) -> usize {
    let mut count = 0;
    for n in faults.faulty_nodes() {
        let pos = subcube_pos(gc, n);
        if pos.k == k && pos.t == t {
            count += 1;
        }
    }
    let dim_set = dims(gc.n(), gc.alpha(), k);
    for l in faults.faulty_links() {
        if dim_set.contains(&l.dim) {
            let pos = subcube_pos(gc, l.lo);
            if pos.k == k && pos.t == t {
                count += 1;
            }
        }
    }
    count
}

/// Theorem 3 precondition (with the paper's bound): only A-category faults,
/// and every `GEEC(α,k,t)` holds fewer than `N(α,k)` of them.
pub fn theorem3_precondition_paper(gc: &GaussianCube, faults: &FaultSet) -> bool {
    theorem3_precondition_inner(gc, faults, |k| n_bound_paper(gc.n(), gc.alpha(), k))
}

/// Theorem 3 precondition with the *guaranteed* bound (DESIGN.md §3): fewer
/// than `|Dim(α,k)|` faults per subcube, the link connectivity of the
/// embedded hypercube. This is what the test-suite enforces.
pub fn theorem3_precondition_guaranteed(gc: &GaussianCube, faults: &FaultSet) -> bool {
    theorem3_precondition_inner(gc, faults, |k| dim_count(gc.n(), gc.alpha(), k))
}

fn theorem3_precondition_inner(
    gc: &GaussianCube,
    faults: &FaultSet,
    bound: impl Fn(u64) -> u32,
) -> bool {
    if !only_a_category(gc, faults) {
        return false;
    }
    // Only subcubes actually containing faults need checking.
    let mut checked: HashSet<(u64, u64)> = HashSet::new();
    for l in faults.faulty_links() {
        let pos = subcube_pos(gc, l.lo);
        if checked.insert((pos.k, pos.t)) {
            let b = bound(pos.k);
            if faults_in_geec(gc, faults, pos.k, pos.t) as u32 >= b.max(1) {
                return false;
            }
        }
    }
    true
}

/// The paper's tolerable-fault aggregate (Theorem 3 / Figure 4):
/// `T(GC) = Σ_k (N(α,k) − 1) · #subcubes(k)` — each of the `2^(n−α−|Dim|)`
/// subcubes of class `k` can absorb `N(α,k) − 1 = |Dim(α,k)|` link faults.
pub fn max_tolerable_faults_paper(n: u32, alpha: u32) -> u64 {
    let mut total = 0u64;
    for k in 0..(1u64 << alpha) {
        let d = dim_count(n, alpha, k);
        let per = u64::from(n_bound_paper(n, alpha, k).saturating_sub(1));
        let subcubes = 1u64 << (n - alpha - d);
        total += per * subcubes;
    }
    total
}

/// The strictly guaranteed variant: `|Dim(α,k)| − 1` faults per subcube
/// (below the embedded cube's link connectivity).
pub fn max_tolerable_faults_guaranteed(n: u32, alpha: u32) -> u64 {
    let mut total = 0u64;
    for k in 0..(1u64 << alpha) {
        let d = dim_count(n, alpha, k);
        let per = u64::from(d.saturating_sub(1));
        let subcubes = 1u64 << (n - alpha - d);
        total += per * subcubes;
    }
    total
}

/// Network health relative to the Theorem 3 fault budget.
///
/// The three states form a strict ladder keyed to the paper's guarantee:
///
/// * [`HealthState::Healthy`] — no live faults at all;
/// * [`HealthState::Degraded`] — faults are present but the Theorem 3
///   precondition still holds ([`theorem3_precondition_paper`]): routing
///   remains *guaranteed*, only budget has been consumed;
/// * [`HealthState::BoundExceeded`] — the precondition is violated (a
///   non-A-category fault, or a subcube at/over its `N(α,k)` bound):
///   delivery is best-effort from here on.
///
/// By construction `BoundExceeded` holds **iff**
/// `!theorem3_precondition_paper` on a non-empty set — the property the
/// simulator's fault-budget monitor is tested against.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum HealthState {
    /// No live faults.
    #[default]
    Healthy,
    /// Faults within the Theorem 3 budget: guarantees intact.
    Degraded,
    /// Theorem 3 precondition violated: guarantees void.
    BoundExceeded,
}

impl HealthState {
    /// Stable lower-snake name used in trace/telemetry exports.
    pub fn as_str(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::BoundExceeded => "bound_exceeded",
        }
    }

    /// Inverse of [`HealthState::as_str`]. An `Option` (not the std
    /// `FromStr`) to match the JSONL-parsing call sites.
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(s: &str) -> Option<HealthState> {
        match s {
            "healthy" => Some(HealthState::Healthy),
            "degraded" => Some(HealthState::Degraded),
            "bound_exceeded" => Some(HealthState::BoundExceeded),
            _ => None,
        }
    }
}

impl fmt::Display for HealthState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// Classify a live fault set onto the health ladder (see [`HealthState`]).
pub fn health_state(gc: &GaussianCube, faults: &FaultSet) -> HealthState {
    if faults.is_empty() {
        HealthState::Healthy
    } else if theorem3_precondition_paper(gc, faults) {
        HealthState::Degraded
    } else {
        HealthState::BoundExceeded
    }
}

/// Fault load of one `GEEC(α, k, t)` subcube against its Theorem 3 bounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SubcubeLoad {
    /// Ending class of the subcube.
    pub k: u64,
    /// Subcube index within the class.
    pub t: u64,
    /// Faulty components charged to the subcube ([`faults_in_geec`]).
    pub faults: u32,
    /// The paper's per-subcube bound `N(α,k)` (tolerates `N − 1` faults).
    pub bound_paper: u32,
    /// The guaranteed bound `|Dim(α,k)|` (tolerates `|Dim| − 1` faults).
    pub bound_guaranteed: u32,
}

impl SubcubeLoad {
    /// Fill fraction against the paper bound: `faults / (N(α,k) − 1)`.
    /// `> 1.0` means the subcube is over budget (`inf` for a zero budget).
    pub fn fill_paper(&self) -> f64 {
        let budget = self.bound_paper.saturating_sub(1);
        if budget == 0 {
            if self.faults == 0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            f64::from(self.faults) / f64::from(budget)
        }
    }
}

/// A live snapshot of the network's standing against Theorem 3: category
/// census, aggregate headroom, the per-subcube loads, and the resulting
/// [`HealthState`]. Built by [`fault_budget`]; consumed by the simulator's
/// fault-budget monitor and the CLI health report.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultBudget {
    /// Faults by category.
    pub counts: CategoryCounts,
    /// Total live faulty components (nodes + explicit links).
    pub total: u64,
    /// Aggregate tolerance `T(GC)`, paper bound.
    pub t_paper: u64,
    /// Aggregate tolerance, guaranteed bound.
    pub t_guaranteed: u64,
    /// Whether [`theorem3_precondition_paper`] holds.
    pub precondition_paper: bool,
    /// Whether [`theorem3_precondition_guaranteed`] holds.
    pub precondition_guaranteed: bool,
    /// Every subcube charged at least one fault, sorted by `(k, t)` so the
    /// snapshot is deterministic regardless of fault-set iteration order.
    pub loaded_subcubes: Vec<SubcubeLoad>,
    /// The resulting health classification ([`health_state`]).
    pub state: HealthState,
}

impl FaultBudget {
    /// Faults the paper bound still tolerates (saturating at zero).
    pub fn headroom_paper(&self) -> u64 {
        self.t_paper.saturating_sub(self.total)
    }

    /// Faults the guaranteed bound still tolerates (saturating at zero).
    pub fn headroom_guaranteed(&self) -> u64 {
        self.t_guaranteed.saturating_sub(self.total)
    }

    /// The subcube closest to (or furthest past) its paper budget.
    pub fn worst_subcube(&self) -> Option<&SubcubeLoad> {
        self.loaded_subcubes
            .iter()
            .max_by(|a, b| a.fill_paper().total_cmp(&b.fill_paper()))
    }
}

/// Take the live budget snapshot: classify every fault, charge each to its
/// subcube, and compare against `N(α,k)` and `T(GC)`.
pub fn fault_budget(gc: &GaussianCube, faults: &FaultSet) -> FaultBudget {
    // BTreeSet: the per-subcube listing is sorted by (k, t), not by fault
    // id (the snapshot is part of the deterministic report).
    let mut positions: BTreeSet<(u64, u64)> = BTreeSet::new();
    for l in faults.faulty_links() {
        let pos = subcube_pos(gc, l.lo);
        positions.insert((pos.k, pos.t));
    }
    for n in faults.faulty_nodes() {
        let pos = subcube_pos(gc, n);
        positions.insert((pos.k, pos.t));
    }
    let loaded_subcubes: Vec<SubcubeLoad> = positions
        .into_iter()
        .filter_map(|(k, t)| {
            let charged = faults_in_geec(gc, faults, k, t) as u32;
            (charged > 0).then(|| SubcubeLoad {
                k,
                t,
                faults: charged,
                bound_paper: n_bound_paper(gc.n(), gc.alpha(), k),
                bound_guaranteed: dim_count(gc.n(), gc.alpha(), k),
            })
        })
        .collect();
    FaultBudget {
        counts: categorize(gc, faults),
        total: faults.len() as u64,
        t_paper: max_tolerable_faults_paper(gc.n(), gc.alpha()),
        t_guaranteed: max_tolerable_faults_guaranteed(gc.n(), gc.alpha()),
        precondition_paper: theorem3_precondition_paper(gc, faults),
        precondition_guaranteed: theorem3_precondition_guaranteed(gc, faults),
        loaded_subcubes,
        state: health_state(gc, faults),
    }
}

/// Fault counts around one Gaussian-tree edge crossing `(p, q)` restricted
/// to the `k̃`-indexed exchanged-hypercube block `G(p, q, k̃)` (paper §5):
/// `e_s` in the class-`p` side, `e_t` in the class-`q` side, and `e'`
/// faulty crossing links not incident to an already-faulty node.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CrossingFaults {
    /// Faulty components in the class-`p` cubes of the block.
    pub e_s: usize,
    /// Faulty components in the class-`q` cubes of the block.
    pub e_t: usize,
    /// Faulty crossing (dimension `c₀ < α`) links with healthy endpoints.
    pub e_cross: usize,
}

/// The block index `k̃` of a node relative to a tree edge `(p,q)`: the
/// packed bits of all dimensions outside `[0,α) ∪ Dim(p) ∪ Dim(q)`.
pub fn crossing_block_index(gc: &GaussianCube, p_class: u64, q_class: u64, node: NodeId) -> u64 {
    let (n, alpha) = (gc.n(), gc.alpha());
    let dp = dims(n, alpha, p_class);
    let dq = dims(n, alpha, q_class);
    let mut idx = 0u64;
    let mut bit = 0;
    for c in alpha..n {
        if !dp.contains(&c) && !dq.contains(&c) {
            if node.bit(c) {
                idx |= 1 << bit;
            }
            bit += 1;
        }
    }
    idx
}

/// Count the crossing-relevant faults for tree edge `(p, q)` within block
/// `k̃` (Theorem 5's `e_s`, `e_t`, `e'`).
pub fn crossing_faults(
    gc: &GaussianCube,
    faults: &FaultSet,
    p_class: u64,
    q_class: u64,
    block: u64,
) -> CrossingFaults {
    let alpha = gc.alpha();
    let tree = GaussianTree::new(alpha).expect("alpha within cap");
    let c0 = tree
        .edge_dim(NodeId(p_class), NodeId(q_class))
        .expect("(p,q) must be a tree edge");
    let dp = dims(gc.n(), alpha, p_class);
    let dq = dims(gc.n(), alpha, q_class);
    let mut out = CrossingFaults::default();
    let in_block = |n: NodeId| crossing_block_index(gc, p_class, q_class, n) == block;
    for n in faults.faulty_nodes() {
        let k = gc.ending_class(n);
        if in_block(n) {
            if k == p_class {
                out.e_s += 1;
            } else if k == q_class {
                out.e_t += 1;
            }
        }
    }
    for l in faults.faulty_links() {
        let (a, b) = l.endpoints();
        if !in_block(a) {
            continue;
        }
        let ka = gc.ending_class(a);
        if l.dim == c0 && (ka == p_class || ka == q_class) {
            if !faults.is_node_faulty(a) && !faults.is_node_faulty(b) {
                out.e_cross += 1;
            }
        } else if ka == p_class && dp.contains(&l.dim) {
            out.e_s += 1;
        } else if ka == q_class && dq.contains(&l.dim) {
            out.e_t += 1;
        }
    }
    out
}

/// Whether one block's crossing faults break Theorem 5's bound for sides
/// of `dp` and `dq` dimensions. A zero-dimensional side cannot detour at
/// all, so it tolerates zero faults (hence the `.max(1)` floor on the
/// strict bound).
fn crossing_overloaded(cf: &CrossingFaults, dp: u32, dq: u32) -> bool {
    (cf.e_s + cf.e_cross) as u32 >= dp.max(1) || (cf.e_t + cf.e_cross) as u32 >= dq.max(1)
}

/// Theorem 5 precondition: for every tree edge `(p, q)` and every block
/// `k̃`: `e_s + e' < |Dim(p)|` and `e_t + e' < |Dim(q)|`.
///
/// Only blocks that hold a fault can break the bound, since a fault-free
/// block counts `0 < max(|Dim|, 1)`. So each fault is bucketed once per
/// tree edge by its block (its node bits outside `[0, α) ∪ Dim(p) ∪
/// Dim(q)`), with [`crossing_faults`]' classification, and only those
/// buckets are tested: O(edges · faults) instead of one fault scan per
/// block.
pub fn theorem5_precondition(gc: &GaussianCube, faults: &FaultSet) -> bool {
    let (n, alpha) = (gc.n(), gc.alpha());
    let tree = GaussianTree::new(alpha).expect("alpha within cap");
    let class_mask = |k: u64| dims(n, alpha, k).iter().fold(0u64, |m, &c| m | 1 << c);
    let high = u64::MAX.checked_shr(64 - n).unwrap_or(0) & !((1u64 << alpha) - 1);
    let mut blocks: Vec<(u64, CrossingFaults)> = Vec::new();
    for edge in tree.links() {
        let (p, q) = (edge.endpoints().0 .0, edge.endpoints().1 .0);
        let c0 = tree
            .edge_dim(NodeId(p), NodeId(q))
            .expect("tree links are tree edges");
        let (mp, mq) = (class_mask(p), class_mask(q));
        let outside = high & !mp & !mq;
        blocks.clear();
        let mut count = |v: NodeId, side: fn(&mut CrossingFaults) -> &mut usize| {
            let block = v.0 & outside;
            let i = match blocks.iter().position(|&(b, _)| b == block) {
                Some(i) => i,
                None => {
                    blocks.push((block, CrossingFaults::default()));
                    blocks.len() - 1
                }
            };
            *side(&mut blocks[i].1) += 1;
        };
        for v in faults.faulty_nodes() {
            match gc.ending_class(v) {
                k if k == p => count(v, |cf| &mut cf.e_s),
                k if k == q => count(v, |cf| &mut cf.e_t),
                _ => {}
            }
        }
        for l in faults.faulty_links() {
            let (a, b) = l.endpoints();
            let ka = gc.ending_class(a);
            if l.dim == c0 && (ka == p || ka == q) {
                if !faults.is_node_faulty(a) && !faults.is_node_faulty(b) {
                    count(a, |cf| &mut cf.e_cross);
                }
            } else if ka == p && mp >> l.dim & 1 == 1 {
                count(a, |cf| &mut cf.e_s);
            } else if ka == q && mq >> l.dim & 1 == 1 {
                count(a, |cf| &mut cf.e_t);
            }
        }
        let (dp, dq) = (mp.count_ones(), mq.count_ones());
        if blocks.iter().any(|(_, cf)| crossing_overloaded(cf, dp, dq)) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gc84() -> GaussianCube {
        GaussianCube::new(8, 4).unwrap()
    }

    #[test]
    fn fault_set_basics() {
        let mut f = FaultSet::new();
        assert!(f.is_empty());
        f.add_node(NodeId(3));
        f.add_link(LinkId::new(NodeId(0), 0));
        assert_eq!(f.len(), 2);
        assert!(f.is_node_faulty(NodeId(3)));
        assert!(!f.is_node_faulty(NodeId(4)));
        assert!(f.is_link_faulty(LinkId::new(NodeId(1), 0)));
        // Link incident to a faulty node is unusable even if not marked.
        f.add_node(NodeId(8));
        assert!(!f.is_link_usable(LinkId::new(NodeId(8), 0)));
        assert!(f.is_link_usable(LinkId::new(NodeId(16), 4)));
    }

    #[test]
    fn generation_tracks_effective_mutations_only() {
        let mut f = FaultSet::new();
        assert_eq!(f.generation(), 0);
        f.add_node(NodeId(3));
        assert_eq!(f.generation(), 1);
        f.add_node(NodeId(3)); // already present: no change
        assert_eq!(f.generation(), 1);
        f.add_link(LinkId::new(NodeId(0), 0));
        assert_eq!(f.generation(), 2);
        assert!(!f.remove_node(NodeId(99))); // absent: no change
        assert_eq!(f.generation(), 2);
        assert!(f.remove_node(NodeId(3)));
        assert_eq!(f.generation(), 3);
        assert!(f.remove_link(LinkId::new(NodeId(0), 0)));
        assert_eq!(f.generation(), 4);
    }

    #[test]
    fn equality_ignores_generation() {
        let mut a = FaultSet::new();
        a.add_node(NodeId(1));
        let mut b = FaultSet::new();
        b.add_node(NodeId(2));
        b.remove_node(NodeId(2));
        b.add_node(NodeId(1));
        assert_ne!(a.generation(), b.generation());
        assert_eq!(a, b, "same faults must compare equal despite stamps");
    }

    #[test]
    fn sync_from_copies_contents_and_stamp() {
        let mut truth = FaultSet::new();
        truth.add_node(NodeId(7));
        truth.add_link(LinkId::new(NodeId(2), 1));
        let mut view = FaultSet::new();
        view.add_node(NodeId(42)); // stale local observation
        view.sync_from(&truth);
        assert_eq!(view, truth);
        assert_eq!(view.generation(), truth.generation());
        assert!(!view.is_node_faulty(NodeId(42)));
        // Repairs propagate too (the clear-and-extend path).
        truth.remove_node(NodeId(7));
        view.sync_from(&truth);
        assert_eq!(view, truth);
        assert!(!view.is_node_faulty(NodeId(7)));
    }

    /// The bit indexes grow to the highest faulty id in power-of-two
    /// words, so they stay within the cube's `2^n` bits, and go with the
    /// last fault: an empty set owns no heap memory.
    #[test]
    fn fault_set_indexes_stay_within_the_cube_and_empty_sets_own_nothing() {
        let heap = |f: &FaultSet| f.dead_nodes.capacity() + f.dead_links.capacity();
        let mut f = FaultSet::new();
        assert_eq!(heap(&f), 0);
        f.add_node(NodeId(3));
        f.add_node(NodeId(200));
        assert_eq!(f.dead_nodes.len(), 4, "word 3 rounds up to 4 words");
        assert!(f.is_node_faulty(NodeId(3)), "growth keeps the low words");
        let top = NodeId((1 << 16) - 1); // GC(16): 1,024 words per index
        f.add_node(top);
        f.add_link(LinkId::new(top, 15));
        assert_eq!(f.dead_nodes.len(), 1024);
        assert_eq!(f.dead_links.len(), 16);
        assert_eq!(f.dead_links[15].len(), 512, "keyed by the bit-clear end");
        let mut view = FaultSet::new();
        view.sync_from(&f);
        assert_eq!(view.dead_nodes.capacity(), 1024);
        for v in [3, 200, top.0] {
            assert!(f.remove_node(NodeId(v)));
        }
        assert!(f.remove_link(LinkId::new(top, 15)));
        assert_eq!(f, FaultSet::new());
        assert_eq!(heap(&f), 0);
        view.sync_from(&f);
        assert_eq!(heap(&view), 0);
        assert_eq!(view.generation(), f.generation());
    }

    #[test]
    fn link_categories_split_at_alpha() {
        let gc = gc84(); // α = 2
        assert_eq!(
            link_category(&gc, LinkId::new(NodeId(0), 0)),
            FaultCategory::B
        );
        assert_eq!(
            link_category(&gc, LinkId::new(NodeId(1), 1)),
            FaultCategory::B
        );
        assert_eq!(
            link_category(&gc, LinkId::new(NodeId(2), 2)),
            FaultCategory::A
        );
        assert_eq!(
            link_category(&gc, LinkId::new(NodeId(0), 4)),
            FaultCategory::A
        );
    }

    #[test]
    fn node_categories_follow_dim_sets() {
        let gc = gc84(); // α = 2; Dim(0)={4}, Dim(1)={5}, Dim(2)={2,6}, Dim(3)={3,7}
                         // Every class of GC(8,4) has at least one high dimension, so every
                         // node fault is C-category.
        for v in 0..gc.num_nodes() {
            assert_eq!(node_category(&gc, NodeId(v)), FaultCategory::C);
        }
        // In GC(3, 4) (α = 2, dims {2} only): only class-2 nodes own a high
        // link; other node faults are B-category.
        let small = GaussianCube::new(3, 4).unwrap();
        assert_eq!(node_category(&small, NodeId(0b000)), FaultCategory::B);
        assert_eq!(node_category(&small, NodeId(0b001)), FaultCategory::B);
        assert_eq!(node_category(&small, NodeId(0b010)), FaultCategory::C);
        assert_eq!(node_category(&small, NodeId(0b011)), FaultCategory::B);
    }

    #[test]
    fn categorize_counts() {
        let gc = gc84();
        let mut f = FaultSet::new();
        f.add_link(LinkId::new(NodeId(0), 4)); // A
        f.add_link(LinkId::new(NodeId(0), 0)); // B
        f.add_node(NodeId(5)); // C
        let c = categorize(&gc, &f);
        assert_eq!(c, CategoryCounts { a: 1, b: 1, c: 1 });
        assert!(!only_a_category(&gc, &f));
        let mut fa = FaultSet::new();
        fa.add_link(LinkId::new(NodeId(0), 4));
        assert!(only_a_category(&gc, &fa));
    }

    #[test]
    fn faults_in_geec_counts_members_only() {
        let gc = gc84();
        let mut f = FaultSet::new();
        f.add_link(LinkId::new(NodeId(0), 4)); // class 0, dim 4
        let pos = subcube_pos(&gc, NodeId(0));
        assert_eq!(faults_in_geec(&gc, &f, pos.k, pos.t), 1);
        assert_eq!(faults_in_geec(&gc, &f, pos.k, pos.t + 1), 0);
        // A tree-link (dim < α) fault is charged to no GEEC.
        let mut fb = FaultSet::new();
        fb.add_link(LinkId::new(NodeId(0), 0));
        assert_eq!(faults_in_geec(&gc, &fb, pos.k, pos.t), 0);
    }

    #[test]
    fn theorem3_preconditions() {
        let gc = GaussianCube::new(10, 4).unwrap(); // Dim(2)={2,6}, |Dim|=2
        let mut f = FaultSet::new();
        f.add_link(LinkId::new(NodeId(0b0000000010), 2));
        assert!(theorem3_precondition_guaranteed(&gc, &f));
        assert!(theorem3_precondition_paper(&gc, &f));
        // Two A faults in the same GEEC: guaranteed bound fails, paper bound
        // (< N = 3) still holds.
        f.add_link(LinkId::new(NodeId(0b0000000010), 6));
        assert!(!theorem3_precondition_guaranteed(&gc, &f));
        assert!(theorem3_precondition_paper(&gc, &f));
        // Any node fault voids Theorem 3 entirely.
        let mut fnode = FaultSet::new();
        fnode.add_node(NodeId(0));
        assert!(!theorem3_precondition_paper(&gc, &fnode));
    }

    #[test]
    fn link_fault_exactly_at_alpha_is_a_category() {
        // The A/B boundary is dim ≥ α, inclusive: a link in dimension
        // exactly α is already a high (A-category) link.
        let gc = gc84(); // α = 2
        let at_alpha = LinkId::new(NodeId(0b10), gc.alpha());
        assert_eq!(link_category(&gc, at_alpha), FaultCategory::A);
        let below = LinkId::new(NodeId(0b01), gc.alpha() - 1);
        assert_eq!(link_category(&gc, below), FaultCategory::B);
        // And the budget snapshot charges it to its GEEC like any A fault.
        let mut f = FaultSet::new();
        f.add_link(at_alpha);
        let b = fault_budget(&gc, &f);
        assert_eq!(b.counts, CategoryCounts { a: 1, b: 0, c: 0 });
        assert_eq!(b.loaded_subcubes.len(), 1);
        assert_eq!(b.loaded_subcubes[0].faults, 1);
        assert_eq!(b.state, HealthState::Degraded);
    }

    #[test]
    fn c_category_node_straddling_alpha_voids_the_bound() {
        // A C-category node owns links on both sides of α; killing it
        // kills tree links too, so Theorem 3's A-only premise fails no
        // matter how much aggregate headroom remains.
        let gc = gc84();
        let node = NodeId(5); // class 1, owns dim 5 ≥ α and dims 0,1 < α
        assert_eq!(node_category(&gc, node), FaultCategory::C);
        let mut f = FaultSet::new();
        f.add_node(node);
        let b = fault_budget(&gc, &f);
        assert_eq!(b.counts, CategoryCounts { a: 0, b: 0, c: 1 });
        assert!(!b.precondition_paper);
        assert!(!b.precondition_guaranteed);
        assert_eq!(b.state, HealthState::BoundExceeded);
        assert!(b.headroom_paper() > 0, "headroom is not the issue here");
        // The node is still charged to its subcube in the load listing.
        assert_eq!(b.loaded_subcubes.len(), 1);
        let pos = subcube_pos(&gc, node);
        assert_eq!(
            (b.loaded_subcubes[0].k, b.loaded_subcubes[0].t),
            (pos.k, pos.t)
        );
    }

    #[test]
    fn empty_fault_set_is_healthy_with_full_headroom() {
        let gc = gc84();
        let f = FaultSet::new();
        assert_eq!(health_state(&gc, &f), HealthState::Healthy);
        let b = fault_budget(&gc, &f);
        assert_eq!(b.state, HealthState::Healthy);
        assert_eq!(b.total, 0);
        assert_eq!(b.counts, CategoryCounts::default());
        assert!(b.loaded_subcubes.is_empty());
        assert!(b.worst_subcube().is_none());
        assert!(b.precondition_paper && b.precondition_guaranteed);
        assert_eq!(b.headroom_paper(), max_tolerable_faults_paper(8, 2));
        assert_eq!(
            b.headroom_guaranteed(),
            max_tolerable_faults_guaranteed(8, 2)
        );
    }

    #[test]
    fn bound_exceeded_iff_precondition_fails() {
        // The health ladder is definitionally tied to the Theorem 3
        // checker; sweep a mix of fault sets and assert the iff.
        let gc = GaussianCube::new(10, 4).unwrap();
        let mut sets: Vec<FaultSet> = Vec::new();
        sets.push(FaultSet::new());
        for (node, dim) in [(0b10u64, 2u32), (0b10, 6), (0b11, 3), (0, 0), (1, 1)] {
            let mut f = sets.last().unwrap().clone();
            f.add_link(LinkId::new(NodeId(node), dim));
            sets.push(f);
        }
        let mut with_node = FaultSet::new();
        with_node.add_node(NodeId(6));
        sets.push(with_node);
        for f in &sets {
            let b = fault_budget(&gc, f);
            assert_eq!(
                b.state == HealthState::BoundExceeded,
                !theorem3_precondition_paper(&gc, f),
                "state {:?} vs precondition for {} faults",
                b.state,
                f.len()
            );
            assert_eq!(b.state == HealthState::Healthy, f.is_empty());
        }
    }

    #[test]
    fn budget_snapshot_is_deterministic_across_insertion_orders() {
        let gc = GaussianCube::new(10, 4).unwrap();
        let faults = [
            LinkId::new(NodeId(0b10), 2),
            LinkId::new(NodeId(0b0110), 6),
            LinkId::new(NodeId(0b11), 3),
            LinkId::new(NodeId(0b1011), 7),
        ];
        let mut fwd = FaultSet::new();
        for l in faults {
            fwd.add_link(l);
        }
        let mut rev = FaultSet::new();
        for l in faults.iter().rev() {
            rev.add_link(*l);
        }
        let a = fault_budget(&gc, &fwd);
        let b = fault_budget(&gc, &rev);
        assert_eq!(a, b);
        // Sorted by (k, t), not by fault id or insertion order.
        let keys: Vec<(u64, u64)> = a.loaded_subcubes.iter().map(|s| (s.k, s.t)).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn health_state_names_round_trip() {
        for s in [
            HealthState::Healthy,
            HealthState::Degraded,
            HealthState::BoundExceeded,
        ] {
            assert_eq!(HealthState::from_str(s.as_str()), Some(s));
        }
        assert_eq!(HealthState::from_str("sparkling"), None);
    }

    #[test]
    fn tolerable_fault_counts_grow_with_n() {
        for alpha in 1..=4u32 {
            let mut prev = 0;
            for n in (alpha + 2)..=24 {
                let t = max_tolerable_faults_paper(n, alpha);
                assert!(t >= prev, "T must be monotone in n (α={alpha}, n={n})");
                assert!(
                    max_tolerable_faults_guaranteed(n, alpha) <= t,
                    "guaranteed bound cannot exceed the paper bound"
                );
                prev = t;
            }
        }
    }

    #[test]
    fn tolerable_faults_match_hand_count() {
        // GC(8, 4): Dim sizes per class = [1, 1, 2, 2]; subcubes per class =
        // 2^(6-|Dim|). Paper bound: Σ |Dim| · 2^(6-|Dim|)
        //   = 1·32 + 1·32 + 2·16 + 2·16 = 128.
        assert_eq!(max_tolerable_faults_paper(8, 2), 128);
        // Guaranteed: Σ (|Dim|-1)·2^(6-|Dim|) = 0 + 0 + 16 + 16 = 32.
        assert_eq!(max_tolerable_faults_guaranteed(8, 2), 32);
    }

    #[test]
    fn crossing_faults_empty_without_faults() {
        let gc = GaussianCube::new(8, 8).unwrap();
        let tree = GaussianTree::new(3).unwrap();
        for edge in tree.links() {
            let (p, q) = edge.endpoints();
            let cf = crossing_faults(&gc, &FaultSet::new(), p.0, q.0, 0);
            assert_eq!(cf, CrossingFaults::default());
        }
    }

    #[test]
    fn crossing_faults_classify_sides() {
        // GC(10, 4), α=2: tree edge (2, 3) via dim 0. Dim(2)={2,6},
        // Dim(3)={3,7}. No other high dims outside the union ∪{2,3,6,7} in
        // [2,9]: {4,5,8,9} remain → 4 block bits.
        let gc = GaussianCube::new(10, 4).unwrap();
        let mut f = FaultSet::new();
        f.add_link(LinkId::new(NodeId(0b10), 2)); // class-2 side, block 0
        f.add_link(LinkId::new(NodeId(0b11), 3)); // class-3 side, block 0
        f.add_link(LinkId::new(NodeId(0b10), 0)); // crossing link 2<->3
        let cf = crossing_faults(&gc, &f, 2, 3, 0);
        assert_eq!(
            cf,
            CrossingFaults {
                e_s: 1,
                e_t: 1,
                e_cross: 1
            }
        );
        // Same faults seen from a different block: nothing.
        let cf1 = crossing_faults(&gc, &f, 2, 3, 1);
        assert_eq!(cf1, CrossingFaults::default());
    }

    /// Theorem 5's precondition as the per-block definition reads: every
    /// block of every tree edge, each counted by [`crossing_faults`].
    fn theorem5_precondition_per_block(gc: &GaussianCube, faults: &FaultSet) -> bool {
        let (n, alpha) = (gc.n(), gc.alpha());
        let tree = GaussianTree::new(alpha).expect("alpha within cap");
        tree.links().iter().all(|edge| {
            let (p, q) = edge.endpoints();
            let dp = dim_count(n, alpha, p.0);
            let dq = dim_count(n, alpha, q.0);
            let blocks = 1u64 << (n - alpha - dp - dq);
            (0..blocks).all(|block| {
                let cf = crossing_faults(gc, faults, p.0, q.0, block);
                !crossing_overloaded(&cf, dp, dq)
            })
        })
    }

    #[test]
    fn theorem5_precondition_matches_per_block_oracle() {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |bound: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % bound
        };
        let (mut held, mut broken) = (0, 0);
        for (n, m) in [(8u32, 4u64), (9, 2), (10, 8)] {
            let gc = GaussianCube::new(n, m).unwrap();
            for _ in 0..300 {
                let mut f = FaultSet::new();
                for _ in 0..next(7) {
                    f.add_node(NodeId(next(gc.num_nodes())));
                }
                for _ in 0..next(9) {
                    let v = NodeId(next(gc.num_nodes()));
                    let dims: Vec<u32> = (0..n).filter(|&c| gc.has_link(v, c)).collect();
                    f.add_link(LinkId::new(v, dims[next(dims.len() as u64) as usize]));
                }
                let fast = theorem5_precondition(&gc, &f);
                assert_eq!(
                    fast,
                    theorem5_precondition_per_block(&gc, &f),
                    "GC({n},{m}) {f:?}"
                );
                if fast {
                    held += 1;
                } else {
                    broken += 1;
                }
            }
        }
        assert!(held >= 100 && broken >= 100, "held {held}, broken {broken}");
    }

    #[test]
    fn theorem5_trivially_true_without_faults() {
        let gc = GaussianCube::new(9, 4).unwrap();
        assert!(theorem5_precondition(&gc, &FaultSet::new()));
    }

    #[test]
    fn theorem5_detects_saturated_crossing() {
        // GC(10, 4): two A faults inside one class-2 subcube saturate
        // e_s + e' < |Dim(2)| = 2 for the (2,3) crossing.
        let gc = GaussianCube::new(10, 4).unwrap();
        let mut f = FaultSet::new();
        f.add_link(LinkId::new(NodeId(0b10), 2));
        f.add_link(LinkId::new(NodeId(0b10), 6));
        assert!(!theorem5_precondition(&gc, &f));
        let mut f1 = FaultSet::new();
        f1.add_link(LinkId::new(NodeId(0b10), 2));
        assert!(theorem5_precondition(&gc, &f1));
    }
}
