//! Structure-of-arrays packet state for the forwarding hot path.
//!
//! The engines used to keep one `VecDeque<Packet>` per node: 2^n
//! independently allocated ring buffers, each holding boxed routes, with
//! the per-cycle service scan touching every node whether or not it held
//! a packet. At `GC(14)` that is 16 384 scattered allocations walked per
//! cycle; at `GC(20)` it does not fit a cache level at all.
//!
//! This module replaces that layout with two flat structures:
//!
//! * [`PacketStore`] — an arena of packets in struct-of-arrays form. Every
//!   scalar field lives in its own contiguous `Vec`, indexed by a stable
//!   slot id; freed slots are recycled through a freelist. A `cur` column
//!   holds every packet's node, so `current` never reads a trajectory.
//!   The trajectories sit in a parallel column: a cached FFGCR plan (and
//!   cached FTGCR's fast path) at α ≤ 3 is a [`Trajectory::Walk`] of a few
//!   words, forwarded by the cube's [`WalkRule`] from `cur`, the
//!   destination and an `edges` column of uncrossed tree edges, so it
//!   allocates nothing; every other plan is an explicit
//!   [`Route`](gcube_routing::Route) the planner allocated, which the
//!   arena only moves. An intrusive `next` column threads the per-node
//!   FIFO order through the arena, so a queue is just a `(head, tail)`
//!   pair of slot ids.
//! * [`NodeQueues`] — the per-node FIFO heads and tails plus an occupancy
//!   bitset over the nodes (and per-node lengths, for finite buffers
//!   only). The service scan walks the bitset with word operations (one
//!   `u64` covers 64 nodes) in the engine's rotated service order, so a
//!   cycle's forwarding cost is proportional to the nodes that actually
//!   hold packets, not to the network size.
//!
//! Fault state has one store, the [`FaultSet`](gcube_routing::FaultSet):
//! the forwarding check, stranding and the injection scan probe the
//! shard's ground-truth replica, whose bit indexes answer in O(1).
//!
//! The cycle kernel ([`crate::shard`]) runs every schedule over these
//! types; reports, traces, and telemetry are bit-identical for every
//! shard count (the pinned digests and the session proptests check this).

use gcube_routing::{Trajectory, WalkRule};
use gcube_topology::NodeId;

use crate::packet::{self, Packet};

/// Null slot id / list terminator for the intrusive queue links.
pub(crate) const NIL: u32 = u32::MAX;

/// Arena of in-flight packets, one parallel column per field.
#[derive(Debug, Default)]
pub(crate) struct PacketStore {
    pub id: Vec<u64>,
    pub injected_at: Vec<u64>,
    pub hop_idx: Vec<u32>,
    pub hops_taken: Vec<u32>,
    pub planned_hops: Vec<u32>,
    pub reroutes: Vec<u32>,
    /// The node holding each packet, in either trajectory form.
    cur: Vec<NodeId>,
    /// Walk form: the tree edges not yet crossed ([`Packet::edges`]).
    edges: Vec<u64>,
    /// `None` marks a free slot.
    paths: Vec<Option<Trajectory>>,
    /// Intrusive FIFO link: the slot queued behind this one, or [`NIL`].
    pub next: Vec<u32>,
    free: Vec<u32>,
    /// The cube's walk rule; the default when α > 3, where no walk-form
    /// path is ever planned.
    rule: WalkRule,
}

impl PacketStore {
    pub fn new(rule: WalkRule) -> PacketStore {
        PacketStore {
            rule,
            ..PacketStore::default()
        }
    }

    /// The rule walk-form packets are forwarded by.
    #[inline]
    pub fn rule(&self) -> &WalkRule {
        &self.rule
    }

    /// Slots currently live (for conservation checks in tests).
    #[cfg(test)]
    pub fn live(&self) -> usize {
        self.paths.iter().flatten().count()
    }

    fn grab_slot(&mut self) -> u32 {
        if let Some(s) = self.free.pop() {
            return s;
        }
        let s = self.paths.len() as u32;
        self.id.push(0);
        self.injected_at.push(0);
        self.hop_idx.push(0);
        self.hops_taken.push(0);
        self.planned_hops.push(0);
        self.reroutes.push(0);
        self.cur.push(NodeId(0));
        self.edges.push(0);
        self.paths.push(None);
        self.next.push(NIL);
        s
    }

    /// Store a freshly injected packet at the start of `path`.
    pub fn alloc(&mut self, id: u64, injected_at: u64, path: Trajectory) -> u32 {
        let s = self.grab_slot();
        let su = s as usize;
        self.id[su] = id;
        self.injected_at[su] = injected_at;
        self.hop_idx[su] = 0;
        self.hops_taken[su] = 0;
        self.planned_hops[su] = path.hops() as u32;
        self.reroutes[su] = 0;
        (self.cur[su], self.edges[su]) = packet::start(&path);
        self.paths[su] = Some(path);
        self.next[su] = NIL;
        s
    }

    /// Store a packet that arrived from another shard (or was built
    /// elsewhere), preserving all of its in-flight state.
    pub fn insert(&mut self, pkt: Packet) -> u32 {
        let s = self.grab_slot();
        let su = s as usize;
        self.id[su] = pkt.id;
        self.injected_at[su] = pkt.injected_at;
        self.hop_idx[su] = pkt.hop_idx as u32;
        self.hops_taken[su] = pkt.hops_taken as u32;
        self.planned_hops[su] = pkt.planned_hops as u32;
        self.reroutes[su] = pkt.reroutes;
        self.cur[su] = pkt.cur;
        self.edges[su] = pkt.edges;
        self.paths[su] = Some(pkt.path);
        self.next[su] = NIL;
        s
    }

    /// Materialise the slot as a [`Packet`] (moving the path out) and
    /// recycle it. Used for drops — which need the full packet for
    /// accounting — and for cross-shard moves.
    pub fn remove(&mut self, slot: u32) -> Packet {
        let su = slot as usize;
        let path = self.paths[su].take().expect("slot is live");
        self.free.push(slot);
        self.packet(su, path)
    }

    /// Recycle the slot without materialising it (deliveries: the
    /// accounting only needs the scalar columns, read before the call).
    pub fn discard(&mut self, slot: u32) {
        let su = slot as usize;
        debug_assert!(self.paths[su].is_some(), "double free");
        self.paths[su] = None;
        self.free.push(slot);
    }

    /// Clone the slot as a [`Packet`] (recovery candidates shipped to the
    /// coordinator while the queue stays untouched, checkpoint capture).
    pub fn snapshot(&self, slot: u32) -> Packet {
        self.packet(slot as usize, self.path(slot).clone())
    }

    fn packet(&self, su: usize, path: Trajectory) -> Packet {
        Packet {
            id: self.id[su],
            injected_at: self.injected_at[su],
            hop_idx: self.hop_idx[su] as usize,
            path,
            cur: self.cur[su],
            edges: self.edges[su],
            hops_taken: u64::from(self.hops_taken[su]),
            planned_hops: u64::from(self.planned_hops[su]),
            reroutes: self.reroutes[su],
        }
    }

    #[inline]
    fn path(&self, slot: u32) -> &Trajectory {
        self.paths[slot as usize].as_ref().expect("slot is live")
    }

    /// The node currently buffering the packet.
    #[inline]
    pub fn current(&self, slot: u32) -> NodeId {
        self.cur[slot as usize]
    }

    /// The next node on the trajectory, or `None` at the destination.
    #[inline]
    pub fn next_hop(&self, slot: u32) -> Option<NodeId> {
        let su = slot as usize;
        match self.path(slot) {
            Trajectory::Walk(w) => self.rule.next_hop(self.cur[su], w.dest(), self.edges[su]),
            Trajectory::Route(r) => r.nodes().get(self.hop_idx[su] as usize + 1).copied(),
        }
    }

    /// Whether the hop to `to` (the slot's next hop) ends the trajectory.
    #[inline]
    pub fn sinks_at(&self, slot: u32, to: NodeId) -> bool {
        match self.path(slot) {
            Trajectory::Walk(w) => to == w.dest(),
            Trajectory::Route(r) => self.hop_idx[slot as usize] as usize + 2 == r.nodes().len(),
        }
    }

    /// Whether the packet sits at its destination.
    #[inline]
    pub fn arrived(&self, slot: u32) -> bool {
        let su = slot as usize;
        match self.path(slot) {
            Trajectory::Walk(w) => self.cur[su] == w.dest(),
            Trajectory::Route(r) => self.hop_idx[su] as usize + 1 == r.nodes().len(),
        }
    }

    /// Take the hop to `to`, the slot's next hop.
    #[inline]
    pub fn advance(&mut self, slot: u32, to: NodeId) {
        let su = slot as usize;
        self.edges[su] = self.rule.edges_after(self.cur[su], to, self.edges[su]);
        self.cur[su] = to;
        self.hop_idx[su] += 1;
        self.hops_taken[su] += 1;
    }

    /// Replace the remaining trajectory (mirror of [`Packet::replan`]).
    pub fn replan(&mut self, slot: u32, path: Trajectory) {
        let su = slot as usize;
        (self.cur[su], self.edges[su]) = packet::start(&path);
        self.paths[su] = Some(path);
        self.hop_idx[su] = 0;
        self.reroutes[su] += 1;
    }

    /// Extra links traversed beyond the injection-time plan.
    #[inline]
    pub fn detour_hops(&self, slot: u32) -> u64 {
        let su = slot as usize;
        u64::from(self.hops_taken[su].saturating_sub(self.planned_hops[su]))
    }
}

/// Per-node FIFO queues threaded through a [`PacketStore`], plus the
/// occupancy bitset the service scan walks. Per-node lengths are kept
/// only when asked for: finite buffers read them, nothing else does.
#[derive(Debug)]
pub(crate) struct NodeQueues {
    head: Vec<u32>,
    tail: Vec<u32>,
    /// Queue lengths per node, or empty when not counted.
    len: Vec<u32>,
    occ: Vec<u64>,
    n: usize,
}

impl NodeQueues {
    pub fn new(n_nodes: u64, count_lengths: bool) -> NodeQueues {
        let n = n_nodes as usize;
        NodeQueues {
            head: vec![NIL; n],
            tail: vec![NIL; n],
            len: if count_lengths {
                vec![0; n]
            } else {
                Vec::new()
            },
            occ: vec![0; n.div_ceil(64)],
            n,
        }
    }

    /// Node `v`'s queue length; the queues must count lengths.
    #[inline]
    pub fn len(&self, v: usize) -> usize {
        self.len[v] as usize
    }

    #[inline]
    pub fn is_empty(&self, v: usize) -> bool {
        self.head[v] == NIL
    }

    /// Head slot of node `v`'s queue, if any.
    #[inline]
    pub fn front(&self, v: usize) -> Option<u32> {
        match self.head[v] {
            NIL => None,
            s => Some(s),
        }
    }

    pub fn push_back(&mut self, store: &mut PacketStore, v: usize, slot: u32) {
        store.next[slot as usize] = NIL;
        match self.tail[v] {
            NIL => {
                self.head[v] = slot;
                self.occ[v / 64] |= 1u64 << (v % 64);
            }
            t => store.next[t as usize] = slot,
        }
        self.tail[v] = slot;
        if let Some(l) = self.len.get_mut(v) {
            *l += 1;
        }
    }

    /// Pop the head of a non-empty queue; returns its slot.
    pub fn pop_front(&mut self, store: &mut PacketStore, v: usize) -> u32 {
        let s = self.head[v];
        debug_assert_ne!(s, NIL, "pop from an empty queue");
        let nxt = store.next[s as usize];
        self.head[v] = nxt;
        if nxt == NIL {
            self.tail[v] = NIL;
            self.occ[v / 64] &= !(1u64 << (v % 64));
        }
        if let Some(l) = self.len.get_mut(v) {
            *l -= 1;
        }
        s
    }

    /// Collect the occupied nodes in ascending order into `out`
    /// (capacity-reusing; `out` is cleared first).
    pub fn collect_occupied(&self, out: &mut Vec<u32>) {
        out.clear();
        self.collect_range(0, self.n, out);
    }

    /// Collect the occupied nodes in the engine's rotated service order —
    /// `[offset..n)` then `[0..offset)` — into `out`. The scan then walks
    /// only nodes that actually hold packets, in exactly the order the
    /// dense loop `v = (i + offset) % n` would have visited them.
    pub fn collect_occupied_rotated(&self, offset: usize, out: &mut Vec<u32>) {
        out.clear();
        self.collect_range(offset, self.n, out);
        self.collect_range(0, offset, out);
    }

    fn collect_range(&self, lo: usize, hi: usize, out: &mut Vec<u32>) {
        if lo >= hi {
            return;
        }
        let first = lo / 64;
        let last = (hi - 1) / 64;
        for w in first..=last {
            let mut bits = self.occ[w];
            if w == first {
                bits &= !0u64 << (lo % 64);
            }
            if w == last && !hi.is_multiple_of(64) {
                bits &= (1u64 << (hi % 64)) - 1;
            }
            while bits != 0 {
                out.push((w * 64 + bits.trailing_zeros() as usize) as u32);
                bits &= bits - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use gcube_routing::Route;

    fn route(nodes: &[u64]) -> Trajectory {
        Trajectory::Route(Route::new(nodes.iter().map(|&v| NodeId(v)).collect()))
    }

    #[test]
    fn arena_roundtrip_preserves_packets() {
        let mut store = PacketStore::default();
        let s = store.alloc(7, 3, route(&[0, 1, 3]));
        assert_eq!(store.current(s), NodeId(0));
        assert_eq!(store.next_hop(s), Some(NodeId(1)));
        assert!(!store.arrived(s) && !store.sinks_at(s, NodeId(1)));
        store.advance(s, NodeId(1));
        assert!(store.sinks_at(s, NodeId(3)));
        store.advance(s, NodeId(3));
        assert!(store.arrived(s));
        let pkt = store.remove(s);
        assert_eq!((pkt.id, pkt.injected_at, pkt.hops_taken), (7, 3, 2));
        assert_eq!(store.live(), 0);
        // The freed slot is recycled.
        let s2 = store.alloc(8, 4, route(&[5, 7]));
        assert_eq!(s2, s, "freelist must recycle");
        let back = store.remove(s2);
        let s3 = store.insert(back);
        assert_eq!(store.id[s3 as usize], 8);
        assert_eq!(store.planned_hops[s3 as usize], 1);
    }

    #[test]
    fn replan_resets_position_and_counts() {
        let mut store = PacketStore::default();
        let s = store.alloc(0, 0, route(&[0, 1, 3]));
        store.advance(s, NodeId(1));
        store.replan(s, route(&[1, 5, 7, 3]));
        assert_eq!(store.current(s), NodeId(1));
        assert_eq!(store.reroutes[s as usize], 1);
        assert_eq!(store.hops_taken[s as usize], 1);
        for v in [5, 7, 3] {
            store.advance(s, NodeId(v));
        }
        assert_eq!(store.detour_hops(s), 2, "4 walked vs 2 planned");
    }

    #[test]
    fn queues_preserve_fifo_order() {
        let mut store = PacketStore::default();
        let mut q = NodeQueues::new(4, true);
        for id in 0..5 {
            let s = store.alloc(id, 0, route(&[2, 3]));
            q.push_back(&mut store, 2, s);
        }
        assert_eq!(q.len(2), 5);
        let mut ids = Vec::new();
        while !q.is_empty(2) {
            let s = q.pop_front(&mut store, 2);
            ids.push(store.id[s as usize]);
            store.discard(s);
        }
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        assert!(q.front(2).is_none());
    }

    /// The word-scan iteration equals the dense rotated loop for random
    /// occupancy patterns, including partial trailing words.
    #[test]
    fn rotated_scan_matches_dense_loop() {
        for n in [1usize, 5, 63, 64, 65, 130, 200] {
            let mut store = PacketStore::default();
            let mut q = NodeQueues::new(n as u64, false);
            let mut x = 0x9e3779b97f4a7c15u64;
            let mut occupied = vec![false; n];
            for (v, occ) in occupied.iter_mut().enumerate() {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                if x >> 61 == 0 || v % 7 == 3 {
                    let s = store.alloc(v as u64, 0, route(&[v as u64, v as u64 ^ 1]));
                    q.push_back(&mut store, v, s);
                    *occ = true;
                }
            }
            for offset in [0usize, 1, n / 2, n - 1] {
                let expect: Vec<u32> = (0..n)
                    .map(|i| ((i + offset) % n) as u32)
                    .filter(|&v| occupied[v as usize])
                    .collect();
                let mut got = Vec::new();
                q.collect_occupied_rotated(offset, &mut got);
                assert_eq!(got, expect, "n={n} offset={offset}");
                if offset == 0 {
                    let mut asc = Vec::new();
                    q.collect_occupied(&mut asc);
                    assert_eq!(asc, expect);
                }
            }
        }
    }
}
