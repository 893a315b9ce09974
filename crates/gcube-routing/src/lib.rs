//! Routing algorithms from *"A Fault-tolerant Routing Strategy for Gaussian
//! Cube Using Gaussian Tree"* (Loh & Zhang, ICPP 2003).
//!
//! The paper's pipeline, crate-module by crate-module:
//!
//! 1. [`pc`] — **Algorithm 1 (PC)**: optimal path construction in the
//!    Gaussian Tree `T_m`.
//! 2. [`ct`] — **Algorithm 2 (CT / FindBP)**: optimal closed traversal of a
//!    destination set in a tree (the multi-drop walk FFGCR uses for ending
//!    classes that lie off the main path).
//! 3. [`ffgcr`] — **Algorithm 3 (FFGCR)**: fault-free routing in
//!    `GC(n, 2^α)` by projecting onto `T_α`; provably optimal (equal to BFS
//!    distance — property-tested).
//! 4. [`faults`] — the A/B/C fault taxonomy (Definitions 3–5), precondition
//!    checkers for Theorems 3 and 5, and the tolerable-fault counts behind
//!    Figure 4.
//! 5. [`hypercube_ft`] — the fault-tolerant binary-hypercube substrate
//!    (safety levels in the style of Wu [5], adaptive spare-dimension routing
//!    in the style of Lan [6]) that Theorem 3 delegates to, generalised to
//!    the *virtual* cubes `GEEC(α,k,t)` embedded in a Gaussian Cube.
//! 6. [`freh`] — **Algorithm 4 (FREH)**: fault-tolerant, livelock-free
//!    routing in the Exchanged Hypercube `EH(s,t)` (Theorem 4).
//! 7. [`ftgcr`] — the full fault-tolerant Gaussian Cube strategy
//!    (Theorem 5): FFGCR's plan, with A faults absorbed by `hypercube_ft`
//!    inside each subcube and B/C faults on tree crossings absorbed by
//!    FREH-style bouncing.
//! 8. [`verify`] — route validation, hop-bound accounting, a
//!    channel-dependency-graph (Dally–Seitz) deadlock analysis tool, and a
//!    virtual-channel assignment that restores wormhole deadlock freedom.
//!
//! Beyond the §5 pipeline:
//!
//! * [`plan_cache`] — the ending-class plan cache: Theorem 2 makes the
//!   tree walk a function of `(EC(s), EC(d), required classes)` alone, so
//!   per-packet planning memoises down to a lookup plus an XOR replay;
//! * [`knowledge`] — the distributed fault-status exchange protocol behind
//!   the paper's claims 4–5 (rounds of neighbour exchange, bounded
//!   per-node fault lists);
//! * [`dftgcr`] — FTGCR executed hop by hop under that *local* knowledge
//!   model, with the packet header carrying at most `F` learned faults;
//! * [`collective`] — the multicast / broadcast / gather primitives the
//!   introduction credits the GC family with (§1, refs [1][7]).

pub mod collective;
pub mod ct;
pub mod dftgcr;
pub mod faults;
pub mod ffgcr;
pub mod freh;
pub mod ftgcr;
pub mod hypercube_ft;
pub mod knowledge;
pub mod multitree;
pub mod pc;
pub mod plan_cache;
pub mod route;
pub mod verify;

pub use collective::{BroadcastTree, RepairOutcome};
pub use faults::{fault_budget, FaultBudget, FaultCategory, FaultSet, HealthState, SubcubeLoad};
pub use multitree::{MultiTreeAtlas, MultiTreeError, TreeChoice, TreeHealth};
pub use plan_cache::{
    CacheStats, CachedWalk, PlanCache, TreeCacheStats, TreeSnapshot, WalkRoute, WalkRule,
};
pub use route::{Route, RoutingError, Trajectory};
