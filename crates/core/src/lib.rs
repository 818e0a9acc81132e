//! # RTR — Reactive Two-phase Rerouting
//!
//! A reproduction of *"Optimal Recovery from Large-Scale Failures in IP
//! Networks"* (Zheng, Cao, La Porta, Swami — ICDCS 2012).
//!
//! RTR recovers intra-domain routing paths during IGP convergence after a
//! large-scale geographically-correlated failure, in two phases:
//!
//! 1. **Collect** ([`phase1`]): data packets circle the failure area under
//!    a counterclockwise right-hand rule ([`sweep`]); routers adjacent to
//!    the area record their failed incident links in the packet header.
//!    Two crossing constraints keep the walk correct on non-planar graphs.
//! 2. **Recompute and reroute** ([`phase2`]): the recovery initiator
//!    removes the collected links from its topology view, computes new
//!    shortest paths (incremental SPT, cached per destination), and
//!    source-routes packets along them.
//!
//! [`RtrSession`] ties both phases together for one recovery initiator.
//!
//! Properties (proved in the paper, tested here):
//! * **Theorem 1** — phase 1 never loops forever;
//! * **Theorem 2** — every delivered recovery path is a ground-truth
//!   shortest path (stretch exactly 1);
//! * **Theorem 3** — under a single link failure every failed routing path
//!   is recovered, optimally.
//!
//! # Examples
//!
//! ```
//! use rtr_topology::{generate, CrossLinkTable, FailureScenario, NodeId, Region};
//! use rtr_core::RtrSession;
//!
//! // A 5x5 grid whose centre is wiped out by a circular failure.
//! let topo = generate::grid(5, 5, 100.0);
//! let crosslinks = CrossLinkTable::new(&topo);
//! let scenario = FailureScenario::from_region(&topo, &Region::circle((200.0, 200.0), 50.0));
//! assert!(scenario.is_node_failed(NodeId(12)));
//!
//! // Node 11 (west of the centre) loses its eastward next hop; recover.
//! let initiator = NodeId(11);
//! let failed = topo.link_between(initiator, NodeId(12)).unwrap();
//! let mut session = RtrSession::start(&topo, &crosslinks, &scenario, initiator, failed)?;
//! assert!(session.phase1().is_complete());
//! let attempt = session.recover(NodeId(13)); // the node east of the dead centre
//! assert!(attempt.is_delivered());
//! # Ok::<(), rtr_core::Phase1Error>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod error;
pub mod multi;
pub mod phase1;
pub mod phase2;
pub mod pool;
pub mod recovery;
pub mod sweep;

pub use error::Phase1Error;
pub use multi::{recover_multi_area, MultiAreaOutcome};
pub use phase1::{
    collect_failure_info, collect_failure_info_traced, Phase1Result, Phase1Termination,
};
pub use phase2::{
    source_route_walk, source_route_walk_reusing, source_route_walk_traced, DeliveryOutcome,
    RecoveryComputer, RecoveryScratch,
};
pub use pool::{DijkstraLease, PooledSession, SchemeLease, SchemeScratch, SessionPool, SptLease};
pub use recovery::{RecoveryAttempt, RtrSession};
pub use sweep::SweepContext;
