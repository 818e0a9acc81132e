//! Baseline recovery schemes the paper compares RTR against (§IV and
//! §VI), all behind one object-safe [`RecoveryScheme`] trait:
//!
//! * [`fcp`] — Failure-Carrying Packets (source-routing variant), the
//!   reactive comparator: packets carry encountered failures and routers
//!   recompute on every encounter;
//! * [`mrc`] — Multiple Routing Configurations, the proactive comparator:
//!   precomputed backup configurations, one configuration switch per
//!   packet;
//! * [`emrc`] — enhanced MRC: backtracking-free re-switching on every
//!   newly encountered failure, at most one switch per configuration;
//! * [`fep`] — Fast Emergency Paths: per-link OSPF detours precomputed on
//!   the intact topology, no failure-time computation at all;
//! * [`scheme::Rtr`] — an adapter running the paper's own two-phase
//!   recovery behind the same trait, for like-for-like comparison.
//!
//! The [`scheme`] module carries the trait itself plus the shared vocabulary:
//! [`SchemeId`], [`SchemeMask`], [`SchemeCtx`], [`SchemeAttempt`], and
//! [`RouteOutcome`]. Precomputation stays on each scheme's inherent
//! constructor (`Mrc::build`, `Emrc::build`, `Fep::build`, …); per-attempt
//! buffers live in a pooled [`rtr_core::SchemeScratch`].
//!
//! # Examples
//!
//! ```
//! use rtr_topology::{generate, CrossLinkTable, FailureScenario, FullView, NodeId};
//! use rtr_routing::RoutingTable;
//! use rtr_baselines::{Fcp, RecoveryScheme, SchemeCtx};
//! use rtr_core::SchemeScratch;
//!
//! // Diamond 0-1-3 / 0-2-3; the short branch 0-2 fails.
//! let topo = {
//!     let mut b = rtr_topology::Topology::builder();
//!     let v0 = b.add_node(rtr_topology::Point::new(0.0, 0.0));
//!     let v1 = b.add_node(rtr_topology::Point::new(1.0, 1.0));
//!     let v2 = b.add_node(rtr_topology::Point::new(1.0, -1.0));
//!     let v3 = b.add_node(rtr_topology::Point::new(2.0, 0.0));
//!     b.add_link(v0, v1, 1).unwrap();
//!     b.add_link(v1, v3, 1).unwrap();
//!     b.add_link(v0, v2, 1).unwrap();
//!     b.add_link(v2, v3, 1).unwrap();
//!     b.build().unwrap()
//! };
//! let crosslinks = CrossLinkTable::new(&topo);
//! let table = RoutingTable::compute(&topo, &FullView);
//! let ctx = SchemeCtx { topo: &topo, crosslinks: &crosslinks, table: &table };
//!
//! let failed = topo.link_between(NodeId(0), NodeId(2)).unwrap();
//! let scenario = FailureScenario::single_link(&topo, failed);
//! let mut scratch = SchemeScratch::new();
//! let attempt = Fcp.route_in(ctx, &scenario, NodeId(0), failed, NodeId(3), &mut scratch);
//! assert!(attempt.is_delivered());
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod emrc;
pub mod fcp;
pub mod fep;
pub mod mrc;
pub mod scheme;

pub use emrc::Emrc;
pub use fcp::{fcp_route, FcpAttempt, FcpOutcome};
pub use fep::Fep;
pub use mrc::{mrc_recover, Mrc, MrcAttempt, MrcError, MrcOutcome};
pub use scheme::{
    Fcp, RecoveryScheme, RouteOutcome, Rtr, SchemeAttempt, SchemeCtx, SchemeId, SchemeMask,
};
