//! One checkout/return facade over the three scratch-buffer idioms the
//! evaluation hot loops grew: [`DijkstraScratch`] reuse, [`SptScratch`] +
//! [`IncrementalSpt`] rebuilds, and [`RecoveryScratch`] +
//! [`RtrSession::start_in`]/`recycle`.
//!
//! A [`SessionPool`] owns freelists of all three buffer kinds. Checkouts
//! hand back RAII guards that deref to the live object and return the
//! buffers to the pool on drop — callers never pair a `take` with a
//! `recycle` by hand.
//!
//! The pool is single-threaded by design (`RefCell` freelists): the
//! scenario-parallel driver builds one pool per worker, mirroring the
//! one-scratch-per-worker layout it had before.

use crate::error::Phase1Error;
use crate::phase2::RecoveryScratch;
use crate::recovery::RtrSession;
use rtr_routing::{DijkstraScratch, IncrementalSpt, SptScratch};
use rtr_topology::{CrossLinkTable, GraphView, LinkId, LinkMask, NodeId, Topology};
use std::cell::RefCell;
use std::ops::{Deref, DerefMut};

/// The combined per-attempt buffer bundle a pluggable recovery scheme
/// (`rtr-baselines`' `RecoveryScheme` trait) draws from: RTR session
/// buffers for the adapter, a Dijkstra scratch for per-encounter or
/// backup-path recomputation, and a link mask for believed-topology views.
///
/// One bundle serves any scheme — checking one out per attempt (or per
/// worker) via [`SessionPool::scheme_scratch`] keeps the multi-backend
/// hot loops allocation-free after warm-up without per-scheme freelists.
#[derive(Debug, Default)]
pub struct SchemeScratch {
    /// RTR phase-1/phase-2 buffers (for the RTR adapter).
    pub recovery: RecoveryScratch,
    /// Shortest-path buffers (FCP recomputation, MRC/eMRC backup paths).
    pub sp: DijkstraScratch,
    /// Believed-view mask (FCP) or single-link removal (FEP precompute).
    pub mask: LinkMask,
}

impl SchemeScratch {
    /// Fresh buffers; they grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A per-worker pool of recovery-session, Dijkstra, and SPT buffers.
///
/// # Examples
///
/// ```
/// use rtr_core::SessionPool;
/// use rtr_topology::{generate, CrossLinkTable, FailureScenario, NodeId, Region};
///
/// let topo = generate::grid(5, 5, 100.0);
/// let crosslinks = CrossLinkTable::new(&topo);
/// let scenario = FailureScenario::from_region(&topo, &Region::circle((200.0, 200.0), 50.0));
/// let failed = topo.link_between(NodeId(11), NodeId(12)).unwrap();
///
/// let pool = SessionPool::new();
/// let mut session = pool.start_session(&topo, &crosslinks, &scenario, NodeId(11), failed)?;
/// assert!(session.recover(NodeId(13)).is_delivered());
/// drop(session); // buffers return to the pool for the next checkout
/// # Ok::<(), rtr_core::Phase1Error>(())
/// ```
#[derive(Debug, Default)]
pub struct SessionPool {
    recovery: RefCell<Vec<RecoveryScratch>>,
    dijkstra: RefCell<Vec<DijkstraScratch>>,
    spt: RefCell<Vec<SptScratch>>,
    scheme: RefCell<Vec<SchemeScratch>>,
}

impl SessionPool {
    /// An empty pool; buffers are allocated on first checkout.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts an [`RtrSession`] from pooled buffers. The returned guard
    /// derefs to the session and recycles its buffers on drop.
    ///
    /// # Errors
    ///
    /// Same contract as [`RtrSession::start`]; on error the buffers go
    /// straight back to the pool.
    pub fn start_session<'p, 'a, V: GraphView>(
        &'p self,
        topo: &'a Topology,
        crosslinks: &CrossLinkTable,
        view: &'a V,
        initiator: NodeId,
        failed_default_link: LinkId,
    ) -> Result<PooledSession<'p, 'a, V>, Phase1Error> {
        let mut scratch = self.recovery.borrow_mut().pop().unwrap_or_default();
        match RtrSession::start_in(
            topo,
            crosslinks,
            view,
            initiator,
            failed_default_link,
            &mut scratch,
        ) {
            Ok(session) => Ok(PooledSession {
                pool: self,
                session: Some(session),
                scratch: Some(scratch),
            }),
            Err(e) => {
                // start_in leaves the scratch untouched on failure.
                self.recovery.borrow_mut().push(scratch);
                Err(e)
            }
        }
    }

    /// Starts an [`RtrSession`] whose phase-2 tree is seeded from
    /// `believed_base` (a possibly stale converged view) instead of the
    /// intact topology, from pooled buffers. Phase 1 still sweeps the
    /// ground-truth `view`. This is the churn-timeline entry point: the
    /// initiator recomputes routes over what it *believes* the network
    /// looked like before this failure.
    ///
    /// # Errors
    ///
    /// Same contract as [`RtrSession::start`]; on error the buffers go
    /// straight back to the pool.
    pub fn start_based_session<'p, 'a, V: GraphView>(
        &'p self,
        topo: &'a Topology,
        crosslinks: &CrossLinkTable,
        view: &'a V,
        believed_base: &impl GraphView,
        initiator: NodeId,
        failed_default_link: LinkId,
    ) -> Result<PooledSession<'p, 'a, V>, Phase1Error> {
        let mut scratch = self.recovery.borrow_mut().pop().unwrap_or_default();
        match RtrSession::start_based_traced_in(
            topo,
            crosslinks,
            view,
            believed_base,
            initiator,
            failed_default_link,
            &mut scratch,
            &mut rtr_obs::NoopSink,
        ) {
            Ok(session) => Ok(PooledSession {
                pool: self,
                session: Some(session),
                scratch: Some(scratch),
            }),
            Err(e) => {
                // start_based_traced_in leaves the scratch untouched on
                // failure.
                self.recovery.borrow_mut().push(scratch);
                Err(e)
            }
        }
    }

    /// Checks out a [`DijkstraScratch`]. Multiple leases may be live at
    /// once (the driver holds one for the optimal baseline and one for MRC
    /// simultaneously); each returns to the freelist on drop.
    pub fn dijkstra(&self) -> DijkstraLease<'_> {
        let scratch = self.dijkstra.borrow_mut().pop().unwrap_or_default();
        DijkstraLease {
            pool: self,
            scratch: Some(scratch),
        }
    }

    /// Builds an [`IncrementalSpt`] rooted at `source` over `view` from
    /// pooled buffers. The guard derefs to the tree and banks its buffers
    /// on drop.
    pub fn incremental_spt<'p, 'a>(
        &'p self,
        topo: &'a Topology,
        view: &impl GraphView,
        source: NodeId,
    ) -> SptLease<'p, 'a> {
        let scratch = self.spt.borrow_mut().pop().unwrap_or_default();
        SptLease {
            pool: self,
            spt: Some(IncrementalSpt::with_view_in(topo, view, source, scratch)),
        }
    }

    /// Checks out a [`SchemeScratch`] for a pluggable recovery-scheme
    /// attempt (`rtr-baselines`' `RecoveryScheme::route_in`). The guard
    /// derefs to the bundle and returns it to the freelist on drop.
    ///
    /// # Examples
    ///
    /// ```
    /// use rtr_core::SessionPool;
    ///
    /// let pool = SessionPool::new();
    /// {
    ///     let mut lease = pool.scheme_scratch();
    ///     // The lease derefs to the scratch bundle: `&mut *lease` (or
    ///     // plain deref coercion) is the `&mut SchemeScratch` a
    ///     // `RecoveryScheme::route_in` call takes. Buffers return to
    ///     // the pool here, warm for the next attempt.
    ///     let _bundle = &mut *lease;
    /// }
    /// let again = pool.scheme_scratch(); // reuses the same allocation
    /// drop(again);
    /// ```
    pub fn scheme_scratch(&self) -> SchemeLease<'_> {
        let scratch = self.scheme.borrow_mut().pop().unwrap_or_default();
        SchemeLease {
            pool: self,
            scratch: Some(scratch),
        }
    }
}

/// RAII guard for a pooled [`RtrSession`]; derefs to the session and
/// recycles its buffers into the owning [`SessionPool`] on drop.
#[derive(Debug)]
pub struct PooledSession<'p, 'a, V: GraphView> {
    pool: &'p SessionPool,
    session: Option<RtrSession<'a, V>>,
    scratch: Option<RecoveryScratch>,
}

impl<'a, V: GraphView> Deref for PooledSession<'_, 'a, V> {
    type Target = RtrSession<'a, V>;
    #[allow(clippy::expect_used)] // see allow.toml: guard holds the session until drop
    fn deref(&self) -> &Self::Target {
        self.session.as_ref().expect("session present until drop")
    }
}

impl<V: GraphView> DerefMut for PooledSession<'_, '_, V> {
    #[allow(clippy::expect_used)] // see allow.toml: guard holds the session until drop
    fn deref_mut(&mut self) -> &mut Self::Target {
        self.session.as_mut().expect("session present until drop")
    }
}

impl<V: GraphView> Drop for PooledSession<'_, '_, V> {
    fn drop(&mut self) {
        if let (Some(session), Some(mut scratch)) = (self.session.take(), self.scratch.take()) {
            session.recycle(&mut scratch);
            self.pool.recovery.borrow_mut().push(scratch);
        }
    }
}

/// RAII guard for a pooled [`DijkstraScratch`].
#[derive(Debug)]
pub struct DijkstraLease<'p> {
    pool: &'p SessionPool,
    scratch: Option<DijkstraScratch>,
}

impl Deref for DijkstraLease<'_> {
    type Target = DijkstraScratch;
    #[allow(clippy::expect_used)] // see allow.toml: guard holds the scratch until drop
    fn deref(&self) -> &Self::Target {
        self.scratch.as_ref().expect("scratch present until drop")
    }
}

impl DerefMut for DijkstraLease<'_> {
    #[allow(clippy::expect_used)] // see allow.toml: guard holds the scratch until drop
    fn deref_mut(&mut self) -> &mut Self::Target {
        self.scratch.as_mut().expect("scratch present until drop")
    }
}

impl Drop for DijkstraLease<'_> {
    fn drop(&mut self) {
        if let Some(scratch) = self.scratch.take() {
            self.pool.dijkstra.borrow_mut().push(scratch);
        }
    }
}

/// RAII guard for a pooled [`SchemeScratch`].
#[derive(Debug)]
pub struct SchemeLease<'p> {
    pool: &'p SessionPool,
    scratch: Option<SchemeScratch>,
}

impl Deref for SchemeLease<'_> {
    type Target = SchemeScratch;
    #[allow(clippy::expect_used)] // see allow.toml: guard holds the scratch until drop
    fn deref(&self) -> &Self::Target {
        self.scratch.as_ref().expect("scratch present until drop")
    }
}

impl DerefMut for SchemeLease<'_> {
    #[allow(clippy::expect_used)] // see allow.toml: guard holds the scratch until drop
    fn deref_mut(&mut self) -> &mut Self::Target {
        self.scratch.as_mut().expect("scratch present until drop")
    }
}

impl Drop for SchemeLease<'_> {
    fn drop(&mut self) {
        if let Some(scratch) = self.scratch.take() {
            self.pool.scheme.borrow_mut().push(scratch);
        }
    }
}

/// RAII guard for a pooled [`IncrementalSpt`]; banks the tree's buffers on
/// drop.
#[derive(Debug)]
pub struct SptLease<'p, 'a> {
    pool: &'p SessionPool,
    spt: Option<IncrementalSpt<'a>>,
}

impl<'a> Deref for SptLease<'_, 'a> {
    type Target = IncrementalSpt<'a>;
    #[allow(clippy::expect_used)] // see allow.toml: guard holds the tree until drop
    fn deref(&self) -> &Self::Target {
        self.spt.as_ref().expect("spt present until drop")
    }
}

impl DerefMut for SptLease<'_, '_> {
    #[allow(clippy::expect_used)] // see allow.toml: guard holds the tree until drop
    fn deref_mut(&mut self) -> &mut Self::Target {
        self.spt.as_mut().expect("spt present until drop")
    }
}

impl Drop for SptLease<'_, '_> {
    fn drop(&mut self) {
        if let Some(spt) = self.spt.take() {
            self.pool.spt.borrow_mut().push(spt.into_scratch());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_topology::{generate, FailureScenario, FullView};

    fn grid_case() -> (Topology, CrossLinkTable, FailureScenario, NodeId, LinkId) {
        let topo = generate::grid(3, 3, 10.0);
        let xl = CrossLinkTable::new(&topo);
        let s = FailureScenario::from_parts(&topo, [NodeId(4)], []);
        let failed = topo.link_between(NodeId(3), NodeId(4)).unwrap();
        (topo, xl, s, NodeId(3), failed)
    }

    #[test]
    fn session_checkout_recovers_and_returns_buffers() {
        let (topo, xl, s, init, failed) = grid_case();
        let pool = SessionPool::new();
        {
            let mut session = pool.start_session(&topo, &xl, &s, init, failed).unwrap();
            assert!(session.phase1().is_complete());
            assert!(session.recover(NodeId(5)).is_delivered());
        }
        assert_eq!(pool.recovery.borrow().len(), 1, "buffers returned on drop");
        // The recycled scratch is reused by the next checkout instead of
        // growing the freelist.
        {
            let _again = pool.start_session(&topo, &xl, &s, init, failed).unwrap();
            assert_eq!(pool.recovery.borrow().len(), 0);
        }
        assert_eq!(pool.recovery.borrow().len(), 1);
    }

    #[test]
    fn failed_start_returns_scratch_to_pool() {
        let (topo, xl, s, init, _) = grid_case();
        let pool = SessionPool::new();
        // A live link is not a valid failed default link.
        let live = topo.link_between(NodeId(0), NodeId(1)).unwrap();
        assert!(pool.start_session(&topo, &xl, &s, init, live).is_err());
        assert_eq!(pool.recovery.borrow().len(), 1);
    }

    #[test]
    fn concurrent_dijkstra_leases_are_independent() {
        let (topo, _, s, _, _) = grid_case();
        let pool = SessionPool::new();
        let mut a = pool.dijkstra();
        let mut b = pool.dijkstra();
        let da = a.run(&topo, &s, NodeId(0)).distance(NodeId(8));
        let db = b.run(&topo, &FullView, NodeId(0)).distance(NodeId(8));
        // Failed centre forces the longer way around.
        assert_eq!(db, Some(4));
        assert_eq!(da, db, "grid corner-to-corner detour costs the same");
        drop(a);
        drop(b);
        assert_eq!(pool.dijkstra.borrow().len(), 2);
    }

    #[test]
    fn spt_lease_matches_direct_incremental_spt() {
        let (topo, _, s, _, _) = grid_case();
        let pool = SessionPool::new();
        {
            let lease = pool.incremental_spt(&topo, &s, NodeId(0));
            let direct = IncrementalSpt::with_view(&topo, &s, NodeId(0));
            for v in topo.node_ids() {
                assert_eq!(lease.distance(v), direct.distance(v));
            }
        }
        assert_eq!(pool.spt.borrow().len(), 1);
    }

    #[test]
    fn scheme_scratch_checkout_returns_buffers() {
        let pool = SessionPool::new();
        {
            let mut lease = pool.scheme_scratch();
            let topo = generate::grid(3, 3, 10.0);
            lease.mask.reset(&topo);
            let sp = lease.sp.run(&topo, &FullView, NodeId(0));
            assert_eq!(sp.distance(NodeId(8)), Some(4));
            assert_eq!(pool.scheme.borrow().len(), 0);
        }
        assert_eq!(pool.scheme.borrow().len(), 1, "buffers returned on drop");
        {
            let _again = pool.scheme_scratch();
            assert_eq!(pool.scheme.borrow().len(), 0, "freelist reused");
        }
        assert_eq!(pool.scheme.borrow().len(), 1);
    }
}
