//! The set of topologies a service instance answers queries for.
//!
//! Each [`FleetEntry`] pairs a name with its
//! [`Baseline`] — built once at startup,
//! with the parallel per-source build when threads are available — plus
//! a per-region scenario cache so repeated observations of the same
//! failure circle share one [`FailureScenario`]. The cache is keyed on
//! the region's f64 *bit patterns* (a `BTreeMap`, keeping iteration
//! deterministic) and holds `Arc`s, so workers resolve a hot region
//! with one map probe and no recomputation.

use crate::proto::RegionSpec;
use rtr_baselines::{RecoveryScheme, SchemeId, SchemeMask};
use rtr_eval::baseline::Baseline;
use rtr_eval::schemes::build_comparators;
use rtr_eval::ExperimentConfig;
use rtr_topology::{isp, FailureScenario};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

/// One served topology with its baseline and scenario cache.
#[derive(Debug)]
pub struct FleetEntry {
    name: String,
    baseline: Arc<Baseline>,
    scenarios: Mutex<BTreeMap<(u64, u64, u64), Arc<FailureScenario>>>,
    /// Comparator backends keyed by wire code, built on first request.
    /// `None` records a code that cannot be served (unknown id, or a
    /// backend whose precomputation failed — e.g. MRC on a topology it
    /// cannot cover), so repeat offenders don't retry the build.
    comparators: Mutex<BTreeMap<u8, Option<Arc<dyn RecoveryScheme>>>>,
}

impl FleetEntry {
    /// Wraps an already-built baseline.
    #[must_use]
    pub fn new(name: impl Into<String>, baseline: Arc<Baseline>) -> Self {
        FleetEntry {
            name: name.into(),
            baseline,
            scenarios: Mutex::new(BTreeMap::new()),
            comparators: Mutex::new(BTreeMap::new()),
        }
    }

    /// Display name (e.g. `"AS4323"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The shared per-topology baseline.
    #[must_use]
    pub fn baseline(&self) -> &Arc<Baseline> {
        &self.baseline
    }

    /// The ground-truth scenario for a region observation, computed on
    /// first sight and cached by the region's bit pattern. `None` when
    /// the spec is non-finite or negative-radius.
    pub fn scenario(&self, spec: &RegionSpec) -> Option<Arc<FailureScenario>> {
        let region = spec.to_region()?;
        let mut cache = self
            .scenarios
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        Some(Arc::clone(cache.entry(spec.key()).or_insert_with(|| {
            Arc::new(FailureScenario::from_region(self.baseline.topo(), &region))
        })))
    }

    /// Number of distinct regions cached so far.
    #[must_use]
    pub fn cached_scenarios(&self) -> usize {
        self.scenarios
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// The comparator backend for a wire scheme code, built (and cached)
    /// on first sight. `None` for unknown codes, for code 0 (RTR is the
    /// service's native path, not a comparator), and for backends whose
    /// per-topology precomputation fails; failures are cached too, so a
    /// hostile client can't trigger rebuild storms.
    pub fn comparator(&self, code: u8) -> Option<Arc<dyn RecoveryScheme>> {
        if code == SchemeId::Rtr.code() {
            return None;
        }
        let mut cache = self
            .comparators
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        cache
            .entry(code)
            .or_insert_with(|| {
                let id = SchemeId::from_code(code)?;
                let mask = SchemeMask::none().with(id);
                let configs = ExperimentConfig::default().mrc_configurations;
                let built = build_comparators(self.baseline.topo(), mask, configs).ok()?;
                built.into_iter().next().map(Arc::from)
            })
            .clone()
    }
}

/// The fleet: served topologies, addressed by dense index (the wire
/// protocol's `topo` field).
#[derive(Debug)]
pub struct Fleet {
    entries: Vec<FleetEntry>,
}

impl Fleet {
    /// A fleet over already-built baselines, in index order.
    #[must_use]
    pub fn from_baselines(entries: Vec<(String, Arc<Baseline>)>) -> Self {
        Fleet {
            entries: entries
                .into_iter()
                .map(|(name, b)| FleetEntry::new(name, b))
                .collect(),
        }
    }

    /// Builds the fleet from Table II profile names (e.g. `"AS4323"`),
    /// computing each baseline with up to `threads` workers.
    ///
    /// # Errors
    ///
    /// The first name that is not a Table II profile.
    pub fn from_profiles(names: &[String], threads: usize) -> Result<Self, String> {
        let mut entries = Vec::with_capacity(names.len());
        for name in names {
            let profile = isp::profile(name).ok_or_else(|| format!("unknown topology {name:?}"))?;
            let baseline = Arc::new(Baseline::with_threads(profile.synthesize(), threads));
            entries.push((name.clone(), baseline));
        }
        Ok(Fleet::from_baselines(entries))
    }

    /// The entry at wire index `idx`, if any.
    #[must_use]
    pub fn get(&self, idx: u16) -> Option<&FleetEntry> {
        self.entries.get(idx as usize)
    }

    /// The wire index of a named topology.
    #[must_use]
    pub fn index_of(&self, name: &str) -> Option<u16> {
        self.entries
            .iter()
            .position(|e| e.name() == name)
            .and_then(|i| u16::try_from(i).ok())
    }

    /// All entries in index order.
    #[must_use]
    pub fn entries(&self) -> &[FleetEntry] {
        &self.entries
    }

    /// Number of served topologies.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the fleet serves nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_topology::generate;

    fn tiny_fleet() -> Fleet {
        let topo = generate::grid(4, 4, 100.0);
        Fleet::from_baselines(vec![("grid4".into(), Arc::new(Baseline::new(topo)))])
    }

    #[test]
    fn scenario_cache_shares_by_region_bits() {
        let fleet = tiny_fleet();
        let entry = fleet.get(0).unwrap();
        let spec = RegionSpec {
            cx: 150.0,
            cy: 150.0,
            radius: 60.0,
        };
        let a = entry.scenario(&spec).unwrap();
        let b = entry.scenario(&spec).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup hits the cache");
        assert_eq!(entry.cached_scenarios(), 1);
        let other = RegionSpec {
            radius: 61.0,
            ..spec
        };
        let c = entry.scenario(&other).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(entry.cached_scenarios(), 2);
    }

    #[test]
    fn invalid_regions_never_reach_the_constructor() {
        let fleet = tiny_fleet();
        let entry = fleet.get(0).unwrap();
        let bad = RegionSpec {
            cx: f64::NAN,
            cy: 0.0,
            radius: 10.0,
        };
        assert!(entry.scenario(&bad).is_none());
        assert_eq!(entry.cached_scenarios(), 0);
    }

    #[test]
    fn profile_fleet_resolves_names_and_indices() {
        let fleet = Fleet::from_profiles(&["AS4323".into()], 1).unwrap();
        assert_eq!(fleet.len(), 1);
        assert_eq!(fleet.index_of("AS4323"), Some(0));
        assert_eq!(fleet.index_of("AS9999"), None);
        assert!(fleet.get(1).is_none());
        assert!(Fleet::from_profiles(&["ASnope".into()], 1).is_err());
    }
}
