//! The full cache hierarchy: per-core L1/L2, shared L3, DRAM.
//!
//! Latencies follow the figures the paper's §4 arithmetic assumes for a
//! ~3 GHz server part: L1 ≈ 4 cycles, L2 ≈ 14, L3 ≈ 42, DRAM ≈ 190.
//! The hierarchy is inclusive-on-fill: a DRAM fill installs the line at
//! every level on the way back to the requesting core.

use switchless_sim::time::Cycles;

use crate::addr::PAddr;
use crate::cache::{Cache, CacheGeom, CacheJournal, JournaledCache, PartitionId};
use crate::dram::{Dram, DramConfig};

/// Which level served an access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum HitLevel {
    /// Served by the core's L1 data cache.
    L1,
    /// Served by the core's private L2.
    L2,
    /// Served by the shared L3.
    L3,
    /// Served by DRAM (off-chip).
    Dram,
}

/// Read or write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// Outcome of one access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessResult {
    /// Total load-to-use latency.
    pub latency: Cycles,
    /// The level that had the line.
    pub level: HitLevel,
}

/// Geometry and latency configuration for [`Hierarchy`].
#[derive(Clone, Copy, Debug)]
pub struct HierarchyConfig {
    /// Per-core L1 data cache geometry.
    pub l1: CacheGeom,
    /// Per-core private L2 geometry.
    pub l2: CacheGeom,
    /// Shared L3 geometry.
    pub l3: CacheGeom,
    /// L1 hit latency.
    pub lat_l1: Cycles,
    /// L2 hit latency.
    pub lat_l2: Cycles,
    /// L3 hit latency.
    pub lat_l3: Cycles,
    /// DRAM model parameters.
    pub dram: DramConfig,
}

impl HierarchyConfig {
    /// A representative server-class configuration.
    #[must_use]
    pub fn server() -> HierarchyConfig {
        HierarchyConfig {
            l1: CacheGeom {
                size_bytes: 32 * 1024,
                ways: 8,
            },
            l2: CacheGeom {
                size_bytes: 512 * 1024,
                ways: 8,
            },
            l3: CacheGeom {
                size_bytes: 8 * 1024 * 1024,
                ways: 16,
            },
            lat_l1: Cycles(4),
            lat_l2: Cycles(14),
            lat_l3: Cycles(42),
            dram: DramConfig::default(),
        }
    }

    /// A tiny configuration for fast unit tests.
    #[must_use]
    pub fn tiny() -> HierarchyConfig {
        HierarchyConfig {
            l1: CacheGeom {
                size_bytes: 1024,
                ways: 2,
            },
            l2: CacheGeom {
                size_bytes: 4096,
                ways: 4,
            },
            l3: CacheGeom {
                size_bytes: 16 * 1024,
                ways: 4,
            },
            lat_l1: Cycles(4),
            lat_l2: Cycles(14),
            lat_l3: Cycles(42),
            dram: DramConfig::default(),
        }
    }
}

/// One core's private cache levels (L1 + L2), borrowed by an epoch
/// worker of the shard engine.
///
/// In the serial engine, only instructions executing on core `c` touch
/// `l1[c]`/`l2[c]` (cross-core effects like DMA invalidates go through
/// the machine and end the epoch), so a worker may mutate them in place
/// while other workers hold the other cores' levels — LRU stamps, dirty
/// bits, and hit/miss counts land exactly as if the accesses had run
/// serially. Every change is journaled first, so a discarded epoch is
/// undone with [`Hierarchy::rollback_core_view`] at the cost of what it
/// touched. Accesses that would escalate to the shared L3 return
/// `None`; the worker abandons the epoch instead.
#[derive(Debug)]
pub struct CoreCaches<'a> {
    l1: JournaledCache<'a>,
    l2: JournaledCache<'a>,
    lat_l1: Cycles,
    lat_l2: Cycles,
    wb_l1: u64,
    wb_l2: u64,
}

impl CoreCaches<'_> {
    /// Serves one access from the private levels alone, mirroring the
    /// L1/L2 prefix of [`Hierarchy::access`] exactly. `None` means the
    /// line is in neither level and the access needs the shared L3.
    pub fn try_access(
        &mut self,
        addr: PAddr,
        kind: AccessKind,
        part: PartitionId,
    ) -> Option<AccessResult> {
        let write = kind == AccessKind::Write;
        if self.l1.access(addr, write) {
            return Some(AccessResult {
                latency: self.lat_l1,
                level: HitLevel::L1,
            });
        }
        if self.l2.access(addr, write) {
            if self.l1.fill(addr, part, write).is_some() {
                self.wb_l1 += 1;
            }
            return Some(AccessResult {
                latency: self.lat_l2,
                level: HitLevel::L2,
            });
        }
        None
    }

    /// Dirty lines this view evicted so far, per level `(l1, l2)`; the
    /// owner folds them in with [`Hierarchy::note_private_writebacks`]
    /// when the epoch commits.
    #[must_use]
    pub fn writebacks(&self) -> (u64, u64) {
        (self.wb_l1, self.wb_l2)
    }

    /// Whether the view's L1 holds the line (no LRU/statistics effect).
    #[must_use]
    pub fn l1_contains(&self, addr: PAddr) -> bool {
        self.l1.contains(addr)
    }

    /// Applies a superblock's L1 access stream (its fetches, merged with
    /// its data accesses in a memory block) against the view's L1 as one
    /// batch (see
    /// [`Cache::access_run_mixed`]): `false` — and no mutation — unless
    /// every line is L1-resident.
    pub fn l1_access_run_mixed(&mut self, lines: &[(PAddr, u64, bool)], n: u64) -> bool {
        self.l1.access_run_mixed(lines, n)
    }
}

/// A multi-core cache hierarchy.
#[derive(Clone, Debug)]
pub struct Hierarchy {
    config: HierarchyConfig,
    l1: Vec<Cache>,
    l2: Vec<Cache>,
    l3: Cache,
    dram: Dram,
    /// Dirty lines written back on eviction, per level (l1, l2, l3).
    writebacks: (u64, u64, u64),
    /// Per-core undo journals `[l1, l2]` for [`Hierarchy::core_views`].
    journals: Vec<[CacheJournal; 2]>,
}

impl Hierarchy {
    /// Builds a hierarchy for `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0`.
    #[must_use]
    pub fn new(cores: usize, config: HierarchyConfig) -> Hierarchy {
        assert!(cores > 0, "hierarchy needs at least one core");
        Hierarchy {
            config,
            l1: (0..cores).map(|_| Cache::new(config.l1)).collect(),
            l2: (0..cores).map(|_| Cache::new(config.l2)).collect(),
            l3: Cache::new(config.l3),
            dram: Dram::new(config.dram),
            writebacks: (0, 0, 0),
            journals: (0..cores).map(|_| Default::default()).collect(),
        }
    }

    /// Number of cores this hierarchy was built for.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.l1.len()
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Performs one access from `core`, filling lines on the way back.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn access(
        &mut self,
        now: Cycles,
        core: usize,
        addr: PAddr,
        kind: AccessKind,
        part: PartitionId,
    ) -> AccessResult {
        let write = kind == AccessKind::Write;
        if self.l1[core].access(addr, write) {
            return AccessResult {
                latency: self.config.lat_l1,
                level: HitLevel::L1,
            };
        }
        if self.l2[core].access(addr, write) {
            if self.l1[core].fill(addr, part, write).is_some() {
                self.writebacks.0 += 1;
            }
            return AccessResult {
                latency: self.config.lat_l2,
                level: HitLevel::L2,
            };
        }
        if self.l3.access(addr, write) {
            if self.l2[core].fill(addr, part, false).is_some() {
                self.writebacks.1 += 1;
            }
            if self.l1[core].fill(addr, part, write).is_some() {
                self.writebacks.0 += 1;
            }
            return AccessResult {
                latency: self.config.lat_l3,
                level: HitLevel::L3,
            };
        }
        let dram_lat = self.dram.access_line(now, addr.line().0);
        if self.l3.fill(addr, part, false).is_some() {
            self.writebacks.2 += 1;
        }
        if self.l2[core].fill(addr, part, false).is_some() {
            self.writebacks.1 += 1;
        }
        if self.l1[core].fill(addr, part, write).is_some() {
            self.writebacks.0 += 1;
        }
        AccessResult {
            latency: self.config.lat_l3 + dram_lat,
            level: HitLevel::Dram,
        }
    }

    /// Lends the private levels of each of `cores` (strictly ascending)
    /// to an epoch worker, starting a fresh undo journal for each.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is not strictly ascending or names a core out of
    /// range.
    pub fn core_views(&mut self, cores: &[usize]) -> Vec<CoreCaches<'_>> {
        assert!(cores.windows(2).all(|w| w[0] < w[1]), "cores must ascend");
        assert!(
            cores.last().is_none_or(|&c| c < self.l1.len()),
            "core out of range"
        );
        let (lat_l1, lat_l2) = (self.config.lat_l1, self.config.lat_l2);
        let mut want = cores.iter().peekable();
        let mut views = Vec::with_capacity(cores.len());
        for (c, ((l1, l2), [j1, j2])) in self
            .l1
            .iter_mut()
            .zip(self.l2.iter_mut())
            .zip(self.journals.iter_mut())
            .enumerate()
        {
            if want.next_if_eq(&&c).is_some() {
                views.push(CoreCaches {
                    l1: JournaledCache::begin(l1, j1),
                    l2: JournaledCache::begin(l2, j2),
                    lat_l1,
                    lat_l2,
                    wb_l1: 0,
                    wb_l2: 0,
                });
            }
        }
        views
    }

    /// Undoes everything the last [`Hierarchy::core_views`] borrow of
    /// `core`'s private levels changed.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn rollback_core_view(&mut self, core: usize) {
        let [j1, j2] = &mut self.journals[core];
        j1.rollback(&mut self.l1[core]);
        j2.rollback(&mut self.l2[core]);
    }

    /// Folds the write-backs of a committed [`CoreCaches`] view into the
    /// machine totals (see [`CoreCaches::writebacks`]).
    pub fn note_private_writebacks(&mut self, (l1, l2): (u64, u64)) {
        self.writebacks.0 += l1;
        self.writebacks.1 += l2;
    }

    /// Dirty lines written back on eviction, per level `(l1, l2, l3)`.
    ///
    /// Write-back traffic is counted but not charged to the evicting
    /// access (the write buffer drains off the critical path).
    #[must_use]
    pub fn writebacks(&self) -> (u64, u64, u64) {
        self.writebacks
    }

    /// Installs a line into `core`'s caches without charging latency —
    /// used by the wake-prefetcher (§4) to warm a thread's working set.
    pub fn warm(&mut self, core: usize, addr: PAddr, part: PartitionId) {
        self.l3.fill(addr, part, false);
        self.l2[core].fill(addr, part, false);
        self.l1[core].fill(addr, part, false);
    }

    /// Installs a line in the shared L3 only — models DDIO-style DMA
    /// deposit by a device.
    pub fn warm_l3_only(&mut self, addr: PAddr) {
        self.l3.fill(addr, PartitionId::DEFAULT, true);
    }

    /// Declares a partition quota at the shared L3 (the level §4 pins).
    pub fn set_l3_partition(&mut self, part: PartitionId, fraction: f64) {
        self.l3.set_partition_target(part, fraction);
    }

    /// Invalidates a line everywhere — models a DMA write from a device
    /// that is not cache-coherent with a stale copy, or explicit flush.
    pub fn invalidate_line(&mut self, addr: PAddr) {
        for c in &mut self.l1 {
            c.invalidate(addr);
        }
        for c in &mut self.l2 {
            c.invalidate(addr);
        }
        self.l3.invalidate(addr);
    }

    /// Whether `core`'s L1 currently holds the line (for tests/prefetch).
    #[must_use]
    pub fn l1_contains(&self, core: usize, addr: PAddr) -> bool {
        self.l1[core].contains(addr)
    }

    /// Applies a superblock's L1 access stream (its fetches, merged with
    /// its data accesses in a memory block) against `core`'s L1 as one
    /// batch (see
    /// [`Cache::access_run_mixed`]): `false` — and no mutation — unless
    /// every line is L1-resident.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn l1_access_run_mixed(
        &mut self,
        core: usize,
        lines: &[(PAddr, u64, bool)],
        n: u64,
    ) -> bool {
        self.l1[core].access_run_mixed(lines, n)
    }

    /// Per-level (hits, misses) aggregated over cores: `(l1, l2, l3)`.
    #[must_use]
    pub fn level_stats(&self) -> ((u64, u64), (u64, u64), (u64, u64)) {
        let agg = |cs: &[Cache]| {
            cs.iter().fold((0, 0), |(h, m), c| {
                let (ch, cm) = c.hit_miss();
                (h + ch, m + cm)
            })
        };
        (agg(&self.l1), agg(&self.l2), self.l3.hit_miss())
    }

    /// L3 occupancy of a partition, in lines.
    #[must_use]
    pub fn l3_occupancy(&self, part: PartitionId) -> u64 {
        self.l3.occupancy(part)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h() -> Hierarchy {
        Hierarchy::new(2, HierarchyConfig::tiny())
    }

    #[test]
    fn core_view_rollback_restores_only_the_lent_core() {
        let mut m = h();
        for i in 0..8 {
            m.access(
                Cycles(0),
                0,
                PAddr(i * 64),
                AccessKind::Read,
                PartitionId::DEFAULT,
            );
            m.access(
                Cycles(0),
                1,
                PAddr(i * 64),
                AccessKind::Read,
                PartitionId::DEFAULT,
            );
        }
        let probe = |m: &Hierarchy| {
            (0..16)
                .map(|i| {
                    (
                        m.l1_contains(0, PAddr(i * 64)),
                        m.l1_contains(1, PAddr(i * 64)),
                    )
                })
                .collect::<Vec<_>>()
        };
        let (before, stats) = (probe(&m), m.level_stats());
        {
            let mut views = m.core_views(&[0, 1]);
            for v in &mut views {
                for i in 0..16 {
                    let _ = v.try_access(PAddr(i * 64), AccessKind::Write, PartitionId::DEFAULT);
                }
            }
        }
        m.rollback_core_view(0);
        m.rollback_core_view(1);
        assert_eq!((probe(&m), m.level_stats()), (before, stats));
        // A committed view keeps its effects.
        m.core_views(&[1])[0].try_access(PAddr(0), AccessKind::Write, PartitionId::DEFAULT);
        assert_ne!(m.level_stats(), stats);
    }

    #[test]
    fn cold_access_goes_to_dram() {
        let mut m = h();
        let r = m.access(
            Cycles(0),
            0,
            PAddr(0x1000),
            AccessKind::Read,
            PartitionId::DEFAULT,
        );
        assert_eq!(r.level, HitLevel::Dram);
        assert!(r.latency > Cycles(180));
    }

    #[test]
    fn second_access_hits_l1() {
        let mut m = h();
        let a = PAddr(0x1000);
        m.access(Cycles(0), 0, a, AccessKind::Read, PartitionId::DEFAULT);
        let r = m.access(Cycles(10), 0, a, AccessKind::Read, PartitionId::DEFAULT);
        assert_eq!(r.level, HitLevel::L1);
        assert_eq!(r.latency, Cycles(4));
    }

    #[test]
    fn other_core_hits_shared_l3() {
        let mut m = h();
        let a = PAddr(0x1000);
        m.access(Cycles(0), 0, a, AccessKind::Read, PartitionId::DEFAULT);
        let r = m.access(Cycles(10), 1, a, AccessKind::Read, PartitionId::DEFAULT);
        assert_eq!(r.level, HitLevel::L3);
        assert_eq!(r.latency, Cycles(42));
    }

    #[test]
    fn warm_makes_l1_hit() {
        let mut m = h();
        let a = PAddr(0x2000);
        m.warm(0, a, PartitionId::DEFAULT);
        let r = m.access(Cycles(0), 0, a, AccessKind::Read, PartitionId::DEFAULT);
        assert_eq!(r.level, HitLevel::L1);
    }

    #[test]
    fn invalidate_line_forces_refetch() {
        let mut m = h();
        let a = PAddr(0x3000);
        m.access(Cycles(0), 0, a, AccessKind::Read, PartitionId::DEFAULT);
        m.invalidate_line(a);
        let r = m.access(Cycles(10), 0, a, AccessKind::Read, PartitionId::DEFAULT);
        assert_eq!(r.level, HitLevel::Dram);
    }

    #[test]
    fn level_stats_accumulate() {
        let mut m = h();
        let a = PAddr(0x4000);
        m.access(Cycles(0), 0, a, AccessKind::Read, PartitionId::DEFAULT);
        m.access(Cycles(1), 0, a, AccessKind::Read, PartitionId::DEFAULT);
        let ((l1h, l1m), _, (l3h, l3m)) = m.level_stats();
        assert_eq!((l1h, l1m), (1, 1));
        assert_eq!((l3h, l3m), (0, 1));
    }

    #[test]
    fn l3_partition_survives_thrash_from_other_core() {
        let mut m = Hierarchy::new(1, HierarchyConfig::tiny());
        let pinned_part = PartitionId(3);
        m.set_l3_partition(pinned_part, 0.2);
        let pinned = PAddr(0);
        m.access(Cycles(0), 0, pinned, AccessKind::Read, pinned_part);
        // Thrash far more lines than the L3 holds.
        for i in 1..2000u64 {
            m.access(
                Cycles(i),
                0,
                PAddr(i * 64),
                AccessKind::Read,
                PartitionId::DEFAULT,
            );
        }
        // Pinned line must still be on-chip: next access must not be DRAM.
        let r = m.access(Cycles(9999), 0, pinned, AccessKind::Read, pinned_part);
        assert!(r.level < HitLevel::Dram, "pinned line went off-chip");
    }
}

#[cfg(test)]
mod writeback_tests {
    use super::*;

    #[test]
    fn dirty_evictions_are_counted() {
        let mut m = Hierarchy::new(1, HierarchyConfig::tiny());
        // Dirty many lines mapping beyond L1 capacity (1 KiB = 16 lines).
        for i in 0..64u64 {
            m.access(
                Cycles(i),
                0,
                PAddr(i * 64),
                AccessKind::Write,
                PartitionId::DEFAULT,
            );
        }
        let (l1_wb, _, _) = m.writebacks();
        assert!(l1_wb > 0, "dirty L1 evictions must be counted");
    }

    #[test]
    fn clean_traffic_produces_no_writebacks() {
        let mut m = Hierarchy::new(1, HierarchyConfig::tiny());
        for i in 0..64u64 {
            m.access(
                Cycles(i),
                0,
                PAddr(i * 64),
                AccessKind::Read,
                PartitionId::DEFAULT,
            );
        }
        assert_eq!(m.writebacks(), (0, 0, 0));
    }
}
