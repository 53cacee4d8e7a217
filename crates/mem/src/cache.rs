//! Set-associative data caches and miss-status holding registers (MSHRs).
//!
//! Table I's data caches: a 32 KiB, 16-way L1 per CU and a shared 4 MiB,
//! 16-way L2, both with 64 B blocks. The cache here is a *state* model:
//! it answers hit/miss and tracks contents; the simulator composes latencies
//! and drives fills on miss completion.
//!
//! Simplifications (documented in DESIGN.md §7): caches are non-blocking
//! with MSHR merging; stores are treated like loads (write-allocate,
//! no write-back traffic). The paper's bottleneck is address translation,
//! not write bandwidth.
//!
//! The MSHR file is a free-listed slab of waiter buffers found through an
//! open-addressed line index (the workspace's one `u64` map, [`U64Map`],
//! also behind the DRAM controller's row chains): a register probes two to
//! three slots on average in the medium-scale runs, where the linear scan
//! it replaced compared 45–83 outstanding lines (see [`Mshr::peak`] for
//! sizing), and a retired entry keeps its waiter buffer in its slab slot
//! for the next miss (DESIGN.md §10).

use ptw_types::addr::{LineAddr, LINE_SHIFT, LINE_SIZE};
use ptw_types::map::U64Map;
use ptw_types::stats::HitRate;

use crate::assoc::{AssocArray, Replacement, SetIndex, MAX_WAYS};

/// Geometry of one cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
}

impl CacheConfig {
    /// Table I GPU L1 data cache: 32 KiB, 16-way, 64 B blocks.
    pub fn paper_l1() -> Self {
        CacheConfig {
            size_bytes: 32 * 1024,
            ways: 16,
        }
    }

    /// Table I GPU L2 data cache: 4 MiB, 16-way, 64 B blocks.
    pub fn paper_l2() -> Self {
        CacheConfig {
            size_bytes: 4 * 1024 * 1024,
            ways: 16,
        }
    }

    /// Validates the geometry: a positive number of whole sets of 64 B
    /// lines, and 1–64 ways (the tag array's per-set bitmask width).
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        let lines = self.size_bytes / LINE_SIZE;
        if self.ways == 0 || self.ways > MAX_WAYS || lines == 0 || !lines.is_multiple_of(self.ways)
        {
            return Err(format!(
                "cache of {} bytes does not divide into 1..=64 ways ({}) of 64B lines",
                self.size_bytes, self.ways
            ));
        }
        Ok(())
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry fails [`validate`](Self::validate).
    pub fn sets(&self) -> usize {
        if let Err(e) = self.validate() {
            panic!("{e}");
        }
        self.size_bytes / LINE_SIZE / self.ways
    }
}

/// A set-associative, LRU, physically-tagged cache over 64 B lines.
///
/// ```
/// use ptw_mem::cache::{Cache, CacheConfig};
/// use ptw_types::addr::LineAddr;
///
/// let mut c = Cache::new(CacheConfig { size_bytes: 4096, ways: 2 });
/// let line = LineAddr::new(0x1000);
/// assert!(!c.access(line));     // cold miss
/// c.fill(line);
/// assert!(c.access(line));      // hit
/// ```
#[derive(Debug)]
pub struct Cache {
    cfg: CacheConfig,
    set_ix: SetIndex,
    array: AssocArray<()>,
    stats: HitRate,
}

impl Cache {
    /// Creates an empty cache.
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        Cache {
            cfg,
            set_ix: SetIndex::new(sets),
            array: AssocArray::new(sets, cfg.ways, Replacement::Lru),
            stats: HitRate::new(),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    #[inline]
    fn set_of(&self, line: LineAddr) -> usize {
        self.set_ix.of(line.raw() >> LINE_SHIFT)
    }

    /// Performs a demand access: returns `true` on hit (recency updated),
    /// `false` on miss. Misses do **not** allocate; call
    /// [`fill`](Self::fill) when the refill arrives.
    pub fn access(&mut self, line: LineAddr) -> bool {
        let set = self.set_of(line);
        if self.array.lookup(set, line.raw()).is_some() {
            self.stats.hit();
            true
        } else {
            self.stats.miss();
            false
        }
    }

    /// Checks residency without updating recency or statistics.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.array.probe(self.set_of(line), line.raw()).is_some()
    }

    /// Installs `line`, returning the evicted line if the set was full.
    pub fn fill(&mut self, line: LineAddr) -> Option<LineAddr> {
        let set = self.set_of(line);
        self.array
            .fill(set, line.raw(), ())
            .map(|(raw, ())| LineAddr::new(raw))
    }

    /// Removes `line` if present.
    pub fn invalidate(&mut self, line: LineAddr) {
        let set = self.set_of(line);
        self.array.invalidate(set, line.raw());
    }

    /// Hit/miss statistics.
    pub fn stats(&self) -> &HitRate {
        &self.stats
    }

    /// Number of resident lines.
    pub fn resident_lines(&self) -> usize {
        self.array.len()
    }
}

/// Outcome of registering a miss in an [`Mshr`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MshrOutcome {
    /// First miss on this line: the caller must start a refill.
    Allocated,
    /// A refill for this line is already outstanding; the waiter was merged.
    Merged,
}

/// Miss-status holding registers: coalesces concurrent misses to the same
/// line and holds per-line waiter lists until the refill returns.
///
/// Generic over the waiter token `W` so the data path and the translation
/// path can store whatever bookkeeping they need.
///
/// Each outstanding line owns one slot of a slab of waiter buffers, found
/// through a line-keyed index. Completed slots go on a free list with
/// their (emptied) buffers, making [`register`](Self::register) and
/// [`complete_into`](Self::complete_into) O(1) and allocation-free at
/// steady state.
#[derive(Debug)]
pub struct Mshr<W> {
    /// Waiter buffers, one per slot; a free slot holds an empty buffer
    /// kept for reuse.
    slots: Vec<Vec<W>>,
    /// Free slot indices.
    free: Vec<u32>,
    /// Outstanding line address → slot.
    index: U64Map<u32>,
    peak: usize,
}

impl<W> Default for Mshr<W> {
    fn default() -> Self {
        Mshr {
            slots: Vec::new(),
            free: Vec::new(),
            index: U64Map::with_capacity(32),
            peak: 0,
        }
    }
}

impl<W> Mshr<W> {
    /// Creates an empty MSHR file.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `waiter` for the refill of `line`.
    pub fn register(&mut self, line: LineAddr, waiter: W) -> MshrOutcome {
        let key = line.raw();
        if let Some(i) = self.index.get(key) {
            self.slots[i as usize].push(waiter);
            return MshrOutcome::Merged;
        }
        let i = self.free.pop().unwrap_or_else(|| {
            self.slots.push(Vec::new());
            (self.slots.len() - 1) as u32
        });
        self.slots[i as usize].push(waiter);
        self.index.insert(key, i);
        self.peak = self.peak.max(self.index.len());
        MshrOutcome::Allocated
    }

    /// Completes the refill of `line`, appending all merged waiters to
    /// `out` (nothing if no miss was registered). The slot keeps its
    /// buffer for future misses, so the steady-state path never allocates.
    pub fn complete_into(&mut self, line: LineAddr, out: &mut Vec<W>) {
        if let Some(i) = self.index.remove(line.raw()) {
            out.append(&mut self.slots[i as usize]);
            self.free.push(i);
        }
    }

    /// Completes the refill of `line`, returning all merged waiters
    /// (empty if no miss was registered). Prefer
    /// [`complete_into`](Self::complete_into) on hot paths — this variant
    /// gives up the slot's buffer to the caller.
    pub fn complete(&mut self, line: LineAddr) -> Vec<W> {
        match self.index.remove(line.raw()) {
            Some(i) => {
                self.free.push(i);
                std::mem::take(&mut self.slots[i as usize])
            }
            None => Vec::new(),
        }
    }

    /// Whether a refill for `line` is outstanding.
    pub fn pending(&self, line: LineAddr) -> bool {
        self.index.get(line.raw()).is_some()
    }

    /// Number of outstanding lines.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no refills are outstanding.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// High-water mark of outstanding lines (for sizing diagnostics).
    pub fn peak(&self) -> usize {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometries() {
        assert_eq!(CacheConfig::paper_l1().sets(), 32);
        assert_eq!(CacheConfig::paper_l2().sets(), 4096);
    }

    #[test]
    #[should_panic]
    fn indivisible_geometry_panics() {
        let _ = CacheConfig {
            size_bytes: 100,
            ways: 3,
        }
        .sets();
    }

    #[test]
    fn miss_fill_hit_cycle() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 4096,
            ways: 2,
        });
        let l = LineAddr::new(0x40);
        assert!(!c.access(l));
        assert!(c.fill(l).is_none());
        assert!(c.access(l));
        assert_eq!(c.stats().hits(), 1);
        assert_eq!(c.stats().misses(), 1);
    }

    #[test]
    fn eviction_on_conflict() {
        // 2 sets × 2 ways; lines 0, 2*64, 4*64 all map to set 0.
        let mut c = Cache::new(CacheConfig {
            size_bytes: 256,
            ways: 2,
        });
        let l0 = LineAddr::new(0);
        let l2 = LineAddr::new(128);
        let l4 = LineAddr::new(256);
        c.fill(l0);
        c.fill(l2);
        c.access(l0); // l2 becomes LRU
        let evicted = c.fill(l4);
        assert_eq!(evicted, Some(l2));
        assert!(c.contains(l0));
        assert!(!c.contains(l2));
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 256,
            ways: 2,
        });
        let l = LineAddr::new(64);
        c.fill(l);
        c.invalidate(l);
        assert!(!c.contains(l));
    }

    #[test]
    fn mshr_merges_concurrent_misses() {
        let mut m: Mshr<u32> = Mshr::new();
        let l = LineAddr::new(0x80);
        assert_eq!(m.register(l, 1), MshrOutcome::Allocated);
        assert_eq!(m.register(l, 2), MshrOutcome::Merged);
        assert!(m.pending(l));
        assert_eq!(m.len(), 1);
        let waiters = m.complete(l);
        assert_eq!(waiters, vec![1, 2]);
        assert!(m.is_empty());
    }

    #[test]
    fn mshr_distinct_lines_are_independent() {
        let mut m: Mshr<&str> = Mshr::new();
        m.register(LineAddr::new(0), "a");
        m.register(LineAddr::new(64), "b");
        assert_eq!(m.len(), 2);
        assert_eq!(m.peak(), 2);
        assert_eq!(m.complete(LineAddr::new(0)), vec!["a"]);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn mshr_complete_unknown_line_is_empty() {
        let mut m: Mshr<u8> = Mshr::new();
        assert!(m.complete(LineAddr::new(0)).is_empty());
    }

    #[test]
    fn mshr_complete_into_recycles_buffers() {
        let mut m: Mshr<u32> = Mshr::new();
        let mut out = Vec::new();
        for round in 0..4u32 {
            let l = LineAddr::new(u64::from(round) * 64);
            m.register(l, round * 10);
            m.register(l, round * 10 + 1);
            out.clear();
            m.complete_into(l, &mut out);
            assert_eq!(out, vec![round * 10, round * 10 + 1]);
            assert!(m.is_empty());
        }
        // Unknown line leaves `out` untouched.
        out.clear();
        m.complete_into(LineAddr::new(0x1_0000), &mut out);
        assert!(out.is_empty());
    }

    /// The line-indexed MSHR must match a linearly scanned reference (the
    /// pre-index implementation) under seeded register/complete churn that
    /// ramps past 300 outstanding lines and back: every outcome, every
    /// waiter list in order, `len`, `peak` and `pending` agree.
    #[test]
    fn mshr_matches_scan_reference_under_churn() {
        /// `(line, waiters)` in a `Vec`, found by linear scan.
        #[derive(Default)]
        struct ScanMshr {
            entries: Vec<(u64, Vec<u32>)>,
            peak: usize,
        }
        impl ScanMshr {
            fn register(&mut self, line: u64, w: u32) -> MshrOutcome {
                if let Some(e) = self.entries.iter_mut().find(|e| e.0 == line) {
                    e.1.push(w);
                    return MshrOutcome::Merged;
                }
                self.entries.push((line, vec![w]));
                self.peak = self.peak.max(self.entries.len());
                MshrOutcome::Allocated
            }
            fn complete(&mut self, line: u64) -> Vec<u32> {
                match self.entries.iter().position(|e| e.0 == line) {
                    Some(i) => self.entries.swap_remove(i).1,
                    None => Vec::new(),
                }
            }
        }

        let mut m: Mshr<u32> = Mshr::new();
        let mut r = ScanMshr::default();
        let mut rng = ptw_types::rng::SplitMix64::new(0x3508);
        let mut out = Vec::new();
        let mut merges = 0;
        for op in 0..40_000u32 {
            // Ramp the occupancy target up to 320 lines and back down.
            let target = if op < 20_000 {
                op / 60
            } else {
                (40_000 - op) / 60
            };
            let line = LineAddr::new(rng.next_below(640) * 64);
            let register = (m.len() as u32) < target || rng.next_below(4) == 0;
            if register {
                let got = m.register(line, op);
                assert_eq!(got, r.register(line.raw(), op), "op {op}");
                merges += usize::from(got == MshrOutcome::Merged);
            } else {
                // Mostly retire a live line; sometimes an unknown one.
                let victim = match r
                    .entries
                    .get(rng.next_below(r.entries.len() as u64 + 1) as usize)
                {
                    Some(&(l, _)) => LineAddr::new(l),
                    None => line,
                };
                let want = r.complete(victim.raw());
                if op % 2 == 0 {
                    out.clear();
                    m.complete_into(victim, &mut out);
                    assert_eq!(out, want, "op {op}");
                } else {
                    assert_eq!(m.complete(victim), want, "op {op}");
                }
            }
            assert_eq!(m.len(), r.entries.len(), "op {op}");
            assert_eq!(m.peak(), r.peak, "op {op}");
            let probe = LineAddr::new(rng.next_below(640) * 64);
            assert_eq!(
                m.pending(probe),
                r.entries.iter().any(|e| e.0 == probe.raw()),
                "op {op}"
            );
        }
        assert!(r.peak >= 300, "churn peaked at only {} lines", r.peak);
        assert!(
            merges > 1_000,
            "too few merges ({merges}) to test waiter order"
        );
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let cfg = CacheConfig {
            size_bytes: 4096,
            ways: 2,
        }; // 64 lines
        let mut c = Cache::new(cfg);
        // Stream 128 distinct lines twice: second pass still misses (LRU
        // streaming pattern evicts everything before reuse).
        for pass in 0..2 {
            for i in 0..128u64 {
                let hit = c.access(LineAddr::new(i * 64));
                if !hit {
                    c.fill(LineAddr::new(i * 64));
                }
                if pass == 0 {
                    assert!(!hit);
                }
            }
        }
        assert_eq!(c.stats().hits(), 0);
    }
}
