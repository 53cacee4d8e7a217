//! A generic set-associative array with pluggable replacement.
//!
//! Data caches, TLBs and page walk caches in this workspace are all
//! set-associative lookup structures; [`AssocArray`] factors out the common
//! machinery: tagged ways, recency tracking, victim selection, and optional
//! *pinning* of entries that must not be victimized (used by the paper's
//! page-walk-cache counter scheme, Section IV "Design Subtleties").
//!
//! Two replacement policies are provided:
//!
//! * [`Replacement::Lru`] — true least-recently-used via access stamps;
//! * [`Replacement::TreePlru`] — the classic binary-tree pseudo-LRU used by
//!   real hardware (requires a power-of-two way count).
//!
//! Pinned-aware victim selection follows the paper: prefer an unpinned
//! victim; if *every* valid way is pinned, fall back to the policy's normal
//! victim.
//!
//! # Storage layout
//!
//! Every lookup in the simulator funnels through this type, so the layout
//! is optimized for the probe path (DESIGN.md §10, §14):
//!
//! * each set owns one contiguous, 64-byte-aligned **packed line**: word 0
//!   is the valid bitmask, word 1 the tree-PLRU direction bits, then the
//!   way fingerprints (eight 8-bit fingerprints per word), then the tags
//!   (one `u64` word per way), followed — only under [`Replacement::Lru`]
//!   — by the per-way access stamps. A probe loads the mask, the
//!   replacement state, the fingerprints and the first tags with a single
//!   cache line instead of touching separate arrays;
//! * validity is one `u64` bitmask per set (way counts are capped at 64;
//!   the largest real geometry is 32), so scans visit only live ways and
//!   "first free way" is a single `trailing_zeros`;
//! * a lookup **filters before it compares**: one SWAR zero-byte test on
//!   `fp_word ^ broadcast(fp(key))` flags the ways of eight whose
//!   fingerprint equals the key's, masked by the valid bits, and only
//!   those candidates' full tags are compared. A miss in a full 32-way
//!   set tests four fingerprint words and, on average, an eighth of one
//!   tag instead of 32 tags;
//! * values stay in a parallel dense array — they are only read on a hit,
//!   so keeping them out of the packed line keeps the probe dense.
//!
//! Tags are `u64` (every TLB, page-walk-cache level and data cache keys
//! an address-derived `u64`). Tag and fingerprint words are plain
//! integers, so reading an invalid way's stale word is harmless; the
//! valid bitmask decides which ways count. Values live in `MaybeUninit`
//! storage and are only read for ways whose valid bit is set.

use core::fmt;
use core::mem::MaybeUninit;

use ptw_types::work::{self, Work};

/// Largest way count an [`AssocArray`] supports: validity is one `u64`
/// bitmask per set.
pub const MAX_WAYS: usize = 64;

/// Replacement policy for an [`AssocArray`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Replacement {
    /// True LRU (monotonic access stamps).
    #[default]
    Lru,
    /// Binary-tree pseudo-LRU. The way count must be a power of two.
    TreePlru,
    /// Pseudo-random victim selection (deterministic, seeded) — common in
    /// real TLBs, and crucially free of LRU's 0%-hit pathology under
    /// cyclic working sets slightly larger than the array.
    Random,
}

/// Precomputed key→set mapping: a single mask for power-of-two set counts
/// (every real geometry in this workspace), falling back to modulo so
/// arbitrary sweep geometries still work.
#[derive(Clone, Copy, Debug)]
pub struct SetIndex {
    sets: u64,
    mask: u64,
    pow2: bool,
}

impl SetIndex {
    /// Builds the mapping for `sets` sets.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is zero.
    pub fn new(sets: usize) -> Self {
        assert!(sets > 0, "set count must be positive");
        SetIndex {
            sets: sets as u64,
            mask: sets as u64 - 1,
            pow2: sets.is_power_of_two(),
        }
    }

    /// Maps a raw key (address bits) to its set.
    #[inline]
    pub fn of(&self, raw: u64) -> usize {
        if self.pow2 {
            (raw & self.mask) as usize
        } else {
            (raw % self.sets) as usize
        }
    }
}

/// Iterates the set bit positions of a word, ascending.
struct BitIter(u64);

impl Iterator for BitIter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let w = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(w)
    }
}

/// A set-associative array mapping `u64` keys to values.
///
/// The caller computes the set index (typically from address bits); the
/// array manages tags, recency and eviction within each set.
///
/// ```
/// use ptw_mem::assoc::{AssocArray, Replacement};
/// let mut a: AssocArray<&str> = AssocArray::new(2, 2, Replacement::Lru);
/// assert!(a.fill(0, 10, "x").is_none());
/// assert!(a.fill(0, 20, "y").is_none());
/// assert_eq!(a.lookup(0, 10), Some(&"x"));        // 10 is now MRU
/// let evicted = a.fill(0, 30, "z");               // evicts LRU (20)
/// assert_eq!(evicted, Some((20, "y")));
/// ```
pub struct AssocArray<V> {
    sets: usize,
    ways: usize,
    /// Packed per-set lines, [`stride`](Self::stride) blocks per set.
    /// Word layout within a set: `[valid mask][plru bits][fingerprints ×
    /// ceil(ways / 8)][tags × ways]` followed, under [`Replacement::Lru`]
    /// only, by `[stamps × ways]`. Way `w`'s fingerprint is byte `w % 8`
    /// of fingerprint word `w / 8`; fingerprint and tag of way `w` mean
    /// something iff bit `w` of the valid word is set.
    lines: Box<[LineBlock]>,
    /// [`LineBlock`]s per set.
    stride: usize,
    /// Values, `ways` per set; slot `set * ways + way` is initialized iff
    /// bit `way` of the set's valid word is set. Kept out of the packed
    /// line: values are only read on a hit, after the tag scan resolves.
    values: Box<[MaybeUninit<V>]>,
    /// Live-entry count (so `len` is O(1)).
    live: usize,
    policy: Replacement,
    tick: u64,
    rng: ptw_types::rng::SplitMix64,
}

/// One 64-byte-aligned, 64-byte chunk of the packed per-set region; a
/// set's line is `stride` consecutive blocks, so every set starts on a
/// host cache-line boundary.
#[repr(C, align(64))]
#[derive(Clone, Copy)]
struct LineBlock([u64; 8]);

// The whole point of the packed layout: one block IS one host cache line.
const _: () = assert!(core::mem::size_of::<LineBlock>() == 64);
const _: () = assert!(core::mem::align_of::<LineBlock>() == 64);

/// Word offsets inside a packed set line; the tags follow the
/// [`fp_words`] fingerprint words.
const VALID_WORD: usize = 0;
const META_WORD: usize = 1;
const FP_WORD: usize = 2;

/// Fingerprint words of a `ways`-way set: eight 8-bit fingerprints each.
/// Derived from `ways` on every access rather than stored, so the struct
/// of every TLB, PWC level and cache stays the same size.
#[inline]
const fn fp_words(ways: usize) -> usize {
    ways.div_ceil(8)
}

/// `0x01` in every byte: `b * ONES` broadcasts byte `b` to all eight.
const ONES: u64 = 0x0101_0101_0101_0101;
/// `0x7f` in every byte.
const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;

/// The 8-bit fingerprint of `key`: the top byte of the key times an odd
/// constant (the multiply of `U64Map`'s multiply-xor hash), so every key
/// bit — set-index bits included — can reach it.
#[inline]
const fn fingerprint(key: u64) -> u64 {
    key.wrapping_mul(0xf135_7aea_2e62_a9c5) >> 56
}

/// The zero bytes of `x` as an 8-bit mask, bit `b` for byte `b`.
///
/// The per-byte test is exact (no borrow crosses a byte): the high bit of
/// a byte of `!((x & LOW7) + LOW7 | x | LOW7)` is set iff the byte is
/// zero. The multiply then gathers the eight high bits into the top byte
/// (each partial product lands on its own bit, so nothing carries).
#[inline]
const fn zero_bytes(x: u64) -> u64 {
    let high = !(((x & LOW7) + LOW7) | x | LOW7);
    ((high >> 7).wrapping_mul(0x0102_0408_1020_4080)) >> 56
}

impl<V: Copy> AssocArray<V> {
    /// Creates an empty array of `sets` sets with `ways` ways each.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero, if `ways` exceeds 64, or if
    /// `TreePlru` is requested with a non-power-of-two way count.
    pub fn new(sets: usize, ways: usize, policy: Replacement) -> Self {
        Self::with_seed(sets, ways, policy, 0x5eed_ba5e)
    }

    /// Like [`new`](Self::new), but seeding the deterministic PRNG behind
    /// [`Replacement::Random`] explicitly.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero, if `ways` exceeds 64, or if
    /// `TreePlru` is requested with a non-power-of-two way count.
    pub fn with_seed(sets: usize, ways: usize, policy: Replacement, seed: u64) -> Self {
        assert!(
            sets > 0 && ways > 0,
            "AssocArray dimensions must be positive"
        );
        assert!(
            ways <= MAX_WAYS,
            "AssocArray supports at most 64 ways (per-set valid bitmask)"
        );
        if policy == Replacement::TreePlru {
            assert!(
                ways.is_power_of_two(),
                "TreePlru requires power-of-two ways"
            );
        }
        let slots = sets * ways;
        let stamps = if policy == Replacement::Lru { ways } else { 0 };
        let stride = (FP_WORD + fp_words(ways) + ways + stamps).div_ceil(8);
        AssocArray {
            sets,
            ways,
            lines: vec![LineBlock([0; 8]); sets * stride].into_boxed_slice(),
            stride,
            values: vec![MaybeUninit::uninit(); slots].into_boxed_slice(),
            live: 0,
            policy,
            tick: 0,
            rng: ptw_types::rng::SplitMix64::new(seed),
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Number of ways per set.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Total capacity in entries.
    pub fn capacity(&self) -> usize {
        self.sets * self.ways
    }

    /// Number of currently valid entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the array holds no valid entries.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of valid entries in `set`.
    pub fn set_len(&self, set: usize) -> usize {
        self.valid(set).count_ones() as usize
    }

    #[inline]
    fn slot(&self, set: usize, way: usize) -> usize {
        debug_assert!(set < self.sets && way < self.ways);
        set * self.ways + way
    }

    /// All-ways-valid mask for one set.
    #[inline]
    fn full_mask(&self) -> u64 {
        u64::MAX >> (64 - self.ways)
    }

    /// Word offset of way 0's tag inside a packed line.
    #[inline]
    fn tags_word(&self) -> usize {
        FP_WORD + fp_words(self.ways)
    }

    /// First word of `set`'s packed line. The slice index bounds-checks
    /// `set` (the remaining `stride - 1` blocks are in bounds by
    /// construction), so the returned pointer covers the whole line.
    #[inline]
    fn words(&self, set: usize) -> *const u64 {
        let block: *const LineBlock = &self.lines[set * self.stride];
        block as *const u64
    }

    #[inline]
    fn words_mut(&mut self, set: usize) -> *mut u64 {
        let block: *mut LineBlock = &mut self.lines[set * self.stride];
        block as *mut u64
    }

    #[inline]
    fn valid(&self, set: usize) -> u64 {
        // SAFETY: `words` bounds-checks `set`; word 0 is the valid mask.
        unsafe { *self.words(set).add(VALID_WORD) }
    }

    #[inline]
    fn set_valid(&mut self, set: usize, mask: u64) {
        // SAFETY: as in `valid`.
        unsafe { *self.words_mut(set).add(VALID_WORD) = mask }
    }

    #[inline]
    fn meta(&self, set: usize) -> u64 {
        // SAFETY: `words` bounds-checks `set`; word 1 is the PLRU word.
        unsafe { *self.words(set).add(META_WORD) }
    }

    #[inline]
    fn set_meta(&mut self, set: usize, bits: u64) {
        // SAFETY: as in `meta`.
        unsafe { *self.words_mut(set).add(META_WORD) = bits }
    }

    /// Borrows way `way`'s tag word in place; it holds the way's key while
    /// bit `way` of the set's valid word is set.
    #[inline]
    fn tag(&self, set: usize, way: usize) -> &u64 {
        debug_assert!(way < self.ways);
        // SAFETY: `words` bounds-checks `set` and the tag run lies inside
        // the set's `stride` blocks.
        unsafe { &*self.words(set).add(self.tags_word() + way) }
    }

    /// Stores `key` as way `way`'s tag and its fingerprint as byte
    /// `way % 8` of fingerprint word `way / 8`. The byte is placed with
    /// shifts and masks on the whole word, so the layout does not depend
    /// on the host's byte order.
    #[inline]
    fn set_tag(&mut self, set: usize, way: usize, key: u64) {
        debug_assert!(way < self.ways);
        let tags = self.tags_word();
        let shift = 8 * (way % 8);
        // SAFETY: the fingerprint and tag words are inside the set's line.
        unsafe {
            let words = self.words_mut(set);
            let fp = words.add(FP_WORD + way / 8);
            *fp = (*fp & !(0xff << shift)) | fingerprint(key) << shift;
            *words.add(tags + way) = key;
        }
    }

    /// LRU access stamp of `way`; stamp words exist only under
    /// [`Replacement::Lru`] and are zero until first touched.
    #[inline]
    fn stamp(&self, set: usize, way: usize) -> u64 {
        debug_assert!(self.policy == Replacement::Lru && way < self.ways);
        // SAFETY: under Lru the stride includes the stamp run.
        unsafe { *self.words(set).add(self.tags_word() + self.ways + way) }
    }

    #[inline]
    fn set_stamp(&mut self, set: usize, way: usize, stamp: u64) {
        debug_assert!(self.policy == Replacement::Lru && way < self.ways);
        let at = self.tags_word() + self.ways + way;
        // SAFETY: as in `stamp`.
        unsafe { *self.words_mut(set).add(at) = stamp }
    }

    /// The valid way of `set` holding `key`.
    ///
    /// The fingerprint words up to the one holding the highest valid way
    /// are tested, each counting as one [`Work::AssocFpWords`]; then the
    /// valid ways whose fingerprint matches are compared in index order,
    /// each compared tag counting as one [`Work::AssocTags`]. Keys are
    /// unique within a set, so the first exact match is the only one.
    #[inline]
    fn find_way(&self, set: usize, key: u64) -> Option<usize> {
        let words = self.words(set);
        let tags = self.tags_word();
        let probe = fingerprint(key) * ONES;
        // SAFETY: `words` bounds-checks `set`; the valid mask only has bits
        // below `ways`, so every fingerprint word and tag word read here
        // lies inside the set's line.
        unsafe {
            let valid = *words.add(VALID_WORD);
            let tested = (64 - valid.leading_zeros() as usize).div_ceil(8);
            let mut candidates = 0;
            for i in 0..tested {
                candidates |= zero_bytes(*words.add(FP_WORD + i) ^ probe) << (8 * i);
            }
            candidates &= valid;
            work::add(Work::AssocFpWords, tested as u64);
            let mut compared = 0;
            let mut found = None;
            while candidates != 0 {
                let w = candidates.trailing_zeros() as usize;
                compared += 1;
                if *words.add(tags + w) == key {
                    found = Some(w);
                    break;
                }
                candidates &= candidates - 1;
            }
            work::add(Work::AssocTags, compared);
            found
        }
    }

    fn touch(&mut self, set: usize, way: usize) {
        self.tick += 1;
        match self.policy {
            Replacement::Lru => {
                let tick = self.tick;
                self.set_stamp(set, way, tick);
            }
            Replacement::TreePlru => self.plru_touch(set, way),
            Replacement::Random => {}
        }
    }

    /// Flip the tree bits on the root-to-leaf path so they point *away*
    /// from `way`.
    fn plru_touch(&mut self, set: usize, way: usize) {
        let mut node = 0usize; // root at index 0, children 2i+1 / 2i+2
        let levels = self.ways.trailing_zeros();
        let mut bits = self.meta(set);
        for level in (0..levels).rev() {
            let bit = (way >> level) & 1;
            // Point away from the accessed half: store the opposite bit.
            if bit == 0 {
                bits |= 1 << node;
            } else {
                bits &= !(1 << node);
            }
            node = 2 * node + 1 + bit;
        }
        self.set_meta(set, bits);
    }

    /// Follow the tree bits to the pseudo-LRU victim way.
    fn plru_victim(&self, set: usize) -> usize {
        let mut node = 0usize;
        let mut way = 0usize;
        let levels = self.ways.trailing_zeros();
        let bits = self.meta(set);
        for _ in 0..levels {
            let bit = ((bits >> node) & 1) as usize;
            way = (way << 1) | bit;
            node = 2 * node + 1 + bit;
        }
        way
    }

    /// Looks up `key` in `set`, updating recency on a hit.
    // The `#[inline]` on this and the three wrappers below keeps them
    // inlined into the TLB and PWC call sites; without it `probe` is
    // compiled out of line around the larger `find_way`.
    #[inline]
    pub fn lookup(&mut self, set: usize, key: u64) -> Option<&V> {
        let way = self.find_way(set, key)?;
        self.touch(set, way);
        let slot = self.slot(set, way);
        // SAFETY: `find_way` only returns ways marked valid.
        Some(unsafe { self.values[slot].assume_init_ref() })
    }

    /// Looks up `key` in `set` with mutable access, updating recency.
    #[inline]
    pub fn lookup_mut(&mut self, set: usize, key: u64) -> Option<&mut V> {
        let way = self.find_way(set, key)?;
        self.touch(set, way);
        let slot = self.slot(set, way);
        // SAFETY: `find_way` only returns ways marked valid.
        Some(unsafe { self.values[slot].assume_init_mut() })
    }

    /// Checks for `key` *without* updating recency (a probe, not an access).
    #[inline]
    pub fn probe(&self, set: usize, key: u64) -> Option<&V> {
        let way = self.find_way(set, key)?;
        // SAFETY: `find_way` only returns ways marked valid.
        Some(unsafe { self.values[self.slot(set, way)].assume_init_ref() })
    }

    /// Probes without recency update, returning mutable access.
    #[inline]
    pub fn probe_mut(&mut self, set: usize, key: u64) -> Option<&mut V> {
        let way = self.find_way(set, key)?;
        let slot = self.slot(set, way);
        // SAFETY: `find_way` only returns ways marked valid.
        Some(unsafe { self.values[slot].assume_init_mut() })
    }

    /// Inserts `key → value` into `set`, evicting if necessary.
    ///
    /// If `key` is already present its value is replaced (and recency
    /// updated) and `None` is returned. Otherwise the victim chosen by the
    /// replacement policy is returned as `Some((key, value))` if a valid
    /// entry had to be evicted.
    pub fn fill(&mut self, set: usize, key: u64, value: V) -> Option<(u64, V)> {
        self.fill_pinned(set, key, value, |_, _| false)
    }

    /// Like [`fill`](Self::fill), but entries for which `pinned` returns
    /// `true` are not victimized unless every valid way in the set is
    /// pinned (the paper's PWC-counter replacement rule).
    pub fn fill_pinned(
        &mut self,
        set: usize,
        key: u64,
        value: V,
        pinned: impl Fn(&u64, &V) -> bool,
    ) -> Option<(u64, V)> {
        if let Some(way) = self.find_way(set, key) {
            let slot = self.slot(set, way);
            self.values[slot].write(value);
            self.touch(set, way);
            return None;
        }
        // Prefer an invalid way (lowest index, as the Option scan did).
        let free = !self.valid(set) & self.full_mask();
        if free != 0 {
            let way = free.trailing_zeros() as usize;
            let slot = self.slot(set, way);
            self.set_tag(set, way, key);
            self.values[slot].write(value);
            let mask = self.valid(set) | (1 << way);
            self.set_valid(set, mask);
            self.live += 1;
            self.touch(set, way);
            return None;
        }
        let way = self.victim_way(set, &pinned);
        let slot = self.slot(set, way);
        // SAFETY: the set is full (no free way above), so the victim slot
        // is initialized.
        let old = (*self.tag(set, way), unsafe {
            self.values[slot].assume_init_read()
        });
        self.set_tag(set, way, key);
        self.values[slot].write(value);
        self.touch(set, way);
        Some(old)
    }

    /// The way the policy would evict next (pinning-aware); only called on
    /// a full set.
    fn victim_way(&mut self, set: usize, pinned: &impl Fn(&u64, &V) -> bool) -> usize {
        debug_assert_eq!(self.valid(set), self.full_mask(), "victim of non-full set");
        // The PRNG draw happens unconditionally under Random — before any
        // pinned check — to keep the stream identical to the original
        // implementation.
        let random_start = if self.policy == Replacement::Random {
            self.rng.index(self.ways)
        } else {
            0
        };
        let base = set * self.ways;
        let is_pinned = |w: usize| {
            // SAFETY: the set is full, so every way is initialized.
            pinned(self.tag(set, w), unsafe {
                self.values[base + w].assume_init_ref()
            })
        };
        match self.policy {
            Replacement::Lru => {
                // First-minimum scan: stamps are unique among valid ways,
                // and ties (impossible here) would break toward the lowest
                // way index, exactly like the old `min_by_key`.
                let mut best: Option<(u64, usize)> = None;
                for w in 0..self.ways {
                    if is_pinned(w) {
                        continue;
                    }
                    let s = self.stamp(set, w);
                    if best.is_none_or(|(bs, _)| s < bs) {
                        best = Some((s, w));
                    }
                }
                if let Some((_, w)) = best {
                    return w;
                }
                // Every way pinned: plain LRU over the whole set.
                let mut best = (self.stamp(set, 0), 0);
                for w in 1..self.ways {
                    let s = self.stamp(set, w);
                    if s < best.0 {
                        best = (s, w);
                    }
                }
                best.1
            }
            Replacement::TreePlru => {
                let v = self.plru_victim(set);
                if !is_pinned(v) {
                    return v;
                }
                // Paper: avoid pinned entries; fall back to the PLRU choice
                // if everything is pinned. Scan from the PLRU victim for the
                // first unpinned way to keep the choice deterministic.
                (0..self.ways)
                    .map(|off| (v + off) % self.ways)
                    .find(|&w| !is_pinned(w))
                    .unwrap_or(v)
            }
            Replacement::Random => (0..self.ways)
                .map(|off| (random_start + off) % self.ways)
                .find(|&w| !is_pinned(w))
                .unwrap_or(random_start),
        }
    }

    /// Removes `key` from `set`, returning its value if present.
    pub fn invalidate(&mut self, set: usize, key: u64) -> Option<V> {
        let way = self.find_way(set, key)?;
        let mask = self.valid(set) & !(1 << way);
        self.set_valid(set, mask);
        self.live -= 1;
        // SAFETY: `find_way` only returns ways that were marked valid.
        Some(unsafe { self.values[self.slot(set, way)].assume_init_read() })
    }

    /// Clears every entry.
    pub fn clear(&mut self) {
        for set in 0..self.sets {
            self.set_valid(set, 0);
            self.set_meta(set, 0);
        }
        self.live = 0;
    }

    /// Iterates over all valid `(set, key, value)` triples in set-major,
    /// way-ascending order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &u64, &V)> + '_ {
        (0..self.sets).flat_map(move |set| self.iter_set(set).map(move |(k, v)| (set, k, v)))
    }

    /// Iterates the valid `(key, value)` pairs of one set, way-ascending.
    pub fn iter_set(&self, set: usize) -> impl Iterator<Item = (&u64, &V)> + '_ {
        let base = set * self.ways;
        BitIter(self.valid(set)).map(move |w| {
            // SAFETY: `BitIter` yields only ways whose valid bit is set.
            (self.tag(set, w), unsafe {
                self.values[base + w].assume_init_ref()
            })
        })
    }
}

impl<V> fmt::Debug for AssocArray<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AssocArray")
            .field("sets", &self.sets)
            .field("ways", &self.ways)
            .field("policy", &self.policy)
            .field("len", &self.live)
            .finish()
    }
}

#[cfg(test)]
pub(crate) mod oracle {
    //! The pre-refactor `Vec<Option<Way>>` implementation, kept verbatim as
    //! the differential-test oracle for the bitmask/split-storage rewrite
    //! above. Every observable behavior — victim order, PRNG stream, tie
    //! breaks, iteration order — must match between the two.

    use super::Replacement;

    #[derive(Clone, Debug)]
    struct Way<K, V> {
        key: K,
        value: V,
        stamp: u64,
    }

    pub struct OracleArray<K, V> {
        ways: usize,
        entries: Vec<Option<Way<K, V>>>,
        policy: Replacement,
        plru_bits: Vec<u64>,
        tick: u64,
        rng: ptw_types::rng::SplitMix64,
    }

    impl<K: Eq + Copy, V> OracleArray<K, V> {
        pub fn with_seed(sets: usize, ways: usize, policy: Replacement, seed: u64) -> Self {
            assert!(sets > 0 && ways > 0);
            if policy == Replacement::TreePlru {
                assert!(ways.is_power_of_two());
                assert!(ways <= 64);
            }
            let mut entries = Vec::with_capacity(sets * ways);
            entries.resize_with(sets * ways, || None);
            OracleArray {
                ways,
                entries,
                policy,
                plru_bits: vec![
                    0;
                    if policy == Replacement::TreePlru {
                        sets
                    } else {
                        0
                    }
                ],
                tick: 0,
                rng: ptw_types::rng::SplitMix64::new(seed),
            }
        }

        pub fn len(&self) -> usize {
            self.entries.iter().filter(|e| e.is_some()).count()
        }

        fn slot(&self, set: usize, way: usize) -> usize {
            set * self.ways + way
        }

        fn find_way(&self, set: usize, key: K) -> Option<usize> {
            (0..self.ways).find(|&w| {
                self.entries[self.slot(set, w)]
                    .as_ref()
                    .is_some_and(|e| e.key == key)
            })
        }

        fn touch(&mut self, set: usize, way: usize) {
            self.tick += 1;
            let tick = self.tick;
            let slot = self.slot(set, way);
            if let Some(e) = self.entries[slot].as_mut() {
                e.stamp = tick;
            }
            if self.policy == Replacement::TreePlru {
                self.plru_touch(set, way);
            }
        }

        fn plru_touch(&mut self, set: usize, way: usize) {
            let mut node = 0usize;
            let levels = self.ways.trailing_zeros();
            for level in (0..levels).rev() {
                let bit = (way >> level) & 1;
                let bits = &mut self.plru_bits[set];
                if bit == 0 {
                    *bits |= 1 << node;
                } else {
                    *bits &= !(1 << node);
                }
                node = 2 * node + 1 + bit;
            }
        }

        fn plru_victim(&self, set: usize) -> usize {
            let mut node = 0usize;
            let mut way = 0usize;
            let levels = self.ways.trailing_zeros();
            for _ in 0..levels {
                let bit = ((self.plru_bits[set] >> node) & 1) as usize;
                way = (way << 1) | bit;
                node = 2 * node + 1 + bit;
            }
            way
        }

        pub fn lookup(&mut self, set: usize, key: K) -> Option<&V> {
            let way = self.find_way(set, key)?;
            self.touch(set, way);
            let slot = self.slot(set, way);
            self.entries[slot].as_ref().map(|e| &e.value)
        }

        pub fn lookup_mut(&mut self, set: usize, key: K) -> Option<&mut V> {
            let way = self.find_way(set, key)?;
            self.touch(set, way);
            let slot = self.slot(set, way);
            self.entries[slot].as_mut().map(|e| &mut e.value)
        }

        pub fn probe(&self, set: usize, key: K) -> Option<&V> {
            let way = self.find_way(set, key)?;
            self.entries[self.slot(set, way)].as_ref().map(|e| &e.value)
        }

        pub fn fill_pinned(
            &mut self,
            set: usize,
            key: K,
            value: V,
            pinned: impl Fn(&K, &V) -> bool,
        ) -> Option<(K, V)> {
            if let Some(way) = self.find_way(set, key) {
                let slot = self.slot(set, way);
                if let Some(e) = self.entries[slot].as_mut() {
                    e.value = value;
                }
                self.touch(set, way);
                return None;
            }
            if let Some(way) = (0..self.ways).find(|&w| self.entries[self.slot(set, w)].is_none()) {
                let slot = self.slot(set, way);
                self.entries[slot] = Some(Way {
                    key,
                    value,
                    stamp: 0,
                });
                self.touch(set, way);
                return None;
            }
            let way = self.victim_way(set, &pinned);
            let slot = self.slot(set, way);
            let old = self.entries[slot].take().map(|e| (e.key, e.value));
            self.entries[slot] = Some(Way {
                key,
                value,
                stamp: 0,
            });
            self.touch(set, way);
            old
        }

        fn victim_way(&mut self, set: usize, pinned: &impl Fn(&K, &V) -> bool) -> usize {
            let random_start = if self.policy == Replacement::Random {
                self.rng.index(self.ways)
            } else {
                0
            };
            let is_pinned = |w: usize| {
                self.entries[self.slot(set, w)]
                    .as_ref()
                    .is_some_and(|e| pinned(&e.key, &e.value))
            };
            match self.policy {
                Replacement::Lru => {
                    let lru_of = |ways: &mut dyn Iterator<Item = usize>| {
                        ways.min_by_key(|&w| {
                            self.entries[self.slot(set, w)]
                                .as_ref()
                                .map_or(0, |e| e.stamp)
                        })
                    };
                    let mut unpinned = (0..self.ways).filter(|&w| !is_pinned(w));
                    lru_of(&mut unpinned)
                        .or_else(|| lru_of(&mut (0..self.ways)))
                        .expect("non-empty set")
                }
                Replacement::TreePlru => {
                    let v = self.plru_victim(set);
                    if !is_pinned(v) {
                        return v;
                    }
                    (0..self.ways)
                        .map(|off| (v + off) % self.ways)
                        .find(|&w| !is_pinned(w))
                        .unwrap_or(v)
                }
                Replacement::Random => (0..self.ways)
                    .map(|off| (random_start + off) % self.ways)
                    .find(|&w| !is_pinned(w))
                    .unwrap_or(random_start),
            }
        }

        pub fn invalidate(&mut self, set: usize, key: K) -> Option<V> {
            let way = self.find_way(set, key)?;
            let slot = self.slot(set, way);
            self.entries[slot].take().map(|e| e.value)
        }

        pub fn iter(&self) -> impl Iterator<Item = (usize, &K, &V)> + '_ {
            self.entries
                .iter()
                .enumerate()
                .filter_map(move |(i, e)| e.as_ref().map(|e| (i / self.ways, &e.key, &e.value)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_miss_then_hit() {
        let mut a: AssocArray<u32> = AssocArray::new(4, 2, Replacement::Lru);
        assert_eq!(a.lookup(0, 5), None);
        a.fill(0, 5, 50);
        assert_eq!(a.lookup(0, 5), Some(&50));
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut a: AssocArray<u32> = AssocArray::new(1, 2, Replacement::Lru);
        a.fill(0, 1, 10);
        a.fill(0, 2, 20);
        a.lookup(0, 1); // 2 becomes LRU
        let ev = a.fill(0, 3, 30);
        assert_eq!(ev, Some((2, 20)));
        assert!(a.probe(0, 1).is_some());
        assert!(a.probe(0, 3).is_some());
    }

    #[test]
    fn probe_does_not_update_recency() {
        let mut a: AssocArray<u32> = AssocArray::new(1, 2, Replacement::Lru);
        a.fill(0, 1, 10);
        a.fill(0, 2, 20);
        a.probe(0, 1); // must NOT refresh 1
        let ev = a.fill(0, 3, 30);
        assert_eq!(ev, Some((1, 10)));
    }

    #[test]
    fn fill_existing_key_replaces_value_without_eviction() {
        let mut a: AssocArray<u32> = AssocArray::new(1, 2, Replacement::Lru);
        a.fill(0, 1, 10);
        a.fill(0, 2, 20);
        assert_eq!(a.fill(0, 1, 11), None);
        assert_eq!(a.probe(0, 1), Some(&11));
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn pinned_entries_survive() {
        let mut a: AssocArray<u32> = AssocArray::new(1, 2, Replacement::Lru);
        a.fill(0, 1, 10);
        a.fill(0, 2, 20);
        // Key 1 is LRU but pinned; 2 must be evicted instead.
        let ev = a.fill_pinned(0, 3, 30, |&k, _| k == 1);
        assert_eq!(ev, Some((2, 20)));
        assert!(a.probe(0, 1).is_some());
    }

    #[test]
    fn all_pinned_falls_back_to_lru() {
        let mut a: AssocArray<u32> = AssocArray::new(1, 2, Replacement::Lru);
        a.fill(0, 1, 10);
        a.fill(0, 2, 20);
        let ev = a.fill_pinned(0, 3, 30, |_, _| true);
        assert_eq!(ev, Some((1, 10))); // LRU fallback
    }

    /// The first `n` keys from `from` up whose fingerprint is `fp`.
    fn keys_with_fp(fp: u64, from: u64, n: usize) -> Vec<u64> {
        (from..).filter(|&k| fingerprint(k) == fp).take(n).collect()
    }

    /// A key from `from` up whose fingerprint is none of `taken`.
    fn key_avoiding(taken: &[u64], from: u64) -> u64 {
        (from..)
            .find(|&k| !taken.contains(&fingerprint(k)))
            .expect("some fingerprint is free")
    }

    /// A lookup tests the fingerprint words that hold a valid way and
    /// compares full tags only for the valid ways whose fingerprint
    /// matches, in index order up to the hit. A miss whose fingerprint
    /// matches no valid way compares no tag; invalid ways, stale bytes
    /// included, are never compared.
    #[test]
    #[cfg_attr(not(debug_assertions), ignore)]
    fn lookups_count_the_tags_they_compare() {
        let mut a: AssocArray<u32> = AssocArray::new(1, 16, Replacement::Lru);
        // Ways 0 and 2 share a fingerprint; ways 1 and 3 do not.
        let twins = keys_with_fp(0x5a, 1, 3);
        let other = key_avoiding(&[0x5a], 1);
        let third = key_avoiding(&[0x5a, fingerprint(other)], other + 1);
        for (v, k) in [twins[0], other, twins[1], third].into_iter().enumerate() {
            a.fill(0, k, v as u32);
        }
        let counts = || {
            let c = work::take();
            (c[Work::AssocFpWords as usize], c[Work::AssocTags as usize])
        };
        counts();
        assert_eq!(a.probe(0, twins[0]), Some(&0));
        assert_eq!(counts(), (1, 1), "the first candidate hits");
        assert_eq!(a.probe(0, twins[1]), Some(&2));
        assert_eq!(counts(), (1, 2), "way 0 is a false candidate for way 2");
        assert_eq!(a.probe(0, third), Some(&3));
        assert_eq!(counts(), (1, 1), "a unique fingerprint compares one tag");
        let miss = key_avoiding(&[0x5a, fingerprint(other), fingerprint(third)], third + 1);
        assert_eq!(a.lookup(0, miss), None);
        assert_eq!(counts(), (1, 0), "a filtered miss compares no tag");
        assert_eq!(a.lookup(0, twins[2]), None);
        assert_eq!(counts(), (1, 2), "a colliding miss compares both twins");
        // Invalidating way 0 leaves its tag and fingerprint bytes behind;
        // the valid mask keeps them from ever matching.
        assert_eq!(a.invalidate(0, twins[0]), Some(0));
        counts();
        assert_eq!(a.probe(0, twins[0]), None);
        assert_eq!(counts(), (1, 1), "only the live twin is compared");
        // Way 8 opens the second fingerprint word; an empty set tests none.
        for k in 0..6 {
            a.fill(0, (1 << 40) + k, 0);
        }
        assert_eq!(a.set_len(0), 9);
        counts();
        assert_eq!(a.probe(0, twins[2]), None);
        assert_eq!(counts().0, 2, "two words hold valid ways");
        a.clear();
        counts();
        assert_eq!(a.probe(0, twins[1]), None);
        assert_eq!(counts(), (0, 0), "an empty set reads no fingerprint");
    }

    /// Keys that share one fingerprint all live in one set and each hits
    /// exactly its own value; invalidated ways' stale fingerprint and tag
    /// words never match, neither for the removed key nor for its twins.
    #[test]
    fn equal_fingerprints_hit_exactly() {
        for policy in [Replacement::Random, Replacement::Lru, Replacement::TreePlru] {
            let mut a: AssocArray<u64> = AssocArray::with_seed(1, 32, policy, 5);
            let keys = keys_with_fp(0xc3, 0, 40);
            for &k in &keys[..32] {
                assert_eq!(a.fill(0, k, k * 3), None);
            }
            for &k in &keys[..32] {
                assert_eq!(a.probe(0, k), Some(&(k * 3)), "{policy:?}: key {k}");
            }
            for &k in &keys[32..] {
                assert_eq!(a.probe(0, k), None, "{policy:?}: absent key {k}");
            }
            for &k in keys[..32].iter().step_by(3) {
                assert_eq!(a.invalidate(0, k), Some(k * 3));
                assert_eq!(a.probe(0, k), None, "{policy:?}: stale way {k} matched");
            }
            for (i, &k) in keys[..32].iter().enumerate() {
                let want = (i % 3 != 0).then_some(k * 3);
                assert_eq!(a.probe(0, k).copied(), want, "{policy:?}: key {k}");
            }
            // Refilling reuses the invalidated ways; every key still hits
            // its own value.
            for &k in &keys[32..] {
                a.fill(0, k, k * 5);
            }
            for &k in &keys[32..] {
                assert_eq!(a.probe(0, k), Some(&(k * 5)), "{policy:?}: refill {k}");
            }
        }
    }

    #[test]
    fn zero_bytes_flags_exactly_the_zero_bytes() {
        let mut rng = ptw_types::rng::SplitMix64::new(0x2e70);
        for _ in 0..10_000 {
            // Bias bytes toward 0x00, 0x01 and 0x80, the borrow-prone values.
            let x = (0..8).fold(0u64, |x, b| {
                let byte = match rng.index(4) {
                    0 => 0,
                    1 => 1,
                    2 => 0x80,
                    _ => rng.next_below(256),
                };
                x | byte << (8 * b)
            });
            let want = (0..8).fold(0, |m, b| m | u64::from((x >> (8 * b)) & 0xff == 0) << b);
            assert_eq!(zero_bytes(x), want, "{x:#018x}");
        }
    }

    #[test]
    fn invalidate_removes() {
        let mut a: AssocArray<u32> = AssocArray::new(2, 2, Replacement::Lru);
        a.fill(1, 7, 70);
        assert_eq!(a.invalidate(1, 7), Some(70));
        assert_eq!(a.probe(1, 7), None);
        assert_eq!(a.invalidate(1, 7), None);
    }

    #[test]
    fn tree_plru_cycles_through_ways() {
        let mut a: AssocArray<u32> = AssocArray::new(1, 4, Replacement::TreePlru);
        for k in 0..4 {
            a.fill(0, k, k as u32);
        }
        // Re-touch 0..3 in order; victim should be 0 (least recently pointed).
        for k in 0..4 {
            a.lookup(0, k);
        }
        let ev = a.fill(0, 100, 1);
        // Tree-PLRU approximates LRU: the victim must not be the most
        // recently used way (3).
        assert_ne!(ev.unwrap().0, 3);
    }

    #[test]
    fn tree_plru_single_hot_way_is_protected() {
        let mut a: AssocArray<u32> = AssocArray::new(1, 4, Replacement::TreePlru);
        for k in 0..4 {
            a.fill(0, k, 0);
        }
        for i in 0..8 {
            a.lookup(0, 3); // keep 3 hot
            let ev = a.fill(0, 10 + i, 0).expect("set full");
            assert_ne!(ev.0, 3, "hot way evicted on iteration {i}");
        }
    }

    #[test]
    #[should_panic]
    fn tree_plru_requires_pow2() {
        let _ = AssocArray::<()>::new(1, 3, Replacement::TreePlru);
    }

    #[test]
    #[should_panic]
    fn more_than_64_ways_panics() {
        let _ = AssocArray::<()>::new(1, 65, Replacement::Lru);
    }

    #[test]
    fn sixty_four_ways_work() {
        let mut a: AssocArray<()> = AssocArray::new(1, 64, Replacement::Lru);
        for k in 0..65u64 {
            a.fill(0, k, ());
        }
        assert_eq!(a.len(), 64);
        assert!(a.probe(0, 0).is_none()); // key 0 was the LRU victim
    }

    #[test]
    fn random_replacement_is_deterministic_and_graceful() {
        // Two identically seeded arrays evict identically.
        let mut a: AssocArray<()> = AssocArray::with_seed(1, 4, Replacement::Random, 7);
        let mut b: AssocArray<()> = AssocArray::with_seed(1, 4, Replacement::Random, 7);
        for k in 0..100u64 {
            assert_eq!(a.fill(0, k, ()), b.fill(0, k, ()));
        }
        // Cyclic access over 6 keys with 4 ways: random replacement must
        // yield a non-zero hit rate (LRU would give exactly zero).
        let mut c: AssocArray<()> = AssocArray::with_seed(1, 4, Replacement::Random, 9);
        let mut hits = 0;
        for round in 0..200u64 {
            for k in 0..6u64 {
                if c.lookup(0, k).is_some() {
                    if round > 1 {
                        hits += 1;
                    }
                } else {
                    c.fill(0, k, ());
                }
            }
        }
        assert!(
            hits > 100,
            "random replacement degraded to LRU-like thrash: {hits}"
        );
    }

    #[test]
    fn random_replacement_respects_pins() {
        let mut a: AssocArray<u32> = AssocArray::with_seed(1, 2, Replacement::Random, 3);
        a.fill(0, 1, 0);
        a.fill(0, 2, 0);
        for k in 10..30u64 {
            let ev = a.fill_pinned(0, k, 0, |&key, _| key == 1);
            assert_ne!(ev.map(|(k, _)| k), Some(1), "pinned key evicted");
            // Remove the new key again so key 1 stays under pressure.
            a.invalidate(0, k);
        }
        assert!(a.probe(0, 1).is_some());
    }

    #[test]
    fn random_all_pinned_falls_back_to_rng_choice() {
        // With every way pinned, Random must still evict — the way its own
        // PRNG drew — rather than loop or panic.
        let mut a: AssocArray<u32> = AssocArray::with_seed(1, 4, Replacement::Random, 11);
        for k in 0..4 {
            a.fill(0, k, 0);
        }
        let ev = a.fill_pinned(0, 99, 0, |_, _| true);
        assert!(ev.is_some(), "all-pinned set must still evict");
        assert!(a.probe(0, 99).is_some());
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn iter_visits_all() {
        let mut a: AssocArray<u32> = AssocArray::new(2, 2, Replacement::Lru);
        a.fill(0, 1, 10);
        a.fill(1, 2, 20);
        let mut items: Vec<(usize, u64, u32)> = a.iter().map(|(s, &k, &v)| (s, k, v)).collect();
        items.sort_unstable();
        assert_eq!(items, vec![(0, 1, 10), (1, 2, 20)]);
    }

    #[test]
    fn iter_set_and_set_len() {
        let mut a: AssocArray<u32> = AssocArray::new(2, 2, Replacement::Lru);
        a.fill(0, 1, 10);
        a.fill(0, 2, 20);
        a.fill(1, 3, 30);
        assert_eq!(a.set_len(0), 2);
        assert_eq!(a.set_len(1), 1);
        let s0: Vec<(u64, u32)> = a.iter_set(0).map(|(&k, &v)| (k, v)).collect();
        assert_eq!(s0, vec![(1, 10), (2, 20)]);
        a.invalidate(0, 1);
        assert_eq!(a.set_len(0), 1);
    }

    #[test]
    fn clear_empties() {
        let mut a: AssocArray<u32> = AssocArray::new(2, 2, Replacement::TreePlru);
        a.fill(0, 1, 10);
        a.clear();
        assert!(a.is_empty());
    }

    #[test]
    fn packed_line_block_is_one_cache_line() {
        // Mirror of the const asserts next to `LineBlock`.
        assert_eq!(core::mem::size_of::<LineBlock>(), 64);
        assert_eq!(core::mem::align_of::<LineBlock>(), 64);
        // Every set's packed line starts on a host cache-line boundary,
        // and a 16-way LRU set (2 meta + 2 fingerprint + 16 tags + 16
        // stamps words) packs into 5 blocks.
        let a: AssocArray<u32> = AssocArray::new(4, 16, Replacement::Lru);
        assert_eq!(a.lines.as_ptr() as usize % 64, 0);
        assert_eq!(a.stride, 5);
        // Without stamps the same geometry needs only 3 blocks (the shared
        // L2 TLB shape), and a 32-way Random set (the L1 TLBs) 5.
        let b: AssocArray<u32> = AssocArray::new(4, 16, Replacement::Random);
        assert_eq!(b.stride, 3);
        let c: AssocArray<u32> = AssocArray::new(1, 32, Replacement::Random);
        assert_eq!(c.stride, 5);
    }

    #[test]
    fn set_index_matches_modulo() {
        for sets in [1usize, 2, 16, 32, 4096, 3, 12, 100] {
            let ix = SetIndex::new(sets);
            for raw in (0..1000u64).chain([u64::MAX, u64::MAX - 7]) {
                assert_eq!(ix.of(raw), (raw % sets as u64) as usize, "sets={sets}");
            }
        }
    }
}

#[cfg(test)]
mod differential {
    //! Differential tests: the rewritten array against the pre-refactor
    //! oracle, across every policy and pinning regime (including the
    //! all-ways-pinned fallback), driven by the in-tree `SplitMix64`.

    use super::oracle::OracleArray;
    use super::*;
    use ptw_types::rng::SplitMix64;

    type Pin = fn(&u64, &u32) -> bool;

    const PIN_NONE: Pin = |_, _| false;
    const PIN_SOME: Pin = |&k, _| k % 3 == 0;
    const PIN_ALL: Pin = |_, _| true;

    fn drive(policy: Replacement, seed: u64, pin: Pin) {
        let (sets, ways) = (4usize, 4usize);
        let mut new_a: AssocArray<u32> = AssocArray::with_seed(sets, ways, policy, seed);
        let mut old_a: OracleArray<u64, u32> = OracleArray::with_seed(sets, ways, policy, seed);
        let mut rng = SplitMix64::new(seed ^ 0xD1FF_5EED);
        for step in 0..4000u32 {
            let set = rng.index(sets);
            let key = rng.next_below(24);
            match rng.index(8) {
                0..=3 => {
                    let v = rng.next_below(1000) as u32;
                    assert_eq!(
                        new_a.fill_pinned(set, key, v, pin),
                        old_a.fill_pinned(set, key, v, pin),
                        "fill diverged at step {step} ({policy:?})"
                    );
                }
                4 => assert_eq!(
                    new_a.lookup(set, key).copied(),
                    old_a.lookup(set, key).copied(),
                    "lookup diverged at step {step} ({policy:?})"
                ),
                5 => assert_eq!(
                    new_a.probe(set, key).copied(),
                    old_a.probe(set, key).copied(),
                    "probe diverged at step {step} ({policy:?})"
                ),
                6 => assert_eq!(
                    new_a.invalidate(set, key),
                    old_a.invalidate(set, key),
                    "invalidate diverged at step {step} ({policy:?})"
                ),
                _ => {
                    let n = new_a.lookup_mut(set, key).map(|v| {
                        *v = v.wrapping_add(1);
                        *v
                    });
                    let o = old_a.lookup_mut(set, key).map(|v| {
                        *v = v.wrapping_add(1);
                        *v
                    });
                    assert_eq!(n, o, "lookup_mut diverged at step {step} ({policy:?})");
                }
            }
            assert_eq!(new_a.len(), old_a.len(), "len diverged at step {step}");
        }
        // Final contents AND iteration order must match exactly.
        let got: Vec<(usize, u64, u32)> = new_a.iter().map(|(s, &k, &v)| (s, k, v)).collect();
        let want: Vec<(usize, u64, u32)> = old_a.iter().map(|(s, &k, &v)| (s, k, v)).collect();
        assert_eq!(got, want, "final contents diverged ({policy:?})");
    }

    #[test]
    fn matches_oracle_across_policies_and_pin_regimes() {
        for policy in [Replacement::Lru, Replacement::TreePlru, Replacement::Random] {
            for pin in [PIN_NONE, PIN_SOME, PIN_ALL] {
                for seed in [1u64, 0xBEEF, 0x1234_5678] {
                    drive(policy, seed, pin);
                }
            }
        }
    }

    /// [`drive`] at an arbitrary geometry, over a key pool that mixes a
    /// dense range (1.5× the capacity, so sets fill, evict and miss) with
    /// keys sharing one fingerprint (so candidates collide in every set).
    fn drive_geometry(sets: usize, ways: usize, policy: Replacement, seed: u64, pin: Pin) {
        let mut pool: Vec<u64> = (0..(sets * ways * 3 / 2) as u64).collect();
        pool.extend(
            (1u64 << 32..)
                .filter(|&k| fingerprint(k) == 0x77)
                .take(2 * ways),
        );
        let mut new_a: AssocArray<u32> = AssocArray::with_seed(sets, ways, policy, seed);
        let mut old_a: OracleArray<u64, u32> = OracleArray::with_seed(sets, ways, policy, seed);
        let mut rng = SplitMix64::new(seed ^ 0xF1A6_E5ED);
        let at = |step| format!("step {step} ({sets}x{ways} {policy:?} seed {seed:#x})");
        for step in 0..6000u32 {
            let key = pool[rng.index(pool.len())];
            let set = SetIndex::new(sets).of(key);
            match rng.index(8) {
                0..=3 => {
                    let v = rng.next_below(1000) as u32;
                    assert_eq!(
                        new_a.fill_pinned(set, key, v, pin),
                        old_a.fill_pinned(set, key, v, pin),
                        "fill diverged at {}",
                        at(step)
                    );
                }
                4 => assert_eq!(
                    new_a.lookup(set, key).copied(),
                    old_a.lookup(set, key).copied(),
                    "lookup diverged at {}",
                    at(step)
                ),
                5 => assert_eq!(
                    new_a.probe(set, key).copied(),
                    old_a.probe(set, key).copied(),
                    "probe diverged at {}",
                    at(step)
                ),
                _ => assert_eq!(
                    new_a.invalidate(set, key),
                    old_a.invalidate(set, key),
                    "invalidate diverged at {}",
                    at(step)
                ),
            }
            assert_eq!(new_a.len(), old_a.len(), "len diverged at {}", at(step));
        }
        let got: Vec<(usize, u64, u32)> = new_a.iter().map(|(s, &k, &v)| (s, k, v)).collect();
        let want: Vec<(usize, u64, u32)> = old_a.iter().map(|(s, &k, &v)| (s, k, v)).collect();
        assert_eq!(
            got, want,
            "final contents diverged ({sets}x{ways} {policy:?})"
        );
    }

    /// Geometries whose ways span one, two, two-and-a-bit and eight
    /// fingerprint words, including the real TLB shapes (32-way fully
    /// associative Random, 16-way sets) and a partial last word.
    #[test]
    fn matches_oracle_across_fingerprint_word_boundaries() {
        let geometries = [
            (1, 32, Replacement::Random),
            (2, 16, Replacement::Lru),
            (1, 64, Replacement::Lru),
            (1, 9, Replacement::Lru),
            (1, 32, Replacement::TreePlru),
        ];
        for (sets, ways, policy) in geometries {
            for pin in [PIN_NONE, PIN_SOME, PIN_ALL] {
                for seed in [3u64, 0xFACE] {
                    drive_geometry(sets, ways, policy, seed, pin);
                }
            }
        }
    }

    #[test]
    fn random_all_pinned_matches_oracle_victims() {
        // Focused stress on the Random + all-pinned fallback: every fill
        // evicts, and the victim must follow the oracle's PRNG stream.
        let mut new_a: AssocArray<u32> = AssocArray::with_seed(1, 4, Replacement::Random, 0xACE);
        let mut old_a: OracleArray<u64, u32> =
            OracleArray::with_seed(1, 4, Replacement::Random, 0xACE);
        for k in 0..4u64 {
            new_a.fill(0, k, 0);
            old_a.fill_pinned(0, k, 0, |_, _| false);
        }
        for k in 100..300u64 {
            assert_eq!(
                new_a.fill_pinned(0, k, 0, |_, _| true),
                old_a.fill_pinned(0, k, 0, |_, _| true),
                "victim diverged at key {k}"
            );
        }
    }
}
