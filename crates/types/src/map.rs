//! An open-addressed `u64 → V` map for the simulator's per-request indices.
//!
//! Every hot index in the simulator keys a `u64`: the page table's
//! translate maps (page number → frame, 2 MiB region → base frame), the
//! IOMMU candidate index's per-page walk chains, the L2 MSHR's line index
//! and the DRAM controller's (bank, row) chain tails. [`U64Map`] is the one
//! map behind all of them: linear probing over a power-of-two slot array,
//! backward-shift deletion (no tombstones, so probe runs never degrade
//! under the insert/remove churn of the request paths) and growth at 50%
//! load. Once grown to its working size it never allocates.
//!
//! The keys are trusted simulator state, not attacker-controlled input, so
//! a hardened hash buys nothing. One multiply by an odd constant followed
//! by a fold of the high bits down spreads the low-bit-heavy page numbers,
//! line addresses and packed (bank, row) keys across the mask, and costs
//! less than a full-avalanche finalizer on the lookup paths.
//!
//! Lookups are exact key → value matches and nothing iterates the map, so
//! swapping the container can never change simulated results. Every slot
//! a lookup, insert, removal or growth examines counts as one
//! [`Work::MapSlots`](crate::work::Work::MapSlots).

use crate::work::{self, Work};

/// Slot key marking an empty slot. Page numbers, line addresses and packed
/// chain keys all stay far below it; [`U64Map::insert`] enforces this.
const EMPTY: u64 = u64::MAX;

/// Home slot of `key` under `mask`.
#[inline]
fn home(key: u64, mask: usize) -> usize {
    let x = key.wrapping_mul(0xf135_7aea_2e62_a9c5);
    ((x ^ (x >> 29)) as usize) & mask
}

/// Open-addressed map from a `u64` key to a `Copy` value.
///
/// ```
/// use ptw_types::map::U64Map;
///
/// let mut m: U64Map<u32> = U64Map::with_capacity(4);
/// assert_eq!(m.insert(7, 70), None);
/// assert_eq!(m.insert(7, 71), Some(70));
/// *m.get_mut(7).unwrap() += 1;
/// assert_eq!(m.remove(7), Some(72));
/// assert!(m.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct U64Map<V> {
    /// `(key, value)` slots; a key of [`EMPTY`] marks a free slot.
    slots: Box<[(u64, V)]>,
    /// `slots.len() - 1`; the slot count is a power of two.
    mask: usize,
    len: usize,
}

impl<V: Copy + Default> Default for U64Map<V> {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl<V: Copy + Default> U64Map<V> {
    /// An empty map that holds `cap` keys before its first growth. A
    /// capacity of 0 allocates nothing until the first insert.
    pub fn with_capacity(cap: usize) -> Self {
        let n = if cap == 0 {
            0
        } else {
            (cap * 2).next_power_of_two()
        };
        U64Map {
            slots: vec![(EMPTY, V::default()); n].into_boxed_slice(),
            mask: n.wrapping_sub(1),
            len: 0,
        }
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slot index holding `key`, if present.
    #[inline]
    fn find(&self, key: u64) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let mut i = home(key, self.mask);
        let mut probes = 1;
        let found = loop {
            let k = self.slots[i].0;
            if k == EMPTY {
                break None;
            }
            if k == key {
                break Some(i);
            }
            i = (i + 1) & self.mask;
            probes += 1;
        };
        work::add(Work::MapSlots, probes);
        found
    }

    /// The value mapped to `key`, if any.
    #[inline]
    pub fn get(&self, key: u64) -> Option<V> {
        self.find(key).map(|i| self.slots[i].1)
    }

    /// The value mapped to `key`, mutably, if any.
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        self.find(key).map(|i| &mut self.slots[i].1)
    }

    /// Maps `key` to `value`, returning the value it replaced (or `None` if
    /// `key` was absent).
    ///
    /// # Panics
    ///
    /// Panics if `key` is `u64::MAX`, the free-slot sentinel.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        assert!(key != EMPTY, "key clashes with the free-slot sentinel");
        if self.len * 2 >= self.slots.len() {
            self.grow();
        }
        let mut i = home(key, self.mask);
        let mut probes = 1;
        let replaced = loop {
            let (k, old) = self.slots[i];
            if k == key {
                self.slots[i].1 = value;
                break Some(old);
            }
            if k == EMPTY {
                self.slots[i] = (key, value);
                self.len += 1;
                break None;
            }
            i = (i + 1) & self.mask;
            probes += 1;
        };
        work::add(Work::MapSlots, probes);
        replaced
    }

    /// Removes `key`, returning its value if it was present. Later members
    /// of the probe run shift back into the hole, so lookups never cross a
    /// gap and no tombstone is left behind.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let mut hole = self.find(key)?;
        let value = self.slots[hole].1;
        let mask = self.mask;
        let mut j = hole;
        let mut probes = 0;
        loop {
            j = (j + 1) & mask;
            probes += 1;
            let (k, v) = self.slots[j];
            if k == EMPTY {
                break;
            }
            // `j`'s entry may fill the hole iff its home does not lie
            // cyclically strictly between the hole and `j`: otherwise the
            // move would strand it before its home.
            if (j.wrapping_sub(home(k, mask)) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.slots[hole] = (k, v);
                hole = j;
            }
        }
        work::add(Work::MapSlots, probes);
        self.slots[hole].0 = EMPTY;
        self.len -= 1;
        Some(value)
    }

    /// Doubles the slot array (or allocates the first two slots) and
    /// re-probes every live key into it.
    fn grow(&mut self) {
        let n = (self.slots.len() * 2).max(2);
        let old = std::mem::replace(
            &mut self.slots,
            vec![(EMPTY, V::default()); n].into_boxed_slice(),
        );
        self.mask = n - 1;
        let mut probes = old.len() as u64;
        for &(k, v) in old.iter().filter(|(k, _)| *k != EMPTY) {
            let mut i = home(k, self.mask);
            probes += 1;
            while self.slots[i].0 != EMPTY {
                i = (i + 1) & self.mask;
                probes += 1;
            }
            self.slots[i] = (k, v);
        }
        work::add(Work::MapSlots, probes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use std::collections::HashMap;

    /// The map must agree with a `std::collections::HashMap` shadow under a
    /// long seeded stream of inserts (fresh and replacing), in-place updates
    /// through `get_mut`, removals and lookups. The backward-shift delete is
    /// the piece plain usage gets subtly wrong: an entry shifted across a
    /// gap becomes unreachable. Each pre-sized round starts from a probe
    /// run that wraps past the end of the slot array and empties it from
    /// the front; the rounds cover growth from the smallest map and
    /// from pre-sized ones, dense collisions (small key spaces including
    /// key 0) and sequential page numbers.
    #[test]
    fn matches_std_hashmap_under_seeded_churn() {
        let mut rng = SplitMix64::new(0x5eed_0a11);
        for (cap, base, keyspace) in [
            (0usize, 0u64, 16u64),
            (4, 0, 64),
            (32, 0, 4096),
            (1024, 0x7f00_0000_0000 >> 12, 10_000),
        ] {
            let mut map: U64Map<u64> = U64Map::with_capacity(cap);
            let mut oracle: HashMap<u64, u64> = HashMap::new();

            if cap >= 3 {
                // One key homed in the second-to-last slot, then two homed
                // in the last: the run fills slots top-1, top and 0. Removing
                // its members one by one shifts the survivors back across
                // the wrap-around, or leaves a wrapped one where it is.
                let top = map.mask;
                let homed = |slot: usize| (0..).filter(move |&k| home(k, top) == slot);
                let run: Vec<u64> = homed(top - 1).take(1).chain(homed(top).take(2)).collect();
                for (i, &k) in run.iter().enumerate() {
                    assert_eq!(map.insert(k, i as u64), oracle.insert(k, i as u64));
                }
                assert_eq!(map.mask, top, "the wrapped run fits without growing");
                for &gone in &run[..2] {
                    assert_eq!(map.remove(gone), oracle.remove(&gone));
                    for &k in &run {
                        assert_eq!(map.get(k), oracle.get(&k).copied(), "wrapped key {k}");
                    }
                }
            }

            for op in 0..40_000u64 {
                let key = base + rng.next_below(keyspace);
                match rng.next_below(8) {
                    0..=2 => assert_eq!(map.insert(key, op), oracle.insert(key, op), "op {op}"),
                    3 => {
                        if let Some(v) = map.get_mut(key) {
                            *v ^= op;
                        }
                        if let Some(v) = oracle.get_mut(&key) {
                            *v ^= op;
                        }
                    }
                    4 | 5 => assert_eq!(map.remove(key), oracle.remove(&key), "op {op}"),
                    _ => assert_eq!(map.get(key), oracle.get(&key).copied(), "op {op}"),
                }
                assert_eq!(map.len(), oracle.len(), "length diverged at op {op}");
            }
            for key in base..base + keyspace {
                assert_eq!(map.get(key), oracle.get(&key).copied(), "key {key}");
            }
            let live = map.slots.iter().filter(|s| s.0 != EMPTY).count();
            assert_eq!(live, oracle.len(), "ghost slots after churn");
            assert_eq!(map.get(EMPTY), None);
        }

        let empty: U64Map<u64> = U64Map::default();
        assert_eq!(
            (empty.get(0), empty.slots.len()),
            (None, 0),
            "no allocation"
        );
        let sentinel = std::panic::catch_unwind(|| U64Map::<u64>::default().insert(EMPTY, 1));
        assert!(sentinel.is_err(), "the free-slot sentinel must be rejected");
    }

    /// Of two keys sharing a home slot, the second sits one slot further
    /// on: finding the first examines one slot, the second two.
    #[test]
    #[cfg_attr(not(debug_assertions), ignore)]
    fn lookup_counts_the_slots_it_examines() {
        let mut map: U64Map<u64> = U64Map::with_capacity(8);
        let mask = map.mask;
        let mut shared = (1..).filter(|&k| home(k, mask) == home(0, mask));
        let second = shared.next().expect("keys share home slots");
        map.insert(0, 1);
        map.insert(second, 2);
        let slots = || work::take()[Work::MapSlots as usize];
        slots();
        assert_eq!(map.get(0), Some(1));
        assert_eq!(slots(), 1);
        assert_eq!(map.get(second), Some(2));
        assert_eq!(slots(), 2);
    }
}
