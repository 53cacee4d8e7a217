//! A small open-addressed `u64 → u32` map for the memory side's indices.
//!
//! Two structures key a slab handle by a 64-bit value on every request:
//! the controller's (bank, row) chain tails and the
//! [`Mshr`](crate::cache::Mshr)'s line index. Both hold at most a few hundred live keys and
//! churn constantly, so this is a flat linear-probing table with
//! backward-shift deletion (no tombstones, so probe runs never degrade
//! under churn), growth at 50% load, and a SplitMix64 finalizer for
//! scatter — no `std` hashing, no per-operation allocation once grown.

/// Free-slot sentinel. Callers never use it as a key: packed chain keys
/// stay below 2⁶³ and line addresses are 64-byte aligned.
const EMPTY_KEY: u64 = u64::MAX;

/// SplitMix64 finalizer: full-avalanche scatter for structured keys.
#[inline]
fn mix(key: u64) -> u64 {
    let mut z = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Open-addressed map from a `u64` key to a `u32` value.
#[derive(Clone, Debug)]
pub(crate) struct KeyMap {
    /// `(key, value)` slots; a key of [`EMPTY_KEY`] marks a free slot.
    slots: Box<[(u64, u32)]>,
    /// `slots.len() - 1`; the slot count is a power of two.
    mask: usize,
    len: usize,
}

impl KeyMap {
    /// Minimum slot count of a non-empty map.
    const MIN_SLOTS: usize = 64;

    /// Creates an empty map without allocating.
    pub(crate) fn new() -> Self {
        KeyMap {
            slots: Box::new([]),
            mask: 0,
            len: 0,
        }
    }

    /// Number of live keys.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Slot index holding `key`, if present.
    #[inline]
    fn find(&self, key: u64) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let mut i = (mix(key) as usize) & self.mask;
        loop {
            let k = self.slots[i].0;
            if k == key {
                return Some(i);
            }
            if k == EMPTY_KEY {
                return None;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// The value mapped to `key`, if any.
    #[inline]
    pub(crate) fn get(&self, key: u64) -> Option<u32> {
        self.find(key).map(|i| self.slots[i].1)
    }

    /// Maps `key` to `value`, returning the value it replaced (or `None`
    /// if `key` was absent).
    pub(crate) fn insert(&mut self, key: u64, value: u32) -> Option<u32> {
        debug_assert!(key != EMPTY_KEY, "key collides with the free-slot sentinel");
        // Grow at 50% load so probe runs stay short.
        if self.slots.is_empty() || self.len * 2 >= self.slots.len() {
            self.grow();
        }
        let mut i = (mix(key) as usize) & self.mask;
        loop {
            let (k, old) = self.slots[i];
            if k == key {
                self.slots[i].1 = value;
                return Some(old);
            }
            if k == EMPTY_KEY {
                self.slots[i] = (key, value);
                self.len += 1;
                return None;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Removes `key`, returning its value if it was present.
    pub(crate) fn remove(&mut self, key: u64) -> Option<u32> {
        let i = self.find(key)?;
        let value = self.slots[i].1;
        self.backshift_remove(i);
        Some(value)
    }

    /// Removes `key` only if it maps to `value`; a key mapped to anything
    /// else stays. The key must be present.
    pub(crate) fn remove_if_eq(&mut self, key: u64, value: u32) {
        let i = self.find(key);
        debug_assert!(i.is_some(), "key is unmapped");
        if let Some(i) = i {
            if self.slots[i].1 == value {
                self.backshift_remove(i);
            }
        }
    }

    /// Removes the slot at `hole`, shifting later probe-run members back so
    /// lookups never cross a gap (no tombstones).
    fn backshift_remove(&mut self, mut hole: usize) {
        let mask = self.mask;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let (k, v) = self.slots[j];
            if k == EMPTY_KEY {
                break;
            }
            let home = (mix(k) as usize) & mask;
            // `j`'s entry may fill the hole iff its home position does not
            // lie strictly between the hole and `j` (cyclically) — else the
            // move would strand it before its home.
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.slots[hole] = (k, v);
                hole = j;
            }
        }
        self.slots[hole] = (EMPTY_KEY, u32::MAX);
        self.len -= 1;
    }

    /// Doubles the slot array (or allocates the first one) and re-probes
    /// every live key into it.
    fn grow(&mut self) {
        let new_cap = (self.slots.len() * 2).max(Self::MIN_SLOTS);
        let old = std::mem::replace(
            &mut self.slots,
            vec![(EMPTY_KEY, u32::MAX); new_cap].into_boxed_slice(),
        );
        self.mask = new_cap - 1;
        for &(k, v) in old.iter() {
            if k == EMPTY_KEY {
                continue;
            }
            let mut i = (mix(k) as usize) & self.mask;
            while self.slots[i].0 != EMPTY_KEY {
                i = (i + 1) & self.mask;
            }
            self.slots[i] = (k, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptw_types::rng::SplitMix64;

    /// The map must agree with a `std::collections::HashMap` shadow across
    /// a long random stream of inserts, removals and value-conditional
    /// removals — the backward-shift deletion is the one piece that plain
    /// usage can get subtly wrong (a shifted entry stranded behind a gap
    /// becomes unreachable).
    #[test]
    fn keymap_matches_std_map_under_churn() {
        let mut map = KeyMap::new();
        let mut shadow = std::collections::HashMap::new();
        let mut rng = SplitMix64::new(0x5eed_7a11);
        for op in 0..50_000u32 {
            let key = (rng.next_below(64) << 8) | rng.next_below(8);
            match rng.next_below(6) {
                0..=2 => assert_eq!(map.insert(key, op), shadow.insert(key, op)),
                3 => assert_eq!(map.remove(key), shadow.remove(&key)),
                _ => {
                    if let Some(&v) = shadow.get(&key) {
                        if rng.next_below(2) == 0 {
                            map.remove_if_eq(key, v);
                            shadow.remove(&key);
                        } else {
                            // A different value must leave the key mapped.
                            map.remove_if_eq(key, v.wrapping_add(1));
                        }
                    }
                }
            }
            assert_eq!(map.len(), shadow.len());
        }
        for key in 0..(64 << 8) {
            assert_eq!(map.get(key), shadow.get(&key).copied(), "key {key}");
        }
    }
}
