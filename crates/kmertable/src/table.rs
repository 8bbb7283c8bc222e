//! The single-threaded open-addressing table: packed `u64` k-mer → `u32`.

use crate::mix64;

/// Slot sentinel for "empty". A real packed k-mer only equals `u64::MAX`
/// for the all-T 32-mer, which is stored out-of-line (`max_key`), so every
/// in-array key is unambiguous.
const EMPTY: u64 = u64::MAX;

/// Minimum allocated capacity once the table holds anything.
const MIN_CAPACITY: usize = 16;

/// Open-addressing, linear-probing hash table from packed k-mers to `u32`
/// values (counts, component ids, node ids, occurrence-pool indices).
///
/// Insert-or-update only — no tombstones. [`retain`](Self::retain) rebuilds
/// the backing array, which is fine off the hot path (abundance filtering
/// runs once per pipeline stage).
#[derive(Debug, Clone, Default)]
pub struct PackedKmerTable {
    keys: Vec<u64>,
    vals: Vec<u32>,
    /// Occupied in-array slots (excludes the out-of-line `max_key`).
    occupied: usize,
    mask: usize,
    /// Value for the key `u64::MAX` (the all-T 32-mer), stored out-of-line
    /// because `u64::MAX` is the in-array empty sentinel.
    max_key: Option<u32>,
}

impl PackedKmerTable {
    /// An empty table; allocates nothing until the first insert.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty table pre-sized for `n` distinct keys without rehashing.
    pub fn with_capacity(n: usize) -> Self {
        let mut t = Self::new();
        if n > 0 {
            t.allocate(Self::capacity_for(n));
        }
        t
    }

    /// Smallest power-of-two capacity holding `n` keys under 1/2 load.
    fn capacity_for(n: usize) -> usize {
        (n * 2 + 1).next_power_of_two().max(MIN_CAPACITY)
    }

    fn allocate(&mut self, capacity: usize) {
        debug_assert!(capacity.is_power_of_two());
        self.keys = vec![EMPTY; capacity];
        self.vals = vec![0; capacity];
        self.mask = capacity - 1;
    }

    /// Number of stored keys.
    pub fn len(&self) -> usize {
        self.occupied + usize::from(self.max_key.is_some())
    }

    /// True if no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Allocated slot count.
    pub fn capacity(&self) -> usize {
        self.keys.len()
    }

    /// Slot index of `key`, or of the empty slot where it would go.
    /// Requires a non-full table (guaranteed by the 1/2 load cap).
    #[inline(always)]
    fn probe(&self, key: u64) -> usize {
        self.probe_from(key, mix64(key))
    }

    /// [`probe`](Self::probe) with `hash == mix64(key)` already computed.
    #[inline(always)]
    fn probe_from(&self, key: u64, hash: u64) -> usize {
        let mut i = (hash as usize) & self.mask;
        loop {
            let k = unsafe { *self.keys.get_unchecked(i) };
            if k == key || k == EMPTY {
                return i;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Grow if inserting one more key would exceed 1/2 load. The low cap
    /// trades slot memory (12 bytes each) for short probe chains on the
    /// pipeline's probe-dominated phases.
    #[inline]
    fn ensure_room(&mut self) {
        if self.keys.is_empty() {
            self.allocate(MIN_CAPACITY);
        } else if (self.occupied + 1) * 2 > self.keys.len() {
            self.grow(self.keys.len() * 2);
        }
    }

    fn grow(&mut self, capacity: usize) {
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; capacity]);
        let old_vals = std::mem::take(&mut self.vals);
        self.vals = vec![0; capacity];
        self.mask = capacity - 1;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k != EMPTY {
                let i = self.probe(k);
                self.keys[i] = k;
                self.vals[i] = v;
            }
        }
    }

    /// Value of `key`, if present.
    #[inline(always)]
    pub fn get(&self, key: u64) -> Option<u32> {
        self.find(key).map(|(_, v)| v)
    }

    /// Slot and value of `key`, if present — one probe answers both "what
    /// is its value" and "where does a caller's per-key side data live".
    /// Slots are stable until the next insert of a new key and lie in
    /// `0..=capacity()`: the out-of-line all-T 32-mer owns slot
    /// `capacity()`, so side arrays hold `capacity() + 1` entries.
    #[inline(always)]
    pub fn find(&self, key: u64) -> Option<(usize, u32)> {
        self.find_hashed(key, mix64(key))
    }

    /// [`find`](Self::find) with `hash == mix64(key)` supplied by the
    /// caller — the partitioned table hashes a key once and spends the top
    /// bits on the owner, the low bits here.
    #[inline(always)]
    pub(crate) fn find_hashed(&self, key: u64, hash: u64) -> Option<(usize, u32)> {
        if key == EMPTY {
            return self.max_key.map(|v| (self.keys.len(), v));
        }
        if self.keys.is_empty() {
            return None;
        }
        let i = self.probe_from(key, hash);
        (self.keys[i] == key).then(|| (i, self.vals[i]))
    }

    /// The key and value in the home slot of `hash` (an empty slot if
    /// nothing is allocated): the one read a batched lookup issues per key
    /// before it examines any of them.
    #[inline(always)]
    pub(crate) fn home(&self, hash: u64) -> (u64, u32) {
        if self.keys.is_empty() {
            return (EMPTY, 0);
        }
        let i = (hash as usize) & self.mask;
        (self.keys[i], self.vals[i])
    }

    /// [`find_hashed`](Self::find_hashed) given what [`home`](Self::home)
    /// read for `hash`: a hit or an empty home slot answers at once, a
    /// collision falls back to the probe loop.
    #[inline(always)]
    pub(crate) fn find_from_home(
        &self,
        key: u64,
        hash: u64,
        (first, val): (u64, u32),
    ) -> Option<(usize, u32)> {
        if key == EMPTY {
            self.max_key.map(|v| (self.keys.len(), v))
        } else if first == key {
            Some(((hash as usize) & self.mask, val))
        } else if first == EMPTY {
            None
        } else {
            self.find_hashed(key, hash)
        }
    }

    /// [`find`](Self::find) for several keys at once. The home slots of all
    /// keys are read before any is examined, so their cache misses overlap
    /// instead of queueing behind each other's probe loops — what a walk
    /// that looks up every neighbour of a k-mer per step is bound by once
    /// the table outgrows the cache.
    #[inline]
    pub fn find_each<const N: usize>(&self, keys: [u64; N]) -> [Option<(usize, u32)>; N] {
        let hashes = keys.map(mix64);
        let homes = hashes.map(|h| self.home(h));
        std::array::from_fn(|j| self.find_from_home(keys[j], hashes[j], homes[j]))
    }

    /// Insert `key → val`, returning the previous value if any.
    pub fn insert(&mut self, key: u64, val: u32) -> Option<u32> {
        if key == EMPTY {
            return self.max_key.replace(val);
        }
        self.ensure_room();
        let i = self.probe(key);
        if self.keys[i] == key {
            Some(std::mem::replace(&mut self.vals[i], val))
        } else {
            self.keys[i] = key;
            self.vals[i] = val;
            self.occupied += 1;
            None
        }
    }

    /// Add `delta` to the count of `key` (insert at `delta` if absent).
    /// Saturates at `u32::MAX` — the Jellyfish counter semantics.
    #[inline]
    pub fn add(&mut self, key: u64, delta: u32) {
        if key == EMPTY {
            let cur = self.max_key.unwrap_or(0);
            self.max_key = Some(cur.saturating_add(delta));
            return;
        }
        self.ensure_room();
        let i = self.probe(key);
        if self.keys[i] == key {
            self.vals[i] = self.vals[i].saturating_add(delta);
        } else {
            self.keys[i] = key;
            self.vals[i] = delta;
            self.occupied += 1;
        }
    }

    /// Value of `key`, inserting `val` first if absent. Returns the value
    /// now stored — the "first claim wins" primitive.
    #[inline]
    pub fn get_or_insert(&mut self, key: u64, val: u32) -> u32 {
        if key == EMPTY {
            return *self.max_key.get_or_insert(val);
        }
        self.ensure_room();
        let i = self.probe(key);
        if self.keys[i] == key {
            self.vals[i]
        } else {
            self.keys[i] = key;
            self.vals[i] = val;
            self.occupied += 1;
            val
        }
    }

    /// Keep the minimum of the stored value and `val` (insert if absent) —
    /// first-claim component ids as an order-independent rule: whatever
    /// order the claims arrive in, the smallest id keeps the k-mer.
    pub fn update_min(&mut self, key: u64, val: u32) {
        if key == EMPTY {
            let cur = self.max_key.unwrap_or(u32::MAX);
            self.max_key = Some(cur.min(val));
            return;
        }
        self.ensure_room();
        let i = self.probe(key);
        if self.keys[i] == key {
            if val < self.vals[i] {
                self.vals[i] = val;
            }
        } else {
            self.keys[i] = key;
            self.vals[i] = val;
            self.occupied += 1;
        }
    }

    /// Iterate `(packed key, value)` in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.iter_slots().map(|(_, k, v)| (k, v))
    }

    /// Iterate `(slot, packed key, value)` in slot order — each entry with
    /// the slot [`find`](Self::find) reports for its key.
    pub fn iter_slots(&self) -> impl Iterator<Item = (usize, u64, u32)> + '_ {
        self.keys
            .iter()
            .zip(&self.vals)
            .enumerate()
            .filter(|(_, (&k, _))| k != EMPTY)
            .map(|(i, (&k, &v))| (i, k, v))
            .chain(self.max_key.map(|v| (self.keys.len(), EMPTY, v)))
    }

    /// Fraction of allocated slots occupied, in `[0, 0.5]` by the load cap
    /// (0 for an unallocated table).
    pub fn load_factor(&self) -> f64 {
        if self.keys.is_empty() {
            0.0
        } else {
            self.occupied as f64 / self.keys.len() as f64
        }
    }

    /// Probe length (displacement from the home slot) of every stored
    /// in-array key, by walking the table once. Probing itself stays
    /// uninstrumented — this reconstructs the exact chain lengths offline,
    /// at zero hot-path cost.
    pub fn probe_lengths(&self) -> impl Iterator<Item = u64> + '_ {
        self.keys.iter().enumerate().filter_map(move |(i, &k)| {
            if k == EMPTY {
                None
            } else {
                let home = (mix64(k) as usize) & self.mask;
                Some((i.wrapping_sub(home) & self.mask) as u64)
            }
        })
    }

    /// Record table health into `registry`: `{prefix}.entries`,
    /// `{prefix}.capacity` and `{prefix}.load_factor` as gauges (snapshot
    /// values — recording twice, e.g. per-batch health checks, must not
    /// accumulate) and `{prefix}.probe_len` as a histogram of per-key
    /// displacements.
    pub fn record_metrics(&self, registry: &obs::MetricsRegistry, prefix: &str) {
        registry
            .gauge(format!("{prefix}.entries"))
            .set(self.len() as f64);
        registry
            .gauge(format!("{prefix}.capacity"))
            .set(self.capacity() as f64);
        registry
            .gauge(format!("{prefix}.load_factor"))
            .set(self.load_factor());
        registry
            .histogram(format!("{prefix}.probe_len"))
            .record_all(self.probe_lengths());
    }

    /// Keep only entries where `pred(key, value)` holds. Rebuilds the
    /// backing array (no tombstones); off-hot-path by design.
    pub fn retain(&mut self, mut pred: impl FnMut(u64, u32) -> bool) {
        if let Some(v) = self.max_key {
            if !pred(EMPTY, v) {
                self.max_key = None;
            }
        }
        let old_keys = std::mem::take(&mut self.keys);
        let old_vals = std::mem::take(&mut self.vals);
        let survivors: Vec<(u64, u32)> = old_keys
            .into_iter()
            .zip(old_vals)
            .filter(|&(k, v)| k != EMPTY && pred(k, v))
            .collect();
        self.occupied = 0;
        self.mask = 0;
        if !survivors.is_empty() {
            self.allocate(Self::capacity_for(survivors.len()));
            for (k, v) in survivors {
                let i = self.probe(k);
                self.keys[i] = k;
                self.vals[i] = v;
                self.occupied += 1;
            }
        }
    }
}

impl FromIterator<(u64, u32)> for PackedKmerTable {
    /// Collect with *insert* (last value wins), not count accumulation.
    fn from_iter<I: IntoIterator<Item = (u64, u32)>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut t = Self::with_capacity(iter.size_hint().0);
        for (k, v) in iter {
            t.insert(k, v);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_replace() {
        let mut t = PackedKmerTable::new();
        assert_eq!(t.get(7), None);
        assert_eq!(t.insert(7, 1), None);
        assert_eq!(t.insert(7, 2), Some(1));
        assert_eq!(t.get(7), Some(2));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn add_accumulates_and_saturates() {
        let mut t = PackedKmerTable::new();
        t.add(9, 3);
        t.add(9, 4);
        assert_eq!(t.get(9), Some(7));
        t.add(9, u32::MAX);
        assert_eq!(t.get(9), Some(u32::MAX));
    }

    #[test]
    fn sentinel_key_is_a_real_key() {
        // u64::MAX packs the all-T 32-mer; it must behave like any key.
        let mut t = PackedKmerTable::new();
        t.add(u64::MAX, 2);
        t.add(u64::MAX, 1);
        assert_eq!(t.get(u64::MAX), Some(3));
        assert_eq!(t.len(), 1);
        assert!(t.iter().any(|(k, v)| k == u64::MAX && v == 3));
        t.retain(|_, v| v > 5);
        assert_eq!(t.get(u64::MAX), None);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut t = PackedKmerTable::new();
        for k in 0..10_000u64 {
            t.add(k.wrapping_mul(0x2545_F491_4F6C_DD1D), 1);
        }
        assert_eq!(t.len(), 10_000);
        for k in 0..10_000u64 {
            assert_eq!(t.get(k.wrapping_mul(0x2545_F491_4F6C_DD1D)), Some(1));
        }
    }

    #[test]
    fn get_or_insert_first_claim() {
        let mut t = PackedKmerTable::new();
        assert_eq!(t.get_or_insert(5, 10), 10);
        assert_eq!(t.get_or_insert(5, 99), 10);
        assert_eq!(t.get(5), Some(10));
    }

    #[test]
    fn update_min_keeps_smallest() {
        let mut t = PackedKmerTable::new();
        t.update_min(4, 8);
        t.update_min(4, 3);
        t.update_min(4, 7);
        assert_eq!(t.get(4), Some(3));
    }

    #[test]
    fn retain_rebuilds() {
        let mut t = PackedKmerTable::new();
        for k in 0..100 {
            t.insert(k, k as u32);
        }
        t.retain(|_, v| v % 2 == 0);
        assert_eq!(t.len(), 50);
        assert_eq!(t.get(3), None);
        assert_eq!(t.get(4), Some(4));
        // Still usable after rebuild.
        t.add(3, 1);
        assert_eq!(t.get(3), Some(1));
    }

    #[test]
    fn iter_covers_all_entries() {
        let mut t = PackedKmerTable::with_capacity(4);
        for k in 0..40 {
            t.insert(k * 3, k as u32);
        }
        let mut got: Vec<_> = t.iter().collect();
        got.sort_unstable();
        let want: Vec<_> = (0..40).map(|k| (k * 3, k as u32)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn from_iter_last_wins() {
        let t: PackedKmerTable = [(1u64, 1u32), (2, 2), (1, 9)].into_iter().collect();
        assert_eq!(t.get(1), Some(9));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn probe_stats_reflect_occupancy() {
        let mut t = PackedKmerTable::new();
        assert_eq!(t.load_factor(), 0.0);
        for k in 0..1000u64 {
            t.insert(k, 0);
        }
        assert!(t.load_factor() > 0.0 && t.load_factor() <= 0.5);
        let lens: Vec<u64> = t.probe_lengths().collect();
        assert_eq!(lens.len(), 1000);
        // Linear probing at <=1/2 load keeps chains short on average.
        let mean = lens.iter().sum::<u64>() as f64 / lens.len() as f64;
        assert!(mean < 2.0, "mean displacement {mean}");
        // Every stored key must be reachable within its recorded length.
        let reg = obs::MetricsRegistry::new();
        t.record_metrics(&reg, "tbl");
        // Snapshot values must not accumulate across repeated recordings.
        t.record_metrics(&reg, "tbl");
        let snap = reg.snapshot();
        assert_eq!(snap.gauge("tbl.entries"), Some(1000.0));
        assert_eq!(snap.gauge("tbl.capacity"), Some(t.capacity() as f64));
        assert_eq!(snap.gauge("tbl.load_factor"), Some(t.load_factor()));
        // The probe-length histogram intentionally accumulates samples.
        assert_eq!(snap.histogram("tbl.probe_len").unwrap().count, 2000);
    }

    #[test]
    fn find_returns_distinct_stable_slots() {
        let mut t = PackedKmerTable::with_capacity(100);
        for k in (0..100u64).chain([u64::MAX]) {
            t.insert(k, k as u32);
        }
        let mut slots: Vec<usize> = (0..100u64)
            .chain([u64::MAX])
            .map(|k| {
                let (slot, v) = t.find(k).unwrap();
                assert_eq!(v, k as u32);
                slot
            })
            .collect();
        assert_eq!(t.find(u64::MAX).unwrap().0, t.capacity());
        slots.sort_unstable();
        slots.dedup();
        assert_eq!(slots.len(), 101);
        assert!(slots.iter().all(|&s| s <= t.capacity()));
        assert_eq!(t.find(1000), None);
        assert_eq!(PackedKmerTable::new().find(u64::MAX), None);
    }

    #[test]
    fn find_each_agrees_with_find() {
        // Dense small keys collide into probe chains; the sentinel key and
        // absent keys take the other two exits.
        let mut t = PackedKmerTable::new();
        assert_eq!(t.find_each([3, u64::MAX]), [None, None]);
        for k in (0..400u64).chain([u64::MAX]) {
            t.insert(k.wrapping_mul(3), k as u32);
        }
        for base in 0..1200u64 {
            let keys = [
                base,
                base + 1,
                u64::MAX,
                base.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ];
            assert_eq!(t.find_each(keys), keys.map(|k| t.find(k)));
        }
    }

    #[test]
    fn empty_table_queries() {
        let t = PackedKmerTable::new();
        assert_eq!(t.get(0), None);
        assert_eq!(t.get(u64::MAX), None);
        assert!(t.is_empty());
        assert_eq!(t.iter().count(), 0);
    }
}
