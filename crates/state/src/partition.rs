//! A partition fragment: hash index + log + epoch boundary.
//!
//! Every node holds one `Partition` object per SSB partition: the one it
//! leads (its *primary* partition, where deltas from helpers are merged and
//! windows trigger) and a *fragment* of every remote partition (where its
//! own eager updates accumulate between epochs).

use crate::combiner::WriteCombiner;
use crate::descriptor::{StateDescriptor, ValueKind};
use crate::entry::{EntryHeader, EntryKind, NO_PREV};
use crate::hash::{hash_key, unpack_key, StateKey};
use crate::index::HashIndex;
use crate::log::Lss;

/// The window id (high half) of a state key.
#[inline]
fn window_of(key: StateKey) -> u64 {
    unpack_key(key).0
}

/// Operation counters (feed the micro-architecture proxies of §8.3).
#[derive(Debug, Default, Clone, Copy)]
pub struct PartitionStats {
    /// In-place read-modify-writes served.
    pub rmw_hits: u64,
    /// RMWs that created a fresh key (zero-value insert).
    pub rmw_inserts: u64,
    /// Elements appended to holistic state.
    pub appends: u64,
    /// Entries merged in from helper deltas.
    pub merged_entries: u64,
    /// Epochs closed on this fragment.
    pub epochs: u64,
}

/// A drained key's value, lent to the [`Partition::drain_ready`] callback
/// for the duration of one call.
pub enum DrainedValue<'a> {
    /// Fixed-size CRDT state (aggregations).
    Fixed(&'a [u8]),
    /// Holistic state: the key's elements, newest first (joins).
    Elements(Elements<'a>),
}

/// Newest-first iterator over the elements of one holistic key's chain.
#[derive(Clone)]
pub struct Elements<'a> {
    log: &'a Lss,
    /// Address of the next element, or [`NO_PREV`] once exhausted.
    next: u64,
    epoch_begin: u64,
}

impl<'a> Iterator for Elements<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        if self.next == NO_PREV {
            return None;
        }
        let (h, value) = self.log.entry(self.next);
        self.next = if h.prev < self.epoch_begin { NO_PREV } else { h.prev };
        Some(value)
    }
}

/// One partition's local storage on one node.
pub struct Partition {
    /// Partition id within the SSB.
    pub id: usize,
    index: HashIndex,
    log: Lss,
    /// Entries below this address are read-only/invalidated (shipped).
    epoch_begin: u64,
    /// Epoch counter, versioning the fragment's content (§7.2.2 step ①).
    epoch: u64,
    /// Lower bound on the window id of every live key (`u64::MAX` when
    /// the index is empty): lowered by every log append, reset by
    /// `close_epoch`, set exactly by `drain_ready`.
    min_window: u64,
    desc: StateDescriptor,
    /// Operation counters.
    pub stats: PartitionStats,
}

impl Partition {
    /// Create an empty partition fragment.
    pub fn new(id: usize, desc: StateDescriptor) -> Self {
        Partition {
            id,
            index: HashIndex::new(),
            log: Lss::new(),
            epoch_begin: 0,
            epoch: 0,
            min_window: u64::MAX,
            desc,
            stats: PartitionStats::default(),
        }
    }

    /// Test/bench constructor with a custom segment size.
    pub fn with_segment_size(id: usize, desc: StateDescriptor, seg: usize) -> Self {
        Partition {
            id,
            index: HashIndex::new(),
            log: Lss::with_segment_size(seg),
            epoch_begin: 0,
            epoch: 0,
            min_window: u64::MAX,
            desc,
            stats: PartitionStats::default(),
        }
    }

    /// The state descriptor.
    pub fn descriptor(&self) -> &StateDescriptor {
        &self.desc
    }

    /// Current epoch number.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of distinct live keys.
    pub fn key_count(&self) -> usize {
        self.index.len()
    }

    /// A lower bound on the window id of every live key; `u64::MAX` when
    /// no key is live. Never above the true minimum, so a trigger whose
    /// readiness is monotone in the window id may skip the partition
    /// whenever this bound is not ready.
    pub fn min_window(&self) -> u64 {
        self.min_window
    }

    /// Resident log bytes (capacity planning / adaptive sizing stats).
    pub fn resident_bytes(&self) -> usize {
        self.log.resident_bytes()
    }

    fn find(&self, key: StateKey) -> Option<u64> {
        let log = &self.log;
        self.index.find(hash_key(key), |addr| log.key_at(addr) == key)
    }

    /// Read-modify-write of fixed-size state: the hot path of every
    /// non-holistic windowed aggregation. `update` sees the current value
    /// (CRDT zero for fresh keys) and mutates it in place.
    pub fn rmw(&mut self, key: StateKey, update: impl FnOnce(&mut [u8])) {
        debug_assert!(
            matches!(self.desc.kind, ValueKind::Fixed { .. }),
            "rmw on appended state"
        );
        if let Some(addr) = self.find(key) {
            debug_assert!(
                addr >= self.epoch_begin,
                "index points into the invalidated region"
            );
            update(self.log.value_mut(addr));
            self.stats.rmw_hits += 1;
        } else {
            let size = self.desc.fixed_size();
            let mut buf = vec![0u8; size];
            (self.desc.init)(&mut buf);
            update(&mut buf);
            self.insert_fresh(key, EntryKind::Fixed, &buf);
            self.stats.rmw_inserts += 1;
        }
    }

    /// Append one element to holistic state (hash-join build, §5.2).
    pub fn append(&mut self, key: StateKey, elem: &[u8]) {
        debug_assert!(self.desc.is_appended(), "append on fixed state");
        let prev = self.find(key).unwrap_or(NO_PREV);
        let addr = self.log.append(key, prev, EntryKind::Appended, elem);
        self.min_window = self.min_window.min(window_of(key));
        let log = &self.log;
        self.index.upsert(
            hash_key(key),
            addr,
            |a| log.key_at(a) == key,
            |a| hash_key(log.key_at(a)),
        );
        self.stats.appends += 1;
    }

    fn insert_fresh(&mut self, key: StateKey, kind: EntryKind, value: &[u8]) {
        self.insert_fresh_hashed(key, hash_key(key), kind, value);
    }

    fn insert_fresh_hashed(&mut self, key: StateKey, hash: u64, kind: EntryKind, value: &[u8]) {
        let addr = self.log.append(key, NO_PREV, kind, value);
        self.min_window = self.min_window.min(window_of(key));
        let log = &self.log;
        self.index.upsert(
            hash,
            addr,
            |a| log.key_at(a) == key,
            |a| hash_key(log.key_at(a)),
        );
    }

    /// Merge a batch of *distinct-key* partial values — the entries of a
    /// [`WriteCombiner`] selected by `sel` — into fixed-size state in one
    /// pass: a single batched index probe resolves every key, hits merge in
    /// place with the descriptor's CRDT merge, and misses insert the
    /// partial directly (merge with the zero value is the identity). The
    /// combiner's memoized hashes are reused for both probe and insert, so
    /// `hash_key` runs once per distinct key per batch, not once per
    /// record.
    pub fn merge_batch(&mut self, comb: &WriteCombiner, sel: &[u32]) {
        debug_assert!(
            matches!(self.desc.kind, ValueKind::Fixed { .. }),
            "merge_batch on appended state"
        );
        let mut hashes: Vec<u64> = Vec::with_capacity(sel.len());
        for &i in sel {
            hashes.push(comb.entry(i as usize).1);
        }
        let mut found: Vec<Option<u64>> = Vec::new();
        let log = &self.log;
        self.index.find_batch(&hashes, &mut found, |j, addr| {
            log.key_at(addr) == comb.entry(sel[j] as usize).0
        });
        let merge = self.desc.merge;
        for (j, &i) in sel.iter().enumerate() {
            let (key, hash, partial) = comb.entry(i as usize);
            match found[j] {
                Some(addr) => {
                    debug_assert!(
                        addr >= self.epoch_begin,
                        "index points into the invalidated region"
                    );
                    merge(self.log.value_mut(addr), partial);
                    self.stats.rmw_hits += 1;
                }
                None => {
                    self.insert_fresh_hashed(key, hash, EntryKind::Fixed, partial);
                    self.stats.rmw_inserts += 1;
                }
            }
        }
    }

    /// Append a batch of holistic elements in record order with one index
    /// probe and one upsert per *distinct* key. `keys[i]`'s element is
    /// `elems[i*stride..(i+1)*stride]`. Produces byte-identical log
    /// content, chain structure, and index population order to per-record
    /// [`Self::append`]: heads are memoized per batch, entries append in
    /// arrival order, and distinct keys enter the index in first-occurrence
    /// order. Returns the number of distinct keys the batch touched.
    pub fn append_batch(&mut self, keys: &[StateKey], elems: &[u8], stride: usize) -> u64 {
        debug_assert!(self.desc.is_appended(), "append_batch on fixed state");
        debug_assert_eq!(keys.len() * stride, elems.len());
        // Distinct keys in first-occurrence order, with memoized hashes.
        // Deduped through a throwaway open-addressing table over the
        // index's own `hash_key` — the hash is needed for the probe below
        // anyway, and a `std` `HashMap` would rehash every key with
        // SipHash per batch.
        let cap = (keys.len() * 2).next_power_of_two().max(8);
        let mask = cap - 1;
        let mut table: Vec<u32> = vec![u32::MAX; cap];
        let mut distinct: Vec<(StateKey, u64)> = Vec::new();
        let mut which: Vec<u32> = Vec::with_capacity(keys.len());
        for &key in keys {
            let h = hash_key(key);
            let mut pos = (h as usize) & mask;
            let d = loop {
                let slot = table[pos];
                if slot == u32::MAX {
                    let d = distinct.len() as u32;
                    distinct.push((key, h));
                    table[pos] = d;
                    break d;
                }
                if distinct[slot as usize].0 == key {
                    break slot;
                }
                pos = (pos + 1) & mask;
            };
            which.push(d);
        }
        // One batched probe resolves every distinct key's current head.
        let hashes: Vec<u64> = distinct.iter().map(|&(_, h)| h).collect();
        let mut heads: Vec<Option<u64>> = Vec::new();
        let log = &self.log;
        self.index.find_batch(&hashes, &mut heads, |j, addr| {
            log.key_at(addr) == distinct[j].0
        });
        // Append in record order, chaining through the memoized heads.
        for (i, &key) in keys.iter().enumerate() {
            let d = which[i] as usize;
            let prev = heads[d].unwrap_or(NO_PREV);
            let addr = self
                .log
                .append(key, prev, EntryKind::Appended, &elems[i * stride..(i + 1) * stride]);
            heads[d] = Some(addr);
            self.stats.appends += 1;
        }
        // One upsert per distinct key, in first-occurrence order — the
        // same index insertion sequence the per-record path produces.
        for (d, &(key, hash)) in distinct.iter().enumerate() {
            self.min_window = self.min_window.min(window_of(key));
            if let Some(addr) = heads[d] {
                let log = &self.log;
                self.index.upsert(
                    hash,
                    addr,
                    |a| log.key_at(a) == key,
                    |a| hash_key(log.key_at(a)),
                );
            }
        }
        distinct.len() as u64
    }

    /// Merge a value into fixed-size state with the descriptor's CRDT
    /// merge (leader-side delta replay).
    pub fn merge_fixed(&mut self, key: StateKey, src: &[u8]) {
        let merge = self.desc.merge;
        self.rmw(key, |dst| merge(dst, src));
        self.stats.merged_entries += 1;
    }

    /// Read fixed-size state.
    pub fn get(&self, key: StateKey) -> Option<&[u8]> {
        self.find(key).map(|addr| self.log.value(addr))
    }

    /// Visit every element of a holistic key's chain (newest first).
    pub fn for_each_element(&self, key: StateKey, f: impl FnMut(&[u8])) {
        Elements {
            log: &self.log,
            next: self.find(key).unwrap_or(NO_PREV),
            epoch_begin: self.epoch_begin,
        }
        .for_each(f);
    }

    /// Number of elements in a holistic key's chain.
    pub fn element_count(&self, key: StateKey) -> usize {
        let mut n = 0;
        self.for_each_element(key, |_| n += 1);
        n
    }

    /// Visit every live key with the address of its newest entry.
    pub fn for_each_key(&self, mut f: impl FnMut(StateKey, u64)) {
        let log = &self.log;
        self.index.for_each(|addr| f(log.key_at(addr), addr));
    }

    /// Close the current epoch (§7.2.2 steps ①–④ minus the wire transfer):
    /// visit every entry written since the previous boundary — the delta —
    /// then invalidate the shipped region so future RMWs restart from the
    /// CRDT zero value, and reclaim its memory. Returns the epoch number
    /// that was closed.
    pub fn close_epoch(&mut self, mut visit: impl FnMut(&EntryHeader, &[u8])) -> u64 {
        let closed = self.epoch;
        self.log
            .for_each_in(self.epoch_begin, self.log.tail(), |_, h, v| visit(h, v));
        // Invalidate: every index entry points into [epoch_begin, tail)
        // (older regions were invalidated by previous epochs), so the whole
        // index goes; all log entries die and sealed segments are freed.
        self.index.clear();
        self.log.kill_all();
        self.log.reclaim();
        self.min_window = u64::MAX;
        self.epoch_begin = self.log.tail();
        self.epoch += 1;
        self.stats.epochs += 1;
        closed
    }

    /// Fast-forward the epoch counter to at least `epoch` (crash recovery).
    ///
    /// A promoted replacement node restarts with fresh fragments but must
    /// not reuse epoch ids its predecessor already shipped: receivers
    /// deduplicate replayed epochs by id, so a reused id would be silently
    /// discarded. Called once after restore, before any new epoch closes.
    pub fn resume_at_epoch(&mut self, epoch: u64) {
        if epoch > self.epoch {
            self.epoch = epoch;
        }
    }

    /// Whether this fragment has accumulated updates in the open epoch.
    pub fn is_dirty(&self) -> bool {
        self.log.tail() > self.epoch_begin
    }

    /// Size in bytes of the open epoch's delta.
    pub fn dirty_bytes(&self) -> u64 {
        self.log.tail() - self.epoch_begin
    }

    /// Remove a key and mark its entries dead (window GC after trigger).
    pub fn remove(&mut self, key: StateKey) -> bool {
        let log = &self.log;
        let removed = self
            .index
            .remove(hash_key(key), |a| log.key_at(a) == key);
        match removed {
            Some(addr) => {
                kill_chain(&mut self.log, addr, self.epoch_begin);
                self.log.reclaim();
                true
            }
            None => false,
        }
    }

    /// Drain every key whose window id satisfies `ready`, in one pass over
    /// the index: `f` is lent each drained key with its value, then the
    /// key leaves the index, its chain dies, and the log reclaims once at
    /// the end. Keys are visited in [`Self::for_each_key`] order, so a
    /// drain emits exactly what listing the ready keys and then
    /// `get`/`for_each_element` + `remove` on each would, in the same
    /// order, leaving the same index and log behind. Afterwards
    /// [`Self::min_window`] is the exact minimum over the keys kept, for
    /// any `ready`, monotone or not. Returns the number of keys drained.
    pub fn drain_ready(
        &mut self,
        ready: impl Fn(u64) -> bool,
        mut f: impl FnMut(StateKey, DrainedValue<'_>),
    ) -> usize {
        let appended = self.desc.is_appended();
        let epoch_begin = self.epoch_begin;
        let log = &mut self.log;
        let mut min_kept = u64::MAX;
        let drained = self.index.retain(|addr| {
            let (h, value) = log.entry(addr);
            let wid = window_of(h.key);
            if !ready(wid) {
                min_kept = min_kept.min(wid);
                return true;
            }
            let value = if appended {
                DrainedValue::Elements(Elements {
                    log: &*log,
                    next: addr,
                    epoch_begin,
                })
            } else {
                DrainedValue::Fixed(value)
            };
            f(h.key, value);
            kill_chain(log, addr, epoch_begin);
            false
        });
        self.min_window = min_kept;
        self.log.reclaim();
        drained
    }
}

/// Mark every entry of the chain whose newest entry is at `head` dead.
fn kill_chain(log: &mut Lss, head: u64, epoch_begin: u64) {
    let mut addr = head;
    loop {
        let prev = log.header(addr).prev;
        log.note_dead(addr);
        if prev == NO_PREV || prev < epoch_begin {
            break;
        }
        addr = prev;
    }
}

impl std::fmt::Debug for Partition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Partition")
            .field("id", &self.id)
            .field("epoch", &self.epoch)
            .field("keys", &self.index.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crdts::CounterCrdt;
    use crate::descriptor::appended_descriptor;

    fn counter_part() -> Partition {
        Partition::with_segment_size(0, CounterCrdt::descriptor(), 256)
    }

    #[test]
    fn rmw_creates_then_updates_in_place() {
        let mut p = counter_part();
        p.rmw(5, |v| CounterCrdt::add(v, 3));
        p.rmw(5, |v| CounterCrdt::add(v, 4));
        assert_eq!(p.get(5).map(CounterCrdt::get), Some(7));
        assert_eq!(p.stats.rmw_inserts, 1);
        assert_eq!(p.stats.rmw_hits, 1);
        assert_eq!(p.key_count(), 1);
    }

    #[test]
    fn many_keys_roundtrip() {
        let mut p = counter_part();
        for k in 0..5000u128 {
            p.rmw(k, |v| CounterCrdt::add(v, k as u64));
        }
        for k in (0..5000u128).rev() {
            assert_eq!(p.get(k).map(CounterCrdt::get), Some(k as u64), "key {k}");
        }
        assert_eq!(p.get(5001), None);
    }

    #[test]
    fn close_epoch_ships_delta_and_resets_state() {
        let mut p = counter_part();
        p.rmw(1, |v| CounterCrdt::add(v, 10));
        p.rmw(2, |v| CounterCrdt::add(v, 20));
        assert!(p.is_dirty());

        let mut shipped = Vec::new();
        let closed = p.close_epoch(|h, v| shipped.push((h.key, CounterCrdt::get(v))));
        assert_eq!(closed, 0);
        assert_eq!(p.epoch(), 1);
        shipped.sort();
        assert_eq!(shipped, vec![(1, 10), (2, 20)]);

        // Post-epoch: RMWs restart from the CRDT zero value (paper §7.2.2:
        // "discarding transferred content is safe, as RMW operations
        // restart from a zero value").
        assert!(!p.is_dirty());
        assert_eq!(p.get(1), None);
        p.rmw(1, |v| CounterCrdt::add(v, 5));
        assert_eq!(p.get(1).map(CounterCrdt::get), Some(5));

        let mut shipped2 = Vec::new();
        p.close_epoch(|h, v| shipped2.push((h.key, CounterCrdt::get(v))));
        assert_eq!(shipped2, vec![(1, 5)], "only the new delta ships");
    }

    #[test]
    fn close_epoch_reclaims_memory() {
        let mut p = counter_part();
        for k in 0..1000u128 {
            p.rmw(k, |v| CounterCrdt::add(v, 1));
        }
        let resident_before = p.resident_bytes();
        p.close_epoch(|_, _| {});
        assert!(
            p.resident_bytes() < resident_before / 2,
            "epoch close must free shipped segments: {} -> {}",
            resident_before,
            p.resident_bytes()
        );
    }

    #[test]
    fn append_chains_and_iterates_newest_first() {
        let mut p = Partition::with_segment_size(0, appended_descriptor(), 512);
        p.append(9, b"one");
        p.append(9, b"two");
        p.append(9, b"three");
        p.append(8, b"other");
        let mut got = Vec::new();
        p.for_each_element(9, |e| got.push(e.to_vec()));
        assert_eq!(got, vec![b"three".to_vec(), b"two".to_vec(), b"one".to_vec()]);
        assert_eq!(p.element_count(9), 3);
        assert_eq!(p.element_count(8), 1);
        assert_eq!(p.element_count(7), 0);
    }

    #[test]
    fn appended_delta_ships_every_element() {
        let mut p = Partition::with_segment_size(0, appended_descriptor(), 512);
        p.append(1, b"a");
        p.append(1, b"b");
        p.append(2, b"c");
        let mut shipped = Vec::new();
        p.close_epoch(|h, v| shipped.push((h.key, v.to_vec())));
        assert_eq!(shipped.len(), 3);
        assert!(shipped.contains(&(1, b"a".to_vec())));
        assert!(shipped.contains(&(1, b"b".to_vec())));
        assert!(shipped.contains(&(2, b"c".to_vec())));
        // Chains restart cleanly after invalidation.
        p.append(1, b"d");
        assert_eq!(p.element_count(1), 1);
    }

    #[test]
    fn merge_fixed_applies_crdt_merge() {
        let mut p = counter_part();
        p.rmw(1, |v| CounterCrdt::add(v, 10));
        p.merge_fixed(1, &32u64.to_le_bytes());
        assert_eq!(p.get(1).map(CounterCrdt::get), Some(42));
        p.merge_fixed(2, &7u64.to_le_bytes());
        assert_eq!(p.get(2).map(CounterCrdt::get), Some(7));
    }

    #[test]
    fn remove_frees_key_and_chain() {
        let mut p = Partition::with_segment_size(0, appended_descriptor(), 256);
        for i in 0..20u64 {
            p.append(1, &i.to_le_bytes());
        }
        p.append(2, b"keep");
        assert!(p.remove(1));
        assert!(!p.remove(1));
        assert_eq!(p.element_count(1), 0);
        assert_eq!(p.element_count(2), 1);
        assert_eq!(p.key_count(), 1);
    }

    #[test]
    fn merge_batch_is_bit_identical_to_per_record_rmw() {
        let mut batched = counter_part();
        let mut serial = counter_part();
        let records: Vec<u128> = (0..400u128).map(|i| i * i % 37).collect();

        // Per-record path.
        for &k in &records {
            serial.rmw(k, |v| CounterCrdt::add(v, 2));
        }
        // Combined path: fold the whole "batch", flush once.
        let mut comb = WriteCombiner::new(CounterCrdt::descriptor(), 64);
        for &k in &records {
            assert!(comb.fold(k, |v| CounterCrdt::add(v, 2)));
        }
        let sel: Vec<u32> = (0..comb.len() as u32).collect();
        batched.merge_batch(&comb, &sel);

        assert_eq!(batched.key_count(), serial.key_count());
        for &k in &records {
            assert_eq!(batched.get(k), serial.get(k), "key {k}");
        }
        // A second flush must hit (in-place merge), not duplicate.
        let mut comb2 = WriteCombiner::new(CounterCrdt::descriptor(), 64);
        for &k in &records {
            assert!(comb2.fold(k, |v| CounterCrdt::add(v, 1)));
        }
        batched.merge_batch(&comb2, &sel);
        for &k in &records {
            serial.rmw(k, |v| CounterCrdt::add(v, 1));
        }
        for &k in &records {
            assert_eq!(batched.get(k), serial.get(k));
        }
        assert_eq!(batched.stats.rmw_inserts, serial.stats.rmw_inserts);
    }

    #[test]
    fn append_batch_matches_per_record_append() {
        let mut batched = Partition::with_segment_size(0, appended_descriptor(), 512);
        let mut serial = Partition::with_segment_size(0, appended_descriptor(), 512);
        let keys: Vec<StateKey> = vec![9, 8, 9, 9, 7, 8, 9];
        let stride = 4usize;
        let mut elems = Vec::new();
        for (i, &k) in keys.iter().enumerate() {
            let e = [(i as u8), k as u8, 0xAB, 0xCD];
            elems.extend_from_slice(&e);
            serial.append(k, &e);
        }
        batched.append_batch(&keys, &elems, stride);

        assert_eq!(batched.key_count(), serial.key_count());
        assert_eq!(batched.stats.appends, serial.stats.appends);
        for k in [7u128, 8, 9] {
            let mut a = Vec::new();
            let mut b = Vec::new();
            batched.for_each_element(k, |e| a.push(e.to_vec()));
            serial.for_each_element(k, |e| b.push(e.to_vec()));
            assert_eq!(a, b, "chain for key {k} diverged");
        }
        // Deltas ship identically too.
        let mut da = Vec::new();
        let mut db = Vec::new();
        batched.close_epoch(|h, v| da.push((h.key, v.to_vec())));
        serial.close_epoch(|h, v| db.push((h.key, v.to_vec())));
        assert_eq!(da, db);
    }

    #[test]
    fn for_each_key_visits_live_keys() {
        let mut p = counter_part();
        for k in 0..10u128 {
            p.rmw(k, |v| CounterCrdt::add(v, 1));
        }
        p.remove(3);
        let mut keys = Vec::new();
        p.for_each_key(|k, _| keys.push(k));
        keys.sort();
        let expect: Vec<u128> = (0..10).filter(|&k| k != 3).collect();
        assert_eq!(keys, expect);
    }
}
