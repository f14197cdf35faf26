//! Structural-hashing table: open addressing over a cheap 64-bit mix.
//!
//! [`Mig::add_maj`](crate::Mig::add_maj) runs on every node insertion of
//! every rewriting pass (full-graph rebuilds: up to 51 per `rewrite()`
//! call at the paper's effort 5; over the benchmark suite Algorithm 2
//! rebuilds about 1.8 times per call, down from 8.5 before `rewrite()`
//! proved idle passes with a read-only scan), so the strash lookup is the
//! hottest operation in the whole kernel. The
//! `std` `HashMap` it replaces pays SipHash on every probe and cannot hand
//! its allocation to the next pass. This table instead
//!
//! * hashes the sorted `[Signal; 3]` triple with an FxHash-style
//!   multiply-xorshift mix (a handful of ALU ops),
//! * stores only `node index + 1` per slot (4 bytes; `0` = empty) and
//!   re-reads the key from the graph's node array on probe, since a gate's
//!   children *are* its key,
//! * supports [`Strash::clear`], which zeroes the slots but keeps the
//!   allocation, so a table can be reused across pass rebuilds, and
//!   [`Strash::reserve`], which presizes it, so the first rebuild into a
//!   fresh buffer does not double and rehash its way up.
//!
//! Deduplication semantics are exactly those of the `HashMap`: keys are the
//! canonically sorted child triples, compared for full equality (node ids
//! *and* complement attributes) on every probe.

use crate::signal::{NodeId, Signal};

/// Multiplier used by the FxHash family (empirically good avalanche for
/// power-of-two table sizes once finished with a xor-shift).
const FX: u64 = 0x517c_c1b7_2722_0a95;

/// Cheap 64-bit mix of a sorted child triple.
#[inline]
fn mix(key: &[Signal; 3]) -> u64 {
    let lo = key[0].raw() as u64 | ((key[1].raw() as u64) << 32);
    let hi = key[2].raw() as u64;
    let mut h = lo.wrapping_mul(FX);
    h ^= hi.wrapping_mul(FX).rotate_left(32);
    h ^= h >> 29;
    h = h.wrapping_mul(FX);
    h ^ (h >> 32)
}

/// Open-addressing structural-hash table mapping sorted child triples to
/// the gate that owns them. Keys live in the graph's node array; each slot
/// holds the gate id plus a hash tag so that probe chains resolve almost
/// every collision in-slot instead of dereferencing the node array (a
/// random cache miss per step — the dominant probe cost on large graphs,
/// where a rebuild's inserts are nearly all misses walking short chains).
///
/// [`Mig`](crate::Mig) owns one internally; the type is public for
/// callers building their own graph structures over [`Signal`] triples.
///
/// # Examples
///
/// ```
/// use rlim_mig::{NodeId, Signal, Strash};
///
/// // The node array *is* the key store: ids stored in the table index it.
/// let mut nodes: Vec<[Signal; 3]> = vec![[Signal::FALSE; 3]; 3];
/// let key = [
///     Signal::new(NodeId::new(1), false),
///     Signal::new(NodeId::new(2), true),
///     Signal::new(NodeId::new(2), false),
/// ];
/// let mut table = Strash::new();
/// let id = NodeId::new(nodes.len() as u32);
/// assert_eq!(table.insert_or_get(&key, id, &nodes), None); // fresh gate
/// nodes.push(key);
/// assert_eq!(table.get(&key, &nodes), Some(id));           // deduplicated
/// assert_eq!(table.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Strash {
    /// Low 32 bits: `raw node index + 1`, `0` = empty slot. High 32 bits:
    /// the key hash's upper half. Length is always a power of two.
    slots: Vec<u64>,
    len: usize,
}

/// Packs a slot entry from a hash and a node id.
#[inline]
fn entry(hash: u64, id: u32) -> u64 {
    (hash & !0xFFFF_FFFF) | (id as u64 + 1)
}

impl Strash {
    /// An empty table; no allocation until the first insert.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored gates.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Number of gates the table holds before it grows.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len() * 7 / 8
    }

    /// Whether the table stores no gates.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Forgets every entry but keeps the slot allocation, so the table can
    /// be reused by the next graph rebuild without reallocating.
    pub fn clear(&mut self) {
        self.slots.fill(0);
        self.len = 0;
    }

    /// Makes room for `additional` more gates, so that many inserts do
    /// not grow the slot array. Stored entries are rehashed from `nodes`
    /// when the table grows; a table that already has room is left as is.
    pub fn reserve(&mut self, additional: usize, nodes: &[[Signal; 3]]) {
        // Inserts grow the table past 7/8 occupancy (see `insert_or_get`).
        let needed = (self.len + additional) * 8;
        if needed <= self.slots.len() * 7 {
            return;
        }
        let cap = needed.div_ceil(7).next_power_of_two().max(16);
        self.rehash(cap, nodes);
    }

    /// Looks up the gate whose sorted children equal `key`. `nodes` must be
    /// the node array the stored ids point into.
    #[inline]
    pub fn get(&self, key: &[Signal; 3], nodes: &[[Signal; 3]]) -> Option<NodeId> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let hash = mix(key);
        let tag = hash & !0xFFFF_FFFF;
        let mut i = hash as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot == 0 {
                return None;
            }
            if slot & !0xFFFF_FFFF == tag {
                let id = (slot as u32) - 1;
                if &nodes[id as usize] == key {
                    return Some(NodeId::new(id));
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Single-probe lookup-or-insert: returns the existing gate whose
    /// sorted children equal `key`, or claims the chain's empty slot for
    /// `id` and returns `None`. One chain walk serves both outcomes — a
    /// rebuild's inserts are nearly all misses, and a separate
    /// `get`-then-insert would walk every chain twice.
    ///
    /// `id` must be the id the caller will assign if the key is absent
    /// (i.e. the next node index); `nodes` need not contain it yet.
    #[inline]
    pub fn insert_or_get(
        &mut self,
        key: &[Signal; 3],
        id: NodeId,
        nodes: &[[Signal; 3]],
    ) -> Option<NodeId> {
        // Grow at 7/8 occupancy (counting the entry we may add) *before*
        // probing, so the claimed slot survives.
        if (self.len + 1) * 8 > self.slots.len() * 7 {
            self.rehash((self.slots.len() * 2).max(16), nodes);
        }
        let mask = self.slots.len() - 1;
        let hash = mix(key);
        let tag = hash & !0xFFFF_FFFF;
        let mut i = hash as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot == 0 {
                self.slots[i] = entry(hash, id.raw());
                self.len += 1;
                return None;
            }
            if slot & !0xFFFF_FFFF == tag {
                let existing = (slot as u32) - 1;
                if &nodes[existing as usize] == key {
                    return Some(NodeId::new(existing));
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Moves every stored id into a slot array of `new_cap` (a power of
    /// two). The tag is the hash's upper half, so rehashing needs no
    /// access to `nodes` beyond recomputing slot positions — done from the
    /// stored keys.
    fn rehash(&mut self, new_cap: usize, nodes: &[[Signal; 3]]) {
        let old = std::mem::replace(&mut self.slots, vec![0u64; new_cap]);
        let mask = new_cap - 1;
        for slot in old {
            if slot == 0 {
                continue;
            }
            let key = &nodes[(slot as u32 - 1) as usize];
            let mut i = mix(key) as usize & mask;
            while self.slots[i] != 0 {
                i = (i + 1) & mask;
            }
            self.slots[i] = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(idx: u32, c: bool) -> Signal {
        Signal::new(NodeId::new(idx), c)
    }

    #[test]
    fn get_insert_round_trip() {
        let mut nodes: Vec<[Signal; 3]> = vec![[Signal::FALSE; 3]; 4]; // const + 3 inputs
        let mut table = Strash::new();
        let key = [sig(1, false), sig(2, true), sig(3, false)];
        assert_eq!(table.get(&key, &nodes), None);
        let id = NodeId::new(nodes.len() as u32);
        assert_eq!(table.insert_or_get(&key, id, &nodes), None);
        nodes.push(key);
        assert_eq!(table.get(&key, &nodes), Some(id));
        // A second insert of the same key resolves to the existing gate.
        let next = NodeId::new(nodes.len() as u32);
        assert_eq!(table.insert_or_get(&key, next, &nodes), Some(id));
        // A different complement pattern is a different key.
        let other = [sig(1, false), sig(2, false), sig(3, false)];
        assert_eq!(table.get(&other, &nodes), None);
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn grows_past_initial_capacity_and_keeps_all_entries() {
        let mut nodes: Vec<[Signal; 3]> = vec![[Signal::FALSE; 3]; 3];
        let mut table = Strash::new();
        let mut keys = Vec::new();
        for i in 0..1000u32 {
            let key = [sig(1, false), sig(2, i % 2 == 0), sig(3 + i, false)];
            let id = NodeId::new(nodes.len() as u32);
            assert_eq!(table.insert_or_get(&key, id, &nodes), None);
            nodes.push(key);
            keys.push((key, id));
        }
        for (key, id) in &keys {
            assert_eq!(table.get(key, &nodes), Some(*id));
        }
        assert_eq!(table.len(), 1000);
    }

    #[test]
    fn clear_keeps_allocation_and_forgets_entries() {
        let mut nodes: Vec<[Signal; 3]> = vec![[Signal::FALSE; 3]; 2];
        let mut table = Strash::new();
        let key = [sig(0, false), sig(1, true), sig(1, false)];
        let id = NodeId::new(nodes.len() as u32);
        assert_eq!(table.insert_or_get(&key, id, &nodes), None);
        nodes.push(key);
        let cap = table.slots.len();
        table.clear();
        assert_eq!(table.len(), 0);
        assert_eq!(table.slots.len(), cap, "allocation must survive clear()");
        assert_eq!(table.get(&key, &nodes), None);
    }

    #[test]
    fn reserve_presizes_and_keeps_entries() {
        let key = |i: u32| [sig(1, false), sig(2, i & 1 == 0), sig(3 + i, false)];
        let mut nodes: Vec<[Signal; 3]> = vec![[Signal::FALSE; 3]; 3];
        let mut table = Strash::new();
        // Entries stored before a growing reserve must survive its rehash.
        for i in 0..10u32 {
            let id = NodeId::new(nodes.len() as u32);
            assert_eq!(table.insert_or_get(&key(i), id, &nodes), None);
            nodes.push(key(i));
        }
        table.reserve(1000, &nodes);
        let cap = table.slots.len();
        assert!(cap.is_power_of_two());
        for i in 10..1010u32 {
            let id = NodeId::new(nodes.len() as u32);
            assert_eq!(table.insert_or_get(&key(i), id, &nodes), None);
            nodes.push(key(i));
            assert_eq!(table.slots.len(), cap, "insert {i} grew a reserved table");
        }
        for i in 0..1010u32 {
            assert_eq!(table.get(&key(i), &nodes), Some(NodeId::new(3 + i)));
        }
        // A reserve the table already has room for is a no-op.
        table.reserve(0, &nodes);
        table.reserve(cap * 7 / 8 - table.len(), &nodes);
        assert_eq!(table.slots.len(), cap);
        table.clear();
        table.reserve(500, &nodes);
        assert_eq!(table.slots.len(), cap, "a smaller reserve must not shrink");
        // Exactly `n` inserts fit after `reserve(n)`, at every size.
        for n in 1..300u32 {
            let mut nodes: Vec<[Signal; 3]> = vec![[Signal::FALSE; 3]; 3];
            let mut table = Strash::new();
            table.reserve(n as usize, &nodes);
            let cap = table.slots.len();
            for i in 0..n {
                let id = NodeId::new(nodes.len() as u32);
                table.insert_or_get(&key(i), id, &nodes);
                nodes.push(key(i));
            }
            assert_eq!(table.slots.len(), cap, "{n} inserts grew the table");
        }
        // The smallest table is the one the first insert would allocate.
        let mut empty = Strash::new();
        empty.reserve(1, &[]);
        assert_eq!(empty.slots.len(), 16);
    }

    #[test]
    fn mix_spreads_adjacent_keys() {
        // Not a statistical test — just a guard against a degenerate mix
        // (e.g. ignoring one of the three signals).
        let base = [sig(10, false), sig(20, false), sig(30, false)];
        let mut seen = std::collections::HashSet::new();
        for i in 0..3 {
            for c in [false, true] {
                let mut k = base;
                k[i] = k[i].with_complement(c);
                seen.insert(mix(&k));
            }
        }
        assert_eq!(seen.len(), 4, "complement flips must change the hash");
        let shifted = [sig(11, false), sig(20, false), sig(30, false)];
        assert_ne!(mix(&base), mix(&shifted));
    }
}
