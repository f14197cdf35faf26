//! A weight-bounded least-recently-used map: the one eviction policy
//! behind the daemon's reply cache (weight 1 per entry, so its bound is
//! an entry count) and the front-end memo (weight in bytes).
//!
//! The recency order is a doubly linked list threaded through the entry
//! slots, so lookups, inserts and each eviction are O(1). Slots freed by
//! eviction are reused by later inserts.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

/// Marks the ends of the recency list.
const NIL: usize = usize::MAX;

/// A map that keeps the total weight of its entries at or under a
/// capacity by evicting the least recently used ones. Not internally
/// synchronized.
///
/// # Examples
///
/// ```
/// use rlim_service::lru::Lru;
///
/// let mut lru = Lru::new(10);
/// lru.insert("a", 1, 4);
/// lru.insert("b", 2, 4);
/// assert_eq!(lru.get("a"), Some(&1)); // `a` is now the most recent
/// lru.insert("c", 3, 4); // 12 > 10: the least recent, `b`, goes
/// assert_eq!(lru.get("b"), None);
/// assert_eq!((lru.len(), lru.weight(), lru.evictions()), (2, 8, 1));
/// ```
#[derive(Debug)]
pub struct Lru<K, V> {
    /// Key → index into `slots`.
    index: HashMap<K, usize>,
    slots: Vec<Slot<K, V>>,
    /// Slots emptied by eviction, reused before `slots` grows.
    vacant: Vec<usize>,
    /// Most recently used slot (`NIL` when empty).
    newest: usize,
    /// Least recently used slot, the next victim (`NIL` when empty).
    oldest: usize,
    weight: usize,
    capacity: usize,
    evictions: u64,
}

#[derive(Debug)]
struct Slot<K, V> {
    /// `None` while the slot is vacant.
    entry: Option<(K, V)>,
    weight: usize,
    /// The next more recently used slot.
    newer: usize,
    /// The next less recently used slot.
    older: usize,
}

impl<K: Hash + Eq + Clone, V> Lru<K, V> {
    /// An empty map whose entries may weigh `capacity` in total.
    pub fn new(capacity: usize) -> Self {
        Lru {
            index: HashMap::new(),
            slots: Vec::new(),
            vacant: Vec::new(),
            newest: NIL,
            oldest: NIL,
            weight: 0,
            capacity,
            evictions: 0,
        }
    }

    /// The entry for `key`, made the most recently used.
    pub fn get<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let slot = *self.index.get(key)?;
        self.touch(slot);
        self.slots[slot].entry.as_ref().map(|(_, value)| value)
    }

    /// The entry for `key`, recency untouched.
    pub fn peek<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let slot = *self.index.get(key)?;
        self.slots[slot].entry.as_ref().map(|(_, value)| value)
    }

    /// Inserts (or replaces) the entry for `key` as the most recently
    /// used, then evicts least recently used entries until the total
    /// weight fits the capacity. An entry heavier than the whole
    /// capacity is itself evicted.
    pub fn insert(&mut self, key: K, value: V, weight: usize) {
        if let Some(&slot) = self.index.get(&key) {
            self.slots[slot].entry = Some((key, value));
            self.set_weight(slot, weight);
            self.touch(slot);
        } else {
            let entry = Some((key.clone(), value));
            let slot = match self.vacant.pop() {
                Some(slot) => {
                    self.slots[slot].entry = entry;
                    self.slots[slot].weight = 0;
                    slot
                }
                None => {
                    self.slots.push(Slot {
                        entry,
                        weight: 0,
                        newer: NIL,
                        older: NIL,
                    });
                    self.slots.len() - 1
                }
            };
            self.set_weight(slot, weight);
            self.push_newest(slot);
            self.index.insert(key, slot);
        }
        self.shed();
    }

    /// Changes the weight of the entry for `key`, if present, without
    /// touching its recency, then evicts as [`Lru::insert`] does.
    pub fn reweigh<Q>(&mut self, key: &Q, weight: usize)
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        if let Some(&slot) = self.index.get(key) {
            self.set_weight(slot, weight);
            self.shed();
        }
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the map holds no entry.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The total weight of the live entries.
    pub fn weight(&self) -> usize {
        self.weight
    }

    /// The weight the entries may reach before eviction.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries evicted so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    fn set_weight(&mut self, slot: usize, weight: usize) {
        self.weight = self.weight - self.slots[slot].weight + weight;
        self.slots[slot].weight = weight;
    }

    /// Evicts from the least recently used end until the weight fits.
    fn shed(&mut self) {
        while self.weight > self.capacity && self.oldest != NIL {
            let victim = self.oldest;
            self.unlink(victim);
            self.set_weight(victim, 0);
            if let Some((key, _)) = self.slots[victim].entry.take() {
                self.index.remove(&key);
            }
            self.vacant.push(victim);
            self.evictions += 1;
        }
    }

    /// Moves a linked slot to the most recently used end.
    fn touch(&mut self, slot: usize) {
        if self.newest != slot {
            self.unlink(slot);
            self.push_newest(slot);
        }
    }

    fn unlink(&mut self, slot: usize) {
        let Slot { newer, older, .. } = self.slots[slot];
        match newer {
            NIL => self.newest = older,
            n => self.slots[n].older = older,
        }
        match older {
            NIL => self.oldest = newer,
            o => self.slots[o].newer = newer,
        }
    }

    fn push_newest(&mut self, slot: usize) {
        self.slots[slot].newer = NIL;
        self.slots[slot].older = self.newest;
        match self.newest {
            NIL => self.oldest = slot,
            n => self.slots[n].newer = slot,
        }
        self.newest = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_bound_the_total_and_evict_oldest_first() {
        let mut lru = Lru::new(10);
        lru.insert(1, 'a', 3);
        lru.insert(2, 'b', 3);
        lru.insert(3, 'c', 3);
        assert_eq!(lru.get(&1), Some(&'a'));
        // Growing `c` past the bound evicts the least recent entry, `b`.
        lru.reweigh(&3, 6);
        assert_eq!((lru.len(), lru.weight(), lru.evictions()), (2, 9, 1));
        assert_eq!(lru.peek(&2), None);
        // An entry heavier than the capacity does not stay.
        lru.insert(4, 'd', 11);
        assert!(lru.is_empty());
        assert_eq!((lru.weight(), lru.evictions()), (0, 4));
        // Vacant slots are reused.
        lru.insert(5, 'e', 1);
        assert_eq!(lru.slots.len(), 3);
        assert_eq!(lru.get(&5), Some(&'e'));
    }

    #[test]
    fn replacing_an_entry_reweighs_it() {
        let mut lru = Lru::new(4);
        lru.insert("k", 1, 2);
        lru.insert("k", 2, 3);
        assert_eq!((lru.len(), lru.weight(), lru.evictions()), (1, 3, 0));
        assert_eq!(lru.peek("k"), Some(&2));
    }
}
