//! Per-load records stored densely by load tag.
//!
//! Load tags are issued densely and monotonically, so the live set is a
//! sliding window: slot `tag - base` of a ring holds the tag's record,
//! removing a record empties its slot, and empty slots at the front are
//! popped so `base` follows the oldest live tag. Every lookup is index
//! arithmetic — no ordered map on the per-load path — iteration runs in
//! tag order, and memory is bounded by the span from the oldest live tag
//! to the newest. The fabric's in-flight table and the flit tracer's
//! checkpoint pool are both one of these.

use std::collections::VecDeque;

/// Live per-load records indexed by tag.
#[derive(Debug, Clone)]
pub(crate) struct TagRing<V> {
    /// Tag of `slots[0]`.
    base: u64,
    /// One slot per tag from `base` on; `None` once removed.
    slots: VecDeque<Option<V>>,
    /// Occupied slots.
    live: usize,
}

impl<V> Default for TagRing<V> {
    fn default() -> Self {
        TagRing {
            base: 0,
            slots: VecDeque::new(),
            live: 0,
        }
    }
}

impl<V> TagRing<V> {
    /// One past the newest slot: the next tag a dense issuer hands out.
    pub(crate) fn next_tag(&self) -> u64 {
        self.base + self.slots.len() as u64
    }

    fn index(&self, tag: u64) -> Option<usize> {
        usize::try_from(tag.checked_sub(self.base)?).ok()
    }

    /// Installs `tag`'s record, growing the ring as needed (inserting
    /// at [`TagRing::next_tag`] is a push). An empty ring re-bases to
    /// `tag` first, so a late starter never pads from tag zero; a tag
    /// behind the ring's base is ignored.
    pub(crate) fn insert(&mut self, tag: u64, record: V) {
        if self.live == 0 {
            self.slots.clear();
            self.base = tag;
        }
        let Some(idx) = self.index(tag) else {
            return;
        };
        while self.slots.len() <= idx {
            self.slots.push_back(None);
        }
        if self.slots[idx].replace(record).is_none() {
            self.live += 1;
        }
    }

    /// Removes and returns `tag`'s record; `None` for a tag never
    /// inserted or already removed.
    pub(crate) fn remove(&mut self, tag: u64) -> Option<V> {
        let idx = self.index(tag)?;
        let record = self.slots.get_mut(idx)?.take()?;
        self.live -= 1;
        while matches!(self.slots.front(), Some(None)) {
            self.slots.pop_front();
            self.base += 1;
        }
        Some(record)
    }

    /// `tag`'s live record, if any.
    pub(crate) fn get(&self, tag: u64) -> Option<&V> {
        self.slots.get(self.index(tag)?)?.as_ref()
    }

    /// Mutable variant of [`TagRing::get`].
    pub(crate) fn get_mut(&mut self, tag: u64) -> Option<&mut V> {
        let idx = self.index(tag)?;
        self.slots.get_mut(idx)?.as_mut()
    }

    /// Live records.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Whether no record is live.
    pub(crate) fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Drops every record.
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.live = 0;
    }

    /// Live records with their tags, in tag order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        (self.base..)
            .zip(&self.slots)
            .filter_map(|(tag, slot)| slot.as_ref().map(|record| (tag, record)))
    }

    /// Ring footprint in slots (tests pin the recycling).
    #[cfg(test)]
    pub(crate) fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Asserts the ring's structural invariants: the live count matches
    /// the occupied slots, and a non-empty ring starts at a live record.
    #[cfg(feature = "sanitize")]
    pub(crate) fn check(&self) {
        let occupied = self.slots.iter().filter(|s| s.is_some()).count();
        assert_eq!(
            self.live, occupied,
            "sanitize: tag ring counts {} live records in {occupied} occupied slots",
            self.live
        );
        assert!(
            self.slots.front().is_none_or(Option::is_some),
            "sanitize: tag ring front slot {} is empty",
            self.base
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A ring with tags `0..n` issued densely, tag `t` holding `10 t`.
    fn ring_of(n: u64) -> TagRing<u64> {
        let mut r = TagRing::default();
        for t in 0..n {
            assert_eq!(r.next_tag(), t);
            r.insert(t, t * 10);
        }
        r
    }

    fn tags(r: &TagRing<u64>) -> Vec<u64> {
        r.iter().map(|(t, _)| t).collect()
    }

    #[test]
    fn retires_out_of_order() {
        let mut r = ring_of(5);
        assert_eq!(r.remove(3), Some(30));
        assert_eq!(r.remove(1), Some(10));
        assert_eq!(r.remove(4), Some(40));
        assert_eq!(r.len(), 2);
        assert_eq!(tags(&r), vec![0, 2]);
        assert_eq!(r.get(2), Some(&20));
        assert_eq!(r.get(1), None);
        assert_eq!(r.remove(0), Some(0));
        assert_eq!(r.remove(2), Some(20));
        assert!(r.is_empty());
        assert_eq!(r.next_tag(), 5, "removing never rewinds tag issue");
    }

    #[test]
    fn unknown_and_twice_removed_tags_are_none() {
        let mut r = ring_of(3);
        // Never inserted: past the newest tag.
        assert_eq!(r.remove(3), None);
        assert_eq!(r.remove(u64::MAX), None);
        // Removed twice: once from the middle, once from the
        // compacted-away front.
        assert_eq!(r.remove(1), Some(10));
        assert_eq!(r.remove(1), None);
        assert_eq!(r.remove(0), Some(0));
        assert_eq!(r.remove(0), None);
        assert_eq!(r.len(), 1);
        assert_eq!(tags(&r), vec![2]);
    }

    #[test]
    fn iterates_in_tag_order_across_wraparound() {
        let mut r = ring_of(4);
        r.remove(0);
        r.remove(2);
        for t in 4..9 {
            r.insert(t, t * 10);
        }
        r.remove(6);
        assert_eq!(tags(&r), vec![1, 3, 4, 5, 7, 8]);
        let records: Vec<u64> = r.iter().map(|(_, &v)| v).collect();
        assert_eq!(records, vec![10, 30, 40, 50, 70, 80]);
    }

    #[test]
    fn front_compacts_past_removed_slots() {
        let mut r = ring_of(6);
        // A hole behind a live front stays until the front goes.
        r.remove(1);
        r.remove(2);
        assert_eq!((r.base, r.slots()), (0, 6));
        r.remove(0);
        assert_eq!((r.base, r.slots()), (3, 3));
        // Emptying the ring leaves it at the next tag.
        for t in 3..6 {
            r.remove(t);
        }
        assert_eq!((r.base, r.slots(), r.len()), (6, 0, 0));
        assert_eq!(r.next_tag(), 6);
        r.insert(6, 60);
        assert_eq!(tags(&r), vec![6]);
    }

    #[test]
    fn steady_window_keeps_the_ring_bounded() {
        // A window of W records live, removed oldest-first: the ring
        // never spans more than W slots.
        const W: u64 = 8;
        let mut r = ring_of(W);
        for t in W..10_000 {
            assert_eq!(r.remove(t - W), Some((t - W) * 10));
            r.insert(r.next_tag(), t * 10);
            assert!(r.slots() <= W as usize);
        }
        assert_eq!(r.len(), W as usize);
    }

    #[test]
    fn empty_ring_rebases_and_pads_gaps() {
        let mut r = TagRing::default();
        r.insert(1_000_000, 1u64);
        assert_eq!(r.slots(), 1, "an empty ring never pads from tag zero");
        r.insert(1_000_003, 4);
        assert_eq!((r.slots(), r.len()), (4, 2));
        // Behind the base: ignored.
        r.insert(999_999, 0);
        assert_eq!(tags(&r), vec![1_000_000, 1_000_003]);
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.get(1_000_003), None);
    }
}
