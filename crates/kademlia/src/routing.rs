//! The Kademlia routing table: 160 `k`-buckets ordered by XOR distance.
//!
//! Bucket `i` holds contacts whose distance to the local id has its highest
//! bit at position `i` (i.e. shares an `i`-bit prefix). Buckets keep
//! **least-recently-seen order**: fresh contacts go to the tail, re-seen
//! contacts move to the tail, and eviction prefers the stale head.
//!
//! Eviction policy: the original paper pings the least-recently-seen contact
//! before dropping it. The node layer implements exactly that — an RPC
//! timeout or a full bucket does not evict outright; the suspect is probed
//! with a `PING` and only a failed probe removes it. The table itself stays
//! probe-agnostic: it additionally keeps the common *replacement cache* —
//! a full bucket stashes newcomers in a side cache and promotes them when a
//! resident contact is evicted — so a confirmed-dead resident is replaced
//! without losing the newcomer that exposed it.
//!
//! ## Bucket order relative to a target
//!
//! Let `x = local ⊕ target`. A contact `c` in bucket `i` agrees with the
//! local id on bits `0..i` and differs at bit `i`, so `c ⊕ target` agrees
//! with `x` on bits `0..i` and has bit `i` equal to `1 - x[i]`. Comparing
//! two contacts from buckets `i < j` therefore comes down to bit `i`: the
//! bucket-`i` contact is closer to `target` exactly when `x[i] = 1`. The
//! buckets sorted by distance to `target` are thus the indices with a set
//! bit in `x`, ascending, followed by the indices with a clear bit,
//! descending — and every contact of an earlier bucket is strictly closer
//! than every contact of a later one. [`RoutingTable::closest`] walks that
//! order, sorts only the buckets it visits and stops after `n` contacts;
//! [`RoutingTable::count_closer_than_local`] is the same identity read as
//! a count (a contact is closer to `target` than the local node exactly
//! when its bucket's bit of `x` is set).
//!
//! Both walks stop at the high-water mark `occupied`: one past the deepest
//! bucket that has ever held a live contact. It only grows. Evictions can
//! empty a bucket below the mark, which the walks simply pass over, but
//! shrinking it would have to find the new deepest live bucket on every
//! eviction, and a replacement-cache promotion can refill any bucket below
//! it. Every bucket at or beyond the mark is empty, so bounding a walk by
//! it never skips a contact; with 128 nodes it is about 8 rather than 160.

use dharma_types::{Distance, Id160, ID160_BITS};

use crate::messages::Contact;

/// Maximum contacts kept in a bucket's replacement cache.
const REPLACEMENT_CACHE: usize = 8;

/// What [`RoutingTable::note_contact`] did with a contact.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NoteOutcome {
    /// The contact entered a bucket for the first time — a *new* live
    /// neighbor (the node layer's join-handoff trigger).
    Inserted,
    /// The contact was already live; its recency/address were refreshed.
    Refreshed,
    /// The bucket was full; the contact went to the replacement cache.
    Stashed,
    /// The contact was the local id and was ignored.
    Ignored,
}

/// One `k`-bucket with its replacement cache.
#[derive(Clone, Debug, Default)]
pub struct KBucket {
    /// Live contacts, least-recently-seen first.
    entries: Vec<Contact>,
    /// Standby contacts waiting for a slot.
    replacements: Vec<Contact>,
}

impl KBucket {
    /// Live contacts, LRS first.
    pub fn contacts(&self) -> &[Contact] {
        &self.entries
    }

    /// Number of live contacts.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the bucket holds no live contacts.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Records activity from `c`.
    fn note(&mut self, c: Contact, k: usize) -> NoteOutcome {
        if let Some(pos) = self.entries.iter().position(|e| e.id == c.id) {
            // Re-seen: refresh address and move to most-recent position.
            let mut e = self.entries.remove(pos);
            e.addr = c.addr;
            self.entries.push(e);
            return NoteOutcome::Refreshed;
        }
        if self.entries.len() < k {
            self.entries.push(c);
            return NoteOutcome::Inserted;
        }
        // Full: stash in the replacement cache (newest kept last).
        self.stash(c);
        NoteOutcome::Stashed
    }

    /// Like [`KBucket::note`], but with **proximity neighbor selection**:
    /// when the bucket is full and the newcomer's measured RTT is strictly
    /// lower than the worst measured resident's, that resident is demoted
    /// to the replacement cache and the newcomer takes its slot. Residents
    /// without an estimate are never demoted (unmeasured ≠ slow), and a
    /// newcomer without an estimate is stashed as usual. The second return
    /// reports whether a PNS demotion happened.
    fn note_pns(
        &mut self,
        c: Contact,
        k: usize,
        rtt: &dyn Fn(&Id160) -> Option<u64>,
    ) -> (NoteOutcome, bool) {
        if self.entries.len() >= k && !self.entries.iter().any(|e| e.id == c.id) {
            if let Some(new_rtt) = rtt(&c.id) {
                let worst = self
                    .entries
                    .iter()
                    .enumerate()
                    .filter_map(|(i, e)| rtt(&e.id).map(|r| (i, r)))
                    .max_by_key(|&(_, r)| r);
                if let Some((pos, worst_rtt)) = worst {
                    if new_rtt < worst_rtt {
                        // The newcomer may have been stashed earlier; it
                        // must not live in both lists.
                        if let Some(p) = self.replacements.iter().position(|e| e.id == c.id) {
                            self.replacements.remove(p);
                        }
                        let demoted = self.entries.remove(pos);
                        self.stash(demoted);
                        self.entries.push(c);
                        return (NoteOutcome::Inserted, true);
                    }
                }
            }
        }
        (self.note(c, k), false)
    }

    /// Puts `c` into the replacement cache (newest kept last, deduplicated,
    /// capped at [`REPLACEMENT_CACHE`]).
    fn stash(&mut self, c: Contact) {
        if let Some(pos) = self.replacements.iter().position(|e| e.id == c.id) {
            self.replacements.remove(pos);
        }
        self.replacements.push(c);
        if self.replacements.len() > REPLACEMENT_CACHE {
            self.replacements.remove(0);
        }
    }

    /// Removes a failed contact and promotes the freshest replacement.
    /// Returns true when a *live* entry was evicted (a replacement-cache
    /// removal or unknown id is not a membership event).
    fn fail(&mut self, id: &Id160) -> bool {
        if let Some(pos) = self.entries.iter().position(|e| e.id == *id) {
            self.entries.remove(pos);
            if let Some(promoted) = self.replacements.pop() {
                self.entries.push(promoted);
            }
            true
        } else {
            if let Some(pos) = self.replacements.iter().position(|e| e.id == *id) {
                self.replacements.remove(pos);
            }
            false
        }
    }
}

/// The full routing table.
#[derive(Clone, Debug)]
pub struct RoutingTable {
    local: Id160,
    k: usize,
    buckets: Vec<KBucket>,
    /// One past the deepest bucket that ever held a live contact; every
    /// bucket at or beyond it is empty (see the module docs).
    occupied: usize,
}

impl RoutingTable {
    /// A table for node `local` with bucket capacity `k`.
    pub fn new(local: Id160, k: usize) -> Self {
        RoutingTable {
            local,
            k,
            buckets: vec![KBucket::default(); ID160_BITS],
            occupied: 0,
        }
    }

    /// The local node id.
    pub fn local_id(&self) -> Id160 {
        self.local
    }

    /// Bucket capacity `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Index of the bucket responsible for `id`, or `None` for the local id.
    pub fn bucket_index(&self, id: &Id160) -> Option<usize> {
        self.local.distance(id).bucket_index()
    }

    /// Records activity from a contact (any received message).
    /// Self-contacts are ignored.
    pub fn note_contact(&mut self, c: Contact) -> NoteOutcome {
        match self.bucket_index(&c.id) {
            Some(i) => {
                self.occupied = self.occupied.max(i + 1);
                self.buckets[i].note(c, self.k)
            }
            None => NoteOutcome::Ignored,
        }
    }

    /// Records activity from a contact with **proximity neighbor
    /// selection**: `rtt` supplies the current smoothed RTT estimate for
    /// any id. A full bucket demotes its slowest measured resident to the
    /// replacement cache when the newcomer is measurably faster; in every
    /// other case this behaves exactly like [`RoutingTable::note_contact`].
    /// The second return reports whether a PNS demotion happened.
    pub fn note_contact_pns(
        &mut self,
        c: Contact,
        rtt: &dyn Fn(&Id160) -> Option<u64>,
    ) -> (NoteOutcome, bool) {
        match self.bucket_index(&c.id) {
            Some(i) => {
                self.occupied = self.occupied.max(i + 1);
                self.buckets[i].note_pns(c, self.k, rtt)
            }
            None => (NoteOutcome::Ignored, false),
        }
    }

    /// Records a confirmed failure for `id` (a failed liveness probe, or a
    /// graceful-leave notice), evicting it and promoting
    /// the freshest replacement-cache contact into the freed slot. Returns
    /// true when a live contact was actually evicted — the node layer's
    /// departure signal for the churn estimator (repeat failures of an
    /// already-gone id must not count twice).
    pub fn note_failure(&mut self, id: &Id160) -> bool {
        match self.bucket_index(id) {
            Some(i) => self.buckets[i].fail(id),
            None => false,
        }
    }

    /// True when `id` is a live contact in some bucket.
    pub fn contains(&self, id: &Id160) -> bool {
        self.bucket_index(id)
            .map(|i| self.buckets[i].entries.iter().any(|e| e.id == *id))
            .unwrap_or(false)
    }

    /// The least-recently-seen live contact of the first non-empty bucket
    /// at or after `start` (wrapping) — the probe target of the liveness
    /// maintenance loop — together with its bucket index. `None` when the
    /// table is empty.
    pub fn probe_candidate(&self, start: usize) -> Option<(usize, Contact)> {
        (0..self.buckets.len()).find_map(|off| {
            let i = (start + off) % self.buckets.len();
            self.buckets[i].entries.first().map(|c| (i, c.clone()))
        })
    }

    /// Total live contacts.
    pub fn len(&self) -> usize {
        self.live_buckets().iter().map(KBucket::len).sum()
    }

    /// True when the table knows nobody.
    pub fn is_empty(&self) -> bool {
        self.live_buckets().iter().all(KBucket::is_empty)
    }

    /// The bucket at index `i` (tests and maintenance).
    pub fn bucket(&self, i: usize) -> &KBucket {
        &self.buckets[i]
    }

    /// Iterates every live contact (graceful-leave notices, diagnostics).
    pub fn iter(&self) -> impl Iterator<Item = &Contact> {
        self.live_buckets().iter().flat_map(|b| b.entries.iter())
    }

    /// The buckets below `occupied`; every later bucket is empty.
    fn live_buckets(&self) -> &[KBucket] {
        &self.buckets[..self.occupied]
    }

    /// The `n` known contacts closest to `target`, ascending by XOR
    /// distance. Never includes the local node (it is not a contact).
    /// Visits buckets in distance order (see the module docs) and sorts
    /// only those it visits.
    pub fn closest(&self, target: &Id160, n: usize) -> Vec<Contact> {
        let mut out = Vec::with_capacity(n.min(self.k.saturating_mul(self.occupied)));
        let mut bucket: Vec<((u128, u32), &Contact)> = Vec::new();
        for i in self.buckets_by_distance(target) {
            if out.len() == n {
                break;
            }
            bucket.clear();
            bucket.extend(
                self.buckets[i]
                    .entries
                    .iter()
                    .map(|c| (distance_key(c.id.distance(target)), c)),
            );
            bucket.sort_unstable_by_key(|&(d, _)| d);
            let take = bucket.len().min(n - out.len());
            out.extend(bucket[..take].iter().map(|&(_, c)| c.clone()));
        }
        out
    }

    /// How many live contacts are strictly closer to `target` than the
    /// local node: the total size of the buckets whose bit is set in
    /// `local ⊕ target` (see the module docs).
    pub fn count_closer_than_local(&self, target: &Id160) -> usize {
        let x = self.local.distance(target);
        (0..self.occupied)
            .filter(|&i| x.as_id().bit(i))
            .map(|i| self.buckets[i].len())
            .sum()
    }

    /// Bucket indices below `occupied`, nearest to `target` first.
    fn buckets_by_distance(&self, target: &Id160) -> impl Iterator<Item = usize> {
        let x = *self.local.distance(target).as_id();
        let occupied = self.occupied;
        let set = (0..occupied).filter(move |&i| x.bit(i));
        let clear = (0..occupied).rev().filter(move |&i| !x.bit(i));
        set.chain(clear)
    }

    /// Buckets that contain at least one contact, as `(index, len)` pairs.
    pub fn occupancy(&self) -> Vec<(usize, usize)> {
        self.live_buckets()
            .iter()
            .enumerate()
            .filter(|(_, b)| !b.is_empty())
            .map(|(i, b)| (i, b.len()))
            .collect()
    }
}

/// `d` as its high 128 and low 32 bits: ordered exactly like the
/// [`Distance`], but compared in two integer comparisons rather than a
/// 20-byte lexicographic one.
fn distance_key(d: Distance) -> (u128, u32) {
    let (hi, lo) = d.as_id().as_bytes().split_at(16);
    (
        u128::from_be_bytes(hi.try_into().expect("20-byte id splits 16 + 4")),
        u32::from_be_bytes(lo.try_into().expect("20-byte id splits 16 + 4")),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dharma_types::sha1;

    fn contact(n: u64) -> Contact {
        Contact {
            id: sha1(&n.to_le_bytes()),
            addr: n as u32,
        }
    }

    fn table() -> RoutingTable {
        RoutingTable::new(sha1(b"local"), 4)
    }

    #[test]
    fn notes_and_finds_contacts() {
        let mut rt = table();
        for n in 0..20 {
            rt.note_contact(contact(n));
        }
        assert!(!rt.is_empty());
        let target = sha1(b"target");
        let closest = rt.closest(&target, 5);
        assert_eq!(closest.len(), 5);
        // Ascending distance order.
        for w in closest.windows(2) {
            assert!(w[0].id.distance(&target) <= w[1].id.distance(&target));
        }
    }

    #[test]
    fn self_contact_is_ignored() {
        let mut rt = table();
        let me = Contact {
            id: rt.local_id(),
            addr: 0,
        };
        assert_eq!(rt.note_contact(me), NoteOutcome::Ignored);
        assert!(rt.is_empty());
    }

    #[test]
    fn bucket_keeps_lrs_order_and_caps_at_k() {
        let local = Id160::ZERO;
        let mut rt = RoutingTable::new(local, 2);
        // Craft ids in the same bucket (highest bit set → bucket 0).
        let mk = |tail: u8| {
            let mut b = [0u8; 20];
            b[0] = 0x80;
            b[19] = tail;
            Contact {
                id: Id160::from_bytes(b),
                addr: u32::from(tail),
            }
        };
        assert_eq!(rt.note_contact(mk(1)), NoteOutcome::Inserted);
        assert_eq!(rt.note_contact(mk(2)), NoteOutcome::Inserted);
        // Bucket full: newcomer goes to replacements.
        assert_eq!(rt.note_contact(mk(3)), NoteOutcome::Stashed);
        assert_eq!(rt.bucket(0).len(), 2);
        // Re-seeing contact 1 moves it to most-recent.
        assert_eq!(rt.note_contact(mk(1)), NoteOutcome::Refreshed);
        assert_eq!(rt.bucket(0).contacts()[1].addr, 1);
        // Failure of 2 promotes 3 from the cache.
        rt.note_failure(&mk(2).id);
        let ids: Vec<u32> = rt.bucket(0).contacts().iter().map(|c| c.addr).collect();
        assert!(ids.contains(&1) && ids.contains(&3));
    }

    #[test]
    fn reseen_contact_updates_address() {
        let mut rt = table();
        let mut c = contact(5);
        rt.note_contact(c.clone());
        c.addr = 99;
        rt.note_contact(c.clone());
        let found = rt.closest(&c.id, 1);
        assert_eq!(found[0].addr, 99);
        assert_eq!(rt.len(), 1, "no duplicates");
    }

    #[test]
    fn failure_of_unknown_contact_is_noop() {
        let mut rt = table();
        rt.note_contact(contact(1));
        assert!(!rt.note_failure(&sha1(b"stranger")), "unknown: no eviction");
        assert_eq!(rt.len(), 1);
        assert!(rt.note_failure(&contact(1).id), "live entry evicted");
        assert!(
            !rt.note_failure(&contact(1).id),
            "an already-gone contact is not a second departure"
        );
    }

    #[test]
    fn closest_with_fewer_known_than_requested() {
        let mut rt = table();
        rt.note_contact(contact(1));
        rt.note_contact(contact(2));
        assert_eq!(rt.closest(&sha1(b"x"), 10).len(), 2);
        assert_eq!(table().closest(&sha1(b"x"), 10).len(), 0);
    }

    #[test]
    fn closest_zero_is_empty() {
        let mut rt = table();
        assert!(rt.closest(&sha1(b"x"), 0).is_empty(), "empty table");
        for n in 0..20 {
            rt.note_contact(contact(n));
        }
        assert!(rt.closest(&sha1(b"x"), 0).is_empty());
        assert!(rt.closest(&rt.local_id(), 0).is_empty());
    }

    #[test]
    fn closest_walks_buckets_in_distance_order() {
        // Five contacts per bucket depth 0..12 overflow every k = 4 bucket;
        // the walk has to interleave set and clear bits of `local ⊕ target`.
        let local = sha1(b"local");
        let mut rt = RoutingTable::new(local, 4);
        for depth in 0..12 {
            for tail in 0..5u8 {
                let mut d = [0u8; 20];
                d[depth / 8] |= 0x80 >> (depth % 8);
                d[19] ^= tail + 1;
                let id = Id160::from_bytes(std::array::from_fn(|b| local.0[b] ^ d[b]));
                rt.note_contact(Contact {
                    id,
                    addr: (depth * 5) as u32 + u32::from(tail),
                });
            }
        }
        for target in [sha1(b"t1"), sha1(b"t2"), local, local.with_flipped_bit(5)] {
            let mut all: Vec<Contact> = (0..ID160_BITS)
                .flat_map(|i| rt.bucket(i).contacts().iter().cloned())
                .collect();
            all.sort_by_key(|c| c.id.distance(&target));
            for n in [1, 4, 7, all.len(), all.len() + 3] {
                let want: Vec<Contact> = all.iter().take(n).cloned().collect();
                assert_eq!(rt.closest(&target, n), want, "n = {n}");
            }
            let own = local.distance(&target);
            let closer = all.iter().filter(|c| c.id.distance(&target) < own).count();
            assert_eq!(rt.count_closer_than_local(&target), closer);
        }
    }

    #[test]
    fn probe_candidate_walks_buckets_lrs_first() {
        let mut rt = table();
        assert!(rt.probe_candidate(0).is_none(), "empty table");
        for n in 0..30 {
            rt.note_contact(contact(n));
        }
        let (i, c) = rt.probe_candidate(0).expect("populated table");
        // The candidate is the least-recently-seen entry of its bucket.
        assert_eq!(rt.bucket(i).contacts()[0].id, c.id);
        assert!(rt.contains(&c.id));
        // Starting past the last bucket wraps around.
        let (j, _) = rt.probe_candidate(dharma_types::ID160_BITS - 1).unwrap();
        assert!(j < dharma_types::ID160_BITS);
        // A failed probe evicts the candidate.
        rt.note_failure(&c.id);
        assert!(!rt.contains(&c.id));
    }

    #[test]
    fn pns_demotes_the_slowest_measured_resident() {
        let local = Id160::ZERO;
        let mut rt = RoutingTable::new(local, 2);
        let mk = |tail: u8| {
            let mut b = [0u8; 20];
            b[0] = 0x80;
            b[19] = tail;
            Contact {
                id: Id160::from_bytes(b),
                addr: u32::from(tail),
            }
        };
        rt.note_contact(mk(1));
        rt.note_contact(mk(2));
        // RTT oracle: contact 1 is slow (80ms), 2 fast (5ms), 3 medium (20ms).
        let rtt = |id: &Id160| {
            [(mk(1).id, 80_000u64), (mk(2).id, 5_000), (mk(3).id, 20_000)]
                .iter()
                .find(|(i, _)| i == id)
                .map(|&(_, r)| r)
        };
        // The measurably faster newcomer displaces the slow resident.
        let (outcome, evicted) = rt.note_contact_pns(mk(3), &rtt);
        assert_eq!(outcome, NoteOutcome::Inserted);
        assert!(evicted);
        let ids: Vec<u32> = rt.bucket(0).contacts().iter().map(|c| c.addr).collect();
        assert_eq!(ids, vec![2, 3], "slow resident demoted, fast ones stay");
        // The demoted resident waits in the replacement cache: failing a
        // live entry brings it back.
        rt.note_failure(&mk(3).id);
        assert!(rt.contains(&mk(1).id), "demotion is not amnesia");
    }

    #[test]
    fn pns_never_demotes_unmeasured_residents() {
        let local = Id160::ZERO;
        let mut rt = RoutingTable::new(local, 2);
        let mk = |tail: u8| {
            let mut b = [0u8; 20];
            b[0] = 0x80;
            b[19] = tail;
            Contact {
                id: Id160::from_bytes(b),
                addr: u32::from(tail),
            }
        };
        rt.note_contact(mk(1));
        rt.note_contact(mk(2));
        // Only the newcomer is measured: nobody can be judged slower.
        let rtt = |id: &Id160| (*id == mk(3).id).then_some(1_000u64);
        let (outcome, evicted) = rt.note_contact_pns(mk(3), &rtt);
        assert_eq!(outcome, NoteOutcome::Stashed);
        assert!(!evicted);
        // An unmeasured newcomer is stashed even when residents are slow.
        let rtt2 = |id: &Id160| (*id != mk(4).id).then_some(50_000u64);
        let (outcome, evicted) = rt.note_contact_pns(mk(4), &rtt2);
        assert_eq!(outcome, NoteOutcome::Stashed);
        assert!(!evicted);
        // Refresh of a resident never goes through the PNS path.
        let (outcome, evicted) = rt.note_contact_pns(mk(1), &rtt2);
        assert_eq!(outcome, NoteOutcome::Refreshed);
        assert!(!evicted);
    }

    #[test]
    fn occupancy_reports_nonempty_buckets() {
        let mut rt = table();
        for n in 0..50 {
            rt.note_contact(contact(n));
        }
        let occ = rt.occupancy();
        let total: usize = occ.iter().map(|(_, l)| l).sum();
        assert_eq!(total, rt.len());
        assert!(!occ.is_empty());
    }
}
