//! The event scheduler: one indexed binary min-heap over a
//! generation-stamped payload arena.
//!
//! * The **heap** orders 24-byte [`Entry`] values `(time, seq, slot)`;
//!   payloads never move during a sift.
//! * The **arena** holds each payload in a slot that also records the
//!   entry's current heap index (`pos`) and a generation (`gen`).
//!   [`Scheduler::insert`] hands back the slot's [`Key`] `(slot, gen)`.
//!
//! **Cancellation is purge-on-cancel**: [`Scheduler::cancel`] looks up
//! the entry's heap index in its arena slot and removes it on the spot,
//! so a cancelled event costs nothing at pop time. Vacating a slot
//! (pop or cancel) bumps its generation, so a key kept past its event's
//! firing never matches the unrelated event that later reuses the slot.
//!
//! **Re-timing.** An event source that always has one next event (a
//! link's transmitter, a link's flight queue) keeps a single entry and
//! moves it with [`Scheduler::retime_top`] when it fires: the top entry
//! takes a later `(time, seq)` and sifts down once, with no arena
//! traffic. Such entries are never cancelled, so reusing the slot needs
//! no generation bump.
//!
//! **Determinism.** Pop order is exactly global `(time, seq)` order:
//! `seq` is a single insertion counter, so keys are unique and
//! same-time events pop in insertion order. A seq can be taken with
//! [`Scheduler::reserve_seq`] before its entry exists and used later
//! ([`Scheduler::insert_seq`], [`Scheduler::retime_top`]); it still
//! orders by when it was reserved.

use crate::time::Time;

/// The 24-byte hot entry the heap actually moves. `slot` names the
/// arena cell holding the payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Entry {
    at: u64,
    seq: u64,
    slot: u32,
}

impl Entry {
    /// `(time, seq)` as one integer: a single wide compare orders
    /// entries, measurably cheaper in the sifts than a tuple compare.
    #[inline]
    fn key(&self) -> u128 {
        (u128::from(self.at) << 64) | u128::from(self.seq)
    }
}

/// Names one scheduled event: its arena slot and the generation the
/// slot had when the event was inserted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct Key {
    slot: u32,
    gen: u32,
}

struct ArenaSlot<T> {
    /// Heap index of this slot's entry while the slot is occupied.
    pos: u32,
    /// Bumped every time the slot is vacated.
    gen: u32,
    val: Option<T>,
}

/// The scheduler: a binary min-heap of entries, the arena their
/// payloads live in, and one global insertion-sequence counter.
pub(crate) struct Scheduler<T> {
    heap: Vec<Entry>,
    arena: Vec<ArenaSlot<T>>,
    free: Vec<u32>,
    seq: u64,
}

impl<T> Scheduler<T> {
    pub fn new() -> Scheduler<T> {
        Scheduler {
            heap: Vec::with_capacity(256),
            arena: Vec::with_capacity(256),
            free: Vec::with_capacity(64),
            seq: 0,
        }
    }

    /// Take the next value of the insertion counter.
    pub fn reserve_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq - 1
    }

    /// Schedule `val` at absolute time `at`. The returned key cancels it.
    pub fn insert(&mut self, at: Time, val: T) -> Key {
        let seq = self.reserve_seq();
        self.insert_seq(at, seq, val)
    }

    /// Schedule `val` at `at` under a `seq` taken from
    /// [`Scheduler::reserve_seq`].
    pub fn insert_seq(&mut self, at: Time, seq: u64, val: T) -> Key {
        let pos = self.heap.len() as u32;
        let slot = match self.free.pop() {
            Some(i) => {
                let s = &mut self.arena[i as usize];
                debug_assert!(s.val.is_none(), "free-listed arena slot still occupied");
                s.pos = pos;
                s.val = Some(val);
                i
            }
            None => {
                self.arena.push(ArenaSlot {
                    pos,
                    gen: 0,
                    val: Some(val),
                });
                self.arena.len() as u32 - 1
            }
        };
        self.heap.push(Entry {
            at: at.0,
            seq,
            slot,
        });
        self.sift_up(pos as usize);
        Key {
            slot,
            gen: self.arena[slot as usize].gen,
        }
    }

    /// Remove the event `key` names and return its payload; `None` if
    /// it already popped or was cancelled (the generation moved on).
    pub fn cancel(&mut self, key: Key) -> Option<T> {
        let s = &self.arena[key.slot as usize];
        if s.gen != key.gen {
            return None;
        }
        let e = self.remove_at(s.pos as usize);
        debug_assert_eq!(e.slot, key.slot, "arena pos out of sync with the heap");
        Some(self.vacate(e.slot))
    }

    /// Pop the globally earliest `(time, seq)` event.
    pub fn pop(&mut self) -> Option<(Time, T)> {
        if self.heap.is_empty() {
            return None;
        }
        let e = self.remove_at(0);
        Some((Time(e.at), self.vacate(e.slot)))
    }

    /// The globally earliest event, left in place.
    pub fn peek(&self) -> Option<(Time, &T)> {
        let e = self.heap.first()?;
        let val = self.arena[e.slot as usize].val.as_ref();
        Some((
            Time(e.at),
            val.expect("heap entry names an empty arena slot"),
        ))
    }

    /// Move the earliest event, payload and key unchanged, to the later
    /// `(at, seq)` (`seq` from [`Scheduler::reserve_seq`]) and restore
    /// heap order with one sift down.
    pub fn retime_top(&mut self, at: Time, seq: u64) {
        let top = &mut self.heap[0];
        debug_assert!(
            (at.0, seq) > (top.at, top.seq),
            "retime_top moved an event earlier"
        );
        top.at = at.0;
        top.seq = seq;
        self.sift_down(0);
    }

    /// Re-time the earliest event to `next` when its source has a next
    /// event, else pop it.
    pub fn retime_or_pop(&mut self, next: Option<(Time, u64)>) {
        match next {
            Some((at, seq)) => self.retime_top(at, seq),
            None => {
                self.pop();
            }
        }
    }

    /// Pending entries (a cancel removes its entry at once).
    #[allow(dead_code)]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Entries resident in the heap whose payload satisfies `pred` —
    /// the accounting probe behind the timer-leak assertion. Walks the
    /// whole heap; for tests and periodic invariant checks, not the hot
    /// path.
    pub fn count_live_where(&self, pred: impl Fn(&T) -> bool) -> usize {
        self.heap
            .iter()
            .filter(|e| self.arena[e.slot as usize].val.as_ref().is_some_and(&pred))
            .count()
    }

    /// Empty an arena slot: bump its generation, free-list it, and
    /// return its payload.
    fn vacate(&mut self, slot: u32) -> T {
        let s = &mut self.arena[slot as usize];
        s.gen = s.gen.wrapping_add(1);
        self.free.push(slot);
        s.val.take().expect("vacated an empty arena slot")
    }

    /// Take the entry at heap index `pos` out of the heap, filling the
    /// hole with the last entry and restoring heap order around it.
    fn remove_at(&mut self, pos: usize) -> Entry {
        let last = self.heap.pop().expect("remove from an empty heap");
        if pos == self.heap.len() {
            return last;
        }
        let removed = std::mem::replace(&mut self.heap[pos], last);
        if pos > 0 && last.key() < self.heap[(pos - 1) / 2].key() {
            self.sift_up(pos);
        } else {
            self.sift_down(pos);
        }
        removed
    }

    /// Move the entry at `pos` toward the root until its parent is
    /// smaller, updating the arena index of every entry it passes.
    fn sift_up(&mut self, mut pos: usize) {
        let e = self.heap[pos];
        while pos > 0 {
            let parent = (pos - 1) / 2;
            let p = self.heap[parent];
            if e.key() >= p.key() {
                break;
            }
            self.heap[pos] = p;
            self.arena[p.slot as usize].pos = pos as u32;
            pos = parent;
        }
        self.heap[pos] = e;
        self.arena[e.slot as usize].pos = pos as u32;
    }

    /// Move the entry at `pos` toward the leaves until both children
    /// are larger, updating the arena index of every entry it passes.
    fn sift_down(&mut self, mut pos: usize) {
        let e = self.heap[pos];
        let n = self.heap.len();
        loop {
            let mut child = 2 * pos + 1;
            if child >= n {
                break;
            }
            if child + 1 < n && self.heap[child + 1].key() < self.heap[child].key() {
                child += 1;
            }
            let c = self.heap[child];
            if e.key() <= c.key() {
                break;
            }
            self.heap[pos] = c;
            self.arena[c.slot as usize].pos = pos as u32;
            pos = child;
        }
        self.heap[pos] = e;
        self.arena[e.slot as usize].pos = pos as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> Time {
        Time(ns)
    }

    /// Reference: drain the scheduler fully, returning payloads in pop
    /// order with their times.
    fn drain(s: &mut Scheduler<u64>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some((at, v)) = s.pop() {
            out.push((at.0, v));
        }
        out
    }

    #[test]
    fn entry_is_24_bytes() {
        // The point of the arena split: the heap sifts 24-byte entries,
        // never payloads.
        assert_eq!(std::mem::size_of::<Entry>(), 24);
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut s = Scheduler::new();
        s.insert(t(5_000), 1u64);
        s.insert(t(5_000), 2);
        s.insert(t(1_000), 3);
        s.insert(t(5_000), 4);
        s.insert(t(3_600_000_000_000), 5);
        s.insert(t(200_000_000), 6);
        assert_eq!(
            drain(&mut s),
            vec![
                (1_000, 3),
                (5_000, 1),
                (5_000, 2),
                (5_000, 4),
                (200_000_000, 6),
                (3_600_000_000_000, 5)
            ]
        );
    }

    #[test]
    fn cancel_purges_head_middle_and_tail() {
        let mut s = Scheduler::new();
        let a = s.insert(t(1_000), 0u64); // head
        let b = s.insert(t(1_000_000), 1);
        let c = s.insert(t(90_000_000_000), 2);
        let _d = s.insert(t(1_000), 3); // same time as a
        assert_eq!(s.len(), 4);
        assert_eq!(s.cancel(b), Some(1));
        assert_eq!(s.cancel(c), Some(2));
        assert_eq!(s.len(), 2);
        assert_eq!(s.peek(), Some((t(1_000), &0)));
        assert_eq!(s.cancel(a), Some(0));
        assert_eq!(s.len(), 1);
        assert_eq!(drain(&mut s), vec![(1_000, 3)]);
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn stale_key_never_cancels_the_slots_next_tenant() {
        let mut s = Scheduler::new();
        let a = s.insert(t(1_000), 7u64);
        assert_eq!(s.cancel(a), Some(7));
        assert_eq!(s.cancel(a), None, "second cancel is a no-op");
        // The freed slot is reused; the old key's generation is stale.
        let b = s.insert(t(2_000), 8);
        assert_ne!(a, b);
        assert_eq!(s.cancel(a), None);
        assert_eq!(s.pop(), Some((t(2_000), 8)));
        assert_eq!(s.cancel(b), None, "cancel after pop is a no-op");
        let c = s.insert(t(3_000), 9);
        assert_eq!(s.cancel(b), None);
        assert_eq!(s.cancel(c), Some(9));
    }

    #[test]
    fn count_live_where_sees_every_entry() {
        let mut s = Scheduler::new();
        s.insert(t(1_000), 0u64);
        s.insert(t(50_000_000), 1);
        s.insert(t(90_000_000_000), 2);
        s.insert(t(2_000), 3);
        let f = s.insert(t(91_000_000_000), 4);
        s.cancel(f);
        assert_eq!(s.count_live_where(|_| true), 4);
        assert_eq!(s.count_live_where(|v| *v >= 2), 2);
    }

    #[test]
    fn dense_same_time_burst_keeps_insertion_order() {
        let mut s = Scheduler::new();
        for i in 0..500u64 {
            s.insert(t(1_000_000), i);
        }
        let got = drain(&mut s);
        assert_eq!(got.len(), 500);
        for (i, (at, v)) in got.iter().enumerate() {
            assert_eq!((*at, *v), (1_000_000, i as u64));
        }
    }

    #[test]
    fn retimed_top_moves_behind_its_peers() {
        let mut s = Scheduler::new();
        s.insert(t(1_000), 0u64);
        s.insert(t(2_000), 1);
        s.insert(t(2_000), 2);
        s.insert(t(9_000), 3);
        assert_eq!(s.peek(), Some((t(1_000), &0)));
        // Same time as its peers, later seq: it queues behind both.
        let seq = s.reserve_seq();
        s.retime_top(t(2_000), seq);
        assert_eq!(s.peek(), Some((t(2_000), &1)));
        assert_eq!(s.len(), 4);
        assert_eq!(
            drain(&mut s),
            vec![(2_000, 1), (2_000, 2), (2_000, 0), (9_000, 3)]
        );
    }

    #[test]
    fn a_reserved_seq_settles_equal_time_ties_by_age() {
        let mut s = Scheduler::new();
        let old = s.reserve_seq();
        s.insert(t(5_000), 1u64);
        // Inserted last, but under the older seq: it pops first.
        s.insert_seq(t(5_000), old, 0);
        // A re-timed top carrying an older reserved seq also wins a tie
        // against an entry inserted after the reservation.
        s.insert(t(1_000), 2);
        let older = s.reserve_seq();
        s.insert(t(7_000), 3);
        assert_eq!(s.peek(), Some((t(1_000), &2)));
        s.retime_top(t(7_000), older);
        assert_eq!(
            drain(&mut s),
            vec![(5_000, 0), (5_000, 1), (7_000, 2), (7_000, 3)]
        );
    }

    #[test]
    fn cancel_after_a_retime_finds_its_entry() {
        let mut s = Scheduler::new();
        s.insert(t(100), 0u64);
        let keys: Vec<Key> = (1..=6).map(|i| s.insert(t(1_000 * i), i)).collect();
        // The top sifts past every peer, moving each of them up a level.
        let seq = s.reserve_seq();
        s.retime_top(t(10_000), seq);
        assert_eq!(s.cancel(keys[0]), Some(1));
        assert_eq!(s.cancel(keys[4]), Some(5));
        assert_eq!(s.cancel(keys[4]), None);
        assert_eq!(
            drain(&mut s),
            vec![(2_000, 2), (3_000, 3), (4_000, 4), (6_000, 6), (10_000, 0)]
        );
    }

    /// Model equivalence at the scheduler level: random programs of
    /// inserts (delays from zero to minutes, including equal times),
    /// inserts under earlier-reserved seqs, re-times of the top and
    /// cancels must pop in exactly the reference heap's (time, seq)
    /// order.
    #[test]
    fn random_programs_match_reference_heap() {
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..50 {
            let mut s: Scheduler<u64> = Scheduler::new();
            let mut reference: Vec<(u64, u64, u64)> = Vec::new(); // (at, seq, token)
            let mut live: Vec<(Key, u64)> = Vec::new(); // (key, token)
            let mut reserved: Vec<u64> = Vec::new();
            let mut seq = 0u64;
            let mut now = 0u64;
            let ops = 200 + round * 10;
            for _ in 0..ops {
                // A delay drawn from a wide band.
                let delay = match rng() % 6 {
                    0 => 0,
                    1 => rng() % 1_000,
                    2 => rng() % 1_000_000,
                    3 => rng() % 100_000_000,
                    4 => rng() % 10_000_000_000,
                    _ => rng() % 100_000_000_000,
                };
                match rng() % 14 {
                    0..=5 => {
                        let at = now + delay;
                        let key = s.insert(Time(at), seq);
                        reference.push((at, seq, seq));
                        live.push((key, seq));
                        seq += 1;
                    }
                    // Reserve a seq now, insert under it later.
                    10 => {
                        assert_eq!(s.reserve_seq(), seq);
                        reserved.push(seq);
                        seq += 1;
                    }
                    11 if !reserved.is_empty() => {
                        let i = (rng() % reserved.len() as u64) as usize;
                        let rseq = reserved.swap_remove(i);
                        let at = now + delay;
                        let key = s.insert_seq(Time(at), rseq, rseq);
                        reference.push((at, rseq, rseq));
                        live.push((key, rseq));
                    }
                    // Re-time the top to a later time under a fresh seq.
                    12 if !reference.is_empty() => {
                        reference.sort();
                        let top = &mut reference[0];
                        assert_eq!(s.peek(), Some((Time(top.0), &top.2)));
                        assert_eq!(s.reserve_seq(), seq);
                        s.retime_top(Time(top.0 + delay), seq);
                        (top.0, top.1) = (top.0 + delay, seq);
                        seq += 1;
                    }
                    // Cancel a random live entry.
                    6..=7 if !live.is_empty() => {
                        let i = (rng() % live.len() as u64) as usize;
                        let (key, tok) = live.swap_remove(i);
                        assert_eq!(s.cancel(key), Some(tok));
                        reference.retain(|&(_, _, t)| t != tok);
                    }
                    // Pop one event and advance `now`.
                    _ => {
                        reference.sort();
                        let expect = if reference.is_empty() {
                            None
                        } else {
                            Some(reference.remove(0))
                        };
                        match (s.pop(), expect) {
                            (Some((at, tok)), Some((eat, _, etok))) => {
                                assert_eq!((at.0, tok), (eat, etok), "round {round}");
                                now = at.0;
                                live.retain(|&(_, t)| t != tok);
                            }
                            (None, None) => {}
                            (got, want) => panic!("round {round}: {got:?} vs {want:?}"),
                        }
                    }
                }
            }
            // Full drain must match the remaining reference exactly.
            reference.sort();
            for (eat, _, etok) in reference {
                let (at, tok) = s.pop().expect("scheduler drained early");
                assert_eq!((at.0, tok), (eat, etok), "round {round} drain");
            }
            assert!(s.pop().is_none());
            assert_eq!(s.len(), 0);
        }
    }
}
