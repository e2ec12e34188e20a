//! The simulation scheduler: a hierarchical timing wheel behind the
//! classic `schedule`/`pop` queue API, plus the deadline records that
//! keep re-armed timers from piling up in it.
//!
//! Discrete-event simulation at 10 Gbps / 360-host scale produces dense
//! timestamp distributions (packet serialisation is sub-microsecond)
//! plus a long tail of far-future timers (RTOs, chaos faults). A binary
//! heap pays O(log n) per operation. The calendar-queue / timing-wheel
//! family is the textbook fix: O(1) amortized insert and pop for
//! near-term events and an overflow tier for the far future.
//!
//! # Layout
//!
//! Time is bucketed at 256 ns granularity ([`GRAN_BITS`]): one *tick*
//! is `at.nanos() >> 8`. Four levels of 64 slots each cover, per level,
//! ~16.4 µs, ~1.05 ms, ~67 ms, and ~4.3 s of ticks ahead of the cursor;
//! anything further out (or crossing the top-level page boundary) waits
//! in a min-heap overflow tier until the cursor gets close enough to
//! place it precisely. Expiring a higher-level slot *cascades*: its
//! entries re-place into strictly lower levels, so each entry moves at
//! most [`LEVELS`] times over its lifetime.
//!
//! # Determinism
//!
//! Every entry carries a global sequence number and the wheel pops in
//! exact `(time, seq)` order: level-0 buckets hold a single tick and
//! are sorted on drain, ticks are visited in order, and the cursor
//! cascades coarser buckets *before* draining a same-start level-0
//! bucket so co-scheduled entries always merge first. The pop sequence
//! is therefore identical to the reference heap's — which is what the
//! byte-identical artifact equivalence tests assert.
//!
//! # Reserved sequence numbers
//!
//! [`EventQueue::reserve_seq`] hands out the next sequence number
//! without pushing anything, and [`EventQueue::schedule_reserved`]
//! pushes an entry under a number reserved earlier. Both backends order
//! every entry by its `(time, seq)` key alone, so an entry pushed late
//! under an early seq pops exactly where it would have popped had it
//! been pushed when the seq was reserved — as long as its key is not
//! behind the last pop. A `Deadline` record uses this to move a timer
//! without pushing an entry per move.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::event::Event;
use crate::units::Time;

/// Log2 of the tick granularity in nanoseconds (256 ns per tick).
pub const GRAN_BITS: u32 = 8;
/// Log2 of the slot count per wheel level.
pub const LEVEL_BITS: u32 = 6;
/// Number of wheel levels before the overflow tier takes over.
pub const LEVELS: usize = 4;

const SLOTS: usize = 1 << LEVEL_BITS;
const SLOT_MASK: u64 = SLOTS as u64 - 1;
/// Ticks spanned by the whole wheel; beyond this, entries overflow.
const HORIZON_BITS: u32 = LEVEL_BITS * LEVELS as u32;

/// Which scheduler backend a simulation drives its event loop with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// Hierarchical timing wheel: O(1) amortized schedule/pop.
    #[default]
    Wheel,
    /// The pre-refactor global binary heap: O(log n) schedule/pop.
    /// Kept as the reference implementation for equivalence tests and
    /// as the baseline in the scale benchmarks.
    RefHeap,
}

/// An event with its activation time and tie-breaking sequence number.
#[derive(Debug, Clone)]
struct Entry {
    at: Time,
    seq: u64,
    event: Event,
}

impl Entry {
    fn key(&self) -> (Time, u64) {
        (self.at, self.seq)
    }
}

/// Min-order wrapper for [`BinaryHeap`] (which is a max-heap).
#[derive(Debug)]
struct HeapEntry(Entry);

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.0.key() == other.0.key()
    }
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Inverted so the earliest (time, seq) pops first; ties break
        // by insertion order for determinism.
        other.0.key().cmp(&self.0.key())
    }
}

/// The hierarchical timing wheel.
#[derive(Debug)]
struct Wheel {
    /// Tick of the most recent pop; buckets behind it are empty.
    now_tick: u64,
    /// The tick currently being drained, sorted *descending* by
    /// `(at, seq)` so pops come off the cheap end.
    current: Vec<Entry>,
    /// One occupancy bit per slot, per level.
    occupied: [u64; LEVELS],
    /// `LEVELS * SLOTS` FIFO buckets, level-major.
    buckets: Vec<Vec<Entry>>,
    /// Entries beyond the wheel horizon, min-ordered by `(at, seq)`.
    overflow: BinaryHeap<HeapEntry>,
    /// Live entries across `current`, `buckets`, and `overflow`.
    len: usize,
    /// Recycled bucket storage for cascades, to avoid re-allocating.
    cascade_buf: Vec<Entry>,
}

impl Wheel {
    fn new() -> Self {
        Wheel {
            now_tick: 0,
            current: Vec::new(),
            occupied: [0; LEVELS],
            buckets: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            overflow: BinaryHeap::new(),
            len: 0,
            cascade_buf: Vec::new(),
        }
    }

    fn push(&mut self, e: Entry) {
        self.len += 1;
        let tick = e.at.nanos() >> GRAN_BITS;
        if tick <= self.now_tick {
            // Lands on (or before) the tick being drained: merge into
            // the live run, keeping it sorted descending by key.
            let key = e.key();
            let pos = self.current.partition_point(|x| x.key() > key);
            self.current.insert(pos, e);
            return;
        }
        self.place_future(e, tick);
    }

    /// Places an entry with `tick > now_tick` into a bucket or the
    /// overflow tier.
    fn place_future(&mut self, e: Entry, tick: u64) {
        let x = tick ^ self.now_tick;
        debug_assert!(x != 0);
        let level = ((63 - x.leading_zeros()) / LEVEL_BITS) as usize;
        if level >= LEVELS {
            self.overflow.push(HeapEntry(e));
            return;
        }
        let slot = ((tick >> (level as u32 * LEVEL_BITS)) & SLOT_MASK) as usize;
        self.buckets[level * SLOTS + slot].push(e);
        self.occupied[level] |= 1 << slot;
    }

    /// Re-places an entry during a cascade or overflow migration, when
    /// `current` is empty. Same-tick entries go to the level-0 bucket
    /// under the cursor so they drain (and sort) together with any
    /// bucket-mates instead of bypassing them.
    fn place_internal(&mut self, e: Entry) {
        let tick = e.at.nanos() >> GRAN_BITS;
        debug_assert!(tick >= self.now_tick);
        if tick == self.now_tick {
            let slot = (tick & SLOT_MASK) as usize;
            self.buckets[slot].push(e);
            self.occupied[0] |= 1 << slot;
            return;
        }
        self.place_future(e, tick);
    }

    /// First occupied slot at `level` at or after the cursor, with the
    /// absolute start tick of the range it covers. Slots behind the
    /// cursor are empty by construction (they were drained before the
    /// cursor passed them), so one masked scan per level suffices.
    fn candidate(&self, level: usize) -> Option<(usize, u64)> {
        let shift = level as u32 * LEVEL_BITS;
        let cur = (self.now_tick >> shift) & SLOT_MASK;
        debug_assert_eq!(
            self.occupied[level] & !(!0u64 << cur),
            0,
            "occupied slot behind the cursor at level {level}"
        );
        let occ = self.occupied[level] & (!0u64 << cur);
        if occ == 0 {
            return None;
        }
        let slot = occ.trailing_zeros() as u64;
        let base = (self.now_tick >> shift) & !SLOT_MASK;
        Some(((slot as usize), (base | slot) << shift))
    }

    fn pop(&mut self) -> Option<Entry> {
        loop {
            if let Some(e) = self.current.pop() {
                self.len -= 1;
                return Some(e);
            }
            if self.len == 0 {
                return None;
            }
            // Pick the earliest bucket. Scanning coarse-to-fine with a
            // strict `<` makes ties prefer the coarser level, so a
            // same-start cascade merges into level 0 before the drain.
            let mut best: Option<(u64, usize, usize)> = None;
            for level in (0..LEVELS).rev() {
                if let Some((slot, start)) = self.candidate(level) {
                    if best.map_or(true, |(bs, _, _)| start < bs) {
                        best = Some((start, level, slot));
                    }
                }
            }
            let Some((start, level, slot)) = best else {
                // Wheel empty: the overflow minimum is the global
                // minimum, so return it directly instead of routing it
                // through a bucket it would leave on the very next
                // iteration. The cursor jumps to its tick and the
                // remaining overflow entries sharing the new top-level
                // page migrate into the wheel: an entry at exactly the
                // wheel horizon lands in a bucket here rather than
                // ping-ponging through the heap on later pops.
                // Same-tick page-mates join `current` (the live run, as
                // `push` would) so a subsequent push at this tick cannot
                // jump ahead of them.
                let e = self
                    .overflow
                    .pop()
                    .expect("non-empty scheduler has a candidate")
                    .0;
                let oft = e.at.nanos() >> GRAN_BITS;
                debug_assert!(oft >= self.now_tick);
                self.now_tick = oft;
                while let Some(h) = self.overflow.peek() {
                    let t = h.0.at.nanos() >> GRAN_BITS;
                    if (t ^ self.now_tick) >> HORIZON_BITS != 0 {
                        break;
                    }
                    let m = self.overflow.pop().expect("peeked").0;
                    if t == self.now_tick {
                        // Heap pops in (at, seq) order, so these arrive
                        // sorted ascending; current is sorted descending.
                        let key = m.key();
                        let pos = self.current.partition_point(|x| x.key() > key);
                        self.current.insert(pos, m);
                    } else {
                        self.place_future(m, t);
                    }
                }
                self.len -= 1;
                return Some(e);
            };
            debug_assert!(start >= self.now_tick);
            self.now_tick = start;
            let idx = level * SLOTS + slot;
            self.occupied[level] &= !(1u64 << slot);
            if level == 0 {
                // Swap keeps the drained bucket's allocation for reuse.
                std::mem::swap(&mut self.buckets[idx], &mut self.current);
                self.current
                    .sort_unstable_by(|a, b| b.key().cmp(&a.key()));
                continue;
            }
            // Cascade: entries re-place at strictly lower levels.
            let mut tmp = std::mem::take(&mut self.cascade_buf);
            std::mem::swap(&mut tmp, &mut self.buckets[idx]);
            for e in tmp.drain(..) {
                self.place_internal(e);
            }
            self.cascade_buf = tmp;
        }
    }
}

#[derive(Debug)]
enum Backend {
    Wheel(Wheel),
    Heap(BinaryHeap<HeapEntry>),
}

impl Backend {
    fn push(&mut self, e: Entry) {
        match self {
            Backend::Wheel(w) => w.push(e),
            Backend::Heap(h) => h.push(HeapEntry(e)),
        }
    }

    fn pop(&mut self) -> Option<Entry> {
        match self {
            Backend::Wheel(w) => w.pop(),
            Backend::Heap(h) => h.pop().map(|e| e.0),
        }
    }

    fn len(&self) -> usize {
        match self {
            Backend::Wheel(w) => w.len,
            Backend::Heap(h) => h.len(),
        }
    }
}

/// A deterministic min-queue of timestamped events.
///
/// Events popped at equal timestamps come out in insertion order, which
/// makes every simulation run bit-reproducible for a given seed — under
/// either backend, since both respect the same `(time, seq)` total
/// order.
///
/// # Examples
///
/// ```
/// use tfc_simnet::event::{Event, EventQueue};
/// use tfc_simnet::units::Time;
///
/// let mut q = EventQueue::new();
/// q.schedule(Time(20), Event::AppTimer { token: 2 });
/// q.schedule(Time(10), Event::AppTimer { token: 1 });
/// let (t, ev) = q.pop().unwrap();
/// assert_eq!(t, Time(10));
/// matches!(ev, Event::AppTimer { token: 1 });
/// ```
///
/// An entry can take a sequence number reserved earlier; it pops where
/// an entry pushed at the reservation would have:
///
/// ```
/// use tfc_simnet::event::{Event, EventQueue};
/// use tfc_simnet::units::Time;
///
/// let mut q = EventQueue::new();
/// let early = q.reserve_seq();
/// q.schedule(Time(10), Event::AppTimer { token: 2 });
/// q.schedule_reserved(Time(10), early, Event::AppTimer { token: 1 });
/// assert!(matches!(q.pop(), Some((Time(10), Event::AppTimer { token: 1 }))));
/// assert!(matches!(q.pop(), Some((Time(10), Event::AppTimer { token: 2 }))));
/// ```
#[derive(Debug)]
pub struct EventQueue {
    backend: Backend,
    kind: SchedulerKind,
    next_seq: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    /// Creates an empty queue on the default (timing-wheel) backend.
    pub fn new() -> Self {
        Self::with_kind(SchedulerKind::default())
    }

    /// Creates an empty queue on the given backend.
    pub fn with_kind(kind: SchedulerKind) -> Self {
        let backend = match kind {
            SchedulerKind::Wheel => Backend::Wheel(Wheel::new()),
            SchedulerKind::RefHeap => Backend::Heap(BinaryHeap::new()),
        };
        EventQueue {
            backend,
            kind,
            next_seq: 0,
        }
    }

    /// Which backend this queue runs on.
    pub fn kind(&self) -> SchedulerKind {
        self.kind
    }

    /// Schedules `event` at absolute time `at`.
    pub fn schedule(&mut self, at: Time, event: Event) {
        let seq = self.reserve_seq();
        self.schedule_reserved(at, seq, event);
    }

    /// Takes the next sequence number without pushing anything. An
    /// entry pushed later under it with
    /// [`schedule_reserved`](Self::schedule_reserved) breaks time ties
    /// as if it had been pushed now.
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedules `event` at `at` under a sequence number from
    /// [`reserve_seq`](Self::reserve_seq). Each number is pushed at most
    /// once, and `(at, seq)` must not be behind the last pop.
    pub fn schedule_reserved(&mut self, at: Time, seq: u64, event: Event) {
        debug_assert!(seq < self.next_seq, "seq {seq} was never reserved");
        self.backend.push(Entry { at, seq, event });
    }

    /// Pops the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<(Time, Event)> {
        self.backend.pop().map(|e| (e.at, e.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.backend.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One timer owner's deadline record: when its timer is due, and which
/// queue entry, if any, stands in for it.
///
/// An owner (a flow's RTO, one switch-policy timer) re-sets its timer
/// far more often than the timer fires, so a set does not push an entry
/// per call. [`set`](Self::set) reserves the seq the timer would have
/// been pushed under, but pushes only when no entry stands in for the
/// timer yet or the new deadline is earlier than that entry.
/// [`pop`](Self::pop) settles a popped entry: the deadline itself
/// fires, an entry popped before the deadline is re-pushed at it under
/// the reserved seq (so it pops at exactly the key a push at set time
/// would have had), and a superseded or stopped entry is dropped. Only
/// moving a deadline earlier leaves an extra entry queued, until it
/// pops and is dropped. Seqs are globally unique, so matching on them
/// also tells a record apart from an earlier owner's entries still in
/// the queue.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Deadline {
    /// `(at, seq, token)` of the deadline last set; `None` once it
    /// fired or was stopped.
    due: Option<(Time, u64, u64)>,
    /// `(at, seq)` of the entry that stands in for the deadline.
    queued: Option<(Time, u64)>,
}

impl Deadline {
    /// Sets the deadline to `at`, carrying `token`, replacing any
    /// pending one. `event` builds the queue entry from `(token, seq)`.
    pub(crate) fn set(
        &mut self,
        q: &mut EventQueue,
        at: Time,
        token: u64,
        event: impl FnOnce(u64, u64) -> Event,
    ) {
        let seq = q.reserve_seq();
        self.due = Some((at, seq, token));
        if self.queued.is_none_or(|key| (at, seq) < key) {
            self.queued = Some((at, seq));
            q.schedule_reserved(at, seq, event(token, seq));
        }
    }

    /// Stops the pending deadline, if any; its entry is dropped on pop.
    pub(crate) fn stop(&mut self) {
        self.due = None;
    }

    /// Settles the entry `seq` that just popped: `true` when it is the
    /// deadline and fires now. An entry that popped early is re-pushed
    /// at the deadline (built by `event`, as in [`set`](Self::set)).
    pub(crate) fn pop(
        &mut self,
        q: &mut EventQueue,
        seq: u64,
        event: impl FnOnce(u64, u64) -> Event,
    ) -> bool {
        if self.queued.map(|(_, s)| s) != Some(seq) {
            return false; // superseded by an earlier push
        }
        self.queued = None;
        match self.due {
            Some((_, s, _)) if s == seq => {
                self.due = None;
                true
            }
            Some((at, s, token)) => {
                self.queued = Some((at, s));
                q.schedule_reserved(at, s, event(token, s));
                false
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rng::props::{cases, vec_u64};
    use rng::Rng;

    const KINDS: [SchedulerKind; 2] = [SchedulerKind::Wheel, SchedulerKind::RefHeap];

    fn token_of(ev: &Event) -> u64 {
        match ev {
            Event::AppTimer { token } => *token,
            _ => panic!("unexpected event"),
        }
    }

    #[test]
    fn pops_in_time_order() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            q.schedule(Time(30), Event::AppTimer { token: 3 });
            q.schedule(Time(10), Event::AppTimer { token: 1 });
            q.schedule(Time(20), Event::AppTimer { token: 2 });
            let order: Vec<u64> = std::iter::from_fn(|| q.pop())
                .map(|(_, e)| token_of(&e))
                .collect();
            assert_eq!(order, vec![1, 2, 3], "{kind:?}");
        }
    }

    #[test]
    fn equal_times_pop_in_insertion_order() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            for i in 0..100 {
                q.schedule(Time(5), Event::AppTimer { token: i });
            }
            let order: Vec<u64> = std::iter::from_fn(|| q.pop())
                .map(|(_, e)| token_of(&e))
                .collect();
            assert_eq!(order, (0..100).collect::<Vec<_>>(), "{kind:?}");
        }
    }

    #[test]
    fn total_order_is_respected() {
        cases(128, |_case, rng| {
            let times = vec_u64(rng, 1..200, 0..1_000);
            for kind in KINDS {
                let mut q = EventQueue::with_kind(kind);
                for (i, &t) in times.iter().enumerate() {
                    q.schedule(Time(t), Event::AppTimer { token: i as u64 });
                }
                let mut last = Time(0);
                let mut popped = 0;
                while let Some((t, _)) = q.pop() {
                    assert!(t >= last, "popped {t:?} after {last:?} for {times:?}");
                    last = t;
                    popped += 1;
                }
                assert_eq!(popped, times.len());
            }
        });
    }

    #[test]
    fn stable_for_equal_timestamps() {
        cases(128, |_case, rng| {
            let n = rng.gen_range(1..100usize);
            for kind in KINDS {
                let mut q = EventQueue::with_kind(kind);
                for i in 0..n {
                    q.schedule(Time(42), Event::AppTimer { token: i as u64 });
                }
                let mut expect = 0u64;
                while let Some((_, ev)) = q.pop() {
                    assert_eq!(token_of(&ev), expect, "{kind:?}, n = {n}");
                    expect += 1;
                }
            }
        });
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        // The wheel must honour entries scheduled mid-drain at the tick
        // currently being popped, and entries far past the horizon.
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            q.schedule(Time(100), Event::AppTimer { token: 0 });
            q.schedule(Time(100), Event::AppTimer { token: 1 });
            q.schedule(Time(1 << 40), Event::AppTimer { token: 9 });
            let (t, ev) = q.pop().unwrap();
            assert_eq!((t, token_of(&ev)), (Time(100), 0));
            // Same tick as the in-flight drain.
            q.schedule(Time(150), Event::AppTimer { token: 2 });
            // Next tick boundary and a far-future entry.
            q.schedule(Time(256), Event::AppTimer { token: 3 });
            q.schedule(Time(1 << 41), Event::AppTimer { token: 10 });
            let order: Vec<(Time, u64)> = std::iter::from_fn(|| q.pop())
                .map(|(t, e)| (t, token_of(&e)))
                .collect();
            assert_eq!(
                order,
                vec![
                    (Time(100), 1),
                    (Time(150), 2),
                    (Time(256), 3),
                    (Time(1 << 40), 9),
                    (Time(1 << 41), 10),
                ],
                "{kind:?}"
            );
        }
    }

    #[test]
    fn reserved_seq_breaks_ties_at_reservation_order() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            let early = q.reserve_seq();
            q.schedule(Time(300), Event::AppTimer { token: 1 });
            let (t, _) = q.pop().unwrap();
            assert_eq!(t, Time(300));
            // Pushed onto the tick being drained, after a later seq.
            q.schedule(Time(300), Event::AppTimer { token: 3 });
            q.schedule_reserved(Time(300), early, Event::AppTimer { token: 2 });
            assert_eq!(q.len(), 2);
            let order: Vec<u64> = std::iter::from_fn(|| q.pop())
                .map(|(_, e)| token_of(&e))
                .collect();
            assert_eq!(order, vec![2, 3], "{kind:?}");
        }
    }

    fn timer(token: u64, seq: u64) -> Event {
        Event::AppTimer { token: token << 32 | seq }
    }

    /// Pops every entry, settling each through `d`, and returns the
    /// `(time, token)` pairs that fired.
    fn drain(q: &mut EventQueue, d: &mut Deadline) -> Vec<(Time, u64)> {
        let mut fired = Vec::new();
        while let Some((t, ev)) = q.pop() {
            let word = token_of(&ev);
            if d.pop(q, word & 0xffff_ffff, timer) {
                fired.push((t, word >> 32));
            }
        }
        fired
    }

    #[test]
    fn deadline_moved_later_fires_once_at_the_last_set() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            let mut d = Deadline::default();
            for (i, at) in [100u64, 400, 900].into_iter().enumerate() {
                d.set(&mut q, Time(at), i as u64, timer);
            }
            assert_eq!(q.len(), 1, "one entry stands in for the timer");
            assert_eq!(drain(&mut q, &mut d), vec![(Time(900), 2)], "{kind:?}");
            assert!(q.is_empty());
        }
    }

    #[test]
    fn deadline_moved_earlier_fires_early_and_drops_the_old_entry() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            let mut d = Deadline::default();
            d.set(&mut q, Time(900), 1, timer);
            d.set(&mut q, Time(100), 2, timer);
            assert_eq!(drain(&mut q, &mut d), vec![(Time(100), 2)], "{kind:?}");
        }
    }

    /// The entry a moved-earlier deadline left behind is dropped when it
    /// pops, even while a later deadline is pending: it neither fires
    /// nor re-pushes a duplicate of the pending one.
    #[test]
    fn deadline_left_behind_entry_does_not_repush() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            let mut d = Deadline::default();
            d.set(&mut q, Time(900), 1, timer);
            d.set(&mut q, Time(100), 2, timer);
            let (_, ev) = q.pop().unwrap();
            assert!(d.pop(&mut q, token_of(&ev) & 0xffff_ffff, timer));
            d.set(&mut q, Time(2_000), 3, timer);
            assert_eq!(q.len(), 2, "{kind:?}: the left-behind entry and the new one");
            let (t, ev) = q.pop().unwrap();
            assert_eq!(t, Time(900));
            assert!(!d.pop(&mut q, token_of(&ev) & 0xffff_ffff, timer));
            assert_eq!(q.len(), 1, "{kind:?}: no duplicate pushed");
            assert_eq!(drain(&mut q, &mut d), vec![(Time(2_000), 3)]);
        }
    }

    #[test]
    fn deadline_stopped_never_fires() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            let mut d = Deadline::default();
            d.set(&mut q, Time(100), 1, timer);
            d.set(&mut q, Time(500), 2, timer);
            d.stop();
            assert!(drain(&mut q, &mut d).is_empty(), "{kind:?}");
        }
    }

    /// A re-pushed deadline keeps the seq reserved at set time: it pops
    /// before an event pushed later at the same instant, exactly as an
    /// entry pushed at set time would have.
    #[test]
    fn deadline_repush_keeps_the_set_time_tie_order() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            let mut d = Deadline::default();
            d.set(&mut q, Time(100), 1, timer);
            d.set(&mut q, Time(700), 2, timer);
            q.schedule(Time(700), Event::AppTimer { token: u64::MAX });
            let (t, ev) = q.pop().unwrap();
            assert_eq!(t, Time(100));
            assert!(!d.pop(&mut q, token_of(&ev) & 0xffff_ffff, timer));
            let (t, ev) = q.pop().unwrap();
            assert_eq!(t, Time(700));
            assert!(d.pop(&mut q, token_of(&ev) & 0xffff_ffff, timer), "{kind:?}");
            assert_eq!(q.pop().map(|(_, e)| token_of(&e)), Some(u64::MAX));
        }
    }

    #[test]
    fn wheel_handles_bucket_boundaries_and_time_zero() {
        // One tick is 256 ns; level spans are 2^14, 2^20, 2^26, 2^32 ns.
        let edges = [
            0u64,
            1,
            255,
            256,
            257,
            (1 << 14) - 1,
            1 << 14,
            (1 << 20) - 256,
            1 << 20,
            1 << 26,
            (1 << 32) - 1,
            1 << 32,
            (1 << 40) + 123,
        ];
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            for (i, &t) in edges.iter().enumerate() {
                q.schedule(Time(t), Event::AppTimer { token: i as u64 });
            }
            let mut last = (Time(0), 0u64);
            let mut n = 0;
            while let Some((t, ev)) = q.pop() {
                let cur = (t, token_of(&ev));
                assert!(cur >= last, "{kind:?}: {cur:?} after {last:?}");
                last = cur;
                n += 1;
            }
            assert_eq!(n, edges.len());
        }
    }

    /// A sorted-vec reference model: stable sort by time keeps
    /// insertion order within ties, i.e. the `(time, seq)` contract.
    struct VecModel {
        entries: Vec<(u64, u64)>,
    }

    impl VecModel {
        fn new() -> Self {
            Self { entries: Vec::new() }
        }
        fn schedule(&mut self, at: u64, token: u64) {
            self.entries.push((at, token));
        }
        fn pop(&mut self) -> Option<(u64, u64)> {
            let best = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|&(i, &(t, _))| (t, i))
                .map(|(i, _)| i)?;
            Some(self.entries.remove(best))
        }
    }

    /// Satellite regression: entries pinned at `horizon - 1`, `horizon`,
    /// and `horizon + 1` ticks ahead of the cursor — the exact seam
    /// between the wheel's top level and the overflow heap — must pop in
    /// model order, for aligned and misaligned cursors alike. Also
    /// exercises the empty-wheel direct-pop path (everything past the
    /// boundary starts in overflow) and in-flight pushes at the tick the
    /// cursor lands on after an overflow jump.
    #[test]
    fn overflow_horizon_boundary_matches_model() {
        // The wheel spans 2^HORIZON_BITS ticks; one tick is 2^GRAN_BITS ns.
        let horizon_ticks = 1u64 << HORIZON_BITS;
        let anchors = [0u64, 1, 12_345, horizon_ticks - 2, horizon_ticks + 77];
        for &anchor in &anchors {
            let mut q = EventQueue::with_kind(SchedulerKind::Wheel);
            let mut model = VecModel::new();
            let mut token = 0u64;
            // Advance the cursor to the (possibly misaligned) anchor.
            if anchor > 0 {
                q.schedule(Time(anchor << GRAN_BITS), Event::AppTimer { token });
                model.schedule(anchor << GRAN_BITS, token);
                token += 1;
            }
            // Pin a pair of entries at each boundary tick (same time
            // twice, so insertion-order ties are checked at the seam),
            // plus sub-tick offsets.
            for delta in [horizon_ticks - 1, horizon_ticks, horizon_ticks + 1] {
                let tick = anchor + delta;
                for off in [0u64, 0, 255] {
                    let at = (tick << GRAN_BITS) | off;
                    q.schedule(Time(at), Event::AppTimer { token });
                    model.schedule(at, token);
                    token += 1;
                }
            }
            // Drain the anchor, then push mid-drain entries at the tick
            // the cursor jumped to (merges into the live run).
            if anchor > 0 {
                let (t, ev) = q.pop().expect("anchor");
                assert_eq!((t.nanos(), token_of(&ev)), model.pop().unwrap());
            }
            let (t, ev) = q.pop().expect("first boundary entry");
            assert_eq!((t.nanos(), token_of(&ev)), model.pop().unwrap());
            let same_tick_at = t.nanos();
            q.schedule(Time(same_tick_at), Event::AppTimer { token });
            model.schedule(same_tick_at, token);
            token += 1;
            let far = (anchor + 3 * horizon_ticks) << GRAN_BITS;
            q.schedule(Time(far), Event::AppTimer { token });
            model.schedule(far, token);
            while let Some((t, ev)) = q.pop() {
                let got = (t.nanos(), token_of(&ev));
                let want = model.pop().unwrap_or_else(|| {
                    panic!("wheel popped {got:?} beyond the model, anchor {anchor}")
                });
                assert_eq!(got, want, "anchor {anchor}");
            }
            assert!(model.pop().is_none(), "model has leftovers, anchor {anchor}");
            assert!(q.is_empty());
        }
    }

    /// Randomized version of the boundary test: schedules cluster around
    /// `cursor + horizon` with interleaved pops.
    #[test]
    fn overflow_boundary_random_workloads_match_model() {
        let horizon_ticks = 1u64 << HORIZON_BITS;
        cases(64, |_case, rng| {
            let mut q = EventQueue::with_kind(SchedulerKind::Wheel);
            let mut model = VecModel::new();
            let mut now = 0u64;
            let mut token = 0u64;
            for _ in 0..200 {
                if rng.gen_range(0u32..3) < 2 {
                    let tick_off = horizon_ticks - 3 + rng.gen_range(0..=6u64);
                    let at = now + (tick_off << GRAN_BITS) + rng.gen_range(0..256u64);
                    q.schedule(Time(at), Event::AppTimer { token });
                    model.schedule(at, token);
                    token += 1;
                } else {
                    let got = q.pop().map(|(t, e)| (t.nanos(), token_of(&e)));
                    assert_eq!(got, model.pop());
                    if let Some((t, _)) = got {
                        now = t;
                    }
                }
            }
            loop {
                let got = q.pop().map(|(t, e)| (t.nanos(), token_of(&e)));
                assert_eq!(got, model.pop());
                if got.is_none() {
                    break;
                }
            }
        });
    }

    #[test]
    fn wheel_and_heap_agree_on_random_workloads() {
        cases(64, |_case, rng| {
            let mut wheel = EventQueue::with_kind(SchedulerKind::Wheel);
            let mut heap = EventQueue::with_kind(SchedulerKind::RefHeap);
            let mut now = 0u64;
            let mut token = 0u64;
            for _ in 0..300 {
                if rng.gen_range(0u32..3) < 2 {
                    // Mix of near ticks, boundary offsets, and far-future.
                    let off = match rng.gen_range(0u32..6) {
                        0 => 0,
                        1 => rng.gen_range(0..256),
                        2 => rng.gen_range(0..1 << 14),
                        3 => rng.gen_range(0..1 << 20),
                        4 => rng.gen_range(0..1 << 26),
                        _ => rng.gen_range(0..1u64 << 41),
                    };
                    let at = Time(now + off);
                    wheel.schedule(at, Event::AppTimer { token });
                    heap.schedule(at, Event::AppTimer { token });
                    token += 1;
                } else {
                    let a = wheel.pop().map(|(t, e)| (t, token_of(&e)));
                    let b = heap.pop().map(|(t, e)| (t, token_of(&e)));
                    assert_eq!(a, b);
                    if let Some((t, _)) = a {
                        now = t.nanos();
                    }
                }
                assert_eq!(wheel.len(), heap.len());
            }
            loop {
                let a = wheel.pop().map(|(t, e)| (t, token_of(&e)));
                let b = heap.pop().map(|(t, e)| (t, token_of(&e)));
                assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        });
    }
}
