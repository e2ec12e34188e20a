//! Generation-indexed packet arena.
//!
//! Every in-flight packet lives in exactly one [`PacketArena`] slot, and
//! events carry a copyable [`PacketId`] instead of an owned
//! [`Packet`]. That keeps the event queue's entries small (no 80-byte
//! packet payload churning through wheel buckets) and makes every
//! handler a borrow of the slot rather than a move or a clone — the
//! allocation-free dataplane discipline hardware token-flow-control
//! schemes assume of a real switch pipeline.
//!
//! Slots are recycled on delivery or drop. Each slot carries a
//! generation counter bumped on free, and ids embed the generation they
//! were allocated under, so a stale id (a use-after-free bug in the
//! simulator) is *detected* — [`PacketArena::get`] panics — rather than
//! silently aliasing whatever packet reused the slot. This mirrors the
//! FlowMap generation scheme.
//!
//! Determinism: slot indices are assigned LIFO from the free list, so
//! for a fixed event order the id assignment (and thus everything
//! derived from it) is identical run-to-run. Ids never appear in
//! exported artifacts.

use crate::packet::Packet;

/// Handle to a packet stored in a [`PacketArena`].
///
/// Copyable and 8 bytes: an index plus the generation the slot had when
/// this id was allocated. An id goes stale the moment its packet is
/// freed; stale ids are rejected with a panic, never aliased.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketId {
    idx: u32,
    gen: u32,
}

impl PacketId {
    /// Slot index (diagnostics only; not stable across frees).
    pub fn index(self) -> u32 {
        self.idx
    }

    /// Packs `(generation, index)` into one `u64`, unique over a run:
    /// slots recycle but generations only grow. Used as the span-tracker
    /// map key so recycled slots never alias a live span.
    pub fn key(self) -> u64 {
        (u64::from(self.gen) << 32) | u64::from(self.idx)
    }
}

#[derive(Debug)]
struct Slot {
    gen: u32,
    pkt: Option<Packet>,
}

/// A slab of in-flight packets with generation-checked handles.
#[derive(Debug, Default)]
pub struct PacketArena {
    slots: Vec<Slot>,
    free: Vec<u32>,
    live: usize,
    allocated_total: u64,
}

impl PacketArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores `pkt` and returns its id. Reuses a freed slot when one is
    /// available (LIFO), growing the slab otherwise.
    pub fn alloc(&mut self, pkt: Packet) -> PacketId {
        self.live += 1;
        self.allocated_total += 1;
        if let Some(idx) = self.free.pop() {
            let slot = &mut self.slots[idx as usize];
            debug_assert!(slot.pkt.is_none(), "free-list slot still occupied");
            slot.pkt = Some(pkt);
            return PacketId {
                idx,
                gen: slot.gen,
            };
        }
        let idx = u32::try_from(self.slots.len()).expect("packet arena exceeds u32 slots");
        self.slots.push(Slot {
            gen: 0,
            pkt: Some(pkt),
        });
        PacketId { idx, gen: 0 }
    }

    /// Shared access to the packet behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is stale (its packet was freed) — a stale id is a
    /// simulator bug, and aliasing the slot's new occupant would corrupt
    /// the run silently.
    pub fn get(&self, id: PacketId) -> &Packet {
        let slot = &self.slots[id.idx as usize];
        assert_eq!(
            slot.gen, id.gen,
            "stale PacketId {id:?}: slot reused under generation {}",
            slot.gen
        );
        slot.pkt.as_ref().expect("live generation has a packet")
    }

    /// Mutable access to the packet behind `id`.
    ///
    /// # Panics
    ///
    /// Panics on stale ids, like [`get`](Self::get).
    pub fn get_mut(&mut self, id: PacketId) -> &mut Packet {
        let slot = &mut self.slots[id.idx as usize];
        assert_eq!(
            slot.gen, id.gen,
            "stale PacketId {id:?}: slot reused under generation {}",
            slot.gen
        );
        slot.pkt.as_mut().expect("live generation has a packet")
    }

    /// Shared access that returns `None` for stale ids instead of
    /// panicking (assertions and tests).
    pub fn try_get(&self, id: PacketId) -> Option<&Packet> {
        let slot = self.slots.get(id.idx as usize)?;
        if slot.gen != id.gen {
            return None;
        }
        slot.pkt.as_ref()
    }

    /// Removes the packet behind `id`, bumping the slot generation so
    /// `id` (and any copy of it) goes stale, and returns the packet.
    ///
    /// # Panics
    ///
    /// Panics on stale ids (double free).
    pub fn free(&mut self, id: PacketId) -> Packet {
        let slot = &mut self.slots[id.idx as usize];
        assert_eq!(
            slot.gen, id.gen,
            "double free of PacketId {id:?}: slot already at generation {}",
            slot.gen
        );
        let pkt = slot.pkt.take().expect("live generation has a packet");
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(id.idx);
        self.live -= 1;
        pkt
    }

    /// Packets currently alive in the arena.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Whether no packets are alive.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Slots ever created (the slab high-water mark).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total allocations over the arena's lifetime.
    pub fn allocated_total(&self) -> u64 {
        self.allocated_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, NodeId};

    fn pkt(seq: u64) -> Packet {
        Packet::data(FlowId(1), NodeId(0), NodeId(1), seq, 100)
    }

    #[test]
    fn alloc_get_free_roundtrip() {
        let mut a = PacketArena::new();
        assert!(a.is_empty());
        let id = a.alloc(pkt(7));
        assert_eq!(a.live(), 1);
        assert_eq!(a.get(id).seq, 7);
        a.get_mut(id).seq = 8;
        assert_eq!(a.free(id).seq, 8);
        assert!(a.is_empty());
    }

    #[test]
    fn slots_recycle_lifo_with_fresh_generations() {
        let mut a = PacketArena::new();
        let id1 = a.alloc(pkt(1));
        let id2 = a.alloc(pkt(2));
        assert_ne!(id1, id2);
        a.free(id2);
        let id3 = a.alloc(pkt(3));
        assert_eq!(id3.index(), id2.index(), "freed slot reused first");
        assert_ne!(id3, id2, "generation distinguishes reuse");
        assert_eq!(a.get(id3).seq, 3);
        assert_eq!(a.capacity(), 2, "no slab growth on reuse");
        assert_eq!(a.allocated_total(), 3);
    }

    #[test]
    fn stale_ids_are_detected_not_aliased() {
        let mut a = PacketArena::new();
        let id = a.alloc(pkt(1));
        a.free(id);
        let newer = a.alloc(pkt(2));
        assert_eq!(newer.index(), id.index());
        assert!(a.try_get(id).is_none(), "stale id must not alias");
        assert_eq!(a.try_get(newer).map(|p| p.seq), Some(2));
    }

    #[test]
    #[should_panic(expected = "stale PacketId")]
    fn get_panics_on_stale_id() {
        let mut a = PacketArena::new();
        let id = a.alloc(pkt(1));
        a.free(id);
        a.alloc(pkt(2));
        let _ = a.get(id);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut a = PacketArena::new();
        let id = a.alloc(pkt(1));
        a.free(id);
        a.free(id);
    }
}
