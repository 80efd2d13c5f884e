//! The mesh's input buffers: every buffered packet lives in one slab of
//! linked entries, and each slot's FIFO is a `{head, tail, len}` triple
//! threading through it.
//!
//! The slab grows with the packets actually buffered, never with
//! `buffer_packets`: a freed entry goes on a free list and the next push
//! reuses it, so a mesh that never holds more than `k` packets at once
//! never owns more than `k` entries. A packet crossing a link is unlinked
//! from one queue and linked onto the next; it is never copied or freed
//! on the way.

use crate::packet::Packet;

/// End of a queue or of the free list.
const NIL: u32 = u32::MAX;

/// One slab entry: a buffered packet and the next entry of its queue, or
/// of the free list while the entry is free.
#[derive(Debug, Clone, Copy)]
struct Entry {
    packet: Packet,
    next: u32,
}

/// One slot's FIFO: its first and last entries and its length.
#[derive(Debug, Clone, Copy)]
struct Queue {
    head: u32,
    tail: u32,
    len: u32,
}

impl Queue {
    const EMPTY: Self = Self {
        head: NIL,
        tail: NIL,
        len: 0,
    };
}

/// A slab of packets and the per-slot FIFOs linked through it.
#[derive(Debug, Clone)]
pub(crate) struct PacketSlab {
    entries: Vec<Entry>,
    /// First free entry; free entries are linked through `next`.
    free: u32,
    queues: Vec<Queue>,
}

impl PacketSlab {
    /// `slots` empty queues and an empty slab: one allocation, whatever
    /// the buffer depth.
    pub(crate) fn new(slots: usize) -> Self {
        Self {
            entries: Vec::new(),
            free: NIL,
            queues: vec![Queue::EMPTY; slots],
        }
    }

    /// Packets queued at `slot`.
    #[inline]
    pub(crate) fn len(&self, slot: usize) -> usize {
        self.queues[slot].len as usize
    }

    /// The packet at the head of `slot`, if any.
    #[inline]
    pub(crate) fn front(&self, slot: usize) -> Option<&Packet> {
        let head = self.queues[slot].head;
        (head != NIL).then(|| &self.entries[head as usize].packet)
    }

    /// The packet stored in `entry`.
    #[inline]
    pub(crate) fn packet(&self, entry: u32) -> &Packet {
        &self.entries[entry as usize].packet
    }

    /// Stores `packet` in a free entry (growing the slab only when none is
    /// free) and appends it to `slot`. Returns the queue's new length.
    pub(crate) fn push(&mut self, slot: usize, packet: Packet) -> usize {
        let entry = if self.free == NIL {
            let entry = u32::try_from(self.entries.len())
                .ok()
                .filter(|&e| e != NIL)
                .expect("more buffered packets than the slab can index");
            self.entries.push(Entry { packet, next: NIL });
            entry
        } else {
            let entry = self.free;
            let e = &mut self.entries[entry as usize];
            self.free = e.next;
            e.packet = packet;
            entry
        };
        self.link(slot, entry)
    }

    /// Appends the unlinked `entry` (one [`PacketSlab::pop`] returned) to
    /// `slot`. Returns the queue's new length.
    #[inline]
    pub(crate) fn link(&mut self, slot: usize, entry: u32) -> usize {
        self.entries[entry as usize].next = NIL;
        let q = &mut self.queues[slot];
        if q.head == NIL {
            q.head = entry;
        } else {
            self.entries[q.tail as usize].next = entry;
        }
        q.tail = entry;
        q.len += 1;
        q.len as usize
    }

    /// Unlinks the head of `slot` and returns its entry, which still holds
    /// the packet: the caller either links it onto another queue or
    /// releases it. `None` for an empty queue.
    #[inline]
    pub(crate) fn pop(&mut self, slot: usize) -> Option<u32> {
        let q = &mut self.queues[slot];
        let entry = q.head;
        if entry == NIL {
            return None;
        }
        q.head = self.entries[entry as usize].next;
        if q.head == NIL {
            q.tail = NIL;
        }
        q.len -= 1;
        Some(entry)
    }

    /// Copies the packet out of the unlinked `entry` and releases it.
    #[inline]
    pub(crate) fn take(&mut self, entry: u32) -> Packet {
        let packet = self.entries[entry as usize].packet;
        self.release(entry);
        packet
    }

    /// Returns the unlinked `entry` to the free list.
    #[inline]
    pub(crate) fn release(&mut self, entry: u32) {
        self.entries[entry as usize].next = self.free;
        self.free = entry;
    }

    /// Walks the free list and every queue from its head and checks the
    /// queue table against the links: each chain has its recorded length
    /// and ends at its recorded tail, and every entry sits on exactly one
    /// queue or on the free list. So a dropped relink, a lost entry or a
    /// stale head or tail shows. Debug builds' `Mesh::in_flight` asserts it.
    pub(crate) fn is_coherent(&self) -> bool {
        let mut seen = vec![false; self.entries.len()];
        // The length and last entry of the chain from `entry`; `None` when
        // it leaves the slab or meets an entry already on a list.
        let mut walk = |mut entry: u32| -> Option<(u32, u32)> {
            let (mut len, mut last) = (0, NIL);
            while entry != NIL {
                let e = entry as usize;
                if std::mem::replace(seen.get_mut(e)?, true) {
                    return None;
                }
                (len, last) = (len + 1, entry);
                entry = self.entries[e].next;
            }
            Some((len, last))
        };
        walk(self.free).is_some()
            && self
                .queues
                .iter()
                .all(|q| walk(q.head) == Some((q.len, q.tail)))
            && seen.iter().all(|&s| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{NodeId, PacketClass};
    use std::collections::VecDeque;

    fn packet(id: u64) -> Packet {
        Packet {
            id,
            src: NodeId::new(0),
            dst: NodeId::new(1),
            flits: 1,
            birth: id,
            class: PacketClass::Request,
        }
    }

    /// Random pushes, relinks and releases over a few slots, mirrored by
    /// one `VecDeque` per slot: every queue reads back in the same order,
    /// the links stay coherent, and the slab never holds more entries than
    /// the most packets ever buffered at once.
    #[test]
    fn queues_match_deques_and_reuse_freed_entries() {
        const SLOTS: usize = 5;
        let mut slab = PacketSlab::new(SLOTS);
        let mut model: Vec<VecDeque<u64>> = vec![VecDeque::new(); SLOTS];
        let (mut state, mut next_id, mut peak) = (7u64, 0u64, 0usize);
        for _ in 0..20_000 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let slot = (state >> 33) as usize % SLOTS;
            let to = (state >> 40) as usize % SLOTS;
            match (state >> 60) % 3 {
                0 if model[slot].len() < 6 => {
                    assert_eq!(slab.push(slot, packet(next_id)), model[slot].len() + 1);
                    model[slot].push_back(next_id);
                    next_id += 1;
                }
                1 => match slab.pop(slot) {
                    Some(entry) => {
                        let id = model[slot].pop_front().unwrap();
                        assert_eq!(slab.packet(entry).id, id);
                        assert_eq!(slab.link(to, entry), model[to].len() + 1);
                        model[to].push_back(id);
                    }
                    None => assert!(model[slot].is_empty()),
                },
                _ => {
                    if let Some(entry) = slab.pop(slot) {
                        assert_eq!(slab.packet(entry).id, model[slot].pop_front().unwrap());
                        slab.release(entry);
                    }
                }
            }
            peak = peak.max(model.iter().map(VecDeque::len).sum());
            for (s, q) in model.iter().enumerate() {
                assert_eq!(slab.len(s), q.len());
                assert_eq!(slab.front(s).map(|p| p.id), q.front().copied());
            }
            assert!(slab.is_coherent());
        }
        assert_eq!(slab.entries.len(), peak, "the slab grew past the occupancy");
        for (s, q) in model.iter_mut().enumerate() {
            while let Some(entry) = slab.pop(s) {
                assert_eq!(Some(slab.packet(entry).id), q.pop_front());
                slab.release(entry);
            }
            assert!(q.is_empty());
        }
        assert!(slab.is_coherent());
    }

    /// The coherence walk catches a broken link, a stale head and a leaked
    /// entry.
    #[test]
    fn coherence_walk_catches_broken_links() {
        let mut slab = PacketSlab::new(2);
        for id in 0..3 {
            slab.push(0, packet(id));
        }
        slab.push(1, packet(3));
        assert!(slab.is_coherent());

        let mut cut = slab.clone();
        cut.entries[0].next = NIL;
        assert!(!cut.is_coherent(), "a cut chain is shorter than its len");

        let mut stale = slab.clone();
        stale.queues[0].head = 1;
        assert!(!stale.is_coherent(), "a head another entry links to");

        let mut leaked = slab.clone();
        let entry = leaked.pop(1).unwrap();
        assert_eq!(leaked.packet(entry).id, 3);
        assert!(!leaked.is_coherent(), "an entry on no queue and not free");
        leaked.release(entry);
        assert!(leaked.is_coherent());
    }
}
