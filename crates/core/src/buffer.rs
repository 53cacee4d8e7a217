//! The IOMMU pending-walk buffer as an indexed slab.
//!
//! The paper's IOMMU buffer holds up to 256 pending walk requests, and the
//! simulator's three hottest IOMMU operations all hammer it:
//!
//! * **selection** pops an arbitrary window entry every time a walker
//!   frees (`Vec::remove` shifted up to 255 entries per pick);
//! * **re-scoring** updates every pending request of one instruction on
//!   every scored arrival (a full-buffer filter scan);
//! * **arrival scoring** reads the instruction's current shared score (a
//!   full-buffer find).
//!
//! [`WalkBuffer`] replaces the `Vec` with a slab of stable `u32` handles
//! threaded onto two intrusive doubly-linked lists:
//!
//! * the **arrival list** preserves the exact insertion order the `Vec`
//!   had, so scheduler windows and piggyback scans observe the same
//!   sequence as before (bit-identical policy decisions);
//! * a **per-instruction chain** links the pending requests of each
//!   instruction in arrival order, making the instr-keyed operations
//!   O(chain) instead of O(buffer).
//!
//! Chain heads/tails are direct-indexed by the raw instruction id —
//! instruction ids are allocated densely by the workload — so there is no
//! hashing anywhere. Removal, push, and chain lookup are O(1).

use ptw_types::ids::InstrId;

use crate::request::WalkRequest;

/// Sentinel for "no slot".
const NIL: u32 = u32::MAX;

#[derive(Debug)]
struct Slot<W> {
    /// `None` while the slot sits on the free list.
    req: Option<WalkRequest<W>>,
    /// Arrival-list neighbors (`prev` doubles as the free-list link).
    prev: u32,
    next: u32,
    /// Per-instruction chain neighbors.
    instr_prev: u32,
    instr_next: u32,
}

/// An arrival-ordered slab of pending walk requests with a per-instruction
/// index. See the module docs for the design.
#[derive(Debug)]
pub struct WalkBuffer<W> {
    slots: Vec<Slot<W>>,
    /// Head of the free list (linked through `prev`).
    free: u32,
    /// Arrival-list ends.
    head: u32,
    tail: u32,
    len: usize,
    /// Chain ends per raw instruction id (dense: ids are allocated
    /// sequentially by the workload, so `instr.raw()` indexes directly).
    instr_head: Vec<u32>,
    instr_tail: Vec<u32>,
}

impl<W> Default for WalkBuffer<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W> WalkBuffer<W> {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        WalkBuffer {
            slots: Vec::new(),
            free: NIL,
            head: NIL,
            tail: NIL,
            len: 0,
            instr_head: Vec::new(),
            instr_tail: Vec::new(),
        }
    }

    /// Number of pending requests.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no requests are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The request behind `handle`.
    ///
    /// # Panics
    ///
    /// Panics if `handle` is not a live handle from [`push`](Self::push).
    pub fn get(&self, handle: u32) -> &WalkRequest<W> {
        self.slots[handle as usize]
            .req
            .as_ref()
            .expect("stale WalkBuffer handle")
    }

    /// Mutable access to the request behind `handle`.
    ///
    /// # Panics
    ///
    /// Panics if `handle` is not a live handle from [`push`](Self::push).
    pub fn get_mut(&mut self, handle: u32) -> &mut WalkRequest<W> {
        self.slots[handle as usize]
            .req
            .as_mut()
            .expect("stale WalkBuffer handle")
    }

    /// Handle of the oldest pending request (arrival order).
    pub fn first(&self) -> Option<u32> {
        (self.head != NIL).then_some(self.head)
    }

    /// Handle of the next-younger request after `handle` in arrival order.
    pub fn next(&self, handle: u32) -> Option<u32> {
        let n = self.slots[handle as usize].next;
        (n != NIL).then_some(n)
    }

    /// Handle of the next-older request before `handle` in arrival order.
    pub fn prev(&self, handle: u32) -> Option<u32> {
        let p = self.slots[handle as usize].prev;
        (p != NIL).then_some(p)
    }

    /// Handle of the oldest pending request of `instr`, if any.
    pub fn instr_first(&self, instr: InstrId) -> Option<u32> {
        let h = *self.instr_head.get(instr.raw() as usize).unwrap_or(&NIL);
        (h != NIL).then_some(h)
    }

    /// Handle of `instr`'s next-younger pending request after `handle`.
    pub fn instr_next(&self, handle: u32) -> Option<u32> {
        let n = self.slots[handle as usize].instr_next;
        (n != NIL).then_some(n)
    }

    /// Iterates `(handle, request)` pairs in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &WalkRequest<W>)> {
        let mut h = self.head;
        std::iter::from_fn(move || {
            if h == NIL {
                return None;
            }
            let handle = h;
            let slot = &self.slots[h as usize];
            h = slot.next;
            Some((handle, slot.req.as_ref().expect("linked slot is live")))
        })
    }

    /// Appends `req` (it becomes the youngest entry of both the arrival
    /// list and its instruction's chain) and returns its handle.
    pub fn push(&mut self, req: WalkRequest<W>) -> u32 {
        let instr = req.instr.raw() as usize;
        if instr >= self.instr_head.len() {
            self.instr_head.resize(instr + 1, NIL);
            self.instr_tail.resize(instr + 1, NIL);
        }
        // Pop a free slot or grow the slab.
        let handle = if self.free != NIL {
            let h = self.free;
            self.free = self.slots[h as usize].prev;
            h
        } else {
            assert!(self.slots.len() < NIL as usize, "WalkBuffer overflow");
            self.slots.push(Slot {
                req: None,
                prev: NIL,
                next: NIL,
                instr_prev: NIL,
                instr_next: NIL,
            });
            (self.slots.len() - 1) as u32
        };

        // Append to the arrival list.
        let slot = &mut self.slots[handle as usize];
        slot.req = Some(req);
        slot.prev = self.tail;
        slot.next = NIL;
        if self.tail != NIL {
            self.slots[self.tail as usize].next = handle;
        } else {
            self.head = handle;
        }
        self.tail = handle;

        // Append to the instruction chain.
        let chain_tail = self.instr_tail[instr];
        let slot = &mut self.slots[handle as usize];
        slot.instr_prev = chain_tail;
        slot.instr_next = NIL;
        if chain_tail != NIL {
            self.slots[chain_tail as usize].instr_next = handle;
        } else {
            self.instr_head[instr] = handle;
        }
        self.instr_tail[instr] = handle;

        self.len += 1;
        handle
    }

    /// Unlinks `handle` from both lists and returns its request. The
    /// relative order of all other entries is untouched.
    ///
    /// # Panics
    ///
    /// Panics if `handle` is not a live handle from [`push`](Self::push).
    pub fn remove(&mut self, handle: u32) -> WalkRequest<W> {
        let slot = &mut self.slots[handle as usize];
        let req = slot.req.take().expect("stale WalkBuffer handle");
        let (prev, next) = (slot.prev, slot.next);
        let (iprev, inext) = (slot.instr_prev, slot.instr_next);

        // Arrival list.
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }

        // Instruction chain.
        let instr = req.instr.raw() as usize;
        if iprev != NIL {
            self.slots[iprev as usize].instr_next = inext;
        } else {
            self.instr_head[instr] = inext;
        }
        if inext != NIL {
            self.slots[inext as usize].instr_prev = iprev;
        } else {
            self.instr_tail[instr] = iprev;
        }

        // Free list.
        let slot = &mut self.slots[handle as usize];
        slot.prev = self.free;
        slot.next = NIL;
        slot.instr_prev = NIL;
        slot.instr_next = NIL;
        self.free = handle;

        self.len -= 1;
        req
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptw_types::addr::VirtPage;
    use ptw_types::time::Cycle;

    fn req(seq: u64, instr: u32) -> WalkRequest<u64> {
        WalkRequest {
            page: VirtPage::new(seq),
            instr: InstrId::new(instr),
            seq,
            enqueued_at: Cycle::ZERO,
            own_estimate: 1,
            score: 0,
            bypassed: 0,
            waiter: seq,
        }
    }

    fn arrival_seqs(buf: &WalkBuffer<u64>) -> Vec<u64> {
        buf.iter().map(|(_, r)| r.seq).collect()
    }

    fn chain_seqs(buf: &WalkBuffer<u64>, instr: u32) -> Vec<u64> {
        let mut out = Vec::new();
        let mut h = buf.instr_first(InstrId::new(instr));
        while let Some(handle) = h {
            out.push(buf.get(handle).seq);
            h = buf.instr_next(handle);
        }
        out
    }

    #[test]
    fn preserves_arrival_order_across_removals() {
        let mut buf = WalkBuffer::new();
        let handles: Vec<u32> = (0..6).map(|i| buf.push(req(i, (i % 2) as u32))).collect();
        assert_eq!(arrival_seqs(&buf), vec![0, 1, 2, 3, 4, 5]);
        // Remove middle, head, tail.
        assert_eq!(buf.remove(handles[2]).seq, 2);
        assert_eq!(buf.remove(handles[0]).seq, 0);
        assert_eq!(buf.remove(handles[5]).seq, 5);
        assert_eq!(arrival_seqs(&buf), vec![1, 3, 4]);
        assert_eq!(buf.len(), 3);
    }

    #[test]
    fn instruction_chains_track_membership() {
        let mut buf = WalkBuffer::new();
        let handles: Vec<u32> = (0..6).map(|i| buf.push(req(i, (i % 2) as u32))).collect();
        assert_eq!(chain_seqs(&buf, 0), vec![0, 2, 4]);
        assert_eq!(chain_seqs(&buf, 1), vec![1, 3, 5]);
        buf.remove(handles[2]);
        assert_eq!(chain_seqs(&buf, 0), vec![0, 4]);
        buf.remove(handles[0]);
        buf.remove(handles[4]);
        assert_eq!(chain_seqs(&buf, 0), vec![]);
        assert_eq!(buf.instr_first(InstrId::new(0)), None);
        assert_eq!(chain_seqs(&buf, 1), vec![1, 3, 5]);
    }

    #[test]
    fn slots_are_reused_and_handles_stay_stable() {
        let mut buf = WalkBuffer::new();
        let a = buf.push(req(0, 0));
        let b = buf.push(req(1, 1));
        buf.remove(a);
        // The freed slot is reused; `b` still resolves to its request.
        let c = buf.push(req(2, 0));
        assert_eq!(c, a, "freed slot should be recycled");
        assert_eq!(buf.get(b).seq, 1);
        assert_eq!(buf.get(c).seq, 2);
        // Arrival order is push order, not slot order.
        assert_eq!(arrival_seqs(&buf), vec![1, 2]);
    }

    #[test]
    fn mutation_through_handles() {
        let mut buf = WalkBuffer::new();
        let a = buf.push(req(0, 7));
        let b = buf.push(req(1, 7));
        buf.get_mut(a).score = 9;
        buf.get_mut(b).bypassed = 3;
        assert_eq!(buf.get(a).score, 9);
        assert_eq!(buf.get(b).bypassed, 3);
    }

    #[test]
    #[should_panic]
    fn stale_handle_panics() {
        let mut buf = WalkBuffer::new();
        let a = buf.push(req(0, 0));
        buf.remove(a);
        buf.get(a);
    }

    #[test]
    fn empty_chain_lookup_for_unknown_instruction() {
        let buf: WalkBuffer<u64> = WalkBuffer::new();
        assert_eq!(buf.instr_first(InstrId::new(1234)), None);
        assert!(buf.is_empty());
    }
}
