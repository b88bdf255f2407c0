//! The switch plane: everything the switch pass's arbitration needs to know
//! about a feeder, packed beside the other bit-planes so that arbitrating a
//! router is a handful of loads and no data-dependent branch per VC.
//!
//! Feeder `f` of `node` lives at plane index `node * (fpn + 1) + f`: the
//! `fpn = d * v` input VCs first, the injection interface last. Each index
//! holds
//!
//! * a [`Slot`] — the output port the feeder's worm is assigned, and the
//!   *credit bit* it must find clear to move: bit `dbit` of
//!   `vc_full[dnode]`, the occupancy bit of the downstream input VC.
//!   `Assign::Delivery` encodes bit 63 of the node's own word, which config
//!   validation (`fpn + 1 <= 64`) keeps permanently clear — the delivery
//!   channel always has credit, with no branch to say so;
//! * `movable_at` — the first cycle the feeder's front flit may cross the
//!   switch: `max(front.ready_at, routed_at + 1)` for a routed header (the
//!   1-cycle routing delay), `front.ready_at` for a body flit,
//!   `routed_at + 1` for the injection interface (its flits are always
//!   ready).
//!
//! The plane is **derived, never serialised**: [`Network::rebuild_derived`]
//! recomputes it from `vc_assign`, the ring fronts, `vc_routed_at` and
//! `inj` on restore, and it is written only where that state changes —
//! `ApplyCtx::set_assign` and the injection start in `route_win` (slot, and
//! `movable_at = now + 1`), `take` (the new front after a pop) and `put`
//! (a push into an empty ring).
//!
//! It is also **stale by design** wherever arbitration cannot look: the
//! slot of a VC that is not switchable (unrouted, awaiting the token,
//! recovering) keeps its previous worm's value, as does that of an idle
//! injection interface, and the `movable_at` of an empty ring is whatever
//! its last front left. The switch pass reads index `i` only under a set
//! `vc_busy & vc_switchable` bit or an active injection, and the audit
//! ([`crate::AuditKind::SwitchPlane`]) checks exactly those.
//!
//! [`Network::rebuild_derived`]: crate::Network

use crate::config::MAX_NODES;
use crate::network::Assign;
use crate::shard::Cells;

/// One feeder's packed switch-plane entry: `dbit` in bits 0–5, the output
/// port in bits 6–10, `dnode` in bits 11–31.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Slot(u32);

impl Slot {
    /// The always-clear bit of a `vc_full` word that stands for the
    /// delivery channel's credit.
    const DELIVERY_BIT: usize = 63;

    #[inline]
    pub(crate) fn new(port: usize, dnode: usize, dbit: usize) -> Self {
        debug_assert!(port < 32 && dnode < MAX_NODES && dbit < 64);
        Slot((dnode << 11 | port << 6 | dbit) as u32)
    }

    /// The slot of a worm headed for `node`'s own delivery channel (output
    /// port `d`).
    #[inline]
    pub(crate) fn delivery(node: usize, d: usize) -> Self {
        Slot::new(d, node, Self::DELIVERY_BIT)
    }

    /// Output port (`d` = the delivery channel).
    #[inline]
    pub(crate) fn port(self) -> usize {
        (self.0 >> 6 & 31) as usize
    }

    /// Node whose `vc_full` word holds the credit bit: the downstream
    /// router, or this one for a delivery.
    #[inline]
    pub(crate) fn dnode(self) -> usize {
        (self.0 >> 11) as usize
    }

    /// The credit bit: the downstream input VC's feeder index, or 63.
    #[inline]
    pub(crate) fn dbit(self) -> usize {
        (self.0 & 63) as usize
    }

    /// The slot of a feeder of `node` assigned `a`, `None` unless `a` is
    /// switchable. `out_slots` is [`crate::routing::RouteTables`]' table of
    /// the slots of every output VC.
    #[inline]
    pub(crate) fn of(
        out_slots: &[Slot],
        d: usize,
        v: usize,
        node: usize,
        a: Assign,
    ) -> Option<Slot> {
        match a {
            Assign::Out { port, vc } => {
                Some(out_slots[(node * d + usize::from(port)) * v + usize::from(vc)])
            }
            Assign::Delivery => Some(Slot::delivery(node, d)),
            Assign::None | Assign::AwaitToken | Assign::Recovery => None,
        }
    }
}

/// `movable_at` of a switchable input VC whose front flit is number
/// `front_idx` of its packet, ready at `front_ready`, routed at `routed_at`.
#[inline]
pub(crate) fn vc_movable_at(front_idx: u16, front_ready: u64, routed_at: u64) -> u64 {
    if front_idx == 0 {
        front_ready.max(inj_movable_at(routed_at))
    } else {
        front_ready
    }
}

/// `movable_at` of an injection interface routed at `routed_at`.
#[inline]
pub(crate) fn inj_movable_at(routed_at: u64) -> u64 {
    routed_at.saturating_add(1)
}

/// Demand-slotted round-robin over a requester bitmask: the lowest set bit
/// of `mask` at or above `cursor`, else (wrapping) the lowest set bit.
/// `mask` must be non-zero; a cursor past bit 63 wraps like any other.
#[inline]
pub(crate) fn rr_pick(mask: u64, cursor: usize) -> usize {
    debug_assert!(mask != 0, "arbitrating no requesters");
    let at_or_above = if cursor < 64 {
        mask >> cursor << cursor
    } else {
        0
    };
    let from = if at_or_above != 0 { at_or_above } else { mask };
    from.trailing_zeros() as usize
}

/// The plane's storage; see the module docs.
#[derive(Debug)]
pub(crate) struct SwitchPlane {
    slot: Vec<Slot>,
    movable_at: Vec<u64>,
}

impl SwitchPlane {
    /// A plane for `nodes` routers of `fpn` input VCs each, every entry
    /// stale (nothing is busy or injecting yet).
    pub(crate) fn new(nodes: usize, fpn: usize) -> Self {
        SwitchPlane {
            slot: vec![Slot(0); nodes * (fpn + 1)],
            movable_at: vec![0; nodes * (fpn + 1)],
        }
    }

    #[inline]
    pub(crate) fn slot(&self, i: usize) -> Slot {
        self.slot[i]
    }

    #[inline]
    pub(crate) fn movable_at(&self, i: usize) -> u64 {
        self.movable_at[i]
    }

    /// The plane as checked cells owning every index — what the pass
    /// views ([`crate::shard::ApplyCtx`]) work through.
    #[inline]
    pub(crate) fn view(&mut self) -> SwitchPlaneView<'_> {
        SwitchPlaneView {
            slot: Cells::new(&mut self.slot),
            movable_at: Cells::new(&mut self.movable_at),
        }
    }
}

/// A [`SwitchPlane`] as checked cells over a range of its indices.
/// Touching an index outside the range panics.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SwitchPlaneView<'a> {
    slot: Cells<'a, Slot>,
    movable_at: Cells<'a, u64>,
}

impl SwitchPlaneView<'_> {
    /// The same plane owning only indices `lo..hi`.
    pub(crate) fn narrow(self, lo: usize, hi: usize) -> Self {
        SwitchPlaneView {
            slot: self.slot.narrow(lo, hi),
            movable_at: self.movable_at.narrow(lo, hi),
        }
    }

    #[inline]
    pub(crate) fn slot(&self, i: usize) -> Slot {
        self.slot.get(i)
    }

    #[inline]
    pub(crate) fn movable_at(&self, i: usize) -> u64 {
        self.movable_at.get(i)
    }

    #[inline]
    pub(crate) fn set_slot(&self, i: usize, s: Slot) {
        self.slot.set(i, s);
    }

    #[inline]
    pub(crate) fn set_movable_at(&self, i: usize, at: u64) {
        self.movable_at.set(i, at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The obvious definition: walk the feeders from the cursor, wrapping.
    fn rr_pick_linear(mask: u64, cursor: usize) -> usize {
        (cursor..64)
            .chain(0..cursor.min(64))
            .find(|&f| mask >> f & 1 == 1)
            .unwrap()
    }

    #[test]
    fn rr_pick_matches_the_linear_definition() {
        for mask in 1u64..1 << 10 {
            for cursor in 0..=10 {
                assert_eq!(
                    rr_pick(mask, cursor),
                    rr_pick_linear(mask, cursor),
                    "mask {mask:#b} cursor {cursor}"
                );
            }
        }
        let top = 1u64 << 63;
        for mask in [top, top | 1, top | 1 << 62, !0] {
            for cursor in [0, 1, 62, 63, 64, 65, usize::MAX] {
                assert_eq!(
                    rr_pick(mask, cursor),
                    rr_pick_linear(mask, cursor),
                    "mask {mask:#x} cursor {cursor}"
                );
            }
        }
        assert_eq!(rr_pick(top | 1, 63), 63);
        assert_eq!(rr_pick(top | 1, 64), 0);
        assert_eq!(rr_pick(0b0110, 3), 1);
    }

    #[test]
    fn slot_fields_round_trip() {
        for (port, dnode, dbit) in [(0, 0, 0), (16, MAX_NODES - 1, 63), (3, 1727, 17)] {
            let s = Slot::new(port, dnode, dbit);
            assert_eq!((s.port(), s.dnode(), s.dbit()), (port, dnode, dbit));
        }
        let s = Slot::delivery(9, 4);
        assert_eq!((s.port(), s.dnode(), s.dbit()), (4, 9, 63));
    }

    #[test]
    #[should_panic(expected = "outside the view's owned range")]
    fn an_index_outside_the_views_range_panics() {
        let mut plane = SwitchPlane::new(4, 3);
        plane.view().narrow(0, 8).set_movable_at(8, 1);
    }
}
