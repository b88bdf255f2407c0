//! Disha-style progressive deadlock recovery.
//!
//! In recovery mode every VC routes fully adaptively, so cyclic waits can
//! form. A packet is *suspected* deadlocked when its header has been
//! ready-but-unrouted for `timeout` consecutive cycles and no flit of the
//! whole worm has moved for as long (the routing stage detects this and
//! queues the packet for the token). Suspects keep retrying normal routing;
//! capturing the single network-wide token is the commitment point. The
//! token holder drains, one flit per cycle, through per-router deadlock
//! buffers along a dimension-order path to its destination, bypassing the
//! ordinary virtual channels entirely. The token is released when the tail
//! is consumed.
//!
//! This serialization is exactly why the paper's deadlock-recovery network
//! collapses so hard past saturation: when deadlocks become frequent, the
//! only forward progress happens over this one-packet-at-a-time drain path.

use crate::network::{Assign, Network, RecoveryJob, DL_DEPTH};

impl Network {
    /// Grants the recovery token (if free) to the longest-waiting suspect
    /// and advances the active recovery by one cycle.
    pub(crate) fn recovery_stage(&mut self, now: u64) {
        if self.recovery.is_none() {
            self.grant_token();
        }
        let Some(mut job) = self.recovery.take() else {
            return;
        };
        self.counters.stage_drain_steps += 1;
        let finished = self.advance_recovery(now, &mut job);
        if finished {
            debug_assert!(job.tail_in, "tail delivered before leaving the source VC");
            // Recycle the path's backing storage for the next grant.
            self.path_scratch = job.path;
        } else {
            self.recovery = Some(job);
        }
    }

    fn grant_token(&mut self) {
        // Suspected packets are served in suspicion order (FIFO token
        // hand-off). Entries whose packet escaped back to normal routing in
        // the meantime are skipped.
        let idx = loop {
            if self.token_queue.is_empty(0) {
                return;
            }
            let idx = self.token_queue.pop_front(0) as usize;
            self.vc_queued[idx] = false;
            if matches!(self.vc_assign[idx], Assign::AwaitToken) {
                break idx;
            }
        };
        let pid = self
            .vc_bufs
            .front(idx)
            .expect("candidate VC has a blocked header")
            .packet;
        let view = self.apply_ctx();
        let (node, f) = (idx / view.fpn, idx % view.fpn);
        // A suspect's blocked count is 0 already, as a recovering VC's is.
        view.set_assign(node, f, Assign::Recovery);
        let dst = self.packets.get(pid).dst;
        // The scratch vector is kept at diameter+1 capacity, so building the
        // path allocates nothing in steady state.
        let mut path = std::mem::take(&mut self.path_scratch);
        path.reserve(self.max_path);
        self.tables.dimension_order_walk(node, dst, &mut path);
        self.recovery = Some(RecoveryJob {
            packet: pid,
            path,
            src_vc: idx,
            tail_in: false,
        });
    }

    /// Moves the recovering packet's flits one step: delivery end first so a
    /// vacated buffer can be refilled in the same cycle (pipelined drain).
    /// Returns whether the tail was delivered.
    fn advance_recovery(&mut self, now: u64, job: &mut RecoveryJob) -> bool {
        let last = job.path.len() - 1;
        let mut finished = false;

        for i in (0..=last).rev() {
            let r = job.path[i];
            if self.dl_bufs.is_empty(r) {
                continue;
            }
            if self.dl_bufs.front_ready_at(r) > now {
                continue;
            }
            if i == last {
                // A hot, non-consuming destination stalls the recovery
                // drain exactly as it stalls the normal delivery channel.
                if self.delivery_stalled(r, now) {
                    self.counters.hotspot_stall_cycles += 1;
                    continue;
                }
                // The switch pass's delivery, both halves at once.
                let flit = self.dl_bufs.pop_front(r);
                finished = self.apply_ctx().consume(flit);
                self.counters.delivered_flits += 1;
                self.last_delivery_at = now;
                self.last_progress_at = now;
                if finished {
                    self.finish_packet(now, flit.packet, true);
                }
            } else {
                let next = job.path[i + 1];
                if self.dl_bufs.len(next) < DL_DEPTH {
                    let mut flit = self.dl_bufs.pop_front(r);
                    flit.ready_at = now + self.config().hop_latency;
                    self.dl_bufs.push_back(next, flit);
                    self.last_progress_at = now;
                }
            }
        }

        // Transition: pull the packet's flits out of the blocked input VC
        // into the local deadlock buffer.
        if !job.tail_in {
            let entry = job.path[0];
            if self.dl_bufs.len(entry) < DL_DEPTH {
                let src = job.src_vc;
                debug_assert!(matches!(self.vc_assign[src], Assign::Recovery));
                if !self.vc_bufs.is_empty(src) && self.vc_bufs.front_ready_at(src) <= now {
                    debug_assert_eq!(self.vc_bufs.front_packet(src), job.packet);
                    let view = self.apply_ctx();
                    let (node, f) = (src / view.fpn, src % view.fpn);
                    let mut flit = view.vc_bufs.pop_front(src);
                    if flit.idx + 1 == view.packet_len {
                        view.set_assign(node, f, Assign::None);
                        job.tail_in = true;
                    }
                    let mut full_delta = 0;
                    view.note_vc_popped(node, f, &mut full_delta);
                    // The route pass took this cycle's credit copy already:
                    // write the pop through, for the switch pass to see.
                    view.credit.set(node, view.vc_full.get(node));
                    self.full_buffers = self.full_buffers.wrapping_add_signed(full_delta);
                    flit.ready_at = now + 1;
                    self.dl_bufs.push_back(entry, flit);
                    self.last_progress_at = now;
                }
            }
        }
        finished
    }
}
