use crate::Controller;
use wormsim::{CongestionControl, Network};

/// The **At-Least-One** (ALO) congestion-control baseline of Baydal, López &
/// Duato, as described in §5.1 of the paper.
///
/// ALO estimates global congestion *locally* at each node: a packet may be
/// injected iff
///
/// * at least one virtual channel is free on **every** useful physical
///   channel, **or**
/// * at least one useful physical channel has **all** its virtual channels
///   free,
///
/// where *useful* means an output channel that can be used without violating
/// the minimal-routing constraint: a set bit of
/// [`Network::productive_ports`], the mask the adaptive router reads.
/// Because it relies on local symptoms of congestion (back-pressure filling
/// up the source router's channels), ALO reacts later than the paper's
/// globally informed scheme — which is exactly the comparison Figures 3 and
/// 7 make.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AloControl {
    throttled_last_cycle: bool,
}

impl AloControl {
    /// Creates the baseline controller.
    #[must_use]
    pub fn new() -> Self {
        AloControl::default()
    }
}

impl CongestionControl for AloControl {
    fn on_cycle(&mut self, _now: u64, _net: &Network) {
        self.throttled_last_cycle = false;
    }

    fn allow_injection(&mut self, _now: u64, node: usize, dst: usize, net: &Network) -> bool {
        let mut useful = net.productive_ports(node, dst);
        if useful == 0 {
            return true; // local delivery consumes no network channels
        }
        let vcs = net.config().vcs;
        let mut every_channel_has_a_free_vc = true;
        let mut some_channel_fully_free = false;
        while useful != 0 {
            let port = useful.trailing_zeros() as usize;
            useful &= useful - 1;
            let free = (0..vcs)
                .filter(|&vc| !net.output_vc_allocated(node, port, vc))
                .count();
            if free == 0 {
                every_channel_has_a_free_vc = false;
            }
            if free == vcs {
                some_channel_fully_free = true;
            }
        }
        let allow = every_channel_has_a_free_vc || some_channel_fully_free;
        if !allow {
            self.throttled_last_cycle = true;
        }
        allow
    }

    fn throttled_recently(&self) -> bool {
        self.throttled_last_cycle
    }

    fn name(&self) -> &'static str {
        "alo"
    }

    fn next_wakeup(&self, _now: u64) -> u64 {
        // ALO has no internal clock: it only reads router state at
        // injection attempts, and a quiescent network offers none. Skipped
        // `on_cycle`s would only have re-cleared an already-clear flag.
        u64::MAX
    }
}

impl Controller for AloControl {
    // ALO is locally informed: no census feed, no side-band, no global
    // gate. Only the checkpoint walkers carry state.
    fn save_state(&self, enc: &mut checkpoint::Enc) {
        enc.bool(self.throttled_last_cycle);
    }

    fn restore_state(
        &mut self,
        dec: &mut checkpoint::Dec<'_>,
    ) -> Result<(), checkpoint::CheckpointError> {
        self.throttled_last_cycle = dec.bool()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormsim::{DeadlockMode, NetConfig, Network, NoControl, Offer};

    #[test]
    fn allows_injection_on_an_idle_network() {
        let net = Network::new(NetConfig::small(DeadlockMode::Avoidance)).unwrap();
        let mut alo = AloControl::new();
        assert!(alo.allow_injection(0, 0, 9, &net));
        assert!(!alo.throttled_recently());
    }

    #[test]
    fn allows_local_delivery_unconditionally() {
        let net = Network::new(NetConfig::small(DeadlockMode::Avoidance)).unwrap();
        let mut alo = AloControl::new();
        assert!(alo.allow_injection(0, 5, 5, &net));
    }

    #[test]
    fn throttles_under_sustained_overload() {
        // Saturate a small recovery-mode network; ALO must eventually refuse
        // injections at some node (all useful channels partially busy).
        let mut net = Network::new(NetConfig::small(DeadlockMode::PAPER_RECOVERY)).unwrap();
        let mut seed = 0x12345678u64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let nodes = net.torus().node_count();
        let mut source = move |_now: u64, offer: &mut Offer<'_>| {
            for node in 0..nodes {
                offer(node, (rng() as usize) % nodes);
            }
        };
        for _ in 0..3_000 {
            net.cycle_from(&mut source, &mut NoControl);
        }
        let mut alo = AloControl::new();
        let denied = (0..nodes)
            .filter(|&n| {
                let dst = (n + nodes / 2) % nodes;
                !alo.allow_injection(0, n, dst, &net)
            })
            .count();
        assert!(denied > 0, "ALO should throttle somewhere under overload");
        assert!(alo.throttled_recently());
    }
}
