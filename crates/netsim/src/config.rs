use core::fmt;
use kncube::{TopologyError, Torus};

/// Deepest supported VC edge buffer, in flits. A flit ring's cursor word
/// keeps its head and length in 24 bits each, and real router buffers are
/// orders of magnitude shallower.
pub const MAX_BUF_DEPTH: usize = 1 << 16;

/// Longest supported hop latency, in cycles. A buffered flit keeps the low
/// 32 bits of its ready cycle, which tell the next `hop_latency` cycles
/// from the past ones only while `hop_latency` is far below 2³¹.
pub const MAX_HOP_LATENCY: u64 = 1 << 16;

/// Largest supported source queue, in packets. Source queues are
/// fixed-capacity rings allocated eagerly per node, so an absurd capacity
/// would be an absurd allocation.
pub const MAX_SOURCE_QUEUE_CAP: usize = 1 << 20;

/// Largest supported network, in nodes: the switch plane names a
/// downstream router in 21 bits of a packed `u32`.
pub const MAX_NODES: usize = 1 << 21;

/// How the network deals with deadlock among fully adaptive channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadlockMode {
    /// Duato-style deadlock **avoidance**: virtual channel 0 of every
    /// physical channel is an *escape* channel restricted to oblivious
    /// dimension-order routing (on the mesh sub-network, which is
    /// deadlock-free with a single VC); the remaining VCs route fully
    /// adaptively and minimally. Multiple deadlock cycles can drain
    /// concurrently through the escape channels.
    Avoidance,
    /// Disha-style progressive deadlock **recovery**: all VCs route fully
    /// adaptively and minimally; a packet whose header makes no progress for
    /// `timeout` cycles becomes a recovery candidate. One packet at a time
    /// (a global token) drains through per-router deadlock buffers along a
    /// dimension-order path to its destination.
    Recovery {
        /// Head-blocked cycles before a packet is suspected deadlocked.
        timeout: u64,
    },
}

impl DeadlockMode {
    /// The paper's recovery configuration (Disha, 8-cycle timeout).
    pub const PAPER_RECOVERY: DeadlockMode = DeadlockMode::Recovery { timeout: 8 };
}

/// Static configuration of the simulated network (§5.1 of the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct NetConfig {
    /// Torus radix `k` (16 in the paper).
    pub radix: usize,
    /// Torus dimension count `n` (2 in the paper).
    pub dimensions: usize,
    /// Virtual channels per physical channel (3 in the paper).
    pub vcs: usize,
    /// Edge-buffer depth per virtual channel, in flits (8 in the paper).
    pub buf_depth: usize,
    /// Packet length in flits (16 in the paper).
    pub packet_len: usize,
    /// Deadlock handling scheme.
    pub deadlock: DeadlockMode,
    /// Per-hop pipeline latency in cycles: 1 cycle crossbar + 1 cycle link.
    pub hop_latency: u64,
    /// Source queue capacity in packets; generation is refused (and counted)
    /// when the queue is full, bounding open-loop memory use.
    pub source_queue_cap: usize,
}

impl NetConfig {
    /// The paper's 16-ary 2-cube configuration with the given deadlock mode.
    #[must_use]
    pub fn paper(deadlock: DeadlockMode) -> Self {
        NetConfig {
            radix: 16,
            dimensions: 2,
            vcs: 3,
            buf_depth: 8,
            packet_len: 16,
            deadlock,
            hop_latency: 2,
            source_queue_cap: 64,
        }
    }

    /// A small 8-ary 2-cube, handy for tests and quick examples.
    #[must_use]
    pub fn small(deadlock: DeadlockMode) -> Self {
        NetConfig {
            radix: 8,
            ..NetConfig::paper(deadlock)
        }
    }

    /// Builds the torus for this configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`TopologyError`] for invalid `radix`/`dimensions`.
    pub fn torus(&self) -> Result<Torus, TopologyError> {
        Torus::new(self.radix, self.dimensions)
    }

    /// Validates the full configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] describing the first violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let torus = self.torus().map_err(ConfigError::Topology)?;
        if torus.node_count() > MAX_NODES {
            return Err(ConfigError::TooManyNodes {
                nodes: torus.node_count(),
            });
        }
        if self.vcs == 0 || self.vcs > 8 {
            return Err(ConfigError::BadVcCount { vcs: self.vcs });
        }
        if 2 * self.dimensions * self.vcs + 1 > 64 {
            return Err(ConfigError::TooManyFeeders {
                feeders: 2 * self.dimensions * self.vcs + 1,
            });
        }
        if matches!(self.deadlock, DeadlockMode::Avoidance) && self.vcs < 2 {
            return Err(ConfigError::AvoidanceNeedsAdaptiveVc);
        }
        if self.buf_depth == 0 {
            return Err(ConfigError::ZeroBufferDepth);
        }
        if self.buf_depth > MAX_BUF_DEPTH {
            return Err(ConfigError::BufferTooDeep {
                depth: self.buf_depth,
            });
        }
        if self.packet_len == 0 || self.packet_len > usize::from(u16::MAX) {
            return Err(ConfigError::BadPacketLen {
                len: self.packet_len,
            });
        }
        if self.hop_latency == 0 {
            return Err(ConfigError::ZeroHopLatency);
        }
        if self.hop_latency > MAX_HOP_LATENCY {
            return Err(ConfigError::HopLatencyTooLong {
                latency: self.hop_latency,
            });
        }
        if self.source_queue_cap == 0 {
            return Err(ConfigError::ZeroSourceQueue);
        }
        if self.source_queue_cap > MAX_SOURCE_QUEUE_CAP {
            return Err(ConfigError::SourceQueueTooLarge {
                cap: self.source_queue_cap,
            });
        }
        if let DeadlockMode::Recovery { timeout: 0 } = self.deadlock {
            return Err(ConfigError::ZeroTimeout);
        }
        Ok(())
    }

    /// Node count `k^n`.
    ///
    /// # Panics
    ///
    /// Panics if the topology parameters are invalid (see
    /// [`NetConfig::validate`]).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.torus().expect("invalid topology").node_count()
    }

    /// Total number of network edge (VC) buffers: `nodes * 2n * vcs`.
    ///
    /// For the paper's network this is the 3072 the side-band's 12-bit count
    /// covers.
    #[must_use]
    pub fn total_vc_buffers(&self) -> usize {
        self.node_count() * 2 * self.dimensions * self.vcs
    }

    /// Number of VCs reserved as escape channels per physical channel.
    #[must_use]
    pub fn escape_vcs(&self) -> usize {
        match self.deadlock {
            DeadlockMode::Avoidance => 1,
            DeadlockMode::Recovery { .. } => 0,
        }
    }
}

/// Error returned by [`NetConfig::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The torus parameters are invalid.
    Topology(TopologyError),
    /// The network is capped at [`MAX_NODES`] nodes.
    TooManyNodes {
        /// The rejected node count.
        nodes: usize,
    },
    /// VC count must be in `1..=8`.
    BadVcCount {
        /// The rejected VC count.
        vcs: usize,
    },
    /// Deadlock avoidance needs at least one adaptive VC beyond the escape VC.
    AvoidanceNeedsAdaptiveVc,
    /// The router arbiter supports at most 64 feeders (`2 * n * vcs + 1`).
    TooManyFeeders {
        /// The rejected feeder count.
        feeders: usize,
    },
    /// Buffers must hold at least one flit.
    ZeroBufferDepth,
    /// Buffers are capped at [`MAX_BUF_DEPTH`] flits.
    BufferTooDeep {
        /// The rejected buffer depth.
        depth: usize,
    },
    /// Packets must have between 1 and `u16::MAX` flits.
    BadPacketLen {
        /// The rejected packet length.
        len: usize,
    },
    /// Hop latency must be nonzero.
    ZeroHopLatency,
    /// Hop latency is capped at [`MAX_HOP_LATENCY`] cycles.
    HopLatencyTooLong {
        /// The rejected latency.
        latency: u64,
    },
    /// Source queues must hold at least one packet.
    ZeroSourceQueue,
    /// Source queues are capped at [`MAX_SOURCE_QUEUE_CAP`] packets.
    SourceQueueTooLarge {
        /// The rejected capacity.
        cap: usize,
    },
    /// Recovery timeout must be nonzero.
    ZeroTimeout,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Topology(e) => write!(f, "invalid topology: {e}"),
            ConfigError::TooManyNodes { nodes } => {
                write!(f, "{nodes} nodes exceed the supported {MAX_NODES}")
            }
            ConfigError::BadVcCount { vcs } => write!(f, "vc count must be 1..=8, got {vcs}"),
            ConfigError::AvoidanceNeedsAdaptiveVc => {
                f.write_str("deadlock avoidance needs at least 2 VCs (1 escape + 1 adaptive)")
            }
            ConfigError::TooManyFeeders { feeders } => {
                write!(
                    f,
                    "router arbiter supports at most 64 feeders, got {feeders}"
                )
            }
            ConfigError::ZeroBufferDepth => f.write_str("buffer depth must be nonzero"),
            ConfigError::BufferTooDeep { depth } => {
                write!(f, "buffer depth {depth} exceeds {MAX_BUF_DEPTH}")
            }
            ConfigError::BadPacketLen { len } => write!(f, "packet length {len} out of range"),
            ConfigError::ZeroHopLatency => f.write_str("hop latency must be nonzero"),
            ConfigError::HopLatencyTooLong { latency } => {
                write!(f, "hop latency {latency} exceeds {MAX_HOP_LATENCY}")
            }
            ConfigError::ZeroSourceQueue => f.write_str("source queue capacity must be nonzero"),
            ConfigError::SourceQueueTooLarge { cap } => {
                write!(
                    f,
                    "source queue capacity {cap} exceeds {MAX_SOURCE_QUEUE_CAP}"
                )
            }
            ConfigError::ZeroTimeout => f.write_str("recovery timeout must be nonzero"),
        }
    }
}

impl std::error::Error for ConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConfigError::Topology(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_valid_and_has_3072_buffers() {
        let cfg = NetConfig::paper(DeadlockMode::PAPER_RECOVERY);
        cfg.validate().unwrap();
        assert_eq!(cfg.node_count(), 256);
        assert_eq!(cfg.total_vc_buffers(), 3072);
        assert_eq!(cfg.escape_vcs(), 0);
        let cfg = NetConfig::paper(DeadlockMode::Avoidance);
        assert_eq!(cfg.escape_vcs(), 1);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let base = NetConfig::paper(DeadlockMode::Avoidance);
        assert!(matches!(
            NetConfig {
                radix: 16,
                dimensions: 6,
                ..base.clone()
            }
            .validate(),
            Err(ConfigError::TooManyNodes { nodes }) if nodes == 1 << 24
        ));
        assert!(NetConfig {
            radix: 128,
            dimensions: 3,
            ..base.clone()
        }
        .validate()
        .is_ok());
        assert!(matches!(
            NetConfig {
                vcs: 0,
                ..base.clone()
            }
            .validate(),
            Err(ConfigError::BadVcCount { vcs: 0 })
        ));
        assert!(matches!(
            NetConfig {
                vcs: 1,
                ..base.clone()
            }
            .validate(),
            Err(ConfigError::AvoidanceNeedsAdaptiveVc)
        ));
        assert!(NetConfig {
            vcs: 1,
            deadlock: DeadlockMode::PAPER_RECOVERY,
            ..base.clone()
        }
        .validate()
        .is_ok());
        assert!(matches!(
            NetConfig {
                buf_depth: 0,
                ..base.clone()
            }
            .validate(),
            Err(ConfigError::ZeroBufferDepth)
        ));
        assert!(matches!(
            NetConfig {
                packet_len: 0,
                ..base.clone()
            }
            .validate(),
            Err(ConfigError::BadPacketLen { .. })
        ));
        assert!(matches!(
            NetConfig {
                hop_latency: 0,
                ..base.clone()
            }
            .validate(),
            Err(ConfigError::ZeroHopLatency)
        ));
        assert!(matches!(
            NetConfig {
                hop_latency: MAX_HOP_LATENCY + 1,
                ..base.clone()
            }
            .validate(),
            Err(ConfigError::HopLatencyTooLong { .. })
        ));
        assert!(matches!(
            NetConfig {
                deadlock: DeadlockMode::Recovery { timeout: 0 },
                ..base.clone()
            }
            .validate(),
            Err(ConfigError::ZeroTimeout)
        ));
        assert!(matches!(
            NetConfig {
                buf_depth: MAX_BUF_DEPTH + 1,
                ..base.clone()
            }
            .validate(),
            Err(ConfigError::BufferTooDeep { .. })
        ));
        assert!(matches!(
            NetConfig {
                source_queue_cap: MAX_SOURCE_QUEUE_CAP + 1,
                ..base.clone()
            }
            .validate(),
            Err(ConfigError::SourceQueueTooLarge { .. })
        ));
        assert!(matches!(
            NetConfig { radix: 1, ..base }.validate(),
            Err(ConfigError::Topology(_))
        ));
    }
}
