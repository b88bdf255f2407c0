//! Adversarial checkpoint corpus: a valid snapshot is truncated at every
//! length and bit-flipped byte-by-byte in a seeded sweep, and restore must
//! always fail *typed* (or succeed cleanly) — never panic, never OOM on a
//! hostile length field.
//!
//! Two layers are attacked separately:
//!
//! 1. **Container layer** (`checkpoint::open`): every truncation and every
//!    single-byte flip of the sealed bytes must be rejected (CRC-32 covers
//!    the whole container, so any flip is detectable).
//! 2. **Payload layer** (`Simulation::restore` on a *re-sealed* mutated
//!    payload): the CRC is recomputed so the mutation reaches the decoders
//!    themselves. Structurally invalid payloads must fail with a typed
//!    `CheckpointError`; payloads that decode into an inconsistent state
//!    must be caught by the restore-boundary invariant audit
//!    (`SimError::Audit`); genuinely benign mutations may succeed.

use sideband::SidebandConfig;
use stcc::{BbrConfig, Controller, DecBitConfig, Scheme, SimConfig, SimError, Simulation};
use traffic::{Pattern, Process, Workload, WorkloadRunner};
use wormsim::{DeadlockMode, NetConfig};

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A tiny (16-node) mid-traffic snapshot, small enough for every-byte
/// sweeps to stay fast.
fn snapshot() -> (SimConfig, Vec<u8>) {
    snapshot_under(Scheme::Base)
}

fn snapshot_under(scheme: Scheme) -> (SimConfig, Vec<u8>) {
    let cfg = SimConfig {
        net: NetConfig {
            radix: 4,
            dimensions: 2,
            vcs: 2,
            buf_depth: 2,
            packet_len: 4,
            source_queue_cap: 4,
            ..NetConfig::small(DeadlockMode::Recovery { timeout: 8 })
        },
        workload: Workload::steady(Pattern::UniformRandom, Process::bernoulli(0.1)),
        scheme,
        cycles: 2_000,
        warmup: 200,
        seed: 3,
    };
    let mut sim = Simulation::new(cfg.clone()).unwrap();
    while sim.now() < 600 {
        sim.step();
    }
    let snap = sim.checkpoint();
    (cfg, snap)
}

/// Byte offsets, in a simulation payload (which the network state opens).
struct Offsets {
    /// The routing assignment of input VC 0.
    vc_assign: usize,
    /// The routing assignment of node 0's injection interface.
    inj_assign: usize,
    /// The first live packet's record in the packet store.
    first_packet: usize,
}

fn offsets(payload: &[u8], net: &NetConfig) -> Offsets {
    let mut dec = checkpoint::Dec::new(payload);
    let at = |dec: &checkpoint::Dec<'_>| payload.len() - dec.remaining();
    let skip = |dec: &mut checkpoint::Dec<'_>, bytes: usize| {
        for _ in 0..bytes {
            dec.u8().unwrap();
        }
    };
    let skip_assign = |dec: &mut checkpoint::Dec<'_>| {
        if dec.u8().unwrap() == 1 {
            skip(dec, 2); // port, VC
        }
    };
    // Clock, two progress markers, sixteen counters.
    skip(&mut dec, 3 * 8 + 16 * 8);
    let n_vcs = dec.usize().unwrap();
    assert_eq!(n_vcs, net.total_vc_buffers());
    let mut vc_assign = None;
    for _ in 0..n_vcs {
        let flits = dec.usize().unwrap();
        skip(&mut dec, flits * (4 + 2 + 8));
        vc_assign.get_or_insert(at(&dec));
        skip_assign(&mut dec);
        skip(&mut dec, 8 + 8); // routed-at, blocked count
    }
    skip(&mut dec, n_vcs); // output-VC allocation flags
    let nodes = net.node_count();
    let mut inj_assign = None;
    for _ in 0..nodes {
        skip(&mut dec, 1 + 4 + 2); // active, packet, sent
        inj_assign.get_or_insert(at(&dec));
        skip_assign(&mut dec);
        skip(&mut dec, 8); // routed-at
    }
    for _ in 0..nodes {
        let queued = dec.usize().unwrap();
        skip(&mut dec, 4 * queued);
    }
    skip(&mut dec, 8); // slot count
    let freed = dec.usize().unwrap();
    skip(&mut dec, 4 * freed);
    Offsets {
        vc_assign: vc_assign.unwrap(),
        inj_assign: inj_assign.unwrap(),
        first_packet: at(&dec),
    }
}

/// Hand-built: snapshots under the two laws whose state carries a
/// length-prefixed list, with that length overwritten by `len`. Yields the
/// configuration and the re-sealed container.
fn hostile_list_lengths(len: impl Fn(u32) -> u32) -> Vec<(SimConfig, Vec<u8>)> {
    let sideband = SidebandConfig {
        radix: 4,
        vcs: 2,
        ..SidebandConfig::paper()
    };
    let bbr = BbrConfig {
        sideband: sideband.clone(),
        ..BbrConfig::paper()
    };
    let decbit = DecBitConfig {
        sideband,
        ..DecBitConfig::paper()
    };
    // The scaffold's frame between the side-band state and the law: the
    // sizing record (flag, u32), the gate bit, `last_good`, `frozen`, the
    // rejections seen, the period being folded (delivered, the previous
    // period's as flag + u64, the census sum, the gathers, the gate-closed
    // and total cycles) and the six counters.
    const FRAME: usize = 1 + 4 + 1 + 8 + 1 + 8 + (8 + 9 + 8 + 4 + 2 * 8) + 6 * 8;
    // (scheme, the list's capacity, bytes between the side-band state and
    // the length: the frame, then BBR's sample counter).
    let cases = [
        (Scheme::Bbr(bbr.clone()), bbr.filter_gathers, FRAME + 8),
        (Scheme::DecBit(decbit.clone()), decbit.window_gathers, FRAME),
    ];
    let mut built = Vec::new();
    for (scheme, capacity, law_head) in cases {
        let (cfg, snap) = snapshot_under(scheme);
        let fp = checkpoint::peek_fingerprint(&snap).unwrap();
        let mut payload = checkpoint::open(&snap, fp).unwrap().to_vec();
        // Find the controller's bytes inside the payload by re-serialising
        // the controller of the restored simulation on its own.
        let sim = Simulation::restore(cfg.clone(), None, &snap).unwrap();
        let (mut ctl, mut sb) = (checkpoint::Enc::new(), checkpoint::Enc::new());
        sim.controller().save_state(&mut ctl);
        sim.controller().sideband().unwrap().save_state(&mut sb);
        let (ctl, sb) = (ctl.into_vec(), sb.into_vec());
        let at = payload
            .windows(ctl.len())
            .position(|w| w == ctl)
            .expect("controller bytes are in the payload");
        let len_at = at + 1 + sb.len() + law_head; // 1: the variant tag
        let old = u32::from_le_bytes(payload[len_at..len_at + 4].try_into().unwrap());
        assert!((1..=capacity).contains(&old), "not the length field");
        payload[len_at..len_at + 4].copy_from_slice(&len(capacity).to_le_bytes());
        built.push((cfg, checkpoint::seal(fp, &payload)));
    }
    built
}

#[test]
fn container_rejects_every_truncation_and_bit_flip() {
    let (_, snap) = snapshot();
    let fp = checkpoint::peek_fingerprint(&snap).unwrap();
    assert!(checkpoint::open(&snap, fp).is_ok(), "baseline must open");
    for len in 0..snap.len() {
        assert!(
            checkpoint::open(&snap[..len], fp).is_err(),
            "truncation to {len} bytes accepted"
        );
    }
    for i in 0..snap.len() {
        let mut bytes = snap.clone();
        // Seeded nonzero mask: a different flip pattern per offset.
        bytes[i] ^= (mix(0xc0ffee ^ i as u64) | 1) as u8;
        assert!(
            checkpoint::open(&bytes, fp).is_err(),
            "bit flip at byte {i} accepted"
        );
    }
}

#[test]
fn restore_survives_payload_mutations_without_panicking() {
    let (cfg, snap) = snapshot();
    let fp = checkpoint::peek_fingerprint(&snap).unwrap();
    let payload = checkpoint::open(&snap, fp).unwrap().to_vec();

    // Re-sealing the pristine payload must restore cleanly.
    assert!(Simulation::restore(cfg.clone(), None, &checkpoint::seal(fp, &payload)).is_ok());

    // Every proper payload prefix, re-sealed with a correct CRC, must be
    // rejected by the structural decoders (typed, no panic).
    for len in 0..payload.len() {
        let sealed = checkpoint::seal(fp, &payload[..len]);
        assert!(
            Simulation::restore(cfg.clone(), None, &sealed).is_err(),
            "payload truncated to {len} bytes restored"
        );
    }

    // Byte-by-byte seeded flips of the payload, re-sealed so the mutation
    // reaches the decoders. Any outcome but a panic/abort is acceptable;
    // typed errors and audit rejections are counted to prove the sweep
    // actually exercises both defense layers.
    let (mut typed, mut audited, mut clean) = (0u32, 0u32, 0u32);
    for i in 0..payload.len() {
        let mut mutated = payload.clone();
        mutated[i] ^= (mix(0xbadc0de ^ i as u64) | 1) as u8;
        let sealed = checkpoint::seal(fp, &mutated);
        match Simulation::restore(cfg.clone(), None, &sealed) {
            Ok(_) => clean += 1,
            Err(SimError::Audit(_)) => audited += 1,
            Err(_) => typed += 1,
        }
    }
    // Hand-built: an assignment naming an output the router does not
    // have — a port past `d` on an input VC, a VC past `v` on an injection
    // interface. Restore rebuilds the switch plane from the assignments, so
    // these must die in the decoder, not reach it.
    let at = offsets(&payload, &cfg.net);
    let (d, v) = (2 * cfg.net.dimensions as u8, cfg.net.vcs as u8);
    for (at, out) in [(at.vc_assign, [1, d, 0]), (at.inj_assign, [1, 0, v])] {
        let old_len = if payload[at] == 1 { 3 } else { 1 };
        let mut built = payload[..at].to_vec();
        built.extend_from_slice(&out);
        built.extend_from_slice(&payload[at + old_len..]);
        let outcome = Simulation::restore(cfg.clone(), None, &checkpoint::seal(fp, &built));
        assert!(
            matches!(
                outcome,
                Err(SimError::Checkpoint(checkpoint::CheckpointError::Corrupt(
                    _
                )))
            ),
            "out-of-range assignment {out:?} at byte {at}: {:?}",
            outcome.err()
        );
    }

    // Hand-built: a live packet whose source or destination is no node.
    // The next step would index the routing digits or the per-source
    // delivery counts with it, so restore must refuse it, typed.
    let record = offsets(&payload, &cfg.net).first_packet;
    assert!(payload[record] <= 2, "not a packet record tag");
    for field in [record + 1, record + 5] {
        let mut built = payload.clone();
        built[field..field + 4].copy_from_slice(&1_000_000u32.to_le_bytes());
        let outcome = Simulation::restore(cfg.clone(), None, &checkpoint::seal(fp, &built));
        assert!(
            matches!(
                outcome,
                Err(SimError::Checkpoint(checkpoint::CheckpointError::Corrupt(
                    _
                )))
            ),
            "packet endpoint 1000000 at byte {field}: {:?}",
            outcome.err()
        );
    }

    // Hand-built: a filter or window length past what the configuration
    // allows — one entry too many, and the 64 GB `u32::MAX` entries would
    // ask for — behind a valid CRC. It must be refused before anything is
    // allocated for it.
    for len in [|capacity: u32| capacity + 1, |_| u32::MAX] {
        for (cfg, sealed) in hostile_list_lengths(len) {
            let outcome = Simulation::restore(cfg.clone(), None, &sealed);
            assert!(
                matches!(
                    outcome,
                    Err(SimError::Checkpoint(checkpoint::CheckpointError::Corrupt(
                        _
                    )))
                ),
                "{}: hostile list length: {:?}",
                cfg.scheme.label(),
                outcome.err()
            );
        }
    }

    assert!(typed > 0, "sweep never hit a structural decoder error");
    assert!(audited > 0, "sweep never hit the restore-boundary audit");
    // `clean` may be zero; benign bytes (e.g. latency-stat accumulators)
    // usually exist, but nothing guarantees the seed hits one.
    let total = typed + audited + clean;
    assert_eq!(total as usize, payload.len());
}

/// `WorkloadRunner::restore_state` is all-or-nothing and refuses state no
/// run produces. Three hand-built payloads — cut short inside its last
/// field, a dead generator, phase tracking the schedule cannot produce —
/// each fail typed and leave the runner exactly as it was: same bytes, same
/// arrivals from there on.
#[test]
fn workload_restore_commits_nothing_on_failure() {
    const NODES: usize = 16;
    let wl = Workload::bursty(100, 50, 5);
    let save = |r: &WorkloadRunner| {
        let mut enc = checkpoint::Enc::new();
        r.save_state(&mut enc);
        enc.into_vec()
    };
    // The donor is inside the second phase; the victim still in the first.
    let mut donor = WorkloadRunner::new(&wl, NODES, 5).unwrap();
    for now in 0..150 {
        donor.arrivals(now, |_, _| {});
    }
    let good = save(&donor);
    let (phase_at, start_at) = (good.len() - 16, good.len() - 8);
    assert_eq!(
        good[phase_at..],
        [1u64.to_le_bytes(), 100u64.to_le_bytes()].concat()
    );
    let with = |at: usize, bytes: &[u8]| {
        let mut built = good.clone();
        built[at..at + bytes.len()].copy_from_slice(bytes);
        built
    };
    use checkpoint::CheckpointError::{Corrupt, Truncated};
    let cases = [
        (
            "cut inside the phase start",
            good[..good.len() - 3].to_vec(),
            false,
        ),
        ("all-zero generator", with(0, &[0; 32]), true),
        (
            "phase 1 cannot start at 150",
            with(start_at, &150u64.to_le_bytes()),
            true,
        ),
        (
            "cycle 100 is phase 1's, not 3's",
            with(phase_at, &3u64.to_le_bytes()),
            true,
        ),
        (
            "phase past the schedule",
            with(phase_at, &9u64.to_le_bytes()),
            true,
        ),
        (
            // Node 0's deadline follows the generator and the node count.
            "a deadline from before phase 1 began",
            with(32 + 8, &99u64.to_le_bytes()),
            true,
        ),
    ];
    let mut victim = WorkloadRunner::new(&wl, NODES, 8).unwrap();
    for now in 0..40 {
        victim.arrivals(now, |_, _| {});
    }
    let before = save(&victim);
    for (what, bytes, corrupt) in cases {
        let outcome = victim.restore_state(&mut checkpoint::Dec::new(&bytes));
        match outcome {
            Err(Corrupt(_)) if corrupt => {}
            Err(Truncated { .. }) if !corrupt => {}
            other => panic!("{what}: {other:?}"),
        }
        assert_eq!(
            save(&victim),
            before,
            "{what}: a failed restore wrote state"
        );
    }
    let mut untouched = WorkloadRunner::new(&wl, NODES, 8).unwrap();
    let (mut got, mut want) = (Vec::new(), Vec::new());
    for now in 0..140 {
        if now < 40 {
            untouched.arrivals(now, |_, _| {});
        } else {
            victim.arrivals(now, |node, dst| got.push((now, node, dst)));
            untouched.arrivals(now, |node, dst| want.push((now, node, dst)));
        }
    }
    assert!(!want.is_empty(), "vacuous: nothing generated");
    assert_eq!(got, want);
    // And the pristine payload still restores.
    victim
        .restore_state(&mut checkpoint::Dec::new(&good))
        .unwrap();
    assert_eq!(save(&victim), good);
}
