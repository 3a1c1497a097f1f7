//! Byte-identity pin for the durable checkpoint codec.
//!
//! A fixed seeded trace replay on 4Link-4GB produces the same last
//! [`ReplayCheckpoint`] on every run, so its rendered JSON is pinned by
//! length and digest. Any change to the codec's output bytes — key
//! order, escaping, integer or hex rendering — fails here, even when
//! the round trip itself still succeeds.

use hmcsim::prelude::*;
use hmcsim::sim::Json;
use hmcsim::workloads::tracefile::{replay_with_sink, ReplayCheckpoint, ReplayConfig, TraceOp};

/// Length of the last checkpoint's `to_json()` text.
const PINNED_LEN: usize = 619_293;
/// FNV-1a digest of the last checkpoint's `to_json()` bytes.
const PINNED_FNV: u64 = 0x796d_2656_3f77_b249;

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Reads, writes and XOR16 atomics at seeded 64-byte-aligned addresses
/// over 256 KiB, from four host threads.
fn seeded_trace(seed: u64, ops: usize) -> Vec<TraceOp> {
    let mut state = seed;
    (0..ops)
        .map(|_| {
            state = splitmix(state);
            let cmd = match state % 8 {
                0 | 1 => HmcRqst::Rd64,
                2 => HmcRqst::Rd16,
                3 | 4 => HmcRqst::Wr64,
                5 => HmcRqst::Wr16,
                _ => HmcRqst::Xor16,
            };
            let addr = 0x40_0000 + ((state >> 8) % (256 * 1024 / 64)) * 64;
            TraceOp { cmd, addr, tid: (state >> 56) % 4 }
        })
        .collect()
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

fn last_checkpoint() -> ReplayCheckpoint {
    let mut sim = HmcSim::new(DeviceConfig::gen2_4link_4gb()).unwrap();
    let config = ReplayConfig { checkpoint_every: 100, ..Default::default() };
    let mut last = None;
    replay_with_sink(&mut sim, &seeded_trace(7, 1500), &config, None, |ckpt| {
        last = Some(ckpt.clone());
        Ok(())
    })
    .unwrap();
    last.expect("the replay takes at least one checkpoint")
}

#[test]
fn checkpoint_json_is_byte_identical() {
    let ckpt = last_checkpoint();
    let text = ckpt.to_json();
    assert_eq!(text.len(), PINNED_LEN, "checkpoint JSON length moved");
    assert_eq!(fnv1a(text.as_bytes()), PINNED_FNV, "checkpoint JSON bytes moved");
    assert_eq!(Json::parse(&text).unwrap().render(), text, "render(parse(text)) == text");
    let back = ReplayCheckpoint::from_json(&text).unwrap();
    assert_eq!(back.snapshot.fingerprint(), ckpt.snapshot.fingerprint());
    assert_eq!(back.to_json(), text, "decode then encode reproduces the bytes");
}
