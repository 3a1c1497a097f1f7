//! A fixed reference computation, timed between operations, that states
//! run and setup times at a fixed host speed.
//!
//! The 2-CPU host this benchmark was built on shares its memory system
//! with other tenants, and its speed swings by up to 2x over minutes:
//! every workload slows and recovers together. The swing follows memory
//! traffic, not clock speed: a register-only loop timed next to the
//! operations did not follow it, and this kernel did (per-operation
//! correlation 0.65–0.84 with `run_s`). It builds a B-tree of small heap
//! values and formats it, so it leans on the allocator, pointer chasing
//! and the caches the way the simulator does. The kernel is the
//! benchmark's own code: no change to the simulator can change what it
//! computes.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's typical time on the host the baseline was taken on.
/// A wall-clock time `t` measured while the kernel took `r` is reported
/// as `t * NOMINAL_S / r`: seconds on that host at its usual speed.
pub const NOMINAL_S: f64 = 0.017;

const ENTRIES: u64 = 40_000;

/// Runs the kernel once and returns its wall-clock seconds.
pub fn time_s() -> f64 {
    let start = Instant::now();
    let mut tree = BTreeMap::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..ENTRIES {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        tree.insert(x, vec![i as u8; (x % 64) as usize]);
    }
    let mut text = String::new();
    for (key, value) in &tree {
        let _ = write!(text, "{key}:{}", value.len());
    }
    black_box((tree.len(), text.len()));
    drop((tree, text));
    // An allocation above glibc's small-bin range merges the small
    // chunks just freed here, inside the kernel, instead of in the
    // simulator's next allocation, where it would land in `setup_s`.
    black_box(Vec::<u8>::with_capacity(4096));
    start.elapsed().as_secs_f64()
}
