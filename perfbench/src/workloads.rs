//! The four workloads and the checks every operation must pass.
//!
//! One *operation* is one complete kernel run (or, for `mutex_sweep`, the
//! whole two-policy Table VI sweep) on freshly built contexts. Setup is
//! the context construction plus CMC library loading; the run is the
//! call that drives the simulation. Everything else an operation does —
//! reading counters, the oracle digest and the checkpoint round trip —
//! happens outside both timed regions.

use crate::spans::Spans;
use hmc_sim::{
    DeviceConfig, Fnv, Hist, HmcSim, SimConfig, SkipMode, Stage, TelemetryConfig, TraceBuffer,
    TraceLevel, Tracer,
};
use hmc_types::{HmcError, HmcRqst};
use hmc_workloads::kernels::triad::{TriadConfig, TriadKernel};
use hmc_workloads::tracefile::{replay_with_sink, ReplayCheckpoint, ReplayConfig, TraceOp};
use hmc_workloads::{
    FabricGupsConfig, FabricGupsKernel, MutexKernel, MutexKernelConfig, SpinPolicy,
};

/// The seed whose simulated outputs are pinned in [`PINS`].
pub const DEFAULT_SEED: u64 = 1;

/// Trace lines the engine-level observer may hold before it drops
/// (and the skip share would be undercounted).
const ENGINE_TRACE_CAPACITY: usize = 1 << 22;

/// Replay workload shape: a seeded mixed trace over a few MiB.
const REPLAY_OPS: usize = 20_000;
const REPLAY_SPAN_BYTES: u64 = 2 << 20;
const REPLAY_BASE: u64 = 0x0100_0000;
const REPLAY_CHECKPOINT_EVERY: u64 = 1_000;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Triad,
    FabricGups,
    MutexSweep,
    ReplayCkpt,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::Triad,
        Kind::FabricGups,
        Kind::MutexSweep,
        Kind::ReplayCkpt,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Triad => "triad",
            Kind::FabricGups => "fabric_gups",
            Kind::MutexSweep => "mutex_sweep",
            Kind::ReplayCkpt => "replay_ckpt",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether the workload's inputs depend on `--seed`.
    pub fn seeded(self) -> bool {
        matches!(self, Kind::FabricGups | Kind::ReplayCkpt)
    }
}

/// Simulated outputs of one operation. Every field is exact and must
/// repeat across operations, runs and observer settings.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimOutputs {
    /// Simulated cycles, summed over the operation's contexts.
    pub cycles: u64,
    /// Retired requests (reads, writes, posted writes, atomics, CMC
    /// ops) over every cube of every context.
    pub requests: u64,
    /// `HmcSim::oracle_digest().stats`, folded over contexts.
    pub stats: u64,
    /// `HmcSim::oracle_digest().latency`, folded over contexts.
    pub latency: u64,
    /// `HmcSim::oracle_digest().fingerprint`, folded over contexts.
    /// Compared within a run only, never pinned.
    pub fingerprint: u64,
}

/// Pinned outputs for [`DEFAULT_SEED`]: `(workload, cycles, requests,
/// stats digest, latency digest)`. `triad` and `mutex_sweep` have fixed
/// inputs, so their pins hold at every seed.
const PINS: [(Kind, u64, u64, u64, u64); 4] = [
    (
        Kind::Triad,
        3_077,
        98_304,
        0xfbe3_d537_e7ed_8c9c,
        0x6e43_8783_ea4b_87ee,
    ),
    (
        Kind::FabricGups,
        2_528,
        131_072,
        0x1040_0939_1dd8_f6c0,
        0x24e7_1ce2_7f41_ab7c,
    ),
    (
        Kind::MutexSweep,
        247_931,
        104_617,
        0x2b2e_44a8_7e3c_78be,
        0x5f9f_5b09_09ac_f744,
    ),
    (
        Kind::ReplayCkpt,
        5_150,
        20_000,
        0x9cf8_8886_10e4_097c,
        0xef58_e0cf_f8a0_cfe6,
    ),
];

/// The Table VI rows the sweep must reproduce (`results/table6.txt`
/// and `results/table6_honest.txt`): `(min, max, worst avg)` for
/// 4Link-4GB then 8Link-8GB.
const TABLE6_PAPER_SPIN: [(u64, u64, &str); 2] = [(6, 300, "227.27"), (6, 301, "223.35")];
const TABLE6_HONEST_SPIN: [(u64, u64, &str); 2] = [(6, 1864, "880.73"), (6, 1854, "871.46")];
/// The paper's published worst-average cycle counts (Table VI).
const TABLE6_PAPER_AVG: [f64; 2] = [226.48, 221.48];

/// Engine counters of one operation, read from public accessors after
/// the run (summed over contexts unless noted).
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub cmc_ops: u64,
    pub flits: u64,
    pub send_stalls: u64,
    pub xbar_stalls: u64,
    pub vault_stalls: u64,
    pub forwarded: u64,
    /// Maximum over contexts and cubes.
    pub vault_queue_high_water: u64,
    pub link_retries: u64,
    /// Telemetry span histograms, merged over cubes (traced only).
    pub stages: [Hist; 5],
    /// Cycles the idle-skip engine compressed (traced only).
    pub skipped_cycles: u64,
    /// Engine trace lines dropped at capacity (traced only).
    pub trace_dropped: u64,
    /// Bytes of checkpoint JSON encoded.
    pub json_bytes: u64,
}

/// Everything one operation produced.
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// Span-recorder operation id.
    pub op: usize,
    pub outputs: SimOutputs,
    digest: Digest,
    pub counters: Counters,
    /// Each failed check, as a one-line reason.
    pub failures: Vec<String>,
    /// Simulated Table VI worst-average error against the paper, in
    /// percent, for the paper spin then the honest spin (each
    /// `[4Link, 8Link]`); `mutex_sweep` only.
    pub table6_error_pct: Option<[[f64; 2]; 2]>,
}

/// A workload with its generated inputs.
pub struct Workload {
    kind: Kind,
    seed: u64,
    trace: Vec<TraceOp>,
}

impl Workload {
    pub fn new(kind: Kind, seed: u64) -> Self {
        hmc_cmc::ops::register_builtin_libraries();
        let trace = if kind == Kind::ReplayCkpt {
            mixed_trace(seed)
        } else {
            Vec::new()
        };
        Workload { kind, seed, trace }
    }

    /// Runs one operation. With `traced`, every context gets the public
    /// observers (full telemetry and an engine-level trace) before its
    /// run.
    pub fn op(&self, spans: &mut Spans, traced: bool) -> OpRecord {
        let mut rec = OpRecord {
            op: spans.begin_op(),
            outputs: SimOutputs::default(),
            digest: Digest::default(),
            counters: Counters::default(),
            failures: Vec::new(),
            table6_error_pct: None,
        };
        match self.kind {
            Kind::Triad => self.triad(spans, traced, &mut rec),
            Kind::FabricGups => self.fabric_gups(spans, traced, &mut rec),
            Kind::MutexSweep => self.mutex_sweep(spans, traced, &mut rec),
            Kind::ReplayCkpt => self.replay_ckpt(spans, traced, &mut rec),
        }
        rec.outputs = rec.digest.finish();
        self.check_pins(&mut rec);
        rec
    }

    fn triad(&self, spans: &mut Spans, traced: bool, rec: &mut OpRecord) {
        let Some(mut sim) = build(spans, rec, triad_context) else {
            return;
        };
        let observer = traced.then(|| observe(&mut sim));
        let kernel = TriadKernel::new(TriadConfig {
            elements: 65_536,
            chunk_bytes: 16,
            window: 256,
            ..Default::default()
        });
        match spans.time("kernels.run", || kernel.run(&mut sim)) {
            Ok(r) if r.errors == 0 => {}
            Ok(r) => rec.failures.push(format!(
                "triad: {} elements disagree with the oracle",
                r.errors
            )),
            Err(e) => rec.failures.push(format!("triad: kernel error: {e}")),
        }
        finish(spans, rec, &sim, observer.as_ref());
        round_trip(spans, rec, &sim, triad_context);
    }

    fn fabric_gups(&self, spans: &mut Spans, traced: bool, rec: &mut OpRecord) {
        let Some(mut sim) = build(spans, rec, fabric_context) else {
            return;
        };
        let observer = traced.then(|| observe(&mut sim));
        let kernel = FabricGupsKernel::new(FabricGupsConfig {
            updates_per_cube: 8_192,
            remote_permille: 50,
            seed: splitmix(self.seed ^ 0xFAB0_0000_0000_0000),
            ..Default::default()
        });
        let want = 8_192 * sim.device_count() as u64;
        match spans.time("kernels.run", || kernel.run(&mut sim)) {
            Ok(r) if r.errors == 0 && r.updates == want => {}
            Ok(r) => rec.failures.push(format!(
                "fabric_gups: {} of {want} updates, {} table entries disagree with the oracle",
                r.updates, r.errors
            )),
            Err(e) => rec.failures.push(format!("fabric_gups: kernel error: {e}")),
        }
        finish(spans, rec, &sim, observer.as_ref());
        round_trip(spans, rec, &sim, fabric_context);
    }

    fn mutex_sweep(&self, spans: &mut Spans, traced: bool, rec: &mut OpRecord) {
        let mut errors = [[0.0; 2]; 2];
        let mut last = None;
        for (p, (spin, table)) in [
            (SpinPolicy::PaperBounded, TABLE6_PAPER_SPIN),
            (SpinPolicy::until_owned(), TABLE6_HONEST_SPIN),
        ]
        .into_iter()
        .enumerate()
        {
            for (d, device) in [
                DeviceConfig::gen2_4link_4gb(),
                DeviceConfig::gen2_8link_8gb(),
            ]
            .into_iter()
            .enumerate()
            {
                let make = || HmcSim::new(device.clone());
                let (mut min, mut max, mut worst_avg) = (u64::MAX, 0u64, 0.0f64);
                for threads in 2..=100 {
                    let Some(mut sim) = build(spans, rec, make) else {
                        return;
                    };
                    if let Err(e) = spans.time("cmc.load", || {
                        sim.load_cmc_library(0, hmc_cmc::ops::MUTEX_LIBRARY)
                    }) {
                        rec.failures
                            .push(format!("mutex_sweep: CMC library load: {e}"));
                        return;
                    }
                    let observer = traced.then(|| observe(&mut sim));
                    let kernel = MutexKernel::new(MutexKernelConfig {
                        threads,
                        spin,
                        ..Default::default()
                    });
                    match spans.time("kernels.run", || kernel.run(&mut sim)) {
                        Ok(r) if r.metrics.unfinished == 0 => {
                            min = min.min(r.metrics.min_cycle());
                            max = max.max(r.metrics.max_cycle());
                            worst_avg = worst_avg.max(r.metrics.avg_cycle());
                        }
                        Ok(r) => rec.failures.push(format!(
                            "mutex_sweep: {} of {threads} threads unfinished ({spin:?}, {})",
                            r.metrics.unfinished,
                            device.label()
                        )),
                        Err(e) => rec.failures.push(format!("mutex_sweep: kernel error: {e}")),
                    }
                    finish(spans, rec, &sim, observer.as_ref());
                    last = Some((sim, device.clone()));
                }
                let (want_min, want_max, want_avg) = table[d];
                let got_avg = format!("{worst_avg:.2}");
                if (min, max, got_avg.as_str()) != (want_min, want_max, want_avg) {
                    rec.failures.push(format!(
                        "mutex_sweep: Table VI row {}/{spin:?} is {min}/{max}/{got_avg}, \
                         expected {want_min}/{want_max}/{want_avg}",
                        device.label()
                    ));
                }
                errors[p][d] = 100.0 * (worst_avg - TABLE6_PAPER_AVG[d]) / TABLE6_PAPER_AVG[d];
            }
        }
        rec.table6_error_pct = Some(errors);
        if let Some((sim, device)) = last {
            round_trip(spans, rec, &sim, || HmcSim::new(device));
        }
    }

    fn replay_ckpt(&self, spans: &mut Spans, traced: bool, rec: &mut OpRecord) {
        let Some(mut sim) = build(spans, rec, replay_context) else {
            return;
        };
        let observer = traced.then(|| observe(&mut sim));
        let config = ReplayConfig {
            checkpoint_every: REPLAY_CHECKPOINT_EVERY,
            ..Default::default()
        };
        let (mut checkpoints, mut bad_checkpoints) = (0u64, Vec::new());
        let mut json_bytes = 0u64;
        let run = spans.begin("kernels.run");
        // The sink does in memory what a resumed replay verifies on disk:
        // encode, decode, and compare the decoded state's fingerprint.
        let result = replay_with_sink(&mut sim, &self.trace, &config, None, |ckpt| {
            checkpoints += 1;
            let want = spans.time("snapshot.fingerprint", || ckpt.snapshot.fingerprint());
            let text = spans.time("snapjson.encode", || ckpt.to_json());
            json_bytes += text.len() as u64;
            match spans.time("snapjson.decode", || ReplayCheckpoint::from_json(&text)) {
                Ok(back) => {
                    let got = spans.time("snapshot.fingerprint", || back.snapshot.fingerprint());
                    if got != want {
                        bad_checkpoints.push(format!("cycle {}: fingerprint changed", ckpt.cycle));
                    }
                }
                Err(e) => bad_checkpoints.push(format!("cycle {}: {}", ckpt.cycle, e.message)),
            }
            Ok(())
        });
        spans.end(run);
        rec.counters.json_bytes += json_bytes;
        let ops = self.trace.len() as u64;
        match result {
            Ok((r, _)) if r.issued == ops && r.completed == ops && checkpoints > 0 => {}
            Ok((r, _)) => rec.failures.push(format!(
                "replay_ckpt: issued {} and completed {} of {ops} requests, {checkpoints} checkpoints",
                r.issued, r.completed
            )),
            Err(e) => rec.failures.push(format!("replay_ckpt: replay error: {e}")),
        }
        for bad in bad_checkpoints {
            rec.failures
                .push(format!("replay_ckpt: checkpoint round trip at {bad}"));
        }
        finish(spans, rec, &sim, observer.as_ref());
        round_trip(spans, rec, &sim, replay_context);
    }

    fn check_pins(&self, rec: &mut OpRecord) {
        if self.kind.seeded() && self.seed != DEFAULT_SEED {
            return;
        }
        let (_, cycles, requests, stats, latency) = *PINS
            .iter()
            .find(|p| p.0 == self.kind)
            .expect("every workload is pinned");
        let o = rec.outputs;
        if (o.cycles, o.requests, o.stats, o.latency) != (cycles, requests, stats, latency) {
            rec.failures.push(format!(
                "{}: simulated outputs cycles={} requests={} stats={:#x} latency={:#x} \
                 differ from the pinned cycles={cycles} requests={requests} stats={stats:#x} \
                 latency={latency:#x}",
                self.kind.name(),
                o.cycles,
                o.requests,
                o.stats,
                o.latency
            ));
        }
    }
}

/// Folds per-context outputs into one [`SimOutputs`].
#[derive(Debug, Clone, Default)]
struct Digest {
    cycles: u64,
    requests: u64,
    stats: Fnv,
    latency: Fnv,
    fingerprint: Fnv,
}

impl Digest {
    fn finish(&self) -> SimOutputs {
        SimOutputs {
            cycles: self.cycles,
            requests: self.requests,
            stats: self.stats.finish(),
            latency: self.latency.finish(),
            fingerprint: self.fingerprint.finish(),
        }
    }
}

fn triad_context() -> Result<HmcSim, HmcError> {
    let mut device = DeviceConfig::gen2_4link_4gb();
    device.link_bandwidth = 8;
    device.vault_bandwidth = 4;
    HmcSim::new(device)
}

fn fabric_context() -> Result<HmcSim, HmcError> {
    HmcSim::with_config(SimConfig::mesh(DeviceConfig::gen2_4link_4gb(), 4, 4))
}

fn replay_context() -> Result<HmcSim, HmcError> {
    HmcSim::new(DeviceConfig::gen2_4link_4gb())
}

/// Builds a context with idle skip on, inside the `sim.new` span.
fn build(
    spans: &mut Spans,
    rec: &mut OpRecord,
    make: impl FnOnce() -> Result<HmcSim, HmcError>,
) -> Option<HmcSim> {
    let built = spans.time("sim.new", || {
        make().map(|mut sim| {
            sim.set_skip_mode(SkipMode::On);
            sim
        })
    });
    built
        .map_err(|e| rec.failures.push(format!("context construction: {e}")))
        .ok()
}

/// Attaches the traced run's observers: full telemetry (spans on) and a
/// text trace masked to `TraceLevel::ENGINE`, whose idle-skip records
/// give the skipped-cycle count.
fn observe(sim: &mut HmcSim) -> TraceBuffer {
    sim.enable_telemetry(TelemetryConfig::full());
    let buffer = TraceBuffer::with_capacity(ENGINE_TRACE_CAPACITY);
    sim.set_tracer(Tracer::to_buffer(TraceLevel::ENGINE, buffer.clone()));
    buffer
}

/// Reads one finished context's outputs and counters.
fn finish(spans: &mut Spans, rec: &mut OpRecord, sim: &HmcSim, observer: Option<&TraceBuffer>) {
    let d = spans.time("check.digest", || sim.oracle_digest());
    let digest = &mut rec.digest;
    digest.cycles += d.cycle;
    digest.stats.u64(d.stats);
    digest.latency.u64(d.latency);
    digest.fingerprint.u64(d.fingerprint);
    let c = &mut rec.counters;
    let report = observer.and_then(|_| sim.telemetry_report());
    for dev in 0..sim.device_count() {
        let s = sim.stats(dev).expect("device index in range");
        digest.requests += s.reads + s.writes + s.posted_writes + s.atomics + s.cmc_ops;
        c.cmc_ops += s.cmc_ops;
        c.flits += s.rqst_flits + s.rsp_flits;
        c.send_stalls += s.send_stalls;
        c.xbar_stalls += s.xbar_stalls;
        c.vault_stalls += s.vault_stalls;
        c.forwarded += s.forwarded;
        let high_water = sim
            .vault_queue_high_water(dev)
            .expect("device index in range");
        c.vault_queue_high_water = c.vault_queue_high_water.max(high_water as u64);
        let links = sim.device_config(dev).expect("device index in range").links;
        for link in 0..links {
            c.link_retries += sim
                .link_stats(dev, link)
                .expect("link index in range")
                .retries;
        }
        if let Some(report) = &report {
            for (hist, stage) in c.stages.iter_mut().zip(Stage::ALL) {
                let path = format!("dev{dev}/stage/{}", stage.name());
                match report.get(&path).and_then(|m| m.as_hist()) {
                    Some(h) => hist.merge(h),
                    None => rec.failures.push(format!("telemetry report lacks {path}")),
                }
            }
        }
    }
    if let Some(buffer) = observer {
        c.trace_dropped += buffer.dropped();
        for line in buffer.lines() {
            if let Some(len) = line.split("idle skip:").nth(1).and_then(|rest| {
                rest.split_whitespace()
                    .find_map(|kv| kv.strip_prefix("len=")?.parse::<u64>().ok())
            }) {
                c.skipped_cycles += len;
            }
        }
        if buffer.dropped() > 0 {
            rec.failures.push(format!(
                "engine trace dropped {} lines; the skip share is undercounted",
                buffer.dropped()
            ));
        }
    }
}

/// The checkpoint round trip every operation must survive: snapshot,
/// `ReplayCheckpoint::to_json`, `from_json`, restore into a fresh
/// context, and compare state fingerprints. The fresh context also
/// loads the mutex CMC library, so the CMC loader is measured once per
/// operation on every workload, as the state walks are.
fn round_trip(
    spans: &mut Spans,
    rec: &mut OpRecord,
    sim: &HmcSim,
    fresh: impl FnOnce() -> Result<HmcSim, HmcError>,
) {
    let id = spans.begin("check.round_trip");
    let result = checkpoint_round_trip(spans, rec, sim, fresh);
    spans.end(id);
    if let Err(e) = result {
        rec.failures.push(e);
    }
}

fn checkpoint_round_trip(
    spans: &mut Spans,
    rec: &mut OpRecord,
    sim: &HmcSim,
    fresh: impl FnOnce() -> Result<HmcSim, HmcError>,
) -> Result<(), String> {
    let want = spans.time("snapshot.fingerprint", || sim.state_fingerprint());
    let snapshot = spans.time("snapshot.take", || sim.snapshot());
    let ckpt = ReplayCheckpoint {
        cycle: sim.cycle(),
        cursor: 0,
        issued: 0,
        completed: 0,
        data_bytes: 0,
        inflight: Vec::new(),
        start_cycle: sim.cycle(),
        flits_base: 0,
        snapshot,
    };
    let text = spans.time("snapjson.encode", || ckpt.to_json());
    rec.counters.json_bytes += text.len() as u64;
    let back = spans
        .time("snapjson.decode", || ReplayCheckpoint::from_json(&text))
        .map_err(|e| format!("checkpoint decode: {}", e.message))?;
    let mut target = spans
        .time("check.sim.new", fresh)
        .map_err(|e| format!("checkpoint target context: {e}"))?;
    spans
        .time("cmc.load", || {
            target.load_cmc_library(0, hmc_cmc::ops::MUTEX_LIBRARY)
        })
        .map_err(|e| format!("CMC library load: {e}"))?;
    spans
        .time("snapshot.restore", || target.restore(&back.snapshot))
        .map_err(|e| format!("checkpoint restore: {e}"))?;
    let got = spans.time("snapshot.fingerprint", || target.state_fingerprint());
    if got != want {
        return Err(format!(
            "checkpoint round trip changed the state fingerprint ({want:#x} -> {got:#x})"
        ));
    }
    Ok(())
}

/// SplitMix64 step: a stable, dependency-free seed mixer.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The replay workload's trace: reads, writes and XOR16 atomics at
/// seeded 64-byte-aligned addresses over [`REPLAY_SPAN_BYTES`], issued
/// by eight host threads.
fn mixed_trace(seed: u64) -> Vec<TraceOp> {
    let mut state = seed;
    (0..REPLAY_OPS)
        .map(|_| {
            state = splitmix(state);
            let r = state;
            let cmd = match r % 8 {
                0 | 1 => HmcRqst::Rd64,
                2 => HmcRqst::Rd16,
                3 | 4 => HmcRqst::Wr64,
                5 => HmcRqst::Wr16,
                _ => HmcRqst::Xor16,
            };
            let addr = REPLAY_BASE + ((r >> 8) % (REPLAY_SPAN_BYTES / 64)) * 64;
            TraceOp {
                cmd,
                addr,
                tid: (r >> 56) % 8,
            }
        })
        .collect()
}
