//! Host-time benchmark for hmcsim-rs.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <triad|fabric_gups|mutex_sweep|replay_ckpt> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process, one thread, one workload. `--trace 0` prints the
//! end-to-end metrics; `--trace 1` alternates untraced and traced
//! operations and prints the per-layer metrics. The last line of
//! standard output is the JSON result. End-to-end times are stated at
//! a fixed host speed (see `reference.rs`). See `README.md` for why each
//! workload exists and what each metric should move.

mod reference;
mod spans;
mod workloads;

use spans::Spans;
use std::time::Instant;
use workloads::{Kind, OpRecord, Workload, DEFAULT_SEED};

/// Environment overrides that would silently change the engine under
/// measurement.
const ENGINE_OVERRIDES: [&str; 3] = ["HMCSIM_THREADS", "HMCSIM_SKIP", "HMCSIM_TIMING"];

/// Timed operations per run at least, whatever `--seconds` says: the
/// tail percentile needs ten samples beyond it.
const MIN_OPS: usize = 11;
/// Traced and untraced operations per traced run at least.
const MIN_TRACE_OPS: usize = 3;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(why: &str) -> ! {
    eprintln!("perfbench: {why}");
    eprintln!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        Kind::ALL.map(Kind::name).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        kind: Kind::Triad,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut kind = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                kind = Some(
                    Kind::from_name(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload '{value}'"))),
                )
            }
            "--seed" => {
                args.seed = value
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes an integer"))
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage("--seconds takes a positive number"))
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            _ => usage(&format!("unknown flag '{flag}'")),
        }
    }
    args.kind = kind.unwrap_or_else(|| usage("--workload is required"));
    args
}

/// Refuses to measure a build or an environment whose numbers would not
/// be comparable.
fn environment_guard() {
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to run a debug build; build with --release");
        std::process::exit(3);
    }
    for name in ENGINE_OVERRIDES {
        if std::env::var_os(name).is_some() {
            eprintln!("perfbench: refusing to run with {name} set; unset it to measure the default engine");
            std::process::exit(3);
        }
    }
}

/// The checked-out commit, read from `.git` without spawning anything.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .map(|l| l[..l.len() - r.len()].to_owned())
            }),
        None => Some(head.to_owned()),
    };
    match rev.map(|r| r.trim().to_owned()) {
        Some(r) if !r.is_empty() => r,
        _ => "unknown".to_owned(),
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest sample with at least ten samples above it, and its
/// percentile. Needs at least eleven samples.
fn tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= MIN_OPS, "tail needs at least {MIN_OPS} samples");
    (v[n - 11], 100.0 * (n - 10) as f64 / n as f64)
}

/// One operation's timings, from its spans.
struct Timing {
    setup_s: f64,
    run_s: f64,
}

fn timing(spans: &Spans, rec: &OpRecord) -> Timing {
    Timing {
        setup_s: spans.top_level_s(rec.op, "sim.new") + spans.top_level_s(rec.op, "cmc.load"),
        run_s: spans.total_s(rec.op, "kernels.run"),
    }
}

/// Counts an operation, checking it against the first operation's
/// simulated outputs.
struct Tally {
    attempted: u64,
    failed: u64,
    reference: Option<workloads::SimOutputs>,
}

impl Tally {
    fn add(&mut self, rec: &OpRecord) {
        self.attempted += 1;
        let reference = *self.reference.get_or_insert(rec.outputs);
        let mut failures = rec.failures.clone();
        if rec.outputs != reference {
            failures.push(format!(
                "simulated outputs {:?} differ from the first operation's {reference:?}",
                rec.outputs
            ));
        }
        if !failures.is_empty() {
            self.failed += 1;
            for f in failures {
                eprintln!("perfbench: FAILED operation {}: {f}", rec.op);
            }
        }
    }
}

/// `(name, value, unit)` of one reported metric.
type Metric = (&'static str, f64, &'static str);

fn print_result(tally: &Tally, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

fn main() {
    let args = parse_args();
    environment_guard();
    let host_cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} host_cpus={host_cpus} git_rev={} \
         threads=1 processes=1",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_rev()
    );
    if !args.kind.seeded() {
        println!(
            "perfbench: {} has fixed paper inputs; --seed does not change them",
            args.kind.name()
        );
    }

    let workload = Workload::new(args.kind, args.seed);
    let mut spans = Spans::new();
    let mut tally = Tally {
        attempted: 0,
        failed: 0,
        reference: None,
    };

    // Warm-up: fills allocator pools and lazy state, and fixes the
    // reference outputs every later operation must repeat.
    let warm = workload.op(&mut spans, false);
    tally.add(&warm);

    let metrics = if args.trace {
        traced_run(&args, &workload, &mut spans, &mut tally)
    } else {
        untraced_run(&args, &workload, &mut spans, &mut tally, &warm)
    };

    println!("perfbench: spans (name, count, total s, self s):");
    for (name, count, total, own) in spans.summary() {
        println!("perfbench:   {name:<22} {count:>8} {total:>12.6} {own:>12.6}");
    }
    print_result(&tally, &metrics);
}

fn untraced_run(
    args: &Args,
    workload: &Workload,
    spans: &mut Spans,
    tally: &mut Tally,
    warm: &OpRecord,
) -> Vec<Metric> {
    let (mut setup, mut run) = (Vec::new(), Vec::new());
    let (mut wall_setup, mut wall_run, mut refs) = (Vec::new(), Vec::new(), Vec::new());
    spans.retire();
    let mut before = reference::time_s();
    let start = Instant::now();
    while run.len() < MIN_OPS || start.elapsed().as_secs_f64() < args.seconds {
        let rec = workload.op(spans, false);
        let after = reference::time_s();
        tally.add(&rec);
        let t = timing(spans, &rec);
        spans.retire();
        // The host's speed during the operation, from the reference
        // kernel timed just before and just after it.
        let ref_s = (before + after) / 2.0;
        let scale = reference::NOMINAL_S / ref_s;
        before = after;
        setup.push(t.setup_s * scale);
        run.push(t.run_s * scale);
        wall_setup.push(t.setup_s);
        wall_run.push(t.run_s);
        refs.push(ref_s);
    }
    let run_s = median(&run);
    let (run_tail, pct) = tail(&run);
    let error_rate = tally.failed as f64 / tally.attempted as f64;
    println!(
        "perfbench: run_s median={run_s:.6} p{pct:.1}={run_tail:.6} samples={} (warm-up excluded; \
         seconds at the reference speed)",
        run.len()
    );
    println!(
        "perfbench: host speed: reference kernel median={:.6} s (nominal {} s); \
         wall-clock run_s median={:.6} setup_s median={:.6}",
        median(&refs),
        reference::NOMINAL_S,
        median(&wall_run),
        median(&wall_setup)
    );
    let table6 = warm.table6_error_pct.map_or(String::new(), |e| {
        format!(
            "; simulated Table VI worst-avg error vs paper (226.48 / 221.48 cycles): \
             paper spin {:+.2}% / {:+.2}%, honest spin {:+.2}% / {:+.2}%",
            e[0][0], e[0][1], e[1][0], e[1][1]
        )
    });
    println!(
        "perfbench: error_rate={error_rate} ({} of {} operations failed){table6}",
        tally.failed, tally.attempted
    );
    let o = warm.outputs;
    println!(
        "perfbench: sim_outputs cycles={} requests={} stats={:#x} latency={:#x}",
        o.cycles, o.requests, o.stats, o.latency
    );
    vec![
        ("run_s", run_s, "s"),
        ("run_s_tail", run_tail, "s"),
        ("requests_per_s", o.requests as f64 / run_s, "1/s"),
        ("setup_s", median(&setup), "s"),
        ("peak_rss_mib", peak_rss_mib(), "MiB"),
        ("pass_rate", 1.0 - error_rate, "ratio"),
    ]
}

fn traced_run(
    args: &Args,
    workload: &Workload,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Vec<Metric> {
    let (mut plain, mut traced) = (Vec::new(), Vec::<OpRecord>::new());
    let mut refs = Vec::new();
    let start = Instant::now();
    while traced.len() < MIN_TRACE_OPS || start.elapsed().as_secs_f64() < args.seconds {
        refs.push(reference::time_s());
        let rec = workload.op(spans, false);
        tally.add(&rec);
        plain.push(timing(spans, &rec).run_s);
        let rec = workload.op(spans, true);
        tally.add(&rec);
        traced.push(rec);
    }
    let per_op = |f: &dyn Fn(&OpRecord) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let total = |name: &'static str| per_op(&|r| spans.total_s(r.op, name));
    let first = &traced[0];
    let o = first.outputs;
    let c = &first.counters;
    let run_s = per_op(&|r| spans.total_s(r.op, "kernels.run"));
    let untraced_run_s = median(&plain);
    let is_walk = |n: &str| n.starts_with("snapshot.") || n.starts_with("snapjson.");
    // Inside the run span only state walks are timed (the replay sink's).
    let walks_on_run = |r: &OpRecord| spans.children_s(r.op, "kernels.run");
    let skipped = c.skipped_cycles as f64;
    let p50 = |i: usize| c.stages[i].p50() as f64;
    vec![
        ("sim.new_s", total("sim.new"), "s"),
        ("cmc.load_s", total("cmc.load"), "s"),
        ("kernels.run_s", run_s, "s"),
        (
            "kernels.ns_per_request",
            run_s * 1e9 / o.requests as f64,
            "ns",
        ),
        ("kernels.ns_per_cycle", run_s * 1e9 / o.cycles as f64, "ns"),
        (
            "kernels.loop_s",
            per_op(&|r| spans.total_s(r.op, "kernels.run") - walks_on_run(r)),
            "s",
        ),
        ("snapshot.take_s", total("snapshot.take"), "s"),
        ("snapshot.fingerprint_s", total("snapshot.fingerprint"), "s"),
        ("snapshot.restore_s", total("snapshot.restore"), "s"),
        ("snapjson.encode_s", total("snapjson.encode"), "s"),
        ("snapjson.decode_s", total("snapjson.decode"), "s"),
        ("snapjson.bytes", c.json_bytes as f64, "bytes"),
        (
            "snapshot.walks",
            spans.count(first.op, is_walk) as f64,
            "count",
        ),
        (
            "snapshot.walk_share_of_run",
            per_op(&|r| walks_on_run(r) / spans.total_s(r.op, "kernels.run")),
            "ratio",
        ),
        (
            "sim.skipped_cycle_share",
            skipped / o.cycles as f64,
            "ratio",
        ),
        ("sim.skipped_cycles", skipped, "cycles"),
        ("sim.cycles", o.cycles as f64, "cycles"),
        ("sim.requests", o.requests as f64, "count"),
        ("sim.cmc_ops", c.cmc_ops as f64, "count"),
        ("sim.flits", c.flits as f64, "count"),
        ("sim.send_stalls", c.send_stalls as f64, "count"),
        ("sim.xbar_stalls", c.xbar_stalls as f64, "count"),
        ("sim.vault_stalls", c.vault_stalls as f64, "count"),
        ("sim.forwarded", c.forwarded as f64, "count"),
        (
            "sim.vault_queue_high_water",
            c.vault_queue_high_water as f64,
            "count",
        ),
        ("sim.link_retries", c.link_retries as f64, "count"),
        ("sim.stage.xbar_rqst_p50", p50(0), "cycles"),
        ("sim.stage.vault_wait_p50", p50(1), "cycles"),
        ("sim.stage.bank_p50", p50(2), "cycles"),
        ("sim.stage.xbar_rsp_p50", p50(3), "cycles"),
        ("sim.stage.delivery_p50", p50(4), "cycles"),
        ("trace.dropped", c.trace_dropped as f64, "count"),
        ("trace.untraced_run_s", untraced_run_s, "s"),
        ("trace.overhead_s", run_s - untraced_run_s, "s"),
        ("host.reference_s", median(&refs), "s"),
    ]
}
