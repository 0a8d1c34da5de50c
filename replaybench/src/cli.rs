//! Command line: the timed run that `BENCHMARK.json` names, the
//! determinism check, and the short self-check.

use crate::setup::{self, Trained};
use crate::short;
use crate::sys::nproc;
use crate::trace::{Layers, Off, Stage};
use crate::workload::{self, drive, Drive, Opts, Spec};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// The median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0–100) of `v`.
pub fn percentile(v: &[u64], p: f64) -> u64 {
    let mut s = v.to_vec();
    s.sort_unstable();
    if s.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Host fingerprint.
pub fn fingerprint() -> String {
    format!("nproc={} simd={}", nproc(), xatu_nn::simd::detect().name())
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    minutes: u32,
    threads: Option<usize>,
    mode: Mode,
}

enum Mode {
    Run,
    Determinism,
    Short,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        minutes: 240,
        threads: None,
        mode: Mode::Run,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.clone()),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = value()? != "0",
            "--minutes" => a.minutes = value()?.parse().map_err(|e| format!("--minutes: {e}"))?,
            "--threads" => {
                a.threads = Some(value()?.parse().map_err(|e| format!("--threads: {e}"))?)
            }
            "--determinism" => a.mode = Mode::Determinism,
            "--short" => a.mode = Mode::Short,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// Entry point of both binaries; `counting` says whether the counting
/// allocator is installed. Returns the exit code.
pub fn main(counting: bool) -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("replaybench: {e}");
            return 2;
        }
    };
    if let Mode::Short = a.mode {
        return if short::run() { 0 } else { 1 };
    }
    let Some(mut spec) = a.workload.as_deref().and_then(workload::spec) else {
        eprintln!("replaybench: --workload must be one of isp_replay, wire_dense, fleet_sparse");
        return 2;
    };
    spec.threads = a.threads.unwrap_or(spec.threads);
    if !(1..=16).contains(&spec.threads) {
        eprintln!("replaybench: --threads must be between 1 and 16");
        return 2;
    }
    if a.trace != counting {
        eprintln!(
            "replaybench: --trace {} needs the {} binary",
            u8::from(a.trace),
            if a.trace {
                "replaybench_traced"
            } else {
                "replaybench"
            }
        );
        return 2;
    }
    let r = match a.mode {
        Mode::Run => run(&spec, a.seed, a.seconds, a.trace),
        Mode::Determinism => determinism(&spec, a.seed, a.minutes),
        Mode::Short => unreachable!(),
    };
    match r {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("replaybench: {e}");
            1
        }
    }
}

struct SetupRep {
    total_s: f64,
    prepare_s: f64,
    train_s: f64,
    calibrate_s: f64,
    fleet_build_ms: f64,
}

/// One metric of the final JSON line.
struct Metric(&'static str, f64, &'static str);

fn run(spec: &Spec, seed: u64, seconds: f64, traced: bool) -> Result<bool, String> {
    let mut traffic = spec.traffic(seed);
    let mut reps = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let trained = setup::train()?;
        let t1 = Instant::now();
        let replay = spec.build(&*traffic, &trained, spec.threads);
        reps.push(SetupRep {
            total_s: t0.elapsed().as_secs_f64(),
            prepare_s: trained.prepare_s,
            train_s: trained.train_s,
            calibrate_s: trained.calibrate_s,
            fleet_build_ms: t1.elapsed().as_secs_f64() * 1e3,
        });
        if let Some((prev, _)) = &built {
            let prev: &Trained = prev;
            if prev.threshold.to_bits() != trained.threshold.to_bits()
                || prev.attack_type != trained.attack_type
            {
                return Err("set-up is not deterministic: repeated training disagrees".into());
            }
        }
        built = Some((trained, replay));
    }
    let (trained, mut replay) = built.expect("at least one set-up");
    let opts = Opts {
        seconds,
        max_minutes: u32::MAX,
        twin: false,
        tamper: None,
    };
    let mut layers = Layers::default();
    layers.step_ns.reserve(1 << 16);
    let d = if traced {
        drive(
            spec,
            &mut *traffic,
            &mut replay,
            &trained,
            &opts,
            &mut layers,
        )
    } else {
        drive(spec, &mut *traffic, &mut replay, &trained, &opts, &mut Off)
    };

    let scored = d.scored;
    let minutes = d.minute_ns.len() as u64;
    let cm_per_s = scored as f64 / (d.wall_ns as f64 * 1e-9);
    // Every workload's window holds at least 2,400 minutes, so 24 lie
    // beyond p99.
    let window = d.minute_ns.len().min(spec.window as usize);
    let latency = &d.minute_ns[..window];
    let p50_ms = percentile(latency, 50.0) as f64 * 1e-6;
    let med = |f: fn(&SetupRep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());

    let mut correct = d.checks.ok() && d.failed == 0;
    let metrics = if traced {
        let cm = scored.max(1) as f64;
        let per_rec = |s: Stage| layers.ns_of(s) as f64 / d.records.max(1) as f64;
        let per_cm = |s: Stage| layers.ns_of(s) as f64 / cm;
        let per_min = |s: Stage| layers.allocs_of(s) as f64 / minutes.max(1) as f64;
        let staged: u64 = Stage::ALL.iter().map(|&s| layers.ns_of(s)).sum();
        let coverage = staged as f64 / d.minute_ns.iter().sum::<u64>().max(1) as f64;
        println!("# trace stage_coverage={coverage:.4} (stage spans / minute wall)");
        if !(0.9..=1.1).contains(&coverage) {
            eprintln!("replaybench: stage spans cover {coverage:.3} of the minute wall time, outside [0.9, 1.1]");
            correct = false;
        }
        vec![
            Metric("netflow.decode_ns_per_record", per_rec(Stage::Decode), "ns"),
            Metric(
                "netflow.decode_allocs_per_minute",
                per_min(Stage::Decode),
                "count",
            ),
            Metric("netflow.bin_ns_per_record", per_rec(Stage::Bin), "ns"),
            Metric(
                "netflow.bin_allocs_per_minute",
                per_min(Stage::Bin),
                "count",
            ),
            Metric(
                "cdet.volume_ns_per_customer_minute",
                per_cm(Stage::Volume),
                "ns",
            ),
            Metric(
                "cdet.netscout_ns_per_customer_minute",
                per_cm(Stage::NetScout),
                "ns",
            ),
            Metric(
                "features.tracker_ns_per_customer_minute",
                per_cm(Stage::Tracker),
                "ns",
            ),
            Metric(
                "features.extract_ns_per_customer_minute",
                per_cm(Stage::Extract),
                "ns",
            ),
            Metric(
                "features.extract_allocs_per_minute",
                per_min(Stage::Extract),
                "count",
            ),
            Metric(
                "fleet.step_ns_per_customer_minute",
                per_cm(Stage::Step),
                "ns",
            ),
            Metric(
                "fleet.step_cpu_ns_per_customer_minute",
                layers.step_cpu_ns as f64 / cm,
                "ns",
            ),
            Metric(
                "fleet.step_ms_p99",
                percentile(&layers.step_ns[..window.min(layers.step_ns.len())], 99.0) as f64 * 1e-6,
                "ms",
            ),
            Metric(
                "fleet.step_allocs_per_minute",
                per_min(Stage::Step),
                "count",
            ),
            Metric(
                "fleet.bytes_per_customer",
                replay.fleet.bytes_per_customer() as f64,
                "B",
            ),
            Metric("setup.prepare_s", med(|r| r.prepare_s), "s"),
            Metric("setup.train_s", med(|r| r.train_s), "s"),
            Metric("setup.calibrate_s", med(|r| r.calibrate_s), "s"),
            Metric("setup.fleet_build_ms", med(|r| r.fleet_build_ms), "ms"),
            Metric("trace.customer_minutes_per_s", cm_per_s, "1/s"),
            Metric("trace.minute_ms_p50", p50_ms, "ms"),
            Metric("trace.stage_coverage", coverage, "ratio"),
        ]
    } else {
        vec![
            Metric("setup_s", med(|r| r.total_s), "s"),
            Metric("customer_minutes_per_s", cm_per_s, "1/s"),
            Metric("minute_ms_p50", p50_ms, "ms"),
            Metric(
                "minute_ms_p99",
                percentile(latency, 99.0) as f64 * 1e-6,
                "ms",
            ),
            Metric(
                "cpu_us_per_customer_minute",
                d.cpu_ns as f64 * 1e-3 / scored.max(1) as f64,
                "us",
            ),
            Metric("peak_rss_mb", d.peak_rss_kb as f64 / 1024.0, "MB"),
        ]
    };
    print_info(spec, seed, &trained, &replay.fleet, &d, minutes);
    if !d.checks.ok() {
        for f in d.checks.failures() {
            eprintln!("replaybench: check failed: {f}");
        }
    }
    if metrics.iter().any(|m| !m.1.is_finite()) {
        correct = false;
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.1.is_finite() { m.1 } else { 0.0 };
            format!("\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", m.0, m.2)
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        d.attempted.max(1),
        d.failed,
        body.join(", ")
    );
    Ok(correct)
}

fn print_info(
    spec: &Spec,
    seed: u64,
    trained: &Trained,
    fleet: &xatu_core::fleet::FleetDetector,
    d: &Drive,
    minutes: u64,
) {
    let o = fleet.obs();
    let c = &d.counts;
    let l = &d.checks.lifecycle;
    println!("# host {}", fingerprint());
    println!(
        "# workload={} seed={seed} customers={} fleet={} threads={} timed_minutes={minutes} rounds={} window={}",
        spec.name,
        fleet.len(),
        if spec.fast { "fast" } else { "exact" },
        spec.threads,
        d.rounds,
        spec.window
    );
    println!(
        "# booster attack_type={:?} threshold={} hidden={}",
        trained.attack_type, trained.threshold, trained.cfg.hidden
    );
    println!(
        "# customer_minutes attempted={} failed={}",
        d.attempted, d.failed
    );
    println!(
        "# work records={} bins={} frames={} cdet_alerts={} booster_raised={} booster_ended={} force_ended={} gaps_imputed={} cold_restarts={}",
        c.records,
        c.bins,
        c.frames,
        c.cdet_raised,
        o.raised.get(),
        o.ended.get(),
        o.force_ended.get(),
        o.gaps_imputed.get(),
        o.cold_restarts.get()
    );
    println!(
        "# alerts raised={} raised_on_zero_frames={} alert_minutes={} alerted_share={:.6} (of {} customer-minutes, warm-up included)",
        l.raised,
        d.raised_on_zero,
        l.alert_minutes,
        l.alert_minutes as f64 / d.all_attempted.max(1) as f64,
        d.all_attempted
    );
    println!(
        "# checks {} vblock_samples={} digest={:016x}",
        if d.checks.ok() { "ok" } else { "FAILED" },
        d.checks.vblock_samples,
        d.checks.digest
    );
}

/// Replays a prefix at one and at two fleet threads and compares digests;
/// a fast-backend workload is also stepped against its exact twin.
fn determinism(spec: &Spec, seed: u64, minutes: u32) -> Result<bool, String> {
    let trained = setup::train()?;
    let det = short::determinism(spec, seed, minutes, &trained, None);
    println!("# host {}", fingerprint());
    Ok(det.same && det.checks)
}
