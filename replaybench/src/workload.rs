//! The three workloads and the closed-loop driver that replays them.

use crate::checks::Checks;
use crate::replay::{build_fleet, Booster, Counts, Replay};
use crate::setup::Trained;
use crate::sys::{peak_rss_kb, process_cpu_ns};
use crate::trace::{Off, Tracer};
use crate::traffic::{SparseTraffic, Traffic, Wire, WorldTraffic, WORLD_DAYS};
use std::time::Instant;
use xatu_core::fleet::{FleetDetector, FAST_SURVIVAL_EPS};
use xatu_detectors::traits::DetectorEvent;
use xatu_netflow::record::{FlowRecord, Protocol};
use xatu_netflow::v5;

/// What a workload replays.
#[derive(Clone, Copy, Debug)]
pub enum Kind {
    /// A default-shape simnet world, each record split `fanout` ways.
    World {
        /// Records per generated record.
        fanout: u64,
    },
    /// A mostly idle fleet.
    Sparse {
        /// Fleet size.
        customers: usize,
        /// Share of customers in the idle cohort.
        idle: f64,
    },
}

/// A workload's shape and schedule.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Name on the command line.
    pub name: &'static str,
    /// Input generator.
    pub kind: Kind,
    /// Fast f32 backend with idle-skip (else the exact f64 backend).
    pub fast: bool,
    /// Fleet step threads.
    pub threads: usize,
    /// First minute replayed; earlier minutes are generated and dropped.
    pub start: u32,
    /// Untimed minutes replayed before timing starts.
    pub warmup: u32,
    /// Minutes per timed round.
    pub round: u32,
    /// Length of the CDet volume series, and the last minute replayed.
    pub horizon: u32,
    /// Timed minutes every timed run replays at least. The latency
    /// percentiles are taken over these first timed minutes and the peak
    /// resident set is read after them, so those figures cover the same
    /// minutes however fast the program is. Over the whole run they
    /// would not: fleet_sparse's slow minutes are denser early in the
    /// replay, so its p99 fell as a faster run replayed further, and the
    /// volume series commit their pages as minutes are written, so a
    /// peak read at the end would grow with speed.
    pub window: u32,
}

/// The World's first attacks start two days and two hours in; the
/// replay joins six hours earlier so NetScout's baselines and the fleet's
/// warm-up settle before the first onset.
const WORLD_START: u32 = 2 * 1440 - 240;

/// Every workload.
pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "isp_replay",
        kind: Kind::World { fanout: 1 },
        fast: false,
        threads: 1,
        start: WORLD_START,
        warmup: 360,
        round: 60,
        horizon: WORLD_DAYS * 1440,
        window: 12_000,
    },
    Spec {
        name: "wire_dense",
        kind: Kind::World { fanout: 13 },
        fast: false,
        threads: 1,
        start: WORLD_START,
        warmup: 360,
        round: 20,
        horizon: WORLD_DAYS * 1440,
        window: 4_000,
    },
    Spec {
        name: "fleet_sparse",
        kind: Kind::Sparse {
            customers: 2048,
            idle: 0.9,
        },
        fast: true,
        // One thread: on a host with two shared vCPUs, a two-thread step
        // waits for whichever shard a neighbour preempts, which splits
        // the minute latency tail into two modes from run to run. The
        // determinism check still steps the fleet at two threads.
        threads: 1,
        start: 0,
        warmup: 120,
        round: 30,
        // More than twice the minutes a 40 s run replays on a 2-vCPU
        // host, so runs end on time, not at the horizon.
        horizon: 6 * 1440,
        window: 2_400,
    },
];

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<Spec> {
    WORKLOADS.iter().find(|s| s.name == name).copied()
}

impl Spec {
    /// The workload's input for `seed`, positioned at its start minute.
    pub fn traffic(&self, seed: u64) -> Box<dyn Traffic> {
        let mut t: Box<dyn Traffic> = match self.kind {
            Kind::World { fanout } => Box::new(WorldTraffic::new(seed, fanout)),
            Kind::Sparse { customers, idle } => Box::new(SparseTraffic::new(seed, customers, idle)),
        };
        t.skip_to(self.start);
        t
    }

    /// Builds the replayed system (extractor, CDet, fleet).
    pub fn build(&self, traffic: &dyn Traffic, trained: &Trained, threads: usize) -> Replay {
        Replay::new(traffic, &booster(trained), self.fast, threads, self.horizon)
    }
}

/// The booster `trained` describes.
pub fn booster(trained: &Trained) -> Booster<'_> {
    Booster {
        model: &trained.model,
        attack_type: trained.attack_type,
        threshold: trained.threshold,
        cfg: &trained.cfg,
    }
}

/// A deliberate corruption, to show a check is not vacuous.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tamper {
    /// One datagram loses its last record (header count adjusted).
    DropRecord,
    /// One record's byte counter is off by one.
    Bytes,
    /// One record's protocol is switched between TCP and UDP.
    Proto,
    /// One datagram of the previous minute is delivered again.
    Late,
    /// The exact twin sees every frame scaled by 4.
    TwinFrame,
}

/// Driver options.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    /// Target duration of the timed replay, in seconds.
    pub seconds: f64,
    /// Timed minutes to replay at most.
    pub max_minutes: u32,
    /// Step the fast fleet's exact twin alongside and compare.
    pub twin: bool,
    /// Corruption to apply in the first timed minute.
    pub tamper: Option<Tamper>,
}

/// What a replay measured and checked.
pub struct Drive {
    /// Timed rounds replayed.
    pub rounds: u32,
    /// Peak resident set, in KiB, once `Spec::window` timed minutes
    /// were replayed (at the end, when the replay stopped before).
    pub peak_rss_kb: u64,
    /// Customer-minutes scored over the timed replay.
    pub scored: u64,
    /// Timed wall nanoseconds, summed over timed minutes.
    pub wall_ns: u64,
    /// Process CPU nanoseconds, summed over timed minutes.
    pub cpu_ns: u64,
    /// Each timed minute's latency, first datagram to returned events.
    pub minute_ns: Vec<u64>,
    /// Customer-minutes attempted over the timed replay.
    pub attempted: u64,
    /// Of those, failed.
    pub failed: u64,
    /// Records decoded over the timed replay.
    pub records: u64,
    /// Booster alerts raised on an all-zero frame (warm-up included).
    pub raised_on_zero: u64,
    /// Customer-minutes attempted, warm-up included.
    pub all_attempted: u64,
    /// Output checks (warm-up and timed minutes).
    pub checks: Checks,
    /// Work counts over warm-up and timed minutes.
    pub counts: Counts,
    /// Largest fast-vs-exact survival deviation, when twinned.
    pub twin_max_dev: f64,
    /// Minutes where the twin's events differed.
    pub twin_event_mismatches: u64,
}

/// Generated input of one minute.
#[derive(Default)]
struct Input {
    records: Vec<FlowRecord>,
    wire: Wire,
    stale: Vec<u8>,
}

impl Input {
    fn next(&mut self, traffic: &mut dyn Traffic) -> u32 {
        let minute = traffic.minute();
        if let Some(d) = self.wire.datagrams.first() {
            self.stale.clone_from(d);
        }
        self.records.clear();
        traffic.emit(&mut self.records);
        self.wire.encode(&self.records);
        minute
    }

    fn tamper(&mut self, t: Tamper) {
        let Some(d) = self.wire.datagrams.first_mut() else {
            return;
        };
        let rec = v5::HEADER_LEN;
        match t {
            Tamper::DropRecord => {
                let n = u16::from_be_bytes([d[2], d[3]]);
                d[2..4].copy_from_slice(&(n - 1).to_be_bytes());
                d.truncate(d.len() - v5::RECORD_LEN);
            }
            Tamper::Bytes => d[rec + 23] ^= 1,
            Tamper::Proto => {
                let p = &mut d[rec + 38];
                *p = if *p == Protocol::Tcp.number() {
                    Protocol::Udp.number()
                } else {
                    Protocol::Tcp.number()
                };
            }
            Tamper::Late => {
                let stale = self.stale.clone();
                self.wire.datagrams.push(stale);
            }
            Tamper::TwinFrame => {}
        }
    }
}

/// Replays `spec`: `spec.warmup` untimed minutes, then whole timed rounds
/// until `opts.seconds` have passed and at least `spec.window` timed
/// minutes were replayed, or `opts.max_minutes` or the horizon is reached. Timed minutes go through
/// `tracer`; warm-up minutes are never traced.
pub fn drive<T: Tracer>(
    spec: &Spec,
    traffic: &mut dyn Traffic,
    replay: &mut Replay,
    trained: &Trained,
    opts: &Opts,
    tracer: &mut T,
) -> Drive {
    let mut input = Input::default();
    let mut checks = Checks::default();
    let mut twin = opts
        .twin
        .then(|| build_fleet(replay.customers(), &booster(trained), false));
    let mut out = Drive {
        rounds: 0,
        peak_rss_kb: 0,
        scored: 0,
        wall_ns: 0,
        cpu_ns: 0,
        minute_ns: Vec::with_capacity(1 << 16),
        attempted: 0,
        failed: 0,
        records: 0,
        raised_on_zero: 0,
        all_attempted: 0,
        checks: Checks::default(),
        counts: Counts::default(),
        twin_max_dev: 0.0,
        twin_event_mismatches: 0,
    };
    let mut last = traffic.minute();
    let mut step = |input: &mut Input,
                    replay: &mut Replay,
                    checks: &mut Checks,
                    out: &mut Drive,
                    timed: bool,
                    tamper: Option<Tamper>| {
        let minute = input.next(traffic);
        replay.set_presence(traffic, minute);
        if let Some(t) = tamper {
            input.tamper(t);
        }
        let (outcome, wall_ns, cpu_ns) = if timed {
            let c0 = process_cpu_ns();
            let w0 = Instant::now();
            let o = replay.minute(minute, &input.wire.datagrams, tracer);
            let w = w0.elapsed().as_nanos() as u64;
            (o, w, process_cpu_ns() - c0)
        } else {
            (replay.minute(minute, &input.wire.datagrams, &mut Off), 0, 0)
        };
        checks.after_minute(replay, minute, &input.records, &outcome);
        if let Some(tw) = twin.as_mut() {
            let scale = if tamper == Some(Tamper::TwinFrame) {
                4.0
            } else {
                1.0
            };
            let (dev, same) = step_twin(replay, tw, minute, scale);
            out.twin_max_dev = out.twin_max_dev.max(dev);
            out.twin_event_mismatches += u64::from(!same);
        }
        out.all_attempted += outcome.attempted;
        out.raised_on_zero += raised_on_zero(replay);
        if timed {
            out.records += outcome.decoded;
            out.minute_ns.push(wall_ns);
            out.attempted += outcome.attempted;
            out.failed += outcome.failed;
            out.scored += outcome.attempted - outcome.failed;
            out.wall_ns += wall_ns;
            out.cpu_ns += cpu_ns;
        }
        minute
    };

    for _ in 0..spec.warmup {
        last = step(&mut input, replay, &mut checks, &mut out, false, None);
    }
    let t0 = Instant::now();
    let mut timed = 0u32;
    let mut tamper = opts.tamper;
    loop {
        if last + spec.round >= spec.horizon || timed + spec.round > opts.max_minutes {
            break;
        }
        out.rounds += 1;
        for _ in 0..spec.round {
            last = step(
                &mut input,
                replay,
                &mut checks,
                &mut out,
                true,
                tamper.take(),
            );
        }
        timed += spec.round;
        if out.peak_rss_kb == 0 && timed >= spec.window {
            out.peak_rss_kb = peak_rss_kb();
        }
        if t0.elapsed().as_secs_f64() >= opts.seconds && timed >= spec.window {
            break;
        }
    }
    if out.peak_rss_kb == 0 {
        out.peak_rss_kb = peak_rss_kb();
    }
    let closing = replay.fleet.close_all(last + 1);
    checks.close(&closing, replay.fleet.max_alert_minutes());
    if let Some(tw) = twin.as_mut() {
        if tw.close_all(last + 1) != closing {
            out.twin_event_mismatches += 1;
        }
    }
    out.checks = checks;
    out.counts = replay.counts;
    out
}

fn raised_on_zero(replay: &Replay) -> u64 {
    let zero = |c| {
        replay
            .fleet
            .customer_index(c)
            .is_some_and(|i| replay.frames[i].0.iter().all(|&v| v == 0.0))
    };
    replay
        .events
        .iter()
        .filter(|e| matches!(e, DetectorEvent::Raised(a) if zero(a.customer)))
        .count() as u64
}

/// Steps the exact twin on the inputs the fast fleet just consumed, with
/// frames scaled by `scale`; returns the largest survival deviation and
/// whether both fleets raised and ended the same alerts.
fn step_twin(replay: &Replay, twin: &mut FleetDetector, minute: u32, scale: f64) -> (f64, bool) {
    let customers = replay.customers();
    let same = match replay.step_twin(twin, minute, scale) {
        Ok(events) => events == replay.events,
        Err(_) => false,
    };
    let mut dev = 0.0f64;
    for &c in customers {
        let d = (replay.fleet.survival_of(c) - twin.survival_of(c)).abs();
        dev = if d.is_nan() {
            f64::INFINITY
        } else {
            dev.max(d)
        };
    }
    (dev, same)
}

/// Whether the fast fleet stayed within the exact fleet's contract.
pub fn twin_ok(d: &Drive) -> bool {
    d.twin_max_dev <= FAST_SURVIVAL_EPS && d.twin_event_mismatches == 0
}
