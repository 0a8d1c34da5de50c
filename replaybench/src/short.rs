//! Determinism checks and the short self-check: every workload's output
//! and determinism checks at reduced size, each also run against a
//! deliberate corruption to show it can fail.

use crate::checks::{survival_ok, Lifecycle, VBLOCK_EVERY};
use crate::cli::fingerprint;
use crate::setup::{self, Trained};
use crate::trace::Off;
use crate::workload::{drive, twin_ok, Drive, Kind, Opts, Spec, Tamper, WORKLOADS};
use xatu_detectors::alert::Alert;
use xatu_detectors::traits::DetectorEvent;
use xatu_netflow::addr::Ipv4;
use xatu_netflow::attack::AttackType;

fn replay(
    spec: &Spec,
    seed: u64,
    threads: usize,
    trained: &Trained,
    minutes: u32,
    twin: bool,
    tamper: Option<Tamper>,
) -> Drive {
    let mut traffic = spec.traffic(seed);
    let mut r = spec.build(&*traffic, trained, threads);
    let opts = Opts {
        seconds: f64::INFINITY,
        max_minutes: minutes,
        twin,
        tamper,
    };
    drive(spec, &mut *traffic, &mut r, trained, &opts, &mut Off)
}

/// Outcome of a determinism check.
pub struct Determinism {
    /// The one- and two-thread digests are equal.
    pub same: bool,
    /// Both replays passed their output checks, and on the fast backend
    /// the exact twin agreed.
    pub checks: bool,
}

/// Replays `minutes` timed minutes at one and two threads and compares
/// their digests; on the fast backend the one-thread replay also steps an
/// exact twin. `tamper` corrupts the two-thread run.
pub fn determinism(
    spec: &Spec,
    seed: u64,
    minutes: u32,
    trained: &Trained,
    tamper: Option<Tamper>,
) -> Determinism {
    let one = replay(spec, seed, 1, trained, minutes, spec.fast, None);
    let two = replay(spec, seed, 2, trained, minutes, false, tamper);
    let same = one.checks.digest == two.checks.digest;
    let twin = !spec.fast || twin_ok(&one);
    println!(
        "# determinism {} seed={seed} minutes={} booster_events={} digest1={:016x} digest2={:016x} {} checks1={} checks2={}{}",
        spec.name,
        one.minute_ns.len(),
        one.checks.lifecycle.raised + one.checks.lifecycle.ended,
        one.checks.digest,
        two.checks.digest,
        if same { "same" } else { "DIFFERENT" },
        if one.checks.ok() { "ok" } else { "FAILED" },
        if two.checks.ok() { "ok" } else { "FAILED" },
        if spec.fast {
            format!(
                " fast_vs_exact max_dev={:e} event_mismatches={} {}",
                one.twin_max_dev,
                one.twin_event_mismatches,
                if twin { "ok" } else { "FAILED" }
            )
        } else {
            String::new()
        }
    );
    Determinism {
        same,
        checks: twin && one.checks.ok() && two.checks.ok(),
    }
}

/// The reduced size the short mode runs at. The warm-up is a multiple of
/// [`VBLOCK_EVERY`], as every workload's start is, so the first timed
/// minute, which carries the corruption, has its V blocks sampled.
fn shrink(spec: &Spec) -> Spec {
    let s = Spec {
        warmup: 8 * VBLOCK_EVERY,
        kind: match spec.kind {
            Kind::Sparse { idle, .. } => Kind::Sparse {
                customers: 256,
                idle,
            },
            k => k,
        },
        ..*spec
    };
    assert!((s.start + s.warmup).is_multiple_of(VBLOCK_EVERY));
    s
}

fn expect(ok: &mut bool, what: &str, holds: bool) {
    println!("# short {what}: {}", if holds { "ok" } else { "FAILED" });
    *ok &= holds;
}

fn alert(customer: u32, at: u32, end: Option<u32>) -> Alert {
    Alert {
        customer: Ipv4(customer),
        attack_type: AttackType::UdpFlood,
        detected_at: at,
        mitigation_end: end,
    }
}

/// The pure checks on corrupted results.
fn tampered_results(ok: &mut bool) {
    expect(ok, "survival check rejects NaN", !survival_ok(f64::NAN));
    expect(ok, "survival check rejects 1.5", !survival_ok(1.5));
    let run = |events: &[DetectorEvent]| {
        let mut l = Lifecycle::default();
        let streamed = events.iter().try_for_each(|e| l.on_event(e, 45));
        streamed.and_then(|()| l.finish()).is_err()
    };
    use DetectorEvent::{Ended, Raised};
    let clean = [Raised(alert(1, 10, None)), Ended(alert(1, 10, Some(20)))];
    expect(ok, "lifecycle check accepts raise then end", !run(&clean));
    expect(
        ok,
        "lifecycle check rejects a second open alert",
        run(&[Raised(alert(1, 10, None)), Raised(alert(1, 12, None))]),
    );
    expect(
        ok,
        "lifecycle check rejects an end without a raise",
        run(&[Ended(alert(1, 10, Some(20)))]),
    );
    expect(
        ok,
        "lifecycle check rejects an alert never ended",
        run(&[Raised(alert(1, 10, None))]),
    );
    expect(
        ok,
        "lifecycle check rejects a 46-minute alert",
        run(&[Raised(alert(1, 10, None)), Ended(alert(1, 10, Some(56)))]),
    );
}

/// Runs the short self-check; true when every clean check passes and every
/// corruption is caught.
pub fn run() -> bool {
    println!("# host {}", fingerprint());
    let trained = match setup::train() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("replaybench: {e}");
            return false;
        }
    };
    let mut ok = true;
    tampered_results(&mut ok);
    for full in &WORKLOADS {
        let spec = shrink(full);
        let minutes = 2 * spec.round.max(60);
        let det = determinism(&spec, 1, minutes, &trained, None);
        ok &= det.same && det.checks;
        let one_round = |tamper| replay(&spec, 1, 1, &trained, spec.round, false, Some(tamper));
        let name = spec.name;
        expect(
            &mut ok,
            &format!("{name}: dropped record fails wire"),
            one_round(Tamper::DropRecord).checks.has_failed("wire"),
        );
        expect(
            &mut ok,
            &format!("{name}: replayed datagram fails wire"),
            one_round(Tamper::Late).checks.has_failed("wire"),
        );
        expect(
            &mut ok,
            &format!("{name}: byte counter fails totals"),
            one_round(Tamper::Bytes).checks.has_failed("totals"),
        );
        expect(
            &mut ok,
            &format!("{name}: switched protocol fails vblock"),
            one_round(Tamper::Proto).checks.has_failed("vblock"),
        );
        expect(
            &mut ok,
            &format!("{name}: byte counter changes the digest"),
            !determinism(&spec, 1, spec.round, &trained, Some(Tamper::Bytes)).same,
        );
        if spec.fast {
            let twin = replay(
                &spec,
                1,
                1,
                &trained,
                spec.round,
                true,
                Some(Tamper::TwinFrame),
            );
            expect(
                &mut ok,
                &format!("{name}: scaled twin frames fail fast_vs_exact"),
                !twin_ok(&twin),
            );
        }
    }
    println!("# short {}", if ok { "ok" } else { "FAILED" });
    ok
}
