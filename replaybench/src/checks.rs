//! Output checks, each against a value the benchmark computes itself from
//! the records it generated, never from the program's own intermediate
//! results.

use crate::replay::{MinuteOutcome, Replay};
use std::collections::{HashMap, HashSet};
use xatu_detectors::traits::DetectorEvent;
use xatu_features::volumetric::compress;
use xatu_netflow::addr::Ipv4;
use xatu_netflow::binning::MinuteFlows;
use xatu_netflow::record::{FlowRecord, Protocol};

/// FNV-1a over `bytes`, folded into `h`.
pub fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

/// FNV-1a offset basis.
pub const FNV_INIT: u64 = 0xcbf2_9ce4_8422_2325;

/// Per-customer upscaled (bytes, packets) totals of `records`, ascending
/// by customer.
pub fn expected_totals(records: &[FlowRecord], out: &mut Vec<(Ipv4, u64, u64)>) {
    out.clear();
    out.extend(
        records
            .iter()
            .map(|r| (r.dst, r.est_bytes(), r.est_packets())),
    );
    out.sort_unstable_by_key(|e| e.0);
    out.dedup_by(|next, kept| {
        if next.0 == kept.0 {
            kept.1 += next.1;
            kept.2 += next.2;
            true
        } else {
            false
        }
    });
}

/// Every bin's upscaled totals equal the generated records' totals, and
/// there is exactly one bin per customer that sent records.
pub fn check_totals(bins: &[MinuteFlows], expected: &[(Ipv4, u64, u64)]) -> Result<(), String> {
    if bins.len() != expected.len() {
        return Err(format!(
            "{} bins for {} sending customers",
            bins.len(),
            expected.len()
        ));
    }
    for (bin, &(c, bytes, packets)) in bins.iter().zip(expected) {
        let got = (bin.customer, bin.total_bytes(), bin.total_packets());
        if got != (c, bytes, packets) {
            return Err(format!(
                "bin {got:?} != generated ({c:?}, {bytes}, {packets})"
            ));
        }
    }
    Ok(())
}

/// The V-block entries recomputed from `customer`'s generated records:
/// (index, value) for unique /32 sources and UDP/TCP/ICMP bytes and
/// packets, each as `ln(1+x)/8`.
pub fn expected_vblock(records: &[FlowRecord], customer: Ipv4) -> [(usize, f64); 7] {
    let mut sources = HashSet::new();
    let mut proto = [[0.0f64; 2]; 3];
    for r in records.iter().filter(|r| r.dst == customer) {
        sources.insert(r.src);
        let k = match r.proto {
            Protocol::Udp => 0,
            Protocol::Tcp => 1,
            Protocol::Icmp => 2,
            Protocol::Other(_) => continue,
        };
        proto[k][0] += r.est_bytes() as f64;
        proto[k][1] += r.est_packets() as f64;
    }
    let mut out = [(0, compress(sources.len() as f64)); 7];
    for (k, p) in proto.iter().enumerate() {
        out[1 + 2 * k] = (5 + 2 * k, compress(p[0]));
        out[2 + 2 * k] = (6 + 2 * k, compress(p[1]));
    }
    out
}

/// `frame`'s V-block entries equal [`expected_vblock`].
pub fn check_vblock(frame: &[f64], records: &[FlowRecord], customer: Ipv4) -> Result<(), String> {
    for (i, want) in expected_vblock(records, customer) {
        let got = frame.get(i).copied().unwrap_or(f64::NAN);
        let close = (got - want).abs() <= 1e-12 * want.abs().max(1.0);
        if !close {
            return Err(format!("{customer:?} V[{i}] = {got} != recomputed {want}"));
        }
    }
    Ok(())
}

/// Minutes whose V blocks are sampled: the multiples of this.
pub const VBLOCK_EVERY: u32 = 8;

/// A survival is finite and in [0, 1].
pub fn survival_ok(s: f64) -> bool {
    (0.0..=1.0).contains(&s)
}

/// Streaming alert-lifecycle check: one open alert per customer at most,
/// each `Ended` closes the open `Raised` with the same onset, and no alert
/// outlasts `max_minutes`.
#[derive(Default)]
pub struct Lifecycle {
    open: HashMap<Ipv4, u32>,
    /// Alerts raised.
    pub raised: u64,
    /// Alerts ended.
    pub ended: u64,
    /// Alert-minutes (sum of durations of ended alerts).
    pub alert_minutes: u64,
}

impl Lifecycle {
    /// Applies one event.
    pub fn on_event(&mut self, ev: &DetectorEvent, max_minutes: u32) -> Result<(), String> {
        match ev {
            DetectorEvent::Raised(a) => {
                self.raised += 1;
                if let Some(prev) = self.open.insert(a.customer, a.detected_at) {
                    return Err(format!(
                        "{:?} raised at {} while open since {prev}",
                        a.customer, a.detected_at
                    ));
                }
            }
            DetectorEvent::Ended(a) => {
                self.ended += 1;
                if self.open.remove(&a.customer) != Some(a.detected_at) {
                    return Err(format!(
                        "{:?} ended an alert from {} that is not open",
                        a.customer, a.detected_at
                    ));
                }
                let end = a.mitigation_end.ok_or("Ended without a mitigation end")?;
                let len = end
                    .checked_sub(a.detected_at)
                    .ok_or("alert ends before it starts")?;
                self.alert_minutes += u64::from(len);
                if len > max_minutes {
                    return Err(format!(
                        "{:?} alert lasted {len} > {max_minutes} minutes",
                        a.customer
                    ));
                }
            }
        }
        Ok(())
    }

    /// After `close_all`: every raised alert has ended.
    pub fn finish(&self) -> Result<(), String> {
        if !self.open.is_empty() || self.raised != self.ended {
            return Err(format!(
                "{} raised, {} ended, {} still open after close_all",
                self.raised,
                self.ended,
                self.open.len()
            ));
        }
        Ok(())
    }
}

/// Accumulated check results of one replay.
pub struct Checks {
    failures: Vec<String>,
    failed: u64,
    kinds: Vec<&'static str>,
    /// Lifecycle state.
    pub lifecycle: Lifecycle,
    /// Digest over every minute's survival bits and events.
    pub digest: u64,
    /// Customer-minutes whose V block was recomputed.
    pub vblock_samples: u64,
    totals: Vec<(Ipv4, u64, u64)>,
}

impl Default for Checks {
    fn default() -> Self {
        Checks {
            failures: Vec::new(),
            failed: 0,
            kinds: Vec::new(),
            lifecycle: Lifecycle::default(),
            digest: FNV_INIT,
            vblock_samples: 0,
            totals: Vec::new(),
        }
    }
}

impl Checks {
    /// Records a failed check.
    pub fn fail(&mut self, what: &'static str, detail: String) {
        self.failed += 1;
        if !self.kinds.contains(&what) {
            self.kinds.push(what);
        }
        if self.failures.len() < 8 {
            self.failures.push(format!("{what}: {detail}"));
        }
    }

    /// Records `r` under `what`.
    pub fn check(&mut self, what: &'static str, r: Result<(), String>) {
        if let Err(e) = r {
            self.fail(what, e);
        }
    }

    /// True when no check failed.
    pub fn ok(&self) -> bool {
        self.failed == 0
    }

    /// Whether the check named `what` failed at least once.
    pub fn has_failed(&self, what: &str) -> bool {
        self.kinds.contains(&what)
    }

    /// The first failures.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Checks one replayed minute against the records it was generated
    /// from. Every [`VBLOCK_EVERY`]-th minute, up to three sending
    /// customers get their V block recomputed.
    pub fn after_minute(
        &mut self,
        replay: &Replay,
        minute: u32,
        records: &[FlowRecord],
        outcome: &MinuteOutcome,
    ) {
        if outcome.decoded != records.len() as u64 || outcome.failed > 0 {
            self.fail(
                "wire",
                format!(
                    "minute {minute}: {} records encoded, {} decoded, {} customer-minutes failed",
                    records.len(),
                    outcome.decoded,
                    outcome.failed
                ),
            );
        }
        if replay.late_drops() > 0 {
            self.fail(
                "wire",
                format!("{} late drops by minute {minute}", replay.late_drops()),
            );
        }
        if replay.counts.stray_bins > 0 {
            self.fail(
                "wire",
                format!("{} bins of unscored customers", replay.counts.stray_bins),
            );
        }
        let mut totals = std::mem::take(&mut self.totals);
        expected_totals(records, &mut totals);
        self.check("totals", check_totals(&replay.bins, &totals));
        self.totals = totals;

        if minute.is_multiple_of(VBLOCK_EVERY) && !replay.bins.is_empty() {
            // The minute's first sender, and two more spread over the bins.
            let n = replay.bins.len();
            let first = records.first().map(|r| r.dst);
            let spread = (1..3.min(n))
                .map(|j| replay.bins[(minute as usize / 7 + j * (n / 3).max(1)) % n].customer);
            for customer in first.into_iter().chain(spread) {
                if let Some(id) = replay.fleet.customer_index(customer) {
                    self.vblock_samples += 1;
                    let r = check_vblock(&replay.frames[id].0, records, customer);
                    self.check("vblock", r);
                }
            }
        }

        let mut h = self.digest;
        fnv(&mut h, &minute.to_le_bytes());
        let mut bad_survival = None;
        for &c in replay.customers() {
            let s = replay.fleet.survival_of(c);
            fnv(&mut h, &s.to_bits().to_le_bytes());
            if !survival_ok(s) && bad_survival.is_none() {
                bad_survival = Some((c, s));
            }
        }
        if let Some((c, s)) = bad_survival {
            self.fail("survival", format!("minute {minute}: {c:?} survival {s}"));
        }
        self.events(&mut h, &replay.events, replay.fleet.max_alert_minutes());
        self.digest = h;
    }

    fn events(&mut self, h: &mut u64, events: &[DetectorEvent], max_minutes: u32) {
        for ev in events {
            let (tag, a) = match ev {
                DetectorEvent::Raised(a) => (1u8, a),
                DetectorEvent::Ended(a) => (2u8, a),
            };
            fnv(h, &[tag]);
            fnv(h, &a.customer.0.to_le_bytes());
            fnv(h, &a.detected_at.to_le_bytes());
            fnv(h, &a.mitigation_end.unwrap_or(u32::MAX).to_le_bytes());
            let r = self.lifecycle.on_event(ev, max_minutes);
            self.check("lifecycle", r);
        }
    }

    /// Applies the `close_all` events and checks the lifecycle is closed.
    pub fn close(&mut self, closing: &[DetectorEvent], max_minutes: u32) {
        let mut h = self.digest;
        self.events(&mut h, closing, max_minutes);
        self.digest = h;
        let r = self.lifecycle.finish();
        self.check("lifecycle", r);
    }
}
