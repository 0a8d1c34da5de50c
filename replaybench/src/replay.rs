//! The replayed path, one simulated minute at a time: NetFlow v5 bytes →
//! minute bins → CDet and its tracker feed → 273-feature frames → fleet
//! step → lifecycle events. Every call goes through the program's public
//! API; the only code of the benchmark's own here is the glue `pipeline.rs`
//! keeps private (CDet events into the A2/A4/A5 trackers).

use crate::trace::{Stage, Tracer};
use crate::traffic::{Presence, Traffic};
use std::collections::BTreeMap;
use xatu_core::config::XatuConfig;
use xatu_core::error::XatuError;
use xatu_core::eval::VolumeStore;
use xatu_core::fleet::{FleetDetector, FleetInput};
use xatu_core::model::XatuModel;
use xatu_detectors::netscout::NetScout;
use xatu_detectors::traits::{Detector, DetectorEvent, MinuteObservation};
use xatu_features::frame::FeatureFrame;
use xatu_features::table1::FeatureExtractor;
use xatu_netflow::addr::Ipv4;
use xatu_netflow::attack::{AttackType, Severity};
use xatu_netflow::binning::{MinuteBinner, MinuteFlows};
use xatu_netflow::v5;

/// The booster a replay scores with.
pub struct Booster<'a> {
    /// Trained model.
    pub model: &'a XatuModel,
    /// Attack type the model serves.
    pub attack_type: AttackType,
    /// Calibrated survival threshold.
    pub threshold: f64,
    /// Model and detector configuration.
    pub cfg: &'a XatuConfig,
}

/// Work done so far.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    /// Flow records decoded.
    pub records: u64,
    /// Datagrams that failed to decode.
    pub bad_datagrams: u64,
    /// Bins released by the binner.
    pub bins: u64,
    /// Frames extracted.
    pub frames: u64,
    /// Bins whose customer was not scored this minute.
    pub stray_bins: u64,
    /// CDet alerts raised.
    pub cdet_raised: u64,
    /// CDet alerts ended.
    pub cdet_ended: u64,
}

/// One minute's outcome.
#[derive(Clone, Copy, Debug, Default)]
pub struct MinuteOutcome {
    /// Records decoded this minute.
    pub decoded: u64,
    /// Customer-minutes offered to the booster (frames and gaps).
    pub attempted: u64,
    /// Of those, customer-minutes that failed (undecodable datagram or a
    /// fleet step error).
    pub failed: u64,
}

/// The whole replayed system.
pub struct Replay {
    binner: MinuteBinner,
    volumes: VolumeStore,
    cdet: NetScout,
    /// The feature extractor and its trackers.
    pub extractor: FeatureExtractor,
    active: BTreeMap<(Ipv4, AttackType), f64>,
    cdet_events: Vec<DetectorEvent>,
    /// The booster fleet.
    pub fleet: FleetDetector,
    threads: usize,
    customers: Vec<Ipv4>,
    presence: Vec<Presence>,
    inputs: Vec<FleetInput>,
    /// This minute's frame per fleet customer.
    pub frames: Vec<FeatureFrame>,
    /// This minute's bins, as the binner released them.
    pub bins: Vec<MinuteFlows>,
    /// This minute's booster events.
    pub events: Vec<DetectorEvent>,
    /// Work counts.
    pub counts: Counts,
}

impl Replay {
    /// Builds the extractor (with `traffic`'s feeds) and a fleet holding
    /// every customer of `traffic`. `horizon` sizes the CDet's volume
    /// series, which covers the whole period.
    pub fn new(
        traffic: &dyn Traffic,
        booster: &Booster<'_>,
        fast: bool,
        threads: usize,
        horizon: u32,
    ) -> Self {
        let mut extractor = FeatureExtractor::new();
        traffic.load_feeds(&mut extractor);
        extractor.mask = booster.cfg.feature_mask;
        extractor.spoof.ensure_built();
        let fleet = build_fleet(traffic.customers(), booster, fast);
        let n = traffic.customers().len();
        Replay {
            binner: MinuteBinner::new(),
            volumes: VolumeStore::new(horizon),
            cdet: NetScout::new(),
            extractor,
            active: BTreeMap::new(),
            cdet_events: Vec::new(),
            fleet,
            threads,
            customers: traffic.customers().to_vec(),
            presence: vec![Presence::Exporting; n],
            inputs: vec![FleetInput::Skip; n],
            frames: vec![FeatureFrame(Vec::new()); n],
            bins: Vec::new(),
            events: Vec::new(),
            counts: Counts::default(),
        }
    }

    /// Fleet customers, in fleet-id order.
    pub fn customers(&self) -> &[Ipv4] {
        &self.customers
    }

    /// Flows the binner dropped for arriving behind its watermark.
    pub fn late_drops(&self) -> u64 {
        self.binner.late_drops()
    }

    /// Records the collector's exporter state for the coming minute.
    pub fn set_presence(&mut self, traffic: &dyn Traffic, minute: u32) {
        for (i, p) in self.presence.iter_mut().enumerate() {
            *p = traffic.presence(i, minute);
        }
    }

    /// Replays one minute's datagrams through every layer.
    pub fn minute<T: Tracer>(
        &mut self,
        minute: u32,
        datagrams: &[Vec<u8>],
        t: &mut T,
    ) -> MinuteOutcome {
        let mut out = MinuteOutcome::default();
        let mut bad = 0u64;
        for d in datagrams {
            let span = t.start();
            let parsed = v5::parse_datagram(d);
            t.stop(Stage::Decode, span);
            match parsed {
                Ok(records) => {
                    let span = t.start();
                    out.decoded += records.len() as u64;
                    for r in records {
                        self.binner.push(r);
                    }
                    t.stop(Stage::Bin, span);
                }
                Err(_) => bad += 1,
            }
        }
        let span = t.start();
        self.bins = self.binner.advance_watermark(minute + 1);
        t.stop(Stage::Bin, span);

        let span = t.start();
        for bin in &self.bins {
            self.volumes.record(bin);
        }
        t.stop(Stage::Volume, span);

        let span = t.start();
        self.cdet_events.clear();
        for bin in &self.bins {
            for ty in AttackType::ALL {
                let obs = MinuteObservation {
                    minute,
                    customer: bin.customer,
                    attack_type: ty,
                    bytes: self.volumes.bytes_at(bin.customer, ty, minute),
                    packets: self.volumes.packets_at(bin.customer, ty, minute),
                };
                self.cdet_events.extend(self.cdet.observe(&obs));
            }
        }
        t.stop(Stage::NetScout, span);

        let span = t.start();
        self.feed_trackers(minute);
        t.stop(Stage::Tracker, span);

        let span = t.start();
        let mut b = 0;
        let mut stray = 0u64;
        let mut frames = 0u64;
        for i in 0..self.customers.len() {
            let addr = self.customers[i];
            while b < self.bins.len() && self.bins[b].customer < addr {
                stray += 1;
                b += 1;
            }
            let bin = if b < self.bins.len() && self.bins[b].customer == addr {
                b += 1;
                Some(&self.bins[b - 1])
            } else {
                None
            };
            self.inputs[i] = match self.presence[i] {
                Presence::Exporting => {
                    self.frames[i] = match bin {
                        Some(bin) => self.extractor.extract_shared(bin),
                        None => self.extractor.extract_shared(&MinuteFlows {
                            minute,
                            customer: addr,
                            flows: Vec::new(),
                        }),
                    };
                    frames += 1;
                    FleetInput::Frame
                }
                Presence::Gap => FleetInput::Gap,
            };
            if bin.is_some() && self.presence[i] != Presence::Exporting {
                stray += 1;
            }
        }
        stray += (self.bins.len() - b) as u64;
        t.stop(Stage::Extract, span);

        let cpu = t.cpu();
        let span = t.start();
        let rejected = self.fleet.obs().out_of_order.get();
        let (inputs, frames_ref) = (&self.inputs, &self.frames);
        let result = self
            .fleet
            .step_minute_batch(minute, self.threads, |i, _, buf| {
                let input = inputs[i];
                if input == FleetInput::Frame {
                    buf.copy_from_slice(&frames_ref[i].0);
                }
                input
            });
        self.events.clear();
        let step_failed = match result {
            Ok(events) => {
                self.events.extend_from_slice(events);
                0
            }
            Err(_) => self.fleet.obs().out_of_order.get() - rejected,
        };
        t.stop(Stage::Step, span);
        t.step_cpu(cpu);

        let span = t.start();
        self.extractor.clustering.expire(minute);
        t.stop(Stage::Tracker, span);

        out.attempted = self
            .inputs
            .iter()
            .filter(|&&i| i != FleetInput::Skip)
            .count() as u64;
        out.failed = if bad > 0 { out.attempted } else { step_failed };
        self.counts.records += out.decoded;
        self.counts.bad_datagrams += bad;
        self.counts.bins += self.bins.len() as u64;
        self.counts.frames += frames;
        self.counts.stray_bins += stray;
        out
    }

    /// CDet lifecycle events into the A4 history, then the A2/A5 trackers
    /// for every alert in force (`pipeline.rs`'s `handle_alert_event` and
    /// ungated `update_trackers`).
    fn feed_trackers(&mut self, minute: u32) {
        for ev in &self.cdet_events {
            match ev {
                DetectorEvent::Raised(a) => {
                    self.counts.cdet_raised += 1;
                    let peak = self.volumes.bytes_at(a.customer, a.attack_type, minute);
                    self.active.insert((a.customer, a.attack_type), peak);
                }
                DetectorEvent::Ended(a) => {
                    self.counts.cdet_ended += 1;
                    if let Some(peak) = self.active.remove(&(a.customer, a.attack_type)) {
                        self.extractor.history.record(
                            a.customer,
                            a.attack_type,
                            Severity::of_peak_bytes_per_minute(peak),
                            minute,
                        );
                    }
                }
            }
        }
        if self.active.is_empty() {
            return;
        }
        for bin in &self.bins {
            for ((customer, ty), peak) in self.active.iter_mut() {
                if *customer != bin.customer {
                    continue;
                }
                let sig = ty.signature();
                let mut any = false;
                for f in bin.flows.iter().filter(|f| sig.matches(f)) {
                    self.extractor
                        .prev_attackers
                        .record(*customer, f.src, bin.minute);
                    self.extractor
                        .clustering
                        .record(bin.minute, f.src.subnet24(), *customer);
                    any = true;
                }
                if any {
                    *peak = peak.max(self.volumes.bytes_at(*customer, *ty, bin.minute));
                }
            }
        }
    }
}

impl Replay {
    /// Steps `twin` on the inputs the fleet consumed this minute, every
    /// frame scaled by `scale`, and returns its events.
    pub fn step_twin(
        &self,
        twin: &mut FleetDetector,
        minute: u32,
        scale: f64,
    ) -> Result<Vec<DetectorEvent>, XatuError> {
        let (inputs, frames) = (&self.inputs, &self.frames);
        twin.step_minute_batch(minute, 1, |i, _, buf| {
            let input = inputs[i];
            if input == FleetInput::Frame {
                for (b, &v) in buf.iter_mut().zip(&frames[i].0) {
                    *b = v * scale;
                }
            }
            input
        })
        .map(<[DetectorEvent]>::to_vec)
    }
}

/// A fleet holding `customers`, on the exact or the fast backend.
pub fn build_fleet(customers: &[Ipv4], booster: &Booster<'_>, fast: bool) -> FleetDetector {
    let model = booster.model.clone();
    let mut fleet = if fast {
        FleetDetector::new_fast(model, booster.attack_type, booster.threshold, booster.cfg)
    } else {
        FleetDetector::new(model, booster.attack_type, booster.threshold, booster.cfg)
    };
    for &c in customers {
        fleet.add_customer(c);
    }
    fleet
}
