//! Input generation: the flow records each simulated minute carries, and
//! their NetFlow v5 encoding. Nothing here runs inside a timed section.

use xatu_features::blocklist::BlocklistCategory;
use xatu_features::table1::FeatureExtractor;
use xatu_netflow::addr::Ipv4;
use xatu_netflow::record::{FlowRecord, Protocol, TcpFlags};
use xatu_netflow::v5;
use xatu_simnet::botnet::customer_addr;
use xatu_simnet::{Ecosystem, FleetMinute, FleetTraffic, World, WorldConfig};

/// `v5::encode_datagram` writes `minute * 60_000` into 32-bit millisecond
/// fields, which wrap from this minute on.
pub const V5_MINUTE_LIMIT: u32 = 71_582;

/// How the collector presents one customer to the booster in one minute.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Presence {
    /// The exporter is up: the customer is scored from its bin (an empty
    /// bin when it sent nothing).
    Exporting,
    /// The exporter reported the minute missing: imputed by the booster.
    Gap,
}

/// A source of per-minute flow records.
pub trait Traffic {
    /// Customer addresses, ascending.
    fn customers(&self) -> &[Ipv4];
    /// The next minute the source will emit.
    fn minute(&self) -> u32;
    /// Appends every record exported in the next minute, in export order.
    fn emit(&mut self, out: &mut Vec<FlowRecord>);
    /// The collector's view of customer `i` in `minute`.
    fn presence(&self, i: usize, minute: u32) -> Presence;
    /// Loads the blocklist feed and routed prefixes of this traffic's
    /// attacker ecosystem into `ex`.
    fn load_feeds(&self, ex: &mut FeatureExtractor);
    /// Advances to `minute` without emitting (untimed fast-forward).
    fn skip_to(&mut self, minute: u32);
}

/// splitmix64 finalizer.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn share(total: u64, parts: u64, j: u64) -> u64 {
    total / parts + u64::from(j < total % parts)
}

/// Appends `rec` as the exporter would: v5 counters are 32-bit, so a
/// larger flow is exported as several records.
pub fn push_wire_sized(rec: FlowRecord, out: &mut Vec<FlowRecord>) {
    let max = u64::from(u32::MAX);
    let parts = rec
        .bytes
        .div_ceil(max)
        .max(rec.packets.div_ceil(max))
        .max(1);
    if parts == 1 {
        out.push(rec);
        return;
    }
    for j in 0..parts {
        out.push(FlowRecord {
            bytes: share(rec.bytes, parts, j),
            packets: share(rec.packets, parts, j),
            ..rec
        });
    }
}

fn load_world_feeds(feed: &[(usize, xatu_netflow::Subnet24)], ex: &mut FeatureExtractor) {
    for &(cat, subnet) in feed {
        ex.blocklists.add(BlocklistCategory::ALL[cat], subnet);
    }
    for (prefix, asn) in Ecosystem::routed_prefixes() {
        ex.spoof.announce(prefix, asn);
    }
    ex.spoof.build();
}

/// Days the World workloads simulate: the most that stays below
/// [`V5_MINUTE_LIMIT`], so that no run reaches the end before its time is
/// up.
pub const WORLD_DAYS: u32 = V5_MINUTE_LIMIT / 1440;

/// A simnet [`World`] at its own density (`fanout` 1), or with every
/// record split into `fanout` records whose sources share the original
/// /24. Blocklists, previous attackers and the spoof classifier all work
/// on /24s or wider prefixes, so the split keeps each record's A1–A3
/// classification while multiplying the decoder's and extractor's work.
pub struct WorldTraffic {
    world: World,
    fanout: u64,
}

impl WorldTraffic {
    /// A default-shape world for `seed`, lengthened to [`WORLD_DAYS`]
    /// with its chains lengthened in proportion, so attacks keep arriving
    /// at the default density until the end.
    pub fn new(seed: u64, fanout: u64) -> Self {
        let base = WorldConfig::default();
        WorldTraffic {
            world: World::new(WorldConfig {
                seed,
                days: WORLD_DAYS,
                chain_len_mean: base.chain_len_mean * f64::from(WORLD_DAYS) / f64::from(base.days),
                ..base
            }),
            fanout,
        }
    }
}

impl Traffic for WorldTraffic {
    fn customers(&self) -> &[Ipv4] {
        self.world.customers()
    }

    fn minute(&self) -> u32 {
        self.world.minute()
    }

    fn emit(&mut self, out: &mut Vec<FlowRecord>) {
        let k = self.fanout;
        for bin in self.world.step() {
            for f in &bin.flows {
                if k == 1 {
                    push_wire_sized(*f, out);
                    continue;
                }
                for j in 0..k {
                    let host = if j == 0 {
                        f.src.0 & 0xFF
                    } else {
                        1 + (mix(u64::from(f.src.0) << 8 ^ j) % 254) as u32
                    };
                    push_wire_sized(
                        FlowRecord {
                            src: Ipv4((f.src.0 & 0xFFFF_FF00) | host),
                            bytes: share(f.bytes, k, j).max(1),
                            packets: share(f.packets, k, j).max(1),
                            ..*f
                        },
                        out,
                    );
                }
            }
        }
    }

    fn presence(&self, _i: usize, _minute: u32) -> Presence {
        Presence::Exporting
    }

    fn load_feeds(&self, ex: &mut FeatureExtractor) {
        load_world_feeds(&self.world.blocklist_feed(), ex);
    }

    fn skip_to(&mut self, minute: u32) {
        while self.world.minute() < minute {
            self.world.step();
        }
    }
}

/// A large, mostly idle fleet. Which customers are idle, in an export gap
/// or under attack comes from [`FleetTraffic`]'s schedule; active
/// customer-minutes carry a few benign records, with occasional probes from
/// blocklisted or spoofed sources, and attack minutes add a UDP flood from
/// one of the ecosystem's botnets.
///
/// No customer falls silent (`FleetInput::Skip`), so none cold-restarts:
/// a cold restart ends an alert that was open when the customer fell
/// silent at the minute it returns, and the alert then outlasts
/// `max_alert_minutes`. Whether an alert is open at that moment depends
/// on the seed, so runs of some seeds would fail and others not.
pub struct SparseTraffic {
    seed: u64,
    schedule: FleetTraffic,
    customers: Vec<Ipv4>,
    eco: Ecosystem,
    frame: Vec<f64>,
    minute: u32,
}

impl SparseTraffic {
    /// `customers` customers, `idle_fraction` of them in the idle cohort.
    pub fn new(seed: u64, customers: usize, idle_fraction: f64) -> Self {
        SparseTraffic {
            seed,
            schedule: FleetTraffic::with_idle(seed, customers, idle_fraction),
            customers: (0..customers).map(customer_addr).collect(),
            eco: Ecosystem::build(&WorldConfig {
                seed,
                ..WorldConfig::default()
            }),
            frame: vec![0.0; 8],
            minute: 0,
        }
    }

    fn hash(&self, i: usize, minute: u32, salt: u64) -> u64 {
        mix(self.seed ^ mix((i as u64) << 32 ^ u64::from(minute)) ^ salt)
    }

    fn benign(&self, i: usize, minute: u32, k: u64, out: &mut Vec<FlowRecord>) {
        let h = self.hash(i, minute, k);
        let src = match h % 16 {
            0 | 1 => {
                // Prep-style probing from a blocklisted subnet.
                let b = &self.eco.botnets[(h >> 8) as usize % self.eco.botnets.len()];
                match b
                    .blocklisted
                    .get((h >> 16) as usize % b.blocklisted.len().max(1))
                {
                    Some((s, _)) => s.host(1 + (h >> 24) as u8 % 254),
                    None => Ecosystem::benign_source(h),
                }
            }
            2 => Ecosystem::spoofed_detectable(h),
            _ => Ecosystem::benign_source(h),
        };
        let bytes = 20_000 + (h >> 32) % 80_000;
        out.push(FlowRecord {
            minute,
            src,
            dst: self.customers[i],
            proto: Protocol::Tcp,
            src_port: 1024 + (h >> 40) as u16 % 60_000,
            dst_port: if h & (1 << 20) == 0 { 443 } else { 80 },
            tcp_flags: TcpFlags::ACK.union(TcpFlags::PSH),
            bytes,
            packets: bytes / 700 + 1,
            sampling: 10,
        });
    }

    fn attack(&self, i: usize, minute: u32, k: u64, out: &mut Vec<FlowRecord>) {
        let h = self.hash(i, minute, 0xa77a ^ k);
        let b = &self.eco.botnets[i % self.eco.botnets.len()];
        let src = if h.is_multiple_of(3) {
            Ecosystem::spoofed_detectable(h)
        } else {
            b.host((h >> 8) as usize, (h >> 16) as u8)
        };
        let bytes = 400_000 + (h >> 32) % 200_000;
        out.push(FlowRecord {
            minute,
            src,
            dst: self.customers[i],
            proto: Protocol::Udp,
            src_port: 1024 + (h >> 24) as u16 % 60_000,
            dst_port: 1024 + (h >> 40) as u16 % 60_000,
            tcp_flags: TcpFlags::default(),
            bytes,
            packets: bytes / 500 + 1,
            sampling: 10,
        });
    }
}

impl Traffic for SparseTraffic {
    fn customers(&self) -> &[Ipv4] {
        &self.customers
    }

    fn minute(&self) -> u32 {
        self.minute
    }

    fn emit(&mut self, out: &mut Vec<FlowRecord>) {
        let minute = self.minute;
        self.minute += 1;
        for i in 0..self.customers.len() {
            if self.presence(i, minute) != Presence::Exporting {
                continue;
            }
            let mut frame = std::mem::take(&mut self.frame);
            let active = matches!(
                self.schedule.fill_frame(i, minute, &mut frame),
                FleetMinute::Frame(flows) if flows > 0
            );
            self.frame = frame;
            if active {
                for k in 0..1 + self.hash(i, minute, 0x5eed) % 3 {
                    self.benign(i, minute, k, out);
                }
            }
            if self.schedule.in_attack(i, minute) {
                for k in 0..6 {
                    self.attack(i, minute, k, out);
                }
            }
        }
    }

    fn presence(&self, i: usize, minute: u32) -> Presence {
        if self.schedule.is_missing(i, minute) {
            Presence::Gap
        } else {
            Presence::Exporting
        }
    }

    fn load_feeds(&self, ex: &mut FeatureExtractor) {
        load_world_feeds(&self.eco.blocklist_feed(), ex);
    }

    fn skip_to(&mut self, minute: u32) {
        self.minute = self.minute.max(minute);
    }
}

/// One minute's datagrams, encoded from the generated records.
#[derive(Default)]
pub struct Wire {
    /// The encoded datagrams, in export order.
    pub datagrams: Vec<Vec<u8>>,
    sequence: u32,
}

impl Wire {
    /// Replaces the buffered datagrams with `records`' encoding: runs of
    /// up to [`v5::MAX_RECORDS`] records that share a sampling rate.
    pub fn encode(&mut self, records: &[FlowRecord]) {
        self.datagrams.clear();
        let mut rest = records;
        while let Some(first) = rest.first() {
            assert!(
                first.minute < V5_MINUTE_LIMIT,
                "v5 timestamps wrap at minute {V5_MINUTE_LIMIT}"
            );
            let n = rest
                .iter()
                .take(v5::MAX_RECORDS)
                .take_while(|r| r.sampling == first.sampling)
                .count();
            let (chunk, tail) = rest.split_at(n);
            self.datagrams.push(v5::encode_datagram(
                chunk,
                self.sequence,
                first.sampling as u16,
            ));
            self.sequence = self.sequence.wrapping_add(n as u32);
            rest = tail;
        }
    }
}
