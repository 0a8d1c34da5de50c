//! Spans around each call into a layer. The untraced run uses [`Off`],
//! which compiles to nothing; the traced run uses [`Layers`], which
//! records wall time and allocations per stage.

use crate::alloc::allocations;
use crate::sys::process_cpu_ns;
use std::time::Instant;

/// The layers a minute passes through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// `v5::parse_datagram`.
    Decode,
    /// `MinuteBinner::push` and `advance_watermark`.
    Bin,
    /// `VolumeStore::record`.
    Volume,
    /// `NetScout::observe`.
    NetScout,
    /// CDet events into the A2/A4/A5 trackers, and clustering expiry.
    Tracker,
    /// `FeatureExtractor::extract_shared`.
    Extract,
    /// `FleetDetector::step_minute_batch`.
    Step,
}

impl Stage {
    /// Every stage, in call order.
    pub const ALL: [Stage; 7] = [
        Stage::Decode,
        Stage::Bin,
        Stage::Volume,
        Stage::NetScout,
        Stage::Tracker,
        Stage::Extract,
        Stage::Step,
    ];
}

/// Span recorder.
pub trait Tracer {
    /// Opaque span start.
    type Span: Copy;
    /// Opens a span.
    fn start(&self) -> Self::Span;
    /// Closes a span and charges it to `stage`.
    fn stop(&mut self, stage: Stage, span: Self::Span);
    /// Process CPU time, when traced (0 otherwise).
    fn cpu(&self) -> u64;
    /// Charges the CPU time since `since` to the fleet step.
    fn step_cpu(&mut self, since: u64);
}

/// No tracing.
pub struct Off;

impl Tracer for Off {
    type Span = ();
    #[inline(always)]
    fn start(&self) {}
    #[inline(always)]
    fn stop(&mut self, _: Stage, _: ()) {}
    #[inline(always)]
    fn cpu(&self) -> u64 {
        0
    }
    #[inline(always)]
    fn step_cpu(&mut self, _: u64) {}
}

/// Per-stage totals.
#[derive(Default)]
pub struct Layers {
    /// Wall nanoseconds per stage, indexed like [`Stage::ALL`].
    pub ns: [u64; 7],
    /// Allocations per stage.
    pub allocs: [u64; 7],
    /// Each minute's fleet step, in nanoseconds.
    pub step_ns: Vec<u64>,
    /// Process CPU nanoseconds spent in fleet steps (all threads).
    pub step_cpu_ns: u64,
}

impl Layers {
    /// Wall nanoseconds charged to `stage`.
    pub fn ns_of(&self, stage: Stage) -> u64 {
        self.ns[stage as usize]
    }

    /// Allocations charged to `stage`.
    pub fn allocs_of(&self, stage: Stage) -> u64 {
        self.allocs[stage as usize]
    }
}

impl Tracer for Layers {
    type Span = (Instant, u64);

    fn start(&self) -> (Instant, u64) {
        (Instant::now(), allocations())
    }

    fn stop(&mut self, stage: Stage, (t0, a0): (Instant, u64)) {
        let ns = t0.elapsed().as_nanos() as u64;
        self.ns[stage as usize] += ns;
        self.allocs[stage as usize] += allocations() - a0;
        if stage == Stage::Step {
            self.step_ns.push(ns);
        }
    }

    fn cpu(&self) -> u64 {
        process_cpu_ns()
    }

    fn step_cpu(&mut self, since: u64) {
        self.step_cpu_ns += process_cpu_ns() - since;
    }
}
