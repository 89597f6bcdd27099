//! # fleet-trace — cycle-level observability for the Fleet simulators
//!
//! The paper's headline claims are *timing* claims: one virtual cycle
//! per real cycle (§4), ≈94 % of DRAM bus peak with bursts and
//! asynchronous addressing (§5, Fig. 9). This crate lets every
//! simulator *attribute* its cycles instead of reporting only
//! end-of-run aggregates, so a regression hunt reads a stall breakdown
//! rather than re-deriving cycle behaviour by hand.
//!
//! ## Architecture: probes and sinks
//!
//! Instrumented components (the memory-controller engine, the DRAM
//! model, the fast executor) call a [`Probe`], which forwards to a
//! [`TraceSink`] implementation chosen at *compile time* through a type
//! parameter:
//!
//! * [`NullSink`] — `ENABLED = false`; every probe call is guarded by
//!   `if S::ENABLED` on a constant, so the whole instrumentation path
//!   compiles away. This is the default everywhere; untraced runs pay
//!   nothing.
//! * [`CounterSink`] — per-PU busy / input-stall / output-stall /
//!   drained cycle counters, queue-depth statistics, a bus-utilization
//!   histogram, and event counts.
//! * [`EventSink`] — a bounded ring buffer of timestamped structured
//!   events (reads issued, bursts delivered, writes committed, units
//!   finishing, overflows).
//! * [`VcdSink`] — standard VCD waveforms of ready/valid/stall signals,
//!   viewable in GTKWave.
//!
//! Two sinks compose as a tuple: `(CounterSink, VcdSink)` records both.
//!
//! [`TraceReport`] aggregates per-channel counters into the run-level
//! stall-attribution breakdown ("61 % busy, 22 % DRAM-latency-bound…")
//! surfaced by `fleet_system::run_system_traced` and the
//! `fleet-bench --bin trace_report` harness.
//!
//! The [`sched`] module extends the same subsystem one layer up: the
//! `fleet-host` serving runtime reports its scheduler decisions through
//! [`SchedCounters`] and its per-job queue/pack/run/drain latency
//! distributions through [`LatencyStats`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod counter;
pub mod json;
pub mod event;
pub mod report;
pub mod sched;
pub mod vcd;

pub use json::escape_json;
pub use counter::{CounterSink, PuCycleCounters, QueueStats, BUS_WINDOW_CYCLES};
pub use event::{EventSink, TraceEvent};
pub use report::{ChannelTrace, DramCounters, PuTrace, StallAttribution, TraceReport};
pub use sched::{ClusterCounters, LatencyStats, SchedCounters, SessionCounters};
pub use vcd::VcdSink;

/// What one processing unit did in one real cycle, from the
/// controller's point of view. Exactly one class applies per PU per
/// cycle, so per-class counts always sum to total cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CycleClass {
    /// Executing a virtual cycle (or accepting a token).
    Busy = 0,
    /// Wanted an input token; none was buffered (input path bound:
    /// DRAM latency or input-controller contention).
    StallIn = 1,
    /// Emitted a token the output buffer could not accept
    /// (output-controller / write-path bound).
    StallOut = 2,
    /// Finished; waiting for the rest of the channel to drain.
    Drained = 3,
}

impl CycleClass {
    /// Number of classes.
    pub const COUNT: usize = 4;

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            CycleClass::Busy => "busy",
            CycleClass::StallIn => "input-stalled",
            CycleClass::StallOut => "output-stalled",
            CycleClass::Drained => "drained",
        }
    }
}

/// Queues whose depths the engine samples every traced cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueKind {
    /// Read requests issued to DRAM but not yet owned by a burst
    /// register (the asynchronous-addressing lookahead window).
    PendingReads = 0,
    /// DRAM read-address queue occupancy.
    DramReads = 1,
    /// DRAM write queue occupancy.
    DramWrites = 2,
    /// Input burst registers not free.
    InRegsBusy = 3,
    /// Output burst registers not free.
    OutRegsBusy = 4,
}

impl QueueKind {
    /// Number of sampled queues.
    pub const COUNT: usize = 5;

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            QueueKind::PendingReads => "pending_reads",
            QueueKind::DramReads => "dram_read_queue",
            QueueKind::DramWrites => "dram_write_queue",
            QueueKind::InRegsBusy => "in_regs_busy",
            QueueKind::OutRegsBusy => "out_regs_busy",
        }
    }

    /// All queue kinds, in discriminant order.
    pub fn all() -> [QueueKind; QueueKind::COUNT] {
        [
            QueueKind::PendingReads,
            QueueKind::DramReads,
            QueueKind::DramWrites,
            QueueKind::InRegsBusy,
            QueueKind::OutRegsBusy,
        ]
    }
}

/// Identifier of a declared waveform signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SignalId(pub u32);

/// Structured trace events; the payload of [`TraceEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The input addressing unit issued a DRAM read for a PU.
    ReadIssued {
        /// Target processing unit (channel-local index).
        pu: u32,
        /// Byte address.
        addr: u64,
        /// Burst length in 512-bit beats.
        beats: u32,
    },
    /// A full burst finished draining into a PU's input buffer.
    BurstDelivered {
        /// Receiving processing unit.
        pu: u32,
        /// Payload bytes (positive; at most one burst).
        bytes: u32,
    },
    /// The output controller committed a burst to the DRAM write queue.
    WriteIssued {
        /// Source processing unit.
        pu: u32,
        /// Byte address.
        addr: u64,
        /// Unpadded payload bytes.
        bytes: u32,
    },
    /// A processing unit asserted `output_finished`.
    UnitFinished {
        /// The finishing unit.
        pu: u32,
    },
    /// A processing unit overflowed its output region.
    OutputOverflow {
        /// The overflowing unit.
        pu: u32,
    },
}

impl EventKind {
    /// Number of event kinds (for per-kind counting).
    pub const COUNT: usize = 5;

    /// Dense discriminant for per-kind counters.
    pub fn index(self) -> usize {
        match self {
            EventKind::ReadIssued { .. } => 0,
            EventKind::BurstDelivered { .. } => 1,
            EventKind::WriteIssued { .. } => 2,
            EventKind::UnitFinished { .. } => 3,
            EventKind::OutputOverflow { .. } => 4,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::ReadIssued { .. } => "read_issued",
            EventKind::BurstDelivered { .. } => "burst_delivered",
            EventKind::WriteIssued { .. } => "write_issued",
            EventKind::UnitFinished { .. } => "unit_finished",
            EventKind::OutputOverflow { .. } => "output_overflow",
        }
    }
}

/// A trace backend. All methods default to no-ops so a sink implements
/// only what it records; `ENABLED = false` (see [`NullSink`]) lets the
/// [`Probe`] compile every call away.
pub trait TraceSink {
    /// Whether probe calls should be forwarded at all. Guarded on a
    /// constant so disabled instrumentation costs nothing.
    const ENABLED: bool = true;

    /// Declares a waveform signal before the run starts.
    fn declare_signal(&mut self, id: SignalId, name: &str, width: u8) {
        let _ = (id, name, width);
    }

    /// Called once at the start of every simulated cycle.
    fn cycle_start(&mut self, now: u64) {
        let _ = now;
    }

    /// Classifies what PU `pu` did this cycle.
    fn pu_cycle(&mut self, pu: u32, class: CycleClass) {
        let _ = (pu, class);
    }

    /// Classifies `n` consecutive cycles of PU `pu` at once.
    ///
    /// The skipping channel engine uses this to account a quiescent
    /// unit's sleep in bulk on wake-up; the default forwards to
    /// [`TraceSink::pu_cycle`] once per cycle so any sink stays exact,
    /// and aggregate sinks override it with a single addition.
    fn pu_cycles(&mut self, pu: u32, class: CycleClass, n: u64) {
        for _ in 0..n {
            self.pu_cycle(pu, class);
        }
    }

    /// Samples a queue depth for this cycle.
    fn queue_depth(&mut self, queue: QueueKind, depth: u32) {
        let _ = (queue, depth);
    }

    /// Whether the DRAM data bus was occupied this cycle.
    fn bus_cycle(&mut self, busy: bool) {
        let _ = busy;
    }

    /// Records a structured event.
    fn event(&mut self, event: TraceEvent) {
        let _ = event;
    }

    /// Records a signal value for this cycle (unchanged values are fine;
    /// sinks deduplicate).
    fn signal(&mut self, id: SignalId, value: u64) {
        let _ = (id, value);
    }
}

/// The no-op sink: `ENABLED = false`, so probes guarded on
/// `S::ENABLED` emit no code at all. The default sink everywhere.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    const ENABLED: bool = false;
}

/// Two sinks in parallel; enabled if either is.
impl<A: TraceSink, B: TraceSink> TraceSink for (A, B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    fn declare_signal(&mut self, id: SignalId, name: &str, width: u8) {
        self.0.declare_signal(id, name, width);
        self.1.declare_signal(id, name, width);
    }
    fn cycle_start(&mut self, now: u64) {
        self.0.cycle_start(now);
        self.1.cycle_start(now);
    }
    fn pu_cycle(&mut self, pu: u32, class: CycleClass) {
        self.0.pu_cycle(pu, class);
        self.1.pu_cycle(pu, class);
    }
    fn pu_cycles(&mut self, pu: u32, class: CycleClass, n: u64) {
        self.0.pu_cycles(pu, class, n);
        self.1.pu_cycles(pu, class, n);
    }
    fn queue_depth(&mut self, queue: QueueKind, depth: u32) {
        self.0.queue_depth(queue, depth);
        self.1.queue_depth(queue, depth);
    }
    fn bus_cycle(&mut self, busy: bool) {
        self.0.bus_cycle(busy);
        self.1.bus_cycle(busy);
    }
    fn event(&mut self, event: TraceEvent) {
        self.0.event(event);
        self.1.event(event);
    }
    fn signal(&mut self, id: SignalId, value: u64) {
        self.0.signal(id, value);
        self.1.signal(id, value);
    }
}

/// The instrument-side handle components hold. Every method guards on
/// `S::ENABLED`, a constant, so with [`NullSink`] the calls vanish at
/// compile time — components instrument unconditionally and pay only
/// when a real sink is plugged in.
#[derive(Debug, Clone, Default)]
pub struct Probe<S> {
    sink: S,
}

impl Probe<NullSink> {
    /// The disabled probe.
    pub fn null() -> Probe<NullSink> {
        Probe { sink: NullSink }
    }
}

impl<S: TraceSink> Probe<S> {
    /// Wraps a sink.
    pub fn new(sink: S) -> Probe<S> {
        Probe { sink }
    }

    /// Whether this probe records anything (constant).
    #[inline(always)]
    pub fn enabled(&self) -> bool {
        S::ENABLED
    }

    /// Recovers the sink (to read collected data after a run).
    pub fn into_sink(self) -> S {
        self.sink
    }

    /// Borrows the sink.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Borrows the sink mutably.
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }

    /// See [`TraceSink::declare_signal`].
    #[inline(always)]
    pub fn declare_signal(&mut self, id: SignalId, name: &str, width: u8) {
        if S::ENABLED {
            self.sink.declare_signal(id, name, width);
        }
    }

    /// See [`TraceSink::cycle_start`].
    #[inline(always)]
    pub fn cycle_start(&mut self, now: u64) {
        if S::ENABLED {
            self.sink.cycle_start(now);
        }
    }

    /// See [`TraceSink::pu_cycle`].
    #[inline(always)]
    pub fn pu_cycle(&mut self, pu: u32, class: CycleClass) {
        if S::ENABLED {
            self.sink.pu_cycle(pu, class);
        }
    }

    /// See [`TraceSink::pu_cycles`].
    #[inline(always)]
    pub fn pu_cycles(&mut self, pu: u32, class: CycleClass, n: u64) {
        if S::ENABLED {
            self.sink.pu_cycles(pu, class, n);
        }
    }

    /// See [`TraceSink::queue_depth`].
    #[inline(always)]
    pub fn queue_depth(&mut self, queue: QueueKind, depth: u32) {
        if S::ENABLED {
            self.sink.queue_depth(queue, depth);
        }
    }

    /// See [`TraceSink::bus_cycle`].
    #[inline(always)]
    pub fn bus_cycle(&mut self, busy: bool) {
        if S::ENABLED {
            self.sink.bus_cycle(busy);
        }
    }

    /// Records `kind` at `cycle`.
    #[inline(always)]
    pub fn event(&mut self, cycle: u64, kind: EventKind) {
        if S::ENABLED {
            self.sink.event(TraceEvent { cycle, kind });
        }
    }

    /// See [`TraceSink::signal`].
    #[inline(always)]
    pub fn signal(&mut self, id: SignalId, value: u64) {
        if S::ENABLED {
            self.sink.signal(id, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The assertions below check compile-time constants on purpose: the
    // zero-cost claim rests on these flags having these exact values.
    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn null_sink_is_disabled_and_zero_sized() {
        assert!(!NullSink::ENABLED);
        assert_eq!(std::mem::size_of::<Probe<NullSink>>(), 0);
    }

    #[test]
    fn tuple_sink_forwards_to_both() {
        let mut probe = Probe::new((CounterSink::default(), EventSink::new(8)));
        probe.cycle_start(0);
        probe.pu_cycle(0, CycleClass::Busy);
        probe.event(0, EventKind::UnitFinished { pu: 0 });
        let (counters, events) = probe.into_sink();
        assert_eq!(counters.cycles(), 1);
        assert_eq!(counters.pu_counters(0).busy, 1);
        assert_eq!(events.len(), 1);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn tuple_with_null_stays_enabled() {
        assert!(<(NullSink, CounterSink) as TraceSink>::ENABLED);
        assert!(!<(NullSink, NullSink) as TraceSink>::ENABLED);
    }
}
