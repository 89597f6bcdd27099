//! One channel's worth of the Fleet system: N processing units, the
//! round-robin input and output controllers with burst registers (§5),
//! and the DRAM channel they drive.
//!
//! The paper's two key optimizations are modelled exactly:
//!
//! * **Asynchronous address supply** — the addressing units run several
//!   requests ahead of the data transfer units, hiding DRAM latency.
//!   With `async_addr` off, the next address is supplied only after the
//!   previous burst has fully drained (Figure 9 baseline).
//! * **Burst registers** — `r` registers per direction buffer whole
//!   bursts so that `r` units' buffers are filled/drained in parallel at
//!   `w` bits per cycle each, matching the 512-bit bus rate when
//!   `r·w = 512`.
//!
//! Channels are fully independent (no cross-channel coordination), as in
//! the paper.
//!
//! ## Simulation fast path
//!
//! [`ChannelEngine::tick`] evaluates only an *active worklist* of units:
//! a unit whose executor proves it cannot change state until an external
//! pin changes ([`StreamUnit::quiescence`]) is put to sleep and skipped
//! until the input controller buffers a whole token for it (wakes an
//! input-stalled sleeper) or the output controller drains a token's
//! worth of space (wakes an output-stalled sleeper). Finished units
//! sleep until the end of the run. Skipped cycles are accounted exactly
//! — the engine records the sleep start and classifies the whole span in
//! bulk on wake-up or at [`ChannelEngine::flush_trace`], so cycle
//! counts, outputs, throughput statistics, and per-PU cycle classes are
//! identical to evaluating every unit every cycle. The pre-optimization
//! behaviour is kept as [`ChannelEngine::tick_naive`] so equivalence is
//! testable and benchmarkable.
//!
//! ## Evaluate, then apply
//!
//! One unit's cycle is two steps:
//!
//! 1. **Evaluate** (`eval_unit`): runs the unit's combinational +
//!    clocked step against its own controller-side state (`PuState`,
//!    read shared), mutating only the unit itself and its lane, and
//!    returns a compact effect record (`PuEffect`).
//! 2. **Apply** (`Ctl::apply_effect`): performs the record's
//!    controller-side mutations — buffer pops/pushes, stats, trace
//!    probes, finish/sleep transitions — with `pus` borrowed mutably.
//!
//! The split keeps the unit's evaluation from holding a mutable borrow
//! of the state the controllers own, and it is the one pair both
//! [`ChannelEngine::tick`] and [`ChannelEngine::tick_naive`] call, unit
//! by unit in ascending index order, so the two drives cannot disagree
//! about what a unit's handshake does.

use std::collections::{HashMap, VecDeque};

use fleet_axi::{ChannelStats, DramChannel, BEAT_BYTES};
use fleet_compiler::{PuExec, PuIn, Quiescence};
use fleet_trace::{
    ChannelTrace, CounterSink, CycleClass, DramCounters, EventKind, NullSink, Probe, QueueKind,
    SignalId, TraceSink,
};

use crate::config::{Addressing, MemCtlConfig, MAX_BURST_REGISTERS};
use crate::lanes::{lane_preeval, LaneGroups};
use crate::unit::StreamUnit;

/// Mirrors the DRAM channel's counters into the dependency-free
/// `fleet-trace` form.
pub fn dram_counters(s: ChannelStats) -> DramCounters {
    DramCounters {
        read_beats: s.read_beats,
        write_beats: s.write_beats,
        read_reqs: s.read_reqs,
        write_reqs: s.write_reqs,
        row_hits: s.row_hits,
        row_misses: s.row_misses,
        refreshes: s.refreshes,
        refresh_stall_cycles: s.refresh_stall_cycles,
        turnaround_cycles: s.turnaround_cycles,
        gap_cycles: s.gap_cycles,
    }
}

/// Placement of one unit's streams within a channel's memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamAssignment {
    /// Byte offset of the input stream (beat-aligned).
    pub in_start: usize,
    /// Input stream length in bytes (whole input tokens).
    pub in_len: usize,
    /// Byte offset of the output region (beat-aligned).
    pub out_start: usize,
    /// Output region capacity in bytes (with one burst of slack for the
    /// final padded beat).
    pub out_capacity: usize,
}

/// A contiguous byte FIFO: a `Vec` plus a head index, so bulk pushes and
/// pops are slice copies instead of per-byte `VecDeque` operations, and
/// the front of the queue is always a contiguous slice for whole-token
/// loads.
#[derive(Debug)]
pub(crate) struct ByteFifo {
    buf: Vec<u8>,
    head: usize,
}

impl ByteFifo {
    fn with_capacity(cap: usize) -> ByteFifo {
        ByteFifo { buf: Vec::with_capacity(cap), head: 0 }
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.buf.len() - self.head
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.head == self.buf.len()
    }

    #[inline]
    fn push_slice(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    #[inline]
    fn push_byte(&mut self, b: u8) {
        self.buf.push(b);
    }

    /// Appends the low `bytes` bytes of `token` (little-endian).
    #[inline]
    fn push_token(&mut self, token: u64, bytes: usize) {
        self.buf.extend_from_slice(&token.to_le_bytes()[..bytes]);
    }

    /// Reads the front `bytes` bytes as a little-endian token.
    #[inline]
    fn peek_token(&self, bytes: usize) -> u64 {
        debug_assert!((1..=8).contains(&bytes) && self.len() >= bytes);
        let front = &self.buf[self.head..];
        if let Some(word) = front.first_chunk::<8>() {
            // One fixed-size load and a mask instead of a
            // variable-length copy.
            return u64::from_le_bytes(*word) & (u64::MAX >> (64 - 8 * bytes));
        }
        let mut raw = [0u8; 8];
        raw[..bytes].copy_from_slice(&front[..bytes]);
        u64::from_le_bytes(raw)
    }

    /// Drops `n` bytes from the front, compacting the backing storage
    /// once the dead prefix dominates so memory stays bounded by the
    /// live contents.
    #[inline]
    fn pop_front_bytes(&mut self, n: usize) {
        self.head += n;
        debug_assert!(self.head <= self.buf.len());
        if self.head == self.buf.len() {
            self.buf.clear();
            self.head = 0;
        } else if self.head >= 1024 && self.head * 2 >= self.buf.len() {
            self.buf.copy_within(self.head.., 0);
            let live = self.buf.len() - self.head;
            self.buf.truncate(live);
            self.head = 0;
        }
    }

    #[inline]
    fn pop_byte(&mut self) -> u8 {
        let b = self.buf[self.head];
        self.pop_front_bytes(1);
        b
    }

    /// Moves `n` front bytes into `out` as one slice copy.
    #[inline]
    fn pop_slice_into(&mut self, n: usize, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.buf[self.head..self.head + n]);
        self.pop_front_bytes(n);
    }
}

/// Per-unit controller-side state: everything about a unit the
/// controllers read and write, kept apart from the unit itself.
#[derive(Debug)]
pub(crate) struct PuState {
    pub(crate) assign: StreamAssignment,
    pub(crate) in_fetched: usize,
    pub(crate) in_flight: usize,
    pub(crate) in_buffer: ByteFifo,
    pub(crate) out_buffer: ByteFifo,
    pub(crate) out_written: usize,
    pub(crate) finished: bool,
    /// Cached output-addressing readiness (a full burst buffered, or a
    /// finished unit's tail), maintained by [`Ctl::update_out_ready`]
    /// at every mutation of the state it derives from. Lets the output
    /// chooser skip its whole-array scan when no unit can be eligible.
    pub(crate) out_ready: bool,
    /// Set when the unit overflowed its output region (reported, not
    /// silently dropped).
    pub(crate) overflowed: bool,
    /// While the unit is off the active worklist: the first engine cycle
    /// not yet accounted, and the class every skipped cycle belongs to.
    pub(crate) sleep: Option<(u64, CycleClass)>,
    /// Set once the unit's output side is complete (counted out of
    /// `pending_outputs`, making [`ChannelEngine::done`] O(1)).
    pub(crate) output_done: bool,
    /// Fault injection: wedge this unit after it consumes this many
    /// input tokens (`None` = healthy unit).
    pub(crate) wedge_at: Option<u64>,
    /// Input tokens consumed so far (only maintained while `wedge_at`
    /// is armed — healthy engines skip the bookkeeping).
    pub(crate) tokens_consumed: u64,
    /// The unit has wedged: its pins read dead and it will never make
    /// progress again. Detected by the run-loop watchdog.
    pub(crate) wedged: bool,
    /// Open-ended stream (session mode): more input may still be
    /// appended, so the unit must never observe end-of-stream and the
    /// run loop suspends instead of letting the controller fetch a
    /// ragged tail burst. One-shot runs leave this false.
    pub(crate) open: bool,
    /// Exclusive end of the reserved input region for an open stream
    /// (appends must stay below it). Unused while `open` is false.
    pub(crate) in_region_end: usize,
}

#[derive(Debug)]
enum InRegState {
    Free,
    /// Receiving beats from the channel.
    Filling { pu: usize, data: Vec<u8>, chunk: usize, beats_left: u32, seq: u64 },
    /// Draining into the unit's input buffer at `w` bits/cycle.
    ///
    /// `seq` orders bursts so that two registers holding consecutive
    /// bursts for the *same* unit drain strictly in request order — a
    /// unit's buffer has a single write port, so its fills serialize.
    Draining { pu: usize, data: Vec<u8>, pos: usize, seq: u64 },
}

#[derive(Debug)]
enum OutRegState {
    Free,
    /// Collecting bytes from the unit's output buffer at `w` bits/cycle.
    Filling { pu: usize, addr: usize, data: Vec<u8>, target: usize },
    /// Waiting for the channel write queue to accept the burst.
    Sending { pu: usize, addr: usize, data: Vec<u8> },
}

/// Aggregate throughput counters for one channel engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Input bytes delivered into unit buffers.
    pub input_bytes: u64,
    /// Output bytes committed to DRAM (unpadded).
    pub output_bytes: u64,
    /// Output tokens produced by units.
    pub output_tokens: u64,
    /// Cycles ticked.
    pub cycles: u64,
}

/// Token geometry a unit evaluation needs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EvalParams {
    pub(crate) in_token_bytes: usize,
    pub(crate) out_token_bytes: usize,
    pub(crate) output_buffer_bytes: usize,
    /// SIMD lane width for batched PU evaluation (1 disables batching).
    pub(crate) lane_width: usize,
}

/// The compact record of one unit's evaluation for one cycle: everything
/// [`Ctl::apply_effect`] needs to perform the unit's controller-side
/// mutations (see the module docs, "Evaluate, then apply").
#[derive(Debug, Clone, Copy)]
struct PuEffect {
    pu: u32,
    /// Output token value (meaningful when `emitted`).
    token: u64,
    /// This cycle's class for the unit (Busy / StallIn / StallOut).
    class: CycleClass,
    /// `Some(class)` when the unit parked itself (finished → Drained,
    /// quiescent → StallIn/StallOut); `None` keeps it on the worklist.
    sleep: Option<CycleClass>,
    /// Popped one input token.
    consumed: bool,
    /// Pushed one output token.
    emitted: bool,
    /// Raised `output_finished` this cycle.
    finished: bool,
    /// Handshake pins for waveform probes:
    /// `[in_valid, in_ready, out_valid, out_ready]`.
    signals: [bool; 4],
}

/// First set bit at or (circularly) after `start`, over a bitset read
/// word-wise through `word` (`nw` words). Bits past the logical length
/// must never be set. Used by the round-robin choosers to find the next
/// candidate in O(n/64) instead of walking every unit.
fn first_set_circular(start: usize, word: impl Fn(usize) -> u64, nw: usize) -> Option<usize> {
    if nw == 0 {
        return None;
    }
    let w0 = start / 64;
    let b0 = start % 64;
    let head = word(w0) & (!0u64 << b0);
    if head != 0 {
        return Some(w0 * 64 + head.trailing_zeros() as usize);
    }
    for i in 1..=nw {
        let w = (w0 + i) % nw;
        let bits = if w == w0 { word(w) & !(!0u64 << b0) } else { word(w) };
        if bits != 0 {
            return Some(w * 64 + bits.trailing_zeros() as usize);
        }
    }
    None
}

/// The unit's `output_ready` pin: room for one more token in its output
/// buffer — never, once the unit has wedged. [`pins_of`] and the lane
/// sweep's retire mask ([`lane_preeval`](crate::lanes::lane_preeval))
/// both read it here, so a sweep retires exactly the handshakes the pins
/// would accept.
#[inline]
pub(crate) fn output_ready_of(st: &PuState, params: &EvalParams) -> bool {
    !st.wedged && st.out_buffer.len() + params.out_token_bytes <= params.output_buffer_bytes
}

/// The unit's input pins, derived purely from its own [`PuState`].
#[inline]
pub(crate) fn pins_of(st: &PuState, params: &EvalParams) -> PuIn {
    if st.wedged {
        // A wedged unit's interface goes dead: no valid input, no
        // end-of-stream, no output acceptance. The unit quiesces and the
        // engine stops making progress — which is exactly what the
        // watchdog exists to detect.
        return PuIn {
            input_token: 0,
            input_valid: false,
            input_finished: false,
            output_ready: false,
        };
    }
    let have = st.in_buffer.len() >= params.in_token_bytes;
    // An open-ended stream never reads as exhausted: more data may
    // still be appended, so end-of-stream must wait for `close_stream`.
    let exhausted = !st.open
        && st.in_fetched >= st.assign.in_len
        && st.in_flight == 0
        && st.in_buffer.is_empty();
    PuIn {
        input_token: if have { st.in_buffer.peek_token(params.in_token_bytes) } else { 0 },
        input_valid: have,
        input_finished: exhausted,
        output_ready: output_ready_of(st, params),
    }
}

/// The evaluate step of a cycle for one unit: combinational evaluation
/// and clock (one fused step, [`PuExec::clock_retired`], when the unit is
/// resident in one of `lanes`' groups and the cycle's sweep retired it),
/// touching only `unit` itself and its lane, and reading `st`
/// immutably. Returns the effect record for [`Ctl::apply_effect`]. A
/// unit that leaves the per-unit path with an evaluation pending is
/// noted as a joiner for the next sweep.
///
/// `reference` selects the seed-faithful reference program (the naive
/// tick) and disables sleeping; the fast paths pass `false`.
#[inline]
fn eval_unit<U: StreamUnit>(
    p: usize,
    unit: &mut U,
    st: &PuState,
    params: &EvalParams,
    lanes: &mut LaneGroups,
    reference: bool,
) -> PuEffect {
    // The fast paths run units on their optimized evaluation path; the
    // naive tick keeps the seed-faithful reference path so throughput
    // comparisons are honest. Both are cycle-exact.
    unit.set_reference_eval(reference);
    let pins = pins_of(st, params);
    let home = lanes.home(p);
    let retired = home.and_then(|(g, l)| {
        let x = unit.lane_exec_mut().expect("resident units have a lane executor");
        x.clock_retired(lanes.group_mut(g), l, &pins)
    });
    let out = retired.unwrap_or_else(|| {
        let out = unit.comb(&pins);
        unit.clock(&pins);
        out
    });
    if home.is_none() && params.lane_width > 1 && unit.lane_exec().is_some_and(PuExec::lane_pending) {
        lanes.joiners.push(p);
    }
    // Exactly one class per PU per cycle (conservation):
    // back-pressured emission is an output stall, an idle unit whose
    // buffer has no token is an input stall, everything else (including
    // cleanup execution after `input_finished`) counts as busy.
    let class = if out.output_valid && !pins.output_ready {
        CycleClass::StallOut
    } else if !pins.input_valid && !pins.input_finished && out.input_ready {
        CycleClass::StallIn
    } else {
        CycleClass::Busy
    };
    let consumed = pins.input_valid && out.input_ready;
    let emitted = out.output_valid && pins.output_ready;
    let finished = out.output_finished;
    let sleep = if reference {
        None
    } else if finished {
        // The naive engine never ticks finished units either; park it
        // with Drained accounting from the next cycle on.
        Some(CycleClass::Drained)
    } else {
        match unit.quiescence() {
            Quiescence::None => None,
            // Pins seen above were !input_valid && !input_finished (the
            // unit idled), and nothing a skipped unit does can change
            // them — only the input controller can, and it wakes the
            // unit when a whole token is buffered.
            Quiescence::UntilInput => Some(CycleClass::StallIn),
            // Emission back-pressured: out_buffer only drains via the
            // output controller, which wakes the unit when a token's
            // worth of space opens.
            Quiescence::UntilOutput => Some(CycleClass::StallOut),
        }
    };
    PuEffect {
        pu: p as u32,
        token: out.output_token,
        class,
        sleep,
        consumed,
        emitted,
        finished,
        signals: [pins.input_valid, out.input_ready, out.output_valid, pins.output_ready],
    }
}

/// Merges the sorted `src` list into the sorted `dst` list in place
/// (classic backward merge: `dst` is grown once, elements are placed
/// from the tail, no scratch allocation). Replaces the former
/// `append + sort_unstable` over the whole worklist — a wake storm of
/// `k` units costs `O(n + k)` instead of `O((n + k) log (n + k))`.
pub(crate) fn merge_sorted_slice(dst: &mut Vec<usize>, src: &[usize]) {
    debug_assert!(dst.windows(2).all(|w| w[0] < w[1]));
    debug_assert!(src.windows(2).all(|w| w[0] < w[1]));
    if src.is_empty() {
        return;
    }
    if dst.is_empty() {
        dst.extend_from_slice(src);
        return;
    }
    // Common case: everything woken sits past the current tail.
    if src[0] > *dst.last().unwrap() {
        dst.extend_from_slice(src);
        return;
    }
    let old = dst.len();
    dst.resize(old + src.len(), 0);
    let mut i = old; // unmerged prefix of the original dst
    let mut j = src.len();
    let mut w = dst.len();
    while j > 0 {
        w -= 1;
        if i > 0 && dst[i - 1] > src[j - 1] {
            i -= 1;
            dst[w] = dst[i];
        } else {
            j -= 1;
            dst[w] = src[j];
        }
    }
    debug_assert!(dst.windows(2).all(|x| x[0] < x[1]));
}

/// Everything in a channel *except* the units, the per-unit state, and
/// the active worklist: the controllers, DRAM, stats, and trace probe.
///
/// Controller methods take `pus` (and, where a wake must replay a
/// sleeper's skipped span, `units`) as parameters instead of owning
/// them, so the ticks can split-borrow the engine.
#[derive(Debug)]
pub(crate) struct Ctl<S: TraceSink> {
    pub(crate) cfg: MemCtlConfig,
    pub(crate) dram: DramChannel,
    pub(crate) params: EvalParams,
    n_pus: usize,
    /// Number of units whose cached [`PuState::out_ready`] flag is set.
    /// Zero means the output chooser cannot pick anyone this cycle, so
    /// its round-robin scan is skipped entirely.
    out_ready_units: usize,
    /// Bitset mirror of the per-unit [`PuState::out_ready`] flags, so
    /// the nonblocking output chooser can jump straight to candidate
    /// units with word-wide scans instead of walking every unit.
    out_ready_bits: Vec<u64>,
    /// Bitset (one bit per unit) of input-addressing-eligible units:
    /// unfetched bytes remain and the unit buffer has room for the next
    /// chunk. Maintained by [`Ctl::update_in_eligible`] at every
    /// mutation of the state it derives from, so the input chooser can
    /// find the next candidate with word-wide scans instead of walking
    /// every unit's buffer accounting each cycle.
    in_elig_bits: Vec<u64>,
    /// Bitset of units the *blocking* addressing discipline must wait
    /// for: not exhausted and actively requesting (buffered + in-flight
    /// bytes below one burst). Maintained alongside `in_elig_bits`; the
    /// blocking chooser stops at the first unit in either set.
    in_block_bits: Vec<u64>,

    // Input controller.
    in_rr: usize,
    in_regs: Vec<InRegState>,
    /// Issued read requests not yet assigned to a burst register, in AXI
    /// return order: `(pu, chunk_bytes, beats)`.
    pending_reads: VecDeque<(usize, usize, u32)>,
    next_tag: u32,
    next_seq: u64,

    // Output controller.
    out_rr: usize,
    out_regs: Vec<OutRegState>,

    /// Units woken this cycle, maintained sorted (wakes arrive in
    /// controller scan order; each insert is a binary search over a
    /// handful of entries).
    pub(crate) woken: Vec<usize>,
    /// Diagnostic high-water mark: the most units ever woken in one
    /// cycle (a "wake storm"). Lets tests prove a workload actually
    /// exercised multi-wake merges.
    pub(crate) woken_peak: usize,
    /// Units whose output side is not yet complete (see
    /// [`ChannelEngine::done`]).
    pub(crate) pending_outputs: usize,
    /// Units whose stream is currently open-ended (session mode), kept
    /// sorted. Empty for one-shot runs, so the per-cycle starvation
    /// check in the run loop is a single branch.
    pub(crate) open_units: Vec<usize>,
    /// First unit observed overflowing its output region.
    pub(crate) first_overflow: Option<usize>,
    /// Watchdog window: declare the run stuck after this many
    /// consecutive cycles without forward progress (0 = disabled).
    pub(crate) watchdog_cycles: u64,
    /// Cycles advanced in bulk by the event-driven clock (cycle
    /// skipping). Deliberately *not* part of [`EngineStats`]: the
    /// equivalence tests compare stats between the skipping and naive
    /// drives, and this counter is a property of the drive, not of the
    /// simulated hardware.
    pub(crate) cycles_skipped: u64,

    pub(crate) stats: EngineStats,
    pub(crate) probe: Probe<S>,
}

/// How an error ended a [`ChannelEngine::run_channel`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineRunError {
    /// A unit overflowed its output region (channel-local unit index).
    Overflow {
        /// Channel-local index of the overflowing unit.
        unit: usize,
    },
    /// The engine did not finish within the cycle budget.
    Timeout {
        /// The budget that was exceeded.
        max_cycles: u64,
    },
    /// The watchdog saw no forward progress for its full window and a
    /// wedged unit explains why (channel-local unit index).
    Wedged {
        /// Channel-local index of the wedged unit.
        unit: usize,
    },
    /// The watchdog saw no forward progress for its full window with no
    /// wedged unit to blame (e.g. a pathological stall).
    Stalled {
        /// Cycles the channel went without any forward progress.
        idle_cycles: u64,
    },
}

/// How a successful quantum of an *open* run (streams may still be
/// appended to) ended. Cycle counts are cycles advanced by this call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenStep {
    /// Every unit finished and all output drained to memory.
    Done(u64),
    /// An open stream ran low on appended input: the engine suspended
    /// between cycles with all state preserved. Append more bytes (or
    /// close the stream) and call the run loop again to resume
    /// cycle-exactly.
    Suspended(u64),
}

/// Rejected [`ChannelEngine::close_stream`]: the stream's total
/// appended bytes do not form a whole number of input tokens, so the
/// unit could never consume the tail. The stream is left open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MisalignedClose {
    /// Total appended bytes at the attempted close.
    pub in_len: usize,
    /// The unit's input token size.
    pub token_bytes: usize,
}

/// Attributes a watchdog trip: a wedged unit if one exists, otherwise a
/// generic stall.
pub(crate) fn stall_error(pus: &[PuState], idle_cycles: u64) -> EngineRunError {
    match pus.iter().position(|st| st.wedged) {
        Some(unit) => EngineRunError::Wedged { unit },
        None => EngineRunError::Stalled { idle_cycles },
    }
}

/// One channel: processing units + input/output controllers + DRAM.
///
/// The second type parameter selects the [`TraceSink`] the engine's
/// instrumentation probes feed; the default [`NullSink`] compiles every
/// probe call away, so untraced engines are unchanged. Build traced
/// engines with [`ChannelEngine::with_sink`].
#[derive(Debug)]
pub struct ChannelEngine<U, S: TraceSink = NullSink> {
    pub(crate) units: Vec<U>,
    pub(crate) pus: Vec<PuState>,
    /// Quiescence-skipping worklist (kept sorted so units are evaluated
    /// in index order, like the naive all-units loop).
    pub(crate) active: Vec<usize>,
    /// The lane groups: resident units' registers live there between
    /// cycles.
    pub(crate) lanes: LaneGroups,
    pub(crate) ctl: Ctl<S>,
}

impl<U: StreamUnit> ChannelEngine<U> {
    /// Builds an untraced engine over `units` with matching stream
    /// assignments.
    ///
    /// `in_token_bytes` / `out_token_bytes` are the unit's token sizes.
    ///
    /// # Panics
    ///
    /// Panics if lengths mismatch, a stream is not whole tokens, or a
    /// region is not beat-aligned.
    pub fn new(
        cfg: MemCtlConfig,
        dram: DramChannel,
        units: Vec<U>,
        assigns: Vec<StreamAssignment>,
        in_token_bytes: usize,
        out_token_bytes: usize,
    ) -> ChannelEngine<U> {
        ChannelEngine::with_sink(cfg, dram, units, assigns, in_token_bytes, out_token_bytes, NullSink)
    }
}

impl<U: StreamUnit, S: TraceSink> ChannelEngine<U, S> {
    /// Builds an engine whose instrumentation probes feed `sink`. See
    /// [`ChannelEngine::new`] for the other arguments and panics.
    ///
    /// Declares the waveform signals (per-PU ready/valid pairs plus
    /// channel-level bus/queue occupancy) on the sink before the first
    /// cycle, so a `VcdSink` needs no separate setup.
    pub fn with_sink(
        cfg: MemCtlConfig,
        dram: DramChannel,
        units: Vec<U>,
        assigns: Vec<StreamAssignment>,
        in_token_bytes: usize,
        out_token_bytes: usize,
        sink: S,
    ) -> ChannelEngine<U, S> {
        cfg.check();
        assert_eq!(units.len(), assigns.len(), "one assignment per unit");
        for a in &assigns {
            assert!(a.in_start % BEAT_BYTES == 0, "input region must be beat-aligned");
            assert!(a.out_start % BEAT_BYTES == 0, "output region must be beat-aligned");
            assert!(
                a.in_len % in_token_bytes == 0,
                "input stream must be a whole number of tokens"
            );
        }
        let pus: Vec<PuState> = assigns
            .into_iter()
            .map(|assign| {
                let in_region_end = assign.in_start + assign.in_len;
                PuState {
                    assign,
                    in_fetched: 0,
                    in_flight: 0,
                    in_buffer: ByteFifo::with_capacity(cfg.input_buffer_bytes),
                    out_buffer: ByteFifo::with_capacity(cfg.output_buffer_bytes),
                    out_written: 0,
                    finished: false,
                    out_ready: false,
                    overflowed: false,
                    sleep: None,
                    output_done: false,
                    wedge_at: None,
                    tokens_consumed: 0,
                    wedged: false,
                    open: false,
                    in_region_end,
                }
            })
            .collect();
        let n_regs = cfg.burst_registers;
        let n_pus = pus.len();
        let mut engine = ChannelEngine {
            units,
            pus,
            active: (0..n_pus).collect(),
            lanes: LaneGroups::default(),
            ctl: Ctl {
                cfg,
                dram,
                params: EvalParams {
                    in_token_bytes,
                    out_token_bytes,
                    output_buffer_bytes: cfg.output_buffer_bytes,
                    lane_width: cfg.lane_width,
                },
                n_pus,
                out_ready_units: 0,
                out_ready_bits: vec![0u64; n_pus.div_ceil(64)],
                in_elig_bits: vec![0u64; n_pus.div_ceil(64)],
                in_block_bits: vec![0u64; n_pus.div_ceil(64)],
                in_rr: 0,
                in_regs: (0..n_regs).map(|_| InRegState::Free).collect(),
                pending_reads: VecDeque::new(),
                next_tag: 0,
                next_seq: 0,
                out_rr: 0,
                out_regs: (0..n_regs).map(|_| OutRegState::Free).collect(),
                woken: Vec::new(),
                woken_peak: 0,
                pending_outputs: n_pus,
                open_units: Vec::new(),
                first_overflow: None,
                watchdog_cycles: 0,
                cycles_skipped: 0,
                stats: EngineStats::default(),
                probe: Probe::new(sink),
            },
        };
        for p in 0..n_pus {
            engine.ctl.update_in_eligible(p, &mut engine.pus);
        }
        if engine.ctl.probe.enabled() {
            for p in 0..engine.pus.len() {
                let base = p as u32 * 4;
                engine.ctl.probe.declare_signal(SignalId(base), &format!("pu{p}_in_valid"), 1);
                engine.ctl.probe.declare_signal(SignalId(base + 1), &format!("pu{p}_in_ready"), 1);
                engine.ctl.probe.declare_signal(SignalId(base + 2), &format!("pu{p}_out_valid"), 1);
                engine.ctl.probe.declare_signal(SignalId(base + 3), &format!("pu{p}_out_ready"), 1);
            }
            let base = engine.pus.len() as u32 * 4;
            engine.ctl.probe.declare_signal(SignalId(base), "bus_busy", 1);
            engine.ctl.probe.declare_signal(SignalId(base + 1), "pending_reads", 16);
            engine.ctl.probe.declare_signal(SignalId(base + 2), "in_regs_active", 8);
            engine.ctl.probe.declare_signal(SignalId(base + 3), "out_regs_active", 8);
        }
        engine
    }

    /// The trace sink (read collected counters after or during a run).
    ///
    /// Per-PU cycle classes for sleeping units are accounted lazily;
    /// call [`ChannelEngine::flush_trace`] first when reading counters
    /// mid-run. [`ChannelEngine::run_channel`] and
    /// [`ChannelEngine::into_sink`] flush for you.
    pub fn sink(&self) -> &S {
        self.ctl.probe.sink()
    }

    /// Consumes the engine, returning its sink (flushed).
    pub fn into_sink(mut self) -> S {
        self.flush_trace();
        self.ctl.probe.into_sink()
    }

    /// Per-unit virtual-cycle counts, where units report them.
    pub fn unit_vcycles(&self) -> Vec<Option<u64>> {
        self.units.iter().map(|u| u.vcycles()).collect()
    }

    /// The units themselves (for reading per-unit counters after a run).
    /// After a drive ([`ChannelEngine::run_channel`] and its open form)
    /// or a [`ChannelEngine::tick_naive`] every unit holds its own state;
    /// between bare [`ChannelEngine::tick`]s, units resident in a lane
    /// group do not.
    pub fn units(&self) -> &[U] {
        &self.units
    }

    /// Number of units.
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// Whether the engine has no units.
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// Throughput counters.
    pub fn stats(&self) -> EngineStats {
        self.ctl.stats
    }

    /// DRAM channel (for host-side load/readback).
    pub fn dram(&self) -> &DramChannel {
        &self.ctl.dram
    }

    /// DRAM channel, mutable (host-side loading).
    pub fn dram_mut(&mut self) -> &mut DramChannel {
        &mut self.ctl.dram
    }

    /// Number of units currently on the active worklist (not sleeping).
    /// Diagnostic for how much work quiescence skipping is saving.
    pub fn active_units(&self) -> usize {
        self.active.len()
    }

    /// Cycles advanced in bulk by the event-driven clock: spans where
    /// every unit was asleep and nothing could change until the next
    /// DRAM event (read beat, write apply), watchdog boundary, or cycle
    /// budget. A subset of `stats().cycles`; `0` on drives that never
    /// skip (manual ticking, the naive reference). Diagnostic for how
    /// much wall time cycle skipping is saving.
    pub fn cycles_skipped(&self) -> u64 {
        self.ctl.cycles_skipped
    }

    /// Whether any unit overflowed its output region.
    pub fn any_overflow(&self) -> bool {
        self.ctl.first_overflow.is_some()
    }

    /// Arms fault injection on unit `p`: it wedges (permanently stops
    /// making progress) after consuming `after_tokens` input tokens.
    pub fn set_wedge(&mut self, p: usize, after_tokens: u64) {
        self.pus[p].wedge_at = Some(after_tokens.max(1));
    }

    /// Arms the no-forward-progress watchdog: `run_channel` ends with
    /// [`EngineRunError::Wedged`] / [`EngineRunError::Stalled`] after
    /// `cycles` consecutive cycles in which no byte moved, no token
    /// retired, and no DRAM request advanced. `0` (the default) disables the watchdog. The watchdog
    /// only observes — it never changes simulated state — so arming it
    /// on a healthy run costs a tuple compare per cycle and nothing
    /// else.
    pub fn set_watchdog(&mut self, cycles: u64) {
        self.ctl.watchdog_cycles = cycles;
    }

    /// Number of units that have wedged (fault injection).
    pub fn wedged_units(&self) -> usize {
        self.pus.iter().filter(|st| st.wedged).count()
    }

    /// Whether unit `p` ran to completion: stream fully consumed, all
    /// output committed, no overflow. Used to salvage per-stream partial
    /// results from a channel whose run failed.
    pub fn unit_finished(&self, p: usize) -> bool {
        let st = &self.pus[p];
        st.finished && st.output_done && !st.overflowed
    }

    /// The first unit that overflowed its output region, if any — the
    /// actual culprit, so callers can attribute the failure to the right
    /// stream instead of guessing.
    pub fn overflowed_unit(&self) -> Option<usize> {
        self.ctl.first_overflow
    }

    /// Output bytes committed for unit `p` (excluding beat padding).
    pub fn output_len(&self, p: usize) -> usize {
        self.pus[p].out_written
    }

    /// Reads back unit `p`'s output region from DRAM.
    ///
    /// Call after [`ChannelEngine::done`] returns true.
    pub fn output_bytes(&self, p: usize) -> Vec<u8> {
        let st = &self.pus[p];
        let start = st.assign.out_start;
        self.ctl.dram.mem()[start..start + st.out_written].to_vec()
    }

    /// Marks unit `p`'s stream as open-ended (session mode): its length
    /// starts at whatever the assignment carried and grows via
    /// [`ChannelEngine::append_stream`]; the unit will not observe
    /// end-of-stream until [`ChannelEngine::close_stream`]. `region_end`
    /// is the exclusive end of the reserved input region appends must
    /// stay inside.
    ///
    /// # Panics
    ///
    /// Panics if the unit already finished or the region bound is below
    /// the current stream length.
    pub fn set_stream_open(&mut self, p: usize, region_end: usize) {
        let st = &mut self.pus[p];
        assert!(!st.finished, "cannot re-open a finished stream");
        assert!(region_end >= st.assign.in_start + st.assign.in_len, "region bound below current stream end");
        st.open = true;
        st.in_region_end = region_end;
        if let Err(i) = self.ctl.open_units.binary_search(&p) {
            self.ctl.open_units.insert(i, p);
        }
    }

    /// Whether unit `p`'s stream is currently open-ended.
    pub fn stream_open(&self, p: usize) -> bool {
        self.pus[p].open
    }

    /// Current appended length of unit `p`'s stream in bytes.
    pub fn stream_len(&self, p: usize) -> usize {
        self.pus[p].assign.in_len
    }

    /// Where unit `p`'s streams sit in the channel's memory (`in_len`
    /// is the current appended length for an open stream).
    pub fn assignment(&self, p: usize) -> StreamAssignment {
        self.pus[p].assign
    }

    /// Appends `bytes` to open stream `p`: writes them into the
    /// channel's backing memory directly after the stream's current end
    /// and extends the stream length. Call only between run quanta
    /// (the engine suspended or not yet started); the addressing unit
    /// picks the new bytes up on the next [`ChannelEngine::run_channel_open`].
    ///
    /// # Panics
    ///
    /// Panics if the stream is not open or the append overruns the
    /// reserved input region.
    pub fn append_stream(&mut self, p: usize, bytes: &[u8]) {
        let st = &mut self.pus[p];
        assert!(st.open, "append to a stream that is not open");
        let start = st.assign.in_start + st.assign.in_len;
        assert!(
            start + bytes.len() <= st.in_region_end,
            "append overruns the reserved input region"
        );
        self.ctl.dram.mem_mut()[start..start + bytes.len()].copy_from_slice(bytes);
        st.assign.in_len += bytes.len();
        self.ctl.update_in_eligible(p, &mut self.pus);
    }

    /// Ends open stream `p`: no more appends; the unit will observe
    /// end-of-stream once the remaining bytes drain, exactly like a
    /// one-shot run of the full concatenated stream.
    ///
    /// # Errors
    ///
    /// Refuses (leaving the stream open) when the appended bytes do not
    /// form a whole number of input tokens — the session-layer caller
    /// turns that into a graceful session failure instead of wedging
    /// the engine on a partial trailing token.
    ///
    /// # Panics
    ///
    /// Panics if the stream is not open.
    pub fn close_stream(&mut self, p: usize) -> Result<(), MisalignedClose> {
        let st = &mut self.pus[p];
        assert!(st.open, "close of a stream that is not open");
        let token_bytes = self.ctl.params.in_token_bytes;
        if !st.assign.in_len.is_multiple_of(token_bytes) {
            return Err(MisalignedClose { in_len: st.assign.in_len, token_bytes });
        }
        st.open = false;
        if let Ok(i) = self.ctl.open_units.binary_search(&p) {
            self.ctl.open_units.remove(i);
        }
        Ok(())
    }

    /// Whether any open stream is currently starving the channel: it
    /// has fewer un-fetched bytes than one input burst. Such a channel's
    /// open run loop suspends until an append or close changes the
    /// picture.
    pub fn open_starved(&self) -> bool {
        self.ctl.open_starved(&self.pus)
    }

    /// Bytes of unit `p`'s output that are fully committed to the
    /// channel's backing memory — safe to read back mid-run. `None`
    /// while a burst register still holds bytes for `p` or a queued
    /// DRAM write overlapping `p`'s output region has not applied yet
    /// (the window simply lags by at most one burst in that case).
    pub fn committed_output_len(&self, p: usize) -> Option<usize> {
        let busy = self.ctl.out_regs.iter().any(|r| {
            matches!(
                r,
                OutRegState::Filling { pu, .. } | OutRegState::Sending { pu, .. } if *pu == p
            )
        });
        if busy {
            return None;
        }
        let st = &self.pus[p];
        let lo = st.assign.out_start;
        if self.ctl.dram.has_pending_write_in(lo, lo + st.out_written) {
            return None;
        }
        Some(st.out_written)
    }

    /// Reads back unit `p`'s committed output bytes in `[from,
    /// committed)` — the windowed partial-output delivery primitive.
    /// `None` when the committed length cannot be established yet (see
    /// [`ChannelEngine::committed_output_len`]).
    pub fn committed_output_since(&self, p: usize, from: usize) -> Option<&[u8]> {
        let committed = self.committed_output_len(p)?;
        let start = self.pus[p].assign.out_start;
        Some(&self.ctl.dram.mem()[start + from..start + committed])
    }

    /// Accounts the skipped span of every sleeping unit up to the
    /// current cycle, without waking anyone. Idempotent; call before
    /// reading per-PU counters mid-run.
    pub fn flush_trace(&mut self) {
        let Self { units, pus, ctl, .. } = self;
        for p in 0..pus.len() {
            if let Some((since, class)) = pus[p].sleep {
                let skipped = ctl.stats.cycles - since;
                if skipped > 0 {
                    ctl.probe.pu_cycles(p as u32, class, skipped);
                    if class != CycleClass::Drained {
                        // The naive engine would have clocked a stalled
                        // unit every cycle; finished units were never
                        // ticked, so Drained spans touch the sink only.
                        units[p].skip_cycles(skipped);
                    }
                    pus[p].sleep = Some((ctl.stats.cycles, class));
                }
            }
        }
    }

    /// Ticks the active processing units one cycle (handshakes with the
    /// controller buffers), then the controllers, then DRAM. Quiescent
    /// units are skipped and accounted in bulk; results are identical to
    /// [`ChannelEngine::tick_naive`].
    pub fn tick(&mut self) {
        let Self { units, pus, active, lanes, ctl } = self;
        ctl.probe.cycle_start(ctl.stats.cycles);
        // --- Lane phase: residency upkeep and one SIMD sweep per lane
        // group, so the per-unit loop below finds resident units'
        // virtual cycles already retired. ---
        lane_preeval(units, pus, &ctl.params, lanes);
        // --- Processing units (active worklist, index order): evaluate
        // and apply fused per unit. ---
        active.retain(|&p| {
            if pus[p].finished {
                // Finished during a naive tick; park it now.
                pus[p].sleep = Some((ctl.stats.cycles, CycleClass::Drained));
                false
            } else {
                let eff = eval_unit(p, &mut units[p], &pus[p], &ctl.params, lanes, false);
                ctl.apply_effect(&eff, pus)
            }
        });

        ctl.finish_cycle(pus, units, false);

        if !ctl.woken.is_empty() {
            ctl.woken_peak = ctl.woken_peak.max(ctl.woken.len());
            merge_sorted_slice(active, &ctl.woken);
            ctl.woken.clear();
        }
    }

    /// Reference tick: evaluates **every** unit every cycle with the
    /// pre-optimization per-byte controller loops — the engine as it
    /// was before quiescence skipping. Kept so the equivalence tests
    /// and the `simperf --compare-naive` benchmark can hold the fast
    /// path to cycle-exactness.
    ///
    /// Naive and fast ticks can be interleaved on one engine: this
    /// evicts the lane groups, flushes and wakes everything first, so
    /// state stays exact.
    pub fn tick_naive(&mut self) {
        self.flush_and_wake_all();
        let Self { units, pus, lanes, ctl, .. } = self;
        ctl.probe.cycle_start(ctl.stats.cycles);

        for p in 0..units.len() {
            // Skip fully finished units cheaply.
            if pus[p].finished {
                if ctl.probe.enabled() {
                    ctl.probe.pu_cycle(p as u32, CycleClass::Drained);
                    let base = p as u32 * 4;
                    for off in 0..4 {
                        ctl.probe.signal(SignalId(base + off), 0);
                    }
                }
                continue;
            }
            let eff = eval_unit(p, &mut units[p], &pus[p], &ctl.params, lanes, true);
            let keep = ctl.apply_effect(&eff, pus);
            debug_assert!(keep, "reference evaluation never parks a unit");
        }

        ctl.finish_cycle(pus, units, true);
    }

    /// Stores every resident unit back, flushes deferred accounting and
    /// returns every sleeper to the active worklist (finished units stay
    /// off it — the naive loop handles them with its own per-cycle
    /// branch).
    fn flush_and_wake_all(&mut self) {
        self.lanes.evict_all(&mut self.units);
        self.flush_trace();
        self.ctl.woken.clear();
        self.active.clear();
        for p in 0..self.pus.len() {
            self.pus[p].sleep = None;
            if !self.pus[p].finished {
                self.active.push(p);
            }
        }
    }

    /// Whether every unit has finished, all output has been committed to
    /// DRAM, and the write queue has drained. O(1): unit completions are
    /// counted as they happen.
    pub fn done(&self) -> bool {
        self.ctl.pending_outputs == 0 && self.ctl.dram.write_queue_len() == 0
    }
}

/// The channel-wide forward-progress signature the watchdog samples
/// once per cycle: if none of these move, nothing observable is
/// happening — no byte crossed a buffer, no token retired, no unit
/// completed, and no DRAM request advanced.
pub(crate) type ProgressSig = (u64, u64, u64, usize, u64, u64, usize, usize);

/// Per-run no-forward-progress detector of the run loop.
pub(crate) struct Watchdog {
    window: u64,
    sig: ProgressSig,
    pub(crate) idle: u64,
}

impl Watchdog {
    pub(crate) fn new(window: u64, sig: ProgressSig) -> Watchdog {
        Watchdog { window, sig, idle: 0 }
    }

    /// Feed one post-tick signature; true once `window` consecutive
    /// cycles produced no change (never for a disabled watchdog).
    pub(crate) fn stuck(&mut self, sig: ProgressSig) -> bool {
        if self.window == 0 {
            return false;
        }
        if sig == self.sig {
            self.idle += 1;
            self.idle >= self.window
        } else {
            self.sig = sig;
            self.idle = 0;
            false
        }
    }

    /// Accounts a skipped span of `n ≥ 1` cycles ending at one event:
    /// the first `n - 1` cycles provably made no forward progress (skip
    /// eligibility), and `sig` is the signature after the final cycle.
    /// [`Ctl::skip_window`] caps spans at `window - idle`, so a trip
    /// can only land on the final cycle — the exact cycle the per-tick
    /// loop would have tripped on.
    pub(crate) fn skipped(&mut self, n: u64, sig: ProgressSig) -> bool {
        if self.window == 0 {
            return false;
        }
        self.idle += n - 1;
        self.stuck(sig)
    }
}

impl<S: TraceSink> Ctl<S> {
    /// Whether any open-ended stream cannot supply one more full burst
    /// beyond what the addressing unit has already fetched. An open run
    /// suspends the channel *before* such a cycle would tick:
    /// mid-stream fetches then always move whole bursts, exactly like
    /// the equivalent one-shot run, which is what makes suspend/resume
    /// cycle-exact. One-shot runs have no open units, so this is a
    /// single branch per cycle.
    pub(crate) fn open_starved(&self, pus: &[PuState]) -> bool {
        !self.open_units.is_empty()
            && self.open_units.iter().any(|&p| {
                let st = &pus[p];
                st.assign.in_len - st.in_fetched < self.cfg.burst_bytes
            })
    }

    /// See [`ProgressSig`].
    pub(crate) fn progress_sig(&self) -> ProgressSig {
        let d = self.dram.stats();
        (
            self.stats.input_bytes,
            self.stats.output_bytes,
            self.stats.output_tokens,
            self.pending_outputs,
            d.read_beats,
            d.write_beats,
            self.dram.read_queue_len(),
            self.dram.write_queue_len(),
        )
    }

    /// The apply step of a cycle for one unit: performs its effect
    /// record on the controller-side state — probes, buffer pops/pushes,
    /// stats, finish bookkeeping, and the sleep transition. Returns
    /// whether the unit stays on the active worklist. Must be called in
    /// ascending unit index order within a cycle.
    fn apply_effect(&mut self, eff: &PuEffect, pus: &mut [PuState]) -> bool {
        let p = eff.pu as usize;
        if self.probe.enabled() {
            self.probe.pu_cycle(eff.pu, eff.class);
            let base = eff.pu * 4;
            self.probe.signal(SignalId(base), eff.signals[0] as u64);
            self.probe.signal(SignalId(base + 1), eff.signals[1] as u64);
            self.probe.signal(SignalId(base + 2), eff.signals[2] as u64);
            self.probe.signal(SignalId(base + 3), eff.signals[3] as u64);
        }
        if eff.consumed {
            pus[p].in_buffer.pop_front_bytes(self.params.in_token_bytes);
            if let Some(at) = pus[p].wedge_at {
                // Wedge enforcement lives in the apply step, so it is
                // identical on the fast and naive ticks.
                pus[p].tokens_consumed += 1;
                if pus[p].tokens_consumed >= at {
                    pus[p].wedged = true;
                }
            }
            self.update_in_eligible(p, pus);
        }
        if eff.emitted {
            pus[p].out_buffer.push_token(eff.token, self.params.out_token_bytes);
            self.stats.output_tokens += 1;
        }
        if eff.finished {
            pus[p].finished = true;
            self.probe.event(self.stats.cycles, EventKind::UnitFinished { pu: eff.pu });
            self.note_maybe_output_done(p, pus);
        }
        if eff.emitted || eff.finished {
            self.update_out_ready(p, pus);
        }
        match eff.sleep {
            Some(class) => {
                pus[p].sleep = Some((self.stats.cycles + 1, class));
                false
            }
            None => true,
        }
    }

    /// Accounts and ends unit `p`'s sleep; it rejoins the worklist next
    /// cycle, with its skipped span applied to the unit. Only called for
    /// input/output-stalled sleepers — finished units sleep until the end
    /// of the run.
    fn wake<U: StreamUnit>(&mut self, p: usize, pus: &mut [PuState], units: &mut [U]) {
        if let Some((since, class)) = pus[p].sleep.take() {
            // The PU phase of the current cycle already ran, so the
            // current cycle is part of the skipped span.
            let skipped = self.stats.cycles + 1 - since;
            if skipped > 0 {
                self.probe.pu_cycles(p as u32, class, skipped);
                units[p].skip_cycles(skipped);
            }
            // Keep `woken` sorted: at most a handful of wakes per cycle,
            // in controller scan order rather than index order.
            if let Err(i) = self.woken.binary_search(&p) {
                self.woken.insert(i, p);
            }
        }
    }

    fn note_maybe_output_done(&mut self, p: usize, pus: &mut [PuState]) {
        if !pus[p].output_done && (pus[p].overflowed || self.output_done_for(p, pus)) {
            pus[p].output_done = true;
            self.pending_outputs -= 1;
        }
    }

    /// The back half of every cycle, shared by the fast and naive
    /// ticks: input controller, output controller, channel probes, DRAM,
    /// cycle count — in that order.
    fn finish_cycle<U: StreamUnit>(&mut self, pus: &mut [PuState], units: &mut [U], naive: bool) {
        self.input_controller_tick(pus, units, naive);
        self.output_controller_tick(pus, units, naive);
        self.channel_probes();
        self.dram.tick();
        self.stats.cycles += 1;
    }

    /// Channel-level per-cycle probes (queue depths, bus occupancy).
    fn channel_probes(&mut self) {
        if self.probe.enabled() {
            let in_active =
                self.in_regs.iter().filter(|r| !matches!(r, InRegState::Free)).count();
            let out_active =
                self.out_regs.iter().filter(|r| !matches!(r, OutRegState::Free)).count();
            self.probe.queue_depth(QueueKind::PendingReads, self.pending_reads.len() as u32);
            self.probe.queue_depth(QueueKind::DramReads, self.dram.read_queue_len() as u32);
            self.probe.queue_depth(QueueKind::DramWrites, self.dram.write_queue_len() as u32);
            self.probe.queue_depth(QueueKind::InRegsBusy, in_active as u32);
            self.probe.queue_depth(QueueKind::OutRegsBusy, out_active as u32);
            let busy = self.dram.bus_busy();
            self.probe.bus_cycle(busy);
            let base = self.n_pus as u32 * 4;
            self.probe.signal(SignalId(base), busy as u64);
            self.probe.signal(SignalId(base + 1), self.pending_reads.len() as u64);
            self.probe.signal(SignalId(base + 2), in_active as u64);
            self.probe.signal(SignalId(base + 3), out_active as u64);
        }
    }

    // ------------------------------------------------------------------
    // Event-driven clock (cycle skipping).
    // ------------------------------------------------------------------

    /// With every unit asleep (the caller checks the worklist), decides
    /// whether the whole channel is provably inert — no controller can
    /// move a byte, issue a request, allocate a register, or wake a
    /// unit — until the next externally-timed event, and if so returns
    /// how many cycles to skip to land exactly on that event's cycle
    /// (`0` = tick normally).
    ///
    /// The events are: the next DRAM read beat becoming deliverable,
    /// the next queued DRAM write applying (which also frees a write
    /// queue slot), the watchdog completing its no-progress window
    /// (capped at `window - wd_idle` so a trip lands on the same cycle
    /// the per-tick loop would trip on), and the run's cycle budget
    /// (which guarantees the window is finite even on a permanently
    /// wedged channel).
    pub(crate) fn skip_window(
        &self,
        pus: &[PuState],
        start: u64,
        max_cycles: u64,
        wd_idle: u64,
    ) -> u64 {
        if !self.woken.is_empty() {
            return 0;
        }
        // A draining input register pushes bytes into a unit buffer
        // every cycle; a filling output register may pull bytes out of
        // one. Either makes per-cycle progress on its own.
        if self.in_regs.iter().any(|r| matches!(r, InRegState::Draining { .. })) {
            return 0;
        }
        if self.out_regs.iter().any(|r| matches!(r, OutRegState::Filling { .. })) {
            return 0;
        }
        // A completed burst waiting on the write queue sends as soon as
        // the channel can accept it.
        if self.out_regs.iter().any(|r| matches!(r, OutRegState::Sending { .. }))
            && self.dram.can_accept_write()
        {
            return 0;
        }
        // Would either addressing unit act this cycle? Both choosers
        // read only state that stays constant across the skipped span
        // (unit buffers are frozen while every unit sleeps; registers
        // and round-robin pointers only move on the events above).
        if self.input_can_issue() && self.dram.can_accept_read() && self.input_choose(pus).is_some()
        {
            return 0;
        }
        if self.out_regs.iter().any(|r| matches!(r, OutRegState::Free))
            && self.output_choose(pus).is_some()
        {
            return 0;
        }
        let now = self.stats.cycles;
        // The cycle budget check trips after the cycle that exceeds it,
        // so the budget event lands one past the boundary.
        let mut t_end = start + max_cycles + 1;
        if let Some(r) = self.dram.next_read_beat_at() {
            // A deliverable beat is consumed by the intake step of the
            // cycle it becomes ready in (skip eligibility implies an
            // intake register is available whenever reads are in
            // flight), so that cycle must run normally.
            t_end = t_end.min(r);
        }
        if let Some(w) = self.dram.next_write_apply_at() {
            // A write applies at the *end* of cycle `w - 1`; the first
            // cycle that observes it (freed queue slot, committed
            // bytes) is `w`.
            t_end = t_end.min(w);
        }
        if self.watchdog_cycles > 0 {
            t_end = t_end.min(now + (self.watchdog_cycles - wd_idle));
        }
        t_end.saturating_sub(now)
    }

    /// Advances the virtual clock by `n` cycles in one step, as decided
    /// by [`Ctl::skip_window`]: replays the per-cycle channel probes
    /// when a sink is attached (every sampled value is constant across
    /// the span except bus occupancy, which follows the in-flight write
    /// window), then advances DRAM time and the cycle counter in bulk.
    /// Sleeping units need no attention here — their spans are
    /// accounted lazily from `stats.cycles` at wake or flush.
    pub(crate) fn apply_skip(&mut self, n: u64) {
        if self.probe.enabled() {
            let in_active =
                self.in_regs.iter().filter(|r| !matches!(r, InRegState::Free)).count() as u32;
            let out_active =
                self.out_regs.iter().filter(|r| !matches!(r, OutRegState::Free)).count() as u32;
            let pending = self.pending_reads.len() as u32;
            let reads = self.dram.read_queue_len() as u32;
            let writes = self.dram.write_queue_len() as u32;
            let base = self.n_pus as u32 * 4;
            for c in self.stats.cycles..self.stats.cycles + n {
                self.probe.cycle_start(c);
                self.probe.queue_depth(QueueKind::PendingReads, pending);
                self.probe.queue_depth(QueueKind::DramReads, reads);
                self.probe.queue_depth(QueueKind::DramWrites, writes);
                self.probe.queue_depth(QueueKind::InRegsBusy, in_active);
                self.probe.queue_depth(QueueKind::OutRegsBusy, out_active);
                let busy = self.dram.write_bus_busy_at(c);
                self.probe.bus_cycle(busy);
                self.probe.signal(SignalId(base), busy as u64);
                self.probe.signal(SignalId(base + 1), pending as u64);
                self.probe.signal(SignalId(base + 2), in_active as u64);
                self.probe.signal(SignalId(base + 3), out_active as u64);
            }
        }
        self.dram.advance(n);
        self.stats.cycles += n;
        self.cycles_skipped += n;
    }

    // ------------------------------------------------------------------
    // Input controller (§5, Figure 6).
    // ------------------------------------------------------------------

    fn input_outstanding(&self) -> usize {
        self.pending_reads.len()
            + self
                .in_regs
                .iter()
                .filter(|r| !matches!(r, InRegState::Free))
                .count()
    }

    /// Recomputes unit `p`'s cached input-addressing eligibility and
    /// keeps the channel-wide count in step. Must be called after every
    /// mutation of [`Ctl::input_eligible`]'s inputs: read issue
    /// (`in_fetched`/`in_flight`), burst drain into the unit buffer,
    /// token consumption, and open-stream appends (`assign.in_len`).
    pub(crate) fn update_in_eligible(&mut self, p: usize, pus: &mut [PuState]) {
        let st = &pus[p];
        let exhausted = st.in_fetched >= st.assign.in_len;
        let requesting = st.in_buffer.len() + st.in_flight < self.cfg.burst_bytes;
        let eligible = self.input_eligible(p, pus);
        let blocker = !exhausted && requesting;
        let (w, m) = (p / 64, 1u64 << (p % 64));
        if eligible {
            self.in_elig_bits[w] |= m;
        } else {
            self.in_elig_bits[w] &= !m;
        }
        if blocker {
            self.in_block_bits[w] |= m;
        } else {
            self.in_block_bits[w] &= !m;
        }
    }

    fn input_eligible(&self, p: usize, pus: &[PuState]) -> bool {
        let st = &pus[p];
        if st.in_fetched >= st.assign.in_len {
            return false;
        }
        let chunk = (st.assign.in_len - st.in_fetched).min(self.cfg.burst_bytes);
        st.in_buffer.len() + st.in_flight + chunk <= self.cfg.input_buffer_bytes
    }

    /// Whether the input addressing unit may issue a request this cycle
    /// (independent of unit eligibility and channel backpressure).
    fn input_can_issue(&self) -> bool {
        if self.cfg.async_addr {
            self.pending_reads.len() < self.cfg.addr_lookahead
        } else {
            // Synchronous: wait until the previous burst has fully
            // drained into its unit buffer.
            self.input_outstanding() == 0
        }
    }

    /// The unit the input addressing unit would fetch for this cycle,
    /// given the round-robin pointer and addressing mode. Shared by the
    /// controller tick and the cycle-skip eligibility check so the two
    /// can never disagree.
    fn input_choose(&self, pus: &[PuState]) -> Option<usize> {
        // Bitset form of the round-robin scan. Nonblocking addressing
        // picks the first *eligible* unit at or after the round-robin
        // pointer (circularly). Blocking addressing stops at the first
        // unit that is eligible **or** a blocking waiter — a
        // non-exhausted unit actively requesting data (close to
        // starving) parks the addressing unit until it can be served;
        // a unit whose buffers are full is not supplying an address and
        // is skipped, otherwise a unit stalled on the output side would
        // wedge the whole input round-robin (deadlock with a blocking
        // output unit). Eligibility wins when both bits are set, which
        // reproduces the element-wise scan order exactly.
        let blocking = self.cfg.input_addressing == Addressing::Blocking;
        let p = first_set_circular(self.in_rr, |w| {
            if blocking {
                self.in_elig_bits[w] | self.in_block_bits[w]
            } else {
                self.in_elig_bits[w]
            }
        }, self.in_elig_bits.len())?;
        debug_assert_eq!(
            self.in_elig_bits[p / 64] & (1 << (p % 64)) != 0,
            self.input_eligible(p, pus),
            "cached input eligibility drifted for unit {p}"
        );
        debug_assert!(p < pus.len());
        if self.in_elig_bits[p / 64] & (1 << (p % 64)) != 0 {
            Some(p)
        } else {
            None
        }
    }

    fn input_controller_tick<U: StreamUnit>(
        &mut self,
        pus: &mut [PuState],
        units: &mut [U],
        naive: bool,
    ) {
        // 1. Addressing unit: issue at most one read address per cycle.
        if self.input_can_issue() && self.dram.can_accept_read() {
            if let Some(p) = self.input_choose(pus) {
                let st = &mut pus[p];
                let chunk = (st.assign.in_len - st.in_fetched).min(self.cfg.burst_bytes);
                let beats = chunk.div_ceil(BEAT_BYTES) as u32;
                let addr = st.assign.in_start + st.in_fetched;
                // Align the request to beat granularity (regions are
                // beat-aligned and fetched in burst multiples, so only
                // the final chunk can be ragged).
                let tag = self.next_tag;
                self.next_tag = self.next_tag.wrapping_add(1);
                let accepted = self.dram.push_read(tag, addr, beats);
                debug_assert!(accepted, "can_accept_read checked above");
                st.in_fetched += chunk;
                st.in_flight += chunk;
                self.pending_reads.push_back((p, chunk, beats));
                self.in_rr = (p + 1) % pus.len();
                self.probe.event(
                    self.stats.cycles,
                    EventKind::ReadIssued { pu: p as u32, addr: addr as u64, beats },
                );
                self.update_in_eligible(p, pus);
            }
        }

        // 2. Data transfer unit: take one beat from the channel into a
        // burst register (the head request owns arriving beats).
        let filling_idx = self
            .in_regs
            .iter()
            .position(|r| matches!(r, InRegState::Filling { .. }));
        let intake_reg = match filling_idx {
            Some(i) => Some(i),
            None => {
                if self.pending_reads.is_empty() {
                    None
                } else {
                    self.in_regs.iter().position(|r| matches!(r, InRegState::Free))
                }
            }
        };
        if let Some(reg_idx) = intake_reg {
            if let Some((_tag, _beat, data)) = {
                // Only pop when we have somewhere to put the beat
                // (backpressure keeps it queued in the channel).
                self.dram.pop_read_beat()
            } {
                let seq_next = self.next_seq;
                match &mut self.in_regs[reg_idx] {
                    r @ InRegState::Free => {
                        let (pu, chunk, beats) =
                            self.pending_reads.pop_front().expect("head request exists");
                        self.next_seq += 1;
                        let mut buf = Vec::with_capacity(beats as usize * BEAT_BYTES);
                        buf.extend_from_slice(&data);
                        if beats == 1 {
                            buf.truncate(chunk);
                            *r = InRegState::Draining { pu, data: buf, pos: 0, seq: seq_next };
                        } else {
                            *r = InRegState::Filling {
                                pu,
                                data: buf,
                                chunk,
                                beats_left: beats - 1,
                                seq: seq_next,
                            };
                        }
                    }
                    InRegState::Filling { pu, data: buf, chunk, beats_left, seq } => {
                        buf.extend_from_slice(&data);
                        *beats_left -= 1;
                        if *beats_left == 0 {
                            let pu = *pu;
                            let chunk = *chunk;
                            let seq = *seq;
                            let mut full = std::mem::take(buf);
                            full.truncate(chunk);
                            self.in_regs[reg_idx] =
                                InRegState::Draining { pu, data: full, pos: 0, seq };
                        }
                    }
                    InRegState::Draining { .. } => unreachable!("intake register is not draining"),
                }
            }
        }

        // 3. Drain draining registers in parallel, `w` bits/cycle —
        // except that bursts for the *same* unit drain strictly in
        // request order (one buffer write port per unit). Eligibility is
        // decided from the *cycle-start* snapshot: when a unit's older
        // burst frees its register this cycle, the younger burst may not
        // also drain this cycle — that would push two port-widths
        // through the unit's single buffer write port in one cycle.
        let port = self.cfg.port_bytes();
        // Oldest in-flight sequence number per unit. The naive path
        // keeps the original per-tick hash map; the fast path snapshots
        // the same decision into a per-register bitmask (registers are
        // few, so the O(R²) scan beats allocating).
        let oldest: Option<HashMap<usize, u64>> = if naive {
            let mut m = HashMap::new();
            for reg in &self.in_regs {
                let (pu, seq) = match reg {
                    InRegState::Filling { pu, seq, .. } => (*pu, *seq),
                    InRegState::Draining { pu, seq, .. } => (*pu, *seq),
                    InRegState::Free => continue,
                };
                let e = m.entry(pu).or_insert(seq);
                *e = (*e).min(seq);
            }
            Some(m)
        } else {
            None
        };
        debug_assert!(self.in_regs.len() <= MAX_BURST_REGISTERS, "checked by MemCtlConfig::check");
        let mut oldest_mask: u128 = 0;
        if oldest.is_none() {
            for (i, r) in self.in_regs.iter().enumerate() {
                let InRegState::Draining { pu, seq, .. } = r else { continue };
                let is_oldest = self.in_regs.iter().all(|q| match q {
                    InRegState::Filling { pu: w, seq: s, .. }
                    | InRegState::Draining { pu: w, seq: s, .. } => w != pu || s >= seq,
                    InRegState::Free => true,
                });
                if is_oldest {
                    oldest_mask |= 1 << i;
                }
            }
        }
        for i in 0..self.in_regs.len() {
            let (pu, seq) = match &self.in_regs[i] {
                InRegState::Draining { pu, seq, .. } => (*pu, *seq),
                _ => continue,
            };
            let is_oldest = match &oldest {
                Some(m) => m.get(&pu) == Some(&seq),
                None => oldest_mask & (1 << i) != 0,
            };
            if !is_oldest {
                continue; // an earlier burst for this unit goes first
            }
            let finished_burst = {
                let InRegState::Draining { data, pos, .. } = &mut self.in_regs[i] else {
                    unreachable!("matched above")
                };
                let st = &mut pus[pu];
                let n = port.min(data.len() - *pos);
                if naive {
                    for k in 0..n {
                        st.in_buffer.push_byte(data[*pos + k]);
                    }
                } else {
                    st.in_buffer.push_slice(&data[*pos..*pos + n]);
                }
                *pos += n;
                st.in_flight -= n;
                self.stats.input_bytes += n as u64;
                *pos == data.len()
            };
            self.update_in_eligible(pu, pus);
            if finished_burst {
                let bytes = match &self.in_regs[i] {
                    InRegState::Draining { data, .. } => data.len() as u32,
                    _ => unreachable!(),
                };
                self.in_regs[i] = InRegState::Free;
                self.probe
                    .event(self.stats.cycles, EventKind::BurstDelivered { pu: pu as u32, bytes });
            }
            // Wake an input-stalled sleeper once a whole token is
            // buffered for it.
            if matches!(pus[pu].sleep, Some((_, CycleClass::StallIn)))
                && pus[pu].in_buffer.len() >= self.params.in_token_bytes
            {
                self.wake(pu, pus, units);
            }
        }
    }

    // ------------------------------------------------------------------
    // Output controller (§5): symmetric, with nonblocking addressing by
    // default since filters emit at very different rates.
    // ------------------------------------------------------------------

    /// Recomputes unit `p`'s cached output-readiness flag and keeps the
    /// channel-wide count in step. Must be called after every mutation
    /// of the flag's inputs: output-buffer pushes (emit) and pops
    /// (burst fill), the finish transition, and the overflow latch.
    pub(crate) fn update_out_ready(&mut self, p: usize, pus: &mut [PuState]) {
        let st = &mut pus[p];
        let now = !st.overflowed
            && (st.out_buffer.len() >= self.cfg.burst_bytes
                || (st.finished && !st.out_buffer.is_empty()));
        if now != st.out_ready {
            st.out_ready = now;
            if now {
                self.out_ready_units += 1;
                self.out_ready_bits[p / 64] |= 1 << (p % 64);
            } else {
                self.out_ready_units -= 1;
                self.out_ready_bits[p / 64] &= !(1 << (p % 64));
            }
        }
    }

    fn output_eligible(&self, p: usize, pus: &[PuState]) -> bool {
        let st = &pus[p];
        if st.overflowed {
            return false;
        }
        // A unit's bursts must fill sequentially: never assign a second
        // register while one is still collecting or sending its data.
        let busy = self.out_regs.iter().any(|r| {
            matches!(r, OutRegState::Filling { pu, .. } | OutRegState::Sending { pu, .. } if *pu == p)
        });
        if busy {
            return false;
        }
        let has_full = st.out_buffer.len() >= self.cfg.burst_bytes;
        let has_tail = st.finished && !st.out_buffer.is_empty();
        has_full || has_tail
    }

    fn output_done_for(&self, p: usize, pus: &[PuState]) -> bool {
        let st = &pus[p];
        st.finished
            && st.out_buffer.is_empty()
            && !self.out_regs.iter().any(|r| {
                matches!(r, OutRegState::Filling { pu, .. } | OutRegState::Sending { pu, .. } if *pu == p)
            })
    }

    /// The unit the output addressing unit would allocate a register to
    /// this cycle (or trip an overflow for). Shared by the controller
    /// tick and the cycle-skip eligibility check so the two can never
    /// disagree.
    fn output_choose(&self, pus: &[PuState]) -> Option<usize> {
        // Eligibility implies the cached per-unit readiness flag, so a
        // zero count means the scan below cannot return a unit (in any
        // addressing mode) — skip it. The count is maintained
        // identically on the fast and naive paths, so the two stay
        // cycle-equivalent.
        if self.out_ready_units == 0 {
            return None;
        }
        let n = pus.len();
        if self.cfg.output_addressing == Addressing::Blocking {
            for step in 0..n {
                let p = (self.out_rr + step) % n;
                if self.output_eligible(p, pus) {
                    return Some(p);
                }
                let st = &pus[p];
                let done = self.output_done_for(p, pus);
                if !done && !st.overflowed {
                    // Blocking: wait at this unit until it can supply
                    // an address.
                    return None;
                }
            }
            return None;
        }
        // Nonblocking: eligibility is the cached readiness flag minus
        // register-busy units, so only readiness-flagged candidates need
        // the full check — found by word-wide bitset scans from the
        // round-robin pointer instead of walking every unit.
        let scan = |w: usize, mask: u64| -> Option<usize> {
            let mut bits = self.out_ready_bits[w] & mask;
            while bits != 0 {
                let p = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                debug_assert_eq!(
                    pus[p].out_ready,
                    !pus[p].overflowed
                        && (pus[p].out_buffer.len() >= self.cfg.burst_bytes
                            || (pus[p].finished && !pus[p].out_buffer.is_empty())),
                    "cached out_ready flag drifted for unit {p}"
                );
                if self.output_eligible(p, pus) {
                    return Some(p);
                }
            }
            None
        };
        let nw = self.out_ready_bits.len();
        let w0 = self.out_rr / 64;
        let b0 = self.out_rr % 64;
        if let Some(p) = scan(w0, !0u64 << b0) {
            return Some(p);
        }
        for i in 1..=nw {
            let w = (w0 + i) % nw;
            let mask = if w == w0 { !(!0u64 << b0) } else { !0u64 };
            if let Some(p) = scan(w, mask) {
                return Some(p);
            }
        }
        None
    }

    fn output_controller_tick<U: StreamUnit>(
        &mut self,
        pus: &mut [PuState],
        units: &mut [U],
        naive: bool,
    ) {
        // 1. Allocate at most one burst register per cycle to a unit with
        // output ready (the addressing step).
        if let Some(reg_idx) = self.out_regs.iter().position(|r| matches!(r, OutRegState::Free)) {
            if let Some(p) = self.output_choose(pus) {
                let st = &mut pus[p];
                let target = st.out_buffer.len().min(self.cfg.burst_bytes);
                let padded = target.div_ceil(BEAT_BYTES) * BEAT_BYTES;
                if st.out_written + padded > st.assign.out_capacity {
                    st.overflowed = true;
                    if self.first_overflow.is_none() {
                        self.first_overflow = Some(p);
                    }
                    self.probe
                        .event(self.stats.cycles, EventKind::OutputOverflow { pu: p as u32 });
                    self.note_maybe_output_done(p, pus);
                    self.update_out_ready(p, pus);
                } else {
                    let addr = st.assign.out_start + st.out_written;
                    self.out_regs[reg_idx] = OutRegState::Filling {
                        pu: p,
                        addr,
                        data: Vec::with_capacity(padded),
                        target,
                    };
                    self.out_rr = (p + 1) % pus.len();
                }
            }
        }

        // 2. Fill every filling register in parallel at `w` bits/cycle;
        // send completed bursts to the channel.
        let port = self.cfg.port_bytes();
        for i in 0..self.out_regs.len() {
            let filling_pu = match &self.out_regs[i] {
                OutRegState::Filling { pu, .. } => Some(*pu),
                _ => None,
            };
            if let Some(pu) = filling_pu {
                let complete = {
                    let OutRegState::Filling { data, target, .. } = &mut self.out_regs[i] else {
                        unreachable!("matched above")
                    };
                    let st = &mut pus[pu];
                    let n = port.min(*target - data.len()).min(st.out_buffer.len());
                    if naive {
                        for _ in 0..n {
                            data.push(st.out_buffer.pop_byte());
                        }
                    } else {
                        st.out_buffer.pop_slice_into(n, data);
                    }
                    data.len() == *target
                };
                self.update_out_ready(pu, pus);
                if complete {
                    let OutRegState::Filling { pu, addr, data, target } =
                        std::mem::replace(&mut self.out_regs[i], OutRegState::Free)
                    else {
                        unreachable!("matched above")
                    };
                    pus[pu].out_written += target;
                    self.stats.output_bytes += target as u64;
                    let mut payload = data;
                    let padded = payload.len().div_ceil(BEAT_BYTES) * BEAT_BYTES;
                    payload.resize(padded, 0);
                    self.out_regs[i] = OutRegState::Sending { pu, addr, data: payload };
                }
                // Wake an output-stalled sleeper once a token's worth of
                // space has opened in its buffer.
                if matches!(pus[pu].sleep, Some((_, CycleClass::StallOut)))
                    && pus[pu].out_buffer.len() + self.params.out_token_bytes
                        <= self.cfg.output_buffer_bytes
                {
                    self.wake(pu, pus, units);
                }
            }
            if matches!(&self.out_regs[i], OutRegState::Sending { .. })
                && self.dram.can_accept_write()
            {
                let OutRegState::Sending { pu, addr, data } =
                    std::mem::replace(&mut self.out_regs[i], OutRegState::Free)
                else {
                    unreachable!("matched above")
                };
                self.probe.event(
                    self.stats.cycles,
                    EventKind::WriteIssued { pu: pu as u32, addr: addr as u64, bytes: data.len() as u32 },
                );
                let ok = self.dram.push_write(addr, data);
                debug_assert!(ok);
                self.note_maybe_output_done(pu, pus);
            }
        }
    }
}

impl<U: StreamUnit> ChannelEngine<U, CounterSink> {
    /// Assembles this channel's [`ChannelTrace`] from the counter sink,
    /// the units' virtual-cycle counts, and the DRAM counters.
    ///
    /// `streams[p]` is the global stream index unit `p` processed. Call
    /// [`ChannelEngine::flush_trace`] first if the engine was ticked
    /// manually (rather than via [`ChannelEngine::run_channel`]).
    pub fn channel_trace(&self, streams: &[usize]) -> ChannelTrace {
        ChannelTrace::new(
            self.ctl.probe.sink(),
            streams,
            &self.unit_vcycles(),
            dram_counters(self.ctl.dram.stats()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::ByteFifo;
    use proptest::prelude::*;

    proptest! {
        /// `peek_token` reads the front token at every head position a
        /// draining FIFO passes through: mid-buffer (one 8-byte load),
        /// across compaction, and in the last 7 bytes before the end of
        /// the buffer, where 8 bytes are no longer there to load.
        #[test]
        fn peek_token_reads_the_front_at_every_head(
            data in proptest::collection::vec(any::<u8>(), 1100..=2600),
            bytes in 1usize..=8,
        ) {
            let mut fifo = ByteFifo::with_capacity(64);
            fifo.push_slice(&data);
            let mut compacted = false;
            for h in 0..=data.len() - bytes {
                let want = data[h..h + bytes].iter().rev().fold(0u64, |t, &b| t << 8 | u64::from(b));
                prop_assert_eq!(fifo.peek_token(bytes), want, "head {} of {}", h, data.len());
                fifo.pop_front_bytes(1);
                compacted |= fifo.head == 0 && !fifo.is_empty();
            }
            prop_assert!(compacted, "a {}-byte drain never compacted", data.len());
        }
    }
}
