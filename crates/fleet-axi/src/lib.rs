//! # fleet-axi — AXI4-style channel and DRAM timing model
//!
//! The memory substrate for full-system simulation. Each
//! [`DramChannel`] models one of the Amazon F1's four DDR channels behind
//! an AXI4 interface with a 512-bit data bus:
//!
//! * read-address and write-address acceptance with bounded queue depth
//!   (asynchronous address supply — §5 of the paper — works by filling
//!   this queue ahead of the data),
//! * in-order read data, one 64-byte beat per cycle when the bus is free,
//! * closed-page access latency between address acceptance and first
//!   beat,
//! * a fractional per-request command/row overhead and periodic refresh
//!   blackouts that bound sustained efficiency below the 8 GB/s/channel
//!   bus peak (at 125 MHz),
//! * a shared half-duplex data bus with a read↔write turnaround penalty
//!   (DDR3 semantics).
//!
//! Default timing is calibrated in `fleet_system::platform` so that the
//! paper's §7.3 measurements land in the right zone: a single
//! synchronous-addressed 1024-bit burst stream is latency-bound near
//! 0.25 GB/s/channel, and deep 64-beat streaming reaches ≈94 % of bus
//! peak.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::VecDeque;

use fleet_fault::DramFaults;

/// Width of one data-bus beat in bytes (512 bits).
pub const BEAT_BYTES: usize = 64;

/// Timing and capacity configuration of one DRAM channel.
#[derive(Debug, Clone, Copy)]
pub struct DramConfig {
    /// Cycles from read-address acceptance to the first data beat
    /// (closed-page CAS + controller pipeline).
    pub read_latency: u64,
    /// Maximum accepted-but-unfinished read requests (address queue
    /// depth). Synchronous-address controllers never use more than 1.
    pub read_queue_depth: usize,
    /// Maximum accepted-but-unfinished write requests.
    pub write_queue_depth: usize,
    /// Per-request command/row-activation overhead on the data bus,
    /// expressed as a fraction `gap_num / gap_den` of a cycle; amortized
    /// over the burst length, so long bursts approach full bus rate.
    pub gap_num: u64,
    /// Denominator of the per-request overhead fraction.
    pub gap_den: u64,
    /// Cycles between refresh blackouts (tREFI).
    pub refresh_interval: u64,
    /// Length of each refresh blackout in cycles (tRFC).
    pub refresh_duration: u64,
    /// Bus turnaround penalty in cycles when switching between reads and
    /// writes (half-duplex DDR bus).
    pub turnaround: u64,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            read_latency: 31,
            read_queue_depth: 64,
            write_queue_depth: 64,
            gap_num: 1,
            gap_den: 4,
            refresh_interval: 975, // 7.8 us at 125 MHz
            refresh_duration: 26,
            turnaround: 2,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    Read,
    Write,
}

#[derive(Debug, Clone)]
struct InFlightRead {
    tag: u32,
    addr: usize,
    beats: u32,
    /// Cycle at which each remaining beat becomes deliverable.
    next_beat_ready: u64,
    beats_left: u32,
}

#[derive(Debug, Clone)]
struct InFlightWrite {
    addr: usize,
    data: Vec<u8>,
    apply_at: u64,
}

/// Size of the observational DRAM row window: requests within the same
/// `ROW_BYTES`-aligned region as the previous request count as row hits.
pub const ROW_BYTES: usize = 4096;

/// Utilization counters for a channel.
///
/// The row/refresh/turnaround/gap fields instrument the timing model
/// for the `fleet-trace` observability layer; they are plain integer
/// updates on paths that already branch, so they stay on
/// unconditionally.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChannelStats {
    /// Read data beats delivered.
    pub read_beats: u64,
    /// Write data beats consumed.
    pub write_beats: u64,
    /// Read requests accepted.
    pub read_reqs: u64,
    /// Write requests accepted.
    pub write_reqs: u64,
    /// Requests landing in the same [`ROW_BYTES`] row as the previous
    /// request (observational — the timing model itself is closed-page,
    /// with row overhead amortized through the per-request gap).
    pub row_hits: u64,
    /// Requests opening a different row than the previous request.
    pub row_misses: u64,
    /// Refresh blackout windows that actually delayed a transfer.
    pub refreshes: u64,
    /// Cycles transfers were pushed back by refresh blackouts.
    pub refresh_stall_cycles: u64,
    /// Cycles lost to read↔write bus turnaround.
    pub turnaround_cycles: u64,
    /// Cycles lost to per-request command/row-activation gaps.
    pub gap_cycles: u64,
    /// Injected single-bit errors corrected by the modelled SEC-DED
    /// decode (delivered data is unaffected).
    pub ecc_corrected: u64,
    /// Extra latency cycles added by injected DRAM stalls.
    pub fault_stall_cycles: u64,
    /// Total fault events injected on this channel (stalls + flips).
    pub faults_injected: u64,
}

/// One DRAM channel with backing memory.
///
/// Drive it by calling [`DramChannel::tick`] exactly once per simulated
/// cycle (after using the acceptance/delivery methods for that cycle).
#[derive(Debug, Clone)]
pub struct DramChannel {
    cfg: DramConfig,
    mem: Vec<u8>,
    now: u64,
    bus_free_at: u64,
    gap_accum: u64,
    last_dir: Dir,
    last_row: Option<usize>,
    reads: VecDeque<InFlightRead>,
    writes: VecDeque<InFlightWrite>,
    delivered_this_cycle: bool,
    stats: ChannelStats,
    /// Seeded fault decisions for this channel; `None` disables the
    /// injection hooks entirely (the fault-free fast path).
    faults: Option<DramFaults>,
}

impl DramChannel {
    /// Creates a channel with `mem_bytes` of zeroed backing memory.
    pub fn new(cfg: DramConfig, mem_bytes: usize) -> DramChannel {
        DramChannel {
            cfg,
            mem: vec![0u8; mem_bytes],
            now: 0,
            bus_free_at: 0,
            gap_accum: 0,
            last_dir: Dir::Read,
            last_row: None,
            reads: VecDeque::new(),
            writes: VecDeque::new(),
            delivered_this_cycle: false,
            stats: ChannelStats::default(),
            faults: None,
        }
    }

    /// Arms seeded fault injection on this channel. Decisions are keyed
    /// by the channel's own deterministic request/beat counters, so the
    /// injected sites are identical on every run. An inert
    /// plan (`is_none`) leaves the hooks disabled.
    pub fn set_faults(&mut self, faults: DramFaults) {
        self.faults = if faults.is_none() { None } else { Some(faults) };
    }

    /// Backing memory (for host-side loading of input streams).
    pub fn mem_mut(&mut self) -> &mut Vec<u8> {
        &mut self.mem
    }

    /// Backing memory (for host-side readback of output regions).
    pub fn mem(&self) -> &[u8] {
        &self.mem
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Utilization counters.
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// Whether data crossed the bus this cycle: a read beat was
    /// delivered, or a write transfer is in its bus-crossing window.
    /// The per-cycle utilization signal `fleet-trace` samples (call
    /// after the cycle's `pop_read_beat`, before [`DramChannel::tick`]).
    pub fn bus_busy(&self) -> bool {
        self.delivered_this_cycle || self.write_bus_busy_at(self.now)
    }

    /// Whether a queued write transfer's bus-crossing window covers
    /// cycle `at`. This is `bus_busy` minus the read-beat term — the
    /// only component that varies over a span of cycles in which no
    /// beats are popped and nothing is pushed, so an engine skipping
    /// such a span can replay the exact per-cycle bus utilization.
    pub fn write_bus_busy_at(&self, at: u64) -> bool {
        self.writes.iter().any(|w| {
            let beats = (w.data.len() / BEAT_BYTES) as u64;
            w.apply_at.saturating_sub(beats) <= at && at < w.apply_at
        })
    }

    /// The cycle at which the oldest in-flight read's next data beat
    /// becomes deliverable (`pop_read_beat` succeeds once `now` reaches
    /// it), if any read is in flight.
    pub fn next_read_beat_at(&self) -> Option<u64> {
        self.reads.front().map(|r| r.next_beat_ready)
    }

    /// The cycle at which the oldest queued write applies to memory
    /// (during the [`DramChannel::tick`] that moves `now` to this
    /// value), if any write is queued. Always greater than `now`.
    pub fn next_write_apply_at(&self) -> Option<u64> {
        self.writes.front().map(|w| w.apply_at)
    }

    /// Read requests accepted but not fully delivered.
    pub fn read_queue_len(&self) -> usize {
        self.reads.len()
    }

    /// Whether a read address can be accepted this cycle.
    pub fn can_accept_read(&self) -> bool {
        self.reads.len() < self.cfg.read_queue_depth
    }

    /// Whether a write request can be accepted this cycle.
    pub fn can_accept_write(&self) -> bool {
        self.writes.len() < self.cfg.write_queue_depth
    }

    fn schedule(&mut self, dir: Dir, beats: u64, earliest: u64) -> u64 {
        // Per-request fractional gap.
        self.gap_accum += self.cfg.gap_num;
        let mut gap = 0;
        if self.gap_accum >= self.cfg.gap_den {
            gap = self.gap_accum / self.cfg.gap_den;
            self.gap_accum %= self.cfg.gap_den;
        }
        self.stats.gap_cycles += gap;
        let turn = if dir != self.last_dir { self.cfg.turnaround } else { 0 };
        self.stats.turnaround_cycles += turn;
        self.last_dir = dir;
        let mut start = earliest.max(self.bus_free_at + gap + turn);
        // Refresh blackout: if the transfer would overlap a blackout
        // window, push it past the window.
        let ri = self.cfg.refresh_interval;
        let rd = self.cfg.refresh_duration;
        if ri > 0 {
            let phase = start % ri;
            if phase < rd {
                start += rd - phase;
                self.stats.refreshes += 1;
                self.stats.refresh_stall_cycles += rd - phase;
            }
        }
        self.bus_free_at = start + beats;
        start
    }

    fn note_row(&mut self, addr: usize) {
        let row = addr / ROW_BYTES;
        if self.last_row == Some(row) {
            self.stats.row_hits += 1;
        } else {
            self.stats.row_misses += 1;
        }
        self.last_row = Some(row);
    }

    /// Accepts a read request for `beats` beats starting at byte `addr`.
    ///
    /// Returns `false` (rejecting the request) when the queue is full.
    /// Data beats come back in request order via
    /// [`DramChannel::pop_read_beat`], tagged with `tag`.
    ///
    /// # Panics
    ///
    /// Panics if the address range exceeds the backing memory.
    pub fn push_read(&mut self, tag: u32, addr: usize, beats: u32) -> bool {
        if !self.can_accept_read() {
            return false;
        }
        assert!(
            addr + beats as usize * BEAT_BYTES <= self.mem.len(),
            "read beyond end of channel memory"
        );
        self.note_row(addr);
        let mut earliest = self.now + self.cfg.read_latency;
        if let Some(f) = self.faults {
            // Latency spike / transient stall: this request's first beat
            // is pushed back by a hashed number of extra cycles.
            let extra = f.read_stall(self.stats.read_reqs);
            if extra > 0 {
                earliest += extra;
                self.stats.fault_stall_cycles += extra;
                self.stats.faults_injected += 1;
            }
        }
        let first = self.schedule(Dir::Read, beats as u64, earliest);
        self.reads.push_back(InFlightRead {
            tag,
            addr,
            beats,
            next_beat_ready: first,
            beats_left: beats,
        });
        self.stats.read_reqs += 1;
        true
    }

    /// Accepts a write of `data` (whole beats) at byte `addr`.
    ///
    /// Returns `false` when the queue is full. The memory update becomes
    /// visible once the data has crossed the bus.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not a whole number of beats or exceeds memory.
    pub fn push_write(&mut self, addr: usize, data: Vec<u8>) -> bool {
        if !self.can_accept_write() {
            return false;
        }
        assert!(data.len().is_multiple_of(BEAT_BYTES), "write must be whole beats");
        assert!(addr + data.len() <= self.mem.len(), "write beyond end of channel memory");
        let beats = (data.len() / BEAT_BYTES) as u64;
        self.note_row(addr);
        let start = self.schedule(Dir::Write, beats, self.now);
        self.stats.write_reqs += 1;
        self.stats.write_beats += beats;
        self.writes.push_back(InFlightWrite { addr, data, apply_at: start + beats });
        true
    }

    /// Delivers the next read data beat if one is ready this cycle
    /// (at most one per cycle — the 512-bit bus).
    ///
    /// Returns `(tag, beat_index_within_request, data)`.
    pub fn pop_read_beat(&mut self) -> Option<(u32, u32, [u8; BEAT_BYTES])> {
        if self.delivered_this_cycle {
            return None;
        }
        let front = self.reads.front_mut()?;
        if front.next_beat_ready > self.now {
            return None;
        }
        let beat_idx = front.beats - front.beats_left;
        let off = front.addr + beat_idx as usize * BEAT_BYTES;
        let mut data = [0u8; BEAT_BYTES];
        data.copy_from_slice(&self.mem[off..off + BEAT_BYTES]);
        if let Some(f) = self.faults {
            if let Some(bit) = f.ecc_flip(self.stats.read_beats) {
                // Single-bit corruption on the bus, then SEC-DED decode:
                // the syndrome locates the flipped bit and the decoder
                // restores it, so the delivered beat is bit-identical to
                // memory; only the counters observe the event.
                let (byte, mask) = ((bit / 8) as usize, 1u8 << (bit % 8));
                data[byte] ^= mask; // corruption
                data[byte] ^= mask; // correction at the decoder
                self.stats.ecc_corrected += 1;
                self.stats.faults_injected += 1;
            }
        }
        let tag = front.tag;
        front.beats_left -= 1;
        front.next_beat_ready = self.now + 1;
        if front.beats_left == 0 {
            self.reads.pop_front();
        }
        self.delivered_this_cycle = true;
        self.stats.read_beats += 1;
        Some((tag, beat_idx, data))
    }

    /// Write requests accepted but not yet applied to memory.
    pub fn write_queue_len(&self) -> usize {
        self.writes.len()
    }

    /// Whether any accepted-but-unapplied write burst overlaps the byte
    /// range `[lo, hi)`. Lets a controller decide which regions of
    /// memory are safe to read back mid-run (e.g. windowed partial
    /// output delivery) without waiting for the whole queue to drain.
    pub fn has_pending_write_in(&self, lo: usize, hi: usize) -> bool {
        self.writes.iter().any(|w| w.addr < hi && w.addr + w.data.len() > lo)
    }

    /// Advances the channel one cycle: applies completed writes.
    pub fn tick(&mut self) {
        self.now += 1;
        self.delivered_this_cycle = false;
        self.apply_due_writes();
    }

    /// Advances the channel `cycles` cycles at once — exactly
    /// equivalent to that many [`DramChannel::tick`]s during which no
    /// beat was popped and nothing was pushed (writes apply in FIFO
    /// order the moment `now` passes their `apply_at`, and nothing else
    /// in the channel is time-driven). The engine's cycle-skip uses
    /// this to jump the virtual clock to the next event.
    pub fn advance(&mut self, cycles: u64) {
        self.now += cycles;
        self.delivered_this_cycle = false;
        self.apply_due_writes();
    }

    fn apply_due_writes(&mut self) {
        while let Some(wfront) = self.writes.front() {
            if wfront.apply_at <= self.now {
                let wr = self.writes.pop_front().expect("front exists");
                self.mem[wr.addr..wr.addr + wr.data.len()].copy_from_slice(&wr.data);
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_no_refresh() -> DramConfig {
        DramConfig { refresh_interval: 0, gap_num: 0, gap_den: 1, ..DramConfig::default() }
    }

    #[test]
    fn read_latency_is_respected() {
        let mut ch = DramChannel::new(cfg_no_refresh(), 4096);
        ch.mem_mut()[0] = 0xAB;
        assert!(ch.push_read(7, 0, 1));
        let mut got_at = None;
        for _ in 0..100 {
            if let Some((tag, idx, data)) = ch.pop_read_beat() {
                assert_eq!(tag, 7);
                assert_eq!(idx, 0);
                assert_eq!(data[0], 0xAB);
                got_at = Some(ch.now());
                break;
            }
            ch.tick();
        }
        assert_eq!(got_at, Some(DramConfig::default().read_latency));
    }

    #[test]
    fn beats_stream_one_per_cycle() {
        let mut ch = DramChannel::new(cfg_no_refresh(), 4096);
        assert!(ch.push_read(1, 0, 4));
        let mut deliveries = Vec::new();
        for _ in 0..100 {
            if let Some((_, idx, _)) = ch.pop_read_beat() {
                deliveries.push((ch.now(), idx));
            }
            ch.tick();
        }
        assert_eq!(deliveries.len(), 4);
        for w in deliveries.windows(2) {
            assert_eq!(w[1].0 - w[0].0, 1, "beats must be consecutive");
        }
    }

    #[test]
    fn in_order_across_requests() {
        let mut ch = DramChannel::new(cfg_no_refresh(), 4096);
        assert!(ch.push_read(1, 0, 2));
        assert!(ch.push_read(2, 128, 2));
        let mut tags = Vec::new();
        for _ in 0..200 {
            if let Some((tag, _, _)) = ch.pop_read_beat() {
                tags.push(tag);
            }
            ch.tick();
        }
        assert_eq!(tags, vec![1, 1, 2, 2]);
    }

    #[test]
    fn writes_become_visible_after_bus_crossing() {
        let mut ch = DramChannel::new(cfg_no_refresh(), 4096);
        let data = vec![0x5Au8; BEAT_BYTES];
        assert!(ch.push_write(256, data));
        assert_eq!(ch.mem()[256], 0); // not yet applied
        for _ in 0..10 {
            ch.tick();
        }
        assert_eq!(ch.mem()[256], 0x5A);
    }

    #[test]
    fn queue_depth_limits_acceptance() {
        let mut cfg = cfg_no_refresh();
        cfg.read_queue_depth = 2;
        let mut ch = DramChannel::new(cfg, 65536);
        assert!(ch.push_read(0, 0, 1));
        assert!(ch.push_read(1, 64, 1));
        assert!(!ch.push_read(2, 128, 1));
        assert!(!ch.can_accept_read());
    }

    #[test]
    fn sustained_efficiency_with_default_gaps() {
        // Deep 2-beat bursts: efficiency should land around
        // gap model ~ 2/(2+0.25) ≈ 89 % of bus peak, minus refresh.
        let mut ch = DramChannel::new(DramConfig::default(), 1 << 20);
        let mut addr = 0usize;
        let mut tag = 0u32;
        let mut beats = 0u64;
        let cycles = 20_000u64;
        for _ in 0..cycles {
            while ch.can_accept_read() && addr + 128 <= 1 << 20 {
                ch.push_read(tag, addr, 2);
                tag += 1;
                addr = (addr + 128) % ((1 << 20) - 128);
            }
            if ch.pop_read_beat().is_some() {
                beats += 1;
            }
            ch.tick();
        }
        let eff = beats as f64 / cycles as f64;
        assert!(
            (0.80..=0.95).contains(&eff),
            "2-beat burst efficiency {eff:.3} out of expected band"
        );
    }

    #[test]
    fn observability_counters_track_rows_and_refresh() {
        let mut ch = DramChannel::new(DramConfig::default(), 1 << 20);
        // Two sequential reads in one row, then a jump to a distant row.
        assert!(ch.push_read(0, 0, 1));
        assert!(ch.push_read(1, 64, 1));
        assert!(ch.push_read(2, 8 * ROW_BYTES, 1));
        let s = ch.stats();
        assert_eq!(s.row_hits, 1);
        assert_eq!(s.row_misses, 2);

        // Sustained traffic across many refresh intervals must record
        // refresh stalls.
        let mut addr = 0usize;
        for t in 0..10_000u32 {
            if ch.can_accept_read() {
                ch.push_read(t, addr, 2);
                addr = (addr + 128) % (1 << 19);
            }
            ch.pop_read_beat();
            ch.tick();
        }
        let s = ch.stats();
        assert!(s.refreshes > 0, "no refresh stall recorded");
        assert!(s.refresh_stall_cycles >= s.refreshes);
        assert!(s.gap_cycles > 0, "per-request gaps not recorded");
    }

    #[test]
    fn bus_busy_reflects_scheduled_transfers() {
        let mut ch = DramChannel::new(cfg_no_refresh(), 4096);
        // Until data starts crossing, the bus is scheduled but idle now.
        assert!(!ch.bus_busy());
        assert!(ch.push_read(0, 0, 4));
        assert_eq!(ch.read_queue_len(), 1);
        let mut busy_cycles = 0u64;
        for _ in 0..100 {
            ch.pop_read_beat();
            if ch.bus_busy() {
                busy_cycles += 1;
            }
            ch.tick();
        }
        // A 4-beat transfer plus latency occupies the bus for at least
        // its 4 data cycles.
        assert!(busy_cycles >= 4, "busy_cycles = {busy_cycles}");
        assert_eq!(ch.read_queue_len(), 0);
    }

    #[test]
    fn injected_faults_slow_the_channel_but_never_corrupt_data() {
        use fleet_fault::FaultPlan;

        let run = |faults: Option<DramFaults>| {
            let mut ch = DramChannel::new(cfg_no_refresh(), 1 << 16);
            for (i, b) in ch.mem_mut().iter_mut().enumerate() {
                *b = (i % 251) as u8;
            }
            if let Some(f) = faults {
                ch.set_faults(f);
            }
            let mut addr = 0usize;
            let mut tag = 0u32;
            let mut out = Vec::new();
            for _ in 0..30_000u64 {
                if ch.can_accept_read() && addr + 128 <= 1 << 16 {
                    ch.push_read(tag, addr, 2);
                    tag += 1;
                    addr += 128;
                }
                if let Some((_, _, data)) = ch.pop_read_beat() {
                    out.extend_from_slice(&data);
                }
                ch.tick();
                if addr + 128 > 1 << 16 && ch.read_queue_len() == 0 {
                    break;
                }
            }
            (out, ch.now(), ch.stats())
        };

        let plan = FaultPlan::with_seed(11).dram_stalls(100_000, 200).ecc_flips(50_000);
        let (clean, clean_cycles, clean_stats) = run(None);
        let (faulty, faulty_cycles, s) = run(Some(plan.dram(0)));
        // Faults are injected and slow the channel down...
        assert!(s.faults_injected > 0, "no faults injected");
        assert!(s.ecc_corrected > 0, "no ECC events");
        assert!(s.fault_stall_cycles > 0, "no stall cycles");
        assert!(faulty_cycles > clean_cycles, "stalls must cost cycles");
        assert_eq!(clean_stats.faults_injected, 0);
        // ...but every delivered byte is still correct (SEC-DED corrects
        // the single-bit flips).
        assert_eq!(clean, faulty, "corrected data must be bit-identical");

        // And the injection sites are deterministic.
        let (again, again_cycles, s2) = run(Some(plan.dram(0)));
        assert_eq!(faulty, again);
        assert_eq!(faulty_cycles, again_cycles);
        assert_eq!(s.faults_injected, s2.faults_injected);
    }

    #[test]
    fn long_bursts_approach_peak() {
        let mem = 1 << 22;
        let mut ch = DramChannel::new(DramConfig::default(), mem);
        let mut addr = 0usize;
        let mut tag = 0u32;
        let mut beats = 0u64;
        let cycles = 20_000u64;
        for _ in 0..cycles {
            while ch.can_accept_read() && addr + 64 * 64 <= mem {
                ch.push_read(tag, addr, 64);
                tag += 1;
                addr = (addr + 64 * 64) % (mem - 64 * 64);
            }
            if ch.pop_read_beat().is_some() {
                beats += 1;
            }
            ch.tick();
        }
        let eff = beats as f64 / cycles as f64;
        assert!(
            eff > 0.93,
            "64-beat burst efficiency {eff:.3} should approach bus peak"
        );
    }
}
