//! The full-system simulator: replicated processing units across all
//! DRAM channels, driven to completion.

use std::error::Error;
use std::fmt;

use fleet_axi::{DramChannel, BEAT_BYTES};
use fleet_compiler::{CompiledUnit, PuExec};
use fleet_fault::FaultPlan;
use fleet_lang::UnitSpec;
use fleet_memctl::{
    panic_message, ChannelEngine, EngineRunError, EngineStats, MemCtlConfig, SimPool, SimThreads,
    StreamAssignment, StreamUnit,
};
use fleet_trace::{CounterSink, NullSink, TraceReport, TraceSink};

use crate::platform::Platform;

/// Configuration of a full-system run.
#[derive(Debug, Clone, Copy)]
pub struct SystemConfig {
    /// Platform model (clock, channels, DRAM timing, power).
    pub platform: Platform,
    /// Memory-controller configuration (shared by all channels).
    pub memctl: MemCtlConfig,
    /// Per-unit output region capacity in bytes.
    pub out_capacity: usize,
    /// Hang guard per channel.
    pub max_cycles: u64,
    /// Simulation thread budget. `Fixed(1)` — the [`SystemConfig::f1`]
    /// default, and the faster drive wherever it has been measured
    /// (EXPERIMENTS S3) — selects the serial drive; `Auto` uses the
    /// host's available parallelism. Every setting produces
    /// bit-identical results — threads only change wall-clock time.
    pub sim_threads: SimThreads,
    /// Seeded fault-injection plan. The default ([`FaultPlan::none`])
    /// is inert: the injection hooks stay disabled and the run is
    /// bit-identical to a build without fault support.
    pub fault: FaultPlan,
    /// Per-channel watchdog window: a channel that makes no forward
    /// progress (no byte moved, no token retired, no DRAM request
    /// advanced) for this many consecutive cycles fails with
    /// [`SystemError::UnitWedged`] / [`SystemError::ChannelStalled`]
    /// instead of burning the whole `max_cycles` budget. `0` disables
    /// the watchdog. The watchdog only observes; it never changes
    /// simulated state.
    pub watchdog_cycles: u64,
}

impl SystemConfig {
    /// F1 defaults with the paper's controller configuration.
    pub fn f1(out_capacity: usize) -> SystemConfig {
        SystemConfig {
            platform: Platform::f1(),
            memctl: MemCtlConfig::default(),
            out_capacity,
            max_cycles: 2_000_000_000,
            sim_threads: SimThreads::Fixed(1),
            fault: FaultPlan::none(),
            // 1M cycles = 8 ms at the F1 clock: orders of magnitude
            // above any legitimate stall (refresh blackouts are tens of
            // cycles, read latency ~31), tiny next to `max_cycles`.
            watchdog_cycles: 1_000_000,
        }
    }
}

/// Failures of a full-system run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SystemError {
    /// A unit produced more output than its region capacity.
    OutputOverflow {
        /// Index of the overflowing stream.
        stream: usize,
    },
    /// A channel did not finish within the cycle guard.
    Timeout {
        /// The guard that was exceeded.
        max_cycles: u64,
    },
    /// A channel simulation thread panicked. The panic is caught and
    /// surfaced as an error so one poisoned channel fails only the job
    /// that owned it, never the whole host process.
    WorkerPanic {
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The watchdog declared a unit wedged: its channel made no forward
    /// progress for the full watchdog window and the unit had stopped.
    UnitWedged {
        /// Index of the stream whose unit wedged.
        stream: usize,
    },
    /// The watchdog declared a channel stalled with no wedged unit to
    /// blame.
    ChannelStalled {
        /// Cycles the channel went without forward progress.
        idle_cycles: u64,
    },
}

impl fmt::Display for SystemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemError::OutputOverflow { stream } => {
                write!(f, "stream {stream} overflowed its output region")
            }
            SystemError::Timeout { max_cycles } => {
                write!(f, "system did not finish within {max_cycles} cycles")
            }
            SystemError::WorkerPanic { message } => {
                write!(f, "channel simulation thread panicked: {message}")
            }
            SystemError::UnitWedged { stream } => {
                write!(f, "stream {stream} wedged: its unit stopped making progress")
            }
            SystemError::ChannelStalled { idle_cycles } => {
                write!(f, "channel made no forward progress for {idle_cycles} cycles")
            }
        }
    }
}

impl Error for SystemError {}

/// A failed full-system run, with everything the serving layer needs to
/// recover gracefully: the typed error, per-stream partial results, and
/// how long the run burned before failing. Boxed by the faulted entry
/// points to keep `Result` small.
#[derive(Debug, Clone)]
pub struct RunFailure {
    /// Why the run failed (stream indices are in submission order).
    pub error: SystemError,
    /// Per-stream partial results in submission order: `Some(bytes)`
    /// for streams whose unit ran to completion (its whole output is
    /// committed to DRAM) — healthy channels contribute all their
    /// streams; a failed channel contributes only units that finished
    /// before the failure, and only once its write queue drained.
    pub partial_outputs: Vec<Option<Vec<u8>>>,
    /// Cycles the slowest channel ran before the failure surfaced.
    pub cycles: u64,
    /// Wall-clock seconds at the platform clock for `cycles`.
    pub seconds: f64,
    /// Fault events injected before the failure.
    pub faults_injected: u64,
}

impl fmt::Display for RunFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.error.fmt(f)
    }
}

impl Error for RunFailure {}

/// Result of a full-system run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Cycles until the slowest channel finished.
    pub cycles: u64,
    /// Total input bytes consumed across all streams.
    pub input_bytes: u64,
    /// Total output bytes produced (unpadded).
    pub output_bytes: u64,
    /// Number of processing units instantiated.
    pub units: usize,
    /// Per-channel controller statistics.
    pub channel_stats: Vec<EngineStats>,
    /// Output bytes of each stream, in submission order.
    pub outputs: Vec<Vec<u8>>,
    /// Wall-clock seconds at the platform clock.
    pub seconds: f64,
    /// Cycle-level trace with stall attribution; `Some` only for
    /// [`run_system_traced`] runs (plain runs pay zero tracing cost).
    pub trace: Option<TraceReport>,
    /// Fault events injected during the run (DRAM stalls, corrected ECC
    /// flips, wedges). Always 0 with an inert [`FaultPlan`].
    pub faults_injected: u64,
}

impl RunReport {
    /// Input-side throughput in GB/s (the paper's headline metric).
    pub fn input_gbps(&self) -> f64 {
        self.input_bytes as f64 / self.seconds / 1e9
    }

    /// Output-side throughput in GB/s.
    pub fn output_gbps(&self) -> f64 {
        self.output_bytes as f64 / self.seconds / 1e9
    }
}

/// Runs `streams` through replicated copies of `spec` on the modelled
/// platform: one processing unit per stream, units divided round-robin
/// among channels, each channel simulated on its own thread.
///
/// # Errors
///
/// Returns [`SystemError::OutputOverflow`] if any unit exceeds
/// `cfg.out_capacity`, or [`SystemError::Timeout`] on a hang.
///
/// # Panics
///
/// Panics if `spec` fails validation or a stream is not a whole number of
/// input tokens.
pub fn run_system(
    spec: &UnitSpec,
    streams: &[Vec<u8>],
    cfg: &SystemConfig,
) -> Result<RunReport, SystemError> {
    let unit = CompiledUnit::new(spec);
    let refs: Vec<&[u8]> = streams.iter().map(|s| s.as_slice()).collect();
    run_system_compiled(&unit, &refs, cfg)
}

/// Like [`run_system`], but takes a pre-compiled unit and borrowed
/// streams: the program is validated and compiled exactly once no
/// matter how many replicas run, and no stream bytes are copied into
/// the call.
///
/// # Errors
///
/// Same failure modes as [`run_system`].
///
/// # Panics
///
/// Panics if a stream is not a whole number of input tokens.
pub fn run_system_compiled(
    unit: &CompiledUnit,
    streams: &[&[u8]],
    cfg: &SystemConfig,
) -> Result<RunReport, SystemError> {
    run_system_faulted(unit, streams, cfg, None).map_err(|f| f.error)
}

/// Like [`run_system_compiled`], but simulating on `pool` when one is
/// given (serving runtimes keep one process-wide pool so concurrent
/// batches never oversubscribe the host's cores), and a failure returns
/// the full [`RunFailure`] — typed error, per-stream partial results,
/// cycles burned — instead of collapsing to a bare [`SystemError`]. The
/// entry point for serving layers that retry, salvage, and quarantine.
///
/// # Errors
///
/// Returns the boxed [`RunFailure`] on overflow, timeout, wedge, stall,
/// or worker panic.
///
/// # Panics
///
/// Panics if a stream is not a whole number of input tokens.
pub fn run_system_faulted(
    unit: &CompiledUnit,
    streams: &[&[u8]],
    cfg: &SystemConfig,
    pool: Option<&SimPool>,
) -> Result<RunReport, Box<RunFailure>> {
    let (report, _engines, _maps) = run_system_inner(unit, streams, cfg, pool, || NullSink)?;
    Ok(report)
}

/// Like [`run_system`], but every channel engine records into a
/// [`CounterSink`]; the returned report carries `trace: Some(..)` with
/// per-PU stall attribution, queue statistics, bus utilization, and
/// DRAM counters.
///
/// # Errors
///
/// Same failure modes as [`run_system`].
///
/// # Panics
///
/// Same panics as [`run_system`].
pub fn run_system_traced(
    spec: &UnitSpec,
    streams: &[Vec<u8>],
    cfg: &SystemConfig,
) -> Result<RunReport, SystemError> {
    let unit = CompiledUnit::new(spec);
    let refs: Vec<&[u8]> = streams.iter().map(|s| s.as_slice()).collect();
    let (mut report, engines, index_maps) =
        run_system_inner(&unit, &refs, cfg, None, CounterSink::new).map_err(|f| f.error)?;
    let channels = engines
        .iter()
        .zip(&index_maps)
        .map(|(eng, streams)| eng.channel_trace(streams))
        .collect();
    report.trace = Some(TraceReport::new(channels));
    Ok(report)
}

/// One stream as the engine builder places it: the bytes present before
/// the first cycle, the size of the input region reserved for it, and
/// whether it stays open for appends.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StreamInit<'a> {
    /// Bytes loaded into the region up front.
    pub(crate) bytes: &'a [u8],
    /// Input region size in bytes (rounded up to whole DRAM beats).
    pub(crate) reserve: usize,
    /// Open-ended stream (session mode): more bytes may be appended, up
    /// to `reserve`.
    pub(crate) open: bool,
}

impl<'a> StreamInit<'a> {
    /// One-shot streams: the region holds exactly the bytes given.
    pub(crate) fn closed(streams: &[&'a [u8]]) -> Vec<StreamInit<'a>> {
        streams.iter().map(|s| StreamInit { bytes: s, reserve: s.len(), open: false }).collect()
    }
}

/// Builds the per-channel engines and stream index maps for `streams`,
/// replicated from `unit`, without running anything: streams divided
/// round-robin among channels, each channel's input regions laid out
/// before its output regions. The one builder behind one-shot runs,
/// [`OpenRun`](crate::OpenRun)s and the tick-by-tick harnesses, so a
/// closed open run is geometrically identical to the equivalent
/// one-shot batch.
///
/// `maps[c][k]` is the submission-order stream index that unit `k` of
/// channel `c` processes.
pub(crate) fn build_engines_with<S: TraceSink>(
    unit: &CompiledUnit,
    streams: &[StreamInit<'_>],
    cfg: &SystemConfig,
    mut make_sink: impl FnMut() -> S,
) -> (Vec<ChannelEngine<PuExec, S>>, Vec<Vec<usize>>) {
    assert!(!streams.is_empty(), "need at least one stream");
    let spec = unit.spec();
    let in_tok = (spec.input_token_bits as usize).div_ceil(8);
    let out_tok = (spec.output_token_bits as usize).div_ceil(8);
    let out_alloc = cfg.out_capacity.div_ceil(BEAT_BYTES) * BEAT_BYTES + cfg.memctl.burst_bytes;

    // Partition streams round-robin across channels.
    let channels = cfg.platform.channels.min(streams.len());
    let mut index_maps: Vec<Vec<usize>> = vec![Vec::new(); channels];
    for i in 0..streams.len() {
        index_maps[i % channels].push(i);
    }

    // Build one engine per channel.
    let mut engines = Vec::new();
    for (c, map) in index_maps.iter().enumerate() {
        // Input regions first, then output regions.
        let mut in_regions = Vec::new();
        let mut offset = 0usize;
        for &i in map {
            let alloc = streams[i].reserve.div_ceil(BEAT_BYTES) * BEAT_BYTES;
            in_regions.push((offset, alloc));
            offset += alloc;
        }
        let out_base = offset;
        let mut dram = DramChannel::new(cfg.platform.dram, out_base + map.len() * out_alloc);
        if !cfg.fault.is_none() {
            // Channel faults are keyed by channel index; wedges (below)
            // by submission-order stream index, so the same plan faults
            // the same streams no matter how they partition.
            dram.set_faults(cfg.fault.dram(c as u64));
        }
        let mut assigns = Vec::new();
        for (k, &i) in map.iter().enumerate() {
            let (in_start, bytes) = (in_regions[k].0, streams[i].bytes);
            dram.mem_mut()[in_start..in_start + bytes.len()].copy_from_slice(bytes);
            assigns.push(StreamAssignment {
                in_start,
                in_len: bytes.len(),
                out_start: out_base + k * out_alloc,
                out_capacity: out_alloc,
            });
        }
        // Replicate the shared compiled program — no per-replica
        // validation or SSA rebuild.
        let units: Vec<PuExec> = map.iter().map(|_| unit.replicate()).collect();
        let mut engine = ChannelEngine::with_sink(
            cfg.memctl,
            dram,
            units,
            assigns,
            in_tok,
            out_tok,
            make_sink(),
        );
        engine.set_watchdog(cfg.watchdog_cycles);
        for (k, &i) in map.iter().enumerate() {
            if streams[i].open {
                engine.set_stream_open(k, in_regions[k].0 + in_regions[k].1);
            }
            if let Some(tokens) = cfg.fault.wedge_threshold(i as u64) {
                engine.set_wedge(k, tokens);
            }
        }
        engines.push(engine);
    }
    (engines, index_maps)
}

/// Shared runner: builds one engine per channel (tracing into a sink
/// from `make_sink`), drives them in parallel — on `pool` when given,
/// else on a pool of its own when [`SystemConfig::sim_threads`]
/// resolves to more than one worker — and assembles the report. Returns
/// the engines and stream index maps so traced callers can extract sink
/// data.
type InnerRun<S> = (RunReport, Vec<ChannelEngine<PuExec, S>>, Vec<Vec<usize>>);

fn run_system_inner<S: TraceSink + Send>(
    unit: &CompiledUnit,
    streams: &[&[u8]],
    cfg: &SystemConfig,
    pool: Option<&SimPool>,
    make_sink: impl FnMut() -> S,
) -> Result<InnerRun<S>, Box<RunFailure>> {
    let owned = (pool.is_none() && cfg.sim_threads.resolve() > 1)
        .then(|| SimPool::new(cfg.sim_threads));
    let pool = pool.or(owned.as_ref());
    let (mut engines, index_maps) =
        build_engines_with(unit, &StreamInit::closed(streams), cfg, make_sink);

    // Run every channel to completion, in parallel.
    let results = drive_channels(&mut engines, &index_maps, cfg.max_cycles, pool);

    // First failure in channel index order (deterministic).
    let cycles = results.iter().flatten().copied().max().unwrap_or(0);
    let first_err = results.iter().find_map(|r| r.as_ref().err());

    let faults_injected: u64 = engines
        .iter()
        .map(|e| e.dram().stats().faults_injected + e.wedged_units() as u64)
        .sum();

    if let Some(error) = first_err {
        // Salvage partial per-stream results: every stream on a healthy
        // channel, plus streams on failed channels whose unit finished
        // cleanly (output fully committed — the write queue must have
        // drained for the readback to be trustworthy).
        let run_cycles = engines.iter().map(|e| e.stats().cycles).max().unwrap_or(0);
        let mut partial_outputs: Vec<Option<Vec<u8>>> = vec![None; streams.len()];
        for (c, eng) in engines.iter().enumerate() {
            let channel_ok = results[c].is_ok();
            let drained = eng.dram().write_queue_len() == 0;
            for (k, &orig) in index_maps[c].iter().enumerate() {
                if channel_ok || (drained && eng.unit_finished(k)) {
                    partial_outputs[orig] = Some(eng.output_bytes(k));
                }
            }
        }
        return Err(Box::new(RunFailure {
            error: error.clone(),
            partial_outputs,
            cycles: run_cycles,
            seconds: cfg.platform.seconds(run_cycles),
            faults_injected,
        }));
    }

    // Collect outputs in submission order.
    let mut outputs = vec![Vec::new(); streams.len()];
    let mut input_bytes = 0u64;
    let mut output_bytes = 0u64;
    let mut channel_stats = Vec::new();
    for (c, eng) in engines.iter().enumerate() {
        for (k, &orig) in index_maps[c].iter().enumerate() {
            outputs[orig] = eng.output_bytes(k);
            output_bytes += outputs[orig].len() as u64;
            input_bytes += streams[orig].len() as u64;
        }
        channel_stats.push(eng.stats());
    }

    let report = RunReport {
        cycles,
        input_bytes,
        output_bytes,
        units: streams.len(),
        channel_stats,
        outputs,
        seconds: cfg.platform.seconds(cycles),
        trace: None,
        faults_injected,
    };
    Ok((report, engines, index_maps))
}

/// Maps a channel-level run error to a [`SystemError`], translating the
/// channel-local unit index to the submission-order stream index
/// through that channel's `index_map`.
pub(crate) fn unit_error_to_stream(e: EngineRunError, index_map: &[usize]) -> SystemError {
    match e {
        EngineRunError::Overflow { unit } => SystemError::OutputOverflow { stream: index_map[unit] },
        EngineRunError::Timeout { max_cycles } => SystemError::Timeout { max_cycles },
        EngineRunError::Wedged { unit } => SystemError::UnitWedged { stream: index_map[unit] },
        EngineRunError::Stalled { idle_cycles } => SystemError::ChannelStalled { idle_cycles },
    }
}

/// How many shards each of `channels` engines may split a cycle's
/// PU-evaluation phase into: the pool's workers spread over the
/// channels, at least one each (one shard = the serial drive;
/// `run_channel` further clamps to its unit count).
pub(crate) fn shards_per(pool: Option<&SimPool>, channels: usize) -> usize {
    pool.map_or(1, |pool| pool.workers().div_ceil(channels))
}

/// Drives every engine to completion in parallel and collects one
/// result per channel, unit indices already mapped to streams through
/// `index_maps`. A panic on a channel coordinator thread (or in a shard
/// job it dispatched) is caught at the join and surfaced as
/// [`SystemError::WorkerPanic`] for that channel instead of propagating
/// and aborting the caller.
///
/// Two layers of parallelism compose here without ever nesting blocking
/// work inside the pool:
///
/// - one scoped *coordinator* thread per channel (exactly the seed
///   behaviour — and all there is when `pool` is absent or serial);
/// - when a multi-worker `pool` is supplied, each coordinator splits its
///   cycle's PU-evaluation phase into shards and submits them as pure
///   compute jobs to the shared pool
///   ([`ChannelEngine::run_channel`]), so total evaluation work in
///   flight is bounded by the pool regardless of channel count.
fn drive_channels<U, S>(
    engines: &mut [ChannelEngine<U, S>],
    index_maps: &[Vec<usize>],
    max_cycles: u64,
    pool: Option<&SimPool>,
) -> Vec<Result<u64, SystemError>>
where
    U: StreamUnit + Send + 'static,
    S: TraceSink + Send,
{
    let shards = shards_per(pool, engines.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = engines
            .iter_mut()
            .zip(index_maps)
            .map(|(eng, map)| {
                scope.spawn(move || {
                    eng.run_channel(max_cycles, pool, shards)
                        .map_err(|e| unit_error_to_stream(e, map))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|payload| {
                    Err(SystemError::WorkerPanic { message: panic_message(payload) })
                })
            })
            .collect()
    })
}

/// Convenience: replicate one stream across `n` units and run.
///
/// # Errors
///
/// Same failure modes as [`run_system`].
pub fn run_replicated(
    spec: &UnitSpec,
    stream: &[u8],
    n: usize,
    cfg: &SystemConfig,
) -> Result<RunReport, SystemError> {
    // Borrow the one stream n times — a 512-replica run used to copy
    // the stream bytes 512 times before simulating a single cycle.
    let unit = CompiledUnit::new(spec);
    let refs: Vec<&[u8]> = (0..n).map(|_| stream).collect();
    run_system_compiled(&unit, &refs, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleet_lang::UnitBuilder;

    fn identity_spec() -> UnitSpec {
        let mut u = UnitBuilder::new("Identity", 8, 8);
        let inp = u.input();
        let nf = u.stream_finished().not_b();
        u.if_(nf, |u| u.emit(inp.clone()));
        u.build().unwrap()
    }

    #[test]
    fn multi_channel_roundtrip_preserves_stream_order() {
        let spec = identity_spec();
        let streams: Vec<Vec<u8>> = (0..13)
            .map(|s| (0..500u32).map(|x| ((x * 7 + s * 131) % 256) as u8).collect())
            .collect();
        let cfg = SystemConfig::f1(1024);
        let report = run_system(&spec, &streams, &cfg).unwrap();
        assert_eq!(report.outputs.len(), 13);
        for (i, s) in streams.iter().enumerate() {
            assert_eq!(&report.outputs[i], s, "stream {i}");
        }
        assert_eq!(report.input_bytes, 13 * 500);
        assert!(report.input_gbps() > 0.0);
    }

    #[test]
    fn traced_run_attributes_stalls_and_matches_untraced() {
        let spec = identity_spec();
        let streams: Vec<Vec<u8>> = (0..9)
            .map(|s| (0..400u32).map(|x| ((x * 3 + s * 17) % 256) as u8).collect())
            .collect();
        let cfg = SystemConfig::f1(1024);

        let plain = run_system(&spec, &streams, &cfg).unwrap();
        assert!(plain.trace.is_none(), "plain runs carry no trace");
        let traced = run_system_traced(&spec, &streams, &cfg).unwrap();

        // Tracing must not perturb the simulation.
        assert_eq!(plain.cycles, traced.cycles);
        assert_eq!(plain.outputs, traced.outputs);

        let trace = traced.trace.expect("traced run carries a trace");
        assert_eq!(trace.units(), streams.len());
        // Conservation: each PU was classified exactly once per cycle of
        // its channel.
        for ch in &trace.channels {
            for pu in &ch.pus {
                assert_eq!(pu.counters.total(), ch.cycles);
            }
        }
        // Stream ids cover every submitted stream exactly once.
        let mut seen: Vec<usize> =
            trace.channels.iter().flat_map(|c| c.pus.iter().map(|p| p.stream)).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..streams.len()).collect::<Vec<_>>());
        // Attribution fractions sum to 1 and the report serializes.
        let a = trace.attribution();
        let sum = a.busy + a.input_stalled + a.output_stalled + a.drained;
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(trace.dram_totals().read_beats > 0);
        assert!(trace.to_json().contains("\"attribution\""));
    }

    #[test]
    fn pooled_system_run_is_bit_identical_to_serial() {
        // The tentpole determinism claim at the system layer: the same
        // batch through 1 thread and through forced multi-worker pools
        // produces identical cycles, outputs, and per-channel stats.
        let spec = identity_spec();
        let streams: Vec<Vec<u8>> = (0..11)
            .map(|s| (0..600u32).map(|x| ((x * 11 + s * 37) % 256) as u8).collect())
            .collect();
        let mut cfg = SystemConfig::f1(1024);
        cfg.sim_threads = SimThreads::Fixed(1);
        let unit = CompiledUnit::new(&spec);
        let refs: Vec<&[u8]> = streams.iter().map(|s| s.as_slice()).collect();
        let serial = run_system_compiled(&unit, &refs, &cfg).unwrap();
        for threads in [2usize, 3, 8] {
            let pool = SimPool::new(SimThreads::Fixed(threads));
            let pooled = run_system_faulted(&unit, &refs, &cfg, Some(&pool)).unwrap();
            assert_eq!(serial.cycles, pooled.cycles, "{threads} threads");
            assert_eq!(serial.outputs, pooled.outputs, "{threads} threads");
            assert_eq!(serial.channel_stats, pooled.channel_stats, "{threads} threads");
        }
    }

    #[test]
    fn channel_thread_panic_surfaces_as_worker_panic() {
        // A PU exec stub that panics on its first combinational
        // evaluation — the regression case for the old behaviour, where
        // one poisoned channel thread took down the whole host process
        // via `.expect("channel thread panicked")`.
        struct PoisonedUnit;
        impl StreamUnit for PoisonedUnit {
            fn comb(&mut self, _pins: &fleet_compiler::PuIn) -> fleet_compiler::PuOut {
                panic!("injected PU panic");
            }
            fn clock(&mut self, _pins: &fleet_compiler::PuIn) {}
        }

        // Two poisoned units, so the pooled variant below genuinely
        // shards the worklist across workers.
        let build = || {
            let dram = DramChannel::new(fleet_axi::DramConfig::default(), 8192);
            let assigns = vec![
                StreamAssignment { in_start: 0, in_len: 64, out_start: 4096, out_capacity: 1024 },
                StreamAssignment { in_start: 2048, in_len: 64, out_start: 6144, out_capacity: 1024 },
            ];
            vec![ChannelEngine::new(
                MemCtlConfig::default(),
                dram,
                vec![PoisonedUnit, PoisonedUnit],
                assigns,
                1,
                1,
            )]
        };

        let maps = [vec![0, 1]];
        let mut engines = build();
        let results = drive_channels(&mut engines, &maps, 1_000_000, None);
        match &results[0] {
            Err(SystemError::WorkerPanic { message }) => {
                assert!(message.contains("injected PU panic"), "message: {message}");
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }

        // Same failure through the worker pool: a panic inside a shard
        // job must cross the reply channel with its message intact and
        // poison only this channel's result — the pool itself survives.
        let pool = SimPool::new(SimThreads::Fixed(2));
        let mut engines = build();
        let results = drive_channels(&mut engines, &maps, 1_000_000, Some(&pool));
        match &results[0] {
            Err(SystemError::WorkerPanic { message }) => {
                assert!(message.contains("injected PU panic"), "pooled message: {message}");
            }
            other => panic!("expected pooled WorkerPanic, got {other:?}"),
        }
        // The pool remains usable after absorbing the panic.
        let (tx, rx) = std::sync::mpsc::channel();
        pool.submit(Box::new(move || tx.send(7u32).unwrap()));
        assert_eq!(rx.recv().unwrap(), 7);
    }

    #[test]
    fn panic_message_handles_all_payload_shapes() {
        assert_eq!(panic_message(Box::new("static str")), "static str");
        assert_eq!(panic_message(Box::new(String::from("owned"))), "owned");
        assert_eq!(panic_message(Box::new(17u32)), "non-string panic payload");
    }

    #[test]
    fn overflow_surfaces_as_error() {
        let spec = identity_spec();
        let streams = vec![vec![1u8; 8192]];
        let mut cfg = SystemConfig::f1(256);
        cfg.max_cycles = 10_000_000;
        let err = run_system(&spec, &streams, &cfg).unwrap_err();
        assert!(matches!(err, SystemError::OutputOverflow { .. }));
    }

    #[test]
    fn overflow_error_names_the_actual_stream() {
        // Two streams on one channel; only the *second* overflows. The
        // old path reported the channel's first stream, misdirecting
        // the user at a healthy stream.
        let spec = identity_spec();
        let streams = vec![vec![1u8; 64], vec![2u8; 8192]];
        let mut cfg = SystemConfig::f1(256);
        cfg.platform.channels = 1;
        cfg.max_cycles = 10_000_000;
        match run_system(&spec, &streams, &cfg).unwrap_err() {
            SystemError::OutputOverflow { stream } => {
                assert_eq!(stream, 1, "overflow attributed to the wrong stream");
            }
            other => panic!("expected OutputOverflow, got {other:?}"),
        }
    }

    #[test]
    fn compiled_run_matches_spec_run() {
        let spec = identity_spec();
        let streams: Vec<Vec<u8>> = (0..7)
            .map(|s| (0..300u32).map(|x| ((x * 13 + s * 29) % 256) as u8).collect())
            .collect();
        let cfg = SystemConfig::f1(512);
        let by_spec = run_system(&spec, &streams, &cfg).unwrap();

        let unit = CompiledUnit::new(&spec);
        let refs: Vec<&[u8]> = streams.iter().map(|s| s.as_slice()).collect();
        let by_unit = run_system_compiled(&unit, &refs, &cfg).unwrap();

        assert_eq!(by_spec.cycles, by_unit.cycles);
        assert_eq!(by_spec.outputs, by_unit.outputs);
        assert_eq!(by_spec.input_bytes, by_unit.input_bytes);
        assert_eq!(by_spec.output_bytes, by_unit.output_bytes);
    }

    #[test]
    fn dram_faults_slow_the_run_but_outputs_stay_correct() {
        let spec = identity_spec();
        let streams: Vec<Vec<u8>> = (0..6)
            .map(|s| (0..800u32).map(|x| ((x * 5 + s * 41) % 256) as u8).collect())
            .collect();
        let unit = CompiledUnit::new(&spec);
        let refs: Vec<&[u8]> = streams.iter().map(|s| s.as_slice()).collect();
        let cfg = SystemConfig::f1(1024);
        let clean = run_system_faulted(&unit, &refs, &cfg, None).unwrap();
        assert_eq!(clean.faults_injected, 0);

        let mut faulty_cfg = cfg;
        faulty_cfg.fault =
            FaultPlan::with_seed(21).dram_stalls(100_000, 300).ecc_flips(50_000);
        let faulty = run_system_faulted(&unit, &refs, &faulty_cfg, None).unwrap();
        assert!(faulty.faults_injected > 0, "no faults injected");
        assert!(faulty.cycles > clean.cycles, "stalls must cost cycles");
        // ECC-corrected data and stretched timing never corrupt results.
        assert_eq!(faulty.outputs, clean.outputs);

        // Identical fault seed at 1 vs 8 sim threads: identical run.
        let mut serial_cfg = faulty_cfg;
        serial_cfg.sim_threads = SimThreads::Fixed(1);
        let serial = run_system_faulted(&unit, &refs, &serial_cfg, None).unwrap();
        let pool = SimPool::new(SimThreads::Fixed(8));
        let pooled = run_system_faulted(&unit, &refs, &faulty_cfg, Some(&pool)).unwrap();
        assert_eq!(serial.cycles, pooled.cycles);
        assert_eq!(serial.outputs, pooled.outputs);
        assert_eq!(serial.faults_injected, pooled.faults_injected);
    }

    #[test]
    fn wedged_unit_is_detected_and_partials_are_salvaged() {
        let spec = identity_spec();
        let plan = FaultPlan::with_seed(5).wedges(400_000, 4);
        let n = 8usize;
        let wedged: Vec<bool> =
            (0..n as u64).map(|i| plan.wedge_threshold(i).is_some()).collect();
        assert!(wedged.iter().any(|&w| w), "seed must wedge at least one stream");
        assert!(wedged.iter().any(|&w| !w), "seed must leave at least one stream healthy");

        let streams: Vec<Vec<u8>> = (0..n).map(|s| vec![s as u8 + 1; 512]).collect();
        let refs: Vec<&[u8]> = streams.iter().map(|s| s.as_slice()).collect();
        let unit = CompiledUnit::new(&spec);
        let mut cfg = SystemConfig::f1(1024);
        cfg.fault = plan;
        cfg.watchdog_cycles = 20_000; // keep detection latency test-sized

        let failure = run_system_faulted(&unit, &refs, &cfg, None).unwrap_err();
        match failure.error {
            SystemError::UnitWedged { stream } => {
                assert!(wedged[stream], "blamed stream {stream} was healthy");
            }
            ref other => panic!("expected UnitWedged, got {other}"),
        }
        assert_eq!(failure.partial_outputs.len(), n);
        for (i, p) in failure.partial_outputs.iter().enumerate() {
            if wedged[i] {
                assert!(p.is_none(), "wedged stream {i} cannot have completed");
            } else if let Some(bytes) = p {
                assert_eq!(bytes, &streams[i], "salvaged output for stream {i} is wrong");
            }
        }
        assert!(
            failure.partial_outputs.iter().any(|p| p.is_some()),
            "healthy channels must contribute salvaged results"
        );
        assert!(failure.faults_injected >= 1);
        assert!(failure.cycles >= 20_000, "run must include the watchdog window");
    }

    #[test]
    fn memory_bound_unit_approaches_platform_peak() {
        // Drop-everything unit with enough copies saturates all four
        // channels; throughput should land near the paper's 27.24 GB/s
        // (85% of the 32 GB/s theoretical peak).
        let mut u = UnitBuilder::new("DropAll", 8, 8);
        let acc = u.reg("acc", 8, 0);
        let inp = u.input();
        u.set(acc, acc ^ inp);
        let spec = u.build().unwrap();

        let stream = vec![0x55u8; 2048];
        let cfg = SystemConfig::f1(64);
        let report = run_replicated(&spec, &stream, 512, &cfg).unwrap();
        let gbps = report.input_gbps();
        assert!(
            (24.0..=32.0).contains(&gbps),
            "memory-bound throughput {gbps:.2} GB/s outside the expected band"
        );
    }
}
