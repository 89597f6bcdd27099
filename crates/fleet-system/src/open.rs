//! Resumable full-system runs over open-ended (appendable) streams —
//! the incremental-execution substrate of `fleet-session`.
//!
//! A one-shot [`run_system`](crate::run_system) materializes every
//! input stream up front. An [`OpenRun`] instead reserves a
//! fixed-capacity input region per stream, starts each stream empty and
//! *open*, and alternates between caller-driven `append`/`close` and
//! [`OpenRun::advance`], which drives every channel engine until it
//! either finishes or *suspends* — between cycles, all state preserved
//! — because some open stream ran low on un-fetched input.
//!
//! **Cycle-exactness.** The engine layer only suspends while every open
//! stream still holds at least one full input burst, so every cycle an
//! open run executes is bit-identical to the same-numbered cycle of a
//! one-shot run over the full concatenated input: identical outputs,
//! identical cycle counts, identical stats. (`fleet-memctl::engine`
//! documents the invariant; the proptests in `tests/sessions.rs` pin it
//! across apps and chunkings.)
//!
//! **Windowed delivery.** [`OpenRun::take_output`] returns the newly
//! *committed* output bytes of a stream — bytes whose DRAM writes have
//! fully applied — so callers can stream results out while the run is
//! suspended, without waiting for close.

use fleet_compiler::{CompiledUnit, PuExec};
use fleet_fault::FaultPlan;
use fleet_memctl::{ChannelEngine, MisalignedClose, OpenStep};
use fleet_trace::NullSink;

use crate::system::{
    build_engines_with, unit_error_to_stream, StreamInit, SystemConfig, SystemError,
};

/// How an [`OpenRun::advance`] quantum ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenStatus {
    /// Every stream is closed, every unit finished, and all output is
    /// committed: the run is complete.
    Done,
    /// At least one channel suspended waiting for more input on an open
    /// stream. Append more bytes (or close streams) and advance again.
    Suspended,
}

/// Result of one [`OpenRun::advance`] quantum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdvanceReport {
    /// Whether the whole run completed or suspended for more input.
    pub status: OpenStatus,
    /// Cumulative simulated cycles (slowest channel) since the run
    /// began.
    pub cycles: u64,
    /// Cycles the slowest channel advanced during *this* quantum.
    pub delta_cycles: u64,
    /// Wall-clock seconds at the platform clock for `cycles`.
    pub seconds: f64,
    /// Wall-clock seconds for `delta_cycles`.
    pub delta_seconds: f64,
}

/// A resumable full-system run over open-ended streams.
///
/// Built by [`Instance::open_run`](crate::Instance::open_run). Streams
/// are indexed in submission order, exactly like one-shot run reports.
#[derive(Debug)]
pub struct OpenRun {
    cfg: SystemConfig,
    engines: Vec<ChannelEngine<PuExec>>,
    /// `locs[i]` = (channel, channel-local unit index) of stream `i`.
    locs: Vec<(usize, usize)>,
    /// `maps[c][k]` = submission-order stream index of unit `k` on
    /// channel `c` (for mapping engine errors back to streams).
    index_maps: Vec<Vec<usize>>,
    /// Reserved input capacity per stream (appends beyond it panic).
    caps: Vec<usize>,
    /// Bytes already handed out by `take_output`, per stream.
    delivered: Vec<usize>,
    /// The first failure of an advance; the run is poisoned afterwards.
    failed: Option<SystemError>,
}

impl OpenRun {
    /// Builds a suspended run of `caps.len()` replicated units, one per
    /// stream, each with a reserved input region of the corresponding
    /// capacity and an output region of `cfg.out_capacity`. Streams
    /// start empty and open; no cycle is simulated. Built by the
    /// one-shot engine builder, so a closed run is geometrically
    /// identical to the equivalent one-shot batch.
    ///
    /// Sessions are the fault-free serving path: the engines are built
    /// with `cfg.fault` cleared, so an open run ignores the plan.
    ///
    /// # Panics
    ///
    /// Panics if `caps` is empty.
    pub(crate) fn new(unit: &CompiledUnit, caps: &[usize], cfg: SystemConfig) -> OpenRun {
        let streams: Vec<StreamInit<'_>> =
            caps.iter().map(|&reserve| StreamInit { bytes: &[], reserve, open: true }).collect();
        let fault_free = SystemConfig { fault: FaultPlan::none(), ..cfg };
        let (engines, index_maps) = build_engines_with(unit, &streams, &fault_free, || NullSink);
        let mut locs = vec![(0usize, 0usize); caps.len()];
        for (c, map) in index_maps.iter().enumerate() {
            for (k, &i) in map.iter().enumerate() {
                locs[i] = (c, k);
            }
        }
        OpenRun {
            cfg,
            engines,
            locs,
            index_maps,
            caps: caps.to_vec(),
            delivered: vec![0; caps.len()],
            failed: None,
        }
    }

    /// Number of streams.
    pub fn streams(&self) -> usize {
        self.locs.len()
    }

    /// Reserved input capacity of stream `i` in bytes.
    pub fn capacity(&self, i: usize) -> usize {
        self.caps[i]
    }

    /// Bytes appended to stream `i` so far.
    pub fn appended(&self, i: usize) -> usize {
        let (c, k) = self.locs[i];
        self.engines[c].stream_len(k)
    }

    /// Whether stream `i` is still open for appends.
    pub fn is_open(&self, i: usize) -> bool {
        let (c, k) = self.locs[i];
        self.engines[c].stream_open(k)
    }

    /// Appends `bytes` to open stream `i`.
    ///
    /// # Panics
    ///
    /// Panics if the stream is closed or the append overruns its
    /// reserved capacity — callers (the session layer) enforce
    /// credit-based bounds *before* accepting bytes, so an overrun here
    /// is a bookkeeping bug, not an operational condition.
    pub fn append(&mut self, i: usize, bytes: &[u8]) {
        let (c, k) = self.locs[i];
        self.engines[c].append_stream(k, bytes);
    }

    /// Closes stream `i`: the unit observes end-of-stream once the
    /// remaining bytes drain.
    ///
    /// # Errors
    ///
    /// Refuses (stream stays open) when the appended bytes do not form
    /// a whole number of input tokens.
    pub fn close(&mut self, i: usize) -> Result<(), MisalignedClose> {
        let (c, k) = self.locs[i];
        self.engines[c].close_stream(k)
    }

    /// Drives every channel until it finishes or suspends for more
    /// input, serially on the calling thread (one engine at a time).
    /// Cumulative cycles across all advances are bounded by
    /// `cfg.max_cycles` per channel.
    ///
    /// # Errors
    ///
    /// Maps engine failures exactly like one-shot runs (stream indices
    /// in submission order). A failed run is poisoned: every later
    /// `advance` returns the same failure immediately.
    pub fn advance(&mut self) -> Result<AdvanceReport, SystemError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        let before = self.cycles();
        let mut status = OpenStatus::Done;
        for (eng, map) in self.engines.iter_mut().zip(&self.index_maps) {
            let budget = self.cfg.max_cycles.saturating_sub(eng.stats().cycles);
            match eng.run_channel_open(budget) {
                Ok(OpenStep::Done(_)) => {}
                Ok(OpenStep::Suspended(_)) => status = OpenStatus::Suspended,
                Err(e) => {
                    let e = unit_error_to_stream(e, map);
                    self.failed = Some(e.clone());
                    return Err(e);
                }
            }
        }
        let cycles = self.cycles();
        let delta = cycles - before;
        Ok(AdvanceReport {
            status,
            cycles,
            delta_cycles: delta,
            seconds: self.cfg.platform.seconds(cycles),
            delta_seconds: self.cfg.platform.seconds(delta),
        })
    }

    /// Cumulative simulated cycles of the slowest channel — directly
    /// comparable to the one-shot `RunReport::cycles` of the equivalent
    /// batch once the run is done.
    pub fn cycles(&self) -> u64 {
        self.engines.iter().map(|e| e.stats().cycles).max().unwrap_or(0)
    }

    /// Newly committed output bytes of stream `i` since the last take:
    /// `Some(delta)` (possibly empty) when the committed window could
    /// be established, `None` when a burst register or in-flight DRAM
    /// write still covers the stream's output region (try again after
    /// the next advance — the window lags by at most one burst).
    pub fn take_output(&mut self, i: usize) -> Option<Vec<u8>> {
        let (c, k) = self.locs[i];
        let part = self.engines[c].committed_output_since(k, self.delivered[i])?.to_vec();
        self.delivered[i] += part.len();
        Some(part)
    }

    /// Bytes of stream `i`'s output already handed out by
    /// [`OpenRun::take_output`].
    pub fn delivered(&self, i: usize) -> usize {
        self.delivered[i]
    }

    /// Total output bytes stream `i` has written so far (committed or
    /// not). After [`OpenStatus::Done`] this equals delivered +
    /// remaining take.
    pub fn output_len(&self, i: usize) -> usize {
        let (c, k) = self.locs[i];
        self.engines[c].output_len(k)
    }

    /// Full output bytes of stream `i` read back from simulated DRAM —
    /// meaningful once the run is [`OpenStatus::Done`] (all writes
    /// committed).
    pub fn full_output(&self, i: usize) -> Vec<u8> {
        let (c, k) = self.locs[i];
        self.engines[c].output_bytes(k)
    }

    /// Total input bytes appended across all streams.
    pub fn input_bytes(&self) -> u64 {
        (0..self.locs.len()).map(|i| self.appended(i) as u64).sum()
    }

    /// Total output bytes written across all streams.
    pub fn output_bytes(&self) -> u64 {
        (0..self.locs.len()).map(|i| self.output_len(i) as u64).sum()
    }

    /// Whether an advance failed, poisoning the run.
    pub fn is_failed(&self) -> bool {
        self.failed.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::run_system_compiled;
    use crate::Instance;
    use fleet_lang::{UnitBuilder, UnitSpec};

    fn identity_spec() -> UnitSpec {
        let mut u = UnitBuilder::new("Identity", 8, 8);
        let inp = u.input();
        let nf = u.stream_finished().not_b();
        u.if_(nf, |u| u.emit(inp.clone()));
        u.build().unwrap()
    }

    #[test]
    fn chunked_open_run_matches_one_shot_cycles_and_outputs() {
        // Multiple streams across multiple channels, fed in ragged
        // chunks through an OpenRun: outputs AND cycle counts must
        // equal the one-shot batch of the concatenated streams.
        let spec = identity_spec();
        let unit = CompiledUnit::new(&spec);
        let streams: Vec<Vec<u8>> = (0..5)
            .map(|s| (0..700u32 + s * 53).map(|x| ((x * 7 + s * 19) % 256) as u8).collect())
            .collect();
        let cfg = SystemConfig::f1(2048);
        let refs: Vec<&[u8]> = streams.iter().map(|s| s.as_slice()).collect();
        let oneshot = run_system_compiled(&unit, &refs, &cfg).unwrap();

        let inst = Instance::new(0, cfg);
        let caps: Vec<usize> = streams.iter().map(|s| s.len()).collect();
        let mut run = inst.open_run(&unit, &caps, 2048);
        let mut fed = vec![0usize; streams.len()];
        let mut taken: Vec<Vec<u8>> = vec![Vec::new(); streams.len()];
        for round in 0.. {
            let mut any = false;
            for (i, s) in streams.iter().enumerate() {
                let chunk = (97 + 31 * i + 13 * round).min(s.len() - fed[i]);
                if chunk > 0 {
                    run.append(i, &s[fed[i]..fed[i] + chunk]);
                    fed[i] += chunk;
                    any = true;
                }
            }
            if !any {
                break;
            }
            let rep = run.advance().unwrap();
            assert_eq!(rep.status, OpenStatus::Suspended, "open streams cannot finish");
            for (i, t) in taken.iter_mut().enumerate() {
                if let Some(part) = run.take_output(i) {
                    t.extend_from_slice(&part);
                }
            }
        }
        for i in 0..streams.len() {
            run.close(i).unwrap();
        }
        let rep = run.advance().unwrap();
        assert_eq!(rep.status, OpenStatus::Done);
        assert_eq!(rep.cycles, oneshot.cycles, "cycle counts diverged from one-shot");
        for (i, s) in streams.iter().enumerate() {
            // Windowed deliveries plus the final take reproduce the
            // stream exactly.
            if let Some(part) = run.take_output(i) {
                taken[i].extend_from_slice(&part);
            }
            assert_eq!(&taken[i], s, "windowed delivery diverged for stream {i}");
            assert_eq!(&run.full_output(i), s, "full output diverged for stream {i}");
        }
        assert_eq!(run.input_bytes(), oneshot.input_bytes);
        assert_eq!(run.output_bytes(), oneshot.output_bytes);
    }

    #[test]
    fn open_run_records_into_instance_stats() {
        let spec = identity_spec();
        let unit = CompiledUnit::new(&spec);
        let mut inst = Instance::new(0, SystemConfig::f1(512));
        let mut run = inst.open_run(&unit, &[256], 512);
        run.append(0, &[7u8; 256]);
        run.close(0).unwrap();
        let rep = run.advance().unwrap();
        assert_eq!(rep.status, OpenStatus::Done);
        inst.record_open_run(&run, false);
        let s = inst.stats();
        assert_eq!(s.runs, 1);
        assert_eq!(s.input_bytes, 256);
        assert_eq!(s.output_bytes, 256);
        assert_eq!(s.units_run, 1);
        assert_eq!(s.busy_cycles, rep.cycles);
    }

    #[test]
    fn overflowing_open_run_is_poisoned_with_the_right_stream() {
        let spec = identity_spec();
        let unit = CompiledUnit::new(&spec);
        let inst = Instance::new(0, SystemConfig::f1(64));
        // Stream 1 overflows its 64-byte output region; stream 0 stays
        // small and healthy. Both land on different channels, so the
        // remap must still name the submitted index.
        let mut cfg = *inst.config();
        cfg.platform.channels = 1;
        cfg.max_cycles = 10_000_000;
        let inst = Instance::new(0, cfg);
        let mut run = inst.open_run(&unit, &[64, 8192], 64);
        run.append(0, &[1u8; 64]);
        run.close(0).unwrap();
        run.append(1, &[2u8; 8192]);
        run.close(1).unwrap();
        let first = run.advance().unwrap_err();
        match first {
            SystemError::OutputOverflow { stream } => assert_eq!(stream, 1),
            ref other => panic!("expected OutputOverflow, got {other:?}"),
        }
        assert!(run.is_failed());
        // A poisoned run keeps returning the failure it recorded.
        assert_eq!(run.advance().unwrap_err(), first);
    }

    #[test]
    fn multi_channel_overflow_names_the_submitted_stream() {
        // Six streams over four channels: stream 5 is unit 1 of channel
        // 1. Only it overflows, so the shared error map must translate
        // (channel 1, unit 1) back to submission index 5.
        let spec = identity_spec();
        let unit = CompiledUnit::new(&spec);
        let mut cfg = SystemConfig::f1(64);
        cfg.max_cycles = 10_000_000;
        assert_eq!(cfg.platform.channels, 4);
        let inst = Instance::new(0, cfg);
        let caps = [64, 64, 64, 64, 64, 8192];
        let mut run = inst.open_run(&unit, &caps, 64);
        for (i, &cap) in caps.iter().enumerate() {
            run.append(i, &vec![i as u8; cap]);
            run.close(i).unwrap();
        }
        match run.advance().unwrap_err() {
            SystemError::OutputOverflow { stream } => assert_eq!(stream, 5),
            other => panic!("expected OutputOverflow, got {other:?}"),
        }
    }

    #[test]
    fn open_run_ignores_the_configured_fault_plan() {
        // A plan that wedges every unit after at most 4 tokens: a
        // one-shot batch under it cannot finish, an open run must not
        // notice it at all.
        let spec = identity_spec();
        let unit = CompiledUnit::new(&spec);
        let plan = FaultPlan::with_seed(3).wedges(1_000_000, 4);
        assert!(plan.wedge_threshold(0).is_some(), "plan must wedge stream 0");
        let clean = SystemConfig::f1(1024);
        let faulty = SystemConfig { fault: plan, watchdog_cycles: 20_000, ..clean };
        let data: Vec<u8> = (0..600u32).map(|x| (x * 5 + 1) as u8).collect();
        assert!(matches!(
            run_system_compiled(&unit, &[&data], &faulty),
            Err(SystemError::UnitWedged { stream: 0 })
        ));

        let finish = |cfg: SystemConfig| {
            let mut run = Instance::new(0, cfg).open_run(&unit, &[data.len()], 1024);
            run.append(0, &data);
            run.close(0).unwrap();
            let rep = run.advance().unwrap();
            assert_eq!(rep.status, OpenStatus::Done);
            (rep.cycles, run.full_output(0))
        };
        let want = finish(clean);
        assert_eq!(want.1, data);
        assert_eq!(finish(faulty), want);
    }

    #[test]
    fn closed_open_run_has_the_one_shot_geometry() {
        // One builder behind both: after every stream is appended and
        // closed, each channel's engines place every unit exactly where
        // the one-shot builder does, whether the stream count is below,
        // at, or above the channel count.
        let spec = identity_spec();
        let unit = CompiledUnit::new(&spec);
        let cfg = SystemConfig::f1(512);
        for n in [1usize, 3, 4, 9] {
            let streams: Vec<Vec<u8>> =
                (0..n).map(|s| vec![s as u8; 100 + 77 * s]).collect();
            let refs: Vec<&[u8]> = streams.iter().map(|s| s.as_slice()).collect();
            let (oneshot, maps) = crate::build_system_engines(&unit, &refs, &cfg);

            let caps: Vec<usize> = streams.iter().map(|s| s.len()).collect();
            let mut run = Instance::new(0, cfg).open_run(&unit, &caps, 512);
            for (i, s) in streams.iter().enumerate() {
                run.append(i, s);
                run.close(i).unwrap();
            }
            assert_eq!(run.index_maps, maps, "{n} streams");
            assert_eq!(run.engines.len(), oneshot.len(), "{n} streams");
            for (c, (open, shot)) in run.engines.iter().zip(&oneshot).enumerate() {
                assert_eq!(open.len(), shot.len(), "{n} streams, channel {c}");
                for k in 0..open.len() {
                    assert_eq!(
                        open.assignment(k),
                        shot.assignment(k),
                        "{n} streams, channel {c}, unit {k}"
                    );
                }
            }
        }
    }
}
