//! # fleet-memctl — the Fleet memory controller
//!
//! The soft memory controller of §5 of the paper, as a cycle-accurate
//! model: round-robin input and output controllers per DRAM channel,
//! per-unit BRAM input/output buffers of one burst, *asynchronous address
//! supply* to hide DRAM latency, and *burst registers* to feed `r` units
//! in parallel at the full 512-bit bus rate.
//!
//! Every optimization is independently configurable so the Figure 9
//! ablation can be reproduced:
//!
//! | config | paper result |
//! |---|---|
//! | [`MemCtlConfig::unoptimized`] | 0.98 GB/s |
//! | [`MemCtlConfig::async_only`]  | 1.88 GB/s |
//! | [`MemCtlConfig::default`]     | 27.24 GB/s |
//!
//! The controller drives anything implementing [`StreamUnit`] — the fast
//! executor or full RTL simulation.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
mod drive;
pub mod engine;
mod lanes;
pub mod pool;
pub mod unit;

pub use config::{Addressing, MemCtlConfig};
pub use engine::{
    dram_counters, ChannelEngine, EngineRunError, EngineStats, MisalignedClose, OpenStep,
    StreamAssignment,
};
pub use pool::{SimPool, SimThreads};
pub use unit::StreamUnit;

#[cfg(test)]
mod tests {
    use super::*;
    use fleet_axi::{DramChannel, DramConfig, BEAT_BYTES};
    use fleet_compiler::{CompiledUnit, PuExec};
    use fleet_isim::Interpreter;
    use fleet_lang::{lit, UnitBuilder, UnitSpec};

    fn identity_spec() -> UnitSpec {
        let mut u = UnitBuilder::new("Identity", 8, 8);
        let inp = u.input();
        let nf = u.stream_finished().not_b();
        u.if_(nf, |u| u.emit(inp.clone()));
        u.build().unwrap()
    }

    fn drop_all_spec() -> UnitSpec {
        // The paper's memory-benchmark unit: consumes everything, emits
        // nothing.
        let mut u = UnitBuilder::new("DropAll", 8, 8);
        let acc = u.reg("acc", 8, 0);
        let inp = u.input();
        u.set(acc, acc ^ inp);
        u.build().unwrap()
    }

    /// Builds an engine over `n` copies of `spec`, each fed `stream`,
    /// tracing into `sink`.
    fn build_engine_with<S: fleet_trace::TraceSink>(
        spec: &UnitSpec,
        cfg: MemCtlConfig,
        n: usize,
        stream: &[u8],
        out_capacity: usize,
        sink: S,
    ) -> ChannelEngine<PuExec, S> {
        let in_alloc = stream.len().div_ceil(BEAT_BYTES) * BEAT_BYTES;
        let out_alloc = out_capacity.div_ceil(BEAT_BYTES) * BEAT_BYTES + cfg.burst_bytes;
        let mem = n * (in_alloc + out_alloc);
        let mut dram = DramChannel::new(DramConfig::default(), mem);
        let mut assigns = Vec::new();
        for p in 0..n {
            let in_start = p * in_alloc;
            let out_start = n * in_alloc + p * out_alloc;
            dram.mem_mut()[in_start..in_start + stream.len()].copy_from_slice(stream);
            assigns.push(StreamAssignment {
                in_start,
                in_len: stream.len(),
                out_start,
                out_capacity: out_alloc,
            });
        }
        // Compile once, replicate n times (the fast path every caller
        // above this crate uses too).
        let unit = CompiledUnit::new(spec);
        let units = (0..n).map(|_| unit.replicate()).collect();
        ChannelEngine::with_sink(cfg, dram, units, assigns, 1, 1, sink)
    }

    /// Builds an untraced engine over `n` copies of `spec`.
    fn build_engine(
        spec: &UnitSpec,
        cfg: MemCtlConfig,
        n: usize,
        stream: &[u8],
        out_capacity: usize,
    ) -> ChannelEngine<PuExec> {
        build_engine_with(spec, cfg, n, stream, out_capacity, fleet_trace::NullSink)
    }

    #[test]
    fn identity_roundtrip_single_unit() {
        let spec = identity_spec();
        let stream: Vec<u8> = (0..1000u32).map(|x| (x * 7 + 3) as u8).collect();
        let mut eng = build_engine(&spec, MemCtlConfig::default(), 1, &stream, stream.len());
        eng.run_channel(1_000_000, None, 1).unwrap();
        assert!(!eng.any_overflow());
        assert_eq!(eng.output_bytes(0), stream);
    }

    #[test]
    fn identity_roundtrip_many_units() {
        let spec = identity_spec();
        let stream: Vec<u8> = (0..777u32).map(|x| (x * 31 + 11) as u8).collect();
        let n = 20;
        let mut eng = build_engine(&spec, MemCtlConfig::default(), n, &stream, stream.len());
        eng.run_channel(10_000_000, None, 1).unwrap();
        for p in 0..n {
            assert_eq!(eng.output_bytes(p), stream, "unit {p} corrupted its stream");
        }
    }

    #[test]
    fn matches_software_simulator_through_memory_system() {
        // Histogram unit through the full memory path == interpreter.
        let mut u = UnitBuilder::new("BlockFrequencies", 8, 8);
        let item_counter = u.reg("itemCounter", 7, 0);
        let frequencies = u.bram("frequencies", 256, 8);
        let idx = u.reg("frequenciesIdx", 9, 0);
        let input = u.input();
        u.if_(item_counter.eq_e(100u64), |u| {
            u.while_(idx.lt_e(256u64), |u| {
                u.emit(frequencies.read(idx));
                u.write(frequencies, idx, lit(0, 8));
                u.set(idx, idx + 1u64);
            });
            u.set(idx, lit(0, 9));
        });
        u.write(frequencies, input.clone(), frequencies.read(input) + 1u64);
        u.set(
            item_counter,
            item_counter.eq_e(100u64).mux(lit(1, 7), item_counter + 1u64),
        );
        let spec = u.build().unwrap();

        let stream: Vec<u8> = (0..300u32).map(|x| (x * 13) as u8).collect();
        let tokens: Vec<u64> = stream.iter().map(|&b| b as u64).collect();
        let golden = Interpreter::run_tokens(&spec, &tokens).unwrap();

        let mut eng = build_engine(&spec, MemCtlConfig::default(), 3, &stream, 2048);
        eng.run_channel(1_000_000, None, 1).unwrap();
        let expect: Vec<u8> = golden.tokens.iter().map(|&t| t as u8).collect();
        for p in 0..3 {
            assert_eq!(eng.output_bytes(p), expect);
        }
    }

    #[test]
    fn ablation_is_monotone() {
        // Figure 9 shape: each §5 optimization strictly improves
        // drop-all input throughput.
        // Enough units that aggregate demand (1 B/cycle each) exceeds
        // the 64 B/cycle bus, as on the real F1 with hundreds of units.
        let spec = drop_all_spec();
        let stream = vec![0xA5u8; 2 * 1024];
        let n = 128;

        let mut cycles = Vec::new();
        for cfg in [
            MemCtlConfig::unoptimized(),
            MemCtlConfig::async_only(),
            MemCtlConfig::default(),
        ] {
            let mut eng = build_engine(&spec, cfg, n, &stream, 64);
            let c = eng.run_channel(100_000_000, None, 1).unwrap();
            cycles.push(c);
        }
        assert!(
            cycles[0] > cycles[1] && cycles[1] > cycles[2],
            "expected strict improvement, got {cycles:?}"
        );
        // Async alone roughly doubles throughput (paper: 0.98 → 1.88).
        let speedup_async = cycles[0] as f64 / cycles[1] as f64;
        assert!(
            (1.5..=2.6).contains(&speedup_async),
            "async-address speedup {speedup_async:.2} out of band"
        );
        // Burst registers provide a further order of magnitude
        // (paper: 1.88 → 27.24, i.e. ~14.5x).
        let speedup_regs = cycles[1] as f64 / cycles[2] as f64;
        assert!(
            speedup_regs > 8.0,
            "burst-register speedup {speedup_regs:.2} too small"
        );
    }

    #[test]
    fn full_config_saturates_bus() {
        // With r*w = 512 bits and enough units, input throughput should
        // be within ~20% of the bus peak of 64 B/cycle.
        let spec = drop_all_spec();
        let stream = vec![1u8; 4 * 1024];
        let n = 128;
        let mut eng = build_engine(&spec, MemCtlConfig::default(), n, &stream, 64);
        let cycles = eng.run_channel(100_000_000, None, 1).unwrap();
        let bytes = (n * stream.len()) as f64;
        let per_cycle = bytes / cycles as f64;
        assert!(
            per_cycle > 48.0,
            "input rate {per_cycle:.1} B/cycle too far below the 64 B/cycle bus"
        );
    }

    #[test]
    fn ragged_final_burst_roundtrips() {
        // Stream length deliberately not a multiple of the burst size.
        let spec = identity_spec();
        let stream: Vec<u8> = (0..301u32).map(|x| x as u8).collect();
        let mut eng = build_engine(&spec, MemCtlConfig::default(), 2, &stream, 512);
        eng.run_channel(1_000_000, None, 1).unwrap();
        for p in 0..2 {
            assert_eq!(eng.output_bytes(p), stream);
        }
    }

    #[test]
    fn traced_run_matches_untraced_and_conserves_cycles() {
        use fleet_trace::{CounterSink, EventKind, QueueKind, VcdSink};

        let spec = identity_spec();
        let stream: Vec<u8> = (0..500u32).map(|x| (x * 3 + 1) as u8).collect();
        let n = 4;

        let mut plain = build_engine(&spec, MemCtlConfig::default(), n, &stream, stream.len());
        plain.run_channel(1_000_000, None, 1).unwrap();

        let sink = (CounterSink::new(), VcdSink::new());
        let mut traced =
            build_engine_with(&spec, MemCtlConfig::default(), n, &stream, stream.len(), sink);
        traced.run_channel(1_000_000, None, 1).unwrap();

        // Tracing must not perturb the simulation.
        assert_eq!(plain.stats().cycles, traced.stats().cycles);
        for p in 0..n {
            assert_eq!(plain.output_bytes(p), traced.output_bytes(p));
        }

        let (counters, vcd) = traced.into_sink();
        // Conservation: every PU gets exactly one class per cycle.
        assert_eq!(counters.n_pus(), n);
        for p in 0..n {
            let c = counters.pu_counters(p);
            assert_eq!(c.total(), counters.cycles(), "PU {p} classes not conserved");
            assert!(c.busy >= stream.len() as u64, "PU {p} busy cycles below token count");
        }
        // Data moved, so reads were issued, bursts delivered, writes
        // committed, and every unit finished.
        assert!(counters.event_count(EventKind::ReadIssued { pu: 0, addr: 0, beats: 0 }.index()) > 0);
        assert!(
            counters.event_count(EventKind::BurstDelivered { pu: 0, bytes: 0 }.index()) > 0
        );
        assert!(
            counters.event_count(EventKind::WriteIssued { pu: 0, addr: 0, bytes: 0 }.index()) > 0
        );
        assert_eq!(
            counters.event_count(EventKind::UnitFinished { pu: 0 }.index()),
            n as u64
        );
        assert!(counters.queue(QueueKind::PendingReads).samples > 0);
        assert!(counters.bus_busy_cycles() > 0);
        // The VCD saw per-PU handshakes plus the channel-level signals.
        assert_eq!(vcd.n_signals(), n * 4 + 4);
        let doc = vcd.to_vcd();
        assert!(doc.contains("pu0_in_valid"), "missing declared signal:\n{doc}");
        assert!(doc.contains("$enddefinitions"), "not a VCD document");
    }

    #[test]
    fn skipping_and_naive_ticks_agree_exactly() {
        use fleet_trace::CounterSink;

        // Same engine config, one driven by the quiescence-skipping
        // tick, one by the naive all-units reference tick: every
        // observable must match bit-for-bit.
        let spec = identity_spec();
        let stream: Vec<u8> = (0..900u32).map(|x| (x * 5 + 2) as u8).collect();
        let n = 6;

        let mut fast =
            build_engine_with(&spec, MemCtlConfig::default(), n, &stream, stream.len(), CounterSink::new());
        let fast_cycles = fast.run_channel(1_000_000, None, 1).unwrap();

        let mut naive =
            build_engine_with(&spec, MemCtlConfig::default(), n, &stream, stream.len(), CounterSink::new());
        let mut guard = 0u64;
        while !naive.done() {
            naive.tick_naive();
            guard += 1;
            assert!(guard < 1_000_000);
        }

        assert_eq!(fast_cycles, guard, "cycle counts diverged");
        assert_eq!(fast.stats().input_bytes, naive.stats().input_bytes);
        assert_eq!(fast.stats().output_bytes, naive.stats().output_bytes);
        assert_eq!(fast.stats().output_tokens, naive.stats().output_tokens);
        for p in 0..n {
            assert_eq!(fast.output_bytes(p), naive.output_bytes(p), "unit {p} output diverged");
        }
        assert_eq!(fast.unit_vcycles(), naive.unit_vcycles());
        let (fs, ns) = (fast.into_sink(), naive.into_sink());
        assert_eq!(fs.cycles(), ns.cycles());
        for p in 0..n {
            assert_eq!(fs.pu_counters(p), ns.pu_counters(p), "PU {p} cycle classes diverged");
        }
    }

    #[test]
    fn interleaved_naive_and_fast_ticks_stay_exact() {
        // Alternating tick()/tick_naive() on one engine must agree with
        // a pure naive run — the flush-and-wake handoff is exact.
        let spec = identity_spec();
        let stream: Vec<u8> = (0..640u32).map(|x| (x * 11 + 7) as u8).collect();
        let n = 4;

        let mut mixed = build_engine(&spec, MemCtlConfig::default(), n, &stream, stream.len());
        let mut naive = build_engine(&spec, MemCtlConfig::default(), n, &stream, stream.len());
        let mut c = 0u64;
        while !mixed.done() {
            // Bursts of fast ticks separated by naive ticks.
            if (c / 64).is_multiple_of(2) {
                mixed.tick();
            } else {
                mixed.tick_naive();
            }
            naive.tick_naive();
            c += 1;
            assert!(c < 1_000_000);
        }
        assert!(naive.done(), "mixed engine finished early");
        assert_eq!(mixed.stats().cycles, naive.stats().cycles);
        for p in 0..n {
            assert_eq!(mixed.output_bytes(p), naive.output_bytes(p));
        }
        assert_eq!(mixed.unit_vcycles(), naive.unit_vcycles());
    }

    #[test]
    fn merge_sorted_slice_is_a_stable_set_union() {
        use engine::merge_sorted_slice;

        // (dst, src) pairs covering the wake-storm shapes: interleaved,
        // all-before, all-after, empty sides, and adjacent runs.
        let cases: Vec<(Vec<usize>, Vec<usize>)> = vec![
            (vec![0, 2, 4, 6], vec![1, 3, 5, 7]),
            (vec![4, 5, 6], vec![0, 1, 2]),
            (vec![0, 1, 2], vec![4, 5, 6]),
            (vec![], vec![3, 9]),
            (vec![3, 9], vec![]),
            (vec![5], vec![0, 1, 2, 3, 4, 6, 7, 8, 9]),
            (vec![0, 100], vec![50]),
            (vec![1, 2, 3, 10, 20], vec![0, 4, 9, 11, 19, 21]),
        ];
        for (dst0, src) in cases {
            let mut dst = dst0.clone();
            merge_sorted_slice(&mut dst, &src);
            let mut want: Vec<usize> = dst0.iter().chain(src.iter()).copied().collect();
            want.sort_unstable();
            assert_eq!(dst, want, "merge of {dst0:?} + {src:?}");
        }
    }

    /// Builds an engine of 64-bit identity units over per-unit streams
    /// of *different* lengths, so unit phases drift apart and several
    /// units cross their 8-byte token thresholds in the same cycle
    /// while different burst registers drain concurrently — real wake
    /// storms, in register-scan (not index) order.
    fn build_storm_engines(n: usize) -> (ChannelEngine<PuExec>, ChannelEngine<PuExec>, Vec<Vec<u8>>) {
        let mut u = UnitBuilder::new("Identity64", 64, 64);
        let inp = u.input();
        let nf = u.stream_finished().not_b();
        u.if_(nf, |u| u.emit(inp.clone()));
        let spec = u.build().unwrap();

        let streams: Vec<Vec<u8>> = (0..n)
            .map(|p| {
                let tokens = 40 + (p * 7) % 60; // skewed lengths
                (0..tokens * 8).map(|x| (x as u32 * 13 + p as u32) as u8).collect()
            })
            .collect();
        // Single-beat bursts with one-burst buffers: units starve on
        // input *and* back-pressure on output mid-burst, so both
        // controllers wake sleepers — often in the same cycle.
        let cfg = MemCtlConfig {
            burst_bytes: 64,
            input_buffer_bytes: 64,
            output_buffer_bytes: 64,
            ..MemCtlConfig::default()
        };
        let build = || {
            let in_alloc = streams.iter().map(|s| s.len().div_ceil(BEAT_BYTES) * BEAT_BYTES).sum::<usize>();
            let out_alloc = 1024usize;
            let mut dram = DramChannel::new(DramConfig::default(), in_alloc + n * out_alloc);
            let mut assigns = Vec::new();
            let mut cursor = 0usize;
            for (p, s) in streams.iter().enumerate() {
                dram.mem_mut()[cursor..cursor + s.len()].copy_from_slice(s);
                assigns.push(StreamAssignment {
                    in_start: cursor,
                    in_len: s.len(),
                    out_start: in_alloc + p * out_alloc,
                    out_capacity: out_alloc,
                });
                cursor += s.len().div_ceil(BEAT_BYTES) * BEAT_BYTES;
            }
            let unit = CompiledUnit::new(&spec);
            let units = (0..n).map(|_| unit.replicate()).collect();
            ChannelEngine::new(cfg, dram, units, assigns, 8, 8)
        };
        (build(), build(), streams)
    }

    #[test]
    fn worklist_stays_sorted_across_wake_storms() {
        // Aggregate demand (8 B/cycle each) far beyond the 64 B/cycle
        // bus, so units starve, sleep, and wake as bursts drain. The
        // active worklist must remain strictly sorted after every tick,
        // and the run must still be exact vs the naive reference.
        let n = 32;
        let (mut eng, mut naive, streams) = build_storm_engines(n);
        let mut c = 0u64;
        while !eng.done() {
            eng.tick();
            naive.tick_naive();
            assert!(
                eng.active.windows(2).all(|w| w[0] < w[1]),
                "worklist out of order after cycle {c}: {:?}",
                eng.active
            );
            c += 1;
            assert!(c < 1_000_000);
        }
        // `woken_peak` counts units woken within a single cycle — many
        // sleep/wake transitions resolve inside one tick (a unit parks
        // in the eval phase and a controller wakes it the same cycle),
        // so only the engine's own high-water mark sees them.
        assert!(
            eng.ctl.woken_peak >= 2,
            "test never exercised a multi-wake cycle (peak {})",
            eng.ctl.woken_peak
        );
        assert!(naive.done());
        for (p, stream) in streams.iter().enumerate() {
            assert_eq!(&eng.output_bytes(p), stream, "unit {p} diverged from its stream");
            assert_eq!(eng.output_bytes(p), naive.output_bytes(p), "unit {p} diverged");
        }
    }

    #[test]
    fn rerun_matches_bit_for_bit() {
        use fleet_trace::CounterSink;

        let spec = identity_spec();
        let stream: Vec<u8> = (0..900u32).map(|x| (x * 7 + 3) as u8).collect();
        let n = 10;
        let run = || {
            let mut eng = build_engine_with(
                &spec,
                MemCtlConfig::default(),
                n,
                &stream,
                stream.len(),
                CounterSink::new(),
            );
            let cycles = eng.run_channel(1_000_000, None, 1).unwrap();
            (cycles, eng)
        };
        let (first_cycles, first) = run();
        let (cycles, again) = run();
        assert_eq!(cycles, first_cycles, "cycle count diverged");
        assert_eq!(again.stats(), first.stats(), "stats diverged");
        assert_eq!(again.unit_vcycles(), first.unit_vcycles());
        for p in 0..n {
            assert_eq!(again.output_bytes(p), first.output_bytes(p), "unit {p} output diverged");
            assert_eq!(
                again.units()[p].counters(),
                first.units()[p].counters(),
                "unit {p} cycle classes diverged"
            );
        }
        assert_eq!(again.sink(), first.sink(), "trace counters diverged");
    }

    #[test]
    fn open_stream_chunked_run_is_cycle_exact_vs_one_shot() {
        // Feed the same stream in ragged chunks through an open stream
        // (suspend/append/resume) and in one shot: every cycle the open
        // engine executes must be bit-identical, so final cycle counts,
        // stats, and output bytes all match exactly.
        let spec = identity_spec();
        let stream: Vec<u8> = (0..900u32).map(|x| (x * 7 + 3) as u8).collect();

        let mut oneshot = build_engine(&spec, MemCtlConfig::default(), 1, &stream, stream.len());
        let oneshot_cycles = oneshot.run_channel(1_000_000, None, 1).unwrap();

        // Open engine: same geometry, but the input region starts empty.
        let in_alloc = stream.len().div_ceil(BEAT_BYTES) * BEAT_BYTES;
        let out_alloc = stream.len().div_ceil(BEAT_BYTES) * BEAT_BYTES
            + MemCtlConfig::default().burst_bytes;
        let dram = DramChannel::new(DramConfig::default(), in_alloc + out_alloc);
        let assigns = vec![StreamAssignment {
            in_start: 0,
            in_len: 0,
            out_start: in_alloc,
            out_capacity: out_alloc,
        }];
        let units = vec![PuExec::new(&spec)];
        let mut open = ChannelEngine::new(MemCtlConfig::default(), dram, units, assigns, 1, 1);
        open.set_stream_open(0, in_alloc);

        let mut fed = 0usize;
        let mut delivered = 0usize;
        for chunk in [1usize, 63, 64, 200, 17, 300, 255] {
            let chunk = chunk.min(stream.len() - fed);
            open.append_stream(0, &stream[fed..fed + chunk]);
            fed += chunk;
            match open.run_channel_open(1_000_000).unwrap() {
                OpenStep::Suspended(_) => {}
                OpenStep::Done(_) => panic!("finished with the stream still open"),
            }
            // Windowed partial-output delivery: whatever is committed so
            // far must be a prefix of the stream.
            if let Some(part) = open.committed_output_since(0, delivered) {
                let lo = delivered;
                delivered += part.len();
                assert_eq!(part, &stream[lo..delivered], "partial window diverged");
            }
        }
        assert_eq!(fed, stream.len());
        open.close_stream(0).unwrap();
        match open.run_channel_open(1_000_000).unwrap() {
            OpenStep::Done(_) => {}
            OpenStep::Suspended(_) => panic!("suspended after close with all input present"),
        }
        assert_eq!(open.stats().cycles, oneshot_cycles, "cycle counts diverged");
        assert_eq!(open.stats(), oneshot.stats(), "stats diverged");
        assert_eq!(open.output_bytes(0), stream);
        assert_eq!(open.committed_output_len(0), Some(stream.len()));
    }

    #[test]
    fn close_rejects_partial_trailing_token() {
        // 8-bit tokens are always aligned; use a 64-bit unit so a
        // misaligned close is possible.
        let mut u = UnitBuilder::new("Identity64", 64, 64);
        let inp = u.input();
        let nf = u.stream_finished().not_b();
        u.if_(nf, |u| u.emit(inp.clone()));
        let spec = u.build().unwrap();

        let dram = DramChannel::new(DramConfig::default(), 4096);
        let assigns = vec![StreamAssignment {
            in_start: 0,
            in_len: 0,
            out_start: 2048,
            out_capacity: 2048,
        }];
        let units = vec![PuExec::new(&spec)];
        let mut eng = ChannelEngine::new(MemCtlConfig::default(), dram, units, assigns, 8, 8);
        eng.set_stream_open(0, 2048);
        eng.append_stream(0, &[1, 2, 3]); // 3 bytes of an 8-byte token
        let err = eng.close_stream(0).unwrap_err();
        assert_eq!(err.in_len, 3);
        assert_eq!(err.token_bytes, 8);
        assert!(eng.stream_open(0), "failed close must leave the stream open");
        // Topping the token up makes the close legal.
        eng.append_stream(0, &[4, 5, 6, 7, 8]);
        eng.close_stream(0).unwrap();
        let step = eng.run_channel_open(1_000_000).unwrap();
        assert!(matches!(step, OpenStep::Done(_)));
        assert_eq!(eng.output_bytes(0), vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn output_overflow_is_reported() {
        let spec = identity_spec();
        let stream = vec![9u8; 4096];
        // Output capacity far smaller than the stream.
        let in_alloc = stream.len();
        let mut dram = DramChannel::new(DramConfig::default(), 8192 + in_alloc);
        dram.mem_mut()[..stream.len()].copy_from_slice(&stream);
        let assigns = vec![StreamAssignment {
            in_start: 0,
            in_len: stream.len(),
            out_start: in_alloc.div_ceil(64) * 64,
            out_capacity: 256,
        }];
        let units = vec![PuExec::new(&spec)];
        let mut eng =
            ChannelEngine::new(MemCtlConfig::default(), dram, units, assigns, 1, 1);
        for _ in 0..200_000 {
            eng.tick();
            if eng.any_overflow() {
                assert_eq!(eng.overflowed_unit(), Some(0), "culprit unit misattributed");
                return;
            }
        }
        panic!("overflow was not detected");
    }
}
