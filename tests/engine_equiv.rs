//! Cycle-exactness of the simulator fast path, per `DESIGN.md`.
//!
//! The fast drive ([`ChannelEngine::run_channel`]: quiescence-skipping
//! [`ChannelEngine::tick`]s, lane batching and the event-driven clock)
//! and the naive reference [`ChannelEngine::tick_naive`] (every unit evaluated
//! every cycle through the seed-faithful reference program) must be
//! indistinguishable in everything except wall-clock cost: same cycle
//! count, same output bytes, same aggregate stats, same per-PU cycle
//! classification, same virtual-cycle counts, same trace-sink totals.
//! `simperf`'s speedup claims rest on this equivalence, so it is
//! property-tested across all six paper apps with randomized streams
//! and unit counts, and across a grid of lane widths.

use fleet_apps::{App, AppKind};
use fleet_compiler::{CompiledUnit, PuExec};
use fleet_memctl::{ChannelEngine, EngineRunError, EngineStats};
use fleet_system::{build_system_engines_traced, FaultPlan, SystemConfig};
use fleet_trace::{CounterSink, PuCycleCounters};
use proptest::prelude::*;

/// Safety cap: every randomized configuration must converge far below
/// this many cycles per channel.
const MAX_CYCLES: u64 = 50_000_000;

type TracedEngine = ChannelEngine<PuExec, CounterSink>;

/// Everything observable about one channel after a completed run.
struct ChannelObs {
    stats: EngineStats,
    vcycles: Vec<Option<u64>>,
    overflow: Option<usize>,
    outputs: Vec<Vec<u8>>,
    counters: Vec<PuCycleCounters>,
    trace: CounterSink,
}

/// Drives every channel to completion with the naive reference tick.
fn drive_naive(engines: &mut [TracedEngine]) {
    for eng in engines.iter_mut() {
        while !eng.done() {
            eng.tick_naive();
            assert!(eng.stats().cycles < MAX_CYCLES, "engine did not converge");
        }
    }
}

/// Drives every channel to completion through `run_channel`.
fn drive_fast(engines: &mut [TracedEngine]) {
    for eng in engines.iter_mut() {
        eng.run_channel(MAX_CYCLES, None, 1).expect("engine run failed");
    }
}

/// Snapshots every observable of every channel (flushing lazy trace
/// accounting first).
fn observe(engines: &mut [TracedEngine]) -> Vec<ChannelObs> {
    engines
        .iter_mut()
        .map(|eng| {
            eng.flush_trace();
            ChannelObs {
                stats: eng.stats(),
                vcycles: eng.unit_vcycles(),
                overflow: eng.overflowed_unit(),
                outputs: (0..eng.len()).map(|p| eng.output_bytes(p)).collect(),
                counters: eng.units().iter().map(|u| u.counters()).collect(),
                trace: eng.sink().clone(),
            }
        })
        .collect()
}

/// Asserts two observation sets are identical, naming the first
/// observable that diverges.
fn assert_obs_eq(label: &str, want: &[ChannelObs], got: &[ChannelObs]) {
    assert_eq!(want.len(), got.len(), "{label}: channel count diverges");
    for (c, (w, g)) in want.iter().zip(got.iter()).enumerate() {
        assert_eq!(w.stats, g.stats, "{label}: channel {c} stats diverge");
        assert_eq!(w.vcycles, g.vcycles, "{label}: channel {c} virtual-cycle counts diverge");
        assert_eq!(w.overflow, g.overflow, "{label}: channel {c} overflow attribution diverges");
        for p in 0..w.outputs.len() {
            assert_eq!(
                w.outputs[p], g.outputs[p],
                "{label}: channel {c} unit {p} output bytes diverge"
            );
            assert_eq!(
                w.counters[p], g.counters[p],
                "{label}: channel {c} unit {p} cycle classification diverges"
            );
        }
        assert_eq!(w.trace, g.trace, "{label}: channel {c} trace-sink totals diverge");
    }
}

/// Builds identical engine sets for the app and asserts the naive
/// reference and the fast drive are observably identical.
fn assert_tick_equivalence(kind: AppKind, seed: u64, pus: usize, approx_bytes: usize) {
    let app = App::new(kind);
    let streams: Vec<Vec<u8>> =
        (0..pus).map(|p| app.gen_stream(seed ^ p as u64, approx_bytes)).collect();
    let refs: Vec<&[u8]> = streams.iter().map(|s| s.as_slice()).collect();
    let out_cap = app.out_capacity(streams.iter().map(|s| s.len()).max().unwrap());
    let cfg = SystemConfig::f1(out_cap);
    let unit = CompiledUnit::new(&app.spec());
    let name = app.name();

    let (mut naive, _) = build_system_engines_traced(&unit, &refs, &cfg);
    drive_naive(&mut naive);
    let reference = observe(&mut naive);

    let (mut engines, _) = build_system_engines_traced(&unit, &refs, &cfg);
    drive_fast(&mut engines);
    let got = observe(&mut engines);
    assert_obs_eq(&format!("{name} fast vs naive"), &reference, &got);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The naive and fast engine drives are observably identical on
    /// all six paper apps for randomized streams, unit counts, and
    /// sizes.
    #[test]
    fn fast_tick_equals_naive_tick(
        seed in any::<u64>(),
        pus in 2usize..=5,
        size_class in 0usize..3,
    ) {
        let approx_bytes = [512, 1024, 2048][size_class];
        for kind in AppKind::all() {
            assert_tick_equivalence(kind, seed, pus, approx_bytes);
        }
    }
}

/// A fixed-seed spot check that runs under plain `cargo test` filters
/// too (proptest shrinks obscure failures; this one fails readably).
#[test]
fn fast_tick_equals_naive_tick_fixed() {
    for kind in AppKind::all() {
        assert_tick_equivalence(kind, 0xF1EE7, 3, 1024);
    }
}

/// Enough units that every DRAM channel holds several, so lane groups
/// form on every channel.
#[test]
fn fast_tick_equals_naive_tick_many_units() {
    for kind in AppKind::all() {
        assert_tick_equivalence(kind, 0x5AADED, 12, 512);
    }
}

/// Lane widths the SIMD evaluation grid sweeps: the degenerate
/// one-lane batch, partial groups, the group-splitting width, and a
/// width wider than any test group ever fills.
const LANE_WIDTHS: [usize; 4] = [1, 4, 8, 16];

/// One naive reference vs the lane-batched fast path across the lane
/// width grid. `lane_width` is a pure wall-clock
/// knob: every cell of the grid must be observably identical to the
/// naive drive, which never batches at all.
fn assert_lane_grid_equivalence(kind: AppKind, seed: u64, pus: usize, approx_bytes: usize) {
    let app = App::new(kind);
    let streams: Vec<Vec<u8>> =
        (0..pus).map(|p| app.gen_stream(seed ^ p as u64, approx_bytes)).collect();
    let refs: Vec<&[u8]> = streams.iter().map(|s| s.as_slice()).collect();
    let out_cap = app.out_capacity(streams.iter().map(|s| s.len()).max().unwrap());
    let cfg = SystemConfig::f1(out_cap);
    let unit = CompiledUnit::new(&app.spec());
    let name = app.name();

    let (mut naive, _) = build_system_engines_traced(&unit, &refs, &cfg);
    drive_naive(&mut naive);
    let reference = observe(&mut naive);

    for width in LANE_WIDTHS {
        let mut wcfg = cfg;
        wcfg.memctl.lane_width = width;
        let (mut engines, _) = build_system_engines_traced(&unit, &refs, &wcfg);
        drive_fast(&mut engines);
        let got = observe(&mut engines);
        assert_obs_eq(&format!("{name} @ lane width {width} vs naive"), &reference, &got);
    }
}

/// The lane width grid on all six apps: stats, outputs, virtual cycles,
/// and per-PU counters all match the naive reference at every width.
#[test]
fn lane_width_grid_equals_naive() {
    for kind in AppKind::all() {
        assert_lane_grid_equivalence(kind, 0xBA7C4ED, 6, 768);
    }
}

/// Lane groups as wide as the benchmark's: one channel holding 72
/// replicas sweeps a full 64-lane chunk plus an 8-lane remainder at the
/// default width, where the other cases never put more than three
/// units on a channel. The output buffer holds exactly one burst and
/// two burst registers per direction serve all 72 units, so a unit
/// that emits as fast as it reads is back-pressured *inside* a group —
/// retired and stalled lanes share sweeps. (JSON emits too little to
/// ever fill its buffer at this size; it rides along for its divergent
/// emits. Bloom's end-of-stream filter dump stalls every lane at once.)
#[test]
fn wide_lane_groups_equal_naive() {
    const PUS: u64 = 72;
    let app_case = |kind: AppKind, stalls: bool| {
        let app = App::new(kind);
        let gen: Box<dyn Fn(u64) -> Vec<u8>> = Box::new(move |p| app.gen_stream(0x71DE ^ p, 384));
        (app.name(), app.spec(), gen, app.out_capacity(512), stalls)
    };
    let identity: Box<dyn Fn(u64) -> Vec<u8>> =
        Box::new(|p| (0..256 + 4 * p).map(|i| (i * 31 + p * 7) as u8).collect());
    let cases = [
        ("Identity", fleet_apps::micro::identity(), identity, 1024, true),
        app_case(AppKind::Json, false),
        app_case(AppKind::IntCode, true),
        app_case(AppKind::Bloom, true),
    ];
    for (name, spec, gen, out_cap, stalls) in &cases {
        let streams: Vec<Vec<u8>> = (0..PUS).map(gen).collect();
        let refs: Vec<&[u8]> = streams.iter().map(|s| s.as_slice()).collect();
        let mut cfg = SystemConfig::f1(*out_cap);
        cfg.platform.channels = 1;
        cfg.memctl.lane_width = 64;
        cfg.memctl.output_buffer_bytes = cfg.memctl.burst_bytes;
        cfg.memctl.burst_registers = 2;
        let unit = CompiledUnit::new(spec);

        let (mut naive, _) = build_system_engines_traced(&unit, &refs, &cfg);
        assert_eq!((naive.len(), naive[0].len()), (1, PUS as usize));
        drive_naive(&mut naive);
        let reference = observe(&mut naive);
        let stalled: u64 = reference[0].counters.iter().map(|c| c.stall_out).sum();
        assert_eq!(stalled > 0, *stalls, "{name}: back-pressured for {stalled} PU-cycles");

        let (mut engines, _) = build_system_engines_traced(&unit, &refs, &cfg);
        drive_fast(&mut engines);
        let got = observe(&mut engines);
        assert_obs_eq(&format!("{name} x 72 on one channel"), &reference, &got);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Guard divergence inside one lane group: streams of deliberately
    /// unequal lengths (and independently seeded content) share a lane
    /// group, so some lanes drain and finish while their groupmates
    /// are still streaming — the firing mask fractures mid-run and
    /// data-dependent guards split within a single sweep. The masked
    /// SIMD walk must still be observably identical to the naive
    /// per-unit drive.
    #[test]
    fn divergent_lane_groups_equal_naive(seed in any::<u64>(), len_seed in any::<u64>()) {
        for kind in AppKind::all() {
            let app = App::new(kind);
            // Six units whose stream sizes differ by up to 8x, derived
            // deterministically from `len_seed`.
            let streams: Vec<Vec<u8>> = (0..6u64)
                .map(|p| {
                    let class = (len_seed >> (8 * p)) % 4;
                    app.gen_stream(seed ^ p, 128 << class)
                })
                .collect();
            let refs: Vec<&[u8]> = streams.iter().map(|s| s.as_slice()).collect();
            let out_cap = app.out_capacity(streams.iter().map(|s| s.len()).max().unwrap());
            let cfg = SystemConfig::f1(out_cap);
            let unit = CompiledUnit::new(&app.spec());

            let (mut naive, _) = build_system_engines_traced(&unit, &refs, &cfg);
            drive_naive(&mut naive);
            let reference = observe(&mut naive);

            for width in [4usize, 8] {
                let mut wcfg = cfg;
                wcfg.memctl.lane_width = width;
                let (mut engines, _) = build_system_engines_traced(&unit, &refs, &wcfg);
                drive_fast(&mut engines);
                let got = observe(&mut engines);
                assert_obs_eq(
                    &format!("{} divergent lanes @ width {width}", app.name()),
                    &reference,
                    &got,
                );
            }
        }
    }
}

/// Cycle skipping under fault injection: a plan that wedges some units
/// a few tokens in leaves their channels with no active work once the
/// healthy units drain, so the event-driven clock skips in bulk
/// through the dead window up to the watchdog boundary. The skipping
/// drive must (a) still detect the wedge, (b) agree exactly — error,
/// cycle count, partial outputs, counters — across every lane width,
/// and (c) land on the same state the naive per-cycle
/// drive reaches at the same cycle horizon.
#[test]
fn cycle_skip_respects_wedged_units() {
    let plan = FaultPlan::with_seed(5).wedges(400_000, 4);
    let n = 6usize;
    let wedged: Vec<bool> =
        (0..n as u64).map(|i| plan.wedge_threshold(i).is_some()).collect();
    assert!(wedged.iter().any(|&w| w), "seed must wedge at least one stream");
    assert!(wedged.iter().any(|&w| !w), "seed must leave at least one stream healthy");

    for kind in AppKind::all() {
        let app = App::new(kind);
        let streams: Vec<Vec<u8>> =
            (0..n).map(|p| app.gen_stream(0x3ED6ED ^ p as u64, 512)).collect();
        let refs: Vec<&[u8]> = streams.iter().map(|s| s.as_slice()).collect();
        let out_cap = app.out_capacity(streams.iter().map(|s| s.len()).max().unwrap());
        let mut cfg = SystemConfig::f1(out_cap);
        cfg.fault = plan;
        cfg.watchdog_cycles = 20_000; // keep the dead window test-sized
        let unit = CompiledUnit::new(&app.spec());
        let name = app.name();

        // Reference: the fast drive at the default lane width.
        let (mut fast, _) = build_system_engines_traced(&unit, &refs, &cfg);
        let ref_results: Vec<Result<u64, EngineRunError>> = fast
            .iter_mut()
            .map(|eng| eng.run_channel(MAX_CYCLES, None, 1))
            .collect();
        assert!(
            ref_results
                .iter()
                .any(|r| matches!(r, Err(EngineRunError::Wedged { .. }))),
            "{name}: no channel reported the wedge"
        );
        assert!(
            fast.iter().any(|eng| eng.cycles_skipped() > 0),
            "{name}: the dead window was ticked through instead of skipped"
        );
        let ref_cycles: Vec<u64> = fast.iter().map(|eng| eng.stats().cycles).collect();
        let reference = observe(&mut fast);

        // Every lane width agrees with the reference bit for bit, error
        // included.
        for width in [1usize, 8, 16] {
            let mut wcfg = cfg;
            wcfg.memctl.lane_width = width;
            let (mut engines, _) = build_system_engines_traced(&unit, &refs, &wcfg);
            let results: Vec<Result<u64, EngineRunError>> =
                engines.iter_mut().map(|eng| eng.run_channel(MAX_CYCLES, None, 1)).collect();
            assert_eq!(ref_results, results, "{name} @ lane width {width}: run outcome diverges");
            let got = observe(&mut engines);
            assert_obs_eq(&format!("{name} wedged @ lane width {width}"), &reference, &got);
        }

        // Naive horizon replay: tick the reference drive (no skipping,
        // no batching) to the exact cycle each skipping channel ended
        // on; the skipped spans must account identically.
        let (mut naive, _) = build_system_engines_traced(&unit, &refs, &cfg);
        for (eng, &end) in naive.iter_mut().zip(&ref_cycles) {
            while eng.stats().cycles < end {
                eng.tick_naive();
            }
            assert_eq!(eng.stats().cycles, end, "{name}: naive replay overshot the horizon");
        }
        let got = observe(&mut naive);
        assert_obs_eq(&format!("{name} wedged naive horizon"), &reference, &got);
    }
}
