//! End-to-end system tests: every application through the full modelled
//! platform (units + memory controllers + DRAM on all four channels),
//! outputs compared to the golden reference stream by stream.

use fleet_apps::{micro, App, AppKind};
use fleet_compiler::CompiledUnit;
use fleet_system::{build_system_engines, run_system, SystemConfig};

#[test]
fn every_app_survives_the_full_memory_system() {
    for kind in AppKind::all() {
        let app = App::new(kind);
        let spec = app.spec();
        let n_units = 12;
        let per_pu = match kind {
            AppKind::Bloom => 2048,
            AppKind::Tree => 12_000,
            _ => 3000,
        };
        let streams: Vec<Vec<u8>> =
            (0..n_units).map(|p| app.gen_stream(p as u64, per_pu)).collect();
        let out_cap = app.out_capacity(streams.iter().map(|s| s.len()).max().unwrap());
        let report = run_system(&spec, &streams, &SystemConfig::f1(out_cap))
            .unwrap_or_else(|e| panic!("{}: {e}", app.name()));
        for (i, s) in streams.iter().enumerate() {
            assert_eq!(
                report.outputs[i],
                app.golden(s),
                "{}: stream {i} corrupted through the memory system",
                app.name()
            );
        }
        assert!(report.input_gbps() > 0.0);
        // Conservation: every input byte was delivered to some unit.
        let delivered: u64 = report.channel_stats.iter().map(|s| s.input_bytes).sum();
        assert_eq!(delivered, report.input_bytes, "{}: input conservation", app.name());
    }
}

#[test]
fn throughput_scales_with_unit_count_until_memory_bound() {
    // Regex is compute-light: per-unit throughput is 1 B/cycle, so the
    // aggregate should rise with units until the 64 B/cycle/channel bus
    // saturates.
    let app = App::new(AppKind::Regex);
    let spec = app.spec();
    let mut last = 0.0;
    for n in [8usize, 32, 128] {
        let streams: Vec<Vec<u8>> = (0..n).map(|p| app.gen_stream(p as u64, 4096)).collect();
        let report = run_system(&spec, &streams, &SystemConfig::f1(4096)).expect("run");
        let gbps = report.input_gbps();
        assert!(
            gbps > last * 1.5,
            "throughput should scale: {gbps:.2} GB/s at {n} units after {last:.2}"
        );
        last = gbps;
    }
}

#[test]
fn uneven_stream_sizes_all_complete() {
    // The paper notes streams should be similar in size for load
    // balance; correctness must hold regardless.
    let app = App::new(AppKind::Regex);
    let spec = app.spec();
    let streams: Vec<Vec<u8>> = (0..9)
        .map(|p| app.gen_stream(p as u64, 500 + 700 * p as usize))
        .collect();
    let report = run_system(&spec, &streams, &SystemConfig::f1(16 * 1024)).expect("run");
    for (i, s) in streams.iter().enumerate() {
        assert_eq!(report.outputs[i], app.golden(s), "stream {i}");
    }
}

#[test]
fn single_stream_single_unit_works() {
    let app = App::new(AppKind::Smith);
    let spec = app.spec();
    let stream = app.gen_stream(1, 2000);
    let report =
        run_system(&spec, std::slice::from_ref(&stream), &SystemConfig::f1(4096)).expect("run");
    assert_eq!(report.outputs[0], app.golden(&stream));
}

#[test]
fn run_channel_equals_a_manual_tick_loop() {
    // The one run loop adds the event-driven clock, the budget and the
    // watchdog around `tick()`; none of that may show, on a unit that
    // emits every token (Identity) or one that emits only at end of
    // stream (Bloom). Both runs skip cycles a manual loop ticks through.
    let bloom = App::new(AppKind::Bloom);
    let cases = [
        (micro::identity(), (0..9u8).map(|p| vec![p; 700 + 90 * p as usize]).collect::<Vec<_>>(), 2048),
        (
            bloom.spec(),
            (0..9).map(|p| bloom.gen_stream(p, 2048)).collect(),
            bloom.out_capacity(4096),
        ),
    ];
    for (spec, streams, out_cap) in cases {
        let unit = CompiledUnit::new(&spec);
        let refs: Vec<&[u8]> = streams.iter().map(|s| s.as_slice()).collect();
        let cfg = SystemConfig::f1(out_cap);
        let (mut driven, _) = build_system_engines(&unit, &refs, &cfg);
        let (mut ticked, _) = build_system_engines(&unit, &refs, &cfg);
        for (c, (d, t)) in driven.iter_mut().zip(&mut ticked).enumerate() {
            let cycles = d.run_channel(cfg.max_cycles, None, 1).expect("run_channel");
            while !t.done() {
                t.tick();
            }
            assert!(d.cycles_skipped() > 0 && t.cycles_skipped() == 0, "{}: channel {c}", spec.name);
            assert_eq!(cycles, t.stats().cycles, "{}: channel {c} cycles", spec.name);
            assert_eq!(d.stats(), t.stats(), "{}: channel {c} stats", spec.name);
            for p in 0..d.len() {
                assert_eq!(
                    d.output_bytes(p),
                    t.output_bytes(p),
                    "{}: channel {c} unit {p} output",
                    spec.name
                );
            }
        }
    }
}
