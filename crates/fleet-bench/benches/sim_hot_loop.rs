//! Criterion benches of the simulator's two hot loops: a single
//! `PuExec` ticked through each paper app, and a small `ChannelEngine`
//! ticked to completion — the microbenchmark companions to the
//! `simperf` binary (S2), for catching hot-path regressions without a
//! full-system run.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fleet_apps::{App, AppKind};
use fleet_compiler::{CompiledUnit, PuExec, PuIn};
use fleet_isim::bytes_to_tokens;
use fleet_system::{build_system_engines, SystemConfig};

/// Ticks one executor over a pre-generated stream with an always-ready
/// consumer: the per-unit cost floor of the fast path.
fn run_unit(unit: &CompiledUnit, tokens: &[u64]) -> u64 {
    let mut pu = PuExec::from_compiled(unit);
    let mut pos = 0usize;
    while !pu.finished() {
        let pins = PuIn {
            input_token: if pos < tokens.len() { tokens[pos] } else { 0 },
            input_valid: pos < tokens.len(),
            input_finished: pos >= tokens.len(),
            output_ready: true,
        };
        let o = pu.tick(&pins);
        if o.input_ready && pins.input_valid {
            pos += 1;
        }
        assert!(pu.cycles() < 100_000_000, "bench unit did not terminate");
    }
    pu.cycles()
}

fn bench_pu_exec_tick(c: &mut Criterion) {
    let mut g = c.benchmark_group("pu_exec_tick");
    for kind in AppKind::all() {
        let app = App::new(kind);
        let stream = app.gen_stream(7, 2048);
        let unit = CompiledUnit::new(&app.spec());
        let tokens = bytes_to_tokens(&stream, app.spec().input_token_bits).unwrap();
        g.throughput(Throughput::Bytes(stream.len() as u64));
        g.bench_function(app.name(), |b| {
            b.iter(|| run_unit(&unit, std::hint::black_box(&tokens)))
        });
    }
    g.finish();
}

fn bench_channel_engine_tick(c: &mut Criterion) {
    let mut g = c.benchmark_group("channel_engine_tick");
    for kind in [AppKind::Json, AppKind::Regex] {
        let app = App::new(kind);
        let pus = 8;
        let streams: Vec<Vec<u8>> =
            (0..pus).map(|p| app.gen_stream(p as u64, 2048)).collect();
        let refs: Vec<&[u8]> = streams.iter().map(|s| s.as_slice()).collect();
        let input_bytes: u64 = streams.iter().map(|s| s.len() as u64).sum();
        let out_cap = app.out_capacity(streams.iter().map(|s| s.len()).max().unwrap());
        let cfg = SystemConfig::f1(out_cap);
        let unit = CompiledUnit::new(&app.spec());
        g.throughput(Throughput::Bytes(input_bytes));
        g.bench_function(app.name(), |b| {
            b.iter(|| {
                let (mut engines, _) = build_system_engines(&unit, &refs, &cfg);
                let mut cycles = 0u64;
                for eng in engines.iter_mut() {
                    cycles += eng.run_channel(100_000_000, None, 1).expect("bench inputs finish");
                }
                cycles
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_pu_exec_tick, bench_channel_engine_tick
}
criterion_main!(benches);
