//! Criterion microbench of the SIMD evaluation plane: one
//! `PackedProg::eval_lanes` sweep at lane widths 1 to 64 versus the
//! equivalent scalar `PackedProg::eval` per lane, across all six paper
//! apps; the narrow `eval_lanes32` plane on two apps that admit it (both
//! staging every lane's state rows, then sweeping); and a resident lane
//! group's whole `PuExecBatch::retire` (instruction sweep over the rows
//! the lanes keep between cycles + guarded-op walk committing them) plus
//! the units' fused clock step, which is what one engine cycle pays per
//! lane group. This is the
//! layer the engine's lane-batched pre-evaluation phase (`simperf`'s
//! headline path) stands on; the differential tests in
//! `fleet-isim`/`fleet-compiler` pin the paths bit-equal, this bench
//! tracks their cost.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use fleet_apps::{App, AppKind};
use fleet_compiler::{CompiledUnit, PuExec, PuExecBatch, PuIn, MAX_LANES};
use fleet_isim::{bytes_to_tokens, PackedProg, SsaProg, UnitState};

const WIDTHS: [usize; 5] = [1, 8, 16, 32, 64];

/// Per-app fixture: the optimized packed program plus per-lane inputs
/// drawn from distinct generated streams, so lane columns diverge.
struct Fixture {
    name: &'static str,
    slots: usize,
    seed: Vec<u64>,
    packed: PackedProg,
    states: Vec<UnitState>,
    inputs: Vec<u64>,
    finished: Vec<bool>,
}

fn fixture(kind: AppKind, lanes: usize) -> Fixture {
    let app = App::new(kind);
    let spec = app.spec();
    let ssa = SsaProg::build(&spec);
    let opt = ssa.optimized(&spec);
    let packed = PackedProg::new(&opt);

    let mut states = Vec::with_capacity(lanes);
    let mut inputs = Vec::with_capacity(lanes);
    for l in 0..lanes {
        let stream = app.gen_stream(l as u64, 256);
        let tokens = bytes_to_tokens(&stream, spec.input_token_bits).expect("whole tokens");
        inputs.push(tokens.get(l).copied().unwrap_or(l as u64));
        states.push(UnitState::reset(&spec));
    }
    Fixture {
        name: app.name(),
        slots: opt.slots(),
        seed: opt.seed_vals(),
        packed,
        states,
        inputs,
        finished: vec![false; lanes],
    }
}

fn bench_lane_eval(c: &mut Criterion) {
    for kind in AppKind::all() {
        let fx = fixture(kind, *WIDTHS.iter().max().unwrap());
        let mut g = c.benchmark_group(format!("lane_eval/{}", fx.name));
        for width in WIDTHS {
            // One "iteration" = `width` virtual-cycle evaluations, so
            // throughput is comparable across widths.
            g.throughput(Throughput::Elements(width as u64));

            // Scalar reference: the per-unit path, `width` times.
            let mut vals = vec![0u64; fx.slots];
            g.bench_function(&format!("scalar_x{width}"), |b| {
                b.iter(|| {
                    for l in 0..width {
                        vals.copy_from_slice(&fx.seed);
                        fx.packed.eval(
                            std::hint::black_box(&fx.states[l]),
                            fx.inputs[l],
                            fx.finished[l],
                            &mut vals,
                        );
                        std::hint::black_box(&vals);
                    }
                })
            });

            // SIMD plane: one sweep over `width` lanes.
            let mut plane = vec![0u64; fx.slots * width];
            for (s, &v) in fx.seed.iter().enumerate() {
                plane[s * width..(s + 1) * width].fill(v);
            }
            let states: Vec<&UnitState> = fx.states[..width].iter().collect();
            g.bench_function(&format!("lanes_x{width}"), |b| {
                b.iter(|| {
                    fx.packed.eval_lanes(
                        std::hint::black_box(&states),
                        &fx.inputs[..width],
                        &fx.finished[..width],
                        width,
                        &mut plane,
                    );
                    std::hint::black_box(&plane);
                })
            });
        }
        g.finish();
    }
}

/// The `u32` plane (`PuExecBatch` picks it whenever every value of the
/// unit fits 32 bits) on a register-heavy app and a tiny one.
fn bench_lane_eval32(c: &mut Criterion) {
    for kind in [AppKind::Smith, AppKind::Regex] {
        let fx = fixture(kind, MAX_LANES);
        assert!(fx.packed.fits_u32(), "{} left the narrow plane", fx.name);
        let mut g = c.benchmark_group(format!("lane_eval32/{}", fx.name));
        for width in [8, MAX_LANES] {
            g.throughput(Throughput::Elements(width as u64));
            let mut plane = vec![0u32; fx.slots * width];
            for (s, &v) in fx.seed.iter().enumerate() {
                plane[s * width..(s + 1) * width].fill(v as u32);
            }
            let states: Vec<&UnitState> = fx.states[..width].iter().collect();
            g.bench_function(&format!("lanes_x{width}"), |b| {
                b.iter(|| {
                    fx.packed.eval_lanes32(
                        std::hint::black_box(&states),
                        &fx.inputs[..width],
                        &fx.finished[..width],
                        width,
                        &mut plane,
                    );
                    std::hint::black_box(&plane);
                })
            });
        }
        g.finish();
    }
}

/// Steps `pu` (untimed) until it again holds a latched token with no
/// evaluation: a stalled lane's emission is accepted, an idle lane is
/// fed its stream's next token.
fn relatch(pu: &mut PuExec, tokens: &[u64], pos: &mut usize) {
    while !pu.lane_pending() {
        let pins = PuIn {
            input_token: tokens[*pos % tokens.len()],
            input_valid: true,
            input_finished: false,
            output_ready: true,
        };
        if pu.tick(&pins).input_ready {
            *pos += 1;
        }
    }
}

/// Untimed: every resident unit left without pending work (a
/// back-pressured lane) leaves, catches up on the scalar path until it
/// holds a latched token again, and rejoins.
fn settle(group: &mut PuExecBatch, pus: &mut [PuExec], streams: &[Vec<u64>], pos: &mut [usize]) {
    let mut leaving = group.leaving();
    while leaving != 0 {
        let l = 63 - leaving.leading_zeros() as usize;
        leaving &= !(1 << l);
        let u = group.ids()[l];
        group.leave(l, &mut pus[u]);
        relatch(&mut pus[u], &streams[u], &mut pos[u]);
        group.join(&mut pus[u], u);
    }
}

/// One engine cycle's worth of PU work for a resident lane group, as
/// `lane_preeval` + `eval_unit` run it: the replicas join a group once,
/// then each iteration times `PuExecBatch::retire` (the instruction
/// sweep over the resident rows on whichever plane the unit admits, then
/// the guarded-op walk committing each retiring lane) and every unit's
/// fused `clock_retired` step, which latches the stream's next token so
/// the lane stays resident. `stalled_half` back-pressures every other
/// lane, which then walks its column and takes a `StallOut`
/// `comb`/`clock`; such lanes leave, catch up and rejoin between
/// iterations, outside the timed section.
fn bench_batch_retire(c: &mut Criterion) {
    for kind in AppKind::all() {
        let app = App::new(kind);
        let spec = app.spec();
        let unit = CompiledUnit::new(&spec);
        let streams: Vec<Vec<u64>> = (0..MAX_LANES)
            .map(|l| {
                let stream = app.gen_stream(l as u64, 256);
                bytes_to_tokens(&stream, spec.input_token_bits).expect("whole tokens")
            })
            .collect();
        let mut g = c.benchmark_group(format!("batch_retire/{}", app.name()));
        for (id, width, ready) in [
            ("lanes_x8", 8, u64::MAX),
            ("lanes_x64", MAX_LANES, u64::MAX),
            ("stalled_half", MAX_LANES, 0x5555_5555_5555_5555),
        ] {
            g.throughput(Throughput::Elements(width as u64));
            let mut pus: Vec<PuExec> = (0..width).map(|_| unit.replicate()).collect();
            let mut pos = vec![0usize; width];
            let mut group = PuExecBatch::for_unit(&pus[0], width);
            for (u, pu) in pus.iter_mut().enumerate() {
                relatch(pu, &streams[u], &mut pos[u]);
                group.join(pu, u);
            }
            g.bench_function(id, |b| {
                b.iter_custom(|iters| {
                    let mut took = Duration::ZERO;
                    for _ in 0..iters {
                        settle(&mut group, &mut pus, &streams, &mut pos);
                        let start = Instant::now();
                        group.retire(ready);
                        for lane in 0..width {
                            let u = group.ids()[lane];
                            let toks = &streams[u];
                            let pins = PuIn {
                                input_token: toks[pos[u] % toks.len()],
                                input_valid: true,
                                input_finished: false,
                                output_ready: (ready >> lane) & 1 != 0,
                            };
                            let pu = &mut pus[u];
                            let out = pu.clock_retired(&mut group, lane, &pins).unwrap_or_else(|| pu.tick(&pins));
                            pos[u] += usize::from(out.input_ready);
                            std::hint::black_box(out);
                        }
                        took += start.elapsed();
                    }
                    took
                })
            });
        }
        g.finish();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_lane_eval, bench_lane_eval32, bench_batch_retire
}
criterion_main!(benches);
