//! Isolated layer drives: one public operation of one crate in a loop,
//! timed from outside, so a traced run can say what a layer costs apart
//! from the workload around it. Each drive is a sibling span in the trace.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use fleet_apps::{micro, App, AppKind};
use fleet_axi::{DramChannel, DramConfig, BEAT_BYTES};
use fleet_compiler::CompiledUnit;
use fleet_host::{
    pack_batch_policy, CostModel, Job, PolicyKind, Predictor, Session, SessionConfig, SubmitQueue,
};
use fleet_isim::{bytes_to_tokens, Interpreter, PackedProg, SsaProg, UnitState};
use fleet_lang::UnitSpec;
use fleet_system::{max_units, run_system_compiled, Instance};
use fleet_trace::SchedCounters;

use super::{f1_serial, put, CYCLES_PER_US};
use crate::metrics::{Values, APPS};
use crate::spans::Recorder;
use crate::stats::{median, ns_per_op, sample_median};

/// Lane width of the engine's batched PU evaluation on the F1 config.
const LANES: usize = 64;

/// `isim.eval_lanes64_ns_per_lane.<app>` — one `PackedProg::eval_lanes`
/// sweep at width 64 on the fixture `benches/lane_eval.rs` uses (lane
/// inputs from distinct generated streams, so lane columns diverge) — and
/// `isim.interp_mb_per_s`, the reference interpreter over one 2 KiB
/// stream per app.
pub fn isim(rec: &mut Recorder, budget_s: f64, out: &mut Values) {
    let mut interp_bytes = 0usize;
    let mut interp_s = 0.0;
    for (kind, label) in AppKind::all().into_iter().zip(APPS) {
        let app = App::new(kind);
        let spec = app.spec();
        let opt = SsaProg::build(&spec).optimized(&spec);
        let packed = PackedProg::new(&opt);
        let states: Vec<UnitState> = (0..LANES).map(|_| UnitState::reset(&spec)).collect();
        let state_refs: Vec<&UnitState> = states.iter().collect();
        let inputs: Vec<u64> = (0..LANES)
            .map(|l| {
                let stream = app.gen_stream(l as u64, 256);
                let tokens = bytes_to_tokens(&stream, spec.input_token_bits).expect("whole tokens");
                tokens.get(l).copied().unwrap_or(l as u64)
            })
            .collect();
        let finished = vec![false; LANES];
        let mut plane = vec![0u64; opt.slots() * LANES];
        for (s, &v) in opt.seed_vals().iter().enumerate() {
            plane[s * LANES..(s + 1) * LANES].fill(v);
        }
        let ns = rec.span("isim.eval_lanes", label, |_| {
            ns_per_op(budget_s / 12.0, || {
                for _ in 0..256 {
                    packed.eval_lanes(
                        black_box(&state_refs),
                        &inputs,
                        &finished,
                        LANES,
                        &mut plane,
                    );
                    black_box(&plane);
                }
                256 * LANES as u64
            })
        });
        put(out, &format!("isim.eval_lanes64_ns_per_lane.{label}"), ns);

        let stream = app.gen_stream(1, 2048);
        let tokens = bytes_to_tokens(&stream, spec.input_token_bits).expect("whole tokens");
        interp_bytes += stream.len();
        interp_s += rec.span("isim.interp", label, |_| {
            sample_median(budget_s / 12.0, || {
                let t = Instant::now();
                black_box(
                    Interpreter::run_tokens(&spec, black_box(&tokens)).expect("apps run clean"),
                );
                t.elapsed().as_secs_f64()
            })
        });
    }
    put(out, "isim.interp_mb_per_s", interp_bytes as f64 / 1e6 / interp_s);
}

/// `axi.dram_tick_ns`: a standalone `DramChannel` kept saturated with
/// back-to-back 64-beat reads (as `mem_abs::measured_peak` drives it),
/// wall nanoseconds per `tick`.
pub fn axi_dram_tick(rec: &mut Recorder, budget_s: f64, out: &mut Values) {
    const MEM: usize = 8 << 20;
    const BURST: usize = 64 * BEAT_BYTES;
    let ns = rec.span("axi.dram_tick", "", |_| {
        ns_per_op(budget_s, || {
            let mut ch = DramChannel::new(DramConfig::default(), MEM);
            let (mut addr, mut tag, ticks) = (0usize, 0u32, 50_000u64);
            for _ in 0..ticks {
                while ch.can_accept_read() && addr + BURST <= MEM {
                    ch.push_read(tag, addr, 64);
                    tag = tag.wrapping_add(1);
                    addr = (addr + BURST) % (MEM - BURST);
                }
                black_box(ch.pop_read_beat());
                ch.tick();
            }
            ticks
        })
    });
    put(out, "axi.dram_tick_ns", ns);
}

/// `system.batch_overhead_us` — the fixed cost of one `run_system_compiled`
/// batch: 64 drop-all PUs fed one 64-byte beat each, so simulation is
/// negligible and what is left is channel threads, engine build, DRAM
/// image allocation, output collection and the report — and
/// `system.max_units_us`, the area fit `Host` does once per spec.
pub fn system_batch(rec: &mut Recorder, budget_s: f64, out: &mut Values) {
    let unit = CompiledUnit::new(&micro::drop_all());
    let streams = vec![[0x5au8; BEAT_BYTES]; 64];
    let refs: Vec<&[u8]> = streams.iter().map(|s| s.as_slice()).collect();
    let cfg = f1_serial(64);
    let ns = rec.span("system.batch_overhead", "", |_| {
        ns_per_op(budget_s / 2.0, || {
            for _ in 0..16 {
                black_box(run_system_compiled(&unit, &refs, &cfg).expect("drop-all runs clean"));
            }
            16
        })
    });
    put(out, "system.batch_overhead_us", ns / 1e3);

    let specs: Vec<UnitSpec> = AppKind::all().into_iter().map(|k| App::new(k).spec()).collect();
    let ns = rec.span("system.max_units", "", |_| {
        ns_per_op(budget_s / 2.0, || {
            for spec in &specs {
                black_box(max_units(spec, &cfg.platform, &cfg.memctl));
            }
            specs.len() as u64
        })
    });
    put(out, "system.max_units_us", ns / 1e3);
}

/// `system.open_advance_us`: an `OpenRun` of 16 Bloom streams fed one
/// 2 KiB block per stream per quantum; wall µs per append-all + `advance`.
pub fn system_open_advance(rec: &mut Recorder, budget_s: f64, out: &mut Values) {
    const QUANTA: usize = 4;
    let app = App::new(AppKind::Bloom);
    let unit = CompiledUnit::new(&app.spec());
    let blocks: Vec<Vec<u8>> = (0..16).map(|s| app.gen_stream(s, 2048)).collect();
    let inst = Instance::new(0, f1_serial(4096));
    let quantum_s = rec.span("system.open_advance", "", |_| {
        sample_median(budget_s, || {
            let mut run = inst.open_run(&unit, &[QUANTA * 2048; 16], 4096);
            let t = Instant::now();
            for _ in 0..QUANTA {
                for (s, block) in blocks.iter().enumerate() {
                    run.append(s, block);
                }
                black_box(run.advance().expect("open bloom run advances"));
            }
            t.elapsed().as_secs_f64() / QUANTA as f64
        })
    });
    put(out, "system.open_advance_us", quantum_s * 1e6);
}

/// `host.queue_op_ns`, `host.pack_batch_us` and `host.predict_ns`: the
/// scheduler's building blocks on the workload's own job list, outside
/// `Host::serve`.
pub fn host_blocks(jobs: &[Job], rec: &mut Recorder, budget_s: f64, out: &mut Values) {
    let deadline = |j: &Job| j.deadline_us.unwrap_or(u64::MAX);

    // Submit and release 64 jobs at a time: the depth a serve sees.
    let ns = rec.span("host.queue_op", "", |_| {
        sample_median(budget_s / 3.0, || {
            let mut pending = jobs.to_vec();
            let mut queue = SubmitQueue::new(64);
            let t = Instant::now();
            while !pending.is_empty() {
                for job in pending.drain(..pending.len().min(64)) {
                    let at = job.arrival_us;
                    queue.submit(job, at).expect("benchmark jobs are well-formed");
                }
                while let Some(job) = queue.pop_priority(None, &mut |j| deadline(j)) {
                    black_box(job);
                }
            }
            t.elapsed().as_secs_f64() * 1e9 / jobs.len() as f64
        })
    });
    put(out, "host.queue_op_ns", ns);

    let policy = PolicyKind::Edf.build();
    let predictor = Predictor::new((CYCLES_PER_US * 1e6) as u64);
    let model = CostModel {
        pack_us_fixed: 5,
        pack_us_per_stream: 1,
        drain_us_per_kib: 1,
        defer_cap_us: 300,
    };
    let us = rec.span("host.pack_batch", "", |_| {
        sample_median(budget_s / 3.0, || {
            let mut queue = SubmitQueue::new(jobs.len());
            for job in jobs {
                queue.submit(job.clone(), 0).expect("benchmark jobs are well-formed");
            }
            let (mut counters, mut rejected) = (SchedCounters::default(), Vec::new());
            let mut batches = 0u64;
            let t = Instant::now();
            while let Some(batch) = pack_batch_policy(
                &mut queue,
                0,
                &mut |_| 64,
                64,
                &*policy,
                &predictor,
                &model,
                &mut counters,
                &mut rejected,
            ) {
                black_box(batch);
                batches += 1;
            }
            t.elapsed().as_secs_f64() * 1e6 / batches.max(1) as f64
        })
    });
    put(out, "host.pack_batch_us", us);

    let ns = rec.span("host.predict", "", |_| {
        ns_per_op(budget_s / 3.0, || {
            let mut predictor = Predictor::new((CYCLES_PER_US * 1e6) as u64);
            for (i, job) in jobs.iter().enumerate() {
                let bytes = job.input_bytes();
                let run_us = predictor.predict_run_us(&job.spec_key, &job.spec, bytes);
                predictor.observe(
                    i as u64,
                    0,
                    &job.spec_key,
                    &job.spec,
                    bytes,
                    run_us,
                    bytes,
                    bytes / 4,
                );
                if i % 16 == 15 {
                    predictor.apply_due(i as u64);
                }
            }
            jobs.len() as u64
        })
    });
    put(out, "host.predict_ns", ns);
}

/// `session.append_ns` and `session.service_us`: a `Session` bound to a
/// standalone `OpenRun`, fed `chunks` one per service quantum.
pub fn session_ops(
    spec: &Arc<UnitSpec>,
    chunks: &[Vec<u8>],
    rec: &mut Recorder,
    budget_s: f64,
    out: &mut Values,
) {
    let unit = CompiledUnit::new(spec);
    let total: usize = chunks.iter().map(Vec::len).sum();
    let cfg = SessionConfig {
        streams: 1,
        stream_capacity: total,
        credit_bytes: total,
        out_capacity: 2 * total.max(512),
    };
    let inst = Instance::new(0, f1_serial(cfg.out_capacity));
    let mut service_us = Vec::new();
    let append_ns = rec.span("session.ops", "", |_| {
        sample_median(budget_s, || {
            let mut session = Session::new(0, 0, spec.clone(), cfg, 0);
            session.bind(inst.open_run(&unit, &[cfg.stream_capacity], cfg.out_capacity));
            let mut pending = chunks.to_vec();
            let (mut append_s, mut service_s) = (0.0, 0.0);
            for (now, chunk) in pending.drain(..).enumerate() {
                let t = Instant::now();
                session.append(0, chunk, now as u64).expect("credit covers every chunk");
                append_s += t.elapsed().as_secs_f64();
                let t = Instant::now();
                black_box(session.service(now as u64, 1).expect("open bloom run advances"));
                service_s += t.elapsed().as_secs_f64();
            }
            service_us.push(service_s * 1e6 / chunks.len() as f64);
            append_s * 1e9 / chunks.len() as f64
        })
    });
    put(out, "session.append_ns", append_ns);
    put(out, "session.service_us", median(&service_us));
}
