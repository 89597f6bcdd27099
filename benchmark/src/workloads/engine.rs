//! The three workloads that drive channel engines directly, the way the
//! `simperf` experiment does: `apps_f1` (six paper apps at their F1 PU
//! counts), `mem_read` (drop-all PUs) and `mem_readwrite` (identity PUs).
//! A workload is a list of cases; a pass builds each case's engines, runs
//! every channel to completion on the calling thread, and reads the
//! outputs back.

use std::time::Instant;

use fleet_apps::{micro, App, AppKind};
use fleet_compiler::CompiledUnit;
use fleet_lang::UnitSpec;
use fleet_system::{build_system_engines, run_system, run_system_traced, SystemConfig};
use fleet_trace::{DramCounters, PuCycleCounters};

use super::{f1_serial, layers, mix, p99, put, Rep, Workload, CYCLES_PER_US, MAX_CYCLES};
use crate::metrics::{Values, APPS};
use crate::spans::Recorder;
use crate::stats::sample_median;

/// Input bytes per PU for the paper apps. The decision tree gets its
/// 8 KiB ensemble header on top (as `fig7` and `simperf` give it more).
const APP_BYTES_PER_PU: usize = 2048;
const TREE_HEADER_BYTES: usize = 8192;

/// The two `mem_*` shapes: many PUs (the paper's §7.3 point; PU work is
/// trivial, the controllers are busy) and few PUs (the fixed per-cycle
/// cost of controller + DRAM model + skip logic dominates).
const MEM_SHAPES: [(&str, usize, usize); 2] = [("p512", 512, 16 * 1024), ("p16", 16, 64 * 1024)];

/// One unit replicated over one set of streams.
struct Case {
    /// App short name or shape label; the `detail` of the case's spans.
    label: &'static str,
    spec: UnitSpec,
    unit: CompiledUnit,
    streams: Vec<Vec<u8>>,
    /// Reference output per stream.
    expect: Vec<Vec<u8>>,
    cfg: SystemConfig,
}

/// Sim-clock facts of one case's run.
struct CaseRun {
    /// Σ over channels of engine cycles.
    cycles: u64,
    /// Σ over channels of engine cycles × units on the channel.
    pu_cycles: u64,
    /// Cycles of the slowest channel.
    makespan_cycles: u64,
    skipped: u64,
    input_bytes: u64,
    /// Per stream: cycles until its channel finished.
    finish_cycles: Vec<u64>,
    mismatches: u64,
}

/// `apps_f1`, `mem_read` or `mem_readwrite`.
pub struct EngineWorkload {
    cases: Vec<Case>,
    /// Whether the cases are the paper apps (else the `mem_*` shapes).
    apps: bool,
    /// Sim facts of the latest pass, for [`Workload::layers`].
    last: Vec<CaseRun>,
}

impl EngineWorkload {
    /// The six paper apps at their paper PU counts.
    pub fn apps_f1(seed: u64, rec: &mut Recorder) -> EngineWorkload {
        let cases = AppKind::all()
            .into_iter()
            .zip(APPS)
            .map(|(kind, label)| {
                let app = App::new(kind);
                let bytes = match kind {
                    AppKind::Tree => TREE_HEADER_BYTES + APP_BYTES_PER_PU,
                    _ => APP_BYTES_PER_PU,
                };
                let streams: Vec<Vec<u8>> = rec.span("apps.gen_stream", label, |_| {
                    (0..app.paper_pu_count() as u64)
                        .map(|p| app.gen_stream(mix(seed, kind as u64 * 4096 + p), bytes))
                        .collect()
                });
                let spec = rec.span("lang.spec_build", label, |_| app.spec());
                let unit = rec.span("compiler.compile", label, |_| CompiledUnit::new(&spec));
                let expect = rec.span("apps.golden", label, |_| {
                    streams.iter().map(|s| app.golden(s)).collect()
                });
                let longest = streams.iter().map(Vec::len).max().unwrap_or(0);
                Case {
                    label,
                    spec,
                    unit,
                    streams,
                    expect,
                    cfg: f1_serial(app.out_capacity(longest)),
                }
            })
            .collect();
        EngineWorkload { cases, apps: true, last: Vec::new() }
    }

    /// The §7.3 memory-controller shapes: drop-all units (`write` false,
    /// no output) or identity units (output == input).
    pub fn mem(write: bool, seed: u64, rec: &mut Recorder) -> EngineWorkload {
        let data = App::new(AppKind::Bloom);
        let cases = MEM_SHAPES
            .into_iter()
            .map(|(label, pus, bytes)| {
                // The units ignore stream content, so the seed also
                // varies each stream's length (by up to 1 KiB) to make
                // the simulated cycle counts depend on it.
                let streams: Vec<Vec<u8>> = rec.span("apps.gen_stream", label, |_| {
                    (0..pus as u64)
                        .map(|p| {
                            let salt = mix(seed, bytes as u64 + p);
                            let mut s = data.gen_stream(salt, bytes);
                            s.truncate(bytes - 64 * (salt % 16) as usize);
                            s
                        })
                        .collect()
                });
                let spec = rec.span("lang.spec_build", label, |_| {
                    if write {
                        micro::identity()
                    } else {
                        micro::drop_all()
                    }
                });
                let unit = rec.span("compiler.compile", label, |_| CompiledUnit::new(&spec));
                let expect = if write { streams.clone() } else { vec![Vec::new(); streams.len()] };
                let out_capacity = if write { bytes + 256 } else { 64 };
                Case { label, spec, unit, streams, expect, cfg: f1_serial(out_capacity) }
            })
            .collect();
        EngineWorkload { cases, apps: false, last: Vec::new() }
    }
}

/// Builds the case's engines, runs every channel, reads the outputs back
/// (all timed into `wall_s`), then checks them.
fn run_case(case: &Case, rec: &mut Recorder, wall_s: &mut f64) -> CaseRun {
    let refs: Vec<&[u8]> = case.streams.iter().map(Vec::as_slice).collect();
    let started = Instant::now();
    let (mut engines, maps) = rec.span("system.build_engines", case.label, |_| {
        build_system_engines(&case.unit, &refs, &case.cfg)
    });
    for eng in engines.iter_mut() {
        rec.span("memctl.run_channel", case.label, |_| {
            eng.run_channel(MAX_CYCLES, None, 1).expect("benchmark inputs never overflow or hang")
        });
    }
    let outputs: Vec<Vec<u8>> = rec.span("system.collect_output", case.label, |_| {
        let mut outputs = vec![Vec::new(); refs.len()];
        for (eng, map) in engines.iter().zip(&maps) {
            for (k, &stream) in map.iter().enumerate() {
                outputs[stream] = eng.output_bytes(k);
            }
        }
        outputs
    });
    *wall_s += started.elapsed().as_secs_f64();

    let mismatches = rec.span("bench.check_outputs", case.label, |_| {
        outputs.iter().zip(&case.expect).filter(|(got, want)| got != want).count() as u64
    });
    let mut run = CaseRun {
        cycles: 0,
        pu_cycles: 0,
        makespan_cycles: 0,
        skipped: 0,
        input_bytes: refs.iter().map(|s| s.len() as u64).sum(),
        finish_cycles: vec![0; refs.len()],
        mismatches,
    };
    for (eng, map) in engines.iter().zip(&maps) {
        let cycles = eng.stats().cycles;
        run.cycles += cycles;
        run.pu_cycles += cycles * map.len() as u64;
        run.makespan_cycles = run.makespan_cycles.max(cycles);
        run.skipped += eng.cycles_skipped();
        for &stream in map {
            run.finish_cycles[stream] = cycles;
        }
    }
    run
}

/// Modelled F1 input throughput of one case, GB/s.
fn model_gbps(run: &CaseRun) -> f64 {
    run.input_bytes as f64 / (run.makespan_cycles as f64 / (CYCLES_PER_US * 1e6)) / 1e9
}

impl Workload for EngineWorkload {
    fn rep(&mut self, rec: &mut Recorder) -> Rep {
        let mut wall_s = 0.0;
        let runs: Vec<CaseRun> =
            self.cases.iter().map(|case| run_case(case, rec, &mut wall_s)).collect();

        let sum = |f: fn(&CaseRun) -> u64| runs.iter().map(f).sum::<u64>();
        let cycles = sum(|r| r.cycles);
        let streams = sum(|r| r.finish_cycles.len() as u64);
        // Cases run back to back on the one modelled board, so a stream's
        // result is ready when its channel finishes, after every case
        // before its own.
        let virtual_s = sum(|r| r.makespan_cycles) as f64 / (CYCLES_PER_US * 1e6);
        let mut finish = Vec::new();
        let mut case_start = 0;
        for r in &runs {
            finish.extend(r.finish_cycles.iter().map(|c| case_start + c));
            case_start += r.makespan_cycles;
        }

        let mut sim = Values::new();
        let gbps = if self.apps {
            // Geometric mean over the six apps, as Fig. 7 is read.
            (runs.iter().map(|r| model_gbps(r).ln()).sum::<f64>() / runs.len() as f64).exp()
        } else {
            // The 512-PU shape is the paper's §7.3 measurement.
            model_gbps(&runs[0])
        };
        put(&mut sim, "model_gbps", gbps);
        put(&mut sim, "virt_p99_us", p99(finish) as f64 / CYCLES_PER_US);
        put(&mut sim, "virt_goodput_jobs_per_s", streams as f64 / virtual_s);
        put(&mut sim, "memctl.sim_cycles", cycles as f64);
        put(&mut sim, "memctl.cycles_skipped_share", sum(|r| r.skipped) as f64 / cycles as f64);

        let rep = Rep {
            wall_s,
            cycles,
            input_bytes: sum(|r| r.input_bytes),
            attempted: streams,
            failed: sum(|r| r.mismatches),
            sim,
        };
        self.last = runs;
        rep
    }

    fn layers(&mut self, rec: &mut Recorder, traced_reps: usize, budget_s: f64, out: &mut Values) {
        let reps = traced_reps.max(1) as f64;
        let per_rep = |name: &str, detail: Option<&str>| rec.total_s(name, detail) / reps;
        let run_s = per_rep("memctl.run_channel", None);
        let cycles: u64 = self.last.iter().map(|r| r.cycles).sum();
        put(out, "memctl.run_channel_s", run_s);
        put(out, "memctl.ns_per_cycle", run_s * 1e9 / cycles as f64);
        // Per PU-cycle: the mean over the six apps of each app's cost, so
        // every app weighs the same (pooled, the input sizes would set
        // the weights: the decision tree's 10 KiB streams alone make 39 %
        // of the PU-cycles), or the 512-PU shape: the 16-PU shape's cost
        // is per cycle, not per PU (`fixed_ns_per_cycle`).
        let pu_cases = if self.apps { &self.cases[..] } else { &self.cases[..1] };
        let ns_sum: f64 = pu_cases
            .iter()
            .zip(&self.last)
            .map(|(c, r)| per_rep("memctl.run_channel", Some(c.label)) * 1e9 / r.pu_cycles as f64)
            .sum();
        put(out, "memctl.ns_per_pu_cycle", ns_sum / pu_cases.len() as f64);
        put(out, "system.build_engines_s", per_rep("system.build_engines", None));
        put(out, "system.collect_output_s", per_rep("system.collect_output", None));
        for (case, run) in self.cases.iter().zip(&self.last) {
            let case_s = per_rep("memctl.run_channel", Some(case.label));
            if self.apps {
                let name = format!("memctl.kcycles_per_s.{}", case.label);
                put(out, &name, run.cycles as f64 / 1e3 / case_s);
            } else if case.label == "p16" {
                put(out, "memctl.fixed_ns_per_cycle", case_s * 1e9 / run.cycles as f64);
            }
        }

        // The crates' own counter sinks: PU cycle classes and DRAM
        // counters, summed over the apps (or taken at the 512-PU shape).
        let mut pu = PuCycleCounters::default();
        let mut dram = DramCounters::default();
        let mut bus = 0.0;
        for case in pu_cases {
            let report = rec.span("system.run_system_traced", case.label, |_| {
                run_system_traced(&case.spec, &case.streams, &case.cfg)
                    .expect("benchmark inputs never overflow or hang")
            });
            let trace = report.trace.expect("traced runs carry a trace");
            let (t, d) = (trace.total_counters(), trace.dram_totals());
            pu.busy += t.busy;
            pu.stall_in += t.stall_in;
            pu.stall_out += t.stall_out;
            pu.drained += t.drained;
            dram.row_hits += d.row_hits;
            dram.row_misses += d.row_misses;
            dram.turnaround_cycles += d.turnaround_cycles;
            dram.refresh_stall_cycles += d.refresh_stall_cycles;
            bus += trace.bus_utilization() / pu_cases.len() as f64;
        }
        let share = |part: u64, whole: u64| part as f64 / whole.max(1) as f64;
        put(out, "memctl.pu_busy_share", share(pu.busy, pu.total()));
        put(out, "memctl.pu_stall_in_share", share(pu.stall_in, pu.total()));
        put(out, "memctl.pu_stall_out_share", share(pu.stall_out, pu.total()));
        put(out, "axi.row_hit_share", share(dram.row_hits, dram.row_hits + dram.row_misses));
        put(out, "axi.turnaround_cycles", dram.turnaround_cycles as f64);
        put(out, "axi.refresh_stall_cycles", dram.refresh_stall_cycles as f64);
        put(out, "axi.bus_utilization", bus);

        if self.apps {
            // "Zero cost when off": the same system run with and without
            // the counter sink, on the Bloom case.
            let bloom = self.cases.last().expect("six cases");
            let time = |traced: bool, rec: &mut Recorder| {
                let name = if traced { "trace.counter_sink_on" } else { "trace.counter_sink_off" };
                sample_median(budget_s / 4.0, || {
                    let t = Instant::now();
                    rec.span(name, bloom.label, |_| {
                        let run = if traced { run_system_traced } else { run_system };
                        run(&bloom.spec, &bloom.streams, &bloom.cfg)
                            .expect("benchmark inputs never overflow or hang");
                    });
                    t.elapsed().as_secs_f64()
                })
            };
            let (off, on) = (time(false, rec), time(true, rec));
            put(out, "trace.counter_sink_overhead", on / off);
            layers::isim(rec, budget_s, out);
        } else {
            layers::axi_dram_tick(rec, budget_s, out);
        }
    }
}
