//! `session_stream`: the engine used incrementally. Long-lived Bloom
//! sessions append heavy-tailed chunks through `Host::serve_arrivals` on
//! two instances: `OpenRun` append/advance quanta, idle eviction and
//! re-admission (more sessions than slot residency), and credit-starved
//! sessions whose appends bounce with backpressure.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use fleet_apps::{App, AppKind};
use fleet_bench::workload::{session_arrivals, SessionLoad};
use fleet_compiler::CompiledUnit;
use fleet_host::{Arrival, Host, HostConfig, MixedArrivals, SessionRecord};
use fleet_lang::UnitSpec;

use super::{f1_serial, layers, p99, put, Rep, Workload};
use crate::metrics::Values;
use crate::spans::Recorder;

fn load(seed: u64) -> SessionLoad {
    SessionLoad {
        sessions: 256,
        tenants: 16,
        seed,
        chunks_per_session: 5,
        min_chunk: 16,
        max_chunk: 4096,
        open_gap_us: 2,
        chunk_gap_us: 40,
        credit_bytes: 1 << 16,
        starve_every: 7,
    }
}

fn host_config() -> HostConfig {
    let mut cfg = HostConfig::new(2);
    cfg.session_idle_evict_us = 200;
    cfg.system = f1_serial(cfg.system.out_capacity);
    cfg
}

/// The `session_stream` workload.
pub struct SessionStream {
    app: App,
    spec: Arc<UnitSpec>,
    events: Vec<Arrival>,
    /// Chunks each session tries to append, in order.
    chunks: BTreeMap<u64, Vec<Vec<u8>>>,
    /// Reference output of each session with every chunk accepted.
    expect_all: BTreeMap<u64, Vec<u8>>,
}

impl SessionStream {
    /// Generates the session timeline and the reference outputs.
    pub fn new(seed: u64, rec: &mut Recorder) -> SessionStream {
        let app = App::new(AppKind::Bloom);
        let events = rec.span("apps.gen_stream", "", |_| session_arrivals(&load(seed), &app));
        let spec = Arc::new(rec.span("lang.spec_build", "", |_| app.spec()));
        rec.span("compiler.compile", "", |_| drop(CompiledUnit::new(&spec)));
        let mut chunks: BTreeMap<u64, Vec<Vec<u8>>> = BTreeMap::new();
        for event in &events {
            if let Arrival::Append { session, bytes, .. } = event {
                chunks.entry(*session).or_default().push(bytes.clone());
            }
        }
        let expect_all = rec.span("apps.golden", "", |_| {
            chunks.iter().map(|(&id, parts)| (id, app.golden(&parts.concat()))).collect()
        });
        SessionStream { app, spec, events, chunks, expect_all }
    }

    /// Whether a session's output is the reference output of the chunks
    /// it accepted. A credit-starved session bounces some appends, and
    /// the record says only how many chunks and bytes got in, so any
    /// in-order subset with that count and size is tried.
    fn output_is_right(&self, rec: &SessionRecord) -> bool {
        let Some(parts) = self.chunks.get(&rec.id) else {
            return false;
        };
        let [got] = rec.outputs.as_slice() else {
            return false;
        };
        if rec.chunks as usize == parts.len() {
            return got == &self.expect_all[&rec.id];
        }
        (0u32..1 << parts.len()).any(|mask| {
            let kept: Vec<&[u8]> = parts
                .iter()
                .enumerate()
                .filter(|(i, _)| mask >> i & 1 == 1)
                .map(|(_, p)| p.as_slice())
                .collect();
            kept.len() as u64 == rec.chunks
                && kept.iter().map(|p| p.len() as u64).sum::<u64>() == rec.appended_bytes
                && got == &self.app.golden(&kept.concat())
        })
    }
}

impl Workload for SessionStream {
    fn rep(&mut self, rec: &mut Recorder) -> Rep {
        let events = self.events.clone();
        let started = Instant::now();
        let mut host = rec.span("host.new", "", |_| Host::new(host_config()));
        let report = rec
            .span("host.serve_arrivals", "", |_| host.serve_arrivals(MixedArrivals::new(events)));
        let json = rec.span("host.report_json", "", |_| report.to_json());
        let wall_s = started.elapsed().as_secs_f64();

        let offered = self.chunks.len() as u64;
        let sc = &report.counters.sessions;
        let wrong = rec.span("bench.check_outputs", "", |_| {
            report.sessions.iter().filter(|s| !self.output_is_right(s)).count() as u64
        });
        // Every session ends in exactly one reported state.
        let leaked = offered.abs_diff(sc.completed + sc.failed);
        let failed = sc.failed + wrong + leaked + offered.abs_diff(report.sessions.len() as u64);

        let virtual_s = report.makespan_us as f64 / 1e6;
        let latency = report.sessions.iter().map(|s| s.finished_us.saturating_sub(s.opened_us));
        let mut sim = Values::new();
        put(&mut sim, "model_gbps", sc.append_bytes as f64 / virtual_s / 1e9);
        put(&mut sim, "virt_p99_us", p99(latency) as f64);
        put(&mut sim, "virt_goodput_jobs_per_s", sc.completed as f64 / virtual_s);
        put(&mut sim, "session.appends", sc.appends as f64);
        put(&mut sim, "session.advances", sc.advances as f64);
        put(&mut sim, "session.backpressure", sc.backpressure as f64);
        put(&mut sim, "session.evictions", sc.evictions as f64);
        put(&mut sim, "session.readmissions", sc.readmissions as f64);
        let cycles: u64 = report.instances.iter().map(|i| i.busy_cycles).sum();
        put(&mut sim, "memctl.sim_cycles", cycles as f64);
        std::hint::black_box(json);

        Rep { wall_s, cycles, input_bytes: sc.append_bytes, attempted: offered, failed, sim }
    }

    fn layers(&mut self, rec: &mut Recorder, traced_reps: usize, budget_s: f64, out: &mut Values) {
        let reps = traced_reps.max(1) as f64;
        put(out, "host.serve_s", rec.total_s("host.serve_arrivals", None) / reps);
        put(out, "host.report_json_ms", rec.total_s("host.report_json", None) / reps * 1e3);
        let chunks = self.chunks.values().next().expect("at least one session");
        layers::session_ops(&self.spec, chunks, rec, budget_s / 2.0, out);
        layers::system_open_advance(rec, budget_s / 2.0, out);
    }
}
