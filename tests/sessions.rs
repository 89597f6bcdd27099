//! Session-ingestion equivalence: chunked streaming through a
//! long-lived session must reproduce the one-shot run bit-for-bit —
//! same output bytes, same cycle count — for ANY partition of the
//! input, on every application.
//!
//! This is the load-bearing invariant of `fleet-session`: the engine
//! suspends between cycles only when a stream lacks a full burst, so
//! where the host cuts the input must be unobservable in the result.

use std::sync::Arc;

use fleet_apps::{App, AppKind};
use fleet_compiler::CompiledUnit;
use fleet_host::arrival::{Arrival, SessionOpen};
use fleet_host::{Host, HostConfig, MixedArrivals, Session, SessionConfig};
use fleet_system::{run_system, Instance, SystemConfig};
use proptest::prelude::*;

const APPS: [AppKind; 6] = [
    AppKind::Json,
    AppKind::IntCode,
    AppKind::Tree,
    AppKind::Smith,
    AppKind::Regex,
    AppKind::Bloom,
];

/// Generates a token-aligned stream for `kind` (apps only promise an
/// approximate length, and session closes must land on a token edge).
fn aligned_stream(app: &App, token: usize, seed: u64, approx: usize) -> Vec<u8> {
    let mut stream = app.gen_stream(seed, approx);
    stream.truncate(stream.len() - stream.len() % token);
    assert!(!stream.is_empty(), "stream collapsed under alignment");
    stream
}

/// Turns raw cut proposals into a sorted, deduplicated partition of
/// `len` bytes (cuts need NOT be token-aligned — only the close is).
fn partition(len: usize, raw_cuts: &[u16]) -> Vec<std::ops::Range<usize>> {
    let mut cuts: Vec<usize> = raw_cuts
        .iter()
        .map(|&c| 1 + c as usize % (len - 1).max(1))
        .collect();
    cuts.push(0);
    cuts.push(len);
    cuts.sort_unstable();
    cuts.dedup();
    cuts.windows(2).map(|w| w[0]..w[1]).collect()
}

fn sys_cfg() -> SystemConfig {
    SystemConfig::f1(1 << 16)
}

/// The core check: run `stream` one-shot, then replay it through a
/// session in `chunks`, and demand identical bytes and cycles.
fn assert_chunking_invisible(
    kind: AppKind,
    stream: &[u8],
    chunks: &[std::ops::Range<usize>],
) {
    let app = App::new(kind);
    let spec = Arc::new(app.spec());

    let report = run_system(&spec, std::slice::from_ref(&stream.to_vec()), &sys_cfg())
        .expect("one-shot run");

    let cfg = SessionConfig {
        streams: 1,
        stream_capacity: stream.len(),
        credit_bytes: stream.len(),
        out_capacity: 1 << 16,
    };
    let inst = Instance::new(1, sys_cfg());
    let mut s = Session::new(1, 0, spec.clone(), cfg, 0);
    let unit = CompiledUnit::new(&s.spec);
    s.bind(inst.open_run(&unit, &[cfg.stream_capacity], cfg.out_capacity));

    let mut now = 1u64;
    for r in chunks {
        s.append(0, stream[r.clone()].to_vec(), now).expect("append");
        // Service after every chunk so the engine genuinely suspends
        // and resumes at each partition point.
        let step = s.service(now, 1).expect("service");
        now += 1 + step.run_us + step.drain_us;
    }
    s.request_close(now);
    let step = s.service(now, 1).expect("close service");
    assert!(step.done, "session must finish once closed");

    assert_eq!(
        s.output(0),
        &report.outputs[0][..],
        "{kind:?}: chunked output diverged"
    );
    assert_eq!(
        s.run().expect("run").cycles(),
        report.cycles,
        "{kind:?}: chunked cycle count diverged"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(18))]

    /// ANY partition of ANY app's stream is invisible: outputs and
    /// cycles match the one-shot run.
    #[test]
    fn any_chunk_partition_matches_one_shot(
        app_ix in 0usize..6,
        seed in any::<u64>(),
        approx in 256usize..2048,
        raw_cuts in proptest::collection::vec(any::<u16>(), 0..=7),
    ) {
        let kind = APPS[app_ix];
        let app = App::new(kind);
        let token = (app.spec().input_token_bits as usize / 8).max(1);
        let stream = aligned_stream(&app, token, seed, approx);
        let chunks = partition(stream.len(), &raw_cuts);
        assert_chunking_invisible(kind, &stream, &chunks);
    }
}

/// Deterministic sweep: every app with a fixed ragged partition —
/// guarantees full coverage even where proptest sampling is unlucky.
#[test]
fn every_app_matches_one_shot() {
    for kind in APPS {
        let app = App::new(kind);
        let token = (app.spec().input_token_bits as usize / 8).max(1);
        let stream = aligned_stream(&app, token, 0xF1EE7 ^ kind as u64, 1200);
        let chunks = partition(stream.len(), &[3, 901, 97, 445, 1100]);
        assert_chunking_invisible(kind, &stream, &chunks);
    }
}

/// End-to-end through the host: a session fed through
/// `serve_arrivals` delivers the one-shot bytes for every app, and the
/// whole report is byte-identical on a rerun.
#[test]
fn host_served_sessions_deliver_one_shot_bytes_on_every_app() {
    for kind in APPS {
        let app = App::new(kind);
        let spec = Arc::new(app.spec());
        let token = (spec.input_token_bits as usize / 8).max(1);
        let stream = aligned_stream(&app, token, 0xCAFE ^ kind as u64, 900);

        let want = run_system(&spec, std::slice::from_ref(&stream), &sys_cfg())
            .expect("one-shot run")
            .outputs
            .remove(0);

        let chunks = partition(stream.len(), &[511, 64, 800]);
        let mut events = vec![Arrival::Open(SessionOpen {
            id: 9,
            tenant: 3,
            spec: spec.clone(),
            cfg: SessionConfig {
                streams: 1,
                stream_capacity: stream.len(),
                credit_bytes: stream.len(),
                out_capacity: 1 << 16,
            },
            at_us: 0,
        })];
        for (i, r) in chunks.iter().enumerate() {
            events.push(Arrival::Append {
                session: 9,
                stream: 0,
                bytes: stream[r.clone()].to_vec(),
                at_us: 10 + 30 * i as u64,
            });
        }
        events.push(Arrival::Close {
            session: 9,
            at_us: 10 + 30 * chunks.len() as u64,
        });

        let mut jsons = Vec::new();
        for _ in 0..2 {
            let report =
                Host::new(HostConfig::new(1)).serve_arrivals(MixedArrivals::new(events.clone()));
            assert_eq!(report.counters.sessions.completed, 1, "{kind:?}");
            let rec = &report.sessions[0];
            assert_eq!(rec.outcome, "completed", "{kind:?}");
            assert_eq!(
                rec.outputs[0], want,
                "{kind:?}: host-served session output diverged"
            );
            jsons.push(report.to_json());
        }
        assert_eq!(jsons[0], jsons[1], "{kind:?}: report diverged on a rerun");
    }
}
