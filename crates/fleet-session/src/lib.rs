//! # fleet-session — continuous streaming ingestion sessions
//!
//! The batch path (`fleet-host` jobs) requires every input stream to be
//! fully materialized before a run starts. Real streaming services don't
//! work that way: clients open a connection, push chunks as they are
//! produced, and read results incrementally. This crate provides that
//! model on top of the resumable [`OpenRun`] handle from `fleet-system`:
//!
//! * a [`Session`] holds a tenant, a unit spec, and a set of open input
//!   channels; clients [`append`](Session::append) chunks and
//!   [`close`](Session::request_close) streams on a virtual-clock
//!   arrival timeline;
//! * appended chunks are *staged* in bounded per-stream buffers; when
//!   the staged bytes would exceed the session's **credit**, the append
//!   is refused with [`AppendError::Backpressure`] and the chunk is
//!   dropped — the host never buffers unboundedly on behalf of a slow
//!   session;
//! * the serving layer periodically [`service`](Session::service)s the
//!   session on its resident instance: staged chunks drain into the
//!   engine, the simulation advances until it completes or suspends for
//!   more input, and newly committed output windows are delivered.
//!
//! The engine-level suspend/resume invariant (see `DESIGN.md`) makes
//! this exact: a session fed any chunk partitioning of a stream runs
//! the same cycles and produces the same bytes as the equivalent
//! one-shot batch.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::VecDeque;
use std::sync::Arc;

use fleet_lang::UnitSpec;
use fleet_system::{MisalignedClose, OpenRun, OpenStatus};
use fleet_trace::LatencyStats;

/// Unique session identifier, assigned by the client/workload.
pub type SessionId = u64;

/// Shape and flow-control parameters of one session, fixed at open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionConfig {
    /// Open input channels (one replicated unit each).
    pub streams: usize,
    /// Reserved input region per stream, in bytes — the hard ceiling on
    /// total bytes a stream may receive over the session's lifetime.
    pub stream_capacity: usize,
    /// Per-stream staged-byte bound. Appends that would push a stream's
    /// staged (accepted but not yet ingested) bytes past this credit
    /// are refused with [`AppendError::Backpressure`].
    pub credit_bytes: usize,
    /// Output region per stream, in bytes.
    pub out_capacity: usize,
}

/// Why an [`Session::append`] was refused. The chunk is dropped either
/// way; it is the client's job to retry after backpressure clears.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppendError {
    /// The stream's staged bytes would exceed the session credit.
    Backpressure,
    /// The chunk would overrun the stream's reserved input capacity.
    CapacityExceeded,
    /// The session (or this stream) is already closed.
    Closed,
}

/// Lifecycle state of a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Accepting appends.
    Open,
    /// Close requested; remaining staged bytes drain, then the run
    /// finishes.
    Draining,
    /// Run complete, all output delivered.
    Done,
    /// The run failed (overflow, wedge, timeout, misaligned close);
    /// the session is terminal.
    Failed,
}

/// What one [`Session::service`] quantum did, in virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStep {
    /// Simulated run time of this quantum, in microseconds (ceil).
    pub run_us: u64,
    /// Modeled output-drain time for windows delivered this quantum.
    pub drain_us: u64,
    /// Output bytes delivered this quantum across all streams.
    pub delivered_bytes: u64,
    /// Whether the run completed (session is [`SessionState::Done`]).
    pub done: bool,
}

/// Per-session summary exported in the host's `ServiceReport`.
#[derive(Debug, Clone, Default)]
pub struct SessionRecord {
    /// Session id.
    pub id: SessionId,
    /// Owning tenant.
    pub tenant: u32,
    /// Virtual open time (µs).
    pub opened_us: u64,
    /// Virtual finish time (µs).
    pub finished_us: u64,
    /// Chunks accepted.
    pub chunks: u64,
    /// Bytes accepted.
    pub appended_bytes: u64,
    /// Output bytes delivered.
    pub delivered_bytes: u64,
    /// Appends refused for credit or capacity.
    pub backpressure: u64,
    /// Times the session lost residency to idle eviction.
    pub evictions: u64,
    /// Service quanta run.
    pub advances: u64,
    /// `"completed"`, `"failed: .."`, or `"force_closed"`.
    pub outcome: String,
    /// Delivered output per stream (committed windows concatenated in
    /// order) — carried in memory like `CompletedJob::outputs`, never
    /// serialized to JSON.
    pub outputs: Vec<Vec<u8>>,
    /// Chunk arrival → ingestion latency.
    pub ingest: LatencyStats,
    /// Simulated run time per service quantum.
    pub run: LatencyStats,
    /// Modeled drain time per delivering quantum.
    pub drain: LatencyStats,
}

/// One long-lived ingestion session: tenant + spec + open input
/// channels, staged chunks under credit, and (once admitted by the
/// serving layer) a resumable [`OpenRun`].
///
/// The session itself is scheduler-agnostic: it never decides *when* to
/// run. `fleet-host` owns admission, residency, and eviction; tests can
/// drive a session directly by binding an `OpenRun` by hand.
#[derive(Debug)]
pub struct Session {
    /// Session id (unique within a service run).
    pub id: SessionId,
    /// Owning tenant.
    pub tenant: u32,
    /// Unit spec each stream runs through.
    pub spec: Arc<UnitSpec>,
    /// Spec cache key, same format as `Job::spec_key` (interned so the
    /// host's spec-keyed caches share the allocation).
    pub spec_key: Arc<str>,
    cfg: SessionConfig,
    state: SessionState,
    run: Option<OpenRun>,
    /// Staged chunks per stream: (arrival µs, bytes).
    staged: Vec<VecDeque<(u64, Vec<u8>)>>,
    staged_bytes: Vec<usize>,
    /// Total bytes accepted per stream (staged + ingested).
    accepted_bytes: Vec<usize>,
    close_requested: bool,
    closed_applied: bool,
    /// Delivered committed-output windows, per stream, in order.
    outputs: Vec<Vec<u8>>,
    /// Why the session failed, when it did.
    pub error: Option<String>,
    /// Set when the host closed the session because the arrival
    /// timeline was exhausted (client never sent a close).
    pub force_closed: bool,
    /// Virtual open time (µs).
    pub opened_us: u64,
    /// Virtual finish time (µs), set when the session reaches a
    /// terminal state.
    pub finished_us: u64,
    /// Virtual time of the last append/close/service event — the
    /// idle-eviction clock.
    pub last_event_us: u64,
    /// Since when the session has had work pending (staged bytes or an
    /// unapplied close). `None` while idle.
    pub ready_since: Option<u64>,
    /// Chunks accepted.
    pub chunks: u64,
    /// Appends refused (credit or capacity).
    pub backpressure: u64,
    /// Service quanta run.
    pub advances: u64,
    /// Idle evictions suffered.
    pub evictions: u64,
    /// Chunk arrival → ingestion latency.
    pub ingest: LatencyStats,
    /// Simulated run time per service quantum.
    pub run_lat: LatencyStats,
    /// Modeled drain time per delivering quantum.
    pub drain_lat: LatencyStats,
}

impl Session {
    /// Opens a session at virtual time `now_us`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.streams` is zero or `cfg.stream_capacity` is not
    /// a whole number of input tokens (a capacity that could never hold
    /// a closeable stream is a workload bug).
    pub fn new(
        id: SessionId,
        tenant: u32,
        spec: Arc<UnitSpec>,
        cfg: SessionConfig,
        now_us: u64,
    ) -> Session {
        assert!(cfg.streams > 0, "session must have at least one stream");
        let tok = (spec.input_token_bits as usize) / 8;
        assert!(
            cfg.stream_capacity.is_multiple_of(tok.max(1)),
            "stream_capacity must be a whole number of input tokens"
        );
        let spec_key: Arc<str> = format!(
            "{}:{}x{}",
            spec.name, spec.input_token_bits, spec.output_token_bits
        )
        .into();
        Session {
            id,
            tenant,
            spec,
            spec_key,
            cfg,
            state: SessionState::Open,
            run: None,
            staged: (0..cfg.streams).map(|_| VecDeque::new()).collect(),
            staged_bytes: vec![0; cfg.streams],
            accepted_bytes: vec![0; cfg.streams],
            close_requested: false,
            closed_applied: false,
            outputs: vec![Vec::new(); cfg.streams],
            error: None,
            force_closed: false,
            opened_us: now_us,
            finished_us: 0,
            last_event_us: now_us,
            ready_since: None,
            chunks: 0,
            backpressure: 0,
            advances: 0,
            evictions: 0,
            ingest: LatencyStats::default(),
            run_lat: LatencyStats::default(),
            drain_lat: LatencyStats::default(),
        }
    }

    /// The session's configuration.
    pub fn config(&self) -> SessionConfig {
        self.cfg
    }

    /// Current lifecycle state.
    pub fn state(&self) -> SessionState {
        self.state
    }

    /// Whether the session has reached a terminal state.
    pub fn finished(&self) -> bool {
        matches!(self.state, SessionState::Done | SessionState::Failed)
    }

    /// Whether the session has pending work for its next service
    /// quantum: staged bytes to ingest or an unapplied close.
    pub fn ready(&self) -> bool {
        !self.finished()
            && (self.staged_bytes.iter().any(|&b| b > 0)
                || (self.close_requested && !self.closed_applied))
    }

    /// Whether an engine run has been bound yet.
    pub fn has_run(&self) -> bool {
        self.run.is_some()
    }

    /// Binds the resumable engine run the serving layer built for this
    /// session (see `Instance::open_run`).
    ///
    /// # Panics
    ///
    /// Panics if a run is already bound or its stream count differs.
    pub fn bind(&mut self, run: OpenRun) {
        assert!(self.run.is_none(), "session already has a run");
        assert_eq!(run.streams(), self.cfg.streams);
        self.run = Some(run);
    }

    /// Appends a chunk to stream `k` at virtual time `now_us`.
    ///
    /// On success the chunk is staged (charged against the session
    /// credit) until the next service quantum ingests it. On error the
    /// chunk is dropped and counted in [`Session::backpressure`] (for
    /// credit/capacity refusals).
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn append(&mut self, k: usize, bytes: Vec<u8>, now_us: u64) -> Result<(), AppendError> {
        assert!(k < self.cfg.streams);
        if self.finished() || self.close_requested {
            return Err(AppendError::Closed);
        }
        if self.accepted_bytes[k] + bytes.len() > self.cfg.stream_capacity {
            self.backpressure += 1;
            return Err(AppendError::CapacityExceeded);
        }
        if self.staged_bytes[k] + bytes.len() > self.cfg.credit_bytes {
            self.backpressure += 1;
            return Err(AppendError::Backpressure);
        }
        self.chunks += 1;
        self.staged_bytes[k] += bytes.len();
        self.accepted_bytes[k] += bytes.len();
        self.staged[k].push_back((now_us, bytes));
        self.last_event_us = now_us;
        self.ready_since.get_or_insert(now_us);
        Ok(())
    }

    /// Requests close of every stream at virtual time `now_us`. The
    /// close is applied at the next service quantum, after all staged
    /// bytes have drained into the engine. Idempotent.
    pub fn request_close(&mut self, now_us: u64) {
        if self.finished() || self.close_requested {
            return;
        }
        self.close_requested = true;
        self.state = SessionState::Draining;
        self.last_event_us = now_us;
        self.ready_since.get_or_insert(now_us);
    }

    /// Total bytes accepted across all streams.
    pub fn appended_bytes(&self) -> u64 {
        self.accepted_bytes.iter().map(|&b| b as u64).sum()
    }

    /// Output bytes delivered so far across all streams.
    pub fn delivered_bytes(&self) -> u64 {
        self.outputs.iter().map(|o| o.len() as u64).sum()
    }

    /// Delivered output of stream `k` so far (committed windows, in
    /// order; the full stream output once the session is Done).
    pub fn output(&self, k: usize) -> &[u8] {
        &self.outputs[k]
    }

    /// Runs one service quantum at virtual time `now_us`: drains staged
    /// chunks into the engine, applies a pending close, advances the
    /// simulation until it completes or suspends, and collects newly
    /// committed output windows. `drain_us_per_kib` prices delivered
    /// output exactly like the job path's drain model.
    ///
    /// # Errors
    ///
    /// A failed advance or a misaligned close moves the session to
    /// [`SessionState::Failed`] and returns the error text; the session
    /// is terminal afterwards.
    ///
    /// # Panics
    ///
    /// Panics if no run is bound or the session is already terminal
    /// (the scheduler only services ready, admitted sessions).
    pub fn service(&mut self, now_us: u64, drain_us_per_kib: u64) -> Result<ServiceStep, String> {
        assert!(!self.finished(), "servicing a terminal session");
        let run = self.run.as_mut().expect("servicing a session with no bound run");
        // Ingest every staged chunk; they all fit by the credit check.
        for k in 0..self.cfg.streams {
            while let Some((arrived, bytes)) = self.staged[k].pop_front() {
                self.staged_bytes[k] -= bytes.len();
                run.append(k, &bytes);
                self.ingest.record(now_us.saturating_sub(arrived));
            }
        }
        if self.close_requested && !self.closed_applied {
            for k in 0..self.cfg.streams {
                if let Err(MisalignedClose { in_len, token_bytes }) = run.close(k) {
                    let msg = format!(
                        "misaligned close: stream {k} has {in_len} bytes, token is {token_bytes}"
                    );
                    return Err(self.fail(now_us, msg));
                }
            }
            self.closed_applied = true;
        }
        let report = match run.advance() {
            Ok(r) => r,
            Err(e) => return Err(self.fail(now_us, e.to_string())),
        };
        self.advances += 1;
        let run_us = (report.delta_seconds * 1e6).ceil() as u64;
        self.run_lat.record(run_us);
        let mut delivered = 0u64;
        for k in 0..self.cfg.streams {
            if let Some(part) = run.take_output(k) {
                delivered += part.len() as u64;
                self.outputs[k].extend_from_slice(&part);
            }
        }
        let drain_us = if delivered > 0 {
            let us = 1 + delivered.div_ceil(1024) * drain_us_per_kib;
            self.drain_lat.record(us);
            us
        } else {
            0
        };
        let done = report.status == OpenStatus::Done;
        if done {
            self.state = SessionState::Done;
            self.finished_us = now_us + run_us + drain_us;
        }
        self.last_event_us = now_us + run_us + drain_us;
        self.ready_since = None;
        Ok(ServiceStep { run_us, drain_us, delivered_bytes: delivered, done })
    }

    fn fail(&mut self, now_us: u64, msg: String) -> String {
        self.state = SessionState::Failed;
        self.finished_us = now_us;
        self.error = Some(msg.clone());
        self.ready_since = None;
        msg
    }

    /// Marks the session failed without touching the engine — for
    /// host-side conditions (e.g. every instance quarantined).
    pub fn fail_external(&mut self, now_us: u64, msg: &str) {
        if !self.finished() {
            self.fail(now_us, msg.to_string());
        }
    }

    /// The bound run, for end-of-session accounting
    /// (`Instance::record_open_run`).
    pub fn run(&self) -> Option<&OpenRun> {
        self.run.as_ref()
    }

    /// Builds the report record for this (terminal) session.
    pub fn record(&self) -> SessionRecord {
        let outcome = match (&self.state, self.force_closed) {
            (SessionState::Failed, _) => {
                format!("failed: {}", self.error.as_deref().unwrap_or("unknown"))
            }
            (SessionState::Done, true) => "force_closed".to_string(),
            _ => "completed".to_string(),
        };
        SessionRecord {
            id: self.id,
            tenant: self.tenant,
            opened_us: self.opened_us,
            finished_us: self.finished_us,
            chunks: self.chunks,
            appended_bytes: self.appended_bytes(),
            delivered_bytes: self.delivered_bytes(),
            backpressure: self.backpressure,
            evictions: self.evictions,
            advances: self.advances,
            outcome,
            outputs: self.outputs.clone(),
            ingest: self.ingest.clone(),
            run: self.run_lat.clone(),
            drain: self.drain_lat.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleet_system::{run_system, Instance, SystemConfig};
    use fleet_compiler::CompiledUnit;
    use fleet_lang::UnitBuilder;

    fn identity_spec() -> UnitSpec {
        let mut u = UnitBuilder::new("Identity", 8, 8);
        let inp = u.input();
        let nf = u.stream_finished().not_b();
        u.if_(nf, |u| u.emit(inp.clone()));
        u.build().unwrap()
    }

    fn bind(session: &mut Session, inst: &Instance) {
        let unit = CompiledUnit::new(&session.spec);
        let caps = vec![session.config().stream_capacity; session.config().streams];
        session.bind(inst.open_run(&unit, &caps, session.config().out_capacity));
    }

    #[test]
    fn chunked_session_reproduces_one_shot_output() {
        let spec = Arc::new(identity_spec());
        let data: Vec<u8> = (0..1000u32).map(|x| (x * 7) as u8).collect();
        let cfg = SessionConfig {
            streams: 1,
            stream_capacity: 1024,
            credit_bytes: 1024,
            out_capacity: 2048,
        };
        let inst = Instance::new(0, SystemConfig::f1(4096));
        let mut s = Session::new(7, 2, spec.clone(), cfg, 100);
        bind(&mut s, &inst);

        let mut now = 100;
        let mut sent = 0usize;
        for len in [1usize, 137, 64, 300, 498] {
            s.append(0, data[sent..sent + len].to_vec(), now).unwrap();
            sent += len;
            let step = s.service(now, 1).unwrap();
            assert!(!step.done);
            now += 50 + step.run_us + step.drain_us;
        }
        assert_eq!(sent, data.len());
        s.request_close(now);
        assert!(s.ready());
        let step = s.service(now, 1).unwrap();
        assert!(step.done);
        assert_eq!(s.state(), SessionState::Done);
        assert_eq!(s.output(0), &data[..]);
        assert_eq!(s.appended_bytes(), 1000);
        assert_eq!(s.delivered_bytes(), 1000);

        // Cycle-exact vs the one-shot batch of the same stream.
        let report =
            run_system(&spec, std::slice::from_ref(&data), &SystemConfig::f1(2048)).unwrap();
        assert_eq!(s.run().unwrap().cycles(), report.cycles);

        let rec = s.record();
        assert_eq!(rec.outcome, "completed");
        assert_eq!(rec.chunks, 5);
        assert_eq!(rec.appended_bytes, 1000);
        assert_eq!(rec.delivered_bytes, 1000);
        assert!(rec.advances >= 6);
    }

    #[test]
    fn credit_exhaustion_backpressures_and_drops_the_chunk() {
        let spec = Arc::new(identity_spec());
        let cfg = SessionConfig {
            streams: 1,
            stream_capacity: 4096,
            credit_bytes: 128,
            out_capacity: 8192,
        };
        let inst = Instance::new(0, SystemConfig::f1(8192));
        let mut s = Session::new(1, 0, spec, cfg, 0);
        bind(&mut s, &inst);

        s.append(0, vec![1u8; 100], 0).unwrap();
        // 100 staged + 64 > 128 credit: refused, dropped, counted.
        assert_eq!(s.append(0, vec![2u8; 64], 1), Err(AppendError::Backpressure));
        assert_eq!(s.backpressure, 1);
        // Servicing drains the staged bytes and restores the credit.
        s.service(2, 1).unwrap();
        s.append(0, vec![3u8; 128], 3).unwrap();
        // Capacity ceiling is a different refusal.
        assert_eq!(
            s.append(0, vec![4u8; 4096], 4),
            Err(AppendError::CapacityExceeded)
        );
        assert_eq!(s.backpressure, 2);
        s.request_close(5);
        let step = s.service(5, 1).unwrap();
        assert!(step.done);
        // Output holds exactly the accepted bytes: 100 + 128.
        assert_eq!(s.delivered_bytes(), 228);
        let mut want = vec![1u8; 100];
        want.extend_from_slice(&[3u8; 128]);
        assert_eq!(s.output(0), &want[..]);
    }

    #[test]
    fn append_after_close_is_refused_and_misaligned_close_fails() {
        let spec = Arc::new(identity_spec());
        let cfg = SessionConfig {
            streams: 1,
            stream_capacity: 1024,
            credit_bytes: 1024,
            out_capacity: 2048,
        };
        let inst = Instance::new(0, SystemConfig::f1(4096));
        let mut s = Session::new(1, 0, spec, cfg, 0);
        bind(&mut s, &inst);
        s.append(0, vec![1u8; 16], 0).unwrap();
        s.request_close(1);
        assert_eq!(s.state(), SessionState::Draining);
        assert_eq!(s.append(0, vec![2u8; 16], 2), Err(AppendError::Closed));
        let step = s.service(3, 1).unwrap();
        assert!(step.done);

        // A 64-bit-token unit fed a ragged byte count fails at close.
        let mut wide = UnitBuilder::new("Identity64", 64, 64);
        let inp = wide.input();
        let nf = wide.stream_finished().not_b();
        wide.if_(nf, |u| u.emit(inp.clone()));
        let wide = Arc::new(wide.build().unwrap());
        let cfg = SessionConfig {
            streams: 1,
            stream_capacity: 1024,
            credit_bytes: 1024,
            out_capacity: 2048,
        };
        let mut s = Session::new(2, 0, wide, cfg, 0);
        bind(&mut s, &inst);
        s.append(0, vec![5u8; 12], 0).unwrap();
        s.request_close(1);
        let err = s.service(2, 1).unwrap_err();
        assert!(err.contains("misaligned close"), "{err}");
        assert_eq!(s.state(), SessionState::Failed);
        assert!(s.record().outcome.starts_with("failed:"));
    }
}
