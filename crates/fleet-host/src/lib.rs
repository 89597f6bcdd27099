//! fleet-host: a multi-tenant job scheduler and serving runtime over
//! simulated F1 instances.
//!
//! The Fleet paper stops at one board: compile an app, replicate its
//! processing unit to fill the FPGA, run the streams. This crate builds
//! the serving layer above that board model. Tenants submit [`Job`]s —
//! an application spec plus input streams, optionally with a deadline —
//! into a bounded [`SubmitQueue`] with admission control and per-tenant
//! weighted fair queuing. A batch packer ([`pack_batch`]) bins
//! compatible jobs onto the PU slots of an instance run, sized by the
//! same area model the single-board flow uses. The [`Host`] drives a
//! pool of [`fleet_system::Instance`]s concurrently on a scoped worker
//! pool and drains per-job outputs in completion order.
//!
//! Everything is timed on a **virtual clock** in microseconds: arrivals
//! carry virtual timestamps, instance runs advance time by their
//! simulated duration, and host-side pack/drain costs come from a small
//! linear model. Wall-clock thread interleaving therefore cannot
//! perturb results — a serve is bit-for-bit deterministic for a fixed
//! workload, which the tests rely on.
//!
//! Scheduler decisions and per-job latency land in
//! [`fleet_trace::SchedCounters`] / [`fleet_trace::LatencyStats`] and
//! are exported through a hand-rolled JSON [`ServiceReport`].
//!
//! Beyond one-shot jobs, the host serves long-lived
//! [`fleet_session::Session`]s: clients open a session, append chunks
//! against a credit-based backpressure window, and read output windows
//! incrementally while the scheduler time-shares instances between
//! session quanta and job batches (see [`Host::serve_arrivals`] and the
//! [`arrival`] module).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arrival;
pub mod job;
pub mod pack;
pub mod policy;
pub mod predict;
pub mod queue;
pub mod report;
pub mod scheduler;

pub use arrival::{Arrival, ArrivalSource, MixedArrivals, SessionOpen, VecArrivals};
pub use fleet_fault::FaultPlan;
pub use fleet_session::{
    AppendError, Session, SessionConfig, SessionId, SessionRecord, SessionState,
};
pub use job::{
    CompletedJob, FailedJob, Job, JobId, JobLatency, RejectReason, RejectedJob, TenantId,
};
pub use pack::{pack_batch, pack_batch_policy, top_up_batch, PackedBatch};
pub use policy::{
    doomed, predicted_completion_us, slo_admits, CostModel, DeferFill, EdfPack, FirstFit,
    PackPolicy, PolicyKind, ShortestJob, WeightedSlowdown,
};
pub use predict::{Predictor, SpecModel};
pub use queue::SubmitQueue;
pub use report::{ServiceReport, TenantReport};
pub use scheduler::{Host, HostConfig};
