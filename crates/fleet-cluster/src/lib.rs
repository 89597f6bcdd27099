//! Fleet-of-fleets: a cluster of simulated Fleet hosts behind one
//! router, with spec-affinity placement, predictor-fed load balancing,
//! area-model-costed autoscaling, and cross-host failover — all on a
//! shared virtual clock so every serve is deterministic.
//!
//! The paper's thesis is that one FPGA hosts a fleet of processing
//! units; this crate models the operational layer above it, where a
//! service runs a fleet *of* those fleets. [`Cluster`] owns N host
//! states (each the same bounded WFQ queue + online predictor +
//! instance pool the single-host [`fleet_host::Host`] uses) and serves
//! a [`JobSource`] arrival stream to completion as a discrete-event
//! simulation. The routing, autoscaling, and failover models are
//! documented on the `cluster` module in the source, and the emitted
//! JSON on [`ClusterReport`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cluster;
mod report;

pub use cluster::{Backend, Cluster, ClusterConfig, FaultBurst, JobSource, VecSource};
pub use report::{ClusterReport, HostSummary};
