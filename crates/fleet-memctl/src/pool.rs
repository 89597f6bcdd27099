//! The names left from the intra-channel thread pool.
//!
//! The simulator once sharded each channel's cycle across a pool of
//! worker threads. It never beat the serial drive (0.09–0.16× at paper
//! PU counts, EXPERIMENTS S3) and every setting was bit-identical, so
//! the pool is gone: each channel runs one serial drive. The two types
//! below remain only as compile surface for code written against the
//! pool; neither changes any result.

/// Former simulation thread budget. Unread: every channel runs serially.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimThreads {
    /// A thread count. Ignored.
    Fixed(usize),
}

/// Former worker pool. Uninhabited, so an `Option<&SimPool>` can only
/// ever be `None`.
#[derive(Debug)]
pub enum SimPool {}
