//! A small persistent worker pool for deterministic parallel
//! simulation.
//!
//! [`SimPool`] owns a fixed set of worker threads fed from one shared
//! injector queue. Engines submit boxed closures (one per shard of
//! their active worklist, once per simulated cycle) and block for the
//! replies on their own reply channels, so the pool needs no explicit
//! barrier: parking and waking ride on the channel operations — an idle
//! worker is parked inside `Receiver::recv`, and a submitted job wakes
//! exactly one worker.
//!
//! One pool is meant to be shared by everything simulating concurrently
//! in a process: N instances × C channels submit to the same queue, so
//! the evaluation work in flight never exceeds the pool's worker count
//! no matter how many engines run at once — the host never
//! oversubscribes its cores by nesting per-batch thread scopes.
//!
//! The pooled drive this pool serves is kept for the determinism gate —
//! a second, independently scheduled execution of every cycle that must
//! agree bit for bit with the serial drive — and has not been measured
//! to win anywhere: on a 2-core host it runs at 0.09–0.16× of serial at
//! paper PU counts (EXPERIMENTS S3), bounded by the per-cycle hand-off.
//! `SystemConfig::f1` therefore defaults to the serial drive.
//!
//! Jobs must be pure compute. A job that blocks on the completion of
//! *another pool job* can deadlock the pool, so callers that wait on
//! replies (channel engines, system runners) must never themselves run
//! as pool jobs that submit sub-jobs; the system layer enforces this by
//! choosing *either* channel-level jobs *or* shard-level jobs for one
//! run, never both.

use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Simulation thread budget for the parallel engine paths.
///
/// `Fixed(1)` (or `Auto` on a single-core host) selects the exact
/// serial fast path — no pool machinery, no worker threads, bit-\
/// identical results — and is what `SystemConfig::f1` defaults to.
/// Every other setting is *also* bit-identical; it only changes
/// wall-clock time (so far for the worse, see the module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SimThreads {
    /// Use the host's available parallelism.
    #[default]
    Auto,
    /// Exactly `n` worker threads (`n` is clamped to at least 1).
    Fixed(usize),
}

impl SimThreads {
    /// The concrete thread count this setting resolves to on this host.
    pub fn resolve(self) -> usize {
        match self {
            SimThreads::Auto => {
                std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
            }
            SimThreads::Fixed(n) => n.max(1),
        }
    }

    /// Parses a CLI value: `"auto"` or a positive integer.
    pub fn parse(s: &str) -> Option<SimThreads> {
        if s.eq_ignore_ascii_case("auto") {
            Some(SimThreads::Auto)
        } else {
            s.parse::<usize>().ok().filter(|&n| n >= 1).map(SimThreads::Fixed)
        }
    }
}

/// Renders a caught panic payload as text — what a shard job sends back
/// over its reply channel and what the system layer reports as a worker
/// panic.
pub fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A unit of work for the pool: an owned closure, so submission never
/// borrows the caller (engines move shard state in and receive it back
/// through their own reply channels).
pub type SimJob = Box<dyn FnOnce() + Send + 'static>;

/// The persistent simulation worker pool. See the module docs.
pub struct SimPool {
    workers: usize,
    /// `None` when the pool is serial (`workers == 1`): `submit` then
    /// runs the job inline on the caller's thread.
    injector: Option<Mutex<Sender<SimJob>>>,
    handles: Vec<JoinHandle<()>>,
}

impl SimPool {
    /// Spawns the pool. A budget that resolves to one thread spawns
    /// nothing; [`SimPool::submit`] then runs jobs inline.
    pub fn new(threads: SimThreads) -> SimPool {
        let workers = threads.resolve();
        if workers <= 1 {
            return SimPool { workers: 1, injector: None, handles: Vec::new() };
        }
        let (tx, rx) = channel::<SimJob>();
        let rx = Arc::new(Mutex::new(rx));
        let handles = (0..workers)
            .map(|i| {
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("fleet-sim-{i}"))
                    .spawn(move || loop {
                        // Take the queue lock only for the dequeue; a
                        // worker parked in `recv` holds it, but releases
                        // the moment a job arrives, so dequeues
                        // serialize while execution stays parallel.
                        let job = {
                            let guard = rx.lock().unwrap_or_else(|e| e.into_inner());
                            guard.recv()
                        };
                        match job {
                            // A panicking job must not kill the
                            // persistent worker: the submitting engine
                            // notices the missing reply and surfaces
                            // the failure itself.
                            Ok(job) => {
                                let _ = catch_unwind(AssertUnwindSafe(job));
                            }
                            Err(_) => break, // pool dropped
                        }
                    })
                    .expect("spawn fleet-sim worker thread")
            })
            .collect();
        SimPool { workers, injector: Some(Mutex::new(tx)), handles }
    }

    /// The number of parallel workers (1 = inline serial execution).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Enqueues a job. On a serial pool the job runs inline before this
    /// returns.
    pub fn submit(&self, job: SimJob) {
        match &self.injector {
            Some(tx) => tx
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .send(job)
                .expect("pool workers alive"),
            None => job(),
        }
    }
}

impl fmt::Debug for SimPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimPool").field("workers", &self.workers).finish()
    }
}

impl Drop for SimPool {
    fn drop(&mut self) {
        // Closing the injector ends every worker's recv loop.
        self.injector = None;
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn serial_pool_runs_inline_without_threads() {
        let pool = SimPool::new(SimThreads::Fixed(1));
        assert_eq!(pool.workers(), 1);
        let hit = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hit);
        pool.submit(Box::new(move || {
            h.fetch_add(1, Ordering::SeqCst);
        }));
        // Inline execution: visible immediately, no synchronization.
        assert_eq!(hit.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn parallel_pool_executes_every_job_and_replies() {
        let pool = SimPool::new(SimThreads::Fixed(3));
        assert_eq!(pool.workers(), 3);
        let (tx, rx) = channel();
        for i in 0..64usize {
            let tx = tx.clone();
            pool.submit(Box::new(move || {
                tx.send(i * i).unwrap();
            }));
        }
        let mut got: Vec<usize> = (0..64).map(|_| rx.recv().unwrap()).collect();
        got.sort_unstable();
        let want: Vec<usize> = (0..64).map(|i| i * i).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn panicking_job_does_not_kill_the_pool() {
        let pool = SimPool::new(SimThreads::Fixed(2));
        pool.submit(Box::new(|| panic!("injected job panic")));
        let (tx, rx) = channel();
        pool.submit(Box::new(move || {
            tx.send(42u32).unwrap();
        }));
        assert_eq!(rx.recv().unwrap(), 42);
    }

    #[test]
    fn sim_threads_parse_and_resolve() {
        assert_eq!(SimThreads::parse("auto"), Some(SimThreads::Auto));
        assert_eq!(SimThreads::parse("4"), Some(SimThreads::Fixed(4)));
        assert_eq!(SimThreads::parse("0"), None);
        assert_eq!(SimThreads::parse("x"), None);
        assert_eq!(SimThreads::Fixed(0).resolve(), 1);
        assert!(SimThreads::Auto.resolve() >= 1);
    }
}
