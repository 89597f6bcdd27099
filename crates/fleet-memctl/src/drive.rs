//! The one run loop behind [`ChannelEngine::run_channel`] and
//! [`ChannelEngine::run_channel_open`]: every cycle it executes is one
//! [`ChannelEngine::tick`] on the calling thread.

use fleet_trace::TraceSink;

use crate::engine::{stall_error, ChannelEngine, EngineRunError, OpenStep, Watchdog};
use crate::pool::SimPool;
use crate::unit::StreamUnit;

impl<U: StreamUnit, S: TraceSink> ChannelEngine<U, S> {
    /// Drives the channel to completion on the fast path. Results are
    /// bit-identical to ticking [`ChannelEngine::tick_naive`] until
    /// [`ChannelEngine::done`].
    ///
    /// Checks output overflow and the `max_cycles` budget after every
    /// cycle and flushes trace accounting on every exit path. The last
    /// two arguments are ignored: they remain from the intra-channel
    /// thread pool, and [`SimPool`] is uninhabited, so `pool` is always
    /// `None`.
    pub fn run_channel(
        &mut self,
        max_cycles: u64,
        _pool: Option<&SimPool>,
        _shards: usize,
    ) -> Result<u64, EngineRunError> {
        match self.drive(max_cycles, false)? {
            OpenStep::Done(cycles) | OpenStep::Suspended(cycles) => Ok(cycles),
        }
    }

    /// [`ChannelEngine::run_channel`] for open (appendable) streams:
    /// same drive, but suspends with [`OpenStep::Suspended`] — between
    /// cycles, all state preserved — as soon as any open stream has
    /// fewer un-fetched bytes than one input burst. Up to that point
    /// the engine cannot observe that the stream is shorter than its
    /// eventual total, so every cycle it does execute is bit-identical
    /// to the same-numbered cycle of a one-shot run over the full
    /// concatenated input.
    pub fn run_channel_open(&mut self, max_cycles: u64) -> Result<OpenStep, EngineRunError> {
        self.drive(max_cycles, true)
    }

    /// The one run loop, in done / open-starved / event-skip / cycle /
    /// overflow / budget / watchdog order.
    fn drive(
        &mut self,
        max_cycles: u64,
        stop_on_starved: bool,
    ) -> Result<OpenStep, EngineRunError> {
        let start = self.ctl.stats.cycles;
        let mut watchdog = Watchdog::new(self.ctl.watchdog_cycles, self.ctl.progress_sig());
        let result = loop {
            if self.done() {
                break Ok(OpenStep::Done(self.ctl.stats.cycles - start));
            }
            if stop_on_starved && self.ctl.open_starved(&self.pus) {
                break Ok(OpenStep::Suspended(self.ctl.stats.cycles - start));
            }
            // Event-driven clock: with every unit asleep and the
            // controllers provably inert, jump straight to the next
            // externally-timed event instead of ticking through the
            // stall. The skip touches only controller/DRAM state (the
            // units' sleep spans absorb the jump lazily), and no
            // overflow can arise inside a skipped span.
            if self.active.is_empty() {
                let n = self.ctl.skip_window(&self.pus, start, max_cycles, watchdog.idle);
                if n > 0 {
                    self.ctl.apply_skip(n);
                    if self.ctl.stats.cycles - start > max_cycles {
                        break Err(EngineRunError::Timeout { max_cycles });
                    }
                    if watchdog.skipped(n, self.ctl.progress_sig()) {
                        break Err(stall_error(&self.pus, watchdog.idle));
                    }
                    continue;
                }
            }
            self.tick();
            if let Some(unit) = self.ctl.first_overflow {
                break Err(EngineRunError::Overflow { unit });
            }
            if self.ctl.stats.cycles - start > max_cycles {
                break Err(EngineRunError::Timeout { max_cycles });
            }
            if watchdog.stuck(self.ctl.progress_sig()) {
                break Err(stall_error(&self.pus, watchdog.idle));
            }
        };
        // Every exit hands the units their state back: the run's end,
        // an open run's suspend, a budget or watchdog stop.
        self.lanes.evict_all(&mut self.units);
        self.flush_trace();
        result
    }
}
