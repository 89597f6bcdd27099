//! The one run loop behind [`ChannelEngine::run_channel`] and
//! [`ChannelEngine::run_channel_open`], and the deterministic
//! intra-channel parallel evaluation (the pooled drive) it can hand
//! each cycle to.
//!
//! The sorted active worklist is partitioned into contiguous shards of
//! unit indices. Every cycle, each shard with work is submitted to the
//! shared [`SimPool`] as one job that evaluates its units against a
//! frozen `Arc<Vec<PuState>>` snapshot ([`eval_unit`] mutates only the
//! unit itself) and records a compact [`PuEffect`] per unit. Once all
//! shards reply, the engine thread reclaims the PU state exclusively
//! (`Arc::get_mut` — the strong count is back to 1, and the reply
//! channel's happens-before edge makes every worker write visible) and
//! applies the effects in ascending unit index order, then runs the
//! controllers, DRAM, and wake routing serially.
//!
//! **Determinism argument.** A unit's evaluation reads only its own
//! `PuState` (frozen for the cycle), its own executor state, and the
//! `Copy` config — never another unit or any controller state — so the
//! evaluation phase commutes. Every shared mutation (buffer pops and
//! pushes, `output_tokens`, trace probes, finish bookkeeping, worklist
//! edits, round-robin pointers) happens in the serial merge phase in
//! exactly the order the serial [`ChannelEngine::tick`] performs it:
//! ascending unit index, then input controller, then output controller.
//! Hence every simulated cycle, output byte, stat, and trace counter is
//! bit-identical to the serial fast path (and, transitively, to
//! `tick_naive`) at every thread and shard count.
//!
//! Ownership moves through channels — no `unsafe`, no scoped spawns per
//! tick: shard unit vectors are moved into `'static` jobs (`O(1)` per
//! dispatch) and returned through the engine's reply channel; the units
//! are moved out of the engine once per *run*, not per cycle.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

use fleet_trace::{CycleClass, TraceSink};

use crate::engine::{
    eval_unit, merge_sorted_slice, stall_error, ChannelEngine, Ctl, EngineRunError, EvalParams,
    OpenStep, PuEffect, PuState, Watchdog,
};
use crate::lanes::{lane_preeval, LaneGroups};
use crate::pool::{panic_message, SimPool};
use crate::unit::StreamUnit;

/// One shard of a pooled run: a contiguous range of unit indices
/// starting at `base`, owning those units, the shard-local (sorted,
/// global-index) slice of the active worklist, skip spans owed to units
/// woken while their state was in flight, and the effect records of the
/// last evaluation.
struct ShardCtx<U> {
    base: usize,
    units: Vec<U>,
    active: Vec<usize>,
    wakes: Vec<(usize, u64)>,
    effects: Vec<PuEffect>,
    /// The shard's own lane groups, so workers need no shared state
    /// (see [`lane_preeval`]). Shards may group units differently than
    /// the serial tick would; results are identical either way.
    lanes: LaneGroups,
}

type ShardReply<U> = (usize, ShardCtx<U>, Result<(), String>);

/// Phase 1 for one shard: apply owed skip spans, evaluate every active
/// unit, record effects, and drop units that parked themselves (the
/// merge phase learns that from `PuEffect::sleep`, keeping the shard's
/// view and the engine's view of the worklist identical).
fn run_shard<U: StreamUnit>(
    ctx: &mut ShardCtx<U>,
    pus: &[PuState],
    params: &EvalParams,
    trace: bool,
) {
    let ShardCtx { base, units, active, wakes, effects, lanes } = ctx;
    let base = *base;
    // The lane phase over this shard's slice (woken units never have an
    // evaluation pending — they were asleep last cycle — so the owed
    // skip spans applied below cannot interact with it).
    lane_preeval(units, base, pus, params, lanes);
    let mut wi = 0usize;
    active.retain(|&p| {
        let unit = &mut units[p - base];
        if wi < wakes.len() && wakes[wi].0 == p {
            unit.skip_cycles(wakes[wi].1);
            wi += 1;
        }
        let eff = eval_unit(p, unit, &pus[p], params, lanes, base, false);
        let keep = eff.sleep.is_none();
        // Skip inert records (nothing for the merge to do) unless a
        // sink is attached — probes need every class, every cycle.
        if trace || eff.consumed || eff.emitted || eff.finished || !keep {
            effects.push(eff);
        }
        keep
    });
    debug_assert_eq!(wi, wakes.len(), "every owed skip span belongs to an active unit");
    wakes.clear();
}

/// Splits `units` into contiguous shards whose boundaries equalize the
/// *active* count (not the raw unit count), distributing the sorted
/// `active` and `wakes` lists along the same boundaries. Every unit —
/// sleeping or not — lands in exactly one shard, so later wakes always
/// have a home.
fn partition<U>(
    units: Vec<U>,
    active: Vec<usize>,
    wakes: Vec<(usize, u64)>,
    k: usize,
) -> Vec<ShardCtx<U>> {
    let n = units.len();
    let k = k.min(active.len()).max(1);
    let mut bounds = Vec::with_capacity(k + 1);
    bounds.push(0usize);
    if k > 1 {
        let per = active.len().div_ceil(k);
        let mut j = per;
        while j < active.len() && bounds.len() < k {
            bounds.push(active[j]);
            j += per;
        }
    }
    bounds.push(n);
    debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));

    // Split the unit vector back-to-front so each split moves only its
    // own tail.
    let m = bounds.len() - 1;
    let mut parts: Vec<Vec<U>> = Vec::with_capacity(m);
    let mut rest = units;
    for i in (1..m).rev() {
        parts.push(rest.split_off(bounds[i]));
    }
    parts.push(rest);
    parts.reverse();

    parts
        .into_iter()
        .enumerate()
        .map(|(i, part)| {
            let (base, end) = (bounds[i], bounds[i + 1]);
            let a_lo = active.partition_point(|&p| p < base);
            let a_hi = active.partition_point(|&p| p < end);
            let w_lo = wakes.partition_point(|&(p, _)| p < base);
            let w_hi = wakes.partition_point(|&(p, _)| p < end);
            ShardCtx {
                base,
                units: part,
                active: active[a_lo..a_hi].to_vec(),
                wakes: wakes[w_lo..w_hi].to_vec(),
                effects: Vec::new(),
                lanes: LaneGroups::default(),
            }
        })
        .collect()
}

/// Re-splits the shards when the active worklist has drifted far enough
/// that one shard dominates the cycle's critical path. The trigger and
/// the new boundaries depend only on simulation state, so the schedule
/// stays deterministic (and irrelevant to results regardless).
fn maybe_rebalance<U: StreamUnit>(slots: &mut Vec<Option<ShardCtx<U>>>, k: usize) {
    if k <= 1 {
        return;
    }
    let total: usize = slots.iter().map(|s| s.as_ref().unwrap().active.len()).sum();
    if total == 0 {
        return;
    }
    let max = slots.iter().map(|s| s.as_ref().unwrap().active.len()).max().unwrap();
    let target = total.div_ceil(slots.len());
    if max <= target + target / 2 + 8 {
        return;
    }
    resplit(slots, k);
}

/// Re-partitions the shards' units into `k` shards; each shard's lane
/// groups are evicted first, since its units may move to another shard.
fn resplit<U: StreamUnit>(slots: &mut Vec<Option<ShardCtx<U>>>, k: usize) {
    let total: usize = slots.iter().map(|s| s.as_ref().unwrap().active.len()).sum();
    let mut units = Vec::new();
    let mut active = Vec::with_capacity(total);
    let mut wakes = Vec::new();
    for slot in slots.drain(..) {
        let mut ctx = slot.unwrap();
        ctx.lanes.evict_all(&mut ctx.units, ctx.base);
        units.extend(ctx.units);
        active.extend_from_slice(&ctx.active);
        wakes.extend_from_slice(&ctx.wakes);
    }
    *slots = partition(units, active, wakes, k).into_iter().map(Some).collect();
}

/// A pooled run in flight — what the pooled drive owns between
/// [`PooledRun::begin`] and [`PooledRun::end`]: the units (moved into
/// per-shard vectors), the controller-side PU state (moved into the
/// snapshot `Arc` the shard workers read), and the reply channel. The
/// run loop itself is [`ChannelEngine::drive`], shared with the serial
/// drive.
struct PooledRun<'p, U> {
    pool: &'p SimPool,
    k: usize,
    shared: Arc<Vec<PuState>>,
    slots: Vec<Option<ShardCtx<U>>>,
    reply_tx: Sender<ShardReply<U>>,
    reply_rx: Receiver<ShardReply<U>>,
}

impl<'p, U: StreamUnit + Send + 'static> PooledRun<'p, U> {
    /// Moves the mutable-per-worker state out of `eng` for the run.
    /// O(n) once per run; per cycle everything moves by handle.
    fn begin<S: TraceSink>(
        eng: &mut ChannelEngine<U, S>,
        pool: &'p SimPool,
        shards: usize,
    ) -> PooledRun<'p, U> {
        // Park already-finished active units now, exactly as the serial
        // tick's pre-check would on their next cycle (covers naive →
        // pooled interleavings across runs).
        let cycles = eng.ctl.stats.cycles;
        let pus = &mut eng.pus;
        eng.active.retain(|&p| {
            if pus[p].finished {
                pus[p].sleep = Some((cycles, CycleClass::Drained));
            }
            !pus[p].finished
        });

        eng.lanes.evict_all(&mut eng.units, 0);
        let k = shards.min(pool.workers()).min(eng.units.len()).max(1);
        let units = std::mem::take(&mut eng.units);
        let active = std::mem::take(&mut eng.active);
        let (reply_tx, reply_rx) = channel();
        PooledRun {
            pool,
            k,
            shared: Arc::new(std::mem::take(&mut eng.pus)),
            slots: partition(units, active, Vec::new(), k).into_iter().map(Some).collect(),
            reply_tx,
            reply_rx,
        }
    }

    /// Whether every shard's worklist is empty (the pooled drive's
    /// "worklist empty").
    fn idle(&self) -> bool {
        self.slots.iter().all(|s| s.as_ref().expect("shard at home").active.is_empty())
    }

    /// Evicts the shards' lane groups, reassembles `eng` (shards are
    /// contiguous and in order) and applies the skip spans still owed to
    /// woken units.
    fn end<S: TraceSink>(self, eng: &mut ChannelEngine<U, S>) {
        let mut deferred: Vec<(usize, u64)> = Vec::new();
        eng.units = Vec::with_capacity(self.shared.len());
        for slot in self.slots {
            let mut ctx = slot.expect("all shards home after the run");
            ctx.lanes.evict_all(&mut ctx.units, ctx.base);
            deferred.extend_from_slice(&ctx.wakes);
            eng.active.extend_from_slice(&ctx.active);
            eng.units.extend(ctx.units);
        }
        let Ok(pus) = Arc::try_unwrap(self.shared) else {
            unreachable!("no worker holds PU state after the run");
        };
        eng.pus = pus;
        for (p, span) in deferred {
            eng.units[p].skip_cycles(span);
        }
    }
}

/// One pooled cycle: dispatch, collect, merge, controllers, route wakes.
fn pooled_cycle<U, S>(run: &mut PooledRun<'_, U>, ctl: &mut Ctl<S>)
where
    U: StreamUnit + Send + 'static,
    S: TraceSink,
{
    let PooledRun { pool, k, shared, slots, reply_tx, reply_rx } = run;
    ctl.probe.cycle_start(ctl.stats.cycles);

    // --- Dispatch: one job per shard with work. ---
    let params = ctl.params;
    let trace = ctl.probe.enabled();
    let mut outstanding = 0usize;
    for (i, slot) in slots.iter_mut().enumerate() {
        if slot.as_ref().expect("shard at home between cycles").active.is_empty() {
            continue;
        }
        let mut ctx = slot.take().unwrap();
        let pus = Arc::clone(shared);
        let tx = reply_tx.clone();
        pool.submit(Box::new(move || {
            let r = catch_unwind(AssertUnwindSafe(|| run_shard(&mut ctx, &pus, &params, trace)));
            drop(pus); // release the snapshot before signalling completion
            let _ = tx.send((i, ctx, r.map_err(panic_message)));
        }));
        outstanding += 1;
    }

    // --- Collect (replies arrive in any order; `slots` keeps shard
    // order for the merge). ---
    let mut failure: Option<String> = None;
    for _ in 0..outstanding {
        let (i, ctx, r) = reply_rx.recv().expect("pool worker alive");
        slots[i] = Some(ctx);
        if let Err(msg) = r {
            failure.get_or_insert(msg);
        }
    }
    if let Some(msg) = failure {
        // Re-raise on the engine's thread with the original payload so
        // the system layer reports it as a WorkerPanic verbatim.
        panic!("{msg}");
    }

    // --- Serial merge, ascending unit index (= shard order × sorted
    // shard-local order). ---
    let pus = Arc::get_mut(shared).expect("all shard workers replied").as_mut_slice();
    for slot in slots.iter_mut() {
        let ctx = slot.as_mut().unwrap();
        for i in 0..ctx.effects.len() {
            let eff = ctx.effects[i];
            ctl.apply_effect(&eff, pus);
        }
        ctx.effects.clear();
    }

    // --- Controllers and DRAM, exactly as the serial tick; skip spans
    // are deferred because the units live with the shards. ---
    ctl.finish_cycle(pus, &mut None::<&mut [U]>, false);

    // --- Route woken units and their owed skip spans back to their
    // owning shards (everything stays sorted). ---
    if !ctl.woken.is_empty() {
        ctl.woken_peak = ctl.woken_peak.max(ctl.woken.len());
        ctl.pending_skips.sort_unstable();
        let (mut wi, mut si) = (0usize, 0usize);
        for slot in slots.iter_mut() {
            let ctx = slot.as_mut().unwrap();
            let end = ctx.base + ctx.units.len();
            let ws = wi;
            while wi < ctl.woken.len() && ctl.woken[wi] < end {
                wi += 1;
            }
            if wi > ws {
                debug_assert!(ctx.wakes.is_empty(), "a woken shard ran and drained its wakes");
                merge_sorted_slice(&mut ctx.active, &ctl.woken[ws..wi]);
            }
            let ss = si;
            while si < ctl.pending_skips.len() && ctl.pending_skips[si].0 < end {
                si += 1;
            }
            ctx.wakes.extend_from_slice(&ctl.pending_skips[ss..si]);
        }
        debug_assert_eq!(wi, ctl.woken.len());
        debug_assert_eq!(si, ctl.pending_skips.len());
        ctl.woken.clear();
        ctl.pending_skips.clear();
    } else {
        debug_assert!(ctl.pending_skips.is_empty(), "skips only arise from wakes");
    }

    maybe_rebalance(slots, *k);
}

impl<U, S> ChannelEngine<U, S>
where
    U: StreamUnit + Send + 'static,
    S: TraceSink,
{
    /// Drives the channel to completion on the fast path. With a
    /// multi-worker `pool`, more than one shard and more than one unit,
    /// the PU-evaluation phase of every cycle is sharded across the
    /// pool's workers (up to `shards` shards); otherwise every cycle is
    /// a serial [`ChannelEngine::tick`]. Results are bit-identical to
    /// [`ChannelEngine::tick`] and [`ChannelEngine::tick_naive`] at
    /// every thread/shard count.
    ///
    /// Checks output overflow and the `max_cycles` budget after every
    /// cycle and flushes trace accounting on every exit path.
    pub fn run_channel(
        &mut self,
        max_cycles: u64,
        pool: Option<&SimPool>,
        shards: usize,
    ) -> Result<u64, EngineRunError> {
        match self.drive(max_cycles, pool, shards, false)? {
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
    /// concatenated input, at every thread/shard count. Suspension
    /// happens on the engine thread while no worker holds the PU
    /// snapshot, so appending and resuming later is race-free.
    pub fn run_channel_open(
        &mut self,
        max_cycles: u64,
        pool: Option<&SimPool>,
        shards: usize,
    ) -> Result<OpenStep, EngineRunError> {
        self.drive(max_cycles, pool, shards, true)
    }

    /// The one run loop. The serial and pooled drives differ only in
    /// who runs a cycle and where the PU state and worklist sit while
    /// they do; the done / open-starved / event-skip / cycle / overflow
    /// / budget / watchdog order below is what keeps them bit-identical.
    fn drive(
        &mut self,
        max_cycles: u64,
        pool: Option<&SimPool>,
        shards: usize,
        stop_on_starved: bool,
    ) -> Result<OpenStep, EngineRunError> {
        let mut pooled = match pool {
            Some(pool) if pool.workers() > 1 && shards > 1 && self.units.len() > 1 => {
                Some(PooledRun::begin(self, pool, shards))
            }
            _ => None,
        };
        let start = self.ctl.stats.cycles;
        let mut watchdog = Watchdog::new(self.ctl.watchdog_cycles, self.ctl.progress_sig());
        let result = loop {
            if self.done() {
                break Ok(OpenStep::Done(self.ctl.stats.cycles - start));
            }
            // Between cycles no worker holds the snapshot, so the loop
            // reads a pooled run's PU state directly.
            let (pus, idle) = match &pooled {
                Some(run) => (run.shared.as_slice(), run.idle()),
                None => (self.pus.as_slice(), self.active.is_empty()),
            };
            if stop_on_starved && self.ctl.open_starved(pus) {
                break Ok(OpenStep::Suspended(self.ctl.stats.cycles - start));
            }
            // Event-driven clock: with every unit asleep and the
            // controllers provably inert, jump straight to the next
            // externally-timed event instead of ticking through the
            // stall. The skip touches only controller/DRAM state (the
            // units' sleep spans absorb the jump lazily), and no
            // overflow can arise inside a skipped span.
            if idle {
                let n = self.ctl.skip_window(pus, start, max_cycles, watchdog.idle);
                if n > 0 {
                    self.ctl.apply_skip(n);
                    if self.ctl.stats.cycles - start > max_cycles {
                        break Err(EngineRunError::Timeout { max_cycles });
                    }
                    if watchdog.skipped(n, self.ctl.progress_sig()) {
                        break Err(stall_error(pus, watchdog.idle));
                    }
                    continue;
                }
            }
            match &mut pooled {
                Some(run) => pooled_cycle(run, &mut self.ctl),
                None => self.tick(),
            }
            if let Some(unit) = self.ctl.first_overflow {
                break Err(EngineRunError::Overflow { unit });
            }
            if self.ctl.stats.cycles - start > max_cycles {
                break Err(EngineRunError::Timeout { max_cycles });
            }
            if watchdog.stuck(self.ctl.progress_sig()) {
                let pus = pooled.as_ref().map_or(&self.pus, |run| &*run.shared);
                break Err(stall_error(pus, watchdog.idle));
            }
        };
        // Every exit hands the units their state back: the run's end,
        // an open run's suspend, a budget or watchdog stop.
        match pooled {
            Some(run) => run.end(self),
            None => self.lanes.evict_all(&mut self.units, 0),
        }
        self.flush_trace();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lanes::tests::{assert_matches_twin, busy_spec, engine, streams};
    use crate::{MemCtlConfig, SimThreads};

    /// A pooled re-split moves units between shards, so every shard
    /// stores its resident units back first: at each forced re-split no
    /// unit may stay resident and each holds its scalar twin's state,
    /// and the run still ends exactly where the twin does.
    #[test]
    fn pooled_resplit_evicts_and_stays_exact() {
        let spec = busy_spec();
        let s = streams(48, 600);
        let cfg = MemCtlConfig::default();
        let mut fast = engine(&spec, cfg, &s);
        let mut twin = engine(&spec, MemCtlConfig { lane_width: 1, ..cfg }, &s);
        let pool = SimPool::new(SimThreads::Fixed(4));
        let mut run = PooledRun::begin(&mut fast, &pool, 4);
        let (mut c, mut evicting) = (0u64, 0);
        while !fast.done() {
            pooled_cycle(&mut run, &mut fast.ctl);
            twin.tick();
            c += 1;
            if c % 50 == 0 {
                let shards = || run.slots.iter().map(|s| s.as_ref().expect("shard at home"));
                evicting += usize::from(shards().any(|ctx| (0..ctx.units.len()).any(|i| ctx.lanes.home(i).is_some())));
                resplit(&mut run.slots, run.k);
                for ctx in run.slots.iter().map(|s| s.as_ref().unwrap()) {
                    for (i, unit) in ctx.units.iter().enumerate() {
                        assert!(ctx.lanes.home(i).is_none(), "cycle {c}: unit {} stayed resident", ctx.base + i);
                        assert_eq!(unit.state(), twin.units[ctx.base + i].state(), "cycle {c}: unit {}", ctx.base + i);
                    }
                }
            }
            assert!(c < 1_000_000);
        }
        run.end(&mut fast);
        assert!(twin.done());
        assert!(evicting > 0, "no re-split found a resident unit");
        assert_matches_twin(&mut fast, &mut twin, "end");
        for p in 0..s.len() {
            assert_eq!(fast.output_bytes(p), twin.output_bytes(p), "unit {p} output");
        }
    }
}
