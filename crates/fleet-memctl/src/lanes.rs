//! Lane residency: which units sit in which persistent lane group.
//!
//! A unit that becomes lane-pending (a latched token, no evaluation
//! yet) on the per-unit path is noted as a joiner; the next cycle's
//! [`lane_preeval`] loads it into a [`PuExecBatch`] of its program, and
//! it stays there — its registers living in the group's plane — for as
//! long as it has an evaluation pending every cycle. It leaves (one
//! store back into its `UnitState`) at the first sweep it has no work
//! for: it slept on a back-pressured emission or a starved input,
//! finished, or went dead with a wedge. The engine also drops its
//! groups wholesale ([`LaneGroups::evict_all`]) before anything else
//! touches the units: at the end of a run (including an open run's
//! suspend) and before a naive tick.

use fleet_compiler::{PuExec, PuExecBatch, MAX_LANES};

use crate::engine::{output_ready_of, EvalParams, PuState};
use crate::unit::StreamUnit;

/// [`LaneGroups::home`] entry of a unit that is not resident.
const NO_LANE: u32 = u32::MAX;

/// One engine's lane groups and the residency bookkeeping around them.
#[derive(Debug, Default)]
pub(crate) struct LaneGroups {
    groups: Vec<PuExecBatch>,
    /// Per unit: `group * MAX_LANES + lane` while resident, [`NO_LANE`] otherwise. Sized at the first
    /// join.
    home: Vec<u32>,
    /// Units that left this cycle's per-unit step lane-pending but not
    /// resident, ascending: the next [`lane_preeval`] loads them.
    pub(crate) joiners: Vec<usize>,
}

impl LaneGroups {
    /// `(group, lane)` of unit `i`, if it is resident.
    #[inline]
    pub(crate) fn home(&self, i: usize) -> Option<(usize, usize)> {
        match self.home.get(i) {
            Some(&h) if h != NO_LANE => Some((h as usize / MAX_LANES, h as usize % MAX_LANES)),
            _ => None,
        }
    }

    /// The group with index `g`.
    #[inline]
    pub(crate) fn group_mut(&mut self, g: usize) -> &mut PuExecBatch {
        &mut self.groups[g]
    }

    /// Stores every resident unit back into its own state and forgets
    /// the pending joiners.
    pub(crate) fn evict_all<U: StreamUnit>(&mut self, units: &mut [U]) {
        let LaneGroups { groups, home, joiners } = self;
        for (g, group) in groups.iter_mut().enumerate() {
            while let Some(l) = group.len().checked_sub(1) {
                leave(group, g, l, units, home);
            }
        }
        joiners.clear();
    }
}

/// Stores lane `l` of group `g` back into its unit and records the
/// unit the compaction moved into the hole.
fn leave<U: StreamUnit>(
    group: &mut PuExecBatch,
    g: usize,
    l: usize,
    units: &mut [U],
    home: &mut [u32],
) {
    let p = group.ids()[l];
    let moved = group.leave(l, exec_mut(&mut units[p]));
    home[p] = NO_LANE;
    if let Some(m) = moved {
        home[m] = (g * MAX_LANES + l) as u32;
    }
}

/// The unit's executor; only units with one are ever noted as joiners.
fn exec_mut<U: StreamUnit>(unit: &mut U) -> &mut PuExec {
    unit.lane_exec_mut().expect("resident units have a lane executor")
}

/// The lane phase of a cycle, before the per-unit step: residency
/// upkeep, then one sweep per non-empty group ([`PuExecBatch::retire`]),
/// which commits each retiring lane's virtual cycle so the per-unit
/// [`eval_unit`](crate::engine::eval_unit) only has the fused
/// [`PuExec::clock_retired`] step left.
///
/// 1. **Leave.** Lanes with no evaluation pending store back, highest
///    lane first, so the lane compaction moves into each hole only a
///    lane that stays.
/// 2. **Join.** Lanes form only when at least two units are pending —
///    one would gain nothing over the per-unit path — so a lone
///    resident leaves and a lone joiner stays scalar. Otherwise each
///    joiner takes the first free lane of a group of its program (an
///    empty group of another program is rebuilt, or a group added).
/// 3. **Sweep** every group, with one `output_ready` bit per lane from
///    [`output_ready_of`] — the predicate the unit's pins are built
///    from, so a sweep retires exactly the handshakes the pins accept.
///
/// Bit-exactness is structural: a lane's evaluation reads only its
/// unit's latched `(state, input token, finished)` triple, and nothing
/// between this phase and the unit's own step in the same cycle mutates
/// it or the unit's `PuState`. Residency changes only where work is
/// done, never what it computes, so any grouping agrees on every bit
/// with the scalar path (lane width 1).
pub(crate) fn lane_preeval<U: StreamUnit>(
    units: &mut [U],
    pus: &[PuState],
    params: &EvalParams,
    lanes: &mut LaneGroups,
) {
    let width = params.lane_width;
    if width <= 1 {
        return; // batching off: joiners are never noted
    }
    let LaneGroups { groups, home, joiners } = lanes;
    for (g, group) in groups.iter_mut().enumerate() {
        let mut leaving = group.leaving();
        while leaving != 0 {
            let l = 63 - leaving.leading_zeros() as usize;
            leaving &= !(1 << l);
            leave(group, g, l, units, home);
        }
    }
    let resident: usize = groups.iter().map(PuExecBatch::len).sum();
    if resident + joiners.len() < 2 {
        if let Some(g) = groups.iter().position(|b| b.len() == 1) {
            leave(&mut groups[g], g, 0, units, home);
        }
        joiners.clear();
        return;
    }
    if !joiners.is_empty() && home.len() < units.len() {
        home.resize(units.len(), NO_LANE);
    }
    for &p in joiners.iter() {
        let x = exec_mut(&mut units[p]);
        debug_assert!(x.lane_pending() && !x.resident(), "joiner {p} changed since its step");
        let g = match groups.iter().position(|b| !b.is_full() && b.matches(x)) {
            Some(g) => g,
            None => {
                let fresh = PuExecBatch::for_unit(x, width);
                match groups.iter().position(PuExecBatch::is_empty) {
                    Some(g) => {
                        groups[g] = fresh;
                        g
                    }
                    None => {
                        groups.push(fresh);
                        groups.len() - 1
                    }
                }
            }
        };
        let l = groups[g].join(x, p);
        home[p] = (g * MAX_LANES + l) as u32;
    }
    joiners.clear();
    for group in groups.iter_mut().filter(|b| !b.is_empty()) {
        let mut output_ready = 0u64;
        for (l, &p) in group.ids().iter().enumerate() {
            output_ready |= u64::from(output_ready_of(&pus[p], params)) << l;
        }
        group.retire(output_ready);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use fleet_axi::{DramChannel, DramConfig, BEAT_BYTES};
    use fleet_compiler::{CompiledUnit, PuExec, Quiescence};
    use fleet_lang::{UnitBuilder, UnitSpec};

    use crate::{ChannelEngine, MemCtlConfig, OpenStep, StreamAssignment};

    /// Why a unit left its lane group, judged from the unit just before
    /// the sweep it left at.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) enum Why {
        /// Asleep on a back-pressured emission.
        OutputSleep,
        /// Idle with no token.
        InputSleep,
        /// Ran its cleanup execution.
        Finish,
        /// Its pins went dead.
        Wedge,
        /// Still pending, but the only one: the group dissolved.
        Alone,
    }

    /// A unit that keeps every kind of state busy: a register swap (`a`,
    /// `b` read each other's pre-cycle values), an accumulator, a BRAM
    /// histogram, and an emit on every other token.
    pub(crate) fn busy_spec() -> UnitSpec {
        let mut u = UnitBuilder::new("Busy", 8, 8);
        let (a, b) = (u.reg("a", 8, 1), u.reg("b", 8, 2));
        let acc = u.reg("acc", 16, 3);
        let hist = u.bram("hist", 16, 8);
        let inp = u.input();
        let nf = u.stream_finished().not_b();
        u.set(a, b.e());
        u.set(b, a + inp.clone());
        u.set(acc, acc + inp.clone());
        u.write(hist, inp.slice(3, 0), hist.read(inp.slice(3, 0)) + 1u64);
        u.if_(nf.and_b(inp.bit(0)), |u| u.emit(a.e() ^ b.e()));
        u.build().unwrap()
    }

    /// One channel of replicas of `spec`, unit `p` fed `streams[p]`.
    pub(crate) fn engine(
        spec: &UnitSpec,
        cfg: MemCtlConfig,
        streams: &[Vec<u8>],
    ) -> ChannelEngine<PuExec> {
        let align = |n: usize| n.div_ceil(BEAT_BYTES) * BEAT_BYTES;
        let in_total: usize = streams.iter().map(|s| align(s.len())).sum();
        let out_alloc = |s: &Vec<u8>| align(s.len()) + cfg.burst_bytes;
        let out_total: usize = streams.iter().map(out_alloc).sum();
        let mut dram = DramChannel::new(DramConfig::default(), in_total + out_total);
        let (mut in_at, mut out_at) = (0, in_total);
        let mut assigns = Vec::new();
        for s in streams {
            dram.mem_mut()[in_at..in_at + s.len()].copy_from_slice(s);
            assigns.push(StreamAssignment {
                in_start: in_at,
                in_len: s.len(),
                out_start: out_at,
                out_capacity: out_alloc(s),
            });
            in_at += align(s.len());
            out_at += out_alloc(s);
        }
        let unit = CompiledUnit::new(spec);
        ChannelEngine::new(
            cfg,
            dram,
            streams.iter().map(|_| unit.replicate()).collect(),
            assigns,
            1,
            1,
        )
    }

    /// `n` streams of distinct content and length.
    pub(crate) fn streams(n: usize, bytes: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|p| (0..bytes + 37 * p % 200).map(|i| (i * 7 + p * 13 + i / 5) as u8).collect())
            .collect()
    }

    fn classify(eng: &ChannelEngine<PuExec>, p: usize) -> Option<Why> {
        let x = &eng.units[p];
        Some(if eng.pus[p].wedged {
            Why::Wedge
        } else if x.finished() {
            Why::Finish
        } else {
            match x.quiescence() {
                Quiescence::UntilOutput => Why::OutputSleep,
                Quiescence::UntilInput => Why::InputSleep,
                Quiescence::None if x.lane_pending() => Why::Alone,
                Quiescence::None => return None,
            }
        })
    }

    /// Asserts that every unit of `fast` that is not resident in a lane
    /// group holds exactly its scalar twin's state, and that every
    /// unit's cycle counters match (accounting flushed on both).
    pub(crate) fn assert_matches_twin(
        fast: &mut ChannelEngine<PuExec>,
        twin: &mut ChannelEngine<PuExec>,
        at: &str,
    ) {
        fast.flush_trace();
        twin.flush_trace();
        for p in 0..fast.len() {
            let (f, t) = (&fast.units[p], &twin.units[p]);
            assert_eq!(f.resident(), fast.lanes.home(p).is_some(), "{at}: unit {p} residency");
            assert!(!t.resident(), "{at}: the twin never batches");
            if !f.resident() {
                assert_eq!(f.state(), t.state(), "{at}: unit {p} state");
            }
            assert_eq!(
                (f.cycles(), f.vcycles()),
                (t.cycles(), t.vcycles()),
                "{at}: unit {p} cycles"
            );
            assert_eq!(f.counters(), t.counters(), "{at}: unit {p} cycle classes");
        }
    }

    /// Ticks `fast` and its scalar twin (the same engine at lane width 1)
    /// in lockstep for up to `max` cycles or until both are done,
    /// checking them against each other after every cycle; returns why
    /// each unit that left a lane group left.
    fn lockstep(
        fast: &mut ChannelEngine<PuExec>,
        twin: &mut ChannelEngine<PuExec>,
        max: u64,
    ) -> Vec<Why> {
        let mut left = Vec::new();
        for c in 0..max {
            if fast.done() && twin.done() {
                break;
            }
            let before: Vec<Option<Why>> = (0..fast.len())
                .map(|p| fast.lanes.home(p).and_then(|_| classify(fast, p)))
                .collect();
            fast.tick();
            twin.tick();
            for (p, why) in before.into_iter().enumerate() {
                if fast.lanes.home(p).is_none() {
                    left.extend(why);
                }
            }
            assert_matches_twin(fast, twin, &format!("cycle {c}"));
        }
        left
    }

    fn twins(
        cfg: MemCtlConfig,
        streams: &[Vec<u8>],
    ) -> (ChannelEngine<PuExec>, ChannelEngine<PuExec>) {
        let spec = busy_spec();
        (engine(&spec, cfg, streams), engine(&spec, MemCtlConfig { lane_width: 1, ..cfg }, streams))
    }

    #[test]
    fn back_pressured_sleep_leaves_with_its_state() {
        // One output register and a one-burst buffer for 40 emitting
        // units: emissions back up and units sleep on them.
        let cfg = MemCtlConfig {
            burst_registers: 1,
            output_buffer_bytes: 128,
            ..MemCtlConfig::default()
        };
        let (mut fast, mut twin) = twins(cfg, &streams(40, 600));
        let left = lockstep(&mut fast, &mut twin, 2_000_000);
        assert!(fast.done() && twin.done());
        assert!(
            left.contains(&Why::OutputSleep),
            "no unit left on a back-pressured emission: {left:?}"
        );
    }

    #[test]
    fn starved_sleep_and_finish_leave_with_their_state() {
        // 96 units want 96 B/cycle from a 64 B/cycle bus: they starve and
        // sleep; streams of different lengths finish apart.
        let (mut fast, mut twin) = twins(MemCtlConfig::default(), &streams(96, 400));
        let left = lockstep(&mut fast, &mut twin, 2_000_000);
        assert!(fast.done() && twin.done());
        assert!(left.contains(&Why::InputSleep), "no unit left starved: {left:?}");
        assert!(left.contains(&Why::Finish), "no unit left finished: {left:?}");
    }

    #[test]
    fn wedged_units_leave_with_their_state() {
        let (mut fast, mut twin) = twins(MemCtlConfig::default(), &streams(12, 800));
        for p in [1, 4, 5, 9] {
            fast.set_wedge(p, 90 + p as u64);
            twin.set_wedge(p, 90 + p as u64);
        }
        let left = lockstep(&mut fast, &mut twin, 20_000);
        assert!(left.contains(&Why::Wedge), "no wedged unit left: {left:?}");
        assert_eq!(fast.wedged_units(), 4);
        assert!(
            [1, 4, 5, 9].iter().all(|&p| fast.lanes.home(p).is_none()),
            "a wedged unit stayed resident"
        );
    }

    #[test]
    fn open_run_suspends_mid_episode_and_resumes() {
        // Appends arrive a chunk at a time; every suspend is a drive end,
        // which must hand every unit its state back.
        let spec = busy_spec();
        let full = streams(10, 900);
        let empty: Vec<Vec<u8>> = full.iter().map(|_| Vec::new()).collect();
        let cfg = MemCtlConfig::default();
        let mut fast = engine(&spec, cfg, &full);
        let mut twin = engine(&spec, MemCtlConfig { lane_width: 1, ..cfg }, &full);
        for eng in [&mut fast, &mut twin] {
            // Re-lay the same regions out as open streams, empty so far.
            for (p, s) in full.iter().enumerate() {
                let a = eng.assignment(p);
                eng.pus[p].assign.in_len = 0;
                eng.set_stream_open(p, a.in_start + s.len());
            }
            for p in 0..empty.len() {
                eng.ctl.update_in_eligible(p, &mut eng.pus);
            }
        }
        let mut fed = vec![0usize; full.len()];
        let (mut suspends, mut mid_episode) = (0, 0);
        for round in 0.. {
            for (eng, s) in [(&mut fast, &full), (&mut twin, &full)] {
                for p in 0..s.len() {
                    let to = (fed[p] + 160 + 29 * p).min(s[p].len());
                    if to > eng.stream_len(p) {
                        let from = eng.stream_len(p);
                        eng.append_stream(p, &s[p][from..to]);
                    }
                    if to == s[p].len() && eng.stream_open(p) {
                        eng.close_stream(p).unwrap();
                    }
                }
            }
            for (p, s) in full.iter().enumerate() {
                fed[p] = (fed[p] + 160 + 29 * p).min(s.len());
            }
            let a = fast.run_channel_open(10_000_000).unwrap();
            let b = twin.run_channel_open(10_000_000).unwrap();
            assert_eq!(a, b, "round {round}");
            assert!(
                (0..fast.len()).all(|p| fast.lanes.home(p).is_none()),
                "a drive ended with residents"
            );
            mid_episode += (0..fast.len()).filter(|&p| fast.units[p].lane_pending()).count();
            assert_matches_twin(&mut fast, &mut twin, &format!("suspend {round}"));
            match a {
                OpenStep::Suspended(_) => suspends += 1,
                OpenStep::Done(_) => break,
            }
        }
        assert!(
            suspends > 2 && mid_episode > 0,
            "{suspends} suspends, {mid_episode} pending at suspend"
        );
        for p in 0..full.len() {
            assert_eq!(fast.output_bytes(p), twin.output_bytes(p));
        }
    }

    #[test]
    fn naive_ticks_interleave_with_resident_lanes() {
        let (mut fast, mut twin) = twins(MemCtlConfig::default(), &streams(16, 700));
        let mut c = 0u64;
        while !fast.done() {
            // Bursts of fast ticks, each ended by a naive tick that must
            // first hand every resident unit its state back.
            let naive = c % 37 == 36;
            let had_residents = (0..fast.len()).any(|p| fast.lanes.home(p).is_some());
            if naive {
                fast.tick_naive();
                twin.tick_naive();
                assert!((0..fast.len()).all(|p| fast.lanes.home(p).is_none()));
                c += u64::from(had_residents) << 32;
            } else {
                fast.tick();
                twin.tick();
            }
            assert_matches_twin(&mut fast, &mut twin, &format!("cycle {}", c & 0xffff_ffff));
            c += 1;
            assert!(c & 0xffff_ffff < 1_000_000);
        }
        assert!(c >> 32 > 0, "no naive tick ever found a resident unit");
        assert!(twin.done());
    }
}
