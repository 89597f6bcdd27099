//! `PuExec`: a fast, cycle-exact executor for compiled processing units.
//!
//! Full-system simulation replicates a unit hundreds of times; evaluating
//! every netlist node per copy per cycle would dominate run time, so this
//! executor interprets the *program* once per virtual cycle while
//! reproducing the exact external behaviour of the netlist produced by
//! [`compile`](crate::compile): the same ready-valid handshakes on the
//! same cycles, the same priority semantics for multiple writes/emits,
//! and the same `stream_finished` cleanup execution. Equivalence is
//! enforced by the cross-check integration tests (the paper's §6
//! infrastructure).
//!
//! The split [`PuExec::comb`] / [`PuExec::clock`] API mirrors a clocked
//! circuit: `comb` computes outputs from pre-edge state, `clock` commits.
//! Handshake inputs must be computed from the *caller's* pre-edge state
//! (registered handshakes), which is how the memory controller operates.

use std::sync::Arc;

use fleet_isim::{PackedProg, PendingWrites, Slot, SsaGuardedOp, SsaOp, SsaProg, UnitState};
use fleet_lang::{mask, UnitSpec};
use fleet_trace::{CycleClass, PuCycleCounters};

/// Input port values for one cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PuIn {
    /// Current input token (must be 0 when `input_valid` is false).
    pub input_token: u64,
    /// Token valid.
    pub input_valid: bool,
    /// Asserted from the cycle after the last token handshake, forever.
    pub input_finished: bool,
    /// Downstream ready to accept an output token.
    pub output_ready: bool,
}

/// Output port values for one cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PuOut {
    /// Unit ready to accept a token this cycle.
    pub input_ready: bool,
    /// Emitted token (0 when `output_valid` is false).
    pub output_token: u64,
    /// Token emission valid.
    pub output_valid: bool,
    /// Asserted once processing is fully complete.
    pub output_finished: bool,
}

/// One virtual cycle's evaluation, cached across stall cycles. The
/// cycle's state writes are not part of it: they wait in
/// [`PuExec::scratch`], or are already in the unit's state when a lane
/// sweep retired the cycle ([`PuExecBatch::retire`]).
#[derive(Debug, Clone, Copy)]
struct VcycleEval {
    loop_active: bool,
    emit: Option<u64>,
}

/// What a unit is provably waiting on after a clock edge.
///
/// Reported by [`PuExec::quiescence`] so the channel engine can skip
/// re-evaluating a unit whose pins cannot produce a different outcome
/// until the named external condition changes. The engine still
/// accounts every skipped cycle exactly (bulk increments on wake-up).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quiescence {
    /// Not quiescent: the unit makes progress every cycle and must be
    /// evaluated.
    None,
    /// Idle with no pending work: nothing changes until `input_valid`
    /// or `input_finished` is asserted.
    UntilInput,
    /// A pending emission is back-pressured: nothing changes until
    /// `output_ready` is asserted.
    UntilOutput,
}

/// A unit program compiled and validated once, shareable across
/// hundreds of replicas.
///
/// [`PuExec::new`] revalidates the spec and rebuilds the SSA program on
/// every call; full-system simulation replicates the same unit once per
/// stream, so compile once into a `CompiledUnit` and stamp out replicas
/// with [`PuExec::from_compiled`] (or [`CompiledUnit::replicate`]) —
/// the program and spec are behind `Arc`s, so a replica costs only the
/// mutable state.
#[derive(Debug, Clone)]
pub struct CompiledUnit {
    spec: Arc<UnitSpec>,
    /// Seed-faithful reference program: every expression node swept
    /// every virtual cycle.
    ssa: Arc<SsaProg>,
    /// Optimized program (constant folding, guard pre-combining, dead
    /// node elimination); computes identical values with a much smaller
    /// per-cycle sweep. The default evaluation path.
    opt: Arc<SsaProg>,
    /// The optimized program's node sweep re-encoded as flat pre-masked
    /// instructions ([`PackedProg`]); shares `opt`'s slot numbering.
    packed: Arc<PackedProg>,
    reset: UnitState,
    /// Whether every value that can ever enter a lane-batched
    /// evaluation plane for this unit fits in 32 bits, making the
    /// narrow ([`u32`]) plane bit-exact (see [`CompiledUnit::from_arc`]
    /// for the proof obligations).
    plane32: bool,
}

impl CompiledUnit {
    /// Validates and compiles `spec` once.
    ///
    /// # Panics
    ///
    /// Panics if the unit fails validation; validate with
    /// [`fleet_lang::validate()`] (or build via `UnitBuilder`) first.
    pub fn new(spec: &UnitSpec) -> CompiledUnit {
        CompiledUnit::from_arc(Arc::new(spec.clone()))
    }

    /// Like [`CompiledUnit::new`], but takes an already-shared spec
    /// without cloning it (the serving runtime holds `Arc<UnitSpec>`s).
    ///
    /// # Panics
    ///
    /// Panics if the unit fails validation.
    pub fn from_arc(spec: Arc<UnitSpec>) -> CompiledUnit {
        fleet_lang::validate(&spec).expect("CompiledUnit requires a validated unit");
        let ssa = Arc::new(SsaProg::build(&spec));
        let opt = Arc::new(ssa.optimized(&spec));
        let packed = Arc::new(PackedProg::new(&opt));
        let reset = UnitState::reset(&spec);
        // Narrow-plane admissibility. Combined with
        // [`PackedProg::fits_u32`] (no instruction can *produce* a
        // value above 32 bits), these checks close the loop on every
        // other value source: input tokens (token width), committed
        // state (write widths and reset values), and the seeded
        // constant rows. Under them the u32 plane sweep is
        // bit-identical to the u64 one for any reachable state.
        let plane32 = packed.fits_u32()
            && spec.input_token_bits <= 32
            && spec.regs.iter().all(|r| r.width <= 32 && r.init <= u64::from(u32::MAX))
            && spec.vec_regs.iter().all(|v| v.width <= 32 && v.init <= u64::from(u32::MAX))
            && spec.brams.iter().all(|b| b.data_width <= 32)
            && opt.seed_vals().iter().all(|&v| v <= u64::from(u32::MAX))
            && opt.ops.iter().all(|op| match &op.op {
                SsaOp::SetReg { width, .. } | SsaOp::SetVecReg { width, .. } => *width <= 32,
                SsaOp::BramWrite { dw, .. } => *dw <= 32,
                SsaOp::Emit { .. } => true,
            });
        CompiledUnit { spec, ssa, opt, packed, reset, plane32 }
    }

    /// The unit specification this program was compiled from.
    pub fn spec(&self) -> &UnitSpec {
        &self.spec
    }

    /// The shared spec handle.
    pub fn spec_arc(&self) -> &Arc<UnitSpec> {
        &self.spec
    }

    /// Stamps out one executor replica sharing this compiled program.
    pub fn replicate(&self) -> PuExec {
        PuExec::from_compiled(self)
    }
}

/// Fast executor with the compiled unit's cycle-level interface.
///
/// The program is compiled once into a linear SSA node vector
/// ([`SsaProg`]) and swept per virtual cycle — the same evaluation shape
/// as the netlist simulator, without per-node hashing.
#[derive(Debug, Clone)]
pub struct PuExec {
    /// Seed-faithful reference program (full per-cycle sweep).
    ssa: Arc<SsaProg>,
    /// Optimized program; the default evaluation path.
    opt: Arc<SsaProg>,
    /// Flat pre-masked encoding of `opt`'s node sweep — what the
    /// default path actually executes per virtual cycle.
    packed: Arc<PackedProg>,
    /// When set, virtual cycles evaluate through the reference program
    /// instead of the optimized one. Both are cycle-exact; the flag
    /// only selects the cost profile (see
    /// [`PuExec::set_reference_eval`]).
    reference: bool,
    vals: Vec<u64>,
    /// The cached virtual cycle's uncommitted state writes; empty
    /// whenever `cached` is `None` or `retired` is set.
    scratch: PendingWrites,
    state: UnitState,
    i: u64,
    v: bool,
    f: bool,
    cached: Option<VcycleEval>,
    /// A lane sweep already wrote `cached`'s state writes into `state`
    /// and its output handshake is known to succeed: the unit's next
    /// step is [`PuExec::clock_retired`], in the same engine cycle.
    retired: bool,
    cycles: u64,
    vcycles: u64,
    counters: PuCycleCounters,
    /// Inherited narrow-plane admissibility (see [`CompiledUnit`]).
    plane32: bool,
}

impl PuExec {
    /// Creates an executor with reset state.
    ///
    /// # Panics
    ///
    /// Panics if the unit fails validation; validate with
    /// [`fleet_lang::validate()`] (or build via `UnitBuilder`) first.
    pub fn new(spec: &UnitSpec) -> PuExec {
        PuExec::from_compiled(&CompiledUnit::new(spec))
    }

    /// Creates an executor with reset state from an already-compiled
    /// program, sharing the SSA node vector instead of rebuilding it.
    ///
    /// Replicating a unit across hundreds of PUs this way skips the
    /// per-replica validation + compilation that dominated system setup.
    pub fn from_compiled(unit: &CompiledUnit) -> PuExec {
        PuExec {
            vals: unit.opt.seed_vals(),
            ssa: Arc::clone(&unit.ssa),
            opt: Arc::clone(&unit.opt),
            packed: Arc::clone(&unit.packed),
            reference: false,
            scratch: PendingWrites::default(),
            state: unit.reset.clone(),
            i: 0,
            v: false,
            f: false,
            cached: None,
            retired: false,
            cycles: 0,
            vcycles: 0,
            counters: PuCycleCounters::default(),
            plane32: unit.plane32,
        }
    }

    /// Clock cycles elapsed.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Virtual cycles completed.
    pub fn vcycles(&self) -> u64 {
        self.vcycles
    }

    /// Cycle classification from the unit's own perspective: busy
    /// (committed a virtual cycle), stalled on output, waiting for
    /// input, or drained. One class per [`PuExec::clock`], so
    /// `counters().total() == cycles()`.
    pub fn counters(&self) -> PuCycleCounters {
        self.counters
    }

    /// Unit state (testing/inspection).
    pub fn state(&self) -> &UnitState {
        &self.state
    }

    /// Selects the evaluation path: `true` sweeps the seed-faithful
    /// reference program, `false` (the default) the optimized one.
    ///
    /// Both compute identical virtual cycles — emissions, state writes,
    /// handshakes — so this only changes the simulator's *cost*, never
    /// its behaviour. The naive engine tick drives units through the
    /// reference path so throughput comparisons measure the real
    /// pre-optimization cost profile.
    pub fn set_reference_eval(&mut self, reference: bool) {
        if reference != self.reference {
            self.reference = reference;
            // The two programs have different slot layouts and baked
            // constants; restart from the right seed buffer.
            let prog = if reference { &self.ssa } else { &self.opt };
            self.vals.clear();
            self.vals.extend_from_slice(&prog.seed_vals());
        }
    }

    /// Whether virtual cycles currently evaluate through the reference
    /// program.
    pub fn reference_eval(&self) -> bool {
        self.reference
    }

    // Inlined across the crate boundary with `comb`/`clock`: at one
    // active unit per engine cycle (sessions) the call itself shows.
    #[inline]
    fn eval_vcycle(&mut self) -> VcycleEval {
        if let Some(ev) = self.cached {
            return ev;
        }
        // The packed encoding shares `opt`'s slot numbering, so
        // `opt`'s loop conditions and ops read its buffer directly.
        let prog = if self.reference { &self.ssa } else { &self.opt };
        if self.reference {
            prog.eval(&self.state, self.i, self.f, &mut self.vals);
        } else {
            self.packed.eval(&self.state, self.i, self.f, &mut self.vals);
        }
        let loop_active = prog.any_loop(&self.vals);
        let vals = &self.vals;
        let emit =
            walk_ops(prog, &self.state, loop_active, |s| vals[s as usize], &mut self.scratch);
        let ev = VcycleEval { loop_active, emit };
        self.cached = Some(ev);
        ev
    }

    /// Whether this unit is waiting for exactly the work a lane-batched
    /// sweep provides: a latched token (or cleanup execution) with no
    /// cached evaluation yet, on the optimized/packed path.
    ///
    /// Such a unit's next [`PuExec::comb`]/[`PuExec::clock`] would run
    /// the packed instruction sweep and, if its handshake succeeds,
    /// commit the result; [`PuExecBatch::retire`] does both for a whole
    /// lane group, so batching is externally unobservable.
    #[inline]
    pub fn lane_pending(&self) -> bool {
        self.v && self.cached.is_none() && !self.reference
    }

    /// Whether a lane sweep retired this unit's virtual cycle and
    /// [`PuExec::clock_retired`] has not yet taken it. Never true
    /// across an engine cycle boundary.
    #[inline]
    pub fn lane_retired(&self) -> bool {
        self.retired
    }

    /// [`PuExec::comb`] and [`PuExec::clock`] fused for a virtual cycle
    /// that [`PuExecBatch::retire`] already committed: accounts the
    /// cycle, latches the next token when the cycle consumed its own,
    /// and returns the cycle's outputs. `None` (and no effect) when the
    /// unit was not retired this cycle. `pins` must be the cycle's
    /// pins, with the `output_ready` the sweep was given.
    #[inline]
    pub fn clock_retired(&mut self, pins: &PuIn) -> Option<PuOut> {
        if !self.retired {
            return None;
        }
        self.retired = false;
        let ev = self.cached.take().expect("retired lanes carry their evaluation");
        debug_assert!(ev.emit.is_none() || pins.output_ready, "retired a refused handshake");
        self.cycles += 1;
        self.counters.add(CycleClass::Busy);
        self.vcycles += 1;
        if !ev.loop_active {
            self.latch(pins);
        }
        Some(PuOut {
            input_ready: !ev.loop_active,
            output_token: ev.emit.unwrap_or(0),
            output_valid: ev.emit.is_some(),
            output_finished: false,
        })
    }

    /// `input_ready` was asserted: accept the next token, start the
    /// cleanup execution, or go idle.
    #[inline]
    fn latch(&mut self, pins: &PuIn) {
        self.v = pins.input_valid || (!self.f && pins.input_finished);
        self.f = self.f || pins.input_finished;
        self.i = if pins.input_valid { pins.input_token } else { 0 };
    }

    /// Combinational outputs for this cycle (no state change besides the
    /// internal evaluation cache).
    #[inline]
    pub fn comb(&mut self, pins: &PuIn) -> PuOut {
        if !self.v {
            return PuOut {
                input_ready: true,
                output_token: 0,
                output_valid: false,
                output_finished: !self.v && self.f,
            };
        }
        let out_ready = pins.output_ready;
        let ev = self.eval_vcycle();
        let output_valid = ev.emit.is_some();
        let while_done = !ev.loop_active;
        let handshake_ok = !output_valid || out_ready;
        PuOut {
            input_ready: while_done && handshake_ok,
            output_token: ev.emit.unwrap_or(0),
            output_valid,
            output_finished: false,
        }
    }

    /// Clock edge: commits the virtual cycle when it finishes and latches
    /// a new token / the finish flag when `input_ready`.
    #[inline]
    pub fn clock(&mut self, pins: &PuIn) {
        debug_assert!(!self.retired, "a retired lane steps through clock_retired");
        self.cycles += 1;
        if self.v {
            let ev = self.eval_vcycle();
            let handshake_ok = ev.emit.is_none() || pins.output_ready;
            self.counters.add(if handshake_ok {
                CycleClass::Busy
            } else {
                CycleClass::StallOut
            });
            if handshake_ok {
                self.scratch.commit(&mut self.state);
                self.scratch.clear();
                self.cached = None;
                self.vcycles += 1;
                // A continuing loop re-evaluates next cycle from the
                // state just committed.
                if !ev.loop_active {
                    self.latch(pins);
                }
            }
        } else {
            // Idle: input_ready is high.
            self.counters.add(if self.f {
                CycleClass::Drained
            } else {
                CycleClass::StallIn
            });
            self.latch(pins);
        }
    }

    /// Convenience: `comb` then `clock`, returning the outputs.
    pub fn tick(&mut self, pins: &PuIn) -> PuOut {
        let out = self.comb(pins);
        self.clock(pins);
        out
    }

    /// Whether the unit has fully finished (output side).
    pub fn finished(&self) -> bool {
        !self.v && self.f
    }

    /// What the unit is provably waiting on, judged from post-edge state.
    ///
    /// `UntilInput` means the unit is idle with nothing latched: every
    /// subsequent [`PuExec::tick`] with `!input_valid && !input_finished`
    /// is a pure `StallIn` cycle. `UntilOutput` means a fully-evaluated
    /// virtual cycle is blocked on an emission: every subsequent tick
    /// with `!output_ready` is a pure `StallOut` cycle holding
    /// `output_valid` with the same token. Either way the pins the unit
    /// drives are constant, so a simulator may skip re-evaluation and
    /// account the skipped span with [`PuExec::skip_cycles`].
    #[inline]
    pub fn quiescence(&self) -> Quiescence {
        if self.v {
            if self.cached.is_some() {
                // A cached evaluation survives `clock` only when its
                // emission was back-pressured (the StallOut path).
                Quiescence::UntilOutput
            } else {
                Quiescence::None
            }
        } else if self.f {
            // Finished: drained cycles, handled by the caller.
            Quiescence::None
        } else {
            Quiescence::UntilInput
        }
    }

    /// Accounts `n` skipped cycles in bulk, as if [`PuExec::clock`] had
    /// run `n` times under the quiescent condition reported by
    /// [`PuExec::quiescence`] (which must not be `None`).
    pub fn skip_cycles(&mut self, n: u64) {
        self.cycles += n;
        self.counters.add_n(
            if self.v { CycleClass::StallOut } else { CycleClass::StallIn },
            n,
        );
    }

    /// Drives the executor over a whole token stream with no stalls,
    /// returning the emitted tokens and total cycles. Used by tests and
    /// single-unit benchmarks.
    pub fn run_stream(spec: &UnitSpec, tokens: &[u64]) -> (Vec<u64>, u64) {
        let mut pu = PuExec::new(spec);
        let mut out = Vec::new();
        let mut pos = 0usize;
        let mut guard = 0u64;
        let limit = 1_000_000_000u64;
        while !pu.finished() {
            let pins = PuIn {
                input_token: if pos < tokens.len() { tokens[pos] } else { 0 },
                input_valid: pos < tokens.len(),
                input_finished: pos >= tokens.len(),
                output_ready: true,
            };
            let o = pu.tick(&pins);
            if o.output_valid {
                out.push(o.output_token);
            }
            if o.input_ready && pins.input_valid {
                pos += 1;
            }
            guard += 1;
            assert!(guard < limit, "run_stream did not terminate");
        }
        (out, pu.cycles())
    }
}

/// Walks the program's guarded operations for one virtual cycle,
/// reading evaluated slot values through `get`, filling `pending` with
/// the cycle's state writes and returning the emitted token (if any).
///
/// Shared by the per-unit path (reading the unit's own `vals` buffer)
/// and the lane-batched path (reading one lane's column of a
/// [`PuExecBatch`] plane), so both produce the same [`VcycleEval`] by
/// construction.
fn walk_ops(
    prog: &SsaProg,
    state: &UnitState,
    loop_active: bool,
    get: impl Fn(Slot) -> u64,
    pending: &mut PendingWrites,
) -> Option<u64> {
    let mut emit = None;
    for op in &prog.ops {
        if op.in_loop != loop_active || op.guards.iter().any(|&g| get(g) == 0) {
            continue;
        }
        match &op.op {
            SsaOp::SetReg { reg, width, val } => {
                // Priority: the first active assignment wins, like
                // the compiled priority mux.
                let r = *reg as usize;
                if !pending.regs.iter().any(|(idx, _)| *idx == r) {
                    pending.regs.push((r, mask(get(*val), *width)));
                }
            }
            SsaOp::SetVecReg { vr, width, idx, val } => {
                let v = *vr as usize;
                let elements = state.vec_regs[v].len();
                let i = get(*idx) as usize;
                if i >= elements {
                    // Out-of-range index selects no element, like
                    // the compiled per-element write decoders.
                    continue;
                }
                if !pending.vec_regs.iter().any(|(w, e, _)| *w == v && *e == i) {
                    pending.vec_regs.push((v, i, mask(get(*val), *width)));
                }
            }
            SsaOp::BramWrite { bram, aw, dw, addr, val } => {
                let b = *bram as usize;
                if !pending.brams.iter().any(|(idx, _, _)| *idx == b) {
                    pending.brams.push((b, mask(get(*addr), *aw), mask(get(*val), *dw)));
                }
            }
            SsaOp::Emit { val, width } => {
                if emit.is_none() {
                    emit = Some(mask(get(*val), *width));
                }
            }
        }
    }
    emit
}

/// Most lanes one [`PuExecBatch`] holds: the guarded-op walk keeps its
/// firing, written and loop-phase lane sets in one `u64` bitmask each.
pub const MAX_LANES: usize = 64;

/// A lane-major evaluation plane shared by up to `width` replicas of
/// one compiled program — the SIMD half of the simulator hot path.
///
/// All replicas of a [`CompiledUnit`] execute the *same*
/// [`PackedProg`]; a batch sweeps one instruction across every enrolled
/// lane before moving to the next ([`PackedProg::eval_lanes`]), turning
/// the per-unit interpreter dispatch into dense per-row arithmetic the
/// compiler vectorizes. Wedged/stalled/drained units are masked off by
/// never enrolling them ([`PuExec::lane_pending`] is the gate);
/// divergent guards cost nothing because each lane owns a full column
/// of the plane. The sweep *retires* the virtual cycle
/// ([`PuExecBatch::retire`]): it owns the lanes mutably and writes
/// their state itself, so a batch carries no per-lane results.
///
/// The plane's constant rows (slots below the program's first written
/// slot) are seeded once at construction and never rewritten, so a
/// batch is reusable across engine cycles and lane-group compositions.
#[derive(Debug)]
pub struct PuExecBatch {
    opt: Arc<SsaProg>,
    packed: Arc<PackedProg>,
    width: usize,
    /// Lane-major values: slot `s`, lane `l` at `plane[s * width + l]`.
    plane: LanePlane,
    /// Reusable per-sweep gather buffers.
    inputs: Vec<u64>,
    finished: Vec<bool>,
    /// Distinct guard slots referenced across `opt.ops`; each sweep
    /// packs every distinct guard row into a lane bitmask exactly once,
    /// however many ops it gates.
    guard_slots: Vec<Slot>,
    /// Per-op guard lists as indices into `guard_slots` (parallel to
    /// `opt.ops`).
    op_guards: Vec<Vec<u32>>,
    /// Per-sweep packed lane bitmasks, parallel to `guard_slots`.
    guard_masks: Vec<u64>,
    /// Lanes that already wrote each register / BRAM this sweep — the
    /// first-write-wins dedup transposed into one mask AND per op, so
    /// repeat writers skip already-written lanes without visiting them.
    reg_lanes: Vec<u64>,
    bram_lanes: Vec<u64>,
    /// Vector registers more than one op writes: only their writes are
    /// logged in `vec_written` (`(lane, register, element)`, per sweep)
    /// for the per-element first-write-wins check; a register with one
    /// writer cannot collide.
    vec_multi: Vec<bool>,
    vec_written: Vec<(usize, usize, usize)>,
}

/// Backing storage for a batch's lane-major value plane.
///
/// The narrow form is selected per compiled unit when
/// [`CompiledUnit`]'s admissibility proof holds: it halves the plane's
/// cache footprint (a 512-PU JSON channel's 32-lane plane drops from
/// ~45 KB to ~22 KB, inside L1) and doubles the lanes per SIMD
/// register in both the instruction sweep and the guarded-op walk.
#[derive(Debug)]
enum LanePlane {
    /// Full-width `u64` columns — always valid.
    Wide(Vec<u64>),
    /// Narrow `u32` columns — bit-exact only under the unit's
    /// narrow-plane proof.
    Narrow(Vec<u32>),
}

/// Column element of a lane-major evaluation plane: lets the
/// guarded-op walk run over either plane width from one body.
trait LaneVal: Copy {
    /// The value as the architectural `u64` it represents.
    fn widen(self) -> u64;
}

impl LaneVal for u64 {
    #[inline]
    fn widen(self) -> u64 {
        self
    }
}

impl LaneVal for u32 {
    #[inline]
    fn widen(self) -> u64 {
        u64::from(self)
    }
}

/// Packs a row's nonzero test into a lane bitmask (bit `l` = lane `l`),
/// eight lanes at a time: the fixed-size inner loop compiles to a vector
/// compare plus a movemask, where one shift-and-OR per lane is a serial
/// dependency chain through the mask.
#[inline]
fn nonzero_mask<T: LaneVal>(row: &[T]) -> u64 {
    debug_assert!(row.len() <= MAX_LANES);
    let mut m = 0u64;
    let mut chunks = row.chunks_exact(8);
    for (c, chunk) in chunks.by_ref().enumerate() {
        let mut byte = 0u8;
        for (i, &v) in chunk.iter().enumerate() {
            byte |= u8::from(v.widen() != 0) << i;
        }
        m |= u64::from(byte) << (8 * c);
    }
    let done = row.len() - chunks.remainder().len();
    for (i, &v) in chunks.remainder().iter().enumerate() {
        m |= u64::from(v.widen() != 0) << (done + i);
    }
    m
}

/// The architectural state of the unit in lane `l`.
#[inline]
fn lane_state<'a>(lanes: &'a mut [Option<&mut PuExec>], l: usize) -> &'a mut UnitState {
    &mut lanes[l].as_deref_mut().expect("every swept lane is enrolled").state
}

/// Caller-owned scratch and precomputed tables for
/// [`retire_lane_rows`], all recycled across sweeps (see the matching
/// [`PuExecBatch`] fields for the invariants).
struct WalkTables<'a> {
    guard_slots: &'a [Slot],
    op_guards: &'a [Vec<u32>],
    guard_masks: &'a mut [u64],
    reg_lanes: &'a mut [u64],
    bram_lanes: &'a mut [u64],
    vec_multi: &'a [bool],
    vec_written: &'a mut Vec<(usize, usize, usize)>,
}

/// The guarded-op walk of [`PuExecBatch::retire`], op-major over the
/// swept plane's rows: for each lane the outcome is identical to
/// running [`walk_ops`] on that lane's column and committing it (same
/// op order, same first-write-wins merges, same out-of-range
/// vector-write skip), restructured around lane bitmasks. Each distinct
/// guard row is packed into a 64-bit lane mask once per sweep; an op's
/// firing set is then the AND of its guard masks with the loop-phase
/// mask, and first-write-wins dedup is a transposed per-target
/// "already-written lanes" mask — so ops that fire nowhere, lanes an
/// op skips, and writes that lost the first-write race all cost no
/// per-lane work at all.
///
/// The emits are resolved first, because they decide who retires: a
/// lane whose handshake [`PuExec::clock`] would accept this cycle
/// (`!emitted | output_ready`) has its writes stored straight into its
/// state — every value in the plane was computed from pre-cycle state,
/// so storing them one by one is the simultaneous commit — and is left
/// for [`PuExec::clock_retired`]. A back-pressured lane instead gets
/// its column walked into its own scratch, the evaluation
/// [`PuExec::comb`] would have cached, and stalls on it as usual.
fn retire_lane_rows<T: LaneVal>(
    opt: &SsaProg,
    plane: &[T],
    width: usize,
    lanes: &mut [Option<&mut PuExec>],
    output_ready: u64,
    tables: WalkTables<'_>,
) {
    let n = lanes.len();
    assert!(n <= MAX_LANES, "lane group exceeds the walk's lane bitmask");
    let row = |s: Slot| &plane[s as usize * width..s as usize * width + n];
    let full: u64 = if n >= MAX_LANES { u64::MAX } else { (1u64 << n) - 1 };

    let loop_mask = opt.loop_conds.iter().fold(0u64, |m, &s| m | nonzero_mask(row(s)));
    for (gm, &g) in tables.guard_masks.iter_mut().zip(tables.guard_slots) {
        *gm = nonzero_mask(row(g));
    }
    let guard_masks = &*tables.guard_masks;
    let firing = |op: &SsaGuardedOp, gidx: &[u32]| {
        let phase = if op.in_loop { loop_mask } else { !loop_mask & full };
        gidx.iter().fold(phase, |fm, &gi| fm & guard_masks[gi as usize])
    };

    let mut emitted = 0u64;
    let mut tokens = [0u64; MAX_LANES];
    for (op, gidx) in opt.ops.iter().zip(tables.op_guards) {
        let SsaOp::Emit { val, width: w } = &op.op else { continue };
        let wm = mask(u64::MAX, *w);
        let vrow = row(*val);
        let mut it = firing(op, gidx) & !emitted;
        emitted |= it;
        while it != 0 {
            let l = it.trailing_zeros() as usize;
            it &= it - 1;
            tokens[l] = vrow[l].widen() & wm;
        }
    }
    let retire = (!emitted | output_ready) & full;
    for (l, lane) in lanes.iter_mut().enumerate() {
        let pu = lane.as_deref_mut().expect("every swept lane is enrolled");
        let ev = VcycleEval {
            loop_active: (loop_mask >> l) & 1 != 0,
            emit: ((emitted >> l) & 1 != 0).then_some(tokens[l]),
        };
        pu.cached = Some(ev);
        pu.retired = (retire >> l) & 1 != 0;
        if !pu.retired {
            let get = |s: Slot| plane[s as usize * width + l].widen();
            let emit = walk_ops(opt, &pu.state, ev.loop_active, get, &mut pu.scratch);
            debug_assert_eq!(emit, ev.emit, "lane {l}: row walk and column walk disagree");
        }
    }

    tables.reg_lanes.fill(0);
    tables.bram_lanes.fill(0);
    tables.vec_written.clear();
    for (op, gidx) in opt.ops.iter().zip(tables.op_guards) {
        let fm = firing(op, gidx) & retire;
        if fm == 0 {
            continue;
        }
        match &op.op {
            SsaOp::SetReg { reg, width: w, val } => {
                let r = *reg as usize;
                let wm = mask(u64::MAX, *w);
                let vrow = row(*val);
                let mut it = fm & !tables.reg_lanes[r];
                tables.reg_lanes[r] |= it;
                while it != 0 {
                    let l = it.trailing_zeros() as usize;
                    it &= it - 1;
                    lane_state(lanes, l).regs[r] = vrow[l].widen() & wm;
                }
            }
            SsaOp::SetVecReg { vr, width: w, idx, val } => {
                let v = *vr as usize;
                let wm = mask(u64::MAX, *w);
                let irow = row(*idx);
                let vrow = row(*val);
                let mut it = fm;
                while it != 0 {
                    let l = it.trailing_zeros() as usize;
                    it &= it - 1;
                    let i = irow[l].widen() as usize;
                    // Out-of-range index selects no element, like the
                    // compiled write decoders.
                    let Some(elem) = lane_state(lanes, l).vec_regs[v].get_mut(i) else { continue };
                    if tables.vec_multi[v] {
                        if tables.vec_written.contains(&(l, v, i)) {
                            continue;
                        }
                        tables.vec_written.push((l, v, i));
                    }
                    *elem = vrow[l].widen() & wm;
                }
            }
            SsaOp::BramWrite { bram, aw, dw, addr, val } => {
                let b = *bram as usize;
                let am = mask(u64::MAX, *aw);
                let wm = mask(u64::MAX, *dw);
                let arow = row(*addr);
                let vrow = row(*val);
                let mut it = fm & !tables.bram_lanes[b];
                tables.bram_lanes[b] |= it;
                while it != 0 {
                    let l = it.trailing_zeros() as usize;
                    it &= it - 1;
                    lane_state(lanes, l).brams[b][(arow[l].widen() & am) as usize] = vrow[l].widen() & wm;
                }
            }
            SsaOp::Emit { .. } => {}
        }
    }
}

impl PuExecBatch {
    /// Builds a `width`-lane plane for `pu`'s compiled program. Any
    /// replica of the same [`CompiledUnit`] can occupy any lane.
    ///
    /// # Panics
    ///
    /// Panics unless `width` is in `1..=MAX_LANES`.
    pub fn for_unit(pu: &PuExec, width: usize) -> PuExecBatch {
        assert!((1..=MAX_LANES).contains(&width), "batch width {width} outside 1..={MAX_LANES}");
        let slots = pu.opt.slots();
        let plane = if pu.plane32 {
            let mut p = vec![0u32; slots * width];
            for (s, &v) in pu.opt.seed_vals().iter().enumerate() {
                p[s * width..(s + 1) * width].fill(v as u32);
            }
            LanePlane::Narrow(p)
        } else {
            let mut p = vec![0u64; slots * width];
            for (s, &v) in pu.opt.seed_vals().iter().enumerate() {
                p[s * width..(s + 1) * width].fill(v);
            }
            LanePlane::Wide(p)
        };
        let mut guard_slots: Vec<Slot> = Vec::new();
        let op_guards: Vec<Vec<u32>> = pu
            .opt
            .ops
            .iter()
            .map(|op| {
                op.guards
                    .iter()
                    .map(|&g| match guard_slots.iter().position(|&s| s == g) {
                        Some(i) => i as u32,
                        None => {
                            guard_slots.push(g);
                            (guard_slots.len() - 1) as u32
                        }
                    })
                    .collect()
            })
            .collect();
        // Writers per register / BRAM / vector register, indexed by
        // target id.
        let (mut regs, mut brams, mut vecs) = (Vec::new(), Vec::new(), Vec::new());
        for op in &pu.opt.ops {
            let (table, id): (&mut Vec<u32>, usize) = match &op.op {
                SsaOp::SetReg { reg, .. } => (&mut regs, *reg as usize),
                SsaOp::BramWrite { bram, .. } => (&mut brams, *bram as usize),
                SsaOp::SetVecReg { vr, .. } => (&mut vecs, *vr as usize),
                SsaOp::Emit { .. } => continue,
            };
            if table.len() <= id {
                table.resize(id + 1, 0);
            }
            table[id] += 1;
        }
        let guard_masks = vec![0u64; guard_slots.len()];
        PuExecBatch {
            opt: Arc::clone(&pu.opt),
            packed: Arc::clone(&pu.packed),
            width,
            plane,
            inputs: Vec::with_capacity(width),
            finished: Vec::with_capacity(width),
            guard_slots,
            op_guards,
            guard_masks,
            reg_lanes: vec![0; regs.len()],
            bram_lanes: vec![0; brams.len()],
            vec_multi: vecs.iter().map(|&writers| writers > 1).collect(),
            vec_written: Vec::new(),
        }
    }

    /// Number of lanes in the plane.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Whether `pu` executes the exact program this plane was built
    /// for (same `Arc`, optimized path selected).
    pub fn matches(&self, pu: &PuExec) -> bool {
        Arc::ptr_eq(&self.packed, &pu.packed) && !pu.reference
    }

    /// Evaluates one virtual cycle for every unit in `lanes` (unit `l`
    /// occupies lane `l`, every entry `Some`; at most
    /// [`PuExecBatch::width`] units) and retires it wherever the
    /// output handshake allows. Each unit must satisfy
    /// [`PuExec::lane_pending`] and [`PuExecBatch::matches`]; bit `l`
    /// of `output_ready` is the `output_ready` pin lane `l` sees this
    /// cycle.
    ///
    /// The sweep covers the whole virtual cycle: the SIMD instruction
    /// sweep ([`PackedProg::eval_lanes`]) *and* the guarded-op walk,
    /// run op-major so every plane access is a contiguous row instead
    /// of the per-lane column walk's strided reads. A lane that emits
    /// nothing, or whose emission is accepted, leaves with its state
    /// writes committed and [`PuExec::lane_retired`] set — the caller
    /// must step it with [`PuExec::clock_retired`] in the same cycle. A
    /// lane whose emission is back-pressured leaves exactly as
    /// [`PuExec::comb`] would have left it: evaluation cached, writes
    /// pending, nothing committed.
    pub fn retire(&mut self, lanes: &mut [Option<&mut PuExec>], output_ready: u64) {
        let n = lanes.len();
        assert!(n <= self.width, "lane group exceeds batch width");
        let enrolled = |pu: &PuExec| pu.lane_pending() && self.matches(pu);
        debug_assert!(lanes.iter().all(|l| l.as_deref().is_some_and(enrolled)));
        self.inputs.clear();
        self.finished.clear();
        let Self { opt, packed, width, plane, inputs, finished, .. } = self;
        let first = lanes.first().and_then(|l| l.as_deref()).expect("empty lane group");
        // Stack-resident gather: a group never exceeds `MAX_LANES`, so
        // a fixed array avoids a heap allocation on every sweep of the
        // hot loop.
        let mut states: [&UnitState; MAX_LANES] = [&first.state; MAX_LANES];
        for (slot, lane) in states.iter_mut().zip(lanes.iter()) {
            let pu = lane.as_deref().expect("every swept lane is enrolled");
            *slot = &pu.state;
            inputs.push(pu.i);
            finished.push(pu.f);
        }
        let width = *width;
        let tables = WalkTables {
            guard_slots: &self.guard_slots,
            op_guards: &self.op_guards,
            guard_masks: &mut self.guard_masks,
            reg_lanes: &mut self.reg_lanes,
            bram_lanes: &mut self.bram_lanes,
            vec_multi: &self.vec_multi,
            vec_written: &mut self.vec_written,
        };
        match plane {
            LanePlane::Wide(p) => {
                packed.eval_lanes(&states[..n], inputs, finished, width, p);
                retire_lane_rows(opt, p, width, lanes, output_ready, tables);
            }
            LanePlane::Narrow(p) => {
                packed.eval_lanes32(&states[..n], inputs, finished, width, p);
                retire_lane_rows(opt, p, width, lanes, output_ready, tables);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleet_isim::Interpreter;
    use fleet_lang::{lit, UnitBuilder};
    use proptest::prelude::*;

    fn identity_spec() -> UnitSpec {
        let mut u = UnitBuilder::new("Identity", 8, 8);
        let inp = u.input();
        let nf = u.stream_finished().not_b();
        u.if_(nf, |u| u.emit(inp.clone()));
        u.build().unwrap()
    }

    #[test]
    fn identity_passes_tokens_through() {
        let spec = identity_spec();
        let (out, cycles) = PuExec::run_stream(&spec, &[5, 6, 7]);
        assert_eq!(out, vec![5, 6, 7]);
        // 1 cycle latency to accept, 3 virtual cycles, 1 cleanup cycle,
        // plus idle detection.
        assert!((5..=8).contains(&cycles), "cycles = {cycles}");
    }

    #[test]
    fn sustains_one_token_per_cycle() {
        // With no stalls, an identity unit must consume one token per
        // cycle in steady state (the §4 throughput guarantee).
        let spec = identity_spec();
        let n = 1000;
        let tokens: Vec<u64> = (0..n).map(|x| x % 256).collect();
        let (out, cycles) = PuExec::run_stream(&spec, &tokens);
        assert_eq!(out.len(), n as usize);
        assert!(
            cycles <= n + 5,
            "throughput below 1 token/cycle: {cycles} cycles for {n} tokens"
        );
    }

    #[test]
    fn output_stall_preserves_tokens() {
        // Accept output only every 3rd cycle; the stream must still come
        // out complete and in order.
        let spec = identity_spec();
        let tokens: Vec<u64> = (0..50).map(|x| (x * 7 % 256) as u64).collect();
        let mut pu = PuExec::new(&spec);
        let mut out = Vec::new();
        let mut pos = 0;
        let mut cyc = 0u64;
        while !pu.finished() {
            let ready = cyc.is_multiple_of(3);
            let pins = PuIn {
                input_token: if pos < tokens.len() { tokens[pos] } else { 0 },
                input_valid: pos < tokens.len(),
                input_finished: pos >= tokens.len(),
                output_ready: ready,
            };
            let o = pu.tick(&pins);
            if o.output_valid && ready {
                out.push(o.output_token);
            }
            if o.input_ready && pins.input_valid {
                pos += 1;
            }
            cyc += 1;
            assert!(cyc < 10_000);
        }
        assert_eq!(out, tokens);
    }

    #[test]
    fn cycle_counters_are_conserved_and_attribute_stalls() {
        let spec = identity_spec();
        let tokens: Vec<u64> = (0..40).map(|x| x % 256).collect();
        let mut pu = PuExec::new(&spec);
        let mut pos = 0;
        let mut cyc = 0u64;
        while !pu.finished() {
            // Starve input on some cycles and block output on others so
            // every cycle class is exercised.
            let starved = cyc % 5 == 1;
            let ready = cyc % 3 != 2;
            let have = pos < tokens.len() && !starved;
            let pins = PuIn {
                input_token: if have { tokens[pos] } else { 0 },
                input_valid: have,
                input_finished: pos >= tokens.len(),
                output_ready: ready,
            };
            let o = pu.tick(&pins);
            if o.input_ready && pins.input_valid {
                pos += 1;
            }
            cyc += 1;
            assert!(cyc < 10_000);
        }
        // A few extra drained cycles after finish.
        for _ in 0..3 {
            pu.tick(&PuIn { input_finished: true, output_ready: true, ..PuIn::default() });
        }
        let c = pu.counters();
        assert_eq!(c.total(), pu.cycles(), "one class per clocked cycle");
        assert!(c.busy >= 40, "each token costs at least one busy cycle");
        assert!(c.stall_in > 0, "starvation cycles must be attributed");
        assert!(c.stall_out > 0, "back-pressure cycles must be attributed");
        assert!(c.drained >= 3, "post-finish cycles are drained");
    }

    #[test]
    fn from_compiled_replicas_match_fresh_executors() {
        let spec = identity_spec();
        let unit = CompiledUnit::new(&spec);
        let tokens: Vec<u64> = (0..100).map(|x| x % 256).collect();
        let (fresh_out, fresh_cycles) = PuExec::run_stream(&spec, &tokens);
        for _ in 0..3 {
            let mut pu = unit.replicate();
            let mut out = Vec::new();
            let mut pos = 0usize;
            while !pu.finished() {
                let pins = PuIn {
                    input_token: if pos < tokens.len() { tokens[pos] } else { 0 },
                    input_valid: pos < tokens.len(),
                    input_finished: pos >= tokens.len(),
                    output_ready: true,
                };
                let o = pu.tick(&pins);
                if o.output_valid {
                    out.push(o.output_token);
                }
                if o.input_ready && pins.input_valid {
                    pos += 1;
                }
                assert!(pu.cycles() < 10_000);
            }
            assert_eq!(out, fresh_out);
            assert_eq!(pu.cycles(), fresh_cycles);
        }
    }

    #[test]
    fn skip_cycles_matches_ticking_through_quiescence() {
        let spec = identity_spec();

        // UntilInput: an idle unit ticked with nothing on its pins must
        // match one that slept through the same span.
        let idle_pins = PuIn::default();
        let mut ticked = PuExec::new(&spec);
        let mut slept = PuExec::new(&spec);
        assert_eq!(slept.quiescence(), Quiescence::UntilInput);
        for _ in 0..50 {
            let o = ticked.comb(&idle_pins);
            assert!(o.input_ready && !o.output_valid);
            ticked.clock(&idle_pins);
        }
        slept.skip_cycles(50);
        assert_eq!(ticked.counters(), slept.counters());
        assert_eq!(ticked.cycles(), slept.cycles());

        // Both resume identically on the same token.
        let tok = PuIn { input_token: 9, input_valid: true, output_ready: true, ..PuIn::default() };
        assert_eq!(ticked.tick(&tok), slept.tick(&tok));

        // UntilOutput: hold output_ready low until the emission is
        // pending, then compare ticking vs sleeping through the stall.
        let stall = PuIn { output_ready: false, ..PuIn::default() };
        let mut t2 = PuExec::new(&spec);
        let mut s2 = PuExec::new(&spec);
        for pu in [&mut t2, &mut s2] {
            // First tick latches the token; the second evaluates the
            // virtual cycle and stalls on the blocked emission.
            pu.tick(&PuIn { input_token: 42, input_valid: true, ..stall });
            assert_eq!(pu.quiescence(), Quiescence::None);
            pu.tick(&stall);
            assert_eq!(pu.quiescence(), Quiescence::UntilOutput);
        }
        for _ in 0..30 {
            let o = t2.comb(&stall);
            assert!(o.output_valid && o.output_token == 42);
            t2.clock(&stall);
        }
        s2.skip_cycles(30);
        assert_eq!(t2.counters(), s2.counters());
        assert_eq!(t2.cycles(), s2.cycles());
        let drain = PuIn { input_finished: true, output_ready: true, ..PuIn::default() };
        assert_eq!(t2.tick(&drain), s2.tick(&drain));
    }

    #[test]
    fn matches_interpreter_on_histogram() {
        let mut u = UnitBuilder::new("BlockFrequencies", 8, 8);
        let item_counter = u.reg("itemCounter", 7, 0);
        let frequencies = u.bram("frequencies", 256, 8);
        let idx = u.reg("frequenciesIdx", 9, 0);
        let input = u.input();
        u.if_(item_counter.eq_e(100u64), |u| {
            u.while_(idx.lt_e(256u64), |u| {
                u.emit(frequencies.read(idx));
                u.write(frequencies, idx, lit(0, 8));
                u.set(idx, idx + 1u64);
            });
            u.set(idx, lit(0, 9));
        });
        u.write(frequencies, input.clone(), frequencies.read(input) + 1u64);
        u.set(
            item_counter,
            item_counter.eq_e(100u64).mux(lit(1, 7), item_counter + 1u64),
        );
        let spec = u.build().unwrap();

        let tokens: Vec<u64> = (0..300).map(|x| (x * 13 % 256) as u64).collect();
        let isim = Interpreter::run_tokens(&spec, &tokens).unwrap();
        let (out, _) = PuExec::run_stream(&spec, &tokens);
        assert_eq!(out, isim.tokens);
    }

    /// A unit whose guarded ops collide in every way the lane walk
    /// arbitrates: two `SetReg`s to one register, a register swap (each
    /// side must read the other's *pre-cycle* value), two `SetVecReg`s
    /// to the same or different elements, an out-of-range vector index,
    /// two `BramWrite`s to one BRAM at different addresses, two `Emit`s,
    /// and a `while` loop. The interpreter rejects such collisions; the
    /// compiled hardware resolves them first-write-wins.
    fn collision_spec() -> UnitSpec {
        let mut u = UnitBuilder::new("Collide", 8, 8);
        let r = u.reg("r", 8, 0);
        let (a, b) = (u.reg("a", 8, 1), u.reg("b", 8, 2));
        let cnt = u.reg("cnt", 2, 0);
        let vv = u.vec_reg("vv", 4, 8, 0);
        let ww = u.vec_reg("ww", 3, 8, 5);
        let bb = u.bram("bb", 16, 8);
        let inp = u.input();
        u.while_(cnt.lt_e(inp.slice(7, 6)), |u| {
            u.set(cnt, cnt + 1u64);
            u.emit(cnt.e() + r.e());
        });
        u.set(cnt, lit(0, 2));
        u.if_(inp.slice(0, 0), |u| u.set(r, inp.clone()));
        u.if_(inp.slice(1, 1), |u| u.set(r, inp.clone() + 1u64));
        u.set(a, b + inp.clone());
        u.set(b, a.e());
        u.if_(inp.slice(2, 2), |u| u.set_vec(vv, inp.slice(5, 4), inp.clone()));
        u.if_(inp.slice(3, 3), |u| u.set_vec(vv, inp.slice(7, 6), inp.clone() + 3u64));
        u.set_vec(ww, inp.slice(1, 0), a + b);
        u.if_(inp.slice(4, 4), |u| u.write(bb, inp.slice(3, 0), inp.clone()));
        u.if_(inp.slice(5, 5), |u| u.write(bb, inp.slice(7, 4), inp.clone() + 7u64));
        u.if_(inp.slice(6, 6), |u| u.emit(inp.clone() ^ vv.read(inp.slice(1, 0))));
        u.if_(inp.slice(7, 7), |u| u.emit(bb.read(inp.slice(3, 0))));
        u.build().unwrap()
    }

    /// Drives `n` replicas through [`PuExecBatch::retire`] +
    /// [`PuExec::clock_retired`] under random starvation and random
    /// `output_ready` masks, against a scalar `comb`/`clock` twin per
    /// lane (state-for-state and pin-for-pin, every cycle) and, with
    /// `oracle`, the reference [`Interpreter`] at every token boundary.
    ///
    /// Returns how many lane-cycles the sweep retired and how many sat
    /// back-pressured.
    fn check_retire(spec: &UnitSpec, streams: &[Vec<u64>], oracle: bool, seed: u64) -> (u64, u64) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let n = streams.len();
        // The tree-walking interpreter is two orders slower than the
        // executors: wide groups check a sample of their lanes.
        let oracle = |l: usize| oracle && (n < 10 || l % 16 == 1);
        let at = |cyc: u64, l: usize| format!("{}: lane {l} of {n}, cycle {cyc}", spec.name);
        let unit = CompiledUnit::new(spec);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut lanes: Vec<PuExec> = (0..n).map(|_| unit.replicate()).collect();
        let mut twins: Vec<PuExec> = (0..n).map(|_| unit.replicate()).collect();
        let mut interps: Vec<Interpreter> = (0..n).map(|_| Interpreter::new(spec)).collect();
        let mut outs: Vec<Vec<u64>> = vec![Vec::new(); n];
        let mut pos = vec![0usize; n];
        // A back-pressured lane's token: it must be held until accepted.
        let mut held: Vec<Option<u64>> = vec![None; n];
        // What each lane is executing: a token, or (`Some(None)`) the
        // cleanup run.
        let mut running: Vec<Option<Option<u64>>> = vec![None; n];
        let mut batch = PuExecBatch::for_unit(&lanes[0], MAX_LANES);
        let (mut retired_cycles, mut stalled_cycles) = (0u64, 0u64);
        let mut cyc = 0u64;
        while !lanes.iter().all(PuExec::finished) {
            let ready: u64 = rng.gen::<u64>() | rng.gen::<u64>();
            // Sweep every lane-pending unit as one group, its ready
            // bits compacted to the group's lane numbering.
            let mut group_ready = 0u64;
            let mut group: Vec<Option<&mut PuExec>> = Vec::new();
            for (l, pu) in lanes.iter_mut().enumerate().filter(|(_, pu)| pu.lane_pending()) {
                group_ready |= ((ready >> l) & 1) << group.len();
                group.push(Some(pu));
            }
            if !group.is_empty() {
                batch.retire(&mut group, group_ready);
            }
            for l in 0..n {
                let toks = &streams[l];
                let have = pos[l] < toks.len() && rng.gen_bool(0.8);
                let pins = PuIn {
                    input_token: if have { toks[pos[l]] } else { 0 },
                    input_valid: have,
                    input_finished: pos[l] >= toks.len(),
                    output_ready: (ready >> l) & 1 != 0,
                };
                let saw_finish = lanes[l].f;
                let want = twins[l].comb(&pins);
                if !lanes[l].lane_retired() {
                    // Not retired: nothing may have been committed yet
                    // (the twin still holds the pre-cycle state).
                    assert_eq!(lanes[l].state, twins[l].state, "{}", at(cyc, l));
                }
                let got = match lanes[l].clock_retired(&pins) {
                    Some(out) => {
                        retired_cycles += 1;
                        out
                    }
                    None => lanes[l].tick(&pins),
                };
                twins[l].clock(&pins);
                assert_eq!(got, want, "{}", at(cyc, l));
                assert!(!lanes[l].lane_retired(), "{}", at(cyc, l));
                // (BRAM contents are compared at token boundaries.)
                assert_eq!(lanes[l].state.regs, twins[l].state.regs, "{}", at(cyc, l));
                assert_eq!(lanes[l].state.vec_regs, twins[l].state.vec_regs, "{}", at(cyc, l));
                assert_eq!(lanes[l].quiescence(), twins[l].quiescence(), "{}", at(cyc, l));
                if let Some(tok) = held[l] {
                    assert!(got.output_valid && got.output_token == tok, "{}", at(cyc, l));
                }
                held[l] = (got.output_valid && !pins.output_ready).then_some(got.output_token);
                stalled_cycles += u64::from(held[l].is_some());
                if got.output_valid && pins.output_ready {
                    outs[l].push(got.output_token);
                }
                if got.input_ready {
                    assert_eq!(lanes[l].state, twins[l].state, "{}", at(cyc, l));
                    // The running token's last virtual cycle just
                    // committed: the interpreter catches up.
                    if let (true, Some(run)) = (oracle(l), running[l]) {
                        match run {
                            Some(t) => interps[l].step_token(t).unwrap(),
                            None => interps[l].finish().unwrap(),
                        }
                        assert_eq!(&lanes[l].state, interps[l].state(), "{}", at(cyc, l));
                        assert_eq!(outs[l], interps[l].outputs(), "{}", at(cyc, l));
                    }
                    running[l] = if pins.input_valid {
                        pos[l] += 1;
                        Some(Some(pins.input_token))
                    } else {
                        (pins.input_finished && !saw_finish).then_some(None)
                    };
                }
            }
            cyc += 1;
            assert!(cyc < 200_000, "{}: retire drive did not terminate", spec.name);
        }
        for l in 0..n {
            assert_eq!(lanes[l].cycles(), twins[l].cycles(), "{}", at(cyc, l));
            assert_eq!(lanes[l].vcycles(), twins[l].vcycles(), "{}", at(cyc, l));
            assert_eq!(lanes[l].counters(), twins[l].counters(), "{}", at(cyc, l));
            if oracle(l) {
                assert_eq!(running[l], None, "{}", at(cyc, l));
                assert_eq!(lanes[l].vcycles(), interps[l].vcycles(), "{}", at(cyc, l));
            }
        }
        (retired_cycles, stalled_cycles)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2))]

        /// The lane sweep's retire path on the six paper apps and the
        /// collision unit, at lane counts on both sides of the
        /// eight-lane groups the guard masks are packed in and of a
        /// full 64-lane plane.
        #[test]
        fn retired_lanes_match_scalar_and_interpreter(seed in any::<u64>()) {
            use fleet_apps::{App, AppKind};
            use fleet_isim::bytes_to_tokens;
            use rand::{rngs::StdRng, Rng, SeedableRng};

            /// Lane number → that lane's input tokens.
            type Gen = Box<dyn Fn(u64) -> Vec<u64>>;
            let mut cases: Vec<(UnitSpec, Gen, bool)> = AppKind::all()
                .into_iter()
                .map(|kind| {
                    let app = App::new(kind);
                    let spec = app.spec();
                    let bits = spec.input_token_bits;
                    let gen = move |l: u64| {
                        bytes_to_tokens(&app.gen_stream(seed ^ l, 192), bits).expect("whole tokens")
                    };
                    (spec, Box::new(gen) as Gen, true)
                })
                .collect();
            let collide = move |l: u64| {
                let mut rng = StdRng::seed_from_u64(seed ^ l);
                (0..96).map(|_| u64::from(rng.gen::<u8>())).collect()
            };
            cases.push((collision_spec(), Box::new(collide), false));
            for (spec, gen, oracle) in &cases {
                let (mut retired, mut stalled) = (0, 0);
                for n in [2usize, 7, 8, 9, 33, 63, 64] {
                    let streams: Vec<Vec<u64>> = (0..n as u64).map(gen).collect();
                    let (r, s) = check_retire(spec, &streams, *oracle, seed ^ n as u64);
                    retired += r;
                    stalled += s;
                }
                prop_assert!(retired > 0, "{}: the sweep never retired a lane", spec.name);
                prop_assert!(stalled > 0, "{}: no emission was ever back-pressured", spec.name);
            }
        }
    }

    #[test]
    fn input_starvation_mid_stream() {
        // Gaps in input_valid must not corrupt the stream (this exercises
        // the idle re-entry path that naive Fig. 4 RTL gets wrong).
        let mut u = UnitBuilder::new("AddrSum", 8, 8);
        let b = u.bram("tbl", 16, 8);
        let warm = u.reg("warm", 5, 0);
        let input = u.input();
        let nf = u.stream_finished().not_b();
        // Warm-up: write token t at address t for the first 16 tokens,
        // then emit tbl[input & 15] for later tokens — a read whose
        // address depends on the *current* token, the starvation-sensitive
        // case.
        u.if_(nf, |u| {
            u.if_else(
                warm.lt_e(16u64),
                |u| {
                    u.write(b, input.slice(3, 0), input.clone());
                    u.set(warm, warm + 1u64);
                },
                |u| u.emit(b.read(input.slice(3, 0))),
            );
        });
        let spec = u.build().unwrap();

        let mut tokens: Vec<u64> = (0..16).collect();
        tokens.extend([3u64, 7, 15, 0, 9]);
        let isim = Interpreter::run_tokens(&spec, &tokens).unwrap();

        // Drive with valid low on a pseudo-random pattern.
        let mut pu = PuExec::new(&spec);
        let mut out = Vec::new();
        let mut pos = 0;
        let mut cyc = 0u64;
        while !pu.finished() {
            let starved = (cyc * 2654435761) % 7 < 3;
            let have = pos < tokens.len() && !starved;
            let pins = PuIn {
                input_token: if have { tokens[pos] } else { 0 },
                input_valid: have,
                input_finished: pos >= tokens.len(),
                output_ready: true,
            };
            let o = pu.tick(&pins);
            if o.output_valid {
                out.push(o.output_token);
            }
            if o.input_ready && pins.input_valid {
                pos += 1;
            }
            cyc += 1;
            assert!(cyc < 10_000);
        }
        assert_eq!(out, isim.tokens);
    }
}
