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

use fleet_isim::{PackedProg, PendingWrites, Slot, SsaOp, SsaProg, UnitState};
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

/// One virtual cycle's evaluation, cached across stall cycles.
#[derive(Debug, Clone)]
struct VcycleEval {
    loop_active: bool,
    emit: Option<u64>,
    pending: PendingWrites,
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
    /// [`fleet_lang::validate`] (or build via `UnitBuilder`) first.
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
    /// Recycled pending-write buffers (avoids a per-virtual-cycle
    /// allocation on the hot path).
    scratch: PendingWrites,
    state: UnitState,
    i: u64,
    v: bool,
    f: bool,
    cached: Option<VcycleEval>,
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
    /// [`fleet_lang::validate`] (or build via `UnitBuilder`) first.
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

    fn eval_vcycle(&mut self) -> &VcycleEval {
        if self.cached.is_none() {
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
            let mut pending = std::mem::take(&mut self.scratch);
            let emit =
                walk_ops(prog, &self.state, loop_active, |s| vals[s as usize], &mut pending);
            self.cached = Some(VcycleEval { loop_active, emit, pending });
        }
        self.cached.as_ref().expect("just filled")
    }

    /// Whether this unit is waiting for exactly the work a lane-batched
    /// sweep provides: a latched token (or cleanup execution) with no
    /// cached evaluation yet, on the optimized/packed path.
    ///
    /// Such a unit's next [`PuExec::comb`]/[`PuExec::clock`] would run
    /// the packed instruction sweep; pre-evaluating it through
    /// [`PuExecBatch`] and [`PuExec::adopt_lane_eval`] installs the
    /// identical cache, so batching is externally unobservable.
    #[inline]
    pub fn lane_pending(&self) -> bool {
        self.v && self.cached.is_none() && !self.reference
    }

    /// Installs this unit's virtual-cycle evaluation from lane `lane`
    /// of a swept [`PuExecBatch`], exactly as [`PuExec::comb`] would
    /// have computed it. The batch must have been swept with this unit
    /// enrolled at `lane` in the same engine cycle (no architectural
    /// state change in between).
    ///
    /// The walk already ran inside [`PuExecBatch::sweep`]; this only
    /// moves the lane's results into the unit's evaluation cache,
    /// trading the unit's (empty) scratch buffer into the batch so the
    /// pending-write allocations circulate instead of growing.
    #[inline]
    pub fn adopt_lane_eval(&mut self, batch: &mut PuExecBatch, lane: usize) {
        debug_assert!(self.lane_pending(), "adopting unit is not awaiting evaluation");
        debug_assert!(batch.matches(self), "batch swept a different program");
        debug_assert!(lane < batch.width, "lane {lane} out of batch width {}", batch.width);
        let pending = std::mem::replace(&mut batch.pending[lane], std::mem::take(&mut self.scratch));
        self.cached = Some(VcycleEval {
            loop_active: batch.loop_active[lane],
            emit: batch.emits[lane],
            pending,
        });
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
        self.cycles += 1;
        if self.v {
            let (handshake_ok, while_done) = {
                let ev = self.eval_vcycle();
                (ev.emit.is_none() || pins.output_ready, !ev.loop_active)
            };
            let v_done = handshake_ok;
            self.counters.add(if handshake_ok {
                CycleClass::Busy
            } else {
                CycleClass::StallOut
            });
            if v_done {
                let ev = self.cached.take().expect("evaluated in this cycle");
                ev.pending.commit(&mut self.state);
                // Recycle the pending-write buffers for the next
                // virtual cycle.
                self.scratch = ev.pending;
                self.scratch.clear();
                self.vcycles += 1;
                if while_done {
                    // input_ready was asserted: accept next token or start
                    // the cleanup execution.
                    let new_v = pins.input_valid || (!self.f && pins.input_finished);
                    self.f = self.f || pins.input_finished;
                    self.i = if pins.input_valid { pins.input_token } else { 0 };
                    self.v = new_v;
                }
                // Loop continuing: state committed, next loop virtual
                // cycle re-evaluates (cache already cleared by take()).
            }
        } else {
            // Idle: input_ready is high.
            self.counters.add(if self.f {
                CycleClass::Drained
            } else {
                CycleClass::StallIn
            });
            let new_v = pins.input_valid || (!self.f && pins.input_finished);
            self.f = self.f || pins.input_finished;
            self.i = if pins.input_valid { pins.input_token } else { 0 };
            self.v = new_v;
            self.cached = None;
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
/// of the plane and the guarded-op walk stays per-lane
/// ([`PuExec::adopt_lane_eval`]).
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
    /// Per-lane walk results of the last sweep, consumed by
    /// [`PuExec::adopt_lane_eval`]. The pending-write buffers circulate
    /// between the batch and the adopting units' scratch so neither
    /// side reallocates in steady state.
    loop_active: Vec<bool>,
    emits: Vec<Option<u64>>,
    pending: Vec<PendingWrites>,
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

/// Caller-owned scratch and precomputed tables for
/// [`walk_lane_rows`], all recycled across sweeps (see the matching
/// [`PuExecBatch`] fields for the invariants).
struct WalkTables<'a> {
    guard_slots: &'a [Slot],
    op_guards: &'a [Vec<u32>],
    guard_masks: &'a mut [u64],
    reg_lanes: &'a mut [u64],
    bram_lanes: &'a mut [u64],
}

/// The guarded-op walk of [`PuExecBatch::sweep`], op-major over the
/// swept plane's rows: for each lane the produced results are
/// identical to running [`walk_ops`] on that lane's column (same op
/// order, same first-write-wins merges, same out-of-range vector-write
/// skip), restructured around lane bitmasks. Each distinct guard row
/// is packed into a 64-bit lane mask once per sweep; an op's firing
/// set is then the AND of its guard masks with the loop-phase mask,
/// and first-write-wins dedup is a transposed per-target
/// "already-written lanes" mask — so ops that fire nowhere, lanes an
/// op skips, and writes that lost the first-write race all cost no
/// per-lane work at all.
#[allow(clippy::too_many_arguments)]
fn walk_lane_rows<T: LaneVal>(
    opt: &SsaProg,
    plane: &[T],
    width: usize,
    n: usize,
    states: &[&UnitState],
    loop_active: &mut [bool],
    emits: &mut [Option<u64>],
    pending: &mut [PendingWrites],
    tables: WalkTables<'_>,
) {
    assert!(n <= MAX_LANES, "lane group exceeds the walk's lane bitmask");
    let WalkTables { guard_slots, op_guards, guard_masks, reg_lanes, bram_lanes } = tables;
    let row = |s: Slot| &plane[s as usize * width..s as usize * width + n];
    let full: u64 = if n >= MAX_LANES { u64::MAX } else { (1u64 << n) - 1 };

    let loop_mask = opt.loop_conds.iter().fold(0u64, |m, &s| m | nonzero_mask(row(s)));
    for l in 0..n {
        loop_active[l] = (loop_mask >> l) & 1 != 0;
        pending[l].clear();
        emits[l] = None;
    }
    for (gm, &g) in guard_masks.iter_mut().zip(guard_slots) {
        *gm = nonzero_mask(row(g));
    }
    reg_lanes.fill(0);
    bram_lanes.fill(0);
    let mut emitted = 0u64;
    for (op, gidx) in opt.ops.iter().zip(op_guards) {
        let mut fm = if op.in_loop { loop_mask } else { !loop_mask & full };
        for &gi in gidx {
            fm &= guard_masks[gi as usize];
        }
        if fm == 0 {
            continue;
        }
        match &op.op {
            SsaOp::SetReg { reg, width: w, val } => {
                let r = *reg as usize;
                let wm = mask(u64::MAX, *w);
                let vrow = row(*val);
                let mut it = fm & !reg_lanes[r];
                reg_lanes[r] |= it;
                while it != 0 {
                    let l = it.trailing_zeros() as usize;
                    it &= it - 1;
                    pending[l].regs.push((r, vrow[l].widen() & wm));
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
                    let elements = states[l].vec_regs[v].len();
                    let i = irow[l].widen() as usize;
                    if i >= elements {
                        // Out-of-range index selects no element,
                        // like the compiled write decoders.
                        continue;
                    }
                    let p = &mut pending[l];
                    if !p.vec_regs.iter().any(|(w2, e, _)| *w2 == v && *e == i) {
                        p.vec_regs.push((v, i, vrow[l].widen() & wm));
                    }
                }
            }
            SsaOp::BramWrite { bram, aw, dw, addr, val } => {
                let b = *bram as usize;
                let am = mask(u64::MAX, *aw);
                let wm = mask(u64::MAX, *dw);
                let arow = row(*addr);
                let vrow = row(*val);
                let mut it = fm & !bram_lanes[b];
                bram_lanes[b] |= it;
                while it != 0 {
                    let l = it.trailing_zeros() as usize;
                    it &= it - 1;
                    pending[l].brams.push((b, arow[l].widen() & am, vrow[l].widen() & wm));
                }
            }
            SsaOp::Emit { val, width: w } => {
                let wm = mask(u64::MAX, *w);
                let vrow = row(*val);
                let mut it = fm & !emitted;
                emitted |= it;
                while it != 0 {
                    let l = it.trailing_zeros() as usize;
                    it &= it - 1;
                    emits[l] = Some(vrow[l].widen() & wm);
                }
            }
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
        let n_regs = pu
            .opt
            .ops
            .iter()
            .filter_map(|op| match &op.op {
                SsaOp::SetReg { reg, .. } => Some(*reg as usize + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        let n_brams = pu
            .opt
            .ops
            .iter()
            .filter_map(|op| match &op.op {
                SsaOp::BramWrite { bram, .. } => Some(*bram as usize + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        let guard_masks = vec![0u64; guard_slots.len()];
        PuExecBatch {
            opt: Arc::clone(&pu.opt),
            packed: Arc::clone(&pu.packed),
            width,
            plane,
            inputs: Vec::with_capacity(width),
            finished: Vec::with_capacity(width),
            loop_active: vec![false; width],
            emits: vec![None; width],
            pending: (0..width).map(|_| PendingWrites::default()).collect(),
            guard_slots,
            op_guards,
            guard_masks,
            reg_lanes: vec![0; n_regs],
            bram_lanes: vec![0; n_brams],
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

    /// Sweeps one virtual-cycle evaluation for every unit in `lanes`
    /// (unit `l` occupies lane `l`; at most [`PuExecBatch::width`]
    /// units). Each unit must satisfy [`PuExec::lane_pending`] and
    /// [`PuExecBatch::matches`]. Follow with
    /// [`PuExec::adopt_lane_eval`] per unit to install the results.
    ///
    /// The sweep covers the whole virtual cycle: the SIMD instruction
    /// sweep ([`PackedProg::eval_lanes`]) *and* the guarded-op walk,
    /// run op-major so every plane access is a contiguous row instead
    /// of the per-lane column walk's strided reads — the results are
    /// identical to running [`walk_ops`] per lane by construction
    /// (same op order, same first-write-wins merges, per lane).
    pub fn sweep(&mut self, lanes: &[&PuExec]) {
        let n = lanes.len();
        assert!(n <= self.width, "lane group exceeds batch width");
        assert!(!lanes.is_empty(), "empty lane group");
        self.inputs.clear();
        self.finished.clear();
        // Stack-resident gather: a group never exceeds `MAX_LANES`, so
        // a fixed array avoids a heap allocation on every sweep of the
        // hot loop.
        let mut states: [&UnitState; MAX_LANES] = [&lanes[0].state; MAX_LANES];
        for (slot, pu) in states.iter_mut().zip(lanes) {
            debug_assert!(pu.lane_pending(), "swept unit is not awaiting evaluation");
            debug_assert!(self.matches(pu), "swept unit runs a different program");
            *slot = &pu.state;
            self.inputs.push(pu.i);
            self.finished.push(pu.f);
        }
        let states = &states[..n];
        let Self {
            opt,
            packed,
            width,
            plane,
            inputs,
            finished,
            loop_active,
            emits,
            pending,
            guard_slots,
            op_guards,
            guard_masks,
            reg_lanes,
            bram_lanes,
        } = self;
        let width = *width;
        match plane {
            LanePlane::Wide(p) => {
                packed.eval_lanes(states, inputs, finished, width, p);
                walk_lane_rows(
                    opt,
                    p,
                    width,
                    n,
                    states,
                    loop_active,
                    emits,
                    pending,
                    WalkTables { guard_slots, op_guards, guard_masks, reg_lanes, bram_lanes },
                );
            }
            LanePlane::Narrow(p) => {
                packed.eval_lanes32(states, inputs, finished, width, p);
                walk_lane_rows(
                    opt,
                    p,
                    width,
                    n,
                    states,
                    loop_active,
                    emits,
                    pending,
                    WalkTables { guard_slots, op_guards, guard_masks, reg_lanes, bram_lanes },
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleet_isim::Interpreter;
    use fleet_lang::{lit, UnitBuilder};

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

    /// Driving replicas through `PuExecBatch::sweep` +
    /// `adopt_lane_eval` must be pin-for-pin identical to letting each
    /// unit evaluate itself — with divergent streams, stall patterns,
    /// and loop phases across the lanes, and some units masked off
    /// (not lane-pending) on any given cycle.
    #[test]
    fn batched_lanes_match_individual_evaluation() {
        let mut u = UnitBuilder::new("BlockFrequencies", 8, 8);
        let item_counter = u.reg("itemCounter", 7, 0);
        let frequencies = u.bram("frequencies", 256, 8);
        let idx = u.reg("frequenciesIdx", 9, 0);
        let input = u.input();
        u.if_(item_counter.eq_e(20u64), |u| {
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
            item_counter.eq_e(20u64).mux(lit(1, 7), item_counter + 1u64),
        );
        let spec = u.build().unwrap();
        let unit = CompiledUnit::new(&spec);

        const LANES: usize = 4;
        let streams: Vec<Vec<u64>> = (0..LANES as u64)
            .map(|l| (0..60 + 10 * l).map(|x| (x * 13 + 7 * l) % 256).collect())
            .collect();
        let mut batched: Vec<PuExec> = (0..LANES).map(|_| unit.replicate()).collect();
        let mut control: Vec<PuExec> = (0..LANES).map(|_| unit.replicate()).collect();
        let mut batch = PuExecBatch::for_unit(&batched[0], LANES);
        let mut pos = [0usize; LANES];
        let mut cyc = 0u64;
        while !(0..LANES).all(|l| batched[l].finished()) {
            // Pre-evaluate every lane-pending unit through the batch;
            // the rest (idle, back-pressured, drained) are masked off
            // exactly as the engine masks them.
            let group: Vec<usize> = (0..LANES).filter(|&l| batched[l].lane_pending()).collect();
            if !group.is_empty() {
                let lanes: Vec<&PuExec> = group.iter().map(|&l| &batched[l]).collect();
                batch.sweep(&lanes);
                for (lane, &l) in group.iter().enumerate() {
                    batched[l].adopt_lane_eval(&mut batch, lane);
                }
            }
            for l in 0..LANES {
                let toks = &streams[l];
                let starved = (cyc * 7 + l as u64 * 13) % 5 < 2;
                let ready = (cyc + l as u64) % 4 != 3;
                let have = pos[l] < toks.len() && !starved;
                let pins = PuIn {
                    input_token: if have { toks[pos[l]] } else { 0 },
                    input_valid: have,
                    input_finished: pos[l] >= toks.len(),
                    output_ready: ready,
                };
                let ob = batched[l].comb(&pins);
                let oc = control[l].comb(&pins);
                assert_eq!(ob, oc, "lane {l} diverged at cycle {cyc}");
                batched[l].clock(&pins);
                control[l].clock(&pins);
                if ob.input_ready && pins.input_valid {
                    pos[l] += 1;
                }
            }
            cyc += 1;
            assert!(cyc < 100_000, "batched drive did not terminate");
        }
        for l in 0..LANES {
            assert_eq!(batched[l].cycles(), control[l].cycles());
            assert_eq!(batched[l].vcycles(), control[l].vcycles());
            assert_eq!(batched[l].counters(), control[l].counters());
            assert_eq!(batched[l].state().regs, control[l].state().regs);
        }
    }

    /// [`walk_lane_rows`] must leave every swept lane exactly what
    /// [`walk_ops`] computes from that lane's own scalar evaluation —
    /// on the six paper apps, with divergent lanes, at lane counts on
    /// both sides of the eight-lane groups the guard masks are packed
    /// in.
    #[test]
    fn lane_walk_matches_per_lane_walk_on_all_apps() {
        use fleet_apps::{App, AppKind};
        use fleet_isim::bytes_to_tokens;

        /// One unstalled engine cycle on the unit's own evaluation path.
        fn tick(pu: &mut PuExec, tokens: &[u64], pos: &mut usize) {
            let have = *pos < tokens.len();
            let pins = PuIn {
                input_token: if have { tokens[*pos] } else { 0 },
                input_valid: have,
                input_finished: !have,
                output_ready: true,
            };
            if pu.tick(&pins).input_ready && have {
                *pos += 1;
            }
        }

        for kind in AppKind::all() {
            let app = App::new(kind);
            let spec = app.spec();
            let unit = CompiledUnit::new(&spec);
            let streams: Vec<Vec<u64>> = (0..MAX_LANES as u64)
                .map(|l| {
                    bytes_to_tokens(&app.gen_stream(l + 1, 2048), spec.input_token_bits)
                        .expect("whole tokens")
                })
                .collect();
            let mut pus: Vec<PuExec> = (0..MAX_LANES).map(|_| unit.replicate()).collect();
            let mut pos = vec![0usize; MAX_LANES];
            // Stagger the replicas so registers, BRAMs and loop phases
            // differ from lane to lane.
            for l in 0..MAX_LANES {
                for _ in 0..3 * l + 5 {
                    tick(&mut pus[l], &streams[l], &mut pos[l]);
                }
            }
            let mut batch = PuExecBatch::for_unit(&pus[0], MAX_LANES);
            let mut vals = unit.opt.seed_vals();
            for n in [1, 2, 7, 8, 9, 31, 33, 47, 63, 64] {
                for round in 0..4 {
                    let lanes: Vec<&PuExec> = pus[..n].iter().collect();
                    let pending = lanes.iter().all(|pu| pu.lane_pending());
                    assert!(pending, "{}: a stream ran dry", app.name());
                    batch.sweep(&lanes);
                    for (l, pu) in lanes.iter().enumerate() {
                        unit.packed.eval(&pu.state, pu.i, pu.f, &mut vals);
                        let loop_active = unit.opt.any_loop(&vals);
                        let mut want = PendingWrites::default();
                        let emit =
                            walk_ops(&unit.opt, &pu.state, loop_active, |s| vals[s as usize], &mut want);
                        let at = format!("{}: lane {l} of {n}, round {round}", app.name());
                        assert_eq!(batch.loop_active[l], loop_active, "{at}");
                        assert_eq!(batch.emits[l], emit, "{at}");
                        assert_eq!(batch.pending[l].regs, want.regs, "{at}");
                        assert_eq!(batch.pending[l].vec_regs, want.vec_regs, "{at}");
                        assert_eq!(batch.pending[l].brams, want.brams, "{at}");
                    }
                    for l in 0..MAX_LANES {
                        tick(&mut pus[l], &streams[l], &mut pos[l]);
                    }
                }
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
