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

/// One virtual cycle's evaluation, cached across stall cycles. The
/// cycle's state writes are not part of it: they wait in the unit's
/// scratch until the handshake succeeds.
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
    /// The input port's width as a mask: a latched token keeps only the
    /// unit's `input_token_bits`, however many bytes carried it.
    in_mask: u64,
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
        let in_mask = mask(u64::MAX, spec.input_token_bits);
        CompiledUnit { spec, ssa, opt, packed, reset, plane32, in_mask }
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
    /// whenever `cached` is `None`.
    scratch: PendingWrites,
    /// The unit's state — held by its lane group instead while the unit
    /// is resident (see `resident`).
    state: UnitState,
    /// Latched input token and stream-finished flag. Authoritative even
    /// while resident: [`PuExec::clock_retired`] latches into both the
    /// unit and its lane's rows.
    i: u64,
    v: bool,
    f: bool,
    cached: Option<VcycleEval>,
    /// The unit is resident in a lane group ([`PuExecBatch::join`]):
    /// the group holds its `state`, and the group's plane column holds
    /// its registers, until [`PuExecBatch::leave`] stores them back.
    resident: bool,
    cycles: u64,
    vcycles: u64,
    counters: PuCycleCounters,
    /// Inherited narrow-plane admissibility (see [`CompiledUnit`]).
    plane32: bool,
    /// Inherited input-port mask (see [`CompiledUnit`]).
    in_mask: u64,
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
            resident: false,
            cycles: 0,
            vcycles: 0,
            counters: PuCycleCounters::default(),
            plane32: unit.plane32,
            in_mask: unit.in_mask,
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
    ///
    /// # Panics
    ///
    /// Panics while the unit is resident in a lane group, which holds
    /// its state until the unit leaves (a drive evicts every resident
    /// unit before it returns).
    pub fn state(&self) -> &UnitState {
        assert!(!self.resident, "a resident unit's state lives in its lane group");
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
            debug_assert!(!self.resident, "a resident unit switched evaluation paths");
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

    /// Whether this unit is waiting for exactly the work a lane sweep
    /// provides: a latched token (or cleanup execution) with no cached
    /// evaluation yet, on the optimized/packed path.
    ///
    /// Such a unit's next [`PuExec::comb`]/[`PuExec::clock`] would run
    /// the packed instruction sweep and, if its handshake succeeds,
    /// commit the result; [`PuExecBatch::retire`] +
    /// [`PuExec::clock_retired`] do the same for a resident unit, so
    /// batching is externally unobservable.
    #[inline]
    pub fn lane_pending(&self) -> bool {
        self.v && self.cached.is_none() && !self.reference
    }

    /// Whether the unit is resident in a lane group ([`PuExecBatch::join`]
    /// until [`PuExecBatch::leave`]).
    #[inline]
    pub fn resident(&self) -> bool {
        self.resident
    }

    /// [`PuExec::comb`] and [`PuExec::clock`] for the unit resident in
    /// lane `lane` of `group`, after the cycle's [`PuExecBatch::retire`].
    /// `pins` must be the cycle's pins, with the `output_ready` the
    /// sweep was given.
    ///
    /// A retired lane (nothing emitted, or the emission accepted) had
    /// its writes committed by the sweep; this fuses the rest: accounts
    /// the cycle, latches the next token into the unit and into its
    /// lane's input and finished rows when the cycle consumed its own,
    /// and returns the cycle's outputs. A back-pressured lane instead
    /// has its plane column walked into the unit's scratch — the
    /// evaluation [`PuExec::comb`] would have cached — and gets `None`:
    /// the caller steps it through `comb`/`clock`, which stall on it.
    #[inline]
    pub fn clock_retired(&mut self, group: &mut PuExecBatch, lane: usize, pins: &PuIn) -> Option<PuOut> {
        debug_assert!(self.resident && self.lane_pending(), "lane {lane} was not swept");
        let bit = 1u64 << lane;
        let out = &group.out;
        let loop_active = out.loop_mask & bit != 0;
        let emit = (out.emitted & bit != 0).then_some(out.tokens[lane]);
        if out.retired & bit == 0 {
            let walked = group.walk_column(lane, loop_active, &mut self.scratch);
            debug_assert_eq!(walked, emit, "lane {lane}: row walk and column walk disagree");
            self.cached = Some(VcycleEval { loop_active, emit });
            return None;
        }
        debug_assert!(emit.is_none() || pins.output_ready, "retired a refused handshake");
        self.cycles += 1;
        self.counters.add(CycleClass::Busy);
        self.vcycles += 1;
        if loop_active {
            group.staying |= bit;
        } else {
            self.latch(pins);
            group.relatch(lane, self.i, self.f, self.v);
        }
        Some(PuOut {
            input_ready: !loop_active,
            output_token: emit.unwrap_or(0),
            output_valid: emit.is_some(),
            output_finished: false,
        })
    }

    /// `input_ready` was asserted: accept the next token, start the
    /// cleanup execution, or go idle. The token is cut to the input
    /// port's width, as the hardware port does: a memory controller
    /// hands over whole bytes, and a 12-bit unit must not see the four
    /// bits above its token.
    #[inline]
    fn latch(&mut self, pins: &PuIn) {
        self.v = pins.input_valid || (!self.f && pins.input_finished);
        self.f = self.f || pins.input_finished;
        self.i = if pins.input_valid { pins.input_token & self.in_mask } else { 0 };
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
            let ev = self.eval_vcycle();
            let handshake_ok = ev.emit.is_none() || pins.output_ready;
            self.counters.add(if handshake_ok {
                CycleClass::Busy
            } else {
                CycleClass::StallOut
            });
            if handshake_ok {
                debug_assert!(!self.resident, "a resident unit commits through its lane group");
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
/// and a back-pressured lane (reading its column of a [`PuExecBatch`]
/// plane), so both leave the same evaluation by construction.
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

/// Lanes `0..n` as a bitmask.
#[inline]
fn lanes_below(n: usize) -> u64 {
    if n >= MAX_LANES {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// A persistent lane group: up to `width` replicas of one compiled
/// program that stay resident for a whole busy episode and are swept
/// together — the SIMD half of the simulator hot path.
///
/// All replicas of a [`CompiledUnit`] execute the *same* [`PackedProg`];
/// the group sweeps one instruction across every resident lane before
/// moving to the next ([`PackedProg::sweep_lanes`]), turning the
/// per-unit interpreter dispatch into dense per-row arithmetic the
/// compiler vectorizes. Divergent guards cost nothing because each lane
/// owns a full column of the plane.
///
/// **What lives where.** While a unit is resident the group owns its
/// state. The plane rows the program reads registers, the input token
/// and the finished flag from *are* the lane's registers and latches
/// (a register the program writes but never reads gets a row of its
/// own), so a sweep stages nothing. The unit's [`UnitState`] moves into
/// the group's resident list: the sweep reaches the dynamically indexed
/// vector registers and BRAMs through it. The unit itself keeps its
/// handshake state and counters.
///
/// **Join and leave.** [`PuExecBatch::join`] is the one load: it copies
/// the unit's registers, latched token and finished flag into the next
/// free lane's column and moves its state in. [`PuExecBatch::leave`] is
/// the one store: it copies the column back into the state, hands the
/// state back, and moves the last lane into the hole, so the resident
/// lanes stay `0..len` and a sweep never covers a dead lane. A unit
/// must leave before the next sweep once it has no evaluation pending
/// ([`PuExecBatch::leaving`]), and whenever its owner drops the group.
///
/// **The sweep retires the cycle** ([`PuExecBatch::retire`]): it commits
/// every retiring lane's guarded writes — register writes as row
/// stores — and keeps the outcome (loop, emit and retire lane masks
/// plus a token row) for [`PuExec::clock_retired`] to read by lane.
///
/// The plane's constant rows (slots below the program's first state
/// row) are seeded once at construction and never rewritten.
#[derive(Debug)]
pub struct PuExecBatch {
    opt: Arc<SsaProg>,
    packed: Arc<PackedProg>,
    width: usize,
    /// Lane-major values: row `s`, lane `l` at `plane[s * width + l]`.
    /// Rows `0..opt.slots()` are the program's slots; after them, one
    /// row per written-but-unread register, then the shadow rows.
    plane: LanePlane,
    /// `(register, row)` for every register the program reads or
    /// writes: the row that holds it while its unit is resident.
    homes: Vec<(u32, u32)>,
    /// Rows of the latched input token and finished flag, if read.
    input_row: Option<u32>,
    finished_row: Option<u32>,
    walk: Walk,
    scratch: WalkScratch,
    /// The resident units by lane: the caller's id for each ...
    ids: Vec<usize>,
    /// ... and its state, moved in at join (its `regs` are stale while
    /// resident: the register rows hold them).
    states: Vec<UnitState>,
    /// Lanes whose unit has an evaluation pending for the next sweep:
    /// set by `join`, and by `clock_retired` for a lane that loops or
    /// latched another token. The others must leave first.
    staying: u64,
    /// The last sweep's outcome, read by lane in `clock_retired`.
    out: LaneOutcome,
}

/// What one sweep decided for each lane.
#[derive(Debug)]
struct LaneOutcome {
    loop_mask: u64,
    emitted: u64,
    /// `!emitted | output_ready`: the lanes whose cycle committed.
    retired: u64,
    /// Emitted token per lane (meaningful where `emitted` is set).
    tokens: [u64; MAX_LANES],
}

/// The program's guarded operations as the lane walk runs them, built
/// once per group.
#[derive(Debug)]
struct Walk {
    loop_conds: Vec<Slot>,
    /// Distinct guard slots across the ops; each sweep packs every
    /// distinct guard row into a lane bitmask exactly once, however
    /// many ops it gates.
    guard_slots: Vec<Slot>,
    /// The `Emit` ops, then the state writes, each in source order.
    emits: Vec<LaneOp>,
    writes: Vec<LaneOp>,
    /// `(register row, shadow row)` pairs copied before the writes
    /// commit (the swap hazard, see [`PuExecBatch::for_unit`]).
    shadows: Vec<(u32, u32)>,
    /// Vector registers more than one op writes: only their writes are
    /// logged for the per-element first-write-wins check; a register
    /// with one writer cannot collide.
    vec_multi: Vec<bool>,
}

/// One guarded op of the lane walk.
#[derive(Debug)]
struct LaneOp {
    in_loop: bool,
    /// Guards as indices into [`Walk::guard_slots`].
    guards: Vec<u32>,
    kind: LaneOpKind,
}

/// The op proper, with its operand slots (register writes store into
/// the register's home row) and result masks resolved.
#[derive(Debug, Clone, Copy)]
enum LaneOpKind {
    Emit { val: Slot, mask: u64 },
    SetReg { reg: u32, row: u32, val: Slot, mask: u64 },
    SetVecReg { vr: u32, idx: Slot, val: Slot, mask: u64 },
    BramWrite { bram: u32, addr: Slot, amask: u64, val: Slot, dmask: u64 },
}

/// Per-sweep scratch of the walk, recycled across sweeps.
#[derive(Debug)]
struct WalkScratch {
    /// Packed lane bitmasks, parallel to [`Walk::guard_slots`].
    guard_masks: Vec<u64>,
    /// Lanes that already wrote each register / BRAM this sweep — the
    /// first-write-wins dedup transposed into one mask AND per op, so
    /// repeat writers skip already-written lanes without visiting them.
    reg_lanes: Vec<u64>,
    bram_lanes: Vec<u64>,
    /// `(lane, vector register, element)` written this sweep, for the
    /// multi-writer vector registers only.
    vec_written: Vec<(usize, usize, usize)>,
}

/// Backing storage for a group's lane-major value plane.
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

impl LanePlane {
    fn get(&self, i: usize) -> u64 {
        match self {
            LanePlane::Wide(p) => p[i],
            LanePlane::Narrow(p) => u64::from(p[i]),
        }
    }

    /// Stores `v`, which fits the plane word (the narrow plane only
    /// ever holds values the unit's proof bounds to 32 bits).
    fn set(&mut self, i: usize, v: u64) {
        match self {
            LanePlane::Wide(p) => p[i] = v,
            LanePlane::Narrow(p) => p[i] = v as u32,
        }
    }

    fn copy(&mut self, from: usize, to: usize) {
        match self {
            LanePlane::Wide(p) => p[to] = p[from],
            LanePlane::Narrow(p) => p[to] = p[from],
        }
    }
}

/// Column element of a lane-major evaluation plane: lets the
/// guarded-op walk run over either plane width from one body.
trait LaneVal: Copy {
    /// The value as the architectural `u64` it represents.
    fn widen(self) -> u64;
    /// A value known to fit the plane word.
    fn narrow(v: u64) -> Self;
}

impl LaneVal for u64 {
    #[inline]
    fn widen(self) -> u64 {
        self
    }
    #[inline]
    fn narrow(v: u64) -> u64 {
        v
    }
}

impl LaneVal for u32 {
    #[inline]
    fn widen(self) -> u64 {
        u64::from(self)
    }
    #[inline]
    fn narrow(v: u64) -> u32 {
        v as u32
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
/// (`!emitted | output_ready`) has its writes committed — register
/// writes into its register rows, vector-register and BRAM writes into
/// its resident state. Every value was computed from pre-cycle state
/// before the first store, and an operand that is itself a written
/// register's row reads the shadow copy taken before the stores, so
/// storing one op at a time *is* the simultaneous commit. A
/// back-pressured lane commits nothing; its unit walks its column in
/// [`PuExec::clock_retired`].
fn retire_rows<T: LaneVal>(
    walk: &Walk,
    plane: &mut [T],
    width: usize,
    states: &mut [UnitState],
    output_ready: u64,
    scratch: &mut WalkScratch,
    out: &mut LaneOutcome,
) {
    let n = states.len();
    let full = lanes_below(n);
    let row_mask = |plane: &[T], s: Slot| nonzero_mask(&plane[s as usize * width..][..n]);
    let loop_mask = walk.loop_conds.iter().fold(0u64, |m, &s| m | row_mask(plane, s));
    for (gm, &g) in scratch.guard_masks.iter_mut().zip(&walk.guard_slots) {
        *gm = row_mask(plane, g);
    }
    let guard_masks = &scratch.guard_masks;
    let firing = |op: &LaneOp| {
        let phase = if op.in_loop { loop_mask } else { !loop_mask & full };
        op.guards.iter().fold(phase, |fm, &gi| fm & guard_masks[gi as usize])
    };

    let mut emitted = 0u64;
    for op in &walk.emits {
        let LaneOpKind::Emit { val, mask: wm } = op.kind else { unreachable!("emits only") };
        let vrow = &plane[val as usize * width..][..n];
        let mut it = firing(op) & !emitted;
        emitted |= it;
        while it != 0 {
            let l = it.trailing_zeros() as usize;
            it &= it - 1;
            out.tokens[l] = vrow[l].widen() & wm;
        }
    }
    let retire = (!emitted | output_ready) & full;
    out.loop_mask = loop_mask;
    out.emitted = emitted;
    out.retired = retire;

    for &(src, dst) in &walk.shadows {
        let src = src as usize * width;
        plane.copy_within(src..src + n, dst as usize * width);
    }
    scratch.reg_lanes.fill(0);
    scratch.bram_lanes.fill(0);
    scratch.vec_written.clear();
    let at = |s: Slot, l: usize| s as usize * width + l;
    for op in &walk.writes {
        let fm = firing(op) & retire;
        if fm == 0 {
            continue;
        }
        match op.kind {
            LaneOpKind::SetReg { reg, row, val, mask: wm } => {
                let written = &mut scratch.reg_lanes[reg as usize];
                let mut it = fm & !*written;
                *written |= it;
                while it != 0 {
                    let l = it.trailing_zeros() as usize;
                    it &= it - 1;
                    plane[at(row, l)] = T::narrow(plane[at(val, l)].widen() & wm);
                }
            }
            LaneOpKind::SetVecReg { vr, idx, val, mask: wm } => {
                let v = vr as usize;
                let mut it = fm;
                while it != 0 {
                    let l = it.trailing_zeros() as usize;
                    it &= it - 1;
                    let i = plane[at(idx, l)].widen() as usize;
                    // Out-of-range index selects no element, like the
                    // compiled write decoders.
                    let Some(elem) = states[l].vec_regs[v].get_mut(i) else { continue };
                    if walk.vec_multi[v] {
                        if scratch.vec_written.contains(&(l, v, i)) {
                            continue;
                        }
                        scratch.vec_written.push((l, v, i));
                    }
                    *elem = plane[at(val, l)].widen() & wm;
                }
            }
            LaneOpKind::BramWrite { bram, addr, amask, val, dmask } => {
                let b = bram as usize;
                let written = &mut scratch.bram_lanes[b];
                let mut it = fm & !*written;
                *written |= it;
                while it != 0 {
                    let l = it.trailing_zeros() as usize;
                    it &= it - 1;
                    let a = (plane[at(addr, l)].widen() & amask) as usize;
                    states[l].brams[b][a] = plane[at(val, l)].widen() & dmask;
                }
            }
            LaneOpKind::Emit { .. } => unreachable!("emits resolve before the writes"),
        }
    }
}

impl PuExecBatch {
    /// Builds an empty `width`-lane group for `pu`'s compiled program.
    /// Any replica of the same [`CompiledUnit`] can join any lane.
    ///
    /// Register writes commit as stores into register rows while later
    /// writes of the same sweep still read their operands from the
    /// plane, so an operand that *is* a written register's row (`a <=
    /// b; b <= a`, or a BRAM address or vector index straight from a
    /// register) would see the new value. Each such row gets a shadow
    /// row, copied before the first store, and the operand reads the
    /// shadow.
    ///
    /// # Panics
    ///
    /// Panics unless `width` is in `1..=MAX_LANES`.
    pub fn for_unit(pu: &PuExec, width: usize) -> PuExecBatch {
        assert!((1..=MAX_LANES).contains(&width), "batch width {width} outside 1..={MAX_LANES}");
        let opt = &pu.opt;
        let mut rows = opt.slots() as u32;
        let mut homes: Vec<(u32, Slot)> = pu.packed.reg_rows().collect();
        for op in &opt.ops {
            if let SsaOp::SetReg { reg, .. } = op.op {
                if !homes.iter().any(|&(r, _)| r == reg) {
                    homes.push((reg, rows));
                    rows += 1;
                }
            }
        }
        let home = |reg: u32| homes.iter().find(|&&(r, _)| r == reg).expect("homed above").1;
        let written: Vec<Slot> = opt
            .ops
            .iter()
            .filter_map(|op| match op.op {
                SsaOp::SetReg { reg, .. } => Some(home(reg)),
                _ => None,
            })
            .collect();
        let mut shadows: Vec<(Slot, Slot)> = Vec::new();
        let mut operand = |s: Slot| {
            if !written.contains(&s) {
                return s;
            }
            match shadows.iter().find(|&&(src, _)| src == s) {
                Some(&(_, copy)) => copy,
                None => {
                    shadows.push((s, rows));
                    rows += 1;
                    rows - 1
                }
            }
        };
        let mut guard_slots: Vec<Slot> = Vec::new();
        let (mut emits, mut writes) = (Vec::new(), Vec::new());
        // Writers per register / BRAM / vector register, indexed by
        // target id.
        let (mut reg_n, mut bram_n, mut vec_writers) = (0, 0, Vec::<u32>::new());
        for op in &opt.ops {
            let guards = op
                .guards
                .iter()
                .map(|&g| match guard_slots.iter().position(|&s| s == g) {
                    Some(i) => i as u32,
                    None => {
                        guard_slots.push(g);
                        (guard_slots.len() - 1) as u32
                    }
                })
                .collect();
            let kind = match op.op {
                SsaOp::Emit { val, width } => LaneOpKind::Emit { val, mask: mask(u64::MAX, width) },
                SsaOp::SetReg { reg, width, val } => {
                    reg_n = reg_n.max(reg as usize + 1);
                    LaneOpKind::SetReg { reg, row: home(reg), val: operand(val), mask: mask(u64::MAX, width) }
                }
                SsaOp::SetVecReg { vr, width, idx, val } => {
                    if vec_writers.len() <= vr as usize {
                        vec_writers.resize(vr as usize + 1, 0);
                    }
                    vec_writers[vr as usize] += 1;
                    let (idx, val) = (operand(idx), operand(val));
                    LaneOpKind::SetVecReg { vr, idx, val, mask: mask(u64::MAX, width) }
                }
                SsaOp::BramWrite { bram, aw, dw, addr, val } => {
                    bram_n = bram_n.max(bram as usize + 1);
                    let (addr, val) = (operand(addr), operand(val));
                    LaneOpKind::BramWrite {
                        bram,
                        addr,
                        amask: mask(u64::MAX, aw),
                        val,
                        dmask: mask(u64::MAX, dw),
                    }
                }
            };
            let op = LaneOp { in_loop: op.in_loop, guards, kind };
            if matches!(kind, LaneOpKind::Emit { .. }) {
                emits.push(op);
            } else {
                writes.push(op);
            }
        }
        let rows = rows as usize;
        let plane = if pu.plane32 {
            let mut p = vec![0u32; rows * width];
            for (s, &v) in opt.seed_vals().iter().enumerate() {
                p[s * width..(s + 1) * width].fill(v as u32);
            }
            LanePlane::Narrow(p)
        } else {
            let mut p = vec![0u64; rows * width];
            for (s, &v) in opt.seed_vals().iter().enumerate() {
                p[s * width..(s + 1) * width].fill(v);
            }
            LanePlane::Wide(p)
        };
        let scratch = WalkScratch {
            guard_masks: vec![0; guard_slots.len()],
            reg_lanes: vec![0; reg_n],
            bram_lanes: vec![0; bram_n],
            vec_written: Vec::new(),
        };
        PuExecBatch {
            opt: Arc::clone(&pu.opt),
            packed: Arc::clone(&pu.packed),
            width,
            plane,
            homes,
            input_row: pu.packed.input_row(),
            finished_row: pu.packed.finished_row(),
            walk: Walk {
                loop_conds: opt.loop_conds.clone(),
                guard_slots,
                emits,
                writes,
                shadows,
                vec_multi: vec_writers.iter().map(|&w| w > 1).collect(),
            },
            scratch,
            ids: Vec::with_capacity(width),
            states: Vec::with_capacity(width),
            staying: 0,
            out: LaneOutcome { loop_mask: 0, emitted: 0, retired: 0, tokens: [0; MAX_LANES] },
        }
    }

    /// Number of lanes in the plane.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of resident units (they occupy lanes `0..len`).
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether no unit is resident.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Whether every lane is taken.
    pub fn is_full(&self) -> bool {
        self.ids.len() == self.width
    }

    /// The id each resident unit joined with, by lane.
    pub fn ids(&self) -> &[usize] {
        &self.ids
    }

    /// Resident lanes whose unit has no evaluation pending (a
    /// back-pressured lane, or one that went idle or finished): each
    /// must [`PuExecBatch::leave`] before the next sweep.
    pub fn leaving(&self) -> u64 {
        !self.staying & lanes_below(self.ids.len())
    }

    /// Whether `pu` executes the exact program this group was built for
    /// (same `Arc`, optimized path selected).
    pub fn matches(&self, pu: &PuExec) -> bool {
        Arc::ptr_eq(&self.packed, &pu.packed) && !pu.reference
    }

    /// Loads `pu` into the next free lane under the caller's `id` and
    /// returns the lane: copies its registers, latched token and
    /// finished flag into the lane's column and moves its state into
    /// the group. `pu` must satisfy [`PuExec::lane_pending`] and
    /// [`PuExecBatch::matches`].
    ///
    /// # Panics
    ///
    /// Panics if the group is full or `pu` is already resident.
    pub fn join(&mut self, pu: &mut PuExec, id: usize) -> usize {
        let l = self.ids.len();
        assert!(l < self.width, "join of a full lane group");
        assert!(!pu.resident, "unit {id} is already resident");
        debug_assert!(pu.lane_pending() && self.matches(pu), "unit {id} cannot join this group");
        let state = std::mem::take(&mut pu.state);
        let w = self.width;
        for &(r, row) in &self.homes {
            self.plane.set(row as usize * w + l, state.regs[r as usize]);
        }
        if let Some(row) = self.input_row {
            self.plane.set(row as usize * w + l, pu.i);
        }
        if let Some(row) = self.finished_row {
            self.plane.set(row as usize * w + l, u64::from(pu.f));
        }
        pu.resident = true;
        self.ids.push(id);
        self.states.push(state);
        self.staying |= 1 << l;
        l
    }

    /// Stores lane `lane`'s column back into its unit `pu` and hands the
    /// unit its state back, then moves the last lane into the hole.
    /// Returns the id of the unit that moved into `lane`, if one did.
    /// Call only between a cycle's clock steps and the next sweep.
    pub fn leave(&mut self, lane: usize, pu: &mut PuExec) -> Option<usize> {
        assert!(pu.resident, "unit {} is not resident", self.ids[lane]);
        let mut state = self.states.swap_remove(lane);
        self.store_regs(lane, &mut state.regs);
        pu.state = state;
        pu.resident = false;
        self.ids.swap_remove(lane);
        let last = self.ids.len();
        let stays = self.staying >> last & 1;
        self.staying &= !(1 << lane | 1 << last);
        if lane == last {
            return None;
        }
        let w = self.width;
        let rows = self.homes.iter().map(|&(_, row)| row).chain(self.input_row).chain(self.finished_row);
        for row in rows {
            self.plane.copy(row as usize * w + last, row as usize * w + lane);
        }
        self.staying |= stays << lane;
        Some(self.ids[lane])
    }

    /// Copies lane `lane`'s register rows into `regs`.
    fn store_regs(&self, lane: usize, regs: &mut [u64]) {
        for &(r, row) in &self.homes {
            regs[r as usize] = self.plane.get(row as usize * self.width + lane);
        }
    }

    /// A retired lane's clock step latched `token`/`finished` (and left
    /// the unit `pending` or not): mirror the latch into its rows.
    #[inline]
    fn relatch(&mut self, lane: usize, token: u64, finished: bool, pending: bool) {
        let w = self.width;
        if let Some(row) = self.input_row {
            self.plane.set(row as usize * w + lane, token);
        }
        if let Some(row) = self.finished_row {
            self.plane.set(row as usize * w + lane, u64::from(finished));
        }
        self.staying |= u64::from(pending) << lane;
    }

    /// [`walk_ops`] over lane `lane`'s column of the last sweep, into
    /// `pending`: the back-pressured lane's cached evaluation.
    fn walk_column(&self, lane: usize, loop_active: bool, pending: &mut PendingWrites) -> Option<u64> {
        let get = |s: Slot| self.plane.get(s as usize * self.width + lane);
        walk_ops(&self.opt, &self.states[lane], loop_active, get, pending)
    }

    /// Evaluates one virtual cycle for every resident lane and retires
    /// it wherever the output handshake allows; bit `l` of
    /// `output_ready` is the `output_ready` pin lane `l`'s unit sees
    /// this cycle. Every resident unit must have an evaluation pending
    /// (units in [`PuExecBatch::leaving`] left first).
    ///
    /// The sweep covers the whole virtual cycle: the SIMD instruction
    /// sweep ([`PackedProg::sweep_lanes`]) over the resident rows *and*
    /// the guarded-op walk, run op-major so every plane access is a
    /// contiguous row. A lane that emits nothing, or whose emission is
    /// accepted, has its state writes committed; each unit then takes
    /// [`PuExec::clock_retired`] in the same cycle, which reads the
    /// outcome by lane.
    ///
    /// # Panics
    ///
    /// Panics if no unit is resident.
    pub fn retire(&mut self, output_ready: u64) {
        assert!(!self.ids.is_empty(), "sweep of an empty lane group");
        debug_assert_eq!(self.leaving(), 0, "a lane without pending work stayed resident");
        self.staying = 0;
        let Self { packed, width, plane, walk, scratch, states, out, .. } = self;
        match plane {
            LanePlane::Wide(p) => {
                packed.sweep_lanes(states, *width, p);
                retire_rows(walk, p, *width, states, output_ready, scratch, out);
            }
            LanePlane::Narrow(p) => {
                packed.sweep_lanes32(states, *width, p);
                retire_rows(walk, p, *width, states, output_ready, scratch, out);
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

    /// A memory controller hands a 12-bit unit two whole bytes per
    /// token; the unit sees only its 12 bits, as the interpreter (which
    /// masks every token) and the reference program do.
    #[test]
    fn latched_tokens_keep_only_the_input_width() {
        let mut u = UnitBuilder::new("Narrow", 12, 16);
        let sum = u.reg("sum", 16, 0);
        let inp = u.input();
        let nf = u.stream_finished().not_b();
        u.set(sum, sum + inp.clone());
        u.if_(nf, |u| u.emit(inp.clone()));
        let spec = u.build().unwrap();
        let tokens = [0xF123, 0xFFFF, 0x8000];
        let isim = Interpreter::run_tokens(&spec, &tokens).unwrap();
        assert_eq!(isim.tokens, vec![0x123, 0xFFF, 0]);
        let (out, _) = PuExec::run_stream(&spec, &tokens);
        assert_eq!(out, isim.tokens);
        let mut reference = PuExec::new(&spec);
        reference.set_reference_eval(true);
        let pins = |t| PuIn { input_token: t, input_valid: true, output_ready: true, ..PuIn::default() };
        let outs: Vec<u64> = tokens
            .iter()
            .flat_map(|&t| [reference.tick(&pins(t)), reference.tick(&PuIn { output_ready: true, ..PuIn::default() })])
            .filter(|o| o.output_valid)
            .map(|o| o.output_token)
            .collect();
        assert_eq!(outs, isim.tokens);
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

    /// Which lanes [`check_retire`] also holds to the reference
    /// [`Interpreter`] at token boundaries.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Oracle {
        /// None (the interpreter rejects the unit by design).
        Off,
        /// Every checked lane; a rejection fails the test.
        Always,
        /// Each lane until the interpreter first rejects its stream (a
        /// dynamic restriction the generated unit happened to break).
        WhereAccepted,
    }

    /// Lane `lane`'s unit state as the group holds it: the resident
    /// state with the register rows stored into it.
    fn lane_state(group: &PuExecBatch, lane: usize) -> UnitState {
        let mut st = group.states[lane].clone();
        group.store_regs(lane, &mut st.regs);
        st
    }

    /// Drives `n` replicas through one persistent [`PuExecBatch`] the way
    /// the engine does — units without pending work leave, pending
    /// units join, one [`PuExecBatch::retire`], then every unit's
    /// [`PuExec::clock_retired`] or scalar step — under random
    /// starvation and random `output_ready` masks, against a scalar
    /// `comb`/`clock` twin per lane (state-for-state and pin-for-pin,
    /// every cycle, through joins and leaves) and, per `oracle`, the
    /// reference [`Interpreter`] at every token boundary.
    ///
    /// Returns how many lane-cycles the sweep retired and how many sat
    /// back-pressured.
    fn check_retire(spec: &UnitSpec, streams: &[Vec<u64>], oracle: Oracle, seed: u64) -> (u64, u64) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let n = streams.len();
        // The tree-walking interpreter is two orders slower than the
        // executors: wide groups check a sample of their lanes.
        let mut checked: Vec<bool> = (0..n).map(|l| oracle != Oracle::Off && (n < 10 || l % 16 == 1)).collect();
        let at = |cyc: u64, l: usize| format!("{}: lane {l} of {n}, cycle {cyc}", spec.name);
        let unit = CompiledUnit::new(spec);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut units: Vec<PuExec> = (0..n).map(|_| unit.replicate()).collect();
        let mut twins: Vec<PuExec> = (0..n).map(|_| unit.replicate()).collect();
        let mut interps: Vec<Interpreter> = (0..n).map(|_| Interpreter::new(spec)).collect();
        let mut outs: Vec<Vec<u64>> = vec![Vec::new(); n];
        let mut pos = vec![0usize; n];
        // A back-pressured lane's token: it must be held until accepted.
        let mut held: Vec<Option<u64>> = vec![None; n];
        // What each lane is executing: a token, or (`Some(None)`) the
        // cleanup run.
        let mut running: Vec<Option<Option<u64>>> = vec![None; n];
        let mut group = PuExecBatch::for_unit(&units[0], MAX_LANES);
        let mut lane_of: Vec<Option<usize>> = vec![None; n];
        let (mut retired_cycles, mut stalled_cycles) = (0u64, 0u64);
        let mut cyc = 0u64;
        while !units.iter().all(PuExec::finished) {
            let ready: u64 = rng.gen::<u64>() | rng.gen::<u64>();
            let mut leaving = group.leaving();
            while leaving != 0 {
                let k = 63 - leaving.leading_zeros() as usize;
                leaving &= !(1 << k);
                let u = group.ids()[k];
                if let Some(m) = group.leave(k, &mut units[u]) {
                    lane_of[m] = Some(k);
                }
                lane_of[u] = None;
                // Left: its own state again, exactly the twin's.
                assert_eq!(units[u].state, twins[u].state, "{} (left)", at(cyc, u));
            }
            for u in 0..n {
                if lane_of[u].is_none() && units[u].lane_pending() {
                    lane_of[u] = Some(group.join(&mut units[u], u));
                }
            }
            if !group.is_empty() {
                let mut group_ready = 0u64;
                for (k, &u) in group.ids().iter().enumerate() {
                    group_ready |= ((ready >> u) & 1) << k;
                }
                group.retire(group_ready);
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
                let saw_finish = units[l].f;
                let want = twins[l].comb(&pins);
                let retired = lane_of[l].and_then(|k| units[l].clock_retired(&mut group, k, &pins));
                retired_cycles += u64::from(retired.is_some());
                let got = retired.unwrap_or_else(|| units[l].tick(&pins));
                twins[l].clock(&pins);
                assert_eq!(got, want, "{}", at(cyc, l));
                assert_eq!(units[l].resident(), lane_of[l].is_some(), "{}", at(cyc, l));
                let state = match lane_of[l] {
                    Some(k) => {
                        assert_eq!(group.ids()[k], l, "{}", at(cyc, l));
                        lane_state(&group, k)
                    }
                    None => units[l].state.clone(),
                };
                // (BRAM contents are compared at token boundaries.)
                assert_eq!(state.regs, twins[l].state.regs, "{}", at(cyc, l));
                assert_eq!(state.vec_regs, twins[l].state.vec_regs, "{}", at(cyc, l));
                assert_eq!(units[l].quiescence(), twins[l].quiescence(), "{}", at(cyc, l));
                if let Some(tok) = held[l] {
                    assert!(got.output_valid && got.output_token == tok, "{}", at(cyc, l));
                }
                held[l] = (got.output_valid && !pins.output_ready).then_some(got.output_token);
                stalled_cycles += u64::from(held[l].is_some());
                if got.output_valid && pins.output_ready {
                    outs[l].push(got.output_token);
                }
                if got.input_ready {
                    assert_eq!(state, twins[l].state, "{}", at(cyc, l));
                    // The running token's last virtual cycle just
                    // committed: the interpreter catches up.
                    if let (true, Some(run)) = (checked[l], running[l]) {
                        let step = match run {
                            Some(t) => interps[l].step_token(t),
                            None => interps[l].finish(),
                        };
                        match step {
                            Ok(()) => {
                                assert_eq!(&state, interps[l].state(), "{}", at(cyc, l));
                                assert_eq!(outs[l], interps[l].outputs(), "{}", at(cyc, l));
                            }
                            Err(e) => {
                                assert_eq!(oracle, Oracle::WhereAccepted, "{}: {e}", at(cyc, l));
                                checked[l] = false;
                            }
                        }
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
            assert_eq!(units[l].cycles(), twins[l].cycles(), "{}", at(cyc, l));
            assert_eq!(units[l].vcycles(), twins[l].vcycles(), "{}", at(cyc, l));
            assert_eq!(units[l].counters(), twins[l].counters(), "{}", at(cyc, l));
            if checked[l] {
                assert_eq!(running[l], None, "{}", at(cyc, l));
                assert_eq!(units[l].vcycles(), interps[l].vcycles(), "{}", at(cyc, l));
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
            let mut cases: Vec<(UnitSpec, Gen, Oracle)> = AppKind::all()
                .into_iter()
                .map(|kind| {
                    let app = App::new(kind);
                    let spec = app.spec();
                    let bits = spec.input_token_bits;
                    let gen = move |l: u64| {
                        bytes_to_tokens(&app.gen_stream(seed ^ l, 192), bits).expect("whole tokens")
                    };
                    (spec, Box::new(gen) as Gen, Oracle::Always)
                })
                .collect();
            let collide = move |l: u64| {
                let mut rng = StdRng::seed_from_u64(seed ^ l);
                (0..96).map(|_| u64::from(rng.gen::<u8>())).collect()
            };
            cases.push((collision_spec(), Box::new(collide), Oracle::Off));
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

    /// [`check_retire`] on the generated unit the choice words describe,
    /// at group sizes on both sides of a guard-mask byte and at a full
    /// 64-lane plane, each lane fed its own stream of tokens within the
    /// unit's token width (all drawn from the words, so a failure
    /// replays and shrinks).
    fn check_generated(words: &[u32]) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let spec = fleet_lang::generate::unit_from_choices(words);
        let seed = words.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &w| {
            (h ^ u64::from(w)).wrapping_mul(0x0100_0000_01b3)
        });
        for n in [2usize, 9, 64] {
            let streams: Vec<Vec<u64>> = (0..n as u64)
                .map(|l| {
                    let mut rng = StdRng::seed_from_u64(seed ^ l);
                    let len = rng.gen_range(8..=40);
                    (0..len).map(|_| mask(rng.gen(), spec.input_token_bits)).collect()
                })
                .collect();
            check_retire(&spec, &streams, Oracle::WhereAccepted, seed ^ n as u64);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Generated units — register swaps and rotations, multi-writer
        /// vector registers, BRAMs, nested `if`/`while`, guarded emits,
        /// token widths off the byte grid — through the resident lane
        /// group against the scalar twin every cycle and the interpreter
        /// wherever it accepts the unit; a failure shrinks to a minimal
        /// unit.
        #[test]
        fn generated_units_retire_like_scalar_and_interpreter(
            words in proptest::collection::vec(any::<u32>(), 0..=96),
        ) {
            fleet_lang::generate::check_choices(&words, check_generated);
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
