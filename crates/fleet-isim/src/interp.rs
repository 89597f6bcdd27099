//! The Fleet software simulator: a direct interpreter of [`UnitSpec`]
//! programs with virtual-cycle semantics and dynamic restriction checks.

use fleet_lang::{FlatProgram, OpKind, UnitSpec, mask};

use crate::error::SimError;
use crate::eval::EvalCtx;
use crate::state::{PendingWrites, UnitState};

/// Default cap on loop virtual cycles per input token.
pub const DEFAULT_LOOP_LIMIT: u64 = 1 << 20;

/// Result of simulating a unit over a whole stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimOutput {
    /// Emitted output tokens, in order.
    pub tokens: Vec<u64>,
    /// Total virtual cycles executed (equals the unit's cycle count on
    /// hardware in the absence of input/output stalls).
    pub vcycles: u64,
}

/// An interpreter instance holding unit state across tokens.
///
/// Use [`Interpreter::run_tokens`] for whole-stream simulation, or drive
/// it token by token with [`Interpreter::step_token`] /
/// [`Interpreter::finish`] when interleaving with other machinery.
///
/// # Examples
///
/// ```
/// use fleet_lang::UnitBuilder;
/// use fleet_isim::Interpreter;
///
/// let mut u = UnitBuilder::new("Identity", 8, 8);
/// let inp = u.input();
/// let nf = u.stream_finished().not_b();
/// u.if_(nf, |u| u.emit(inp.clone()));
/// let spec = u.build()?;
///
/// let out = Interpreter::run_tokens(&spec, &[1, 2, 3])?;
/// assert_eq!(out.tokens, vec![1, 2, 3]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Interpreter {
    spec: UnitSpec,
    flat: FlatProgram,
    state: UnitState,
    outputs: Vec<u64>,
    vcycles: u64,
    loop_limit: u64,
    finished_ran: bool,
}

impl Interpreter {
    /// Creates an interpreter with reset state.
    pub fn new(spec: &UnitSpec) -> Interpreter {
        Interpreter {
            flat: FlatProgram::build(&spec.body),
            state: UnitState::reset(spec),
            spec: spec.clone(),
            outputs: Vec::new(),
            vcycles: 0,
            loop_limit: DEFAULT_LOOP_LIMIT,
            finished_ran: false,
        }
    }

    /// Overrides the loop virtual-cycle cap per token.
    pub fn with_loop_limit(mut self, limit: u64) -> Interpreter {
        self.loop_limit = limit;
        self
    }

    /// Current state (for inspection in tests).
    pub fn state(&self) -> &UnitState {
        &self.state
    }

    /// Total virtual cycles executed so far.
    pub fn vcycles(&self) -> u64 {
        self.vcycles
    }

    /// Output tokens emitted so far.
    pub fn outputs(&self) -> &[u64] {
        &self.outputs
    }

    /// Executes one virtual cycle. Returns `true` when the token was
    /// consumed (i.e. this was the final, non-loop virtual cycle).
    fn exec_vcycle(&mut self, token: u64, finished: bool) -> Result<bool, SimError> {
        let mut ctx = EvalCtx::new(&self.state, token, finished);

        // Phase decision: any active loop?
        let mut any_loop = false;
        for cond in &self.flat.loop_conds {
            if ctx.eval_bool(cond)? {
                any_loop = true;
            }
        }

        let mut pending = PendingWrites::default();
        let mut emits: Vec<u64> = Vec::new();

        for op in &self.flat.ops {
            if op.in_loop != any_loop {
                continue;
            }
            let mut active = true;
            for g in &op.guard {
                if !ctx.eval_bool(g)? {
                    active = false;
                    break;
                }
            }
            if !active {
                continue;
            }
            match &op.op {
                OpKind::SetReg(r, v) => {
                    let val = mask(ctx.eval(v)?, r.width());
                    if let Some(&(_, prev)) =
                        pending.regs.iter().find(|(idx, _)| *idx == r.index())
                    {
                        if prev != val {
                            return Err(SimError::ConflictingRegWrites {
                                reg: r.index(),
                                vcycle: self.vcycles,
                            });
                        }
                    } else {
                        pending.regs.push((r.index(), val));
                    }
                }
                OpKind::SetVecReg(vr, i, v) => {
                    let idx = ctx.eval(i)? as usize;
                    let elements = self.state.vec_regs[vr.index()].len();
                    if idx >= elements {
                        return Err(SimError::VecRegIndexOutOfRange {
                            vec_reg: vr.index(),
                            index: idx,
                            elements,
                        });
                    }
                    let val = mask(ctx.eval(v)?, vr.width());
                    let same = |&&(w, e, _): &&(usize, usize, u64)| w == vr.index() && e == idx;
                    match pending.vec_regs.iter().find(same) {
                        Some(&(_, _, prev)) if prev != val => {
                            return Err(SimError::ConflictingVecRegWrites {
                                vec_reg: vr.index(),
                                index: idx,
                                vcycle: self.vcycles,
                            });
                        }
                        Some(_) => {}
                        None => pending.vec_regs.push((vr.index(), idx, val)),
                    }
                }
                OpKind::BramWrite(b, a, v) => {
                    let addr = mask(ctx.eval(a)?, b.addr_width());
                    let val = mask(ctx.eval(v)?, b.data_width());
                    if pending.brams.iter().any(|(idx, _, _)| *idx == b.index()) {
                        return Err(SimError::MultipleBramWrites {
                            bram: b.index(),
                            vcycle: self.vcycles,
                        });
                    }
                    pending.brams.push((b.index(), addr, val));
                }
                OpKind::Emit(v) => {
                    let val = mask(ctx.eval(v)?, self.spec.output_token_bits);
                    if !emits.is_empty() {
                        return Err(SimError::MultipleEmits { vcycle: self.vcycles });
                    }
                    emits.push(val);
                }
            }
        }

        // One read address per BRAM per virtual cycle.
        for b in 0..self.spec.brams.len() {
            let addrs: Vec<u64> = ctx
                .bram_reads
                .iter()
                .filter(|(idx, _)| *idx == b)
                .map(|&(_, a)| a)
                .collect();
            if addrs.len() > 1 {
                return Err(SimError::MultipleBramReads {
                    bram: b,
                    addrs,
                    vcycle: self.vcycles,
                });
            }
        }

        drop(ctx);
        pending.commit(&mut self.state);
        self.outputs.extend(emits);
        self.vcycles += 1;
        Ok(!any_loop)
    }

    /// Runs all virtual cycles for one input token (loop cycles followed
    /// by the final consuming cycle).
    ///
    /// # Errors
    ///
    /// Returns any dynamic restriction violation, or
    /// [`SimError::LoopLimitExceeded`] for runaway loops.
    pub fn step_token(&mut self, token: u64) -> Result<(), SimError> {
        debug_assert!(!self.finished_ran, "step_token after finish");
        let token = mask(token, self.spec.input_token_bits);
        let mut loops = 0u64;
        loop {
            if self.exec_vcycle(token, false)? {
                return Ok(());
            }
            loops += 1;
            if loops > self.loop_limit {
                return Err(SimError::LoopLimitExceeded { limit: self.loop_limit });
            }
        }
    }

    /// Runs the cleanup execution (with `stream_finished` set and a dummy
    /// input token), per §3 of the paper. Call exactly once, after the
    /// last token.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Interpreter::step_token`].
    pub fn finish(&mut self) -> Result<(), SimError> {
        debug_assert!(!self.finished_ran, "finish called twice");
        self.finished_ran = true;
        let mut loops = 0u64;
        loop {
            if self.exec_vcycle(0, true)? {
                return Ok(());
            }
            loops += 1;
            if loops > self.loop_limit {
                return Err(SimError::LoopLimitExceeded { limit: self.loop_limit });
            }
        }
    }

    /// Consumes the interpreter, returning the accumulated output.
    pub fn into_output(self) -> SimOutput {
        SimOutput { tokens: self.outputs, vcycles: self.vcycles }
    }

    /// Simulates a whole stream of tokens (including the cleanup
    /// execution) and returns the output.
    ///
    /// # Errors
    ///
    /// Returns the first dynamic restriction violation encountered.
    pub fn run_tokens(spec: &UnitSpec, tokens: &[u64]) -> Result<SimOutput, SimError> {
        let mut interp = Interpreter::new(spec);
        for &t in tokens {
            interp.step_token(t)?;
        }
        interp.finish()?;
        Ok(interp.into_output())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleet_lang::{lit, UnitBuilder};

    fn histogram_spec(block: u64) -> UnitSpec {
        let mut u = UnitBuilder::new("BlockFrequencies", 8, 8);
        let item_counter = u.reg("itemCounter", 7, 0);
        let frequencies = u.bram("frequencies", 256, 8);
        let idx = u.reg("frequenciesIdx", 9, 0);
        let input = u.input();
        u.if_(item_counter.eq_e(block), |u| {
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
            item_counter.eq_e(block).mux(lit(1, 7), item_counter + 1u64),
        );
        u.build().unwrap()
    }

    #[test]
    fn histogram_counts_one_block() {
        // 100 tokens, all value 7; flush happens on the stream_finished
        // execution since itemCounter == 100 at that point.
        let spec = histogram_spec(100);
        let tokens: Vec<u64> = vec![7; 100];
        let out = Interpreter::run_tokens(&spec, &tokens).unwrap();
        assert_eq!(out.tokens.len(), 256);
        assert_eq!(out.tokens[7], 100);
        assert_eq!(out.tokens[0], 0);
    }

    #[test]
    fn histogram_emits_between_blocks() {
        // Two full blocks of different values.
        let spec = histogram_spec(100);
        let mut tokens: Vec<u64> = vec![1; 100];
        tokens.extend(vec![2; 100]);
        let out = Interpreter::run_tokens(&spec, &tokens).unwrap();
        // 256 entries per block flush, two flushes (one mid-stream, one at
        // finish).
        assert_eq!(out.tokens.len(), 512);
        assert_eq!(out.tokens[1], 100);
        assert_eq!(out.tokens[2], 0);
        assert_eq!(out.tokens[256 + 2], 100);
        assert_eq!(out.tokens[256 + 1], 0);
    }

    #[test]
    fn histogram_vcycle_count_matches_paper_model() {
        // Each of the first 100 tokens takes 1 virtual cycle; the flush
        // takes 256 loop cycles + 1 final cycle at the 101st "token"
        // (the cleanup execution).
        let spec = histogram_spec(100);
        let tokens: Vec<u64> = vec![0; 100];
        let out = Interpreter::run_tokens(&spec, &tokens).unwrap();
        assert_eq!(out.vcycles, 100 + 256 + 1);
    }

    #[test]
    fn multiple_emits_detected() {
        let mut u = UnitBuilder::new("TwoEmits", 8, 8);
        u.emit(lit(1, 8));
        u.emit(lit(2, 8));
        let spec = u.build().unwrap();
        let err = Interpreter::run_tokens(&spec, &[0]).unwrap_err();
        assert!(matches!(err, SimError::MultipleEmits { .. }));
    }

    #[test]
    fn multiple_bram_reads_detected() {
        let mut u = UnitBuilder::new("TwoReads", 8, 8);
        let b = u.bram("b", 16, 8);
        let input = u.input();
        u.emit(b.read(input.clone()) + b.read(input + 1u64));
        let spec = u.build().unwrap();
        let err = Interpreter::run_tokens(&spec, &[3]).unwrap_err();
        assert!(matches!(err, SimError::MultipleBramReads { .. }));
    }

    #[test]
    fn same_address_reads_allowed() {
        let mut u = UnitBuilder::new("SameAddr", 8, 8);
        let b = u.bram("b", 16, 8);
        let input = u.input();
        u.emit(b.read(input.clone()) + b.read(input));
        let spec = u.build().unwrap();
        assert!(Interpreter::run_tokens(&spec, &[3]).is_ok());
    }

    #[test]
    fn multiple_bram_writes_detected() {
        let mut u = UnitBuilder::new("TwoWrites", 8, 8);
        let b = u.bram("b", 16, 8);
        u.write(b, lit(0, 4), lit(1, 8));
        u.write(b, lit(1, 4), lit(2, 8));
        let spec = u.build().unwrap();
        let err = Interpreter::run_tokens(&spec, &[0]).unwrap_err();
        assert!(matches!(err, SimError::MultipleBramWrites { .. }));
    }

    #[test]
    fn conflicting_reg_writes_detected() {
        let mut u = UnitBuilder::new("Conflict", 8, 8);
        let r = u.reg("r", 8, 0);
        u.set(r, lit(1, 8));
        u.set(r, lit(2, 8));
        let spec = u.build().unwrap();
        let err = Interpreter::run_tokens(&spec, &[0]).unwrap_err();
        assert!(matches!(err, SimError::ConflictingRegWrites { .. }));
    }

    #[test]
    fn conflicting_vec_reg_writes_detected() {
        // Two writes to one element: the hardware keeps the first, so a
        // last-write commit would disagree — different values are
        // rejected, equal ones (and different elements) are fine.
        let mut u = UnitBuilder::new("VecConflict", 8, 8);
        let v = u.vec_reg("v", 4, 8, 0);
        let input = u.input();
        let nf = u.stream_finished().not_b();
        u.if_(nf, |u| {
            u.set_vec(v, input.slice(1, 0), lit(1, 8));
            u.set_vec(v, input.slice(3, 2), lit(2, 8));
            u.set_vec(v, input.slice(5, 4), lit(2, 8));
        });
        let spec = u.build().unwrap();
        // Token bits [1:0], [3:2], [5:4] pick the three elements.
        assert!(Interpreter::run_tokens(&spec, &[0b10_01_00]).is_ok());
        assert!(Interpreter::run_tokens(&spec, &[0b01_01_00]).is_ok());
        let err = Interpreter::run_tokens(&spec, &[0b10_00_00]).unwrap_err();
        assert!(matches!(err, SimError::ConflictingVecRegWrites { vec_reg: 0, index: 0, .. }));
    }

    #[test]
    fn loop_limit_detects_runaway() {
        let mut u = UnitBuilder::new("Forever", 8, 8);
        u.while_(lit(1, 1), |_| {});
        let spec = u.build().unwrap();
        let mut interp = Interpreter::new(&spec).with_loop_limit(100);
        let err = interp.step_token(0).unwrap_err();
        assert!(matches!(err, SimError::LoopLimitExceeded { limit: 100 }));
    }

    #[test]
    fn bram_write_then_read_next_vcycle() {
        // Write input to bram[0], then emit bram[0] on the next token:
        // read must observe the previous virtual cycle's write.
        let mut u = UnitBuilder::new("Rw", 8, 8);
        let b = u.bram("b", 16, 8);
        let phase = u.reg("phase", 1, 0);
        let input = u.input();
        u.if_else(
            phase.eq_e(0u64),
            |u| u.write(b, lit(0, 4), input.clone()),
            |u| u.emit(b.read(lit(0, 4))),
        );
        u.set(phase, phase + 1u64);
        let spec = u.build().unwrap();
        let out = Interpreter::run_tokens(&spec, &[42, 0]).unwrap();
        assert_eq!(out.tokens, vec![42]);
    }

    #[test]
    fn stream_finished_visible_to_program() {
        // Emits 0xFF only on the cleanup execution.
        let mut u = UnitBuilder::new("Fin", 8, 8);
        let fin = u.stream_finished();
        u.if_(fin, |u| u.emit(lit(0xFF, 8)));
        let spec = u.build().unwrap();
        let out = Interpreter::run_tokens(&spec, &[1, 2]).unwrap();
        assert_eq!(out.tokens, vec![0xFF]);
        assert_eq!(out.vcycles, 3);
    }

    #[test]
    fn vec_reg_random_access() {
        // Store tokens into a vector register, then emit reversed on
        // cleanup via a while loop.
        let mut u = UnitBuilder::new("Rev", 8, 8);
        let v = u.vec_reg("buf", 4, 8, 0);
        let wi = u.reg("wi", 3, 0);
        let ri = u.reg("ri", 3, 0);
        let fin = u.stream_finished();
        let input = u.input();
        u.if_else(
            fin.clone(),
            |u| {
                u.while_(ri.lt_e(4u64), |u| {
                    u.emit(v.read(lit(3, 2) - ri.e()));
                    u.set(ri, ri + 1u64);
                });
            },
            |u| {
                u.set_vec(v, wi.e(), input.clone());
                u.set(wi, wi + 1u64);
            },
        );
        let spec = u.build().unwrap();
        let out = Interpreter::run_tokens(&spec, &[10, 20, 30, 40]).unwrap();
        assert_eq!(out.tokens, vec![40, 30, 20, 10]);
    }
}
