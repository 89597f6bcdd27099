//! The [`StreamUnit`] trait: anything with the §4 processing-unit
//! interface can be fed by the memory controller.

use fleet_compiler::{NetDriver, PuExec, PuIn, PuOut, Quiescence};

/// A clocked component with the Fleet processing-unit interface.
///
/// Implemented by [`PuExec`] (fast executor) and [`NetDriver`] (full RTL
/// simulation), so the same memory controller drives either — the
/// cross-check tests rely on this.
pub trait StreamUnit {
    /// Combinational outputs for this cycle given the input pins.
    fn comb(&mut self, pins: &PuIn) -> PuOut;
    /// Clock edge; `pins` must match the preceding `comb` call.
    fn clock(&mut self, pins: &PuIn);
    /// Virtual cycles completed, when the implementation tracks them
    /// (used by trace reports to check the §4 one-vcycle-per-cycle
    /// guarantee). Defaults to `None`.
    fn vcycles(&self) -> Option<u64> {
        None
    }
    /// What this unit is provably waiting on after the last clock edge.
    ///
    /// Implementations that can prove their pins are constant until an
    /// external event (input arriving, output drained) return
    /// `UntilInput`/`UntilOutput`, letting the channel engine skip their
    /// ticks; the default `None` keeps every unit on the per-cycle path
    /// ([`NetDriver`] stays exact this way).
    fn quiescence(&self) -> Quiescence {
        Quiescence::None
    }
    /// Accounts `n` skipped cycles in bulk, as if the unit had been
    /// clocked `n` times under its reported quiescent condition. Only
    /// called when [`StreamUnit::quiescence`] returned non-`None`.
    fn skip_cycles(&mut self, n: u64) {
        let _ = n;
    }
    /// Selects the unit's evaluation cost profile when it has more than
    /// one cycle-exact implementation: `true` asks for the seed-faithful
    /// reference path, `false` for the optimized one. The naive engine
    /// tick requests the reference path so speedup measurements compare
    /// real cost profiles; implementations with a single path (like
    /// [`NetDriver`]) ignore this.
    fn set_reference_eval(&mut self, reference: bool) {
        let _ = reference;
    }
    /// The unit's [`PuExec`] core, when it has one — lets the engine
    /// batch several replicas of the same program into one SIMD
    /// instruction sweep (see `PuExecBatch`). Implementations without a
    /// packed executor (like [`NetDriver`]) return `None` and stay on
    /// the per-unit path.
    fn lane_exec(&self) -> Option<&PuExec> {
        None
    }
    /// Mutable access to the unit's [`PuExec`] core: a lane group loads
    /// the unit in, steps it, and stores it back through it. Must return
    /// `Some` iff [`StreamUnit::lane_exec`] does.
    fn lane_exec_mut(&mut self) -> Option<&mut PuExec> {
        None
    }
}

impl StreamUnit for PuExec {
    fn comb(&mut self, pins: &PuIn) -> PuOut {
        PuExec::comb(self, pins)
    }
    fn clock(&mut self, pins: &PuIn) {
        PuExec::clock(self, pins)
    }
    fn vcycles(&self) -> Option<u64> {
        Some(PuExec::vcycles(self))
    }
    fn quiescence(&self) -> Quiescence {
        PuExec::quiescence(self)
    }
    fn skip_cycles(&mut self, n: u64) {
        PuExec::skip_cycles(self, n)
    }
    fn set_reference_eval(&mut self, reference: bool) {
        PuExec::set_reference_eval(self, reference)
    }
    fn lane_exec(&self) -> Option<&PuExec> {
        Some(self)
    }
    fn lane_exec_mut(&mut self) -> Option<&mut PuExec> {
        Some(self)
    }
}

impl StreamUnit for NetDriver {
    fn comb(&mut self, pins: &PuIn) -> PuOut {
        NetDriver::comb(self, pins)
    }
    fn clock(&mut self, _pins: &PuIn) {
        NetDriver::clock(self)
    }
}
