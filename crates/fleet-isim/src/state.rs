//! Concrete state of a processing unit during simulation.

use fleet_lang::UnitSpec;

/// Values of all state elements of one processing unit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UnitState {
    /// Scalar register values, indexed by register id.
    pub regs: Vec<u64>,
    /// Vector register contents, indexed by vector-register id.
    pub vec_regs: Vec<Vec<u64>>,
    /// BRAM contents, indexed by BRAM id; length is `1 << addr_width`.
    pub brams: Vec<Vec<u64>>,
}

impl UnitState {
    /// Reset state for a unit: registers/vector registers at their
    /// declared init values, BRAMs zeroed (the FPGA default the paper
    /// relies on).
    pub fn reset(spec: &UnitSpec) -> UnitState {
        UnitState {
            regs: spec.regs.iter().map(|r| r.init).collect(),
            vec_regs: spec
                .vec_regs
                .iter()
                .map(|v| vec![v.init; v.elements])
                .collect(),
            brams: spec.brams.iter().map(|b| vec![0u64; b.elements()]).collect(),
        }
    }
}

/// Pending writes accumulated during a virtual cycle, committed together
/// at the end (non-blocking assignment semantics).
#[derive(Debug, Default, Clone)]
pub struct PendingWrites {
    /// `(reg index, value)`
    pub regs: Vec<(usize, u64)>,
    /// `(vec reg index, element index, value)`
    pub vec_regs: Vec<(usize, usize, u64)>,
    /// `(bram index, address, value)`
    pub brams: Vec<(usize, u64, u64)>,
}

impl PendingWrites {
    /// Clears all pending writes, retaining capacity.
    pub fn clear(&mut self) {
        self.regs.clear();
        self.vec_regs.clear();
        self.brams.clear();
    }

    /// Applies all pending writes to `state`.
    pub fn commit(&self, state: &mut UnitState) {
        for &(r, v) in &self.regs {
            state.regs[r] = v;
        }
        for &(vr, i, v) in &self.vec_regs {
            state.vec_regs[vr][i] = v;
        }
        for &(b, a, v) in &self.brams {
            state.brams[b][a as usize] = v;
        }
    }
}
