//! The [`UnitSpec`] type: a complete Fleet processing-unit definition.

use crate::stmt::Block;
use crate::types::{BramId, RegId, VecRegId, Width};

/// Definition of a scalar register.
#[derive(Debug, Clone)]
pub struct RegDef {
    /// Human-readable name used in diagnostics and generated RTL.
    pub name: String,
    /// Bit width, in `1..=64`.
    pub width: Width,
    /// Reset/initial value.
    pub init: u64,
}

/// Definition of a vector register (random-access register file).
#[derive(Debug, Clone)]
pub struct VecRegDef {
    /// Human-readable name.
    pub name: String,
    /// Bit width of each element.
    pub width: Width,
    /// Element count.
    pub elements: usize,
    /// Initial value of every element.
    pub init: u64,
}

/// Definition of a BRAM.
///
/// BRAMs have one read port and one write port, a one-cycle read latency
/// in hardware (hidden by the compiler's automatic pipelining), and start
/// zero-initialized, matching FPGA behaviour assumed by the paper.
#[derive(Debug, Clone)]
pub struct BramDef {
    /// Human-readable name.
    pub name: String,
    /// Bit width of each element.
    pub data_width: Width,
    /// Address width; the BRAM holds `1 << addr_width` elements.
    pub addr_width: Width,
}

impl BramDef {
    /// Number of elements.
    pub fn elements(&self) -> usize {
        1usize << self.addr_width
    }
}

/// A complete Fleet processing-unit specification.
///
/// Build one with [`UnitBuilder`](crate::builder::UnitBuilder), then
/// validate it with [`validate()`](crate::validate::validate) before
/// handing it to the interpreter or compiler.
#[derive(Debug, Clone)]
pub struct UnitSpec {
    /// Unit name (used as the RTL module name).
    pub name: String,
    /// Input token size in bits; the input stream is consumed in tokens
    /// of this size.
    pub input_token_bits: Width,
    /// Output token size in bits.
    pub output_token_bits: Width,
    /// Scalar registers.
    pub regs: Vec<RegDef>,
    /// Vector registers.
    pub vec_regs: Vec<VecRegDef>,
    /// BRAMs.
    pub brams: Vec<BramDef>,
    /// Program body.
    pub body: Block,
}

impl UnitSpec {
    /// Id handle for register `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn reg_id(&self, index: usize) -> RegId {
        RegId::new(index as u32, self.regs[index].width)
    }

    /// Id handle for vector register `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn vec_reg_id(&self, index: usize) -> VecRegId {
        VecRegId::new(index as u32, self.vec_regs[index].width)
    }

    /// Id handle for BRAM `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn bram_id(&self, index: usize) -> BramId {
        let d = &self.brams[index];
        BramId::new(index as u32, d.data_width, d.addr_width)
    }

    /// Total state bits held in registers and vector registers.
    pub fn register_state_bits(&self) -> usize {
        self.regs.iter().map(|r| r.width as usize).sum::<usize>()
            + self
                .vec_regs
                .iter()
                .map(|v| v.width as usize * v.elements)
                .sum::<usize>()
    }

    /// Total state bits held in BRAMs.
    pub fn bram_state_bits(&self) -> usize {
        self.brams
            .iter()
            .map(|b| b.data_width as usize * b.elements())
            .sum()
    }
}
