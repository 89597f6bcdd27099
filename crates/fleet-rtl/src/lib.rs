//! # fleet-rtl — RTL intermediate representation and simulation
//!
//! The synthesizable substrate for the Fleet compiler: an SSA netlist IR
//! with registers and BRAM primitives ([`netlist`]), a cycle-accurate
//! simulator ([`sim`]), a Verilog emitter ([`verilog`]), and an FPGA area
//! model ([`area`]) used to bound processing-unit replication the way the
//! Amazon F1's vu9p does in the paper.
//!
//! BRAM primitives have one read port and one write port, one cycle of
//! read latency, and return the *old* value on a same-cycle same-address
//! read/write collision (read-first) — exactly the technology behaviour
//! that §4 of the paper works around with forwarding registers.
//!
//! ## Example
//!
//! ```
//! use fleet_rtl::{NetSim, Netlist};
//! use fleet_lang::BinOp;
//!
//! let mut n = Netlist::new("adder");
//! let a = n.input("a", 8);
//! let b = n.input("b", 8);
//! let sum = n.binary(BinOp::Add, a, b);
//! n.output("sum", sum);
//!
//! let mut sim = NetSim::new(n);
//! sim.set_input("a", 3);
//! sim.set_input("b", 4);
//! sim.comb();
//! assert_eq!(sim.output("sum"), 7);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod area;
pub mod netlist;
pub mod opt;
pub mod sim;
pub mod testbench;
pub mod verilog;

pub use area::{estimate, Area, Device};
pub use opt::{optimize, OptStats};
pub use netlist::{Netlist, Node, NodeId, OutputPort, Port, PortId, RtlBram, RtlBramId, RtlReg, RtlRegId};
pub use sim::NetSim;
pub use testbench::{emit_testbench, TbOptions};
pub use verilog::emit;
