//! Compiled SSA form of a Fleet program for fast repeated evaluation.
//!
//! The expression layer is a reference-counted DAG; interpreting it per
//! virtual cycle costs a hash-map memo lookup per shared node. For
//! full-system simulation (hundreds of units × millions of virtual
//! cycles) that overhead dominates, so [`SsaProg`] flattens every
//! expression reachable from a program — loop conditions, operation
//! guards, addresses, values — into one topologically-ordered vector of
//! nodes evaluated linearly into a scratch buffer, exactly like the
//! netlist simulator sweeps its combinational nodes.
//!
//! Semantics match the compiled hardware: every node is evaluated every
//! virtual cycle (no short-circuiting), out-of-range vector-register
//! reads select element 0 (the compiled mux chain's default), and
//! multiple writes resolve by first-guard-wins priority in the consumer.

use std::borrow::Borrow;
use std::collections::HashMap;

use fleet_lang::{
    mask, BinOp, E, ExprNode, FlatProgram, OpKind, UnaryOp, UnitSpec, Width,
};

use crate::state::UnitState;

/// Index of a value slot in the evaluation buffer.
pub type Slot = u32;

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Node {
    Const(u64),
    Input,
    StreamFinished,
    Reg(u32),
    VecReg { vr: u32, idx: Slot },
    BramRead { bram: u32, addr: Slot, aw: Width },
    Unary { op: UnaryOp, a: Slot, aw: Width, w: Width },
    Binary { op: BinOp, a: Slot, b: Slot, w: Width },
    Mux { c: Slot, t: Slot, f: Slot, w: Width },
    Slice { a: Slot, hi: u16, lo: u16 },
    Concat { hi: Slot, lo: Slot, low_w: Width, w: Width },
}

/// One primitive operation with pre-resolved slots.
#[derive(Debug, Clone)]
pub enum SsaOp {
    /// Register write.
    SetReg {
        /// Register index.
        reg: u32,
        /// Register width.
        width: Width,
        /// Value slot.
        val: Slot,
    },
    /// Vector-register element write.
    SetVecReg {
        /// Vector register index.
        vr: u32,
        /// Element width.
        width: Width,
        /// Index slot.
        idx: Slot,
        /// Value slot.
        val: Slot,
    },
    /// BRAM write.
    BramWrite {
        /// BRAM index.
        bram: u32,
        /// Address width.
        aw: Width,
        /// Data width.
        dw: Width,
        /// Address slot.
        addr: Slot,
        /// Value slot.
        val: Slot,
    },
    /// Output-token emission.
    Emit {
        /// Value slot.
        val: Slot,
        /// Output token width.
        width: Width,
    },
}

/// A guarded operation: executes when every guard slot is nonzero.
#[derive(Debug, Clone)]
pub struct SsaGuardedOp {
    /// Guard slots (conjunction).
    pub guards: Vec<Slot>,
    /// Loop-phase operation (vs final virtual cycle).
    pub in_loop: bool,
    /// The operation.
    pub op: SsaOp,
}

/// A compiled program: evaluate [`SsaProg::eval`] once per virtual
/// cycle, then walk [`SsaProg::ops`].
#[derive(Debug, Clone)]
pub struct SsaProg {
    nodes: Vec<Node>,
    /// Nodes below this index are constants evaluated once at build
    /// time; their values live in `seed` and `eval` never revisits them.
    /// Always 0 for [`SsaProg::build`] output.
    eval_from: usize,
    /// Initial contents of the evaluation buffer: build-time constant
    /// values for slots below `eval_from`, zero elsewhere.
    seed: Vec<u64>,
    /// Slots of the effective `while` conditions.
    pub loop_conds: Vec<Slot>,
    /// All primitive operations in source order.
    pub ops: Vec<SsaGuardedOp>,
    /// Output token width (for emit masking).
    pub out_width: Width,
}

/// Unary operator semantics shared by per-cycle evaluation and
/// build-time constant folding (one source of truth; result unmasked).
fn unary_raw(op: UnaryOp, av: u64, aw: Width) -> u64 {
    match op {
        UnaryOp::Not => !av,
        UnaryOp::ReduceOr => (av != 0) as u64,
        UnaryOp::ReduceAnd => (av == mask(u64::MAX, aw)) as u64,
    }
}

/// Binary operator semantics shared by per-cycle evaluation and
/// build-time constant folding (one source of truth; result unmasked).
fn binary_raw(op: BinOp, x: u64, y: u64) -> u64 {
    match op {
        BinOp::Add => x.wrapping_add(y),
        BinOp::Sub => x.wrapping_sub(y),
        BinOp::Mul => x.wrapping_mul(y),
        BinOp::And => x & y,
        BinOp::Or => x | y,
        BinOp::Xor => x ^ y,
        BinOp::Shl => {
            if y >= 64 {
                0
            } else {
                x << y
            }
        }
        BinOp::Shr => {
            if y >= 64 {
                0
            } else {
                x >> y
            }
        }
        BinOp::Eq => (x == y) as u64,
        BinOp::Ne => (x != y) as u64,
        BinOp::Lt => (x < y) as u64,
        BinOp::Le => (x <= y) as u64,
        BinOp::Gt => (x > y) as u64,
        BinOp::Ge => (x >= y) as u64,
    }
}

struct Builder<'a> {
    memo: HashMap<*const ExprNode, Slot>,
    nodes: Vec<Node>,
    spec: &'a UnitSpec,
}

impl<'a> Builder<'a> {
    fn slot(&mut self, e: &E) -> Slot {
        let key = e.node() as *const ExprNode;
        if let Some(&s) = self.memo.get(&key) {
            return s;
        }
        let node = match e.node() {
            ExprNode::Const { value, .. } => Node::Const(*value),
            ExprNode::Input(_) => Node::Input,
            ExprNode::StreamFinished => Node::StreamFinished,
            ExprNode::Reg(id) => Node::Reg(id.index() as u32),
            ExprNode::VecReg(id, idx) => {
                let i = self.slot(idx);
                Node::VecReg { vr: id.index() as u32, idx: i }
            }
            ExprNode::BramRead(id, addr) => {
                let a = self.slot(addr);
                Node::BramRead { bram: id.index() as u32, addr: a, aw: id.addr_width() }
            }
            ExprNode::Unary(op, a) => {
                let aw = a.width();
                let s = self.slot(a);
                Node::Unary { op: *op, a: s, aw, w: e.width() }
            }
            ExprNode::Binary(op, a, b) => {
                let sa = self.slot(a);
                let sb = self.slot(b);
                Node::Binary { op: *op, a: sa, b: sb, w: e.width() }
            }
            ExprNode::Mux { cond, on_true, on_false } => {
                let c = self.slot(cond);
                let t = self.slot(on_true);
                let f = self.slot(on_false);
                Node::Mux { c, t, f, w: e.width() }
            }
            ExprNode::Slice { arg, hi, lo } => {
                let a = self.slot(arg);
                Node::Slice { a, hi: *hi, lo: *lo }
            }
            ExprNode::Concat { hi, lo } => {
                let low_w = lo.width();
                let h = self.slot(hi);
                let l = self.slot(lo);
                Node::Concat { hi: h, lo: l, low_w, w: e.width() }
            }
        };
        let s = self.nodes.len() as Slot;
        self.nodes.push(node);
        self.memo.insert(key, s);
        s
    }
}

impl SsaProg {
    /// Compiles a validated unit.
    pub fn build(spec: &UnitSpec) -> SsaProg {
        let flat = FlatProgram::build(&spec.body);
        let mut b = Builder { memo: HashMap::new(), nodes: Vec::new(), spec };
        let loop_conds: Vec<Slot> = flat.loop_conds.iter().map(|c| b.slot(c)).collect();
        let mut ops = Vec::with_capacity(flat.ops.len());
        for g in &flat.ops {
            let guards: Vec<Slot> = g.guard.iter().map(|c| b.slot(c)).collect();
            let op = match &g.op {
                OpKind::SetReg(r, v) => SsaOp::SetReg {
                    reg: r.index() as u32,
                    width: r.width(),
                    val: b.slot(v),
                },
                OpKind::SetVecReg(vr, i, v) => SsaOp::SetVecReg {
                    vr: vr.index() as u32,
                    width: vr.width(),
                    idx: b.slot(i),
                    val: b.slot(v),
                },
                OpKind::BramWrite(br, a, v) => SsaOp::BramWrite {
                    bram: br.index() as u32,
                    aw: br.addr_width(),
                    dw: br.data_width(),
                    addr: b.slot(a),
                    val: b.slot(v),
                },
                OpKind::Emit(v) => SsaOp::Emit {
                    val: b.slot(v),
                    width: spec.output_token_bits,
                },
            };
            ops.push(SsaGuardedOp { guards, in_loop: g.in_loop, op });
        }
        let _ = &b.spec;
        let slots = b.nodes.len();
        SsaProg {
            nodes: b.nodes,
            eval_from: 0,
            seed: vec![0u64; slots],
            loop_conds,
            ops,
            out_width: spec.output_token_bits,
        }
    }

    /// Number of value slots; size the scratch buffer to this.
    pub fn slots(&self) -> usize {
        self.nodes.len()
    }

    /// A fresh evaluation buffer for this program, with build-time
    /// constant slots pre-filled. [`SsaProg::eval`] never writes those
    /// slots, so buffers passed to it must start from (a copy of) this.
    pub fn seed_vals(&self) -> Vec<u64> {
        self.seed.clone()
    }

    /// Evaluates every live node for one virtual cycle into `vals`.
    ///
    /// `vals` must have been initialised from [`SsaProg::seed_vals`]:
    /// slots holding build-time constants are read, never written, here.
    ///
    /// # Panics
    ///
    /// Panics if `vals` is shorter than [`SsaProg::slots`].
    pub fn eval(&self, state: &UnitState, input: u64, finished: bool, vals: &mut [u64]) {
        for (i, n) in self.nodes.iter().enumerate().skip(self.eval_from) {
            vals[i] = match n {
                Node::Const(v) => *v,
                Node::Input => input,
                Node::StreamFinished => finished as u64,
                Node::Reg(r) => state.regs[*r as usize],
                Node::VecReg { vr, idx } => {
                    let elems = &state.vec_regs[*vr as usize];
                    let i = vals[*idx as usize] as usize;
                    // Compiled select chains default to element 0 when
                    // the index exceeds the element count.
                    if i < elems.len() {
                        elems[i]
                    } else {
                        elems[0]
                    }
                }
                Node::BramRead { bram, addr, aw } => {
                    let a = mask(vals[*addr as usize], *aw) as usize;
                    state.brams[*bram as usize][a]
                }
                Node::Unary { op, a, aw, w } => {
                    mask(unary_raw(*op, vals[*a as usize], *aw), *w)
                }
                Node::Binary { op, a, b, w } => {
                    mask(binary_raw(*op, vals[*a as usize], vals[*b as usize]), *w)
                }
                Node::Mux { c, t, f, w } => {
                    let v = if vals[*c as usize] != 0 {
                        vals[*t as usize]
                    } else {
                        vals[*f as usize]
                    };
                    mask(v, *w)
                }
                Node::Slice { a, hi, lo } => {
                    (vals[*a as usize] >> lo) & mask(u64::MAX, hi - lo + 1)
                }
                Node::Concat { hi, lo, low_w, w } => {
                    mask((vals[*hi as usize] << low_w) | vals[*lo as usize], *w)
                }
            };
        }
    }

    /// Whether any loop condition holds given evaluated `vals`.
    pub fn any_loop(&self, vals: &[u64]) -> bool {
        self.loop_conds.iter().any(|&s| vals[s as usize] != 0)
    }

    /// Builds an optimized copy of this program that computes the same
    /// values, emissions, and state writes on every virtual cycle with
    /// far fewer per-cycle node evaluations.
    ///
    /// Passes, all value-preserving:
    /// - **Constant folding**: any node whose operands are build-time
    ///   constants is evaluated once here (with the exact per-cycle
    ///   operator semantics) instead of every virtual cycle.
    /// - **Common-subexpression elimination** over the folded nodes.
    /// - **Guard simplification**: operations with a constant-false
    ///   guard are deleted (they can never fire), constant-true guards
    ///   are dropped, and each remaining multi-guard conjunction is
    ///   pre-combined into a single 1-bit guard slot so the per-cycle
    ///   walk checks one slot per operation.
    /// - **Dead-node elimination + constant hoisting**: nodes no
    ///   operation, guard, or loop condition depends on are removed,
    ///   and surviving constants are moved to a prefix that is baked
    ///   into [`SsaProg::seed_vals`] and skipped by [`SsaProg::eval`].
    /// - **State-read grouping**: the live register reads follow the
    ///   constants as one run of slots in register order, then the
    ///   input-token and stream-finished reads. [`PackedProg`] treats
    ///   that run as the unit's state rows: the scalar path fills it
    ///   with a single pass over the register file, and a lane group
    ///   keeps it resident, so the rows *are* the lanes' registers.
    ///
    /// The original program is kept as the seed-faithful reference
    /// evaluation path; equivalence between the two is enforced by the
    /// differential tests and the engine-level cycle-exactness suite.
    pub fn optimized(&self, spec: &UnitSpec) -> SsaProg {
        /// Bits needed to represent a known constant (min 1).
        fn bitlen(v: u64) -> Width {
            (64 - v.leading_zeros()).max(1) as Width
        }

        struct Opt {
            nodes: Vec<Node>,
            konst: Vec<Option<u64>>,
            /// Guaranteed value width per slot: the produced value always
            /// fits in this many bits (its producer masks to it).
            outw: Vec<Width>,
            cse: HashMap<Node, Slot>,
            in_w: Width,
            reg_w: Vec<Width>,
            vec_w: Vec<Width>,
            bram_w: Vec<Width>,
        }
        impl Opt {
            fn k(&self, s: Slot) -> Option<u64> {
                self.konst[s as usize]
            }
            fn w(&self, s: Slot) -> Width {
                self.outw[s as usize]
            }
            fn konst_slot(&mut self, v: u64) -> Slot {
                self.intern(Node::Const(v))
            }

            /// Interns a node (CSE); folding/identities must already
            /// have been applied by [`Opt::add`].
            fn intern(&mut self, n: Node) -> Slot {
                if let Some(&s) = self.cse.get(&n) {
                    return s;
                }
                let s = self.nodes.len() as Slot;
                let (kv, w) = match &n {
                    Node::Const(v) => (Some(*v), bitlen(*v)),
                    Node::Input => (None, self.in_w),
                    Node::StreamFinished => (None, 1),
                    Node::Reg(r) => (None, self.reg_w[*r as usize]),
                    Node::VecReg { vr, .. } => (None, self.vec_w[*vr as usize]),
                    Node::BramRead { bram, .. } => (None, self.bram_w[*bram as usize]),
                    Node::Unary { op, w, .. } => match op {
                        UnaryOp::Not => (None, *w),
                        UnaryOp::ReduceOr | UnaryOp::ReduceAnd => (None, 1),
                    },
                    Node::Binary { op, w, .. } => match op {
                        BinOp::Eq
                        | BinOp::Ne
                        | BinOp::Lt
                        | BinOp::Le
                        | BinOp::Gt
                        | BinOp::Ge => (None, 1),
                        _ => (None, *w),
                    },
                    Node::Mux { w, .. } | Node::Concat { w, .. } => (None, *w),
                    Node::Slice { hi, lo, .. } => (None, hi - lo + 1),
                };
                self.konst.push(kv);
                self.outw.push(w);
                self.cse.insert(n.clone(), s);
                self.nodes.push(n);
                s
            }

            /// The value of `src` masked to `w` — a free alias when the
            /// value provably fits, otherwise an explicit masking node.
            fn copy_masked(&mut self, src: Slot, w: Width) -> Slot {
                if let Some(v) = self.k(src) {
                    return self.konst_slot(mask(v, w));
                }
                if self.w(src) <= w {
                    return src;
                }
                let zero = self.konst_slot(0);
                self.intern(Node::Binary { op: BinOp::Or, a: src, b: zero, w })
            }

            fn add_binary(&mut self, op: BinOp, a: Slot, b: Slot, w: Width) -> Slot {
                use BinOp::*;
                if let (Some(x), Some(y)) = (self.k(a), self.k(b)) {
                    return self.konst_slot(mask(binary_raw(op, x, y), w));
                }
                if a == b {
                    // CSE makes equal expressions share a slot, so
                    // same-slot comparisons are decidable.
                    match op {
                        Eq | Le | Ge => return self.konst_slot(1),
                        Ne | Lt | Gt | Xor | Sub => return self.konst_slot(0),
                        And | Or => return self.copy_masked(a, w),
                        _ => {}
                    }
                }
                // Normalise a lone constant onto the right-hand side.
                let (a, b, op) = if self.k(a).is_some() {
                    match op {
                        Add | Mul | And | Or | Xor | Eq | Ne => (b, a, op),
                        Lt => (b, a, Gt),
                        Gt => (b, a, Lt),
                        Le => (b, a, Ge),
                        Ge => (b, a, Le),
                        _ => (a, b, op),
                    }
                } else {
                    (a, b, op)
                };
                if let Some(c) = self.k(b) {
                    let m = mask(u64::MAX, w);
                    // `max_a`: the left operand never exceeds this.
                    let max_a = mask(u64::MAX, self.w(a));
                    match op {
                        And if c & m == m => return self.copy_masked(a, w),
                        And if c & m == 0 => return self.konst_slot(0),
                        Or if c & m == m => return self.konst_slot(m),
                        Or | Xor | Add | Sub | Shl | Shr if c == 0 => {
                            return self.copy_masked(a, w)
                        }
                        Mul if c == 1 => return self.copy_masked(a, w),
                        Mul if c == 0 => return self.konst_slot(0),
                        Shl if c >= w as u64 => return self.konst_slot(0),
                        Shr if c >= self.w(a) as u64 => return self.konst_slot(0),
                        Lt if c > max_a => return self.konst_slot(1),
                        Lt if c == 0 => return self.konst_slot(0),
                        Le if c >= max_a => return self.konst_slot(1),
                        Gt if c >= max_a => return self.konst_slot(0),
                        Ge if c == 0 => return self.konst_slot(1),
                        Ge if c > max_a => return self.konst_slot(0),
                        Eq if c > max_a => return self.konst_slot(0),
                        Ne if c > max_a => return self.konst_slot(1),
                        _ => {}
                    }
                }
                self.intern(Node::Binary { op, a, b, w })
            }

            /// Folds, simplifies, CSEs and interns one node whose
            /// operand slots are already in optimized numbering.
            fn add(&mut self, n: Node) -> Slot {
                match n {
                    Node::Unary { op, a, aw, w } => {
                        if let Some(av) = self.k(a) {
                            return self.konst_slot(mask(unary_raw(op, av, aw), w));
                        }
                        match op {
                            // A 1-bit value is its own nonzero test.
                            UnaryOp::ReduceOr if self.w(a) == 1 => a,
                            UnaryOp::ReduceAnd if self.w(a) == 1 && aw == 1 => a,
                            _ => self.intern(Node::Unary { op, a, aw, w }),
                        }
                    }
                    Node::Binary { op, a, b, w } => self.add_binary(op, a, b, w),
                    Node::Mux { c, t, f, w } => {
                        if let Some(cv) = self.k(c) {
                            let sel = if cv != 0 { t } else { f };
                            return self.copy_masked(sel, w);
                        }
                        if t == f {
                            return self.copy_masked(t, w);
                        }
                        self.intern(Node::Mux { c, t, f, w })
                    }
                    Node::Slice { a, hi, lo } => {
                        if let Some(av) = self.k(a) {
                            return self
                                .konst_slot((av >> lo) & mask(u64::MAX, hi - lo + 1));
                        }
                        if lo == 0 && self.w(a) <= hi + 1 {
                            return a;
                        }
                        self.intern(Node::Slice { a, hi, lo })
                    }
                    Node::Concat { hi, lo, low_w, w } => {
                        match (self.k(hi), self.k(lo)) {
                            (Some(h), Some(l)) => {
                                return self.konst_slot(mask((h << low_w) | l, w))
                            }
                            (Some(0), None) => return self.copy_masked(lo, w),
                            _ => {}
                        }
                        self.intern(Node::Concat { hi, lo, low_w, w })
                    }
                    other => self.intern(other),
                }
            }
        }

        let mut o = Opt {
            nodes: Vec::new(),
            konst: Vec::new(),
            outw: Vec::new(),
            cse: HashMap::new(),
            in_w: spec.input_token_bits,
            reg_w: spec.regs.iter().map(|r| r.width).collect(),
            vec_w: spec.vec_regs.iter().map(|v| v.width).collect(),
            bram_w: spec.brams.iter().map(|b| b.data_width).collect(),
        };
        let mut rep: Vec<Slot> = Vec::with_capacity(self.nodes.len());
        for n in &self.nodes {
            let r = |s: &Slot| rep[*s as usize];
            let remapped = match n {
                Node::Const(v) => Node::Const(*v),
                Node::Input => Node::Input,
                Node::StreamFinished => Node::StreamFinished,
                Node::Reg(x) => Node::Reg(*x),
                Node::VecReg { vr, idx } => Node::VecReg { vr: *vr, idx: r(idx) },
                Node::BramRead { bram, addr, aw } => {
                    Node::BramRead { bram: *bram, addr: r(addr), aw: *aw }
                }
                Node::Unary { op, a, aw, w } => {
                    Node::Unary { op: *op, a: r(a), aw: *aw, w: *w }
                }
                Node::Binary { op, a, b, w } => {
                    Node::Binary { op: *op, a: r(a), b: r(b), w: *w }
                }
                Node::Mux { c, t, f, w } => {
                    Node::Mux { c: r(c), t: r(t), f: r(f), w: *w }
                }
                Node::Slice { a, hi, lo } => Node::Slice { a: r(a), hi: *hi, lo: *lo },
                Node::Concat { hi, lo, low_w, w } => {
                    Node::Concat { hi: r(hi), lo: r(lo), low_w: *low_w, w: *w }
                }
            };
            rep.push(o.add(remapped));
        }

        // Loop conditions: constant-false conditions can never hold.
        let loop_conds: Vec<Slot> = self
            .loop_conds
            .iter()
            .map(|&c| rep[c as usize])
            .filter(|&s| o.k(s) != Some(0))
            .collect();

        // Operations: delete never-firing ones, drop constant-true
        // guards, and pre-combine the rest into one 1-bit slot.
        let mut ops: Vec<SsaGuardedOp> = Vec::with_capacity(self.ops.len());
        'op: for g in &self.ops {
            let mut live: Vec<Slot> = Vec::with_capacity(g.guards.len());
            for &gs in &g.guards {
                let s = rep[gs as usize];
                match o.k(s) {
                    Some(0) => continue 'op,
                    Some(_) => {}
                    None => live.push(s),
                }
            }
            let guards = if live.len() <= 1 {
                live
            } else {
                // Guards are "nonzero" tests of arbitrary-width values,
                // so normalise each to 1 bit before AND-combining
                // (`add` leaves a value that is already 1 bit wide as
                // it is). CSE shares the chains across ops with common
                // prefixes.
                let nz = |o: &mut Opt, s: Slot| {
                    o.add(Node::Unary { op: UnaryOp::ReduceOr, a: s, aw: 64, w: 1 })
                };
                let mut acc = nz(&mut o, live[0]);
                for &gs in &live[1..] {
                    let b = nz(&mut o, gs);
                    acc = o.intern(Node::Binary { op: BinOp::And, a: acc, b, w: 1 });
                }
                vec![acc]
            };
            let op = match &g.op {
                SsaOp::SetReg { reg, width, val } => SsaOp::SetReg {
                    reg: *reg,
                    width: *width,
                    val: rep[*val as usize],
                },
                SsaOp::SetVecReg { vr, width, idx, val } => SsaOp::SetVecReg {
                    vr: *vr,
                    width: *width,
                    idx: rep[*idx as usize],
                    val: rep[*val as usize],
                },
                SsaOp::BramWrite { bram, aw, dw, addr, val } => SsaOp::BramWrite {
                    bram: *bram,
                    aw: *aw,
                    dw: *dw,
                    addr: rep[*addr as usize],
                    val: rep[*val as usize],
                },
                SsaOp::Emit { val, width } => {
                    SsaOp::Emit { val: rep[*val as usize], width: *width }
                }
            };
            ops.push(SsaGuardedOp { guards, in_loop: g.in_loop, op });
        }

        // Dead-node elimination: keep only what loop conditions, guards
        // and operation operands transitively reach.
        let n2 = o.nodes.len();
        let mut used = vec![false; n2];
        for &c in &loop_conds {
            used[c as usize] = true;
        }
        for g in &ops {
            for &s in &g.guards {
                used[s as usize] = true;
            }
            match &g.op {
                SsaOp::SetReg { val, .. } | SsaOp::Emit { val, .. } => {
                    used[*val as usize] = true;
                }
                SsaOp::SetVecReg { idx, val, .. } => {
                    used[*idx as usize] = true;
                    used[*val as usize] = true;
                }
                SsaOp::BramWrite { addr, val, .. } => {
                    used[*addr as usize] = true;
                    used[*val as usize] = true;
                }
            }
        }
        // Operands have smaller slot indices, so one reverse sweep
        // closes the set.
        for i in (0..n2).rev() {
            if !used[i] {
                continue;
            }
            let mut m = |s: Slot| used[s as usize] = true;
            match &o.nodes[i] {
                Node::Const(_) | Node::Input | Node::StreamFinished | Node::Reg(_) => {}
                Node::VecReg { idx, .. } => m(*idx),
                Node::BramRead { addr, .. } => m(*addr),
                Node::Unary { a, .. } => m(*a),
                Node::Slice { a, .. } => m(*a),
                Node::Binary { a, b, .. } => {
                    m(*a);
                    m(*b);
                }
                Node::Concat { hi, lo, .. } => {
                    m(*hi);
                    m(*lo);
                }
                Node::Mux { c, t, f, .. } => {
                    m(*c);
                    m(*t);
                    m(*f);
                }
            }
        }

        // Compact: surviving constants first (hoisted out of the
        // per-cycle sweep into the seed buffer), then the live register
        // reads in register order and the input-token and
        // stream-finished reads (the state rows [`PackedProg`] reads in
        // place; CSE left at most one read of each, and leaves have no
        // operands to order them after), then the other live nodes in
        // their original topological order, operand slots rewritten.
        let mut remap: Vec<Slot> = vec![Slot::MAX; n2];
        let mut nodes: Vec<Node> = Vec::new();
        let mut seed: Vec<u64> = Vec::new();
        for (i, n) in o.nodes.iter().enumerate() {
            if let (true, Node::Const(v)) = (used[i], n) {
                remap[i] = nodes.len() as Slot;
                nodes.push(n.clone());
                seed.push(*v);
            }
        }
        let eval_from = nodes.len();
        let mut reg_reads: Vec<(u32, usize)> = o
            .nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| match n {
                Node::Reg(r) if used[i] => Some((*r, i)),
                _ => None,
            })
            .collect();
        reg_reads.sort_unstable();
        for &(r, i) in &reg_reads {
            remap[i] = nodes.len() as Slot;
            nodes.push(Node::Reg(r));
            seed.push(0);
        }
        for leaf in [Node::Input, Node::StreamFinished] {
            for (i, n) in o.nodes.iter().enumerate() {
                if used[i] && *n == leaf {
                    remap[i] = nodes.len() as Slot;
                    nodes.push(leaf.clone());
                    seed.push(0);
                }
            }
        }
        for (i, n) in o.nodes.iter().enumerate() {
            let placed = matches!(n, Node::Const(_) | Node::Reg(_) | Node::Input | Node::StreamFinished);
            if !used[i] || placed {
                continue;
            }
            remap[i] = nodes.len() as Slot;
            let r = |s: Slot| remap[s as usize];
            nodes.push(match n {
                Node::Const(_) | Node::Reg(_) | Node::Input | Node::StreamFinished => {
                    unreachable!("placed above")
                }
                Node::VecReg { vr, idx } => Node::VecReg { vr: *vr, idx: r(*idx) },
                Node::BramRead { bram, addr, aw } => {
                    Node::BramRead { bram: *bram, addr: r(*addr), aw: *aw }
                }
                Node::Unary { op, a, aw, w } => {
                    Node::Unary { op: *op, a: r(*a), aw: *aw, w: *w }
                }
                Node::Binary { op, a, b, w } => {
                    Node::Binary { op: *op, a: r(*a), b: r(*b), w: *w }
                }
                Node::Mux { c, t, f, w } => {
                    Node::Mux { c: r(*c), t: r(*t), f: r(*f), w: *w }
                }
                Node::Slice { a, hi, lo } => Node::Slice { a: r(*a), hi: *hi, lo: *lo },
                Node::Concat { hi, lo, low_w, w } => {
                    Node::Concat { hi: r(*hi), lo: r(*lo), low_w: *low_w, w: *w }
                }
            });
            seed.push(0);
        }

        let loop_conds = loop_conds.iter().map(|&s| remap[s as usize]).collect();
        let remap_op = |op: &SsaOp| match op {
            SsaOp::SetReg { reg, width, val } => SsaOp::SetReg {
                reg: *reg,
                width: *width,
                val: remap[*val as usize],
            },
            SsaOp::SetVecReg { vr, width, idx, val } => SsaOp::SetVecReg {
                vr: *vr,
                width: *width,
                idx: remap[*idx as usize],
                val: remap[*val as usize],
            },
            SsaOp::BramWrite { bram, aw, dw, addr, val } => SsaOp::BramWrite {
                bram: *bram,
                aw: *aw,
                dw: *dw,
                addr: remap[*addr as usize],
                val: remap[*val as usize],
            },
            SsaOp::Emit { val, width } => {
                SsaOp::Emit { val: remap[*val as usize], width: *width }
            }
        };
        let ops = ops
            .iter()
            .map(|g| SsaGuardedOp {
                guards: g.guards.iter().map(|&s| remap[s as usize]).collect(),
                in_loop: g.in_loop,
                op: remap_op(&g.op),
            })
            .collect();

        SsaProg { nodes, eval_from, seed, loop_conds, ops, out_width: self.out_width }
    }
}

/// Opcode of one [`PackedProg`] instruction.
#[derive(Debug, Clone, Copy)]
enum PackedOp {
    /// Constant value (carried in the mask field).
    Const,
    /// Vector-register element read (`b` is the vector index, `a` the
    /// index slot; out-of-range selects element 0).
    VecReg,
    /// BRAM read (`b` is the BRAM index, `a` the address slot, `m` the
    /// address mask).
    BramRead,
    /// Bitwise complement, masked.
    Not,
    /// Nonzero test.
    ReduceOr,
    /// All-ones test (`m` is the operand's full mask).
    ReduceAnd,
    /// Wrapping addition, masked.
    Add,
    /// Wrapping subtraction, masked.
    Sub,
    /// Wrapping multiplication, masked.
    Mul,
    /// Bitwise AND, masked.
    And,
    /// Bitwise OR, masked.
    Or,
    /// Bitwise XOR, masked.
    Xor,
    /// Left shift (zero when the amount reaches 64), masked.
    Shl,
    /// Right shift (zero when the amount reaches 64), masked.
    Shr,
    /// Equality test.
    Eq,
    /// Inequality test.
    Ne,
    /// Unsigned less-than.
    Lt,
    /// Unsigned less-or-equal.
    Le,
    /// Unsigned greater-than.
    Gt,
    /// Unsigned greater-or-equal.
    Ge,
    /// Two-way select (`a` condition, `b` then, `c` else), masked.
    Mux,
    /// Bit-field extract (`c` is the low bit, `m` the field mask).
    Slice,
    /// Concatenation (`c` is the low operand's width), masked.
    Concat,
}

/// One fixed-size instruction: flat opcode, pre-resolved operand slots,
/// precomputed result mask.
#[derive(Debug, Clone, Copy)]
struct PackedInst {
    op: PackedOp,
    a: Slot,
    b: Slot,
    c: u32,
    m: u64,
}

/// [`SsaProg::eval`] re-encoded as a dense array of fixed-size,
/// pre-masked instructions — the simulator's innermost loop.
///
/// The `Node` match in [`SsaProg::eval`] re-derives per node, every
/// virtual cycle, work that is knowable at build time: the result mask
/// from the width field (with a `w >= 64` branch inside [`mask`]) and
/// the operator through a second-level dispatch. `PackedProg` moves all
/// of that to construction: each instruction carries one flat opcode,
/// operand slots at fixed offsets, and its result mask as a plain
/// `u64`, so the per-cycle sweep is a single dense match per node with
/// an unconditional masking AND.
///
/// Slot numbering is shared with the source program: the leading run of
/// state reads fills slots `eval_from..`, and instruction `j` writes the
/// slot `j` places after that run, exactly like the source's node sweep.
/// Buffers seeded from the source's [`SsaProg::seed_vals`] and the
/// source's `loop_conds`/`ops` therefore remain valid against buffers
/// evaluated here, and the two evaluators are interchangeable
/// cycle-for-cycle (enforced by the differential tests below and the
/// engine-level cycle-exactness suite).
#[derive(Debug, Clone)]
pub struct PackedProg {
    /// First state row; lower slots hold build-time constants.
    base: usize,
    /// Registers read into slots `base..base + reg_run.len()`, in
    /// register order: the source's leading run of register-read nodes,
    /// which [`SsaProg::optimized`] makes all of them.
    reg_run: Vec<u32>,
    /// Whether the input token is read, into the slot after the
    /// register run.
    input: bool,
    /// Whether the stream-finished flag is read, into the slot after
    /// the input row (or the register run).
    finished: bool,
    /// Instruction `j` writes slot [`PackedProg::first_inst_slot`]` + j`.
    insts: Vec<PackedInst>,
}

/// The one body of the lane sweep ([`PackedProg::sweep_lanes`] over
/// `u64` columns, [`PackedProg::sweep_lanes32`] over `u32` columns):
/// one instruction sweep over a lane-major value plane of element type
/// `$t`, reading each lane's state rows (registers, input token,
/// finished flag) in place and its vector registers and BRAMs through
/// `$states[l]`.
///
/// The narrow instantiation is bit-identical to the wide one whenever
/// [`PackedProg::fits_u32`] holds and every value entering the plane
/// (inputs, register/vector/BRAM state, seeded constant rows) fits in
/// 32 bits: every arithmetic result is masked to at most 32 bits, so
/// wrapping add/sub/mul agree on the retained low half; comparisons
/// and reductions see identical operand values; and the
/// shift-overflow cutoff moves from 64 to `u32::BITS` exactly where
/// the wide result's surviving bits would have been masked to zero
/// anyway (a `<< y` with `y in 32..64` leaves only bits the ≤32-bit
/// mask discards).
macro_rules! sweep_lanes_body {
    ($self:ident, $states:ident, $width:ident, $vals:ident, $t:ty) => {{
        let n = $states.len();
        assert!(n <= $width, "lane count {n} exceeds plane width {}", $width);
        let first = $self.first_inst_slot();
        assert!($vals.len() >= (first + $self.insts.len()) * $width);
        for (j, inst) in $self.insts.iter().enumerate() {
            // Operand rows all precede the output row, so splitting the
            // plane at the output row proves disjointness to the
            // borrow checker without any per-element aliasing checks.
            let (lo, hi) = $vals.split_at_mut((first + j) * $width);
            let out = &mut hi[..n];
            let a = inst.a as usize;
            let b = inst.b as usize;
            let m = inst.m as $t;
            let row = |s: usize| &lo[s * $width..s * $width + n];
            match inst.op {
                PackedOp::Const => out.fill(m),
                PackedOp::VecReg => {
                    let ra = row(a);
                    for l in 0..n {
                        let elems = &$states[l].borrow().vec_regs[b];
                        let j = ra[l] as usize;
                        out[l] = if j < elems.len() { elems[j] as $t } else { elems[0] as $t };
                    }
                }
                PackedOp::BramRead => {
                    let ra = row(a);
                    for l in 0..n {
                        out[l] = $states[l].borrow().brams[b][(ra[l] & m) as usize] as $t;
                    }
                }
                PackedOp::Not => {
                    let ra = row(a);
                    for l in 0..n {
                        out[l] = !ra[l] & m;
                    }
                }
                PackedOp::ReduceOr => {
                    let ra = row(a);
                    for l in 0..n {
                        out[l] = (ra[l] != 0) as $t;
                    }
                }
                PackedOp::ReduceAnd => {
                    let ra = row(a);
                    for l in 0..n {
                        out[l] = (ra[l] == m) as $t;
                    }
                }
                PackedOp::Add => {
                    let (ra, rb) = (row(a), row(b));
                    for l in 0..n {
                        out[l] = ra[l].wrapping_add(rb[l]) & m;
                    }
                }
                PackedOp::Sub => {
                    let (ra, rb) = (row(a), row(b));
                    for l in 0..n {
                        out[l] = ra[l].wrapping_sub(rb[l]) & m;
                    }
                }
                PackedOp::Mul => {
                    let (ra, rb) = (row(a), row(b));
                    for l in 0..n {
                        out[l] = ra[l].wrapping_mul(rb[l]) & m;
                    }
                }
                PackedOp::And => {
                    let (ra, rb) = (row(a), row(b));
                    for l in 0..n {
                        out[l] = ra[l] & rb[l] & m;
                    }
                }
                PackedOp::Or => {
                    let (ra, rb) = (row(a), row(b));
                    for l in 0..n {
                        out[l] = (ra[l] | rb[l]) & m;
                    }
                }
                PackedOp::Xor => {
                    let (ra, rb) = (row(a), row(b));
                    for l in 0..n {
                        out[l] = (ra[l] ^ rb[l]) & m;
                    }
                }
                PackedOp::Shl => {
                    let (ra, rb) = (row(a), row(b));
                    for l in 0..n {
                        let y = rb[l];
                        out[l] = if y >= <$t>::BITS as $t { 0 } else { (ra[l] << y) & m };
                    }
                }
                PackedOp::Shr => {
                    let (ra, rb) = (row(a), row(b));
                    for l in 0..n {
                        let y = rb[l];
                        out[l] = if y >= <$t>::BITS as $t { 0 } else { (ra[l] >> y) & m };
                    }
                }
                PackedOp::Eq => {
                    let (ra, rb) = (row(a), row(b));
                    for l in 0..n {
                        out[l] = (ra[l] == rb[l]) as $t;
                    }
                }
                PackedOp::Ne => {
                    let (ra, rb) = (row(a), row(b));
                    for l in 0..n {
                        out[l] = (ra[l] != rb[l]) as $t;
                    }
                }
                PackedOp::Lt => {
                    let (ra, rb) = (row(a), row(b));
                    for l in 0..n {
                        out[l] = (ra[l] < rb[l]) as $t;
                    }
                }
                PackedOp::Le => {
                    let (ra, rb) = (row(a), row(b));
                    for l in 0..n {
                        out[l] = (ra[l] <= rb[l]) as $t;
                    }
                }
                PackedOp::Gt => {
                    let (ra, rb) = (row(a), row(b));
                    for l in 0..n {
                        out[l] = (ra[l] > rb[l]) as $t;
                    }
                }
                PackedOp::Ge => {
                    let (ra, rb) = (row(a), row(b));
                    for l in 0..n {
                        out[l] = (ra[l] >= rb[l]) as $t;
                    }
                }
                PackedOp::Mux => {
                    let (ra, rb) = (row(a), row(b));
                    let rc = row(inst.c as usize);
                    for l in 0..n {
                        // Branch-free select: both arms are already
                        // evaluated rows, so blend them under an
                        // all-ones/all-zeros lane mask.
                        let k = (0 as $t).wrapping_sub((ra[l] != 0) as $t);
                        out[l] = ((rb[l] & k) | (rc[l] & !k)) & m;
                    }
                }
                PackedOp::Slice => {
                    let ra = row(a);
                    let sh = inst.c;
                    for l in 0..n {
                        out[l] = (ra[l] >> sh) & m;
                    }
                }
                PackedOp::Concat => {
                    let (ra, rb) = (row(a), row(b));
                    let sh = inst.c;
                    for l in 0..n {
                        out[l] = ((ra[l] << sh) | rb[l]) & m;
                    }
                }
            }
        }
    }};
}

impl PackedProg {
    /// Re-encodes `prog`'s node sweep. The packed form evaluates the
    /// same slots to the same values as [`SsaProg::eval`] on `prog`.
    ///
    /// # Panics
    ///
    /// Panics unless `prog` is [`SsaProg::optimized`] output: every
    /// register, input-token and stream-finished read must sit in the
    /// leading state run.
    pub fn new(prog: &SsaProg) -> PackedProg {
        let live = &prog.nodes[prog.eval_from..];
        let reg_run: Vec<u32> = live
            .iter()
            .map_while(|n| match n {
                Node::Reg(r) => Some(*r),
                _ => None,
            })
            .collect();
        let mut rest = &live[reg_run.len()..];
        let mut leads = |leaf: Node| {
            let found = rest.first() == Some(&leaf);
            if found {
                rest = &rest[1..];
            }
            found
        };
        let input = leads(Node::Input);
        let finished = leads(Node::StreamFinished);
        let insts = rest
            .iter()
            .map(|n| {
                let mut inst = PackedInst { op: PackedOp::Const, a: 0, b: 0, c: 0, m: 0 };
                match n {
                    Node::Const(v) => {
                        inst.m = *v;
                    }
                    Node::Input | Node::StreamFinished | Node::Reg(_) => {
                        panic!("PackedProg::new takes SsaProg::optimized output: state reads lead the sweep")
                    }
                    Node::VecReg { vr, idx } => {
                        inst.op = PackedOp::VecReg;
                        inst.a = *idx;
                        inst.b = *vr;
                    }
                    Node::BramRead { bram, addr, aw } => {
                        inst.op = PackedOp::BramRead;
                        inst.a = *addr;
                        inst.b = *bram;
                        inst.m = mask(u64::MAX, *aw);
                    }
                    Node::Unary { op, a, aw, w } => {
                        inst.a = *a;
                        match op {
                            UnaryOp::Not => {
                                inst.op = PackedOp::Not;
                                inst.m = mask(u64::MAX, *w);
                            }
                            UnaryOp::ReduceOr => inst.op = PackedOp::ReduceOr,
                            UnaryOp::ReduceAnd => {
                                inst.op = PackedOp::ReduceAnd;
                                inst.m = mask(u64::MAX, *aw);
                            }
                        }
                    }
                    Node::Binary { op, a, b, w } => {
                        inst.a = *a;
                        inst.b = *b;
                        inst.m = mask(u64::MAX, *w);
                        inst.op = match op {
                            BinOp::Add => PackedOp::Add,
                            BinOp::Sub => PackedOp::Sub,
                            BinOp::Mul => PackedOp::Mul,
                            BinOp::And => PackedOp::And,
                            BinOp::Or => PackedOp::Or,
                            BinOp::Xor => PackedOp::Xor,
                            BinOp::Shl => PackedOp::Shl,
                            BinOp::Shr => PackedOp::Shr,
                            BinOp::Eq => PackedOp::Eq,
                            BinOp::Ne => PackedOp::Ne,
                            BinOp::Lt => PackedOp::Lt,
                            BinOp::Le => PackedOp::Le,
                            BinOp::Gt => PackedOp::Gt,
                            BinOp::Ge => PackedOp::Ge,
                        };
                    }
                    Node::Mux { c, t, f, w } => {
                        inst.op = PackedOp::Mux;
                        inst.a = *c;
                        inst.b = *t;
                        inst.c = *f;
                        inst.m = mask(u64::MAX, *w);
                    }
                    Node::Slice { a, hi, lo } => {
                        inst.op = PackedOp::Slice;
                        inst.a = *a;
                        inst.c = u32::from(*lo);
                        inst.m = mask(u64::MAX, hi - lo + 1);
                    }
                    Node::Concat { hi, lo, low_w, w } => {
                        inst.op = PackedOp::Concat;
                        inst.a = *hi;
                        inst.b = *lo;
                        inst.c = u32::from(*low_w);
                        inst.m = mask(u64::MAX, *w);
                    }
                }
                inst
            })
            .collect();
        PackedProg { base: prog.eval_from, reg_run, input, finished, insts }
    }

    /// The plane rows that hold registers: `(register, row)` for every
    /// register the program reads, in register order.
    pub fn reg_rows(&self) -> impl Iterator<Item = (u32, Slot)> + '_ {
        (self.base as Slot..).zip(&self.reg_run).map(|(s, &r)| (r, s))
    }

    /// The row that holds the latched input token, if the program reads
    /// it.
    pub fn input_row(&self) -> Option<Slot> {
        self.input.then_some((self.base + self.reg_run.len()) as Slot)
    }

    /// The row that holds the stream-finished flag, if the program reads
    /// it.
    pub fn finished_row(&self) -> Option<Slot> {
        self.finished.then_some((self.base + self.reg_run.len() + usize::from(self.input)) as Slot)
    }

    /// The first slot an instruction writes: everything below is a
    /// constant or a state row.
    fn first_inst_slot(&self) -> usize {
        self.base + self.reg_run.len() + usize::from(self.input) + usize::from(self.finished)
    }

    /// Evaluates one virtual cycle into `vals` — bit-identical to
    /// [`SsaProg::eval`] on the source program.
    ///
    /// # Panics
    ///
    /// Panics if `vals` is shorter than the source program's
    /// [`SsaProg::slots`].
    pub fn eval(&self, state: &UnitState, input: u64, finished: bool, vals: &mut [u64]) {
        for (v, &r) in vals[self.base..].iter_mut().zip(&self.reg_run) {
            *v = state.regs[r as usize];
        }
        if let Some(s) = self.input_row() {
            vals[s as usize] = input;
        }
        if let Some(s) = self.finished_row() {
            vals[s as usize] = u64::from(finished);
        }
        for (i, inst) in (self.first_inst_slot()..).zip(self.insts.iter()) {
            let a = inst.a as usize;
            let b = inst.b as usize;
            let m = inst.m;
            vals[i] = match inst.op {
                PackedOp::Const => m,
                PackedOp::VecReg => {
                    let elems = &state.vec_regs[b];
                    let j = vals[a] as usize;
                    if j < elems.len() {
                        elems[j]
                    } else {
                        elems[0]
                    }
                }
                PackedOp::BramRead => state.brams[b][(vals[a] & m) as usize],
                PackedOp::Not => !vals[a] & m,
                PackedOp::ReduceOr => (vals[a] != 0) as u64,
                PackedOp::ReduceAnd => (vals[a] == m) as u64,
                PackedOp::Add => vals[a].wrapping_add(vals[b]) & m,
                PackedOp::Sub => vals[a].wrapping_sub(vals[b]) & m,
                PackedOp::Mul => vals[a].wrapping_mul(vals[b]) & m,
                PackedOp::And => vals[a] & vals[b] & m,
                PackedOp::Or => (vals[a] | vals[b]) & m,
                PackedOp::Xor => (vals[a] ^ vals[b]) & m,
                PackedOp::Shl => {
                    let y = vals[b];
                    if y >= 64 {
                        0
                    } else {
                        (vals[a] << y) & m
                    }
                }
                PackedOp::Shr => {
                    let y = vals[b];
                    if y >= 64 {
                        0
                    } else {
                        (vals[a] >> y) & m
                    }
                }
                PackedOp::Eq => (vals[a] == vals[b]) as u64,
                PackedOp::Ne => (vals[a] != vals[b]) as u64,
                PackedOp::Lt => (vals[a] < vals[b]) as u64,
                PackedOp::Le => (vals[a] <= vals[b]) as u64,
                PackedOp::Gt => (vals[a] > vals[b]) as u64,
                PackedOp::Ge => (vals[a] >= vals[b]) as u64,
                PackedOp::Mux => {
                    let v = if vals[a] != 0 { vals[b] } else { vals[inst.c as usize] };
                    v & m
                }
                PackedOp::Slice => (vals[a] >> inst.c) & m,
                PackedOp::Concat => ((vals[a] << inst.c) | vals[b]) & m,
            };
        }
    }

    /// Evaluates one virtual cycle for up to `width` replica lanes in a
    /// single instruction sweep, into a lane-major value plane: stages
    /// every lane's state rows (registers lane-outer — one [`UnitState`]
    /// dereference and one pass over its register file per lane — then
    /// the input and finished rows) and runs
    /// [`PackedProg::sweep_lanes`] over them.
    ///
    /// Lane `l` of slot `s` lives at `vals[s * width + l]`. Rows below
    /// `base` hold build-time constants replicated across all lanes
    /// (seed each row from [`SsaProg::seed_vals`]); every later row has
    /// its lanes `0..states.len()` rewritten. For each lane
    /// `l` the values written are bit-identical to
    /// [`PackedProg::eval`] over `(states[l], inputs[l], finished[l])` —
    /// divergence between lanes (guards, loop phases, BRAM addresses)
    /// is free because every lane carries its own column. Lanes
    /// `states.len()..width` are left untouched (stale) and must not be
    /// read back.
    ///
    /// # Panics
    ///
    /// Panics if the input slices disagree on lane count, more than
    /// `width` lanes are given, or `vals` is shorter than
    /// `slots * width` for the source program's slot count.
    pub fn eval_lanes(
        &self,
        states: &[&UnitState],
        inputs: &[u64],
        finished: &[bool],
        width: usize,
        vals: &mut [u64],
    ) {
        self.stage_lanes(states, inputs, finished, width, vals, |v| v);
        self.sweep_lanes(states, width, vals);
    }

    /// Narrow-plane variant of [`PackedProg::eval_lanes`] over `u32`
    /// columns: half the memory traffic per sweep and twice the lanes
    /// per SIMD register, for programs whose every value fits 32 bits.
    ///
    /// Only valid when [`PackedProg::fits_u32`] holds **and** every
    /// value reaching the plane fits in 32 bits: input tokens,
    /// register / vector-register / BRAM state, and the seeded
    /// constant rows. The caller owns that precondition (the executor
    /// layer derives it once per compiled unit from the spec's widths
    /// and reset values); under it every lane is bit-identical to the
    /// wide sweep — the notes on the shared sweep body (the private
    /// `sweep_lanes_body!` macro) give the argument.
    ///
    /// # Panics
    ///
    /// Same contract as [`PackedProg::eval_lanes`].
    pub fn eval_lanes32(
        &self,
        states: &[&UnitState],
        inputs: &[u64],
        finished: &[bool],
        width: usize,
        vals: &mut [u32],
    ) {
        self.stage_lanes(states, inputs, finished, width, vals, |v| v as u32);
        self.sweep_lanes32(states, width, vals);
    }

    /// Writes each lane's state rows: its registers, latched input token
    /// and finished flag, converted to the plane word by `word`.
    fn stage_lanes<T>(
        &self,
        states: &[&UnitState],
        inputs: &[u64],
        finished: &[bool],
        width: usize,
        vals: &mut [T],
        word: impl Fn(u64) -> T,
    ) {
        let n = states.len();
        assert!(n <= width, "lane count {n} exceeds plane width {width}");
        assert_eq!(inputs.len(), n);
        assert_eq!(finished.len(), n);
        let run = &mut vals[self.base * width..(self.base + self.reg_run.len()) * width];
        for (l, st) in states.iter().enumerate() {
            let regs = &st.regs[..];
            for (row, &r) in run.chunks_exact_mut(width).zip(&self.reg_run) {
                row[l] = word(regs[r as usize]);
            }
        }
        if let Some(s) = self.input_row() {
            for (v, &i) in vals[s as usize * width..][..n].iter_mut().zip(inputs) {
                *v = word(i);
            }
        }
        if let Some(s) = self.finished_row() {
            for (v, &f) in vals[s as usize * width..][..n].iter_mut().zip(finished) {
                *v = word(u64::from(f));
            }
        }
    }

    /// The lane sweep proper: evaluates one virtual cycle for lanes
    /// `0..states.len()` of a lane-major `u64` plane whose state rows
    /// ([`PackedProg::reg_rows`], [`PackedProg::input_row`],
    /// [`PackedProg::finished_row`]) already hold each lane's values —
    /// staged by [`PackedProg::eval_lanes`], or resident in a lane
    /// group that keeps them there between cycles. `states[l]` supplies
    /// only lane `l`'s vector registers and BRAMs, which are
    /// dynamically indexed; its `regs` are not read.
    ///
    /// The per-instruction structure keeps each output row disjoint
    /// from every operand row (operands precede their instruction in
    /// topological order), so the inner per-lane loops are
    /// straight-line, bounds-check-free slice arithmetic the compiler
    /// can vectorize.
    ///
    /// # Panics
    ///
    /// Panics if more than `width` lanes are given or `vals` is shorter
    /// than `slots * width` for the source program's slot count.
    #[allow(unsafe_code, clippy::unnecessary_cast, trivial_numeric_casts)]
    pub fn sweep_lanes<S: Borrow<UnitState>>(&self, states: &[S], width: usize, vals: &mut [u64]) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: guarded by the runtime AVX2 probe above; the
            // function body is the identical safe sweep, merely
            // compiled with 256-bit vectors enabled. AVX2, not
            // AVX-512: 512-bit license-based frequency throttling on
            // server parts slows the scalar walk and controller code
            // sharing the core more than the wider sweep saves.
            unsafe { self.sweep_lanes_avx2(states, width, vals) };
            return;
        }
        sweep_lanes_body!(self, states, width, vals, u64)
    }

    /// [`PackedProg::sweep_lanes`] recompiled with AVX2 enabled. The
    /// portable build targets baseline x86-64 (SSE2), which caps the
    /// auto-vectorizer at two 64-bit lanes per register; this clone of
    /// the exact same sweep body lets it use four. Bit-identical by
    /// construction — same code, wider registers.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    #[allow(clippy::unnecessary_cast, trivial_numeric_casts)]
    fn sweep_lanes_avx2<S: Borrow<UnitState>>(&self, states: &[S], width: usize, vals: &mut [u64]) {
        sweep_lanes_body!(self, states, width, vals, u64)
    }

    /// [`PackedProg::sweep_lanes`] over a `u32` plane, under
    /// [`PackedProg::eval_lanes32`]'s precondition.
    #[allow(unsafe_code)]
    pub fn sweep_lanes32<S: Borrow<UnitState>>(&self, states: &[S], width: usize, vals: &mut [u32]) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: guarded by the runtime AVX2 probe above; same
            // safe body, wider registers (see `sweep_lanes_avx2`).
            unsafe { self.sweep_lanes32_avx2(states, width, vals) };
            return;
        }
        sweep_lanes_body!(self, states, width, vals, u32)
    }

    /// AVX2 clone of [`PackedProg::sweep_lanes32`]; eight 32-bit lanes
    /// per register instead of SSE2's four. See
    /// [`PackedProg::sweep_lanes`]'s AVX2 clone for the rationale.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn sweep_lanes32_avx2<S: Borrow<UnitState>>(&self, states: &[S], width: usize, vals: &mut [u32]) {
        sweep_lanes_body!(self, states, width, vals, u32)
    }

    /// Whether this instruction stream is admissible on the narrow
    /// ([`u32`]) evaluation plane: every result mask fits in 32 bits
    /// (so no instruction can *produce* a wide value) and every
    /// constant shift amount stays below 32 (so `Slice`/`Concat`
    /// shifts cannot overflow the narrow element). This is the
    /// program-side half of the precondition for
    /// [`PackedProg::eval_lanes32`]; the state/input side (register
    /// widths, token width, reset values) lives with the caller.
    pub fn fits_u32(&self) -> bool {
        self.insts.iter().all(|inst| {
            inst.m <= u64::from(u32::MAX)
                && (inst.c < 32 || !matches!(inst.op, PackedOp::Slice | PackedOp::Concat))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Interpreter;
    use crate::state::PendingWrites;
    use fleet_lang::{lit, UnitBuilder};

    /// Minimal SSA-driven virtual-cycle stepper used to differential-test
    /// the compiled form against the checking interpreter.
    fn run_ssa(spec: &UnitSpec, tokens: &[u64]) -> Vec<u64> {
        run_prog(&SsaProg::build(spec), spec, tokens)
    }

    fn run_prog(prog: &SsaProg, spec: &UnitSpec, tokens: &[u64]) -> Vec<u64> {
        let mut state = UnitState::reset(spec);
        let mut vals = prog.seed_vals();
        let mut out = Vec::new();
        let mut step = |state: &mut UnitState, token: u64, fin: bool, out: &mut Vec<u64>| loop {
            prog.eval(state, token, fin, &mut vals);
            let in_loop = prog.any_loop(&vals);
            let mut pending = PendingWrites::default();
            let mut emitted = false;
            for op in &prog.ops {
                if op.in_loop != in_loop
                    || op.guards.iter().any(|&g| vals[g as usize] == 0)
                {
                    continue;
                }
                match &op.op {
                    SsaOp::SetReg { reg, width, val } => {
                        if !pending.regs.iter().any(|(r, _)| *r == *reg as usize) {
                            pending
                                .regs
                                .push((*reg as usize, mask(vals[*val as usize], *width)));
                        }
                    }
                    SsaOp::SetVecReg { vr, width, idx, val } => {
                        let i = vals[*idx as usize] as usize;
                        if i < state.vec_regs[*vr as usize].len()
                            && !pending
                                .vec_regs
                                .iter()
                                .any(|(v, e, _)| *v == *vr as usize && *e == i)
                        {
                            pending.vec_regs.push((
                                *vr as usize,
                                i,
                                mask(vals[*val as usize], *width),
                            ));
                        }
                    }
                    SsaOp::BramWrite { bram, aw, dw, addr, val } => {
                        if !pending.brams.iter().any(|(b, _, _)| *b == *bram as usize) {
                            pending.brams.push((
                                *bram as usize,
                                mask(vals[*addr as usize], *aw),
                                mask(vals[*val as usize], *dw),
                            ));
                        }
                    }
                    SsaOp::Emit { val, width } => {
                        if !emitted {
                            out.push(mask(vals[*val as usize], *width));
                            emitted = true;
                        }
                    }
                }
            }
            pending.commit(state);
            if !in_loop {
                break;
            }
        };
        for &t in tokens {
            step(&mut state, mask(t, spec.input_token_bits), false, &mut out);
        }
        step(&mut state, 0, true, &mut out);
        out
    }

    #[test]
    fn ssa_matches_interpreter_on_histogram() {
        let spec = histogram_spec();
        let tokens: Vec<u64> = (0..300).map(|x| (x * 13 + 5) % 256).collect();
        let golden = Interpreter::run_tokens(&spec, &tokens).unwrap();
        assert_eq!(run_ssa(&spec, &tokens), golden.tokens);
    }

    fn histogram_spec() -> UnitSpec {
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
        u.build().unwrap()
    }

    #[test]
    fn optimized_matches_reference_on_histogram() {
        let spec = histogram_spec();
        let reference = SsaProg::build(&spec);
        let opt = reference.optimized(&spec);
        assert!(
            opt.slots() < reference.slots(),
            "optimizer should shrink the sweep: {} -> {}",
            reference.slots(),
            opt.slots()
        );
        let tokens: Vec<u64> = (0..400).map(|x| (x * 31 + 7) % 256).collect();
        assert_eq!(
            run_prog(&opt, &spec, &tokens),
            run_prog(&reference, &spec, &tokens)
        );
    }

    /// [`PackedProg::eval`] must write the exact same buffer as
    /// [`SsaProg::eval`] on the same program, cycle for cycle — the
    /// packed form is the default fast path, so any divergence here is
    /// a simulator-correctness bug, not a performance one.
    #[test]
    fn packed_eval_matches_ssa_eval_slotwise() {
        let spec = histogram_spec();
        let opt = SsaProg::build(&spec).optimized(&spec);
        let packed = PackedProg::new(&opt);
        let mut state = UnitState::reset(&spec);
        let mut va = opt.seed_vals();
        let mut vb = opt.seed_vals();
        for step in 0..500u64 {
            let token = (step * 37 + 11) % 256;
            let fin = step > 450;
            opt.eval(&state, token, fin, &mut va);
            packed.eval(&state, token, fin, &mut vb);
            assert_eq!(va, vb, "divergence at step {step}");
            // Mutate state the way a real run would so later sweeps see
            // fresh register/BRAM contents.
            let mut pending = PendingWrites::default();
            let in_loop = opt.any_loop(&va);
            for op in &opt.ops {
                if op.in_loop != in_loop
                    || op.guards.iter().any(|&g| va[g as usize] == 0)
                {
                    continue;
                }
                if let SsaOp::SetReg { reg, width, val } = op.op {
                    pending.regs.push((reg as usize, mask(va[val as usize], width)));
                }
                if let SsaOp::BramWrite { bram, aw, dw, addr, val } = op.op {
                    pending.brams.push((
                        bram as usize,
                        mask(va[addr as usize], aw),
                        mask(va[val as usize], dw),
                    ));
                }
            }
            pending.commit(&mut state);
        }
    }

    /// [`PackedProg::eval_lanes`] must write, in every lane's column of
    /// the plane, exactly the buffer [`PackedProg::eval`] writes for
    /// that lane's `(state, input, finished)` — with lanes deliberately
    /// divergent (different tokens, different register/BRAM states,
    /// different loop phases) and partial groups leaving stale lanes
    /// untouched.
    #[test]
    fn eval_lanes_matches_eval_per_lane() {
        let spec = histogram_spec();
        let opt = SsaProg::build(&spec).optimized(&spec);
        let packed = PackedProg::new(&opt);
        const WIDTH: usize = 8;
        // 5 lanes in an 8-wide plane: partial groups are the common
        // engine case and prove lanes n..width stay inert.
        const LANES: usize = 5;
        let mut states: Vec<UnitState> = (0..LANES).map(|_| UnitState::reset(&spec)).collect();
        let mut plane = vec![0u64; opt.slots() * WIDTH];
        let seed = opt.seed_vals();
        for (s, &v) in seed.iter().enumerate() {
            plane[s * WIDTH..(s + 1) * WIDTH].fill(v);
        }
        let mut scalar = vec![seed.clone(); LANES];
        for step in 0..400u64 {
            let inputs: Vec<u64> = (0..LANES as u64).map(|l| (step * 37 + 11 * l + l) % 256).collect();
            let finished: Vec<bool> = (0..LANES as u64).map(|l| step > 300 + 13 * l).collect();
            let refs: Vec<&UnitState> = states.iter().collect();
            packed.eval_lanes(&refs, &inputs, &finished, WIDTH, &mut plane);
            for l in 0..LANES {
                packed.eval(&states[l], inputs[l], finished[l], &mut scalar[l]);
                for s in 0..opt.slots() {
                    assert_eq!(
                        plane[s * WIDTH + l],
                        scalar[l][s],
                        "lane {l} slot {s} diverged at step {step}"
                    );
                }
            }
            // Advance each lane's architectural state independently so
            // the lanes drift apart (different loop phases, counters,
            // BRAM contents).
            for l in 0..LANES {
                let va = &scalar[l];
                let mut pending = PendingWrites::default();
                let in_loop = opt.any_loop(va);
                for op in &opt.ops {
                    if op.in_loop != in_loop
                        || op.guards.iter().any(|&g| va[g as usize] == 0)
                    {
                        continue;
                    }
                    if let SsaOp::SetReg { reg, width, val } = op.op {
                        if !pending.regs.iter().any(|(r, _)| *r == reg as usize) {
                            pending.regs.push((reg as usize, mask(va[val as usize], width)));
                        }
                    }
                    if let SsaOp::BramWrite { bram, aw, dw, addr, val } = op.op {
                        if !pending.brams.iter().any(|(b, _, _)| *b == bram as usize) {
                            pending.brams.push((
                                bram as usize,
                                mask(va[addr as usize], aw),
                                mask(va[val as usize], dw),
                            ));
                        }
                    }
                }
                pending.commit(&mut states[l]);
            }
        }
    }

    #[test]
    fn optimized_folds_constant_guards_and_nodes() {
        // A unit with an always-false guarded op and a chain of
        // constant arithmetic: the op must be deleted and the constants
        // hoisted out of the per-cycle sweep.
        let mut u = UnitBuilder::new("Folds", 8, 8);
        let r = u.reg("r", 8, 0);
        let inp = u.input();
        u.if_(lit(0, 1).eq_e(1u64), |u| u.set(r, inp.clone() + 1u64));
        u.if_(lit(3, 4).eq_e(3u64), |u| u.emit(inp.clone() + (lit(2, 8) * lit(3, 8))));
        let spec = u.build().unwrap();
        let reference = SsaProg::build(&spec);
        let opt = reference.optimized(&spec);
        assert!(opt.ops.len() < reference.ops.len(), "never-firing op survives");
        assert!(opt.slots() < reference.slots());
        let tokens: Vec<u64> = (0..50).collect();
        assert_eq!(
            run_prog(&opt, &spec, &tokens),
            run_prog(&reference, &spec, &tokens)
        );
    }

    #[test]
    fn optimized_combines_multi_guard_ops() {
        // Nested data-dependent ifs: guards collapse to one slot each.
        let mut u = UnitBuilder::new("Guards", 8, 8);
        let inp = u.input();
        u.if_(inp.slice(0, 0).eq_e(1u64), |u| {
            u.if_(inp.slice(1, 1).eq_e(1u64), |u| {
                u.if_(inp.slice(2, 2).eq_e(1u64), |u| u.emit(inp.clone()));
            });
        });
        let spec = u.build().unwrap();
        let reference = SsaProg::build(&spec);
        let opt = reference.optimized(&spec);
        assert!(opt.ops.iter().all(|g| g.guards.len() <= 1));
        let tokens: Vec<u64> = (0..256).collect();
        assert_eq!(
            run_prog(&opt, &spec, &tokens),
            run_prog(&reference, &spec, &tokens)
        );
    }

    #[test]
    fn ssa_shares_subexpressions() {
        // A deep shared chain must stay linear in slots.
        let mut u = UnitBuilder::new("Chain", 8, 8);
        let r = u.reg("r", 8, 0);
        let mut e = r.e();
        for _ in 0..40 {
            e = e.clone() + e.clone();
        }
        u.set(r, e);
        let spec = u.build().unwrap();
        let prog = SsaProg::build(&spec);
        assert!(prog.slots() < 100, "slots = {}", prog.slots());
    }
}
