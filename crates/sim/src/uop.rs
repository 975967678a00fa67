//! The micro-operation model consumed by the pipeline.

use serde::{Deserialize, Serialize};

use crate::types::Addr;

/// The operation class of a micro-op, determining which functional unit
/// executes it and with what latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UopKind {
    /// Single-cycle integer/logic operation.
    Alu,
    /// Pipelined multiply (or medium-latency FP op).
    Mul,
    /// Unpipelined divide (or long-latency FP op).
    Div,
    /// Memory load; `mem_addr` must be set.
    Load,
    /// Memory store; `mem_addr` must be set. Data is written at retirement
    /// (through the store buffer).
    Store,
    /// Conditional or unconditional branch. `taken` is the architectural
    /// outcome; `target` the architectural target when taken.
    Branch {
        /// Architectural outcome.
        taken: bool,
        /// Branch target when taken.
        target: Addr,
    },
    /// Direct function call: always taken to `target`; pushes the
    /// fall-through address onto the return address stack.
    Call {
        /// Callee entry address.
        target: Addr,
    },
    /// Function return: always taken to `target` (the caller's
    /// fall-through); predicted by the return address stack.
    Return {
        /// Architectural return target.
        target: Addr,
    },
    /// No-operation (consumes front-end slots only).
    Nop,
    /// Explicit switch hint (the x86 `pause` of the paper's Section 6):
    /// retires like a single-cycle op and offers the policy a voluntary
    /// switch point — typically emitted in busy-wait loops.
    Pause,
}

impl UopKind {
    /// Whether this kind accesses data memory.
    pub fn is_mem(&self) -> bool {
        matches!(self, UopKind::Load | UopKind::Store)
    }
}

/// One micro-op of a thread's dynamic instruction stream.
///
/// Register dependences are encoded positionally: `src_dist[i] = d > 0`
/// means source operand `i` is produced by the micro-op `d` positions
/// earlier in the same thread's stream (`0` means no dependence). This
/// producer-distance encoding is what synthetic traces and real traces
/// alike reduce to for timing simulation, and it makes the stream
/// position-replayable.
///
/// # Examples
///
/// ```
/// use soe_sim::{Uop, UopKind};
///
/// let u = Uop::new(UopKind::Alu, 0x1000).with_deps(1, 2);
/// assert_eq!(u.src_dist, [1, 2]);
/// assert!(!u.kind.is_mem());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Uop {
    /// Operation class.
    pub kind: UopKind,
    /// Instruction address (used by the I-cache, iTLB, predictor and BTB).
    pub pc: Addr,
    /// Data address for loads and stores.
    pub mem_addr: Option<Addr>,
    /// Producer distances of up to two source operands; `0` = none.
    pub src_dist: [u32; 2],
}

impl Uop {
    /// Creates a micro-op with no dependences and no memory address.
    pub fn new(kind: UopKind, pc: Addr) -> Self {
        Self {
            kind,
            pc,
            mem_addr: None,
            src_dist: [0, 0],
        }
    }

    /// Sets the two producer distances (builder style).
    pub fn with_deps(mut self, a: u32, b: u32) -> Self {
        self.src_dist = [a, b];
        self
    }

    /// Sets the data address (builder style).
    ///
    /// # Panics
    ///
    /// Panics if the kind is not a load or store.
    pub fn with_mem(mut self, addr: Addr) -> Self {
        assert!(self.kind.is_mem(), "only loads/stores carry a data address");
        self.mem_addr = Some(addr);
        self
    }

    /// The data address.
    ///
    /// # Panics
    ///
    /// Panics if this is a memory op without an address (trace bug).
    pub fn mem_addr(&self) -> Addr {
        self.mem_addr
            // soe-lint: allow(panic-unwrap): documented panicking accessor; a missing address is a trace-generation bug
            .expect("memory micro-op must carry an address")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_classify() {
        assert!(UopKind::Load.is_mem());
        assert!(UopKind::Store.is_mem());
        assert!(!UopKind::Alu.is_mem());
        assert!(!UopKind::Branch {
            taken: true,
            target: 0
        }
        .is_mem());
    }

    #[test]
    fn builder_sets_fields() {
        let u = Uop::new(UopKind::Load, 0x40)
            .with_mem(0x1234)
            .with_deps(3, 0);
        assert_eq!(u.mem_addr(), 0x1234);
        assert_eq!(u.src_dist, [3, 0]);
        assert_eq!(u.pc, 0x40);
    }

    #[test]
    #[should_panic(expected = "only loads/stores")]
    fn with_mem_on_alu_panics() {
        let _ = Uop::new(UopKind::Alu, 0).with_mem(0x10);
    }
}
