//! Replayable micro-op streams feeding the pipeline.

use crate::types::InstrIndex;
use crate::uop::{Uop, UopKind};

/// A replayable per-thread micro-op stream.
///
/// `uop_at` must be a **pure function** of the index: the pipeline re-reads
/// arbitrary positions after thread-switch squashes and branch redirects.
/// This mirrors what the paper's LIT checkpoints provide — the ability to
/// resume execution from any architectural point.
pub trait TraceSource {
    /// The micro-op at dynamic position `index` of this thread's committed
    /// path.
    fn uop_at(&self, index: InstrIndex) -> Uop;

    /// Human-readable workload name (used in reports).
    fn name(&self) -> &str {
        "anonymous"
    }
}

impl<T: TraceSource + ?Sized> TraceSource for Box<T> {
    fn uop_at(&self, index: InstrIndex) -> Uop {
        (**self).uop_at(index)
    }
    fn name(&self) -> &str {
        (**self).name()
    }
}

impl<T: TraceSource + ?Sized> TraceSource for &T {
    fn uop_at(&self, index: InstrIndex) -> Uop {
        (**self).uop_at(index)
    }
    fn name(&self) -> &str {
        (**self).name()
    }
}

/// A trivial trace of independent single-cycle ALU ops — useful for tests
/// and pipeline-width microbenchmarks.
///
/// # Examples
///
/// ```
/// use soe_sim::{AluTrace, TraceSource, UopKind};
///
/// let t = AluTrace::new();
/// assert_eq!(t.uop_at(7).kind, UopKind::Alu);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct AluTrace;

impl AluTrace {
    /// Creates the trace.
    pub fn new() -> Self {
        Self
    }
}

impl TraceSource for AluTrace {
    fn uop_at(&self, index: InstrIndex) -> Uop {
        Uop::new(UopKind::Alu, 0x1000 + (index % 1024) * 4)
    }
    fn name(&self) -> &str {
        "alu"
    }
}

/// A trace built from a repeating explicit pattern of micro-ops — the
/// workhorse of the simulator's unit tests.
///
/// Position `i` yields `pattern[i % pattern.len()]` with the `pc` offset
/// advanced so that instruction addresses stay distinct across iterations
/// of the pattern within a configurable code footprint.
#[derive(Debug, Clone)]
pub struct PatternTrace {
    pattern: Vec<Uop>,
    name: String,
}

impl PatternTrace {
    /// Creates a trace repeating `pattern`.
    ///
    /// # Panics
    ///
    /// Panics if `pattern` is empty.
    pub fn new(name: impl Into<String>, pattern: Vec<Uop>) -> Self {
        assert!(!pattern.is_empty(), "pattern must be non-empty");
        Self {
            pattern,
            name: name.into(),
        }
    }
}

impl TraceSource for PatternTrace {
    fn uop_at(&self, index: InstrIndex) -> Uop {
        // soe-lint: allow(slice-index): new() rejects empty patterns and the index is reduced modulo len
        self.pattern[(index % self.pattern.len() as u64) as usize]
    }
    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_trace_repeats() {
        let t = PatternTrace::new(
            "p",
            vec![Uop::new(UopKind::Alu, 0), Uop::new(UopKind::Nop, 4)],
        );
        assert_eq!(t.uop_at(0).kind, UopKind::Alu);
        assert_eq!(t.uop_at(1).kind, UopKind::Nop);
        assert_eq!(t.uop_at(2).kind, UopKind::Alu);
        assert_eq!(t.name(), "p");
    }

    #[test]
    fn boxed_trace_delegates() {
        let t: Box<dyn TraceSource> = Box::new(AluTrace::new());
        assert_eq!(t.uop_at(5).kind, UopKind::Alu);
        assert_eq!(t.name(), "alu");
    }

    #[test]
    fn trace_is_pure_in_index() {
        let t = AluTrace::new();
        assert_eq!(t.uop_at(42), t.uop_at(42));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_pattern_panics() {
        PatternTrace::new("e", vec![]);
    }
}
