//! LIT-like checkpoints: serializable architectural snapshots of a
//! synthetic trace.
//!
//! The paper's methodology is built on Long Instruction Traces (LITs) —
//! checkpoints of architectural state plus injectable external events,
//! from which simulation can resume at any point. For a synthetic trace
//! the architectural state collapses to `(profile, position, address
//! base)`; this module provides exactly that, serialized as JSON, plus
//! the injectable-event analogue (a periodic interrupt overlay).

use serde::{Deserialize, Serialize};
use soe_sim::{Addr, InstrIndex, TraceSource, Uop, UopKind};

use crate::gen::SyntheticTrace;
use crate::hash::fnv1a64;
use crate::profile::Profile;

/// A serializable snapshot from which a [`SyntheticTrace`] can be
/// reconstructed mid-stream.
///
/// # Examples
///
/// ```
/// use soe_sim::TraceSource;
/// use soe_workloads::{spec, Checkpoint, SyntheticTrace};
///
/// let trace = SyntheticTrace::new(spec::profile("swim").unwrap(), 0x2_0000_0000, 0);
/// let cp = Checkpoint::capture(&trace, 5_000);
/// let json = cp.to_json().unwrap();
/// let resumed = Checkpoint::from_json(&json).unwrap().into_trace();
/// assert_eq!(resumed.uop_at(0), trace.uop_at(5_000));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// The generating profile.
    pub profile: Profile,
    /// Absolute stream position of the snapshot.
    pub position: InstrIndex,
    /// Address-space base of the thread.
    pub base: Addr,
}

impl Checkpoint {
    /// Captures a checkpoint of `trace` at `position` instructions past
    /// the trace's current offset.
    // soe-lint: allow(dead-pub): tests/determinism.rs and service.rs's memo-key test
    pub fn capture(trace: &SyntheticTrace, position: InstrIndex) -> Self {
        Self {
            profile: trace.profile().clone(),
            position: trace.offset() + position,
            base: trace.base(),
        }
    }

    /// Reconstructs the trace, resuming at the snapshot position.
    pub fn into_trace(self) -> SyntheticTrace {
        SyntheticTrace::new(self.profile, self.base, self.position)
    }

    /// Serializes to JSON.
    ///
    /// # Errors
    ///
    /// Returns a `serde_json::Error` if serialization fails (it cannot
    /// for well-formed profiles).
    // soe-lint: allow(dead-pub): tests/determinism.rs's checkpoint round trip
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Deserializes from JSON.
    ///
    /// # Errors
    ///
    /// Returns a `serde_json::Error` on malformed input.
    // soe-lint: allow(dead-pub): tests/determinism.rs's checkpoint round trip
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// A stable, filesystem-safe memoization key for this checkpoint:
    /// the profile name and stream coordinates in clear (for
    /// debuggability of cache directories) plus an FNV-1a-64 digest of
    /// the *full* canonical serialization, so editing any profile
    /// parameter — not just renaming it — invalidates cache entries
    /// derived from the old behaviour.
    pub fn memo_key(&self) -> String {
        let canonical = serde_json::to_string(self).unwrap_or_default();
        format!(
            "{}-p{}-b{:x}-{:016x}",
            self.profile.name,
            self.position,
            self.base,
            fnv1a64(canonical.as_bytes())
        )
    }
}

/// The LIT "injectable external events" analogue: a periodic interrupt
/// that overlays a kernel handler onto the underlying trace.
///
/// Every `period` instructions, the next `handler_len` micro-ops are
/// replaced by handler code (ALU ops and loads in a dedicated kernel
/// region), perturbing the I-cache and branch predictor the way real
/// interrupt/OS activity does in LIT-driven simulation.
#[derive(Debug, Clone)]
pub struct InterruptOverlay<T> {
    inner: T,
    period: u64,
    handler_len: u64,
    kernel_base: Addr,
}

impl<T: TraceSource> InterruptOverlay<T> {
    /// Wraps `inner`, injecting a `handler_len`-instruction handler every
    /// `period` instructions.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0` or `handler_len >= period`.
    // soe-lint: allow(dead-pub): checkpoint.rs's interrupt-overlay tests
    pub fn new(inner: T, period: u64, handler_len: u64, kernel_base: Addr) -> Self {
        assert!(period > 0, "interrupt period must be positive");
        assert!(
            handler_len < period,
            "handler must be shorter than the period"
        );
        Self {
            inner,
            period,
            handler_len,
            kernel_base,
        }
    }
}

impl<T: TraceSource> TraceSource for InterruptOverlay<T> {
    fn uop_at(&self, index: InstrIndex) -> Uop {
        let phase = index % self.period;
        if phase < self.handler_len {
            let pc = self.kernel_base + phase * 4;
            if phase % 5 == 4 {
                Uop::new(UopKind::Load, pc).with_mem(self.kernel_base + 0x8000 + (phase % 64) * 64)
            } else {
                Uop::new(UopKind::Alu, pc).with_deps(1, 0)
            }
        } else {
            // The underlying program resumes where it left off: handler
            // instructions do not consume program positions. All handlers
            // up to and including the current period's are complete here.
            let handler_instrs = (index / self.period + 1) * self.handler_len;
            self.inner.uop_at(index - handler_instrs)
        }
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    fn trace() -> SyntheticTrace {
        SyntheticTrace::new(spec::profile("gzip").unwrap(), 0x3_0000_0000, 100)
    }

    #[test]
    fn capture_and_resume_round_trip() {
        let t = trace();
        let cp = Checkpoint::capture(&t, 1_234);
        let r = cp.into_trace();
        for i in 0..100 {
            assert_eq!(r.uop_at(i), t.uop_at(1_234 + i));
        }
    }

    #[test]
    fn json_round_trip() {
        let cp = Checkpoint::capture(&trace(), 77);
        let json = cp.to_json().unwrap();
        let back = Checkpoint::from_json(&json).unwrap();
        assert_eq!(back, cp);
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(Checkpoint::from_json("{not json").is_err());
    }

    #[test]
    fn memo_key_is_stable_and_parameter_sensitive() {
        let t = trace();
        let a = Checkpoint::capture(&t, 500);
        assert_eq!(a.memo_key(), Checkpoint::capture(&t, 500).memo_key());
        assert_ne!(a.memo_key(), Checkpoint::capture(&t, 501).memo_key());
        let mut tweaked = a.clone();
        tweaked.profile.mem.cold_load_prob *= 1.5;
        assert_ne!(
            a.memo_key(),
            tweaked.memo_key(),
            "parameter change must invalidate"
        );
        assert!(
            a.memo_key()
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_'),
            "filesystem-safe: {}",
            a.memo_key()
        );
    }

    #[test]
    fn interrupt_overlay_injects_kernel_code() {
        let o = InterruptOverlay::new(trace(), 1_000, 50, 0xdead_0000_0000);
        let u = o.uop_at(0);
        assert!(u.pc >= 0xdead_0000_0000, "handler at period start");
        let v = o.uop_at(500);
        assert!(v.pc < 0xdead_0000_0000, "program code between interrupts");
    }

    #[test]
    fn interrupt_overlay_is_pure() {
        let o = InterruptOverlay::new(trace(), 997, 31, 0xdead_0000);
        for i in (0..5_000).step_by(53) {
            assert_eq!(o.uop_at(i), o.uop_at(i));
        }
    }

    #[test]
    #[should_panic(expected = "shorter than the period")]
    fn oversized_handler_panics() {
        InterruptOverlay::new(trace(), 10, 10, 0);
    }
}
