//! Trace overlays: composable wrappers that modify an underlying
//! micro-op stream without breaking its replayability.

use soe_sim::{Addr, InstrIndex, TraceSource, Uop, UopKind};

/// Injects a `pause` switch hint every `period` instructions — the
/// spin-wait / busy-poll pattern behind the paper's Section 6 note that
/// explicit instructions (x86 `pause`) can trigger thread switches.
///
/// Like every trace transform here, the overlay is a pure function of
/// position: the hint replaces the underlying micro-op at positions
/// divisible by `period` (the program conceptually has the hint compiled
/// in).
///
/// # Examples
///
/// ```
/// use soe_sim::{TraceSource, UopKind};
/// use soe_workloads::{spec, PauseOverlay, SyntheticTrace};
///
/// let inner = SyntheticTrace::new(spec::profile("eon").unwrap(), 0x1_0000_0000, 0);
/// let t = PauseOverlay::new(inner, 1_000);
/// assert_eq!(t.uop_at(0).kind, UopKind::Pause);
/// assert_ne!(t.uop_at(1).kind, UopKind::Pause);
/// ```
#[derive(Debug, Clone)]
pub struct PauseOverlay<T> {
    inner: T,
    period: u64,
}

impl<T: TraceSource> PauseOverlay<T> {
    /// Wraps `inner`, pausing every `period` instructions.
    ///
    /// # Panics
    ///
    /// Panics if `period < 2` (the stream must keep real work).
    // soe-lint: allow(dead-pub): tests/extensions.rs
    pub fn new(inner: T, period: u64) -> Self {
        assert!(period >= 2, "pause period must leave room for real work");
        Self { inner, period }
    }
}

impl<T: TraceSource> TraceSource for PauseOverlay<T> {
    fn uop_at(&self, index: InstrIndex) -> Uop {
        if index.is_multiple_of(self.period) {
            let pc = self.inner.uop_at(index).pc;
            Uop::new(UopKind::Pause, pc)
        } else {
            self.inner.uop_at(index)
        }
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Remaps an underlying trace's address space by a fixed displacement —
/// useful for placing pre-built traces into fresh address ranges without
/// regenerating them.
#[derive(Debug, Clone)]
pub struct RelocateOverlay<T> {
    inner: T,
    displacement: Addr,
}

impl<T: TraceSource> RelocateOverlay<T> {
    /// Wraps `inner`, adding `displacement` to every code and data
    /// address.
    // soe-lint: allow(dead-pub): overlay.rs's relocate_shifts_all_addresses test
    pub fn new(inner: T, displacement: Addr) -> Self {
        Self {
            inner,
            displacement,
        }
    }
}

impl<T: TraceSource> TraceSource for RelocateOverlay<T> {
    fn uop_at(&self, index: InstrIndex) -> Uop {
        let mut u = self.inner.uop_at(index);
        u.pc += self.displacement;
        if let Some(a) = u.mem_addr.as_mut() {
            *a += self.displacement;
        }
        match u.kind {
            UopKind::Branch { taken, target } => {
                u.kind = UopKind::Branch {
                    taken,
                    target: target + self.displacement,
                };
            }
            UopKind::Call { target } => {
                u.kind = UopKind::Call {
                    target: target + self.displacement,
                };
            }
            UopKind::Return { target } => {
                u.kind = UopKind::Return {
                    target: target + self.displacement,
                };
            }
            _ => {}
        }
        u
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{spec, SyntheticTrace};

    fn inner() -> SyntheticTrace {
        SyntheticTrace::new(spec::profile("gzip").unwrap(), 0x1_0000_0000, 0)
    }

    #[test]
    fn pause_overlay_period() {
        let t = PauseOverlay::new(inner(), 100);
        for i in 0..1_000 {
            let is_pause = t.uop_at(i).kind == UopKind::Pause;
            assert_eq!(is_pause, i % 100 == 0, "at {i}");
        }
    }

    #[test]
    fn pause_overlay_is_pure() {
        let t = PauseOverlay::new(inner(), 37);
        for i in (0..2_000).step_by(13) {
            assert_eq!(t.uop_at(i), t.uop_at(i));
        }
    }

    #[test]
    fn relocate_shifts_all_addresses() {
        let base = inner();
        let t = RelocateOverlay::new(inner(), 0x100_0000_0000);
        for i in 0..2_000 {
            let (a, b) = (base.uop_at(i), t.uop_at(i));
            assert_eq!(b.pc - a.pc, 0x100_0000_0000);
            assert_eq!(a.kind.is_mem(), b.kind.is_mem());
            if let (Some(ma), Some(mb)) = (a.mem_addr, b.mem_addr) {
                assert_eq!(mb - ma, 0x100_0000_0000);
            }
            match (a.kind, b.kind) {
                (UopKind::Branch { target: ta, .. }, UopKind::Branch { target: tb, .. })
                | (UopKind::Call { target: ta }, UopKind::Call { target: tb })
                | (UopKind::Return { target: ta }, UopKind::Return { target: tb }) => {
                    assert_eq!(tb - ta, 0x100_0000_0000);
                }
                _ => {}
            }
        }
    }

    #[test]
    #[should_panic(expected = "room for real work")]
    fn tiny_pause_period_panics() {
        PauseOverlay::new(inner(), 1);
    }
}
