//! Cooperative cancellation: a per-thread stop check that
//! [`Machine::try_run_cycles`] polls, so a supervisor can stop a run
//! on the thread that runs it.
//!
//! The check is installed for the duration of one closure with
//! [`with_stop`] and is visible only to the installing thread. Polling
//! reads and writes no machine state, so a run that is not stopped is
//! bit-identical to one with no check installed; a stopped run returns
//! [`SimError::Cancelled`] and no result.
//!
//! [`Machine::try_run_cycles`]: crate::Machine::try_run_cycles
//! [`SimError::Cancelled`]: crate::SimError::Cancelled

use std::cell::Cell;
use std::rc::Rc;

use crate::types::Cycle;

/// Simulated cycles between two polls of the stop check: a run polls
/// each time `now` crosses a multiple of this, jumps included.
pub const POLL_CYCLES: Cycle = 1 << 16;

type Check = Option<Rc<dyn Fn() -> bool>>;

thread_local! {
    static STOP: Cell<Check> = const { Cell::new(None) };
}

/// Runs `f` with `check` as this thread's stop check, restoring the
/// previous check when `f` returns or unwinds.
pub fn with_stop<R>(check: impl Fn() -> bool + 'static, f: impl FnOnce() -> R) -> R {
    struct Restore(Check);
    impl Drop for Restore {
        fn drop(&mut self) {
            STOP.with(|s| s.set(self.0.take()));
        }
    }
    let _restore = Restore(STOP.with(|s| s.replace(Some(Rc::new(check)))));
    f()
}

/// Whether this thread's stop check fires; `false` when none is
/// installed.
pub fn requested() -> bool {
    let check = STOP.with(|s| {
        let check = s.take();
        s.set(check.clone());
        check
    });
    check.is_some_and(|check| check())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn previous_check_is_restored_after_return_and_unwind() {
        assert!(!requested(), "no check installed");
        with_stop(
            || true,
            || {
                assert!(with_stop(|| false, || !requested()));
                assert!(requested(), "restored after a normal return");
                let unwound = std::panic::catch_unwind(|| {
                    with_stop(|| false, || panic!("unwinds through with_stop"))
                });
                assert!(unwound.is_err());
                assert!(requested(), "restored after a panic unwound");
            },
        );
        assert!(!requested(), "no check once the outermost returns");
    }
}
