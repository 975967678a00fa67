//! A cycle-level out-of-order core and memory-hierarchy simulator with
//! Switch-on-Event (SOE) multithreading — the substrate of the
//! reproduction of *"Fairness and Throughput in Switch on Event
//! Multithreading"* (Gabor, Weiss, Mendelson; MICRO 2006).
//!
//! The simulated processor is derived from the paper's P6-style machine
//! (Table 3):
//!
//! * an in-order front end — fetch with gshare + BTB branch prediction,
//!   an iTLB and L1 instruction cache, and a depth-modelled fetch/rename
//!   pipeline,
//! * an out-of-order back end — re-order buffer, reservation stations,
//!   ALU/MUL/DIV/load/store units, store-to-load forwarding, in-order
//!   retirement,
//! * a shared memory hierarchy — L1I/L1D, a unified L2 (the last level),
//!   MSHRs allowing overlapped misses, a pipelined bus and constant
//!   300-cycle memory, plus i/d TLBs whose page walks traverse the L2,
//! * SOE thread switching — a micro-op flagged in the ROB as handling an
//!   unresolved L2 miss triggers a switch when it reaches the retirement
//!   head; switching drains the pipeline (6 cycles) and refills it,
//!   accumulating to roughly the paper's 25-cycle switch latency; caches,
//!   TLBs and predictor state are shared and survive switches.
//!
//! Thread-switch *policy* is pluggable via [`SwitchPolicy`]; the paper's
//! fairness-enforcement mechanism is implemented on top of this trait in
//! the `soe-core` crate.
//!
//! # Examples
//!
//! Plain SOE (`F = 0`) over two threads:
//!
//! ```
//! use soe_sim::{AluTrace, Machine, MachineConfig, SwitchOnEvent};
//!
//! let mut machine = Machine::new(
//!     MachineConfig::test_config(),
//!     vec![Box::new(AluTrace::new()), Box::new(AluTrace::new())],
//!     Box::new(SwitchOnEvent::new()),
//! );
//! machine.run_cycles(10_000);
//! assert!(machine.stats().total_retired() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod cancel;
pub mod config;
mod core;
mod error;
pub mod frontend;
pub mod mem;
pub mod obs;
mod stats;
mod switch;
mod trace;
mod types;
mod uop;
pub mod wake;

pub use crate::core::Machine;
pub use config::{
    CacheConfig, ConfigError, MachineConfig, PipelineConfig, PredictorConfig, PredictorKind,
    SoeConfig, TlbConfig,
};
pub use error::SimError;
pub use obs::{EventKind, SharedTracer, Trace, TraceConfig, TraceEvent, Tracer};
pub use stats::{MachineStats, ThreadStats};
pub use switch::{NeverSwitch, SwitchDecision, SwitchOnEvent, SwitchPolicy, SwitchReason};
pub use trace::{AluTrace, PatternTrace, TraceSource};
pub use types::{Addr, Cycle, InstrIndex, ThreadId};
pub use uop::{Uop, UopKind};
pub use wake::{SourceStats, WakeSource, WakeStats};
