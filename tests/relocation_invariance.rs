//! Relocation invariance of single-thread runs: moving a thread to
//! another address-space slot leaves its `SingleRun` byte-identical.
//!
//! `soe-serve`'s reference cache keys a single-thread reference without
//! its slot, and the figure matrix gives the slot-2 thread of every
//! mixed pair the reference it measured in slot 1. Both are exact only
//! while this holds.
//!
//! # Precondition
//!
//! Slot bases are multiples of [`THREAD_BASE_STRIDE`] (2^36), and a
//! single-thread run reads an address only through
//! - its low bits, which index cache sets, the PHT and the BTB. A
//!   page-table entry sits at `PAGE_TABLE_BASE + vpn × 8`, so its L2 set
//!   reads address bits up to `page_bits − 3 + log2(line × sets)`: below
//!   2^26 on the default machine and below 2^28 on every machine here;
//! - equality of tags, page numbers (the TLBs are fully associative) and
//!   line addresses, which a common offset preserves;
//! - the generator's hashes, which take base-relative addresses.
//!
//! An address-hashing change that folds bits at or above the stride into
//! any of these (an XOR-folded set index, a hashed BTB tag, a generator
//! keyed on absolute addresses) breaks this test, and with it the
//! reference cache's key.

use soe_core::runner::{try_run_single, RunConfig};
use soe_sim::{Addr, CacheConfig, MachineConfig, PredictorConfig, PredictorKind, TlbConfig};
use soe_workloads::pairs::{SAME_BENCH_OFFSET, THREAD_BASE_STRIDE};
use soe_workloads::{spec, SyntheticTrace};

/// Slots 1 and 2 are every pair's; 8 is the protocol's largest roster.
const SLOTS: [Addr; 3] = [1, 2, 8];

/// Micro windows: long enough to fill the caches and predictors.
fn micro(machine: MachineConfig) -> RunConfig {
    let mut cfg = RunConfig::quick();
    cfg.machine = machine;
    cfg.warmup_cycles = 20_000;
    cfg.measure_cycles = 60_000;
    cfg
}

/// Runs every benchmark at both stream positions in every slot of
/// [`SLOTS`] and requires the serialised `SingleRun`s to agree.
fn assert_relocation_invariant(machine: MachineConfig) {
    machine.check().expect("a machine the runner accepts");
    let cfg = micro(machine);
    for name in spec::NAMES {
        let profile = spec::profile(name).expect("a registered benchmark");
        for position in [0, SAME_BENCH_OFFSET] {
            let runs: Vec<String> = SLOTS
                .iter()
                .map(|slot| {
                    let base = slot * THREAD_BASE_STRIDE;
                    let trace = SyntheticTrace::new(profile.clone(), base, position);
                    let single = try_run_single(Box::new(trace), &cfg).expect("a clean run");
                    serde_json::to_string(&single).expect("a serialisable SingleRun")
                })
                .collect();
            for (slot, run) in SLOTS.iter().zip(&runs).skip(1) {
                assert_eq!(
                    run, &runs[0],
                    "{name} at position {position}: slot {slot} differs from slot {}",
                    SLOTS[0]
                );
            }
        }
    }
}

#[test]
fn default_machine_single_runs_are_relocation_invariant() {
    assert_relocation_invariant(MachineConfig::default());
}

#[test]
fn small_test_machine_single_runs_are_relocation_invariant() {
    assert_relocation_invariant(MachineConfig::test_config());
}

#[test]
fn prefetching_tournament_machine_single_runs_are_relocation_invariant() {
    let base = MachineConfig::default();
    assert_relocation_invariant(MachineConfig {
        l2_prefetch_degree: 4,
        predictor: PredictorConfig {
            kind: PredictorKind::Tournament,
            ..base.predictor
        },
        ..base
    });
}

#[test]
fn bimodal_large_page_machine_single_runs_are_relocation_invariant() {
    let base = MachineConfig::default();
    assert_relocation_invariant(MachineConfig {
        predictor: PredictorConfig {
            kind: PredictorKind::Bimodal,
            ..base.predictor
        },
        itlb: TlbConfig {
            page_bits: 13,
            ..base.itlb
        },
        dtlb: TlbConfig {
            page_bits: 13,
            ..base.dtlb
        },
        l2: CacheConfig {
            sets: 4096,
            ..base.l2
        },
        store_drain_interval: 2,
        ..base
    });
}
