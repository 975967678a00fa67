//! The evaluation pairings: 16 two-thread combinations (8 mixed, 8
//! same-benchmark), mirroring Section 4.1 of the paper.

use soe_sim::{Addr, TraceSource};

use crate::checkpoint::Checkpoint;
use crate::gen::SyntheticTrace;
use crate::spec;

/// Stream offset applied to the second thread when both threads run the
/// same benchmark (the paper offsets them by one million instructions).
pub const SAME_BENCH_OFFSET: u64 = 1_000_000;

/// Address-space stride between hardware threads.
pub const THREAD_BASE_STRIDE: Addr = 0x10_0000_0000;

/// One two-thread combination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pair {
    /// Benchmark on thread 0.
    pub a: &'static str,
    /// Benchmark on thread 1.
    pub b: &'static str,
}

impl Pair {
    /// `"a:b"` — the paper's pair notation.
    pub fn label(&self) -> String {
        format!("{}:{}", self.a, self.b)
    }

    /// Whether both threads run the same benchmark.
    pub fn is_same(&self) -> bool {
        self.a == self.b
    }

    /// Builds the two trace sources: disjoint address spaces, and the
    /// 1M-instruction offset for same-benchmark pairs.
    ///
    /// # Panics
    ///
    /// Panics if either name is unknown.
    pub fn traces(&self) -> (SyntheticTrace, SyntheticTrace) {
        // soe-lint: allow(panic-reachability): documented panicking API; pairs are built from spec::NAMES (paper_pairs) or compile-time literals
        let pa = spec::profile(self.a).unwrap_or_else(|| panic!("unknown benchmark {}", self.a));
        // soe-lint: allow(panic-reachability): same documented contract as the line above
        let pb = spec::profile(self.b).unwrap_or_else(|| panic!("unknown benchmark {}", self.b));
        let offset = if self.is_same() { SAME_BENCH_OFFSET } else { 0 };
        (
            SyntheticTrace::new(pa, THREAD_BASE_STRIDE, 0),
            SyntheticTrace::new(pb, 2 * THREAD_BASE_STRIDE, offset),
        )
    }

    /// The traces as boxed [`TraceSource`]s, ready for the machine.
    pub fn boxed_traces(&self) -> Vec<Box<dyn TraceSource>> {
        let (a, b) = self.traces();
        vec![Box::new(a), Box::new(b)]
    }
}

/// The starting checkpoint of every thread in an N-thread group: each
/// thread gets its own address space, and the k-th duplicate of a
/// benchmark is offset by `k × SAME_BENCH_OFFSET` instructions
/// (generalizing the paper's two-thread offset rule).
///
/// This is the group's identity without its generator tables: cheap
/// enough to key a memo on.
///
/// # Panics
///
/// Panics if `names` is empty or contains an unknown benchmark.
pub fn group_checkpoints(names: &[&str]) -> Vec<Checkpoint> {
    assert!(!names.is_empty(), "need at least one thread");
    names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            // soe-lint: allow(panic-reachability): documented panicking API; scenario rosters are validated against spec::profile by the request check before dispatch
            let profile = spec::profile(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
            // soe-lint: allow(panic-reachability): i comes from enumerate(), so the prefix slice is in bounds
            let duplicates_before = names[..i].iter().filter(|n| *n == name).count() as u64;
            Checkpoint {
                profile,
                position: duplicates_before * SAME_BENCH_OFFSET,
                base: (i as Addr + 1) * THREAD_BASE_STRIDE,
            }
        })
        .collect()
}

/// Builds the trace sources for an N-thread group, each resumed from
/// its [`group_checkpoints`] entry.
///
/// # Panics
///
/// Panics if `names` is empty or contains an unknown benchmark.
pub fn group_traces(names: &[&str]) -> Vec<SyntheticTrace> {
    group_checkpoints(names)
        .into_iter()
        .map(Checkpoint::into_trace)
        .collect()
}

/// The 16 combinations used throughout the evaluation figures: 8 mixed
/// pairs spanning fair to extremely unfair behaviour, and 8 same-benchmark
/// pairs.
pub fn paper_pairs() -> Vec<Pair> {
    let mixed = [
        ("gcc", "eon"),
        ("galgel", "gcc"),
        ("apsi", "swim"),
        ("lucas", "applu"),
        ("mcf", "gzip"),
        ("art", "eon"),
        ("swim", "bzip2"),
        ("mcf", "mgrid"),
    ];
    let same = [
        "gcc", "eon", "bzip2", "mgrid", "swim", "mcf", "applu", "art",
    ];
    mixed
        .into_iter()
        .map(|(a, b)| Pair { a, b })
        .chain(same.into_iter().map(|n| Pair { a: n, b: n }))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_pairs_half_same() {
        let pairs = paper_pairs();
        assert_eq!(pairs.len(), 16);
        assert_eq!(pairs.iter().filter(|p| p.is_same()).count(), 8);
    }

    #[test]
    fn all_pair_benchmarks_resolve() {
        for p in paper_pairs() {
            let (a, b) = p.traces();
            assert_eq!(a.profile().name, p.a);
            assert_eq!(b.profile().name, p.b);
        }
    }

    #[test]
    fn same_pairs_are_offset() {
        let p = Pair { a: "gcc", b: "gcc" };
        let (_, b) = p.traces();
        assert_eq!(b.offset(), SAME_BENCH_OFFSET);
        let q = Pair { a: "gcc", b: "eon" };
        let (_, b) = q.traces();
        assert_eq!(b.offset(), 0);
    }

    #[test]
    fn address_spaces_are_disjoint() {
        let p = Pair { a: "mcf", b: "mcf" };
        let (a, b) = p.traces();
        assert_ne!(a.base(), b.base());
    }

    #[test]
    fn labels_use_colon_notation() {
        assert_eq!(Pair { a: "gcc", b: "eon" }.label(), "gcc:eon");
    }

    #[test]
    fn group_traces_stride_bases_and_offset_duplicates() {
        let g = group_traces(&["swim", "gcc", "swim", "swim"]);
        assert_eq!(g.len(), 4);
        let bases: Vec<u64> = g.iter().map(|t| t.base()).collect();
        let mut unique = bases.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 4, "address spaces must be disjoint");
        assert_eq!(g[0].offset(), 0);
        assert_eq!(g[2].offset(), SAME_BENCH_OFFSET);
        assert_eq!(g[3].offset(), 2 * SAME_BENCH_OFFSET);
        assert_eq!(g[1].offset(), 0, "first gcc instance is unshifted");
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn empty_group_panics() {
        group_traces(&[]);
    }

    #[test]
    #[should_panic(expected = "unknown benchmark")]
    fn unknown_pair_panics() {
        Pair {
            a: "nope",
            b: "gcc",
        }
        .traces();
    }
}
