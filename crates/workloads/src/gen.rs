//! The synthetic trace generator: a pure function from `(profile,
//! position)` to micro-ops.

use soe_sim::{Addr, InstrIndex, TraceSource, Uop, UopKind};

use crate::fastdiv::FastDiv;
use crate::hash::{mix, unit, GeometricTable};
use crate::profile::Profile;

// Salts for the independent random streams.
const SALT_KIND: u64 = 1;
const SALT_REGION: u64 = 2;
const SALT_HOT: u64 = 3;
const SALT_WARM: u64 = 4;
const SALT_DEP1: u64 = 5;
const SALT_DEP2: u64 = 6;
const SALT_DEP2_PRESENT: u64 = 7;
const SALT_BR_CLASS: u64 = 8;
const SALT_BR_RANDOM: u64 = 9;
const SALT_CODE: u64 = 10;
const SALT_OFFSET: u64 = 11;
const SALT_STORE_REGION: u64 = 12;
const SALT_BR_BIAS: u64 = 13;
const SALT_CALL_BLOCK: u64 = 14;
const SALT_LEAF: u64 = 15;

// Address-space layout within one thread's base (regions are far apart so
// they never alias).
const CODE_REGION: Addr = 0x0000_0000;
const HOT_REGION: Addr = 0x1000_0000;
const WARM_REGION: Addr = 0x2000_0000;
const COLD_REGION: Addr = 0x4000_0000;
const COLD_STORE_REGION: Addr = 0x6000_0000;
const LINE: Addr = 64;

/// A replayable synthetic micro-op stream generated from a [`Profile`].
///
/// Every micro-op is a pure function of the dynamic position, so the
/// simulator can squash and replay arbitrarily (thread switches, branch
/// redirects) — the role the paper's LIT checkpoints play.
///
/// `base` relocates the whole address space (distinct per hardware
/// thread: co-scheduled threads share caches by capacity, not by
/// aliasing); `offset` shifts the stream position (the paper offsets
/// same-benchmark pairs by one million instructions).
///
/// # Examples
///
/// ```
/// use soe_sim::TraceSource;
/// use soe_workloads::{spec, SyntheticTrace};
///
/// let profile = spec::profile("gcc").expect("gcc is a known profile");
/// let t = SyntheticTrace::new(profile, 0x1_0000_0000, 0);
/// let u = t.uop_at(42);
/// assert_eq!(u, t.uop_at(42)); // pure in the position
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticTrace {
    profile: Profile,
    base: Addr,
    offset: InstrIndex,
    /// One dependency-distance inversion table per phase (a single
    /// entry for stationary profiles), indexed by the phase index from
    /// [`SyntheticTrace::phase_of`]. Built once at construction;
    /// bit-exact with the closed-form draw the generator used to make
    /// per micro-op.
    dep_tables: Vec<GeometricTable>,
    /// Precomputed reciprocals for every profile constant the per-uop
    /// path divides by — each [`FastDiv`] is exact, so the generated
    /// stream is bit-identical to the hardware-division form.
    div_block: FastDiv,
    div_code: FastDiv,
    div_span: FastDiv,
    div_hot: FastDiv,
    div_warm: FastDiv,
    div_leaves: FastDiv,
    /// Reciprocal of the phase-cycle length (`None` when stationary).
    div_phase_cycle: Option<FastDiv>,
}

impl SyntheticTrace {
    /// Creates a trace for `profile`, with its address space at `base`
    /// and the stream shifted by `offset` instructions.
    ///
    /// # Panics
    ///
    /// Panics if the profile is invalid (see [`Profile::validate`]).
    pub fn new(profile: Profile, base: Addr, offset: InstrIndex) -> Self {
        profile.validate();
        let dep_tables = if profile.phases.is_empty() {
            vec![GeometricTable::new(profile.mean_dep_dist.max(1.0))]
        } else {
            profile
                .phases
                .iter()
                .map(|ph| GeometricTable::new((profile.mean_dep_dist * ph.ilp_scale).max(1.0)))
                .collect()
        };
        let div_block = FastDiv::new(profile.block_len);
        let div_code = FastDiv::new(profile.code_lines);
        let div_span = FastDiv::new(profile.code_lines * LINE);
        let div_hot = FastDiv::new(profile.mem.hot_lines);
        let div_warm = FastDiv::new(profile.mem.warm_lines);
        let div_leaves = FastDiv::new((profile.code_lines / 8).max(1));
        let div_phase_cycle = profile.phase_cycle().map(FastDiv::new);
        Self {
            profile,
            base,
            offset,
            dep_tables,
            div_block,
            div_code,
            div_span,
            div_hot,
            div_warm,
            div_leaves,
            div_phase_cycle,
        }
    }

    /// The phase state the per-uop path needs at position `i`, in one
    /// walk: `(miss_scale, phase index)`.
    fn phase_of(&self, i: InstrIndex) -> (f64, usize) {
        let Some(cycle) = self.div_phase_cycle else {
            return (1.0, 0);
        };
        let mut pos = cycle.rem(i);
        for (k, p) in self.profile.phases.iter().enumerate() {
            if pos < p.len_instrs {
                return (p.miss_scale, k);
            }
            pos -= p.len_instrs;
        }
        // soe-lint: allow(panic-reachability): pos < cycle = Σ len_instrs, so one phase must absorb it
        unreachable!("phase walk covers the cycle")
    }

    /// The underlying profile.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// The stream offset.
    pub fn offset(&self) -> InstrIndex {
        self.offset
    }

    /// The address-space base.
    pub fn base(&self) -> Addr {
        self.base
    }

    fn block_start_pc(&self, block: u64) -> Addr {
        let p = &self.profile;
        // The control-flow path loops every `code_lines` blocks: real
        // programs re-execute the same paths, which is what makes branch
        // prediction and the I-cache work. Within the loop, block starts
        // are scattered pseudo-randomly over the code footprint.
        let slot = self.div_code.rem(block);
        let line = self.div_code.rem(mix(p.seed, slot, SALT_CODE));
        self.base + CODE_REGION + line * LINE
    }

    fn pc_of(&self, block: u64, within: u64) -> Addr {
        let start = self.block_start_pc(block);
        // Straight-line code: 4 bytes per micro-op from the block start,
        // wrapped into the code footprint.
        self.base
            + CODE_REGION
            + self
                .div_span
                .rem(start - self.base - CODE_REGION + within * 4)
    }

    fn data_addr(&self, i: InstrIndex, is_store: bool, miss_scale: f64) -> Addr {
        let p = &self.profile;
        let cold_prob = if is_store {
            p.mem.cold_store_prob
        } else {
            p.mem.cold_load_prob * miss_scale
        };
        let salt = if is_store {
            SALT_STORE_REGION
        } else {
            SALT_REGION
        };
        let r = unit(p.seed, i, salt);
        if r < cold_prob {
            // Streaming: the cold region is walked line by line, one line
            // per cold access on average (a 64-byte-stride stream, like a
            // large array traversal). The ordinal is derived from the
            // expected cold-access rate so the stream is a pure function
            // of the position yet advances densely — keeping the page
            // working set small (TLB-friendly) while every access still
            // touches a fresh line.
            let (rate, region) = if is_store {
                (p.mix.store * cold_prob, COLD_STORE_REGION)
            } else {
                (p.mix.load * cold_prob, COLD_REGION)
            };
            // Four lines per rate bucket, sub-selected by hash: keeps the
            // stream page-dense while making collisions between nearby
            // cold accesses rare.
            let bucket = (i as f64 * rate) as u64;
            let ordinal = bucket * 4 + (mix(p.seed, i, SALT_OFFSET) & 3);
            return self.base + region + (ordinal % 0x40_0000) * LINE;
        }
        let offset = (mix(p.seed, i, SALT_OFFSET) % (LINE / 4)) * 4;
        if (r - cold_prob) / (1.0 - cold_prob).max(1e-12) < p.mem.warm_load_prob {
            let line = self.div_warm.rem(mix(p.seed, i, SALT_WARM));
            self.base + WARM_REGION + line * LINE + offset
        } else {
            let line = self.div_hot.rem(mix(p.seed, i, SALT_HOT));
            self.base + HOT_REGION + line * LINE + offset
        }
    }

    fn deps(&self, i: InstrIndex, phase: usize) -> [u32; 2] {
        let p = &self.profile;
        // soe-lint: allow(slice-index): one table per phase is built at construction and phase indices come from phase_of
        let table = &self.dep_tables[phase];
        let d1 = table.sample(mix(p.seed, i, SALT_DEP1)) as u32;
        let d2 = if unit(p.seed, i, SALT_DEP2_PRESENT) < 0.4 {
            table.sample(mix(p.seed, i, SALT_DEP2)) as u32
        } else {
            0
        };
        [d1, d2]
    }

    fn branch_uop(&self, i: InstrIndex, block: u64, pc: Addr) -> Uop {
        let p = &self.profile;
        let target = self.block_start_pc(block + 1);
        // Whether a branch is well-behaved is a property of the *static*
        // branch (its PC), not of the dynamic instance: predictable
        // branches always resolve the same way (trivially learnable),
        // while the `1 - predictability` fraction of data-dependent
        // branches flip randomly per instance (≈50 % mispredicted).
        // Hash the base-relative PC so relocating the thread (each
        // hardware context gets its own address space) does not change
        // the program's branch behaviour.
        let rel_pc = pc - self.base;
        let taken = if unit(p.seed, rel_pc, SALT_BR_CLASS) < p.branch_predictability {
            mix(p.seed, rel_pc, SALT_BR_BIAS) & 1 == 1
        } else {
            mix(p.seed, i, SALT_BR_RANDOM) & 1 == 1
        };
        Uop::new(UopKind::Branch { taken, target }, pc).with_deps(1, 0)
    }
}

impl SyntheticTrace {
    /// Whether the (static, path-looping) block calls a leaf function.
    fn is_calling_block(&self, block: u64) -> bool {
        let p = &self.profile;
        if p.call_block_frac == 0.0 {
            return false;
        }
        let slot = self.div_code.rem(block);
        unit(p.seed, slot, SALT_CALL_BLOCK) < p.call_block_frac
    }

    /// Entry address of the leaf function a calling block targets — in a
    /// dedicated function region behind the main code footprint, shared
    /// by `code_lines / 8` distinct leaves.
    fn leaf_pc(&self, block: u64) -> Addr {
        let p = &self.profile;
        let slot = self.div_code.rem(block);
        let leaf = self.div_leaves.rem(mix(p.seed, slot, SALT_LEAF));
        self.base + CODE_REGION + (p.code_lines + leaf * 2) * LINE
    }

    /// An ordinary (non-control) micro-op at an explicit `pc`.
    fn plain_uop(&self, i: InstrIndex, pc: Addr, miss_scale: f64, phase: usize) -> Uop {
        let p = &self.profile;
        let r = unit(p.seed, i, SALT_KIND);
        let [d1, d2] = self.deps(i, phase);
        let m = &p.mix;
        if r < m.load {
            Uop::new(UopKind::Load, pc)
                .with_mem(self.data_addr(i, false, miss_scale))
                .with_deps(d1, 0)
        } else if r < m.load + m.store {
            Uop::new(UopKind::Store, pc)
                .with_mem(self.data_addr(i, true, miss_scale))
                .with_deps(d1, d2)
        } else if r < m.load + m.store + m.mul {
            Uop::new(UopKind::Mul, pc).with_deps(d1, d2)
        } else if r < m.load + m.store + m.mul + m.div {
            Uop::new(UopKind::Div, pc).with_deps(d1, d2)
        } else {
            Uop::new(UopKind::Alu, pc).with_deps(d1, d2)
        }
    }

    /// Layout of a calling block: prefix, `call leaf`, leaf body,
    /// `return` (to the call's fall-through), fall-through suffix.
    fn calling_block_uop(
        &self,
        i: InstrIndex,
        block: u64,
        within: u64,
        miss_scale: f64,
        phase: usize,
    ) -> Uop {
        let p = &self.profile;
        let base = self.block_start_pc(block);
        let call_at = p.block_len / 2 - 1;
        let call_pc = base + call_at * 4;
        let leaf = self.leaf_pc(block);
        if within < call_at {
            self.plain_uop(i, base + within * 4, miss_scale, phase)
        } else if within == call_at {
            Uop::new(UopKind::Call { target: leaf }, call_pc)
        } else if within == p.block_len - 2 {
            let body_len = p.block_len - 2 - call_at - 1;
            Uop::new(
                UopKind::Return {
                    target: call_pc + 4,
                },
                leaf + body_len * 4,
            )
            .with_deps(1, 0)
        } else if within == p.block_len - 1 {
            // Fall-through after the return.
            self.plain_uop(i, call_pc + 4, miss_scale, phase)
        } else {
            // Leaf body.
            self.plain_uop(i, leaf + (within - call_at - 1) * 4, miss_scale, phase)
        }
    }
}

impl TraceSource for SyntheticTrace {
    fn uop_at(&self, index: InstrIndex) -> Uop {
        let i = index + self.offset;
        let p = &self.profile;
        let (miss_scale, phase) = self.phase_of(i);
        let (block, within) = self.div_block.div_rem(i);

        if self.is_calling_block(block) {
            return self.calling_block_uop(i, block, within, miss_scale, phase);
        }

        let pc = self.pc_of(block, within);
        // Every non-calling block ends with a branch.
        if within == p.block_len - 1 {
            return self.branch_uop(i, block, pc);
        }
        self.plain_uop(i, pc, miss_scale, phase)
    }

    fn name(&self) -> &str {
        &self.profile.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    fn trace(name: &str) -> SyntheticTrace {
        SyntheticTrace::new(spec::profile(name).unwrap(), 0x1_0000_0000, 0)
    }

    #[test]
    fn purity_under_replay() {
        let t = trace("gcc");
        for i in (0..10_000).step_by(97) {
            assert_eq!(t.uop_at(i), t.uop_at(i));
        }
    }

    #[test]
    fn offset_shifts_the_stream() {
        let a = trace("gcc");
        let b = SyntheticTrace::new(spec::profile("gcc").unwrap(), 0x1_0000_0000, 1_000_000);
        assert_eq!(a.uop_at(1_000_123), b.uop_at(123));
    }

    #[test]
    fn base_only_relocates_never_changes_behaviour() {
        // Two copies of the same program in different address spaces must
        // execute identically: same kinds, same dependences, same branch
        // outcomes — only the addresses shift.
        let a = SyntheticTrace::new(spec::profile("bzip2").unwrap(), 0x1_0000_0000, 0);
        let b = SyntheticTrace::new(spec::profile("bzip2").unwrap(), 0x9_0000_0000, 0);
        for i in 0..20_000 {
            let (ua, ub) = (a.uop_at(i), b.uop_at(i));
            assert_eq!(ua.src_dist, ub.src_dist);
            match (ua.kind, ub.kind) {
                (
                    UopKind::Branch {
                        taken: ta,
                        target: tga,
                    },
                    UopKind::Branch {
                        taken: tb,
                        target: tgb,
                    },
                ) => {
                    assert_eq!(ta, tb, "branch outcome changed with base at {i}");
                    assert_eq!(tgb - tga, 0x8_0000_0000);
                }
                (UopKind::Call { target: tga }, UopKind::Call { target: tgb })
                | (UopKind::Return { target: tga }, UopKind::Return { target: tgb }) => {
                    assert_eq!(tgb - tga, 0x8_0000_0000);
                }
                (ka, kb) => assert_eq!(ka, kb),
            }
        }
    }

    #[test]
    fn base_relocates_addresses() {
        let a = SyntheticTrace::new(spec::profile("swim").unwrap(), 0x1_0000_0000, 0);
        let b = SyntheticTrace::new(spec::profile("swim").unwrap(), 0x9_0000_0000, 0);
        for i in 0..1_000 {
            let (ua, ub) = (a.uop_at(i), b.uop_at(i));
            if let (Some(ma), Some(mb)) = (ua.mem_addr, ub.mem_addr) {
                assert_eq!(mb - ma, 0x8_0000_0000);
            }
            assert_eq!(ub.pc - ua.pc, 0x8_0000_0000);
        }
    }

    #[test]
    fn instruction_mix_matches_profile() {
        let t = trace("gcc");
        let p = t.profile().clone();
        let n = 200_000u64;
        let (mut loads, mut stores, mut branches) = (0u64, 0u64, 0u64);
        for i in 0..n {
            match t.uop_at(i).kind {
                UopKind::Load => loads += 1,
                UopKind::Store => stores += 1,
                UopKind::Branch { .. } => branches += 1,
                _ => {}
            }
        }
        // Calling blocks replace their end branch with a call/return
        // pair, so the branch fraction shrinks by the call fraction.
        let bl = p.block_len as f64;
        let control = (1.0 - p.call_block_frac) / bl + p.call_block_frac * 2.0 / bl;
        let non_control = 1.0 - control;
        let lf = loads as f64 / n as f64;
        let sf = stores as f64 / n as f64;
        let bf = branches as f64 / n as f64;
        assert!(
            (lf - p.mix.load * non_control).abs() < 0.02,
            "load frac {lf}"
        );
        assert!(
            (sf - p.mix.store * non_control).abs() < 0.02,
            "store frac {sf}"
        );
        let expect_bf = (1.0 - p.call_block_frac) / bl;
        assert!(
            (bf - expect_bf).abs() < 0.01,
            "branch frac {bf} vs {expect_bf}"
        );
    }

    #[test]
    fn cold_line_rate_tracks_target_ipm() {
        let t = trace("swim");
        let p = t.profile().clone();
        let n = 500_000u64;
        let cold_base = 0x1_0000_0000u64 + COLD_REGION;
        let cold = (0..n)
            .filter(|i| {
                t.uop_at(*i)
                    .mem_addr
                    .is_some_and(|a| a >= cold_base && t.uop_at(*i).kind == UopKind::Load)
            })
            .count() as f64;
        let measured_ipm = n as f64 / cold;
        let target = p.target_ipm();
        assert!(
            (measured_ipm / target - 1.0).abs() < 0.2,
            "measured IPM {measured_ipm} vs target {target}"
        );
    }

    #[test]
    fn cold_addresses_stream_through_mostly_distinct_lines() {
        let t = trace("mcf");
        let cold_base = 0x1_0000_0000u64 + COLD_REGION;
        let cold_store_base = 0x1_0000_0000u64 + COLD_STORE_REGION;
        let mut seen = std::collections::HashSet::new();
        let mut total = 0u64;
        for i in 0..100_000 {
            let u = t.uop_at(i);
            if u.kind == UopKind::Load {
                if let Some(a) = u.mem_addr {
                    if (cold_base..cold_store_base).contains(&a) {
                        total += 1;
                        seen.insert(a / 64);
                    }
                }
            }
        }
        assert!(seen.len() > 100, "mcf must have plenty of cold lines");
        // The rate-derived ordinal occasionally collides; the stream must
        // still be almost entirely fresh lines.
        assert!(
            seen.len() as f64 > total as f64 * 0.6,
            "{} distinct of {total} cold accesses",
            seen.len()
        );
        // And the pages touched advance densely: the page working set of
        // the stream stays small.
        let pages: std::collections::HashSet<u64> = seen.iter().map(|l| l / 64).collect();
        assert!(
            pages.len() <= seen.len() / 8,
            "cold stream must be page-dense: {} pages for {} lines",
            pages.len(),
            seen.len()
        );
    }

    #[test]
    fn code_stays_in_footprint() {
        let t = trace("eon");
        let p = t.profile().clone();
        // Main code plus the leaf-function region (2 lines per leaf).
        let leaves = (p.code_lines / 8).max(1);
        let span = (p.code_lines + leaves * 2) * 64;
        for i in 0..50_000 {
            let pc = t.uop_at(i).pc - 0x1_0000_0000;
            assert!(pc < span, "pc {pc:#x} outside code footprint {span:#x}");
        }
    }

    #[test]
    fn phased_profile_varies_miss_rate() {
        let t = trace("gcc");
        let p = t.profile().clone();
        assert!(p.phase_cycle().is_some(), "gcc is phased");
        // Count cold loads in the first vs second phase of the cycle.
        let cold_base = 0x1_0000_0000u64 + COLD_REGION;
        let count_cold = |from: u64, len: u64| {
            (from..from + len)
                .filter(|i| {
                    let u = t.uop_at(*i);
                    u.kind == UopKind::Load && u.mem_addr.is_some_and(|a| a >= cold_base)
                })
                .count()
        };
        let p0 = p.phases[0].len_instrs;
        let p1 = p.phases[1].len_instrs;
        let hi = count_cold(0, p0.min(400_000));
        let lo = count_cold(p0, p1.min(400_000));
        // Phase 0 of gcc is the missy one (scales differ by design).
        assert_ne!(hi, lo, "phases must differ in miss rate");
    }
}
