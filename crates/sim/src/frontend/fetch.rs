//! The in-order front end: fetch, branch prediction and the fetch/decode
//! pipeline buffer.

use std::collections::VecDeque;

use crate::config::MachineConfig;
use crate::frontend::{Btb, DirectionPredictor, Ras};
use crate::mem::Hierarchy;
use crate::trace::TraceSource;
use crate::types::{Addr, Cycle, InstrIndex};
use crate::uop::Uop;

/// A fetched micro-op travelling down the front-end pipeline.
#[derive(Debug, Clone, Copy)]
pub struct FetchEntry {
    /// Dynamic stream position.
    pub index: InstrIndex,
    /// The micro-op.
    pub uop: Uop,
    /// Cycle at which the entry reaches the rename stage.
    pub ready_at: Cycle,
    /// Whether this branch was mispredicted at fetch (resolves at
    /// execute, restarting fetch after the redirect penalty).
    pub mispredicted: bool,
}

/// The fetch unit: walks the trace in order, consults the iTLB/L1I, the
/// gshare predictor and the BTB, and fills a depth-modelled pipeline
/// buffer that the rename stage drains.
///
/// Thread switches call [`FetchUnit::restart`], which squashes the buffer
/// and repoints the stream — the front-end analogue of the paper's
/// pipeline drain.
#[derive(Debug)]
pub struct FetchUnit {
    next_index: InstrIndex,
    buffer: VecDeque<FetchEntry>,
    buffer_cap: usize,
    resume_at: Cycle,
    redirect_pending: Option<InstrIndex>,
    last_line: Option<Addr>,
    width: usize,
    depth: Cycle,
    mispredict_penalty: Cycle,
    line_mask: Addr,
    ras: Ras,
}

impl FetchUnit {
    /// Creates a fetch unit for a machine with configuration `cfg`.
    pub fn new(cfg: &MachineConfig) -> Self {
        let depth = cfg.pipeline.frontend_depth;
        let width = cfg.pipeline.fetch_width;
        Self {
            next_index: 0,
            buffer: VecDeque::new(),
            buffer_cap: (depth as usize + 2) * width,
            resume_at: 0,
            redirect_pending: None,
            last_line: None,
            width,
            depth,
            mispredict_penalty: cfg.predictor.mispredict_penalty,
            line_mask: !(cfg.l1i.line_bytes as Addr - 1),
            ras: Ras::new(16),
        }
    }

    /// Squashes all in-flight fetches and restarts the stream at
    /// `start_index`, with fetch resuming at cycle `resume_at` (the end of
    /// the switch drain).
    pub fn restart(&mut self, start_index: InstrIndex, resume_at: Cycle) {
        self.next_index = start_index;
        self.buffer.clear();
        self.redirect_pending = None;
        self.last_line = None;
        self.resume_at = resume_at;
    }

    /// Notifies the front end that the branch at stream position `index`
    /// has executed; if fetch was stalled on its redirect, fetch resumes
    /// after the mispredict penalty.
    pub fn branch_executed(&mut self, index: InstrIndex, now: Cycle) {
        if self.redirect_pending == Some(index) {
            self.redirect_pending = None;
            self.resume_at = self.resume_at.max(now + self.mispredict_penalty);
            self.last_line = None;
        }
    }

    /// Earliest cycle at which fetch could make progress again (for the
    /// quiescent fast-forward); `None` when blocked on a branch
    /// resolution or a full buffer.
    pub fn next_activity(&self) -> Option<Cycle> {
        if self.redirect_pending.is_some() || self.buffer.len() >= self.buffer_cap {
            None
        } else {
            Some(self.resume_at)
        }
    }

    /// Runs one fetch cycle: appends up to `fetch_width` micro-ops to the
    /// pipeline buffer. Returns the number fetched.
    pub fn tick(
        &mut self,
        now: Cycle,
        trace: &dyn TraceSource,
        hier: &mut Hierarchy,
        predictor: &mut dyn DirectionPredictor,
        btb: &mut Btb,
    ) -> usize {
        if now < self.resume_at || self.redirect_pending.is_some() {
            return 0;
        }
        let mut fetched = 0;
        while fetched < self.width && self.buffer.len() < self.buffer_cap {
            let uop = trace.uop_at(self.next_index);
            let line = uop.pc & self.line_mask;
            if self.last_line != Some(line) {
                let t = hier.translate_instr(now, uop.pc);
                if t.complete_at > now {
                    // iTLB walk in progress: stall, retry the same uop.
                    self.resume_at = t.complete_at;
                    break;
                }
                let r = hier.access_ifetch(now, uop.pc);
                self.last_line = Some(line);
                if r.complete_at > now + 1 {
                    // I-cache miss: stall until the line arrives.
                    self.resume_at = r.complete_at;
                    break;
                }
            }
            let mut entry = FetchEntry {
                index: self.next_index,
                uop,
                ready_at: now + self.depth,
                mispredicted: false,
            };
            self.next_index += 1;
            fetched += 1;
            match uop.kind {
                crate::uop::UopKind::Call { target } => {
                    // Direct call: target known at decode, no direction to
                    // predict; push the fall-through and redirect fetch.
                    self.ras.push(uop.pc + 4);
                    btb.update(uop.pc, target);
                    self.last_line = None;
                    self.buffer.push_back(entry);
                    break;
                }
                crate::uop::UopKind::Return { target } => {
                    let predicted = self.ras.pop();
                    self.last_line = None;
                    if predicted != Some(target) {
                        // RAS mispredict: resolved at execute like a
                        // branch mispredict.
                        entry.mispredicted = true;
                        self.redirect_pending = Some(entry.index);
                        self.buffer.push_back(entry);
                        break;
                    }
                    self.buffer.push_back(entry);
                    break;
                }
                _ => {}
            }
            if let crate::uop::UopKind::Branch { taken, target } = uop.kind {
                let predicted = predictor.predict_and_train(uop.pc, taken);
                let btb_target = btb.lookup(uop.pc);
                if taken {
                    btb.update(uop.pc, target);
                }
                if predicted != taken {
                    entry.mispredicted = true;
                    self.redirect_pending = Some(entry.index);
                    self.buffer.push_back(entry);
                    break;
                }
                if taken {
                    // Correctly predicted taken: fetch redirects to the
                    // target line; a BTB miss costs one extra bubble.
                    self.last_line = None;
                    if btb_target != Some(target) {
                        self.resume_at = now + 2;
                    }
                    self.buffer.push_back(entry);
                    break;
                }
            }
            self.buffer.push_back(entry);
        }
        fetched
    }

    /// The oldest buffered micro-op, whether or not it has reached the
    /// rename stage yet (its `ready_at`).
    pub fn front(&self) -> Option<&FetchEntry> {
        self.buffer.front()
    }

    /// Pops the oldest buffered micro-op if it has reached the rename
    /// stage by cycle `now`.
    pub fn pop_ready(&mut self, now: Cycle) -> Option<FetchEntry> {
        if self.buffer.front().is_some_and(|e| e.ready_at <= now) {
            self.buffer.pop_front()
        } else {
            None
        }
    }

    /// Peeks at the oldest buffered micro-op without consuming it.
    pub fn peek_ready(&self, now: Cycle) -> Option<&FetchEntry> {
        self.buffer.front().filter(|e| e.ready_at <= now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::Gshare;
    use crate::trace::AluTrace;
    use crate::uop::{Uop, UopKind};
    use crate::PatternTrace;

    fn setup() -> (FetchUnit, Hierarchy, Gshare, Btb, MachineConfig) {
        let cfg = MachineConfig::test_config();
        (
            FetchUnit::new(&cfg),
            Hierarchy::new(&cfg),
            Gshare::new(cfg.predictor),
            Btb::new(cfg.predictor.btb_entries),
            cfg,
        )
    }

    /// Ticks through cold-start stalls (iTLB walk, I-cache miss) until a
    /// fetch cycle makes progress; returns (cycle, uops fetched).
    fn tick_until_progress(
        f: &mut FetchUnit,
        t: &dyn TraceSource,
        h: &mut Hierarchy,
        p: &mut Gshare,
        b: &mut Btb,
    ) -> (Cycle, usize) {
        let mut now = 0;
        for _ in 0..10 {
            let n = f.tick(now, t, h, p, b);
            if n > 0 {
                return (now, n);
            }
            now = f.next_activity().expect("fetch must have a resume point");
        }
        panic!("fetch made no progress after repeated stalls");
    }

    #[test]
    fn first_fetch_stalls_on_cold_icache() {
        let (mut f, mut h, mut p, mut b, _) = setup();
        let t = AluTrace::new();
        let n = f.tick(0, &t, &mut h, &mut p, &mut b);
        assert_eq!(n, 0, "cold I-cache miss blocks the first fetch");
        assert!(f.next_activity().unwrap() > 0);
    }

    #[test]
    fn warm_fetch_delivers_full_width() {
        let (mut f, mut h, mut p, mut b, cfg) = setup();
        let t = AluTrace::new();
        let (_, n) = tick_until_progress(&mut f, &t, &mut h, &mut p, &mut b);
        assert_eq!(n, cfg.pipeline.fetch_width);
    }

    #[test]
    fn entries_become_ready_after_depth() {
        let (mut f, mut h, mut p, mut b, cfg) = setup();
        let t = AluTrace::new();
        let (at, _) = tick_until_progress(&mut f, &t, &mut h, &mut p, &mut b);
        assert!(f.pop_ready(at).is_none(), "not ready before depth");
        let e = f
            .pop_ready(at + cfg.pipeline.frontend_depth)
            .expect("ready after depth");
        assert_eq!(e.index, 0);
    }

    #[test]
    fn mispredicted_branch_stalls_until_resolved() {
        let (mut f, mut h, mut p, mut b, _) = setup();
        // An always-taken branch the cold predictor gets wrong.
        let t = PatternTrace::new(
            "br",
            vec![Uop::new(
                UopKind::Branch {
                    taken: true,
                    target: 0x40,
                },
                0x40,
            )],
        );
        let (at, _) = tick_until_progress(&mut f, &t, &mut h, &mut p, &mut b);
        assert_eq!(f.redirect_pending, Some(0));
        assert_eq!(
            f.tick(at + 1, &t, &mut h, &mut p, &mut b),
            0,
            "stalled on redirect"
        );
        f.branch_executed(0, at + 5);
        assert!(f.redirect_pending.is_none());
        assert!(f.next_activity().unwrap() >= at + 5 + 14);
    }

    #[test]
    fn restart_squashes_buffer() {
        let (mut f, mut h, mut p, mut b, _) = setup();
        let t = AluTrace::new();
        let (at, _) = tick_until_progress(&mut f, &t, &mut h, &mut p, &mut b);
        assert!(!f.buffer.is_empty());
        f.restart(100, at + 6);
        assert!(f.buffer.is_empty());
        assert_eq!(f.next_index, 100);
        assert_eq!(f.tick(at, &t, &mut h, &mut p, &mut b), 0, "drain stall");
    }
}
