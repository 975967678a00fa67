//! Miss status holding registers — outstanding-miss tracking that enables
//! overlapped (clustered) cache misses.

use crate::types::{Addr, Cycle};

/// Tracks in-flight line fills for one cache level.
///
/// A second miss to a line that is already being fetched *coalesces*: it
/// completes when the original fill arrives and does not issue a new
/// request. This is the behaviour behind the paper's note that only the
/// first miss of each overlapped group is counted.
///
/// Entries expire at query time: every query first clears slots whose
/// fill time has passed. The eagerness matters — one file is queried at
/// the per-request access times of its cache level, which are *not*
/// monotone across requests, and an expiry applied at a later timestamp
/// must stay applied for a subsequent earlier-timestamp query (the
/// observable contract of the address-keyed map this file replaced).
///
/// # Examples
///
/// ```
/// use soe_sim::mem::MshrFile;
///
/// let mut m = MshrFile::new(2);
/// assert_eq!(m.outstanding(0x40, 0), None);
/// m.register(0x40, 0, 100);
/// assert_eq!(m.outstanding(0x40, 0), Some(100));
/// assert_eq!(m.outstanding(0x40, 101), None); // fill arrived
/// ```
#[derive(Debug, Clone)]
pub struct MshrFile {
    // A fixed slot per MSHR: `(line address, fill cycle)`. A dead slot
    // is `(0, 0)`; expiry zeroes slots in place, so no query ever
    // compacts or allocates. The files are small (4-16 slots), making
    // linear scans cheaper than any map — and index order ties break
    // identically on every run, keeping fill timing bit-deterministic.
    slots: Vec<(Addr, Cycle)>,
}

impl MshrFile {
    /// Creates an MSHR file with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "need at least one MSHR");
        Self {
            slots: vec![(0, 0); capacity],
        }
    }

    fn expire(&mut self, now: Cycle) {
        for s in &mut self.slots {
            if s.1 <= now {
                *s = (0, 0);
            }
        }
    }

    /// If `line_addr` is already being fetched at `now`, returns the cycle
    /// its fill completes.
    pub fn outstanding(&mut self, line_addr: Addr, now: Cycle) -> Option<Cycle> {
        self.expire(now);
        self.slots
            .iter()
            .find(|&&(a, f)| a == line_addr && f > now)
            .map(|&(_, f)| f)
    }

    /// Earliest cycle at which a free entry exists, given `now`.
    /// Returns `now` when an entry is free immediately.
    pub fn next_free(&mut self, now: Cycle) -> Cycle {
        self.expire(now);
        let mut live = 0;
        let mut min_fill = Cycle::MAX;
        for &(_, f) in &self.slots {
            if f > now {
                live += 1;
                min_fill = min_fill.min(f);
            }
        }
        if live < self.slots.len() {
            now
        } else {
            // The file is full here (live == capacity >= 1), so a
            // minimum live fill always exists.
            min_fill
        }
    }

    /// Registers a new in-flight fill: the request occupies an entry from
    /// `start` until `fill_at`.
    ///
    /// # Panics
    ///
    /// Panics if the file is still full at `start` — the caller must
    /// respect [`MshrFile::next_free`].
    pub fn register(&mut self, line_addr: Addr, start: Cycle, fill_at: Cycle) {
        self.expire(start);
        let mut live = 0;
        let mut same_addr = None;
        let mut free_slot = None;
        for (i, &(a, f)) in self.slots.iter().enumerate() {
            if f > start {
                live += 1;
                if a == line_addr {
                    // A live fill for the same line: the registration
                    // replaces it (the map semantics this file had when
                    // it was keyed by address).
                    same_addr = Some(i);
                }
            } else if free_slot.is_none() {
                free_slot = Some(i);
            }
        }
        assert!(
            live < self.slots.len(),
            "MSHR file is full; caller must wait for next_free()"
        );
        // `live < capacity` guarantees an expired slot exists.
        let slot = same_addr.or(free_slot).unwrap_or(0);
        // soe-lint: allow(slice-index): slot indices come from enumerate() over this vector
        self.slots[slot] = (line_addr, fill_at);
    }

    /// Number of live entries at `now`.
    pub fn len(&mut self, now: Cycle) -> usize {
        self.expire(now);
        self.slots.iter().filter(|&&(_, f)| f > now).count()
    }

    /// Whether the file has no live entries at `now`.
    pub fn is_empty(&mut self, now: Cycle) -> bool {
        self.len(now) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesces_to_same_line() {
        let mut m = MshrFile::new(4);
        m.register(0x40, 0, 500);
        assert_eq!(m.outstanding(0x40, 10), Some(500));
        assert_eq!(m.outstanding(0x80, 10), None);
    }

    #[test]
    fn entries_expire_after_fill() {
        let mut m = MshrFile::new(1);
        m.register(0x40, 0, 100);
        assert_eq!(m.len(50), 1);
        assert_eq!(m.len(100), 0, "entry expires once the fill arrives");
    }

    #[test]
    fn next_free_waits_for_earliest_fill() {
        let mut m = MshrFile::new(2);
        m.register(0x40, 0, 300);
        m.register(0x80, 0, 200);
        assert_eq!(m.next_free(50), 200);
        // After 200 the 0x80 entry is gone.
        assert_eq!(m.next_free(200), 200);
    }

    #[test]
    fn expiry_applied_at_a_later_time_sticks_for_earlier_queries() {
        // Query times are not monotone across requests; an entry expired
        // by a later-timestamp query must stay gone.
        let mut m = MshrFile::new(2);
        m.register(0x40, 0, 100);
        assert_eq!(m.len(150), 0); // expires the entry
        assert_eq!(m.outstanding(0x40, 50), None, "already expired at 150");
    }

    #[test]
    #[should_panic(expected = "full")]
    fn over_registering_panics() {
        let mut m = MshrFile::new(1);
        m.register(0x40, 0, 100);
        m.register(0x80, 0, 100);
    }
}
