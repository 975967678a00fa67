//! On-disk trace segments — the file-format analogue of the paper's Long
//! Instruction Traces.
//!
//! A [`LitFile`] materializes a window of any [`TraceSource`] into a
//! compact binary record that can be saved, shared and replayed
//! elsewhere, decoupling trace *generation* from *consumption* (e.g. to
//! feed the simulator a trace captured by an external tool).
//!
//! Format (little-endian): the magic `SOELIT01`, a length-prefixed name,
//! the start position and micro-op count, then one 25-byte record per
//! micro-op.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use soe_sim::{InstrIndex, TraceSource, Uop, UopKind};

const MAGIC: &[u8; 8] = b"SOELIT01";

// Kind tags (bit 0 of the branch tag carries the taken flag).
const TAG_ALU: u8 = 0;
const TAG_MUL: u8 = 1;
const TAG_DIV: u8 = 2;
const TAG_LOAD: u8 = 3;
const TAG_STORE: u8 = 4;
const TAG_NOP: u8 = 5;
const TAG_PAUSE: u8 = 6;
const TAG_CALL: u8 = 7;
const TAG_RETURN: u8 = 8;
const TAG_BRANCH_NT: u8 = 9;
const TAG_BRANCH_T: u8 = 10;

/// A recorded trace segment, replayable as a [`TraceSource`].
///
/// Positions beyond the recorded window wrap around (the segment is
/// treated as a loop), so a `LitFile` can drive arbitrarily long
/// simulations; record a window long enough to be representative.
///
/// # Examples
///
/// ```
/// use soe_sim::TraceSource;
/// use soe_workloads::{spec, LitFile, SyntheticTrace};
///
/// let live = SyntheticTrace::new(spec::profile("swim").unwrap(), 0x1_0000_0000, 0);
/// let lit = LitFile::record(&live, 1_000, 512);
/// assert_eq!(lit.uop_at(0), live.uop_at(1_000));
/// assert_eq!(lit.len(), 512);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LitFile {
    name: String,
    start: InstrIndex,
    uops: Vec<Uop>,
}

impl LitFile {
    /// Records `count` micro-ops of `source` starting at `start`.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`.
    pub fn record(source: &dyn TraceSource, start: InstrIndex, count: u64) -> Self {
        assert!(count > 0, "cannot record an empty trace");
        Self {
            name: source.name().to_string(),
            start,
            uops: (start..start + count).map(|i| source.uop_at(i)).collect(),
        }
    }

    /// Number of recorded micro-ops.
    pub fn len(&self) -> u64 {
        self.uops.len() as u64
    }

    /// Whether the segment is empty (never true for a constructed value).
    pub fn is_empty(&self) -> bool {
        self.uops.is_empty()
    }

    /// Serializes into `writer`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_to<W: Write>(&self, mut writer: W) -> io::Result<()> {
        writer.write_all(MAGIC)?;
        let name = self.name.as_bytes();
        writer.write_all(&(name.len() as u32).to_le_bytes())?;
        writer.write_all(name)?;
        writer.write_all(&self.start.to_le_bytes())?;
        writer.write_all(&(self.uops.len() as u64).to_le_bytes())?;
        for u in &self.uops {
            let (tag, aux): (u8, u64) = match u.kind {
                UopKind::Alu => (TAG_ALU, 0),
                UopKind::Mul => (TAG_MUL, 0),
                UopKind::Div => (TAG_DIV, 0),
                UopKind::Load => (TAG_LOAD, u.mem_addr()),
                UopKind::Store => (TAG_STORE, u.mem_addr()),
                UopKind::Nop => (TAG_NOP, 0),
                UopKind::Pause => (TAG_PAUSE, 0),
                UopKind::Call { target } => (TAG_CALL, target),
                UopKind::Return { target } => (TAG_RETURN, target),
                UopKind::Branch { taken, target } => {
                    (if taken { TAG_BRANCH_T } else { TAG_BRANCH_NT }, target)
                }
            };
            writer.write_all(&[tag])?;
            writer.write_all(&u.pc.to_le_bytes())?;
            writer.write_all(&aux.to_le_bytes())?;
            writer.write_all(&u.src_dist[0].to_le_bytes())?;
            writer.write_all(&u.src_dist[1].to_le_bytes())?;
        }
        Ok(())
    }

    /// Deserializes from `reader`.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on a bad magic, tag or truncation, and
    /// propagates I/O errors.
    pub fn read_from<R: Read>(mut reader: R) -> io::Result<Self> {
        fn bad(msg: &str) -> io::Error {
            io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
        }
        let mut magic = [0u8; 8];
        reader.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(bad("not a SOELIT01 trace file"));
        }
        let mut b4 = [0u8; 4];
        let mut b8 = [0u8; 8];
        reader.read_exact(&mut b4)?;
        let name_len = u32::from_le_bytes(b4) as usize;
        if name_len > 4096 {
            return Err(bad("unreasonable name length"));
        }
        let mut name = vec![0u8; name_len];
        reader.read_exact(&mut name)?;
        let name = String::from_utf8(name).map_err(|_| bad("name is not UTF-8"))?;
        reader.read_exact(&mut b8)?;
        let start = u64::from_le_bytes(b8);
        reader.read_exact(&mut b8)?;
        let count = u64::from_le_bytes(b8);
        if count == 0 {
            return Err(bad("empty trace segment"));
        }
        let mut uops = Vec::with_capacity(count.min(1 << 24) as usize);
        for _ in 0..count {
            let mut tag = [0u8; 1];
            reader.read_exact(&mut tag)?;
            reader.read_exact(&mut b8)?;
            let pc = u64::from_le_bytes(b8);
            reader.read_exact(&mut b8)?;
            let aux = u64::from_le_bytes(b8);
            reader.read_exact(&mut b4)?;
            let d0 = u32::from_le_bytes(b4);
            reader.read_exact(&mut b4)?;
            let d1 = u32::from_le_bytes(b4);
            let uop = match tag[0] {
                TAG_ALU => Uop::new(UopKind::Alu, pc),
                TAG_MUL => Uop::new(UopKind::Mul, pc),
                TAG_DIV => Uop::new(UopKind::Div, pc),
                TAG_LOAD => Uop::new(UopKind::Load, pc).with_mem(aux),
                TAG_STORE => Uop::new(UopKind::Store, pc).with_mem(aux),
                TAG_NOP => Uop::new(UopKind::Nop, pc),
                TAG_PAUSE => Uop::new(UopKind::Pause, pc),
                TAG_CALL => Uop::new(UopKind::Call { target: aux }, pc),
                TAG_RETURN => Uop::new(UopKind::Return { target: aux }, pc),
                TAG_BRANCH_NT => Uop::new(
                    UopKind::Branch {
                        taken: false,
                        target: aux,
                    },
                    pc,
                ),
                TAG_BRANCH_T => Uop::new(
                    UopKind::Branch {
                        taken: true,
                        target: aux,
                    },
                    pc,
                ),
                t => return Err(bad(&format!("unknown micro-op tag {t}"))),
            };
            uops.push(uop.with_deps(d0, d1));
        }
        Ok(Self { name, start, uops })
    }

    /// Saves to `path`.
    ///
    /// # Errors
    ///
    /// Propagates file-creation and write errors, naming the path.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        File::create(path)
            .and_then(|f| self.write_to(BufWriter::new(f)))
            .map_err(|e| io::Error::new(e.kind(), format!("saving LIT {}: {e}", path.display())))
    }

    /// Loads from `path`.
    ///
    /// # Errors
    ///
    /// Propagates file-open and parse errors, naming the path.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref();
        File::open(path)
            .and_then(|f| Self::read_from(BufReader::new(f)))
            .map_err(|e| io::Error::new(e.kind(), format!("loading LIT {}: {e}", path.display())))
    }
}

impl TraceSource for LitFile {
    fn uop_at(&self, index: InstrIndex) -> Uop {
        // soe-lint: allow(panic-reachability): index is reduced modulo len, and read_from rejects empty segments, so len > 0
        self.uops[(index % self.uops.len() as u64) as usize]
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{spec, SyntheticTrace};

    fn live() -> SyntheticTrace {
        SyntheticTrace::new(spec::profile("gcc").unwrap(), 0x1_0000_0000, 0)
    }

    #[test]
    fn record_matches_source() {
        let src = live();
        let lit = LitFile::record(&src, 500, 1_000);
        for i in 0..1_000 {
            assert_eq!(lit.uop_at(i), src.uop_at(500 + i));
        }
        assert_eq!(lit.name(), "gcc");
        assert_eq!(lit.start, 500);
    }

    #[test]
    fn replay_wraps_beyond_the_window() {
        let lit = LitFile::record(&live(), 0, 64);
        assert_eq!(lit.uop_at(64), lit.uop_at(0));
        assert_eq!(lit.uop_at(129), lit.uop_at(1));
    }

    #[test]
    fn binary_round_trip() {
        let lit = LitFile::record(&live(), 123, 4_096);
        let mut buf = Vec::new();
        lit.write_to(&mut buf).expect("write");
        // 25 bytes per uop plus a small header.
        assert!(buf.len() < 4_096 * 25 + 64);
        let back = LitFile::read_from(buf.as_slice()).expect("read");
        assert_eq!(back, lit);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("soe-litfile-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("gcc.lit");
        let lit = LitFile::record(&live(), 0, 256);
        lit.save(&path).expect("save");
        let back = LitFile::load(&path).expect("load");
        assert_eq!(back, lit);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn io_errors_name_the_offending_path() {
        let missing = std::env::temp_dir().join("soe-litfile-no-such-dir/missing.lit");
        let err = LitFile::load(&missing).expect_err("load must fail");
        assert!(
            err.to_string().contains("missing.lit"),
            "error lacks the path: {err}"
        );
        let lit = LitFile::record(&live(), 0, 16);
        let unwritable = std::env::temp_dir().join("soe-litfile-no-such-dir/out.lit");
        let err = lit.save(&unwritable).expect_err("save must fail");
        assert!(
            err.to_string().contains("out.lit"),
            "error lacks the path: {err}"
        );
    }

    #[test]
    fn covers_every_uop_kind() {
        // The gcc profile emits every kind except Nop/Pause; append those
        // by hand to exercise all tags.
        let mut lit = LitFile::record(&live(), 0, 50_000);
        lit.uops.push(Uop::new(UopKind::Nop, 0x10));
        lit.uops.push(Uop::new(UopKind::Pause, 0x14));
        let kinds: std::collections::HashSet<u8> = lit
            .uops
            .iter()
            .map(|u| match u.kind {
                UopKind::Alu => 0u8,
                UopKind::Mul => 1,
                UopKind::Div => 2,
                UopKind::Load => 3,
                UopKind::Store => 4,
                UopKind::Nop => 5,
                UopKind::Pause => 6,
                UopKind::Call { .. } => 7,
                UopKind::Return { .. } => 8,
                UopKind::Branch { .. } => 9,
            })
            .collect();
        assert!(kinds.len() >= 8, "kinds covered: {kinds:?}");
        let mut buf = Vec::new();
        lit.write_to(&mut buf).unwrap();
        assert_eq!(LitFile::read_from(buf.as_slice()).unwrap(), lit);
    }

    #[test]
    fn rejects_bad_magic() {
        let err = LitFile::read_from(&b"NOTALIT0rest"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn rejects_truncation() {
        let lit = LitFile::record(&live(), 0, 16);
        let mut buf = Vec::new();
        lit.write_to(&mut buf).unwrap();
        buf.truncate(buf.len() - 5);
        assert!(LitFile::read_from(buf.as_slice()).is_err());
    }
}
