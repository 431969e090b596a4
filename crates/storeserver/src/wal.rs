//! Per-shard write-ahead logs with torn-tail-tolerant replay.
//!
//! Every mutation is appended to the owning shard's log *before* it is
//! applied in memory, and the server acknowledges a write only after the
//! log has been synced — so the set of acknowledged writes is always a
//! subset of what replay recovers (the ledger-conservation contract the
//! crash tests audit). Records are framed as
//!
//! | field | bytes | meaning                                  |
//! |-------|-------|------------------------------------------|
//! | op    | 1     | 1 = put · 2 = del · 3 = rename           |
//! | a_len | 4, LE | length of field A (key / rename source)  |
//! | a     | a_len |                                          |
//! | b_len | 4, LE | length of field B (value / rename target)|
//! | b     | b_len |                                          |
//! | crc   | 4, LE | CRC-32 (IEEE) over everything above      |
//!
//! Replay reads until the file ends or a record fails to parse; a
//! partial or CRC-corrupt tail is *expected* after a crash (the process
//! died mid-append) and is reported as `torn_bytes`, not an error —
//! the same rescan-don't-trust-the-tail discipline `taridx` uses for
//! sidecar indexes. Anything torn was by construction never
//! acknowledged, because acknowledgement waits for fsync.
//!
//! [`SyncMode`] decides what "synced" means: `Real` issues `fsync` for
//! crash durability; `Virtual` only flushes userspace buffers, keeping
//! the deterministic campaign path free of device-speed wall time while
//! exercising the identical record format and replay logic.

use bytes::Bytes;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// How [`WalShard::sync`] makes records durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMode {
    /// Flush and `fsync`: records survive process *and* OS crashes.
    Real,
    /// Flush only: records survive process crashes (the kernel holds the
    /// bytes) and the campaign replay path stays wall-clock-free.
    Virtual,
}

/// One logged mutation, owned: what [`replay`] returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    Put { key: String, value: Bytes },
    Del { key: String },
    Rename { from: String, to: String },
}

/// One logged mutation with its keys and value borrowed: what the engine
/// logs and applies straight from a request it reads in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalOpRef<'a> {
    Put { key: &'a str, value: &'a [u8] },
    Del { key: &'a str },
    Rename { from: &'a str, to: &'a str },
}

const OP_PUT: u8 = 1;
const OP_DEL: u8 = 2;
const OP_RENAME: u8 = 3;

/// CRC-32 (IEEE 802.3) lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// Folds `data` into a running CRC-32 register (before the final xor).
fn crc_update(mut c: u32, data: &[u8]) -> u32 {
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c
}

/// CRC-32 over `data` (IEEE polynomial, standard init/final xor).
pub fn crc32(data: &[u8]) -> u32 {
    !crc_update(!0, data)
}

impl<'a> From<&'a WalOp> for WalOpRef<'a> {
    fn from(op: &'a WalOp) -> WalOpRef<'a> {
        match op {
            WalOp::Put { key, value } => WalOpRef::Put { key, value },
            WalOp::Del { key } => WalOpRef::Del { key },
            WalOp::Rename { from, to } => WalOpRef::Rename { from, to },
        }
    }
}

impl WalOp {
    /// Appends this record's encoding to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        WalOpRef::from(self)
            .write_to(out)
            .expect("writing to a Vec cannot fail");
    }
}

impl<'a> WalOpRef<'a> {
    fn fields(&self) -> (u8, &'a [u8], &'a [u8]) {
        match *self {
            WalOpRef::Put { key, value } => (OP_PUT, key.as_bytes(), value),
            WalOpRef::Del { key } => (OP_DEL, key.as_bytes(), &[]),
            WalOpRef::Rename { from, to } => (OP_RENAME, from.as_bytes(), to.as_bytes()),
        }
    }

    /// The key that places this op on a shard (a rename's source; the
    /// engine refuses renames whose target lives elsewhere).
    pub(crate) fn routing_key(&self) -> &'a str {
        match *self {
            WalOpRef::Put { key, .. } | WalOpRef::Del { key } => key,
            WalOpRef::Rename { from, .. } => from,
        }
    }

    /// Writes this record to `w` field by field, then the CRC of them all.
    fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        let (op, a, b) = self.fields();
        let (a_len, b_len) = (
            (a.len() as u32).to_le_bytes(),
            (b.len() as u32).to_le_bytes(),
        );
        let mut crc = !0;
        for field in [&[op][..], &a_len, a, &b_len, b] {
            crc = crc_update(crc, field);
            w.write_all(field)?;
        }
        w.write_all(&(!crc).to_le_bytes())
    }

    /// The op, owned.
    fn to_op(self) -> WalOp {
        match self {
            WalOpRef::Put { key, value } => WalOp::Put {
                key: key.into(),
                value: Bytes::copy_from_slice(value),
            },
            WalOpRef::Del { key } => WalOp::Del { key: key.into() },
            WalOpRef::Rename { from, to } => WalOp::Rename {
                from: from.into(),
                to: to.into(),
            },
        }
    }

    /// Tries to read one record at the front of `buf`, returning the op
    /// and the bytes consumed. `None` means the tail is torn (too short,
    /// bad tag, or CRC mismatch) — replay stops there.
    fn decode_front(buf: &'a [u8]) -> Option<(WalOpRef<'a>, usize)> {
        let a_len = u32::from_le_bytes(buf.get(1..5)?.try_into().unwrap()) as usize;
        let b_off = 5 + a_len;
        let b_len = u32::from_le_bytes(buf.get(b_off..b_off + 4)?.try_into().unwrap()) as usize;
        let crc_off = b_off + 4 + b_len;
        let stored = u32::from_le_bytes(buf.get(crc_off..crc_off + 4)?.try_into().unwrap());
        if crc32(&buf[..crc_off]) != stored {
            return None;
        }
        let a = std::str::from_utf8(&buf[5..5 + a_len]).ok()?;
        let b = &buf[b_off + 4..b_off + 4 + b_len];
        let op = match buf[0] {
            OP_PUT => WalOpRef::Put { key: a, value: b },
            OP_DEL if b.is_empty() => WalOpRef::Del { key: a },
            OP_RENAME => WalOpRef::Rename {
                from: a,
                to: std::str::from_utf8(b).ok()?,
            },
            _ => return None,
        };
        Some((op, crc_off + 4))
    }
}

/// The result of replaying one shard's log.
#[derive(Debug, Default)]
pub struct WalReplay {
    /// Records that parsed and passed their CRC, in append order.
    pub ops: Vec<WalOp>,
    /// Bytes of torn tail discarded (0 after a clean shutdown).
    pub torn_bytes: u64,
    /// Bytes of intact records (the offset the log is truncated back to).
    pub clean_bytes: u64,
}

/// Replays a shard log into owned ops. A missing file is an empty log,
/// not an error.
pub fn replay(path: &Path) -> io::Result<WalReplay> {
    let mut ops = Vec::new();
    let (clean_bytes, torn_bytes) = replay_each(path, |op| ops.push(op.to_op()))?;
    Ok(WalReplay {
        ops,
        torn_bytes,
        clean_bytes,
    })
}

/// Hands each intact record of a shard log to `apply`, in append order,
/// as it lies in the read buffer. Returns `(clean_bytes, torn_bytes)`,
/// as in [`WalReplay`].
pub(crate) fn replay_each(
    path: &Path,
    mut apply: impl FnMut(WalOpRef<'_>),
) -> io::Result<(u64, u64)> {
    let mut buf = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut buf)?;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((0, 0)),
        Err(e) => return Err(e),
    }
    let mut pos = 0usize;
    while let Some((op, used)) = WalOpRef::decode_front(&buf[pos..]) {
        apply(op);
        pos += used;
    }
    Ok((pos as u64, (buf.len() - pos) as u64))
}

/// An append handle to one shard's log.
///
/// Appends are buffered; [`WalShard::sync`] is the durability barrier
/// the server runs between draining a pipelined batch and flushing the
/// batch's acknowledgements — one fsync covers every record appended
/// since the last sync (group commit).
#[derive(Debug)]
pub struct WalShard {
    writer: BufWriter<File>,
    path: PathBuf,
    mode: SyncMode,
    dirty: bool,
    /// Records appended over this handle's lifetime plus recovered ones.
    pub records: u64,
    /// Durability barriers that actually had something to sync.
    pub syncs: u64,
}

impl WalShard {
    /// Opens (creating if needed) a shard log for appending. When the
    /// file has a torn tail from a previous crash, the tail is cut off
    /// first so new records never hide behind garbage.
    pub fn open_append(path: &Path, mode: SyncMode, clean_bytes: u64) -> io::Result<WalShard> {
        let file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(false)
            // Never truncate here: the file is the recovered log, and
            // `set_len(clean_bytes)` below cuts exactly the torn tail.
            .truncate(false)
            .write(true)
            .open(path)?;
        file.set_len(clean_bytes)?;
        let mut file = file;
        file.seek_to_end()?;
        Ok(WalShard {
            writer: BufWriter::new(file),
            path: path.to_path_buf(),
            mode,
            dirty: false,
            records: 0,
            syncs: 0,
        })
    }

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record (buffered; not yet durable).
    pub fn append<'a>(&mut self, op: impl Into<WalOpRef<'a>>) -> io::Result<()> {
        op.into().write_to(&mut self.writer)?;
        self.dirty = true;
        self.records += 1;
        Ok(())
    }

    /// Durability barrier: flushes buffered records and, in
    /// [`SyncMode::Real`], fsyncs them. Returns true when there was
    /// anything to sync.
    pub fn sync(&mut self) -> io::Result<bool> {
        if !self.dirty {
            return Ok(false);
        }
        self.writer.flush()?;
        if self.mode == SyncMode::Real {
            self.writer.get_ref().sync_data()?;
        }
        self.dirty = false;
        self.syncs += 1;
        Ok(true)
    }
}

/// `File::seek` to the end without pulling in `Seek` at every call site.
trait SeekToEnd {
    fn seek_to_end(&mut self) -> io::Result<u64>;
}

impl SeekToEnd for File {
    fn seek_to_end(&mut self) -> io::Result<u64> {
        use std::io::Seek;
        self.seek(io::SeekFrom::End(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wal-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_ops() -> Vec<WalOp> {
        vec![
            WalOp::Put {
                key: "rdf:new:{s1}:f0".into(),
                value: Bytes::from(vec![7u8; 100]),
            },
            WalOp::Rename {
                from: "rdf:new:{s1}:f0".into(),
                to: "rdf:done:{s1}:f0".into(),
            },
            WalOp::Del {
                key: "rdf:done:{s1}:f0".into(),
            },
            WalOp::Put {
                key: "empty".into(),
                value: Bytes::new(),
            },
        ]
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_sync_replay_roundtrip() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("shard-0.wal");
        let mut wal = WalShard::open_append(&path, SyncMode::Real, 0).unwrap();
        for op in sample_ops() {
            wal.append(&op).unwrap();
        }
        assert!(wal.sync().unwrap());
        assert!(!wal.sync().unwrap(), "clean log has nothing to sync");
        assert_eq!(wal.records, 4);
        assert_eq!(wal.syncs, 1);
        drop(wal);

        let rep = replay(&path).unwrap();
        assert_eq!(rep.ops, sample_ops());
        assert_eq!(rep.torn_bytes, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_cut_not_fatal() {
        let dir = tmpdir("torn");
        let path = dir.join("shard-0.wal");
        let mut wal = WalShard::open_append(&path, SyncMode::Virtual, 0).unwrap();
        for op in sample_ops() {
            wal.append(&op).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);

        // Chop bytes off the tail one at a time: replay must always
        // return an exact prefix of the full op sequence.
        let full = std::fs::read(&path).unwrap();
        let all = sample_ops();
        for cut in 1..=40usize.min(full.len() - 1) {
            std::fs::write(&path, &full[..full.len() - cut]).unwrap();
            let rep = replay(&path).unwrap();
            assert!(rep.ops.len() < all.len() || rep.torn_bytes == 0);
            assert_eq!(
                rep.ops[..],
                all[..rep.ops.len()],
                "prefix after {cut}-byte cut"
            );
            assert_eq!(rep.clean_bytes + rep.torn_bytes, (full.len() - cut) as u64);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_middle_stops_replay_at_the_corruption() {
        let dir = tmpdir("corrupt");
        let path = dir.join("shard-0.wal");
        let mut wal = WalShard::open_append(&path, SyncMode::Virtual, 0).unwrap();
        for op in sample_ops() {
            wal.append(&op).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);

        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let rep = replay(&path).unwrap();
        assert!(rep.ops.len() < sample_ops().len());
        assert_eq!(rep.ops[..], sample_ops()[..rep.ops.len()]);
        assert!(rep.torn_bytes > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_truncates_torn_tail_and_appends_cleanly() {
        let dir = tmpdir("reopen");
        let path = dir.join("shard-0.wal");
        let mut wal = WalShard::open_append(&path, SyncMode::Virtual, 0).unwrap();
        for op in sample_ops() {
            wal.append(&op).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);

        // Simulate a crash mid-append: garbage tail.
        let mut bytes = std::fs::read(&path).unwrap();
        let clean = bytes.len() as u64;
        bytes.extend_from_slice(&[1, 200, 0]);
        std::fs::write(&path, &bytes).unwrap();
        let rep = replay(&path).unwrap();
        assert_eq!(rep.clean_bytes, clean);
        assert_eq!(rep.torn_bytes, 3);

        let mut wal = WalShard::open_append(&path, SyncMode::Virtual, rep.clean_bytes).unwrap();
        let extra = WalOp::Put {
            key: "post-crash".into(),
            value: Bytes::from_static(b"v"),
        };
        wal.append(&extra).unwrap();
        wal.sync().unwrap();
        drop(wal);

        let rep = replay(&path).unwrap();
        assert_eq!(rep.torn_bytes, 0);
        let mut want = sample_ops();
        want.push(extra);
        assert_eq!(rep.ops, want);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_replays_empty() {
        let rep = replay(Path::new("/nonexistent/never/shard-9.wal")).unwrap();
        assert!(rep.ops.is_empty());
        assert_eq!(rep.torn_bytes, 0);
    }
}
