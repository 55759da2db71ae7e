//! File-backed WAL segments: CRC-framed append-only log files with
//! rotation, fuzzy checkpoints, and ARIES-style redo-on-open.
//!
//! Layout of one frame (all integers little-endian):
//!
//! ```text
//! [len: u32]  payload length in bytes
//! [crc: u32]  CRC32-IEEE of the payload
//! [payload]   seq: u64   — global append-order sequence number
//!             end: u64   — the record's end LSN in its redo stream
//!             record     — tag u8 (1 = Update, 2 = Insert, 3 = Commit)
//!                          followed by the record fields
//! ```
//!
//! The CRC-prefixed encoding follows the shape of SimpleDB's
//! `transaction_log.rs` (SNIPPETS.md, Snippet 3): length first so the
//! reader knows how much to checksum, checksum next so a torn or
//! bit-rotted frame is detected before any field is trusted. On open,
//! each stripe's segment chain is scanned in order and truncated at the
//! first bad frame — the same semantics as the simulated `torn_tail`
//! fault, where recovery stops at the tear and never panics.
//!
//! The K parallel stripes from the lock-free redo path each own a segment
//! chain (`wal-<stripe>-<index>.seg`). Within a stripe, file order is
//! append order; across stripes it is not, so recovery merges all
//! readable frames and sorts by the global `seq` every append stamped.
//! A transaction's records are contiguous within one stripe reservation,
//! so a fsynced (acknowledged) commit can never be split by a tear.
//!
//! Checkpoints (`checkpoint.ckpt`, written to a temp file, fsynced, then
//! atomically renamed) capture the full table state plus the seq floor;
//! redo replays only frames at or above the floor, which bounds recovery
//! work. Checkpoint writers must be write-quiescent: there is no undo
//! log, so the floor must not bisect a transaction.

use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use tpd_common::{DiskDevice, FileDisk, Nanos};

use crate::record::{LogRecord, StampedRecord};
use crate::Lsn;

/// Upper bound on a frame payload; anything larger is treated as
/// corruption (a real record is a few dozen bytes).
const MAX_PAYLOAD: usize = 1 << 20;

/// Frame header: length + CRC.
const FRAME_HEADER: usize = 8;

/// Checkpoint file magic ("TPDK").
const CKPT_MAGIC: u32 = 0x5450_444B;

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected, polynomial 0xEDB88320)
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC32-IEEE of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Frame encode / decode
// ---------------------------------------------------------------------------

fn push_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn push_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Bounds-checked little-endian reader.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, at: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.at.checked_add(n)?;
        if end > self.bytes.len() {
            return None;
        }
        let s = &self.bytes[self.at..end];
        self.at = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes(s.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes(s.try_into().unwrap()))
    }

    fn i64(&mut self) -> Option<i64> {
        self.take(8)
            .map(|s| i64::from_le_bytes(s.try_into().unwrap()))
    }

    fn done(&self) -> bool {
        self.at == self.bytes.len()
    }
}

fn encode_record(rec: &LogRecord, buf: &mut Vec<u8>) {
    match rec {
        LogRecord::Update {
            txn,
            table,
            key,
            after,
        } => {
            buf.push(1);
            push_u64(buf, *txn);
            push_u32(buf, *table);
            push_u64(buf, *key);
            push_u32(buf, after.len() as u32);
            for v in after {
                push_i64(buf, *v);
            }
        }
        LogRecord::Insert {
            txn,
            table,
            key,
            row,
        } => {
            buf.push(2);
            push_u64(buf, *txn);
            push_u32(buf, *table);
            push_u64(buf, *key);
            push_u32(buf, row.len() as u32);
            for v in row {
                push_i64(buf, *v);
            }
        }
        LogRecord::Commit { txn } => {
            buf.push(3);
            push_u64(buf, *txn);
        }
        LogRecord::Torn { .. } => {
            unreachable!("torn tails are a decode-side artifact, never encoded")
        }
    }
}

fn decode_record(c: &mut Cursor<'_>) -> Option<LogRecord> {
    let tag = c.u8()?;
    match tag {
        1 | 2 => {
            let txn = c.u64()?;
            let table = c.u32()?;
            let key = c.u64()?;
            let n = c.u32()? as usize;
            if n > MAX_PAYLOAD / 8 {
                return None;
            }
            let mut vals = Vec::with_capacity(n);
            for _ in 0..n {
                vals.push(c.i64()?);
            }
            Some(if tag == 1 {
                LogRecord::Update {
                    txn,
                    table,
                    key,
                    after: vals,
                }
            } else {
                LogRecord::Insert {
                    txn,
                    table,
                    key,
                    row: vals,
                }
            })
        }
        3 => Some(LogRecord::Commit { txn: c.u64()? }),
        _ => None,
    }
}

/// Encode one complete frame (header + payload) for `rec` stamped with the
/// global sequence number `seq`.
pub fn encode_frame(seq: u64, rec: &StampedRecord) -> Vec<u8> {
    let mut payload = Vec::with_capacity(64);
    push_u64(&mut payload, seq);
    push_u64(&mut payload, rec.end.0);
    encode_record(&rec.record, &mut payload);
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
    push_u32(&mut frame, payload.len() as u32);
    push_u32(&mut frame, crc32(&payload));
    frame.extend_from_slice(&payload);
    frame
}

/// Scan a segment's bytes into frames. Returns the decoded
/// `(seq, record)` pairs plus `Some(offset)` of the first bad frame (torn
/// write, bit rot, or trailing garbage) — the caller truncates there.
pub fn scan_frames(bytes: &[u8]) -> (Vec<(u64, StampedRecord)>, Option<usize>) {
    let mut out = Vec::new();
    let mut off = 0usize;
    loop {
        let rest = &bytes[off..];
        if rest.is_empty() {
            return (out, None);
        }
        if rest.len() < FRAME_HEADER {
            return (out, Some(off));
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(rest[4..8].try_into().unwrap());
        if !(17..=MAX_PAYLOAD).contains(&len) || rest.len() < FRAME_HEADER + len {
            return (out, Some(off));
        }
        let payload = &rest[FRAME_HEADER..FRAME_HEADER + len];
        if crc32(payload) != crc {
            return (out, Some(off));
        }
        let mut c = Cursor::new(payload);
        let (seq, end) = match (c.u64(), c.u64()) {
            (Some(s), Some(e)) => (s, e),
            _ => return (out, Some(off)),
        };
        match decode_record(&mut c) {
            Some(record) if c.done() => {
                out.push((
                    seq,
                    StampedRecord {
                        end: Lsn(end),
                        record,
                    },
                ));
                off += FRAME_HEADER + len;
            }
            _ => return (out, Some(off)),
        }
    }
}

// ---------------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------------

/// One table's full image inside a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointTable {
    /// Table id (recreated in id order so ids reproduce).
    pub id: u32,
    /// Table name.
    pub name: String,
    /// Rows per page (drives the storage model on restore).
    pub rows_per_page: u64,
    /// Next auto-assigned row key.
    pub next_key: u64,
    /// All rows, key-ordered.
    pub rows: Vec<(u64, Vec<i64>)>,
}

/// A fuzzy checkpoint: full table state plus the redo floor. Frames with
/// `seq < next_seq` are already reflected in the tables and are skipped
/// (and pruned) — that is what bounds redo length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointData {
    /// Redo floor: first seq NOT covered by this checkpoint.
    pub next_seq: u64,
    /// Full table images, id-ordered.
    pub tables: Vec<CheckpointTable>,
}

fn encode_checkpoint(data: &CheckpointData) -> Vec<u8> {
    let mut body = Vec::new();
    push_u64(&mut body, data.next_seq);
    push_u32(&mut body, data.tables.len() as u32);
    for t in &data.tables {
        push_u32(&mut body, t.id);
        push_u64(&mut body, t.rows_per_page);
        push_u64(&mut body, t.next_key);
        push_u32(&mut body, t.name.len() as u32);
        body.extend_from_slice(t.name.as_bytes());
        push_u64(&mut body, t.rows.len() as u64);
        for (key, row) in &t.rows {
            push_u64(&mut body, *key);
            push_u32(&mut body, row.len() as u32);
            for v in row {
                push_i64(&mut body, *v);
            }
        }
    }
    let mut out = Vec::with_capacity(8 + body.len());
    push_u32(&mut out, CKPT_MAGIC);
    push_u32(&mut out, crc32(&body));
    out.extend_from_slice(&body);
    out
}

fn decode_checkpoint(bytes: &[u8]) -> Option<CheckpointData> {
    if bytes.len() < 8 {
        return None;
    }
    let magic = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
    let crc = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    let body = &bytes[8..];
    if magic != CKPT_MAGIC || crc32(body) != crc {
        return None;
    }
    let mut c = Cursor::new(body);
    let next_seq = c.u64()?;
    let ntables = c.u32()? as usize;
    let mut tables = Vec::with_capacity(ntables);
    for _ in 0..ntables {
        let id = c.u32()?;
        let rows_per_page = c.u64()?;
        let next_key = c.u64()?;
        let name_len = c.u32()? as usize;
        let name = String::from_utf8(c.take(name_len)?.to_vec()).ok()?;
        let nrows = c.u64()? as usize;
        let mut rows = Vec::with_capacity(nrows.min(1 << 20));
        for _ in 0..nrows {
            let key = c.u64()?;
            let n = c.u32()? as usize;
            if n > MAX_PAYLOAD / 8 {
                return None;
            }
            let mut row = Vec::with_capacity(n);
            for _ in 0..n {
                row.push(c.i64()?);
            }
            rows.push((key, row));
        }
        tables.push(CheckpointTable {
            id,
            name,
            rows_per_page,
            next_key,
            rows,
        });
    }
    c.done().then_some(CheckpointData { next_seq, tables })
}

// ---------------------------------------------------------------------------
// Segment files
// ---------------------------------------------------------------------------

fn seg_path(dir: &Path, stripe: usize, index: u64) -> PathBuf {
    dir.join(format!("wal-{stripe:02}-{index:08}.seg"))
}

fn parse_seg_name(name: &str, stripe: usize) -> Option<u64> {
    let prefix = format!("wal-{stripe:02}-");
    let rest = name.strip_prefix(&prefix)?.strip_suffix(".seg")?;
    rest.parse::<u64>().ok()
}

fn create_segment(path: &Path) -> io::Result<File> {
    File::options()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(path)
}

/// Per-stripe writer bookkeeping: which segment files exist and what the
/// next rotation index is. Byte positions live in the stripe's
/// [`FileDisk`].
#[derive(Debug)]
struct SegmentWriter {
    /// Live segment paths, oldest first; the last one is being written.
    paths: Vec<PathBuf>,
    /// Index the next rotation will use.
    next_index: u64,
}

/// What [`FileWal::open`] recovered from the data directory.
#[derive(Debug)]
pub struct RecoveredLog {
    /// All readable frames at or above the checkpoint floor, merged across
    /// stripes and sorted by global seq. Feed to `Engine::recover_from`.
    pub records: Vec<StampedRecord>,
    /// The checkpoint, if a valid one exists.
    pub checkpoint: Option<CheckpointData>,
    /// Segment files truncated because of a torn or corrupt frame.
    pub torn_truncated: u64,
    /// Readable frames recovered (including ones below the floor).
    pub frames: u64,
}

/// The file-backed WAL: K segment chains (one per stripe), a checkpoint,
/// and a crash-injection gate for the crash-point matrix.
///
/// Sequence numbers supplied by callers restart at zero on every engine
/// boot; the wal offsets them by `base_seq` (one past the highest seq it
/// recovered) so the on-disk order is globally monotone across boots.
#[derive(Debug)]
pub struct FileWal {
    dir: PathBuf,
    rotate_bytes: u64,
    disks: Vec<Arc<FileDisk>>,
    writers: Vec<Mutex<SegmentWriter>>,
    base_seq: u64,
    /// Next auto-allocated relative seq (pg path).
    auto_seq: AtomicU64,
    /// One past the highest actual seq appended or recovered; the
    /// checkpoint floor for a quiescent caller.
    next_actual: AtomicU64,
    /// Complete frames appended this boot (crash-injection ruler).
    frames: AtomicU64,
    /// Crash after this many frames (`u64::MAX` = never).
    crash_after: AtomicU64,
    /// Bytes of the crashing frame to leave behind as a torn prefix.
    torn_bytes: AtomicU64,
    /// `true` = [`CrashPhase::AfterWrite`], `false` = [`CrashPhase::Torn`].
    crash_after_write: AtomicBool,
    crashed: AtomicBool,
}

/// Where in the fatal frame's append→sync sequence the injected crash
/// lands. Every real crash is one of these two: either the `pwrite`
/// itself was cut short, or it finished and the process died before the
/// `fdatasync` made it durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPhase {
    /// Death mid-`pwrite`: `torn_bytes % frame_len` bytes of the fatal
    /// frame land (0 = a clean frame-boundary crash).
    Torn,
    /// Death between `pwrite` and `fdatasync`: the fatal frame is fully
    /// written but never synced. Recovery may legitimately observe it —
    /// an attempted-but-unacknowledged commit becoming durable is sound;
    /// losing an *acknowledged* one is not, and the sync suppression is
    /// exactly what the completeness audit must survive.
    AfterWrite,
}

impl FileWal {
    /// Default segment rotation size.
    pub const DEFAULT_ROTATE_BYTES: u64 = 4 << 20;

    /// Open (or initialize) the WAL under `dir` with `stripes` segment
    /// chains, recovering every readable frame at or above the checkpoint
    /// floor. Torn or bit-rotted frames truncate their chain at the tear.
    pub fn open(
        dir: impl AsRef<Path>,
        stripes: usize,
        rotate_bytes: u64,
    ) -> io::Result<(Arc<FileWal>, RecoveredLog)> {
        assert!(stripes >= 1, "need at least one stripe");
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        // A leftover temp file is a checkpoint that never committed.
        let _ = std::fs::remove_file(dir.join("checkpoint.tmp"));
        let checkpoint = std::fs::read(dir.join("checkpoint.ckpt"))
            .ok()
            .and_then(|b| decode_checkpoint(&b));
        let floor = checkpoint.as_ref().map_or(0, |c| c.next_seq);

        let names: Vec<String> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .collect();

        let mut all: Vec<(u64, StampedRecord)> = Vec::new();
        let mut torn_truncated = 0u64;
        let mut frames = 0u64;
        let mut next_actual = floor;
        let mut disks = Vec::with_capacity(stripes);
        let mut writers = Vec::with_capacity(stripes);

        for k in 0..stripes {
            let mut segs: Vec<(u64, PathBuf)> = names
                .iter()
                .filter_map(|n| parse_seg_name(n, k).map(|idx| (idx, dir.join(n))))
                .collect();
            segs.sort();
            let mut cut_at: Option<usize> = None;
            for (i, (_, path)) in segs.iter().enumerate() {
                let bytes = std::fs::read(path)?;
                let (recs, bad) = scan_frames(&bytes);
                frames += recs.len() as u64;
                for (seq, rec) in recs {
                    next_actual = next_actual.max(seq + 1);
                    if seq >= floor {
                        all.push((seq, rec));
                    }
                }
                if let Some(off) = bad {
                    torn_truncated += 1;
                    let f = File::options().write(true).open(path)?;
                    f.set_len(off as u64)?;
                    f.sync_data()?;
                    cut_at = Some(i);
                    break;
                }
            }
            // Everything after a tear in the chain is unreachable garbage.
            if let Some(i) = cut_at {
                for (_, path) in segs.drain(i + 1..) {
                    torn_truncated += 1;
                    std::fs::remove_file(path)?;
                }
            }
            let (disk, paths, next_index) = match segs.last() {
                Some(&(idx, ref path)) => (
                    FileDisk::open(path)?,
                    segs.iter().map(|(_, p)| p.clone()).collect(),
                    idx + 1,
                ),
                None => {
                    let path = seg_path(&dir, k, 0);
                    (FileDisk::create(&path)?, vec![path], 1)
                }
            };
            disks.push(Arc::new(disk));
            writers.push(Mutex::new(SegmentWriter { paths, next_index }));
        }

        all.sort_by_key(|&(seq, _)| seq);
        let records = all.into_iter().map(|(_, r)| r).collect();
        let wal = Arc::new(FileWal {
            dir,
            rotate_bytes,
            disks,
            writers,
            base_seq: next_actual,
            auto_seq: AtomicU64::new(0),
            next_actual: AtomicU64::new(next_actual),
            frames: AtomicU64::new(0),
            crash_after: AtomicU64::new(u64::MAX),
            torn_bytes: AtomicU64::new(0),
            crash_after_write: AtomicBool::new(false),
            crashed: AtomicBool::new(false),
        });
        Ok((
            wal,
            RecoveredLog {
                records,
                checkpoint,
                torn_truncated,
                frames,
            },
        ))
    }

    /// The data directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of stripes.
    pub fn stripes(&self) -> usize {
        self.disks.len()
    }

    /// The stripe's underlying device, for wiring into the redo log so
    /// byte and fsync accounting share one stats surface.
    pub fn stripe_disk(&self, stripe: usize) -> Arc<FileDisk> {
        self.disks[stripe].clone()
    }

    /// Append one frame for `rec` with the caller-relative sequence
    /// number `seq` (the wal adds its base offset). Returns time spent.
    pub fn append(&self, stripe: usize, seq: u64, rec: &StampedRecord) -> Nanos {
        self.append_actual(stripe, self.base_seq + seq, rec)
    }

    /// Append one frame, allocating the next sequence number internally
    /// (the pg path, which has no record seqs of its own).
    pub fn append_auto(&self, stripe: usize, rec: &StampedRecord) -> Nanos {
        let seq = self.base_seq + self.auto_seq.fetch_add(1, Ordering::SeqCst);
        self.append_actual(stripe, seq, rec)
    }

    fn append_actual(&self, stripe: usize, seq: u64, rec: &StampedRecord) -> Nanos {
        if self.crashed.load(Ordering::Acquire) {
            return 0;
        }
        let frame = encode_frame(seq, rec);
        let n = self.frames.fetch_add(1, Ordering::SeqCst);
        if n >= self.crash_after.load(Ordering::SeqCst) {
            // The first append past the gate leaves its frame artifact
            // behind — a torn prefix (`Torn`) or the whole frame minus
            // its sync (`AfterWrite`) — then kills every stripe device;
            // every later append hits the `crashed` fast path above or
            // here, and every later flush is a dead device's no-op.
            if !self.crashed.swap(true, Ordering::SeqCst) {
                if self.crash_after_write.load(Ordering::SeqCst) {
                    let _ = self.disks[stripe].append_raw(&frame);
                } else {
                    let torn = (self.torn_bytes.load(Ordering::Relaxed) as usize) % frame.len();
                    if torn > 0 {
                        let _ = self.disks[stripe].append_raw(&frame[..torn]);
                    }
                }
                for disk in &self.disks {
                    disk.kill();
                }
            }
            return 0;
        }
        self.next_actual.fetch_max(seq + 1, Ordering::SeqCst);
        let mut w = self.writers[stripe].lock();
        let disk = &self.disks[stripe];
        if !disk.is_empty() && disk.len() + frame.len() as u64 > self.rotate_bytes {
            // Close the full segment durably before moving on, so a tear
            // can only ever live at the tail of the newest segment.
            disk.flush(0);
            let path = seg_path(&self.dir, stripe, w.next_index);
            let file = create_segment(&path).expect("wal segment rotation");
            w.next_index += 1;
            w.paths.push(path);
            drop(disk.swap_file(file));
        }
        disk.append_raw(&frame).expect("wal segment append")
    }

    /// Durability barrier on the stripe's current segment (a real
    /// `fdatasync`). A crashed wal silently drops it — that is the point
    /// of the crash gate.
    pub fn sync(&self, stripe: usize) -> Nanos {
        if self.crashed.load(Ordering::Acquire) {
            return 0;
        }
        self.disks[stripe].flush(0)
    }

    /// One past the highest seq this wal has appended or recovered. With
    /// no appends in flight this is the checkpoint floor.
    pub fn next_seq(&self) -> u64 {
        self.next_actual.load(Ordering::SeqCst)
    }

    /// Complete frames appended this boot (crash points index into this).
    pub fn frames_written(&self) -> u64 {
        self.frames
            .load(Ordering::SeqCst)
            .min(self.crash_after.load(Ordering::SeqCst))
    }

    /// Arm the crash gate: the append of frame number `after` (0-based)
    /// stops the world, leaving `torn_bytes % frame_len` bytes of that
    /// frame behind ([`CrashPhase::Torn`]).
    pub fn set_crash_after(&self, after: u64, torn_bytes: u64) {
        self.set_crash_at(after, torn_bytes, CrashPhase::Torn);
    }

    /// [`FileWal::set_crash_after`] with an explicit phase. Under
    /// [`CrashPhase::AfterWrite`] the fatal frame is written in full and
    /// `torn_bytes` is ignored: the death lands between the frame's
    /// `pwrite` and the `fdatasync` that would have made it durable.
    pub fn set_crash_at(&self, after: u64, torn_bytes: u64, phase: CrashPhase) {
        self.torn_bytes.store(torn_bytes, Ordering::SeqCst);
        self.crash_after_write
            .store(phase == CrashPhase::AfterWrite, Ordering::SeqCst);
        self.crash_after.store(after, Ordering::SeqCst);
    }

    /// Whether the crash gate has fired: every later append and sync is a
    /// silent no-op, exactly like a killed process.
    pub fn crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }

    /// Write a checkpoint (temp file + fsync + atomic rename) and prune:
    /// every stripe rotates to a fresh segment and drops its old ones,
    /// since all their frames are below the floor.
    ///
    /// The caller must be write-quiescent — there is no undo log, so the
    /// floor must not bisect a transaction.
    pub fn checkpoint(&self, data: &CheckpointData) -> io::Result<()> {
        if self.crashed() {
            return Ok(());
        }
        let tmp = self.dir.join("checkpoint.tmp");
        {
            use std::io::Write;
            let mut f = create_segment(&tmp)?;
            f.write_all(&encode_checkpoint(data))?;
            f.sync_data()?;
        }
        std::fs::rename(&tmp, self.dir.join("checkpoint.ckpt"))?;
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        for (k, writer) in self.writers.iter().enumerate() {
            let mut w = writer.lock();
            let path = seg_path(&self.dir, k, w.next_index);
            let file = create_segment(&path)?;
            w.next_index += 1;
            drop(self.disks[k].swap_file(file));
            for old in w.paths.drain(..) {
                let _ = std::fs::remove_file(old);
            }
            w.paths.push(path);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpd_common::now_nanos;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "tpd-segment-{tag}-{}-{:x}",
            std::process::id(),
            now_nanos()
        ));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn upd(txn: u64, key: u64, v: i64) -> StampedRecord {
        StampedRecord {
            end: Lsn(txn * 100 + key),
            record: LogRecord::Update {
                txn,
                table: 0,
                key,
                after: vec![v],
            },
        }
    }

    fn commit(txn: u64) -> StampedRecord {
        StampedRecord {
            end: Lsn(txn * 100 + 99),
            record: LogRecord::Commit { txn },
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_roundtrip_and_bitflip_detection() {
        let rec = upd(7, 3, -42);
        let frame = encode_frame(11, &rec);
        let (decoded, bad) = scan_frames(&frame);
        assert!(bad.is_none());
        assert_eq!(decoded, vec![(11, rec)]);

        for i in 0..frame.len() {
            let mut flipped = frame.clone();
            flipped[i] ^= 0x40;
            let (decoded, bad) = scan_frames(&flipped);
            assert!(
                decoded.is_empty() && bad == Some(0),
                "bit flip at byte {i} must invalidate the frame"
            );
        }
    }

    #[test]
    fn scan_stops_at_torn_frame_keeping_the_prefix() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&encode_frame(0, &upd(1, 0, 5)));
        bytes.extend_from_slice(&encode_frame(1, &commit(1)));
        let cut = bytes.len();
        let torn = encode_frame(2, &commit(2));
        bytes.extend_from_slice(&torn[..torn.len() / 2]);
        let (decoded, bad) = scan_frames(&bytes);
        assert_eq!(decoded.len(), 2);
        assert_eq!(bad, Some(cut));
    }

    #[test]
    fn checkpoint_roundtrip_and_corruption_rejection() {
        let data = CheckpointData {
            next_seq: 42,
            tables: vec![CheckpointTable {
                id: 0,
                name: "accounts".into(),
                rows_per_page: 16,
                next_key: 3,
                rows: vec![(0, vec![1000, 5]), (2, vec![-7])],
            }],
        };
        let bytes = encode_checkpoint(&data);
        assert_eq!(decode_checkpoint(&bytes), Some(data));
        let mut bad = bytes.clone();
        *bad.last_mut().unwrap() ^= 1;
        assert_eq!(decode_checkpoint(&bad), None);
        assert_eq!(decode_checkpoint(&bytes[..bytes.len() - 1]), None);
    }

    #[test]
    fn filewal_persists_and_reopens_merged_by_seq() {
        let dir = temp_dir("reopen");
        {
            let (wal, rec) = FileWal::open(&dir, 2, FileWal::DEFAULT_ROTATE_BYTES).expect("open");
            assert!(rec.records.is_empty());
            // Interleave seqs across stripes out of file order.
            wal.append(0, 0, &upd(1, 0, 10));
            wal.append(1, 1, &upd(1, 1, 11));
            wal.append(1, 2, &commit(1));
            wal.append(0, 3, &upd(2, 0, 20));
            wal.append(0, 4, &commit(2));
            wal.sync(0);
            wal.sync(1);
        }
        let (wal, rec) = FileWal::open(&dir, 2, FileWal::DEFAULT_ROTATE_BYTES).expect("reopen");
        assert_eq!(rec.frames, 5);
        assert_eq!(rec.torn_truncated, 0);
        let txns: Vec<Option<u64>> = rec.records.iter().map(|r| r.record.txn()).collect();
        assert_eq!(
            txns,
            vec![Some(1), Some(1), Some(1), Some(2), Some(2)],
            "merged stream is seq-ordered across stripes"
        );
        // New appends land past the recovered seqs.
        wal.append(0, 0, &upd(3, 0, 30));
        wal.sync(0);
        drop(wal);
        let (_, rec) = FileWal::open(&dir, 2, FileWal::DEFAULT_ROTATE_BYTES).expect("reopen 2");
        assert_eq!(rec.frames, 6);
        assert_eq!(rec.records.last().unwrap().record.txn(), Some(3));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_splits_segments_and_recovery_reads_across_them() {
        let dir = temp_dir("rotate");
        {
            let (wal, _) = FileWal::open(&dir, 1, 128).expect("open");
            for i in 0..20u64 {
                wal.append(0, i, &upd(i, 0, i as i64));
            }
            wal.sync(0);
        }
        let segs = std::fs::read_dir(&dir)
            .expect("ls")
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".seg"))
            .count();
        assert!(segs > 1, "tiny rotate size must produce multiple segments");
        let (_, rec) = FileWal::open(&dir, 1, 128).expect("reopen");
        assert_eq!(rec.frames, 20);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_gate_leaves_a_torn_prefix_and_recovery_drops_it() {
        let dir = temp_dir("crash");
        {
            let (wal, _) = FileWal::open(&dir, 1, FileWal::DEFAULT_ROTATE_BYTES).expect("open");
            wal.set_crash_after(2, 9);
            wal.append(0, 0, &upd(1, 0, 1));
            wal.append(0, 1, &commit(1));
            assert!(!wal.crashed());
            wal.append(0, 2, &upd(2, 0, 2)); // torn: only 9 bytes land
            assert!(wal.crashed());
            wal.append(0, 3, &commit(2)); // dropped
            wal.sync(0); // dropped
        }
        let (_, rec) = FileWal::open(&dir, 1, FileWal::DEFAULT_ROTATE_BYTES).expect("reopen");
        assert_eq!(rec.frames, 2, "only the pre-crash frames survive");
        assert_eq!(rec.torn_truncated, 1, "the torn prefix was cut off");
        assert!(crate::committed_txns(&rec.records).contains(&1));
        assert!(!crate::committed_txns(&rec.records).contains(&2));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn after_write_crash_lands_the_fatal_frame_but_drops_everything_later() {
        let dir = temp_dir("crash-aw");
        {
            let (wal, _) = FileWal::open(&dir, 1, FileWal::DEFAULT_ROTATE_BYTES).expect("open");
            wal.set_crash_at(2, 9, CrashPhase::AfterWrite);
            wal.append(0, 0, &upd(1, 0, 1));
            wal.append(0, 1, &commit(1));
            assert!(!wal.crashed());
            // Fatal frame: fully pwritten, never fdatasynced.
            wal.append(0, 2, &upd(2, 0, 2));
            assert!(wal.crashed());
            wal.append(0, 3, &commit(2)); // dropped — the device is dead
            wal.sync(0); // the sync the crash stole
        }
        let (_, rec) = FileWal::open(&dir, 1, FileWal::DEFAULT_ROTATE_BYTES).expect("reopen");
        assert_eq!(
            rec.frames, 3,
            "the unsynced fatal frame is readable in full"
        );
        assert_eq!(rec.torn_truncated, 0, "no tear: the pwrite completed");
        assert!(crate::committed_txns(&rec.records).contains(&1));
        // Txn 2's update frame landed but its commit never did: recovery
        // must still treat it as uncommitted.
        assert!(!crate::committed_txns(&rec.records).contains(&2));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_prunes_segments_and_bounds_redo() {
        let dir = temp_dir("ckpt");
        {
            let (wal, _) = FileWal::open(&dir, 2, FileWal::DEFAULT_ROTATE_BYTES).expect("open");
            wal.append(0, 0, &upd(1, 0, 1));
            wal.append(1, 1, &commit(1));
            wal.sync(0);
            wal.sync(1);
            let data = CheckpointData {
                next_seq: wal.next_seq(),
                tables: vec![CheckpointTable {
                    id: 0,
                    name: "t".into(),
                    rows_per_page: 16,
                    next_key: 1,
                    rows: vec![(0, vec![1])],
                }],
            };
            wal.checkpoint(&data).expect("checkpoint");
            wal.append(0, 2, &upd(2, 0, 2));
            wal.append(0, 3, &commit(2));
            wal.sync(0);
        }
        let (_, rec) = FileWal::open(&dir, 2, FileWal::DEFAULT_ROTATE_BYTES).expect("reopen");
        let ckpt = rec.checkpoint.expect("checkpoint present");
        assert_eq!(ckpt.tables[0].rows, vec![(0, vec![1])]);
        assert_eq!(
            rec.records.len(),
            2,
            "only post-checkpoint frames replay: {:?}",
            rec.records
        );
        assert!(crate::committed_txns(&rec.records).contains(&2));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_auto_allocates_monotone_seqs_across_reopen() {
        let dir = temp_dir("auto");
        {
            let (wal, _) = FileWal::open(&dir, 1, FileWal::DEFAULT_ROTATE_BYTES).expect("open");
            wal.append_auto(0, &upd(1, 0, 1));
            wal.append_auto(0, &commit(1));
            wal.sync(0);
        }
        {
            let (wal, rec) = FileWal::open(&dir, 1, FileWal::DEFAULT_ROTATE_BYTES).expect("reopen");
            assert_eq!(rec.frames, 2);
            wal.append_auto(0, &upd(2, 0, 2));
            wal.append_auto(0, &commit(2));
            wal.sync(0);
        }
        let (_, rec) = FileWal::open(&dir, 1, FileWal::DEFAULT_ROTATE_BYTES).expect("reopen 2");
        let txns: Vec<Option<u64>> = rec.records.iter().map(|r| r.record.txn()).collect();
        assert_eq!(txns, vec![Some(1), Some(1), Some(2), Some(2)]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
