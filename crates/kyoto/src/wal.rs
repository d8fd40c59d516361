//! Write-ahead log and verified recovery for the CacheDB.
//!
//! The paper's subject is Kyoto Cabinet — a *database* — so acknowledged
//! writes must survive a process death. This module adds the durability
//! layer: a [`Wal`] of fixed-layout checksummed records appended **outside**
//! the elided critical sections, a [`DurableCacheDb`] wrapper enforcing the
//! log → commit → acknowledge protocol, and [`recover`]/[`scan`] that
//! rebuild a fresh database from the log, truncating torn or corrupt tail
//! records and reporting what happened in a [`RecoveryReport`].
//!
//! # Record layout (48 bytes, little-endian)
//!
//! ```text
//! bytes  0..8   checksum: FNV-1a over bytes 8..40, folded as four
//!               little-endian u64 words
//! bytes  8..16  seq     (1-based, one counter for the whole log)
//! bytes 16..24  op word (low byte: 1 set, 2 remove, 3 clear, 4 abort)
//! bytes 24..32  key     (abort: the cancelled record's seq)
//! bytes 32..40  value
//! bytes 40..48  commit marker = COMMIT_MAGIC ^ seq
//! ```
//!
//! The checksum guards the header against bit rot; the commit marker —
//! derived from the record's own seq — distinguishes a fully-written record
//! from a torn tail (a partial write cannot produce a marker matching the
//! seq it also failed to write). Recovery trusts a record only when frame
//! length, op code, marker and checksum all agree.
//!
//! # Segments
//!
//! The medium is [`SEGMENTS`] independent segments. An append locks only
//! the segment its thread's `stripe_hint()` selects and draws its seq from
//! one shared counter while it holds that lock, so two threads appending at
//! once share neither a lock nor a log tail. Within a segment seqs rise;
//! across segments they interleave. Recovery reads each segment up to its
//! first frame it cannot trust (everything after a corruption in that
//! segment is unreachable, so truncation is the only sound completion),
//! merges the trusted records by seq and replays them in seq order. When
//! every segment ends at most one frame past its trusted prefix — a torn
//! tail — a seq that no segment holds belongs to an append that never
//! became durable (never committed, never acknowledged), so recovery skips
//! and counts it rather than ending the log there. Damage with frames after
//! it inside a segment may have lost acknowledged records; recovery then
//! trusts nothing at or above the lowest missing seq, the prefix one
//! sequential log would have kept.
//!
//! # Ack-after-durable protocol
//!
//! Every mutating operation on [`DurableCacheDb`]:
//!
//! 1. appends its record to the WAL (durable from this point),
//! 2. commits the in-memory operation through the elided critical sections,
//! 3. returns — the acknowledgement.
//!
//! A critical section that unwinds with a non-crash panic between 1 and 3
//! appends a *compensation* record ([`WalOp::Abort`]) cancelling the
//! in-flight record, so recovery never applies an operation whose commit
//! failed in a live (non-crashed) process. A [`LockPoison`] unwind instead
//! heals in place: poison flags are cleared and the database is rebuilt
//! from the log (see [`DurableCacheDb::heal`]), so one panicking writer
//! cannot wedge every subsequent reader.
//!
//! Durability is simulated — the "medium" is process memory that survives
//! the harness's simulated crash, not a file, and the fsync cost is
//! modelled as a fixed virtual-time charge (`WAL_FSYNC_NS`) rather than
//! real I/O. DESIGN.md §12 records these non-goals.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use ale_core::{Ale, LockPoison};
use ale_htm::inject::{self, mutated, CrashPoint, Mutation, TornMode};
use ale_sync::CachePadded;
use ale_vtime::{stripe_hint, tick, Event};

use crate::ale_db::{AleCacheDb, DbConfig};
use crate::db::{KyotoDb, Value};

/// Fixed frame size of one WAL record.
pub const RECORD_BYTES: usize = 48;

/// Segments of the log. A thread appends to segment
/// `stripe_hint() % SEGMENTS`. Two appenders share a segment only when
/// their dense stripe hints differ by a multiple of this, so it is a margin
/// against hint collisions (threads spawned between two workers push their
/// hints apart), not a count of expected appenders: the one WAL workload
/// runs two, and no other count was measured.
const SEGMENTS: usize = 8;

/// Virtual-time cost of making one record durable (the modelled fsync).
pub const WAL_FSYNC_NS: u64 = 150;

const COMMIT_MAGIC: u64 = 0xC0DE_D15C_ACED_FACE;

/// The operation a WAL record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalOp {
    /// Insert or overwrite `key` with `value`.
    Set = 1,
    /// Delete `key`.
    Remove = 2,
    /// Drop every record.
    Clear = 3,
    /// Compensation: cancel the record whose seq is in the key field (its
    /// in-memory commit panicked, so it must not be replayed).
    Abort = 4,
}

impl WalOp {
    pub fn code(self) -> u8 {
        self as u8
    }

    pub fn from_code(code: u8) -> Option<WalOp> {
        Some(match code {
            1 => WalOp::Set,
            2 => WalOp::Remove,
            3 => WalOp::Clear,
            4 => WalOp::Abort,
            _ => return None,
        })
    }
}

/// One decoded WAL record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalRecord {
    pub seq: u64,
    pub op: WalOp,
    pub key: u64,
    pub value: u64,
}

/// Why a frame failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The FNV checksum over the header does not match.
    BadChecksum,
    /// The commit marker does not match the frame's seq (torn write).
    BadMarker,
    /// The op byte is not a known [`WalOp`].
    BadOp,
}

/// FNV-1a over the header (bytes 8..40) taken as four words: xor a word
/// in, multiply by the FNV prime. For a fixed word each step is a bijection
/// of the running state, so changing any one word always changes the sum.
fn checksum(header: [u64; 4]) -> u64 {
    header.iter().fold(0xcbf2_9ce4_8422_2325, |h, &w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

impl WalRecord {
    /// Canonical frame encoding (see the module docs for the layout).
    pub fn encode(&self) -> [u8; RECORD_BYTES] {
        let mut out = [0u8; RECORD_BYTES];
        out[8..16].copy_from_slice(&self.seq.to_le_bytes());
        out[16..24].copy_from_slice(&(self.op.code() as u64).to_le_bytes());
        out[24..32].copy_from_slice(&self.key.to_le_bytes());
        out[32..40].copy_from_slice(&self.value.to_le_bytes());
        out[40..48].copy_from_slice(&(COMMIT_MAGIC ^ self.seq).to_le_bytes());
        let sum = checksum([self.seq, self.op.code() as u64, self.key, self.value]);
        out[0..8].copy_from_slice(&sum.to_le_bytes());
        out
    }

    /// Decode and fully validate one frame.
    pub fn decode(frame: &[u8; RECORD_BYTES]) -> Result<WalRecord, FrameError> {
        let rec = Self::decode_fields(frame)?;
        let sum = u64::from_le_bytes(frame[0..8].try_into().unwrap());
        // `decode_fields` accepted the op word, so it is the op's code.
        if sum != checksum([rec.seq, rec.op.code() as u64, rec.key, rec.value]) {
            return Err(FrameError::BadChecksum);
        }
        Ok(rec)
    }

    /// Decode the fields, validating marker and op but *not* the checksum.
    /// This is what the `RecoverySkipChecksum` self-test mutation (wrongly)
    /// trusts for a corrupt tail record.
    fn decode_fields(frame: &[u8; RECORD_BYTES]) -> Result<WalRecord, FrameError> {
        let seq = u64::from_le_bytes(frame[8..16].try_into().unwrap());
        let op_word = u64::from_le_bytes(frame[16..24].try_into().unwrap());
        let marker = u64::from_le_bytes(frame[40..48].try_into().unwrap());
        if marker != COMMIT_MAGIC ^ seq {
            return Err(FrameError::BadMarker);
        }
        if op_word > u8::MAX as u64 {
            return Err(FrameError::BadOp);
        }
        let op = WalOp::from_code(op_word as u8).ok_or(FrameError::BadOp)?;
        Ok(WalRecord {
            seq,
            op,
            key: u64::from_le_bytes(frame[24..32].try_into().unwrap()),
            value: u64::from_le_bytes(frame[32..40].try_into().unwrap()),
        })
    }
}

// ---------------------------------------------------------------------------
// The log
// ---------------------------------------------------------------------------

/// One segment of the simulated durable medium.
#[derive(Default)]
struct Segment {
    /// Whole frames in rising seq order, then at most one torn frame.
    log: Vec<u8>,
    appends: u64,
    /// Always `None` outside the `WalAckBeforeDurable` self-test mutation:
    /// the volatile "OS buffer" a record sits in while its caller is
    /// already acknowledged — flushed only by the segment's *next* append,
    /// so a crash in between loses an acked operation. Boxed so the mutex
    /// and everything it guards fit one cache line.
    pending: Option<Box<[u8; RECORD_BYTES]>>,
}

/// The write-ahead log: checksummed [`WalRecord`] frames over a simulated
/// durable medium of [`SEGMENTS`] segments (see the module docs).
///
/// An append locks only its own segment (never across a virtual-time
/// yield, so lanes cannot deadlock on it) and consults the crash plan:
/// [`CrashPoint::WalAppend`] before anything is written and
/// [`CrashPoint::MidRecord`] between the frame's first and last byte —
/// the latter leaves a torn frame at the end of its segment, per the
/// planned [`TornMode`]. Once a crash has fired the medium is frozen: any
/// further append raises [`ale_htm::InjectedCrash`], so post-mortem work
/// can never extend a dead process's log.
///
/// Every append writes its segment's mutex and the fields it guards, so
/// each segment owns one padded line; the seq counter, which every append
/// also writes, owns another.
#[derive(Default)]
pub struct Wal {
    /// Seqs handed out so far: the next append gets `issued + 1`.
    issued: CachePadded<AtomicU64>,
    segments: [CachePadded<Mutex<Segment>>; SEGMENTS],
}

fn wal_label() -> u16 {
    static LABEL: OnceLock<u16> = OnceLock::new();
    *LABEL.get_or_init(|| ale_trace::label_id("wal"))
}

/// Torn-write damage: `Truncate` keeps a 20-byte prefix (mid-header), `Flip`
/// lands all 48 bytes but corrupts one key byte and one value byte. Both
/// are deterministic, so crash schedules replay bit-identically.
fn torn_bytes(frame: &[u8; RECORD_BYTES], mode: TornMode) -> Vec<u8> {
    match mode {
        TornMode::Truncate => frame[..20].to_vec(),
        TornMode::Flip => {
            let mut out = frame.to_vec();
            out[30] ^= 0x40; // key bits 48..56: a garbage keyspace
            out[36] ^= 0x5A; // value bits 32..40
            out
        }
    }
}

fn lock(segment: &Mutex<Segment>) -> MutexGuard<'_, Segment> {
    segment.lock().unwrap_or_else(|p| p.into_inner())
}

/// Frames a run of `bytes` untrusted bytes counts as (a partial frame is
/// one).
fn frames_in(bytes: usize) -> u64 {
    (bytes as u64).div_ceil(RECORD_BYTES as u64)
}

fn seq_of(frame: &[u8]) -> u64 {
    u64::from_le_bytes(frame[8..16].try_into().unwrap())
}

impl Wal {
    pub fn new() -> Wal {
        Wal::default()
    }

    /// Every segment, locked in index order: a consistent cut. An append
    /// draws its seq and writes its frame under one segment lock, so once
    /// the cut holds them all, every seq drawn so far has been written to
    /// its segment, whole or torn.
    fn lock_all(&self) -> Vec<MutexGuard<'_, Segment>> {
        self.segments.iter().map(|s| lock(s)).collect()
    }

    /// Append one record, returning its seq. Durable on return (modulo the
    /// `WalAckBeforeDurable` self-test mutation). May raise
    /// [`ale_htm::InjectedCrash`] per the installed crash plan, or when the
    /// process already crashed (the medium is frozen).
    ///
    /// # Panics
    ///
    /// Inside an emulated HTM transaction: an aborted body re-runs, so the
    /// record would be written once per attempt.
    pub fn append(&self, op: WalOp, key: u64, value: u64) -> u64 {
        self.append_in(stripe_hint() % SEGMENTS, op, key, value)
    }

    fn append_in(&self, segment: usize, op: WalOp, key: u64, value: u64) -> u64 {
        assert!(
            !ale_htm::in_txn(),
            "Wal::append inside an HTM transaction: the write would repeat on every abort"
        );
        if inject::crashed() {
            inject::crash_now();
        }
        inject::crash_at(CrashPoint::WalAppend);
        let seq;
        {
            let mut g = lock(&self.segments[segment]);
            // Relaxed: the counter only has to hand out distinct, rising
            // seqs, which its modification order does; drawing under the
            // segment lock is what makes `lock_all` a consistent cut.
            seq = self.issued.fetch_add(1, Ordering::Relaxed) + 1;
            let frame = WalRecord {
                seq,
                op,
                key,
                value,
            }
            .encode();
            if let Some(mode) = inject::crash_at_mid_record() {
                g.log.extend_from_slice(&torn_bytes(&frame, mode));
                drop(g);
                inject::crash_now();
            }
            if mutated(Mutation::WalAckBeforeDurable) {
                if let Some(flushed) = g.pending.replace(Box::new(frame)) {
                    g.log.extend_from_slice(flushed.as_slice());
                }
            } else {
                g.log.extend_from_slice(&frame);
            }
            g.appends += 1;
        }
        // The modelled fsync: charged outside the lock so no lane ever
        // yields while holding it.
        tick(Event::LocalWork(WAL_FSYNC_NS));
        ale_trace::emit(ale_trace::TraceEvent::wal_fsync(
            wal_label(),
            op.code(),
            seq,
        ));
        seq
    }

    /// Append a compensation record cancelling `target_seq`.
    pub fn append_abort(&self, target_seq: u64) -> u64 {
        self.append(WalOp::Abort, target_seq, 0)
    }

    /// The durable bytes as one image, the one [`scan`] reads: every
    /// segment's whole frames merged by seq from a consistent cut, then the
    /// segments' torn tails. For a crash-free log these are the frames of
    /// one sequential log in seq order.
    pub fn bytes(&self) -> Vec<u8> {
        let segs = self.lock_all();
        let whole: Vec<&[u8]> = segs
            .iter()
            .map(|g| &g.log[..g.log.len() / RECORD_BYTES * RECORD_BYTES])
            .collect();
        let mut out = Vec::with_capacity(segs.iter().map(|g| g.log.len()).sum());
        let mut at = [0usize; SEGMENTS];
        // A k-way merge on the frames' seq fields, trusted or not, so each
        // segment's own order survives even past a corrupt frame.
        while let Some(s) = (0..SEGMENTS)
            .filter(|&s| at[s] < whole[s].len())
            .min_by_key(|&s| seq_of(&whole[s][at[s]..]))
        {
            out.extend_from_slice(&whole[s][at[s]..at[s] + RECORD_BYTES]);
            at[s] += RECORD_BYTES;
        }
        for (g, w) in segs.iter().zip(&whole) {
            out.extend_from_slice(&g.log[w.len()..]);
        }
        out
    }

    /// Durable bytes written so far.
    pub fn len(&self) -> usize {
        self.segments.iter().map(|s| lock(s).log.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records appended (acknowledged fsyncs) so far.
    pub fn appends(&self) -> u64 {
        self.segments.iter().map(|s| lock(s).appends).sum()
    }

    /// Recovery's read of the medium, from a consistent cut: each
    /// segment's trusted prefix, merged by seq and cut at the first seq the
    /// medium cannot vouch for, with compensation records resolved. With
    /// `rewind`, each segment is cut back to what was trusted and the seq
    /// counter to the last trusted seq, so appends after recovery continue
    /// above it.
    fn read(&self, rewind: bool) -> (Vec<WalRecord>, RecoveryReport) {
        let mut segs = self.lock_all();
        let mut prefixes: Vec<Prefix> = segs.iter().map(|g| trusted_prefix(&g.log)).collect();
        let mut gapless = prefixes.iter().all(|p| p.in_order);
        let mut merged: Vec<WalRecord> = prefixes
            .iter()
            .flat_map(|p| p.records.iter().copied())
            .collect();
        // Stable, so the already sorted runs merge in linear passes.
        merged.sort_by_key(|r| r.seq);
        // The lowest seq not trusted in any segment, if the medium sets one.
        let mut limit = u64::MAX;
        // Two segments holding one seq: the medium disagrees with itself
        // from that seq on.
        if let Some(w) = merged.windows(2).find(|w| w[0].seq == w[1].seq) {
            limit = w[0].seq;
            gapless = false;
        }
        // More than one frame past a segment's trusted prefix is damage
        // inside the segment, not a torn tail: the frames lost there were
        // written whole and may have been acknowledged, so a missing seq
        // ends the log, as it would have ended one sequential log.
        let damaged = segs
            .iter()
            .zip(&prefixes)
            .any(|(g, p)| g.log.len() - p.valid_len > RECORD_BYTES);
        if damaged {
            if let Some(i) = merged.iter().zip(1..).position(|(r, seq)| r.seq != seq) {
                limit = limit.min(i as u64 + 1);
            }
        }
        merged.truncate(merged.partition_point(|r| r.seq < limit));
        for p in &mut prefixes {
            let keep = p.records.partition_point(|r| r.seq < limit);
            p.records.truncate(keep);
            p.valid_len = keep * RECORD_BYTES;
        }
        let truncated = segs
            .iter()
            .zip(&prefixes)
            .map(|(g, p)| frames_in(g.log.len() - p.valid_len))
            .sum();
        let (ops, report) = resolve(&merged, truncated, gapless);
        if rewind {
            for (g, p) in segs.iter_mut().zip(&prefixes) {
                g.log.truncate(p.valid_len);
                g.pending = None;
            }
            self.issued.store(report.last_seq, Ordering::Relaxed);
        }
        (ops, report)
    }
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

/// What recovery found in the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// State-changing records replayed into the fresh database.
    pub applied: u64,
    /// Records read but deliberately not applied: compensation markers and
    /// the records they cancel.
    pub ignored: u64,
    /// Torn/corrupt records dropped from segment tails (a partial frame
    /// counts as one).
    pub truncated: u64,
    /// Seqs below `last_seq` that no segment holds. Recovery skips one only
    /// when every segment ends in at most a torn frame, so it belongs to an
    /// append that never became durable — never committed or acknowledged.
    /// Always 0 from [`scan`], which stops at a missing seq.
    pub missing: u64,
    /// Seq of the last trusted record (0 = empty log).
    pub last_seq: u64,
    /// Every segment's seqs rise and no two segments hold one seq ([`scan`]:
    /// the image's seqs are 1, 2, 3, … up to its first untrusted frame).
    /// Anything else means the medium lost or invented a record — always a
    /// violation, since the writer draws each seq once, under its
    /// segment's lock. Recovery's skipped seqs are counted in `missing`.
    pub gapless: bool,
}

/// A [`scan`] result: the operations to replay, in order, plus the report
/// and the valid prefix geometry.
#[derive(Debug)]
pub struct ScanResult {
    /// Trusted, uncancelled, state-changing records in seq order.
    pub ops: Vec<WalRecord>,
    pub report: RecoveryReport,
    /// Byte length of the trusted prefix.
    pub valid_len: usize,
    /// The seq an append after recovery should use.
    pub next_seq: u64,
}

/// The trusted frames at the start of one log image.
struct Prefix {
    records: Vec<WalRecord>,
    /// Byte length of the trusted frames.
    valid_len: usize,
    /// False if the scan stopped at a frame whose seq does not rise.
    in_order: bool,
}

/// Decode frames until the first torn or corrupt one, or one whose seq is
/// not above its predecessor's. Never panics and never trusts bytes past
/// the first such frame, whatever the input.
fn trusted_prefix(log: &[u8]) -> Prefix {
    let mut records: Vec<WalRecord> = Vec::new();
    let mut in_order = true;
    let mut off = 0;
    while off + RECORD_BYTES <= log.len() {
        let frame: &[u8; RECORD_BYTES] = log[off..off + RECORD_BYTES].try_into().unwrap();
        let decoded = match WalRecord::decode(frame) {
            Ok(r) => Some(r),
            // Self-test mutation: a complete frame whose checksum fails is
            // applied anyway instead of truncating the tail.
            Err(FrameError::BadChecksum) if mutated(Mutation::RecoverySkipChecksum) => {
                WalRecord::decode_fields(frame).ok()
            }
            Err(_) => None,
        };
        match decoded {
            Some(r) if r.seq > records.last().map_or(0, |p| p.seq) => {
                records.push(r);
                off += RECORD_BYTES;
            }
            Some(_) => {
                in_order = false;
                break;
            }
            None => break,
        }
    }
    Prefix {
        records,
        valid_len: off,
        in_order,
    }
}

/// Resolve compensation records over `records` (distinct seqs, rising) and
/// report.
fn resolve(
    records: &[WalRecord],
    truncated: u64,
    gapless: bool,
) -> (Vec<WalRecord>, RecoveryReport) {
    let cancelled: std::collections::HashSet<u64> = records
        .iter()
        .filter(|r| r.op == WalOp::Abort)
        .map(|r| r.key)
        .collect();
    let ops: Vec<WalRecord> = records
        .iter()
        .filter(|r| r.op != WalOp::Abort && !cancelled.contains(&r.seq))
        .copied()
        .collect();
    let last_seq = records.last().map_or(0, |r| r.seq);
    let report = RecoveryReport {
        applied: ops.len() as u64,
        ignored: records.len() as u64 - ops.len() as u64,
        truncated,
        missing: last_seq - records.len() as u64,
        last_seq,
        gapless,
    };
    (ops, report)
}

/// Scan one log image, such as [`Wal::bytes`]: its frames numbered 1, 2,
/// 3, … up to the first torn or corrupt one, with compensation records
/// resolved. A seq other than the next one stops the scan and clears
/// `gapless`. Never panics, whatever the input.
pub fn scan(log: &[u8]) -> ScanResult {
    let mut prefix = trusted_prefix(log);
    let mut gapless = prefix.in_order;
    if let Some(i) = prefix
        .records
        .iter()
        .zip(1..)
        .position(|(r, seq)| r.seq != seq)
    {
        prefix.records.truncate(i);
        prefix.valid_len = i * RECORD_BYTES;
        gapless = false;
    }
    let truncated = frames_in(log.len() - prefix.valid_len);
    let (ops, report) = resolve(&prefix.records, truncated, gapless);
    ScanResult {
        ops,
        report,
        valid_len: prefix.valid_len,
        next_seq: report.last_seq + 1,
    }
}

fn replay_into(db: &AleCacheDb, ops: &[WalRecord], skip_seq: Option<u64>) {
    for r in ops {
        if Some(r.seq) == skip_seq {
            continue;
        }
        match r.op {
            WalOp::Set => {
                db.set(r.key, r.value);
            }
            WalOp::Remove => {
                db.remove(r.key);
            }
            WalOp::Clear => db.clear(),
            WalOp::Abort => {}
        }
    }
}

// ---------------------------------------------------------------------------
// The durable database
// ---------------------------------------------------------------------------

/// [`AleCacheDb`] behind the write-ahead protocol: every mutation is
/// logged before it commits and acknowledged only after both, so a crash
/// at any point loses at most unacknowledged work. See the module docs.
pub struct DurableCacheDb {
    db: AleCacheDb,
    wal: Arc<Wal>,
}

impl DurableCacheDb {
    /// Wrap a fresh database over (typically empty) log `wal`. To rebuild
    /// from an existing log use [`recover`].
    pub fn new(ale: &Arc<Ale>, config: DbConfig, wal: Arc<Wal>) -> Self {
        DurableCacheDb {
            db: AleCacheDb::new(ale, config),
            wal,
        }
    }

    /// The log this database appends to.
    pub fn wal(&self) -> &Arc<Wal> {
        &self.wal
    }

    /// The wrapped in-memory database.
    pub fn inner(&self) -> &AleCacheDb {
        &self.db
    }

    /// Post-quiescence oracle passthrough.
    pub fn versions_even(&self) -> bool {
        self.db.versions_even()
    }

    /// Heal after a poisoning panic: clear every poison flag and rebuild
    /// the whole database from the log (skipping `skip_seq`, the healing
    /// caller's own in-flight record — it will retry its operation
    /// itself). Stop-the-world by intent: each replayed operation runs
    /// under the normal exclusive critical sections, and concurrent
    /// in-flight operations may observe the rebuild mid-way; heal follows
    /// a panic, which is already an exceptional, correctness-over-service
    /// path.
    pub fn heal(&self, skip_seq: Option<u64>) -> RecoveryReport {
        self.db.clear_all_poison();
        let (ops, report) = self.wal.read(false);
        self.db.clear();
        replay_into(&self.db, &ops, skip_seq);
        report
    }

    /// Run a logged mutation's critical-section work. A [`LockPoison`]
    /// unwind heals and retries once; any other non-crash unwind appends a
    /// compensation record for `seq` (the commit did not happen, so
    /// recovery must not replay it) and resumes unwinding.
    fn run_logged<T>(&self, seq: u64, f: impl Fn() -> T) -> T {
        match catch_unwind(AssertUnwindSafe(&f)) {
            Ok(v) => v,
            Err(payload) => {
                if payload.downcast_ref::<ale_htm::InjectedCrash>().is_some() {
                    resume_unwind(payload);
                }
                if payload.downcast_ref::<LockPoison>().is_some() {
                    self.heal(Some(seq));
                    return f();
                }
                self.wal.append_abort(seq);
                resume_unwind(payload)
            }
        }
    }

    /// Run a read-only operation; a [`LockPoison`] unwind heals and
    /// retries once (a panicking writer must not wedge readers).
    fn run_read<T>(&self, f: impl Fn() -> T) -> T {
        match catch_unwind(AssertUnwindSafe(&f)) {
            Ok(v) => v,
            Err(payload) => {
                if payload.downcast_ref::<LockPoison>().is_some() {
                    self.heal(None);
                    return f();
                }
                resume_unwind(payload)
            }
        }
    }
}

impl KyotoDb for DurableCacheDb {
    fn set(&self, key: u64, value: Value) -> bool {
        let seq = self.wal.append(WalOp::Set, key, value);
        inject::crash_at(CrashPoint::PreCommit);
        let newly = self.run_logged(seq, || self.db.set(key, value));
        inject::crash_at(CrashPoint::PostCommit);
        newly
    }

    fn get(&self, key: u64) -> Option<Value> {
        self.run_read(|| self.db.get(key))
    }

    fn remove(&self, key: u64) -> bool {
        let seq = self.wal.append(WalOp::Remove, key, 0);
        inject::crash_at(CrashPoint::PreCommit);
        let removed = self.run_logged(seq, || self.db.remove(key));
        inject::crash_at(CrashPoint::PostCommit);
        removed
    }

    fn count(&self) -> usize {
        self.run_read(|| self.db.count())
    }

    fn clear(&self) {
        let seq = self.wal.append(WalOp::Clear, 0, 0);
        inject::crash_at(CrashPoint::PreCommit);
        self.run_logged(seq, || self.db.clear());
        inject::crash_at(CrashPoint::PostCommit);
    }
}

/// Rebuild a fresh database from `wal` — the restart path after a crash.
///
/// Reads every segment up to its first untrusted frame, merges the records
/// by seq (see the module docs for where the merge stops), cuts each
/// segment back to what it trusted (so post-recovery appends continue above
/// the last trusted seq), replays the trusted records in seq order, and
/// reports. Emits `recovery_applied` (always) and `recovery_truncated`
/// (when anything was dropped) trace events.
pub fn recover(
    ale: &Arc<Ale>,
    config: DbConfig,
    wal: Arc<Wal>,
) -> (DurableCacheDb, RecoveryReport) {
    let (ops, report) = wal.read(true);
    let db = DurableCacheDb::new(ale, config, wal);
    replay_into(&db.db, &ops, None);
    ale_trace::emit(ale_trace::TraceEvent::recovery_applied(
        wal_label(),
        report.applied,
    ));
    if report.truncated > 0 || report.ignored > 0 {
        ale_trace::emit(ale_trace::TraceEvent::recovery_truncated(
            wal_label(),
            report.truncated,
            report.ignored,
        ));
    }
    (db, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64, op: WalOp, key: u64, value: u64) -> WalRecord {
        WalRecord {
            seq,
            op,
            key,
            value,
        }
    }

    #[test]
    fn record_round_trips() {
        for (i, op) in [WalOp::Set, WalOp::Remove, WalOp::Clear, WalOp::Abort]
            .into_iter()
            .enumerate()
        {
            let r = rec(i as u64 + 1, op, 0xABCD + i as u64, 0x1234_5678 + i as u64);
            let frame = r.encode();
            assert_eq!(WalRecord::decode(&frame), Ok(r));
        }
    }

    #[test]
    fn any_single_byte_flip_is_detected() {
        let frame = rec(7, WalOp::Set, 42, 99).encode();
        for i in 0..RECORD_BYTES {
            let mut bad = frame;
            bad[i] ^= 0x01;
            assert!(
                WalRecord::decode(&bad).is_err(),
                "flip at byte {i} must not decode"
            );
        }
    }

    #[test]
    fn scan_truncates_partial_tail_and_keeps_prefix() {
        let mut log = Vec::new();
        log.extend_from_slice(&rec(1, WalOp::Set, 1, 10).encode());
        log.extend_from_slice(&rec(2, WalOp::Set, 2, 20).encode());
        log.extend_from_slice(&rec(3, WalOp::Remove, 1, 0).encode()[..20]);
        let s = scan(&log);
        assert_eq!(s.ops.len(), 2);
        assert_eq!(s.report.applied, 2);
        assert_eq!(s.report.truncated, 1);
        assert_eq!(s.report.last_seq, 2);
        assert!(s.report.gapless);
        assert_eq!(s.valid_len, 2 * RECORD_BYTES);
        assert_eq!(s.next_seq, 3);
    }

    #[test]
    fn scan_stops_at_corrupt_frame_and_drops_the_rest() {
        let mut log = Vec::new();
        log.extend_from_slice(&rec(1, WalOp::Set, 1, 10).encode());
        let mut bad = rec(2, WalOp::Set, 2, 20).encode();
        bad[33] ^= 0xFF; // value corrupted: checksum fails
        log.extend_from_slice(&bad);
        log.extend_from_slice(&rec(3, WalOp::Set, 3, 30).encode());
        let s = scan(&log);
        assert_eq!(s.ops.len(), 1);
        assert_eq!(
            s.report.truncated, 2,
            "the corrupt frame and everything after"
        );
        assert!(s.report.gapless);
    }

    #[test]
    fn scan_detects_interior_seq_gap() {
        let mut log = Vec::new();
        log.extend_from_slice(&rec(1, WalOp::Set, 1, 10).encode());
        log.extend_from_slice(&rec(3, WalOp::Set, 3, 30).encode());
        let s = scan(&log);
        assert_eq!(s.ops.len(), 1);
        assert!(!s.report.gapless);
    }

    #[test]
    fn the_flip_torn_pattern_fails_the_checksum() {
        for i in 0..512u64 {
            let r = rec(
                i + 1,
                WalOp::Set,
                i.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                !i << 7,
            );
            let torn = torn_bytes(&r.encode(), TornMode::Flip);
            let frame: &[u8; RECORD_BYTES] = torn.as_slice().try_into().unwrap();
            assert_eq!(
                WalRecord::decode(frame),
                Err(FrameError::BadChecksum),
                "{r:?}"
            );
        }
    }
    #[test]
    fn abort_cancels_its_target() {
        let mut log = Vec::new();
        log.extend_from_slice(&rec(1, WalOp::Set, 1, 10).encode());
        log.extend_from_slice(&rec(2, WalOp::Set, 2, 20).encode());
        log.extend_from_slice(&rec(3, WalOp::Abort, 2, 0).encode());
        let s = scan(&log);
        assert_eq!(s.ops.len(), 1);
        assert_eq!(s.ops[0].key, 1);
        assert_eq!(s.report.applied, 1);
        assert_eq!(s.report.ignored, 2, "the cancelled record and its marker");
        assert_eq!(s.report.last_seq, 3);
    }

    #[test]
    fn each_segment_and_the_seq_counter_own_a_line() {
        assert!(std::mem::size_of::<Mutex<Segment>>() <= 64);
        assert!(std::mem::align_of::<Wal>() >= 64);
        assert_eq!(
            std::mem::size_of::<Wal>(),
            (SEGMENTS + 1) * std::mem::align_of::<Wal>()
        );
    }
    #[test]
    fn scan_of_garbage_never_panics() {
        for len in [0usize, 1, 20, 47, 48, 49, 96, 200] {
            let junk: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let s = scan(&junk);
            assert_eq!(s.report.applied, 0);
            assert_eq!(s.valid_len, 0);
        }
    }

    fn config() -> DbConfig {
        DbConfig {
            buckets_per_slot: 64,
            capacity_per_slot: 4096,
            payload_cells: 0,
        }
    }

    fn recover_fresh(wal: &Arc<Wal>) -> (DurableCacheDb, RecoveryReport) {
        let ale = Ale::new(
            ale_core::AleConfig::new(ale_vtime::Platform::testbed()).with_seed(7),
            ale_core::StaticPolicy::new(3, 8),
        );
        recover(&ale, config(), Arc::clone(wal))
    }

    fn segment_lens(wal: &Wal) -> Vec<usize> {
        wal.segments.iter().map(|s| lock(s).log.len()).collect()
    }

    #[test]
    fn two_threads_on_two_segments_recover_to_the_live_db() {
        let ale = Ale::new(
            ale_core::AleConfig::new(ale_vtime::Platform::testbed()).with_seed(3),
            ale_core::StaticPolicy::new(3, 8),
        );
        let wal = Arc::new(Wal::new());
        let db = DurableCacheDb::new(&ale, config(), Arc::clone(&wal));
        // Two fresh threads almost always get neighbouring stripe hints;
        // a pair that lands on one segment does no work and is replaced.
        let segs = loop {
            let picked = [SEGMENTS; 2].map(std::sync::atomic::AtomicUsize::new);
            let both = std::sync::Barrier::new(2);
            std::thread::scope(|s| {
                for t in 0..2u64 {
                    let (picked, both, db) = (&picked, &both, &db);
                    s.spawn(move || {
                        picked[t as usize].store(stripe_hint() % SEGMENTS, Ordering::Relaxed);
                        both.wait();
                        let [a, b] = picked.each_ref().map(|p| p.load(Ordering::Relaxed));
                        if a == b {
                            return;
                        }
                        for i in 0..400u64 {
                            let key = 2 * (i % 50) + t;
                            match i % 7 {
                                3 => {
                                    db.remove(key);
                                }
                                _ => {
                                    db.set(key, i * 1000 + t);
                                }
                            }
                        }
                    });
                }
            });
            let [a, b] = picked.map(|p| p.into_inner());
            if a != b {
                break [a, b];
            }
        };
        let lens = segment_lens(&wal);
        assert!(lens[segs[0]] > 0 && lens[segs[1]] > 0, "{lens:?}");
        assert_eq!(wal.appends(), 800);

        let (rdb, report) = recover_fresh(&wal);
        assert!(report.gapless, "{report:?}");
        assert_eq!((report.truncated, report.missing), (0, 0), "{report:?}");
        assert_eq!(report.last_seq, 800);
        assert_eq!(rdb.count(), db.count());
        for key in 0..100 {
            assert_eq!(rdb.get(key), db.get(key), "key {key}");
        }
    }

    #[test]
    fn a_torn_segment_tail_below_another_segments_seq_is_skipped() {
        let wal = Arc::new(Wal::new());
        assert_eq!(wal.append_in(0, WalOp::Set, 1, 10), 1);
        assert_eq!(wal.append_in(1, WalOp::Set, 2, 20), 2);
        // Seq 3 is drawn on segment 0 and torn there (the writer died
        // mid-frame); segment 1's append of seq 4 completes.
        let torn = rec(3, WalOp::Set, 3, 30).encode();
        assert_eq!(wal.issued.fetch_add(1, Ordering::Relaxed), 2);
        lock(&wal.segments[0])
            .log
            .extend_from_slice(&torn_bytes(&torn, TornMode::Truncate));
        assert_eq!(wal.append_in(1, WalOp::Set, 4, 40), 4);

        let (rdb, report) = recover_fresh(&wal);
        assert_eq!(
            report,
            RecoveryReport {
                applied: 3,
                ignored: 0,
                truncated: 1,
                missing: 1,
                last_seq: 4,
                gapless: true,
            }
        );
        assert_eq!(rdb.get(4), Some(40), "the higher seq is applied");
        assert_eq!(rdb.get(3), None, "the torn frame is not");
        assert_eq!(rdb.count(), 3);

        // Recovery cut segment 0 back to its trusted frame, and appends
        // continue above the last trusted seq.
        assert_eq!(segment_lens(&wal)[..2], [RECORD_BYTES, 2 * RECORD_BYTES]);
        assert!(rdb.set(5, 50));
        let (again, report) = recover_fresh(&wal);
        assert_eq!(
            (report.last_seq, report.missing, report.truncated),
            (5, 1, 0)
        );
        assert_eq!(again.get(5), Some(50));
    }

    /// Seqs 1..=n, seq `s` on segment `s % segments`.
    fn striped_wal(n: u64, segments: u64) -> Wal {
        let wal = Wal::new();
        for seq in 1..=n {
            assert_eq!(
                wal.append_in((seq % segments) as usize, WalOp::Set, seq, seq * 10),
                seq
            );
        }
        wal
    }

    #[test]
    fn a_flipped_frame_stops_only_its_own_segment() {
        let wal = Arc::new(striped_wal(6, 2));
        // Segment 1 holds 1, 3, 5: corrupt the value of its last frame.
        lock(&wal.segments[1]).log[2 * RECORD_BYTES + 33] ^= 0xFF;
        let (rdb, report) = recover_fresh(&wal);
        assert_eq!(
            report,
            RecoveryReport {
                applied: 5,
                ignored: 0,
                truncated: 1,
                missing: 1,
                last_seq: 6,
                gapless: true,
            }
        );
        assert_eq!((rdb.get(5), rdb.get(6)), (None, Some(60)));
        assert_eq!(rdb.count(), 5);
    }

    #[test]
    fn damage_inside_a_segment_keeps_only_the_prefix_below_it() {
        let wal = Arc::new(striped_wal(6, 2));
        // Segment 1 holds 1, 3, 5: corrupt 3, which has 5 after it. 4 and
        // 6 on segment 0 were written after the lost 3, so they go too.
        lock(&wal.segments[1]).log[RECORD_BYTES + 33] ^= 0xFF;
        let (rdb, report) = recover_fresh(&wal);
        assert_eq!(
            report,
            RecoveryReport {
                applied: 2,
                ignored: 0,
                truncated: 4,
                missing: 0,
                last_seq: 2,
                gapless: true,
            }
        );
        for key in 1..=6 {
            assert_eq!(rdb.get(key), (key <= 2).then_some(key * 10), "key {key}");
        }
        assert_eq!(segment_lens(&wal)[..2], [RECORD_BYTES, RECORD_BYTES]);
    }

    #[test]
    fn a_flip_anywhere_loses_its_frame_and_never_a_frame_written_before_it() {
        let n = 12u64;
        let segments = 3u64;
        for segment in 0..segments as usize {
            let len = segment_lens(&striped_wal(n, segments))[segment];
            for pos in 0..len {
                let wal = striped_wal(n, segments);
                let hit = {
                    let mut g = lock(&wal.segments[segment]);
                    let hit = seq_of(&g.log[pos / RECORD_BYTES * RECORD_BYTES..]);
                    g.log[pos] ^= 0x10;
                    hit
                };
                let last = pos + RECORD_BYTES >= len;
                let (ops, report) = wal.read(false);
                let seqs: Vec<u64> = ops.iter().map(|r| r.seq).collect();
                // A torn-looking tail skips its seq; anything else keeps the
                // prefix below it.
                let want: Vec<u64> = if last {
                    (1..=n).filter(|&s| s != hit).collect()
                } else {
                    (1..hit).collect()
                };
                assert_eq!(seqs, want, "segment {segment} byte {pos}");
                assert!(report.gapless, "segment {segment} byte {pos}");
            }
        }
    }

    #[test]
    fn one_seq_in_two_segments_is_not_gapless() {
        let wal = Arc::new(Wal::new());
        wal.append_in(0, WalOp::Set, 1, 10);
        wal.append_in(1, WalOp::Set, 2, 20);
        wal.append_in(0, WalOp::Set, 3, 30);
        lock(&wal.segments[2])
            .log
            .extend_from_slice(&rec(2, WalOp::Set, 9, 90).encode());
        let (rdb, report) = recover_fresh(&wal);
        assert!(!report.gapless);
        assert_eq!(
            (report.applied, report.truncated, report.last_seq),
            (1, 3, 1)
        );
        assert_eq!(rdb.count(), 1, "nothing at or above the doubled seq");
    }

    #[test]
    fn the_merged_image_scans_to_what_recovery_replays() {
        let wal = Arc::new(Wal::new());
        let mut single = Vec::new();
        let ops = [
            WalOp::Set,
            WalOp::Set,
            WalOp::Remove,
            WalOp::Clear,
            WalOp::Set,
        ];
        for seq in 1..=60u64 {
            let (op, key) = match seq {
                s if s % 11 == 0 => (WalOp::Abort, s - 3),
                s => (ops[s as usize % ops.len()], s % 13),
            };
            let segment = (seq * 7 % 5) as usize;
            assert_eq!(wal.append_in(segment, op, key, seq), seq);
            single.extend_from_slice(&rec(seq, op, key, seq).encode());
        }
        assert!(segment_lens(&wal).iter().filter(|&&n| n > 0).count() > 2);
        let image = wal.bytes();
        assert_eq!(image, single, "one sequential log's frames, in seq order");
        let scanned = scan(&image);
        let (replayed, report) = wal.read(false);
        assert_eq!(scanned.ops, replayed);
        assert_eq!(scanned.report, report);
        assert!(report.gapless && report.missing == 0 && report.ignored == 10);
    }
}
