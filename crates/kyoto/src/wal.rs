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
//! bytes  0..8   FNV-1a checksum over bytes 8..40
//! bytes  8..16  seq     (1-based, gapless)
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
//! length, op code, marker and checksum all agree, and stops at the first
//! frame that doesn't: everything after a corruption is unreachable by
//! construction (the writer is strictly sequential), so truncation is the
//! only sound completion.
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
use std::sync::{Arc, Mutex, OnceLock};

use ale_core::{Ale, LockPoison};
use ale_htm::inject::{self, mutated, CrashPoint, Mutation, TornMode};
use ale_sync::CachePadded;
use ale_vtime::{tick, Event};

use crate::ale_db::{AleCacheDb, DbConfig};
use crate::db::{KyotoDb, Value};

/// Fixed frame size of one WAL record.
pub const RECORD_BYTES: usize = 48;

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

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
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
        let sum = fnv1a(&out[8..40]);
        out[0..8].copy_from_slice(&sum.to_le_bytes());
        out
    }

    /// Decode and fully validate one frame.
    pub fn decode(frame: &[u8; RECORD_BYTES]) -> Result<WalRecord, FrameError> {
        let rec = Self::decode_fields(frame)?;
        let sum = u64::from_le_bytes(frame[0..8].try_into().unwrap());
        if sum != fnv1a(&frame[8..40]) {
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

struct WalInner {
    /// The simulated durable medium.
    log: Vec<u8>,
    next_seq: u64,
    appends: u64,
    /// Always `None` outside the `WalAckBeforeDurable` self-test mutation:
    /// the volatile "OS buffer" a record sits in while its caller is
    /// already acknowledged — flushed only by the *next* append, so a
    /// crash in between loses an acked operation. Boxed so the mutex and
    /// everything it guards fit one cache line.
    pending: Option<Box<[u8; RECORD_BYTES]>>,
}

/// The write-ahead log: an append-only sequence of checksummed
/// [`WalRecord`] frames over a simulated durable medium.
///
/// Appends are serialised by an internal mutex (never held across a
/// virtual-time yield, so lanes cannot deadlock on it) and consult the
/// crash plan: [`CrashPoint::WalAppend`] before anything is written and
/// [`CrashPoint::MidRecord`] between the frame's first and last byte —
/// the latter leaves a torn tail record behind, per the planned
/// [`TornMode`]. Once a crash has fired the medium is frozen: any further
/// append raises [`ale_htm::InjectedCrash`], so post-mortem work can never
/// extend a dead process's log.
///
/// Every append writes the mutex and the fields it guards, so they share
/// one cache line, and the padding gives that line to them alone.
#[derive(Default)]
pub struct Wal {
    inner: CachePadded<Mutex<WalInner>>,
}

impl Default for WalInner {
    fn default() -> Self {
        WalInner {
            log: Vec::new(),
            next_seq: 1,
            appends: 0,
            pending: None,
        }
    }
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

impl Wal {
    pub fn new() -> Wal {
        Wal::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, WalInner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
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
            let mut g = self.lock();
            seq = g.next_seq;
            let frame = WalRecord {
                seq,
                op,
                key,
                value,
            }
            .encode();
            if let Some(mode) = inject::crash_at_mid_record() {
                let torn = torn_bytes(&frame, mode);
                g.log.extend_from_slice(&torn);
                g.next_seq += 1;
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
            g.next_seq += 1;
            g.appends += 1;
        }
        // The modelled fsync: charged outside the mutex so no lane ever
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

    /// Snapshot of the durable bytes (what recovery reads).
    pub fn bytes(&self) -> Vec<u8> {
        self.lock().log.clone()
    }

    /// Durable bytes written so far.
    pub fn len(&self) -> usize {
        self.lock().log.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records appended (acknowledged fsyncs) so far.
    pub fn appends(&self) -> u64 {
        self.lock().appends
    }

    /// Rewind the medium to a scan's valid prefix so a recovered database
    /// can keep appending with gapless seqs.
    fn reset_to(&self, valid_len: usize, next_seq: u64) {
        let mut g = self.lock();
        g.log.truncate(valid_len);
        g.next_seq = next_seq;
        g.pending = None;
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
    /// Torn/corrupt tail records dropped (a partial frame counts as one).
    pub truncated: u64,
    /// Seq of the last trusted record (0 = empty log).
    pub last_seq: u64,
    /// Seqs ran 1, 2, 3, … up to the truncation point. A gap means the
    /// medium lost an interior record — always a violation, since the
    /// writer is strictly sequential.
    pub gapless: bool,
}

/// A [`scan`] result: the operations to replay, in order, plus the report
/// and the valid prefix geometry.
#[derive(Debug)]
pub struct ScanResult {
    /// Trusted, uncancelled, state-changing records in log order.
    pub ops: Vec<WalRecord>,
    pub report: RecoveryReport,
    /// Byte length of the trusted prefix.
    pub valid_len: usize,
    /// The seq an append after recovery should use.
    pub next_seq: u64,
}

/// Scan a log image: decode frames until the first torn or corrupt one,
/// resolve compensation records, and report. Never panics and never trusts
/// bytes past a corruption, whatever the input.
pub fn scan(log: &[u8]) -> ScanResult {
    let mut records: Vec<WalRecord> = Vec::new();
    let mut gapless = true;
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
            Some(r) if r.seq == records.len() as u64 + 1 => {
                records.push(r);
                off += RECORD_BYTES;
            }
            Some(_) => {
                // An out-of-sequence record: interior loss. Nothing after
                // it can be trusted either.
                gapless = false;
                break;
            }
            None => break,
        }
    }
    let dropped_bytes = log.len() - off;
    let truncated = (dropped_bytes as u64).div_ceil(RECORD_BYTES as u64);

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
    let report = RecoveryReport {
        applied: ops.len() as u64,
        ignored: records.len() as u64 - ops.len() as u64,
        truncated,
        last_seq: records.last().map_or(0, |r| r.seq),
        gapless,
    };
    ScanResult {
        ops,
        report,
        valid_len: off,
        next_seq: records.len() as u64 + 1,
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
        let image = self.wal.bytes();
        let scanned = scan(&image);
        self.db.clear();
        replay_into(&self.db, &scanned.ops, skip_seq);
        scanned.report
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
/// Scans the log, truncates the torn/corrupt tail (rewinding the medium so
/// post-recovery appends stay gapless), replays the trusted records in
/// order, and reports. Emits `recovery_applied` (always) and
/// `recovery_truncated` (when anything was dropped) trace events.
pub fn recover(
    ale: &Arc<Ale>,
    config: DbConfig,
    wal: Arc<Wal>,
) -> (DurableCacheDb, RecoveryReport) {
    let image = wal.bytes();
    let scanned = scan(&image);
    wal.reset_to(scanned.valid_len, scanned.next_seq);
    let db = DurableCacheDb::new(ale, config, wal);
    replay_into(&db.db, &scanned.ops, None);
    let report = scanned.report;
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
    fn the_wal_mutex_and_its_fields_fill_one_line() {
        assert!(std::mem::size_of::<Mutex<WalInner>>() <= 64);
        assert!(std::mem::align_of::<Wal>() >= 64);
        assert_eq!(std::mem::size_of::<Wal>(), std::mem::align_of::<Wal>());
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
}
