//! Property-based tests for the WAL codec and recovery scan: round-trip
//! fidelity, single-bit-flip detection, and the "never over-apply"
//! guarantee on arbitrarily damaged logs.

use std::collections::HashMap;

use ale_kyoto::wal::{scan, WalOp, WalRecord, RECORD_BYTES};
use proptest::prelude::*;

fn op_strategy() -> impl Strategy<Value = WalOp> {
    prop_oneof![
        4 => Just(WalOp::Set),
        3 => Just(WalOp::Remove),
        1 => Just(WalOp::Clear),
    ]
}

/// A well-formed log of `n` records (no compensation records, so replay
/// equals a plain fold over the prefix).
fn log_strategy() -> impl Strategy<Value = Vec<WalRecord>> {
    proptest::collection::vec((op_strategy(), 0u64..24, any::<u64>()), 0..40).prop_map(|ops| {
        ops.into_iter()
            .enumerate()
            .map(|(i, (op, key, value))| WalRecord {
                seq: i as u64 + 1,
                op,
                key,
                value,
            })
            .collect()
    })
}

fn encode_log(records: &[WalRecord]) -> Vec<u8> {
    let mut out = Vec::with_capacity(records.len() * RECORD_BYTES);
    for r in records {
        out.extend_from_slice(&r.encode());
    }
    out
}

/// The sequential truth for a record prefix.
fn model_of(records: &[WalRecord]) -> HashMap<u64, u64> {
    let mut m = HashMap::new();
    for r in records {
        match r.op {
            WalOp::Set => {
                m.insert(r.key, r.value);
            }
            WalOp::Remove => {
                m.remove(&r.key);
            }
            WalOp::Clear => m.clear(),
            WalOp::Abort => {}
        }
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every record round-trips through the frame codec.
    #[test]
    fn codec_round_trips(
        seq in 1u64..u64::MAX,
        op in op_strategy(),
        key in any::<u64>(),
        value in any::<u64>(),
    ) {
        let rec = WalRecord { seq, op, key, value };
        prop_assert_eq!(WalRecord::decode(&rec.encode()), Ok(rec));
    }

    /// Any single corrupted byte anywhere in the frame is detected: the
    /// checksum covers the header, the commit marker binds the tail to the
    /// seq, so no flip can slip through.
    #[test]
    fn any_byte_corruption_is_detected(
        seq in 1u64..u64::MAX,
        op in op_strategy(),
        key in any::<u64>(),
        value in any::<u64>(),
        pos in 0usize..RECORD_BYTES,
        mask in 1u8..=255,
    ) {
        let mut frame = WalRecord { seq, op, key, value }.encode();
        frame[pos] ^= mask;
        prop_assert!(WalRecord::decode(&frame).is_err(),
            "flip {mask:#04x} at byte {pos} must not decode");
    }

    /// Scanning arbitrary byte soup never panics and never trusts more
    /// bytes than it applied records.
    #[test]
    fn scan_of_garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        let s = scan(&bytes);
        prop_assert!(s.valid_len <= bytes.len());
        prop_assert_eq!(s.valid_len, s.report.applied as usize * RECORD_BYTES
            + s.report.ignored as usize * RECORD_BYTES);
        prop_assert_eq!(s.next_seq, s.report.last_seq + 1);
    }

    /// Recovery of a log truncated at an arbitrary byte boundary applies
    /// exactly the surviving whole-record prefix — no more, no less.
    #[test]
    fn truncated_log_applies_exactly_the_prefix(
        records in log_strategy(),
        cut_ppm in 0u64..=1_000_000,
    ) {
        let full = encode_log(&records);
        let cut = (full.len() as u64 * cut_ppm / 1_000_000) as usize;
        let s = scan(&full[..cut]);
        let whole = cut / RECORD_BYTES;
        prop_assert_eq!(s.report.applied as usize, whole);
        prop_assert_eq!(s.report.truncated as usize, (cut % RECORD_BYTES).div_ceil(RECORD_BYTES));
        prop_assert!(s.report.gapless);
        prop_assert_eq!(model_of(&s.ops), model_of(&records[..whole]));
    }

    /// Recovery of a log with one flipped byte applies exactly the records
    /// before the damaged frame, then stops — never a record after it.
    #[test]
    fn flipped_log_never_over_applies(
        records in log_strategy(),
        pos_ppm in 0u64..=999_999,
        mask in 1u8..=255,
    ) {
        if records.is_empty() {
            return Ok(());
        }
        let mut log = encode_log(&records);
        let pos = (log.len() as u64 * pos_ppm / 1_000_000) as usize;
        log[pos] ^= mask;
        let hit = pos / RECORD_BYTES;
        let s = scan(&log);
        prop_assert_eq!(s.report.applied as usize, hit,
            "must stop exactly at the corrupt frame");
        prop_assert!(s.report.gapless);
        prop_assert_eq!(model_of(&s.ops), model_of(&records[..hit]));
    }
}
