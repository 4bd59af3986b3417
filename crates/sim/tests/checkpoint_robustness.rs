//! Torn-write fuzz for the checkpoint journal decoder.
//!
//! The decoder's contract is recover-or-clean-error, never panic: whatever
//! prefix of a journal a killed process (or a flaky disk) left behind, the
//! decoder returns every record before the first damage and reports the
//! rest as dropped. These tests truncate a valid journal at **every** byte
//! position and flip seeded random bytes, and assert that contract holds
//! exactly.

use fatrobots_sim::checkpoint::{decode_journal, encode_journal, Record, HEADER_LEN};
use fatrobots_sim::experiment::{run, AdversaryKind, RunSpec};
use fatrobots_sim::init::Shape;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The engine id the journals below are written and read under (any value
/// works: the decoder only compares it against the header).
const ENGINE: u32 = 0x5eed_1d00;

/// Completed records with distinct ordinals, each carrying a genuine
/// summary from a short run.
fn sample_records() -> Vec<Record> {
    [(0u64, 3usize, 1u64), (1, 3, 2), (2, 4, 1), (5, 3, 3)]
        .into_iter()
        .map(|(ordinal, n, seed)| Record {
            ordinal,
            summary: run(&RunSpec {
                shape: Shape::Circle,
                adversary: AdversaryKind::RoundRobin,
                max_events: 20_000,
                ..RunSpec::new(n, seed)
            }),
        })
        .collect()
}

/// Byte offsets where each record's frame ends (the first is the header
/// boundary).
fn frame_boundaries(records: &[Record]) -> Vec<usize> {
    (0..=records.len())
        .map(|i| encode_journal(ENGINE, &records[..i]).len())
        .collect()
}

#[test]
fn truncation_at_every_byte_recovers_the_valid_prefix() {
    let records = sample_records();
    let bytes = encode_journal(ENGINE, &records);
    let boundaries = frame_boundaries(&records);
    for cut in 0..=bytes.len() {
        let (decoded, recovery) = decode_journal(ENGINE, &bytes[..cut]);
        // How many full records fit strictly within the cut.
        let expected = boundaries[1..].iter().filter(|&&end| end <= cut).count();
        assert_eq!(
            decoded.len(),
            expected,
            "cut at byte {cut}: expected {expected} surviving records"
        );
        assert_eq!(decoded, records[..expected], "cut at byte {cut}");
        let on_boundary = cut >= HEADER_LEN && boundaries.contains(&cut);
        assert_eq!(
            recovery.clean, on_boundary,
            "cut at byte {cut}: clean must mean exactly-at-a-record-boundary"
        );
        let kept = if cut >= HEADER_LEN {
            boundaries
                .iter()
                .filter(|&&b| b <= cut)
                .max()
                .copied()
                .unwrap()
        } else {
            0
        };
        assert_eq!(recovery.dropped_bytes, cut - kept, "cut at byte {cut}");
    }
}

#[test]
fn seeded_byte_flips_recover_records_before_the_damage() {
    let records = sample_records();
    let bytes = encode_journal(ENGINE, &records);
    let boundaries = frame_boundaries(&records);
    let mut rng = StdRng::seed_from_u64(0xC0FF_EE00);
    for trial in 0..500 {
        let mut mutated = bytes.clone();
        let flips = rng.gen_range(1..=4usize);
        let mut first_damage = usize::MAX;
        for _ in 0..flips {
            let pos = rng.gen_range(0..mutated.len());
            let mask = rng.gen_range(1..=255u32) as u8;
            mutated[pos] ^= mask;
            first_damage = first_damage.min(pos);
        }
        // Must never panic, whatever the damage.
        let (decoded, recovery) = decode_journal(ENGINE, &mutated);
        // Every record whose frame ends at or before the first flipped
        // byte must decode exactly as written (the CRC only guards its own
        // frame). Later records may or may not survive; the decoder stops
        // at the first frame it cannot trust.
        let intact = boundaries[1..]
            .iter()
            .filter(|&&end| end <= first_damage)
            .count();
        assert!(
            decoded.len() >= intact,
            "trial {trial}: lost records before the damage at byte {first_damage}"
        );
        assert_eq!(
            decoded[..intact],
            records[..intact],
            "trial {trial}: records before the damage must decode unchanged"
        );
        assert!(
            decoded.len() <= records.len(),
            "trial {trial}: decoder invented records"
        );
        let _ = recovery;
    }
}

#[test]
fn corrupt_middle_record_recovers_to_the_last_valid_record() {
    let records = sample_records();
    let boundaries = frame_boundaries(&records);
    let mut bytes = encode_journal(ENGINE, &records);
    // Flip one payload byte inside the third record (index 2).
    let target = boundaries[2] + 12;
    bytes[target] ^= 0x5a;
    let (decoded, recovery) = decode_journal(ENGINE, &bytes);
    assert_eq!(
        decoded,
        records[..2],
        "recovers exactly the first two records"
    );
    assert!(!recovery.clean);
    assert_eq!(recovery.records, 2);
    assert!(recovery.dropped_bytes > 0);
}

#[test]
fn random_garbage_never_panics() {
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..500 {
        let len = rng.gen_range(0..512usize);
        let garbage: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u32) as u8).collect();
        let (decoded, _recovery) = decode_journal(ENGINE, &garbage);
        // Random bytes essentially never checksum into a valid record.
        assert!(decoded.len() <= 1);
    }
    // Garbage that *starts* with a valid header exercises the frame
    // scanner rather than the header check.
    for _ in 0..500 {
        let len = rng.gen_range(0..512usize);
        let mut bytes = encode_journal(ENGINE, &[]);
        bytes.extend((0..len).map(|_| rng.gen_range(0..=255u32) as u8));
        let (decoded, _recovery) = decode_journal(ENGINE, &bytes);
        assert!(decoded.len() <= 1);
    }
}
