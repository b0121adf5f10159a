//! Property-based verification of the wire codec: every encodable value
//! round-trips exactly, decoders consume exactly their own bytes (so
//! concatenated streams reframe correctly), the compact interval encoding
//! is never larger than the fixed one for workload-like inputs, and no
//! input — truncated, corrupted or random — makes a decoder panic.
//!
//! Randomized cases are driven by the in-tree [`SplitMix64`] generator with
//! fixed seeds, so every run explores the same (large) case set and a
//! failure reproduces exactly.

use graphite_bsp::codec::{
    decode_batch, encode_batch, get_interval, get_interval_fixed, get_signed, get_varint,
    put_interval, put_interval_fixed, put_signed, put_varint, Wire, BATCH_TRAILER,
};
use graphite_tgraph::graph::VIdx;
use graphite_tgraph::iset::IntervalPartition;
use graphite_tgraph::rng::SplitMix64;
use graphite_tgraph::time::{Interval, TIME_MAX, TIME_MIN};

const CASES: usize = 2000;

/// Draws intervals with the same shape mix the old proptest strategy used:
/// bounded workload-like spans, unit points, half-unbounded rays (the SSSP
/// and LD message shapes), the full line, and extreme finite coordinates.
fn rand_interval(rng: &mut SplitMix64) -> Interval {
    match rng.bounded(6) {
        0 => {
            let s = rng.range_i64(-1000, 1000);
            let l = rng.range_i64(1, 500);
            Interval::new(s, s + l)
        }
        1 => Interval::point(rng.range_i64(-1000, 1000)),
        2 => Interval::from_start(rng.range_i64(-1000, 1000)),
        3 => Interval::until(rng.range_i64(-1000, 1000)),
        4 => Interval::all(),
        _ => Interval::new(TIME_MIN + 1, TIME_MAX - 1),
    }
}

#[test]
fn varint_round_trips() {
    let mut rng = SplitMix64::new(0x0C0D_EC01);
    for _ in 0..CASES {
        let v = rng.next_u64();
        let mut buf = Vec::new();
        put_varint(v, &mut buf);
        let mut s = buf.as_slice();
        assert_eq!(get_varint(&mut s), Some(v));
        assert!(s.is_empty());
    }
}

#[test]
fn signed_round_trips() {
    let mut rng = SplitMix64::new(0x0C0D_EC02);
    for _ in 0..CASES {
        let v = rng.next_u64() as i64;
        let mut buf = Vec::new();
        put_signed(v, &mut buf);
        let mut s = buf.as_slice();
        assert_eq!(get_signed(&mut s), Some(v));
        assert!(s.is_empty());
    }
}

#[test]
fn interval_round_trips() {
    let mut rng = SplitMix64::new(0x0C0D_EC03);
    for _ in 0..CASES {
        let iv = rand_interval(&mut rng);
        let mut buf = Vec::new();
        put_interval(iv, &mut buf);
        let mut s = buf.as_slice();
        assert_eq!(get_interval(&mut s), Some(iv), "{iv}");
        assert!(s.is_empty());
    }
}

/// The ±∞ / unit-length flag boundaries, exhaustively: every combination
/// of an extreme or near-extreme start with an extreme, near-extreme or
/// unit-distance end that forms a valid interval must round-trip through
/// both the compact and the fixed codec.
#[test]
fn flag_boundary_round_trips() {
    let starts = [
        TIME_MIN,
        TIME_MIN + 1,
        TIME_MIN + 2,
        -1,
        0,
        1,
        TIME_MAX - 2,
        TIME_MAX - 1,
    ];
    let ends = [
        TIME_MIN + 1,
        TIME_MIN + 2,
        -1,
        0,
        1,
        2,
        TIME_MAX - 1,
        TIME_MAX,
    ];
    let mut checked = 0;
    for &s in &starts {
        for &e in &ends {
            let Some(iv) = Interval::try_new(s, e) else {
                continue;
            };
            checked += 1;
            let mut compact = Vec::new();
            put_interval(iv, &mut compact);
            let mut c = compact.as_slice();
            assert_eq!(get_interval(&mut c), Some(iv), "compact {iv}");
            assert!(c.is_empty(), "compact {iv} left bytes");
            let mut fixed = Vec::new();
            put_interval_fixed(iv, &mut fixed);
            let mut f = fixed.as_slice();
            assert_eq!(get_interval_fixed(&mut f), Some(iv), "fixed {iv}");
            assert!(f.is_empty(), "fixed {iv} left bytes");
            // Unit-length spans adjacent to the boundaries exercise the
            // F_UNIT flag against the F_TO_INF/F_FROM_NEG_INF ones.
            if s.checked_add(1) == Some(e) || s == TIME_MIN || e == TIME_MAX {
                assert!(compact.len() <= 11, "{iv} -> {} bytes", compact.len());
            }
        }
    }
    assert!(
        checked > 30,
        "boundary grid unexpectedly sparse ({checked})"
    );
}

/// Concatenated streams reframe exactly — the router's batch decode
/// depends on this.
#[test]
fn concatenated_intervals_reframe() {
    let mut rng = SplitMix64::new(0x0C0D_EC04);
    for _ in 0..200 {
        let ivs: Vec<Interval> = (0..rng.index(20))
            .map(|_| rand_interval(&mut rng))
            .collect();
        let mut buf = Vec::new();
        for &iv in &ivs {
            put_interval(iv, &mut buf);
        }
        let mut s = buf.as_slice();
        for &iv in &ivs {
            assert_eq!(get_interval(&mut s), Some(iv));
        }
        assert!(s.is_empty());
    }
}

/// The compact encoding never exceeds the fixed 16-byte pair (plus its one
/// flag byte) and is dramatically smaller for degenerate shapes.
#[test]
fn compact_never_larger_than_fixed_plus_flag() {
    let mut rng = SplitMix64::new(0x0C0D_EC05);
    for _ in 0..CASES {
        let iv = rand_interval(&mut rng);
        let mut compact = Vec::new();
        put_interval(iv, &mut compact);
        let mut fixed = Vec::new();
        put_interval_fixed(iv, &mut fixed);
        assert!(
            compact.len() <= fixed.len() + 5,
            "{} -> {}",
            iv,
            compact.len()
        );
        if iv.is_unit() || iv.end() == TIME_MAX || iv.start() == TIME_MIN {
            assert!(compact.len() <= 11, "{} -> {}", iv, compact.len());
        }
    }
}

/// Composite message payloads (interval, value) round-trip — the exact
/// shape the ICM engine ships.
#[test]
fn icm_message_round_trips() {
    let mut rng = SplitMix64::new(0x0C0D_EC06);
    for _ in 0..CASES {
        let msg = (rand_interval(&mut rng), rng.next_u64() as i64);
        let mut buf = Vec::new();
        msg.encode(&mut buf);
        let mut s = buf.as_slice();
        assert_eq!(<(Interval, i64)>::decode(&mut s), Some(msg));
        assert!(s.is_empty());
    }
}

/// A seeded ICM vertex state: a random lifespan split at up to six
/// points inside it, each piece with its own value.
fn rand_partition(rng: &mut SplitMix64) -> IntervalPartition<i64> {
    let lifespan = rand_interval(rng);
    let mut p = IntervalPartition::new(lifespan, rng.range_i64(-50, 50));
    for _ in 0..rng.bounded(7) {
        let t = rng.range_i64(-1000, 1000);
        if lifespan.contains_point(t) {
            p.set(Interval::from_start(t), rng.range_i64(-50, 50));
        }
    }
    p
}

/// The partition encoding by hand: the lifespan, then the entries as a
/// counted list.
fn partition_blob(lifespan: Interval, entries: &[(Interval, i64)]) -> Vec<u8> {
    let mut buf = Vec::new();
    lifespan.encode(&mut buf);
    entries.to_vec().encode(&mut buf);
    buf
}

#[test]
fn interval_partition_round_trips() {
    let mut rng = SplitMix64::new(0x0C0D_EC0A);
    for _ in 0..CASES {
        let p = rand_partition(&mut rng);
        let mut buf = Vec::new();
        p.encode(&mut buf);
        assert_eq!(buf, partition_blob(p.lifespan(), p.entries()));
        let mut s = buf.as_slice();
        assert_eq!(IntervalPartition::<i64>::decode(&mut s).as_ref(), Some(&p));
        assert!(s.is_empty(), "decoder must consume exactly its bytes");
    }
}

/// A blob whose entries do not tile the lifespan — a gap, an overlap, a
/// first or last entry off the lifespan's ends, no entries at all — or
/// that is cut short decodes to `None`, never to a partition and never
/// to a panic.
#[test]
fn interval_partition_rejects_non_tilings_and_truncation() {
    let decode = |blob: &[u8]| IntervalPartition::<i64>::decode(&mut &blob[..]);
    let lifespan = Interval::new(0, 10);
    let (a, b) = (Interval::new(0, 4), Interval::new(4, 10));
    assert!(decode(&partition_blob(lifespan, &[(a, 1), (b, 2)])).is_some());
    for entries in [
        &[(a, 1), (Interval::new(5, 10), 2)][..],
        &[(Interval::new(0, 5), 1), (b, 2)],
        &[(a, 1), (Interval::new(4, 9), 2)],
        &[(Interval::new(1, 4), 1), (b, 2)],
        &[(a, 1)],
        &[(Interval::new(0, 11), 1)],
        &[(b, 2), (a, 1)],
        &[],
    ] {
        assert_eq!(
            decode(&partition_blob(lifespan, entries)),
            None,
            "{entries:?}"
        );
    }
    let mut rng = SplitMix64::new(0x0C0D_EC0B);
    for _ in 0..CASES / 10 {
        let mut buf = Vec::new();
        rand_partition(&mut rng).encode(&mut buf);
        for cut in 0..buf.len() {
            assert_eq!(decode(&buf[..cut]), None, "cut at {cut} of {buf:?}");
        }
        let soup: Vec<u8> = (0..rng.index(40)).map(|_| rng.next_u64() as u8).collect();
        let _ = decode(&soup);
    }
}

/// Truncated buffers never panic and never fabricate values.
#[test]
fn truncation_is_rejected() {
    let mut rng = SplitMix64::new(0x0C0D_EC07);
    for _ in 0..CASES {
        let iv = rand_interval(&mut rng);
        let mut buf = Vec::new();
        put_interval(iv, &mut buf);
        let cut = rng.index(16);
        if cut < buf.len() {
            let truncated = &buf[..cut];
            let mut s = truncated;
            // Either the decode fails, or (when the prefix happens to be a
            // complete shorter encoding) it must consume only the prefix.
            if let Some(got) = get_interval(&mut s) {
                assert!(s.len() < truncated.len() || got == iv);
            }
        }
    }
}

/// Fuzz-style corruption: flip bytes of valid encodings and feed raw
/// random byte soup to every decoder. Decoders must return `None` or a
/// (possibly different) valid value — never panic, never loop, never
/// consume past their input.
#[test]
fn corrupted_input_fails_gracefully() {
    let mut rng = SplitMix64::new(0x0C0D_EC08);
    for _ in 0..CASES {
        // Start from a valid composite encoding and corrupt one byte.
        let msg = (rand_interval(&mut rng), rng.next_u64() as i64);
        let mut buf = Vec::new();
        msg.encode(&mut buf);
        let pos = rng.index(buf.len());
        buf[pos] ^= (rng.bounded(255) + 1) as u8;
        let mut s = buf.as_slice();
        if let Some((iv, _)) = <(Interval, i64)>::decode(&mut s) {
            // Whatever decoded must satisfy the Interval invariant
            // (start < end) — try_new inside the codec guarantees it.
            assert!(
                iv.start() < iv.end(),
                "corrupt decode broke the invariant: {iv}"
            );
        }
        assert!(s.len() <= buf.len());
    }
    for _ in 0..CASES {
        // Pure random byte soup against every decoder entry point.
        let soup: Vec<u8> = (0..rng.index(40)).map(|_| rng.next_u64() as u8).collect();
        let mut s = soup.as_slice();
        let _ = get_interval(&mut s);
        let mut s = soup.as_slice();
        let _ = get_interval_fixed(&mut s);
        let mut s = soup.as_slice();
        let _ = get_varint(&mut s);
        let mut s = soup.as_slice();
        let _ = get_signed(&mut s);
        let mut s = soup.as_slice();
        let _ = Vec::<u64>::decode(&mut s);
        let mut s = soup.as_slice();
        let _ = Option::<(Interval, i64)>::decode(&mut s);
        let mut s = soup.as_slice();
        let _ = <(u64, i64, Interval)>::decode(&mut s);
        let mut s = soup.as_slice();
        let _ = f64::decode(&mut s);
        let mut s = soup.as_slice();
        let _ = bool::decode(&mut s);
    }
}

/// Draws a routed batch shaped like real ICM traffic: `(vertex, (interval,
/// value))` pairs with repeated destination vertices.
fn rand_batch(rng: &mut SplitMix64) -> Vec<(VIdx, (Interval, i64))> {
    (0..1 + rng.index(24))
        .map(|_| {
            (
                VIdx(rng.bounded(64) as u32),
                (rand_interval(rng), rng.next_u64() as i64),
            )
        })
        .collect()
}

/// Any truncation of an encoded batch — seeded, across many batch shapes —
/// is rejected by [`decode_batch`] before a single message is delivered.
/// This is the integrity contract the recovery layer leans on: a faulted
/// exchange surfaces as `BspError::Codec`, never as silently-partial
/// delivery that a rollback could not undo.
#[test]
fn batch_truncation_always_errors_and_delivers_nothing() {
    let mut rng = SplitMix64::new(0x0C0D_EC09);
    for _ in 0..500 {
        let batch = rand_batch(&mut rng);
        let mut wire = Vec::new();
        encode_batch(&batch, &mut wire);
        assert!(wire.len() > BATCH_TRAILER);
        // Every strictly-shorter prefix, plus a seeded sample of deeper
        // cuts for large batches.
        let cuts: Vec<usize> = (0..4)
            .map(|_| rng.index(wire.len()))
            .chain([0, wire.len() - 1, wire.len() - BATCH_TRAILER])
            .collect();
        for cut in cuts {
            let mut delivered = 0u32;
            let res =
                decode_batch::<(Interval, i64)>(&wire[..cut], batch.len(), |_, _| delivered += 1);
            assert!(res.is_err(), "truncation to {cut} bytes went undetected");
            assert_eq!(delivered, 0, "truncated batch delivered messages");
        }
    }
}

/// Any single-bit flip anywhere in an encoded batch — payload or trailer —
/// is caught by the FNV-1a checksum: [`decode_batch`] errors and delivers
/// nothing. Single-bit detection is certain (each checksum step is a
/// bijection of the running hash), which is exactly the corruption the
/// fault injector's `FaultKind::WireCorruption` performs.
#[test]
fn batch_bit_flips_always_error_and_deliver_nothing() {
    let mut rng = SplitMix64::new(0x0C0D_EC0A);
    for _ in 0..300 {
        let batch = rand_batch(&mut rng);
        let mut wire = Vec::new();
        encode_batch(&batch, &mut wire);
        // A seeded sample of flip positions, always including the first
        // byte, the last payload byte and every trailer byte.
        let mut flips: Vec<usize> = (0..6).map(|_| rng.index(wire.len())).collect();
        flips.push(0);
        flips.push(wire.len() - BATCH_TRAILER - 1);
        flips.extend(wire.len() - BATCH_TRAILER..wire.len());
        for pos in flips {
            let mut corrupt = wire.clone();
            corrupt[pos] ^= 1 << rng.bounded(8);
            let mut delivered = 0u32;
            let res = decode_batch::<(Interval, i64)>(&corrupt, batch.len(), |_, _| delivered += 1);
            assert!(res.is_err(), "bit flip at byte {pos} went undetected");
            assert_eq!(delivered, 0, "corrupted batch delivered messages");
        }
    }
}

/// The checksum also pins the *count*: decoding a valid frame with the
/// wrong expected count errors rather than under- or over-delivering.
#[test]
fn batch_count_mismatch_is_rejected() {
    let mut rng = SplitMix64::new(0x0C0D_EC0B);
    for _ in 0..200 {
        let batch = rand_batch(&mut rng);
        let mut wire = Vec::new();
        encode_batch(&batch, &mut wire);
        for wrong in [0, batch.len().saturating_sub(1), batch.len() + 1] {
            if wrong == batch.len() {
                continue;
            }
            let res = decode_batch::<(Interval, i64)>(&wire, wrong, |_, _| {});
            assert!(res.is_err(), "count {wrong} for {} accepted", batch.len());
        }
    }
}
