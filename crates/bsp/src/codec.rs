//! Wire format for inter-worker messages.
//!
//! The paper (Sec. VI, "Interval Messages") observes that shipping a fixed
//! 16-byte `(start, end)` pair with every message dominates network cost on
//! billion-message runs, and that variable byte-length encoding plus special
//! flags for unit-length and right-unbounded intervals cuts message sizes by
//! 59–78 %. This module implements exactly that: LEB128 varints with zigzag
//! for signed values, and a one-byte interval header with `UNIT` / `TO_INF` /
//! `FROM_NEG_INF` flags so degenerate endpoints cost nothing.
//!
//! Everything that crosses a worker boundary implements [`Wire`]; the BSP
//! router encodes remote batches through it and charges the byte counts to
//! the run's metrics, making message-size optimizations observable in the
//! Fig. 5/6 reproductions and the benchmark's `bsp.codec_ns_per_msg` probe.

use graphite_tgraph::graph::VIdx;
use graphite_tgraph::iset::IntervalPartition;
use graphite_tgraph::time::{Interval, TIME_MAX, TIME_MIN};

/// A value that can be serialized into the inter-worker wire format.
pub trait Wire: Sized + Send + Sync + Clone + 'static {
    /// Appends the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);
    /// Decodes a value from the front of `buf`, advancing it. Returns
    /// `None` on malformed input.
    fn decode(buf: &mut &[u8]) -> Option<Self>;

    /// The encoded size in bytes (default: encode into a scratch buffer).
    fn encoded_len(&self) -> usize {
        let mut buf = Vec::with_capacity(16);
        self.encode(&mut buf);
        buf.len()
    }
}

/// Appends an unsigned LEB128 varint.
pub fn put_varint(mut v: u64, buf: &mut Vec<u8>) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Reads an unsigned LEB128 varint.
pub fn get_varint(buf: &mut &[u8]) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let (&byte, rest) = buf.split_first()?;
        *buf = rest;
        if shift >= 64 {
            return None;
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

/// Zigzag-maps a signed value for varint encoding.
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends a zigzag varint.
pub fn put_signed(v: i64, buf: &mut Vec<u8>) {
    put_varint(zigzag(v), buf);
}

/// Reads a zigzag varint.
pub fn get_signed(buf: &mut &[u8]) -> Option<i64> {
    get_varint(buf).map(unzigzag)
}

/// Size of the integrity trailer [`encode_batch`] appends after the
/// payload: an FNV-1a checksum over the payload bytes, 8 bytes
/// little-endian. Framing overhead, not message payload — the router
/// charges only `wire.len() - BATCH_TRAILER` to the byte metric so the
/// paper's message-size numbers are unchanged by the integrity layer.
pub const BATCH_TRAILER: usize = 8;

/// FNV-1a over `bytes`: the checksum guarding batch frames. Each step
/// `h = (h ^ b) * p` is a bijection of the running hash for any fixed
/// byte (and injective in the byte for a fixed hash), so *any*
/// single-byte — hence any single-bit — payload corruption is guaranteed
/// to change the final value; the fault injector's bit-flips can never
/// slip through undetected.
#[must_use]
pub fn batch_checksum(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Encodes a routed batch — `(vertex, message)` pairs, in order — into
/// `wire`: the framing the BSP router ships between workers, followed by
/// an FNV-1a integrity trailer ([`BATCH_TRAILER`] bytes) over exactly the
/// payload this call appended. The buffer is appended to, never cleared,
/// so one allocation serves every batch of every superstep.
pub fn encode_batch<M: Wire>(batch: &[(VIdx, M)], wire: &mut Vec<u8>) {
    let start = wire.len();
    for (v, m) in batch {
        put_varint(u64::from(v.0), wire);
        m.encode(wire);
    }
    let sum = batch_checksum(&wire[start..]);
    wire.extend_from_slice(&sum.to_le_bytes());
}

/// Decodes exactly `count` pairs written by [`encode_batch`], handing each
/// to `deliver` in encoding order. The integrity trailer is verified
/// *before* any message is delivered, so a corrupted batch delivers
/// nothing at all — there is no partially-applied decode to unwind.
///
/// # Errors
///
/// Returns a static description of the corruption when the checksum does
/// not match, the buffer is malformed, or it is not consumed exactly.
pub fn decode_batch<M: Wire>(
    wire: &[u8],
    count: usize,
    mut deliver: impl FnMut(VIdx, M),
) -> Result<(), &'static str> {
    if wire.len() < BATCH_TRAILER {
        return Err("batch shorter than its checksum trailer");
    }
    let (payload, trailer) = wire.split_at(wire.len() - BATCH_TRAILER);
    let want = u64::from_le_bytes(trailer.try_into().map_err(|_| "checksum trailer")?);
    if batch_checksum(payload) != want {
        return Err("batch checksum mismatch");
    }
    let mut cursor = payload;
    for _ in 0..count {
        let raw = get_varint(&mut cursor).ok_or("vertex id varint")?;
        let v = VIdx(u32::try_from(raw).map_err(|_| "vertex id exceeds u32")?);
        let m = M::decode(&mut cursor).ok_or("message payload")?;
        deliver(v, m);
    }
    if !cursor.is_empty() {
        return Err("trailing bytes after batch");
    }
    Ok(())
}

// Interval header flags.
const F_UNIT: u8 = 0b0001;
const F_TO_INF: u8 = 0b0010;
const F_FROM_NEG_INF: u8 = 0b0100;

/// Encodes an interval compactly: a flag byte, then the start point
/// (zigzag varint, omitted when `-∞`), then the *length* (varint, omitted
/// for unit-length or right-unbounded intervals).
pub fn put_interval(iv: Interval, buf: &mut Vec<u8>) {
    let mut flags = 0u8;
    if iv.start() == TIME_MIN {
        flags |= F_FROM_NEG_INF;
    }
    if iv.end() == TIME_MAX {
        flags |= F_TO_INF;
    } else if iv.start() != TIME_MIN && iv.len() == 1 {
        flags |= F_UNIT;
    }
    buf.push(flags);
    if flags & F_FROM_NEG_INF == 0 {
        put_signed(iv.start(), buf);
    }
    if flags & (F_TO_INF | F_UNIT) == 0 {
        if flags & F_FROM_NEG_INF == 0 {
            // Bounded on both sides: store the length, which is small for
            // the short intervals that dominate real workloads. Computed in
            // i128 so extreme spans (e.g. nearly the whole i64 domain)
            // don't saturate.
            let len = (iv.end() as i128 - iv.start() as i128) as u64;
            put_varint(len, buf);
        } else {
            // (-inf, end): store the end point itself.
            put_signed(iv.end(), buf);
        }
    }
}

/// Decodes an interval written by [`put_interval`].
pub fn get_interval(buf: &mut &[u8]) -> Option<Interval> {
    let (&flags, rest) = buf.split_first()?;
    *buf = rest;
    let start = if flags & F_FROM_NEG_INF != 0 {
        TIME_MIN
    } else {
        get_signed(buf)?
    };
    let end = if flags & F_TO_INF != 0 {
        TIME_MAX
    } else if flags & F_UNIT != 0 {
        start.checked_add(1)?
    } else if flags & F_FROM_NEG_INF != 0 {
        get_signed(buf)?
    } else {
        let len = get_varint(buf)?;
        i64::try_from(start as i128 + len as i128).ok()?
    };
    Interval::try_new(start, end)
}

/// The naive fixed-width encoding the paper improves on (two 8-byte
/// longs); kept for the `codec` bench's size comparison.
pub fn put_interval_fixed(iv: Interval, buf: &mut Vec<u8>) {
    buf.extend_from_slice(&iv.start().to_le_bytes());
    buf.extend_from_slice(&iv.end().to_le_bytes());
}

/// Decodes [`put_interval_fixed`].
pub fn get_interval_fixed(buf: &mut &[u8]) -> Option<Interval> {
    if buf.len() < 16 {
        return None;
    }
    let start = i64::from_le_bytes(buf[..8].try_into().ok()?);
    let end = i64::from_le_bytes(buf[8..16].try_into().ok()?);
    *buf = &buf[16..];
    Interval::try_new(start, end)
}

impl Wire for Interval {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_interval(*self, buf);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        get_interval(buf)
    }
}

/// An ICM vertex state (Sec. IV-A1): the lifespan, a varint entry count,
/// then each `(interval, state)`. Decoding goes through
/// [`IntervalPartition::from_entries`], so entries that do not tile the
/// lifespan are malformed input.
impl<S: Wire> Wire for IntervalPartition<S> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.lifespan().encode(buf);
        put_varint(self.len() as u64, buf);
        for (iv, s) in self.iter() {
            iv.encode(buf);
            s.encode(buf);
        }
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        let lifespan = Interval::decode(buf)?;
        let entries = Vec::<(Interval, S)>::decode(buf)?;
        IntervalPartition::from_entries(lifespan, entries)
    }
}

impl Wire for u64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(*self, buf);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        get_varint(buf)
    }
}

impl Wire for i64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_signed(*self, buf);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        get_signed(buf)
    }
}

impl Wire for u32 {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(u64::from(*self), buf);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        get_varint(buf).and_then(|v| u32::try_from(v).ok())
    }
}

impl Wire for f64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        if buf.len() < 8 {
            return None;
        }
        let v = f64::from_le_bytes(buf[..8].try_into().ok()?);
        *buf = &buf[8..];
        Some(v)
    }
    fn encoded_len(&self) -> usize {
        8
    }
}

impl Wire for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        let (&b, rest) = buf.split_first()?;
        *buf = rest;
        Some(b != 0)
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

impl Wire for () {
    fn encode(&self, _buf: &mut Vec<u8>) {}
    fn decode(_buf: &mut &[u8]) -> Option<Self> {
        Some(())
    }
    fn encoded_len(&self) -> usize {
        0
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        Some((A::decode(buf)?, B::decode(buf)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
        self.2.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        Some((A::decode(buf)?, B::decode(buf)?, C::decode(buf)?))
    }
}

impl<A: Wire, B: Wire, C: Wire, D: Wire> Wire for (A, B, C, D) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
        self.2.encode(buf);
        self.3.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        Some((
            A::decode(buf)?,
            B::decode(buf)?,
            C::decode(buf)?,
            D::decode(buf)?,
        ))
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(self.len() as u64, buf);
        for item in self {
            item.encode(buf);
        }
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        let n = get_varint(buf)? as usize;
        // Guard against malformed lengths: each element needs >= 1 byte.
        if n > buf.len() {
            return None;
        }
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(T::decode(buf)?);
        }
        Some(v)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        let (&tag, rest) = buf.split_first()?;
        *buf = rest;
        match tag {
            0 => Some(None),
            1 => Some(Some(T::decode(buf)?)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let mut buf = Vec::new();
        v.encode(&mut buf);
        assert_eq!(buf.len(), v.encoded_len());
        let mut slice = buf.as_slice();
        assert_eq!(T::decode(&mut slice), Some(v));
        assert!(slice.is_empty(), "decoder must consume exactly its bytes");
    }

    #[test]
    fn varint_round_trips() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            round_trip(v);
        }
    }

    #[test]
    fn signed_round_trips() {
        for v in [0i64, 1, -1, 63, -64, 64, i64::MIN, i64::MAX] {
            round_trip(v);
        }
    }

    #[test]
    fn zigzag_small_magnitudes_stay_small() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(unzigzag(zigzag(-12345)), -12345);
    }

    #[test]
    fn interval_round_trips() {
        for iv in [
            Interval::new(0, 1),
            Interval::new(5, 6),
            Interval::new(-3, 400),
            Interval::point(1_000_000),
            Interval::from_start(9),
            Interval::until(-2),
            Interval::all(),
            Interval::new(TIME_MIN + 1, TIME_MAX - 1),
        ] {
            round_trip(iv);
        }
    }

    #[test]
    fn unit_and_unbounded_intervals_are_tiny() {
        // A unit interval costs flag + small start varint: 2 bytes.
        assert_eq!(Interval::point(5).encoded_len(), 2);
        // [t, inf): flag + start.
        assert_eq!(Interval::from_start(9).encoded_len(), 2);
        // [-inf, inf): just the flag.
        assert_eq!(Interval::all().encoded_len(), 1);
        // All far below the fixed 16-byte encoding.
        let mut buf = Vec::new();
        put_interval_fixed(Interval::point(5), &mut buf);
        assert_eq!(buf.len(), 16);
    }

    #[test]
    fn compact_vs_fixed_size_reduction_matches_paper_range() {
        // A workload-like mixture: mostly unit and right-unbounded message
        // intervals with small coordinates, as in the paper's graphs.
        let mut compact = Vec::new();
        let mut fixed = Vec::new();
        for t in 0..200 {
            let iv = match t % 4 {
                0 => Interval::point(t),
                1 => Interval::from_start(t),
                2 => Interval::new(t, t + 5),
                _ => Interval::new(t, t + 40),
            };
            put_interval(iv, &mut compact);
            put_interval_fixed(iv, &mut fixed);
        }
        let reduction = 1.0 - compact.len() as f64 / fixed.len() as f64;
        // Paper reports 59–78 % drops in overall message size.
        assert!(reduction > 0.59, "got {reduction}");
    }

    #[test]
    fn fixed_interval_round_trips() {
        let mut buf = Vec::new();
        put_interval_fixed(Interval::new(-9, 88), &mut buf);
        let mut s = buf.as_slice();
        assert_eq!(get_interval_fixed(&mut s), Some(Interval::new(-9, 88)));
        assert!(s.is_empty());
    }

    #[test]
    fn composite_round_trips() {
        round_trip((Interval::new(0, 9), 42i64));
        round_trip((1u64, -2i64, Interval::point(3)));
        round_trip(vec![1u64, 2, 3]);
        round_trip(Vec::<u64>::new());
        round_trip(Some((Interval::all(), 7u64)));
        round_trip(Option::<u64>::None);
        round_trip(3.25f64);
        round_trip(true);
    }

    #[test]
    fn batch_round_trips_and_checksum_guards_every_bit() {
        let batch: Vec<(VIdx, (Interval, i64))> = vec![
            (VIdx(3), (Interval::new(0, 5), -7)),
            (VIdx(0), (Interval::point(2), 400)),
            (VIdx(9), (Interval::from_start(1), 0)),
        ];
        let mut wire = Vec::new();
        encode_batch(&batch, &mut wire);
        let mut got = Vec::new();
        decode_batch::<(Interval, i64)>(&wire, batch.len(), |v, m| got.push((v, m)))
            .expect("clean round trip");
        assert_eq!(got, batch);
        // Every single-bit flip anywhere in the frame (payload or trailer)
        // must be detected — never a panic, never a silent mis-decode.
        for byte in 0..wire.len() {
            for bit in 0..8 {
                let mut bad = wire.clone();
                bad[byte] ^= 1 << bit;
                let res = decode_batch::<(Interval, i64)>(&bad, batch.len(), |_, _| {});
                assert!(
                    res.is_err(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn empty_batch_has_only_the_trailer() {
        let mut wire = Vec::new();
        encode_batch::<u64>(&[], &mut wire);
        assert_eq!(wire.len(), BATCH_TRAILER);
        decode_batch::<u64>(&wire, 0, |_, _| panic!("nothing to deliver")).expect("empty ok");
    }

    #[test]
    fn truncated_batch_is_rejected_without_delivery() {
        let batch: Vec<(VIdx, u64)> = (0..8).map(|i| (VIdx(i), u64::from(i) * 1000)).collect();
        let mut wire = Vec::new();
        encode_batch(&batch, &mut wire);
        for keep in 0..wire.len() {
            let mut delivered = 0u32;
            let res = decode_batch::<u64>(&wire[..keep], batch.len(), |_, _| delivered += 1);
            assert!(res.is_err(), "truncation to {keep} bytes went undetected");
            assert_eq!(delivered, 0, "truncated batch must deliver nothing");
        }
    }

    #[test]
    fn malformed_input_is_rejected() {
        let mut empty: &[u8] = &[];
        assert_eq!(u64::decode(&mut empty), None);
        assert_eq!(Interval::decode(&mut empty), None);
        // Truncated varint (continuation bit set, nothing follows).
        let mut bad: &[u8] = &[0x80];
        assert_eq!(u64::decode(&mut bad), None);
        // Vec with an absurd length header.
        let mut buf = Vec::new();
        put_varint(1 << 40, &mut buf);
        let mut s = buf.as_slice();
        assert_eq!(Vec::<u64>::decode(&mut s), None);
        // Overlong varint (>64 bits of payload).
        let mut overlong: &[u8] = &[0xff; 11];
        assert_eq!(u64::decode(&mut overlong), None);
        // Interval that decodes to empty is rejected.
        let mut buf = Vec::new();
        buf.push(0u8);
        put_signed(5, &mut buf);
        put_varint(0, &mut buf); // zero length
        let mut s = buf.as_slice();
        assert_eq!(Interval::decode(&mut s), None);
    }
}
