//! The two-sided message exchange: senders encode, receivers decode and
//! group.
//!
//! A superstep's messages cross the barrier in three moves, and only the
//! middle one is serial:
//!
//! 1. **Send-encode** (worker threads, tail of the compute phase): each
//!    worker folds every batch under its program's exact combine, if it
//!    declared one ([`Fold`]), then serializes its non-empty remote
//!    batches into one retained `Frame` per destination
//!    (`Outbox::encode_remote`); the batch bound for its own partition
//!    stays typed.
//! 2. **Barrier** (driver thread, `engine::RunState::superstep`): takes
//!    the emission counts the outboxes kept at send, counts wire messages
//!    and bytes from batch and frame lengths, draws the fault injector,
//!    and *moves* every destination's frames and local batch into a
//!    `ReceiveJob` — handles change hands, no message is touched.
//! 3. **Receive-group** (worker threads again, `execute_receive`): each
//!    destination verifies and decodes the frames addressed to it and
//!    groups the arrivals per vertex with a stable counting scatter
//!    (`GroupTable`) — linear in the messages, no comparison sort.
//!
//! # Delivery-order contract
//!
//! A vertex sees its messages ordered by **sender in route order, then
//! send order within the sender** — per-sender FIFO, exactly what a real
//! transport gives. A sender-side fold keeps that order: it merges a
//! repeated `(vertex, key)` into its first occurrence and moves no
//! vertex's messages past one another. Route order is decided by the driver before any
//! worker runs (`engine::schedule_order`), every receiver walks its
//! arrivals in that order, and the scatter is stable, so nothing a thread
//! does — finishing early, finishing late, being scheduled on another
//! core — can reach the order: schedule perturbation permutes *which*
//! fixed order a superstep uses, never whether it is fixed.

use crate::codec::{decode_batch, encode_batch, get_varint, put_varint, Wire};
use crate::metrics::now;
use crate::partition::PartitionMap;
use graphite_tgraph::graph::VIdx;
use std::sync::Arc;
use std::time::Duration;

/// The messages delivered to one worker at the start of a superstep,
/// grouped per destination vertex and iterable in vertex order (the engine
/// is deterministic end to end for a fixed worker count).
///
/// Flat storage, reused across supersteps: the receive phase appends every
/// arrival to one contiguous message vector, then the worker's count
/// table (`GroupTable`) permutes that vector in place into per-vertex runs and
/// fills the range index. Clearing retains every allocation, so a steady
/// workload delivers all its messages through capacity acquired in the
/// first supersteps.
pub struct Inbox<M> {
    /// Messages, contiguous per destination vertex once grouped.
    msgs: Vec<M>,
    /// `(vertex, start, end)` ranges into `msgs`, ascending vertex order.
    index: Vec<(VIdx, usize, usize)>,
}

impl<M> Default for Inbox<M> {
    fn default() -> Self {
        Inbox {
            msgs: Vec::new(),
            index: Vec::new(),
        }
    }
}

impl<M> Inbox<M> {
    /// `true` when no vertex received anything.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Number of vertices that received messages.
    pub fn active_vertices(&self) -> usize {
        self.index.len()
    }

    /// Total number of messages.
    pub fn total_messages(&self) -> usize {
        self.msgs.len()
    }

    /// Iterates `(vertex, messages)` in ascending vertex order.
    pub fn iter(&self) -> impl Iterator<Item = (VIdx, &[M])> + '_ {
        self.index.iter().map(|&(v, s, e)| (v, &self.msgs[s..e]))
    }

    /// The messages for one vertex, if any.
    pub fn messages_for(&self, v: VIdx) -> Option<&[M]> {
        let i = self
            .index
            .binary_search_by_key(&v, |&(vertex, _, _)| vertex)
            .ok()?;
        let (_, s, e) = self.index[i];
        Some(&self.msgs[s..e])
    }

    pub(crate) fn clear(&mut self) {
        self.msgs.clear();
        self.index.clear();
    }

    /// Summed capacity of the retained buffers, in elements (allocation
    /// probe for the routing-growth metric).
    pub(crate) fn capacity_units(&self) -> usize {
        self.msgs.capacity() + self.index.capacity()
    }

    /// Appends one arrival, counting it against its destination vertex.
    #[inline]
    fn arrive(&mut self, table: &mut GroupTable, v: VIdx, m: M) {
        table.count(v);
        self.msgs.push(m);
    }

    /// Groups the arrivals per vertex: count → prefix-sum → place.
    ///
    /// The counts were taken on arrival. The prefix sum walks the occupied
    /// slots in ascending order — ascending vertex order, because local
    /// indices sort like vertex indices — emitting one index range per
    /// vertex and turning each count into that vertex's write cursor.
    /// Placement hands every arrival, in arrival order, the next position
    /// of its vertex (so the scatter is stable), and the resulting
    /// permutation is applied to `msgs` by following its cycles with
    /// swaps: every swap puts one message in its final position, so a
    /// message moves at most twice and nothing is cloned. Arrivals that
    /// already came in vertex order (single-source routing, low fan-in
    /// steps) skip placement entirely.
    fn group(&mut self, table: &mut GroupTable) {
        let mut offset = 0usize;
        for (w, &word) in table.occupied.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let slot = &mut table.slots[w * 64 + bits.trailing_zeros() as usize];
                bits &= bits - 1;
                let n = slot.count as usize;
                self.index.push((slot.vertex, offset, offset + n));
                slot.count = offset as u32;
                offset += n;
            }
        }
        if !table.in_order {
            for p in &mut table.place {
                let cursor = &mut table.slots[*p as usize].count;
                *p = *cursor;
                *cursor += 1;
            }
            let place = &mut table.place;
            for i in 0..place.len() {
                while place[i] as usize != i {
                    let j = place[i] as usize;
                    self.msgs.swap(i, j);
                    place.swap(i, j);
                }
            }
        }
        table.reset();
    }

    /// Closes a fill: groups what arrived or, when the fill failed, drops
    /// it. Either way the table is clean for its next use.
    fn finish<E>(&mut self, table: &mut GroupTable, filled: Result<(), E>) -> Result<(), E> {
        match filled {
            Ok(()) => self.group(table),
            Err(_) => {
                self.clear();
                table.reset();
            }
        }
        filled
    }
}

impl<M: Wire> Inbox<M> {
    /// Appends this grouped inbox's in-flight messages to `buf` in
    /// delivery order (checkpoint capture happens at barriers, after the
    /// receive phase).
    pub(crate) fn checkpoint(&self, buf: &mut Vec<u8>) {
        put_varint(self.msgs.len() as u64, buf);
        for &(v, s, e) in &self.index {
            for m in &self.msgs[s..e] {
                put_varint(u64::from(v.0), buf);
                m.encode(buf);
            }
        }
    }

    /// Replaces this inbox's contents with the messages encoded by
    /// [`Inbox::checkpoint`], regrouped. The recorded order is already
    /// grouped, and grouping is stable, so this reproduces the exact
    /// per-vertex delivery order of the captured barrier.
    pub(crate) fn restore(
        &mut self,
        bytes: &[u8],
        table: &mut GroupTable,
    ) -> Result<(), &'static str> {
        self.clear();
        let filled = self.refill(bytes, table);
        self.finish(table, filled)
    }

    fn refill(&mut self, bytes: &[u8], table: &mut GroupTable) -> Result<(), &'static str> {
        let mut cur = bytes;
        let count = get_varint(&mut cur).ok_or("inbox message count")?;
        for _ in 0..count {
            let raw = get_varint(&mut cur).ok_or("inbox vertex id")?;
            let v = VIdx(u32::try_from(raw).map_err(|_| "inbox vertex id exceeds u32")?);
            if !table.owns(v) {
                return Err("inbox vertex not owned by this worker");
            }
            let m = M::decode(&mut cur).ok_or("inbox message payload")?;
            self.arrive(table, v, m);
        }
        if !cur.is_empty() {
            return Err("trailing bytes in inbox checkpoint");
        }
        Ok(())
    }
}

/// One owned vertex's entry in the [`GroupTable`].
#[derive(Clone, Copy)]
struct Slot {
    /// Arrivals counted this exchange; during grouping, the write cursor
    /// of the vertex's run. Zero between exchanges.
    count: u32,
    /// The vertex behind this slot, recorded when the first arrival of an
    /// exchange touches it (meaningless while `count` is zero).
    vertex: VIdx,
}

/// One worker's scratch for the receive-side counting scatter: a count
/// table with one slot per *owned* vertex (keyed by
/// [`PartitionMap::local_index`]), sized once per run. An occupancy
/// bitmap lets the prefix sum visit only the touched slots, in ascending
/// order, and lets the reset clear only those — a superstep that delivers
/// `n` messages costs `O(n + owned / 64)`, however large the partition.
///
/// One table per worker serves both halves of the inbox double-buffer:
/// only the half being filled ever uses it.
pub(crate) struct GroupTable {
    partition: Arc<PartitionMap>,
    worker: usize,
    slots: Vec<Slot>,
    /// Bit `s` is set while `slots[s].count` is non-zero.
    occupied: Vec<u64>,
    /// Per arrival, in arrival order: its slot, then — during grouping —
    /// its final position in the message vector.
    place: Vec<u32>,
    /// Whether the arrivals so far came in non-decreasing slot order.
    in_order: bool,
    last: u32,
}

impl GroupTable {
    pub(crate) fn new(partition: Arc<PartitionMap>, worker: usize) -> Self {
        let owned = partition.owned_count(worker);
        GroupTable {
            partition,
            worker,
            slots: vec![
                Slot {
                    count: 0,
                    vertex: VIdx(0),
                };
                owned
            ],
            occupied: vec![0; owned.div_ceil(64)],
            place: Vec::new(),
            in_order: true,
            last: 0,
        }
    }

    /// Whether `v` is a vertex of this worker's partition.
    fn owns(&self, v: VIdx) -> bool {
        v.idx() < self.partition.len() && self.partition.worker_of(v) == self.worker
    }

    #[inline]
    fn count(&mut self, v: VIdx) {
        debug_assert!(
            self.owns(v),
            "message routed to a worker that does not own {v:?}"
        );
        let at = self.partition.local_index(v);
        let slot = &mut self.slots[at];
        if slot.count == 0 {
            slot.vertex = v;
            self.occupied[at / 64] |= 1 << (at % 64);
        }
        slot.count += 1;
        let at = at as u32;
        self.in_order &= at >= self.last;
        self.last = at;
        self.place.push(at);
    }

    /// Zeroes the touched slots and forgets the arrivals.
    fn reset(&mut self) {
        for (w, word) in self.occupied.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                self.slots[w * 64 + bits.trailing_zeros() as usize].count = 0;
                bits &= bits - 1;
            }
        }
        self.place.clear();
        self.in_order = true;
        self.last = 0;
    }

    /// Summed capacity of the table's buffers, in elements (allocation
    /// probe for the routing-growth metric).
    pub(crate) fn capacity_units(&self) -> usize {
        self.slots.capacity() + self.occupied.capacity() + self.place.capacity()
    }
}

/// An encoded remote batch: `count` `(vertex, message)` pairs in the
/// [`encode_batch`] framing, integrity trailer included. What a transport
/// would put on the wire.
#[derive(Default)]
pub(crate) struct Frame {
    pub(crate) bytes: Vec<u8>,
    pub(crate) count: usize,
}

/// The key a sender-side [`Fold`] matches messages by, beside their
/// destination vertex: an interval message's `(start, end)`, a batched
/// snapshot message's offset range, `(0, 0)` where the destination alone
/// is the key.
pub type FoldKey = (u64, u64);

/// A program's sender-side fold, installed on each worker's [`Outbox`]
/// through [`WorkerLogic::fold`](crate::engine::WorkerLogic::fold).
///
/// Two messages one worker sends in one superstep to the same vertex
/// under the same key fold into one before either crosses the barrier:
/// the later one is `combine`d into the earlier. Only an **exact** combine
/// may be installed — total (it never declines) and independent of fold
/// order and grouping, bit for bit: integer min/max, boolean or. The
/// receiver still folds what arrives, so its folded values are then the
/// ones it would have computed from every emission; only the wire is
/// smaller. A combine that declines a pair ships the later message
/// unfolded.
pub struct Fold<M> {
    key: fn(&M) -> FoldKey,
    combine: Combine<M>,
}

/// A program's combine, accumulator first, `None` where it declines.
type Combine<M> = Box<dyn Fn(&M, &M) -> Option<M> + Send>;

impl<M> Fold<M> {
    /// A fold matching messages by `key` and merging them with `combine`
    /// (accumulator first).
    pub fn new(
        key: fn(&M) -> FoldKey,
        combine: impl Fn(&M, &M) -> Option<M> + Send + 'static,
    ) -> Self {
        Fold {
            key,
            combine: Box::new(combine),
        }
    }
}

/// The 32-bit hash a `(vertex, key)` pair is filed under: a Fibonacci
/// multiply, read from the top bits, so every input bit reaches the slot.
#[inline]
fn fold_hash(dst: VIdx, key: FoldKey) -> u32 {
    let x = u64::from(dst.0) ^ key.0.rotate_left(21) ^ key.1.rotate_left(42);
    (x.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as u32
}

/// Messages per bucket a batch is split into before it is folded: small
/// enough that a bucket, its folded output and its key table stay in a
/// core's private cache.
const FOLD_BUCKET: usize = 2048;

/// An outbox's fold and its scratch. A batch is folded whole when the
/// superstep's compute ends, in two passes that touch no large structure
/// at random: a stable *split* of the batch into buckets of destination
/// vertices (by [`PartitionMap::local_index`] range, about
/// [`FOLD_BUCKET`] messages each), then a *fold* of each bucket through
/// an open-addressing table of its `(vertex, key)` pairs, so a message
/// costs expected O(1) whatever a vertex's fan-in. The folded batch holds
/// the buckets in vertex order and, within one, the pairs in
/// first-occurrence order: each vertex's messages keep the order the
/// unfolded batch delivers them in. The buckets and the table are built
/// up in the first supersteps and kept for the run.
struct Folder<M> {
    fold: Fold<M>,
    /// Local indexes of the largest partition, rounded up to a power of
    /// two: the range the buckets split.
    span: usize,
    /// The batch split into buckets, each in send order; empty between
    /// folds.
    buckets: Vec<Vec<(VIdx, M)>>,
    /// One bucket's pairs, `(stamp, position in the folded batch,
    /// hash)`: a slot is filed when its stamp is the bucket's.
    keys: Vec<(u32, u32, u32)>,
    /// The stamp of the bucket being folded.
    stamp: u32,
}

impl<M> Folder<M> {
    fn new(fold: Fold<M>, partition: &PartitionMap) -> Self {
        let largest = (0..partition.workers())
            .map(|w| partition.owned_count(w))
            .max()
            .unwrap_or(0);
        Folder {
            fold,
            span: largest.next_power_of_two(),
            buckets: Vec::new(),
            keys: Vec::new(),
            stamp: 0,
        }
    }

    /// Folds `batch` in place: split, then fold bucket by bucket.
    fn fold(&mut self, batch: &mut Vec<(VIdx, M)>, partition: &PartitionMap) {
        if batch.len() < 2 {
            return;
        }
        let count = (batch.len() / FOLD_BUCKET)
            .next_power_of_two()
            .min(self.span);
        if self.buckets.len() < count {
            self.buckets.resize_with(count, Vec::new);
        }
        if count == 1 {
            std::mem::swap(batch, &mut self.buckets[0]);
        } else {
            let shift = self.span.trailing_zeros() - count.trailing_zeros();
            for (v, m) in batch.drain(..) {
                self.buckets[partition.local_index(v) >> shift].push((v, m));
            }
        }
        for b in 0..count {
            let mut bucket = std::mem::take(&mut self.buckets[b]);
            self.fold_bucket(&mut bucket, batch);
            self.buckets[b] = bucket;
        }
    }

    /// Drains `bucket` onto `out`, folded per `(vertex, key)`.
    fn fold_bucket(&mut self, bucket: &mut Vec<(VIdx, M)>, out: &mut Vec<(VIdx, M)>) {
        if bucket.len() < 2 {
            out.append(bucket);
            return;
        }
        let slots = (2 * bucket.len()).next_power_of_two();
        if self.keys.len() < slots {
            self.keys.resize(slots, (0, 0, 0));
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // Stamps wrapped: no slot may claim the new one.
            self.keys.fill((0, 0, 0));
            self.stamp = 1;
        }
        let shift = 32 - slots.trailing_zeros();
        for (v, m) in bucket.drain(..) {
            let key = (self.fold.key)(&m);
            let hash = fold_hash(v, key);
            let mut i = (hash >> shift) as usize;
            loop {
                let (stamp, pos, filed) = self.keys[i];
                if stamp != self.stamp {
                    self.keys[i] = (self.stamp, out.len() as u32, hash);
                    out.push((v, m));
                    break;
                }
                let (u, acc) = &mut out[pos as usize];
                if filed == hash && *u == v && (self.fold.key)(acc) == key {
                    match (self.fold.combine)(acc, &m) {
                        Some(folded) => *acc = folded,
                        None => out.push((v, m)),
                    }
                    break;
                }
                i = (i + 1) & (slots - 1);
            }
        }
    }

    /// Forgets a fold a panic interrupted (rollback).
    fn clear(&mut self) {
        self.buckets.iter_mut().for_each(Vec::clear);
    }

    fn capacity_units(&self) -> usize {
        let buckets: usize = self.buckets.iter().map(Vec::capacity).sum();
        buckets + self.buckets.capacity() + self.keys.capacity()
    }
}

/// Where a worker's superstep deposits outgoing messages. Routing to the
/// owning worker happens immediately; when the worker's compute ends,
/// every batch is folded under the program's [`Fold`], if any, and the
/// remote ones are encoded into per-destination frames. One outbox per
/// worker lives for the whole run — batches and frames are lent to the
/// receivers across the barrier and come home emptied, so their capacity
/// is reused every superstep.
pub struct Outbox<M> {
    partition: Arc<PartitionMap>,
    pub(crate) batches: Vec<Vec<(VIdx, M)>>,
    /// One frame per destination worker (the own-partition entry stays
    /// empty: local messages are never serialized).
    pub(crate) frames: Vec<Frame>,
    /// Messages emitted per destination worker this superstep, folded or
    /// not: the paper's message count, which the barrier takes.
    pub(crate) emitted: Vec<u64>,
    folder: Option<Folder<M>>,
}

impl<M> Outbox<M> {
    pub(crate) fn new(partition: Arc<PartitionMap>, fold: Option<Fold<M>>) -> Self {
        let workers = partition.workers();
        Outbox {
            batches: (0..workers).map(|_| Vec::new()).collect(),
            frames: (0..workers).map(|_| Frame::default()).collect(),
            emitted: vec![0; workers],
            folder: fold.map(|fold| Folder::new(fold, &partition)),
            partition,
        }
    }

    /// Sends `msg` to vertex `dst` for delivery next superstep.
    #[inline]
    pub fn send(&mut self, dst: VIdx, msg: M) {
        let w = self.partition.worker_of(dst);
        self.emitted[w] += 1;
        self.batches[w].push((dst, msg));
    }

    /// Messages queued so far (before the fold).
    pub fn len(&self) -> usize {
        self.batches.iter().map(Vec::len).sum()
    }

    /// `true` when nothing was sent.
    pub fn is_empty(&self) -> bool {
        self.batches.iter().all(Vec::is_empty)
    }

    /// Drops everything queued, counted or encoded, keeping capacity
    /// (rollback discards the faulted superstep's output).
    pub(crate) fn clear(&mut self) {
        for b in &mut self.batches {
            b.clear();
        }
        for f in &mut self.frames {
            f.bytes.clear();
            f.count = 0;
        }
        self.emitted.fill(0);
        if let Some(folder) = &mut self.folder {
            folder.clear();
        }
    }

    /// Summed capacity of the per-destination batches and frames and of
    /// the fold's scratch (allocation probe).
    pub(crate) fn capacity_units(&self) -> usize {
        let batches: usize = self.batches.iter().map(Vec::capacity).sum();
        let frames: usize = self.frames.iter().map(|f| f.bytes.capacity()).sum();
        let folder = self.folder.as_ref().map_or(0, Folder::capacity_units);
        batches + frames + folder
    }
}

impl<M: Wire> Outbox<M> {
    /// The send side of the exchange: folds every batch under the
    /// outbox's [`Fold`], if any, then serializes every non-empty batch
    /// bound for another worker into that destination's frame and empties
    /// the batch. Worker `me`'s own batch is left typed.
    pub(crate) fn encode_remote(&mut self, me: usize) {
        for (dst, (batch, frame)) in self.batches.iter_mut().zip(&mut self.frames).enumerate() {
            frame.bytes.clear();
            frame.count = 0;
            if let Some(folder) = &mut self.folder {
                folder.fold(batch, &self.partition);
            }
            if dst == me || batch.is_empty() {
                continue;
            }
            encode_batch(batch, &mut frame.bytes);
            frame.count = batch.len();
            batch.clear();
        }
    }
}

/// One sender's contribution to a destination worker's inbox.
pub(crate) enum Arrival<M> {
    /// The destination's own batch: never serialized.
    Local(Vec<(VIdx, M)>),
    /// A frame encoded by worker `src`.
    Remote { src: usize, frame: Frame },
}

/// Everything one destination worker's receive phase needs, moved to its
/// pool thread and moved back inside [`ReceiveDone`].
pub(crate) struct ReceiveJob<M> {
    /// The inbox half to fill (stale contents are discarded).
    pub(crate) inbox: Inbox<M>,
    pub(crate) table: GroupTable,
    /// In route order: the order arrivals are delivered in.
    pub(crate) arrivals: Vec<Arrival<M>>,
}

/// A finished receive phase. The lent buffers come home drained (batches)
/// or as sent (frames) so the driver can return them to their outboxes.
pub(crate) struct ReceiveDone<M> {
    pub(crate) inbox: Inbox<M>,
    pub(crate) table: GroupTable,
    pub(crate) arrivals: Vec<Arrival<M>>,
    pub(crate) took: Duration,
    /// The sender whose frame failed verification or decoding, with the
    /// codec's description. The inbox is then empty: the frame that failed
    /// delivered nothing, and what arrived before it is discarded with the
    /// superstep.
    pub(crate) failed: Option<(usize, &'static str)>,
}

/// The receive side of the exchange for one destination worker: decode
/// the arrivals in route order, then group them per vertex. The single
/// execution path shared by the pool threads, the driver's own share of a
/// pooled phase and the inline (small-step) path.
pub(crate) fn execute_receive<M: Wire>(job: ReceiveJob<M>) -> ReceiveDone<M> {
    let ReceiveJob {
        mut inbox,
        mut table,
        mut arrivals,
    } = job;
    let t0 = now();
    inbox.clear();
    let mut filled = Ok(());
    for arrival in &mut arrivals {
        match arrival {
            Arrival::Local(batch) => {
                for (v, m) in batch.drain(..) {
                    inbox.arrive(&mut table, v, m);
                }
            }
            Arrival::Remote { src, frame } => {
                // The trailer is verified before anything is delivered, so
                // a corrupted frame contributes no message at all.
                let decoded = decode_batch(&frame.bytes, frame.count, |v, m| {
                    inbox.arrive(&mut table, v, m);
                });
                if let Err(detail) = decoded {
                    filled = Err((*src, detail));
                    break;
                }
            }
        }
    }
    let failed = inbox.finish(&mut table, filled).err();
    ReceiveDone {
        inbox,
        table,
        arrivals,
        took: t0.elapsed(),
        failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphite_tgraph::rng::SplitMix64;

    const ME: usize = 1;

    /// A random 3-worker assignment of `vertices` vertices, and the ones
    /// worker [`ME`] owns.
    fn partition(vertices: usize, rng: &mut SplitMix64) -> (Arc<PartitionMap>, Vec<VIdx>) {
        let assignment: Vec<u16> = (0..vertices).map(|_| (rng.next_u64() % 3) as u16).collect();
        let map = PartitionMap::from_assignment(assignment, 3).expect("assignment in range");
        let owned = map.owned_by(ME);
        (Arc::new(map), owned)
    }

    /// The oracle: all arrivals in source order, stably sorted by vertex.
    fn reference(sources: &[Vec<(VIdx, u64)>]) -> Vec<(VIdx, Vec<u64>)> {
        let mut flat: Vec<(VIdx, u64)> = sources.iter().flatten().copied().collect();
        flat.sort_by_key(|&(v, _)| v);
        let mut grouped: Vec<(VIdx, Vec<u64>)> = Vec::new();
        for (v, m) in flat {
            match grouped.last_mut() {
                Some((last, ms)) if *last == v => ms.push(m),
                _ => grouped.push((v, vec![m])),
            }
        }
        grouped
    }

    /// Source `local` arrives typed, every other one as an encoded frame.
    fn arrivals(sources: &[Vec<(VIdx, u64)>], local: usize) -> Vec<Arrival<u64>> {
        sources
            .iter()
            .enumerate()
            .filter(|(_, batch)| !batch.is_empty())
            .map(|(src, batch)| {
                if src == local {
                    return Arrival::Local(batch.clone());
                }
                let mut frame = Frame {
                    bytes: Vec::new(),
                    count: batch.len(),
                };
                encode_batch(batch, &mut frame.bytes);
                Arrival::Remote { src, frame }
            })
            .collect()
    }

    fn contents(inbox: &Inbox<u64>) -> Vec<(VIdx, Vec<u64>)> {
        inbox.iter().map(|(v, ms)| (v, ms.to_vec())).collect()
    }

    /// One case of the property: `shape` picks the arrival pattern.
    fn case(shape: u64, owned: &[VIdx], rng: &mut SplitMix64) -> Vec<Vec<(VIdx, u64)>> {
        let pick = |rng: &mut SplitMix64| owned[(rng.next_u64() % owned.len() as u64) as usize];
        let fan_in = 1 + (rng.next_u64() % 8) as usize;
        let len = (rng.next_u64() % 200) as usize;
        let mut tag = 0u64;
        let mut source = |vertices: Vec<VIdx>| -> Vec<(VIdx, u64)> {
            vertices
                .into_iter()
                .map(|v| {
                    tag += 1;
                    (v, tag)
                })
                .collect()
        };
        match shape {
            0 => vec![Vec::new(); fan_in],
            1 => vec![source(vec![pick(rng)])],
            2 => {
                let v = pick(rng);
                (0..fan_in).map(|_| source(vec![v; len])).collect()
            }
            3 | 4 => (0..fan_in)
                .map(|_| {
                    let mut vs: Vec<VIdx> = (0..len).map(|_| pick(rng)).collect();
                    vs.sort_unstable();
                    if shape == 4 {
                        vs.reverse();
                    }
                    source(vs)
                })
                .collect(),
            _ => (0..fan_in)
                .map(|_| {
                    let n = (rng.next_u64() % 200) as usize;
                    source((0..n).map(|_| pick(rng)).collect())
                })
                .collect(),
        }
    }

    #[test]
    fn counting_scatter_matches_a_stable_sort_by_vertex() {
        let mut rng = SplitMix64::new(0x0e7c_4a11);
        let (partition, owned) = partition(97, &mut rng);
        // One inbox, one table and one restore target serve every case: a
        // slot, bit or placement left behind by one would corrupt the next.
        let mut inbox: Inbox<u64> = Inbox::default();
        let mut table = GroupTable::new(Arc::clone(&partition), ME);
        let mut restored: Inbox<u64> = Inbox::default();
        for i in 0..768u64 {
            let sources = case(i % 8, &owned, &mut rng);
            let want = reference(&sources);
            let local = (rng.next_u64() % sources.len() as u64) as usize;
            let done = execute_receive(ReceiveJob {
                inbox,
                table,
                arrivals: arrivals(&sources, local),
            });
            assert_eq!(done.failed, None, "case {i}");
            (inbox, table) = (done.inbox, done.table);
            assert_eq!(contents(&inbox), want, "case {i}: iter()");
            assert_eq!(inbox.active_vertices(), want.len(), "case {i}");
            assert_eq!(
                inbox.total_messages(),
                sources.iter().map(Vec::len).sum::<usize>(),
                "case {i}"
            );
            assert_eq!(inbox.is_empty(), want.is_empty(), "case {i}");
            for &v in &owned {
                let expect = want.iter().find(|(u, _)| *u == v).map(|(_, ms)| &ms[..]);
                assert_eq!(
                    inbox.messages_for(v),
                    expect,
                    "case {i}: messages_for({v:?})"
                );
            }
            let mut blob = Vec::new();
            inbox.checkpoint(&mut blob);
            restored.restore(&blob, &mut table).expect("restore");
            assert_eq!(contents(&restored), want, "case {i}: checkpoint round trip");
        }
    }

    #[test]
    fn inbox_checkpoint_rejects_what_it_cannot_restore() {
        let mut rng = SplitMix64::new(7);
        let (partition, owned) = partition(40, &mut rng);
        let mut table = GroupTable::new(Arc::clone(&partition), ME);
        let mut inbox: Inbox<u64> = Inbox::default();
        for (k, &v) in [owned[3], owned[1], owned[3], owned[0]].iter().enumerate() {
            inbox.arrive(&mut table, v, k as u64);
        }
        inbox.group(&mut table);
        let mut blob = Vec::new();
        inbox.checkpoint(&mut blob);
        let mut restored: Inbox<u64> = Inbox::default();
        // Corrupt blobs are rejected, not mis-restored — and leave the
        // inbox empty and the table usable.
        let mut extra = blob.clone();
        extra.push(0);
        let foreign = (0..40)
            .map(VIdx)
            .find(|&v| partition.worker_of(v) != ME)
            .expect("some vertex lives elsewhere");
        let mut misrouted = Vec::new();
        put_varint(1, &mut misrouted);
        put_varint(u64::from(foreign.0), &mut misrouted);
        7u64.encode(&mut misrouted);
        let mut out_of_range = Vec::new();
        put_varint(1, &mut out_of_range);
        put_varint(40, &mut out_of_range);
        7u64.encode(&mut out_of_range);
        for bad in [&blob[..blob.len() - 1], &extra, &misrouted, &out_of_range] {
            assert!(restored.restore(bad, &mut table).is_err());
            assert!(restored.is_empty());
        }
        restored.restore(&blob, &mut table).expect("restore");
        assert_eq!(contents(&restored), contents(&inbox));
    }

    #[test]
    fn corrupted_frame_delivers_nothing_and_names_its_sender() {
        let mut rng = SplitMix64::new(11);
        let (partition, owned) = partition(64, &mut rng);
        let sources: Vec<Vec<(VIdx, u64)>> = (0..3u64)
            .map(|s| owned.iter().map(|&v| (v, s)).collect())
            .collect();
        let mut tampered = arrivals(&sources, ME);
        let Arrival::Remote { frame, .. } = &mut tampered[2] else {
            panic!("source 2 is remote");
        };
        frame.bytes[5] ^= 0x10;
        let done = execute_receive(ReceiveJob {
            inbox: Inbox::default(),
            table: GroupTable::new(Arc::clone(&partition), ME),
            arrivals: tampered,
        });
        let (src, detail) = done.failed.expect("checksum must trip");
        assert_eq!(src, 2);
        assert!(detail.contains("checksum"), "got {detail}");
        assert!(done.inbox.is_empty());
        assert_eq!(done.inbox.total_messages(), 0);
        // The table came back clean: the same arrivals, intact, group.
        let again = execute_receive(ReceiveJob {
            inbox: done.inbox,
            table: done.table,
            arrivals: arrivals(&sources, ME),
        });
        assert_eq!(again.failed, None);
        assert_eq!(contents(&again.inbox), reference(&sources));
    }

    #[test]
    fn encode_remote_frames_every_batch_but_its_own() {
        let mut rng = SplitMix64::new(3);
        let (partition, _) = partition(30, &mut rng);
        let mut outbox: Outbox<u64> = Outbox::new(Arc::clone(&partition), None);
        for v in 0..30 {
            outbox.send(VIdx(v), u64::from(v));
        }
        let queued: Vec<usize> = outbox.batches.iter().map(Vec::len).collect();
        outbox.encode_remote(ME);
        for (dst, frame) in outbox.frames.iter().enumerate() {
            if dst == ME {
                assert_eq!((frame.count, frame.bytes.len()), (0, 0));
                assert_eq!(
                    outbox.batches[ME].len(),
                    queued[ME],
                    "own batch stays typed"
                );
                continue;
            }
            assert_eq!(frame.count, queued[dst]);
            assert!(outbox.batches[dst].is_empty());
            let mut got = Vec::new();
            decode_batch::<u64>(&frame.bytes, frame.count, |v, m| got.push((v, m)))
                .expect("clean frame");
            assert!(got
                .iter()
                .all(|&(v, m)| partition.worker_of(v) == dst && m == u64::from(v.0)));
        }
        // A quiet step leaves no stale frame behind.
        outbox.batches[ME].clear();
        outbox.encode_remote(ME);
        assert!(outbox
            .frames
            .iter()
            .all(|f| f.count == 0 && f.bytes.is_empty()));
    }

    /// `(key, value)` messages, folded per key with an integer min.
    type Keyed = (u64, u64);

    fn min_fold() -> Fold<Keyed> {
        Fold::new(|&(k, _)| (k, 0), |&(k, a), &(_, b)| Some((k, a.min(b))))
    }

    /// One sender's sends for one superstep over `vertices` vertices, in
    /// the arrival patterns of [`case`]; keys come from a small range, so
    /// repeats are common.
    fn keyed_sends(shape: u64, vertices: u32, rng: &mut SplitMix64) -> Vec<(VIdx, Keyed)> {
        let len = (rng.next_u64() % 300) as usize;
        let msg = |v: VIdx, rng: &mut SplitMix64| (v, (rng.next_u64() % 3, rng.next_u64() % 1000));
        let pick = |rng: &mut SplitMix64| VIdx((rng.next_u64() % u64::from(vertices)) as u32);
        let mut vs: Vec<VIdx> = match shape % 5 {
            0 => Vec::new(),
            1 => vec![pick(rng); len],
            _ => (0..len).map(|_| pick(rng)).collect(),
        };
        match shape % 5 {
            2 => vs.sort_unstable(),
            3 => vs.sort_unstable_by(|a, b| b.cmp(a)),
            _ => {}
        }
        vs.into_iter().map(|v| msg(v, rng)).collect()
    }

    /// The barrier's hand-off of one sender's superstep: what it emitted,
    /// and, per destination worker, the arrival it delivers there.
    fn hand_off(outbox: &mut Outbox<Keyed>, src: usize) -> (u64, Vec<Option<Arrival<Keyed>>>) {
        outbox.encode_remote(src);
        let emitted = outbox.emitted.iter_mut().map(std::mem::take).sum();
        let arrivals = (0..outbox.batches.len())
            .map(|dst| {
                if dst == src {
                    let batch = std::mem::take(&mut outbox.batches[src]);
                    (!batch.is_empty()).then_some(Arrival::Local(batch))
                } else {
                    let frame = std::mem::take(&mut outbox.frames[dst]);
                    (frame.count > 0).then_some(Arrival::Remote { src, frame })
                }
            })
            .collect();
        (emitted, arrivals)
    }

    fn wire_count(arrival: &Arrival<Keyed>) -> u64 {
        match arrival {
            Arrival::Local(batch) => batch.len() as u64,
            Arrival::Remote { frame, .. } => frame.count as u64,
        }
    }

    /// Per vertex, its messages folded per key, keys in first-arrival
    /// order.
    fn folded_by_key(inbox: &Inbox<Keyed>) -> Vec<(VIdx, Vec<Keyed>)> {
        let fold = |ms: &[Keyed]| {
            let mut out: Vec<Keyed> = Vec::new();
            for &(k, x) in ms {
                match out.iter_mut().find(|(j, _)| *j == k) {
                    Some(acc) => acc.1 = acc.1.min(x),
                    None => out.push((k, x)),
                }
            }
            out
        };
        inbox.iter().map(|(v, ms)| (v, fold(ms))).collect()
    }

    #[test]
    fn the_sender_fold_delivers_what_the_unfolded_path_folds_to() {
        let mut rng = SplitMix64::new(0x5e7d_f01d);
        let vertices = 61;
        let (partition, _) = partition(vertices as usize, &mut rng);
        // The same outboxes serve every case, so an index entry left
        // behind by one superstep would fold a later send into a batch
        // entry it no longer names.
        let outboxes = |fold: fn() -> Option<Fold<Keyed>>| -> Vec<Outbox<Keyed>> {
            (0..3)
                .map(|_| Outbox::new(Arc::clone(&partition), fold()))
                .collect()
        };
        let mut folding = outboxes(|| Some(min_fold()));
        let mut plain = outboxes(|| None);
        let (mut emitted_total, mut wire_total) = (0, 0);
        for i in 0..768u64 {
            if i % 3 == 0 {
                // A rolled-back superstep: its sends and its index go.
                for outbox in &mut folding {
                    for (v, m) in keyed_sends(4, vertices, &mut rng) {
                        outbox.send(v, m);
                    }
                    outbox.clear();
                }
            }
            let sends: Vec<_> = (0..3).map(|_| keyed_sends(i, vertices, &mut rng)).collect();
            let mut inboxes = Vec::new();
            for (path, outboxes) in [&mut folding, &mut plain].into_iter().enumerate() {
                let mut arrivals: Vec<Vec<Arrival<Keyed>>> = (0..3).map(|_| Vec::new()).collect();
                for (src, outbox) in outboxes.iter_mut().enumerate() {
                    for &(v, m) in &sends[src] {
                        outbox.send(v, m);
                    }
                    let (emitted, out) = hand_off(outbox, src);
                    let wire: u64 = out.iter().flatten().map(wire_count).sum();
                    assert_eq!(emitted, sends[src].len() as u64, "case {i}: emissions");
                    if path == 0 {
                        assert!(wire <= emitted, "case {i}: {wire} wire of {emitted}");
                        (emitted_total, wire_total) = (emitted_total + emitted, wire_total + wire);
                    } else {
                        assert_eq!(wire, emitted, "case {i}: an unfolded outbox ships all");
                    }
                    for (dst, arrival) in out.into_iter().enumerate() {
                        arrivals[dst].extend(arrival);
                    }
                }
                let received: Vec<_> = arrivals
                    .into_iter()
                    .enumerate()
                    .map(|(dst, arrivals)| {
                        let done = execute_receive(ReceiveJob {
                            inbox: Inbox::default(),
                            table: GroupTable::new(Arc::clone(&partition), dst),
                            arrivals,
                        });
                        assert_eq!(done.failed, None, "case {i}");
                        folded_by_key(&done.inbox)
                    })
                    .collect();
                inboxes.push(received);
            }
            assert_eq!(inboxes[0], inboxes[1], "case {i}: folded contents");
        }
        assert!(wire_total < emitted_total, "the fold never merged anything");
    }
}
