//! Checkpointing: serializable worker state and the checkpoint store.
//!
//! A checkpoint captures everything the engine needs to transplant a run
//! back to a superstep boundary: every worker's user state (via the
//! [`Snapshot`] trait, encoded with the wire-codec conventions of
//! [`crate::codec`]), every in-flight inbox (the messages delivered at the
//! last barrier but not yet consumed), the merged aggregator globals, and
//! the run metrics as of that boundary. Worker states and inboxes are
//! byte blobs — they round-trip through the same codec the network path
//! uses; the aggregator/metrics control block stays an in-memory clone
//! (aggregator keys are `&'static str` interned by user code, which bytes
//! cannot reconstruct), so the on-disk variant persists the blobs and
//! keeps the small control block resident.

use crate::aggregate::Aggregators;
use crate::codec::batch_checksum;
use crate::error::BspError;
use crate::metrics::RunMetrics;
use std::path::{Path, PathBuf};

/// Worker logic whose user state can round-trip through bytes. Implemented
/// by the ICM and VCM workers; required to construct a
/// [`crate::recover::Recovery`] session.
///
/// The contract mirrors [`crate::codec::Wire`], but at worker granularity
/// and fallible on restore: `restore(buf)` after `checkpoint(&mut buf)`
/// must reproduce a state that behaves identically in every subsequent
/// superstep — the fault-matrix tests pin that recovered result digests
/// are bit-identical to fault-free ones.
pub trait Snapshot {
    /// Appends this worker's complete user state to `buf`.
    fn checkpoint(&self, buf: &mut Vec<u8>);

    /// Replaces this worker's user state with the one encoded in `bytes`
    /// (written by [`Snapshot::checkpoint`]).
    ///
    /// # Errors
    ///
    /// Returns a static description when `bytes` is malformed; the worker
    /// state is left unchanged in that case.
    fn restore(&mut self, bytes: &[u8]) -> Result<(), &'static str>;
}

/// A captured superstep boundary: the unit a [`CheckpointStore`] persists
/// and a rollback restores.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// The superstep this checkpoint sits after (0 = before the first).
    pub step: u64,
    /// Per-worker [`Snapshot`] blobs.
    pub worker_states: Vec<Vec<u8>>,
    /// Per-worker in-flight inbox blobs (messages delivered at the last
    /// barrier, pending consumption in superstep `step + 1`).
    pub inboxes: Vec<Vec<u8>>,
    /// Merged aggregator globals as of the barrier.
    pub(crate) globals: Aggregators,
    /// Run metrics as of the barrier (recovery counters excluded on
    /// rollback — they are monotone over the whole recovered run).
    pub(crate) metrics: RunMetrics,
}

impl Checkpoint {
    /// Serialized payload size: the bytes the store must persist.
    #[must_use]
    pub fn payload_bytes(&self) -> u64 {
        self.worker_states
            .iter()
            .chain(self.inboxes.iter())
            .map(|b| b.len() as u64)
            .sum()
    }
}

/// Where checkpoint payloads live.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum CheckpointStorage {
    /// Blobs stay in memory (the default; survives rollbacks, not the
    /// process).
    #[default]
    Memory,
    /// Blobs are written to files under the given directory (conventionally
    /// somewhere under `target/`); the control block stays resident. The
    /// directory is created on first save.
    Disk(PathBuf),
}

/// Size of the FNV checksum trailer appended to every persisted blob.
const TRAILER: usize = 8;

/// A retained checkpoint: the control block plus the generation number
/// that names its on-disk files (`{prefix}{i}.g{gen % 2}.ck`).
#[derive(Debug, Clone)]
struct StoredCheckpoint {
    control: Checkpoint,
    generation: u64,
}

/// Holds the two most recent [`Checkpoint`]s of a run. Rollback targets
/// the newest consistent boundary; the previous one is retained purely as
/// a fallback against torn or corrupted persistence of the latest
/// (DESIGN.md §7): disk blobs carry a checksum trailer, are written via
/// temp file + atomic rename, and generations alternate between two file
/// slots so saving generation `n` never touches generation `n - 1`'s
/// files.
#[derive(Debug)]
pub struct CheckpointStore {
    storage: CheckpointStorage,
    latest: Option<StoredCheckpoint>,
    previous: Option<StoredCheckpoint>,
    next_generation: u64,
}

impl CheckpointStore {
    /// A store using the given storage backend.
    #[must_use]
    pub fn new(storage: CheckpointStorage) -> Self {
        CheckpointStore {
            storage,
            latest: None,
            previous: None,
            next_generation: 0,
        }
    }

    /// An in-memory store.
    #[must_use]
    pub fn in_memory() -> Self {
        Self::new(CheckpointStorage::Memory)
    }

    /// A store persisting blobs under `dir`.
    #[must_use]
    pub fn on_disk(dir: impl Into<PathBuf>) -> Self {
        Self::new(CheckpointStorage::Disk(dir.into()))
    }

    /// Saves `ckpt` as the latest checkpoint (demoting the current latest
    /// to the fallback slot), returning its payload size.
    ///
    /// On the disk backend every blob is written with an appended
    /// [`batch_checksum`] trailer, to a temp file first, then moved into
    /// place with an atomic rename — a crash mid-save can tear at most
    /// the generation being written, never the previous one.
    ///
    /// # Errors
    ///
    /// [`BspError::Checkpoint`] when the disk backend cannot write.
    pub fn save(&mut self, ckpt: Checkpoint) -> Result<u64, BspError> {
        let bytes = ckpt.payload_bytes();
        let generation = self.next_generation;
        self.next_generation += 1;
        let stored = if let CheckpointStorage::Disk(dir) = &self.storage {
            std::fs::create_dir_all(dir).map_err(|e| BspError::Checkpoint {
                detail: format!("create {}: {e}", dir.display()),
            })?;
            for (prefix, blobs) in [("worker", &ckpt.worker_states), ("inbox", &ckpt.inboxes)] {
                for (i, blob) in blobs.iter().enumerate() {
                    write_blob(dir, prefix, i, generation, blob)?;
                }
            }
            // Blobs live on disk; drop the resident copies, keep control.
            let control = Checkpoint {
                worker_states: vec![Vec::new(); ckpt.worker_states.len()],
                inboxes: vec![Vec::new(); ckpt.inboxes.len()],
                ..ckpt
            };
            StoredCheckpoint {
                control,
                generation,
            }
        } else {
            StoredCheckpoint {
                control: ckpt,
                generation,
            }
        };
        self.previous = self.latest.take();
        self.latest = Some(stored);
        Ok(bytes)
    }

    /// The newest *verifiable* checkpoint, with blobs re-read from disk
    /// (and their checksum trailers validated) when the store persists
    /// them there. When the latest generation is torn or corrupt, the
    /// previous good checkpoint is returned instead — a rollback replays
    /// more supersteps but the run survives. `None` when nothing was
    /// saved yet.
    ///
    /// # Errors
    ///
    /// [`BspError::Checkpoint`] when no retained generation passes
    /// verification (the error reports every failed generation).
    pub fn load(&self) -> Result<Option<Checkpoint>, BspError> {
        let Some(latest) = &self.latest else {
            return Ok(None);
        };
        let mut failures: Vec<String> = Vec::new();
        for stored in [Some(latest), self.previous.as_ref()].into_iter().flatten() {
            match self.read_generation(stored) {
                Ok(ckpt) => return Ok(Some(ckpt)),
                Err(detail) => failures.push(detail),
            }
        }
        Err(BspError::Checkpoint {
            detail: format!(
                "no verifiable checkpoint generation: {}",
                failures.join("; ")
            ),
        })
    }

    /// Reconstructs one retained generation, verifying every blob's
    /// checksum trailer on the disk backend. Memory blobs are resident
    /// and trusted as-is.
    fn read_generation(&self, stored: &StoredCheckpoint) -> Result<Checkpoint, String> {
        let mut ckpt = stored.control.clone();
        if let CheckpointStorage::Disk(dir) = &self.storage {
            for (prefix, blobs) in [
                ("worker", &mut ckpt.worker_states),
                ("inbox", &mut ckpt.inboxes),
            ] {
                for (i, blob) in blobs.iter_mut().enumerate() {
                    *blob = read_blob(dir, prefix, i, stored.generation)?;
                }
            }
        }
        Ok(ckpt)
    }
}

/// The file slot for one blob of one generation. Generations alternate
/// between two slots, so writing generation `n` only ever overwrites the
/// files of generation `n - 2` (already demoted out of the store).
fn blob_path(dir: &Path, prefix: &str, index: usize, generation: u64) -> PathBuf {
    dir.join(format!("{prefix}{index}.g{}.ck", generation % 2))
}

/// Persists one blob with a checksum trailer via temp file + rename.
fn write_blob(
    dir: &Path,
    prefix: &str,
    index: usize,
    generation: u64,
    blob: &[u8],
) -> Result<(), BspError> {
    let path = blob_path(dir, prefix, index, generation);
    let tmp = path.with_extension("tmp");
    let mut framed = Vec::with_capacity(blob.len() + TRAILER);
    framed.extend_from_slice(blob);
    framed.extend_from_slice(&batch_checksum(blob).to_le_bytes());
    std::fs::write(&tmp, &framed).map_err(|e| BspError::Checkpoint {
        detail: format!("write {}: {e}", tmp.display()),
    })?;
    std::fs::rename(&tmp, &path).map_err(|e| BspError::Checkpoint {
        detail: format!("rename {} -> {}: {e}", tmp.display(), path.display()),
    })
}

/// Reads one blob back, detecting truncation and corruption through the
/// checksum trailer. Errors are strings here — the caller aggregates them
/// across generations into one typed [`BspError::Checkpoint`].
fn read_blob(dir: &Path, prefix: &str, index: usize, generation: u64) -> Result<Vec<u8>, String> {
    let path = blob_path(dir, prefix, index, generation);
    let mut framed = std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    if framed.len() < TRAILER {
        return Err(format!(
            "truncated blob {} ({} byte(s), trailer needs {TRAILER})",
            path.display(),
            framed.len()
        ));
    }
    let payload_len = framed.len() - TRAILER;
    let mut trailer = [0u8; TRAILER];
    trailer.copy_from_slice(&framed[payload_len..]);
    let want = u64::from_le_bytes(trailer);
    framed.truncate(payload_len);
    let got = batch_checksum(&framed);
    if got != want {
        return Err(format!(
            "corrupt blob {}: checksum {got:#018x} != trailer {want:#018x}",
            path.display()
        ));
    }
    Ok(framed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            step: 4,
            worker_states: vec![vec![1, 2, 3], vec![4]],
            inboxes: vec![vec![5, 6], Vec::new()],
            globals: Aggregators::new(),
            metrics: RunMetrics::default(),
        }
    }

    #[test]
    fn memory_store_round_trips() {
        let mut store = CheckpointStore::in_memory();
        assert!(store.load().expect("load").is_none());
        let bytes = store.save(sample()).expect("save");
        assert_eq!(bytes, 6);
        let got = store.load().expect("load").expect("saved");
        assert_eq!(got.step, 4);
        assert_eq!(got.worker_states, vec![vec![1, 2, 3], vec![4]]);
        assert_eq!(got.inboxes, vec![vec![5, 6], Vec::new()]);
    }

    #[test]
    fn disk_store_round_trips_blobs() {
        let dir = std::env::temp_dir().join("graphite_ckpt_store_unit_test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = CheckpointStore::on_disk(&dir);
        store.save(sample()).expect("save");
        let got = store.load().expect("load").expect("saved");
        assert_eq!(got.step, 4);
        assert_eq!(got.worker_states, vec![vec![1, 2, 3], vec![4]]);
        assert_eq!(got.inboxes, vec![vec![5, 6], Vec::new()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn sample_at(step: u64, fill: u8) -> Checkpoint {
        Checkpoint {
            step,
            worker_states: vec![vec![fill; 3], vec![fill]],
            inboxes: vec![vec![fill; 2], Vec::new()],
            globals: Aggregators::new(),
            metrics: RunMetrics::default(),
        }
    }

    /// The torn-write regression: a truncated latest generation must fall
    /// back to the previous good checkpoint; corrupting that one too must
    /// surface a typed [`BspError::Checkpoint`], never a garbage restore.
    #[test]
    fn torn_latest_generation_falls_back_to_the_previous_good_checkpoint() {
        let dir = std::env::temp_dir().join("graphite_ckpt_torn_write_test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = CheckpointStore::on_disk(&dir);
        store.save(sample_at(4, 0xA1)).expect("save gen 0");
        store.save(sample_at(8, 0xB2)).expect("save gen 1");

        // Intact: the newest generation wins.
        assert_eq!(store.load().expect("load").expect("saved").step, 8);

        // Tear the latest generation (generation 1 lives in slot g1):
        // truncate one blob below even the trailer length.
        let torn = dir.join("worker0.g1.ck");
        std::fs::write(&torn, [0xB2, 0xB2]).expect("truncate");
        let got = store.load().expect("fallback").expect("previous kept");
        assert_eq!(got.step, 4, "must fall back to the previous generation");
        assert_eq!(got.worker_states, vec![vec![0xA1; 3], vec![0xA1]]);

        // Flip a payload bit in the previous generation as well: with no
        // verifiable generation left, loading is a typed error naming
        // both failures.
        let victim = dir.join("worker0.g0.ck");
        let mut bytes = std::fs::read(&victim).expect("read");
        bytes[0] ^= 0x01;
        std::fs::write(&victim, &bytes).expect("corrupt");
        let err = store.load().expect_err("no good generation remains");
        let BspError::Checkpoint { detail } = &err else {
            panic!("expected a typed checkpoint error, got: {err}");
        };
        assert!(detail.contains("truncated"), "{detail}");
        assert!(detail.contains("checksum"), "{detail}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A bit flip that leaves the length intact is still caught by the
    /// checksum trailer (truncation is not the only torn-write shape).
    #[test]
    fn bit_flipped_blob_is_rejected_by_the_checksum_trailer() {
        let dir = std::env::temp_dir().join("graphite_ckpt_bitflip_test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = CheckpointStore::on_disk(&dir);
        store.save(sample_at(6, 0x33)).expect("save");
        let victim = dir.join("inbox0.g0.ck");
        let mut bytes = std::fs::read(&victim).expect("read");
        bytes[1] ^= 0x80;
        std::fs::write(&victim, &bytes).expect("corrupt");
        let err = store.load().expect_err("single corrupt generation");
        assert!(
            matches!(&err, BspError::Checkpoint { detail } if detail.contains("checksum")),
            "expected checksum failure, got: {err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Saving alternates two file slots: generation `n` never touches the
    /// files of generation `n - 1`, so the fallback stays intact even
    /// when a save crashes halfway through.
    #[test]
    fn generations_alternate_file_slots() {
        let dir = std::env::temp_dir().join("graphite_ckpt_genslot_test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = CheckpointStore::on_disk(&dir);
        store.save(sample_at(2, 1)).expect("gen 0");
        let gen0 = std::fs::read(dir.join("worker0.g0.ck")).expect("g0");
        store.save(sample_at(4, 2)).expect("gen 1");
        assert_eq!(
            std::fs::read(dir.join("worker0.g0.ck")).expect("g0 again"),
            gen0,
            "saving generation 1 must not rewrite generation 0's files"
        );
        store.save(sample_at(6, 3)).expect("gen 2");
        assert_ne!(
            std::fs::read(dir.join("worker0.g0.ck")).expect("g0 recycled"),
            gen0,
            "generation 2 recycles slot 0 (its occupant was already demoted)"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
