//! Versioned checkpoint/resume support for interrupted tuning runs.
//!
//! A real tuning campaign runs for days on a shared license pool; the
//! driver process dies, the cluster preempts, someone trips over a power
//! cord. The tuner therefore persists a [`Checkpoint`] at the end of
//! every iteration, and [`PpaTuner::resume`](crate::PpaTuner::resume)
//! continues an interrupted run to a [`TuneResult`](crate::TuneResult)
//! *identical* to the uninterrupted one.
//!
//! # How resume reproduces a run exactly
//!
//! The checkpoint's load-bearing content is the **evaluation-outcome
//! log**: one [`EvalRecord`] per oracle attempt, successes and failures
//! alike, in order. Resume re-executes Algorithm 1 from the beginning
//! with the same seed, but serves oracle calls from the log instead of
//! the live tool; because every other source of randomness (the
//! initialization shuffle, the hyper-parameter restart draws) is the
//! tuner's own seeded RNG replayed over the same data, the loop
//! deterministically re-reaches the checkpointed state — regions,
//! statuses, models, and RNG position included — and then switches to
//! live evaluation. Failed attempts are replayed too: they drive retry
//! and quarantine control flow, so eliding them would desynchronize the
//! resumed run.
//!
//! The [`StateSnapshot`] carried alongside the log serves two purposes:
//! cheap *verification* that replay really did land in the recorded state
//! (statuses, run counts, and the RNG position are compared before going
//! live; any mismatch aborts with
//! [`TunerError::Checkpoint`](crate::TunerError::Checkpoint)), and
//! offline *inspection* of an interrupted run without re-executing it.

use std::cell::RefCell;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::oracle::EvalError;
use crate::region::UncertaintyRegion;
use crate::tuner::{IterationRecord, PpaTunerConfig, SourceData};

/// Current checkpoint format version. Bumped on any incompatible change;
/// resume refuses other versions rather than misinterpreting them.
pub const CHECKPOINT_VERSION: u32 = 2;

/// The result of one oracle attempt, after sanitization.
///
/// `Accepted` means the QoR vector passed validation and entered the
/// model; `Failed` covers crashes, timeouts, and rejected QoR. The
/// distinction is exactly what the resilient executor branches on, which
/// is why replaying these records reproduces its control flow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EvalOutcome {
    /// The attempt produced a usable QoR vector.
    Accepted {
        /// The accepted (finite, validated) QoR values.
        qor: Vec<f64>,
    },
    /// The attempt produced no usable QoR.
    Failed {
        /// Why the attempt failed.
        error: EvalError,
    },
}

/// One oracle attempt in the evaluation log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalRecord {
    /// Candidate index the attempt targeted.
    pub candidate: usize,
    /// What came back.
    pub outcome: EvalOutcome,
}

/// Inspection/verification snapshot of the loop state at checkpoint time.
///
/// Everything here is *derived* — resume rebuilds it by replaying the
/// evaluation log — but it lets tooling inspect an interrupted run and
/// lets resume verify the replay landed where the original run stood.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StateSnapshot {
    /// One character per candidate: `u` undecided, `p` Pareto,
    /// `d` dropped, `q` quarantined.
    pub statuses: String,
    /// Number of accepted observations so far.
    pub evaluated: usize,
    /// Oracle runs so far (failed attempts included).
    pub runs: usize,
    /// The tuner RNG's internal state words at checkpoint time; compared
    /// verbatim after replay, so any drift in RNG consumption is caught
    /// before live evaluation resumes.
    pub rng_state: Vec<u64>,
    /// Absolute per-objective δ the run locked in after initialization.
    pub delta: Vec<f64>,
    /// Per-candidate uncertainty regions (inspection only: still-unbounded
    /// coordinates do not survive the JSON round trip, see
    /// [`UncertaintyRegion`]).
    pub regions: Vec<UncertaintyRegion>,
    /// Per-iteration trajectory so far.
    pub history: Vec<IterationRecord>,
    /// Degraded-fit fallbacks the run has taken so far (surrogate
    /// calibrations served by the last-good model; see the `DegradedFit`
    /// trace event). Compared after replay like the other derived
    /// counters: a resume that forgets to re-install an injected fault
    /// plan (or hits different numerics) is caught here, before going
    /// live.
    #[serde(default)]
    pub degraded_fits: usize,
}

/// A complete, resumable checkpoint of a tuning run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Format version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// The iteration resume will execute next (the checkpoint was written
    /// at the end of iteration `next_iteration − 1`).
    pub next_iteration: usize,
    /// The configuration the run used. Resume requires an identical
    /// configuration: a different τ, seed, or budget would silently
    /// diverge from the log.
    pub config: PpaTunerConfig,
    /// Digest of the candidate matrix the run was started with.
    pub candidates_digest: u64,
    /// Digest of the source-task data the run was started with.
    pub source_digest: u64,
    /// Every oracle attempt so far, in order (the replay script).
    pub eval_log: Vec<EvalRecord>,
    /// Derived loop state for verification and inspection.
    pub snapshot: StateSnapshot,
    /// FNV-1a content digest over the JSON form of this checkpoint with
    /// `digest` itself zeroed. `0` means "unsealed" (legacy checkpoints
    /// predate the digest; [`Checkpoint::seal`] never produces 0).
    /// [`Checkpoint::from_json`] rejects a sealed checkpoint whose bytes
    /// do not hash back to the stored digest, so a torn or bit-flipped
    /// write surfaces as *corrupt* instead of silently resuming from
    /// damaged state.
    #[serde(default)]
    pub digest: u64,
}

impl Checkpoint {
    /// Validates that this checkpoint belongs to the run being resumed:
    /// same format version, identical configuration, and the same
    /// candidate/source data (by digest).
    ///
    /// # Errors
    ///
    /// A human-readable description of the first mismatch.
    pub fn validate(
        &self,
        config: &PpaTunerConfig,
        candidates: &[Vec<f64>],
        source: &SourceData,
    ) -> Result<(), String> {
        if self.version != CHECKPOINT_VERSION {
            return Err(format!(
                "checkpoint version {} unsupported (expected {CHECKPOINT_VERSION})",
                self.version
            ));
        }
        if &self.config != config {
            return Err("checkpoint configuration differs from the tuner's".into());
        }
        let cd = digest_matrix(candidates);
        if self.candidates_digest != cd {
            return Err(format!(
                "candidate set changed since checkpoint (digest {:#x} != {:#x})",
                cd, self.candidates_digest
            ));
        }
        let sd = source_digest(source);
        if self.source_digest != sd {
            return Err(format!(
                "source data changed since checkpoint (digest {:#x} != {:#x})",
                sd, self.source_digest
            ));
        }
        Ok(())
    }

    /// Serializes to the JSON checkpoint format.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("checkpoint serialization cannot fail")
    }

    /// The content digest this checkpoint's data hashes to: FNV-1a over
    /// the JSON serialization with the `digest` field zeroed. Never 0 (a
    /// zero hash is remapped so it cannot collide with the "unsealed"
    /// sentinel), and independent of whether the checkpoint is currently
    /// sealed — so sealing is idempotent.
    pub fn content_digest(&self) -> u64 {
        let mut unsealed = self.clone();
        unsealed.digest = 0;
        let h = fnv1a(unsealed.to_json().as_bytes());
        if h == 0 {
            1
        } else {
            h
        }
    }

    /// Stamps the content digest into `self` so persisted bytes are
    /// verifiable. The tuner seals every checkpoint it writes; stores also
    /// serialize through [`Checkpoint::sealed_json`], so file bytes carry
    /// a digest even for hand-built checkpoints.
    pub fn seal(&mut self) {
        self.digest = self.content_digest();
    }

    /// The JSON form with the content digest stamped in (without mutating
    /// `self`). Idempotent: sealing a sealed checkpoint yields the same
    /// bytes.
    pub fn sealed_json(&self) -> String {
        let mut sealed = self.clone();
        sealed.seal();
        sealed.to_json()
    }

    /// Parses a checkpoint from its JSON form, refuses other format
    /// versions, and verifies the content digest when one is present
    /// (`digest != 0`).
    ///
    /// The version is checked first: the digest re-serializes the parsed
    /// struct, which drops keys an older format carried, so an intact
    /// checkpoint of another version would otherwise be misreported as a
    /// torn write.
    ///
    /// # Errors
    ///
    /// A description of the parse failure, version mismatch, or digest
    /// mismatch.
    pub fn from_json(s: &str) -> Result<Self, String> {
        let ckpt: Checkpoint =
            serde_json::from_str(s).map_err(|e| format!("malformed checkpoint: {e}"))?;
        if ckpt.version != CHECKPOINT_VERSION {
            return Err(format!(
                "checkpoint version {} unsupported (expected {CHECKPOINT_VERSION})",
                ckpt.version
            ));
        }
        if ckpt.digest != 0 {
            let expected = ckpt.content_digest();
            if ckpt.digest != expected {
                return Err(format!(
                    "checkpoint digest mismatch: stored {:#x}, content hashes to {:#x} \
                     (torn or tampered write)",
                    ckpt.digest, expected
                ));
            }
        }
        Ok(ckpt)
    }
}

/// FNV-1a over raw bytes (same constants as [`digest_matrix`]).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a over the bit patterns of an `f64` matrix (rows delimited), used
/// to pin a checkpoint to the exact data it was created from.
pub fn digest_matrix(rows: &[Vec<f64>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    mix(rows.len() as u64);
    for row in rows {
        mix(row.len() as u64);
        for &v in row {
            mix(v.to_bits());
        }
    }
    h
}

/// Digest of a full [`SourceData`] (inputs and outputs).
pub fn source_digest(source: &SourceData) -> u64 {
    digest_matrix(source.inputs()) ^ digest_matrix(source.outputs()).rotate_left(1)
}

/// Why a checkpoint store operation failed, split along the axis callers
/// branch on: *corrupt data* can be degraded around (scan back to an
/// older entry, or accept losing progress), while an *I/O failure* means
/// the storage itself is unhealthy and retrying or aborting is the only
/// sound move. Refuse-with-reason for foreign checkpoints (wrong version,
/// config, or data digest) is unchanged — that check lives in
/// [`Checkpoint::validate`], after a load succeeds.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CheckpointError {
    /// The stored bytes exist but do not parse as a checkpoint or fail
    /// their content-digest check (torn write, bit rot, tampering).
    Corrupt {
        /// What was wrong with the bytes.
        reason: String,
    },
    /// The underlying storage failed (permissions, disk full, transient
    /// filesystem error). The data may be fine; the medium is not.
    Io {
        /// The failing operation and OS error.
        reason: String,
    },
}

impl CheckpointError {
    /// `true` for [`CheckpointError::Corrupt`] — the variant a caller may
    /// degrade around by falling back to an older checkpoint.
    pub fn is_corrupt(&self) -> bool {
        matches!(self, CheckpointError::Corrupt { .. })
    }
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Corrupt { reason } => write!(f, "corrupt checkpoint: {reason}"),
            CheckpointError::Io { reason } => write!(f, "checkpoint I/O failure: {reason}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// What a [`CheckpointStore::recover`] scan found.
#[derive(Debug, Clone, PartialEq)]
pub struct Recovery {
    /// The newest valid checkpoint, or `None` when the store is empty.
    pub checkpoint: Option<Checkpoint>,
    /// Entries examined, newest first (0 for an empty store).
    pub scanned: usize,
    /// Entries skipped as torn/corrupt/digest-mismatched before a valid
    /// one was found. Always 0 for single-slot stores.
    pub skipped: usize,
}

/// Where checkpoints are persisted and recovered from.
///
/// `&self` receivers keep the store usable through the tuner's shared
/// borrows; implementations use interior mutability where needed.
pub trait CheckpointStore {
    /// Persists a checkpoint, replacing any previous one atomically (a
    /// torn write must never shadow a complete older checkpoint).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] describing the persistence failure.
    fn save(&self, checkpoint: &Checkpoint) -> Result<(), CheckpointError>;

    /// Recovers the most recent checkpoint, or `None` when the store is
    /// empty (resume then starts a fresh run).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Corrupt`] when the stored bytes are damaged
    /// (callers may fall back), [`CheckpointError::Io`] when the storage
    /// failed (callers should abort).
    fn load(&self) -> Result<Option<Checkpoint>, CheckpointError>;

    /// Like [`CheckpointStore::load`], but reports how the recovery went:
    /// chain stores scan back past damaged entries and count what they
    /// skipped, which resume surfaces as a `RecoveryScan` trace event.
    /// The default implementation is a plain load with no scan-back.
    ///
    /// # Errors
    ///
    /// Same surface as [`CheckpointStore::load`].
    fn recover(&self) -> Result<Recovery, CheckpointError> {
        let checkpoint = self.load()?;
        Ok(Recovery {
            scanned: usize::from(checkpoint.is_some()),
            skipped: 0,
            checkpoint,
        })
    }
}

/// In-memory store, for tests and same-process recovery drills.
#[derive(Debug, Default)]
pub struct MemoryCheckpointStore {
    slot: RefCell<Option<Checkpoint>>,
}

impl MemoryCheckpointStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The currently held checkpoint, if any.
    pub fn latest(&self) -> Option<Checkpoint> {
        self.slot.borrow().clone()
    }

    /// Seeds the store with a checkpoint (e.g. one carried over from
    /// another process).
    pub fn put(&self, checkpoint: Checkpoint) {
        *self.slot.borrow_mut() = Some(checkpoint);
    }
}

impl CheckpointStore for MemoryCheckpointStore {
    fn save(&self, checkpoint: &Checkpoint) -> Result<(), CheckpointError> {
        *self.slot.borrow_mut() = Some(checkpoint.clone());
        Ok(())
    }

    fn load(&self) -> Result<Option<Checkpoint>, CheckpointError> {
        Ok(self.slot.borrow().clone())
    }
}

/// An I/O-failure error tagged with the failing operation and path.
fn io_failure(op: &str, path: &Path, e: std::io::Error) -> CheckpointError {
    CheckpointError::Io {
        reason: format!("{op} {}: {e}", path.display()),
    }
}

/// Writes `contents` to `path` and flushes it to the storage device
/// (`fsync`), so the bytes survive power loss once this returns.
fn write_durable(path: &Path, contents: &str) -> Result<(), CheckpointError> {
    use std::io::Write;
    let mut file = std::fs::File::create(path).map_err(|e| io_failure("creating", path, e))?;
    file.write_all(contents.as_bytes())
        .map_err(|e| io_failure("writing", path, e))?;
    file.sync_all().map_err(|e| io_failure("syncing", path, e))
}

/// Flushes the directory entry for `path` (the rename itself) to the
/// storage device. Without this the atomic rename is crash-*consistent*
/// but not *durable*: after power loss the directory may still name the
/// old file.
fn sync_parent_dir(path: &Path) -> Result<(), CheckpointError> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let dir = std::fs::File::open(parent).map_err(|e| io_failure("opening dir", parent, e))?;
    dir.sync_all()
        .map_err(|e| io_failure("syncing dir", parent, e))
}

/// Reads and parses one checkpoint file. `Ok(None)` when the file does
/// not exist; parse/digest failures are [`CheckpointError::Corrupt`],
/// everything else [`CheckpointError::Io`].
fn read_checkpoint_file(path: &Path) -> Result<Option<Checkpoint>, CheckpointError> {
    match std::fs::read_to_string(path) {
        Ok(s) => Checkpoint::from_json(&s)
            .map(Some)
            .map_err(|reason| CheckpointError::Corrupt {
                reason: format!("{}: {reason}", path.display()),
            }),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(io_failure("reading", path, e)),
    }
}

/// File-backed store: one JSON checkpoint file, replaced atomically via a
/// sibling temp file and rename, with the temp file and the parent
/// directory fsynced around the rename so a completed [`save`] survives
/// power loss (not just a process crash).
///
/// [`save`]: CheckpointStore::save
#[derive(Debug, Clone)]
pub struct FileCheckpointStore {
    path: PathBuf,
}

impl FileCheckpointStore {
    /// A store writing to (and reading from) `path`.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        FileCheckpointStore { path: path.into() }
    }

    /// The checkpoint file path.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }
}

impl CheckpointStore for FileCheckpointStore {
    fn save(&self, checkpoint: &Checkpoint) -> Result<(), CheckpointError> {
        let mut tmp = self.path.clone().into_os_string();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        write_durable(&tmp, &checkpoint.sealed_json())?;
        std::fs::rename(&tmp, &self.path)
            .map_err(|e| io_failure("renaming into", &self.path, e))?;
        sync_parent_dir(&self.path)
    }

    fn load(&self) -> Result<Option<Checkpoint>, CheckpointError> {
        read_checkpoint_file(&self.path)
    }
}

/// Bounded rotating checkpoint chain: each save writes a fresh
/// `ckpt-NNNNNNNN.json` entry (durably, like [`FileCheckpointStore`]) and
/// prunes entries beyond the newest `keep`. Recovery scans back from the
/// newest entry past anything torn, unparseable, or digest-mismatched to
/// the newest *valid* checkpoint — so a crash at any byte of a save costs
/// at most one iteration of progress, never the run.
#[derive(Debug, Clone)]
pub struct ChainCheckpointStore {
    dir: PathBuf,
    keep: usize,
}

impl ChainCheckpointStore {
    /// A chain rooted at directory `dir` keeping the newest `keep`
    /// entries (at least 1; 0 is clamped).
    pub fn new(dir: impl Into<PathBuf>, keep: usize) -> Self {
        ChainCheckpointStore {
            dir: dir.into(),
            keep: keep.max(1),
        }
    }

    /// The chain directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// How many entries the chain retains.
    pub fn keep(&self) -> usize {
        self.keep
    }

    fn entry_path(&self, seq: u64) -> PathBuf {
        self.dir.join(format!("ckpt-{seq:08}.json"))
    }

    /// Chain entries as `(sequence, path)`, ascending by sequence. Files
    /// that do not match the `ckpt-NNNNNNNN.json` pattern (including
    /// leftover `.tmp` files from a crashed save) are ignored.
    fn entries(&self) -> Result<Vec<(u64, PathBuf)>, CheckpointError> {
        let read = match std::fs::read_dir(&self.dir) {
            Ok(read) => read,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(io_failure("listing", &self.dir, e)),
        };
        let mut entries = Vec::new();
        for entry in read {
            let entry = entry.map_err(|e| io_failure("listing", &self.dir, e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(seq) = name
                .strip_prefix("ckpt-")
                .and_then(|rest| rest.strip_suffix(".json"))
                .and_then(|digits| digits.parse::<u64>().ok())
            else {
                continue;
            };
            entries.push((seq, entry.path()));
        }
        entries.sort_unstable();
        Ok(entries)
    }
}

impl CheckpointStore for ChainCheckpointStore {
    fn save(&self, checkpoint: &Checkpoint) -> Result<(), CheckpointError> {
        std::fs::create_dir_all(&self.dir).map_err(|e| io_failure("creating dir", &self.dir, e))?;
        let entries = self.entries()?;
        let seq = entries.last().map_or(0, |&(seq, _)| seq + 1);
        let path = self.entry_path(seq);
        let mut tmp = path.clone().into_os_string();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        write_durable(&tmp, &checkpoint.sealed_json())?;
        std::fs::rename(&tmp, &path).map_err(|e| io_failure("renaming into", &path, e))?;
        sync_parent_dir(&path)?;
        // Prune beyond keep-last-k, oldest first. Best-effort: the new
        // entry is already durable, and a failed unlink only costs disk.
        let excess = (entries.len() + 1).saturating_sub(self.keep);
        for (_, old) in entries.into_iter().take(excess) {
            std::fs::remove_file(old).ok();
        }
        Ok(())
    }

    fn load(&self) -> Result<Option<Checkpoint>, CheckpointError> {
        self.recover().map(|r| r.checkpoint)
    }

    fn recover(&self) -> Result<Recovery, CheckpointError> {
        let entries = self.entries()?;
        let mut scanned = 0;
        let mut skipped = 0;
        let mut first_damage: Option<String> = None;
        for (_, path) in entries.iter().rev() {
            scanned += 1;
            match read_checkpoint_file(path) {
                Ok(Some(checkpoint)) => {
                    return Ok(Recovery {
                        checkpoint: Some(checkpoint),
                        scanned,
                        skipped,
                    });
                }
                // Raced unlink (e.g. a concurrent prune): not damage.
                Ok(None) => {}
                Err(CheckpointError::Corrupt { reason }) => {
                    skipped += 1;
                    first_damage.get_or_insert(reason);
                }
                Err(e @ CheckpointError::Io { .. }) => return Err(e),
            }
        }
        if skipped > 0 {
            // Every entry was damaged: losing the whole campaign silently
            // would be worse than surfacing it.
            return Err(CheckpointError::Corrupt {
                reason: format!(
                    "all {skipped} chain entr{} corrupt (newest: {})",
                    if skipped == 1 { "y is" } else { "ies are" },
                    first_damage.unwrap_or_default()
                ),
            });
        }
        Ok(Recovery {
            checkpoint: None,
            scanned,
            skipped,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_checkpoint() -> Checkpoint {
        Checkpoint {
            version: CHECKPOINT_VERSION,
            next_iteration: 3,
            config: PpaTunerConfig::default(),
            candidates_digest: digest_matrix(&[vec![0.5], vec![1.0]]),
            source_digest: source_digest(&SourceData::empty()),
            eval_log: vec![
                EvalRecord {
                    candidate: 1,
                    outcome: EvalOutcome::Accepted {
                        qor: vec![1.0, 2.0],
                    },
                },
                EvalRecord {
                    candidate: 0,
                    outcome: EvalOutcome::Failed {
                        error: EvalError::Crash {
                            detail: "injected".into(),
                        },
                    },
                },
            ],
            snapshot: StateSnapshot {
                statuses: "up".into(),
                evaluated: 1,
                runs: 2,
                rng_state: vec![1, 2, 3, 4],
                delta: vec![0.1, 0.1],
                regions: vec![
                    UncertaintyRegion::point(&[1.0, 2.0]),
                    UncertaintyRegion::point(&[3.0, 4.0]),
                ],
                history: Vec::new(),
                degraded_fits: 0,
            },
            digest: 0,
        }
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let ckpt = sample_checkpoint();
        let back = Checkpoint::from_json(&ckpt.to_json()).unwrap();
        assert_eq!(back, ckpt);
    }

    #[test]
    fn validate_rejects_version_config_and_data_drift() {
        let ckpt = sample_checkpoint();
        let candidates = vec![vec![0.5], vec![1.0]];
        let source = SourceData::empty();
        assert!(ckpt
            .validate(&PpaTunerConfig::default(), &candidates, &source)
            .is_ok());

        let mut wrong_version = ckpt.clone();
        wrong_version.version = 99;
        let e = wrong_version
            .validate(&PpaTunerConfig::default(), &candidates, &source)
            .unwrap_err();
        assert!(e.contains("version"), "{e}");

        let other_config = PpaTunerConfig {
            seed: 1234,
            ..PpaTunerConfig::default()
        };
        assert!(ckpt.validate(&other_config, &candidates, &source).is_err());

        let other_candidates = vec![vec![0.5], vec![0.9]];
        assert!(ckpt
            .validate(&PpaTunerConfig::default(), &other_candidates, &source)
            .is_err());

        let other_source = SourceData::new(vec![vec![0.0]], vec![vec![1.0, 2.0]]).unwrap();
        assert!(ckpt
            .validate(&PpaTunerConfig::default(), &candidates, &other_source)
            .is_err());
    }

    #[test]
    fn digest_is_sensitive_to_values_and_shape() {
        let base = digest_matrix(&[vec![1.0, 2.0], vec![3.0]]);
        assert_ne!(base, digest_matrix(&[vec![1.0, 2.0], vec![3.5]]));
        assert_ne!(base, digest_matrix(&[vec![1.0, 2.0, 3.0]]));
        assert_ne!(base, digest_matrix(&[vec![1.0], vec![2.0, 3.0]]));
        assert_eq!(base, digest_matrix(&[vec![1.0, 2.0], vec![3.0]]));
    }

    #[test]
    fn memory_store_round_trips() {
        let store = MemoryCheckpointStore::new();
        assert!(store.load().unwrap().is_none());
        let ckpt = sample_checkpoint();
        store.save(&ckpt).unwrap();
        assert_eq!(store.load().unwrap().unwrap(), ckpt);
        assert_eq!(store.latest().unwrap(), ckpt);
    }

    #[test]
    fn file_store_round_trips_and_overwrites() {
        let dir = std::env::temp_dir().join(format!("ppat-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let store = FileCheckpointStore::new(dir.join("run.ckpt.json"));
        assert!(store.load().unwrap().is_none());
        let mut ckpt = sample_checkpoint();
        store.save(&ckpt).unwrap();
        ckpt.next_iteration = 9;
        store.save(&ckpt).unwrap();
        let back = store.load().unwrap().unwrap();
        assert_eq!(back.next_iteration, 9);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_checkpoint_file_is_an_error_not_none() {
        let dir = std::env::temp_dir().join(format!("ppat-ckpt-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.ckpt.json");
        std::fs::write(&path, "{ not json").unwrap();
        let store = FileCheckpointStore::new(&path);
        // Malformed bytes are a *corrupt* error — the variant a caller
        // may degrade around — never silently `None`, and never mistaken
        // for an I/O failure.
        let err = store.load().unwrap_err();
        assert!(err.is_corrupt(), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sealing_is_idempotent_and_detects_tampering() {
        let mut ckpt = sample_checkpoint();
        ckpt.seal();
        assert_ne!(ckpt.digest, 0);
        let json = ckpt.to_json();
        assert_eq!(json, ckpt.sealed_json());
        assert_eq!(json, sample_checkpoint().sealed_json());
        let back = Checkpoint::from_json(&json).unwrap();
        assert_eq!(back, ckpt);

        // Any content change under an unrefreshed digest is rejected.
        let tampered = json.replace("\"next_iteration\":3", "\"next_iteration\":4");
        assert_ne!(tampered, json);
        let e = Checkpoint::from_json(&tampered).unwrap_err();
        assert!(e.contains("digest mismatch"), "{e}");

        // Legacy unsealed checkpoints (digest 0 / missing) still load.
        let mut unsealed = sample_checkpoint();
        unsealed.digest = 0;
        assert_eq!(
            Checkpoint::from_json(&unsealed.to_json()).unwrap(),
            unsealed
        );
    }

    #[test]
    fn older_format_is_refused_by_version_not_as_a_torn_write() {
        // A version-1 checkpoint as that format wrote it: the config still
        // carries the retired subset-of-data keys, and the digest is
        // sealed over these exact bytes.
        let v1 = sample_checkpoint()
            .to_json()
            .replace(
                &format!("\"version\":{CHECKPOINT_VERSION}"),
                "\"version\":1",
            )
            .replace(
                "\"predict_block\":",
                "\"sod_threshold\":18446744073709551615,\"sod_subset\":256,\"predict_block\":",
            );
        assert!(v1.contains("\"sod_threshold\"") && v1.ends_with("\"digest\":0}"));
        let sealed = v1.replace(
            "\"digest\":0}",
            &format!("\"digest\":{}}}", fnv1a(v1.as_bytes())),
        );
        let e = Checkpoint::from_json(&sealed).unwrap_err();
        assert_eq!(
            e,
            format!("checkpoint version 1 unsupported (expected {CHECKPOINT_VERSION})")
        );
    }

    #[test]
    fn file_store_seals_on_disk_and_rejects_truncation() {
        let dir = std::env::temp_dir().join(format!("ppat-ckpt-seal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt.json");
        let store = FileCheckpointStore::new(&path);
        store.save(&sample_checkpoint()).unwrap();
        let on_disk = std::fs::read_to_string(&path).unwrap();
        assert!(Checkpoint::from_json(&on_disk).unwrap().digest != 0);

        // A torn (truncated) file is corrupt, not an I/O failure.
        std::fs::write(&path, &on_disk[..on_disk.len() - 7]).unwrap();
        let err = store.load().unwrap_err();
        assert!(err.is_corrupt(), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    fn chain_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ppat-chain-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn chain_store_rotates_and_loads_newest() {
        let dir = chain_dir("rotate");
        let store = ChainCheckpointStore::new(&dir, 3);
        assert_eq!(store.keep(), 3);
        assert!(store.load().unwrap().is_none());
        for t in 0..5 {
            let mut ckpt = sample_checkpoint();
            ckpt.next_iteration = t;
            store.save(&ckpt).unwrap();
        }
        assert_eq!(store.load().unwrap().unwrap().next_iteration, 4);
        // Only the newest `keep` entries survive pruning.
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(names.len(), 3, "{names:?}");
        assert!(
            names.contains(&"ckpt-00000004.json".to_string()),
            "{names:?}"
        );
        assert!(
            !names.contains(&"ckpt-00000001.json".to_string()),
            "{names:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chain_recover_scans_past_damaged_entries() {
        let dir = chain_dir("scan");
        let store = ChainCheckpointStore::new(&dir, 4);
        for t in 0..3 {
            let mut ckpt = sample_checkpoint();
            ckpt.next_iteration = t;
            store.save(&ckpt).unwrap();
        }
        // Tear the newest entry mid-byte and digest-tamper the next one:
        // recovery must land on entry 0 and count both skips.
        let newest = dir.join("ckpt-00000002.json");
        let bytes = std::fs::read_to_string(&newest).unwrap();
        std::fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();
        let middle = dir.join("ckpt-00000001.json");
        let bytes = std::fs::read_to_string(&middle).unwrap();
        std::fs::write(&middle, bytes.replace("\"runs\":2", "\"runs\":3")).unwrap();

        let recovery = store.recover().unwrap();
        assert_eq!(recovery.checkpoint.as_ref().unwrap().next_iteration, 0);
        assert_eq!(recovery.scanned, 3);
        assert_eq!(recovery.skipped, 2);
        assert_eq!(store.load().unwrap().unwrap().next_iteration, 0);

        // A leftover .tmp from a crashed save is ignored entirely.
        std::fs::write(dir.join("ckpt-00000003.json.tmp"), "torn").unwrap();
        assert_eq!(store.recover().unwrap().skipped, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chain_with_only_damaged_entries_is_corrupt_not_empty() {
        let dir = chain_dir("all-bad");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("ckpt-00000000.json"), "{ torn").unwrap();
        let store = ChainCheckpointStore::new(&dir, 2);
        let err = store.recover().unwrap_err();
        assert!(err.is_corrupt(), "{err}");
        // An actually-empty chain is a fresh start, not an error.
        std::fs::remove_dir_all(&dir).ok();
        let empty = store.recover().unwrap();
        assert_eq!(
            empty,
            Recovery {
                checkpoint: None,
                scanned: 0,
                skipped: 0
            }
        );
    }
}
