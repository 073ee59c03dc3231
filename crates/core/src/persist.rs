//! Crash-safe persistent second tier for the render cache.
//!
//! The in-memory [`RenderCache`](crate::cache::RenderCache) dies with
//! the process, and with it the working set whose amortized rendering
//! cost the paper's economics depend on (§3.3). This module adds a
//! content-checksummed on-disk artifact store underneath it:
//!
//! - **Segments** (`seg-<n>.dat`): append-only files of raw artifact
//!   bytes. Rotated at a size threshold; the oldest segment is dropped
//!   whole when the tier exceeds its byte budget.
//! - **Index journal** (`index.journal`): an append-only log of fixed-
//!   framed records (`MAGIC | len | FNV-64(payload) | payload`) mapping
//!   cache keys to `(segment, offset, len, artifact checksum, absolute
//!   expiry, render cost)`. Replay tolerates arbitrary corruption:
//!   torn or bit-flipped records fail their checksum, are *quarantined*
//!   (counted, never trusted), and the scanner resynchronizes on the
//!   next magic marker — a damaged journal degrades to a smaller warm
//!   set, never a panic.
//! - **Write-behind**: `put` enqueues; a background writer drains the
//!   queue so the serving path never blocks on disk. [`DiskTier::flush`]
//!   waits for the queue to drain (tests and orderly shutdown).
//!
//! Artifact bytes carry their own FNV-64, verified on every read, so a
//! torn segment append (crash mid-write) is detected at `get` time and
//! quarantined the same way.
//!
//! The [`DiskBackend`] trait abstracts the byte store: [`FsDisk`] is
//! the real directory-backed implementation, [`MemDisk`] an in-memory
//! one whose contents survive a simulated process restart (tests share
//! the `Arc`), and [`FlakyDisk`] a fault-injection wrapper in the
//! spirit of `FlakyOrigin` — seeded torn writes, bit flips, `ENOSPC`,
//! and slow fsync.

use msite_support::bytes::Bytes;
use msite_support::sync::{Condvar, Mutex};
use msite_support::telemetry::{Counter, Gauge, MetricsRegistry};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, SystemTime};

/// Per-record framing marker in the index journal (`b"MSJ1"`).
pub const JOURNAL_MAGIC: [u8; 4] = *b"MSJ1";
/// Upper bound on a single journal record's payload; anything larger is
/// treated as corruption during replay.
pub const MAX_RECORD_BYTES: usize = 1 << 20;
const JOURNAL: &str = "index.journal";

fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01B3);
    }
    hash
}

fn unix_millis_now() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

// ---------------------------------------------------------------------------
// DiskBackend: the byte store under the tier
// ---------------------------------------------------------------------------

/// A flat namespace of append-only byte files. Implementations must be
/// safe for concurrent use; the tier serializes writes itself.
pub trait DiskBackend: Send + Sync {
    /// Reads an entire file.
    ///
    /// # Errors
    ///
    /// `NotFound` when the file does not exist, or the backend's I/O
    /// error.
    fn read(&self, path: &str) -> io::Result<Vec<u8>>;
    /// Reads `len` bytes at `offset`.
    ///
    /// # Errors
    ///
    /// `UnexpectedEof` when the range extends past the file, or the
    /// backend's I/O error.
    fn read_at(&self, path: &str, offset: u64, len: usize) -> io::Result<Vec<u8>>;
    /// Appends to a file, creating it if needed. A crashing or faulty
    /// device may persist only a prefix — callers learn the truth from
    /// [`size`](DiskBackend::size), not the return value.
    ///
    /// # Errors
    ///
    /// The backend's I/O error (e.g. `ENOSPC`).
    fn append(&self, path: &str, data: &[u8]) -> io::Result<()>;
    /// Current size of a file (0 when absent).
    ///
    /// # Errors
    ///
    /// The backend's I/O error.
    fn size(&self, path: &str) -> io::Result<u64>;
    /// Durably flushes a file.
    ///
    /// # Errors
    ///
    /// The backend's I/O error.
    fn sync(&self, path: &str) -> io::Result<()>;
    /// Deletes a file (idempotent).
    ///
    /// # Errors
    ///
    /// The backend's I/O error (not `NotFound`).
    fn remove(&self, path: &str) -> io::Result<()>;
    /// Names of all files present.
    ///
    /// # Errors
    ///
    /// The backend's I/O error.
    fn list(&self) -> io::Result<Vec<String>>;
}

/// Directory-backed [`DiskBackend`] — the production implementation.
#[derive(Debug)]
pub struct FsDisk {
    root: std::path::PathBuf,
}

impl FsDisk {
    /// Opens (creating if needed) a store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Propagates the `create_dir_all` failure.
    pub fn open(dir: impl Into<std::path::PathBuf>) -> io::Result<FsDisk> {
        let root = dir.into();
        std::fs::create_dir_all(&root)?;
        Ok(FsDisk { root })
    }

    fn path_of(&self, name: &str) -> std::path::PathBuf {
        self.root.join(name)
    }
}

impl DiskBackend for FsDisk {
    fn read(&self, path: &str) -> io::Result<Vec<u8>> {
        std::fs::read(self.path_of(path))
    }

    fn read_at(&self, path: &str, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        use std::io::{Read, Seek, SeekFrom};
        let mut file = std::fs::File::open(self.path_of(path))?;
        file.seek(SeekFrom::Start(offset))?;
        let mut buf = vec![0u8; len];
        file.read_exact(&mut buf)?;
        Ok(buf)
    }

    fn append(&self, path: &str, data: &[u8]) -> io::Result<()> {
        use std::io::Write;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.path_of(path))?;
        file.write_all(data)
    }

    fn size(&self, path: &str) -> io::Result<u64> {
        match std::fs::metadata(self.path_of(path)) {
            Ok(meta) => Ok(meta.len()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(0),
            Err(e) => Err(e),
        }
    }

    fn sync(&self, path: &str) -> io::Result<()> {
        match std::fs::OpenOptions::new()
            .read(true)
            .open(self.path_of(path))
        {
            Ok(file) => file.sync_all(),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn remove(&self, path: &str) -> io::Result<()> {
        match std::fs::remove_file(self.path_of(path)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn list(&self) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&self.root)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                if let Some(name) = entry.file_name().to_str() {
                    names.push(name.to_string());
                }
            }
        }
        names.sort();
        Ok(names)
    }
}

/// In-memory [`DiskBackend`]. Cloning shares the underlying files, so a
/// test can hand the same `MemDisk` to a "restarted" tier and exercise
/// warm-start recovery without touching the real filesystem.
#[derive(Clone, Default)]
pub struct MemDisk {
    files: Arc<Mutex<HashMap<String, Vec<u8>>>>,
}

impl MemDisk {
    /// An empty in-memory store.
    pub fn new() -> MemDisk {
        MemDisk::default()
    }

    /// Total bytes across all files (test introspection).
    pub fn total_bytes(&self) -> u64 {
        self.files.lock().values().map(|v| v.len() as u64).sum()
    }

    /// Overwrites a byte in an existing file — a harness hook for
    /// deterministic corruption tests.
    pub fn corrupt(&self, path: &str, offset: usize) {
        let mut files = self.files.lock();
        if let Some(data) = files.get_mut(path) {
            if let Some(byte) = data.get_mut(offset) {
                *byte ^= 0xFF;
            }
        }
    }

    /// Truncates an existing file to `len` bytes — models a torn tail.
    pub fn truncate(&self, path: &str, len: usize) {
        let mut files = self.files.lock();
        if let Some(data) = files.get_mut(path) {
            data.truncate(len);
        }
    }
}

impl std::fmt::Debug for MemDisk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemDisk")
            .field("files", &self.files.lock().len())
            .finish()
    }
}

impl DiskBackend for MemDisk {
    fn read(&self, path: &str) -> io::Result<Vec<u8>> {
        self.files
            .lock()
            .get(path)
            .cloned()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, path.to_string()))
    }

    fn read_at(&self, path: &str, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        let files = self.files.lock();
        let data = files
            .get(path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, path.to_string()))?;
        let start = offset as usize;
        let end = start
            .checked_add(len)
            .filter(|&e| e <= data.len())
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "read past end"))?;
        Ok(data[start..end].to_vec())
    }

    fn append(&self, path: &str, data: &[u8]) -> io::Result<()> {
        self.files
            .lock()
            .entry(path.to_string())
            .or_default()
            .extend_from_slice(data);
        Ok(())
    }

    fn size(&self, path: &str) -> io::Result<u64> {
        Ok(self.files.lock().get(path).map_or(0, |d| d.len() as u64))
    }

    fn sync(&self, _path: &str) -> io::Result<()> {
        Ok(())
    }

    fn remove(&self, path: &str) -> io::Result<()> {
        self.files.lock().remove(path);
        Ok(())
    }

    fn list(&self) -> io::Result<Vec<String>> {
        let mut names: Vec<String> = self.files.lock().keys().cloned().collect();
        names.sort();
        Ok(names)
    }
}

// ---------------------------------------------------------------------------
// FlakyDisk: seeded fault injection, FlakyOrigin's sibling
// ---------------------------------------------------------------------------

/// Counters a [`FlakyDisk`] accumulates (test assertions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskFaultStats {
    /// Append calls observed.
    pub appends: u64,
    /// Appends that persisted only a prefix (torn write).
    pub torn: u64,
    /// Appends whose payload had a bit flipped before landing.
    pub flipped: u64,
    /// Appends rejected with `ENOSPC`-style errors.
    pub enospc: u64,
    /// Syncs that were artificially slowed.
    pub slow_syncs: u64,
}

/// Fault-injecting wrapper over a [`DiskBackend`]: seeded torn writes,
/// bit flips, out-of-space errors, and slow fsync, in the builder style
/// of `FlakyOrigin`. Faults are a deterministic function of
/// `(seed, operation sequence)`, so a failing schedule replays exactly.
pub struct FlakyDisk {
    inner: Arc<dyn DiskBackend>,
    seed: u64,
    torn_rate: f64,
    flip_rate: f64,
    enospc_rate: f64,
    sync_delay: Duration,
    sequence: AtomicU64,
    appends: AtomicU64,
    torn: AtomicU64,
    flipped: AtomicU64,
    enospc: AtomicU64,
    slow_syncs: AtomicU64,
}

impl FlakyDisk {
    /// Wraps `inner` with no faults enabled; use the builder methods.
    pub fn new(inner: Arc<dyn DiskBackend>, seed: u64) -> FlakyDisk {
        FlakyDisk {
            inner,
            seed,
            torn_rate: 0.0,
            flip_rate: 0.0,
            enospc_rate: 0.0,
            sync_delay: Duration::ZERO,
            sequence: AtomicU64::new(0),
            appends: AtomicU64::new(0),
            torn: AtomicU64::new(0),
            flipped: AtomicU64::new(0),
            enospc: AtomicU64::new(0),
            slow_syncs: AtomicU64::new(0),
        }
    }

    /// Fraction of appends that persist only a prefix (crash mid-write).
    #[must_use]
    pub fn with_torn_writes(mut self, rate: f64) -> FlakyDisk {
        self.torn_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Fraction of appends whose payload gets one bit flipped.
    #[must_use]
    pub fn with_bit_flips(mut self, rate: f64) -> FlakyDisk {
        self.flip_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Fraction of appends that fail with an out-of-space error.
    #[must_use]
    pub fn with_enospc(mut self, rate: f64) -> FlakyDisk {
        self.enospc_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Every sync sleeps this long first (slow fsync).
    #[must_use]
    pub fn with_slow_sync(mut self, delay: Duration) -> FlakyDisk {
        self.sync_delay = delay;
        self
    }

    /// Fault counters so far.
    pub fn stats(&self) -> DiskFaultStats {
        DiskFaultStats {
            appends: self.appends.load(Ordering::Relaxed),
            torn: self.torn.load(Ordering::Relaxed),
            flipped: self.flipped.load(Ordering::Relaxed),
            enospc: self.enospc.load(Ordering::Relaxed),
            slow_syncs: self.slow_syncs.load(Ordering::Relaxed),
        }
    }

    /// Seeded coin in `[0, 1)` for operation `sequence` with `salt`
    /// separating fault kinds (the `FlakyOrigin` recipe: FNV mix plus a
    /// SplitMix finalizer).
    fn coin(&self, sequence: u64, salt: u64) -> f64 {
        let mut h = self.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= sequence.wrapping_mul(0xA24B_AED4_963E_E407);
        h ^= h >> 30;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
        (h >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl std::fmt::Debug for FlakyDisk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlakyDisk")
            .field("seed", &self.seed)
            .field("stats", &self.stats())
            .finish()
    }
}

impl DiskBackend for FlakyDisk {
    fn read(&self, path: &str) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn read_at(&self, path: &str, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        self.inner.read_at(path, offset, len)
    }

    fn append(&self, path: &str, data: &[u8]) -> io::Result<()> {
        let sequence = self.sequence.fetch_add(1, Ordering::Relaxed);
        self.appends.fetch_add(1, Ordering::Relaxed);
        if self.coin(sequence, 1) < self.enospc_rate {
            self.enospc.fetch_add(1, Ordering::Relaxed);
            return Err(io::Error::new(
                io::ErrorKind::StorageFull,
                "injected: no space left on device",
            ));
        }
        if self.coin(sequence, 2) < self.torn_rate && !data.is_empty() {
            // Persist only a prefix and *report success* — the caller
            // finds out the way a crashed process would: at read time.
            self.torn.fetch_add(1, Ordering::Relaxed);
            let keep = 1 + (self.coin(sequence, 3) * (data.len() - 1) as f64) as usize;
            return self.inner.append(path, &data[..keep.min(data.len())]);
        }
        if self.coin(sequence, 4) < self.flip_rate && !data.is_empty() {
            self.flipped.fetch_add(1, Ordering::Relaxed);
            let mut garbled = data.to_vec();
            let pos = (self.coin(sequence, 5) * garbled.len() as f64) as usize;
            let pos = pos.min(garbled.len() - 1);
            garbled[pos] ^= 1 << (sequence % 8);
            return self.inner.append(path, &garbled);
        }
        self.inner.append(path, data)
    }

    fn size(&self, path: &str) -> io::Result<u64> {
        self.inner.size(path)
    }

    fn sync(&self, path: &str) -> io::Result<()> {
        if !self.sync_delay.is_zero() {
            self.slow_syncs.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(self.sync_delay);
        }
        self.inner.sync(path)
    }

    fn remove(&self, path: &str) -> io::Result<()> {
        self.inner.remove(path)
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.inner.list()
    }
}

// ---------------------------------------------------------------------------
// DiskTier: segments + checksummed index journal
// ---------------------------------------------------------------------------

/// Sizing for a [`DiskTier`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskTierConfig {
    /// Byte budget across all segment files. When exceeded, the oldest
    /// segment is dropped whole (its keys become cold misses).
    pub capacity_bytes: u64,
    /// Segment rotation threshold. Defaults to a quarter of the
    /// capacity so eviction granularity stays reasonable.
    pub segment_bytes: u64,
}

impl DiskTierConfig {
    /// A tier bounded to `capacity_bytes`, rotating segments at a
    /// quarter of that (minimum 4 KiB).
    pub fn with_capacity(capacity_bytes: u64) -> DiskTierConfig {
        DiskTierConfig {
            capacity_bytes,
            segment_bytes: (capacity_bytes / 4).max(4096),
        }
    }
}

impl Default for DiskTierConfig {
    fn default() -> Self {
        DiskTierConfig::with_capacity(64 << 20)
    }
}

/// Counters a [`DiskTier`] accumulates over its lifetime: a read-back
/// of the `msite_disk_*` series it updates in the registry it was
/// opened with.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskTierStats {
    /// Reads answered from the tier with a checksum-verified artifact.
    pub hits: u64,
    /// Reads that found nothing usable.
    pub misses: u64,
    /// Artifacts durably recorded (journal record written).
    pub puts: u64,
    /// Writes abandoned because the backend errored (e.g. `ENOSPC`).
    pub put_errors: u64,
    /// Corrupt journal records or artifacts detected and skipped —
    /// torn writes, bit flips, truncated tails. Never served.
    pub quarantined: u64,
    /// Index records recovered by journal replay at open.
    pub replayed: u64,
    /// Whole segments dropped by the capacity bound.
    pub segments_dropped: u64,
    /// Artifact bytes currently indexed.
    pub live_bytes: u64,
}

/// Freshness of an artifact recovered from disk, judged against its
/// persisted absolute expiry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiskFreshness {
    /// Not yet expired; remaining TTL (`None` = no expiry).
    Fresh(Option<Duration>),
    /// Past its expiry by this much — the memory tier decides whether
    /// its stale window still covers it.
    Expired(Duration),
}

/// An artifact recovered from the tier.
#[derive(Debug, Clone)]
pub struct DiskRecord {
    /// The artifact bytes (checksum-verified).
    pub value: Bytes,
    /// Freshness judged at read time.
    pub freshness: DiskFreshness,
    /// The render cost recorded at write time.
    pub cost: Duration,
}

#[derive(Clone)]
struct IndexEntry {
    segment: u32,
    offset: u64,
    len: u32,
    checksum: u64,
    /// Absolute expiry, unix millis; `u64::MAX` = no expiry.
    expires_unix_ms: u64,
    cost_micros: u64,
    /// Journal order, for most-recent-first warm loading.
    sequence: u64,
}

struct TierState {
    index: HashMap<String, IndexEntry>,
    /// Bytes appended per segment (including torn/garbled artifacts).
    segments: BTreeMap<u32, u64>,
    current_segment: u32,
    sequence: u64,
    /// `msite_disk_live_bytes`: artifact bytes in `index`, moved by
    /// every index change below.
    live_bytes: Arc<Gauge>,
}

impl TierState {
    fn index_insert(&mut self, key: String, entry: IndexEntry) {
        self.live_bytes.add(i64::from(entry.len));
        if let Some(old) = self.index.insert(key, entry) {
            self.live_bytes.sub(i64::from(old.len));
        }
    }

    fn index_remove(&mut self, key: &str) {
        if let Some(old) = self.index.remove(key) {
            self.live_bytes.sub(i64::from(old.len));
        }
    }

    /// Forgets segment `id` and every index entry stored in it.
    fn drop_segment(&mut self, id: u32) {
        self.segments.remove(&id);
        let live_bytes = &self.live_bytes;
        self.index.retain(|_, e| {
            if e.segment == id {
                live_bytes.sub(i64::from(e.len));
            }
            e.segment != id
        });
    }
}

/// Sentinel segment id marking a journal record as a tombstone: replay
/// removes the key instead of indexing it.
const TOMBSTONE_SEGMENT: u32 = u32::MAX;

struct WriteJob {
    key: String,
    value: Bytes,
    expires_unix_ms: u64,
    cost_micros: u64,
    tombstone: bool,
}

struct WriteQueue {
    jobs: Mutex<VecDeque<WriteJob>>,
    ready: Condvar,
    drained: Condvar,
    stop: AtomicBool,
    in_flight: AtomicU64,
}

struct TierShared {
    backend: Arc<dyn DiskBackend>,
    config: DiskTierConfig,
    state: Mutex<TierState>,
    queue: WriteQueue,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    puts: Arc<Counter>,
    put_errors: Arc<Counter>,
    quarantined: Arc<Counter>,
    replayed: Arc<Counter>,
    segments_dropped: Arc<Counter>,
}

/// The persistent artifact tier: checksummed segments plus an
/// append-only index journal, with a write-behind queue.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use std::time::Duration;
/// use msite::persist::{DiskTier, DiskTierConfig, MemDisk};
///
/// let disk = MemDisk::new();
/// let tier = DiskTier::open(Arc::new(disk.clone()), DiskTierConfig::default());
/// tier.put("entry:html", b"<html/>".to_vec(), None, Duration::from_millis(40));
/// tier.flush();
///
/// // A "restarted" tier over the same bytes recovers the artifact.
/// let revived = DiskTier::open(Arc::new(disk), DiskTierConfig::default());
/// let record = revived.get("entry:html").expect("survived restart");
/// assert_eq!(record.value.as_ref(), b"<html/>");
/// ```
pub struct DiskTier {
    shared: Arc<TierShared>,
    writer: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl DiskTier {
    /// Opens the tier over `backend`, replaying the index journal.
    /// Corrupt records are quarantined and skipped; replay never
    /// panics and never fails — worst case the tier starts cold. The
    /// tier counts into a private registry.
    pub fn open(backend: Arc<dyn DiskBackend>, config: DiskTierConfig) -> DiskTier {
        DiskTier::open_with_metrics(backend, config, &MetricsRegistry::new())
    }

    /// Like [`Self::open`], counting the `msite_disk_*` series (replay
    /// and quarantine included) into `registry`.
    pub fn open_with_metrics(
        backend: Arc<dyn DiskBackend>,
        config: DiskTierConfig,
        registry: &MetricsRegistry,
    ) -> DiskTier {
        let counter = |name: &str| registry.counter(name, &[]);
        let quarantined = counter("msite_disk_quarantined_total");
        let replayed = counter("msite_disk_replayed_total");
        let live_bytes = registry.gauge("msite_disk_live_bytes", &[]);
        let journal = backend.read(JOURNAL).unwrap_or_default();
        let (records, bad) = replay_journal(&journal);
        quarantined.add(bad);
        let mut index: HashMap<String, IndexEntry> = HashMap::new();
        let mut sequence = 0u64;
        for (key, entry) in records {
            sequence = sequence.max(entry.sequence);
            replayed.inc();
            if entry.segment == TOMBSTONE_SEGMENT {
                index.remove(&key);
            } else {
                index.insert(key, entry);
            }
        }
        // Drop index entries whose segment no longer exists, and learn
        // the on-disk segment sizes (append offsets must continue from
        // the *actual* file end — a torn tail shifts it).
        let mut segments: BTreeMap<u32, u64> = BTreeMap::new();
        for name in backend.list().unwrap_or_default() {
            if let Some(id) = segment_id(&name) {
                segments.insert(id, backend.size(&name).unwrap_or(0));
            }
        }
        index.retain(|_, e| segments.contains_key(&e.segment));
        live_bytes.add(index.values().map(|e| i64::from(e.len)).sum());
        let current_segment = segments.keys().next_back().copied().unwrap_or(0);
        let shared = Arc::new(TierShared {
            backend,
            config,
            state: Mutex::new(TierState {
                index,
                segments,
                current_segment,
                sequence,
                live_bytes,
            }),
            queue: WriteQueue {
                jobs: Mutex::new(VecDeque::new()),
                ready: Condvar::new(),
                drained: Condvar::new(),
                stop: AtomicBool::new(false),
                in_flight: AtomicU64::new(0),
            },
            hits: counter("msite_disk_hits_total"),
            misses: counter("msite_disk_misses_total"),
            puts: counter("msite_disk_puts_total"),
            put_errors: counter("msite_disk_put_errors_total"),
            quarantined,
            replayed,
            segments_dropped: counter("msite_disk_segments_dropped_total"),
        });
        let writer = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("msite-disk-writer".into())
                .spawn(move || writer_loop(&shared))
                .expect("spawn disk writer")
        };
        DiskTier {
            shared,
            writer: Mutex::new(Some(writer)),
        }
    }

    /// Enqueues an artifact for write-behind persistence. Never blocks
    /// on disk; failures surface in [`DiskTierStats::put_errors`].
    pub fn put(&self, key: &str, value: impl Into<Bytes>, ttl: Option<Duration>, cost: Duration) {
        let expires_unix_ms = match ttl {
            Some(t) => unix_millis_now().saturating_add(t.as_millis() as u64),
            None => u64::MAX,
        };
        self.enqueue(WriteJob {
            key: key.to_string(),
            value: value.into(),
            expires_unix_ms,
            cost_micros: cost.as_micros() as u64,
            tombstone: false,
        });
    }

    /// Drops an artifact: the index forgets it immediately (reads miss)
    /// and a tombstone record is journaled so a restart does not
    /// resurrect it. The segment bytes are reclaimed only when their
    /// segment rotates out.
    pub fn forget(&self, key: &str) {
        self.shared.state.lock().index_remove(key);
        self.enqueue(WriteJob {
            key: key.to_string(),
            value: Bytes::new(),
            expires_unix_ms: u64::MAX,
            cost_micros: 0,
            tombstone: true,
        });
    }

    /// Drops every indexed artifact (tombstoning each).
    pub fn forget_all(&self) {
        let keys: Vec<String> = self.shared.state.lock().index.keys().cloned().collect();
        for key in keys {
            self.forget(&key);
        }
    }

    fn enqueue(&self, job: WriteJob) {
        let queue = &self.shared.queue;
        if queue.stop.load(Ordering::Relaxed) {
            return;
        }
        queue.in_flight.fetch_add(1, Ordering::Relaxed);
        queue.jobs.lock().push_back(job);
        queue.ready.notify_one();
    }

    /// Reads an artifact, verifying its checksum. Corruption (torn
    /// append, flipped bit) quarantines the record and reports a miss.
    pub fn get(&self, key: &str) -> Option<DiskRecord> {
        let entry = {
            let state = self.shared.state.lock();
            state.index.get(key).cloned()
        };
        let Some(entry) = entry else {
            self.shared.misses.inc();
            return None;
        };
        let name = segment_name(entry.segment);
        let bytes = self
            .shared
            .backend
            .read_at(&name, entry.offset, entry.len as usize)
            .ok();
        let verified = bytes.filter(|b| fnv64(b) == entry.checksum);
        let Some(bytes) = verified else {
            // Quarantine: drop the index entry so we never trust it
            // again, count it, and report a miss.
            let mut state = self.shared.state.lock();
            if state
                .index
                .get(key)
                .is_some_and(|e| e.sequence == entry.sequence)
            {
                state.index_remove(key);
            }
            drop(state);
            self.shared.quarantined.inc();
            self.shared.misses.inc();
            return None;
        };
        let freshness = if entry.expires_unix_ms == u64::MAX {
            DiskFreshness::Fresh(None)
        } else {
            let now = unix_millis_now();
            if now <= entry.expires_unix_ms {
                DiskFreshness::Fresh(Some(Duration::from_millis(entry.expires_unix_ms - now)))
            } else {
                DiskFreshness::Expired(Duration::from_millis(now - entry.expires_unix_ms))
            }
        };
        self.shared.hits.inc();
        Some(DiskRecord {
            value: Bytes::from(bytes),
            freshness,
            cost: Duration::from_micros(entry.cost_micros),
        })
    }

    /// Keys in most-recently-written-first order (warm-restart seeding).
    pub fn hot_keys(&self, limit: usize) -> Vec<String> {
        let state = self.shared.state.lock();
        let mut keyed: Vec<(&String, u64)> =
            state.index.iter().map(|(k, e)| (k, e.sequence)).collect();
        keyed.sort_by_key(|&(_, seq)| std::cmp::Reverse(seq));
        keyed
            .into_iter()
            .take(limit)
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// Number of indexed artifacts.
    pub fn len(&self) -> usize {
        self.shared.state.lock().index.len()
    }

    /// True when no artifacts are indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Blocks until every queued write has been attempted.
    pub fn flush(&self) {
        let queue = &self.shared.queue;
        let mut jobs = queue.jobs.lock();
        while queue.in_flight.load(Ordering::Acquire) > 0 {
            jobs = queue.drained.wait(jobs);
        }
    }

    /// Counters so far, read back from the registry series.
    pub fn stats(&self) -> DiskTierStats {
        let shared = &self.shared;
        DiskTierStats {
            hits: shared.hits.get(),
            misses: shared.misses.get(),
            puts: shared.puts.get(),
            put_errors: shared.put_errors.get(),
            quarantined: shared.quarantined.get(),
            replayed: shared.replayed.get(),
            segments_dropped: shared.segments_dropped.get(),
            live_bytes: shared.state.lock().live_bytes.get().max(0) as u64,
        }
    }
}

impl Drop for DiskTier {
    fn drop(&mut self) {
        self.flush();
        self.shared.queue.stop.store(true, Ordering::Relaxed);
        self.shared.queue.ready.notify_all();
        if let Some(handle) = self.writer.lock().take() {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for DiskTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskTier")
            .field("len", &self.len())
            .field("stats", &self.stats())
            .finish()
    }
}

fn segment_name(id: u32) -> String {
    format!("seg-{id}.dat")
}

fn segment_id(name: &str) -> Option<u32> {
    name.strip_prefix("seg-")?
        .strip_suffix(".dat")?
        .parse()
        .ok()
}

/// Drains the write-behind queue: append artifact bytes to the current
/// segment, then append a checksummed index record to the journal.
fn writer_loop(shared: &TierShared) {
    loop {
        let job = {
            let mut jobs = shared.queue.jobs.lock();
            loop {
                if let Some(job) = jobs.pop_front() {
                    break job;
                }
                if shared.queue.stop.load(Ordering::Relaxed) {
                    return;
                }
                jobs = shared.queue.ready.wait(jobs);
            }
        };
        persist_one(shared, &job);
        // Decrement under the queue lock so a `flush` caller cannot
        // miss the notification between its check and its wait.
        let _guard = shared.queue.jobs.lock();
        shared.queue.in_flight.fetch_sub(1, Ordering::AcqRel);
        shared.queue.drained.notify_all();
    }
}

fn persist_one(shared: &TierShared, job: &WriteJob) {
    if job.tombstone {
        let record = {
            let mut state = shared.state.lock();
            state.sequence += 1;
            let entry = IndexEntry {
                segment: TOMBSTONE_SEGMENT,
                offset: 0,
                len: 0,
                checksum: 0,
                expires_unix_ms: u64::MAX,
                cost_micros: 0,
                sequence: state.sequence,
            };
            encode_record(&job.key, &entry)
        };
        if shared.backend.append(JOURNAL, &record).is_err() {
            shared.put_errors.inc();
        }
        return;
    }
    // Rotate / evict under the state lock, but do the appends outside
    // it so readers are never blocked on disk latency.
    let segment = {
        let mut state = shared.state.lock();
        let current_len = state
            .segments
            .get(&state.current_segment)
            .copied()
            .unwrap_or(0);
        if current_len >= shared.config.segment_bytes {
            state.current_segment += 1;
            let id = state.current_segment;
            state.segments.insert(id, 0);
        }
        // Capacity: drop oldest segments until the new artifact fits.
        while state.segments.len() > 1
            && state.segments.values().sum::<u64>() + job.value.len() as u64
                > shared.config.capacity_bytes
        {
            let Some((&oldest, _)) = state.segments.iter().next() else {
                break;
            };
            if oldest == state.current_segment {
                break;
            }
            state.drop_segment(oldest);
            let _ = shared.backend.remove(&segment_name(oldest));
            shared.segments_dropped.inc();
        }
        state.current_segment
    };
    let name = segment_name(segment);
    // The offset is the *actual* file end: a previously torn append
    // must not shift this record onto garbage silently — its checksum
    // already covers that artifact's corruption.
    let offset = match shared.backend.size(&name) {
        Ok(size) => size,
        Err(_) => {
            shared.put_errors.inc();
            return;
        }
    };
    if shared.backend.append(&name, job.value.as_ref()).is_err() {
        shared.put_errors.inc();
        return;
    }
    let written = shared.backend.size(&name).unwrap_or(offset);
    let record = {
        let mut state = shared.state.lock();
        state.sequence += 1;
        let sequence = state.sequence;
        state.segments.insert(segment, written);
        let entry = IndexEntry {
            segment,
            offset,
            len: job.value.len() as u32,
            checksum: fnv64(job.value.as_ref()),
            expires_unix_ms: job.expires_unix_ms,
            cost_micros: job.cost_micros,
            sequence,
        };
        let record = encode_record(&job.key, &entry);
        state.index_insert(job.key.clone(), entry);
        record
    };
    if shared.backend.append(JOURNAL, &record).is_err() {
        // The artifact landed but its index record did not: the current
        // process can still serve it (index updated above); a restart
        // simply will not know about it.
        shared.put_errors.inc();
        return;
    }
    let _ = shared.backend.sync(&name);
    let _ = shared.backend.sync(JOURNAL);
    shared.puts.inc();
}

/// `MAGIC | payload_len(u32) | fnv64(payload) | payload`, little endian.
fn encode_record(key: &str, entry: &IndexEntry) -> Vec<u8> {
    let key_bytes = key.as_bytes();
    let mut payload = Vec::with_capacity(key_bytes.len() + 40);
    payload.extend_from_slice(&(key_bytes.len() as u16).to_le_bytes());
    payload.extend_from_slice(key_bytes);
    payload.extend_from_slice(&entry.segment.to_le_bytes());
    payload.extend_from_slice(&entry.offset.to_le_bytes());
    payload.extend_from_slice(&entry.len.to_le_bytes());
    payload.extend_from_slice(&entry.checksum.to_le_bytes());
    payload.extend_from_slice(&entry.expires_unix_ms.to_le_bytes());
    payload.extend_from_slice(&entry.cost_micros.to_le_bytes());
    payload.extend_from_slice(&entry.sequence.to_le_bytes());
    let mut record = Vec::with_capacity(payload.len() + 16);
    record.extend_from_slice(&JOURNAL_MAGIC);
    record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    record.extend_from_slice(&fnv64(&payload).to_le_bytes());
    record.extend_from_slice(&payload);
    record
}

fn decode_payload(payload: &[u8]) -> Option<(String, IndexEntry)> {
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> Option<&[u8]> {
        let slice = payload.get(*pos..*pos + n)?;
        *pos += n;
        Some(slice)
    };
    let key_len = u16::from_le_bytes(take(&mut pos, 2)?.try_into().ok()?) as usize;
    let key = String::from_utf8(take(&mut pos, key_len)?.to_vec()).ok()?;
    let segment = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?);
    let offset = u64::from_le_bytes(take(&mut pos, 8)?.try_into().ok()?);
    let len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?);
    let checksum = u64::from_le_bytes(take(&mut pos, 8)?.try_into().ok()?);
    let expires_unix_ms = u64::from_le_bytes(take(&mut pos, 8)?.try_into().ok()?);
    let cost_micros = u64::from_le_bytes(take(&mut pos, 8)?.try_into().ok()?);
    let sequence = u64::from_le_bytes(take(&mut pos, 8)?.try_into().ok()?);
    if pos != payload.len() {
        return None;
    }
    Some((
        key,
        IndexEntry {
            segment,
            offset,
            len,
            checksum,
            expires_unix_ms,
            cost_micros,
            sequence,
        },
    ))
}

/// Scans a journal buffer, returning the decoded records in order plus
/// the count of quarantined (corrupt/torn) regions. On corruption the
/// scanner advances to the next magic marker — one quarantine count per
/// resync, not per scanned byte.
fn replay_journal(buf: &[u8]) -> (Vec<(String, IndexEntry)>, u64) {
    let mut records = Vec::new();
    let mut quarantined = 0u64;
    let mut pos = 0usize;
    let mut in_bad_region = false;
    while pos < buf.len() {
        let header_ok = buf.len() - pos >= 16 && buf[pos..pos + 4] == JOURNAL_MAGIC;
        if !header_ok {
            if !in_bad_region {
                quarantined += 1;
                in_bad_region = true;
            }
            pos += 1;
            continue;
        }
        let len = u32::from_le_bytes(buf[pos + 4..pos + 8].try_into().unwrap()) as usize;
        let checksum = u64::from_le_bytes(buf[pos + 8..pos + 16].try_into().unwrap());
        let body_start = pos + 16;
        let valid = len <= MAX_RECORD_BYTES
            && body_start + len <= buf.len()
            && fnv64(&buf[body_start..body_start + len]) == checksum;
        let decoded = if valid {
            decode_payload(&buf[body_start..body_start + len])
        } else {
            None
        };
        match decoded {
            Some(record) => {
                records.push(record);
                in_bad_region = false;
                pos = body_start + len;
            }
            None => {
                // Bad frame: quarantine once, resync at the next byte
                // (the scanner will hunt for the next magic marker).
                if !in_bad_region {
                    quarantined += 1;
                    in_bad_region = true;
                }
                pos += 1;
            }
        }
    }
    (records, quarantined)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open_mem(disk: &MemDisk) -> DiskTier {
        DiskTier::open(
            Arc::new(disk.clone()),
            DiskTierConfig::with_capacity(1 << 20),
        )
    }

    #[test]
    fn roundtrip_and_restart() {
        let disk = MemDisk::new();
        let tier = open_mem(&disk);
        tier.put("a", b"alpha".to_vec(), None, Duration::from_millis(5));
        tier.put(
            "b",
            b"beta".to_vec(),
            Some(Duration::from_secs(3600)),
            Duration::ZERO,
        );
        tier.flush();
        assert_eq!(tier.get("a").unwrap().value.as_ref(), b"alpha");
        drop(tier);

        let revived = open_mem(&disk);
        assert_eq!(revived.len(), 2);
        let b = revived.get("b").unwrap();
        assert_eq!(b.value.as_ref(), b"beta");
        assert!(matches!(b.freshness, DiskFreshness::Fresh(Some(_))));
        assert_eq!(revived.stats().replayed, 2);
        assert_eq!(revived.stats().quarantined, 0);
    }

    #[test]
    fn latest_record_wins() {
        let disk = MemDisk::new();
        let tier = open_mem(&disk);
        tier.put("k", b"v1".to_vec(), None, Duration::ZERO);
        tier.put("k", b"v2".to_vec(), None, Duration::ZERO);
        tier.flush();
        drop(tier);
        let revived = open_mem(&disk);
        assert_eq!(revived.get("k").unwrap().value.as_ref(), b"v2");
    }

    #[test]
    fn corrupt_journal_record_is_quarantined_not_fatal() {
        let disk = MemDisk::new();
        let tier = open_mem(&disk);
        tier.put("a", b"alpha".to_vec(), None, Duration::ZERO);
        tier.put("b", b"beta".to_vec(), None, Duration::ZERO);
        tier.flush();
        drop(tier);
        // Flip a byte in the middle of the first record's payload.
        disk.corrupt(JOURNAL, 20);
        let revived = open_mem(&disk);
        let stats = revived.stats();
        assert_eq!(stats.quarantined, 1, "one corrupt region");
        assert_eq!(revived.len(), 1, "the undamaged record survives");
        assert!(revived.get("b").is_some());
    }

    #[test]
    fn truncated_journal_tail_is_quarantined() {
        let disk = MemDisk::new();
        let tier = open_mem(&disk);
        tier.put("a", b"alpha".to_vec(), None, Duration::ZERO);
        tier.put("b", b"beta".to_vec(), None, Duration::ZERO);
        tier.flush();
        drop(tier);
        let len = disk.files.lock().get(JOURNAL).unwrap().len();
        disk.truncate(JOURNAL, len - 3);
        let revived = open_mem(&disk);
        assert_eq!(revived.stats().quarantined, 1);
        assert_eq!(revived.len(), 1);
        assert!(revived.get("a").is_some());
    }

    #[test]
    fn torn_artifact_fails_checksum_at_read() {
        let disk = MemDisk::new();
        let flaky = Arc::new(FlakyDisk::new(Arc::new(disk.clone()), 7).with_torn_writes(1.0));
        let tier = DiskTier::open(
            Arc::clone(&flaky) as Arc<dyn DiskBackend>,
            DiskTierConfig::with_capacity(1 << 20),
        );
        tier.put("k", b"twelve bytes".to_vec(), None, Duration::ZERO);
        tier.flush();
        // Every append tears, so the artifact (and likely the journal
        // record) is a prefix; the read path must quarantine, not panic.
        assert!(tier.get("k").is_none());
        assert!(tier.stats().quarantined >= 1);
        assert!(flaky.stats().torn >= 1);
    }

    #[test]
    fn enospc_counts_put_error_and_serving_continues() {
        let disk = MemDisk::new();
        let flaky = Arc::new(FlakyDisk::new(Arc::new(disk.clone()), 3).with_enospc(1.0));
        let tier = DiskTier::open(
            Arc::clone(&flaky) as Arc<dyn DiskBackend>,
            DiskTierConfig::with_capacity(1 << 20),
        );
        tier.put("k", b"value".to_vec(), None, Duration::ZERO);
        tier.flush();
        assert!(tier.get("k").is_none());
        assert_eq!(tier.stats().puts, 0);
        assert!(tier.stats().put_errors >= 1);
    }

    #[test]
    fn capacity_drops_oldest_segment() {
        let disk = MemDisk::new();
        let tier = DiskTier::open(
            Arc::new(disk.clone()),
            DiskTierConfig {
                capacity_bytes: 4096,
                segment_bytes: 1024,
            },
        );
        for i in 0..32 {
            tier.put(&format!("k{i}"), vec![i as u8; 512], None, Duration::ZERO);
        }
        tier.flush();
        let stats = tier.stats();
        assert!(stats.segments_dropped > 0, "old segments rotate out");
        assert!(stats.live_bytes <= 4096 + 512);
        // Recent keys survive; the tier still round-trips.
        assert!(tier.get("k31").is_some());
    }

    #[test]
    fn hot_keys_most_recent_first() {
        let disk = MemDisk::new();
        let tier = open_mem(&disk);
        tier.put("old", b"1".to_vec(), None, Duration::ZERO);
        tier.put("mid", b"2".to_vec(), None, Duration::ZERO);
        tier.put("new", b"3".to_vec(), None, Duration::ZERO);
        tier.flush();
        assert_eq!(tier.hot_keys(2), vec!["new".to_string(), "mid".to_string()]);
    }

    #[test]
    fn expired_records_report_age() {
        let disk = MemDisk::new();
        let tier = open_mem(&disk);
        tier.put("k", b"v".to_vec(), Some(Duration::ZERO), Duration::ZERO);
        tier.flush();
        std::thread::sleep(Duration::from_millis(2));
        match tier.get("k").unwrap().freshness {
            DiskFreshness::Expired(age) => assert!(age >= Duration::from_millis(1)),
            other => panic!("expected expired, got {other:?}"),
        }
    }

    #[test]
    fn fs_disk_roundtrip() {
        let dir = std::env::temp_dir().join(format!(
            "msite-persist-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let fs = FsDisk::open(&dir).unwrap();
        let tier = DiskTier::open(Arc::new(fs), DiskTierConfig::with_capacity(1 << 20));
        tier.put("k", b"fs bytes".to_vec(), None, Duration::from_millis(1));
        tier.flush();
        drop(tier);
        let fs = FsDisk::open(&dir).unwrap();
        let revived = DiskTier::open(Arc::new(fs), DiskTierConfig::with_capacity(1 << 20));
        assert_eq!(revived.get("k").unwrap().value.as_ref(), b"fs bytes");
        drop(revived);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
