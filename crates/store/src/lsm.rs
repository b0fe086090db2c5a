//! The LSM-lite backend: WAL + memtable + mmap'd segments.
//!
//! Write path: every put and journal append becomes one WAL frame and
//! one memtable entry. When the memtable passes a threshold it is
//! flushed — merged one-record-per-address, sorted, written as an
//! immutable segment, named in `CURRENT`, and the WAL reset. Reads go
//! memtable first, then segments newest→oldest through a lock-free
//! snapshot (`Arc<Vec<Arc<Segment>>>` swapped atomically), so neither
//! flush nor compaction ever blocks a reader.
//!
//! **The WAL is the journal.** A finished cell appends exactly one
//! record; crash-resume and caching are served from the same bytes.
//! Sweep boundaries are `Epoch` records: a fresh sweep bumps the
//! epoch instead of truncating anything, so "journaled this sweep"
//! means "has a record at the current epoch" while older values stay
//! readable as cache entries. A warm sweep therefore journals a
//! ~100-byte `Mark` per cell instead of re-writing values.
//!
//! Crash matrix (see DESIGN.md for the long form): a torn WAL tail is
//! truncated on open; a crash between segment write and manifest swap
//! leaves a stray file that open deletes; a crash between manifest
//! swap and WAL reset replays records that also live in the new
//! segment, which the newest-wins merge absorbs. Corrupt segment
//! records are quarantined and their address poisoned until a fresh
//! put supersedes them or compaction drops them; corrupt segment
//! structure quarantines the whole file; a corrupt `CURRENT` is
//! quarantined and rebuilt by directory scan.
//!
//! Single-writer assumption: one process owns a store directory at a
//! time (the harness and server already guarantee this). Concurrent
//! *threads* in that process are fully supported.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use serde_json::Value;

use crate::failpoints;
use crate::manifest::{segment_file_name, Manifest, CURRENT};
use crate::quarantine;
use crate::record::{JournalRecord, Record, RecordKind};
use crate::segment::Segment;
use crate::wal::Wal;
use crate::{GetResult, ResumeState, StoreStats};

/// Tuning knobs; the defaults suit sweep workloads.
#[derive(Debug, Clone)]
pub struct LsmOptions {
    /// Memtable addresses that trigger a segment flush.
    pub flush_records: usize,
    /// Live-segment count that triggers background compaction.
    pub compact_min_segments: usize,
    /// Quarantine retention cap.
    pub quarantine_cap: usize,
}

impl Default for LsmOptions {
    fn default() -> Self {
        LsmOptions {
            flush_records: 1024,
            compact_min_segments: 4,
            quarantine_cap: quarantine::DEFAULT_QUARANTINE_CAP,
        }
    }
}

/// One address's merged state (memtable entry / merge scratch).
#[derive(Debug, Clone, Default)]
struct MemRec {
    rk: String,
    id: String,
    digest: Option<u64>,
    epoch: u64,
    value: Option<Vec<u8>>,
}

impl MemRec {
    fn absorb(&mut self, rec: &Record) {
        self.epoch = self.epoch.max(rec.epoch);
        if self.rk.is_empty() {
            self.rk = rec.rk.clone();
        }
        if !rec.id.is_empty() {
            self.id = rec.id.clone();
        }
        if rec.digest.is_some() {
            self.digest = rec.digest;
        }
        if rec.kind == RecordKind::Put {
            self.value = Some(rec.value.clone());
        }
    }

    fn to_record(&self) -> Record {
        Record {
            kind: match self.value {
                Some(_) => RecordKind::Put,
                None => RecordKind::Mark,
            },
            epoch: self.epoch,
            rk: self.rk.clone(),
            id: self.id.clone(),
            digest: self.digest,
            value: self.value.clone().unwrap_or_default(),
        }
    }
}

#[derive(Debug, Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    quarantined: AtomicU64,
    wal_appends: AtomicU64,
    segment_reads: AtomicU64,
    compactions: AtomicU64,
    recovered_records: AtomicU64,
    truncated_tail_bytes: AtomicU64,
}

#[derive(Debug)]
struct Inner {
    mem: HashMap<u128, MemRec>,
    manifest: Manifest,
}

#[derive(Debug)]
struct Shared {
    dir: PathBuf,
    opts: LsmOptions,
    wal: Wal,
    // Lock order: `inner` before `view` before `poisoned`.
    inner: Mutex<Inner>,
    view: Mutex<Arc<Vec<Arc<Segment>>>>,
    poisoned: Mutex<std::collections::HashSet<u128>>,
    epoch: AtomicU64,
    counters: Counters,
    compacting: AtomicBool,
}

/// The result store: result cache and sweep journal in one directory.
///
/// A handle is internally synchronised — one instance is shared across
/// worker threads (and, in the server, across batches). The contract
/// the harness and server rely on:
///
/// - [`LsmStore::get`] never returns bytes that failed verification;
///   corruption is quarantined (kept for post-mortem, bounded by a
///   cap) and surfaces as [`GetResult::Corrupt`], which callers treat
///   as a miss.
/// - [`LsmStore::put`] is atomic: a reader sees the old entry or the
///   new one, never a torn write.
/// - [`LsmStore::journal_append`] makes a completed cell durable for
///   resume; after a crash, [`LsmStore::resume_state`] returns every
///   cell journaled in the current sweep and nothing from older
///   sweeps.
/// - A store directory has a single writing process at a time.
#[derive(Debug)]
pub struct LsmStore {
    shared: Arc<Shared>,
    compact_handle: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl LsmStore {
    /// Opens (creating or recovering) a store at `dir` with default
    /// options.
    ///
    /// # Errors
    ///
    /// Returns IO errors that recovery cannot absorb (directory
    /// creation, unreadable WAL file).
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<LsmStore> {
        Self::open_with(dir, LsmOptions::default())
    }

    /// Opens with explicit [`LsmOptions`].
    ///
    /// # Errors
    ///
    /// As [`LsmStore::open`].
    pub fn open_with(dir: impl Into<PathBuf>, opts: LsmOptions) -> io::Result<LsmStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let qdir = dir.join("quarantine");
        let counters = Counters::default();

        // 1. The manifest: load, or quarantine + rebuild by scan.
        let current = dir.join(CURRENT);
        let (mut manifest, rebuilt) = match Manifest::load(&current) {
            Ok(Some(m)) => (m, false),
            Ok(None) => (
                Manifest {
                    epoch: 0,
                    next_segment: 1,
                    segments: Vec::new(),
                },
                false,
            ),
            Err(e) => {
                eprintln!(
                    "[scu-store] corrupt manifest at {}: {e}; rebuilding from directory",
                    current.display()
                );
                counters.quarantined.fetch_add(1, Ordering::Relaxed);
                let _ = quarantine::quarantine_move(&qdir, &current, opts.quarantine_cap);
                (Manifest::rebuild_from_dir(&dir), true)
            }
        };

        // 2. Open the live segments; quarantine files that fail
        //    structural validation, delete strays from interrupted
        //    flushes.
        let mut segments: Vec<Arc<Segment>> = Vec::new();
        let mut kept = Vec::new();
        for name in &manifest.segments {
            let path = dir.join(name);
            match Segment::open(&path) {
                Ok(seg) => {
                    segments.push(Arc::new(seg));
                    kept.push(name.clone());
                }
                Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                    eprintln!(
                        "[scu-store] quarantined corrupt segment {} ({e})",
                        path.display()
                    );
                    counters.quarantined.fetch_add(1, Ordering::Relaxed);
                    let _ = quarantine::quarantine_move(&qdir, &path, opts.quarantine_cap);
                }
                Err(e) if e.kind() == io::ErrorKind::NotFound => {
                    eprintln!("[scu-store] missing segment {}; dropped", path.display());
                }
                Err(e) => return Err(e),
            }
        }
        let manifest_changed = rebuilt || kept.len() != manifest.segments.len();
        manifest.segments = kept;
        if let Ok(entries) = std::fs::read_dir(&dir) {
            for entry in entries.filter_map(Result::ok) {
                let name = entry.file_name().to_str().unwrap_or_default().to_string();
                if crate::manifest::parse_segment_id(&name).is_some()
                    && !manifest.segments.contains(&name)
                {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }

        // 3. The WAL: recover the intact prefix, truncate the tail.
        let (wal, recovery) = Wal::open(&dir.join("wal.log"), &qdir, opts.quarantine_cap)?;
        counters
            .recovered_records
            .fetch_add(recovery.records.len() as u64, Ordering::Relaxed);
        counters
            .truncated_tail_bytes
            .fetch_add(recovery.truncated_tail_bytes, Ordering::Relaxed);
        if recovery.quarantined_file {
            counters.quarantined.fetch_add(1, Ordering::Relaxed);
        }

        // 4. Rebuild the memtable and the current epoch.
        let mut epoch = manifest.epoch;
        if rebuilt {
            for seg in &segments {
                for (_, rec) in seg.iter() {
                    if let Ok(rec) = rec {
                        epoch = epoch.max(rec.epoch);
                    }
                }
            }
        }
        let mut mem: HashMap<u128, MemRec> = HashMap::new();
        for rec in &recovery.records {
            epoch = epoch.max(rec.epoch);
            if matches!(rec.kind, RecordKind::Epoch | RecordKind::Obsolete) {
                continue;
            }
            mem.entry(rec.addr()).or_default().absorb(rec);
        }
        // Persist the manifest when it changed — and always on first
        // open, so the directory self-identifies as a store even
        // before the first flush writes a segment.
        if manifest_changed || !current.exists() {
            manifest.store(&current)?;
        }

        let flush_now = mem.len() >= opts.flush_records;
        let store = LsmStore {
            shared: Arc::new(Shared {
                dir,
                opts,
                wal,
                inner: Mutex::new(Inner { mem, manifest }),
                view: Mutex::new(Arc::new(segments)),
                poisoned: Mutex::new(std::collections::HashSet::new()),
                epoch: AtomicU64::new(epoch),
                counters,
                compacting: AtomicBool::new(false),
            }),
            compact_handle: Mutex::new(None),
        };
        if flush_now {
            if let Err(e) = store.do_flush() {
                eprintln!("[scu-store] flush on open failed: {e}; keeping records in the WAL");
            }
        }
        Ok(store)
    }

    /// The current sweep epoch (for tests and diagnostics).
    pub fn current_epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::Relaxed)
    }

    /// Number of live segment files.
    pub fn segment_count(&self) -> usize {
        lock(&self.shared.view).len()
    }

    fn snapshot(&self) -> Arc<Vec<Arc<Segment>>> {
        Arc::clone(&lock(&self.shared.view))
    }

    /// Looks for an intact record at `addr` in the segment stack,
    /// newest first. Corrupt records are quarantined, poisoned and
    /// reported as `Err(())`.
    fn segment_lookup(&self, addr: u128, rk: &str) -> Result<Option<MemRec>, ()> {
        let shared = &self.shared;
        let mut merged: Option<MemRec> = None;
        for seg in self.snapshot().iter().rev() {
            let Some(found) = seg.get(addr) else {
                continue;
            };
            shared
                .counters
                .segment_reads
                .fetch_add(1, Ordering::Relaxed);
            match found {
                Ok(rec) if rec.rk == rk => {
                    let slot = merged.get_or_insert_with(MemRec::default);
                    // Newest-first iteration: only fill holes, never
                    // overwrite what a newer segment said.
                    let mut older = MemRec::default();
                    older.absorb(&rec);
                    if slot.rk.is_empty() {
                        slot.rk = older.rk;
                    }
                    if slot.id.is_empty() {
                        slot.id = older.id;
                    }
                    if slot.digest.is_none() {
                        slot.digest = older.digest;
                    }
                    slot.epoch = slot.epoch.max(older.epoch);
                    if slot.value.is_none() {
                        slot.value = older.value;
                    }
                    if slot.value.is_some() {
                        return Ok(merged);
                    }
                }
                Ok(rec) => {
                    // An address collision or a record written for a
                    // different key: never serve it.
                    self.poison(addr, seg, &format!("resume-key mismatch ({})", rec.rk));
                    return Err(());
                }
                Err(reason) => {
                    self.poison(addr, seg, &reason);
                    return Err(());
                }
            }
        }
        Ok(merged)
    }

    fn poison(&self, addr: u128, seg: &Segment, reason: &str) {
        let shared = &self.shared;
        shared.counters.quarantined.fetch_add(1, Ordering::Relaxed);
        lock(&shared.poisoned).insert(addr);
        let qdir = self.quarantine_dir();
        let name = format!("{addr:032x}.rec");
        let outcome = match seg.raw_frame(addr) {
            Some(bytes) => {
                quarantine::quarantine_bytes(&qdir, &name, bytes, shared.opts.quarantine_cap)
            }
            None => Err(io::Error::new(io::ErrorKind::NotFound, "frame not found")),
        };
        match outcome {
            Ok(dest) => eprintln!(
                "[scu-store] quarantined corrupt record {addr:032x} from {} -> {} ({reason})",
                seg.path().display(),
                dest.display()
            ),
            Err(e) => eprintln!(
                "[scu-store] corrupt record {addr:032x} in {} ({reason}); quarantine failed: {e}",
                seg.path().display()
            ),
        }
    }

    fn append_wal(&self, rec: &Record) -> io::Result<()> {
        self.shared.wal.append(rec)?;
        self.shared
            .counters
            .wal_appends
            .fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Flushes the memtable into a new segment and resets the WAL.
    fn do_flush(&self) -> io::Result<()> {
        failpoints::io("segment-flush")?;
        let shared = &self.shared;
        let compact_after;
        {
            let mut inner = lock(&shared.inner);
            if inner.mem.is_empty() {
                return Ok(());
            }
            let mut records: Vec<(u128, Record)> = inner
                .mem
                .iter()
                .map(|(addr, mem)| (*addr, mem.to_record()))
                .collect();
            let id = inner.manifest.next_segment;
            let name = segment_file_name(id);
            let path = shared.dir.join(&name);
            Segment::write(&path, &mut records)?;
            let seg = Arc::new(Segment::open(&path)?);
            inner.manifest.next_segment = id + 1;
            inner.manifest.segments.push(name);
            inner.manifest.epoch = shared.epoch.load(Ordering::Relaxed);
            inner.manifest.store(&shared.dir.join(CURRENT))?;
            {
                let mut view = lock(&shared.view);
                let mut next = (**view).clone();
                next.push(seg);
                *view = Arc::new(next);
            }
            shared.wal.reset()?;
            inner.mem.clear();
            compact_after = inner.manifest.segments.len() >= shared.opts.compact_min_segments;
        }
        if compact_after {
            self.trigger_compaction();
        }
        Ok(())
    }

    fn maybe_flush(&self) {
        let over = lock(&self.shared.inner).mem.len() >= self.shared.opts.flush_records;
        if over {
            if let Err(e) = self.do_flush() {
                eprintln!("[scu-store] segment flush failed: {e}; keeping records in the WAL");
            }
        }
    }

    fn trigger_compaction(&self) {
        let shared = &self.shared;
        if shared
            .compacting
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return;
        }
        let mut guard = lock(&self.compact_handle);
        if let Some(handle) = guard.take() {
            let _ = handle.join();
        }
        let cloned = Arc::clone(shared);
        *guard = Some(
            std::thread::Builder::new()
                .name("scu-store-compact".into())
                .spawn(move || compact_once(&cloned))
                .expect("spawning the compaction thread cannot fail"),
        );
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// One background compaction pass over `shared`'s current segments.
fn compact_once(shared: &Arc<Shared>) {
    let done = || shared.compacting.store(false, Ordering::SeqCst);
    if failpoints::io("compact").is_err() {
        eprintln!("[scu-store] compaction aborted by failpoint");
        done();
        return;
    }
    // Snapshot the segments to merge; readers keep using this exact
    // Arc while we work, and segments flushed after this point are
    // simply left out of the merge.
    let snapshot = Arc::clone(&lock(&shared.view));
    if snapshot.len() < 2 {
        done();
        return;
    }
    // Merge oldest→newest so later records win; epoch max-merge keeps
    // resume correct even if list order is ever reconstructed.
    let mut merged: HashMap<u128, MemRec> = HashMap::new();
    for seg in snapshot.iter() {
        for (addr, rec) in seg.iter() {
            match rec {
                // Older versions' trace records are dropped here.
                Ok(rec) if rec.kind == RecordKind::Obsolete => {}
                Ok(rec) => merged.entry(addr).or_default().absorb(&rec),
                Err(reason) => {
                    // Superseded-or-corrupt records do not survive
                    // compaction; keep the evidence, drop the record.
                    shared.counters.quarantined.fetch_add(1, Ordering::Relaxed);
                    let name = format!("{addr:032x}.rec");
                    if let Some(bytes) = seg.raw_frame(addr) {
                        let _ = quarantine::quarantine_bytes(
                            &shared.dir.join("quarantine"),
                            &name,
                            bytes,
                            shared.opts.quarantine_cap,
                        );
                    }
                    eprintln!(
                        "[scu-store] compaction dropped corrupt record {addr:032x} from {} ({reason})",
                        seg.path().display()
                    );
                }
            }
        }
    }
    let mut records: Vec<(u128, Record)> = merged
        .iter()
        .map(|(addr, mem)| (*addr, mem.to_record()))
        .collect();
    let old_paths: Vec<PathBuf> = snapshot.iter().map(|s| s.path().to_path_buf()).collect();
    let old_names: Vec<String> = old_paths
        .iter()
        .filter_map(|p| p.file_name().and_then(|n| n.to_str()).map(str::to_string))
        .collect();

    // Reserve an id, write the merged segment, then swap it in under
    // the lock — prepended so age ordering stays oldest-first.
    let id = {
        let mut inner = lock(&shared.inner);
        let id = inner.manifest.next_segment;
        inner.manifest.next_segment = id + 1;
        id
    };
    let name = segment_file_name(id);
    let path = shared.dir.join(&name);
    if let Err(e) = Segment::write(&path, &mut records) {
        eprintln!("[scu-store] compaction write failed: {e}; keeping existing segments");
        let _ = std::fs::remove_file(&path);
        done();
        return;
    }
    let seg = match Segment::open(&path) {
        Ok(s) => Arc::new(s),
        Err(e) => {
            eprintln!("[scu-store] compacted segment failed validation: {e}; discarded");
            let _ = std::fs::remove_file(&path);
            done();
            return;
        }
    };
    {
        let mut inner = lock(&shared.inner);
        let late: Vec<String> = inner
            .manifest
            .segments
            .iter()
            .filter(|n| !old_names.contains(n))
            .cloned()
            .collect();
        inner.manifest.segments = std::iter::once(name).chain(late).collect();
        if let Err(e) = inner.manifest.store(&shared.dir.join(CURRENT)) {
            eprintln!("[scu-store] compaction manifest swap failed: {e}; keeping old segments");
            let _ = std::fs::remove_file(&path);
            done();
            return;
        }
        let mut view = lock(&shared.view);
        let late_segs: Vec<Arc<Segment>> = view
            .iter()
            .filter(|s| !old_paths.contains(&s.path().to_path_buf()))
            .cloned()
            .collect();
        *view = Arc::new(std::iter::once(seg).chain(late_segs).collect());
        lock(&shared.poisoned).clear();
    }
    for path in old_paths {
        let _ = std::fs::remove_file(path);
    }
    shared.counters.compactions.fetch_add(1, Ordering::Relaxed);
    done();
}

impl Drop for LsmStore {
    fn drop(&mut self) {
        if let Some(handle) = lock(&self.compact_handle).take() {
            let _ = handle.join();
        }
    }
}

impl LsmStore {
    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.shared.dir
    }

    /// Where corrupt entries are kept for post-mortem.
    pub fn quarantine_dir(&self) -> PathBuf {
        self.shared.dir.join("quarantine")
    }

    /// Looks up the value stored for `key`.
    pub fn get(&self, key: &Value) -> GetResult {
        let shared = &self.shared;
        if failpoints::io("cache-load").is_err() {
            shared.counters.misses.fetch_add(1, Ordering::Relaxed);
            return GetResult::Miss;
        }
        let rk = JournalRecord::resume_key(Some(key), "");
        let addr = crate::hash::stable_addr(rk.as_bytes());
        let from_mem = lock(&shared.inner)
            .mem
            .get(&addr)
            .filter(|m| m.rk == rk)
            .and_then(|m| m.value.clone());
        let value_bytes = match from_mem {
            Some(bytes) => Some(bytes),
            None => {
                if lock(&shared.poisoned).contains(&addr) {
                    shared.counters.misses.fetch_add(1, Ordering::Relaxed);
                    return GetResult::Miss;
                }
                match self.segment_lookup(addr, &rk) {
                    Ok(found) => found.and_then(|m| m.value),
                    Err(()) => {
                        shared.counters.misses.fetch_add(1, Ordering::Relaxed);
                        return GetResult::Corrupt;
                    }
                }
            }
        };
        match value_bytes {
            Some(bytes) => match parse_value(&bytes) {
                Some(value) => {
                    shared.counters.hits.fetch_add(1, Ordering::Relaxed);
                    GetResult::Hit(value)
                }
                None => {
                    // CRC held but the payload is not JSON: a writer
                    // bug, not bit rot. Do not serve it.
                    shared.counters.misses.fetch_add(1, Ordering::Relaxed);
                    lock(&shared.poisoned).insert(addr);
                    GetResult::Corrupt
                }
            },
            None => {
                shared.counters.misses.fetch_add(1, Ordering::Relaxed);
                GetResult::Miss
            }
        }
    }

    /// Stores `value` under `key`.
    ///
    /// # Errors
    ///
    /// Returns IO failures (including injected ones); callers degrade
    /// to running uncached.
    pub fn put(&self, key: &Value, value: &Value) -> io::Result<()> {
        failpoints::io("cache-store")?;
        let shared = &self.shared;
        let rk = JournalRecord::resume_key(Some(key), "");
        let addr = crate::hash::stable_addr(rk.as_bytes());
        let epoch = shared.epoch.load(Ordering::Relaxed);
        {
            let mut inner = lock(&shared.inner);
            if inner
                .mem
                .get(&addr)
                .is_some_and(|m| m.rk == rk && m.value.is_some() && m.epoch >= epoch)
            {
                // Same sweep already stored this value; identical by
                // the determinism contract, so skip the duplicate.
                shared.counters.stores.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
            let rec = Record {
                kind: RecordKind::Put,
                epoch,
                rk,
                id: String::new(),
                digest: None,
                value: serde_json::to_string(value)
                    .expect("serialising a Value cannot fail")
                    .into_bytes(),
            };
            self.append_wal(&rec)?;
            inner.mem.entry(addr).or_default().absorb(&rec);
        }
        // A fresh value supersedes any poisoned history at this
        // address.
        lock(&shared.poisoned).remove(&addr);
        shared.counters.stores.fetch_add(1, Ordering::Relaxed);
        self.maybe_flush();
        Ok(())
    }

    /// Journals a completed cell for crash-resume: a `Put` when its
    /// value is not on disk yet, else a value-less `Mark`.
    ///
    /// # Errors
    ///
    /// Returns IO failures; callers degrade (the sweep continues, the
    /// journal is just shorter).
    pub fn journal_append(&self, rec: &JournalRecord) -> io::Result<()> {
        failpoints::io("journal-append")?;
        let shared = &self.shared;
        let rk = JournalRecord::resume_key(rec.key.as_ref(), &rec.id);
        let addr = crate::hash::stable_addr(rk.as_bytes());
        let epoch = shared.epoch.load(Ordering::Relaxed);
        enum MemProbe {
            AlreadyJournaled,
            HasValue,
            MarkOnly,
            Absent,
        }
        let probe = {
            let inner = lock(&shared.inner);
            match inner.mem.get(&addr) {
                Some(m) if m.rk == rk => {
                    if m.epoch >= epoch && m.id == rec.id && m.digest == rec.digest {
                        MemProbe::AlreadyJournaled
                    } else if m.value.is_some() {
                        MemProbe::HasValue
                    } else {
                        MemProbe::MarkOnly
                    }
                }
                _ => MemProbe::Absent,
            }
        };
        let value_exists = match probe {
            // Exactly this completion is already journaled.
            MemProbe::AlreadyJournaled => return Ok(()),
            MemProbe::HasValue => true,
            // A Mark is only ever written over an existing Put, so a
            // mark-only memtable entry means the value is in a segment.
            MemProbe::MarkOnly => true,
            MemProbe::Absent => matches!(
                self.segment_lookup(addr, &rk),
                Ok(Some(m)) if m.value.is_some()
            ),
        };
        let wal_rec = if value_exists {
            Record {
                kind: RecordKind::Mark,
                epoch,
                rk,
                id: rec.id.clone(),
                digest: rec.digest,
                value: Vec::new(),
            }
        } else {
            Record {
                kind: RecordKind::Put,
                epoch,
                rk,
                id: rec.id.clone(),
                digest: rec.digest,
                value: serde_json::to_string(&rec.value)
                    .expect("serialising a Value cannot fail")
                    .into_bytes(),
            }
        };
        {
            let mut inner = lock(&shared.inner);
            self.append_wal(&wal_rec)?;
            inner.mem.entry(addr).or_default().absorb(&wal_rec);
        }
        self.maybe_flush();
        Ok(())
    }

    /// Marks a sweep boundary. `resume = false` starts a fresh sweep —
    /// prior completions no longer count for resume (though cached
    /// values remain readable); `resume = true` continues the
    /// interrupted sweep.
    ///
    /// # Errors
    ///
    /// Returns IO failures from recording the boundary.
    pub fn begin_sweep(&self, resume: bool) -> io::Result<()> {
        if resume {
            // Resuming continues the interrupted sweep's epoch.
            return Ok(());
        }
        let shared = &self.shared;
        let next = shared.epoch.load(Ordering::Relaxed) + 1;
        let _inner = lock(&shared.inner);
        self.append_wal(&Record::epoch(next))?;
        shared.epoch.store(next, Ordering::Relaxed);
        Ok(())
    }

    /// Every completion journaled in the current sweep.
    ///
    /// # Errors
    ///
    /// Returns IO failures from reading the journal.
    pub fn resume_state(&self) -> io::Result<ResumeState> {
        let shared = &self.shared;
        let current = shared.epoch.load(Ordering::Relaxed);
        let mut merged: HashMap<u128, MemRec> = HashMap::new();
        for seg in self.snapshot().iter() {
            for (addr, rec) in seg.iter() {
                match rec {
                    Ok(rec) if rec.kind != RecordKind::Obsolete => {
                        merged.entry(addr).or_default().absorb(&rec);
                    }
                    _ => {}
                }
            }
        }
        {
            let inner = lock(&shared.inner);
            for (addr, mem) in &inner.mem {
                let slot = merged.entry(*addr).or_default();
                slot.epoch = slot.epoch.max(mem.epoch);
                if !mem.rk.is_empty() {
                    slot.rk = mem.rk.clone();
                }
                if !mem.id.is_empty() {
                    slot.id = mem.id.clone();
                }
                if mem.digest.is_some() {
                    slot.digest = mem.digest;
                }
                if mem.value.is_some() {
                    slot.value = mem.value.clone();
                }
            }
        }
        let poisoned = lock(&shared.poisoned).clone();
        let mut state = ResumeState::default();
        for (addr, mem) in merged {
            if mem.epoch != current || poisoned.contains(&addr) {
                continue;
            }
            let Some(bytes) = &mem.value else { continue };
            let Some(value) = parse_value(bytes) else {
                continue;
            };
            if let Some(d) = mem.digest {
                if !mem.id.is_empty() {
                    state.digests.insert(mem.id.clone(), d);
                }
            }
            state.values.insert(mem.rk, value);
        }
        Ok(state)
    }

    /// Current counters.
    pub fn stats(&self) -> StoreStats {
        let c = &self.shared.counters;
        StoreStats {
            hits: c.hits.load(Ordering::Relaxed),
            misses: c.misses.load(Ordering::Relaxed),
            stores: c.stores.load(Ordering::Relaxed),
            quarantined: c.quarantined.load(Ordering::Relaxed),
            quarantined_total: quarantine::retained(&self.quarantine_dir()),
            wal_appends: c.wal_appends.load(Ordering::Relaxed),
            segment_reads: c.segment_reads.load(Ordering::Relaxed),
            compactions: c.compactions.load(Ordering::Relaxed),
            recovered_records: c.recovered_records.load(Ordering::Relaxed),
            truncated_tail_bytes: c.truncated_tail_bytes.load(Ordering::Relaxed),
        }
    }

    /// Flushes the memtable into a segment, making buffered state
    /// durable outside the WAL.
    ///
    /// # Errors
    ///
    /// Returns IO failures from the flush.
    pub fn flush(&self) -> io::Result<()> {
        self.do_flush()
    }
}

fn parse_value(bytes: &[u8]) -> Option<Value> {
    let text = std::str::from_utf8(bytes).ok()?;
    serde_json::from_str(text).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("scu-store-lsm-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn key(n: u64) -> Value {
        Value::Object(vec![("cell".into(), Value::U64(n))])
    }

    fn small_opts() -> LsmOptions {
        LsmOptions {
            flush_records: 4,
            compact_min_segments: 3,
            quarantine_cap: 8,
        }
    }

    fn journal_rec(n: u64) -> JournalRecord {
        JournalRecord {
            key: Some(key(n)),
            id: format!("cell-{n}"),
            value: Value::U64(n * 10),
            digest: Some(n * 1000),
        }
    }

    #[test]
    fn puts_round_trip_through_wal_reopen_and_segments() {
        let dir = scratch("round");
        {
            let store = LsmStore::open(&dir).unwrap();
            store.begin_sweep(false).unwrap();
            for n in 0..6 {
                store.put(&key(n), &Value::U64(n)).unwrap();
            }
            assert!(matches!(store.get(&key(3)), GetResult::Hit(Value::U64(3))));
        }
        // Reopen: everything still in the WAL.
        {
            let store = LsmStore::open(&dir).unwrap();
            assert_eq!(store.stats().recovered_records, 7, "epoch + 6 puts");
            assert!(matches!(store.get(&key(5)), GetResult::Hit(Value::U64(5))));
            store.flush().unwrap();
            assert_eq!(store.segment_count(), 1);
            assert!(matches!(store.get(&key(2)), GetResult::Hit(Value::U64(2))));
            assert!(store.stats().segment_reads > 0);
        }
        // Reopen again: WAL is empty, reads come from the segment.
        {
            let store = LsmStore::open(&dir).unwrap();
            assert_eq!(store.stats().recovered_records, 0);
            for n in 0..6 {
                assert!(matches!(store.get(&key(n)), GetResult::Hit(Value::U64(v)) if v == n));
            }
            assert!(matches!(store.get(&key(99)), GetResult::Miss));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_appends_resume_at_the_current_epoch_only() {
        let dir = scratch("epochs");
        let store = LsmStore::open(&dir).unwrap();
        store.begin_sweep(false).unwrap();
        store.journal_append(&journal_rec(1)).unwrap();
        store.journal_append(&journal_rec(2)).unwrap();
        let state = store.resume_state().unwrap();
        assert_eq!(state.values.len(), 2);
        assert_eq!(state.digests.get("cell-1"), Some(&1000));

        // A new sweep logically truncates: nothing resumes…
        store.begin_sweep(false).unwrap();
        assert!(store.resume_state().unwrap().values.is_empty());
        // …but the values are still cache hits.
        assert!(matches!(store.get(&key(1)), GetResult::Hit(Value::U64(10))));

        // Completing a cell in the new sweep journals a small Mark
        // (the value already being on disk), and resume sees it.
        store.journal_append(&journal_rec(1)).unwrap();
        let state = store.resume_state().unwrap();
        assert_eq!(state.values.len(), 1);
        assert_eq!(
            state
                .values
                .get(&JournalRecord::resume_key(Some(&key(1)), "cell-1")),
            Some(&Value::U64(10))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn epoch_semantics_survive_flush_and_reopen() {
        let dir = scratch("epoch-flush");
        {
            let store = LsmStore::open_with(&dir, small_opts()).unwrap();
            store.begin_sweep(false).unwrap();
            for n in 0..10 {
                store.journal_append(&journal_rec(n)).unwrap();
            }
            assert!(store.segment_count() >= 1, "threshold 4 forced flushes");
        }
        let store = LsmStore::open_with(&dir, small_opts()).unwrap();
        assert_eq!(store.current_epoch(), 1);
        let state = store.resume_state().unwrap();
        assert_eq!(state.values.len(), 10, "all ten journaled cells resume");
        for n in 0..10 {
            assert!(matches!(store.get(&key(n)), GetResult::Hit(Value::U64(v)) if v == n * 10));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn uncacheable_records_resume_by_id() {
        let dir = scratch("by-id");
        let store = LsmStore::open(&dir).unwrap();
        store.begin_sweep(false).unwrap();
        store
            .journal_append(&JournalRecord {
                key: None,
                id: "plain".into(),
                value: Value::Bool(true),
                digest: None,
            })
            .unwrap();
        let state = store.resume_state().unwrap();
        assert_eq!(state.values.get("id:plain"), Some(&Value::Bool(true)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_sweep_journals_marks_not_values() {
        let dir = scratch("marks");
        let store = LsmStore::open(&dir).unwrap();
        store.begin_sweep(false).unwrap();
        store.journal_append(&journal_rec(1)).unwrap();
        let wal_after_put = std::fs::metadata(dir.join("wal.log")).unwrap().len();
        store.begin_sweep(false).unwrap();
        store.journal_append(&journal_rec(1)).unwrap();
        let wal_after_mark = std::fs::metadata(dir.join("wal.log")).unwrap().len();
        let value_len = serde_json::to_string(&journal_rec(1).value).unwrap().len() as u64;
        assert!(
            wal_after_mark - wal_after_put < wal_after_put,
            "mark + epoch ({} bytes) smaller than the original put ({wal_after_put})",
            wal_after_mark - wal_after_put
        );
        let _ = value_len;
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_merges_supersedes_and_keeps_reads_correct() {
        let dir = scratch("compact");
        let store = LsmStore::open_with(&dir, small_opts()).unwrap();
        store.begin_sweep(false).unwrap();
        // Three sweeps over the same cells → repeated marks and puts
        // across enough segments to trip compaction.
        for sweep in 0..3 {
            if sweep > 0 {
                store.begin_sweep(false).unwrap();
            }
            for n in 0..8 {
                store.journal_append(&journal_rec(n)).unwrap();
            }
        }
        // Wait for any background pass to land.
        if let Some(h) = lock(&store.compact_handle).take() {
            h.join().unwrap();
        }
        let stats = store.stats();
        assert!(stats.compactions >= 1, "compaction ran: {stats:?}");
        for n in 0..8 {
            assert!(matches!(store.get(&key(n)), GetResult::Hit(Value::U64(v)) if v == n * 10));
        }
        let state = store.resume_state().unwrap();
        assert_eq!(state.values.len(), 8, "latest epoch fully resumable");
        // And the compacted layout survives a cold reopen.
        drop(store);
        let store = LsmStore::open_with(&dir, small_opts()).unwrap();
        for n in 0..8 {
            assert!(matches!(store.get(&key(n)), GetResult::Hit(Value::U64(v)) if v == n * 10));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_segment_record_is_quarantined_poisoned_and_superseded() {
        let dir = scratch("poison");
        let store = LsmStore::open(&dir).unwrap();
        store.begin_sweep(false).unwrap();
        for n in 0..4 {
            store.put(&key(n), &Value::U64(n)).unwrap();
        }
        store.flush().unwrap();
        drop(store);
        // Flip a byte inside the newest segment's frame region.
        let seg_path = dir.join(segment_file_name(1));
        let mut bytes = std::fs::read(&seg_path).unwrap();
        // Find the victim by corrupting each record position until one
        // read fails; frames start after the 16-byte header.
        bytes[30] ^= 0x20;
        std::fs::write(&seg_path, &bytes).unwrap();
        let store = LsmStore::open(&dir).unwrap();
        let mut corrupted = None;
        for n in 0..4 {
            if matches!(store.get(&key(n)), GetResult::Corrupt) {
                corrupted = Some(n);
                break;
            }
        }
        let victim = corrupted.expect("one record must read corrupt");
        assert!(store.stats().quarantined >= 1);
        assert!(store.stats().quarantined_total >= 1);
        // Poisoned: repeat reads miss without re-quarantining.
        let before = store.stats().quarantined;
        assert!(matches!(store.get(&key(victim)), GetResult::Miss));
        assert_eq!(store.stats().quarantined, before);
        // A fresh put supersedes the poisoned address.
        store.put(&key(victim), &Value::U64(victim)).unwrap();
        assert!(matches!(store.get(&key(victim)), GetResult::Hit(Value::U64(v)) if v == victim));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_manifest_is_rebuilt_from_directory() {
        let dir = scratch("manifest");
        {
            let store = LsmStore::open(&dir).unwrap();
            store.begin_sweep(false).unwrap();
            for n in 0..5 {
                store.put(&key(n), &Value::U64(n)).unwrap();
            }
            store.flush().unwrap();
        }
        std::fs::write(dir.join(CURRENT), "scrambled eggs").unwrap();
        let store = LsmStore::open(&dir).unwrap();
        for n in 0..5 {
            assert!(matches!(store.get(&key(n)), GetResult::Hit(Value::U64(v)) if v == n));
        }
        assert!(
            store.stats().quarantined >= 1,
            "old CURRENT kept as evidence"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A frame body in the format older versions wrote, built byte by
    /// byte: kind, epoch, resume key, id, digest flag + digest, payload.
    fn old_body(kind: u8, epoch: u64, rk: &str, digest: Option<u64>, payload: &[u8]) -> Vec<u8> {
        let mut body = vec![kind];
        body.extend_from_slice(&epoch.to_le_bytes());
        body.extend_from_slice(&(rk.len() as u32).to_le_bytes());
        body.extend_from_slice(rk.as_bytes());
        body.extend_from_slice(&0u32.to_le_bytes());
        body.push(digest.is_some() as u8);
        body.extend_from_slice(&digest.unwrap_or(0).to_le_bytes());
        body.extend_from_slice(payload);
        body
    }

    #[test]
    fn stores_holding_obsolete_trace_records_keep_every_result() {
        let dir = scratch("old-format");
        std::fs::create_dir_all(&dir).unwrap();
        let rk = |n: u64| JournalRecord::resume_key(Some(&key(n)), "");
        let trace_blob = [0xffu8, 0x00, 0x80, 0x7f, 0x03];
        let trace_digest = Some(crate::hash::fnv64(&trace_blob));

        // A segment holding one result and one trace record.
        let seg_trace = Record {
            kind: RecordKind::Obsolete,
            epoch: 1,
            rk: "trace:{\"func\":\"scu-func-1\"}".to_string(),
            id: String::new(),
            digest: trace_digest,
            value: trace_blob.to_vec(),
        };
        let seg_put = Record {
            kind: RecordKind::Put,
            epoch: 1,
            rk: rk(3),
            id: String::new(),
            digest: None,
            value: b"30".to_vec(),
        };
        let mut seg_records = vec![(seg_trace.addr(), seg_trace), (seg_put.addr(), seg_put)];
        Segment::write(&dir.join(segment_file_name(1)), &mut seg_records).unwrap();
        Manifest {
            epoch: 1,
            next_segment: 2,
            segments: vec![segment_file_name(1)],
        }
        .store(&dir.join(CURRENT))
        .unwrap();

        // A WAL of Put, Trace, Put: the trace frame sits between the
        // two results it must not cut off.
        let mut wal = crate::wal::WAL_MAGIC.to_vec();
        for body in [
            old_body(1, 1, &rk(1), None, b"10"),
            old_body(
                3,
                1,
                "trace:{\"func\":\"scu-func-2\"}",
                trace_digest,
                &trace_blob,
            ),
            old_body(1, 1, &rk(2), None, b"20"),
        ] {
            crate::record::write_frame(&mut wal, &body);
        }
        std::fs::write(dir.join("wal.log"), &wal).unwrap();

        let store = LsmStore::open(&dir).unwrap();
        for n in 1..=3 {
            assert!(
                matches!(store.get(&key(n)), GetResult::Hit(Value::U64(v)) if v == n * 10),
                "result {n} lost"
            );
        }
        let stats = store.stats();
        assert_eq!(stats.truncated_tail_bytes, 0);
        assert_eq!((stats.quarantined, stats.quarantined_total), (0, 0));
        assert_eq!(
            std::fs::read(dir.join("wal.log")).unwrap(),
            wal,
            "WAL intact"
        );
        assert_eq!(store.resume_state().unwrap().values.len(), 3);

        // Flush the memtable, then compact both segments into one.
        store.flush().unwrap();
        compact_once(&store.shared);
        assert_eq!(store.segment_count(), 1);
        drop(store);
        // Only the three results survive: no kind-3 record, and no
        // leftover record under a trace key either.
        let manifest = Manifest::load(&dir.join(CURRENT)).unwrap().unwrap();
        let mut survivors = Vec::new();
        for name in &manifest.segments {
            let seg = Segment::open(&dir.join(name)).unwrap();
            survivors.extend(seg.iter().map(|(_, rec)| {
                let rec = rec.unwrap();
                (rec.kind, rec.rk)
            }));
        }
        survivors.sort_by(|a, b| a.1.cmp(&b.1));
        assert_eq!(
            survivors,
            (1..=3)
                .map(|n| (RecordKind::Put, rk(n)))
                .collect::<Vec<_>>()
        );
        let store = LsmStore::open(&dir).unwrap();
        assert_eq!(store.stats().recovered_records, 0, "WAL reset by the flush");
        for n in 1..=3 {
            assert!(matches!(store.get(&key(n)), GetResult::Hit(Value::U64(v)) if v == n * 10));
        }
        assert_eq!(store.stats().quarantined_total, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pre_lsm_blob_directories_open_empty_and_stay_untouched() {
        // The retired per-file layout: one `<digest>.json` blob per
        // entry, and a line-JSON `manifest.json` beside the directory.
        let root = scratch("blob-layout");
        let dir = root.join("cache");
        std::fs::create_dir_all(&dir).unwrap();
        let blob = dir.join(format!(
            "{}.json",
            crate::hash::stable_digest(b"key:{\"cell\":1}")
        ));
        let blob_bytes = br#"{"key":{"cell":1},"value":10,"value_digest":"0"}"#;
        std::fs::write(&blob, blob_bytes).unwrap();
        let manifest = root.join("manifest.json");
        let manifest_bytes = br#"{"key":{"cell":1},"id":"cell-1","value":10}"#;
        std::fs::write(&manifest, manifest_bytes).unwrap();

        let store = LsmStore::open(&dir).unwrap();
        assert!(
            matches!(store.get(&key(1)), GetResult::Miss),
            "blobs are not served"
        );
        assert!(store.resume_state().unwrap().values.is_empty());
        store.put(&key(2), &Value::U64(20)).unwrap();
        assert!(matches!(store.get(&key(2)), GetResult::Hit(Value::U64(20))));
        store.flush().unwrap();
        drop(store);
        assert_eq!(std::fs::read(&blob).unwrap(), blob_bytes);
        assert_eq!(std::fs::read(&manifest).unwrap(), manifest_bytes);
        let store = LsmStore::open(&dir).unwrap();
        assert!(matches!(store.get(&key(2)), GetResult::Hit(Value::U64(20))));
        assert_eq!(store.stats().quarantined_total, 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_wal_tail_recovers_the_prefix() {
        let dir = scratch("torn");
        {
            let store = LsmStore::open(&dir).unwrap();
            store.begin_sweep(false).unwrap();
            for n in 0..3 {
                store.journal_append(&journal_rec(n)).unwrap();
            }
        }
        let wal = dir.join("wal.log");
        let bytes = std::fs::read(&wal).unwrap();
        std::fs::write(&wal, &bytes[..bytes.len() - 7]).unwrap();
        let store = LsmStore::open(&dir).unwrap();
        let stats = store.stats();
        assert!(stats.truncated_tail_bytes > 0);
        let state = store.resume_state().unwrap();
        assert_eq!(state.values.len(), 2, "torn third record dropped");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
