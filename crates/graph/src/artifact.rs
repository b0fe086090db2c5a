//! The graph artifact store: build-once, mmap-everywhere CSR files.
//!
//! Re-generating a synthetic graph is the single largest fixed cost a
//! sweep pays — every process rebuilt every `(dataset, scale, seed)`
//! from scratch, because the in-process memo dies with the process.
//! This module makes a built CSR durable: the three arrays are written
//! once into a checksummed artifact file and every later consumer —
//! other cells, other sweep processes, the daemon after a restart —
//! maps the same file read-only and reads the arrays straight from the
//! page cache. Zero copies, and the physical pages are shared.
//!
//! ## File format (`SCUCSR01`)
//!
//! ```text
//! offset 0   8 bytes   magic "SCUCSR01"
//! offset 8   4 bytes   key length (u32 LE)
//! offset 12  …         key string (see [`artifact_key`]) + zero pad
//! 64-aligned 64 bytes  header: 8 × u64 LE
//!                        num_nodes, num_edges,
//!                        row_offsets (byte offset, word count),
//!                        edges       (byte offset, word count),
//!                        weights     (byte offset, word count)
//! 64-aligned …         row_offsets words (u32 LE)
//! 64-aligned …         edges words       (u32 LE)
//! 64-aligned …         weights words     (u32 LE)
//! tail       8 bytes   FNV-1a-64 of every preceding byte (u64 LE)
//! ```
//!
//! The key string embeds [`CSR_FORMAT_VERSION`], so a format or
//! generator change invalidates old artifacts by mismatch, not by
//! accident. Sections are 64-byte aligned; an mmap base is
//! page-aligned, so every section is 4-byte aligned and the `u32`
//! views are zero-copy casts (misaligned or big-endian hosts degrade
//! to a heap decode with identical contents — see `csr::Words`).
//!
//! ## Discipline (mirrors the PR-8 store / PR-9 trace cache)
//!
//! - publish is atomic: temp file + rename, so readers see an old
//!   artifact or a complete new one, never a torn write;
//! - every load verifies magic, key and the trailing digest before any
//!   word is trusted; anything that fails is quarantined (bounded,
//!   oldest-evicted) and rebuilt transparently — corruption can slow a
//!   sweep down, never change its bytes or kill it;
//! - artifacts are keyed *outside* `cache_key`: a hit hands back the
//!   exact arrays the in-memory build would produce, so result bytes
//!   cannot depend on whether the store is enabled.
//!
//! Like the trace cache, the store is an install slot: library code
//! never touches the filesystem unless a binary mounts a store
//! ([`install`]), and the fault-injection seam is a function-pointer
//! hook ([`install_io_hook`]) the harness layer fills in, because the
//! dependency arrow points the other way.

use std::cell::RefCell;
use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use scu_store::mmap::Mapped;
use scu_store::quarantine;

use crate::csr::{Csr, Words};
use crate::datasets::Dataset;

/// Version string embedded in every artifact key. Bump when the file
/// format *or* any generator's output bytes change — old artifacts
/// then miss on key mismatch and are quarantined + rebuilt instead of
/// serving stale arrays.
pub const CSR_FORMAT_VERSION: &str = "scu-csr-1";

/// Artifact file magic.
pub const MAGIC: &[u8; 8] = b"SCUCSR01";

/// Default artifact directory, relative to the results root binaries
/// already use.
pub const DEFAULT_SUBDIR: &str = "graphs";

const HEADER_WORDS: usize = 8;
const DIGEST_LEN: usize = 8;

/// The full identity of an artifact: format version, dataset, exact
/// scale bits, seed. Two processes agree on the key iff they would
/// build bit-identical graphs.
pub fn artifact_key(dataset: Dataset, scale: f64, seed: u64) -> String {
    format!(
        "{CSR_FORMAT_VERSION}|{dataset}|scale={:016x}|seed={seed}",
        scale.to_bits()
    )
}

/// The artifact's file name inside the store directory (readable, and
/// in bijection with the key).
pub fn artifact_file_name(dataset: Dataset, scale: f64, seed: u64) -> String {
    format!("{dataset}-{:016x}-{seed}.csr", scale.to_bits())
}

/// How [`GraphStore::load_or_build`] satisfied a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactDisposition {
    /// Served zero-copy from an existing, digest-verified artifact.
    Hit,
    /// No artifact existed; built in memory and published.
    Built,
    /// An artifact existed but failed verification; it was quarantined
    /// and the graph was rebuilt and republished.
    Rebuilt,
}

impl ArtifactDisposition {
    /// Lower-case label for profiles and logs.
    pub fn label(self) -> &'static str {
        match self {
            ArtifactDisposition::Hit => "hit",
            ArtifactDisposition::Built => "built",
            ArtifactDisposition::Rebuilt => "rebuilt",
        }
    }
}

/// What one `load_or_build` did, for `run_one --profile`.
#[derive(Debug, Clone)]
pub struct GraphArtifactOutcome {
    /// The artifact key requested.
    pub key: String,
    /// Hit / built / rebuilt.
    pub disposition: ArtifactDisposition,
    /// Bytes served via mmap (0 when the graph was built in memory).
    pub bytes_mapped: u64,
    /// Wall time spent generating the graph (zero on a hit).
    pub build_wall: Duration,
    /// Wall time spent publishing the built graph — digest, write and
    /// fsync of the artifact (zero on a hit).
    pub publish_wall: Duration,
}

/// Process-wide counters, mirrored into `/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GraphArtifactStats {
    /// Digest-verified artifact loads.
    pub hits: u64,
    /// Requests that found no usable artifact (absent or corrupt).
    pub misses: u64,
    /// Graphs built in memory (each is also published best-effort).
    pub builds: u64,
    /// Corrupt artifact files quarantined.
    pub quarantined: u64,
}

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static BUILDS: AtomicU64 = AtomicU64::new(0);
static QUARANTINED: AtomicU64 = AtomicU64::new(0);

/// Current process-wide counters.
pub fn stats() -> GraphArtifactStats {
    GraphArtifactStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        builds: BUILDS.load(Ordering::Relaxed),
        quarantined: QUARANTINED.load(Ordering::Relaxed),
    }
}

thread_local! {
    static LAST: RefCell<Option<GraphArtifactOutcome>> = const { RefCell::new(None) };
}

/// Most recent outcome recorded by *any* thread (the memo serves later
/// requests without touching the store, so "last" here means the last
/// time a graph actually went through the artifact path).
static LAST_GLOBAL: Mutex<Option<GraphArtifactOutcome>> = Mutex::new(None);

/// The outcome of the most recent artifact request on this thread,
/// falling back to the most recent anywhere in the process (a profile
/// reader on the main thread usually wants the worker's outcome).
pub fn last_outcome() -> Option<GraphArtifactOutcome> {
    LAST.with(|l| l.borrow().clone()).or_else(|| {
        LAST_GLOBAL
            .lock()
            .expect("graph artifact outcome lock poisoned")
            .clone()
    })
}

fn record_outcome(outcome: &GraphArtifactOutcome) {
    LAST.with(|l| *l.borrow_mut() = Some(outcome.clone()));
    *LAST_GLOBAL
        .lock()
        .expect("graph artifact outcome lock poisoned") = Some(outcome.clone());
}

/// IO fault hook, installed by the layer that owns fault injection
/// (`scu-algos` wires it to the harness failpoint registry; `scu-graph`
/// cannot depend on `scu-harness`). Sites: `graph-artifact-load`,
/// `graph-artifact-store`.
pub type IoHook = fn(&str) -> io::Result<()>;

static HOOK: OnceLock<IoHook> = OnceLock::new();

/// Installs the fault hook. First caller wins; later calls are no-ops
/// (one process has one fault-injection registry).
pub fn install_io_hook(hook: IoHook) {
    let _ = HOOK.set(hook);
}

fn hook_io(site: &str) -> io::Result<()> {
    match HOOK.get() {
        Some(h) => h(site),
        None => Ok(()),
    }
}

/// The process-wide store slot. Library code consults it via
/// [`active`]; binaries mount a store at startup ([`install`]).
static STORE: Mutex<Option<Arc<GraphStore>>> = Mutex::new(None);

/// Mounts (`Some`) or unmounts (`None`) the process-wide store.
pub fn install(store: Option<Arc<GraphStore>>) {
    *STORE.lock().expect("graph store slot poisoned") = store;
}

/// The currently mounted store, if any.
pub fn active() -> Option<Arc<GraphStore>> {
    STORE.lock().expect("graph store slot poisoned").clone()
}

/// Incremental FNV-1a-64 over the bytes as they stream out, so
/// publishing never needs the whole file in memory. Must match
/// `scu_store::hash::fnv64` (pinned by a test below).
struct Fnv64(u64);

impl Fnv64 {
    fn new() -> Fnv64 {
        Fnv64(0xcbf29ce484222325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
}

fn align64(n: usize) -> usize {
    n.div_ceil(64) * 64
}

/// `align64` without the wrap: `None` when rounding up overflows.
fn align64_checked(n: usize) -> Option<usize> {
    n.checked_add(63).map(|v| v / 64 * 64)
}

enum LoadFailure {
    /// The file does not exist — a plain miss.
    Absent,
    /// The file (or the injected fault) could not be read; the bytes
    /// on disk may be fine, so no quarantine.
    Io(io::Error),
    /// The file exists but fails verification; quarantine it.
    Corrupt(String),
}

/// A directory of mmap'd CSR artifacts.
#[derive(Debug)]
pub struct GraphStore {
    dir: PathBuf,
    quarantine_cap: usize,
}

impl GraphStore {
    /// Opens (lazily — no IO until first use) a store rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> GraphStore {
        GraphStore {
            dir: dir.into(),
            quarantine_cap: quarantine::DEFAULT_QUARANTINE_CAP,
        }
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Where corrupt artifacts are kept for post-mortem.
    pub fn quarantine_dir(&self) -> PathBuf {
        self.dir.join("quarantine")
    }

    /// Serves the graph for `(dataset, scale, seed)`: zero-copy from a
    /// verified artifact when one exists, else by calling `build` and
    /// publishing the result for every later process. Corrupt
    /// artifacts are quarantined and rebuilt transparently — the only
    /// observable difference is time.
    ///
    /// # Errors
    ///
    /// Returns an error only when `build` itself fails (e.g. an
    /// out-of-range scale); store IO failures degrade to building.
    pub fn load_or_build(
        &self,
        dataset: Dataset,
        scale: f64,
        seed: u64,
        build: impl FnOnce() -> Result<Csr, String>,
    ) -> Result<Csr, String> {
        let key = artifact_key(dataset, scale, seed);
        let path = self.dir.join(artifact_file_name(dataset, scale, seed));
        let mut rebuilt = false;
        match self.try_load(&path, &key) {
            Ok((g, bytes_mapped)) => {
                HITS.fetch_add(1, Ordering::Relaxed);
                record_outcome(&GraphArtifactOutcome {
                    key,
                    disposition: ArtifactDisposition::Hit,
                    bytes_mapped,
                    build_wall: Duration::ZERO,
                    publish_wall: Duration::ZERO,
                });
                return Ok(g);
            }
            Err(LoadFailure::Absent) => {}
            Err(LoadFailure::Io(e)) => {
                // Transient or injected; the artifact may be intact, so
                // leave it in place and just build this time.
                eprintln!("[scu-graph] artifact load failed for {key}: {e}; building in memory");
            }
            Err(LoadFailure::Corrupt(reason)) => {
                QUARANTINED.fetch_add(1, Ordering::Relaxed);
                rebuilt = true;
                match quarantine::quarantine_move(&self.quarantine_dir(), &path, self.quarantine_cap)
                {
                    Ok(dest) => eprintln!(
                        "[scu-graph] quarantined corrupt artifact {} -> {} ({reason}); rebuilding",
                        path.display(),
                        dest.display()
                    ),
                    Err(e) => eprintln!(
                        "[scu-graph] corrupt artifact {} ({reason}); quarantine failed: {e}; rebuilding",
                        path.display()
                    ),
                }
            }
        }
        MISSES.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let g = build()?;
        let build_wall = start.elapsed();
        BUILDS.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        if let Err(e) = self.publish(&path, &key, &g) {
            eprintln!("[scu-graph] artifact publish failed for {key}: {e}; continuing unpublished");
        }
        let publish_wall = start.elapsed();
        record_outcome(&GraphArtifactOutcome {
            key,
            disposition: if rebuilt {
                ArtifactDisposition::Rebuilt
            } else {
                ArtifactDisposition::Built
            },
            bytes_mapped: 0,
            build_wall,
            publish_wall,
        });
        Ok(g)
    }

    fn try_load(&self, path: &Path, expected_key: &str) -> Result<(Csr, u64), LoadFailure> {
        hook_io("graph-artifact-load").map_err(LoadFailure::Io)?;
        let mut file = match File::open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Err(LoadFailure::Absent),
            Err(e) => return Err(LoadFailure::Io(e)),
        };
        let map = Arc::new(Mapped::of_file(&mut file).map_err(LoadFailure::Io)?);
        let bytes_mapped = map.len() as u64;
        let g = decode_artifact(&map, expected_key).map_err(LoadFailure::Corrupt)?;
        Ok((g, bytes_mapped))
    }

    /// Atomically publishes `g` under `path`: stream to a temp file in
    /// the same directory, then rename. Memory overhead is one small
    /// conversion buffer regardless of graph size.
    fn publish(&self, path: &Path, key: &str, g: &Csr) -> io::Result<()> {
        hook_io("graph-artifact-store")?;
        std::fs::create_dir_all(&self.dir)?;
        // Unique per publish, not just per process: `shared_graph`
        // deliberately builds outside its memo lock, so two threads
        // missing on the same key can publish concurrently — each must
        // stream into its own temp file or the renames race over a
        // torn interleaving.
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let tmp = path.with_extension(format!(
            "tmp{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let result = (|| -> io::Result<()> {
            let file = File::create(&tmp)?;
            let mut w = DigestWriter {
                inner: BufWriter::new(file),
                digest: Fnv64::new(),
                written: 0,
            };
            write_artifact(&mut w, key, g)?;
            let digest = w.digest.0;
            w.inner.write_all(&digest.to_le_bytes())?;
            w.inner.flush()?;
            w.inner.get_ref().sync_all()?;
            Ok(())
        })();
        match result {
            Ok(()) => std::fs::rename(&tmp, path),
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                Err(e)
            }
        }
    }
}

struct DigestWriter {
    inner: BufWriter<File>,
    digest: Fnv64,
    written: usize,
}

impl DigestWriter {
    fn put(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.digest.update(bytes);
        self.written += bytes.len();
        self.inner.write_all(bytes)
    }

    fn pad_to(&mut self, offset: usize) -> io::Result<()> {
        debug_assert!(offset >= self.written);
        const ZEROS: [u8; 64] = [0; 64];
        let mut gap = offset - self.written;
        while gap > 0 {
            let n = gap.min(ZEROS.len());
            self.put(&ZEROS[..n])?;
            gap -= n;
        }
        Ok(())
    }

    fn put_words(&mut self, words: &[u32]) -> io::Result<()> {
        // Convert in bounded chunks so a 500 MB section never needs a
        // 500 MB staging buffer.
        let mut buf = [0u8; 16 * 1024];
        for chunk in words.chunks(buf.len() / 4) {
            for (i, w) in chunk.iter().enumerate() {
                buf[i * 4..i * 4 + 4].copy_from_slice(&w.to_le_bytes());
            }
            self.put(&buf[..chunk.len() * 4])?;
        }
        Ok(())
    }
}

/// The byte layout described in the module docs, minus the trailing
/// digest (the caller appends it — publishing streams it incrementally,
/// tests compute it over the buffer).
fn write_artifact(w: &mut DigestWriter, key: &str, g: &Csr) -> io::Result<()> {
    let layout = Layout::of(key.len(), g.num_nodes(), g.num_edges());
    w.put(MAGIC)?;
    w.put(&(key.len() as u32).to_le_bytes())?;
    w.put(key.as_bytes())?;
    w.pad_to(layout.header)?;
    for v in [
        g.num_nodes() as u64,
        g.num_edges() as u64,
        layout.row_offsets as u64,
        (g.num_nodes() + 1) as u64,
        layout.edges as u64,
        g.num_edges() as u64,
        layout.weights as u64,
        g.num_edges() as u64,
    ] {
        w.put(&v.to_le_bytes())?;
    }
    w.pad_to(layout.row_offsets)?;
    w.put_words(g.row_offsets())?;
    w.pad_to(layout.edges)?;
    w.put_words(g.edges())?;
    w.pad_to(layout.weights)?;
    w.put_words(g.weights())?;
    Ok(())
}

/// Section byte offsets for a graph of the given shape.
struct Layout {
    header: usize,
    row_offsets: usize,
    edges: usize,
    weights: usize,
    total_with_digest: usize,
}

impl Layout {
    /// Layout for a graph we built ourselves: counts come from real
    /// in-memory vectors, so the arithmetic cannot overflow.
    fn of(key_len: usize, num_nodes: usize, num_edges: usize) -> Layout {
        Layout::checked_of(key_len, num_nodes, num_edges)
            .expect("layout arithmetic overflows for an in-memory graph")
    }

    /// Layout from *untrusted* header counts. Every multiply and add
    /// is checked; `None` means the counts are absurd (the decoder
    /// maps it to `Corrupt`). This is load-bearing for the "adversarial
    /// files error instead of panicking" property: the digest is
    /// unkeyed FNV-1a, so a forged file can carry a valid digest over
    /// huge counts, and wrapped offsets must not reach `Words::mapped`.
    fn checked_of(key_len: usize, num_nodes: usize, num_edges: usize) -> Option<Layout> {
        let node_words = num_nodes.checked_add(1)?;
        let header = align64_checked(MAGIC.len().checked_add(4)?.checked_add(key_len)?)?;
        let row_offsets = header.checked_add(HEADER_WORDS * 8)?;
        let edges = align64_checked(row_offsets.checked_add(node_words.checked_mul(4)?)?)?;
        let edge_bytes = num_edges.checked_mul(4)?;
        let weights = align64_checked(edges.checked_add(edge_bytes)?)?;
        Some(Layout {
            header,
            row_offsets,
            edges,
            weights,
            total_with_digest: weights.checked_add(edge_bytes)?.checked_add(DIGEST_LEN)?,
        })
    }
}

/// Verifies and decodes an artifact image into a zero-copy [`Csr`].
/// Every failure mode — truncation, bit flips anywhere, a foreign or
/// stale key — is a clean `Err`, never a panic: the digest covers the
/// whole file, and the header fields are bounds-checked before any
/// slice is taken.
///
/// # Errors
///
/// Returns a human-readable reason; callers quarantine and rebuild.
pub fn decode_artifact(map: &Arc<Mapped>, expected_key: &str) -> Result<Csr, String> {
    let bytes: &[u8] = map;
    if bytes.len() < MAGIC.len() + 4 + DIGEST_LEN {
        return Err(format!("file too short ({} bytes)", bytes.len()));
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err("bad magic".into());
    }
    let body = &bytes[..bytes.len() - DIGEST_LEN];
    let stored = u64::from_le_bytes(
        bytes[bytes.len() - DIGEST_LEN..]
            .try_into()
            .expect("digest is 8 bytes"),
    );
    if scu_store::hash::fnv64(body) != stored {
        return Err("digest mismatch".into());
    }
    let key_len = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")) as usize;
    let key = body
        .get(12..12 + key_len)
        .ok_or_else(|| "key extends past file".to_string())?;
    if key != expected_key.as_bytes() {
        return Err(format!(
            "key mismatch: file has {:?}, wanted {expected_key:?}",
            String::from_utf8_lossy(key)
        ));
    }
    let header = align64(12 + key_len);
    let h = body
        .get(header..header + HEADER_WORDS * 8)
        .ok_or_else(|| "header extends past file".to_string())?;
    let word = |i: usize| u64::from_le_bytes(h[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
    // The digest is unkeyed FNV-1a, so a forged file can pair valid
    // checksums with absurd counts: bound them (CSR indices are u32,
    // so any real graph fits) and do the layout arithmetic checked —
    // overflow is corruption, not a panic.
    let num_nodes = word(0);
    let num_edges = word(1);
    if num_nodes >= u64::from(u32::MAX) || num_edges >= u64::from(u32::MAX) {
        return Err(format!(
            "header counts out of range (nodes {num_nodes}, edges {num_edges})"
        ));
    }
    let (num_nodes, num_edges) = (num_nodes as usize, num_edges as usize);
    let layout = Layout::checked_of(key_len, num_nodes, num_edges)
        .ok_or_else(|| "layout arithmetic overflows".to_string())?;
    if layout.total_with_digest != bytes.len() {
        return Err(format!(
            "size mismatch: layout wants {} bytes, file has {}",
            layout.total_with_digest,
            bytes.len()
        ));
    }
    let expect = [
        (
            word(2) as usize,
            word(3) as usize,
            layout.row_offsets,
            num_nodes + 1,
        ),
        (word(4) as usize, word(5) as usize, layout.edges, num_edges),
        (
            word(6) as usize,
            word(7) as usize,
            layout.weights,
            num_edges,
        ),
    ];
    for (got_off, got_len, want_off, want_len) in expect {
        if got_off != want_off || got_len != want_len {
            return Err("header section table disagrees with layout".into());
        }
    }
    let csr = Csr::from_trusted_words(
        Words::mapped(map, layout.row_offsets, num_nodes + 1),
        Words::mapped(map, layout.edges, num_edges),
        Words::mapped(map, layout.weights, num_edges),
    )
    .map_err(|e| e.to_string())?;
    Ok(csr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("scu-graph-artifact-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample() -> Csr {
        from_edges([(0, 2, 5), (2, 1, 1), (1, 0, 3), (0, 1, 9)])
    }

    #[test]
    fn incremental_fnv_matches_store_fnv64() {
        let payload = b"the digests must agree or every artifact is corrupt".repeat(7);
        let mut f = Fnv64::new();
        f.update(&payload[..13]);
        f.update(&payload[13..]);
        assert_eq!(f.0, scu_store::hash::fnv64(&payload));
    }

    #[test]
    fn round_trip_through_file_is_byte_identical() {
        let dir = scratch("round");
        let store = GraphStore::new(&dir);
        let built = store
            .load_or_build(Dataset::Cond, 0.25, 9, || Ok(sample()))
            .unwrap();
        assert_eq!(built, sample());
        assert!(!built.is_mapped(), "first call builds in memory");
        // Second store instance (fresh process stand-in) maps the file.
        let store2 = GraphStore::new(&dir);
        let loaded = store2
            .load_or_build(Dataset::Cond, 0.25, 9, || {
                panic!("must not rebuild on a warm artifact")
            })
            .unwrap();
        assert_eq!(loaded, sample());
        assert!(loaded.is_mapped() || cfg!(not(target_endian = "little")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_artifact_is_quarantined_and_rebuilt() {
        let dir = scratch("corrupt");
        let store = GraphStore::new(&dir);
        store
            .load_or_build(Dataset::Kron, 0.5, 3, || Ok(sample()))
            .unwrap();
        let path = dir.join(artifact_file_name(Dataset::Kron, 0.5, 3));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let before = stats();
        let g = store
            .load_or_build(Dataset::Kron, 0.5, 3, || Ok(sample()))
            .unwrap();
        assert_eq!(g, sample());
        let after = stats();
        assert_eq!(after.quarantined, before.quarantined + 1);
        assert_eq!(quarantine::retained(&store.quarantine_dir()), 1);
        let rebuilt = last_outcome().unwrap();
        assert_eq!(rebuilt.disposition, ArtifactDisposition::Rebuilt);
        // Writing and fsyncing the file takes measurable time.
        assert!(rebuilt.publish_wall > Duration::ZERO);
        // The rebuild republished a good artifact.
        let again = store
            .load_or_build(Dataset::Kron, 0.5, 3, || panic!("republished, no rebuild"))
            .unwrap();
        assert_eq!(again, sample());
        assert_eq!(last_outcome().unwrap().publish_wall, Duration::ZERO);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Rewrites the header's node/edge counts and re-stamps a *valid*
    /// trailing digest — the forgery the fuzz suite cannot reach,
    /// because random corruption always breaks the digest first.
    fn forge_counts(path: &Path, num_nodes: u64, num_edges: u64) -> Vec<u8> {
        let mut bytes = std::fs::read(path).unwrap();
        let key_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        let header = align64(12 + key_len);
        bytes[header..header + 8].copy_from_slice(&num_nodes.to_le_bytes());
        bytes[header + 8..header + 16].copy_from_slice(&num_edges.to_le_bytes());
        let digest_at = bytes.len() - DIGEST_LEN;
        let digest = scu_store::hash::fnv64(&bytes[..digest_at]);
        bytes[digest_at..].copy_from_slice(&digest.to_le_bytes());
        bytes
    }

    #[test]
    fn forged_counts_with_valid_digest_error_cleanly() {
        let dir = scratch("forge");
        let store = GraphStore::new(&dir);
        store
            .load_or_build(Dataset::Kron, 0.5, 8, || Ok(sample()))
            .unwrap();
        let path = dir.join(artifact_file_name(Dataset::Kron, 0.5, 8));
        let key = artifact_key(Dataset::Kron, 0.5, 8);
        for (nodes, edges) in [
            (u64::MAX, 4),                // (num_nodes + 1) * 4 would wrap
            (3, u64::MAX),                // num_edges * 4 would wrap
            (u64::MAX / 4, u64::MAX / 4), // section sums would wrap
            (u64::from(u32::MAX), 4),     // just past the u32 index bound
            (3, u64::from(u32::MAX)),
        ] {
            let forged = forge_counts(&path, nodes, edges);
            let map = Arc::new(Mapped::from_bytes(forged));
            let err = decode_artifact(&map, &key).unwrap_err();
            assert!(
                err.contains("out of range") || err.contains("overflow"),
                "nodes {nodes} edges {edges}: {err}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_format_version_misses_by_key() {
        let dir = scratch("stale");
        let store = GraphStore::new(&dir);
        store
            .load_or_build(Dataset::Ca, 1.0, 1, || Ok(sample()))
            .unwrap();
        let path = dir.join(artifact_file_name(Dataset::Ca, 1.0, 1));
        let mapped = Arc::new(Mapped::from_bytes(std::fs::read(&path).unwrap()));
        let err = decode_artifact(&mapped, "scu-csr-0|ca|scale=deadbeef|seed=1").unwrap_err();
        assert!(err.contains("key mismatch"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncations_fail_clean() {
        let dir = scratch("trunc");
        let store = GraphStore::new(&dir);
        store
            .load_or_build(Dataset::Msdoor, 1.0, 2, || Ok(sample()))
            .unwrap();
        let path = dir.join(artifact_file_name(Dataset::Msdoor, 1.0, 2));
        let bytes = std::fs::read(&path).unwrap();
        let key = artifact_key(Dataset::Msdoor, 1.0, 2);
        for cut in [0, 1, 7, 8, 12, bytes.len() / 2, bytes.len() - 1] {
            let mapped = Arc::new(Mapped::from_bytes(bytes[..cut].to_vec()));
            assert!(decode_artifact(&mapped, &key).is_err(), "cut at {cut}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn io_hook_failure_builds_without_quarantining() {
        let dir = scratch("hook");
        let store = GraphStore::new(&dir);
        store
            .load_or_build(Dataset::Human, 1.0, 4, || Ok(sample()))
            .unwrap();
        // Simulate a load fault by asking for a path we cannot read:
        // the hook seam itself is process-global (OnceLock), so the
        // unit test exercises the Io arm via try_load on a directory.
        let bad = store.try_load(&dir, &artifact_key(Dataset::Human, 1.0, 4));
        assert!(matches!(
            bad,
            Err(LoadFailure::Io(_) | LoadFailure::Corrupt(_))
        ));
        // The real artifact is still intact and loads.
        let g = store
            .load_or_build(Dataset::Human, 1.0, 4, || panic!("artifact intact"))
            .unwrap();
        assert_eq!(g, sample());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn keys_and_names_distinguish_every_axis() {
        let base = artifact_key(Dataset::Kron, 1.0, 1);
        assert_ne!(base, artifact_key(Dataset::Ca, 1.0, 1));
        assert_ne!(base, artifact_key(Dataset::Kron, 0.5, 1));
        assert_ne!(base, artifact_key(Dataset::Kron, 1.0, 2));
        assert!(base.starts_with(CSR_FORMAT_VERSION));
        let name = artifact_file_name(Dataset::Kron, 1.0, 1);
        assert_ne!(name, artifact_file_name(Dataset::Kron, 1.0, 2));
    }

    #[test]
    fn install_slot_round_trips() {
        // Serialise against other tests that may also poke the slot.
        let dir = scratch("slot");
        let store = Arc::new(GraphStore::new(&dir));
        install(Some(Arc::clone(&store)));
        assert!(active().is_some());
        install(None);
        assert!(active().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
