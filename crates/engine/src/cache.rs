//! The content-addressed, sharded summary cache.
//!
//! Entries are keyed by a [`SummaryKey`]: a stable hash covering everything
//! a function's summary can depend on — its own MIR content hash, the keys
//! of its callees (transitively, by construction), the content hashes of
//! its recursion partners, and a fingerprint of the analysis parameters.
//! Two functions with the same key are guaranteed to have the same summary,
//! so a hit can skip the analysis entirely; any edit to a function changes
//! its own key and (through the key recurrence) the keys of every
//! transitive caller, invalidating exactly the dirty subgraph.
//!
//! # Sharding
//!
//! The cache is split into [`SHARD_COUNT`] shards by **key prefix** (the top
//! four bits of the key — the first hex digit of its rendered form). Each
//! shard has its own lock, so the engine's work-stealing workers insert
//! fresh summaries concurrently without funneling through one mutex, and
//! its own persistence file, so concurrent engine processes sharing one
//! cache path replace sixteenths of the store atomically and independently.
//! Persistence is *last-writer-wins per shard* — a save writes this
//! process's entries, it does not merge with what is on disk (on-disk
//! merging would resurrect evicted entries forever); shards that are empty
//! and never held an entry in this process are skipped, so a cold engine
//! never wipes shards a sibling process populated. Content-addressed keys
//! make any interleaving of whole-shard files safe: a loader sees some
//! writer's complete, valid entry set per shard, never a torn mix.
//!
//! # Disk format
//!
//! Persistence is line-oriented text. For a configured cache path
//! `dir/summaries.cache`, version 3 writes one file per shard named
//! `dir/summaries.<shard>.cache`, each starting with the header
//! `flowistry-engine-cache v3` followed by
//! `<key> <boundary> <summary> crc:<8-hex>` lines (key as 16 hex digits,
//! boundary as `0`/`1`, summary in the [`FunctionSummary::encode`] codec,
//! crc32 over the line's payload), in sorted key order so output is
//! reproducible, and closed by a `footer records:<n> crc:<8-hex>` line
//! whose checksum covers every record line — so truncation at a record
//! boundary is detected, not just torn lines. A file with any other header
//! (including the retired v1 and v2 formats) loads cold: its keyspace is
//! recomputed and rewritten as v3 on the next save.
//!
//! A v3 shard that fails verification is **quarantined, not dropped**:
//! the file is renamed to `summaries.<shard>.corrupt` (preserving the
//! evidence for inspection), the valid record prefix is salvaged into the
//! cache, and only the records at or after the corruption are recomputed
//! cold — a torn write costs the torn tail, never the whole shard, and
//! never a wrong result. Orphaned `.tmp` files (a writer that died
//! between create and rename) are swept on load.
//!
//! Every write goes through a uniquely named temp file in the destination
//! directory (process id + per-process sequence number) followed by an
//! atomic rename, so two engines persisting to the same path concurrently
//! cannot observe or produce a torn file: each shard file is always,
//! atomically, one writer's complete output. Failpoints
//! ([`flowistry_fault::sites::CACHE_SHARD_READ`] /
//! [`flowistry_fault::sites::CACHE_SHARD_WRITE`]) cover both directions:
//! an injected read fault degrades that shard to cold, an injected
//! `partial_write` models the crashed writer the quarantine machinery
//! exists for.

use flowistry_core::{CachedSummary, FunctionSummary};
use flowistry_fault::{sites, Fault};
use std::collections::HashMap;
use std::io::{self, BufRead, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// The cache key of one function's summary under one parameterization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SummaryKey(pub u64);

impl std::fmt::Display for SummaryKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Number of cache shards. A power of two; the shard of a key is its top
/// four bits, i.e. the first hex digit of `SummaryKey`'s display form.
pub const SHARD_COUNT: usize = 16;

const HEADER_V3: &str = "flowistry-engine-cache v3";

/// CRC-32 (IEEE) lookup table, built at compile time.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// Feeds `bytes` into a running CRC-32 state (seed with `!0`, finish by
/// inverting) — the footer checksum accumulates record lines this way.
fn crc32_update(mut state: u32, bytes: &[u8]) -> u32 {
    for &byte in bytes {
        state = (state >> 8) ^ CRC32_TABLE[((state ^ byte as u32) & 0xFF) as usize];
    }
    state
}

/// CRC-32 (IEEE) of `bytes`, as `cksum`/zlib would compute it.
fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(!0, bytes)
}

/// Sequence number making concurrent temp files unique within one process;
/// the process id distinguishes processes.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// One cached summary plus the last generation that used it.
#[derive(Debug, Clone)]
struct Entry {
    value: CachedSummary,
    last_seen: u64,
}

/// A sharded map from [`SummaryKey`] to cached summaries, with optional
/// disk persistence and generation-based eviction.
///
/// All read/write methods take `&self`: each shard is behind its own lock,
/// so scheduler workers on different threads look up and insert entries
/// concurrently (see the module docs for the sharding scheme).
///
/// Content-addressed keys never repeat across program versions, so without
/// eviction an edit-reanalyze loop would grow the cache with every stale
/// version forever. The engine marks the keys each run actually used
/// ([`SummaryCache::touch`]) and then closes the run with
/// [`SummaryCache::end_generation`], which drops entries that have not been
/// used for `max_age` runs — recently flipped-between program versions stay
/// warm, ancient ones are reclaimed.
#[derive(Debug)]
pub struct SummaryCache {
    shards: Vec<Mutex<HashMap<SummaryKey, Entry>>>,
    /// Per shard: whether this process ever held entries in it — set by
    /// [`SummaryCache::load`] for shards loaded non-empty and by
    /// [`SummaryCache::insert`]. A shard that is empty *and* never held
    /// anything has nothing to persist — [`SummaryCache::save`] leaves its
    /// file untouched, so a cold engine (fresh cache, or one whose load
    /// degraded to empty on a corrupt header) pointed at a shared cache
    /// directory cannot wipe shards a sibling process populated. A shard
    /// that *did* hold entries is always written, even when empty now:
    /// that is how evictions reach disk.
    ever_nonempty: Vec<AtomicBool>,
    generation: AtomicU64,
    /// What recovery work [`SummaryCache::load`] had to do (quarantines,
    /// salvages, temp sweeps) — all zero for a clean load.
    quarantined_shards: AtomicU64,
    salvaged_records: AtomicU64,
    swept_temp_files: AtomicU64,
}

/// Recovery work a [`SummaryCache::load`] performed: how many shard files
/// failed verification and were quarantined, how many records were
/// salvaged out of their valid prefixes, and how many orphaned temp files
/// (writers that died between create and rename) were swept.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadStats {
    /// Shard files renamed to `summaries.<shard>.corrupt`.
    pub quarantined_shards: u64,
    /// Records recovered from the valid prefixes of quarantined shards.
    pub salvaged_records: u64,
    /// Orphaned `.tmp` files removed from the cache directory.
    pub swept_temp_files: u64,
}

impl Default for SummaryCache {
    fn default() -> Self {
        SummaryCache {
            shards: (0..SHARD_COUNT)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            ever_nonempty: (0..SHARD_COUNT).map(|_| AtomicBool::new(false)).collect(),
            generation: AtomicU64::new(0),
            quarantined_shards: AtomicU64::new(0),
            salvaged_records: AtomicU64::new(0),
            swept_temp_files: AtomicU64::new(0),
        }
    }
}

/// Index of the shard holding `key`.
fn shard_of(key: SummaryKey) -> usize {
    (key.0 >> 60) as usize & (SHARD_COUNT - 1)
}

impl SummaryCache {
    /// An empty cache.
    pub fn new() -> Self {
        SummaryCache::default()
    }

    fn shard(&self, key: SummaryKey) -> std::sync::MutexGuard<'_, HashMap<SummaryKey, Entry>> {
        self.shards[shard_of(key)].lock().expect("cache shard lock")
    }

    /// Number of cached summaries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard lock").len())
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up a summary by key. Returns an owned copy: references cannot
    /// escape the shard lock.
    pub fn get(&self, key: SummaryKey) -> Option<CachedSummary> {
        self.shard(key).get(&key).map(|e| e.value.clone())
    }

    /// Stores a summary under `key`, marking it used in this generation.
    pub fn insert(&self, key: SummaryKey, entry: CachedSummary) {
        let last_seen = self.generation.load(Ordering::Relaxed);
        // This shard now has (or had) entries this process owns: if they
        // are all evicted later, the next save must still write the shard
        // so the eviction reaches disk.
        self.ever_nonempty[shard_of(key)].store(true, Ordering::Relaxed);
        self.shard(key).insert(
            key,
            Entry {
                value: entry,
                last_seen,
            },
        );
    }

    /// Marks `keys` as used in the current generation.
    pub fn touch(&self, keys: impl IntoIterator<Item = SummaryKey>) {
        let generation = self.generation.load(Ordering::Relaxed);
        for key in keys {
            if let Some(entry) = self.shard(key).get_mut(&key) {
                entry.last_seen = generation;
            }
        }
    }

    /// Closes one engine run: advances the generation and evicts every
    /// entry that has not been touched for more than `max_age` runs.
    /// Returns how many entries were evicted.
    pub fn end_generation(&self, max_age: u64) -> usize {
        let generation = self.generation.fetch_add(1, Ordering::Relaxed) + 1;
        let cutoff = generation.saturating_sub(max_age);
        let mut evicted = 0usize;
        for shard in &self.shards {
            let mut guard = shard.lock().expect("cache shard lock");
            let before = guard.len();
            guard.retain(|_, e| e.last_seen >= cutoff);
            evicted += before - guard.len();
        }
        evicted
    }

    /// Drops every entry.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().expect("cache shard lock").clear();
        }
    }

    /// The persistence file of shard `shard` for the configured cache path
    /// `base`: `summaries.cache` → `summaries.<shard>.cache` (a base path
    /// without an extension gets `.<shard>` appended).
    pub fn shard_file(base: &Path, shard: usize) -> PathBuf {
        match (base.file_stem(), base.extension()) {
            (Some(stem), Some(ext)) => base.with_file_name(format!(
                "{}.{shard}.{}",
                stem.to_string_lossy(),
                ext.to_string_lossy()
            )),
            _ => {
                let name = base
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_default();
                base.with_file_name(format!("{name}.{shard}"))
            }
        }
    }

    /// Loads a cache previously written by [`SummaryCache::save`] under the
    /// configured path `base`: every `v3` shard file. Missing files yield
    /// an empty cache; files with any other header are treated as cold. A `v3` shard that fails checksum or footer verification is
    /// quarantined to `summaries.<shard>.corrupt` with its valid record
    /// prefix salvaged into the cache (see [`SummaryCache::load_stats`]),
    /// and orphaned `.tmp` files from crashed writers are swept.
    pub fn load(base: &Path) -> io::Result<SummaryCache> {
        let cache = SummaryCache::new();
        cache.sweep_orphan_temps(base);
        for shard in 0..SHARD_COUNT {
            cache.load_shard_file(&SummaryCache::shard_file(base, shard))?;
        }
        // Record which shards the disk actually had entries for: save() only
        // rewrites a shard that held entries at some point (see the field
        // docs on `ever_nonempty`).
        for (index, shard) in cache.shards.iter().enumerate() {
            if !shard.lock().expect("cache shard lock").is_empty() {
                cache.ever_nonempty[index].store(true, Ordering::Relaxed);
            }
        }
        Ok(cache)
    }

    /// The recovery work the [`SummaryCache::load`] that built this cache
    /// performed; all zeros for a clean load (or a cache never loaded).
    pub fn load_stats(&self) -> LoadStats {
        LoadStats {
            quarantined_shards: self.quarantined_shards.load(Ordering::Relaxed),
            salvaged_records: self.salvaged_records.load(Ordering::Relaxed),
            swept_temp_files: self.swept_temp_files.load(Ordering::Relaxed),
        }
    }

    /// Removes orphaned temp files left in `base`'s directory by writers
    /// that died between `create` and `rename`. Only files that extend one
    /// of this cache's own file names with the `.{pid}.{seq}.tmp` suffix
    /// pattern are touched — an unrelated `.tmp` in the directory is not
    /// ours to delete. Runs at load (engine startup), when no save of ours
    /// can be in flight.
    fn sweep_orphan_temps(&self, base: &Path) {
        let Some(dir) = base.parent() else { return };
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        let prefixes: Vec<String> = (0..SHARD_COUNT)
            .filter_map(|s| {
                let file = SummaryCache::shard_file(base, s);
                Some(format!("{}.", file.file_name()?.to_string_lossy()))
            })
            .collect();
        for entry in entries.filter_map(|e| e.ok()) {
            let name = entry.file_name().to_string_lossy().into_owned();
            if !name.ends_with(".tmp") {
                continue;
            }
            if prefixes.iter().any(|p| name.starts_with(p.as_str()))
                && std::fs::remove_file(entry.path()).is_ok()
            {
                self.swept_temp_files.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Merges one `v3` shard file into the cache, with checksum
    /// verification and quarantine-on-corruption. Entries land in the
    /// shard their key hashes to regardless of which file carried them, so
    /// a layout change can never misplace an entry.
    fn load_shard_file(&self, path: &Path) -> io::Result<()> {
        match flowistry_fault::check(sites::CACHE_SHARD_READ) {
            Fault::None | Fault::PartialWrite(_) => {}
            Fault::Delay(d) => std::thread::sleep(d),
            Fault::Err => {
                // An unreadable shard degrades to cold for that sixteenth
                // of the keyspace; it must not fail the whole load.
                eprintln!(
                    "flowistry-engine: injected read fault, skipping {}",
                    path.display()
                );
                return Ok(());
            }
            Fault::Panic => panic!("failpoint {}: injected panic", sites::CACHE_SHARD_READ),
        }
        let file = match std::fs::File::open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(e),
        };
        let mut lines = io::BufReader::new(file).lines();
        match lines.next() {
            Some(Ok(header)) if header == HEADER_V3 => {
                if let Err((salvaged, reason)) = self.load_v3_records(lines) {
                    self.quarantine(path, salvaged, &reason);
                }
            }
            // Unknown version or unreadable header: treat as cold.
            _ => {}
        }
        Ok(())
    }

    /// Parses the record body of a v3 shard file, inserting every record
    /// that verifies. Returns `Err((salvaged, reason))` at the first
    /// verification failure — `salvaged` records were inserted before it
    /// (the valid prefix); the caller quarantines the file.
    fn load_v3_records(
        &self,
        lines: impl Iterator<Item = io::Result<String>>,
    ) -> Result<(), (u64, String)> {
        let mut body_crc = !0u32;
        let mut records = 0u64;
        let mut saw_footer = false;
        let fail = |records: u64, reason: String| Err((records, reason));
        for line in lines {
            let line = match line {
                Ok(line) => line,
                Err(e) => return fail(records, format!("read error: {e}")),
            };
            if saw_footer {
                return fail(records, "data after footer".to_string());
            }
            if let Some(rest) = line.strip_prefix("footer ") {
                let Some((count, crc)) = parse_footer(rest) else {
                    return fail(records, "malformed footer".to_string());
                };
                if count != records {
                    return fail(
                        records,
                        format!("footer records {count} != {records} on disk"),
                    );
                }
                if crc != !body_crc {
                    return fail(
                        records,
                        "footer checksum mismatch (truncated shard?)".to_string(),
                    );
                }
                saw_footer = true;
                continue;
            }
            let Some((payload, stated)) = line.rsplit_once(" crc:") else {
                return fail(records, format!("record {records}: missing checksum"));
            };
            let Ok(stated) = u32::from_str_radix(stated, 16) else {
                return fail(records, format!("record {records}: malformed checksum"));
            };
            if crc32(payload.as_bytes()) != stated {
                return fail(records, format!("record {records}: checksum mismatch"));
            }
            let Some((key, value)) = parse_line(payload) else {
                return fail(
                    records,
                    format!("record {records}: checksum ok but unparseable"),
                );
            };
            body_crc = crc32_update(body_crc, line.as_bytes());
            body_crc = crc32_update(body_crc, b"\n");
            records += 1;
            self.insert_loaded(key, value);
        }
        if !saw_footer {
            return fail(records, "missing footer (truncated shard?)".to_string());
        }
        Ok(())
    }

    /// Inserts an entry read from disk (generation 0, shard by key).
    fn insert_loaded(&self, key: SummaryKey, value: CachedSummary) {
        self.shard(key).insert(
            key,
            Entry {
                value,
                last_seen: 0,
            },
        );
    }

    /// Quarantines a shard file that failed verification: renames it to
    /// `summaries.<shard>.corrupt` so the evidence survives for inspection
    /// and the next save starts from a clean path. The salvaged prefix is
    /// already in memory; only the torn tail will recompute cold.
    fn quarantine(&self, path: &Path, salvaged: u64, reason: &str) {
        let target = quarantine_path(path);
        eprintln!(
            "flowistry-engine: cache shard {} corrupt ({reason}); \
             quarantining to {} with {salvaged} records salvaged",
            path.display(),
            target.display()
        );
        if std::fs::rename(path, &target).is_err() {
            // Rename failed (exotic fs?) — remove instead: a shard known
            // corrupt must not be re-read as truth on the next load.
            let _ = std::fs::remove_file(path);
        }
        self.quarantined_shards.fetch_add(1, Ordering::Relaxed);
        self.salvaged_records.fetch_add(salvaged, Ordering::Relaxed);
    }

    /// Writes the cache under the configured path `base`: one file per
    /// shard (see the module docs for naming and format), each produced
    /// atomically via a uniquely named sibling temp file, in sorted key
    /// order so the output is reproducible. Nothing is written at `base`
    /// itself.
    ///
    /// Shards that are empty *and* never held an entry in this process are
    /// skipped entirely: persistence is last-writer-wins per shard, so a
    /// cold engine writing its (empty) view of a shard it never touched
    /// would wipe entries a sibling process persisted there. A shard that
    /// ever held entries (loaded non-empty, or inserted into) is always
    /// written, even when empty now — that is how this process's evictions
    /// reach disk.
    ///
    /// Returns how many entries were written across all shard files.
    pub fn save(&self, base: &Path) -> io::Result<usize> {
        let mut written = 0usize;
        for (index, shard) in self.shards.iter().enumerate() {
            let guard = shard.lock().expect("cache shard lock");
            if guard.is_empty() && !self.ever_nonempty[index].load(Ordering::Relaxed) {
                continue;
            }
            let path = SummaryCache::shard_file(base, index);

            // Serialize the whole shard first: the checksummed v3 format
            // needs the byte-exact body for its footer, and the
            // `partial_write` failpoint below needs a buffer to tear.
            let mut body = String::new();
            let mut keys: Vec<&SummaryKey> = guard.keys().collect();
            keys.sort();
            for key in &keys {
                let entry = &guard[*key].value;
                let payload = format!(
                    "{key} {} {}",
                    if entry.hit_boundary { 1 } else { 0 },
                    entry.summary.encode()
                );
                body.push_str(&payload);
                body.push_str(&format!(" crc:{:08x}\n", crc32(payload.as_bytes())));
            }
            let footer = format!(
                "footer records:{} crc:{:08x}\n",
                keys.len(),
                crc32(body.as_bytes())
            );
            let bytes = format!("{HEADER_V3}\n{body}{footer}");

            match flowistry_fault::check(sites::CACHE_SHARD_WRITE) {
                Fault::None => {}
                Fault::Delay(d) => std::thread::sleep(d),
                Fault::Err => {
                    return Err(flowistry_fault::injected_error(sites::CACHE_SHARD_WRITE))
                }
                Fault::Panic => {
                    panic!("failpoint {}: injected panic", sites::CACHE_SHARD_WRITE)
                }
                Fault::PartialWrite(frac) => {
                    // Model a writer that crashed mid-write on a
                    // journal-less filesystem: a truncated shard at the
                    // final path, plus the orphaned temp file the crash
                    // left behind. Report success, as the dead writer
                    // never could have reported anything.
                    let cut = (bytes.len() as f64 * frac) as usize;
                    let tmp = unique_temp_path(&path);
                    let _ = std::fs::write(&tmp, bytes.as_bytes());
                    std::fs::write(&path, &bytes.as_bytes()[..cut])?;
                    written += keys.len();
                    continue;
                }
            }

            let tmp = unique_temp_path(&path);
            {
                let mut out = io::BufWriter::new(std::fs::File::create(&tmp)?);
                out.write_all(bytes.as_bytes())?;
                out.flush()?;
            }
            written += keys.len();
            if let Err(e) = std::fs::rename(&tmp, &path) {
                let _ = std::fs::remove_file(&tmp);
                return Err(e);
            }
        }
        Ok(written)
    }
}

/// Parses the `<key> <boundary> <summary>` payload of a v3 record.
/// Returns `None` for malformed payloads.
fn parse_line(line: &str) -> Option<(SummaryKey, CachedSummary)> {
    let mut parts = line.splitn(3, ' ');
    let (key, boundary, body) = (parts.next()?, parts.next()?, parts.next()?);
    let key = u64::from_str_radix(key, 16).ok()?;
    let hit_boundary = match boundary {
        "0" => false,
        "1" => true,
        _ => return None,
    };
    let summary = FunctionSummary::decode(body)?;
    Some((
        SummaryKey(key),
        CachedSummary {
            summary: std::sync::Arc::new(summary),
            hit_boundary,
        },
    ))
}

/// Parses the payload of a v3 `footer records:<n> crc:<8-hex>` line.
fn parse_footer(rest: &str) -> Option<(u64, u32)> {
    let (records, crc) = rest.split_once(' ')?;
    let records = records.strip_prefix("records:")?.parse().ok()?;
    let crc = u32::from_str_radix(crc.strip_prefix("crc:")?, 16).ok()?;
    Some((records, crc))
}

/// Where a corrupt shard file is quarantined:
/// `summaries.<shard>.cache` → `summaries.<shard>.corrupt`.
fn quarantine_path(path: &Path) -> PathBuf {
    path.with_extension("corrupt")
}

/// A temp-file path in `path`'s directory that no concurrent writer (in
/// this or any other process) will pick: final name + process id + a
/// per-process sequence number. A fixed temp name would let two engines
/// sharing one cache path clobber each other's in-flight writes.
fn unique_temp_path(path: &Path) -> PathBuf {
    let seq = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".{}.{seq}.tmp", std::process::id()));
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowistry_core::SummaryMutation;
    use flowistry_lang::mir::{Local, PlaceElem};
    use std::collections::BTreeSet;

    fn sample_entry() -> CachedSummary {
        CachedSummary {
            summary: std::sync::Arc::new(FunctionSummary {
                mutations: vec![SummaryMutation {
                    param: Local(1),
                    projection: vec![PlaceElem::Deref, PlaceElem::Field(2)],
                    sources: [Local(2), Local(3)].into_iter().collect(),
                }],
                return_sources: [Local(1)].into_iter().collect(),
            }),
            hit_boundary: true,
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "flowistry-cache-{tag}-{}-{}",
            std::process::id(),
            TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn summary_codec_roundtrips() {
        let entry = sample_entry();
        let encoded = entry.summary.encode();
        assert_eq!(
            FunctionSummary::decode(&encoded).map(std::sync::Arc::new),
            Some(entry.summary)
        );
        // Inert summary too.
        let inert = FunctionSummary::default();
        assert_eq!(FunctionSummary::decode(&inert.encode()), Some(inert));
        // Sources-free mutation.
        let bare = FunctionSummary {
            mutations: vec![SummaryMutation {
                param: Local(1),
                projection: vec![PlaceElem::Deref],
                sources: BTreeSet::new(),
            }],
            return_sources: BTreeSet::new(),
        };
        assert_eq!(FunctionSummary::decode(&bare.encode()), Some(bare));
    }

    #[test]
    fn decode_rejects_malformed_text() {
        assert_eq!(FunctionSummary::decode(""), None);
        assert_eq!(FunctionSummary::decode("nonsense"), None);
        assert_eq!(FunctionSummary::decode("mut:1:*:"), None, "missing ret");
        assert_eq!(FunctionSummary::decode("ret:xyz"), None);
        assert_eq!(FunctionSummary::decode("ret:1;mut:1:q:2"), None);
        assert_eq!(FunctionSummary::decode("ret:;ret:"), None);
    }

    #[test]
    fn save_and_load_roundtrip_across_shards() {
        let dir = temp_dir("roundtrip");
        let path = dir.join("summaries.cache");

        let cache = SummaryCache::new();
        // Keys with different top nibbles land in different shards.
        cache.insert(SummaryKey(0xDEAD), sample_entry());
        cache.insert(SummaryKey(0xF000_0000_0000_0000), sample_entry());
        cache.insert(
            SummaryKey(0xBEEF),
            CachedSummary {
                summary: std::sync::Arc::default(),
                hit_boundary: false,
            },
        );
        cache.save(&path).unwrap();

        // The sharded layout, not a single file.
        assert!(!path.exists(), "nothing may be written at the base path");
        assert!(SummaryCache::shard_file(&path, 0).exists());
        assert_eq!(
            SummaryCache::shard_file(&path, 3).file_name().unwrap(),
            "summaries.3.cache"
        );
        assert!(SummaryCache::shard_file(&path, 15).exists());

        let loaded = SummaryCache::load(&path).unwrap();
        assert_eq!(loaded.len(), 3);
        assert_eq!(loaded.get(SummaryKey(0xDEAD)), Some(sample_entry()));
        assert_eq!(
            loaded.get(SummaryKey(0xF000_0000_0000_0000)),
            Some(sample_entry())
        );
        assert!(!loaded.get(SummaryKey(0xBEEF)).unwrap().hit_boundary);

        // No temp files may linger after a successful save.
        let stray: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(stray.is_empty(), "leftover temp files: {stray:?}");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The retired v1 (single file at the base path) and v2 (unchecksummed
    /// shard) formats load cold — no quarantine, no panic — and the next
    /// save writes v3 without touching the old base file.
    #[test]
    fn retired_formats_load_cold_and_the_next_save_writes_v3() {
        let dir = temp_dir("retired");
        let path = dir.join("summaries.cache");
        let entry = sample_entry();
        let v1 = format!(
            "flowistry-engine-cache v1\n{} 1 {}\n",
            SummaryKey(0xDEAD),
            entry.summary.encode()
        );
        std::fs::write(&path, &v1).unwrap();
        let shard0 = SummaryCache::shard_file(&path, 0);
        std::fs::write(
            &shard0,
            "flowistry-engine-cache v2\n00000000000000aa 0 ret:1\n",
        )
        .unwrap();

        let cache = SummaryCache::load(&path).unwrap();
        assert!(cache.is_empty());
        assert_eq!(cache.load_stats(), LoadStats::default());

        cache.insert(SummaryKey(0xBB), entry);
        cache.save(&path).unwrap();
        let written = std::fs::read_to_string(&shard0).unwrap();
        assert!(written.starts_with(&format!("{HEADER_V3}\n")), "{written}");
        let reloaded = SummaryCache::load(&path).unwrap();
        assert_eq!(reloaded.len(), 1);
        assert!(reloaded.get(SummaryKey(0xBB)).is_some());
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            v1,
            "a save deleted or rewrote the file at the base path"
        );

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_never_deletes_an_unrelated_file_at_the_base_path() {
        let dir = temp_dir("unrelated");
        let path = dir.join("summaries.cache");
        std::fs::write(&path, "precious user data, not a cache\n").unwrap();
        let cache = SummaryCache::new();
        cache.insert(SummaryKey(1), sample_entry());
        cache.save(&path).unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "precious user data, not a cache\n"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_saves_to_one_path_never_corrupt_the_store() {
        let dir = temp_dir("concurrent");
        let path = dir.join("summaries.cache");

        // Two "engines" with disjoint entries racing saves of every shard.
        let mk = |tag: u64| {
            let cache = SummaryCache::new();
            for i in 0..64u64 {
                // Spread across all shards via the top nibble.
                cache.insert(SummaryKey((i << 60) | (i * 7 + tag)), sample_entry());
            }
            cache
        };
        let a = mk(1_000);
        let b = mk(2_000);
        std::thread::scope(|s| {
            let ta = s.spawn(|| {
                for _ in 0..20 {
                    a.save(&path).unwrap();
                }
            });
            let tb = s.spawn(|| {
                for _ in 0..20 {
                    b.save(&path).unwrap();
                }
            });
            ta.join().unwrap();
            tb.join().unwrap();
        });

        // Every shard file is one writer's complete, parseable output: the
        // load sees exactly one writer's entry set per shard, with values
        // intact — no torn lines, no mixed writes, no leftover temp files.
        let loaded = SummaryCache::load(&path).unwrap();
        assert_eq!(loaded.len(), 64, "each shard holds one full writer set");
        for i in 0..64u64 {
            let ka = SummaryKey((i << 60) | (i * 7 + 1_000));
            let kb = SummaryKey((i << 60) | (i * 7 + 2_000));
            let got_a = loaded.get(ka).is_some();
            let got_b = loaded.get(kb).is_some();
            assert!(
                got_a ^ got_b,
                "shard {} must hold exactly one writer's entries",
                shard_of(ka)
            );
        }
        let stray: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(stray.is_empty(), "leftover temp files: {stray:?}");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Regression: a cold engine (fresh cache) saving to a shared cache
    /// directory must not wipe shards another process populated — only the
    /// shards it actually has entries for are rewritten.
    #[test]
    fn cold_save_leaves_a_warm_siblings_shards_intact() {
        let dir = temp_dir("coldsave");
        let path = dir.join("summaries.cache");

        // The "warm sibling": entries in shards 0 and 15.
        let warm = SummaryCache::new();
        warm.insert(SummaryKey(0x0000_0000_0000_00AA), sample_entry());
        warm.insert(SummaryKey(0xF000_0000_0000_00BB), sample_entry());
        warm.save(&path).unwrap();

        // A cold engine with one fresh entry in shard 3 saves to the same
        // path: shard 3 appears, shards 0 and 15 survive untouched.
        let cold = SummaryCache::new();
        cold.insert(SummaryKey(0x3000_0000_0000_00CC), sample_entry());
        cold.save(&path).unwrap();

        let loaded = SummaryCache::load(&path).unwrap();
        assert_eq!(loaded.len(), 3, "cold save wiped a warm shard");
        assert!(loaded.get(SummaryKey(0x0000_0000_0000_00AA)).is_some());
        assert!(loaded.get(SummaryKey(0xF000_0000_0000_00BB)).is_some());
        assert!(loaded.get(SummaryKey(0x3000_0000_0000_00CC)).is_some());

        // An engine whose load degraded to empty (corrupt shard headers)
        // behaves like a cold one: saving writes nothing and wipes nothing.
        let other = temp_dir("coldsave-corrupt");
        let corrupt = other.join("summaries.cache");
        std::fs::write(
            SummaryCache::shard_file(&corrupt, 0),
            "some-other-format v9\ngarbage\n",
        )
        .unwrap();
        let degraded = SummaryCache::load(&corrupt).unwrap();
        assert!(degraded.is_empty());
        degraded.save(&path).unwrap();
        let still = SummaryCache::load(&path).unwrap();
        assert_eq!(still.len(), 3, "degraded-to-empty save wiped a shard");

        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&other).unwrap();
    }

    /// The flip side of skipping cold empty shards: a shard that ever held
    /// entries and then emptied (eviction) must still be rewritten, or
    /// evictions would never reach disk. Covers both ways a shard becomes
    /// "warm": loaded non-empty from disk, and populated by this process's
    /// own inserts.
    #[test]
    fn emptied_warm_shards_still_persist_their_eviction() {
        let dir = temp_dir("evictsave");
        let path = dir.join("summaries.cache");

        let warm = SummaryCache::new();
        warm.insert(SummaryKey(0x0000_0000_0000_00AA), sample_entry());
        warm.save(&path).unwrap();

        // Load-then-evict: the reloaded cache saw shard 0 non-empty.
        let reloaded = SummaryCache::load(&path).unwrap();
        assert_eq!(reloaded.len(), 1);
        reloaded.clear();
        reloaded.save(&path).unwrap();

        let after = SummaryCache::load(&path).unwrap();
        assert!(after.is_empty(), "eviction did not persist");

        // Insert-then-evict in one process lifetime (never loaded): the
        // stale on-disk entries must not survive the eviction either.
        let own = SummaryCache::new();
        own.insert(SummaryKey(0x0000_0000_0000_00AA), sample_entry());
        own.save(&path).unwrap();
        assert_eq!(SummaryCache::load(&path).unwrap().len(), 1);
        own.clear();
        own.save(&path).unwrap();
        let after = SummaryCache::load(&path).unwrap();
        assert!(after.is_empty(), "own-insert eviction did not persist");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn generations_evict_untouched_entries() {
        let cache = SummaryCache::new();
        cache.insert(SummaryKey(1), sample_entry());
        cache.insert(SummaryKey(2), sample_entry());
        // Keep key 1 alive every run; let key 2 go idle.
        for _ in 0..3 {
            cache.touch([SummaryKey(1)]);
            cache.end_generation(2);
        }
        assert!(cache.get(SummaryKey(1)).is_some());
        assert!(cache.get(SummaryKey(2)).is_none(), "idle entry survived");
        assert_eq!(cache.len(), 1);
        // Touching a missing key is a no-op, and clear empties everything.
        cache.touch([SummaryKey(99)]);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn missing_files_load_as_empty() {
        let cache = SummaryCache::load(Path::new("/nonexistent/path/xyz.cache")).unwrap();
        assert!(cache.is_empty());
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn wrong_header_loads_as_empty() {
        let dir = temp_dir("header");
        let path = dir.join("summaries.cache");
        std::fs::write(&path, "some-other-format v9\ngarbage\n").unwrap();
        // A v1-style header in a *shard* file is also rejected: shard files
        // must carry the v3 header.
        std::fs::write(
            SummaryCache::shard_file(&path, 0),
            "flowistry-engine-cache v1\n0000000000000001 0 ret:\n",
        )
        .unwrap();
        let cache = SummaryCache::load(&path).unwrap();
        assert!(cache.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Builds a v3 shard file holding `n` entries in shard 0 and returns
    /// (dir, base path, shard-0 file path, the keys written).
    fn v3_shard_with(n: u64, tag: &str) -> (PathBuf, PathBuf, PathBuf, Vec<SummaryKey>) {
        let dir = temp_dir(tag);
        let path = dir.join("summaries.cache");
        let cache = SummaryCache::new();
        let keys: Vec<SummaryKey> = (0..n).map(|i| SummaryKey(0x100 + i)).collect();
        for key in &keys {
            cache.insert(*key, sample_entry());
        }
        cache.save(&path).unwrap();
        let shard0 = SummaryCache::shard_file(&path, 0);
        assert!(shard0.exists());
        (dir, path, shard0, keys)
    }

    /// Bit-flipping any record of a v3 shard quarantines the file and
    /// salvages exactly the records before the flip — never a wrong
    /// entry, never a silently cold cache.
    #[test]
    fn v3_bit_flip_at_every_record_quarantines_and_salvages_the_prefix() {
        const N: u64 = 5;
        for victim in 0..N {
            let (dir, path, shard0, keys) = v3_shard_with(N, "bitflip");
            let mut bytes = std::fs::read(&shard0).unwrap();
            // Find the victim record's line and flip one payload bit.
            let text = String::from_utf8(bytes.clone()).unwrap();
            let offset: usize = text
                .lines()
                .take(1 + victim as usize) // header + preceding records
                .map(|l| l.len() + 1)
                .sum();
            bytes[offset + 2] ^= 0x01;
            std::fs::write(&shard0, &bytes).unwrap();

            let loaded = SummaryCache::load(&path).unwrap();
            let stats = loaded.load_stats();
            assert_eq!(stats.quarantined_shards, 1, "victim {victim}");
            assert_eq!(stats.salvaged_records, victim, "victim {victim}");
            assert_eq!(loaded.len() as u64, victim);
            for (i, key) in keys.iter().enumerate() {
                assert_eq!(
                    loaded.get(*key).is_some(),
                    (i as u64) < victim,
                    "victim {victim}, key {i}"
                );
            }
            // The evidence moved aside; the hot path is clean.
            assert!(!shard0.exists());
            assert!(quarantine_path(&shard0).exists());
            // A reload after quarantine is clean: salvage happened once.
            let again = SummaryCache::load(&path).unwrap();
            assert_eq!(again.load_stats(), LoadStats::default());
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// Truncating a v3 shard at any record boundary (a torn write that
    /// happens to end on a full line, which per-line checksums alone
    /// cannot catch) is detected by the footer and salvaged.
    #[test]
    fn v3_truncation_at_every_record_boundary_is_detected_by_the_footer() {
        const N: u64 = 5;
        for keep in 0..=N {
            let (dir, path, shard0, keys) = v3_shard_with(N, "truncate");
            let text = std::fs::read_to_string(&shard0).unwrap();
            let offset: usize = text
                .lines()
                .take(1 + keep as usize)
                .map(|l| l.len() + 1)
                .sum();
            std::fs::write(&shard0, &text.as_bytes()[..offset]).unwrap();

            let loaded = SummaryCache::load(&path).unwrap();
            let stats = loaded.load_stats();
            assert_eq!(stats.quarantined_shards, 1, "keep {keep}");
            assert_eq!(stats.salvaged_records, keep, "keep {keep}");
            assert_eq!(loaded.len() as u64, keep);
            for (i, key) in keys.iter().enumerate() {
                assert_eq!(loaded.get(*key).is_some(), (i as u64) < keep, "keep {keep}");
            }
            assert!(quarantine_path(&shard0).exists());
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// Mid-line truncation (the common torn write) is caught by the
    /// record checksum itself.
    #[test]
    fn v3_mid_line_truncation_is_caught_by_the_record_checksum() {
        let (dir, path, shard0, _) = v3_shard_with(3, "midline");
        let text = std::fs::read_to_string(&shard0).unwrap();
        let second_record_end: usize = text.lines().take(3).map(|l| l.len() + 1).sum();
        std::fs::write(&shard0, &text.as_bytes()[..second_record_end - 7]).unwrap();
        let loaded = SummaryCache::load(&path).unwrap();
        assert_eq!(loaded.load_stats().quarantined_shards, 1);
        assert_eq!(loaded.load_stats().salvaged_records, 1);
        assert_eq!(loaded.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Orphaned temp files from a crashed writer are swept on load;
    /// unrelated `.tmp` files in the same directory are left alone.
    #[test]
    fn orphaned_temp_files_are_swept_on_load() {
        let (dir, path, shard0, keys) = v3_shard_with(2, "orphans");
        let orphan_a = unique_temp_path(&shard0);
        let orphan_b = unique_temp_path(&SummaryCache::shard_file(&path, 7));
        std::fs::write(&orphan_a, "torn half-written shard").unwrap();
        std::fs::write(&orphan_b, "").unwrap();
        let unrelated = dir.join("keep-me.tmp");
        std::fs::write(&unrelated, "not ours").unwrap();

        let loaded = SummaryCache::load(&path).unwrap();
        assert_eq!(loaded.load_stats().swept_temp_files, 2);
        assert_eq!(loaded.load_stats().quarantined_shards, 0);
        assert!(!orphan_a.exists() && !orphan_b.exists());
        assert!(unrelated.exists(), "swept a temp file that is not ours");
        assert_eq!(loaded.len(), keys.len());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crc32_matches_the_ieee_reference_vector() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn shard_file_naming_handles_extensionless_paths() {
        assert_eq!(
            SummaryCache::shard_file(Path::new("/x/summaries.cache"), 7),
            Path::new("/x/summaries.7.cache")
        );
        assert_eq!(
            SummaryCache::shard_file(Path::new("/x/summaries"), 7),
            Path::new("/x/summaries.7")
        );
    }

    #[test]
    fn keys_spread_over_every_shard_by_prefix() {
        let mut seen = BTreeSet::new();
        for i in 0..16u64 {
            seen.insert(shard_of(SummaryKey(i << 60)));
        }
        assert_eq!(seen.len(), SHARD_COUNT);
        assert_eq!(shard_of(SummaryKey(0xDEAD)), 0);
        assert_eq!(shard_of(SummaryKey(0xF000_0000_0000_0000)), 15);
    }
}
