//! Multi-host sharding coordinator for campaigns.
//!
//! A campaign's operating points are already content-hashed
//! ([`super::hash::point_key`]) and its chunks are self-describing store
//! records, so distributing a grid across hosts needs no broker: every
//! host runs the *same* binary over the *same* full point list with
//! `--shard i/n`, and a point belongs to the shard its stable key hashes
//! into ([`ShardSpec::owns`]). Each shard writes suffixed store/manifest
//! files (`<name>.shard-i-of-n.{jsonl|seg,manifest.json}`) that never
//! collide, and [`merge`] folds any complete shard set back into the
//! files a single-host run would have produced — **byte-identical
//! manifest included**, which is what CI asserts on every push. The
//! store backend behind each leg is detected from which store file
//! exists, so the admin entry points work unchanged over JSONL and
//! indexed-segment campaigns.
//!
//! Determinism is inherited, not re-proven: a packet's RNG stream
//! depends only on its absolute position in the seed tree (see
//! [`crate::engine`]), so which host simulates a point cannot change its
//! statistics, and the controller's stopping decisions are pure
//! functions of those statistics. The coordinator's only job is
//! bookkeeping — partition, gather, dedup, re-order.
//!
//! The admin entry points ([`merge`], [`gc`], [`verify`], [`stats`]) are
//! plain functions over a `(name, directory)` pair; the `campaign-admin`
//! binary in the `bench` crate is a thin argv wrapper around them.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::str::FromStr;

use hspa_phy::harq::HarqStats;

use super::manifest::{Manifest, ManifestTotals, PointRecord};
use super::store::{self, BackendKind, ChunkId, QueryFilter};

/// The shard a process owns, out of `count` total — parsed from
/// `--shard index/count`. The default `0/1` means "unsharded".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShardSpec {
    /// Zero-based shard index (`< count`).
    pub index: u32,
    /// Total shard count (`>= 1`).
    pub count: u32,
}

impl ShardSpec {
    /// The unsharded (single-host) spec, `0/1`.
    pub fn single() -> Self {
        Self { index: 0, count: 1 }
    }

    /// Builds a spec, validating `count >= 1` and `index < count`.
    ///
    /// Fallible on purpose: the dispatcher constructs specs in a loop
    /// from flag values, and a bad combination there must surface as an
    /// error message, not a panic with a backtrace. The `FromStr` impl
    /// (the `--shard i/n` parser) routes its range check through here so
    /// both entries reject with the same message.
    pub fn new(index: u32, count: u32) -> Result<Self, String> {
        if count == 0 || index >= count {
            return Err(format!(
                "expected shard INDEX/COUNT with INDEX < COUNT, got '{index}/{count}'"
            ));
        }
        Ok(Self { index, count })
    }

    /// Whether this spec actually splits the point set.
    pub fn is_sharded(&self) -> bool {
        self.count > 1
    }

    /// Whether this shard owns the point with the given stable key.
    /// Ownership is a pure function of `(key, count)` — every host
    /// partitions identically without coordination.
    pub fn owns(&self, key: u64) -> bool {
        key % u64::from(self.count.max(1)) == u64::from(self.index)
    }

    /// The file-stem suffix of this shard's store/manifest (empty when
    /// unsharded, so single-host paths are unchanged).
    pub fn suffix(&self) -> String {
        if self.count > 1 {
            format!(".shard-{}-of-{}", self.index, self.count)
        } else {
            String::new()
        }
    }
}

impl Default for ShardSpec {
    fn default() -> Self {
        Self::single()
    }
}

impl fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

impl FromStr for ShardSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || format!("expected --shard INDEX/COUNT with INDEX < COUNT, got '{s}'");
        let (i, n) = s.split_once('/').ok_or_else(err)?;
        let index: u32 = i.trim().parse().map_err(|_| err())?;
        let count: u32 = n.trim().parse().map_err(|_| err())?;
        Self::new(index, count).map_err(|_| err())
    }
}

/// Store file name of a campaign under a shard spec and backend (the
/// extension names the backend: `.jsonl` or `.seg`).
pub fn store_file(name: &str, shard: ShardSpec, backend: BackendKind) -> String {
    format!("{name}{}.{}", shard.suffix(), backend.extension())
}

/// Resolves which backend's store file backs `(name, shard)` in `dir`
/// by probing the candidate file names — the admin tooling's entry, so
/// `merge`/`gc`/`verify`/`stats` work unchanged over campaigns run with
/// either `--store-backend`. Exactly one candidate may exist: both at
/// once is ambiguous (a backend switch without cleanup) and neither is
/// a missing store.
pub fn detect_store_file(
    name: &str,
    dir: &Path,
    shard: ShardSpec,
) -> io::Result<(PathBuf, BackendKind)> {
    let jsonl = dir.join(store_file(name, shard, BackendKind::Jsonl));
    let seg = dir.join(store_file(name, shard, BackendKind::Indexed));
    match (jsonl.exists(), seg.exists()) {
        (true, false) => Ok((jsonl, BackendKind::Jsonl)),
        (false, true) => Ok((seg, BackendKind::Indexed)),
        (true, true) => Err(invalid(format!(
            "both {} and {} exist — campaign '{name}' was run with more than one \
             --store-backend; `campaign-admin export` the live one and delete the other",
            jsonl.display(),
            seg.display(),
        ))),
        (false, false) => Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!(
                "no result store for campaign '{name}' (shard {shard}) in {}: neither {} nor {}",
                dir.display(),
                jsonl.display(),
                seg.display(),
            ),
        )),
    }
}

/// Manifest file name of a campaign under a shard spec.
pub fn manifest_file(name: &str, shard: ShardSpec) -> String {
    format!("{name}{}.manifest.json", shard.suffix())
}

/// Live telemetry snapshot file name of a campaign under a shard spec
/// (see [`crate::telemetry::LiveSnapshot`]). Written atomically by the
/// running leg; read by the dispatcher's heartbeat probe and by
/// `campaign-admin top`.
pub fn telemetry_file(name: &str, shard: ShardSpec) -> String {
    format!("{name}{}.telemetry.json", shard.suffix())
}

/// Telemetry event-log (JSONL) file name of a campaign under a shard
/// spec.
pub fn events_file(name: &str, shard: ShardSpec) -> String {
    format!("{name}{}.telemetry.jsonl", shard.suffix())
}

/// Prometheus-style text snapshot file name of a campaign under a
/// shard spec.
pub fn prom_file(name: &str, shard: ShardSpec) -> String {
    format!("{name}{}.prom", shard.suffix())
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// The shard spec encoded in a manifest file name
/// (`<name>.shard-I-of-N.manifest.json`), or `None` for unsuffixed /
/// foreign file names.
fn filename_shard_spec(name: &str, path: &Path) -> Option<ShardSpec> {
    let stem = path.file_name()?.to_str()?.strip_suffix(".manifest.json")?;
    artifact_stem_spec(name, stem)
}

/// The shard spec encoded in **any** shard artifact file name of
/// `name` — store (`<name>.shard-I-of-N.jsonl` / `.seg`, plus the
/// segment backend's `.seg.idx` sidecar) or manifest
/// (`<name>.shard-I-of-N.manifest.json`). The dispatcher's pre-flight
/// scans with this: a killed leg typically leaves only its store (the
/// manifest is written at run end), and a stale-family store alone is
/// enough to sabotage a re-dispatch at a different leg count.
pub fn artifact_shard_spec(name: &str, file_name: &str) -> Option<ShardSpec> {
    let stem = file_name
        .strip_suffix(".manifest.json")
        .or_else(|| file_name.strip_suffix(".jsonl"))
        .or_else(|| file_name.strip_suffix(".seg.idx"))
        .or_else(|| file_name.strip_suffix(".seg"))?;
    artifact_stem_spec(name, stem)
}

/// Parses `<name>.shard-I-of-N` (a file name with its extension
/// already stripped) into the shard spec.
fn artifact_stem_spec(name: &str, stem: &str) -> Option<ShardSpec> {
    let (i, n) = stem
        .strip_prefix(&format!("{name}.shard-"))?
        .split_once("-of-")?;
    ShardSpec::new(i.parse().ok()?, n.parse().ok()?).ok()
}

/// Outcome of a [`merge`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeReport {
    /// Shard manifests merged.
    pub shards: usize,
    /// Points in the merged manifest.
    pub points: usize,
    /// Chunk records in the merged store.
    pub chunks: usize,
    /// Duplicate chunk records dropped (same point key + packet range
    /// simulated by more than one shard or appended twice).
    pub duplicate_chunks: usize,
    /// Malformed store lines skipped (torn tails of killed runs).
    pub malformed_lines: usize,
    /// Chunk executions the shard legs served from their stores —
    /// recorded here because the merged manifest normalizes this
    /// provenance away (see [`merge_manifests`]).
    pub store_served_chunks: u64,
    /// Packet-weighted view of `store_served_chunks`: packets the shard
    /// legs served from their stores instead of re-simulating —
    /// normalized away from the merged manifest for the same reason.
    pub store_served_packets: u64,
    /// Path of the merged store.
    pub store_path: PathBuf,
    /// Path of the merged manifest.
    pub manifest_path: PathBuf,
    /// Global point indices absent from the merge (first 64). Empty
    /// except for a partial merge
    /// ([`merge_manifests_allowing_partial`]) of an abandoned dispatch.
    pub missing_points: Vec<u64>,
    /// Total count of missing points (the list above is capped).
    pub missing_points_total: u64,
}

/// Discovers the shard manifests of `name` in `dir`
/// (`<name>.shard-*-of-*.manifest.json`) with their filename specs,
/// sorted by shard index.
///
/// A directory holding manifests of **different `of-N` families** (e.g.
/// `.shard-0-of-2` next to `.shard-1-of-3`, left over from a run at a
/// different shard count) is an error, not a merge candidate: the families partition the
/// point set differently, so any subset spanning both describes a
/// nonsense partition. The error tells the operator which families
/// collided so they can delete the stale one.
pub fn discover_shard_specs(name: &str, dir: &Path) -> io::Result<Vec<(ShardSpec, PathBuf)>> {
    let mut found: Vec<(ShardSpec, PathBuf)> = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let file_name = entry.file_name();
        let Some(stem) = file_name
            .to_str()
            .and_then(|f| f.strip_suffix(".manifest.json"))
        else {
            continue;
        };
        // Only a valid shard spec counts as a shard file —
        // anything else is an unrelated file that happens to share the
        // `<name>.shard-` prefix.
        let Some(spec) = artifact_stem_spec(name, stem) else {
            continue;
        };
        found.push((spec, entry.path()));
    }
    let families: BTreeSet<u32> = found.iter().map(|(s, _)| s.count).collect();
    if families.len() > 1 {
        return Err(invalid(format!(
            "mixed shard families for campaign '{name}' in {}: found manifests of {} — \
             stale leftovers of a run at another shard count; delete every family but the live one \
             (or merge each family from its own directory)",
            dir.display(),
            families
                .iter()
                .map(|n| format!("of-{n}"))
                .collect::<Vec<_>>()
                .join(" and "),
        )));
    }
    found.sort_by_key(|(s, _)| *s);
    Ok(found)
}

/// The shard manifest paths of `name` in `dir`, sorted by shard index —
/// [`discover_shard_specs`] without the filename specs.
pub fn discover_shards(name: &str, dir: &Path) -> io::Result<Vec<PathBuf>> {
    Ok(discover_shard_specs(name, dir)?
        .into_iter()
        .map(|(_, p)| p)
        .collect())
}

/// Merges a complete set of shard runs back into the single-host files.
///
/// Reads the given shard manifests (plus their sibling `.jsonl` stores),
/// validates that they form one consistent, complete partition — same
/// campaign, same settings, same enumeration count, disjoint indices
/// covering every point — then writes `<out_dir>/<name>.manifest.json`
/// and `<out_dir>/<name>.jsonl`. The merged manifest is byte-identical
/// to the one an unsharded run at the same settings would write; the
/// merged store holds the same chunk set (deduplicated, in canonical
/// `(key, range)` order — a single-host store lists the identical
/// records in execution order instead).
pub fn merge_manifests(
    name: &str,
    manifests: &[PathBuf],
    out_dir: &Path,
) -> io::Result<MergeReport> {
    merge_manifests_allowing_partial(name, manifests, out_dir, false)
}

/// [`merge_manifests`] with an escape hatch for abandoned dispatches:
/// with `allow_partial`, a shard set that misses points (because some
/// shard exhausted its attempt cap) still merges — the merged manifest
/// simply lists fewer points than it enumerates, and the report names
/// the missing global indices. Duplicate or out-of-range points are
/// **always** errors; only missing ones are forgiven. A partial merge
/// still passes [`verify`] (which checks the points that are listed),
/// so a degraded campaign's surviving results remain trustworthy.
pub fn merge_manifests_allowing_partial(
    name: &str,
    manifests: &[PathBuf],
    out_dir: &Path,
    allow_partial: bool,
) -> io::Result<MergeReport> {
    if manifests.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("no shard manifests for campaign '{name}'"),
        ));
    }
    let mut parsed: Vec<(PathBuf, Manifest)> = Vec::new();
    for path in manifests {
        let m = Manifest::read(path)?;
        // A renamed artifact (file says shard I-of-N, content says J/M)
        // would make the sibling-store lookup below read the wrong
        // `.jsonl`; refuse it before any statistics are touched.
        if let Some(file_spec) = filename_shard_spec(&m.name, path) {
            if file_spec != m.settings.shard {
                return Err(invalid(format!(
                    "{}: file is named shard {file_spec} but its manifest records \
                     shard {} — artifact was renamed or mixed up",
                    path.display(),
                    m.settings.shard
                )));
            }
        }
        parsed.push((path.clone(), m));
    }

    // Cross-shard consistency: one campaign, one settings block, one
    // index space.
    let count = parsed[0].1.settings.shard.count;
    let enumerated = parsed[0].1.points_enumerated;
    let reference = normalized_settings(&parsed[0].1);
    let mut seen_shards = BTreeSet::new();
    for (path, m) in &parsed {
        let at = path.display();
        if m.name != name {
            return Err(invalid(format!(
                "{at}: campaign '{}', expected '{name}'",
                m.name
            )));
        }
        // A `0/1` manifest is the degenerate one-shard partition: merge
        // accepts it and simply canonicalizes the files.
        if m.settings.shard.count != count {
            return Err(invalid(format!(
                "{at}: shard count {} != {count}",
                m.settings.shard.count
            )));
        }
        if !seen_shards.insert(m.settings.shard) {
            return Err(invalid(format!(
                "{at}: duplicate shard {}",
                m.settings.shard
            )));
        }
        if normalized_settings(m) != reference {
            return Err(invalid(format!(
                "{at}: controller settings differ between shards"
            )));
        }
        if m.points_enumerated != enumerated {
            return Err(invalid(format!(
                "{at}: enumerated {} points, expected {enumerated}",
                m.points_enumerated
            )));
        }
    }

    // Reassemble the global point order and prove completeness. The
    // expected index sequence is compared lazily — `points_enumerated`
    // comes from an untrusted file, so it must not size an allocation.
    let mut points: Vec<_> = parsed.iter().flat_map(|(_, m)| m.points.clone()).collect();
    points.sort_by_key(|p| p.index);
    // Normalize chunk provenance: how many chunks a leg served from its
    // own store is a per-run operational detail, and a rescue leg that
    // resumed a straggler's store (work stealing) would otherwise leave
    // resume counts a fresh single-host run cannot have. Zeroing them
    // keeps the merged manifest byte-identical to a single-host run no
    // matter the resume/steal history that produced the shards.
    let mut store_served_chunks = 0u64;
    let mut store_served_packets = 0u64;
    for p in &mut points {
        store_served_chunks += p.chunks_from_store as u64;
        store_served_packets += p.packets_from_store as u64;
        p.chunks_from_store = 0;
        p.packets_from_store = 0;
    }
    let mut missing_points: Vec<u64> = Vec::new();
    let mut missing_points_total = 0u64;
    if !points.iter().map(|p| p.index).eq(0..enumerated) {
        let have: BTreeSet<u64> = points.iter().map(|p| p.index).collect();
        // Duplicate indices (the same point recorded by two shards — a
        // broken partition, e.g. two manifests claiming one point) and
        // out-of-range indices are corruption regardless of
        // `allow_partial`; only *missing* points are forgivable.
        if points.len() != have.len() {
            return Err(invalid(format!(
                "shard set is not a disjoint partition: {} point records but only {} \
                 distinct indices — some point was recorded by more than one shard",
                points.len(),
                have.len(),
            )));
        }
        if let Some(&beyond) = have.range(enumerated..).next() {
            return Err(invalid(format!(
                "point index {beyond} is out of range: only {enumerated} points enumerated"
            )));
        }
        missing_points = (0..enumerated)
            .filter(|i| !have.contains(i))
            .take(64)
            .collect();
        missing_points_total = enumerated - have.len() as u64;
        if !allow_partial {
            let shown: Vec<u64> = missing_points.iter().copied().take(16).collect();
            return Err(invalid(format!(
                "shard set is not a complete partition: {} of {enumerated} points, \
                 missing indices {shown:?}{}",
                points.len(),
                if (shown.len() as u64) < missing_points_total {
                    ", …"
                } else {
                    ""
                },
            )));
        }
    }

    // Gather the stores, dropping exact-duplicate chunk records. Each
    // leg's backend is detected from which store file sits next to its
    // manifest (legs of one dispatch share a backend, but merge does
    // not insist on it); the merged store is written in the backend of
    // the first shard.
    let mut records: Vec<(ChunkId, HarqStats)> = Vec::new();
    let mut malformed_lines = 0;
    let mut merged_backend = BackendKind::default();
    for (i, (path, m)) in parsed.iter().enumerate() {
        let shard_dir = path.parent().unwrap_or(Path::new("."));
        let (store_path, kind) = detect_store_file(name, shard_dir, m.settings.shard)?;
        if i == 0 {
            merged_backend = kind;
        }
        let (recs, malformed) = store::load_all(&store_path)?;
        malformed_lines += malformed;
        records.extend(recs);
    }
    records.sort_by_key(|(id, _)| (id.point, id.first_packet, id.n_packets));
    let before = records.len();
    // determinism: unordered-ok(insert-only dedup filter over the already-sorted record list)
    let mut seen: HashSet<ChunkId> = HashSet::with_capacity(before);
    records.retain(|(id, _)| seen.insert(*id));
    let duplicate_chunks = before - records.len();

    let merged = Manifest {
        name: name.to_string(),
        settings: super::CampaignSettings {
            shard: ShardSpec::single(),
            ..parsed[0].1.settings
        },
        points_enumerated: enumerated,
        points,
    };
    fs::create_dir_all(out_dir)?;
    let store_path = out_dir.join(store_file(name, ShardSpec::single(), merged_backend));
    let manifest_path = out_dir.join(manifest_file(name, ShardSpec::single()));
    store::write_records(&store_path, &records)?;
    merged.write(&manifest_path)?;
    crate::telemetry::counter_add(crate::telemetry::Counter::MergesCompleted, 1);
    Ok(MergeReport {
        shards: parsed.len(),
        points: merged.points.len(),
        chunks: records.len(),
        duplicate_chunks,
        malformed_lines,
        store_served_chunks,
        store_served_packets,
        store_path,
        manifest_path,
        missing_points,
        missing_points_total,
    })
}

/// [`merge_manifests`] over every shard manifest of `name` found in
/// `in_dir` — the `campaign-admin merge` entry.
pub fn merge(name: &str, in_dir: &Path, out_dir: &Path) -> io::Result<MergeReport> {
    let manifests = discover_shards(name, in_dir)?;
    if manifests.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!(
                "no '{name}.shard-*-of-*.manifest.json' shard manifests in {}",
                in_dir.display()
            ),
        ));
    }
    merge_manifests(name, &manifests, out_dir)
}

/// The settings identity shards must agree on (everything except the
/// shard assignment itself; `resume` is not rendered into manifests).
fn normalized_settings(m: &Manifest) -> super::CampaignSettings {
    super::CampaignSettings {
        shard: ShardSpec::single(),
        resume: true,
        backend: BackendKind::default(),
        ..m.settings
    }
}

/// Outcome of a [`verify`] call.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct VerifyReport {
    /// Points listed in the manifest.
    pub points: usize,
    /// Of those, points whose realized packet range is fully covered by
    /// store chunks.
    pub covered_points: usize,
    /// Store records whose point key no manifest entry references.
    pub orphan_chunks: usize,
    /// Exact-duplicate store records.
    pub duplicate_chunks: usize,
    /// Store records that no consistent chunk cover uses (left over
    /// from a different schedule, or beyond the manifest's realized
    /// packet count).
    pub stale_chunks: usize,
    /// Unparseable store lines.
    pub malformed_lines: usize,
    /// Human-readable consistency violations; empty means the store can
    /// reproduce every manifest point.
    pub problems: Vec<String>,
}

impl VerifyReport {
    /// Whether the store is consistent with the manifest (orphan, stale
    /// and malformed records are GC fodder, not inconsistencies).
    pub fn ok(&self) -> bool {
        self.problems.is_empty()
    }
}

/// Checks that the result store of `(name, shard)` in `dir` can back its
/// manifest: every manifest point with realized packets must be covered
/// by store chunks that tile `0..packets` without gaps or overlaps.
pub fn verify(name: &str, dir: &Path, shard: ShardSpec) -> io::Result<VerifyReport> {
    verify_with(name, dir, shard, false)
}

/// [`verify`] with an optional **strict** pass that additionally checks
/// per-point store-provenance consistency — the invariants a rescued
/// merge must preserve: a point cannot have served more chunks (or
/// packets) from the store than it ran in total, and chunk
/// and packet provenance must agree on whether *any* resume happened
/// (every stored chunk carries at least one packet). Merged manifests
/// normalize provenance to zero, which trivially satisfies all three.
pub fn verify_with(
    name: &str,
    dir: &Path,
    shard: ShardSpec,
    strict: bool,
) -> io::Result<VerifyReport> {
    let manifest = Manifest::read(&dir.join(manifest_file(name, shard)))?;
    let (store_path, _) = detect_store_file(name, dir, shard)?;
    let (records, malformed_lines) = store::load_all(&store_path)?;
    let mut report = VerifyReport {
        points: manifest.points.len(),
        malformed_lines,
        ..Default::default()
    };

    // determinism: unordered-ok(keyed gets plus an order-insensitive sum over the stale-chunk tally)
    let mut by_key: HashMap<u64, Vec<(usize, usize)>> = HashMap::new();
    // determinism: unordered-ok(dedup membership plus an order-insensitive orphan count)
    let mut seen: HashSet<ChunkId> = HashSet::new();
    for (id, _) in &records {
        if !seen.insert(*id) {
            report.duplicate_chunks += 1;
            continue;
        }
        by_key
            .entry(id.point)
            .or_default()
            .push((id.first_packet, id.n_packets));
    }

    // Orphans are counted over the deduplicated record set (a repeated
    // orphan line is one orphan + one duplicate), so verify's tallies
    // agree with what gc would drop for the same store.
    // determinism: unordered-ok(membership test only)
    let live_keys: HashSet<u64> = manifest.points.iter().map(|p| p.key).collect();
    report.orphan_chunks = seen
        .iter()
        .filter(|id| !live_keys.contains(&id.point))
        .count();

    // `used` counts, per key, how many distinct chunks some point cover
    // consumed — the rest of that key's chunks are stale.
    // determinism: unordered-ok(keyed access only; per-key sets are ordered BTreeSets)
    let mut used: HashMap<u64, BTreeSet<(usize, usize)>> = HashMap::new();
    for point in &manifest.points {
        if point.packets == 0 {
            report.covered_points += 1;
            continue;
        }
        let chunks = by_key.get(&point.key).cloned().unwrap_or_default();
        match find_cover(&chunks, point.packets) {
            Some(cover) => {
                report.covered_points += 1;
                used.entry(point.key).or_default().extend(cover);
            }
            None => report.problems.push(format!(
                "point {} '{}' (key {:016x}): no chunk cover of 0..{} in the store \
                 ({} chunks present for this key)",
                point.index,
                point.label,
                point.key,
                point.packets,
                chunks.len(),
            )),
        }
    }
    for (key, chunks) in &by_key {
        if !live_keys.contains(key) {
            continue; // orphans already counted
        }
        let used_here = used.get(key).map_or(0, BTreeSet::len);
        report.stale_chunks += chunks.len() - used_here;
    }
    if strict {
        for p in &manifest.points {
            let at = format!("point {} '{}' (key {:016x})", p.index, p.label, p.key);
            if p.chunks_from_store > p.chunks {
                report.problems.push(format!(
                    "{at}: {} chunks served from store but only {} chunks ran",
                    p.chunks_from_store, p.chunks
                ));
            }
            if p.packets_from_store > p.packets {
                report.problems.push(format!(
                    "{at}: {} packets served from store but only {} packets realized",
                    p.packets_from_store, p.packets
                ));
            }
            if (p.chunks_from_store == 0) != (p.packets_from_store == 0) {
                report.problems.push(format!(
                    "{at}: store provenance disagrees — {} chunks but {} packets \
                     served from store (every stored chunk carries packets)",
                    p.chunks_from_store, p.packets_from_store
                ));
            }
        }
    }
    Ok(report)
}

/// Outcome of a [`gc`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct GcReport {
    /// Records kept (the canonical covering set, sorted by key/range).
    pub kept: usize,
    /// Records dropped because no manifest point references their key.
    pub dropped_orphans: usize,
    /// Exact-duplicate records dropped.
    pub dropped_duplicates: usize,
    /// Records of live keys that no chunk cover uses (abandoned
    /// schedules, packets beyond the manifest's realized count).
    pub dropped_stale: usize,
    /// Malformed (torn) lines dropped.
    pub dropped_malformed: usize,
    /// Corrupt records dropped (parseable lines whose stats violate the
    /// range invariants, e.g. `delivered > packets` — the ones the
    /// strict loaders refuse to read past).
    pub dropped_corrupt: usize,
}

/// Rewrites the store of `(name, shard)` in `dir` down to the canonical
/// covering set its manifest needs: orphaned keys, duplicate records,
/// stale chunks and torn lines are dropped; the surviving records are
/// written back sorted by `(key, range)`. The manifest is the source of
/// truth — chunks a *future deeper* run could have reused are removed
/// too, which is exactly the trade a GC is asked to make.
pub fn gc(name: &str, dir: &Path, shard: ShardSpec) -> io::Result<GcReport> {
    let manifest = Manifest::read(&dir.join(manifest_file(name, shard)))?;
    let (store_path, _) = detect_store_file(name, dir, shard)?;
    // Lenient load: gc is the tool the strict loaders point at when they
    // hit a corrupt record, so it must read past (and drop) the damage.
    let load = store::load_all_lenient(&store_path)?;
    let (records, dropped_malformed, dropped_corrupt) =
        (load.records, load.torn_lines, load.corrupt_records);

    let mut by_id: BTreeMap<ChunkId, HarqStats> = BTreeMap::new();
    let mut dropped_duplicates = 0;
    for (id, stats) in records {
        if by_id.insert(id, stats).is_some() {
            dropped_duplicates += 1;
        }
    }

    // Realized packets per live key (a key can recur across run calls;
    // the deepest realization wins).
    // determinism: unordered-ok(iteration only fills an ordered keep-set; kept records are emitted in BTree order)
    let mut realized: HashMap<u64, usize> = HashMap::new();
    for p in &manifest.points {
        let r = realized.entry(p.key).or_insert(0);
        *r = (*r).max(p.packets);
    }

    let mut keep: BTreeSet<ChunkId> = BTreeSet::new();
    let mut dropped_orphans = 0;
    for id in by_id.keys() {
        if !realized.contains_key(&id.point) {
            dropped_orphans += 1;
        }
    }
    for (&key, &packets) in &realized {
        let chunks: Vec<(usize, usize)> = by_id
            .range(
                ChunkId {
                    point: key,
                    first_packet: 0,
                    n_packets: 0,
                }..=ChunkId {
                    point: key,
                    first_packet: usize::MAX,
                    n_packets: usize::MAX,
                },
            )
            .map(|(id, _)| (id.first_packet, id.n_packets))
            .collect();
        // Keep the covering set when one exists; otherwise keep every
        // chunk of the key — gc must never worsen an already-incomplete
        // store (that is `verify`'s problem to report).
        let keep_ranges = find_cover(&chunks, packets).unwrap_or(chunks);
        keep.extend(keep_ranges.into_iter().map(|(first, len)| ChunkId {
            point: key,
            first_packet: first,
            n_packets: len,
        }));
    }

    let kept_records: Vec<(ChunkId, HarqStats)> = by_id
        .iter()
        .filter(|(id, _)| keep.contains(id))
        .map(|(id, stats)| (*id, stats.clone()))
        .collect();
    let dropped_stale = by_id.len() - kept_records.len() - dropped_orphans;
    store::write_records(&store_path, &kept_records)?;
    Ok(GcReport {
        kept: kept_records.len(),
        dropped_orphans,
        dropped_duplicates,
        dropped_stale,
        dropped_malformed,
        dropped_corrupt,
    })
}

/// Store-side figures of a summary: chunk records, distinct point
/// keys, stored packets, and (when the whole file is being summarized)
/// its size on disk.
struct StoreSummary {
    records: usize,
    keys: usize,
    packets: u64,
    bytes: Option<u64>,
}

impl StoreSummary {
    /// Summarizes one record set (`bytes` stays unset — callers that
    /// summarize a whole store file fill it from `fs::metadata`).
    fn of(records: &[(ChunkId, HarqStats)]) -> Self {
        // determinism: unordered-ok(cardinality only)
        let keys: HashSet<u64> = records.iter().map(|(id, _)| id.point).collect();
        Self {
            records: records.len(),
            keys: keys.len(),
            packets: records.iter().map(|(_, s)| s.packets).sum(),
            bytes: None,
        }
    }
}

/// The campaign header + manifest/budget/store/reuse summary block
/// shared by `campaign-admin stats` and `campaign-admin query` — one
/// renderer, so the two surfaces cannot drift apart.
fn render_summary(
    name: &str,
    shard: ShardSpec,
    qualifier: &str,
    points_enumerated: u64,
    t: &ManifestTotals,
    store: &StoreSummary,
    malformed: usize,
) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "campaign {name}{}{qualifier}\n",
        if shard.is_sharded() {
            format!(" (shard {shard})")
        } else {
            String::new()
        }
    ));
    out.push_str(&format!(
        "  manifest: {} points recorded of {} enumerated, {} converged\n",
        t.points_total, points_enumerated, t.points_converged
    ));
    out.push_str(&format!(
        "  budgets:  {} packets realized of {} fixed ({:.1}% saved)\n",
        t.realized_packets,
        t.budget_packets,
        t.saved_vs_fixed() * 100.0
    ));
    match store.bytes {
        Some(bytes) => out.push_str(&format!(
            "  store:    {} chunk records over {} point keys, {} packets, {bytes} bytes\n",
            store.records, store.keys, store.packets,
        )),
        None => out.push_str(&format!(
            "  store:    {} chunk records over {} point keys, {} packets\n",
            store.records, store.keys, store.packets,
        )),
    }
    // Hit provenance comes from the same `ManifestTotals` aggregation
    // that `render_json` and `campaign-admin top` use, so the surfaces
    // cannot disagree.
    out.push_str(&format!(
        "  reuse:    {} chunks / {} packets served from store ({:.1}% of realized)\n",
        t.store_chunks,
        t.store_packets,
        t.store_packet_rate() * 100.0
    ));
    if malformed > 0 {
        out.push_str(&format!("  warning:  {malformed} malformed store lines\n"));
    }
    out
}

/// Renders a human-readable summary of a campaign's store + manifest —
/// the `campaign-admin stats` output.
pub fn stats(name: &str, dir: &Path, shard: ShardSpec) -> io::Result<String> {
    let manifest = Manifest::read(&dir.join(manifest_file(name, shard)))?;
    let (store_path, _) = detect_store_file(name, dir, shard)?;
    let (records, malformed) = store::load_all(&store_path)?;
    let mut store = StoreSummary::of(&records);
    store.bytes = Some(fs::metadata(&store_path)?.len());
    Ok(render_summary(
        name,
        shard,
        "",
        manifest.points_enumerated,
        &manifest.totals(),
        &store,
        malformed,
    ))
}

/// Renders the `campaign-admin query` output: the [`stats`] summary
/// block restricted to the manifest points matching `filter`, followed
/// by one line per matching point. Store figures count only records
/// whose point key a matching point references.
pub fn query(name: &str, dir: &Path, shard: ShardSpec, filter: &QueryFilter) -> io::Result<String> {
    let manifest = Manifest::read(&dir.join(manifest_file(name, shard)))?;
    let (store_path, _) = detect_store_file(name, dir, shard)?;
    let (records, malformed) = store::load_all(&store_path)?;
    let selected: Vec<&PointRecord> = filter.select(&manifest.points);
    // determinism: unordered-ok(membership test only; output order comes from the record list)
    let live: HashSet<u64> = selected.iter().map(|p| p.key).collect();
    let matching: Vec<(ChunkId, HarqStats)> = records
        .into_iter()
        .filter(|(id, _)| live.contains(&id.point))
        .collect();
    let qualifier = format!(
        " query: {} of {} points match",
        selected.len(),
        manifest.points.len()
    );
    let mut out = render_summary(
        name,
        shard,
        &qualifier,
        manifest.points_enumerated,
        &ManifestTotals::over(selected.iter().copied()),
        &StoreSummary::of(&matching),
        malformed,
    );
    for p in &selected {
        out.push_str(&format!(
            "  point {:>4} {} key {:016x}  snr {:+.2} dB  bler {:.3e} ci [{:.3e}, {:.3e}]  \
             packets {}/{}  {}\n",
            p.index,
            p.label,
            p.key,
            p.snr_db,
            p.bler,
            p.ci.0,
            p.ci.1,
            p.packets,
            p.max_packets,
            if p.converged {
                "converged"
            } else {
                "not converged"
            },
        ));
    }
    Ok(out)
}

/// Finds a subset of `chunks` (each a `(first_packet, n_packets)`
/// range) that tiles `0..target` exactly — no gaps, no overlaps.
/// Greedy longest-first with backtracking: deterministic, and robust to
/// stores holding chunks from several schedules (e.g. a `--target-ci`
/// run resumed over a doubling-schedule store).
fn find_cover(chunks: &[(usize, usize)], target: usize) -> Option<Vec<(usize, usize)>> {
    let mut by_start: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for &(first, len) in chunks {
        if len > 0 && first < target {
            by_start.entry(first).or_default().push(len);
        }
    }
    for lens in by_start.values_mut() {
        lens.sort_unstable_by(|a, b| b.cmp(a));
        lens.dedup();
    }
    let mut cover = Vec::new();
    fn rec(
        by_start: &BTreeMap<usize, Vec<usize>>,
        pos: usize,
        target: usize,
        cover: &mut Vec<(usize, usize)>,
    ) -> bool {
        if pos == target {
            return true;
        }
        let Some(lens) = by_start.get(&pos) else {
            return false;
        };
        for &len in lens {
            // `pos <= target` holds on every call; `pos + len` could
            // overflow on a store-supplied range.
            if len <= target - pos {
                cover.push((pos, len));
                if rec(by_start, pos + len, target, cover) {
                    return true;
                }
                cover.pop();
            }
        }
        false
    }
    rec(&by_start, 0, target, &mut cover).then_some(cover)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parsing_and_validation() {
        assert_eq!("0/1".parse::<ShardSpec>().unwrap(), ShardSpec::single());
        assert_eq!(
            "2/4".parse::<ShardSpec>().unwrap(),
            ShardSpec::new(2, 4).unwrap()
        );
        for bad in [
            "", "3", "1/0", "4/4", "5/4", "a/2", "1/b", "-1/2", "1/2:0/3",
        ] {
            assert!(bad.parse::<ShardSpec>().is_err(), "{bad}");
        }
        assert_eq!(ShardSpec::new(1, 3).unwrap().to_string(), "1/3");
    }

    #[test]
    fn constructor_errors_instead_of_panicking() {
        // The dispatcher builds specs programmatically, so out-of-range
        // combinations must be an Err (with the parse wording), never an
        // assert.
        for (i, n) in [(0, 0), (1, 0), (2, 2), (5, 4), (u32::MAX, 1)] {
            let err = ShardSpec::new(i, n).unwrap_err();
            assert!(err.contains("INDEX < COUNT"), "{i}/{n}: {err}");
        }
        assert_eq!(ShardSpec::new(0, 1).unwrap(), ShardSpec::single());
    }

    #[test]
    fn sharding_partitions_every_key_exactly_once() {
        for count in 1..=5u32 {
            for key in (0u64..200).chain([u64::MAX, u64::MAX - 7]) {
                let owners: Vec<u32> = (0..count)
                    .filter(|&i| ShardSpec::new(i, count).unwrap().owns(key))
                    .collect();
                assert_eq!(owners.len(), 1, "key {key} count {count}: {owners:?}");
            }
        }
    }

    #[test]
    fn file_names_only_suffix_when_sharded() {
        assert_eq!(
            store_file("fig6", ShardSpec::single(), BackendKind::Jsonl),
            "fig6.jsonl"
        );
        assert_eq!(
            store_file("fig6", ShardSpec::new(0, 2).unwrap(), BackendKind::Jsonl),
            "fig6.shard-0-of-2.jsonl"
        );
        assert_eq!(
            store_file("fig6", ShardSpec::new(0, 2).unwrap(), BackendKind::Indexed),
            "fig6.shard-0-of-2.seg"
        );
        assert_eq!(
            manifest_file("fig6", ShardSpec::new(1, 2).unwrap()),
            "fig6.shard-1-of-2.manifest.json"
        );
    }

    #[test]
    fn artifact_names_resolve_to_their_shard_spec() {
        let spec = ShardSpec::new(0, 2).unwrap();
        for file in [
            "fig6.shard-0-of-2.jsonl",
            "fig6.shard-0-of-2.seg",
            "fig6.shard-0-of-2.seg.idx",
            "fig6.shard-0-of-2.manifest.json",
        ] {
            assert_eq!(artifact_shard_spec("fig6", file), Some(spec), "{file}");
        }
        // Unsuffixed (single-host) artifacts carry no shard spec.
        assert_eq!(artifact_shard_spec("fig6", "fig6.jsonl"), None);
        assert_eq!(artifact_shard_spec("fig6", "other.shard-0-of-2.seg"), None);
        // Artifacts of the former `i/n:j/m` slice naming are ignored.
        for j in 0..3 {
            for ext in ["jsonl", "seg", "seg.idx", "manifest.json"] {
                let file = format!("fig6.shard-1-of-2.slice-{j}-of-3.{ext}");
                assert_eq!(artifact_shard_spec("fig6", &file), None, "{file}");
            }
        }
    }

    #[test]
    fn store_detection_requires_exactly_one_backend_file() {
        let dir = std::env::temp_dir().join(format!("shard-detect-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let spec = ShardSpec::single();

        let err = detect_store_file("c", &dir, spec).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound, "{err}");

        fs::write(dir.join(store_file("c", spec, BackendKind::Jsonl)), "").unwrap();
        let (path, kind) = detect_store_file("c", &dir, spec).unwrap();
        assert_eq!(kind, BackendKind::Jsonl);
        assert!(path.ends_with("c.jsonl"));

        fs::write(dir.join(store_file("c", spec, BackendKind::Indexed)), "").unwrap();
        let err = detect_store_file("c", &dir, spec).unwrap_err();
        assert!(err.to_string().contains("more than one"), "{err}");

        fs::remove_file(dir.join(store_file("c", spec, BackendKind::Jsonl))).unwrap();
        let (_, kind) = detect_store_file("c", &dir, spec).unwrap();
        assert_eq!(kind, BackendKind::Indexed);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cover_finder_handles_mixed_schedules() {
        // Pure doubling schedule.
        assert_eq!(
            find_cover(&[(0, 8), (8, 8), (16, 16)], 32),
            Some(vec![(0, 8), (8, 8), (16, 16)])
        );
        // Two interleaved schedules; only one tiles 0..24 — greedy
        // longest-first must backtrack out of the (0,16) branch.
        assert_eq!(
            find_cover(&[(0, 16), (0, 8), (8, 16), (12, 12)], 24),
            Some(vec![(0, 8), (8, 16)])
        );
        // Gap → no cover.
        assert_eq!(find_cover(&[(0, 8), (16, 8)], 24), None);
        // Overlap alone cannot tile.
        assert_eq!(find_cover(&[(0, 8), (4, 8)], 12), None);
        // Empty target is trivially covered.
        assert_eq!(find_cover(&[], 0), Some(vec![]));
        // Store-supplied ranges whose end overflows `usize` are skipped,
        // not wrapped around to position 0.
        assert_eq!(
            find_cover(&[(1, usize::MAX), (0, 1), (1, 3)], 4),
            Some(vec![(0, 1), (1, 3)])
        );
        assert_eq!(find_cover(&[(0, 8), (8, usize::MAX)], 16), None);
    }

    /// A minimal single-point shard manifest for file-level tests.
    fn tiny_manifest(name: &str, spec: ShardSpec) -> Manifest {
        let mut m = Manifest::new(name, super::super::CampaignSettings::default());
        m.settings.shard = spec;
        m.points_enumerated = 2;
        m.points.push(crate::campaign::manifest::PointRecord {
            index: 0,
            key: 2, // even → shard 0 of 2
            label: "p0".into(),
            snr_db: 1.0,
            packets: 4,
            max_packets: 4,
            bler: 0.0,
            ci: (0.0, 0.5),
            rel_half_width: 1.0,
            converged: true,
            chunks: 1,
            chunks_from_store: 0,
            packets_from_store: 0,
        });
        m
    }

    #[test]
    fn merge_rejects_incomplete_or_mismatched_shard_sets() {
        let dir = std::env::temp_dir().join(format!("shard-merge-reject-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        // One shard of a 2-shard set: discovery works, merge refuses.
        let m = tiny_manifest("c", ShardSpec::new(0, 2).unwrap());
        m.write(&dir.join(manifest_file("c", m.settings.shard)))
            .unwrap();
        fs::write(
            dir.join(store_file("c", m.settings.shard, BackendKind::Jsonl)),
            "",
        )
        .unwrap();
        let found = discover_shards("c", &dir).unwrap();
        assert_eq!(found.len(), 1);
        let err = merge("c", &dir, &dir.join("out")).unwrap_err();
        assert!(err.to_string().contains("missing indices"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn discovery_rejects_mixed_shard_families() {
        let dir = std::env::temp_dir().join(format!("shard-mixed-family-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        // `.shard-0-of-2` next to `.shard-1-of-3`: leftovers of a run
        // at another shard count must not be merged as one partition.
        for spec in [ShardSpec::new(0, 2).unwrap(), ShardSpec::new(1, 3).unwrap()] {
            tiny_manifest("c", spec)
                .write(&dir.join(manifest_file("c", spec)))
                .unwrap();
            fs::write(dir.join(store_file("c", spec, BackendKind::Jsonl)), "").unwrap();
        }
        let err = discover_shards("c", &dir).unwrap_err();
        assert!(err.to_string().contains("mixed shard families"), "{err}");
        assert!(err.to_string().contains("of-2 and of-3"), "{err}");
        let err = merge("c", &dir, &dir.join("out")).unwrap_err();
        assert!(err.to_string().contains("mixed shard families"), "{err}");
        // A single-family dir (even incomplete) discovers fine.
        fs::remove_file(dir.join(manifest_file("c", ShardSpec::new(1, 3).unwrap()))).unwrap();
        assert_eq!(discover_shards("c", &dir).unwrap().len(), 1);
        // Another campaign's files in the same dir are not a family mix.
        tiny_manifest("d", ShardSpec::new(0, 3).unwrap())
            .write(&dir.join(manifest_file("d", ShardSpec::new(0, 3).unwrap())))
            .unwrap();
        assert_eq!(discover_shards("c", &dir).unwrap().len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_rejects_renamed_shard_artifacts() {
        let dir = std::env::temp_dir().join(format!("shard-renamed-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        // Content says 1/2, file name says 0/2 — the sibling-store
        // lookup would read the wrong `.jsonl`.
        let m = tiny_manifest("c", ShardSpec::new(1, 2).unwrap());
        let wrong_name = dir.join(manifest_file("c", ShardSpec::new(0, 2).unwrap()));
        m.write(&wrong_name).unwrap();
        let err = merge_manifests("c", &[wrong_name], &dir.join("out")).unwrap_err();
        assert!(err.to_string().contains("renamed"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn partial_merge_forgives_missing_points_only() {
        let dir = std::env::temp_dir().join(format!("shard-partial-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        // Only shard 0 of 2 finished; its manifest enumerates 2 points
        // but records just its own (index 0).
        let m = tiny_manifest("c", ShardSpec::new(0, 2).unwrap());
        let path = dir.join(manifest_file("c", m.settings.shard));
        m.write(&path).unwrap();
        // The surviving shard's store covers its one point (key 2,
        // packets 0..4), so the partial merge must still verify.
        store::write_records(
            &dir.join(store_file("c", m.settings.shard, BackendKind::Jsonl)),
            &[(
                ChunkId {
                    point: 2,
                    first_packet: 0,
                    n_packets: 4,
                },
                hspa_phy::harq::HarqStats {
                    packets: 4,
                    delivered: 4,
                    transmissions: 4,
                    info_bits: 10,
                    failures_at: vec![0; 4],
                },
            )],
        )
        .unwrap();

        let err = merge_manifests_allowing_partial(
            "c",
            std::slice::from_ref(&path),
            &dir.join("out"),
            false,
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("not a complete partition"),
            "{err}"
        );

        let report = merge_manifests_allowing_partial(
            "c",
            std::slice::from_ref(&path),
            &dir.join("out"),
            true,
        )
        .unwrap();
        assert_eq!(report.points, 1);
        assert_eq!(report.missing_points, vec![1]);
        assert_eq!(report.missing_points_total, 1);
        // The partial manifest still verifies: listed points are backed.
        let v = verify_with("c", &dir.join("out"), ShardSpec::single(), true).unwrap();
        assert!(v.ok(), "{:?}", v.problems);

        // Duplicates stay fatal even in partial mode.
        let dup = dir.join("dup");
        fs::create_dir_all(&dup).unwrap();
        let m2 = tiny_manifest("c", ShardSpec::new(1, 2).unwrap());
        // Same global index 0 as shard 0's point — a broken partition.
        let path2 = dup.join(manifest_file("c", m2.settings.shard));
        m2.write(&path2).unwrap();
        fs::write(
            dup.join(store_file("c", m2.settings.shard, BackendKind::Jsonl)),
            "",
        )
        .unwrap();
        let err =
            merge_manifests_allowing_partial("c", &[path.clone(), path2], &dir.join("out2"), true)
                .unwrap_err();
        assert!(
            err.to_string().contains("not a disjoint partition"),
            "{err}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn strict_verify_flags_inconsistent_provenance() {
        let dir = std::env::temp_dir().join(format!("shard-strict-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let spec = ShardSpec::single();
        let mut m = tiny_manifest("c", spec);
        // 1 chunk ran but 2 claim store provenance; packets agree-ish.
        m.points[0].chunks = 1;
        m.points[0].chunks_from_store = 2;
        m.points[0].packets_from_store = 8;
        m.write(&dir.join(manifest_file("c", spec))).unwrap();
        // A store that covers the point so the base pass is clean.
        store::write_records(
            &dir.join(store_file("c", spec, BackendKind::Jsonl)),
            &[(
                ChunkId {
                    point: 2,
                    first_packet: 0,
                    n_packets: 4,
                },
                hspa_phy::harq::HarqStats {
                    packets: 4,
                    delivered: 4,
                    transmissions: 4,
                    info_bits: 10,
                    failures_at: vec![0; 4],
                },
            )],
        )
        .unwrap();
        assert!(verify("c", &dir, spec).unwrap().ok(), "base pass is clean");
        let strict = verify_with("c", &dir, spec, true).unwrap();
        assert!(!strict.ok());
        assert!(
            strict
                .problems
                .iter()
                .any(|p| p.contains("served from store")),
            "{:?}",
            strict.problems
        );
        // Consistent provenance passes strict.
        m.points[0].chunks_from_store = 1;
        m.points[0].packets_from_store = 4;
        m.write(&dir.join(manifest_file("c", spec))).unwrap();
        assert!(verify_with("c", &dir, spec, true).unwrap().ok());
        // chunks>0 with packets==0 disagrees.
        m.points[0].packets_from_store = 0;
        m.write(&dir.join(manifest_file("c", spec))).unwrap();
        let strict = verify_with("c", &dir, spec, true).unwrap();
        assert!(
            strict.problems.iter().any(|p| p.contains("disagrees")),
            "{:?}",
            strict.problems
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
