//! The indexed segment store backend: append-only binary frames plus a
//! persistent point-key index sidecar, so opening a store costs the
//! un-indexed tail (usually nothing) instead of a whole-file parse, and
//! a chunk lookup is one seek + one frame read.
//!
//! ## Segment file (`<name>.seg`)
//!
//! ```text
//! magic "RSEG0001" (8 bytes)
//! frame*: payload_len u32 LE | crc u32 LE (FNV-1a 32 of payload) | payload
//! payload: point, first, len, packets, delivered, transmissions,
//!          info_bits, n_failures (u64 LE each), then n_failures × u64 LE
//! ```
//!
//! ## Index sidecar (`<name>.seg.idx`)
//!
//! ```text
//! magic "RIDX0001" (8 bytes)
//! covered u64 LE — segment bytes the entries below account for
//! entry*: point u64 | first u64 | len u64 | frame offset u64 (LE)
//! ```
//!
//! The sidecar is a **checkpoint**, not a source of truth: appends
//! during a run touch only the segment file, and the next open replays
//! the segment tail past `covered`, then rewrites the sidecar
//! atomically. A missing, stale or damaged sidecar merely degrades one
//! open to a full segment scan — it can never lose or corrupt records.
//! A torn trailing frame (a `SIGKILL` mid-append) is truncated away on
//! open so fresh appends never weld onto garbage; a frame whose
//! checksum or stats invariants fail is corruption and handled exactly
//! like the JSONL backend: strict scans error pointing at
//! `campaign-admin gc`, the lenient scan drops and counts it.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use hspa_phy::harq::HarqStats;

use super::{corrupt_error, validate_record, BackendKind, ChunkId, LenientLoad, StoreBackend};

const SEG_MAGIC: &[u8; 8] = b"RSEG0001";
const IDX_MAGIC: &[u8; 8] = b"RIDX0001";
/// Bytes before the first frame (the magic).
const SEG_HEADER: u64 = 8;
/// Frame header: payload length + checksum.
const FRAME_HEADER: usize = 8;
/// Fixed payload fields before the failures array.
const PAYLOAD_FIXED: usize = 64;
/// Upper bound on a plausible payload — anything larger is damage, not
/// a record (chunks are at most a few hundred packets).
const MAX_PAYLOAD: usize = 1 << 20;

/// Indexed binary segment store of per-chunk [`HarqStats`].
#[derive(Debug)]
pub struct SegmentBackend {
    path: PathBuf,
    index_path: PathBuf,
    /// Read handle into the segment file; `None` until opened for
    /// campaign use (attached backends only serve whole-store scans).
    file: Option<File>,
    /// Indexed frames in segment order, duplicates kept.
    frames: Vec<(ChunkId, u64)>,
    /// Latest frame offset per chunk (resume semantics: last write wins).
    // determinism: unordered-ok(keyed access only; never iterated — scans walk the ordered frames vec)
    lookup: HashMap<ChunkId, u64>,
    /// Logical end of the segment — the next append offset.
    end: u64,
}

impl SegmentBackend {
    /// Opens (or creates) the segment store: loads the index sidecar,
    /// replays any segment tail it does not cover, truncates a torn
    /// trailing frame, and checkpoints the refreshed index. With
    /// `resume == false` an existing store (and its sidecar) is
    /// truncated first.
    pub fn open(path: &Path, resume: bool) -> std::io::Result<Self> {
        let mut backend = Self::attach(path);
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let exists = match fs::metadata(path) {
            Ok(m) => m.len() > 0,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => false,
            Err(e) => return Err(e),
        };
        if !resume && exists {
            fs::remove_file(path)?;
            let _ = fs::remove_file(&backend.index_path);
        }
        if !(resume && exists) {
            // Materialize an empty store eagerly, same as the JSONL
            // backend: shard artifact collection and merge never chase
            // a file only the first miss would have created.
            fs::write(path, SEG_MAGIC)?;
            backend.end = SEG_HEADER;
            backend.write_index()?;
            backend.file = Some(File::open(path)?);
            return Ok(backend);
        }

        let seg_len = fs::metadata(path)?.len();
        {
            let mut f = File::open(path)?;
            let mut magic = [0u8; 8];
            if seg_len < SEG_HEADER || {
                f.read_exact(&mut magic)?;
                &magic != SEG_MAGIC
            } {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("{}: not a segment store (bad magic)", path.display()),
                ));
            }
        }

        // The sidecar is advisory: any damage falls back to a full
        // segment scan. That includes a checkpoint whose tail does not
        // replay cleanly — a damaged `covered` word can point mid-frame,
        // and its misread must neither reject nor truncate real frames.
        let checkpoint = backend
            .read_index(seg_len)
            .and_then(|(mut frames, covered)| {
                matches!(replay_tail(path, &mut frames, covered), Ok(None))
                    .then_some((frames, covered))
            });
        let (frames, covered, truncate_at) = match checkpoint {
            Some((frames, covered)) => (frames, covered, None),
            None => {
                let mut frames = Vec::new();
                let truncate_at = replay_tail(path, &mut frames, SEG_HEADER)?;
                (frames, SEG_HEADER, truncate_at)
            }
        };
        backend.end = truncate_at.unwrap_or(seg_len);
        if truncate_at.is_some() {
            OpenOptions::new()
                .write(true)
                .open(path)?
                .set_len(backend.end)?;
            crate::telemetry::counter_add(crate::telemetry::Counter::StoreTornTailsDropped, 1);
        }

        // Frames inherited from the sidecar are trusted here and
        // checksum-verified at fetch time; a stale entry is a warned
        // miss, never corruption. Resume semantics: the lookup keeps
        // the last write per chunk, while the frame list keeps every
        // frame so the sidecar stays duplicate-preserving.
        backend.lookup = frames.iter().copied().collect();
        backend.frames = frames;
        if covered != backend.end {
            // Only checkpoint when the replay learned something; a
            // sidecar that already covers the segment is left alone,
            // keeping a cold open free of writes.
            backend.write_index()?;
        }
        backend.file = Some(File::open(path)?);
        Ok(backend)
    }

    /// Attaches to a path for the whole-store scan surface without
    /// touching the filesystem.
    pub fn attach(path: &Path) -> Self {
        Self {
            path: path.to_path_buf(),
            index_path: path.with_extension("seg.idx"),
            file: None,
            frames: Vec::new(),
            // determinism: unordered-ok(keyed access only; never iterated)
            lookup: HashMap::new(),
            end: SEG_HEADER,
        }
    }

    /// Reads the index sidecar; `None` when it is missing, malformed,
    /// or claims to cover more segment than exists (all of which just
    /// degrade to a full scan).
    fn read_index(&self, seg_len: u64) -> Option<(Vec<(ChunkId, u64)>, u64)> {
        let bytes = fs::read(&self.index_path).ok()?;
        if bytes.len() < 16 || &bytes[..8] != IDX_MAGIC {
            return None;
        }
        let covered = u64::from_le_bytes(bytes[8..16].try_into().ok()?);
        if covered < SEG_HEADER || covered > seg_len {
            return None;
        }
        let mut frames = Vec::new();
        // A partial trailing entry (torn sidecar write) is dropped with
        // the whole sidecar: entry count and checkpoint must agree.
        let body = &bytes[16..];
        if body.len() % 32 != 0 {
            return None;
        }
        for entry in body.chunks_exact(32) {
            // lint: allow(no-unwrap, infallible: chunks_exact(32) guarantees every 8-byte sub-slice exists)
            let word = |i: usize| u64::from_le_bytes(entry[i * 8..(i + 1) * 8].try_into().unwrap());
            let id = ChunkId {
                point: word(0),
                first_packet: word(1) as usize,
                n_packets: word(2) as usize,
            };
            let offset = word(3);
            if offset < SEG_HEADER || offset >= covered {
                return None;
            }
            frames.push((id, offset));
        }
        Some((frames, covered))
    }

    /// Atomically rewrites the index sidecar to checkpoint the current
    /// in-memory frame list.
    fn write_index(&self) -> std::io::Result<()> {
        if crate::failpoint::armed() {
            let ctx = self
                .index_path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or("");
            if crate::failpoint::should_fire(crate::failpoint::Site::IndexCorrupt, ctx) {
                // Silent sidecar rot: a corrupt checkpoint must degrade
                // the next open to a full scan, never lose a record.
                fs::write(&self.index_path, b"RIDX0001 rotted checkpoint")?;
                return Ok(());
            }
        }
        let mut out = Vec::with_capacity(16 + self.frames.len() * 32);
        out.extend_from_slice(IDX_MAGIC);
        out.extend_from_slice(&self.end.to_le_bytes());
        for &(id, offset) in &self.frames {
            out.extend_from_slice(&id.point.to_le_bytes());
            out.extend_from_slice(&(id.first_packet as u64).to_le_bytes());
            out.extend_from_slice(&(id.n_packets as u64).to_le_bytes());
            out.extend_from_slice(&offset.to_le_bytes());
        }
        crate::atomic_write(&self.index_path, &out)
    }

    /// Scans every frame of the segment file. `strict` errors on the
    /// first corrupt frame and stops at a torn one. Lenient counts
    /// damage and resyncs: a damaged length field cannot be trusted to
    /// frame the damage, so past a corrupt frame — or a "torn" one with
    /// bytes after it — the scan resumes at the next checksum-valid,
    /// valid record. Only a tail with no such frame after it is torn.
    fn scan(&self, strict: bool) -> std::io::Result<LenientLoad> {
        let bytes = fs::read(&self.path)?;
        if bytes.len() < SEG_HEADER as usize || &bytes[..8] != SEG_MAGIC {
            if bytes.is_empty() {
                // An eagerly-created-but-never-written store from an
                // older interrupted run: no records, nothing torn.
                return Ok(LenientLoad::default());
            }
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("{}: not a segment store (bad magic)", self.path.display()),
            ));
        }
        let mut load = LenientLoad::default();
        let mut pos = SEG_HEADER as usize;
        while pos < bytes.len() {
            match read_frame(&bytes[pos..]) {
                FrameRead::Ok(id, stats, consumed) => {
                    // A checksum-valid frame's length is trustworthy
                    // even when its record breaks an invariant.
                    match validate_record(id, &stats) {
                        Ok(()) => load.records.push((id, stats)),
                        Err(why) if strict => {
                            return Err(corrupt_error(&self.path, pos, &why));
                        }
                        Err(_) => load.corrupt_records += 1,
                    }
                    pos += consumed;
                }
                FrameRead::Torn if strict => {
                    load.torn_lines += 1;
                    break;
                }
                FrameRead::Corrupt(why) if strict => {
                    return Err(corrupt_error(&self.path, pos, &why));
                }
                damaged => match next_valid_frame(&bytes, pos + 1) {
                    Some(next) => {
                        load.corrupt_records += 1;
                        pos = next;
                    }
                    None => {
                        match damaged {
                            FrameRead::Torn => load.torn_lines += 1,
                            _ => load.corrupt_records += 1,
                        }
                        break;
                    }
                },
            }
        }
        Ok(load)
    }
}

/// Offset of the first frame at or after `from` that is checksum-valid
/// and holds a valid record — where a lenient scan resyncs after damage.
fn next_valid_frame(bytes: &[u8], from: usize) -> Option<usize> {
    (from..bytes.len()).find(|&pos| {
        matches!(read_frame(&bytes[pos..]),
            FrameRead::Ok(id, stats, _) if validate_record(id, &stats).is_ok())
    })
}

impl StoreBackend for SegmentBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Indexed
    }

    fn path(&self) -> &Path {
        &self.path
    }

    fn len(&self) -> usize {
        self.lookup.len()
    }

    fn get(&mut self, id: ChunkId) -> Option<HarqStats> {
        let offset = *self.lookup.get(&id)?;
        let file = self.file.as_mut()?;
        // Lazy fetch: one seek + one frame read, checksum-verified. A
        // frame that fails here is a warned miss, not an error — the
        // chunk is deterministically re-simulated to the identical
        // stats, so campaign output is unaffected.
        let read = (|| -> std::io::Result<FrameRead> {
            file.seek(SeekFrom::Start(offset))?;
            let mut header = [0u8; FRAME_HEADER];
            file.read_exact(&mut header)?;
            // lint: allow(no-unwrap, infallible: a 4-byte slice always converts to [u8; 4])
            let payload_len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
            if payload_len > MAX_PAYLOAD {
                return Ok(FrameRead::Corrupt("implausible frame length".into()));
            }
            let mut frame = vec![0u8; FRAME_HEADER + payload_len];
            frame[..FRAME_HEADER].copy_from_slice(&header);
            file.read_exact(&mut frame[FRAME_HEADER..])?;
            Ok(read_frame(&frame))
        })();
        match read {
            Ok(FrameRead::Ok(frame_id, stats, _)) if frame_id == id => Some(stats),
            _ => {
                crate::telemetry::counter_add(crate::telemetry::Counter::StoreIndexStaleMisses, 1);
                eprintln!(
                    "warning: {}: unreadable frame at offset {offset} for chunk \
                     {:016x}/{}+{}; treating as a store miss",
                    self.path.display(),
                    id.point,
                    id.first_packet,
                    id.n_packets
                );
                None
            }
        }
    }

    fn append(&mut self, id: ChunkId, stats: &HarqStats) -> std::io::Result<()> {
        let frame = encode_frame(id, stats);
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        if crate::failpoint::armed() {
            let ctx = self.path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if crate::failpoint::should_fire(crate::failpoint::Site::AppendTorn, ctx) {
                // Tear the frame mid-write and die, like a SIGKILL
                // mid-append: the half frame becomes the segment tail,
                // which the next open truncates away.
                file.write_all(&frame[..frame.len() / 2])?;
                file.flush()?;
                std::process::exit(43);
            }
        }
        file.write_all(&frame)?;
        self.frames.push((id, self.end));
        self.lookup.insert(id, self.end);
        self.end += frame.len() as u64;
        Ok(())
    }

    fn load_all(&self) -> std::io::Result<(Vec<(ChunkId, HarqStats)>, usize)> {
        let load = self.scan(true)?;
        Ok((load.records, load.torn_lines))
    }

    fn load_all_lenient(&self) -> std::io::Result<LenientLoad> {
        self.scan(false)
    }

    fn replace_all(&mut self, records: &[(ChunkId, HarqStats)]) -> std::io::Result<()> {
        let mut out = Vec::from(*SEG_MAGIC);
        let mut frames = Vec::with_capacity(records.len());
        for (id, stats) in records {
            frames.push((*id, out.len() as u64));
            out.extend_from_slice(&encode_frame(*id, stats));
        }
        crate::atomic_write(&self.path, &out)?;
        self.end = out.len() as u64;
        self.lookup = frames.iter().copied().collect();
        self.frames = frames;
        self.write_index()?;
        if self.file.is_some() {
            // The rename orphaned the old inode behind the read handle.
            self.file = Some(File::open(&self.path)?);
        }
        Ok(())
    }
}

/// Replays the segment from byte `covered` on, appending each frame's
/// `(id, offset)` to `frames`. Strict semantics, like the JSONL resume
/// load: a corrupt frame is an error naming gc, and a torn trailing
/// frame ends the replay, returning the offset to truncate at.
fn replay_tail(
    path: &Path,
    frames: &mut Vec<(ChunkId, u64)>,
    covered: u64,
) -> std::io::Result<Option<u64>> {
    let mut file = File::open(path)?;
    file.seek(SeekFrom::Start(covered))?;
    let mut tail = Vec::new();
    file.read_to_end(&mut tail)?;
    let mut pos = 0usize;
    while pos < tail.len() {
        let at = covered + pos as u64;
        match read_frame(&tail[pos..]) {
            FrameRead::Ok(id, stats, consumed) => {
                validate_record(id, &stats).map_err(|why| corrupt_error(path, at, &why))?;
                frames.push((id, at));
                pos += consumed;
            }
            FrameRead::Torn => return Ok(Some(at)),
            FrameRead::Corrupt(why) => return Err(corrupt_error(path, at, &why)),
        }
    }
    Ok(None)
}

/// One attempt to decode a frame from the head of `bytes`.
enum FrameRead {
    /// A valid frame: id, stats, and the bytes it consumed.
    Ok(ChunkId, HarqStats, usize),
    /// Not enough bytes for a whole frame — the torn tail of an
    /// interrupted append.
    Torn,
    /// A complete frame that fails its checksum or shape checks.
    Corrupt(String),
}

fn read_frame(bytes: &[u8]) -> FrameRead {
    if bytes.len() < FRAME_HEADER {
        return FrameRead::Torn;
    }
    // lint: allow(no-unwrap, infallible: the FRAME_HEADER length check above guarantees both 4-byte slices)
    let payload_len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
    // lint: allow(no-unwrap, infallible: the FRAME_HEADER length check above guarantees both 4-byte slices)
    let crc = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if payload_len > MAX_PAYLOAD {
        return FrameRead::Corrupt(format!("implausible frame length {payload_len}"));
    }
    if bytes.len() < FRAME_HEADER + payload_len {
        return FrameRead::Torn;
    }
    let payload = &bytes[FRAME_HEADER..FRAME_HEADER + payload_len];
    if fnv1a32(payload) != crc {
        return FrameRead::Corrupt("frame checksum mismatch".into());
    }
    if payload_len < PAYLOAD_FIXED || !(payload_len - PAYLOAD_FIXED).is_multiple_of(8) {
        return FrameRead::Corrupt(format!("malformed frame payload of {payload_len} bytes"));
    }
    // lint: allow(no-unwrap, infallible: the payload shape checks above guarantee every 8-byte word slice)
    let word = |i: usize| u64::from_le_bytes(payload[i * 8..(i + 1) * 8].try_into().unwrap());
    // The count word is untrusted: compare it against what the payload
    // holds instead of scaling it, which could overflow.
    let n_failures = (payload_len - PAYLOAD_FIXED) / 8;
    if word(7) != n_failures as u64 {
        return FrameRead::Corrupt(format!(
            "frame claims {} failure entries in a {payload_len}-byte payload",
            word(7)
        ));
    }
    let id = ChunkId {
        point: word(0),
        first_packet: word(1) as usize,
        n_packets: word(2) as usize,
    };
    let stats = HarqStats {
        packets: word(3),
        delivered: word(4),
        transmissions: word(5),
        info_bits: word(6),
        failures_at: (0..n_failures).map(|i| word(8 + i)).collect(),
    };
    FrameRead::Ok(id, stats, FRAME_HEADER + payload_len)
}

fn encode_frame(id: ChunkId, stats: &HarqStats) -> Vec<u8> {
    let mut payload = Vec::with_capacity(PAYLOAD_FIXED + stats.failures_at.len() * 8);
    for word in [
        id.point,
        id.first_packet as u64,
        id.n_packets as u64,
        stats.packets,
        stats.delivered,
        stats.transmissions,
        stats.info_bits,
        stats.failures_at.len() as u64,
    ] {
        payload.extend_from_slice(&word.to_le_bytes());
    }
    for &f in &stats.failures_at {
        payload.extend_from_slice(&f.to_le_bytes());
    }
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&fnv1a32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// FNV-1a 32 — the sibling of the 64-bit point-fingerprint hash.
fn fnv1a32(bytes: &[u8]) -> u32 {
    let mut hash = 0x811c_9dc5u32;
    for &b in bytes {
        hash ^= b as u32;
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::super::{
        load_all, load_all_lenient, sample_stats, temp_store_path, write_records, ResultStore,
    };
    use super::*;

    fn clean(path: &Path) {
        let _ = fs::remove_file(path);
        let _ = fs::remove_file(path.with_extension("seg.idx"));
    }

    fn id(point: u64, first: usize) -> ChunkId {
        ChunkId {
            point,
            first_packet: first,
            n_packets: 8,
        }
    }

    #[test]
    fn frame_roundtrip() {
        let frame = encode_frame(id(0xdead_beef, 32), &sample_stats());
        let FrameRead::Ok(rid, rstats, consumed) = read_frame(&frame) else {
            panic!("frame must decode");
        };
        assert_eq!(rid, id(0xdead_beef, 32));
        assert_eq!(rstats, sample_stats());
        assert_eq!(consumed, frame.len());
        // Truncated prefixes are torn, never corrupt.
        for cut in 0..frame.len() {
            assert!(matches!(read_frame(&frame[..cut]), FrameRead::Torn));
        }
        // A flipped payload byte is a checksum failure.
        let mut bad = frame.clone();
        *bad.last_mut().unwrap() ^= 0x5a;
        assert!(matches!(read_frame(&bad), FrameRead::Corrupt(_)));
    }

    #[test]
    fn open_replays_only_the_unindexed_tail_and_truncates_torn_frames() {
        let path = temp_store_path("seg-tail", "seg");
        clean(&path);
        {
            let mut store = ResultStore::open(&path, true).unwrap();
            store.put(id(1, 0), &sample_stats()).unwrap();
        }
        // Appends past the checkpoint (simulating a run that died before
        // any reopen), plus a torn half-frame from a SIGKILL mid-append.
        let full = encode_frame(id(2, 0), &sample_stats());
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&full).unwrap();
        f.write_all(&full[..full.len() / 2]).unwrap();
        drop(f);
        let before = fs::metadata(&path).unwrap().len();

        let mut store = ResultStore::open(&path, true).unwrap();
        assert_eq!(store.len(), 2, "tail frame replayed");
        assert_eq!(store.fetch(id(2, 0)).unwrap(), sample_stats());
        assert_eq!(
            fs::metadata(&path).unwrap().len(),
            before - (full.len() as u64 - full.len() as u64 / 2),
            "torn tail truncated away"
        );
        // Fresh appends after the truncation read back cleanly.
        store.put(id(3, 0), &sample_stats()).unwrap();
        drop(store);
        let (records, torn) = load_all(&path).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(torn, 0);
        clean(&path);
    }

    #[test]
    fn damaged_or_missing_sidecar_degrades_to_a_full_scan() {
        let path = temp_store_path("seg-noidx", "seg");
        clean(&path);
        {
            let mut store = ResultStore::open(&path, true).unwrap();
            store.put(id(5, 0), &sample_stats()).unwrap();
            store.put(id(5, 8), &sample_stats()).unwrap();
        }
        let idx = path.with_extension("seg.idx");
        fs::remove_file(&idx).unwrap();
        {
            let mut store = ResultStore::open(&path, true).unwrap();
            assert_eq!(store.len(), 2);
            assert_eq!(store.fetch(id(5, 8)).unwrap(), sample_stats());
        }
        assert!(fs::metadata(&idx).unwrap().len() > 16, "sidecar rebuilt");
        // Garbage sidecar: same degradation, no error.
        fs::write(&idx, b"RIDX0001garbage").unwrap();
        let store = ResultStore::open(&path, true).unwrap();
        assert_eq!(store.len(), 2);
        clean(&path);
    }

    #[test]
    fn corrupt_frames_error_strictly_and_gc_leniently() {
        let path = temp_store_path("seg-corrupt", "seg");
        clean(&path);
        {
            let mut store = ResultStore::open(&path, true).unwrap();
            store.put(id(6, 0), &sample_stats()).unwrap();
        }
        // An invariant-violating record (delivered > packets) with a
        // valid checksum: parses, but must never feed statistics.
        let mut bad = sample_stats();
        bad.delivered = bad.packets + 2;
        // A range whose end overflows `usize`, likewise checksummed.
        let overflowing = ChunkId {
            point: 7,
            first_packet: 8,
            n_packets: usize::MAX,
        };
        let mut huge = sample_stats();
        huge.packets = u64::MAX;
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&encode_frame(id(7, 0), &bad)).unwrap();
        f.write_all(&encode_frame(overflowing, &huge)).unwrap();
        f.write_all(&encode_frame(id(8, 0), &sample_stats()))
            .unwrap();
        drop(f);

        let err = load_all(&path).unwrap_err();
        assert!(err.to_string().contains("campaign-admin gc"), "{err}");
        let err = ResultStore::open(&path, true).unwrap_err();
        assert!(err.to_string().contains("campaign-admin gc"), "{err}");

        let load = load_all_lenient(&path).unwrap();
        assert_eq!(load.records.len(), 2, "good frames survive");
        assert_eq!((load.torn_lines, load.corrupt_records), (0, 2));

        // gc's rewrite path: write back only the good records.
        write_records(&path, &load.records).unwrap();
        let (records, torn) = load_all(&path).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(torn, 0);
        let store = ResultStore::open(&path, true).unwrap();
        assert_eq!(store.len(), 2);
        clean(&path);
    }

    #[test]
    fn stale_sidecar_entry_is_a_warned_miss_not_an_error() {
        let path = temp_store_path("seg-stale", "seg");
        clean(&path);
        {
            let mut store = ResultStore::open(&path, true).unwrap();
            store.put(id(9, 0), &sample_stats()).unwrap();
        }
        // Appends never touch the sidecar; a reopen replays the tail
        // and checkpoints the index so it now covers the frame.
        drop(ResultStore::open(&path, true).unwrap());
        // Flip a payload byte behind the sidecar's back: the index
        // still points at the frame, the checksum no longer matches.
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        // Open trusts the sidecar (no tail to replay)…
        let mut store = ResultStore::open(&path, true).unwrap();
        assert_eq!(store.len(), 1);
        // …and the damage surfaces as a fetch miss, not a panic.
        assert!(store.fetch(id(9, 0)).is_none());
        assert_eq!(store.misses, 1);
        clean(&path);
    }

    /// A checksummed frame of the fixed fields only, whose failure-count
    /// word claims `count` entries.
    fn frame_claiming_failures(count: u64) -> Vec<u8> {
        let mut payload = Vec::new();
        for word in [1, 0, 8, 8, 6, 14, 120, count] {
            payload.extend_from_slice(&u64::to_le_bytes(word));
        }
        let mut frame = Vec::from((payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&fnv1a32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        frame
    }

    #[test]
    fn overflowing_failure_count_is_a_corrupt_frame() {
        // 2^61 entries of 8 bytes wrap to a 0-byte array, matching the
        // empty failures section of a 64-byte payload.
        let frame = frame_claiming_failures(1 << 61);
        assert!(matches!(read_frame(&frame), FrameRead::Corrupt(_)));
        let path = temp_store_path("seg-2pow61", "seg");
        clean(&path);
        fs::write(&path, [&SEG_MAGIC[..], &frame].concat()).unwrap();
        let err = load_all(&path).unwrap_err();
        assert!(err.to_string().contains("campaign-admin gc"), "{err}");
        let load = load_all_lenient(&path).unwrap();
        assert!(load.records.is_empty());
        assert_eq!(load.corrupt_records, 1);
        assert!(ResultStore::open(&path, true).is_err());
        clean(&path);
    }

    #[test]
    fn segment_readers_are_total_on_prefixes_and_bit_flips() {
        let path = temp_store_path("seg-total", "seg");
        let idx = path.with_extension("seg.idx");
        clean(&path);
        // Distinct stats per chunk, so a reader that served one chunk's
        // frame for another would be caught.
        let records: Vec<(ChunkId, HarqStats)> = [id(1, 0), id(1, 8), id(2, 0)]
            .into_iter()
            .zip([6, 5, 4])
            .map(|(id, delivered)| {
                let mut stats = sample_stats();
                stats.delivered = delivered;
                (id, stats)
            })
            .collect();
        {
            let mut store = ResultStore::open(&path, true).unwrap();
            for (id, stats) in &records {
                store.put(*id, stats).unwrap();
            }
        }
        // A reopen checkpoints a sidecar covering every frame.
        drop(ResultStore::open(&path, true).unwrap());
        let seg = fs::read(&path).unwrap();
        let sidecar = fs::read(&idx).unwrap();
        assert_eq!(sidecar.len(), 16 + 32 * records.len());

        // Every reader over one (segment, sidecar) pair. Errors and
        // misses are allowed; panics and records that were never
        // written are not.
        let known = |got: &[(ChunkId, HarqStats)]| {
            for r in got {
                assert!(records.contains(r), "unknown record {r:?}");
            }
        };
        let exercise = |seg: &[u8], sidecar: Option<&[u8]>| {
            fs::write(&path, seg).unwrap();
            match sidecar {
                Some(bytes) => fs::write(&idx, bytes).unwrap(),
                None => {
                    let _ = fs::remove_file(&idx);
                }
            }
            if let Ok((got, _)) = load_all(&path) {
                known(&got);
            }
            if let Ok(load) = load_all_lenient(&path) {
                known(&load.records);
            }
            if let Ok(mut store) = ResultStore::open(&path, true) {
                for (id, stats) in &records {
                    if let Some(got) = store.fetch(*id) {
                        assert_eq!(&got, stats, "{id:?}");
                    }
                }
            }
        };
        let flips = |bytes: &[u8]| -> Vec<Vec<u8>> {
            (0..bytes.len() * 8)
                .map(|bit| {
                    let mut flipped = bytes.to_vec();
                    flipped[bit / 8] ^= 1 << (bit % 8);
                    flipped
                })
                .collect()
        };

        // A strict prefix of the segment is a torn write: the strict
        // scan keeps exactly the whole frames before the cut.
        for cut in 0..seg.len() {
            exercise(&seg[..cut], Some(&sidecar));
            fs::write(&path, &seg[..cut]).unwrap();
            match load_all(&path) {
                Ok((got, _)) => assert!(records.starts_with(&got), "cut {cut}"),
                Err(_) => assert!((1..SEG_HEADER as usize).contains(&cut), "cut {cut}"),
            }
        }
        for flipped in flips(&seg) {
            exercise(&flipped, Some(&sidecar));
            exercise(&flipped, None);
        }
        // A damaged sidecar costs at most a full scan and some misses:
        // open succeeds and every frame survives it.
        let sidecars = (0..sidecar.len())
            .map(|cut| sidecar[..cut].to_vec())
            .chain(flips(&sidecar));
        for damaged in sidecars {
            exercise(&seg, Some(&damaged));
            fs::write(&path, &seg).unwrap();
            fs::write(&idx, &damaged).unwrap();
            ResultStore::open(&path, true).unwrap();
            assert_eq!(load_all(&path).unwrap(), (records.clone(), 0));
        }
        // A `covered` word pointing at the last frame's `info_bits`
        // (120, followed by the count word and four failure entries)
        // reads as a frame longer than the rest of the file: replayed
        // from there it looks torn, and truncating at it would drop a
        // valid frame.
        let mut mid_frame = sidecar.clone();
        mid_frame[8..16].copy_from_slice(&(seg.len() as u64 - 48).to_le_bytes());
        fs::write(&path, &seg).unwrap();
        fs::write(&idx, &mid_frame).unwrap();
        ResultStore::open(&path, true).unwrap();
        assert!(
            fs::read(&path).unwrap() == seg,
            "a valid frame was truncated"
        );
        // The crafted 2^61-entry frame, as the store's tail.
        let crafted = [&seg[..], &frame_claiming_failures(1 << 61)].concat();
        exercise(&crafted, Some(&sidecar));
        exercise(&crafted, None);
        clean(&path);
    }
}
