//! The JSONL store backend: one hand-written JSON line per chunk
//! record. This is the interchange/debug format — human-greppable,
//! trivially diffable, and what `campaign-admin export` emits — at the
//! cost of parsing the whole file on every open.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};

use hspa_phy::harq::HarqStats;

use super::{corrupt_error, validate_record, BackendKind, ChunkId, LenientLoad, StoreBackend};
use crate::json::{self, Value};

/// Append-only JSONL store of per-chunk [`HarqStats`].
#[derive(Debug)]
pub struct JsonlBackend {
    path: PathBuf,
    // determinism: unordered-ok(keyed access only; never iterated — exports re-read the file in line order)
    records: HashMap<ChunkId, HarqStats>,
}

impl JsonlBackend {
    /// Opens (or creates) the store file, loading every valid record.
    /// With `resume == false` an existing file is truncated first.
    pub fn open(path: &Path, resume: bool) -> std::io::Result<Self> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        // `Path::exists` swallows stat errors (it answers `false` for a
        // permission-denied path); query the metadata directly so those
        // errors are distinguishable from a genuinely absent store.
        let exists = match fs::metadata(path) {
            Ok(_) => true,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => false,
            Err(e) => return Err(e),
        };
        if !resume && exists {
            fs::remove_file(path)?;
        }
        if !(resume && exists) {
            // Materialize an empty store eagerly: a campaign whose every
            // chunk is a store hit (or whose shard owns no points) still
            // leaves a well-formed `.jsonl` behind, so shard artifact
            // collection and `campaign-admin merge` never chase a file
            // that only the first miss would have created.
            File::create(path)?;
        }
        // determinism: unordered-ok(keyed access only; never iterated)
        let mut records = HashMap::new();
        if resume && exists {
            let reader = BufReader::new(File::open(path)?);
            for (line_no, line) in reader.lines().enumerate() {
                let line = line?;
                // Torn tails of interrupted runs are skipped, not fatal;
                // records that parse but violate the stats invariants
                // are corruption and must not feed merged statistics.
                match classify_record(&line) {
                    Ok((id, stats)) => {
                        records.insert(id, stats);
                    }
                    Err(LineIssue::Torn) => {
                        crate::telemetry::counter_add(
                            crate::telemetry::Counter::StoreTornTailsDropped,
                            1,
                        );
                    }
                    Err(LineIssue::Corrupt(why)) => {
                        return Err(corrupt_error(path, line_no + 1, &why));
                    }
                }
            }
            // A killed writer can leave the final line without its
            // newline. Terminate it now, or the first fresh append of
            // this (rescue) run would concatenate onto the torn tail
            // and turn a valid new record into a second torn line.
            terminate_torn_tail(path)?;
        }
        Ok(Self {
            path: path.to_path_buf(),
            records,
        })
    }

    /// Attaches to a path for the whole-store scan surface without
    /// loading anything.
    pub fn attach(path: &Path) -> Self {
        Self {
            path: path.to_path_buf(),
            // determinism: unordered-ok(keyed access only; never iterated)
            records: HashMap::new(),
        }
    }
}

impl StoreBackend for JsonlBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Jsonl
    }

    fn path(&self) -> &Path {
        &self.path
    }

    fn len(&self) -> usize {
        self.records.len()
    }

    fn get(&mut self, id: ChunkId) -> Option<HarqStats> {
        self.records.get(&id).cloned()
    }

    fn append(&mut self, id: ChunkId, stats: &HarqStats) -> std::io::Result<()> {
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        let line = encode_record(id, stats);
        if crate::failpoint::armed() {
            let ctx = self.path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if crate::failpoint::should_fire(crate::failpoint::Site::AppendTorn, ctx) {
                // Tear the record mid-write and die, like a SIGKILL
                // landing inside `writeln!`: the half record becomes the
                // file's tail. Continuing instead of exiting would weld
                // the next append onto the torn prefix — precisely the
                // corruption the resume path is hardened against.
                file.write_all(&line.as_bytes()[..line.len() / 2])?;
                file.flush()?;
                std::process::exit(43);
            }
        }
        writeln!(file, "{line}")?;
        self.records.insert(id, stats.clone());
        Ok(())
    }

    fn load_all(&self) -> std::io::Result<(Vec<(ChunkId, HarqStats)>, usize)> {
        let reader = BufReader::new(File::open(&self.path)?);
        let mut records = Vec::new();
        let mut malformed = 0usize;
        for (line_no, line) in reader.lines().enumerate() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            match classify_record(&line) {
                Ok(rec) => records.push(rec),
                Err(LineIssue::Torn) => malformed += 1,
                Err(LineIssue::Corrupt(why)) => {
                    return Err(corrupt_error(&self.path, line_no + 1, &why))
                }
            }
        }
        Ok((records, malformed))
    }

    fn load_all_lenient(&self) -> std::io::Result<LenientLoad> {
        let reader = BufReader::new(File::open(&self.path)?);
        let mut load = LenientLoad::default();
        for line in reader.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            match classify_record(&line) {
                Ok(rec) => load.records.push(rec),
                Err(LineIssue::Torn) => load.torn_lines += 1,
                Err(LineIssue::Corrupt(_)) => load.corrupt_records += 1,
            }
        }
        Ok(load)
    }

    fn replace_all(&mut self, records: &[(ChunkId, HarqStats)]) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, stats) in records {
            out.push_str(&encode_record(*id, stats));
            out.push('\n');
        }
        crate::atomic_write(&self.path, out.as_bytes())?;
        self.records = records.iter().cloned().collect();
        Ok(())
    }
}

/// Renders one chunk record as a single JSON line.
fn encode_record(id: ChunkId, stats: &HarqStats) -> String {
    let failures: Vec<String> = stats.failures_at.iter().map(|f| f.to_string()).collect();
    format!(
        "{{\"point\":\"{:016x}\",\"first\":{},\"len\":{},\"packets\":{},\"delivered\":{},\"transmissions\":{},\"info_bits\":{},\"failures_at\":[{}]}}",
        id.point,
        id.first_packet,
        id.n_packets,
        stats.packets,
        stats.delivered,
        stats.transmissions,
        stats.info_bits,
        failures.join(",")
    )
}

/// Appends a newline to `path` if its last byte is not one (the tail a
/// `SIGKILL` mid-`writeln` leaves), so subsequent appends start on a
/// fresh line. The torn line itself stays in place — it is skipped on
/// every load and `campaign-admin gc` drops it.
fn terminate_torn_tail(path: &Path) -> std::io::Result<()> {
    use std::io::{Read, Seek, SeekFrom};
    let mut file = OpenOptions::new().read(true).append(true).open(path)?;
    if file.seek(SeekFrom::End(0))? == 0 {
        return Ok(());
    }
    file.seek(SeekFrom::End(-1))?;
    let mut last = [0u8; 1];
    file.read_exact(&mut last)?;
    if last != [b'\n'] {
        file.write_all(b"\n")?;
    }
    Ok(())
}

/// Why a store line was rejected: torn lines (truncated writes — a
/// field is missing or unparseable) are routine and tolerated; corrupt
/// records parse fully but violate the stats invariants, so using them
/// would poison merged statistics.
enum LineIssue {
    Torn,
    Corrupt(String),
}

/// Parses the raw fields of a record line; `None` when the line is not
/// one complete JSON object or a field is missing or mistyped (torn
/// tail). Invariants between the fields are **not** checked here — that
/// is [`classify_record`]'s job, so the strict loaders can distinguish a
/// routine torn line from corruption.
fn parse_record(line: &str) -> Option<(ChunkId, HarqStats)> {
    let record = json::parse(line).ok()?;
    let field = |name: &str| record.get(name).and_then(Value::as_u64);
    let id = ChunkId {
        point: u64::from_str_radix(record.get("point")?.as_str()?, 16).ok()?,
        first_packet: field("first")? as usize,
        n_packets: field("len")? as usize,
    };
    let stats = HarqStats {
        packets: field("packets")?,
        delivered: field("delivered")?,
        transmissions: field("transmissions")?,
        info_bits: field("info_bits")?,
        failures_at: record
            .get("failures_at")?
            .as_array()?
            .iter()
            .map(Value::as_u64)
            .collect::<Option<_>>()?,
    };
    Some((id, stats))
}

/// Parses and range-validates one store line.
fn classify_record(line: &str) -> Result<(ChunkId, HarqStats), LineIssue> {
    let (id, stats) = parse_record(line).ok_or(LineIssue::Torn)?;
    validate_record(id, &stats).map_err(LineIssue::Corrupt)?;
    Ok((id, stats))
}

#[cfg(test)]
mod tests {
    use super::super::{load_all, load_all_lenient, sample_stats, temp_store_path, write_records};
    use super::*;
    use crate::campaign::store::ResultStore;

    #[test]
    fn record_roundtrip() {
        let id = ChunkId {
            point: 0xdead_beef_0123_4567,
            first_packet: 32,
            n_packets: 8,
        };
        let stats = sample_stats();
        let line = encode_record(id, &stats);
        let (rid, rstats) = parse_record(&line).expect("parses");
        assert_eq!(rid, id);
        assert_eq!(rstats, stats);
    }

    #[test]
    fn malformed_lines_are_skipped() {
        assert!(parse_record("").is_none());
        assert!(parse_record("{\"point\":\"zz\"}").is_none());
        let id = ChunkId {
            point: 0xdead_beef_0123_4567,
            first_packet: 1 << 40,
            n_packets: 8,
        };
        let full = encode_record(id, &sample_stats());
        // A write torn anywhere (even one that lost only the closing
        // brace) is a torn line, never a record; no corruption panics.
        for prefix in crate::json::strict_prefixes(&full) {
            assert!(
                matches!(classify_record(prefix), Err(LineIssue::Torn)),
                "{prefix}"
            );
        }
        for flipped in crate::json::bit_flips(&full) {
            let _ = classify_record(&flipped);
        }
    }

    #[test]
    fn invariant_violations_classify_as_corrupt_not_torn() {
        let id = ChunkId {
            point: 1,
            first_packet: 0,
            n_packets: 8,
        };
        // Packet-count mismatch against the chunk range.
        let mut wrong_len = sample_stats();
        wrong_len.packets = 9;
        assert!(matches!(
            classify_record(&encode_record(id, &wrong_len)),
            Err(LineIssue::Corrupt(_))
        ));
        // delivered > packets would underflow `packets - delivered`.
        let mut inverted = sample_stats();
        inverted.delivered = inverted.packets + 1;
        let Err(LineIssue::Corrupt(why)) = classify_record(&encode_record(id, &inverted)) else {
            panic!("delivered > packets must classify as corrupt");
        };
        assert!(why.contains("underflow"), "{why}");
        // A range whose end overflows `usize` would wrap the chunk-cover
        // search in `verify`/`gc`; it parses but must classify corrupt.
        let overflowing = ChunkId {
            point: 1,
            first_packet: 8,
            n_packets: usize::MAX,
        };
        let mut huge = sample_stats();
        huge.packets = u64::MAX;
        let Err(LineIssue::Corrupt(why)) = classify_record(&encode_record(overflowing, &huge))
        else {
            panic!("an overflowing chunk range must classify as corrupt");
        };
        assert!(why.contains("overflows"), "{why}");
    }

    #[test]
    fn corrupt_records_are_a_load_error_pointing_at_gc() {
        let path = temp_store_path("corrupt", "jsonl");
        let _ = fs::remove_file(&path);
        let id = ChunkId {
            point: 3,
            first_packet: 0,
            n_packets: 8,
        };
        let mut bad = sample_stats();
        bad.delivered = bad.packets + 4;
        let good = encode_record(
            ChunkId {
                point: 4,
                first_packet: 0,
                n_packets: 8,
            },
            &sample_stats(),
        );
        fs::write(&path, format!("{good}\n{}\n", encode_record(id, &bad))).unwrap();

        // Both strict loaders refuse, naming the recovery tool and the
        // offending line.
        let err = load_all(&path).unwrap_err();
        assert!(err.to_string().contains("campaign-admin gc"), "{err}");
        assert!(err.to_string().contains(":2:"), "{err}");
        let err = ResultStore::open(&path, true).unwrap_err();
        assert!(err.to_string().contains("campaign-admin gc"), "{err}");

        // The lenient loader (gc's entry) drops and counts it.
        let load = load_all_lenient(&path).unwrap();
        assert_eq!(load.records.len(), 1);
        assert_eq!((load.torn_lines, load.corrupt_records), (0, 1));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn resumed_store_never_appends_onto_a_torn_tail() {
        // A SIGKILL mid-writeln leaves a final line without its
        // newline; a rescue leg resuming that store must not weld its
        // first fresh record onto the torn prefix.
        let path = temp_store_path("torn-tail", "jsonl");
        let _ = fs::remove_file(&path);
        let id = ChunkId {
            point: 9,
            first_packet: 0,
            n_packets: 8,
        };
        let torn = &encode_record(id, &sample_stats())[..30];
        fs::write(&path, torn).unwrap(); // no trailing newline
        let fresh = ChunkId {
            point: 10,
            first_packet: 0,
            n_packets: 8,
        };
        {
            let mut store = ResultStore::open(&path, true).unwrap();
            assert!(store.is_empty(), "torn line is not a record");
            store.put(fresh, &sample_stats()).unwrap();
        }
        let (records, malformed) = load_all(&path).unwrap();
        assert_eq!(malformed, 1, "torn prefix stays torn");
        assert_eq!(records, vec![(fresh, sample_stats())]);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn load_all_keeps_duplicates_and_counts_malformed() {
        let path = temp_store_path("load-all", "jsonl");
        let _ = fs::remove_file(&path);
        let id = ChunkId {
            point: 7,
            first_packet: 0,
            n_packets: 8,
        };
        let mut store = ResultStore::open(&path, true).unwrap();
        store.put(id, &sample_stats()).unwrap();
        store.put(id, &sample_stats()).unwrap();
        fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .and_then(|mut f| writeln!(f, "{{torn"))
            .unwrap();
        let (records, malformed) = load_all(&path).unwrap();
        assert_eq!(records.len(), 2, "duplicates preserved");
        assert_eq!(malformed, 1);

        // write_records round-trips the exact record list.
        write_records(&path, &records[..1]).unwrap();
        let (rewritten, malformed) = load_all(&path).unwrap();
        assert_eq!(rewritten, records[..1]);
        assert_eq!(malformed, 0);
        let _ = fs::remove_file(&path);
    }
}
