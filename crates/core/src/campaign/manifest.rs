//! Campaign manifest: a machine-readable summary of what a campaign ran.
//!
//! Every [`super::Campaign`] rewrites `<store_dir>/<name>.manifest.json`
//! after each run call with cumulative totals (chunks simulated vs served
//! from the store, packets realized vs the fixed budget) plus one record
//! per operating point with its achieved confidence interval. The bench
//! binaries print their summary from this file, the CI resume-smoke job
//! asserts on its store-hit rate, and future multi-host sharding work is
//! expected to partition points by walking this manifest.

use std::fs;
use std::path::Path;

use super::controller::CampaignSettings;
use super::shard::ShardSpec;
use super::store::BackendKind;
use super::PointOutcome;
use crate::json::{self, Value};

/// One point entry of the manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct PointRecord {
    /// Position of the point in the campaign's full (shard-global)
    /// enumeration order — what [`super::shard::merge`] sorts by to
    /// reassemble the single-host manifest.
    pub index: u64,
    /// The point's stable store key ([`super::hash::point_key`]), tying
    /// the manifest entry to its chunks in the result store.
    pub key: u64,
    /// Human-readable point label (storage + SNR).
    pub label: String,
    /// Operating SNR (dB).
    pub snr_db: f64,
    /// Realized packet count.
    pub packets: usize,
    /// The point's maximum budget.
    pub max_packets: usize,
    /// Final BLER estimate.
    pub bler: f64,
    /// 95 % Wilson interval on the BLER.
    pub ci: (f64, f64),
    /// Achieved relative half-width (the `--precision` metric).
    pub rel_half_width: f64,
    /// Whether the stopping rule was met before the budget cap.
    pub converged: bool,
    /// Chunks executed for this point.
    pub chunks: usize,
    /// Of those, chunks served from the result store.
    pub chunks_from_store: usize,
    /// Packets served from the result store (the packet-weighted view
    /// of `chunks_from_store` — chunks double in size, so the chunk
    /// ratio alone understates how much work resume actually saved).
    pub packets_from_store: usize,
}

impl PointRecord {
    /// Builds a record from a finished point outcome at the given
    /// shard-global enumeration index.
    pub fn from_outcome(o: &PointOutcome, index: u64) -> Self {
        Self {
            index,
            key: o.key,
            label: o.label.clone(),
            snr_db: o.snr_db,
            packets: o.packets(),
            max_packets: o.max_packets,
            bler: o.check.bler,
            ci: o.check.ci,
            rel_half_width: o.check.rel_half_width,
            converged: o.converged,
            chunks: o.chunks,
            chunks_from_store: o.chunks_from_store,
            packets_from_store: o.packets_from_store,
        }
    }

    /// Renders the record as one manifest line (no trailing comma). The
    /// constant `"tier": "exact"` field keeps manifests byte-identical
    /// to those written when the decoder had several accuracy tiers.
    fn render(&self) -> String {
        let mut label = String::new();
        json::write_str(&mut label, &self.label);
        format!(
            "{{\"index\": {}, \"key\": \"{:016x}\", \"label\": {label}, \"snr_db\": {}, \"packets\": {}, \"max\": {}, \"bler\": {:.6}, \"ci_lo\": {:.6}, \"ci_hi\": {:.6}, \"rel_hw\": {:.4}, \"converged\": {}, \"chunks\": {}, \"chunks_store\": {}, \"packets_store\": {}, \"tier\": \"exact\"}}",
            self.index,
            self.key,
            self.snr_db,
            self.packets,
            self.max_packets,
            self.bler,
            self.ci.0,
            self.ci.1,
            self.rel_half_width,
            self.converged,
            self.chunks,
            self.chunks_from_store,
            self.packets_from_store,
        )
    }

    /// Parses one manifest point line (as written by
    /// [`PointRecord::render`]); `None` on malformed input, and on a
    /// point simulated at a retired decoder tier (any `"tier"` other
    /// than `"exact"`), which re-rendering would silently relabel.
    ///
    /// Round-trip stability matters here: `render(parse(line)) == line`
    /// for every line `render` produced, because the shard merge
    /// re-renders parsed records and the merged manifest must be
    /// byte-identical to a single-host run's.
    pub fn parse(line: &str) -> Option<Self> {
        Self::from_json(&json::parse(line.trim().trim_end_matches(',')).ok()?)
    }

    /// Reads one parsed point object; `None` when a field is missing or
    /// mistyped, or the tier is not `"exact"`.
    fn from_json(point: &Value) -> Option<Self> {
        // Manifests written before the tier field existed have none.
        if point
            .get("tier")
            .is_some_and(|t| t.as_str() != Some("exact"))
        {
            return None;
        }
        let u = |name: &str| point.get(name).and_then(Value::as_u64);
        let f = |name: &str| point.get(name).and_then(Value::as_f64);
        Some(Self {
            index: u("index")?,
            key: u64::from_str_radix(point.get("key")?.as_str()?, 16).ok()?,
            label: point.get("label")?.as_str()?.to_owned(),
            snr_db: f("snr_db")?,
            packets: u("packets")? as usize,
            max_packets: u("max")? as usize,
            bler: f("bler")?,
            ci: (f("ci_lo")?, f("ci_hi")?),
            rel_half_width: f("rel_hw")?,
            converged: point.get("converged")?.as_bool()?,
            chunks: u("chunks")? as usize,
            chunks_from_store: u("chunks_store")? as usize,
            // Lenient: manifests written before the field existed parse
            // as zero (the merge then re-renders them with it).
            packets_from_store: u("packets_store").unwrap_or(0) as usize,
        })
    }
}

/// Cumulative manifest of one campaign (possibly several run calls).
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Campaign name (also the store/manifest file stem).
    pub name: String,
    /// Controller settings of the campaign.
    pub settings: CampaignSettings,
    /// Points **enumerated** so far, across every shard: a sharded run
    /// records only the points it owns in [`Manifest::points`], but
    /// still counts every point it saw, so shard manifests agree on the
    /// global index space and the merge can prove completeness.
    pub points_enumerated: u64,
    /// Every point run (and owned) so far.
    pub points: Vec<PointRecord>,
}

impl Manifest {
    /// An empty manifest.
    pub fn new(name: impl Into<String>, settings: CampaignSettings) -> Self {
        Self {
            name: name.into(),
            settings,
            points_enumerated: 0,
            points: Vec::new(),
        }
    }

    /// Aggregated totals over all points.
    pub fn totals(&self) -> ManifestTotals {
        ManifestTotals::over(self.points.iter())
    }

    /// Renders the manifest as pretty-printed JSON. The format strings
    /// are the byte contract (manifest digests, byte-identical merges);
    /// string values go through [`json::write_str`].
    ///
    /// The `"shard"` line appears only in per-shard manifests, so a
    /// merged manifest (shard cleared) can be byte-identical to a
    /// single-host run's.
    pub fn render_json(&self) -> String {
        let t = self.totals();
        let mut out = String::from("{\n");
        out.push_str("  \"campaign\": ");
        json::write_str(&mut out, &self.name);
        out.push_str(",\n");
        out.push_str(&format!(
            "  \"settings\": {{\"precision\": {}, \"bler_floor\": {}, \"initial_chunk\": {}, \"target_ci\": {}}},\n",
            self.settings.precision,
            self.settings.bler_floor,
            self.settings.initial_chunk,
            self.settings.target_ci
        ));
        if self.settings.shard.is_sharded() {
            out.push_str(&format!("  \"shard\": \"{}\",\n", self.settings.shard));
        }
        out.push_str(&format!(
            "  \"points_enumerated\": {},\n",
            self.points_enumerated
        ));
        out.push_str(&format!("  \"points_total\": {},\n", t.points_total));
        out.push_str(&format!(
            "  \"points_converged\": {},\n",
            t.points_converged
        ));
        out.push_str(&format!("  \"total_chunks\": {},\n", t.total_chunks));
        out.push_str(&format!("  \"store_chunks\": {},\n", t.store_chunks));
        out.push_str(&format!(
            "  \"realized_packets\": {},\n",
            t.realized_packets
        ));
        out.push_str(&format!("  \"budget_packets\": {},\n", t.budget_packets));
        out.push_str(&format!(
            "  \"saved_vs_fixed\": {:.4},\n",
            t.saved_vs_fixed()
        ));
        out.push_str(&format!(
            "  \"store_hit_rate\": {:.4},\n",
            t.store_hit_rate()
        ));
        out.push_str(&format!("  \"store_packets\": {},\n", t.store_packets));
        out.push_str(&format!(
            "  \"store_packet_rate\": {:.4},\n",
            t.store_packet_rate()
        ));
        out.push_str("  \"points\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            out.push_str(&format!(
                "    {}{}\n",
                p.render(),
                if i + 1 < self.points.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a manifest back from its JSON text — the full inverse of
    /// [`Manifest::render_json`] (the store-side `resume` knob is not
    /// part of the rendered identity and comes back as its default).
    pub fn parse(json: &str) -> Option<Self> {
        let doc = json::parse(json).ok()?;
        let settings = doc.get("settings")?;
        let f = |name: &str| settings.get(name).and_then(Value::as_f64);
        let shard = match doc.get("shard") {
            Some(s) => s.as_str()?.parse::<ShardSpec>().ok()?,
            None => ShardSpec::single(),
        };
        Some(Self {
            name: doc.get("campaign")?.as_str()?.to_owned(),
            settings: CampaignSettings {
                precision: f("precision")?,
                bler_floor: f("bler_floor")?,
                initial_chunk: settings.get("initial_chunk")?.as_u64()? as usize,
                target_ci: f("target_ci")?,
                shard,
                resume: true,
                backend: BackendKind::default(),
            },
            points_enumerated: doc.get("points_enumerated")?.as_u64()?,
            points: doc
                .get("points")?
                .as_array()?
                .iter()
                .map(PointRecord::from_json)
                .collect::<Option<_>>()?,
        })
    }

    /// Reads and parses a manifest file (the admin tooling's entry).
    pub fn read(path: &Path) -> std::io::Result<Self> {
        let json = fs::read_to_string(path)?;
        Self::parse(&json).ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("malformed campaign manifest: {}", path.display()),
            )
        })
    }

    /// Writes the manifest to `path` atomically (temp file + rename):
    /// `campaign-admin merge` parses shard manifests, so a reader must
    /// never see a torn one.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        crate::atomic_write(path, self.render_json().as_bytes())
    }
}

/// Totals block of a manifest (also what
/// [`read_summary`] recovers from disk).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ManifestTotals {
    /// Points run.
    pub points_total: u64,
    /// Points whose stopping rule fired before the budget cap.
    pub points_converged: u64,
    /// Chunk executions (simulated + from store).
    pub total_chunks: u64,
    /// Chunks served from the result store.
    pub store_chunks: u64,
    /// Packets served from the result store.
    pub store_packets: u64,
    /// Packets realized by the adaptive controller.
    pub realized_packets: u64,
    /// Packets a fixed budget would have spent (`Σ max_packets`).
    pub budget_packets: u64,
}

impl ManifestTotals {
    /// Aggregates totals over any set of manifest points — the engine
    /// behind [`Manifest::totals`], and what `campaign-admin query`
    /// uses to summarize a filtered point selection.
    pub fn over<'a>(points: impl IntoIterator<Item = &'a PointRecord>) -> Self {
        let mut t = Self::default();
        for p in points {
            t.points_total += 1;
            t.points_converged += u64::from(p.converged);
            t.total_chunks += p.chunks as u64;
            t.store_chunks += p.chunks_from_store as u64;
            t.store_packets += p.packets_from_store as u64;
            t.realized_packets += p.packets as u64;
            t.budget_packets += p.max_packets as u64;
        }
        t
    }

    /// Fraction of the fixed budget the controller did not need.
    pub fn saved_vs_fixed(&self) -> f64 {
        if self.budget_packets == 0 {
            return 0.0;
        }
        1.0 - self.realized_packets as f64 / self.budget_packets as f64
    }

    /// Fraction of chunk executions served from the store.
    pub fn store_hit_rate(&self) -> f64 {
        if self.total_chunks == 0 {
            return 0.0;
        }
        self.store_chunks as f64 / self.total_chunks as f64
    }

    /// Fraction of realized packets served from the store — the
    /// packet-weighted hit rate the CI resume-smoke job asserts on.
    pub fn store_packet_rate(&self) -> f64 {
        if self.realized_packets == 0 {
            return 0.0;
        }
        self.store_packets as f64 / self.realized_packets as f64
    }
}

/// Summary parsed back from a manifest file.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestSummary {
    /// Campaign name.
    pub name: String,
    /// Aggregated totals.
    pub totals: ManifestTotals,
}

/// Reads the totals block of a manifest file; `None` when the file is
/// missing or malformed.
pub fn read_summary(path: &Path) -> Option<ManifestSummary> {
    let json = fs::read_to_string(path).ok()?;
    let doc = json::parse(&json).ok()?;
    let u = |name: &str| doc.get(name).and_then(Value::as_u64);
    doc.get("saved_vs_fixed")?.as_f64()?;
    Some(ManifestSummary {
        name: doc.get("campaign")?.as_str()?.to_owned(),
        totals: ManifestTotals {
            points_total: u("points_total")?,
            points_converged: u("points_converged")?,
            total_chunks: u("total_chunks")?,
            store_chunks: u("store_chunks")?,
            store_packets: u("store_packets").unwrap_or(0),
            realized_packets: u("realized_packets")?,
            budget_packets: u("budget_packets")?,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_manifest() -> Manifest {
        let mut m = Manifest::new("test", CampaignSettings::default());
        m.points_enumerated = 2;
        m.points.push(PointRecord {
            index: 0,
            key: 0x0123_4567_89ab_cdef,
            label: "quantized @ 18dB".into(),
            snr_db: 18.0,
            packets: 32,
            max_packets: 60,
            bler: 0.0,
            ci: (0.0, 0.107),
            rel_half_width: 0.36,
            converged: true,
            chunks: 1,
            chunks_from_store: 1,
            packets_from_store: 32,
        });
        m.points.push(PointRecord {
            index: 1,
            key: 0xfeed_face_0000_0001,
            label: "6T, Nf=10.00% @ 9dB".into(),
            snr_db: 9.0,
            packets: 60,
            max_packets: 60,
            bler: 0.4,
            ci: (0.29, 0.53),
            rel_half_width: 0.3,
            converged: false,
            chunks: 2,
            chunks_from_store: 0,
            packets_from_store: 0,
        });
        m
    }

    #[test]
    fn totals_aggregate() {
        let t = sample_manifest().totals();
        assert_eq!(t.points_total, 2);
        assert_eq!(t.points_converged, 1);
        assert_eq!(t.total_chunks, 3);
        assert_eq!(t.store_chunks, 1);
        assert_eq!(t.store_packets, 32);
        assert_eq!(t.realized_packets, 92);
        assert_eq!(t.budget_packets, 120);
        assert!((t.saved_vs_fixed() - (1.0 - 92.0 / 120.0)).abs() < 1e-12);
        assert!((t.store_hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert!((t.store_packet_rate() - 32.0 / 92.0).abs() < 1e-12);
    }

    #[test]
    fn json_roundtrip_via_summary() {
        let m = sample_manifest();
        let path = std::env::temp_dir().join(format!(
            "campaign-manifest-test-{}.json",
            std::process::id()
        ));
        m.write(&path).unwrap();
        let summary = read_summary(&path).expect("parses back");
        assert_eq!(summary.name, "test");
        assert_eq!(summary.totals, m.totals());
        let _ = fs::remove_file(&path);
        assert!(read_summary(&path).is_none(), "missing file is None");
    }

    #[test]
    fn empty_manifest_has_zero_rates() {
        let t = Manifest::new("empty", CampaignSettings::default()).totals();
        assert_eq!(t.saved_vs_fixed(), 0.0);
        assert_eq!(t.store_hit_rate(), 0.0);
    }

    #[test]
    fn full_parse_round_trips_to_identical_bytes() {
        // The shard merge re-renders parsed manifests, so
        // render → parse → render must be a byte-level fixed point —
        // including float fields and awkward labels and campaign names
        // (quotes, backslashes, newlines, control and non-ASCII
        // characters, commas, %, @).
        for s in json::awkward_strings().into_iter().chain(["test".into()]) {
            let mut m = sample_manifest();
            m.name = s.clone();
            m.points[1].label = s;
            let json = m.render_json();
            let parsed = Manifest::parse(&json).expect("parses back");
            assert_eq!(parsed, m);
            assert_eq!(parsed.render_json(), json, "render∘parse must be id");
            let line = m.points[1].render();
            let record = PointRecord::parse(&line);
            assert_eq!(record.as_ref(), Some(&m.points[1]));
            assert_eq!(record.map(|r| r.render()), Some(line));
        }
    }

    #[test]
    fn manifest_parse_is_total_and_rejects_torn_or_mistyped_files() {
        let mut sharded = sample_manifest();
        sharded.settings.shard = ShardSpec::new(1, 3).unwrap();
        for json in [sample_manifest().render_json(), sharded.render_json()] {
            // Dropping only the final newline loses nothing; every
            // shorter prefix is a torn write.
            for prefix in json::strict_prefixes(json.trim_end()) {
                assert_eq!(Manifest::parse(prefix), None, "{prefix}");
            }
            for flipped in json::bit_flips(&json) {
                let _ = Manifest::parse(&flipped);
            }
        }
        for spec in ["1/3", "2/4:1/2"] {
            for s in json::strict_prefixes(spec)
                .map(String::from)
                .chain(json::bit_flips(spec))
            {
                let _ = s.parse::<ShardSpec>();
            }
        }
        let json = sample_manifest().render_json();
        for (field, bad) in [
            ("\"points_enumerated\": 2", "\"points_enumerated\": \"2\""),
            ("\"precision\": 0.25", "\"precision\": \"0.25\""),
            ("\"campaign\": \"test\"", "\"campaign\": 7"),
            ("\"converged\": true", "\"converged\": null"),
        ] {
            let stale = json.replace(field, bad);
            assert!(
                stale != json && Manifest::parse(&stale).is_none(),
                "{stale}"
            );
        }
    }

    #[cfg(unix)]
    #[test]
    fn write_replaces_the_file_instead_of_truncating_it() {
        use std::os::unix::fs::MetadataExt;
        let path = std::env::temp_dir().join(format!("manifest-inode-{}.json", std::process::id()));
        let m = sample_manifest();
        m.write(&path).unwrap();
        // The open handle keeps the old inode number from being reused.
        let old = fs::File::open(&path).unwrap();
        m.write(&path).unwrap();
        assert_ne!(
            fs::metadata(&path).unwrap().ino(),
            old.metadata().unwrap().ino()
        );
        assert_eq!(Manifest::read(&path).unwrap(), m);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn sharded_manifest_keeps_its_shard_tag() {
        let mut m = sample_manifest();
        m.settings.shard = ShardSpec::new(1, 3).unwrap();
        m.points.truncate(1);
        let json = m.render_json();
        assert!(json.contains("\"shard\": \"1/3\""));
        let parsed = Manifest::parse(&json).unwrap();
        assert_eq!(parsed.settings.shard, ShardSpec::new(1, 3).unwrap());
        assert_eq!(parsed.points_enumerated, 2);
        assert_eq!(parsed.render_json(), json);
        // The former `i/n:j/m` slice form is no shard spec at all.
        let slice = json.replace("\"shard\": \"1/3\"", "\"shard\": \"1/2:0/3\"");
        assert_ne!(slice, json);
        assert_eq!(Manifest::parse(&slice), None);
    }

    #[test]
    fn point_record_parse_rejects_malformed_lines() {
        let line = sample_manifest().points[1].render();
        assert!(PointRecord::parse(&line).is_some());
        assert!(PointRecord::parse("{}").is_none());
        // Trailing comma (mid-array form) is tolerated.
        assert!(PointRecord::parse(&format!("{line},")).is_some());
        // Torn and mistyped lines are rejected, never defaulted.
        for prefix in json::strict_prefixes(&line) {
            assert!(PointRecord::parse(prefix).is_none(), "{prefix}");
        }
        for (field, bad) in [
            ("\"converged\": false", "\"converged\": \"false\""),
            ("\"converged\": false", "\"converged\": 0"),
            ("\"packets\": 60", "\"packets\": \"60\""),
            ("\"packets\": 60", "\"packets\": 60.5"),
            ("\"bler\": 0.400000", "\"bler\": \"0.4\""),
            ("\"index\": 1", "\"index\": true"),
        ] {
            let stale = line.replace(field, bad);
            assert!(
                stale != line && PointRecord::parse(&stale).is_none(),
                "{stale}"
            );
        }
    }

    #[test]
    fn point_record_parse_rejects_retired_tiers() {
        let line = sample_manifest().points[1].render();
        assert!(line.ends_with(", \"tier\": \"exact\"}"), "{line}");
        for tier in ["\"early-stop\"", "\"fast32\"", "\"\"", "exact", "7"] {
            let stale = line.replace("\"tier\": \"exact\"", &format!("\"tier\": {tier}"));
            assert!(PointRecord::parse(&stale).is_none(), "{stale}");
        }
    }

    #[test]
    fn point_record_parse_accepts_lines_without_a_tier() {
        let record = &sample_manifest().points[1];
        let line = record.render();
        let old = line.replace(", \"tier\": \"exact\"", "");
        assert_ne!(old, line);
        let parsed = PointRecord::parse(&old).expect("pre-tier lines parse");
        assert_eq!(&parsed, record);
        assert_eq!(parsed.render(), line);
    }
}
