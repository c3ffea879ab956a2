//! Serde round-trips: the derives on the public types are part of the
//! API contract (datasets, reports and configs must be archivable), so
//! every major structure must survive a JSON round-trip unchanged.

mod common;

use retrodns::core::pipeline::{PipelineConfig, Report};
use retrodns::scan::ScanDataset;
use retrodns::sim::{GroundTruth, SimConfig, World};
use retrodns::types::{Asn, Day, DomainName, Ipv4Addr, Ipv4Prefix, StudyWindow};

fn roundtrip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let json = serde_json::to_string(value).expect("serialize");
    serde_json::from_str(&json).expect("deserialize")
}

#[test]
fn value_types_round_trip() {
    let day: Day = "2020-12-21".parse().unwrap();
    assert_eq!(roundtrip(&day), day);
    let asn = Asn(20473);
    assert_eq!(roundtrip(&asn), asn);
    let ip: Ipv4Addr = "94.103.91.159".parse().unwrap();
    assert_eq!(roundtrip(&ip), ip);
    let prefix: Ipv4Prefix = "95.179.128.0/18".parse().unwrap();
    assert_eq!(roundtrip(&prefix), prefix);
    let name: DomainName = "mail.mfa.gov.kg".parse().unwrap();
    assert_eq!(roundtrip(&name), name);
    let window = StudyWindow::default();
    assert_eq!(roundtrip(&window), window);
}

#[test]
fn scan_dataset_round_trips() {
    let world = World::build(SimConfig::small(200));
    let dataset = world.scan();
    let back: ScanDataset = roundtrip(&dataset);
    assert_eq!(back, dataset);
}

#[test]
fn report_and_ground_truth_round_trip() {
    let world = World::build(SimConfig::small(201));
    let observations = common::observations_of(&world);
    let pipeline = common::pipeline_for(&world);
    let report = pipeline.run(&common::InputsBuilder::new(&world, &observations).build());
    let back: Report = roundtrip(&report);
    assert_eq!(back.hijacked_domains(), report.hijacked_domains());
    assert_eq!(back.targeted_domains(), report.targeted_domains());
    assert_eq!(back.funnel.shortlisted, report.funnel.shortlisted);

    let gt: GroundTruth = roundtrip(&world.ground_truth);
    assert_eq!(gt.hijacked.len(), world.ground_truth.hijacked.len());

    let cfg: PipelineConfig = roundtrip(&pipeline.config);
    assert_eq!(
        cfg.classify.transient_max_days,
        pipeline.config.classify.transient_max_days
    );
    let sim_cfg: SimConfig = roundtrip(&world.config);
    assert_eq!(sim_cfg.n_domains, world.config.n_domains);
}

#[test]
fn observation_archives_round_trip() {
    let world = World::build(SimConfig::small(202));
    let pdns: retrodns::dns::PassiveDns = roundtrip(&world.pdns);
    assert_eq!(pdns.len(), world.pdns.len());
    let zones: retrodns::dns::ZoneSnapshotArchive = roundtrip(&world.zones);
    assert_eq!(zones.access_count(), world.zones.access_count());
    let dnssec: retrodns::dns::DnssecArchive = roundtrip(&world.dnssec);
    assert_eq!(dnssec.len(), world.dnssec.len());
}

/// Bytes of every file `retrodns simulate --domains 300 --seed 7` writes:
/// (name, length, `bytes_hash`). Any change to field order, map-key
/// order, number or string rendering shows up here.
const SIMULATE_300_SEED_7: [(&str, usize, u64); 10] = [
    ("asdb.json", 8577, 0x33bf541da4274b55),
    ("certs.json", 407387, 0x4580a4b7115eda40),
    ("crtsh.json", 547189, 0x910a176587827838),
    ("dnssec.json", 15638, 0xde0aa0b3ba67f68e),
    ("meta.json", 54388, 0xc8cd38018649b55b),
    ("pdns.json", 73869, 0x3d8013a3255b8c21),
    ("scans.json", 10607736, 0xad96c265b17c4310),
    ("trust.json", 351, 0xd48e09ad1513cc0a),
    ("truth.json", 661, 0x8aeb2c7d723ef11a),
    ("zones.json", 8122, 0x6f4f69bf62ee0b44),
];

/// Mirror of the CLI's private `truth.json` sidecar.
#[derive(serde::Serialize, serde::Deserialize)]
struct TruthFile {
    hijacked: Vec<DomainName>,
    targeted: Vec<DomainName>,
}

/// `from_slice` then `to_vec` must give back exactly the input bytes.
fn reserializes<T>(name: &str, bytes: &[u8])
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let value: T = serde_json::from_slice(bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
    let again = serde_json::to_vec(&value).expect("serialize");
    assert!(again == bytes, "{name} does not re-serialize byte for byte");
}

#[test]
fn simulate_output_bytes_are_pinned_and_reserialize_exactly() {
    use std::collections::HashMap;

    let dir = std::env::temp_dir().join(format!("retrodns-pinned-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_retrodns"))
        .args(["simulate", "--domains", "300", "--seed", "7", "--out"])
        .arg(&dir)
        .output()
        .expect("run simulate");
    assert!(
        out.status.success(),
        "simulate failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut written: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    written.sort();
    let pinned: Vec<&str> = SIMULATE_300_SEED_7.iter().map(|(n, _, _)| *n).collect();
    assert_eq!(written, pinned, "simulate writes a different file set");

    for (name, len, hash) in SIMULATE_300_SEED_7 {
        let bytes = std::fs::read(dir.join(name)).unwrap();
        assert_eq!(bytes.len(), len, "{name} length");
        assert_eq!(retrodns::types::bytes_hash(&bytes), hash, "{name} hash");
        match name {
            "asdb.json" => reserializes::<retrodns::asdb::AsDatabase>(name, &bytes),
            "certs.json" => reserializes::<
                HashMap<retrodns::cert::CertId, retrodns::cert::Certificate>,
            >(name, &bytes),
            "crtsh.json" => reserializes::<retrodns::cert::CrtShIndex>(name, &bytes),
            "dnssec.json" => reserializes::<retrodns::dns::DnssecArchive>(name, &bytes),
            "meta.json" => reserializes::<Vec<retrodns::sim::DomainMeta>>(name, &bytes),
            "pdns.json" => reserializes::<retrodns::dns::PassiveDns>(name, &bytes),
            "scans.json" => reserializes::<ScanDataset>(name, &bytes),
            "trust.json" => reserializes::<retrodns::cert::TrustStore>(name, &bytes),
            "truth.json" => reserializes::<TruthFile>(name, &bytes),
            "zones.json" => reserializes::<retrodns::dns::ZoneSnapshotArchive>(name, &bytes),
            other => panic!("no type for {other}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pretty_job_files_are_pinned() {
    use retrodns::serve::{JobSpec, JobState, JobStatus};

    let spec = JobSpec {
        id: "job-7".into(),
        data_dir: "/data/\"quoted\"\tdir".into(),
        workers: 8,
        dnssec_signal: true,
        max_weeks: 111,
        week_delay_ms: 0,
    };
    let spec_json = serde_json::to_string_pretty(&spec).unwrap();
    assert_eq!(
        spec_json,
        "{\n  \"id\": \"job-7\",\n  \"data_dir\": \"/data/\\\"quoted\\\"\\tdir\",\n  \
         \"workers\": 8,\n  \"dnssec_signal\": true,\n  \"max_weeks\": 111,\n  \
         \"week_delay_ms\": 0\n}"
    );
    assert_eq!(
        (
            spec_json.len(),
            retrodns::types::bytes_hash(spec_json.as_bytes())
        ),
        (141, 0x4bdb2e5760ffbdb5)
    );

    let status = JobStatus {
        id: "job-7".into(),
        state: JobState::Degraded,
        weeks_done: 111,
        weeks_total: 222,
        resumed_weeks: 3,
        error: String::new(),
        hijacked: 12,
        targeted: 4,
        degraded: 1,
    };
    let status_json = serde_json::to_string_pretty(&status).unwrap();
    assert_eq!(
        status_json,
        "{\n  \"id\": \"job-7\",\n  \"state\": \"Degraded\",\n  \"weeks_done\": 111,\n  \
         \"weeks_total\": 222,\n  \"resumed_weeks\": 3,\n  \"error\": \"\",\n  \
         \"hijacked\": 12,\n  \"targeted\": 4,\n  \"degraded\": 1\n}"
    );
    assert_eq!(
        (
            status_json.len(),
            retrodns::types::bytes_hash(status_json.as_bytes())
        ),
        (174, 0x2f784e70dde587af)
    );
}

/// Serialize, parse back and serialize again, compact and pretty: every
/// pass must print the same text.
fn stable<T>(name: &str, value: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let compact = serde_json::to_string(value).expect("serialize");
    let back: T = serde_json::from_str(&compact).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(serde_json::to_string(&back).unwrap(), compact, "{name}");
    let pretty = serde_json::to_string_pretty(value).expect("serialize pretty");
    let from_pretty: T = serde_json::from_str(&pretty).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(
        serde_json::to_string(&from_pretty).unwrap(),
        compact,
        "{name} (pretty)"
    );
    back
}

#[test]
fn every_derived_type_family_round_trips() {
    use retrodns::core::IncrementalAnalyzer;
    use retrodns::serve::{JobSpec, JobState, JobStatus, VerdictEvent};
    use retrodns::sim::{ChaosPlan, FaultKind, FaultPlan, SourceFaultKind, SourceFaultPlan};

    let world = World::build(SimConfig::small(203));
    stable("SimConfig", &world.config);
    stable("DomainMeta", &world.meta);
    stable("DomainPlan", &world.plans);
    stable("TrustStore", &world.trust);
    stable("CtLog", &world.ct);
    stable("CrtShIndex", &world.crtsh);
    stable("RevocationRegistry", &world.revocations);
    stable("certs (HashMap<CertId, _>)", &world.certs);
    stable("ServerFarm", &world.farm);
    stable("DnsDb", &world.dns);
    stable("ZoneSnapshotArchive (HashSet)", &world.zones);
    stable("DnssecArchive", &world.dnssec);
    stable("GroundTruth", &world.ground_truth);
    stable("CampaignPlan", &world.campaigns);
    stable("AsDatabase", &world.geo.asdb);
    let pdns = stable("PassiveDns (from/into proxy)", &world.pdns);
    assert_eq!(pdns.len(), world.pdns.len());
    stable("FaultPlan", &FaultPlan::all(203));
    stable("FaultKind", &FaultKind::DropScanWeek);
    stable(
        "SourceFaultPlan",
        &SourceFaultPlan::outage(203, "pdns", SourceFaultKind::ErrorBurst),
    );
    stable("ChaosPlan", &ChaosPlan::generate(203, 3, 2, 20));

    // Pipeline configuration, report and verdicts.
    let observations = common::observations_of(&world);
    stable("DomainObservation", &observations[..50].to_vec());
    let mut config = PipelineConfig {
        window: world.config.window.clone(),
        workers: 3,
        ..PipelineConfig::default()
    };
    config.inspect.use_dnssec_signal = true;
    config.inspect.sparse_ns_max_density = 0.125;
    let cfg = stable("PipelineConfig", &config);
    assert_eq!(cfg.inspect.sparse_ns_max_density, 0.125);
    let pipeline = retrodns::core::Pipeline::new(config.clone());
    let report = pipeline.run(&common::inputs_for(&world, &observations));
    assert!(
        !report.hijacked.is_empty(),
        "the world should plant hijacks"
    );
    let back = stable("Report", &report);
    assert_eq!(back.hijacked_domains(), report.hijacked_domains());
    stable("FunnelStats", &report.funnel);

    // Serve job files and events.
    let spec = JobSpec {
        id: "j1".into(),
        data_dir: "/data".into(),
        workers: 2,
        dnssec_signal: true,
        max_weeks: 9,
        week_delay_ms: 5,
    };
    stable("JobSpec", &spec);
    for state in [
        JobState::Queued,
        JobState::Running,
        JobState::Done,
        JobState::Degraded,
        JobState::Failed,
        JobState::Cancelled,
    ] {
        assert_eq!(stable("JobState", &state), state);
        let status = JobStatus {
            id: "j1".into(),
            state,
            weeks_done: 4,
            weeks_total: 9,
            resumed_weeks: 1,
            error: "e".into(),
            hijacked: 2,
            targeted: 1,
            degraded: 0,
        };
        assert_eq!(stable("JobStatus", &status).state, state);
    }
    for detection in ["", "T1"] {
        let event = VerdictEvent {
            seq: 7,
            job: "j1".into(),
            week: 3,
            date: "2020-12-21".parse().unwrap(),
            domain: "mfa.gov.kg".into(),
            kind: "hijacked".into(),
            scope: "week".into(),
            detection: detection.into(),
        };
        assert_eq!(stable("VerdictEvent", &event).detection, detection);
    }

    // Week deltas and the stream checkpoint record: every file a
    // checkpoint writes re-serializes byte for byte, and resuming from it
    // restores the same report.
    let mut analyzer = IncrementalAnalyzer::new(config.clone());
    let inputs = common::inputs_for(&world, &observations);
    for week in retrodns::core::week_batches(&observations).iter().take(30) {
        let delta = analyzer.ingest_week(week, &inputs);
        stable("WeekDelta", &delta);
    }
    let dir = std::env::temp_dir().join(format!("retrodns-roundtrip-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = retrodns::core::CheckpointStore::open(&dir).unwrap();
    analyzer.checkpoint(&store).unwrap();
    let mut json_files = 0;
    let mut pending = vec![dir.clone()];
    while let Some(path) = pending.pop() {
        for entry in std::fs::read_dir(&path).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                pending.push(path);
            } else if path.extension().is_some_and(|e| e == "json") {
                let bytes = std::fs::read(&path).unwrap();
                let tree: serde::Value = serde_json::from_slice(&bytes).unwrap();
                assert!(
                    serde_json::to_vec(&tree).unwrap() == bytes,
                    "{} does not re-serialize",
                    path.display()
                );
                json_files += 1;
            }
        }
    }
    assert_eq!(json_files, 1, "a checkpoint commits one JSON file");
    let resumed = IncrementalAnalyzer::resume(config, &store).expect("checkpoint resumes");
    assert_eq!(
        serde_json::to_string(resumed.report()).unwrap(),
        serde_json::to_string(analyzer.report()).unwrap()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn named_default_function_fills_a_missing_field() {
    use retrodns::core::inspect::InspectConfig;

    let mut tree: serde::Value =
        serde_json::from_str(&serde_json::to_string(&InspectConfig::default()).unwrap()).unwrap();
    let serde::Value::Object(entries) = &mut tree else {
        panic!("InspectConfig serializes as an object");
    };
    entries.retain(|(k, _)| k != "sparse_ns_max_density");
    let config: InspectConfig =
        serde_json::from_str(&serde_json::to_string(&tree).unwrap()).unwrap();
    assert_eq!(config.sparse_ns_max_density, 0.05);
    assert_eq!(
        config.sparse_ns_max_density,
        InspectConfig::default().sparse_ns_max_density
    );
}
