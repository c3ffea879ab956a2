//! Criterion benchmarks for the detection pipeline stages, end to end.
//!
//! The paper notes the six-month period length was chosen partly for
//! "compute time to build and analyze deployment maps" — these benches
//! measure exactly that: map construction throughput (serial vs
//! parallel), classification, shortlisting and the full pipeline.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use retrodns_core::classify::{classify, ClassifyConfig};
use retrodns_core::map::MapBuilder;
use retrodns_core::pipeline::{AnalystInputs, Pipeline, PipelineConfig};
use retrodns_core::shortlist::{shortlist, ShortlistConfig};
use retrodns_sim::{SimConfig, World};

struct Fixture {
    world: World,
    observations: Vec<retrodns_scan::DomainObservation>,
}

fn fixture() -> Fixture {
    let world = World::build(SimConfig::small(0xBE11C4));
    let dataset = world.scan();
    let observations = world.observations(&dataset);
    Fixture {
        world,
        observations,
    }
}

fn bench_map_build(c: &mut Criterion) {
    let f = fixture();
    let builder = MapBuilder::new(f.world.config.window.clone());
    let mut group = c.benchmark_group("pipeline");
    group.throughput(Throughput::Elements(f.observations.len() as u64));
    group.sample_size(10);
    group.bench_function("map_build_reference", |b| {
        b.iter(|| builder.build(black_box(&f.observations)).len())
    });
    group.bench_function("map_build_serial", |b| {
        b.iter(|| {
            builder
                .build_sharded_stats(black_box(&f.observations), 1)
                .0
                .len()
        })
    });
    group.bench_function("map_build_parallel4", |b| {
        b.iter(|| {
            builder
                .build_sharded_stats(black_box(&f.observations), 4)
                .0
                .len()
        })
    });
    group.finish();
}

fn bench_parallel_stages(c: &mut Criterion) {
    let f = fixture();
    let serial = Pipeline::new(PipelineConfig {
        window: f.world.config.window.clone(),
        workers: 1,
        ..PipelineConfig::default()
    });
    let parallel = Pipeline::new(PipelineConfig {
        window: f.world.config.window.clone(),
        workers: 4,
        ..PipelineConfig::default()
    });
    let (maps, _) =
        MapBuilder::new(f.world.config.window.clone()).build_sharded_stats(&f.observations, 1);
    let patterns = serial.classify_maps(&maps);
    let shortlisted = shortlist(
        &maps,
        &patterns,
        &f.world.geo.asdb,
        &f.world.certs,
        &ShortlistConfig::default(),
    );
    let inputs = AnalystInputs {
        observations: &f.observations,
        asdb: &f.world.geo.asdb,
        certs: &f.world.certs,
        pdns: &f.world.pdns,
        crtsh: &f.world.crtsh,
        dnssec: Some(&f.world.dnssec),
        source_faults: None,
    };

    let mut group = c.benchmark_group("pipeline");
    group.throughput(Throughput::Elements(maps.len() as u64));
    group.bench_function("classify_stage_serial", |b| {
        b.iter(|| serial.classify_maps(black_box(&maps)).len())
    });
    group.bench_function("classify_stage_parallel4", |b| {
        b.iter(|| parallel.classify_maps(black_box(&maps)).len())
    });
    group.throughput(Throughput::Elements(shortlisted.candidates.len() as u64));
    group.bench_function("inspect_stage_serial", |b| {
        b.iter(|| {
            serial
                .inspect_candidates(black_box(&shortlisted.candidates), &inputs)
                .hijacked
                .len()
        })
    });
    group.bench_function("inspect_stage_parallel4", |b| {
        b.iter(|| {
            parallel
                .inspect_candidates(black_box(&shortlisted.candidates), &inputs)
                .hijacked
                .len()
        })
    });
    group.finish();
}

fn bench_classify_and_shortlist(c: &mut Criterion) {
    let f = fixture();
    let builder = MapBuilder::new(f.world.config.window.clone());
    let (maps, _) = builder.build_sharded_stats(&f.observations, 1);
    let cfg = ClassifyConfig::default();
    let mut group = c.benchmark_group("pipeline");
    group.throughput(Throughput::Elements(maps.len() as u64));
    group.bench_function("classify_all_maps", |b| {
        b.iter(|| {
            maps.iter()
                .map(|m| classify(black_box(m), &cfg))
                .filter(|p| p.category() == "transient")
                .count()
        })
    });
    let patterns: Vec<_> = maps.iter().map(|m| classify(m, &cfg)).collect();
    group.bench_function("shortlist", |b| {
        b.iter(|| {
            shortlist(
                black_box(&maps),
                &patterns,
                &f.world.geo.asdb,
                &f.world.certs,
                &ShortlistConfig::default(),
            )
            .candidates
            .len()
        })
    });
    group.finish();
}

fn bench_full_pipeline(c: &mut Criterion) {
    let f = fixture();
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    for workers in [1usize, 4] {
        let pipeline = Pipeline::new(PipelineConfig {
            window: f.world.config.window.clone(),
            workers,
            ..PipelineConfig::default()
        });
        let id = if workers == 1 {
            "end_to_end_2k_domains".to_string()
        } else {
            format!("end_to_end_2k_domains_parallel{workers}")
        };
        group.bench_function(&id, |b| {
            b.iter(|| {
                pipeline
                    .run(&AnalystInputs {
                        observations: black_box(&f.observations),
                        asdb: &f.world.geo.asdb,
                        certs: &f.world.certs,
                        pdns: &f.world.pdns,
                        crtsh: &f.world.crtsh,
                        dnssec: Some(&f.world.dnssec),
                        source_faults: None,
                    })
                    .hijacked
                    .len()
            })
        });
    }
    group.finish();
}

fn bench_reactive_monitor(c: &mut Criterion) {
    use retrodns_core::reactive::{DelegationProbe, ReactiveConfig, ReactiveMonitor};
    use retrodns_types::{Day, DomainName};
    struct Probe<'a>(&'a retrodns_dns::DnsDb);
    impl DelegationProbe for Probe<'_> {
        fn probe_delegation(&self, domain: &DomainName, day: Day) -> Vec<DomainName> {
            self.0
                .delegation_of(domain, day)
                .map(<[DomainName]>::to_vec)
                .unwrap_or_default()
        }
    }
    let f = fixture();
    let records: Vec<_> = f
        .world
        .ct
        .entries()
        .filter_map(|e| f.world.crtsh.record(e.cert.id))
        .collect();
    let mut group = c.benchmark_group("reactive");
    group.throughput(Throughput::Elements(records.len() as u64));
    group.sample_size(10);
    group.bench_function("ct_stream_full_world", |b| {
        b.iter(|| {
            let mut monitor = ReactiveMonitor::new();
            let probe = Probe(&f.world.dns);
            let cfg = ReactiveConfig::default();
            records
                .iter()
                .filter_map(|r| monitor.on_issuance(black_box(r), &probe, &cfg))
                .count()
        })
    });
    group.finish();
}

fn bench_world_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator");
    group.sample_size(10);
    group.bench_function("world_build_2k_domains", |b| {
        b.iter(|| World::build(SimConfig::small(black_box(7))).certs.len())
    });
    let f = fixture();
    group.bench_function("weekly_scan_4_years", |b| b.iter(|| f.world.scan().len()));
    group.finish();
}

criterion_group!(
    name = pipeline;
    config = Criterion::default().sample_size(20);
    targets = bench_map_build, bench_classify_and_shortlist, bench_parallel_stages, bench_full_pipeline, bench_reactive_monitor, bench_world_build
);
criterion_main!(pipeline);
