//! Scan-phase (G-SWFIT step 1) performance.
//!
//! The paper reports faultload generation took "less than 5 minutes" on the
//! authors' machine for a whole OS; these benches show per-operator and
//! full-library scan cost on our substrate, backing the feasibility claim.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use simos::{Edition, Os};
use swfit_core::{pack, Scanner};

fn bench_full_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("scan_full_library");
    for edition in Edition::ALL {
        let os = Os::boot(edition).expect("boots");
        let image = os.program().image().clone();
        group.bench_with_input(
            BenchmarkId::from_parameter(edition.name()),
            &image,
            |b, image| b.iter(|| Scanner::standard().scan_image(std::hint::black_box(image))),
        );
    }
    group.finish();
}

fn bench_per_operator(c: &mut Criterion) {
    let os = Os::boot(Edition::NimbusXp).expect("boots");
    let image = os.program().image().clone();
    let mut group = c.benchmark_group("scan_per_operator");
    for op in &pack::classic().operators {
        // A single-operator pack, so the measured loop includes the same
        // compile-and-build step a `--pack` user pays.
        let mut single = pack::classic().clone();
        single.operators.retain(|o| o.id == op.id);
        group.bench_function(&op.id, |b| {
            b.iter(|| {
                let scanner = Scanner::builder()
                    .pack(single.clone())
                    .build()
                    .expect("classic subset builds");
                scanner.scan_image(std::hint::black_box(&image))
            })
        });
    }
    group.finish();
}

fn bench_restricted_scan(c: &mut Criterion) {
    let os = Os::boot(Edition::Nimbus2000).expect("boots");
    let image = os.program().image().clone();
    let api = simos::OsApi::symbols();
    c.bench_function("scan_restricted_to_api", |b| {
        b.iter(|| Scanner::standard().scan_functions(std::hint::black_box(&image), &api))
    });
}

criterion_group!(
    benches,
    bench_full_scan,
    bench_per_operator,
    bench_restricted_scan
);
criterion_main!(benches);
