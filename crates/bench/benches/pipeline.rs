//! End-to-end pipeline rates: profiling phase, benchmark slots, and the
//! full faultload generation flow (the feasibility numbers of §4).

use criterion::{criterion_group, criterion_main, Criterion};
use depbench::{profile_servers, Campaign, CampaignConfig, IntervalConfig, ProfilePhaseConfig};
use simkit::SimDuration;
use simos::{Edition, Os};
use swfit_core::Scanner;
use webserver::ServerKind;

fn quick_campaign_config() -> CampaignConfig {
    CampaignConfig {
        interval: IntervalConfig {
            duration: SimDuration::from_millis(250),
            ..IntervalConfig::default()
        },
        ..CampaignConfig::default()
    }
}

fn bench_profile_phase(c: &mut Criterion) {
    let cfg = ProfilePhaseConfig {
        duration: SimDuration::from_millis(250),
        ..ProfilePhaseConfig::default()
    };
    c.bench_function("profile_phase_four_servers", |b| {
        b.iter(|| profile_servers(Edition::Nimbus2000, &ServerKind::ALL, &cfg))
    });
}

fn bench_faultload_generation(c: &mut Criterion) {
    // The whole step-1 flow: boot, profile-restricted scan. The paper
    // reports "less than 5 minutes" for this on a real OS.
    let api = simos::OsApi::symbols();
    c.bench_function("faultload_generation_end_to_end", |b| {
        b.iter(|| {
            let os = Os::boot(Edition::Nimbus2000).expect("boots");
            Scanner::standard().scan_functions(os.program().image(), &api)
        })
    });
}

fn bench_baseline_slot(c: &mut Criterion) {
    let campaign = Campaign::new(
        Edition::Nimbus2000,
        ServerKind::Heron,
        quick_campaign_config(),
    );
    c.bench_function("baseline_run_8_slots", |b| {
        b.iter(|| campaign.run_baseline(0))
    });
}

fn bench_injection_slots(c: &mut Criterion) {
    let campaign = Campaign::new(
        Edition::Nimbus2000,
        ServerKind::Wren,
        quick_campaign_config(),
    );
    let os = Os::boot(Edition::Nimbus2000).expect("boots");
    let mut faultload = Scanner::standard().scan_image(os.program().image());
    faultload.faults.truncate(10);
    c.bench_function("injection_campaign_10_slots", |b| {
        b.iter(|| campaign.run_injection(&faultload, 0))
    });
}

fn bench_parallel_injection(c: &mut Criterion) {
    // The executor speedup probe: the same 16-fault campaign at 1 worker
    // and at the host's core count. Results are bit-identical (see the
    // integration tests); only wall-clock should change.
    let os = Os::boot(Edition::Nimbus2000).expect("boots");
    let mut faultload = Scanner::standard().scan_image(os.program().image());
    faultload.faults.truncate(16);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    for jobs in [1, cores] {
        let cfg = CampaignConfig {
            parallelism: jobs,
            ..quick_campaign_config()
        };
        let campaign = Campaign::new(Edition::Nimbus2000, ServerKind::Wren, cfg);
        c.bench_function(&format!("injection_campaign_16_slots_jobs_{jobs}"), |b| {
            b.iter(|| campaign.run_injection(&faultload, 0))
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_profile_phase,
        bench_faultload_generation,
        bench_baseline_slot,
        bench_injection_slots,
        bench_parallel_injection
}
criterion_main!(benches);
