//! Performance gate and trajectory recorder.
//!
//! Times the hot paths the campaign rests on (the VM interpreter, the
//! inject/restore cycle, the store's write and read paths and a short
//! campaign) and emits a machine-readable `BENCH_<date>.json`. In `check`
//! mode it compares against a stored baseline and fails the build when a
//! *gated* metric — the VM interpreter, the inject/restore cycle, the
//! write path or the read path — regresses by more than 20 %; the
//! end-to-end campaign number is recorded for the trajectory but not gated
//! (it folds in too much scheduler noise for a hard gate). `check` also
//! holds four budgets. Three are absolute, uncalibrated: a traced campaign
//! within 1.35× the untraced one, 150 ns per enabled trace emit, and 20 M
//! disabled emits under 1 s. The fourth bounds an XP boot plus scan by the
//! same run's calibration loop: at most 0.5× its time.
//!
//! ```text
//! perfgate record [--out PATH] [--rounds N]
//! perfgate check --baseline PATH [--out PATH] [--rounds N] [--tolerance PCT]
//! ```
//!
//! All timings are minimum-of-N: noise only ever adds time, so the
//! minimum is the closest observable to the true cost.
//!
//! Exit status: 0 = pass, 1 = a gated metric regressed or a budget was
//! exceeded, 2 = usage error (a flag the mode does not read, a malformed
//! flag value, a missing `--baseline`, or a baseline that cannot be read
//! or parsed — all reported before anything is measured).

use std::collections::BTreeMap;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use bench::cli::{check_flags, value_of};
use depbench::{Campaign, CampaignConfig, CampaignResult, IntervalConfig, SlotResult, TraceConfig};
use faultstore::JournalHeader;
use mvm::{Memory, NoHcalls, Vm, VmConfig};
use serde::{Deserialize, Serialize};
use simkit::SimDuration;
use simos::{Edition, Os, OsApi};
use simtrace::{EventKind, Tracer};
use swfit_core::{FaultNature, Injector, Scanner};
use webserver::ServerKind;

/// Metrics that fail the gate on regression. The campaign metric is
/// deliberately absent: it is the product of everything else and of the
/// host's scheduler, so it is tracked, not gated.
const GATED: [&str; 5] = [
    "vm_interpreter_arith_loop_10k",
    "inject_restore_cycle_missing",
    "inject_restore_cycle_wrong",
    "store_write_journal_and_run_10_slots",
    "store_read_journal_and_run_10_slots",
];

/// One `BENCH_<date>.json` file.
#[derive(Serialize, Deserialize)]
struct Report {
    schema: String,
    date: String,
    gated: Vec<String>,
    /// Metric name to minimum-of-rounds nanoseconds per operation.
    metrics: BTreeMap<String, MetricValue>,
    /// Wall time of the fixed calibration loop (see [`calibrate`]) on the
    /// recording host. `check` divides both sides by their calibration so
    /// the gate compares *code*, not host speed — this host's clock
    /// drifts by ±40 % between phases, and CI runners differ more.
    calibration_ns: f64,
    /// Free-form provenance notes (what the numbers were measured
    /// against, host peculiarities); empty unless curated by hand.
    context: BTreeMap<String, String>,
}

#[derive(Serialize, Deserialize)]
struct MetricValue {
    ns: f64,
}

/// A completed slot's journal line, in the shape `faultstore` writes it.
#[derive(Serialize, Deserialize)]
struct JournalLine {
    slot: usize,
    result: SlotResult,
}

/// What to do, with every flag parsed and the baseline loaded.
struct Invocation {
    rounds: usize,
    out: Option<String>,
    /// `check`: the baseline path, its report and the tolerance (percent).
    /// `None` for `record`.
    check: Option<(String, Report, f64)>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Invocation { rounds, out, check } = match parse(&args) {
        Ok(inv) => inv,
        Err(e) => {
            eprintln!("perfgate: {e}");
            std::process::exit(2);
        }
    };
    let report = measure(rounds);
    match check {
        None => {
            let path = out.unwrap_or_else(|| format!("BENCH_{}.json", report.date));
            write_report(&report, &path);
            println!("recorded {path}");
        }
        Some((baseline_path, baseline, tolerance)) => {
            if let Some(path) = out {
                write_report(&report, &path);
                println!("recorded {path}");
            }
            let regressed = compare(&report, &baseline, &baseline_path, tolerance);
            if over_budget(report.calibration_ns) || regressed {
                std::process::exit(1);
            }
        }
    }
}

/// Parses the command line and loads the baseline — everything that can
/// fail on bad input, before any measuring starts.
fn parse(args: &[String]) -> Result<Invocation, String> {
    const USAGE: &str = "usage: perfgate record [--out PATH] [--rounds N] | \
         check --baseline PATH [--out PATH] [--rounds N] [--tolerance PCT]";
    let reads = match args.first().map(String::as_str) {
        Some("record") => "--out --rounds",
        Some("check") => "--baseline --out --rounds --tolerance",
        _ => return Err(USAGE.into()),
    };
    check_flags(args, reads)?;
    let rounds = match value_of(args, "--rounds")? {
        Some(v) => v
            .parse()
            .map_err(|_| format!("--rounds needs an unsigned integer, got `{v}`"))?,
        None => 7,
    };
    let out = value_of(args, "--out")?.cloned();
    let check = if args[0] == "check" {
        let tolerance: f64 = match value_of(args, "--tolerance")? {
            Some(v) => v
                .parse()
                .ok()
                .filter(|t: &f64| t.is_finite())
                .ok_or_else(|| format!("--tolerance needs a percentage, got `{v}`"))?,
            None => 20.0,
        };
        let path = value_of(args, "--baseline")?.ok_or("check needs --baseline PATH")?;
        let json = std::fs::read_to_string(path)
            .map_err(|e| format!("baseline {path} is unreadable: {e}"))?;
        let baseline: Report = serde_json::from_str(&json)
            .map_err(|e| format!("baseline {path} is not a perfgate report: {e}"))?;
        Some((path.clone(), baseline, tolerance))
    } else {
        None
    };
    Ok(Invocation { rounds, out, check })
}

fn measure(rounds: usize) -> Report {
    let mut metrics = BTreeMap::new();
    let mut record = |name: &str, ns: f64| {
        metrics.insert(name.to_string(), MetricValue { ns });
        println!("  {name}: {ns:.1} ns");
    };
    println!("measuring (min of {rounds} rounds per metric)");

    // VM interpreter: a tight arithmetic loop (~13 instructions per
    // iteration, 10 k iterations per call).
    let program = minic::compile(
        "loop",
        r#"
        fn spin(n) {
            var acc = 0;
            var i = 0;
            while (i < n) {
                acc = acc + i * 3;
                i = i + 1;
            }
            return acc;
        }
        "#,
    )
    .expect("compiles");
    let mut vm = Vm::with_config(VmConfig {
        budget: 100_000_000,
        ..VmConfig::default()
    });
    let mut mem = Memory::new(8192);
    record(
        "vm_interpreter_arith_loop_10k",
        min_ns(rounds, 20, || {
            vm.call(program.image(), &mut mem, &mut NoHcalls, "spin", &[10_000])
                .expect("runs");
        }),
    );

    // Inject/restore cycle per fault nature (G-SWFIT step 2).
    let os = Os::boot(Edition::Nimbus2000).expect("boots");
    let faultload = Scanner::standard().scan_image(os.program().image());
    for (name, nature) in [
        ("inject_restore_cycle_missing", FaultNature::Missing),
        ("inject_restore_cycle_wrong", FaultNature::Wrong),
    ] {
        let fault = faultload
            .faults
            .iter()
            .find(|f| f.fault_type.nature() == nature)
            .expect("fault of this nature exists")
            .clone();
        let mut image = os.program().image().clone();
        record(
            name,
            min_ns(rounds, 100_000, || {
                let mut injector = Injector::new();
                injector.inject(&mut image, &fault).expect("injects");
                injector.restore(&mut image);
            }),
        );
    }

    // The end-to-end number the trajectory tracks: a 10-fault campaign
    // of 250 ms slots, one slot each.
    let campaign = Campaign::new(
        Edition::Nimbus2000,
        ServerKind::Wren,
        CampaignConfig {
            interval: IntervalConfig {
                duration: SimDuration::from_millis(250),
                ..IntervalConfig::default()
            },
            ..CampaignConfig::default()
        },
    );
    let mut ten = faultload;
    ten.faults.truncate(10);
    campaign.run_injection(&ten, 0).expect("runs"); // warm caches
    record(
        "injection_campaign_10_slots",
        min_ns(rounds, 1, || {
            campaign.run_injection(&ten, 0).expect("runs");
        }),
    );

    // The store's write path: the journal header, each slot's journal
    // line and the pretty stored run of that campaign, written to memory
    // so only serializing is timed.
    let result = campaign.run_injection(&ten, 0).expect("runs");
    let header = JournalHeader::describe(&campaign, &ten, 0);
    let lines: Vec<JournalLine> = result
        .slots
        .iter()
        .cloned()
        .enumerate()
        .map(|(slot, result)| JournalLine { slot, result })
        .collect();
    let write_journal = || {
        let mut journal = serde_json::to_string(&header).expect("serializes");
        for line in &lines {
            journal.push('\n');
            journal += &serde_json::to_string(line).expect("serializes");
        }
        journal
    };
    let write_run = || serde_json::to_string_pretty(&result).expect("serializes");
    record(
        "store_write_journal_and_run_10_slots",
        min_ns(rounds, 200, || {
            std::hint::black_box(write_journal());
            std::hint::black_box(write_run());
        }),
    );

    // The store's read path: the same journal and stored run, held in
    // memory so only parsing is timed.
    let (journal, run) = (write_journal(), write_run());
    record(
        "store_read_journal_and_run_10_slots",
        min_ns(rounds, 200, || {
            let mut lines = journal.lines();
            let header = lines.next().expect("header line");
            std::hint::black_box(serde_json::from_str::<JournalHeader>(header).expect("parses"));
            for line in lines {
                std::hint::black_box(serde_json::from_str::<JournalLine>(line).expect("parses"));
            }
            std::hint::black_box(serde_json::from_str::<CampaignResult>(&run).expect("parses"));
        }),
    );

    Report {
        schema: "faultbench-perfgate/1".to_string(),
        date: today_utc(),
        gated: GATED.iter().map(|s| (*s).to_string()).collect(),
        metrics,
        calibration_ns: calibrate(rounds),
        context: BTreeMap::new(),
    }
}

/// Measures the budgets, prints one line each and returns whether any was
/// exceeded. A limit is a property of the design, not a point on the
/// trajectory. The tracer's limits hold on any host, uncalibrated; boot
/// and scan, which a faster host shortens too, is measured in units of
/// `calibration_ns`, this run's [`calibrate`] time.
fn over_budget(calibration_ns: f64) -> bool {
    println!("budgets");
    let mut over = false;
    let mut budget = |name: &str, measured: f64, limit: f64, unit: &str| {
        over |= measured > limit;
        let verdict = if measured > limit { "FAIL" } else { "ok" };
        println!("  {name}: {measured:.3} {unit} (budget {limit} {unit}) {verdict}");
    };

    // §4 "Feasibility": the paper's scan takes minutes at most. Boot and
    // scan take 0.08-0.09× the calibration loop, so 0.5× leaves ~6×
    // headroom and still catches an order-of-magnitude regression.
    let boot_and_scan = min_ns(3, 1, || {
        let os = Os::boot(Edition::NimbusXp).expect("boots");
        let scan = Scanner::standard().scan_functions(os.program().image(), &OsApi::symbols());
        assert!(!scan.is_empty(), "the scan finds faults");
    });
    budget(
        "boot_and_scan_xp",
        boot_and_scan / calibration_ns,
        0.5,
        "x calibration",
    );

    // Traced over untraced campaign, the cleanest of 7 paired rounds: a
    // load burst must hit every round's traced half to fail the budget.
    let os = Os::boot(Edition::Nimbus2000).expect("boots");
    let faultload = Scanner::standard()
        .scan_functions(os.program().image(), &OsApi::symbols())
        .sample(4);
    let config = CampaignConfig::builder()
        .interval(IntervalConfig {
            duration: SimDuration::from_millis(300),
            ..IntervalConfig::default()
        })
        .os_budget(150_000)
        .build();
    let untraced = Campaign::new(Edition::Nimbus2000, ServerKind::Wren, config.clone());
    let traced = Campaign::new(Edition::Nimbus2000, ServerKind::Wren, config)
        .with_trace(TraceConfig::default());
    let run = |campaign: &Campaign| {
        min_ns(1, 1, || {
            campaign.run_injection(&faultload, 0).expect("runs");
        })
    };
    run(&untraced); // warm both paths
    run(&traced);
    let ratio = (0..7)
        .map(|_| {
            let base = run(&untraced);
            run(&traced) / base
        })
        .fold(f64::INFINITY, f64::min);
    budget("trace_campaign_overhead", ratio, 1.35, "x");

    // An enabled emit is a mutex lock and a ring write (~30 ns); a
    // disabled one is a branch, which `black_box` keeps in the loop.
    let emit_ns = |tracer: &Tracer, emits: u64| {
        min_ns(3, 1, || {
            for seq in 0..emits {
                std::hint::black_box(tracer).emit(EventKind::RequestStart { seq });
            }
        })
    };
    let enabled = emit_ns(&Tracer::enabled(4096), 2_000_000) / 2e6;
    budget("trace_enabled_emit", enabled, 150.0, "ns");
    let disabled = emit_ns(&Tracer::disabled(), 20_000_000) / 1e9;
    budget("trace_disabled_20m_emits", disabled, 1.0, "s");
    over
}

/// The host-speed yardstick: a pinned xorshift64* loop that no workspace
/// change can touch. Metric-to-calibration ratios are host-independent,
/// so comparing them across reports isolates code changes from machine
/// changes. Must never be edited — an edit silently rescales every
/// stored baseline.
fn calibrate(rounds: usize) -> f64 {
    min_ns(rounds, 1, || {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for _ in 0..5_000_000 {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            x = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
        }
        std::hint::black_box(x);
    })
}

/// Minimum over `rounds` of the mean over `iters` — per-op nanoseconds.
fn min_ns<F: FnMut()>(rounds: usize, iters: u32, mut work: F) -> f64 {
    (0..rounds.max(1))
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                work();
            }
            start.elapsed().as_secs_f64() * 1e9 / f64::from(iters)
        })
        .fold(f64::INFINITY, f64::min)
}

fn write_report(report: &Report, path: &str) {
    std::fs::write(
        path,
        serde_json::to_string_pretty(report).expect("serializes"),
    )
    .expect("report written");
}

/// Prints the comparison table; returns whether any gated metric
/// regressed past the tolerance.
fn compare(report: &Report, baseline: &Report, baseline_path: &str, tolerance: f64) -> bool {
    let mut failed = false;
    // Host-speed normalization: scale the baseline to this host's
    // calibration, so a uniformly slower (or faster) machine reads as
    // 0 % and only per-path changes move the needle.
    let scale = report.calibration_ns / baseline.calibration_ns;
    println!(
        "perf gate vs {baseline_path} (tolerance {tolerance:.0} % on gated metrics, \
         host speed {scale:.2}x baseline host)"
    );
    for (name, value) in &report.metrics {
        let gated = GATED.contains(&name.as_str());
        match baseline.metrics.get(name) {
            Some(base) => {
                let delta = (value.ns / (base.ns * scale) - 1.0) * 100.0;
                let verdict = if gated && delta > tolerance {
                    failed = true;
                    "FAIL"
                } else if gated {
                    "ok"
                } else {
                    "(tracked)"
                };
                println!(
                    "  {name}: {:.1} ns vs {:.1} ns ({delta:+.1} %) {verdict}",
                    value.ns, base.ns
                );
            }
            None => println!(
                "  {name}: {:.1} ns (no baseline entry — recorded only)",
                value.ns
            ),
        }
    }
    if failed {
        println!("gated metrics FAILED: one regressed more than {tolerance:.0} %");
    } else {
        println!("gated metrics passed");
    }
    failed
}

/// `YYYY-MM-DD` (UTC) without a date-time dependency: days since the
/// epoch to a civil date (Howard Hinnant's `civil_from_days`).
fn today_utc() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("clock after 1970")
        .as_secs();
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}")
}
