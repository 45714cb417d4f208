//! The four workloads and their set-up.
//!
//! Set-up is everything a user's `faultbench campaign` does before its
//! first injection slot: compile and boot the OS, run the profiling phase
//! (tuned workloads), scan for faults, generate the SPECWeb corpus and
//! measure the profile-mode baseline. The replay workload then journals
//! the campaign iterations it replays ([`journal_replays`]).

use std::path::{Path, PathBuf};

use depbench::{
    profile_servers, Campaign, CampaignConfig, IntervalConfig, ProfilePhaseConfig, TraceConfig,
};
use faultstore::FaultStore;
use simkit::SimDuration;
use simos::{DeviceStore, Edition, Os};
use specweb::{FileSet, IntervalMeasures};
use swfit_core::{Faultload, Scanner};
use webserver::ServerKind;

use crate::spans::Spans;

/// The seed the pinned digests were recorded with (DSN 2004's opening day).
pub const DEFAULT_SEED: u64 = 20040628;

/// Campaign worker threads: the benchmark host's core count, fixed so runs
/// on different hosts do the same work.
pub const JOBS: usize = 2;

/// Journaled iterations the replay workload sets up and then replays.
pub const REPLAY_ITERATIONS: u64 = 4;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Table 5 cell: tuned faultload, nimbus-2000 / wren.
    TunedW2kWren,
    /// Tuned faultload on nimbus-xp / heron with the flight recorder on.
    ActivationXpHeron,
    /// Whole-image faultload, short slots, every slot journaled.
    ShortJournaledW2kHeron,
    /// Replays the journals the short-journaled configuration wrote.
    ReplayW2kHeron,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::TunedW2kWren,
        Workload::ActivationXpHeron,
        Workload::ShortJournaledW2kHeron,
        Workload::ReplayW2kHeron,
    ];

    /// The name used on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TunedW2kWren => "tuned-w2k-wren",
            Workload::ActivationXpHeron => "activation-xp-heron",
            Workload::ShortJournaledW2kHeron => "short-journaled-w2k-heron",
            Workload::ReplayW2kHeron => "replay-w2k-heron",
        }
    }

    /// Looks a workload up by [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn edition(self) -> Edition {
        match self {
            Workload::ActivationXpHeron => Edition::NimbusXp,
            _ => Edition::Nimbus2000,
        }
    }

    fn server(self) -> ServerKind {
        match self {
            Workload::TunedW2kWren => ServerKind::Wren,
            _ => ServerKind::Heron,
        }
    }

    /// Whether the faultload is the profiled (tuned) subset rather than
    /// the whole image.
    pub fn tuned(self) -> bool {
        matches!(self, Workload::TunedW2kWren | Workload::ActivationXpHeron)
    }

    /// Whether slots run with the flight recorder on.
    pub fn traced(self) -> bool {
        self == Workload::ActivationXpHeron
    }

    /// Whether the campaign goes through the journaling store.
    pub fn journaled(self) -> bool {
        matches!(
            self,
            Workload::ShortJournaledW2kHeron | Workload::ReplayW2kHeron
        )
    }

    fn config(self, seed: u64) -> CampaignConfig {
        let base = CampaignConfig::builder().seed(seed).parallelism(JOBS);
        if self.journaled() {
            // 100 ms slots with no warm-up: per-slot fixed costs (restore,
            // clone, inject, journal append) are about half of each slot.
            base.interval(IntervalConfig {
                duration: SimDuration::from_millis(100),
                ..IntervalConfig::default()
            })
            .warmup(SimDuration::ZERO)
            .build()
        } else {
            base.build()
        }
    }
}

/// A scratch store under the benchmark's output directory, removed when
/// dropped.
pub struct ScratchStore {
    dir: PathBuf,
    /// The store rooted at `dir`.
    pub store: FaultStore,
}

impl ScratchStore {
    fn open(out: &Path) -> Result<ScratchStore, String> {
        let dir = out.join(format!("store-{}", std::process::id()));
        // A crashed earlier run with this pid may have left its store.
        let _ = std::fs::remove_dir_all(&dir);
        let store = FaultStore::open(&dir).map_err(|e| e.to_string())?;
        Ok(ScratchStore { dir, store })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

impl Drop for ScratchStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Everything the measured phase needs.
pub struct Setup {
    /// The workload set up.
    pub workload: Workload,
    /// The configured campaign (`JOBS` workers).
    pub campaign: Campaign,
    /// The faultload, possibly sampled.
    pub faultload: Faultload,
    /// The profile-mode baseline (Table 4's "Profile mode" row).
    pub baseline: IntervalMeasures,
    /// The journaling store (journaled workloads only).
    pub store: Option<ScratchStore>,
    /// Replay workload: the serialized result of each journaled iteration
    /// (filled by [`journal_replays`]).
    pub journaled: Vec<String>,
}

/// The stored-run name of a journaled replay iteration.
pub fn replay_run_name(iteration: u64) -> String {
    format!("replay-it{iteration}")
}

/// Sets `workload` up, recording one span per set-up layer.
///
/// `sample` keeps at most that many faults, evenly spaced over the
/// faultload (for quick checks; `None` keeps them all). `out` is where the
/// journaling store lives.
///
/// # Errors
///
/// Returns a description of the first layer that failed.
pub fn setup(
    workload: Workload,
    seed: u64,
    sample: Option<usize>,
    out: &Path,
    spans: &mut Spans,
) -> Result<Setup, String> {
    let edition = workload.edition();
    let config = workload.config(seed);
    // Compiles through simos's per-process image cache, so the boot below
    // measures boot alone.
    spans.time("minic.compile", None, |_| simos::image_fingerprint(edition))?;
    let os = spans.time("simos.boot", None, |_| {
        Os::boot_with_budget(edition, config.os_budget)
    })?;
    // The first population generates the corpus every later one shares.
    spans.time("specweb.populate", None, |_| {
        FileSet::populate(config.fileset, &mut DeviceStore::new())
    });
    let scanner = Scanner::standard();
    let mut faultload = if workload.tuned() {
        let profile = ProfilePhaseConfig::default();
        let selected = spans.time("profilephase", None, |_| {
            profile_servers(edition, &ServerKind::ALL, &profile)
                .select_functions(profile.min_avg_pct)
        });
        spans.time("scanner.scan", None, |_| {
            scanner.scan_functions(os.program().image(), &selected)
        })
    } else {
        spans.time("scanner.scan", None, |_| {
            scanner.scan_image(os.program().image())
        })
    };
    if let Some(n) = sample {
        let stride = faultload.len().div_ceil(n.max(1)).max(1);
        faultload.faults = faultload.faults.into_iter().step_by(stride).collect();
    }
    let mut campaign = Campaign::new(edition, workload.server(), config);
    if workload.traced() {
        campaign = campaign.with_trace(TraceConfig::default());
    }
    let baseline = spans
        .time("depbench.baseline", None, |_| campaign.run_profile_mode(0))
        .map_err(|e| e.to_string())?;
    let store = if workload.journaled() {
        Some(ScratchStore::open(out)?)
    } else {
        None
    };
    Ok(Setup {
        workload,
        campaign,
        faultload,
        baseline,
        store,
        journaled: Vec::new(),
    })
}

/// Prepares the replay workload's measured phase: journals
/// [`REPLAY_ITERATIONS`] campaign iterations and stores each result. Its
/// first slot is the run's first injection slot, so this work comes after
/// the set-up time `setup_s` covers. A no-op on the other workloads.
///
/// # Errors
///
/// Returns a description when a campaign or a store write fails.
pub fn journal_replays(setup: &mut Setup, spans: &mut Spans) -> Result<(), String> {
    if setup.workload != Workload::ReplayW2kHeron {
        return Ok(());
    }
    let store = &setup
        .store
        .as_ref()
        .expect("journaled workload has a store")
        .store;
    for iteration in 0..REPLAY_ITERATIONS {
        let result = spans
            .time("faultstore.journal", None, |_| {
                store.run_resumable(&setup.campaign, &setup.faultload, iteration, false)
            })
            .map_err(|e| e.to_string())?;
        store
            .save_run(&replay_run_name(iteration), &result)
            .map_err(|e| e.to_string())?;
        setup
            .journaled
            .push(serde_json::to_string(&result).map_err(|e| e.to_string())?);
    }
    Ok(())
}
