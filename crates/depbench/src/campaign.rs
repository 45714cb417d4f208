//! The benchmark campaign: slot structure, baselines and injection runs.
//!
//! Mirrors the paper's §3 procedure (Fig. 4): the experiment is a series of
//! time slots; during a slot the server is exercised with the workload while
//! exactly one software fault is present in the OS; between slots no load
//! runs and no fault is injected (the rest interval, during which the
//! system is allowed to recover — we model it by resetting the OS kernel
//! state and starting a fresh server process, keeping slots independent and
//! the campaign repeatable).
//!
//! Slots are *independent* — each derives its random stream from
//! `(seed, iteration, slot index)` and starts from a fresh generator and
//! pristine OS state — so the campaign can run them on several worker
//! threads ([`CampaignConfig::parallelism`]) with results bit-identical to
//! the sequential run (see [`crate::executor`]).

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use serde::{Deserialize, Serialize};
use simkit::{SimDuration, SimRng, SimTime};
use simos::{Edition, Os};
use simtrace::{EventKind, Trace, Tracer, DEFAULT_CAPACITY};
use specweb::{FileSet, FileSetConfig, IntervalMeasures, RequestGenerator};
use swfit_core::pack::PackRef;
use swfit_core::{Faultload, InjectError, Injector};
use webserver::{ServerKind, ServerState, WebServer};

use crate::executor::{run_slots, SlotRun, SlotToken};
use crate::interval::{run_interval, IntervalConfig, WatchdogCounts, CONNS};
use crate::recovery::{AvailabilityMetrics, RecoveryPolicy};

/// Why a campaign run could not produce a result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CampaignError {
    /// The faultload carries a fingerprint that does not match the booted
    /// OS image — it was generated from a different build, and injecting it
    /// would patch arbitrary words.
    FingerprintMismatch {
        /// The faultload's declared target.
        target: String,
        /// The edition the campaign tried to run against.
        edition: Edition,
    },
    /// The OS failed to compile or boot.
    BootFailed(String),
    /// A fault could not be injected into the image.
    InjectFailed(InjectError),
    /// A single-slot run named a slot the faultload does not have.
    SlotOutOfRange {
        /// The requested slot.
        slot: usize,
        /// The faultload's fault count.
        faults: usize,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::FingerprintMismatch { target, edition } => write!(
                f,
                "faultload `{target}` was generated from a different {edition} build; \
                 re-run `faultbench scan`"
            ),
            CampaignError::BootFailed(m) => write!(f, "OS boot failed: {m}"),
            CampaignError::InjectFailed(e) => write!(f, "fault injection failed: {e}"),
            CampaignError::SlotOutOfRange { slot, faults } => write!(
                f,
                "slot {slot} is out of range: the faultload has {faults} faults"
            ),
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::InjectFailed(e) => Some(e),
            _ => None,
        }
    }
}

impl From<InjectError> for CampaignError {
    fn from(e: InjectError) -> CampaignError {
        CampaignError::InjectFailed(e)
    }
}

/// Campaign parameters.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Per-slot interval configuration.
    pub interval: IntervalConfig,
    /// File-set shape.
    pub fileset: FileSetConfig,
    /// Fault-free warm-up traffic before each slot's injection (the paper's
    /// server runs continuously, so the fault always hits a warm process).
    pub warmup: SimDuration,
    /// VM instruction budget per OS call (hang detector).
    pub os_budget: u64,
    /// Base RNG seed; iteration `i` and slot `s` use the stream
    /// `SimRng::derive(seed, &[i, s])`.
    pub seed: u64,
    /// Worker threads running fault slots. `1` (or `0`) runs sequentially
    /// on the caller's thread; results are bit-identical either way.
    pub parallelism: usize,
    /// Provenance of *extra* fault-model packs the campaign's scanner loads
    /// beyond the bundled `odc-classic` (e.g. `faultbench --pack FILE`).
    /// Part of [`Self::stable_hash`]: pack content changes which faults
    /// exist.
    pub packs: Vec<PackRef>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            interval: IntervalConfig::default(),
            fileset: FileSetConfig::default(),
            warmup: SimDuration::from_millis(400),
            os_budget: 300_000,
            seed: 20040628, // DSN 2004
            parallelism: 1,
            packs: Vec::new(),
        }
    }
}

impl CampaignConfig {
    /// A fluent builder starting from [`CampaignConfig::default`].
    pub fn builder() -> CampaignConfigBuilder {
        CampaignConfigBuilder {
            config: CampaignConfig::default(),
        }
    }

    /// Stable hash of every result-affecting parameter — the campaign
    /// journal's invalidation key: a journal written under one config must
    /// not be replayed into a campaign running another.
    ///
    /// `parallelism` is zeroed before hashing because results are
    /// bit-identical at any worker count; a campaign interrupted at `-j 4`
    /// may resume at `-j 1` (or vice versa) without invalidating the
    /// journal.
    pub fn stable_hash(&self) -> u64 {
        let mut canonical = self.clone();
        canonical.parallelism = 0;
        let json = serde_json::to_string(&canonical)
            .expect("CampaignConfig serializes (plain data, no maps)");
        simkit::hash::fnv1a(json.as_bytes())
    }

    /// The paper-faithful time mapping: each fault is applied for a full
    /// 10-second slot (the paper chose 10 s because the average operation
    /// takes under a second — the same ratio holds here, where operations
    /// average a few hundred milliseconds). Campaigns run ~5x longer than
    /// with [`CampaignConfig::default`]; results differ only in tighter
    /// per-slot statistics.
    pub fn paper_faithful() -> CampaignConfig {
        CampaignConfig {
            interval: IntervalConfig {
                duration: simkit::SimDuration::from_secs(10),
                ..IntervalConfig::default()
            },
            ..CampaignConfig::default()
        }
    }
}

/// Builds a [`CampaignConfig`] fluently.
///
/// # Example
///
/// ```
/// use depbench::CampaignConfig;
///
/// let cfg = CampaignConfig::builder()
///     .seed(7)
///     .parallelism(4)
///     .build();
/// assert_eq!(cfg.seed, 7);
/// assert_eq!(cfg.parallelism, 4);
/// ```
#[derive(Clone, Debug)]
pub struct CampaignConfigBuilder {
    config: CampaignConfig,
}

impl CampaignConfigBuilder {
    /// Sets the per-slot interval configuration.
    #[must_use]
    pub fn interval(mut self, interval: IntervalConfig) -> Self {
        self.config.interval = interval;
        self
    }

    /// Sets the pre-injection warm-up duration.
    #[must_use]
    pub fn warmup(mut self, warmup: SimDuration) -> Self {
        self.config.warmup = warmup;
        self
    }

    /// Sets the per-call VM instruction budget.
    #[must_use]
    pub fn os_budget(mut self, os_budget: u64) -> Self {
        self.config.os_budget = os_budget;
        self
    }

    /// Sets the base RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the number of worker threads for fault slots.
    #[must_use]
    pub fn parallelism(mut self, parallelism: usize) -> Self {
        self.config.parallelism = parallelism;
        self
    }

    /// Sets the provenance of the extra fault-model packs the campaign's
    /// faultload was scanned with. Part of [`CampaignConfig::stable_hash`]:
    /// a journal written under one pack set will not resume under another.
    #[must_use]
    pub fn packs(mut self, packs: Vec<PackRef>) -> Self {
        self.config.packs = packs;
        self
    }

    /// Sets the watchdog's recovery policy (a shorthand for editing
    /// [`IntervalConfig::recovery`] through [`CampaignConfigBuilder::interval`]).
    #[must_use]
    pub fn recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.config.interval.recovery = recovery;
        self
    }

    /// Finishes the build.
    pub fn build(self) -> CampaignConfig {
        self.config
    }
}

/// Result of one fault slot.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SlotResult {
    /// The injected fault's id.
    pub fault_id: String,
    /// Client measures during the slot.
    pub measures: IntervalMeasures,
    /// Watchdog interventions during the slot.
    pub watchdog: WatchdogCounts,
    /// Whether the server ended the slot dead or hung.
    pub ended_dead: bool,
    /// Downtime/repair timeline observed during the slot.
    pub availability: AvailabilityMetrics,
    /// Fault-activation observation. `Some` only on traced campaigns
    /// ([`Campaign::with_trace`]); omitted from JSON when absent.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub activation: Option<SlotActivation>,
}

/// Whether (and when, in virtual time) a slot's mutation site executed
/// during the measured interval — the paper's *fault activation* question,
/// promoted to a first-class per-slot metric.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SlotActivation {
    /// The fault's type acronym (e.g. `"MIFS"`), denormalized here so
    /// per-type activation rates survive journal round-trips without the
    /// faultload at hand.
    pub fault_type: String,
    /// Executions of the mutation site during the measured interval.
    pub hits: u64,
    /// Virtual time of the first execution, on the slot's clock (warm-up
    /// starts at zero, the measured interval continues after it). `None`
    /// when the site never ran.
    pub first_hit: Option<SimTime>,
}

impl SlotActivation {
    /// Whether the mutation site executed at all.
    pub fn activated(&self) -> bool {
        self.hits > 0
    }
}

/// Why a slot was quarantined instead of producing a [`SlotResult`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SlotError {
    /// The slot's benchmark stack panicked. The panic was caught, the
    /// worker rebuilt its stack, and the campaign carried on without this
    /// slot's measures.
    Panicked {
        /// The panic payload's message.
        message: String,
    },
    /// The slot overran its watchdog budget and was killed at a
    /// cancellation checkpoint. Like a panic, the worker rebuilt its stack
    /// and the campaign carried on; a `--resume` re-attempts the slot.
    TimedOut {
        /// The wall-clock budget the slot exceeded, in milliseconds.
        budget_ms: u64,
    },
}

impl fmt::Display for SlotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SlotError::Panicked { message } => write!(f, "slot panicked: {message}"),
            SlotError::TimedOut { budget_ms } => {
                write!(f, "slot exceeded its {budget_ms} ms watchdog budget")
            }
        }
    }
}

/// A slot that could not produce a result, quarantined so the rest of the
/// campaign's work survives. A `--resume` of the campaign re-attempts
/// exactly these slots.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct QuarantinedSlot {
    /// Slot index in the faultload.
    pub slot: usize,
    /// The fault the slot was running.
    pub fault_id: String,
    /// What went wrong.
    pub error: SlotError,
}

/// How one campaign slot ended — the unit the campaign journal records.
///
/// `Done` outweighs `Quarantined`, but a campaign holds at most one
/// outcome per slot, most of them `Done`, so boxing the result would add an
/// allocation per slot and save nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum SlotOutcome {
    /// The slot produced a result.
    Done(SlotResult),
    /// The slot was quarantined.
    Quarantined(SlotError),
}

/// Aggregated result of a full campaign run (one iteration).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CampaignResult {
    /// OS edition benchmarked.
    pub edition: Edition,
    /// Server benchmarked.
    pub server: ServerKind,
    /// Aggregated client measures over all slots.
    pub measures: IntervalMeasures,
    /// Total watchdog interventions.
    pub watchdog: WatchdogCounts,
    /// Aggregated downtime/repair timeline over all completed slots.
    pub availability: AvailabilityMetrics,
    /// Per-slot results (completed slots only, in slot order).
    pub slots: Vec<SlotResult>,
    /// Slots that panicked and were quarantined instead of aborting the
    /// campaign. Empty on a healthy run, and then omitted from JSON.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub quarantined: Vec<QuarantinedSlot>,
    /// `true` when the harness hit a persistent environment fault mid-run
    /// (journal or cache unavailable) and fell back to degraded, less
    /// durable operation. The measures themselves are unaffected — this is
    /// a provenance stamp, omitted from JSON on healthy runs.
    #[serde(default, skip_serializing_if = "std::ops::Not::not")]
    pub degraded: bool,
}

impl CampaignResult {
    /// SPCf: the campaign's SPC, computed as the mean per-slot SPC — each
    /// fault slot is an independent SPECWeb measurement window, exactly as
    /// the paper's slotted procedure treats it.
    pub fn spc_f(&self) -> u32 {
        if self.slots.is_empty() {
            return self.measures.spc();
        }
        let sum: f64 = self.slots.iter().map(|s| s.measures.spc_unrounded()).sum();
        (sum / self.slots.len() as f64).round() as u32
    }

    /// Slots whose fault visibly affected the run (errors or interventions).
    pub fn affected_slots(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.measures.errors() > 0 || s.watchdog.admf() > 0)
            .count()
    }

    /// Fault-activation rates over the slots that carry an activation
    /// observation. `None` for untraced campaigns (no slot was watched).
    pub fn activation_summary(&self) -> Option<ActivationSummary> {
        let mut by_type: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        let mut tracked = 0u64;
        let mut activated = 0u64;
        for act in self.slots.iter().filter_map(|s| s.activation.as_ref()) {
            tracked += 1;
            let row = by_type.entry(act.fault_type.as_str()).or_insert((0, 0));
            row.0 += 1;
            if act.activated() {
                activated += 1;
                row.1 += 1;
            }
        }
        if tracked == 0 {
            return None;
        }
        Some(ActivationSummary {
            tracked,
            activated,
            per_type: by_type
                .into_iter()
                .map(|(fault_type, (t, a))| TypeActivation {
                    fault_type: fault_type.to_string(),
                    tracked: t,
                    activated: a,
                })
                .collect(),
        })
    }
}

/// Aggregated fault-activation rates: overall and per fault type.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ActivationSummary {
    /// Slots carrying an activation observation.
    pub tracked: u64,
    /// Tracked slots whose mutation site executed at least once.
    pub activated: u64,
    /// Per-fault-type rows, sorted by acronym.
    pub per_type: Vec<TypeActivation>,
}

/// One fault type's activation counts within an [`ActivationSummary`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TypeActivation {
    /// Fault-type acronym (e.g. `"MIFS"`).
    pub fault_type: String,
    /// Tracked slots of this type.
    pub tracked: u64,
    /// Tracked slots of this type whose site executed.
    pub activated: u64,
}

impl TypeActivation {
    /// Activated share of tracked slots, as a percentage.
    pub fn rate_pct(&self) -> f64 {
        rate_pct(self.activated, self.tracked)
    }
}

impl ActivationSummary {
    /// Overall activated share of tracked slots, as a percentage.
    pub fn rate_pct(&self) -> f64 {
        rate_pct(self.activated, self.tracked)
    }

    /// Whether any slot was tracked.
    pub fn is_empty(&self) -> bool {
        self.tracked == 0
    }

    /// Folds another summary into this one (per-type rows stay sorted).
    pub fn merge(&mut self, other: &ActivationSummary) {
        self.tracked += other.tracked;
        self.activated += other.activated;
        for row in &other.per_type {
            match self
                .per_type
                .binary_search_by(|r| r.fault_type.as_str().cmp(row.fault_type.as_str()))
            {
                Ok(i) => {
                    self.per_type[i].tracked += row.tracked;
                    self.per_type[i].activated += row.activated;
                }
                Err(i) => self.per_type.insert(i, row.clone()),
            }
        }
    }
}

fn rate_pct(activated: u64, tracked: u64) -> f64 {
    if tracked == 0 {
        0.0
    } else {
        activated as f64 * 100.0 / tracked as f64
    }
}

/// One worker's private benchmark stack: a booted OS with the populated
/// file set, a server process, a pristine request-generator template (cloned
/// fresh for every slot, so slots stay independent), and an injector (idle
/// in fault-free runs).
///
/// `checkpoint` captures the stack right after the one-time boot → populate
/// → server-start sequence; every slot starts by reinstating it, because
/// served traffic mutates OS memory and the device tree (POST log files) and
/// a slot's outcome must depend only on `(iteration, slot)`, never on what
/// ran before on this worker.
struct WorkerStack {
    os: Os,
    server: Box<dyn WebServer>,
    generator_template: RequestGenerator,
    injector: Injector,
    checkpoint: SlotCheckpoint,
}

/// The post-start state every slot begins from: a copy-on-write OS snapshot
/// (memory + devices) plus the started server process to clone. Boot and
/// server startup are deterministic on pristine state, so reinstating this
/// checkpoint is equivalent to the old per-slot device-restore → re-boot →
/// fresh `start()` sequence — at memcpy cost instead of re-interpreting the
/// whole boot path.
struct SlotCheckpoint {
    os: simos::OsSnapshot,
    server: Box<dyn WebServer>,
}

impl WorkerStack {
    /// The rest-interval recovery (Fig. 4): snapshot-restore the OS
    /// (memory + document tree) and reinstate the checkpointed running
    /// server process. After this, the slot's outcome depends only on
    /// `(iteration, slot)` — not on what this worker ran before, which is
    /// what makes parallel execution bit-identical to sequential. The
    /// restore refuses to run if an injected fault was leaked in the image
    /// (the snapshot's fingerprint guard), so `PatchSet` undo stays the
    /// single owner of image state.
    fn reset(&mut self) {
        self.os.restore_snapshot(&self.checkpoint.os);
        self.server = self.checkpoint.server.clone_box();
    }
}

/// Flight-recorder settings for a campaign (off by default).
///
/// Tracing is observation-only — traced and untraced campaigns produce
/// bit-identical measures, watchdog counts and config hashes — so this
/// deliberately lives outside [`CampaignConfig`] and never enters
/// [`CampaignConfig::stable_hash`]: a journal written untraced resumes
/// traced, and vice versa.
#[derive(Clone, Debug)]
pub struct TraceConfig {
    /// Per-slot ring capacity: how many events a slot's recorder retains.
    pub capacity: usize,
    /// Where quarantined slots dump the last [`DUMP_LAST`] events of their
    /// recorder (JSONL, one file per slot and iteration). `None` disables
    /// dumps.
    pub dump_dir: Option<PathBuf>,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            capacity: DEFAULT_CAPACITY,
            dump_dir: None,
        }
    }
}

/// How many tail events a quarantine dump keeps.
pub const DUMP_LAST: usize = 64;

/// A configured campaign for one (edition, server) pair.
#[derive(Clone, Debug)]
pub struct Campaign {
    edition: Edition,
    server: ServerKind,
    config: CampaignConfig,
    /// Flight-recorder settings; `None` (the default) records nothing and
    /// costs one branch per would-be event.
    trace: Option<TraceConfig>,
    /// Per-slot wall-clock budget; `None` (the default) runs unwatched.
    /// Like [`TraceConfig`], this is harness machinery, not benchmark
    /// configuration: it lives outside [`CampaignConfig::stable_hash`], so
    /// a journal written unwatched resumes watched and vice versa.
    slot_budget: Option<Duration>,
    /// Test hook: the fault id whose slot panics instead of running, to
    /// exercise quarantine without a genuinely buggy stack.
    panic_on: Option<String>,
    /// Test hook: the fault id whose slot hangs (spins until cancelled),
    /// to exercise the watchdog without a genuinely wedged stack.
    hang_on: Option<String>,
}

impl Campaign {
    /// Creates a campaign.
    pub fn new(edition: Edition, server: ServerKind, config: CampaignConfig) -> Campaign {
        Campaign {
            edition,
            server,
            config,
            trace: None,
            slot_budget: None,
            panic_on: None,
            hang_on: None,
        }
    }

    /// Enables the flight recorder for this campaign's slots. Recording is
    /// observation-only — measures, config hash and journal replay are
    /// unchanged — but completed slots additionally carry
    /// [`SlotResult::activation`].
    #[must_use]
    pub fn with_trace(mut self, trace: TraceConfig) -> Campaign {
        self.trace = Some(trace);
        self
    }

    /// The flight-recorder settings, when tracing is enabled.
    pub fn trace_config(&self) -> Option<&TraceConfig> {
        self.trace.as_ref()
    }

    /// Arms a per-slot watchdog: slots that overrun `budget` of wall-clock
    /// time are killed at a cancellation checkpoint, quarantined as
    /// [`SlotError::TimedOut`], and re-attempted by `--resume`. Watching is
    /// observation-only for well-behaved slots — measures, config hash and
    /// journal replay are unchanged.
    #[must_use]
    pub fn with_slot_budget(mut self, budget: Duration) -> Campaign {
        self.slot_budget = Some(budget);
        self
    }

    /// Makes the slot running fault `fault_id` panic instead of executing —
    /// a fault-injection hook *for the benchmark harness itself*, used by
    /// quarantine tests. Not part of the public API surface.
    #[doc(hidden)]
    pub fn panic_on_fault(&mut self, fault_id: &str) {
        self.panic_on = Some(fault_id.to_string());
    }

    /// Makes the slot running fault `fault_id` hang (spin until the
    /// watchdog cancels it) instead of executing — the companion harness
    /// fault-injection hook used by watchdog tests. Not public API.
    #[doc(hidden)]
    pub fn hang_on_fault(&mut self, fault_id: &str) {
        self.hang_on = Some(fault_id.to_string());
    }

    /// The configuration in use.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// The OS edition this campaign benchmarks.
    pub fn edition(&self) -> Edition {
        self.edition
    }

    /// The server this campaign benchmarks.
    pub fn server(&self) -> ServerKind {
        self.server
    }

    fn boot(&self) -> Result<(Os, RequestGenerator), CampaignError> {
        let mut os = Os::boot_with_budget(self.edition, self.config.os_budget)
            .map_err(CampaignError::BootFailed)?;
        let fs = FileSet::populate(self.config.fileset, os.devices_mut());
        Ok((os, RequestGenerator::new(fs)))
    }

    /// One worker's stack. Only called after a probe boot has succeeded, so
    /// a failure here would be a bug (the compiled image is cached). The
    /// server is started once, here, on the pristine OS; slots reinstate
    /// the resulting checkpoint instead of re-running startup.
    fn worker_stack(&self) -> WorkerStack {
        let (mut os, generator_template) = self
            .boot()
            .expect("a probe boot of this edition already succeeded");
        let mut server = self.server.build();
        assert!(server.start(&mut os), "fault-free startup succeeds");
        let checkpoint = SlotCheckpoint {
            os: os.snapshot(),
            server: server.clone_box(),
        };
        WorkerStack {
            os,
            server,
            generator_template,
            injector: Injector::new(),
            checkpoint,
        }
    }

    /// The derived random stream for one `(iteration, slot)` pair — the
    /// splittable seeding that makes parallel slot execution bit-identical
    /// to sequential.
    fn slot_rng(&self, iteration: u64, slot: usize) -> SimRng {
        SimRng::derive(self.config.seed, &[iteration, slot as u64])
    }

    /// Baseline run without the injector (Table 4's "Max. Perf." row).
    ///
    /// # Errors
    ///
    /// [`CampaignError::BootFailed`] when the OS cannot compile or boot.
    pub fn run_baseline(&self, iteration: u64) -> Result<IntervalMeasures, CampaignError> {
        self.run_fault_free(iteration, SimDuration::ZERO)
    }

    /// Baseline run in profile mode: the target is never mutated, and the
    /// injector's bookkeeping is modelled as the busy time it loads the
    /// server machine with (Table 4's "Profile mode" row).
    ///
    /// # Errors
    ///
    /// [`CampaignError::BootFailed`] when the OS cannot compile or boot.
    pub fn run_profile_mode(&self, iteration: u64) -> Result<IntervalMeasures, CampaignError> {
        // Bookkeeping cost scales with the slot (scan-map lookups, logging):
        // ~0.7 % of the slot, matching the paper's sub-2 % observed overhead.
        let busy = self.config.interval.duration / 150;
        self.run_fault_free(iteration, busy)
    }

    fn run_fault_free(
        &self,
        iteration: u64,
        injector_busy: SimDuration,
    ) -> Result<IntervalMeasures, CampaignError> {
        // Probe boot: validates the edition compiles/boots once, up front,
        // so worker boots cannot fail later.
        let _probe = self.boot()?;
        let cfg = IntervalConfig {
            injector_busy,
            ..self.config.interval
        };
        // Several slots, mirroring the slotted campaign structure (same
        // rest-interval recovery between slots as the injection campaign).
        const SLOTS: usize = 8;
        let worklist: Vec<usize> = (0..SLOTS).collect();
        let per_slot = run_slots(
            self.config.parallelism,
            &worklist,
            None,
            || self.worker_stack(),
            |stack, slot, _| {
                stack.reset();
                let mut generator = stack.generator_template.clone();
                let mut rng = self.slot_rng(iteration, slot);
                let out = run_interval(
                    &mut stack.os,
                    stack.server.as_mut(),
                    &mut generator,
                    &mut rng,
                    &cfg,
                );
                out.measures
            },
            |_, _| {},
        );
        // Fold in slot order so float accumulation matches at any
        // parallelism. A baseline slot has no quarantine to land in: its
        // panic is re-raised here, after every worker has been joined.
        let mut total: Option<IntervalMeasures> = None;
        for (slot, run) in per_slot.into_iter().enumerate() {
            let measures = match run {
                SlotRun::Done(measures) => measures,
                SlotRun::Panicked(message) => panic!("baseline slot {slot} panicked: {message}"),
                SlotRun::TimedOut { .. } => unreachable!("baseline slots run unwatched"),
            };
            match &mut total {
                Some(t) => t.merge(&measures),
                None => total = Some(measures),
            }
        }
        Ok(total.expect("at least one slot ran"))
    }

    /// Runs the full injection campaign: one slot per fault, sharded over
    /// [`CampaignConfig::parallelism`] workers. Results are bit-identical
    /// across parallelism settings.
    ///
    /// # Errors
    ///
    /// * [`CampaignError::BootFailed`] — the OS does not compile or boot;
    /// * [`CampaignError::FingerprintMismatch`] — `faultload` was generated
    ///   from a different build of this edition;
    /// * [`CampaignError::InjectFailed`] — a fault's patches do not fit the
    ///   image.
    pub fn run_injection(
        &self,
        faultload: &Faultload,
        iteration: u64,
    ) -> Result<CampaignResult, CampaignError> {
        self.run_injection_observed(faultload, iteration, Vec::new(), &|_, _| {})
    }

    /// [`Campaign::run_injection`] with resume support and an ordered
    /// slot-completion observer — the persistent store's entry point.
    ///
    /// `completed` holds the outcomes of the first `completed.len()` slots,
    /// replayed from a campaign journal after an interruption. Slots whose
    /// replayed outcome is [`SlotOutcome::Done`] are not re-executed;
    /// [`SlotOutcome::Quarantined`] slots are *re-attempted* (a resume is
    /// exactly the second chance a quarantined slot gets). Every executed
    /// slot uses the same `(iteration, slot)` derived seed it would have
    /// used in an uninterrupted run, so the returned [`CampaignResult`] is
    /// byte-identical either way.
    ///
    /// `observe(slot, &outcome)` fires once per *newly executed* slot —
    /// completed or quarantined — in increasing slot order even under
    /// parallel work-stealing (see
    /// [`crate::executor::run_slots`]), which is exactly the
    /// record sequence an append-only journal needs.
    ///
    /// A panicking slot does not abort the campaign: the panic is caught,
    /// the worker's stack is rebuilt, and the slot lands in
    /// [`CampaignResult::quarantined`].
    ///
    /// # Panics
    ///
    /// Panics when `completed` holds more slots than the faultload has
    /// faults — that means the journal belongs to a different faultload and
    /// the caller's validation failed.
    ///
    /// # Errors
    ///
    /// Same as [`Campaign::run_injection`].
    pub fn run_injection_observed(
        &self,
        faultload: &Faultload,
        iteration: u64,
        completed: Vec<SlotOutcome>,
        observe: &(dyn Fn(usize, &SlotOutcome) + Sync),
    ) -> Result<CampaignResult, CampaignError> {
        assert!(
            completed.len() <= faultload.len(),
            "journal holds {} completed slots but the faultload has only {} faults — \
             stale journal passed validation?",
            completed.len(),
            faultload.len()
        );
        self.check_fingerprint(faultload)?;

        // Replayed Done outcomes keep their results; everything else —
        // never-run slots and replayed quarantined slots — goes on the
        // worklist for (re-)execution.
        let mut outcomes: Vec<Option<SlotOutcome>> = completed.into_iter().map(Some).collect();
        outcomes.resize(faultload.len(), None);
        let worklist: Vec<usize> = outcomes
            .iter()
            .enumerate()
            .filter(|(_, o)| !matches!(o, Some(SlotOutcome::Done(_))))
            .map(|(slot, _)| slot)
            .collect();

        // Live recorders of in-flight slots, kept so a panicked slot's tail
        // can be dumped post-mortem. Completed slots deregister on the spot,
        // bounding the registry to the in-flight window.
        let tracers: Mutex<HashMap<usize, Tracer>> = Mutex::new(HashMap::new());
        let ran: Vec<SlotRun<Result<SlotOutcome, CampaignError>>> = run_slots(
            self.config.parallelism,
            &worklist,
            self.slot_budget,
            || self.worker_stack(),
            |stack, slot, token| {
                let tracer = self.slot_tracer();
                let traced = tracer.is_enabled();
                if traced {
                    lock_tracers(&tracers).insert(slot, tracer.clone());
                }
                let result = self.run_one_fault_slot(
                    stack,
                    &faultload.faults[slot],
                    iteration,
                    slot,
                    token,
                    &tracer,
                );
                // Reached only when the slot neither panicked nor timed
                // out; a quarantined slot's recorder stays registered for
                // the quarantine dump.
                if traced {
                    lock_tracers(&tracers).remove(&slot);
                }
                result.map(SlotOutcome::Done)
            },
            |slot, run| match run {
                // The worker's own outcome, lent to the observer: a journal
                // writes its line from it with no copy.
                SlotRun::Done(Ok(outcome)) => observe(slot, outcome),
                SlotRun::Done(Err(_)) => {}
                quarantined => {
                    if let SlotRun::TimedOut { budget_ms } = quarantined {
                        if let Some(tracer) = lock_tracers(&tracers).get(&slot) {
                            tracer.emit(EventKind::SlotTimeout {
                                slot: slot as u64,
                                budget_ms: *budget_ms,
                            });
                        }
                    }
                    let fault_id = &faultload.faults[slot].id;
                    self.dump_quarantined_trace(iteration, slot, fault_id, &tracers);
                    observe(slot, &SlotOutcome::Quarantined(slot_error(quarantined)));
                }
            },
        );
        for (&slot, run) in worklist.iter().zip(ran) {
            outcomes[slot] = Some(match run {
                SlotRun::Done(outcome) => outcome?,
                quarantined => SlotOutcome::Quarantined(slot_error(&quarantined)),
            });
        }

        let mut slots = Vec::with_capacity(outcomes.len());
        let mut quarantined = Vec::new();
        for (slot, outcome) in outcomes.into_iter().enumerate() {
            match outcome.expect("every slot has an outcome") {
                SlotOutcome::Done(r) => slots.push(r),
                SlotOutcome::Quarantined(error) => quarantined.push(QuarantinedSlot {
                    slot,
                    fault_id: faultload.faults[slot].id.clone(),
                    error,
                }),
            }
        }
        let mut total: Option<IntervalMeasures> = None;
        let mut watchdog = WatchdogCounts::default();
        let mut availability = AvailabilityMetrics::default();
        for slot in &slots {
            watchdog.merge(slot.watchdog);
            availability.merge(slot.availability);
            match &mut total {
                Some(t) => t.merge(&slot.measures),
                None => total = Some(slot.measures.clone()),
            }
        }

        Ok(CampaignResult {
            edition: self.edition,
            server: self.server,
            measures: total.unwrap_or_else(|| IntervalMeasures::new(CONNS)),
            watchdog,
            availability,
            slots,
            quarantined,
            degraded: false,
        })
    }

    /// A per-slot recorder: live when the campaign has a [`TraceConfig`],
    /// disabled (zero-cost) otherwise.
    fn slot_tracer(&self) -> Tracer {
        match &self.trace {
            Some(tc) => Tracer::enabled(tc.capacity),
            None => Tracer::disabled(),
        }
    }

    /// Writes a quarantined slot's flight-recorder tail as JSONL (a header
    /// line, then one event per line). Best-effort: a failed dump warns and
    /// moves on — the quarantine record itself lives in the journal either
    /// way.
    fn dump_quarantined_trace(
        &self,
        iteration: u64,
        slot: usize,
        fault_id: &str,
        tracers: &Mutex<HashMap<usize, Tracer>>,
    ) {
        let Some(tc) = &self.trace else { return };
        let Some(dir) = &tc.dump_dir else { return };
        let Some(tracer) = lock_tracers(tracers).remove(&slot) else {
            return;
        };
        let tail = tracer.snapshot().tail(DUMP_LAST);
        let header = DumpHeader {
            iteration,
            slot: slot as u64,
            fault_id: fault_id.to_string(),
            dropped: tail.dropped,
            capacity: tail.capacity as u64,
        };
        let mut body = serde_json::to_string(&header).expect("plain struct serializes");
        body.push('\n');
        body.push_str(&tail.to_jsonl());
        let path = dir.join(format!(
            "{}-{}-it{}-slot{:04}.quarantine.jsonl",
            self.edition.name(),
            self.server.name(),
            iteration,
            slot
        ));
        let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, body));
        if let Err(e) = written {
            eprintln!(
                "warning: could not dump quarantined slot {slot} ({fault_id}) trace to {}: {e}",
                path.display()
            );
        }
    }

    /// Probe-boots the edition and checks that `faultload` was generated
    /// from this very build.
    fn check_fingerprint(&self, faultload: &Faultload) -> Result<(), CampaignError> {
        let (probe, _) = self.boot()?;
        if faultload.matches_image(probe.program().image()) {
            Ok(())
        } else {
            Err(CampaignError::FingerprintMismatch {
                target: faultload.target.clone(),
                edition: self.edition,
            })
        }
    }

    /// Re-runs a single slot with a live recorder and returns its result
    /// together with the full retained trace — the `faultbench trace`
    /// subcommand's entry point. The slot uses the exact `(iteration, slot)`
    /// derived seed a campaign run would, so the trace replays precisely
    /// what the campaign saw.
    ///
    /// # Errors
    ///
    /// [`CampaignError::SlotOutOfRange`] when the faultload has no slot
    /// `slot`; otherwise the same as [`Campaign::run_injection`].
    pub fn trace_slot(
        &self,
        faultload: &Faultload,
        iteration: u64,
        slot: usize,
    ) -> Result<(SlotResult, Trace), CampaignError> {
        if slot >= faultload.len() {
            return Err(CampaignError::SlotOutOfRange {
                slot,
                faults: faultload.len(),
            });
        }
        self.check_fingerprint(faultload)?;
        let capacity = self
            .trace
            .as_ref()
            .map_or(DEFAULT_CAPACITY, |tc| tc.capacity);
        let tracer = Tracer::enabled(capacity);
        let mut stack = self.worker_stack();
        let result = self.run_one_fault_slot(
            &mut stack,
            &faultload.faults[slot],
            iteration,
            slot,
            &SlotToken::never(),
            &tracer,
        )?;
        Ok((result, tracer.snapshot()))
    }

    /// One Fig. 4 slot: rest-interval recovery, warm-up, inject, exercise,
    /// restore. Depends only on `(iteration, slot)` — never on which worker
    /// runs it or what ran before on this worker — and the recorder only
    /// observes: traced and untraced runs produce identical measures.
    fn run_one_fault_slot(
        &self,
        stack: &mut WorkerStack,
        fault: &swfit_core::FaultDef,
        iteration: u64,
        slot: usize,
        token: &SlotToken,
        tracer: &Tracer,
    ) -> Result<SlotResult, CampaignError> {
        stack.os.set_tracer(tracer.clone());
        token.checkpoint();
        // Rest interval: reinstate the post-start checkpoint — the fault
        // arrives while the server is already running, as in the paper's
        // continuously-operating setup.
        stack.reset();
        let mut generator = stack.generator_template.clone();
        let mut rng = self.slot_rng(iteration, slot);
        // Warm-up traffic before the fault arrives (the paper's server
        // runs continuously; the fault hits a warm, serving process).
        tracer.rebase(SimDuration::ZERO);
        tracer.set_now(SimTime::ZERO);
        tracer.emit(EventKind::Phase { name: "warmup" });
        let warmup_cfg = IntervalConfig {
            duration: self.config.warmup,
            ..self.config.interval
        };
        let _ = run_interval(
            &mut stack.os,
            stack.server.as_mut(),
            &mut generator,
            &mut rng,
            &warmup_cfg,
        );
        if self.panic_on.as_deref() == Some(fault.id.as_str()) {
            panic!("harness fault injected for fault `{}`", fault.id);
        }
        if self.hang_on.as_deref() == Some(fault.id.as_str()) {
            // Simulated wedge: spin until the watchdog cancels, then die at
            // the checkpoint exactly as a genuinely hung slot would.
            while !token.is_cancelled() {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        token.checkpoint();
        // The measured interval restarts its clock at zero; rebase so the
        // slot's trace stays monotonic across the warm-up boundary.
        tracer.rebase(self.config.warmup);
        tracer.set_now(SimTime::ZERO);
        tracer.emit(EventKind::Phase { name: "measure" });
        if tracer.is_enabled() {
            tracer.emit(EventKind::InjectApply {
                fault_id: fault.id.clone(),
                site: fault.site,
            });
        }
        stack.injector.inject(stack.os.image_mut(), fault)?;
        if tracer.is_enabled() {
            // The watchpoint costs one compare per executed instruction, so
            // it is armed only on traced runs; it counts, never perturbs.
            stack.os.arm_activation_watch(fault.site);
        }
        let out = run_interval(
            &mut stack.os,
            stack.server.as_mut(),
            &mut generator,
            &mut rng,
            &self.config.interval,
        );
        let activation = if tracer.is_enabled() {
            let (hits, first_hit) = stack.os.activation().expect("activation watch armed above");
            Some(SlotActivation {
                fault_type: fault.fault_type.acronym().to_string(),
                hits,
                first_hit,
            })
        } else {
            None
        };
        token.checkpoint();
        stack.os.clear_activation_watch();
        stack.injector.restore(stack.os.image_mut());
        if tracer.is_enabled() {
            tracer.emit(EventKind::InjectUndo {
                fault_id: fault.id.clone(),
            });
        }
        Ok(SlotResult {
            fault_id: fault.id.clone(),
            watchdog: out.watchdog,
            ended_dead: out.end_state != ServerState::Running,
            availability: out.availability,
            measures: out.measures,
            activation,
        })
    }
}

/// First line of a quarantine dump: which iteration, slot and fault, and
/// how much of the stream the retained tail omits.
#[derive(Serialize)]
struct DumpHeader {
    iteration: u64,
    slot: u64,
    fault_id: String,
    dropped: u64,
    capacity: u64,
}

/// The quarantine entry for a slot that panicked or timed out.
fn slot_error<R>(run: &SlotRun<R>) -> SlotError {
    match run {
        SlotRun::Done(_) => unreachable!("completed slots are not quarantined"),
        SlotRun::Panicked(message) => SlotError::Panicked {
            message: message.clone(),
        },
        SlotRun::TimedOut { budget_ms } => SlotError::TimedOut {
            budget_ms: *budget_ms,
        },
    }
}

/// The tracer registry is only ever locked around a single insert, remove
/// or lookup — a panic cannot strike mid-mutation, so a poisoned lock (a
/// quarantined slot panicked elsewhere) is still safe to use.
fn lock_tracers(tracers: &Mutex<HashMap<usize, Tracer>>) -> MutexGuard<'_, HashMap<usize, Tracer>> {
    tracers
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use swfit_core::Scanner;

    fn quick_config() -> CampaignConfig {
        CampaignConfig::builder()
            .interval(IntervalConfig {
                duration: SimDuration::from_millis(300),
                ..IntervalConfig::default()
            })
            .os_budget(150_000)
            .build()
    }

    fn small_faultload(edition: Edition, n: usize) -> Faultload {
        let os = Os::boot(edition).unwrap();
        // Sample across the image so every fault type/function is covered.
        Scanner::standard()
            .scan_functions(os.program().image(), &simos::OsApi::symbols())
            .sample(n)
    }

    #[test]
    fn paper_faithful_preset_uses_ten_second_slots() {
        let cfg = CampaignConfig::paper_faithful();
        assert_eq!(cfg.interval.duration, SimDuration::from_secs(10));
        // One paper slot holds many operations (avg op well under 1 s).
        let c = Campaign::new(Edition::Nimbus2000, ServerKind::Heron, cfg);
        let fl = small_faultload(Edition::Nimbus2000, 2);
        let res = c.run_injection(&fl, 0).unwrap();
        for slot in &res.slots {
            assert!(slot.measures.ops() > 200, "ops {}", slot.measures.ops());
        }
    }

    #[test]
    fn baseline_beats_faulty_run() {
        let c = Campaign::new(Edition::Nimbus2000, ServerKind::Heron, quick_config());
        let baseline = c.run_baseline(0).unwrap();
        assert!(baseline.thr() > 40.0, "thr {}", baseline.thr());
        assert_eq!(baseline.er_pct(), 0.0);

        let fl = small_faultload(Edition::Nimbus2000, 25);
        let res = c.run_injection(&fl, 0).unwrap();
        assert_eq!(res.slots.len(), 25);
        // Faults cost something: either errors or interventions show up.
        assert!(res.affected_slots() > 0, "no fault had any visible effect");
        // "Missing construct" faults can *remove* OS work, so individual
        // slots may run marginally faster than baseline; the aggregate must
        // still stay in the same band rather than above it.
        assert!(res.measures.thr() <= baseline.thr() * 1.15);
    }

    #[test]
    fn profile_mode_overhead_is_small() {
        let c = Campaign::new(Edition::Nimbus2000, ServerKind::Wren, quick_config());
        let max_perf = c.run_baseline(0).unwrap();
        let profiled = c.run_profile_mode(0).unwrap();
        assert_eq!(profiled.er_pct(), 0.0, "profile mode must not break ops");
        let deg = (max_perf.thr() - profiled.thr()) / max_perf.thr();
        assert!(deg.abs() < 0.05, "profile-mode degradation {deg}");
    }

    #[test]
    fn injection_campaign_is_repeatable() {
        let c = Campaign::new(Edition::Nimbus2000, ServerKind::Wren, quick_config());
        let fl = small_faultload(Edition::Nimbus2000, 10);
        let a = c.run_injection(&fl, 1).unwrap();
        let b = c.run_injection(&fl, 1).unwrap();
        assert_eq!(a.measures.ops(), b.measures.ops());
        assert_eq!(a.measures.errors(), b.measures.errors());
        assert_eq!(a.watchdog, b.watchdog);
    }

    #[test]
    fn faultload_restores_leave_image_pristine() {
        let c = Campaign::new(Edition::Nimbus2000, ServerKind::Wren, quick_config());
        let fl = small_faultload(Edition::Nimbus2000, 8);
        let pristine = Os::boot(Edition::Nimbus2000).unwrap();
        let words = pristine.program().image().words().to_vec();
        let res = c.run_injection(&fl, 0).unwrap();
        assert_eq!(res.slots.len(), 8);
        // A fresh boot of the campaign OS would have identical code; the
        // campaign's own OS is dropped, so check restore bookkeeping via a
        // re-run determinism proxy plus pristine-word equality of a re-scan.
        let os2 = Os::boot(Edition::Nimbus2000).unwrap();
        assert_eq!(os2.program().image().words(), &words[..]);
    }

    #[test]
    fn parallel_run_is_bit_identical_to_sequential() {
        let fl = small_faultload(Edition::Nimbus2000, 8);
        let run = |parallelism: usize| {
            let cfg = CampaignConfig::builder()
                .interval(IntervalConfig {
                    duration: SimDuration::from_millis(200),
                    ..IntervalConfig::default()
                })
                .os_budget(150_000)
                .parallelism(parallelism)
                .build();
            Campaign::new(Edition::Nimbus2000, ServerKind::Wren, cfg)
                .run_injection(&fl, 0)
                .unwrap()
        };
        let sequential = serde_json::to_string(&run(1)).unwrap();
        let parallel = serde_json::to_string(&run(4)).unwrap();
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn baseline_and_profile_mode_are_parallelism_invariant() {
        // The fault-free runs fold eight slots through the same executor
        // as the injection campaign; their bytes must not depend on how
        // many workers ran the slots.
        let run = |parallelism: usize| {
            let cfg = CampaignConfig {
                parallelism,
                ..quick_config()
            };
            let c = Campaign::new(Edition::Nimbus2000, ServerKind::Heron, cfg);
            (
                serde_json::to_string(&c.run_baseline(0).unwrap()).unwrap(),
                serde_json::to_string(&c.run_profile_mode(0).unwrap()).unwrap(),
            )
        };
        let (baseline, profile) = run(1);
        assert_ne!(baseline, profile, "profile mode loads the server");
        assert_eq!(run(3), (baseline, profile));
    }

    #[test]
    fn observed_run_with_completed_prefix_is_byte_identical() {
        // Simulates resume: run the full campaign once, then re-run with the
        // first k slots replayed as "completed" — the assembled result must
        // serialize identically, at sequential and parallel settings.
        let fl = small_faultload(Edition::Nimbus2000, 9);
        let c = Campaign::new(Edition::Nimbus2000, ServerKind::Wren, quick_config());
        let full = c.run_injection(&fl, 0).unwrap();
        let full_json = serde_json::to_string(&full).unwrap();
        for k in [0, 4, 9] {
            let completed: Vec<SlotOutcome> = full.slots[..k]
                .iter()
                .map(|s| SlotOutcome::Done(s.clone()))
                .collect();
            let resumed = c
                .run_injection_observed(&fl, 0, completed, &|_, _| {})
                .unwrap();
            assert_eq!(
                serde_json::to_string(&resumed).unwrap(),
                full_json,
                "resume from slot {k} diverged"
            );
        }
    }

    #[test]
    fn observer_fires_in_slot_order_for_executed_slots_only() {
        use std::sync::Mutex;
        let fl = small_faultload(Edition::Nimbus2000, 6);
        let cfg = CampaignConfig {
            parallelism: 3,
            ..quick_config()
        };
        let c = Campaign::new(Edition::Nimbus2000, ServerKind::Wren, cfg);
        let full = c.run_injection(&fl, 0).unwrap();
        let seen = Mutex::new(Vec::new());
        let completed: Vec<SlotOutcome> = full.slots[..2]
            .iter()
            .map(|s| SlotOutcome::Done(s.clone()))
            .collect();
        c.run_injection_observed(&fl, 0, completed, &|slot, outcome| {
            let SlotOutcome::Done(r) = outcome else {
                panic!("healthy campaign quarantined slot {slot}");
            };
            seen.lock().unwrap().push((slot, r.fault_id.clone()));
        })
        .unwrap();
        let seen = seen.into_inner().unwrap();
        let expected: Vec<(usize, String)> = (2..6).map(|i| (i, fl.faults[i].id.clone())).collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn stable_hash_ignores_parallelism_but_tracks_everything_else() {
        let base = quick_config();
        let mut jobs4 = base.clone();
        jobs4.parallelism = 4;
        assert_eq!(base.stable_hash(), jobs4.stable_hash());
        let mut other_seed = base.clone();
        other_seed.seed = base.seed + 1;
        assert_ne!(base.stable_hash(), other_seed.stable_hash());
        let mut other_interval = base.clone();
        other_interval.interval.duration = SimDuration::from_millis(301);
        assert_ne!(base.stable_hash(), other_interval.stable_hash());
    }

    #[test]
    fn pack_refs_are_additive_in_config_json_and_hash() {
        // Loading an extra pack must change the stable hash (other fault
        // set).
        let base = quick_config();
        let with_pack = CampaignConfig::builder()
            .interval(base.interval)
            .os_budget(base.os_budget)
            .packs(vec![swfit_core::pack::PackRef {
                name: "chain-cleanup".into(),
                version: "1.0.0".into(),
                content_hash: 0xfeed,
            }])
            .build();
        assert_ne!(base.stable_hash(), with_pack.stable_hash());
        // Round-trips like any config.
        let back: CampaignConfig =
            serde_json::from_str(&serde_json::to_string(&with_pack).unwrap()).unwrap();
        assert_eq!(back.stable_hash(), with_pack.stable_hash());
        assert_eq!(back.packs.len(), 1);
    }

    #[test]
    fn panicking_slot_is_quarantined_not_fatal() {
        let fl = small_faultload(Edition::Nimbus2000, 6);
        for parallelism in [1, 3] {
            let cfg = CampaignConfig {
                parallelism,
                ..quick_config()
            };
            let mut c = Campaign::new(Edition::Nimbus2000, ServerKind::Wren, cfg);
            c.panic_on_fault(&fl.faults[2].id);
            let res = c.run_injection(&fl, 0).unwrap();
            assert_eq!(res.slots.len(), 5, "five healthy slots completed");
            assert_eq!(res.quarantined.len(), 1);
            assert_eq!(res.quarantined[0].slot, 2);
            assert_eq!(res.quarantined[0].fault_id, fl.faults[2].id);
            let SlotError::Panicked { message } = &res.quarantined[0].error else {
                panic!(
                    "expected a panicked slot, got {:?}",
                    res.quarantined[0].error
                );
            };
            assert!(message.contains("harness fault"), "message: {message}");
            // Slots after the panic still derived their own seeds: they
            // match an unpoisoned run exactly.
            let clean = Campaign::new(Edition::Nimbus2000, ServerKind::Wren, quick_config())
                .run_injection(&fl, 0)
                .unwrap();
            for (got, want) in res.slots.iter().zip(
                clean
                    .slots
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != 2)
                    .map(|(_, s)| s),
            ) {
                assert_eq!(
                    serde_json::to_string(got).unwrap(),
                    serde_json::to_string(want).unwrap()
                );
            }
        }
    }

    #[test]
    fn resume_reattempts_only_quarantined_slots() {
        use std::sync::Mutex;
        let fl = small_faultload(Edition::Nimbus2000, 6);
        let c = Campaign::new(Edition::Nimbus2000, ServerKind::Wren, quick_config());
        let clean = c.run_injection(&fl, 0).unwrap();
        let clean_json = serde_json::to_string(&clean).unwrap();

        let mut poisoned = Campaign::new(Edition::Nimbus2000, ServerKind::Wren, quick_config());
        poisoned.panic_on_fault(&fl.faults[2].id);
        // First attempt: journal every outcome, including the quarantine.
        let journal = Mutex::new(Vec::new());
        let first = poisoned
            .run_injection_observed(&fl, 0, Vec::new(), &|slot, outcome| {
                journal.lock().unwrap().push((slot, outcome.clone()));
            })
            .unwrap();
        assert_eq!(first.quarantined.len(), 1);
        let mut journal = journal.into_inner().unwrap();
        journal.sort_by_key(|(slot, _)| *slot);
        let completed: Vec<SlotOutcome> = journal.into_iter().map(|(_, o)| o).collect();
        assert_eq!(completed.len(), 6, "every slot was journaled");

        // Resume with a healthy harness: only slot 2 re-executes, and the
        // assembled result is byte-identical to the never-interrupted run.
        let reexecuted = Mutex::new(Vec::new());
        let resumed = c
            .run_injection_observed(&fl, 0, completed, &|slot, _| {
                reexecuted.lock().unwrap().push(slot);
            })
            .unwrap();
        assert_eq!(*reexecuted.lock().unwrap(), vec![2]);
        assert_eq!(serde_json::to_string(&resumed).unwrap(), clean_json);
    }

    #[test]
    fn recovery_policy_is_part_of_the_config_hash() {
        let base = quick_config();
        let mut backoff = base.clone();
        backoff.interval.recovery = crate::recovery::RecoveryPolicy::backoff();
        assert_ne!(
            base.stable_hash(),
            backoff.stable_hash(),
            "non-default policies must invalidate journals"
        );
    }

    #[test]
    fn fingerprint_mismatch_is_an_error_not_a_panic() {
        let mut fl = small_faultload(Edition::Nimbus2000, 3);
        fl.fingerprint = 0xDEAD_BEEF;
        let c = Campaign::new(Edition::Nimbus2000, ServerKind::Wren, quick_config());
        match c.run_injection(&fl, 0) {
            Err(CampaignError::FingerprintMismatch { target, edition }) => {
                assert_eq!(target, fl.target);
                assert_eq!(edition, Edition::Nimbus2000);
            }
            other => panic!("expected FingerprintMismatch, got {other:?}"),
        }
    }
}
