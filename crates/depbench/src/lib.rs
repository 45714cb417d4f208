//! `depbench` — the web-server dependability benchmark of the paper's case
//! study (§3).
//!
//! The benchmark extends a SPECWeb99-like performance benchmark with a
//! faultload of software faults injected into the OS beneath the web server:
//!
//! * [`interval`] — the measurement loop: N client connections drive the
//!   server on simulated time; a **watchdog** observes the server and
//!   repairs it, counting the paper's availability events — **MIS** (died
//!   and did not self-restart), **KNS** (killed: not answering), **KCP**
//!   (killed: hogging the CPU without serving);
//! * [`campaign`] — the slot structure of Fig. 4: one fault per slot,
//!   inject → exercise → remove → rest, plus baseline and injector
//!   profile-mode runs for the intrusiveness evaluation (Table 4);
//! * [`executor`] — the parallel campaign engine: shards the independent
//!   slots over worker threads with per-slot derived seeding, keeping
//!   results bit-identical to the sequential run;
//! * [`profilephase`] — the faultload fine-tuning of §2.4: drive all four
//!   servers with the workload, trace their OS-API usage, intersect
//!   (Table 2);
//! * [`recovery`] — pluggable watchdog repair policies (fixed delay,
//!   exponential backoff, reboot escalation, warm-spare failover) and the
//!   availability timeline they produce (availability %, MTTR,
//!   time-to-first-repair, longest outage);
//! * [`metrics`] — the dependability metrics of §3.2: SPCf, THRf, RTMf,
//!   ER%f and ADMf (= MIS + KNS + KCP);
//! * [`opfaults`] — the paper's suggested *operator faults* extension:
//!   administrator mistakes on the served document tree, run through the
//!   same slots as software faults by [`Campaign::run_operator_faults`];
//! * [`report`] — plain-text table rendering for the table/figure
//!   regenerators.

pub mod campaign;
pub mod executor;
pub mod interval;
pub mod metrics;
pub mod opfaults;
pub mod profilephase;
pub mod recovery;
pub mod report;

pub use campaign::{
    ActivationSummary, Campaign, CampaignConfig, CampaignConfigBuilder, CampaignError,
    CampaignResult, QuarantinedSlot, SlotActivation, SlotError, SlotOutcome, SlotResult,
    TraceConfig, TypeActivation,
};
pub use executor::SlotToken;
pub use interval::{IntervalConfig, WatchdogCounts};
pub use metrics::{
    aggregate_metrics, ConvergenceConfig, DependabilityMetrics, MetricsCi, MetricsSummary,
    RequestCounts,
};
pub use opfaults::{apply_operator_fault, generate_operator_faults, OperatorFault};
pub use profilephase::{profile_servers, ProfilePhaseConfig};
pub use recovery::{AvailabilityMetrics, FailureClass, RecoveryPolicy, RepairAction, RepairPlan};
