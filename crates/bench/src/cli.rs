//! Shared command-line flags for every regenerator binary.
//!
//! All ten binaries accept the same campaign-affecting flags, parsed here
//! once instead of hand-rolled per binary:
//!
//! ```text
//! --jobs N       worker threads for fault slots (default 1; results are
//!                bit-identical at any value; 0 is clamped to 1 with a
//!                warning)
//! --seed N       base RNG seed (default: the paper-dated default)
//! --iters N      iteration cap for convergence-stopped campaigns
//!                (default 8; 0 is clamped to 1 with a warning)
//! --ci-target P  stop iterating once every tier-1 metric's 95% CI
//!                half-width is below P (percent of the mean for
//!                SPCf/THRf/RTMf, percentage points for ER%f)
//! --store DIR    persistent fault store: scans are served from the
//!                content-addressed cache, campaigns are journaled
//! --resume       resume interrupted campaigns from the store's journal
//!                (requires --store)
//! --trace        enable the per-slot flight recorder: slots record
//!                fault activation and campaigns report activation rates
//! --trace-dir D  like --trace, and also dump quarantined slots' recorder
//!                tails as JSONL under D
//! --chaos-seed N        inject deterministic environment faults into the
//!                       store's own I/O, drawn from seed N (requires
//!                       --store; profile defaults to `transient`)
//! --chaos-profile P     off | transient | torn | enospc — which fault
//!                       family the chaos layer draws from (`off`
//!                       disables injection; otherwise needs --chaos-seed)
//! --slot-budget-ms N    arm the per-slot watchdog with a fixed N ms
//!                       wall-clock budget; overrunning slots are killed
//!                       and quarantined as timed out
//! ```
//!
//! Unrecognized arguments are left alone — binaries keep their own extra
//! flags (`--out`, `--faultload`, …).

use depbench::{
    Campaign, CampaignConfig, CampaignConfigBuilder, CampaignResult, SlotWatchdogConfig,
    TraceConfig,
};
use faultstore::{ChaosConfig, ChaosFs, ChaosProfile, FaultStore};
use swfit_core::Faultload;

/// The shared flags, parsed from the process arguments.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CliArgs {
    /// `--jobs N`: campaign worker threads. `None` = 1 (sequential).
    pub jobs: Option<usize>,
    /// `--seed N`: base RNG seed override.
    pub seed: Option<u64>,
    /// `--iters N`: iteration cap for convergence-stopped campaigns.
    pub iters: Option<u64>,
    /// `--ci-target P`: CI half-width target (percent) enabling
    /// convergence-based early stopping.
    pub ci_target: Option<f64>,
    /// `--store DIR`: root of the persistent [`FaultStore`].
    pub store: Option<std::path::PathBuf>,
    /// `--resume`: replay the journaled prefix of an interrupted campaign.
    pub resume: bool,
    /// `--trace`: run slots with the flight recorder on.
    pub trace: bool,
    /// `--trace-dir DIR`: where quarantined slots dump their recorder
    /// tails. Implies `--trace`.
    pub trace_dir: Option<std::path::PathBuf>,
    /// `--chaos-seed N`: seed for the store's environment-fault schedule.
    /// `None` = no injection.
    pub chaos_seed: Option<u64>,
    /// `--chaos-profile P`: which chaos fault family to draw from. `None`
    /// when unset or explicitly `off`.
    pub chaos_profile: Option<ChaosProfile>,
    /// `--slot-budget-ms N`: fixed per-slot watchdog budget. `None` = run
    /// unwatched.
    pub slot_budget_ms: Option<u64>,
}

impl CliArgs {
    /// Parses the current process arguments, exiting with a usage message
    /// on malformed flag values.
    pub fn parse() -> CliArgs {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match CliArgs::from_slice(&args) {
            Ok(cli) => cli,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
    }

    /// Parses a pre-collected argument slice.
    ///
    /// # Errors
    ///
    /// A usage message when a flag value is missing or malformed, or when
    /// `--resume` is given without `--store`.
    pub fn from_slice(args: &[String]) -> Result<CliArgs, String> {
        let value_of = |name: &str| -> Result<Option<&String>, String> {
            match args.iter().position(|a| a == name) {
                Some(i) => args
                    .get(i + 1)
                    .filter(|v| !v.starts_with("--"))
                    .map(Some)
                    .ok_or_else(|| format!("{name} needs a value")),
                None => Ok(None),
            }
        };
        // Zero workers / zero iterations cannot run anything; clamp to 1
        // with a warning instead of erroring or (worse) dividing by zero
        // downstream.
        let clamp_zero = |flag: &str, n: u64| -> u64 {
            if n == 0 {
                eprintln!("warning: {flag} 0 makes no progress; clamped to 1");
                1
            } else {
                n
            }
        };
        let jobs = value_of("--jobs")?
            .map(|v| {
                v.parse::<usize>()
                    .map_err(|_| format!("--jobs needs an unsigned integer, got `{v}`"))
                    .map(|n| clamp_zero("--jobs", n as u64) as usize)
            })
            .transpose()?;
        let iters = value_of("--iters")?
            .map(|v| {
                v.parse::<u64>()
                    .map_err(|_| format!("--iters needs an unsigned integer, got `{v}`"))
                    .map(|n| clamp_zero("--iters", n))
            })
            .transpose()?;
        let ci_target = value_of("--ci-target")?
            .map(|v| {
                v.parse::<f64>()
                    .ok()
                    .filter(|p| p.is_finite() && *p > 0.0)
                    .ok_or_else(|| format!("--ci-target needs a positive percentage, got `{v}`"))
            })
            .transpose()?;
        let seed = value_of("--seed")?
            .map(|v| {
                v.parse::<u64>()
                    .map_err(|_| format!("--seed needs an unsigned integer, got `{v}`"))
            })
            .transpose()?;
        let store = value_of("--store")?.map(std::path::PathBuf::from);
        let resume = args.iter().any(|a| a == "--resume");
        if resume && store.is_none() {
            return Err("--resume needs --store DIR (the journal lives in the store)".into());
        }
        let trace_dir = value_of("--trace-dir")?.map(std::path::PathBuf::from);
        let trace = trace_dir.is_some() || args.iter().any(|a| a == "--trace");
        let mut chaos_seed = value_of("--chaos-seed")?
            .map(|v| {
                v.parse::<u64>()
                    .map_err(|_| format!("--chaos-seed needs an unsigned integer, got `{v}`"))
            })
            .transpose()?;
        let chaos_profile = match value_of("--chaos-profile")?.map(String::as_str) {
            None => None,
            // An explicit `off` wins over --chaos-seed: injection fully
            // disabled, exactly as if neither flag were given.
            Some("off") => {
                chaos_seed = None;
                None
            }
            Some(p) => {
                let profile: ChaosProfile = p.parse()?;
                if chaos_seed.is_none() {
                    return Err(format!(
                        "--chaos-profile {p} needs --chaos-seed N (the fault schedule is seeded)"
                    ));
                }
                Some(profile)
            }
        };
        if chaos_seed.is_some() && store.is_none() {
            return Err(
                "--chaos-seed needs --store DIR (chaos injects into the store's I/O)".into(),
            );
        }
        let slot_budget_ms = value_of("--slot-budget-ms")?
            .map(|v| {
                v.parse::<u64>()
                    .ok()
                    .filter(|n| *n > 0)
                    .ok_or_else(|| format!("--slot-budget-ms needs a positive integer, got `{v}`"))
            })
            .transpose()?;
        Ok(CliArgs {
            jobs,
            seed,
            iters,
            ci_target,
            store,
            resume,
            trace,
            trace_dir,
            chaos_seed,
            chaos_profile,
            slot_budget_ms,
        })
    }

    /// The chaos configuration implied by `--chaos-seed`/`--chaos-profile`:
    /// `Some` only when a seed was given (and the profile is not `off`).
    /// The profile defaults to [`ChaosProfile::Transient`], the family
    /// whose every fault is survivable by retry.
    pub fn chaos(&self) -> Option<ChaosConfig> {
        let seed = self.chaos_seed?;
        Some(ChaosConfig {
            seed,
            profile: self.chaos_profile.unwrap_or(ChaosProfile::Transient),
        })
    }

    /// The convergence rule implied by `--iters`/`--ci-target`: `Some`
    /// only when `--ci-target` was given (otherwise campaigns run their
    /// fixed iteration count as before). `max_iters` comes from `--iters`
    /// (default 8) and is floored at `min_iters` = 2 — a CI needs at least
    /// two samples.
    pub fn convergence(&self) -> Option<depbench::ConvergenceConfig> {
        let target = self.ci_target?;
        Some(depbench::ConvergenceConfig {
            target_halfwidth_pct: target,
            min_iters: 2,
            max_iters: self.iters.unwrap_or(8).max(2),
        })
    }

    /// Applies the campaign-affecting flags to a config builder.
    #[must_use]
    pub fn configure(&self, mut builder: CampaignConfigBuilder) -> CampaignConfigBuilder {
        builder = builder.parallelism(self.jobs.unwrap_or(1));
        if let Some(seed) = self.seed {
            builder = builder.seed(seed);
        }
        builder
    }

    /// A ready [`CampaignConfig`] reflecting `--jobs`/`--seed`.
    pub fn config(&self) -> CampaignConfig {
        self.configure(CampaignConfig::builder()).build()
    }

    /// Applies `--trace`/`--trace-dir` and `--slot-budget-ms` to a
    /// campaign: with no flags the campaign is returned untouched
    /// (recording off, slots unwatched — the defaults).
    #[must_use]
    pub fn instrument(&self, campaign: Campaign) -> Campaign {
        let campaign = match self.slot_budget_ms {
            Some(ms) => campaign.with_watchdog(SlotWatchdogConfig::fixed(
                std::time::Duration::from_millis(ms),
            )),
            None => campaign,
        };
        if !self.trace {
            return campaign;
        }
        campaign.with_trace(TraceConfig {
            dump_dir: self.trace_dir.clone(),
            ..TraceConfig::default()
        })
    }

    /// Opens the `--store` directory, if one was given, routing its I/O
    /// through the chaos layer when `--chaos-seed` is set.
    ///
    /// # Errors
    ///
    /// The store error, stringified for CLI reporting.
    pub fn open_store(&self) -> Result<Option<FaultStore>, String> {
        self.store
            .as_deref()
            .map(|dir| {
                FaultStore::open(dir)
                    .map(|store| match self.chaos() {
                        Some(cfg) => store.with_chaos(ChaosFs::seeded(cfg)),
                        None => store,
                    })
                    .map_err(|e| e.to_string())
            })
            .transpose()
    }

    /// Runs one injection campaign iteration, journaled through the store
    /// when one is given (honouring `--resume`), plain otherwise.
    ///
    /// # Errors
    ///
    /// The campaign or store error, stringified for CLI reporting.
    pub fn run_injection(
        &self,
        store: Option<&FaultStore>,
        campaign: &Campaign,
        faultload: &Faultload,
        iteration: u64,
    ) -> Result<CampaignResult, String> {
        match store {
            Some(store) => store
                .run_resumable(campaign, faultload, iteration, self.resume)
                .map_err(|e| e.to_string()),
            None => campaign
                .run_injection(faultload, iteration)
                .map_err(|e| e.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn defaults_are_sequential_and_storeless() {
        let cli = CliArgs::from_slice(&[]).unwrap();
        assert_eq!(cli, CliArgs::default());
        let cfg = cli.config();
        assert_eq!(cfg.parallelism, 1);
        assert_eq!(cfg.seed, CampaignConfig::default().seed);
    }

    #[test]
    fn flags_parse_and_configure() {
        let cli = CliArgs::from_slice(&args(&[
            "--jobs", "4", "--seed", "7", "--store", "s", "--resume",
        ]))
        .unwrap();
        assert_eq!(cli.jobs, Some(4));
        assert_eq!(cli.seed, Some(7));
        assert_eq!(cli.store.as_deref(), Some(std::path::Path::new("s")));
        assert!(cli.resume);
        let cfg = cli.config();
        assert_eq!(cfg.parallelism, 4);
        assert_eq!(cfg.seed, 7);
    }

    #[test]
    fn malformed_values_are_rejected() {
        for bad in [
            &["--jobs", "many"][..],
            &["--jobs"],
            &["--seed", "-1"],
            &["--seed"],
            &["--store"],
            &["--resume"], // without --store
            &["--jobs", "--seed"],
            &["--iters", "many"],
            &["--iters"],
            &["--ci-target", "0"],
            &["--ci-target", "-5"],
            &["--ci-target", "inf"],
            &["--ci-target", "nan"],
            &["--ci-target"],
        ] {
            assert!(CliArgs::from_slice(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn zero_jobs_and_iters_clamp_to_one() {
        let cli = CliArgs::from_slice(&args(&["--jobs", "0", "--iters", "0"])).unwrap();
        assert_eq!(cli.jobs, Some(1));
        assert_eq!(cli.iters, Some(1));
        assert_eq!(cli.config().parallelism, 1);
    }

    #[test]
    fn convergence_comes_from_ci_target_and_iters() {
        // Without --ci-target there is no convergence rule: campaigns run
        // their fixed iteration count as before.
        let fixed = CliArgs::from_slice(&args(&["--iters", "5"])).unwrap();
        assert!(fixed.convergence().is_none());

        let conv = CliArgs::from_slice(&args(&["--ci-target", "5", "--iters", "6"]))
            .unwrap()
            .convergence()
            .unwrap();
        assert!((conv.target_halfwidth_pct - 5.0).abs() < 1e-12);
        assert_eq!(conv.min_iters, 2);
        assert_eq!(conv.max_iters, 6);

        // The cap never drops below min_iters: a CI needs two samples.
        let floored = CliArgs::from_slice(&args(&["--ci-target", "5", "--iters", "1"]))
            .unwrap()
            .convergence()
            .unwrap();
        assert_eq!(floored.max_iters, 2);

        // Default cap without --iters.
        let default = CliArgs::from_slice(&args(&["--ci-target", "2.5"]))
            .unwrap()
            .convergence()
            .unwrap();
        assert_eq!(default.max_iters, 8);
    }

    #[test]
    fn foreign_flags_are_ignored() {
        let cli =
            CliArgs::from_slice(&args(&["campaign", "--out", "x.json", "--jobs", "2"])).unwrap();
        assert_eq!(cli.jobs, Some(2));
    }

    #[test]
    fn trace_flags_parse_and_instrument() {
        use depbench::{Campaign, CampaignConfig};
        use simos::Edition;
        use webserver::ServerKind;

        let off = CliArgs::from_slice(&[]).unwrap();
        assert!(!off.trace);
        let untouched = off.instrument(Campaign::new(
            Edition::Nimbus2000,
            ServerKind::Heron,
            CampaignConfig::default(),
        ));
        assert!(untouched.trace_config().is_none());

        let on = CliArgs::from_slice(&args(&["--trace"])).unwrap();
        assert!(on.trace);
        assert_eq!(on.trace_dir, None);

        // --trace-dir implies --trace and carries the dump directory.
        let with_dir = CliArgs::from_slice(&args(&["--trace-dir", "dumps"])).unwrap();
        assert!(with_dir.trace);
        let traced = with_dir.instrument(Campaign::new(
            Edition::Nimbus2000,
            ServerKind::Heron,
            CampaignConfig::default(),
        ));
        let tc = traced.trace_config().expect("tracing enabled");
        assert_eq!(tc.dump_dir.as_deref(), Some(std::path::Path::new("dumps")));

        assert!(CliArgs::from_slice(&args(&["--trace-dir"])).is_err());
    }

    #[test]
    fn chaos_flags_parse_and_validate() {
        // Seed alone implies the transient profile.
        let cli = CliArgs::from_slice(&args(&["--store", "s", "--chaos-seed", "42"])).unwrap();
        let cfg = cli.chaos().expect("chaos enabled");
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.profile, ChaosProfile::Transient);

        let torn = CliArgs::from_slice(&args(&[
            "--store",
            "s",
            "--chaos-seed",
            "7",
            "--chaos-profile",
            "torn",
        ]))
        .unwrap();
        assert_eq!(torn.chaos().unwrap().profile, ChaosProfile::Torn);

        // An explicit `off` disables injection even with a seed.
        let off = CliArgs::from_slice(&args(&[
            "--store",
            "s",
            "--chaos-seed",
            "7",
            "--chaos-profile",
            "off",
        ]))
        .unwrap();
        assert!(off.chaos().is_none());

        for bad in [
            &["--chaos-seed", "1"][..],                   // without --store
            &["--store", "s", "--chaos-seed", "many"],    // malformed seed
            &["--store", "s", "--chaos-profile", "torn"], // profile without seed
            &[
                "--store",
                "s",
                "--chaos-seed",
                "1",
                "--chaos-profile",
                "weird",
            ],
            &["--store", "s", "--chaos-seed"],
        ] {
            assert!(CliArgs::from_slice(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn slot_budget_arms_a_fixed_watchdog() {
        use depbench::{Campaign, CampaignConfig};
        use simos::Edition;
        use webserver::ServerKind;

        let cli = CliArgs::from_slice(&args(&["--slot-budget-ms", "750"])).unwrap();
        assert_eq!(cli.slot_budget_ms, Some(750));
        let watched = cli.instrument(Campaign::new(
            Edition::Nimbus2000,
            ServerKind::Heron,
            CampaignConfig::default(),
        ));
        let wd = watched.watchdog_config().expect("watchdog armed");
        assert_eq!(wd.budget_ms(0), 750);
        assert_eq!(wd.budget_ms(10_000), 750, "fixed budgets never scale");

        // Unset leaves the campaign unwatched.
        let off = CliArgs::from_slice(&[]).unwrap();
        let unwatched = off.instrument(Campaign::new(
            Edition::Nimbus2000,
            ServerKind::Heron,
            CampaignConfig::default(),
        ));
        assert!(unwatched.watchdog_config().is_none());

        for bad in [&["--slot-budget-ms", "0"][..], &["--slot-budget-ms", "x"]] {
            assert!(CliArgs::from_slice(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn foreign_faultload_error_carries_the_rescan_hint_with_and_without_store() {
        use depbench::{Campaign, CampaignConfig};
        use simos::{Edition, Os, OsApi};
        use swfit_core::Scanner;
        use webserver::ServerKind;

        // Scanned from the XP build, run against nimbus-2000: the
        // fingerprint check refuses it before any slot runs.
        let xp = Os::boot(Edition::NimbusXp).unwrap();
        let foreign = Scanner::standard()
            .scan_functions(xp.program().image(), &[OsApi::NtClose.symbol().to_string()]);
        let campaign = Campaign::new(
            Edition::Nimbus2000,
            ServerKind::Wren,
            CampaignConfig::default(),
        );
        let dir = std::env::temp_dir().join(format!("bench-cli-foreign-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cli = CliArgs::from_slice(&args(&["--store", dir.to_str().unwrap()])).unwrap();
        let store = cli.open_store().unwrap().expect("--store opens a store");
        for store in [Some(&store), None] {
            let err = cli
                .run_injection(store, &campaign, &foreign, 0)
                .unwrap_err();
            assert!(
                err.contains("different nimbus-2000 build; re-run `faultbench scan`"),
                "store={}: {err}",
                store.is_some()
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
