//! The one flag contract of every binary and `faultbench` subcommand. Each
//! command names the flags it reads ([`check_flags`]; the lists are in the
//! crate docs), and any other `--flag` — a typo, or a flag the command
//! would ignore — is a one-line usage error before any work starts. The
//! shared flags, parsed here once ([`CliArgs`]):
//!
//! ```text
//! --jobs N       worker threads for fault slots (default 1; results are
//!                bit-identical at any value; 0 is clamped to 1 with a
//!                warning)
//! --seed N       base RNG seed (default: the paper-dated default)
//! --iters N      iteration count (default per binary: 1 for `faultbench
//!                campaign`, 3 for `table5`/`figure5`); 0 is clamped to 1
//!                with a warning
//! --limit N      evenly sample each faultload down to at most N faults
//!                (N > 0; quick runs and CI smoke tests)
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
//! A command reads its own extra flags (`--out`, `--faultload`, …) with
//! [`value_of`], so a flag given without its value is an error everywhere,
//! never silently dropped.

use std::str::FromStr;

use depbench::{Campaign, CampaignConfig, CampaignConfigBuilder, CampaignResult, TraceConfig};
use faultstore::{ChaosConfig, ChaosFs, ChaosProfile, FaultStore};
use swfit_core::Faultload;

/// Every shared flag, in the order of the module docs: the `reads` list of
/// a command that reads them all (`table5`, `figure5`).
pub const SHARED_FLAGS: &str = "--jobs --seed --iters --limit --store --resume \
     --trace --trace-dir --chaos-seed --chaos-profile --slot-budget-ms";

/// The shared flags, parsed from the process arguments; a flag the command
/// does not read keeps its default.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CliArgs {
    /// `--jobs N`: campaign worker threads. `None` = 1 (sequential).
    pub jobs: Option<usize>,
    /// `--seed N`: base RNG seed override.
    pub seed: Option<u64>,
    /// `--iters N`: iteration count.
    pub iters: Option<u64>,
    /// `--limit N`: sample each faultload down to at most N faults.
    /// `None` = no cap.
    pub limit: Option<usize>,
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
    /// Parses the current process arguments for a command that reads the
    /// space-separated flags in `reads`, exiting 2 with a one-line usage
    /// message on any other flag or a malformed flag value.
    pub fn parse(reads: &str) -> CliArgs {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match CliArgs::from_slice(&args, reads) {
            Ok(cli) => cli,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
    }

    /// Parses a pre-collected argument slice for a command that reads the
    /// space-separated flags in `reads` (shared and its own).
    ///
    /// # Errors
    ///
    /// A usage message when `args` holds a flag outside `reads` (see
    /// [`check_flags`]), when a flag value is missing or malformed, or when
    /// `--resume` is given without `--store`.
    pub fn from_slice(args: &[String], reads: &str) -> Result<CliArgs, String> {
        check_flags(args, reads)?;
        const UNSIGNED: &str = "an unsigned integer";
        const POSITIVE: &str = "a positive integer";
        let any = |_: &u64| true;
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
        let jobs = parse_flag(args, "--jobs", UNSIGNED, |_: &usize| true)?
            .map(|n| clamp_zero("--jobs", n as u64) as usize);
        let iters = parse_flag(args, "--iters", UNSIGNED, any)?.map(|n| clamp_zero("--iters", n));
        let limit = parse_flag(args, "--limit", POSITIVE, |n: &usize| *n > 0)?;
        let seed = parse_flag(args, "--seed", UNSIGNED, any)?;
        let store = value_of(args, "--store")?.map(std::path::PathBuf::from);
        let resume = args.iter().any(|a| a == "--resume");
        if resume && store.is_none() {
            return Err("--resume needs --store DIR (the journal lives in the store)".into());
        }
        let trace_dir = value_of(args, "--trace-dir")?.map(std::path::PathBuf::from);
        let trace = trace_dir.is_some() || args.iter().any(|a| a == "--trace");
        let mut chaos_seed = parse_flag(args, "--chaos-seed", UNSIGNED, any)?;
        let chaos_profile = match value_of(args, "--chaos-profile")?.map(String::as_str) {
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
        let slot_budget_ms = parse_flag(args, "--slot-budget-ms", POSITIVE, |n: &u64| *n > 0)?;
        Ok(CliArgs {
            jobs,
            seed,
            iters,
            limit,
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
            Some(ms) => campaign.with_slot_budget(std::time::Duration::from_millis(ms)),
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

/// Checks that every `--flag` in `args` is one of the space-separated
/// flags in `reads`, the ones the command reads.
///
/// # Errors
///
/// A one-line usage message naming the first other flag.
pub fn check_flags(args: &[String], reads: &str) -> Result<(), String> {
    match args
        .iter()
        .find(|a| a.starts_with("--") && !reads.split_whitespace().any(|r| r == *a))
    {
        None => Ok(()),
        Some(flag) => Err(format!(
            "unknown flag `{flag}`; this command reads {}",
            if reads.is_empty() { "no flags" } else { reads }
        )),
    }
}

/// The value of flag `name` in `args`: `None` when the flag is absent.
///
/// # Errors
///
/// `"{name} needs a value"` when the flag is the last argument or is
/// followed by another `--flag`.
pub fn value_of<'a>(args: &'a [String], name: &str) -> Result<Option<&'a String>, String> {
    Ok(values_of(args, name)?.into_iter().next())
}

/// Every value of a repeatable flag (e.g. `--pack`), in order.
///
/// # Errors
///
/// As [`value_of`], for any occurrence.
pub fn values_of<'a>(args: &'a [String], name: &str) -> Result<Vec<&'a String>, String> {
    let mut values = Vec::new();
    let mut rest = args;
    while let Some(i) = rest.iter().position(|a| a == name) {
        let value = rest
            .get(i + 1)
            .filter(|v| !v.starts_with("--"))
            .ok_or_else(|| format!("{name} needs a value"))?;
        values.push(value);
        rest = &rest[i + 2..];
    }
    Ok(values)
}

/// Parses flag `name`'s value as a `T` that `valid` accepts; `what` names
/// the expected value in the error.
fn parse_flag<T: FromStr>(
    args: &[String],
    name: &str,
    what: &str,
    valid: impl Fn(&T) -> bool,
) -> Result<Option<T>, String> {
    value_of(args, name)?
        .map(|v| {
            v.parse::<T>()
                .ok()
                .filter(|x| valid(x))
                .ok_or_else(|| format!("{name} needs {what}, got `{v}`"))
        })
        .transpose()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(ToString::to_string).collect()
    }

    /// Parses `list` for a command that reads every shared flag.
    fn parse(list: &[&str]) -> Result<CliArgs, String> {
        CliArgs::from_slice(&args(list), SHARED_FLAGS)
    }

    #[test]
    fn defaults_are_sequential_and_storeless() {
        let cli = parse(&[]).unwrap();
        assert_eq!(cli, CliArgs::default());
        let cfg = cli.config();
        assert_eq!(cfg.parallelism, 1);
        assert_eq!(cfg.seed, CampaignConfig::default().seed);
    }

    #[test]
    fn flags_parse_and_configure() {
        let cli = parse(&["--jobs", "4", "--seed", "7", "--store", "s", "--resume"]).unwrap();
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
            &["--limit"],
            &["--limit", "0"],
            &["--limit", "x"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn lookup_reads_single_and_repeated_flags() {
        let a = args(&[
            "scan", "--pack", "a.json", "--out", "o", "--pack", "b.json", "--limit", "5",
        ]);
        assert_eq!(
            value_of(&a, "--out").unwrap().map(String::as_str),
            Some("o")
        );
        assert_eq!(value_of(&a, "--save").unwrap(), None);
        assert_eq!(values_of(&a, "--pack").unwrap(), ["a.json", "b.json"]);
        assert_eq!(
            CliArgs::from_slice(&a, "--pack --out --limit")
                .unwrap()
                .limit,
            Some(5)
        );
        for bad in [&["--pack", "a", "--pack"][..], &["--pack", "--out", "o"]] {
            assert_eq!(
                values_of(&args(bad), "--pack").unwrap_err(),
                "--pack needs a value"
            );
        }
    }

    #[test]
    fn zero_jobs_and_iters_clamp_to_one() {
        let cli = parse(&["--jobs", "0", "--iters", "0"]).unwrap();
        assert_eq!(cli.jobs, Some(1));
        assert_eq!(cli.iters, Some(1));
        assert_eq!(cli.config().parallelism, 1);
    }

    #[test]
    fn unread_flags_are_rejected() {
        let a = args(&["campaign", "--out", "x.json", "--jobs", "2"]);
        // A command's own flags are read alongside the shared ones.
        let cli = CliArgs::from_slice(&a, "--jobs --out").unwrap();
        assert_eq!(cli.jobs, Some(2));
        assert_eq!(
            CliArgs::from_slice(&a, "--jobs --store").unwrap_err(),
            "unknown flag `--out`; this command reads --jobs --store"
        );
        assert_eq!(
            check_flags(&args(&["--jobs", "2"]), "").unwrap_err(),
            "unknown flag `--jobs`; this command reads no flags"
        );
        // A typo is an unread flag, and positional arguments pass.
        assert!(CliArgs::from_slice(&args(&["--job", "2"]), "--jobs").is_err());
        assert!(check_flags(&args(&["nimbus-2000", "wren"]), "").is_ok());
        // `--ci-target` is no command's flag, whatever its value.
        for gone in [
            &["--ci-target", "0"][..],
            &["--ci-target", "-5"],
            &["--ci-target", "inf"],
            &["--ci-target", "nan"],
            &["--ci-target"],
        ] {
            assert_eq!(
                parse(gone).unwrap_err(),
                format!("unknown flag `--ci-target`; this command reads {SHARED_FLAGS}"),
                "{gone:?}"
            );
        }
    }

    #[test]
    fn trace_flags_parse_and_instrument() {
        use depbench::{Campaign, CampaignConfig};
        use simos::Edition;
        use webserver::ServerKind;

        let off = parse(&[]).unwrap();
        assert!(!off.trace);
        let untouched = off.instrument(Campaign::new(
            Edition::Nimbus2000,
            ServerKind::Heron,
            CampaignConfig::default(),
        ));
        assert!(untouched.trace_config().is_none());

        let on = parse(&["--trace"]).unwrap();
        assert!(on.trace);
        assert_eq!(on.trace_dir, None);

        // --trace-dir implies --trace and carries the dump directory.
        let with_dir = parse(&["--trace-dir", "dumps"]).unwrap();
        assert!(with_dir.trace);
        let traced = with_dir.instrument(Campaign::new(
            Edition::Nimbus2000,
            ServerKind::Heron,
            CampaignConfig::default(),
        ));
        let tc = traced.trace_config().expect("tracing enabled");
        assert_eq!(tc.dump_dir.as_deref(), Some(std::path::Path::new("dumps")));

        assert!(parse(&["--trace-dir"]).is_err());
    }

    #[test]
    fn chaos_flags_parse_and_validate() {
        // Seed alone implies the transient profile.
        let cli = parse(&["--store", "s", "--chaos-seed", "42"]).unwrap();
        let cfg = cli.chaos().expect("chaos enabled");
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.profile, ChaosProfile::Transient);

        let torn = parse(&[
            "--store",
            "s",
            "--chaos-seed",
            "7",
            "--chaos-profile",
            "torn",
        ])
        .unwrap();
        assert_eq!(torn.chaos().unwrap().profile, ChaosProfile::Torn);

        // An explicit `off` disables injection even with a seed.
        let off = parse(&[
            "--store",
            "s",
            "--chaos-seed",
            "7",
            "--chaos-profile",
            "off",
        ])
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
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn slot_budget_arms_a_fixed_watchdog() {
        use depbench::{Campaign, CampaignConfig};
        use simos::Edition;
        use webserver::ServerKind;

        let cli = parse(&["--slot-budget-ms", "750"]).unwrap();
        assert_eq!(cli.slot_budget_ms, Some(750));
        let watched = cli.instrument(Campaign::new(
            Edition::Nimbus2000,
            ServerKind::Heron,
            CampaignConfig::default(),
        ));
        let armed = format!("{watched:?}");
        assert!(armed.contains("slot_budget: Some(750ms)"), "{armed}");

        // Unset leaves the campaign unwatched.
        let off = parse(&[]).unwrap();
        let unwatched = off.instrument(Campaign::new(
            Edition::Nimbus2000,
            ServerKind::Heron,
            CampaignConfig::default(),
        ));
        let unarmed = format!("{unwatched:?}");
        assert!(unarmed.contains("slot_budget: None"), "{unarmed}");

        for bad in [&["--slot-budget-ms", "0"][..], &["--slot-budget-ms", "x"]] {
            assert!(parse(bad).is_err(), "{bad:?}");
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
        let cli = parse(&["--store", dir.to_str().unwrap()]).unwrap();
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
