//! Slot independence when the watchdog reboots the OS mid-slot.
//!
//! A reboot zeroes and re-initializes all of OS memory, so the next slot's
//! snapshot restore must copy everything back rather than only the pages
//! the slot wrote. This file is its own test binary (its own process), so
//! the process-wide `simos::reboot_count` moves only for this campaign.

use depbench::{Campaign, CampaignConfig, IntervalConfig, RecoveryPolicy};
use simkit::SimDuration;
use simos::{Edition, Os};
use swfit_core::Scanner;
use webserver::ServerKind;

#[test]
fn reboot_escalation_campaign_is_byte_identical_across_parallelism() {
    // Functions on the serve path whose faults crash or hang the server.
    let funcs = [
        "rtl_unicode_to_multibyte",
        "rtl_dos_path_to_native",
        "get_long_path_name",
    ]
    .map(String::from);
    let os = Os::boot(Edition::Nimbus2000).unwrap();
    let faultload = Scanner::standard().scan_functions(os.program().image(), &funcs);

    let run = |parallelism: usize| {
        let cfg = CampaignConfig::builder()
            .interval(IntervalConfig {
                duration: SimDuration::from_millis(300),
                ..IntervalConfig::default()
            })
            // Every watchdog repair reboots the OS first.
            .recovery(RecoveryPolicy::RebootEscalation {
                after_failures: 0,
                reboot_cost: SimDuration::from_millis(20),
            })
            .os_budget(150_000)
            .parallelism(parallelism)
            .build();
        let result = Campaign::new(Edition::Nimbus2000, ServerKind::Wren, cfg)
            .run_injection(&faultload, 0)
            .unwrap();
        serde_json::to_string(&result).unwrap()
    };

    let before = simos::reboot_count();
    let sequential = run(1);
    let rebooted = simos::reboot_count() - before;
    assert!(rebooted > 0, "no slot rebooted: the test would be vacuous");
    assert_eq!(sequential, run(3));
    assert_eq!(simos::reboot_count() - before, 2 * rebooted);
}
