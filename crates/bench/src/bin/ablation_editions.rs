//! Ablation: where does the XP edition's extra cost and fault surface live?
//!
//! The paper's scalability argument (§4) says the faultload size follows the
//! complexity of the FIT. This ablation makes that concrete: it drives both
//! OS editions through an identical API call sequence with per-function
//! instruction attribution enabled, and prints, per API function, the
//! instruction cost and fault-location count on each edition side by side.

use depbench::report::{f, TextTable};
use simos::{Edition, Os, OsApi};
use swfit_core::Scanner;

fn exercise(os: &mut Os) {
    let scratch = 209_000;
    os.poke_cstr(scratch, "C:\\web\\bench.html").expect("pokes");
    for round in 0..50 {
        let p = os.call(OsApi::RtlAllocateHeap, &[48]).unwrap().value;
        os.call(OsApi::RtlInitAnsiString, &[scratch + 300, scratch])
            .unwrap();
        os.call(OsApi::RtlDosPathToNative, &[scratch, scratch + 400])
            .unwrap();
        let h = os.call(OsApi::NtOpenFile, &[scratch + 400]).unwrap().value;
        if h > 0 {
            os.call(OsApi::ReadFile, &[h, scratch + 500, 256]).unwrap();
            os.call(OsApi::SetFilePointer, &[h, 0]).unwrap();
            os.call(OsApi::CloseHandle, &[h]).unwrap();
        }
        os.call(OsApi::RtlUnicodeToMultibyte, &[scratch + 600, scratch, 32])
            .unwrap();
        if p > 0 {
            os.call(OsApi::RtlFreeHeap, &[p]).unwrap();
        }
        if round % 8 == 0 {
            os.call(OsApi::NtProtectVirtualMemory, &[scratch, 64, 4])
                .unwrap();
            os.call(OsApi::NtQueryVirtualMemory, &[scratch]).unwrap();
        }
    }
}

type EditionData = (Edition, Vec<(String, u64)>, swfit_core::Faultload);

fn main() {
    let cli = bench::cli::CliArgs::parse("--store --chaos-seed --chaos-profile");
    let store = cli.open_store().expect("store opens");
    let mut data: Vec<EditionData> = Vec::new();
    for edition in Edition::ALL {
        let mut os = Os::boot(edition).expect("boots");
        os.devices_mut().add_file("/web/bench.html", &[7u8; 700]);
        os.enable_cost_profiling();
        exercise(&mut os);
        let costs = os.function_costs();
        let faults = bench::scan(
            store.as_ref(),
            &Scanner::standard(),
            os.program().image(),
            None,
        )
        .expect("fault-map cache is readable");
        data.push((edition, costs, faults));
    }

    let mut table = TextTable::new([
        "Function",
        "w2k instrs",
        "xp instrs",
        "cost x",
        "w2k faults",
        "xp faults",
        "faults x",
    ]);
    let (w2k_costs, w2k_faults) = (&data[0].1, &data[0].2);
    let (xp_costs, xp_faults) = (&data[1].1, &data[1].2);
    let cost_of = |costs: &[(String, u64)], name: &str| {
        costs.iter().find(|(n, _)| n == name).map_or(0, |(_, c)| *c)
    };
    let faults_in = |fl: &swfit_core::Faultload, name: &str| {
        fl.faults.iter().filter(|f| f.func == name).count()
    };
    let mut totals = (0u64, 0u64, 0usize, 0usize);
    for api in OsApi::TABLE2 {
        let name = api.symbol();
        let (cw, cx) = (cost_of(w2k_costs, name), cost_of(xp_costs, name));
        let (fw, fx) = (faults_in(w2k_faults, name), faults_in(xp_faults, name));
        totals.0 += cw;
        totals.1 += cx;
        totals.2 += fw;
        totals.3 += fx;
        if cw == 0 && cx == 0 && fw == 0 && fx == 0 {
            continue;
        }
        table.row([
            api.paper_name().to_string(),
            cw.to_string(),
            cx.to_string(),
            if cw > 0 {
                f(cx as f64 / cw as f64, 2)
            } else {
                "-".into()
            },
            fw.to_string(),
            fx.to_string(),
            if fw > 0 {
                f(fx as f64 / fw as f64, 2)
            } else {
                "-".into()
            },
        ]);
    }
    println!("Ablation — edition cost & fault-surface attribution (identical call sequence)\n");
    print!("{}", table.render());
    println!(
        "\ntotals: instructions {} -> {} ({}x), fault locations {} -> {} ({}x)",
        totals.0,
        totals.1,
        f(totals.1 as f64 / totals.0 as f64, 2),
        totals.2,
        totals.3,
        f(totals.3 as f64 / totals.2 as f64, 2),
    );
    println!("Reading: the XP edition's extra validation code costs instructions AND");
    println!("creates fault locations — the mechanism behind Table 3's larger XP faultload.");
}
