//! Build a *custom* faultload — the methodology is not tied to web servers.
//!
//! The paper closes by noting the approach works for any domain (e.g. OLTP /
//! DBMS benchmarking). This example shows the three knobs a benchmark
//! designer has:
//!
//! 1. a **custom operator library** (here: only Checking-class faults, for a
//!    validation-robustness study),
//! 2. a **custom FIT subset** (here: only the file-handling API),
//! 3. the standard **fine-tuning** flow against whichever targets matter.
//!
//! Run with: `cargo run -p examples --bin custom_faultload`

use simos::{Edition, Os, OsApi};
use swfit_core::{pack, FaultType, Scanner};

fn main() {
    let os = Os::boot(Edition::NimbusXp).expect("OS boots");

    // 1. Checking-class operators only (MIA, MLAC, WLEC) — the ODC class
    //    that models missing/wrong validation — picked from the bundled
    //    classic pack.
    let classic = pack::classic().compile().expect("bundled pack compiles");
    let scanner = ["MIA", "MLAC", "WLEC"]
        .into_iter()
        .fold(Scanner::builder(), |b, id| {
            let op = classic.iter().find(|op| op.id() == id).expect("classic id");
            b.operator(op.clone())
        })
        .build()
        .expect("non-empty, distinct operator ids");
    println!("custom library: {} operators", scanner.operator_count());

    // 2. Restrict the FIT to the file-handling services.
    let file_api: Vec<String> = [
        OsApi::NtOpenFile,
        OsApi::NtCreateFile,
        OsApi::NtReadFile,
        OsApi::NtWriteFile,
        OsApi::NtClose,
        OsApi::ReadFile,
        OsApi::WriteFile,
        OsApi::CloseHandle,
        OsApi::SetFilePointer,
    ]
    .iter()
    .map(|f| f.symbol().to_string())
    .collect();

    let faultload = scanner.scan_functions(os.program().image(), &file_api);
    println!(
        "checking-faults-in-file-API faultload: {} faults",
        faultload.len()
    );
    for (t, n) in faultload.counts_by_type() {
        if n > 0 {
            println!("  {t:5} {n:3}");
        }
    }
    assert!(faultload.faults.iter().all(|f| matches!(
        f.fault_type,
        FaultType::Mia | FaultType::Mlac | FaultType::Wlec
    )));

    // 3. The artifact round-trips like any other faultload.
    let json = faultload.to_json().expect("serializes");
    println!(
        "\nsaved {} bytes; first fault: {}",
        json.len(),
        faultload
            .faults
            .first()
            .map_or("none".into(), ToString::to_string)
    );

    // Show where the faults sit, per function.
    let mut per_func: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    for f in &faultload.faults {
        *per_func.entry(f.func.as_str()).or_default() += 1;
    }
    println!("\nfaults per FIT function:");
    for (func, n) in per_func {
        println!("  {func:25} {n}");
    }
}
