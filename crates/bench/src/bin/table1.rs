//! Regenerates **Table 1** — the representative fault types of the
//! faultload, their field-data coverage and ODC classes — and verifies the
//! operator library covers all of them.

use depbench::report::{f, TextTable};
use swfit_core::{FaultType, Scanner};

fn main() {
    // Reads no flags: any `--flag` is a usage error.
    bench::cli::CliArgs::parse("");
    let scanner = Scanner::standard();
    let ops = scanner.operators();
    let mut table = TextTable::new([
        "Fault type",
        "Description",
        "Coverage",
        "ODC type",
        "Operator",
    ]);
    for t in FaultType::ALL {
        let implemented = ops.iter().any(|o| o.fault_type() == t);
        table.row([
            t.acronym().to_string(),
            t.description().to_string(),
            format!("{} %", f(t.field_coverage_pct(), 2)),
            t.odc_class().to_string(),
            if implemented { "yes" } else { "MISSING" }.to_string(),
        ]);
    }
    table.row([
        String::new(),
        "Total faults coverage".to_string(),
        format!("{} %", f(FaultType::total_coverage_pct(), 2)),
        String::new(),
        String::new(),
    ]);
    println!("Table 1 — Representativity of the fault types included in the faultload\n");
    print!("{}", table.render());
    println!(
        "\n{} fault types, {} mutation operators, nature split: {} missing / {} wrong",
        FaultType::ALL.len(),
        ops.len(),
        FaultType::ALL
            .iter()
            .filter(|t| t.nature() == swfit_core::FaultNature::Missing)
            .count(),
        FaultType::ALL
            .iter()
            .filter(|t| t.nature() == swfit_core::FaultNature::Wrong)
            .count(),
    );
}
