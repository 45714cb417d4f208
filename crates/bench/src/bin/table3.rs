//! Regenerates **Table 3** — faultload details: number of faults per fault
//! type for each OS edition, using the full §2 pipeline (profile → select →
//! restricted scan).

use bench::cli::CliArgs;
use bench::tuned_faultload;
use depbench::report::TextTable;
use simos::Edition;
use swfit_core::FaultType;

fn main() {
    let cli = CliArgs::parse("--limit");
    let mut header: Vec<String> = vec!["OS edition".into()];
    header.extend(FaultType::ALL.iter().map(|t| t.acronym().to_string()));
    header.push("Total".into());
    let mut table = TextTable::new(header);

    let mut totals = Vec::new();
    for edition in Edition::ALL {
        let fl = tuned_faultload(edition).sample(cli.limit.unwrap_or(usize::MAX));
        let counts = fl.counts_by_type();
        let mut cells = vec![format!("{} ({})", edition, edition.paper_analogue())];
        cells.extend(FaultType::ALL.iter().map(|t| counts[t].to_string()));
        cells.push(fl.len().to_string());
        table.row(cells);
        totals.push((edition, fl.len()));
    }

    println!(
        "Table 3 — Faultload details (faults per type, fine-tuned to the profiled FIT subset)\n"
    );
    print!("{}", table.render());
    let (w2k, xp) = (totals[0].1 as f64, totals[1].1 as f64);
    println!(
        "\nXP-edition faultload is {:.2}x the 2000-edition one (paper: 2927/1714 = 1.71x)",
        xp / w2k
    );
}
