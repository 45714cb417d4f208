//! Regenerates **Table 2** — the relevant API calls: per-server call share
//! for every OS API function, the four-server average, the selected
//! intersection and its total call coverage.

use depbench::profilephase::module_of;
use depbench::report::{f, TextTable};
use depbench::{profile_servers, ProfilePhaseConfig};
use simos::{Edition, OsApi};
use webserver::ServerKind;

fn main() {
    // Reads no flags: any `--flag` is a usage error.
    bench::cli::CliArgs::parse("");
    let edition = Edition::Nimbus2000;
    let cfg = ProfilePhaseConfig::default();
    let set = profile_servers(edition, &ServerKind::ALL, &cfg);
    let selected = set.select_functions(cfg.min_avg_pct);

    let mut table = TextTable::new([
        "Function name",
        "Module",
        "heron",
        "wren",
        "sparrow",
        "swift",
        "Average",
        "Selected",
    ]);
    let mut rows = set.rows();
    rows.sort_by(|a, b| (module_of(&a.func), &a.func).cmp(&(module_of(&b.func), &b.func)));
    for r in &rows {
        let api = OsApi::from_symbol(&r.func);
        let name = api.map_or(r.func.clone(), |a| a.paper_name().to_string());
        let mut cells = vec![name, module_of(&r.func).to_string()];
        cells.extend(r.per_bt_pct.iter().map(|p| f(*p, 2)));
        cells.push(f(r.average_pct, 2));
        cells.push(if selected.contains(&r.func) { "*" } else { "" }.to_string());
        table.row(cells);
    }
    println!(
        "Table 2 — Relevant API calls ({} / {})\n",
        edition,
        edition.paper_analogue()
    );
    print!("{}", table.render());
    println!(
        "\nSelected functions (used by ALL servers, avg share >= {} %): {}",
        cfg.min_avg_pct,
        selected.len()
    );
    println!(
        "Total call coverage of the selection: {} %",
        f(set.coverage_pct(&selected), 2)
    );
}
