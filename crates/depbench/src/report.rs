//! Plain-text table rendering for the table/figure regenerator binaries.

use std::fmt::Write as _;

/// A simple column-aligned text table.
#[derive(Clone, Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// A table with the given column headers.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> TextTable {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (padded/truncated to the header width).
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                let _ = write!(line, "{:<width$}  ", cell, width = widths[i]);
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        out.push_str(&"-".repeat(total.saturating_sub(2)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats a float with `digits` decimals (report cells).
pub fn f(value: f64, digits: usize) -> String {
    format!("{value:.digits$}")
}

/// Formats a `[0, 1]` fraction as a percentage cell, e.g. `0.9987` →
/// `"99.87%"`. Availability columns use this.
pub fn pct(fraction: f64) -> String {
    format!("{:.2}%", fraction * 100.0)
}

/// Formats a value with its 95 % confidence half-width, e.g. `"12.0 ±0.5"`.
/// Without an interval (single iteration, or legacy artifacts missing the
/// underlying counts) the cell is just the value — same as before the
/// statistics engine existed.
pub fn pm(value: f64, digits: usize, ci: Option<&simstats::Ci>) -> String {
    match ci {
        Some(ci) => format!("{value:.digits$} \u{b1}{:.digits$}", ci.half_width),
        None => f(value, digits),
    }
}

/// `cell`, or `n/a` for a metric over zero completed slots (see
/// [`crate::DependabilityMetrics::measured`]): such a metric has no value,
/// and a `0.0` in its place would read as a measured zero.
pub fn or_na(measured: bool, cell: String) -> String {
    if measured {
        cell
    } else {
        "n/a".to_string()
    }
}

/// Renders a horizontal ASCII bar scaled to `max` over `width` chars.
///
/// Degenerate inputs render an empty or clamped bar instead of an
/// over-width or garbage one: non-finite or non-positive `value`/`max`
/// yield `""`, and `value > max` saturates at `width` characters.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    if !value.is_finite() || !max.is_finite() || max <= 0.0 || value <= 0.0 {
        return String::new();
    }
    let frac = (value / max).clamp(0.0, 1.0);
    let n = (frac * width as f64).round() as usize;
    "#".repeat(n.min(width))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(["name", "value"]);
        t.row(["x", "1"]);
        t.row(["longer-name", "2.5"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("x"));
        // Columns align: "1" and "2.5" start at the same offset.
        let off1 = lines[2].find('1').unwrap();
        let off2 = lines[3].find('2').unwrap();
        assert_eq!(off1, off2);
    }

    #[test]
    fn rows_are_padded_to_header_width() {
        let mut t = TextTable::new(["a", "b", "c"]);
        t.row(["only-one"]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        let s = t.render();
        assert!(s.contains("only-one"));
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(f(10.0, 1), "10.0");
    }

    #[test]
    fn plus_minus_cells() {
        let ci = simstats::Ci {
            mean: 12.0,
            half_width: 0.46,
        };
        assert_eq!(pm(12.0, 1, Some(&ci)), "12.0 \u{b1}0.5");
        assert_eq!(pm(12.0, 1, None), "12.0");
    }

    #[test]
    fn unmeasured_cells_read_na() {
        assert_eq!(or_na(true, f(0.0, 1)), "0.0");
        assert_eq!(or_na(false, f(0.0, 1)), "n/a");
    }

    #[test]
    fn percentage_formatting() {
        assert_eq!(pct(0.9987), "99.87%");
        assert_eq!(pct(1.0), "100.00%");
        assert_eq!(pct(0.0), "0.00%");
    }

    #[test]
    fn bars_scale() {
        assert_eq!(bar(5.0, 10.0, 10), "#####");
        assert_eq!(bar(10.0, 10.0, 10), "##########");
        assert_eq!(bar(20.0, 10.0, 10), "##########");
        assert_eq!(bar(0.0, 10.0, 10), "");
        assert_eq!(bar(1.0, 0.0, 10), "");
    }

    #[test]
    fn degenerate_bar_inputs_never_overflow_or_panic() {
        // Over-max saturates at width.
        assert_eq!(bar(1e18, 1.0, 8), "########");
        // Negative or zero scale renders nothing.
        assert_eq!(bar(5.0, -3.0, 10), "");
        assert_eq!(bar(-5.0, 10.0, 10), "");
        // Non-finite inputs render nothing instead of garbage widths.
        assert_eq!(bar(f64::NAN, 10.0, 10), "");
        assert_eq!(bar(5.0, f64::NAN, 10), "");
        assert_eq!(bar(f64::INFINITY, 10.0, 10), "");
        assert_eq!(bar(5.0, f64::INFINITY, 10), "");
        // Zero width is a valid (empty) bar.
        assert_eq!(bar(5.0, 10.0, 0), "");
    }
}
