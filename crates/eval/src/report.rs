//! Plain-text table rendering for the experiment harness — every harness
//! binary prints paper-style tables through this builder.

/// A simple aligned text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Self { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends a row (padded/truncated to the header width).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        let mut row: Vec<String> = cells.to_vec();
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// Renders with aligned columns and a separator under the header.
    pub fn render(&self) -> String {
        let n_cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(n_cols) {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let render_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate().take(n_cols) {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(cell);
                for _ in cell.chars().count()..widths[i] {
                    line.push(' ');
                }
            }
            line.trim_end().to_string()
        };
        let mut out = render_row(&self.header);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (n_cols - 1)));
        for row in &self.rows {
            out.push('\n');
            out.push_str(&render_row(row));
        }
        out
    }
}

/// Formats a metric as the paper does (e.g. `.958`), or `-` for NaN.
pub fn fmt_metric(v: f64) -> String {
    if v.is_nan() {
        "-".to_string()
    } else if v >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{:.3}", v).trim_start_matches('0').to_string()
    }
}

/// Formats a percentage like the paper's `E_F` column (`57.6%`).
pub fn fmt_percent(v: f64) -> String {
    format!("{v:.1}%")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = TextTable::new(&["Model", "F1"]);
        t.row(&["FlexER".into(), ".958".into()]);
        t.row(&["In-parallel".into(), ".901".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("Model"));
        assert!(lines[2].starts_with("FlexER"));
        // Columns align: "F1" and ".958" start at the same offset.
        let header_f1 = lines[0].find("F1").unwrap();
        let flexer_val = lines[2].find(".958").unwrap();
        assert_eq!(header_f1, flexer_val);
    }

    #[test]
    fn rows_padded_to_header() {
        let mut t = TextTable::new(&["a", "b", "c"]);
        t.row(&["only-one".into()]);
        assert_eq!(t.n_rows(), 1);
        assert!(t.render().contains("only-one"));
    }

    #[test]
    fn metric_formatting_matches_paper_style() {
        assert_eq!(fmt_metric(0.958), ".958");
        assert_eq!(fmt_metric(1.0), "1.000");
        assert_eq!(fmt_metric(f64::NAN), "-");
        assert_eq!(fmt_percent(57.6), "57.6%");
    }
}
