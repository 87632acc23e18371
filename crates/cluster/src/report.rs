//! Plain-text report formatting for the bench harnesses.
//!
//! Every table/figure bench prints its result through these helpers so the
//! output of `cargo bench` lines up visually with the paper's tables.

/// Render an aligned ASCII table.
///
/// ```
/// use phishare_cluster::report::table;
/// let t = table(
///     &["Configuration", "Makespan", "Reduction"],
///     &[
///         vec!["MC".into(), "3568".into(), "-".into()],
///         vec!["MCCK".into(), "2183".into(), "39%".into()],
///     ],
/// );
/// assert!(t.contains("MCCK"));
/// ```
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.chars().count()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row width mismatch");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.chars().count());
        }
    }
    let mut out = String::new();
    let sep = |out: &mut String| {
        for w in &widths {
            out.push('+');
            out.push_str(&"-".repeat(w + 2));
        }
        out.push_str("+\n");
    };
    let line = |out: &mut String, cells: &[String]| {
        for (i, cell) in cells.iter().enumerate() {
            out.push_str("| ");
            out.push_str(cell);
            out.push_str(&" ".repeat(widths[i] - cell.chars().count() + 1));
        }
        out.push_str("|\n");
    };
    sep(&mut out);
    line(
        &mut out,
        &headers.iter().map(|h| h.to_string()).collect::<Vec<_>>(),
    );
    sep(&mut out);
    for row in rows {
        line(&mut out, row);
    }
    sep(&mut out);
    out
}

/// Format a percentage with one decimal, e.g. `39.0%`.
pub fn pct(x: f64) -> String {
    format!("{x:.1}%")
}

/// Format seconds with one decimal.
pub fn secs(x: f64) -> String {
    format!("{x:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = table(
            &["A", "Long header"],
            &[
                vec!["x".into(), "1".into()],
                vec!["longer cell".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        // All non-separator lines have the same width.
        let widths: std::collections::HashSet<usize> =
            lines.iter().map(|l| l.chars().count()).collect();
        assert_eq!(widths.len(), 1, "{t}");
        assert!(t.contains("| longer cell |"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn mismatched_rows_panic() {
        let _ = table(&["A", "B"], &[vec!["only one".into()]]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(39.04), "39.0%");
        assert_eq!(secs(3568.04), "3568.0");
    }
}
