//! Report containers for reproduced figures.
//!
//! Every experiment driver returns a [`FigureReport`]: a set of named data
//! series plus axis labels and free-form notes (including the paper's
//! qualitative expectation, so the generated output can be eyeballed
//! against it). Reports render to aligned markdown tables.

use std::fmt::Write as _;

/// One named data series: `(x, y)` points.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Display name (e.g. `"Selective (simulation)"`).
    pub name: String,
    /// Data points in x order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Build a series.
    pub fn new(name: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Series {
            name: name.into(),
            points,
        }
    }

    /// Look up the y value at an exact x.
    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|(px, _)| (px - x).abs() < 1e-12)
            .map(|&(_, y)| y)
    }
}

/// A reproduced figure or table.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureReport {
    /// Identifier matching the paper ("Figure 5", "Figure 7(a)", …).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Label of the x axis.
    pub x_label: String,
    /// Label of the y axis.
    pub y_label: String,
    /// The data series.
    pub series: Vec<Series>,
    /// Notes: configuration used, paper expectation, caveats.
    pub notes: Vec<String>,
}

impl FigureReport {
    /// Create an empty report.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        FigureReport {
            id: id.into(),
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Add a series.
    pub fn push_series(&mut self, series: Series) -> &mut Self {
        self.series.push(series);
        self
    }

    /// Add a note.
    pub fn push_note(&mut self, note: impl Into<String>) -> &mut Self {
        self.notes.push(note.into());
        self
    }

    /// The sorted union of all x values across series.
    fn x_grid(&self) -> Vec<f64> {
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|&(x, _)| x))
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).expect("finite x values"));
        xs.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        xs
    }

    /// Render as a markdown table (one row per x value, one column per
    /// series), preceded by the title and followed by the notes.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "## {} — {}\n", self.id, self.title);
        let _ = write!(out, "| {} |", self.x_label);
        for s in &self.series {
            let _ = write!(out, " {} |", s.name);
        }
        let _ = writeln!(out);
        let _ = write!(out, "|---|");
        for _ in &self.series {
            let _ = write!(out, "---|");
        }
        let _ = writeln!(out);
        for x in self.x_grid() {
            let _ = write!(out, "| {x:.4} |");
            for s in &self.series {
                match s.y_at(x) {
                    Some(y) => {
                        let _ = write!(out, " {y:.4} |");
                    }
                    None => {
                        let _ = write!(out, " — |");
                    }
                }
            }
            let _ = writeln!(out);
        }
        if !self.notes.is_empty() {
            let _ = writeln!(out);
            for note in &self.notes {
                let _ = writeln!(out, "> {note}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FigureReport {
        let mut r = FigureReport::new("Figure X", "demo", "r", "QPC");
        r.push_series(Series::new("baseline", vec![(0.0, 0.5), (0.1, 0.5)]));
        r.push_series(Series::new(
            "promoted",
            vec![(0.0, 0.5), (0.1, 0.8), (0.2, 0.85)],
        ));
        r.push_note("paper expectation: promoted > baseline");
        r
    }

    #[test]
    fn series_lookup() {
        let s = Series::new("a", vec![(1.0, 2.0), (3.0, 4.0)]);
        assert_eq!(s.y_at(3.0), Some(4.0));
        assert_eq!(s.y_at(2.0), None);
    }

    #[test]
    fn x_grid_is_sorted_union() {
        let r = sample();
        assert_eq!(r.x_grid(), vec![0.0, 0.1, 0.2]);
    }

    #[test]
    fn markdown_contains_all_points_and_gaps() {
        let md = sample().to_markdown();
        assert!(md.contains("## Figure X — demo"));
        assert!(md.contains("| r | baseline | promoted |"));
        assert!(md.contains("0.8000"));
        assert!(md.contains("—"), "missing values are rendered as a dash");
        assert!(md.contains("> paper expectation"));
    }
}
