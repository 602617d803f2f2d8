//! Result export: gnuplot-style `.dat` files and quick ASCII plots.
//!
//! Figure binaries write each curve as a whitespace-separated `.dat`
//! column file (the format the paper's gnuplot figures consumed) and
//! also render an ASCII chart so results are inspectable in a terminal
//! without plotting tools.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// Write `(x, y)` columns for several named curves into `dir/<stem>.dat`.
/// Curves are separated by blank lines and labelled with `# name`
/// comments (gnuplot `index` convention).
pub fn write_dat(
    dir: impl AsRef<Path>,
    stem: &str,
    curves: &[(&str, &[(f64, f64)])],
) -> io::Result<()> {
    let dir = dir.as_ref();
    fs::create_dir_all(dir)?;
    let mut out = String::new();
    for (i, (name, pts)) in curves.iter().enumerate() {
        if i > 0 {
            out.push_str("\n\n");
        }
        let _ = writeln!(out, "# {name}");
        for (x, y) in pts.iter() {
            let _ = writeln!(out, "{x:.9} {y:.6}");
        }
    }
    fs::write(dir.join(format!("{stem}.dat")), out)
}

/// Render curves as a fixed-size ASCII chart. Each curve uses its own
/// glyph; axes are annotated with min/max. Intended for terminal output,
/// so it is deliberately small.
pub fn ascii_plot(title: &str, curves: &[(&str, &[(f64, f64)])]) -> String {
    const W: usize = 72;
    const H: usize = 20;
    const GLYPHS: &[char] = &['*', '+', 'o', 'x', '#', '@'];

    let all: Vec<(f64, f64)> = curves
        .iter()
        .flat_map(|(_, pts)| pts.iter().copied())
        .collect();
    if all.is_empty() {
        return format!("{title}\n(no data)\n");
    }
    let (mut x0, mut x1, mut y0, mut y1) = (f64::MAX, f64::MIN, f64::MAX, f64::MIN);
    for &(x, y) in &all {
        x0 = x0.min(x);
        x1 = x1.max(x);
        y0 = y0.min(y);
        y1 = y1.max(y);
    }
    if x1 == x0 {
        x1 = x0 + 1.0;
    }
    if y1 == y0 {
        y1 = y0 + 1.0;
    }

    let mut grid = vec![vec![' '; W]; H];
    for (ci, (_, pts)) in curves.iter().enumerate() {
        let g = GLYPHS[ci % GLYPHS.len()];
        for &(x, y) in pts.iter() {
            let col = (((x - x0) / (x1 - x0)) * (W - 1) as f64).round() as usize;
            let row = (((y - y0) / (y1 - y0)) * (H - 1) as f64).round() as usize;
            grid[H - 1 - row][col.min(W - 1)] = g;
        }
    }

    let mut s = String::new();
    let _ = writeln!(s, "{title}");
    let legend: Vec<String> = curves
        .iter()
        .enumerate()
        .map(|(i, (name, _))| format!("{} {}", GLYPHS[i % GLYPHS.len()], name))
        .collect();
    let _ = writeln!(s, "  [{}]", legend.join("   "));
    let _ = writeln!(s, "  y: {y0:.3} .. {y1:.3}");
    for row in grid {
        let _ = writeln!(s, "  |{}", row.into_iter().collect::<String>());
    }
    let _ = writeln!(s, "  +{}", "-".repeat(W));
    let _ = writeln!(s, "  x: {x0:.3} .. {x1:.3}");
    s
}

/// Write a timestamped event timeline (a session's recovery lifecycle,
/// a fault schedule) into `dir/<stem>.dat`: one `t  # label` row per
/// event, gnuplot-comment-labelled so the file both plots as an impulse
/// series and reads as a log. Rows must already be in time order.
pub fn write_timeline_dat(
    dir: impl AsRef<Path>,
    stem: &str,
    rows: &[(f64, String)],
) -> io::Result<()> {
    let dir = dir.as_ref();
    fs::create_dir_all(dir)?;
    let mut out = String::new();
    let _ = writeln!(out, "# {stem}: {} event(s)", rows.len());
    for (t, label) in rows {
        let _ = writeln!(out, "{t:.9}  # {label}");
    }
    fs::write(dir.join(format!("{stem}.dat")), out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_dat_roundtrip() {
        let dir = std::env::temp_dir().join("lsl_trace_export_test");
        write_dat(
            &dir,
            "demo",
            &[("a", &[(0.0, 1.0), (1.0, 2.0)]), ("b", &[(0.0, 3.0)])],
        )
        .unwrap();
        let text = std::fs::read_to_string(dir.join("demo.dat")).unwrap();
        assert!(text.contains("# a"));
        assert!(text.contains("# b"));
        assert!(text.contains("1.000000000 2.000000"));
        // Two index blocks separated by a blank line.
        assert!(text.contains("\n\n"));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn write_timeline_dat_is_ordered_and_labelled() {
        let dir = std::env::temp_dir().join("lsl_trace_timeline_test");
        let rows = vec![
            (0.005, "Established".to_string()),
            (1.000, "SublinkDown(Stalled)".to_string()),
            (2.781, "Completed".to_string()),
        ];
        write_timeline_dat(&dir, "crash", &rows).unwrap();
        let text = std::fs::read_to_string(dir.join("crash.dat")).unwrap();
        assert!(text.starts_with("# crash: 3 event(s)\n"));
        assert!(text.contains("1.000000000  # SublinkDown(Stalled)"));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn ascii_plot_contains_title_and_glyphs() {
        let p = ascii_plot("demo", &[("up", &[(0.0, 0.0), (1.0, 1.0)])]);
        assert!(p.contains("demo"));
        assert!(p.contains("* up"));
        assert!(p.matches('*').count() >= 2);
    }

    #[test]
    fn ascii_plot_empty() {
        assert!(ascii_plot("t", &[]).contains("no data"));
    }

    #[test]
    fn ascii_plot_degenerate_ranges_do_not_panic() {
        let p = ascii_plot("flat", &[("c", &[(1.0, 5.0), (1.0, 5.0)])]);
        assert!(p.contains("flat"));
    }
}
