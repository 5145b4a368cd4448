//! Table rendering and artifact writing for the experiment harness.

use std::fs;
use std::path::Path;

/// A rendered matrix (partitions × rounds, like the paper's heatmaps).
pub struct Matrix {
    pub title: String,
    pub row_label: &'static str,
    pub col_label: &'static str,
    pub rows: Vec<usize>,
    pub cols: Vec<usize>,
    /// Row-major values aligned with `rows × cols`.
    pub values: Vec<f64>,
}

impl Matrix {
    pub fn value(&self, row: usize, col: usize) -> f64 {
        self.values[row * self.cols.len() + col]
    }

    /// Pretty-prints the matrix in the layout of the paper's figures.
    pub fn print(&self) {
        println!("\n── {} ──", self.title);
        print!("{:>12} │", format!("{}\\{}", self.row_label, self.col_label));
        for c in &self.cols {
            print!("{c:>7}");
        }
        println!();
        println!("{:─>12}─┼{:─>width$}", "", "", width = self.cols.len() * 7);
        for (ri, r) in self.rows.iter().enumerate() {
            print!("{r:>12} │");
            for ci in 0..self.cols.len() {
                print!("{:>7.0}", self.value(ri, ci));
            }
            println!();
        }
    }
}

/// Writes an artifact file under the output directory, creating it as
/// needed, and prints the path so users can find it. A failed write
/// exits 2 naming the path: a run that cannot record its result fails.
pub fn write_artifact(out_dir: &Path, name: &str, contents: &str) {
    let path = out_dir.join(name);
    if let Err(e) = fs::create_dir_all(out_dir).and_then(|()| fs::write(&path, contents)) {
        crate::die(&format!("cannot write {}: {e}", path.display()));
    }
    println!("  wrote {}", path.display());
}

/// Formats a row-oriented text table with a header.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n── {title} ──");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, cell) in cells.iter().enumerate() {
            s.push_str(&format!("{:>width$}  ", cell, width = widths[i.min(widths.len() - 1)]));
        }
        s
    };
    println!("{}", line(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>()));
    println!("{}", "─".repeat(widths.iter().sum::<usize>() + widths.len() * 2));
    for row in rows {
        println!("{}", line(row));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_value_is_row_major() {
        let m = Matrix {
            title: "t".into(),
            row_label: "r",
            col_label: "c",
            rows: vec![1, 2],
            cols: vec![10, 20, 30],
            values: vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
        };
        assert_eq!(m.value(0, 0), 0.0);
        assert_eq!(m.value(0, 2), 2.0);
        assert_eq!(m.value(1, 0), 3.0);
        assert_eq!(m.value(1, 2), 5.0);
    }

    #[test]
    fn write_artifact_creates_directories() {
        let dir = std::env::temp_dir()
            .join(format!("submod-artifact-test-{}", std::process::id()))
            .join("nested");
        write_artifact(&dir, "x.csv", "a,b\n");
        let path = dir.join("x.csv");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "a,b\n");
        let _ = std::fs::remove_dir_all(dir.parent().unwrap());
    }
}
