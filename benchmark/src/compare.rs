//! `--compare DIR_A DIR_B`: do two sets of result files of one commit
//! agree? Every end-to-end metric must agree within its own bound from
//! `BENCHMARK.json`, and every metric that depends on inputs and code
//! alone ([`crate::spec::EXACT_REPEAT`]) must be identical, with no
//! failed check on either side. `repeat.sh` is the caller.

use crate::json::Json;
use crate::spec;
use std::path::Path;

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn number(doc: &Json, section: &str, metric: &str, field: &str) -> Option<f64> {
    doc.get(section)?.get(metric)?.get(field)?.as_f64()
}

/// Result files of a directory, by file name, chrome traces left out.
fn result_files(dir: &Path) -> Result<Vec<String>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut names: Vec<String> = entries
        .flatten()
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|name| name.ends_with(".json") && !name.ends_with(".trace.json"))
        .collect();
    names.sort();
    Ok(names)
}

/// How far apart two positive values are, as a share of the smaller.
pub fn relative_gap(a: f64, b: f64) -> f64 {
    a.max(b) / a.min(b) - 1.0
}

pub fn compare(dir_a: &Path, dir_b: &Path, benchmark_json: &Path) -> Result<bool, String> {
    let benchmark = load(benchmark_json)?;
    let bounds: Vec<(&str, f64)> = benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .filter_map(|m| Some((m.get("name")?.as_str()?, m.get("bound")?.as_f64()?)))
        .collect();

    let files = result_files(dir_a)?;
    if files.is_empty() {
        return Err(format!("{} holds no result files", dir_a.display()));
    }
    let mut ok = true;
    for file in &files {
        let (a, b) = (load(&dir_a.join(file))?, load(&dir_b.join(file))?);
        println!("{}", file.trim_end_matches(".json"));
        for &(name, bound) in &bounds {
            let side = |doc: &Json| {
                let field = |f| number(doc, "end_to_end", name, f);
                Some((field("value")?, field("min")?, field("max")?))
            };
            let (Some(x), Some(y)) = (side(&a), side(&b)) else {
                return Err(format!("{file}: {name} missing"));
            };
            let gap = relative_gap(x.0, y.0);
            let agrees = gap <= bound;
            ok &= agrees;
            println!(
                "  {:<16} a {:>12.6} [{:.6}, {:.6}]   b {:>12.6} [{:.6}, {:.6}]   gap {:>6.2} % of {:>4.1} %  {}",
                name, x.0, x.1, x.2, y.0, y.1, y.2, gap * 100.0, bound * 100.0,
                if agrees { "ok" } else { "DISAGREE" }
            );
        }
        let mut differing = Vec::new();
        for name in spec::EXACT_REPEAT {
            let of = |doc: &Json| {
                number(doc, "end_to_end", name, "value").or(number(doc, "per_layer", name, "value"))
            };
            // A run without --trace 1 has no ledger; compare what both have.
            if let (Some(x), Some(y)) = (of(&a), of(&b)) {
                if x != y {
                    differing.push(format!("{name}: {x} vs {y}"));
                }
            }
        }
        // The number of checks grows with the repetitions a run had time
        // for; the number that failed must be 0 on both sides.
        for (side, doc) in [("a", &a), ("b", &b)] {
            if doc.get("failed").and_then(Json::as_f64) != Some(0.0) {
                differing.push(format!("failed checks on side {side}"));
            }
        }
        if differing.is_empty() {
            println!("  exact-repeat metrics identical, no failed checks");
        } else {
            ok = false;
            for line in differing {
                println!("  NOT IDENTICAL {line}");
            }
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_is_symmetric_and_relative_to_the_smaller_value() {
        assert_eq!(relative_gap(2.0, 2.0), 0.0);
        assert!((relative_gap(1.0, 1.1) - 0.1).abs() < 1e-12);
        assert!((relative_gap(1.1, 1.0) - 0.1).abs() < 1e-12);
        // A metric that reads 0 agrees with nothing: the gap is not a number
        // or infinite, and neither is within a bound.
        assert!(relative_gap(0.0, 0.0).is_nan());
        assert_eq!(relative_gap(0.0, 1.0), f64::INFINITY);
    }
}
