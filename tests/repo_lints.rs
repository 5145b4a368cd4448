//! Repository lints that tie the code to its documentation: the env vars
//! the library reads are exactly the README's knob table, and the free
//! functions of `submod_dist` are exactly the README's entry-point block.
//! A knob or a driver function cannot land or go without its README row.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

fn repo() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            files.extend(rust_files(&path));
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            files.push(path);
        }
    }
    files
}

/// The library crates' `src` directories plus the facade's.
fn library_sources() -> Vec<PathBuf> {
    let mut dirs = vec![repo().join("src")];
    for entry in fs::read_dir(repo().join("crates")).expect("crates/") {
        let src = entry.expect("directory entry").path().join("src");
        if src.is_dir() {
            dirs.push(src);
        }
    }
    dirs.iter().flat_map(|dir| rust_files(dir)).collect()
}

fn read_file(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The text between the backticks of `text`'s `` `name` `` spans that
/// are lower-case identifiers.
fn backticked_idents(text: &str) -> BTreeSet<String> {
    text.split('`')
        .skip(1)
        .step_by(2)
        .filter(|s| {
            !s.is_empty() && s.bytes().all(|b| matches!(b, b'a'..=b'z' | b'0'..=b'9' | b'_'))
        })
        .map(str::to_string)
        .collect()
}

/// The argument of every `env::var(...)` / `env::var_os(...)` call in
/// `source`, whitespace removed (so calls that rustfmt wrapped over
/// several lines read the same as one-line calls).
fn env_reads(source: &str) -> Vec<String> {
    let mut reads = Vec::new();
    for (at, _) in source.match_indices("env::var") {
        let rest = &source[at + "env::var".len()..];
        let Some(args) = rest.strip_prefix('(').or_else(|| rest.strip_prefix("_os(")) else {
            continue;
        };
        let end = args.find(')').expect("unclosed env::var call");
        let arg: String = args[..end].chars().filter(|c| !c.is_whitespace()).collect();
        reads.push(arg.strip_suffix(',').unwrap_or(&arg).to_string());
    }
    reads
}

#[test]
fn env_knobs_read_are_the_readme_knob_table() {
    let mut names = BTreeSet::new();
    for file in library_sources() {
        for arg in env_reads(&read_file(&file)) {
            let name = arg
                .strip_prefix('"')
                .and_then(|a| a.strip_suffix('"'))
                .filter(|n| {
                    !n.is_empty()
                        && n.bytes().all(|b| matches!(b, b'A'..=b'Z' | b'0'..=b'9' | b'_'))
                })
                .unwrap_or_else(|| {
                    panic!("{}: env var read through `{arg}`, not a string literal", file.display())
                });
            names.insert(name.to_string());
        }
    }

    let readme = read_file(&repo().join("README.md"));
    let table = readme
        .split("| Variable | Values | Effect |")
        .nth(1)
        .expect("README has the knob table (`| Variable | Values | Effect |`)");
    let documented: BTreeSet<String> = table
        .lines()
        .skip(2) // the rest of the header line, then the separator
        .take_while(|line| line.starts_with('|'))
        .map(|line| {
            let first = line.split('|').nth(1).expect("table row").trim();
            first.trim_matches('`').to_string()
        })
        .collect();

    assert!(!names.is_empty(), "found no env::var call");
    assert_eq!(names, documented, "env vars read (left) vs the README's knob table (right)");
}

#[test]
fn dist_free_functions_are_the_readme_entry_points() {
    let mut code = BTreeSet::new();
    for file in rust_files(&repo().join("crates/dist/src")) {
        for line in read_file(&file).lines() {
            if let Some(rest) = line.strip_prefix("pub fn ") {
                let end = rest.find(['(', '<']).expect("pub fn signature");
                code.insert(rest[..end].to_string());
            }
        }
    }

    let readme = read_file(&repo().join("README.md"));
    let block = readme
        .split("<!-- dist entry points: begin -->")
        .nth(1)
        .and_then(|rest| rest.split("<!-- dist entry points: end -->").next())
        .expect("README has the dist entry-point markers");
    let documented = backticked_idents(block);

    assert!(!code.is_empty(), "found no pub fn in crates/dist/src");
    assert_eq!(code, documented, "crates/dist/src pub fns (left) vs the README block (right)");
}

/// The splitmix64 finalizer is written out once, in
/// `submod_obs::format::splitmix64`, and every crate calls that copy; a
/// second copy could drift from it and move coins, partitions or fault
/// draws. Its first multiplier marks a copy, in any spelling. The one
/// exception is `cell_seed` in `crates/bench/src/common.rs`: a different,
/// one-round mixer that shares the multiplier but not the finalizer, so
/// calling `splitmix64` there would change every experiment seed.
#[test]
fn splitmix64_is_written_out_once() {
    const MULTIPLIER: &str = "0xbf58476d1ce4e5b9";
    let mut copies = Vec::new();
    for file in library_sources() {
        // Lower-cased with `_` removed, so `0xBF58_476D_…` and
        // `0xbf58476d…` both match (identifiers lose their `_` too).
        let text = read_file(&file).to_ascii_lowercase().replace('_', "");
        for (at, _) in text.match_indices(MULTIPLIER) {
            let enclosing = text[..at].rfind("fn ").map_or("", |fn_at| {
                let name = &text[fn_at + 3..at];
                &name[..name.find(['(', '<']).unwrap_or(name.len())]
            });
            let path = file.strip_prefix(repo()).expect("under the repo").to_path_buf();
            if !(enclosing == "cellseed" && path == Path::new("crates/bench/src/common.rs")) {
                copies.push(format!("{} (fn {enclosing})", path.display()));
            }
        }
    }
    assert_eq!(
        copies,
        ["crates/obs/src/format.rs (fn splitmix64)"],
        "splitmix64 multiplier outside `submod_obs::format::splitmix64`"
    );
}
