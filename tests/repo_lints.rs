//! Repository lints. Two tie the code to its documentation: the env vars
//! the library reads are exactly the README's knob table, and the free
//! functions of `submod_dist` are exactly the README's entry-point block,
//! so a knob or a driver function cannot land or go without its README
//! row. One keeps the splitmix64 finalizer written out once. One keeps
//! the public surface minimal: every `pub` item of `crates/*/src` has a
//! non-test caller in another file, or a reason on a short allowlist.

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

/// What one `.rs` file contributes to the public-surface lint: the `pub`
/// items it declares, the words its code names, and the words the
/// signatures of its `pub` items name.
#[derive(Debug, Default)]
struct Scan {
    /// Names of the `pub fn|struct|enum|trait|const|type|static` items
    /// (methods in `impl` blocks included; `pub(crate)` and fields not).
    declared: Vec<String>,
    /// Every identifier of the code, outside `//` comments, string and
    /// char literals and `use` statements; a name the file binds with
    /// `let` only where a `.` or `::` comes right before it.
    named: BTreeSet<String>,
    /// Every identifier of the signatures of the file's `pub` items and
    /// `pub` fields, each signature without the name it declares.
    in_signatures: BTreeSet<String>,
}

/// The part of `source` above its first column-0 `#[cfg(test)]`, with
/// `//` comments and the contents of string and char literals removed.
fn non_test_code(source: &str) -> String {
    let above = source.lines().take_while(|line| !line.starts_with("#[cfg(test)]"));
    let text = above.collect::<Vec<_>>().join("\n");
    let mut code = String::with_capacity(text.len());
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '/' if chars.peek() == Some(&'/') => {
                while chars.next_if(|&next| next != '\n').is_some() {}
            }
            '"' => {
                code.push(' ');
                while let Some(inner) = chars.next() {
                    match inner {
                        '\\' => {
                            chars.next();
                        }
                        '"' => break,
                        '\n' => code.push('\n'),
                        _ => {}
                    }
                }
            }
            // A char literal (`'x'`, `'\''`, `'\u{1F600}'`) goes; a
            // lifetime (`'a`) stays.
            '\'' => {
                let mut ahead = chars.clone();
                match (ahead.next(), ahead.next()) {
                    (Some('\\'), Some(_)) => {
                        chars.nth(1);
                        while chars.next().is_some_and(|inner| inner != '\'') {}
                    }
                    (Some(_), Some('\'')) => {
                        chars.nth(1);
                    }
                    _ => code.push(c),
                }
            }
            _ => code.push(c),
        }
    }
    code
}

fn identifiers(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|word| word.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_'))
}

/// The name a `pub` line declares, and whether it is an item (rather
/// than a field). `None` for `pub use`, `pub mod`, `pub(crate)` and the
/// like.
fn pub_declaration(line: &str) -> Option<(&str, bool)> {
    let mut rest = line.trim_start().strip_prefix("pub ")?;
    if rest.starts_with("const fn ") {
        rest = &rest["const ".len()..];
    }
    let (rest, item) = match ["fn ", "struct ", "enum ", "trait ", "const ", "type ", "static "]
        .iter()
        .find_map(|keyword| rest.strip_prefix(keyword))
    {
        Some(after) => (after.trim_start_matches("mut "), true),
        None => (rest, false),
    };
    let name = identifiers(rest).next().filter(|name| rest.starts_with(name))?;
    let field = !item && rest[name.len()..].trim_start().starts_with(':');
    (item || field).then_some((name, item))
}

/// The names `code` binds with a plain `let` (`let x =`, `let mut x:`).
fn let_bound(code: &str) -> BTreeSet<&str> {
    let mut locals = BTreeSet::new();
    for (at, _) in code.match_indices("let ") {
        if code[..at].ends_with(|c: char| c.is_ascii_alphanumeric() || c == '_') {
            continue;
        }
        let rest = code[at + "let ".len()..].trim_start();
        let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
        if let Some(local) = identifiers(rest).next().filter(|local| rest.starts_with(local)) {
            if rest[local.len()..].trim_start().starts_with(['=', ':', ';']) {
                locals.insert(local);
            }
        }
    }
    locals
}

/// Reads one file by the lint's rules (see `scan_follows_the_lint_rules`).
fn scan(source: &str) -> Scan {
    let code = non_test_code(source);
    let locals = let_bound(&code);
    let lines: Vec<&str> = code.lines().collect();
    let mut out = Scan::default();
    let mut in_use = false;
    for (at, line) in lines.iter().enumerate() {
        let trimmed = line.trim_start();
        if in_use || ["use ", "pub use ", "pub(crate) use "].iter().any(|p| trimmed.starts_with(p))
        {
            in_use = !line.contains(';');
            continue;
        }
        // A name the file binds with `let` is its local there, unless a
        // `.` or `::` comes right before it, where no local can stand.
        out.named.extend(
            identifiers(line)
                .filter(|word| {
                    let before = &line[..word.as_ptr() as usize - line.as_ptr() as usize];
                    !locals.contains(word) || before.trim_end().ends_with(['.', ':'])
                })
                .map(str::to_string),
        );
        let Some((name, item)) = pub_declaration(line) else { continue };
        // An item's signature runs to its first `{` or `;`, over as many
        // lines as it takes; a field's is its line.
        let mut signature = String::new();
        for next in if item { &lines[at..] } else { &lines[at..=at] } {
            match next.find(['{', ';']) {
                Some(end) => {
                    signature.push_str(&next[..end]);
                    break;
                }
                None => signature.push_str(next),
            }
            signature.push(' ');
        }
        out.in_signatures
            .extend(identifiers(&signature).filter(|w| *w != name).map(str::to_string));
        if item {
            out.declared.push(name.to_string());
        }
    }
    out
}

/// `(file, item, reason)`: `pub` items no other non-test file names, each
/// with the reason it stays public anyway. At most 20.
const UNCALLED_ALLOWED: &[(&str, &str, &str)] = &[
    ("crates/core/src/greedy.rs", "naive_greedy_select", "Algorithm 1 verbatim: the test oracle"),
    ("crates/core/src/graph.rs", "add_directed", "builds the store suites' asymmetric graphs"),
    ("crates/core/src/graph.rs", "num_directed_edges", "the differential suite sizes by it"),
    ("crates/core/src/normalize.rs", "worst", "the 0 % anchor the end-to-end suite checks"),
    ("crates/dist/src/config.rs", "DEFAULT_WINNER_BATCH", "the README's default batch width"),
    ("crates/dist/src/theorem.rs", "holds", "Theorem 4.6's check: the bound's test oracle"),
    ("crates/dist/src/journal.rs", "distributed_greedy_journaled", "README entry-point block"),
    ("crates/dist/src/journal.rs", "select_subset_journaled", "README entry-point block"),
    ("crates/exec/src/threads.rs", "with_threads", "in-process thread-count seam (README)"),
    ("crates/journal/src/lib.rs", "MAX_RECORD_LEN", "the README's journal format table"),
    ("crates/knn/src/kmeans.rs", "inertia", "the README's k-means determinism contract"),
    ("crates/knn/src/kmeans.rs", "iterations_run", "the README's k-means determinism contract"),
    ("crates/obs/src/faults.rs", "override_plan", "in-process fault-plan seam (README)"),
    ("crates/obs/src/faults.rs", "INJECTED_MARKER", "fault tests find injected errors by it"),
];

/// Every `pub` item declared in the non-test part of `crates/*/src` is
/// named by the non-test code of another file (`crates/*/src`, `src/`,
/// `examples/`, the benchmark's `src/`), or by the signature of another
/// `pub` item or field of its own file, or is on `UNCALLED_ALLOWED`.
/// Integration tests, `//` comments, string literals, `use` statements
/// (re-exports included) and a file's own `let`-bound locals are not
/// callers (see `scan_follows_the_lint_rules`). Names match as whole
/// words, so a common name can pass by accident: the lint is a floor.
#[test]
fn every_pub_item_has_a_caller() {
    let mut callers = library_sources();
    callers.extend(rust_files(&repo().join("examples")));
    callers.extend(rust_files(&repo().join("benchmark/src")));
    let scans: Vec<(String, Scan)> = callers
        .iter()
        .map(|file| {
            let path = file.strip_prefix(repo()).expect("under the repo");
            (path.display().to_string(), scan(&read_file(file)))
        })
        .collect();
    let named_elsewhere = |file: &str, name: &str| {
        scans.iter().any(|(other, scan)| other != file && scan.named.contains(name))
    };

    let mut failures = Vec::new();
    let mut declared = BTreeSet::new();
    for (file, scan) in scans.iter().filter(|(file, _)| file.starts_with("crates/")) {
        for name in &scan.declared {
            declared.insert((file.as_str(), name.as_str()));
            let allowed = UNCALLED_ALLOWED.iter().any(|&(f, n, _)| (f, n) == (file, name));
            let called = named_elsewhere(file, name) || scan.in_signatures.contains(name);
            if !called && !allowed {
                failures.push(format!("{file}: `{name}` is named by no other non-test file"));
            }
        }
    }
    for &(file, name, _) in UNCALLED_ALLOWED {
        if !declared.contains(&(file, name)) {
            failures.push(format!("{file}: allowlisted `{name}` is no longer declared there"));
        } else if named_elsewhere(file, name) {
            failures.push(format!("{file}: allowlisted `{name}` now has a caller; drop the entry"));
        }
    }
    assert!(!declared.is_empty(), "found no pub item in crates/*/src");
    assert!(UNCALLED_ALLOWED.len() <= 20, "the allowlist has grown past 20 entries");
    assert!(failures.is_empty(), "uncalled pub items:\n{}", failures.join("\n"));
}

/// Pins the rules `every_pub_item_has_a_caller` reads a file by: `use`
/// statements (multi-line re-exports too), `//` comments, string and char
/// literals and everything below the first column-0 `#[cfg(test)]` name
/// nothing; a `//` inside a string is not a comment; a `let`-bound local
/// names nothing, unless after a `.` or `::`; a signature spans lines;
/// `pub(crate)` items and fields are not declarations, but a `pub`
/// field's type is in a signature.
#[test]
fn scan_follows_the_lint_rules() {
    let fixture = r#"use crate::alpha::Alpha;
pub use crate::beta::{
    Beta,
    Gamma,
};
// Delta is only mentioned here.
/// Epsilon too.
pub struct Ret {
    pub field: Kappa,
}

pub(crate) fn hidden() {}

pub fn make(
    n: u32,
) -> Ret {
    let mu = zeta(n, "a//b omicron") + lambda(); // eta
    let nu = mu.nu('\'');
    nu + mu
}

#[cfg(test)]
mod tests {
    fn theta() {
        iota();
    }
}
"#;
    let scan = scan(fixture);
    assert_eq!(scan.declared, ["Ret", "make"]);
    let probes = [
        "Alpha", "Beta", "Gamma", "Delta", "Epsilon", "Ret", "Kappa", "hidden", "make", "mu",
        "zeta", "omicron", "lambda", "eta", "nu", "theta", "iota",
    ];
    let named: Vec<&str> = probes.into_iter().filter(|p| scan.named.contains(*p)).collect();
    assert_eq!(named, ["Ret", "Kappa", "hidden", "make", "zeta", "lambda", "nu"]);
    let in_signatures: Vec<&str> =
        probes.into_iter().filter(|p| scan.in_signatures.contains(*p)).collect();
    assert_eq!(in_signatures, ["Ret", "Kappa"]);
}
