//! `tm-lint` — offline determinism lint for the simulator crates.
//!
//! The whole repository is built around bit-reproducible simulation: every
//! golden file, the repo benchmark's digests and the racecheck fixtures
//! assume that a cell's measurements are a pure function of its
//! configuration.  A handful of easy-to-write Rust constructs silently
//! break that property, so this
//! xtask greps the *simulation* crates (`core`, `page`, `net`, `sched`,
//! `apps`) for them and fails the build when any appear outside test code:
//!
//! * **`std-hash`** — bare `HashMap` / `HashSet`.  `std`'s `RandomState`
//!   seeds itself from the OS, so iteration order differs between runs; use
//!   `FastHashMap` (a `BuildHasherDefault` map) instead.
//! * **`wall-clock`** — `Instant::now` / `SystemTime::now`.  Host time must
//!   never reach simulated state; the simulation runs on `LogicalClock`.
//! * **`thread-rng`** — `thread_rng`.  All randomness flows from the cell's
//!   FNV-1a identity seed.
//! * **`clock-arith`** — `+` / `*` (and the compound forms) with an
//!   identifier ending in `_ns` as the left operand.  Logical-time
//!   accumulators must saturate (`saturating_add` / `saturating_mul`) so a
//!   pathological configuration overflows to "forever", not to a small
//!   wrapped value that reorders the event queue.
//! * **`host-sync`** — `Mutex` / `RwLock` / `Condvar` / `parking_lot` /
//!   `std::thread` / `thread::`.  One host thread runs a whole simulated
//!   cluster and shares its state through `Rc`/`RefCell`; host threading
//!   lives only in `tm-bench`'s worker pool, which runs independent cells.
//!
//! The scanner is plain text, line-oriented, and dependency-free by design
//! (it has to run in CI before anything else builds).  It skips comment
//! lines and `#[cfg(test)]` modules, allows `BuildHasherDefault` map
//! definitions, and honours explicit `// lint:allow(<rule>)` waivers on the
//! offending line.

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The crates the lint applies to: everything that executes inside a
/// simulation.  `bench` / `integration` / `race` are deliberately exempt —
/// they run *around* the simulation (host-side timing, test harnesses) and
/// may use wall clocks for progress reporting.
const SCANNED_CRATES: &[&str] = &["core", "page", "net", "sched", "apps"];

/// One finding: a rule violated at a specific line.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Finding {
    file: PathBuf,
    line: usize,
    rule: &'static str,
    message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

fn main() -> ExitCode {
    let root = workspace_root();
    let mut files = Vec::new();
    for krate in SCANNED_CRATES {
        collect_rs_files(&root.join("crates").join(krate).join("src"), &mut files);
    }
    files.sort();
    if files.is_empty() {
        eprintln!("tm-lint: no source files found under {}", root.display());
        return ExitCode::FAILURE;
    }

    let mut findings = Vec::new();
    for file in &files {
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("tm-lint: cannot read {}: {}", file.display(), e);
                return ExitCode::FAILURE;
            }
        };
        let rel = file.strip_prefix(&root).unwrap_or(file).to_path_buf();
        findings.extend(scan_source(&rel, &text));
    }

    if findings.is_empty() {
        println!("tm-lint: {} files clean", files.len());
        ExitCode::SUCCESS
    } else {
        for f in &findings {
            println!("{f}");
        }
        println!(
            "tm-lint: {} finding(s) in {} files scanned",
            findings.len(),
            files.len()
        );
        ExitCode::FAILURE
    }
}

/// The workspace root: `CARGO_MANIFEST_DIR/../..` (this crate lives at
/// `crates/lint`), falling back to the current directory so the binary also
/// works when invoked from a checkout root without cargo.
fn workspace_root() -> PathBuf {
    match std::env::var_os("CARGO_MANIFEST_DIR") {
        Some(dir) => {
            let p = PathBuf::from(dir);
            p.parent()
                .and_then(|p| p.parent())
                .map(Path::to_path_buf)
                .unwrap_or(p)
        }
        None => PathBuf::from("."),
    }
}

/// Recursively collect `.rs` files under `dir` (sorted later for
/// deterministic output order).
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Scan one source file and return its findings in line order.
fn scan_source(file: &Path, text: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    // Brace-depth bookkeeping for `#[cfg(test)] mod ...` regions: once the
    // attribute is seen, everything up to the matching close brace of the
    // module it introduces is test code and exempt from every rule.
    let mut in_test_mod = false;
    let mut test_depth: i64 = 0; // brace depth *inside* the test module
    let mut pending_test_attr = false; // saw #[cfg(test)], mod body not yet opened

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_line_comment(raw);
        let trimmed = line.trim_start();

        if !in_test_mod && trimmed.starts_with("#[cfg(test)]") {
            pending_test_attr = true;
            continue;
        }

        if pending_test_attr {
            // The attribute applies to the next item; we only exempt module
            // bodies (a `#[cfg(test)]` free function would still be linted,
            // which is the conservative direction).
            if trimmed.starts_with("mod ") || trimmed.starts_with("pub mod ") {
                in_test_mod = true;
                test_depth = 0;
                pending_test_attr = false;
                // Fall through so the opening brace on this line counts.
            } else if !trimmed.is_empty() && !trimmed.starts_with("#[") {
                pending_test_attr = false;
            }
        }

        if in_test_mod {
            test_depth += brace_delta(line);
            if test_depth <= 0 && line.contains('}') {
                in_test_mod = false;
            }
            continue;
        }

        // Comment-only lines (including doc comments) never trip a rule.
        if trimmed.starts_with("//") {
            continue;
        }

        for (rule, message) in check_line(line) {
            if has_allow(raw, rule) {
                continue;
            }
            findings.push(Finding {
                file: file.to_path_buf(),
                line: lineno,
                rule,
                message,
            });
        }
    }
    findings
}

/// Net brace count of a line.  Ignoring braces inside string/char literals
/// would be overkill for this codebase — simple counting is accurate enough
/// because the scanned crates never put unbalanced braces in literals.
fn brace_delta(line: &str) -> i64 {
    let opens = line.matches('{').count() as i64;
    let closes = line.matches('}').count() as i64;
    opens - closes
}

/// Drop a trailing `//` comment (but keep the text before it).  `//` inside
/// a string literal is rare enough in these crates that this simple version
/// suffices; `lint:allow` matching uses the raw line anyway.
fn strip_line_comment(line: &str) -> &str {
    match line.find("//") {
        Some(pos) => &line[..pos],
        None => line,
    }
}

/// Does the raw line carry an explicit `lint:allow(<rule>)` waiver?
fn has_allow(raw: &str, rule: &str) -> bool {
    raw.contains(&format!("lint:allow({rule})"))
}

/// Apply every rule to one (comment-stripped) line.
fn check_line(line: &str) -> Vec<(&'static str, String)> {
    let mut out = Vec::new();

    for name in ["HashMap", "HashSet"] {
        if contains_word(line, name) && !line.contains("BuildHasherDefault") {
            out.push((
                "std-hash",
                format!("bare `{name}` uses `RandomState`; use `Fast{name}` (deterministic hasher) instead"),
            ));
        }
    }

    for call in ["Instant::now", "SystemTime::now"] {
        if line.contains(call) {
            out.push((
                "wall-clock",
                format!("`{call}` must not reach simulated state; use `LogicalClock`"),
            ));
        }
    }

    if contains_word(line, "thread_rng") {
        out.push((
            "thread-rng",
            "`thread_rng` is nondeterministic; derive randomness from the cell seed".to_string(),
        ));
    }

    let host_sync = ["Mutex", "RwLock", "Condvar", "parking_lot"]
        .into_iter()
        .find(|name| contains_word(line, name))
        .or(["std::thread", "thread::"]
            .into_iter()
            .find(|path| line.contains(path)));
    if let Some(name) = host_sync {
        out.push((
            "host-sync",
            format!("`{name}`: a simulation runs on one host thread; share state through `Rc`/`RefCell`"),
        ));
    }

    if let Some(ident) = clock_arith_lhs(line) {
        out.push((
            "clock-arith",
            format!("non-saturating arithmetic on logical-clock field `{ident}`; use `saturating_add`/`saturating_mul`"),
        ));
    }

    out
}

/// Word-boundary containment: `needle` appears in `line` not flanked by
/// identifier characters (so `FastHashMap` does not match `HashMap`).
fn contains_word(line: &str, needle: &str) -> bool {
    let bytes = line.as_bytes();
    let mut from = 0;
    while let Some(pos) = line[from..].find(needle) {
        let start = from + pos;
        let end = start + needle.len();
        let before_ok = start == 0 || !is_ident_char(bytes[start - 1]);
        let after_ok = end == bytes.len() || !is_ident_char(bytes[end]);
        if before_ok && after_ok {
            return true;
        }
        from = start + 1;
    }
    false
}

fn is_ident_char(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// If the line applies `+`, `*`, `+=` or `*=` with an identifier ending in
/// `_ns` as the left operand (and no `saturating_` call on the line),
/// return that identifier.
fn clock_arith_lhs(line: &str) -> Option<String> {
    if line.contains("saturating_") {
        return None;
    }
    let bytes = line.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'+' && b != b'*' {
            continue;
        }
        // Require the operator to be *binary*: an identifier (possibly with
        // whitespace in between) must end just before it — this excludes
        // unary `*` derefs, glob imports and doc markers.
        let mut j = i;
        while j > 0 && bytes[j - 1] == b' ' {
            j -= 1;
        }
        if j == 0 || !is_ident_char(bytes[j - 1]) {
            continue;
        }
        // Extract the identifier ending at j.
        let mut k = j;
        while k > 0 && is_ident_char(bytes[k - 1]) {
            k -= 1;
        }
        let ident = &line[k..j];
        if ident.ends_with("_ns") {
            return Some(ident.to_string());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(line: &str) -> Vec<&'static str> {
        check_line(line).into_iter().map(|(r, _)| r).collect()
    }

    #[test]
    fn std_hash_rule_has_word_boundaries() {
        // One finding per rule per line, however many occurrences.
        assert_eq!(
            rules("let m: HashMap<u32, u32> = HashMap::new();"),
            ["std-hash"]
        );
        assert_eq!(rules("use std::collections::HashSet;"), ["std-hash"]);
        // A longer identifier that ends in the bare name is not the bare
        // name: `FastHashMap` is the sanctioned replacement.
        assert!(rules("let m = FastHashMap::default();").is_empty());
        assert!(rules("let s: FastHashSet<u32> = FastHashSet::default();").is_empty());
        // Defining the deterministic alias itself is allowed.
        assert!(rules(
            "pub type FastHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;"
        )
        .is_empty());
    }

    #[test]
    fn wall_clock_and_thread_rng_rules_fire() {
        assert_eq!(rules("let t = Instant::now();"), ["wall-clock"]);
        assert_eq!(rules("let t = SystemTime::now();"), ["wall-clock"]);
        assert_eq!(rules("let mut rng = thread_rng();"), ["thread-rng"]);
        assert!(rules("let t = self.clock.now_ns();").is_empty());
    }

    #[test]
    fn clock_arith_rule_requires_ns_left_operand() {
        assert_eq!(rules("self.stats.compute_time_ns += ns;"), ["clock-arith"]);
        assert_eq!(rules("let x = total_ns + delta;"), ["clock-arith"]);
        assert_eq!(rules("let x = cost_ns * words;"), ["clock-arith"]);
        assert_eq!(rules("self.busy_until_ns *= 2;"), ["clock-arith"]);
        // Saturating forms and non-clock operands pass.
        assert!(rules("self.t_ns = self.t_ns.saturating_add(ns);").is_empty());
        assert!(rules("let x = words * cost_ns;").is_empty()); // _ns on the right
        assert!(rules("let y = a + b;").is_empty());
        assert!(rules("let p = *ptr_ns;").is_empty()); // deref, not binary
    }

    #[test]
    fn host_sync_rule_fires_and_respects_comments_and_waivers() {
        assert_eq!(rules("state: Mutex<SchedState>,"), ["host-sync"]);
        assert_eq!(rules("use parking_lot::{Condvar, Mutex};"), ["host-sync"]);
        assert_eq!(rules("let l = RwLock::new(0);"), ["host-sync"]);
        assert_eq!(rules("std::thread::scope(|scope| {"), ["host-sync"]);
        assert_eq!(rules("thread::sleep(d);"), ["host-sync"]);
        // The single-threaded sharing types pass.
        assert!(rules("state: RefCell<SchedState>,").is_empty());
        assert!(rules("shared: Rc<RunState>,").is_empty());
        let src = "\
// a Mutex in a comment line — fine
let m = Mutex::new(0); // real finding (line 2)
let c = Condvar::new(); // lint:allow(host-sync)
";
        let findings = scan_source(Path::new("x.rs"), src);
        let got: Vec<(usize, &str)> = findings.iter().map(|f| (f.line, f.rule)).collect();
        assert_eq!(got, [(2, "host-sync")]);
    }

    #[test]
    fn comments_test_modules_and_waivers_are_exempt() {
        let src = "\
//! Uses HashMap in the crate doc — fine.
use std::collections::HashMap; // real finding (line 2)
let t = warmup_ns + 1; // lint:allow(clock-arith)
// let t = Instant::now();  (comment line — fine)
#[cfg(test)]
mod tests {
    use std::collections::HashSet; // exempt: test module
    fn f() {
        let t = Instant::now(); // exempt: test module
    }
}
fn after_tests() {
    let rng = thread_rng(); // real finding (line 13)
}
";
        let findings = scan_source(Path::new("x.rs"), src);
        let got: Vec<(usize, &str)> = findings.iter().map(|f| (f.line, f.rule)).collect();
        assert_eq!(got, [(2, "std-hash"), (13, "thread-rng")]);
    }

    #[test]
    fn findings_render_with_path_line_and_rule() {
        let f = Finding {
            file: PathBuf::from("crates/core/src/proc.rs"),
            line: 7,
            rule: "std-hash",
            message: "msg".to_string(),
        };
        assert_eq!(f.to_string(), "crates/core/src/proc.rs:7: [std-hash] msg");
    }
}
