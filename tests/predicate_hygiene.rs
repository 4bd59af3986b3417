//! Predicate hygiene lint: all ε-comparisons must funnel through
//! `fatrobots_geometry::predicates` (or the kernel module that wraps it).
//!
//! The shadow oracle can only certify a run (ε kernel vs exact arithmetic)
//! for the comparisons it sees. An ad-hoc `x.abs() <= 1e-9` scattered in an
//! algorithm file is invisible to the oracle and silently reintroduces the
//! class of bug the kernel abstraction exists to catch. This test walks
//! every crate source file and rejects raw tolerance comparisons outside
//! the predicate/kernel layer.
//!
//! The lint is textual and deliberately blunt: comments and `#[cfg(test)]`
//! modules are stripped (tests may assert with ad-hoc tolerances; those are
//! checks *about* values, not decisions *made from* them), then three
//! spellings of a raw epsilon comparison are denied:
//!
//! * `< 1e-`  — raw literal-tolerance strict compare,
//! * `<= 1e-` — raw literal-tolerance closed compare,
//! * `.abs() <=` against a tolerance — hand-rolled `approx_eq` (use the
//!   predicate instead). The right operand is a tolerance when it holds a
//!   numeric literal or a name spelling one (`eps` or `tol`, in any case:
//!   `EPS`, `f64::EPSILON`, `collinearity_tol`). A bound built from
//!   other names (`o.abs() <= self.reach + self.hw`) is geometry, not an
//!   epsilon, and passes.
//!
//! New geometry predicates belong in `crates/geometry/src/predicates.rs` or
//! the kernel module — the only files allowed to spell these out.

use std::path::{Path, PathBuf};

/// Files allowed to contain raw epsilon comparisons: the predicate funnel
/// itself and the kernel layer that dual-evaluates it.
fn is_allowlisted(path: &Path) -> bool {
    let p = path.to_string_lossy().replace('\\', "/");
    p.ends_with("crates/geometry/src/predicates.rs")
        || p.ends_with("crates/geometry/src/kernel.rs")
        || p.contains("crates/geometry/src/kernel/")
}

/// Collects every `.rs` file under each crate's `src/` tree (production
/// code only — integration tests, benches and examples assert with ad-hoc
/// tolerances by design).
fn rust_sources(crates_dir: &Path, out: &mut Vec<PathBuf>) {
    let entries =
        std::fs::read_dir(crates_dir).unwrap_or_else(|e| panic!("read_dir {crates_dir:?}: {e}"));
    for entry in entries {
        let src = entry.expect("dir entry").path().join("src");
        if src.is_dir() {
            rust_sources_rec(&src, out);
        }
    }
}

fn rust_sources_rec(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("read_dir {dir:?}: {e}"));
    for entry in entries {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_sources_rec(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Strips `//` line comments (including doc comments). String literals are
/// not parsed; a `//` inside a string would over-strip, which can only hide
/// a violation inside a *string*, where it is not a comparison anyway.
fn strip_line_comments(line: &str) -> &str {
    match line.find("//") {
        Some(i) => &line[..i],
        None => line,
    }
}

/// Removes every `#[cfg(test)] mod … { … }` block by brace matching.
/// Assertion tolerances inside test modules are measurement checks, not
/// algorithm decisions, so the lint leaves them alone.
fn strip_test_modules(source: &str) -> String {
    let lines: Vec<&str> = source.lines().collect();
    let mut kept = String::with_capacity(source.len());
    let mut i = 0;
    while i < lines.len() {
        let trimmed = lines[i].trim();
        if trimmed == "#[cfg(test)]" || trimmed.starts_with("#[cfg(test)]") {
            // Skip attribute lines, then the mod item, by brace matching
            // from the first `{` that follows.
            let mut depth: i64 = 0;
            let mut opened = false;
            while i < lines.len() {
                for ch in strip_line_comments(lines[i]).chars() {
                    match ch {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        _ => {}
                    }
                }
                i += 1;
                if opened && depth <= 0 {
                    break;
                }
            }
        } else {
            kept.push_str(lines[i]);
            kept.push('\n');
            i += 1;
        }
    }
    kept
}

/// Literal-tolerance comparisons, denied wherever they appear.
const DENY: [&str; 2] = ["< 1e-", "<= 1e-"];

/// The absolute-value comparison that is denied when its right operand is
/// a tolerance.
const ABS_LE: &str = ".abs() <=";

/// The right operand of a comparison that starts `rest`: the text up to the
/// first `&&`, `||`, `;`, `,` or `{` outside brackets, or up to the bracket
/// that closes around the comparison.
fn right_operand(rest: &str) -> &str {
    let mut depth = 0u32;
    for (k, ch) in rest.char_indices() {
        match ch {
            '(' | '[' => depth += 1,
            ')' | ']' if depth == 0 => return &rest[..k],
            ')' | ']' => depth -= 1,
            ';' | ',' | '{' if depth == 0 => return &rest[..k],
            '&' | '|' if depth == 0 && rest[k + 1..].starts_with(ch) => return &rest[..k],
            _ => {}
        }
    }
    rest
}

/// `true` when `operand` holds a numeric literal or a name containing
/// `eps` or `tol` in any case.
fn is_tolerance(operand: &str) -> bool {
    operand
        .split(|c: char| !(c.is_alphanumeric() || c == '_' || c == '.'))
        .any(|token| {
            let lower = token.to_ascii_lowercase();
            token.starts_with(|c: char| c.is_ascii_digit())
                || lower.contains("eps")
                || lower.contains("tol")
        })
}

/// The denied patterns that the code of one line (comments stripped)
/// spells out.
fn violations_in(code: &str) -> Vec<&'static str> {
    let mut found: Vec<&'static str> = DENY.into_iter().filter(|p| code.contains(p)).collect();
    if code
        .match_indices(ABS_LE)
        .any(|(at, _)| is_tolerance(right_operand(&code[at + ABS_LE.len()..])))
    {
        found.push(ABS_LE);
    }
    found
}

#[test]
fn the_lint_tells_tolerances_from_geometric_bounds() {
    // Every spelling the lint has always rejected as an epsilon
    // comparison is still rejected...
    for code in [
        "if (a - b).abs() <= 1e-9 {",
        "(a - b).abs() <= EPS",
        "(a - b).abs() <= tol",
        "x.abs() <= eps && y > 0.0",
        "d.abs() <= f64::EPSILON",
        "(x - y).abs() <= 2.0 * EPS",
        "x.abs() <= 0.001",
        "v.abs() <= self.collinearity_tol;",
        "keep(w.abs() <= TOUCH_TOL, k)",
        "gap < 1e-7",
        "gap <= 1e-7",
    ] {
        assert!(!violations_in(code).is_empty(), "not rejected: {code}");
    }
    // ...while a bound built from geometric quantities passes.
    for code in [
        "(self.margin..=span - self.margin).contains(&t) && o.abs() <= self.reach + self.hw",
        "w.dot(perp).abs() <= radius",
        "if (p.x - c.x).abs() <= half_width && inside {",
        "x.abs() < 1.0",
    ] {
        assert!(violations_in(code).is_empty(), "rejected: {code}");
    }
}

#[test]
fn no_raw_epsilon_comparisons_outside_the_predicate_layer() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut sources = Vec::new();
    rust_sources(&crates, &mut sources);
    assert!(
        sources.len() > 10,
        "source walk found only {} files under {crates:?} — lint misconfigured",
        sources.len()
    );

    let mut violations = Vec::new();
    for path in &sources {
        if is_allowlisted(path) {
            continue;
        }
        let source = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
        let stripped = strip_test_modules(&source);
        for (lineno, line) in stripped.lines().enumerate() {
            let code = strip_line_comments(line);
            for pattern in violations_in(code) {
                violations.push(format!(
                    "{}:{}: `{}` — route this comparison through \
                     fatrobots_geometry::predicates (approx_eq / approx_eq_tol / EPS) \
                     or a kernel predicate\n    {}",
                    path.display(),
                    lineno + 1,
                    pattern,
                    code.trim()
                ));
            }
        }
    }

    assert!(
        violations.is_empty(),
        "raw epsilon comparisons outside the predicate layer:\n{}",
        violations.join("\n")
    );
}
