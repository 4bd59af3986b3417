//! The docs must reference files that exist: every repo path that
//! `README.md` or the verify skill names exists, and every `--example`,
//! `--bench` or `--test` target their cargo command lines name has a
//! source file.

use std::path::Path;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    let path = repo_root().join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path:?}: {e}"))
}

/// The words of `text`, stripped of the Markdown around them (brackets,
/// backticks, punctuation).
fn words(text: &str) -> Vec<&str> {
    let markup = |c: char| !c.is_alphanumeric() && !"-_/".contains(c);
    text.split_whitespace()
        .map(|w| w.trim_matches(markup))
        .collect()
}

/// A repo path is a word of path characters that contains `/` and starts
/// at an entry of the repo root, outside the build outputs the root
/// `.gitignore` anchors (`target`, …: they exist only after a build).
/// Placeholders such as `DIR/journal.frck` start nowhere and are skipped.
fn is_repo_path(word: &str, ignored: &[&str]) -> bool {
    let path_chars = |c: char| c.is_ascii_alphanumeric() || "_-./".contains(c);
    let first = word.split('/').next().unwrap_or_default();
    let built = |p: &&str| word == *p || word.starts_with(&format!("{p}/"));
    word.contains('/')
        && word.chars().all(path_chars)
        && !first.is_empty()
        && repo_root().join(first).exists()
        && !ignored.iter().any(built)
}

/// Whether some package (the root one or a crate under `crates/`) has the
/// cargo target `name` in its `dir` (`examples`, `benches` or `tests`).
fn target_exists(dir: &str, name: &str) -> bool {
    let crates = std::fs::read_dir(repo_root().join("crates")).expect("crates/ lists");
    let packages = crates.map(|e| e.expect("dir entry").path());
    std::iter::once(repo_root().to_path_buf())
        .chain(packages)
        .any(|package| {
            let dir = package.join(dir);
            dir.join(format!("{name}.rs")).is_file() || dir.join(name).join("main.rs").is_file()
        })
}

#[test]
fn docs_reference_files_that_exist() {
    let gitignore = read(".gitignore");
    let ignored: Vec<&str> = gitignore
        .lines()
        .filter_map(|l| l.strip_prefix('/'))
        .collect();
    for rel in ["README.md", ".claude/skills/verify/SKILL.md"] {
        let doc = read(rel);
        let paths: Vec<&str> = words(&doc)
            .into_iter()
            .filter(|w| is_repo_path(w, &ignored))
            .collect();
        let mut targets = Vec::new();
        for line in doc.lines().filter(|l| l.contains("cargo ")) {
            for w in words(line).windows(2) {
                let dir = match w[0] {
                    "--example" => "examples",
                    "--bench" => "benches",
                    "--test" => "tests",
                    _ => continue,
                };
                targets.push((dir, w[1]));
            }
        }
        assert!(
            !paths.is_empty() && !targets.is_empty(),
            "{rel}: nothing to check"
        );
        let missing_paths: Vec<_> = paths
            .iter()
            .filter(|p| !repo_root().join(p).exists())
            .collect();
        let missing_targets: Vec<_> = targets
            .iter()
            .filter(|(d, n)| !target_exists(d, n))
            .collect();
        assert!(
            missing_paths.is_empty() && missing_targets.is_empty(),
            "{rel} names missing paths {missing_paths:?} and cargo targets {missing_targets:?}"
        );
    }
}
