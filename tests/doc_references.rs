//! The docs must reference files and code that exist: every repo path
//! that `README.md` or the verify skill names exists, every `--example`,
//! `--bench` or `--test` target their cargo command lines name has a
//! source file, every backticked `Type::member` whose type the workspace
//! defines names a member of that type, and every backticked
//! `SCREAMING_SNAKE` word is a `const` or `static` of the sources.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::path::{Path, PathBuf};

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

/// The documents every check reads.
const DOCS: [&str; 2] = ["README.md", ".claude/skills/verify/SKILL.md"];

#[test]
fn docs_reference_files_that_exist() {
    let gitignore = read(".gitignore");
    let ignored: Vec<&str> = gitignore
        .lines()
        .filter_map(|l| l.strip_prefix('/'))
        .collect();
    for rel in DOCS {
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

/// The inline code spans of a Markdown document, outside fenced blocks.
fn code_spans(doc: &str) -> Vec<String> {
    let mut prose = String::new();
    let mut fenced = false;
    for line in doc.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.push_str(line);
            prose.push('\n');
        }
    }
    prose
        .split('`')
        .skip(1)
        .step_by(2)
        .map(str::to_string)
        .collect()
}

/// Whether `word` is a SCREAMING_SNAKE name: capitals and digits with at
/// least one underscore between them.
fn is_screaming_snake(word: &str) -> bool {
    word.starts_with(|c: char| c.is_ascii_uppercase())
        && word.contains('_')
        && word.split('_').all(|part| {
            !part.is_empty()
                && part
                    .chars()
                    .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit())
        })
}

/// Every `.rs` file under the repo's source directories (the build outputs
/// excluded).
fn rust_sources() -> Vec<PathBuf> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries {
            let path = entry.expect("dir entry").path();
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default();
            if path.is_dir() && name != "target" && !name.starts_with('.') {
                walk(&path, out);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for dir in [
        "src",
        "tests",
        "examples",
        "crates",
        "perfbench/src",
        "vendor",
    ] {
        walk(&repo_root().join(dir), &mut files);
    }
    files
}

/// `src` with every comment, string literal and character literal blanked
/// out, so braces inside them cannot unbalance the item scan.
fn strip_literals(src: &str) -> String {
    let c: Vec<char> = src.chars().collect();
    let ident = |k: usize| c[k].is_alphanumeric() || c[k] == '_';
    let mut out = String::with_capacity(src.len());
    let mut i = 0;
    while i < c.len() {
        let next = c.get(i + 1).copied();
        if c[i] == '/' && next == Some('/') {
            while i < c.len() && c[i] != '\n' {
                i += 1;
            }
        } else if c[i] == '/' && next == Some('*') {
            let mut depth = 0;
            while i < c.len() {
                if c[i] == '/' && c.get(i + 1) == Some(&'*') {
                    depth += 1;
                    i += 2;
                } else if c[i] == '*' && c.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    i += 1;
                }
            }
            out.push(' ');
        } else if c[i] == 'r'
            && matches!(next, Some('"' | '#'))
            && (i == 0 || !ident(i - 1) || (c[i - 1] == 'b' && (i < 2 || !ident(i - 2))))
        {
            let mut hashes = 0;
            let mut k = i + 1;
            while c.get(k) == Some(&'#') {
                hashes += 1;
                k += 1;
            }
            if c.get(k) != Some(&'"') {
                out.push(c[i]);
                i += 1;
                continue;
            }
            k += 1;
            while k < c.len() && !(c[k] == '"' && (1..=hashes).all(|h| c.get(k + h) == Some(&'#')))
            {
                k += 1;
            }
            i = k + 1 + hashes;
            out.push_str("\"\"");
        } else if c[i] == '"' {
            i += 1;
            while i < c.len() && c[i] != '"' {
                i += if c[i] == '\\' { 2 } else { 1 };
            }
            i += 1;
            out.push_str("\"\"");
        } else if c[i] == '\'' && next == Some('\\') {
            i += 2;
            while i < c.len() && c[i] != '\'' {
                i += 1;
            }
            i += 1;
            out.push_str("' '");
        } else if c[i] == '\'' && c.get(i + 2) == Some(&'\'') {
            i += 3;
            out.push_str("' '");
        } else {
            out.push(c[i]);
            i += 1;
        }
    }
    out
}

/// The tokens of a code span or of stripped source: identifiers (and
/// numbers) whole, `::` and `->` as one token each, every other
/// non-blank character alone.
fn tokens(code: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let c: Vec<char> = code.chars().collect();
    let mut i = 0;
    while i < c.len() {
        if c[i].is_whitespace() {
            i += 1;
        } else if c[i].is_alphanumeric() || c[i] == '_' {
            let start = i;
            while i < c.len() && (c[i].is_alphanumeric() || c[i] == '_') {
                i += 1;
            }
            tokens.push(c[start..i].iter().collect());
        } else if (c[i] == ':' && c.get(i + 1) == Some(&':'))
            || (c[i] == '-' && c.get(i + 1) == Some(&'>'))
        {
            tokens.push(c[i..i + 2].iter().collect());
            i += 2;
        } else {
            tokens.push(c[i].to_string());
            i += 1;
        }
    }
    tokens
}

/// Whether `token` is an identifier (or a keyword).
fn is_ident(token: &str) -> bool {
    token.starts_with(|c: char| c.is_alphabetic() || c == '_')
}

/// The type an `impl` header (the tokens between `impl` and its `{`)
/// implements for: the last identifier outside angle brackets of the path
/// after `for`, or of the path after the impl's own generics.
fn impl_self_type(header: &[String]) -> Option<String> {
    let mut angle = 0i32;
    let mut path: Vec<&String> = Vec::new();
    for token in header {
        match token.as_str() {
            "<" => angle += 1,
            ">" => angle -= 1,
            "for" if angle == 0 => path.clear(),
            "where" if angle == 0 => break,
            t if angle == 0 && is_ident(t) => path.push(token),
            _ => {}
        }
    }
    path.last().map(|t| t.to_string())
}

/// What the workspace sources define: the members of every struct, enum,
/// union and trait by type name (impl items, named fields, variants, trait
/// items), and every `const` and `static` name.
struct Definitions {
    members: HashMap<String, HashSet<String>>,
    constants: HashSet<String>,
}

fn definitions() -> Definitions {
    let mut defs = Definitions {
        members: HashMap::new(),
        constants: HashSet::new(),
    };
    for file in rust_sources() {
        let src = std::fs::read_to_string(&file).unwrap_or_else(|e| panic!("read {file:?}: {e}"));
        let tokens = tokens(&strip_literals(&src));
        // The open brackets, each with the item (its keyword and type
        // name) whose body it opens.
        let mut stack: Vec<(String, Option<(String, String)>)> = Vec::new();
        // The item whose body the next `{` opens, if any.
        let mut pending: Option<(String, String)> = None;
        for (k, token) in tokens.iter().enumerate() {
            let prev = if k > 0 { tokens[k - 1].as_str() } else { "" };
            let next = tokens.get(k + 1).map(String::as_str).unwrap_or("");
            // Members directly inside the innermost open body.
            if let Some((_, Some((kind, name)))) = stack.last() {
                let member = match kind.as_str() {
                    "impl" | "trait"
                        if matches!(prev, "fn" | "const" | "type") && is_ident(token) =>
                    {
                        true
                    }
                    "struct" | "union" => is_ident(token) && next == ":",
                    "enum" => is_ident(token) && matches!(prev, "{" | "," | "]"),
                    _ => false,
                };
                if member {
                    defs.members
                        .entry(name.clone())
                        .or_default()
                        .insert(token.clone());
                }
            }
            match token.as_str() {
                "const" | "static" => {
                    let name = if next == "mut" {
                        tokens.get(k + 2)
                    } else {
                        tokens.get(k + 1)
                    };
                    if let Some(name) = name.filter(|n| is_ident(n) && *n != "fn" && *n != "_") {
                        defs.constants.insert(name.clone());
                    }
                }
                "struct" | "enum" | "union" | "trait" if is_ident(next) => {
                    defs.members.entry(next.to_string()).or_default();
                    pending = Some((token.clone(), next.to_string()));
                }
                "impl"
                    if !matches!(prev, "<" | "," | "(" | ":" | "->" | "=" | "&" | "+" | "dyn") =>
                {
                    let end = tokens[k + 1..]
                        .iter()
                        .position(|t| t == "{" || t == ";")
                        .map_or(tokens.len(), |p| k + 1 + p);
                    pending = impl_self_type(&tokens[k + 1..end]).map(|name| (token.clone(), name));
                }
                ";" if !matches!(stack.last(), Some((open, _)) if open != "{") => pending = None,
                "{" => stack.push((token.clone(), pending.take())),
                "(" | "[" => stack.push((token.clone(), None)),
                "}" | ")" | "]" => {
                    stack.pop();
                }
                _ => {}
            }
        }
    }
    defs
}

#[test]
fn docs_name_members_and_constants_that_exist() {
    let defs = definitions();
    assert!(
        defs.members
            .get("World")
            .is_some_and(|m| m.contains("move_robot") && m.contains("sparse")),
        "the source scan must find `World`'s methods and fields"
    );
    assert!(
        defs.members
            .get("WorldMode")
            .is_some_and(|m| m.contains("Sparse")),
        "the source scan must find enum variants"
    );
    for rel in DOCS {
        let mut unknown = BTreeSet::new();
        for span in code_spans(&read(rel)) {
            let tokens = tokens(&span);
            for (k, token) in tokens.iter().enumerate() {
                if is_screaming_snake(token) && !defs.constants.contains(token) {
                    unknown.insert(token.clone());
                }
                let Some(members) = defs.members.get(token.as_str()) else {
                    continue;
                };
                if tokens.get(k + 1).map(String::as_str) != Some("::") {
                    continue;
                }
                // `Type::member`, or `Type::{a, b}`.
                let named: Vec<&String> = match tokens.get(k + 2).map(String::as_str) {
                    Some("{") => tokens[k + 3..]
                        .iter()
                        .take_while(|t| *t != "}")
                        .filter(|t| is_ident(t))
                        .collect(),
                    Some(t) if is_ident(t) => vec![&tokens[k + 2]],
                    _ => Vec::new(),
                };
                for member in named.into_iter().filter(|m| !members.contains(*m)) {
                    unknown.insert(format!("{token}::{member}"));
                }
            }
        }
        assert!(
            unknown.is_empty(),
            "{rel} names members and constants the sources do not define: {unknown:?}"
        );
    }
}
