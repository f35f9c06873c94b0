//! The per-file lint rules: scoping, test-code stripping, rule
//! checks, and `xtask-allow` pragma application. (The cross-file
//! families — `lockorder`, `epochkey`, `hotreach`, `cancelpoint`,
//! `pubapi` — live in [`crate::wrules`] and run against the
//! [`crate::model`] workspace model.)
//!
//! Five per-file rule families guard the invariants the paper
//! reproduction depends on (see DESIGN.md §"Static analysis layer"):
//!
//! - `determinism` — the LCRB-P greedy is only (1 − 1/e)-approximate
//!   because σ(·) is estimated over coupled random realizations
//!   (§V-A of the paper); hash-order iteration in result-producing
//!   code silently voids that guarantee. (Clock reads are banned by
//!   `clippy.toml`; the vendored `rand` has no entropy constructors.)
//! - `panic` / `index` — library code reports failures through
//!   `LcrbError`/`GraphError`; panics are reserved for documented
//!   invariant breaches, each carrying an `xtask-allow` justification.
//! - `attributes` — every crate root carries the standard prelude
//!   (`forbid(unsafe_code)`, `deny(missing_docs)`,
//!   `warn(missing_debug_implementations)`).
//! - `docexample` — the session types (`Solver`, `SolveRequest`,
//!   `SolveReport`) are the crate's front door; every `pub fn` in
//!   their inherent impls must carry a doc comment with a fenced
//!   code example (or a justified allow).

use std::collections::BTreeSet;

use crate::lexer::{Lexed, TokKind, Token};

/// Rule identifiers accepted by `xtask-allow` pragmas. The first five
/// are per-file families; `lockorder`, `epochkey`, `hotreach`,
/// `cancelpoint`, and `pubapi` are the cross-file families run
/// against the workspace model ([`crate::model`] /
/// [`crate::wrules`]).
pub const KNOWN_RULES: [&str; 10] = [
    "determinism",
    "panic",
    "index",
    "attributes",
    "docexample",
    "lockorder",
    "epochkey",
    "hotreach",
    "cancelpoint",
    "pubapi",
];

/// Crates whose result-producing code must not iterate hash
/// containers (the paper's algorithm layers).
const DETERMINISM_CRATES: [&str; 4] = ["graph", "community", "diffusion", "core"];

/// The declared hot-module list: the diffusion engine kernels plus
/// the CSR traversal and objective/greedy/SCBG layers. Their slice
/// indexing is exempt from `index` (debug-build validators back it),
/// and their unbounded loops are in `cancelpoint`'s scope.
pub(crate) const HOT_FILES: [&str; 12] = [
    "crates/diffusion/src/model.rs",
    "crates/diffusion/src/opoao.rs",
    "crates/diffusion/src/doam.rs",
    "crates/diffusion/src/ic.rs",
    "crates/diffusion/src/lt.rs",
    "crates/diffusion/src/sketch.rs",
    "crates/diffusion/src/workspace.rs",
    "crates/graph/src/traversal/csr_bfs.rs",
    "crates/core/src/objective.rs",
    "crates/core/src/greedy.rs",
    "crates/core/src/scbg.rs",
    "crates/core/src/sketch_objective.rs",
];

/// Keywords that may directly precede `[` without forming an index
/// expression (`&mut [T]`, `as [u8; 4]`, ...).
const NON_INDEX_KEYWORDS: [&str; 12] = [
    "mut", "dyn", "as", "in", "return", "break", "else", "move", "ref", "static", "const", "box",
];

/// Inherent-impl targets whose `pub fn`s must carry doc examples —
/// the session API surface (ISSUE 7 satellite).
const DOC_EXAMPLE_TYPES: [&str; 3] = ["Solver", "SolveRequest", "SolveReport"];

/// Hash-container methods whose iteration order is nondeterministic.
const HASH_ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
];

/// Which rule families apply to a file.
#[derive(Clone, Copy, Debug, Default)]
pub struct FileClass {
    /// Crate root that must carry the attribute prelude.
    pub attributes_root: bool,
    /// Library code subject to `panic`/`index`, `docexample`, and
    /// `lockorder`'s ban on interior-mutability statics.
    pub panic_scope: bool,
    /// Subject to the hash-iteration determinism check.
    pub determinism_iteration: bool,
    /// Member of the declared hot-module list.
    pub hot: bool,
}

/// One diagnostic.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Rule family (or `allow` for pragma hygiene problems).
    pub rule: String,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Classifies a workspace-relative path (forward slashes); `None`
/// means the file is out of lint scope.
#[must_use]
pub fn classify(rel_path: &str) -> Option<FileClass> {
    if !rel_path.ends_with(".rs") {
        return None;
    }
    // Out of scope entirely: vendored deps, build output, integration
    // tests, benches, examples.
    for skip in [
        "vendor/",
        "target/",
        "tests/",
        "benches/",
        "examples/",
        ".git/",
    ] {
        if rel_path.starts_with(skip) || rel_path.contains(&format!("/{skip}")) {
            return None;
        }
    }
    // The bench harness and this tool itself are dev tooling: only
    // the attribute prelude applies to their crate roots.
    if rel_path.starts_with("crates/bench/") {
        return (rel_path == "crates/bench/src/lib.rs").then(|| FileClass {
            attributes_root: true,
            ..FileClass::default()
        });
    }
    if rel_path.starts_with("crates/xtask/") {
        return (rel_path == "crates/xtask/src/lib.rs").then(|| FileClass {
            attributes_root: true,
            ..FileClass::default()
        });
    }
    // The deterministic-scheduler backend of `lcrb-sync` is test-only
    // model-checking infrastructure: panicking threads are its abort
    // mechanism, decision indices are replay bookkeeping, and TLS
    // statics are its thread-identity plumbing — the panic/index
    // families and the static ban don't apply. The files stay in scope
    // (non-`None`) so the workspace symbol graph still sees the
    // facade and the `pubapi` baseline covers its surface. The std
    // passthrough backend ships in release builds and is classified
    // like any library below.
    if rel_path.starts_with("crates/sync/src/sched/") {
        return Some(FileClass::default());
    }

    let mut class = FileClass::default();
    let crate_name = rel_path
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next());
    let in_library = match crate_name {
        Some(name) => rel_path.starts_with(&format!("crates/{name}/src/")),
        // The umbrella crate at the workspace root.
        None => rel_path.starts_with("src/"),
    };
    if !in_library {
        return None;
    }
    class.panic_scope = true;
    class.attributes_root = rel_path == "src/lib.rs"
        || crate_name.is_some_and(|n| rel_path == format!("crates/{n}/src/lib.rs"));
    class.determinism_iteration = crate_name.is_some_and(|n| DETERMINISM_CRATES.contains(&n));
    class.hot = HOT_FILES.contains(&rel_path);
    Some(class)
}

/// The per-file rule families over one file's test-stripped tokens
/// `code`, without pragma application. The caller owns
/// `apply_allows` so workspace-level diagnostics for the same file
/// share one pragma pass (an allow used only by a cross-file rule is
/// then not "unused").
#[must_use]
pub(crate) fn lint_source_raw(rel_path: &str, source: &str, code: &[Token]) -> Vec<Violation> {
    let Some(class) = classify(rel_path) else {
        return Vec::new();
    };
    let mut raw = Vec::new();
    if class.determinism_iteration {
        check_determinism(code, rel_path, &mut raw);
    }
    if class.panic_scope {
        check_panic(code, rel_path, &mut raw);
        if !class.hot {
            check_index(code, rel_path, &mut raw);
        }
        check_docexample(code, source, rel_path, &mut raw);
    }
    if class.attributes_root {
        check_attributes(code, rel_path, &mut raw);
    }
    raw
}

/// Removes every item annotated `#[cfg(test)]` (and stacked
/// attributes following it) from the token stream.
pub(crate) fn strip_test_code(tokens: &[Token]) -> Vec<Token> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            let (end, is_cfg_test) = scan_attribute(tokens, i + 1);
            if is_cfg_test {
                i = end + 1;
                // Skip any further attributes stacked on the item.
                while tokens.get(i).is_some_and(|t| t.is_punct('#'))
                    && tokens.get(i + 1).is_some_and(|t| t.is_punct('['))
                {
                    let (e, _) = scan_attribute(tokens, i + 1);
                    i = e + 1;
                }
                // Skip the item: a balanced `{ ... }` block, or a `;`
                // at item level (e.g. `use` declarations).
                let mut depth = 0usize;
                while i < tokens.len() {
                    let t = &tokens[i];
                    i += 1;
                    if t.is_punct('{') {
                        depth += 1;
                    } else if t.is_punct('}') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    } else if t.is_punct(';') && depth == 0 {
                        break;
                    }
                }
                continue;
            }
        }
        out.push(tokens[i].clone());
        i += 1;
    }
    out
}

/// Scans an attribute starting at the index of its `[`; returns the
/// index of the matching `]` and whether the attribute is exactly
/// `#[cfg(test)]`. Any other `cfg` (`not(test)`, `any(test, ..)`)
/// can ship, so it stays in the stream.
fn scan_attribute(tokens: &[Token], open: usize) -> (usize, bool) {
    let mut depth = 0usize;
    let mut i = open;
    while i < tokens.len() {
        if tokens[i].is_punct('[') {
            depth += 1;
        } else if tokens[i].is_punct(']') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
        i += 1;
    }
    let inner = &tokens[open + 1..i.min(tokens.len())];
    let cfg_test = inner.len() == 4
        && inner[0].is_ident("cfg")
        && inner[1].is_punct('(')
        && inner[2].is_ident("test")
        && inner[3].is_punct(')');
    (i, cfg_test)
}

/// Flags iteration over `HashMap`/`HashSet` bindings (method calls
/// and `for` loops) in the result-producing crates.
fn check_determinism(code: &[Token], file: &str, out: &mut Vec<Violation>) {
    // Identifiers bound to HashMap/HashSet in this file (let bindings
    // with type ascription or `= HashMap::new()`, and struct fields).
    let mut hash_bound: BTreeSet<String> = BTreeSet::new();
    for (i, t) in code.iter().enumerate() {
        if !(t.is_ident("HashMap") || t.is_ident("HashSet")) || i < 2 {
            continue;
        }
        let prev = &code[i - 1];
        let prev2 = &code[i - 2];
        if (prev.is_punct(':') && !prev2.is_punct(':') && prev2.kind == TokKind::Ident)
            || (prev.is_punct('=') && prev2.kind == TokKind::Ident)
        {
            hash_bound.insert(prev2.text.clone());
        }
    }
    for (i, t) in code.iter().enumerate() {
        // receiver.method( ... ) on a hash-bound receiver.
        if t.kind == TokKind::Ident
            && hash_bound.contains(&t.text)
            && code.get(i + 1).is_some_and(|p| p.is_punct('.'))
            && code.get(i + 2).is_some_and(|m| {
                m.kind == TokKind::Ident && HASH_ITER_METHODS.contains(&m.text.as_str())
            })
            && code.get(i + 3).is_some_and(|p| p.is_punct('('))
        {
            out.push(Violation {
                file: file.to_owned(),
                line: t.line,
                rule: "determinism".to_owned(),
                message: format!(
                    "iterating hash container `{}` has nondeterministic order; collect-and-sort or use an indexed/BTree layout",
                    t.text
                ),
            });
        }
        // `for pat in [&[mut]] receiver {` over a hash-bound receiver.
        if t.is_ident("for") {
            let mut j = i + 1;
            let limit = (i + 8).min(code.len());
            while j < limit && !code[j].is_ident("in") {
                j += 1;
            }
            if j >= limit {
                continue;
            }
            let mut k = j + 1;
            while k < code.len() && (code[k].is_punct('&') || code[k].is_ident("mut")) {
                k += 1;
            }
            if code
                .get(k)
                .is_some_and(|r| r.kind == TokKind::Ident && hash_bound.contains(&r.text))
                && code.get(k + 1).is_some_and(|b| b.is_punct('{'))
            {
                out.push(Violation {
                    file: file.to_owned(),
                    line: t.line,
                    rule: "determinism".to_owned(),
                    message: format!(
                        "`for .. in {}` iterates a hash container in nondeterministic order",
                        code[k].text
                    ),
                });
            }
        }
    }
}

fn check_panic(code: &[Token], file: &str, out: &mut Vec<Violation>) {
    for (i, t) in code.iter().enumerate() {
        let next_is = |ch: char| code.get(i + 1).is_some_and(|n| n.is_punct(ch));
        // `#[expect(lint)]` is a lint attribute, not a call.
        let in_attribute = i > 0 && code[i - 1].is_punct('[');
        if (t.is_ident("unwrap") || t.is_ident("expect")) && next_is('(') && !in_attribute {
            out.push(Violation {
                file: file.to_owned(),
                line: t.line,
                rule: "panic".to_owned(),
                message: format!(
                    "`{}()` in library code; return an error (`LcrbError`/`GraphError`) or justify the invariant with `// xtask-allow: panic -- <why>`",
                    t.text
                ),
            });
        }
        if (t.is_ident("panic") || t.is_ident("todo") || t.is_ident("unimplemented"))
            && next_is('!')
        {
            out.push(Violation {
                file: file.to_owned(),
                line: t.line,
                rule: "panic".to_owned(),
                message: format!("`{}!` in library code; return an error instead", t.text),
            });
        }
    }
}

fn check_index(code: &[Token], file: &str, out: &mut Vec<Violation>) {
    for (i, t) in code.iter().enumerate() {
        if !t.is_punct('[') || i == 0 {
            continue;
        }
        let prev = &code[i - 1];
        let is_index_expr = match prev.kind {
            TokKind::Ident => !NON_INDEX_KEYWORDS.contains(&prev.text.as_str()),
            TokKind::Punct => prev.is_punct(')') || prev.is_punct(']'),
            _ => false,
        };
        if is_index_expr {
            out.push(Violation {
                file: file.to_owned(),
                line: t.line,
                rule: "index".to_owned(),
                message:
                    "slice index can panic; use `.get()` or justify the bound with an `xtask-allow`"
                        .to_owned(),
            });
        }
    }
}

/// The `docexample` family (ISSUE 7): every `pub fn` in an *inherent*
/// impl of a session type ([`DOC_EXAMPLE_TYPES`]) must carry a doc
/// comment containing a fenced code example.
///
/// Detection is two-layered because the lexer deliberately drops doc
/// comments: impl blocks and `pub fn` items are found in the token
/// stream, then the raw source lines *above* each `pub fn` are
/// scanned upward — collecting `///` lines, skipping attribute lines,
/// stopping at the previous item (a line ending in `{`, `}`, or `;`,
/// a blank line, or a `//!` inner doc).
fn check_docexample(code: &[Token], source: &str, file: &str, out: &mut Vec<Violation>) {
    let lines: Vec<&str> = source.lines().collect();
    let mut i = 0usize;
    while i < code.len() {
        if !code[i].is_ident("impl") {
            i += 1;
            continue;
        }
        // Scan the impl header up to its `{`; a `for` marks a trait
        // impl (out of scope — the trait documents the contract).
        let mut j = i + 1;
        let mut target: Option<String> = None;
        let mut trait_impl = false;
        while j < code.len() && !code[j].is_punct('{') && !code[j].is_punct(';') {
            let t = &code[j];
            if t.is_ident("for") {
                trait_impl = true;
            } else if t.kind == TokKind::Ident
                && DOC_EXAMPLE_TYPES.contains(&t.text.as_str())
                && target.is_none()
            {
                target = Some(t.text.clone());
            }
            j += 1;
        }
        if j >= code.len() || code[j].is_punct(';') {
            i = j + 1;
            continue;
        }
        let Some(type_name) = target.filter(|_| !trait_impl) else {
            i = j + 1;
            continue;
        };
        // Walk the impl body; `pub fn` at body depth 1 is API surface.
        let mut depth = 0i64;
        let mut m = j;
        while m < code.len() {
            let t = &code[m];
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if depth == 1
                && t.is_ident("pub")
                && code.get(m + 1).is_some_and(|f| f.is_ident("fn"))
            {
                let fn_name = code.get(m + 2).map_or_else(String::new, |n| n.text.clone());
                if !doc_block_has_example(&lines, t.line) {
                    out.push(Violation {
                        file: file.to_owned(),
                        line: t.line,
                        rule: "docexample".to_owned(),
                        message: format!(
                            "`{type_name}::{fn_name}` is public session API; its doc comment needs a fenced ``` example (or `// xtask-allow: docexample -- <why>`)"
                        ),
                    });
                }
            }
            m += 1;
        }
        i = m + 1;
    }
}

/// Scans raw source lines upward from the line holding a `pub fn`,
/// looking for a fenced code block in its contiguous `///` doc
/// comment. Attribute lines (including multi-line attribute bodies)
/// are skipped; the scan stops at the previous item boundary.
fn doc_block_has_example(lines: &[&str], fn_line: usize) -> bool {
    let mut idx = fn_line.saturating_sub(1); // 0-based index of the fn line
    while idx > 0 {
        idx -= 1;
        let text = lines.get(idx).map_or("", |l| l.trim());
        if let Some(doc) = text.strip_prefix("///") {
            if doc.contains("```") {
                return true;
            }
            continue;
        }
        if text.is_empty()
            || text.starts_with("//!")
            || text.ends_with('{')
            || text.ends_with('}')
            || text.ends_with(';')
        {
            return false;
        }
        // Anything else is an attribute (or a continuation line of a
        // multi-line attribute) sitting between the docs and the fn.
    }
    false
}

fn check_attributes(tokens: &[Token], file: &str, out: &mut Vec<Violation>) {
    // Collect `#![level(lint)]` inner attributes.
    let mut present: BTreeSet<(String, String)> = BTreeSet::new();
    for i in 0..tokens.len() {
        if tokens[i].is_punct('#')
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('!'))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct('['))
            && tokens.get(i + 3).is_some_and(|t| t.kind == TokKind::Ident)
            && tokens.get(i + 4).is_some_and(|t| t.is_punct('('))
            && tokens.get(i + 5).is_some_and(|t| t.kind == TokKind::Ident)
            && tokens.get(i + 6).is_some_and(|t| t.is_punct(')'))
        {
            present.insert((tokens[i + 3].text.clone(), tokens[i + 5].text.clone()));
        }
    }
    let has = |levels: &[&str], lint: &str| {
        levels
            .iter()
            .any(|lv| present.contains(&((*lv).to_owned(), lint.to_owned())))
    };
    let mut require = |ok: bool, wanted: &str| {
        if !ok {
            out.push(Violation {
                file: file.to_owned(),
                line: 1,
                rule: "attributes".to_owned(),
                message: format!("crate root is missing `#![{wanted}]` (standard prelude)"),
            });
        }
    };
    require(has(&["forbid"], "unsafe_code"), "forbid(unsafe_code)");
    require(
        has(&["deny", "forbid"], "missing_docs"),
        "deny(missing_docs)",
    );
    require(
        has(&["warn", "deny", "forbid"], "missing_debug_implementations"),
        "warn(missing_debug_implementations)",
    );
}

/// Applies `xtask-allow` pragmas to the raw violation list and
/// appends pragma-hygiene diagnostics (unknown rule, missing
/// justification, unused allow).
pub(crate) fn apply_allows(file: &str, lexed: &Lexed, raw: Vec<Violation>) -> Vec<Violation> {
    // Effective line covered by each line-level pragma: its own line
    // if trailing, else the next line carrying any code token.
    let covered_line = |p: &crate::lexer::Pragma| -> Option<usize> {
        if p.trailing {
            return Some(p.line);
        }
        lexed
            .tokens
            .iter()
            .map(|t| t.line)
            .filter(|&l| l > p.line)
            .min()
    };
    let mut used = vec![false; lexed.pragmas.len()];
    let mut out = Vec::new();

    for v in raw {
        let mut suppressed = false;
        for (pi, p) in lexed.pragmas.iter().enumerate() {
            if !p.rules.iter().any(|r| r == &v.rule) {
                continue;
            }
            let applies = p.file_level || covered_line(p) == Some(v.line);
            if applies {
                used[pi] = true;
                suppressed = true;
            }
        }
        if !suppressed {
            out.push(v);
        }
    }

    for (pi, p) in lexed.pragmas.iter().enumerate() {
        let scope = if p.file_level {
            "xtask-allow-file"
        } else {
            "xtask-allow"
        };
        if p.rules.is_empty() {
            out.push(Violation {
                file: file.to_owned(),
                line: p.line,
                rule: "allow".to_owned(),
                message: format!("`{scope}` pragma lists no rules"),
            });
            continue;
        }
        for r in &p.rules {
            if !KNOWN_RULES.contains(&r.as_str()) {
                out.push(Violation {
                    file: file.to_owned(),
                    line: p.line,
                    rule: "allow".to_owned(),
                    message: format!(
                        "`{scope}` names unknown rule `{r}` (known: {})",
                        KNOWN_RULES.join(", ")
                    ),
                });
            }
        }
        if !p.has_justification {
            out.push(Violation {
                file: file.to_owned(),
                line: p.line,
                rule: "allow".to_owned(),
                message: format!("`{scope}` requires a justification: `-- <why this is sound>`"),
            });
        }
        if !used[pi] && p.rules.iter().all(|r| KNOWN_RULES.contains(&r.as_str())) {
            out.push(Violation {
                file: file.to_owned(),
                line: p.line,
                rule: "allow".to_owned(),
                message: format!(
                    "unused `{scope}` (no `{}` diagnostic here); remove it",
                    p.rules.join("`/`")
                ),
            });
        }
    }

    out.sort_by(|a, b| (a.line, &a.rule).cmp(&(b.line, &b.rule)));
    out
}
