//! The workspace token lint rules, each a pure function over one file's
//! token stream. See DESIGN.md §10 for the rationale behind every rule and
//! the precise waiver semantics.
//!
//! Rules operate on lexed tokens (not an AST), so their matching is
//! deliberately shallow and per-file: a `HashMap` smuggled across a file
//! boundary behind a type alias will not be seen. That trade keeps the
//! driver dependency-free and fast; the rules are a tripwire, not a proof.

use std::collections::BTreeSet;

use crate::lexer::{Tok, Token};

/// Rule identifiers — stable strings used in waivers and the JSON report.
pub const RULE_HASH_ITER: &str = "no-hashmap-iteration-in-numeric-path";
pub const RULE_WALLCLOCK: &str = "no-wallclock-outside-obs";
pub const RULE_THREAD_SPAWN: &str = "no-raw-thread-spawn";
pub const RULE_SAFETY_COMMENT: &str = "safety-comment-required";
pub const RULE_ENV_REGISTRY: &str = "env-read-registry";
/// Pseudo-rule for malformed `audit-allow` comments (unknown rule name or
/// missing reason). Never waivable — a waiver that cannot be read is noise.
pub const RULE_WAIVER_SYNTAX: &str = "waiver-syntax";
// Interprocedural rules over the workspace call graph (see
// [`crate::interproc`]); hits carry full call-path traces.
pub const RULE_DETERMINISM_TAINT: &str = "determinism-taint-hot-path";
pub const RULE_ALLOC_REACH: &str = "hot-path-alloc-reachability";
pub const RULE_CLAIMED_WRITE: &str = "claimed-write-audit";
/// Pseudo-rule for an interprocedural root spec that matches no workspace
/// function: a renamed or deleted entry point would otherwise shrink its
/// rule's reach without a trace. Never waivable — fix the spec instead.
pub const RULE_ROOT_UNMATCHED: &str = "audit-root-unmatched";

pub const ALL_RULES: [&str; 10] = [
    RULE_HASH_ITER,
    RULE_WALLCLOCK,
    RULE_THREAD_SPAWN,
    RULE_SAFETY_COMMENT,
    RULE_ENV_REGISTRY,
    RULE_WAIVER_SYNTAX,
    RULE_DETERMINISM_TAINT,
    RULE_ALLOC_REACH,
    RULE_CLAIMED_WRITE,
    RULE_ROOT_UNMATCHED,
];

/// One rule hit in one file.
#[derive(Debug, Clone)]
pub struct Violation {
    pub rule: &'static str,
    /// Repo-relative path with forward slashes.
    pub file: String,
    pub line: u32,
    pub message: String,
    /// Filled in by the driver when an `audit-allow` covers this hit.
    pub waived: bool,
    pub waive_reason: Option<String>,
    /// For interprocedural rules: the shortest call path from the entry
    /// point to the function containing the hit. Empty for token rules.
    pub trace: Vec<String>,
}

/// An `audit-allow` comment — the rule name in parentheses, then a colon
/// and a mandatory reason. Covers violations of that rule on its own line
/// and the line directly below it. The `audit-allow-file` form instead
/// covers every violation of that rule anywhere in the file.
#[derive(Debug, Clone)]
pub struct Waiver {
    pub rule: String,
    pub file: String,
    pub line: u32,
    pub reason: String,
    /// True for the file-scoped waiver form (`audit-allow-file`, with the
    /// same rule-in-parens-then-reason syntax as the line form).
    pub file_scoped: bool,
    /// Set by the driver when the waiver actually absorbed a hit.
    pub used: bool,
}

fn violation(rule: &'static str, file: &str, line: u32, message: String) -> Violation {
    Violation {
        rule,
        file: file.to_string(),
        line,
        message,
        waived: false,
        waive_reason: None,
        trace: Vec::new(),
    }
}

fn is_ident(t: &Tok, name: &str) -> bool {
    matches!(t, Tok::Ident(s) if s == name)
}

fn is_punct(t: &Tok, c: char) -> bool {
    matches!(t, Tok::Punct(p) if *p == c)
}

/// `tokens[i..]` starts with the given `::`-separated ident sequence, e.g.
/// `path_seq(toks, i, &["Instant", "now"])` matches `Instant::now`.
fn path_seq(toks: &[Token], i: usize, segs: &[&str]) -> bool {
    let mut at = i;
    for (k, seg) in segs.iter().enumerate() {
        if at >= toks.len() || !is_ident(&toks[at].tok, seg) {
            return false;
        }
        at += 1;
        if k + 1 < segs.len() {
            if at + 1 >= toks.len()
                || !is_punct(&toks[at].tok, ':')
                || !is_punct(&toks[at + 1].tok, ':')
            {
                return false;
            }
            at += 2;
        }
    }
    true
}

/// Run every rule against one file. `code` is the token stream with
/// comments removed (multi-token patterns must not be split by comments);
/// `raw` keeps comments for the SAFETY-comment rule.
pub fn check_file(
    rel_path: &str,
    raw: &[Token],
    registry: &BTreeSet<String>,
    out: &mut Vec<Violation>,
) {
    let code: Vec<Token> = raw
        .iter()
        .filter(|t| !matches!(t.tok, Tok::Comment(_)))
        .cloned()
        .collect();
    hashmap_iteration(rel_path, &code, out);
    wallclock(rel_path, &code, out);
    thread_spawn(rel_path, &code, out);
    safety_comment(rel_path, raw, out);
    env_registry(rel_path, &code, registry, out);
}

/// `no-hashmap-iteration-in-numeric-path`
///
/// In `crates/core`, `crates/models`, and `crates/graph`, any binding or
/// field whose outermost declared type is `HashMap`/`HashSet` (or that is
/// initialised from `HashMap::…`/`HashSet::…`) must not be iterated:
/// `RandomState` makes the visit order differ across processes, and in
/// these crates iteration order reaches features, losses, or metrics.
/// Wrapped uses (`Vec<HashSet<…>>`) are not tracked — indexing the outer
/// `Vec` is ordered — and tracking is per-file by design.
fn hashmap_iteration(rel_path: &str, code: &[Token], out: &mut Vec<Violation>) {
    let scoped = ["crates/core/", "crates/models/", "crates/graph/"]
        .iter()
        .any(|p| rel_path.starts_with(p));
    if !scoped {
        return;
    }

    // Pass A: names whose declarations mention a hash collection.
    let mut tracked: BTreeSet<String> = BTreeSet::new();
    for i in 0..code.len() {
        // `name: [&] path::to::HashMap<…>` — type ascription, field, or
        // fn parameter. Require a single `:` (not `::`).
        if i + 1 < code.len()
            && is_punct(&code[i + 1].tok, ':')
            && !(i + 2 < code.len() && is_punct(&code[i + 2].tok, ':'))
            && !(i >= 1 && is_punct(&code[i - 1].tok, ':'))
        {
            if let Tok::Ident(name) = &code[i].tok {
                if type_path_hits_hash(code, i + 2) {
                    tracked.insert(name.clone());
                }
            }
        }
        // `let [mut] name = path::to::HashMap::…` — inferred type.
        if is_ident(&code[i].tok, "let") {
            let mut j = i + 1;
            if j < code.len() && is_ident(&code[j].tok, "mut") {
                j += 1;
            }
            let Some(Tok::Ident(name)) = code.get(j).map(|t| &t.tok) else {
                continue;
            };
            if code.get(j + 1).is_some_and(|t| is_punct(&t.tok, '='))
                && type_path_hits_hash(code, j + 2)
            {
                tracked.insert(name.clone());
            }
        }
    }
    if tracked.is_empty() {
        return;
    }

    const ITER_METHODS: [&str; 10] = [
        "iter",
        "iter_mut",
        "keys",
        "values",
        "values_mut",
        "drain",
        "into_iter",
        "into_keys",
        "into_values",
        "retain",
    ];

    // Pass B: iteration over a tracked name.
    for i in 0..code.len() {
        if let Tok::Ident(name) = &code[i].tok {
            if !tracked.contains(name) {
                continue;
            }
            // `name.iter()` and friends.
            if i + 2 < code.len() && is_punct(&code[i + 1].tok, '.') {
                if let Tok::Ident(m) = &code[i + 2].tok {
                    if ITER_METHODS.contains(&m.as_str()) {
                        out.push(violation(
                            RULE_HASH_ITER,
                            rel_path,
                            code[i].line,
                            format!(
                                "`{name}.{m}()` iterates a hash-based collection \
                                 (RandomState order); use BTreeMap/BTreeSet or a sorted drain"
                            ),
                        ));
                    }
                }
            }
            // `for … in [&[mut]] name {` — implicit IntoIterator.
            let before = i.checked_sub(1).map(|k| &code[k].tok);
            let amp = matches!(before, Some(t) if is_punct(t, '&'));
            let in_at = if amp {
                i.checked_sub(2)
            } else {
                i.checked_sub(1)
            };
            let preceded_by_in = in_at.is_some_and(|k| is_ident(&code[k].tok, "in"))
                || (amp
                    && i >= 3
                    && is_ident(&code[i - 1].tok, "mut")
                    && is_ident(&code[i - 3].tok, "in"));
            if preceded_by_in && code.get(i + 1).is_some_and(|t| is_punct(&t.tok, '{')) {
                out.push(violation(
                    RULE_HASH_ITER,
                    rel_path,
                    code[i].line,
                    format!(
                        "`for … in {name}` iterates a hash-based collection \
                         (RandomState order); use BTreeMap/BTreeSet or a sorted drain"
                    ),
                ));
            }
        }
    }
}

/// Starting at `i`, walk an optional `&`/`mut` prefix then a `seg(::seg)*`
/// path; true when any segment is `HashMap`/`HashSet` *before* generics
/// open. `Vec<HashSet<…>>` stops at `Vec` and returns false.
fn type_path_hits_hash(code: &[Token], mut i: usize) -> bool {
    while i < code.len() && (is_punct(&code[i].tok, '&') || is_ident(&code[i].tok, "mut")) {
        i += 1;
    }
    loop {
        match code.get(i).map(|t| &t.tok) {
            Some(Tok::Ident(seg)) if seg == "HashMap" || seg == "HashSet" => return true,
            Some(Tok::Ident(_))
                if i + 2 < code.len()
                    && is_punct(&code[i + 1].tok, ':')
                    && is_punct(&code[i + 2].tok, ':') =>
            {
                i += 3;
            }
            _ => return false,
        }
    }
}

/// `no-wallclock-outside-obs`
///
/// `Instant::now` / `SystemTime` are allowed only in `crates/obs` and
/// `crates/core/src/efficiency.rs` — everywhere else wall-clock reads are
/// either dead weight or, worse, feed timing into logic and break
/// run-to-run comparability. Timing belongs to the observability layer.
fn wallclock(rel_path: &str, code: &[Token], out: &mut Vec<Violation>) {
    if rel_path.starts_with("crates/obs/") || rel_path == "crates/core/src/efficiency.rs" {
        return;
    }
    for i in 0..code.len() {
        if path_seq(code, i, &["Instant", "now"]) {
            out.push(violation(
                RULE_WALLCLOCK,
                rel_path,
                code[i].line,
                "`Instant::now()` outside crates/obs (timing belongs to the obs layer)".to_string(),
            ));
        }
        if is_ident(&code[i].tok, "SystemTime") {
            out.push(violation(
                RULE_WALLCLOCK,
                rel_path,
                code[i].line,
                "`SystemTime` outside crates/obs (timing belongs to the obs layer)".to_string(),
            ));
        }
    }
}

/// `no-raw-thread-spawn`
///
/// Only `pool.rs` may create OS threads (`thread::spawn` /
/// `thread::Builder`): every other parallel call site must go through the
/// deterministic pool so chunk arithmetic — and therefore results — never
/// depends on ad-hoc threading.
fn thread_spawn(rel_path: &str, code: &[Token], out: &mut Vec<Violation>) {
    if rel_path.ends_with("/pool.rs") {
        return;
    }
    for i in 0..code.len() {
        for target in ["spawn", "Builder"] {
            if path_seq(code, i, &["thread", target]) {
                out.push(violation(
                    RULE_THREAD_SPAWN,
                    rel_path,
                    code[i].line,
                    format!(
                        "`thread::{target}` outside pool.rs; use the deterministic \
                         ThreadPool so scheduling cannot reach results"
                    ),
                ));
            }
        }
    }
}

/// `safety-comment-required`
///
/// Every `unsafe` token must be preceded by a comment containing
/// `SAFETY:` — either in the contiguous comment block directly above, or
/// above the start of the line the `unsafe` sits on. The comment is the
/// proof obligation; code review enforces its quality, this rule enforces
/// its existence.
fn safety_comment(rel_path: &str, raw: &[Token], out: &mut Vec<Violation>) {
    for i in 0..raw.len() {
        if !is_ident(&raw[i].tok, "unsafe") {
            continue;
        }
        let line = raw[i].line;
        let mut documented = false;
        let mut j = i;
        while j > 0 {
            j -= 1;
            match &raw[j].tok {
                Tok::Comment(c) => {
                    if c.contains("SAFETY:") {
                        documented = true;
                        break;
                    }
                }
                // Code earlier on the same line is the statement prefix
                // (`let x = unsafe {…}`); keep walking up past it.
                _ if raw[j].line == line => continue,
                _ => break,
            }
        }
        if !documented {
            out.push(violation(
                RULE_SAFETY_COMMENT,
                rel_path,
                line,
                "`unsafe` without a `// SAFETY:` comment directly above".to_string(),
            ));
        }
    }
}

/// `env-read-registry`
///
/// Every `env::var` call site must pass a string literal naming a
/// `BENCHTEMP_*` variable listed in README.md's env registry table.
/// Undocumented environment inputs are invisible configuration — the exact
/// thing that makes two "identical" benchmark runs disagree.
fn env_registry(
    rel_path: &str,
    code: &[Token],
    registry: &BTreeSet<String>,
    out: &mut Vec<Violation>,
) {
    for i in 0..code.len() {
        if !path_seq(code, i, &["env", "var"]) {
            continue;
        }
        // tokens: env(i) :(i+1) :(i+2) var(i+3) ((i+4) "NAME"(i+5)
        let line = code[i].line;
        let arg = code.get(i + 5).map(|t| &t.tok);
        match (code.get(i + 4).map(|t| &t.tok), arg) {
            (Some(p), Some(Tok::Str(name))) if is_punct(p, '(') => {
                if !name.starts_with("BENCHTEMP_") {
                    out.push(violation(
                        RULE_ENV_REGISTRY,
                        rel_path,
                        line,
                        format!("`env::var(\"{name}\")` reads a non-BENCHTEMP_* variable"),
                    ));
                } else if !registry.contains(name.as_str()) {
                    out.push(violation(
                        RULE_ENV_REGISTRY,
                        rel_path,
                        line,
                        format!("`env::var(\"{name}\")` is not in README.md's env registry table"),
                    ));
                }
            }
            _ => out.push(violation(
                RULE_ENV_REGISTRY,
                rel_path,
                line,
                "`env::var` with a non-literal name cannot be checked against the registry"
                    .to_string(),
            )),
        }
    }
}

/// Extract `audit-allow` / `audit-allow-file` waivers from a file's
/// comments. Malformed waivers (unknown rule, missing reason) are reported
/// as `waiver-syntax` violations.
pub fn collect_waivers(
    rel_path: &str,
    raw: &[Token],
    waivers: &mut Vec<Waiver>,
    out: &mut Vec<Violation>,
) {
    for t in raw {
        let Tok::Comment(c) = &t.tok else { continue };
        // The file form is probed first; the line form's needle ends in an
        // open paren where the file form has `-file`, so a comment can only
        // ever match one of the two.
        const FILE_FORM: &str = concat!("audit-allow-file", "(");
        const LINE_FORM: &str = concat!("audit-allow", "(");
        let (at, file_scoped) = match c.find(FILE_FORM) {
            Some(at) => (at + FILE_FORM.len(), true),
            None => match c.find(LINE_FORM) {
                Some(at) => (at + LINE_FORM.len(), false),
                None => continue,
            },
        };
        let form = if file_scoped {
            "audit-allow-file"
        } else {
            "audit-allow"
        };
        let rest = &c[at..];
        let Some(close) = rest.find(')') else {
            out.push(violation(
                RULE_WAIVER_SYNTAX,
                rel_path,
                t.line,
                format!("unclosed `{form}(` waiver"),
            ));
            continue;
        };
        let rule = rest[..close].trim().to_string();
        if !ALL_RULES.contains(&rule.as_str())
            || rule == RULE_WAIVER_SYNTAX
            || rule == RULE_ROOT_UNMATCHED
        {
            out.push(violation(
                RULE_WAIVER_SYNTAX,
                rel_path,
                t.line,
                format!("`{form}({rule})` names no known rule"),
            ));
            continue;
        }
        let after = rest[close + 1..].trim_start();
        let reason = after.strip_prefix(':').map(str::trim).unwrap_or("");
        if reason.is_empty() {
            out.push(violation(
                RULE_WAIVER_SYNTAX,
                rel_path,
                t.line,
                format!("`{form}({rule})` has no reason; a waiver must say why"),
            ));
            continue;
        }
        waivers.push(Waiver {
            rule,
            file: rel_path.to_string(),
            line: t.line,
            reason: reason.to_string(),
            file_scoped,
            used: false,
        });
    }
}

/// Mark violations covered by a waiver of the same rule in the same file —
/// line waivers cover their own line and the line directly below; file
/// waivers cover the whole file. Line waivers are matched first so the
/// specific annotation absorbs the hit (and is marked used) before a
/// blanket file waiver would.
pub fn apply_waivers(violations: &mut [Violation], waivers: &mut [Waiver]) {
    for v in violations.iter_mut() {
        if v.rule == RULE_WAIVER_SYNTAX {
            continue;
        }
        let line_hit = waivers.iter_mut().find(|w| {
            !w.file_scoped
                && w.rule == v.rule
                && w.file == v.file
                && (v.line == w.line || v.line == w.line + 1)
        });
        let w = match line_hit {
            Some(w) => w,
            None => {
                let Some(w) = waivers
                    .iter_mut()
                    .find(|w| w.file_scoped && w.rule == v.rule && w.file == v.file)
                else {
                    continue;
                };
                w
            }
        };
        v.waived = true;
        v.waive_reason = Some(w.reason.clone());
        w.used = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(rel_path: &str, src: &str) -> Vec<Violation> {
        let raw = lex(src);
        let mut out = Vec::new();
        let registry: BTreeSet<String> = ["BENCHTEMP_THREADS".to_string()].into_iter().collect();
        check_file(rel_path, &raw, &registry, &mut out);
        out
    }

    #[test]
    fn hash_iteration_flagged_only_in_scoped_crates() {
        let src = "struct S { seen: HashMap<u32, f64> }\n\
                   fn f(s: &S) -> usize { s.seen.keys().count() }\n";
        let hits = run("crates/models/src/x.rs", src);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, RULE_HASH_ITER);
        assert_eq!(hits[0].line, 2);
        // Same source outside core/models/graph: clean.
        assert!(run("crates/bench/src/x.rs", src).is_empty());
    }

    #[test]
    fn hash_iteration_tracks_inferred_let_bindings_and_for_loops() {
        let src = "fn f() {\n\
                   let mut m = std::collections::HashMap::new();\n\
                   m.insert(1, 2);\n\
                   for (k, v) in &m { drop((k, v)); }\n\
                   }\n";
        let hits = run("crates/core/src/x.rs", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].line, 4);
    }

    #[test]
    fn wrapped_hash_collections_are_not_tracked() {
        let src = "fn f(per_user: Vec<HashSet<usize>>, b: BTreeMap<u32, u32>) {\n\
                   for s in &per_user { drop(s); }\n\
                   for x in &b { drop(x); }\n\
                   }\n";
        assert!(run("crates/graph/src/x.rs", src).is_empty());
    }

    #[test]
    fn membership_checks_on_hash_collections_are_fine() {
        let src = "fn f(seen: HashSet<u32>) -> bool { seen.contains(&3) && seen.len() > 1 }\n";
        assert!(run("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn wallclock_allowed_only_in_obs_and_efficiency() {
        let src = "fn f() { let t = Instant::now(); drop(t); }\n";
        assert_eq!(run("crates/core/src/pipeline.rs", src).len(), 1);
        assert!(run("crates/obs/src/lib.rs", src).is_empty());
        assert!(run("crates/core/src/efficiency.rs", src).is_empty());
        // Mentioning the type without reading the clock is fine.
        assert!(run("crates/core/src/x.rs", "use std::time::Instant;\n").is_empty());
    }

    #[test]
    fn thread_spawn_allowed_only_in_pool() {
        let src = "fn f() { std::thread::spawn(|| {}); }\n";
        assert_eq!(run("crates/obs/src/lib.rs", src).len(), 1);
        assert!(run("crates/tensor/src/pool.rs", src).is_empty());
        let builder = "fn f() { std::thread::Builder::new(); }\n";
        assert_eq!(run("crates/graph/src/x.rs", builder).len(), 1);
    }

    #[test]
    fn safety_comment_satisfied_by_block_above_or_statement_prefix() {
        let keyword = "uns\u{0061}fe"; // assembled so this file itself stays clean
        let undocumented = format!("fn f() {{ {keyword} {{ }} }}\n");
        let hits = run("crates/tensor/src/x.rs", &undocumented);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, RULE_SAFETY_COMMENT);

        let direct = format!("// SAFETY: fine\n{keyword} fn g() {{}}\n");
        assert!(run("crates/tensor/src/x.rs", &direct).is_empty());

        let multiline = format!(
            "// SAFETY: the barrier below blocks until\n// every job has completed.\n\
             let t: Box<u8> = {keyword} {{ std::mem::transmute(x) }};\n"
        );
        assert!(run("crates/tensor/src/x.rs", &multiline).is_empty());

        let stale = format!("// SAFETY: for the other one\nfn a() {{}}\n{keyword} fn b() {{}}\n");
        assert_eq!(run("crates/tensor/src/x.rs", &stale).len(), 1);
    }

    #[test]
    fn env_reads_must_be_registered_benchtemp_vars() {
        let ok = "fn f() { let _ = std::env::var(\"BENCHTEMP_THREADS\"); }\n";
        assert!(run("crates/tensor/src/pool.rs", ok).is_empty());

        let unregistered = "fn f() { let _ = std::env::var(\"BENCHTEMP_MYSTERY\"); }\n";
        let hits = run("crates/tensor/src/x.rs", unregistered);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("registry"));

        let foreign = "fn f() { let _ = std::env::var(\"HOME\"); }\n";
        assert_eq!(run("crates/core/src/x.rs", foreign).len(), 1);

        let dynamic = "fn f(n: &str) { let _ = std::env::var(n); }\n";
        let hits = run("crates/core/src/x.rs", dynamic);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("non-literal"));

        // Other env:: functions are not var reads.
        let tempdir = "fn f() { let _ = std::env::temp_dir(); }\n";
        assert!(run("crates/core/src/x.rs", tempdir).is_empty());
    }

    #[test]
    fn waivers_cover_own_line_and_next_and_require_reasons() {
        let src = "fn f() {\n\
                   // audit-allow(no-wallclock-outside-obs): timeout guard, not results\n\
                   let t = Instant::now();\n\
                   let u = Instant::now();\n\
                   drop((t, u));\n\
                   }\n";
        let raw = lex(src);
        let mut violations = Vec::new();
        let registry = BTreeSet::new();
        check_file("crates/core/src/x.rs", &raw, &registry, &mut violations);
        let mut waivers = Vec::new();
        collect_waivers("crates/core/src/x.rs", &raw, &mut waivers, &mut violations);
        apply_waivers(&mut violations, &mut waivers);
        assert_eq!(violations.len(), 2);
        // Line 3 (directly below the waiver) is covered; line 4 is not.
        assert!(violations.iter().any(|v| v.line == 3 && v.waived));
        assert!(violations.iter().any(|v| v.line == 4 && !v.waived));
        assert!(waivers[0].used);
    }

    #[test]
    fn file_waiver_covers_whole_file_and_line_waiver_wins() {
        let src = "// audit-allow-file(no-wallclock-outside-obs): harness timing helpers\n\
                   fn f() {\n\
                   let t = Instant::now();\n\
                   // audit-allow(no-wallclock-outside-obs): this one specifically\n\
                   let u = Instant::now();\n\
                   let v = Instant::now();\n\
                   drop((t, u, v));\n\
                   }\n";
        let raw = lex(src);
        let mut violations = Vec::new();
        let registry = BTreeSet::new();
        check_file("crates/core/src/x.rs", &raw, &registry, &mut violations);
        let mut waivers = Vec::new();
        collect_waivers("crates/core/src/x.rs", &raw, &mut waivers, &mut violations);
        apply_waivers(&mut violations, &mut waivers);
        assert_eq!(violations.len(), 3);
        assert!(violations.iter().all(|v| v.waived), "{violations:?}");
        // The specific line waiver absorbed line 5; the file waiver the rest.
        let line5 = violations.iter().find(|v| v.line == 5).unwrap();
        assert_eq!(line5.waive_reason.as_deref(), Some("this one specifically"));
        let line3 = violations.iter().find(|v| v.line == 3).unwrap();
        assert_eq!(
            line3.waive_reason.as_deref(),
            Some("harness timing helpers")
        );
        assert!(waivers.iter().all(|w| w.used));
    }

    #[test]
    fn unused_file_waivers_are_reported_like_line_waivers() {
        let src = "// audit-allow-file(no-raw-thread-spawn): nothing spawns here\n\
                   fn f() {}\n";
        let raw = lex(src);
        let mut violations = Vec::new();
        let mut waivers = Vec::new();
        collect_waivers("crates/core/src/x.rs", &raw, &mut waivers, &mut violations);
        apply_waivers(&mut violations, &mut waivers);
        assert_eq!(waivers.len(), 1);
        assert!(waivers[0].file_scoped);
        assert!(
            !waivers[0].used,
            "unused file waiver must surface as unused"
        );
    }

    #[test]
    fn malformed_waivers_are_violations() {
        let src = "// audit-allow(no-such-rule): whatever\n\
                   // audit-allow(no-wallclock-outside-obs):\n\
                   // audit-allow-file(no-such-rule): whatever\n\
                   // audit-allow-file(no-raw-thread-spawn):\n";
        let raw = lex(src);
        let mut violations = Vec::new();
        let mut waivers = Vec::new();
        collect_waivers("crates/core/src/x.rs", &raw, &mut waivers, &mut violations);
        assert!(waivers.is_empty());
        assert_eq!(violations.len(), 4);
        assert!(violations.iter().all(|v| v.rule == RULE_WAIVER_SYNTAX));
    }
}
