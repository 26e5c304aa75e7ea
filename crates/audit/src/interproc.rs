//! The three interprocedural rules over the workspace call graph.
//!
//! Where the token rules in [`crate::rules`] look at one file at a time,
//! these walk the [`crate::resolve::Workspace`] call graph, so a wallclock
//! read or an allocation hidden one (or five) calls away from a hot entry
//! point is found *by construction*. Every hit carries the full shortest
//! call path from the entry that reaches it, so the report shows not just
//! "what" but "how you get there". Waivers apply exactly as for the token
//! rules: a line or file `audit-allow` at the *sink* covers the hit.
//!
//! Because name resolution is heuristic and over-approximate (unknown
//! method receivers union every same-name workspace method), these rules
//! err toward flagging; the cost of a false positive is one reasoned
//! waiver, the cost of a false negative is a nondeterministic benchmark.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::lexer::Tok;
use crate::parser::{Callee, ParsedFile};
use crate::resolve::{fn_path, FnId, Resolution, Workspace};
use crate::rules::{
    Violation, RULE_ALLOC_REACH, RULE_CLAIMED_WRITE, RULE_DETERMINISM_TAINT, RULE_ROOT_UNMATCHED,
};

/// Hot entry points for the determinism-taint rule: `(impl type, fn name)`.
/// `None` matches any (or no) impl type. These are the functions whose
/// transitive callees decide benchmark results — training steps, frontier
/// sampling, tape op execution, and ranking scoring.
pub const HOT_ENTRIES: [(Option<&str>, &str); 7] = [
    (None, "train_batch"),
    (None, "sample_frontier"),
    (None, "score_candidates"),
    (Some("Tape"), "backward"),
    (Some("Tape"), "linear_affine"),
    (Some("Tape"), "time_encode_fused"),
    (Some("Tape"), "multi_head_grouped_attention"),
];

/// Functions the counting-allocator tests pin as zero-alloc after warm-up
/// (`crates/tensor/tests/alloc_free_forward.rs`,
/// `crates/graph/tests/alloc_free.rs`). The alloc-reachability rule walks
/// everything these can call.
pub const ZERO_ALLOC_PINNED: [(Option<&str>, &str); 8] = [
    (Some("Graph"), "new"),
    (Some("Graph"), "input_from"),
    // `Graph` derefs to `Tape`: the pinned `g.value(..)` is `Tape::value`.
    (Some("Tape"), "value"),
    (Some("Mlp"), "forward"),
    (Some("MultiHeadAttention"), "forward"),
    (None, "gather_rows_from"),
    (Some("NeighborBackend"), "sample_into"),
    (Some("NeighborBackend"), "sample_one"),
];

const HASH_ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Allocating method names from the issue's sink list.
const ALLOC_METHODS: [&str; 3] = ["to_vec", "collect", "clone"];

/// Run all three interprocedural rules, appending hits (with traces).
pub fn check(ws: &Workspace, out: &mut Vec<Violation>) {
    determinism_taint(ws, out);
    alloc_reachability(ws, out);
    claimed_writes(ws, out);
}

/// All workspace functions matching the `(impl type, name)` specs, in
/// id order. A spec that matches nothing is reported under
/// [`RULE_ROOT_UNMATCHED`] against `rule`: dropping it silently would
/// shrink the rule's reach with every rename.
fn match_roots(
    ws: &Workspace,
    rule: &str,
    specs: &[(Option<&str>, &str)],
    out: &mut Vec<Violation>,
) -> Vec<FnId> {
    let matches = |id: FnId, (ty, name): (Option<&str>, &str)| {
        let def = ws.fn_def(id);
        def.name == name && ty.is_none_or(|t| def.self_ty.as_deref() == Some(t))
    };
    for &spec in specs {
        if !(0..ws.fns.len()).any(|id| matches(id, spec)) {
            let (ty, name) = spec;
            let root = ty.map_or(name.to_string(), |t| format!("{t}::{name}"));
            out.push(Violation {
                rule: RULE_ROOT_UNMATCHED,
                file: "crates/audit/src/interproc.rs".to_string(),
                line: 0,
                message: format!(
                    "`{rule}` root `{root}` matches no workspace function; \
                     the rule would silently lose everything it reached from there"
                ),
                waived: false,
                waive_reason: None,
                trace: Vec::new(),
            });
        }
    }
    (0..ws.fns.len())
        .filter(|&id| specs.iter().any(|&spec| matches(id, spec)))
        .collect()
}

/// Multi-source BFS over workspace call edges. Returns `reached → parent`
/// (roots map to themselves), so every reachable function has a shortest
/// call path back to some root.
fn reach(ws: &Workspace, roots: &[FnId]) -> BTreeMap<FnId, FnId> {
    let mut parent: BTreeMap<FnId, FnId> = BTreeMap::new();
    let mut queue: VecDeque<FnId> = VecDeque::new();
    for &r in roots {
        if parent.insert(r, r).is_none() {
            queue.push_back(r);
        }
    }
    while let Some(id) = queue.pop_front() {
        for edge in &ws.edges[id] {
            if let Resolution::Workspace(targets) = &edge.resolution {
                for &t in targets {
                    if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(t) {
                        e.insert(id);
                        queue.push_back(t);
                    }
                }
            }
        }
    }
    parent
}

/// Shortest call path `entry → … → id` as display paths.
fn trace_to(ws: &Workspace, parent: &BTreeMap<FnId, FnId>, id: FnId) -> Vec<String> {
    let mut path = vec![id];
    let mut at = id;
    while let Some(&p) = parent.get(&at) {
        if p == at {
            break;
        }
        path.push(p);
        at = p;
    }
    path.reverse();
    path.into_iter().map(|f| fn_path(ws, f)).collect()
}

fn hit(
    rule: &'static str,
    file: &ParsedFile,
    line: u32,
    message: String,
    trace: Vec<String>,
    out: &mut Vec<Violation>,
) {
    out.push(Violation {
        rule,
        file: file.rel_path.clone(),
        line,
        message,
        waived: false,
        waive_reason: None,
        trace,
    });
}

/// `determinism-taint-hot-path`
///
/// Anything transitively reachable from a [`HOT_ENTRIES`] function must not
/// read wall clocks (`Instant::now` / `SystemTime::now` — sanctioned only
/// inside `crates/obs/`, the observability layer), read the environment
/// (`env::var`), iterate hash-ordered collections (receiver type resolved
/// through aliases and `use` renames), or spawn raw threads (sanctioned
/// only in `pool.rs`). The v1 token rules check some of these per file
/// with per-file sanctioning lists; this closes the cross-file holes.
fn determinism_taint(ws: &Workspace, out: &mut Vec<Violation>) {
    let roots = match_roots(ws, RULE_DETERMINISM_TAINT, &HOT_ENTRIES, out);
    let parent = reach(ws, &roots);
    for &id in parent.keys() {
        let file = ws.file_of(id);
        let def = ws.fn_def(id);
        let in_obs = file.rel_path.starts_with("crates/obs/");
        let in_pool = file.rel_path.ends_with("/pool.rs");
        for call in &def.calls {
            match &call.callee {
                Callee::Path(segs) => {
                    let last = segs.last().map(String::as_str).unwrap_or("");
                    let clock = segs.iter().any(|s| s == "Instant" || s == "SystemTime");
                    if last == "now" && clock && !in_obs {
                        hit(
                            RULE_DETERMINISM_TAINT,
                            file,
                            call.line,
                            format!(
                                "wallclock read `{}` is reachable from hot entry `{}` \
                                 ({} calls deep); timing belongs to crates/obs",
                                segs.join("::"),
                                trace_root(ws, &parent, id),
                                depth_of(&parent, id),
                            ),
                            trace_to(ws, &parent, id),
                            out,
                        );
                    }
                    if last == "var" && segs.iter().any(|s| s == "env") {
                        let what = call
                            .str_arg
                            .as_deref()
                            .map(|v| format!("env::var(\"{v}\")"))
                            .unwrap_or_else(|| "env::var".to_string());
                        hit(
                            RULE_DETERMINISM_TAINT,
                            file,
                            call.line,
                            format!(
                                "`{what}` is reachable from hot entry `{}`; environment \
                                 reads inside hot paths are invisible run-to-run inputs",
                                trace_root(ws, &parent, id),
                            ),
                            trace_to(ws, &parent, id),
                            out,
                        );
                    }
                    if (last == "spawn" || last == "Builder")
                        && segs.iter().any(|s| s == "thread")
                        && !in_pool
                    {
                        hit(
                            RULE_DETERMINISM_TAINT,
                            file,
                            call.line,
                            format!(
                                "raw `thread::{last}` is reachable from hot entry `{}`; \
                                 all hot-path parallelism must go through the \
                                 deterministic pool",
                                trace_root(ws, &parent, id),
                            ),
                            trace_to(ws, &parent, id),
                            out,
                        );
                    }
                }
                Callee::Method { recv, name } if HASH_ITER_METHODS.contains(&name.as_str()) => {
                    let ty = ws.receiver_type(file, def, recv);
                    if matches!(ty.as_deref(), Some("HashMap") | Some("HashSet")) {
                        hit(
                            RULE_DETERMINISM_TAINT,
                            file,
                            call.line,
                            format!(
                                "`.{name}()` iterates a {} (RandomState order) and is \
                                 reachable from hot entry `{}`; the receiver type was \
                                 resolved through aliases the per-file rule cannot see",
                                ty.as_deref().unwrap_or("hash collection"),
                                trace_root(ws, &parent, id),
                            ),
                            trace_to(ws, &parent, id),
                            out,
                        );
                    }
                }
                _ => {}
            }
        }
    }
}

fn trace_root(ws: &Workspace, parent: &BTreeMap<FnId, FnId>, id: FnId) -> String {
    let mut at = id;
    while let Some(&p) = parent.get(&at) {
        if p == at {
            break;
        }
        at = p;
    }
    fn_path(ws, at)
}

fn depth_of(parent: &BTreeMap<FnId, FnId>, id: FnId) -> usize {
    let mut at = id;
    let mut d = 0;
    while let Some(&p) = parent.get(&at) {
        if p == at {
            break;
        }
        d += 1;
        at = p;
    }
    d
}

/// `hot-path-alloc-reachability`
///
/// From the functions the counting-allocator tests pin as zero-alloc
/// ([`ZERO_ALLOC_PINNED`]), every reachable allocating call is flagged:
/// `Vec::new` / `Box::new` path calls, `.to_vec()` / `.collect()` /
/// `.clone()` methods, and `format!` / `vec!` macros. The runtime tests
/// spot-check one warm input shape; this covers every call path, so
/// cold-start or grow-on-miss allocations carry explicit waivers saying
/// when they fire.
fn alloc_reachability(ws: &Workspace, out: &mut Vec<Violation>) {
    let roots = match_roots(ws, RULE_ALLOC_REACH, &ZERO_ALLOC_PINNED, out);
    let parent = reach(ws, &roots);
    for &id in parent.keys() {
        let file = ws.file_of(id);
        let def = ws.fn_def(id);
        for call in &def.calls {
            let sink: Option<String> = match &call.callee {
                Callee::Path(segs) if segs.len() >= 2 => {
                    let last = segs.last().map(String::as_str).unwrap_or("");
                    let penult = &segs[segs.len() - 2];
                    ((penult == "Vec" || penult == "Box")
                        && (last == "new" || last == "with_capacity" || last == "from"))
                        .then(|| format!("{penult}::{last}"))
                }
                Callee::Method { name, .. } if ALLOC_METHODS.contains(&name.as_str()) => {
                    Some(format!(".{name}()"))
                }
                Callee::Mac(m) if m == "format" || m == "vec" => Some(format!("{m}!")),
                _ => None,
            };
            if let Some(sink) = sink {
                hit(
                    RULE_ALLOC_REACH,
                    file,
                    call.line,
                    format!(
                        "allocating call `{sink}` is reachable from zero-alloc-pinned \
                         `{}` ({} calls deep); either it must be a cold/grow path \
                         (waive with when it fires) or the pin is broken",
                        trace_root(ws, &parent, id),
                        depth_of(&parent, id),
                    ),
                    trace_to(ws, &parent, id),
                    out,
                );
            }
        }
    }
}

/// `claimed-write-audit`
///
/// In every function that calls `scope_run_claimed`, mutable writes inside
/// closures must target bindings introduced *inside* a closure (task-local
/// views carved out of the claim partition — `map` params, closure `let`s,
/// `for` patterns). A write whose base binding is captured from the
/// enclosing function body bypasses the claim partition entirely: every
/// task would hit the same buffer, which is exactly the overlap the
/// sanitizer's claims are meant to rule out. `self` writes inside task
/// closures are flagged for the same reason.
fn claimed_writes(ws: &Workspace, out: &mut Vec<Violation>) {
    for (fi, file) in ws.files.iter().enumerate() {
        for (ni, def) in file.fns.iter().enumerate() {
            let calls_claimed = def.calls.iter().any(|c| match &c.callee {
                Callee::Path(p) => p.last().is_some_and(|s| s == "scope_run_claimed"),
                Callee::Method { name, .. } => name == "scope_run_claimed",
                Callee::Mac(_) => false,
            });
            if !calls_claimed {
                continue;
            }
            let Some(body) = def.body else { continue };
            let _ = (fi, ni);
            scan_closure_writes(file, body, out);
        }
    }
}

/// Linear scan of one fn body: track closure extents and the bindings each
/// introduces, then validate every assignment found inside a closure.
fn scan_closure_writes(file: &ParsedFile, (start, end): (usize, usize), out: &mut Vec<Violation>) {
    let code = &file.code;
    let punct =
        |i: usize, c: char| matches!(code.get(i).map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c);
    let ident = |i: usize| match code.get(i).map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    };

    // Active closure scopes: (extent end, bindings).
    let mut scopes: Vec<(usize, BTreeSet<String>)> = Vec::new();

    let mut i = start;
    while i < end {
        scopes.retain(|(stop, _)| i < *stop);

        // Closure start: `|` in expression position (or after `move`).
        let is_closure_bar = punct(i, '|')
            && (ident(i.wrapping_sub(1)) == Some("move")
                || i == start
                || matches!(
                    code.get(i - 1).map(|t| &t.tok),
                    Some(Tok::Punct('('))
                        | Some(Tok::Punct(','))
                        | Some(Tok::Punct('='))
                        | Some(Tok::Punct('{'))
                        | Some(Tok::Punct(';'))
                        | Some(Tok::Punct(':'))
                ));
        if is_closure_bar {
            let mut bindings = BTreeSet::new();
            // Params: idents up to the closing `|`, skipping ascribed types
            // (after `:` until `,` at paren depth 0) and `mut`/`_`.
            let mut j = i + 1;
            let mut paren = 0usize;
            let mut in_type = false;
            while j < end && !(paren == 0 && punct(j, '|')) {
                match code.get(j).map(|t| &t.tok) {
                    Some(Tok::Punct('(')) | Some(Tok::Punct('[')) | Some(Tok::Punct('<')) => {
                        paren += 1
                    }
                    Some(Tok::Punct(')')) | Some(Tok::Punct(']')) | Some(Tok::Punct('>')) => {
                        paren = paren.saturating_sub(1)
                    }
                    Some(Tok::Punct(':')) => in_type = true,
                    Some(Tok::Punct(',')) if paren == 0 => in_type = false,
                    Some(Tok::Ident(p)) if !in_type && p != "mut" && p != "_" => {
                        bindings.insert(p.clone());
                    }
                    _ => {}
                }
                j += 1;
            }
            // Body extent: a braced block, or up to the next `,`/`)`/`;` at
            // this nesting level for expression-bodied closures.
            let mut k = j + 1;
            let stop = if punct(k, '{') {
                let mut depth = 0usize;
                while k < end {
                    if punct(k, '{') {
                        depth += 1;
                    } else if punct(k, '}') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    k += 1;
                }
                k + 1
            } else {
                let mut depth = 0isize;
                while k < end {
                    match code.get(k).map(|t| &t.tok) {
                        Some(Tok::Punct('(')) | Some(Tok::Punct('[')) | Some(Tok::Punct('{')) => {
                            depth += 1
                        }
                        Some(Tok::Punct(')')) | Some(Tok::Punct(']')) | Some(Tok::Punct('}'))
                            if depth == 0 =>
                        {
                            break
                        }
                        Some(Tok::Punct(')')) | Some(Tok::Punct(']')) | Some(Tok::Punct('}')) => {
                            depth -= 1
                        }
                        Some(Tok::Punct(',')) | Some(Tok::Punct(';')) if depth == 0 => break,
                        _ => {}
                    }
                    k += 1;
                }
                k
            };
            scopes.push((stop, bindings));
            i = j + 1;
            continue;
        }

        // Bindings introduced inside a closure body join its scope.
        if !scopes.is_empty() {
            if ident(i) == Some("let") {
                // Pattern idents bind; a `:` switches to type position
                // (idents there are type names, not bindings). Consume
                // through the statement's own `=` so it is not mistaken
                // for an assignment below.
                let mut j = i + 1;
                let mut in_type = false;
                while j < end && !punct(j, '=') && !punct(j, ';') {
                    if punct(j, ':') {
                        in_type = true;
                    }
                    if !in_type {
                        if let Some(b) = ident(j) {
                            if b != "mut" && b != "_" {
                                scopes.last_mut().unwrap().1.insert(b.to_string());
                            }
                        }
                    }
                    j += 1;
                }
                i = j + 1;
                continue;
            }
            if ident(i) == Some("for") {
                // `for <pattern> in …` — pattern idents bind per iteration.
                let mut j = i + 1;
                while j < end && ident(j) != Some("in") {
                    if let Some(b) = ident(j) {
                        if b != "mut" && b != "_" {
                            scopes.last_mut().unwrap().1.insert(b.to_string());
                        }
                    }
                    j += 1;
                }
                i = j;
                continue;
            }
        }

        // Assignment inside a closure: `=` that is not `==`/`=>`/`<=`/`>=`/
        // `!=` and not the `=` of a `let`. Compound ops (`+=` …) count.
        if !scopes.is_empty() && punct(i, '=') {
            let next_breaks = punct(i + 1, '=') || punct(i + 1, '>');
            let prev_cmp =
                punct(i - 1, '=') || punct(i - 1, '!') || punct(i - 1, '<') || punct(i - 1, '>');
            if !next_breaks && !prev_cmp {
                // LHS end: step over a compound-op char.
                let mut l = i - 1;
                if matches!(
                    code.get(l).map(|t| &t.tok),
                    Some(Tok::Punct('+'))
                        | Some(Tok::Punct('-'))
                        | Some(Tok::Punct('*'))
                        | Some(Tok::Punct('/'))
                        | Some(Tok::Punct('%'))
                        | Some(Tok::Punct('&'))
                        | Some(Tok::Punct('|'))
                        | Some(Tok::Punct('^'))
                ) {
                    // `a *= b` — but a bare `let x = …` never lands here
                    // (handled above), so this is a compound write.
                    l -= 1;
                }
                if let Some(base) = lhs_base_ident(code, l, start) {
                    let closure_local = scopes.iter().any(|(_, b)| b.contains(&base));
                    if !closure_local {
                        out.push(Violation {
                            rule: RULE_CLAIMED_WRITE,
                            file: file.rel_path.clone(),
                            line: code[i].line,
                            message: format!(
                                "write to `{base}` inside a closure of a \
                                 `scope_run_claimed` caller, but `{base}` is captured \
                                 from the enclosing function — task writes must go \
                                 through per-task bindings carved from the claim \
                                 partition"
                            ),
                            waived: false,
                            waive_reason: None,
                            trace: Vec::new(),
                        });
                    }
                }
            }
        }
        i += 1;
    }
}

/// Walk an assignment LHS backwards from its last token to the base
/// identifier: `*name`, `name[i]`, `name.field`, `self.x[j]` → `name`/`self`.
/// `None` when the LHS is not a plain place expression.
fn lhs_base_ident(code: &[crate::lexer::Token], mut at: usize, floor: usize) -> Option<String> {
    loop {
        match code.get(at).map(|t| &t.tok) {
            Some(Tok::Punct(']')) | Some(Tok::Punct(')')) => {
                // Skip the balanced group backwards.
                let (open, close) = if matches!(code[at].tok, Tok::Punct(']')) {
                    ('[', ']')
                } else {
                    ('(', ')')
                };
                let mut depth = 0usize;
                while at > floor {
                    match &code[at].tok {
                        Tok::Punct(p) if *p == close => depth += 1,
                        Tok::Punct(p) if *p == open => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    at -= 1;
                }
                if at <= floor {
                    return None;
                }
                at -= 1;
            }
            Some(Tok::Ident(name)) => {
                // `x.name` keeps walking; a bare ident is the base.
                if at > floor && matches!(code[at - 1].tok, Tok::Punct('.')) {
                    if at - 1 == floor {
                        return None;
                    }
                    at -= 2;
                } else {
                    return Some(name.clone());
                }
            }
            _ => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_file;
    use crate::resolve::Workspace;

    fn workspace(files: &[(&str, &str)]) -> Workspace {
        Workspace::build(files.iter().map(|(p, s)| parse_file(p, &lex(s))).collect())
    }

    /// Rule hits on a miniature tree. Most production root specs match
    /// nothing there; their reports are covered by
    /// `unmatched_root_is_reported`.
    fn audit(files: &[(&str, &str)]) -> Vec<Violation> {
        let mut out = Vec::new();
        check(&workspace(files), &mut out);
        out.retain(|v| v.rule != RULE_ROOT_UNMATCHED);
        out
    }

    #[test]
    fn unmatched_root_is_reported() {
        let ws = workspace(&[(
            "crates/graph/src/nf.rs",
            "pub struct NeighborBackend;\n\
             impl NeighborBackend {\n\
             pub fn sample_into(&self) {}\n\
             }\n",
        )]);
        let mut out = Vec::new();
        let specs = [
            (Some("NeighborBackend"), "sample_into"),
            (Some("NeighborFinder"), "sample_into"),
            (None, "no_such_entry"),
        ];
        let roots = match_roots(&ws, RULE_ALLOC_REACH, &specs, &mut out);
        assert_eq!(roots.len(), 1, "only the real impl matches");
        let msgs: Vec<&str> = out.iter().map(|v| v.message.as_str()).collect();
        assert_eq!(out.len(), 2, "{msgs:?}");
        assert!(out
            .iter()
            .all(|v| v.rule == RULE_ROOT_UNMATCHED && !v.waived));
        assert!(
            msgs[0].contains("`NeighborFinder::sample_into`"),
            "{msgs:?}"
        );
        assert!(msgs[1].contains("`no_such_entry`"), "{msgs:?}");
        assert!(msgs[0].contains(RULE_ALLOC_REACH), "{msgs:?}");
    }

    #[test]
    fn indirect_wallclock_is_tainted_with_full_trace() {
        let hits = audit(&[
            (
                "crates/models/src/train.rs",
                "use benchtemp_core::clockish::stamp;\n\
                 pub fn train_batch() { step(); }\n\
                 fn step() { stamp(); }\n",
            ),
            (
                "crates/core/src/clockish.rs",
                "pub fn stamp() -> u64 { let t = Instant::now(); 0 }\n",
            ),
        ]);
        let wall: Vec<_> = hits
            .iter()
            .filter(|v| v.rule == RULE_DETERMINISM_TAINT)
            .collect();
        assert_eq!(wall.len(), 1, "{hits:?}");
        assert_eq!(wall[0].file, "crates/core/src/clockish.rs");
        assert_eq!(
            wall[0].trace,
            [
                "benchtemp_models::train::train_batch",
                "benchtemp_models::train::step",
                "benchtemp_core::clockish::stamp",
            ]
        );
    }

    #[test]
    fn wallclock_inside_obs_is_sanctioned() {
        let hits = audit(&[
            (
                "crates/models/src/train.rs",
                "pub fn train_batch() { benchtemp_obs::tick(); }\n",
            ),
            (
                "crates/obs/src/lib.rs",
                "pub fn tick() -> u64 { let t = Instant::now(); 0 }\n",
            ),
        ]);
        assert!(
            hits.iter().all(|v| v.rule != RULE_DETERMINISM_TAINT),
            "{hits:?}"
        );
    }

    #[test]
    fn aliased_hashmap_iteration_is_caught_via_resolved_type() {
        let hits = audit(&[
            (
                "crates/models/src/cache.rs",
                "pub type ScoreCache = HashMap<u64, f32>;\n",
            ),
            (
                "crates/models/src/rank.rs",
                "use crate::cache::ScoreCache;\n\
                 pub fn score_candidates(c: &ScoreCache) -> f32 {\n\
                 let mut s = 0.0;\n\
                 for v in c.values() { s += v; }\n\
                 s\n\
                 }\n",
            ),
        ]);
        let iter_hits: Vec<_> = hits
            .iter()
            .filter(|v| v.rule == RULE_DETERMINISM_TAINT)
            .collect();
        assert_eq!(iter_hits.len(), 1, "{hits:?}");
        assert!(iter_hits[0].message.contains("HashMap"));
    }

    #[test]
    fn unreachable_sinks_are_not_flagged() {
        // Wallclock in a function no hot entry reaches: the per-file v1
        // rule's business, not taint's.
        let hits = audit(&[(
            "crates/core/src/cold.rs",
            "pub fn cold_report() { let t = Instant::now(); }\n",
        )]);
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn alloc_reachability_flags_indirect_to_vec() {
        let hits = audit(&[
            (
                "crates/graph/src/nf.rs",
                "pub struct NeighborBackend;\n\
                 impl NeighborBackend {\n\
                 pub fn sample_into(&self) { helper_pick(); }\n\
                 }\n",
            ),
            (
                "crates/graph/src/util.rs",
                "pub fn helper_pick() -> Vec<u32> { let xs = [1u32]; xs.to_vec() }\n",
            ),
        ]);
        let allocs: Vec<_> = hits.iter().filter(|v| v.rule == RULE_ALLOC_REACH).collect();
        assert_eq!(allocs.len(), 1, "{hits:?}");
        assert_eq!(allocs[0].file, "crates/graph/src/util.rs");
        assert_eq!(allocs[0].trace.len(), 2);
    }

    #[test]
    fn claimed_write_to_captured_buffer_is_flagged() {
        let hits = audit(&[(
            "crates/tensor/src/bad.rs",
            "pub fn broken_scatter(p: &ThreadPool, out: &mut [f32]) {\n\
             let claims = make_claims(out.len());\n\
             let mut tasks: Vec<TaskBox> = Vec::new();\n\
             tasks.push(Box::new(move || { out[0] = 1.0; }));\n\
             p.scope_run_claimed(\"broken\", &claims, tasks);\n\
             }\n",
        )]);
        let writes: Vec<_> = hits
            .iter()
            .filter(|v| v.rule == RULE_CLAIMED_WRITE)
            .collect();
        assert_eq!(writes.len(), 1, "{hits:?}");
        assert!(writes[0].message.contains("`out`"));
    }

    #[test]
    fn claimed_write_through_per_task_bindings_is_clean() {
        // The par_map shape: the written slot is bound by the map closure's
        // pattern (and an inner `for` pattern) — task-local by construction.
        let hits = audit(&[(
            "crates/tensor/src/good.rs",
            "pub fn fan_out(p: &ThreadPool, items: &[f32], out: &mut [Slot]) {\n\
             let claims = make_claims(items.len());\n\
             let tasks: Vec<TaskBox> = items\n\
             .chunks(4)\n\
             .zip(out.chunks_mut(4))\n\
             .map(|(src, dst)| {\n\
             let t: TaskBox = Box::new(move || {\n\
             for (s, d) in src.iter().zip(dst.iter_mut()) { *d = wrap(s); }\n\
             });\n\
             t\n\
             })\n\
             .collect();\n\
             p.scope_run_claimed(\"fan_out\", &claims, tasks);\n\
             }\n",
        )]);
        assert!(
            hits.iter().all(|v| v.rule != RULE_CLAIMED_WRITE),
            "{hits:?}"
        );
    }
}
