//! Workspace analysis passes: cross-file checks over the call graph.
//!
//! Unlike [`crate::rules`] (pure per-file token scans), a pass sees the
//! whole [`Workspace`] — symbol table, call graph, struct/enum tables —
//! and emits findings whose `trail` carries the multi-location evidence
//! (a call path from a hot-path root, a source→sink taint flow, the
//! enum definition a match fails to cover).
//!
//! Over-approximation contract (inherited from [`crate::workspace`]):
//! every real call edge is in the graph, so these passes can miss
//! nothing reachable — they can only over-report when names collide,
//! and over-reports are waived with the same justified-allow machinery
//! as per-file rules.

use crate::diag::{Finding, Severity, TrailStep, Waiver};
use crate::items::{FnItem, PanicKind};
use crate::lexer::{Token, TokenKind};
use crate::workspace::Workspace;

/// The functions the simulator cannot afford to have panic or drift:
/// the cycle-level hot loop and its quiesce jump (`Machine::step`, which
/// reaches `next_wake` and every wake source), the runner's one run
/// path (`run_spec`) and the scenario runner, the service dispatch
/// entry points, and every
/// `FairnessPolicy` tick. Panic reachability is computed from these.
/// `lookup` resolves each name; the pass reports a configuration error
/// if one stops resolving (so a rename cannot silently empty the
/// analysis — see the self-check).
pub const HOT_PATH_ROOTS: &[&str] = &[
    "Machine::step",
    "run_spec",
    "serve",
    "run_scenario",
    "FairnessPolicy::recalc",
    "FairnessPolicy::on_switch_in",
    "FairnessPolicy::on_switch_out",
    "FairnessPolicy::after_retire",
    "FairnessPolicy::each_cycle",
    "IslipPolicy::pick_next",
    "IslipPolicy::each_cycle",
    "UsageFairPolicy::pick_next",
    "UsageFairPolicy::each_cycle",
    "WdrrPolicy::after_retire",
    "WdrrPolicy::each_cycle",
];

/// Functions that serialize state into artifacts whose bytes the
/// reproduction contract covers: the supervision journal, trace
/// exporters, the metrics registry, SLO reports and swept ResultSets.
/// Determinism taint is reported when a nondeterminism source can flow
/// into one of these.
pub const SERIALIZATION_SINKS: &[&str] = &[
    "Journal::append",
    "trace_jsonl",
    "chrome_trace",
    "trace_series",
    "MetricsRegistry::to_csv",
    "SloReport::build",
    "full_results",
];

/// Functions that decide *when simulated events happen*: the machine's
/// next-wake choice. A nondeterministic value reaching it perturbs the
/// jump target — and through it every downstream artifact — even if no
/// serializer ever sees the value directly, so it is a determinism-taint
/// sink of its own kind.
pub const ORDERING_SINKS: &[&str] = &["Machine::next_wake"];

/// Enums whose variants are a serialization schema: every exporter or
/// validator `match` that dispatches on them must handle all variants,
/// so adding a variant breaks the build loudly instead of silently
/// skipping an oracle.
pub const SCHEMA_ENUMS: &[&str] = &["EventKind", "Response"];

/// Path prefixes where `unordered-iteration` escalates from warning to
/// error (mirrors the scope of the per-file determinism rules).
const SIM_CORE: &[&str] = &["crates/sim/src/", "crates/core/src/"];

/// Descriptor + implementation of one workspace pass.
pub struct Pass {
    /// Stable id, used in suppressions and the baseline.
    pub id: &'static str,
    /// Pass category (`determinism`, `panic-safety`, `schema`, `dead-code`).
    pub category: &'static str,
    /// Nominal severity (individual findings may downgrade).
    pub severity: Severity,
    /// One-line description (for `--list-rules` and LINTS.md parity).
    pub description: &'static str,
    check: fn(&Workspace, &Pass) -> Vec<Finding>,
}

impl Pass {
    /// Runs the pass over the workspace.
    pub fn check(&self, ws: &Workspace) -> Vec<Finding> {
        (self.check)(ws, self)
    }

    fn finding(
        &self,
        file: &str,
        line: u32,
        message: String,
        hint: &'static str,
        trail: Vec<TrailStep>,
    ) -> Finding {
        Finding {
            rule: self.id,
            severity: self.severity,
            file: file.to_string(),
            line,
            message,
            hint,
            waiver: Waiver::None,
            trail,
        }
    }
}

/// The full pass set, in stable order.
pub fn all_passes() -> Vec<Pass> {
    vec![
        Pass {
            id: "panic-reachability",
            category: "panic-safety",
            severity: Severity::Error,
            description: "no panic site (unwrap/expect/panic-family macro/bracket index) \
                          in ANY workspace crate may be reachable from the simulator \
                          hot path; the diagnostic carries the call path",
            check: check_panic_reachability,
        },
        Pass {
            id: "determinism-taint",
            category: "determinism",
            severity: Severity::Error,
            description: "no nondeterminism source (wall clock, env, hash iteration, \
                          thread ids) may flow through the call graph into journal/\
                          trace/metrics/SLO/ResultSet serialization or into the \
                          machine's next-wake choice (which sets simulated event order)",
            check: check_determinism_taint,
        },
        Pass {
            id: "trace-schema-coverage",
            category: "schema",
            severity: Severity::Error,
            description: "every match dispatching on a trace/protocol enum (EventKind, \
                          Response) must handle all variants explicitly, so a new \
                          variant cannot silently skip an exporter or oracle",
            check: check_trace_schema_coverage,
        },
        Pass {
            id: "dead-pub",
            category: "dead-code",
            severity: Severity::Error,
            description: "every `pub` fn must be reachable from a shipped entry point \
                          (a non-test `fn main`, an example, or a trait-impl method); \
                          rustc's dead_code lint cannot see unused `pub` items",
            check: check_dead_pub,
        },
        Pass {
            id: "unordered-iteration",
            category: "determinism",
            severity: Severity::Warning,
            description: "iteration over a binding resolved to HashMap/HashSet via the \
                          symbol table (param/let/field types); error in simulator and \
                          policy code, warning elsewhere",
            check: check_unordered_iteration,
        },
    ]
}

/// Returns the pass with id `id`, if any (CLI validation).
pub fn pass_exists(id: &str) -> bool {
    all_passes().iter().any(|p| p.id == id)
}

// ---------------------------------------------------------------------------
// panic-reachability
// ---------------------------------------------------------------------------

/// Multi-root BFS over `callees`; `pred[v] = (caller, call line)` for
/// every reached fn, `None` for roots.
struct Reach {
    visited: Vec<bool>,
    pred: Vec<Option<(usize, u32)>>,
    /// BFS visit order (deterministic: roots in declaration order,
    /// edges in source order).
    order: Vec<usize>,
}

fn reach_from(ws: &Workspace, roots: &[usize]) -> Reach {
    let n = ws.fns.len();
    let mut r = Reach {
        visited: vec![false; n],
        pred: vec![None; n],
        order: Vec::new(),
    };
    let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    for &root in roots {
        if !r.visited[root] {
            r.visited[root] = true;
            r.order.push(root);
            queue.push_back(root);
        }
    }
    while let Some(u) = queue.pop_front() {
        for e in &ws.callees[u] {
            if !r.visited[e.to] {
                r.visited[e.to] = true;
                r.pred[e.to] = Some((u, e.line));
                r.order.push(e.to);
                queue.push_back(e.to);
            }
        }
    }
    r
}

/// The call path root → … → `idx` as trail steps (root definition
/// first, then one step per call edge).
fn call_trail(ws: &Workspace, reach: &Reach, idx: usize) -> Vec<TrailStep> {
    let mut chain = Vec::new();
    let mut cur = idx;
    while let Some((caller, line)) = reach.pred[cur] {
        chain.push((caller, line, cur));
        cur = caller;
    }
    chain.reverse();
    let root = &ws.fns[cur];
    let mut steps = vec![TrailStep {
        file: ws.path_of(cur).to_string(),
        line: root.item.line,
        note: format!("hot-path root `{}` defined here", root.item.qualified()),
    }];
    for (caller, line, callee) in chain {
        steps.push(TrailStep {
            file: ws.path_of(caller).to_string(),
            line,
            note: format!(
                "`{}` calls `{}`",
                ws.fns[caller].item.qualified(),
                ws.fns[callee].item.qualified()
            ),
        });
    }
    steps
}

fn check_panic_reachability(ws: &Workspace, pass: &Pass) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut roots = Vec::new();
    for name in HOT_PATH_ROOTS {
        let hits = ws.lookup(name);
        if hits.is_empty() {
            out.push(pass.finding(
                "crates/lint/src/passes.rs",
                1,
                format!(
                    "hot-path root `{name}` does not resolve to any workspace symbol \
                     (renamed or removed?) — the reachability analysis is incomplete"
                ),
                "update HOT_PATH_ROOTS in crates/lint/src/passes.rs to the new name",
                Vec::new(),
            ));
        }
        roots.extend(hits);
    }
    let reach = reach_from(ws, &roots);
    for &idx in &reach.order {
        let node = &ws.fns[idx];
        for p in &node.item.panics {
            let what = match p.kind {
                PanicKind::Unwrap => format!("`{}`", p.what),
                PanicKind::Macro => format!("`{}`", p.what),
                PanicKind::Index => format!("indexing `{}`", p.what),
            };
            out.push(pass.finding(
                ws.path_of(idx),
                p.line,
                format!(
                    "{what} in `{}` is reachable from the simulator hot path",
                    node.item.qualified()
                ),
                "return a typed error along this path, or allow at the panic site \
                 with the invariant that makes it unreachable",
                call_trail(ws, &reach, idx),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// determinism-taint
// ---------------------------------------------------------------------------

/// Nondeterminism sources in one fn: direct wall-clock/env/thread reads
/// plus hash-container iterations resolved through the symbol table.
fn taint_sources(ws: &Workspace, idx: usize) -> Vec<(String, u32)> {
    let node = &ws.fns[idx];
    let mut out: Vec<(String, u32)> = node
        .item
        .taints
        .iter()
        .map(|t| (format!("`{}`", t.what), t.line))
        .collect();
    for site in &node.item.iters {
        if let Some(u) = resolve_unordered(ws, idx, site) {
            out.push((
                format!("{} iteration over `{}`", u.container, site.name),
                site.line,
            ));
        }
    }
    out.sort_by_key(|(_, line)| *line);
    out
}

fn check_determinism_taint(ws: &Workspace, pass: &Pass) -> Vec<Finding> {
    let mut out = Vec::new();
    // Resolve sinks; an unresolvable sink is a configuration error for
    // the same reason an unresolvable root is. Each resolved index
    // remembers which list it came from so the finding can say whether
    // the taint reaches serialized bytes or event ordering.
    let mut sink_idx: Vec<(usize, &'static str)> = Vec::new();
    for (list, label, fix_hint) in [
        (
            SERIALIZATION_SINKS,
            "serialization",
            "update SERIALIZATION_SINKS in crates/lint/src/passes.rs",
        ),
        (
            ORDERING_SINKS,
            "event-ordering",
            "update ORDERING_SINKS in crates/lint/src/passes.rs",
        ),
    ] {
        for name in list {
            let hits = ws.lookup(name);
            if hits.is_empty() {
                out.push(pass.finding(
                    "crates/lint/src/passes.rs",
                    1,
                    format!(
                        "{label} sink `{name}` does not resolve to any workspace \
                         symbol (renamed or removed?) — the taint analysis is incomplete"
                    ),
                    fix_hint,
                    Vec::new(),
                ));
            }
            sink_idx.extend(hits.into_iter().map(|i| (i, label)));
        }
    }
    let is_sink = |i: usize| sink_idx.iter().find(|(s, _)| *s == i).map(|&(_, l)| l);

    for src_fn in 0..ws.fns.len() {
        let sources = taint_sources(ws, src_fn);
        if sources.is_empty() {
            continue;
        }
        // BFS *up* the callers from the source fn: every visited fn's
        // execution can observe the source's value. pred[c] = (callee,
        // line at which c calls it) — the witness back down to the
        // source.
        let n = ws.fns.len();
        let mut visited = vec![false; n];
        let mut pred: Vec<Option<(usize, u32)>> = vec![None; n];
        let mut queue = std::collections::VecDeque::new();
        visited[src_fn] = true;
        queue.push_back(src_fn);
        // The flow that fires: (entry fn holding tainted data, the sink
        // it feeds, the sink's kind label, Some(call line) when the
        // entry passes into the sink rather than being the sink).
        let mut flow: Option<(usize, usize, &'static str, Option<u32>)> = None;
        'bfs: while let Some(f) = queue.pop_front() {
            // The source fn itself being a sink (a wall-clock read in a
            // serializer's own body) is the tightest possible flow.
            if let Some(label) = is_sink(f) {
                flow = Some((f, f, label, None));
                break 'bfs;
            }
            // A tainted fn handing data into a sink it calls.
            for e in &ws.callees[f] {
                if let Some(label) = is_sink(e.to) {
                    flow = Some((f, e.to, label, Some(e.line)));
                    break 'bfs;
                }
            }
            for e in &ws.callers[f] {
                if !visited[e.to] {
                    visited[e.to] = true;
                    pred[e.to] = Some((f, e.line));
                    queue.push_back(e.to);
                }
            }
        }
        let Some((entry, sink, sink_label, via)) = flow else {
            continue;
        };
        // Trail: sink end first, then the call chain down to the source.
        let mut trail = Vec::new();
        if let Some(line) = via {
            trail.push(TrailStep {
                file: ws.path_of(entry).to_string(),
                line,
                note: format!(
                    "`{}` passes data into {sink_label} sink `{}`",
                    ws.fns[entry].item.qualified(),
                    ws.fns[sink].item.qualified()
                ),
            });
        } else {
            trail.push(TrailStep {
                file: ws.path_of(sink).to_string(),
                line: ws.fns[sink].item.line,
                note: format!(
                    "{sink_label} sink `{}` runs while tainted",
                    ws.fns[sink].item.qualified()
                ),
            });
        }
        let mut cur = entry;
        while let Some((callee, line)) = pred[cur] {
            trail.push(TrailStep {
                file: ws.path_of(cur).to_string(),
                line,
                note: format!(
                    "`{}` calls `{}`",
                    ws.fns[cur].item.qualified(),
                    ws.fns[callee].item.qualified()
                ),
            });
            cur = callee;
        }
        for (what, line) in sources {
            out.push(pass.finding(
                ws.path_of(src_fn),
                line,
                format!(
                    "nondeterminism source {what} in `{}` can flow into \
                     {sink_label} sink `{}`",
                    ws.fns[src_fn].item.qualified(),
                    ws.fns[sink].item.qualified()
                ),
                "derive the value deterministically (cycle counter, seed, ordered \
                 container), keep it out of serialized artifacts and event \
                 scheduling, or allow at the source with the reason the bytes \
                 stay stable",
                trail.clone(),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// trace-schema-coverage
// ---------------------------------------------------------------------------

fn check_trace_schema_coverage(ws: &Workspace, pass: &Pass) -> Vec<Finding> {
    let mut out = Vec::new();
    for unit in &ws.files {
        for m in &unit.items.matches {
            if unit.source.is_test_line(m.line) {
                continue;
            }
            for enum_name in SCHEMA_ENUMS {
                let defs = ws.enums_named(enum_name);
                let Some((def_unit, def)) = defs.first() else {
                    continue;
                };
                let mentioned: Vec<&str> = m
                    .mentions
                    .iter()
                    .filter(|(q, v)| q == enum_name && def.variants.iter().any(|dv| dv == v))
                    .map(|(_, v)| v.as_str())
                    .collect();
                // A match naming 0 variants doesn't dispatch on the enum;
                // naming exactly 1 is a projection (`if let` in match
                // clothing). Two or more means schema dispatch: then every
                // variant must appear.
                if mentioned.len() < 2 || mentioned.len() >= def.variants.len() {
                    continue;
                }
                let missing: Vec<&str> = def
                    .variants
                    .iter()
                    .map(String::as_str)
                    .filter(|v| !mentioned.contains(v))
                    .collect();
                out.push(pass.finding(
                    &unit.source.path,
                    m.line,
                    format!(
                        "match dispatches on `{enum_name}` but handles {} of {} \
                         variants (missing: {}){}",
                        mentioned.len(),
                        def.variants.len(),
                        missing.join(", "),
                        if m.has_wildcard {
                            "; the `_` arm will silently swallow new variants"
                        } else {
                            ""
                        },
                    ),
                    "name every variant explicitly (group don't-care arms as \
                     `A | B => …`) so adding a variant fails here instead of \
                     skipping an oracle",
                    vec![TrailStep {
                        file: def_unit.source.path.clone(),
                        line: def.line,
                        note: format!(
                            "`{enum_name}` defined here with {} variants",
                            def.variants.len()
                        ),
                    }],
                ));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// dead-pub
// ---------------------------------------------------------------------------

/// The entry points a shipped program starts from: every non-test free
/// `fn main` (binaries, soe-lint, the detached packages), every method of
/// an `impl Trait for Type` block (called through the trait, which the
/// graph cannot follow), and whatever the `examples/` files call. Examples
/// are test code to the graph, so their fns are not nodes; their call
/// sites are resolved directly.
fn shipped_roots(ws: &Workspace) -> Vec<usize> {
    let mut roots: Vec<usize> = (0..ws.fns.len())
        .filter(|&i| {
            let f = &ws.fns[i].item;
            f.in_trait_impl || (f.owner.is_none() && f.name == "main")
        })
        .collect();
    for unit in ws
        .files
        .iter()
        .filter(|u| u.source.path.starts_with("examples/"))
    {
        for call in unit.items.fns.iter().flat_map(|f| &f.calls) {
            roots.extend(ws.resolve(call, &unit.source.path));
        }
    }
    roots
}

fn check_dead_pub(ws: &Workspace, pass: &Pass) -> Vec<Finding> {
    let reach = reach_from(ws, &shipped_roots(ws));
    (0..ws.fns.len())
        .filter(|&i| ws.fns[i].item.is_pub && !reach.visited[i])
        .map(|i| {
            let item = &ws.fns[i].item;
            pass.finding(
                ws.path_of(i),
                item.line,
                format!(
                    "`pub fn {}` is not reachable from any `fn main`, example or \
                     trait-impl method",
                    item.qualified()
                ),
                "delete it (and the tests that only check it), or, if a test uses it \
                 as an oracle, keep it with `// soe-lint: allow(dead-pub): <the test \
                 it serves>`",
                Vec::new(),
            )
        })
        .collect()
}

// ---------------------------------------------------------------------------
// unordered-iteration (precise)
// ---------------------------------------------------------------------------

/// A binding resolved to an unordered container.
struct UnorderedBinding {
    /// `HashMap` or `HashSet`.
    container: &'static str,
    /// Where the type was established.
    decl_file: String,
    decl_line: u32,
    decl_what: String,
}

/// Container classification of a type/initializer token window.
fn classify(texts: impl Iterator<Item = String>) -> Option<&'static str> {
    // First known container name wins: `Option<HashMap<…>>` is a
    // HashMap for ordering purposes; `BTreeMap<K, HashSet<V>>` iterates
    // in key order at the top level, which is what the rule cares about.
    const ORDERED: &[&str] = &[
        "BTreeMap", "BTreeSet", "Vec", "VecDeque", "String", "str", "IndexMap", "slice",
    ];
    for t in texts {
        if t == "HashMap" {
            return Some("HashMap");
        }
        if t == "HashSet" {
            return Some("HashSet");
        }
        if ORDERED.contains(&t.as_str()) {
            return None;
        }
    }
    None
}

/// Resolves the declared type of the binding iterated at `site` in fn
/// `idx`, returning it only when it is an unordered container.
///
/// Resolution tiers:
/// 1. local bindings: the nearest preceding `let [mut] name …` in the
///    fn body, else a `name: Type` parameter;
/// 2. `self.name`: the enclosing impl type's struct field, resolved
///    workspace-wide (same file preferred);
/// 3. `other.name`: a field named `name` of any struct in the same file.
///
/// Anything unresolvable is skipped — this is the false-positive fix
/// over the old local-declaration heuristic, which flagged every
/// same-named binding in the file.
fn resolve_unordered(
    ws: &Workspace,
    idx: usize,
    site: &crate::items::IterSite,
) -> Option<UnorderedBinding> {
    let node = &ws.fns[idx];
    let unit = &ws.files[node.file];
    let tokens = &unit.source.tokens;
    if !site.via_self && !site.via_field {
        if let Some(b) = resolve_local(tokens, &node.item, &site.name, site.line, &unit.source.path)
        {
            return b;
        }
        return None;
    }
    let field_of = |s: &crate::items::StructItem| -> Option<Option<UnorderedBinding>> {
        let (_, ty) = s.fields.iter().find(|(n, _)| n == &site.name)?;
        Some(
            classify(ty.split_whitespace().map(str::to_string)).map(|container| UnorderedBinding {
                container,
                decl_file: unit.source.path.clone(),
                decl_line: s.line,
                decl_what: format!("field `{}` of `{}`", site.name, s.name),
            }),
        )
    };
    if site.via_self {
        let owner = node.item.owner.as_deref()?;
        let s = ws.struct_named(owner, node.file)?;
        // Resolve decl_file properly: the struct may live in another file.
        let (_, ty) = s.fields.iter().find(|(n, _)| n == &site.name)?;
        return classify(ty.split_whitespace().map(str::to_string)).map(|container| {
            UnorderedBinding {
                container,
                decl_file: struct_file(ws, owner, node.file)
                    .unwrap_or_else(|| unit.source.path.clone()),
                decl_line: s.line,
                decl_what: format!("field `{}` of `{}`", site.name, s.name),
            }
        });
    }
    // via_field: same-file structs only.
    for s in &unit.items.structs {
        if let Some(res) = field_of(s) {
            return res;
        }
    }
    None
}

/// The path of the file defining struct `name` (same preference order
/// as [`Workspace::struct_named`]).
fn struct_file(ws: &Workspace, name: &str, near_file: usize) -> Option<String> {
    let hits = ws.structs.get(name)?;
    let &(fi, _) = hits
        .iter()
        .find(|(fi, _)| *fi == near_file)
        .or_else(|| hits.first())?;
    Some(ws.files[fi].source.path.clone())
}

/// Tier 1: `let` statements in the body (nearest preceding the site
/// wins), then parameters. Returns `Some(None)` when the binding
/// resolves to an *ordered* type (definitely not a finding),
/// `Some(Some(_))` when unordered, `None` when undeclared here.
fn resolve_local(
    tokens: &[Token],
    item: &FnItem,
    name: &str,
    before_line: u32,
    path: &str,
) -> Option<Option<UnorderedBinding>> {
    let (b0, b1) = item.body;
    let body = &tokens[b0.min(tokens.len())..b1.min(tokens.len())];
    let mut best: Option<(u32, Option<&'static str>)> = None;
    for (k, t) in body.iter().enumerate() {
        if !t.is_ident("let") {
            continue;
        }
        let mut n = k + 1;
        if body.get(n).is_some_and(|t| t.is_ident("mut")) {
            n += 1;
        }
        let Some(bind) = body.get(n).filter(|t| t.is_ident(name)) else {
            continue;
        };
        if bind.line > before_line {
            continue;
        }
        // Type annotation (`let m: HashMap<…>`) or initializer head
        // (`let m = HashMap::new()`): classify the tokens up to the
        // statement's `;`/`=` boundary.
        let window: Vec<String> = body[n + 1..]
            .iter()
            .take_while(|t| !t.is_punct(';'))
            .take(32)
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.clone())
            .collect();
        let class = classify(window.into_iter());
        match &best {
            Some((line, _)) if *line > bind.line => {}
            _ => best = Some((bind.line, class)),
        }
    }
    if best.is_none() {
        // Parameters: `name : Type` in the param list.
        let (p0, p1) = item.params;
        let params = &tokens[p0.min(tokens.len())..p1.min(tokens.len())];
        for (k, t) in params.iter().enumerate() {
            if t.is_ident(name)
                && params.get(k + 1).is_some_and(|c| c.is_punct(':'))
                && !params.get(k + 2).is_some_and(|c| c.is_punct(':'))
            {
                let window: Vec<String> = params[k + 2..]
                    .iter()
                    .take(32)
                    .filter(|t| t.kind == TokenKind::Ident)
                    .map(|t| t.text.clone())
                    .collect();
                best = Some((t.line, classify(window.into_iter())));
                break;
            }
        }
    }
    let (decl_line, class) = best?;
    Some(class.map(|container| UnorderedBinding {
        container,
        decl_file: path.to_string(),
        decl_line,
        decl_what: format!("`{name}` declared here"),
    }))
}

fn check_unordered_iteration(ws: &Workspace, pass: &Pass) -> Vec<Finding> {
    let mut out = Vec::new();
    for idx in 0..ws.fns.len() {
        let node = &ws.fns[idx];
        let path = ws.path_of(idx);
        for site in &node.item.iters {
            let Some(u) = resolve_unordered(ws, idx, site) else {
                continue;
            };
            let severity = if SIM_CORE.iter().any(|p| path.starts_with(p)) {
                Severity::Error
            } else {
                Severity::Warning
            };
            let how = if site.how == "for" {
                "for-loop over".to_string()
            } else {
                format!(".{}() on", site.how)
            };
            let mut f = pass.finding(
                path,
                site.line,
                format!(
                    "{how} `{}`, resolved to an unordered `{}`",
                    site.name, u.container
                ),
                "iterate a BTree collection or sort the items first",
                vec![TrailStep {
                    file: u.decl_file,
                    line: u.decl_line,
                    note: u.decl_what,
                }],
            );
            f.severity = severity;
            out.push(f);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::build(files.iter().map(|(p, s)| SourceFile::parse(p, s)).collect())
    }

    fn run(ws: &Workspace, id: &str) -> Vec<Finding> {
        let passes = all_passes();
        let pass = passes.iter().find(|p| p.id == id).unwrap();
        pass.check(ws)
    }

    /// A minimal workspace where every root and sink resolves, so pass
    /// tests see no configuration-error findings.
    fn scaffold() -> Vec<(&'static str, &'static str)> {
        vec![
            (
                "crates/sim/src/core.rs",
                "impl Machine { fn step(&mut self) { } fn next_wake(&mut self) { } }",
            ),
            (
                "crates/core/src/runner.rs",
                "fn run_spec() { }\nfn run_scenario() { }\nfn serve() { }",
            ),
            (
                "crates/core/src/policy.rs",
                "impl FairnessPolicy { fn recalc(&mut self) {} fn on_switch_in(&mut self) {} \
                 fn on_switch_out(&mut self) {} fn after_retire(&mut self) {} \
                 fn each_cycle(&mut self) {} }",
            ),
            (
                "crates/core/src/policies/mod.rs",
                "impl IslipPolicy { fn pick_next(&mut self) {} fn each_cycle(&mut self) {} }\n\
                 impl UsageFairPolicy { fn pick_next(&mut self) {} fn each_cycle(&mut self) {} }\n\
                 impl WdrrPolicy { fn after_retire(&mut self) {} fn each_cycle(&mut self) {} }",
            ),
            (
                "crates/core/src/sinks.rs",
                "impl Journal { fn append(&mut self) {} }\n\
                 impl MetricsRegistry { fn to_csv(&self) {} }\n\
                 impl SloReport { fn build() {} }\n\
                 fn trace_jsonl() {}\nfn chrome_trace() {}\nfn trace_series() {}\n\
                 fn full_results() {}",
            ),
        ]
    }

    #[test]
    fn scaffold_is_clean() {
        let w = ws(&scaffold());
        assert!(run(&w, "panic-reachability").is_empty());
        assert!(run(&w, "determinism-taint").is_empty());
    }

    #[test]
    fn unresolved_root_is_a_configuration_error() {
        let mut files = scaffold();
        files[0] = (
            "crates/sim/src/core.rs",
            "impl Machine { fn renamed(&self) {} }",
        );
        let w = ws(&files);
        let fs = run(&w, "panic-reachability");
        assert!(fs
            .iter()
            .any(|f| f.message.contains("`Machine::step` does not resolve")));
    }

    #[test]
    fn reachable_panic_reports_the_call_path() {
        let mut files = scaffold();
        files[0] = (
            "crates/sim/src/core.rs",
            "impl Machine { fn step(&mut self) { tally(1); } fn next_wake(&mut self) { } }",
        );
        files.push((
            "crates/stats/src/lib.rs",
            "fn tally(v: u64) { deep(v); }\nfn deep(v: u64) { let x = opt.unwrap(); }",
        ));
        let w = ws(&files);
        let fs = run(&w, "panic-reachability");
        assert_eq!(fs.len(), 1, "{fs:?}");
        let f = &fs[0];
        assert_eq!(f.file, "crates/stats/src/lib.rs");
        assert_eq!(f.line, 2);
        assert!(f.message.contains("`.unwrap()`"), "{}", f.message);
        let notes: Vec<&str> = f.trail.iter().map(|s| s.note.as_str()).collect();
        assert!(notes[0].contains("hot-path root `Machine::step`"));
        assert!(notes[1].contains("`Machine::step` calls `tally`"));
        assert!(notes[2].contains("`tally` calls `deep`"));
    }

    #[test]
    fn unreachable_panic_is_not_reported() {
        let mut files = scaffold();
        files.push((
            "crates/stats/src/lib.rs",
            "fn cold() { x.unwrap(); }", // nothing on the hot path calls it
        ));
        let w = ws(&files);
        assert!(run(&w, "panic-reachability").is_empty());
    }

    #[test]
    fn detached_package_fns_are_never_workspace_callees() {
        // A hot-path `.build(` beside a panicking `build` in the
        // benchmark's own package: no workspace fn can call it.
        let hot = (
            "crates/core/src/runner.rs",
            "fn run_spec(f: &F) { f.build(); }\nfn run_scenario() { }\nfn serve() { }",
        );
        let panicking = "impl TraceSpec { fn build(&self) -> u32 { self.n.expect(\"n\") } }\n\
                         fn main_loop(s: &TraceSpec) { s.build(); }";
        let mut files = scaffold();
        files[1] = hot;
        files.push(("perfbench/src/sim.rs", panicking));
        let w = ws(&files);
        assert!(run(&w, "panic-reachability").is_empty());
        // Inside the package the call still resolves.
        let main_loop = w.lookup("main_loop")[0];
        let build = w.lookup("TraceSpec::build")[0];
        assert!(w.callees[main_loop].iter().any(|e| e.to == build));
        // The same fn in a workspace crate is reported.
        let mut files = scaffold();
        files[1] = hot;
        files.push(("crates/stats/src/sim.rs", panicking));
        let fs = run(&ws(&files), "panic-reachability");
        assert_eq!(fs.len(), 1, "{fs:?}");
    }

    #[test]
    fn taint_flows_from_source_through_caller_into_sink() {
        let mut files = scaffold();
        files.push((
            "crates/bench/src/lib.rs",
            "fn stamp() -> u64 { let t = Instant::now(); 0 }\n\
             fn collect() { let s = stamp(); full_results(); }",
        ));
        let w = ws(&files);
        let fs = run(&w, "determinism-taint");
        assert_eq!(fs.len(), 1, "{fs:?}");
        let f = &fs[0];
        assert_eq!(f.file, "crates/bench/src/lib.rs");
        assert_eq!(f.line, 1);
        assert!(f.message.contains("`Instant::now`"));
        assert!(f.message.contains("`full_results`"));
        let notes: Vec<&str> = f.trail.iter().map(|s| s.note.as_str()).collect();
        assert!(notes[0].contains("passes data into serialization sink `full_results`"));
        assert!(notes[1].contains("`collect` calls `stamp`"));
    }

    #[test]
    fn source_with_no_route_to_a_sink_is_clean() {
        let mut files = scaffold();
        files.push((
            "crates/bench/src/lib.rs",
            "fn watchdog() { let t = Instant::now(); }",
        ));
        let w = ws(&files);
        assert!(run(&w, "determinism-taint").is_empty());
    }

    #[test]
    fn tainted_sink_body_is_reported() {
        let mut files = scaffold();
        let sinks = files
            .iter()
            .position(|(p, _)| *p == "crates/core/src/sinks.rs")
            .unwrap();
        files[sinks] = (
            "crates/core/src/sinks.rs",
            "impl Journal { fn append(&mut self) { let t = now_ms(); } }\n\
             impl MetricsRegistry { fn to_csv(&self) {} }\n\
             impl SloReport { fn build() {} }\n\
             fn trace_jsonl() {}\nfn chrome_trace() {}\nfn trace_series() {}\n\
             fn full_results() {}\n\
             fn now_ms() -> u64 { let t = SystemTime::now(); 0 }",
        );
        let w = ws(&files);
        let fs = run(&w, "determinism-taint");
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].message.contains("`SystemTime::now`"));
        assert!(fs[0].message.contains("`Journal::append`"));
    }

    #[test]
    fn partial_schema_match_is_reported_with_missing_variants() {
        let mut files = scaffold();
        files.push((
            "crates/sim/src/obs.rs",
            "pub enum EventKind { SwitchOut, SwitchIn, L2Miss }",
        ));
        files.push((
            "crates/core/src/export.rs",
            "fn label(k: EventKind) -> &'static str {\n\
             match k { EventKind::SwitchOut => \"out\", EventKind::SwitchIn => \"in\", _ => \"?\" }\n\
             }",
        ));
        let w = ws(&files);
        let fs = run(&w, "trace-schema-coverage");
        assert_eq!(fs.len(), 1, "{fs:?}");
        let f = &fs[0];
        assert_eq!(f.file, "crates/core/src/export.rs");
        assert!(f.message.contains("missing: L2Miss"), "{}", f.message);
        assert!(f.message.contains("swallow new variants"));
        assert_eq!(f.trail[0].file, "crates/sim/src/obs.rs");
    }

    #[test]
    fn full_and_single_variant_matches_are_clean() {
        let mut files = scaffold();
        files.push((
            "crates/sim/src/obs.rs",
            "pub enum EventKind { SwitchOut, SwitchIn }",
        ));
        files.push((
            "crates/core/src/export.rs",
            "fn full(k: EventKind) -> u8 { match k { EventKind::SwitchOut => 0, \
             EventKind::SwitchIn => 1 } }\n\
             fn project(k: EventKind) -> bool { match k { EventKind::SwitchIn => true, _ => false } }",
        ));
        let w = ws(&files);
        assert!(run(&w, "trace-schema-coverage").is_empty());
    }

    #[test]
    fn schema_matches_in_test_code_are_exempt() {
        let mut files = scaffold();
        files.push((
            "crates/sim/src/obs.rs",
            "pub enum EventKind { SwitchOut, SwitchIn, L2Miss }",
        ));
        files.push((
            "crates/core/tests/it.rs",
            "fn t(k: EventKind) -> u8 { match k { EventKind::SwitchOut => 0, \
             EventKind::SwitchIn => 1, _ => 2 } }",
        ));
        let w = ws(&files);
        assert!(run(&w, "trace-schema-coverage").is_empty());
    }

    #[test]
    fn unordered_iteration_resolves_let_param_and_field() {
        let w = ws(&[(
            "crates/bench/src/lib.rs",
            "struct S { m: HashMap<u64, u64>, v: Vec<u64> }\n\
             impl S { fn a(&self) { for k in &self.m {} for k in &self.v {} } }\n\
             fn b(m: &HashMap<u64, u64>) { m.keys().count(); }\n\
             fn c() { let mut m = HashMap::new(); m.iter().count(); }\n\
             fn d() { let m = BTreeMap::new(); m.iter().count(); }\n\
             fn e(other: &S) { other.m.iter().count(); }",
        )]);
        let fs = run(&w, "unordered-iteration");
        let lines: Vec<u32> = fs.iter().map(|f| f.line).collect();
        assert!(lines.contains(&2), "self.m via field: {fs:?}");
        assert!(lines.contains(&3), "param type: {fs:?}");
        assert!(lines.contains(&4), "let init head: {fs:?}");
        assert!(
            !fs.iter().any(|f| f.line == 5),
            "BTreeMap is ordered: {fs:?}"
        );
        assert!(lines.contains(&6), "other.m via same-file field: {fs:?}");
        // self.v (Vec) on line 2 must NOT fire: exactly one finding there.
        assert_eq!(lines.iter().filter(|&&l| l == 2).count(), 1);
        assert!(fs.iter().all(|f| f.severity == Severity::Warning));
        assert!(fs.iter().all(|f| !f.trail.is_empty()), "decl site in trail");
    }

    #[test]
    fn unordered_iteration_skips_unresolved_bindings() {
        // The old heuristic flagged any same-file name match; the
        // symbol-table version skips what it cannot resolve.
        let w = ws(&[(
            "crates/bench/src/lib.rs",
            "fn f() { let m = load(); m.iter().count(); }\n\
             fn g(m: &BTreeMap<u64, u64>) { m.iter().count(); }",
        )]);
        assert!(run(&w, "unordered-iteration").is_empty());
    }

    #[test]
    fn unordered_iteration_is_an_error_in_sim_core() {
        let w = ws(&[(
            "crates/sim/src/x.rs",
            "fn c() { let mut m = HashMap::new(); m.iter().count(); }",
        )]);
        let fs = run(&w, "unordered-iteration");
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].severity, Severity::Error);
    }

    #[test]
    fn taint_into_the_next_wake_is_an_ordering_flow() {
        let mut files = scaffold();
        files[0] = (
            "crates/sim/src/core.rs",
            "impl Machine { fn step(&mut self) { } \
             fn next_wake(&mut self) { let j = jitter(); } }",
        );
        files.push((
            "crates/sim/src/backend/wake.rs",
            "fn jitter() -> u64 { let t = Instant::now(); 0 }",
        ));
        let w = ws(&files);
        let fs = run(&w, "determinism-taint");
        assert_eq!(fs.len(), 1, "{fs:?}");
        let f = &fs[0];
        assert!(
            f.message
                .contains("event-ordering sink `Machine::next_wake`"),
            "{}",
            f.message
        );
        let notes: Vec<&str> = f.trail.iter().map(|s| s.note.as_str()).collect();
        assert!(notes[0].contains("event-ordering sink `Machine::next_wake` runs while tainted"));
        assert!(notes[1].contains("`Machine::next_wake` calls `jitter`"));
    }

    fn dead_pub_names(files: &[(&str, &str)]) -> Vec<String> {
        let w = ws(files);
        run(&w, "dead-pub")
            .iter()
            .map(|f| format!("{}:{}", f.file, f.line))
            .collect()
    }

    #[test]
    fn uncalled_pub_fn_is_dead() {
        let dead = dead_pub_names(&[(
            "crates/stats/src/lib.rs",
            "pub fn orphan() {}\nfn private_orphan() {}\npub(crate) fn crate_orphan() {}",
        )]);
        assert_eq!(dead, vec!["crates/stats/src/lib.rs:1"]);
    }

    #[test]
    fn pub_fns_reached_from_shipped_entry_points_are_live() {
        let dead = dead_pub_names(&[
            (
                "crates/stats/src/lib.rs",
                "pub fn from_bin() { helper(); }\npub fn helper() {}\n\
                 pub fn from_perfbench() {}\npub fn from_example() {}\n\
                 pub struct S;\nimpl Display for S { fn fmt(&self) { via_trait(); } }\n\
                 pub fn via_trait() {}",
            ),
            (
                "crates/bench/src/bin/figure1.rs",
                "fn main() { from_bin(); }",
            ),
            ("perfbench/src/main.rs", "fn main() { from_perfbench(); }"),
            ("examples/quickstart.rs", "fn main() { from_example(); }"),
        ]);
        assert!(dead.is_empty(), "{dead:?}");
    }

    #[test]
    fn pub_fn_called_only_from_tests_is_dead() {
        let dead = dead_pub_names(&[
            (
                "crates/stats/src/lib.rs",
                "pub fn oracle() {}\n#[cfg(test)]\nmod tests {\n#[test]\nfn t() { oracle(); }\n}",
            ),
            ("tests/it.rs", "#[test]\nfn it() { oracle(); }"),
            (
                "crates/stats/src/other.rs",
                "/// ```\n/// oracle();\n/// ```\npub fn documented() {}\nfn main() { documented(); }",
            ),
        ]);
        assert_eq!(dead, vec!["crates/stats/src/lib.rs:1"]);
    }

    #[test]
    fn dead_pub_allow_keeps_a_test_oracle() {
        let a = crate::engine::analyze_files(
            &[(
                "crates/stats/src/lib.rs",
                "// soe-lint: allow(dead-pub): tests/it.rs checks against it\n\
                 pub fn oracle() {}\npub fn orphan() {}",
            )],
            &crate::baseline::Baseline::default(),
            Some("dead-pub"),
        );
        let waivers: Vec<(u32, Waiver)> = a.findings.iter().map(|f| (f.line, f.waiver)).collect();
        assert_eq!(waivers, vec![(2, Waiver::Suppressed), (3, Waiver::None)]);
    }

    #[test]
    fn hash_iteration_counts_as_a_taint_source() {
        let mut files = scaffold();
        files.push((
            "crates/bench/src/lib.rs",
            "fn order() -> Vec<u64> { let m = HashMap::new(); m.keys().count(); Vec::new() }\n\
             fn emit() { let o = order(); full_results(); }",
        ));
        let w = ws(&files);
        let fs = run(&w, "determinism-taint");
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].message.contains("HashMap iteration over `m`"));
    }
}
