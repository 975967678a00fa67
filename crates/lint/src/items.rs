//! A lightweight item parser on top of the lexer.
//!
//! The per-file rules only need token sequences; the workspace passes
//! (panic-reachability, determinism-taint, trace-schema coverage) need
//! *structure*: which functions exist, who owns them, what they call,
//! and where the panic / nondeterminism sites inside them are. This
//! module extracts exactly that — nothing more — from one file's token
//! stream:
//!
//! - `fn` items with their enclosing `impl` type (trait impls resolve to
//!   the `Self` type after `for`), visibility, whether the impl is a
//!   trait impl, signature, and brace-matched body;
//! - call expressions inside bodies: bare calls (`foo(`), qualified
//!   calls (`Type::foo(`, `module::foo(`), method calls (`.foo(`) and
//!   qualified fn references passed without parentheses (`Type::foo`);
//! - panic sites (`.unwrap()` / `.expect()`, panic-family macros,
//!   bracket indexing of a value);
//! - determinism-taint sources (`Instant::now`, `SystemTime::now`,
//!   `env::var*`, `RandomState`, `thread::current`);
//! - iteration sites over named bindings (`m.iter()`, `for x in &m`)
//!   together with enough local context (let-bindings, fn parameters,
//!   `self.` receivers) to resolve the binding's declared type;
//! - `struct` definitions with field names and type tokens, `enum`
//!   definitions with variant names, and `match` expressions with every
//!   `Enum::Variant` path mentioned in their body.
//!
//! The parser is deliberately over-approximate and total: it never
//! panics, never loops, and degrades to "fewer items found" on code it
//! does not understand — a linter must survive the code it is about to
//! complain about (the proptest in `tests/parser_proptest.rs` holds it
//! to that).

use crate::lexer::{Token, TokenKind};

/// Keywords that look like call heads or indexing bases but are not.
pub(crate) const NON_VALUE_KEYWORDS: &[&str] = &[
    "mut", "dyn", "in", "as", "return", "break", "continue", "else", "match", "impl", "ref",
    "move", "box", "where", "const", "static", "let", "fn", "pub", "use", "crate", "struct",
    "enum", "type", "trait", "unsafe", "extern", "if", "while", "for", "loop",
];

/// Keywords never treated as a called function name.
const CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "fn", "let", "in", "as", "move", "unsafe",
    "else", "break", "continue", "where", "impl", "dyn", "ref", "mut", "pub", "use", "struct",
    "enum", "trait", "type", "const", "static", "crate", "super", "self", "Self", "box", "extern",
    "async", "await",
];

/// One call expression (or qualified fn reference) inside a body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// The called name (`foo` in `foo(…)`, `Type::foo(…)`, `.foo(…)`).
    pub name: String,
    /// The path segment directly before `::name`, if any (`Type` or a
    /// module name; `Self` is rewritten to the enclosing impl type).
    pub qualifier: Option<String>,
    /// Whether the call is a method call (`receiver.foo(…)`).
    pub is_method: bool,
    /// 1-based line of the name token.
    pub line: u32,
}

/// How a panic site can fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanicKind {
    /// `.unwrap()` / `.expect(…)`.
    Unwrap,
    /// `panic!` / `unreachable!` / `todo!` / `unimplemented!`.
    Macro,
    /// `value[index]` bracket indexing.
    Index,
}

/// One potential panic inside a body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PanicSite {
    /// The kind of panic path.
    pub kind: PanicKind,
    /// Short description for diagnostics (`.unwrap()`, `panic!`, `v[…]`).
    pub what: String,
    /// 1-based line.
    pub line: u32,
}

/// A nondeterminism source inside a body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaintSite {
    /// Short description (`Instant::now`, `env::var`, …).
    pub what: String,
    /// 1-based line.
    pub line: u32,
}

/// One iteration over a named binding (`name.iter()`, `for x in &name`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IterSite {
    /// The iterated binding's name.
    pub name: String,
    /// Whether the binding is a `self.` field access.
    pub via_self: bool,
    /// Whether the binding is a field access of a non-`self` receiver
    /// (`x.map.iter()`), so only same-file struct fields can resolve it.
    pub via_field: bool,
    /// The iteration form (`iter`, `keys`, `for`, …) for the message.
    pub how: String,
    /// 1-based line.
    pub line: u32,
}

/// One parsed function.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The bare function name.
    pub name: String,
    /// The enclosing inherent/trait-impl type, if any.
    pub owner: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Whether the signature's first parameter is a form of `self`.
    pub has_self: bool,
    /// Whether the fn is declared plain `pub` (not `pub(crate)`,
    /// `pub(super)` or `pub(in …)`).
    pub is_pub: bool,
    /// Whether the fn sits in an `impl Trait for Type` block.
    pub in_trait_impl: bool,
    /// Whether the definition sits in test code (per the source file's
    /// test-line map) — test fns stay out of the call graph.
    pub is_test: bool,
    /// Half-open token range of the body (empty for trait declarations).
    pub body: (usize, usize),
    /// Half-open token range of the parameter list (inside the parens).
    pub params: (usize, usize),
    /// Calls and fn references inside the body.
    pub calls: Vec<CallSite>,
    /// Panic sites inside the body.
    pub panics: Vec<PanicSite>,
    /// Determinism-taint sources inside the body.
    pub taints: Vec<TaintSite>,
    /// Iteration sites inside the body.
    pub iters: Vec<IterSite>,
}

impl FnItem {
    /// `Owner::name` or the bare name.
    pub fn qualified(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One parsed struct with its fields and their type tokens.
#[derive(Debug, Clone)]
pub struct StructItem {
    /// Struct name.
    pub name: String,
    /// 1-based line of the name.
    pub line: u32,
    /// `(field name, type tokens joined with spaces)`.
    pub fields: Vec<(String, String)>,
}

/// One parsed enum with its variant names.
#[derive(Debug, Clone)]
pub struct EnumItem {
    /// Enum name.
    pub name: String,
    /// 1-based line of the name.
    pub line: u32,
    /// Variant names in declaration order.
    pub variants: Vec<String>,
}

/// One `match` expression and every `Enum::Variant` path inside it.
#[derive(Debug, Clone)]
pub struct MatchSite {
    /// 1-based line of the `match` keyword.
    pub line: u32,
    /// `(enum-ish qualifier, variant-ish name)` pairs mentioned in the
    /// match body, deduplicated, in first-mention order.
    pub mentions: Vec<(String, String)>,
    /// Whether the match body contains a `_` wildcard or binding-only
    /// catch-all arm (informational; coverage requires explicit arms).
    pub has_wildcard: bool,
}

/// Everything the item parser extracts from one file.
#[derive(Debug, Default)]
pub struct ParsedItems {
    /// Functions, in source order.
    pub fns: Vec<FnItem>,
    /// Structs, in source order.
    pub structs: Vec<StructItem>,
    /// Enums, in source order.
    pub enums: Vec<EnumItem>,
    /// Match expressions, in source order.
    pub matches: Vec<MatchSite>,
}

/// Parses the items of a token stream. `is_test_line` reports whether a
/// 1-based line is test code (see `SourceFile::is_test_line`).
pub fn parse_items(tokens: &[Token], is_test_line: &dyn Fn(u32) -> bool) -> ParsedItems {
    let mut out = ParsedItems::default();
    scan_block(
        tokens,
        0,
        tokens.len(),
        None,
        false,
        is_test_line,
        &mut out,
        0,
    );
    out
}

/// Maximum `impl`/`mod` nesting the scanner follows (defensive bound so
/// pathological input cannot recurse unboundedly).
const MAX_DEPTH: usize = 64;

/// Scans `tokens[from..to]` for items, with `owner` as the enclosing
/// impl type (if any) and `trait_impl` set inside `impl Trait for Type`.
#[allow(clippy::too_many_arguments)]
fn scan_block(
    tokens: &[Token],
    from: usize,
    to: usize,
    owner: Option<&str>,
    trait_impl: bool,
    is_test_line: &dyn Fn(u32) -> bool,
    out: &mut ParsedItems,
    depth: usize,
) {
    if depth > MAX_DEPTH {
        return;
    }
    let mut i = from;
    while i < to {
        let t = &tokens[i];
        if t.is_ident("impl") {
            // `impl<…> Type {` / `impl<…> Trait for Type {` — the owner
            // is the Self type (after `for` when present).
            let mut j = i + 1;
            // Skip generic parameters directly after `impl`.
            if tokens.get(j).is_some_and(|t| t.is_punct('<')) {
                j = skip_angles(tokens, j, to);
            }
            let mut self_ty: Option<String> = None;
            let mut saw_for = false;
            while j < to && !tokens[j].is_punct('{') && !tokens[j].is_punct(';') {
                if tokens[j].is_ident("for") {
                    saw_for = true;
                    self_ty = None; // the trait name was not the owner
                } else if tokens[j].is_ident("where") {
                    break;
                } else if tokens[j].kind == TokenKind::Ident
                    && self_ty.is_none()
                    && !tokens[j].is_ident("dyn")
                    && !tokens[j].is_ident("mut")
                {
                    // First ident of the (trait or self) path; later path
                    // segments (`a::B`) overwrite so the final segment wins.
                    self_ty = Some(tokens[j].text.clone());
                } else if tokens[j].is_punct(':')
                    && tokens.get(j + 1).is_some_and(|n| n.is_punct(':'))
                    && tokens
                        .get(j + 2)
                        .is_some_and(|n| n.kind == TokenKind::Ident)
                {
                    self_ty = Some(tokens[j + 2].text.clone());
                    j += 2;
                } else if tokens[j].is_punct('<') {
                    j = skip_angles(tokens, j, to);
                    continue;
                }
                j += 1;
            }
            // Advance past `where` clauses to the body brace.
            while j < to && !tokens[j].is_punct('{') && !tokens[j].is_punct(';') {
                j += 1;
            }
            if tokens.get(j).is_some_and(|t| t.is_punct('{')) {
                let end = match_brace(tokens, j, to);
                scan_block(
                    tokens,
                    j + 1,
                    end.saturating_sub(1),
                    self_ty.as_deref(),
                    saw_for,
                    is_test_line,
                    out,
                    depth + 1,
                );
                i = end;
            } else {
                i = j + 1;
            }
        } else if t.is_ident("mod") && tokens.get(i + 2).is_some_and(|b| b.is_punct('{')) {
            // Inline module: descend with the same owner context cleared.
            let end = match_brace(tokens, i + 2, to);
            scan_block(
                tokens,
                i + 3,
                end.saturating_sub(1),
                None,
                false,
                is_test_line,
                out,
                depth + 1,
            );
            i = end;
        } else if t.is_ident("fn") {
            i = parse_fn(tokens, i, to, owner, trait_impl, is_test_line, out);
        } else if t.is_ident("struct") {
            i = parse_struct(tokens, i, to, out);
        } else if t.is_ident("enum") {
            i = parse_enum(tokens, i, to, out);
        } else {
            i += 1;
        }
    }
}

/// Parses one `fn` starting at the `fn` keyword at `i`; returns the
/// index to resume scanning from (past the body).
fn parse_fn(
    tokens: &[Token],
    i: usize,
    to: usize,
    owner: Option<&str>,
    in_trait_impl: bool,
    is_test_line: &dyn Fn(u32) -> bool,
    out: &mut ParsedItems,
) -> usize {
    let Some(name_tok) = tokens.get(i + 1).filter(|t| t.kind == TokenKind::Ident) else {
        return i + 1;
    };
    let name = name_tok.text.clone();
    let line = tokens[i].line;
    // Find the parameter list: the first `(` before the body brace.
    let mut j = i + 2;
    if tokens.get(j).is_some_and(|t| t.is_punct('<')) {
        j = skip_angles(tokens, j, to);
    }
    if !tokens.get(j).is_some_and(|t| t.is_punct('(')) {
        return i + 1;
    }
    let params_end = match_paren(tokens, j, to);
    let params = (j + 1, params_end.saturating_sub(1));
    // Clamp to a well-formed range: an unmatched `(` can leave the
    // recorded end before the start.
    let p_lo = params.0.min(to);
    let p_hi = params.1.min(to).max(p_lo);
    let has_self = tokens[p_lo..p_hi]
        .iter()
        .take(3)
        .any(|t| t.is_ident("self"));
    // Body: next `{` at depth 0 before a `;` (a `;` means a trait
    // declaration or extern item with no body).
    let mut k = params_end;
    let mut body = (params_end, params_end);
    while k < to {
        if tokens[k].is_punct(';') {
            break;
        }
        if tokens[k].is_punct('{') {
            let end = match_brace(tokens, k, to);
            body = (k + 1, end.saturating_sub(1));
            k = end;
            break;
        }
        k += 1;
    }
    let b_lo = body.0.min(to);
    let b_hi = body.1.min(to).max(b_lo);
    let body_tokens = &tokens[b_lo..b_hi];
    let base = b_lo;
    let calls = collect_calls(tokens, base, body_tokens.len(), owner);
    let panics = collect_panics(body_tokens);
    let taints = collect_taints(body_tokens);
    let iters = collect_iters(body_tokens);
    collect_matches(body_tokens, out);
    out.fns.push(FnItem {
        name,
        owner: owner.map(str::to_string),
        line,
        has_self,
        is_pub: is_plain_pub(tokens, i),
        in_trait_impl,
        is_test: is_test_line(line),
        body,
        params,
        calls,
        panics,
        taints,
        iters,
    });
    k.max(i + 1)
}

/// Whether the `fn` keyword at `i` is preceded by a plain `pub`,
/// looking back over the `const`/`async`/`unsafe`/`extern "ABI"`
/// qualifiers. `pub(crate) fn` ends in `)` before the qualifiers, so it
/// is not plain.
fn is_plain_pub(tokens: &[Token], i: usize) -> bool {
    let mut j = i;
    while j > 0 {
        j -= 1;
        let t = &tokens[j];
        let qualifier = ["const", "async", "unsafe", "extern"]
            .iter()
            .any(|q| t.is_ident(q))
            || (t.kind == TokenKind::Literal && j > 0 && tokens[j - 1].is_ident("extern"));
        if !qualifier {
            return t.is_ident("pub");
        }
    }
    false
}

/// Parses one `struct` starting at the keyword; returns the resume index.
fn parse_struct(tokens: &[Token], i: usize, to: usize, out: &mut ParsedItems) -> usize {
    let Some(name_tok) = tokens.get(i + 1).filter(|t| t.kind == TokenKind::Ident) else {
        return i + 1;
    };
    let name = name_tok.text.clone();
    let line = name_tok.line;
    let mut j = i + 2;
    if tokens.get(j).is_some_and(|t| t.is_punct('<')) {
        j = skip_angles(tokens, j, to);
    }
    // Tuple struct / unit struct: no named fields to record.
    if !tokens.get(j).is_some_and(|t| t.is_punct('{')) {
        out.structs.push(StructItem {
            name,
            line,
            fields: Vec::new(),
        });
        return j;
    }
    let end = match_brace(tokens, j, to);
    let mut fields = Vec::new();
    let mut k = j + 1;
    while k < end.saturating_sub(1) {
        let t = &tokens[k];
        if t.is_punct('#') {
            k = skip_attr_tokens(tokens, k, end);
            continue;
        }
        if t.is_ident("pub") {
            // `pub` or `pub(crate)`.
            k += 1;
            if tokens.get(k).is_some_and(|t| t.is_punct('(')) {
                k = match_paren(tokens, k, end);
            }
            continue;
        }
        if t.kind == TokenKind::Ident && tokens.get(k + 1).is_some_and(|c| c.is_punct(':')) {
            // Field: collect the type tokens up to `,` or the closing
            // brace at bracket depth 0.
            let fname = t.text.clone();
            let mut ty = Vec::new();
            let mut d = 0i32;
            let mut m = k + 2;
            while m < end.saturating_sub(1) {
                let tt = &tokens[m];
                if tt.is_punct('<') || tt.is_punct('(') || tt.is_punct('[') {
                    d += 1;
                } else if tt.is_punct('>') || tt.is_punct(')') || tt.is_punct(']') {
                    d -= 1;
                } else if tt.is_punct(',') && d <= 0 {
                    break;
                }
                ty.push(tt.text.clone());
                m += 1;
            }
            fields.push((fname, ty.join(" ")));
            k = m + 1;
            continue;
        }
        k += 1;
    }
    out.structs.push(StructItem { name, line, fields });
    end
}

/// Parses one `enum` starting at the keyword; returns the resume index.
fn parse_enum(tokens: &[Token], i: usize, to: usize, out: &mut ParsedItems) -> usize {
    let Some(name_tok) = tokens.get(i + 1).filter(|t| t.kind == TokenKind::Ident) else {
        return i + 1;
    };
    let name = name_tok.text.clone();
    let line = name_tok.line;
    let mut j = i + 2;
    if tokens.get(j).is_some_and(|t| t.is_punct('<')) {
        j = skip_angles(tokens, j, to);
    }
    if !tokens.get(j).is_some_and(|t| t.is_punct('{')) {
        return j;
    }
    let end = match_brace(tokens, j, to);
    let mut variants = Vec::new();
    let mut k = j + 1;
    let mut expect_variant = true;
    let mut depth = 1i32;
    while k < end {
        let t = &tokens[k];
        if t.is_punct('#') && depth == 1 {
            k = skip_attr_tokens(tokens, k, end);
            continue;
        }
        if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if depth == 1 {
            if expect_variant && t.kind == TokenKind::Ident {
                variants.push(t.text.clone());
                expect_variant = false;
            } else if t.is_punct(',') {
                expect_variant = true;
            }
        }
        k += 1;
    }
    out.enums.push(EnumItem {
        name,
        line,
        variants,
    });
    end
}

/// Collects call expressions from `tokens[base..base+len]` (a fn body).
/// `owner` rewrites `Self::` qualifiers.
fn collect_calls(tokens: &[Token], base: usize, len: usize, owner: Option<&str>) -> Vec<CallSite> {
    let mut out = Vec::new();
    let body = &tokens[base..(base + len).min(tokens.len())];
    for (k, t) in body.iter().enumerate() {
        if t.kind != TokenKind::Ident || CALL_KEYWORDS.contains(&t.text.as_str()) {
            continue;
        }
        let next_is = |c: char| body.get(k + 1).is_some_and(|n| n.is_punct(c));
        let prev_is = |c: char| k >= 1 && body[k - 1].is_punct(c);
        // Macro invocations are not fn calls (panic macros are panic
        // sites, handled separately).
        if next_is('!') {
            continue;
        }
        // Skip nested `fn` names (nested fns are registered separately).
        if k >= 1 && body[k - 1].is_ident("fn") {
            continue;
        }
        let qualified = prev_is(':') && k >= 2 && body[k - 2].is_punct(':');
        let qualifier = if qualified {
            body.get(k.wrapping_sub(3))
                .filter(|q| q.kind == TokenKind::Ident)
                .map(|q| {
                    if q.text == "Self" {
                        owner.unwrap_or("Self").to_string()
                    } else {
                        q.text.clone()
                    }
                })
        } else {
            None
        };
        let is_method = !qualified && prev_is('.');
        if next_is('(') {
            out.push(CallSite {
                name: t.text.clone(),
                qualifier,
                is_method,
                line: t.line,
            });
        } else if qualified
            && qualifier.is_some()
            && !next_is(':')
            && !next_is('<')
            && !next_is('{')
        {
            // Qualified fn reference without parens (`map(Self::parse)`).
            // `Type::Name {` is a struct-variant literal, not a call.
            out.push(CallSite {
                name: t.text.clone(),
                qualifier,
                is_method: false,
                line: t.line,
            });
        }
    }
    out
}

/// Collects panic sites from a body slice.
fn collect_panics(body: &[Token]) -> Vec<PanicSite> {
    const MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
    let mut out = Vec::new();
    for (k, t) in body.iter().enumerate() {
        if (t.is_ident("unwrap") || t.is_ident("expect"))
            && k >= 1
            && body[k - 1].is_punct('.')
            && body.get(k + 1).is_some_and(|p| p.is_punct('('))
        {
            out.push(PanicSite {
                kind: PanicKind::Unwrap,
                what: format!(".{}()", t.text),
                line: t.line,
            });
        }
        if t.kind == TokenKind::Ident
            && MACROS.contains(&t.text.as_str())
            && body.get(k + 1).is_some_and(|n| n.is_punct('!'))
        {
            out.push(PanicSite {
                kind: PanicKind::Macro,
                what: format!("{}!", t.text),
                line: t.line,
            });
        }
        if t.is_punct('[') && k >= 1 {
            let prev = &body[k - 1];
            let indexes_value = (prev.kind == TokenKind::Ident
                && !NON_VALUE_KEYWORDS.contains(&prev.text.as_str()))
                || prev.is_punct(')')
                || prev.is_punct(']');
            let attr = prev.kind == TokenKind::Ident && k >= 2 && body[k - 2].is_punct('#');
            let mac = prev.is_punct(']') && k >= 2 && body[k - 2].is_punct('!');
            if indexes_value && !attr && !mac {
                let what = if prev.kind == TokenKind::Ident {
                    format!("{}[…]", prev.text)
                } else {
                    "…[…]".to_string()
                };
                out.push(PanicSite {
                    kind: PanicKind::Index,
                    what,
                    line: t.line,
                });
            }
        }
    }
    out
}

/// Collects determinism-taint sources from a body slice.
fn collect_taints(body: &[Token]) -> Vec<TaintSite> {
    let mut out = Vec::new();
    let path2 = |k: usize, a: &str, b: &str| {
        body[k].is_ident(a)
            && body.get(k + 1).is_some_and(|t| t.is_punct(':'))
            && body.get(k + 2).is_some_and(|t| t.is_punct(':'))
            && body.get(k + 3).is_some_and(|t| t.is_ident(b))
    };
    for k in 0..body.len() {
        let t = &body[k];
        if path2(k, "Instant", "now") {
            out.push(TaintSite {
                what: "Instant::now".into(),
                line: t.line,
            });
        } else if path2(k, "SystemTime", "now") {
            out.push(TaintSite {
                what: "SystemTime::now".into(),
                line: t.line,
            });
        } else if path2(k, "env", "var")
            || path2(k, "env", "var_os")
            || path2(k, "env", "vars")
            || path2(k, "env", "vars_os")
        {
            out.push(TaintSite {
                what: format!("env::{}", body[k + 3].text),
                line: t.line,
            });
        } else if t.is_ident("RandomState") {
            out.push(TaintSite {
                what: "RandomState".into(),
                line: t.line,
            });
        } else if path2(k, "thread", "current") {
            out.push(TaintSite {
                what: "thread::current".into(),
                line: t.line,
            });
        }
    }
    out
}

/// Methods whose receiver-iteration order matters.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
];

/// Collects iteration sites from a body slice.
fn collect_iters(body: &[Token]) -> Vec<IterSite> {
    let mut out = Vec::new();
    for (k, t) in body.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let preceded_by_self = k >= 2 && body[k - 1].is_punct('.') && body[k - 2].is_ident("self");
        let preceded_by_field = k >= 2
            && body[k - 1].is_punct('.')
            && body[k - 2].kind == TokenKind::Ident
            && !body[k - 2].is_ident("self");
        // `name.iter()` and friends.
        if body.get(k + 1).is_some_and(|n| n.is_punct('.'))
            && body.get(k + 2).is_some_and(|m| {
                m.kind == TokenKind::Ident && ITER_METHODS.contains(&m.text.as_str())
            })
            && body.get(k + 3).is_some_and(|p| p.is_punct('('))
        {
            out.push(IterSite {
                name: t.text.clone(),
                via_self: preceded_by_self,
                via_field: preceded_by_field,
                how: body[k + 2].text.clone(),
                line: t.line,
            });
        }
        // `for x in name` / `for x in &name` / `for x in &mut name` /
        // `for x in &self.name`.
        if k >= 1 {
            let prev = &body[k - 1];
            let after_in = prev.is_ident("in")
                || (prev.is_punct('&') && k >= 2 && body[k - 2].is_ident("in"))
                || (prev.is_ident("mut")
                    && k >= 3
                    && body[k - 2].is_punct('&')
                    && body[k - 3].is_ident("in"));
            let self_in = preceded_by_self
                && k >= 3
                && (body[k - 3].is_ident("in")
                    || (body[k - 3].is_punct('&') && k >= 4 && body[k - 4].is_ident("in")));
            let not_more = !body.get(k + 1).is_some_and(|n| n.is_punct('.'));
            if (after_in || self_in) && not_more && !t.is_ident("self") {
                out.push(IterSite {
                    name: t.text.clone(),
                    via_self: self_in || preceded_by_self,
                    via_field: preceded_by_field && !preceded_by_self,
                    how: "for".into(),
                    line: t.line,
                });
            }
        }
    }
    out
}

/// Collects `match` expressions and the `Ident::Ident` paths inside them
/// from a body slice (nested matches are recorded separately too — the
/// inner mentions appear in both, which only widens coverage).
fn collect_matches(body: &[Token], out: &mut ParsedItems) {
    for (k, t) in body.iter().enumerate() {
        if !t.is_ident("match") {
            continue;
        }
        // Scrutinee runs to the first `{` at bracket depth 0.
        let mut j = k + 1;
        let mut d = 0i32;
        while j < body.len() {
            let tt = &body[j];
            if tt.is_punct('(') || tt.is_punct('[') {
                d += 1;
            } else if tt.is_punct(')') || tt.is_punct(']') {
                d -= 1;
            } else if tt.is_punct('{') && d <= 0 {
                break;
            }
            j += 1;
        }
        if j >= body.len() {
            continue;
        }
        let end = match_brace(body, j, body.len());
        let mut mentions: Vec<(String, String)> = Vec::new();
        let mut has_wildcard = false;
        let mut m = j + 1;
        while m + 3 < end {
            let q = &body[m];
            if q.kind == TokenKind::Ident
                && body[m + 1].is_punct(':')
                && body[m + 2].is_punct(':')
                && body[m + 3].kind == TokenKind::Ident
            {
                let pair = (q.text.clone(), body[m + 3].text.clone());
                if !mentions.contains(&pair) {
                    mentions.push(pair);
                }
                m += 4;
                continue;
            }
            if q.is_ident("_")
                && body.get(m + 1).is_some_and(|n| n.is_punct('='))
                && body.get(m + 2).is_some_and(|n| n.is_punct('>'))
            {
                has_wildcard = true;
            }
            m += 1;
        }
        out.matches.push(MatchSite {
            line: t.line,
            mentions,
            has_wildcard,
        });
    }
}

/// Returns the index just past the brace matching the `{` at `open`
/// (or `to` when unterminated).
fn match_brace(tokens: &[Token], open: usize, to: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < to {
        if tokens[i].is_punct('{') {
            depth += 1;
        } else if tokens[i].is_punct('}') {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    to
}

/// Returns the index just past the paren matching the `(` at `open`.
fn match_paren(tokens: &[Token], open: usize, to: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < to {
        if tokens[i].is_punct('(') {
            depth += 1;
        } else if tokens[i].is_punct(')') {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    to
}

/// Skips a balanced `<…>` starting at `open` (returns `to` when
/// unterminated, and `open + 1` for a stray `<`).
fn skip_angles(tokens: &[Token], open: usize, to: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < to {
        if tokens[i].is_punct('<') {
            depth += 1;
        } else if tokens[i].is_punct('>') {
            depth -= 1;
            if depth <= 0 {
                return i + 1;
            }
        } else if tokens[i].is_punct(';') || tokens[i].is_punct('{') {
            // Lost: `<` was a comparison, not generics.
            return open + 1;
        }
        i += 1;
    }
    to
}

/// Skips one `#[…]` attribute starting at the `#` at `i`.
fn skip_attr_tokens(tokens: &[Token], i: usize, to: usize) -> usize {
    let mut j = i + 1;
    if tokens.get(j).is_some_and(|t| t.is_punct('!')) {
        j += 1;
    }
    if !tokens.get(j).is_some_and(|t| t.is_punct('[')) {
        return i + 1;
    }
    let mut depth = 0usize;
    while j < to {
        if tokens[j].is_punct('[') {
            depth += 1;
        } else if tokens[j].is_punct(']') {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> ParsedItems {
        let lexed = lex(src);
        parse_items(&lexed.tokens, &|_| false)
    }

    #[test]
    fn free_fn_with_calls_and_panics() {
        let p = parse("fn f(x: u64) -> u64 { g(x); h.unwrap(); v[0] }");
        assert_eq!(p.fns.len(), 1);
        let f = &p.fns[0];
        assert_eq!(f.name, "f");
        assert_eq!(f.owner, None);
        assert!(!f.has_self);
        assert!(f.calls.iter().any(|c| c.name == "g" && !c.is_method));
        // `.unwrap()` is recorded as a method call too — resolution
        // discards it (no workspace fn named unwrap), and the panic
        // site below is what the passes use.
        assert!(f.calls.iter().all(|c| c.name != "v"));
        assert_eq!(f.panics.len(), 2);
        assert_eq!(f.panics[0].kind, PanicKind::Unwrap);
        assert_eq!(f.panics[1].kind, PanicKind::Index);
    }

    #[test]
    fn impl_methods_get_their_owner() {
        let p = parse(
            "impl Machine { fn step(&mut self) { self.issue(); Hierarchy::advance(1); } }\n\
             impl Display for SimError { fn fmt(&self) {} }",
        );
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[0].qualified(), "Machine::step");
        assert!(p.fns[0].has_self);
        let calls = &p.fns[0].calls;
        assert!(calls.iter().any(|c| c.name == "issue" && c.is_method));
        assert!(calls
            .iter()
            .any(|c| c.name == "advance" && c.qualifier.as_deref() == Some("Hierarchy")));
        assert_eq!(
            p.fns[1].qualified(),
            "SimError::fmt",
            "trait impl owner is the Self type"
        );
    }

    #[test]
    fn visibility_and_trait_impls() {
        let p = parse(
            "pub fn a() {}\npub(crate) fn b() {}\npub const unsafe fn c() {}\n\
             pub extern \"C\" fn d() {}\nfn e() {}\n\
             impl S { pub fn f(&self) {} pub(super) fn g() {} }\n\
             impl<T> Display for S<T> { fn fmt(&self) {} }\n\
             mod m { pub fn h() {} }",
        );
        let facts: Vec<(&str, bool, bool)> = p
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.is_pub, f.in_trait_impl))
            .collect();
        assert_eq!(
            facts,
            vec![
                ("a", true, false),
                ("b", false, false),
                ("c", true, false),
                ("d", true, false),
                ("e", false, false),
                ("f", true, false),
                ("g", false, false),
                ("fmt", false, true),
                ("h", true, false),
            ]
        );
    }

    #[test]
    fn generic_impl_and_self_qualifier() {
        let p = parse("impl<T: Clone> Pool<T> { fn spawn(&self) { Self::join(); } }");
        assert_eq!(p.fns[0].qualified(), "Pool::spawn");
        assert_eq!(p.fns[0].calls[0].qualifier.as_deref(), Some("Pool"));
    }

    #[test]
    fn struct_fields_and_types() {
        let p = parse("pub struct S { pub a: BTreeMap<String, u64>, b: Vec<u8> }");
        assert_eq!(p.structs.len(), 1);
        assert_eq!(p.structs[0].fields.len(), 2);
        assert_eq!(p.structs[0].fields[0].0, "a");
        assert!(p.structs[0].fields[0].1.contains("BTreeMap"));
        assert_eq!(p.structs[0].fields[1].0, "b");
    }

    #[test]
    fn enum_variants_skip_payloads_and_attrs() {
        let p = parse("pub enum E { A, B { x: u64, y: Vec<u8> }, #[doc = \"d\"] C(u32), D = 4 }");
        assert_eq!(p.enums.len(), 1);
        assert_eq!(p.enums[0].variants, vec!["A", "B", "C", "D"]);
    }

    #[test]
    fn match_mentions_and_wildcards() {
        let p = parse("fn f(e: E) -> u32 { match e { E::A => 1, E::B { .. } => 2, _ => 0 } }");
        assert_eq!(p.matches.len(), 1);
        let m = &p.matches[0];
        assert!(m.has_wildcard);
        assert_eq!(
            m.mentions,
            vec![("E".into(), "A".into()), ("E".into(), "B".into())]
        );
    }

    #[test]
    fn taint_and_iter_sites() {
        let p = parse(
            "fn f(&self) { let t = Instant::now(); let v = std::env::var(\"X\"); \
             for k in &self.seen { } self.m.keys().count(); local.iter().sum() }",
        );
        let f = &p.fns[0];
        assert_eq!(f.taints.len(), 2);
        assert_eq!(f.taints[0].what, "Instant::now");
        assert_eq!(f.taints[1].what, "env::var");
        assert_eq!(f.iters.len(), 3);
        assert!(f.iters[0].via_self && f.iters[0].name == "seen");
        assert!(f.iters[1].via_self && f.iters[1].name == "m" && f.iters[1].how == "keys");
        assert!(!f.iters[2].via_self && f.iters[2].name == "local");
    }

    #[test]
    fn fn_reference_without_parens_is_a_call_edge() {
        let p = parse("fn f(xs: &[u8]) { xs.iter().map(Self::parse); }");
        // No owner: Self stays Self, but the edge exists.
        assert!(p.fns[0].calls.iter().any(|c| c.name == "parse"));
    }

    #[test]
    fn trait_declarations_have_empty_bodies() {
        let p = parse("trait T { fn required(&self) -> u64; fn provided(&self) -> u64 { 1 } }");
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[0].body.0, p.fns[0].body.1);
        assert!(p.fns[1].body.1 > p.fns[1].body.0);
    }

    #[test]
    fn degenerate_input_does_not_panic() {
        for src in [
            "",
            "fn",
            "fn {",
            "impl {",
            "impl for {",
            "struct",
            "enum E {",
            "match {",
            "fn f( {",
            "impl<T Pool<T> { fn a() {} }",
            "}}}})))]]]",
        ] {
            let _ = parse(src);
        }
    }
}
