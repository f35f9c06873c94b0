//! Phase 1 of the two-phase analyzer: the **workspace model**.
//!
//! The per-file rules in [`crate::rules`] see one token stream at a
//! time; the invariants the concurrent `Solver` session rests on are
//! cross-file (lock acquisition order across `engine.rs` and
//! `pool.rs`, epoch discipline on cache keys, allocation reachability
//! from hot kernels, the public API surface). This module builds the
//! symbol model those rules need from the same test-stripped token
//! streams:
//!
//! - a per-file **item tree**: fns (with owner impl/trait, receiver,
//!   params, normalized signature), structs (with field types),
//!   enums, traits, consts/statics/type aliases, and `use` edges —
//!   each with its visibility — plus every `static` wherever it is
//!   declared;
//! - a **name-resolution-lite call graph**: free calls resolve to
//!   same-named free fns, `Type::method(..)` to methods of `Type`,
//!   and `recv.method(..)` through a typing environment (`self` →
//!   enclosing impl target, params and fields by their declared type
//!   — following chains like `self.cache.map`);
//! - **lock-acquisition sites** with guard live scopes: direct
//!   `.lock()` / `.read()` / `.write()` on resolved `Mutex`/`RwLock`
//!   fields, calls through guard-returning helpers (`lock(&m)`,
//!   `ScratchPool::free`), condvar waits, `drop(guard)` kills, and
//!   brace-scope ends — as an ordered event stream per fn body;
//! - the extracted **cache-family key types**: structs holding a
//!   `Mutex<BTreeMap<K, _>>`-shaped field, with generic keys resolved
//!   to their concrete instantiations (`SketchKey`, `CelfKey`, ...).
//!
//! The model deliberately over-approximates nothing it cannot see: a
//! call whose receiver type cannot be resolved produces no graph
//! edge. That keeps the cross-file rules free of false positives at
//! the cost of missing exotic dynamic dispatch — acceptable for a
//! lint whose findings must all be actionable.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{lex, TokKind, Token};
use crate::rules::strip_test_code;

/// Keywords that can never be call targets or item names.
const KEYWORDS: [&str; 30] = [
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "let", "fn",
    "in", "as", "move", "ref", "mut", "pub", "use", "mod", "struct", "enum", "trait", "impl",
    "type", "const", "static", "unsafe", "where", "dyn", "crate",
];

/// Primitive key types that cannot carry an epoch field (the epoch
/// must then travel through the lookup call instead).
const PRIMITIVES: [&str; 14] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "bool",
    "char",
];

/// How a method takes `self`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Receiver {
    /// A free function (no receiver).
    None,
    /// `&self`.
    Ref,
    /// `&mut self`.
    RefMut,
    /// `self` / `mut self` by value.
    Owned,
}

/// One call site inside a fn body.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// The called name (`foo` in `foo(..)`, `a.foo(..)`, `T::foo(..)`).
    pub callee: String,
    /// `Some("T")` for a `T::foo(..)` path call.
    pub qualifier: Option<String>,
    /// `true` for `recv.foo(..)` method-call syntax.
    pub method: bool,
    /// The dotted receiver chain for a method call (`["self","cache"]`
    /// for `self.cache.foo(..)`); `None` when the receiver is not a
    /// plain ident/field chain (call results, indexed expressions).
    pub receiver: Option<Vec<String>>,
    /// 1-based source line.
    pub line: usize,
}

/// One entry in a fn body's ordered event stream (lock model).
#[derive(Clone, Debug)]
pub enum BodyEvent {
    /// A lock acquisition resolved to a known `Struct.field` mutex.
    Acquire {
        /// The lock identity (`"FamilyCache.map"`).
        lock: String,
        /// `let`-bound guard name, if the acquisition initializes one
        /// (`None` = statement-scoped temporary).
        binding: Option<String>,
        /// Brace depth (relative to the body) the guard lives at.
        depth: usize,
        /// 1-based source line.
        line: usize,
    },
    /// A resolved call site (index into [`FnItem::calls`]).
    Call {
        /// Index into the fn's call list.
        index: usize,
        /// 1-based source line.
        line: usize,
    },
    /// A direct condvar `.wait(..)` on a resolved `Condvar` field.
    Wait {
        /// 1-based source line.
        line: usize,
    },
    /// `drop(name)` — explicit guard death.
    Drop {
        /// The dropped binding.
        name: String,
        /// Brace depth (relative to the body) of the `drop` call.
        depth: usize,
    },
    /// A `}` closed; guards living deeper than `depth` die.
    Close {
        /// Brace depth after the close.
        depth: usize,
    },
    /// A `;` at statement level; temporary guards die.
    Stmt,
}

/// One function (free fn, inherent/trait-impl method, trait item).
#[derive(Clone, Debug)]
pub struct FnItem {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// The fn name.
    pub name: String,
    /// Enclosing impl target or trait name, if any.
    pub owner: Option<String>,
    /// `true` inside `impl Trait for Type`.
    pub trait_impl: bool,
    /// `true` for unrestricted `pub` (not `pub(crate)`).
    pub is_pub: bool,
    /// `true` for a fn declared inside a `trait { .. }` body.
    pub in_trait: bool,
    /// How the fn takes `self`.
    pub receiver: Receiver,
    /// Parameters: name plus declared type token texts.
    pub params: Vec<(String, Vec<String>)>,
    /// Normalized signature (tokens space-joined, literals as `_`).
    pub signature: String,
    /// File index into [`WorkspaceModel::files`].
    pub file_index: usize,
    /// Token range of the body (`{`-exclusive), empty if bodyless.
    pub body: (usize, usize),
    /// Extracted call sites (populated by the second pass).
    pub calls: Vec<CallSite>,
    /// Ordered lock-model events (populated by the second pass).
    pub events: Vec<BodyEvent>,
    /// `self.<field> = ..` / `self.<field> op= ..` assignments.
    pub self_assigns: Vec<(String, usize)>,
    /// `true` if the body bumps or assigns `self.epoch`.
    pub bumps_epoch: bool,
    /// `true` if the fn locks a `Mutex` passed as one of its own
    /// params (the caller names the lock; `lock(&m)` helper shape).
    pub passthrough_lock: bool,
    /// The lock this fn's returned `MutexGuard` holds, if its
    /// signature returns a guard of a resolved field lock.
    pub returns_guard: Option<String>,
    /// `true` if the body waits on a resolved `Condvar` field.
    pub direct_waits: bool,
}

/// One named struct field.
#[derive(Clone, Debug)]
pub struct FieldItem {
    /// Field name.
    pub name: String,
    /// `true` for unrestricted `pub`.
    pub is_pub: bool,
    /// 1-based line.
    pub line: usize,
    /// Declared type token texts.
    pub ty: Vec<String>,
}

/// One struct with named fields (tuple/unit structs keep an empty
/// field list).
#[derive(Clone, Debug)]
pub struct StructItem {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Struct name.
    pub name: String,
    /// `true` for unrestricted `pub`.
    pub is_pub: bool,
    /// Generic type parameter names.
    pub generics: Vec<String>,
    /// Named fields.
    pub fields: Vec<FieldItem>,
    /// `true` if any field's type mentions `Condvar` — the struct is
    /// then a condvar latch and its mutexes are latch-internal.
    pub has_condvar: bool,
}

/// A non-fn, non-struct surface item (enum, trait, const, static,
/// type alias, `use`), kept for the public-API baseline.
#[derive(Clone, Debug)]
pub struct SurfaceItem {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Item kind (`"enum"`, `"trait"`, `"const"`, `"static"`,
    /// `"type"`, `"use"`, `"enum-variant"`).
    pub kind: String,
    /// Item name (or `enum::Variant` for variants).
    pub name: String,
    /// Normalized declaration detail (type/path tokens).
    pub detail: String,
    /// `true` for unrestricted `pub`.
    pub is_pub: bool,
}

/// One lexed file in the model.
#[derive(Debug)]
pub struct FileModel {
    /// Workspace-relative forward-slash path.
    pub path: String,
    /// The stripped (test-free) token stream.
    pub tokens: Vec<Token>,
}

/// A cache family: a struct holding a synchronized keyed map.
#[derive(Clone, Debug)]
pub struct CacheFamily {
    /// The family struct name (`FamilyCache` for every engine cache).
    pub struct_name: String,
    /// The key type as declared (may be a generic param name).
    pub declared_key: String,
    /// `true` if `declared_key` is one of the struct's generics.
    pub generic_key: bool,
    /// Concrete key type names this family is instantiated with.
    pub concrete_keys: Vec<String>,
}

/// The phase-1 workspace model the cross-file rules run against.
#[derive(Debug, Default)]
pub struct WorkspaceModel {
    /// All lexed files in model scope.
    pub files: Vec<FileModel>,
    /// All functions.
    pub fns: Vec<FnItem>,
    /// All structs.
    pub structs: Vec<StructItem>,
    /// Non-fn surface items.
    pub surface: Vec<SurfaceItem>,
    /// Every `static` item, public or not, wherever it is declared
    /// (module level, fn bodies, `thread_local!`).
    pub statics: Vec<SurfaceItem>,
    /// Cache families extracted from the struct table.
    pub families: Vec<CacheFamily>,
    /// Name → struct indices.
    struct_index: BTreeMap<String, Vec<usize>>,
    /// Name → fn indices.
    fn_index: BTreeMap<String, Vec<usize>>,
}

impl WorkspaceModel {
    /// Builds the model from `(path, source)` pairs. Test code
    /// (`#[cfg(test)]` items) is stripped before parsing, so the
    /// model sees exactly what ships.
    #[must_use]
    pub fn from_sources(sources: &[(&str, &str)]) -> Self {
        Self::from_files(
            sources
                .iter()
                .map(|(path, source)| FileModel {
                    path: (*path).to_owned(),
                    tokens: strip_test_code(&lex(source).tokens),
                })
                .collect(),
        )
    }

    /// Builds the model from already lexed, test-stripped files.
    #[must_use]
    pub(crate) fn from_files(files: Vec<FileModel>) -> Self {
        let mut model = WorkspaceModel::default();
        for (file_index, file) in files.iter().enumerate() {
            let toks = &file.tokens;
            parse_items(
                &mut model,
                toks,
                0,
                toks.len(),
                &file.path,
                file_index,
                None,
                false,
                false,
            );
            // `'static` lexes as a lifetime, so the keyword is always
            // a `static` item.
            for kw in 0..toks.len() {
                if toks[kw].is_ident("static") {
                    let (item, _) = value_item(toks, kw, toks.len(), &file.path, false);
                    model.statics.push(item);
                }
            }
        }
        model.files = files;
        for (i, s) in model.structs.iter().enumerate() {
            model
                .struct_index
                .entry(s.name.clone())
                .or_default()
                .push(i);
        }
        for (i, f) in model.fns.iter().enumerate() {
            model.fn_index.entry(f.name.clone()).or_default().push(i);
        }
        model.scan_bodies();
        model.extract_families();
        model
    }

    /// Struct lookup by name (first declaration wins on collision).
    #[must_use]
    pub fn struct_named(&self, name: &str) -> Option<&StructItem> {
        self.struct_index
            .get(name)
            .and_then(|v| v.first())
            .map(|&i| &self.structs[i])
    }

    /// All fns with the given name.
    #[must_use]
    pub fn fns_named(&self, name: &str) -> Vec<usize> {
        self.fn_index.get(name).cloned().unwrap_or_default()
    }

    /// Resolves one call site in the context of `caller` to fn
    /// indices. Resolution is deliberately conservative: unresolvable
    /// receivers produce no targets.
    #[must_use]
    pub fn resolve_call(&self, caller: &FnItem, call: &CallSite) -> Vec<usize> {
        let candidates = self.fns_named(&call.callee);
        if candidates.is_empty() {
            return Vec::new();
        }
        if let Some(q) = &call.qualifier {
            // `T::foo(..)` — methods of T; `Self::foo(..)` uses the
            // caller's owner.
            let target = if q == "Self" {
                caller.owner.clone()
            } else {
                Some(q.clone())
            };
            return candidates
                .into_iter()
                .filter(|&i| self.fns[i].owner == target)
                .collect();
        }
        if call.method {
            // `recv.foo(..)` — resolve the receiver chain to a
            // struct; an unresolvable receiver (call result, index
            // expression, untyped local) yields no edge at all.
            let Some(ty) = call
                .receiver
                .as_ref()
                .and_then(|chain| self.resolve_chain_type(caller, chain))
            else {
                return Vec::new();
            };
            return candidates
                .into_iter()
                .filter(|&i| self.fns[i].owner.as_deref() == Some(ty.as_str()))
                .collect();
        }
        // Bare `foo(..)` — free fns only (methods need a receiver).
        candidates
            .into_iter()
            .filter(|&i| self.fns[i].owner.is_none())
            .collect()
    }

    /// Types a dotted ident chain (`self.cache` → `ArtifactCache`)
    /// against the caller's environment: `self` is the owner, a first
    /// segment may be a typed param, later segments are fields.
    fn resolve_chain_type(&self, caller: &FnItem, chain: &[String]) -> Option<String> {
        let (mut ty, rest) = self.chain_root(caller, chain)?;
        for seg in rest {
            let s = self.struct_named(&ty)?;
            let field = s.fields.iter().find(|f| &f.name == seg)?;
            ty = self.first_workspace_struct(&field.ty)?;
        }
        Some(ty)
    }

    /// Resolves the chain to its final field: `(owning struct, field)`
    /// for `self.a.b` shapes. `None` when any hop is unknown.
    fn resolve_chain_field(&self, caller: &FnItem, chain: &[String]) -> Option<(String, String)> {
        if chain.len() < 2 && !(chain.len() == 1 && caller.owner.is_some()) {
            return None;
        }
        let (field_name, prefix) = chain.split_last()?;
        let owner_ty = if prefix.is_empty() {
            caller.owner.clone()?
        } else {
            self.resolve_chain_type(caller, prefix)?
        };
        let s = self.struct_named(&owner_ty)?;
        s.fields
            .iter()
            .any(|f| &f.name == field_name)
            .then(|| (owner_ty, field_name.clone()))
    }

    /// The root of a chain: `self` → owner type, else a typed param.
    fn chain_root<'c>(
        &self,
        caller: &FnItem,
        chain: &'c [String],
    ) -> Option<(String, &'c [String])> {
        let (first, rest) = chain.split_first()?;
        if first == "self" {
            return Some((caller.owner.clone()?, rest));
        }
        let (_, ty) = caller.params.iter().find(|(n, _)| n == first)?;
        Some((self.first_workspace_struct(ty)?, rest))
    }

    /// First ident in a type token list that names a workspace struct
    /// (skips wrappers like `Arc`, `Option`, references).
    ///
    /// Structs defined in the `lcrb-sync` facade (`Mutex`,
    /// `MutexGuard`, `Condvar`, the scope types) are treated as
    /// transparent synchronization primitives, exactly like their
    /// `std::sync` namesakes: a field typed `Mutex<..>` is a lock
    /// (see [`Self::is_lock_field`]), not a chain hop into the
    /// facade crate — resolving into it would rewrite every other
    /// crate's chain typing now that the facade is in model scope.
    fn first_workspace_struct(&self, ty: &[String]) -> Option<String> {
        ty.iter()
            .find(|t| {
                self.struct_index.get(t.as_str()).is_some_and(|defs| {
                    defs.iter()
                        .any(|&i| !self.structs[i].file.starts_with("crates/sync/"))
                })
            })
            .cloned()
    }

    /// `true` if the field's declared type is a `Mutex`/`RwLock`.
    fn is_lock_field(field: &FieldItem) -> bool {
        field.ty.iter().any(|t| t == "Mutex" || t == "RwLock")
    }

    /// `true` if `lock` (a `Struct.field` id) belongs to a condvar
    /// latch struct — its mutex is part of the wait protocol and is
    /// exempt from the gate-wait-under-lock rule.
    #[must_use]
    pub fn is_latch_lock(&self, lock: &str) -> bool {
        lock.split_once('.')
            .and_then(|(s, _)| self.struct_named(s))
            .is_some_and(|s| s.has_condvar)
    }

    /// Second pass: with the full struct table known, scan every fn
    /// body for calls, lock events, waits, and self-assignments.
    fn scan_bodies(&mut self) {
        // Pass 2a: direct lock info (passthrough / guard-returning),
        // needed before call sites can be classified.
        for fi in 0..self.fns.len() {
            let f = &self.fns[fi];
            let toks = &self.files[f.file_index].tokens;
            let (start, end) = f.body;
            let mut passthrough = false;
            let mut first_direct: Option<String> = None;
            let mut i = start;
            while i + 2 < end {
                let is_acquire = toks[i].is_punct('.')
                    && matches!(toks[i + 1].text.as_str(), "lock" | "read" | "write")
                    && toks[i + 1].kind == TokKind::Ident
                    && toks[i + 2].is_punct('(');
                if is_acquire {
                    if let Some(chain) = receiver_chain(toks, i) {
                        if let Some((s, fld)) = self.resolve_chain_field(&self.fns[fi], &chain) {
                            if self.lock_id(&s, &fld).is_some() && first_direct.is_none() {
                                first_direct = Some(format!("{s}.{fld}"));
                            }
                        } else if chain.len() == 1 {
                            let f = &self.fns[fi];
                            if f.params.iter().any(|(n, ty)| {
                                n == &chain[0] && ty.iter().any(|t| t == "Mutex" || t == "RwLock")
                            }) {
                                passthrough = true;
                            }
                        }
                    }
                }
                i += 1;
            }
            let sig_guard = self.fns[fi].signature.contains("Guard");
            self.fns[fi].passthrough_lock = passthrough;
            self.fns[fi].returns_guard = if sig_guard { first_direct } else { None };
        }
        // A guard-returning fn may take its guard through a passthrough
        // helper (`lock(&self.map)`) instead of a direct `.lock()`.
        for fi in 0..self.fns.len() {
            let f = &self.fns[fi];
            if f.returns_guard.is_some() || !f.signature.contains("Guard") {
                continue;
            }
            let toks = &self.files[f.file_index].tokens;
            let (start, end) = f.body;
            let through_helper = (start..end).find_map(|i| {
                let call = call_site_at(toks, start, i)?;
                let &ti = self.resolve_call(f, &call).first()?;
                self.passthrough_lock_at(f, &self.fns[ti], toks, i, end)
            });
            self.fns[fi].returns_guard = through_helper;
        }
        // Pass 2b: the full ordered event stream.
        for fi in 0..self.fns.len() {
            let scanned = self.scan_one_body(fi);
            let f = &mut self.fns[fi];
            f.calls = scanned.calls;
            f.events = scanned.events;
            f.self_assigns = scanned.self_assigns;
            f.bumps_epoch = scanned.bumps_epoch;
            f.direct_waits = scanned.direct_waits;
        }
    }

    /// `Some("Struct.field")` if the field is a mutex of that struct.
    fn lock_id(&self, struct_name: &str, field: &str) -> Option<String> {
        let s = self.struct_named(struct_name)?;
        let f = s.fields.iter().find(|f| f.name == field)?;
        Self::is_lock_field(f).then(|| format!("{struct_name}.{field}"))
    }

    fn scan_one_body(&self, fi: usize) -> ScannedBody {
        let f = &self.fns[fi];
        let toks = &self.files[f.file_index].tokens;
        let (start, end) = f.body;
        let mut out = ScannedBody::default();
        let mut depth = 0usize;
        // `let [mut] name =` seen; the next acquisition in the
        // initializer binds the guard to `name`.
        let mut pending_let: Option<(String, usize)> = None;
        let mut i = start;
        while i < end {
            let t = &toks[i];
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth = depth.saturating_sub(1);
                out.events.push(BodyEvent::Close { depth });
            } else if t.is_punct(';') {
                out.events.push(BodyEvent::Stmt);
                pending_let = None;
            } else if t.is_ident("let") {
                let mut j = i + 1;
                if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                    j += 1;
                }
                if let (Some(name), Some(eq)) = (toks.get(j), toks.get(j + 1)) {
                    if name.kind == TokKind::Ident && eq.is_punct('=') {
                        pending_let = Some((name.text.clone(), depth));
                    }
                }
            } else if t.is_ident("drop")
                && toks.get(i + 1).is_some_and(|p| p.is_punct('('))
                && toks.get(i + 2).is_some_and(|n| n.kind == TokKind::Ident)
                && toks.get(i + 3).is_some_and(|p| p.is_punct(')'))
            {
                out.events.push(BodyEvent::Drop {
                    name: toks[i + 2].text.clone(),
                    depth,
                });
                i += 4;
                continue;
            } else if t.is_punct('.')
                && toks.get(i + 1).is_some_and(|m| {
                    m.kind == TokKind::Ident && matches!(m.text.as_str(), "lock" | "read" | "write")
                })
                && toks.get(i + 2).is_some_and(|p| p.is_punct('('))
            {
                // Direct acquisition on a resolved mutex field.
                if let Some(chain) = receiver_chain(toks, i) {
                    if let Some((s, fld)) = self.resolve_chain_field(f, &chain) {
                        if let Some(lock) = self.lock_id(&s, &fld) {
                            let binding = pending_let.take().map(|(n, _)| n);
                            out.events.push(BodyEvent::Acquire {
                                lock,
                                binding,
                                depth,
                                line: t.line,
                            });
                        }
                    }
                }
                i += 3;
                continue;
            } else if t.is_punct('.')
                && toks.get(i + 1).is_some_and(|m| m.is_ident("wait"))
                && toks.get(i + 2).is_some_and(|p| p.is_punct('('))
            {
                // `cv.wait(..)` on a resolved Condvar field is a
                // direct wait; otherwise fall through to the method
                // call logic (name-based wait propagation).
                let cond_field = receiver_chain(toks, i)
                    .and_then(|c| self.resolve_chain_field(f, &c))
                    .and_then(|(s, fld)| {
                        let st = self.struct_named(&s)?;
                        let fld = st.fields.iter().find(|fi| fi.name == fld)?;
                        fld.ty.iter().any(|t| t == "Condvar").then_some(())
                    })
                    .is_some();
                if cond_field {
                    out.direct_waits = true;
                    out.events.push(BodyEvent::Wait { line: t.line });
                    i += 3;
                    continue;
                }
            }
            // `self.field = ..` / `self.field op= ..` assignment.
            if t.is_ident("self")
                && toks.get(i + 1).is_some_and(|p| p.is_punct('.'))
                && toks.get(i + 2).is_some_and(|n| n.kind == TokKind::Ident)
            {
                let field = &toks[i + 2].text;
                let a = toks.get(i + 3);
                let b = toks.get(i + 4);
                let plain_assign =
                    a.is_some_and(|p| p.is_punct('=')) && !b.is_some_and(|p| p.is_punct('='));
                let compound = a
                    .is_some_and(|p| p.kind == TokKind::Punct && "+-*/%&|^".contains(&p.text))
                    && b.is_some_and(|p| p.is_punct('='));
                if plain_assign || compound {
                    if field == "epoch" {
                        out.bumps_epoch = true;
                    }
                    out.self_assigns.push((field.clone(), t.line));
                }
            }
            if let Some(call) = call_site_at(toks, start, i) {
                // Acquisition-through-helper: a resolved call to a
                // guard-returning or lock-passthrough fn is a lock
                // event at this site. A guard-returning fn's call stays
                // in the stream, ahead of the acquisition, so what it
                // does before handing the guard back (a gate wait)
                // still propagates to this caller.
                let target = self.resolve_call(f, &call).first().map(|&ti| &self.fns[ti]);
                let returned = target.and_then(|h| h.returns_guard.clone());
                let lock = returned
                    .clone()
                    .or_else(|| self.passthrough_lock_at(f, target?, toks, i, end));
                if lock.is_none() || returned.is_some() {
                    out.events.push(BodyEvent::Call {
                        index: out.calls.len(),
                        line: t.line,
                    });
                    out.calls.push(call);
                }
                if let Some(lock) = lock {
                    let binding = pending_let.take().map(|(n, _)| n);
                    out.events.push(BodyEvent::Acquire {
                        lock,
                        binding,
                        depth,
                        line: t.line,
                    });
                }
            }
            i += 1;
        }
        out
    }

    /// The lock a call at `call_ident` to `target` takes when `target`
    /// is a passthrough helper: the lock its argument list names
    /// (`lock(&self.map)`), resolved to a mutex field.
    fn passthrough_lock_at(
        &self,
        caller: &FnItem,
        target: &FnItem,
        toks: &[Token],
        call_ident: usize,
        end: usize,
    ) -> Option<String> {
        if !target.passthrough_lock {
            return None;
        }
        let chain = self.arg_chain(toks, call_ident, end)?;
        let (s, fld) = self.resolve_chain_field(caller, &chain)?;
        self.lock_id(&s, &fld)
    }

    /// The first dotted ident chain in a call's argument list
    /// (`lock(&self.map)` → `["self","map"]`).
    fn arg_chain(&self, toks: &[Token], call_ident: usize, end: usize) -> Option<Vec<String>> {
        let open = call_ident + 1;
        if !toks.get(open).is_some_and(|p| p.is_punct('(')) {
            return None;
        }
        let mut depth = 0usize;
        let mut i = open;
        let mut chain: Vec<String> = Vec::new();
        while i < end {
            let t = &toks[i];
            if t.is_punct('(') {
                depth += 1;
            } else if t.is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if t.kind == TokKind::Ident {
                chain.push(t.text.clone());
                // Extend through `.field` hops, then stop.
                let mut j = i + 1;
                while toks.get(j).is_some_and(|p| p.is_punct('.'))
                    && toks.get(j + 1).is_some_and(|n| n.kind == TokKind::Ident)
                {
                    chain.push(toks[j + 1].text.clone());
                    j += 2;
                }
                break;
            }
            i += 1;
        }
        (!chain.is_empty()).then_some(chain)
    }

    /// Extracts cache families: structs with a `Mutex<BTreeMap<K, _>>`
    /// (or `HashMap`) field, plus the concrete key types generic
    /// families are instantiated with elsewhere.
    fn extract_families(&mut self) {
        let mut families = Vec::new();
        for s in &self.structs {
            for f in &s.fields {
                if !Self::is_lock_field(f) {
                    continue;
                }
                let Some(map_pos) = f.ty.iter().position(|t| t == "BTreeMap" || t == "HashMap")
                else {
                    continue;
                };
                let Some(key) = first_type_arg(&f.ty[map_pos..]) else {
                    continue;
                };
                let generic_key = s.generics.contains(&key);
                let mut concrete: BTreeSet<String> = BTreeSet::new();
                if generic_key {
                    // Find instantiations: fields elsewhere typed
                    // `FamilyName<ConcreteKey, ..>`.
                    for other in &self.structs {
                        for of in &other.fields {
                            if let Some(pos) = of.ty.iter().position(|t| t == &s.name) {
                                if let Some(k) = first_type_arg(&of.ty[pos..]) {
                                    concrete.insert(k);
                                }
                            }
                        }
                    }
                } else {
                    concrete.insert(key.clone());
                }
                families.push(CacheFamily {
                    struct_name: s.name.clone(),
                    declared_key: key,
                    generic_key,
                    concrete_keys: concrete.into_iter().collect(),
                });
                break;
            }
        }
        self.families = families;
    }

    /// `true` if `name` is a primitive type (cannot carry fields).
    #[must_use]
    pub fn is_primitive(name: &str) -> bool {
        PRIMITIVES.contains(&name)
    }

    /// Transitive lock-acquisition sets per fn: every lock a call into
    /// this fn may take (directly or through callees). Latch locks are
    /// included; the rule pass filters.
    #[must_use]
    pub fn transitive_acquires(&self) -> Vec<BTreeSet<String>> {
        let mut memo: Vec<Option<BTreeSet<String>>> = vec![None; self.fns.len()];
        for i in 0..self.fns.len() {
            self.acquires_dfs(i, &mut memo, &mut BTreeSet::new());
        }
        memo.into_iter().map(Option::unwrap_or_default).collect()
    }

    fn acquires_dfs(
        &self,
        fi: usize,
        memo: &mut Vec<Option<BTreeSet<String>>>,
        visiting: &mut BTreeSet<usize>,
    ) -> BTreeSet<String> {
        if let Some(done) = &memo[fi] {
            return done.clone();
        }
        if !visiting.insert(fi) {
            return BTreeSet::new(); // recursion cycle: fixed point below
        }
        let mut acc = BTreeSet::new();
        let f = &self.fns[fi];
        for ev in &f.events {
            if let BodyEvent::Acquire { lock, .. } = ev {
                acc.insert(lock.clone());
            }
        }
        if let Some(g) = &f.returns_guard {
            acc.insert(g.clone());
        }
        for call in &f.calls {
            for ti in self.resolve_call(f, call) {
                acc.extend(self.acquires_dfs(ti, memo, visiting));
            }
        }
        visiting.remove(&fi);
        memo[fi] = Some(acc.clone());
        acc
    }

    /// Transitive wait flags per fn: `true` if a call into this fn may
    /// block on a condvar. Method calls named `wait` with unresolved
    /// receivers propagate by name (waits are rare and the name is
    /// load-bearing in this codebase).
    #[must_use]
    pub fn transitive_waits(&self) -> Vec<bool> {
        let any_waiter_named =
            |name: &str, flags: &[bool]| -> bool { self.fns_named(name).iter().any(|&i| flags[i]) };
        let mut flags: Vec<bool> = self.fns.iter().map(|f| f.direct_waits).collect();
        // Fixed point: propagate through resolved calls and through
        // name-matched `wait` calls.
        loop {
            let mut changed = false;
            for fi in 0..self.fns.len() {
                if flags[fi] {
                    continue;
                }
                let f = &self.fns[fi];
                let mut hit = false;
                for call in &f.calls {
                    let targets = self.resolve_call(f, call);
                    if targets.iter().any(|&t| flags[t]) {
                        hit = true;
                        break;
                    }
                    if targets.is_empty()
                        && call.callee == "wait"
                        && call.method
                        && any_waiter_named("wait", &flags)
                    {
                        hit = true;
                        break;
                    }
                }
                if hit {
                    flags[fi] = true;
                    changed = true;
                }
            }
            if !changed {
                return flags;
            }
        }
    }
}

/// Result of one body scan.
#[derive(Debug, Default)]
struct ScannedBody {
    calls: Vec<CallSite>,
    events: Vec<BodyEvent>,
    self_assigns: Vec<(String, usize)>,
    bumps_epoch: bool,
    direct_waits: bool,
}

/// The call site at token `i` of a body starting at `start`: a
/// non-keyword ident followed by `(` or a `::<..>(` turbofish.
fn call_site_at(toks: &[Token], start: usize, i: usize) -> Option<CallSite> {
    let t = &toks[i];
    if t.kind != TokKind::Ident || KEYWORDS.contains(&t.text.as_str()) {
        return None;
    }
    let next_paren = toks.get(i + 1).is_some_and(|p| p.is_punct('('));
    let turbofish = toks.get(i + 1).is_some_and(|p| p.is_punct(':'))
        && toks.get(i + 2).is_some_and(|p| p.is_punct(':'))
        && toks.get(i + 3).is_some_and(|p| p.is_punct('<'));
    if !(next_paren || turbofish) {
        return None;
    }
    let method = i > start && toks[i - 1].is_punct('.');
    let qualifier = (!method
        && i >= start + 3
        && toks[i - 1].is_punct(':')
        && toks[i - 2].is_punct(':')
        && toks[i - 3].kind == TokKind::Ident)
        .then(|| toks[i - 3].text.clone());
    Some(CallSite {
        callee: t.text.clone(),
        qualifier,
        method,
        receiver: method.then(|| receiver_chain(toks, i - 1)).flatten(),
        line: t.line,
    })
}

/// Walks a dotted receiver chain backwards from the `.` at `dot`:
/// `self . cache . map` → `["self","cache","map"]`. `None` when the
/// chain starts at a call result or index expression.
fn receiver_chain(toks: &[Token], dot: usize) -> Option<Vec<String>> {
    let mut rev: Vec<String> = Vec::new();
    let mut i = dot;
    loop {
        // Expect ident before the dot.
        if i == 0 {
            break;
        }
        let prev = &toks[i - 1];
        if prev.kind != TokKind::Ident {
            if rev.is_empty() {
                return None; // `).lock()` / `].wait()` — unresolvable
            }
            break;
        }
        rev.push(prev.text.clone());
        if i < 2 || !toks[i - 2].is_punct('.') {
            break;
        }
        i -= 2;
    }
    if rev.is_empty() {
        return None;
    }
    rev.reverse();
    Some(rev)
}

/// First type argument of a generic application that starts at the
/// container ident (`BTreeMap < K , V >` tokens → `K`).
fn first_type_arg(ty: &[String]) -> Option<String> {
    let lt = ty.iter().position(|t| t == "<")?;
    let mut depth = 0usize;
    for t in &ty[lt..] {
        match t.as_str() {
            "<" => depth += 1,
            ">" => depth = depth.saturating_sub(1),
            "," if depth == 1 => break,
            _ if depth == 1
                && t.chars()
                    .next()
                    .is_some_and(|c| c.is_alphabetic() || c == '_') =>
            {
                return Some(t.clone());
            }
            _ => {}
        }
    }
    None
}

/// Parses the items in `toks[i..end]`, appending to the model.
/// `owner` is the enclosing impl/trait target; `in_trait` marks trait
/// bodies (methods may be bodyless).
#[allow(clippy::too_many_arguments)]
fn parse_items(
    model: &mut WorkspaceModel,
    toks: &[Token],
    mut i: usize,
    end: usize,
    path: &str,
    file_index: usize,
    owner: Option<&str>,
    trait_impl: bool,
    in_trait: bool,
) {
    while i < end {
        // Attributes.
        if toks[i].is_punct('#') {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_punct('!')) {
                j += 1;
            }
            if toks.get(j).is_some_and(|t| t.is_punct('[')) {
                i = skip_balanced(toks, j, end, '[', ']');
                continue;
            }
            i += 1;
            continue;
        }
        // Visibility.
        let mut is_pub = false;
        if toks[i].is_ident("pub") {
            is_pub = true;
            i += 1;
            if toks.get(i).is_some_and(|t| t.is_punct('(')) {
                is_pub = false; // pub(crate)/pub(super): not public API
                i = skip_balanced(toks, i, end, '(', ')');
            }
        }
        // Modifiers.
        while toks
            .get(i)
            .is_some_and(|t| t.is_ident("unsafe") || t.is_ident("async") || t.is_ident("default"))
        {
            i += 1;
        }
        let Some(t) = toks.get(i).filter(|_| i < end) else {
            return;
        };
        match t.text.as_str() {
            "fn" if t.kind == TokKind::Ident => {
                i = parse_fn(
                    model, toks, i, end, path, file_index, owner, trait_impl, in_trait, is_pub,
                );
            }
            "struct" if t.kind == TokKind::Ident => {
                i = parse_struct(model, toks, i, end, path, is_pub);
            }
            "enum" if t.kind == TokKind::Ident => {
                i = parse_enum(model, toks, i, end, path, is_pub);
            }
            "trait" if t.kind == TokKind::Ident => {
                let name = ident_after(toks, i, end).unwrap_or_default();
                model.surface.push(SurfaceItem {
                    file: path.to_owned(),
                    line: t.line,
                    kind: "trait".to_owned(),
                    name: name.clone(),
                    detail: String::new(),
                    is_pub,
                });
                let Some(open) = find_body_open(toks, i, end) else {
                    i = end;
                    continue;
                };
                let close = skip_balanced(toks, open, end, '{', '}');
                parse_items(
                    model,
                    toks,
                    open + 1,
                    close.saturating_sub(1),
                    path,
                    file_index,
                    Some(&name),
                    false,
                    true,
                );
                i = close;
            }
            "impl" if t.kind == TokKind::Ident => {
                i = parse_impl(model, toks, i, end, path, file_index);
            }
            "mod" if t.kind == TokKind::Ident => {
                // Inline module: recurse; external (`mod x;`): skip.
                let mut j = i + 2;
                while j < end && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
                    j += 1;
                }
                if toks.get(j).is_some_and(|t| t.is_punct('{')) {
                    let close = skip_balanced(toks, j, end, '{', '}');
                    parse_items(
                        model,
                        toks,
                        j + 1,
                        close.saturating_sub(1),
                        path,
                        file_index,
                        owner,
                        trait_impl,
                        in_trait,
                    );
                    i = close;
                } else {
                    i = j + 1;
                }
            }
            "use" if t.kind == TokKind::Ident => {
                let stop = next_semi(toks, i, end);
                if is_pub {
                    model.surface.push(SurfaceItem {
                        file: path.to_owned(),
                        line: t.line,
                        kind: "use".to_owned(),
                        name: String::new(),
                        detail: join_tokens(&toks[i + 1..stop.min(end)]),
                        is_pub,
                    });
                }
                i = stop + 1;
            }
            "const" | "static" if t.kind == TokKind::Ident => {
                // `const fn` is a fn; `const NAME: Ty = ..;` is an item.
                if toks.get(i + 1).is_some_and(|n| n.is_ident("fn")) {
                    i = parse_fn(
                        model,
                        toks,
                        i + 1,
                        end,
                        path,
                        file_index,
                        owner,
                        trait_impl,
                        in_trait,
                        is_pub,
                    );
                    continue;
                }
                let (item, stop) = value_item(toks, i, end, path, is_pub);
                if is_pub {
                    model.surface.push(item);
                }
                i = stop + 1;
            }
            "type" if t.kind == TokKind::Ident => {
                let name = ident_after(toks, i, end).unwrap_or_default();
                let stop = next_semi(toks, i, end);
                if is_pub {
                    model.surface.push(SurfaceItem {
                        file: path.to_owned(),
                        line: t.line,
                        kind: "type".to_owned(),
                        name,
                        detail: join_tokens(&toks[i + 1..stop.min(end)]),
                        is_pub,
                    });
                }
                i = stop + 1;
            }
            "macro_rules" if t.kind == TokKind::Ident => {
                // `macro_rules! name { .. }`
                let mut j = i + 1;
                while j < end && !toks[j].is_punct('{') {
                    j += 1;
                }
                i = if j < end {
                    skip_balanced(toks, j, end, '{', '}')
                } else {
                    end
                };
            }
            "extern" if t.kind == TokKind::Ident => {
                i += 1; // `extern crate ..;` / `extern "C" ..` — resync below
            }
            _ => {
                // Unknown at item level: resynchronize at the next `;`
                // or balanced block.
                let mut j = i;
                while j < end && !toks[j].is_punct(';') && !toks[j].is_punct('{') {
                    j += 1;
                }
                i = if toks.get(j).is_some_and(|t| t.is_punct('{')) {
                    skip_balanced(toks, j, end, '{', '}')
                } else {
                    j + 1
                };
            }
        }
    }
}

/// Parses a fn item starting at its `fn` keyword; returns the index
/// just past the item.
#[allow(clippy::too_many_arguments)]
fn parse_fn(
    model: &mut WorkspaceModel,
    toks: &[Token],
    fn_kw: usize,
    end: usize,
    path: &str,
    file_index: usize,
    owner: Option<&str>,
    trait_impl: bool,
    in_trait: bool,
    is_pub: bool,
) -> usize {
    let line = toks[fn_kw].line;
    let name = ident_after(toks, fn_kw, end).unwrap_or_default();
    // Find the parameter list `(`, skipping generics.
    let mut j = fn_kw + 2;
    if toks.get(j).is_some_and(|t| t.is_punct('<')) {
        j = skip_angles(toks, j, end);
    }
    let params_open = j;
    let params_close = if toks.get(j).is_some_and(|t| t.is_punct('(')) {
        skip_balanced(toks, j, end, '(', ')')
    } else {
        j
    };
    let (receiver, params) = parse_params(toks, params_open, params_close);
    // Signature runs to the body `{` (at bracket depth 0) or a `;`.
    let mut k = params_close;
    let mut paren = 0i64;
    let mut body_open: Option<usize> = None;
    while k < end {
        let t = &toks[k];
        if t.is_punct('(') || t.is_punct('[') {
            paren += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            paren -= 1;
        } else if t.is_punct('{') && paren == 0 {
            body_open = Some(k);
            break;
        } else if t.is_punct(';') && paren == 0 {
            break;
        }
        k += 1;
    }
    let sig_end = body_open.unwrap_or(k);
    let signature = join_tokens(&toks[fn_kw..sig_end.min(end)]);
    let (body, item_end) = match body_open {
        Some(open) => {
            let close = skip_balanced(toks, open, end, '{', '}');
            ((open + 1, close.saturating_sub(1)), close)
        }
        None => ((0, 0), k + 1),
    };
    model.fns.push(FnItem {
        file: path.to_owned(),
        line,
        name,
        owner: owner.map(ToOwned::to_owned),
        trait_impl,
        is_pub,
        in_trait,
        receiver,
        params,
        signature,
        file_index,
        body,
        calls: Vec::new(),
        events: Vec::new(),
        self_assigns: Vec::new(),
        bumps_epoch: false,
        passthrough_lock: false,
        returns_guard: None,
        direct_waits: false,
    });
    item_end
}

/// Parses `( .. )` parameters: the receiver plus `name: Type` pairs.
fn parse_params(
    toks: &[Token],
    open: usize,
    close: usize,
) -> (Receiver, Vec<(String, Vec<String>)>) {
    if close <= open + 1 {
        return (Receiver::None, Vec::new());
    }
    let inner = &toks[open + 1..close.saturating_sub(1).max(open + 1)];
    // Split on top-level commas.
    let mut parts: Vec<&[Token]> = Vec::new();
    let mut depth = 0i64;
    let mut last = 0usize;
    for (i, t) in inner.iter().enumerate() {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
            depth += 1;
        } else if t.is_punct(')')
            || t.is_punct(']')
            || (t.is_punct('>') && depth > 0 && !(i > 0 && inner[i - 1].is_punct('-')))
        {
            depth -= 1;
        } else if t.is_punct(',') && depth == 0 {
            parts.push(&inner[last..i]);
            last = i + 1;
        }
    }
    if last < inner.len() {
        parts.push(&inner[last..]);
    }
    let mut receiver = Receiver::None;
    let mut params = Vec::new();
    for (pi, part) in parts.iter().enumerate() {
        let idents: Vec<&Token> = part
            .iter()
            .filter(|t| t.kind == TokKind::Ident || t.kind == TokKind::Punct)
            .collect();
        if pi == 0 {
            let has_self = idents.iter().any(|t| t.is_ident("self"));
            if has_self {
                let has_amp = idents.iter().any(|t| t.is_punct('&'));
                let has_mut = idents.iter().any(|t| t.is_ident("mut"));
                receiver = match (has_amp, has_mut) {
                    (true, true) => Receiver::RefMut,
                    (true, false) => Receiver::Ref,
                    (false, _) => Receiver::Owned,
                };
                continue;
            }
        }
        // `name : Type` — skip destructuring patterns.
        let Some(colon) = part.iter().position(|t| t.is_punct(':')) else {
            continue;
        };
        if colon == 0 || part[colon - 1].kind != TokKind::Ident {
            continue;
        }
        let name = part[colon - 1].text.clone();
        let ty = part[colon + 1..]
            .iter()
            .map(render_token)
            .collect::<Vec<_>>();
        params.push((name, ty));
    }
    (receiver, params)
}

/// Parses a struct item; returns the index just past it.
fn parse_struct(
    model: &mut WorkspaceModel,
    toks: &[Token],
    kw: usize,
    end: usize,
    path: &str,
    is_pub: bool,
) -> usize {
    let line = toks[kw].line;
    let name = ident_after(toks, kw, end).unwrap_or_default();
    let mut generics = Vec::new();
    let mut j = kw + 2;
    if toks.get(j).is_some_and(|t| t.is_punct('<')) {
        let close = skip_angles(toks, j, end);
        // Type params: idents directly after `<` or a top-level `,`.
        let mut depth = 0usize;
        let mut expect = false;
        for t in &toks[j..close] {
            if t.is_punct('<') {
                depth += 1;
                expect = depth == 1;
            } else if t.is_punct('>') {
                depth = depth.saturating_sub(1);
            } else if t.is_punct(',') && depth == 1 {
                expect = true;
            } else if expect {
                if t.kind == TokKind::Ident && !t.is_ident("const") {
                    generics.push(t.text.clone());
                    expect = false;
                } else if t.kind == TokKind::Lifetime {
                    expect = true; // skip lifetimes, keep looking
                }
            }
        }
        j = close;
    }
    // Unit / tuple / named-field body.
    let mut fields = Vec::new();
    let item_end;
    loop {
        let Some(t) = toks.get(j).filter(|_| j < end) else {
            item_end = end;
            break;
        };
        if t.is_punct(';') {
            item_end = j + 1;
            break;
        }
        if t.is_punct('(') {
            j = skip_balanced(toks, j, end, '(', ')');
            continue;
        }
        if t.is_punct('{') {
            let close = skip_balanced(toks, j, end, '{', '}');
            parse_fields(toks, j + 1, close.saturating_sub(1), &mut fields);
            item_end = close;
            break;
        }
        j += 1;
    }
    let has_condvar = fields
        .iter()
        .any(|f: &FieldItem| f.ty.iter().any(|t| t == "Condvar"));
    model.structs.push(StructItem {
        file: path.to_owned(),
        line,
        name,
        is_pub,
        generics,
        fields,
        has_condvar,
    });
    item_end
}

/// Parses named fields between a struct body's braces.
fn parse_fields(toks: &[Token], mut i: usize, end: usize, out: &mut Vec<FieldItem>) {
    while i < end {
        // Attributes.
        if toks[i].is_punct('#') && toks.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            i = skip_balanced(toks, i + 1, end, '[', ']');
            continue;
        }
        let mut is_pub = false;
        if toks[i].is_ident("pub") {
            is_pub = true;
            i += 1;
            if toks.get(i).is_some_and(|t| t.is_punct('(')) {
                is_pub = false;
                i = skip_balanced(toks, i, end, '(', ')');
            }
        }
        let Some(name_tok) = toks.get(i).filter(|t| t.kind == TokKind::Ident) else {
            i += 1;
            continue;
        };
        if !toks.get(i + 1).is_some_and(|t| t.is_punct(':')) {
            i += 1;
            continue;
        }
        // Type runs to the next top-level `,` or the end.
        let mut j = i + 2;
        let mut depth = 0i64;
        while j < end {
            let t = &toks[j];
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
                depth += 1;
            } else if t.is_punct(')')
                || t.is_punct(']')
                || (t.is_punct('>') && depth > 0 && !(j > 0 && toks[j - 1].is_punct('-')))
            {
                depth -= 1;
            } else if t.is_punct(',') && depth <= 0 {
                break;
            }
            j += 1;
        }
        out.push(FieldItem {
            name: name_tok.text.clone(),
            is_pub,
            line: name_tok.line,
            ty: toks[i + 2..j].iter().map(render_token).collect(),
        });
        i = j + 1;
    }
}

/// Parses an enum item (recording variants); returns the index past it.
fn parse_enum(
    model: &mut WorkspaceModel,
    toks: &[Token],
    kw: usize,
    end: usize,
    path: &str,
    is_pub: bool,
) -> usize {
    let line = toks[kw].line;
    let name = ident_after(toks, kw, end).unwrap_or_default();
    model.surface.push(SurfaceItem {
        file: path.to_owned(),
        line,
        kind: "enum".to_owned(),
        name: name.clone(),
        detail: String::new(),
        is_pub,
    });
    let Some(open) = find_body_open(toks, kw, end) else {
        return end;
    };
    let close = skip_balanced(toks, open, end, '{', '}');
    // Variants: idents at depth 1 directly after `{` or a `,`.
    let mut i = open + 1;
    let mut at_start = true;
    let mut depth = 0i64;
    while i < close.saturating_sub(1) {
        let t = &toks[i];
        if t.is_punct('#') && toks.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            i = skip_balanced(toks, i + 1, end, '[', ']');
            continue;
        }
        if t.is_punct('(') || t.is_punct('{') || t.is_punct('[') || t.is_punct('<') {
            depth += 1;
        } else if t.is_punct(')')
            || t.is_punct('}')
            || t.is_punct(']')
            || (t.is_punct('>') && depth > 0)
        {
            depth -= 1;
        } else if t.is_punct(',') && depth == 0 {
            at_start = true;
            i += 1;
            continue;
        } else if at_start && t.kind == TokKind::Ident && depth == 0 {
            model.surface.push(SurfaceItem {
                file: path.to_owned(),
                line: t.line,
                kind: "enum-variant".to_owned(),
                name: format!("{name}::{}", t.text),
                detail: String::new(),
                is_pub,
            });
            at_start = false;
        }
        i += 1;
    }
    close
}

/// Parses an impl block header and recurses into its body.
fn parse_impl(
    model: &mut WorkspaceModel,
    toks: &[Token],
    kw: usize,
    end: usize,
    path: &str,
    file_index: usize,
) -> usize {
    let mut j = kw + 1;
    if toks.get(j).is_some_and(|t| t.is_punct('<')) {
        j = skip_angles(toks, j, end);
    }
    // Header runs to the body `{` (or `;` for bodyless impls).
    let mut header_end = j;
    while header_end < end && !toks[header_end].is_punct('{') && !toks[header_end].is_punct(';') {
        header_end += 1;
    }
    let header = &toks[j..header_end];
    let trait_impl = header.iter().any(|t| t.is_ident("for"));
    // Target: first ident after `for` (trait impl) or the first path
    // segment (inherent impl); skips `&`, `mut`, `dyn`, lifetimes.
    let target = if trait_impl {
        let for_pos = header.iter().position(|t| t.is_ident("for")).unwrap_or(0);
        header[for_pos + 1..]
            .iter()
            .find(|t| t.kind == TokKind::Ident && !t.is_ident("mut") && !t.is_ident("dyn"))
            .map(|t| t.text.clone())
    } else {
        header
            .iter()
            .find(|t| t.kind == TokKind::Ident && !t.is_ident("mut") && !t.is_ident("dyn"))
            .map(|t| t.text.clone())
    };
    if !toks.get(header_end).is_some_and(|t| t.is_punct('{')) {
        return header_end + 1;
    }
    let close = skip_balanced(toks, header_end, end, '{', '}');
    parse_items(
        model,
        toks,
        header_end + 1,
        close.saturating_sub(1),
        path,
        file_index,
        target.as_deref(),
        trait_impl,
        false,
    );
    close
}

/// The ident right after an item keyword.
fn ident_after(toks: &[Token], kw: usize, end: usize) -> Option<String> {
    toks.get(kw + 1)
        .filter(|_| kw + 1 < end)
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.clone())
}

/// The `const`/`static` item at keyword `kw`, with the index of its
/// closing `;`. The detail is the `NAME : Type` tokens.
fn value_item(
    toks: &[Token],
    kw: usize,
    end: usize,
    path: &str,
    is_pub: bool,
) -> (SurfaceItem, usize) {
    let stop = next_semi(toks, kw, end);
    let eq = (kw..stop).find(|&k| toks[k].is_punct('=')).unwrap_or(stop);
    let item = SurfaceItem {
        file: path.to_owned(),
        line: toks[kw].line,
        kind: toks[kw].text.clone(),
        name: ident_after(toks, kw, end).unwrap_or_default(),
        detail: join_tokens(&toks[kw + 1..eq.min(end)]),
        is_pub,
    };
    (item, stop)
}

/// Index of the next `;` at brace depth 0 (skips balanced blocks).
fn next_semi(toks: &[Token], mut i: usize, end: usize) -> usize {
    let mut depth = 0i64;
    while i < end {
        let t = &toks[i];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
        } else if t.is_punct(';') && depth == 0 {
            return i;
        }
        i += 1;
    }
    end
}

/// Index of the item's body `{` (skipping everything before it).
fn find_body_open(toks: &[Token], mut i: usize, end: usize) -> Option<usize> {
    let mut depth = 0i64;
    while i < end {
        let t = &toks[i];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if t.is_punct('{') && depth == 0 {
            return Some(i);
        } else if t.is_punct(';') && depth == 0 {
            return None;
        }
        i += 1;
    }
    None
}

/// Index just past the `close` matching the `open` at `i`.
fn skip_balanced(toks: &[Token], mut i: usize, end: usize, open: char, close: char) -> usize {
    let mut depth = 0usize;
    while i < end {
        let t = &toks[i];
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    end
}

/// Index just past the `>` matching the `<` at `i` (`->` excluded).
fn skip_angles(toks: &[Token], mut i: usize, end: usize) -> usize {
    let mut depth = 0i64;
    while i < end {
        let t = &toks[i];
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') && !(i > 0 && toks[i - 1].is_punct('-')) {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    end
}

/// Renders one token for signatures/types (`_` for opaque literals).
fn render_token(t: &Token) -> String {
    match t.kind {
        TokKind::Literal => "_".to_owned(),
        TokKind::Lifetime => format!("'{}", t.text),
        _ => t.text.clone(),
    }
}

/// Space-joined normalized token text (signatures, type details).
fn join_tokens(toks: &[Token]) -> String {
    toks.iter().map(render_token).collect::<Vec<_>>().join(" ")
}
