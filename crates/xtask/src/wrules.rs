//! Phase 2 of the two-phase analyzer: cross-file rule passes over the
//! [`crate::model::WorkspaceModel`].
//!
//! Five families, each guarding an invariant the shared `Solver`
//! session rests on that no per-file token scan can see:
//!
//! - **`lockorder`** — builds the static lock/gate acquisition graph
//!   across `engine.rs` and `pool.rs` by replaying each fn body's
//!   guard live ranges and propagating acquisitions through the call
//!   graph. Any cycle in the held-while-acquiring relation, and any
//!   condvar wait (direct or through a callee) while a non-latch lock
//!   is held, is reported. The mutex of a struct that also owns a
//!   `Condvar` (the `Gate` latch) is part of the wait protocol and is
//!   exempt from the gate-wait rule, but still participates in the
//!   order graph. The same replay flags a guard live across a call
//!   that reaches a [`KERNELS`] entry point (the kernel then runs
//!   serialized under the lock), and library `static`s whose type
//!   holds an interior-mutability primitive (shared state outside the
//!   session's synchronized split) are flagged too.
//! - **`epochkey`** — every lookup that hands a cache-family key to a
//!   synchronized map must carry the epoch component: an `epoch`
//!   parameter alongside the key, an `epoch` field on the enclosing
//!   type, or the epoch inside the key struct itself. Separately,
//!   every `&mut self` method of an epoch-carrying type that assigns
//!   instance state must reach the epoch bump through the call graph
//!   — otherwise stale artifacts survive the mutation.
//! - **`hotreach`** — the no-allocation invariant of the kernels: any
//!   allocation or legacy `DiGraph` reference in a [`KERNELS`] entry
//!   point or in a fn transitively reachable from one is flagged,
//!   whatever file it lives in.
//! - **`cancelpoint`** — the anytime-solve contract (budgets and
//!   cancellation ride on every `SolveRequest`) only holds if the
//!   long-running loops actually reach a checkpoint. Any unbounded
//!   loop (`while`/`loop`; `for` is bounded by its iterator) in a
//!   hot module whose body drives a simulation kernel must also
//!   contain a call that reaches a `WorkMeter` checkpoint (`poll`,
//!   `charge_sims`, ...) — directly, through a helper, or inside the
//!   kernel itself. Reachability reuses the workspace call graph, so
//!   a loop calling an internally-metered kernel passes without a
//!   redundant outer poll. Reach stops at a fn that builds
//!   `WorkMeter::unlimited()`: the kernels below it poll a meter
//!   that never stops.
//! - **`pubapi`** — renders the deterministic public-API surface from
//!   the symbol model ([`api_surface`]) and diffs it against the
//!   checked-in `docs/api-baseline.txt` ([`pubapi_diff`]); drift
//!   fails the lint until the baseline is regenerated with
//!   `cargo xtask lint --bless-api`.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::model::{BodyEvent, FnItem, Receiver, WorkspaceModel};
use crate::rules::{classify, Violation, HOT_FILES};

/// Simulation kernel entry points: the roots of `hotreach`, the calls
/// a lock guard must not span, and the loop bodies `cancelpoint`
/// checks. `advance_trajectory` and `rr_sketch_batch_into` poll a
/// `WorkMeter` internally.
pub const KERNELS: [&str; 10] = [
    "sigma_with",
    "sigma_with_cached_seeds",
    "run_into",
    "run_realized_into",
    "run_lanes_into",
    "advance_trajectory",
    "monte_carlo_csr",
    "monte_carlo_sets",
    "rr_sketch_into",
    "rr_sketch_batch_into",
];

/// Types whose presence in a `static` item's type makes it shared
/// global mutable state (`Atomic*` is matched by prefix).
const INTERIOR_MUT_TYPES: [&str; 9] = [
    "Mutex",
    "RwLock",
    "Cell",
    "RefCell",
    "UnsafeCell",
    "OnceCell",
    "OnceLock",
    "LazyLock",
    "Condvar",
];

/// One live guard during a body replay.
#[derive(Clone, Debug)]
struct LiveGuard {
    lock: String,
    binding: Option<String>,
    depth: usize,
}

/// One held-while-acquiring edge, with its witness site.
#[derive(Clone, Debug)]
struct LockEdge {
    from: String,
    to: String,
    file: String,
    line: usize,
    via: String,
}

/// The `lockorder` pass: acquisition-order cycles, gate-waits and
/// kernel calls under a lock, and interior-mutability statics.
#[must_use]
pub fn lockorder(model: &WorkspaceModel) -> Vec<Violation> {
    let acquires = model.transitive_acquires();
    let waits = model.transitive_waits();
    let kernel_reach = callers_reaching(model, &KERNELS, &BTreeSet::new());
    let name_waits = model
        .fns
        .iter()
        .enumerate()
        .any(|(i, f)| f.name == "wait" && waits[i]);
    let mut edges: Vec<LockEdge> = Vec::new();
    let mut out = Vec::new();

    for f in &model.fns {
        let mut live: Vec<LiveGuard> = Vec::new();
        // Guards dropped in a block nested below their own scope, with
        // the drop's depth: the path that skips the block still holds
        // them, so they are live again once it closes.
        let mut suspended: Vec<(LiveGuard, usize)> = Vec::new();
        for ev in &f.events {
            match ev {
                BodyEvent::Acquire {
                    lock,
                    binding,
                    depth,
                    line,
                } => {
                    for g in &live {
                        if &g.lock != lock {
                            edges.push(LockEdge {
                                from: g.lock.clone(),
                                to: lock.clone(),
                                file: f.file.clone(),
                                line: *line,
                                via: qualified(f),
                            });
                        }
                    }
                    live.push(LiveGuard {
                        lock: lock.clone(),
                        binding: binding.clone(),
                        depth: *depth,
                    });
                }
                BodyEvent::Call { index, line } => {
                    if live.is_empty() {
                        continue;
                    }
                    let call = &f.calls[*index];
                    let targets = model.resolve_call(f, call);
                    let callee_waits = targets.iter().any(|&t| waits[t])
                        || (targets.is_empty()
                            && call.callee == "wait"
                            && call.method
                            && name_waits);
                    let mut callee_locks: BTreeSet<String> = BTreeSet::new();
                    for &t in &targets {
                        callee_locks.extend(acquires[t].iter().cloned());
                    }
                    for g in &live {
                        for lock in &callee_locks {
                            if &g.lock != lock {
                                edges.push(LockEdge {
                                    from: g.lock.clone(),
                                    to: lock.clone(),
                                    file: f.file.clone(),
                                    line: *line,
                                    via: qualified(f),
                                });
                            }
                        }
                    }
                    let reaches_kernel = KERNELS.contains(&call.callee.as_str())
                        || targets.iter().any(|t| kernel_reach.contains(t));
                    if let Some(held) = live.first().filter(|_| reaches_kernel) {
                        out.push(Violation {
                            file: f.file.clone(),
                            line: *line,
                            rule: "lockorder".to_owned(),
                            message: format!(
                                "`{}` calls `{}` (which runs a simulation kernel) while guard `{}` holds `{}`; the kernel runs serialized under the lock — drop the guard first (clone/`Arc` the artifact out)",
                                qualified(f),
                                call.callee,
                                held.binding.as_deref().unwrap_or("_"),
                                held.lock
                            ),
                        });
                    }
                    if callee_waits {
                        if let Some(held) = live.iter().find(|g| !model.is_latch_lock(&g.lock)) {
                            out.push(Violation {
                                file: f.file.clone(),
                                line: *line,
                                rule: "lockorder".to_owned(),
                                message: format!(
                                    "`{}` calls `{}` (which can block on a gate wait) while holding `{}`; a builder that never finishes then deadlocks every waiter behind the lock — drop the guard first",
                                    qualified(f),
                                    call.callee,
                                    held.lock
                                ),
                            });
                        }
                    }
                }
                BodyEvent::Wait { line } => {
                    if let Some(held) = live.iter().find(|g| !model.is_latch_lock(&g.lock)) {
                        out.push(Violation {
                            file: f.file.clone(),
                            line: *line,
                            rule: "lockorder".to_owned(),
                            message: format!(
                                "`{}` waits on a condvar while holding `{}`; the wait only releases its own latch mutex, so `{}` stays held for the full wait",
                                qualified(f),
                                held.lock,
                                held.lock
                            ),
                        });
                    }
                }
                BodyEvent::Drop { name, depth } => {
                    let (dropped, kept): (Vec<_>, Vec<_>) = live
                        .into_iter()
                        .partition(|g| g.binding.as_deref() == Some(name.as_str()));
                    live = kept;
                    suspended.extend(
                        dropped
                            .into_iter()
                            .filter(|g| *depth > g.depth)
                            .map(|g| (g, *depth)),
                    );
                }
                BodyEvent::Close { depth } => {
                    live.retain(|g| g.depth <= *depth);
                    suspended.retain(|(g, _)| g.depth <= *depth);
                    let (back, still): (Vec<_>, Vec<_>) =
                        suspended.drain(..).partition(|&(_, at)| at > *depth);
                    live.extend(back.into_iter().map(|(g, _)| g));
                    suspended = still;
                }
                BodyEvent::Stmt => {
                    live.retain(|g| g.binding.is_some());
                }
            }
        }
    }

    for st in &model.statics {
        if !classify(&st.file).is_some_and(|c| c.panic_scope) {
            continue;
        }
        let primitive = st
            .detail
            .split(' ')
            .find(|t| INTERIOR_MUT_TYPES.contains(t) || t.starts_with("Atomic"));
        if let Some(primitive) = primitive {
            out.push(Violation {
                file: st.file.clone(),
                line: st.line,
                rule: "lockorder".to_owned(),
                message: format!(
                    "`static {}` holds `{primitive}`: shared global state outside the session's lock discipline and invisible to its epoch invalidation; own it in `Solver`/`ArtifactCache`",
                    st.name
                ),
            });
        }
    }

    out.extend(report_cycles(&edges));
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out.dedup_by(|a, b| (&a.file, a.line, &a.message) == (&b.file, b.line, &b.message));
    out
}

/// Finds cycles in the held-while-acquiring digraph; one violation
/// per distinct cycle node set.
fn report_cycles(edges: &[LockEdge]) -> Vec<Violation> {
    let mut adj: BTreeMap<&str, Vec<&LockEdge>> = BTreeMap::new();
    for e in edges {
        adj.entry(&e.from).or_default().push(e);
    }
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    let mut out = Vec::new();
    // DFS from every node; a back edge into the current path is a
    // cycle. The graph is tiny (a handful of locks), so the quadratic
    // walk is fine.
    for &start in adj.keys().collect::<Vec<_>>().iter() {
        let mut path: Vec<&LockEdge> = Vec::new();
        let mut on_path: BTreeSet<&str> = BTreeSet::new();
        dfs_cycles(
            start,
            &adj,
            &mut path,
            &mut on_path,
            &mut reported,
            &mut out,
        );
    }
    out
}

fn dfs_cycles<'m>(
    node: &'m str,
    adj: &BTreeMap<&'m str, Vec<&'m LockEdge>>,
    path: &mut Vec<&'m LockEdge>,
    on_path: &mut BTreeSet<&'m str>,
    reported: &mut BTreeSet<Vec<String>>,
    out: &mut Vec<Violation>,
) {
    if !on_path.insert(node) {
        return;
    }
    for e in adj.get(node).map(Vec::as_slice).unwrap_or_default() {
        if on_path.contains(e.to.as_str()) {
            // Close the cycle: the path suffix from `e.to` plus `e`.
            let from_pos = path
                .iter()
                .position(|pe| pe.from == e.to)
                .unwrap_or(path.len());
            let cycle: Vec<&LockEdge> = path[from_pos..].iter().copied().chain([*e]).collect();
            let mut nodes: Vec<String> = cycle.iter().map(|e| e.from.clone()).collect();
            nodes.sort();
            nodes.dedup();
            if reported.insert(nodes) {
                let chain = cycle
                    .iter()
                    .map(|e| format!("`{}` → `{}` (in `{}`)", e.from, e.to, e.via))
                    .collect::<Vec<_>>()
                    .join(", ");
                out.push(Violation {
                    file: e.file.clone(),
                    line: e.line,
                    rule: "lockorder".to_owned(),
                    message: format!(
                        "lock acquisition cycle: {chain}; two threads entering from different ends deadlock — impose a single acquisition order or narrow the guard scopes"
                    ),
                });
            }
            continue;
        }
        path.push(e);
        dfs_cycles(&e.to, adj, path, on_path, reported, out);
        path.pop();
    }
    on_path.remove(node);
}

/// The `epochkey` pass: cache keys must travel with the epoch, and
/// state mutations on epoch-carrying types must reach the bump.
#[must_use]
pub fn epochkey(model: &WorkspaceModel) -> Vec<Violation> {
    let mut out = Vec::new();
    // Concrete key type names across all families, minus primitives
    // (a bare `u8` param is not evidence of a cache lookup; primitive
    // keys are covered by the family-method check below).
    let mut concrete_keys: BTreeSet<&str> = BTreeSet::new();
    for fam in &model.families {
        for k in &fam.concrete_keys {
            if !WorkspaceModel::is_primitive(k) {
                concrete_keys.insert(k);
            }
        }
    }
    let family_generic: BTreeMap<&str, &str> = model
        .families
        .iter()
        .filter(|f| f.generic_key)
        .map(|f| (f.struct_name.as_str(), f.declared_key.as_str()))
        .collect();

    // Check A: every fn taking a key must see the epoch.
    for f in &model.fns {
        let generic_key = f
            .owner
            .as_deref()
            .and_then(|o| family_generic.get(o).copied());
        for (pname, pty) in &f.params {
            let key_name = pty.iter().find_map(|t| {
                (concrete_keys.contains(t.as_str()) || Some(t.as_str()) == generic_key)
                    .then_some(t.as_str())
            });
            let Some(key_name) = key_name else { continue };
            let has_epoch_param = f.params.iter().any(|(n, _)| n == "epoch");
            let owner_has_epoch = f
                .owner
                .as_deref()
                .and_then(|o| model.struct_named(o))
                .is_some_and(|s| s.fields.iter().any(|fl| fl.name == "epoch"));
            let key_has_epoch = model
                .struct_named(key_name)
                .is_some_and(|s| s.fields.iter().any(|fl| fl.name == "epoch"));
            if !(has_epoch_param || owner_has_epoch || key_has_epoch) {
                out.push(Violation {
                    file: f.file.clone(),
                    line: f.line,
                    rule: "epochkey".to_owned(),
                    message: format!(
                        "`{}` takes cache key `{pname}: {key_name}` without the epoch component (no `epoch` param, no `epoch` field on the enclosing type, none inside `{key_name}`); a lookup here can return artifacts from before an invalidation",
                        qualified(f)
                    ),
                });
            }
        }
    }

    // Check B: `&mut self` mutators on epoch-carrying types must
    // reach the bump through the (resolved) call graph. Only types
    // that actually *own cache state* are in scope: an `epoch` field
    // alone can be an unrelated generation counter (e.g. the
    // `SimWorkspace` stamp trick for O(1) buffer resets), so the type
    // must also hold a cache family — directly or through a field
    // chain (`Solver.cache: ArtifactCache` holds `FamilyCache`s).
    let mut cachey: BTreeSet<&str> = model
        .families
        .iter()
        .map(|f| f.struct_name.as_str())
        .collect();
    loop {
        let mut grew = false;
        for s in &model.structs {
            if cachey.contains(s.name.as_str()) {
                continue;
            }
            if s.fields
                .iter()
                .any(|f| f.ty.iter().any(|t| cachey.contains(t.as_str())))
            {
                cachey.insert(s.name.as_str());
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }
    let epoch_owners: BTreeSet<&str> = model
        .structs
        .iter()
        .filter(|s| cachey.contains(s.name.as_str()) && s.fields.iter().any(|f| f.name == "epoch"))
        .map(|s| s.name.as_str())
        .collect();
    for f in &model.fns {
        let Some(owner) = f.owner.as_deref() else {
            continue;
        };
        if !epoch_owners.contains(owner) || f.receiver != Receiver::RefMut {
            continue;
        }
        let mutates = f.self_assigns.iter().any(|(field, _)| field != "epoch");
        if !mutates || reaches_bump(model, f, owner) {
            continue;
        }
        out.push(Violation {
            file: f.file.clone(),
            line: f.line,
            rule: "epochkey".to_owned(),
            message: format!(
                "`{}` mutates instance state through `&mut self` but never reaches the epoch bump in the call graph; cached artifacts keyed on the old state stay valid — call the invalidation path or bump the epoch",
                qualified(f)
            ),
        });
    }
    out
}

/// `true` if `f` (a method of `owner`) bumps `self.epoch` directly or
/// through a chain of same-owner method calls.
fn reaches_bump(model: &WorkspaceModel, f: &FnItem, owner: &str) -> bool {
    let mut seen: BTreeSet<usize> = BTreeSet::new();
    let mut queue: VecDeque<&FnItem> = VecDeque::from([f]);
    while let Some(cur) = queue.pop_front() {
        if cur.bumps_epoch {
            return true;
        }
        for call in &cur.calls {
            for t in model.resolve_call(cur, call) {
                if model.fns[t].owner.as_deref() == Some(owner) && seen.insert(t) {
                    queue.push_back(&model.fns[t]);
                }
            }
        }
    }
    false
}

/// The `hotreach` pass: allocation or `DiGraph` use in a kernel
/// entry point or in any fn transitively reachable from one.
#[must_use]
pub fn hotreach(model: &WorkspaceModel) -> Vec<Violation> {
    // BFS from every fn named like a kernel entry point, keeping the
    // discovery parent for path messages.
    let mut root_of: BTreeMap<usize, String> = BTreeMap::new();
    let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    for (i, f) in model.fns.iter().enumerate() {
        if KERNELS.contains(&f.name.as_str()) {
            root_of.insert(i, f.name.clone());
            queue.push_back(i);
        }
    }
    while let Some(cur) = queue.pop_front() {
        let f = &model.fns[cur];
        let root = root_of[&cur].clone();
        for call in &f.calls {
            for t in model.resolve_call(f, call) {
                if let std::collections::btree_map::Entry::Vacant(e) = root_of.entry(t) {
                    e.insert(root.clone());
                    parent.insert(t, cur);
                    queue.push_back(t);
                }
            }
        }
    }

    let mut out = Vec::new();
    for (&fi, root) in &root_of {
        let f = &model.fns[fi];
        for (line, what) in hot_sites(model, fi) {
            // Reconstruct the discovery path for the message.
            let mut hops: Vec<String> = vec![qualified(f)];
            let mut cur = fi;
            while let Some(&p) = parent.get(&cur) {
                hops.push(qualified(&model.fns[p]));
                cur = p;
            }
            hops.reverse();
            out.push(Violation {
                file: f.file.clone(),
                line,
                rule: "hotreach".to_owned(),
                message: format!(
                    "{what} in `{}`, reachable from kernel `{root}` ({}); hoist it out of the reachable set or justify with `// xtask-allow: hotreach -- <why>`",
                    qualified(f),
                    hops.join(" → ")
                ),
            });
        }
    }
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out
}

/// Allocation sites and legacy `DiGraph` references (signature or
/// body) in one fn: `(line, description)` pairs.
fn hot_sites(model: &WorkspaceModel, fi: usize) -> Vec<(usize, String)> {
    const ALLOC_CONTAINERS: [&str; 9] = [
        "Vec",
        "VecDeque",
        "HashMap",
        "HashSet",
        "BTreeMap",
        "BTreeSet",
        "String",
        "Box",
        "FixedBitSet",
    ];
    let f = &model.fns[fi];
    let toks = &model.files[f.file_index].tokens;
    let (start, end) = f.body;
    let mut out = Vec::new();
    if f.signature.split(' ').any(|t| t == "DiGraph") {
        out.push((
            f.line,
            "signature names the legacy `DiGraph` API".to_owned(),
        ));
    }
    let mut i = start;
    while i < end {
        let t = &toks[i];
        if t.is_ident("DiGraph") {
            out.push((t.line, "legacy `DiGraph` API referenced".to_owned()));
        }
        if t.kind == crate::lexer::TokKind::Ident {
            let next_punct =
                |off: usize, ch: char| toks.get(i + off).is_some_and(|p| p.is_punct(ch));
            // `Vec::new(` / `Vec::with_capacity(` and friends.
            if ALLOC_CONTAINERS.contains(&t.text.as_str())
                && next_punct(1, ':')
                && next_punct(2, ':')
                && toks
                    .get(i + 3)
                    .is_some_and(|m| m.is_ident("new") || m.is_ident("with_capacity"))
            {
                out.push((
                    t.line,
                    format!("`{}::{}()` allocates", t.text, toks[i + 3].text),
                ));
            }
            if (t.is_ident("vec") || t.is_ident("format")) && next_punct(1, '!') {
                out.push((t.line, format!("`{}!` allocates", t.text)));
            }
            if matches!(
                t.text.as_str(),
                "collect" | "to_vec" | "to_owned" | "to_string" | "clone"
            ) && i > start
                && toks[i - 1].is_punct('.')
                && (next_punct(1, '(') || next_punct(1, ':'))
            {
                // A value receiver (ident, call result, index
                // expression) copies a buffer; path calls like
                // `Arc::clone(&x)` are refcount bumps and never match.
                let recv_ok = i >= start + 2
                    && match toks[i - 2].kind {
                        crate::lexer::TokKind::Ident => true,
                        crate::lexer::TokKind::Punct => {
                            toks[i - 2].is_punct(')') || toks[i - 2].is_punct(']')
                        }
                        _ => false,
                    };
                if recv_ok {
                    out.push((t.line, format!("`.{}()` allocates", t.text)));
                }
            }
        }
        i += 1;
    }
    out
}

/// `WorkMeter` checkpoint methods: a call reaching any of these
/// counts as a budget/cancellation poll for `cancelpoint`.
const CHECKPOINT_CALLS: [&str; 4] = ["poll", "charge_sims", "advances_exhausted", "note_advance"];

/// The set of fns that transitively contain a call site naming one
/// of `names`: seeds are direct callers (resolved or not, so
/// cross-crate method calls like `meter.poll()` count), propagated
/// to callers through the resolved call graph. Fns in `barrier` are
/// never reached by propagation, only as seeds.
fn callers_reaching(
    model: &WorkspaceModel,
    names: &[&str],
    barrier: &BTreeSet<usize>,
) -> BTreeSet<usize> {
    let mut reverse: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    let mut set = BTreeSet::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    for (i, f) in model.fns.iter().enumerate() {
        for call in &f.calls {
            for t in model.resolve_call(f, call) {
                reverse.entry(t).or_default().push(i);
            }
            if names.contains(&call.callee.as_str()) && set.insert(i) {
                queue.push_back(i);
            }
        }
    }
    while let Some(cur) = queue.pop_front() {
        for &caller in reverse.get(&cur).into_iter().flatten() {
            if !barrier.contains(&caller) && set.insert(caller) {
                queue.push_back(caller);
            }
        }
    }
    set
}

/// Unbounded loops (`while`/`loop`) found in one fn body:
/// `(keyword_line, first_body_line, last_body_line)` triples. `for`
/// loops are bounded by their iterator and skipped. The loop body is
/// located lexically: for `while`, the first `{` at paren/bracket
/// depth 0 after the keyword opens the body (Rust forbids bare
/// struct literals in loop conditions, so the heuristic is exact for
/// idiomatic code).
fn unbounded_loops(model: &WorkspaceModel, fi: usize) -> Vec<(usize, usize, usize)> {
    let f = &model.fns[fi];
    let toks = &model.files[f.file_index].tokens;
    let (start, end) = f.body;
    let mut out = Vec::new();
    let mut i = start;
    while i < end {
        let t = &toks[i];
        if t.kind == crate::lexer::TokKind::Ident && (t.is_ident("while") || t.is_ident("loop")) {
            // Find the body-opening `{` at bracket depth 0.
            let mut depth = 0i32;
            let mut open = None;
            for (j, tok) in toks.iter().enumerate().take(end).skip(i + 1) {
                if tok.kind == crate::lexer::TokKind::Punct {
                    match tok.text.as_str() {
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth -= 1,
                        "{" if depth == 0 => {
                            open = Some(j);
                            break;
                        }
                        _ => {}
                    }
                }
            }
            if let Some(open) = open {
                // Match the closing brace.
                let mut braces = 1i32;
                let mut close = open;
                for (j, tok) in toks.iter().enumerate().take(end).skip(open + 1) {
                    if tok.kind == crate::lexer::TokKind::Punct {
                        match tok.text.as_str() {
                            "{" => braces += 1,
                            "}" => {
                                braces -= 1;
                                if braces == 0 {
                                    close = j;
                                    break;
                                }
                            }
                            _ => {}
                        }
                    }
                }
                out.push((t.line, toks[open].line, toks[close].line));
            }
        }
        i += 1;
    }
    out
}

/// The `cancelpoint` pass: an unbounded loop in a hot module whose
/// body drives a simulation kernel must also reach a `WorkMeter`
/// checkpoint, or the budget/cancellation contract silently fails to
/// cover the longest-running code in the workspace.
#[must_use]
pub fn cancelpoint(model: &WorkspaceModel) -> Vec<Violation> {
    let kernel_reach = callers_reaching(model, &KERNELS, &BTreeSet::new());
    // A fn that builds `WorkMeter::unlimited()` hands its callees a
    // meter that never stops, so the checkpoints they reach cannot
    // observe a cancel or a deadline on its behalf.
    let unmetered: BTreeSet<usize> = model
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| {
            f.calls
                .iter()
                .any(|c| c.callee == "unlimited" && c.qualifier.as_deref() == Some("WorkMeter"))
        })
        .map(|(i, _)| i)
        .collect();
    let checkpoint_reach = callers_reaching(model, &CHECKPOINT_CALLS, &unmetered);

    let mut out = Vec::new();
    for (fi, f) in model.fns.iter().enumerate() {
        if !HOT_FILES.contains(&f.file.as_str()) {
            continue;
        }
        for (kw_line, body_start, body_end) in unbounded_loops(model, fi) {
            let in_body = |line: usize| line >= body_start && line <= body_end;
            let mut kernel: Option<&str> = None;
            let mut checkpointed = false;
            for call in &f.calls {
                if !in_body(call.line) {
                    continue;
                }
                let reaches = |set: &BTreeSet<usize>| {
                    model.resolve_call(f, call).iter().any(|t| set.contains(t))
                };
                if KERNELS.contains(&call.callee.as_str()) || reaches(&kernel_reach) {
                    kernel.get_or_insert(call.callee.as_str());
                }
                if CHECKPOINT_CALLS.contains(&call.callee.as_str()) || reaches(&checkpoint_reach) {
                    checkpointed = true;
                }
            }
            if let Some(kernel) = kernel {
                if !checkpointed {
                    out.push(Violation {
                        file: f.file.clone(),
                        line: kw_line,
                        rule: "cancelpoint".to_owned(),
                        message: format!(
                            "unbounded loop in `{}` drives simulation kernel `{kernel}` without reaching a budget checkpoint; poll a `WorkMeter` inside the loop (or justify with `// xtask-allow: cancelpoint -- <why>`)",
                            qualified(f)
                        ),
                    });
                }
            }
        }
    }
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out
}

/// Renders the deterministic public-API surface from the model: one
/// sorted line per unrestricted-`pub` item, stable across runs.
#[must_use]
pub fn api_surface(model: &WorkspaceModel) -> Vec<String> {
    let mut lines: BTreeSet<String> = BTreeSet::new();
    let pub_traits: BTreeSet<&str> = model
        .surface
        .iter()
        .filter(|s| s.kind == "trait" && s.is_pub)
        .map(|s| s.name.as_str())
        .collect();
    for s in &model.structs {
        if !s.is_pub {
            continue;
        }
        lines.insert(format!("{} struct {}", s.file, s.name));
        for fld in s.fields.iter().filter(|f| f.is_pub) {
            lines.insert(format!(
                "{} struct {}.{}: {}",
                s.file,
                s.name,
                fld.name,
                fld.ty.join(" ")
            ));
        }
    }
    for item in &model.surface {
        if !item.is_pub {
            continue;
        }
        let line = match item.kind.as_str() {
            "use" => format!("{} pub use {}", item.file, item.detail),
            "enum" | "trait" => format!("{} {} {}", item.file, item.kind, item.name),
            "enum-variant" => format!("{} variant {}", item.file, item.name),
            _ => format!("{} {} {} {}", item.file, item.kind, item.name, item.detail),
        };
        lines.insert(line.trim_end().to_owned());
    }
    for f in &model.fns {
        if f.trait_impl {
            continue; // surface is defined by the trait, not the impl
        }
        match &f.owner {
            None if f.is_pub => {
                lines.insert(format!("{} {}", f.file, f.signature));
            }
            Some(owner) if f.is_pub && !f.in_trait => {
                lines.insert(format!("{} impl {} {}", f.file, owner, f.signature));
            }
            Some(owner) if f.in_trait && pub_traits.contains(owner.as_str()) => {
                lines.insert(format!("{} trait {} {}", f.file, owner, f.signature));
            }
            _ => {}
        }
    }
    lines.into_iter().collect()
}

/// Diffs the rendered surface against the checked-in baseline.
/// `baseline` is `None` when `docs/api-baseline.txt` does not exist.
/// Lines starting with `#` in the baseline are comments. The
/// violations are attributed to the baseline file and are not
/// pragma-suppressible — regenerate with `--bless-api` instead.
#[must_use]
pub fn pubapi_diff(baseline: Option<&str>, surface: &[String]) -> Vec<Violation> {
    const BASELINE_FILE: &str = "docs/api-baseline.txt";
    const MAX_SHOWN: usize = 15;
    let Some(baseline) = baseline else {
        return vec![Violation {
            file: BASELINE_FILE.to_owned(),
            line: 1,
            rule: "pubapi".to_owned(),
            message: format!(
                "public-API baseline `{BASELINE_FILE}` is missing; generate it with `cargo xtask lint --bless-api` and check it in"
            ),
        }];
    };
    let old: BTreeSet<&str> = baseline
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let new: BTreeSet<&str> = surface.iter().map(String::as_str).collect();
    let added: Vec<&&str> = new.difference(&old).collect();
    let removed: Vec<&&str> = old.difference(&new).collect();
    let mut out = Vec::new();
    let mut shown = 0usize;
    for (what, items) in [("added", &added), ("removed", &removed)] {
        for l in items.iter() {
            if shown == MAX_SHOWN {
                out.push(Violation {
                    file: BASELINE_FILE.to_owned(),
                    line: 1,
                    rule: "pubapi".to_owned(),
                    message: format!(
                        "... and {} more surface change(s); run `cargo xtask lint --bless-api` to review and accept the full diff",
                        added.len() + removed.len() - MAX_SHOWN
                    ),
                });
                return out;
            }
            out.push(Violation {
                file: BASELINE_FILE.to_owned(),
                line: 1,
                rule: "pubapi".to_owned(),
                message: format!(
                    "public API {what} without blessing the baseline: `{l}` — review the change, then `cargo xtask lint --bless-api`"
                ),
            });
            shown += 1;
        }
    }
    out
}

/// `Owner::name` or bare `name` for diagnostics.
fn qualified(f: &FnItem) -> String {
    match &f.owner {
        Some(o) => format!("{o}::{}", f.name),
        None => f.name.clone(),
    }
}
