//! Property-based tests for the diffusion engine.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use lcrb_diffusion::{
    doam_analytic_csr, doam_safe_targets_csr, monte_carlo_csr, rr_sketch_into, CompetitiveIcModel,
    CompetitiveLtModel, DiffusionOutcome, DoamModel, LaneWorkspace, MonteCarloConfig, OpoaoModel,
    OpoaoRealization, RrScratch, SeedSets, SimWorkspace, SketchBatch, Status, TargetTable,
    TwoCascadeModel, OPOAO_LANES,
};
use lcrb_graph::traversal::CsrBfsScratch;
use lcrb_graph::{CsrGraph, DiGraph, NodeId};

/// One run of `model` in a fresh workspace, as an owned outcome.
fn fresh_run<M: TwoCascadeModel>(
    model: &M,
    csr: &CsrGraph,
    seeds: &SeedSets,
    rng: &mut SmallRng,
) -> DiffusionOutcome {
    let mut ws = SimWorkspace::new();
    model.run_into(csr, seeds, &mut ws, rng);
    ws.to_outcome()
}

/// The DOAM oracle with throwaway scratches.
fn doam_oracle(csr: &CsrGraph, seeds: &SeedSets) -> DiffusionOutcome {
    doam_analytic_csr(
        csr,
        seeds,
        &mut CsrBfsScratch::new(),
        &mut CsrBfsScratch::new(),
    )
}

/// Strategy: a random graph plus disjoint rumor/protector seeds.
fn arb_instance() -> impl Strategy<Value = (DiGraph, SeedSets)> {
    (3usize..30).prop_flat_map(|n| {
        (
            proptest::collection::vec((0..n, 0..n), 0..(4 * n)),
            proptest::collection::btree_set(0..n, 1..4),
            proptest::collection::btree_set(0..n, 0..4),
        )
            .prop_map(move |(pairs, rumors, protectors)| {
                let mut g = DiGraph::with_nodes(n);
                for (u, v) in pairs {
                    if u != v {
                        let _ = g.add_edge(NodeId::new(u), NodeId::new(v));
                    }
                }
                let rumors: Vec<NodeId> = rumors.into_iter().map(NodeId::new).collect();
                let protectors: Vec<NodeId> = protectors
                    .into_iter()
                    .filter(|p| !rumors.iter().any(|r| r.index() == *p))
                    .map(NodeId::new)
                    .collect();
                let seeds = SeedSets::new(&g, rumors, protectors).expect("valid by construction");
                (g, seeds)
            })
    })
}

proptest! {
    #[test]
    fn doam_simulator_matches_analytic_oracle((g, seeds) in arb_instance()) {
        let csr = CsrGraph::from(&g);
        let mut ws = SimWorkspace::new();
        DoamModel::default().run_deterministic_into(&csr, &seeds, &mut ws);
        let sim = ws.to_outcome();
        let ana = doam_oracle(&csr, &seeds);
        prop_assert_eq!(sim.statuses(), ana.statuses());
        for v in g.nodes() {
            prop_assert_eq!(sim.activation_hop(v), ana.activation_hop(v));
        }
        prop_assert_eq!(sim.trace(), ana.trace());
    }

    #[test]
    fn doam_safe_targets_agree_with_statuses((g, seeds) in arb_instance()) {
        let csr = CsrGraph::from(&g);
        let outcome = doam_oracle(&csr, &seeds);
        let targets: Vec<NodeId> = g.nodes().collect();
        let (mut d_r, mut d_p) = (CsrBfsScratch::new(), CsrBfsScratch::new());
        let safe = doam_safe_targets_csr(&csr, &seeds, &targets, &mut d_r, &mut d_p);
        for (v, &is_safe) in targets.iter().zip(&safe) {
            prop_assert_eq!(is_safe, !outcome.status(*v).is_infected());
        }
    }

    #[test]
    fn seeds_keep_their_status_under_every_model((g, seeds) in arb_instance(), seed in 0u64..64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let csr = CsrGraph::from(&g);
        type ModelRun<'a> = Box<dyn Fn(&mut SmallRng) -> DiffusionOutcome + 'a>;
        let models: Vec<ModelRun> = vec![
            Box::new(|r| fresh_run(&OpoaoModel::default(), &csr, &seeds, r)),
            Box::new(|r| fresh_run(&DoamModel::default(), &csr, &seeds, r)),
            Box::new(|r| fresh_run(&CompetitiveIcModel::new(0.4).unwrap(), &csr, &seeds, r)),
            Box::new(|r| fresh_run(&CompetitiveLtModel::default(), &csr, &seeds, r)),
        ];
        for run in models {
            let o = run(&mut rng);
            for &r in seeds.rumors() {
                prop_assert_eq!(o.status(r), Status::Infected);
                prop_assert_eq!(o.activation_hop(r), Some(0));
            }
            for &p in seeds.protectors() {
                prop_assert_eq!(o.status(p), Status::Protected);
            }
            // Trace totals are consistent with statuses.
            let infected = o.statuses().iter().filter(|s| s.is_infected()).count();
            let protected = o.statuses().iter().filter(|s| s.is_protected()).count();
            prop_assert_eq!(infected, o.infected_count());
            prop_assert_eq!(protected, o.protected_count());
            // Active nodes have hops, inactive do not.
            for v in g.nodes() {
                prop_assert_eq!(o.status(v).is_active(), o.activation_hop(v).is_some());
            }
        }
    }

    #[test]
    fn activation_hops_respect_edge_granularity((g, seeds) in arb_instance(), seed in 0u64..32) {
        // In every model, a node activated at hop t > 0 has an
        // in-neighbor activated strictly earlier.
        let mut rng = SmallRng::seed_from_u64(seed);
        let o = fresh_run(&OpoaoModel::default(), &CsrGraph::from(&g), &seeds, &mut rng);
        for v in g.nodes() {
            if let Some(t) = o.activation_hop(v) {
                if t > 0 {
                    let ok = g
                        .in_neighbors(v)
                        .iter()
                        .any(|&u| o.activation_hop(u).is_some_and(|tu| tu < t));
                    prop_assert!(ok, "node {v} activated at {t} without earlier in-neighbor");
                }
            }
        }
    }

    #[test]
    fn realized_opoao_is_deterministic((g, seeds) in arb_instance(), rseed in 0u64..256) {
        let csr = CsrGraph::from(&g);
        let model = OpoaoModel::default();
        let real = OpoaoRealization::new(rseed);
        let (mut a, mut b) = (SimWorkspace::new(), SimWorkspace::new());
        model.run_realized_into(&csr, &seeds, &mut a, &real);
        model.run_realized_into(&csr, &seeds, &mut b, &real);
        prop_assert_eq!(a.to_outcome(), b.to_outcome());
    }

    #[test]
    fn adding_protectors_never_hurts_under_doam((g, seeds) in arb_instance(), extra in 0usize..30) {
        // DOAM protection is monotone in the protector set.
        let extra = NodeId::new(extra % g.node_count());
        if seeds.rumors().contains(&extra) {
            return Ok(());
        }
        let mut protectors = seeds.protectors().to_vec();
        protectors.push(extra);
        let bigger = seeds.with_protectors(&g, protectors).unwrap();
        let csr = CsrGraph::from(&g);
        let base = doam_oracle(&csr, &seeds);
        let more = doam_oracle(&csr, &bigger);
        prop_assert!(more.infected_count() <= base.infected_count());
        // Every node protected before stays protected.
        for v in g.nodes() {
            if base.status(v).is_protected() {
                prop_assert!(more.status(v).is_protected(), "node {v} lost protection");
            }
        }
    }

    #[test]
    fn monte_carlo_is_thread_invariant((g, seeds) in arb_instance()) {
        let csr = CsrGraph::from(&g);
        let model = OpoaoModel::new(10);
        let a = monte_carlo_csr(&model, &csr, &seeds, &MonteCarloConfig { runs: 8, base_seed: 4, threads: 1 });
        let b = monte_carlo_csr(&model, &csr, &seeds, &MonteCarloConfig { runs: 8, base_seed: 4, threads: 3 });
        prop_assert_eq!(a.runs, b.runs);
        prop_assert_eq!(a.mean_infected_by_hop.len(), b.mean_infected_by_hop.len());
        for (x, y) in a.mean_infected_by_hop.iter().zip(&b.mean_infected_by_hop) {
            prop_assert!((x - y).abs() < 1e-9);
        }
    }
}

/// Strategy: a tiny graph (≤ 8 nodes) plus 1–2 rumor originators —
/// small enough to brute-force every protector subset.
fn arb_tiny_instance() -> impl Strategy<Value = (DiGraph, Vec<NodeId>)> {
    (2usize..9).prop_flat_map(|n| {
        (
            proptest::collection::vec((0..n, 0..n), 0..(3 * n)),
            proptest::collection::btree_set(0..n, 1..3),
        )
            .prop_map(move |(pairs, rumors)| {
                let mut g = DiGraph::with_nodes(n);
                for (u, v) in pairs {
                    if u != v {
                        let _ = g.add_edge(NodeId::new(u), NodeId::new(v));
                    }
                }
                let rumors: Vec<NodeId> = rumors.into_iter().map(NodeId::new).collect();
                (g, rumors)
            })
    })
}

/// The §V-A timestamp rule's label-free earliest-arrival time from
/// `sources` to `target`: every arrived node forwards to the single
/// out-neighbor `realization.choice(node, hop, deg)` picks at each
/// hop. This is the independent reference the RR sketches must invert.
fn forward_rule_arrival(
    csr: &CsrGraph,
    sources: &[NodeId],
    target: NodeId,
    realization: &OpoaoRealization,
    max_hops: u32,
) -> Option<u32> {
    let n = csr.node_count();
    let mut arrival = vec![u32::MAX; n];
    for &s in sources {
        arrival[s.index()] = 0;
    }
    if sources.is_empty() {
        return None;
    }
    if arrival[target.index()] == 0 {
        return Some(0);
    }
    for hop in 1..=max_hops {
        let mut claims = Vec::new();
        for (v, &t) in arrival.iter().enumerate() {
            let u = NodeId::new(v);
            let deg = csr.out_degree(u);
            if t < hop && deg > 0 {
                claims.push(csr.out_neighbors(u)[realization.choice(u, hop, deg)]);
            }
        }
        for w in claims {
            if arrival[w.index()] == u32::MAX {
                arrival[w.index()] = hop;
            }
        }
        if arrival[target.index()] != u32::MAX {
            return Some(hop);
        }
    }
    None
}

/// Hop distance from every node to `target` along graph edges
/// (backward BFS over in-neighbors), ignoring the realization.
fn hops_to_target(g: &DiGraph, target: NodeId) -> Vec<Option<u32>> {
    let mut dist = vec![None; g.node_count()];
    dist[target.index()] = Some(0);
    let mut frontier = vec![target];
    let mut d = 0u32;
    while !frontier.is_empty() {
        d += 1;
        let mut next = Vec::new();
        for &w in &frontier {
            for &u in g.in_neighbors(w) {
                if dist[u.index()].is_none() {
                    dist[u.index()] = Some(d);
                    next.push(u);
                }
            }
        }
        frontier = next;
    }
    dist
}

// RR-sketch inversion. On graphs small enough to enumerate every
// protector subset, membership in the RR set must agree *exactly*
// with the forward timestamp rule: a set A saves the target on
// realization φ iff A ∩ RR(target, φ) ≠ ∅ (or the rumor never reaches
// the target at all, in which case the sketch is counted
// always-saved and never stored).
proptest! {
    #[test]
    fn rr_sketch_coverage_matches_exhaustive_forward_rule(
        (g, rumors) in arb_tiny_instance(),
        rseed in 0u64..64,
    ) {
        let csr = CsrGraph::from(&g);
        let n = g.node_count();
        let realization = OpoaoRealization::new(rseed);
        let max_hops = 31;
        let mut scratch = RrScratch::new();
        for t in 0..n {
            let target = NodeId::new(t);
            let mut batch = SketchBatch::new();
            let stored = rr_sketch_into(
                &csr, &rumors, target, &realization, max_hops, &mut scratch, &mut batch,
            );
            let t_rumor = forward_rule_arrival(&csr, &rumors, target, &realization, max_hops);
            prop_assert_eq!(stored, t_rumor.is_some(), "storage vs rumor reachability");
            if !stored {
                prop_assert_eq!(batch.always_saved(), 1);
                prop_assert_eq!(batch.set_count(), 0);
                continue;
            }
            let tau = batch.arrival(0);
            prop_assert_eq!(Some(tau), t_rumor);
            let members = batch.members(0);
            // Exhaustive check over every protector subset of the
            // non-rumor nodes: 2^(n - |rumors|) ≤ 128 cases.
            let free: Vec<NodeId> = (0..n)
                .map(NodeId::new)
                .filter(|v| !rumors.contains(v))
                .collect();
            for mask in 0u32..(1 << free.len()) {
                let set: Vec<NodeId> = free
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, &v)| v)
                    .collect();
                let covered = set.iter().any(|v| members.contains(v));
                let t_set = forward_rule_arrival(&csr, &set, target, &realization, max_hops);
                let saved = t_set.is_some_and(|ts| ts <= tau);
                prop_assert_eq!(
                    covered, saved,
                    "subset {:?} target {} tau {}", set, target, tau
                );
            }
        }
    }

    #[test]
    fn rr_sketch_members_never_escape_the_backward_reachable_set(
        (g, rumors) in arb_tiny_instance(),
        rseed in 0u64..64,
    ) {
        // Every RR member must sit on some ≤ τ-hop path into the
        // target — the sketch walk may never wander outside the
        // target's backward-reachable ball.
        let csr = CsrGraph::from(&g);
        let realization = OpoaoRealization::new(rseed);
        let mut scratch = RrScratch::new();
        let mut batch = SketchBatch::new();
        for t in 0..g.node_count() {
            let target = NodeId::new(t);
            batch.clear();
            if !rr_sketch_into(&csr, &rumors, target, &realization, 31, &mut scratch, &mut batch) {
                continue;
            }
            let tau = batch.arrival(0);
            let dist = hops_to_target(&g, target);
            let members = batch.members(0);
            // The target itself arrives at time 0, so it is always a member.
            prop_assert!(members.contains(&target));
            for &u in members {
                let d = dist[u.index()];
                prop_assert!(
                    d.is_some_and(|d| d <= tau),
                    "member {} is {:?} hops from target {} but tau is {}",
                    u, d, target, tau
                );
            }
            // No duplicates: each member is stamped exactly once.
            let mut sorted: Vec<u32> = members.iter().map(|v| v.raw()).collect();
            sorted.sort_unstable();
            let before = sorted.len();
            sorted.dedup();
            prop_assert_eq!(before, sorted.len());
        }
    }
}

/// Strategy: a 10–40-node graph with up to five arcs per node, 1–3
/// rumor originators and a hop budget of 1–31 — enough buckets and
/// in-arcs for members whose β is raised after they join the set.
fn arb_sketch_instance() -> impl Strategy<Value = (DiGraph, Vec<NodeId>, u32)> {
    (10usize..41).prop_flat_map(|n| {
        (
            proptest::collection::vec((0..n, 0..n), n..(5 * n)),
            proptest::collection::btree_set(0..n, 1..4),
            1u32..32,
        )
            .prop_map(move |(pairs, rumors, max_hops)| {
                let mut g = DiGraph::with_nodes(n);
                for (u, v) in pairs {
                    if u != v {
                        let _ = g.add_edge(NodeId::new(u), NodeId::new(v));
                    }
                }
                let rumors: Vec<NodeId> = rumors.into_iter().map(NodeId::new).collect();
                (g, rumors, max_hops)
            })
    })
}

// RR sketches against their definition on graphs too large to
// enumerate protector subsets: a sketch is stored exactly when the
// rumor arrives within the hop budget, at τ = its arrival, and its
// members are exactly the nodes whose own wave reaches the target by
// τ, each once. CI reruns the `rr_sketch` tests in release with
// `PROPTEST_CASES=1000`.
proptest! {
    #[test]
    fn rr_sketch_members_match_the_forward_rule_definition(
        (g, rumors, max_hops) in arb_sketch_instance(),
        rseed in 0u64..1024,
    ) {
        let csr = CsrGraph::from(&g);
        let n = g.node_count();
        let realization = OpoaoRealization::new(rseed);
        let mut scratch = RrScratch::new();
        let mut batch = SketchBatch::new();
        for t in 0..n {
            let target = NodeId::new(t);
            batch.clear();
            let stored = rr_sketch_into(
                &csr, &rumors, target, &realization, max_hops, &mut scratch, &mut batch,
            );
            let t_rumor = forward_rule_arrival(&csr, &rumors, target, &realization, max_hops);
            prop_assert_eq!(stored, t_rumor.is_some(), "target {}", target);
            let Some(tau) = t_rumor else {
                prop_assert_eq!((batch.always_saved(), batch.set_count()), (1, 0));
                continue;
            };
            prop_assert_eq!(batch.arrival(0), tau, "target {}", target);
            let mut members: Vec<NodeId> = batch.members(0).to_vec();
            members.sort_unstable();
            let want: Vec<NodeId> = (0..n)
                .map(NodeId::new)
                .filter(|&u| {
                    forward_rule_arrival(&csr, &[u], target, &realization, tau)
                        .is_some_and(|t| t <= tau)
                })
                .collect();
            prop_assert_eq!(members, want, "target {} tau {}", target, tau);
        }
    }
}

// Workspace hygiene: a run in a workspace reused across arbitrary
// earlier runs must equal the same run in a *fresh* workspace, which
// proves the epoch reset leaks nothing between runs.
proptest! {
    #[test]
    fn run_into_with_reused_workspace_matches_fresh_run_for_every_model(
        (g, seeds) in arb_instance(),
        seed in 0u64..1024,
    ) {
        let csr = CsrGraph::from(&g);
        let mut ws = SimWorkspace::new();
        // Dirty the workspace with an unrelated run first.
        let mut dirty_rng = SmallRng::seed_from_u64(seed ^ 0xABCD);
        OpoaoModel::new(5).run_into(&csr, &seeds, &mut ws, &mut dirty_rng);

        let opoao = OpoaoModel::default();
        let doam = DoamModel::default();
        let ic = CompetitiveIcModel::new(0.4).unwrap();
        let lt = CompetitiveLtModel::default();
        macro_rules! check {
            ($model:expr, $name:literal) => {{
                let mut a = SmallRng::seed_from_u64(seed);
                let mut b = SmallRng::seed_from_u64(seed);
                $model.run_into(&csr, &seeds, &mut ws, &mut a);
                let fresh = fresh_run(&$model, &csr, &seeds, &mut b);
                prop_assert_eq!(ws.to_outcome(), fresh, $name);
            }};
        }
        check!(opoao, "opoao");
        check!(doam, "doam");
        check!(ic, "competitive-ic");
        check!(lt, "competitive-lt");
    }

    #[test]
    fn workspace_reuse_never_leaks_state_between_runs(
        (g, seeds) in arb_instance(),
        seed in 0u64..1024,
    ) {
        // Run a sequence of different (model, seed) pairs through ONE
        // workspace and check each against an independent fresh run.
        // Any stale status, claim, counter, or trace surviving a
        // `begin()` would surface as a mismatch.
        let csr = CsrGraph::from(&g);
        let mut ws = SimWorkspace::new();
        for i in 0..6u64 {
            let s = seed.wrapping_mul(31).wrapping_add(i);
            let mut a = SmallRng::seed_from_u64(s);
            let mut b = SmallRng::seed_from_u64(s);
            if i % 2 == 0 {
                OpoaoModel::new(8).run_into(&csr, &seeds, &mut ws, &mut a);
                let fresh = fresh_run(&OpoaoModel::new(8), &csr, &seeds, &mut b);
                prop_assert_eq!(ws.to_outcome(), fresh);
            } else {
                CompetitiveIcModel::new(0.5).unwrap().run_into(&csr, &seeds, &mut ws, &mut a);
                let fresh = fresh_run(&CompetitiveIcModel::new(0.5).unwrap(), &csr, &seeds, &mut b);
                prop_assert_eq!(ws.to_outcome(), fresh);
            }
        }
    }
}

// The lane kernel against the scalar one: every lane of a packed run
// must reproduce, node for node and hop for hop, the scalar realized
// run with that lane's protector set, whether the run hashes each
// target or reads it from a target table. CI reruns these in release
// with `PROPTEST_CASES=1000`.
proptest! {
    #[test]
    fn opoao_lanes_match_the_scalar_kernel(
        (g, seeds) in arb_instance(),
        picks in proptest::collection::vec(proptest::collection::vec(0usize..30, 0..4), OPOAO_LANES),
        rseed in 0u64..1024,
        hops in 2u32..40,
    ) {
        let rumors = seeds.rumors();
        let free: Vec<NodeId> = g.nodes().filter(|v| !rumors.contains(v)).collect();
        prop_assume!(!free.is_empty());
        // Protectors are drawn from the few non-rumor nodes, so sets
        // repeat nodes across lanes; sinks are common on these graphs.
        // Lanes with different sets go quiescent at different hops.
        let mut sets: Vec<Vec<NodeId>> = picks
            .iter()
            .map(|p| p.iter().map(|&i| free[i % free.len()]).collect())
            .collect();
        let sink = g.nodes().find(|&v| g.out_degree(v) == 0);
        if let Some(sink) = sink.filter(|v| !rumors.contains(v)) {
            // Lane 1 protects from the sink alone.
            sets[1] = vec![sink];
        }
        if rseed % 2 == 0 {
            // One node protects in every lane, so it is active in all
            // of them from hop 0.
            let everywhere = free[rseed as usize % free.len()];
            for set in &mut sets {
                set.push(everywhere);
            }
        } else {
            // Lane 0 gets the empty protector set.
            sets[0].clear();
        }
        // The drawn rumors, and a sink as the only rumor seed: a
        // rumor that can never spread.
        let mut cases = vec![(rumors.to_vec(), sets.clone())];
        if let Some(sink) = sink {
            let others = sets
                .iter()
                .map(|set| set.iter().copied().filter(|&v| v != sink).collect())
                .collect();
            cases.push((vec![sink], others));
        }

        let csr = CsrGraph::from(&g);
        let mut traced = LaneWorkspace::traced();
        let mut plain = LaneWorkspace::new();
        let (mut traced_table, mut plain_table) = (LaneWorkspace::traced(), LaneWorkspace::new());
        // One table, refilled for every realization and hop budget.
        let mut table = TargetTable::new();
        let mut ws = SimWorkspace::new();
        let (mut trace, mut table_trace) = (Vec::new(), Vec::new());
        for (rumors, sets) in &cases {
            for lane_count in [1, 2, 63, 64] {
                let sets = &sets[..lane_count];
                for max_hops in [0, 1, hops] {
                    let model = OpoaoModel::new(max_hops);
                    for r in 0..3 {
                        let real = OpoaoRealization::new(rseed.wrapping_mul(3).wrapping_add(r));
                        model.run_lanes_into(&csr, rumors, sets, &mut traced, &real).unwrap();
                        model.run_lanes_into(&csr, rumors, sets, &mut plain, &real).unwrap();
                        let mask = traced.lane_mask();
                        prop_assert_eq!(mask.count_ones() as usize, lane_count);
                        for (lane, set) in sets.iter().enumerate() {
                            let scalar = SeedSets::new(&g, rumors.clone(), set.clone()).unwrap();
                            model.run_realized_into(&csr, &scalar, &mut ws, &real);
                            for v in g.nodes() {
                                let status = ws.status(v);
                                let bit = |m: u64| (m >> lane) & 1 == 1;
                                prop_assert_eq!(
                                    (bit(traced.infected(v)), bit(traced.protected(v))),
                                    (status.is_infected(), status.is_protected()),
                                    "lane {} of {}, node {}, {} hops, realization {}",
                                    lane, lane_count, v, max_hops, r
                                );
                            }
                            traced.trace_into(lane, &mut trace);
                            prop_assert_eq!(
                                &trace[..],
                                ws.trace(),
                                "trace of lane {} of {}, {} hops, realization {}",
                                lane, lane_count, max_hops, r
                            );
                            prop_assert_eq!(traced.is_quiescent(lane), ws.is_quiescent());
                        }
                        for v in g.nodes() {
                            prop_assert_eq!((traced.infected(v) | traced.protected(v)) & !mask, 0);
                            // Tracing changes no status.
                            prop_assert_eq!(plain.infected(v), traced.infected(v));
                            prop_assert_eq!(plain.protected(v), traced.protected(v));
                        }
                        // The same realization read back from a table
                        // filled for the run's hop budget, and from one
                        // filled for a longer budget.
                        for table_hops in [max_hops, max_hops + hops] {
                            table.fill(&csr, &real, table_hops);
                            model.run_lanes_into(&csr, rumors, sets, &mut traced_table, &table).unwrap();
                            model.run_lanes_into(&csr, rumors, sets, &mut plain_table, &table).unwrap();
                            prop_assert_eq!(traced_table.lane_mask(), mask);
                            for v in g.nodes() {
                                for lanes in [&traced_table, &plain_table] {
                                    prop_assert_eq!(
                                        (lanes.infected(v), lanes.protected(v)),
                                        (traced.infected(v), traced.protected(v)),
                                        "node {} of {} lanes, {} hops, table of {} hops, realization {}",
                                        v, lane_count, max_hops, table_hops, r
                                    );
                                }
                            }
                            for lane in 0..lane_count {
                                traced.trace_into(lane, &mut trace);
                                traced_table.trace_into(lane, &mut table_trace);
                                prop_assert_eq!(
                                    &table_trace,
                                    &trace,
                                    "trace of lane {} of {}, {} hops, table of {} hops, realization {}",
                                    lane, lane_count, max_hops, table_hops, r
                                );
                                prop_assert_eq!(traced_table.is_quiescent(lane), traced.is_quiescent(lane));
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn opoao_lanes_reject_invalid_sets_like_set_protectors(
        (g, seeds) in arb_instance(),
        bad in 0usize..40,
        lane in 0usize..OPOAO_LANES,
    ) {
        // A set the scalar path rejects is rejected with the same
        // error in any lane, and the workspace stays reusable.
        let csr = CsrGraph::from(&g);
        let mut set = seeds.protectors().to_vec();
        set.push(NodeId::new(bad));
        let want = seeds.with_protectors(&g, set.clone()).err();
        let mut sets = vec![Vec::new(); lane + 1];
        sets[lane] = set;
        let mut lanes = LaneWorkspace::new();
        let real = OpoaoRealization::new(bad as u64);
        let got = OpoaoModel::default()
            .run_lanes_into(&csr, seeds.rumors(), &sets, &mut lanes, &real)
            .err();
        prop_assert_eq!(got, want);
        OpoaoModel::default()
            .run_lanes_into(&csr, seeds.rumors(), [seeds.protectors()], &mut lanes, &real)
            .unwrap();
        let mut ws = SimWorkspace::new();
        OpoaoModel::default().run_realized_into(&csr, &seeds, &mut ws, &real);
        for v in g.nodes() {
            prop_assert_eq!(lanes.infected(v) == 1, ws.status(v).is_infected());
        }
    }
}
