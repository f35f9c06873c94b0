//! The timestamp-assignment machinery of §V-A (Fig. 1).
//!
//! The paper's submodularity proof instruments an OPOAO diffusion: at
//! each step, when an active node picks its activation target, the
//! corresponding edge receives a timestamp `t_s` recording that the
//! cascade originating at seed `s` used that edge at step `t` — and
//! repeat selections stamp the edge again (Fig. 1(a)), with only the
//! smallest timestamp per seed preserved (Fig. 1(b)). This module
//! makes that construction an explicit API so the lemmas behind
//! Theorem 1 can be checked mechanically:
//!
//! - every stamp `t_s` on an in-edge of `v` witnesses a cascade path
//!   from seed `s` arriving at `v` by step `t` (Lemma 1);
//! - a protected node's smallest protector stamp is no larger than
//!   its smallest rumor stamp (the arrival-order condition of
//!   Lemma 2).

// xtask-allow-file: index -- attribution/status arrays are node_count-sized at run start; nodes come from the same snapshot
use std::collections::BTreeMap;

use lcrb_graph::{CsrGraph, NodeId};

use crate::{DiffusionOutcome, OpoaoRealization, SeedSets, SimWorkspace, Status};

/// A single edge timestamp: the cascade originating at `seed` used
/// the edge at step `hop` (the paper's `hop_seed` notation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdgeStamp {
    /// The originating seed (a rumor or protector originator).
    pub seed: NodeId,
    /// The step at which the edge was used.
    pub hop: u32,
}

/// An OPOAO run instrumented with edge timestamps and per-node seed
/// attribution, produced by [`run_opoao_timestamped`].
#[derive(Clone, Debug)]
pub struct TimestampedOutcome {
    /// The plain diffusion outcome.
    pub outcome: DiffusionOutcome,
    /// `attribution[v]` is the originating seed whose cascade
    /// activated `v` (`Some(v)` itself for seeds, `None` for inactive
    /// nodes).
    pub attribution: Vec<Option<NodeId>>,
    /// Smallest timestamp per (edge, seed), keyed by `(source,
    /// target)` — the simplified stamps of Fig. 1(b). Ordered so
    /// iteration is deterministic (the submodularity lemmas are
    /// checked by iterating stamps; see the determinism lint rule).
    stamps: BTreeMap<(NodeId, NodeId), Vec<EdgeStamp>>,
}

impl TimestampedOutcome {
    /// The preserved (smallest-per-seed) stamps on edge `(u, v)`, in
    /// first-stamped order; empty if the edge was never chosen.
    #[must_use]
    pub fn stamps_on(&self, u: NodeId, v: NodeId) -> &[EdgeStamp] {
        self.stamps.get(&(u, v)).map_or(&[], Vec::as_slice)
    }

    /// Number of distinct edges that received at least one stamp.
    #[must_use]
    pub fn stamped_edge_count(&self) -> usize {
        self.stamps.len()
    }

    /// Iterates over all stamped edges as `((source, target),
    /// stamps)`, in ascending `(source, target)` order.
    pub fn stamped_edges(&self) -> impl Iterator<Item = (&(NodeId, NodeId), &Vec<EdgeStamp>)> {
        self.stamps.iter()
    }

    /// The smallest stamp on any in-edge of `v` originating from a
    /// seed of the given cascade (`true` = protector seeds), along
    /// with the edge source. `None` if no such stamp exists.
    #[must_use]
    pub fn earliest_incoming(
        &self,
        g: &CsrGraph,
        v: NodeId,
        seeds: &SeedSets,
        protector_cascade: bool,
    ) -> Option<(NodeId, EdgeStamp)> {
        let belongs = |s: NodeId| {
            if protector_cascade {
                seeds.protectors().contains(&s)
            } else {
                seeds.rumors().contains(&s)
            }
        };
        g.in_neighbors(v)
            .iter()
            .flat_map(|&u| {
                self.stamps_on(u, v)
                    .iter()
                    .filter(|st| belongs(st.seed))
                    .map(move |st| (u, *st))
            })
            .min_by_key(|(_, st)| st.hop)
    }
}

/// Runs the OPOAO model against a fixed realization, recording the
/// full timestamp assignment of §V-A. Identical diffusion semantics
/// (and outcome) to [`crate::OpoaoModel::run_realized_into`] with the
/// same arguments; the per-node diffusion state lives in a
/// [`SimWorkspace`], exactly as in the plain run.
///
/// # Panics
///
/// Panics if `seeds` refers to nodes outside `graph`.
#[must_use]
pub fn run_opoao_timestamped(
    graph: &CsrGraph,
    seeds: &SeedSets,
    max_hops: u32,
    realization: &OpoaoRealization,
) -> TimestampedOutcome {
    let n = graph.node_count();
    let mut ws = SimWorkspace::with_capacity(n);
    ws.begin(n, seeds);
    let mut attribution: Vec<Option<NodeId>> = vec![None; n];
    for &s in seeds.rumors().iter().chain(seeds.protectors()) {
        attribution[s.index()] = Some(s);
    }
    let mut stamps: BTreeMap<(NodeId, NodeId), Vec<EdgeStamp>> = BTreeMap::new();

    // counters[u] = number of inactive out-neighbors of u.
    ws.counters.clear();
    ws.counters.extend_from_slice(graph.out_degrees());
    let retire = |w: NodeId, counters: &mut Vec<u32>| {
        for &u in graph.in_neighbors(w) {
            counters[u.index()] -= 1;
        }
    };
    for &s in seeds.rumors().iter().chain(seeds.protectors()) {
        retire(s, &mut ws.counters);
    }
    // Unlike the plain engine, keep *every* out-capable active node
    // live: the paper stamps repeat selections of already-active
    // targets too (Fig. 1(a), step 2). The quiescence rule is
    // unchanged — stamps stop mattering once no inactive target
    // remains — so we still retire exhausted nodes for termination,
    // but only from claiming, not from stamping... which is the same
    // thing: a retired node's choices can no longer change the
    // diffusion, and the smallest stamp per (edge, seed) is already
    // fixed by then unless a new seed's cascade arrives — impossible
    // once all its targets are active. Hence retiring preserves the
    // simplified stamp set exactly. `frontier` is the live set.
    ws.frontier.clear();
    ws.frontier.extend(
        seeds
            .rumors()
            .iter()
            .chain(seeds.protectors())
            .copied()
            .filter(|&v| graph.out_degree(v) > 0),
    );

    let mut claim_attr: Vec<Option<NodeId>> = vec![None; n];
    let mut quiescent = false;

    for hop in 1..=max_hops {
        let counters = &ws.counters;
        ws.frontier.retain(|&u| counters[u.index()] > 0);
        if ws.frontier.is_empty() {
            quiescent = true;
            break;
        }
        ws.claimed.clear();
        for i in 0..ws.frontier.len() {
            let u = ws.frontier[i];
            let degree = graph.out_degree(u);
            let idx = realization.choice(u, hop, degree);
            let target = graph.out_neighbors(u)[idx];
            // xtask-allow: panic -- nodes enter `live` only after their attribution slot is written
            let seed = attribution[u.index()].expect("active nodes are attributed");
            // Record the stamp (smallest per seed).
            let entry = stamps.entry((u, target)).or_default();
            match entry.iter_mut().find(|st| st.seed == seed) {
                Some(st) => st.hop = st.hop.min(hop),
                None => entry.push(EdgeStamp { seed, hop }),
            }
            if !ws.is_inactive(target) {
                continue;
            }
            let cascade = if ws.status(u) == Status::Protected {
                2
            } else {
                1
            };
            let slot = &mut ws.claim[target.index()];
            if *slot == 0 {
                ws.claimed.push(target);
            }
            if cascade > *slot {
                *slot = cascade;
                claim_attr[target.index()] = Some(seed);
            }
        }
        ws.new_protected.clear();
        ws.new_infected.clear();
        for i in 0..ws.claimed.len() {
            let w = ws.claimed[i];
            let slot = ws.claim[w.index()];
            ws.claim[w.index()] = 0;
            attribution[w.index()] = claim_attr[w.index()].take();
            if slot == 2 {
                ws.new_protected.push(w);
            } else {
                ws.new_infected.push(w);
            }
            retire(w, &mut ws.counters);
            if graph.out_degree(w) > 0 {
                ws.frontier.push(w);
            }
        }
        ws.commit_hop(hop);
    }
    ws.set_quiescent(quiescent);
    TimestampedOutcome {
        outcome: ws.to_outcome(),
        attribution,
        stamps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::seeds;
    use crate::OpoaoModel;
    use lcrb_graph::{generators, DiGraph};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn outcome_matches_plain_realized_run() {
        let mut rng = SmallRng::seed_from_u64(2);
        let g = generators::gnm_directed(60, 240, &mut rng).unwrap();
        let s = seeds(&g, &[0, 1], &[2]);
        let csr = CsrGraph::from(&g);
        let real = OpoaoRealization::new(9);
        let mut plain = SimWorkspace::new();
        OpoaoModel::new(20).run_realized_into(&csr, &s, &mut plain, &real);
        let stamped = run_opoao_timestamped(&csr, &s, 20, &real);
        assert_eq!(plain.to_outcome(), stamped.outcome);
    }

    #[test]
    fn path_walk_stamps_each_edge_once() {
        let g = generators::path_graph(4);
        let s = seeds(&g, &[0], &[]);
        let run = run_opoao_timestamped(&CsrGraph::from(&g), &s, 10, &OpoaoRealization::new(0));
        // Forced walk: edge (i, i+1) stamped by seed 0 at hop i+1.
        for i in 0..3u32 {
            let st = run.stamps_on(NodeId::new(i as usize), NodeId::new(i as usize + 1));
            assert_eq!(st.len(), 1);
            assert_eq!(st[0].seed, NodeId::new(0));
            assert_eq!(st[0].hop, i + 1);
        }
        assert_eq!(run.stamped_edge_count(), 3);
    }

    #[test]
    fn repeat_selection_keeps_smallest_stamp() {
        // 0 -> 1 only: node 0 re-selects node 1 every hop while it
        // still has an inactive target... after hop 1, node 1 is
        // active, so 0 retires — the preserved stamp is the hop-1
        // stamp, exactly the simplified Fig. 1(b) content.
        let g = DiGraph::from_edges(2, [(0, 1)]).unwrap();
        let s = seeds(&g, &[0], &[]);
        let run = run_opoao_timestamped(&CsrGraph::from(&g), &s, 10, &OpoaoRealization::new(1));
        let st = run.stamps_on(NodeId::new(0), NodeId::new(1));
        assert_eq!(
            st,
            &[EdgeStamp {
                seed: NodeId::new(0),
                hop: 1
            }]
        );
    }

    #[test]
    fn lemma1_stamps_witness_arrival() {
        // Every stamp t_s on an in-edge of v implies the cascade from
        // s reached the edge's source before t, i.e. the source
        // activated at some hop < t with attribution s.
        let mut rng = SmallRng::seed_from_u64(5);
        let g = generators::gnm_directed(50, 220, &mut rng).unwrap();
        let s = seeds(&g, &[0, 1], &[2, 3]);
        let run = run_opoao_timestamped(&CsrGraph::from(&g), &s, 25, &OpoaoRealization::new(4));
        for (&(u, _v), stamps) in run.stamped_edges() {
            for st in stamps {
                let hop_u = run.outcome.activation_hop(u).expect("stamper is active");
                assert!(
                    hop_u < st.hop,
                    "stamp at {} but {u} active at {hop_u}",
                    st.hop
                );
                assert_eq!(run.attribution[u.index()], Some(st.seed));
            }
        }
    }

    #[test]
    fn lemma2_protected_nodes_have_earliest_protector_stamp() {
        // For every protected non-seed node v: the smallest protector
        // stamp on v's in-edges is <= the smallest rumor stamp
        // (protector priority resolves equality).
        for graph_seed in 0..8u64 {
            let mut rng = SmallRng::seed_from_u64(graph_seed);
            let g = generators::gnm_directed(40, 200, &mut rng).unwrap();
            let s = seeds(&g, &[0, 1], &[2, 3]);
            let csr = CsrGraph::from(&g);
            let run = run_opoao_timestamped(&csr, &s, 25, &OpoaoRealization::new(graph_seed));
            for v in g.nodes() {
                if !run.outcome.status(v).is_protected() || s.protectors().contains(&v) {
                    continue;
                }
                let p = run
                    .earliest_incoming(&csr, v, &s, true)
                    .expect("protected non-seed has a protector stamp");
                if let Some(r) = run.earliest_incoming(&csr, v, &s, false) {
                    assert!(
                        p.1.hop <= r.1.hop,
                        "node {v}: protector stamp {} after rumor stamp {}",
                        p.1.hop,
                        r.1.hop
                    );
                }
                // The stamp coincides with the activation hop.
                assert_eq!(Some(p.1.hop), run.outcome.activation_hop(v));
            }
        }
    }

    #[test]
    fn attribution_is_consistent_with_statuses() {
        let mut rng = SmallRng::seed_from_u64(7);
        let g = generators::gnm_directed(50, 200, &mut rng).unwrap();
        let s = seeds(&g, &[0, 1], &[2]);
        let run = run_opoao_timestamped(&CsrGraph::from(&g), &s, 20, &OpoaoRealization::new(11));
        for v in g.nodes() {
            match run.outcome.status(v) {
                Status::Inactive => assert_eq!(run.attribution[v.index()], None),
                Status::Infected => {
                    let seed = run.attribution[v.index()].expect("attributed");
                    assert!(s.rumors().contains(&seed), "infected {v} from {seed}");
                }
                Status::Protected => {
                    let seed = run.attribution[v.index()].expect("attributed");
                    assert!(s.protectors().contains(&seed), "protected {v} from {seed}");
                }
            }
        }
    }
}
