//! Diffusion outcomes: per-node statuses, activation times, and
//! hop-by-hop traces (the raw material for the paper's Figures 4–9).

// xtask-allow-file: index -- status/activation arrays are node_count-sized by the workspace that assembles the outcome
use lcrb_graph::NodeId;

/// The status of a node during or after a two-cascade diffusion
/// (§III of the paper: infected by the rumor cascade R, protected by
/// the protector cascade P, or still inactive).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Status {
    /// Not reached by either cascade.
    #[default]
    Inactive,
    /// Activated by the rumor cascade R.
    Infected,
    /// Activated by the protector cascade P.
    Protected,
}

impl Status {
    /// `true` for [`Status::Infected`].
    #[inline]
    #[must_use]
    pub fn is_infected(self) -> bool {
        self == Status::Infected
    }

    /// `true` for [`Status::Protected`].
    #[inline]
    #[must_use]
    pub fn is_protected(self) -> bool {
        self == Status::Protected
    }

    /// `true` unless the node is [`Status::Inactive`].
    #[inline]
    #[must_use]
    pub fn is_active(self) -> bool {
        self != Status::Inactive
    }
}

/// Activity counts after one diffusion hop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HopRecord {
    /// Hop number (0 = seed placement).
    pub hop: u32,
    /// Nodes newly infected at this hop.
    pub new_infected: usize,
    /// Nodes newly protected at this hop.
    pub new_protected: usize,
    /// Cumulative infected count after this hop.
    pub total_infected: usize,
    /// Cumulative protected count after this hop.
    pub total_protected: usize,
}

/// The complete result of one two-cascade diffusion run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiffusionOutcome {
    status: Vec<Status>,
    activation_hop: Vec<Option<u32>>,
    trace: Vec<HopRecord>,
    quiescent: bool,
}

impl DiffusionOutcome {
    /// Assembles an outcome from raw per-node data and a trace.
    ///
    /// # Panics
    ///
    /// Panics if `status` and `activation_hop` have different lengths
    /// or the trace is empty.
    #[must_use]
    pub fn new(
        status: Vec<Status>,
        activation_hop: Vec<Option<u32>>,
        trace: Vec<HopRecord>,
        quiescent: bool,
    ) -> Self {
        assert_eq!(
            status.len(),
            activation_hop.len(),
            "status / activation length mismatch"
        );
        assert!(!trace.is_empty(), "trace must include the seed hop");
        DiffusionOutcome {
            status,
            activation_hop,
            trace,
            quiescent,
        }
    }

    /// Final status of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    #[must_use]
    pub fn status(&self, node: NodeId) -> Status {
        self.status[node.index()]
    }

    /// All final statuses, indexed by node.
    #[inline]
    #[must_use]
    pub fn statuses(&self) -> &[Status] {
        &self.status
    }

    /// The hop at which `node` activated (`Some(0)` for seeds), or
    /// `None` if it stayed inactive.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    #[must_use]
    pub fn activation_hop(&self, node: NodeId) -> Option<u32> {
        self.activation_hop[node.index()]
    }

    /// Total number of infected nodes.
    #[must_use]
    pub fn infected_count(&self) -> usize {
        self.trace.last().map_or(0, |r| r.total_infected)
    }

    /// Total number of protected nodes.
    #[must_use]
    pub fn protected_count(&self) -> usize {
        self.trace.last().map_or(0, |r| r.total_protected)
    }

    /// Ids of all infected nodes, in increasing order.
    #[must_use]
    pub fn infected_nodes(&self) -> Vec<NodeId> {
        self.status
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_infected())
            .map(|(i, _)| NodeId::new(i))
            .collect()
    }

    /// Ids of all protected nodes, in increasing order.
    #[must_use]
    pub fn protected_nodes(&self) -> Vec<NodeId> {
        self.status
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_protected())
            .map(|(i, _)| NodeId::new(i))
            .collect()
    }

    /// The hop-by-hop trace, starting with hop 0 (seed placement).
    #[inline]
    #[must_use]
    pub fn trace(&self) -> &[HopRecord] {
        &self.trace
    }

    /// Cumulative infected count after `hop`; if the run went
    /// quiescent earlier, the final value is carried forward.
    #[must_use]
    pub fn infected_at_hop(&self, hop: u32) -> usize {
        let idx = (hop as usize).min(self.trace.len() - 1);
        self.trace[idx].total_infected
    }

    /// `true` if the run stopped because no further activation was
    /// possible (as opposed to exhausting the hop budget).
    #[inline]
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.quiescent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SeedSets, SimWorkspace};
    use lcrb_graph::DiGraph;

    /// An outcome on `n` isolated nodes: rumor 0 and protector 1 at
    /// hop 0, then `protected` and `infected` at hop 1.
    fn outcome(
        n: usize,
        protected: &[usize],
        infected: &[usize],
        quiescent: bool,
    ) -> DiffusionOutcome {
        let g = DiGraph::with_nodes(n);
        let seeds = SeedSets::new(&g, vec![NodeId::new(0)], vec![NodeId::new(1)]).unwrap();
        let mut ws = SimWorkspace::new();
        ws.begin(n, &seeds);
        ws.new_protected
            .extend(protected.iter().map(|&i| NodeId::new(i)));
        ws.new_infected
            .extend(infected.iter().map(|&i| NodeId::new(i)));
        ws.commit_hop(1);
        ws.set_quiescent(quiescent);
        ws.to_outcome()
    }

    #[test]
    fn infected_at_hop_carries_final_value_forward() {
        let o = outcome(3, &[], &[2], true);
        assert_eq!(o.infected_at_hop(0), 1);
        assert_eq!(o.infected_at_hop(1), 2);
        assert_eq!(o.infected_at_hop(30), 2);
        assert!(o.is_quiescent());
    }

    #[test]
    fn node_lists_are_sorted_and_complete() {
        let o = outcome(6, &[5], &[3, 4], true);
        assert_eq!(
            o.infected_nodes(),
            vec![NodeId::new(0), NodeId::new(3), NodeId::new(4)]
        );
        assert_eq!(o.protected_nodes(), vec![NodeId::new(1), NodeId::new(5)]);
        assert_eq!(o.infected_count(), 3);
        assert_eq!(o.protected_count(), 2);
    }

    #[test]
    fn status_helpers() {
        assert!(Status::Infected.is_infected());
        assert!(!Status::Infected.is_protected());
        assert!(Status::Protected.is_active());
        assert!(!Status::Inactive.is_active());
        assert_eq!(Status::default(), Status::Inactive);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn outcome_validates_lengths() {
        let _ = DiffusionOutcome::new(
            vec![Status::Inactive; 3],
            vec![None; 2],
            vec![HopRecord {
                hop: 0,
                new_infected: 0,
                new_protected: 0,
                total_infected: 0,
                total_protected: 0,
            }],
            true,
        );
    }
}
