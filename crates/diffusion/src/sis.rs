//! Competitive SIS rumor spreading — an extension model.
//!
//! Trpevski et al. (reference \[23\] of the paper) model rumors with
//! susceptible–infected–susceptible dynamics: beliefs are not
//! permanent, and nodes can forget and be re-convinced. This module
//! implements a two-cascade SIS variant with the paper's protector
//! priority: at each step a susceptible node contracts the rumor with
//! probability `1 - (1 - β_r)^k` from its `k` infected in-neighbors
//! (independently for the protector cascade with `β_p`), protector
//! acquisition wins simultaneous contractions, and every active node
//! reverts to susceptible with probability `δ`.
//!
//! Unlike the progressive models (§III property 3 does *not* hold),
//! SIS has no absorbing "everyone decided" state — the interesting
//! output is the prevalence trajectory, so this model has its own
//! outcome type instead of [`crate::DiffusionOutcome`].

use rand::Rng;

use lcrb_graph::CsrGraph;

use crate::ic::InvalidProbabilityError;
use crate::{SeedSets, SimWorkspace};

/// The state of a node in the competitive SIS process.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SisState {
    /// Holding neither the rumor nor the truth.
    #[default]
    Susceptible,
    /// Currently spreading the rumor.
    Infected,
    /// Currently spreading the truth.
    Protected,
}

/// Population counts at one step of a SIS run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SisRecord {
    /// Step number (0 = seed placement).
    pub step: u32,
    /// Nodes currently infected.
    pub infected: usize,
    /// Nodes currently protected.
    pub protected: usize,
}

/// The result of a competitive SIS run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SisOutcome {
    /// Node states after the final step.
    pub final_states: Vec<SisState>,
    /// Prevalence per step, starting at step 0.
    pub trace: Vec<SisRecord>,
}

impl SisOutcome {
    /// Infected count at the final step.
    #[must_use]
    pub fn final_infected(&self) -> usize {
        self.trace.last().map_or(0, |r| r.infected)
    }

    /// Protected count at the final step.
    #[must_use]
    pub fn final_protected(&self) -> usize {
        self.trace.last().map_or(0, |r| r.protected)
    }
}

/// The competitive SIS model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CompetitiveSisModel {
    beta_rumor: f64,
    beta_protector: f64,
    recovery: f64,
    /// Number of steps to simulate.
    pub steps: u32,
}

impl CompetitiveSisModel {
    /// Creates a model with per-contact transmission probabilities
    /// `beta_rumor` / `beta_protector`, per-step forgetting
    /// probability `recovery`, and a step budget.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidProbabilityError`] if any probability is NaN
    /// or outside `[0, 1]`.
    pub fn new(
        beta_rumor: f64,
        beta_protector: f64,
        recovery: f64,
        steps: u32,
    ) -> Result<Self, InvalidProbabilityError> {
        for p in [beta_rumor, beta_protector, recovery] {
            if p.is_nan() || !(0.0..=1.0).contains(&p) {
                return Err(InvalidProbabilityError { value: p });
            }
        }
        Ok(CompetitiveSisModel {
            beta_rumor,
            beta_protector,
            recovery,
            steps,
        })
    }

    /// The rumor transmission probability.
    #[must_use]
    pub fn beta_rumor(&self) -> f64 {
        self.beta_rumor
    }

    /// The protector transmission probability.
    #[must_use]
    pub fn beta_protector(&self) -> f64 {
        self.beta_protector
    }

    /// The per-step recovery (forgetting) probability.
    #[must_use]
    pub fn recovery(&self) -> f64 {
        self.recovery
    }

    /// Runs the process for `steps` steps against a frozen snapshot,
    /// keeping the hot double-buffered state in `ws` so repeated runs
    /// only allocate for the returned outcome (trace + final states).
    ///
    /// SIS is non-progressive, so it returns its own [`SisOutcome`]
    /// rather than populating the workspace's progressive-cascade
    /// fields; `ws` is purely scratch here.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` refers to nodes outside the snapshot.
    pub fn run_into<R: Rng + ?Sized>(
        &self,
        graph: &CsrGraph,
        seeds: &SeedSets,
        ws: &mut SimWorkspace,
        rng: &mut R,
    ) -> SisOutcome {
        let n = graph.node_count();
        ws.sis_state.clear();
        ws.sis_state.resize(n, SisState::Susceptible);
        for &r in seeds.rumors() {
            ws.sis_state[r.index()] = SisState::Infected;
        }
        for &p in seeds.protectors() {
            ws.sis_state[p.index()] = SisState::Protected;
        }
        ws.sis_next.clear();
        ws.sis_next.extend_from_slice(&ws.sis_state);
        let count = |state: &[SisState]| {
            let infected = state.iter().filter(|&&s| s == SisState::Infected).count();
            let protected = state.iter().filter(|&&s| s == SisState::Protected).count();
            (infected, protected)
        };
        let (i0, p0) = count(&ws.sis_state);
        let mut trace = Vec::with_capacity(self.steps as usize + 1);
        trace.push(SisRecord {
            step: 0,
            infected: i0,
            protected: p0,
        });

        for step in 1..=self.steps {
            for v in graph.nodes() {
                match ws.sis_state[v.index()] {
                    SisState::Susceptible => {
                        let (mut inf_nbrs, mut prot_nbrs) = (0u32, 0u32);
                        for &u in graph.in_neighbors(v) {
                            match ws.sis_state[u.index()] {
                                SisState::Infected => inf_nbrs += 1,
                                SisState::Protected => prot_nbrs += 1,
                                SisState::Susceptible => {}
                            }
                        }
                        let p_inf = 1.0 - (1.0 - self.beta_rumor).powi(inf_nbrs as i32);
                        let p_prot = 1.0 - (1.0 - self.beta_protector).powi(prot_nbrs as i32);
                        let got_prot = prot_nbrs > 0 && rng.gen_bool(p_prot);
                        let got_inf = inf_nbrs > 0 && rng.gen_bool(p_inf);
                        // Protector priority on simultaneous contraction.
                        ws.sis_next[v.index()] = if got_prot {
                            SisState::Protected
                        } else if got_inf {
                            SisState::Infected
                        } else {
                            SisState::Susceptible
                        };
                    }
                    active => {
                        ws.sis_next[v.index()] =
                            if self.recovery > 0.0 && rng.gen_bool(self.recovery) {
                                SisState::Susceptible
                            } else {
                                active
                            };
                    }
                }
            }
            std::mem::swap(&mut ws.sis_state, &mut ws.sis_next);
            let (i, p) = count(&ws.sis_state);
            trace.push(SisRecord {
                step,
                infected: i,
                protected: p,
            });
        }
        SisOutcome {
            // xtask-allow: bufclone -- one copy per run to materialize the outcome; the step loop above mutates in place
            final_states: ws.sis_state.clone(),
            trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::seeds;
    use lcrb_graph::{generators, DiGraph};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// One run of `m` on `g` in a fresh workspace.
    fn run(m: &CompetitiveSisModel, g: &DiGraph, s: &SeedSets, rng: &mut SmallRng) -> SisOutcome {
        m.run_into(&CsrGraph::from(g), s, &mut SimWorkspace::new(), rng)
    }

    #[test]
    fn rejects_bad_probabilities() {
        assert!(CompetitiveSisModel::new(-0.1, 0.1, 0.1, 10).is_err());
        assert!(CompetitiveSisModel::new(0.1, 1.5, 0.1, 10).is_err());
        assert!(CompetitiveSisModel::new(0.1, 0.1, f64::NAN, 10).is_err());
        assert!(CompetitiveSisModel::new(0.3, 0.4, 0.05, 10).is_ok());
    }

    #[test]
    fn zero_beta_never_spreads_and_full_recovery_clears() {
        let g = generators::complete_graph(10);
        let m = CompetitiveSisModel::new(0.0, 0.0, 1.0, 5).unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        let o = run(&m, &g, &seeds(&g, &[0], &[1]), &mut rng);
        // Seeds recover at step 1 and nothing ever spreads.
        assert_eq!(o.final_infected(), 0);
        assert_eq!(o.final_protected(), 0);
        assert_eq!(o.trace[0].infected, 1);
        assert_eq!(o.trace[1].infected, 0);
    }

    #[test]
    fn no_recovery_and_certain_transmission_saturates() {
        let g = generators::complete_graph(8);
        let m = CompetitiveSisModel::new(1.0, 0.0, 0.0, 3).unwrap();
        let mut rng = SmallRng::seed_from_u64(2);
        let o = run(&m, &g, &seeds(&g, &[0], &[]), &mut rng);
        assert_eq!(o.final_infected(), 8);
        // Saturated after one step on a complete graph.
        assert_eq!(o.trace[1].infected, 8);
    }

    #[test]
    fn protector_priority_on_simultaneous_contact() {
        // v has one infected and one protected in-neighbor, both with
        // certain transmission: protector wins every time.
        let g = DiGraph::from_edges(3, [(0, 2), (1, 2)]).unwrap();
        let m = CompetitiveSisModel::new(1.0, 1.0, 0.0, 1).unwrap();
        for s in 0..20 {
            let mut rng = SmallRng::seed_from_u64(s);
            let o = run(&m, &g, &seeds(&g, &[0], &[1]), &mut rng);
            assert_eq!(o.final_states[2], SisState::Protected);
        }
    }

    #[test]
    fn endemic_prevalence_is_plausible() {
        // β well above the epidemic threshold with mild recovery:
        // infection persists at a substantial level.
        let mut rng = SmallRng::seed_from_u64(3);
        let g = generators::gnm_directed(200, 1600, &mut rng).unwrap();
        let m = CompetitiveSisModel::new(0.3, 0.0, 0.2, 60).unwrap();
        let o = run(&m, &g, &seeds(&g, &[0, 1, 2], &[]), &mut rng);
        let tail_avg: f64 = o.trace[40..].iter().map(|r| r.infected as f64).sum::<f64>() / 21.0;
        assert!(tail_avg > 40.0, "endemic prevalence too low: {tail_avg}");
        // And never exceeds the population.
        assert!(o.trace.iter().all(|r| r.infected + r.protected <= 200));
    }

    #[test]
    fn protectors_suppress_endemic_rumor() {
        let mut rng = SmallRng::seed_from_u64(4);
        let g = generators::gnm_directed(150, 1200, &mut rng).unwrap();
        let prevalence = |protectors: &[usize], rng: &mut SmallRng| {
            let m = CompetitiveSisModel::new(0.25, 0.4, 0.2, 80).unwrap();
            let s = seeds(&g, &[0, 1], protectors);
            let o = run(&m, &g, &s, rng);
            o.trace[60..].iter().map(|r| r.infected as f64).sum::<f64>() / 21.0
        };
        let without = prevalence(&[], &mut rng);
        let with = prevalence(&[10, 11, 12, 13, 14, 15, 16, 17, 18, 19], &mut rng);
        assert!(
            with < without,
            "protection did not suppress prevalence: {with} vs {without}"
        );
    }

    #[test]
    fn trace_has_one_record_per_step() {
        let g = generators::path_graph(5);
        let m = CompetitiveSisModel::new(0.5, 0.5, 0.1, 12).unwrap();
        let mut rng = SmallRng::seed_from_u64(5);
        let o = run(&m, &g, &seeds(&g, &[0], &[]), &mut rng);
        assert_eq!(o.trace.len(), 13);
        assert_eq!(o.final_states.len(), 5);
        for (i, r) in o.trace.iter().enumerate() {
            assert_eq!(r.step as usize, i);
        }
    }

    #[test]
    fn run_into_matches_a_fresh_workspace_across_reuses() {
        let mut r = SmallRng::seed_from_u64(11);
        let g = generators::gnm_directed(50, 300, &mut r).unwrap();
        let csr = CsrGraph::from(&g);
        let m = CompetitiveSisModel::new(0.3, 0.2, 0.1, 20).unwrap();
        let s = seeds(&g, &[0, 1], &[2]);
        let mut ws = SimWorkspace::new();
        for seed in 0..5u64 {
            let mut a = SmallRng::seed_from_u64(seed);
            let mut b = SmallRng::seed_from_u64(seed);
            let fast = m.run_into(&csr, &s, &mut ws, &mut a);
            let reference = m.run_into(&csr, &s, &mut SimWorkspace::new(), &mut b);
            assert_eq!(fast, reference, "seed {seed}");
        }
    }

    #[test]
    fn accessors() {
        let m = CompetitiveSisModel::new(0.2, 0.3, 0.1, 5).unwrap();
        assert_eq!(m.beta_rumor(), 0.2);
        assert_eq!(m.beta_protector(), 0.3);
        assert_eq!(m.recovery(), 0.1);
        assert_eq!(m.steps, 5);
    }
}
