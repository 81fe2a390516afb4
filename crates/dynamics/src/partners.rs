//! Algorithm 2 viewed as a random network sequence.
//!
//! The paper closes Section 6 by remarking that the random-partner model
//! "can be regarded as neighbourhood load balancing where the network
//! topology is randomly chosen and changes from step to step". This module
//! makes that equivalence executable: [`RandomPartnerSequence`] emits, each
//! round, the graph whose edges are the sampled links — and then a round of
//! Algorithm 1 *on that graph* is exactly a round of Algorithm 2 with the
//! same sample, because `d(i)` (partner count) equals the node's degree in
//! the link graph. The test suite pins this equivalence down numerically.

use crate::sequence::GraphSequence;
use dlb_core::random_partner::{sample_partners, PartnerSample};
use dlb_graphs::Graph;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Emits one Algorithm-2 link graph per round.
#[derive(Debug)]
pub struct RandomPartnerSequence {
    n: usize,
    rng: StdRng,
    /// The most recent sample, for tests/diagnostics.
    pub last_sample: Option<PartnerSample>,
}

impl RandomPartnerSequence {
    /// Creates the sequence over `n ≥ 2` nodes.
    pub fn new(n: usize, seed: u64) -> Self {
        assert!(n >= 2, "Algorithm 2 needs n >= 2");
        RandomPartnerSequence {
            n,
            rng: StdRng::seed_from_u64(seed),
            last_sample: None,
        }
    }
}

/// Builds the link graph of a partner sample.
pub fn sample_to_graph(n: usize, sample: &PartnerSample) -> Graph {
    Graph::from_edges(n, sample.links.iter().copied()).expect("links are valid edges")
}

impl GraphSequence for RandomPartnerSequence {
    fn n(&self) -> usize {
        self.n
    }

    fn next_graph(&mut self) -> Graph {
        let sample = sample_partners(self.n, &mut self.rng);
        let g = sample_to_graph(self.n, &sample);
        self.last_sample = Some(sample);
        g
    }

    fn name(&self) -> &'static str {
        "random-partner"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_core::continuous::ContinuousDiffusion;
    use dlb_core::engine::IntoEngine;
    use dlb_core::random_partner::partner_round;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn graph_degrees_equal_partner_counts() {
        let mut rng = StdRng::seed_from_u64(4);
        let sample = sample_partners(40, &mut rng);
        let g = sample_to_graph(40, &sample);
        for v in 0..40u32 {
            assert_eq!(g.degree(v), sample.degrees[v as usize]);
        }
    }

    #[test]
    fn algorithm1_on_link_graph_equals_algorithm2_round() {
        // The Section-6 equivalence: a round of Algorithm 1 on the link
        // graph is a round of Algorithm 2 with the same sample.
        let n = 64;
        let mut rng = StdRng::seed_from_u64(123);
        let sample = sample_partners(n, &mut rng);
        let g = sample_to_graph(n, &sample);

        let init: Vec<f64> = (0..n).map(|i| ((i * 7 + 1) % 19) as f64).collect();

        let mut via_alg1 = init.clone();
        ContinuousDiffusion::new(&g).engine().round(&mut via_alg1);

        let mut via_alg2 = init;
        partner_round(&sample, &mut via_alg2);

        for (a, b) in via_alg1.iter().zip(&via_alg2) {
            assert!((a - b).abs() < 1e-9, "alg1-on-links {a} vs alg2 {b}");
        }
    }

    #[test]
    fn sequence_produces_fresh_graphs() {
        let mut seq = RandomPartnerSequence::new(32, 9);
        let g1 = seq.next_graph();
        let g2 = seq.next_graph();
        // Overwhelmingly likely to differ.
        assert_ne!(g1, g2);
        assert_eq!(seq.n(), 32);
    }

    #[test]
    fn dynamic_runner_over_partner_sequence_converges() {
        let n = 64;
        let mut seq = RandomPartnerSequence::new(n, 31);
        let mut loads = vec![0.0; n];
        loads[0] = n as f64 * 10.0;
        let target = 1e-6 * dlb_core::potential::phi(&loads);
        let out = crate::runner::run_dynamic_continuous(&mut seq, &mut loads, target, 5000, false);
        assert!(
            out.converged,
            "random-partner dynamic run failed to converge"
        );
    }
}
