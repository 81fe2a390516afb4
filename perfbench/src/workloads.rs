//! The benchmark's workloads: a scenario spec built from (name, seed).
//! The program only ever sees the spec; README.md says why each exists.

use dlb_core::engine::StatsMode;
use dlb_core::init;
use dlb_core::Transport;
use dlb_graphs::PartitionSpec;
use dlb_workloads::{
    DrainSpec, ExecSpec, PatternSpec, PlacementSpec, ProtocolSpec, Scenario, StopSpec,
    TopologySpec, WorkloadSpec,
};

/// Every workload name, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = [
    "torus-bursty-pool",
    "hypercube-converge-serial",
    "torus-drain-resident",
    "torus-sparse-process",
];

/// Worker threads or processes per workload: the benchmark machine has
/// two cores, and more workers than cores would time the scheduler.
const WORKERS: usize = 2;

const TORUS: TopologySpec = TopologySpec::Torus2d {
    rows: 1000,
    cols: 1000,
};

const AVG_LOAD: f64 = 100.0;

/// Bursty uniform arrivals (2·n per round, 10 rounds on, 10 off) plus a
/// proportional 0.02 drain: every node's load changes every round.
fn dense_stack(sc: Scenario) -> Scenario {
    let n = TORUS.n() as f64;
    sc.with_workload(WorkloadSpec::Arrivals {
        pattern: PatternSpec::Bursty {
            high: 2.0 * n,
            low: 0.0,
            on_rounds: 10,
            off_rounds: 10,
        },
        placement: PlacementSpec::Uniform,
    })
    .with_workload(WorkloadSpec::Drain {
        model: DrainSpec::Proportional { fraction: 0.02 },
    })
}

/// The scenario for workload `name` under `seed`, or `None` for an
/// unknown name. The seed drives every random input the spec has: the
/// initial loads where they are random, and the arrival placement where
/// it is random. The hypercube's spike start has no random input, so its
/// round count (the quantity it times) is the same for every seed.
pub fn scenario(name: &str, seed: u64) -> Option<Scenario> {
    let continuous = ProtocolSpec::Continuous;
    let sc = match name {
        "torus-bursty-pool" => dense_stack(Scenario::new(name, TORUS, continuous).with_init(
            init::Workload::UniformRandom,
            AVG_LOAD,
            seed,
        ))
        .with_stats(StatsMode::Full)
        .with_exec(ExecSpec::Pool { threads: WORKERS })
        .with_stop(StopSpec::Rounds { rounds: 60 }),
        "hypercube-converge-serial" => {
            Scenario::new(name, TopologySpec::Hypercube { dim: 18 }, continuous)
                .with_init(init::Workload::Spike, AVG_LOAD, seed)
                .with_stats(StatsMode::Off)
                .with_exec(ExecSpec::Serial)
                .with_stop(StopSpec::PhiBelow {
                    target: 1e4,
                    max_rounds: 2000,
                })
        }
        "torus-drain-resident" => dense_stack(Scenario::new(name, TORUS, continuous).with_init(
            init::Workload::UniformRandom,
            AVG_LOAD,
            seed,
        ))
        .with_stats(StatsMode::Off)
        .with_exec(ExecSpec::Message {
            partition: PartitionSpec::Bfs { shards: WORKERS },
            resident: true,
        })
        .with_stop(StopSpec::Rounds { rounds: 40 }),
        "torus-sparse-process" => Scenario::new(name, TORUS, continuous)
            .with_init(init::Workload::Spike, AVG_LOAD, seed)
            .with_workload(WorkloadSpec::Arrivals {
                pattern: PatternSpec::Constant {
                    per_round: AVG_LOAD,
                },
                placement: PlacementSpec::RandomNode { seed },
            })
            .with_stats(StatsMode::Off)
            .with_exec(ExecSpec::Process {
                partition: PartitionSpec::Bfs { shards: WORKERS },
                transport: Transport::Unix,
            })
            .with_stop(StopSpec::Rounds { rounds: 30 }),
        _ => return None,
    };
    Some(sc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_builds_a_valid_spec_with_at_most_two_workers() {
        for name in NAMES {
            let sc = scenario(name, 7).expect(name);
            sc.validate().expect(name);
            let workers = match sc.exec {
                ExecSpec::Serial => 1,
                ExecSpec::Pool { threads } => threads,
                ExecSpec::Message { partition, .. } | ExecSpec::Process { partition, .. } => {
                    partition.shards()
                }
                ExecSpec::Sharded { .. } => panic!("{name}: no workload runs the sharded backend"),
            };
            assert!((1..=2).contains(&workers), "{name}: {workers} workers");
        }
        assert!(scenario("nope", 1).is_none());
    }

    #[test]
    fn the_seed_reaches_every_random_input() {
        let a = scenario("torus-bursty-pool", 1).unwrap();
        let b = scenario("torus-bursty-pool", 2).unwrap();
        assert_ne!(a.init.seed, b.init.seed);
        let p = scenario("torus-sparse-process", 3).unwrap();
        assert_eq!(p.init.seed, 3);
        assert!(matches!(
            p.workloads[0],
            WorkloadSpec::Arrivals {
                placement: PlacementSpec::RandomNode { seed: 3 },
                ..
            }
        ));
    }
}
