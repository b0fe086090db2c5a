//! The model-identity digest repeats for one seed and moves with it.

use scu_algos::{plan_cells, ExperimentConfig, ALL_MODES};
use scu_perfbench_tracer::model::sim_digest;

fn digest_at(seed: u64) -> u64 {
    let mut cfg = ExperimentConfig::tiny();
    cfg.scale = 1.0 / 1024.0;
    cfg.seed = seed;
    let results: Vec<_> = plan_cells(&cfg, &ALL_MODES, Some("/cond/TX1/"))
        .iter()
        .filter(|c| c.algorithm.name() == "BFS" || c.algorithm.name() == "SSSP")
        .map(|c| c.run())
        .collect();
    assert_eq!(results.len(), 8, "BFS and SSSP on cond/TX1 in four modes");
    sim_digest(&results)
}

#[test]
fn digest_repeats_for_a_seed_and_changes_with_the_seed() {
    let first = digest_at(7);
    assert_eq!(first, digest_at(7));
    assert_ne!(first, digest_at(8));
}
