//! End-to-end cell benchmark: the full `Cell::run` path — graph memo,
//! simulation, trace spine, report derivation and fingerprinting —
//! exactly as the sweep harness drives it. This is the number that
//! tracks `reproduce_all` wall-clock, so it sits in the regression
//! gate alongside the micro-benches (see `EXPERIMENTS.md`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use scu_algos::cell::Cell;
use scu_algos::runner::{Algorithm, Mode};
use scu_algos::SystemKind;
use scu_graph::Dataset;

/// CI-sized cell: big enough to exercise multi-iteration frontiers,
/// small enough for tens of samples.
fn cell(algorithm: Algorithm, system: SystemKind, mode: Mode) -> Cell {
    Cell {
        algorithm,
        dataset: Dataset::Kron,
        system,
        mode,
        pr_iters: 3,
        scale: 1.0 / 128.0,
        seed: 42,
        scu_config: None,
    }
}

fn bench_cells(c: &mut Criterion) {
    let mut g = c.benchmark_group("cell");
    g.sample_size(10);

    let mut cells = Vec::new();
    for algorithm in [Algorithm::Bfs, Algorithm::PageRank] {
        for mode in [Mode::GpuBaseline, Mode::ScuEnhanced] {
            let id = BenchmarkId::new(algorithm.name(), mode.name());
            cells.push((id, cell(algorithm, SystemKind::Tx1, mode)));
        }
    }
    // The 16-SM part: the widest warp-to-SM spread the engine models.
    cells.push((
        BenchmarkId::new("BFS-GTX980", "gpu"),
        cell(Algorithm::Bfs, SystemKind::Gtx980, Mode::GpuBaseline),
    ));
    for (id, cell) in cells {
        // Pre-build the shared graph so samples measure simulation,
        // not first-touch generation.
        black_box(scu_algos::shared_graph(cell.dataset, cell.scale, cell.seed));
        g.bench_function(id, move |b| {
            b.iter(|| black_box(cell.run()));
        });
    }

    g.finish();
}

criterion_group!(benches, bench_cells);
criterion_main!(benches);
