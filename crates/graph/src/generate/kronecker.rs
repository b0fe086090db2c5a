//! Kronecker / R-MAT generator (the `kron` / Graph500 class).
//!
//! Graph500's synthetic graphs are stochastic Kronecker graphs: each
//! edge picks its endpoints by descending a 2×2 probability matrix
//! `[[a, b], [c, d]]` for `scale` levels. The result is scale-free
//! with massive hubs and essentially no locality — the hardest case
//! for memory coalescing and the most duplicate-rich for filtering.
//!
//! ## Streaming construction
//!
//! The generator is two-pass over one seeded RNG stream. Pass 1 runs
//! the R-MAT recurrence over every edge and only counts out-degrees;
//! a prefix sum turns the counts into row offsets. Pass 2 re-seeds
//! the identical stream and scatters each destination/weight straight
//! into its final CSR slot, then sorts each row in place. Peak memory
//! is therefore the *output* (row offsets + edges + weights) plus one
//! cursor word per node — the 12-byte-per-edge intermediate triple
//! list the [`GraphBuilder`](crate::builder::GraphBuilder) path would
//! accumulate never exists. That is what makes scale ≥ 22 (millions
//! of nodes, tens of millions of edges — a graph that dwarfs any L2)
//! buildable: ~16 bytes per edge of peak RSS, total.
//!
//! **Branch-free descent.** Each level compares one uniform draw `r`
//! against the cumulative thresholds `A`, `A+B` and `A+B+C`. The
//! row bit is `r ≥ A+B` and the column bit is the parity of all
//! three comparisons, which reproduces the quadrant order top-left,
//! top-right, bottom-left, bottom-right exactly — same comparisons,
//! same constants — without the data-dependent branch a 3-way `if`
//! mispredicts on nearly every level.
//!
//! **Row-range pass 2.** The rows are split into `T` contiguous
//! ranges holding about equal edge counts (a binary search over the
//! row offsets). Each range owns disjoint slices of the edge, weight
//! and cursor arrays; its worker replays the whole stream — cheap
//! now that the descent is branch-free — scatters only the edges
//! whose source it owns, then sorts its own rows. The order in which
//! edges land inside a row is irrelevant: every row is sorted by
//! `(dst, weight)` afterwards, and a row's multiset of edges is the
//! same whichever worker fills it. Each worker must account for at
//! least 2^22 drawn edges (`MIN_EDGES_PER_THREAD`), so every
//! matrix-scale graph runs with `T = 1` on the calling thread; above
//! that `T` grows with the graph up to the host's available
//! parallelism. Either way the output is byte-identical to the builder
//! path (pinned by tests below, for several `T`, against a retained
//! branchy reference).

use std::num::NonZeroUsize;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use super::random_weight;
use crate::csr::Csr;

/// Graph500 reference R-MAT parameters.
pub const A: f64 = 0.57;
/// See [`A`].
pub const B: f64 = 0.19;
/// See [`A`].
pub const C: f64 = 0.19;

/// Smallest supported scale (2 nodes).
pub const MIN_SCALE: u32 = 1;
/// Largest supported scale: 2^26 nodes keeps every CSR index inside
/// `u32` at Graph500's edge factor 16 (~1.07 G edges < `u32::MAX`).
pub const MAX_SCALE: u32 = 26;

/// Drawn edges each pass-2 worker must own before it pays for its own
/// replay of the stream. 2^22 keeps every graph at or below the
/// default experiment scale (kron 2^14 × 80 ≈ 1.3 M edges) on one
/// thread; the full-size 2^18-node graph (21 M edges) splits across
/// up to five.
const MIN_EDGES_PER_THREAD: usize = 1 << 22;

/// The R-MAT quadrant a uniform draw `r` ∈ [0, 1) selects, as the
/// (row bit, column bit) pair appended to `(u, v)`:
/// `[0, A)` → (0, 0), `[A, A+B)` → (0, 1), `[A+B, A+B+C)` → (1, 0),
/// else (1, 1). Branch-free: the column bit is the parity of the
/// three threshold comparisons.
#[inline]
fn quadrant(r: f64) -> (usize, usize) {
    let ge_a = (r >= A) as usize;
    let ge_ab = (r >= A + B) as usize;
    let ge_abc = (r >= A + B + C) as usize;
    (ge_ab, ge_a ^ ge_ab ^ ge_abc)
}

/// One R-MAT endpoint pair, advancing `rng` by exactly `scale`
/// `f64` draws.
#[inline]
fn rmat_endpoints(rng: &mut StdRng, scale: u32) -> (usize, usize) {
    let (mut u, mut v) = (0usize, 0usize);
    for _ in 0..scale {
        let (du, dv) = quadrant(rng.random());
        u = u << 1 | du;
        v = v << 1 | dv;
    }
    (u, v)
}

/// Checks `(scale, edge_factor)` and returns the number of edges the
/// stream draws, `edge_factor * 2^scale`.
fn drawn_edges(scale: u32, edge_factor: usize) -> usize {
    assert!(
        (MIN_SCALE..=MAX_SCALE).contains(&scale),
        "scale {scale} out of supported range"
    );
    let n = 1usize << scale;
    // Row-offset prefix sums are u32, so the total edge count must
    // stay below u32::MAX — the same reasoning that caps MAX_SCALE at
    // Graph500's edge factor 16 applies to any caller-supplied factor.
    assert!(
        (edge_factor as u64)
            .checked_mul(n as u64)
            .is_some_and(|m| m < u32::MAX as u64),
        "edge_factor {edge_factor} at scale {scale} overflows u32 edge indices"
    );
    edge_factor * n
}

/// Generates a Kronecker graph with `2^scale` nodes and
/// `edge_factor * 2^scale` directed edges (multi-edges kept, as in
/// Graph500's edge lists; self-loops skipped).
pub fn generate(scale: u32, edge_factor: usize, seed: u64) -> Csr {
    let threads = match drawn_edges(scale, edge_factor) / MIN_EDGES_PER_THREAD {
        0 | 1 => 1,
        cap => std::thread::available_parallelism()
            .map_or(1, NonZeroUsize::get)
            .min(cap),
    };
    generate_with_threads(scale, edge_factor, seed, threads)
}

/// [`generate`] with pass 2 split over `threads` row ranges; the
/// output does not depend on `threads`.
fn generate_with_threads(scale: u32, edge_factor: usize, seed: u64, threads: usize) -> Csr {
    assert!(threads >= 1, "at least one pass-2 thread");
    let m = drawn_edges(scale, edge_factor);
    let n = 1usize << scale;

    // Pass 1: count out-degrees. The weight draw must happen exactly
    // when the builder path would draw it (only for non-loops) so the
    // two RNG streams stay aligned draw for draw.
    let mut rng = StdRng::seed_from_u64(seed);
    let mut row_offsets = vec![0u32; n + 1];
    for _ in 0..m {
        let (u, v) = rmat_endpoints(&mut rng, scale);
        if u != v {
            let _ = random_weight(&mut rng);
            row_offsets[u + 1] += 1;
        }
    }
    for i in 1..row_offsets.len() {
        row_offsets[i] += row_offsets[i - 1];
    }
    let kept = row_offsets[n] as u64;

    // Pass 2: cut the rows into `threads` ranges of about `kept /
    // threads` edges each and give every range its own disjoint
    // slices. The last range runs on this thread, so `threads == 1`
    // spawns nothing.
    let mut edges = vec![0u32; kept as usize];
    let mut weights = vec![0u32; kept as usize];
    let mut cursor = vec![0u32; n];
    std::thread::scope(|s| {
        let (mut edges, mut weights, mut cursor) =
            (&mut edges[..], &mut weights[..], &mut cursor[..]);
        let parts = threads as u64;
        let mut lo = 0;
        for t in 1..=parts {
            let hi = if t == parts {
                n
            } else {
                row_offsets[..n].partition_point(|&o| u64::from(o) * parts < t * kept)
            };
            let len = (row_offsets[hi] - row_offsets[lo]) as usize;
            let (e, rest) = std::mem::take(&mut edges).split_at_mut(len);
            edges = rest;
            let (w, rest) = std::mem::take(&mut weights).split_at_mut(len);
            weights = rest;
            let (c, rest) = std::mem::take(&mut cursor).split_at_mut(hi - lo);
            cursor = rest;
            let range = RowRange {
                first_row: lo,
                offsets: &row_offsets[lo..=hi],
                edges: e,
                weights: w,
                cursor: c,
            };
            lo = hi;
            if t == parts {
                range.fill(scale, m, seed);
            } else {
                s.spawn(move || range.fill(scale, m, seed));
            }
        }
    });

    Csr::new(row_offsets, edges, weights).expect("streamed CSR is valid by construction")
}

/// Rows `first_row..first_row + cursor.len()` and the slices of the
/// output they own.
struct RowRange<'a> {
    first_row: usize,
    /// The global row offsets of this range, one more than its rows.
    offsets: &'a [u32],
    edges: &'a mut [u32],
    weights: &'a mut [u32],
    /// Next free slot of each row, relative to this range's slices.
    cursor: &'a mut [u32],
}

impl RowRange<'_> {
    /// Replays the whole edge stream, scatters the edges whose source
    /// this range owns, then sorts each row by `(dst, weight)` — the
    /// order the builder path's global `(src, dst, weight)` sort gives
    /// within a row.
    fn fill(self, scale: u32, m: usize, seed: u64) {
        let base = self.offsets[0];
        for (c, &o) in self.cursor.iter_mut().zip(self.offsets) {
            *c = o - base;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..m {
            let (u, v) = rmat_endpoints(&mut rng, scale);
            if u != v {
                let w = random_weight(&mut rng);
                // Rows below `first_row` wrap to huge indices, so one
                // comparison tests both ends of the range.
                if let Some(c) = self.cursor.get_mut(u.wrapping_sub(self.first_row)) {
                    let slot = *c as usize;
                    *c += 1;
                    self.edges[slot] = v as u32;
                    self.weights[slot] = w;
                }
            }
        }

        let mut scratch: Vec<(u32, u32)> = Vec::new();
        for win in self.offsets.windows(2) {
            let (lo, hi) = ((win[0] - base) as usize, (win[1] - base) as usize);
            if hi - lo < 2 {
                continue;
            }
            scratch.clear();
            scratch.extend(
                self.edges[lo..hi]
                    .iter()
                    .copied()
                    .zip(self.weights[lo..hi].iter().copied()),
            );
            scratch.sort_unstable();
            for (i, &(d, w)) in scratch.iter().enumerate() {
                self.edges[lo + i] = d;
                self.weights[lo + i] = w;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    /// The original branchy quadrant selection, kept as the oracle for
    /// [`quadrant`]: a shared bug cannot hide in both.
    fn branchy_quadrant(r: f64) -> (usize, usize) {
        if r < A {
            (0, 0)
        } else if r < A + B {
            (0, 1)
        } else if r < A + B + C {
            (1, 0)
        } else {
            (1, 1)
        }
    }

    /// The pre-streaming implementation: branchy descent, accumulate
    /// triples, sort, build. Kept as the byte-identity oracle — result
    /// bytes across the whole repo depend on `generate` never drifting
    /// from this.
    fn reference(scale: u32, edge_factor: usize, seed: u64) -> Csr {
        let n = 1usize << scale;
        let m = edge_factor * n;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new(n);
        for _ in 0..m {
            let (mut u, mut v) = (0usize, 0usize);
            for _ in 0..scale {
                let (du, dv) = branchy_quadrant(rng.random());
                u = u << 1 | du;
                v = v << 1 | dv;
            }
            if u != v {
                b.add_edge(u as u32, v as u32, random_weight(&mut rng));
            }
        }
        b.build()
    }

    fn assert_same(fast: &Csr, slow: &Csr, what: &str) {
        assert_eq!(
            fast.row_offsets(),
            slow.row_offsets(),
            "offsets diverge: {what}"
        );
        assert_eq!(fast.edges(), slow.edges(), "edges diverge: {what}");
        assert_eq!(fast.weights(), slow.weights(), "weights diverge: {what}");
    }

    #[test]
    fn branchless_quadrant_matches_branchy_at_every_boundary() {
        let next = |x: f64| f64::from_bits(x.to_bits() + 1);
        let prev = |x: f64| f64::from_bits(x.to_bits() - 1);
        let largest_draw = ((1u64 << 53) - 1) as f64 / (1u64 << 53) as f64;
        let mut points = vec![0.0, next(0.0), largest_draw, prev(largest_draw)];
        for t in [A, A + B, A + B + C] {
            points.extend([prev(t), t, next(t)]);
        }
        for r in points {
            assert_eq!(
                quadrant(r),
                branchy_quadrant(r),
                "r = {r:e} ({:#x})",
                r.to_bits()
            );
        }
        // And across a dense sweep of the unit interval.
        for i in 0..=1_000_000u32 {
            let r = f64::from(i) / 1_000_001.0;
            assert_eq!(quadrant(r), branchy_quadrant(r), "r = {r:e}");
        }
    }

    #[test]
    fn streaming_matches_builder_reference_exactly() {
        for (scale, ef, seed) in [(6, 8, 1), (8, 16, 42), (10, 16, 3), (11, 4, 7)] {
            assert_same(
                &generate(scale, ef, seed),
                &reference(scale, ef, seed),
                &format!("scale {scale} seed {seed}"),
            );
        }
    }

    #[test]
    fn every_thread_count_matches_builder_reference() {
        // Scale 2 with 8 threads leaves most row ranges empty; scale 6
        // at edge factor 64 piles a large share of edges onto the hub
        // rows, so range boundaries land next to (not inside) them.
        for (scale, ef, seed) in [(2, 4, 1), (6, 64, 5), (9, 16, 42), (11, 8, 7)] {
            let slow = reference(scale, ef, seed);
            for threads in [1, 2, 3, 8] {
                assert_same(
                    &generate_with_threads(scale, ef, seed, threads),
                    &slow,
                    &format!("scale {scale} ef {ef} seed {seed} threads {threads}"),
                );
            }
        }
    }

    /// See [`golden_digest_pins_the_stream`].
    const GOLDEN: u64 = 0xe7ef3587c811cf0e;

    #[test]
    fn golden_digest_pins_the_stream() {
        // FNV-1a-64 of `row_offsets ‖ edges ‖ weights`, little-endian,
        // as generated before the branch-free descent and row-range
        // pass 2. Catches drift the oracle shares with production (a
        // changed RNG stream or weight draw moves both).
        let g = generate(14, 16, 1);
        let mut h: u64 = 0xcbf29ce484222325;
        for word in [g.row_offsets(), g.edges(), g.weights()]
            .into_iter()
            .flatten()
        {
            for b in word.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        }
        assert_eq!(h, GOLDEN, "generate(14, 16, 1) digest {h:#018x}");
    }

    #[test]
    #[ignore = "full-size graph: ~20 s and ~350 MB in release; run with --ignored"]
    fn full_size_kron_threaded_matches_single_thread() {
        // The big_cell graph: SCU_SCALE=1 kron, 2^18 nodes, 21 M edges.
        assert_same(
            &generate_with_threads(18, 80, 1, 2),
            &generate_with_threads(18, 80, 1, 1),
            "scale 18 ef 80 seed 1",
        );
    }

    #[test]
    fn deterministic_given_seed() {
        assert_eq!(generate(8, 8, 1), generate(8, 8, 1));
        assert_ne!(generate(8, 8, 1), generate(8, 8, 2));
    }

    #[test]
    fn node_and_edge_counts() {
        let g = generate(10, 16, 3);
        assert_eq!(g.num_nodes(), 1024);
        // Self-loops removed, so slightly under edge_factor * n.
        let m = g.num_edges();
        assert!(m > 15 * 1024 && m <= 16 * 1024, "edges {m}");
    }

    #[test]
    fn hubs_dominate() {
        let g = generate(12, 16, 5);
        assert!(
            g.max_degree() as f64 > 20.0 * g.avg_degree(),
            "max {} avg {}",
            g.max_degree(),
            g.avg_degree()
        );
    }

    #[test]
    fn low_ids_are_heavier() {
        // The R-MAT skew concentrates edges on low node IDs.
        let g = generate(10, 16, 7);
        let n = g.num_nodes() as u32;
        let low: u32 = (0..n / 4).map(|v| g.degree(v)).sum();
        let high: u32 = (3 * n / 4..n).map(|v| g.degree(v)).sum();
        assert!(low > 3 * high, "low quarter {low} vs high quarter {high}");
    }

    #[test]
    fn validates() {
        generate(9, 8, 11).validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "out of supported range")]
    fn huge_scale_panics() {
        generate(30, 8, 1);
    }

    #[test]
    #[should_panic(expected = "overflows u32 edge indices")]
    fn huge_edge_factor_panics() {
        // 64 * 2^26 = 2^32 edges would wrap the u32 prefix sums.
        generate(26, 64, 1);
    }
}
