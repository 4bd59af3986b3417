//! E8 — micro-benchmarks of the geometric kernels a single Compute step is
//! built from: convex hull, Find-Points, hull components and the visibility
//! oracle, as a function of the view size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fatrobots_core::functions::{connected_components, find_points};
use fatrobots_geometry::hull::ConvexHull;
use fatrobots_geometry::visibility::visible_set;
use fatrobots_geometry::Point;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_centers(m: usize, seed: u64) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed);
    let side = (m as f64 * 16.0).sqrt().max(10.0) * 2.0;
    let mut out: Vec<Point> = Vec::with_capacity(m);
    while out.len() < m {
        let p = Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side));
        if out.iter().all(|q| q.distance(p) > 2.3) {
            out.push(p);
        }
    }
    out
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("geometry_kernels");
    group.sample_size(20);
    for &m in &[8usize, 16, 32, 64] {
        let centers = random_centers(m, 42);
        let hull = ConvexHull::from_points(&centers);
        let boundary = hull.boundary();
        group.bench_with_input(BenchmarkId::new("convex_hull", m), &centers, |b, pts| {
            b.iter(|| ConvexHull::from_points(pts))
        });
        group.bench_with_input(BenchmarkId::new("find_points", m), &boundary, |b, pts| {
            b.iter(|| find_points(pts, m))
        });
        group.bench_with_input(
            BenchmarkId::new("connected_components", m),
            &boundary,
            |b, pts| b.iter(|| connected_components(pts, 1.0 / (2.0 * m as f64))),
        );
        group.bench_with_input(BenchmarkId::new("visible_set", m), &centers, |b, pts| {
            b.iter(|| visible_set(0, pts))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
