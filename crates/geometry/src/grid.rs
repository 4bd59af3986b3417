//! A uniform spatial grid over point sites.
//!
//! The gathering dynamics are local: visibility between two robots can only
//! be affected by discs near their sight corridor, motion can only be
//! stopped by discs near the swept trajectory, and tangency is a
//! fixed-radius neighbourhood relation. [`UniformGrid`] hashes every site
//! into a square cell so all three queries reduce to *corridor → candidate
//! cells → candidate sites* instead of an all-pairs scan.
//!
//! The cell cover used by the capsule queries is **conservative**: the walk
//! visits, for every cell column the capsule's x-extent touches, the
//! column's y-band swept by the (radius-padded) segment — a superset of the
//! cells that actually intersect the capsule. Queries therefore return a
//! superset of the sites within `radius` of the segment — callers that need
//! the exact set re-filter, and callers that only need soundness (cache
//! invalidation, obstacle pre-filters) use the superset as-is.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::point::Point;
use crate::predicates::approx_eq_tol;

/// Integer cell coordinates (floor of the position divided by the cell
/// edge).
pub type CellCoord = (i64, i64);

/// A minimal multiply-xor hasher for integer cell coordinates. Cell lookups
/// sit on the simulator's hottest path (every cache invalidation and every
/// corridor query hashes a handful of coordinates), where the default
/// SipHash's keyed security is pure overhead.
#[derive(Debug, Default, Clone)]
pub struct CellHasher(u64);

impl Hasher for CellHasher {
    fn finish(&self) -> u64 {
        // Final avalanche (splitmix-style) so sequential coordinates spread
        // over the whole table.
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^ (h >> 33)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn write_i64(&mut self, i: i64) {
        self.0 = (self.0.rotate_left(32) ^ i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// `BuildHasher` for [`CellHasher`].
pub type CellHashBuilder = BuildHasherDefault<CellHasher>;

/// A hash map keyed by grid cells, using the fast cell hasher.
pub type CellMap<V> = HashMap<CellCoord, V, CellHashBuilder>;

/// A uniform grid of square cells indexing a set of point sites by
/// position.
///
/// Sites are identified by their index in the original slice. The grid
/// keeps no positions of its own: the caller owns them and passes a site's
/// old position when it moves the site ([`UniformGrid::move_point`]).
#[derive(Debug, Clone)]
pub struct UniformGrid {
    cell: f64,
    cells: CellMap<Vec<usize>>,
    /// Site lists of emptied cells, cleared with their storage kept: a
    /// cell that gains its first site takes one, so a site re-entering a
    /// cell allocates nothing once as many lists exist as cells were ever
    /// occupied at once.
    spare: Vec<Vec<usize>>,
}

impl UniformGrid {
    /// Builds a grid with the given cell edge length over the sites.
    ///
    /// # Panics
    /// Panics if `cell` is not strictly positive and finite.
    pub fn new(cell: f64, points: &[Point]) -> Self {
        assert!(
            cell.is_finite() && cell > 0.0,
            "grid cell edge must be positive and finite (got {cell})"
        );
        let mut grid = UniformGrid {
            cell,
            cells: CellMap::default(),
            spare: Vec::new(),
        };
        for (i, &p) in points.iter().enumerate() {
            let cell = grid.cell_of(p);
            grid.cells.entry(cell).or_default().push(i);
        }
        grid
    }

    /// The cell containing `p`.
    pub fn cell_of(&self, p: Point) -> CellCoord {
        (
            (p.x / self.cell).floor() as i64,
            (p.y / self.cell).floor() as i64,
        )
    }

    /// Moves site `i` from `old`, the position it is hashed at, to `new`,
    /// rehashing it into its new cell. A cell it empties is dropped and its
    /// list kept for the next cell that gains a site, so the steady state
    /// allocates nothing.
    pub fn move_point(&mut self, i: usize, old: Point, new: Point) {
        let from = self.cell_of(old);
        let to = self.cell_of(new);
        if from != to {
            if let Entry::Occupied(mut slot) = self.cells.entry(from) {
                let bucket = slot.get_mut();
                if let Some(pos) = bucket.iter().position(|&k| k == i) {
                    bucket.swap_remove(pos);
                }
                if bucket.is_empty() {
                    self.spare.push(slot.remove());
                }
            }
            let spare = &mut self.spare;
            self.cells
                .entry(to)
                .or_insert_with(|| spare.pop().unwrap_or_default())
                .push(i);
        }
    }

    /// Visits every cell of the conservative cover of the capsule of the
    /// given `radius` around segment `ab`, in deterministic row-major
    /// order. The closure returns `false` to stop early.
    ///
    /// Every cell that intersects the capsule is visited (possibly along
    /// with a few neighbours that do not), so a site within `radius` of the
    /// segment always lies in a visited cell.
    pub fn for_each_cell_near_segment(
        &self,
        a: Point,
        b: Point,
        radius: f64,
        visit: impl FnMut(CellCoord) -> bool,
    ) {
        walk_cells_near_segment(self.cell, a, b, radius, visit);
    }

    /// Appends (to `out`) the indices of every site in the conservative
    /// cell cover of the capsule of `radius` around segment `ab`, sorted
    /// ascending.
    ///
    /// The result is a **superset** of the sites within `radius` of the
    /// segment; callers needing the exact set must re-filter by distance.
    pub fn candidates_near_segment(&self, a: Point, b: Point, radius: f64, out: &mut Vec<usize>) {
        out.clear();
        self.for_each_cell_near_segment(a, b, radius, |cell| {
            if let Some(bucket) = self.cells.get(&cell) {
                out.extend_from_slice(bucket);
            }
            true
        });
        // Each site lives in exactly one cell, so sorting suffices (no
        // duplicates to strip). Ascending order keeps downstream scans
        // deterministic and identical to an index-order sweep.
        out.sort_unstable();
    }

    /// Appends the indices of every site in the conservative cell cover of
    /// the disc of `radius` around `p`, sorted ascending. Superset
    /// semantics as for [`UniformGrid::candidates_near_segment`].
    pub fn candidates_near_point(&self, p: Point, radius: f64, out: &mut Vec<usize>) {
        self.candidates_near_segment(p, p, radius, out);
    }

    /// The sites currently hashed into `cell` (unordered within the cell;
    /// insertion order, which is deterministic for a deterministic caller).
    /// `None` when the cell is empty.
    pub fn sites_in(&self, cell: CellCoord) -> Option<&[usize]> {
        self.cells.get(&cell).map(Vec::as_slice)
    }
}

/// Column-band walk over a square grid of edge `cell`: for each cell column
/// intersecting the capsule's x-extent, visit the cells of that column's
/// y-band. The band is the y-range the segment sweeps over the
/// (radius-widened) column, padded by the radius — a superset of the
/// capsule's cells in that column, without scanning the full bounding box
/// of a diagonal segment. Row-major, early-exit on `false`.
fn walk_cells_near_segment(
    cell: f64,
    a: Point,
    b: Point,
    radius: f64,
    mut visit: impl FnMut(CellCoord) -> bool,
) {
    let (min_x, max_x) = (a.x.min(b.x) - radius, a.x.max(b.x) + radius);
    let cx0 = (min_x / cell).floor() as i64;
    let cx1 = (max_x / cell).floor() as i64;
    let dx = b.x - a.x;
    let dy = b.y - a.y;
    for cx in cx0..=cx1 {
        let x0 = cx as f64 * cell;
        let x1 = x0 + cell;
        // Parameter range of the segment whose x lies within `radius`
        // of this column (the whole segment when it is near-vertical).
        let (t0, t1) = if approx_eq_tol(dx, 0.0, f64::EPSILON) {
            (0.0, 1.0)
        } else {
            let ta = ((x0 - radius - a.x) / dx).clamp(0.0, 1.0);
            let tb = ((x1 + radius - a.x) / dx).clamp(0.0, 1.0);
            (ta.min(tb), ta.max(tb))
        };
        let ya = a.y + t0 * dy;
        let yb = a.y + t1 * dy;
        let cy0 = ((ya.min(yb) - radius) / cell).floor() as i64;
        let cy1 = ((ya.max(yb) + radius) / cell).floor() as i64;
        for cy in cy0..=cy1 {
            if !visit((cx, cy)) {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::Segment;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn brute_near_segment(points: &[Point], a: Point, b: Point, radius: f64) -> Vec<usize> {
        let seg = Segment::new(a, b);
        (0..points.len())
            .filter(|&i| seg.distance_to(points[i]) <= radius)
            .collect()
    }

    #[test]
    fn candidates_are_a_sorted_superset_of_the_capsule() {
        let pts: Vec<Point> = (0..40)
            .map(|i| p((i % 8) as f64 * 3.0, (i / 8) as f64 * 3.0))
            .collect();
        let grid = UniformGrid::new(4.0, &pts);
        let (a, b) = (p(1.0, 1.0), p(19.0, 9.0));
        let mut got = Vec::new();
        grid.candidates_near_segment(a, b, 3.0, &mut got);
        assert!(got.windows(2).all(|w| w[0] < w[1]), "sorted, no duplicates");
        for i in brute_near_segment(&pts, a, b, 3.0) {
            assert!(got.contains(&i), "site {i} within the capsule was missed");
        }
    }

    #[test]
    fn point_query_is_a_superset_of_the_disc() {
        let pts = vec![p(0.0, 0.0), p(2.5, 0.0), p(10.0, 10.0), p(-3.0, 1.0)];
        let grid = UniformGrid::new(4.0, &pts);
        let mut got = Vec::new();
        grid.candidates_near_point(p(0.0, 0.0), 3.5, &mut got);
        assert!(got.contains(&0));
        assert!(got.contains(&1));
        assert!(got.contains(&3));
    }

    #[test]
    fn move_point_rehashes_the_site() {
        let pts = vec![p(0.0, 0.0), p(20.0, 20.0)];
        let mut grid = UniformGrid::new(4.0, &pts);
        grid.move_point(1, p(20.0, 20.0), p(1.0, 1.0));
        let mut near_origin = Vec::new();
        grid.candidates_near_point(p(0.0, 0.0), 2.0, &mut near_origin);
        assert_eq!(near_origin, vec![0, 1]);
        let mut near_old = Vec::new();
        grid.candidates_near_point(p(20.0, 20.0), 2.0, &mut near_old);
        assert!(near_old.is_empty());
    }

    #[test]
    fn moves_that_stay_in_one_cell_keep_queries_correct() {
        let pts = vec![p(0.5, 0.5)];
        let mut grid = UniformGrid::new(4.0, &pts);
        grid.move_point(0, p(0.5, 0.5), p(1.5, 0.5));
        let mut got = Vec::new();
        grid.candidates_near_point(p(1.5, 0.5), 1.0, &mut got);
        assert_eq!(got, vec![0]);
    }

    #[test]
    fn negative_coordinates_hash_consistently() {
        let pts = vec![p(-0.1, -0.1), p(-7.9, -7.9)];
        let grid = UniformGrid::new(4.0, &pts);
        assert_eq!(grid.cell_of(p(-0.1, -0.1)), (-1, -1));
        let mut got = Vec::new();
        grid.candidates_near_point(p(-0.1, -0.1), 0.5, &mut got);
        assert_eq!(got, vec![0]);
    }

    #[test]
    fn cell_walk_early_exit_stops() {
        let pts = vec![p(0.0, 0.0)];
        let grid = UniformGrid::new(1.0, &pts);
        let mut visited = 0;
        grid.for_each_cell_near_segment(p(0.0, 0.0), p(10.0, 0.0), 1.0, |_| {
            visited += 1;
            visited < 3
        });
        assert_eq!(visited, 3, "the walk must stop when the closure says so");
    }

    #[test]
    #[should_panic]
    fn zero_cell_edge_is_rejected() {
        let _ = UniformGrid::new(0.0, &[]);
    }

    #[test]
    fn cover_contains_every_point_near_the_segment() {
        let (a, b, radius) = (p(3.0, -2.0), p(77.0, 31.0), 6.0);
        for edge in [4.0, 32.0, 256.0] {
            let grid = UniformGrid::new(edge, &[]);
            let mut cover = Vec::new();
            grid.for_each_cell_near_segment(a, b, radius, |cell| {
                cover.push(cell);
                true
            });
            let seg = Segment::new(a, b);
            for step in 0..200 {
                let t = step as f64 / 199.0;
                let on = seg.point_at(t);
                for (ox, oy) in [(radius, 0.0), (-radius, 0.0), (0.0, radius), (0.0, -radius)] {
                    let q = p(on.x + ox, on.y + oy);
                    assert!(
                        cover.contains(&grid.cell_of(q)),
                        "the cover of edge-{edge} cells misses {q:?}"
                    );
                }
            }
        }
    }
}
