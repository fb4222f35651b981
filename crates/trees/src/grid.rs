//! Grid graphs with rectangular obstacles — the concrete non-tree setting
//! of Proposition 9 (following Ortolf–Schindelhauer \[12\]).
//!
//! Cells are unit squares of a `width × height` grid; rectangular regions
//! can be carved out as obstacles. Robots start at the origin cell
//! `(0, 0)` and, per the paper's assumption, know their exact distance to
//! the origin at all times.

use crate::{Graph, GraphBuilder, NodeId};
use rand::Rng;

/// An axis-aligned rectangle of blocked cells, inclusive of `x0, y0`,
/// exclusive of `x1, y1`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rect {
    /// Left edge (inclusive).
    pub x0: usize,
    /// Bottom edge (inclusive).
    pub y0: usize,
    /// Right edge (exclusive).
    pub x1: usize,
    /// Top edge (exclusive).
    pub y1: usize,
}

impl Rect {
    /// Creates a rectangle; normalizes so `x0 <= x1`, `y0 <= y1`.
    pub fn new(x0: usize, y0: usize, x1: usize, y1: usize) -> Self {
        Rect {
            x0: x0.min(x1),
            y0: y0.min(y1),
            x1: x0.max(x1),
            y1: y0.max(y1),
        }
    }

    /// Returns `true` if the cell `(x, y)` lies inside this rectangle.
    #[inline]
    pub fn contains(&self, x: usize, y: usize) -> bool {
        x >= self.x0 && x < self.x1 && y >= self.y0 && y < self.y1
    }
}

/// A grid graph with rectangular obstacles.
///
/// # Example
///
/// ```
/// use bfdn_trees::grid::{GridGraph, Rect};
/// let grid = GridGraph::new(4, 3, &[Rect::new(1, 1, 2, 2)]);
/// let g = grid.graph();
/// assert_eq!(g.len(), 11); // 12 cells minus 1 obstacle
/// assert!(g.is_connected_from(grid.origin()));
/// ```
#[derive(Clone, Debug)]
pub struct GridGraph {
    width: usize,
    height: usize,
    /// `cell_to_node[y * width + x]`, `None` for obstacle cells.
    cell_to_node: Vec<Option<NodeId>>,
    node_to_cell: Vec<(usize, usize)>,
    graph: Graph,
}

impl GridGraph {
    /// Builds the grid graph of all non-obstacle cells of a
    /// `width × height` grid, with 4-adjacency.
    ///
    /// # Panics
    ///
    /// Panics if the origin cell `(0, 0)` is blocked or the grid is empty.
    pub fn new(width: usize, height: usize, obstacles: &[Rect]) -> Self {
        assert!(width > 0 && height > 0, "grid must be non-empty");
        let blocked = |x: usize, y: usize| obstacles.iter().any(|r| r.contains(x, y));
        assert!(!blocked(0, 0), "origin cell must be free");

        let mut cell_to_node = vec![None; width * height];
        let mut node_to_cell = Vec::new();
        let mut builder = GraphBuilder::new(0);
        for y in 0..height {
            for x in 0..width {
                if !blocked(x, y) {
                    let id = builder.add_node();
                    cell_to_node[y * width + x] = Some(id);
                    node_to_cell.push((x, y));
                }
            }
        }
        for y in 0..height {
            for x in 0..width {
                if let Some(v) = cell_to_node[y * width + x] {
                    if x + 1 < width {
                        if let Some(u) = cell_to_node[y * width + x + 1] {
                            builder.add_edge(v, u);
                        }
                    }
                    if y + 1 < height {
                        if let Some(u) = cell_to_node[(y + 1) * width + x] {
                            builder.add_edge(v, u);
                        }
                    }
                }
            }
        }
        GridGraph {
            width,
            height,
            cell_to_node,
            node_to_cell,
            graph: builder.build(),
        }
    }

    /// The underlying port-numbered graph.
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The node of the origin cell `(0, 0)` where robots start.
    #[inline]
    pub fn origin(&self) -> NodeId {
        self.cell_to_node[0].expect("origin checked free at construction")
    }

    /// Grid width in cells.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Grid height in cells.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// The node of cell `(x, y)`, or `None` if blocked / out of range.
    pub fn node_at(&self, x: usize, y: usize) -> Option<NodeId> {
        if x >= self.width || y >= self.height {
            return None;
        }
        self.cell_to_node[y * self.width + x]
    }

    /// The cell of node `v`.
    #[inline]
    pub fn cell_of(&self, v: NodeId) -> (usize, usize) {
        self.node_to_cell[v.index()]
    }

    /// Renders the grid: `D` marks the origin (dock), `.` free cells,
    /// `#` obstacles; row 0 is drawn at the bottom.
    pub fn to_ascii(&self) -> String {
        let mut out = String::with_capacity((self.width + 1) * self.height);
        for y in (0..self.height).rev() {
            for x in 0..self.width {
                out.push(match self.node_at(x, y) {
                    _ if (x, y) == (0, 0) => 'D',
                    Some(_) => '.',
                    None => '#',
                });
            }
            out.push('\n');
        }
        out
    }

    /// Returns `true` if every free cell's BFS distance from the origin
    /// equals its Manhattan distance `x + y` — the property \[12\] exploits
    /// for grids with "nice" rectangular obstacles.
    pub fn distances_are_manhattan(&self) -> bool {
        let dist = self.graph.bfs_distances(self.origin());
        self.graph.node_ids().all(|v| {
            let (x, y) = self.cell_of(v);
            dist[v.index()] == Some(x + y)
        })
    }
}

/// Samples `count` random rectangular obstacles inside a `width × height`
/// grid (each at most `max_side` on a side, never covering the origin).
/// Convenience for randomized Proposition 9 workloads; the resulting grid
/// may be disconnected — check
/// [`Graph::is_connected_from`](crate::Graph::is_connected_from).
pub fn random_obstacles(
    width: usize,
    height: usize,
    count: usize,
    max_side: usize,
    rng: &mut impl Rng,
) -> Vec<Rect> {
    let mut rects = Vec::with_capacity(count);
    let side = max_side.max(1);
    while rects.len() < count {
        let w = rng.random_range(1..=side);
        let h = rng.random_range(1..=side);
        let x0 = rng.random_range(0..width.max(1));
        let y0 = rng.random_range(0..height.max(1));
        let r = Rect::new(x0, y0, (x0 + w).min(width), (y0 + h).min(height));
        if !r.contains(0, 0) {
            rects.push(r);
        }
    }
    rects
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_grid_counts() {
        let g = GridGraph::new(3, 3, &[]);
        assert_eq!(g.graph().len(), 9);
        assert_eq!(g.graph().num_edges(), 12);
        assert!(g.graph().validate().is_ok());
        assert!(g.distances_are_manhattan());
    }

    #[test]
    fn obstacle_removes_cells_and_edges() {
        let g = GridGraph::new(3, 3, &[Rect::new(1, 1, 2, 2)]);
        assert_eq!(g.graph().len(), 8);
        assert_eq!(g.graph().num_edges(), 8);
        assert!(g.node_at(1, 1).is_none());
        assert!(g.graph().is_connected_from(g.origin()));
    }

    #[test]
    fn small_central_obstacle_keeps_manhattan() {
        // A single cell blocked away from the axes keeps monotone paths.
        let g = GridGraph::new(5, 5, &[Rect::new(2, 2, 3, 3)]);
        assert!(g.distances_are_manhattan());
    }

    #[test]
    fn wall_breaks_manhattan() {
        // A wall spanning the bottom rows forces a detour.
        let g = GridGraph::new(5, 5, &[Rect::new(2, 0, 3, 4)]);
        assert!(!g.distances_are_manhattan());
        assert!(g.graph().is_connected_from(g.origin()));
    }

    #[test]
    fn cell_node_roundtrip() {
        let g = GridGraph::new(4, 2, &[]);
        for y in 0..2 {
            for x in 0..4 {
                let v = g.node_at(x, y).unwrap();
                assert_eq!(g.cell_of(v), (x, y));
            }
        }
        assert_eq!(g.node_at(4, 0), None);
    }

    #[test]
    #[should_panic(expected = "origin cell must be free")]
    fn blocked_origin_panics() {
        GridGraph::new(2, 2, &[Rect::new(0, 0, 1, 1)]);
    }

    #[test]
    fn rect_normalization() {
        let r = Rect::new(3, 4, 1, 2);
        assert_eq!(r, Rect::new(1, 2, 3, 4));
        assert!(r.contains(1, 2));
        assert!(!r.contains(3, 4));
    }

    #[test]
    fn ascii_rendering_marks_cells() {
        let g = GridGraph::new(3, 2, &[Rect::new(1, 1, 2, 2)]);
        assert_eq!(g.to_ascii(), ".#.\nD..\n");
    }

    #[test]
    fn random_obstacles_avoid_origin() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let rects = random_obstacles(12, 9, 20, 4, &mut rng);
        assert_eq!(rects.len(), 20);
        for r in &rects {
            assert!(!r.contains(0, 0));
            assert!(r.x1 <= 12 && r.y1 <= 9);
        }
        // A grid built from them is constructible (may be disconnected).
        let g = GridGraph::new(12, 9, &rects);
        assert!(g.graph().validate().is_ok());
    }

    #[test]
    fn radius_matches_grid_dimensions() {
        let g = GridGraph::new(6, 4, &[]);
        assert_eq!(g.graph().radius_from(g.origin()), 5 + 3);
    }
}
