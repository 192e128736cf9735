//! Spatial indexing of the radio medium.
//!
//! The engine's hot path asks two geometric questions per transmission end:
//! *which nodes might hear this frame* and *which other transmissions might
//! interfere at a given receiver*. Answered naively both cost a scan over all
//! nodes or all in-flight transmissions; this module answers them with
//! uniform grids over the field, SWANS-style, so each query touches only the
//! cells a disk of the audible radius can overlap.
//!
//! Both indexes are **conservative**: a query returns a superset of the
//! entities inside the query disk (everything in the overlapping cells), and
//! the caller re-applies the exact geometric predicate. Because the engine
//! filters candidates with [`crate::radio::RadioModel::audible`] and
//! [`NodeGrid::candidates_within`] returns ids in ascending order, a run
//! visits exactly the receivers, in exactly the order, of a brute-force
//! `0..n` scan. The property tests below check both facts against such a
//! brute-force reference.

use crate::geometry::{Field, Position};
use crate::time::SimTime;

/// Shared cell geometry: a `cols × rows` uniform grid over the field.
///
/// Positions outside the field (legal for explicitly placed nodes) are
/// clamped onto the boundary cells. Clamping is monotone, so the
/// conservative-superset property survives: if an unclamped cell coordinate
/// falls inside an unclamped query range, the clamped coordinate falls inside
/// the clamped range.
#[derive(Clone, Debug)]
struct CellGeometry {
    cell: f64,
    cols: usize,
    rows: usize,
}

impl CellGeometry {
    fn new(field: &Field, cell: f64) -> Self {
        assert!(cell > 0.0 && cell.is_finite(), "cell size must be positive");
        CellGeometry {
            cell,
            cols: (field.width / cell).ceil().max(1.0) as usize,
            rows: (field.height / cell).ceil().max(1.0) as usize,
        }
    }

    fn clamp_col(&self, c: f64) -> usize {
        (c.max(0.0) as usize).min(self.cols - 1)
    }

    fn clamp_row(&self, r: f64) -> usize {
        (r.max(0.0) as usize).min(self.rows - 1)
    }

    fn cell_index(&self, p: &Position) -> usize {
        let col = self.clamp_col((p.x / self.cell).floor());
        let row = self.clamp_row((p.y / self.cell).floor());
        row * self.cols + col
    }

    /// The inclusive cell-index rectangle overlapped by a disk of `radius`
    /// around `center`.
    fn block(&self, center: &Position, radius: f64) -> (usize, usize, usize, usize) {
        let lo_col = self.clamp_col(((center.x - radius) / self.cell).floor());
        let hi_col = self.clamp_col(((center.x + radius) / self.cell).floor());
        let lo_row = self.clamp_row(((center.y - radius) / self.cell).floor());
        let hi_row = self.clamp_row(((center.y + radius) / self.cell).floor());
        (lo_col, hi_col, lo_row, hi_row)
    }
}

/// A uniform grid over node positions, maintained incrementally as nodes
/// move on mobility ticks.
#[derive(Clone, Debug)]
pub struct NodeGrid {
    geometry: CellGeometry,
    /// Node ids per cell. Each list is kept sorted ascending.
    cells: Vec<Vec<u32>>,
    /// Current cell of each node, indexed by node id.
    cell_of: Vec<usize>,
    /// Scratch bitmap over node ids, one bit per node. Queries mark
    /// candidate bits and then walk the words in order, which yields
    /// ascending ids without sorting the concatenated cell lists.
    mask: Vec<u64>,
}

impl NodeGrid {
    /// Builds a grid with the given cell size over `positions`.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is non-positive or non-finite.
    pub fn new(field: &Field, cell: f64, positions: &[Position]) -> Self {
        let geometry = CellGeometry::new(field, cell);
        let mut cells = vec![Vec::new(); geometry.cols * geometry.rows];
        let mut cell_of = Vec::with_capacity(positions.len());
        for (i, p) in positions.iter().enumerate() {
            let c = geometry.cell_index(p);
            cells[c].push(i as u32); // ascending: i is monotone
            cell_of.push(c);
        }
        NodeGrid {
            geometry,
            cells,
            mask: vec![0u64; positions.len().div_ceil(64)],
            cell_of,
        }
    }

    /// Re-buckets every node whose position changed. Called once per
    /// mobility tick; O(n) with cheap per-node work.
    pub fn refresh(&mut self, positions: &[Position]) {
        debug_assert_eq!(positions.len(), self.cell_of.len());
        for (i, p) in positions.iter().enumerate() {
            let new_cell = self.geometry.cell_index(p);
            let old_cell = self.cell_of[i];
            if new_cell == old_cell {
                continue;
            }
            let id = i as u32;
            let old = &mut self.cells[old_cell];
            let at = old.binary_search(&id).expect("node missing from its cell");
            old.remove(at);
            let new = &mut self.cells[new_cell];
            let at = new.binary_search(&id).unwrap_err();
            new.insert(at, id);
            self.cell_of[i] = new_cell;
        }
    }

    /// Appends to `out` every node id whose cell overlaps the disk of
    /// `radius` around `center` — a superset of the nodes inside the disk —
    /// in **ascending id order** (the order the naive `0..n` scan visits
    /// them).
    pub fn candidates_within(&mut self, center: &Position, radius: f64, out: &mut Vec<u32>) {
        out.clear();
        self.mask.fill(0);
        let (lo_col, hi_col, lo_row, hi_row) = self.geometry.block(center, radius);
        for row in lo_row..=hi_row {
            for col in lo_col..=hi_col {
                for &id in &self.cells[row * self.geometry.cols + col] {
                    self.mask[id as usize / 64] |= 1u64 << (id % 64);
                }
            }
        }
        for (w, &word) in self.mask.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                out.push(w as u32 * 64 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
    }

    /// The cell index a position maps to (test hook).
    pub fn cell_index(&self, p: &Position) -> usize {
        self.geometry.cell_index(p)
    }

    /// The ids currently bucketed in the cell of `p` (test hook).
    pub fn cell_members(&self, p: &Position) -> &[u32] {
        &self.cells[self.geometry.cell_index(p)]
    }
}

/// One in-flight transmission as the spatial index sees it: everything the
/// engine's half-duplex and collision probes need, so a grid query answers
/// them without chasing the transmission id back through another table.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TxEntry {
    /// The engine's monotone transmission id.
    pub id: u64,
    /// Airtime start.
    pub start: SimTime,
    /// Airtime end.
    pub end: SimTime,
    /// Transmitting node id.
    pub src: u32,
    /// The transmitter's position at transmission start (the position
    /// collision and carrier-sense checks use).
    pub src_pos: Position,
}

/// A uniform grid over in-flight transmissions, keyed by `src_pos`.
///
/// Per-cell lists stay sorted by id because ids are assigned monotonically
/// and removal preserves order.
#[derive(Clone, Debug)]
pub struct TxGrid {
    geometry: CellGeometry,
    cells: Vec<Vec<TxEntry>>,
}

impl TxGrid {
    /// Builds an empty transmission index with the given cell size.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is non-positive or non-finite.
    pub fn new(field: &Field, cell: f64) -> Self {
        let geometry = CellGeometry::new(field, cell);
        TxGrid {
            cells: vec![Vec::new(); geometry.cols * geometry.rows],
            geometry,
        }
    }

    /// Registers a transmission.
    pub fn insert(&mut self, entry: TxEntry) {
        self.cells[self.geometry.cell_index(&entry.src_pos)].push(entry);
    }

    /// Unregisters transmission `id` originating at `pos`.
    pub fn remove(&mut self, id: u64, pos: &Position) {
        let cell = &mut self.cells[self.geometry.cell_index(pos)];
        let at = cell
            .binary_search_by_key(&id, |e| e.id)
            .expect("tx missing from its cell");
        cell.remove(at);
    }

    /// Calls `f` with every registered transmission whose origin cell
    /// overlaps the disk of `radius` around `center` — a superset of the
    /// transmissions audible there.
    pub fn for_each_within(&self, center: &Position, radius: f64, mut f: impl FnMut(&TxEntry)) {
        let (lo_col, hi_col, lo_row, hi_row) = self.geometry.block(center, radius);
        for row in lo_row..=hi_row {
            for col in lo_col..=hi_col {
                for entry in &self.cells[row * self.geometry.cols + col] {
                    f(entry);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use std::collections::BTreeSet;

    fn naive_within(positions: &[Position], center: &Position, radius: f64) -> BTreeSet<u32> {
        positions
            .iter()
            .enumerate()
            .filter(|(_, p)| p.distance_squared(center) <= radius * radius)
            .map(|(i, _)| i as u32)
            .collect()
    }

    #[test]
    fn candidates_are_a_sorted_superset_of_the_disk() {
        let field = Field::new(1000.0, 800.0);
        let mut rng = SimRng::new(42);
        let positions: Vec<Position> = (0..300).map(|_| field.random_position(&mut rng)).collect();
        let mut grid = NodeGrid::new(&field, 120.0, &positions);
        let mut out = Vec::new();
        for center in &positions {
            for radius in [50.0, 120.0, 333.0] {
                grid.candidates_within(center, radius, &mut out);
                assert!(out.windows(2).all(|w| w[0] < w[1]), "not sorted ascending");
                let candidates: BTreeSet<u32> = out.iter().copied().collect();
                for inside in naive_within(&positions, center, radius) {
                    assert!(candidates.contains(&inside), "grid missed node {inside}");
                }
            }
        }
    }

    #[test]
    fn refresh_moves_nodes_between_cells() {
        let field = Field::new(400.0, 400.0);
        let mut positions = vec![
            Position::new(10.0, 10.0),
            Position::new(390.0, 390.0),
            Position::new(200.0, 200.0),
        ];
        let mut grid = NodeGrid::new(&field, 100.0, &positions);
        assert_eq!(grid.cell_members(&positions[0]), &[0]);

        // Walk node 0 across the whole field in mobility-tick-sized steps.
        for step in 0..40 {
            positions[0] = Position::new(10.0 + step as f64 * 9.7, 10.0 + step as f64 * 9.7);
            grid.refresh(&positions);
        }
        assert_eq!(grid.cell_index(&positions[0]), grid.cell_of[0]);
        assert!(grid.cell_members(&positions[0]).contains(&0));
        // The starting cell no longer lists it.
        assert!(!grid.cell_members(&Position::new(10.0, 10.0)).contains(&0));
        // Total membership is conserved.
        let total: usize = grid.cells.iter().map(Vec::len).sum();
        assert_eq!(total, positions.len());
    }

    #[test]
    fn out_of_field_positions_clamp_onto_boundary_cells() {
        let field = Field::new(300.0, 300.0);
        let positions = vec![Position::new(-50.0, 150.0), Position::new(900.0, 900.0)];
        let mut grid = NodeGrid::new(&field, 100.0, &positions);
        let mut out = Vec::new();
        // A query whose disk covers the out-of-field node must still find it.
        grid.candidates_within(&Position::new(10.0, 150.0), 80.0, &mut out);
        assert!(out.contains(&0));
        grid.candidates_within(&Position::new(290.0, 290.0), 1000.0, &mut out);
        assert!(out.contains(&1));
    }

    #[test]
    fn tx_grid_insert_query_remove_round_trip() {
        let field = Field::new(500.0, 500.0);
        let mut grid = TxGrid::new(&field, 125.0);
        let a = Position::new(10.0, 10.0);
        let b = Position::new(480.0, 480.0);
        let entry = |id: u64, pos: &Position, src: u32| TxEntry {
            id,
            start: SimTime::ZERO,
            end: SimTime::ZERO,
            src,
            src_pos: *pos,
        };
        grid.insert(entry(3, &a, 1));
        grid.insert(entry(7, &b, 3));
        grid.insert(entry(9, &a, 4));

        let mut seen = Vec::new();
        grid.for_each_within(&Position::new(60.0, 60.0), 100.0, |e| seen.push(e.id));
        assert_eq!(seen, vec![3, 9]);

        seen.clear();
        grid.for_each_within(&Position::new(250.0, 250.0), 1000.0, |e| {
            seen.push(e.id);
            assert_eq!(e.src as u64 * 2 + 1, e.id); // fields travel with the entry
        });
        seen.sort_unstable();
        assert_eq!(seen, vec![3, 7, 9]);

        grid.remove(3, &a);
        seen.clear();
        grid.for_each_within(&Position::new(60.0, 60.0), 100.0, |e| seen.push(e.id));
        assert_eq!(seen, vec![9]);
    }

    #[test]
    #[should_panic(expected = "cell size must be positive")]
    fn zero_cell_size_panics() {
        let _ = NodeGrid::new(&Field::new(10.0, 10.0), 0.0, &[]);
    }
}

/// Brute-force references for the two facts the engine relies on: the grid
/// candidates, filtered by `audible`, are exactly an ascending `0..n`
/// audible scan; and the radius-2r transmission sweep around a source sees
/// every interferer audible at any of the source's receivers.
#[cfg(test)]
mod reference_properties {
    use super::*;
    use crate::radio::{RadioConfig, RadioModel};
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Coordinates reach 200 m beyond every edge of the 1000 m × 800 m
    /// field, so out-of-field (clamped) positions are exercised too.
    fn point() -> (std::ops::Range<f64>, std::ops::Range<f64>) {
        (-200.0..1200.0, -200.0..1000.0)
    }

    fn field() -> Field {
        Field::new(1000.0, 800.0)
    }

    fn radio(range_m: f64, carrier_sense_factor: f64, fading_fraction: f64) -> RadioModel {
        RadioModel::new(RadioConfig {
            range_m,
            carrier_sense_factor,
            fading_fraction,
            ..RadioConfig::default()
        })
    }

    fn to_positions(points: &[(f64, f64)]) -> Vec<Position> {
        points.iter().map(|&(x, y)| Position::new(x, y)).collect()
    }

    /// The grid query, filtered by `audible`, next to the ascending scan.
    fn grid_and_scan(
        grid: &mut NodeGrid,
        model: &RadioModel,
        positions: &[Position],
        src: &Position,
    ) -> (Vec<u32>, Vec<u32>) {
        let mut candidates = Vec::new();
        grid.candidates_within(src, model.audible_radius(), &mut candidates);
        candidates.retain(|&id| model.audible(src, &positions[id as usize]));
        let scan = (0..positions.len() as u32)
            .filter(|&id| model.audible(src, &positions[id as usize]))
            .collect();
        (candidates, scan)
    }

    proptest! {
        #[test]
        fn audible_grid_candidates_equal_an_ascending_scan(
            points in vec(point(), 1..150),
            moves in vec((0usize..150, point()), 0..60),
            sources in vec(point(), 1..8),
            range_m in 20.0..400.0,
            carrier_sense_factor in 1.0..2.5,
            fading_fraction in 0.0..0.5,
            cell_scale in 0.25..3.0,
        ) {
            let model = radio(range_m, carrier_sense_factor, fading_fraction);
            let mut positions = to_positions(&points);
            let mut grid = NodeGrid::new(&field(), model.audible_radius() * cell_scale, &positions);
            let mut centers = to_positions(&sources);
            centers.extend(positions.iter().copied());
            for src in &centers {
                let (grid_set, scan) = grid_and_scan(&mut grid, &model, &positions, src);
                prop_assert_eq!(grid_set, scan);
            }
            // Move some nodes (in and out of the field) and query again.
            for &(i, (x, y)) in &moves {
                let i = i % positions.len();
                positions[i] = Position::new(x, y);
            }
            grid.refresh(&positions);
            centers.truncate(sources.len());
            centers.extend(positions.iter().copied());
            for src in &centers {
                let (grid_set, scan) = grid_and_scan(&mut grid, &model, &positions, src);
                prop_assert_eq!(grid_set, scan);
            }
        }

        #[test]
        fn double_radius_sweep_holds_every_interferer_of_every_receiver(
            txs in vec((point(), 0u64..20_000, 1u64..5_000), 0..120),
            removed in vec(0usize..120, 0..30),
            source in (point(), 0u64..20_000, 1u64..5_000),
            receivers in vec((-1.0..1.0, -1.0..1.0), 1..40),
            range_m in 20.0..400.0,
            carrier_sense_factor in 1.0..2.5,
            fading_fraction in 0.0..0.5,
            cell_scale in 0.25..3.0,
        ) {
            let model = radio(range_m, carrier_sense_factor, fading_fraction);
            let r = model.audible_radius();
            let mut grid = TxGrid::new(&field(), r * cell_scale);
            let mut live: Vec<TxEntry> = txs
                .iter()
                .enumerate()
                .map(|(i, &((x, y), start, air))| TxEntry {
                    id: i as u64,
                    start: SimTime::from_micros(start),
                    end: SimTime::from_micros(start + air),
                    src: i as u32,
                    src_pos: Position::new(x, y),
                })
                .collect();
            for e in &live {
                grid.insert(*e);
            }
            for &k in &removed {
                if let Some(at) = live.iter().position(|e| e.id == k as u64) {
                    let e = live.remove(at);
                    grid.remove(e.id, &e.src_pos);
                }
            }
            let ((sx, sy), start, air) = source;
            let src_pos = Position::new(sx, sy);
            let (start, end) = (SimTime::from_micros(start), SimTime::from_micros(start + air));

            // The engine's sweep: time-overlapping entries within 2r.
            let mut swept = Vec::new();
            grid.for_each_within(&src_pos, 2.0 * r, |t| {
                if t.start < end && t.end > start {
                    swept.push(t.id);
                }
            });
            // Reference: every receiver that can hear the source, and every
            // live time-overlapping transmission audible there.
            for &(dx, dy) in &receivers {
                let q = Position::new(sx + dx * r, sy + dy * r);
                if !model.audible(&src_pos, &q) {
                    continue;
                }
                for t in &live {
                    if t.start < end && t.end > start && model.audible(&t.src_pos, &q) {
                        prop_assert!(
                            swept.contains(&t.id),
                            "interferer {} at {:?} audible at {:?} missed", t.id, t.src_pos, q
                        );
                    }
                }
            }
        }
    }
}
