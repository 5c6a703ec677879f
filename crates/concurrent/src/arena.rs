//! A cache-aware atomic counter arena shared by the CountMin variants.
//!
//! [`Pcm`](crate::Pcm), [`ShardedPcm`](crate::ShardedPcm) and
//! [`BufferedPcm`](crate::BufferedPcm) all keep a `depth × width`
//! matrix of `AtomicU64` cells. [`CellArena`] stores it row-major in
//! one plain zeroed `Vec<AtomicU64>`, rows padded up to whole 128-byte
//! lines of 16 cells, so every row starts on a line boundary and a
//! row's hot cells never straddle an extra line.
//!
//! The vector is over-allocated by `LINE_CELLS − 1` spare cells and
//! the matrix starts at the first 128-byte-aligned cell inside it —
//! an offset computed once from the buffer's address, which never
//! moves because the vector never grows. The allocation itself is an
//! ordinary 8-aligned `malloc`, not a 128-aligned `memalign`: a sketch
//! that is freed and re-made at the same size reuses its old block
//! exactly, where `memalign` asks for size + alignment and so never
//! fits the hole a same-size arena left (EXPERIMENTS E24).
//!
//! The arena deliberately exposes bare [`AtomicU64`] references and
//! takes no stance on memory orderings — each sketch picks its own
//! (see `crates/concurrent/ORDERINGS.md`), so the audit table keeps
//! its per-algorithm justifications.

use std::sync::atomic::AtomicU64;

/// Cells per 128-byte line: every row is padded to a whole number of
/// lines, so every row start is line-aligned.
const LINE_CELLS: usize = 16;

/// Bytes per line, the alignment of every row start.
const LINE_BYTES: usize = LINE_CELLS * std::mem::size_of::<AtomicU64>();

/// A `depth × width` matrix of `AtomicU64` counters in a single
/// allocation, row-major with rows padded to whole 128-byte lines. All
/// cells start at zero.
#[derive(Debug)]
pub struct CellArena {
    depth: usize,
    width: usize,
    /// Cells from one row start to the next (`width` rounded up to a
    /// whole line).
    stride: usize,
    /// Index in `cells` of cell (0, 0), the first line-aligned cell.
    base: usize,
    cells: Vec<AtomicU64>,
}

impl CellArena {
    /// Allocates a zeroed `depth × width` arena.
    ///
    /// # Panics
    ///
    /// Panics if `depth` or `width` is 0.
    pub fn new(depth: usize, width: usize) -> Self {
        assert!(depth > 0 && width > 0, "arena dimensions must be positive");
        let stride = width.next_multiple_of(LINE_CELLS);
        let cells: Vec<AtomicU64> = std::iter::repeat_with(|| AtomicU64::new(0))
            .take(depth * stride + LINE_CELLS - 1)
            .collect();
        // Cells to skip until the next line boundary; the buffer is
        // 8-aligned, so this is a whole number of cells below LINE_CELLS.
        let misaligned = cells.as_ptr() as usize % LINE_BYTES;
        let base = (LINE_BYTES - misaligned) % LINE_BYTES / std::mem::size_of::<AtomicU64>();
        CellArena {
            depth,
            width,
            stride,
            base,
            cells,
        }
    }

    /// Number of rows.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of counters per row (excluding alignment padding).
    pub fn width(&self) -> usize {
        self.width
    }

    /// The cell at (`row`, `col`) — the one place that maps matrix
    /// coordinates to the padded flat layout.
    #[inline]
    pub fn cell(&self, row: usize, col: usize) -> &AtomicU64 {
        self.row_cells(row).cell(col)
    }

    /// One row's `width` cells behind a single narrowed slice. The
    /// batch kernels hoist this outside their per-entry loops, so each
    /// cell access is one in-slice index instead of re-deriving the row
    /// base from the full arena.
    #[inline]
    pub fn row_cells(&self, row: usize) -> RowCells<'_> {
        debug_assert!(row < self.depth);
        let start = self.base + row * self.stride;
        RowCells {
            cells: &self.cells[start..start + self.width],
        }
    }

    /// The `width` cells of one row, in column order (padding cells
    /// excluded).
    pub fn row(&self, row: usize) -> impl Iterator<Item = &AtomicU64> {
        let RowCells { cells } = self.row_cells(row);
        cells.iter()
    }

    /// All cells in row-major order (padding cells excluded) — the
    /// sequential `CountMin`-shaped view used for snapshots.
    pub fn cells(&self) -> impl Iterator<Item = &AtomicU64> {
        (0..self.depth).flat_map(|r| self.row(r))
    }
}

/// A borrowed view of one arena row (see [`CellArena::row_cells`]).
#[derive(Debug, Clone, Copy)]
pub struct RowCells<'a> {
    cells: &'a [AtomicU64],
}

impl<'a> RowCells<'a> {
    /// The cell at `col` of this row.
    #[inline]
    pub fn cell(&self, col: usize) -> &'a AtomicU64 {
        &self.cells[col]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::Ordering;

    fn addr(cell: &AtomicU64) -> usize {
        cell as *const AtomicU64 as usize
    }

    /// Every row starts on a 128-byte line, `row()` and `cells()` yield
    /// exactly the matrix cells (no padding cell), and every (row, col)
    /// has its own address — across widths below, at and just past a
    /// line, and the production widths.
    #[test]
    fn rows_are_cache_line_aligned() {
        for width in [1, 15, 16, 17, 544, 27_183] {
            for depth in [1, 5] {
                let arena = CellArena::new(depth, width);
                let mut seen = HashSet::new();
                for row in 0..depth {
                    assert_eq!(
                        addr(arena.cell(row, 0)) % LINE_BYTES,
                        0,
                        "{depth}x{width}: row {row} start not line-aligned"
                    );
                    for col in 0..width {
                        assert!(seen.insert(addr(arena.cell(row, col))), "aliased cell");
                    }
                    let row_addrs: Vec<usize> = arena.row(row).map(addr).collect();
                    let want: Vec<usize> = (0..width).map(|c| addr(arena.cell(row, c))).collect();
                    assert_eq!(row_addrs, want, "{depth}x{width}: row {row}");
                }
                let flat: Vec<usize> = arena.cells().map(addr).collect();
                let want: Vec<usize> = (0..depth)
                    .flat_map(|r| (0..width).map(move |c| (r, c)))
                    .map(|(r, c)| addr(arena.cell(r, c)))
                    .collect();
                assert_eq!(flat, want, "{depth}x{width}: cells() walks a padding cell");
            }
        }
    }

    #[test]
    fn cell_indexing_is_row_major_and_distinct() {
        let arena = CellArena::new(4, 37);
        for row in 0..4 {
            for col in 0..37 {
                arena
                    .cell(row, col)
                    .store((row * 37 + col) as u64 + 1, Ordering::Relaxed);
            }
        }
        let flat: Vec<u64> = arena.cells().map(|c| c.load(Ordering::Relaxed)).collect();
        let want: Vec<u64> = (1..=4 * 37).collect();
        assert_eq!(flat, want);
    }

    #[test]
    fn row_iterates_exactly_width_cells() {
        let arena = CellArena::new(2, 17);
        arena.cell(0, 16).store(7, Ordering::Relaxed);
        arena.cell(1, 0).store(9, Ordering::Relaxed);
        let row0: Vec<u64> = arena.row(0).map(|c| c.load(Ordering::Relaxed)).collect();
        assert_eq!(row0.len(), 17);
        assert_eq!(row0[16], 7);
        // Row 1's first cell is its own, not row 0 padding.
        assert_eq!(arena.row(1).next().unwrap().load(Ordering::Relaxed), 9);
    }
}
