//! The T1 walk as first written, element by element: the frozen
//! reference the word-parallel [`crate::tms::visit_t3_tasks`] and
//! [`crate::dpg::visit_t4_codes`] must match task for task, code for code
//! and event for event.

use simkit::Block16;

use crate::dpg::{FillOrder, T4Code};
use crate::tms::{T3Task, TaskOrdering};

/// Row `r` (0..4) of a 4x4 tile mask as a 4-bit nibble.
fn tile_row(mask: u16, r: usize) -> u16 {
    assert!(r < 4, "tile row out of bounds");
    (mask >> (r * 4)) & 0xF
}

/// Column `c` (0..4) of a 4x4 tile mask as a 4-bit nibble.
fn tile_col(mask: u16, c: usize) -> u16 {
    assert!(c < 4, "tile column out of bounds");
    let mut m = 0u16;
    for r in 0..4 {
        m |= ((mask >> (r * 4 + c)) & 1) << r;
    }
    m
}

/// Intermediate products of the 4x4x4 tile multiplication `a x b`.
pub(crate) fn tile_products(a: u16, b: u16) -> u32 {
    let mut p = 0u32;
    for k in 0..4 {
        p += tile_col(a, k).count_ones() * tile_row(b, k).count_ones();
    }
    p
}

/// The 4x4 tile mask of `block` at tile coordinates `(tr, tc)`.
fn tile(block: &Block16, tr: usize, tc: usize) -> u16 {
    assert!(tr < 4 && tc < 4, "tile index out of bounds");
    let mut m = 0u16;
    for er in 0..4 {
        let nibble = (block.row_mask(tr * 4 + er) >> (tc * 4)) & 0xF;
        m |= nibble << (er * 4);
    }
    m
}

#[allow(clippy::needless_range_loop)] // k/i/j index two parallel structures
pub(crate) fn visit_t3_tasks(
    a: &Block16,
    b: &Block16,
    ordering: TaskOrdering,
    sink: &mut dyn obs::TraceSink,
    mut f: impl FnMut(T3Task),
) {
    let mut grid = [[[None::<T3Task>; 4]; 4]; 4]; // [k][i][j]
    for k in 0..4usize {
        for i in 0..4usize {
            let a_tile = tile(a, i, k);
            if a_tile == 0 {
                continue;
            }
            for j in 0..4usize {
                let b_tile = tile(b, k, j);
                if b_tile == 0 {
                    continue;
                }
                let products = tile_products(a_tile, b_tile);
                if products == 0 {
                    continue;
                }
                grid[k][i][j] = Some(T3Task {
                    i: i as u8,
                    j: j as u8,
                    k: k as u8,
                    a_tile,
                    b_tile,
                    products,
                });
            }
        }
    }

    let mut count = 0u32;
    let mut emit = |t: T3Task| {
        count += 1;
        f(t);
    };
    match ordering {
        TaskOrdering::DotProduct => {
            for i in 0..4 {
                for j in 0..4 {
                    for layer in grid.iter() {
                        if let Some(t) = layer[i][j] {
                            emit(t);
                        }
                    }
                }
            }
        }
        TaskOrdering::OuterProduct => {
            for layer in grid.iter() {
                let nz_rows =
                    (0..4).filter(|&i| (0..4).any(|j| layer[i][j].is_some())).count();
                let nz_cols =
                    (0..4).filter(|&j| (0..4).any(|i| layer[i][j].is_some())).count();
                if nz_rows > nz_cols {
                    for j in 0..4 {
                        for row in layer.iter() {
                            if let Some(t) = row[j] {
                                emit(t);
                            }
                        }
                    }
                } else {
                    for row in layer.iter() {
                        for t in row.iter().flatten() {
                            emit(*t);
                        }
                    }
                }
            }
        }
        TaskOrdering::RowRow => {
            for i in 0..4 {
                for layer in grid.iter() {
                    for t in layer[i].iter().flatten() {
                        emit(*t);
                    }
                }
            }
        }
    }
    if sink.enabled() {
        sink.record(obs::TraceEvent::TmsGenerate { cycle: 0, t3_tasks: count });
    }
}

pub(crate) fn visit_order(fill: FillOrder) -> [(u8, u8); 16] {
    let mut order = [(0u8, 0u8); 16];
    let mut idx = 0;
    for bm in 0..2u8 {
        for bn in 0..2u8 {
            let (m0, n0) = (bm * 2, bn * 2);
            let inner: [(u8, u8); 4] = match fill {
                FillOrder::ZShape => [(0, 0), (0, 1), (1, 0), (1, 1)],
                FillOrder::NShape => [(0, 0), (1, 0), (0, 1), (1, 1)],
            };
            for (dm, dn) in inner {
                order[idx] = (m0 + dm, n0 + dn);
                idx += 1;
            }
        }
    }
    order
}

pub(crate) fn visit_t4_codes(
    a_tile: u16,
    b_tile: u16,
    fill: FillOrder,
    sink: &mut dyn obs::TraceSink,
    mut f: impl FnMut(T4Code),
) {
    let mut pattern = [[0u8; 4]; 4];
    let mut c_rank = [[0u8; 4]; 4];
    let mut rank = 0u8;
    for m in 0..4 {
        for n in 0..4 {
            let p = (tile_row(a_tile, m) & tile_col(b_tile, n)) as u8;
            pattern[m][n] = p;
            if p != 0 {
                c_rank[m][n] = rank;
                rank += 1;
            }
        }
    }
    let mut products = 0u32;
    for (m, n) in visit_order(fill) {
        let p = pattern[m as usize][n as usize];
        if p != 0 {
            products += p.count_ones();
            f(T4Code { m, n, c_index: c_rank[m as usize][n as usize], pattern: p });
        }
    }
    if sink.enabled() {
        sink.record(obs::TraceEvent::DpgExpand { cycle: 0, segments: u32::from(rank), products });
    }
}

/// The T3 tasks of `a x b` in `ordering`, collected.
pub(crate) fn generate_t3_tasks(a: &Block16, b: &Block16, ordering: TaskOrdering) -> Vec<T3Task> {
    let mut out = Vec::new();
    visit_t3_tasks(a, b, ordering, &mut obs::NoopSink, |t| out.push(t));
    out
}

/// The T4 codes of one T3 task in `fill` order, collected.
pub(crate) fn expand_t3(a_tile: u16, b_tile: u16, fill: FillOrder) -> Vec<T4Code> {
    let mut out = Vec::new();
    visit_t4_codes(a_tile, b_tile, fill, &mut obs::NoopSink, |c| out.push(c));
    out
}

#[cfg(test)]
mod tests {
    use simkit::T1Task;

    use super::*;
    use crate::pipeline::execute_t1;
    use crate::UniStcConfig;

    const ORDERINGS: [TaskOrdering; 3] =
        [TaskOrdering::DotProduct, TaskOrdering::OuterProduct, TaskOrdering::RowRow];
    const FILLS: [FillOrder; 2] = [FillOrder::ZShape, FillOrder::NShape];

    /// Seeded blocks across densities, plus the empty, diagonal and dense
    /// blocks, as MV tasks (full and random `x`), MM tasks, SpMM tails
    /// narrowed to every `keep_cols(1..=16)` width and `n_cols = 0`.
    fn sample_tasks(seed: u64) -> Vec<T1Task> {
        let mut rng = sparse::rng::Rng64::new(seed);
        let fixed = [Block16::empty(), Block16::from_fn(|r, c| r == c), Block16::dense()];
        let mut pairs = Vec::new();
        for a in fixed {
            for b in fixed {
                pairs.push((a, b));
            }
        }
        for &pa in &[0.02, 0.08, 0.25, 0.5, 0.9] {
            for &pb in &[0.02, 0.08, 0.25, 0.5, 0.9] {
                for _ in 0..3 {
                    let a = Block16::from_fn(|_, _| rng.next_bool(pa));
                    let b = Block16::from_fn(|_, _| rng.next_bool(pb));
                    pairs.push((a, b));
                }
            }
        }
        let mut tasks = Vec::new();
        for (a, b) in pairs {
            let x_mask = (0..16).fold(0u16, |m, k| m | u16::from(rng.next_bool(0.4)) << k);
            tasks.push(T1Task::mv(a, u16::MAX));
            tasks.push(T1Task::mv(a, x_mask));
            tasks.push(T1Task::mm(a, b));
            tasks.push(T1Task { a, b, n_cols: 0 });
            for width in 1..=16 {
                tasks.push(T1Task::mm(a, b.keep_cols(width)));
            }
        }
        tasks
    }

    /// The walk's T3 tasks, every T3 task's `(m, n, c_index, pattern)`
    /// codes, and the trace events of the whole walk, in order.
    type Walk = (Vec<T3Task>, Vec<Vec<T4Code>>, Vec<obs::TraceEvent>);

    fn walk_new(t: &T1Task, ordering: TaskOrdering, fill: FillOrder) -> Walk {
        let mut events: Vec<obs::TraceEvent> = Vec::new();
        let mut t3 = Vec::new();
        crate::tms::visit_t3_tasks(&t.a, &t.b, ordering, &mut events, |x| t3.push(x));
        let codes = t3
            .iter()
            .map(|x| {
                let mut codes = Vec::new();
                let push = |c| codes.push(c);
                crate::dpg::visit_t4_codes(x.a_tile, x.b_tile, fill, &mut events, push);
                codes
            })
            .collect();
        (t3, codes, events)
    }

    fn walk_reference(t: &T1Task, ordering: TaskOrdering, fill: FillOrder) -> Walk {
        let mut events: Vec<obs::TraceEvent> = Vec::new();
        let mut t3 = Vec::new();
        visit_t3_tasks(&t.a, &t.b, ordering, &mut events, |x| t3.push(x));
        let codes = t3
            .iter()
            .map(|x| {
                let mut codes = Vec::new();
                visit_t4_codes(x.a_tile, x.b_tile, fill, &mut events, |c| codes.push(c));
                codes
            })
            .collect();
        (t3, codes, events)
    }

    #[test]
    fn word_parallel_walk_matches_frozen_reference() {
        for t in sample_tasks(0x7A1C_2026) {
            for ordering in ORDERINGS {
                for fill in FILLS {
                    let (t3, codes, events) = walk_new(&t, ordering, fill);
                    let (ref_t3, ref_codes, ref_events) = walk_reference(&t, ordering, fill);
                    assert_eq!(t3, ref_t3, "{ordering} {fill:?} {t:?}");
                    assert_eq!(codes, ref_codes, "{ordering} {fill:?} {t:?}");
                    assert_eq!(events, ref_events, "{ordering} {fill:?} {t:?}");

                    let cfg =
                        UniStcConfig { ordering, fill_order: fill, ..UniStcConfig::default() };
                    assert_eq!(
                        execute_t1(&cfg, &t).events.c_writes,
                        u64::from(t.c_nnz()),
                        "{ordering} {fill:?} {t:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn fill_tables_match_the_frozen_visit_order() {
        for fill in FILLS {
            assert_eq!(crate::dpg::visit_order(fill), visit_order(fill), "{fill:?}");
        }
    }
}
