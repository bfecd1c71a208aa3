//! Shared helpers for baseline dataflow models.

/// Iterator over the chunk widths produced by gathering `count` nonzeros
/// into compacted chunks of `width` (e.g. `chunks(19, 8)` yields 8, 8, 3).
pub(crate) fn chunks(count: usize, width: usize) -> impl Iterator<Item = usize> {
    debug_assert!(width > 0);
    let full = count / width;
    let rem = count % width;
    std::iter::repeat_n(width, full).chain((rem > 0).then_some(rem))
}

/// Iterator over the set-bit indices of a 16-bit mask, lowest first.
pub(crate) fn bits(mut mask: u16) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let i = mask.trailing_zeros() as usize;
        mask &= mask.wrapping_sub(1);
        (i < 16).then_some(i)
    })
}

/// The lowest `n` set bits of `mask` (all of them when it has fewer).
pub(crate) fn lowest_bits(mask: u16, n: usize) -> u16 {
    let rest = (0..n).fold(mask, |rest, _| rest & rest.wrapping_sub(1));
    mask & !rest
}

/// The nonzero count of each nibble of `mask`, nibble `w` in the 16-bit
/// lane `w` of the result. A lane holds at most 4, so weighted sums of
/// such words stay in their lanes while every lane stays below 2^16.
pub(crate) fn nibble_counts(mask: u16) -> u64 {
    let x = u64::from(mask);
    let spread = x & 0xF | (x & 0xF0) << 12 | (x & 0xF00) << 24 | (x & 0xF000) << 36;
    let pairs = spread - (spread >> 1 & 0x5555_5555_5555_5555);
    (pairs & 0x3333_3333_3333_3333) + (pairs >> 2 & 0x3333_3333_3333_3333)
}

/// Seeded task sample for differential tests: random blocks across
/// densities as MV tasks, MM tasks and SpMM tails narrowed to every
/// `keep_cols(1..=16)` width, plus the dense and empty corners and the
/// structured A blocks the workloads produce ([`structured_tasks`]).
#[cfg(test)]
pub(crate) fn sample_tasks(seed: u64) -> Vec<simkit::T1Task> {
    use simkit::{Block16, T1Task};
    let mut rng = sparse::rng::Rng64::new(seed);
    let mut block = |p: f64| Block16::from_fn(|_, _| rng.next_bool(p));
    let mut tasks = vec![
        T1Task::mm(Block16::dense(), Block16::dense()),
        T1Task::mv(Block16::dense(), u16::MAX),
        T1Task::mm(Block16::empty(), Block16::dense()),
    ];
    for &pa in &[0.03, 0.1, 0.25, 0.5, 0.8, 1.0] {
        for &pb in &[0.03, 0.1, 0.25, 0.5, 0.8, 1.0] {
            for width in 1..=16 {
                let (a, b) = (block(pa), block(pb));
                tasks.push(T1Task::mv(a, b.row_mask(width - 1)));
                tasks.push(T1Task::mm(a, b));
                tasks.push(T1Task::mm(a, b.keep_cols(width)));
            }
        }
    }
    tasks.extend(structured_tasks(&mut rng));
    tasks
}

/// Banded A blocks of half-width 0 (the diagonal) to 3, an arrow (row
/// and column 0), a dense 8x8 sub-block, one row and one column: each as
/// an MV task against a full and two half-dense `x` masks, and as MM
/// tasks against dense B, its every `keep_cols` tail and sparse B.
#[cfg(test)]
pub(crate) fn structured_tasks(rng: &mut sparse::rng::Rng64) -> Vec<simkit::T1Task> {
    use simkit::{Block16, T1Task};
    let mut shapes: Vec<Block16> =
        (0..4).map(|h| Block16::from_fn(|r, c| r.abs_diff(c) <= h)).collect();
    shapes.push(Block16::from_fn(|r, c| r == 0 || c == 0));
    shapes.push(Block16::from_fn(|r, c| (4..12).contains(&r) && (4..12).contains(&c)));
    shapes.push(Block16::from_fn(|r, _| r == 5));
    shapes.push(Block16::from_fn(|_, c| c == 11));
    let mut tasks = Vec::new();
    for a in shapes {
        tasks.extend([u16::MAX, 0x5555, 0x00FF].map(|x| T1Task::mv(a, x)));
        tasks.extend((1..=16).map(|width| T1Task::mm(a, Block16::dense().keep_cols(width))));
        for p in [0.1, 0.3] {
            tasks.push(T1Task::mm(a, Block16::from_fn(|_, _| rng.next_bool(p))));
        }
    }
    tasks
}

/// Asserts that `execute` equals `reference` (an engine's frozen,
/// pre-rewrite schedule) on every [`sample_tasks`] task at FP64, FP32 and
/// FP16: every `T1Result` field, histogram bucket for bucket.
#[cfg(test)]
pub(crate) fn assert_matches_reference<E: simkit::TileEngine>(
    new: fn(simkit::Precision) -> E,
    reference: fn(&E, &simkit::T1Task) -> simkit::T1Result,
) {
    use simkit::Precision;
    for p in [Precision::Fp64, Precision::Fp32, Precision::Fp16] {
        let e = new(p);
        for task in sample_tasks(0x7A9E_2024) {
            assert_eq!(e.execute(&task), reference(&e, &task), "{} {p:?} {task:?}", e.name());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowest_bits_takes_the_first_n() {
        assert_eq!(lowest_bits(0b1011_0110, 2), 0b0000_0110);
        assert_eq!(lowest_bits(0b1011_0110, 4), 0b0011_0110);
        assert_eq!(lowest_bits(0b1011_0110, 9), 0b1011_0110);
        assert_eq!(lowest_bits(u16::MAX, 16), u16::MAX);
        assert_eq!(lowest_bits(u16::MAX, 0), 0);
        assert_eq!(lowest_bits(0, 8), 0);
    }

    #[test]
    fn nibble_counts_matches_popcounts() {
        for mask in (0..=u16::MAX).step_by(7).chain([u16::MAX]) {
            let counts = nibble_counts(mask);
            for w in 0..4 {
                let expect = u64::from((mask >> (4 * w) & 0xF).count_ones());
                assert_eq!(counts >> (16 * w) & 0xFFFF, expect, "{mask:#06x} nibble {w}");
            }
        }
    }

    #[test]
    fn chunks_splits_with_remainder() {
        assert_eq!(chunks(19, 8).collect::<Vec<_>>(), vec![8, 8, 3]);
        assert_eq!(chunks(16, 8).collect::<Vec<_>>(), vec![8, 8]);
        assert_eq!(chunks(0, 8).count(), 0);
        assert_eq!(chunks(3, 8).collect::<Vec<_>>(), vec![3]);
    }

    #[test]
    fn bits_enumerates_set_positions() {
        assert_eq!(bits(0b1001_0000_0000_0011).collect::<Vec<_>>(), vec![0, 1, 12, 15]);
        assert_eq!(bits(0).count(), 0);
        assert_eq!(bits(u16::MAX).count(), 16);
        assert_eq!(bits(1 << 15).collect::<Vec<_>>(), vec![15]);
    }
}
