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

/// Seeded task sample for differential tests: random blocks across
/// densities as MV tasks, MM tasks and SpMM tails narrowed to every
/// `keep_cols(1..=16)` width, plus the dense and empty corners.
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
    tasks
}

#[cfg(test)]
mod tests {
    use super::*;

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
