//! Counted T1 task streams: each distinct task once, with its
//! multiplicity.
//!
//! An engine sees a T1 task only as `(a, b, n_cols)` and
//! [`TileEngine::execute`](crate::TileEngine::execute) is a pure function
//! of it, while every counter a kernel report folds is an integer sum.
//! Executing each distinct task once and scaling its result by the number
//! of times it occurs is therefore exact (DESIGN.md §17). Structured
//! operators repeat a handful of block patterns, so the counted form is
//! usually far shorter than the task list it stands for.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use crate::{CounterOverflow, T1Task};

/// A T1 task stream in counted form: the distinct tasks in order of first
/// appearance, each with its multiplicity (always at least 1).
///
/// Dereferences to the `(task, multiplicity)` slice, which is what
/// [`run_stream`](crate::driver::run_stream) executes and what a shard
/// plan splits. The sum of all multiplicities, [`TaskStream::total`], is
/// guaranteed to fit in a `u64`.
///
/// # Example
///
/// ```
/// use simkit::{Block16, T1Task, TaskStream};
///
/// let diag = T1Task::mv(Block16::from_fn(|r, c| r == c), u16::MAX);
/// let dense = T1Task::mv(Block16::dense(), u16::MAX);
/// let stream: TaskStream = [diag, dense, diag, diag].into_iter().collect();
/// assert_eq!(&stream[..], &[(diag, 3), (dense, 1)]);
/// assert_eq!(stream.total(), 4);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TaskStream {
    entries: Vec<(T1Task, u64)>,
    total: u64,
}

impl TaskStream {
    /// Number of T1 tasks the stream stands for (the sum of all
    /// multiplicities), trivial ones included.
    pub fn total(&self) -> u64 {
        self.total
    }
}

/// Collapses `(task, count)` pairs, pushed one at a time, into counted
/// form: equal tasks merge by adding their counts, zero counts are
/// dropped, and entries keep the order in which their task first
/// appeared.
#[derive(Default)]
pub(crate) struct StreamBuilder {
    /// Keyed by packed bitmaps: equal exactly when the tasks are, and
    /// compared in a few word steps rather than 32 row steps.
    index: BTreeMap<([u128; 2], [u128; 2], usize), usize>,
    stream: TaskStream,
}

impl StreamBuilder {
    /// Adds `count` copies of `task`.
    ///
    /// # Errors
    ///
    /// [`CounterOverflow`] (`"t1_tasks"`) if the counts add up past
    /// `u64::MAX`; the stream is then unchanged.
    pub(crate) fn push(&mut self, task: T1Task, count: u64) -> Result<(), CounterOverflow> {
        if count == 0 {
            return Ok(());
        }
        let stream = &mut self.stream;
        stream.total =
            stream.total.checked_add(count).ok_or(CounterOverflow { counter: "t1_tasks" })?;
        match self.index.entry((task.a.packed(), task.b.packed(), task.n_cols)) {
            // Cannot overflow: a multiplicity is at most the total.
            Entry::Occupied(slot) => stream.entries[*slot.get()].1 += count,
            Entry::Vacant(slot) => {
                slot.insert(stream.entries.len());
                stream.entries.push((task, count));
            }
        }
        Ok(())
    }

    /// The stream built so far.
    pub(crate) fn finish(self) -> TaskStream {
        self.stream
    }
}

impl std::ops::Deref for TaskStream {
    type Target = [(T1Task, u64)];

    fn deref(&self) -> &Self::Target {
        &self.entries
    }
}

impl FromIterator<T1Task> for TaskStream {
    fn from_iter<I: IntoIterator<Item = T1Task>>(tasks: I) -> Self {
        let mut stream = StreamBuilder::default();
        for task in tasks {
            // Unit counts: the total can only overflow after 2^64 items,
            // so the error branch is unreachable for any iterator that
            // ends.
            if stream.push(task, 1).is_err() {
                break;
            }
        }
        stream.finish()
    }
}

impl From<&[T1Task]> for TaskStream {
    fn from(tasks: &[T1Task]) -> Self {
        tasks.iter().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Block16;

    fn mv(mask: u16) -> T1Task {
        T1Task::mv(Block16::dense(), mask)
    }

    #[test]
    fn keeps_first_appearance_order_and_counts() {
        let tasks = [mv(3), mv(1), mv(3), mv(2), mv(1), mv(3)];
        let stream = TaskStream::from(&tasks[..]);
        assert_eq!(&stream[..], &[(mv(3), 3), (mv(1), 2), (mv(2), 1)]);
        assert_eq!(stream.total(), tasks.len() as u64);
        assert_eq!(stream.len(), 3);
    }

    #[test]
    fn empty_and_zero_counts() {
        let mut stream = StreamBuilder::default();
        stream.push(mv(1), 0).unwrap();
        let stream = stream.finish();
        assert!(stream.is_empty());
        assert_eq!(stream.total(), 0);
        assert_eq!(TaskStream::from(&[][..]), TaskStream::default());
    }

    #[test]
    fn total_overflow_is_an_error() {
        let mut stream = StreamBuilder::default();
        stream.push(mv(1), u64::MAX - 1).unwrap();
        stream.push(mv(1), 1).unwrap();
        let err = stream.push(mv(2), 1).unwrap_err();
        assert_eq!(err.counter, "t1_tasks");
        // The overflowing push left the stream as it was.
        assert_eq!(&stream.finish()[..], &[(mv(1), u64::MAX)]);
    }
}
