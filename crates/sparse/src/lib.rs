//! Sparse-matrix substrate for the Uni-STC reproduction.
//!
//! This crate provides every storage format the paper touches:
//!
//! * [`CooMatrix`] — coordinate triplets, the universal construction format.
//! * [`CsrMatrix`] / [`CscMatrix`] — compressed sparse row / column.
//! * [`DenseMatrix`] — row-major dense storage (operand `B` in SpMM).
//! * [`BitmapMatrix`] — the flat bitmap format of the paper's Fig. 1.
//! * [`BsrMatrix`] — block sparse row with a run-time block size (the
//!   `BSR(4x4)` and `BSR(16x16)` comparison points of Fig. 15).
//! * [`BbcMatrix`] — **Bitmap-Bitmap-CSR**, the unified format proposed by
//!   the paper (Section IV-D, Fig. 13): CSR over 16x16 blocks, a two-level
//!   bitmap inside each block and a two-level value-pointer scheme.
//! * [`SparseVector`] — the sparse operand of SpMSpV.
//!
//! plus golden reference kernels in [`ops`] (SpMV, SpMSpV, SpMM, SpGEMM)
//! that downstream crates use to validate the simulated dataflows,
//! reordering utilities in [`reorder`] (RCM, degree sort, symmetric
//! permutation) for block-structure ablations, Matrix Market I/O in
//! [`mtx`] for loading the real SuiteSparse collection, and storage-size
//! accounting used by the Fig. 15 experiment.
//!
//! # Example
//!
//! ```
//! use sparse::{CooMatrix, CsrMatrix, BbcMatrix};
//!
//! # fn main() -> Result<(), sparse::FormatError> {
//! let mut coo = CooMatrix::new(4, 4);
//! coo.push(0, 0, 1.0);
//! coo.push(1, 3, 2.0);
//! coo.push(3, 1, -1.0);
//! let csr = CsrMatrix::try_from(coo)?;
//! let bbc = BbcMatrix::from_csr(&csr);
//! assert_eq!(bbc.nnz(), 3);
//! let back = bbc.to_csr();
//! assert_eq!(back.nnz(), csr.nnz());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(feature = "simd", feature(portable_simd))]

mod bitmap;
mod bsr;
pub mod bbc;
pub mod kernels;
mod coo;
mod csc;
mod csr;
mod dense;
mod error;
pub mod mtx;
pub mod ops;
pub mod reorder;
pub mod rng;
mod sparsevec;

pub use bitmap::BitmapMatrix;
pub use bsr::BsrMatrix;
pub use bbc::{
    BbcBlock, BbcField, BbcMatrix, BlockDensityProfile, BLOCK_DIM, TILES_PER_BLOCK, TILE_DIM,
};
pub use coo::CooMatrix;
pub use csc::CscMatrix;
pub use csr::CsrMatrix;
pub use dense::DenseMatrix;
pub use error::FormatError;
pub use sparsevec::SparseVector;

/// The crate's error type under its conventional name: every fallible
/// sparse operation returns `Result<_, SparseError>`.
pub use error::FormatError as SparseError;

/// Number of bytes used by one column/row index in compressed formats.
///
/// All formats in this crate use 32-bit indices, matching the accounting of
/// the paper's Fig. 15 storage comparison.
pub const INDEX_BYTES: usize = 4;

/// Number of bytes used by one stored value (FP64).
pub const VALUE_BYTES: usize = 8;

/// Whether two value arrays hold the same IEEE-754 bit patterns: unlike
/// float `==`, `0.0` and `-0.0` differ and a NaN equals itself.
pub(crate) fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Storage accounting common to every matrix format in this crate.
///
/// Fig. 15 of the paper compares the *space reduction* of BSR and BBC over a
/// CSR baseline. The reduction is dominated by metadata (index) storage —
/// all formats store one FP64 word per nonzero — so the trait exposes the
/// metadata and value components separately.
pub trait StorageSize {
    /// Bytes spent on structural metadata (pointers, indices, bitmaps).
    fn metadata_bytes(&self) -> usize;

    /// Bytes spent on numerical values (including explicit zeros padded in
    /// by block formats such as BSR).
    fn value_bytes(&self) -> usize;

    /// Total storage footprint in bytes.
    fn total_bytes(&self) -> usize {
        self.metadata_bytes() + self.value_bytes()
    }
}

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn send_sync_types() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CooMatrix>();
        assert_send_sync::<CsrMatrix>();
        assert_send_sync::<CscMatrix>();
        assert_send_sync::<BsrMatrix>();
        assert_send_sync::<BbcMatrix>();
        assert_send_sync::<BitmapMatrix>();
        assert_send_sync::<DenseMatrix>();
        assert_send_sync::<SparseVector>();
        assert_send_sync::<FormatError>();
    }
}
