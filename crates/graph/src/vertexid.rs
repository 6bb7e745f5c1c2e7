//! The sealed vertex-id width abstraction.
//!
//! Every in-memory structure in this suite indexes vertices with `u32`,
//! which halves index bandwidth versus `u64` and is the right call for
//! every graph with fewer than 2³² vertices — the paper's whole range and
//! then some. The on-disk binary format ([`crate::binfmt`]) is generic over
//! [`VertexId`] so that graphs beyond 4 billion vertices stay
//! *representable* (storage, conversion, streaming) without taxing the
//! narrow case with wide ids.
//!
//! The trait is sealed: exactly `u32` and `u64` implement it, which keeps
//! the on-disk `flags` bit a total description of the element width.

mod sealed {
    pub trait Sealed {}
    impl Sealed for u32 {}
    impl Sealed for u64 {}
}

/// A vertex-id integer type: `u32` (narrow) or `u64` (wide). Sealed.
///
/// The [`crate::binfmt::bytes::Pod`] supertrait is what lets the binary
/// loader hand out zero-copy `&[V]` views of the mapped file.
pub trait VertexId:
    sealed::Sealed
    + crate::binfmt::bytes::Pod
    + Copy
    + Ord
    + Eq
    + std::hash::Hash
    + std::fmt::Debug
    + std::fmt::Display
    + Send
    + Sync
    + 'static
{
    /// True for the `u64` specialization (the on-disk `WIDE` flag).
    const WIDE: bool;
    /// Largest *vertex count* this width can index: ids run `0..count`,
    /// so a `u32` id space admits exactly `2³²` vertices.
    const MAX_COUNT: u128;

    /// Widen to `u64` (lossless for both specializations).
    fn to_u64(self) -> u64;
}

impl VertexId for u32 {
    const WIDE: bool = false;
    const MAX_COUNT: u128 = 1 << 32;

    #[inline]
    fn to_u64(self) -> u64 {
        u64::from(self)
    }
}

impl VertexId for u64 {
    const WIDE: bool = true;
    const MAX_COUNT: u128 = 1 << 64;

    #[inline]
    fn to_u64(self) -> u64 {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape<V: VertexId>(id: V) -> (bool, u128, u64) {
        (V::WIDE, V::MAX_COUNT, id.to_u64())
    }

    #[test]
    fn widths_and_flags() {
        assert_eq!(shape(u32::MAX), (false, 1 << 32, u64::from(u32::MAX)));
        assert_eq!(shape(1u64 << 40), (true, 1 << 64, 1 << 40));
    }
}
