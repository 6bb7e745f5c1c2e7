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
    /// Element width in bytes (4 or 8).
    const WIDTH: usize;
    /// True for the `u64` specialization (the on-disk `WIDE` flag).
    const WIDE: bool;
    /// Largest *vertex count* this width can index: ids run `0..count`,
    /// so a `u32` id space admits exactly `2³²` vertices.
    const MAX_COUNT: u128;

    /// Widen to `u64` (lossless for both specializations).
    fn to_u64(self) -> u64;
    /// Narrow from `u64`, `None` when out of range.
    fn try_from_u64(x: u64) -> Option<Self>;
    /// Narrow from `u64`; panics when out of range (callers validate first).
    #[inline]
    fn from_u64(x: u64) -> Self {
        Self::try_from_u64(x).expect("vertex id out of range for this width")
    }
    /// To a `usize` index (ids are always ≤ the in-memory vertex count).
    fn to_index(self) -> usize;
}

impl VertexId for u32 {
    const WIDTH: usize = 4;
    const WIDE: bool = false;
    const MAX_COUNT: u128 = 1 << 32;

    #[inline]
    fn to_u64(self) -> u64 {
        u64::from(self)
    }
    #[inline]
    fn try_from_u64(x: u64) -> Option<Self> {
        u32::try_from(x).ok()
    }
    #[inline]
    fn to_index(self) -> usize {
        self as usize
    }
}

impl VertexId for u64 {
    const WIDTH: usize = 8;
    const WIDE: bool = true;
    const MAX_COUNT: u128 = 1 << 64;

    #[inline]
    fn to_u64(self) -> u64 {
        self
    }
    #[inline]
    fn try_from_u64(x: u64) -> Option<Self> {
        Some(x)
    }
    #[inline]
    fn to_index(self) -> usize {
        usize::try_from(self).expect("wide vertex id exceeds the address space")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape<V: VertexId>() -> (usize, bool) {
        (V::WIDTH, V::WIDE)
    }

    #[test]
    fn widths_and_flags() {
        assert_eq!(shape::<u32>(), (4, false));
        assert_eq!(shape::<u64>(), (8, true));
        assert_eq!(<u32 as VertexId>::MAX_COUNT, 1u128 << 32);
    }

    #[test]
    fn round_trips() {
        assert_eq!(
            <u32 as VertexId>::try_from_u64(u64::from(u32::MAX)),
            Some(u32::MAX)
        );
        assert_eq!(<u32 as VertexId>::try_from_u64(1 << 32), None);
        assert_eq!(<u64 as VertexId>::from_u64(1 << 40).to_u64(), 1 << 40);
        assert_eq!(7u32.to_index(), 7usize);
    }
}
