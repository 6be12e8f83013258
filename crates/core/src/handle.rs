//! Typed handles into the shared address space.
//!
//! Applications do not manipulate raw global addresses; they allocate typed
//! arrays and scalars from the [`Dsm`](crate::cluster::Dsm) before the
//! parallel section and access them through these handles, which translate
//! element indices into byte-level shared-memory accesses on a
//! [`ProcCtx`].  Accesses are `async` because any of them may fault, and a
//! fault is a scheduler park point (see [`crate::sync::TurnWait`]).

use std::marker::PhantomData;

use tm_page::{GlobalAddr, PAGE_SIZE};

use crate::proc::ProcCtx;

/// A plain value that can live in DSM shared memory.
///
/// Implementations define a fixed-size little-endian byte encoding; all
/// numeric primitives used by the application suite are covered.
pub trait SharedVal: Copy + Default + Send + Sync + 'static {
    /// Encoded size in bytes.
    const BYTES: usize;
    /// Encode into `buf` (exactly `BYTES` long).
    fn store(self, buf: &mut [u8]);
    /// Decode from `buf` (exactly `BYTES` long).
    fn load(buf: &[u8]) -> Self;
}

macro_rules! impl_shared_val {
    ($($t:ty),*) => {
        $(
            impl SharedVal for $t {
                const BYTES: usize = std::mem::size_of::<$t>();
                #[inline]
                fn store(self, buf: &mut [u8]) {
                    buf.copy_from_slice(&self.to_le_bytes());
                }
                #[inline]
                fn load(buf: &[u8]) -> Self {
                    <$t>::from_le_bytes(buf.try_into().expect("buffer size mismatch"))
                }
            }
        )*
    };
}

impl_shared_val!(u8, u16, u32, u64, i8, i16, i32, i64, f32, f64);

/// A fixed-length array of `T` living in shared memory.
#[derive(Debug, Clone, Copy)]
pub struct GArray<T: SharedVal> {
    base: GlobalAddr,
    len: usize,
    _marker: PhantomData<T>,
}

impl<T: SharedVal> GArray<T> {
    /// Create a handle over `len` elements starting at `base`.  Normally
    /// produced by [`Dsm::alloc_array`](crate::cluster::Dsm::alloc_array).
    ///
    /// # Panics
    /// Panics unless `base` is a multiple of `T::BYTES` and `T::BYTES`
    /// divides [`PAGE_SIZE`]: then no element straddles a page, so every
    /// element is read and written in place, within one page.
    pub fn from_raw(base: GlobalAddr, len: usize) -> Self {
        assert!(
            base.offset().is_multiple_of(T::BYTES as u64) && PAGE_SIZE.is_multiple_of(T::BYTES),
            "an array of {}-byte elements at {base}: its base must be a multiple of the element size, which must divide the {PAGE_SIZE}-byte page",
            T::BYTES
        );
        GArray {
            base,
            len,
            _marker: PhantomData,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Global address of element `i`.
    pub fn addr(&self, i: usize) -> GlobalAddr {
        assert!(i <= self.len, "index {i} out of bounds (len {})", self.len);
        self.base.add((i * T::BYTES) as u64)
    }

    /// Base address of the array.
    pub fn base(&self) -> GlobalAddr {
        self.base
    }

    /// Read element `i`.
    pub async fn get(&self, ctx: &mut ProcCtx, i: usize) -> T {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        let (at, mut value) = (self.addr(i), T::default());
        ctx.access(at, T::BYTES, false).await;
        ctx.read_with(at, T::BYTES, |bytes| value = T::load(bytes));
        value
    }

    /// Write element `i`.
    pub async fn set(&self, ctx: &mut ProcCtx, i: usize, v: T) {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        let at = self.addr(i);
        ctx.access(at, T::BYTES, true).await;
        ctx.write_with(at, T::BYTES, |bytes| v.store(bytes));
    }

    /// Read `count` elements starting at `start` into a vector (one bulk
    /// shared access — the natural granularity for row/column operations).
    pub async fn read_vec(&self, ctx: &mut ProcCtx, start: usize, count: usize) -> Vec<T> {
        let mut out = Vec::new();
        self.read_into(ctx, start, count, &mut out).await;
        out
    }

    /// Read `count` elements starting at `start` into `out` (cleared first).
    /// Equivalent to [`read_vec`](Self::read_vec) but reuses the caller's
    /// buffer, so a hot loop performs no per-call allocation.  The
    /// elements are decoded straight from the pages.
    pub async fn read_into(&self, ctx: &mut ProcCtx, start: usize, count: usize, out: &mut Vec<T>) {
        assert!(start + count <= self.len, "range out of bounds");
        out.clear();
        out.reserve(count);
        let (at, len) = (self.addr(start), count * T::BYTES);
        ctx.access(at, len, false).await;
        ctx.read_with(at, len, |bytes| {
            out.extend(bytes.chunks_exact(T::BYTES).map(T::load))
        });
    }

    /// Write the elements of `values` starting at index `start` (one bulk
    /// shared access), encoded straight into the pages.
    pub async fn write_slice(&self, ctx: &mut ProcCtx, start: usize, mut values: &[T]) {
        assert!(start + values.len() <= self.len, "range out of bounds");
        let (at, len) = (self.addr(start), values.len() * T::BYTES);
        ctx.access(at, len, true).await;
        ctx.write_with(at, len, |bytes| {
            let (now, later) = values.split_at(bytes.len() / T::BYTES);
            for (chunk, v) in bytes.chunks_exact_mut(T::BYTES).zip(now) {
                v.store(chunk);
            }
            values = later;
        });
    }

    /// Narrow the handle to a sub-range `[start, start + len)`.
    pub fn slice(&self, start: usize, len: usize) -> GArray<T> {
        assert!(start + len <= self.len, "slice out of bounds");
        GArray {
            base: self.addr(start),
            len,
            _marker: PhantomData,
        }
    }
}

/// A single shared scalar of type `T`.
#[derive(Debug, Clone, Copy)]
pub struct GScalar<T: SharedVal> {
    cell: GArray<T>,
}

impl<T: SharedVal> GScalar<T> {
    /// Create a handle over the scalar stored at `addr`.
    pub fn from_raw(addr: GlobalAddr) -> Self {
        GScalar {
            cell: GArray::from_raw(addr, 1),
        }
    }

    /// Global address of the scalar.
    pub fn addr(&self) -> GlobalAddr {
        self.cell.base()
    }

    /// Read the scalar.
    pub async fn get(&self, ctx: &mut ProcCtx) -> T {
        self.cell.get(ctx, 0).await
    }

    /// Write the scalar.
    pub async fn set(&self, ctx: &mut ProcCtx, v: T) {
        self.cell.set(ctx, 0, v).await
    }
}

/// A dense row-major matrix of `T` in shared memory; rows are the unit of
/// bulk access used by the grid applications (Jacobi, Shallow, MGS, FFT).
#[derive(Debug, Clone, Copy)]
pub struct GMatrix<T: SharedVal> {
    data: GArray<T>,
    rows: usize,
    cols: usize,
}

impl<T: SharedVal> GMatrix<T> {
    /// Wrap an array of `rows * cols` elements as a matrix.
    pub fn from_array(data: GArray<T>, rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix shape mismatch");
        GMatrix { data, rows, cols }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The backing array handle.
    pub fn as_array(&self) -> GArray<T> {
        self.data
    }

    /// Read a full row.
    pub async fn read_row(&self, ctx: &mut ProcCtx, r: usize) -> Vec<T> {
        assert!(r < self.rows, "row {r} out of bounds");
        self.data.read_vec(ctx, r * self.cols, self.cols).await
    }

    /// Read a full row into `out` (cleared first), reusing the caller's
    /// buffer so per-row iteration performs no allocation.
    pub async fn read_row_into(&self, ctx: &mut ProcCtx, r: usize, out: &mut Vec<T>) {
        assert!(r < self.rows, "row {r} out of bounds");
        self.data
            .read_into(ctx, r * self.cols, self.cols, out)
            .await;
    }

    /// Write a full row.
    pub async fn write_row(&self, ctx: &mut ProcCtx, r: usize, values: &[T]) {
        assert!(r < self.rows, "row {r} out of bounds");
        assert_eq!(values.len(), self.cols, "row length mismatch");
        self.data.write_slice(ctx, r * self.cols, values).await;
    }

    /// Read one element.
    pub async fn get(&self, ctx: &mut ProcCtx, r: usize, c: usize) -> T {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data.get(ctx, r * self.cols + c).await
    }

    /// Write one element.
    pub async fn set(&self, ctx: &mut ProcCtx, r: usize, c: usize, v: T) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data.set(ctx, r * self.cols + c, v).await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Dsm;
    use crate::config::DsmConfig;
    use crate::protocol::ProtocolMode;
    use tm_page::Align;

    /// Elements of the array, which is asked for four bytes before the end
    /// of page 0 and so starts at page 1: the end of page 1 falls between
    /// elements 511 and 512.
    const LEN: usize = 600;

    /// Under both protocols, on two processors, with the race detector and
    /// the flat-memory oracle watching: an array of 8-byte elements
    /// allocated word-aligned, whose accesses cross a page boundary,
    /// round-trips through `write_slice`, `read_into`, `read_vec`, `get` and
    /// `set`.  Rank 1's `write_slice` across the boundary lands partly on
    /// the page it is home to under the home-based protocol — written
    /// through to the master copy — and partly on one homed at rank 0,
    /// flushed as a diff; rank 0 then reads both halves back from the homes.
    fn elements_across_a_page_boundary_round_trip<T>(value: impl Fn(usize) -> T)
    where
        T: SharedVal + PartialEq + std::fmt::Debug,
    {
        for protocol in [ProtocolMode::MultiWriter, ProtocolMode::home_based()] {
            let config = DsmConfig::with_procs(2)
                .shared_pages(8)
                .protocol(protocol)
                .racecheck(true);
            let mut dsm = Dsm::new(config);
            dsm.alloc_bytes((PAGE_SIZE - 4) as u64, Align::Page);
            let array = dsm.alloc_array::<T>(LEN, Align::Word);
            assert_eq!(array.base().offset(), PAGE_SIZE as u64);
            let first: Vec<T> = (0..LEN).map(&value).collect();
            let mut last = first.clone();
            last[0] = value(LEN);
            for (i, v) in last.iter_mut().enumerate().take(520).skip(508) {
                *v = value(LEN + 1 + i);
            }
            let out = dsm.run(async |ctx| {
                if ctx.rank() == 0 {
                    array.write_slice(ctx, 0, &first).await;
                }
                ctx.barrier().await;
                if ctx.rank() == 1 {
                    let mut got = vec![value(0); 3];
                    array.read_into(ctx, 0, LEN, &mut got).await;
                    assert_eq!(got, first);
                    assert_eq!(array.read_vec(ctx, 510, 5).await, first[510..515]);
                    assert_eq!(array.get(ctx, 0).await, first[0]);
                    assert_eq!(array.get(ctx, 511).await, first[511]);
                    assert_eq!(array.get(ctx, 512).await, first[512]);
                    array.set(ctx, 0, last[0]).await;
                    array.write_slice(ctx, 508, &last[508..520]).await;
                }
                ctx.barrier().await;
                assert_eq!(array.get(ctx, 0).await, last[0]);
                assert_eq!(array.read_vec(ctx, 0, LEN).await, last);
            });
            assert!(out.stats.races.is_empty(), "{protocol:?}: races");
        }
    }

    #[test]
    fn u64_elements_across_page_boundaries_round_trip() {
        elements_across_a_page_boundary_round_trip(|k| {
            0x0102_0304_0506_0708_u64.wrapping_mul(k as u64 + 1)
        });
    }

    #[test]
    fn f64_elements_across_page_boundaries_round_trip() {
        elements_across_a_page_boundary_round_trip(|k| -1.25e-3 * (k as f64 + 0.5));
    }

    /// The bases of `T` arrays and scalars allocated under every `Align`,
    /// after a bump to every residue mod 8, are multiples of `T::BYTES` and
    /// of the boundary `align` asks for.
    fn bases_are_naturally_aligned<T: SharedVal>() {
        let aligns = [
            Align::Word,
            Align::Bytes(1),
            Align::Bytes(2),
            Align::Bytes(4),
            Align::Bytes(8),
            Align::Bytes(16),
            Align::Page,
        ];
        for align in aligns {
            for residue in 0..8 {
                let mut dsm = Dsm::new(DsmConfig::with_procs(1).shared_pages(4));
                dsm.alloc_bytes(residue, Align::Bytes(1));
                let array = dsm.alloc_array::<T>(3, align).base().offset();
                dsm.alloc_bytes(residue, Align::Bytes(1));
                let scalar = dsm.alloc_scalar::<T>(align).addr().offset();
                for base in [array, scalar] {
                    let boundary = align.bytes().max(T::BYTES) as u64;
                    assert!(
                        base.is_multiple_of(boundary),
                        "{}-byte element at {base} under {align:?} after {residue}",
                        T::BYTES
                    );
                }
            }
        }
    }

    #[test]
    fn every_element_type_is_naturally_aligned_under_every_align() {
        bases_are_naturally_aligned::<u8>();
        bases_are_naturally_aligned::<u16>();
        bases_are_naturally_aligned::<u32>();
        bases_are_naturally_aligned::<u64>();
        bases_are_naturally_aligned::<f64>();
    }

    #[test]
    #[should_panic(expected = "an array of 8-byte elements at g+0x1004")]
    fn a_misaligned_array_is_rejected_by_its_element_size() {
        GArray::<f64>::from_raw(GlobalAddr(4100), 2);
    }
}
