//! Typed handles into the shared address space.
//!
//! Applications do not manipulate raw global addresses; they allocate typed
//! arrays and scalars from the [`Dsm`](crate::cluster::Dsm) before the
//! parallel section and access them through these handles, which translate
//! element indices into byte-level shared-memory accesses on a
//! [`ProcCtx`].  Accesses are `async` because any of them may fault, and a
//! fault is a scheduler park point (see [`crate::sync::TurnWait`]).

use std::marker::PhantomData;

use tm_page::GlobalAddr;

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
    pub fn from_raw(base: GlobalAddr, len: usize) -> Self {
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
        let mut buf = [0u8; 16];
        ctx.read_bytes(self.addr(i), &mut buf[..T::BYTES]).await;
        T::load(&buf[..T::BYTES])
    }

    /// Write element `i`.
    pub async fn set(&self, ctx: &mut ProcCtx, i: usize, v: T) {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        let mut buf = [0u8; 16];
        v.store(&mut buf[..T::BYTES]);
        ctx.write_bytes(self.addr(i), &buf[..T::BYTES]).await;
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
    /// buffer, so a hot loop performs no per-call allocation.
    ///
    /// The byte staging buffer lives on the context (not in a thread-local):
    /// every simulated processor shares one host thread, and the context
    /// buffer is per-processor by construction.
    pub async fn read_into(&self, ctx: &mut ProcCtx, start: usize, count: usize, out: &mut Vec<T>) {
        assert!(start + count <= self.len, "range out of bounds");
        let mut bytes = ctx.take_byte_scratch();
        // `read_bytes` overwrites the whole range, so growth (not
        // re-zeroing) is the only cost of the resize.
        let len = count * T::BYTES;
        bytes.resize(len, 0);
        ctx.read_bytes(self.addr(start), &mut bytes[..len]).await;
        out.clear();
        out.reserve(count);
        out.extend(bytes.chunks_exact(T::BYTES).map(|c| T::load(c)));
        ctx.restore_byte_scratch(bytes);
    }

    /// Write the elements of `values` starting at index `start` (one bulk
    /// shared access).
    pub async fn write_slice(&self, ctx: &mut ProcCtx, start: usize, values: &[T]) {
        assert!(start + values.len() <= self.len, "range out of bounds");
        let mut bytes = ctx.take_byte_scratch();
        // Every chunk is overwritten by `store` below, so growth (not
        // re-zeroing) is the only cost of the resize.
        let len = values.len() * T::BYTES;
        bytes.resize(len, 0);
        for (chunk, v) in bytes[..len].chunks_exact_mut(T::BYTES).zip(values.iter()) {
            v.store(chunk);
        }
        ctx.write_bytes(self.addr(start), &bytes[..len]).await;
        ctx.restore_byte_scratch(bytes);
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
