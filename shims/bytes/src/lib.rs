//! Offline stand-in for the `bytes` crate.
//!
//! The build environment has no access to crates.io, so this crate
//! reimplements exactly the subset of the `bytes` 1.x API the workspace
//! uses: [`Bytes`] (a cheaply cloneable, sliceable shared byte buffer),
//! [`BytesMut`] (a growable builder that freezes into [`Bytes`]), and the
//! [`Buf`]/[`BufMut`] cursor traits. Semantics match the real crate for
//! this subset; anything beyond it is intentionally absent.

use std::sync::Arc;

/// A cheaply cloneable shared byte buffer with cursor-style consumption.
///
/// Cloning bumps a reference count; `slice` produces views into the same
/// allocation. [`Buf`] methods consume from the front by advancing an
/// offset, as in the real crate.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Copies a slice into a new buffer: one allocation of exactly
    /// `data.len()` bytes.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes {
            data: Arc::from(data),
            start: 0,
            end: data.len(),
        }
    }

    /// Bytes remaining (length of the unread view).
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A sub-view of this buffer sharing the same allocation.
    ///
    /// The range is relative to the current view, like `bytes::Bytes::slice`.
    pub fn slice(&self, range: impl std::ops::RangeBounds<usize>) -> Bytes {
        use std::ops::Bound;
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(
            lo <= hi && hi <= self.len(),
            "slice {lo}..{hi} out of range"
        );
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// Copies the view into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            data: Arc::from(v),
            start: 0,
            end,
        }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Self {
        Bytes::copy_from_slice(v)
    }
}

impl From<&'static str> for Bytes {
    fn from(v: &'static str) -> Self {
        Bytes::copy_from_slice(v.as_bytes())
    }
}

impl std::ops::Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice().iter().take(32) {
            if b.is_ascii_graphic() || b == b' ' {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        if self.len() > 32 {
            write!(f, "… ({} bytes)", self.len())?;
        }
        write!(f, "\"")
    }
}

/// A growable byte buffer that freezes into an immutable [`Bytes`].
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// An empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(cap),
        }
    }

    /// Current length.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Converts into an immutable shared buffer. Unlike the real crate's,
    /// this copies: the bytes move into a new exact-size shared
    /// allocation, and this buffer is freed.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }

    /// Appends raw bytes.
    pub fn extend_from_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }

    /// Empties the buffer, keeping its capacity.
    pub fn clear(&mut self) {
        self.data.clear();
    }
}

impl std::ops::Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

/// Read cursor over a byte source. Methods that read integers consume the
/// corresponding bytes and panic if too few remain (callers bounds-check
/// with [`Buf::remaining`] first, as with the real crate).
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// Whether any bytes are left.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }
    /// Skips `n` bytes.
    fn advance(&mut self, n: usize);
    /// Reads one byte.
    fn get_u8(&mut self) -> u8;
    /// Reads a little-endian u32.
    fn get_u32_le(&mut self) -> u32;
    /// Reads a little-endian u64.
    fn get_u64_le(&mut self) -> u64;
    /// Reads a little-endian i64.
    fn get_i64_le(&mut self) -> i64;
    /// Reads a little-endian f64.
    fn get_f64_le(&mut self) -> f64;
    /// Consumes `len` bytes into a new [`Bytes`].
    fn copy_to_bytes(&mut self, len: usize) -> Bytes;
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance past end");
        self.start += n;
    }

    fn get_u8(&mut self) -> u8 {
        let b = self.as_slice()[0];
        self.start += 1;
        b
    }

    fn get_u32_le(&mut self) -> u32 {
        let mut raw = [0u8; 4];
        raw.copy_from_slice(&self.as_slice()[..4]);
        self.start += 4;
        u32::from_le_bytes(raw)
    }

    fn get_u64_le(&mut self) -> u64 {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&self.as_slice()[..8]);
        self.start += 8;
        u64::from_le_bytes(raw)
    }

    fn get_i64_le(&mut self) -> i64 {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&self.as_slice()[..8]);
        self.start += 8;
        i64::from_le_bytes(raw)
    }

    fn get_f64_le(&mut self) -> f64 {
        f64::from_bits(self.get_u64_le())
    }

    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        let out = self.slice(0..len);
        self.start += len;
        out
    }
}

/// Write cursor that appends to a growable buffer.
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);
    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }
    /// Appends a little-endian u32.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Appends a little-endian u64.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Appends a little-endian i64.
    fn put_i64_le(&mut self, v: i64) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Appends a little-endian f64.
    fn put_f64_le(&mut self, v: f64) {
        self.put_u64_le(v.to_bits());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    }

    /// Counts this thread's allocations.
    struct CountingAllocator;

    // SAFETY: every method forwards to `System` unchanged; the counter is a
    // const-initialised thread-local `Cell`, which never allocates.
    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAllocator = CountingAllocator;

    fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
        let before = ALLOCATIONS.with(Cell::get);
        let out = f();
        (out, ALLOCATIONS.with(Cell::get) - before)
    }

    #[test]
    fn copy_from_slice_allocates_once() {
        let src = [7u8; 100];
        let (b, allocations) = allocations_of(|| Bytes::copy_from_slice(&src));
        assert_eq!(allocations, 1);
        assert_eq!(&*b, &src[..]);
        assert_ne!(b.as_ptr(), src.as_ptr());
    }

    #[test]
    fn freeze_copies_into_a_new_allocation() {
        let mut buf = BytesMut::with_capacity(64);
        buf.put_slice(b"frame");
        let growable = buf.as_ptr();
        let (frozen, allocations) = allocations_of(|| buf.freeze());
        assert_eq!(allocations, 1, "one shared allocation, sized to fit");
        assert_eq!(&*frozen, b"frame");
        assert_ne!(frozen.as_ptr(), growable, "the bytes moved");
    }

    #[test]
    fn roundtrip_ints() {
        let mut buf = BytesMut::with_capacity(32);
        buf.put_u8(7);
        buf.put_u32_le(0xDEAD_BEEF);
        buf.put_i64_le(-42);
        buf.put_f64_le(1.5);
        buf.put_slice(b"xyz");
        let mut b = buf.freeze();
        assert_eq!(b.remaining(), 1 + 4 + 8 + 8 + 3);
        assert_eq!(b.get_u8(), 7);
        assert_eq!(b.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(b.get_i64_le(), -42);
        assert_eq!(b.get_f64_le(), 1.5);
        assert_eq!(&*b.copy_to_bytes(3), b"xyz");
        assert!(!b.has_remaining());
    }

    #[test]
    fn slice_shares_allocation() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(&*s, &[2, 3, 4]);
        let s2 = s.slice(1..);
        assert_eq!(&*s2, &[3, 4]);
        assert_eq!(b.len(), 5); // original untouched
    }

    #[test]
    fn clone_is_shallow_and_equal() {
        let b = Bytes::from(vec![9; 1024]);
        let c = b.clone();
        assert_eq!(b, c);
        assert_eq!(Arc::strong_count(&b.data), 2);
    }

    #[test]
    fn hash_matches_content() {
        use std::collections::HashMap;
        let mut m = HashMap::new();
        m.insert(Bytes::from(vec![1, 2]), 1);
        assert_eq!(m.get(&Bytes::from(vec![1, 2])), Some(&1));
        assert_eq!(m.get(&Bytes::from(vec![1, 3])), None);
    }
}
