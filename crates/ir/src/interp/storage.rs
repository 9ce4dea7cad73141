//! Field storage: the one place a [`Buffer`](super::Buffer)'s elements are
//! allocated.
//!
//! A padded field of the paper's 8M-point grid is 69 MB, and a sweep writes
//! its outputs into fresh memory. Faulted in 4 KiB at a time that is 512
//! page faults per 2 MiB; on a Linux host whose transparent huge pages are
//! in `madvise` (or `always`) mode it is one fault per 2 MiB once the range
//! is advised. Both functions here advise the whole aligned 2 MiB pages of
//! a new allocation with `madvise(MADV_HUGEPAGE)` before anything writes to
//! it. An allocation that spans no whole aligned page is not advised, and
//! the kernel may refuse the advice: either way the bytes are the same, only
//! the page size differs. On other targets the advice is nothing.

/// The huge page advised: 2 MiB, the PMD size of x86-64 and of aarch64 with
/// 4 KiB pages.
const HUGE_PAGE: usize = 2 << 20;

/// `len` zeroed elements. The allocator's zeroed path leaves a large
/// allocation to the kernel's zero pages, so nothing touches it before the
/// advice.
pub fn zeroed(len: usize) -> Vec<f64> {
    let data = vec![0.0; len];
    advise(&data);
    data
}

/// A copy of `src` in storage of its own, advised before it is written.
pub fn copied(src: &[f64]) -> Vec<f64> {
    let mut data = Vec::with_capacity(src.len());
    advise(&data);
    data.extend_from_slice(src);
    data
}

/// The whole aligned huge pages inside the `len` bytes at `addr`, as their
/// first address and their length in bytes; `None` when there is no whole
/// page, or when the range would pass the end of the address space.
fn huge_page_span(addr: usize, len: usize) -> Option<(usize, usize)> {
    let start = addr.checked_next_multiple_of(HUGE_PAGE)?;
    let end = addr.checked_add(len)? / HUGE_PAGE * HUGE_PAGE;
    if end > start {
        Some((start, end - start))
    } else {
        None
    }
}

/// Advise huge pages over the allocation behind `data` — its capacity, so
/// an empty vector with room for a copy is advised before the copy.
fn advise(data: &Vec<f64>) {
    let bytes = data.capacity() * std::mem::size_of::<f64>();
    if let Some((start, len)) = huge_page_span(data.as_ptr() as usize, bytes) {
        madvise_huge_pages(start, len);
    }
}

#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
fn madvise_huge_pages(start: usize, len: usize) {
    use std::ffi::{c_int, c_void};
    // The C library's, which std already links on Linux.
    extern "C" {
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }
    /// `MADV_HUGEPAGE` of Linux's `<asm-generic/mman-common.h>`.
    const MADV_HUGEPAGE: c_int = 14;
    // SAFETY: `[start, start + len)` is page-aligned and lies inside one
    // live allocation (`huge_page_span` only shrinks the range it is
    // given). MADV_HUGEPAGE changes how the kernel backs the range, never
    // its contents or its mapping, so no reference into it is affected.
    // The result is ignored: a refusal leaves 4 KiB pages.
    unsafe {
        madvise(start as *mut c_void, len, MADV_HUGEPAGE);
    }
}

#[cfg(not(target_os = "linux"))]
fn madvise_huge_pages(_start: usize, _len: usize) {}

#[cfg(test)]
mod tests {
    use super::super::Buffer;
    use super::*;

    const M: usize = 1 << 20;

    type Span = Option<(usize, usize)>;

    /// `(addr, len) -> span`, one row per shape of range.
    const SPANS: &[(&str, usize, usize, Span)] = &[
        ("empty", 4 * M, 0, None),
        ("empty and unaligned", 4 * M + 8, 0, None),
        ("shorter than a page", 4 * M, M, None),
        ("crosses a boundary, no whole page", 3 * M, 2 * M, None),
        ("ends where the page would", 4 * M + 8, 2 * M - 8, None),
        ("one aligned page", 4 * M, 2 * M, Some((4 * M, 2 * M))),
        ("ragged ends", 3 * M + 64, 9 * M, Some((4 * M, 8 * M))),
        ("near the top, no overflow", usize::MAX - M, 4 * M, None),
        ("rounds up past the top", usize::MAX - 100, 50, None),
        ("the last page", usize::MAX - 5 * M + 1, 5 * M - 1, LAST),
    ];

    /// The last whole page below the top of the address space.
    const LAST: Span = Some((usize::MAX - 4 * M + 1, 2 * M));

    #[test]
    fn huge_page_span_takes_the_whole_aligned_pages() {
        for &(case, addr, len, want) in SPANS {
            assert_eq!(huge_page_span(addr, len), want, "{case}");
        }
    }

    fn six_mib() -> Buffer {
        Buffer::zeroed(vec![3, 2 * M as i64 / 8], vec![0, 0])
    }

    #[test]
    fn a_huge_buffer_reads_zero_and_clones_into_storage_of_its_own() {
        let mut b = six_mib();
        assert!(b.data.iter().all(|&v| v.to_bits() == 0));
        for (i, v) in b.data.iter_mut().enumerate().step_by(4097) {
            *v = i as f64 - 0.5;
        }
        let copy = b.clone();
        assert_ne!(copy.data.as_ptr(), b.data.as_ptr());
        assert_eq!((&copy.shape, &copy.origin), (&b.shape, &b.origin));
        assert!(copy
            .data
            .iter()
            .zip(&b.data)
            .all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    /// `THPeligible` of the `/proc/self/smaps` mapping that holds `addr`.
    #[cfg(target_os = "linux")]
    fn thp_eligible(smaps: &str, addr: usize) -> Option<bool> {
        let mut inside = false;
        for line in smaps.lines() {
            let range = line
                .split_whitespace()
                .next()
                .and_then(|r| r.split_once('-'));
            let bounds = range.and_then(|(lo, hi)| {
                Some((
                    usize::from_str_radix(lo, 16).ok()?,
                    usize::from_str_radix(hi, 16).ok()?,
                ))
            });
            if let Some((lo, hi)) = bounds {
                inside = (lo..hi).contains(&addr);
            } else if let Some(flag) = line.strip_prefix("THPeligible:").filter(|_| inside) {
                return Some(flag.trim() == "1");
            }
        }
        None
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_buffer_spanning_a_huge_page_is_eligible_for_one() {
        let mode = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled");
        if mode.map_or(true, |m| m.contains("[never]")) {
            return;
        }
        let zeroed = six_mib();
        let copy = zeroed.clone();
        let smaps = std::fs::read_to_string("/proc/self/smaps").expect("smaps is readable");
        for (what, b) in [("zeroed", &zeroed), ("copied", &copy)] {
            let (start, _) = huge_page_span(b.data.as_ptr() as usize, b.data.len() * 8)
                .expect("6 MiB spans a whole aligned 2 MiB page");
            assert_eq!(
                thp_eligible(&smaps, start),
                Some(true),
                "the {what} buffer's first aligned huge page at {start:#x}"
            );
        }
    }
}
