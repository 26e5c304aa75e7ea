//! CLOCK-style page cache with a byte budget over a [`crate::pager::Pager`].
//!
//! Every page touch goes through [`CachedPager::with_page`] /
//! [`CachedPager::with_page_mut`]: a hit flips the frame's reference bit,
//! a miss faults the page in (evicting via second-chance CLOCK once the
//! budget's frame count is reached, writing dirty victims back first).
//! The cache is the *only* RAM the adjacency column occupies, so the budget
//! is the store's bounded-memory contract; hits/misses/evictions tick the
//! `store.*` obs counters and the resident-bytes gauge so training runs
//! can prove the bound from their profile.
//!
//! Thread safety: one `Mutex` around the whole frame table. The paged
//! sampler's pool tasks share a `&CachedPager` and take the lock per page
//! touch — coarse, but correctness-first, and the resident path is still
//! available when the dataset fits in RAM.

use std::collections::HashMap;
use std::io;
use std::sync::{Mutex, OnceLock};

use benchtemp_obs::counters::{
    STORE_CACHE_RESIDENT_BYTES, STORE_PAGE_EVICTIONS, STORE_PAGE_HITS, STORE_PAGE_MISSES,
};

use crate::pager::{PageId, Pager, PAGE_SIZE};

/// Default cache budget when `BENCHTEMP_PAGE_CACHE_MB` is unset.
const DEFAULT_BUDGET_MB: usize = 64;

/// Floor on the frame count so degenerate budgets still make progress.
const MIN_FRAMES: usize = 4;

/// Process-wide default page-cache budget in bytes, from
/// `BENCHTEMP_PAGE_CACHE_MB`. Read exactly once per process (the env
/// registry's read-once rule); per-store overrides go through
/// [`CachedPager::create`]'s explicit budget argument instead of the
/// environment.
pub fn default_cache_budget() -> usize {
    static BUDGET: OnceLock<usize> = OnceLock::new();
    *BUDGET.get_or_init(|| {
        std::env::var("BENCHTEMP_PAGE_CACHE_MB")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(DEFAULT_BUDGET_MB)
            .saturating_mul(1 << 20)
    })
}

struct Frame {
    page: PageId,
    data: Box<[u8]>,
    referenced: bool,
    dirty: bool,
}

struct Inner {
    pager: Pager,
    frames: Vec<Frame>,
    map: HashMap<PageId, usize>,
    hand: usize,
    max_frames: usize,
}

impl Inner {
    /// Locate (or fault in) `page`, returning its frame index.
    fn frame_for(&mut self, page: PageId) -> io::Result<usize> {
        if let Some(&fi) = self.map.get(&page) {
            STORE_PAGE_HITS.incr();
            self.frames[fi].referenced = true;
            return Ok(fi);
        }
        STORE_PAGE_MISSES.incr();
        let fi = if self.frames.len() < self.max_frames {
            let fi = self.frames.len();
            self.frames.push(Frame {
                page,
                // audit-allow(hot-path-alloc-reachability): warm-up only — each frame buffer is allocated once, then reused across evictions for the life of the cache.
                data: vec![0u8; PAGE_SIZE].into_boxed_slice(),
                referenced: false,
                dirty: false,
            });
            STORE_CACHE_RESIDENT_BYTES.sample((self.frames.len() * PAGE_SIZE) as u64);
            fi
        } else {
            let fi = self.evict_one()?;
            self.frames[fi].page = page;
            self.frames[fi].referenced = false;
            self.frames[fi].dirty = false;
            fi
        };
        // Fault the page in before publishing the mapping.
        let frame = &mut self.frames[fi];
        self.pager.read_page(page, &mut frame.data)?;
        self.map.insert(page, fi);
        Ok(fi)
    }

    /// Second-chance CLOCK sweep: clear reference bits until a victim with
    /// `referenced == false` comes under the hand, write it back if dirty,
    /// and unmap it. Terminates within two sweeps by construction.
    fn evict_one(&mut self) -> io::Result<usize> {
        loop {
            let fi = self.hand;
            self.hand = (self.hand + 1) % self.frames.len();
            if self.frames[fi].referenced {
                self.frames[fi].referenced = false;
                continue;
            }
            let victim = self.frames[fi].page;
            if self.frames[fi].dirty {
                self.pager.write_page(victim, &self.frames[fi].data)?;
            }
            self.map.remove(&victim);
            STORE_PAGE_EVICTIONS.incr();
            return Ok(fi);
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        for frame in &mut self.frames {
            if frame.dirty {
                self.pager.write_page(frame.page, &frame.data)?;
                frame.dirty = false;
            }
        }
        self.pager.sync()
    }
}

/// A [`Pager`] fronted by the CLOCK cache. All page access goes through
/// the closure APIs so borrowed page bytes can never outlive the lock.
pub struct CachedPager {
    inner: Mutex<Inner>,
}

impl CachedPager {
    fn budget_frames(budget_bytes: Option<usize>) -> usize {
        let bytes = budget_bytes.unwrap_or_else(default_cache_budget);
        (bytes / PAGE_SIZE).max(MIN_FRAMES)
    }

    /// Create a fresh page file with the given byte budget (`None` means
    /// the process-wide `BENCHTEMP_PAGE_CACHE_MB` default).
    pub fn create(path: &std::path::Path, budget_bytes: Option<usize>) -> io::Result<Self> {
        Ok(CachedPager {
            inner: Mutex::new(Inner {
                pager: Pager::create(path)?,
                frames: Vec::new(),
                map: HashMap::new(),
                hand: 0,
                max_frames: Self::budget_frames(budget_bytes),
            }),
        })
    }

    /// Open a sealed page file of `num_pages` pages (from the manifest).
    pub fn open(
        path: &std::path::Path,
        budget_bytes: Option<usize>,
        num_pages: u64,
    ) -> io::Result<Self> {
        Ok(CachedPager {
            inner: Mutex::new(Inner {
                pager: Pager::open(path, num_pages)?,
                frames: Vec::new(),
                map: HashMap::new(),
                hand: 0,
                max_frames: Self::budget_frames(budget_bytes),
            }),
        })
    }

    /// Read access to one page. The closure must not re-enter the cache.
    pub fn with_page<R>(&self, page: PageId, f: impl FnOnce(&[u8]) -> R) -> io::Result<R> {
        let mut inner = self.inner.lock().expect("page cache poisoned");
        let fi = inner.frame_for(page)?;
        Ok(f(&inner.frames[fi].data))
    }

    /// Write access to one page; marks the frame dirty for write-back on
    /// eviction or [`CachedPager::flush`].
    pub fn with_page_mut<R>(&self, page: PageId, f: impl FnOnce(&mut [u8]) -> R) -> io::Result<R> {
        let mut inner = self.inner.lock().expect("page cache poisoned");
        let fi = inner.frame_for(page)?;
        inner.frames[fi].dirty = true;
        Ok(f(&mut inner.frames[fi].data))
    }

    pub fn alloc(&self) -> PageId {
        self.inner
            .lock()
            .expect("page cache poisoned")
            .pager
            .alloc()
    }

    /// Write back every dirty frame and sync the file.
    pub fn flush(&self) -> io::Result<()> {
        self.inner.lock().expect("page cache poisoned").flush()
    }

    /// Bytes currently held by cache frames (≤ budget by construction).
    pub fn resident_bytes(&self) -> usize {
        self.inner.lock().expect("page cache poisoned").frames.len() * PAGE_SIZE
    }

    /// Frame-count ceiling implied by the budget (test/bench introspection).
    pub fn max_frames(&self) -> usize {
        self.inner.lock().expect("page cache poisoned").max_frames
    }

    pub fn num_pages(&self) -> u64 {
        self.inner
            .lock()
            .expect("page cache poisoned")
            .pager
            .num_pages()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("benchtemp-cache-{}-{}", name, std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("pages.bin")
    }

    #[test]
    fn tiny_budget_evicts_and_preserves_data() {
        let path = tmp("evict");
        let cp = CachedPager::create(&path, Some(1)).unwrap(); // floor: MIN_FRAMES
        assert_eq!(cp.max_frames(), MIN_FRAMES);
        let pages: Vec<PageId> = (0..(MIN_FRAMES * 3)).map(|_| cp.alloc()).collect();
        let before = STORE_PAGE_EVICTIONS.get();
        for (i, &pg) in pages.iter().enumerate() {
            cp.with_page_mut(pg, |buf| buf[7] = i as u8).unwrap();
        }
        // Touching 3× the frame budget must have evicted (and written back
        // dirty victims); every page still reads its own byte.
        assert!(STORE_PAGE_EVICTIONS.get() > before);
        assert!(cp.resident_bytes() <= MIN_FRAMES * PAGE_SIZE);
        for (i, &pg) in pages.iter().enumerate() {
            let v = cp.with_page(pg, |buf| buf[7]).unwrap();
            assert_eq!(v, i as u8, "page {pg} lost its write");
        }
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn flush_persists_across_reopen() {
        let path = tmp("flush");
        let num_pages;
        {
            let cp = CachedPager::create(&path, Some(1 << 20)).unwrap();
            let pg = cp.alloc();
            cp.with_page_mut(pg, |buf| buf[0] = 42).unwrap();
            cp.flush().unwrap();
            num_pages = cp.num_pages();
        }
        let cp = CachedPager::open(&path, Some(1 << 20), num_pages).unwrap();
        assert_eq!(cp.with_page(0, |buf| buf[0]).unwrap(), 42);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }
}
