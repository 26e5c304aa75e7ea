//! Seeded bug: a zero-alloc-pinned sampler that quietly allocates one
//! helper away — the counting-allocator test only exercises one warm
//! shape, so only reachability analysis sees every path.

pub struct NeighborBackend {
    history: Vec<u32>,
}

impl NeighborBackend {
    /// Pinned zero-alloc by the counting-allocator tests (by name).
    pub fn sample_into(&self, out: &mut [u32]) {
        let picked = self.pick_recent(out.len());
        out.copy_from_slice(&picked);
        let _warmed = self.warm();
    }

    /// The hidden allocation: `.to_vec()` on every call.
    fn pick_recent(&self, n: usize) -> Vec<u32> {
        self.history[..n].to_vec()
    }

    /// A second reachable allocation, waived — proving line waivers
    /// apply to the interprocedural rules exactly as to the token ones.
    fn warm(&self) -> Vec<u32> {
        // audit-allow(hot-path-alloc-reachability): fixture self-test — cold warm-up path
        self.history.to_vec()
    }
}
