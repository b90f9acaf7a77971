//! The heap allocator substrate.
//!
//! A deliberately *fragile* first-fit free-list allocator with in-band
//! metadata, because the paper's detection-condition analysis (Sec. 2.5)
//! and evaluation (Sec. 3.7) depend on realistic allocator failure modes:
//!
//! * block headers live in heap memory immediately before each payload, so
//!   overflows can clobber them;
//! * free-list links are written *into freed payloads*, so reads after free
//!   observe allocator metadata ("many heap allocators store heap metadata
//!   in freed buffers");
//! * there is a minimum payload size and size-class rounding, so small
//!   heap-array-resize faults are masked by over-allocation (one reason the
//!   paper sees correct output despite successful injection);
//! * `free` validates the header magic: a double free or a free of a
//!   non-block pointer is *detected* (abort — natural detection) when the
//!   magic is recognisably wrong, and silently corrupts memory otherwise.

use crate::mem::{Mem, MemFault, HEAP_BASE};

/// Bytes of header preceding each payload.
pub const HEADER_BYTES: u64 = 16;
/// Minimum payload size in bytes (requests are rounded up to this).
pub const MIN_PAYLOAD: u64 = 24;
/// Payload alignment/rounding granularity.
pub const GRANULE: u64 = 8;

const MAGIC_ALLOC: u32 = 0xA110_CA7E;
const MAGIC_FREE: u32 = 0xF4EE_B10C;

/// Outcome of a `free` call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FreeOutcome {
    /// Block returned to the free list.
    Ok,
    /// The allocator's consistency checks fired (double free / invalid
    /// free) — the program aborts (natural detection).
    Abort(String),
    /// The free was invalid but slipped past the checks, corrupting
    /// memory (free-list metadata written through the bogus pointer).
    SilentCorruption,
}

/// Allocation statistics (used by the harness and tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Number of successful allocations.
    pub mallocs: u64,
    /// Number of successful frees.
    pub frees: u64,
    /// Total payload bytes handed out.
    pub bytes_allocated: u64,
    /// High-water mark of the heap break.
    pub peak_brk: u64,
}

/// First-fit free-list allocator over the heap region of a [`Mem`].
///
/// `Clone` captures the full allocator state (free-list head and counters);
/// together with a [`crate::mem::MemSnapshot`] of the heap it forms a
/// complete heap checkpoint, since all other allocator metadata lives
/// in-band inside heap memory.
#[derive(Debug, Clone)]
pub struct Allocator {
    free_head: Option<u64>,
    /// Statistics counters.
    pub stats: AllocStats,
}

impl Default for Allocator {
    fn default() -> Self {
        Self::new()
    }
}

impl Allocator {
    /// Creates an allocator with an empty free list.
    pub fn new() -> Allocator {
        Allocator {
            free_head: None,
            stats: AllocStats::default(),
        }
    }

    /// The payload size a request of `size` bytes gets, or `None` when
    /// that block (header included) would not fit the address space.
    fn round_payload(size: u64) -> Option<u64> {
        size.max(MIN_PAYLOAD)
            .checked_next_multiple_of(GRANULE)
            .filter(|want| want.checked_add(HEADER_BYTES).is_some())
    }

    /// Allocates `size` bytes; returns the payload address, or 0 (null)
    /// when the heap is exhausted or cannot hold `size` bytes at all.
    /// Fresh payloads are garbage-filled.
    ///
    /// # Errors
    /// Propagates a [`MemFault`] only when allocator metadata itself has
    /// been corrupted into pointing outside the heap (a realistic crash).
    pub fn malloc(&mut self, mem: &mut Mem, size: u64) -> Result<u64, MemFault> {
        let Some(want) = Self::round_payload(size) else {
            return Ok(0);
        };
        // First-fit scan of the free list.
        let mut prev: Option<u64> = None;
        let mut cur = self.free_head;
        let mut hops = 0u32;
        while let Some(payload) = cur {
            // A corrupted link can point anywhere; reading it may fault,
            // and a link below the heap base is itself a wild access.
            if payload < HEADER_BYTES {
                return Err(MemFault {
                    addr: payload,
                    kind: crate::mem::MemFaultKind::Unmapped,
                });
            }
            let header = payload - HEADER_BYTES;
            let bsize = mem.read_u64(header)?;
            let magic = mem.read_u32(header + 8)?;
            if magic != MAGIC_FREE {
                // Free list corrupted (e.g. a dangling write hit a freed
                // block). The allocator trips over it: crash.
                return Err(MemFault {
                    addr: header + 8,
                    kind: crate::mem::MemFaultKind::Unmapped,
                });
            }
            let next = mem.read_u64(payload)?;
            if bsize >= want {
                // Unlink.
                let next_opt = if next == 0 { None } else { Some(next) };
                match prev {
                    None => self.free_head = next_opt,
                    Some(p) => mem.write_u64(p, next)?,
                }
                // Split when the remainder can hold a block of its own.
                if bsize - want >= HEADER_BYTES + MIN_PAYLOAD {
                    let rem_payload = payload + want + HEADER_BYTES;
                    let rem_size = bsize - want - HEADER_BYTES;
                    mem.write_u64(rem_payload - HEADER_BYTES, rem_size)?;
                    mem.write_u32(rem_payload - HEADER_BYTES + 8, MAGIC_FREE)?;
                    mem.write_u64(rem_payload, self.free_head.unwrap_or(0))?;
                    self.free_head = Some(rem_payload);
                    mem.write_u64(header, want)?;
                }
                mem.write_u32(header + 8, MAGIC_ALLOC)?;
                let final_size = mem.read_u64(header)?;
                mem.garbage_fill(payload, final_size as usize)?;
                self.stats.mallocs += 1;
                self.stats.bytes_allocated += final_size;
                return Ok(payload);
            }
            prev = cur;
            cur = if next == 0 { None } else { Some(next) };
            hops += 1;
            if hops > 1_000_000 {
                // Cyclic corruption of the free list: the allocator hangs
                // in reality; we surface it as a crash.
                return Err(MemFault {
                    addr: payload,
                    kind: crate::mem::MemFaultKind::Unmapped,
                });
            }
        }
        // No fit: extend the break.
        let total = HEADER_BYTES + want;
        let Some(base) = mem.grow_heap(total as usize) else {
            return Ok(0); // out of memory -> null
        };
        let payload = base + HEADER_BYTES;
        mem.write_u64(base, want)?;
        mem.write_u32(base + 8, MAGIC_ALLOC)?;
        mem.write_u32(base + 12, 0)?;
        mem.garbage_fill(payload, want as usize)?;
        self.stats.mallocs += 1;
        self.stats.bytes_allocated += want;
        self.stats.peak_brk = self.stats.peak_brk.max(mem.brk() as u64);
        Ok(payload)
    }

    /// Frees the payload at `ptr`.
    ///
    /// Double frees and frees of pointers whose header looks wrong abort
    /// (the allocator's error checking detects the invalid free); frees of
    /// plausible-but-wrong pointers corrupt memory silently, mirroring the
    /// paper's free-error behaviours (Sec. 2.5.3).
    pub fn free(&mut self, mem: &mut Mem, ptr: u64) -> FreeOutcome {
        if ptr == 0 {
            return FreeOutcome::Ok; // free(NULL) is a no-op.
        }
        if ptr < HEAP_BASE + HEADER_BYTES {
            return FreeOutcome::Abort(format!("free of non-heap pointer {ptr:#x}"));
        }
        let header = ptr - HEADER_BYTES;
        let Ok(magic) = mem.read_u32(header + 8) else {
            return FreeOutcome::Abort(format!("free of unmapped pointer {ptr:#x}"));
        };
        if magic == MAGIC_FREE {
            return FreeOutcome::Abort(format!("double free of {ptr:#x}"));
        }
        if magic != MAGIC_ALLOC {
            // Not a block start. Half the time the allocator notices and
            // aborts; otherwise it pushes the bogus "block" onto the free
            // list, writing metadata through the pointer (corruption).
            if mem.coin(ptr) {
                return FreeOutcome::Abort(format!("invalid free of {ptr:#x}"));
            }
            let head = self.free_head.unwrap_or(0);
            let _ = mem.write_u64(header, MIN_PAYLOAD);
            let _ = mem.write_u32(header + 8, MAGIC_FREE);
            let _ = mem.write_u64(ptr, head);
            self.free_head = Some(ptr);
            return FreeOutcome::SilentCorruption;
        }
        // Valid free: mark free, thread onto the free list (LIFO), writing
        // the link into the payload.
        if mem.write_u32(header + 8, MAGIC_FREE).is_err() {
            return FreeOutcome::Abort(format!("free of unmapped pointer {ptr:#x}"));
        }
        let head = self.free_head.unwrap_or(0);
        let _ = mem.write_u64(ptr, head);
        self.free_head = Some(ptr);
        self.stats.frees += 1;
        FreeOutcome::Ok
    }

    /// Usable payload size of a live block (the `heapBufSize` runtime call
    /// used by zero-before-free, Table 2.8). Reads the in-band header; a
    /// corrupted header yields a corrupted size, as in reality.
    ///
    /// # Errors
    /// Faults if the header is unmapped.
    pub fn buf_size(&self, mem: &Mem, ptr: u64) -> Result<u64, MemFault> {
        if ptr < HEADER_BYTES {
            return Err(MemFault {
                addr: ptr,
                kind: crate::mem::MemFaultKind::Unmapped,
            });
        }
        mem.read_u64(ptr - HEADER_BYTES)
    }

    /// Head of the free list, if any (introspection for tests).
    pub fn free_head(&self) -> Option<u64> {
        self.free_head
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemConfig;

    fn setup() -> (Mem, Allocator) {
        let mem = Mem::new(&MemConfig {
            heap_capacity: 1 << 20,
            ..MemConfig::default()
        });
        (mem, Allocator::new())
    }

    #[test]
    fn malloc_returns_distinct_mapped_payloads() {
        let (mut mem, mut a) = setup();
        let p1 = a.malloc(&mut mem, 10).unwrap();
        let p2 = a.malloc(&mut mem, 10).unwrap();
        assert_ne!(p1, p2);
        assert!(mem.read(p1, 10).is_ok());
        assert!(mem.read(p2, 10).is_ok());
    }

    #[test]
    fn small_requests_are_rounded_up() {
        // The paper's example: a 16-byte request still gets >= 24 bytes, so
        // a heap-array-resize from 24 to 16 bytes is benign.
        let (mut mem, mut a) = setup();
        let p = a.malloc(&mut mem, 16).unwrap();
        assert_eq!(a.buf_size(&mem, p).unwrap(), MIN_PAYLOAD);
        assert!(mem.read(p, MIN_PAYLOAD as usize).is_ok());
    }

    #[test]
    fn free_then_malloc_reuses_lifo() {
        let (mut mem, mut a) = setup();
        let p1 = a.malloc(&mut mem, 32).unwrap();
        let _p2 = a.malloc(&mut mem, 32).unwrap();
        assert_eq!(a.free(&mut mem, p1), FreeOutcome::Ok);
        let p3 = a.malloc(&mut mem, 32).unwrap();
        assert_eq!(p3, p1, "LIFO reuse of the freed block");
    }

    #[test]
    fn double_free_aborts() {
        let (mut mem, mut a) = setup();
        let p = a.malloc(&mut mem, 32).unwrap();
        assert_eq!(a.free(&mut mem, p), FreeOutcome::Ok);
        assert!(matches!(a.free(&mut mem, p), FreeOutcome::Abort(_)));
    }

    #[test]
    fn freed_payload_contains_allocator_metadata() {
        let (mut mem, mut a) = setup();
        let p1 = a.malloc(&mut mem, 32).unwrap();
        let p2 = a.malloc(&mut mem, 32).unwrap();
        a.free(&mut mem, p1);
        a.free(&mut mem, p2);
        // p2's payload now holds the link to p1.
        assert_eq!(mem.read_u64(p2).unwrap(), p1);
    }

    #[test]
    fn invalid_free_aborts_or_corrupts() {
        let (mut mem, mut a) = setup();
        let p = a.malloc(&mut mem, 64).unwrap();
        // Free a pointer into the middle of the buffer.
        let out = a.free(&mut mem, p + 8);
        assert!(
            matches!(out, FreeOutcome::Abort(_) | FreeOutcome::SilentCorruption),
            "out-of-bounds free must either abort or corrupt"
        );
    }

    #[test]
    fn splitting_leaves_usable_remainder() {
        let (mut mem, mut a) = setup();
        let big = a.malloc(&mut mem, 256).unwrap();
        a.free(&mut mem, big);
        let small = a.malloc(&mut mem, 32).unwrap();
        assert_eq!(small, big, "first-fit reuses the block front");
        let rest = a.malloc(&mut mem, 64).unwrap();
        assert!(rest > small && rest < big + 256 + HEADER_BYTES);
    }

    #[test]
    fn exhaustion_returns_null() {
        let mut mem = Mem::new(&MemConfig {
            heap_capacity: 256,
            ..MemConfig::default()
        });
        let mut a = Allocator::new();
        let p1 = a.malloc(&mut mem, 128).unwrap();
        assert_ne!(p1, 0);
        let p2 = a.malloc(&mut mem, 512).unwrap();
        assert_eq!(p2, 0, "exhausted heap yields null");
    }

    #[test]
    fn buf_size_reads_header() {
        let (mut mem, mut a) = setup();
        let p = a.malloc(&mut mem, 100).unwrap();
        assert_eq!(a.buf_size(&mem, p).unwrap(), 104); // rounded to 8
    }

    #[test]
    fn stats_track_activity() {
        let (mut mem, mut a) = setup();
        let p = a.malloc(&mut mem, 10).unwrap();
        a.free(&mut mem, p);
        assert_eq!(a.stats.mallocs, 1);
        assert_eq!(a.stats.frees, 1);
        assert!(a.stats.bytes_allocated >= 24);
    }
}
