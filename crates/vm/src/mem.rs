//! Simulated byte-addressable address space.
//!
//! A single flat 64-bit address space with three mapped regions — global
//! variables, heap, and stack — separated by large unmapped gaps. Accesses
//! outside mapped regions trap, which is the VM's model of a hardware
//! memory fault (the "crash" form of the paper's *natural detection*,
//! Sec. 3.6). Accesses *inside* mapped regions always succeed, so memory
//! errors that stay within mapped memory silently corrupt state — exactly
//! the behaviour DPMR exists to detect.
//!
//! Freshly allocated memory (heap blocks, stack frames) is filled with
//! deterministic pseudo-random garbage derived from a per-run seed, so
//! uninitialized reads return arbitrary values that differ between an
//! application object and its replica (the data-diversity effect DieHard
//! and DPMR both rely on for uninitialized-read detection).

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Base address of the global-variable region.
pub const GLOBAL_BASE: u64 = 0x0001_0000;
/// Base address of the heap region.
pub const HEAP_BASE: u64 = 0x1000_0000;
/// Base address of the stack region (grows upward).
pub const STACK_BASE: u64 = 0x7000_0000;
/// Every mapped address lies below this bound (asserted in [`Mem::new`]),
/// so the interpreter's cache model keeps the tag of any mapped line
/// (`addr >> 18`) below `u16::MAX`.
pub const MAPPED_LIMIT: u64 = 0xFFFF << 18;

/// One of the three mapped regions of the address space, as a value —
/// used by the runtime fault models ([`crate::fault`]) to constrain
/// per-region corruption classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemRegion {
    /// Global-variable region.
    Globals,
    /// Heap region (mapped up to the allocator break).
    Heap,
    /// Stack region.
    Stack,
}

impl MemRegion {
    /// Display name used in fault-class labels.
    pub fn name(self) -> &'static str {
        match self {
            MemRegion::Globals => "globals",
            MemRegion::Heap => "heap",
            MemRegion::Stack => "stack",
        }
    }
}

/// Why a memory access trapped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemFaultKind {
    /// Dereference in the protected null page (`addr < 0x1000`).
    NullPage,
    /// Address not inside any mapped region.
    Unmapped,
    /// Stack exhausted while pushing a frame.
    StackOverflow,
}

/// A trapped memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemFault {
    /// Faulting address.
    pub addr: u64,
    /// Fault class.
    pub kind: MemFaultKind,
}

impl fmt::Display for MemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?} at address {:#x}", self.kind, self.addr)
    }
}

impl std::error::Error for MemFault {}

/// Sizing and seeding of the address space.
#[derive(Debug, Clone)]
pub struct MemConfig {
    /// Capacity of the global region in bytes.
    pub global_capacity: usize,
    /// Capacity of the heap region in bytes.
    pub heap_capacity: usize,
    /// Capacity of the stack region in bytes.
    pub stack_capacity: usize,
    /// Seed for the garbage fill of fresh allocations.
    pub fill_seed: u64,
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig {
            global_capacity: 1 << 20,
            heap_capacity: 64 << 20,
            stack_capacity: 4 << 20,
            fill_seed: 0x5eed_0001,
        }
    }
}

enum Region {
    Global,
    Heap,
    Stack,
}

/// A point-in-time copy of the mapped portions of an address space
/// (see [`Mem::snapshot`]). Cheap relative to the configured capacities:
/// only bytes below the current global length, heap break, and stack
/// pointer are copied.
#[derive(Debug, Clone)]
pub struct MemSnapshot {
    globals: Vec<u8>,
    globals_len: usize,
    heap: Vec<u8>,
    brk: usize,
    stack: Vec<u8>,
    sp: usize,
    fill_seed: u64,
}

impl MemSnapshot {
    /// Total bytes captured (checkpoint-size accounting).
    pub fn captured_bytes(&self) -> usize {
        self.globals.len() + self.heap.len() + self.stack.len()
    }
}

/// Region usage at a point in time (see [`Mem::usage`]): the simulated
/// footprint numbers telemetry reports alongside per-site profiles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemUsage {
    /// Mapped heap bytes (allocator break).
    pub heap_brk: usize,
    /// Allocated global-region bytes.
    pub globals_len: usize,
    /// Largest written stack offset on this timeline.
    pub stack_high_water: usize,
}

/// The simulated memory.
pub struct Mem {
    globals: Vec<u8>,
    globals_len: usize,
    heap: Vec<u8>,
    brk: usize,
    stack: Vec<u8>,
    sp: usize,
    /// High-water mark of stack-region writes. The stack is mapped to its
    /// full capacity regardless of `sp`, but everything at or above this
    /// offset is still all-zero.
    stack_hw: usize,
    /// End of the highest frame [`Mem::stack_alloc`] garbage-filled on
    /// this timeline (or of the prefix a restore copied in): every page
    /// below it was written, so it is re-zeroed whole, and a write that
    /// ends at or below it has nothing to record. It never exceeds
    /// `stack_hw`, so skipping those writes leaves that mark exact.
    frame_hw: usize,
    /// One bit per [`STACK_PAGE`] bytes of the stack region, set for every
    /// page a write above `frame_hw` reached. Every nonzero stack byte
    /// lies below `frame_hw` or in a dirty page below `stack_hw`, so
    /// buffer recycling and checkpoint restores re-zero only those: a
    /// stray write near the top of the stack costs one page, not a
    /// memset up to it.
    stack_dirty: Vec<u64>,
    fill_seed: u64,
}

/// Granularity of the stack region's dirty tracking (a host page: zeroing
/// a page nobody wrote would fault it in).
const STACK_PAGE: usize = 4096;

/// The region buffers of one address space, recycled through a
/// thread-local pool: zeroing them on release costs time proportional to
/// the bytes actually dirtied, while fresh ones cost a new mapping and a
/// page fault per page first touched (once a full memset of the
/// configured capacities, hundreds of microseconds — which dominated
/// short trial runs, since campaigns build one interpreter per trial).
/// Pooled buffers are all-zero, dirty bitmap included.
struct RegionBufs {
    globals: Vec<u8>,
    heap: Vec<u8>,
    stack: Vec<u8>,
    stack_dirty: Vec<u64>,
}

thread_local! {
    static BUF_POOL: std::cell::RefCell<Vec<RegionBufs>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Address spaces kept per thread for reuse (one per simultaneously live
/// interpreter is plenty; excess buffers just drop).
const BUF_POOL_KEEP: usize = 4;

impl Drop for Mem {
    fn drop(&mut self) {
        // Writes cannot land above the global length / heap break, nor on
        // the stack outside the frame prefix and the dirty pages, so
        // zeroing those restores the fresh-buffer state exactly.
        self.globals[..self.globals_len].fill(0);
        self.heap[..self.brk].fill(0);
        self.wipe_stack_above(0);
        let bufs = RegionBufs {
            globals: std::mem::take(&mut self.globals),
            heap: std::mem::take(&mut self.heap),
            stack: std::mem::take(&mut self.stack),
            stack_dirty: std::mem::take(&mut self.stack_dirty),
        };
        // Ignore a torn-down TLS pool (thread exit): buffers just drop.
        let _ = BUF_POOL.try_with(|p| {
            let mut p = p.borrow_mut();
            if p.len() < BUF_POOL_KEEP {
                p.push(bufs);
            }
        });
    }
}

impl fmt::Debug for Mem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Mem {{ globals: {}, brk: {}, sp: {} }}",
            self.globals_len, self.brk, self.sp
        )
    }
}

impl Mem {
    /// Creates an address space from a configuration, reusing a recycled
    /// set of region buffers when one of matching capacities is pooled
    /// (recycled buffers are re-zeroed on release, so a pooled space is
    /// indistinguishable from a fresh one).
    ///
    /// # Panics
    /// Panics when a capacity would let one region reach into the next:
    /// globals, heap and stack must stay ordered and disjoint, which is
    /// what lets every access pick an address's one candidate region
    /// by its base alone. Panics too unless the stack ends below
    /// [`MAPPED_LIMIT`].
    pub fn new(cfg: &MemConfig) -> Mem {
        assert!(
            cfg.global_capacity as u64 <= HEAP_BASE - GLOBAL_BASE
                && cfg.heap_capacity as u64 <= STACK_BASE - HEAP_BASE,
            "region capacities overlap the next region's base: {cfg:?}"
        );
        assert!(
            (cfg.stack_capacity as u64) < MAPPED_LIMIT - STACK_BASE,
            "stack capacity reaches the mapped-address limit: {cfg:?}"
        );
        let reused = BUF_POOL
            .try_with(|p| {
                let mut p = p.borrow_mut();
                p.iter()
                    .position(|b| {
                        b.globals.len() == cfg.global_capacity
                            && b.heap.len() == cfg.heap_capacity
                            && b.stack.len() == cfg.stack_capacity
                    })
                    .map(|i| p.swap_remove(i))
            })
            .ok()
            .flatten();
        let bufs = reused.unwrap_or_else(|| RegionBufs {
            globals: zeroed_region(cfg.global_capacity),
            heap: zeroed_region(cfg.heap_capacity),
            stack: zeroed_region(cfg.stack_capacity),
            stack_dirty: vec![0; cfg.stack_capacity.div_ceil(STACK_PAGE).div_ceil(64)],
        });
        Mem {
            globals: bufs.globals,
            globals_len: 0,
            heap: bufs.heap,
            brk: 0,
            stack: bufs.stack,
            sp: 0,
            stack_hw: 0,
            frame_hw: 0,
            stack_dirty: bufs.stack_dirty,
            fill_seed: cfg.fill_seed,
        }
    }

    /// Zeroes every stack byte at or above `from` that may be nonzero —
    /// the frame prefix and the dirty pages' bytes below `stack_hw` — and
    /// clears every dirty bit. Pages nobody wrote are never touched, so
    /// they stay unmapped on the host.
    fn wipe_stack_above(&mut self, from: usize) {
        let frames = self.frame_hw.max(from);
        self.stack[from..frames].fill(0);
        for (w, word) in self.stack_dirty.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let page = (w * 64 + bits.trailing_zeros() as usize) * STACK_PAGE;
                bits &= bits - 1;
                let (lo, hi) = (page.max(frames), (page + STACK_PAGE).min(self.stack_hw));
                if lo < hi {
                    self.stack[lo..hi].fill(0);
                }
            }
        }
    }

    fn locate(&self, addr: u64, len: usize) -> Result<(Region, usize), MemFault> {
        if addr < 0x1000 {
            return Err(MemFault {
                addr,
                kind: MemFaultKind::NullPage,
            });
        }
        // The regions are ordered and disjoint (asserted in `Mem::new`),
        // so an address can only lie in the last region based at or
        // below it.
        let (region, base, size) = if addr >= STACK_BASE {
            (Region::Stack, STACK_BASE, self.stack.len())
        } else if addr >= HEAP_BASE {
            (Region::Heap, HEAP_BASE, self.brk)
        } else {
            (Region::Global, GLOBAL_BASE, self.globals_len)
        };
        match region_offset(addr, len, base, size) {
            Some(off) => Ok((region, off)),
            None => Err(MemFault {
                addr,
                kind: MemFaultKind::Unmapped,
            }),
        }
    }

    /// The mapped region a byte address falls in (`None` when unmapped).
    /// Fault models use this to constrain region-classed corruption; it
    /// mirrors [`Mem::read`]'s mapping rules for a 1-byte access.
    pub fn region_of(&self, addr: u64) -> Option<MemRegion> {
        match self.locate(addr, 1) {
            Ok((Region::Global, _)) => Some(MemRegion::Globals),
            Ok((Region::Heap, _)) => Some(MemRegion::Heap),
            Ok((Region::Stack, _)) => Some(MemRegion::Stack),
            Err(_) => None,
        }
    }

    /// Bytes of the global region currently allocated.
    pub fn globals_len(&self) -> usize {
        self.globals_len
    }

    /// Point-in-time region usage (telemetry/profile reporting): bytes
    /// mapped or touched per region. `stack_high_water` is the largest
    /// written stack offset seen on this timeline — a deterministic
    /// footprint measure, like everything else derived from the VM.
    pub fn usage(&self) -> MemUsage {
        MemUsage {
            heap_brk: self.brk,
            globals_len: self.globals_len,
            stack_high_water: self.stack_hw,
        }
    }

    /// Configured capacity of the stack region (fully mapped).
    pub fn stack_size(&self) -> usize {
        self.stack.len()
    }

    /// Reads `len` bytes at `addr`.
    ///
    /// # Errors
    /// Traps if the range is not fully mapped.
    #[inline]
    pub fn read(&self, addr: u64, len: usize) -> Result<&[u8], MemFault> {
        // The one candidate region, then one bounds check of the range
        // against its mapped bytes (see `span`).
        let got = if addr >= STACK_BASE {
            self.stack.get(span(addr, STACK_BASE, len))
        } else if addr >= HEAP_BASE {
            mapped(&self.heap, self.brk).get(span(addr, HEAP_BASE, len))
        } else {
            mapped(&self.globals, self.globals_len).get(span(addr, GLOBAL_BASE, len))
        };
        got.ok_or_else(|| self.fault(addr, len))
    }

    /// Writes bytes at `addr`.
    ///
    /// # Errors
    /// Traps if the range is not fully mapped.
    #[inline]
    pub fn write(&mut self, addr: u64, bytes: &[u8]) -> Result<(), MemFault> {
        let len = bytes.len();
        let got = if addr >= STACK_BASE {
            let range = span(addr, STACK_BASE, len);
            let end = range.end;
            let got = self.stack.get_mut(range);
            if got.is_some() && end > self.frame_hw {
                note_stack_write(&mut self.stack_hw, &mut self.stack_dirty, end - len, end);
            }
            got
        } else if addr >= HEAP_BASE {
            mapped_mut(&mut self.heap, self.brk).get_mut(span(addr, HEAP_BASE, len))
        } else {
            mapped_mut(&mut self.globals, self.globals_len).get_mut(span(addr, GLOBAL_BASE, len))
        };
        match got {
            Some(dst) => {
                dst.copy_from_slice(bytes);
                Ok(())
            }
            None => Err(self.fault(addr, len)),
        }
    }

    /// Why an access that [`Mem::read`] or [`Mem::write`] rejected
    /// faults: null page or unmapped, as [`Mem::locate`] classifies it.
    #[cold]
    #[inline(never)]
    fn fault(&self, addr: u64, len: usize) -> MemFault {
        self.locate(addr, len).err().unwrap_or(MemFault {
            addr,
            kind: MemFaultKind::Unmapped,
        })
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    /// Traps if unmapped.
    pub fn read_u64(&self, addr: u64) -> Result<u64, MemFault> {
        let b = self.read(addr, 8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Writes a little-endian `u64`.
    ///
    /// # Errors
    /// Traps if unmapped.
    pub fn write_u64(&mut self, addr: u64, v: u64) -> Result<(), MemFault> {
        self.write(addr, &v.to_le_bytes())
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    /// Traps if unmapped.
    pub fn read_u32(&self, addr: u64) -> Result<u32, MemFault> {
        let b = self.read(addr, 4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Writes a little-endian `u32`.
    ///
    /// # Errors
    /// Traps if unmapped.
    pub fn write_u32(&mut self, addr: u64, v: u32) -> Result<(), MemFault> {
        self.write(addr, &v.to_le_bytes())
    }

    /// Allocates `size` bytes in the global region (bump allocation,
    /// 16-byte aligned). Returns the address, or `None` when the rest of
    /// the region cannot hold `size` bytes.
    pub fn alloc_global(&mut self, size: u64) -> Option<u64> {
        let off = self.globals_len.next_multiple_of(16);
        let end = usize::try_from(size).ok()?.checked_add(off)?;
        if end > self.globals.len() {
            return None;
        }
        self.globals_len = end;
        Some(GLOBAL_BASE + off as u64)
    }

    /// Current stack pointer offset (frame save/restore token).
    pub fn stack_mark(&self) -> usize {
        self.sp
    }

    /// Restores the stack pointer to a previous mark (frame pop).
    pub fn stack_release(&mut self, mark: usize) {
        self.sp = mark;
    }

    /// Allocates `size` bytes on the stack (within the current frame),
    /// 16-byte aligned, garbage-filled.
    ///
    /// # Errors
    /// Traps with [`MemFaultKind::StackOverflow`] when the stack region is
    /// exhausted, however large `size` is.
    pub fn stack_alloc(&mut self, size: u64) -> Result<u64, MemFault> {
        let off = self.sp.next_multiple_of(16);
        let end = usize::try_from(size)
            .ok()
            .and_then(|n| off.checked_add(n))
            .filter(|&end| end <= self.stack.len());
        let Some(end) = end else {
            return Err(MemFault {
                addr: STACK_BASE + off as u64,
                kind: MemFaultKind::StackOverflow,
            });
        };
        self.sp = end;
        let addr = STACK_BASE + off as u64;
        self.garbage_fill(addr, size as usize)
            .expect("fresh stack range is mapped");
        self.frame_hw = self.frame_hw.max(end);
        Ok(addr)
    }

    /// Mapped heap length (allocator break).
    pub fn brk(&self) -> usize {
        self.brk
    }

    /// Extends the mapped heap by `grow` bytes.
    ///
    /// Returns the previous break address, or `None` when the heap
    /// capacity is exhausted (malloc will return null).
    pub fn grow_heap(&mut self, grow: usize) -> Option<u64> {
        if self
            .brk
            .checked_add(grow)
            .is_none_or(|end| end > self.heap.len())
        {
            return None;
        }
        let addr = HEAP_BASE + self.brk as u64;
        self.brk += grow;
        Some(addr)
    }

    /// Fills `[addr, addr+len)` with deterministic pseudo-random garbage.
    ///
    /// # Errors
    /// Traps if the range is unmapped.
    pub fn garbage_fill(&mut self, addr: u64, len: usize) -> Result<(), MemFault> {
        // Fill the mapped region in place (every fresh allocation pays
        // this, so the old temp-buffer-then-`write` shape — a zeroed
        // heap vec plus a second copy — was pure overhead). The stream
        // is a pure function of its seed, so [`memo_garbage_bytes`]
        // copies it when this thread generated it before and runs
        // [`garbage_bytes`] otherwise: bit-identical to the original
        // single-chain xorshift64*, seeded exactly as before.
        let x = self.stream_seed(addr);
        memo_garbage_bytes(x, self.mapped_range(addr, len)?);
        Ok(())
    }

    /// The seed of the garbage stream a fill starting at `addr` writes.
    fn stream_seed(&self, addr: u64) -> u64 {
        self.fill_seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(addr | 1)
    }

    /// Sets every byte of `[addr, addr+len)` to `byte` (the `memset`
    /// externals). The range is checked before anything is touched, so a
    /// length no region could hold traps without allocating.
    ///
    /// # Errors
    /// Traps if the range is not fully mapped.
    pub fn fill(&mut self, addr: u64, len: usize, byte: u8) -> Result<(), MemFault> {
        self.mapped_range(addr, len)?.fill(byte);
        Ok(())
    }

    /// The mapped bytes `[addr, addr+len)`, writable; a stack range is
    /// recorded like a [`Mem::write`].
    fn mapped_range(&mut self, addr: u64, len: usize) -> Result<&mut [u8], MemFault> {
        let (r, off) = self.locate(addr, len)?;
        let buf = match r {
            Region::Global => &mut self.globals,
            Region::Heap => &mut self.heap,
            Region::Stack => {
                if off + len > self.frame_hw {
                    note_stack_write(&mut self.stack_hw, &mut self.stack_dirty, off, off + len);
                }
                &mut self.stack
            }
        };
        Ok(&mut buf[off..off + len])
    }

    /// Captures the mapped state of the address space. Only the live
    /// prefixes (globals up to their length, heap up to the break, stack up
    /// to the stack pointer) are copied; memory above those marks is
    /// unreachable until re-mapped, and re-mapping always garbage-fills.
    pub fn snapshot(&self) -> MemSnapshot {
        MemSnapshot {
            globals: self.globals[..self.globals_len].to_vec(),
            globals_len: self.globals_len,
            heap: self.heap[..self.brk].to_vec(),
            brk: self.brk,
            stack: self.stack[..self.sp].to_vec(),
            sp: self.sp,
            fill_seed: self.fill_seed,
        }
    }

    /// Restores a snapshot taken from an address space with the same
    /// configured capacities: all mapped contents, region marks, and the
    /// garbage-fill seed return to their captured values.
    ///
    /// # Panics
    /// Panics if the snapshot does not fit this address space's capacities
    /// (snapshots are only portable between identically sized spaces).
    pub fn restore(&mut self, snap: &MemSnapshot) {
        assert!(
            snap.globals_len <= self.globals.len()
                && snap.brk <= self.heap.len()
                && snap.sp <= self.stack.len(),
            "snapshot from a larger address space"
        );
        // A restore can shrink the mapped marks (rolling back past later
        // growth). Bytes between the restored mark and the old one become
        // unmapped — invisible to this run — but the drop-time re-zeroing
        // that keeps the recycled-buffer pool clean only covers the
        // *final* marks, so wipe the un-mapped residue here.
        self.globals[snap.globals_len..self.globals_len.max(snap.globals_len)].fill(0);
        self.globals[..snap.globals_len].copy_from_slice(&snap.globals);
        self.globals_len = snap.globals_len;
        self.heap[snap.brk..self.brk.max(snap.brk)].fill(0);
        self.heap[..snap.brk].copy_from_slice(&snap.heap);
        self.brk = snap.brk;
        self.stack[..snap.sp].copy_from_slice(&snap.stack);
        // Unlike globals and heap, the whole stack region is mapped
        // regardless of the stack pointer, so residue from the aborted
        // attempt above `sp` would be observable (e.g. by a stale pointer
        // into a released frame). Zero it: that is exactly the fresh-run
        // state for a run-boundary checkpoint, keeping replays
        // bit-identical to a fresh run. Afterwards only the copied prefix
        // can be nonzero, so it becomes the frame prefix.
        self.wipe_stack_above(snap.sp);
        self.frame_hw = snap.sp;
        self.stack_hw = snap.sp;
        self.sp = snap.sp;
        self.fill_seed = snap.fill_seed;
    }

    /// Replaces the garbage-fill seed. Used by recovery retries to give a
    /// re-execution a *diverse* environment: allocations made after the
    /// restore see different garbage (and different rearrange-heap draws
    /// come from the interpreter's reseeded RNG).
    pub fn set_fill_seed(&mut self, seed: u64) {
        self.fill_seed = seed;
    }

    /// Deterministic coin flip derived from the fill seed and an address
    /// (used by the allocator to decide crash-vs-corrupt on invalid frees).
    pub fn coin(&self, addr: u64) -> bool {
        let mut x = self.fill_seed ^ addr.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 33;
        x & 1 == 1
    }
}

/// Smallest allocation behind a fresh region buffer: above the largest
/// size glibc's malloc ever serves from its arenas (its mmap threshold
/// adapts upward to the size of freed mappings, up to 32 MiB on 64-bit
/// hosts, and a thread arena's heap is at most 64 MiB).
const FRESH_MAP_BYTES: usize = 64 << 20;

/// A zeroed region buffer of `len` bytes whose pages become resident only
/// when written.
///
/// A zeroed allocation the host allocator serves by mapping fresh pages
/// costs nothing until touched, but one it recycles from an arena is
/// memset in full. Which of the two a 1 MiB globals or 4 MiB stack buffer
/// got depended on what the process had freed before, so peak resident
/// memory moved by megabytes from one run of the same work to the next.
/// Allocating at least [`FRESH_MAP_BYTES`] and keeping only `len` makes
/// it always a fresh mapping; the untouched tail is never paged in.
fn zeroed_region(len: usize) -> Vec<u8> {
    let mut buf = vec![0; len.max(FRESH_MAP_BYTES)];
    buf.truncate(len);
    buf
}

/// Records a write to stack bytes `[start, end)` that ends above the
/// frame prefix: it raises the high-water mark `hw` and marks the pages
/// it reached in `dirty`. Out of line and cold, because nearly every
/// stack write lands in a frame: those pay one compare, and the store
/// path stays small enough to inline.
#[cold]
#[inline(never)]
fn note_stack_write(hw: &mut usize, dirty: &mut [u64], start: usize, end: usize) {
    *hw = (*hw).max(end);
    if start < end {
        for page in start / STACK_PAGE..=(end - 1) / STACK_PAGE {
            dirty[page / 64] |= 1 << (page % 64);
        }
    }
}

/// Offset of `[addr, addr + len)` in the region mapped at `base` with
/// `size` bytes, when the whole range lies inside it. The bound is
/// checked on `addr - base`, never on `addr + len`, which a faulted
/// address near `u64::MAX` would wrap past it.
#[inline]
fn region_offset(addr: u64, len: usize, base: u64, size: usize) -> Option<usize> {
    let off = usize::try_from(addr.checked_sub(base)?).ok()?;
    (off <= size && len <= size - off).then_some(off)
}

/// The byte range `[addr, addr + len)` at its offset from `base`. The
/// offset wraps below `base` and the end wraps past `usize::MAX`, and
/// either makes a range no slice `get` accepts, so one `get` is the
/// whole bounds check.
#[inline(always)]
fn span(addr: u64, base: u64, len: usize) -> std::ops::Range<usize> {
    let off = usize::try_from(addr.wrapping_sub(base)).unwrap_or(usize::MAX);
    off..off.wrapping_add(len)
}

/// The mapped prefix of a region buffer (`len` never exceeds it).
#[inline(always)]
fn mapped(buf: &[u8], len: usize) -> &[u8] {
    buf.get(..len).unwrap_or_default()
}

/// [`mapped`], writable.
#[inline(always)]
fn mapped_mut(buf: &mut [u8], len: usize) -> &mut [u8] {
    buf.get_mut(..len).unwrap_or_default()
}

/// One xorshift64 state advance (the linear half of the garbage stream;
/// the multiplying output step lives in [`xs_out`]).
#[inline]
fn xs_step(mut x: u64) -> u64 {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    x
}

/// The xorshift64* output byte for a state (top byte of the multiplied
/// state — the nonlinear step, applied per output and never fed back).
#[inline]
fn xs_out(x: u64) -> u8 {
    (x.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 56) as u8
}

/// Writes the garbage stream seeded by `x0` into `dst`: advance the
/// xorshift64 state, emit its output byte, repeat. This serial loop
/// defines the stream. It is latency-bound, but fills average about a
/// hundred bytes and [`memo_garbage_bytes`] serves most filled bytes as
/// copies, so it stays serial: generating four stripes in lock-step
/// from GF(2) jump tables saved at most 0.6% per unit and cost 0.5 MiB
/// of tables per process (DESIGN.md, "What the handler ids measured").
fn garbage_bytes(x0: u64, dst: &mut [u8]) {
    let mut x = x0;
    for b in dst {
        x = xs_step(x);
        *b = xs_out(x);
    }
}

/// Bytes of garbage a thread keeps for reuse ([`GarbageMemo`]).
const MEMO_ARENA_BYTES: usize = 128 << 10;

/// Streams a thread keeps for reuse ([`GarbageMemo`]).
const MEMO_ENTRIES: usize = 4096;

/// Garbage streams this thread generated, by seed. A campaign re-runs
/// the same program under the same fill seed trial after trial, so its
/// allocations keep landing on the same addresses and asking for the same
/// streams; the stream is a pure function of its seed, so a copy of a
/// prefix generated earlier is exact. Append-only: everything is dropped
/// at once when the arena or the entry cap fills.
struct GarbageMemo {
    arena: Vec<u8>,
    /// Seed -> (offset, length) of its longest stream in `arena`.
    spans: HashMap<u64, (u32, u32), BuildHasherDefault<SeedHasher>>,
}

thread_local! {
    static GARBAGE_MEMO: RefCell<GarbageMemo> = const {
        RefCell::new(GarbageMemo {
            arena: Vec::new(),
            spans: HashMap::with_hasher(BuildHasherDefault::new()),
        })
    };
}

/// Hashes a memo seed with one multiply: seeds differ mostly in their low
/// bits (they are addresses plus a constant), which the multiply carries
/// into its high bits, and the rotation brings those down to the low
/// bits the table picks its bucket by.
#[derive(Default)]
struct SeedHasher(u64);

impl Hasher for SeedHasher {
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

/// [`garbage_bytes`] through this thread's [`GarbageMemo`]. A fill larger
/// than the arena, or on a thread whose locals are gone, is generated
/// directly.
fn memo_garbage_bytes(x0: u64, dst: &mut [u8]) {
    if dst.len() > MEMO_ARENA_BYTES
        || GARBAGE_MEMO
            .try_with(|m| m.borrow_mut().fill(x0, dst))
            .is_err()
    {
        garbage_bytes(x0, dst);
    }
}

impl GarbageMemo {
    /// Writes the stream seeded by `x0` into `dst` (at most
    /// [`MEMO_ARENA_BYTES`] long), copying it when `x0` is held at least
    /// that long and generating and recording it otherwise.
    fn fill(&mut self, x0: u64, dst: &mut [u8]) {
        let len = dst.len();
        if let Some(&(off, n)) = self.spans.get(&x0) {
            if len <= n as usize {
                dst.copy_from_slice(&self.arena[off as usize..off as usize + len]);
                return;
            }
        }
        garbage_bytes(x0, dst);
        if self.arena.len() + len > MEMO_ARENA_BYTES || self.spans.len() >= MEMO_ENTRIES {
            self.arena.clear();
            self.spans.clear();
        }
        if self.arena.capacity() == 0 {
            self.arena.reserve_exact(MEMO_ARENA_BYTES);
        }
        self.spans.insert(x0, (self.arena.len() as u32, len as u32));
        self.arena.extend_from_slice(dst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> Mem {
        Mem::new(&MemConfig {
            global_capacity: 4096,
            heap_capacity: 65536,
            stack_capacity: 4096,
            fill_seed: 7,
        })
    }

    /// Region buffers are zeroed, exactly as long as asked (the mapping
    /// bounds come from their lengths, not their larger allocations), and
    /// backed by an allocation large enough to be a fresh mapping.
    #[test]
    fn region_buffers_are_fresh_mappings_of_exact_length() {
        for len in [0, 4096, 4 << 20] {
            let buf = zeroed_region(len);
            assert_eq!(buf.len(), len);
            assert!(buf.capacity() >= FRESH_MAP_BYTES);
            assert!(buf.iter().all(|&b| b == 0));
        }
        assert_eq!(
            zeroed_region(FRESH_MAP_BYTES + 1).len(),
            FRESH_MAP_BYTES + 1
        );
        let mut m = mem();
        let top = STACK_BASE + m.stack_size() as u64;
        assert!(m.write(top - 8, &[1; 8]).is_ok());
        assert!(
            m.write(top, &[1]).is_err(),
            "beyond the stack capacity faults"
        );
    }

    #[test]
    fn null_page_faults() {
        let m = mem();
        let e = m.read(0, 8).unwrap_err();
        assert_eq!(e.kind, MemFaultKind::NullPage);
        let e = m.read(0xfff, 1).unwrap_err();
        assert_eq!(e.kind, MemFaultKind::NullPage);
    }

    #[test]
    fn unmapped_gap_faults() {
        let m = mem();
        let e = m.read(0x5000_0000, 4).unwrap_err();
        assert_eq!(e.kind, MemFaultKind::Unmapped);
    }

    #[test]
    fn heap_mapping_follows_brk() {
        let mut m = mem();
        assert!(m.read(HEAP_BASE, 1).is_err(), "nothing mapped before brk");
        let a = m.grow_heap(64).unwrap();
        assert_eq!(a, HEAP_BASE);
        assert!(m.read(HEAP_BASE, 64).is_ok());
        assert!(m.read(HEAP_BASE + 63, 1).is_ok());
        assert!(m.read(HEAP_BASE + 64, 1).is_err(), "beyond brk faults");
    }

    #[test]
    fn read_write_roundtrip() {
        let mut m = mem();
        m.grow_heap(128).unwrap();
        m.write_u64(HEAP_BASE + 8, 0xdead_beef_cafe_f00d).unwrap();
        assert_eq!(m.read_u64(HEAP_BASE + 8).unwrap(), 0xdead_beef_cafe_f00d);
    }

    #[test]
    fn straddling_access_faults() {
        let mut m = mem();
        m.grow_heap(16).unwrap();
        assert!(m.read(HEAP_BASE + 12, 8).is_err());
    }

    #[test]
    fn global_bump_allocation() {
        let mut m = mem();
        let a = m.alloc_global(10).unwrap();
        let b = m.alloc_global(10).unwrap();
        assert_eq!(a, GLOBAL_BASE);
        assert_eq!(b, GLOBAL_BASE + 16);
        assert!(m.read(a, 10).is_ok());
        assert!(m.write_u64(b, 1).is_ok());
        // What does not fit is refused, without overflow or a panic, and
        // leaves the region as it was.
        assert_eq!(m.alloc_global(4096), None);
        assert_eq!(m.alloc_global(u64::MAX), None);
        assert_eq!(m.alloc_global(4096 - 32), Some(GLOBAL_BASE + 32));
    }

    #[test]
    fn stack_frames_push_and_pop() {
        let mut m = mem();
        let mark = m.stack_mark();
        let a = m.stack_alloc(100).unwrap();
        assert_eq!(a, STACK_BASE);
        let b = m.stack_alloc(8).unwrap();
        assert!(b >= a + 100);
        m.stack_release(mark);
        let c = m.stack_alloc(8).unwrap();
        assert_eq!(c, STACK_BASE);
    }

    #[test]
    fn stack_overflow_traps() {
        let mut m = mem();
        let e = m.stack_alloc(1 << 20).unwrap_err();
        assert_eq!(e.kind, MemFaultKind::StackOverflow);
    }

    #[test]
    fn snapshot_restore_roundtrips_contents_and_marks() {
        let mut m = mem();
        m.grow_heap(128).unwrap();
        m.write_u64(HEAP_BASE, 0x1111).unwrap();
        let g = m.alloc_global(16).unwrap();
        m.write_u64(g, 0x2222).unwrap();
        let mark = m.stack_alloc(32).unwrap();
        m.write_u64(mark, 0x3333).unwrap();
        let snap = m.snapshot();

        // Mutate everything, including growing the regions.
        m.write_u64(HEAP_BASE, 0xdead).unwrap();
        m.grow_heap(64).unwrap();
        m.write_u64(g, 0xbeef).unwrap();
        m.alloc_global(32).unwrap();
        m.stack_alloc(64).unwrap();

        m.restore(&snap);
        assert_eq!(m.read_u64(HEAP_BASE).unwrap(), 0x1111);
        assert_eq!(m.read_u64(g).unwrap(), 0x2222);
        assert_eq!(m.read_u64(mark).unwrap(), 0x3333);
        assert_eq!(m.brk(), 128, "heap break rolled back");
        assert!(
            m.read(HEAP_BASE + 128, 1).is_err(),
            "memory mapped after the snapshot is unmapped again"
        );
    }

    #[test]
    fn restore_clears_stack_residue_above_saved_sp() {
        let mut m = mem();
        let snap = m.snapshot(); // run-boundary checkpoint: sp = 0
        let a = m.stack_alloc(64).unwrap();
        m.write_u64(a, 0xfeed_face).unwrap();
        m.restore(&snap);
        // The whole stack region stays mapped, so without clearing, the
        // aborted attempt's frame bytes would leak into the replay.
        assert_eq!(m.read_u64(a).unwrap(), 0, "no residue above restored sp");
    }

    /// The garbage stream is pinned: the uninit-read detection evidence,
    /// the engine-parity golden and the campaign digests all consume
    /// these exact bytes, so any change to the generator must show here
    /// first. FNV-1a of the first 4,096 bytes for three seeds, and every
    /// shorter fill is a prefix of the longer one.
    #[test]
    fn garbage_stream_is_pinned() {
        let fnv = |bytes: &[u8]| {
            bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
        };
        for (seed, want) in [
            (1u64, 0xfab8_5e2c_8997_3b9du64),
            (0x9e37_79b9, 0x1ec2_d260_57ac_57c9),
            (u64::MAX, 0xd294_7b8d_f64f_5182),
        ] {
            let mut full = vec![0u8; 4096];
            garbage_bytes(seed, &mut full);
            assert_eq!(fnv(&full), want, "seed {seed:#x}");
            for len in [0, 1, 31, 127, 128, 129, 1000] {
                let mut short = vec![0u8; len];
                garbage_bytes(seed, &mut short);
                assert_eq!(short, full[..len], "seed {seed:#x} len {len}");
            }
        }
    }

    /// The stack may not reach [`MAPPED_LIMIT`], which the cache model's
    /// 16-bit tags rely on; the check runs before any buffer is allocated.
    #[test]
    #[should_panic(expected = "mapped-address limit")]
    fn a_stack_reaching_the_mapped_limit_is_rejected() {
        Mem::new(&MemConfig {
            stack_capacity: (MAPPED_LIMIT - STACK_BASE) as usize,
            ..MemConfig::default()
        });
    }

    /// Every fill through the memo equals the stream generated directly:
    /// repeated starts at shorter and longer lengths, reseeds, a fill
    /// larger than the arena, and enough distinct streams to clear it.
    #[test]
    fn memoized_garbage_matches_direct_generation() {
        let heap = 1 << 20;
        let mut m = Mem::new(&MemConfig {
            global_capacity: 4096,
            heap_capacity: heap,
            stack_capacity: 4096,
            fill_seed: 7,
        });
        m.grow_heap(heap).unwrap();
        let mut state = 0x0123_4567_89ab_cdefu64;
        let mut rand = move |n: u64| {
            state = xs_step(state);
            state % n
        };
        let check = |m: &mut Mem, addr: u64, len: usize| {
            m.garbage_fill(addr, len).unwrap();
            let mut want = vec![0; len];
            garbage_bytes(m.stream_seed(addr), &mut want);
            assert_eq!(m.read(addr, len).unwrap(), want, "{addr:#x} + {len}");
            GARBAGE_MEMO.with_borrow(|memo| {
                assert!(memo.arena.len() <= MEMO_ARENA_BYTES);
                assert!(memo.spans.len() <= MEMO_ENTRIES);
            });
        };
        for round in 0..4 {
            // A few starts, refilled at random lengths: shorter and longer
            // than the stream held, so both hits and regrowth happen.
            for _ in 0..500 {
                let addr = HEAP_BASE + 16 * rand(8);
                check(&mut m, addr, rand(3000) as usize);
            }
            // More distinct streams than the entry cap, small ones to
            // clear by count and then large ones to clear by bytes, each
            // batch revisiting starts of the one before.
            for len in [24, 24, 2048] {
                for i in 0..MEMO_ENTRIES as u64 + 100 {
                    let addr = HEAP_BASE + 16 * ((i + rand(64)) % (heap as u64 / 32));
                    check(&mut m, addr, len);
                }
            }
            check(&mut m, HEAP_BASE + 8, MEMO_ARENA_BYTES + 1 + round);
            check(&mut m, HEAP_BASE + 8, 100);
            m.set_fill_seed(rand(u64::MAX));
        }
    }

    #[test]
    fn snapshot_captures_only_live_prefixes() {
        let mut m = mem();
        m.grow_heap(64).unwrap();
        m.alloc_global(8).unwrap();
        let snap = m.snapshot();
        assert_eq!(snap.captured_bytes(), 64 + 8);
    }

    #[test]
    fn recycled_address_spaces_are_indistinguishable_from_fresh() {
        // Dirty all three regions, drop (returning the buffers to the
        // thread-local pool), and re-create: the reused space must read
        // all-zero everywhere a fresh one would.
        let cfg = MemConfig {
            global_capacity: 4096,
            heap_capacity: 65536,
            stack_capacity: 4096,
            fill_seed: 7,
        };
        {
            let mut m = Mem::new(&cfg);
            let g = m.alloc_global(64).unwrap();
            m.write(g, &[0xAA; 64]).unwrap();
            m.grow_heap(128).unwrap();
            m.write(HEAP_BASE, &[0xBB; 128]).unwrap();
            let s = m.stack_alloc(64).unwrap();
            m.write(s, &[0xCC; 64]).unwrap();
            // A raw write high on the stack (no alloc) must also be wiped.
            m.write_u64(STACK_BASE + 2048, u64::MAX).unwrap();
        }
        let mut m = Mem::new(&cfg);
        let g = m.alloc_global(64).unwrap();
        assert!(m.read(g, 64).unwrap().iter().all(|&b| b == 0));
        m.grow_heap(128).unwrap();
        assert!(m.read(HEAP_BASE, 128).unwrap().iter().all(|&b| b == 0));
        assert_eq!(m.read_u64(STACK_BASE + 2048).unwrap(), 0);
    }

    #[test]
    fn restore_shrunk_regions_leave_no_residue_for_the_pool() {
        // Rolling back past heap growth un-maps the upper heap bytes; the
        // drop-time re-zeroing only covers the final break, so restore
        // must wipe the shrunk-away range — otherwise it would survive
        // into the recycled-buffer pool.
        let cfg = MemConfig {
            global_capacity: 4096,
            heap_capacity: 65536,
            stack_capacity: 4096,
            fill_seed: 7,
        };
        {
            let mut m = Mem::new(&cfg);
            m.grow_heap(64).unwrap();
            let snap = m.snapshot(); // brk = 64
            m.grow_heap(4096).unwrap();
            m.write(HEAP_BASE + 64, &[0xEE; 4096]).unwrap();
            m.restore(&snap); // brk back to 64; upper bytes now unmapped
        }
        let mut m = Mem::new(&cfg);
        m.grow_heap(8192).unwrap();
        assert!(
            m.read(HEAP_BASE, 8192).unwrap().iter().all(|&b| b == 0),
            "recycled heap must be clean past a restore-shrunk break"
        );
    }

    #[test]
    fn restore_clears_residue_only_up_to_high_water() {
        let mut m = mem();
        let snap = m.snapshot();
        m.write_u64(STACK_BASE + 1024, 0xfeed).unwrap();
        m.restore(&snap);
        assert_eq!(m.read_u64(STACK_BASE + 1024).unwrap(), 0);
        // After restore the high-water mark resets; a later drop/reuse
        // cycle must still produce a clean stack.
        m.write_u64(STACK_BASE + 512, 0xbeef).unwrap();
        m.restore(&snap);
        assert_eq!(m.read_u64(STACK_BASE + 512).unwrap(), 0);

        // A checkpoint whose `sp` sits inside its second page, then
        // writes above it: on its page, straddling the next page
        // boundary, in a far page and on the last byte, by store, fill
        // and garbage fill. Restoring leaves the captured bytes and
        // nothing else, and the captured prefix is the only part left
        // to wipe.
        let mut m = Mem::new(&MemConfig {
            stack_capacity: 16 * STACK_PAGE,
            ..MemConfig::default()
        });
        let frame = m.stack_alloc(STACK_PAGE as u64 + 100).unwrap();
        let live = m.read(frame, STACK_PAGE + 100).unwrap().to_vec();
        let snap = m.snapshot();
        let top = STACK_BASE + m.stack_size() as u64;
        m.write_u64(frame + STACK_PAGE as u64 + 200, 0xfeed)
            .unwrap();
        m.write_u64(STACK_BASE + 2 * STACK_PAGE as u64 - 4, u64::MAX)
            .unwrap();
        m.fill(STACK_BASE + 9 * STACK_PAGE as u64, 3 * STACK_PAGE, 0xAB)
            .unwrap();
        m.garbage_fill(top - 5000, 4000).unwrap();
        m.write(top - 1, &[0xCD]).unwrap();
        assert_eq!(m.usage().stack_high_water, m.stack_size());
        m.restore(&snap);
        assert_eq!(m.usage().stack_high_water, STACK_PAGE + 100);
        assert_eq!((m.frame_hw, dirty_pages(&m)), (STACK_PAGE + 100, 0));
        let all = m.read(STACK_BASE, m.stack_size()).unwrap();
        assert_eq!(&all[..STACK_PAGE + 100], &live[..]);
        assert!(all[STACK_PAGE + 100..].iter().all(|&b| b == 0));
    }

    fn dirty_pages(m: &Mem) -> u32 {
        m.stack_dirty.iter().map(|w| w.count_ones()).sum()
    }

    /// One stray write to the stack's last byte dirties exactly one more
    /// page, and the drop that returns the buffer to the pool wipes it:
    /// the recycled space reads all-zero over the whole stack region.
    #[test]
    fn a_stray_write_at_the_stack_top_dirties_and_wipes_one_page() {
        let cfg = MemConfig {
            global_capacity: 4096,
            heap_capacity: 4096,
            stack_capacity: 64 * STACK_PAGE,
            fill_seed: 7,
        };
        let stack_ptr = {
            let mut m = Mem::new(&cfg);
            m.stack_alloc(64).unwrap();
            assert_eq!(dirty_pages(&m), 1);
            m.write(STACK_BASE + m.stack_size() as u64 - 1, &[0xEE])
                .unwrap();
            assert_eq!(dirty_pages(&m), 2, "one more page");
            assert_eq!(m.usage().stack_high_water, m.stack_size());
            m.stack.as_ptr()
        };
        let m = Mem::new(&cfg);
        assert_eq!(m.stack.as_ptr(), stack_ptr, "the pooled buffer came back");
        assert_eq!(dirty_pages(&m), 0);
        let all = m.read(STACK_BASE, m.stack_size()).unwrap();
        assert!(all.iter().all(|&b| b == 0));
    }

    #[test]
    fn region_of_classifies_mapped_bytes() {
        let mut m = mem();
        assert_eq!(m.region_of(0), None, "null page");
        assert_eq!(m.region_of(GLOBAL_BASE), None, "no globals allocated yet");
        let g = m.alloc_global(8).unwrap();
        assert_eq!(m.region_of(g), Some(MemRegion::Globals));
        assert_eq!(m.region_of(HEAP_BASE), None, "before brk");
        m.grow_heap(64).unwrap();
        assert_eq!(m.region_of(HEAP_BASE + 63), Some(MemRegion::Heap));
        assert_eq!(m.region_of(HEAP_BASE + 64), None, "past brk");
        assert_eq!(m.region_of(STACK_BASE), Some(MemRegion::Stack));
        assert_eq!(m.region_of(0x5000_0000), None, "inter-region gap");
    }

    #[test]
    fn garbage_is_deterministic_and_address_dependent() {
        let mut m1 = mem();
        let mut m2 = mem();
        m1.grow_heap(64).unwrap();
        m2.grow_heap(64).unwrap();
        m1.garbage_fill(HEAP_BASE, 32).unwrap();
        m2.garbage_fill(HEAP_BASE, 32).unwrap();
        assert_eq!(
            m1.read(HEAP_BASE, 32).unwrap(),
            m2.read(HEAP_BASE, 32).unwrap()
        );
        m1.garbage_fill(HEAP_BASE + 32, 32).unwrap();
        assert_ne!(
            m1.read(HEAP_BASE, 32).unwrap().to_vec(),
            m1.read(HEAP_BASE + 32, 32).unwrap().to_vec(),
            "different addresses get different garbage"
        );
    }
}
