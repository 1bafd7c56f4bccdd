//! The segmented, big-endian process memory image.
//!
//! Like a 4.2BSD process, an image has three segments:
//!
//! * **text** — read-only instructions, loaded at [`MemoryLayout::TEXT_BASE`];
//! * **data** — initialised data followed by zeroed bss, page-aligned after
//!   the text;
//! * **stack** — a region of [`MemoryLayout::STACK_MAX`] bytes ending at
//!   [`MemoryLayout::STACK_TOP`]. As on 4.2BSD it grows on demand: the
//!   image stores only the pages from the lowest one the process has
//!   written (or a restore has filled) up to the top. The rest of the
//!   region reads as zeros, and a write there grows the stored part by
//!   whole pages. Nothing a guest or the kernel can observe depends on
//!   how far it has grown.
//!
//! Address zero is unmapped so null-pointer dereferences fault, and writes
//! to text fault, letting the kernel convert both into the appropriate
//! signals.

use std::borrow::Cow;
use std::collections::BTreeSet;

use crate::cpu::Fault;

/// The fixed virtual-address plan shared by every process image.
#[derive(Clone, Copy, Debug)]
pub struct MemoryLayout;

impl MemoryLayout {
    /// Base address of the text segment (page 0 is left unmapped).
    pub const TEXT_BASE: u32 = 0x0000_1000;
    /// Segment alignment (8 KB pages, as on the Sun-2).
    pub const PAGE: u32 = 0x2000;
    /// One past the highest stack address; the stack grows down from here.
    pub const STACK_TOP: u32 = 0x0080_0000;
    /// Maximum stack size in bytes.
    pub const STACK_MAX: u32 = 0x0004_0000; // 256 KB
    /// The lowest stack address: a push below it overflows the stack.
    const STACK_BASE: u32 = Self::STACK_TOP - Self::STACK_MAX;

    /// The base address of the data segment for a given text size.
    pub fn data_base(text_len: u32) -> u32 {
        let end = Self::TEXT_BASE + text_len;
        end.div_ceil(Self::PAGE) * Self::PAGE
    }

    /// The page number holding `addr` (absolute address over 8 KB pages).
    pub fn page_of(addr: u32) -> u32 {
        addr / Self::PAGE
    }

    /// The base address of page number `page`.
    pub fn page_addr(page: u32) -> u32 {
        page * Self::PAGE
    }
}

/// A process memory image.
///
/// Equality deliberately ignores the dirty set: dirty tracking is pure
/// cache in the Milanés sense — a migration image dumped with tracking
/// on must be bit-identical to one dumped with it off. How far the
/// stack has grown is host-side too, so stacks compare as if
/// zero-extended to the whole region. The absent set *is* semantic (a
/// demand-restored image genuinely lacks those pages) and participates
/// in equality.
#[derive(Clone, Debug)]
pub struct Memory {
    text: Vec<u8>,
    /// Initialised data + bss, starting at `data_base`.
    data: Vec<u8>,
    data_base: u32,
    /// The grown part of the stack region, whole pages ending at
    /// `STACK_TOP`: index 0 is `STACK_TOP - stack.len()`. The region
    /// below it holds zeros that no write has needed to store yet.
    stack: Vec<u8>,
    /// Page-granular write tracking over data + stack, armed only while
    /// a pre-copy migration is watching the image.
    dirty: Option<BTreeSet<u32>>,
    /// Data pages not yet fetched from the source dump (demand restore);
    /// any access inside one faults with [`Fault::PageAbsent`].
    absent: BTreeSet<u32>,
}

impl PartialEq for Memory {
    fn eq(&self, other: &Memory) -> bool {
        self.text == other.text
            && self.data == other.data
            && self.data_base == other.data_base
            && stacks_eq(&self.stack, &other.stack)
            && self.absent == other.absent
    }
}

impl Eq for Memory {}

/// Whether two grown stacks hold the same region: the pages only the
/// longer one stores must be zeros.
fn stacks_eq(a: &[u8], b: &[u8]) -> bool {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let (extra, rest) = long.split_at(long.len() - short.len());
    rest == short && extra.iter().all(|&x| x == 0)
}

/// What an ungrown stack page holds.
static ZERO_PAGE: [u8; MemoryLayout::PAGE as usize] = [0; MemoryLayout::PAGE as usize];

impl Memory {
    /// Builds an image from a text segment, initialised data and a bss
    /// size (zero-filled after the data).
    pub fn new(text: Vec<u8>, data: Vec<u8>, bss_len: u32) -> Memory {
        let data_base = MemoryLayout::data_base(text.len() as u32);
        let mut data = data;
        data.resize(data.len() + bss_len as usize, 0);
        Memory {
            text,
            data,
            data_base,
            stack: Vec::new(),
            dirty: None,
            absent: BTreeSet::new(),
        }
    }

    /// The text segment bytes.
    pub fn text(&self) -> &[u8] {
        &self.text
    }

    /// The data segment bytes (data + bss), whose *current* contents the
    /// `SIGDUMP` `a.outXXXXX` file captures.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// The base address of the data segment.
    pub fn data_base(&self) -> u32 {
        self.data_base
    }

    /// The stack bytes from `sp` to the top of the stack, i.e. the live
    /// stack contents the `stackXXXXX` dump preserves. Borrowed when `sp`
    /// lies in the grown part; below it, the ungrown pages come back as
    /// zeros.
    ///
    /// Returns `None` if `sp` lies outside the stack region.
    pub fn stack_from(&self, sp: u32) -> Option<Cow<'_, [u8]>> {
        if !(MemoryLayout::STACK_BASE..=MemoryLayout::STACK_TOP).contains(&sp) {
            return None;
        }
        let o = (sp - MemoryLayout::STACK_BASE) as usize;
        Some(self.stack_bytes(o, MemoryLayout::STACK_MAX as usize - o))
    }

    /// Replaces the stack with `contents` ending at the stack top,
    /// returning the new stack pointer. Used by `rest_proc()`: the image
    /// stores exactly `contents`, rounded up to whole pages, and drops
    /// whatever it had grown before, so a restore into a used image
    /// equals one into a fresh image.
    ///
    /// Fails if `contents` exceeds the stack region.
    pub fn restore_stack(&mut self, contents: &[u8]) -> Option<u32> {
        if contents.len() > MemoryLayout::STACK_MAX as usize {
            return None;
        }
        let len = contents.len().next_multiple_of(MemoryLayout::PAGE as usize);
        let mut stack = vec![0; len];
        stack[len - contents.len()..].copy_from_slice(contents);
        self.stack = stack;
        self.mark_dirty_span(MemoryLayout::STACK_BASE, MemoryLayout::STACK_MAX as usize);
        Some(MemoryLayout::STACK_TOP - contents.len() as u32)
    }

    /// The region offset of the lowest stored stack byte.
    fn stack_floor(&self) -> usize {
        MemoryLayout::STACK_MAX as usize - self.stack.len()
    }

    /// Grows the stored stack down to the page holding region offset `o`.
    #[cold]
    fn grow_stack(&mut self, o: usize) {
        let page = MemoryLayout::PAGE as usize;
        let len = MemoryLayout::STACK_MAX as usize - o / page * page;
        let mut grown = vec![0; len];
        grown[len - self.stack.len()..].copy_from_slice(&self.stack);
        self.stack = grown;
    }

    /// Copies the stack bytes from region offset `o` into the zeroed
    /// `out`, leaving the bytes below the grown part zero.
    fn copy_stack(&self, o: usize, out: &mut [u8]) {
        let floor = self.stack_floor();
        let end = o + out.len();
        if end <= floor {
            return;
        }
        let skip = floor.saturating_sub(o);
        out[skip..].copy_from_slice(&self.stack[o + skip - floor..end - floor]);
    }

    /// The `n` stack bytes from region offset `o`: borrowed when they lie
    /// in the grown part, copied with zeros below it otherwise.
    fn stack_bytes(&self, o: usize, n: usize) -> Cow<'_, [u8]> {
        match o.checked_sub(self.stack_floor()) {
            Some(i) => Cow::Borrowed(&self.stack[i..i + n]),
            None => {
                let mut out = vec![0; n];
                self.copy_stack(o, &mut out);
                Cow::Owned(out)
            }
        }
    }

    /// Arms page-granular dirty tracking, with every data and stack page
    /// initially dirty (a pre-copy round starts by sending everything).
    pub fn enable_dirty_tracking(&mut self) {
        self.dirty = Some(self.all_pages());
    }

    /// Disarms dirty tracking, dropping the set.
    pub fn disable_dirty_tracking(&mut self) {
        self.dirty = None;
    }

    /// How many pages are currently dirty (0 when tracking is off).
    pub fn dirty_count(&self) -> usize {
        self.dirty.as_ref().map(|d| d.len()).unwrap_or(0)
    }

    /// The currently dirty pages in page order, without clearing them —
    /// for the freeze-time delta dump, which must stay retryable: a
    /// failed dump leaves the set intact so the survivor re-dumps the
    /// same pages.
    pub fn dirty_pages(&self) -> Vec<u32> {
        self.dirty
            .as_ref()
            .map(|d| d.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Drains the dirty set in page order, leaving tracking armed —
    /// one pre-copy round's worth of pages to send.
    pub fn take_dirty(&mut self) -> Vec<u32> {
        match &mut self.dirty {
            Some(d) => std::mem::take(d).into_iter().collect(),
            None => Vec::new(),
        }
    }

    /// Every data and stack page number of this image, grown or not.
    fn all_pages(&self) -> BTreeSet<u32> {
        let mut pages = BTreeSet::new();
        let data_end = self.data_base + self.data.len() as u32;
        let mut a = self.data_base;
        while a < data_end {
            pages.insert(MemoryLayout::page_of(a));
            a += MemoryLayout::PAGE;
        }
        let mut a = MemoryLayout::STACK_BASE;
        while a < MemoryLayout::STACK_TOP {
            pages.insert(MemoryLayout::page_of(a));
            a += MemoryLayout::PAGE;
        }
        pages
    }

    fn mark_dirty_span(&mut self, addr: u32, len: usize) {
        if len == 0 {
            return;
        }
        if let Some(dirty) = &mut self.dirty {
            let first = MemoryLayout::page_of(addr);
            let last = MemoryLayout::page_of(addr + (len as u32 - 1));
            for p in first..=last {
                dirty.insert(p);
            }
        }
    }

    /// The bytes of page `page`, clipped to its segment's end; a stack
    /// page the stack has not grown to is a page of zeros. `None` when
    /// the page maps neither data nor stack, or is absent.
    pub fn page_slice(&self, page: u32) -> Option<&[u8]> {
        if self.absent.contains(&page) {
            return None;
        }
        let base = MemoryLayout::page_addr(page);
        let data_end = self.data_base + self.data.len() as u32;
        if base >= self.data_base && base < data_end {
            let o = (base - self.data_base) as usize;
            let end = (o + MemoryLayout::PAGE as usize).min(self.data.len());
            return Some(&self.data[o..end]);
        }
        if (MemoryLayout::STACK_BASE..MemoryLayout::STACK_TOP).contains(&base) {
            let o = (base - MemoryLayout::STACK_BASE) as usize;
            return Some(match o.checked_sub(self.stack_floor()) {
                Some(i) => &self.stack[i..i + MemoryLayout::PAGE as usize],
                None => &ZERO_PAGE,
            });
        }
        None
    }

    /// Installs `bytes` at page `page`, bypassing write protection and
    /// dirty marking, and clears the page from the absent set — the
    /// kernel's landing path for a pre-copied or demand-fetched page.
    /// Returns false when the page maps neither data nor stack or the
    /// bytes overrun the segment.
    pub fn install_page(&mut self, page: u32, bytes: &[u8]) -> bool {
        let base = MemoryLayout::page_addr(page);
        let data_end = self.data_base + self.data.len() as u32;
        let ok = if base >= self.data_base && base < data_end {
            let o = (base - self.data_base) as usize;
            let end = (o + MemoryLayout::PAGE as usize).min(self.data.len());
            if bytes.len() == end - o {
                self.data[o..end].copy_from_slice(bytes);
                true
            } else {
                false
            }
        } else if (MemoryLayout::STACK_BASE..MemoryLayout::STACK_TOP).contains(&base) {
            let o = (base - MemoryLayout::STACK_BASE) as usize;
            if bytes.len() == MemoryLayout::PAGE as usize {
                self.stack_mut(o, bytes.len()).copy_from_slice(bytes);
                true
            } else {
                false
            }
        } else {
            false
        };
        if ok {
            self.absent.remove(&page);
        }
        ok
    }

    /// Marks data pages as absent (demand restore: their bytes live only
    /// in the source dump until fetched). Pages outside the data segment
    /// are ignored.
    pub fn set_absent(&mut self, pages: impl IntoIterator<Item = u32>) {
        let data_end = self.data_base + self.data.len() as u32;
        for p in pages {
            let base = MemoryLayout::page_addr(p);
            if base >= self.data_base && base < data_end {
                self.absent.insert(p);
            }
        }
    }

    /// True while any page is still absent.
    pub fn has_absent(&self) -> bool {
        !self.absent.is_empty()
    }

    /// The lowest absent page number, if any page is absent.
    pub fn first_absent_page(&self) -> Option<u32> {
        self.absent.first().copied()
    }

    /// True while page `page` is absent.
    pub fn is_absent(&self, page: u32) -> bool {
        self.absent.contains(&page)
    }

    /// The first absent byte an access `[addr, addr+len)` would touch
    /// (the span is clipped at the top of the address space).
    pub fn first_absent(&self, addr: u32, len: u32) -> Option<u32> {
        if self.absent.is_empty() || len == 0 {
            return None;
        }
        let first = MemoryLayout::page_of(addr);
        let last = MemoryLayout::page_of(addr.saturating_add(len - 1));
        let page = *self.absent.range(first..=last).next()?;
        Some(addr.max(MemoryLayout::page_addr(page)))
    }

    fn locate(&self, addr: u32, len: u32) -> Result<Region, Fault> {
        let end = addr.checked_add(len).ok_or(Fault::Unmapped { addr })?;
        let text_base = MemoryLayout::TEXT_BASE;
        let text_end = text_base + self.text.len() as u32;
        if addr >= text_base && end <= text_end {
            return Ok(Region::Text((addr - text_base) as usize));
        }
        let data_end = self.data_base + self.data.len() as u32;
        if addr >= self.data_base && end <= data_end {
            if let Some(at) = self.first_absent(addr, len) {
                return Err(Fault::PageAbsent { addr: at });
            }
            return Ok(Region::Data((addr - self.data_base) as usize));
        }
        if addr >= MemoryLayout::STACK_BASE && end <= MemoryLayout::STACK_TOP {
            return Ok(Region::Stack((addr - MemoryLayout::STACK_BASE) as usize));
        }
        Err(Fault::Unmapped { addr })
    }

    /// The `n` stored stack bytes from region offset `o`, growing the
    /// stack first when they reach below it.
    fn stack_mut(&mut self, o: usize, n: usize) -> &mut [u8] {
        if o < self.stack_floor() {
            self.grow_stack(o);
        }
        let i = o - self.stack_floor();
        &mut self.stack[i..i + n]
    }

    /// Returns the longest readable run of bytes starting at `addr`, up
    /// to `max` bytes (used by the instruction fetch).
    ///
    /// The slice stops at the end of the segment holding `addr` or at
    /// the first byte of an absent page, whichever comes first; in the
    /// second case that byte is returned too, so a fetch the hole cut
    /// short can fault the page in instead of decoding the placeholder
    /// bytes a demand restore leaves there. A window that reaches below
    /// the grown stack is a copy (see [`Memory::stack_from`]).
    pub fn read_window(&self, addr: u32, max: u32) -> Result<(Cow<'_, [u8]>, Option<u32>), Fault> {
        // Find how many bytes remain in the segment containing `addr`.
        let (seg, off): (&[u8], usize) = match self.locate(addr, 1)? {
            Region::Text(o) => (&self.text, o),
            Region::Data(o) => (&self.data, o),
            Region::Stack(o) => {
                let len = (MemoryLayout::STACK_MAX as usize - o).min(max as usize);
                return Ok((self.stack_bytes(o, len), None));
            }
        };
        let len = (off + max as usize).min(seg.len()) - off;
        let hole = self.first_absent(addr, len as u32);
        let len = hole.map_or(len, |at| (at - addr) as usize);
        Ok((Cow::Borrowed(&seg[off..off + len]), hole))
    }

    /// Reads `len` bytes starting at `addr`: borrowed, except for a read
    /// that reaches below the grown stack (see [`Memory::stack_from`]).
    pub fn read_bytes(&self, addr: u32, len: u32) -> Result<Cow<'_, [u8]>, Fault> {
        let n = len as usize;
        Ok(match self.locate(addr, len)? {
            Region::Text(o) => Cow::Borrowed(&self.text[o..o + n]),
            Region::Data(o) => Cow::Borrowed(&self.data[o..o + n]),
            Region::Stack(o) => self.stack_bytes(o, n),
        })
    }

    /// Reads `N` bytes starting at `addr` into an array.
    fn read_array<const N: usize>(&self, addr: u32) -> Result<[u8; N], Fault> {
        let mut out = [0; N];
        match self.locate(addr, N as u32)? {
            Region::Text(o) => out.copy_from_slice(&self.text[o..o + N]),
            Region::Data(o) => out.copy_from_slice(&self.data[o..o + N]),
            Region::Stack(o) => self.copy_stack(o, &mut out),
        }
        Ok(out)
    }

    /// Writes `bytes` starting at `addr`; text is write-protected.
    pub fn write_bytes(&mut self, addr: u32, bytes: &[u8]) -> Result<(), Fault> {
        let n = bytes.len();
        match self.locate(addr, n as u32)? {
            Region::Text(_) => Err(Fault::WriteToText { addr }),
            Region::Data(o) => {
                self.data[o..o + n].copy_from_slice(bytes);
                self.mark_dirty_span(addr, n);
                Ok(())
            }
            Region::Stack(o) => {
                self.stack_mut(o, n).copy_from_slice(bytes);
                self.mark_dirty_span(addr, n);
                Ok(())
            }
        }
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u32) -> Result<u8, Fault> {
        Ok(self.read_array::<1>(addr)?[0])
    }

    /// Reads a big-endian 16-bit word.
    pub fn read_u16(&self, addr: u32) -> Result<u16, Fault> {
        Ok(u16::from_be_bytes(self.read_array(addr)?))
    }

    /// Reads a big-endian 32-bit word.
    pub fn read_u32(&self, addr: u32) -> Result<u32, Fault> {
        Ok(u32::from_be_bytes(self.read_array(addr)?))
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u32, v: u8) -> Result<(), Fault> {
        self.write_bytes(addr, &[v])
    }

    /// Writes a big-endian 16-bit word.
    pub fn write_u16(&mut self, addr: u32, v: u16) -> Result<(), Fault> {
        self.write_bytes(addr, &v.to_be_bytes())
    }

    /// Writes a big-endian 32-bit word.
    pub fn write_u32(&mut self, addr: u32, v: u32) -> Result<(), Fault> {
        self.write_bytes(addr, &v.to_be_bytes())
    }

    /// Reads a NUL-terminated string of at most `max` bytes starting at
    /// `addr` (the form in which guest programs pass path names).
    pub fn read_cstr(&self, addr: u32, max: usize) -> Result<String, Fault> {
        let mut out = Vec::new();
        let mut a = addr;
        while out.len() < max {
            let b = self.read_u8(a)?;
            if b == 0 {
                break;
            }
            out.push(b);
            a = a.wrapping_add(1);
        }
        Ok(String::from_utf8_lossy(&out).into_owned())
    }
}

enum Region {
    Text(usize),
    Data(usize),
    Stack(usize),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> Memory {
        Memory::new(vec![0xAA; 64], vec![1, 2, 3, 4], 16)
    }

    #[test]
    fn layout_aligns_data_after_text() {
        assert_eq!(MemoryLayout::data_base(0), 0x2000);
        assert_eq!(MemoryLayout::data_base(1), 0x2000);
        assert_eq!(MemoryLayout::data_base(0x1001), 0x4000);
    }

    #[test]
    fn null_page_faults() {
        let m = mem();
        assert!(matches!(m.read_u8(0), Err(Fault::Unmapped { .. })));
        assert!(matches!(m.read_u32(4), Err(Fault::Unmapped { .. })));
    }

    #[test]
    fn text_is_write_protected() {
        let mut m = mem();
        let a = MemoryLayout::TEXT_BASE;
        assert_eq!(m.read_u8(a).unwrap(), 0xAA);
        assert!(matches!(m.write_u8(a, 1), Err(Fault::WriteToText { .. })));
    }

    #[test]
    fn data_and_bss_read_write() {
        let mut m = mem();
        let d = m.data_base();
        assert_eq!(*m.read_bytes(d, 4).unwrap(), [1, 2, 3, 4]);
        assert_eq!(m.read_u8(d + 4).unwrap(), 0); // bss zeroed
        m.write_u32(d + 8, 0xCAFEBABE).unwrap();
        assert_eq!(m.read_u32(d + 8).unwrap(), 0xCAFEBABE);
    }

    #[test]
    fn big_endian_byte_order() {
        let mut m = mem();
        let d = m.data_base();
        m.write_u32(d, 0x11223344).unwrap();
        assert_eq!(m.read_u8(d).unwrap(), 0x11);
        assert_eq!(m.read_u8(d + 3).unwrap(), 0x44);
        assert_eq!(m.read_u16(d).unwrap(), 0x1122);
    }

    #[test]
    fn stack_dump_and_restore_round_trip() {
        let mut m = mem();
        let sp = MemoryLayout::STACK_TOP - 8;
        m.write_u32(sp, 0xAABBCCDD).unwrap();
        m.write_u32(sp + 4, 0x01020304).unwrap();
        let saved = m.stack_from(sp).unwrap().to_vec();
        assert_eq!(saved.len(), 8);

        let mut m2 = Memory::new(vec![0; 64], vec![0; 4], 0);
        let sp2 = m2.restore_stack(&saved).unwrap();
        assert_eq!(sp2, sp);
        assert_eq!(m2.read_u32(sp2).unwrap(), 0xAABBCCDD);
        assert_eq!(m2.read_u32(sp2 + 4).unwrap(), 0x01020304);
    }

    #[test]
    fn restore_oversized_stack_fails() {
        let mut m = mem();
        let too_big = vec![0u8; MemoryLayout::STACK_MAX as usize + 1];
        assert!(m.restore_stack(&too_big).is_none());
    }

    #[test]
    fn restore_stack_at_exact_capacity_fills_the_region() {
        let mut m = mem();
        let full: Vec<u8> = (0..MemoryLayout::STACK_MAX).map(|i| i as u8).collect();
        let sp = m.restore_stack(&full).expect("exactly STACK_MAX fits");
        assert_eq!(sp, MemoryLayout::STACK_TOP - MemoryLayout::STACK_MAX);
        assert_eq!(m.stack_from(sp).unwrap(), &full[..]);
    }

    #[test]
    fn restore_empty_stack_yields_stack_top() {
        let mut m = mem();
        let sp = m.restore_stack(&[]).expect("empty contents are valid");
        assert_eq!(sp, MemoryLayout::STACK_TOP);
        assert_eq!(m.stack_from(sp).unwrap(), &[] as &[u8]);
    }

    #[test]
    fn cstr_reads_until_nul() {
        let mut m = mem();
        let d = m.data_base();
        m.write_bytes(d, b"hello\0junk").unwrap();
        assert_eq!(m.read_cstr(d, 64).unwrap(), "hello");
    }

    #[test]
    fn gap_between_segments_faults() {
        let m = mem();
        let hole = MemoryLayout::TEXT_BASE + 64; // Past text end, before data.
        assert!(m.read_u8(hole).is_err());
    }

    #[test]
    fn restore_stack_zeroes_below_the_new_sp() {
        let mut m = mem();
        // Dirty the whole stack region, then restore a short stack: the
        // bytes below the new sp must read as zero, exactly as they
        // would in a fresh image.
        let base = MemoryLayout::STACK_TOP - MemoryLayout::STACK_MAX;
        let full = vec![0x5A_u8; MemoryLayout::STACK_MAX as usize];
        m.restore_stack(&full).unwrap();
        let sp = m.restore_stack(&[1, 2, 3, 4]).unwrap();
        assert_eq!(sp, MemoryLayout::STACK_TOP - 4);
        assert_eq!(m.read_u8(base).unwrap(), 0, "stale byte at stack base");
        assert_eq!(m.read_u8(sp - 1).unwrap(), 0, "stale byte just below sp");
        assert_eq!(m.read_u32(sp).unwrap(), 0x01020304);

        // And the restored image equals a fresh restore of the same
        // contents into a never-used image.
        let mut fresh = mem();
        fresh.restore_stack(&[1, 2, 3, 4]).unwrap();
        assert_eq!(m.stack_from(base).unwrap(), fresh.stack_from(base).unwrap());
    }

    const PAGE: usize = MemoryLayout::PAGE as usize;

    #[test]
    fn a_fresh_image_holds_no_stack_and_reads_zeros_there() {
        let m = mem();
        assert!(m.stack.is_empty());
        assert_eq!(m.read_u32(MemoryLayout::STACK_TOP - 4).unwrap(), 0);
        assert_eq!(m.read_u8(MemoryLayout::STACK_BASE).unwrap(), 0);
        let whole = m.stack_from(MemoryLayout::STACK_BASE).unwrap();
        assert_eq!(whole.len(), MemoryLayout::STACK_MAX as usize);
        assert!(whole.iter().all(|&b| b == 0));
        let top_page = MemoryLayout::page_of(MemoryLayout::STACK_TOP - 1);
        assert_eq!(m.page_slice(top_page).unwrap(), &[0; PAGE]);
        // The limit and the unmapped space below it are unchanged.
        assert!(matches!(
            m.read_u8(MemoryLayout::STACK_BASE - 1),
            Err(Fault::Unmapped { .. })
        ));
    }

    #[test]
    fn one_push_grows_exactly_one_page() {
        let mut m = mem();
        m.write_u32(MemoryLayout::STACK_TOP - 4, 0xDEAD_BEEF)
            .unwrap();
        assert_eq!(m.stack.len(), PAGE);
        assert_eq!(
            m.read_u32(MemoryLayout::STACK_TOP - 4).unwrap(),
            0xDEAD_BEEF
        );
        // A write that straddles the grown part's floor grows one page
        // more, as does any write below it.
        let floor = MemoryLayout::STACK_TOP - PAGE as u32;
        m.write_u32(floor - 2, 0x0102_0304).unwrap();
        assert_eq!(m.stack.len(), 2 * PAGE);
        m.write_u8(MemoryLayout::STACK_BASE, 9).unwrap();
        assert_eq!(m.stack.len(), MemoryLayout::STACK_MAX as usize);
        assert_eq!(m.read_u32(floor - 2).unwrap(), 0x0102_0304);
        assert_eq!(m.read_u8(MemoryLayout::STACK_BASE).unwrap(), 9);
        // A write below the limit faults and grows nothing.
        let mut fresh = mem();
        assert!(matches!(
            fresh.write_u32(MemoryLayout::STACK_BASE - 4, 1),
            Err(Fault::Unmapped { .. })
        ));
        assert!(fresh.stack.is_empty());
    }

    #[test]
    fn reads_across_the_grown_floor_see_zeros_below_it() {
        let mut m = mem();
        let floor = MemoryLayout::STACK_TOP - PAGE as u32;
        m.write_u16(floor, 0xABCD).unwrap();
        assert_eq!(m.read_u32(floor - 2).unwrap(), 0x0000_ABCD);
        assert_eq!(*m.read_bytes(floor - 2, 4).unwrap(), [0, 0, 0xAB, 0xCD]);
        let (window, hole) = m.read_window(floor - 1, 12).unwrap();
        assert_eq!(window[..3], [0, 0xAB, 0xCD]);
        assert_eq!((window.len(), hole), (12, None));
        let from = m.stack_from(floor - 2).unwrap();
        assert_eq!(from.len(), PAGE + 2);
        assert_eq!(from[..4], [0, 0, 0xAB, 0xCD]);
        // Reading never grows the stack.
        assert_eq!(m.stack.len(), PAGE);
    }

    #[test]
    fn clone_copies_only_the_grown_part() {
        let mut m = mem();
        m.write_u32(MemoryLayout::STACK_TOP - 4, 7).unwrap();
        let c = m.clone();
        assert_eq!(c.stack.len(), PAGE);
        assert_eq!(c, m);
    }

    #[test]
    fn restore_stack_holds_the_contents_rounded_up_to_a_page() {
        for n in [
            0,
            1,
            4,
            PAGE - 1,
            PAGE,
            PAGE + 1,
            MemoryLayout::STACK_MAX as usize,
        ] {
            // Into a fresh image and into one grown to the limit: both
            // hold exactly the restored pages.
            let mut grown = mem();
            grown.write_u8(MemoryLayout::STACK_BASE, 1).unwrap();
            for mut m in [mem(), grown] {
                let contents = vec![0x5A; n];
                let sp = m.restore_stack(&contents).unwrap();
                assert_eq!(sp, MemoryLayout::STACK_TOP - n as u32);
                assert_eq!(m.stack.len(), n.next_multiple_of(PAGE), "{n} bytes");
                assert_eq!(*m.stack_from(sp).unwrap(), contents[..]);
            }
        }
    }

    #[test]
    fn a_grown_then_zeroed_stack_equals_a_fresh_one() {
        let fresh = mem();
        let mut m = mem();
        m.write_u32(MemoryLayout::STACK_BASE, 0xFFFF_FFFF).unwrap();
        assert_ne!(m, fresh);
        assert_ne!(fresh, m);
        m.write_u32(MemoryLayout::STACK_BASE, 0).unwrap();
        assert_eq!(m.stack.len(), MemoryLayout::STACK_MAX as usize);
        assert_eq!(m, fresh);
        assert_eq!(fresh, m);
        // Same contents grown to different depths compare equal too.
        let mut shallow = mem();
        shallow.write_u32(MemoryLayout::STACK_TOP - 4, 3).unwrap();
        m.write_u32(MemoryLayout::STACK_TOP - 4, 3).unwrap();
        assert_eq!(m, shallow);
    }

    #[test]
    fn dirty_tracking_starts_all_dirty_and_follows_writes() {
        let mut m = Memory::new(vec![0xAA; 64], vec![0; 3 * 0x2000], 0);
        assert_eq!(m.take_dirty(), Vec::<u32>::new(), "tracking off: no pages");
        m.enable_dirty_tracking();
        let first = m.take_dirty();
        // 3 data pages + 32 stack pages, all initially dirty.
        assert_eq!(
            first.len(),
            3 + (MemoryLayout::STACK_MAX / MemoryLayout::PAGE) as usize
        );
        assert_eq!(m.dirty_count(), 0);

        // A write dirties exactly the touched pages.
        let d = m.data_base();
        m.write_u32(d + 0x2000, 7).unwrap();
        assert_eq!(m.take_dirty(), vec![MemoryLayout::page_of(d + 0x2000)]);

        // A write spanning a page boundary dirties both pages.
        m.write_bytes(d + 0x2000 - 2, &[1, 2, 3, 4]).unwrap();
        assert_eq!(
            m.take_dirty(),
            vec![MemoryLayout::page_of(d), MemoryLayout::page_of(d + 0x2000)]
        );

        m.disable_dirty_tracking();
        m.write_u32(d, 9).unwrap();
        assert_eq!(m.dirty_count(), 0);
    }

    #[test]
    fn equality_ignores_dirty_state_but_not_absent_pages() {
        let mut a = mem();
        let b = mem();
        a.enable_dirty_tracking();
        assert_eq!(a, b, "dirty tracking is pure cache");
        a.set_absent([MemoryLayout::page_of(a.data_base())]);
        assert_ne!(a, b, "absent pages are semantic state");
    }

    #[test]
    fn absent_page_faults_and_fills() {
        let mut m = Memory::new(vec![0xAA; 64], vec![0x11; 2 * 0x2000], 0);
        let d = m.data_base();
        let page = MemoryLayout::page_of(d + 0x2000);
        m.set_absent([page]);
        assert!(m.has_absent());
        assert_eq!(m.first_absent_page(), Some(page));
        assert!(m.is_absent(page) && !m.is_absent(page - 1));

        // Reads and writes inside the absent page fault with its address.
        assert!(matches!(
            m.read_u8(d + 0x2000),
            Err(Fault::PageAbsent { addr }) if addr == d + 0x2000
        ));
        assert!(matches!(
            m.write_u8(d + 0x2000, 1),
            Err(Fault::PageAbsent { .. })
        ));
        // A spanning access faults at the first absent byte.
        assert!(matches!(
            m.read_u32(d + 0x2000 - 2),
            Err(Fault::PageAbsent { addr }) if addr == d + 0x2000
        ));
        // The present page still works, and page_slice refuses the hole.
        assert_eq!(m.read_u8(d).unwrap(), 0x11);
        assert!(m.page_slice(page).is_none());

        // Installing the page clears the hole.
        assert!(m.install_page(page, &vec![0x22; 0x2000]));
        assert!(!m.has_absent());
        assert_eq!(m.read_u8(d + 0x2000).unwrap(), 0x22);
        assert_eq!(m.page_slice(page).unwrap()[0], 0x22);
    }

    #[test]
    fn install_page_rejects_bad_pages_and_lengths() {
        let mut m = mem();
        assert!(!m.install_page(0, &[0; 0x2000]), "page 0 is unmapped");
        let d = MemoryLayout::page_of(m.data_base());
        assert!(
            !m.install_page(d, &[0; 7]),
            "length must match the page span"
        );
        // Short final data page: the clipped length is what fits.
        let span = m.page_slice(d).unwrap().len();
        assert!(m.install_page(d, &vec![3; span]));
        assert_eq!(m.read_u8(m.data_base()).unwrap(), 3);
    }
}
