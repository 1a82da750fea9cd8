"""Sparse, page-granular byte-addressable memory.

Backing storage is a dict of 4 KiB bytearray pages, so multi-gigabyte
address spaces (the board's 32 GB DDR4) cost only what is touched.  The
fuzzing harness maps an instruction segment and a data segment; anything
outside the mapped ranges faults, which feeds the access-fault exception
paths of the DUT.
"""

from struct import Struct

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = PAGE_SIZE - 1

# Fixed-width little-endian readers for the common access sizes; unpacking
# straight from the page bytearray skips the slice-copy + int.from_bytes of
# the generic path (load is called at least once per executed instruction).
_UNPACK_WORD = Struct("<I").unpack_from
_UNPACK_DOUBLE = Struct("<Q").unpack_from


class MemoryAccessError(Exception):
    """Raised on out-of-range accesses when ranges are enforced."""

    def __init__(self, address, size, kind):
        super().__init__(f"{kind} access fault at {address:#x} (size {size})")
        self.address = address
        self.size = size
        self.kind = kind


class SparseMemory:
    """Byte-addressable sparse memory with optional legal-range enforcement."""

    def __init__(self, ranges=None):
        """``ranges`` is an optional list of ``(base, size)`` legal windows;
        ``None`` makes the whole 64-bit space accessible."""
        self._pages = {}
        self._ranges = list(ranges) if ranges else None
        self._last_range = (1, 0)  # empty window; replaced on first hit

    def add_range(self, base, size):
        """Whitelist an additional legal window."""
        if self._ranges is None:
            self._ranges = []
        self._ranges.append((base, size))

    def in_range(self, address, size=1):
        """True when ``[address, address+size)`` lies in a legal window.

        Consecutive accesses overwhelmingly hit the same window (straight-
        line fetch, data-segment loads), so the last matching window is
        checked first before scanning the list.
        """
        if self._ranges is None:
            return True
        end = address + size
        base, limit = self._last_range
        if base <= address and end <= limit:
            return True
        for base, window in self._ranges:
            if base <= address and end <= base + window:
                self._last_range = (base, base + window)
                return True
        return False

    def _check(self, address, size, kind):
        if not self.in_range(address, size):
            raise MemoryAccessError(address, size, kind)

    def _page(self, index):
        page = self._pages.get(index)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[index] = page
        return page

    def load(self, address, size, kind="load"):
        """Read ``size`` bytes, little-endian, as an unsigned integer."""
        if not self.in_range(address, size):
            raise MemoryAccessError(address, size, kind)
        offset = address & PAGE_MASK
        if offset + size <= PAGE_SIZE:
            page = self._pages.get(address >> PAGE_SHIFT)
            if page is None:
                return 0
            if size == 4:
                return _UNPACK_WORD(page, offset)[0]
            if size == 8:
                return _UNPACK_DOUBLE(page, offset)[0]
            return int.from_bytes(page[offset : offset + size], "little")
        return int.from_bytes(self.load_bytes(address, size, check=False), "little")

    def store(self, address, size, value, kind="store"):
        """Write ``size`` bytes, little-endian."""
        self._check(address, size, kind)
        data = (value & ((1 << (size * 8)) - 1)).to_bytes(size, "little")
        self.store_bytes(address, data, check=False)

    def load_bytes(self, address, size, check=True):
        """Read a raw byte string (page-crossing allowed)."""
        if check:
            self._check(address, size, "load")
        out = bytearray()
        remaining = size
        cursor = address
        while remaining:
            offset = cursor & PAGE_MASK
            chunk = min(PAGE_SIZE - offset, remaining)
            page = self._pages.get(cursor >> PAGE_SHIFT)
            if page is None:
                out.extend(b"\x00" * chunk)
            else:
                out.extend(page[offset : offset + chunk])
            cursor += chunk
            remaining -= chunk
        return bytes(out)

    def store_bytes(self, address, data, check=True):
        """Write a raw byte string (page-crossing allowed)."""
        if check:
            self._check(address, len(data), "store")
        cursor = address
        view = memoryview(data)
        while view:
            offset = cursor & PAGE_MASK
            chunk = min(PAGE_SIZE - offset, len(view))
            page = self._page(cursor >> PAGE_SHIFT)
            page[offset : offset + chunk] = view[:chunk]
            cursor += chunk
            view = view[chunk:]

    def load_word(self, address):
        """Fetch a 32-bit instruction word (fetch fault kind)."""
        return self.load(address, 4, kind="fetch")

    def write_program(self, address, words):
        """Store a sequence of 32-bit instruction words starting at address."""
        blob = b"".join(word.to_bytes(4, "little") for word in words)
        self.store_bytes(address, blob, check=False)

    def snapshot_pages(self):
        """Deep copy of the page dict, for hardware snapshots."""
        return {index: bytes(page) for index, page in self._pages.items()}

    def restore_pages(self, pages):
        """Restore a snapshot created by :meth:`snapshot_pages`."""
        self._pages = {index: bytearray(page) for index, page in pages.items()}

    @property
    def resident_bytes(self):
        """Bytes of actually-allocated backing store."""
        return len(self._pages) * PAGE_SIZE
