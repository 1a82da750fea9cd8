"""Sparse, page-granular byte-addressable memory.

Backing storage is a dict of 4 KiB bytearray pages, so multi-gigabyte
address spaces (the board's 32 GB DDR4) cost only what is touched.  The
fuzzing harness maps an instruction segment and a data segment; anything
outside the mapped ranges faults, which feeds the access-fault exception
paths of the DUT.

Consecutive accesses overwhelmingly hit the same legal window
(straight-line fetch, data-segment loads), so the memory remembers the
last window a data access hit (:attr:`SparseMemory.window`) and the last
one a fetch hit (:attr:`SparseMemory.fetch_window`).  A load or store of
1, 2, 4 or 8 bytes inside its window and inside one page is one window
check plus one ``unpack_from``/``pack_into`` on the page;
:meth:`repro.ref.executor.Executor.step` fetches with the same check
against the fetch window, inline.  Everything else (the first access in
another window, a page-crossing access, another size, a fault) takes the
byte-wise path.
"""

from struct import Struct, pack

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = PAGE_SIZE - 1

# The window of a memory without legal ranges: every address an access
# can form (0 .. 2**64 - 1, plus the access size) lies inside it.
_UNBOUNDED = (0, 1 << 65)
_NO_WINDOW = (1, 0)  # empty; replaced on the first hit

# Little-endian readers and writers by access size.
_STRUCTS = {size: Struct(code) for size, code in ((1, "<B"), (2, "<H"), (4, "<I"), (8, "<Q"))}
_UNPACK = {size: struct.unpack_from for size, struct in _STRUCTS.items()}
_PACK = {size: struct.pack_into for size, struct in _STRUCTS.items()}
_SIZE_MASK = {size: (1 << (size * 8)) - 1 for size in _STRUCTS}
UNPACK_WORD = _UNPACK[4]


class MemoryAccessError(Exception):
    """Raised on out-of-range accesses when ranges are enforced."""

    def __init__(self, address, size, kind):
        super().__init__(f"{kind} access fault at {address:#x} (size {size})")
        self.address = address
        self.size = size
        self.kind = kind


class SparseMemory:
    """Byte-addressable sparse memory with optional legal-range enforcement.

    ``pages`` maps a page number to its bytearray; ``window`` and
    ``fetch_window`` are the ``(base, end)`` of the last legal window a
    data access and a fetch hit.
    """

    def __init__(self, ranges=None):
        """``ranges`` is an optional list of ``(base, size)`` legal windows;
        ``None`` makes the whole 64-bit space accessible."""
        self.pages = {}
        self._ranges = list(ranges) if ranges else None
        self.window = self.fetch_window = (
            _UNBOUNDED if self._ranges is None else _NO_WINDOW)

    def add_range(self, base, size):
        """Whitelist an additional legal window."""
        if self._ranges is None:
            self._ranges = []
            self.window = self.fetch_window = _NO_WINDOW
        self._ranges.append((base, size))

    def _legal_window(self, address, size):
        """The ``(base, end)`` of the legal window holding
        ``[address, address+size)``, or None."""
        if self._ranges is None:
            return _UNBOUNDED
        end = address + size
        for base, window in self._ranges:
            if base <= address and end <= base + window:
                return base, base + window
        return None

    def _check(self, address, size, kind):
        """Raise unless the data access lies in a legal window, which
        becomes :attr:`window`."""
        base, end = self.window
        if base <= address and address + size <= end:
            return
        window = self._legal_window(address, size)
        if window is None:
            raise MemoryAccessError(address, size, kind)
        self.window = window

    def _page(self, index):
        page = self.pages.get(index)
        if page is None:
            page = self.pages[index] = bytearray(PAGE_SIZE)
        return page

    def load(self, address, size, kind="load"):
        """Read ``size`` bytes, little-endian, as an unsigned integer."""
        base, end = self.window
        offset = address & PAGE_MASK
        if not (base <= address and address + size <= end):
            self._check(address, size, kind)
        if offset + size <= PAGE_SIZE and size in _UNPACK:
            page = self.pages.get(address >> PAGE_SHIFT)
            return 0 if page is None else _UNPACK[size](page, offset)[0]
        return int.from_bytes(self.load_bytes(address, size, check=False), "little")

    def store(self, address, size, value, kind="store"):
        """Write ``size`` bytes, little-endian."""
        base, end = self.window
        offset = address & PAGE_MASK
        if not (base <= address and address + size <= end):
            self._check(address, size, kind)
        if offset + size <= PAGE_SIZE and size in _PACK:
            page = self.pages.get(address >> PAGE_SHIFT)
            if page is None:
                page = self._page(address >> PAGE_SHIFT)
            _PACK[size](page, offset, value & _SIZE_MASK[size])
            return
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
            page = self.pages.get(cursor >> PAGE_SHIFT)
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
        """Fetch a 32-bit instruction word (fetch fault kind); the legal
        window it lies in becomes :attr:`fetch_window`."""
        base, end = self.fetch_window
        if not (base <= address and address + 4 <= end):
            window = self._legal_window(address, 4)
            if window is None:
                raise MemoryAccessError(address, 4, "fetch")
            self.fetch_window = window
        return int.from_bytes(self.load_bytes(address, 4, check=False), "little")

    def write_program(self, address, words):
        """Store a sequence of 32-bit instruction words starting at address."""
        self.store_bytes(address, pack(f"<{len(words)}I", *words), check=False)

    def snapshot_pages(self):
        """Deep copy of the page dict, for hardware snapshots."""
        return {index: bytes(page) for index, page in self.pages.items()}

    def restore_pages(self, pages):
        """Restore a snapshot created by :meth:`snapshot_pages`."""
        self.pages = {index: bytearray(page) for index, page in pages.items()}

    @property
    def resident_bytes(self):
        """Bytes of actually-allocated backing store."""
        return len(self.pages) * PAGE_SIZE
