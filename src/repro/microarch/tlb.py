"""Translation lookaside buffers.

Each TLB caches recent page translations.  Entries are modeled bit-exactly
for injection purposes: the virtual tag, the physical page number, and the
permission flags each occupy dedicated bit ranges of the entry (the paper
observes that flips in the *physical page* field produce wrong translations
and high vulnerability, while flips in the *virtual tag* mostly cause
spurious misses with near-zero AVF - both behaviours fall out of this
model).

Per-entry bit map (``entry_bits`` = 128 by default, matching the paper's
512-byte, 32-entry A9 TLBs):

====== ==========================
bits   field
====== ==========================
0-19   virtual page number (tag)
20-39  physical page number
40-44  permission flags V/R/W/X/U
45-127 attributes (modeled as unused; flips are masked)
====== ==========================
"""

from __future__ import annotations

from repro.errors import InjectionError
from repro.microarch.config import TLBGeometry

_VPN_BITS = 20
_PPN_BITS = 20
_PERM_BITS = 5

VPN_FIELD = range(0, _VPN_BITS)
PPN_FIELD = range(_VPN_BITS, _VPN_BITS + _PPN_BITS)
PERM_FIELD = range(_VPN_BITS + _PPN_BITS, _VPN_BITS + _PPN_BITS + _PERM_BITS)


class TLBEntry:
    """One TLB entry."""

    __slots__ = ("vpn", "ppn", "perms", "valid", "stamp")

    def __init__(self):
        self.vpn = 0
        self.ppn = 0
        self.perms = 0
        self.valid = False
        self.stamp = 0

    def __repr__(self) -> str:
        return (
            f"TLBEntry(vpn={self.vpn:#x}, ppn={self.ppn:#x}, "
            f"perms={self.perms:#x}, valid={self.valid})"
        )


class TLB:
    """A fully-associative TLB with LRU replacement.

    A ``vpn -> entry`` dict accelerates lookups; it is rebuilt whenever an
    injected fault rewrites an entry's tag.  ``version`` increments on any
    content change so the core can invalidate derived state.
    """

    def __init__(self, name: str, geometry: TLBGeometry):
        self.name = name
        self.geometry = geometry
        self.entries = [TLBEntry() for _ in range(geometry.entries)]
        self._map: dict[int, TLBEntry] = {}
        self._clock = 0
        self.version = 0
        self.accesses = 0
        self.misses = 0
        #: Optional taint probe (:mod:`repro.observability.taint`).
        self.probe = None

    def lookup(self, vpn: int) -> TLBEntry | None:
        """Return the valid entry for ``vpn``, or None on a miss."""
        self.accesses += 1
        entry = self._map.get(vpn)
        if entry is None or not entry.valid or entry.vpn != vpn:
            self.misses += 1
            return None
        self._clock += 1
        entry.stamp = self._clock
        if self.probe is not None:
            self.probe.on_lookup(self, entry)
        return entry

    def fill(self, vpn: int, ppn: int, perms: int) -> TLBEntry:
        """Install a translation, evicting the LRU entry if needed.

        Refilling an already-present vpn updates that entry in place (a
        real TLB never holds two entries with the same tag).
        """
        victim = self._map.get(vpn)
        if victim is None:
            victim = self.entries[0]
            for entry in self.entries:
                if not entry.valid:
                    victim = entry
                    break
                if entry.stamp < victim.stamp:
                    victim = entry
        if victim.valid:
            self._map.pop(victim.vpn, None)
        if self.probe is not None:
            # Before the victim's fields are overwritten by the new entry.
            self.probe.on_fill(self, victim)
        self._clock += 1
        victim.vpn = vpn
        victim.ppn = ppn
        victim.perms = perms
        victim.valid = True
        victim.stamp = self._clock
        self._map[vpn] = victim
        self.version += 1
        return victim

    def flush(self) -> None:
        if self.probe is not None:
            self.probe.on_flush(self)
        for entry in self.entries:
            entry.valid = False
        self._map.clear()
        self.version += 1

    def occupancy(self) -> float:
        return sum(1 for e in self.entries if e.valid) / len(self.entries)

    # -- fault injection interface -------------------------------------------

    @property
    def data_bits(self) -> int:
        return self.geometry.data_bits

    def bit_live(self, bit_index: int) -> bool:
        """Whether flipping ``bit_index`` could be observed.

        ``True`` for a live field of a valid entry (tag, physical page, or
        permissions); ``False`` for an invalid entry or the unused
        attribute bits.  Reads nothing but the entry's state.
        """
        entry_bits = self.geometry.entry_bits
        bit = bit_index % entry_bits
        live = bit in VPN_FIELD or bit in PPN_FIELD or bit in PERM_FIELD
        return live and self.entries[bit_index // entry_bits].valid

    def flip_bit(self, bit_index: int) -> bool:
        """Flip one bit of one entry; returns :meth:`bit_live` for it."""
        if not 0 <= bit_index < self.data_bits:
            raise InjectionError(f"{self.name}: bit index {bit_index} out of range")
        live = self.bit_live(bit_index)
        entry_bits = self.geometry.entry_bits
        entry = self.entries[bit_index // entry_bits]
        bit = bit_index % entry_bits

        if bit in VPN_FIELD:
            old_vpn = entry.vpn
            entry.vpn ^= 1 << (bit - VPN_FIELD.start)
            if entry.valid:
                self._map.pop(old_vpn, None)
                # The corrupted tag now (mis)matches a different page.
                self._map[entry.vpn] = entry
            self.version += 1
        elif bit in PPN_FIELD:
            entry.ppn ^= 1 << (bit - PPN_FIELD.start)
            self.version += 1
        elif bit in PERM_FIELD:
            entry.perms ^= 1 << (bit - PERM_FIELD.start)
            self.version += 1
        return live
