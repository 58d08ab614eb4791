"""Link-layer and network-layer addressing.

IPv4 addresses reuse :class:`ipaddress.IPv4Address` from the standard
library; :func:`ip` is a terse constructor.  MAC addresses get a small
value class with string formatting and parsing.
"""

import ipaddress


def ip(text):
    """Build an :class:`ipaddress.IPv4Address` from dotted-quad text."""
    return ipaddress.IPv4Address(text)


class MacAddress:
    """A 48-bit IEEE MAC address (EUI-48)."""

    __slots__ = ("value",)

    BROADCAST_VALUE = 0xFFFFFFFFFFFF

    def __init__(self, value):
        if isinstance(value, MacAddress):
            value = value.value
        elif isinstance(value, str):
            value = int(value.replace(":", "").replace("-", ""), 16)
        if not 0 <= value <= self.BROADCAST_VALUE:
            raise ValueError(f"MAC value out of range: {value!r}")
        self.value = value

    @classmethod
    def broadcast(cls):
        """The all-ones broadcast address ff:ff:ff:ff:ff:ff."""
        return cls(cls.BROADCAST_VALUE)

    @classmethod
    def from_index(cls, index, oui=0x020000):
        """Deterministically allocate a locally administered MAC.

        ``oui`` defaults to a locally-administered prefix (the 0x02 bit);
        ``index`` fills the lower 24 bits, which is plenty for a testbed.
        """
        if not 0 <= index < (1 << 24):
            raise ValueError(f"index out of range: {index!r}")
        return cls((oui << 24) | index)

    @property
    def is_broadcast(self):
        return self.value == self.BROADCAST_VALUE

    def __eq__(self, other):
        if isinstance(other, MacAddress):
            return self.value == other.value
        return NotImplemented

    def __hash__(self):
        return hash(self.value)

    def __str__(self):
        raw = f"{self.value:012x}"
        return ":".join(raw[i : i + 2] for i in range(0, 12, 2))

    def __repr__(self):
        return f"MacAddress('{self}')"
