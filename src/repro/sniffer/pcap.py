"""Reading and writing pcap capture files.

Implements the classic libpcap format (magic ``0xa1b2c3d4``, version
2.4, microsecond timestamps) so that captures produced by the simulated
sniffers are genuine pcap files.
"""

import struct

PCAP_MAGIC = 0xA1B2C3D4
PCAP_VERSION = (2, 4)

LINKTYPE_RAW = 101  # raw IPv4/IPv6
LINKTYPE_IEEE802_11 = 105  # 802.11 without radiotap

_GLOBAL_HEADER = struct.Struct("<IHHiIII")
_RECORD_HEADER = struct.Struct("<IIII")


class PcapWriter:
    """Writes pcap records to a binary file object or path."""

    def __init__(self, target, linktype=LINKTYPE_IEEE802_11, snaplen=65535):
        if hasattr(target, "write"):
            self._file = target
            self._owns_file = False
        else:
            self._file = open(target, "wb")
            self._owns_file = True
        self.linktype = linktype
        self.snaplen = snaplen
        self.records_written = 0
        self._file.write(_GLOBAL_HEADER.pack(
            PCAP_MAGIC, PCAP_VERSION[0], PCAP_VERSION[1],
            0, 0, snaplen, linktype,
        ))

    def write(self, timestamp, data):
        """Append one record captured at ``timestamp`` (float seconds)."""
        seconds = int(timestamp)
        micros = int(round((timestamp - seconds) * 1e6))
        if micros >= 1_000_000:
            seconds += 1
            micros -= 1_000_000
        captured = data[: self.snaplen]
        self._file.write(_RECORD_HEADER.pack(
            seconds, micros, len(captured), len(data),
        ))
        self._file.write(captured)
        self.records_written += 1

    def close(self):
        if self._owns_file:
            self._file.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False


class PcapReader:
    """Iterates ``(timestamp, data)`` records from a pcap file."""

    def __init__(self, target):
        if hasattr(target, "read"):
            self._file = target
            self._owns_file = False
        else:
            self._file = open(target, "rb")
            self._owns_file = True
        header = self._file.read(_GLOBAL_HEADER.size)
        if len(header) < _GLOBAL_HEADER.size:
            self.close()
            raise ValueError("truncated pcap global header")
        fields = _GLOBAL_HEADER.unpack(header)
        if fields[0] != PCAP_MAGIC:
            self.close()
            raise ValueError(f"bad pcap magic {fields[0]:#x} "
                             "(byte-swapped captures not supported)")
        self.version = (fields[1], fields[2])
        self.snaplen = fields[5]
        self.linktype = fields[6]

    def __iter__(self):
        return self

    def __next__(self):
        header = self._file.read(_RECORD_HEADER.size)
        if not header:
            self.close()
            raise StopIteration
        if len(header) < _RECORD_HEADER.size:
            raise ValueError("truncated pcap record header")
        seconds, micros, incl_len, _orig_len = _RECORD_HEADER.unpack(header)
        data = self._file.read(incl_len)
        if len(data) < incl_len:
            raise ValueError("truncated pcap record body")
        return seconds + micros * 1e-6, data

    def close(self):
        if self._owns_file:
            self._file.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False
