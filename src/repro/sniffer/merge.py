"""Multi-sniffer merging.

A single monitor-mode capture misses frames; the paper wires three
sniffers to the same switch (clock-synchronised) and merges their
captures into one authoritative timeline.  :func:`merge_records`
reproduces the merge: union the records, deduplicate physical
transmissions, and return them in time order.
"""


def merge_records(*sniffers):
    """Merge the capture records of several
    :class:`~repro.sniffer.sniffer.WirelessSniffer` objects.  Returns
    deduplicated records sorted by capture time."""
    seen = set()
    merged = []
    for sniffer in sniffers:
        for record in sniffer.records:
            key = record.dedup_key()
            if key in seen:
                continue
            seen.add(key)
            merged.append(record)
    merged.sort(key=lambda record: (record.time, record.frame.src_mac.value))
    return merged
