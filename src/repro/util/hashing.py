"""Consistent hashing (Karger et al.), used by the embedding protocol.

The REFER actuator-ID-assignment step elects the actuator with the
minimum consistent-hash value of its address as the *starting server*
(Section III-B1); :func:`consistent_hash` provides the stable hash.
"""

from __future__ import annotations

import hashlib

#: Width of the hash space: values lie in ``[0, 2**SPACE_BITS)``.
SPACE_BITS = 64


def consistent_hash(key: str) -> int:
    """A stable hash of ``key`` into ``[0, 2**SPACE_BITS)``.

    Stability across processes and Python versions matters because node
    IDs derived from the hash must be reproducible; the built-in
    ``hash()`` is salted per process and therefore unsuitable.
    """
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest, "big") >> (256 - SPACE_BITS)
