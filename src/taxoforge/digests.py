"""SHA-256 and BLAKE2b from CPython's built-in modules, not from ``hashlib``.

``import hashlib`` loads ``_hashlib``, which maps OpenSSL's ``libcrypto``
(about 3.3 MB resident) to compute digests CPython also builds in. The
built-in constructors take the same arguments and give the same digests. A
build without one of them falls back to ``hashlib``'s constructor.
"""

from __future__ import annotations

try:
    from _blake2 import blake2b
except ImportError:
    from hashlib import blake2b
try:
    from _sha2 import sha256  # CPython 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

__all__ = ["blake2b", "sha256"]
