"""The one JSON-over-HTTP client behind the remote embedding and chat backends.

Connection errors (a reply that breaks off or has no valid status line among
them), timeouts, 429 and 5xx are retried after 1 s, 2 s, 4 s, ...; any other
status, a URL that cannot be sent to, and a 2xx whose body is not a JSON
object, fail at once. Every failure raises ``BackendError``. Requests
go through the standard library's ``urllib.request``, which honours
``HTTP(S)_PROXY``/``NO_PROXY`` and ``SSL_CERT_FILE``; one connection is
opened per request.

``in_order`` runs independent requests side by side, at most
``MAX_IN_FLIGHT`` at once, starts the next one as soon as any finishes and
hands the results back in input order.
"""

from __future__ import annotations

import json
import os
import re
from concurrent.futures import ThreadPoolExecutor
from itertools import islice
from queue import SimpleQueue
from time import sleep
from urllib.parse import urlsplit

from .errors import BackendError

API_KEY_ENV = "TAXOFORGE_API_KEY"
MAX_ATTEMPTS = 3
MAX_IN_FLIGHT = 6  # socketserver's backlog of 5 queues 6 unaccepted connects; a 7th can wait 1 s
# the characters http.client refuses in a URL
_UNSENDABLE = re.compile("[\x00-\x20\x7f]")


def in_order(fn, items):
    """Yield ``fn(item)`` for every item, in input order, running up to ``MAX_IN_FLIGHT`` at once.

    The next call starts as soon as any call finishes, and its item is taken
    from ``items`` only after the finished call's in-order results have been
    handed back, so a lazy iterable that stops early starts nothing more. A
    call that raised re-raises at its place in the order, once the calls
    still running have finished; no further item is started once a call has
    raised, as every item up to it has started. Closing the generator early
    likewise starts nothing more and waits for the calls still running.
    """
    items = enumerate(items)
    finished = SimpleQueue()
    running = {}
    ahead = {}
    taken = 0
    failed = False
    with ThreadPoolExecutor(max_workers=MAX_IN_FLIGHT) as pool:

        def start(n):
            for k, item in islice(items, 0 if failed else n):
                future = pool.submit(fn, item)
                running[future] = k
                future.add_done_callback(finished.put)

        start(MAX_IN_FLIGHT)
        while running:
            future = finished.get()
            failed = failed or future.exception() is not None
            ahead[running.pop(future)] = future
            while taken in ahead:
                yield ahead.pop(taken).result()
                taken += 1
            start(1)


def check_url(url: str) -> None:
    """Raise ``ValueError`` unless ``url`` is an http or https URL with a host and a valid port.

    A space or a control character anywhere in it is refused too, as
    ``http.client`` refuses it at send time; ``urlsplit`` drops some of them.
    """
    bad = _UNSENDABLE.search(url)
    if bad:
        raise ValueError(f"URL can't contain a space or control character (found {bad.group()!r})")
    parts = urlsplit(url)
    parts.port  # raises on a port that is not a number from 0 to 65535
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise ValueError("not an http or https URL")


def post_json(url: str, payload: dict, *, timeout: float, retries: int) -> dict:
    """POST ``payload`` in at most ``retries`` attempts; return the response's JSON object."""
    # imported here: runs that make no HTTP call should not pay for importing urllib.request
    from http.client import HTTPException, InvalidURL
    from urllib.error import HTTPError, URLError
    from urllib.request import Request, urlopen

    try:
        check_url(url)
        data = json.dumps(payload, allow_nan=False).encode("utf-8")
    except ValueError as exc:
        raise BackendError(f"POST {url}: {exc}") from exc
    headers = {"Content-Type": "application/json"}
    if os.environ.get(API_KEY_ENV):
        headers["Authorization"] = f"Bearer {os.environ[API_KEY_ENV]}"
    request = Request(url, data, headers, method="POST")
    for attempt in range(1, retries + 1):
        if attempt > 1:
            sleep(2 ** (attempt - 2))
        last = attempt == retries
        try:
            try:
                with urlopen(request, timeout=timeout) as resp:
                    status, raw = resp.status, resp.read()
            except HTTPError as exc:
                with exc:
                    status, raw = exc.code, exc.read()
        except (OSError, HTTPException, ValueError) as exc:
            # connection errors, timeouts and broken replies are retried;
            # a URL or a header that cannot be sent is not
            cause = exc.reason if isinstance(exc, URLError) else exc
            broken = isinstance(cause, (OSError, HTTPException)) and not isinstance(cause, InvalidURL)
            if not last and broken:
                continue
            raise BackendError(f"POST {url} failed on attempt {attempt}: {exc}") from exc
        if not 200 <= status < 300:
            if not last and (status == 429 or status >= 500):
                continue
            message = f"POST {url} failed on attempt {attempt}: HTTP {status}"
            raise BackendError(message, status, raw.decode("utf-8", "replace"))
        try:
            body = json.loads(raw)
        except (ValueError, RecursionError) as exc:
            text = raw.decode("utf-8", "replace")
            raise BackendError(f"POST {url}: response is not JSON", status, text) from exc
        if not isinstance(body, dict):
            text = raw.decode("utf-8", "replace")
            raise BackendError(f"POST {url}: response is not a JSON object", status, text)
        return body
    raise BackendError(f"POST {url}: retries must be at least 1")
