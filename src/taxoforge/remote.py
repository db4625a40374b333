"""The one JSON-over-HTTP client behind the remote embedding and chat backends.

Connection errors, timeouts, 429 and 5xx are retried after 1 s, 2 s, 4 s, ...;
any other status, and a 2xx whose body is not a JSON object, fail at once.
Every failure raises ``BackendError``.

``in_order`` runs independent requests side by side, at most
``MAX_IN_FLIGHT`` at once, and hands their results back in input order.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from itertools import islice
from time import sleep

from .errors import BackendError

API_KEY_ENV = "TAXOFORGE_API_KEY"
MAX_ATTEMPTS = 3
MAX_IN_FLIGHT = 8


def in_order(fn, items):
    """Yield ``fn(item)`` for every item, in input order, running up to ``MAX_IN_FLIGHT`` at once.

    A further item is started only after an earlier item's result has been
    taken. A call that raised re-raises at its place in the order, once the
    calls still running have finished; closing the generator early likewise
    starts nothing more and waits for the calls still running.
    """
    items = iter(items)
    with ThreadPoolExecutor(max_workers=MAX_IN_FLIGHT) as pool:
        running = deque(pool.submit(fn, item) for item in islice(items, MAX_IN_FLIGHT))
        while running:
            yield running.popleft().result()
            running.extend(pool.submit(fn, item) for item in islice(items, 1))


def post_json(url: str, payload: dict, *, timeout: float, retries: int) -> dict:
    """POST ``payload`` in at most ``retries`` attempts; return the response's JSON object."""
    # imported here: runs that make no HTTP call should not pay for importing requests
    import requests

    headers = {"Content-Type": "application/json"}
    if os.environ.get(API_KEY_ENV):
        headers["Authorization"] = f"Bearer {os.environ[API_KEY_ENV]}"
    for attempt in range(1, retries + 1):
        if attempt > 1:
            sleep(2 ** (attempt - 2))
        last = attempt == retries
        try:
            resp = requests.post(url, json=payload, headers=headers, timeout=timeout)
        except requests.RequestException as exc:
            if not last and isinstance(exc, (requests.ConnectionError, requests.Timeout)):
                continue
            raise BackendError(f"POST {url} failed on attempt {attempt}: {exc}") from exc
        status = resp.status_code
        if not resp.ok:
            if not last and (status == 429 or status >= 500):
                continue
            message = f"POST {url} failed on attempt {attempt}: HTTP {status}"
            raise BackendError(message, status, resp.text)
        try:
            body = resp.json()
        except ValueError as exc:
            raise BackendError(f"POST {url}: response is not JSON", status, resp.text) from exc
        if not isinstance(body, dict):
            raise BackendError(f"POST {url}: response is not a JSON object", status, resp.text)
        return body
    raise BackendError(f"POST {url}: retries must be at least 1")
