"""Thin HTTP client for the sweep service (urllib, no dependencies).

The client talks to a single daemon.  Its base URL resolves in order:
an explicit ``url=`` argument, the ``REPRO_SERVICE_URL`` environment
variable, then the ``daemon.json`` advertisement the daemon writes in
its service root — so on one machine, ``ServiceClient()`` just works.
"""

from __future__ import annotations

import json
import os
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from repro.service.jobs import default_service_dir

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(RuntimeError):
    """An API call failed (connection refused, 4xx/5xx, bad JSON)."""

    def __init__(self, message: str, status: Optional[int] = None):
        super().__init__(message)
        self.status = status


def _discover_url(root: Union[str, Path, None] = None) -> str:
    env = os.environ.get("REPRO_SERVICE_URL", "").strip()
    if env:
        return env.rstrip("/")
    path = Path(root) if root is not None else default_service_dir()
    try:
        data = json.loads((path / "daemon.json").read_text())
        return f"http://{data['host']}:{data['port']}"
    except (OSError, json.JSONDecodeError, KeyError, TypeError):
        raise ServiceError(
            "no daemon address: pass url=, set REPRO_SERVICE_URL, or "
            f"start one with 'python -m repro.service serve' "
            f"(looked for {path / 'daemon.json'})") from None


class ServiceClient:
    """Synchronous JSON-over-HTTP client for :mod:`repro.service`."""

    def __init__(self, url: Optional[str] = None,
                 root: Union[str, Path, None] = None,
                 timeout: float = 60.0):
        self.url = url.rstrip("/") if url else _discover_url(root)
        self.timeout = timeout

    # -- transport ------------------------------------------------------
    def _call(self, method: str, path: str,
              payload: Optional[Dict[str, Any]] = None,
              timeout: Optional[float] = None) -> Dict[str, Any]:
        body = json.dumps(payload).encode() if payload is not None \
            else None
        request = urllib.request.Request(
            self.url + path, data=body, method=method,
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(
                    request,
                    timeout=timeout if timeout is not None
                    else self.timeout) as response:
                return json.loads(response.read().decode())
        except urllib.error.HTTPError as exc:
            try:
                detail = json.loads(exc.read().decode()).get("error", "")
            except (OSError, ValueError):  # body may be anything
                detail = ""
            raise ServiceError(
                f"{method} {path} -> {exc.code}: {detail or exc.reason}",
                status=exc.code) from None
        except (urllib.error.URLError, OSError) as exc:
            raise ServiceError(
                f"cannot reach service at {self.url}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ServiceError(
                f"{method} {path}: non-JSON response: {exc}") from None

    # -- API ------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        return self._call("GET", "/healthz")

    def submit(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        """Submit a job spec dict; returns the created job record."""
        return self._call("POST", "/jobs", payload=spec)["job"]

    def jobs(self) -> List[Dict[str, Any]]:
        return self._call("GET", "/jobs")["jobs"]

    def job(self, job_id: str) -> Dict[str, Any]:
        return self._call("GET", f"/jobs/{job_id}")["job"]

    def events(self, job_id: str, since: int = 0,
               timeout: float = 30.0) -> Dict[str, Any]:
        """One long-poll round: ``{"events": [...], "next": N,
        "status": ...}``."""
        return self._call(
            "GET", f"/jobs/{job_id}/events?since={since}"
                   f"&timeout={timeout}",
            timeout=timeout + self.timeout)

    def result(self, job_id: str) -> Dict[str, Any]:
        """The matrix export of a completed job."""
        return self._call("GET", f"/jobs/{job_id}/result")["result"]

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._call("POST", f"/jobs/{job_id}/cancel")["job"]

    # -- conveniences ---------------------------------------------------
    def watch(self, job_id: str, poll_timeout: float = 30.0,
              on_event: Optional[Callable[[Dict[str, Any]], None]] = None,
              ) -> Dict[str, Any]:
        """Stream events until the job reaches a terminal state.

        Returns the final job record.  ``on_event`` (when given) is
        called with every event dict as it arrives.
        """
        cursor = 0
        while True:
            page = self.events(job_id, since=cursor,
                               timeout=poll_timeout)
            for event in page["events"]:
                if on_event is not None:
                    on_event(event)
            cursor = page["next"]
            if page["status"] in ("done", "failed", "cancelled"):
                return self.job(job_id)

    def wait(self, job_id: str, timeout: float = 3600.0,
             interval: float = 0.2) -> Dict[str, Any]:
        """Poll the record until terminal; returns it (tests/scripts)."""
        deadline = time.monotonic() + timeout
        while True:
            record = self.job(job_id)
            if record["status"] in ("done", "failed", "cancelled"):
                return record
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"job {job_id} still {record['status']} after "
                    f"{timeout}s")
            time.sleep(interval)

