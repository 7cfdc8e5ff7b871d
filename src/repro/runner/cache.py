"""On-disk result cache for experiment jobs.

One JSON file per job under ``.repro_cache/`` (override with
``REPRO_CACHE_DIR`` or the ``cache_dir`` argument), named by the job's
config hash.  The hash already folds in the source-tree fingerprint,
so editing any ``repro`` module invalidates every entry without a
manual flush.  Records keep the cold-run wall time next to the payload.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Dict, Optional

from repro.runner.job import Job, canonical_json

DEFAULT_CACHE_DIR = ".repro_cache"


def default_cache_dir() -> str:
    return os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)


class ResultCache:
    """JSON file-per-key cache with hit/miss accounting."""

    def __init__(self, cache_dir: Optional[str] = None):
        self.cache_dir = cache_dir or default_cache_dir()
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> str:
        return os.path.join(self.cache_dir, f"{key}.json")

    def get(self, job: Job) -> Optional[Dict[str, Any]]:
        """The stored record for ``job``, or None.  Counts hit/miss."""
        path = self._path(job.config_hash())
        try:
            with open(path, "r", encoding="utf-8") as fh:
                record = json.load(fh)
        except (OSError, ValueError):
            self.misses += 1
            return None
        if not isinstance(record, dict) or "payload" not in record:
            self.misses += 1
            return None
        self.hits += 1
        return record

    def put(self, job: Job, payload: Dict[str, Any], wall_s: float) -> None:
        """Store a result atomically (write-temp + rename)."""
        os.makedirs(self.cache_dir, exist_ok=True)
        record = {
            "experiment": job.experiment,
            "entry": job.entry,
            "scheme": job.scheme,
            "seed": job.seed,
            "params": dict(job.params),
            "payload": payload,
            "wall_s": wall_s,
        }
        path = self._path(job.config_hash())
        fd, tmp = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(canonical_json(record))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
