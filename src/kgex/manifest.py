"""Run provenance: every CLI command leaves a manifest beside its outputs."""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ENGINE_VERSION = "0.1.0"


def file_digest(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class RunManifest:
    """Collects command, resolved configuration, seeds, digests, timing, peak memory and counters."""

    def __init__(self, command: str, argv: list[str]) -> None:
        self.data: dict = {
            "command": command,
            "argv": argv,
            "engine_version": ENGINE_VERSION,
            "inputs": {},
            "outputs": {},
            "config": {},
        }
        self._t0 = time.monotonic()

    def set_config(self, **config) -> None:
        self.data["config"].update(_jsonable(config))

    @contextmanager
    def stage(self, name: str):
        """Record the wall time of the enclosed block as `stages_s[name]`."""
        t0 = time.monotonic()
        yield
        self.data.setdefault("stages_s", {})[name] = round(time.monotonic() - t0, 6)

    def count(self, **counters: int) -> None:
        self.data.setdefault("counters", {}).update(counters)

    def add_input(self, path: str | Path) -> None:
        self.data["inputs"][str(path)] = file_digest(path)

    def add_output(self, path: str | Path) -> None:
        self.data["outputs"][str(path)] = file_digest(path)

    def write(self, path: str | Path) -> None:
        self.data["duration_s"] = round(time.monotonic() - self._t0, 3)
        # this process's peak resident memory so far, and the largest of its ended children's:
        # explain's workers, or a launcher's run before exec (`ru_maxrss`: B on macOS, else KiB)
        per_mib = 1 << (20 if sys.platform == "darwin" else 10)
        for key, who in ("peak_rss_mib", resource.RUSAGE_SELF), ("workers_peak_rss_mib", resource.RUSAGE_CHILDREN):
            self.data[key] = round(resource.getrusage(who).ru_maxrss / per_mib, 1)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.data, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "tolist"):
        return value.tolist()
    if hasattr(value, "value") and not isinstance(value, (int, float, str, bool)):
        return value.value  # enums
    return value


def manifest_path(output: str | Path) -> Path:
    return Path(str(output) + ".manifest.json")
