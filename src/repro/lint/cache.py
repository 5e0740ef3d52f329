"""Content-hash memoization for the whole-program phase.

Phase 2 of the engine (symbol table + call graph + project passes) is
the expensive part of ``lint --strict``. Its result is a pure function
of (a) the bytes of every indexed file, (b) the set of project passes
and their rules, and (c) the engine version — so the cache key is a
single digest over exactly those, and a hit returns the previously
computed findings without building the index at all. Any edit to any
linted file changes the key and forces a clean recompute; there is no
per-file invalidation to get wrong.

The cache lives in one JSON file (default
``<repo>/.lint_cache.json``, gitignored) holding the most recent
:data:`_MAX_ENTRIES` keys so alternating targets (the CI lints
``src/repro tools benchmarks`` for text *and* SARIF output) both stay
warm. All I/O errors are swallowed: a broken or read-only cache means
a cold run, never a wrong result.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.lint.findings import Finding

#: Bump when index/pass semantics change in a way the key cannot see.
_CACHE_VERSION = 2

#: Most-recently-used keys kept in the cache file.
_MAX_ENTRIES = 4


def default_cache_path() -> Path:
    """The cache file next to the repo root."""
    from repro.lint.engine import repo_root

    return repo_root() / ".lint_cache.json"


class IndexCache:
    """One-file findings cache keyed by content hashes."""

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        self.hits = 0
        self.misses = 0

    def key(self, sources: Sequence, project_passes: Sequence) -> str:
        """Digest of file contents + pass identities + engine version."""
        digest = hashlib.sha256()
        digest.update(f"v{_CACHE_VERSION}".encode())
        for src in sorted(sources, key=lambda s: s.rel_path):
            digest.update(src.rel_path.encode())
            digest.update(
                hashlib.sha256(src.text.encode("utf-8")).digest()
            )
        for project_pass in project_passes:
            digest.update(project_pass.name.encode())
            digest.update(",".join(project_pass.rules).encode())
        return digest.hexdigest()

    def load(self, key: str) -> Optional[Tuple[List[Finding], dict]]:
        """Memoized ``(findings, stats)`` for ``key``; ``None`` on miss."""
        entry = self._read().get(key)
        if entry is None:
            self.misses += 1
            return None
        try:
            findings = [
                Finding(
                    path=item["path"],
                    line=int(item["line"]),
                    rule=item["rule"],
                    message=item["message"],
                )
                for item in entry["findings"]
            ]
            stats = entry.get("stats") or {}
            if not isinstance(stats, dict):
                stats = {}
        except (KeyError, TypeError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return findings, stats

    def save(
        self, key: str, findings: Sequence[Finding], stats: dict
    ) -> None:
        """Record ``findings`` under ``key``, pruning old entries."""
        data = self._read()
        data.pop(key, None)
        data[key] = {
            "findings": [f.to_dict() for f in findings],
            "stats": dict(stats),
        }
        while len(data) > _MAX_ENTRIES:
            # dicts preserve insertion order: drop the oldest key.
            data.pop(next(iter(data)))
        try:
            self.path.write_text(
                json.dumps({"version": _CACHE_VERSION, "entries": data})
                + "\n",
                encoding="utf-8",
            )
        except OSError:
            pass  # read-only checkout: stay cold, stay correct.

    def _read(self) -> dict:
        try:
            raw = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return {}
        if raw.get("version") != _CACHE_VERSION:
            return {}
        entries = raw.get("entries")
        return entries if isinstance(entries, dict) else {}
