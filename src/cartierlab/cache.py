"""Content-addressed result cache.

Keys are canonical JSON of (operation description, engine version); values
are canonical JSON documents.  Writers go through write-then-atomic-rename
so concurrent processes never observe partial files; corrupted entries are
recomputed and overwritten with a warning.
"""

import hashlib
import json
import logging
import os
import tempfile

log = logging.getLogger("cartierlab.cache")

ENGINE_VERSION = "cartierlab-0.1.0"


def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class ResultCache:
    def __init__(self, directory, engine_version=ENGINE_VERSION):
        self.directory = directory
        self.engine_version = engine_version
        self.hits = 0
        self.misses = 0
        os.makedirs(directory, exist_ok=True)

    def _path(self, key):
        payload = canonical_json({"key": key, "version": self.engine_version})
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        return os.path.join(self.directory, f"{digest}.json")

    def lookup(self, key):
        """The stored value for ``key``, or None on a miss."""
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            return self._miss()
        except (json.JSONDecodeError, OSError) as ex:
            log.warning("corrupted cache entry %s (%s); recomputing", path, ex)
            return self._miss()
        if (doc.get("engine_version") != self.engine_version
                or doc.get("key") != key):
            return self._miss()
        self.hits += 1
        return doc.get("value")

    def _miss(self):
        self.misses += 1
        return None

    def store(self, key, value):
        path = self._path(key)
        doc = {"engine_version": self.engine_version, "key": key,
               "value": value}
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(canonical_json(doc))
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
