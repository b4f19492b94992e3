"""The benchmark's reference kernel: a fixed unit of host work.

The op times this benchmark reports are divided by the wall time of this
kernel, measured right before and right after each op, so that a slow
phase of the host (which stretches the op and the kernel alike) cancels
out of the reported ratio.

The kernel is deliberately independent of the program under test: it
never imports ``repro``, and every array, archive and file it touches is
made once, at construction, from a fixed seed.  Its source is pinned by sha256 in
``pins.json``; editing this file changes the unit every ``op_ref`` figure
is expressed in, so it is an explicit re-baseline (regenerate the pin with
``python3 perfbench/pin.py`` and say so in the change).
"""

import hashlib
import io
import json
import os
import time
import zlib

import numpy as np

#: Small-array numpy calls per run (the per-call overhead the program pays).
NUMPY_CALLS = 800
#: Dict/list/json rounds per run (object churn of the interpreter).
OBJECT_ROUNDS = 160
#: Float64 elements copied, sorted and prefix-summed per run.
ARRAY_SIZE = 100_000
#: In-memory ``.npz`` archives (of 30 small arrays) parsed per run.
ARCHIVE_PARSES = 8
#: Small files the kernel owns, and how often a run lists, stats and reads them all.
FILES = 40
DIRECTORY_SCANS = 20


class ReferenceKernel:
    """About 50 ms of interpreter, numpy and file-system work that never changes.

    The mix follows what the ops spend time on: small numpy calls, dict and
    list building and serialisation, hashing and compression, a sort over
    a preallocated array, parsing compressed ``.npz`` archives, and
    listing, stat-ing and reading small files.  Measured on a 2-vCPU host,
    this mix tracked the ops' slow phases more evenly across the workloads
    than any one of its parts (see README.md).  Every array, the archive
    and the files are made once, at construction, from a fixed seed; the
    files go under ``directory``.
    """

    def __init__(self, directory: str) -> None:
        rng = np.random.default_rng(20240917)
        self._small = rng.random(64)
        self._grid = np.sort(rng.random(256))
        self._blob = rng.integers(0, 4, 200_000, dtype=np.uint8).tobytes()
        self._source = rng.random(ARRAY_SIZE)
        self._work = np.empty(ARRAY_SIZE)
        self._sums = np.empty(ARRAY_SIZE)
        buffer = io.BytesIO()
        np.savez_compressed(buffer, **{f"c{i}": rng.random(50) for i in range(30)})
        self._archive = buffer.getvalue()
        self._directory = os.path.join(directory, "refkernel")
        os.makedirs(self._directory, exist_ok=True)
        payload = rng.integers(0, 256, 2000, dtype=np.uint8).tobytes()
        for i in range(FILES):
            with open(os.path.join(self._directory, f"f{i:02d}.bin"), "wb") as handle:
                handle.write(payload)

    def run(self) -> float:
        """Run the kernel once; return its wall time in seconds."""
        started = time.perf_counter()
        total = 0.0
        for i in range(NUMPY_CALLS):
            scaled = self._small * 1.5
            total += float(scaled.sum()) + int(np.searchsorted(self._grid, scaled)[i % 64])
        for _ in range(OBJECT_ROUNDS):
            table = {f"k{j}": (j, j * 0.5, "v") for j in range(20)}
            sorted(table.items(), key=lambda item: item[1][1])
            json.dumps(table)
        hashlib.sha256(self._blob).digest()
        zlib.compress(self._blob, 6)
        np.copyto(self._work, self._source)
        self._work.sort()
        np.cumsum(self._work, out=self._sums)
        for _ in range(ARCHIVE_PARSES):
            with np.load(io.BytesIO(self._archive)) as archive:
                for name in archive.files:
                    archive[name]
        for _ in range(DIRECTORY_SCANS):
            for name in sorted(os.listdir(self._directory)):
                path = os.path.join(self._directory, name)
                os.stat(path)
                with open(path, "rb") as handle:
                    handle.read()
        return time.perf_counter() - started


def source_sha256() -> str:
    """sha256 of this file's bytes (the pinned identity of the kernel)."""
    with open(os.path.abspath(__file__), "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()
