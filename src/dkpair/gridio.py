"""File format for user-supplied unitary contraction grids.

Two encodings share one logical layout: a header carrying the axis sizes
(time first, then momentum axes) and the matrix size m, followed by the
complex samples in row-major order (t, k1, ..., row, col).

Binary mode: magic b"DKGRID1\\n", uint32 little-endian ndim (at most 4: time
plus up to three momentum axes), ndim uint32 sizes, uint32 m, then re/im
pairs of little-endian IEEE-754 float64.
Text mode: JSON {"shape": [...], "data": [[re, im], ...]} with the flat
row-major list.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

MAGIC = b"DKGRID1\n"


def write_contraction_grid(path: str, samples: np.ndarray, binary: bool = True):
    samples = np.asarray(samples, dtype=complex)
    if samples.ndim < 3 or samples.shape[-1] != samples.shape[-2]:
        raise ValueError("expected (nt, *sizes, m, m) samples")
    if binary:
        sizes = samples.shape[:-2]
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(np.uint32(len(sizes)).tobytes())
            fh.write(np.asarray(sizes, dtype="<u4").tobytes())
            fh.write(np.uint32(samples.shape[-1]).tobytes())
            # complex128 in memory is the re/im float64 pairs of the format
            fh.write(np.ascontiguousarray(samples, dtype="<c16"))
    else:
        flat = samples.ravel()
        payload = {"shape": list(samples.shape),
                   "data": [[v.real, v.imag] for v in flat]}
        with open(path, "w") as fh:
            json.dump(payload, fh)


def _read_u4(fh, count: int) -> np.ndarray:
    raw = fh.read(4 * count)
    if len(raw) != 4 * count:
        raise ValueError("truncated grid file header")
    return np.frombuffer(raw, dtype="<u4")


def read_contraction_grid(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        head = fh.read(len(MAGIC))
        if head == MAGIC:
            ndim = int(_read_u4(fh, 1)[0])
            if ndim > 4:
                raise ValueError(f"grid file declares {ndim} axes, at most 4")
            sizes = tuple(int(v) for v in _read_u4(fh, ndim))
            m = int(_read_u4(fh, 1)[0])
            count = math.prod(sizes) * m * m
            stored = (os.fstat(fh.fileno()).st_size - fh.tell()) / 8
            if stored != 2 * count:
                raise ValueError(f"grid file holds {stored:g} floats, its header "
                                 f"declares {2 * count}")
            # re/im float64 pairs are the memory layout of complex128
            data = np.fromfile(fh, dtype="<c16", count=count)
            return data.reshape(*sizes, m, m)
    with open(path) as fh:
        payload = json.load(fh)
    shape = tuple(payload["shape"])
    data = payload["data"]
    count = int(np.prod(shape))
    if len(data) != count:
        raise ValueError(f"grid file shape {list(shape)} needs {count} samples, "
                         f"data holds {len(data)}")
    if not all(isinstance(v, list) and len(v) == 2 for v in data):
        raise ValueError("grid file samples must be [re, im] pairs")
    flat = np.asarray(data, dtype=float)
    return (flat[:, 0] + 1j * flat[:, 1]).reshape(shape)
