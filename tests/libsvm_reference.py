"""Frozen per-field form of ``data.parse_libsvm``, which now converts and
checks whole blocks: one conversion and one check per field, in file
order, the first refusal raised where it stands.  It is the loop as it was
written before the bulk reader, plus the index limit (2**63 - 1) that the
bulk reader's int64 conversion enforces.  The tests compare the library's
reader against it: the same arrays and dtypes, or the same refusal."""

import numpy as np
import scipy.sparse as sp

from rsgkit.data import _number, _records, _refusal
from rsgkit.problems import Dataset

MAX_INDEX = 2**63 - 1


def parse_libsvm(source, dim=None):
    labels = []
    indptr = [0]
    indices = []
    values = []
    max_index = 0
    for where, fields in _records(source):
        labels.append(_number(float, "label", fields[0], where, 0))
        prev = 0
        for k in range(1, len(fields)):
            idx_s, sep, val_s = fields[k].partition(":")
            if not sep:
                raise _refusal(f"expected idx:value, got {fields[k]!r}", where, k)
            idx = _number(int, "index", idx_s, where, k)
            if idx < 1:
                raise _refusal(f"index {idx} must be >= 1", where, k)
            if idx > MAX_INDEX:
                raise _refusal(f"index {idx} exceeds the largest index {MAX_INDEX}", where, k)
            if idx == prev:
                raise _refusal(f"duplicate index {idx}", where, k)
            if idx < prev:
                raise _refusal(f"index {idx} out of order (previous was {prev})", where, k)
            if dim is not None and idx > dim:
                message = f"feature index {idx} exceeds the declared dimension {dim}"
                raise _refusal(message, where, k)
            values.append(_number(float, "value", val_s, where, k, len(idx_s) + 1))
            indices.append(idx - 1)
            prev = idx
        if prev > max_index:
            max_index = prev
        indptr.append(len(indices))
    X = sp.csr_matrix(
        (np.array(values), np.array(indices, dtype=int), np.array(indptr, dtype=int)),
        shape=(len(labels), max_index if dim is None else dim),
    )
    return Dataset(X, np.array(labels))
