"""JSON formats for tensors and decompositions.

Tensor documents::

    {"n": 3, "m": 3, "format": "compact",
     "entries": [{"alpha": [0, 0], "re": -8.0, "im": 0.0}, ...]}

    {"n": 3, "m": 3, "format": "full",
     "entries": [{"index": [1, 1, 2], "re": 2.0, "im": 0.0}, ...]}

Compact entries are keyed by exponent over the trailing n-1 variables;
full entries by a 1-based position tuple.  Omitted entries are zero.
Full input is symmetrized-checked on read: all listed positions of one
symmetry class must agree (a class that is only partially listed counts
as asymmetric, since missing positions are zero).

Decomposition documents::

    {"n": 4, "m": 4, "rank": 8,
     "vectors": [[{"re": 1.0, "im": 0.0}, ...], ...]}
"""

import json

import numpy as np

from .tensors import (SymTensor, Decomposition, table, compact_from_full,
                      full_from_compact)


def _plain(val, kind):
    # a JSON true/false is not a number
    return isinstance(val, kind) and not isinstance(val, bool)


def _object(entry):
    if not isinstance(entry, dict):
        raise ValueError(f"entry {entry!r} must be a JSON object")
    return entry


def _want(doc, key, kind):
    if key not in _object(doc):
        raise ValueError(f"missing key {key!r}")
    val = doc[key]
    if kind is int and not _plain(val, int):
        raise ValueError(f"key {key!r} must be an integer, got {val!r}")
    if kind is list and not isinstance(val, list):
        raise ValueError(f"key {key!r} must be a list")
    return val


def _complex_of(entry):
    parts = [_object(entry).get(key, 0.0) for key in ("re", "im")]
    if not all(_plain(v, (int, float)) for v in parts):
        raise ValueError(f"re/im must be numbers, got {entry!r}")
    return complex(*parts)


def tensor_to_dict(F, form="compact"):
    """Serializable dict for a tensor; zero entries are omitted."""
    if form == "compact":
        entries = [
            {"alpha": list(alpha), "re": float(v.real), "im": float(v.imag)}
            for alpha, v in zip(F.table.alphas, F.values) if v != 0
        ]
    elif form == "full":
        dense = full_from_compact(F)
        entries = [
            {"index": [int(i) + 1 for i in idx],
             "re": float(dense[idx].real), "im": float(dense[idx].imag)}
            for idx in np.ndindex(dense.shape) if dense[idx] != 0
        ]
    else:
        raise ValueError(f"unknown tensor format {form!r}")
    return {"n": F.n, "m": F.m, "format": form, "entries": entries}


def tensor_from_dict(doc):
    if not isinstance(doc, dict):
        raise ValueError("tensor document must be a JSON object")
    n = _want(doc, "n", int)
    m = _want(doc, "m", int)
    form = doc.get("format", "compact")
    entries = _want(doc, "entries", list)
    if n < 1 or m < 1:
        raise ValueError(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    if form == "compact":
        tab = table(n, m)
        values = np.zeros(len(tab), dtype=complex)
        seen = set()
        for entry in entries:
            alpha = _want(entry, "alpha", list)
            if not all(_plain(a, int) for a in alpha) or tuple(alpha) not in tab.index:
                raise ValueError(f"exponent {alpha} is not valid for n={n}, m={m}")
            alpha = tuple(alpha)
            if alpha in seen:
                raise ValueError(f"duplicate entry for exponent {list(alpha)}")
            seen.add(alpha)
            values[tab.index[alpha]] = _complex_of(entry)
        return SymTensor(n, m, values)
    if form == "full":
        dense = np.zeros((n,) * m, dtype=complex)
        for entry in entries:
            index = _want(entry, "index", list)
            if len(index) != m or not all(
                    _plain(i, int) and 1 <= i <= n for i in index):
                raise ValueError(
                    f"index {index} is not a valid 1-based position for n={n}, m={m}")
            dense[tuple(i - 1 for i in index)] = _complex_of(entry)
        return compact_from_full(dense)
    raise ValueError(f"unknown tensor format {form!r}")


def decomposition_to_dict(d):
    return {
        "n": d.n, "m": d.m, "rank": d.rank,
        "vectors": [
            [{"re": float(z.real), "im": float(z.imag)} for z in row]
            for row in d.vectors
        ],
    }


def decomposition_from_dict(doc):
    if not isinstance(doc, dict):
        raise ValueError("decomposition document must be a JSON object")
    n = _want(doc, "n", int)
    m = _want(doc, "m", int)
    rank = _want(doc, "rank", int)
    rows = _want(doc, "vectors", list)
    if len(rows) != rank:
        raise ValueError(f"rank is {rank} but {len(rows)} vectors are listed")
    vectors = np.zeros((rank, n), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise ValueError(f"vector {i} must be a list of {n} entries")
        vectors[i] = [_complex_of(z) for z in row]
    return Decomposition(m, vectors)


def read_tensor(path):
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise ValueError(f"{path}: not valid JSON ({e})") from e
    return tensor_from_dict(doc)


def dumps(payload):
    """Canonical JSON text: stable key order, two-space indent, newline."""
    return json.dumps(payload, indent=2) + "\n"
