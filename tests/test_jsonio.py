import json

import numpy as np
import numpy.testing as npt
import pytest

from symlra.tensors import SymTensor, compact_size, random_low_rank
from symlra.jsonio import (tensor_to_dict, tensor_from_dict,
                           decomposition_to_dict, decomposition_from_dict,
                           read_tensor, dumps)


@pytest.fixture
def tensor():
    rng = np.random.default_rng(0)
    N = compact_size(3, 3)
    vals = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    vals[2] = 0.0  # exercise omitted-zero handling
    return SymTensor(3, 3, vals)


def test_full_document_size_limit():
    # 2^21 dense entries exceed the limit; 2^20 are read
    with pytest.raises(ValueError, match="more than 1048576 entries"):
        tensor_from_dict({"n": 2, "m": 21, "format": "full", "entries": []})
    F = tensor_from_dict({"n": 2, "m": 20, "format": "full", "entries": []})
    assert (F.n, F.m) == (2, 20)


@pytest.mark.parametrize("form", ["compact", "full"])
def test_tensor_round_trip(tensor, form):
    G = tensor_from_dict(json.loads(dumps(tensor_to_dict(tensor, form))))
    assert (G.n, G.m) == (3, 3)
    npt.assert_allclose(G.values, tensor.values, atol=1e-15)


def test_compact_zero_entries_are_omitted(tensor):
    doc = tensor_to_dict(tensor)
    assert len(doc["entries"]) == compact_size(3, 3) - 1
    assert all(e["re"] != 0 or e["im"] != 0 for e in doc["entries"])


def test_decomposition_round_trip():
    _, d = random_low_rank(4, 3, 2, seed=1)
    d2 = decomposition_from_dict(json.loads(dumps(decomposition_to_dict(d))))
    assert d2.m == 3 and d2.rank == 2
    npt.assert_allclose(d2.vectors, d.vectors, atol=1e-16)


def test_full_form_rejects_asymmetric_listing():
    # only one position of the (1,1,2) class is listed: the others default
    # to zero, so the dense array is not symmetric
    doc = {"n": 2, "m": 3, "format": "full",
           "entries": [{"index": [1, 1, 2], "re": 1.0, "im": 0.0}]}
    with pytest.raises(ValueError, match="symmetric"):
        tensor_from_dict(doc)


def test_full_form_accepts_complete_class():
    doc = {"n": 2, "m": 3, "format": "full",
           "entries": [{"index": list(p), "re": 1.0, "im": 0.0}
                       for p in [(1, 1, 2), (1, 2, 1), (2, 1, 1)]]}
    F = tensor_from_dict(doc)
    assert F.entry((1,)) == 1.0
    assert F.entry((0,)) == 0.0


@pytest.mark.parametrize("doc,msg", [
    ({"m": 3, "entries": []}, "missing key 'n'"),
    ({"n": 3, "m": 3}, "missing key 'entries'"),
    ({"n": "3", "m": 3, "entries": []}, "must be an integer"),
    ({"n": True, "m": 3, "entries": []}, "must be an integer"),
    ({"n": 0, "m": 3, "entries": []}, "n >= 1"),
    ({"n": 2, "m": 2, "format": "sparse", "entries": []}, "unknown tensor format"),
    ({"n": 2, "m": 2, "entries": [{"alpha": [5], "re": 1.0}]}, "not valid"),
    ({"n": 2, "m": 2, "entries": [{"alpha": [1], "re": "x"}]}, "must be numbers"),
    ({"n": 2, "m": 2,
      "entries": [{"alpha": [1], "re": 1.0}, {"alpha": [1], "re": 2.0}]},
     "duplicate"),
    ({"n": 2, "m": 2, "format": "full",
      "entries": [{"index": [0, 1], "re": 1.0}]}, "1-based"),
    ({"n": 2, "m": 2, "format": "full",
      "entries": [{"index": [1], "re": 1.0}]}, "1-based"),
    ({"n": 2, "m": 2, "entries": [5]}, "must be a JSON object"),
    ({"n": 2, "m": 2, "entries": ["alpha"]}, "must be a JSON object"),
    ({"n": 2, "m": 2, "entries": [{"alpha": [[1]]}]}, "not valid"),
    ({"n": 2, "m": 2, "entries": [{"alpha": [True]}]}, "not valid"),
    ({"n": 2, "m": 2, "entries": [{"alpha": [1.0]}]}, "not valid"),
    ({"n": 2, "m": 2, "entries": [{"alpha": [1], "re": True}]}, "must be numbers"),
    ({"n": 2, "m": 2, "entries": [{"alpha": [1], "im": False}]}, "must be numbers"),
    ({"n": 2, "m": 2, "format": "full",
      "entries": [{"index": [True, 1], "re": 1.0}]}, "1-based"),
    ({"n": 2, "m": 2, "format": "full", "entries": [[1, 1]]},
     "must be a JSON object"),
    ({"n": 2, "m": 2, "entries": {}}, "'entries' must be a list"),
    ([{"n": 2, "m": 2, "entries": []}], "tensor document must be a JSON object"),
])
def test_tensor_from_dict_validation(doc, msg):
    with pytest.raises(ValueError, match=msg):
        tensor_from_dict(doc)


def test_tensor_to_dict_rejects_unknown_form(tensor):
    with pytest.raises(ValueError, match="unknown tensor format 'bogus'"):
        tensor_to_dict(tensor, "bogus")


def test_decomposition_from_dict_validation():
    with pytest.raises(ValueError, match="decomposition document must be a JSON object"):
        decomposition_from_dict([{"n": 2, "m": 3, "rank": 0, "vectors": []}])
    with pytest.raises(ValueError, match="rank is 2 but 1"):
        decomposition_from_dict(
            {"n": 2, "m": 3, "rank": 2, "vectors": [[{"re": 1.0}, {"re": 0.0}]]})
    with pytest.raises(ValueError, match="vector 0 must be a list of 2"):
        decomposition_from_dict(
            {"n": 2, "m": 3, "rank": 1, "vectors": [[{"re": 1.0}]]})
    for entry, msg in [(5, "must be a JSON object"), ("re", "must be a JSON object"),
                       ({"re": True}, "must be numbers"),
                       ({"re": 1.0, "im": "0"}, "must be numbers")]:
        with pytest.raises(ValueError, match=msg):
            decomposition_from_dict(
                {"n": 2, "m": 3, "rank": 1, "vectors": [[{"re": 1.0}, entry]]})


def test_read_tensor_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        read_tensor(str(p))


def test_read_tensor_round_trip(tmp_path, tensor):
    p = tmp_path / "t.json"
    p.write_text(dumps(tensor_to_dict(tensor)))
    npt.assert_allclose(read_tensor(str(p)).values, tensor.values, atol=1e-15)


def test_dumps_is_stable():
    payload = {"b": 1, "a": [1.5, None]}
    assert dumps(payload) == dumps(payload)
    assert dumps(payload).endswith("\n")
