"""The BLAS thread policy: every public call runs BLAS on one thread and
hands the caller's OpenBLAS thread counts back unchanged, also when calls
nest, raise, or run concurrently from several threads."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import numpy.testing as npt
import pytest

from symlra import numerics, pipeline
from symlra.catalecticant import catalecticant_spectrum
from symlra.numerics import LMConfig, blas_threads, one_blas_thread
from symlra.pipeline import approximate, decompose, refine
from symlra.tensors import Decomposition, perturb, random_low_rank


@pytest.fixture
def set_caller_threads():
    """Setter for the caller's count of every OpenBLAS copy; the counts
    found before the test are put back after it."""
    before = blas_threads()
    if not before:
        pytest.skip("no OpenBLAS with a thread-count API is loaded")

    def set_all(n):
        numerics._set_blas_threads(dict.fromkeys(before, n))
        assert blas_threads() == dict.fromkeys(before, n)
        return blas_threads()

    yield set_all
    numerics._set_blas_threads(before)


@pytest.fixture
def lm_thread_counts(monkeypatch):
    """Thread counts seen at the start of every LM run of the pipeline."""
    seen = []
    original = pipeline.levenberg_marquardt

    def recording(*args, **kwargs):
        seen.append(blas_threads())
        return original(*args, **kwargs)

    monkeypatch.setattr(pipeline, "levenberg_marquardt", recording)
    return seen


def noisy(n, m, r, seed):
    F0, _ = random_low_rank(n, m, r, seed=seed)
    return perturb(F0, 1e-3, seed=seed + 100)


def random_start(n, m, r, seed):
    rng = np.random.default_rng(seed)
    return Decomposition(m, rng.standard_normal((r, n))
                         + 1j * rng.standard_normal((r, n)))


@pytest.mark.parametrize("caller", [1, 2])
def test_caller_counts_restored_after_return_and_raise(set_caller_threads, caller):
    counts = set_caller_threads(caller)
    F = noisy(4, 3, 2, seed=1)
    approximate(F, 2)
    assert blas_threads() == counts
    decompose(F, 2, restarts=1)
    assert blas_threads() == counts
    refine(F, random_start(4, 3, 2, seed=2), LMConfig(max_iterations=5))
    assert blas_threads() == counts
    catalecticant_spectrum(F)
    assert blas_threads() == counts
    with pytest.raises(ValueError, match="restarts"):
        approximate(F, 2, restarts=-1)
    assert blas_threads() == counts
    with pytest.raises(ValueError, match="restarts"):
        decompose(F, 2, restarts=-1)
    assert blas_threads() == counts


def test_one_thread_inside_a_call(set_caller_threads, lm_thread_counts):
    counts = set_caller_threads(2)
    approximate(noisy(4, 3, 2, seed=3), 2)
    assert lm_thread_counts
    assert all(seen == dict.fromkeys(counts, 1) for seen in lm_thread_counts)
    assert blas_threads() == counts


def test_nested_calls_restore_only_at_the_outermost_exit(set_caller_threads):
    counts = set_caller_threads(2)
    one = dict.fromkeys(counts, 1)
    F = noisy(4, 3, 2, seed=4)
    with one_blas_thread:
        assert blas_threads() == one
        approximate(F, 2)       # approximate -> refine, both nested here
        assert blas_threads() == one
        with one_blas_thread:
            decompose(F, 2)
        assert blas_threads() == one
    assert blas_threads() == counts


def test_concurrent_calls_keep_one_thread_and_restore(set_caller_threads,
                                                      lm_thread_counts):
    counts = set_caller_threads(2)
    instances = [noisy(4, 3, 2, seed=10 + k) for k in range(32)]
    expected = [approximate(F, 2).refined.vectors for F in instances]
    serial_runs = len(lm_thread_counts)
    lm_thread_counts.clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        # more workers than cores, so entries and exits interleave
        with ThreadPoolExecutor(max_workers=4) as ex:
            futures = [ex.submit(approximate, F, 2) for F in instances]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert len(lm_thread_counts) == serial_runs >= len(instances)
    assert all(seen == dict.fromkeys(counts, 1) for seen in lm_thread_counts)
    assert blas_threads() == counts
    for res, vectors in zip(results, expected):
        npt.assert_array_equal(res.refined.vectors, vectors)


def _results(F, start):
    res = approximate(F, 3, seed=5)
    rr = refine(F, start, LMConfig(max_iterations=30))
    return (res.gp.vectors, res.refined.vectors, res.err_gp, res.err_opt,
            rr.decomposition.vectors, rr.error)


def test_results_do_not_depend_on_the_caller_count(set_caller_threads):
    F, start = noisy(6, 4, 3, seed=6), random_start(6, 4, 3, seed=7)
    set_caller_threads(1)
    single = _results(F, start)
    set_caller_threads(2)
    double = _results(F, start)
    for a, b in zip(single, double):
        npt.assert_array_equal(a, b)


def test_scope_without_openblas_is_a_no_op(set_caller_threads, monkeypatch):
    F, start = noisy(6, 4, 3, seed=6), random_start(6, 4, 3, seed=7)
    counts = set_caller_threads(1)
    scoped = _results(F, start)
    monkeypatch.setattr(numerics, "_openblas", lambda: {})
    with one_blas_thread:
        assert blas_threads() == {}
    unscoped = _results(F, start)
    for a, b in zip(scoped, unscoped):
        npt.assert_array_equal(a, b)
    monkeypatch.undo()
    assert blas_threads() == counts


def test_discovery_without_proc_finds_nothing(monkeypatch):
    def missing(*args, **kwargs):
        raise FileNotFoundError("/proc/self/maps")

    monkeypatch.setattr(numerics, "open", missing, raising=False)
    assert numerics._openblas.__wrapped__() == {}
