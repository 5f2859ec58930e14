"""Failure injection: one call of the six-pair scenario fails, the rest of the run holds.

Each case wraps every backend family and the cache's ``get`` and ``put``, and
raises one error class at one chosen call of one of them: the first, the
middle or the last call of that site in a clean run. The failing pair
must report the injected class, or pass where the contract absorbs the
failure: the executor retries every backend call that raises
BackendUnavailable, so an error that heals is absorbed at all five backend
sites. Every other pair's result file must keep the clean run's bytes;
``errors.json`` must carry the failing pair's completed calls; and the run
must leave no thread behind.
"""

from __future__ import annotations

import collections
import errno
import json
import threading
import types

import pytest

import e2e_scenario
from halodet.cache import DiskCache
from halodet.errors import AuthFailure, BackendUnavailable, InvalidImage, StoreCorrupt
from halodet.executor import run_batch, write_run_dir
from halodet.gateway import ModelGateway
from halodet.stages import DetectionMethod
from halodet.tools import ToolBackendSet

_SCRIPTS = e2e_scenario.build_scripts()
_BACKENDS = {  # site: (backend class, method)
    "invoke": (e2e_scenario.RecordingModelBackend, "invoke"),
    "detect": (e2e_scenario.RecordingDetector, "detect"),
    "answer": (e2e_scenario.RecordingAnswerer, "answer"),
    "read": (e2e_scenario.RecordingReader, "read"),
    "search": (e2e_scenario.RecordingSearcher, "search"),
}


def _enospc(message):
    return OSError(errno.ENOSPC, message)


class _Injector:
    """Counts the calls of one site and raises ``error`` at the ``at``-th.

    A persistent error also fails every later call with the same arguments,
    so the executor's retries of that call fail too.
    """

    def __init__(self, site, at, error, persistent):
        self.site, self.at, self.error, self.persistent = site, at, error, persistent
        self.counts = collections.Counter()
        self.failed_args = None
        self._lock = threading.Lock()

    def wrap(self, site, call):
        def injected(*args):
            with self._lock:
                self.counts[site] += 1
                chosen = site == self.site and self.counts[site] == self.at
                if chosen:
                    self.failed_args = args
                repeated = (self.persistent and site == self.site
                            and self.failed_args == args)
            if chosen or repeated:
                raise self.error(f"injected at {site} call {self.at}")
            return call(*args)
        return injected


class _Cache(DiskCache):
    def __init__(self, directory, injector):
        super().__init__(directory)
        self.get = injector.wrap("get", super().get)
        self.put = injector.wrap("put", super().put)


def _owner(site, args):
    """The id of the pair a backend call belongs to, from its arguments."""
    if site == "invoke":
        model = e2e_scenario.RecordingModelBackend(_SCRIPTS)
        return model._script_for(args[0].prompt.user).pair.id
    if site == "search":
        [owner] = [s.pair.id for s in _SCRIPTS if args[0] in s.fact_results]
        return owner
    [owner] = [s.pair.id for s in _SCRIPTS if s.pair.image.digest == args[0].digest]
    return owner


def _run(tmp_path, name, width, injector):
    def backend(site):
        cls, method = _BACKENDS[site]
        real = cls(_SCRIPTS)
        return types.SimpleNamespace(backend_id=real.backend_id,
                                     **{method: injector.wrap(site, getattr(real, method))})

    tools = ToolBackendSet(object_detector=backend("detect"),
                           attribute_answerer=backend("answer"),
                           scene_text_reader=backend("read"),
                           fact_searcher=backend("search"))
    gateway = ModelGateway(backend("invoke"), sleep=lambda _: None)
    baseline = threading.active_count()
    outcome = run_batch([s.pair for s in _SCRIPTS], DetectionMethod.UNIHD, tools, gateway,
                        cache=_Cache(tmp_path / f"cache-{name}", injector), width=width)
    assert threading.active_count() == baseline
    return outcome, write_run_dir(tmp_path, name, outcome, DetectionMethod.UNIHD, {})


def _records(trace):
    return {(r["stage"], r["input_digest"], r["output_digest"]) for r in trace}


# (name, site, error, persistent, absorbed): the executor retries any backend
# call that heals; a corrupt read is recomputed and a failed put logged. Only
# BackendUnavailable is retried, so a rejected search key fails its pair.
_CASES = [
    *[(f"{site}-{kind}", site, error, persistent, kind == "heals")
      for site in _BACKENDS
      for kind, error, persistent in (("persistent", BackendUnavailable, True),
                                      ("heals", BackendUnavailable, False),
                                      ("invalid-image", InvalidImage, True))],
    ("search-auth", "search", AuthFailure, False, False),
    ("get-corrupt", "get", StoreCorrupt, False, True),
    ("put-enospc", "put", _enospc, False, True),
]


class TestFailureInjection:
    @pytest.mark.parametrize("width", [1, 4])
    def test_one_failed_call_touches_only_its_pair(self, tmp_path, width):
        clean_injector = _Injector(None, 0, None, False)
        clean, clean_dir = _run(tmp_path, "clean", width, clean_injector)
        assert not clean.failures and len(clean.results) == len(_SCRIPTS)
        clean_traces = json.loads((clean_dir / "manifest.json").read_text())["traces"]
        assert set(clean_injector.counts) == {*_BACKENDS, "get", "put"}

        for name, site, error, persistent, absorbed in _CASES:
            # The first, the middle and the last call of the site in the clean run.
            calls = clean_injector.counts[site]
            for at in sorted({1, (calls + 1) // 2, calls}):
                case = f"{name}-{at}"
                injector = _Injector(site, at, error, persistent)
                _, run_dir = _run(tmp_path, case, width, injector)
                assert injector.failed_args is not None, case
                errors = json.loads((run_dir / "errors.json").read_text())
                failed = set() if absorbed else {_owner(site, injector.failed_args)}
                assert {e["pair_id"] for e in errors} == failed, case
                for entry in errors:
                    assert entry["error_type"] == error.__name__, case
                    completed = _records(entry["trace"])
                    assert completed, case
                    assert completed <= _records(clean_traces[entry["pair_id"]]), case
                for script in _SCRIPTS:
                    pair_file = f"{script.pair.id}.json"
                    if script.pair.id in failed:
                        assert not (run_dir / pair_file).exists(), case
                    else:
                        assert (run_dir / pair_file).read_bytes() == \
                            (clean_dir / pair_file).read_bytes(), case
