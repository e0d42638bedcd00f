"""The names the benchmark's tracer patches must exist, on the right classes.

``benchmarks/e2e/e2elib/trace.py`` instruments the program from outside,
by name: it wraps a store method only if the method sits in that class's
own ``vars()``.  A refactor that moves ``get_many`` onto a base class, or
renames a wrapped callable, loses spans silently (PR 13 lost the archive
open spans that way).  This suite imports the tracer read-only and fails
loudly instead.
"""

import contextlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks" / "e2e"))

from e2elib import proxy, trace  # noqa: E402

from test_store_contract import build  # noqa: E402

from repro.storage.cache import CachingFragmentStore, FragmentCache  # noqa: E402
from repro.storage.store import FragmentStore  # noqa: E402

#: Traced layer name -> the store kind (of the contract suite) that records it.
TRACED = {"disk": "sharded", "cache": "caching", "tiered": "tiered",
          "cluster": "cluster", "remote": "http"}


@pytest.fixture
def tracer():
    tracer = trace.Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def test_install_finds_every_name_and_uninstall_restores_it():
    tracer = trace.Tracer()
    tracer.install()  # AttributeError here = a wrapped name no longer exists
    patched = [(owner, attr, original, had) for owner, attr, original, had in tracer._patches]
    assert patched
    tracer.uninstall()
    for owner, attr, original, had in patched:
        assert (attr in vars(owner)) == had, (owner, attr)
        assert getattr(owner, attr) == original, (owner, attr)


def test_the_store_proxy_forwards_the_whole_store_api():
    assert proxy.unforwarded_methods() == []


@pytest.mark.parametrize("layer", TRACED)
def test_each_traced_store_records_its_own_primitive_spans(tracer, tmp_path, layer):
    with contextlib.ExitStack() as stack:
        store = build(TRACED[layer], tmp_path, stack)
        store.put_many([("v", "s0", b"abc"), ("v", "s1", b"de")])
        store.get_many([("v", "s0"), ("v", "s1")])
    spans = {span[trace.ID]: span for span in tracer.spans}

    def named(name):
        return [span for span in spans.values() if span[trace.NAME] == name]

    def ancestors(span):
        while span[trace.PARENT] in spans:
            span = spans[span[trace.PARENT]]
            yield span[trace.NAME]

    assert len(named(f"storage.{layer}.get_many")) == 1
    # put_many is derived: the base's span, with the layer's primitive inside
    (write,) = named(f"storage.{layer}.transact")
    assert "storage.base.put_many" in ancestors(write)
    assert not named(f"storage.{layer}.put_many")


def test_the_cache_hit_path_keeps_its_own_span(tracer):
    store = CachingFragmentStore(FragmentStore(), FragmentCache(1 << 20))
    store.put("v", "s0", b"abc")
    store.get("v", "s0")
    assert [s[trace.NAME] for s in tracer.spans if s[trace.NAME].startswith("storage.cache.")] == [
        "storage.cache.transact", "storage.cache.get",
    ]
