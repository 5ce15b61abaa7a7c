"""perfbench's tracer finds every polyred function it wraps by name.

`perfbench/tracing.py` wraps 33 functions and methods, looked up in their
module or class dictionary.  A function renamed, moved or deleted in src/
makes `install` raise, which breaks `perfbench/run.py --trace 1`; this
test runs `install` and its undo so such a change fails here first.  The
tracer is loaded from its file and nothing in perfbench/ is modified.
"""

import importlib.util
import os
import sys

import polyred.attrs
import polyred.cli  # noqa: F401  (install wraps cli.main from sys.modules)
import polyred.elim

TRACING = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "perfbench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _holder(modname, owner):
    holder = sys.modules[modname]
    return holder if owner is None else getattr(holder, owner)


def test_every_tracer_target_resolves_and_undoes():
    tracing = _load_tracing()
    assert len(tracing.TARGETS) == 33
    originals = [_holder(mod, owner).__dict__[attr]
                 for mod, owner, attr, _, _ in tracing.TARGETS]
    resultant = polyred.attrs.resultant
    undo = tracing.install(tracing.Recorder())
    try:
        for (mod, owner, attr, _, _), fn in zip(tracing.TARGETS, originals):
            wrapped = _holder(mod, owner).__dict__[attr]
            assert wrapped is not fn and wrapped.__wrapped__ is fn, attr
        # the import site perfbench/test_harness.py checks
        assert polyred.attrs.resultant is polyred.elim.resultant is not resultant
    finally:
        undo()
    assert [_holder(mod, owner).__dict__[attr]
            for mod, owner, attr, _, _ in tracing.TARGETS] == originals
    assert polyred.attrs.resultant is resultant
