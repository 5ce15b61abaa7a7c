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
from collections import Counter

import polyred.attrs
import polyred.cli  # noqa: F401  (install wraps cli.main from sys.modules)
import polyred.elim
from polyred.certs import CertificateBuilder, verify_certificate
from polyred.examples import builtin_example
from polyred.reduce import to_yagzhev

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


def test_push_and_replay_make_one_traced_call_per_move():
    """CertificateBuilder.push and verify_certificate call apply_move by
    its module name, so the tracer's wrapper sees every move, by kind."""
    tracing = _load_tracing()
    _, trace = to_yagzhev(builtin_example("random-d5-n2").document.to_polymap())
    cert = trace.certificate
    per_kind = Counter(tracing._MOVE_KIND[type(m).__name__] for m in cert.moves)
    assert set(per_kind) == {"extend", "pre", "post", "segre"}
    rec = tracing.Recorder()
    undo = tracing.install(rec)
    try:
        rec.active = True
        builder = CertificateBuilder(cert.source)
        for move in cert.moves:
            builder.push(move)
        pushed = rec.summary()["calls"]
        assert verify_certificate(cert).ok
        replayed = rec.summary()["calls"]
    finally:
        rec.active = False
        undo()
    for kind, k in per_kind.items():
        assert pushed[f"certs.apply_move.{kind}"] == k
        assert replayed[f"certs.apply_move.{kind}"] == 2 * k
