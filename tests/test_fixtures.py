"""The worked examples of ``modfix.fixtures`` against hand-built references.

Each ``ref_*`` below builds its example from the library's constructors, as
the fixtures once did by hand.  On both backends every fixture must carry
the same constants, start point, graph and modular, and its map must give
the same image, bit for bit, on a grid of ints, Fractions and floats.
"""

from dataclasses import dataclass
from fractions import Fraction as F
from typing import Optional

import pytest

from modfix import fixtures
from modfix.backend import EXACT, FLOAT, Backend
from modfix.contractions import (BanachConstants, KannanConstants, SelfMap,
                                 scalar_map)
from modfix.graphs import SpaceGraph, make_complete
from modfix.modular import ModularSpec, Point, abs_norm, power


@dataclass(frozen=True)
class Ref:
    spec: ModularSpec
    f: SelfMap
    graph: SpaceGraph
    constants: object
    x0: Point


def ref_banach_linear(backend: Backend) -> Ref:
    n = backend.number
    third = n("1/3")
    return Ref(spec=abs_norm(),
               f=scalar_map(lambda t: t * third, "x -> x/3"),
               graph=make_complete(),
               constants=BanachConstants(k=n("2/3"), a=n("1/2"), b=n(1)),
               x0=(n(1),))


def ref_kannan_piecewise(backend: Backend) -> Ref:
    n = backend.number
    half, tenth = n("1/2"), n("1/10")
    return Ref(spec=power(2),
               f=scalar_map(lambda t: tenth if t == 1 else half,
                            "x -> 1/10 if x = 1 else 1/2"),
               graph=make_complete(),
               constants=KannanConstants(k=n("64/81"), l=n("16/81"),
                                         a1=n("1/2"), a2=n(1), b=n(1)),
               x0=(n(1),))


def ref_isometry(backend: Backend) -> Ref:
    n = backend.number
    one = n(1)
    return Ref(spec=abs_norm(),
               f=scalar_map(lambda t: t + one, "x -> x + 1"),
               graph=make_complete(),
               constants=BanachConstants(k=n("99/100"), a=n("1/2"), b=n(1)),
               x0=(n(0),))


def ref_kannan_small_k(backend: Backend) -> Ref:
    n = backend.number
    spike = n("1/100")
    zero = n(0)
    return Ref(spec=power(2),
               f=scalar_map(lambda t: spike if t == 1 else zero,
                            "x -> 1/100 if x = 1 else 0"),
               graph=make_complete(),
               constants=KannanConstants(k=n("1/4"), l=n("1/2"), a1=n("1/2"),
                                         a2=n(1), b=n(1)),
               x0=(n(3),))


REFS = {"banach_linear": ref_banach_linear,
        "kannan_piecewise": ref_kannan_piecewise,
        "isometry": ref_isometry,
        "kannan_small_k": ref_kannan_small_k}

GRID = ([-3, -1, 0, 1, 2, 7]
        + [F(i, 3) for i in range(-4, 5)] + [F(1, 100), F(-7, 10)]
        + [-2.5, -1.0, -0.0, 0.0, 1.0, 0.1, 1 / 3, 1e300, -1e-300])


@pytest.mark.parametrize("backend", [EXACT, FLOAT], ids=["exact", "float"])
@pytest.mark.parametrize("name", REFS)
def test_fixture_matches_its_reference(name, backend):
    fx, ref = getattr(fixtures, name)(backend), REFS[name](backend)
    assert repr(fx.constants) == repr(ref.constants)
    assert repr(fx.solve.x0) == repr(ref.x0)
    assert fx.graph.kind == ref.graph.kind
    # the label is left out: it spells p as the config's number (2 or 2.0)
    assert (fx.spec.family, fx.spec.p, fx.spec.weights) == \
        (ref.spec.family, ref.spec.p, ref.spec.weights)
    for v in GRID:
        image, want = fx.map((v,)), ref.f((v,))
        if name == "banach_linear" and repr(v) == "-0.0":
            # the one difference: the affine map's + 0 turns -0.0 into 0.0
            assert (repr(image), repr(want)) == ("(0.0,)", "(-0.0,)")
        else:
            assert repr(image) == repr(want), v
