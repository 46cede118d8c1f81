"""Registered families: expression templates compiled from one tree each."""

import dataclasses
import math
import random

import numpy as np
import pytest

import resonance.model as rm
from resonance import expr as ex

T2PI = 2 * math.pi
T_GRID = (0.0, 1.3, 4.4)

# (family, N, params, {x: float.hex of f(t, x) for t in T_GRID}), recorded
# from the hand-written scalar closures these templates replaced; their
# numpy twins gave the same bits on this grid.  Negative parameters check
# that a substituted value keeps its sign and its place in the precedence.
GOLDEN = [
    ("cubic_band", 2, {"drop": 0.75, "forcing": -0.3, "lift": 1.25}, {
        -2.5: ("-0x1.fd9999999999ap+3", "-0x1.f69167b606584p+3",
               "-0x1.f10cb2e08ac93p+3"),
        -0.01: ("-0x1.3333764f11b60p-2", "-0x1.48b4e772a62c1p-4",
                "0x1.79a5834b215afp-4"),
        0.0: ("-0x1.3333333333333p-2", "-0x1.48b3db032c20bp-4",
              "0x1.79a68fba9b665p-4"),
        0.3: ("0x1.f4a078294fdc0p-5", "0x1.1f9a4b7792268p-2",
              "0x1.d030e62704084p-2"),
        5.0: ("0x1.0f7df135b9529p+3", "0x1.168623194c93fp+3",
              "0x1.1c0ad7eec8230p+3"),
        123.0: ("0x1.12e7df5de4c79p+8", "0x1.132020ed0161ap+8",
                "0x1.134c4693ad3e1p+8"),
    }),
    ("cubic_band", 2, {"drop": 0.75, "forcing": -0.3, "lift": 1.25,
                       "oscillating": False}, {
        -2.5: ("-0x1.fd9999999999ap+3", "-0x1.f69167b606584p+3",
               "-0x1.f10cb2e08ac93p+3"),
        -0.01: ("-0x1.3333764f11b60p-2", "-0x1.48b4e772a62c1p-4",
                "0x1.79a5834b215afp-4"),
        0.0: ("-0x1.3333333333333p-2", "-0x1.48b3db032c20bp-4",
              "0x1.79a68fba9b665p-4"),
        0.3: ("0x1.aa46756e62a46p-3", "0x1.b6297729997d3p-2",
              "0x1.336008ec85af8p-1"),
        5.0: ("0x1.0217a17a17a17p+3", "0x1.091fd35daae2dp+3",
              "0x1.0ea488332671ep+3"),
        123.0: ("0x1.8fa6643bf6ee4p+7", "0x1.9016e75a30226p+7",
                "0x1.906f32a787db5p+7"),
    }),
    ("resonant_edge", 2, {"forcing": -0.4, "offset": 0.8}, {
        -2.5: ("-0x1.0066666666666p+4", "-0x1.f76c8a480875bp+3",
               "-0x1.f010ee80b90c4p+3"),
        -0.01: ("-0x1.9999dcb5781c7p-2", "-0x1.b6463073b4e1bp-4",
                "0x1.f787b333ffd27p-4"),
        0.0: ("-0x1.999999999999ap-2", "-0x1.b64524043ad65p-4",
              "0x1.f788bfa379dddp-4"),
        0.3: ("0x1.5d3d88b09dd3cp-2", "0x1.44a2eca4945bep-1",
              "0x1.ba5ca9198af27p-1"),
        5.0: ("0x1.73d0bd0bd0bd1p+3", "0x1.7d30ff9095143p+3",
              "0x1.848c9b57e47dap+3"),
        123.0: ("0x1.152662ef4da64p+8", "0x1.1571650373c8fp+8",
                "0x1.15ac41e1ae444p+8"),
    }),
    ("linear_resonant", 3, {"forcing": -1.5}, {
        -2.5: ("-0x1.7000000000000p+3", "-0x1.16de8d0e3e916p+3",
               "-0x1.191149febc5fbp+3"),
        -0.01: ("-0x1.8a3d70a3d70a4p+0", "0x1.3ece26ea346b0p+0",
                "0x1.2d383f6645f86p+0"),
        0.0: ("-0x1.8000000000000p+0", "0x1.490b978e0b754p+0",
              "0x1.3775b00a1d02ap+0"),
        0.3: ("-0x1.3333333333334p-2", "0x1.3e1f65609f544p+1",
              "0x1.3554719ea81aep+1"),
        5.0: ("0x1.2800000000000p+4", "0x1.5490b978e0b75p+4",
              "0x1.53775b00a1d03p+4"),
        123.0: ("0x1.ea80000000000p+8", "0x1.ed490b978e0b7p+8",
                "0x1.ed3775b00a1d0p+8"),
    }),
    ("singular_band", 2, {"wobble": -0.5}, {
        0.05: ("-0x1.8799ff5999998p+21", "-0x1.a4878ea8291f2p+20",
               "-0x1.ad79581eb9072p+20"),
        0.7: ("-0x1.ee9527c6b44a3p+2", "-0x1.3dcf4b7d256c7p+2",
              "-0x1.422b5fa3417eep+2"),
        1.0: ("-0x1.8000000000000p-2", "0x1.6d743ed01e8e0p-4",
              "0x1.3e8f2ac5a2b10p-4"),
        3.0: ("0x1.355dc2e5a99cfp+2", "0x1.357d0f9be5ed8p+2",
              "0x1.357c49fe98d99p+2"),
        40.0: ("0x1.03fffbe6c4c59p+6", "0x1.03fffbe712a7cp+6",
               "0x1.03fffbe710bc1p+6"),
    }),
]


@pytest.mark.parametrize(
    "family, n_mode, params, table", GOLDEN,
    ids=["cubic_band", "cubic_band-midband", "resonant_edge",
         "linear_resonant", "singular_band"])
def test_family_values_pinned_in_float_hex(family, n_mode, params, table):
    model = rm.from_family(family, T2PI, n_mode, params)
    for x, want in table.items():
        assert tuple(float(model.f(t, x)).hex() for t in T_GRID) == want, x
        vec = model.f_over_t(np.array(T_GRID), x)
        assert tuple(float(v).hex() for v in vec) == want, x


@pytest.mark.parametrize("family", sorted(rm.FAMILIES))
def test_compiled_family_equals_tree_evaluation(family):
    model = rm.FAMILIES[family]()
    assert model.trees
    split = rm.split_point(model.domain)
    rng = random.Random(11)
    lo = 0.05 if model.domain == rm.SINGULAR else -20.0
    xs = [split, 0.0, -0.0, -0.5, 1e-3] + [rng.uniform(lo, 200.0)
                                           for _ in range(400)]
    for x in xs:
        if x <= 0.0 and model.domain == rm.SINGULAR:
            # the wall is the compiled scalar form's first test
            with pytest.raises(ex.WallError):
                model.f(0.9, x)
            continue
        tree = model.trees[0] if x < split else model.trees[-1]
        for t in (0.0, 0.9, rng.uniform(0.0, T2PI)):
            want = ex.evaluate(tree, t, x)
            assert model.f(t, x).hex() == want.hex(), (t, x)


def test_singular_glued_pair_raises_at_the_wall():
    # one wall test ahead of both pieces; the grid form has none, and at
    # x > 0 the two forms agree bit for bit as before
    model = rm.from_piecewise("2*x - x^-3", "1.625*x + cos(t)", T2PI,
                              rm.SINGULAR, 2)
    for t in (0.0, 1.3):
        for x in (0.0, -0.0, -0.5):
            with pytest.raises(ex.WallError):
                model.f(t, x)
    xs = np.array([1e-3, 0.5, 1.0, 2.0, 37.0])
    grid = model.f_tarr(np.array(T_GRID), xs)
    for row, x in zip(grid, xs.tolist()):
        assert [v.hex() for v in row.tolist()] == [
            model.f(t, x).hex() for t in T_GRID]
    assert np.all(np.isfinite(model.f_tarr(np.array(T_GRID), -0.5)))


def test_linear_resonant_pumps_mode_half_N_plus_one():
    model = rm.from_family("linear_resonant", T2PI, 5, {"forcing": 2.0})
    assert model.n_mode == 5
    # m = 3: slope mu_6 = 9, forcing cos(3 t)
    assert model.f(0.7, 0.0) == 2.0 * math.cos(3.0 * 0.7)
    assert model.f(0.0, 1.0) == 9.0 + 2.0
    with pytest.raises(ValueError, match="odd"):
        rm.from_family("linear_resonant", T2PI, 2)


@pytest.mark.parametrize("model", [rm.make_cubic_band(),
                                   rm.make_singular_band()],
                         ids=["full-line", "singular"])
def test_t_envelope_is_min_and_max_over_t(model):
    # one grid call for all three x, on the flat grid and on the windows
    xs = [0.3, 2.5, 40.0]
    grid = rm.periodic_grid(model.period, rm.ENVELOPE_T_POINTS)
    windows = np.linspace([0.1, 2.0], [0.9, 3.5], 7, axis=1)   # two rows
    want = [model.f_over_t(grid, x) for x in xs]
    want_win = [model.f_over_t(windows.ravel(), x).reshape(2, 7) for x in xs]
    calls = []

    def counted(t, x):
        calls.append((np.shape(t), list(x)))
        return model.f_tarr(t, x)

    counting = dataclasses.replace(model, f_tarr=counted)
    f1, f2 = counting.t_envelope(xs, grid)
    assert calls == [(grid.shape, xs)]
    assert list(f1) == [min(v) for v in want]
    assert list(f2) == [max(v) for v in want]
    f1, f2 = counting.t_envelope(xs, windows)
    assert calls[1:] == [(windows.shape, xs)]
    assert f1.shape == f2.shape == (3, 2)
    assert np.array_equal(f1, [v.min(axis=1) for v in want_win])
    assert np.array_equal(f2, [v.max(axis=1) for v in want_win])
