"""Config ingestion: strictness, field-path errors, round-trip idempotence."""

import copy
import json
from fractions import Fraction as F

import pytest

from modfix import (EXACT, FLOAT, ConfigError, NonFiniteError, config_to_dict,
                    load_config)

BANACH_DOC = {
    "space": {"dimension": 1, "backend": "exact"},
    "modular": {"family": "abs-norm"},
    "map": {"expr": "x/3"},
    "graph": {"kind": "complete"},
    "contraction": {"banach": {"k": "2/3", "a": "1/2", "b": 1}},
    "solve": {"x0": 1, "tol": "1e-9", "max_iter": 200},
    "samples": {"grid": {"min": -2, "max": 2, "count": 9},
                "random_pairs": 10, "seed": 7},
}

KANNAN_DOC = {
    "space": {"dimension": 1, "backend": "exact"},
    "modular": {"family": "power", "p": 2},
    "map": {"piecewise": [{"when": "x = 1", "value": "1/10"},
                          {"else": "1/2"}]},
    "graph": {"kind": "complete"},
    "contraction": {"kannan": {"k": "64/81", "l": "16/81", "a1": "1/2",
                               "a2": 1, "b": 1}},
    "samples": {"grid": {"min": -1, "max": 3, "count": 5}, "seed": 3},
}


def test_parse_banach_document():
    cfg = load_config(copy.deepcopy(BANACH_DOC))
    assert cfg.backend.name == "exact"
    assert cfg.mode == "banach"
    assert cfg.banach.k == F(2, 3)
    assert cfg.map((F(3),)) == (F(1),)
    assert cfg.solve.x0 == (F(1),)
    assert cfg.solve.tol == F(1, 10 ** 9)
    assert cfg.solve.bounds_depth == 50  # default


def test_parse_kannan_document():
    cfg = load_config(copy.deepcopy(KANNAN_DOC))
    assert cfg.mode == "kannan"
    assert cfg.kannan.delta == F(16, 17)
    assert cfg.map((F(1),)) == (F(1, 10),)
    assert cfg.map((F(5),)) == (F(1, 2),)
    assert cfg.solve is None


def test_round_trip_is_idempotent():
    for doc in (BANACH_DOC, KANNAN_DOC):
        once = config_to_dict(load_config(copy.deepcopy(doc)))
        twice = config_to_dict(load_config(copy.deepcopy(once)))
        assert once == twice


def test_unknown_keys_rejected_with_path():
    doc = copy.deepcopy(BANACH_DOC)
    doc["mystery"] = 1
    with pytest.raises(ConfigError):
        load_config(doc)
    doc = copy.deepcopy(BANACH_DOC)
    doc["contraction"]["banach"]["q"] = 1
    with pytest.raises(ConfigError) as err:
        load_config(doc)
    assert "contraction.banach" in str(err.value)


def test_missing_required_key_names_path():
    doc = copy.deepcopy(BANACH_DOC)
    del doc["contraction"]["banach"]["k"]
    with pytest.raises(ConfigError) as err:
        load_config(doc)
    assert "contraction.banach" in str(err.value) and "'k'" in str(err.value)


def test_inadmissible_constants_carry_path():
    doc = copy.deepcopy(BANACH_DOC)
    doc["contraction"]["banach"]["k"] = "3/2"
    with pytest.raises(ConfigError) as err:
        load_config(doc)
    assert "contraction.banach" in str(err.value)


def test_bad_number_carries_path():
    doc = copy.deepcopy(BANACH_DOC)
    doc["solve"]["tol"] = "not-a-number"
    with pytest.raises(ConfigError) as err:
        load_config(doc)
    assert "solve.tol" in str(err.value)


@pytest.mark.parametrize("block, key, value", [
    ("modular", "convex", "false"),
    ("modular", "convex", [0]),
    ("modular", "convex", 1),
    ("contraction", "undirected", "no"),
    ("contraction", "undirected", None),
])
def test_flags_must_be_booleans(block, key, value):
    # bool("false") is True: a flag is taken only as a JSON true or false
    for modular in ({"family": "abs-norm"}, {"expr": "x^2"}):
        doc = copy.deepcopy(BANACH_DOC)
        doc["modular"] = modular
        doc[block][key] = value
        with pytest.raises(ConfigError) as err:
            load_config(doc)
        assert str(err.value) == \
            f"{block}.{key}: expected true or false, got {value!r}"


def test_duplicate_json_key_is_an_error():
    text = json.dumps(BANACH_DOC).replace('"k": "2/3",',
                                          '"k": "2/3", "k": "1/2",')
    with pytest.raises(ConfigError, match="duplicate key 'k'"):
        load_config(text)
    assert load_config(json.dumps(BANACH_DOC)).banach.k == F(2, 3)


@pytest.mark.parametrize("text", ["1e400", "-1e400"])
def test_float_number_beyond_double_range(text):
    with pytest.raises(NonFiniteError, match="overflows"):
        FLOAT.number(text)
    assert EXACT.number(text) == F(text)  # exact stays exact
    doc = copy.deepcopy(BANACH_DOC)
    doc["space"]["backend"] = "float"
    doc["solve"]["x0"] = text
    with pytest.raises(ConfigError, match="overflows") as err:
        load_config(doc)
    assert "solve.x0" in str(err.value)


def test_seed_required_for_random_sampling():
    doc = copy.deepcopy(BANACH_DOC)
    del doc["samples"]["seed"]
    with pytest.raises(ConfigError) as err:
        load_config(doc)
    assert "samples.seed" in str(err.value)


def test_backend_override_beats_document():
    cfg = load_config(copy.deepcopy(BANACH_DOC), backend_override="float")
    assert cfg.backend.name == "float"
    assert isinstance(cfg.banach.k, float)


def test_expression_modular_and_custom_graph():
    doc = {
        "space": {"dimension": 1, "backend": "exact"},
        "modular": {"expr": "x^2", "convex": True},
        "map": {"affine": {"p": "1/3", "q": 0}},
        "graph": {"kind": "custom", "edge": "x + 1 <= y"},
        "contraction": {"banach": {"k": "4/9", "a": 1, "b": 2}},
        "samples": {"grid": {"min": 0, "max": 4, "count": 5}, "seed": 1},
    }
    cfg = load_config(doc)
    from modfix import eval_modular, has_edge
    assert eval_modular(cfg.spec, (F(3),)) == 9
    assert cfg.spec.convex
    assert has_edge(cfg.graph, (F(0),), (F(2),))
    assert not has_edge(cfg.graph, (F(0),), (F(1, 2),))
    assert has_edge(cfg.graph, (F(5),), (F(5),))  # loop forced


def test_poset_graph_with_expression_order():
    doc = copy.deepcopy(BANACH_DOC)
    doc["graph"] = {"kind": "poset", "order": "x <= y"}
    cfg = load_config(doc)
    from modfix import has_edge
    assert has_edge(cfg.graph, (F(1),), (F(2),))
    assert not has_edge(cfg.graph, (F(2),), (F(1),))


def test_weighted_modular_dimension_checked():
    doc = copy.deepcopy(BANACH_DOC)
    doc["modular"] = {"family": "weighted-power", "p": 2, "weights": [1, 2]}
    with pytest.raises(ConfigError) as err:
        load_config(doc)
    assert "modular.weights" in str(err.value)


def test_exact_backend_rejects_fractional_exponent():
    # |x|^(3/2) has no exact rational value; the exact backend must refuse it
    # rather than quietly evaluate it in floats
    for modular in ({"family": "power", "p": "3/2"},
                    {"family": "weighted-power", "p": 1.5, "weights": [1]}):
        doc = copy.deepcopy(BANACH_DOC)
        doc["modular"] = modular
        with pytest.raises(ConfigError) as err:
            load_config(doc)
        assert err.value.path == "modular.p"
        assert load_config(doc, "float").spec.p == 1.5
    doc["modular"] = {"family": "power", "p": 2.0}
    assert load_config(doc).spec.p == 2


@pytest.mark.parametrize("backend, modular, message", [
    ("float", {"family": "power", "p": "1/2"},
     "exponent must be finite and >= 1, got 0.5"),
    ("exact", {"family": "power", "p": 0},
     "exponent must be finite and >= 1, got 0"),
    ("exact", {"family": "weighted-power", "p": 2, "weights": [0]},
     "weights must be strictly positive"),
])
def test_invalid_builtin_modular_is_a_config_error(backend, modular, message):
    doc = copy.deepcopy(BANACH_DOC)
    doc["modular"] = modular
    with pytest.raises(ConfigError) as err:
        load_config(doc, backend)
    assert err.value.path == "modular" and err.value.message == message


def test_json_piecewise_map_matches_expression_piecewise():
    doc = copy.deepcopy(KANNAN_DOC)
    doc["map"] = {"piecewise": [{"when": "x <= 0", "value": "-1/3"},
                                {"when": "x = 1", "value": "1/10"},
                                {"else": "1/2"}]}
    expr = copy.deepcopy(doc)
    expr["map"] = {"expr": "piecewise(x <= 0 -> -1/3, x = 1 -> 1/10, "
                           "else -> 1/2)"}
    for backend in ("exact", "float"):
        cfg = load_config(doc, backend)
        f, g = cfg.map, load_config(expr, backend).map
        for x in (-2, -1, 0, F(1, 2), 1, 3):
            x = (cfg.backend.number(x),)
            assert f(x) == g(x) and type(f(x)[0]) is type(g(x)[0])


def test_expression_map_requires_dimension_one():
    doc = copy.deepcopy(BANACH_DOC)
    doc["space"]["dimension"] = 2
    doc["modular"] = {"family": "power", "p": 2}
    with pytest.raises(ConfigError):
        load_config(doc)


def test_two_dimensional_affine_config():
    doc = {
        "space": {"dimension": 2, "backend": "exact"},
        "modular": {"family": "weighted-power", "p": 2, "weights": [1, 2]},
        "map": {"affine": {"p": "1/3", "q": 0}},
        "graph": {"kind": "poset"},
        "contraction": {"banach": {"k": "1/2", "a": 1, "b": 2}},
        "solve": {"x0": [1, "1/2"], "tol": "1e-9"},
        "samples": {"grid": {"min": -1, "max": 1, "count": 3}, "seed": 2},
    }
    cfg = load_config(doc)
    assert cfg.dimension == 2
    assert cfg.map((F(3), F(6))) == (F(1), F(2))
    assert cfg.solve.x0 == (F(1), F(1, 2))


def test_bad_expression_reports_position_in_path():
    doc = copy.deepcopy(BANACH_DOC)
    doc["map"] = {"expr": "x +"}
    with pytest.raises(ConfigError) as err:
        load_config(doc)
    assert "map.expr" in str(err.value) and "position 3" in str(err.value)


def test_exactly_one_contraction_block():
    doc = copy.deepcopy(BANACH_DOC)
    doc["contraction"]["kannan"] = {"k": "1/4", "l": "1/4", "a1": "1/4",
                                    "a2": "1/2", "b": 1}
    with pytest.raises(ConfigError):
        load_config(doc)


def test_grid_count_capped():
    doc = copy.deepcopy(BANACH_DOC)
    doc["samples"]["grid"]["count"] = 500
    with pytest.raises(ConfigError):
        load_config(doc)


@pytest.mark.parametrize("dimension, count, random_pairs, ok", [
    (3, 10, 0, True),             # 10^6 grid pairs: at the cap
    (3, 10, 1, False),
    (3, 64, 0, False),            # about 6.9e10 pairs
    (1, 9, 10 ** 6 - 81, True),
    (1, 9, 10 ** 6, False),       # random pairs alone count too
    (10 ** 6, 2, 0, False),       # huge dimension, no huge power computed
    (10 ** 6, 1, 10, True),
])
def test_pair_sample_capped(dimension, count, random_pairs, ok):
    doc = copy.deepcopy(BANACH_DOC)
    doc["space"]["dimension"] = dimension
    doc["modular"] = {"family": "power", "p": 2}
    doc["map"] = {"affine": {"p": "1/3", "q": 0}}
    del doc["solve"]
    doc["samples"] = {"grid": {"min": -2, "max": 2, "count": count},
                      "random_pairs": random_pairs, "seed": 7}
    if ok:
        assert load_config(doc).samples.random_pairs == random_pairs
    else:
        with pytest.raises(ConfigError) as e:
            load_config(doc)
        assert e.value.path == "samples"
