"""The four immutable records, ZeroSet, Facet, ParityReport and HPolytope: their
repr, equality, hash, keyword construction, match arguments, refusal of
assignment, copies and pickles, and that every route that builds a ZeroSet or
an HPolytope refuses what its constructor refuses."""

import copy
import pickle
from fractions import Fraction

import pytest

from polyadj import generators
from polyadj.core import Facet, ValidationError, ZeroSet, detect_facets
from polyadj.generators import HPolytope, cube
from polyadj.pairgraph import ParityReport, verify_2d_parity


def records():
    p = cube(3)
    facets = detect_facets(p)
    segment = HPolytope(((-1,), (1,)), (0, Fraction(1, 2)), ((0,), ("1/2",)))
    return [ZeroSet(4, 5), facets[1], verify_2d_parity(p, facets), segment]


REPRS = [
    "ZeroSet({1,3}, width=4)",
    "Facet(id=1, coordinates=ZeroSet({2}, width=6), vertex_indices=frozenset({0, 1, 4, 5}))",
    "ParityReport(facet_count=6, pair_count=4, even=True, pairwise_disjoint=True)",
    "HPolytope(normals=((Fraction(-1, 1),), (Fraction(1, 1),)), offsets=(Fraction(0, 1), "
    "Fraction(1, 2)), vertices=((Fraction(0, 1),), (Fraction(1, 2),)))",
]
FIELDS = [
    ("width", "bits"),
    ("id", "coordinates", "vertex_indices"),
    ("facet_count", "pair_count", "even", "pairwise_disjoint"),
    ("normals", "offsets", "vertices"),
]


class Forged:
    """Pickles as a call of ``cls`` on ``args``: the form a record's own pickle
    takes when it rebuilds through the constructor."""

    def __init__(self, cls, args):
        self.cls, self.args = cls, args

    def __reduce__(self):
        return self.cls, self.args


def fields(record):
    return tuple(getattr(record, name) for name in type(record).__match_args__)


def test_repr_match_args_and_types():
    got = records()
    assert [type(r) for r in got] == [ZeroSet, Facet, ParityReport, HPolytope]
    assert [repr(r) for r in got] == REPRS
    assert [type(r).__match_args__ for r in got] == FIELDS
    match got[0]:
        case ZeroSet(width, bits):
            assert (width, bits) == (4, 5)
    match got[1]:
        case Facet(f, ZeroSet(_, coords), verts):
            assert (f, coords, verts) == (1, 2, frozenset({0, 1, 4, 5}))


def test_equality_hash_and_keyword_construction():
    for r in records():
        again = type(r)(**dict(zip(type(r).__match_args__, fields(r))))
        assert again == r and not again != r
        assert hash(again) == hash(r) == hash(fields(r))
    assert ZeroSet(width=2, bits=1) == ZeroSet(2, 1) != ZeroSet(3, 1)
    assert ZeroSet(3) == ZeroSet(3, 0) != ZeroSet(3, 1)
    assert ZeroSet(2, 1) != (2, 1) and ZeroSet(2, 1) != 1
    h = records()[3]
    assert HPolytope(h.normals, h.offsets[::-1], h.vertices) != h != fields(h)
    assert len({ZeroSet(2, 1), ZeroSet(2, 1), ZeroSet(width=2, bits=1), ZeroSet(2, 2)}) == 2


def test_fields_refuse_assignment_and_deletion():
    got = records()
    for r in got:
        for name in (*type(r).__match_args__, "extra"):
            with pytest.raises(AttributeError):
                setattr(r, name, 1)
        for name in type(r).__match_args__:
            with pytest.raises(AttributeError):
                delattr(r, name)
    assert [repr(r) for r in got] == REPRS


def test_copies_and_pickles_are_equal_records():
    for r in records():
        twins = [copy.copy(r), copy.deepcopy(r)]
        twins += [pickle.loads(pickle.dumps(r, protocol)) for protocol in
                  range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in twins:
            assert type(twin) is type(r)
            assert twin == r and hash(twin) == hash(r) and repr(twin) == repr(r)


def test_every_route_refuses_what_the_constructor_refuses():
    bad_zero_sets = [((-1,), {}, "width must be nonnegative, got -1"),
                     ((2, 4), {}, "bits 0x4 out of range for width 2"),
                     ((), {"width": 2, "bits": -1}, "bits 0x-1 out of range for width 2")]
    for args, kwargs, message in bad_zero_sets:
        with pytest.raises(ValueError, match=f"^{message}$"):
            ZeroSet(*args, **kwargs)
        with pytest.raises(ValueError, match=f"^{message}$"):
            pickle.loads(pickle.dumps(Forged(ZeroSet, args or tuple(kwargs.values()))))
    with pytest.raises(ValueError, match="^width mismatch: 2 vs 3$"):
        ZeroSet(2, 1) & ZeroSet(3, 1)
    with pytest.raises(ValueError, match=r"^coordinate 3 out of range 1\.\.2$"):
        ZeroSet.of_indices(2, [3])

    normals, offsets, vertices = ((-1,), (1,)), (0, 1), ((0,), (1,))
    bad_hforms = [((normals, (0, 1, 2), vertices), "offsets has 3 entries for 2 inequality rows"),
                  ((normals, offsets, ((0,), (1, 1))), "vertex 1: expected 1 coordinates, got 2"),
                  ((((-1, 0), (1,)), offsets, vertices),
                   "inequality row 0: expected 1 entries, got 2"),
                  ((normals, offsets, ()), "at least one vertex is required"),
                  ((normals, (0, 1.0), vertices), "refusing float 1.0; pass int, str or Fraction")]
    for args, message in bad_hforms:
        with pytest.raises(ValidationError, match=f"^{message}$"):
            HPolytope(*args)
        with pytest.raises(ValidationError, match=f"^{message}$"):
            HPolytope(**dict(zip(FIELDS[3], args)))
        with pytest.raises(ValidationError, match=f"^{message}$"):
            pickle.loads(pickle.dumps(Forged(HPolytope, args)))


def test_zero_set_fields_must_be_plain_ints():
    # a float, bool or Fraction equal to an int is refused by field name, by
    # every construction route; before, ZeroSet(2, 1.0) equalled ZeroSet(2, 1)
    # and then failed in repr and len
    for bad in (1.0, True, Fraction(1)):
        for args, name in (((bad, 1), "width"), ((2, bad), "bits")):
            message = f"^{name} must be an int, got {type(bad).__name__}$"
            with pytest.raises(TypeError, match=message):
                ZeroSet(*args)
            with pytest.raises(TypeError, match=message):
                ZeroSet(**dict(zip(FIELDS[0], args)))
            with pytest.raises(TypeError, match=message):
                pickle.loads(pickle.dumps(Forged(ZeroSet, args)))
    # ints out of range keep their messages
    for args, message in (((-1, 0), "width must be nonnegative, got -1"),
                          ((2, 4), "bits 0x4 out of range for width 2"),
                          ((2, -1), "bits 0x-1 out of range for width 2"),
                          ((0, 1), "bits 0x1 out of range for width 0")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ZeroSet(*args)
    assert repr(ZeroSet(2, 1)) == "ZeroSet({1}, width=2)" and len(ZeroSet(2, 1)) == 1


def test_zero_set_refuses_foreign_operands_as_python_does():
    # & with a non-ZeroSet is Python's own TypeError, not an AttributeError on
    # ``width``; membership of a non-int is False, as for range and frozenset
    z = ZeroSet(3, 1)
    for other, name in ((1, "int"), (frozenset({1}), "frozenset")):
        message = f"^unsupported operand type\\(s\\) for &: 'ZeroSet' and '{name}'$"
        with pytest.raises(TypeError, match=message):
            z & other
        with pytest.raises(TypeError, match=message):
            z.issuperset(other)
    full = ZeroSet(3, 3)
    for item in (2.5, "a", None, (1,)):
        assert item not in full and item not in range(1, 4) and item not in frozenset({1, 2})
    assert [k in full for k in range(5)] == [False, True, True, False, False]
    assert z & ZeroSet(3, 3) == z and full.issuperset(z) and not z.issuperset(full)


def test_zero_set_classmethods_check_their_input_as_the_fields_do():
    # an index that is not exactly an int is refused by type, before the range
    # check, so True does not stand for coordinate 1
    for indices, name in (([True], "bool"), ([1.5], "float"), ("12", "str"),
                          ([Fraction(1)], "Fraction"), ([1, 9.0], "float")):
        with pytest.raises(TypeError, match=f"^coordinate must be an int, got {name}$"):
            ZeroSet.of_indices(3, indices)
    with pytest.raises(ValueError, match=r"^coordinate 4 out of range 1\.\.3$"):
        ZeroSet.of_indices(3, [1, 4])
    assert ZeroSet.of_indices(3, [1, 3]) == ZeroSet(3, 5)
    # each coordinate is read through as_fraction: a str is parsed, so "0" is a
    # zero, and a float or a non-number is refused
    assert ZeroSet.of_point(["0", "1"]) == ZeroSet(2, 1)
    assert ZeroSet.of_point(["1/2", "0/3", Fraction(0), 0]) == ZeroSet(4, 14)
    for coords, message in (([0.0, 1], "refusing float 0.0; pass int, str or Fraction"),
                            ((1, "x"), "not a rational number: 'x'")):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            ZeroSet.of_point(coords)


def test_copies_and_unpickling_run_the_constructor_checks(monkeypatch):
    # so a copy is as checked as the record it copies; fails where a copy
    # restores the fields without the constructor
    z, _, _, h = records()
    checked = []
    zero_set_check, shape_check = ZeroSet.__post_init__, generators._shaped

    def counted_zero_set(self):
        checked.append(ZeroSet)
        zero_set_check(self)

    def counted_shape(*args):
        checked.append(HPolytope)
        return shape_check(*args)

    monkeypatch.setattr(ZeroSet, "__post_init__", counted_zero_set)
    monkeypatch.setattr(generators, "_shaped", counted_shape)
    for r in (z, h):
        copies = [copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))]
        assert copies == [r] * 3
        assert checked == [type(r)] * 3
        checked.clear()
