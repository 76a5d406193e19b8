"""The library's small exact values (surfaces and divisor classes, codes,
bound reports, tower certificates, (kappa, chi) and (delta, R) points), all
Record subclasses: construction by position, keyword or default, equality
and hashing by field values within one class, the dataclass-style repr,
refusal of assignment and deletion, and the refusals their constructors
make."""

import copy
from fractions import Fraction

import pytest

from surfcodes import asymptotic as asy
from surfcodes import bounds as bd
from surfcodes import codes as cd
from surfcodes import gf
from surfcodes import surfaces as sf
from surfcodes import towers as tw
from surfcodes.errors import Precondition
from surfcodes.records import Record

F3, F7 = gf.make_field(3), gf.make_field(7)
P2 = sf.projective_plane()
SEXTIC = gf.Polynomial.from_roots(F7, range(1, 7))       # t^6 - 1 over F_7
ENTRY = bd.BoundEntry("aubry", 3, True, "G = (2,) is very ample")
CERT_FIELDS = ("q", "g1", "g2", "rho", "f", "g", "count_c", "count_d", "h1g", "h2g",
               "rt_upper", "t_size", "gs_lhs_squared", "gs_rhs", "conditions",
               "gs_pass")
CERT_VALUES = (7, 2, 2, 1, SEXTIC, SEXTIC, 12, 12, 6, 6, 3, 2, 49, 48,
               {"points_C": True, "points_D": True, "gs": True}, True)

# class, field names in order, one value per field, repr
CASES = [
    (sf.SurfaceModel, ("kind", "params", "gram", "canonical_coords", "chi_o", "chi_et"),
     ("Hirzebruch", (2,), ((0, 1), (1, -2)), (-4, -2), 1, 4),
     "SurfaceModel(Hirzebruch(2,))"),
    (sf.DivisorClass, ("surface", "coords"), (P2, (3,)), "DivisorClass(3,)"),
    (sf.AmpleFlags, ("ample", "very_ample", "base_point_free"), (True, None, False),
     "AmpleFlags(ample=True, very_ample=None, base_point_free=False)"),
    (cd.PointList, ("tag", "points", "grid"), ("grid", ((0, 1),), ((0,), (1,))),
     "PointList(tag='grid', points=((0, 1),), grid=((0,), (1,)))"),
    (cd.MonomialBasis, ("exponents",), (((1, 0, 0), (0, 1, 0)),),
     "MonomialBasis(exponents=((1, 0, 0), (0, 1, 0)))"),
    (cd.LinearCode, ("field", "n", "k", "generator", "section_count", "surface",
                     "divisor", "tag", "grid"),
     (F3, 2, 1, ((1, 2),), 3, P2, (1,), "all", None),
     "LinearCode(field=FieldSpec(p=3, m=1), n=2, k=1, generator=((1, 2),), "
     "section_count=3, surface=SurfaceModel(P2), divisor=(1,), tag='all', grid=None)"),
    (bd.BoundEntry, ("name", "value", "applicable", "reason"),
     ("aubry", 3, True, "G = (2,) is very ample"),
     "BoundEntry(name='aubry', value=3, applicable=True, reason='G = (2,) is very ample')"),
    (bd.BoundReport, ("n", "k_lower", "entries", "exact"),
     (7, 6, [ENTRY], {"k": 6, "d": 1}),
     f"BoundReport(n=7, k_lower=6, entries=[{ENTRY!r}], exact={{'k': 6, 'd': 1}})"),
    (tw.HyperellipticCurve, ("field", "f"), (F7, SEXTIC),
     f"HyperellipticCurve(field=FieldSpec(p=7, m=1), f={SEXTIC!r})"),
    (tw.FrobeniusModule, ("cycles",), ((1, 1, 2),), "FrobeniusModule(cycles=(1, 1, 2))"),
    (tw.TowerCertificate, CERT_FIELDS, CERT_VALUES,
     "TowerCertificate(" + ", ".join(f"{name}={value!r}" for name, value
                                     in zip(CERT_FIELDS, CERT_VALUES)) + ")"),
    (asy.AsymptoticPoint, ("kappa", "chi"), (1, Fraction(1, 3)),
     "AsymptoticPoint(kappa=Fraction(1, 1), chi=Fraction(1, 3))"),
    (asy.CodePoint, ("delta", "r"), (Fraction(1, 2), Fraction(1, 4)),
     "CodePoint(delta=Fraction(1, 2), r=Fraction(1, 4))"),
]


@pytest.mark.parametrize("cls, fields, values, text", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_record_values(cls, fields, values, text):
    # positional and keyword construction give equal values with the fields
    # in this order; equal values hash equal (an lru_cache keys on
    # SurfaceModel) but for a list or dict field; a value equals no tuple;
    # no field can be assigned or deleted, and a copy is equal
    a, b = cls(*values), cls(**dict(zip(fields, values)))
    assert a is not b and a == b and not a != b
    assert [getattr(a, name) for name in fields] == list(values)
    assert a != tuple(values)
    assert repr(a) == text
    if isinstance(a, (bd.BoundReport, tw.TowerCertificate)):
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b and copy.copy(a) == a


def test_every_record_has_its_own_slots():
    # a subclass without __slots__ of its own would inherit Record's empty
    # tuple: its instances would get a __dict__ and all compare equal
    subclasses, todo = set(), [Record]
    while todo:
        todo += todo.pop().__subclasses__()
        subclasses.update(todo)
    assert subclasses == {case[0] for case in CASES}
    for cls, fields, values, _ in CASES:
        assert "__slots__" in vars(cls) and cls.__slots__ == fields
        assert not hasattr(cls(*values), "__dict__")


def test_records_equal_only_within_one_class():
    half = Fraction(1, 2)
    assert asy.CodePoint(half, half) != asy.AsymptoticPoint(half, half)
    assert asy.AsymptoticPoint(half, half) != asy.CodePoint(half, half)
    assert asy.CodePoint(half, half) == asy.CodePoint(Fraction(2, 4), half)


def test_record_defaults_and_arguments():
    assert cd.PointList("all", ((0, 1),)) == cd.PointList("all", ((0, 1),), None)
    code = cd.LinearCode(F3, 2, 1, ((1, 2),), 1)
    assert (code.surface, code.divisor, code.tag, code.grid) == (None, None, "all", None)
    # an omitted entries list belongs to its own report
    a, b = bd.BoundReport(4, None), bd.BoundReport(n=4, k_lower=None)
    a.entries.append(ENTRY)
    assert (a.entries, b.entries, a.exact) == ([ENTRY], [], None)
    assert asy.AsymptoticPoint("1/3", 0).kappa == Fraction(1, 3)
    # a missing, extra, repeated or unknown field is a TypeError
    for args, kwargs in [(("all",), {}), (("all", (), None, 1), {}),
                         (("all", ()), {"tag": "grid"}), (("all", ()), {"color": 1})]:
        with pytest.raises(TypeError):
            cd.PointList(*args, **kwargs)


F9 = gf.make_field(3, 2)


@pytest.mark.parametrize("build, message", [
    (lambda: sf.DivisorClass(P2, (1, 2)), "divisor needs 1 coordinates, got 2"),
    (lambda: P2.divisor(), "divisor needs 1 coordinates, got 0"),
    (lambda: tw.HyperellipticCurve(F9, SEXTIC), "f is a polynomial over F_7, not over F_9"),
    (lambda: tw.HyperellipticCurve(gf.make_field(2, 2),
                                   gf.Polynomial.from_roots(gf.make_field(2, 2), range(4))
                                   * gf.make_field(2, 2).poly((1, 0, 1))),
     "hyperelliptic model needs odd q"),
    (lambda: tw.HyperellipticCurve(F7, F7.poly(())),
     "f must have even degree, got -1"),
    (lambda: tw.HyperellipticCurve(F7, gf.Polynomial.from_roots(F7, range(7))),
     "f must have even degree, got 7"),
    (lambda: tw.HyperellipticCurve(F7, gf.Polynomial.from_roots(F7, range(4))),
     "degree 4 < 6 means genus < 2"),
    (lambda: tw.HyperellipticCurve(F7, gf.Polynomial.from_roots(F7, (1, 1, 2, 3, 4, 5))),
     "f has a repeated root"),
    (lambda: tw.FrobeniusModule((1, 2)),
     "cycle lengths must be positive and sum to an even number >= 4, got [1, 2]"),
    (lambda: tw.FrobeniusModule((0, 4)),
     "cycle lengths must be positive and sum to an even number >= 4, got [0, 4]"),
    (lambda: asy.AsymptoticPoint(0.5, 0), "kappa must be exact, got the float 0.5"),
    (lambda: asy.AsymptoticPoint(0, 0.25), "chi must be exact, got the float 0.25"),
    (lambda: asy.AsymptoticPoint(Fraction(-1, 2), 0), "kappa must be >= 0"),
], ids=["divisor_rank", "divisor_empty", "curve_field", "curve_even_q", "curve_zero",
        "curve_odd_degree", "curve_genus", "curve_repeated_root", "frobenius_odd",
        "frobenius_zero", "kappa_float", "chi_float", "kappa_negative"])
def test_record_refusals(build, message):
    with pytest.raises(Precondition) as info:
        build()
    assert str(info.value) == message
