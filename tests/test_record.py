"""The frozen result records: construction, immutability, eq, hash and repr.

The repr strings were recorded from the frozen dataclasses the records
replace, so a record prints exactly as it did.
"""

import copy
import hashlib
import pickle

import pytest

from ramforge import GF
from ramforge.belyi import BelyiChain, CertCheck, tame_belyi_genus0, wild_belyi
from ramforge.cover import RamificationReport, RamPoint, cover_create, ramification_report
from ramforge.funcfield import parse_place, parse_rational
from ramforge.polyring import Factorization, factor, parse_polynomial
from ramforge.pseudotame import QuarticDecomposition, quartic_decompose
from ramforge.record import Record

F2, F3, F4 = GF(2), GF(3), GF(2, 2)


def _report():
    return ramification_report(cover_create(F3, parse_polynomial("x^2", F3, "x")))


def _samples():
    """One instance of each record type, built by the library."""
    rep = _report()
    w = lambda s: parse_rational(s, F4, "w")  # noqa: E731
    return [
        CertCheck(name="tame", ok=True, detail="degree 3"),
        factor(parse_polynomial("T^3+T", F2)),
        rep.fibers[0][1][0],
        rep,
        quartic_decompose(w("w^5+w"), w("w")),
        tame_belyi_genus0(F2, {parse_place("x+1", F2, "x")}),
    ]


def test_record_types():
    assert [type(r) for r in _samples()] == [
        CertCheck,
        Factorization,
        RamPoint,
        RamificationReport,
        QuarticDecomposition,
        BelyiChain,
    ]


def test_repr_as_recorded():
    assert repr(CertCheck(name="tame", ok=True, detail="degree 3")) == (
        "CertCheck(name='tame', ok=True, detail='degree 3')"
    )
    assert repr(factor(parse_polynomial("T^3+T", F2))) == (
        "Factorization(unit=GF(2)[1], factors=((Polynomial('T' over GF(2)), 1), "
        "(Polynomial('T+1' over GF(2)), 2)))"
    )
    assert repr(factor(parse_polynomial("2*T^2+2", F3))) == (
        "Factorization(unit=GF(3)[2], factors=((Polynomial('T^2+1' over GF(3)), 1),))"
    )
    rep = _report()
    assert repr(rep.fibers[0][1][0]) == (
        "RamPoint(above=Place(x), below=Place(x), e=2, f=1, d=1, wild=False)"
    )
    assert repr(rep) == (
        "RamificationReport(cover=RationalCover(t = x^2), fibers=((Place(x), "
        "(RamPoint(above=Place(x), below=Place(x), e=2, f=1, d=1, wild=False),)), "
        "(Place(inf), (RamPoint(above=Place(inf), below=Place(inf), e=2, f=1, d=1, "
        "wild=False),))), different_divisor=Divisor(1*(x) + 1*(inf)), "
        "branch_locus=(Place(x), Place(inf)), tame=True, "
        "checks={'fundamental_equality': True, 'dedekind': True, 'hurwitz': True, "
        "'remark4': True})"
    )
    w = lambda s: parse_rational(s, F4, "w")  # noqa: E731
    assert repr(quartic_decompose(w("w^5+w"), w("w"))) == (
        "QuarticDecomposition(x=RationalFunction('x^5+x' over GF(4)), "
        "y=RationalFunction('x' over GF(4)), "
        "coords=(RationalFunction('0' over GF(4)), RationalFunction('x+1' over GF(4)), "
        "RationalFunction('0' over GF(4)), RationalFunction('0' over GF(4))))"
    )
    for chain, size, digest in [
        (
            tame_belyi_genus0(F2, {parse_place("x+1", F2, "x")}),
            976,
            "ee34a3b884a0466e32bb926a9f51407147482ebdc55a2790199470b630dde43f",
        ),
        (
            wild_belyi(F2, set()),
            2104,
            "1144e578741c7bb1727f3ae175b9b16c67586b3e4734f121396387c1f737397b",
        ),
    ]:
        text = repr(chain).encode()
        assert (len(text), hashlib.sha256(text).hexdigest()) == (size, digest)


def test_frozen():
    for rec in _samples():
        name = rec.__slots__[0]
        before = getattr(rec, name)
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
        with pytest.raises(AttributeError):
            delattr(rec, name)
        with pytest.raises(AttributeError):
            rec.extra = 1
        assert getattr(rec, name) is before


def test_eq_and_hash_by_class_and_fields():
    a = CertCheck(name="tame", ok=True, detail="degree 3")
    assert a == CertCheck(name="tame", ok=True, detail="degree 3")
    assert a != CertCheck(name="tame", ok=False, detail="degree 3")
    assert hash(a) == hash(("tame", True, "degree 3"))
    assert a != ("tame", True, "degree 3")

    class Other(Record):
        __slots__ = ("name", "ok", "detail")

    assert a != Other(name="tame", ok=True, detail="degree 3")
    fac = factor(parse_polynomial("T^3+T", F2))
    assert fac == factor(parse_polynomial("T^3+T", F2))
    assert hash(fac) == hash((fac.unit, fac.factors))
    rep = _report()
    assert rep == _report()
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(rep)  # its checks field is a dict, as with the dataclass


def test_keyword_construction_checks_the_fields():
    with pytest.raises(TypeError):
        CertCheck(name="tame", ok=True)
    with pytest.raises(TypeError):
        CertCheck(name="tame", ok=True, detail="", extra=1)
    with pytest.raises(TypeError):
        CertCheck("tame", True, "degree 3")


def test_copy_and_pickle_round_trip():
    for rec in _samples():
        assert copy.copy(rec) == rec
        assert copy.deepcopy(rec) == rec
        assert pickle.loads(pickle.dumps(rec)) == rec
