"""Tower builders: wild chains, tame maps, and their certificates."""

import pytest

import oracles
from ramforge import GF, belyi
from ramforge.belyi import (
    chain_as_dict,
    lemma_main_map,
    tame_belyi_genus0,
    wild_belyi,
    wild_step,
)
from ramforge.cover import ramification_report
from ramforge.errors import InternalCheckError, PreconditionError, SizeBoundError
from ramforge.funcfield import Place, parse_place
from ramforge.polyring import Polynomial, gcd, irreducible_poly

F2 = GF(2)
F3 = GF(3)
F4 = GF(2, 2)
F5 = GF(5)


def places(field, *names):
    return {parse_place(s, field, "x") for s in names}


# ---------------------------------------------------------------------------
# single wild step


def test_wild_step_frozen_maps():
    assert wild_step(F2, 0)[0].to_text() == "u = (t^3+1)/t"
    assert wild_step(F3, 0)[0].to_text() == "u = (t^4+1)/t"
    assert wild_step(F5, 0)[0].to_text() == "u = (t^6+1)/t"


def test_wild_step_shifted():
    c, _ = wild_step(F2, 1)
    assert c.to_text() == "u = (t^3+t^2+t)/(t+1)"
    assert c.degree == 3


@pytest.mark.parametrize("p", [2, 3, 5])
def test_wild_step_fiber_shape(p):
    c, r = wild_step(GF(p), 0)
    assert r == ramification_report(c)
    assert [q.text("u") for q in r.branch_locus] == ["inf"]
    (below, pts), = r.fibers
    shape = sorted((pt.e, pt.f, pt.d, pt.wild) for pt in pts)
    assert shape == [(1, 1, 0, False), (p, 1, 2 * p, True)]


def test_f_beta_family_separable_directly():
    """f = T^(p+1) - beta*T + 1 is separable for every beta: p + 1 = 1 gives
    f' = T^p - beta = (T - r)^p with r = beta^(1/p), and f(r) = 1."""
    for field in (F2, F4, F3, F5, GF(3, 2)):
        p = field.p
        T = Polynomial.x(field)
        for b in range(field.q):
            beta = field.element(b)
            f = T ** (p + 1) - T * beta + 1
            r = beta.pth_root()
            assert f.derivative() == (T - r) ** p
            assert oracles.horner(f, r) == 1
            assert gcd(f, f.derivative()).is_constant()


def test_wild_step_rejects_a_finite_branch_place(monkeypatch):
    """The branch-locus check that backs the f_beta_separable entry."""
    real = belyi.ramification_report

    def finite_branch(cov):
        rep = real(cov)
        fields = {name: getattr(rep, name) for name in rep.__slots__}
        fields["branch_locus"] = (Place.from_root(F3.element(1)),) + tuple(
            rep.branch_locus
        )
        return type(rep)(**fields)

    monkeypatch.setattr(belyi, "ramification_report", finite_branch)
    with pytest.raises(InternalCheckError, match="branch exactly at infinity"):
        wild_step(F3, 0)


# ---------------------------------------------------------------------------
# wild chains


def test_wild_chain_f2_quadratic_place():
    ch = wild_belyi(F2, places(F2, "x^2+x+1"))
    assert ch.kind == "wild"
    assert len(ch.steps) == 3
    assert ch.composite.degree == 27
    assert ch.composite.to_text() == (
        "y = (x^27+x^24+x^18+x^12+x^6+x^3+1)/(x^15+x^12+x^6+x^3)"
    )
    assert [q.text("y") for q in ch.report.branch_locus] == ["inf"]
    assert not ch.report.tame
    assert all(c.ok for c in ch.certificate)
    by_name = {c.name: c for c in ch.certificate}
    assert sorted(by_name) == [
        "branch_locus_subset",
        "chain_e_multiplicative",
        "composite_degree",
        "composite_equals_steps",
        "f_beta_separable",
        "special_places_to_infinity",
        "wild_when_nontrivial",
    ]
    assert by_name["chain_e_multiplicative"].detail == "x^2+x+1:2, x:3, inf:12"
    assert by_name["special_places_to_infinity"].detail == (
        "all of x^2+x+1, x, inf -> (y=inf)"
    )


def test_wild_chain_f3_rational_place():
    ch = wild_belyi(F3, places(F3, "x+1"))
    assert ch.composite.degree == 32
    assert len(ch.steps) == 3
    assert all(c.ok for c in ch.certificate)
    by_name = {c.name: c for c in ch.certificate}
    assert by_name["chain_e_multiplicative"].detail == "x+1:3, x:2, inf:18"


def test_wild_chain_empty_set():
    ch = wild_belyi(F2, set())
    assert len(ch.steps) == 2
    assert [s.to_text() for s in ch.steps] == [
        "u = (t^3+1)/t",
        "y = (u^3+1)/u",
    ]
    assert ch.composite.to_text() == "y = (t^9+t^6+1)/(t^5+t^2)"
    assert ch.composite.degree == 9
    assert all(c.ok for c in ch.certificate)


def test_chain_carries_step_reports():
    ch = wild_belyi(F2, places(F2, "x^2+x+1"))
    assert len(ch.step_reports) == len(ch.steps) == 3
    for step, rep in zip(ch.steps, ch.step_reports):
        assert rep.cover is step
        assert rep == ramification_report(step)


def test_composite_certificate_detects_a_wrong_composite(monkeypatch):
    import ramforge.belyi as belyi
    from ramforge.cover import cover_create

    real = belyi.compose

    def skewed(inner, outer):
        comp = real(inner, outer)
        return cover_create(
            comp.field,
            comp.num + comp.den,
            comp.den,
            var_up=comp.var_up,
            var_down=comp.var_down,
        )

    monkeypatch.setattr(belyi, "compose", skewed)
    with pytest.raises(InternalCheckError, match="composite_equals_steps"):
        wild_belyi(F2, set())


def test_chain_certificate_detects_a_wrong_e_product(monkeypatch):
    real = belyi._chain_pushforward

    def doubled(pairs, P):
        Q, e = real(pairs, P)
        return Q, (2 * e if P.is_infinite else e)

    monkeypatch.setattr(belyi, "_chain_pushforward", doubled)
    with pytest.raises(InternalCheckError, match="chain e-product"):
        wild_belyi(F2, places(F2, "x^2+x+1"))


def test_chain_as_dict_schema():
    ch = wild_belyi(F2, set())
    d = chain_as_dict(ch)
    assert sorted(d.keys()) == ["certificate", "composite", "kind", "steps"]
    assert d["kind"] == "wild"
    assert len(d["steps"]) == 2
    assert d["steps"][0]["degree"] == 3
    assert d["composite"]["degree"] == 9
    for entry in d["certificate"]:
        assert sorted(entry.keys()) == ["detail", "name", "ok"]
        assert entry["ok"] is True


# ---------------------------------------------------------------------------
# tame engine


def test_tame_frozen_examples():
    ch = tame_belyi_genus0(F5, places(F5, "x+1", "x+4"))
    assert ch.kind == "tame"
    assert ch.composite.to_text() == "t = 4*x^4+1"
    assert ch.composite.degree == 4
    assert ch.report.tame
    assert [q.text("t") for q in ch.report.branch_locus] == ["t+4", "inf"]
    assert all(c.ok for c in ch.certificate)


def test_tame_degree_two():
    ch = tame_belyi_genus0(F3, places(F3, "x+1"))
    assert ch.composite.to_text() == "t = 2*x^2+1"
    assert all(c.ok for c in ch.certificate)


def test_tame_degree_one_edge():
    ch = tame_belyi_genus0(F2, places(F2, "x+1"))
    assert ch.composite.to_text() == "t = x+1"
    assert ch.report.branch_locus == ()
    assert all(c.ok for c in ch.certificate)


def test_tame_extension_field():
    ch = tame_belyi_genus0(F4, places(F4, "x+1"))
    assert ch.composite.to_text() == "t = x^3+1"
    assert ch.composite.degree == 3
    assert [q.text("t") for q in ch.report.branch_locus] == ["t+1", "inf"]
    assert all(c.ok for c in ch.certificate)


# ---------------------------------------------------------------------------
# the 1 - x^(q^r - 1) head map


@pytest.mark.parametrize(
    "q,r,text,deg",
    [
        (2, 1, "t = x+1", 1),
        (2, 2, "t = x^3+1", 3),
        (2, 3, "t = x^7+1", 7),
        (3, 1, "t = 2*x^2+1", 2),
        (3, 2, "t = 2*x^8+1", 8),
    ],
)
def test_lemma_map_frozen(q, r, text, deg):
    field = GF(q)
    if r == 1:
        S = places(field, "x+1")
    else:
        S = {Place(field, irreducible_poly(field, r))}
    cov, rep = lemma_main_map(field, S)
    assert cov.to_text() == text
    assert cov.degree == deg
    assert rep.tame


def test_lemma_map_preconditions():
    with pytest.raises(PreconditionError):
        lemma_main_map(F2, set())
    with pytest.raises(PreconditionError):
        lemma_main_map(F2, places(F2, "x"))
    with pytest.raises(PreconditionError):
        lemma_main_map(F2, {Place.infinite(F2)})


def test_degree_cap_env(monkeypatch):
    monkeypatch.setattr(belyi, "MAX_COVER_DEGREE", 2)
    with pytest.raises(SizeBoundError):
        lemma_main_map(F2, {Place(F2, irreducible_poly(F2, 2))})
    with pytest.raises(SizeBoundError):
        wild_belyi(F2, places(F2, "x^2+x+1"))
    # the head map x+1 -> 1 - x has degree 1, the composite 1 * 3^2
    monkeypatch.setattr(belyi, "MAX_COVER_DEGREE", 8)
    lemma_main_map(F2, places(F2, "x+1"))
    with pytest.raises(SizeBoundError):
        wild_belyi(F2, places(F2, "x+1"))
    with pytest.raises(SizeBoundError):
        wild_belyi(F2, set())
    monkeypatch.setattr(belyi, "MAX_COVER_DEGREE", 9)
    assert wild_belyi(F2, places(F2, "x+1")).composite.degree == 9
