"""Command-line interface: golden outputs, exit codes, error surface."""

import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from ramforge.cli import main
from ramforge.polyring import MAX_NESTING

GOLDEN = pathlib.Path(__file__).parent / "golden"
CASES = sorted(p.stem for p in GOLDEN.glob("*.cmd"))


def run(capsys, argv):
    rc = main(argv)
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


@pytest.mark.parametrize("name", CASES)
def test_golden_byte_identical(name, capsys):
    argv = (GOLDEN / f"{name}.cmd").read_text().splitlines()
    want = (GOLDEN / f"{name}.out").read_text()
    rc1, out1, err1 = run(capsys, argv)
    rc2, out2, err2 = run(capsys, argv)
    assert rc1 == 0 and rc2 == 0
    assert err1 == "" and err2 == ""
    assert out1 == want
    assert out2 == want


@pytest.mark.parametrize("name", [c for c in CASES if c.endswith("json")])
def test_golden_json_parses_compact(name):
    raw = (GOLDEN / f"{name}.out").read_text()
    obj = json.loads(raw)
    assert raw == json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def test_seed_flag_accepted_and_ignored(capsys):
    base = ["analyze", "--p", "2", "x^3+1", "x"]
    _, out1, _ = run(capsys, base + ["--seed", "1"])
    _, out2, _ = run(capsys, base + ["--seed", "2"])
    _, out3, _ = run(capsys, base)
    assert out1 == out2 == out3


# ---------------------------------------------------------------------------
# exit codes and error surface


def test_parse_error_exit_2(capsys):
    rc, out, err = run(capsys, ["analyze", "--p", "2", "x^^"])
    assert rc == 2
    assert out == ""
    assert err.startswith("ramforge: error: ")


def test_wrong_variable_place_exit_2(capsys):
    rc, _, err = run(
        capsys, ["analyze", "--p", "2", "x^3+1", "x", "--at", "u^2+u+1"]
    )
    assert rc == 2
    assert "ramforge: error:" in err


def test_precondition_exit_3(capsys):
    rc, _, err = run(capsys, ["analyze", "--p", "3", "x^3"])
    assert rc == 3
    assert "inseparable" in err
    rc, _, err = run(capsys, ["factor", "--p", "4", "T"])
    assert rc == 3
    assert "not prime" in err
    rc, _, err = run(capsys, ["belyi-tame", "--p", "2", "--places", "x"])
    assert rc == 3


def test_size_bound_exit_4(capsys):
    """Both maps pass the cap, 65536, and are refused before they are built."""
    for argv, degree in [
        (["belyi-wild", "--p", "2", "--m", "13", "--places", "x+1"], 73719),
        (["belyi-tame", "--p", "3", "--places", "x^11+x^2+2"], 177146),
    ]:
        rc, out, err = run(capsys, argv)
        assert (rc, out) == (4, "")
        assert err.startswith("ramforge: error:")
        assert f"= {degree} exceeds the cap 65536" in err


# degrees 23 to 41 over GF(3): r = 20677 for the first three, 31367009 for all
_FAR_PLACES = [
    "x^23+x^3+x+1", "x^29+x^4+2", "x^31+x^3+x+1", "x^37+2*x^6+1", "x^41+2*x+1"
]
OVER_CAP = [
    ["belyi-tame", "--p", "3", "--places", ",".join(_FAR_PLACES[:3])],
    ["belyi-wild", "--p", "3", "--places", ",".join(_FAR_PLACES)],
    ["factor", "--p", "2", "(T^2)^" + "9" * 4300],
    ["factor", "--p", "2", "T^" + "9" * 4301],
    ["factor", "--p", str(2**4423 - 1), "T"],  # a prime, past the field size bound
    ["belyi-wild", "--p", "2", "--m", "13", "--places", "x+1"],
    ["belyi-tame", "--p", "3", "--places", "x^11+x^2+2"],
    ["belyi-wild", "--p", "257", "--places", "x+1"],
    ["factor", "--p", "2", "T^3000000+T+1"],
    ["laurent", "--p", "2", "1/(x+1)", "--at", "x", "--prec", "10000000"],
    ["factor", "--p", "2", "(" * 101 + "T" + ")" * 101],
]


def test_over_cap_inputs_exit_4_at_once(capsys):
    """Every size check comes before the work it bounds and formats no
    number too long to print: exit 4, no traceback, under 1 s per call."""
    for argv in OVER_CAP:
        start = time.perf_counter()
        rc, out, err = run(capsys, argv)
        took = time.perf_counter() - start
        assert (rc, out) == (4, ""), (argv[:3], err)
        assert err.startswith("ramforge: error:") and "Traceback" not in err
        assert took < 1.0, (argv[:3], took)


def _nesting_argv(verb, depth):
    def nest(text):
        return "(" * depth + text + ")" * depth

    return {
        "factor": ["factor", "--p", "2", nest("T")],
        "analyze": ["analyze", "--p", "2", nest("x^3+1"), "x"],
        "laurent": ["laurent", "--p", "2", "1/" + nest("x+1"), "--at", "x"],
    }[verb]


@pytest.mark.parametrize("depth", [100, 101, 300, 10_000])
@pytest.mark.parametrize("verb", ["factor", "analyze", "laurent"])
def test_parenthesis_nesting_bound_exit_4(capsys, verb, depth):
    rc, out, err = run(capsys, _nesting_argv(verb, depth))
    if depth <= MAX_NESTING:
        assert (rc, err) == (0, "")
        return
    assert (rc, out) == (4, "")
    assert err.startswith("ramforge: error: parenthesis at position ")
    assert f"nests deeper than {MAX_NESTING}" in err
    assert "Traceback" not in err


def test_internal_check_payload_on_stderr(capsys, monkeypatch):
    import ramforge.cover as cover
    from ramforge.funcfield import Divisor, Place

    real = cover._different_divisor

    def skewed(cov, *args):
        inf = Place.infinite(cov.field)
        return real(cov, *args) + Divisor(cov.field, [(inf, 2)])

    monkeypatch.setattr(cover, "_different_divisor", skewed)
    rc, out, err = run(capsys, ["analyze", "--p", "2", "x^3+1", "x"])
    assert rc == 5
    assert out == ""
    message, payload, tail = err.split("\n")
    assert message.startswith("ramforge: error: structural identities failed")
    assert tail == ""
    obj = json.loads(payload)
    assert payload == json.dumps(obj, sort_keys=True, separators=(",", ":"))
    assert obj["cover"] == "t = (x^3+1)/x"
    assert obj["checks"]["hurwitz"] is False


def _count_reports(count_calls):
    import ramforge.belyi as belyi
    import ramforge.cli as cli
    import ramforge.cover as cover

    return count_calls("ramification_report", cover, belyi, cli)


def test_belyi_wild_computes_each_report_once(capsys, count_calls):
    calls = _count_reports(count_calls)
    rc, _, _ = run(
        capsys, ["belyi-wild", "--p", "2", "--places", "x^2+x+1,x+1"]
    )
    assert rc == 0
    assert len(calls) == 4  # three steps and the composite


def test_belyi_tame_computes_one_report(capsys, count_calls):
    calls = _count_reports(count_calls)
    rc, _, _ = run(capsys, ["belyi-tame", "--p", "5", "--places", "x+1,x+2"])
    assert rc == 0
    assert len(calls) == 1


def _count_factor_calls(count_calls):
    from ramforge import polyring

    return count_calls("factor", polyring)


def test_belyi_wild_reads_chain_e_off_step_reports(capsys, count_calls):
    calls = _count_factor_calls(count_calls)
    rc, _, _ = run(
        capsys, ["belyi-wild", "--p", "2", "--places", "x^2+x+1,x+1"]
    )
    assert rc == 0
    # the wild steps' W = g'h - gh' is constant and is not factored
    assert len(calls) == 6


def test_belyi_tame_reads_fiber_over_zero_off_the_different(capsys, count_calls):
    calls = _count_factor_calls(count_calls)
    rc, _, _ = run(capsys, ["belyi-tame", "--p", "5", "--places", "x+1,x+2"])
    assert rc == 0
    assert len(calls) == 2


def _run_under_memory_cap(argv):
    """The CLI in a child process under a 1.5 GB address-space cap."""
    resource = pytest.importorskip("resource")
    import ramforge

    src = str(pathlib.Path(ramforge.__file__).parents[1])

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1536 * 2**20, 1536 * 2**20))

    return subprocess.run(
        [sys.executable, "-m", "ramforge.cli", *argv],
        env={**os.environ, "PYTHONPATH": src},
        preexec_fn=cap,
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_factor_over_large_prime_within_memory_cap():
    """Spreading over x^p would need 34 GB."""
    proc = _run_under_memory_cap(["factor", "--p", "2147483647", "T^3+T+1"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "T^3+T+1 = (T+671979734) * (T+1551541317) * (T+2071446243)\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["factor", "--p", "2", "T^3000000+T+1"],
        ["laurent", "--p", "2", "1/(x+1)", "--at", "x", "--prec", "10000000"],
    ],
)
def test_oversize_input_exits_4_within_memory_cap(argv):
    proc = _run_under_memory_cap(argv)
    assert proc.returncode == 4, proc.stderr
    assert proc.stdout == ""
    assert "exceeds the cap 65536" in proc.stderr


def test_wild_composite_degree_capped_within_memory_cap():
    """The head map has degree 256, under the cap; the composite 256 * 258^2."""
    proc = _run_under_memory_cap(["belyi-wild", "--p", "257", "--places", "x+1"])
    assert proc.returncode == 4, proc.stderr
    assert proc.stdout == ""
    assert "= 17040384 exceeds the cap 65536" in proc.stderr


def test_pseudotame_of_a_high_power_finishes():
    """x = w^65535 + w^2 has W = w^65534, whose squarefree split took 88 s
    when it stepped through every multiplicity up to 32767."""
    import ramforge

    src = str(pathlib.Path(ramforge.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "ramforge.cli", "pseudotame", "--p", "2",
         "w^65535+w^2"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (
        "element: w^65535+w^2 over GF(2)\n"
        "critical places: (w=0), (w=inf)\n"
        "(w=0) | v_dx=65534 tame=no pseudotame=no\n"
        "(w=inf) | v_dx=-65536 tame=yes pseudotame=yes\n"
        "pseudotame everywhere: no\n"
    )


def test_field_untabulated(capsys):
    rc, out, _ = run(capsys, ["field", "--p", "257", "--m", "2"])
    assert rc == 0
    assert "multiplicative generator: (not tabulated)" in out


def _src_env():
    import ramforge

    return {**os.environ, "PYTHONPATH": str(pathlib.Path(ramforge.__file__).parents[1])}


@pytest.mark.parametrize("m,quadratic", [(18, "T^2+T+z^15"), (20, "T^2+T+z^17")])
def test_field_untabulated_char2_in_bounded_time(m, quadratic):
    proc = subprocess.run(
        [sys.executable, "-m", "ramforge.cli", "field", "--p", "2", "--m", str(m)],
        env=_src_env(),
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert f"least irreducible of degree 2: {quadratic}\n" in proc.stdout


def test_cli_import_leaves_out_dataclasses_and_inspect():
    code = (
        "import sys, ramforge.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=_src_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_usage_errors_raise_system_exit():
    with pytest.raises(SystemExit) as e:
        main(["analyze", "x^3"])  # --p missing
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["no-such-verb", "--p", "2"])
    assert e.value.code == 2


# ---------------------------------------------------------------------------
# per-verb behavior not covered by the goldens


def test_analyze_at_unramified_place(capsys):
    rc, out, _ = run(
        capsys, ["analyze", "--p", "2", "x^3+1", "x", "--at", "t^2+t+1"]
    )
    assert rc == 0
    assert out == (
        "fiber over (t^2+t+1=0):\n"
        "  (x^6+x^4+x^2+x+1=0) | e=1 f=3 d=0\n"
    )


def test_analyze_at_ramified_place(capsys):
    rc, out, _ = run(capsys, ["analyze", "--p", "2", "x^3", "--at", "t"])
    assert rc == 0
    assert "(x=0) | e=3 f=1 d=2" in out


@pytest.mark.parametrize(
    "argv, place",
    [
        (["analyze", "--p", "2", "x^3+x", "--at", "t^2+t"], "t^2+t"),
        (["laurent", "--p", "2", "1/(x+1)", "--at", "x^2"], "x^2"),
    ],
)
def test_reducible_at_place_named_in_its_variable(capsys, argv, place):
    rc, out, err = run(capsys, argv)
    assert (rc, out) == (3, "")
    assert err == f"ramforge: error: {place} is not irreducible\n"


def test_pseudotame_witness_when_partner_exists(capsys):
    rc, out, _ = run(
        capsys, ["pseudotame", "--p", "2", "w^2+w^5", "--at", "w"]
    )
    assert rc == 0
    assert "completion z: w" in out
    assert "x+z^2 tame here: yes" in out


def test_pseudotame_no_partner_leaves_witness_null(capsys):
    rc, out, _ = run(
        capsys,
        ["pseudotame", "--p", "2", "w^2/(w+1)", "--at", "w", "--format", "json"],
    )
    assert rc == 0
    assert json.loads(out)["witness"] is None


def test_pseudotame_budget_too_small(capsys):
    rc, out, _ = run(
        capsys,
        ["pseudotame", "--p", "2", "w^4+w^6+w^7", "--at", "w", "--budget", "1"],
    )
    assert rc == 0
    assert "completion unavailable:" in out


def test_pseudotame_sweep_lists_critical_places(capsys):
    rc, out, _ = run(capsys, ["pseudotame", "--p", "2", "w^2+w^5"])
    assert rc == 0
    assert "critical places: (w=0), (w=inf)" in out
    assert "pseudotame everywhere: no" in out


def test_laurent_text_shape(capsys):
    rc, out, _ = run(
        capsys, ["laurent", "--p", "2", "1/(x^2+x)", "--at", "x", "--prec", "6"]
    )
    assert rc == 0
    assert out == (
        "expansion of 1/(x^2+x) at (x=0):\n"
        "u^-1+1+u+u^2+u^3+u^4 + O(u^5)\n"
        "u = x\n"
    )


def test_laurent_text_at_degree_two_place(capsys):
    rc, out, _ = run(
        capsys,
        ["laurent", "--p", "2", "x/(x^2+x+1)", "--at", "x^2+x+1", "--prec", "6"],
    )
    assert rc == 0
    assert out == (
        "expansion of x/(x^2+x+1) at (x^2+x+1=0):\n"
        "z*u^-1+(z+1)+(z+1)*u+(z+1)*u^2+(z+1)*u^3+(z+1)*u^4 + O(u^5)\n"
        "u = x-alpha, alpha the canonical root of x^2+x+1 in GF(2^2)\n"
    )


def test_pseudotame_of_zero_exit_3(capsys):
    rc, out, err = run(capsys, ["pseudotame", "--p", "2", "0"])
    assert (rc, out) == (3, "")
    assert err == "ramforge: error: the zero function has no divisor\n"


@pytest.mark.parametrize("at", [[], ["--at", "w"]])
def test_pseudotame_odd_characteristic_exit_3(capsys, at):
    rc, out, err = run(capsys, ["pseudotame", "--p", "3", "w^2+w^4", *at])
    assert (rc, out) == (3, "")
    assert err == "ramforge: error: this toolkit requires characteristic 2\n"


@pytest.mark.parametrize("p,x", [("2", "w^2+w^4"), ("3", "w^3")])
@pytest.mark.parametrize("at", [[], ["--at", "w"]])
def test_pseudotame_of_square_exit_3(capsys, p, x, at):
    """A square is reported as one before the characteristic is checked."""
    rc, out, err = run(capsys, ["pseudotame", "--p", p, x, *at])
    assert (rc, out) == (3, "")
    assert err == "ramforge: error: dx = 0: x is a square\n"


def test_pseudotame_partner_is_degree_one_or_infinity(capsys):
    """w=0 is avoided, w=1 and infinity are poles: no completion is tried,
    though a degree-2 place would be free."""
    rc, out, _ = run(
        capsys, ["pseudotame", "--p", "2", "(w^2+w^3+w^5)/(w+1)", "--at", "w"]
    )
    assert rc == 0
    assert out == (
        "element: (w^5+w^3+w^2)/(w+1) over GF(2)\n"
        "place: (w=0)\n"
        "v_dx=4 tame=no pseudotame=no\n"
    )


def test_factor_with_unit(capsys):
    rc, out, _ = run(capsys, ["factor", "--p", "5", "2*T^3+2*T"])
    assert rc == 0
    assert out == "2*T^3+2*T = 2 * (T) * (T+2) * (T+3)\n"


def test_field_text(capsys):
    rc, out, _ = run(capsys, ["field", "--p", "2", "--m", "4"])
    assert rc == 0
    assert "modulus: T^4+T+1" in out
    assert "multiplicative generator: z" in out


def test_analyze_unramified_cover_wording(capsys):
    rc, out, _ = run(capsys, ["analyze", "--p", "2", "x+1"])
    assert rc == 0
    assert "unramified cover" in out
