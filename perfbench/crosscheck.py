"""Independent check of survey fibers with sympy (benchmark-only dependency).

For each distinct survey cover t = g/h over a prime field, every fiber in
its report is recomputed: over a finite place q(t) of degree s the points
above are the irreducible factors of sum_i q_i g^i h^(s-i), with their
multiplicities as ramification indices; over t = inf they are the factors
of h, plus x = inf with e = deg g - deg h.
"""

import json

PRIME_FIELDS = ("2^1", "3^1", "5^1")


def _monic_coeffs(poly, p):
    coeffs = [int(c) % p for c in poly.all_coeffs()]
    inv = pow(coeffs[0], -1, p)
    return tuple(c * inv % p for c in coeffs)


def _expected(report, g_text, h_text, p, sympy):
    x, t = sympy.symbols("x t")
    G = sympy.Poly(sympy.sympify(g_text.replace("^", "**")), x, modulus=p)
    H = sympy.Poly(sympy.sympify(h_text.replace("^", "**")), x, modulus=p)
    for fib in report["fibers"]:
        if fib["below"] == "inf":
            N = H
            extra = [("inf", G.degree() - H.degree())]
        else:
            Q = sympy.Poly(sympy.sympify(fib["below"].replace("^", "**")), t,
                           modulus=p)
            s = Q.degree()
            N = sympy.Poly(0, x, modulus=p)
            for i, c in enumerate(reversed(Q.all_coeffs())):
                N += int(c) % p * G**i * H ** (s - i)
            extra = []
        want = sorted(extra + [(_monic_coeffs(f, p), e)
                               for f, e in N.factor_list()[1]], key=str)
        got = sorted((
            ("inf", pt["e"]) if pt["above"] == "inf" else (
                _monic_coeffs(sympy.Poly(sympy.sympify(
                    pt["above"].replace("^", "**")), x, modulus=p), p), pt["e"])
            for pt in fib["points"]), key=str)
        yield fib["below"], want, got


def fibers(results):
    """(number of fibers checked, list of disagreements) over the results.

    The caller passes the jobs of one round: one cover of each degree over
    each prime field keeps the check to about a second.
    """
    import sympy

    done, bad, seen = 0, [], set()
    for r in results:
        _, field, g_text, h_text = r.job.key.split("|")
        if field not in PRIME_FIELDS or r.job.key in seen or r.output is None:
            continue
        seen.add(r.job.key)
        p = int(field.split("^")[0])
        report = json.loads(r.output)
        for below, want, got in _expected(report, g_text, h_text, p, sympy):
            done += 1
            if want != got:
                bad.append(f"{r.job.key} over {below}: sympy {want}, ramforge {got}")
    return done, bad
