"""Dense univariate polynomials over a finite field, with full factorization.

Coefficients are stored ascending as raw integer encodings (see galois);
the zero polynomial has an empty coefficient tuple.  Every routine here is
deterministic: equal-degree splitting walks a fixed, finite candidate list
instead of sampling, so factor lists come out the same on every run and
platform.  Irreducible factors are reported monic and sorted by (degree,
encoding).

The factor chain is classical: squarefree decomposition (with p-th root
extraction when the derivative vanishes), then distinct-degree splitting by
Frobenius powers, then equal-degree splitting by Berlekamp's trace map: the
absolute trace of a candidate modulo the part takes values in GF(p) at the
roots, and any non-constant trace splits the part (see _edf).  The
distinct-degree split yields every block, empty or not: `is_irreducible` is
Ben-Or's test on the first nonempty one, and `roots` splits the d = 1 block.
Every Frobenius step is one _frob_step.  In odd characteristic it reads the
rows x**(p*i) mod F of Berlekamp's Q-matrix, built as the steps reach them,
for F the input of the distinct-degree split or a part of the equal-degree one.

The raw kernels _add, _sub, _mul and _divmod choose their loop once per
call, from the field.  In characteristic 2 addition is XOR, and GF(2) and
the tabulated GF(2**m) multiply and divide in the log domain (_mul2,
_divmod2), as does the Taylor shift _shift.  Over GF(p), p odd, the
kernels, _shift and the packed Frobenius rows are int arithmetic, reduced
mod p only where a value is read (_shift at every term); for p < deg F a
packed row is the row before shifted up, plus p multiply-adds by fixed tail
rows (_frob_row).  Euclid runs on byte slots for p <= 13, a quotient row one
bigint multiply-add (_gcd_bytes), and on int lists past it (_gcd_loop).  An
odd GF(p**m) with q <= 256 keeps plain encodings: a term reads exp at log x
+ log y, a sum the field's addition table (_add_tables).  Past q = 256 a
tabulated one adds GF(p)-digit vectors as ints, read back once per
coefficient (_digit_tables); _monic and _derivative read exp and log on
both.  Field.add_raw and mul_raw are left to the untabulated GF(p**m), and
to _shift over digit sums.  Every power,
plain or mod f, is one _power: the bit_length(e) - 1 squarings through _mul
and popcount(e) - 1 products by the base, none past the result.  Every
caller inherits the choice: gcds, Frobenius and modular powers, the
equal-degree split, the Polynomial operators and the Laurent expansions of
funcfield, each one Taylor shift and one long division.
"""

from array import array
from operator import add, getitem, mul, xor
from sys import byteorder

from .config import MAX_COVER_DEGREE
from .errors import InternalCheckError, ParseError, PreconditionError, SizeBoundError
from .galois import FieldElement, _terms_text
from .record import Record

# ---------------------------------------------------------------------------
# raw kernels: coefficient lists of integer encodings, ascending, trimmed


def _trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


# ---------------------------------------------------------------------------
# characteristic-2 kernels: addition is XOR, products in the log domain

_GF2_TABLES = ([1], [0, 0])  # GF(2): the powers and logs of its generator 1


def _log_tables(K):
    """(exp, log) of GF(2) or of a tabulated GF(2**m); None for other fields.

    The kernels add a log in [0, q-1) to a log shifted down by q - 1, so
    every index into exp lies in [-(q-1), q-1) and a negative one reads
    exp[i + q - 1] = g**i: no reduction modulo q - 1 and no second table.
    """
    if K.p != 2:
        return None
    if K.m == 1:
        return _GF2_TABLES
    if K._exp is None:
        return None
    return K._exp, K._log


def _mul2(tables, a, b):
    """a*b over a field with log tables; the longer factor's logs are read once."""
    exp, log = tables
    n = len(exp)
    if a is b:  # a square: the cross terms cancel in pairs
        out = [0] * (2 * len(a) - 1)
        for i, x in enumerate(a):
            if x:
                out[2 * i] = exp[2 * log[x] - n]
        return out
    if len(a) < len(b):
        a, b = b, a
    la = [(i, log[x] - n) for i, x in enumerate(a) if x]
    out = [0] * (len(a) + len(b) - 1)
    for j, y in enumerate(b):
        if y:
            ly = log[y]
            for i, lx in la:
                out[i + j] ^= exp[lx + ly]
    return _trim(out)


def _divmod2(tables, a, b):
    """Long division over a field with log tables, from the top row down."""
    exp, log = tables
    n = len(exp)
    db = len(b) - 1
    a = list(a)
    if len(a) <= db:
        return [], _trim(a)
    lead = log[b[-1]]
    lb = [(i, log[y] - n) for i, y in enumerate(b[:-1]) if y]
    q = [0] * (len(a) - db)
    for k in range(len(a) - 1 - db, -1, -1):
        c = a[k + db]
        if c:
            lc = log[c] - lead
            if lc < 0:
                lc += n
            q[k] = exp[lc]
            for i, ly in lb:
                a[k + i] ^= exp[lc + ly]
    return _trim(q), _trim(a[:db])


def _add_tables(K):
    """(ADD, E, L) of an odd GF(p**m), m >= 2, q**2 <= TABLE_LIMIT, else None:
    ADD[x][y] = x + y (Field._add); E is exp four times over, then 4(q-1) + 1
    zeros; L[0] = 4(q-1), else the log: E[L[x] + l] = x*g**l for l < 3(q-1)."""
    if K._add is None:
        return None
    if K._sums is None:  # built on first use
        n = K.q - 1
        K._sums = K._add, K._exp * 4 + [0] * (4 * n + 1), [4 * n, *K._log[1:]]
    return K._sums


def _digit_tables(K):
    """(L, D, back) of a tabulated GF(p**m), m >= 2; None for other fields.
    The kernels read them past q = 256 only; up to it they use _add_tables.

    D[l] holds the GF(p) digits of g**l in 32-bit slots, so elements add as
    ints: each digit is below p < 2**8 (p**2 <= TABLE_LIMIT = 2**16), and a
    sum of deg + 1 terms stays below 2**24 for deg <= MAX_COVER_DEGREE.  L is
    the log with L[0] = 2(q-1), from where D is 0: D[L[x] + L[y]] holds the
    digits of x*y.  back(s) is the encoding of a sum s, by m reductions mod p.
    """
    if K._digits is None and K._exp is not None:  # built on first use
        p, n, shifts = K.p, K.q - 1, range(32 * (K.m - 1), -1, -32)

        def back(s):
            v = 0
            for sh in shifts:
                v = v * p + (s >> sh & 0xFFFFFFFF) % p
            return v

        S = [0]  # S[v]: the digits of the encoding v, digit j in slot j
        for j in range(K.m):
            S = [s + (c << 32 * j) for c in range(p) for s in S]
        D = [S[v] for v in K._exp]
        K._digits = [2 * n, *K._log[1:]], D * 2 + [0] * (2 * n + 1), back
    return K._digits


def _add(K, a, b):
    """a + b: XOR in characteristic 2, int sums mod p over GF(p), else tables."""
    if len(a) < len(b):
        a, b = b, a
    if K.m == 1 and K.p > 2:
        return _trim([*map(K.p.__rmod__, map(add, a, b)), *a[len(b):]])
    if K._add:
        return _trim([*map(getitem, map(K._add.__getitem__, a), b), *a[len(b):]])
    if K.p > 2 and (digits := _digit_tables(K)):  # read back once per coefficient
        (L, D, back), out = digits, list(a)
        for j, y in enumerate(b):
            out[j] = back(D[L[out[j]]] + D[L[y]])
        return _trim(out)
    return _trim([*map(xor if K.p == 2 else K.add_raw, a, b), *a[len(b):]])


def _sub(K, a, b):
    p = K.p
    if p > 2 and K.m > 1 and K._exp:  # -y = (p - 1) * y, by table or digit sums
        return _add(K, a, _mul(K, b, [p - 1]))
    nb = b if p == 2 else [-y % p for y in b] if K.m == 1 else [*map(K.neg_raw, b)]
    return _add(K, a, nb)


def _mul(K, a, b):
    """a*b; over GF(p), p odd, or on digit sums (_digit_tables) each coefficient
    is reduced once, after all its terms; on an addition table, two reads."""
    if not a or not b:
        return []
    tables = _log_tables(K)
    if tables is not None:
        return _mul2(tables, a, b)
    out = [0] * (len(a) + len(b) - 1)
    if K.m == 1:
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        p = K.p
        return _trim([v % p for v in out])
    if tables := _add_tables(K):
        ADD, E, L = tables
        lb = [L[y] for y in b]
        for i, x in enumerate(a):
            if x:
                lx = L[x]
                for j, ly in enumerate(lb, i):
                    out[j] = ADD[out[j]][E[lx + ly]]
        return _trim(out)
    if digits := _digit_tables(K):
        L, D, back = digits
        lb = [L[y] for y in b]
        for i, x in enumerate(a):
            if x:
                lx = L[x]
                for j, ly in enumerate(lb, i):
                    out[j] += D[lx + ly]
        return _trim([back(v) for v in out])
    mul, add = K.mul_raw, K.add_raw
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = add(out[i + j], mul(x, y))
    return _trim(out)


def _divmod(K, a, b):
    """Long division.  A row is a loop of int multiply-adds by the negated
    divisor over GF(p), p odd, of table reads (_add_tables) or of digit sums
    (_digit_tables); GF(p) and digit sums reduce row tops and the remainder."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    tables = _log_tables(K)
    if tables is not None:
        return _divmod2(tables, a, b)
    a, db = list(a), len(b) - 1
    if len(a) <= db:
        return [], a
    q = [0] * (len(a) - db)
    if K.m == 1:  # Python ints cannot overflow: deferring % p is exact
        p, nb, inv = K.p, [-y for y in b[:-1]], pow(b[-1], -1, K.p)
        for k in range(len(q) - 1, -1, -1):
            c = q[k] = a[k + db] * inv % p
            if c and nb:
                for j, y in enumerate(nb, k):
                    a[j] += c * y
        return _trim(q), _trim([x % p for x in a[:db]])
    if tables := _add_tables(K):  # rows add c times the logs of -b/lead
        (ADD, E, L), n = tables, K.q - 1
        linv = n - L[b[-1]]
        nb = [L[y] + linv + n // 2 for y in b[:-1]]
        for k in range(len(q) - 1, -1, -1):
            if c := a[k + db]:
                lc = L[c]
                q[k] = E[lc + linv]
                for j, ly in enumerate(nb, k):
                    a[j] = ADD[a[j]][E[lc + ly]]
        return _trim(q), _trim(a[:db])
    if digits := _digit_tables(K):
        (L, D, back), n, exp = digits, K.q - 1, K._exp
        a, lb, linv = [D[L[x]] for x in a], [L[y] for y in b[:-1]], n - L[b[-1]]
        for k in range(len(q) - 1, -1, -1):
            c = back(a[k + db])
            if c:
                lc = (L[c] + linv) % n
                q[k] = exp[lc]
                lc = (lc + n // 2) % n  # -1 = g**((q-1)/2): the row subtracts
                for j, ly in enumerate(lb, k):
                    a[j] += D[lc + ly]
        return _trim(q), _trim([back(v) for v in a[:db]])
    inv = K.inv_raw(b[-1])
    for k in range(len(q) - 1, -1, -1):
        if a[k + db]:
            c = q[k] = K.mul_raw(a[k + db], inv)
            nc = K.neg_raw(c)
            for i, y in enumerate(b):
                if y:
                    a[k + i] = K.add_raw(a[k + i], K.mul_raw(nc, y))
    return _trim(q), _trim(a[:db])


def _mod(K, a, b):
    return _divmod(K, a, b)[1]


def _monic(K, a):
    if not a:
        return [], 1
    lc = a[-1]
    if lc == 1:
        return list(a), 1
    if K.m == 1:  # a times 1/lc, no field call
        return _mul(K, a, [pow(lc, -1, K.p)]), lc
    if K.p > 2 and K._exp:  # times g**-log(lc), on the field's exp/log
        exp, log, n, out = K._exp, K._log, K.q - 1, []
        s = n - log[lc]
        for c in a:
            out.append(exp[(log[c] + s) % n] if c else 0)
        return out, lc
    inv = K.inv_raw(lc)
    return [K.mul_raw(c, inv) for c in a], lc


def _gcd(K, a, b):
    """The monic gcd: over GF(p), p odd, by _gcd_bytes or _gcd_loop, else by _mod."""
    if K.m == 1 and K.p > 2:
        return (_gcd_bytes if K.p in _BYTE_TABLES else _gcd_loop)(K.p, a, b)
    a, b = list(a), list(b)
    while b:
        a, b = b, _mod(K, a, b)
    return _monic(K, a)[0]


def _gcd_loop(p, a, b):
    """The monic gcd over GF(p) by Euclid on int lists: a row adds int products
    by the negated monic divisor, % p read only on row tops and remainders."""
    a, b = list(a), list(b)
    while b:
        inv = p - pow(b[-1], -1, p)
        nb, db = [y * inv % p for y in b[:-1]], len(b) - 1
        for k in range(len(a) - 1 - db, -1, -1):
            c = a[k + db] % p
            if c:
                for j, y in enumerate(nb, k):
                    a[j] += c * y
        del a[db:]
        while a and not a[-1] % p:
            a.pop()
        a, b = b, a
    inv = pow(a[-1], -1, p) if a else 0
    return [x * inv % p for x in a]


# p -> (byte v -> v % p, v -> 1/v mod p for v < p), for (p - 1)*p + p - 1 <= 255
_BYTE_TABLES = {p: (bytes(v % p for v in range(256)), [0, *(pow(v, -1, p) for v in range(1, p))])
                for p in (3, 5, 7, 11, 13)}


def _gcd_bytes(p, a, b):
    """The monic gcd over GF(p), p <= 13, by Euclid on byte slots: coefficient i
    is byte i of an int.  A quotient row is A += (c / lead % p) * nb << 8*k, for
    nb = p*0x0101...01 - (B's low part), and adds at most (p - 1)*p to a slot.
    So no slot carries (A keeps its la bytes) if they are reduced, by a table,
    every (256 - p) // ((p - 1)*p) rows (42 over GF(3), 1 over GF(13))."""
    (table, inverse), budget = _BYTE_TABLES[p], (256 - p) // ((p - 1) * p)
    A, B = int.from_bytes(bytes(a), "little"), int.from_bytes(bytes(b), "little")
    while B:
        la, db = -(-A.bit_length() // 8), (B.bit_length() - 1) >> 3
        low = (1 << 8 * db) - 1
        inv, nb, rows = inverse[B >> 8 * db], low // 255 * p - (B & low), 0
        for k in range(la - 1 - db, -1, -1):
            if c := (A >> 8 * (k + db) & 255) % p:
                if rows == budget:
                    A, rows = int.from_bytes(A.to_bytes(la, "little").translate(table), "little"), 0
                A += c * inv % p * nb << 8 * k
                rows += 1
        A, B = B, int.from_bytes((A & low).to_bytes(db, "little").translate(table), "little")
    a = A.to_bytes(-(-A.bit_length() // 8), "little")
    inv = inverse[a[-1]] if a else 0
    return [x * inv % p for x in a]


def _derivative(K, a):
    p, out = K.p, []
    if K.m == 1:
        for k in range(1, len(a)):
            out.append(a[k] * k % p)
    elif p > 2 and K._exp:  # on the field's exp/log
        exp, log, n = K._exp, K._log, K.q - 1
        for k in range(1, len(a)):
            c = a[k]
            out.append(exp[(log[c] + log[k % p]) % n] if c and k % p else 0)
    else:
        for k in range(1, len(a)):
            out.append(K.mul_raw(a[k], k % p))
    return _trim(out)


def _shift(K, a, alpha):
    """a(x + alpha) = sum c_k x**k by the Taylor shift, on raw coefficients.

    Pass k divides c_k + ... + c_n x**(n-k) by x - alpha synthetically
    (c_j += alpha * c_(j+1), from the top down), leaving the remainder,
    the k-th Taylor coefficient of a at alpha, in c_k: n(n-1)/2
    multiply-adds for n coefficients."""
    c = list(a)
    if not alpha:
        return c
    n = len(c)
    tables = _log_tables(K)
    if tables is not None:
        exp, log = tables
        la = log[alpha] - len(exp)
        for k in range(n - 1):
            t = c[-1]
            for j in range(n - 2, k - 1, -1):
                t = c[j] = c[j] ^ exp[log[t] + la] if t else c[j]
        return c
    if K.m == 1:
        p = K.p
        for k in range(n - 1):
            t = c[-1]
            for j in range(n - 2, k - 1, -1):
                t = c[j] = (c[j] + t * alpha) % p
        return c
    if tables := _add_tables(K):
        (ADD, E, L), la = tables, tables[2][alpha]
        for k in range(n - 1):
            t = c[-1]
            for j in range(n - 2, k - 1, -1):
                t = c[j] = ADD[c[j]][E[L[t] + la]]
        return c
    mul, add = K.mul_raw, K.add_raw
    for k in range(n - 1):
        t = c[-1]
        for j in range(n - 2, k - 1, -1):
            t = c[j] = add(c[j], mul(t, alpha)) if t else c[j]
    return c


_SLOTS = {1: "B", 2: "H", 4: "I", 8: "Q"}  # slot bytes -> array typecode


def _slot_width(K, F):
    """Bytes per slot of F's packed map over GF(p), p odd: the least of 1, 2, 4,
    8 holding a step's top sum, n * (p - 1) * r for n = deg F and r a row's
    largest slot; 0 past 8 bytes (p ~ 2**31).  For p >= n rows are reduced,
    r = p - 1; for p < n, r = (n + p - 1) * (p - 1)**2 + 1 (_frob_row)."""
    if K.p == 2 or K.m > 1:
        return 0
    n, p = len(F) - 1, K.p
    r = (n + p - 1) * (p - 1) ** 2 + 1 if p < n else p - 1
    nbytes = -(-(n * (p - 1) * r).bit_length() // 8)
    w = 1 << (nbytes - 1).bit_length()  # nbytes rounded up to 1, 2, 4, 8, ...
    return w if w <= 8 else 0


def _unpack(v, n, w):
    return memoryview(v.to_bytes(n * w, byteorder)).cast(_SLOTS[w])


class _Map(list):  # a Frobenius map's rows; len counts rows, not the tail
    tail = None


def _frob_map(K, F):
    """F's Frobenius map with row 0 = 1 built; see _frob_step.  With packed
    rows and p < n = deg F it gets tail rows x**(n + k) mod F, k < p, at its
    first build, and rows stay unreduced (the slot bound is in _frob_row)."""
    return _Map([1] if _slot_width(K, F) else [[1]])


def _frob_row(K, rows, F, w):
    """Row i = len(rows) of the Frobenius map of F, x**(p*i) mod F.

    For packed rows and p < n = deg F, x**p times row i - 1 is that row
    shifted up p slots, its top slots c_k dropped, plus the sum over k < p
    of (c_k % p) * T_k, T_k = x**(n + k) mod F reduced: p bigint
    multiply-adds, and no reduction.  A build adds at most p * (p - 1)**2 to
    a slot and moves it up p places, so a slot is at most row 0's 1 plus
    ceil(n / p) such sums: (n + p - 1) * (p - 1)**2 + 1.  List rows are row
    i - 1 shifted and reduced mod F.  For p >= n row 1 is x**p mod F, one
    _power, and row i is row 1 times row i - 1 mod F.
    """
    p, n = K.p, len(F) - 1
    if w and p < n:
        b, m, code = 8 * w, n * w, _SLOTS[w]
        if rows.tail is None:  # x**n = -F[:n] / lead, x**(n+k+1) = x * x**(n+k)
            inv = p - pow(F[-1], -1, p)
            t0 = array(code, [c * inv % p for c in F[:-1]])
            T = T0 = tail = int.from_bytes(t0, byteorder)
            for k in range(1, p):  # T_k, its slots unreduced but below p**3
                T = ((T & (1 << 8 * m - b) - 1) << b) + (T >> 8 * m - b) % p * T0
                tail += T << 8 * m * k
            r = array(code, [c % p for c in _unpack(tail, p * n, w)])
            tail = [int.from_bytes(r[k : k + n], byteorder) for k in range(0, p * n, n)]
            rows.tail = tail, b * (n - p), (1 << b * (n - p)) - 1, (1 << b) - 1
        (tail, s, low, mask), v = rows.tail, rows[-1]
        top, row = v >> s, (v & low) << b * p
        for T in tail:
            if c := (top & mask) % p:
                row += c * T
            top >>= b
        return row
    read = (lambda r: _trim(list(_unpack(r, n, w)))) if w else (lambda r: r)
    if p < n:  # list rows: packed ones took the branch above
        row = _mod(K, [0] * p + rows[-1], F)
    elif len(rows) == 1:
        row = _power(K, [0, 1], p, F)
    else:
        row = _mod(K, _mul(K, read(rows[1]), read(rows[-1])), F)
    return int.from_bytes(array(_SLOTS[w], row), byteorder) if w else row


def _frob_step(K, h, f, rows, F):
    """h**p mod f, for h reduced mod F and f | F; the result is reduced mod F.

    Since (sum h_i x**i)**p = sum h_i**p x**(p*i), the step is the map
    h -> sum(phi(h_i) * rows[i]), phi the coefficient Frobenius and rows[i]
    = x**(p*i) mod F: n**2 products at most for n = deg F, where spreading
    h over x**p and reducing takes (p - 1)*n**2.  The step first extends
    rows to deg h, so a caller that stops early builds only what it reads.
    Over GF(p), p odd, phi is the identity and each row one int of packed
    slots (_slot_width), so a step is deg F bigint multiply-adds and one
    unpacking mod p; GF(p**m) keeps list rows, summed by table or digit sums.
    In characteristic 2, p - 1 = 1: the rows would only add their cost, so
    h is spread over x**2 and reduced mod f.
    """
    if K.p == 2:
        spread = [0] * (2 * len(h) - 1)
        spread[::2] = map(K.frobenius_raw, h)
        return _mod(K, spread, f)
    w, p = _slot_width(K, F), K.p
    while len(rows) < len(h):
        rows.append(_frob_row(K, rows, F, w))
    if w:
        return _trim([v % p for v in _unpack(sum(map(mul, h, rows)), len(F) - 1, w)])
    out = [0] * (len(F) - 1)
    if tables := _add_tables(K):
        ADD, E, L = tables
        for c, row in zip(h, rows):
            if c:
                lc = L[c] * p % (K.q - 1)  # phi multiplies a log by p
                for j, r in enumerate(row):
                    out[j] = ADD[out[j]][E[lc + L[r]]]
        return _trim(out)
    if digits := _digit_tables(K):
        L, D, back = digits
        for c, row in zip(h, rows):
            if c:
                lc = L[c] * p % (K.q - 1)  # phi multiplies a log by p
                for j, r in enumerate(row):
                    out[j] += D[lc + L[r]]
        return _trim([back(v) for v in out])
    mul_raw, add = K.mul_raw, K.add_raw
    for c, row in zip(h, rows):
        if c:
            c = K.frobenius_raw(c)
            for j, r in enumerate(row):
                if r:
                    out[j] = add(out[j], mul_raw(c, r))
    return _trim(out)


def _power(K, a, e, f=None):
    """a**e, reduced mod f when f is given, by binary powering from the top
    bit of e down: r = a, then r = r*r for each lower bit and r = r*a when
    it is set, so bit_length(e) - 1 squarings (through _mul, which spreads
    them in characteristic 2) and popcount(e) - 1 other products."""

    def mul(x, y):
        return _mul(K, x, y) if f is None else _mod(K, _mul(K, x, y), f)

    r = a = a if f is None else _mod(K, a, f)
    for bit in bin(e)[3:]:
        r = mul(r, r)
        if bit == "1":
            r = mul(r, a)
    return r if e else [1]


def _pth_root_poly(K, a):
    """The p-th root of a polynomial lying in F[x**p]."""
    out = []
    for i in range(0, len(a), K.p):
        out.append(K.pth_root_raw(a[i]))
    return _trim(out)


def _decode(K, k):
    digits = []
    while k:
        digits.append(k % K.q)
        k //= K.q
    return digits


def _encode(K, a):
    v = 0
    for c in reversed(a):
        v = v * K.q + c
    return v


# ---------------------------------------------------------------------------


class Polynomial:
    """A dense univariate polynomial over a fixed finite field."""

    __slots__ = ("field", "_c")

    def __init__(self, field, coeffs=()):
        raw = []
        for c in coeffs:
            if isinstance(c, FieldElement):
                if c.field != field:
                    raise PreconditionError("coefficient from a different field")
                raw.append(c.val)
            else:
                raw.append(field.element(c).val)
        _trim(raw)
        self.field = field
        self._c = tuple(raw)

    @classmethod
    def _raw(cls, field, coeffs):
        p = cls.__new__(cls)
        p.field = field
        p._c = tuple(coeffs)
        return p

    @classmethod
    def x(cls, field):
        return cls._raw(field, (0, 1))

    @classmethod
    def constant(cls, field, c):
        v = field.element(c).val
        return cls._raw(field, (v,) if v else ())

    @classmethod
    def monomial(cls, field, k, c=1):
        v = field.element(c).val
        if v == 0:
            return cls._raw(field, ())
        return cls._raw(field, (0,) * k + (v,))

    # -- inspection ----------------------------------------------------

    @property
    def coeffs(self):
        return tuple(FieldElement(self.field, v) for v in self._c)

    def coefficient(self, i):
        v = self._c[i] if 0 <= i < len(self._c) else 0
        return FieldElement(self.field, v)

    @property
    def degree(self):
        return len(self._c) - 1

    def is_zero(self):
        return not self._c

    def is_constant(self):
        return len(self._c) <= 1

    def is_monic(self):
        return bool(self._c) and self._c[-1] == 1

    @property
    def leading_coefficient(self):
        if not self._c:
            return FieldElement(self.field, 0)
        return FieldElement(self.field, self._c[-1])

    def encoding(self):
        """Integer key sum(raw_i * q**i); the canonical ordering of polynomials."""
        return _encode(self.field, self._c)

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.field != self.field:
                raise PreconditionError("polynomials over different fields")
            return other
        if isinstance(other, (int, FieldElement)):
            return Polynomial.constant(self.field, other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Polynomial._raw(self.field, _add(self.field, self._c, o._c))

    __radd__ = __add__

    def __neg__(self):
        K = self.field
        return Polynomial._raw(K, [K.neg_raw(c) for c in self._c])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Polynomial._raw(self.field, _sub(self.field, self._c, o._c))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Polynomial._raw(self.field, _mul(self.field, self._c, o._c))

    __rmul__ = __mul__

    def __divmod__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        q, r = _divmod(self.field, self._c, o._c)
        return Polynomial._raw(self.field, q), Polynomial._raw(self.field, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, e):
        if e < 0:
            raise PreconditionError("negative polynomial power")
        return Polynomial._raw(self.field, _power(self.field, self._c, e))

    def monic(self):
        return Polynomial._raw(self.field, _monic(self.field, self._c)[0])

    def derivative(self):
        return Polynomial._raw(self.field, _derivative(self.field, self._c))

    def shift(self, alpha):
        """self(x + alpha); see _shift."""
        K = self.field
        return Polynomial._raw(K, _shift(K, self._c, K.element(alpha).val))

    # -- misc -----------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.field == other.field
            and self._c == other._c
        )

    def __hash__(self):
        return hash((self.field.p, self.field.m, self._c))

    def __bool__(self):
        return bool(self._c)

    def to_text(self, var="T"):
        return format_polynomial(self, var)

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"Polynomial({self.to_text()!r} over {self.field!r})"


# ---------------------------------------------------------------------------
# factorization


class Factorization(Record):
    # unit: a FieldElement; factors: (Polynomial, int) pairs, monic, sorted
    # by (degree, encoding)
    __slots__ = ("unit", "factors")


def gcd(a, b):
    if a.field != b.field:
        raise PreconditionError("polynomials over different fields")
    return Polynomial._raw(a.field, _gcd(a.field, a._c, b._c))


def _divide_out(K, c, w):
    """(c / w^k, k) for the largest k with w^k | c, in about 2 log2(k)
    divisions: divide by w, w^2, w^4, ... while they divide; w's power in
    what is left is below the first that failed, and the same powers,
    descending, read off its binary digits."""
    pows, k, pw = [], 0, w
    while len(pw) <= len(c):
        q, r = _divmod(K, c, pw)
        if r:
            break
        c, k = q, 2 * k + 1
        pows.append(pw)
        pw = _mul(K, pw, pw)
    for j in range(len(pows) - 1, -1, -1):
        if len(pows[j]) <= len(c):
            q, r = _divmod(K, c, pows[j])
            if not r:
                c, k = q, k + (1 << j)
    return c, k


def squarefree_decompose(f):
    """Pairwise-coprime squarefree parts: f = lc * prod(g_i ** m_i).

    Parts are monic, merged when multiplicities collide, and sorted by
    (degree, encoding).
    """
    if f.is_zero():
        raise PreconditionError("cannot decompose the zero polynomial")
    K = f.field
    found = {}
    a, scale = _monic(K, f._c)[0], 1
    while len(a) - 1 > 0:  # Yun's loop on a, then a = the p-th root of the rest
        c, d = a, _derivative(K, a)
        if d:
            c = _gcd(K, a, d)
            w = _divmod(K, a, c)[0]
            i = 1
            while len(w) - 1 > 0:
                y = _gcd(K, w, c)
                if len(y) == len(w):  # no part has multiplicity i: go to the next
                    c, k = _divide_out(K, c, w)
                    i += k
                    continue
                z = _divmod(K, w, y)[0]
                if len(z) - 1 > 0:
                    cur = found.get(i * scale)
                    found[i * scale] = _mul(K, cur, z) if cur else z
                i += 1
                w = y
                c = _divmod(K, c, y)[0]
        a, scale = _pth_root_poly(K, c), scale * K.p
    out = [(Polynomial._raw(K, part), mult) for mult, part in found.items()]
    out.sort(key=lambda t: (t[0].degree, t[0].encoding()))
    return out


def _ddf(K, f):
    """Distinct-degree split of a monic f, yielding (product, d) at each step.

    Step d takes g = gcd(x**(q**d) - x mod f, f), the product of the distinct
    irreducible factors of f of degree dividing d, yielded even when it is 1.
    In the first nonempty block d is the least degree of an irreducible
    factor, so d = deg f exactly when f is irreducible (Ben-Or's test).  The
    blocks multiply to f only when f is squarefree, which `factor` passes.

    A step is m Frobenius steps (_frob_step), which for odd p read one map
    of the input modulus F, its rows x**(p*i) mod F.  When a block g is
    divided out of f, h stays reduced mod F and the map is kept: f divides
    F, so gcd(h - x, f) is the same as for h mod f.
    """
    h = x = [0, 1]
    F, rows = f, _frob_map(K, f)
    d = 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        for _ in range(K.m):
            h = _frob_step(K, h, f, rows, F)
        g = _gcd(K, _sub(K, h, x), f)
        yield g, d
        if len(g) - 1 > 0:
            f = _divmod(K, f, g)[0]
    if len(f) - 1 > 0:
        yield f, len(f) - 1


_SHIFTS_BEFORE_CHECK = 64  # failed shifts a before T**p == T is verified


def _try_split(K, part, cand, d, rows):
    """One split attempt by the trace of cand; a proper monic factor or None.

    T = sum(cand**(p**i) for i < m*d) mod part takes, at every root of part,
    the absolute trace of cand there, a value in GF(p).  A constant T fails
    at once.  Otherwise gcd(part, T) splits for p = 2; for odd p, some
    gcd(part, T + a) with a in GF(p) splits at the latest when -a is one of
    the trace values, and (T + a)**((p-1)/2) - 1 is tried alongside.  Every
    Frobenius step reads rows, the map of part that its attempts share.
    """
    t = _mod(K, cand, part)
    trace = t
    for _ in range(K.m * d - 1):
        t = _frob_step(K, t, part, rows, part)
        trace = _add(K, trace, t)
    if len(trace) <= 1:
        return None
    n = len(part) - 1
    for a in range(K.p):
        if a == _SHIFTS_BEFORE_CHECK and _frob_step(K, trace, part, rows, part) != trace:
            # T is not GF(p)-valued, so part is not a product of degree-d
            # irreducibles and no shift splits it; for large p, say so now
            raise InternalCheckError(
                "equal-degree split: trace not in GF(p)",
                payload={"field": [K.p, K.m], "degree": d, "part": part},
            )
        shifted = _add(K, trace, [a])
        g = _gcd(K, part, shifted)
        if 0 < len(g) - 1 < n:
            return g
        if K.p == 2:
            continue
        half = _power(K, shifted, (K.p - 1) // 2, part)
        g = _gcd(K, part, _sub(K, half, [1]))
        if 0 < len(g) - 1 < n:
            return g
    return None  # only for a part that is not a product of degree-d irreducibles


def _candidates(K, n, j0, i0):
    """Positions (j, i) of the split candidates z**i * x**j for a degree-n part.

    1 <= j < n with p not dividing j, 0 <= i < m, from (j0, i0) on.
    """
    for j in range(j0, n):
        if j % K.p:
            for i in range(i0 if j == j0 else 0, K.m):
                yield j, i


def _edf(K, f, d):
    """All monic irreducible factors of a squarefree f, each of degree d.

    A part of degree n = k*d (k >= 2) is split by the first candidate
    z**i * x**j (encoding p**i for z**i; 1 <= j < n, p not dividing j; j
    outer, i inner) whose trace modulo the part is not constant; see
    _try_split.  Such a candidate exists: the trace is GF(p)-linear, it
    maps K[x]/(part) onto GF(p)**k and Tr(c**p) = Tr(c), so the traces of
    the candidates together with the constants span that image, which is
    more than the constants.  A part therefore splits within m*(n-1)
    attempts.  The candidates that failed on a part have a constant trace
    on each of its factors, so both factors resume the walk at the
    candidate that split it.  A part the walk cannot split, or a factor
    found twice, means f was not a squarefree product of degree-d
    irreducibles and raises InternalCheckError.
    """
    out = []
    stack = [(f, 1, 0)]
    while stack:
        part, j0, i0 = stack.pop()
        n = len(part) - 1
        if n == d:
            if part in out:
                raise InternalCheckError(
                    "equal-degree split found a factor twice",
                    payload={"field": [K.p, K.m], "degree": d, "factor": part},
                )
            out.append(part)
            continue
        rows = _frob_map(K, part)  # read by all the attempts on part
        for j, i in _candidates(K, n, j0, i0):
            g = _try_split(K, part, [0] * j + [K.p**i], d, rows)
            if g is not None:
                stack.append((g, j, i))
                stack.append((_divmod(K, part, g)[0], j, i))
                break
        else:
            raise InternalCheckError(
                "equal-degree split ran out of candidates",
                payload={"field": [K.p, K.m], "degree": d, "part": part},
            )
    return out


def factor(f):
    """Complete factorization into monic irreducibles times the unit."""
    if f.is_zero():
        raise PreconditionError("cannot factor the zero polynomial")
    K = f.field
    unit = f.leading_coefficient
    pieces = []
    for g, mult in squarefree_decompose(f):
        for prod, d in _ddf(K, list(g._c)):
            for irr in _edf(K, prod, d) if len(prod) > 1 else ():
                pieces.append((Polynomial._raw(K, irr), mult))
    pieces.sort(key=lambda t: (t[0].degree, t[0].encoding()))
    fac = Factorization(unit=unit, factors=tuple(pieces))
    return fac


def roots(f):
    """The distinct roots in the field, by encoding: the degree-1 block, split."""
    if f.is_zero():
        raise PreconditionError("cannot factor the zero polynomial")
    K = f.field
    g = next(_ddf(K, _monic(K, f._c)[0]), ([1], 0))[0]
    if len(g) < 2:
        return []
    rs = [FieldElement(K, K.neg_raw(r[0])) for r in _edf(K, g, 1)]
    return sorted(rs, key=lambda r: r.val)


def _least_root(f):
    """The encoding-minimal root of f in its own field, or None: the one
    canonical root, of a place and of a subfield modulus (galois.embed).
    Beyond degree 1, `roots` runs once per f and its field keeps the root."""
    K = f.field
    if f.degree == 1:
        return FieldElement(K, K.mul_raw(K.neg_raw(f._c[0]), K.inv_raw(f._c[1])))
    if f._c not in K._least_roots:
        K._least_roots[f._c] = next(iter(roots(f)), None)
    return K._least_roots[f._c]


def is_irreducible(f):
    """Ben-Or's test: the first nonempty distinct-degree block has d = n.

    A polynomial of degree >= 2 with zero derivative lies in K[x**p]; over a
    finite (hence perfect) field it is the p-th power of a polynomial of
    positive degree, so it is rejected before any Frobenius step.
    """
    K = f.field
    if f.degree < 1 or not _derivative(K, f._c):
        return False
    return next(d for g, d in _ddf(K, _monic(K, f._c)[0]) if len(g) > 1) == f.degree


def irreducibles(field, d):
    """The monic irreducibles of degree d >= 1, in encoding order.

    The first q candidates are T^d + c.  For d >= 2 with p | d their
    derivative vanishes, so each is a p-th power and the walk starts after
    them.
    """
    base = field.q**d
    start = field.q if d >= 2 and d % field.p == 0 else 0
    for j in range(start, base):
        f = Polynomial._raw(field, _decode(field, base + j))
        if is_irreducible(f):
            yield f


def _trace(K, a):
    """The absolute trace a + a**p + ... + a**(p**(m-1)), an encoding in GF(p)."""
    t = x = a
    for _ in range(K.m - 1):
        x = K.frobenius_raw(x)
        t = K.add_raw(t, x)
    return t


def irreducible_poly(field, d):
    """The canonical (encoding-minimal) monic irreducible of degree d.

    For p = 2 and d = 2 it follows from the trace.  Every T^2 + c is a
    square, and T^2 + T + c is irreducible iff Tr(c) = 1 (the Artin-Schreier
    criterion; Lidl and Niederreiter, Finite Fields, Ch. 3).  Tr is
    GF(2)-linear, so Tr vanishes on every encoding below 2**k when Tr(z**i) = 0
    for all i < k: the least c with Tr(c) = 1 is z**k, encoding 2**k, for the
    least such k.  One irreducibility test confirms T^2 + T + z**k.
    """
    if d < 1:
        raise PreconditionError("degree must be >= 1")
    if field.p == 2 and d == 2:
        for k in range(field.m):
            if _trace(field, 2**k) == 1:
                f = Polynomial._raw(field, (2**k, 1, 1))
                if is_irreducible(f):
                    return f
                break
        raise InternalCheckError(
            "trace criterion gave no irreducible T^2+T+c",
            payload={"field": [field.p, field.m]},
        )
    return next(irreducibles(field, d))


# ---------------------------------------------------------------------------
# text form: the terms c*X^k in descending degree, by galois._terms_text


def format_polynomial(f, var="T"):
    K = f.field
    return _terms_text([(i, FieldElement(K, v)) for i, v in enumerate(f._c)][::-1], var)


def _tokenize(s):
    toks = []
    i = 0
    while i < len(s):
        ch = s[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(s) and s[j].isdigit():
                j += 1
            try:
                value = int(s[i:j])
            except ValueError:  # past the interpreter's int_max_str_digits
                raise SizeBoundError(
                    f"integer at position {i} has too many digits"
                ) from None
            toks.append(("INT", value, i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(s) and s[j].isalpha():
                j += 1
            toks.append(("NAME", s[i:j], i))
            i = j
            continue
        if ch in "+-*^()":
            toks.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r} at position {i}")
    toks.append(("END", None, len(s)))
    return toks


def _check_parsed_degree(degree, pos):
    """Reject a product or power of degree above the cap before building it.
    A power's exponent is unbounded, so a degree past 2**64 is named by its
    bit length: its digits could pass the interpreter's int_max_str_digits."""
    if degree > MAX_COVER_DEGREE:
        if degree.bit_length() > 64:
            degree = f"above 2^{degree.bit_length() - 1}"
        raise SizeBoundError(
            f"degree {degree} at position {pos} exceeds the cap {MAX_COVER_DEGREE}"
        )


MAX_NESTING = 100  # parentheses; each level takes four frames of recursion


class _PolyParser:
    def __init__(self, text, field, var):
        self.toks = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.field = field
        self.var = var

    def peek(self):
        return self.toks[self.pos]

    def take(self, kind=None):
        tok = self.toks[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind} at position {tok[2]}")
        self.pos += 1
        return tok

    def parse(self):
        out = self.expr()
        tok = self.peek()
        if tok[0] != "END":
            raise ParseError(f"trailing input at position {tok[2]}")
        return out

    def expr(self):
        sign = 1
        if self.peek()[0] in "+-":
            sign = -1 if self.take()[0] == "-" else 1
        acc = self.term()
        if sign < 0:
            acc = -acc
        while self.peek()[0] in "+-":
            op = self.take()[0]
            t = self.term()
            acc = acc - t if op == "-" else acc + t
        return acc

    def term(self):
        acc = self.factor()
        while self.peek()[0] == "*":
            pos = self.take()[2]
            rhs = self.factor()
            _check_parsed_degree(acc.degree + rhs.degree, pos)
            acc = acc * rhs
        return acc

    def factor(self):
        base = self.base()
        if self.peek()[0] == "^":
            self.take()
            tok = self.take("INT")
            if tok[1] < 0:
                raise ParseError(f"negative exponent at position {tok[2]}")
            _check_parsed_degree(base.degree * tok[1], tok[2])
            return base ** tok[1]
        return base

    def base(self):
        tok = self.peek()
        if tok[0] == "INT":
            self.take()
            return Polynomial.constant(self.field, tok[1] % self.field.p)
        if tok[0] == "NAME":
            self.take()
            if tok[1] == self.var:
                return Polynomial.x(self.field)
            if tok[1] == "z" and self.field.m > 1:
                return Polynomial.constant(self.field, self.field.gen)
            raise ParseError(f"unknown name {tok[1]!r} at position {tok[2]}")
        if tok[0] == "(":
            self.take()
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise SizeBoundError(
                    f"parenthesis at position {tok[2]} nests deeper than {MAX_NESTING}"
                )
            inner = self.expr()
            self.take(")")
            self.depth -= 1
            return inner
        raise ParseError(f"unexpected token at position {tok[2]}")


def parse_polynomial(text, field, var="T"):
    if not text.strip():
        raise ParseError("empty polynomial text")
    return _PolyParser(text, field, var).parse()
