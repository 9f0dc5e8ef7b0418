"""Acceptance suite: one test per shipped criterion, all checked exactly.

Every test prints a single pass/fail line (visible with ``pytest -s`` or
``-rA``) before asserting, so a full run doubles as a checklist.
"""

import random
from fractions import Fraction
from itertools import accumulate

from cfhankel.catalog import (
    catalan_numbers,
    catalog_cfraction,
    expand_rational_gf,
    fibonacci_numbers,
    verify_claims,
)
from cfhankel.cfrac import CFraction, correspond, evaluate
from cfhankel.closedform import NegativePExponent, dense_transform, p_sequence
from cfhankel.exact import GAMMA, ParamPoly, series
from cfhankel.hankel_oracle import hankel_transform
from crosscheck import a_from_b, b_from_a, determinant_identity_residual

FIB_DENSE_12 = [1, 1, -2, 0, 72, 0, 0, 1944000, 0, 0, 0, 0, 1547934105600000000]


def _report(number: int, description: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")
    assert ok, f"criterion {number}: {description}"


def _random_valid_cfraction(rng: random.Random) -> CFraction:
    while True:
        n = rng.randint(1, 6)
        a = [rng.choice([1, -1, 2, -2, 3, -3, Fraction(1, 2), Fraction(-1, 2)])
             for _ in range(n)]
        q = [rng.choice([1, 2, 3]) for _ in range(n)]
        try:
            p_sequence([1] + q)
        except NegativePExponent:
            continue
        return CFraction(tuple(Fraction(v) for v in a), tuple(q))


def _oracle_equals_closed(cf: CFraction, max_n: int) -> bool:
    oracle = hankel_transform(evaluate(cf, 2 * max_n).coeffs, max_n)
    closed = dense_transform(cf, max_n)
    return oracle == list(closed.dense)


def test_criterion_1_catalan_transform_all_ones():
    transform = hankel_transform(catalan_numbers(13), 6)
    _report(1, "Catalan numbers have unit Hankel transform through n=6",
            transform == [1] * 7)


def test_criterion_2_aerated_catalan_all_ones():
    catalan = catalan_numbers(10)
    aerated = [catalan[k // 2] if k % 2 == 0 else Fraction(0) for k in range(19)]
    transform = hankel_transform(aerated, 9)
    _report(2, "aerated Catalan numbers have unit Hankel transform through n=9",
            transform == [1] * 10)


def test_criterion_3_fibonacci_dense_values():
    cf = catalog_cfraction("fibonacci-cf", terms=8)
    oracle = hankel_transform(evaluate(cf, 24).coeffs, 12)
    closed = list(dense_transform(cf, 12).dense)
    # the quoted dense list is trusted only as far as the oracle backs it
    ok = oracle == FIB_DENSE_12 or closed == oracle
    _report(3, "Fibonacci-coefficient fraction reproduces its quoted dense transform",
            ok and oracle == FIB_DENSE_12)


def test_criterion_4_oracle_equality_catalog_and_random():
    checks = [
        (catalog_cfraction("catalan", terms=13), 6),
        (catalog_cfraction("aerated-catalan", terms=10), 9),
        (catalog_cfraction("fibonacci-cf", terms=8), 12),
        (catalog_cfraction("rogers-ramanujan", terms=6), 4),
        (catalog_cfraction("rogers-ramanujan", gamma=Fraction(1), terms=6), 6),
        (catalog_cfraction("rogers-ramanujan", gamma=Fraction(2), terms=6), 6),
    ]
    rng = random.Random(2024)
    while sum(1 for _ in checks) < 56:  # 6 catalog instances + 50 random
        cf = _random_valid_cfraction(rng)
        positions = p_sequence([1, *cf.q])
        max_n = min(sum(positions[1:]) + 2, 10)
        checks.append((cf, max_n))
    ok = all(_oracle_equals_closed(cf, max_n) for cf, max_n in checks)
    _report(4, "closed form equals the determinant oracle on catalog plus "
               f"{len(checks) - 6} random fractions, zeros included", ok)


def test_criterion_5_rogers_ramanujan_symbolic():
    symbolic = evaluate(catalog_cfraction("rogers-ramanujan", terms=5), 4)
    h2 = hankel_transform(symbolic.coeffs, 2)[2]
    monomial = (
        isinstance(h2, ParamPoly)
        and sum(1 for c in h2.coeffs if c != 0) == 1
        and h2 == -(GAMMA**4)
    )
    cf = catalog_cfraction("rogers-ramanujan", terms=2)
    closed = dense_transform(cf, 2).dense[2]
    report = verify_claims(12)
    verdict = next(c.verdict for c in report.claims if c.id == "ex4-value-depth-2")
    quoted = -(GAMMA**6)
    at_1_agrees = h2.evaluate(1) == quoted.evaluate(1)
    at_2_differs = h2.evaluate(2) != quoted.evaluate(2)
    _report(5, "symbolic oracle gives the single monomial -gamma^4 at depth 2, "
               "closed form matches, quoted -gamma^6 refuted (equal at gamma=1, "
               "apart at gamma=2)",
            monomial and closed == h2 and verdict == "refuted"
            and at_1_agrees and at_2_differs)


def test_criterion_6_determinant_identity():
    rng = random.Random(99)
    fractions = [
        catalog_cfraction("catalan", terms=6),
        catalog_cfraction("aerated-catalan", terms=6),
        catalog_cfraction("fibonacci-cf", terms=6),
        catalog_cfraction("rogers-ramanujan", terms=6),
    ] + [_random_valid_cfraction(rng) for _ in range(20)]
    ok = all(
        determinant_identity_residual(cf, n) == ()
        for cf in fractions
        for n in range(1, min(6, len(cf)) + 1)
    )
    _report(6, "cross-product identity residual vanishes for n <= 6 on catalog "
               "and 20 random fractions", ok)


def test_criterion_7_round_trips():
    rng = random.Random(7777)
    series_ok = True
    for _ in range(30):
        coeffs = [Fraction(1)] + [
            Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3])) for _ in range(12)
        ]
        f = series(coeffs, 12)
        series_ok = series_ok and evaluate(correspond(f), 12) == f
    lists_ok = True
    for _ in range(20):
        a = [
            Fraction(rng.randint(1, 9), rng.choice([1, 2, 3])) * rng.choice([1, -1])
            for _ in range(rng.randint(1, 8))
        ]
        lists_ok = lists_ok and a_from_b(b_from_a(a)) == a
    _report(7, "expansion of an extracted fraction reproduces the series, and "
               "the coefficient conversion is an exact inverse pair",
            series_ok and lists_ok)


def test_criterion_8_index_machinery():
    ok = True
    for name in ("catalan", "aerated-catalan", "fibonacci-cf", "rogers-ramanujan"):
        q = list(catalog_cfraction(name, terms=20).q)
        m_seq = list(accumulate(p_sequence([1, *q[:19]])))
        gf = expand_rational_gf([1] + q, [1, 0, -1], 20)
        ok = ok and m_seq == gf
    fib_q = list(catalog_cfraction("fibonacci-cf", terms=20).q)
    fib_m = list(accumulate(p_sequence([1, *fib_q[:19]])))
    ok = ok and fib_m == fibonacci_numbers(21)[1:]
    cat_m = list(accumulate(p_sequence([1] * 20)))
    ok = ok and cat_m == [(n + 2) // 2 for n in range(20)]
    _report(8, "index sequences match their generating function and the "
               "Fibonacci/Catalan closed forms for 20 terms", ok)


def test_criterion_9_multiplicities():
    catalan = dense_transform(catalog_cfraction("catalan", terms=13), 6)
    aerated = dense_transform(catalog_cfraction("aerated-catalan", terms=10), 9)
    fib = dense_transform(catalog_cfraction("fibonacci-cf", terms=8), 12)
    fib_mults = {pt.n: pt.multiplicity for pt in fib.profile}
    ok = (
        all(pt.multiplicity == 2 for pt in catalan.profile)
        and all(pt.multiplicity == 1 for pt in aerated.profile)
        and fib_mults[0] == 2
        and all(m == 1 for n, m in fib_mults.items() if n != 0)
    )
    _report(9, "multiplicities: 2 everywhere (Catalan), 1 everywhere (aerated), "
               "2 only at position 0 (Fibonacci)", ok)


def _convolve(left: list[int], right: list[int], count: int) -> list[int]:
    """First ``count`` coefficients of the product of two integer lists."""
    return [
        sum(left[i] * right[k - i] for i in range(k + 1)
            if i < len(left) and k - i < len(right))
        for k in range(count)
    ]


def test_criterion_10_quoted_exponent_gf():
    quoted_sequence = [0, 0, 6, 12, 32, 52, 94]
    true_expansion = [0, 0, 6, 12, 30, 50, 88]
    # numerators padded to x^6 so they compare with the convolutions below
    quoted_numer = [0, 0, 6, 0, 0, 2, 0]  # 2x^2 (x^3 + 3) as quoted
    corrected_numer = [0, 0, 6, 0, 2, 0, 0]  # 2x^2 (x^2 + 3)
    denom = [1]
    for factor in ([1, 1], [1, 1], [1, -1], [1, -1], [1, -1], [1, -1]):
        denom = _convolve(denom, factor, len(denom) + 1)  # (1+x)^2 (1-x)^4
    quoted = expand_rational_gf(quoted_numer, denom, 7)
    corrected = expand_rational_gf(corrected_numer, denom, 7)
    # denominator times expansion must give back the numerator through x^6,
    # so the expected expansions do not rest on the series code alone
    convolution_ok = (
        _convolve(denom, true_expansion, 7) == quoted_numer
        and _convolve(denom, quoted_sequence, 7) == corrected_numer
    )
    claim = next(c for c in verify_claims(12).claims if c.id == "ex4-exponent-gf-pair")
    _report(10, "quoted exponent g.f. 2x^2(x^3+3)/((1+x)^2(1-x)^4) expands to "
                "0,0,6,12,30,50,88, not the quoted 0,0,6,12,32,52,94; numerator "
                "2x^2(x^2+3) gives the quoted sequence; verify refutes "
                "ex4-exponent-gf-pair",
            convolution_ok
            and quoted == true_expansion
            and corrected == quoted_sequence
            and claim.verdict == "refuted"
            and claim.expected == quoted_sequence
            and claim.computed == true_expansion)
