"""Self-verification: every structural identity the library relies on,
runnable as deterministic seeded property suites.

Each suite returns (ok, detail); the runner prints one line per suite and
reports the first counterexample on failure.  Random inputs come from a
fixed seed so two runs produce identical output.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, isqrt, lcm, prod
from operator import mul
from typing import Callable

from . import linalg
from .harmonic import (
    Decomposition,
    basis_element,
    decompose,
    dim_h,
    depth_ss,
    harmonic_basis,
    is_harmonic,
    lambda_star_basis,
    leading_term_check,
    pr_laplacian,
    unusual_identity_check,
)
from .operators import (
    commutator,
    d_op,
    d_op_n,
    delta_lambda,
    delta_n,
    e_hat,
    euler_op,
    kelvin,
    laplacian,
    q2_hat,
)
from .partitions import (
    c_set,
    count_partitions,
    enumerate_min_part,
    enumerate_partitions,
    frobenius,
    pentagonal_terms,
)
from .qseries import QSeries, check_bracket_input, d_series, eisenstein, partition_gf, q_bracket
from .quasimodular import (
    InsufficientOrderError,
    QMForm,
    RecognitionError,
    bracket_form,
    check_recognizable,
    d_hat,
    depth,
    expand,
    frak_d,
    is_modular_bracket,
    monomials_of_weight,
    recognize,
    slots_form,
    w_hat,
)
from .reference import even_rows, rows_up_to
from .ssym import MAX_BRACKET_WEIGHT, MAX_WEIGHT, Monomial, SSPoly, beta, eval_at, eval_qk, format_poly, parse_poly

DEFAULT_SEED = 1729

Suite = Callable[[random.Random, int, int], tuple[bool, str]]


def random_homogeneous(
    rng: random.Random, weight: int, min_part: int = 1
) -> SSPoly:
    """Random weight-homogeneous element with small integer coefficients."""
    lams = enumerate_min_part(weight, min_part)
    acc = SSPoly({Monomial.from_partition(lam): rng.randint(-6, 6) for lam in lams})
    if acc.is_zero and lams:
        acc = SSPoly({Monomial.from_partition(lams[0]): 1})
    return acc


def random_element(rng: random.Random, max_weight: int, min_part: int = 1) -> SSPoly:
    weights = rng.sample(range(max_weight + 1), k=min(3, max_weight + 1))
    acc = SSPoly.zero()
    for w in weights:
        acc = acc + random_homogeneous(rng, w, min_part)
    return acc


def random_harmonic(rng: random.Random, weight: int) -> SSPoly:
    acc = SSPoly.zero()
    for lam in enumerate_min_part(weight, 3):
        c = rng.randint(-4, 4)
        if c:
            acc = acc + basis_element(lam) * c
    return acc


# -- partitions ---------------------------------------------------------------


def suite_partition_counts(rng, max_weight, order):
    for n in range(26):
        if len(enumerate_partitions(n)) != count_partitions(n):
            return False, f"enumeration/count mismatch at n={n}"
        lhs = len(enumerate_min_part(n, 3))
        rhs = (
            count_partitions(n)
            - count_partitions(n - 1)
            - count_partitions(n - 2)
            + count_partitions(n - 3)
        )
        if lhs != rhs:
            return False, f"min-part-3 count identity fails at n={n}"
    for n in range(13):
        if set(enumerate_min_part(n, 1)) != set(enumerate_partitions(n)):
            return False, f"min_part(1) enumeration differs at n={n}"
    return True, "n <= 25"


def suite_frobenius(rng, max_weight, order):
    for n in range(16):
        for lam in enumerate_partitions(n):
            arms, legs = frobenius(lam)
            if sum(a + b + 1 for a, b in zip(arms, legs)) != n:
                return False, f"hook sizes do not add to |lam| for {lam}"
            cs = c_set(lam)
            if len(cs) != 2 * len(arms):
                return False, f"c_set length wrong for {lam}"
            if sum(1 for c in cs if c < 0) != sum(1 for c in cs if c > 0):
                return False, f"c_set sign split wrong for {lam}"
    return True, "|lam| <= 15"


# -- the polynomial ring --------------------------------------------------------


def suite_ring_laws(rng, max_weight, order):
    for trial in range(20):
        f = random_element(rng, min(max_weight, 8))
        g = random_element(rng, min(max_weight, 8))
        h = random_element(rng, min(max_weight, 8))
        if (f + g) * h != f * h + g * h:
            return False, f"distributivity fails: {f}, {g}, {h}"
        if f * g != g * f:
            return False, f"commutativity fails: {f}, {g}"
        if (f * g) * h != f * (g * h):
            return False, f"associativity fails: {f}, {g}, {h}"
    return True, "20 random triples"


def oracle_qk(k: int, lam) -> Fraction:
    """Q_k at a partition as the coefficient of z^(k-1) in the shifted
    exponential generating series, independent of the diagonal-hook
    evaluation route."""
    if k == 0:
        return Fraction(1)
    total = oracle_beta(k)
    for i, part in enumerate(lam, start=1):
        up = Fraction(2 * (part - i) + 1, 2)
        down = Fraction(-2 * i + 1, 2)
        total += (up ** (k - 1) - down ** (k - 1)) / factorial(k - 1)
    return total


def oracle_beta(k: int) -> Fraction:
    """beta_k = (2^(1-k) - 1) B_k / k!, with the Bernoulli numbers B_j from
    the recurrence sum_{j <= m} C(m+1, j) B_j = 0, independent of the series
    inversion behind ssym.beta."""
    bern = [Fraction(1)]
    for m in range(1, k + 1):
        bern.append(-sum(comb(m + 1, j) * bern[j] for j in range(m)) / (m + 1))
    return (Fraction(2) ** (1 - k) - 1) * bern[k] / factorial(k)


def suite_generator_evaluation(rng, max_weight, order):
    for n in range(13):
        for lam in enumerate_partitions(n):
            for k in range(11):
                if eval_qk(k, lam) != oracle_qk(k, lam):
                    return False, f"Q{k} at {lam}: {eval_qk(k, lam)} vs oracle"
    if beta(2) != Fraction(-1, 24) or beta(4) != Fraction(7, 5760):
        return False, "beta constants drifted"
    return True, "|lam| <= 12, k <= 10"


def suite_evaluation_homomorphism(rng, max_weight, order):
    lams = [(), (1,), (3, 1), (4, 2, 1), (2, 2, 2, 1)]
    for trial in range(10):
        f = random_element(rng, 6)
        g = random_element(rng, 6)
        for lam in lams:
            if eval_at(f * g, lam) != eval_at(f, lam) * eval_at(g, lam):
                return False, f"eval not multiplicative at {lam}"
    return True, "10 random pairs, 5 partitions"


def suite_projection(rng, max_weight, order):
    for trial in range(15):
        f = random_element(rng, min(max_weight, 8))
        g = random_element(rng, min(max_weight, 8))
        if f.pr().pr() != f.pr():
            return False, f"projection not idempotent on {f}"
        if (f * g).pr() != f.pr() * g.pr():
            return False, f"projection not multiplicative on {f}, {g}"
    return True, "15 random pairs"


def suite_parse_roundtrip(rng, max_weight, order):
    for trial in range(20):
        f = random_element(rng, min(max_weight, 9))
        if parse_poly(format_poly(f)) != f:
            return False, f"round trip fails on {format_poly(f)}"
    for lam, expr, _ in rows_up_to(10):
        h = parse_poly(expr)
        if parse_poly(format_poly(h)) != h:
            return False, f"round trip fails on table row {lam}"
    return True, "20 random + 20 table rows"


# -- operators -------------------------------------------------------------------


def suite_commutator_table(rng, max_weight, order):
    one = SSPoly.one
    q1 = lambda f: SSPoly.gen(1) * f  # noqa: E731
    q2 = lambda f: SSPoly.gen(2) * f  # noqa: E731
    half = Fraction(1, 2)
    entries = [
        ("[lap, d]", lambda f: commutator(laplacian, d_op, f), lambda f: SSPoly.zero()),
        ("[lap, E]", lambda f: commutator(laplacian, euler_op, f), lambda f: 2 * laplacian(f)),
        ("[lap, Q1]", lambda f: commutator(laplacian, q1, f), lambda f: SSPoly.zero()),
        (
            "[lap, Q2]",
            lambda f: commutator(laplacian, q2, f),
            lambda f: euler_op(f) - SSPoly.gen(1) * d_op(f) - f * half,
        ),
        ("[d, E]", lambda f: commutator(d_op, euler_op, f), d_op),
        ("[d, Q1]", lambda f: commutator(d_op, q1, f), lambda f: f),
        ("[d, Q2]", lambda f: commutator(d_op, q2, f), lambda f: SSPoly.gen(1) * f),
        ("[E, Q1]", lambda f: commutator(euler_op, q1, f), lambda f: SSPoly.gen(1) * f),
        ("[E, Q2]", lambda f: commutator(euler_op, q2, f), lambda f: 2 * SSPoly.gen(2) * f),
        ("[Q1, Q2]", lambda f: commutator(q1, q2, f), lambda f: SSPoly.zero()),
    ]
    for trial in range(50):
        f = random_element(rng, min(max_weight, 10))
        for name, got, want in entries:
            if got(f) != want(f):
                return False, f"{name} fails on {format_poly(f)}"
    return True, "10 entries, 50 samples"


def suite_sl2_triple(rng, max_weight, order):
    for trial in range(25):
        f = random_element(rng, min(max_weight, 10))
        if commutator(e_hat, q2_hat, f) != 2 * q2_hat(f):
            return False, f"[H, X] != 2X on {format_poly(f)}"
        if commutator(e_hat, laplacian, f) != -2 * laplacian(f):
            return False, f"[H, Y] != -2Y on {format_poly(f)}"
        if commutator(laplacian, q2_hat, f) != e_hat(f):
            return False, f"[Y, X] != H on {format_poly(f)}"
    return True, "25 samples"


def suite_q2_power_commutator(rng, max_weight, order):
    q1p = SSPoly.gen(1)
    q2p = SSPoly.gen(2)
    for trial in range(50):
        f = random_element(rng, min(max_weight, 10))
        for n in range(1, 7):
            got = laplacian(q2p**n * f) - q2p**n * laplacian(f)
            want = (
                q2p ** (n - 1)
                * (euler_op(f) + Fraction(2 * n - 3, 2) * f)
                * n
                - q1p * q2p ** (n - 1) * d_op(f) * n
            )
            if n >= 2:
                want = want - Fraction(n * (n - 1), 2) * q1p**2 * q2p ** (n - 2) * f
            if got != want:
                return False, f"power commutator fails at n={n} on {format_poly(f)}"
    return True, "n <= 6, 50 samples"


def suite_higher_operators_commute(rng, max_weight, order):
    for trial in range(6):
        f = random_element(rng, min(max_weight, 10))
        for n in range(1, 6):
            for m in range(n + 1, 6):
                lhs = d_op_n(n, d_op_n(m, f))
                rhs = d_op_n(m, d_op_n(n, f))
                if lhs != rhs:
                    return False, f"orders {n},{m} do not commute on {format_poly(f)}"
    for trial in range(10):
        f = random_element(rng, 8)
        if d_op(f) != oracle_d_op_n(1, f):
            return False, f"order-1 operator differs from the tuple sum on {format_poly(f)}"
    return True, "n, m <= 5, 6 samples"


def suite_delta_lambda_properties(rng, max_weight, order):
    lams = [lam for n in range(7) for lam in enumerate_partitions(n)]
    for trial in range(4):
        f = random_element(rng, min(max_weight, 8))
        q1f = SSPoly.gen(1) * f
        for lam in lams:
            if delta_lambda(lam, q1f) != SSPoly.gen(1) * delta_lambda(lam, f):
                return False, f"delta_{lam} does not commute with Q1 on {format_poly(f)}"
            # preserves Q1-multiples, so it descends to the projected ring
            if delta_lambda(lam, f).pr() != delta_lambda(lam, f.pr()).pr():
                return False, f"delta_{lam} does not descend through pr"
        for mu in [(2,), (3,), (2, 2), (4,)]:
            for lam in [(3,), (2, 2), (5,), (3, 2)]:
                lhs = delta_lambda(lam, delta_lambda(mu, f))
                rhs = delta_lambda(mu, delta_lambda(lam, f))
                if lhs != rhs:
                    return False, f"delta_{lam}, delta_{mu} do not commute"
    for trial in range(10):
        f = random_element(rng, 8)
        if delta_n(1, f) != SSPoly.zero() or delta_n(0, f) != f:
            return False, "delta_0/delta_1 normalization broken"
        if delta_n(2, f) != 2 * laplacian(f):
            return False, "delta_2 is not twice the laplacian"
    return True, "|lam|, |mu| <= 6"


def suite_kelvin(rng, max_weight, order):
    for trial in range(10):
        w = rng.randint(0, min(max_weight, 8))
        f = random_homogeneous(rng, w, min_part=2)
        if kelvin(kelvin(f)) != f:
            return False, f"involution fails on {format_poly(f)}"
        if not f.is_zero and not kelvin(f).is_zero:
            if kelvin(f).weight() != 3 - w:
                return False, f"weight map fails on {format_poly(f)}"
        h = random_harmonic(rng, rng.choice([3, 4, 5, 6]))
        if laplacian(h).pr().is_zero:
            if not laplacian(kelvin(h)).pr().is_zero:
                return False, f"harmonicity not preserved on {format_poly(h)}"
    return True, "10 samples"


def suite_weight_drop(rng, max_weight, order):
    top = min(max_weight, 10)
    if top < 2:
        return True, f"nothing to draw: max weight {max_weight} is below 2"
    for trial in range(10):
        w = rng.randint(2, top)
        f = random_homogeneous(rng, w)
        for n in range(6):
            g = d_op_n(n, f)
            if not g.is_zero and g.weight() != w - n:
                return False, f"weight drop fails for order {n} on {format_poly(f)}"
    return True, "orders <= 5"


def oracle_d_op_n(n: int, f: SSPoly) -> SSPoly:
    """d_op_n(n, f) as the literal sum over ordered n-tuples (k_1, ..., k_n)
    of derivative slots drawn from each monomial's generators.  A tuple
    applies d/dQ_k one slot at a time and adds the hook generator
    Q_h, h = sum (k_i - 1), with weight h! / prod (k_i - 1)!; independent of
    the multiset formula behind operators.d_op_n."""
    if n == 0:
        return f
    acc: dict[Monomial, Fraction] = {}
    for mono, coeff in f.terms():
        base = {k: Fraction(e2, 2) for k, e2 in mono}
        for slots in itertools.product(base, repeat=n):
            exps, c = dict(base), coeff
            for k in slots:
                c *= exps[k]
                if not c:
                    break
                exps[k] -= 1
            if not c:
                continue
            hooks = sum(k - 1 for k in slots)
            c *= factorial(hooks)
            for k in slots:
                c /= factorial(k - 1)
            if hooks:
                exps[hooks] = exps.get(hooks, 0) + 1
            m = Monomial.from_exponents(exps)
            acc[m] = acc.get(m, Fraction(0)) + c
    return SSPoly(acc)


def oracle_delta_n(n: int, f: SSPoly) -> SSPoly:
    """delta_n(n, f) as the defining binomial sum
    sum_i (-1)^i C(n, i) d_op_n(n - i, d_op^i f), over oracle_d_op_n alone,
    independent of the images behind operators.delta_n."""
    acc = SSPoly.zero()
    power = f
    for i in range(n + 1):
        if i:
            power = oracle_d_op_n(1, power)
        acc = acc + oracle_d_op_n(n - i, power) * ((-1) ** i * comb(n, i))
    return acc


def random_laurent(rng: random.Random, max_weight: int) -> SSPoly:
    """Random element with rational coefficients whose terms carry an extra
    Q2 power with exponent in {-3, -5/2, ..., 3}."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        lam = rng.choice(enumerate_partitions(rng.randint(0, max_weight)))
        m = Monomial.from_partition(lam).mul(Monomial(((2, rng.randint(-6, 6)),)))
        terms[m] = Fraction(rng.randint(-9, 9), rng.randint(1, 12))
    return SSPoly(terms)


def suite_d_op_n_oracle(rng, max_weight, order):
    samples = [SSPoly.zero(), SSPoly.one(), SSPoly.constant(Fraction(-7, 3))]
    samples += [random_laurent(rng, min(max_weight, 6)) for _ in range(12)]
    for f in samples:
        for n in range(5):
            if d_op_n(n, f) != oracle_d_op_n(n, f):
                return False, f"order {n} differs from the tuple sum on {format_poly(f)}"
    rows = rows_up_to(max_weight)
    for lam, _, _ in rows:
        h = basis_element(lam)
        if d_op_n(2, h) != oracle_d_op_n(2, h):
            return False, f"order 2 differs from the tuple sum at table row {lam}"
    return True, f"orders <= 4 on {len(samples)} samples, order 2 on {len(rows)} table rows"


def suite_delta_n_oracle(rng, max_weight, order):
    seed = kelvin(SSPoly.one())
    samples = [SSPoly.zero(), seed] + [random_laurent(rng, min(max_weight, 6)) for _ in range(6)]
    for f in samples:
        for n in range(6):
            if delta_n(n, f) != oracle_delta_n(n, f):
                return False, f"order {n} differs from the binomial sum on {format_poly(f)}"
    rows = rows_up_to(max_weight)
    for lam, expr, _ in rows:
        # h_lambda = kelvin(pr(multinomial(lam) * prod delta_part (kelvin unit)))
        g = seed
        for part in lam:
            g = oracle_delta_n(part, g)
        prefactor = factorial(sum(lam))
        for part in lam:
            prefactor //= factorial(part)
        if kelvin((g * prefactor).pr()) != parse_poly(expr):
            return False, f"table row {lam} differs when rebuilt from the binomial sum"
        if delta_lambda(lam, seed) != g * prefactor:
            return False, f"delta_lambda differs from the binomial sum at {lam}"
    return True, f"orders <= 5 on {len(samples)} samples, {len(rows)} table rows rebuilt"


def proof_monomials() -> tuple[list[SSPoly], str]:
    """Every Q1-free monomial a CLI job can meet, in ascending weight, and
    their description: `basis` and `decompose` admit each weight <=
    ssym.MAX_WEIGHT, and `qbracket` decomposes its even-weight components up
    to ssym.MAX_BRACKET_WEIGHT."""
    top = MAX_BRACKET_WEIGHT // 2 * 2
    weights = sorted(set(range(MAX_WEIGHT + 1)).union(range(0, top + 1, 2)))
    monomials = [b for w in weights for b in lambda_star_basis(w)]
    return monomials, f"{len(monomials)} monomials of weight <= {MAX_WEIGHT} or of even weight <= {top}"


def suite_pr_laplacian_oracle(rng, max_weight, order):
    """The closed form against the operator laplacian on Laurent samples
    and, at any --max-weight, on every monomial of `proof_monomials`: by
    linearity, a proof on every input the CLI admits, on which `decompose`
    certifies its slots with the closed form."""
    samples = [SSPoly.zero(), kelvin(SSPoly.one())]
    samples.append(parse_poly("Q1^2*Q2^(-3/2)*Q3 - 2/3*Q1*Q2^(5/2) + Q4"))
    # rational coefficients, Q1 terms, extra Q2 powers in {-3, -5/2, ..., 3}
    samples += [random_laurent(rng, min(max_weight, 8)) for _ in range(40)]
    monomials, proof = proof_monomials()
    for f in samples + monomials:
        if pr_laplacian(f) != laplacian(f).pr():
            return False, f"closed form differs from the projected laplacian on {format_poly(f)}"
    return True, f"{len(samples)} samples, {proof}"


# -- harmonic decomposition -----------------------------------------------------


def suite_sl2_relation(rng, max_weight, order):
    """[Y, X] = H on the closed form, with X the product by Q2, Y the
    projected laplacian and H the weight minus 1/2, on every monomial g of
    `proof_monomials`, of weight w: Y(Q2 g) - Q2 Y(g) = (w - 1/2) g.
    The closed-form slots of `harmonic._slots` rest on it."""
    q2 = SSPoly.gen(2)
    monomials, proof = proof_monomials()
    for g in monomials:
        if pr_laplacian(q2 * g) - q2 * pr_laplacian(g) != g * Fraction(2 * g.weight() - 1, 2):
            return False, f"[Y, X] differs from H on {format_poly(g)}"
    return True, proof


def suite_direct_sum(rng, max_weight, order):
    for n in range(15):
        for b in lambda_star_basis(n):
            dec = decompose(b)
            if dec.reconstruct() != b:
                return False, f"reconstruction fails on {format_poly(b)}"
            for h in dec.components:
                if not laplacian(h).pr().is_zero:
                    return False, f"slot not harmonic for {format_poly(b)}"
    for trial in range(8):
        n = rng.choice([4, 6, 8, 10])
        h = random_harmonic(rng, n)
        g = random_homogeneous(rng, n - 2, min_part=2)
        dec = decompose(h + SSPoly.gen(2) * g)
        recovered_h = dec.components[0]
        tail = Decomposition(dec.components[1:]).reconstruct()
        if recovered_h != h or tail != g:
            return False, f"uniqueness fails at weight {n}"
    return True, "monomials to weight 14, 8 random sums"


def oracle_t_solve(n: int, rhs: SSPoly) -> SSPoly:
    """The weight-n g with pr laplacian(Q2 g) = rhs, from the dense inverse
    of that map's matrix in the lambda_star_basis(n) coordinates.  The
    columns come from oracle_delta_n(2)/2, independent of the closed-form
    inverse and the projected laplacian behind decompose."""
    monos = [b.terms()[0][0] for b in lambda_star_basis(n)]
    q2 = SSPoly.gen(2)
    columns = [
        (oracle_delta_n(2, q2 * SSPoly({m: 1})) * Fraction(1, 2)).pr() for m in monos
    ]
    matrix = [[col.coeff(m) for col in columns] for m in monos]
    coords = linalg.mat_vec(linalg.invert(matrix), [rhs.coeff(m) for m in monos])
    return SSPoly(dict(zip(monos, coords)))


def suite_t_solve_oracle(rng, max_weight, order):
    rows = rows_up_to(max_weight)
    for lam, _, _ in rows:
        h = basis_element(lam)
        for r in (1, 2, 3):
            f = SSPoly.gen(2) ** r * h
            n = sum(lam) + 2 * r
            g = oracle_t_solve(n - 2, laplacian(f).pr())
            if g != SSPoly.gen(2) ** (r - 1) * h:
                return False, f"dense solve misses Q2^{r - 1} * h at table row {lam}"
            want = (SSPoly.zero(),) * r + (h,) + (SSPoly.zero(),) * (n // 2 - r)
            if decompose(f).components != want:
                return False, f"decompose of Q2^{r} * h differs at table row {lam}"
    return True, f"{len(rows)} table rows times Q2^r, r <= 3"


def suite_basis_oracle(rng, max_weight, order):
    """Each basis element equals the projected Kelvin image of delta_lambda
    on the Kelvin unit, which shares nothing with the closed-form slot that
    builds it; parts 1 and 2 included, where both are zero."""
    seed = kelvin(SSPoly.one())
    top = max(max_weight, 16)
    count = 0
    for w in range(top + 1):
        for lam in enumerate_min_part(w, 1):
            if basis_element(lam) != kelvin(delta_lambda(lam, seed).pr()):
                return False, f"basis element {lam} differs from the Kelvin/delta_lambda composition"
            count += 1
    return True, f"{count} partitions of weight <= {top}"


def suite_q2_multiples_not_harmonic(rng, max_weight, order):
    top = min(max_weight, 10)
    if top < 2:
        return True, f"nothing to draw: max weight {max_weight} is below 2"
    for trial in range(15):
        w = rng.randint(0, top - 2)
        g = random_homogeneous(rng, w, min_part=2)
        if g.is_zero:
            continue
        if is_harmonic(SSPoly.gen(2) * g):
            return False, f"Q2 * ({format_poly(g)}) claimed harmonic"
    return True, "15 samples"


def suite_harmonic_basis(rng, max_weight, order):
    top = max(max_weight, 14)
    for n in range(top + 1):
        hb = harmonic_basis(n)
        if len(hb.elements) != dim_h(n):
            return False, f"basis count at weight {n}"
        rows = []
        for lam, h in hb.elements.items():
            if not is_harmonic(h):
                return False, f"basis element {lam} not harmonic"
            coords = {m: c for m, c in h.terms()}
            rows.append(coords)
        monos = sorted({m for row in rows for m in row}, key=lambda m: m.sort_key())
        matrix = [[row.get(m, Fraction(0)) for m in monos] for row in rows]
        if linalg.matrix_rank(matrix) != len(rows):
            return False, f"basis not independent at weight {n}"
    for n in range(min(top, 12) + 1):
        for lam in enumerate_min_part(n, 3):
            if not leading_term_check(lam):
                return False, f"leading term fails for {lam}"
            if n >= 1 and not unusual_identity_check(basis_element(lam), n):
                return False, f"reproduction identity fails for {lam}"
    return True, f"weights <= {top}, element checks <= {min(top, 12)}"


def suite_depth(rng, max_weight, order):
    for r in range(5):
        for trial in range(4):
            n = rng.choice([3, 4, 5, 6])
            h = random_harmonic(rng, n)
            if h.is_zero:
                continue
            if depth_ss(SSPoly.gen(2) ** r * h) != r:
                return False, f"depth of Q2^{r} * h wrong at weight {n}"
    return True, "r <= 4"


# -- series and brackets ----------------------------------------------------------


# The knapsack oracle sums the bracket numerator in integers over Frobenius
# coordinates and lists no partition.  A partition of n has d arms
# x_1 > ... > x_d and d legs y_1 > ... > y_d, doubled (x = 2a + 1,
# y = 2b + 1, all odd), with sum x + sum y = 2n.  For a generator Q_k with
# k != 2, Q_k(lambda) = beta_k + S_k / (2^(k-1) (k-1)!) with
# S_k = A_k + (-1)^k B_k, A_k = sum x^(k-1), B_k = sum y^(k-1), so
# D_k Q_k(lambda) is an integer for D_k = lcm(den beta_k, 2^(k-1) (k-1)!).
# Q2 never touches partitions: Q2(lambda) = |lambda| - 1/24.


def _mix_axes(cols: list[int], axes: list) -> list[int]:
    """Apply one small matrix per axis to a flat moment vector of packed
    rows, so that the whole map is their tensor product.  `axes` holds
    (stride, rows): entry i with digit b on that axis becomes the sum of
    c * entry(i with digit a) over the (a, c) pairs of rows[b]."""
    for stride, rows in axes:
        size = len(rows)
        out = []
        for i in range(len(cols)):
            digit = i // stride % size
            low = i - digit * stride
            (a, c), *rest = rows[digit]
            acc = cols[low + a * stride]
            if c != 1:
                acc = c * acc
            for a, c in rest:
                acc += c * cols[low + a * stride]
            out.append(acc)
        cols = out
    return cols


def unpack_signed(x: int, width: int, count: int) -> list[int]:
    """c_0 ... c_(count-1) of x = sum c_n 2^(width n), read slot by slot
    with a borrow; each of them must satisfy |c_n| < 2^(width - 1)."""
    x &= (1 << width * count) - 1
    out = []
    for _ in range(count):
        c = x & ((1 << width) - 1)
        c -= c >> (width - 1) << width  # a set top bit makes the slot negative
        out.append(c)
        x = (x - c) >> width
    return out


# The suites bracket the same table monomials at the run's order again and
# again; it saves about 3 s of verify --max-weight 16 -N 40 (README).
@lru_cache(maxsize=1024)
def _moment_knapsack(mono: Monomial, order: int) -> tuple[int, tuple[int, ...]]:
    """(D, totals) with totals[n] = D times the sum of the Q2-free, Q1-free
    monomial over the partitions of n, for every n <= order.

    A 0/1 knapsack over the odd values 1, 3, ..., 2 order - 1 fills, for
    each mixed-radix moment index i with digits i_j <= e_j, one integer
    table[i].  Its region d holds, over the sets X of d distinct odd values
    with sum s, the sum of prod_j A_kj(X)^(i_j) in the `width`-bit slot p
    with s = d^2 + 2p (sums of d odd values have the parity of d).  A set is
    kept only while d legs still fit: s <= 2 order - d^2.  Arms and legs
    draw on the same table; at equal d they are joined by the multinomial
    expansion of prod_k (base_k + unit_k (A_k + (-1)^k B_k))^(e_k), one axis
    at a time, and one product per moment index convolves arm and leg sums.
    """
    gens = [(k, e2 // 2) for k, e2 in mono]
    strides = [prod(e + 1 for _, e in gens[:j]) for j in range(len(gens))]
    size = prod(e + 1 for _, e in gens)
    top = isqrt(order)
    denom = 1
    join = []
    bound = count_partitions(order)
    for (k, e), stride in zip(gens, strides):
        b = beta(k)
        scale = 2 ** (k - 1) * factorial(k - 1)
        d_k = lcm(b.denominator, scale)
        base = b.numerator * (d_k // b.denominator)
        unit = d_k // scale
        denom *= d_k**e
        bound *= (abs(base) + unit * (2 * order) ** (k - 1)) ** e
        # leg digit j gathers the arm digits a <= e - j, each with its term
        # of the multinomial expansion (base_k is 0 for odd k)
        rows = [
            [
                (a, c)
                for a in range(e + 1 - j)
                if (c := comb(e, a) * comb(e - a, j) * base ** (e - a - j) * unit ** (a + j) * (-1) ** (k * j))
            ]
            for j in range(e + 1)
        ]
        join.append((stride, rows))
    # Slot width.  Slot n of the joined sum is totals[n], a sum over the
    # p(n) partitions of n of prod_k (D_k Q_k)^(e_k), where
    # |D_k Q_k| <= |base_k| + unit_k (2n)^(k-1) as |A_k +- B_k| <=
    # (sum x + sum y)^(k-1): below `bound`, with one more bit for the sign.
    # An arm slot fits too: the (x - 1) / 2 of a set are distinct and sum to
    # at most order, so at most p(order) sets share a slot, each with
    # A_k <= (2 order)^(k-1), and unit_k >= 1 (order 0 stores only a 1).
    width = bound.bit_length() + 1
    # Region d (order - d^2 + 1 slots) starts at (order + 1) d + d (d - 1) / 2,
    # past region d - 1, so that moving a set from d to d + 1 as it takes v
    # is one shift by order + 1 + (v - 1) / 2 slots.
    start = [(order + 1) * d + d * (d - 1) // 2 for d in range(top + 1)]
    table = [int(i == 0) for i in range(size)]
    for v in range(1, 2 * order, 2):
        # keep the slots whose sets still fit once v is added; every region
        # moves from the table as it was before v, so each set takes v once
        fits = 0
        for d in range(min(top, v // 2 + 1)):
            keep = order - (d + 1) ** 2 + 1 - (v - 1) // 2 + d
            if keep > 0:
                fits |= ((1 << width * keep) - 1) << width * start[d]
        if not fits:
            break
        # adding v to a set adds v^(k-1) to A_k: a binomial shift per axis
        shift = [
            (stride, [[(b, 1)] + [(a, comb(b, a) * v ** ((k - 1) * (b - a))) for a in range(b)] for b in range(e + 1)])
            for (k, e), stride in zip(gens, strides)
        ]
        moved = _mix_axes([x & fits for x in table], shift)
        step = width * (order + 1 + (v - 1) // 2)
        table = [x + (y << step) for x, y in zip(table, moved)]
    joined = 0
    for d in range(top + 1):
        cap = (1 << width * (order - d * d + 1)) - 1
        legs = [x >> width * start[d] & cap for x in table]
        joined += sum(map(mul, _mix_axes(legs, join), legs)) << width * d * d
    return denom, tuple(unpack_signed(joined, width, order + 1))


def _without_q2(mono: Monomial) -> Monomial:
    return Monomial(t for t in mono if t[0] != 2)


def _monomial_series(mono: Monomial, order: int) -> tuple[int, list[int]]:
    """(D, totals): the sum of the monomial over the partitions of each size
    n <= order is totals[n] / D."""
    q2_power = mono.exponent2(2) // 2
    denom, totals = _moment_knapsack(_without_q2(mono), order)
    return denom * 24**q2_power, [t * (24 * n - 1) ** q2_power for n, t in enumerate(totals)]


def knapsack_bracket(f: SSPoly, order: int) -> QSeries:
    """<f>_q to `order` by the moment knapsack of each Q2-free monomial: the
    oracle of q_bracket past the Sturm orders, and the only one that reaches
    order 200 without assuming the paper's theorem."""
    check_bracket_input(f, order)
    f = f.pr()
    terms = [(c, _monomial_series(mono, order)) for mono, c in f.num.items()]
    # one integer numerator over a common denominator
    denom = lcm(*(d for _, (d, _) in terms))
    num = [0] * (order + 1)
    for c, (d, totals) in terms:
        scale = c * (denom // d)
        for n, t in enumerate(totals):
            num[n] += scale * t
    # dividing by the generating function multiplies by Euler's product,
    # here as a series product rather than q_bracket's signed shifts
    euler = [0] * (order + 1)
    for g, sign in pentagonal_terms(order):
        euler[g] = sign
    return QSeries(num, den=denom * f.den) * QSeries(euler)


def oracle_bracket_form(f: SSPoly, order: int) -> tuple[QSeries, QMForm]:
    """The bracket of f by the knapsack to `order` and the form recognize
    finds, one weight component at a time: the oracle of bracket_form that
    does not assume the paper's theorem.  Each odd-weight component must
    bracket to zero, or RecognitionError is raised."""
    series, form = QSeries.zero(order), QMForm.zero()
    for w, fw in f.weight_components().items():
        s = knapsack_bracket(fw, order)
        if w % 2 == 0:
            form = form + recognize(s, w)
        elif not s.is_zero:
            raise RecognitionError(f"odd weight {w} does not bracket to zero")
        series = series + s
    return series, form


def suite_euler_product(rng, max_weight, order):
    n = min(order, 40)
    gf = partition_gf(n)
    prod = QSeries.one(n)
    for m in range(1, n + 1):
        factor = QSeries([1] + [0] * (m - 1) + [-1], n)
        prod = prod * factor
    if gf * prod != QSeries.one(n):
        return False, "euler product mismatch"
    if d_series(gf) * gf.inverse() != (QSeries.one(n) - eisenstein(2, n)) * Fraction(1, 24):
        return False, "logarithmic derivative mismatch"
    return True, f"order {n}"


def suite_bracket_linearity(rng, max_weight, order):
    for trial in range(6):
        f = random_element(rng, min(max_weight, 8))
        g = random_element(rng, min(max_weight, 8))
        a, b = Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5))
        lhs = knapsack_bracket(a * f + b * g, order)
        rhs = knapsack_bracket(f, order) * a + knapsack_bracket(g, order) * b
        if lhs != rhs:
            return False, "bracket not linear"
    return True, "6 samples"


def suite_q2_shifts_bracket(rng, max_weight, order):
    p_over_24 = eisenstein(2, order) * Fraction(1, 24)
    top = min(max_weight, 8)
    for w in range(top + 1):
        f = random_homogeneous(rng, w)
        bf = knapsack_bracket(f, order)
        lhs = knapsack_bracket(SSPoly.gen(2) * f, order)
        rhs = d_series(bf) - p_over_24 * bf
        if lhs != rhs:
            return False, f"shifted derivation fails for {format_poly(f)}"
    return True, f"one sample at each weight 0..{top}"


# The table rows stop at weight 10.
_TABLE_WEIGHT = 10


def suite_bracket_oracle(rng, max_weight, order):
    # The definition lists every partition (3 s on the table rows at order
    # 40, 2 vCPUs), so it stays on the table; the knapsack suite goes higher.
    rows = rows_up_to(max_weight)
    for lam, _, _ in rows:
        h = basis_element(lam)
        if knapsack_bracket(h, order) != q_bracket(h, order):
            return False, f"bracket differs from direct summation at {lam}"
    table = f"{len(rows)} table rows"
    if max_weight > _TABLE_WEIGHT:
        table += f" (weights <= {_TABLE_WEIGHT} only)"
    return True, f"{table}, order {order}"


def suite_knapsack_oracle(rng, max_weight, order):
    """Each distinct Q2-free monomial of the table rows, and of one random
    basis element at each weight above the table, against the row sums of
    its definition."""
    rows = rows_up_to(max_weight)
    drawn = [rng.choice(enumerate_min_part(w, 3)) for w in range(_TABLE_WEIGHT + 1, max_weight + 1)]
    seen = set()
    for lam in [lam for lam, _, _ in rows] + drawn:
        for mono, _ in basis_element(lam).pr().terms():
            q2_free = _without_q2(mono)
            if q2_free in seen:
                continue
            seen.add(q2_free)
            m = SSPoly({q2_free: 1})
            if knapsack_bracket(m, order) != q_bracket(m, order):
                return False, f"knapsack differs from the row sums at {lam}, monomial {q2_free}"
    detail = f"{len(rows)} table rows"
    if drawn:
        detail += f" and one basis element at each weight {_TABLE_WEIGHT + 1}..{max_weight}, {len(seen)} monomials"
    return True, f"{detail}, order {order}"


def suite_expansion_at_100(rng, max_weight, order):
    """The series of bracket_form, the expansion of the theorem form, against
    the knapsack at order 100, past every enumerating oracle: four fixed
    expressions and one random basis element at each weight
    3..max_weight.  expand builds E2, E4 and E6 from divisor sums and
    shares nothing with the knapsack, so this reaches the knapsack's widest
    slots.  Nothing is recognized; forms.bracket_form_oracle compares the
    forms."""
    exprs = ("Q3^2*Q5*Q7", "Q4^3 + Q2*Q3^2", "Q12^2", "Q6*Q4^2*Q2")
    drawn = [rng.choice(enumerate_min_part(w, 3)) for w in range(3, max_weight + 1)]
    cases = [(expr, parse_poly(expr)) for expr in exprs]
    cases += [(lam, basis_element(lam)) for lam in drawn]
    for label, f in cases:
        if bracket_form(f, 100)[0] != knapsack_bracket(f, 100):
            return False, f"bracket of {label} to order 100 differs from the expansion of its form"
    detail = f"{len(exprs)} brackets"
    if drawn:
        detail += f" and one basis element at each weight 3..{max_weight}"
    return True, f"{detail}, order 100"


def oracle_mul(a, b) -> list:
    """Cauchy product of two coefficient sequences, truncated to the
    shorter, by its definition."""
    n = min(len(a), len(b))
    return [sum(a[i] * b[m - i] for i in range(m + 1)) for m in range(n)]


def suite_product_oracle(rng, max_weight, order):
    """QSeries *, +, - and scalar * against oracle_mul and termwise sums, on
    series with mixed denominators and unequal orders."""

    def draw():
        dens = (1, 2, 3, 4, 6, 35)
        return [
            Fraction(rng.randint(-30, 30) * rng.randint(0, 1), rng.choice(dens))
            for _ in range(rng.randint(1, order + 1))
        ]

    for trial in range(40):
        a, b = draw(), draw()
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        s, t = QSeries(a), QSeries(b)
        checks = (
            (s * t, oracle_mul(a, b)),
            (s + t, [x + y for x, y in zip(a, b)]),
            (s - t, [x - y for x, y in zip(a, b)]),
            (s * c, [x * c for x in a]),
            (c * t, [c * y for y in b]),
        )
        for got, want in checks:
            if list(got.coeffs) != want:
                return False, f"series arithmetic differs from the oracle on {s} and {t}"
    return True, f"40 pairs, orders <= {order}"


# -- quasimodular forms ------------------------------------------------------------


def random_qmform(rng, weight: int) -> QMForm:
    terms = {}
    for t in monomials_of_weight(weight):
        c = rng.randint(-6, 6)
        if c:
            terms[t] = Fraction(c)
    return QMForm(terms)


def oracle_recognize(s: QSeries, k: int) -> QMForm:
    """recognize by Gaussian elimination in Fractions (linalg.solve) over
    columns built by oracle_mul from the coefficients of E2, E4 and E6,
    independent of recognize's series product, its caches and its integer
    elimination; the same errors with the same text."""
    order = s.order
    check_recognizable(k, order)
    triples = monomials_of_weight(k)
    # E2, E4 and E6 have integer coefficients
    bases = [[int(x) for x in eisenstein(w, order).coeffs] for w in (2, 4, 6)]
    columns = []
    for t in triples:
        col = [1] + [0] * order
        for base, e in zip(bases, t):
            for _ in range(e):
                col = oracle_mul(col, base)
        columns.append(col)
    matrix = [[col[n] for col in columns] for n in range(order + 1)]
    try:
        solution = linalg.solve(matrix, list(s.coeffs))
    except linalg.LinearSolveError as exc:
        if exc.kind == "inconsistent":
            raise RecognitionError(f"not quasimodular of weight {k} at this order") from None
        raise
    return QMForm(dict(zip(triples, solution)))


def suite_qm_sl2(rng, max_weight, order):
    for trial in range(20):
        w = rng.choice(range(0, 12, 2))
        m = random_qmform(rng, w)
        if w_hat(d_hat(m)) - d_hat(w_hat(m)) != 2 * d_hat(m):
            return False, f"[H, X] fails on {m}"
        if w_hat(frak_d(m)) - frak_d(w_hat(m)) != -2 * frak_d(m):
            return False, f"[H, Y] fails on {m}"
        if frak_d(d_hat(m)) - d_hat(frak_d(m)) != w_hat(m):
            return False, f"[Y, X] fails on {m}"
        if not m.is_zero and depth(d_hat(m)) != depth(m) + 1:
            return False, f"depth raise fails on {m}"
    return True, "20 samples"


def _recognizable(k: int, order: int) -> bool:
    """Whether check_recognizable admits the even weight k at this order."""
    try:
        check_recognizable(k, order)
    except InsufficientOrderError:
        return False
    return True


def suite_equivariance(rng, max_weight, order):
    """The bracket intertwines the two sl2 triples: with m the form of <f>_q
    from the paper's theorem (bracket_form), whose series is expand(m),
    <f>, <X f>, <Y f> and <H f> to the run's order are the expansions of m,
    d_hat m, frak_d m and w_hat m, each against the knapsack."""
    if max_weight < 2:
        return True, f"nothing to draw: max weight {max_weight} is below 2"
    weights = [w for w in (2, 4, 6, 8) if w <= max_weight]
    for trial in range(20):
        w = weights[trial % len(weights)]
        f = random_homogeneous(rng, w)
        series, m = bracket_form(f, order)
        if knapsack_bracket(f, order) != series:
            return False, f"theorem form differs from the knapsack on {format_poly(f)}"
        if knapsack_bracket(q2_hat(f), order) != expand(d_hat(m), order):
            return False, f"raising side fails on {format_poly(f)}"
        if knapsack_bracket(laplacian(f).pr(), order) != expand(frak_d(m), order):
            return False, f"lowering side fails on {format_poly(f)}"
        if knapsack_bracket(e_hat(f).pr(), order) != expand(w_hat(m), order):
            return False, f"weight side fails on {format_poly(f)}"
    return True, f"20 samples, weights <= {weights[-1]}"


def suite_depth_bound(rng, max_weight, order):
    if max_weight < 6:
        return True, f"nothing to draw: max weight {max_weight} is below 6"
    weights = [k for k in (6, 8, 10) if k <= max_weight and _recognizable(k, order)]
    if not weights:
        return True, f"nothing to draw: order {order} admits no weight of 6, 8, 10"
    for trial in range(6):
        k = rng.choice(weights)
        p = rng.randint(0, k // 2)
        f = SSPoly.zero()
        for r in range(p + 1):
            h = random_harmonic(rng, k - 2 * r)
            f = f + SSPoly.gen(2) ** r * h
        if f.is_zero:
            continue
        form = recognize(knapsack_bracket(f, order), k)
        if depth(form) > p:
            return False, f"depth bound violated at weight {k}, p={p}"
    return True, "6 samples" if len(weights) == 3 else f"6 samples, weights <= {weights[-1]}"


def suite_recognize_roundtrip(rng, max_weight, order):
    top = min(max_weight, 12)
    weights = [w for w in range(0, top + 1, 2) if _recognizable(w, order)]
    if not weights:
        return True, f"nothing to draw: order {order} admits no weight <= {top}"
    for trial in range(12):
        w = rng.choice(weights)
        m = random_qmform(rng, w)
        if recognize(expand(m, order), w) != m:
            return False, f"round trip fails on {m}"
    return True, f"12 samples, weights <= {weights[-1]}"


def suite_recognize_oracle(rng, max_weight, order):
    weights = [w for w in range(0, max_weight + 1, 2) if _recognizable(w, order)]
    series = [
        (lam, knapsack_bracket(basis_element(lam), order), sum(lam))
        for lam, _, _ in even_rows(max_weight)
        if sum(lam) in weights
    ]
    series += [(w, expand(random_qmform(rng, w), order), w) for w in weights]
    if not series:
        return True, f"nothing to draw: order {order} admits no even weight <= {max_weight}"
    for label, s, w in series:
        if recognize(s, w) != oracle_recognize(s, w):
            return False, f"recognize differs from the oracle at {label}"
        if w == 0:
            continue
        for row in (0, order):  # a pivot row and a margin row
            coeffs = list(s.coeffs)
            coeffs[row] += 1
            bad = QSeries(coeffs)
            errors = []
            for recognizer in (recognize, oracle_recognize):
                try:
                    recognizer(bad, w)
                    errors.append(None)
                except RecognitionError as exc:
                    errors.append(str(exc))
            if errors[0] is None or errors[0] != errors[1]:
                return False, f"a perturbed row {row} is not refused alike at {label}"
    return True, f"{len(series)} series at even weights <= {max_weight}, order {order}"


def suite_modularity_criterion(rng, max_weight, order):
    """is_modular_bracket's form against the knapsack to the run's order, and
    its decision against the vanishing of the tail slot brackets."""
    if max_weight < 2:
        return True, f"nothing to draw: max weight {max_weight} is below 2"
    weights = list(range(2, min(max_weight, 10) + 1, 2))
    for trial in range(8):
        w = rng.choice(weights)
        f = random_homogeneous(rng, w, min_part=2)
        modular, form, dec = is_modular_bracket(f)
        if expand(form, order) != knapsack_bracket(f, order) or modular != (depth(form) == 0):
            return False, f"form or depth differs from the knapsack on {format_poly(f)}"
        # The tail slots have weight <= 8, where M_k is spanned by the
        # E4^a E6^b, so a nonzero modular form has a nonzero constant term:
        # a tail slot's bracket vanishes at every order exactly when its
        # form does, order 0 included.
        if modular != all(knapsack_bracket(h, order).is_zero for h in dec.components[1:]):
            return False, f"modularity disagrees with the tail slot brackets on {format_poly(f)}"
    covered = "" if len(weights) == 5 else f", weights <= {weights[-1]}"
    return True, f"8 samples{covered} (internal cross-check)"


def suite_theorem_path(rng, max_weight, order):
    """slots_form, from the source paper's theorem and the Sturm bound,
    expanded to the run's order against the knapsack: on every basis row
    of weight <= max_weight, each its own slot, and on seeded Q1-free
    inputs of even weight split by decompose."""
    rows = [lam for w in range(max_weight + 1) for lam in enumerate_min_part(w, 3)]
    for lam in rows:
        h, n = basis_element(lam), sum(lam)
        if expand(slots_form((h,), n), order) != knapsack_bracket(h, order):
            return False, f"theorem path differs from the knapsack at basis row {lam}"
    even = list(range(2, max_weight + 1, 2))
    samples = 12 if even else 0
    for trial in range(samples):
        w = rng.choice(even)
        f = random_homogeneous(rng, w, min_part=2)
        if expand(slots_form(decompose(f).components, w), order) != knapsack_bracket(f, order):
            return False, f"theorem path differs from the knapsack on {format_poly(f)}"
    return True, f"{len(rows)} basis rows and {samples} inputs, weights <= {max_weight}, order {order}"


def suite_bracket_form_oracle(rng, max_weight, order):
    """bracket_form, whose form comes from the paper's theorem and whose
    series is its expansion, against the knapsack and recognize
    (oracle_bracket_form) at orders 100 and 200, past every enumerating
    oracle.  Each seeded input sums a monomial of weight 22..26 with two
    generators above Q2, one of even weight <= 20 and one of odd weight,
    each with up to three factors Q2, and the first times Q1."""

    def draw(w: int, parts: int) -> tuple[int, ...]:
        j = rng.randint(0, min(3, (w - 3) // 2))
        return rng.choice([p for p in enumerate_min_part(w - 2 * j, 3) if len(p) == parts]) + (2,) * j

    inputs = []
    for trial in range(3):
        heavy = draw(rng.choice((22, 24, 26)), 2)
        lams = (heavy, draw(rng.randrange(4, 21, 2), 1), draw(rng.randrange(3, 22, 2), 1), heavy + (1,))
        coeffs = (Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4)) for _ in lams)
        inputs.append(SSPoly({Monomial.from_partition(lam): c for lam, c in zip(lams, coeffs)}))
    for f in inputs:
        for n in (100, 200):
            if bracket_form(f, n) != oracle_bracket_form(f, n):
                return False, f"bracket_form differs from the knapsack at order {n} on {format_poly(f)}"
    top = max(w for f in inputs for w in f.weight_components())
    return True, f"{len(inputs)} inputs of weights <= {top}, orders 100 and 200"


def suite_golden_tables(rng, max_weight, order):
    """The printed table rows against the tables path: each basis element
    against its polynomial, and slots_form with the element as its one
    slot against its bracket.  The form does not depend on the order;
    forms.theorem_path compares it with the knapsack."""
    rows = rows_up_to(max_weight)
    for lam, expr, bracket in rows:
        h = basis_element(lam)
        if h != parse_poly(expr):
            return False, f"table polynomial mismatch at {lam}"
        coeff, triple = bracket or (0, (0, 0, 0))
        if slots_form((h,), sum(lam)) != QMForm({triple: coeff}):
            return False, f"bracket mismatch at {lam}"
    return True, f"{len(rows)} table rows"


SUITES: tuple[tuple[str, Suite], ...] = (
    ("partitions.counts", suite_partition_counts),
    ("partitions.frobenius", suite_frobenius),
    ("ring.laws", suite_ring_laws),
    ("ring.generator_evaluation", suite_generator_evaluation),
    ("ring.evaluation_homomorphism", suite_evaluation_homomorphism),
    ("ring.projection", suite_projection),
    ("ring.parse_roundtrip", suite_parse_roundtrip),
    ("operators.commutator_table", suite_commutator_table),
    ("operators.sl2_triple", suite_sl2_triple),
    ("operators.q2_power_commutator", suite_q2_power_commutator),
    ("operators.higher_commute", suite_higher_operators_commute),
    ("operators.delta_lambda", suite_delta_lambda_properties),
    ("operators.kelvin", suite_kelvin),
    ("operators.weight_drop", suite_weight_drop),
    ("operators.d_op_n_oracle", suite_d_op_n_oracle),
    ("operators.delta_n_oracle", suite_delta_n_oracle),
    ("operators.pr_laplacian_oracle", suite_pr_laplacian_oracle),
    ("harmonic.sl2_relation", suite_sl2_relation),
    ("harmonic.direct_sum", suite_direct_sum),
    ("harmonic.t_solve_oracle", suite_t_solve_oracle),
    ("harmonic.basis_oracle", suite_basis_oracle),
    ("harmonic.q2_multiples", suite_q2_multiples_not_harmonic),
    ("harmonic.basis", suite_harmonic_basis),
    ("harmonic.depth", suite_depth),
    ("series.euler_product", suite_euler_product),
    ("series.bracket_linearity", suite_bracket_linearity),
    ("series.q2_shifts_bracket", suite_q2_shifts_bracket),
    ("series.bracket_oracle", suite_bracket_oracle),
    ("series.knapsack_oracle", suite_knapsack_oracle),
    ("series.expansion_at_100", suite_expansion_at_100),
    ("series.product_oracle", suite_product_oracle),
    ("forms.sl2_triple", suite_qm_sl2),
    ("forms.equivariance", suite_equivariance),
    ("forms.depth_bound", suite_depth_bound),
    ("forms.recognize_roundtrip", suite_recognize_roundtrip),
    ("forms.recognize_oracle", suite_recognize_oracle),
    ("forms.modularity_criterion", suite_modularity_criterion),
    ("forms.theorem_path", suite_theorem_path),
    ("forms.bracket_form_oracle", suite_bracket_form_oracle),
    ("goldens.tables", suite_golden_tables),
)


def run_all(max_weight: int = 10, order: int = 30) -> bool:
    """Run every suite, print one line each, return overall success."""
    all_ok = True
    for name, suite in SUITES:
        rng = random.Random(DEFAULT_SEED)
        try:
            ok, detail = suite(rng, max_weight, order)
        except Exception as exc:  # surfaced as a failing suite, not a crash
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        all_ok &= ok
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return all_ok
