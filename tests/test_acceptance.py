"""Acceptance suite: one test per criterion, each printing a pass line with
its measured runtime and asserting the stated time bound.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import random
import time
from pathlib import Path

from corpus import a2, identity_matrix, operator_matrix, q_corpus, random_element
from novikov import GF, Subspace, verify_identity
from novikov.constructions import (example1_algebra, gd_construct,
                                   random_commutative_pair, truncated_poly,
                                   weighted_euler_derivation)
from novikov.exactlin import solve, vec_add, vec_is_zero
from novikov.ideals import chain, classify, commutator_ideal, ideal_closure
from novikov.oracle import (bruteforce_baer_tower, bruteforce_nilpotents,
                            quotient_intersection)
from novikov.radicals import (baer_radical, bound_certificates, lqr_radical,
                              quasi_inverse_lift, quasiregular_solve)
from novikov.ratfunc import (RF_X, Poly, RatFunc, gd_power, gd_product,
                             in_carrier, left_quasi_inverse, right_qr_residual)

GOLDEN = Path(__file__).parent / "golden"


class stopwatch:
    def __init__(self, label, bound_seconds):
        self.label = label
        self.bound = bound_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"\nACCEPTANCE {self.label}: PASS ({elapsed:.2f}s < {self.bound}s)")
            assert elapsed < self.bound, (
                f"{self.label} exceeded its time bound: {elapsed:.2f}s")
        else:
            print(f"\nACCEPTANCE {self.label}: FAIL after {elapsed:.2f}s")
        return False


def test_criterion_1_gd_novikov_suite():
    with stopwatch("1 derived-product identity suite", 10.0):
        rng = random.Random(1001)
        for _ in range(50):
            B, d = random_commutative_pair(rng, max_dim=5)
            A = gd_construct(B, d, check=False)
            assert verify_identity(A, "novikov").ok
            assert verify_identity(A, "eq1").ok


def test_criterion_2_power_bound_certificates():
    with stopwatch("2 power-bound certificates", 10.0):
        B8 = truncated_poly(8)
        gd8 = gd_construct(B8, weighted_euler_derivation(B8, list(range(1, 8))))
        algebras = [("gd_tpoly8", gd8), ("a2", a2())]
        for k in (1, 2, 3):
            Bk, dk = example1_algebra(k)
            algebras.append((f"sqfree{k}", gd_construct(Bk, dk)))
        certified = 0
        for name, A in algebras:
            ideals = [A.zero_space(), A.full_space(),
                      commutator_ideal(A, A.full_space())]
            for i in range(A.dim):
                ideals.append(ideal_closure(
                    A, Subspace.span(A.field, [A.basis_vector(i)], A.dim)))
            F = A.field
            combos = [
                vec_add(F, A.basis_vector(0), A.basis_vector(A.dim - 1)),
                vec_add(F, A.basis_vector(0),
                        tuple(F.neg(c) for c in A.basis_vector(A.dim // 2))),
            ]
            elements = A.basis_vectors() + combos
            for x in elements:
                powers = [None, x]
                for _ in range(A.dim + 1):
                    powers.append(A.multiply(powers[-1], x))
                for n in range(1, A.dim + 2):
                    sq_n = A.multiply(powers[n], powers[n])
                    sq_n1 = A.multiply(powers[n + 1], powers[n + 1])
                    if vec_is_zero(sq_n) and vec_is_zero(sq_n1):
                        cert = bound_certificates(A, x, n, claim="lemma1")
                        assert cert.data["holds"], (name, "lemma1", n)
                        certified += 1
                    for I in ideals:
                        if not I.contains(powers[n]):
                            continue
                        for claim in ("lemma3", "theorem1"):
                            cert = bound_certificates(A, x, n, ideal=I, claim=claim)
                            assert cert.data["holds"], (name, claim, n)
                            certified += 1
                        mem = bound_certificates(A, x, n, ideal=I,
                                                 claim="theorem1").data
                        # the doubling rule holds through the recorded chain
                        s = n
                        for entry in mem["memberships"][1:]:
                            s = 2 * s + 2
                            assert entry["s_k"] == s
        assert certified >= 200


def test_criterion_3_radical_solvability_agreement():
    with stopwatch("3 radical/solvable/r-nil agreement", 30.0):
        corpus = q_corpus()
        assert len(corpus) >= 30
        rng = random.Random(3003)
        for name, A in corpus:
            assert A.dim <= 6, name
            assert classify(A).lie_solvable is not None, name
            radical_is_all = baer_radical(A).radical == A.full_space()
            solvable = classify(A).solvable is not None
            sampled = A.basis_vectors() + [random_element(A, rng)
                                           for _ in range(10)]
            all_r_nil = all(A.r_nilpotency_index(x) is not None for x in sampled)
            assert radical_is_all == solvable == all_r_nil, name


def test_criterion_4_oracle_equivalence():
    with stopwatch("4 oracle equivalence over GF(3)", 120.0):
        from corpus import gf3_population
        F3 = GF(3)
        population = gf3_population()
        assert len(population) >= 10
        for name, A in population:
            assert A.dim <= 3, name
            _, tower_radical = bruteforce_baer_tower(A)
            formula = baer_radical(A).radical
            nil_span = Subspace.span(F3, bruteforce_nilpotents(A), A.dim)
            assert tower_radical == formula, name
            assert tower_radical == nil_span, name
            assert tower_radical == quotient_intersection(A, "domain"), name
            assert lqr_radical(A).radical == quotient_intersection(A, "field"), name


def test_criterion_5_quasi_inverse_lifting():
    with stopwatch("5 quasi-inverse lifting", 20.0):
        rng = random.Random(5005)
        for name, A in q_corpus():
            K = commutator_ideal(A, A.full_space())
            bound = chain(A, "right", base=K).index
            elements = A.basis_vectors() + [random_element(A, rng)
                                            for _ in range(50)]
            for x in elements:
                direct = quasiregular_solve(A, x, side="left")
                lifted = quasi_inverse_lift(A, x)
                assert (direct is None) == (lifted is None), name
                if lifted is None:
                    continue
                y, cert = lifted
                assert vec_add(A.field, x, y) == A.multiply(y, x), name
                assert vec_add(A.field, x, direct) == A.multiply(direct, x), name
                assert len(cert.data["steps"]) <= bound, name


def test_criterion_6_derived_product_stability():
    with stopwatch("6 derived-product stability suite", 10.0):
        rng = random.Random(6006)
        pairs = [random_commutative_pair(rng, max_dim=5, nilpotent_only=True)
                 for _ in range(20)]
        for B, d in pairs:
            A = gd_construct(B, d, check=False)
            # nil bound: x^{n+1} under the derived product is x d(x)^n
            for x in B.basis_vectors() + [random_element(B, rng) for _ in range(2)]:
                dx = d.mat_vec(x)
                p, n = dx, 1
                while not vec_is_zero(p):
                    p = B.multiply(p, dx)
                    n += 1
                assert n <= B.dim + 1
                assert vec_is_zero(A.left_normed_power(x, n + 1))
            # nilpotency transfer with index bound
            bi = chain(B, "full").index
            ai = chain(A, "full").index
            assert bi is not None and ai is not None and ai <= bi
            # quasi-inverse transfer: z solving d(x) + z = d(x) z gives xz - x
            for x in B.basis_vectors():
                w = d.mat_vec(x)
                lw = operator_matrix(B, w, side="left")
                z = solve(lw - identity_matrix(B.field, B.dim), w)
                assert z is not None  # nilpotent, so the operator is invertible
                y = tuple(a - b for a, b in zip(B.multiply(x, z), x))
                assert vec_add(B.field, x, y) == A.multiply(y, x)


def test_criterion_7_rational_function_suite():
    with stopwatch("7 rational-function carrier suite", 15.0):
        rng = random.Random(7007)

        def rand_poly(max_deg, vanish=False):
            degree = rng.randint(0 if not vanish else 1, max_deg)
            coeffs = [rng.randint(-4, 4) for _ in range(degree + 1)]
            if vanish:
                coeffs[0] = 0
            return Poly(coeffs)

        def rand_denominator(max_deg):
            while True:
                g = rand_poly(max_deg)
                if g(0) != 0:
                    return g

        verified = 0
        while verified < 100:
            u = RatFunc(rand_poly(4, vanish=True), rand_denominator(4))
            assert in_carrier(u)
            y = left_quasi_inverse(u)
            assert (u + y - gd_product(y, u)).is_zero()
            verified += 1

        checked = 0
        while checked < 200:
            f = rand_poly(5, vanish=True)
            g = rand_poly(5)
            if f.is_zero() or g(0) == 0:
                continue
            r, rep = right_qr_residual(f, g)
            assert not rep.residual_is_zero
            assert rep.matches
            checked += 1

        for k in range(1, 11):
            assert not gd_power(RF_X, k).is_zero()


def test_criterion_8_radical_coincidence():
    with stopwatch("8 radical coincidence", 30.0):
        for name, A in q_corpus():
            assert baer_radical(A).radical == lqr_radical(A).radical, name


def test_criterion_9_cli_determinism(capsys):
    with stopwatch("9 CLI determinism", 5.0):
        import io
        from contextlib import redirect_stdout

        from novikov.cli import main
        from novikov.dsl import parse_algebra_source, serialize_algebra_doc
        from test_cli import GOLDEN_RUNS, golden_name

        def run(argv):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = main(argv)
            assert code == 0
            return buf.getvalue().encode()

        for fixture, argv in GOLDEN_RUNS:
            expected = (GOLDEN / golden_name(fixture, argv)).read_bytes()
            base = argv[:1] + [str(GOLDEN / f"{fixture}.alg")] + argv[1:] + ["--json"]
            assert run(base) == expected
            assert run(base) == expected
            assert run(base + ["--threads", "3"]) == expected
        for path in sorted(GOLDEN.glob("*.alg")):
            doc = parse_algebra_source(path.read_text(encoding="utf-8"))
            assert parse_algebra_source(serialize_algebra_doc(doc)) == doc
