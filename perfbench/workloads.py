"""The library workloads: inputs made from a seed, the timed operations, and
the check of every answer against a reference outside the timed path.

Each workload has four phases, and only the second and the fourth are timed:

``draw(rng)``
    the benchmark's own random choices, made without the package;
``setup(rng, drawn)``
    the package builds the inputs (``setup_s``);
``prepare(rng, inputs)``
    the references and anything else the benchmark derives from the inputs
    with its own arithmetic; returns ``(plan, input digest)``;
``perform(inputs, plan, run)``
    the operations, one at a time in a closed loop, through ``run.op``
    (``wall_s``).  ``run.check()`` checks the recorded answers afterwards.

The package is called through its modules (``radicals.baer_radical``), never
through names bound at import, so the tracer's wrappers see every call.
"""

import hashlib
import random
from fractions import Fraction
from time import perf_counter
from typing import Callable, NamedTuple

from novikov import constructions, core, ideals, oracle, radicals
from novikov.exactlin import GF, QQ, Matrix, Subspace

import reference

# certify-sweep: dimensions of the random gd(B, d) in the pool, which are
# nilpotent, so lemma1's preconditions can be met and their cost stays
# below the fixed algebras'; and the operations per (algebra, claim) pair:
# 11 algebras x 4 kinds x 7 = 308.  Latencies spread over three decades,
# so the median moves with the mix of costs: as in gf3-oracle, the random
# structures are fixed and a seed draws a presentation of each.
CERTIFY_RANDOM_DIMS = (3, 4, 5, 6)
CERTIFY_POPULATION_SEED = 5
CERTIFY_KINDS = ("lemma1", "lemma3", "theorem1", "lift")
CERTIFY_OPS_PER_CASE = 7
LEMMA1_TRIES = 50
# gf3-oracle: distinct algebras per dimension; dim 5 exceeds the oracle's
# default budget of 81 points, where baer_radical has no budgeted route.
# The oracle's cost depends strongly on an algebra's ideals, so the
# structures are fixed and a run's seed draws an isomorphic presentation
# of each (a signed permutation of the basis) and their order.
GF3_QUOTA = {3: 20, 4: 60}
GF3_POPULATION_SEED = 3
GF3_MAX_TRIES = 20000


class Run:
    """Latencies and answers of the operations of one timed phase."""

    def __init__(self):
        self.latencies_ms = []
        self.answers = []
        self.failed = 0
        self.errors = []

    def op(self, name, fn, check):
        """Time ``fn()`` and record its answer, or the error it raised, for
        ``check``, which returns None or what is wrong with an answer."""
        t0 = perf_counter()
        try:
            result, error = fn(), None
        except Exception as exc:  # a refusal or crash is a failed operation
            result, error = None, f"{type(exc).__name__}: {exc}"
        self.latencies_ms.append((perf_counter() - t0) * 1e3)
        self.answers.append((name, result, error, check))
        return result

    def check(self):
        """Check every recorded answer; a wrong one counts as failed."""
        for name, result, error, check in self.answers:
            if error is None:
                try:
                    error = check(result)
                except Exception as exc:  # a malformed answer is a wrong one
                    error = f"check raised {type(exc).__name__}: {exc}"
            if error:
                self.failed += 1
                if len(self.errors) < 5:
                    self.errors.append(f"{name}: {error}")
        self.answers = []


class Workload(NamedTuple):
    draw: Callable
    setup: Callable
    prepare: Callable
    perform: Callable


def digest(*parts):
    """Stable digest of inputs built from tuples, ints, strings and
    Fractions, whose reprs do not depend on the process."""
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def algebra_key(A):
    return (A.field.spec_string(), A.basis_names, A.cube)


def full_support_element(rng, dim):
    """Element over QQ whose coordinates are all drawn from -2, -1, 1, 2: in
    a graded algebra its powers and their ideals then have the same shape
    for every seed, and only the coefficients change."""
    return tuple(Fraction(rng.choice((-2, -1, 1, 2))) for _ in range(dim))


# ---------------------------------------------------------------------------
# sqfree-ladder: the Example 1 witness for k = 3, 4
# ---------------------------------------------------------------------------

# k = 5 (dim 31) is left out: one repetition then takes 10-15 s, so a run
# holds two, and its latencies come from two 2 s windows, too few to
# average out the speed swings of a shared machine.
LADDER_KS = (3, 4)
# r-nilpotency checks at the largest k.  The ladder's 8 other operations
# alone give a median and a 90th percentile that each rest on one
# operation; with 100 element checks at dim 15 both rest on the checks,
# with more than ten samples beyond the 90th.  Check i is on an element
# supported on 1 + i % 15 basis monomials, chosen by a fixed generator,
# so the costs of the checks spread smoothly over a wide range and are the
# same for every seed: checks of equal cost would make one cluster, whose
# median jumps between the fast and slow speeds of a shared machine.
LADDER_ELEMENTS = 100
LADDER_SUPPORT_SEED = 2
# numerator and denominator of the derivation's scale: the cost of exact
# arithmetic grows with their size, so all of them have the same bit length
LADDER_PRIMES = (67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127)


def sqfree_ladder_draw(rng):
    p, q = rng.sample(LADDER_PRIMES, 2)
    lam = Fraction(p, q) * rng.choice((1, -1))
    dim = 2 ** LADDER_KS[-1] - 1
    layout = random.Random(LADDER_SUPPORT_SEED)
    elements = []
    for i in range(LADDER_ELEMENTS):
        support = set(layout.sample(range(dim), 1 + i % dim))
        elements.append(tuple(Fraction(rng.choice((-2, -1, 1, 2))) if j in support
                              else Fraction(0) for j in range(dim)))
    return lam, tuple(elements)


def sqfree_ladder_setup(rng, drawn):
    lam, elements = drawn
    ladder = []
    for k in LADDER_KS:
        B, degree = constructions.example1_algebra(k)
        ladder.append((k, B, degree.scale(lam)))
    return ladder, elements


def sqfree_ladder_prepare(rng, inputs):
    """The gd cube each construction must give, by reference arithmetic,
    and a reference table of each."""
    ladder, elements = inputs
    plan = []
    for k, B, d in ladder:
        want = reference.gd_cube(B.cube, d.rows, B.field.p)
        plan.append((want, reference.Table(want, B.field.p)))
    key = (tuple((k, algebra_key(B), d.rows) for k, B, d in ladder), elements)
    return plan, digest("sqfree-ladder", key)


def _reference_index(table, x):
    power = x
    for n in range(1, table.dim + 2):
        if not any(power):
            return n
        power = table.product(power, x)
    return None


def _check_index(table, x, k):
    def check(idx):
        want = _reference_index(table, x)
        if idx != want:
            return f"r-nilpotency index {idx}, reference {want}"
        return None if idx <= k + 1 else f"index {idx} exceeds k + 1 = {k + 1}"
    return check


def sqfree_ladder(inputs, plan, run):
    ladder, elements = inputs
    for (k, B, d), (want, _) in zip(ladder, plan):
        dim = 2 ** k - 1
        A = run.op(f"gd_construct k={k}", lambda: constructions.gd_construct(B, d, check=True),
                   lambda A, want=want: None if A.cube == want else "gd cube differs from x d(y)")
        run.op(f"eq1 k={k}", lambda: core.verify_identity(A, "eq1"),
               lambda rep: None if rep.ok else f"eq1 fails at {rep.failure}")
        run.op(f"right chain k={k}", lambda: ideals.chain(A, "right"),
               lambda rep, k=k: None if rep.index == k + 1
               else f"right-nilpotency index {rep.index}, want {k + 1}")
        run.op(f"baer_radical k={k}", lambda: radicals.baer_radical(A),
               lambda rep, dim=dim: None if rep.radical.dim == dim
               else f"radical of dim {rep.radical.dim}, want the full {dim}")
    k, table = LADDER_KS[-1], plan[-1][1]
    for x in elements:
        run.op(f"r_nilpotency_index k={k}", lambda: A.r_nilpotency_index(x),
               _check_index(table, x, k))


# ---------------------------------------------------------------------------
# certify-sweep: bound certificates and lifted quasi-inverses, re-checked
# ---------------------------------------------------------------------------

def _lemma1_exponent(table, x):
    """Smallest n with (x^n)^2 = 0 and (x^(n+1))^2 = 0, by reference
    products, or None when no n up to dim + 1 qualifies."""
    powers = [None, x]
    for _ in range(table.dim + 1):
        powers.append(table.product(powers[-1], x))
    for n in range(1, table.dim + 2):
        if (not any(table.product(powers[n], powers[n]))
                and not any(table.product(powers[n + 1], powers[n + 1]))):
            return n
    return None


def _certify_op(rng, a, table, kind, i):
    """The i-th operation of one (algebra, claim) pair; a lemma1 draw that
    finds no element meeting its preconditions becomes a lift."""
    if kind == "lemma1":
        for _ in range(LEMMA1_TRIES):
            x = full_support_element(rng, table.dim)
            n = _lemma1_exponent(table, x)
            if n is not None:
                return (a, kind, x, n)
        kind = "lift"
    x = full_support_element(rng, table.dim)
    if kind == "lift":
        return (a, kind, x, None)
    return (a, kind, x, 1 + i % 3)


def certify_sweep_draw(rng):
    """A presentation of one fixed nilpotent pair (B, d) per dimension."""
    population = random.Random(CERTIFY_POPULATION_SEED)
    presented = []
    for dim in CERTIFY_RANDOM_DIMS:
        B, d = constructions.random_commutative_pair(population, max_dim=dim,
                                                     nilpotent_only=True)
        while B.dim != dim:
            B, d = constructions.random_commutative_pair(population, max_dim=dim,
                                                         nilpotent_only=True)
        presented.append(_present(rng, QQ, B.cube, B.basis_names, d.rows))
    return presented


def certify_sweep_setup(rng, presented):
    pool = []
    for n in range(8, 13):
        B = constructions.truncated_poly(n)
        euler = constructions.weighted_euler_derivation(B, range(1, n))
        pool.append(constructions.gd_construct(B, euler))
    B, degree = constructions.example1_algebra(3)
    pool.append(constructions.gd_construct(B, degree))
    pool.append(core.AlgebraTable.from_products(QQ, 2, {(0, 0): (0, 1)}))  # a2
    for cube, names, rows in presented:
        pool.append(constructions.gd_construct(core.AlgebraTable(QQ, cube, names),
                                               Matrix(QQ, rows, ncols=len(cube))))
    return pool


def certify_sweep_prepare(rng, pool):
    """Reference tables and the operations: the same number for every
    algebra and claim, so the latency mix does not depend on the seed."""
    tables = [reference.Table(A.cube, A.field.p) for A in pool]
    ops = [_certify_op(rng, a, tables[a], kind, i)
           for a in range(len(pool)) for kind in CERTIFY_KINDS
           for i in range(CERTIFY_OPS_PER_CASE)]
    rng.shuffle(ops)
    key = (tuple(algebra_key(A) for A in pool), tuple(ops))
    return (tables, ops), digest("certify-sweep", key)


def _bound_op(A, table, kind, x, n):
    def fn():
        ideal = None
        if kind != "lemma1":
            generator = Subspace.span(A.field, [A.left_normed_power(x, n)], A.dim)
            ideal = ideals.ideal_closure(A, generator)
        cert = radicals.bound_certificates(A, x, n, ideal=ideal, claim=kind)
        return cert, radicals.check_certificate(A, cert)

    def check(result):
        cert, rechecked = result
        if not rechecked:
            return "check_certificate rejected the certificate"
        if not cert.data["holds"]:
            return f"{kind} conclusion fails"
        if kind == "lemma1" and any(table.power(x, 2 * n + 2)):
            return f"reference x^{2 * n + 2} is not zero"
        return None

    return fn, check


def _lift_op(A, table, x):
    def fn():
        lifted = radicals.quasi_inverse_lift(A, x)
        direct = radicals.quasiregular_solve(A, x, side="left")
        rechecked = lifted is None or radicals.check_certificate(A, lifted[1])
        return lifted, direct, rechecked

    def check(result):
        lifted, direct, rechecked = result
        if (lifted is None) != (direct is None):
            return "lift and direct solve disagree on quasiregularity"
        if lifted is None:
            return None
        if not rechecked:
            return "check_certificate rejected the lifting certificate"
        for y in (lifted[0], direct):
            lhs = tuple(A.field.coerce(a + b) for a, b in zip(x, y))
            if lhs != table.product(y, x):
                return "reference product: x + y != yx"
        return None

    return fn, check


def certify_sweep(pool, plan, run):
    tables, ops = plan
    for a, kind, x, n in ops:
        A, table = pool[a], tables[a]
        fn, check = (_lift_op(A, table, x) if kind == "lift"
                     else _bound_op(A, table, kind, x, n))
        run.op(f"{kind} on pool[{a}]", fn, check)


# ---------------------------------------------------------------------------
# gf3-oracle: radicals against the brute-force oracle over GF(3)
# ---------------------------------------------------------------------------

def _gf3_structures():
    """The fixed population: distinct (B, d) over GF(3) whose gd product is
    Lie-solvable, found with reference arithmetic."""
    F = GF(3)
    rng = random.Random(GF3_POPULATION_SEED)
    want = dict(GF3_QUOTA)
    seen = set()
    structures = []
    for _ in range(GF3_MAX_TRIES):
        if not any(want.values()):
            return structures
        B, d = constructions.random_commutative_pair(rng, max_dim=max(want), field=F)
        if not want.get(B.dim):
            continue
        cube = reference.gd_cube(B.cube, d.rows, F.p)
        if cube in seen or not reference.lie_solvable(cube, F.p):
            continue
        seen.add(cube)
        structures.append((B.cube, B.basis_names, d.rows))
        want[B.dim] -= 1
    raise RuntimeError(f"no {GF3_QUOTA} distinct Lie-solvable algebras "
                       f"in {GF3_MAX_TRIES} draws")


def _present(rng, field, cube, names, rows):
    """(B, d) over ``field`` in the basis f_i = s_i e_pi(i), for a random
    permutation pi and signs s_i: an isomorphic copy whose structure
    constants differ."""
    n = len(cube)
    perm = rng.sample(range(n), n)
    sign = [rng.choice((1, -1)) for _ in range(n)]
    coerce = field.coerce
    # a sign is its own inverse: f_i f_j = sum_m s_i s_j s_m c[pi i][pi j][pi m] f_m
    cube = tuple(tuple(tuple(coerce(sign[i] * sign[j] * sign[m] * cube[perm[i]][perm[j]][perm[m]])
                             for m in range(n)) for j in range(n)) for i in range(n))
    rows = tuple(tuple(coerce(sign[m] * sign[j] * rows[perm[m]][perm[j]]) for j in range(n))
                 for m in range(n))
    return cube, tuple(names[perm[i]] for i in range(n)), rows


def gf3_oracle_draw(rng):
    """A presentation of every structure of the fixed population, in a
    random order; the population itself does not depend on the seed."""
    p = 3
    presented, seen = [], set()
    for structure in _gf3_structures():
        while True:  # isomorphic structures may meet in one presentation
            cube, names, rows = _present(rng, GF(p), *structure)
            gd = reference.gd_cube(cube, rows, p)
            if gd not in seen:
                break
        seen.add(gd)
        presented.append((cube, names, rows))
    rng.shuffle(presented)
    return presented


def gf3_oracle_setup(rng, presented):
    F = GF(3)
    return [constructions.gd_construct(core.AlgebraTable(F, cube, names),
                                       Matrix(F, rows, ncols=len(cube)))
            for cube, names, rows in presented]


def gf3_oracle_prepare(rng, algebras):
    """The oracle is the reference; nothing to derive."""
    return None, digest("gf3-oracle", tuple(algebra_key(A) for A in algebras))


def _oracle_op(A):
    def fn():
        _tower, tower_radical = oracle.bruteforce_baer_tower(A)
        nil_span = Subspace.span(A.field, oracle.bruteforce_nilpotents(A), A.dim)
        return (tower_radical, radicals.baer_radical(A).radical, nil_span,
                oracle.quotient_intersection(A, "domain"),
                radicals.lqr_radical(A).radical,
                oracle.quotient_intersection(A, "field"))

    def check(result):
        tower, baer, nil_span, domain, lqr, field = result
        if not tower == baer == nil_span == domain:
            return ("tower, baer_radical, nilpotent span and domain "
                    "intersection disagree")
        if lqr != field:
            return "lqr_radical differs from the field intersection"
        return None

    return fn, check


def gf3_oracle(algebras, _plan, run):
    for i, A in enumerate(algebras):
        fn, check = _oracle_op(A)
        run.op(f"oracle on algebra {i} (dim {A.dim})", fn, check)


WORKLOADS = {
    "sqfree-ladder": Workload(sqfree_ladder_draw, sqfree_ladder_setup,
                              sqfree_ladder_prepare, sqfree_ladder),
    "certify-sweep": Workload(certify_sweep_draw, certify_sweep_setup,
                              certify_sweep_prepare, certify_sweep),
    "gf3-oracle": Workload(gf3_oracle_draw, gf3_oracle_setup,
                           gf3_oracle_prepare, gf3_oracle),
}


def build(name, seed):
    """Inputs and plan of one workload without timing: (inputs, plan, digest)."""
    w = WORKLOADS[name]
    rng = random.Random(seed)
    inputs = w.setup(rng, w.draw(rng))
    return (inputs,) + w.prepare(rng, inputs)
