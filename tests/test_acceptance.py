"""Acceptance gate: one test per top-level guarantee of the package.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per guarantee.  Every check here is exact (rational/Gaussian-rational
arithmetic throughout); the scans and degree windows are the full ones, so
this file is the slowest part of the suite (a few minutes, dominated by the
15-dimensional module scan).
"""

import random
import time

from e16verma.contact import (
    check_L1_L2_L3,
    check_jacobi_closure,
    check_root_system,
)
from e16verma.exactnum import Q, QI
from e16verma.gmodule import builtin
from e16verma.singular import (
    assemble_degree_block,
    audit_technical_identities,
    exact_block_kernel,
    kernel_vector_to_verma,
    reproduce_proof_steps,
    verify_bound,
)
from e16verma.verma import (
    VermaVector,
    coefficient_functionals,
    commutator_suite,
    lambda_action_T,
    reconstruct_from_functionals,
)


def test_a1_bracket_identities_closure_and_grading():
    """Super-Jacobi (degrees <= 4), closure (degree sums <= 6), skew symmetry,
    [t, b] = deg(b) b, and surjectivity of [Theta, -] onto the degree-shifted
    piece for degrees 0..6 -- all exact, within a minute."""
    t0 = time.monotonic()
    jc = check_jacobi_closure(jacobi_degree=4, closure_degree=6)
    assert jc["jacobi_ok"], jc["jacobi_failures"][:3]
    assert jc["closure_ok"], jc["closure_failures"][:3]
    assert jc["skew_ok"] and jc["grading_ok"]
    assert jc["triples_checked"] > 0 and jc["pairs_closed"] > 0
    grading = check_L1_L2_L3(6)
    assert grading["theta_ok"], grading["failures"][:3]
    assert time.monotonic() - t0 < 60.0


def test_a2_root_system_dictionary():
    """Cartan eigenvalues of all 12 root vectors, [E_alpha, E_-alpha] inside
    the Cartan span, and the so(6) structure-constant dictionary -- exact."""
    report = check_root_system()
    assert report["ok"], report["failures"][:5]


def test_a3_action_commutator_oracle():
    """Operator identity [Phi_f(lambda), Phi_g(mu)] = Phi_{[f_lambda g]}
    (lambda+mu) on the 6-dimensional module at a generic eigenvalue, for all
    ordered monomial pairs with |F|, |G| <= 3, on every induced-module basis
    vector of m-degree <= 4 -- exact, within ten minutes."""
    t0 = time.monotonic()
    report = commutator_suite(
        builtin("vector", Q(7, 3)), max_input_mdeg=4, max_size=3
    )
    assert report["ok"], report["failures"][:3]
    assert report["pairs_checked"] == 42 * 42
    assert time.monotonic() - t0 < 600.0


def test_a4_coefficient_ledger_reconstruction():
    """The displayed coefficient expansion (the eight functional families
    assembled over the mixed (lambda, lambda+Theta) basis) reproduces the
    action polynomial exactly on 100 random Theta-degree <= 4 vectors for a
    representative word of each size 0..3."""
    mod = builtin("vector", Q(7, 3))
    rng = random.Random(20260817)

    def random_vector() -> VermaVector:
        data: dict = {}
        for _ in range(rng.randint(1, 4)):
            k = rng.randint(0, 4)
            mask = rng.randint(0, 63)
            fv = data.setdefault((k, mask), {})
            fv[rng.randrange(6)] = QI(rng.randint(-3, 3), rng.randint(-3, 3))
        return VermaVector(mod, data)

    for L in [(), (1,), (1, 2), (1, 2, 3)]:
        for _ in range(100):
            m = random_vector()
            rebuilt = reconstruct_from_functionals(
                coefficient_functionals(L, m), mod
            )
            assert rebuilt == lambda_action_T(L, m), (L, m.data)
    # off-axis words hit the same ledger through nontrivial signs
    for L in [(2,), (3, 5), (2, 4, 6)]:
        for _ in range(10):
            m = random_vector()
            rebuilt = reconstruct_from_functionals(
                coefficient_functionals(L, m), mod
            )
            assert rebuilt == lambda_action_T(L, m), (L, m.data)


def test_a5_proof_step_reproduction():
    """The mixed-basis extractions (alfa/beta/gamma/delta), the three scalar
    rows, the v-row eliminations, and the final linear-independence step all
    reproduce exactly on a generic symbolic state."""
    report = reproduce_proof_steps()
    assert report["ok"], {k: v for k, v in report["steps"].items() if not v}
    expected = {
        "alfa", "beta", "gamma", "delta", "s2-blocks-threeway",
        "tecres", "tecres2", "tecres3", "row-vj1", "row-vj2", "row-vjl1",
        "l3-rows", "force-v-empty", "b2-linear-independence",
    }
    assert set(report["steps"]) == expected


def test_a6_degree_bound_full_scan():
    """Over the three built-in modules and every integer eigenvalue in
    -10..10, with Theta-powers up to 5: every homogeneous kernel component
    of the singular conditions vanishes in the banned coordinate ranges and
    matches one of the eight admissible degree shapes.  Budgets: 1 min for
    the 1-dimensional module, 15 min for the 6-dimensional one, 60 min for
    the 15-dimensional one."""
    budgets = {"trivial": 60.0, "vector": 900.0, "adjoint": 3600.0}
    scan = [Q(n) for n in range(-10, 11)]
    for name, budget in budgets.items():
        t0 = time.monotonic()
        report = verify_bound(builtin(name, Q(0)), k_max=5, t_scan=scan)
        elapsed = time.monotonic() - t0
        assert report["ok"], report["counterexamples"][:1]
        assert report["counterexamples"] == []
        for c_text, entry in report["per_c"].items():
            for d, info in entry["degrees"].items():
                if not info["screened"]:
                    assert info["shape_ok"], (name, c_text, d)
                    assert info["constraints_ok"], (name, c_text, d)
                    assert info["audit_ok"], (name, c_text, d)
        assert elapsed < budget, (name, elapsed)


def test_a7_coefficient_identities_on_kernel_vectors():
    """Every kernel vector at the resonant eigenvalues satisfies the full
    list of coefficient identities: the S2 block identities for |L| = 1 and
    |L| = 3, the S3 pairings, and the seven lambda^2-ladder relations for
    L = {} (e.g. C_3 + 4 B_4 + 6 a_4 = 0 and
    10 Cd_0 + 4 Bd_1 - 3 ad_1 + bd_2 = 0)."""
    witnesses = [
        ("trivial", Q(0), 1, 6),
        ("trivial", Q(2), 3, 10),
        ("vector", Q(-1), 1, 20),
        ("vector", Q(5), 1, 1),
        ("adjoint", Q(2), 1, 10),
    ]
    audited = 0
    for name, c, degree, expected_dim in witnesses:
        mod = builtin(name, c)
        block = assemble_degree_block(mod, 2, degree)
        basis = exact_block_kernel(block, c)
        assert len(basis) == expected_dim, (name, str(c), degree, len(basis))
        for vec, residual_ok in basis:
            assert residual_ok
            vv = kernel_vector_to_verma(vec, mod)
            report = audit_technical_identities(vv)
            assert report["ok"], (name, str(c), degree, report["failures"][:3])
            audited += 1
    assert audited == sum(w[3] for w in witnesses)
