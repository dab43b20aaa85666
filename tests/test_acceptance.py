"""Acceptance suite: one test (one pass/fail line under pytest -v) per criterion.

Each test also prints a single summary line with the measured values so the
numbers are visible in captured output.
"""

import math
import time
from fractions import Fraction

import numpy as np

from trirank import analytic, biascx, decomp, geometric, linalg, slicerank, tensor, variety
from trirank.fields import make_field

from jacobian_reference import jacobian_tangent

F3 = make_field(3)


def _line(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_criterion_1_levi_civita_full_chain():
    t0 = time.perf_counter()
    T = tensor.levi_civita(F3)
    rep = slicerank.verify_rank_chain(T, kmax=3, seed=7)
    elapsed = time.perf_counter() - t0
    ar_ok = abs(rep.ar.value - math.log(729 / 105, 3)) <= 1e-9
    ar_count_ok = rep.ar.zero_count == 105
    gr_ok = rep.gr.gr == 2 and rep.gr.stable
    sr_ok = rep.sr.exact and rep.sr.value == 3
    ok = ar_ok and ar_count_ok and gr_ok and sr_ok and rep.all_hold and elapsed < 10
    _line(
        1, ok,
        f"ar={rep.ar.value:.9f} zeros={rep.ar.zero_count} gr={rep.gr.gr} "
        f"sr={rep.sr.lo} chain={rep.all_hold} {elapsed:.1f}s",
    )


def test_criterion_2_t2_direct_sum_ratio():
    t0 = time.perf_counter()
    T = tensor.tk_family(F3, 2)
    rep = slicerank.verify_rank_chain(T, kmax=3, seed=7)
    elapsed = time.perf_counter() - t0
    stratum = rep.gr.strata[rep.gr.argmin_r]
    gr_ok = rep.gr.gr == 4 and rep.gr.stable and stratum.codim <= 2
    sr_ok = rep.sr.exact and rep.sr.value == 6
    ratio_ok = rep.ratio_sr_gr == Fraction(3, 2)
    ok = gr_ok and sr_ok and ratio_ok and elapsed < 120
    _line(
        2, ok,
        f"gr={rep.gr.gr} sr={rep.sr.lo} ratio={rep.ratio_sr_gr} "
        f"stratum_codim={stratum.codim} {elapsed:.1f}s",
    )


def test_criterion_3_identity_family():
    ok = True
    details = []
    for q in (3, 5):
        F = make_field(q)
        for n in range(1, 5):
            T = tensor.identity_tensor(F, n)
            gr = geometric.geometric_rank(T, kmax=3, seed=1)
            sr = slicerank.vertex_cover_sr(T)
            ar = analytic.analytic_rank(T)
            closed = n * (2 - math.log(2 * q - 1, q))
            ok &= gr.gr == n and sr == n
            ok &= ar.zero_count == (2 * q - 1) ** n
            ok &= abs(ar.value - closed) <= 1e-9
    # AR/n strictly increasing in q at n = 2
    per_q = []
    for q in (3, 5, 7):
        ar = analytic.analytic_rank(tensor.identity_tensor(make_field(q), 2))
        per_q.append(ar.value / 2)
    increasing = per_q[0] < per_q[1] < per_q[2]
    ok &= increasing
    _line(3, ok, f"sr=gr=n and ar closed form for n=1..4, q in {{3,5}}; "
                 f"ar/n at n=2: {[round(v, 4) for v in per_q]}")


def test_criterion_4_decomposition_soundness():
    verified = 0
    bound_ok = 0
    bound_applicable = 0
    flagged = 0
    total = 50
    for i in range(total):
        T = tensor.random_tensor(F3, (3, 3, 3), seed=2000 + i)
        rep = geometric.geometric_rank(T, kmax=3, seed=i)
        D = decomp.slice_decompose(T, k_work=3, seed=i, gr_report=rep)
        if decomp.verify_decomposition(T, D):
            verified += 1
        if D.flagged:
            flagged += 1
        if D.r_used == rep.argmin_r:  # sampler found a rank-argmin point
            bound_applicable += 1
            if D.term_count <= 2 * rep.gr:
                bound_ok += 1
    ok = (
        verified == total
        and bound_ok == bound_applicable
        and flagged / total < 0.05
    )
    _line(
        4, ok,
        f"verified {verified}/{total}, term bound {bound_ok}/{bound_applicable}, "
        f"flagged {flagged}",
    )


def _random_poly(rng, F, nvars, max_terms=4):
    poly = {}
    for _ in range(rng.integers(1, max_terms + 1)):
        deg = int(rng.integers(0, 3))
        e = [0] * nvars
        for _ in range(deg):
            e[rng.integers(0, nvars)] += 1
        c = int(rng.integers(1, F.q))
        e = tuple(e)
        poly[e] = (poly.get(e, 0) + c) % F.q if F.k == 1 else c
        if poly[e] == 0:
            del poly[e]
    return poly


def test_criterion_5_schwartz_zippel():
    rng = np.random.default_rng(99)
    stable = held = 0
    for _ in range(200):
        q = int(rng.choice([3, 5]))
        F = make_field(q)
        nvars = int(rng.integers(2, 5))
        npolys = int(rng.integers(1, 4))
        polys = [p for p in (_random_poly(rng, F, nvars) for _ in range(npolys)) if p]
        S = variety.PolySystem(F, nvars, polys)
        est = variety.estimate_dim(S, kmax=3, mc_samples=10 ** 5, seed=7)
        if est.status == "unstable":
            continue
        stable += 1
        if variety.sz_check(S, est).holds:
            held += 1
    classical_held = classical_total = 0
    for _ in range(200):
        q = int(rng.choice([3, 5]))
        F = make_field(q)
        nvars = int(rng.integers(2, 5))
        p = _random_poly(rng, F, nvars)
        if not p:
            continue
        S = variety.PolySystem(F, nvars, [p])
        d = max(S.maxdeg, 1)
        count = variety.count_points(S, 1).count
        classical_total += 1
        if Fraction(int(count), q ** nvars) <= Fraction(d, q):
            classical_held += 1
    ok = stable > 0 and held == stable and classical_held == classical_total
    _line(
        5, ok,
        f"system checks {held}/{stable} stable of 200; "
        f"classical {classical_held}/{classical_total}",
    )


def test_criterion_6_min_entropy_identity():
    matched = 0
    total = 100
    for i in range(total):
        T = tensor.random_tensor(F3, (3, 3, 3), seed=3000 + i)
        me = analytic.min_entropy(T)
        zc = analytic.zero_count(T)
        if me.max_count == zc and abs(
            me.me - analytic.analytic_rank(T).value * math.log2(3)
        ) < 1e-12:
            matched += 1
    _line(6, matched == total, f"max bucket = zero count on {matched}/{total} maps")


def test_criterion_7_closeness_tradeoff():
    ok = True
    for r in (1, 2):
        for t in (1, 2):
            f, g = biascx.extremal_pair(F3, r, t, r + t)
            rep = biascx.closeness_report(f, g)
            ok &= rep.delta == biascx.extremal_delta(3, r, t)
            ok &= abs(rep.sr_f.value - rep.sr_g.value) == abs(r - t)
            ok &= rep.sr_diff.value == r + t
            ok &= bool(rep.subadditivity_holds) and bool(rep.ar_bound_holds)
    _line(7, ok, "extremal pairs (r,t) in {1,2}^2: delta, SR values, both bounds")


def gl_act(T, axis, M):
    """T with the slices along `axis` replaced by A'_i = sum_l M_il A_l."""
    a = "xyz".index(axis)
    out = linalg.mat_mul(M, np.moveaxis(T.entries, a, 1), T.field)
    return tensor.Tensor3(T.field, np.moveaxis(out, 1, a))


def _random_invertible(rng, F, n):
    while True:
        M = rng.integers(0, F.q, size=(n, n)).astype(np.int32)
        if linalg.rank(M, F) == n:
            return M


def _gl_invariance():
    rng = np.random.default_rng(8)
    pool = [
        tensor.identity_tensor(F3, 2),
        tensor.identity_tensor(F3, 3),
        tensor.levi_civita(F3),
        tensor.random_tensor(F3, (3, 3, 3), seed=77),
        tensor.random_tensor(F3, (3, 3, 3), seed=78),
    ]
    for T in pool:
        zc = analytic.zero_count(T)
        sr = slicerank.slice_rank_exact(T).value
        strata = [
            [c.count for c in geometric.rank_strata_counts(T, k)] for k in (1, 2)
        ]
        for _ in range(20):
            axis = "xyz"[rng.integers(0, 3)]
            M = _random_invertible(rng, F3, T.dims["xyz".index(axis)])
            U = gl_act(T, axis, M)
            if analytic.zero_count(U) != zc:
                return False, f"zero count changed under GL action on {axis}"
            if slicerank.slice_rank_exact(U).value != sr:
                return False, "exact SR changed under GL action"
            # contraction-side actions permute the x-coefficient space;
            # output-side actions change each slice invertibly
            got = [
                [c.count for c in geometric.rank_strata_counts(U, k)] for k in (1, 2)
            ]
            if got != strata:
                return False, "GR strata counts changed under GL action"
    return True, "20 actions per tensor"


def _subadditivity_and_dim_bound():
    pool = [tensor.random_tensor(F3, (2, 2, 2), seed=s) for s in range(8)]
    for f in pool:
        srf = slicerank.slice_rank_exact(f).value
        if srf > min(f.dims):
            return False, "dimension bound violated"
        for g in pool:
            fg = tensor.Tensor3(F3, F3.add[f.entries, g.entries])
            if slicerank.slice_rank_exact(fg).value > srf + slicerank.slice_rank_exact(g).value:
                return False, "subadditivity violated"
    return True, "all exact-scope pairs"


def _minor_system(m, n, size):
    """All size x size minors of an m x n matrix of variables x1..x(mn)."""
    import itertools

    nvars = m * n
    polys = []
    for rows in itertools.combinations(range(m), size):
        for cols in itertools.combinations(range(n), size):
            det = {}
            for perm in itertools.permutations(range(size)):
                sign = 1
                for a in range(size):
                    for b in range(a + 1, size):
                        if perm[a] > perm[b]:
                            sign = -sign
                e = [0] * nvars
                for a in range(size):
                    e[rows[a] * n + cols[perm[a]]] += 1
                c = 1 if sign > 0 else F3.q - 1
                e = tuple(e)
                det[e] = (det.get(e, 0) + c) % F3.q
                if det[e] == 0:
                    del det[e]
            polys.append(det)
    return variety.PolySystem(F3, nvars, polys)


def _tangent_vs_jacobian():
    for m, n in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        systems = {r: _minor_system(m, n, r + 1) for r in (1, 2) if r + 1 <= min(m, n)}
        codes = np.arange(3 ** (m * n))
        mats = np.zeros((codes.size, m * n), dtype=np.int32)
        rem = codes.copy()
        for i in range(m * n):
            mats[:, i] = rem % 3
            rem //= 3
        ranks = linalg.batched_rank(mats.reshape(-1, m, n), F3)
        for r in (1, 2):
            points = mats[ranks == r]  # every shape here has rank-1 and rank-2 matrices
            S = np.stack([decomp._sylvester_matrix(A.reshape(m, n)).T for A in points])
            J = np.zeros((len(points), m * n, m * n), dtype=np.int32)  # bases padded by zero rows
            for j, A in enumerate(points):
                if r in systems:
                    jac = jacobian_tangent(systems[r], A)
                else:
                    jac = np.eye(m * n, dtype=np.int32)  # M_r is the whole space
                J[j, : len(jac)] = jac
            # span S = span J iff rank S = rank J = rank [S; J]
            rank_s, rank_j, rank_sj = (
                linalg.batched_rank(M, F3) for M in (S, J, np.concatenate([S, J], axis=1))
            )
            if not (np.array_equal(rank_s, rank_j) and np.array_equal(rank_s, rank_sj)):
                return False, f"mismatch at a rank-{r} {m}x{n} matrix"
    return True, "exhaustive over F_3 up to 3x3"


def _tangent_dimension_formula():
    rng = np.random.default_rng(21)
    for m in range(1, 5):
        for n in range(1, 5):
            for _ in range(50):
                A = rng.integers(0, 3, size=(m, n)).astype(np.int32)
                r = linalg.rank(A, F3)
                if linalg.rank(decomp._sylvester_matrix(A), F3) != m * n - (m - r) * (n - r):
                    return False, f"dimension formula failed at shape {m}x{n}"
    return True, "50 samples per shape"


def test_criterion_8_structural_suite():
    checks = {
        "gl_invariance": _gl_invariance(),
        "subadditivity": _subadditivity_and_dim_bound(),
        "tangent_vs_jacobian": _tangent_vs_jacobian(),
        "tangent_dim_formula": _tangent_dimension_formula(),
    }
    ok = all(v[0] for v in checks.values())
    detail = "; ".join(f"{k}: {'ok' if v[0] else v[1]}" for k, v in checks.items())
    _line(8, ok, detail)
