"""Inductive construction of degree-truncated minimal models and of
representatives of CDGA morphisms between them.

The input is anything with the finite-CDGA interface (a cohomology ring
with zero differential, or a Sullivan algebra).  Generators are adjoined
in nondecreasing degree, one pass per degree k: closed generators onto
the cokernel of H^k(rho), then generators killing the kernel of
H^{k+1}(rho).  The degree-1 kill step is iterated (capped, with an
explicit non-convergence flag, since minimal models of non-nilpotent
fundamental groups are infinitely generated).  Minimality is automatic:
no degree-(k+1) generator exists yet when degree k is built, so the new
differentials have no linear term.

Each generator set is built once, into one Sullivan algebra at the
final truncation max_deg + 2, and rho is checked to be a chain map once,
on the final model (`_Builder` says why no check is lost).
"""

from __future__ import annotations

from dataclasses import dataclass

from .cdga import CDGAMorphism, SullivanAlgebra, image_of_monomial, induced_matrix
from .cohomology import StageCohomology
from .errors import CapExceeded, InputError, LiftError
from .ratlin import ColumnReducer, RatMatrix, combine, kernel_basis, quotient_basis, rank, solve

# Cap on the generators of one minimal model; CapExceeded past it.
GEN_CAP = 512


@dataclass
class MinimalModel:
    model: SullivanAlgebra
    rho: CDGAMorphism  # model -> input, cohomology-exact through verified_degree
    input: object
    verified_degree: int
    deg1_converged: bool
    report: dict
    h_input: StageCohomology
    h_model: StageCohomology


class _Builder:
    """Accumulates generators in addition order; names are zero-padded
    so the algebra's canonical (degree, name) order equals addition
    order and differentials only mention earlier generators.

    One algebra per generator set: `build` makes the model, rho and the
    model's cohomology once per generator count, all at the final
    truncation `trunc`, and rho unchecked.  A generator set's algebra
    at a lower truncation is this one cut off, and its monomial bases
    are enumerated lazily, on first use, so asking for the cohomology
    of low degrees enumerates no more monomials than a lower truncation
    would.  Each rho built is the final rho restricted to a
    sub-algebra, so the one chain-map check of the final rho, through
    every degree below min(trunc, the target's truncation), covers
    every degree a check of an earlier rho would cover.
    """

    def __init__(self, target, trunc: int):
        self.target = target
        self.trunc = trunc
        self.entries = []  # (name, degree, diff poly in name-tuples, sparse rho coords)
        self.counters: dict[int, int] = {}
        self._last = None  # (generator count, (model, rho, cohomology))

    def add(self, degree: int, diff_poly: dict, rho_vec: dict):
        if len(self.entries) >= GEN_CAP:
            raise CapExceeded(f"generator cap {GEN_CAP} exceeded at degree {degree}")
        c = self.counters.get(degree, 0)
        self.counters[degree] = c + 1
        name = f"v{degree}_{c:03d}"
        self.entries.append((name, degree, diff_poly, rho_vec))

    def build(self):
        """(model, unchecked rho, cohomology of the model through
        trunc - 1), built again only when a generator was added."""
        if self._last is None or self._last[0] != len(self.entries):
            gens = [(n, d) for n, d, _, _ in self.entries]
            diff = {n: [(coeff, list(names)) for names, coeff in p.items()]
                    for n, d, p, _ in self.entries if p}
            alg = SullivanAlgebra(gens, diff, self.trunc)
            order = sorted(range(len(self.entries)),
                           key=lambda i: (self.entries[i][1], self.entries[i][0]))
            assert order == sorted(order)  # addition order is canonical order
            images = [self.entries[i][3] for i in order]
            rho = CDGAMorphism(alg, self.target, images, check=False)
            self._last = (len(self.entries),
                          (alg, rho, StageCohomology.of_cdga(alg, self.trunc - 1)))
        return self._last[1]


def minimal_model(a, max_deg: int, deg1_cap: int = 8) -> MinimalModel:
    """Minimal Sullivan model of a path-connected finite CDGA, with a
    quasi-isomorphism onto it verified degreewise through max_deg."""
    h_input = StageCohomology.of_cdga(a, max_deg + 1)
    if h_input.h_dim(0) != 1 or not h_input.class_of(0, a.unit_coords()):
        raise InputError("input is not path-connected: H^0 != Q")

    builder = _Builder(a, max_deg + 2)
    deg1_converged = True
    for k in range(1, max_deg + 1):
        # cokernel of H^k(rho): new closed generators
        if h_input.h_dim(k) > 0:
            alg, rho, h_model = builder.build()
            hk = induced_matrix(rho, h_model, h_input, k)
            for idx in quotient_basis(h_input.h_dim(k), hk,
                                      RatMatrix.identity(h_input.h_dim(k))):
                builder.add(k, {}, h_input.h_reps(k)[idx])
        # kernel of H^{k+1}(rho): one generator z per kernel vector, d z
        # the model cocycle zeta it names, rho(z) a solution x of
        # d x = rho(zeta) in the input; iterated in degree 1, where the
        # new generators can leave new kernel behind
        for iteration in range(deg1_cap + 1 if k == 1 else 1):
            alg, rho, h_model = builder.build()
            if h_model.h_dim(k + 1) == 0:
                break
            ker = kernel_basis(induced_matrix(rho, h_model, h_input, k + 1))
            if ker.cols == 0:
                break
            if k == 1 and iteration == deg1_cap:
                deg1_converged = False
                break
            reps = h_model.h_reps(k + 1)
            basis = alg.monomials(k + 1)
            for col in ker.sparse_columns():
                zeta = combine((c, reps[i]) for i, c in col.items())
                zeta_names = {tuple(alg.names[g] for g in basis[t]): c
                              for t, c in sorted(zeta.items())}
                x = solve(a.d_columns(k)[0], a.dim(k + 1), rho.apply_vec(k + 1, zeta))
                if x is None:
                    raise InputError("d x = rho(d z) unsolvable: invariant breach")
                builder.add(k, zeta_names, x)

    alg, rho, h_model = builder.build()
    rho.verify_chain_map()
    if not alg.is_minimal():
        raise InputError("constructed model is not minimal: invariant breach")
    mm = MinimalModel(alg, rho, a, -1, deg1_converged, {}, h_input, h_model)
    mm.report = verify_quasi_iso(mm, max_deg)
    mm.verified_degree = mm.report["verified_degree"]
    return mm


def verify_quasi_iso(mm: MinimalModel, max_deg: int) -> dict:
    """Per-degree (dim H^k(model), dim H^k(input), rank H^k(rho));
    verified_degree is the largest prefix where all three agree."""
    per_degree = []
    verified = -1
    prefix_ok = True
    for k in range(max_deg + 1):
        dm = mm.h_model.h_dim(k)
        di = mm.h_input.h_dim(k)
        r = 0
        if dm and di:
            r = rank(induced_matrix(mm.rho, mm.h_model, mm.h_input, k))
        per_degree.append({"degree": k, "dim_model": dm, "dim_input": di, "rank": r})
        if prefix_ok and dm == di == r:
            verified = k
        else:
            prefix_ok = False
    return {"per_degree": per_degree, "verified_degree": verified}


def _shifted(col: dict, n: int) -> dict:
    return {n + i: c for i, c in col.items()}


def sullivan_representative(f, mmA: MinimalModel, mmB: MinimalModel,
                            max_deg: int) -> CDGAMorphism:
    """Morphism mmA.model -> mmB.model covering f: A -> B.

    For each generator v of the source model, phi(v) is a deterministic
    solution of the joint exact system

        d phi(v) = phi(d v)
        mu_B(phi(v)) + d_B(eta) = f(mu_A(v))

    whose solvability follows from H(mu_B) being an isomorphism (the eta
    unknown absorbs the coboundary ambiguity; with a zero differential
    on B the second equation is exact, making mu_B o phi = f o mu_A on
    the nose).  Contract: H(mu_B o phi) = H(f o mu_A) exactly; the full
    homotopy is not certified.
    """
    src = mmA.model
    tgt = mmB.model
    B = mmB.input
    images = []
    lifts: dict = {}  # degree -> record-mode reducer of its lift system
    for gi in range(len(src.generators)):
        k = src.degrees[gi]
        dv = src.diff.get(gi, {})
        for mono in dv:
            if any(g >= gi for g in mono):
                raise InputError("generator order violates the Sullivan filtration")
        # [d_model 0; mu_B d_input] (y; eta) = (phi(d v); f(mu_A(v))) as
        # sparse columns, the lower block shifted down by dim tgt^{k+1}.
        # Every generator of degree k has the same system, and `solve`
        # leaves the reducer as it was, so one elimination serves them all.
        nd = tgt.dim(k + 1)
        red = lifts.get(k)
        if red is None:
            red = lifts[k] = ColumnReducer(nd + B.dim(k), record=True)
            for d_col, mu_col in zip(tgt.d_columns(k)[0], mmB.rho.matrix(k).sparse_columns()):
                red.add({**d_col, **_shifted(mu_col, nd)})
            for d_col in B.d_columns(k - 1)[0]:
                red.add(_shifted(d_col, nd))
        phi_dv = combine((c, image_of_monomial(src, tgt, images, m))
                         for m, c in dv.items())
        f_mu = f.matrix(k).apply_sparse(mmA.rho.images[gi])
        sol = red.solve({**phi_dv, **_shifted(f_mu, nd)})
        if sol is None:
            raise LiftError(
                f"no lift for generator {src.names[gi]} (degree {k}): "
                "truncation too small or invariant breach")
        dk = tgt.dim(k)
        images.append({j: c for j, c in sol.items() if j < dk})

    phi = CDGAMorphism(src, tgt, images, check=True)
    verify_representative(phi, f, mmA, mmB, max_deg)
    return phi


def verify_representative(phi: CDGAMorphism, f, mmA: MinimalModel,
                          mmB: MinimalModel, max_deg: int):
    """Exact check of H(mu_B o phi) = H(f o mu_A) on the chosen bases."""
    hi = min(max_deg, mmA.verified_degree if mmA.verified_degree >= 0 else max_deg)
    h_b = mmB.h_input
    for k in range(hi + 1):
        if mmA.h_model.h_dim(k) == 0 or h_b.h_dim(k) == 0:
            continue  # one side is the zero space, nothing to compare
        for rep in mmA.h_model.h_reps(k):
            lhs_vec = mmB.rho.apply_vec(k, phi.apply_vec(k, rep))
            rhs_vec = f.matrix(k).apply_sparse(mmA.rho.apply_vec(k, rep))
            if h_b.class_of(k, lhs_vec) != h_b.class_of(k, rhs_vec):
                raise LiftError(f"representative breaks H-contract at degree {k}")
