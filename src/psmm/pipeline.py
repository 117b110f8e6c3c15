"""End-to-end orchestration.

Two routes start from a metric space.  `persistent_model` runs the
whole pipeline: Rips filtration -> per-stage cohomology rings ->
persistent minimal model with representatives -> V and H barcodes ->
lower-bound report.  `h_barcode(MetricSpace)` reads the H barcode alone
off one persistent-cohomology reduction over the Rips simplices, with no
stages, rings or models; it agrees with the ring-map barcode of the
persistent model, value and type, and serves as its independent check.

Per stage the model input is the cohomology ring with zero differential
(the formal CDGA of the stage).  This computes the true minimal model
exactly for formal stages -- spheres and their wedges and products,
which covers every worked example here -- and is documented as an
approximation otherwise: Massey products are invisible to it.
Disconnected stages are modeled through their unital core Q.1 + H^+,
the cohomology of the wedge of their components, so that every stage is
path-connected as the model construction requires.

A persistent-CDGA input takes per-grid CDGAs and structure maps
verbatim, which covers non-metric comparisons.  Both input forms hand
their stage algebras, sharing keys and structure maps to one driver,
`_models_and_reps`: stages with equal keys (for a metric stage, equal
core dims and structure constants; for a given algebra, equal
generators, differential and truncation) share one model object, pairs
with the same two models and map matrices share one representative,
and every length-2 span is checked for Q- and H-functoriality, once per
distinct span of model and representative objects and map matrices.
The dump still lists every stage and pair, byte for byte as without
sharing, but each later layer works once per distinct object:
`psm_to_json` builds the part of a shared model, representative or H
map once and puts the same dict wherever it recurs, `cli.json_text`
writes such a dict once per indent and repeats its text, and
`barcodes_from_json` parses each distinct matrix of a dump once.

Grid values, in a persistent-CDGA file or a model dump, and the entries
of a dump's matrices are read by `util.json_number`.  A grid value may
be a float if it is finite; a matrix entry must be exact, since the
dump writes every entry as an exact-number string.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Optional

from .cdga import (
    CDGAMorphism,
    induced_cohomology_map,
    linear_part_map,
    sullivan_from_json,
)
from .cohomology import CohomologyRing, induced_ring_map
from .config import Config
from .errors import CapExceeded, DimensionMismatch, InputError, LiftError
from .gvec import GradedLinearMap, GradedVectorSpace
from .metric import MetricSpace, build_filtration, gh_bruteforce, rips_simplices
from .minmodel import MinimalModel, minimal_model, sullivan_representative
from .persistence import (
    INF,
    Barcode,
    BottleneckResult,
    PersistentGVec,
    bottleneck,
    cohomology_barcode,
)
from .ratlin import RatMatrix
from .util import json_int, json_number, num_to_json


@dataclass
class PersistentSullivanModel:
    """Per-stage minimal models with contravariant representatives.

    reps[k] covers the induced map H(stage k+1) -> H(stage k), going
    from the later stage's model to the earlier stage's model.
    """

    grid: tuple
    models: list
    reps: list
    h_spaces: list
    h_maps: list
    max_degree: int
    degraded_pairs: list = field(default_factory=list)
    source: str = "metric"

    @property
    def num_stages(self) -> int:
        return len(self.models)

    @property
    def h1_stages(self) -> list:
        """Stages with H^1 != 0; none at max_degree 0, where the H
        spaces stop at degree 0."""
        return [k for k, h in enumerate(self.h_spaces) if h.dim(1) > 0]

    @property
    def nonconverged_stages(self) -> list:
        return [k for k, mm in enumerate(self.models) if not mm.deg1_converged]

    def caveats(self) -> list:
        out = []
        if self.h1_stages:
            out.append(
                f"stages {self.h1_stages} have H^1 != 0: degree-1 homotopy bars "
                "and their linear parts lie outside the simply-connected chain")
        if self.nonconverged_stages:
            out.append(
                f"degree-1 construction did not converge at stages "
                f"{self.nonconverged_stages}: V^1 truncated at the iteration cap")
        if self.degraded_pairs:
            out.append(
                f"no lift exists within the truncated degree-1 models for stage "
                f"pairs {self.degraded_pairs}: zero representatives substituted")
        return out


@dataclass
class PersistentCDGA:
    """User-supplied persistent CDGA over a finite grid; maps run from
    stage k+1 to stage k (contravariant, like cohomology)."""

    grid: tuple
    stages: list
    maps: list  # CDGAMorphism per consecutive pair


def _grid_from_json(values) -> tuple:
    """A list of strictly increasing positive grid values, each a
    `json_number` and, when a float, finite."""
    if not isinstance(values, list):
        raise InputError("'grid' must be a list")
    grid = tuple(json_number(x, "grid value") for x in values)
    if any(isinstance(g, float) and not math.isfinite(g) for g in grid):
        raise InputError("grid has a NaN or infinite value")
    if list(grid) != sorted(set(grid)) or any(g <= 0 for g in grid):
        raise InputError("grid must be strictly increasing positive values")
    return grid


def persistent_cdga_from_json(data: dict, min_trunc: int = 0) -> PersistentCDGA:
    """Persistent CDGA from its file form: a `grid` list, one Sullivan
    algebra per grid interval in `stages`, and in `maps` one object per
    consecutive pair whose `images` send each generator of stage k+1 to
    a term list of its degree in stage k (omitted generators map to 0)."""
    grid, maps_spec = _grid_from_json(data.get("grid", [])), data.get("maps", [])
    if not isinstance(maps_spec, list):
        raise InputError("'maps' must be a list")
    stage_specs = data.get("stages")
    if not stage_specs or not isinstance(stage_specs, list):
        raise InputError("persistent CDGA needs a list of at least one stage")
    if len(stage_specs) != len(grid) + 1:
        raise InputError("need exactly one stage per grid interval")
    stages = [sullivan_from_json(spec, min_trunc) for spec in stage_specs]
    if len(maps_spec) != len(stages) - 1:
        raise InputError("need one structure map per consecutive stage pair")
    maps = []
    for k, mp in enumerate(maps_spec):
        img_spec = mp.get("images", {}) if isinstance(mp, dict) else None
        if not isinstance(img_spec, dict):
            raise InputError(f"map {k} must be an object with an 'images' object")
        src, tgt = stages[k + 1], stages[k]
        unknown = sorted(set(img_spec) - set(src.names))
        if unknown:
            raise InputError(f"map {k}: {unknown} are not generators of stage {k + 1}")
        images = []
        for name, d in src.generators:
            terms = img_spec.get(name, [])
            if not isinstance(terms, list):
                raise InputError(f"map {k}: the image of {name} must be a term list")
            poly = tgt._canon_poly(terms)
            if any(tgt.monomial_degree(m) != d for m in poly):
                raise InputError(f"map {k}: the image of {name} is not of degree {d}")
            images.append(tgt.poly_to_vec(poly, d))
        maps.append(CDGAMorphism(src, tgt, images))
    return PersistentCDGA(grid, stages, maps)


def _core_map(ring_map: GradedLinearMap, core_small: CohomologyRing,
              core_big: CohomologyRing, max_deg: int) -> GradedLinearMap:
    """Restrict an induced ring map to the unital cores: the unit line
    maps by the identity, positive degrees are untouched."""
    mats = {0: RatMatrix.identity(1)}
    for k in range(1, max_deg + 1):
        m = ring_map.matrix(k)
        if not m.is_zero():
            mats[k] = m
    return GradedLinearMap(core_big.space(max_deg), core_small.space(max_deg), mats)


def _representative_or_degrade(f, mm_src, mm_tgt, max_degree: int,
                               pair: int, degraded: list, lift=None) -> CDGAMorphism:
    """The representative of f, or, where no lift exists within truncated
    degree-1 models, the zero one (a chain map, since minimal
    differentials are decomposable) with `pair` added to `degraded`."""
    try:
        return (lift or sullivan_representative)(f, mm_src, mm_tgt, max_degree)
    except LiftError:
        if mm_src.deg1_converged and mm_tgt.deg1_converged:
            raise
        degraded.append(pair)
        return CDGAMorphism(mm_src.model, mm_tgt.model, [{} for _ in mm_src.model.generators])


def _maps_key(f, max_deg: int) -> tuple:
    """The matrices of a ring map or CDGA morphism in degrees 0..max_deg."""
    return tuple(f.matrix(k) for k in range(max_deg + 1))


def _algebra_key(alg) -> tuple:
    """Generators, nonzero differentials and truncation: the data that
    fixes a Sullivan algebra, so equal stages share one model."""
    diff = tuple(sorted((i, tuple(sorted(p.items()))) for i, p in alg.diff.items() if p))
    return alg.generators, diff, alg.trunc


def _shared(cache: dict, key, build):
    """The value cached under `key`, built by `build()` on first use."""
    if key not in cache:
        cache[key] = build()
    return cache[key]


def _models_and_reps(algebras: list, keys: list, maps: list, cfg: Config):
    """(models, reps, degraded pairs): the minimal model of each stage
    algebra and a representative of each map, maps[k] running from stage
    k+1 to stage k, checked on every length-2 span.  Stages with equal
    keys share one `MinimalModel`; pairs with the same two model objects
    and the same map matrices share one representative.  Only successful
    lifts are shared; a pair with no lift is retried, and degraded.
    """
    deg = cfg.max_degree
    shared_models: dict = {}
    models = [_shared(shared_models, key, lambda: minimal_model(alg, deg, cfg.deg1_cap))
              for alg, key in zip(algebras, keys)]
    shared_lifts: dict = {}

    def lift(f, mm_src, mm_tgt, max_degree):
        return _shared(shared_lifts, (id(mm_src), id(mm_tgt), _maps_key(f, max_degree)),
                       lambda: sullivan_representative(f, mm_src, mm_tgt, max_degree))

    degraded: list = []
    reps = [_representative_or_degrade(f, models[k + 1], models[k], deg, k, degraded, lift)
            for k, f in enumerate(maps)]
    _check_functoriality(models, reps, maps, degraded, deg, lift)
    return models, reps, degraded


def _check_functoriality(models: list, reps: list, maps: list, degraded: list,
                         max_degree: int, lift):
    """Composites over length-2 spans: the representative of g o f must
    agree with rep(g) o rep(f) on cohomology and on linear parts.
    Spans touching non-converged or degraded stages are skipped; the
    functoriality guarantee does not extend to truncated degree-1
    constructions.  A span with the same model and representative
    objects and the same two map matrices as one already checked is
    not checked again, nor its composite built: equal maps have equal
    composites.  `lift` makes the direct representatives."""
    skip = {k for k, mm in enumerate(models) if not mm.deg1_converged}
    checked = set()
    for k in range(len(maps) - 1):
        if {k, k + 1, k + 2} & skip or {k, k + 1} & set(degraded):
            continue
        span = (*(id(mm) for mm in models[k:k + 3]), id(reps[k]), id(reps[k + 1]),
                _maps_key(maps[k], max_degree), _maps_key(maps[k + 1], max_degree))
        if span in checked:
            continue
        checked.add(span)
        composite = maps[k].compose_after(maps[k + 1])
        direct = lift(composite, models[k + 2], models[k], max_degree)
        chained = reps[k].compose_after(reps[k + 1])
        if not linear_part_map(direct).equals(linear_part_map(chained)):
            raise InputError(f"Q-functoriality fails across stages {k}..{k + 2}")
        h_src, h_tgt = models[k + 2].h_model, models[k].h_model
        hd = induced_cohomology_map(direct, h_src, h_tgt, max_degree)
        hc = induced_cohomology_map(chained, h_src, h_tgt, max_degree)
        if not hd.equals(hc):
            raise InputError(f"H-functoriality fails across stages {k}..{k + 2}")


def persistent_model(m: MetricSpace, cfg: Optional[Config] = None) -> PersistentSullivanModel:
    """Formality pipeline for a metric space: Rips filtration, stage
    rings, and the formal minimal models and representatives of their
    unital cores and core maps (`_models_and_reps`), shared by
    `CohomologyRing.core_key`.  One ring is built per distinct stage
    object and one induced map per distinct pair of rings.  When the
    degrees read, 0..max_degree, lie below max_dim, the filtration stops
    enumerating below the enclosing radius and every stage from it on is
    one shared star (`build_filtration`) with one ring.
    """
    cfg = cfg or Config()
    filt = build_filtration(m, cfg.max_dim, cfg.simplex_cap, max_degree=cfg.max_degree)
    ring_deg = cfg.max_degree + 1

    shared_rings: dict = {}
    rings = [_shared(shared_rings, id(cx), lambda: CohomologyRing.from_complex(cx, ring_deg))
             for cx in filt.stages]
    cores = [r.unital_core() for r in rings]
    shared_maps: dict = {}
    ring_maps = [_shared(shared_maps, (id(small), id(big)),
                         lambda: induced_ring_map(small, big, cfg.max_degree))
                 for small, big in zip(rings, rings[1:])]
    core_maps = [_core_map(f, small, big, cfg.max_degree)
                 for f, small, big in zip(ring_maps, cores, cores[1:])]
    models, reps, degraded = _models_and_reps(
        cores, [core.core_key(cfg.max_degree) for core in cores], core_maps, cfg)
    return PersistentSullivanModel(
        grid=filt.critical_values, models=models, reps=reps,
        h_spaces=[r.space(cfg.max_degree) for r in rings], h_maps=ring_maps,
        max_degree=cfg.max_degree, degraded_pairs=degraded, source="metric")


def persistent_model_from_cdgas(pc: PersistentCDGA,
                                cfg: Optional[Config] = None) -> PersistentSullivanModel:
    """Verbatim persistent-CDGA mode: per-stage models of the given
    algebras and representatives along the given structure maps
    (`_models_and_reps`, one model per distinct algebra, keyed by
    `_algebra_key`), with H spaces and maps read off each model's input
    cohomology."""
    cfg = cfg or Config()
    models, reps, degraded = _models_and_reps(
        pc.stages, [_algebra_key(alg) for alg in pc.stages], pc.maps, cfg)
    h_spaces = [GradedVectorSpace.from_dims(
                    {k: mm.h_input.h_dim(k) for k in range(cfg.max_degree + 1)})
                for mm in models]
    h_maps = [induced_cohomology_map(f, models[k + 1].h_input, models[k].h_input,
                                     cfg.max_degree)
              for k, f in enumerate(pc.maps)]
    return PersistentSullivanModel(
        grid=pc.grid, models=models, reps=reps, h_spaces=h_spaces, h_maps=h_maps,
        max_degree=cfg.max_degree, degraded_pairs=degraded, source="cdga")


def v_barcode(psm: PersistentSullivanModel) -> Barcode:
    """Rational-homotopy barcode: generator spaces of the models with
    the linear parts of the representatives, decomposed per degree.
    Degree-n bars read as rank-(pi_n tensor Q) intervals; dualization
    keeps interval endpoints over a finite grid."""
    spaces = [mm.model.generator_space() for mm in psm.models]
    vmaps = [linear_part_map(rep) for rep in psm.reps]
    module = PersistentGVec.from_contravariant(psm.grid, spaces, vmaps)
    return module.barcode()


def h_barcode(source, cfg: Optional[Config] = None) -> Barcode:
    """Persistent-cohomology barcode in degrees 0..max_degree.

    From a PersistentSullivanModel it is read off the stage cohomology
    and the induced-map matrices.  From a MetricSpace it is one
    reduction over the Rips simplices (`persistence.cohomology_barcode`),
    with no stages, rings or induced maps, run on the space's keys
    (`MetricSpace.keys`): only the bar endpoints become values.  When
    max_degree < max_dim, simplices of diameter above the enclosing
    radius are never enumerated (`rips_simplices`' bound): from the
    radius on every stage is a cone through dimension max_dim - 1
    (`MetricSpace.enclosing_radius`), so no bar of a reported degree
    lives past it.  Both paths give equal bars with endpoints of equal
    types: a zero birth is `Fraction(0)` unless the space has a positive
    float distance.
    """
    if isinstance(source, MetricSpace):
        cfg = cfg or Config()
        radius = source.radius_key() if cfg.max_degree < cfg.max_dim else None
        simplices = rips_simplices(source, cfg.max_dim, cfg.simplex_cap, radius)
        keys, scale = source.keys
        zero = 0.0 if scale is None and any(map(any, keys)) else Fraction(0)
        return cohomology_barcode(simplices, cfg.max_degree, zero, source.value)
    psm = source
    module = PersistentGVec.from_contravariant(psm.grid, psm.h_spaces, psm.h_maps)
    return module.barcode()


# ---------------------------------------------------------------------------
# Bounds report
# ---------------------------------------------------------------------------


def _bottleneck_to_json(r: Optional[BottleneckResult]) -> Optional[dict]:
    if r is None:
        return None
    return {**{str(k): num_to_json(v) for k, v in sorted(r.per_degree.items())},
            "sup": num_to_json(r.sup)}


@dataclass
class BoundsReport:
    """dB_V and its verdict value are None when a model passed a cap."""

    dB_H: BottleneckResult
    dB_V: Optional[BottleneckResult]
    dB_V_verdict_value: object  # sup over degrees >= 2
    gh2: Optional[object]
    verdicts: list
    caveats: list

    def bracket(self):
        lower = max(v for v in (self.dB_H.sup, self.dB_V_verdict_value) if v is not None)
        return (lower, self.gh2)

    def to_json(self) -> dict:
        lower, upper = self.bracket()
        return {
            "dB_H": _bottleneck_to_json(self.dB_H),
            "dB_V": _bottleneck_to_json(self.dB_V),
            "gh2": num_to_json(self.gh2),
            "verdicts": self.verdicts,
            "caveats": self.caveats,
            "ho_cdga_bracket": {
                "lower": num_to_json(lower),
                "upper": num_to_json(upper),
                "note": "lower bounds and a doubled Gromov-Hausdorff upper bound "
                        "bracket the homotopy-category interleaving distance; "
                        "the distance itself is never computed",
            },
        }

    def table(self) -> str:
        rows = ["quantity        value", "-" * 30]

        def fmt(x):
            if x is None:
                return "-"
            if x == INF:
                return "inf"
            if isinstance(x, Fraction):
                return f"{x} ({float(x):.6g})"
            return f"{x:.6g}"

        rows.append(f"dB_H (sup)      {fmt(self.dB_H.sup)}")
        rows.append(f"dB_V (deg>=2)   {fmt(self.dB_V_verdict_value)}")
        rows.append(f"dB_V (sup)      {fmt(None if self.dB_V is None else self.dB_V.sup)}")
        rows.append(f"2*d_GH          {fmt(self.gh2)}")
        for v in self.verdicts:
            status = {True: "PASS", False: "FAIL", None: "SKIPPED"}[v["holds"]]
            rows.append(f"{v['name']}: {status}")
        for c in self.caveats:
            rows.append(f"caveat: {c}")
        lower, upper = self.bracket()
        rows.append(f"bracket on homotopy-category distance: "
                    f"[{fmt(lower)}, {fmt(upper)}]")
        return "\n".join(rows)


# ---------------------------------------------------------------------------
# Model dump serialization
# ---------------------------------------------------------------------------


def _mat_to_json(m: RatMatrix) -> list:
    """The dense rows of m, written from its sparse columns."""
    rows = [["0"] * m.cols for _ in range(m.rows)]
    for j, col in enumerate(m.sparse_columns()):
        for i, v in col.items():
            rows[i][j] = num_to_json(v)
    return rows


def _gmap_to_json(f: GradedLinearMap, max_deg: int) -> dict:
    """The map's blocks in degrees 0..max_deg that have rows and columns;
    a degree with no stored block is the zero block of the spaces' dims."""
    out = {}
    for k in range(max_deg + 1):
        rows, cols = f.target.dim(k), f.source.dim(k)
        if rows and cols:
            m = f.mats.get(k)
            out[str(k)] = [["0"] * cols for _ in range(rows)] if m is None else _mat_to_json(m)
    return out


def _images_to_json(phi: CDGAMorphism) -> dict:
    """Each source generator's image as the dense coordinate list of its
    degree in the target basis, written from the sparse image: "0"
    wherever it has no entry."""
    out = {}
    for (name, d), vec in zip(phi.source.generators, phi.images):
        row = ["0"] * phi.target.dim(d)
        for i, v in vec.items():
            row[i] = num_to_json(v)
        out[name] = row
    return out


def minimal_model_to_json(mm: MinimalModel) -> dict:
    """The model, its rho images, the verification report and the
    degree-1 convergence flag, as `psmm model` and `psmm minimal-model`
    write them."""
    return {
        "model": mm.model.dump(),
        "rho": _images_to_json(mm.rho),
        "verification": mm.report,
        "deg1_converged": mm.deg1_converged,
    }


def _dims_to_json(space: GradedVectorSpace) -> dict:
    return {str(d): space.dim(d) for d in space.degrees()}


def psm_to_json(psm: PersistentSullivanModel) -> dict:
    """Full dump: per-stage models with rho images and verification,
    plus the matrices needed to rebuild both barcodes exactly.

    Each distinct part is built once, keyed by object identity: a
    model's entries and V dims, a stage's dict (its model and H space),
    a representative's images and linear-part matrices, an H map's
    matrices.  Stages and pairs that share an object hold the same
    dict, so the returned tree shares sub-dicts and is read-only."""
    deg = psm.max_degree
    model_parts: dict = {}

    def stage(mm, h):
        part = _shared(model_parts, id(mm), lambda: {
            **minimal_model_to_json(mm),
            "v_dims": _dims_to_json(mm.model.generator_space())})
        return {**part, "h_dims": _dims_to_json(h)}

    stage_json: dict = {}
    rep_json: dict = {}
    h_map_json: dict = {}
    return {
        "format": "psmm-model",
        "source": psm.source,
        "max_degree": deg,
        "grid": [num_to_json(g) for g in psm.grid],
        "stages": [_shared(stage_json, (id(mm), id(h)), lambda: stage(mm, h))
                   for mm, h in zip(psm.models, psm.h_spaces)],
        "representatives": [_shared(rep_json, id(rep), lambda: {
                                "images": _images_to_json(rep),
                                "q_matrices": _gmap_to_json(linear_part_map(rep), deg)})
                            for rep in psm.reps],
        "h_maps": [_shared(h_map_json, id(f), lambda: _gmap_to_json(f, deg))
                   for f in psm.h_maps],
        "h1_stages": psm.h1_stages,
        "nonconverged_stages": psm.nonconverged_stages,
        "caveats": psm.caveats(),
    }


def _space_from_dims(dims: dict) -> GradedVectorSpace:
    """The space of a dump's {"degree": dim} object; degrees and dims are
    integers >= 0, the dims JSON integers."""
    return GradedVectorSpace.from_dims({int(k): json_int(v, f"the dim of degree {k}")
                                        for k, v in dims.items()})


# The largest H dim a model dump may give: nothing in a dump bounds H^0,
# nor the verification's input dims; the barcode holds a vector per dim.
DUMP_DIM_CAP = 1 << 16


def _check_stage_dims(stage: dict, v: GradedVectorSpace, h: GradedVectorSpace):
    """InputError unless a dump stage's V dims count its model's
    generators by degree, its positive-degree H dims are the
    verification's input dims, and no H dim passes DUMP_DIM_CAP."""
    gens = Counter(json_int(g["degree"], "a generator degree")
                   for g in stage["model"]["generators"])
    if v != GradedVectorSpace.from_dims(gens):
        raise InputError("v_dims differ from the generator degrees of the model")
    dim_input = {json_int(e["degree"], "a verification degree"):
                 json_int(e["dim_input"], "a verification dim")
                 for e in stage["verification"]["per_degree"]}
    if ({d: n for d, n in h.dims if d > 0}
            != {d: n for d, n in dim_input.items() if d > 0 and n}):
        raise InputError("h_dims differ from the verification's dim_input")
    if any(n > DUMP_DIM_CAP for _, n in h.dims):
        raise InputError(f"an H dim exceeds the cap {DUMP_DIM_CAP}")


def _mat_from_json(rows) -> RatMatrix:
    """The matrix of a dump's dense rows, read straight into sparse
    columns.  Rows that are not lists raise InputError, rows of unequal
    length DimensionMismatch; every entry but the string "0" is read by
    `json_number` and checked by `RatMatrix.from_columns`, zeros
    included, so an entry that is not an exact number raises (a float
    with TypeError)."""
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise InputError("a matrix must be a list of rows, each a list")
    ncols = len(rows[0])
    if any(len(row) != ncols for row in rows):
        raise DimensionMismatch("data shape does not match (rows, cols)")
    cols: list = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if x != "0":
                cols[j][i] = json_number(x, "numeric literal")
    return RatMatrix.from_columns(cols, len(rows))


def _shared_mat_from_json(rows, parsed: dict) -> RatMatrix:
    """`_mat_from_json(rows)`, read once per content: `parsed` keeps the
    matrices already read, keyed by their rows.  Only rows of strings
    are keyed, since JSON 1, 1.0 and true are equal as tuple keys but
    not as entries; any other matrix is read afresh."""
    if (type(rows) is list and all(type(row) is list for row in rows)
            and set(map(type, chain.from_iterable(rows))) == {str}):
        return _shared(parsed, tuple(map(tuple, rows)), lambda: _mat_from_json(rows))
    return _mat_from_json(rows)


def _gmap_from_json(data: dict, src: GradedVectorSpace,
                    tgt: GradedVectorSpace, parsed: dict) -> GradedLinearMap:
    """The map of a dump's {"degree": rows} object, its matrices read
    through `parsed` (`_shared_mat_from_json`); a `RatMatrix` is
    immutable, so maps may share one."""
    mats = {}
    for k, rows in data.items():
        m = (_shared_mat_from_json(rows, parsed) if rows
             else RatMatrix.zeros(tgt.dim(int(k)), src.dim(int(k))))
        if not m.is_zero():
            mats[int(k)] = m
    return GradedLinearMap(src, tgt, mats)


def barcodes_from_json(data: dict):
    """(V barcode, H barcode) rebuilt from a model dump.  A dump missing
    a field, with the wrong number of stages or maps, a dim that is not
    a JSON integer >= 0 or disagrees with its stage (`_check_stage_dims`),
    or a matrix of the wrong shape raises InputError."""
    if data.get("format") != "psmm-model":
        raise InputError("not a model dump")
    try:
        grid = _grid_from_json(data["grid"])
        stages, reps, h_dumps = data["stages"], data["representatives"], data["h_maps"]
        if not len(stages) == len(grid) + 1 == len(reps) + 1 == len(h_dumps) + 1:
            raise InputError("a model dump needs one stage per grid interval and "
                             "one representative and one H map per consecutive pair")
        v_spaces = [_space_from_dims(s["v_dims"]) for s in stages]
        h_spaces = [_space_from_dims(s["h_dims"]) for s in stages]
        for s, v, h in zip(stages, v_spaces, h_spaces):
            _check_stage_dims(s, v, h)
        parsed: dict = {}
        v_maps = [_gmap_from_json(rep["q_matrices"], v_spaces[k + 1], v_spaces[k], parsed)
                  for k, rep in enumerate(reps)]
        h_maps = [_gmap_from_json(hm, h_spaces[k + 1], h_spaces[k], parsed)
                  for k, hm in enumerate(h_dumps)]
    except InputError as e:
        raise InputError(f"malformed model dump: {e}") from e
    except (KeyError, TypeError, AttributeError, ValueError, DimensionMismatch) as e:
        raise InputError(f"malformed model dump: {type(e).__name__}: {e}") from e
    v_module = PersistentGVec.from_contravariant(grid, v_spaces, v_maps)
    h_module = PersistentGVec.from_contravariant(grid, h_spaces, h_maps)
    return v_module.barcode(), h_module.barcode()


def _as_psm(x, cfg: Config) -> PersistentSullivanModel:
    if isinstance(x, PersistentCDGA):
        return persistent_model_from_cdgas(x, cfg)
    if isinstance(x, MetricSpace):
        return persistent_model(x, cfg)
    raise InputError(f"cannot compare object of type {type(x).__name__}")


def bounds_report(x, y, cfg: Optional[Config] = None,
                  with_gh: bool = True) -> BoundsReport:
    """Lower-bound chain between two inputs (metric spaces or persistent
    CDGAs), with an optional exact branch-and-bound 2*d_GH sandwich when
    both are small metric spaces.

    When the model of a metric input passes a cap, dB_V and its verdict
    are omitted with a caveat, no model is built for a later metric
    input, and the H barcode of each metric input without a model is
    read off the space (`h_barcode(MetricSpace)`).  A persistent CDGA
    has no other route to its H barcode, so its cap still raises."""
    cfg = cfg or Config()
    omitted = None  # the CapExceeded of a metric input's model
    psms = []
    for z in (x, y):
        psm = None
        if omitted is None or not isinstance(z, MetricSpace):
            try:
                psm = _as_psm(z, cfg)
            except CapExceeded as e:
                if not isinstance(z, MetricSpace):
                    raise
                omitted = e
        psms.append(psm)
    psm_x, psm_y = psms

    db_h = bottleneck(*(h_barcode(psm) if psm else h_barcode(z, cfg)
                        for psm, z in zip(psms, (x, y))))
    caveats = [c for psm in psms if psm for c in psm.caveats()]
    if omitted is None:
        db_v = bottleneck(v_barcode(psm_x), v_barcode(psm_y))
        reliable = [v for k, v in db_v.per_degree.items() if k >= 2]
        db_v_verdict = max(reliable) if reliable else 0
        if any(k == 1 for k in db_v.per_degree):
            caveats.append("degree-1 homotopy bars reported but outside the "
                           "proved lower-bound chain")
        v_extra = {"caveated": bool(psm_x.h1_stages or psm_y.h1_stages)}
    else:
        db_v = db_v_verdict = None
        caveats.append(f"dB_V omitted: {omitted}")
        v_extra = {}

    gh2 = None
    if with_gh and isinstance(x, MetricSpace) and isinstance(y, MetricSpace):
        try:
            gh2 = 2 * gh_bruteforce(x, y, cfg.gh_cap)
        except CapExceeded:
            caveats.append(f"gh2 omitted: |X|*|Y| exceeds cap {cfg.gh_cap}")

    verdicts = []
    for name, lhs, extra in (("dB_H <= 2*d_GH", db_h.sup, {}),
                             ("dB_V(deg>=2) <= 2*d_GH", db_v_verdict, v_extra)):
        checked = {} if gh2 is None or lhs is None else {
            "holds": bool(lhs <= gh2), "lhs": num_to_json(lhs), "rhs": num_to_json(gh2)}
        verdicts.append({"name": name, "holds": None, **checked, **extra})
    return BoundsReport(db_h, db_v, db_v_verdict, gh2, verdicts, caveats)
