"""Golden dump digests.

`psmm minimal-model` on a Sullivan algebra with a nonzero differential
and `psmm model` on a persistent-CDGA input both run the cohomology
engine on CDGAs rather than on simplicial stages.  The sha256 of each
dump was recorded before that engine was shared with the simplicial
side; any change to a representative, a class coordinate or a generator
shows up here as a changed digest.

Two `psmm model` dumps of metric inputs, the 20-point geodesic circle
at max degree 4 and 12 random planar points at max degree 3, were
recorded before stages with equal core data shared one minimal model;
both have many such stages.

The 5-point bowtie, two triangles sharing vertex 0, was recorded while
cone stages were still found by a general apex search.  Its stage 1 is
a cone whose every top simplex holds the apex, where that search skipped
the top degree's elimination that plain elimination now runs.

The same circle and planar points at max degree 2 and max_dim 4 were
recorded while every stage past the enclosing radius still held all its
simplices; a model that reads only degrees below max_dim now enumerates
none of them.

The 10-point geodesic circle at max degree 2 and max_dim 2 reads every
degree it enumerates, so no stage is cut past the radius and its top
degrees hold hundreds of monomials; it was recorded while morphisms
were still applied as dense matrices.
"""

import hashlib
import json
import math
import random

import pytest

from psmm.cli import main

# Heisenberg nilmanifold (dz = xy), tensor the sphere S^2 (db = a^2),
# tensor a contractible pair (du = w): non-minimal, with degree-1
# iterations and a kernel to kill in degree 4.
NON_MINIMAL = {
    "generators": [
        {"name": "x", "degree": 1}, {"name": "y", "degree": 1},
        {"name": "z", "degree": 1}, {"name": "a", "degree": 2},
        {"name": "b", "degree": 3}, {"name": "u", "degree": 3},
        {"name": "w", "degree": 4},
    ],
    "differential": {
        "z": [{"coeff": 1, "monomial": ["x", "y"]}],
        "b": [{"coeff": 1, "monomial": ["a", "a"]}],
        "u": [{"coeff": 1, "monomial": ["w"]}],
    },
    "truncation": 6,
}

# Three stages over the grid (1, 2): the algebra above, the S^2 model
# and the free algebra on one degree-2 class, with scaling maps.
PERSISTENT = {
    "grid": [1, 2],
    "stages": [
        NON_MINIMAL,
        {
            "generators": [{"name": "c", "degree": 2}, {"name": "h", "degree": 3}],
            "differential": {"h": [{"coeff": 1, "monomial": ["c", "c"]}]},
            "truncation": 6,
        },
        {"generators": [{"name": "e", "degree": 2}], "differential": {}, "truncation": 6},
    ],
    "maps": [
        {"images": {"c": [{"coeff": 2, "monomial": ["a"]}],
                    "h": [{"coeff": 4, "monomial": ["b"]}]}},
        {"images": {"e": [{"coeff": "1/3", "monomial": ["c"]}]}},
    ],
}

MINIMAL_MODEL_SHA256 = "c00584dab272d1c4e9c2ad34aa20eaa3edba1be21f776a2f737fdcda5e4d003c"
PERSISTENT_MODEL_SHA256 = "2b7f66f6d3781301c007f49d147b48f7e08e43de727337fea5137fda2501a191"
CIRCLE20_MODEL_SHA256 = "55b08d8af8c6d43cd27fecdf57a069356fd3290221a2427ac1cfa42670a64c7d"
PLANAR12_MODEL_SHA256 = "a8cb111e18b09796d4e29e510f4b5aac5905cb9b5644d1d0999fb45b8d6d9666"
CIRCLE20_DEG2_DIM4_SHA256 = "5be47f1daaefeb3583bd763d39d95f2101a3c848a1195b56fb49ca0f352109a2"
PLANAR12_DEG2_DIM4_SHA256 = "0133e9265c98978515f365816cd5a09ed8f46421630f9221641a33e4d064a2e3"
CIRCLE10_DEG2_NO_CUT_SHA256 = "544dfabbf9836fcbeb4625a418d6ab4a85cdea49ae083ca19c78ad30d1488540"
BOWTIE_MODEL_SHA256 = {
    2: "54e761551c914283e7e1860d4b62469c5e1f5e055dd5fb066b3d199b1bb2bb57",
    3: "5968658eedd825a30b9b07d5bd74b43fbe9279ea5602184eac76dca30cf51c67",
}


def dump_digest(tmp_path, command, data, max_degree=4, max_dim=None):
    inp = tmp_path / "input.json"
    inp.write_text(json.dumps(data))
    out = tmp_path / "dump.json"
    dim_args = [] if max_dim is None else ["--max-dim", str(max_dim)]
    assert main([command, "--input", str(inp), "--max-degree", str(max_degree),
                 *dim_args, "-o", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_minimal_model_dump_digest(tmp_path, capsys):
    assert dump_digest(tmp_path, "minimal-model", NON_MINIMAL) == MINIMAL_MODEL_SHA256


def test_persistent_cdga_model_dump_digest(tmp_path, capsys):
    assert dump_digest(tmp_path, "model", PERSISTENT) == PERSISTENT_MODEL_SHA256


def geodesic_circle(n):
    return {"distance_matrix": [[math.pi * min(abs(i - j), n - abs(i - j)) / (n / 2)
                                 for j in range(n)] for i in range(n)]}


def random_planar(n):
    rng = random.Random(0)
    return {"points": [[rng.random(), rng.random()] for _ in range(n)]}


def test_geodesic_circle_model_dump_digest(tmp_path, capsys):
    digest = dump_digest(tmp_path, "model", geodesic_circle(20))
    assert digest == CIRCLE20_MODEL_SHA256


def test_random_planar_model_dump_digest(tmp_path, capsys):
    digest = dump_digest(tmp_path, "model", random_planar(12), max_degree=3)
    assert digest == PLANAR12_MODEL_SHA256


def test_geodesic_circle_cut_past_radius_dump_digest(tmp_path, capsys):
    digest = dump_digest(tmp_path, "model", geodesic_circle(20), max_degree=2, max_dim=4)
    assert digest == CIRCLE20_DEG2_DIM4_SHA256


def test_random_planar_cut_past_radius_dump_digest(tmp_path, capsys):
    digest = dump_digest(tmp_path, "model", random_planar(12), max_degree=2, max_dim=4)
    assert digest == PLANAR12_DEG2_DIM4_SHA256


def test_geodesic_circle_no_cut_dump_digest(tmp_path, capsys):
    digest = dump_digest(tmp_path, "model", geodesic_circle(10), max_degree=2, max_dim=2)
    assert digest == CIRCLE10_DEG2_NO_CUT_SHA256


@pytest.mark.parametrize("max_degree", [2, 3])
def test_bowtie_cone_stage_dump_digest(tmp_path, capsys, max_degree):
    rows = [[0, 1, 1, 1, 1], [1, 0, 1, 2, 2], [1, 1, 0, 2, 2], [1, 2, 2, 0, 1], [1, 2, 2, 1, 0]]
    digest = dump_digest(tmp_path, "model", {"distance_matrix": rows},
                         max_degree=max_degree, max_dim=2)
    assert digest == BOWTIE_MODEL_SHA256[max_degree]
