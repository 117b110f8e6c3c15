"""Golden dump digests for the two CDGA-side CLI paths.

`psmm minimal-model` on a Sullivan algebra with a nonzero differential
and `psmm model` on a persistent-CDGA input both run the cohomology
engine on CDGAs rather than on simplicial stages.  The sha256 of each
dump was recorded before that engine was shared with the simplicial
side; any change to a representative, a class coordinate or a generator
shows up here as a changed digest.
"""

import hashlib
import json

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


def dump_digest(tmp_path, command, data):
    inp = tmp_path / "input.json"
    inp.write_text(json.dumps(data))
    out = tmp_path / "dump.json"
    assert main([command, "--input", str(inp), "--max-degree", "4", "-o", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_minimal_model_dump_digest(tmp_path, capsys):
    assert dump_digest(tmp_path, "minimal-model", NON_MINIMAL) == MINIMAL_MODEL_SHA256


def test_persistent_cdga_model_dump_digest(tmp_path, capsys):
    assert dump_digest(tmp_path, "model", PERSISTENT) == PERSISTENT_MODEL_SHA256
