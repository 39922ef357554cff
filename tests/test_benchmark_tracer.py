"""The program contract of the benchmark's tracer (``perfbench/tracer.py``).

The tracer wraps the program from outside: ``install()`` reads the caches
of ``dynamics.fix_set``, ``per_set`` and ``fix_interior``, wraps the space
classes by name, and its hooks bind the parameters ``x``, ``y``, ``sys``,
``grid`` and ``mat`` of ``multiply``, ``gelfand_norm``, ``cstar_norm`` and
``operator_norm`` (``cstar_norm``'s also imports ``periodic_orbit_reps``
from ``dyncross.gns``).  A traced benchmark run fails when the program
drops any of these, so one traced call of each runs here, in a fresh
process, since ``install()`` rebinds the program's functions for good.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

TRACED = """
import json, random, sys
sys.path[:0] = [{perfbench!r}, {src!r}]
from tracer import Tracer

tracer = Tracer()
tracer.install()
from dyncross import algebra, characters, gns
from dyncross.fixtures import FIXTURES
from dyncross.sampling import random_element

system = FIXTURES["cycle3"]()
x = random_element(system.space, random.Random(5), 2)
grid = characters.CircleGrid(16)
tracer.enabled = True
product = algebra.multiply(x, x)
gns.cstar_norm(system, product, grid)
characters.gelfand_norm(system, algebra.identity(system.space), grid)
gns.operator_norm([[1.0, 2.0], [0.0, 1.0]])
tracer.enabled = False
print(json.dumps(tracer.metrics()))
"""


def test_traced_calls_and_metrics():
    code = TRACED.format(perfbench=str(ROOT / "perfbench"), src=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    metrics = json.loads(done.stdout.strip().splitlines()[-1])
    assert metrics["algebra.multiply.calls"] >= 1
    assert metrics["algebra.multiply.term_pairs"] >= 1
    assert metrics["gns.operator_norm.calls"] >= 1
    assert metrics["gns.operator_norm.dim_sq"] >= 4
    assert metrics["gns.cstar_norm.batch_bytes"] > 0
    assert metrics["characters.gelfand_norm.grid_points"] > 0
    assert all(metrics[f"{layer}.raised"] == 0
               for layer in ("space", "dynamics", "algebra", "characters", "gns"))
