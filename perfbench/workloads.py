"""The benchmark's workloads: one `hyperlab run` config each.

Between them the three configs enable all eight pipelines, and each one
makes a different set of layers carry the run:

* ``cantor-field``: sampling a 2^15-member seed family and growing and
  verifying a depth-9 Cantor tree (eigenfields, linspace, cantor).
  Density, construction and steinhaus are bypassed.
* ``orbit``: the block construction on acceptance criterion 8's three
  targets, then the visit scan of the constructed orbit on the density
  thread pool (construction, density, diophantine's covering scan).
* ``monte-carlo``: Steinhaus draws, first-hit torus scans, the
  non-ergodicity witness and per-sample operator application
  (steinhaus, diophantine, ergodicity, operators).  Cantor and density
  are bypassed.

Each run takes about half a second at full host speed.  Short runs let
a benchmark run hold dozens of repeats, so that some of them fall in
moments when other tenants of the host leave it alone (see run.py).
``small=True`` gives the same pipelines at the self-test's sizes.
README.md gives each layer's share of the traced self time at these
sizes, and why ``cantor-field`` stays at depth 9.
"""

from __future__ import annotations

SHIFT = {"kind": "scaled_backward_shift", "weight": 2.0}

# acceptance criterion 8's targets: half of family members 10, 20 and 30
ORBIT_TARGETS = [
    {"coefficients": [[0.5, 0.0, index]], "radius": 0.5, "reach_power": 1}
    for index in (10, 20, 30)
]

# The invariance pipeline passes when 16 correlated probe-moment gaps all
# stay within 3 standard errors; with no correction for the 16 tests about
# 2% of config seeds fail it (4 of seeds 0-199 at 12,500 trials).  So the
# monte-carlo config keeps the pinned seed 7 instead of the run's seed.
MONTE_CARLO_SEED = 7


def cantor_field(seed: int, small: bool) -> dict:
    return {
        "seed": seed,
        "dimension": 64,
        "operator": SHIFT,
        "family": {"count": 256},
        "pipelines": {
            "cantor": {"depth": 6 if small else 9, "seed_count": 2**12 if small else 2**15}
        },
    }


def orbit(seed: int, small: bool) -> dict:
    return {
        "seed": seed,
        "dimension": 64,
        "operator": SHIFT,
        "family": {"count": 512},
        "pipelines": {
            "construct": {
                "targets": ORBIT_TARGETS,
                "trials": 2000 if small else 20_000,
                "cert_samples": 200 if small else 2_000,
            },
            "density": {"horizon": 20_000 if small else 200_000, "use_construction": True},
        },
    }


def monte_carlo(seed: int, small: bool) -> dict:
    return {
        "seed": MONTE_CARLO_SEED,
        "dimension": 64,
        "operator": SHIFT,
        "family": {"count": 256},
        "pipelines": {
            "khinchine": {"trials": 2000 if small else 20_000},
            "diophantine": {
                "eta": 0.1,
                "angle_count": 2 if small else 3,
                "targets_per_angle": 2,
                "p_max": 10**7,
            },
            "syndetic": {"horizon": 10_000 if small else 100_000},
            "ergodicity": {"N": 10_000 if small else 100_000},
            "invariance": {"trials": 2000 if small else 10_000, "terms": 32},
        },
    }


WORKLOADS = {
    "cantor-field": cantor_field,
    "orbit": orbit,
    "monte-carlo": monte_carlo,
}
