"""The benchmark's workloads: a sweep config per name and seed, and the
``(system, check, mode, count)`` rows each report must hold.

The counts do not depend on the seed: sampled checks draw a fixed number
of pairs or functionals, and the rest are exhaustive.
"""

from __future__ import annotations

from dataclasses import dataclass

CHECKS = ("first_difference", "cocycle", "second_difference", "fibers",
          "characters", "fixer")


def _checks(*on: str) -> dict:
    return {name: name in on for name in CHECKS}


def _system(name: str) -> dict:
    return {"type": name[0], "rank": int(name[1:])}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict        # a sweep config without its seed
    pinned: tuple       # (system, check, mode, count) per report entry, in order

    def make_config(self, seed: int) -> dict:
        return {**self.config, "seed": seed}


# (second_difference, fibers, characters, fixer) counts per system
_LATTICE_COUNTS = {
    "A5": (125, 4, 6, 720), "A7": (343, 6, 8, 900), "B4": (1, 0, 2, 180),
    "C4": (1, 0, 2, 180), "D4": (3, 0, 4, 660), "D6": (3, 0, 4, 660),
    "D7": (171, 2, 4, 420), "E6": (146, 2, 3, 240), "E7": (1, 0, 2, 180),
    "E8": (0, 0, 1, 60), "F4": (0, 0, 1, 60), "G2": (0, 0, 1, 60),
}
_LATTICE_CHECKS = (("second_difference", "exhaustive"), ("fibers", "exhaustive"),
                   ("characters", "exhaustive"), ("fixer", "sampled"))

WORKLOADS = {wl.name: wl for wl in (
    Workload(
        name="cocycle-e7",
        why="sampled pair path: tits multiply/invert/cocycle and the "
            "random_element pool; no chevalley, affine or fixer work",
        config={"systems": [_system("E7")], "samples": 3000,
                "checks": _checks("cocycle")},
        pinned=(("E7", "cocycle", "sampled", 3000),),
    ),
    Workload(
        name="firstdiff-d6",
        why="exhaustive element path: BFS enumerate_group over all 23040 "
            "elements of W(D6), then check_first_difference; no tits work",
        config={"systems": [_system("D6")], "budget": 23040,
                "checks": _checks("first_difference")},
        pinned=(("D6", "first_difference", "exhaustive", 1382400),),
    ),
    Workload(
        name="lattices-all",
        why="every cocharacter lattice of 12 types: chevalley tables, "
            "omega groups, 4320 fixer solves and intmat; no tits or element sweeps",
        config={"systems": [_system(s) for s in _LATTICE_COUNTS],
                "checks": _checks("second_difference", "fibers", "characters",
                                  "fixer"),
                "tables": [{**_system("D5"), "node": 5}, _system("E6")]},
        pinned=tuple((system, check, mode, count)
                     for system, counts in _LATTICE_COUNTS.items()
                     for (check, mode), count in zip(_LATTICE_CHECKS, counts)),
    ),
)}
