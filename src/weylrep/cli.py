"""Verification sweeps and table/report emission.

One binary with subcommands.  A sweep executes the enabled checks over a
grid of root systems and writes a deterministic JSON report: identical
config and seed give byte-identical output, and every failed check
carries a replayable witness.  Exit codes: 0 all-pass, 1 verdict
failure, 2 usage or config errors.  The ``cocycle`` and ``fixer``
subcommands are presets of ``sweep``.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from functools import cached_property

from . import affine, chevalley, fixer, tits, weyl
from .rootsys import root_system, rootsys_to_json

REPORT_SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


def _sysname(sysdef) -> str:
    return f"{sysdef['type']}{sysdef['rank']}"


class SystemContext:
    """One configured system and the derived tables its checks share.

    Each table is built the first time a check asks for it and then kept
    for the system's other checks; building one draws no random numbers.
    ``run_sweep`` sets ``lattices``, the fixer's lattices, and ``fixture``,
    the constants fixture's (Jacobi failure, scalars), before any check runs.
    """

    def __init__(self, sysdef: dict):
        self.name = _sysname(sysdef)
        self.rs = root_system(sysdef["type"], sysdef["rank"])
        self.order = weyl.group_order(self.rs)
        self.lattices, self.fixture = (), None

    @cached_property
    def group(self) -> list:
        """Every element of W, for the exhaustive pair sweeps."""
        return weyl.enumerate_group(self.rs)

    @cached_property
    def omegas(self) -> tuple:
        """The alcove-stabilizer group of P^vee, the adjoint lattice."""
        return affine.omega_group(self.rs)

    @cached_property
    def scalars(self) -> chevalley.ScalarTable:
        """Conjugation scalars of the default structure constants."""
        return chevalley.scalar_table(chevalley.build_constants(self.rs))


def _sweep_first_difference(ctx, cfg, rng):
    rs = ctx.rs
    # one element at a time: each is dropped once checked, so W is never held
    if ctx.order <= cfg["budget"]:
        elements, mode = weyl.iter_group(rs), "exhaustive"
    else:
        elements = (weyl.random_element(rs, rng) for _ in range(cfg["samples"]))
        mode = "sampled"
    check, nroots = weyl.check_first_difference, rs.nroots
    count = 0
    for w in elements:
        for a in range(nroots):
            if not check(w, a):
                return mode, count + a + 1, {"word": list(w.word), "root": list(rs.roots[a])}
        count += nroots
        if not weyl.check_flip_symmetry(w):
            return mode, count, {"word": list(w.word), "failure": "flip symmetry"}
    return mode, count, None


def _sweep_cocycle(ctx, cfg, rng):
    rs = ctx.rs
    if ctx.order * ctx.order <= cfg["pair_budget"]:
        mode = "exhaustive"
        group = ctx.group
        pairs = ((u, v) for u in group for v in group)
        total = ctx.order * ctx.order
    else:
        mode = "sampled"
        pool = [weyl.random_element(rs, rng) for _ in range(max(64, min(1024, cfg["samples"])))]
        pairs = ((rng.choice(pool), rng.choice(pool))
                 for _ in range(cfg["samples"]))
        total = cfg["samples"]
    count = 0
    for u, v in pairs:
        count += 1
        if not tits.check_cocycle_formula(u, v):
            return mode, count, {"u_word": list(u.word), "v_word": list(v.word)}
    if count != total:
        raise AssertionError("pair sweep drifted from its plan")
    return mode, count, None


def _eligible_omegas(ctx, min_order):
    return [om for om in ctx.omegas if om.order() >= min_order]


def _sweep_second_difference(ctx, cfg, rng):
    rs = ctx.rs
    count = 0
    for om in _eligible_omegas(ctx, 2):
        try:  # both assert the R/S structure they derive
            if not affine.check_flip_sum_even(om):
                return "exhaustive", count, {"class_node": om.class_node,
                                             "failure": "parity"}
            datum = om.partition if om.order() >= 3 else None
        except AssertionError as exc:
            return "exhaustive", count, {"class_node": om.class_node,
                                         "failure": str(exc)}
        count += 1
        if datum is not None:
            for a in range(rs.nroots):
                count += 1
                if not affine.check_second_difference(datum, a):
                    return "exhaustive", count, {"class_node": om.class_node,
                                                 "root": list(rs.roots[a])}
    return "exhaustive", count, None


def _sweep_fibers(ctx, cfg, rng):
    rs = ctx.rs
    count = 0
    for om in _eligible_omegas(ctx, 3):
        try:
            datum = om.partition  # asserts constant fibers
        except AssertionError as exc:
            return "exhaustive", count, {"class_node": om.class_node,
                                         "failure": str(exc)}
        a, b, c = datum.fiber_sizes
        count += 1
        if a != c or a + b + c != rs.coxeter_number:
            return "exhaustive", count, {"class_node": om.class_node,
                                         "fiber_sizes": [a, b, c]}
    return "exhaustive", count, None


def _sweep_characters(ctx, cfg, rng):
    if ctx.fixture is None:
        scalars = ctx.scalars
    else:
        bad, scalars = ctx.fixture
        if bad is not None:
            return "exhaustive", 1, {"failure": "jacobi",
                                     "triple": [ctx.rs.root_name(k) for k in bad]}
    rel = chevalley.highest_root_relation(ctx.rs)
    count = 0
    for om in _eligible_omegas(ctx, 1):
        count += 1
        if chevalley.evaluate_character(scalars, rel, om.sigma) != 1:
            return "exhaustive", count, {"class_node": om.class_node}
    return "exhaustive", count, None


def _select_lattices(ctx, cfg):
    lats = affine.all_lattices(ctx.rs)
    wanted = cfg["lattices"]
    if wanted == "all":
        return lats
    names = [lat.name for lat in lats]
    unknown = [x for x in wanted if x not in names]
    if unknown or not wanted:
        raise ConfigError(f"no lattice of {ctx.name} matches {unknown or wanted}; "
                          f"available: {names}")
    return [lat for lat in lats if lat.name in wanted]


def _load_fixture(contexts, path):
    """Read the constants fixture once and attach it to the systems it names."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        named = [ctx for ctx in contexts if isinstance(doc, dict)
                 and doc.get("type") == ctx.rs.datum.type_label
                 and doc.get("rank") == ctx.rs.rank]
        if not named:
            raise ValueError("fixture names no configured system")
        table = chevalley.table_from_json(named[0].rs, doc)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        raise ConfigError(f"bad constants fixture: {exc}") from exc
    bad = chevalley.validate_jacobi(table)
    fixture = (bad, None if bad is not None else chevalley.scalar_table(table))
    for ctx in named:
        ctx.fixture = fixture


def _sweep_fixer(ctx, cfg, rng):
    rs = ctx.rs
    count = 0
    for lat in ctx.lattices:
        for om in affine.lattice_classes(lat, ctx.omegas):
            signs = fixer.node_signs(rs, om, ctx.scalars)
            for q in cfg["qs"]:
                units = fixer.UnitGroup(q - 1)
                for _ in range(cfg["lambda_samples"]):
                    lam = fixer.random_functional(rng, units, rs.rank)
                    count += 1
                    try:
                        system = fixer.build_system(rs, lat, om, lam, ctx.scalars,
                                                    units, signs)
                    except fixer.InconsistentSystemError as exc:
                        failure = {"failure": str(exc)}
                    else:
                        if fixer.solve(system) is not None:
                            continue
                        failure = {}
                    return "sampled", count, {
                        "lattice": lat.name, "class_node": om.class_node,
                        "q": q, "lambda": list(lam.values), **failure}
    return "sampled", count, None


# The checks a sweep runs on each system, in report order.  Each returns
# (mode, count, witness), and the witness is None on a pass.
CHECKS = {
    "first_difference": _sweep_first_difference,
    "cocycle": _sweep_cocycle,
    "second_difference": _sweep_second_difference,
    "fibers": _sweep_fibers,
    "characters": _sweep_characters,
    "fixer": _sweep_fixer,
}

DEFAULT_CONFIG = {
    "seed": 20240901,
    "budget": 10_000,       # exhaustive element enumeration cap on |W|
    "pair_budget": 10_000,  # exhaustive pair sweeps cap on |W|^2
    "samples": 2000,        # sampled pairs/elements beyond the budgets
    "lambda_samples": 20,
    "qs": [5, 7, 13],
    "lattices": "all",
    "systems": [{"type": "A", "rank": 1}, {"type": "A", "rank": 2},
                {"type": "A", "rank": 3}],
    "checks": dict.fromkeys(CHECKS, True),
    "tables": [],
    "constants_fixture": None,
}

def load_config(path: str | None, overrides: dict | None = None) -> dict:
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                user = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError("config must be a JSON object")
        for key, val in user.items():
            if key == "checks":
                if not isinstance(val, dict):
                    raise ConfigError("checks must be a JSON object")
                unknown = sorted(set(val) - set(CHECKS))
                if unknown:
                    raise ConfigError(f"unknown checks {unknown}; "
                                      f"known checks: {sorted(CHECKS)}")
                for name, on in val.items():
                    if type(on) is not bool:
                        raise ConfigError(f"checks entry {name!r} must be true "
                                          f"or false, got {on!r}")
                cfg["checks"].update(val)
            elif key in cfg:
                cfg[key] = val
            else:
                raise ConfigError(f"unknown config key {key!r}")
    if overrides:
        for key, val in overrides.items():
            if val is not None:
                cfg[key] = val
    _validate(cfg)
    return cfg


def _validate(cfg: dict) -> None:
    for key in ("systems", "tables"):
        defs = cfg[key]
        if not isinstance(defs, list) or not all(
                isinstance(d, dict) and isinstance(d.get("type"), str)
                and type(d.get("rank")) is int for d in defs):
            raise ConfigError(f"{key} must be a list of objects with a string "
                              f"type and an int rank, got {defs!r}")
        allowed = ("type", "rank", "node") if key == "tables" else ("type", "rank")
        for d in defs:
            unknown = [k for k in d if k not in allowed]
            if unknown:
                raise ConfigError(f"unknown key {unknown[0]!r} in {key} entry {d!r}")
            if type(d.get("node", 0)) is not int:
                raise ConfigError(f"tables node must be an int, got {d['node']!r}")
    names = [_sysname(d) for d in cfg["tables"]]
    for name in names:
        if names.count(name) > 1:
            raise ConfigError(f"tables names {name} more than once; "
                              f"give each system one entry")
    for key in ("seed", "budget", "pair_budget", "samples", "lambda_samples"):
        val = cfg[key]
        if type(val) is not int or val < 0:
            raise ConfigError(f"{key} must be a non-negative int, got {val!r}")
    lattices = cfg["lattices"]
    if lattices != "all" and not (isinstance(lattices, list) and
                                  all(isinstance(x, str) for x in lattices)):
        raise ConfigError(f'lattices must be "all" or a list of lattice names, '
                          f"got {lattices!r}")
    qs = cfg["qs"]
    if not isinstance(qs, list) or not all(map(_is_prime_power, qs)):
        raise ConfigError(f"qs must be a list of prime powers >= 2, got {qs!r}")
    fixture = cfg["constants_fixture"]
    if fixture is not None and not (isinstance(fixture, str) and fixture):
        raise ConfigError(f"constants_fixture must be null or a non-empty path, "
                          f"got {fixture!r}")


def _is_prime_power(q) -> bool:
    """True iff q is p^k for a prime p and k >= 1 (a finite field size)."""
    if type(q) is not int or q < 2:
        return False
    p = next((p for p in range(2, math.isqrt(q) + 1) if q % p == 0), q)
    while q % p == 0:
        q //= p
    return q == 1


def run_sweep(cfg: dict) -> dict:
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "seed": cfg["seed"],
        "config": {k: v for k, v in sorted(cfg.items()) if k != "out"},
        "checks": [],
        "tables": {},
    }
    enabled = [name for name in CHECKS if cfg["checks"].get(name)]
    # lattice names and the constants fixture are checked before any check runs
    contexts = [SystemContext(sysdef) for sysdef in cfg["systems"]]
    if "fixer" in enabled:
        for ctx in contexts:
            ctx.lattices = _select_lattices(ctx, cfg)
    if "characters" in enabled and cfg["constants_fixture"] is not None:
        _load_fixture(contexts, cfg["constants_fixture"])
    # a swept system that also has a table keeps its context for it
    tabled = {_sysname(tabdef): None for tabdef in cfg["tables"]}
    while contexts:
        ctx = contexts.pop(0)  # so a finished system's tables can be freed
        for name in enabled:
            rng = random.Random(f"{cfg['seed']}/{ctx.name}/{name}")
            mode, count, witness = CHECKS[name](ctx, cfg, rng)
            report["checks"].append({"name": name, "system": ctx.name, "mode": mode,
                                     "count": count, "passed": witness is None,
                                     "counterexample": witness})
        if ctx.name in tabled:
            tabled[ctx.name] = ctx
    for tabdef in cfg["tables"]:
        name = _sysname(tabdef)
        ctx = tabled[name] or SystemContext(tabdef)
        tabled[name] = ctx
        report["tables"][name] = emit_table_doc(ctx.rs, tabdef.get("node"),
                                                ctx.omegas)
    report["status"] = "pass" if all(c["passed"] for c in report["checks"]) \
        else "fail"
    return report


def validate_report(report: dict) -> None:
    """Minimal structural validation of the report schema."""
    if report.get("schema_version") != REPORT_SCHEMA_VERSION:
        raise ValueError("unknown report schema version")
    for key in ("seed", "config", "checks", "tables", "status"):
        if key not in report:
            raise ValueError(f"report missing {key!r}")
    for c in report["checks"]:
        for key in ("name", "system", "mode", "count", "passed", "counterexample"):
            if key not in c:
                raise ValueError(f"check entry missing {key!r}")
        if not c["passed"] and c["counterexample"] is None:
            raise ValueError("failed check lacks a witness")


# -- tables -------------------------------------------------------------


def cocycle_table_doc(rs, budget: int) -> dict:
    """Full (u, v) -> torus-bits table for a small group, words as keys."""
    order = weyl.group_order(rs)
    if order * order > budget:
        raise ConfigError(f"|W|^2 = {order * order} exceeds budget {budget}; "
                          f"dump only supports exhaustive groups")
    group = weyl.enumerate_group(rs)
    entries = []
    for u in group:
        for v in group:
            bits = tits.cocycle(u, v)
            if bits:
                entries.append([list(u.word), list(v.word),
                                [bits >> i & 1 for i in range(rs.rank)]])
    return {
        "system": f"{rs.datum.type_label}{rs.rank}",
        "group_order": order,
        "nontrivial": sorted(entries),
        "trivial_pairs": order * order - len(entries),
    }


def emit_table_doc(rs, node=None, group=None) -> dict:
    """The additive-triple table: rows are the (1,0) part, columns the
    (0,1) part, cells the sums landing in the (1,1) part.  ``group`` is
    the system's alcove-stabilizer group, built here when not given."""
    if group is None:
        group = affine.omega_group(rs)
    cands = [om for om in group if om.order() >= 3 and
             (node is None or om.class_node == node)]
    if not cands:
        raise ConfigError(
            f"{rs.datum.type_label}{rs.rank}: no stabilizer projection of "
            f"order >= 3" + (f" with node {node}" if node is not None else ""))
    om = cands[0]
    datum = om.partition
    rows = sorted(datum.parts[2])
    cols = sorted(datum.parts[1])
    bysum = {(b, a): g for a, b, g in datum.triples}
    cells = [[rs.root_name(bysum[(r, c)]) if (r, c) in bysum else None
              for c in cols] for r in rows]
    return {
        "system": f"{rs.datum.type_label}{rs.rank}",
        "class_node": om.class_node,
        "r_root": rs.root_name(datum.r_root),
        "s_root": rs.root_name(datum.s_root),
        "rows": [rs.root_name(k) for k in rows],
        "cols": [rs.root_name(k) for k in cols],
        "cells": cells,
        "fiber_sizes": list(datum.fiber_sizes),
        "coxeter_number": rs.coxeter_number,
    }


def format_table_text(doc: dict) -> str:
    width = max(len(doc["cols"][0]), 6) + 2
    out = [f"{doc['system']}: triples within the coefficient partition "
           f"(class node {doc['class_node']})"]
    header = " " * width + "".join(c.ljust(width) for c in doc["cols"])
    out.append(header)
    for rname, row in zip(doc["rows"], doc["cells"]):
        cells = "".join((c if c else "-").ljust(width) for c in row)
        out.append(rname.ljust(width) + cells)
    a, b, c = doc["fiber_sizes"]
    out.append(f"fiber sizes: ({a}, {b}, {c}); sum {a + b + c} = Coxeter "
               f"number {doc['coxeter_number']}")
    return "\n".join(out) + "\n"


# -- entry points -------------------------------------------------------


def _emit(payload: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            raise ConfigError(f"cannot write {out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(payload)


def _report_text(report: dict) -> str:
    lines = [f"seed {report['seed']}  status {report['status'].upper()}"]
    for c in report["checks"]:
        verdict = "pass" if c["passed"] else "FAIL"
        lines.append(f"  {c['system']:>4}  {c['name']:<18} {c['mode']:<10} "
                     f"n={c['count']:<8} {verdict}")
        if not c["passed"]:
            lines.append(f"        witness: {json.dumps(c['counterexample'], sort_keys=True)}")
    for name, doc in report["tables"].items():
        lines.append("")
        lines.append(format_table_text(doc).rstrip("\n"))
    return "\n".join(lines) + "\n"


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="weylrep",
        description="verification sweeps for Weyl-group representative combinatorics")
    sub = parser.add_subparsers(dest="command", required=True)

    # sweep and its presets share one report path; unset values come from the config
    report_opts = argparse.ArgumentParser(add_help=False)
    report_opts.add_argument("--seed", type=int)
    report_opts.add_argument("--format", choices=("json", "text"), default="json")
    report_opts.add_argument("--out")

    p_sweep = sub.add_parser("sweep", parents=[report_opts],
                             help="run the configured checks")
    p_sweep.add_argument("--config", help="JSON config file")
    p_sweep.add_argument("--type", dest="type_label")
    p_sweep.add_argument("--rank", type=int)
    p_sweep.add_argument("--budget", type=int)

    p_table = sub.add_parser("table", help="emit an additive-triple table")
    p_table.add_argument("--type", dest="type_label", required=True)
    p_table.add_argument("--rank", type=int, required=True)
    p_table.add_argument("--node", type=int)
    p_table.add_argument("--format", choices=("json", "text"), default="text")
    p_table.add_argument("--out")

    p_coc = sub.add_parser("cocycle", parents=[report_opts],
                           help="cocycle-formula sweep for one system")
    p_coc.add_argument("--type", dest="type_label", required=True)
    p_coc.add_argument("--rank", type=int, required=True)
    p_coc.add_argument("--samples", type=int)
    p_coc.add_argument("--budget", type=int, default=DEFAULT_CONFIG["pair_budget"])
    p_coc.add_argument("--dump", action="store_true",
                       help="emit the full (u, v) -> bits table instead of a sweep")

    p_fix = sub.add_parser("fixer", parents=[report_opts],
                           help="solvability sweep for one system")
    p_fix.add_argument("--type", dest="type_label", required=True)
    p_fix.add_argument("--rank", type=int, required=True)
    p_fix.add_argument("--lattice", help="restrict to one lattice by name")
    p_fix.add_argument("--q", type=int, action="append")
    p_fix.add_argument("--samples", type=int)

    p_dump = sub.add_parser("dump-rootsys", help="canonical root-system document")
    p_dump.add_argument("--type", dest="type_label", required=True)
    p_dump.add_argument("--rank", type=int, required=True)
    p_dump.add_argument("--out")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _sweep_config(args) -> dict:
    """The config that ``sweep``, or its ``cocycle`` or ``fixer`` preset, runs."""
    if args.command == "sweep":
        if (args.type_label is None) != (args.rank is None):
            raise ConfigError("--type and --rank must be given together")
        systems = ([{"type": args.type_label, "rank": args.rank}]
                   if args.type_label else None)
        return load_config(args.config, {"seed": args.seed, "budget": args.budget,
                                         "systems": systems})
    overrides = {"seed": args.seed,
                 "systems": [{"type": args.type_label, "rank": args.rank}]}
    if args.command == "cocycle":
        overrides.update(samples=args.samples, pair_budget=args.budget,
                         checks={"cocycle": True})
    else:
        overrides.update(qs=args.q, lambda_samples=args.samples,
                         checks={"fixer": True},
                         lattices=[args.lattice] if args.lattice else None)
    return load_config(None, overrides)


def _dispatch(args) -> int:
    if args.command == "table":
        rs = root_system(args.type_label, args.rank)
        doc = emit_table_doc(rs, args.node)
        payload = _json_dumps(doc) if args.format == "json" \
            else format_table_text(doc)
        _emit(payload, args.out)
        return 0

    if args.command == "dump-rootsys":
        rs = root_system(args.type_label, args.rank)
        _emit(_json_dumps(rootsys_to_json(rs)), args.out)
        return 0

    if args.command == "cocycle" and args.dump:
        _emit(_json_dumps(cocycle_table_doc(
            root_system(args.type_label, args.rank), args.budget)),
            args.out)
        return 0

    report = run_sweep(_sweep_config(args))
    validate_report(report)
    payload = _json_dumps(report) if args.format == "json" \
        else _report_text(report)
    _emit(payload, args.out)
    return 0 if report["status"] == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
