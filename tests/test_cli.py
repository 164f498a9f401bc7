import gc
import json
import random
import sys
import tracemalloc
import weakref
from pathlib import Path

import pytest

from weylrep import affine, chevalley, cli, fixer, intmat, tits, weyl
from weylrep.chevalley import build_constants, table_to_json
from weylrep.cli import (
    ConfigError,
    DEFAULT_CONFIG,
    emit_table_doc,
    format_table_text,
    load_config,
    run_sweep,
    validate_report,
)
from weylrep.rootsys import RootSystem, root_system


@pytest.fixture
def no_pairing_table(monkeypatch):
    """Reading ``RootSystem.pairing`` raises: no check may need the table."""
    def forbidden(rs):
        raise RuntimeError("a check read the pairing table")

    monkeypatch.setattr(RootSystem, "pairing", property(forbidden))


def test_default_sweep_passes_quickly():
    cfg = load_config(None)
    report = run_sweep(cfg)
    validate_report(report)
    assert report["status"] == "pass"
    names = {c["name"] for c in report["checks"]}
    assert names == {"first_difference", "cocycle", "second_difference",
                     "fibers", "characters", "fixer"}


def test_report_determinism(tmp_path):
    cfg = load_config(None)
    cfg["systems"] = [{"type": "B", "rank": 2}]
    one = json.dumps(run_sweep(cfg), sort_keys=True)
    two = json.dumps(run_sweep(cfg), sort_keys=True)
    assert one == two
    cfg2 = dict(cfg, seed=cfg["seed"] + 1)
    assert json.dumps(run_sweep(cfg2), sort_keys=True) != one


def test_config_file_and_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"systems": [{"type": "A", "rank": 2}],
                                "checks": {"fixer": False}}))
    cfg = load_config(str(path))
    assert cfg["systems"] == [{"type": "A", "rank": 2}]
    assert cfg["checks"]["fixer"] is False
    assert cfg["checks"]["cocycle"] is True
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nonsense": 1}))
    with pytest.raises(ConfigError):
        load_config(str(bad))
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))


@pytest.mark.parametrize("checks", [5, ["cocycle"], {"cocylce": True},
                                    {"first_difference": "false"}, {"cocycle": 1},
                                    {"fibers": 0}, {"fixer": None}])
def test_bad_checks_are_config_errors(tmp_path, capsys, checks):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"checks": checks}))
    with pytest.raises(ConfigError):
        load_config(str(path))
    assert cli.main(["sweep", "--config", str(path)]) == 2
    assert "checks" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["false", 1])
def test_non_boolean_check_value_is_named(tmp_path, capsys, value):
    """``"false"`` would be truthy and run the check: only JSON booleans
    turn a check on or off, and the error names the check and the value."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"systems": [{"type": "A", "rank": 2}],
                                "checks": {"first_difference": value}}))
    assert cli.main(["sweep", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'first_difference'" in captured.err and repr(value) in captured.err


def test_cli_exit_codes(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = cli.main(["sweep", "--type", "A", "--rank", "2",
                   "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    validate_report(report)
    assert report["status"] == "pass"
    rc = cli.main(["sweep", "--config", str(tmp_path / "nope.json")])
    assert rc == 2
    capsys.readouterr()


def test_cli_usage_error_is_exit_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--type", "A", "--rank", "x"])
    assert exc.value.code == 2


def _characters_config(tmp_path, fixture, systems=("A2",)):
    """A config running only ``characters``, with the given fixture value."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "systems": [{"type": s[0], "rank": int(s[1:])} for s in systems],
        "checks": dict.fromkeys(cli.CHECKS, False) | {"characters": True},
        "constants_fixture": fixture,
    }))
    return path


@pytest.mark.parametrize("fixture", [2, True, ["x"], 0, "", False])
def test_bad_constants_fixture_value_is_config_error(tmp_path, capsys, fixture):
    path = _characters_config(tmp_path, fixture)
    assert cli.main(["sweep", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "constants_fixture" in captured.err


@pytest.mark.parametrize("doc", [
    [],
    {"type": "A", "rank": 2},
    {"type": "A", "rank": 2, "constants": 5},
    {"type": "A", "rank": 2, "constants": []},
    {"type": "A", "rank": 2, "constants": [[0, 99, 1]]},
])
def test_malformed_constants_fixture_is_config_error(tmp_path, capsys, doc):
    fixture = tmp_path / "constants.json"
    fixture.write_text(json.dumps(doc))
    path = _characters_config(tmp_path, str(fixture))
    assert cli.main(["sweep", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: bad constants fixture")


def test_non_string_convention_id_fixture_is_config_error(tmp_path, capsys):
    doc = dict(table_to_json(build_constants(root_system("A", 2))), convention_id=5)
    fixture = tmp_path / "constants.json"
    fixture.write_text(json.dumps(doc))
    path = _characters_config(tmp_path, str(fixture))
    assert cli.main(["sweep", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad constants fixture: fixture "
                                   "convention_id must be a string")


def test_corrupted_constants_fixture_fails_with_named_triple(tmp_path, capsys):
    rs = root_system("A", 2)
    doc = table_to_json(build_constants(rs))
    doc["constants"][0][2] *= 5
    fixture = tmp_path / "bad_constants.json"
    fixture.write_text(json.dumps(doc))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "systems": [{"type": "A", "rank": 2}],
        "checks": {"first_difference": False, "cocycle": False,
                   "second_difference": False, "fibers": False,
                   "characters": True, "fixer": False},
        "constants_fixture": str(fixture),
    }))
    out = tmp_path / "report.json"
    rc = cli.main(["sweep", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 1
    report = json.loads(out.read_text())
    failed = [c for c in report["checks"] if not c["passed"]]
    assert len(failed) == 1
    assert failed[0]["counterexample"]["failure"] == "jacobi"
    assert len(failed[0]["counterexample"]["triple"]) == 3
    capsys.readouterr()


def test_d5_table_matches_layout():
    rs = root_system("D", 5)
    doc = emit_table_doc(rs, node=5)
    assert doc["fiber_sizes"] == [3, 2, 3]
    assert doc["rows"] == ["00010", "00110", "00111", "01110", "01111", "01211"]
    assert doc["cols"] == ["10000", "11000", "11100", "11101"]
    assert doc["cells"] == [
        [None, None, "11110", "11111"],
        [None, "11110", None, "11211"],
        [None, "11111", "11211", None],
        ["11110", None, None, "12211"],
        ["11111", None, "12211", None],
        ["11211", "12211", None, None],
    ]
    text = format_table_text(doc)
    assert "Coxeter number 8" in text


def test_e6_table():
    rs = root_system("E", 6)
    doc = emit_table_doc(rs, node=6)
    assert doc["fiber_sizes"] == [4, 4, 4]


def test_table_refuses_low_order():
    rs = root_system("B", 3)  # stabilizer group has only an involution
    with pytest.raises(ConfigError):
        emit_table_doc(rs)


def test_cli_table_and_dump(tmp_path, capsys):
    rc = cli.main(["table", "--type", "D", "--rank", "5", "--node", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fiber sizes: (3, 2, 3)" in out
    rc = cli.main(["dump-rootsys", "--type", "A", "--rank", "2"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["coxeter_number"] == 3
    rc = cli.main(["cocycle", "--type", "B", "--rank", "2", "--format", "text"])
    assert rc == 0
    assert "pass" in capsys.readouterr().out
    rc = cli.main(["fixer", "--type", "A", "--rank", "2", "--q", "5",
                   "--samples", "5"])
    assert rc == 0
    capsys.readouterr()


def test_default_config_is_json_round_trippable():
    assert json.loads(json.dumps(DEFAULT_CONFIG)) == DEFAULT_CONFIG


@pytest.mark.usefixtures("no_pairing_table")
def test_golden_default_report(tmp_path):
    """The default sweep's JSON report is pinned byte for byte."""
    out = tmp_path / "report.json"
    assert cli.main(["sweep", "--out", str(out)]) == 0
    golden = Path(__file__).parent / "fixtures" / "golden_default_report.json"
    assert out.read_bytes() == golden.read_bytes()


# a sweep whose E6 entries share the R/S datum with E6's table; D5's table
# is of a system that is not swept, so it builds its own
TABLES_CONFIG = {"systems": [{"type": "E", "rank": 6}],
                 "checks": {**dict.fromkeys(DEFAULT_CONFIG["checks"], False),
                            "second_difference": True, "fibers": True},
                 "tables": [{"type": "D", "rank": 5, "node": 5},
                            {"type": "E", "rank": 6}]}


@pytest.mark.parametrize("golden, argv", [
    ("golden_d5_e6_report.json", ["sweep", "--config", "CONFIG"]),
    ("golden_cocycle_b2_report.json", ["cocycle", "--type", "B", "--rank", "2"]),
    ("golden_fixer_a2_report.json", ["fixer", "--type", "A", "--rank", "2",
                                     "--q", "5", "--samples", "5"]),
    ("golden_cocycle_b2_dump.json", ["cocycle", "--type", "B", "--rank", "2",
                                     "--dump"]),
    ("golden_tables_report.json", ["sweep", "--config", "TABLES"]),
])
@pytest.mark.usefixtures("no_pairing_table")
def test_golden_reports(tmp_path, golden, argv):
    """A D5+E6 all-checks sweep, an E6 sweep with D5 and E6 tables, the
    cocycle and fixer presets, and the B2 cocycle table dump, byte for byte."""
    configs = {"CONFIG": {"systems": [{"type": "D", "rank": 5},
                                      {"type": "E", "rank": 6}]},
               "TABLES": TABLES_CONFIG}
    for name, doc in configs.items():
        (tmp_path / name).write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    argv = [str(tmp_path / arg) if arg in configs else arg for arg in argv]
    assert cli.main(argv + ["--out", str(out)]) == 0
    path = Path(__file__).parent / "fixtures" / golden
    assert out.read_bytes() == path.read_bytes()


def test_omega_group_failure_is_not_a_pass(monkeypatch):
    real = affine.omega_group

    def broken(rs):
        if (rs.datum.type_label, rs.rank) == ("D", 5):
            raise RuntimeError("omega_group broke")
        return real(rs)

    monkeypatch.setattr(affine, "omega_group", broken)
    cfg = load_config(None)
    cfg["systems"] = [{"type": "D", "rank": 5}]
    cfg["checks"] = {"second_difference": True, "fibers": True,
                     "characters": True}
    try:
        report = run_sweep(cfg)
    except RuntimeError as exc:
        assert "omega_group broke" in str(exc)
    else:
        assert report["status"] != "pass"


def test_rank_without_type_is_config_error(capsys):
    assert cli.main(["sweep", "--rank", "3"]) == 2
    assert "--type" in capsys.readouterr().err


@pytest.mark.parametrize("q", [6, 1, 0, 12, 2.0, "5"])
def test_non_prime_power_qs_rejected(tmp_path, capsys, q):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"qs": [5, q]}))
    with pytest.raises(ConfigError):
        load_config(str(path))
    assert cli.main(["sweep", "--config", str(path)]) == 2
    assert "qs" in capsys.readouterr().err
    if isinstance(q, int):
        assert cli.main(["fixer", "--type", "A", "--rank", "1",
                         "--q", str(q)]) == 2
        assert "qs" in capsys.readouterr().err


def test_qs_not_a_list_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"qs": 5}))
    with pytest.raises(ConfigError):
        load_config(str(path))


@pytest.mark.parametrize("q", [2, 4, 8, 9, 25, 27])
def test_prime_power_qs_accepted(tmp_path, capsys, q):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"qs": [q]}))
    assert load_config(str(path))["qs"] == [q]
    assert cli.main(["fixer", "--type", "A", "--rank", "1", "--q", str(q),
                     "--samples", "2"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("user", [
    {"systems": 5},
    {"systems": [5]},
    {"systems": [{"type": "A", "rank": "3"}]},
    {"systems": [{"type": 1, "rank": 3}]},
    {"systems": [{"type": "A", "rank": True}]},
    {"tables": [{"type": "A"}]},
    {"budget": None},
    {"systems": [{"type": "E", "rank": 6}], "samples": "x"},
    {"seed": True},
    {"pair_budget": -1},
    {"lambda_samples": 2.5},
    {"lattices": "SO"},
    {"lattices": [1]},
    {"lattices": 5},
])
def test_bad_config_types_are_config_errors(tmp_path, capsys, user):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(user))
    with pytest.raises(ConfigError):
        load_config(str(path))
    assert cli.main(["sweep", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("user, named", [
    ({"systems": [{"type": "A", "rank": 3, "rnak": 3}]}, "'rnak'"),
    ({"systems": [{"type": "D", "rank": 5, "node": 5}]}, "'node'"),
    ({"tables": [{"type": "D", "rank": 5, "nod": 5}]}, "'nod'"),
    ({"tables": [{"type": "D", "rank": 5, "node": "5"}]}, "'5'"),
    ({"tables": [{"type": "A", "rank": 5, "node": True}]}, "True"),
    ({"tables": [{"type": "D", "rank": 5, "node": None}]}, "None"),
    ({"tables": [{"type": "D", "rank": 5, "node": 4},
                 {"type": "D", "rank": 5, "node": 5}]}, "D5"),
    ({"tables": [{"type": "A", "rank": 3}, {"type": "A", "rank": 3}]}, "A3"),
])
def test_bad_entry_keys_are_config_errors(tmp_path, capsys, user, named):
    """A system entry holds only type and rank, a table entry also an int
    node, and the report holds one table per system, so a system listed
    twice in ``tables`` would lose a request; anything else is named in
    the error, before any check runs."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(user))
    assert cli.main(["sweep", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and named in captured.err


def test_table_node_zero_is_named(tmp_path, capsys):
    """Node 0 is a node: the error says that no projection has it."""
    assert cli.main(["table", "--type", "D", "--rank", "5", "--node", "0"]) == 2
    assert "with node 0" in capsys.readouterr().err
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"systems": [],
                                "tables": [{"type": "D", "rank": 5, "node": 0}]}))
    assert cli.main(["sweep", "--config", str(path)]) == 2
    assert "with node 0" in capsys.readouterr().err


@pytest.mark.parametrize("lattices", [["SO", "S0"], ["S0"], []])
def test_unknown_lattice_name_is_config_error(tmp_path, capsys, lattices):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"systems": [{"type": "D", "rank": 5}],
                                "lattices": lattices,
                                "checks": {"fixer": True}}))
    assert cli.main(["sweep", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "available" in err
    if lattices:
        assert "'S0'" in err and "'SO'" not in err.split("available")[0]


def test_refuted_trivial_character_is_a_failure(monkeypatch, tmp_path):
    def refuted(*args):
        raise fixer.InconsistentSystemError("weighted row product is 2 (mod 4)")

    monkeypatch.setattr(fixer, "build_system", refuted)
    out = tmp_path / "report.json"
    assert cli.main(["fixer", "--type", "A", "--rank", "2", "--q", "5",
                     "--samples", "3", "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    validate_report(report)
    assert report["status"] == "fail"
    (entry,) = report["checks"]
    assert (entry["name"], entry["passed"], entry["count"]) == ("fixer", False, 1)
    witness = entry["counterexample"]
    assert witness["failure"] == "weighted row product is 2 (mod 4)"
    assert (witness["lattice"], witness["class_node"], witness["q"]) == \
        ("simply-connected", None, 5)
    assert len(witness["lambda"]) == 3


def _count_calls(monkeypatch, module, name):
    """Count calls of ``module.name`` through every ``weylrep`` namespace
    that holds it, ``from``-imports included."""
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    for modname, mod in list(sys.modules.items()):
        if modname.startswith("weylrep"):
            for key, val in list(vars(mod).items()):
                if val is real:
                    monkeypatch.setattr(mod, key, counted)
    return calls


def test_each_table_is_built_once_per_system(monkeypatch):
    constants = _count_calls(monkeypatch, chevalley, "build_constants")
    omegas = _count_calls(monkeypatch, affine, "omega_group")
    cfg = load_config(None)
    cfg["systems"] = [{"type": "D", "rank": 5}]
    assert run_sweep(cfg)["status"] == "pass"
    assert len(constants) == 1
    assert len(omegas) == 1
    constants.clear()
    cfg["checks"] = {"cocycle": True}
    assert run_sweep(cfg)["status"] == "pass"
    assert constants == []


def test_each_class_builds_its_rs_datum_once(monkeypatch):
    """second_difference, fibers and each system's table read one R/S
    datum per class of order >= 3, built on the first read."""
    datums = _count_calls(monkeypatch, affine, "sigma_rs")
    systems = ["A5", "D7", "E6"]
    cfg = _one_check_config(systems, second_difference=True, fibers=True)
    cfg["tables"] = [{"type": s[0], "rank": int(s[1:])} for s in systems]
    assert run_sweep(cfg)["status"] == "pass"
    expected = [(s, om.class_node) for s in systems
                for om in affine.omega_group(root_system(s[0], int(s[1:])))
                if om.order() >= 3]
    assert len(expected) == 8
    assert [(f"{om.sigma.rs.datum.type_label}{om.sigma.rs.rank}", om.class_node)
            for (om,) in datums] == expected


def test_lattices_all_derives_each_table_once(monkeypatch, bench_module):
    """The benchmark's lattices-all sweep: one R/S datum per class of
    order >= 3, one Hermite form per lattice (Q^vee is reduced with
    each lattice's own rows, not apart), and one Ω group per system
    context (12 swept systems and the unswept D5 table)."""
    workload = bench_module("workloads").WORKLOADS["lattices-all"]
    datums = _count_calls(monkeypatch, affine, "sigma_rs")
    hermites = _count_calls(monkeypatch, intmat, "hermite_row_basis")
    omegas = _count_calls(monkeypatch, affine, "omega_group")
    report = run_sweep({**load_config(None), **workload.make_config(7)})
    assert report["status"] == "pass"
    assert (len(datums), len(hermites), len(omegas)) == (15, 32, 13)


def test_each_lattice_is_factored_once(monkeypatch):
    """D6 and A7 have 5 and 4 lattices, with 60 solves per class: one
    Smith form per lattice, none more for membership, and no inverse at
    all: lattices are integer Hermite bases in coweight coordinates."""
    swept = sum(len(affine.all_lattices(root_system(*s))) for s in
                (("D", 6), ("A", 7)))
    snfs = _count_calls(monkeypatch, intmat, "smith_normal_form")
    invs = _count_calls(monkeypatch, intmat, "mat_inv")
    solves = _count_calls(monkeypatch, fixer, "solve")
    report = run_sweep(_one_check_config(["D6", "A7"], fixer=True))
    assert report["status"] == "pass"
    assert (swept, len(solves)) == (9, 660 + 900)
    assert len(snfs) == swept
    assert len(invs) == 0


def _plant(monkeypatch, module, name, nth, outcome):
    """Make ``module.name`` return ``outcome`` on its nth call (or raise it,
    if it is an exception) and behave as before on every other call."""
    real = getattr(module, name)
    calls = []

    def planted(*args):
        calls.append(args)
        if len(calls) != nth:
            return real(*args)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    monkeypatch.setattr(module, name, planted)


def _one_check_config(systems, **checks):
    cfg = load_config(None)
    cfg["systems"] = [{"type": s[0], "rank": int(s[1:])} for s in systems]
    cfg["checks"] = checks
    return cfg


# Each fault is planted in the function a check relies on; the expected
# entries were recorded before the checks returned their outcomes.  The
# first-difference witness is the third element of the descent tree's
# depth-first order, s_1 s_2 (the breadth-first order had s_2 there).
@pytest.mark.parametrize("module, name, nth, outcome, entry", [
    (weyl, "check_first_difference", 30, False,
     {"name": "first_difference", "system": "A3", "mode": "exhaustive",
      "count": 30, "passed": False,
      "counterexample": {"word": [1, 2], "root": [0, 0, -1]}}),
    (tits, "check_cocycle_formula", 20, False,
     {"name": "cocycle", "system": "B2", "mode": "exhaustive", "count": 20,
      "passed": False, "counterexample": {"u_word": [2], "v_word": [1, 2]}}),
    (affine, "check_second_difference", 5, False,
     {"name": "second_difference", "system": "A3", "mode": "exhaustive",
      "count": 6, "passed": False,
      "counterexample": {"class_node": 1, "root": [0, -1, 0]}}),
    (affine, "sigma_rs", 2, AssertionError("planted fiber fault"),
     {"name": "fibers", "system": "A3", "mode": "exhaustive", "count": 1,
      "passed": False,
      "counterexample": {"class_node": 3, "failure": "planted fiber fault"}}),
    (chevalley, "evaluate_character", 3, 2,
     {"name": "characters", "system": "A3", "mode": "exhaustive", "count": 3,
      "passed": False, "counterexample": {"class_node": 2}}),
    (fixer, "solve", 40, None,
     {"name": "fixer", "system": "A3", "mode": "sampled", "count": 40,
      "passed": False,
      "counterexample": {"lattice": "simply-connected", "class_node": None,
                         "q": 7}}),
])
def test_planted_fault_gives_the_recorded_entry(monkeypatch, module, name, nth,
                                                outcome, entry):
    _plant(monkeypatch, module, name, nth, outcome)
    report = run_sweep(_one_check_config([entry["system"]], **{entry["name"]: True}))
    validate_report(report)
    assert report["status"] == "fail"
    (got,) = report["checks"]
    if entry["name"] == "fixer":  # the drawn functional is the check's own
        assert len(got["counterexample"].pop("lambda")) == 4
    assert got == entry


def test_second_difference_assertion_is_a_witness(monkeypatch, tmp_path):
    """An R/S assertion inside the second-difference check fails its entry,
    as it does for fibers, and the sweep still writes its report.  The
    class's R/S datum is built once, by its first read in the parity check."""
    _plant(monkeypatch, affine, "sigma_rs", 1,
           AssertionError("planted fiber fault"))
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"systems": [{"type": "A", "rank": 3}]}))
    out = tmp_path / "report.json"
    assert cli.main(["sweep", "--config", str(config), "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    validate_report(report)
    (entry,) = [c for c in report["checks"] if c["name"] == "second_difference"]
    assert entry == {"name": "second_difference", "system": "A3",
                     "mode": "exhaustive", "count": 0, "passed": False,
                     "counterexample": {"class_node": 1,
                                        "failure": "planted fiber fault"}}
    assert [c["name"] for c in report["checks"] if not c["passed"]] == \
        ["second_difference"]


@pytest.mark.usefixtures("no_pairing_table")
def test_affine_checks_read_no_pairing_table():
    cfg = _one_check_config(["A5", "D7", "E6"], second_difference=True,
                            fibers=True, characters=True, fixer=True)
    report = run_sweep(cfg)
    assert report["status"] == "pass"
    assert len(report["checks"]) == 12


def _replay_second_difference(system, class_node):
    """The second-difference witness for one alcove-stabilizer class."""
    ctx = cli.SystemContext(system)
    ctx.omegas = tuple(om for om in ctx.omegas if om.class_node == class_node)
    assert len(ctx.omegas) == 1
    return cli._sweep_second_difference(ctx, None, None)[2]


@pytest.mark.parametrize("system", ["A3", "D5"])
def test_coroot_sum_route_is_load_bearing(monkeypatch, system):
    """A fault in ``RootSystem.coroot_sum`` that spares the full positive
    set, so the rho-check self-test at build time still passes, fails both
    height-difference checks with witnesses that replay.  The exhaustive
    element sweep carries S(w) along ``iter_group`` and calls no
    ``coroot_sum`` (``test_carried_coroot_sum_is_load_bearing`` faults that
    route), so the first difference runs sampled, where every element
    builds S(w) from its inversion set."""
    real = RootSystem.coroot_sum

    def shifted(rs, roots):
        roots = list(roots)
        s = real(rs, roots)
        if sorted(roots) == list(rs.positive_indices()):
            return s
        return (s[0] + 1,) + s[1:]

    monkeypatch.setattr(RootSystem, "coroot_sum", shifted)
    cfg = _one_check_config([system], first_difference=True,
                            second_difference=True)
    cfg["budget"] = 0
    report = run_sweep(cfg)
    first, second = report["checks"]
    assert first["mode"] == "sampled"
    assert not first["passed"] and not second["passed"]
    sysdef = {"type": system[0], "rank": int(system[1:])}
    word, root = first["counterexample"]["word"], first["counterexample"]["root"]
    node = second["counterexample"]["class_node"]

    def replay():
        rs = root_system(sysdef["type"], sysdef["rank"])
        w = weyl.from_word(rs, word)
        return (weyl.check_first_difference(w, rs.index[tuple(root)]),
                _replay_second_difference(sysdef, node))

    assert replay() == (False, second["counterexample"])
    monkeypatch.undo()
    assert replay() == (True, None)


def _per_root_first_difference(w, a):
    """The route before the packed comparison: the pairing vector against
    one height drop."""
    heights = w.rs.heights
    return weyl._pairing_vector(w)[a] == heights[a] - heights[w.perm[a]]


def _wrong_height(rs):
    heights = list(rs.heights)
    heights[rs.highest_root] += 1
    rs.heights = tuple(heights)


def _wrong_cartan_entry(rs):
    m = [list(row) for row in rs.datum.cartan_matrix]
    m[1][0] -= 1  # <alpha_1, alpha_2^vee>, read by every move s_1 of the search
    rs.datum = rs.datum._replace(cartan_matrix=tuple(map(tuple, m)))


def _wrong_psc_entry(rs):
    psc = [list(row) for row in rs._psc]
    psc[rs.highest_root][0] += 1  # <highest root, alpha_1^vee>
    rs._psc = tuple(map(tuple, psc))


@pytest.mark.parametrize("system", ["A3", "D5"])
def test_carried_coroot_sum_is_load_bearing(monkeypatch, system):
    """One wrong entry of the Cartan row that ``iter_group`` reads to carry
    S(w) fails the exhaustive sweep.  The witness is the element at its
    position in ``iter_group`` order, and it is the first element whose
    carried S differs from the inversion-set S."""
    def faulted(label, rank):
        rs = root_system(label, rank)
        _wrong_cartan_entry(rs)
        return rs

    monkeypatch.setattr(cli, "root_system", faulted)
    (entry,) = run_sweep(_one_check_config([system], first_difference=True))["checks"]
    assert entry["mode"] == "exhaustive" and not entry["passed"]
    rs = faulted(system[0], int(system[1:]))
    position, k = divmod(entry["count"] - 1, rs.nroots)
    assert entry["counterexample"]["root"] == list(rs.roots[k])
    for n, w in enumerate(weyl.iter_group(rs)):
        if n == position:
            break
        assert w.coroot_sum == rs.coroot_sum(weyl.inversion_set(w))
    assert list(w.word) == entry["counterexample"]["word"]
    assert w.coroot_sum != rs.coroot_sum(weyl.inversion_set(w))
    assert not weyl.check_first_difference(w, k)


@pytest.mark.parametrize("system", ["A3", "D5"])
def test_planted_wrong_height_fails_the_exhaustive_sweep(monkeypatch, system):
    """One wrong entry of ``rs.heights``, the right side's only root data,
    fails the exhaustive sweep at the first element in ``iter_group``
    order that moves the root to or from it.  The (word, root) witness
    replays on a fresh element built from the word: it fails with the
    fault and holds without it."""
    label, rank = system[0], int(system[1:])

    def faulted(label, rank):
        rs = root_system(label, rank)
        _wrong_height(rs)
        return rs

    monkeypatch.setattr(cli, "root_system", faulted)
    (entry,) = run_sweep(_one_check_config([system], first_difference=True))["checks"]
    assert entry["mode"] == "exhaustive" and not entry["passed"]
    rs = faulted(label, rank)
    hi = rs.highest_root
    position, k = divmod(entry["count"] - 1, rs.nroots)
    for n, w in enumerate(weyl.iter_group(rs)):
        if n == position:
            break
        assert w.perm[hi] == hi
    assert w.perm[hi] != hi and hi in (k, w.perm[k])
    word, root = entry["counterexample"]["word"], entry["counterexample"]["root"]
    assert (word, root) == (list(w.word), list(rs.roots[k]))
    # recorded in the descent tree's order; D5's third element is s_1 s_2
    assert (entry["count"], word, root) == {
        "A3": (22, [1], [0, 1, 1]), "D5": (119, [1, 2], [1, 1, 2, 1, 1])}[system]
    assert not weyl.check_first_difference(weyl.from_word(rs, word), k)
    clean = root_system(label, rank)
    assert weyl.check_first_difference(weyl.from_word(clean, word),
                                       clean.index[tuple(root)])


@pytest.mark.parametrize("fault", [_wrong_height, _wrong_cartan_entry,
                                   _wrong_psc_entry])
@pytest.mark.parametrize("system", ["A3", "D5"])
def test_packed_first_difference_fails_as_the_per_root_route(monkeypatch, system,
                                                             fault):
    """A wrong height, a wrong Cartan entry in the carried-S update and a
    wrong pairing with a simple coroot each fail the exhaustive sweep with
    the count and witness of the per-root route, and the packed route
    decides the failing element with exactly one ``_pairing_vector``."""
    def faulted(label, rank):
        rs = root_system(label, rank)
        fault(rs)
        return rs

    monkeypatch.setattr(cli, "root_system", faulted)
    cfg = _one_check_config([system], first_difference=True)
    vectors = _count_calls(monkeypatch, weyl, "_pairing_vector")
    (packed,) = run_sweep(cfg)["checks"]
    assert packed["mode"] == "exhaustive" and not packed["passed"]
    assert len(vectors) == 1
    monkeypatch.setattr(weyl, "check_first_difference", _per_root_first_difference)
    (per_root,) = run_sweep(cfg)["checks"]
    assert packed == per_root


def test_passing_sweep_builds_no_pairing_vector(monkeypatch):
    vectors = _count_calls(monkeypatch, weyl, "_pairing_vector")
    (entry,) = run_sweep(_one_check_config(["D5"], first_difference=True))["checks"]
    assert entry["passed"] and entry["count"] == 1920 * 40
    assert vectors == []


def test_first_difference_memo_keeps_no_root_system_alive(monkeypatch):
    built = []

    def tracked(label, rank):
        rs = root_system(label, rank)
        built.append(weakref.ref(rs))
        return rs

    monkeypatch.setattr(cli, "root_system", tracked)
    report = run_sweep(_one_check_config(["D5"], first_difference=True))
    assert report["status"] == "pass"
    gc.collect()
    assert len(built) == 1
    assert [ref() for ref in built] == [None]


def test_fixer_witness_does_not_depend_on_other_checks(monkeypatch):
    witnesses = []
    for checks in ({"fixer": True}, {"cocycle": True, "fixer": True}):
        _plant(monkeypatch, fixer, "solve", 7, None)
        report = run_sweep(_one_check_config(["D5"], **checks))
        witnesses.append(report["checks"][-1]["counterexample"])
    assert witnesses[0]["q"] == 5 and len(witnesses[0]["lambda"]) == 6
    assert witnesses[0] == witnesses[1]


def test_lattice_names_are_checked_before_any_check(monkeypatch, tmp_path, capsys):
    constants = _count_calls(monkeypatch, chevalley, "build_constants")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"systems": [{"type": "D", "rank": 7},
                                            {"type": "E", "rank": 6}],
                                "lattices": ["SO"]}))
    assert cli.main(["sweep", "--config", str(path)]) == 2
    assert "no lattice of E6 matches ['SO']" in capsys.readouterr().err
    assert constants == []


def _fixture_config(tmp_path, doc, systems=("A2", "A3")):
    fixture = tmp_path / "constants.json"
    fixture.write_text(json.dumps(doc))
    return _characters_config(tmp_path, str(fixture), systems), fixture


def test_constants_fixture_applies_to_the_system_it_names(monkeypatch, tmp_path, capsys):
    doc = table_to_json(build_constants(root_system("A", 2)))
    path, fixture = _fixture_config(tmp_path, doc)
    real_open = open
    opened = []

    def counted_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counted_open)
    out = tmp_path / "report.json"
    assert cli.main(["sweep", "--config", str(path), "--out", str(out)]) == 0
    assert opened.count(str(fixture)) == 1
    report = json.loads(out.read_text())
    assert [(c["system"], c["passed"]) for c in report["checks"]] == \
        [("A2", True), ("A3", True)]
    capsys.readouterr()


def test_corrupted_fixture_fails_only_its_system(tmp_path, capsys):
    doc = table_to_json(build_constants(root_system("A", 2)))
    doc["constants"][0][2] *= 5
    path, _ = _fixture_config(tmp_path, doc)
    out = tmp_path / "report.json"
    assert cli.main(["sweep", "--config", str(path), "--out", str(out)]) == 1
    a2, a3 = json.loads(out.read_text())["checks"]
    assert (a2["system"], a2["passed"], a2["count"]) == ("A2", False, 1)
    assert a2["counterexample"]["failure"] == "jacobi"
    assert (a3["system"], a3["passed"]) == ("A3", True)
    capsys.readouterr()


def test_fixture_naming_no_configured_system_is_config_error(tmp_path, capsys):
    doc = table_to_json(build_constants(root_system("A", 2)))
    path, _ = _fixture_config(tmp_path, doc, systems=("A1", "A3"))
    assert cli.main(["sweep", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad constants fixture")


def test_a_swept_system_lends_its_context_to_its_table(monkeypatch):
    """A table of a swept system reuses its root system and adjoint Ω group;
    a table of an unswept system builds its own.  Tables keep config order."""
    systems = _count_calls(monkeypatch, cli, "root_system")
    omegas = _count_calls(monkeypatch, affine, "omega_group")
    cfg = load_config(None)
    cfg["systems"] = [{"type": "D", "rank": 5}]
    cfg["tables"] = [{"type": "D", "rank": 5, "node": 5}]
    report = run_sweep(cfg)
    assert report["status"] == "pass"
    assert (len(systems), len(omegas)) == (1, 1)
    assert report["tables"]["D5"] == emit_table_doc(root_system("D", 5), node=5)
    systems.clear()
    omegas.clear()
    cfg["tables"] = [{"type": "A", "rank": 3}, {"type": "D", "rank": 5, "node": 5}]
    report = run_sweep(cfg)
    assert (len(systems), len(omegas)) == (2, 2)
    assert list(report["tables"]) == ["A3", "D5"]
    text = cli._report_text(report)
    assert text.index("A3: triples") < text.index("D5: triples")


def _plant_where(monkeypatch, module, name, holds):
    """Make ``module.name`` return False wherever ``holds`` does."""
    real = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *args: not holds(*args) and real(*args))


# E6 is sampled at the default budgets; A3 is sampled only at budget 0.
@pytest.mark.parametrize("system, budgets", [
    ("E6", {}), ("A3", {"budget": 0, "pair_budget": 0})])
def test_sampled_first_difference_catches_a_planted_fault(monkeypatch, system,
                                                          budgets):
    rs = root_system(system[0], int(system[1:]))
    hi, a1 = rs.highest_root, rs.simple_index[0]

    def holds(w, a):  # w sends alpha_1 to the highest root, checked at it
        return a == hi and w.perm[a1] == hi

    _plant_where(monkeypatch, weyl, "check_first_difference", holds)
    cfg = {**_one_check_config([system], first_difference=True), **budgets}
    (got,) = run_sweep(cfg)["checks"]
    assert (got["mode"], got["passed"]) == ("sampled", False)
    assert (got["count"] - 1) % rs.nroots == hi
    witness = got["counterexample"]
    assert witness["root"] == list(rs.roots[hi])
    assert holds(weyl.from_word(rs, witness["word"]), hi)


@pytest.mark.parametrize("system, budget", [("A3", 10_000), ("E6", 0)])
def test_flip_symmetry_catches_a_planted_inverse_fault(monkeypatch, system,
                                                       budget):
    """The flip-symmetry branch can fire: an ``inverse`` that returns w
    itself fails ``first_difference`` after the failing element's roots,
    with a word that replays under the fault and passes without it."""
    rs = root_system(system[0], int(system[1:]))
    monkeypatch.setattr(weyl.WeylElement, "inverse", lambda w: w)
    cfg = {**_one_check_config([system], first_difference=True), "budget": budget}
    (got,) = run_sweep(cfg)["checks"]
    assert (got["mode"], got["passed"]) == \
        ("exhaustive" if budget else "sampled", False)
    assert got["count"] % rs.nroots == 0
    witness = got["counterexample"]
    assert witness["failure"] == "flip symmetry"
    w = weyl.from_word(rs, witness["word"])
    assert not weyl.check_flip_symmetry(w)
    if budget:  # the first element, in sweep order, that the fault breaks
        group = list(weyl.iter_group(rs))
        k = got["count"] // rs.nroots - 1
        assert group[k] == w
        assert all(weyl.check_flip_symmetry(x) for x in group[:k])
        # s_1 s_2, the first element that is not an involution, is third
        assert (got["count"], witness["word"]) == (3 * rs.nroots, [1, 2])
    monkeypatch.undo()
    assert weyl.check_flip_symmetry(weyl.from_word(rs, witness["word"]))


def test_fixer_sweep_reads_each_class_scalar_once(monkeypatch):
    """One ``c_word`` per affine node of each (lattice, class), however
    many functionals and fields the class is swept with."""
    calls = _count_calls(monkeypatch, chevalley, "c_word")
    builds = _count_calls(monkeypatch, fixer, "build_system")
    systems = ["A3", "D5", "G2"]
    report = run_sweep(_one_check_config(systems, fixer=True))
    assert report["status"] == "pass"
    expected = 0
    for name in systems:
        rs = root_system(name[0], int(name[1:]))
        omegas = affine.omega_group(rs)
        expected += sum(len(affine.lattice_classes(lat, omegas))
                        for lat in affine.all_lattices(rs)) * (rs.rank + 1)
    assert len(calls) == expected
    assert len(builds) == sum(c["count"] for c in report["checks"]) > 10 * expected


@pytest.mark.parametrize("system, budgets", [
    ("E6", {}), ("A3", {"budget": 0, "pair_budget": 0})])
def test_sampled_cocycle_catches_a_planted_fault(monkeypatch, system, budgets):
    rs = root_system(system[0], int(system[1:]))
    hi, a1 = rs.highest_root, rs.simple_index[0]

    def holds(u, v):  # uv sends alpha_1 to the highest root
        return (u * v).perm[a1] == hi

    _plant_where(monkeypatch, tits, "check_cocycle_formula", holds)
    cfg = {**_one_check_config([system], cocycle=True), **budgets}
    (got,) = run_sweep(cfg)["checks"]
    assert (got["mode"], got["passed"]) == ("sampled", False)
    assert 1 <= got["count"] <= cfg["samples"]
    witness = got["counterexample"]
    assert holds(weyl.from_word(rs, witness["u_word"]),
                 weyl.from_word(rs, witness["v_word"]))


@pytest.mark.parametrize("argv", [
    ["sweep", "--type", "A", "--rank", "1"],
    ["cocycle", "--type", "A", "--rank", "1"],
    ["cocycle", "--type", "A", "--rank", "2", "--dump"],
    ["fixer", "--type", "A", "--rank", "1", "--q", "5", "--samples", "2"],
    ["table", "--type", "A", "--rank", "3"],
    ["dump-rootsys", "--type", "A", "--rank", "2"],
])
@pytest.mark.parametrize("where", ["missing directory", "a directory"])
def test_unwritable_out_is_a_config_error(tmp_path, capsys, argv, where):
    out = tmp_path / "nope" / "r.json" if where == "missing directory" \
        else tmp_path
    assert cli.main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"error: cannot write {out}: ")


def test_first_difference_sweep_keeps_nothing_per_element():
    """An exhaustive sweep keeps no per-element pairing data: what it
    leaves behind is well under one small tuple per element.  A full
    collection empties the interpreter's free lists, which would
    otherwise count as held memory."""
    ctx = cli.SystemContext({"type": "D", "rank": 5})
    group = ctx.group
    cfg = {**load_config(None), "budget": len(group)}
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        outcome = cli._sweep_first_difference(ctx, cfg, random.Random(0))
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert outcome == ("exhaustive", len(group) * ctx.rs.nroots, None)
    assert len(group) == 1920
    assert retained < 64 * len(group)


def _first_difference_sweep_peak(system, budget):
    """Sweep ``first_difference`` on one system and return the outcome,
    the tracemalloc peak in bytes, the context and the config.  The coset
    chain and packed pairing table are built first, so only the sweep's
    own allocations count."""
    ctx = cli.SystemContext({"type": system[0], "rank": int(system[1:])})
    ctx.rs.coset_chain, ctx.rs.packed_pairing
    cfg = {**load_config(None), "budget": budget}
    rng = random.Random(f"{cfg['seed']}/{system}/first_difference")
    gc.collect()
    tracemalloc.start()
    try:
        outcome = cli._sweep_first_difference(ctx, cfg, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return outcome, peak, ctx, cfg


# tracemalloc peaks of one first-difference sweep, in MB: when the sweep
# held all its elements they were 0.99 (D5), 13.94 (D6), 2.94 (E7) and
# 5.13 (E8); streamed, 0.25, 2.2, 0.23 and 0.23.  Each bound is midway.
@pytest.mark.parametrize("system, budget, bound_mb", [
    ("D5", 1920, 0.62), ("D6", 23_040, 8.0), ("E7", 0, 1.6), ("E8", 0, 2.7)])
def test_first_difference_sweep_holds_no_elements(system, budget, bound_mb):
    """The sweep checks one element at a time, exhaustive or sampled, and
    never lists W."""
    (mode, count, witness), peak, ctx, cfg = _first_difference_sweep_peak(
        system, budget)
    assert witness is None
    assert mode == ("exhaustive" if budget else "sampled")
    assert count == (budget or cfg["samples"]) * ctx.rs.nroots
    assert peak < bound_mb * 2 ** 20
    assert "group" not in vars(ctx)


# The exhaustive D5 and D6 sweeps held two breadth-first length levels,
# 0.20 and 2.36 MB at their tracemalloc peaks, until the descent-tree walk,
# which holds one path: 0.013 and 0.017 MB.  Each bound is midway.
@pytest.mark.parametrize("system, bound_mb", [("D5", 0.1), ("D6", 1.2)])
def test_exhaustive_first_difference_sweep_holds_one_path(system, bound_mb):
    """The exhaustive sweep walks W depth-first and holds no length level."""
    rs = root_system(system[0], int(system[1:]))
    (mode, _, witness), peak, _, _ = _first_difference_sweep_peak(
        system, weyl.group_order(rs))
    assert (mode, witness) == ("exhaustive", None)
    assert peak < bound_mb * 2 ** 20


def test_sampled_first_difference_witness_is_the_kth_draw(monkeypatch):
    """A fault at the k-th sampled element gives that element of a list
    drawn up front from the check's own stream."""
    k, system = 37, "E6"
    rs = root_system("E", 6)
    cfg = _one_check_config([system], first_difference=True)
    rng = random.Random(f"{cfg['seed']}/{system}/first_difference")
    drawn = [weyl.random_element(rs, rng) for _ in range(cfg["samples"])]
    _plant(monkeypatch, weyl, "check_first_difference",
           (k - 1) * rs.nroots + 1, False)
    (got,) = run_sweep(cfg)["checks"]
    assert (got["mode"], got["passed"]) == ("sampled", False)
    assert got["count"] == (k - 1) * rs.nroots + 1
    assert got["counterexample"] == {"word": list(drawn[k - 1].word),
                                     "root": list(rs.roots[0])}


@pytest.mark.parametrize("budget, mode", [(10_000, "exhaustive"), (0, "sampled")])
def test_first_difference_calls_match_the_report_count(monkeypatch, budget, mode):
    """One ``check_first_difference`` call per element and root, the
    count the benchmark's traced cross-check compares.  Only sampled
    elements build an inversion set, one each; the exhaustive sweep reads
    the S(w) carried along ``iter_group``."""
    calls = _count_calls(monkeypatch, weyl, "check_first_difference")
    inversions = _count_calls(monkeypatch, weyl, "inversion_set")
    cfg = {**_one_check_config(["D4"], first_difference=True), "budget": budget}
    (got,) = run_sweep(cfg)["checks"]
    assert (got["mode"], got["passed"]) == (mode, True)
    assert len(calls) == got["count"]
    assert len(inversions) == (0 if budget else cfg["samples"])
    assert got["count"] == (192 if budget else cfg["samples"]) * 24


# (type, ranks) of every irreducible type with |W| <= |W(E7)| = 2 903 040,
# each isomorphism class once: C2 is B2 and D3 is A3
CERTIFY_ALL = [("A", range(1, 9)), ("B", range(2, 8)), ("C", range(3, 8)),
               ("D", range(4, 8)), ("E", (6, 7)), ("F", (4,)), ("G", (2,))]


@pytest.mark.parametrize("name, systems", [
    ("certify-e7.json", [("E", 7)]),
    ("certify-all.json", [(t, r) for t, ranks in CERTIFY_ALL for r in ranks]),
])
def test_certify_config_is_an_exhaustive_first_difference_sweep(name, systems):
    """The committed certificate configs, loaded and not run: the systems
    they name, only ``first_difference`` on, and a ``budget`` that sweeps
    every group in full and no more than the largest needs."""
    cfg = load_config(str(Path(__file__).parent.parent / name))
    assert [(s["type"], s["rank"]) for s in cfg["systems"]] == systems
    assert [k for k, on in cfg["checks"].items() if on] == ["first_difference"]
    orders = [weyl.group_order(root_system(t, r)) for t, r in systems]
    assert cfg["budget"] == max(orders) == 2_903_040
    assert sum(orders) == {"certify-e7.json": 2_903_040,
                           "certify-all.json": 5_103_820}[name]
