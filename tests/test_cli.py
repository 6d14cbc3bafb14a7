import contextlib
import gc
import io
import json
import math
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pandora_matching import cli
from pandora_matching.algorithms import POLICY_NAMES
from pandora_matching.boxes import PandoraBox
from pandora_matching.cli import main
from pandora_matching.repro import (ALL_NAMES, bundled_star, indistinguishable_edge,
                                    no_dessert_edge, no_dessert_star)
from pandora_matching.rng import SplitMix64

from support import rand_graph


@pytest.fixture
def edge_file(tmp_path):
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(no_dessert_edge(F(1, 2)).instance.to_json_obj()))
    return str(path)


@pytest.fixture
def indist_file(tmp_path):
    path = tmp_path / "indist.json"
    path.write_text(json.dumps(indistinguishable_edge().instance.to_json_obj()))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# Deeper than any Python's recursion limit lets the json decoder go.
DEEP = 100_000
LEAF = {"value": "1"}
BOX = {"dist": [{"v": "1", "p": "1"}], "cost": "0"}


def stage(cost, branches):
    """A tree node as JSON, from (label, p, child) triples."""
    return {"cost": cost, "branches": [{"label": l, "p": p, "node": c} for l, p, c in branches]}


def deep_tree(stages: int) -> str:
    """A path of ``stages`` single-branch stages, as JSON text."""
    return ('{"cost": "0", "branches": [{"label": "x", "p": "1", "node": ' * stages
            + '{"value": "1"}' + "}]}" * stages)


class TestIndexCommands:
    def test_index(self, tmp_path, capsys):
        box = indistinguishable_edge().instance.edges[0].box(("i", "j"))
        path = tmp_path / "box.json"
        path.write_text(json.dumps(box.to_json_obj()))
        code, out, _ = run_cli(capsys, "index", "--instance", str(path))
        assert code == 0
        assert json.loads(out) == {"sigma": "1", "sigma_float": 1.0}

    def test_nested_index(self, tmp_path, capsys):
        from support import edge_to_basket

        edge = no_dessert_edge(F(1, 2)).instance.edges[0]
        tree = edge_to_basket(edge, ("i", "j"))
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(tree.to_json_obj()))
        code, out, _ = run_cli(capsys, "nested-index", "--instance", str(path))
        doc = json.loads(out)
        assert code == 0
        assert doc["sigma1"] == "1"
        assert doc["tree"]["sigma"]["exact"] == "1"

    def test_outputs_are_pinned(self, tmp_path, capsys):
        # A box with negative, repeated and unordered values and unreduced
        # probabilities, and a 3-stage tree whose capped atoms merge.
        golden = json.loads((Path(__file__).parent / "data" / "index_outputs.json").read_text())
        for cmd, doc, key in (("index", "box", "index_stdout"),
                              ("nested-index", "tree", "nested_index_stdout")):
            path = tmp_path / f"{doc}.json"
            path.write_text(json.dumps(golden[doc]))
            assert run_cli(capsys, cmd, "--instance", str(path)) == (0, golden[key], "")
        box = PandoraBox.from_json_obj(golden["box"])
        assert box.to_json_obj() == golden["box_to_json_obj"]


class TestRunCommand:
    def test_oriented_desc_canonical(self, edge_file, capsys):
        code, out, _ = run_cli(capsys, "run", "--instance", edge_file,
                               "--policy", "oriented-desc")
        doc = json.loads(out)
        assert code == 0
        assert doc["welfare"]["exact"] == "1/2"

    def test_oriented_desc_reverse(self, edge_file, capsys):
        code, out, _ = run_cli(capsys, "run", "--instance", edge_file,
                               "--policy", "oriented-desc", "--orientation", "reverse")
        assert json.loads(out)["welfare"]["exact"] == "1/4"

    def test_inline_orientation(self, edge_file, capsys):
        code, out, _ = run_cli(capsys, "run", "--instance", edge_file,
                               "--policy", "oriented-desc",
                               "--orientation", '[["j", "i"]]')
        assert json.loads(out)["welfare"]["exact"] == "1/4"

    def test_best_of_two(self, edge_file, capsys):
        code, out, _ = run_cli(capsys, "run", "--instance", edge_file,
                               "--policy", "best-of-two")
        doc = json.loads(out)
        assert doc["welfare"]["exact"] == "1/2"
        assert doc["orientation"] == [["i", "j"]]

    def test_randomized_exact(self, edge_file, capsys):
        code, out, _ = run_cli(capsys, "run", "--instance", edge_file,
                               "--policy", "randomized")
        assert json.loads(out)["welfare"]["exact"] == "3/8"

    def test_csv_format(self, edge_file, capsys):
        code, out, _ = run_cli(capsys, "run", "--instance", edge_file,
                               "--policy", "oriented-desc", "--format", "csv",
                               "--with-opt")
        lines = out.strip().splitlines()
        assert lines[0] == ("instance,policy,orientation,mode,value_exact,value_float,"
                            "ratio_to_opt,stderr")
        fields = lines[1].split(",")
        assert fields[1] == "oriented-desc"
        assert fields[4] == "1/2" and fields[5] == "0.5" and fields[6] == "1"
        assert fields[7] == ""

    def test_edge_based_reports_its_orientation(self, tmp_path, capsys):
        from pandora_matching.algorithms import edge_based_orientation

        inst = no_dessert_star(F(1, 4), 2).instance
        path = tmp_path / "star.json"
        path.write_text(json.dumps(inst.to_json_obj()))
        pairs = edge_based_orientation(inst).to_json_obj()
        assert pairs != [list(e.id) for e in inst.edges]   # not just the canonical one
        code, out, _ = run_cli(capsys, "run", "--instance", str(path), "--policy", "edge-based")
        doc = json.loads(out)
        assert code == 0 and doc["orientation"] == pairs
        code, out, _ = run_cli(capsys, "run", "--instance", str(path), "--policy", "edge-based",
                               "--format", "csv")
        header, row = out.strip().splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        assert code == 0 and fields["orientation"] == ";".join(f"{u}>{v}" for u, v in pairs)
        assert fields["value_exact"] == doc["welfare"]["exact"]
        code, out, _ = run_cli(capsys, "run", "--instance", str(path),
                               "--policy", "oriented-desc", "--orientation", "edge-based")
        assert code == 0 and json.loads(out) == {**doc, "policy": "oriented-desc"}

    @pytest.mark.parametrize("policy", ["bundled", "randomized", "oriented-desc"])
    def test_montecarlo_csv_stderr_equals_json(self, edge_file, capsys, policy):
        args = ("run", "--instance", edge_file, "--policy", policy,
                "--mode", "montecarlo", "--seed", "11", "--trials", "3000")
        _, out_json, _ = run_cli(capsys, *args)
        code, out_csv, _ = run_cli(capsys, *args, "--format", "csv")
        welfare = json.loads(out_json)["welfare"]
        header, row = out_csv.strip().splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        assert code == 0 and welfare["stderr"] > 0
        assert fields["value_exact"] == ""
        assert float(fields["value_float"]) == welfare["float"]
        assert float(fields["stderr"]) == welfare["stderr"]

    def test_montecarlo_variance_past_the_float_range(self, tmp_path, capsys):
        """The variance (about 1e399) is no float, but the mean and standard error are."""
        wide = {"dist": [{"v": "0", "p": "1/2"}, {"v": "1e200", "p": "1/2"}], "cost": "0"}
        zero = {"dist": [{"v": "0", "p": "1"}], "cost": "0"}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"edges": [{"i": "a", "j": "b", "box_ij": wide,
                                               "box_ji": zero}]}))
        code, out, _ = run_cli(capsys, "run", "--instance", str(path), "--policy", "bundled",
                               "--mode", "montecarlo", "--seed", "1", "--trials", "100")
        welfare = json.loads(out)["welfare"]
        hits = round(welfare["float"] / 1e198)   # trials that drew 1e200
        assert code == 0 and 0 < hits < 100
        assert welfare["float"] == float(hits * 10**198)
        assert math.isclose(welfare["stderr"], math.sqrt(hits * (100 - hits)) * 1e197,
                            rel_tol=1e-12)

    def test_montecarlo_deterministic(self, edge_file, capsys):
        args = ("run", "--instance", edge_file, "--policy", "oriented-desc",
                "--mode", "montecarlo", "--seed", "9", "--trials", "2000")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0 and out1 == out2
        doc = json.loads(out1)
        assert doc["welfare"]["stderr"] > 0

    def test_montecarlo_trials_default(self, edge_file, capsys):
        code, out, _ = run_cli(capsys, "run", "--instance", edge_file, "--policy", "bundled",
                               "--mode", "montecarlo", "--seed", "4")
        assert code == 0 and json.loads(out)["welfare"]["trials"] == 100_000

    def test_randomized_montecarlo_estimates_the_policy(self, edge_file, capsys):
        from pandora_matching.algorithms import RandomizedRunner, expected_welfare

        code, out, _ = run_cli(capsys, "run", "--instance", edge_file, "--policy", "randomized",
                               "--mode", "montecarlo", "--seed", "3", "--trials", "4000")
        welfare = json.loads(out)["welfare"]
        assert code == 0
        assert welfare == {"float": welfare["float"], "stderr": welfare["stderr"],
                           "trials": 4000, "seed": 3}
        inst = no_dessert_edge(F(1, 2)).instance
        assert (welfare["float"], welfare["stderr"]) == expected_welfare(
            inst, RandomizedRunner(inst), "montecarlo", seed=3, trials=4000)
        assert 0 < welfare["stderr"] and abs(welfare["float"] - 3 / 8) <= 4 * welfare["stderr"]

    def test_random_orientation_gives_one_seeded_orientation(self, edge_file, capsys):
        from pandora_matching.algorithms import DescendingRunner, expected_welfare
        from pandora_matching.instance import random_orientation
        from pandora_matching.rng import SplitMix64

        code, out, _ = run_cli(capsys, "run", "--instance", edge_file,
                               "--policy", "oriented-desc", "--orientation", "random:3")
        doc = json.loads(out)
        inst = no_dessert_edge(F(1, 2)).instance
        o = random_orientation(inst, SplitMix64(3))
        value = expected_welfare(inst, DescendingRunner(inst, o))
        assert doc["orientation"] == o.to_json_obj()
        assert doc["welfare"]["exact"] == str(value)

    @pytest.mark.parametrize("seed", [0, (1 << 64) - 1], ids=["zero", "top"])
    def test_seed_range_ends_are_accepted(self, edge_file, capsys, seed):
        code, out, _ = run_cli(capsys, "run", "--instance", edge_file, "--policy", "bundled",
                               "--mode", "montecarlo", "--seed", str(seed), "--trials", "10",
                               "--trace-seed", str(seed))
        doc = json.loads(out)
        assert code == 0 and doc["welfare"]["seed"] == seed and "sample_trace" in doc
        code, out, _ = run_cli(capsys, "run", "--instance", edge_file, "--policy",
                               "oriented-desc", "--orientation", f"random:{seed}")
        assert code == 0

    def test_montecarlo_without_seed_fails(self, edge_file, capsys):
        code, _, err = run_cli(capsys, "run", "--instance", edge_file,
                               "--policy", "oriented-desc", "--mode", "montecarlo")
        assert code == 2 and "seed" in err

    def test_sample_trace(self, edge_file, capsys):
        code, out, _ = run_cli(capsys, "run", "--instance", edge_file,
                               "--policy", "oriented-desc", "--trace-seed", "3")
        doc = json.loads(out)
        assert "sample_trace" in doc and "welfare" in doc["sample_trace"]

    def test_best_of_two_traces_its_chosen_orientation(self, tmp_path, capsys):
        # on this star best-of-two keeps the reverse (leaf-first) orientation
        path = tmp_path / "star.json"
        path.write_text(json.dumps(no_dessert_star(F(1, 4), 2).instance.to_json_obj()))
        code, out, _ = run_cli(capsys, "run", "--instance", str(path),
                               "--policy", "best-of-two", "--trace-seed", "3")
        doc = json.loads(out)
        assert code == 0 and doc["orientation"] == [["j1", "i"], ["j2", "i"], ["k", "i"]]
        _, same, _ = run_cli(capsys, "run", "--instance", str(path), "--policy", "oriented-desc",
                             "--orientation", "reverse", "--trace-seed", "3")
        _, other, _ = run_cli(capsys, "run", "--instance", str(path), "--policy", "oriented-desc",
                              "--trace-seed", "3")
        assert doc["sample_trace"] == json.loads(same)["sample_trace"]
        assert doc["sample_trace"] != json.loads(other)["sample_trace"]

    def test_bundled_policy(self, indist_file, capsys):
        code, out, _ = run_cli(capsys, "run", "--instance", indist_file,
                               "--policy", "bundled")
        assert code == 0
        assert json.loads(out)["welfare"]["exact"] == "0"

    def test_vertex_based_policy(self, indist_file, capsys):
        code, out, _ = run_cli(capsys, "run", "--instance", indist_file,
                               "--policy", "vertex-based")
        assert json.loads(out)["welfare"]["exact"] == "-3/2"

    def test_vertex_based_on_joint_edge_fails_cleanly(self, tmp_path, capsys):
        from pandora_matching.instance import EdgeSpec, MatchingInstance

        e = EdgeSpec.joint("a", "b", 1, 1, [("x", "y", F(2), F(1))])
        path = tmp_path / "joint.json"
        path.write_text(json.dumps(MatchingInstance("ab", [e]).to_json_obj()))
        code, _, err = run_cli(capsys, "run", "--instance", str(path),
                               "--policy", "vertex-based")
        assert code == 2 and "independent" in err

    def test_bad_orientation_spec(self, edge_file, capsys):
        code, _, err = run_cli(capsys, "run", "--instance", edge_file,
                               "--policy", "oriented-desc", "--orientation", "bogus")
        assert code == 2 and "orientation" in err


def run_golden_instances() -> dict:
    """The instances of ``run_outputs.json``, by file name."""
    return {"indistinguishable-edge.json": indistinguishable_edge().instance,
            "no-dessert-edge-quarter.json": no_dessert_edge(F(1, 4)).instance,
            "bundled-star-3.json": bundled_star(3).instance,
            "graph-7.json": rand_graph(SplitMix64(7), 5, 4)}


def run_golden_argvs() -> list:
    """``pandora run`` arguments after ``--instance``: every policy exact (JSON,
    and CSV with --with-opt), every Monte Carlo policy at two seeds, and a
    sample trace of every per-realization policy."""
    argvs = [argv for policy in POLICY_NAMES for argv in (
        ["--policy", policy], ["--policy", policy, "--format", "csv", "--with-opt"])]
    for policy in POLICY_NAMES:
        if policy != "best-of-two":
            argvs += [["--policy", policy, "--mode", "montecarlo", "--seed", seed,
                       "--trials", "300"] for seed in ("3", "1729")]
        if policy != "randomized":
            argvs.append(["--policy", policy, "--trace-seed", "5"])
    return argvs


def run_outputs(name: str) -> dict:
    """Arguments joined by spaces -> stdout of ``pandora run`` on the golden
    instance ``name``, written to the working directory."""
    Path(name).write_text(json.dumps(run_golden_instances()[name].to_json_obj()))
    out = {}
    for argv in run_golden_argvs():
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            assert main(["run", "--instance", name, *argv]) == 0, argv
        out[" ".join(argv)] = stdout.getvalue()
    return out


class TestRunGolden:
    """The bytes ``pandora run`` prints, captured before every policy became a runner."""

    GOLDEN = json.loads((Path(__file__).parent / "data" / "run_outputs.json").read_text())

    def test_covers_every_instance_and_argv(self):
        assert sorted(self.GOLDEN) == sorted(run_golden_instances())
        keys = [" ".join(argv) for argv in run_golden_argvs()]
        assert all(list(outputs) == keys for outputs in self.GOLDEN.values())

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_stdout_matches_golden(self, tmp_path, monkeypatch, name):
        monkeypatch.chdir(tmp_path)
        assert run_outputs(name) == self.GOLDEN[name]


class TestOracleCommand:
    def test_free_opt(self, indist_file, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--instance", indist_file,
                               "--constraint", "free")
        doc = json.loads(out)
        assert code == 0 and doc["value"] == "1/4"

    def test_oriented_opt(self, edge_file, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--instance", edge_file,
                               "--constraint", "oriented", "--orientation", "reverse")
        assert json.loads(out)["value"] == "1/4"

    def test_trace_flag(self, indist_file, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--instance", indist_file, "--trace")
        doc = json.loads(out)
        assert doc["optimal_action_trace"]["action"] == "open"


class TestReproCommand:
    def test_defaults_pass(self, capsys):
        code, out, _ = run_cli(capsys, "repro")
        doc = json.loads(out)
        assert code == 0 and doc["mismatches"] == 0

    def test_only_with_params(self, capsys):
        code, out, _ = run_cli(capsys, "repro", "--only", "no-dessert-edge",
                               "--alpha", "1/8", "--format", "csv")
        assert code == 0
        assert "sigma1_ij,7" in out

    def test_mismatch_exit_code(self, capsys, monkeypatch):
        from pandora_matching import repro as repro_mod
        from pandora_matching.repro import NamedInstance, indistinguishable_edge

        named = indistinguishable_edge()
        broken = NamedInstance(named.name, {}, named.instance,
                               (("opt_free", named.table[2][1], F(1, 3)),))
        monkeypatch.setattr(repro_mod, "build", lambda name, **kw: broken)
        code, out, _ = run_cli(capsys, "repro", "--only", "indistinguishable-edge")
        assert code == 1


class TestCheckCommand:
    def test_all_checks_pass(self, edge_file, capsys):
        code, out, _ = run_cli(capsys, "check", "--instance", edge_file)
        doc = json.loads(out)
        assert code == 0 and doc["all_passed"]
        names = {c["name"] for c in doc["checks"]}
        assert "greedy-equivalence-forward" in names
        assert "opt-bound" in names

    def test_missing_instance_file(self, capsys):
        code, _, err = run_cli(capsys, "check", "--instance", "/nonexistent.json")
        assert code == 2 and "cannot read" in err


class TestInputErrors:
    @pytest.mark.parametrize("argv, expected", [
        (["index", "--instance", "{missing}"], "cannot read box"),
        (["index", "--instance", "{no_cost}"], "cannot read box {no_cost}: missing key 'cost'"),
        (["nested-index", "--instance", "{not_tree}"], "cannot read tree"),
        (["index", "--instance", "{atoms}"],
         "cannot read box {atoms}: expected a JSON object, got list"),
        (["run", "--instance", "{half_edge}", "--policy", "bundled"],
         "cannot read instance {half_edge}: missing key 'box_ji'"),
        (["run", "--instance", "{atoms}", "--policy", "bundled"],
         "cannot read instance {atoms}: expected a JSON object, got list"),
        (["check", "--instance", "{no_cost}"],
         "cannot read instance {no_cost}: missing key 'edges'"),
        (["check", "--instance", "{edge_as_list}"],
         "cannot read instance {edge_as_list}: expected a JSON object, got list"),
        (["check", "--instance", "{short_box}"],
         "cannot read instance {short_box}: probabilities sum to 999/1000, expected 1"),
        (["run", "--instance", "{missing}", "--policy", "oriented-desc",
          "--mode", "montecarlo", "--seed", "1", "--trials", "0"], "--trials"),
        (["run", "--instance", "{missing}", "--policy", "oriented-desc",
          "--mode", "montecarlo", "--seed", "1", "--trials", "-5"], "--trials"),
        (["run", "--instance", "{edge}", "--policy", "oriented-desc",
          "--orientation", "[1]"], "list of [first, second] pairs"),
        (["run", "--instance", "{edge}", "--policy", "oriented-desc",
          "--orientation", '[["a", "b"]'],
         "cannot read orientation from --orientation: Expecting ',' delimiter"),
        (["oracle", "--instance", "{edge}", "--constraint", "oriented",
          "--orientation", '[["a"]]'], "list of [first, second] pairs"),
        (["run", "--instance", "{edge}", "--policy", "oriented-desc",
          "--orientation", "{dir}"], "cannot read orientation"),
        (["check", "--instance", "{edge}", "--enum-bound", "-5"],
         "--enum-bound must be at least 1, got -5"),
        (["run", "--instance", "{edge}", "--policy", "randomized",
          "--enum-bound", "0"], "--enum-bound must be at least 1, got 0"),
        (["run", "--instance", "{edge}", "--policy", "oriented-desc",
          "--orientation", "random:abc"],
         "--orientation random:SEED needs an integer SEED, got 'abc'"),
        (["run", "--instance", "{edge}", "--policy", "best-of-two", "--mode", "montecarlo",
          "--seed", "1"], "best-of-two has no Monte Carlo mode"),
        (["run", "--instance", "{missing}", "--policy", "bundled", "--orientation", "reverse"],
         "--orientation applies only to oriented-desc, not bundled"),
        (["run", "--instance", "{missing}", "--policy", "best-of-two",
          "--orientation", "canonical"], "--orientation applies only to oriented-desc"),
        (["run", "--instance", "{missing}", "--policy", "randomized", "--trace-seed", "3"],
         "--trace-seed needs one runner"),
        (["oracle", "--instance", "{missing}", "--constraint", "bundled",
          "--orientation", "nonsense"], "--orientation applies only to --constraint oriented"),
        (["oracle", "--instance", "{missing}", "--orientation", "reverse"],
         "--orientation applies only to --constraint oriented, not free"),
        (["run", "--instance", "{edge}", "--policy", "bundled", "--seed", "5"],
         "--seed applies only to --mode montecarlo"),
        (["run", "--instance", "{edge}", "--policy", "bundled", "--seed", "5",
          "--trials", "0"], "--seed applies only to --mode montecarlo"),
        (["run", "--instance", "{edge}", "--policy", "oriented-desc", "--trials", "-3"],
         "--trials applies only to --mode montecarlo"),
        (["run", "--instance", "{missing}", "--policy", "randomized", "--mode", "exact",
          "--trials", "10"], "--trials applies only to --mode montecarlo"),
        (["run", "--instance", "{missing}", "--policy", "bundled", "--trace-seed", "3",
          "--format", "csv"], "--trace-seed needs --format json"),
        (["run", "--instance", "{missing}", "--policy", "bundled", "--mode", "montecarlo",
          "--seed", "1", "--enum-bound", "5"], "--enum-bound applies only to --mode exact"),
        (["run", "--instance", "{missing}", "--policy", "bundled", "--mode", "montecarlo",
          "--seed", "18446744073709551617"],
         "--seed must be in [0, 2^64), got 18446744073709551617"),
        (["run", "--instance", "{missing}", "--policy", "bundled", "--mode", "montecarlo",
          "--seed", "-18446744073709551615"],
         "--seed must be in [0, 2^64), got -18446744073709551615"),
        (["run", "--instance", "{missing}", "--policy", "bundled",
          "--trace-seed", "18446744073709551616"],
         "--trace-seed must be in [0, 2^64), got 18446744073709551616"),
        (["run", "--instance", "{missing}", "--policy", "oriented-desc",
          "--orientation", "random:-1"], "--orientation random:SEED must be in [0, 2^64), got -1"),
        (["oracle", "--instance", "{missing}", "--constraint", "oriented",
          "--orientation", "random:18446744073709551616"],
         "--orientation random:SEED must be in [0, 2^64), got 18446744073709551616"),
        (["check", "--instance", "{missing}", "--orientation", "random:18446744073709551616"],
         "--orientation random:SEED must be in [0, 2^64), got 18446744073709551616"),
        (["repro", "--only", "bundled-star", "--n", "25"],
         "needs 33554432 weighted outcomes, above the bound of 2000000; "
         "raise the bound (PANDORA_ENUM_BOUND)"),
        (["repro", "--only", "bundled-star", "--n", "20000"],
         "needs at least 2^20000 weighted outcomes, above the bound of 2000000; "
         "raise the bound (PANDORA_ENUM_BOUND)"),
        (["run", "--instance", "{huge}", "--policy", "bundled"],
         "1" + "0" * 399 + "1 is outside the float range"),
        (["run", "--instance", "{huge}", "--policy", "oriented-desc", "--mode", "montecarlo",
          "--seed", "1", "--trials", "10"], "1" + "0" * 399 + "1 is outside the float range"),
        (["oracle", "--instance", "{huge}"], "1" + "0" * 399 + "1 is outside the float range"),
        (["repro", "--only", "no-dessert-edge", "--alpha", "1e-400", "--format", "csv"],
         "error: " + "9" * 400 + " is outside the float range"),
        (["run", "--instance", "{vertices_int}", "--policy", "bundled"],
         "cannot read instance {vertices_int}: vertices must be a list of vertex names"),
        (["oracle", "--instance", "{vertices_nested}"],
         "cannot read instance {vertices_nested}: vertices must be a list of vertex names"),
    ], ids=["index-missing-file", "index-no-cost", "nested-index-not-tree",
            "index-list", "run-missing-key", "run-list",
            "check-missing-key", "check-edge-list", "check-box-short-of-one",
            "trials-zero", "trials-negative", "orientation-entry-not-pair",
            "orientation-inline-not-json", "orientation-pair-too-short", "orientation-directory",
            "check-enum-bound-negative", "run-enum-bound-zero",
            "orientation-random-seed-not-integer", "best-of-two-montecarlo",
            "run-bundled-orientation", "run-best-of-two-orientation",
            "run-randomized-trace-seed", "oracle-bundled-orientation",
            "oracle-free-orientation", "exact-seed", "exact-seed-trials-zero",
            "exact-trials-negative", "exact-trials", "trace-seed-csv",
            "montecarlo-enum-bound", "seed-above-range", "seed-negative",
            "trace-seed-above-range", "run-random-orientation-seed-negative",
            "oracle-random-orientation-seed-above-range",
            "check-random-orientation-seed-above-range", "repro-enum-bound",
            "repro-enum-bound-huge-count",
            "run-value-out-of-float-range", "montecarlo-value-out-of-float-range",
            "oracle-value-out-of-float-range", "repro-csv-value-out-of-float-range",
            "run-vertices-int", "oracle-vertices-nested"])
    def test_exit_2_with_one_error_line(self, tmp_path, capsys, argv, expected):
        files = {name: str(tmp_path / f"{name}.json")
                 for name in ("missing", "no_cost", "not_tree", "edge", "atoms", "half_edge",
                              "edge_as_list", "short_box", "huge", "vertices_int",
                              "vertices_nested")}
        files["dir"] = str(tmp_path)
        atoms = [{"v": "1", "p": "1"}]
        (tmp_path / "no_cost.json").write_text(json.dumps({"dist": atoms}))
        (tmp_path / "atoms.json").write_text(json.dumps(atoms))
        (tmp_path / "half_edge.json").write_text(json.dumps(
            {"edges": [{"i": "a", "j": "b", "box_ij": {"dist": atoms, "cost": "0"}}]}))
        (tmp_path / "edge_as_list.json").write_text(json.dumps({"edges": [["a", "b"]]}))
        short = {"dist": [{"v": "1", "p": "1/2"}, {"v": "2", "p": "499/1000"}], "cost": "0"}
        (tmp_path / "short_box.json").write_text(json.dumps(
            {"edges": [{"i": "a", "j": "b", "box_ij": short, "box_ji": short}]}))
        (tmp_path / "not_tree.json").write_text(json.dumps({"children": []}))
        (tmp_path / "huge.json").write_text(json.dumps({"edges": [{
            "i": "a", "j": "b", "box_ij": {"dist": [{"v": "1e400", "p": "1"}], "cost": "0"},
            "box_ji": {"dist": atoms, "cost": "0"}}]}))
        (tmp_path / "vertices_int.json").write_text(json.dumps({"vertices": 5, "edges": []}))
        (tmp_path / "vertices_nested.json").write_text(
            json.dumps({"vertices": [["x"]], "edges": []}))
        (tmp_path / "edge.json").write_text(
            json.dumps(no_dessert_edge(F(1, 2)).instance.to_json_obj()))
        code, out, err = run_cli(capsys, *[a.format(**files) for a in argv])
        lines = err.strip().splitlines()
        assert code == 2 and out == ""
        assert (len(lines) == 1 and lines[0].startswith("error:")
                and expected.format(**files) in lines[0])

    @pytest.mark.parametrize("argv, doc, expected", [
        (["run", "--instance", "{doc}", "--policy", "bundled"],
         '{"edges": ' + "[" * DEEP + "]" * DEEP + "}",
         "cannot read instance {doc}: JSON nested too deeply to decode"),
        (["nested-index", "--instance", "{doc}"], deep_tree(DEEP // 3),
         "cannot read tree {doc}: JSON nested too deeply to decode"),
        (["oracle", "--instance", "{edge}", "--constraint", "oriented",
          "--orientation", "{doc}"], "[" * DEEP + "]" * DEEP,
         "cannot read orientation {doc}: JSON nested too deeply to decode"),
        (["run", "--instance", "{edge}", "--policy", "oriented-desc",
          "--orientation", "[" * DEEP + "]" * DEEP], "",
         "cannot read orientation from --orientation: JSON nested too deeply to decode"),
        (["nested-index", "--instance", "{doc}"],
         stage("1", [("x", "1/2", LEAF), ("x", "1/2", LEAF)]), "duplicate branch label 'x'"),
        (["nested-index", "--instance", "{doc}"], stage("-1", [("x", "1", LEAF)]),
         "stage cost must be >= 0, got -1"),
        (["nested-index", "--instance", "{doc}"],
         stage("1", [("x", "1", LEAF), ("y", "0", LEAF)]),
         "branch probability must be positive, got 0"),
        (["nested-index", "--instance", "{doc}"],
         stage("1", [("x", "1", {"value": "1", "cost": "1"})]),
         "cannot read tree {doc}: leaf node must not carry cost or branches"),
        (["nested-index", "--instance", "{doc}"], stage("1", [("x", "1", stage("1", []))]),
         "internal node needs a cost and at least one branch"),
        (["index", "--instance", "{doc}"], '{"dist": [{"v": true, "p": 1}], "cost": 0}',
         "cannot read box {doc}: not a rational: True"),
        (["index", "--instance", "{doc}"], '{"dist": [{"v": null, "p": 1}], "cost": 0}',
         "cannot read box {doc}: not a rational: None"),
        (["index", "--instance", "{doc}"], '{"dist": [{"v": "1/0", "p": 1}], "cost": 0}',
         "cannot read box {doc}: not a rational: '1/0'"),
        (["index", "--instance", "{doc}"], '{"dist": {"v": 1, "p": 1}, "cost": 0}',
         "cannot read box {doc}: distribution JSON must be a list of atoms"),
        (["index", "--instance", "{doc}"], '{"dist": [{"v": 1}], "cost": 0}',
         "cannot read box {doc}: bad atom {'v': 1}"),
        (["run", "--instance", "{doc}", "--policy", "bundled"],
         json.dumps({"edges": [{"i": "a", "j": "a", "box_ij": BOX, "box_ji": BOX}]}),
         "cannot read instance {doc}: self-loop at vertex 'a'"),
    ], ids=["deep-instance", "deep-tree", "deep-orientation-file", "deep-inline-orientation",
            "tree-duplicate-label", "tree-negative-cost", "tree-zero-probability",
            "tree-leaf-with-cost", "tree-stage-without-branches", "rational-true",
            "rational-null", "rational-zero-denominator", "dist-not-list", "atom-without-p",
            "self-loop"])
    def test_malformed_document_exits_2(self, tmp_path, edge_file, capsys, argv, doc, expected):
        path = tmp_path / "doc.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        code, out, err = run_cli(capsys, *[a.replace("{doc}", str(path))
                                           .replace("{edge}", edge_file) for a in argv])
        lines = err.strip().splitlines()
        assert code == 2 and out == ""
        assert (len(lines) == 1 and lines[0].startswith("error:")
                and expected.replace("{doc}", str(path)) in lines[0])

    @pytest.mark.parametrize("box, sigma", [
        ('{"dist": [{"v": 2, "p": 1}], "cost": 1}', "1"),
        ('{"dist": [{"v": 0.1, "p": 1}], "cost": 0.05}', "1/20"),
    ], ids=["json-integers", "json-decimals"])
    def test_json_numbers_are_exact(self, tmp_path, capsys, box, sigma):
        path = tmp_path / "box.json"
        path.write_text(box)
        code, out, _ = run_cli(capsys, "index", "--instance", str(path))
        assert code == 0 and json.loads(out)["sigma"] == sigma

    @pytest.mark.parametrize("command, advice", [
        (["run", "--policy", "bundled"],
         "raise the bound (--enum-bound / PANDORA_ENUM_BOUND) or use Monte Carlo mode"),
        (["run", "--policy", "randomized"],
         "raise the bound (--enum-bound / PANDORA_ENUM_BOUND) or use Monte Carlo mode"),
        (["run", "--policy", "best-of-two"],
         "raise the bound (--enum-bound / PANDORA_ENUM_BOUND)"),
        (["check"], "raise the bound (--enum-bound / PANDORA_ENUM_BOUND)"),
    ], ids=["run", "randomized", "best-of-two", "check"])
    def test_enum_bound_advice_names_only_remedies_the_command_has(
            self, edge_file, capsys, command, advice):
        code, out, err = run_cli(capsys, *command, "--instance", edge_file, "--enum-bound", "1")
        lines = err.strip().splitlines()
        assert code == 2 and out == ""
        assert len(lines) == 1 and lines[0].startswith("error: exact enumeration needs ")
        assert lines[0].endswith(f"above the bound of 1; {advice}")

    @pytest.mark.parametrize("command", [
        ["check"], ["run", "--policy", "bundled"], ["run", "--policy", "oriented-desc"],
        ["run", "--policy", "edge-based"], ["check", "--orientation", "edge-based"],
        ["run", "--policy", "oriented-desc", "--orientation", "edge-based"],
        ["oracle", "--constraint", "oriented", "--orientation", "edge-based"],
        ["run", "--policy", "randomized"], ["run", "--policy", "best-of-two"],
    ], ids=["check", "bundled", "oriented-desc", "edge-based", "check-edge-based-orientation",
            "oriented-desc-edge-based-orientation", "oracle-edge-based-orientation",
            "randomized", "best-of-two"])
    def test_over_the_bound_compiles_no_basket(self, edge_file, tmp_path, capsys, monkeypatch,
                                               command):
        from pandora_matching import instance as instance_mod

        def no_compile(*args):
            raise AssertionError("compiled a basket")

        monkeypatch.setattr(instance_mod, "oriented_basket", no_compile)
        monkeypatch.setattr(instance_mod, "bundled_basket", no_compile)
        if command[0] == "oracle":
            # 7^8 oriented states whichever way each edge points, above 500,000
            coin = {"dist": [{"v": "0", "p": "1/2"}, {"v": "2", "p": "1/2"}], "cost": "0"}
            path = tmp_path / "star.json"
            path.write_text(json.dumps({"edges": [{"i": "h", "j": f"l{k}", "box_ij": coin,
                                                   "box_ji": coin} for k in range(8)]}))
            argv, bound = [*command, "--instance", str(path)], "500000"
        else:
            argv, bound = [*command, "--instance", edge_file, "--enum-bound", "1"], "1"
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and f"above the bound of {bound}" in err

    @pytest.mark.parametrize("env, expected", [
        ("-5", "PANDORA_ENUM_BOUND must be at least 1, got -5"),
        ("lots", "PANDORA_ENUM_BOUND must be an integer, got 'lots'"),
    ], ids=["negative", "not-integer"])
    @pytest.mark.parametrize("command", [["check"], ["run", "--policy", "bundled"]],
                             ids=["check", "run"])
    def test_enum_bound_from_environment(self, edge_file, capsys, monkeypatch,
                                         command, env, expected):
        monkeypatch.setenv("PANDORA_ENUM_BOUND", env)
        code, out, err = run_cli(capsys, *command, "--instance", edge_file)
        lines = err.strip().splitlines()
        assert code == 2 and out == ""
        assert len(lines) == 1 and lines[0] == f"error: {expected}"


def _options(flag, *values):
    """Argv fragments for ``flag``: one per value, plus the flag without a value."""
    return [[flag, v] for v in values] + [[flag]]


# Per subcommand, valid and invalid argv fragments; a required flag may be
# left out, and every subcommand also sees an unknown flag and --help.
FRAGMENTS = {
    "index": _options("--instance", "box.json"),
    "nested-index": _options("--instance", "tree.json"),
    "run": (_options("--instance", "inst.json")
            + _options("--policy", *POLICY_NAMES, "nope")
            + _options("--orientation", "reverse", "random:3")
            + _options("--mode", "exact", "montecarlo", "fast")
            + _options("--seed", "1", "-3", "x")
            + _options("--trials", "10", "1.5", "ten")
            + _options("--enum-bound", "5", "a")
            + _options("--trace-seed", "2", "z")
            + _options("--format", "json", "csv", "xml")
            + [["--with-opt"]]),
    "oracle": (_options("--instance", "inst.json")
               + _options("--constraint", "free", "oriented", "bundled", "nope")
               + _options("--orientation", "canonical")
               + [["--trace"]]),
    "repro": (_options("--only", *ALL_NAMES, "nope")
              + _options("--alpha", "1/8")
              + _options("--n", "3", "x")
              + _options("--m", "2", "2.5")
              + _options("--format", "csv", "xml")),
    "check": (_options("--instance", "inst.json")
              + _options("--orientation", "edge-based")
              + _options("--enum-bound", "7", "many")),
}
ANY = [["--bogus"], ["--help"], ["-h"], ["stray"]]


@st.composite
def argvs(draw):
    command = draw(st.sampled_from([*FRAGMENTS, "nope", None]))
    pool = FRAGMENTS.get(command, []) + ANY
    fragments = draw(st.lists(st.sampled_from(pool), max_size=6))
    return [command] * (command is not None) + [a for f in fragments for a in f]


def parse_outcome(parser, argv):
    """``vars`` of the parsed namespace, or the exit code, with captured output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parser.parse_args(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


class TestSharedParser:
    @settings(deadline=None, max_examples=150)
    @given(st.lists(argvs(), min_size=1, max_size=6))
    def test_parses_as_a_fresh_parser(self, calls):
        for argv in calls:
            assert parse_outcome(cli._shared_parser(), argv) == parse_outcome(
                cli.build_parser(), argv)

    def test_good_call_after_a_failed_one(self, edge_file, capsys):
        good = ["run", "--instance", edge_file, "--policy", "bundled"]
        assert parse_outcome(cli._shared_parser(), good[:-1] + ["nope"])[0] == 2
        assert parse_outcome(cli._shared_parser(), good) == parse_outcome(
            cli.build_parser(), good)
        with pytest.raises(SystemExit) as exc:
            main(good[:-1] + ["nope"])
        assert exc.value.code == 2 and "invalid choice: 'nope'" in capsys.readouterr().err
        code, out, err = run_cli(capsys, *good)
        assert code == 0 and err == "" and json.loads(out)["welfare"]["exact"] == "1/4"

    def test_default_trials_do_not_leak_into_the_next_call(self, edge_file, capsys):
        run = ["run", "--instance", edge_file, "--policy", "bundled"]
        code, out, _ = run_cli(capsys, *run, "--mode", "montecarlo", "--seed", "4")
        assert code == 0 and json.loads(out)["welfare"]["trials"] == 100_000
        assert cli._shared_parser().parse_args(run).trials is None
        code, out, err = run_cli(capsys, *run)
        assert code == 0 and err == "" and json.loads(out)["mode"] == "exact"

    def test_main_builds_no_parser_per_call(self, edge_file, capsys, monkeypatch):
        calls = [["repro", "--only", "no-dessert-edge"],
                 ["run", "--instance", edge_file, "--policy", "oriented-desc"]]
        before = [run_cli(capsys, *argv) for argv in calls]

        def no_parser():
            raise AssertionError("main built a parser")

        monkeypatch.setattr(cli, "build_parser", no_parser)
        after = [run_cli(capsys, *argv) for argv in calls]
        assert after == before and all(code == 0 for code, _, _ in after)


class TestNoReferenceCycles:
    """A call leaves nothing that only the cyclic collector frees, so calls
    in one long-lived process do not run the collector for each other."""

    def test_json_text_matches_json_dumps(self):
        docs = [{}, [], 0, None, "\u00e9\"\n", [[]], {"a": {}, "b": [1, 2.5, float("inf"), True, None],
                                           "c": {"d": (1, [{}]), "e": ""}, "\u00fc": "x"}]
        for doc in docs:
            assert cli._dumps(doc) == json.dumps(doc, indent=2)

    def test_commands_leave_no_cyclic_garbage(self, edge_file, tmp_path, capsys):
        tree = tmp_path / "tree.json"
        tree.write_text(json.dumps(stage("1/4", [("a", "1/2", LEAF), ("b", "1/2", stage(
            "1", [("x", "1/3", {"value": "6"}), ("y", "2/3", {"value": "-2"})]))])))
        mc = ["--mode", "montecarlo", "--seed", "1", "--trials", "50"]
        calls = [["run", "--instance", edge_file, "--policy", p] for p in POLICY_NAMES]
        calls += [["run", "--instance", edge_file, "--policy", p, *extra]
                  for p in POLICY_NAMES if p != "best-of-two" for extra in (mc, ["--trace-seed", "3"])
                  if p != "randomized" or extra is mc]
        calls += [["check", "--instance", edge_file], ["oracle", "--instance", edge_file, "--trace"],
                  ["repro", "--only", "bundled-star", "--n", "3"],
                  ["nested-index", "--instance", str(tree)]]
        run_cli(capsys, *calls[0])   # builds the shared parser
        gc.collect()
        gc.disable()
        try:
            for argv in calls:
                assert run_cli(capsys, *argv)[0] == 0
                assert gc.collect() == 0, argv
        finally:
            gc.enable()
