import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ordlam
from ordlam import bench, cli, machine
from ordlam.cli import main
from ordlam.named import Var, alpha_eq, parse_surface
from ordlam.ordered import DOT, Free, OApp


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestEval:
    def test_motivating_term(self, tmp_path, capsys):
        f = write(tmp_path, "t.lam", r"(\x.\y. a b y) g f")
        assert main(["eval", f]) == 0
        assert capsys.readouterr().out.strip() == "a b f"

    def test_identity_whnf_prints_closure(self, tmp_path, capsys):
        f = write(tmp_path, "t.lam", r"\x.x")
        assert main(["eval", f]) == 0
        assert capsys.readouterr().out.strip() == r"\z0. z0"

    def test_s_applied_to_three(self, tmp_path, capsys):
        f = write(tmp_path, "t.lam", r"(\x.\y.\z. x z (y z)) g f n")
        assert main(["eval", f]) == 0
        assert capsys.readouterr().out.strip() == "g n (f n)"

    @pytest.mark.parametrize("strategy", ["ordered", "closures", "beta-normal"])
    @pytest.mark.parametrize("mode", ["whnf", "nf"])
    def test_strategies_agree_on_surface_output(self, tmp_path, capsys, strategy, mode):
        f = write(tmp_path, "t.lam", r"(\x.\y.\z. x z (y z)) g f n")
        assert main(["eval", f, "--strategy", strategy, "--print", mode]) == 0
        assert capsys.readouterr().out.strip() == "g n (f n)"

    @pytest.mark.parametrize(
        "strategy, mode, expected",
        [(s, "nf", r"\z1. z1") for s in ("ordered", "closures", "beta-normal")]
        # A weak head normal form skips only the names its value reaches:
        # the exact closure of \y. y holds nothing, the scope-wide one
        # still holds z0, and the eager one is the normal form.
        + [
            ("ordered", "whnf", r"\z0. z0"),
            ("closures", "whnf", r"\z1. z1"),
            ("beta-normal", "whnf", r"\z1. z1"),
        ],
    )
    def test_binders_skip_the_inputs_free_names(
        self, tmp_path, capsys, strategy, mode, expected
    ):
        f = write(tmp_path, "t.lam", r"(\x. \y. y) z0")
        assert main(["eval", f, "--strategy", strategy, "--print", mode]) == 0
        assert capsys.readouterr().out == expected + "\n"

    def test_nf_mode_reduces_under_binders(self, tmp_path, capsys):
        f = write(tmp_path, "t.lam", r"\x. (\y. y) x")
        assert main(["eval", f, "--print", "nf"]) == 0
        printed = capsys.readouterr().out.strip()
        assert alpha_eq(parse_surface(printed), parse_surface(r"\x. x"))

    def test_tree_backend(self, tmp_path, capsys):
        f = write(tmp_path, "t.lam", r"(\x.\y. a b y) g f")
        assert main(["eval", f, "--env", "tree"]) == 0
        assert capsys.readouterr().out.strip() == "a b f"

    def test_parse_error_exit_code(self, tmp_path, capsys):
        f = write(tmp_path, "t.lam", "(a b")
        assert main(["eval", f]) == 1
        assert "expected" in capsys.readouterr().err

    def test_fuel_exhaustion_exit_code(self, tmp_path, capsys):
        f = write(tmp_path, "t.lam", r"(\x. x x) (\x. x x)")
        assert main(["eval", f, "--fuel", "100"]) == 2
        assert "fuel exhausted" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--strategy", strategy, "--print", mode]
            for strategy in ("ordered", "closures", "beta-normal")
            for mode in ("whnf", "nf")
        ]
        + [["--env", "tree", "--print", mode] for mode in ("whnf", "nf")],
        ids=lambda flags: "-".join(flags[1::2]),
    )
    def test_fuel_exhaustion_on_every_path(self, tmp_path, capsys, flags):
        f = write(tmp_path, "t.lam", r"(\x. x x) (\x. x x)")
        assert main(["eval", f, "--fuel", "100", *flags]) == 2
        assert capsys.readouterr().err == "fuel exhausted after 100 steps\n"

    def test_env_var_fuel(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ORDLAM_FUEL", "50")
        f = write(tmp_path, "t.lam", r"(\x. x x) (\x. x x)")
        assert main(["eval", f]) == 2
        assert "after 50 steps" in capsys.readouterr().err

    def test_flag_overrides_env_var(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ORDLAM_FUEL", "50")
        f = write(tmp_path, "t.lam", r"(\x. x x) (\x. x x)")
        assert main(["eval", f, "--fuel", "75"]) == 2
        assert "after 75 steps" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "value, message",
        [
            ("abc", "ORDLAM_FUEL is not an integer: 'abc'"),
            ("0", "ORDLAM_FUEL must be positive"),
        ],
    )
    def test_bad_env_var_fuel_exit_1(self, tmp_path, capsys, monkeypatch, value, message):
        monkeypatch.setenv("ORDLAM_FUEL", value)
        f = write(tmp_path, "t.lam", "a")
        assert main(["eval", f]) == 1
        assert capsys.readouterr().err == message + "\n"


class TestConvert:
    def test_to_ordered_golden(self, tmp_path, capsys):
        f = write(tmp_path, "s.lam", r"\x.\y.\z. x z (y z)")
        assert main(["convert", f, "--to", "ordered"]) == 0
        assert (
            capsys.readouterr().out.strip()
            == "(lam (0) (lam (1) (lam (1 1) (app 2 (app 1 . .) (app 1 . .)))))"
        )

    def test_variable_round_trip(self, tmp_path, capsys):
        f = write(tmp_path, "x.lam", "x")
        assert main(["convert", f, "--to", "ordered"]) == 0
        assert capsys.readouterr().out.strip() == "x"

    def test_round_trip_back_to_named(self, tmp_path, capsys):
        f = write(tmp_path, "s.lam", r"\x.\y.\z. x z (y z)")
        main(["convert", f, "--to", "ordered"])
        ordered_text = capsys.readouterr().out
        g = write(tmp_path, "s.ord", ordered_text)
        assert main(["convert", g, "--to", "named"]) == 0
        named = capsys.readouterr().out.strip()
        assert alpha_eq(parse_surface(named), parse_surface(r"\x.\y.\z. x z (y z)"))

    def test_double_conversion_byte_identical(self, tmp_path, capsys):
        f = write(tmp_path, "t.lam", r"(\x.\y. a b y) g (\w. w w)")
        main(["convert", f, "--to", "ordered"])
        first = capsys.readouterr().out
        g = write(tmp_path, "t.ord", first)
        main(["convert", g, "--to", "named"])
        named = capsys.readouterr().out
        h = write(tmp_path, "t2.lam", named)
        main(["convert", h, "--to", "ordered"])
        second = capsys.readouterr().out
        assert first == second

    def test_malformed_ordered_exit_1(self, tmp_path, capsys):
        f = write(tmp_path, "bad.ord", "(app 1 .")
        assert main(["convert", f, "--to", "named"]) == 1

    def test_non_ascii_name_exit_1(self, tmp_path, capsys):
        f = write(tmp_path, "bad.ord", "é")
        assert main(["convert", f, "--to", "named"]) == 1
        assert capsys.readouterr().out == ""

    def test_signed_split_exit_1(self, tmp_path, capsys):
        f = write(tmp_path, "bad.ord", "(app +0 x y)")
        assert main(["convert", f, "--to", "named"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{f}: expected a non-negative integer, got '+0'\n"

    def test_malformed_named_exit_1(self, tmp_path, capsys):
        f = write(tmp_path, "bad.lam", "a (b")
        assert main(["convert", f, "--to", "ordered"]) == 1

    def test_invalid_ordered_exit_4(self, tmp_path, capsys):
        f = write(tmp_path, "bad.ord", "(app 0 . .)")
        assert main(["convert", f, "--to", "named"]) == 4

    def test_unbound_dots_exit_4(self, tmp_path, capsys):
        f = write(tmp_path, "open.ord", ".")
        assert main(["convert", f, "--to", "named"]) == 4


class TestCheck:
    def test_s_applied_passes(self, tmp_path, capsys):
        f = write(tmp_path, "t.lam", r"(\x.\y.\z. x z (y z)) g f n")
        assert main(["check", f]) == 0
        out = capsys.readouterr().out
        assert "RESULT: PASS" in out
        assert "FAIL" not in out

    def test_spine_only_term(self, tmp_path, capsys):
        # Hand-run: one split, a var step per free variable, one spine append.
        f = write(tmp_path, "t.lam", "a b")
        assert main(["check", f]) == 0
        out = capsys.readouterr().out
        assert "steps: 4" in out
        assert "RESULT: PASS" in out

    def test_divergent_term_reports_partial(self, tmp_path, capsys):
        f = write(tmp_path, "t.lam", r"(\x. x x) (\x. x x)")
        assert main(["check", f, "--fuel", "100"]) == 2
        out = capsys.readouterr().out
        assert "fuel exhausted" in out
        assert "RESULT: PASS" in out

    def test_parse_error_exit_code(self, tmp_path, capsys):
        f = write(tmp_path, "t.lam", r"\x.")
        assert main(["check", f]) == 1


class TestBench:
    def test_bench_writes_csv_and_json(self, tmp_path, capsys):
        out = tmp_path / "results"
        code = main(
            [
                "bench",
                "--workload",
                "church-add",
                "--size",
                "16",
                "--reps",
                "2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = list(csv.DictReader((tmp_path / "results.csv").open()))
        data = json.loads((tmp_path / "results.json").read_text())
        assert len(rows) == len(data) == 4
        assert {r["strategy"] for r in rows} == {
            "ordered-list",
            "ordered-tree",
            "closures",
            "beta-normal",
        }
        assert len({r["digest"] for r in rows}) == 1
        for row, obj in zip(rows, data):
            assert row == {k: str(v) for k, v in obj.items()}

    def test_bench_subset_of_strategies(self, tmp_path):
        out = tmp_path / "leak"
        code = main(
            [
                "bench",
                "--workload",
                "leak-family",
                "--size",
                "50",
                "--strategies",
                "ordered-list,closures",
                "--reps",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = list(csv.DictReader((tmp_path / "leak.csv").open()))
        by_strategy = {r["strategy"]: r for r in rows}
        gap = int(by_strategy["closures"]["peak_live_nodes"]) - int(
            by_strategy["ordered-list"]["peak_live_nodes"]
        )
        assert gap >= 50

    def test_unknown_strategy_rejected(self, tmp_path, capsys):
        code = main(
            [
                "bench",
                "--workload",
                "church-add",
                "--size",
                "4",
                "--strategies",
                "ordered-tree,quantum",
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert code == 1
        assert capsys.readouterr() == ("", "unknown strategy 'quantum'\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "out, stem",
        [("exp.v1", "exp.v1"), ("exp.v2.csv", "exp.v2"), ("exp.json", "exp")],
    )
    def test_out_suffix_is_appended_to_the_full_name(self, tmp_path, out, stem):
        argv = ["bench", "--workload", "church-add", "--size", "3", "--reps", "1"]
        assert main(argv + ["--out", str(tmp_path / "runs" / out)]) == 0
        assert sorted(p.name for p in (tmp_path / "runs").iterdir()) == [
            stem + ".csv",
            stem + ".json",
        ]

    def test_empty_strategy_list_rejected(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            [
                "bench",
                "--workload",
                "church-add",
                "--size",
                "3",
                "--strategies",
                ",",
                "--out",
                str(out),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == "no strategies to compare\n"
        assert list(tmp_path.iterdir()) == []


class TestGen:
    def test_gen_writes_parseable_terms(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        assert main(
            ["gen", "--seed", "3", "--count", "5", "--max-size", "20", "--out", str(out)]
        ) == 0
        files = sorted(out.glob("term_*.lam"))
        assert len(files) == 5
        for path in files:
            parse_surface(path.read_text())

    def test_gen_deterministic(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            main(
                [
                    "gen",
                    "--seed",
                    "9",
                    "--count",
                    "4",
                    "--max-size",
                    "25",
                    "--out",
                    str(out),
                ]
            )
        for fa, fb in zip(sorted(a.iterdir()), sorted(b.iterdir())):
            assert fa.read_text() == fb.read_text()


class TestErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "{file}", "--fuel", "0"],
            ["check", "{file}", "--fuel", "0"],
            ["bench", "--workload", "church-add", "--size", "0", "--out", "{out}"],
            ["bench", "--workload", "church-add", "--size", "3", "--reps", "0", "--out", "{out}"],
            ["gen", "--seed", "1", "--count", "1", "--max-size", "0", "--out", "{out}"],
        ],
    )
    def test_non_positive_number_exit_1(self, tmp_path, capsys, argv):
        paths = {"file": write(tmp_path, "t.lam", "a"), "out": str(tmp_path / "out")}
        assert main([arg.format(**paths) for arg in argv]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("bias", ["7", "-0.5", "1.01", "nan"])
    def test_typed_bias_outside_unit_interval_exit_1(self, tmp_path, capsys, bias):
        out = tmp_path / "out"
        argv = ["gen", "--seed", "1", "--count", "3", "--max-size", "10"]
        assert main(argv + ["--typed-bias", bias, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "typed_bias must be between 0 and 1\n"
        assert not out.exists()

    def test_recursion_limit_exit_1(self, tmp_path, capsys, monkeypatch):
        def too_deep(args):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "cmd_eval", too_deep)
        assert main(["eval", write(tmp_path, "t.lam", "a")]) == 1
        assert capsys.readouterr().err == "input nested too deeply to process\n"


class TestInvariantBreach:
    """Exit 3, reached by a fault put into the program."""

    def test_failed_check_obligation(self, tmp_path, capsys, monkeypatch):
        # A weight that never grows fails the obligation on each non-beta step.
        monkeypatch.setattr(machine, "weight", lambda e: 0)
        assert main(["check", write(tmp_path, "t.lam", r"(\x. x) a")]) == 3
        out, err = capsys.readouterr()
        assert out.splitlines()[-1] == "RESULT: FAIL"
        assert err and all(
            line.endswith("weight did not increase") for line in err.splitlines()
        )

    def test_digest_mismatch(self, tmp_path, capsys, monkeypatch):
        wrong = dataclasses.replace(
            bench.STRATEGIES["beta-normal"], whnf=lambda m, fuel: Var("wrong")
        )
        monkeypatch.setitem(bench.STRATEGIES, "beta-normal", wrong)
        argv = ["bench", "--workload", "church-add", "--size", "3", "--reps", "1"]
        argv += ["--strategies", "ordered-tree,beta-normal"]
        assert main(argv + ["--out", str(tmp_path / "runs" / "mismatch")]) == 3
        err = capsys.readouterr().err
        assert err.startswith(
            "refusing to emit records: strategies disagree on church-add size 3: "
        )
        assert not (tmp_path / "runs").exists()

    def test_internal_error_of_any_command(self, tmp_path, capsys, monkeypatch):
        # A translation that leaves a dot unbound: evaluation refuses it.
        monkeypatch.setattr(machine, "parse_closed", lambda m: OApp(DOT, 0, Free("a")))
        assert main(["eval", write(tmp_path, "t.lam", "a")]) == 3
        assert capsys.readouterr().err == (
            "internal invariant breach: "
            "environment has 0 entries, term has 1 unbound dots\n"
        )


class TestFreshInterpreter:
    """Commands in a new interpreter, on its main thread at the default
    recursion limit, on a numeral nested far past that limit."""

    DEPTH = 20_000

    def run(self, *args):
        src = str(Path(ordlam.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        return subprocess.run(
            [sys.executable, "-m", "ordlam.cli", *args],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )

    def numeral_text(self, s, z):
        return f"\\{s}. \\{z}. " + f"{s} (" * (self.DEPTH - 1) + f"{s} {z}" + ")" * (
            self.DEPTH - 1
        )

    @pytest.fixture
    def numeral(self, tmp_path):
        return write(tmp_path, "numeral.lam", self.numeral_text("s", "z"))

    @pytest.mark.parametrize(
        "flags",
        [
            ["--strategy", "ordered", "--env", "list"],
            ["--strategy", "ordered", "--env", "tree"],
            ["--strategy", "closures"],
            ["--strategy", "beta-normal"],
        ],
        ids=lambda flags: "-".join(flags[1::2]),
    )
    def test_eval_normal_form(self, numeral, flags):
        result = self.run("eval", numeral, "--print", "nf", *flags)
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout == self.numeral_text("z0", "z1") + "\n"

    def test_convert_round_trip(self, numeral, tmp_path):
        to_ordered = self.run("convert", numeral, "--to", "ordered")
        assert (to_ordered.returncode, to_ordered.stderr) == (0, "")
        kvec = " ".join(["0"] * self.DEPTH)
        body = "(app 1 . " * self.DEPTH + "." + ")" * self.DEPTH
        assert to_ordered.stdout == f"(lam ({kvec}) (lam ({self.DEPTH}) {body}))\n"
        ordered_file = write(tmp_path, "numeral.ord", to_ordered.stdout)
        to_named = self.run("convert", ordered_file, "--to", "named")
        assert (to_named.returncode, to_named.stderr) == (0, "")
        assert to_named.stdout == self.numeral_text("z0", "z1") + "\n"

    def test_check(self, tmp_path):
        # The identity applied to the numeral: four non-beta steps and a beta.
        f = write(tmp_path, "t.lam", f"(\\n. n) ({self.numeral_text('s', 'z')})")
        result = self.run("check", f)
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout == (
            "steps: 5\n"
            "non-beta steps preserve printed term: PASS (4/4)\n"
            "beta steps take exactly one reduction: PASS (1/1)\n"
            "weight strictly increases on non-beta steps: PASS (4/4)\n"
            f"final: {self.numeral_text('z0', 'z1')}\n"
            "RESULT: PASS\n"
        )
