import csv
import json

import pytest

from ordlam.cli import main
from ordlam.named import alpha_eq, parse_surface


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
                "quantum",
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert code == 1


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
