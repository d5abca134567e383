"""CLI behavior: subcommands, exit codes, bundle-set files and report JSON."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from math import prod
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import event, example, given, settings, strategies as st

import grflop.cli
import grflop.data
from grflop.bundleset import parse_bundle, parse_set_file
from grflop.exceptional import ExceptionalCollection
from grflop.cli import (EXIT_FAIL, EXIT_INTERNAL, EXIT_OK, EXIT_PIPE, EXIT_USAGE,
                        LEVEL_MAX, LR_MAX_BOXES, SUMMANDS_MAX, TABLE_SUMMANDS_MAX,
                        TWISTS_MAX, WEYL_MAX_M, _resolve_set, _summand_bound, build_parser,
                        main)
from grflop.homog import (FL235, GR25, GR35, BundleSum, Cohomology, HomogeneousBundle,
                          _block_tensor, line_bundle, structure_sheaf)
from grflop.report import Report, _write
from grflop.stability import ConeProblem, Ratio, kn_adapted
from grflop.total_space import MODELS, XPLUS, ExtTable, _product, ext_table, stable_cutoff
from grflop.verify import verify_all
from helpers import command_argvs, encode_value, serialize_set_file


class TestBundleLiterals:
    def test_parse_grassmannian(self):
        b = parse_bundle("gr(3,5) u=[2,2,1] q=[0,0] mult=1")
        assert b.space == GR35
        assert b.blocks == ((2, 2, 1), (0, 0))
        assert b.mult == 1

    def test_parse_flag(self):
        b = parse_bundle("fl(2,3;5) b1=[1,1] b2=[1] b3=[0,0] mult=2")
        assert b.space.dims == (2, 3)
        assert b.blocks == ((1, 1), (1,), (0, 0))
        assert b.mult == 2

    def test_mult_optional(self):
        assert parse_bundle("gr(2,5) u=[1,0] q=[0,0,0]").mult == 1

    def test_literal_round_trip(self):
        text = "gr(3,5) u=[2,2,1] q=[0,0] mult=3"
        assert parse_bundle(text).literal() == text
        for bundle in (HomogeneousBundle(GR35, ((2, 2, 1), (0, -1)), 3),
                       HomogeneousBundle(FL235, ((1, 1), (-1,), (0, 0)), 2)):
            assert parse_bundle(bundle.literal()) == bundle

    @pytest.mark.parametrize("bad", [
        "",
        "gr(3,5)",
        "gr(3,5) u=[2,1,2] q=[0,0]",
        "gr(3,5) u=[1,0,0] q=[0,0] extra=[1]",
        "gr(3,5) u=[1,0,0]",
        "sp(3,5) u=[1,0,0] q=[0,0]",
        "gr(3,5) u=[1,0,0] q=[0,0] u=[1,0,0]",
    ])
    def test_parse_errors(self, bad):
        with pytest.raises(ValueError):
            parse_bundle(bad)


class TestSetFiles:
    CANONICAL = (
        "[window]\n"
        "gr(3,5) u=[0,0,0] q=[0,0] mult=1\n"
        "gr(3,5) u=[1,1,1] q=[0,0] mult=1\n"
        "[other]\n"
        "gr(3,5) u=[1,0,0] q=[0,0] mult=2\n"
    )

    def test_canonical_round_trip_is_byte_identical(self):
        sets = parse_set_file(self.CANONICAL)
        assert serialize_set_file(sets) == self.CANONICAL

    def test_comments_and_merging_normalize(self):
        messy = (
            "# a comment\n"
            "[window]\n"
            "gr(3,5) u=[1,1,1] q=[0,0]\n\n"
            "gr(3,5) u=[0,0,0] q=[0,0] mult=1  # inline\n"
            "[other]\n"
            "gr(3,5) u=[1,0,0] q=[0,0]\n"
            "gr(3,5) u=[1,0,0] q=[0,0]\n"
        )
        assert serialize_set_file(parse_set_file(messy)) == self.CANONICAL

    def test_parse_serialize_idempotent(self):
        sets = parse_set_file(self.CANONICAL)
        once = serialize_set_file(sets)
        assert serialize_set_file(parse_set_file(once)) == once

    @pytest.mark.parametrize("bad", [
        "gr(3,5) u=[0,0,0] q=[0,0]\n",      # bundle before section
        "[a]\n[a]\ngr(2,5) u=[0,0] q=[0,0,0]\n",  # duplicate section
        "[a]\n",                              # empty section
    ])
    def test_set_file_errors(self, bad):
        with pytest.raises(ValueError):
            parse_set_file(bad)


class TestExitCodes:
    def test_query_ok(self, capsys):
        assert main(["weyl", "dim", "2,1,0", "3"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "8"

    def test_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["windows", "enumerate", "--side", "east", "--w", "0,0,0"])
        assert err.value.code == EXIT_USAGE

    def test_value_error_becomes_usage_exit(self, capsys):
        assert main(["lr", "mult", "1,2", "1"]) == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_unknown_set_is_usage_error(self, capsys):
        assert main(["ext-total", "--model", "xplus", "--left", "nope",
                     "--right", "o", "--cutoff", "0"]) == EXIT_USAGE
        assert "unknown set" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, names", [
        (["collections", "resolve", "--name", "lascoux-1", "--twists=3..1"], "--twists"),
        (["euler", "compare", "--star", "spade", "--max-l", "-1"], "--max-l"),
        (["weyl", "dim", "1,0", "-1"], "argument m: must be nonnegative"),
        (["windows", "enumerate", "--side", "plus", "--w=1,2"],
         "argument --w: expected three comma-separated integers"),
        (["windows", "member", "--chi", "1,1,1", "--side", "minus", "--w=1,2,3,4"],
         "argument --w: expected three comma-separated integers"),
    ])
    def test_bad_argument_names_itself(self, argv, names, capsys):
        """Out-of-range arguments are usage errors naming the argument, not
        tracebacks (exit 1) or an error from deeper in the program."""
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == EXIT_USAGE
        assert names in capsys.readouterr().err

    def test_weyl_dim_refuses_large_m_before_computing(self, capsys, monkeypatch):
        """An m past WEYL_MAX_M is a usage error raised before weyl_dim runs."""
        def never(*args):
            pytest.fail("weyl_dim was called")
        monkeypatch.setattr(grflop.cli, "weyl_dim", never)
        with pytest.raises(SystemExit) as err:
            main(["weyl", "dim", "1,0", "100000"])
        assert err.value.code == EXIT_USAGE
        assert f"argument m: must be at most {WEYL_MAX_M}, got 100000" in \
            capsys.readouterr().err

    def test_weyl_dim_help_names_the_limit(self, capsys):
        with pytest.raises(SystemExit):
            main(["weyl", "dim", "--help"])
        assert f"at most {WEYL_MAX_M}" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, stubbed, message", [
        (["ext-total", "--model", "xplus", "--left", "spade", "--right", "spade",
          "--cutoff", "100000"], "ext_table",
         f"argument --cutoff: must be at most {LEVEL_MAX}, got 100000"),
        (["euler", "compare", "--star", "spade", "--max-l", "5000"], "euler_cross_check",
         f"argument --max-l: must be at most {LEVEL_MAX}, got 5000"),
    ])
    def test_level_past_limit_refused_before_computing(self, argv, stubbed, message,
                                                      capsys, monkeypatch):
        """A fiber level past LEVEL_MAX is a usage error raised before the
        per-level computation starts."""
        def never(*args):
            pytest.fail(f"{stubbed} was called")
        monkeypatch.setattr(grflop.cli, stubbed, never)
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == EXIT_USAGE
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("n", [WEYL_MAX_M, WEYL_MAX_M + 1, 1000])
    def test_bwb_refuses_large_space_before_computing(self, n, capsys, monkeypatch):
        """A bwb space of ambient n past WEYL_MAX_M is a usage error raised
        before Bott runs; n = WEYL_MAX_M still reaches Bott."""
        calls = []

        def stub(space, weight):
            calls.append(space.n)
            return Cohomology.ACYCLIC
        monkeypatch.setattr(grflop.homog, "bott", stub)
        code = main(["bwb", "cohom", f"gr(1,{n})", "u=[0]", f"q=[{','.join(['0'] * (n - 1))}]"])
        err = capsys.readouterr().err
        if n <= WEYL_MAX_M:
            assert (code, calls, err) == (EXIT_OK, [n], "")
        else:
            assert (code, calls) == (EXIT_USAGE, [])
            assert err == f"error: gr(1,{n}): ambient n must be at most {WEYL_MAX_M}, got {n}\n"

    @pytest.mark.parametrize("l0", [LEVEL_MAX, LEVEL_MAX + 1, 5000])
    def test_auto_cutoff_past_limit_refused_before_computing(self, l0, tmp_path, capsys,
                                                             monkeypatch):
        """ext-total --cutoff auto with a certified l0 past LEVEL_MAX is a
        usage error naming l0 and the limit, raised before any row is
        computed; l0 = LEVEL_MAX still runs."""
        sets = tmp_path / "sets.txt"
        sets.write_text(f"[o]\ngr(3,5) u=[0,0,0] q=[0,0]\n[big]\ngr(3,5) u=[0,0,-{l0}] q=[0,0]\n")
        calls = []

        def stub(model, left, right, cutoff="auto"):
            calls.append(cutoff)
            return ext_table(model, left, right, 0)
        monkeypatch.setattr(grflop.cli, "ext_table", stub)
        code = main(["ext-total", "--model", "xplus", "--left", "o", "--right", "big",
                     "--sets", str(sets)])
        err = capsys.readouterr().err
        if l0 <= LEVEL_MAX:
            assert (code, calls, err) == (EXIT_OK, ["auto"], "")
        else:
            assert (code, calls) == (EXIT_USAGE, [])
            assert err == (f"error: --cutoff auto: the certified l0 = {l0} is past "
                           f"the limit of {LEVEL_MAX} fiber levels\n")

    @pytest.mark.parametrize("left, right, refused", [
        ("gr(3,5) u=[0,0,0] q=[0,0]",
         "\n".join(f"gr(3,5) u=[{a},{a},{a}] q=[0,0]" for a in range(SUMMANDS_MAX)), False),
        ("gr(3,5) u=[0,0,0] q=[0,0]",
         "\n".join(f"gr(3,5) u=[{a},{a},{a}] q=[0,0]" for a in range(SUMMANDS_MAX + 1)), True),
        ("gr(3,5) u=[32,16,0] q=[0,0]", "gr(3,5) u=[32,16,0] q=[0,0]", True),
        ("gr(3,5) u=[40,20,0] q=[0,0]", "gr(3,5) u=[40,20,0] q=[0,0]", True),
    ], ids=["lines-at-limit", "lines-past-limit", "32_16_0", "40_20_0"])
    def test_large_product_refused_before_computing(self, left, right, refused, tmp_path,
                                                    capsys, monkeypatch):
        """ext-total whose bound on the summands of dual(left) (x) right is
        past SUMMANDS_MAX is a usage error raised before any tensor is built:
        O against SUMMANDS_MAX line bundles still runs, against one more it
        does not, and neither does u=[32,16,0] or u=[40,20,0] against
        itself."""
        sets = tmp_path / "sets.txt"
        sets.write_text(f"[a]\n{left}\n[b]\n{right}\n")
        calls = []

        def stub(model, left, right, cutoff="auto"):
            calls.append(cutoff)
            return ext_table(model, left, right, 0)
        monkeypatch.setattr(grflop.cli, "ext_table", stub)
        if refused:
            monkeypatch.setattr(BundleSum, "tensor",
                                lambda *args: pytest.fail("a tensor was built"))
        code = main(["ext-total", "--model", "xplus", "--left", "a", "--right", "b",
                     "--sets", str(sets)])
        err = capsys.readouterr().err
        if not refused:
            assert (code, calls, err) == (EXIT_OK, ["auto"], "")
        else:
            assert (code, calls) == (EXIT_USAGE, [])
            assert err == ("error: --left a --right b: dual(left) (x) right "
                           f"may have more than {SUMMANDS_MAX} summands, the limit\n")

    def test_summand_bound_holds_and_admits_builtin_sets(self):
        """_summand_bound is at least the summand count, with multiplicity,
        of dual(left) (x) right for sums of terms of multiplicity one, and
        every pair of built-in sets is within SUMMANDS_MAX (kapranov against
        itself reaches 183)."""
        names = list(grflop.data.WINDOW_NAMES) + ["kapranov"]
        sums = [grflop.data.window_sum_plus(n) for n in names]
        sums += [parse_set_file(f"[a]\n{text}\n")["a"] for text in (
            "gr(3,5) u=[4,2,0] q=[0,0]", "gr(3,5) u=[8,4,0] q=[3,1]\ngr(3,5) u=[1,0,0] q=[2,0]",
            "gr(2,5) u=[3,1] q=[4,2,0]", "gr(2,5) u=[1,0] q=[0,0,-2]\ngr(2,5) u=[2,2] q=[1,0,0]")]
        for left in sums:
            for right in sums:
                if left.space == right.space:
                    product = left.dual().tensor(right)
                    assert sum(t.mult for t in product) <= _summand_bound(left, right)
        assert max(_summand_bound(a, b) for a in sums[:5] for b in sums[:5]) == 183 \
            <= SUMMANDS_MAX

    def test_set_on_another_base_is_usage_error(self, tmp_path, capsys):
        """A set on gr(4,5) against one on gr(3,5) is a usage error naming the
        model's base, in either order, although the size bound meets blocks
        of different lengths first."""
        sets = tmp_path / "sets.txt"
        sets.write_text("[a]\ngr(4,5) u=[5,0,0,0] q=[0]\n[b]\ngr(3,5) u=[2,1,0] q=[0,0]\n")
        for left, right in (("a", "b"), ("b", "a")):
            assert main(["ext-total", "--model", "xplus", "--left", left, "--right", right,
                         "--sets", str(sets)]) == EXIT_USAGE
            assert capsys.readouterr().err == "error: bundles must live on gr(3,5)\n"

    def test_set_file_read_once_from_a_pipe(self, capsys):
        """--sets may name a pipe, which can be read only once: the file is
        read once for --left and --right together."""
        read_fd, write_fd = os.pipe()
        try:
            os.write(write_fd, b"[d]\ngr(3,5) u=[1,0,0] q=[0,0]\n")
            os.close(write_fd)
            code = main(["ext-total", "--model", "xplus", "--left", "d", "--right", "d",
                         "--sets", f"/dev/fd/{read_fd}", "--cutoff", "0"])
        finally:
            os.close(read_fd)
        out, err = capsys.readouterr()
        assert (code, err) == (EXIT_OK, "")
        assert "any higher cohomology: False" in out

    @pytest.mark.parametrize("left, right", [
        ("gr(3,5) u=[0,0,0] q=[0,0]", "gr(3,5) u=[100,50,0] q=[0,0]"),
        ("gr(3,5) u=[8,4,0] q=[0,0]", "gr(3,5) u=[8,4,0] q=[0,0]"),
    ], ids=["o-100_50_0", "8_4_0"])
    def test_large_row_refused_before_computing(self, left, right, tmp_path, capsys,
                                                monkeypatch):
        """ext-total --cutoff N whose bound on the summands of rows 0..N is
        past TABLE_SUMMANDS_MAX is a usage error raised before any row is
        built, although the summands of dual(left) (x) right are within
        SUMMANDS_MAX: 140,226 and 113,685."""
        sets = tmp_path / "sets.txt"
        sets.write_text(f"[a]\n{left}\n[b]\n{right}\n")
        monkeypatch.setattr(grflop.cli, "ext_table",
                            lambda *args: pytest.fail("ext_table was called"))
        code = main(["ext-total", "--model", "xplus", "--left", "a", "--right", "b",
                     "--sets", str(sets), "--cutoff", str(LEVEL_MAX)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: --cutoff {LEVEL_MAX}: rows 0..{LEVEL_MAX} may have more than "
            f"{TABLE_SUMMANDS_MAX} summands in all, the limit\n")

    def test_builtin_sets_run_at_the_level_limit(self, monkeypatch):
        """Every pair of built-in sets reaches ext_table at --cutoff LEVEL_MAX,
        and at --cutoff auto."""
        calls = []

        def stub(model, left, right, cutoff="auto"):
            calls.append(cutoff)
            return ext_table(model, left, right, 0)
        monkeypatch.setattr(grflop.cli, "ext_table", stub)
        names = ("o",) + grflop.data.WINDOW_NAMES + ("kapranov",)
        pairs = [("xplus", a, b) for a in names for b in names] + [("xminus", "o", "o")]
        for model, left, right in pairs:
            for cutoff in (str(LEVEL_MAX), "auto"):
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(["ext-total", "--model", model, "--left", left, "--right",
                                 right, "--cutoff", cutoff]) == EXIT_OK
        assert calls == [LEVEL_MAX, "auto"] * len(pairs)

    def test_table_bound_holds(self):
        """_summand_bound of a product against term(0..12) is at least the
        block-product pairs that rows 0..12 walk, for every pair of built-in
        sets on xplus, o on xminus, and sums with multiplicities above 1 on
        both models."""
        names = ("o",) + grflop.data.WINDOW_NAMES + ("kapranov",)
        sums = {"xplus": [_resolve_set(n, None, None, GR35) for n in names],
                "xminus": [_resolve_set("o", None, None, GR25)]}
        for model, text in (
                ("xplus", "gr(3,5) u=[2,1,0] q=[1,-1] mult=3\ngr(3,5) u=[0,0,-2] q=[0,0]"),
                ("xminus", "gr(2,5) u=[1,0] q=[0,0,-2] mult=2\ngr(2,5) u=[2,2] q=[1,0,0]")):
            sums[model].append(parse_set_file(f"[a]\n{text}\n")["a"])
        for name, model_sums in sums.items():
            model = MODELS[name]
            terms = [model.term(l) for l in range(13)]
            for left in model_sums:
                for right in model_sums:
                    product = _product(model, left, right)
                    work = sum(prod(len(_block_tensor(x, y, len(x)))
                                    for x, y in zip(t.blocks, term.blocks))
                               for term in terms for t in product)
                    assert work <= _summand_bound(product, terms, 10 ** 9)

    @pytest.mark.parametrize("right, bound, rows", [
        ("u=[50,0,-50] q=[0,0]", 23426, 23426),
        ("u=[37,0,-37] q=[0,0]", 9880, 9880),
        ("u=[0,0,-100] q=[0,0]", 9343, 5151),
    ])
    def test_table_bound_values(self, right, bound, rows):
        """o against one bundle on xplus, rows 0..l0: the bound equals the
        summand count for u=[50,0,-50] and u=[37,0,-37], and is 9,343 against
        5,151 for u=[0,0,-100]."""
        right = parse_bundle(f"gr(3,5) {right}")
        table = ext_table(XPLUS, structure_sheaf(GR35), right)
        terms = [XPLUS.term(l) for l in range(table.cutoff + 1)]
        assert _summand_bound((right,), terms, 10 ** 9) == bound
        assert sum(len(entries) for _, entries in table.rows) == rows

    @pytest.mark.parametrize("model, left, right, l0, bound", [
        ("xplus", "gr(3,5) u=[0,0,0] q=[0,0]", "gr(3,5) u=[50,0,-50] q=[0,0]", 50, 23426),
        ("xplus", "gr(3,5) u=[0,0,0] q=[0,0]", "gr(3,5) u=[0,0,-100] q=[0,0]", 100, 9343),
        ("xplus", "gr(3,5) u=[0,0,0] q=[0,0]", "gr(3,5) u=[37,0,-37] q=[0,0]", 37, 9880),
        ("xminus", "gr(2,5) u=[0,0] q=[0,0,0]", "gr(2,5) u=[0,0] q=[40,0,-40]", 40, 12341),
        ("xminus", "gr(2,5) u=[0,0] q=[0,0,0]", "gr(2,5) u=[0,0] q=[37,0,-37]", 37, 9880),
        ("xplus", "gr(3,5) u=[16,8,0] q=[0,0]", "gr(3,5) u=[16,8,0] q=[0,0]", 16, 96609),
    ], ids=["50_0_-50", "0_0_-100", "37_0_-37", "minus-40", "minus-37", "16_8_0"])
    def test_auto_cutoff_large_row_refused_before_computing(
            self, model, left, right, l0, bound, tmp_path, capsys, monkeypatch):
        """--cutoff auto and --cutoff l0 run the same rows 0..l0, so they make
        the same decision: each reaches ext_table when the bound on those rows
        is within TABLE_SUMMANDS_MAX, and each is refused before any row is
        built, naming the rows and the limit on their total, when it is past."""
        sets = tmp_path / "sets.txt"
        sets.write_text(f"[a]\n{left}\n[b]\n{right}\n")
        a, b = parse_set_file(sets.read_text()).values()
        product = _product(MODELS[model], a, b)
        terms = [MODELS[model].term(l) for l in range(l0 + 1)]
        assert stable_cutoff(MODELS[model], a, b).l0 == l0
        assert _summand_bound(product, terms, 10 ** 9) == bound
        for cutoff in ("auto", l0):
            calls = []

            def stub(model, left, right, cutoff="auto"):
                calls.append(cutoff)
                return ext_table(model, left, right, 0)
            monkeypatch.setattr(grflop.cli, "ext_table", stub)
            code = main(["ext-total", "--model", model, "--left", "a", "--right", "b",
                         "--sets", str(sets), "--cutoff", str(cutoff)])
            err = capsys.readouterr().err
            if bound <= TABLE_SUMMANDS_MAX:
                assert (code, calls, err) == (EXIT_OK, [cutoff], "")
            else:
                assert (code, calls) == (EXIT_USAGE, [])
                assert err == (f"error: --cutoff {cutoff}: rows 0..{l0} may have more than "
                               f"{TABLE_SUMMANDS_MAX} summands in all, the limit\n")

    def test_auto_and_numeric_cutoff_print_the_same_rows(self, tmp_path, capsys):
        """o against u=[0,0,-100]: --cutoff auto (l0 = 100) and --cutoff 100
        both run and print the same 101 rows."""
        sets = tmp_path / "sets.txt"
        sets.write_text("[o]\ngr(3,5) u=[0,0,0] q=[0,0]\n[b]\ngr(3,5) u=[0,0,-100] q=[0,0]\n")
        outs = []
        for cutoff in ("auto", "100"):
            assert main(["ext-total", "--model", "xplus", "--left", "o", "--right", "b",
                         "--sets", str(sets), "--cutoff", cutoff]) == EXIT_OK
            outs.append(capsys.readouterr().out.splitlines())
        assert [out[0] for out in outs] == ["model xplus, cutoff 100 (auto, l0=100)",
                                            "model xplus, cutoff 100"]
        assert outs[0][1:] == outs[1][1:]
        assert outs[0][-2].startswith("  level 100  degree 0  dim ")

    def test_level_limit_is_inclusive(self):
        parser = build_parser()
        args = parser.parse_args(["ext-total", "--model", "xplus", "--left", "o",
                                  "--right", "o", "--cutoff", str(LEVEL_MAX)])
        assert args.cutoff == LEVEL_MAX
        args = parser.parse_args(["euler", "compare", "--star", "spade",
                                  "--max-l", str(LEVEL_MAX)])
        assert args.max_l == LEVEL_MAX

    @pytest.mark.parametrize("argv", [["ext-total", "--help"],
                                      ["euler", "compare", "--help"]])
    def test_level_help_names_the_limit(self, argv, capsys):
        with pytest.raises(SystemExit):
            main(argv)
        assert f"at most {LEVEL_MAX}" in " ".join(capsys.readouterr().out.split())

    @pytest.mark.parametrize("argv", [["lr", "mult", "20,15,10,5", "18,12,6,2"],
                                      ["lr", "coeff", "38,27,16,7", "20,15,10,5", "18,12,6,2"]])
    def test_lr_past_box_limit_refused_before_computing(self, argv, capsys, monkeypatch):
        """More than LR_MAX_BOXES boxes in lam and mu is a usage error raised
        before the LR product starts."""
        def never(*args):
            pytest.fail("the LR product was computed")
        for module, name in ((grflop.cli, "lr_mult"), (grflop.cli, "lr_coefficient"),
                             (grflop.partitions, "lr_mult")):
            monkeypatch.setattr(module, name, never)
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == EXIT_USAGE
        assert f"argument mu: |lam| + |mu| must be at most {LR_MAX_BOXES}, got 88" in \
            capsys.readouterr().err

    def test_lr_box_limit_is_inclusive(self, capsys):
        half = LR_MAX_BOXES // 2
        args = build_parser().parse_args(["lr", "mult", str(half), str(LR_MAX_BOXES - half)])
        assert sum(args.lam) + sum(args.mu) == LR_MAX_BOXES
        with pytest.raises(SystemExit):
            main(["lr", "mult", str(half), str(LR_MAX_BOXES - half + 1)])
        with pytest.raises(SystemExit):
            main(["lr", "coeff", "--help"])
        assert f"at most {LR_MAX_BOXES}" in " ".join(capsys.readouterr().out.split())

    @pytest.mark.parametrize("twists", ["0..10000000", f"1..{TWISTS_MAX + 1}",
                                        f"-{10 ** 40}..{10 ** 40}"])
    def test_twists_past_limit_refused_before_computing(self, twists, capsys, monkeypatch):
        """More than TWISTS_MAX twists is a usage error raised before any
        twist is checked."""
        monkeypatch.setattr(grflop.cli, "check_resolution",
                            lambda *args: pytest.fail("check_resolution was called"))
        with pytest.raises(SystemExit) as err:
            main(["collections", "resolve", "--name", "lascoux-1", f"--twists={twists}"])
        assert err.value.code == EXIT_USAGE
        assert f"argument --twists: at most {TWISTS_MAX} twists, got" in \
            capsys.readouterr().err

    def test_twists_limit_is_inclusive(self):
        args = build_parser().parse_args(["collections", "resolve", "--name", "lascoux-1",
                                          f"--twists=1..{TWISTS_MAX}"])
        assert args.twists == range(1, TWISTS_MAX + 1)

    def test_internal_error_exit(self, capsys, monkeypatch):
        """An exception that is not a usage error is a bug: exit 3 and one
        line on stderr, never a traceback or the check-failed code."""
        def broken(*args):
            raise RuntimeError("boom")
        monkeypatch.setattr(grflop.cli, "weyl_dim", broken)
        assert main(["weyl", "dim", "2,1,0", "3"]) == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert err == "internal error: RuntimeError: boom\n"
        assert "Traceback" not in err

    def test_check_failure_exit(self, capsys, monkeypatch):
        corrupted = dict(grflop.data.PLUS_SETS)
        corrupted["spade"] = corrupted["spade"][:-1] + ((-5, -5, -5),)
        monkeypatch.setattr(grflop.data, "PLUS_SETS", corrupted)
        assert main(["tilting", "check", "--model", "xplus",
                     "--window", "spade"]) == EXIT_FAIL
        out = capsys.readouterr().out
        assert "NOT pretilting" in out and "witness" in out

    def test_kn_strata_failure_exit(self, tmp_path, capsys, monkeypatch):
        """A stratum that fails revalidation is a failed check: the FAIL line,
        exit 1 and a report with one failed check."""
        corrupted = [dict(r) for r in grflop.data.KN_STRATA["minus"]]
        corrupted[0]["value_sq"] = (99, 1)
        monkeypatch.setitem(grflop.data.KN_STRATA, "minus", corrupted)
        out = tmp_path / "strata.json"
        assert main(["kn", "strata", "--side", "minus", "--json", str(out)]) == EXIT_FAIL
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("FAIL: stratum 'covector vanishes' failed validation")
        assert lines[1:] == ["FAIL (1 of 1 checks)"]
        assert json.loads(out.read_text())["summary"] == {"fail": 1, "info": 0, "pass": 0}

    def test_verify_all_kn_failure(self, capsys, monkeypatch):
        """The same corrupted stratum in verify-all: its kn-* check fails with
        the solver's answer in `got`, kn-strata-minus fails with the error
        `kn strata` prints, and kn-strata-plus still passes."""
        corrupted = [dict(r) for r in grflop.data.KN_STRATA["minus"]]
        corrupted[0]["value_sq"] = (99, 1)
        monkeypatch.setitem(grflop.data.KN_STRATA, "minus", corrupted)
        checks = {c["id"]: c for c in verify_all().checks}
        record = corrupted[0]
        kn = checks[f"kn-{record['character']}-{'_'.join(record['supports'])}"]
        assert kn["status"] == "fail"
        solved = kn_adapted(ConeProblem(record["supports"], record["character"]))
        assert kn["payload"]["got"] == solved
        assert solved.value_sq != 99

        capsys.readouterr()
        assert main(["kn", "strata", "--side", "minus"]) == EXIT_FAIL
        printed = capsys.readouterr().out.splitlines()[0]
        strata = checks["kn-strata-minus"]
        assert strata["status"] == "fail"
        assert printed == f"FAIL: {strata['payload']['error']}"
        assert checks["kn-strata-plus"]["status"] == "pass"

    def test_closed_stdout_exit(self):
        """A reader that closes stdout early gets exit 141 and nothing on
        stderr.  The output (about 111 KB) overfills a 64 KiB pipe buffer,
        so the write meets the closed pipe whatever the timing."""
        src = str(Path(grflop.cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen(
            [sys.executable, "-m", "grflop.cli", "ext-total", "--model", "xplus",
             "--left", "spade", "--right", "spade", "--json", "-"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == EXIT_PIPE == 141
        assert err == b""


class TestCommands:
    def test_bwb_acyclic(self, capsys):
        assert main(["bwb", "cohom", "gr(2,5)", "u=[0,0]", "q=[3,3,3]"]) == EXIT_OK
        assert "acyclic" in capsys.readouterr().out

    def test_ext_total_json(self, tmp_path, capsys):
        out = tmp_path / "ext.json"
        assert main(["ext-total", "--model", "xplus", "--left", "spade",
                     "--right", "spade", "--cutoff", "auto",
                     "--json", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        table = payload["checks"][0]["payload"]
        assert table["any_higher_cohomology"] is False
        assert table["certificate"]["l0"] == 4
        # Each term's cohomology, acyclic or not, is its Cohomology.as_json.
        seen = set()
        for term in (term for row in table["rows"] for term in row["terms"]):
            c = parse_bundle(term["bundle"]).cohomology()
            expected = {"acyclic": True} if c.is_acyclic else \
                {"acyclic": False, "degree": c.degree, "weight": list(c.weight), "dim": c.dim}
            assert term["cohomology"] == expected == encode_value(c)
            seen.add(c.is_acyclic)
        assert seen == {True, False}

    def test_ext_total_with_set_file(self, tmp_path, capsys):
        sets = tmp_path / "sets.txt"
        sets.write_text("[mine]\ngr(3,5) u=[0,0,0] q=[0,0] mult=1\n")
        assert main(["ext-total", "--model", "xplus", "--left", "mine",
                     "--right", "mine", "--sets", str(sets),
                     "--cutoff", "0"]) == EXIT_OK
        assert "any higher cohomology: False" in capsys.readouterr().out

    def test_suite(self, capsys):
        assert main(["suite", "minus-vanishing"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_windows_member(self, capsys):
        assert main(["windows", "member", "--chi", "1,1,1", "--side", "minus",
                     "--w=-7,-5,-2"]) == EXIT_OK
        assert "member" in capsys.readouterr().out

    def test_kn_solve_nonnegative(self, capsys):
        assert main(["kn", "solve", "--character", "minus",
                     "--support", "u1,u2,u3,q1,q2,q3"]) == EXIT_OK
        assert "nonnegative" in capsys.readouterr().out

    def test_collections_check(self, capsys):
        assert main(["collections", "check", "--name", "prop31-1"]) == EXIT_OK

    def test_collections_check_prints_violations(self, capsys, monkeypatch):
        """A failing collection prints one line per violation and exits 1."""
        failing = ExceptionalCollection("prop31-1", GR25, (
            line_bundle(GR25, 5), structure_sheaf(GR25).with_mult(2)))
        monkeypatch.setattr(grflop.cli, "builtin_collection", lambda name: failing)
        assert main(["collections", "check", "--name", "prop31-1"]) == EXIT_FAIL
        assert capsys.readouterr().out.splitlines() == [
            "collection prop31-1: FAILS (2 objects)",
            "  strongness: objects (0 -> 1), degree 6, dim 2",
            "  semiorthogonality: objects (1 -> 0), degree 0, dim 2352",
            "  exceptional: objects (1 -> 1), degree 0, dim 4",
            "FAIL (1 of 1 checks)",
        ]

    def test_collections_resolve(self, capsys):
        assert main(["collections", "resolve", "--name", "lascoux-3",
                     "--twists=-3..3"]) == EXIT_OK

    def test_euler_compare(self, capsys):
        assert main(["euler", "compare", "--star", "spade", "--max-l", "2"]) == EXIT_OK


class _AsJson:
    """A payload object that encodes as the tree it holds."""

    def __init__(self, tree):
        self.tree = tree

    def as_json(self):
        return self.tree


_PAYLOADS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.builds(Ratio, st.integers(), st.integers(1, 50)),
    lambda inner: (st.lists(inner, max_size=3) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=3)
                   | st.builds(_AsJson, inner)),
    max_leaves=12)

# Any code point, lone surrogates and control characters included.
_TEXT = st.text(st.characters(codec=None, exclude_categories=()), max_size=12)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | _TEXT,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=20)


_JSON_COMMANDS = [words for words, _, specs, _ in grflop.cli.COMMANDS
                  if any("--json" in flags for flags, _ in specs)]


class TestReports:
    @given(_JSON_VALUES)
    @settings(max_examples=500, deadline=None)
    @example("\x00\x1f\x7f\x80\u00e9\u2028\ud800\U0001f600\"\\\b\f\n\r\t")
    def test_writer_is_json_dumps(self, value):
        """The report writer gives the bytes of json.dumps with indent 2 and
        sorted keys, escapes of every kind included."""
        parts = []
        _write(value, parts.append, "")
        assert "".join(parts) == json.dumps(value, indent=2, sort_keys=True)

    def test_writer_batches_fragments(self):
        """Report.write gives the sink the writer's fragments joined in a few
        KB apiece, so that a sink that writes through (python -u, a terminal)
        makes tens of system calls for verify-all's report, not thousands."""
        report = verify_all()
        parts, calls = [], []
        _write(report.as_json(), parts.append, "")
        report.write(SimpleNamespace(write=calls.append))
        assert "".join(calls) == "".join(parts) + "\n"
        assert len(calls) == len(parts) // 128 + 1 < 40

    def test_writer_memory_is_flat(self):
        """Report.write streams: its traced peak for verify-all's checks eight
        times over stays below twice the peak for one copy, where holding the
        text would grow with it."""
        checks = verify_all().checks
        peaks = []
        with open(os.devnull, "w", encoding="utf-8") as fh:
            for copies in (1, 8):
                report = Report("verify-all")
                report.checks = checks * copies
                report.write(fh)  # fills the escape table before tracing
                tracemalloc.start()
                try:
                    report.write(fh)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        assert peaks[1] < 2 * peaks[0], peaks

    def test_schema_valid(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        from importlib import resources
        schema = json.loads(
            resources.files("grflop").joinpath("report_schema.json").read_text())
        out = tmp_path / "r.json"
        main(["windows", "enumerate", "--side", "plus", "--w=-7,-4,-1",
              "--json", str(out)])
        payload = json.loads(out.read_text())
        jsonschema.validate(payload, schema)

    def test_verify_all_report_schema_valid(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        from importlib import resources
        schema = json.loads(
            resources.files("grflop").joinpath("report_schema.json").read_text())
        out = tmp_path / "all.json"
        assert main(["verify-all", "--json", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        jsonschema.validate(payload, schema)
        assert payload["summary"]["fail"] == 0

    def test_verify_all_bytes_across_hash_seeds(self, tmp_path):
        """verify-all --json writes the same bytes in fresh processes under
        different hash seeds, and those bytes are the pinned report."""
        src = str(Path(grflop.cli.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        reports = []
        for seed in ("0", "7"):
            out = tmp_path / f"verify-{seed}.json"
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=pythonpath)
            subprocess.run([sys.executable, "-m", "grflop.cli", "verify-all", "--json", str(out)],
                           env=env, check=True, capture_output=True, timeout=300)
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        assert hashlib.md5(reports[0]).hexdigest() == "fa9f08ecafeb9362091ad9db3fdd32c2"

    def test_fraction_encoding(self, tmp_path):
        out = tmp_path / "kn.json"
        main(["kn", "solve", "--character", "minus", "--support", "q3",
              "--json", str(out)])
        payload = json.loads(out.read_text())
        solution = payload["checks"][0]["payload"]
        assert solution["value_sq"] == {"num": 2, "den": 9}
        assert solution["minimizer"] == [1, 1, -4]

    def test_report_has_no_timestamps(self):
        report = Report("probe", {"x": 1})
        report.add("c", "info", {})
        payload = report.as_json()
        assert set(payload) == {"tool", "version", "schema_version", "command",
                                "input", "checks", "summary"}

    @given(st.tuples(st.integers(-10, 10), st.integers(-10, 10),
                     st.integers(-10, 10)),
           st.sampled_from(["plus", "minus"]))
    @settings(max_examples=1000, deadline=None)
    def test_json_determinism(self, w, side):
        """Identical inputs produce byte-identical reports."""
        from grflop.stability import hl_enumerate

        def render():
            report = Report("windows enumerate", {"side": side, "w": list(w)})
            report.add("weights", "info",
                       [list(x) for x in hl_enumerate(w, side)])
            return report.to_json_text()

        assert render() == render()

    @given(st.lists(st.tuples(st.text(max_size=8), st.sampled_from(["pass", "fail", "info"]),
                              _PAYLOADS), max_size=4),
           st.dictionaries(st.text(max_size=8), _PAYLOADS, max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_single_pass_matches_reference(self, checks, echo):
        """to_json_text writes what encoding each payload first, then dumping
        the tree with sorted keys, writes."""
        report = Report("probe", echo)
        for check_id, status, payload in checks:
            report.add(check_id, status, payload)
        reference = json.dumps(encode_value(report.as_json()), indent=2, sort_keys=True) + "\n"
        assert report.to_json_text() == reference

    def test_ext_total_encodes_only_for_json(self, tmp_path, monkeypatch, capsys):
        """The table becomes JSON when the report is written, and not before."""
        calls = []
        as_json = ExtTable.as_json
        monkeypatch.setattr(ExtTable, "as_json", lambda self: calls.append(1) or as_json(self))
        argv = ["ext-total", "--model", "xplus", "--left", "spade", "--right", "spade"]
        assert main(argv) == EXIT_OK
        assert calls == []
        assert main(argv + ["--json", str(tmp_path / "ext.json")]) == EXIT_OK
        assert calls == [1]

    @pytest.mark.parametrize("words", _JSON_COMMANDS, ids=" ".join)
    def test_json_is_canonical(self, words, tmp_path, capsys):
        """Every command with --json writes the file that json.dumps with
        indent 2 and sorted keys writes of its contents."""
        argv = next(a for a in command_argvs(tmp_path) if tuple(a[:len(words)]) == words)
        if "--json" not in argv:
            argv += ["--json", str(tmp_path / "report.json")]
        assert main(argv) == EXIT_OK
        text = Path(argv[argv.index("--json") + 1]).read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("words", _JSON_COMMANDS, ids=" ".join)
    def test_one_writer(self, words, tmp_path, capsys, monkeypatch):
        """--json PATH and --json - write the bytes of to_json_text() of the
        same report."""
        reports = []
        write = Report.write
        monkeypatch.setattr(Report, "write",
                            lambda self, fh: reports.append(self) or write(self, fh))
        argv = next(a for a in command_argvs(tmp_path) if tuple(a[:len(words)]) == words)
        if "--json" in argv:
            argv = argv[:argv.index("--json")]
        path = tmp_path / "report.json"
        assert main(argv + ["--json", str(path)]) == EXIT_OK
        assert path.read_text() == reports[-1].to_json_text()
        capsys.readouterr()
        assert main(argv + ["--json", "-"]) == EXIT_OK
        assert reports[-1].to_json_text() in capsys.readouterr().out

    @pytest.mark.parametrize("sink", ["file", "-"])
    def test_internal_error_mid_stream(self, sink, tmp_path, capsys, monkeypatch):
        """A payload that raises while the report is being written, after
        earlier checks went out, is still exit 3 with one line on stderr;
        the sink keeps what was written before it."""
        class Broken:
            def as_json(self):
                raise RuntimeError("boom")

        report = Report("verify-all")
        report.add("written-first", "pass", {"n": 1})
        report.add("broken", "pass", Broken())
        monkeypatch.setattr(grflop.cli, "verify_all", lambda: report)
        path = tmp_path / "report.json"
        assert main(["verify-all", "--json", str(path) if sink == "file" else "-"]) \
            == EXIT_INTERNAL
        out, err = capsys.readouterr()
        assert err == "internal error: RuntimeError: boom\n"
        written = path.read_text() if sink == "file" else out
        assert '"id": "written-first"' in written and '"summary"' not in written


# ---------------------------------------------------------------- argv fuzzer

_JUNK = st.sampled_from(["", "x", "nope", "1,,2", "1.5", "-", "..", "3..1", "0..",
                         "9" * 40, "auto", "-1", "1,2,3,4,5"])


def _ints(lo, hi, min_size, max_size, decreasing=True):
    """Comma-separated integers, weakly decreasing unless told otherwise."""
    order = (lambda xs: sorted(xs, reverse=True)) if decreasing else list
    return st.lists(st.integers(lo, hi), min_size=min_size, max_size=max_size).map(
        lambda xs: ",".join(map(str, order(xs))))


# Hypothesis favors the simplest draw (0, False, the first element), so each
# choice below is arranged to make the simplest draw a well-formed argv.
def _value(good):
    """Mostly a value from `good`, now and then a malformed one."""
    return st.integers(0, 7).flatmap(lambda k: _JUNK if k == 7 else good)


def _pick(*choices):
    return _value(st.sampled_from(choices))


_SIDES = _pick("plus", "minus")
_WINDOWS = ("spade", "heart", "club", "diamond", "kapranov")
_GR_LITERAL = st.integers(2, 3).flatmap(lambda k: st.tuples(
    st.just(f"gr({k},5)"), _ints(-3, 3, k, k).map("u=[{}]".format),
    _ints(-3, 3, 5 - k, 5 - k).map("q=[{}]".format)).map(list))
_BUNDLE_WORDS = st.lists(_pick("gr(3,5)", "fl(2,3;5)", "u=[1,0,0]", "q=[0,0]", "b1=[1,1]",
                               "b2=[1]", "b3=[0,0]", "mult=2"), max_size=5)

# (command words, positional strategies, {option: strategy}); positionals may
# also be a single list strategy (bwb's bundle words).
_COMMANDS = [
    (["lr", "mult"], [_value(_ints(0, 5, 0, 4))] * 2, {}),
    (["lr", "coeff"], [_value(_ints(0, 6, 0, 5))] + [_value(_ints(0, 4, 0, 3))] * 2, {}),
    (["weyl", "dim"], [_value(_ints(-3, 5, 1, 3)), _value(st.integers(0, 6).map(str))], {}),
    (["bwb", "cohom"], st.one_of(_GR_LITERAL, _BUNDLE_WORDS), {}),
    (["ext-total"], [], {"--model": _pick("xplus", "xminus"),
                         "--left": _pick("o", "spade", "kapranov"),
                         "--right": _pick("o", "heart"),
                         "--cutoff": _value(st.sampled_from(
                             ["auto", "0", "1", "2", "100", "101"]))}),
    (["tilting", "check"], [], {"--model": _pick("xplus"),
                                "--window": _pick(*_WINDOWS)}),
    (["suite", "minus-vanishing"], [], {}),
    (["euler", "compare"], [], {"--star": _pick(*_WINDOWS),
                                "--max-l": _value(st.integers(-1, 2).map(str))}),
    (["windows", "enumerate"], [], {"--side": _SIDES,
                                    "--w": _value(_ints(-8, 2, 3, 3, decreasing=False))}),
    (["windows", "member"], [], {"--chi": _value(_ints(-3, 3, 3, 3)), "--side": _SIDES,
                                 "--w": _value(_ints(-8, 2, 3, 3, decreasing=False))}),
    (["kn", "solve"], [], {"--character": _pick("plus", "minus"),
                           "--support": _pick("", "q1", "u1,q2", "q1,q2,q3,u3")}),
    (["kn", "strata"], [], {"--side": _SIDES}),
    (["collections", "check"], [], {"--name": _pick("prop31-1", "lef-gr25")}),
    (["collections", "resolve"], [], {"--name": _pick("lascoux-1", "lascoux-3"),
                                      "--twists": _value(st.sampled_from(
                                          ["-1..1", "0", "2..2", "1..0"]))}),
    (["verify-all"], [], {}),
]


@st.composite
def _argv(draw):
    words, positionals, options = draw(st.sampled_from(_COMMANDS))
    argv = list(words)
    if isinstance(positionals, list):
        argv += [draw(p) for p in positionals]
    else:
        argv += draw(positionals)
    for flag, values in options.items():
        if draw(st.integers(0, 15)) < 15:  # usually present, sometimes missing
            value = draw(values)
            argv += [flag, value] if draw(st.booleans()) else [f"{flag}={value}"]
    json_flag = draw(st.booleans()) or argv[0] not in ("lr", "weyl")
    argv += draw(st.sampled_from([[]] * 5 + [["--bogus"], ["extra"], ["--help"]]))
    return argv, json_flag


@given(_argv())
@settings(max_examples=100, deadline=None)
def test_argv_fuzz_exit_codes(drawn):
    """Any argv exits 0, 1 or 2 without a traceback, and exits 1 exactly when
    the JSON report has a failed check."""
    argv, json_flag = drawn
    with tempfile.TemporaryDirectory() as tmp:
        report_path = Path(tmp) / "report.json"
        if json_flag:
            argv = argv + ["--json", str(report_path)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        report = json.loads(report_path.read_text()) if report_path.exists() else None
    event(f"{argv[0]} exit {code}")
    assert code in (EXIT_OK, EXIT_FAIL, EXIT_USAGE), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    failed = report is not None and report["summary"]["fail"] > 0
    assert (code == EXIT_FAIL) == failed, argv


# ------------------------------------------------------------ pinned output

# md5 of f"{exit code}\n{stdout}" for one fixed argv per leaf command (with
# `--json -` where the command takes it, so the report bytes are pinned too)
# and for each `--help` screen.  A change to any table, report, exit code or
# help text shows here.
_PINNED = {
    "lr mult 2,1 2,1": "7ac87b6ac6539716049f9a614f54c799",
    "lr coeff 3,2,1 2,1 2,1": "90efcbdd060b82f5dc62fccef6b5e21d",
    "weyl dim 2,1,0 3": "47663ca0ae4c4c901fd185a50ceab798",
    "bwb cohom gr(2,5) u=[0,0] q=[3,3,3] --json -": "5f95be3b22d2f5294eb9bc44b6cf431b",
    "ext-total --model xminus --left o --right o --json -": "73a4d6f4fe67b86ef0ef39a46338bf9e",
    "tilting check --window spade --json -": "c4ad92d83fa26dcf98b03d499c773f16",
    "suite minus-vanishing --json -": "435afd0dc8987fbecec80d15374ff3f5",
    "euler compare --star heart --max-l 2 --json -": "2d0eb5991dfb5cda91d637c1486a2412",
    "windows enumerate --side plus --w=-7,-4,-1 --json -": "f911b24d98fe81f935bf653c0912adf6",
    "windows member --chi 1,1,0 --side minus --w=-7,-5,-2 --json -":
        "348577509118b548ca0bbebc29c4ea56",
    "kn solve --character minus --support q2,q3 --json -": "1561d27ab151e420415ce3b824e3f3cb",
    "kn strata --side minus --json -": "862600cfb4b472520a76a038293cde62",
    "collections check --name prop31-1 --json -": "a4982b33c4c52cfdcd0acbc2f1543ca8",
    "collections resolve --name lascoux-1 --twists=-2..2 --json -":
        "53da8e82517734b0986477cdcea34fcf",
    "verify-all --json -": "cc746f95ddded636d23cf699c9214bce",
    "--help": "fad648d0e6ab18bc76b052752c37eb14",
    "lr --help": "d0ce6ebc9291b0bbe08fc6d6c7823fcc",
    "weyl --help": "0409e250f2dd5e435a378f98992f4d19",
    "bwb --help": "7355fa1c9d8448bdc15a56a25c7a5e61",
    "ext-total --help": "dff419933f7351a8efe695858964d1aa",
    "tilting --help": "cd2ca205d5566842136f20ccbc7a51dc",
    "suite --help": "0803ebdb3f875fd42c38bf08703b5343",
    "euler --help": "fe8fee1485c3f6b8aa161b5ac87c30cc",
    "windows --help": "de441ebdb3376c36d265539d1f4468a0",
    "kn --help": "76eefa6fdcf8031367393a424ca17cca",
    "collections --help": "ff9c17c1f82b068e67c83d813d836a50",
    "verify-all --help": "dd1215382173b2e4aa5e3047a0242a48",
    "lr mult --help": "755c8ed37d4acb601da4c1ee8259a5bc",
    "lr coeff --help": "57dfadbecf8fad5d2ecad3af00066c11",
    "weyl dim --help": "d15534365e4dee767601982a997c5110",
    "bwb cohom --help": "d183e7aae01ad2c65a468353f68a818f",
    "tilting check --help": "bd4f38a9bd81ca619fcbbf55ddafedfe",
    "suite minus-vanishing --help": "2ed32e9fc7d04904eccca87f245536ff",
    "euler compare --help": "21787c8cd6818c1d0305f0c82093890a",
    "windows enumerate --help": "9e486329a238ca4e963bce1cca58eaf8",
    "windows member --help": "1ef365386ce628be88f5ac2f787cf780",
    "kn solve --help": "d57157e3a934e66ee6db73d1a2120855",
    "kn strata --help": "b46ad1c43d10d389348a30a91e300f5b",
    "collections check --help": "4f6722d9b5c1625b18138a44a8a4cc41",
    "collections resolve --help": "60321fe2fbc73aa5d2cb5432b8d5959d",
}


@pytest.mark.parametrize("line", sorted(_PINNED))
def test_pinned_output(line, capsys, monkeypatch):
    """Exit code and stdout, byte for byte, of fixed command lines."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    try:
        code = main(line.split())
    except SystemExit as exc:
        code = exc.code
    text = f"{code}\n{capsys.readouterr().out}"
    assert hashlib.md5(text.encode()).hexdigest() == _PINNED[line]


@pytest.mark.parametrize("argv, parsers", [
    (["weyl", "dim", "2,1,0", "3"], 3),
    (["lr", "mult", "1", "1"], 4),
    (["verify-all"], 2),
    (["--help"], 25),
    (["--version"], 25),
    (["bogus"], 25),
    (["--json", "-", "verify-all"], 25),
    ([], 25),
])
def test_parsers_built_per_argv(argv, parsers, capsys, monkeypatch):
    """main builds the top parser, the group's and the leaves' of the command
    word argv[0] names, and the whole tree of 1 + 9 groups + 15 leaves for
    --help, --version, an unknown word or an option in first position."""
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **kw: built.append(1) or init(self, *a, **kw))
    try:
        main(argv)
    except SystemExit:
        pass
    assert len(built) == parsers
