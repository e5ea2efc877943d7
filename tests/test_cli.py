"""The command-line interface: outputs, JSON round trips, exit codes."""

import json

import pytest

from heckeb import cli, hecke, verify, words
from heckeb.cli import (
    FK_MAX_K,
    GOOD_MAX_K,
    MULT_MAX_RANK,
    SEP_MAX_K,
    SQUARE_MAX_K,
    VERIFY_MAX_RANK,
    main,
)
from heckeb.hecke import HeckeElement, mult, t_of
from heckeb.poly import ONE, BivarPoly
from heckeb.signedperm import make_w_nk
from heckeb.words import MAX_DEPTH, MAX_EXPONENT


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFk:
    def test_k2_text(self, capsys):
        code, out, _ = run(capsys, "fk", "--k", "2")
        assert code == 0
        assert out.strip() == "1 - p - p*q + p^2"

    def test_k3_mod_cyclotomic(self, capsys):
        code, out, _ = run(capsys, "fk", "--k", "3", "--mod-cyclotomic")
        assert code == 0
        assert out.strip() == "1 - p^3"

    def test_methods_agree(self, capsys):
        outputs = set()
        for method in ("direct", "recurrence", "separated"):
            _, out, _ = run(capsys, "fk", "--k", "5", "--method", method)
            outputs.add(out)
        assert len(outputs) == 1

    def test_json_matches_text(self, capsys):
        _, text, _ = run(capsys, "fk", "--k", "4")
        _, blob, _ = run(capsys, "fk", "--k", "4", "--json")
        data = json.loads(blob)
        assert str(BivarPoly.from_json(data["poly"])) == text.strip()


class TestSquareW0k:
    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "square-w0k", "--k", "3", "--json")
        assert code == 0
        element = HeckeElement.from_json(json.loads(out))
        w = make_w_nk(0, 3)
        assert element == mult(t_of(w), t_of(w))

    def test_table_lists_all_terms(self, capsys):
        _, out, _ = run(capsys, "square-w0k", "--k", "2")
        assert len(out.strip().splitlines()) == 5

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "square-w0k", "--k", "4")
        _, second, _ = run(capsys, "square-w0k", "--k", "4")
        assert first == second

    def test_streamed_json_equals_one_shot_text(self, capsys):
        # k = 7 encodes to several batches of encoder chunks
        _, out, _ = run(capsys, "square-w0k", "--k", "7", "--json")
        w = make_w_nk(0, 7)
        assert out == json.dumps(mult(t_of(w), t_of(w)).to_json(), indent=2) + "\n"


class TestEmitJson:
    SHARED = [{"p": 1, "q": 0, "c": "-3"}, {"p": 0, "q": 2, "c": "1"}]
    PAYLOADS = [
        {},
        [],
        7,
        "text",
        None,
        [1, True, None, 1.5, "x\u00e9\n", -3, float("nan"), False],
        (1, (2, 3), [], {}, [[]]),
        {"a": {"b": [[], {}, [1, [2, [3]]]]}, 1: 2, True: 3, None: 4, 2.5: 5},
        {"rank": 2, "terms": [{"w": [1, -2], "coeff": SHARED}, {"w": [2, 1], "coeff": SHARED}]},
        [SHARED, {"deeper": [SHARED, SHARED]}, SHARED],
    ]

    @pytest.mark.parametrize("payload", PAYLOADS)
    def test_writes_what_json_dumps_writes(self, capsys, payload):
        cli._emit_json(payload)
        assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"

    def test_mult_json_with_shared_coefficients(self, capsys):
        # the terms of w0 w0 share far fewer coefficients than they have
        _, out, _ = run(capsys, "mult", "--rank", "3", "--expr", "w0 w0", "--json")
        element = words.evaluate_word(words.parse_word("w0 w0"), 3)
        assert len({id(c) for c in element._terms.values()}) < len(element._terms)
        payload = {"rank": 3, "expr": "w0 w0", "element": element.to_json()}
        assert out == json.dumps(payload, indent=2) + "\n"


class TestGoodAndSep:
    def test_good_table(self, capsys):
        code, out, _ = run(capsys, "good", "--k", "2")
        assert code == 0
        assert "total: 5" in out

    def test_good_json_coefficients_match_table(self, capsys):
        _, table, _ = run(capsys, "good", "--k", "3")
        _, blob, _ = run(capsys, "good", "--k", "3", "--json")
        data = json.loads(blob)
        assert data["count"] == 14
        for row in data["involutions"]:
            assert row["coeff"] in table

    def test_sep_counts(self, capsys):
        code, out, _ = run(capsys, "sep", "--k", "6")
        assert code == 0
        assert "2: 9 (formula 9)" in out

    def test_sep_json(self, capsys):
        _, blob, _ = run(capsys, "sep", "--k", "4", "--json")
        data = json.loads(blob)
        assert [0, 2] in data["sets"]
        assert {"size": 0, "count": 1, "formula": 1} in data["counts"]


class TestInputCaps:
    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        # an input over a cap must be refused before any enumeration or product
        def refuse(*args):
            raise AssertionError("work started for an input over the cap")

        for name in (
            "mult",
            "good_involution_weights",
            "enumerate_separated",
            "evaluate_word",
            "run_suite",
        ):
            monkeypatch.setattr(cli, name, refuse)
        for method in cli.F_K_METHODS:
            monkeypatch.setitem(cli.F_K_METHODS, method, refuse)

    @pytest.mark.parametrize(
        "argv,value",
        [
            (("good", "--k", str(GOOD_MAX_K + 1)), GOOD_MAX_K + 1),
            (("sep", "--k", str(SEP_MAX_K + 1)), SEP_MAX_K + 1),
            (("mult", "--rank", "2", "--expr", f"( t s1 )^{MAX_EXPONENT + 1}"), MAX_EXPONENT + 1),
            (("square-w0k", "--k", str(SQUARE_MAX_K + 1)), SQUARE_MAX_K + 1),
            *(
                (("fk", "--k", str(cap + 1), "--method", method), cap + 1)
                for method, cap in FK_MAX_K.items()
            ),
            (("mult", "--rank", str(MULT_MAX_RANK + 1), "--expr", "w0 w0"), MULT_MAX_RANK + 1),
            (("mult", "--rank", "2", "--expr", "( ( t s1 )^32 )^4"), 128),
            (("mult", "--rank", "2", "--expr", "( " * 5000 + "t" + " )" * 5000), MAX_DEPTH),
        ],
    )
    def test_over_cap_exits_2(self, capsys, argv, value):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "error" in err and str(value) in err

    @pytest.mark.parametrize(
        "suite,rank",
        [
            *((suite, cap + 1) for suite, cap in VERIFY_MAX_RANK.items()),
            ("all", min(VERIFY_MAX_RANK.values()) + 1),
            ("main", -3),
            ("all", -1),
            ("w0k", 30),
        ],
    )
    def test_verify_rank_out_of_range_exits_2(self, capsys, suite, rank):
        code, out, err = run(capsys, "verify", "--suite", suite, "--max-rank", str(rank))
        assert code == 2
        assert out == ""
        assert "error" in err and f"--max-rank {rank}" in err

    def test_verify_caps_cover_every_suite(self):
        assert set(VERIFY_MAX_RANK) == set(verify.SUITES)

    @pytest.mark.parametrize(
        "suite,rank", [("main", 7), ("w0k", 10), ("fk", 12), ("all", 6), ("main", 0)]
    )
    def test_verify_admits_the_benchmarked_ranks(self, monkeypatch, capsys, suite, rank):
        ran = []
        monkeypatch.setattr(cli, "run_suite", lambda suites, max_rank: ran.append(max_rank) or [])
        code, _, err = run(capsys, "verify", "--suite", suite, "--max-rank", str(rank))
        # the stub reports no checks, so the command stops at "selects no checks"
        assert ran == [rank]
        assert code == 2 and "selects no checks" in err


class TestMult:
    def test_table_and_json_agree(self, capsys):
        _, table, _ = run(capsys, "mult", "--rank", "2", "--expr", "t s1 t s1")
        _, blob, _ = run(
            capsys, "mult", "--rank", "2", "--expr", "t s1 t s1", "--json"
        )
        element = HeckeElement.from_json(json.loads(blob)["element"])
        for w, c in element.sorted_terms():
            assert str(c) in table

    def test_table_formats_each_term(self, capsys):
        # many terms share one coefficient object, which the table formats once
        expr = "w_nk(0,3)^2"
        _, table, _ = run(capsys, "mult", "--rank", "3", "--expr", expr)
        terms = words.evaluate_word(words.parse_word(expr), 3).sorted_terms()
        assert len({id(c) for _, c in terms}) < len({str(w) for w, _ in terms})
        width = max(len(str(w)) for w, _ in terms)
        assert table.splitlines() == [f"T{str(w):<{width}}  {c}" for w, c in terms]

    def test_bad_expression_exits_2(self, capsys):
        code, _, err = run(capsys, "mult", "--rank", "2", "--expr", "t %")
        assert code == 2
        assert "error" in err

    def test_out_of_range_generator_exits_2(self, capsys):
        code, _, err = run(capsys, "mult", "--rank", "3", "--expr", "s9")
        assert code == 2
        assert "s9" in err


class TestVerify:
    def test_suite_binom(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "binom")
        assert code == 0
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_suite_json_schema(self, capsys):
        code, blob, _ = run(capsys, "verify", "--suite", "tc", "--max-rank", "5", "--json")
        assert code == 0
        reports = json.loads(blob)
        assert reports and all(r["status"] == "pass" for r in reports)
        assert all(
            set(r) == {"statement", "params", "status", "witness", "ms"}
            for r in reports
        )

    @pytest.mark.parametrize(
        "suite,max_rank", [("conj", "0"), ("tc", "2"), ("w0k", "0")]
    )
    def test_empty_selection_exits_2(self, capsys, suite, max_rank):
        code, out, err = run(capsys, "verify", "--suite", suite, "--max-rank", max_rank)
        assert code == 2
        assert out == ""
        assert "error" in err and "no checks" in err

    def test_small_all_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "all", "--max-rank", "3")
        assert code == 0
        assert "checks passed" in out


class TestUsage:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fk"])
        assert exc.value.code == 2


class TestRightFactors:
    def test_every_product_has_a_one_term_right_factor(self, capsys, monkeypatch):
        right = []
        folds = []

        def recording_mult(h1, h2):
            right.append(h2)
            return mult(h1, h2)

        def recording_times_ts(h, letters):
            folds.append(h)
            return hecke._times_ts(h, letters)

        for module in (hecke, verify, cli):
            monkeypatch.setattr(module, "mult", recording_mult)
        monkeypatch.setattr(words, "_times_ts", recording_times_ts)
        assert run(capsys, "verify", "--suite", "all", "--max-rank", "4")[0] == 0
        assert run(capsys, "square-w0k", "--k", "3")[0] == 0
        assert right and all(len(h2._terms) == 1 and ONE in h2._terms.values() for h2 in right)
        assert not folds
        # a word expression is one pooled fold of the unit, with no mult call
        right.clear()
        assert run(capsys, "mult", "--rank", "4", "--expr", "c(1,2) w0 ( t s2 )^3 w_nk(1,3)")[0] == 0
        assert run(capsys, "mult", "--rank", "3", "--expr", "( ( t s1 )^3 s2 )^4 w0^0")[0] == 0
        assert not right
        assert folds == [hecke.unit(4), hecke.unit(3)]
