"""CLI behavior: argument handling, output files, and cross-mode parity."""

import argparse
import csv
import json
import re
import filecmp
from pathlib import Path

import pytest

from skystream.agrid import AGrid, load_partitioning, uniform_partitioning
from skystream import runtime
from skystream.cli import (
    BENCH_PARTITIONS,
    DECISIONS_FIELDS,
    METRICS_FIELDS,
    MODES,
    RectTree,
    bench_rows,
    build_parser,
    build_workload,
    main,
    _parse_grid,
)
from skystream.model import Predicate
from skystream.workload import synthetic_vocab

TRACE = """\
# two queries, three objects
Q 1 0.10 0.10 0.30 0.30 OVERLAPS 100 alpha,beta
Q 2 0.50 0.50 0.90 0.90 INSIDE 100 -
D 1 0.20 0.20 5 alpha
D 2 0.70 0.70 6 zulu
D 3 0.95 0.05 7 beta
"""


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def run_ok(args):
    rc = main(args)
    assert rc == 0
    return rc


# -- argument handling -------------------------------------------------------------


class TestArguments:
    def test_grid_forms(self):
        assert _parse_grid("64") == (64, 64)
        assert _parse_grid("32x16") == (32, 16)
        assert _parse_grid("8X4") == (8, 4)
        with pytest.raises(ValueError):
            _parse_grid("8x4x2")
        with pytest.raises(ValueError):
            _parse_grid("zero")
        with pytest.raises(ValueError):
            _parse_grid("0x4")

    def test_unknown_mode_is_an_argparse_error(self):
        with pytest.raises(SystemExit):
            main(["run", "--mode", "broadcast", "--workload", "kind=NormalTweets"])

    def test_parallel_executor_is_gone(self):
        with pytest.raises(SystemExit):
            main(["run", "--workload", "kind=NormalTweets,objects=10", "--parallel"])

    def test_cli_modes_are_the_runtime_modes(self):
        assert set(MODES.values()) == set(runtime.WORKERS)

    def test_adaptive_value_forms(self, tmp_path):
        wl = "kind=NormalTweets,objects=30,queries=5"
        assert main(["run", "--workload", wl, "--grid", "8x8",
                     "--adaptive=false", "--mode", "uniform",
                     "--out", str(tmp_path / "a")]) == 0
        # bare flag means true, which uniform mode rejects
        assert main(["run", "--workload", wl, "--grid", "8x8",
                     "--adaptive", "--mode", "uniform",
                     "--out", str(tmp_path / "b")]) == 2

    def test_config_errors_exit_nonzero(self, tmp_path):
        out = str(tmp_path / "o")
        wl = "kind=NormalTweets,objects=10,queries=2"
        assert main(["run", "--out", out]) == 2                      # no input
        assert main(["run", "--workload", wl, "--trace", "t",
                     "--out", out]) == 2                             # both inputs
        assert main(["run", "--workload", "kind=NormalTweets,objcts=1",
                     "--out", out]) == 2                             # typo key
        assert main(["run", "--workload", wl, "--sf", "0",
                     "--out", out]) == 2                             # bad sf
        for sf in ("nan", "inf"):
            assert main(["run", "--workload", wl, "--sf", sf,
                         "--out", out]) == 2                         # non-finite sf
        for beta in ("-1", "nan", "inf"):
            assert main(["run", "--workload", wl, "--beta", beta,
                         "--out", out]) == 2                         # bad beta
        assert main(["run", "--trace", str(tmp_path / "missing.trace"),
                     "--out", out]) == 2                             # no such file
        assert main(["run", "--workload", "kind=NormalTweets,predicate=NEARBY",
                     "--out", out]) == 2                             # bad predicate


# -- README -------------------------------------------------------------------------


README = Path(__file__).resolve().parents[1] / "README.md"


def run_flags_in_readme(text: str) -> set[str]:
    """--flags of the Flags paragraph under the "skystream run" heading."""
    section = text.split("### skystream run", 1)[1].split("\n### ", 1)[0]
    para = section.split("Flags:", 1)[1].split("\n\n", 1)[0]
    return set(re.findall(r"`(--[a-z][a-z-]*)", para))


def run_flags_in_parser() -> set[str]:
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {opt for action in sub.choices["run"]._actions
            for opt in action.option_strings
            if opt.startswith("--") and opt != "--help"}


def csv_columns_in_readme(text: str, name: str) -> list[str]:
    """First-column entries, in order, of the table under "`name`, one row per"."""
    section = text.split(f"`{name}`, one row per", 1)[1].split("\n\n", 2)[1]
    rows = [ln for ln in section.splitlines() if ln.startswith("|")]
    return [ln.split("|")[1].strip() for ln in rows[2:]]


class TestReadme:
    def test_run_flags_match_the_parser(self):
        assert run_flags_in_readme(README.read_text()) == run_flags_in_parser()

    def test_csv_tables_list_the_columns_the_cli_writes(self):
        text = README.read_text()
        assert csv_columns_in_readme(text, "metrics.csv") == list(METRICS_FIELDS)
        assert csv_columns_in_readme(text, "decisions.csv") == list(DECISIONS_FIELDS)

    def test_a_flag_dropped_from_one_side_is_caught(self):
        text = README.read_text()
        assert "`--seed N`, " in text
        assert run_flags_in_readme(text.replace("`--seed N`, ", "")) != run_flags_in_parser()


# -- workload argument -------------------------------------------------------------


class TestWorkloadArgument:
    def test_inline_and_json_agree(self, tmp_path):
        inline = "kind=SpatiallySkewed,objects=50,queries=8,side=0.02,seed=9"
        path = tmp_path / "wl.json"
        path.write_text(json.dumps({
            "kind": "SpatiallySkewed", "objects": 50, "queries": 8,
            "side": 0.02, "seed": 9,
        }))
        assert build_workload(inline, 0) == build_workload(str(path), 0)

    def test_long_field_names_accepted(self):
        a = build_workload("kind=NormalTweets,object_count=20,query_count=3", 1)
        b = build_workload("kind=NormalTweets,objects=20,queries=3", 1)
        assert a == b

    def test_vocab_size_controls_tokens(self):
        objects, _ = build_workload("kind=NormalTweets,objects=40,vocab=500", 0)
        allowed = {t for t, _ in synthetic_vocab(500)}
        assert all(o.text <= allowed for o in objects)

    def test_seed_falls_back_to_cli_seed(self):
        a = build_workload("kind=NormalTweets,objects=10", 7)
        b = build_workload("kind=NormalTweets,objects=10,seed=7", 0)
        assert a == b

    def test_corpus_objects_and_anchor_queries(self, tmp_path):
        path = tmp_path / "tweets.csv"
        lines = [f"{i}, {30 + i % 10}.0, {-120 + (i % 15) * 3}.0, sun rain tag{i % 4}"
                 for i in range(25)]
        lines.append("not parseable")
        path.write_text("\n".join(lines))
        objects, queries = build_workload(
            f"corpus={path},objects=60,queries=12,qk=2,side=0.05", 3)
        assert len(objects) == 60 and len(queries) == 12
        tokens = set().union(*(o.text for o in objects))
        for q in queries:
            assert q.predicate is Predicate.OVERLAPS
            assert 1 <= len(q.text) <= 2 and q.text <= tokens

    def test_corpus_inside_queries_have_no_text(self, tmp_path):
        path = tmp_path / "tweets.csv"
        path.write_text("1, 30.0, -100.0, only record\n")
        _, queries = build_workload(
            f"corpus={path},objects=5,queries=3,predicate=inside", 0)
        assert all(q.predicate is Predicate.INSIDE and not q.text for q in queries)

    def test_corpus_requires_object_count(self, tmp_path):
        path = tmp_path / "tweets.csv"
        path.write_text("1, 30.0, -100.0, a b\n")
        with pytest.raises(ValueError):
            build_workload(f"corpus={path},queries=3", 0)


# -- run outputs --------------------------------------------------------------------


class TestRunOutputs:
    def test_output_files_and_formats(self, tmp_path, capsys):
        out = tmp_path / "run"
        run_ok(["run", "--workload", "kind=NormalTweets,objects=500,queries=80,side=0.03",
                "--grid", "16x16", "--evaluators", "3", "--adaptive",
                "--stats-cadence", "400", "--seed", "4", "--out", str(out)])
        printed = capsys.readouterr().out
        assert "mode=agrid objects=500 queries=80" in printed
        counts = dict(re.findall(r"(\w+)=(\d+)", printed.splitlines()[1]))
        assert 0 < int(counts["pending_forwards"]) <= int(counts["forwarded"])

        metrics = read_rows(out / "metrics.csv")
        assert metrics, "expected at least the final statistics row"
        assert list(metrics[0]) == ["tick", "alpha", "totalCost", "forwardedObjects",
                                    "droppedBySummary", "peakChannelDepth",
                                    "rebalanceCount", "forwardedNoCandidate"]
        last = metrics[-1]
        assert 0 < int(last["forwardedNoCandidate"]) < int(last["forwardedObjects"])
        decisions = read_rows(out / "decisions.csv")
        for row in decisions:
            assert row["opKind"] in ("shift_h", "shift_v", "shift_corner", "split_merge")
            assert float(row["Cr"]) > float(row["Ct"])

        for line in (out / "results.txt").read_text().splitlines():
            assert re.fullmatch(r"\d+ \d+ \d+", line)

        grid = load_partitioning((out / "partitioning.json").read_text())
        assert grid.n == grid.m == 16
        grid.validate()

    def test_same_seed_same_bytes(self, tmp_path):
        args = ["run", "--workload",
                "kind=SpatiallySkewed,objects=800,queries=100,side=0.04",
                "--grid", "16x16", "--evaluators", "3", "--adaptive",
                "--stats-cadence", "300", "--seed", "42"]
        run_ok(args + ["--out", str(tmp_path / "a")])
        run_ok(args + ["--out", str(tmp_path / "b")])
        for name in ("metrics.csv", "decisions.csv", "results.txt",
                     "partitioning.json"):
            assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name,
                               shallow=False), name

    def test_trace_run_matches_by_hand(self, tmp_path):
        trace = tmp_path / "demo.trace"
        trace.write_text(TRACE)
        out = tmp_path / "res"
        run_ok(["run", "--trace", str(trace), "--grid", "8x8",
                "--evaluators", "2", "--out", str(out)])
        got = sorted((out / "results.txt").read_text().splitlines())
        assert got == ["1 1 5", "2 2 6"]

    def test_selective_workload_drops_everything(self, tmp_path):
        out = tmp_path / "sel"
        run_ok(["run", "--workload",
                "kind=TextuallySelective,objects=200,queries=30,percentile=0.0,vocab=2000",
                "--grid", "8x8", "--seed", "5", "--out", str(out)])
        last = read_rows(out / "metrics.csv")[-1]
        assert int(last["droppedBySummary"]) == 200
        assert int(last["forwardedObjects"]) == 0

    def test_uniform_mode_writes_partitioning(self, tmp_path):
        out = tmp_path / "uni"
        run_ok(["run", "--workload", "kind=NormalTweets,objects=100,queries=10",
                "--mode", "uniform", "--grid", "8x8", "--out", str(out)])
        assert (out / "partitioning.json").exists()

    def test_textual_mode(self, tmp_path):
        out = tmp_path / "tex"
        run_ok(["run", "--workload",
                "kind=NormalTweets,objects=150,queries=20,predicate=overlaps",
                "--mode", "textual", "--grid", "8x8", "--out", str(out)])
        assert read_rows(out / "metrics.csv") == []      # no statistics rounds
        assert not (out / "partitioning.json").exists()

    def test_broadcast_baseline_mode(self, tmp_path):
        out = tmp_path / "bc"
        run_ok(["run", "--workload", "kind=NormalTweets,objects=100,queries=15",
                "--mode", "broadcast-baseline", "--grid", "8x8",
                "--evaluators", "3", "--out", str(out)])
        assert not (out / "partitioning.json").exists()

    def test_scale_factor_accepted(self, tmp_path):
        run_ok(["run", "--workload", "kind=NormalTweets,objects=120,queries=15",
                "--sf", "0.5", "--grid", "16x16", "--out", str(tmp_path / "sf")])

    def test_log_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SKYSTREAM_LOG", "DEBUG")
        run_ok(["run", "--workload", "kind=NormalTweets,objects=30,queries=5",
                "--grid", "8x8", "--out", str(tmp_path / "log")])


class TestCrossModeParity:
    def test_every_mode_writes_the_same_matches(self, tmp_path):
        # queries precede the objects in one ingest chunk, so a query must be
        # registered before the objects behind it reach the evaluators
        base = ["run", "--workload",
                "kind=NormalTweets,objects=3000,queries=300,side=0.05,seed=5,vocab=200",
                "--grid", "32x32", "--evaluators", "4", "--seed", "3"]
        runs = {mode: ["--mode", mode]
                for mode in ("agrid", "uniform", "broadcast-baseline", "textual")}
        results = {}
        for name, extra in runs.items():
            run_ok(base + extra + ["--out", str(tmp_path / name)])
            results[name] = sorted((tmp_path / name / "results.txt").read_text().splitlines())
        assert len(results["agrid"]) > 3000
        for name, got in results.items():
            assert got == results["agrid"], name


# -- bench ---------------------------------------------------------------------------


class TestBench:
    def test_csv_output_and_shapes(self, tmp_path):
        out = tmp_path / "bench"
        run_ok(["bench", "--grid", "128", "--trials", "40", "--out", str(out)])
        rows = read_rows(out / "bench.csv")
        assert len(rows) == len(BENCH_PARTITIONS) * 5

        points = [r for r in rows if r["op"] == "point"]
        assert [float(r["agrid_ops"]) for r in points] == [1.0] * 4
        assert [float(r["grid_ops"]) for r in points] == [1.0] * 4
        tree_pt = [float(r["tree_ops"]) for r in points]
        assert tree_pt == sorted(tree_pt) and tree_pt[0] < tree_pt[-1]

        for k in BENCH_PARTITIONS:
            ranged = [r for r in rows if r["op"] == "range"
                      and int(r["partitions"]) == k]
            grid_ops = [float(r["grid_ops"]) for r in ranged]
            assert grid_ops == sorted(grid_ops)          # grows with range size
            # the widest range: grid scan touches many cells, agrid few stack pops
            assert float(ranged[-1]["agrid_ops"]) <= grid_ops[-1]

    def test_table_output(self, capsys):
        run_ok(["bench", "--grid", "32", "--trials", "10"])
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 + len(BENCH_PARTITIONS) * 5

    def test_single_partition_layout_visits_one_partition(self):
        grid = AGrid(16, 16, uniform_partitioning(16, 16, 1))
        import random
        rng = random.Random(0)
        for _ in range(50):
            x0, y0 = rng.randrange(16), rng.randrange(16)
            x1, y1 = rng.randrange(x0, 16), rng.randrange(y0, 16)
            owners, pops = grid.neighbor_search_cells((x0, y0, x1, y1))
            assert owners == [0] and pops <= 3

    def test_rect_tree_agrees_with_ownership(self):
        pm = uniform_partitioning(64, 64, 64)
        tree = RectTree(pm)
        # every point op must at least examine the root
        assert tree.point_ops((0, 0)) >= 1
        assert tree.range_ops((0, 0, 63, 63)) == 2 * len(pm) - 1  # all nodes


# -- advise --------------------------------------------------------------------------


class TestAdvise:
    def test_recommends_query_side(self, capsys):
        run_ok(["advise", "--query-side", "0.001"])
        out = capsys.readouterr().out
        assert "1000 cells per axis" in out
        sweep = re.findall(r"^\s*[\d.e-]+\s+([\d.]+)", out, re.M)
        loads = [float(v) for v in sweep]
        assert len(loads) == 5
        assert loads[2] == 1.0 and min(loads) == loads[2]

    def test_requires_query_side(self):
        with pytest.raises(SystemExit):
            main(["advise"])
