"""Edge-case sweep across the public API surface."""

import pytest

from repro.apps import ImplicitColoring, MaximalMatching
from repro.config import Constants, ladder_heights
from repro.core import (
    BalancedOrientation,
    CorenessDecomposition,
    DensityEstimator,
    DuplicatedBalanced,
    LowOutDegree,
)
from repro.errors import BatchError
from repro.graphs import generators as gen


SMALL = Constants(sample_c=0.5, min_B=4, duplication_cap=8)


class TestSparseVertexIds:
    """Vertex ids need not be dense 0..n-1."""

    def test_balanced_with_huge_ids(self):
        st = BalancedOrientation(H=3)
        st.insert_batch([(10**9, 10**9 + 1), (10**9 + 1, 5)])
        st.check_invariants()
        st.delete_batch([(10**9, 10**9 + 1)])
        st.check_invariants()

    def test_coreness_with_scattered_ids(self):
        cd = CorenessDecomposition(2048, eps=0.4, constants=SMALL)
        cd.insert_batch([(7, 2000), (2000, 1234)])
        assert cd.estimate(2000) >= 1.0


class TestSingletonAndTiny:
    def test_single_edge_everything(self):
        st = BalancedOrientation(H=1)
        st.insert_batch([(0, 1)])
        st.check_invariants()
        assert st.max_outdegree() == 1
        st.delete_batch([(0, 1)])
        assert st.max_outdegree() == 0

    def test_h_equals_one_on_cycle(self):
        n, edges = gen.cycle(6)
        st = BalancedOrientation(H=1)
        st.insert_batch(edges)
        st.check_invariants()

    def test_two_vertex_density(self):
        de = DensityEstimator(4, eps=0.4, constants=SMALL)
        de.insert_batch([(0, 1)])
        assert de.density_estimate() >= 0.5

    def test_ladder_on_tiny_n(self):
        assert ladder_heights(2, 0.5)[0] == 1
        cd = CorenessDecomposition(2, eps=0.5, constants=SMALL)
        cd.insert_batch([(0, 1)])
        assert cd.estimate(0) >= 1.0


class TestRepeatedBatchBoundaries:
    def test_insert_delete_same_edge_many_times(self):
        st = BalancedOrientation(H=2)
        for _ in range(10):
            st.insert_batch([(3, 4)])
            st.delete_batch([(3, 4)])
        st.check_invariants()
        assert st.num_arcs() == 0

    def test_alternating_on_dup_structure(self):
        d = DuplicatedBalanced(inner_H=6, K=3)
        for _ in range(4):
            d.insert_batch([(0, 1)])
            d.delete_batch([(0, 1)])
        d.check_invariants()

    def test_lowoutdegree_alternation(self):
        lod = LowOutDegree(3, 0.4, 8, constants=SMALL)
        for _ in range(4):
            lod.insert_batch([(0, 1), (1, 2)])
            lod.delete_batch([(0, 1), (1, 2)])
            lod.check_invariants()
        assert lod.max_outdegree() == 0


class TestValidationMessages:
    def test_balanced_reports_offending_edge(self):
        st = BalancedOrientation(H=3)
        st.insert_batch([(0, 1)])
        with pytest.raises(BatchError, match=r"\(0, 1\)"):
            st.insert_batch([(1, 0)])

    def test_matching_rejects_bad_rho(self):
        mm = MaximalMatching(0, 8, constants=SMALL)  # clamped to 1
        assert mm.rho_max == 1

    def test_duplicated_validates_multi_batch(self):
        d = DuplicatedBalanced(inner_H=4, K=2)
        d.insert_batch([(0, 1)])
        with pytest.raises(BatchError):
            d.inner.insert_multi_batch([(0, 1, 0)])


class TestImplicitColoringConsistency:
    def test_separate_queries_agree(self):
        ic = ImplicitColoring(20, eps=0.4, constants=SMALL, seed=70)
        n, edges = gen.grid(4, 5)
        ic.insert_batch(edges)
        first = ic.query([0, 5, 10])
        second = ic.query([5])
        assert first[5] == second[5]

    def test_queries_reflect_updates(self):
        ic = ImplicitColoring(12, eps=0.4, constants=SMALL, seed=71)
        ic.insert_batch([(0, 1)])
        a = ic.query([0, 1])
        assert a[0] != a[1]
        ic.insert_batch([(1, 2), (0, 2)])
        b = ic.query([0, 1, 2])
        assert len({b[0], b[1], b[2]}) == 3


class TestCliErrorPaths:
    def test_verify_reports_ok_exit_code(self, tmp_path):
        from repro.cli import main

        trace = tmp_path / "t.txt"
        trace.write_text("I 0 1 1 2\nD 0 1\n")
        # BALANCED(H) audited against the graph after every batch
        argv = ["verify", "--trace", str(trace), "--structure", "balanced",
                "--configs", "serial", "--deep-every", "1"]
        assert main(argv) == 0

    def test_malformed_trace_raises(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "bad.txt"
        trace.write_text("I 0\n")
        with pytest.raises(SystemExit) as exc:
            main(["run", "--trace", str(trace)])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            f"repro run: error: {trace}:1: odd number of endpoints\n"
        )

    # exit 1 from `run --check` means "telemetry perturbed the cost
    # model", so an unreadable trace must exit 2 with one line, every time
    @pytest.mark.parametrize("argv", [["run"], ["exact"], ["run", "--check"]],
                             ids=["run", "exact", "check"])
    @pytest.mark.parametrize("body", ["I 0\n", "I 0 1\nD 1 2\n", None],
                             ids=["odd-endpoints", "absent-delete", "missing"])
    def test_bad_trace_is_a_usage_error(self, tmp_path, capsys, argv, body):
        from repro.cli import main

        trace = tmp_path / "t.txt"
        if body is not None:
            trace.write_text(body)
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--trace", str(trace)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = captured.err.splitlines()
        assert len(errors) == 1 and errors[0].startswith(f"repro {argv[0]}: error: ")

    @pytest.mark.parametrize("flags", [
        ["--eps", "0"],
        ["--eps", "1"],
        ["--top", "-1", "--check"],
        ["--progress", "-1", "--check"],
        ["--phase-tree", "2"],
        ["--phase-tree", "nan"],
        ["--phase-tree", "-1"],
    ], ids=["eps-0", "eps-1", "top-negative", "progress-negative",
            "phase-tree-above-1", "phase-tree-nan", "phase-tree-negative"])
    def test_bad_run_value_is_a_usage_error(self, tmp_path, capsys, flags):
        from repro.cli import main

        trace = tmp_path / "t.txt"
        trace.write_text("I 0 1 1 2\nD 0 1\n")
        with pytest.raises(SystemExit) as exc:
            main(["run", "--trace", str(trace), *flags])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [ln for ln in captured.err.splitlines() if "error:" in ln]
        assert len(errors) == 1 and errors[0].startswith("repro run: error: ")

    # parse-time rejection: neither the metrics server nor the service is
    # started (a zero count used to be clamped to 1 without a word)
    @pytest.mark.parametrize("command,flags", [
        ("run", ["--serve-metrics", "-1"]),
        ("run", ["--serve-metrics", "65536"]),
        ("serve", ["--serve-metrics", "-1"]),
        ("serve", ["--serve-metrics", "65536"]),
        ("serve", ["--port", "-1"]),
        ("serve", ["--shards", "0"]),
        ("serve", ["--checkpoint-every", "0"]),
        ("serve", ["--max-pending", "0"]),
    ], ids=["run-metrics-negative", "run-metrics-too-big", "serve-metrics-negative",
            "serve-metrics-too-big", "serve-port-negative", "serve-shards-zero",
            "serve-checkpoint-every-zero", "serve-max-pending-zero"])
    def test_bad_port_is_a_usage_error(self, tmp_path, capsys, monkeypatch, command, flags):
        import repro.cli
        from repro.cli import main

        monkeypatch.setattr(repro.cli, "_serve_metrics_or_die",
                            lambda *a: pytest.fail("metrics server started"))
        monkeypatch.setattr(repro.cli, "cmd_serve",
                            lambda args: pytest.fail("service started"))
        trace = tmp_path / "t.txt"
        trace.write_text("I 0 1 1 2\n")
        where = ["--trace", str(trace)] if command == "run" else ["--data-dir", str(tmp_path)]
        with pytest.raises(SystemExit) as exc:
            main([command, *where, *flags])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [ln for ln in captured.err.splitlines() if "error:" in ln]
        assert len(errors) == 1 and errors[0].startswith(f"repro {command}: error: ")

    @pytest.mark.parametrize("flags", [
        ["--n", "-5"],
        ["--m", "-1"],
        ["--steps", "-1", "--pattern", "churn"],
        ["--batch-size", "0"],
        ["--batch-size", "0", "--pattern", "churn"],
        ["--n", "10", "--m", "100"],
        ["--n", "0", "--pattern", "churn"],
        ["--family", "planted", "--n", "3"],
    ], ids=["n-negative", "m-negative", "steps-negative", "batch-size-0",
            "churn-batch-size-0", "m-above-max", "churn-n-0", "planted-n-3"])
    def test_bad_generate_value_is_a_usage_error(self, tmp_path, capsys, flags):
        from repro.cli import main

        out = tmp_path / "g.txt"
        with pytest.raises(SystemExit) as exc:
            main(["generate", *flags, "--out", str(out)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [ln for ln in captured.err.splitlines() if "error:" in ln]
        assert len(errors) == 1 and errors[0].startswith("repro generate: error: ")
        assert not out.exists()
