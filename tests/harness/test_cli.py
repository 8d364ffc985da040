import pytest

from repro.generators import build_corpus
from repro.harness.cli import main
from repro.matrix import read_matrix_market, write_matrix_market


@pytest.fixture
def mtx_file(tmp_path, rng):
    from ..conftest import random_csr

    a = random_csr(30, 150, rng)
    path = tmp_path / "m.mtx"
    write_matrix_market(a, path)
    return str(path)


def test_corpus_command(capsys):
    assert main(["corpus", "--tier", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "stencil2d" in out
    assert "total nonzeros" in out


def test_archs_command(capsys):
    assert main(["archs"]) == 0
    out = capsys.readouterr().out
    assert "Milan B" in out and "ARMv8.2" in out


def test_reorder_command(mtx_file, tmp_path, capsys):
    out_file = str(tmp_path / "out.mtx")
    assert main(["reorder", mtx_file, "RCM", "--output", out_file]) == 0
    out = capsys.readouterr().out
    assert "bandwidth" in out
    b = read_matrix_market(out_file)
    assert b.nnz > 0


def test_reorder_rejects_unknown_ordering(mtx_file):
    with pytest.raises(SystemExit):
        main(["reorder", mtx_file, "QuickSort"])


def _sweep_args(tmp_path, *extra):
    # the sweep writes its metrics and manifest to the working
    # directory by default; keep them under tmp_path
    return ["sweep", "--tier", "tiny", "--limit", "4", "--archs", "Rome",
            "--cache", str(tmp_path / "cache"),
            "--metrics", str(tmp_path / "sweep_metrics.json"),
            "--manifest", str(tmp_path / "run_manifest.json"), *extra]


def test_sweep_tables_command(capsys, tmp_path):
    assert main(_sweep_args(tmp_path, "--kernels", "1d,2d,cg",
                            "--tables", "--boxplots")) == 0
    out = capsys.readouterr().out
    titles = ["Table 3: geomean 1D speedups",
              "Table 4: geomean 2D speedups",
              "geomean cg workload speedups"]
    boxes = [f"speedup distribution ({k})" for k in ("1d", "2d", "cg")]
    at = [out.index(t) for pair in zip(titles, boxes) for t in pair]
    assert at == sorted(at)  # each table followed by its boxplots


def test_sweep_tables_refuse_an_incomplete_sweep(capsys, tmp_path):
    assert main(_sweep_args(tmp_path, "--orderings", "RCM,Gray",
                            "--tables")) == 1
    captured = capsys.readouterr()
    assert "Table 3" not in captured.out
    first = build_corpus("tiny", seed=0)[0].name
    assert f"no record for {first}/ND/1d/Rome" in captured.err


def test_sweep_with_failed_cells_exits_1(capsys, tmp_path, monkeypatch):
    # a raising ordering fails every cell; no flag is needed to see it
    from repro.reorder import registry

    def boom(a, **kw):
        raise RuntimeError("injected failure")

    monkeypatch.setitem(registry.ORDERING_FUNCS, "Boom", boom)
    assert main(["sweep", "--tier", "tiny", "--limit", "1",
                 "--archs", "Rome", "--orderings", "Boom",
                 "--cache", str(tmp_path / "cache"),
                 "--metrics", "", "--manifest", ""]) == 1
    assert "failed" in capsys.readouterr().out


def test_sweep_rejects_unknown_ordering_before_building_corpus(
        capsys, tmp_path, monkeypatch):
    from repro.harness import cli

    def no_corpus(*args, **kwargs):
        raise AssertionError("corpus built before the names were checked")

    monkeypatch.setattr(cli, "build_corpus", no_corpus)
    assert main(["sweep", "--tier", "tiny", "--limit", "1",
                 "--archs", "Rome", "--orderings", "RCM,NOPE",
                 "--cache", str(tmp_path / "cache"),
                 "--metrics", "", "--manifest", ""]) == 2
    err = capsys.readouterr().err
    assert "unknown ordering 'NOPE'" in err
    assert "known: original, RCM," in err


@pytest.mark.parametrize("flag, value, message", [
    ("--kernels", "1d,3d", "unknown kernel/workload spec '3d'"),
    ("--kernels", "1d,merge", "unknown kernel/workload spec 'merge'"),
    ("--kernels", "cg:merge", "unknown schedule kind 'merge'"),
    ("--archs", "Rome,NOPE", "unknown architecture 'NOPE'"),
])
def test_sweep_rejects_bad_grid_axis_before_building_corpus(
        capsys, tmp_path, monkeypatch, flag, value, message):
    from repro.harness import cli

    def no_corpus(*args, **kwargs):
        raise AssertionError("corpus built before the axes were checked")

    monkeypatch.setattr(cli, "build_corpus", no_corpus)
    args = {"--archs": "Rome", "--kernels": "1d", flag: value}
    assert main(["sweep", "--tier", "tiny", "--limit", "1",
                 "--orderings", "RCM",
                 "--archs", args["--archs"], "--kernels", args["--kernels"],
                 "--cache", str(tmp_path / "cache"),
                 "--metrics", "", "--manifest", ""]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "Traceback" not in captured.err


def test_sweep_strict_flag_is_gone(tmp_path):
    with pytest.raises(SystemExit):
        main(_sweep_args(tmp_path, "--strict"))


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        main([])
