"""End-to-end command-line workflow."""

import csv
import json
import struct

import pytest

from mamsim import montecarlo
from mamsim.cli import main

from trial_designs import gaussian_two_stage_design


@pytest.fixture()
def spec_path(tmp_path):
    path = tmp_path / "design.json"
    path.write_text(json.dumps(gaussian_two_stage_design(replicates=6, extended=1)))
    return path


def test_run_summary_plot_roundtrip(spec_path, tmp_path, capsys):
    shard = tmp_path / "out.shard"
    assert main(["run", str(spec_path), "--workers", "1", "--out", str(shard)]) == 0
    assert shard.exists()

    assert main(["summary", str(shard)]) == 0
    text = capsys.readouterr().out
    assert "probability of declaring efficacy" in text
    assert main(["summary", str(shard), "--full"]) == 0
    assert "sample sizes" in capsys.readouterr().out

    csv_path = tmp_path / "size.csv"
    assert main(["plot-data", str(shard), "--kind", "size", "--out", str(csv_path)]) == 0
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["seed", "arm", "size"]
    assert len(rows) > 6

    est_path = tmp_path / "est.csv"
    assert main(["plot-data", str(shard), "--kind", "estimates", "--out", str(est_path)]) == 0
    with open(est_path, newline="") as fh:
        est_rows = list(csv.reader(fh))
    assert est_rows[0] == ["seed", "arm", "estimate", "arm_size", "decision", "timing"]
    assert len(est_rows) == 1 + 6 * 2  # 6 replicates x 2 interventions


def test_run_with_seed_range_and_combine(spec_path, tmp_path, capsys):
    a, b, out = (tmp_path / n for n in ("a.shard", "b.shard", "ab.shard"))
    assert main(["run", str(spec_path), "--seeds", "1..3", "--workers", "1", "--out", str(a)]) == 0
    assert main(["run", str(spec_path), "--seeds", "4..6", "--workers", "1", "--out", str(b)]) == 0
    assert main(["combine", str(a), str(b), "--out", str(out)]) == 0
    assert "6 replicates" in capsys.readouterr().out

    # overlapping shards are refused with a nonzero exit
    assert main(["combine", str(a), str(a), "--out", str(tmp_path / "bad.shard")]) == 2
    assert "overlapping" in capsys.readouterr().err


def test_replicates_flag_overrides_document(spec_path, tmp_path, capsys):
    shard = tmp_path / "r.shard"
    assert main(["run", str(spec_path), "--replicates", "2", "--workers", "1", "--out", str(shard)]) == 0
    assert "2 replicates" in capsys.readouterr().out


def test_extended_flag_overrides_document(spec_path, tmp_path, capsys):
    shard = tmp_path / "e0.shard"
    assert main([
        "run", str(spec_path), "--seeds", "1..2", "--workers", "1",
        "--extended", "0", "--out", str(shard),
    ]) == 0
    capsys.readouterr()
    est = tmp_path / "no.csv"
    assert main(["plot-data", str(shard), "--kind", "estimates", "--out", str(est)]) == 2
    assert "extended" in capsys.readouterr().err


def test_run_default_output_path(spec_path, capsys):
    assert main(["run", str(spec_path), "--seeds", "1..2", "--workers", "1"]) == 0
    capsys.readouterr()
    default_shard = spec_path.with_suffix(".shard")
    assert default_shard.exists()
    assert main(["summary", str(default_shard)]) == 0
    assert "2" in capsys.readouterr().out


def test_invalid_spec_reports_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["run", str(bad)]) == 2
    assert "syntax error" in capsys.readouterr().err


def test_negative_seed_flag_reports_error(spec_path, tmp_path, capsys):
    out = tmp_path / "neg.shard"
    assert main(["run", str(spec_path), "--seeds=-3,1", "--workers", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: seeds must be non-negative: -3\n"
    assert not out.exists()


def test_negative_document_seeds_report_error(tmp_path, capsys):
    doc = gaussian_two_stage_design()
    del doc["replicates"]
    doc["seeds"] = [-1, 2]
    path = tmp_path / "neg.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--out", str(tmp_path / "neg.shard")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seeds must be non-negative, got -1" in err


def test_bad_worker_cap_reports_error(spec_path, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(montecarlo.WORKER_CAP_ENV, "abc")
    assert main(["run", str(spec_path), "--out", str(tmp_path / "cap.shard")]) == 2
    assert capsys.readouterr().err == "error: MAMSIM_MAX_WORKERS must be an integer, got 'abc'\n"


def test_missing_shard_reports_error(tmp_path, capsys):
    assert main(["summary", str(tmp_path / "absent.shard")]) == 2
    assert "error" in capsys.readouterr().err


def test_combine_onto_an_input_matches_monolithic_run(spec_path, tmp_path, capsys):
    a, b, whole = (tmp_path / n for n in ("a.shard", "b.shard", "whole.shard"))
    for seeds, out in (("1..3", a), ("4..6", b), ("1..6", whole)):
        assert main(["run", str(spec_path), "--seeds", seeds, "--workers", "1", "--out", str(out)]) == 0
    assert main(["combine", str(a), str(b), "--out", str(a)]) == 0
    assert "6 replicates" in capsys.readouterr().out
    assert montecarlo.read_shard_sections(a)[1] == montecarlo.read_shard_sections(whole)[1]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "a.shard", "b.shard", "design.json", "whole.shard"
    ]


def _shard_with_record(path, source, raw, **header_changes):
    """Copy ``source``'s header onto a one-record shard holding ``raw``."""
    header = montecarlo.read_shard_header(source)
    header["n_records"] = 1
    header.update(header_changes)
    blob = json.dumps(header).encode()
    path.write_bytes(
        montecarlo.MAGIC + struct.pack("<I", len(blob)) + blob
        + struct.pack("<Q", 1) + struct.pack("<I", len(raw)) + raw
    )


@pytest.mark.parametrize(
    "raw, message",
    [
        (b"{not json", "bad record"),
        (b'{"result": {}}', "without an integer seed"),
        (b'{"seed": 1}', "record 1 without a result"),
    ],
)
def test_corrupt_record_reported_by_every_verb(spec_path, tmp_path, capsys, raw, message):
    good, bad = tmp_path / "good.shard", tmp_path / "bad.shard"
    assert main(["run", str(spec_path), "--seeds", "1..2", "--workers", "1", "--out", str(good)]) == 0
    _shard_with_record(bad, good, raw)
    capsys.readouterr()
    out = tmp_path / "out.shard"
    for argv in (["summary", str(bad)], ["combine", str(good), str(bad), "--out", str(out)]):
        assert main(argv) == 2
        assert message in capsys.readouterr().err
    assert not out.exists()


def test_combine_refuses_json_export(spec_path, tmp_path, capsys):
    shard, export = tmp_path / "s.shard", tmp_path / "s.json"
    assert main(["run", str(spec_path), "--seeds", "1..2", "--workers", "1", "--out", str(shard)]) == 0
    montecarlo.save_shard_json(montecarlo.load_shard(shard), export)
    capsys.readouterr()
    assert main(["summary", str(export)]) == 0
    assert main(["combine", str(export), "--out", str(tmp_path / "c.shard")]) == 2
    assert "bad magic bytes" in capsys.readouterr().err


def test_record_without_null_result_is_corrupt(spec_path, tmp_path, capsys):
    good, bad = tmp_path / "good.shard", tmp_path / "bad.shard"
    assert main(["run", str(spec_path), "--seeds", "1..2", "--workers", "1", "--out", str(good)]) == 0
    raw = next(montecarlo._iter_records(good))
    _shard_with_record(bad, good, raw, has_null=True)
    capsys.readouterr()
    out = tmp_path / "out.shard"
    for argv in (["summary", str(bad)], ["combine", str(good), str(bad), "--out", str(out)]):
        assert main(argv) == 2
        assert "record 1 without a result" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "removed, message",
    [
        (None, "not JSON"),
        (("header",), "header is not a JSON object"),
        (("records",), "without header and records"),
        (("header", "fingerprint"), "header without fingerprint"),
        (("records", 0, "result"), "record 1 without a result"),
    ],
    ids=["not-json", "no-header", "no-records", "no-fingerprint", "no-result"],
)
def test_corrupt_json_export_reported(spec_path, tmp_path, capsys, removed, message):
    """``removed`` is the key path deleted from a good export; None writes
    text that is not JSON."""
    shard, export = tmp_path / "s.shard", tmp_path / "s.json"
    assert main(["run", str(spec_path), "--seeds", "1..2", "--workers", "1", "--out", str(shard)]) == 0
    montecarlo.save_shard_json(montecarlo.load_shard(shard), export)
    if removed is None:
        export.write_text("{broken")
    else:
        doc = json.loads(export.read_text())
        parent = doc
        for key in removed[:-1]:
            parent = parent[key]
        del parent[removed[-1]]
        export.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["summary", str(export)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: corrupt shard")
    assert message in err
