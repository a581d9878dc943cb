"""End-to-end command-line workflow."""

import csv
import json
import struct

import pytest

from mamsim import montecarlo
from mamsim.cli import main
from mamsim.rules import RuleError

from trial_designs import count_dose_design, gaussian_two_stage_design


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


def _shard_with_record(path, source, *raws, **header_changes):
    """Copy ``source``'s header onto a shard holding the records ``raws``."""
    header = montecarlo.read_shard_header(source)
    header["n_records"] = len(raws)
    header.update(header_changes)
    blob = json.dumps(header).encode()
    path.write_bytes(
        montecarlo.MAGIC + struct.pack("<I", len(blob)) + blob + struct.pack("<Q", len(raws))
        + b"".join(struct.pack("<I", len(raw)) + raw for raw in raws)
    )


def _set(path, value):
    """Edit of a record document: set the key path ``path`` to ``value``."""
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return edit


def _relabelled(doc, seed):
    """A record document with its seed and its result's seed set to ``seed``."""
    return dict(doc, seed=seed, result=dict(doc["result"], seed=seed))


def _delete(path):
    """Edit of a record document: delete the key path ``path``."""
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        del doc[path[-1]]
    return edit


@pytest.mark.parametrize(
    "raw, message",
    [
        (b"{not json", "bad record"),
        (b'{"result": {}}', "without an integer seed"),
        (b'{"seed": 1}', "record 1 without a result"),
        pytest.param(
            _delete(("result", "total_size")), "TrialResult without total_size",
            id="no-total-size",
        ),
        pytest.param(_set(("result",), 5), "TrialResult is not a JSON object", id="result-5"),
        pytest.param(
            _set(("result", "decisions", "T1"), {"efficacy_met": True}),
            "ArmDecision without futility_met, look_index, timing",
            id="partial-decision",
        ),
        pytest.param(
            _delete(("result", "decisions", "T2")),
            "decisions are not keyed by exactly the arms",
            id="decision-missing-arm",
        ),
        pytest.param(
            _set(("result", "history", 0, "extra"), 1),
            "LookRecord with unexpected extra",
            id="history-extra-key",
        ),
        pytest.param(
            lambda doc: [doc, _relabelled(doc, 4)],
            "record 4 out of seed order",
            id="out-of-seed-order",
        ),
        pytest.param(
            _set(("result", "seed"), 6),
            "record 5 holds a result of seed 6",
            id="result-of-another-seed",
        ),
        pytest.param(
            _set(("result", "sample_sizes"), 5),
            "TrialResult sample_sizes of the wrong type (int)",
            id="sample-sizes-int",
        ),
        pytest.param(
            _set(("result", "total_size"), "x"),
            "TrialResult total_size of the wrong type (str)",
            id="total-size-str",
        ),
    ],
)
def test_corrupt_record_reported_by_every_verb(spec_path, tmp_path, capsys, raw, message):
    """``raw`` is a record's bytes, or an edit of seed 5's good record, made
    in place or returning the record documents to write instead."""
    good, bad = tmp_path / "good.shard", tmp_path / "bad.shard"
    assert main(["run", str(spec_path), "--seeds", "1..2", "--workers", "1", "--out", str(good)]) == 0
    raws = [raw]
    if callable(raw):
        assert main(["run", str(spec_path), "--seeds", "5", "--workers", "1", "--out", str(bad)]) == 0
        doc = json.loads(montecarlo._record_bytes(montecarlo.load_shard(bad), 0))
        raws = [json.dumps(d).encode() for d in raw(doc) or [doc]]
    _shard_with_record(bad, good, *raws)
    capsys.readouterr()
    out = tmp_path / "out.shard"
    for argv in (["summary", str(bad)], ["combine", str(good), str(bad), "--out", str(out)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: corrupt shard")
        assert message in err
    assert not out.exists()


def test_combine_refuses_out_of_order_input(spec_path, tmp_path, capsys):
    good, pair, bad = (tmp_path / n for n in ("good.shard", "pair.shard", "bad.shard"))
    assert main(["run", str(spec_path), "--seeds", "1..2", "--workers", "1", "--out", str(good)]) == 0
    assert main(["run", str(spec_path), "--seeds", "3..4", "--workers", "1", "--out", str(pair)]) == 0
    batch = montecarlo.load_shard(pair)
    _shard_with_record(
        bad, pair, montecarlo._record_bytes(batch, 1), montecarlo._record_bytes(batch, 0)
    )
    capsys.readouterr()
    out = tmp_path / "out.shard"
    assert main(["combine", str(good), str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: corrupt shard") and "record 3 out of seed order" in err
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
    raw = montecarlo._record_bytes(montecarlo.load_shard(good), 0)
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


def test_out_of_range_rule_parameter_reported(tmp_path, capsys):
    doc = count_dose_design(
        eff_arm_rule={"family": "infofract", "params": {"b": 1.5, "p": 1.5}}
    )
    path, out = tmp_path / "range.json", tmp_path / "range.shard"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--workers", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "eff_arm_rule: parameter b must lie in (0, 1), got 1.5" in err
    assert not out.exists()


def test_datagen_error_reported(tmp_path, capsys):
    doc = count_dose_design()
    doc["beta_true"] = [800.0] + doc["beta_true"][1:]
    path, out = tmp_path / "overflow.json", tmp_path / "overflow.shard"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--workers", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: response mean is not finite; check beta_true and link\n"
    assert not out.exists()


def test_rule_error_reported(spec_path, tmp_path, capsys, monkeypatch):
    def degenerate(*args, **kwargs):
        raise RuleError("all RAR posteriors are zero; weights are degenerate")

    monkeypatch.setattr(montecarlo, "run_batch", degenerate)
    assert main(["run", str(spec_path), "--out", str(tmp_path / "r.shard")]) == 2
    assert capsys.readouterr().err == (
        "error: all RAR posteriors are zero; weights are degenerate\n"
    )
