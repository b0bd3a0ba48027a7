"""Byte-level checks of trajectories.jsonl: the block writer against a
per-record reference writer, the block reader against both, and the
reader's refusal of lines off the writer's layout."""
import json
import re

import numpy as np
import pytest

from siegelbm import PathEnsemble, ensembles_equal, read_jsonl, write_jsonl
from siegelbm.ensemble import _WRITE_BLOCK, _meta_to_json
from siegelbm.errors import RecordInvalid


def reference_write_jsonl(ens: PathEnsemble, path: str):
    """The per-record writer the block writer replaced; its bytes are the oracle."""
    header = {
        "meta": _meta_to_json(ens.meta),
        "times": [float(t) for t in ens.times],
        "stopped_at": [None if np.isnan(t) else float(t) for t in ens.stopped_at],
        "stop_reason": list(ens.stop_reason),
        "rejections": [int(r) for r in ens.rejections],
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for p in range(ens.n_paths):
            stop_t = ens.stopped_at[p]
            for j, t in enumerate(ens.times):
                row = ens.samples[p, j]
                stopped = bool(not np.isnan(stop_t) and t >= stop_t)
                sigma = [] if np.any(np.isnan(row)) else [float(v) for v in row]
                rec = {"path": p, "t": float(t), "sigma": sigma, "stopped": stopped}
                fh.write(json.dumps(rec) + "\n")


_TIMES = np.arange(6) * 0.1


def _ensemble(n_paths, dim=2, beta=2.0, seed=0, times=_TIMES):
    rng = np.random.default_rng(seed)
    samples = np.cumsum(rng.uniform(0.1, 2.0, size=(n_paths, times.size, dim)), axis=-1)
    return PathEnsemble(
        meta={"scheme": "particle", "n": dim, "beta": beta, "dim": dim, "seed": seed},
        times=times.copy(),
        samples=samples,
        stopped_at=np.full(n_paths, np.nan),
        stop_reason=[None] * n_paths,
        rejections=rng.integers(0, 5, size=n_paths),
    )


def _stop(ens, p, t, reason="chamber-exit"):
    """Stop path p at time t: samples strictly after t become NaN."""
    ens.stopped_at[p] = t
    ens.stop_reason[p] = reason
    ens.samples[p, ens.times > t] = np.nan


def _frozen_at_sample_time():
    ens = _ensemble(3)
    _stop(ens, 1, float(_TIMES[2]), "cutoff-floor")
    assert not np.isnan(ens.samples[1, 2]).any()  # kept at t == stopped_at
    return ens


def _stopped_between_samples():
    ens = _ensemble(3)
    _stop(ens, 0, 0.25)
    return ens


def _all_stopped():
    ens = _ensemble(4)
    for p, t in enumerate([0.0, 0.1, 0.15, 0.5]):
        _stop(ens, p, t, "domain-exit")
    return ens


def _special_values():
    ens = _ensemble(2, dim=4)
    ens.samples[0, 1] = [1e-05, 1e16, -0.0, 0.1 + 0.2]
    ens.samples[1, 3] = [-0.0, 0.1 + 0.2, 1e-05, 1e16]
    return ens


def _entries(*values):
    """Two paths, each with one sample row made of values (dim = their count)."""
    ens = _ensemble(2, dim=len(values))
    ens.samples[0, 1] = values
    ens.samples[1, 3] = values[::-1]
    return ens


def _partial_nan_row():
    ens = _ensemble(2)
    ens.samples[0, 4, 1] = np.nan
    return ens


def _mixed_block(n_paths):
    ens = _ensemble(n_paths, seed=n_paths)
    for p in range(0, n_paths, 5):
        _stop(ens, p, float(_TIMES[p % _TIMES.size]) + 0.05 * (p % 2))
    return ens


CASES = {
    "frozen-at-sample-time": _frozen_at_sample_time,
    "stopped-between-samples": _stopped_between_samples,
    "all-stopped": _all_stopped,
    "dim-1": lambda: _ensemble(5, dim=1),
    "dim-8": lambda: _ensemble(5, dim=8),
    "beta-inf": lambda: _ensemble(3, beta=float("inf")),
    "special-values": _special_values,
    "partial-nan-row": _partial_nan_row,
    "one-path": lambda: _mixed_block(1),
    "block-minus-one": lambda: _mixed_block(_WRITE_BLOCK - 1),
    "block-plus-one": lambda: _mixed_block(_WRITE_BLOCK + 1),
    # json.dumps writes Infinity where float.__repr__ writes inf
    "infinities": lambda: _entries(np.inf, -np.inf, 1.0),
    "infinity-dim-1": lambda: _entries(-np.inf),
    "extreme-magnitudes": lambda: _entries(5e-324, 1.7976931348623157e308, -5e-324),
    # the two sides of each switch between positional and exponent reprs
    "repr-switch-large": lambda: _entries(9999999999999998.0, 1e16),
    "repr-switch-small": lambda: _entries(1e-05, 0.0001),
    "one-sample-time": lambda: _ensemble(3, times=np.array([0.25])),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_block_writer_matches_reference_bytes(tmp_path, case):
    ens = CASES[case]()
    write_jsonl(ens, tmp_path / "new.jsonl")
    reference_write_jsonl(ens, tmp_path / "ref.jsonl")
    assert (tmp_path / "new.jsonl").read_bytes() == (tmp_path / "ref.jsonl").read_bytes()


@pytest.mark.parametrize("case", sorted(set(CASES) - {"partial-nan-row"}))
def test_block_reader_round_trips(tmp_path, case):
    ens = CASES[case]()
    write_jsonl(ens, tmp_path / "t.jsonl")
    assert ensembles_equal(read_jsonl(tmp_path / "t.jsonl"), ens)


def test_stop_rule_in_records(tmp_path):
    ens = _frozen_at_sample_time()
    write_jsonl(ens, tmp_path / "t.jsonl")
    lines = (tmp_path / "t.jsonl").read_text().splitlines()[1:]
    recs = [json.loads(line) for line in lines if json.loads(line)["path"] == 1]
    assert [r["stopped"] for r in recs] == [False, False, True, True, True, True]
    assert recs[2]["sigma"] and not recs[3]["sigma"]


def test_reader_accepts_missing_final_newline(tmp_path):
    ens = _mixed_block(_WRITE_BLOCK + 1)
    write_jsonl(ens, tmp_path / "t.jsonl")
    text = (tmp_path / "t.jsonl").read_text()
    assert text.endswith("}\n")
    (tmp_path / "t.jsonl").write_text(text[:-1])
    assert ensembles_equal(read_jsonl(tmp_path / "t.jsonl"), ens)


def test_reader_batches_join_up(tmp_path, monkeypatch):
    # a batch hint smaller than one record makes every line its own batch
    monkeypatch.setattr("siegelbm.ensemble._READ_BYTES", 16)
    ens = _mixed_block(_WRITE_BLOCK + 1)
    write_jsonl(ens, tmp_path / "t.jsonl")
    assert ensembles_equal(read_jsonl(tmp_path / "t.jsonl"), ens)


def _first_entry(text):
    """An edit that puts text in place of a record's first sigma entry."""
    return lambda line: re.sub(r'"sigma": \[[^,\]]+', f'"sigma": [{text}', line)


# edits that take a record line off the writer's layout
_EDITS = {
    "no-open-bracket": lambda line: line.replace('"sigma": [', '"sigma": '),
    "no-close-bracket": lambda line: line.replace('], "stopped"', ', "stopped"'),
    "renamed-sigma": lambda line: line.replace('"sigma"', '"sigmas"'),
    "renamed-t": lambda line: line.replace('"t"', '"time"'),
    "unknown-path": lambda line: re.sub(r'"path": \d+', '"path": 99999', line),
    "t-off-header": lambda line: re.sub(r'"t": ([^,]+)', r'"t": \g<1>1', line),
    "flipped-flag": lambda line: line.replace("false", "TRUE").replace("true", "false").replace("TRUE", "true"),
    "nan-entry": _first_entry("NaN"),
    "cut-number": _first_entry("1e+"),
    # numbers that float() reads and JSON does not
    "inf-entry": _first_entry("Inf"),
    "minus-inf-entry": _first_entry("-Inf"),
    "infinity-entry": _first_entry("infinity"),
    "plus-entry": _first_entry("+1.0"),
    "leading-zero-entry": _first_entry("01"),
    "bare-fraction-entry": _first_entry(".5"),
    "bare-point-entry": _first_entry("5."),
    "short-sigma": lambda line: re.sub(r'"sigma": \[[^,\]]+, ', '"sigma": [', line),
    "blank": lambda line: "",
    "trailing-space": lambda line: line + " ",
    "space-in-sigma": lambda line: line.replace('"sigma": [', '"sigma": [ '),
}


def _edit_one_record(path, edit):
    """Apply edit to a middle record with a nonempty sigma list, of two
    entries or more where there are such; the record's line number, or
    None if the edit leaves the line as it is."""
    lines = path.read_text().splitlines()
    full = [k for k in range(1, len(lines)) if '"sigma": []' not in lines[k]]
    pairs = [k for k in full if ", " in lines[k].split("[")[1]]
    candidates = pairs or full
    k = candidates[len(candidates) // 2]
    edited = _EDITS[edit](lines[k])
    if edited == lines[k]:
        return None
    lines[k] = edited
    path.write_text("\n".join(lines) + "\n")
    return k + 1


@pytest.mark.parametrize("edit", sorted(_EDITS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_reader_names_a_line_off_the_layout(tmp_path, case, edit):
    write_jsonl(CASES[case](), tmp_path / "t.jsonl")
    line = _edit_one_record(tmp_path / "t.jsonl", edit)
    if line is None:
        pytest.skip("a one-entry sigma list cannot lose an entry and keep its brackets")
    with pytest.raises(RecordInvalid, match=f"line {line}: "):
        read_jsonl(tmp_path / "t.jsonl")


@pytest.mark.parametrize("edit", sorted(_EDITS))
def test_reader_names_the_line_across_batches(tmp_path, monkeypatch, edit):
    # a batch hint smaller than one record makes every line its own batch
    monkeypatch.setattr("siegelbm.ensemble._READ_BYTES", 16)
    write_jsonl(_mixed_block(_WRITE_BLOCK + 1), tmp_path / "t.jsonl")
    line = _edit_one_record(tmp_path / "t.jsonl", edit)
    with pytest.raises(RecordInvalid, match=f"line {line}: "):
        read_jsonl(tmp_path / "t.jsonl")


def test_reader_refuses_an_entry_moved_between_records(tmp_path):
    # one sigma list short of an entry and a later one long by it: the
    # batch still holds dim numbers per record, but its rows would shift
    write_jsonl(_ensemble(3), tmp_path / "t.jsonl")
    lines = (tmp_path / "t.jsonl").read_text().splitlines()
    lines[2] = re.sub(r'"sigma": \[[^,\]]+, ', '"sigma": [', lines[2])
    lines[5] = lines[5].replace('"sigma": [', '"sigma": [1.0, ')
    (tmp_path / "t.jsonl").write_text("\n".join(lines) + "\n")
    with pytest.raises(RecordInvalid, match="line 3: "):
        read_jsonl(tmp_path / "t.jsonl")
