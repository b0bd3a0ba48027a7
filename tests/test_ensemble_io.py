"""Byte-level checks of trajectories.jsonl: the block writer against a
per-record reference writer, the block reader against both, the reader's
refusal of lines off the writer's layout, and the memory both take beyond
the ensemble."""
import json
import re
import tracemalloc

import numpy as np
import pytest

from siegelbm import PathEnsemble, ensembles_equal, read_jsonl, write_jsonl
from siegelbm.ensemble import _WRITE_VALUES, _meta_to_json
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
# paths in one write_jsonl block of a dim-2 ensemble sampled at _TIMES
_BLOCK = _WRITE_VALUES // (_TIMES.size * 2)


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


def _long_path():
    ens = _ensemble(1, times=np.arange(_WRITE_VALUES + 5) * 1e-3)
    _stop(ens, 0, 3.0)
    return ens


def _many_paths():
    # more paths than _WRITE_VALUES, so the header's stop lists span blocks
    ens = _ensemble(_WRITE_VALUES + 5, dim=1, times=np.array([0.0, 0.5]))
    for p in range(0, ens.n_paths, 3):
        _stop(ens, p, 0.25, ("chamber-exit", "cutoff-floor")[p % 2])
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
    "block-minus-one": lambda: _mixed_block(_BLOCK - 1),
    "block-plus-one": lambda: _mixed_block(_BLOCK + 1),
    # json.dumps writes Infinity where float.__repr__ writes inf
    "infinities": lambda: _entries(np.inf, -np.inf, 1.0),
    "infinity-dim-1": lambda: _entries(-np.inf),
    "extreme-magnitudes": lambda: _entries(5e-324, 1.7976931348623157e308, -5e-324),
    # the two sides of each switch between positional and exponent reprs
    "repr-switch-large": lambda: _entries(9999999999999998.0, 1e16),
    "repr-switch-small": lambda: _entries(1e-05, 0.0001),
    "one-sample-time": lambda: _ensemble(3, times=np.array([0.25])),
    # one path of more values, and more times, than _WRITE_VALUES
    "long-path": _long_path,
    "many-paths": _many_paths,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_block_writer_matches_reference_bytes(tmp_path, case):
    ens = CASES[case]()
    write_jsonl(ens, tmp_path / "new.jsonl")
    reference_write_jsonl(ens, tmp_path / "ref.jsonl")
    assert (tmp_path / "new.jsonl").read_bytes() == (tmp_path / "ref.jsonl").read_bytes()


@pytest.mark.parametrize("values", [1, 11, 12, 13, 25])
def test_write_blocks_hold_at_least_one_record(tmp_path, monkeypatch, values):
    # a dim-2 record holds 2 values and a path at _TIMES 12: a cap below 2
    # still formats one record per block, and the others split the
    # records off path edges or on them
    monkeypatch.setattr("siegelbm.ensemble._WRITE_VALUES", values)
    ens = _mixed_block(7)
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
    ens = _mixed_block(_BLOCK + 1)
    write_jsonl(ens, tmp_path / "t.jsonl")
    text = (tmp_path / "t.jsonl").read_text()
    assert text.endswith("}\n")
    (tmp_path / "t.jsonl").write_text(text[:-1])
    assert ensembles_equal(read_jsonl(tmp_path / "t.jsonl"), ens)


def test_reader_batches_join_up(tmp_path, monkeypatch):
    # a batch hint smaller than one record makes every line its own batch
    monkeypatch.setattr("siegelbm.ensemble._READ_BYTES", 16)
    ens = _mixed_block(_BLOCK + 1)
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
    write_jsonl(_mixed_block(_BLOCK + 1), tmp_path / "t.jsonl")
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


def _records_of(path, edit):
    """Rewrite path's record lines by edit, which takes and returns their list."""
    head, *records = path.read_text().splitlines(keepends=True)
    path.write_text(head + "".join(edit(records)))


def _swap(records, a, b):
    records[a], records[b] = records[b], records[a]
    return records


# a 4-path, 6-time file whose records are missing, out of order or
# repeated: every record is in the layout, only its place is wrong
_MISPLACED = {
    # the file ends 3 records early, at line 23 of 25
    "cut": (lambda records: records[:-3], "line 23: missing: "),
    # path 1's records at t = 0.2 and t = 0.4 trade lines 10 and 12
    "swapped": (lambda records: _swap(records, 8, 10), "line 10: "),
    # the last record is written a second time, as line 26
    "repeated": (lambda records: records + records[-1:], "line 26: "),
}


@pytest.mark.parametrize("form", sorted(_MISPLACED))
def test_reader_refuses_records_out_of_place(tmp_path, form):
    write_jsonl(_ensemble(4), tmp_path / "t.jsonl")
    edit, message = _MISPLACED[form]
    _records_of(tmp_path / "t.jsonl", edit)
    with pytest.raises(RecordInvalid, match=message):
        read_jsonl(tmp_path / "t.jsonl")


def _header_line(**changes):
    """An edit of the header that sets the given keys."""
    return lambda head: json.dumps({**head, **changes})


# header lines off write_jsonl's form, each of a one-path ensemble
_HEADERS = {
    "not-json": lambda head: "header",
    "list": lambda head: json.dumps(list(head.values())),
    "no-dim": lambda head: json.dumps({**head, "meta": {k: v for k, v in head["meta"].items() if k != "dim"}}),
    "dim-zero": lambda head: json.dumps({**head, "meta": {**head["meta"], "dim": 0}}),
    "dim-true": lambda head: json.dumps({**head, "meta": {**head["meta"], "dim": True}}),
    "meta-list": _header_line(meta=[2]),
    "no-times": lambda head: json.dumps({k: v for k, v in head.items() if k != "times"}),
    "extra-key": _header_line(paths=1),
    "numeric-times": _header_line(times=0.5),
    "integer-time": lambda head: json.dumps({**head, "times": [0, *head["times"][1:]]}),
    "string-stop": _header_line(stopped_at=["0.1"]),
    "number-reason": _header_line(stop_reason=[1]),
    "float-rejections": _header_line(rejections=[1.0]),
    # one path's records under a header that lists two paths' stops
    "two-stops": _header_line(stopped_at=[None, None]),
    "two-reasons": _header_line(stop_reason=[None, None]),
    "no-rejections": _header_line(rejections=[]),
    # JSON that reads as the same header, in spellings write_jsonl never writes
    "reordered-keys": lambda head: json.dumps(dict(reversed(head.items()))),
    "compact": lambda head: json.dumps(head, separators=(",", ":")),
    "spaced": lambda head: json.dumps(head, separators=(" , ", " : ")),
    "trailing-space": lambda head: json.dumps(head) + " ",
    "infinity-beta": lambda head: json.dumps({**head, "meta": {**head["meta"], "beta": float("inf")}}),
}


@pytest.mark.parametrize("edit", sorted(_HEADERS))
def test_reader_refuses_a_header_off_the_form(tmp_path, edit):
    write_jsonl(_ensemble(1), tmp_path / "t.jsonl")
    head, records = (tmp_path / "t.jsonl").read_text().split("\n", 1)
    (tmp_path / "t.jsonl").write_text(_HEADERS[edit](json.loads(head)) + "\n" + records)
    with pytest.raises(RecordInvalid, match="line 1: not a header in write_jsonl's form: "):
        read_jsonl(tmp_path / "t.jsonl")


@pytest.mark.parametrize("values", [1, 2, 5])
def test_header_round_trips_across_its_blocks(tmp_path, monkeypatch, values):
    # header lists of 6 times and 7 paths split into blocks of values
    # entries, at beta = inf, with stops and reasons on either side
    monkeypatch.setattr("siegelbm.ensemble._WRITE_VALUES", values)
    ens = _mixed_block(7)
    ens.meta["beta"] = float("inf")
    ens.stop_reason[5] = "cutoff-floor"
    write_jsonl(ens, tmp_path / "new.jsonl")
    reference_write_jsonl(ens, tmp_path / "ref.jsonl")
    assert (tmp_path / "new.jsonl").read_bytes() == (tmp_path / "ref.jsonl").read_bytes()
    assert ensembles_equal(read_jsonl(tmp_path / "new.jsonl"), ens)


def test_reader_refuses_an_empty_file(tmp_path):
    (tmp_path / "t.jsonl").write_text("")
    with pytest.raises(RecordInvalid, match="line 1: not a header in write_jsonl's form: "):
        read_jsonl(tmp_path / "t.jsonl")


def _traced_peak(run):
    """run's result and the most memory it held at once, as traced from
    its start."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_and_read_memory_stays_near_the_samples(tmp_path):
    # 200 paths at 2,001 sample times and dim 3: a 9.6 MB sample array,
    # whose records would take 85.8 MB to format in blocks of 64 paths
    ens = _ensemble(200, dim=3, times=np.arange(2001) * 1e-3)
    for p in range(0, 200, 7):
        _stop(ens, p, 0.5 + 1e-3 * p)
    _, write_peak = _traced_peak(lambda: write_jsonl(ens, tmp_path / "t.jsonl"))
    back, read_peak = _traced_peak(lambda: read_jsonl(tmp_path / "t.jsonl"))
    assert ensembles_equal(back, ens)
    assert write_peak < 4e6
    assert read_peak - ens.samples.nbytes < 2e6


def test_write_memory_stays_bounded_for_one_long_path(tmp_path):
    # one path at 200,001 sample times and dim 2: a 3.2 MB sample array,
    # which took 110.6 MB to format as one block of the whole path
    ens = _ensemble(1, times=np.arange(200_001) * 1e-2)
    _stop(ens, 0, 1500.0)
    _, write_peak = _traced_peak(lambda: write_jsonl(ens, tmp_path / "t.jsonl"))
    assert write_peak < 2e6
    assert ensembles_equal(read_jsonl(tmp_path / "t.jsonl"), ens)


def test_read_memory_for_one_long_path(tmp_path):
    # the header of one path at 200,001 sample times is a 2.0 MB line
    # whose times parse to 6.4 MB of Python floats; keeping the parsed
    # header to the end of the read took 8.5 MB beyond the 3.2 MB samples
    ens = _ensemble(1, times=np.arange(200_001) * 1e-2)
    _stop(ens, 0, 1500.0)
    write_jsonl(ens, tmp_path / "t.jsonl")
    back, read_peak = _traced_peak(lambda: read_jsonl(tmp_path / "t.jsonl"))
    assert ensembles_equal(back, ens)
    assert read_peak - ens.samples.nbytes < 8e6
