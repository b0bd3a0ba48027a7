"""README's examples run as written: the sample JSON configuration reads
through config_from_dict, and the Library block runs with warnings as
errors."""
import json
import re
import warnings
from pathlib import Path

from siegelbm import config_from_dict

_README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(after: str, lang: str) -> str:
    """The first fenced block in lang after the line that starts with after."""
    start = re.search(rf"^{re.escape(after)}", _README, re.M).end()
    return re.compile(rf"^```{lang}\n(.*?)^```", re.M | re.S).search(_README, start).group(1)


def test_readme_sample_configuration_reads():
    assert config_from_dict(json.loads(_block("Sample configuration:", "json"))).n_paths == 5000


def test_readme_library_block_runs_without_warnings():
    namespace = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(_block("## Library", "python"), "README.md", "exec"), namespace)
    # the code path and the JSON path describe the same run
    sample = config_from_dict(json.loads(_block("Sample configuration:", "json")))
    assert namespace["cfg"].to_meta() == sample.to_meta()
    assert namespace["ens"].n_paths == namespace["mat"].n_paths == sample.n_paths
