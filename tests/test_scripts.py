"""The experiment recipes under scripts/, run end to end at a tiny trial count, and
README's library example, run as written.

Each script drives `risra.cli.main`; the hashes pin every CSV byte they write.
One worker keeps every cell in this process.
"""

import hashlib
import re
import runpy
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
ARGV = ["--trials", "2", "--seed", "1", "--workers", "1"]
EXPECTED = {  # sha256 of each CSV the four scripts write with ARGV
    "devices_s5": "22400d6e14ae31ac9e52b6ad9031171513a4bc05b1f337b72e7877cb17f8fde0",
    "devices_s20": "bb8be189ad1a33b291e386973ff6efc2d8ab43a3b633aae829a7242ce04fe2ff",
    "tx_power_s5": "6fca39157c0e873baf175e57d53aceb5b0761639a90a641b979f6d773c873c22",
    "tx_power_s20": "98c192cd4eccbf22d81de2329c82da3fb5a8588ef52d08868cec7a314c81b6c1",
    "elements_s5": "0d0bd6bb6b3c375efc2da5e121957008a518ccb5e0940ce0e0ee9596fe079ba3",
    "elements_s20": "79cbc2f3fdf0f26e73eb9ff241886c3ce138da239331a5af566bae38631365f9",
    "optimal_slots_carp": "1de79122013b93951995fb71851f52f675a8857ba562baad6f3f0a73b6085445",
    "optimal_slots_sscp_crdsap_irsap":
        "d644000add53f7ea4ec2b4dc16ed890dd86c52ae306b77c47974c253850a3e35",
}


def test_script_csv_bytes_are_pinned(tmp_path, monkeypatch):
    for script in sorted(SCRIPTS.glob("*.py")):
        monkeypatch.setattr(sys, "argv", [script.name, *ARGV, "--out-dir", str(tmp_path)])
        runpy.run_path(str(script), run_name="__main__")
    digests = {p.stem: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.glob("*.csv")}
    assert digests == EXPECTED


def test_readme_library_example_runs(capsys):
    section = (ROOT / "README.md").read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    [code] = re.findall(r"```python\n(.*?)```", section, re.S)
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert len(capsys.readouterr().out.splitlines()) >= 2
    # the frame is trial 0 of the run, its trace that trial's (trial, pass, slot, device) rows
    trace = namespace["frame"].trace
    assert trace.shape[1:] == (4,) and len(trace) == namespace["frame"].successes
    assert np.array_equal(trace[:, 0], np.zeros(len(trace)))
