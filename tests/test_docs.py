"""Documented examples run as written, and documented names exist."""

import importlib
import pkgutil
import re
from pathlib import Path

import boselab
from boselab import cli

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = {m.name for m in pkgutil.iter_modules(boselab.__path__) if not m.name.startswith("_")}


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    value = float(capsys.readouterr().out)
    assert value >= 0.0


def test_readme_example_config_runs(tmp_path):
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    cfg = tmp_path / "example.json"
    cfg.write_text(blocks[0])
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out), "--seed", "7"]) == 0
    for name in ("moment-check.csv", "moment-check.json", "run_manifest.json"):
        assert (out / name).is_file()


def _resolves(dotted: str) -> bool:
    head, *attrs = dotted.removeprefix("boselab.").split(".")
    if head in MODULES:
        obj = importlib.import_module(f"boselab.{head}")
    else:
        obj = getattr(boselab, head, None)
    for attr in attrs:
        obj = getattr(obj, attr, None)
    return obj is not None


def test_readme_dotted_names_resolve():
    """Each backticked ``boselab.<x>`` or ``<module>.<x>`` in README.md is bound.

    A call such as ``approx.halo(g, X, ell0, k)`` is checked by its name.
    """
    spans = re.findall(r"`([^`\n]+)`", README.read_text())
    names = [m.group() for s in spans if (m := re.match(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+", s))]
    checked = [n for n in names if n.split(".")[0] in {"boselab", *MODULES}]
    assert checked
    assert [n for n in checked if not _resolves(n)] == []
