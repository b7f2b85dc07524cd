"""egd imports and runs its CLI on numpy alone; scipy is never loaded.

Each scipy check runs in a fresh interpreter, since the test process itself
has scipy loaded.  The gamma shape fits are the only code that needs scipy.
Every name a module exports exists.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs in the child.  argv: work directory, then "block" to install a
# finder that refuses scipy or "plain" to leave imports alone.  Prints the
# scipy modules loaded after `import egd` and after the CLI commands, and
# the exit code of each command, as JSON on the last line.
CHILD = r"""
import json
import sys
from pathlib import Path


class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None


def scipy_loaded():
    return sorted(m for m in sys.modules
                  if m == "scipy" or m.startswith("scipy."))


work = Path(sys.argv[1])
if sys.argv[2] == "block":
    sys.meta_path.insert(0, RefuseScipy())
import egd

seen = {"import egd": scipy_loaded()}
from egd.cli import main

data, model, trace = work / "x.csv", work / "model.json", work / "trace.csv"
commands = {
    "sample": ["sample", "--dim", "4", "--a", "1.2", "--b", "2.0",
               "--n", "300", "--seed", "5", "--out", data],
    "fit": ["fit", "--data", data, "--a", "1.2", "--b", "2.0",
            "--out", model, "--trace", trace],
    "eval": ["eval", "--data", data, "--model", model, "--mi-rate"],
    "bench": ["bench", "--dim", "4", "--a", "1.2", "--b", "2.0", "--n", "200",
              "--trials", "1", "--out-dir", work / "bench"],
}
codes = {name: main([str(arg) for arg in argv])
         for name, argv in commands.items()}
seen["cli"] = scipy_loaded()
print(json.dumps({"seen": seen, "codes": codes}))
"""


def run_child(work, mode):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", CHILD, str(work), mode],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_and_cli_leave_scipy_unloaded(tmp_path):
    result = run_child(tmp_path, "plain")
    assert result["seen"] == {"import egd": [], "cli": []}
    assert result["codes"] == {"sample": 0, "fit": 0, "eval": 0, "bench": 0}


def test_cli_runs_with_scipy_absent(tmp_path):
    result = run_child(tmp_path, "block")
    assert result["codes"] == {"sample": 0, "fit": 0, "eval": 0, "bench": 0}
    for name in ("x.csv", "model.json", "trace.csv", "bench/environment.json"):
        assert (tmp_path / name).stat().st_size > 0
    # the installed version is read from package metadata, not by import
    env = json.loads((tmp_path / "bench" / "environment.json").read_text())
    assert env["scipy"]


def test_every_public_name_exists():
    # perfbench's public_functions skips names it cannot find, so a name
    # left in one list after a deletion would otherwise go unseen
    import egd
    modules = {info.name: importlib.import_module(f"egd.{info.name}")
               for info in pkgutil.iter_modules(egd.__path__)}
    for module in (egd, *modules.values()):
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
    exported = set().union(*(modules[name].__all__ for name in
                             ("core", "gammafit", "mixture", "scatter")))
    assert sorted(egd.__all__) == sorted(exported | {"__version__"})
