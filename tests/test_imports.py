"""The CLI contract: on numpy alone, with scipy never loaded, each command
of ``CASES`` exits with its code, with no traceback and no floating-point
warning.  The commands run in a fresh interpreter, this file run as a
script (``plain`` or ``block``, in an empty directory), since the test
process may have scipy loaded.  Every name a module exports exists.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve()
SRC = HERE.parents[1] / "src"

# input files, written to the work directory before the commands run
FILES = {
    "raw.csv": "1.5,2.5\n3.5,4.5\n5.5,6.5\n",
    "flat.csv": "1,0,1\n0,1,1\n2,1,3\n1,3,4\n",
    "w.csv": "".join(f"{i % 3}\n" for i in range(300)),
    "three.csv": "1,0,0\n0,2,0\n1,1,3\n",
    "one.csv": "1\n0\n0\n",
    "M.csv": "4,1,0,0\n1,3,1,0\n0,1,2,0.5\n0,0,0.5,1\n",
    "far.csv": "1e200,1,1,1\n1,2,0,1\n0,1,2,1\n2,1,1,3\n",
    "tiny.csv": "1e-160,0,0,0\n0,1e-160,0,0\n0,0,1e-160,0\n0,0,0,1e-160\n",
    "tinier.csv": "1e-307,0,0,0\n0,1e-307,0,0\n0,0,1e-307,0\n0,0,0,1e-307\n",
    "huge.csv": "1e154,0\n0,1e154\n1e154,1e154\n-1e154,2e154\n2e154,-1e154\n",
    "cm.csv": "1e150,0\n0,1e150\n1e150,1e150\n-1e150,2e150\n2e150,-1e150\n",
    "low.csv": "1e-100,0\n0,1e-100\n1e-100,1e-100\n-1e-100,2e-100\n"
               "2e-100,-1e-100\n",
    "high.csv": "1e300,0\n0,1e300\n",
    "bad.json": '{"format": "egd-mixture-v1", "dim": 4, "components": [',
}

# (command, exit code, why), in order: later rows read earlier outputs
CASES = (
    ("sample --dim 4 --a 1.2 --b 2.0 --n 300 --seed 5 --out x.csv", 0,
     "the data of the rows below"),
    ("fit --data x.csv --a 1.2 --b 2.0 --out model.json --trace trace.csv",
     0, "a fit writes its model and its trace"),
    ("eval --data x.csv --model model.json --mi-rate", 0, "eval reads it"),
    ("bench --dim 4 --a 1.2 --b 2.0 --n 200 --trials 1 --out-dir bench", 0,
     "a one-trial benchmark"),
    ("fit-mixture --data x.csv --k 2 --init random-assignment --seed 4 "
     "--out mixture.json", 0, "the seeded random-assignment start"),
    ("fit-mixture --data x.csv --k 2 --init kmeans-on-radii --out km.json",
     0, "the k-means start, the default"),
    ("fit-mixture --data x.csv --weights w.csv --k 2 --init kmeans-on-radii "
     "--trace em.csv --out wm.json", 0, "zero weights; EM writes its trace"),
    ("preprocess --data raw.csv --out log.csv", 0, "the log transform"),
    ("fit --data flat.csv --a 0.5 --b 2.0 --out flat.json", 4,
     "rows that do not span R^q fail the Cholesky rank rule"),
    ("fit --data x.csv --a 1.2 --b 2.0 --alpha-rule trace --tol 1e-16 "
     "--out tr.json", 0, "the trace rule stops on the residual's floor"),
    ("fit --data x.csv --a 1.2 --b 2.0 --algo kent-tyler --out kt.json", 0,
     "Kent-Tyler runs to convergence"),
    ("fit-mixture --data three.csv --weights one.csv --k 1 "
     "--init kmeans-on-radii --out rd.json", 4, "its rows do not span R^q"),
    ("sample --dim 4 --a 1.2 --b 2.0 --n 300 --seed 6 --scatter M.csv "
     "--out xm.csv", 0, "an SPD file as the sampling scatter"),
    ("fit --data x.csv --a 1.2 --b 2.0 --init identity --out id.json", 0,
     "the identity start"),
    ("fit --data x.csv --a 1.2 --b 2.0 --init M.csv --out user.json", 0,
     "an SPD file as the start"),
    ("sample --dim 4 --a 1e6 --b 1e-6 --n 400 --seed 3 --out big.csv", 0,
     "radii of shape 1e6"),
    ("fit-mixture --data big.csv --k 2 --init kmeans-on-radii --out big.json",
     0, "the gamma shape solver at shape 1e6"),
    ("fit --data x.csv --a 3.0 --b 2.0 --out wide.json", 0, "a > q/2 model"),
    ("eval --data far.csv --model wide.json", 4,
     "under it a row whose squared radius overflows has zero density"),
    ("fit --data far.csv --a 3.0 --b 1.0 --out far.json", 4,
     "that row's outer product overflows, which the error says"),
    ("fit-mixture --data far.csv --k 1 --out farm.json", 4,
     "so does a mixture start on it"),
    ("fit --data x.csv --a 3.0 --b 2.0 --tol 1e-300 --out floor.json", 0,
     "a concave fit below any reachable tol stops on the residual's floor"),
    ("fit --data x.csv --a 1.2 --b 2.0 --tol 1e-15 --max-iter 2 "
     "--out cap.json", 3, "the eigen rule stops at its iteration cap"),
    ("fit --data x.csv --a 3.0 --b 2.0 --tol 1e-15 --max-iter 2 "
     "--out capc.json", 3, "so does the concave fit"),
    ("fit --data x.csv --a 1.2 --b 2.0 --algo kent-tyler --tol 1e-15 "
     "--max-iter 2 --out capkt.json", 3, "and Kent-Tyler"),
    ("fit --data x.csv --a 1.2 --b 2.0 --init tiny.csv --out tiny.json", 0,
     "from 1e-160 I residual and log-likelihood overflow, with no warning"),
    ("fit --data x.csv --a 1.2 --b 2.0 --init tinier.csv --out tinier.json",
     0, "so they do from 1e-307 I"),
    ("fit --data huge.csv --a 0.5 --b 2.0 --out huge.json", 3,
     "five rows cannot normalize a candidate whose trace passes DBL_MAX"),
    ("fit-mixture --data huge.csv --k 1 --out hugem.json", 4,
     "their weighted second moment overflows at the mixture start"),
    ("fit --data cm.csv --a 1e9 --b 2.0 --out cm.json", 0,
     "c M overflows though M does not"),
    ("fit --data low.csv --a 3 --b 2 --init high.csv --out high.json", 0,
     "a concave start whose pencil with B overflows"),
    ("eval --data x.csv --model bad.json", 4, "a truncated model document"),
)


class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None


def scipy_loaded():
    return sorted(m for m in sys.modules
                  if m == "scipy" or m.startswith("scipy."))


def child(mode):
    """Write FILES and run CASES in the working directory, with scipy
    refused under mode "block"; print the scipy modules loaded then, and
    each command's exit code or the exception it let escape, as JSON on the
    last line."""
    if mode == "block":
        sys.meta_path.insert(0, RefuseScipy())
    from egd.cli import main
    for name, text in FILES.items():
        Path(name).write_text(text)
    codes = []
    for command, _, _ in CASES:
        try:
            codes.append(main(command.split()))
        except SystemExit as exc:
            codes.append(exc.code)
        except Exception as exc:
            traceback.print_exc()
            codes.append(f"traceback ({type(exc).__name__}: {exc})")
    print(json.dumps({"scipy": scipy_loaded(), "codes": codes}))


def run_child(work, mode):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(HERE), mode],
        capture_output=True, text=True, env=env, cwd=work, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    wrong = [f"{command}: exit {got}, expected {want} ({why})"
             for (command, want, why), got in zip(CASES, result["codes"])
             if got != want]
    assert not wrong, "\n".join(wrong + [proc.stderr])
    return result


def test_import_and_cli_leave_scipy_unloaded(tmp_path):
    result = run_child(tmp_path, "plain")
    assert result["scipy"] == []


def test_cli_runs_with_scipy_absent(tmp_path):
    run_child(tmp_path, "block")
    # a fit that stops unconverged (exit 3) still writes its model
    written = [words[i + 1] for command, code, _ in CASES if code in (0, 3)
               for words in [command.split()] for i, word in enumerate(words)
               if word in ("--out", "--trace")]
    for name in written + ["bench/environment.json"]:
        assert (tmp_path / name).stat().st_size > 0, name


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


if __name__ == "__main__":
    child(sys.argv[1])
