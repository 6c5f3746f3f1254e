"""Golden digests: seeded `ocdgr train` output must not move by a single byte.

Six small runs cover the three trainers, on toy data (100 wide) and on 784-wide
digit-like data, under exact and AIS log Z. Each writes model.rbm and metrics.csv,
and their SHA-256 digests must equal the ones in tests/golden.json. The runs go in a
subprocess with one BLAS thread: the bytes depend on the numpy/BLAS build and on the
BLAS thread count (README, "Determinism"), so golden.json records the build too.

After a change that moves the digests on purpose, regenerate the file with

    PYTHONPATH=src python tests/test_golden.py --write

and list the old and new digests in CHANGES.md.
"""

import argparse
import ctypes
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import ocdgr
from ocdgr.cli import main

from conftest import digit_like_dataset

GOLDEN = Path(__file__).with_name("golden.json")
SRC = Path(__file__).resolve().parents[1] / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_TOY = ({"kind": "toy", "n_per_class": 30}, {"kind": "toy", "n_per_class": 10}, 8)
_DIGITS = ({"kind": "text", "path": "digits.txt", "labels_path": "digits_labels.txt"},
           {"kind": "text", "path": "digits_test.txt", "labels_path": "digits_test_labels.txt"},
           16)
# name -> (trainer, data, estimator); every trainer meets both datasets and both estimators
RUNS = {
    "toy_ocdgr_exact": ("ocdgr", _TOY, "exact"),
    "toy_er_ml_ais": ("er_ml", _TOY, "ais"),
    "toy_er_im_exact": ("er_im", _TOY, "exact"),
    "digits_ocdgr_ais": ("ocdgr", _DIGITS, "ais"),
    "digits_er_ml_exact": ("er_ml", _DIGITS, "exact"),
    "digits_er_im_ais": ("er_im", _DIGITS, "ais"),
}


def _config(name):
    trainer, (train, test, n_h), estimator = RUNS[name]
    # paths are relative to the run directory, since the config is embedded in both files
    return {"master_seed": 0, "trainer": trainer, "train_dataset": train, "test_dataset": test,
            "stream_order": "sorted_by_class", "checkpoint_every": 150,
            "estimator": estimator, "ais": {"n_betas": 100, "n_chains": 20},
            "hyperparameters": {"n_h": n_h}, "output_dir": f"out/{name}"}


def _environment():
    """What the bytes depend on besides the code: the numpy build, its BLAS and the CPU
    features both dispatch on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy < 1.26: no dict mode
        blas = {}
    core = None
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*")):
        fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
        if fn is not None:
            fn.restype = ctypes.c_char_p
            core = fn().decode()
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_core": core,
            "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "cpu_features": sorted(k for k, on in __cpu_features__.items() if on)}


def _train_all(workdir: Path) -> dict:
    """Run every config in workdir (in this process) and return the digests."""
    os.chdir(workdir)
    for stem, n_rows, seed in (("digits", 300, 0), ("digits_test", 100, 1)):
        batch = digit_like_dataset(n_rows, seed=seed)
        np.savetxt(f"{stem}.txt", batch.rows, fmt="%d")
        np.savetxt(f"{stem}_labels.txt", batch.labels, fmt="%d")
    digests = {}
    for name in RUNS:
        config = Path(f"{name}.json")
        config.write_text(json.dumps(_config(name)))
        if main(["train", "--config", str(config)]) != 0:
            raise RuntimeError(f"ocdgr train failed on golden config {name}")
        digests[name] = {f: hashlib.sha256(Path(f"out/{name}/{f}").read_bytes()).hexdigest()
                         for f in ("model.rbm", "metrics.csv")}
    return {"environment": _environment(), "digests": digests,
            "ocdgr_dir": os.path.dirname(ocdgr.__file__)}


def run_golden(workdir) -> dict:
    """_train_all in a fresh interpreter on this checkout's src, with one BLAS thread."""
    env = {**os.environ, **dict.fromkeys(THREAD_VARS, "1"), "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--run", str(workdir)],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_train_outputs_match_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    result = run_golden(tmp_path)
    assert Path(result["ocdgr_dir"]) == SRC / "ocdgr", "the runs imported another checkout"
    assert set(golden["digests"]) == set(RUNS)
    moved = [f"{name}/{f}" for name, files in golden["digests"].items()
             for f, digest in files.items() if result["digests"][name][f] != digest]
    if moved:
        recorded, now = golden["environment"], result["environment"]
        differs = {k: (recorded.get(k), now.get(k)) for k in recorded.keys() | now.keys()
                   if recorded.get(k) != now.get(k)}
        where = (f"the environment differs from the recorded one (recorded, now): {differs}"
                 if differs else "the environment matches the recorded one, so the code moved them")
        raise AssertionError(f"golden digests moved for {', '.join(moved)}; {where}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help=f"regenerate {GOLDEN.name}")
    mode.add_argument("--run", metavar="DIR", help="train every config in DIR, print JSON")
    args = parser.parse_args()
    if args.run:
        print(json.dumps(_train_all(Path(args.run))))
    else:
        with tempfile.TemporaryDirectory() as tmp:
            result = run_golden(tmp)
        GOLDEN.write_text(json.dumps({k: result[k] for k in ("environment", "digests")},
                                     indent=2, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN}")
