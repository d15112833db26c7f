"""Self-tests of the benchmark itself.

Run from the repository root (takes a few minutes on two cores)::

    python3 ajxbench/selftest.py

Checks that

* a smoke-length run of each workload, untraced and traced, prints every
  metric BENCHMARK.json names for that mode, with its unit, and passes;
* a planted wrong expected value and a planted inconsistent stripe are
  each rejected by the correctness gate;
* the exact counts of the traced run repeat across two runs of
  ``rw-3of5-serial`` with one seed, and the registry and ``pfor`` counts
  per write read 0 there;
* without the program source next to it the command fails without
  printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE = "1"
EXACT = ("net.calls_per_write", "net.calls_per_read", "net.block_bytes_per_write",
         "erasure.decode_calls")


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(cwd / HERE.name / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc.returncode, proc.stdout.splitlines()


def result(lines: list[str]) -> dict:
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}, out.keys()
    return out


def check_smoke() -> None:
    for workload in SPEC["workloads"]:
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            code, lines = bench("--workload", workload["name"], "--seed", "3",
                                "--seconds", SMOKE, "--trace", trace)
            out = result(lines)
            want = {m["name"]: m["unit"] for m in SPEC[section]}
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            assert got == want, (workload["name"], trace, set(got) ^ set(want))
            assert code == 0 and out["correct"], (workload["name"], lines[-12:])
            assert out["attempted"] >= 1 and out["failed"] == 0
            if section == "end_to_end":
                zero = [k for k, v in out["metrics"].items() if v["value"] <= 0]
                assert not zero, (workload["name"], zero)
            print(f"ok   smoke {workload['name']} --trace {trace}")


def check_gate() -> None:
    for plant in ("wrong-read", "bad-stripe"):
        code, lines = bench("--workload", "rw-3of5-serial", "--seed", "4",
                            "--seconds", SMOKE, "--inject", plant)
        out = result(lines)
        assert code != 0 and out["correct"] is False, (plant, lines[-5:])
        print(f"ok   gate rejects {plant}")


def check_exact_counts() -> None:
    runs = []
    for _ in range(2):
        code, lines = bench("--workload", "rw-3of5-serial", "--seed", "5",
                            "--seconds", SMOKE, "--trace", "1")
        assert code == 0, lines[-5:]
        runs.append(result(lines)["metrics"])
    first, second = runs
    exact = [k for k in first if k in EXACT or k.startswith("storage.calls.")]
    for key in exact:
        assert first[key]["value"] == second[key]["value"], key
    for key in ("obs.registry_lookups_per_write", "net.pfor.calls_per_write"):
        assert first[key]["value"] == 0, (key, first[key])
    print(f"ok   {len(exact)} exact counts repeat; registry and pfor idle")


def check_bare_directory() -> None:
    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    code, lines = bench("--workload", "rw-3of5-serial", "--seed", "1",
                        "--seconds", SMOKE, "--trace", "0", cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    assert code != 0 and not any(line.startswith("{") for line in lines)
    print("ok   bare directory fails without a result")


if __name__ == "__main__":
    check_bare_directory()
    check_gate()
    check_exact_counts()
    check_smoke()
    print("selftest passed")
