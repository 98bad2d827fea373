"""CI smoke test for the fuzz oracle (keeps `repro sweep --fuzz` honest).

Proves the harness's three properties end to end:

1. determinism: two invocations of `repro sweep --fuzz 8 --seed 7`
   produce identical stdout — same plan, same per-scenario digests,
   same plan digest;
2. cross-check: the fixed-seed batch is bit-identical across the
   serial, thread and process executors (exit 0), covering all four
   controllers plus the curated modern workloads (transformer,
   depthwise/dilated/grouped/NHWC conv); the thread and process legs
   pull more chunks than serial's one per engine group, so they compare
   the pooled path, not the inline one;
3. shrink-on-failure: an artificially injected per-executor divergence
   is caught by the library-level cross-check, shrunk to a minimal
   reproducing layer stack, written as a repro TOML, and the reloaded
   repro file replays clean without the injection.

Run:  PYTHONPATH=src python scripts/fuzz_smoke.py
Exit: 0 on success, 1 on any mismatch.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
sys.path.insert(0, SRC)


def run_cli(*argv, expect=0):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        capture_output=True, text=True, env=env, cwd=str(ROOT),
    )
    if proc.returncode != expect:
        raise SystemExit(
            f"FAIL: repro {' '.join(argv)} exited {proc.returncode} "
            f"(expected {expect})\n{proc.stdout}{proc.stderr}"
        )
    return proc.stdout


def main() -> int:
    # 1 + 2. Fixed-seed batch: deterministic and bit-identical across
    # serial/thread/process (the CLI exits non-zero on any divergence).
    argv = ("sweep", "--fuzz", "8", "--seed", "7", "--max-workers", "2")
    first = run_cli(*argv)
    second = run_cli(*argv)
    assert first == second, (
        f"fuzz not deterministic across invocations:\n--- first\n{first}"
        f"--- second\n{second}"
    )
    assert "bit-identical across serial, thread, process" in first, first
    for model in ("transformer", "depthwise_sep", "dilated_conv",
                  "grouped_conv", "nhwc_conv"):
        assert model in first, f"curated model {model} missing:\n{first}"
    for arch in ("maeri", "sigma", "tpu", "magma"):
        assert f"/{arch}/" in first, f"controller {arch} missing:\n{first}"
    print("fuzz --fuzz 8 --seed 7: deterministic, bit-identical across "
          "serial/thread/process, all four controllers covered")

    from repro import fuzz
    from repro.session.config import SessionConfig
    from repro.zoo import register_model, zoo_layers

    # The same batch through the library: serial pulls one chunk per
    # engine group; the pooled legs must split groups across slots.
    base = SessionConfig.resolve(env=False, max_workers=2)
    result = fuzz.cross_check(fuzz.generate_plan(8, 7, base), base=base)
    assert result.ok, result.divergent
    pulled = result.chunks_pulled
    for executor in ("thread", "process"):
        assert pulled[executor] > pulled["serial"], pulled
    print(f"chunks pulled: serial {pulled['serial']} (one per group), "
          f"thread {pulled['thread']}, process {pulled['process']}")

    # 3. Injected divergence: caught, shrunk, re-emitted, replayable.
    plan = fuzz.generate_plan(8, 11, base)
    victim = plan.scenarios[-1]
    layers = zoo_layers(victim.model)
    faulty_layer = layers[0].name

    def inject(executor, scenario_name, stats_dicts):
        # A deterministic "kernel bug" visible only on the thread
        # backend and only for one layer, so the shrinker can isolate
        # it out of whatever stack the scenario carries.
        if executor != "thread":
            return stats_dicts
        out = [dict(s) for s in stats_dicts]
        touched = False
        for stats in out:
            if stats["layer_name"] == faulty_layer:
                stats["cycles"] += 1
                touched = True
        return out if touched else stats_dicts

    executors = ("serial", "thread")
    result = fuzz.cross_check(plan, base=base, executors=executors,
                              inject=inject)
    assert victim.name in result.divergent, (
        f"injected divergence not caught: {result.divergent}"
    )
    print(f"injected divergence caught in {victim.name}")

    # Pad the victim's stack so the shrinker has something to remove.
    from repro.stonne.layer import FcLayer

    padded = list(layers) + [
        FcLayer("smoke.pad0", in_features=8, out_features=8),
        FcLayer("smoke.pad1", in_features=16, out_features=4),
    ]
    register_model(victim.model, lambda: list(padded), replace=True,
                   description="fuzz smoke padded victim", tags=("fuzz",))
    minimal = fuzz.shrink(victim, executors, inject=inject)
    names = [layer.name for layer in minimal]
    assert names == [faulty_layer], (
        f"shrink kept {names}, expected [{faulty_layer!r}]"
    )
    print(f"shrunk {len(padded)} layers -> 1 (the injected one)")

    with tempfile.TemporaryDirectory() as tmp:
        repro_path = Path(tmp) / "fuzz_repro.toml"
        fuzz.write_repro(str(repro_path), victim.config, minimal,
                         seed=11, note="fuzz smoke injected fault")
        # Without the injection the repro replays clean through the CLI.
        out = run_cli("sweep", "--fuzz-repro", str(repro_path),
                      "--max-workers", "2")
        assert "bit-identical" in out, out
    print("repro TOML round-trips and replays clean via --fuzz-repro")

    print("fuzz smoke: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
