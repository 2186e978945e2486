"""Time BENCH_sim.json's 2000-shot packed BB decode cold and warm.

    python3 perfbench/decode_cold_warm.py [repeats]

``BENCH_sim.json`` records the same decode twice: 0.93 s in
``batched_decode`` and 0.50 s in ``native_decode``.  Both sections
build a fresh ``BPOSDDecoder(backend="packed")`` and time one
``decode_batch`` of identical syndromes; the first is the first decode
of the process, the second runs after it.  This script repeats that
sequence in one fresh process: the first timing is cold, the rest are
warm, and the same syndromes decode to the same corrections each time.
"""

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import code_by_name  # noqa: E402
from repro.core.phenomenological import build_phenomenological_model  # noqa
from repro.decoders.bposd import BPOSDDecoder  # noqa: E402
from repro.noise.hardware import HardwareNoiseModel  # noqa: E402


def main() -> None:
    repeats = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    # The workload of benchmarks/perf_smoke.py:bench_batched_decode.
    code = code_by_name("BB [[72,12,6]]")
    noise = HardwareNoiseModel.from_physical_error_rate(
        1e-3, round_latency_us=50_000.0)
    model = build_phenomenological_model(code, noise, rounds=6)
    syndromes, _ = model.sample(2000, seed=0)
    timings, corrections = [], []
    for _ in range(repeats):
        decoder = BPOSDDecoder(model.check_matrix, model.priors,
                               max_iterations=40, backend="packed")
        started = time.perf_counter()
        result = decoder.decode_batch(syndromes)
        timings.append(time.perf_counter() - started)
        corrections.append(result.errors.tobytes())
    print(f"cold (first decode in the process): {timings[0]:.3f} s")
    print(f"warm (decodes 2..{repeats}): median "
          f"{statistics.median(timings[1:]):.3f} s, range "
          f"{min(timings[1:]):.3f}-{max(timings[1:]):.3f} s")
    print(f"identical corrections: {len(set(corrections)) == 1}")


if __name__ == "__main__":
    main()
