"""Pinned schedule digests: every codesign on three codes.

Each digest is a SHA-256 over a compiled schedule's full operation list
(every op's kind, start, duration, qubits, location, note and
multiplicity, in emission order) followed by its sorted metadata.  A
compiler change that moves a single operation, or resolves a single
tie differently, changes a digest; a pure speed change leaves every
digest as it is.

The digests must not depend on the interpreter's string hash seed
either: the BB [[72,12,6]] set is recomputed in fresh interpreters at
``PYTHONHASHSEED=0`` and ``1``, which catches a tie-break over an
unordered container (the kind of bug that once made ``baseline3``
depend on set order).

``PINNED_VARIANTS`` covers configurations no codesign reaches: every
codesign under other knobs, and the dynamic, baseline-2 and baseline-3
dispatch rules on other topologies.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.codes import code_by_name
from repro.core.codesign import available_codesigns, codesign_by_name
from repro.qccd.compilers import (
    DynamicTimesliceCompiler,
    MoveBatchingCompiler,
    ShuttleMinimizingCompiler,
)
from repro.qccd.timing import OperationTimes, SwapKind

CODES = ("BB [[72,12,6]]", "HGP [[225,9,6]]", "BB [[144,12,12]]")

#: ``PINNED[code][codesign]``: the digest of the schedule
#: ``codesign_by_name(codesign).compile(code_by_name(code))`` produces.
PINNED = {
    "BB [[72,12,6]]": {
        "alternate_grid":
            "6389ec675d3c39214ecf23b763d4374921ea8e411081f521f73e40770b1cf464",
        "baseline":
            "cd0b24d28a3b1c4d70874babafb64f3a2e74eea64344b74576998c19a050803d",
        "baseline2":
            "cb4c459e4b1b8400f7632bcbf251155589ef85215dec1721f359e7e8066d22de",
        "baseline3":
            "aa8629673e5f8423e3a511a284abf2546c794479c4b25d62aad384e0ad15a333",
        "baseline_grid_dynamic":
            "e2052567b09204dd9d9b0879501c8d9a1788b73290620e2163c0a0004c444da5",
        "cyclone":
            "dcfe325fdc6ec98bcdb746507190bc4ad5bcc84303a8c7129c58684a7b1406f1",
        "ejf_ring":
            "c1205f06f65ae0d483e6f75ae9439ec8a1235ebdd78130308db856506b89e5ce",
        "mesh_junction":
            "deb57c1c842718ccda48363f74b651d99664e686f5bf9e7ff98184889aacc428",
    },
    "HGP [[225,9,6]]": {
        "alternate_grid":
            "66d724f707790e065970a39e8db220c0d8308f72f654ff7e37fb6463bfcdcade",
        "baseline":
            "346fd2ef520a93f2141e8eb94452d0239c07749f941a43abc0fa6b845d01705e",
        "baseline2":
            "96ec2563ccd0cf7a5c45aa54af3daa87a6fe1e28e268de9fa03a1a4696734aba",
        "baseline3":
            "20e34a8722e28e972d20f65dc5b271fc8a0a4b753effa8e51be1c5850368109d",
        "baseline_grid_dynamic":
            "14c32a8a847addcbbddc6ed0f31a66287a40b3f6eb2df6fac893add86610639c",
        "cyclone":
            "0f0adcbb748e232f7cc8dc09d33690e1c7400e082f271ee409fb8123f362ece5",
        "ejf_ring":
            "022797ad1aa8344fb6942ac564ffc46868599064965b7024418cfed9edd39994",
        "mesh_junction":
            "744a3a5ea3ff32797f04cec4e61dc67b56629edbce38de281b9d4e4e881309a0",
    },
    "BB [[144,12,12]]": {
        "alternate_grid":
            "13a13c6e0f15bdf478a7e338001644727c6d05408342d8095edb4a0de825993f",
        "baseline":
            "ed19b0a2163389b3530372e25bece4a065452dc66fd1b63f2a17c0bd61b0b64c",
        "baseline2":
            "76b2a6fad18379bf40493f4451c09586b8769944ff108f5d937e34526b863dea",
        "baseline3":
            "e92b03d6fcbc42e5691e65cac19007dfd7bd2da23dd0ccd59e04e83e5366059b",
        "baseline_grid_dynamic":
            "45b8321e7836f37ae3ac800c839c5850adf07c3db308a088a27e30e03acf7db6",
        "cyclone":
            "94abf5b2b9585a9363cecf6bc8437e4d3a4fd5856fcb08e43e9329b2527701af",
        "ejf_ring":
            "a121f706fedcfe3664358b4eebf941979d8b4c3b365d7a71de06a7fb4cce47bc",
        "mesh_junction":
            "420f6a253c5e72fc1d4bac27efb53be18e5977ba1715e88849404bfc99821666",
    },
}


#: The second knob setting of perfbench's ``design_space`` workload:
#: faster operations and junctions, and ion swaps.
KNOB_TIMES = OperationTimes(improvement_factor=0.25,
                            junction_improvement_factor=0.5,
                            swap_kind=SwapKind.ION_SWAP)

#: The code every variant in ``PINNED_VARIANTS`` compiles.
VARIANT_CODE = "BB [[72,12,6]]"

#: ``PINNED_VARIANTS[name]``: the digest of ``variant_compilers(code)[name]``
#: compiling ``VARIANT_CODE``.
PINNED_VARIANTS = {
    "knobs/alternate_grid":
        "e3a933e30227582fb1679996202910c38f8440dba484f699e0832039be2dd5e7",
    "knobs/baseline":
        "8735b04234ebc1ead96b16ca634323d2dcc681e48df275eaec72284af27f69c5",
    "knobs/baseline2":
        "b00b9bbeb17c3e83d3a1243e68a111a580d31da11d6485ecf9d82d5ff3914758",
    "knobs/baseline3":
        "3de8ff3bbd862729a76d46dbf2304fd9ccde9cebeda5e16c035f67eeccc30619",
    "knobs/baseline_grid_dynamic":
        "2e222a42af8e301e9edf49474b5ca644310690b698d2a16a7c2a8185fcf2c971",
    "knobs/cyclone":
        "0e449834c3d7e7da182b032892f5c06a2ca9d981c66a3e669ed9f9531898aafc",
    "knobs/ejf_ring":
        "083d6e7b3e08a592b25f50d8f789351807405747d4ddb74a55ff0f610c1dcf04",
    "knobs/mesh_junction":
        "a89cfc18c189a8fc53a0ca0817f412214de6cb7075cab6e4a917c4118d80e969",
    "dynamic_ring":
        "002b92d9ad98829e769ad34291f8984b5f0965ba93d3e175206f5e16b799c5d6",
    "dynamic_alternate_grid":
        "71a503d79d39020cfa3a1d5b9bc711acb9f7a35b05261b4293a01bd8a832f84c",
    "baseline3_ring":
        "702dcb37f810fbfb2341fdacb1b1a1702d8728a02b4cef7cb9ee4f1ff6299c4f",
    "baseline2_ring":
        "21ba590228cc9ed34a9c2c3cb3ab8bef7f16605bd4b322f7522222f8086c9005",
}


def variant_compilers(code) -> dict:
    """Compiler configurations that no codesign in ``PINNED`` reaches.

    ``knobs/<codesign>`` is each codesign under :data:`KNOB_TIMES` with
    trap capacity 8, or, for Cyclone, a ring of half its base trap
    count.  The other four run the dynamic, baseline-2 and baseline-3
    dispatch rules on topologies their codesigns do not use.
    """
    m_basis = max(code.num_x_stabilizers, code.num_z_stabilizers)
    variants = {}
    for name in available_codesigns():
        overrides = ({"num_traps": m_basis // 2} if name == "cyclone"
                     else {"trap_capacity": 8})
        variants[f"knobs/{name}"] = codesign_by_name(
            name, times=KNOB_TIMES, **overrides).compiler
    variants["dynamic_ring"] = DynamicTimesliceCompiler(topology="ring")
    variants["dynamic_alternate_grid"] = DynamicTimesliceCompiler(
        topology="alternate_grid")
    variants["baseline3_ring"] = MoveBatchingCompiler(topology="ring")
    variants["baseline2_ring"] = ShuttleMinimizingCompiler(topology="ring")
    return variants


def schedule_digest(compiled) -> str:
    """SHA-256 of a compiled schedule's operations and metadata."""
    hasher = hashlib.sha256()
    for op in compiled.operations:
        row = [op.kind.value, op.start_us, op.duration_us, list(op.qubits),
               op.location, op.note, op.multiplicity]
        hasher.update(json.dumps(row).encode() + b"\n")
    hasher.update(json.dumps(compiled.metadata, sort_keys=True).encode())
    return hasher.hexdigest()


def digests_for(code_name: str) -> dict[str, str]:
    """The digest of every available codesign's schedule for one code."""
    code = code_by_name(code_name)
    return {name: schedule_digest(codesign_by_name(name).compile(code))
            for name in available_codesigns()}


def test_every_codesign_is_pinned():
    for code_name in CODES:
        assert sorted(PINNED[code_name]) == available_codesigns()


@pytest.mark.parametrize("code_name", CODES)
def test_schedules_match_pinned_digests(code_name):
    assert digests_for(code_name) == PINNED[code_name]


def test_variants_match_pinned_digests():
    code = code_by_name(VARIANT_CODE)
    digests = {name: schedule_digest(compiler.compile(code))
               for name, compiler in variant_compilers(code).items()}
    assert digests == PINNED_VARIANTS


_SUBPROCESS = """
import json, sys
sys.path.insert(0, {tests!r})
from test_compile_digests import digests_for
print(json.dumps(digests_for({code!r})))
"""


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_digests_do_not_depend_on_the_hash_seed(hash_seed):
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=str(root / "src"))
    script = _SUBPROCESS.format(tests=str(root / "tests"),
                                code="BB [[72,12,6]]")
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, check=True,
                            timeout=300)
    assert json.loads(result.stdout) == PINNED["BB [[72,12,6]]"]
