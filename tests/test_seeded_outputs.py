"""The command line's seeded outputs match the golden files in ``golden/``.

``tools/seeded_outputs.py`` regenerates the 25 files from this checkout,
each command in a fresh process with BLAS on one thread, and they are
compared by the rules of ``tools/compare_outputs.py``: the same files and
rows, every string, flag, gated field (``alpha_star``, ``is_alpha_star``,
``probe_rank``, ``note``) and row key exactly, and every other number within
``RTOL``.  A change that moves an output on purpose regenerates the golden
files with

    python tools/seeded_outputs.py . tests/golden

and lists the moves (``tools/compare_outputs.py OLD NEW``) with its reasons.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(ROOT / "tools"))

import compare_outputs  # noqa: E402
import seeded_outputs  # noqa: E402

#: Largest relative move ``|new - old| / |old|`` a number may make.  On the
#: host the files were written on (Xeon, AVX-512, numpy's OpenBLAS with its
#: SkylakeX kernels) reruns are byte-identical.  Reordering the products of
#: the range-preserving solve moved well-conditioned figures (errors,
#: residuals, curves) by at most 4.6e-15 there, but ``e_tilde_ij``, the
#: small distance between two close solutions, by up to 2.3e-3; the
#: coefficient-space alpha selection moved the curves by up to 3.3e-5.  So
#: 1e-12 admits last-bit moves of well-conditioned figures and refuses any
#: other move.  The files are not portable across BLAS kernels: under
#: OPENBLAS_CORETYPE=Haswell, Sandybridge, Nehalem or Prescott ``alpha_star``
#: moves by up to 4.2e-15 (its grid scales with sigma_1^2) and
#: ``e_tilde_xz`` by up to 8.5 relative.
RTOL = 1e-12


def test_seeded_outputs_match_the_golden_files(tmp_path, capsys):
    assert seeded_outputs.main([str(ROOT), str(tmp_path)]) == 0
    capsys.readouterr()  # the file names the tool prints
    names = sorted(p.name for p in GOLDEN.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    failures = []
    for name in names:
        moves, breaks = compare_outputs.compare(compare_outputs.load(GOLDEN / name),
                                                compare_outputs.load(tmp_path / name))
        failures += [f"{name}: {line}" for line in breaks]
        failures += [f"{name}: {field}: {moved}/{total} moved, by up to {rel:.3g}"
                     for field, (moved, total, rel) in sorted(moves.items())
                     if rel > RTOL]
    assert not failures, "\n".join(failures)
