"""Run the mutation catalogue: each mutant must make its tests fail.

    python scripts/mutants.py

Each entry of CATALOGUE is (file, exact old text, new text, pytest node
ids).  For each entry in turn, the repository is copied to a temporary
directory, the old text, which must occur exactly once in the file, is
replaced, and `python -m pytest -x -q <ids>` runs there in one child,
stopped after TIMEOUT seconds.  A mutant is killed when that run fails
(pytest exit 1, or 2 when collection breaks).  A first run on the
unmutated copy must pass every listed test.  Prints one JSON line for that
run and one per mutant, and exits 1 if the first run fails or any mutant
survives, times out, has stale text or ids, or its run fails otherwise.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT = 300  # seconds per pytest child; each entry's tests take a few seconds

# name -> (file, old text, new text, node ids that must fail)
CATALOGUE = {
    "shelling-check-lists-the-facets-before-refusing-bad-input": (
        "src/gammashell/shelling.py",
        "    if witness_mode not in _MODES:\n"
        '        raise DomainError(f"witness_mode must be one of {_MODES}")\n'
        "    _require_at_least(0, witness_limit=witness_limit)\n"
        "    return _verify_order(params, enumerate_facets(params), witness_mode, witness_limit)\n",
        "    facets = enumerate_facets(params)\n"
        "    if witness_mode not in _MODES:\n"
        '        raise DomainError(f"witness_mode must be one of {_MODES}")\n'
        "    _require_at_least(0, witness_limit=witness_limit)\n"
        "    return _verify_order(params, facets, witness_mode, witness_limit)\n",
        ["tests/test_shelling.py::test_bad_input_is_refused_before_any_facet_is_listed"],
    ),
    "plain-joins-tuple-keys-with-semicolons": (
        "src/gammashell/cli.py",
        '",".join(map(str, k)) if isinstance(k, tuple)',
        '";".join(map(str, k)) if isinstance(k, tuple)',
        ["tests/test_cli.py::test_reports_built_from_records_are_frozen",
         "tests/test_cli.py::test_shelling_report"],
    ),
    "homology-facets-direct-drops-the-bad-check": (
        "src/gammashell/shelling.py",
        "        if bad:\n            i = (bad & -bad).bit_length() - 1\n",
        "        if False:\n            i = (bad & -bad).bit_length() - 1\n",
        ["tests/test_shelling.py::"
         "test_betti_from_shelling_refuses_an_order_that_is_not_a_shelling"],
    ),
    "enumerate-facets-drops-the-up-front-budget-check": (
        "src/gammashell/facets.py",
        '    _check_budget(sum(facet_counts(params)), budget, "facets")\n',
        "",
        ["tests/test_facets.py::test_enumerate_facets_budget"],
    ),
    "facet-counts-drops-the-sign": (
        "src/gammashell/facets.py",
        "sum((-1) ** j * comb(r + 1, j)",
        "sum(comb(r + 1, j)",
        ["tests/test_facets.py::test_facet_counts_pinned_totals"],
    ),
    "shuffled-chain-from-unpermuted-rows": (
        "src/gammashell/homology.py",
        "        row_perm[r]: dict(zip(map(relabel, row), row.values()))\n",
        "        r: row.copy()\n",
        ["tests/test_homology.py::test_cleared_ranks_match_full_ranks_on_random_complexes",
         "tests/test_homology.py::test_cleared_ranks_match_full_ranks_on_gamma"],
    ),
    "constructed-witness-skips-the-face-check": (
        "src/gammashell/shelling.py",
        "        if v in g or g[:l] != f[:l] or g[len(g) - len(after) :] != after:\n"
        "            return None\n",
        "",
        ["tests/test_shelling.py::test_constructed_witness_is_checked_on_the_faces"],
    ),
    "vertex-ids-in-radix-n-carry-between-coordinates": (
        "src/gammashell/shelling.py",
        "        radix = n + 2\n",
        "        radix = n\n",
        ["tests/test_shelling.py::test_twists_match_the_frozen_tuple_route"],
    ),
    "failed-construct-leaves-its-group-out-of-the-search": (
        "src/gammashell/shelling.py",
        "                        failed |= rest ^ kept\n",
        "                        pass\n",
        ["tests/test_shelling.py::test_sweep_matches_the_per_pair_reference",
         "tests/test_cli.py::test_text_summaries[shelling-reversed]"],
    ),
    "constructive-route-reads-the-sweep": (
        "src/gammashell/shelling.py",
        "        self.facets = facets\n        self.index = {f: i for i, f in enumerate(facets)}\n",
        "        self.facets = facets\n        self.index = {f: i for i, f in enumerate(facets)}\n"
        "        assert sum(1 for _ in _sweep(facets)) == len(facets)\n",
        ["tests/test_independence.py::test_the_two_sides_of_each_cross_check_share_no_code"],
    ),
    "record-binder-swaps-two-fields-by-name": (
        "src/gammashell/errors.py",
        "            args = [values[f] for f in fields]\n",
        "            args = [values[f] for f in fields[1::-1] + fields[2:]]\n",
        ["tests/test_package.py::"
         "test_records_bind_their_declared_fields_by_position_or_by_name"],
    ),
    "boundary-chain-drops-its-cell-budget-check": (
        "src/gammashell/homology.py",
        "    _check_cells(params, budget, range(params.n))\n",
        "",
        ["tests/test_homology.py::test_over_budget_chain_is_refused_before_any_face_is_listed"],
    ),
    "alignment-box-from-the-smallest-offset": (
        "src/gammashell/cli.py",
        "box = max(args.n_max + max(DELTAS) + 1, 0) ** 3",
        "box = max(args.n_max + min(DELTAS) + 1, 0) ** 3",
        ["tests/test_cli.py::test_alignment_budget_counts_the_box_of_its_largest_offset",
         "tests/test_cli.py::test_alignment_budget_follows_the_offsets"],
    ),
    "alternating-sum-flips-its-sign": (
        "src/gammashell/complexes.py",
        "    return sum(v if i % 2 else -v for i, v in enumerate(values))\n",
        "    return sum(-v if i % 2 else v for i, v in enumerate(values))\n",
        ["tests/test_complexes.py::test_reduced_euler_examples",
         "tests/test_complexes.py::test_euler_characteristic_equals_negated_cube_sum"],
    ),
    "indexed-boundary-flips-its-signs": (
        "src/gammashell/homology.py",
        "    signs = [(-1) ** (m + 1) for m in range(k + 1)]\n",
        "    signs = [(-1) ** m for m in range(k + 1)]\n",
        ["tests/test_homology.py::test_relative_chain_is_the_full_chain_restricted"],
    ),
    "drop-table-removes-the-next-element": (
        "src/gammashell/homology.py",
        "lower[s[:m] + s[m + 1 :]]",
        "lower[s[: (m + 1) % (k + 1)] + s[(m + 1) % (k + 1) + 1 :]]",
        ["tests/test_homology.py::test_relative_chain_is_the_full_chain_restricted"],
    ),
    "cancellation-leaves-the-row-in-its-column": (
        "src/gammashell/homology.py",
        "                        del row[c]\n                        col_rows[c].remove(i)\n",
        "                        del row[c]\n",
        ["tests/test_homology.py::test_cleared_ranks_match_full_ranks_on_gamma",
         "tests/test_homology.py::test_integral_homology_is_torsion_free"],
    ),
    "integer-rule-admits-bool": (
        "src/gammashell/errors.py",
        "        if type(value) is not int:\n",
        "        if not isinstance(value, int):\n",
        ["tests/test_package.py::test_non_int_arguments_raise_domain_error"],
    ),
    "lower-bound-excludes-the-bound": (
        "src/gammashell/errors.py",
        "        if value < low:\n",
        "        if value <= low:\n",
        ["tests/test_integer_rule.py::test_each_lower_bound_is_inclusive"],
    ),
    "check-vertex-admits-bool": (
        "src/gammashell/complexes.py",
        "        if type(c) is not int or c < 1 or c > n:\n",
        "        if not isinstance(c, int) or c < 1 or c > n:\n",
        ["tests/test_integer_rule.py::test_non_int_entries_raise_domain_error"],
    ),
    "twist-sets-back-on-canonical-face": (
        "src/gammashell/facets.py",
        "    jumps = _jumps(params, facet_certificate(params, face).face)\n",
        "    jumps = _jumps(params, canonical_face(params, face))\n",
        ["tests/test_facets.py::test_twist_sets_requires_nonempty_face"],
    ),
    "padded-chain-tops-out-at-n": (
        "src/gammashell/facets.py",
        "    flat = sum(f, (0,) * p) + (params.n + 1,) * p\n",
        "    flat = sum(f, (0,) * p) + (params.n,) * p\n",
        ["tests/test_facets.py::test_twist_sets_are_the_single_steps_that_stay_faces",
         "tests/test_facets.py::test_shift_vectors_example"],
    ),
    "boundary-matrix-lists-faces-under-the-default-budget": (
        "src/gammashell/homology.py",
        "enumerate_faces(params, k - 1, None), enumerate_faces(params, k, None)",
        "enumerate_faces(params, k - 1), enumerate_faces(params, k)",
        ["tests/test_cli.py::test_export_matrix_lists_its_faces_under_the_raised_budgets"],
    ),
    "block-partition-back-on-raw-tuples": (
        "src/gammashell/shelling.py",
        "    fi, fk = cert_i.face, cert_k.face\n",
        "    fi, fk = (tuple(map(tuple, f)) for f in (face_i, face_k))\n",
        ["tests/test_shelling.py::test_block_partition_validates_both_faces"],
    ),
    "betti-from-ranks-admits-a-negative-beta": (
        "src/gammashell/homology.py",
        "    if min(betti) < 0:\n",
        "    if False:\n",
        ["tests/test_complexes.py::test_integer_inputs_reject_other_types"],
    ),
    "division-drops-the-prefix-borrow-test": (
        "src/gammashell/series.py",
        "(top - pd) & guard == guard",
        "True",
        ["tests/test_series.py::test_packed_inverse_matches_the_tuple_reference"],
    ),
    "chain-ranks-runs-the-canonical-pass-first": (
        "src/gammashell/homology.py",
        "        if shuffled is not None:\n"
        "            shuffled_cleared = {f for f, _ in _steps(matrix, seed, shuffled_cleared)}\n"
        "            shuffled.append(len(shuffled_cleared))\n"
        "        cleared = {f for f, _ in _in_place(matrix, cleared)}\n"
        "        ranks.append(len(cleared))\n",
        "        cleared = {f for f, _ in _in_place(matrix, cleared)}\n"
        "        ranks.append(len(cleared))\n"
        "        if shuffled is not None:\n"
        "            shuffled_cleared = {f for f, _ in _steps(matrix, seed, shuffled_cleared)}\n"
        "            shuffled.append(len(shuffled_cleared))\n",
        ["tests/test_homology.py::test_cleared_ranks_match_full_ranks_on_gamma"],
    ),
    "cone-test-reads-the-signature-at-i-minus-one": (
        "src/gammashell/homology.py",
        "2 * bisect_left(s, i) + (i in s)) for i in range(n))",
        "2 * bisect_left(s, i - 1) + (i - 1 in s)) for i in range(1, n))",
        ["tests/test_homology.py::"
         "test_relative_chain_keeps_the_faces_outside_the_diagonal_stars",
         "tests/test_homology.py::"
         "test_relative_chain_has_the_full_chains_betti_numbers_and_torsion_verdict"],
    ),
    "relative-chain-keeps-the-empty-face-row": (
        "src/gammashell/homology.py",
        "    row_of = [-1]\n",
        "    row_of = [0]\n",
        ["tests/test_homology.py::"
         "test_relative_chain_keeps_the_faces_outside_the_diagonal_stars",
         "tests/test_homology.py::"
         "test_relative_chain_has_the_full_chains_betti_numbers_and_torsion_verdict"],
    ),
    "betti-match-compares-the-matrix-route-with-itself": (
        "src/gammashell/cli.py",
        "        results[\"match\"] = from_shelling == from_matrix\n",
        "        results[\"match\"] = from_matrix == from_matrix\n",
        ["tests/test_cli.py::test_disagreeing_betti_routes_exit_1"],
    ),
    "betti-shuffle-check-compares-the-ranks-with-themselves": (
        "src/gammashell/cli.py",
        "            results[\"shuffle_check\"] = ok = shuffled == ranks\n",
        "            results[\"shuffle_check\"] = ok = ranks == ranks\n",
        ["tests/test_cli.py::test_disagreeing_betti_routes_exit_1"],
    ),
    "text-summary-passes-a-failing-report": (
        "src/gammashell/cli.py",
        '"PASS" if report["pass"] else "FAIL"',
        '"PASS"',
        ["tests/test_cli.py::test_text_summaries[shelling-reversed]"],
    ),
    "shuffle-takes-any-seed": (
        "src/gammashell/homology.py",
        "    _require_ints(seed=seed)\n",
        "",
        ["tests/test_package.py::test_non_int_arguments_raise_domain_error"],
    ),
    "single-matrix-assembled-by-the-chain": (
        "src/gammashell/homology.py",
        "    return _assemble(k, enumerate_faces(params, k - 1, None), "
        "enumerate_faces(params, k, None))\n",
        "    return _indexed_boundary(params, k, list(range(f_vector_formula(params)[k])))[0]\n",
        ["tests/test_independence.py::test_the_two_sides_of_each_cross_check_share_no_code"],
    ),
    "facet-search-trimmed-to-the-facet-counts": (
        "src/gammashell/facets.py",
        "    out.sort(key=len, reverse=True)\n    return out\n",
        "    out.sort(key=len, reverse=True)\n    return out[: sum(facet_counts(params))]\n",
        ["tests/test_independence.py::test_the_two_sides_of_each_cross_check_share_no_code"],
    ),
    "shuffled-chain-eliminates-through-the-canonical-one": (
        "src/gammashell/homology.py",
        "    for c, unimodular in _eliminate(active):\n        yield face[c], unimodular\n",
        "    permuted = SparseBoundaryMatrix(\n"
        "        matrix.k, matrix.cols, [active.get(r, {}) for r in range(matrix.rows)]\n"
        "    )\n"
        "    for c, unimodular in _in_place(permuted):\n        yield face[c], unimodular\n",
        ["tests/test_independence.py::test_the_two_sides_of_each_cross_check_share_no_code"],
    ),
    "signed-series-reads-the-signed-chain-count": (
        "src/gammashell/genfun.py",
        "    _require_at_least(1, T=T)\n",
        "    _require_at_least(1, T=T)\n    _signed_chain_count(ComplexParams(3, 1))\n",
        ["tests/test_independence.py::test_the_two_sides_of_each_cross_check_share_no_code"],
    ),
    "pruned-search-filtered-by-the-one-facet-criterion": (
        "src/gammashell/facets.py",
        "    out.sort(key=len, reverse=True)\n    return out\n",
        "    out.sort(key=len, reverse=True)\n"
        "    from .shelling import homology_facet_by_criterion\n\n"
        "    return [f for f in out\n"
        "            if not twistable or homology_facet_by_criterion(params, f)]\n",
        ["tests/test_independence.py::test_the_two_sides_of_each_cross_check_share_no_code"],
    ),
    "direct-sweep-checked-against-the-criterion": (
        "src/gammashell/shelling.py",
        "            found.append(facets[k])\n    return found\n",
        "            found.append(facets[k])\n"
        "    if found != homology_facets_by_criterion(params):\n"
        '        raise VerificationError("the sweep and the criterion disagree")\n'
        "    return found\n",
        ["tests/test_independence.py::test_the_two_sides_of_each_cross_check_share_no_code"],
    ),
    "dixon-closed-form-from-the-sum": (
        "src/gammashell/identities.py",
        "    value = factorial(3 * half) // factorial(half) ** 3\n",
        "    value = abs(dixon_lhs(n))\n",
        ["tests/test_independence.py::test_the_two_sides_of_each_cross_check_share_no_code"],
    ),
    "dixon-sum-from-the-product-coefficient": (
        "src/gammashell/identities.py",
        "    return power_sum_lhs(n, 3)\n",
        "    from .genfun import dixon_product_coefficient\n\n"
        "    return dixon_product_coefficient(n)\n",
        ["tests/test_independence.py::test_the_two_sides_of_each_cross_check_share_no_code"],
    ),
    "orphan-function-appended": (
        "src/gammashell/identities.py",
        "    return -value if (half - n2) % 2 else value\n",
        "    return -value if (half - n2) % 2 else value\n\n\n"
        "def threeF2_difference(n1: int, n2: int, n3: int) -> int:\n"
        "    return threeF2_lhs(n1, n2, n3) - threeF2_rhs(n1, n2, n3)\n",
        ["tests/test_independence.py::test_every_definition_is_reached_or_declared"],
    ),
    "torsion-certificate-decides-a-non-unit-pivot": (
        "src/gammashell/homology.py",
        "            return None\n    return True\n",
        "            return True\n    return True\n",
        ["tests/test_homology.py::test_torsion_certificate_is_undecided_on_a_non_unit_pivot"],
    ),
    "clearing-by-pivot-rows": (
        "src/gammashell/homology.py",
        "        yield pivot_col, unimodular\n",
        "        yield pivot_row_id, unimodular\n",
        ["tests/test_homology.py::test_cleared_ranks_match_full_ranks_on_gamma"],
    ),
    "f-vector-enumerated-returns-the-formula": (
        "src/gammashell/complexes.py",
        "    return tuple(counts)\n",
        "    return f_vector_formula(params)\n",
        ["tests/test_complexes.py::test_f_vector_enumerated_counts_the_brute_force_faces"],
    ),
    "series-P-compares-its-closed-build-with-itself": (
        "src/gammashell/genfun.py",
        '    _require_dual_equal("series_P", closed, permuted)\n',
        '    _require_dual_equal("series_P", closed, closed)\n',
        ["tests/test_genfun.py::test_series_P_compares_its_two_constructions"],
    ),
    "series-XY-compares-its-closed-build-with-itself": (
        "src/gammashell/genfun.py",
        '    _require_dual_equal("series_XY", closed, alternating)\n',
        '    _require_dual_equal("series_XY", closed, closed)\n',
        ["tests/test_cli.py::test_disagreeing_series_constructions_exit_1"],
    ),
    "alignment-matches-each-diagonal-with-itself": (
        "src/gammashell/genfun.py",
        "all(column[n] == alternating[n] for n in column)",
        "all(column[n] == column[n] for n in column)",
        ["tests/test_acceptance.py::test_acceptance_10_diagonal_alignment"],
    ),
    "usage-error-exits-as-budget": (
        "src/gammashell/cli.py",
        '        print(f"error: {exc}", file=sys.stderr)\n        return _USAGE\n',
        '        print(f"error: {exc}", file=sys.stderr)\n        return _BUDGET\n',
        ["tests/test_cli.py::test_domain_errors_exit_2"],
    ),
    "budget-error-exits-as-usage": (
        "src/gammashell/cli.py",
        '        print(f"budget exceeded: {exc}", file=sys.stderr)\n        return _BUDGET\n',
        '        print(f"budget exceeded: {exc}", file=sys.stderr)\n        return _USAGE\n',
        ["tests/test_cli.py::test_budget_overruns_exit_3"],
    ),
    "io-error-exits-as-usage": (
        "src/gammashell/cli.py",
        '        print(f"i/o error: {exc}", file=sys.stderr)\n        return _IO\n',
        '        print(f"i/o error: {exc}", file=sys.stderr)\n        return _USAGE\n',
        ["tests/test_cli.py::test_unwritable_output_exits_4[report]"],
    ),
    "verification-failure-exits-as-pass": (
        "src/gammashell/cli.py",
        '        print(f"verification failure: {exc}", file=sys.stderr)\n        return _FAIL\n',
        '        print(f"verification failure: {exc}", file=sys.stderr)\n        return _PASS\n',
        ["tests/test_cli.py::test_disagreeing_series_constructions_exit_1"],
    ),
    "census-exits-0-on-a-mismatch": (
        "scripts/homology_census.py",
        "    return 0 if all_ok else 1\n",
        "    return 0\n",
        ["tests/test_scripts.py::test_census_exits_1_on_a_mismatch"],
    ),
}

# left out of the copy: version control, caches and benchmark output
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", "out")


def problems(file: str, old: str, ids: list[str]) -> list[str]:
    """Why an entry no longer applies to the tree at ROOT; empty if it does."""
    found = []
    count = (ROOT / file).read_text(encoding="utf-8").count(old)
    if count != 1:
        found.append(f"old text occurs {count} times in {file}")
    for node in ids:
        path, _, test = node.partition("::")
        target = ROOT / path
        name = test.split("[")[0]
        if not target.is_file() or f"def {name}(" not in target.read_text(encoding="utf-8"):
            found.append(f"no test {node}")
    return found


def pytest_exit(ids: list[str], edit: tuple[str, str, str] | None = None):
    """Exit code of pytest on ids in a copy of the tree with edit applied, and
    its last lines; None as the code if it ran past TIMEOUT."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=SKIP)
        if edit:
            file, old, new = edit
            target = tree / file
            target.write_text(target.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *ids],
                cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT,
            )
        except subprocess.TimeoutExpired:
            return None, []
    return proc.returncode, proc.stdout.splitlines()[-3:]


def run(name: str) -> dict:
    file, old, new, ids = CATALOGUE[name]
    result = {"mutant": name, "file": file}
    stale = problems(file, old, ids)
    if stale:
        return dict(result, status="stale", problems=stale)
    start = time.perf_counter()
    code, tail = pytest_exit(ids, (file, old, new))
    status = {None: "timeout", 0: "survived", 1: "killed", 2: "killed"}.get(code, "error")
    result.update(status=status, pytest_exit=code, seconds=round(time.perf_counter() - start, 2))
    if status == "error":
        result["tail"] = tail
    return result


def main() -> int:
    # the unmutated tree must pass every listed test, else a kill means nothing
    ids = sorted({node for *_, nodes in CATALOGUE.values() for node in nodes})
    code, tail = pytest_exit(ids)
    print(json.dumps({"mutant": None, "status": "passed" if code == 0 else "failed",
                      "pytest_exit": code, "tail": tail if code else []}), flush=True)
    ok = code == 0
    for name in CATALOGUE:
        result = run(name)
        ok = ok and result["status"] == "killed"
        print(json.dumps(result), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
