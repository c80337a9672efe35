"""A committed mutation catalogue for the library's exact kernels.

Each entry names a file under ``src/skewgin``, an exact old text that
occurs there once, the new text that replaces it, and the tests that must
fail once it is replaced.  The script applies one entry at a time in a
temporary copy of the checkout (``src``, ``tests``, ``perfbench`` and
``pyproject.toml``), runs only the named tests there, under the
``no-explain`` Hypothesis profile (a failing Hypothesis test would spend
seconds explaining itself), and reports the entry as killed (a named
test failed) or survived.  Entries marked
``survives`` are known gaps: an equivalent mutant, or one no test can
see yet.  It is not part of tier-1; ``tests/test_mutants.py`` only checks
that every old text still occurs exactly once, so a refactor has to
update this catalogue rather than leave it vacuous.

    python tests/mutants.py            # every entry
    python tests/mutants.py NAME ...   # the named entries
    python tests/mutants.py --list

The exit status is 1 when an entry ends other than expected.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ["src", "tests", "perfbench", "pyproject.toml"]


class Mutant(NamedTuple):
    name: str
    file: str      # relative to src/skewgin
    old: str
    new: str
    tests: tuple   # pytest node ids, relative to the checkout
    survives: bool = False
    why: str = ""


ORACLE_PRODUCT = "tests/test_crossed.py::test_product_matches_field_scalar_oracle"
CORNER_ORACLE = "tests/test_morita.py::test_corner_matches_two_product_oracle"
DIFFERENTIAL_ORACLE = "tests/test_weyl.py::test_differentials_match_oracles_on_every_basis_key"
BOUNDED_EXACTNESS = "tests/test_weyl.py::test_bounded_exactness_n1"
DUAL_ISO = "tests/test_weyl.py::test_phi_derived_dual_matches_the_eliminated_dual"
OFF_GENERATOR = "tests/test_cli.py::test_override_term_off_its_generator_exit_2"
FEED_COUNT = "tests/test_morita.py::test_signed_s3_feed_builds_only_the_commutators_it_feeds"
MODULE_SET = "tests/test_package.py::test_each_command_executes_only_the_modules_it_uses"
DIMENSION_ORACLE = "tests/test_morita.py::test_dimension_check_matches_all_pairs_oracle"
CORNER_COUNT = ("tests/test_morita.py::test_dimension_check_corners_each_normal_word_once"
                "_per_group_element")

MUTANTS = [
    # -- the int kernel of CrossedElement and its denominators --
    Mutant("kernel-drops-image-rescale", "crossed.py",
           "                scale = den // d\n", "                scale = 1\n",
           (ORACLE_PRODUCT,)),
    Mutant("kernel-drops-content-division", "fields.py",
           "        g = gcd(den, *terms.values()) if den != 1 else 1\n",
           "        g = 1\n",
           (ORACLE_PRODUCT,
            "tests/test_fields.py::test_combine_normalized_and_ratio_agree_with_field_scalars")),
    Mutant("kernel-skips-canonical-form", "crossed.py",
           "        return cls(action, *action.field.normalized(acc, outer * den))\n",
           "        return cls(action, outer * den, acc)\n",
           (ORACLE_PRODUCT, CORNER_ORACLE)),
    Mutant("equality-ignores-den", "crossed.py",
           "        if a == b:\n            return self.terms == other.terms\n",
           "        if True:\n            return self.terms == other.terms\n",
           ("tests/test_crossed.py::test_equality_compares_values_across_dens",)),
    Mutant("combination-skips-den-rescale", "crossed.py",
           "            own[label] = field.mul(coeff, field.ratio(dens[label], den))\n",
           "            own[label] = coeff\n",
           ("tests/test_morita.py::test_rescaled_combination_matches_labelled_oracle"
            "_on_fraction_vectors",)),
    Mutant("kernel-always-builds-new-path", "crossed.py",
           "                    pr = Path(p.source, head + r.arrows) if head else r\n",
           "                    pr = Path(p.source, head + r.arrows)\n",
           (ORACLE_PRODUCT,), survives=True,
           why="equivalent: r starts at the source of a trivial p, so the new "
               "Path equals r"),
    Mutant("kernel-swaps-group-product", "crossed.py",
           "            twists.append((gmul(g, h), cq))\n",
           "            twists.append((gmul(h, g), cq))\n",
           ("tests/test_morita.py::test_signed_s3_pipeline",
            "tests/test_bench_goldens.py::test_seed_1_reports_match_the_goldens")),
    Mutant("table-cached-without-g-key", "crossed.py",
           "            by_source = tables.get(g)\n",
           "            by_source = next(iter(tables.values()), None)\n",
           ("tests/test_crossed.py::test_reused_right_factor_matches_oracle",)),
    # -- commutators and the feed --
    Mutant("commutator-keeps-sign-of-vu", "crossed.py",
           "    a, b = den // den_uv, -(den // den_vu)\n",
           "    a, b = den // den_uv, den // den_vu\n",
           ("tests/test_crossed.py::test_commutator_basis_two_loops",
            "tests/test_morita.py::test_commutator_basis_matches_product_oracle")),
    Mutant("feed-only-first-commutator", "crossed.py",
           "        for term, vec in _feed(action, length, index, set(residual)):\n",
           "        for term, vec in [next(_feed(action, length, index, set(residual)))]:\n",
           ("tests/test_morita.py::test_one_commutator_feed_matches_retrying_oracle"
            "_on_transport",)),
    Mutant("candidates-try-only-split-zero", "crossed.py",
           "        for i in range(length + 1):\n            a = Path(s.source, s.arrows[:i])\n",
           "        for i in range(1):\n            a = Path(s.source, s.arrows[:i])\n",
           (FEED_COUNT,)),
    Mutant("feed-stop-never-reduces-residual", "crossed.py",
           "            if solver.add(vec, label=term) and in_span():\n",
           "            if solver.add(vec, label=term) and not residual:\n",
           (FEED_COUNT,)),
    Mutant("labelled-inserted-without-label", "crossed.py",
           "        solver.add(vectorize(element, index), label=label)\n",
           "        solver.add(vectorize(element, index))\n",
           ("tests/test_morita.py::test_one_commutator_feed_matches_retrying_oracle"
            "_on_transport",)),
    Mutant("labelled-den-taken-as-1", "crossed.py",
           "        dens[label] = element.den\n",
           "        dens[label] = 1\n",
           ("tests/test_morita.py::test_rescaled_combination_matches_labelled_oracle"
            "_on_fraction_vectors",)),
    Mutant("certificate-part-skips-target-den", "crossed.py",
           "            commutators.append((coeff, den, (((label.u, label.v), label.element.den),)))\n",
           "            commutators.append((coeff, 1, (((label.u, label.v), label.element.den),)))\n",
           ("tests/test_morita.py::test_rescaled_combination_matches_labelled_oracle"
            "_on_fraction_vectors",)),
    Mutant("zero-target-not-short-cut", "crossed.py",
           "    if target.is_zero():\n        return {}, Certificate(1, {})\n",
           "",
           ("tests/test_cli.py::test_verify_certifies_a_supplied_reduced_potential",)),
    Mutant("expand-drops-certificate-den", "crossed.py",
           "    return CrossedElement.from_sums(action, sums, certificate.den)\n",
           "    return CrossedElement.from_sums(action, sums, 1)\n",
           ("tests/test_morita.py::test_signed_s3_certificate_is_one_den_and_ints",)),
    # -- the Morita layer --
    Mutant("bimodule-drops-kappa-inverse", "morita.py",
           "                    twist = G.mul(g1, G.inv(kappa[j2]))\n",
           "                    twist = G.mul(g1, kappa[j2])\n",
           ("tests/test_morita.py::test_bimodule_slots_match_five_fold_product_oracle",)),
    Mutant("embed-folds-from-source-idempotent", "morita.py",
           "(acc * md.fold_factors[arrows[k - 1]] if k > 1\n",
           "(md.vertex_idems[source] * md.arrow_embed[arrows[k - 1]] if k > 1\n",
           ("tests/test_morita.py::test_embed_paths_matches_per_path_fold",)),
    Mutant("fold-factor-cornered-on-the-left", "morita.py",
           "                        arrow_embed[name], fold_factors[name] = cornered, right\n",
           "                        arrow_embed[name], fold_factors[name] = cornered, e1 * element\n",
           ("tests/test_morita.py::test_embed_paths_matches_per_path_fold",)),
    Mutant("block-rank-takes-max", "morita.py",
           "    return sum(solver.rank for solver in solvers.values())\n",
           "    return max(solver.rank for solver in solvers.values())\n",
           ("tests/test_morita.py::test_block_ranks_match_whole_layer_oracle",)),
    Mutant("pivot-elements-use-rep-path", "morita.py",
           "                action, trivial_path(act_vertex(g, rep)), g) * e).terms)\n",
           "                action, trivial_path(rep), g) * e).terms)\n",
           ("tests/test_morita.py::test_block_ranks_match_whole_layer_oracle",
            "tests/test_morita.py::test_swap_reduction_single_vertex_loop")),
    Mutant("pair-check-skips-composable-arrow-pairs", "morita.py",
           "            if pq is None and p.arrows and q.arrows:\n",
           "            if p.arrows and q.arrows:\n",
           ("tests/test_morita.py::test_pair_check_compares_composable_arrows_with_their_fold",)),
    Mutant("embedding-pair-check-tautological", "morita.py",
           "            if ep * embedded[q] != (zero if pq is None else embedded[pq]):\n",
           "            if ep * embedded[q] != ep * embedded[q]:\n",
           ("tests/test_morita.py::test_check_embedding_catches_an_uncornered_arrow",)),
    Mutant("dimension-check-corners-pivots-not-normal-words", "morita.py",
           "            if i // n not in ideal.rows and (cornered := corner(e, key)).terms:\n",
           "            if i // n in ideal.rows and (cornered := corner(e, key)).terms:\n",
           (DIMENSION_ORACLE, CORNER_COUNT)),
    Mutant("dimension-check-reads-group-part-as-path", "morita.py",
           "            if i // n not in ideal.rows and (cornered := corner(e, key)).terms:\n",
           "            if i % n not in ideal.rows and (cornered := corner(e, key)).terms:\n",
           (DIMENSION_ORACLE, CORNER_COUNT)),
    Mutant("corner-drops-source-vertex-condition", "morita.py",
           "        if perms[h][src] == v.source:\n", "        if True:\n",
           (CORNER_ORACLE,)),
    Mutant("corner-drops-target-vertex-condition", "morita.py",
           "                if perms[hg][w.source] == perms[h][tgt]:\n",
           "                if True:\n",
           (CORNER_ORACLE,)),
    # -- fields, linalg, groups and weyl --
    Mutant("accumulate-drops-mod-p", "fields.py",
           "                s = (get(key, 0) + c) % p\n", "                s = get(key, 0) + c\n",
           ("tests/test_fields.py::test_accumulate_agrees_with_naive_loop",)),
    Mutant("solver-drops-scale-update", "linalg.py",
           "                scale *= a\n", "                pass\n",
           ("tests/test_linalg.py::test_residual_divides_out_a_cross_multiplication",)),
    Mutant("express-skips-step-rescale", "linalg.py",
           "        return scale, [(k, c * (scale // s)) for k, c, s in steps]\n",
           "        return scale, [(k, c) for k, c, s in steps]\n",
           ("tests/test_linalg.py::test_express_rescales_steps_after_a_cross_multiplication",)),
    Mutant("express-overwrites-repeated-label", "linalg.py",
           "        return None if on_rows else f.accumulate({}, reversed(on_inputs))\n",
           "        return None if on_rows else dict(reversed(on_inputs))\n",
           ("tests/test_linalg.py::test_express_sums_the_coefficients_of_a_repeated_label",)),
    Mutant("inverse-drops-row-den", "linalg.py",
           "        inverse.append([combo.get(i, field.zero()) * den for i, den in enumerate(dens)])\n",
           "        inverse.append([combo.get(i, field.zero()) for i, den in enumerate(dens)])\n",
           ("tests/test_linalg.py::test_invert_matrix_rescales_by_each_row_den",)),
    Mutant("right-translate-on-the-left", "groups.py",
           "    return {group.mul(h, g): c for h, c in e.items()}\n",
           "    return {group.mul(g, h): c for h, c in e.items()}\n",
           ("tests/test_groups.py::test_validate_catches_isomorphic_pair",)),
    Mutant("idempotent-check-ignores-den", "groups.py",
           "        if alg.mul(ints[i], ints[i]) != {g: d * c for g, c in items}:\n",
           "        if alg.mul(ints[i], ints[i]) != {g: c for g, c in items}:\n",
           ("tests/test_groups.py::test_abelian_idempotents_z2_rationals",)),
    Mutant("characters-take-power-character-as-one", "groups.py",
           "                if f.pow(z, m) != chi[gm]:\n",
           "                if f.pow(z, m) != f.one():\n",
           ("tests/test_groups.py::test_characters_extend_past_a_nontrivial_power",)),
    Mutant("wedge-action-drops-sort-sign", "weyl.py",
           "        coeff = -1 if sum(a > b for a, b in combinations(idxs, 2)) % 2 else 1\n",
           "        coeff = 1\n",
           ("tests/test_weyl.py::test_cached_equivariance_matches_oracle_n1",)),
    # d is equivariant under these two mutants too, so the equivariance
    # check cannot see them; the exactness checks do
    Mutant("koszul-adds-right-term", "weyl.py",
           "                self.drops[i].append((rest, sign, left[k], -sign, right[k]))\n",
           "                self.drops[i].append((rest, sign, left[k], sign, right[k]))\n",
           (DIFFERENTIAL_ORACLE, BOUNDED_EXACTNESS)),
    Mutant("koszul-swaps-right-product", "weyl.py",
           "                self.drops[i].append((rest, sign, left[k], -sign, right[k]))\n",
           "                self.drops[i].append((rest, sign, left[k], -sign, left[k]))\n",
           (DIFFERENTIAL_ORACLE, "tests/test_weyl.py::test_koszul_d_squared_zero_exhaustive",
            BOUNDED_EXACTNESS)),
    Mutant("product-tables-swap-left-and-right", "weyl.py",
           "        left = [table(k, on_left=True) for k in range(n2)]\n"
           "        right = [table(k, on_left=False) for k in range(n2)]\n",
           "        right = [table(k, on_left=True) for k in range(n2)]\n"
           "        left = [table(k, on_left=False) for k in range(n2)]\n",
           (DIFFERENTIAL_ORACLE, BOUNDED_EXACTNESS)),
    # the phi check builds both sides from the drop rule on its generators,
    # so a lost sign on either side is seen; a sign flipped on both sides
    # is phi negated, still a chain isomorphism
    Mutant("dual-iso-drops-permutation-sign", "weyl.py",
           "        return -1 if sum(a > b for a in w for b in c) % 2 else 1\n",
           "        return 1\n",
           (DUAL_ISO,)),
    Mutant("dual-iso-drops-alternating-sign", "weyl.py",
           "(-1) ** d * phi_sign(w, c)",
           "phi_sign(w, c)",
           (DUAL_ISO,)),
    Mutant("dual-iso-flips-transposed-drop-sign", "weyl.py",
           "                e = _remove_sign(big, big.index(k)) * phi_sign(big, rest)\n",
           "                e = -_remove_sign(big, big.index(k)) * phi_sign(big, rest)\n",
           (DUAL_ISO, "tests/test_weyl.py::test_dual_concentrated_at_top")),
    Mutant("code-decodes-s-and-t-swapped", "weyl.py",
           "        s, t = divmod(pair, self.size)\n", "        t, s = divmod(pair, self.size)\n",
           (DIFFERENTIAL_ORACLE, "tests/test_weyl.py::test_basis_codes_list_the_dict_keys_in_order")),
    Mutant("homology-skips-closing-check", "weyl.py",
           "            if d == 1 and k < 200 and field.accumulate({}, (\n",
           "            if False and field.accumulate({}, (\n",
           ("tests/test_weyl.py::test_homology_checks_the_closing_map",)),
    Mutant("homology-skips-d-squared-check", "weyl.py",
           "            if field.accumulate({}, ((at, c * v) for top, c in image.items()\n",
           "            if False and field.accumulate({}, ((at, c * v) for top, c in image.items()\n",
           ("tests/test_weyl.py::test_homology_checks_d_squared_on_the_generators",)),
    # an image is keyed by minus its code, so the augmentation decodes -at
    Mutant("augmentation-decodes-the-key-unnegated", "weyl.py",
           "        s, t = chains.key(-at)[1]\n",
           "        s, t = chains.key(at)[1]\n",
           ("tests/test_weyl.py::test_homology_checks_the_closing_map",)),
    Mutant("weyl-guard-counts-past-the-cap", "weyl.py",
           "    if filt > cap or n > cap.bit_length():\n",
           "    if False:\n",
           ("tests/test_weyl.py::test_size_guard_refuses_past_the_cap_uncounted",)),
    Mutant("weyl-guard-skips-wedge-count", "weyl.py",
           "    if moves > cap:\n",
           "    if False:\n",
           ("tests/test_cli.py::test_weyl_wedge_tables_over_the_cap_refused_before_any_table",)),
    Mutant("weyl-guard-skips-matrix-count", "weyl.py",
           "        if (terms := wedge_action_terms(matrix)) > cap:\n",
           "        if (terms := wedge_action_terms(matrix)) < 0:\n",
           ("tests/test_cli.py::test_weyl_matrix_over_the_cap_refused_at_its_index_before_rank"
            "_work",)),
    Mutant("differential-cache-rebuilt-per-matrix", "weyl.py",
           "        for idx, act in enumerate(actions):\n",
           "        for idx, act in enumerate(actions):\n"
           "            differential = cache(lambda key: koszul_differential(algebra, {key: 1}))\n",
           ("tests/test_weyl.py::test_equivariance_differentiates_each_key_once_across_matrices",)),
    Mutant("differential-cache-keyed-by-pair", "weyl.py",
           "        differential = cache(lambda key: koszul_differential(algebra, {key: 1}))\n",
           "        by_pair = {}\n"
           "        differential = lambda key: by_pair.setdefault(\n"
           "            key[1], koszul_differential(algebra, {key: 1}))\n",
           ("tests/test_weyl.py::test_cached_equivariance_matches_oracle_n1",)),
    Mutant("symplectic-pairing-sign", "weyl.py",
           "            pairing = sum(matrix[n + k][i] * matrix[k][j] - matrix[k][i] * matrix[n + k][j]\n",
           "            pairing = sum(matrix[n + k][i] * matrix[k][j] + matrix[k][i] * matrix[n + k][j]\n",
           ("tests/test_weyl.py::test_symplectic_membership",)),
    # -- the Ginzburg differential, the action and the document --
    Mutant("differential-drops-prefix-sign", "ginzburg.py",
           "                    signed = coeff if prefix_deg % 2 == 0 else -coeff\n",
           "                    signed = coeff\n",
           ("tests/test_ginzburg.py::test_splicing_differential_matches_product_oracle"
            "_on_short_paths",)),
    Mutant("contragredient-reads-inverse-untransposed", "action.py",
           "                    (Path(start, (star_name(row),)), inv[k][t]) for t, row in enumerate(rows)))\n",
           "                    (Path(start, (star_name(row),)), inv[t][k]) for t, row in enumerate(rows)))\n",
           ("tests/test_action.py::test_extend_shear_action_equivariant",)),
    Mutant("completion-composes-left-factor-first", "document.py",
           "                perm = {v: perm_g[perm_h[v]] for v in quiver.vertices}\n",
           "                perm = {v: perm_h[perm_g[v]] for v in quiver.vertices}\n",
           ("tests/test_document.py::test_completion_composes_vertex_maps_right_factor_first",)),
    Mutant("override-endpoints-unchecked", "document.py",
           "            problem = None if ends == (along.src, along.tgt) else (\n",
           "            problem = None if True else (\n",
           (OFF_GENERATOR,)),
    Mutant("override-unknown-generator-resolved-as-cycle", "document.py",
           "            if arrow is None:\n                issues.append((where, \"unknown generator\"))\n",
           "            if False:\n                issues.append((where, \"unknown generator\"))\n",
           (OFF_GENERATOR,)),
    Mutant("terms-compose-unchecked", "document.py",
           "        if not quiver.is_composable(path):\n",
           "        if False:\n",
           (OFF_GENERATOR,)),
    Mutant("reduced-coeffs-parsed-over-q", "document.py",
           "        rraw, \"/reduced_potential\", \"cycle\", field, issues)\n",
           "        rraw, \"/reduced_potential\", \"cycle\", make_field(\"Q\"), issues)\n",
           ("tests/test_cli.py::test_document_values_of_the_wrong_type_exit_2",)),
    # -- the scalar and matrix readers --
    Mutant("matrix-row-length-unchecked", "fields.py",
           "        if not isinstance(row, list) or len(row) != cols:\n",
           "        if not isinstance(row, list):\n",
           ("tests/test_cli.py::test_a_row_of_the_wrong_length_is_refused_at_its_index",)),
    Mutant("scalar-type-unchecked", "fields.py",
           "    if not isinstance(raw, str):\n        issues.append((where, f\"expected a scalar",
           "    if False:\n        issues.append((where, f\"expected a scalar",
           ("tests/test_cli.py::test_a_bad_scalar_is_refused_at_its_entry_by_every_run",)),
    Mutant("matrix-reader-returns-after-an-issue", "fields.py",
           "    return matrix if len(issues) == start else None\n",
           "    return matrix\n",
           ("tests/test_cli.py::test_a_bad_scalar_is_refused_at_its_entry_by_every_run",)),
    # -- the exit code by exception type, and the JSON reader --
    Mutant("check-failed-exits-as-a-refusal", "cli.py",
           "    except CheckFailed as exc:\n", "    except ZeroDivisionError as exc:\n",
           ("tests/test_cli.py::test_verify_noninvariant_exit_1",)),
    Mutant("json-reader-catches-only-decode-errors", "fields.py",
           "    except (ValueError, RecursionError) as exc:\n",
           "    except json.JSONDecodeError as exc:\n",
           ("tests/test_cli.py::test_unreadable_json_is_refused_at_the_root",)),
    # -- primality and roots of unity --
    Mutant("miller-rabin-skips-a-base", "fields.py",
           "               for b in _BASES)\n", "               for b in _BASES[:-1])\n",
           ("tests/test_fields.py::test_strong_pseudoprimes_are_not_prime",)),
    Mutant("root-search-returns-r-itself", "fields.py",
           "    return min(pow(r, k, p) for k in range(1, n + 1) if gcd(k, n) == 1)\n",
           "    return r\n",
           ("tests/test_fields.py::test_primitive_root_is_the_least_of_the_linear_search",)),
    # -- loading each module on first use --
    Mutant("init-loads-submodules-eagerly", "__init__.py",
           "    _spec.loader = importlib.util.LazyLoader(_spec.loader)\n", "",
           (MODULE_SET,)),
    Mutant("cli-reads-weyl-at-import", "cli.py",
           "               quiver, weyl)\n",
           "               quiver, weyl)\nfrom .weyl import bounded_exactness\n",
           (MODULE_SET,)),
]


def run(mutant: Mutant, workdir: str) -> bool:
    """Apply mutant in a fresh copy under workdir; True if a named test failed."""
    copy = os.path.join(workdir, mutant.name)
    for part in COPIED:
        source = os.path.join(ROOT, part)
        if os.path.isdir(source):
            shutil.copytree(source, os.path.join(copy, part),
                            ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        else:
            os.makedirs(copy, exist_ok=True)
            shutil.copy(source, os.path.join(copy, part))
    path = os.path.join(copy, "src", "skewgin", mutant.file)
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: old text occurs {text.count(mutant.old)} times")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text.replace(mutant.old, mutant.new))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--hypothesis-profile", "no-explain", *mutant.tests],
        cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    if result.returncode not in (0, 1):
        raise SystemExit(f"{mutant.name}: pytest exited {result.returncode}")
    return result.returncode == 1


def main(argv) -> int:
    if argv == ["--list"]:
        for m in MUTANTS:
            print(m.name)
        return 0
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown entries: {sorted(unknown)}")
    killed_count = unexpected = 0
    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="skewgin-mutants-") as workdir:
        for m in chosen:
            killed = run(m, workdir)
            killed_count += killed
            expected = not m.survives
            unexpected += killed != expected
            note = "" if killed == expected else "  (UNEXPECTED)"
            gap = f"  [known gap: {m.why}]" if m.survives else ""
            print(f"{'killed' if killed else 'survived':8} {m.name}{gap}{note}", flush=True)
    print(f"{killed_count} of {len(chosen)} killed, {unexpected} unexpected, "
          f"{time.monotonic() - start:.0f} s")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
