"""Planted defects, each of which named tier-1 checks must kill.

Each row of :data:`DEFECTS` plants one defect in ``src/ftsinv`` by patching
one function or class, or one constant, where its module binds it: a
function or class is replaced by a mutant, its own source with one snippet
rewritten and compiled in its module's namespace, both there and in every
package module that imported it, so every caller in the package runs the
defect.  A check that
imported the name into its own module keeps the original, so a row names
checks that reach the defect through the package.  The test runs the row's
checks in this process, by their node ids, and asserts that each one fails;
the patch and every per-size cache of the package are undone afterwards.  A
defect that no check killed would stay in the table as a survivor, with the
reason; every defect here is killed.
"""

from __future__ import annotations

import __future__
import inspect
import sys
import textwrap
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import Phase, settings

from ftsinv import bench, cli, fft_inversion, fileio, fxp, hwmodel, matrix_inversion, optics

TESTS = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Defect:
    """``target`` of ``owner`` (a module or class) planted with ``new``: in
    place of the snippet ``old`` of its source, or, where ``old`` is None,
    as the constant's value."""

    name: str
    owner: object
    target: str
    old: str | None
    new: object
    checks: tuple


ENTRY_WINDOW = "test_fft_inversion.py::TestEntryExponent::test_exponent_and_words_match_the_exact_model"
BOUND_ROUNDS = ("test_matrix_inversion.py::TestCompiledDiagonals::"
                "test_saturation_bound_rounds_as_the_stage_rounds")
WORD_MODEL = "test_matrix_inversion.py::TestWordModel::test_routes_match_the_word_model"
STAGE_MODEL = ("test_fft_inversion.py::TestButterfly::"
               "test_bfp_stages_match_the_model_at_every_width")
COLUMNS = ("test_fft_inversion.py::TestWorkspace::"
           "test_columns_are_read_only_table_entries_in_the_word_type")
THRESHOLD = ("test_matrix_inversion.py::TestOutputFormats::"
             "test_points_at_the_format_threshold_form_their_reference")
WRAP = "test_fxp.py::TestNormalizeBlock::test_left_shift_past_int64_reads_the_block_again"
GRID_PASS = "test_matrix_inversion.py::TestGridPass::test_every_point_equals_its_diagonal_alone"

DEFECTS = [
    Defect("entry exponent one lower (ROADMAP item 15, A)",
           fft_inversion, "quantize_complex_block", "gamma = max(", "gamma = -1 + max(",
           (ENTRY_WINDOW, "test_fft_inversion.py::test_golden_bits[fft_bfp]")),
    Defect("entry exponent without the ROADMAP item 13 term",
           fft_inversion, "quantize_complex_block",
           "max(math.ceil(math.log2(peak / limit)),", "(",
           (ENTRY_WINDOW, "test_workloads.py::test_seed_1_cycle_digest_is_pinned[airy-sweep]")),
    Defect("product 1's bound with V's peak floored",
           matrix_inversion.CompiledSvd, "diagonals",
           "scaled = np.ldexp(self.factors.v_colmax, fracs[0][:, None])",
           "scaled = np.floor(np.ldexp(self.factors.v_colmax, fracs[0][:, None]))",
           (BOUND_ROUNDS, WORD_MODEL)),
    Defect("product 1's bound compared with <=",
           matrix_inversion.CompiledSvd, "diagonals",
           "< 2.0 ** (width - 1)).tolist())", "<= 2.0 ** (width - 1)).tolist())",
           (BOUND_ROUNDS, WORD_MODEL)),
    Defect("port banks inverted",
           fft_inversion, "_parity", "return np.bitwise_count(idx).astype(np.int64) & 1",
           "return 1 - (np.bitwise_count(idx).astype(np.int64) & 1)",
           ("test_fft_inversion.py::TestBankMap::test_port_map_matches_bank_map",)),
    Defect("bit reversal replaced by the identity",
           fft_inversion, "_bit_reverse_permutation", ".transpose().ravel()", ".ravel()",
           ("test_fft_inversion.py::test_golden_bits[fft_bfp]",
            "test_fft_inversion.py::TestFftBfp::test_exact_mode_matches_reference_fft")),
    Defect("post shift decided from the stage's output block (ROADMAP item 15, B)",
           fft_inversion, "_fft_core", 'if bfp == "post":\n',
           'if bfp == "post":\n'
           "                shift = headroom(extremes, plan.data_format.total_bits)"
           " - plan.headroom_bits\n",
           ("test_fft_inversion.py::test_golden_bits[fft_bfp]",
            "test_fft_inversion.py::TestButterfly::test_bfp_blocks_match_the_model[small-post]")),
    Defect("DCT twiddle stage rounding half to even (ROADMAP item 15, C)",
           fft_inversion, "_twiddle_mac", "frac_bits, DATAPATH_POLICY,", "frac_bits, ENTRY_POLICY,",
           ("test_fft_inversion.py::test_golden_bits[dct2_via_fft]",
            "test_fft_inversion.py::test_golden_bits[idct2_via_fft]")),
    Defect("float64 words trusted to 56 bits (ROADMAP item 15, D)",
           fxp, "_FLOAT_EXACT_BITS", None, 56,
           ("test_matrix_inversion.py::TestLimbKernel::test_matvec_at_the_float_switch[24-24]",
            "test_matrix_inversion.py::TestWordType::test_word_type_at_m_and_r_256[24-int64]")),
    Defect("twiddle tables quantized at 16 bits whatever their key",
           fft_inversion, "_tables", "quantize_array(t, twiddle_format, ENTRY_POLICY)",
           "quantize_array(t, FxpFormat(16, 14), ENTRY_POLICY)",
           ("test_fft_inversion.py::test_golden_bits[fft_bfp]",
            "test_fft_inversion.py::test_golden_bits[dct2_via_fft]", STAGE_MODEL)),
    Defect("stage columns left in the tables' type, whatever the word",
           fft_inversion, "_columns", ".astype(word, copy=False)", "",
           (COLUMNS,)),
    Defect("inverse transform without conjugated twiddles",
           fft_inversion, "_fft_core", "wr, wi, plan, scratch, inverse)",
           "wr, wi, plan, scratch, False)",
           ("test_fft_inversion.py::test_golden_bits[idct2_via_fft]",
            "test_fft_inversion.py::TestDct::test_inverse_round_trip")),
    Defect("product 1's pre-scale one bit off",
           matrix_inversion.CompiledSvd, "diagonals", "(fracs[2] - fracs[0] - fracs[1])",
           "(fracs[2] - fracs[0] - fracs[1] - 1)",
           (WORD_MODEL, "test_matrix_inversion.py::test_golden_bits")),
    Defect("output stage shifting one bit late",
           fxp, "_requantize", "shift_right_array(high, shift - bits * c, mode,",
           "shift_right_array(high, shift - bits * c + 1, mode,",
           ("test_matrix_inversion.py::TestLimbKernel::test_matvec_matches_python_ints[16-7]",
            "test_fft_inversion.py::test_golden_bits[dct2_via_fft]")),
    Defect("truncating shift one bit late",
           fxp, "shift_right_array", "return m >> s\n", "return m >> (s + 1)\n",
           ("test_fft_inversion.py::TestButterfly::test_bfp_blocks_match_the_model[full-pre]",
            "test_matrix_inversion.py::test_golden_bits")),
    Defect("one-word butterfly's t >> ft one bit short",
           fft_inversion, "_butterflies", "a += np.right_shift(t, ft, out=t)",
           "a += np.right_shift(t, ft - 1, out=t)",
           ("test_fft_inversion.py::TestButterfly::test_bfp_blocks_match_the_model[small-post]",
            "test_fft_inversion.py::test_golden_bits[fft_bfp]")),
    Defect("saturation counting no overflow",
           fxp, "saturate_array", "return raw, n, (max(", "return raw, 0, (max(",
           ("test_fft_inversion.py::TestButterfly::test_post_blocks_below_three_headroom_"
            "bits_saturate_like_the_model[0-16-widths0]", WORD_MODEL)),
    Defect("one guard bit fewer",
           fxp, "_guard_bits", "math.log2(max(terms, 2))))", "math.log2(max(terms, 2)))) - 1",
           (WORD_MODEL, "test_matrix_inversion.py::test_golden_bits")),
    Defect("stage shift keeping one headroom bit fewer",
           fft_inversion, "_fft_core", "total_bits) - plan.headroom_bits\n",
           "total_bits) - plan.headroom_bits + 1\n",
           (STAGE_MODEL, "test_fft_inversion.py::test_golden_bits[fft_bfp]")),
    Defect("SVD route priced from the pseudo-inverse rows",
           hwmodel, "_matrix_cost", "route = _ARCHITECTURE[method]", 'route = "pinv"',
           ("test_hwmodel.py::test_cost_golden",
            "test_hwmodel.py::TestResources::test_svd_rows_verbatim")),
    Defect("telemetry reporting K = 1 whatever K",
           matrix_inversion, "InversionTelemetry", "    k: int = 1\n",
           "    k: int = 1\n\n    def __post_init__(self):\n        self.k = 1\n",
           ("test_matrix_inversion.py::TestReconstructPinv::test_latency_attached",
            "test_matrix_inversion.py::TestCompiledDatapaths::"
            "test_partition_count_bounded_by_unknowns[16]")),
    Defect("a given FFT headroom of 3 fitted as if unset",
           fft_inversion.FftPlan, "make", "if headroom_bits is None:",
           "if headroom_bits in (None, 3):",
           ("test_bench.py::test_study_fft_plans_take_the_config_settings",
            "test_cli.py::test_sweep_precision_runs_a_given_headroom_at_every_width")),
    Defect("an unset FFT headroom fitted one bit loose",
           fft_inversion.FftPlan, "make", "min(3, bits - 3)", "min(3, bits - 2)",
           ("test_fft_inversion.py::TestFftBfp::test_unset_headroom_is_three_fitted_to_the_width",
            "test_cli.py::test_invert_fft_runs_the_plan_a_study_makes[pre-4]")),
    Defect("E_p = 0",
           matrix_inversion.CompiledSvd, "_output_formats",
           "bound = 2 * gamma * rho * _norm_bounds(q, 0) + 2.0 ** -1072 * r * (rho + o2_peak + 4)",
           "bound = 0 * o2_peak",
           (THRESHOLD,)),
    Defect("uncertified point given the format at peak + E_p",
           matrix_inversion.CompiledSvd, "_output_formats",
           "FxpFormat(width, b) if ok else None", "FxpFormat(width, b)",
           (THRESHOLD,)),
    Defect("grid pass sharing one lane past each point's common prefix",
           matrix_inversion.CompiledSvd, "_accumulators",
           "cuts[p] = int(differ[0]) if differ.size else rank",
           "cuts[p] = (int(differ[0]) if differ.size else rank) + 1",
           (GRID_PASS, "test_matrix_inversion.py::TestGridPass::"
                       "test_the_reference_study_forms_each_shared_lane_once")),
    Defect("grid pass grouping points without product 2's formats",
           matrix_inversion.CompiledSvd, "_accumulators",
           "(grid.fmts[p], stage.fmt_u, stage.fmt_o2)", "(grid.fmts[p],)",
           (GRID_PASS, "test_matrix_inversion.py::TestGridPass::"
                       "test_points_apart_in_product_2_formats_run_apart")),
    Defect("grid pass charging the base's whole product-1 overflow count to every point",
           matrix_inversion.CompiledSvd, "_accumulators",
           "acc, count = prefix[cut]", "acc, count = prefix[cut][0], prefix[words.size][1]",
           (GRID_PASS,)),
    Defect("left-shift wrap check against 2**64 on the positive side",
           fxp, "shift_block", "hi >= 1 << 63", "hi >= 1 << 64", (WRAP,)),
    Defect("left-shift wrap check against -2**64 on the negative side",
           fxp, "shift_block", "lo < -(1 << 63)", "lo < -(1 << 64)", (WRAP,)),
    Defect("lazy digits carried at half their carry",
           fxp, "_lazy_digits_fit", "carry = -(-digit >> bits)", "carry = -(-digit >> (bits + 1))",
           ("test_matrix_inversion.py::TestLimbKernel::"
            "test_limb_plans_match_the_worst_case_digit_model",)),
    Defect("saturation dropped: no clamp, no count",
           fxp, "saturate_array", "if lo >= fmt.min_raw and hi <= fmt.max_raw:", "if True:",
           (WORD_MODEL, "test_matrix_inversion.py::test_golden_bits",
            "test_fft_inversion.py::TestButterfly::test_post_blocks_below_three_headroom_"
            "bits_saturate_like_the_model[0-16-widths0]")),
]


def _mutant(owner, name: str, old: str, new: str):
    """``owner.name`` compiled from its source with ``old`` replaced by
    ``new``, in the namespace of the module that defines it."""
    func = inspect.getattr_static(owner, name)
    source = textwrap.dedent(inspect.getsource(func))
    assert source.count(old) == 1, f"{name}: {old!r} is not in its source once"
    module = sys.modules[func.__module__]
    code = compile(source.replace(old, new), module.__file__, "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    scope = {}
    exec(code, vars(module), scope)
    return scope[name]


PACKAGE = (fxp, optics, fft_inversion, matrix_inversion, hwmodel, fileio, bench, cli)


def _clear_caches() -> None:
    """Forget every per-size map, workspace, limb plan and FFT table, which a
    defect may have built."""
    for module in PACKAGE:
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


class _Failures:
    """The node ids a nested run reports, and those that failed."""

    def __init__(self):
        self.ran, self.failed = set(), set()

    def pytest_runtest_logreport(self, report):
        self.ran.add(report.nodeid)
        if report.failed:
            self.failed.add(report.nodeid)


# a property on the default settings stops at its first failing example
settings.register_profile("planted", settings.get_profile("tier1"),
                          phases=(Phase.explicit, Phase.reuse, Phase.generate))


@pytest.mark.parametrize("defect", DEFECTS, ids=[d.name for d in DEFECTS])
def test_named_checks_kill_the_defect(defect, monkeypatch):
    planted = (defect.new if defect.old is None
               else _mutant(defect.owner, defect.target, defect.old, defect.new))
    runs = _Failures()
    settings.load_profile("planted")
    try:
        with monkeypatch.context() as patch:
            if defect.old is not None:
                original = getattr(defect.owner, defect.target)
                for module in PACKAGE:
                    for name in [n for n, v in vars(module).items() if v is original]:
                        patch.setattr(module, name, planted)
            patch.setattr(defect.owner, defect.target, planted)
            _clear_caches()
            pytest.main(["-p", "no:cacheprovider", "-p", "no:terminal",
                         *(str(TESTS / check) for check in defect.checks)], plugins=[runs])
    finally:
        settings.load_profile("tier1")
        _clear_caches()
    ids = {check: [i for i in runs.ran if i.endswith("tests/" + check)]
           for check in defect.checks}
    assert all(ids.values()), f"checks that did not run: {ids}"
    assert {check for check, ran in ids.items() if set(ran) & runs.failed} == set(defect.checks)
