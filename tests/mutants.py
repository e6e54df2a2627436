"""Mutation spot check: does each seeded fault fail the tests named for it?

Each mutant changes one exact snippet of one source file. For each, the tree
is copied to a temporary directory, the snippet replaced, and the named test
files run with `pytest -x`; a failing run kills the mutant. The unmutated
copy must pass the same test files first, or no verdict means anything.

    python tests/mutants.py            # every mutant
    python tests/mutants.py EXP_FLOOR  # the named mutants only

Prints one line per mutant (killed, survived or timeout, the seconds taken
and the first failing test) and exits 1 if a mutant survives without a
recorded reason for its equivalence, if a snippet no longer occurs exactly
once, or if the unmutated tests fail. pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]

#: Seconds one pytest run may take before its mutant counts as a timeout.
TIMEOUT = 900


class Mutant(NamedTuple):
    name: str
    module: str  # path relative to the repository root
    original: str  # must occur exactly once in the module
    replacement: str
    tests: tuple[str, ...]
    equivalent: str | None = None  # why a survivor changes no behaviour


MUTANTS = (
    Mutant("EXP_FLOOR", "src/slabdiff/spectral.py",
           "EXP_FLOOR = -708.0", "EXP_FLOOR = -60.0",
           ("tests/test_spectral.py",)),
    Mutant("COEFFICIENT_ABS_TOL", "src/slabdiff/profiles.py",
           "COEFFICIENT_ABS_TOL = 1e-12", "COEFFICIENT_ABS_TOL = 1e-9",
           ("tests/test_profiles.py",)),
    Mutant("contraction_Q_sign", "src/slabdiff/spectral.py",
           "p_d, q_d = cos_d + r * sin_d, r * cos_d - sin_d",
           "p_d, q_d = cos_d + r * sin_d, r * cos_d + sin_d",
           ("tests/test_spectral.py",)),
    # A time row off uniform by far more than its rounding is contracted
    # at nominal times that are not its own.
    Mutant("SPLIT_SPACINGS_widened", "src/slabdiff/spectral.py",
           "SPLIT_SPACINGS = 3.0", "SPLIT_SPACINGS = 3.0 * 2**20",
           ("tests/test_spectral.py",)),
    # The two-root factor is exp(lam1*v)*(1 + lam1*v*phi): its correction
    # term is subtracted, not added.
    Mutant("two_root_slow_sign", "src/slabdiff/spectral.py",
           "term *= slow / gap", "term *= -slow / gap",
           ("tests/test_spectral.py",)),
    # A gap of exactly 0, a telegraph mode at disc == 0 or a two-timescale
    # mode at a^2 == 1/eps, divides 0 by 0.
    Mutant("two_root_floor_dropped", "src/slabdiff/spectral.py",
           "gap = np.maximum(gap, 2.0**-60 * -slow)", "gap = gap",
           ("tests/test_spectral.py",)),
    # A telegraph mode with disc == 0 is walked as underdamped, of frequency
    # 0 and r = 1/0.
    Mutant("real_root_class_strict", "src/slabdiff/spectral.py",
           "_discriminant(eps, under) >= 0:", "_discriminant(eps, under) > 0:",
           ("tests/test_spectral.py",)),
    # The two-root factor decays as its faster root, exp((lam1 - gap)*v).
    Mutant("two_root_decay_of_faster_root", "src/slabdiff/spectral.py",
           "term *= _exp(slow * v)", "term *= _exp((slow - gap) * v)",
           ("tests/test_spectral.py",)),
    # A two-root block's live window is a quarter of its slower root's: it
    # drops times where that decay is not flushed.
    Mutant("two_root_live_rate", "src/slabdiff/spectral.py",
           "-_roots(model, eps, low)[0]", "-4.0 * _roots(model, eps, low)[0]",
           ("tests/test_spectral.py",)),
    # A scalar mode's disc comes from Python's float power, 1 ulp off x*x
    # for some m: the first underdamped mode of the walk can open a block
    # that classes it as real, and the rest of the block is NaN.
    Mutant("disc_python_power", "src/slabdiff/spectral.py",
           "return 1.0 - x * x * eps", "return 1.0 - x**2 * eps",
           ("tests/test_spectral.py",)),
    Mutant("wkb_correction_sign", "src/slabdiff/spectral.py",
           "                t -= gap", "                t += gap",
           ("tests/test_spectral.py",)),
    Mutant("per_sample_cosine_half_angle", "src/slabdiff/spectral.py",
           "np.cos((2.0 * np.pi * m) * (u_flat", "np.cos((np.pi * m) * (u_flat",
           ("tests/test_spectral.py",)),
    Mutant("contracted_cosine_mode_shift", "src/slabdiff/spectral.py",
           "cosines = np.cos((2.0 * np.pi * m) * u)",
           "cosines = np.cos((2.0 * np.pi * (m + 1)) * u)",
           ("tests/test_spectral.py",)),
    # A table of BLOCK positions is contracted, though it is no lattice.
    Mutant("contraction_positions_bound", "src/slabdiff/spectral.py",
           "and u_flat.size < BLOCK:", "and u_flat.size <= BLOCK:",
           ("tests/test_spectral.py",)),
    Mutant("equal_walls_kept", "src/slabdiff/analysis.py",
           "while stack and stack[-1][1] <= h:", "while stack and stack[-1][1] < h:",
           ("tests/test_analysis.py",)),
    Mutant("nan_walls_counted", "src/slabdiff/analysis.py",
           "        if h == h:", "        if True:",
           ("tests/test_analysis.py",)),
    Mutant("left_base_dropped", "src/slabdiff/analysis.py",
           "np.maximum(low[0::3], low[1::3])", "low[1::3]",
           ("tests/test_analysis.py",)),
    Mutant("k0_bin0_factor", "src/slabdiff/profiles.py",
           "scale = np.where(m > 0, 4.0, 2.0)", "scale = np.where(m > 0, 4.0, 4.0)",
           ("tests/test_profiles.py",)),
    # Without the first-pass check the FFT rule evaluates its first pass
    # before its loop meets the cap, as it once did.
    Mutant("cap_check_after_first_fft_pass", "src/slabdiff/profiles.py",
           "    if evaluations > MAX_EVALUATIONS:\n        raise InvalidParameterError(\n"
           '            f"terms=',
           "    if False:\n        raise InvalidParameterError(\n"
           '            f"terms=',
           ("tests/test_profiles.py",)),
    # Every first direct sum is returned, however far from the FFT value.
    Mutant("direct_sum_always_kept", "src/slabdiff/profiles.py",
           "        if delta <= tol:\n", "        if True:\n",
           ("tests/test_profiles.py",)),
    # Every mode takes its direct sum, the tail of a smooth profile included.
    Mutant("floor_never_skips", "src/slabdiff/profiles.py",
           "        if abs(check[m]) <= tol:\n", "        if False:\n",
           ("tests/test_profiles.py",)),
    # Modes up to 1e3 times the tolerance take the FFT value with no direct sum.
    Mutant("floor_widened", "src/slabdiff/profiles.py",
           "if abs(check[m]) <= tol:", "if abs(check[m]) <= 1e3 * tol:",
           ("tests/test_profiles.py",)),
    # The tag is cached with the coefficients, as the whole SpectralCoefficients
    # would be: an equal profile spelt otherwise gets the first spelling's tag.
    Mutant("coefficient_cache_keeps_tag", "src/slabdiff/profiles.py",
           "        mean, modes = _quadrature(profile, truncation, fft_panels)\n"
           "    return SpectralCoefficients(mean=mean, modes=modes, profile_tag=profile.tag())\n"
           "\n\n@lru_cache(maxsize=8)\n",
           "        mean, modes = _quadrature(profile, truncation, fft_panels)\n"
           "        return SpectralCoefficients(mean=mean, modes=modes,\n"
           "                                    profile_tag=_tag(profile, truncation))\n"
           "    return SpectralCoefficients(mean=mean, modes=modes, profile_tag=profile.tag())\n"
           "\n\n@lru_cache(maxsize=8)\ndef _tag(profile, truncation):\n"
           "    return profile.tag()\n"
           "\n\n@lru_cache(maxsize=8)\n",
           ("tests/test_profiles.py",)),
    # Every caller is handed one writable array: a write changes later calls.
    Mutant("cached_modes_writable", "src/slabdiff/profiles.py",
           "    modes.flags.writeable = False\n", "",
           ("tests/test_profiles.py",)),
    # Profile fields are stored as given: a float32 field shares the cache
    # entry of the float that it equals, though it computes other numbers.
    Mutant("cache_any_field_type", "src/slabdiff/profiles.py",
           "object.__setattr__(self, f.name, float(getattr(self, f.name)))",
           "object.__setattr__(self, f.name, getattr(self, f.name))",
           ("tests/test_profiles.py",)),
    # A count one below its lower bound passes, as 0 terms or 2 FD cells.
    Mutant("count_lower_bound", "src/slabdiff/core.py",
           "    if count < minimum:", "    if count < minimum - 1:",
           ("tests/test_core.py",)),
    # An infinite eps reaches the series, the FD oracle and the echo ladder.
    Mutant("eps_finite_bound_dropped", "src/slabdiff/core.py",
           "valid = math.isfinite(eps) and eps >= minimum", "valid = eps >= minimum",
           ("tests/test_core.py",)),
    # The tabulated coefficients form one (modes x segments) block, as before.
    Mutant("tabulated_block_bytes", "src/slabdiff/profiles.py",
           "TABULATED_BLOCK_BYTES = 4 * 2**20", "TABULATED_BLOCK_BYTES = 4 * 2**30",
           ("tests/test_profiles.py",)),
    # Each snapshot applies the powers that j, not j - 1, selects.
    Mutant("telegraph_bits_of_j", "src/slabdiff/fd.py",
           "if (j - 1) >> b & 1:", "if j >> b & 1:",
           ("tests/test_fd.py",)),
    # Snapshot i is written to row i - 1: every row holds the next
    # snapshot, and the last row the initial data.
    Mutant("fd_solve_row_shifted", "src/slabdiff/fd.py",
           "out=table[i])", "out=table[i - 1])",
           ("tests/test_fd.py",)),
    # The initial spectrum is cached per profile alone: a solve on another
    # nu reads the first nu's data.
    Mutant("fd_spectrum_key_without_nu", "src/slabdiff/fd.py",
           "_cached_spectrum = lru_cache(maxsize=8)(_spectrum)",
           "_cached_spectrum = lambda profile, nu, held={}: "
           "held.setdefault(profile, _spectrum(profile, nu))",
           ("tests/test_fd.py",)),
    # Every solve is handed one writable initial spectrum.
    Mutant("fd_spectrum_writable", "src/slabdiff/fd.py",
           "    n0.flags.writeable = c0.flags.writeable = False\n", "",
           ("tests/test_fd.py",)),
    # The recorded times are the requested ones, not the steps they snap to.
    Mutant("fd_recorded_times_requested", "src/slabdiff/fd.py",
           "return np.array(steps) * cfg.dv, cells, table",
           "return cfg.snapshot_times.points, cells, table",
           ("tests/test_fd.py",)),
    # A small eps is solved as heat: the equation is not chosen by eps == 0.
    Mutant("fd_equation_by_small_eps", "src/slabdiff/fd.py",
           "_heat_delta(cfg) if cfg.eps == 0.0 else", "_heat_delta(cfg) if cfg.eps < 1e-4 else",
           ("tests/test_fd.py",)),
    # The power table stops one square short when the largest j - 1 is 2^k.
    Mutant("power_table_bound", "src/slabdiff/fd.py",
           "while (1 << len(powers)) <= max(steps) - 1:",
           "while (1 << len(powers)) < max(steps) - 1:",
           ("tests/test_fd.py",)),
    # Heat modes with 1 + x <= 0 take one step too few.
    Mutant("heat_rough_power", "src/slabdiff/fd.py",
           "np.power(factor, j) - 1.0", "np.power(factor, j - 1) - 1.0",
           ("tests/test_fd.py",)),
    # The auto heat step is the heat bound itself, with no safety margin.
    Mutant("diffusive_step_unsafe", "src/slabdiff/fd.py",
           "else SAFETY * 0.5 * du * du", "else 0.5 * du * du",
           ("tests/test_fd.py",)),
    # The telegraph step is 0.9 of the wave bound: the scheme disperses the
    # front, and the FD wall echoes leave the series'.
    Mutant("telegraph_courant_0_9", "src/slabdiff/fd.py",
           "dv = math.sqrt(eps) * du if", "dv = 0.9 * math.sqrt(eps) * du if",
           ("tests/test_fd.py",)),
    # The source's own image, at distance 0, counts: a surface source seen at
    # the wall "arrives" at t = 0.
    Mutant("zero_image_kept", "src/slabdiff/analysis.py",
           "for offset in (gap or 1.0, 1.0 - gap or 1.0):",
           "for offset in (gap, 1.0 - gap):",
           ("tests/test_analysis.py",)),
    # A v halfway between two arrivals takes the later one.
    Mutant("tie_takes_later", "src/slabdiff/analysis.py",
           "key=lambda t: (abs(t - v), t)", "key=lambda t: (abs(t - v), -t)",
           ("tests/test_analysis.py",)),
    # Only the images on u's side of the source count. On the axis and at the
    # walls the two families coincide, so only an off-axis position shows it.
    Mutant("near_side_image_only", "src/slabdiff/analysis.py",
           "for offset in (gap or 1.0, 1.0 - gap or 1.0):",
           "for offset in (gap or 1.0,):",
           ("tests/test_analysis.py",)),
    # Extrema are found after a 5-sample moving average, as they once were:
    # on a coarse grid it delays them and hides the surface wall echo.
    Mutant("smoothing_restored", "src/slabdiff/analysis.py",
           "times, values = trace.times.points, trace.values",
           "times, values = trace.times.points[2:-2], "
           "np.convolve(trace.values, np.full(5, 0.2), mode='valid')",
           ("tests/test_analysis.py",)),
    # A huge eps whose last mode overflows validates, and run writes NaN.
    Mutant("scenario_telegraph_first_mode_only", "src/slabdiff/core.py",
           "(wavenumber * terms) ** 2 * eps", "wavenumber ** 2 * eps",
           ("tests/test_scenario.py",)),
    # The two-timescale family has no least eps: a negative eps is evaluated.
    Mutant("family_rule_skips_wkb", "src/slabdiff/core.py",
           '"wkb": (0.0, 2.0 * math.pi)', '"wkb": (-math.inf, 2.0 * math.pi)',
           ("tests/test_core.py",)),
    # A cosine mode above terms validates, and run writes the flat profile k0.
    Mutant("cosine_mode_above_terms_allowed", "src/slabdiff/scenario.py",
           "if mode > terms and", "if mode > 10**9 and",
           ("tests/test_runner_cli.py",)),
    # No family refuses an eps whose last mode overflows.
    Mutant("last_mode_overflow_allowed", "src/slabdiff/core.py",
           "        if not math.isfinite((wavenumber * terms) ** 2 * eps):", "        if False:",
           ("tests/test_core.py",)),
    # A bare string of models is read letter by letter: "parabolic" is refused
    # as the unknown model 'p', not as a string.
    Mutant("bare_string_names_split", "src/slabdiff/scenario.py",
           "if isinstance(names, str) or not isinstance(names, Iterable):",
           "if not isinstance(names, Iterable):",
           ("tests/test_scenario.py",)),
    # models and formats keep the config's spelling, so one run has two hashes.
    Mutant("names_keep_user_order", "src/slabdiff/scenario.py",
           "return tuple(name for name in order if name in names)", "return tuple(names)",
           ("tests/test_scenario.py",)),
    # FD trace times keep the steps that several requested times snap to,
    # so a trace's times repeat, which a TimeGrid refuses.
    Mutant("fd_trace_keeps_repeated_steps", "src/slabdiff/runner.py",
           "np.diff(recorded) > 0", "np.diff(recorded) >= 0",
           ("tests/test_runner_cli.py",)),
    # Each FD trace is taken at the cell farthest from its position.
    Mutant("fd_trace_farthest_cell", "src/slabdiff/runner.py",
           ".argmin(axis=1)", ".argmax(axis=1)",
           ("tests/test_runner_cli.py",)),
    # A grid outside the slab, or a negative time, is accepted.
    Mutant("axis_range_unchecked", "src/slabdiff/core.py",
           "        if first < cls.low or last > cls.high:", "        if False:",
           ("tests/test_core.py",)),
    # One sample above the cap is accepted, checked or built.
    Mutant("sample_cap_off_by_one", "src/slabdiff/core.py",
           "    if count > MAX_SAMPLES:", "    if count > MAX_SAMPLES + 1:",
           ("tests/test_core.py",)),
    # Any positive step is taken as strictly increasing: a span across a power
    # of two validates, and its grid repeats a time in run.
    Mutant("step_bound_dropped", "src/slabdiff/core.py",
           "if not step >= max(MIN_STEP * max(abs(start), abs(stop)), sys.float_info.min):",
           "if not step > 0:",
           ("tests/test_core.py",)),
    # Ends up to the largest float validate, and np.linspace(0, max, 85)
    # overflows in run.
    Mutant("end_bound_widened", "src/slabdiff/core.py",
           "MAX_END = sys.float_info.max / 4", "MAX_END = sys.float_info.max",
           ("tests/test_core.py",)),
    # A time or an end that float() cannot read escapes as a bare ValueError
    # or TypeError, not as the axis's refusal.
    Mutant("float_conversion_unguarded", "src/slabdiff/core.py",
           "    except (TypeError, ValueError, OverflowError):\n        return None",
           "    except OverflowError:\n        return None",
           ("tests/test_core.py",)),
    # Scenario takes u_points as given: 10**17 and 51.0 validate, and run
    # fails or refuses them.
    Mutant("scenario_u_points_unchecked", "src/slabdiff/scenario.py",
           "u_points = Grid1D.uniform_count(self.u_points)", "u_points = self.u_points",
           ("tests/test_runner_cli.py",)),
    # eps, [fd] dv and out_dir are stored as given: an int beyond 2**53 or a
    # path object is written as another value than it holds.
    Mutant("eps_stored_as_given", "src/slabdiff/scenario.py",
           'object.__setattr__(self, "eps", float(self.eps))',
           'object.__setattr__(self, "eps", self.eps)',
           ("tests/test_scenario.py",)),
    Mutant("fd_dv_stored_as_given", "src/slabdiff/scenario.py",
           'object.__setattr__(self, "fd_dv", float(self.fd_dv))',
           'object.__setattr__(self, "fd_dv", self.fd_dv)',
           ("tests/test_scenario.py",)),
    Mutant("out_dir_stored_as_given", "src/slabdiff/scenario.py",
           'object.__setattr__(self, "out_dir", _checked_out_dir(self.out_dir))',
           '_checked_out_dir(self.out_dir)',
           ("tests/test_scenario.py",)),
    # The surface peak drops the far wall's image exp(-s), which is about 1
    # for a small sharpness: the peak is half the density at the walls.
    Mutant("surface_peak_near_wall_only", "src/slabdiff/profiles.py",
           "self._scaled(1.0 + math.exp(-self.sharpness))", "self._scaled(1.0)",
           ("tests/test_profiles.py",)),
    # A list of times out of order validates without numpy, and run refuses it.
    Mutant("v_list_order_unchecked", "src/slabdiff/core.py",
           "        if any(b <= a for a, b in zip(points, points[1:])):", "        if False:",
           ("tests/test_core.py",)),
    # The two-timescale slow weight is 1 + q, not 1/(1 - q): the h - w gap
    # leaves its leading term by 3.3q, where the model stays within 1.4q.
    Mutant("wkb_fast_without_amplitude", "src/slabdiff/spectral.py",
           "fast = kb * a2 / (a2 - 1.0 / eps)", "fast = -kb * a2 * eps",
           ("tests/test_spectral.py",)),
    # The modes near q = 1 keep the fast/slow split, which loses up to 8
    # digits at q - 1 = 2e-9 and divides by 0 at q = 1.
    Mutant("wkb_near_band_never_taken", "src/slabdiff/spectral.py",
           "high = min(terms, math.floor(star * 1.5**0.5))", "high = low - 1",
           ("tests/test_spectral.py",)),
    # The band's lowest mode is also walked by the split modes below it.
    Mutant("wkb_band_low_edge_overlaps", "src/slabdiff/spectral.py",
           '(1, min(terms, low - 1), "split")', '(1, min(terms, low), "split")',
           ("tests/test_spectral.py",)),
    # The mode just above the band is walked by no range.
    Mutant("wkb_band_high_edge_gap", "src/slabdiff/spectral.py",
           '(high + 1, terms, "split")', '(high + 2, terms, "split")',
           ("tests/test_spectral.py",)),
    # phi(0) is not 1: at a gap of 0 (q = 1, or disc = 0) the gap is taken as
    # |lam1|/2, not 2**-60*|lam1|, so a mode's lam1*v*exp(lam1*v) part
    # shrinks by phi(|lam1|*v/2).
    Mutant("wkb_phi_at_zero", "src/slabdiff/spectral.py",
           "2.0**-60 * -slow", "2.0**-1 * -slow",
           ("tests/test_spectral.py",)),
    # A name holding "--" runs, and every SVG chart's XML comment is malformed.
    Mutant("name_double_hyphen_allowed", "src/slabdiff/scenario.py",
           'if "--" in self.name:', "if False:",
           ("tests/test_runner_cli.py",)),
    # The chart's ".2f" text: 100*|x| near a half-integer is rounded by rint,
    # not by format's correctly rounded decimal.
    Mutant("fixed2_tie_guard_dropped", "src/slabdiff/svgplot.py",
           "exact = (np.abs(scaled - np.floor(scaled) - 0.5) > TIE_BAND) & (scaled < ",
           "exact = (scaled < ",
           ("tests/test_svgplot.py", "tests/test_runner_cli.py")),
    # A negative value is written without its sign.
    Mutant("fixed2_sign_cell_unused", "src/slabdiff/svgplot.py",
           "heads[hi + 1000 * np.signbit(values)]", "heads[hi]",
           ("tests/test_svgplot.py", "tests/test_runner_cli.py")),
    # The last 4 integer digits keep their leading zeros from 2*10**4 up, not
    # 10**4: 10234.56 is written 1234.56.
    Mutant("fixed2_leading_digit_threshold", "src/slabdiff/svgplot.py",
           "bodies[lo + 10_000 * (hi > 0)]", "bodies[lo + 10_000 * (hi > 1)]",
           ("tests/test_svgplot.py", "tests/test_runner_cli.py")),
    # The units digit of a value below 1 is blank: 0.5 is written .50.
    Mutant("fixed2_units_digit_blank", "src/slabdiff/svgplot.py",
           "_digits(4, lead=10)", "_digits(4, lead=1)",
           ("tests/test_svgplot.py", "tests/test_runner_cli.py")),
    # numtext's g is floor(10**-k * 2**-r) + 1 for every k, the reference
    # table, not the exact value at the 55 k where that is an integer.
    Mutant("numtext_g_floor_plus_one", "src/slabdiff/numtext.py",
           "g.append(-(-num // den))", "g.append(num // den + 1)",
           ("tests/test_numtext.py",),
           equivalent="r_o' drops the low 64 bits of g0*cp; at an exact product they are "
                      "0 or 2**63, and the extra cp < 2**59 carries nothing out of them, "
                      "so no decimal changes (checked on 12M doubles)"),
    # A tie between s and s + 1 goes to the odd one.
    Mutant("numtext_tie_to_odd", "src/slabdiff/numtext.py",
           "(vb == mid) & (s & 1 == 1)", "(vb == mid) & (s & 1 == 0)",
           ("tests/test_numtext.py",)),
    # Exponent notation starts at decpt -5, not -4: 1e-05 is written 0.00001.
    Mutant("numtext_exponent_edge_moved", "src/slabdiff/numtext.py",
           "EXPONENT_BELOW = -4", "EXPONENT_BELOW = -5",
           ("tests/test_numtext.py",)),
    # The kernel claims up to 1e17, where repr writes 1e+16 and the layout
    # has no row.
    Mutant("numtext_claim_raised", "src/slabdiff/numtext.py",
           "CLAIM_LOW, CLAIM_HIGH = 1e-99, 1e16", "CLAIM_LOW, CLAIM_HIGH = 1e-99, 1e17",
           ("tests/test_numtext.py",)),
    # A power of two takes the regular interval, whose lower half is as wide
    # as its upper half, though the doubles below it lie twice as close.
    Mutant("numtext_irregular_spacing_ignored", "src/slabdiff/numtext.py",
           "    c += irregular\n", "",
           ("tests/test_numtext.py",)),
    # The 64-bit product drops the carry from its low 32 x 32-bit part.
    Mutant("numtext_mulhi_low_carry", "src/slabdiff/numtext.py",
           "mid = ((a_lo * b_lo) >> 32) + ", "mid = ",
           ("tests/test_numtext.py",)),
    # A row of 24 cells: repr's 24-character texts, written by repr outside
    # the claim, overrun their separator.
    Mutant("numtext_width_24", "src/slabdiff/numtext.py",
           "WIDTH = 25", "WIDTH = 24",
           ("tests/test_numtext.py",)),
    # A missed value's repr is written at the end of its row, over its separator.
    Mutant("numtext_missed_over_separator", "src/slabdiff/numtext.py",
           "out[i, :len(own)] = ", "out[i, -len(own):] = ",
           ("tests/test_numtext.py",)),
    # An axis column keeps "\n" as its rows' separator: each CSV row breaks
    # after its u or v.
    Mutant("runner_axis_keeps_newline", "src/slabdiff/runner.py",
           'numtext.WIDTH - 1] = ord(",")', 'numtext.WIDTH - 1] = ord("\\n")',
           ("tests/test_runner_cli.py",)),
    # The separator is set where a field file's u axis ends, also in a trace
    # file: there it lands inside the v axis, after the constant u column.
    Mutant("runner_axis_separator_at_field_column", "src/slabdiff/runner.py",
           'rows[:, uv[0].shape[1] * (x_name == "v") + numtext.WIDTH - 1]',
           "rows[:, numtext.WIDTH - 1]",
           ("tests/test_runner_cli.py",)),
    # An FD trace's constant u column holds the requested position, not the
    # cell whose values it writes.
    Mutant("runner_fd_trace_u_requested", "src/slabdiff/runner.py",
           "[(m, at[j], t.points, table[:, j])", "[(m, u, t.points, table[:, j])",
           ("tests/test_runner_cli.py",)),
    # An FD field's constant v column holds the requested time, not the
    # recorded step whose values it writes.
    Mutant("runner_fd_field_v_requested", "src/slabdiff/runner.py",
           "[(m, u, t[i], table[i])", "[(m, u, v, table[i])",
           ("tests/test_runner_cli.py",)),
    # The batch bound is never met: every array renders in one batch, whose
    # cells are held until the run's last file. The bytes do not change.
    Mutant("runner_batch_bound_ignored", "src/slabdiff/runner.py",
           "if size and size + x.size > TEXT_BATCH:",
           "if size and size + x.size > TEXT_BATCH * len(arrays):",
           ("tests/test_runner_cli.py",)),
    # A batch is not dropped when the next one starts: each render holds
    # every earlier batch's arrays again.
    Mutant("runner_batch_kept_alive", "src/slabdiff/runner.py",
           "                batch, reads, size = {}, [], 0",
           "                reads = []",
           ("tests/test_runner_cli.py",)),
    # A table with NaN is written: the finiteness rule is skipped.
    Mutant("runner_finite_check_skipped", "src/slabdiff/runner.py",
           "        if not np.isfinite(table).all():", "        if False:",
           ("tests/test_runner_cli.py",)),
    # run.json records a v_list run's times under v_range.
    Mutant("runner_time_request_key", "src/slabdiff/runner.py",
           '("v_list" if s.v_list else "v_range")', '"v_range"',
           ("tests/test_runner_cli.py",)),
    # A trace file gives its FD curve the requested time count, not its rows.
    Mutant("runner_fd_time_points_requested", "src/slabdiff/runner.py",
           '("fd_time_points", str(len(t)))', '("fd_time_points", str(len(times)))',
           ("tests/test_runner_cli.py",)),
)

_IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info", "out", "results")


def run_tests(tree: Path, tests: tuple[str, ...]) -> tuple[str, float, str]:
    """Run pytest -x on `tests` in `tree`.

    Returns "passed", "failed" or "timeout", the seconds taken, and the
    first failing test's id ("" if none failed).
    """
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-rf", "-p", "no:cacheprovider",
               *tests]
    start = time.perf_counter()
    try:
        result = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True,
                                timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - start, ""
    seconds = time.perf_counter() - start
    if result.returncode not in (0, 1):
        raise SystemExit(f"pytest exited with code {result.returncode} on "
                         f"{' '.join(tests)} in {tree}:\n{result.stdout}{result.stderr}")
    failed = [line.split()[1] for line in result.stdout.splitlines()
              if line.startswith("FAILED ")]
    return ("passed" if result.returncode == 0 else "failed"), seconds, "".join(failed[:1])


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutant(s): {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    bad = 0
    with tempfile.TemporaryDirectory(prefix="slabdiff-mutants-") as scratch:
        clean = Path(scratch) / "clean"
        shutil.copytree(ROOT, clean, ignore=_IGNORE)
        files = tuple(sorted({t for m in chosen for t in m.tests}))
        status, seconds, failed = run_tests(clean, files)
        print(f"{'unmutated':32s} {status:8s} {seconds:7.1f} s  {failed or ' '.join(files)}")
        if status != "passed":
            return 1
        for mutant in chosen:
            source = (clean / mutant.module).read_text()
            if source.count(mutant.original) != 1:
                print(f"{mutant.name:32s} stale: the snippet does not occur exactly once "
                      f"in {mutant.module}")
                bad += 1
                continue
            tree = Path(scratch) / mutant.name
            shutil.copytree(clean, tree)
            (tree / mutant.module).write_text(source.replace(mutant.original, mutant.replacement))
            status, seconds, failed = run_tests(tree, mutant.tests)
            verdict = {"failed": "killed", "passed": "survived"}.get(status, status)
            note = f"by {failed}" if failed else ""
            if verdict == "survived":
                note = f"equivalent: {mutant.equivalent}" if mutant.equivalent else "NO REASON"
                bad += mutant.equivalent is None
            print(f"{mutant.name:32s} {verdict:8s} {seconds:7.1f} s  {note}".rstrip())
            shutil.rmtree(tree)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
