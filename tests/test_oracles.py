"""Every exported name of the package, mapped to the test that holds its oracle.

Each entry names one test (``module::function``), or a list of them, and says
what that test checks the name against and how closely.  A report or
configuration type maps to the test that checks the values it carries.  The
registry fails when an export has no entry, when an entry names no export, or
when the test it names is gone.
"""

import ast
from pathlib import Path

import pytest

import rispaces

TESTS = Path(__file__).parent

ORACLES = {
    # stepfn
    "StepFunction": ("test_stepfn::test_exact_operations_match_tuple_oracle",
                     "a tuple-of-Fractions implementation; exact equality"),
    "quantile_from_samples": [("test_stepfn::test_quantile_reproduces_discrete_rearrangement",
                               "the rearrangement of an enumerated law; exact equality"),
                              ("test_norms::test_fundamental_function_sandwich",
                               "Marcinkiewicz <= Lpq <= Lorentz of one fundamental function "
                               "on quantile functions of rademacher, signed:0.25 and gauss "
                               "sums; rel 1e-12")],
    # gaussian
    "upper_tail": [("test_generators::test_upper_tail_is_the_two_sided_gaussian_tail",
                    "mpmath erfc at 50 digits; rel 1e-14"),
                   ("test_generators::test_erfc_and_erfcinv_are_scipys_bit_for_bit",
                    "scipy.special.erfc on every Cephes branch and the lattice edges; "
                    "bit-equal")],
    "erfc_inverse": [("test_generators::test_gauss_matches_quantile_integral",
                      "its quadrature integral is the closed form of gauss(); abs 1e-10"),
                     ("test_generators::test_erfc_and_erfcinv_are_scipys_bit_for_bit",
                      "scipy.special.erfcinv, its unpolished seed, on every ndtri branch; "
                      "bit-equal")],
    "erfc_inverse_log": [("test_generators::test_gaussian_inverses_match_plain_expressions",
                          "the plain array expressions, across the -667 switch; bit-equal"),
                         ("test_generators::test_erfc_inverse_log_matches_mpmath",
                          "mpmath at 40 digits, the log residual over d ln erfc / dx, on "
                          "1,200 points across the -667 switch down to -1e300; rel 1e-13")],
    # generators
    "ConcaveGenerator": ("test_generators::test_evaluations_keep_scalars_and_shapes",
                         "scalar and array evaluations agree; rel 1e-15, shapes kept"),
    "power": ("test_generators::test_power_values",
              "t^a and a log t in closed form; abs 1e-15 and 1e-12"),
    "logpow": ("test_generators::test_logpow_values", "t log(e/t)^(1/p) in closed form; rel 1e-14"),
    "inv_sqrt_log": ("test_generators::test_inv_sqrt_log_values",
                     "log(1/t)^(-1/2) in closed form, also at log t = -1e6; rel 1e-13, 1e-12"),
    "gauss": ("test_generators::test_gauss_matches_quantile_integral",
              "quadrature of the Gaussian quantile; abs 1e-10"),
    "table": ("test_generators::test_table_generator",
              "linear interpolation by hand, log-linear below the first node; rel 1e-14"),
    "table_from_csv": ("test_generators::test_table_csv_round_trip",
                       "the interpolated value of the nodes written; rel 1e-14"),
    "parse_generator": ("test_generators::test_parse_generator_tokens",
                        "closed-form values of each token's generator; pytest.approx"),
    "LimitEstimate": ("test_generators::test_dilation_ratio_power",
                      "the limit k^a of psi(ku)/psi(u) for psi = t^a; abs 1e-9"),
    "limsup_dilation_ratio": ("test_generators::test_dilation_ratio_power",
                              "the limit k^a for psi = t^a; abs 1e-9"),
    "limsup_power_ratio": ("test_generators::test_power_ratio",
                           "the limit l^(-1/2) for inv_sqrt_log; abs 1e-6"),
    "limsup_tail_sum_ratio": ("test_generators::test_tail_sum_ratio",
                              "the limits n for t and sqrt(n) for sqrt(t); abs 1e-9, 1e-6"),
    # walks
    "EXACT_MAX_STEPS": ("test_walks::test_walk_distribution_matches_binomial_fold",
                        "every exact walk law up to the cap; exact equality"),
    "walk_distribution": ("test_walks::test_walk_distribution_matches_binomial_fold",
                          "binomial atoms folded by |k - 2j|; exact equality"),
    "walk_abs_layers": [("test_walks::test_walk_layers_consistent_with_tails",
                         "logs of the binomial-fold tails at k = 12; rel 1e-12"),
                        ("test_walks::test_walk_layers_match_running_binomial",
                         "40-digit running-binomial tails at k = 1000 and 4096; "
                         "abs 2e-12 and 1e-11 times max(1, |log-tail|)"),
                        ("test_walks::test_walk_layers_hold_unit_mass",
                         "P(|W_k| >= 1) = 1 at odd k to 2^20; abs 1.2e-11, 3e-10 and 6e-9 "
                         "to 4097, 2^16 and 2^20; the even k's last layer (0, 0) exactly")],
    "signed_indicator_sum_tail": ("test_walks::test_signed_sum_tails_match_enumeration",
                                  "enumeration of all sign patterns; exact equality"),
    "signed_indicator_sum_log_tails": [("test_walks::test_log_tails_match_exact_law",
                                        "logs of the exact law; abs 1e-12"),
                                       ("test_walks::test_log_tails_give_the_second_moment",
                                        "E S_n^2 = n u at n up to 4096; rel 1e-12")],
    "signed_indicator_sum_expectation": ("test_walks::test_expectation_exact_small",
                                         "the sum of the polynomial-expansion tails, "
                                         "n <= 64; exact equality"),
    # norms
    "Lorentz": [("test_norms::test_lorentz_indicator_closed_form",
                 "psi(u); rel 1e-13, and (1 + |ln u|) 2^-52 for u down to 2^-1074"),
                ("test_norms::test_fundamental_function_sandwich",
                 "lorentz:power:a at least lpq:(1/a):q for 1 <= q <= 1/a, on walk laws of "
                 "2^10 to 2^16 steps, fuzzed step files and quantile functions; rel 1e-12")],
    "Marcinkiewicz": [("test_norms::test_marcinkiewicz_indicator_closed_form",
                       "u / phi(u); rel 1e-12, and (1 + |ln u|) 2^-52 for u down to 2^-1074 "
                       "and for values whose integral is subnormal"),
                      ("test_norms::test_fundamental_function_sandwich",
                       "marcinkiewicz:power:(1-a) at most lpq:(1/a):q for 1 <= q <= 1/a, on "
                       "walk laws of 2^10 to 2^16 steps, fuzzed step files and quantile functions; "
                       "rel 1e-12")],
    "Orlicz": ("test_norms::test_orlicz_indicator_closed_form",
               "log1p(1/u)^(-1/p); rel 1e-10, and 4 2^-52 for u down to 2^-1074"),
    "Lpq": [("test_norms::test_lpq_indicator_closed_form",
             "u^(1/p); rel 1e-12, and (1 + |ln u|) 2^-52 for u down to 2^-1074"),
            ("test_walks::test_two_cores_price_the_walk_alike",
             "lpq:2:1 against lorentz:power:0.5 on walk laws to 2^20 steps; rel 1e-14"),
            ("test_norms::test_lpq_norm_does_not_increase_in_q",
             "lpq:P:q falls as q runs from 1 to 16, P in {4/3, 2, 4}, on walk laws of "
             "2^10 to 2^16 steps, fuzzed step files and quantile functions; rel 1e-12")],
    "SpaceSpec": ("test_norms::test_three_route_agreement_on_walk_laws",
                  "exact, float and layered routes agree in all four families; rel 1e-9"),
    "exp_lp": ("test_norms::test_orlicz_root_modular_residual_in_high_precision",
               "the modular at the norm, in 50-digit arithmetic; |modular - 1| <= 1e-12"),
    "space_norm": ("test_norms::test_lorentz_two_step_closed_form",
                   "the Stieltjes sum by hand; rel 1e-13"),
    "space_norm_from_layers": [("test_norms::test_three_route_agreement_on_walk_laws",
                                "the exact-law route; rel 1e-9"),
                               ("test_norms::test_two_cores_price_the_sandwich_laws_alike",
                                "lpq:P:1 against lorentz:power:1/P, P in {4/3, 2, 4}, on walk "
                                "laws, fuzzed step files and quantile functions; "
                                "rel 1e-14 + (1 + |ln N|) 2^-51")],
    "parse_space": ("test_cli::test_space_labels",
                    "the label of each family's token, parsed back to the same label; equality"),
    # dichotomy
    "DichotomyReport": ("test_dichotomy::test_classify_power_half",
                        "q in closed form, C from its formula; abs 1e-9, rel 1e-12"),
    "KruglovVerdict": ("test_dichotomy::test_kruglov_check_matches_full_array_oracle",
                       "the full-array walk; equal repr"),
    "indicator_ratio": ("test_dichotomy::test_indicator_ratio_anchors",
                        "closed forms at n = 1, 2; rel 1e-13"),
    "sup_indicator_ratio": [("test_dichotomy::test_sup_ratio_frozen_value",
                             "a recorded value; abs 1e-9"),
                            ("test_dichotomy::test_sup_ratio_lies_in_an_independent_bracket",
                             "a branch-and-bound bracket on the binomial mixture of exact walk "
                             "tails over u in [2^-40, 1], power:0.5 and invsqrtlog to n = 64; "
                             "rel 1e-12 below, the bracket's delta 1e-6 above"),
                            ("test_dichotomy::test_sup_ratio_grid_is_deep_enough",
                             "the j_max = 60 value for power:0.9 at n = 4, 32, 512; "
                             "bit-equal, and above the u -> 0 limit n^-0.1 by rel 4e-6")],
    "lorentz_operator_norm": [("test_dichotomy::test_operator_norm_closed_form_n2",
                               "sqrt(8/3) for sqrt(t) at n = 2; abs 1e-9"),
                              ("test_dichotomy::test_sup_ratio_lies_in_an_independent_bracket",
                               "n times the same bracket; rel 1e-12 below, delta 1e-6 above"),
                              ("test_dichotomy::test_operator_norms_obey_the_semigroup_relations",
                               "non-decreasing, subadditive, submultiplicative and at most n, "
                               "for power:0.5, logpow:2 and invsqrtlog at 16 n to 512; "
                               "rel 1e-12")],
    "classify": [("test_dichotomy::test_classify_power_half",
                  "q in closed form, C from its formula; abs 1e-9, rel 1e-12"),
                 ("test_dichotomy::test_classify_certificate_bounds_the_operator_norm",
                  "C n^q bounds the measured ||A_n|| at n = 128 and 512 for power:0.5, "
                  "logpow:2 and invsqrtlog; no slack")],
    "kruglov_check": ("test_dichotomy::test_kruglov_check_matches_full_array_oracle",
                      "the full-array walk; equal repr"),
    # experiments
    "SamplerSpec": [("test_experiments::test_parse_sampler", "the fields of each token; equality"),
                    ("test_experiments::test_sign_draws_match_numpy_samplers",
                     "rademacher and signed_indicator: NumPy's own sampler on the same stream; "
                     "bit-equal"),
                    ("test_experiments::test_draw_distributions_match_laws",
                     "gaussian: unit standard deviation; abs 0.01 over 2e5 draws"),
                    ("test_experiments::test_mc_custom_two_atom_law_matches_rademacher",
                     "custom [-1, 1]: the exact Rademacher norm; 3 standard errors")],
    "parse_sampler": ("test_experiments::test_parse_sampler",
                      "the fields of each token; equality"),
    "rademacher_sum_norm": [("test_experiments::test_rademacher_sum_norm_small_is_exact_law_norm",
                             "the exact walk law priced directly; rel 1e-12"),
                            ("test_walks::test_walk_norms_match_running_binomial",
                             "lorentz:power:0.5 and lpq:2:1 of 40-digit running-binomial "
                             "tails at k = 1000 and 4096; rel 1e-12 and 5e-12"),
                            ("test_walks::test_walk_norms_match_the_moments",
                             "lpq:2:2 and lpq:4:4 against the walk's second and fourth "
                             "moments to 2^20 steps; rel 1e-11 to 2^12, 1e-9 above")],
    "mc_iid_sum_norm": ("test_experiments::test_mc_matches_exact_within_three_standard_errors",
                        "the exact walk-law norm; 3 standard errors"),
    "gaussian_selfsimilarity_check": ("test_experiments::test_selfsimilarity_ratio_is_sqrt_n",
                                      "sqrt(n); rel 1e-3"),
    "GrowthFit": ("test_experiments::test_fit_growth_recovers_synthetic_power_law",
                  "the exponent and constant of 3 n^0.7; abs 1e-12, rel 1e-12"),
    "fit_growth": ("test_experiments::test_fit_growth_recovers_synthetic_power_law",
                   "the exponent and constant of 3 n^0.7; abs 1e-12, rel 1e-12"),
    "growth_table": ("test_experiments::test_growth_table_exact_sqrt_scale",
                     "q = 1/2 for the exp(L_1) companion scale; abs 0.05"),
    "gamma_iid_endpoint": ("test_experiments::test_growth_table_exact_sqrt_scale",
                           "1/q = 2; abs 0.1"),
}


def _test_functions(module: str) -> set:
    tree = ast.parse((TESTS / f"{module}.py").read_text())
    return {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}


def test_every_export_has_an_oracle():
    assert sorted(set(rispaces.__all__) - set(ORACLES)) == []
    assert sorted(set(ORACLES) - set(rispaces.__all__)) == []


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_oracle_test_exists(name):
    entries = ORACLES[name]  # one (test, description) pair, or a list of them
    for target, description in entries if isinstance(entries, list) else [entries]:
        module, _, function = target.partition("::")
        assert function.startswith("test_") and description
        assert function in _test_functions(module), f"{name}: {target} is not a test"
