"""Correctness checks on the benchmark's outputs, all run after timing ends.

Besides each workload's own invariants, a seeded sample of programs is
re-solved with scipy's HiGHS on the raw per-class program (no class
merging), assembled here from the package's public ``build_lp``. The
formulation is the benchmark's own copy of the test suite's reference, with
a sparse constraint matrix so the 52,488-class study program stays small.
"""

from __future__ import annotations

import numpy as np

from rulebounds.lp_bounds import build_lp, enumerate_response_types
from rulebounds.model import (
    CANON_INSTRUMENT,
    CANON_OUTCOME,
    CANON_TREATMENT,
    VariableSpec,
    build_reduced_model,
    build_stratum_model,
)
from rulebounds.simulation import observed_model, random_scm
from rulebounds.strategies import (
    StrategyRequest,
    conditioning_bounds,
    reduce_table,
    reduction_bounds,
)
from rulebounds.tables import condition, joint_from_scm, marginalize, reorder, with_variables

TOL = 1e-9          # bounds against truth, against each other, and against scipy
EXACT_TOL = 1e-12   # the same computation on the same numbers


def scipy_lp_bounds(lp):
    """(lower, upper) from HiGHS on the raw per-class program, or None if infeasible."""
    from scipy import optimize, sparse

    n = lp.space.class_count
    rows = lp.n_arms * lp.n_cells
    cols = np.arange(n)
    row_idx = np.concatenate(
        [arm * lp.n_cells + lp.cells[arm] for arm in range(lp.n_arms)] + [np.full(n, rows)]
    )
    col_idx = np.tile(cols, lp.n_arms + 1)
    A = sparse.csr_matrix((np.ones(row_idx.size), (row_idx, col_idx)), shape=(rows + 1, n))
    b = np.concatenate([lp.rhs.ravel(), [1.0]])
    opts = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    lo = optimize.linprog(lp.objective, A_eq=A, b_eq=b, bounds=(0, None), method="highs", options=opts)
    hi = optimize.linprog(-lp.objective, A_eq=A, b_eq=b, bounds=(0, None), method="highs", options=opts)
    if lo.status == 2 or hi.status == 2:
        return None
    if lo.status != 0 or hi.status != 0:
        raise RuntimeError(f"HiGHS failed: status {lo.status}, {hi.status}")
    return float(lo.fun), float(-hi.fun)


def reduced_lp(model, observed, query):
    reduced = build_reduced_model(model)
    table = reduce_table(model, reduced, observed)
    return build_lp(enumerate_response_types(reduced), table, query)


def _canonical(model):
    """Original and canonical names of a stratum table's instrument, treatment and outcome."""
    names, specs = [], []
    if model.instrument is not None:
        names.append(model.instrument.name)
        specs.append(VariableSpec(CANON_INSTRUMENT, model.instrument.cardinality, "instrument"))
    names += [model.treatment.name, model.outcome.name]
    specs += [
        VariableSpec(CANON_TREATMENT, model.treatment.cardinality, "treatment"),
        VariableSpec(CANON_OUTCOME, 2, "outcome"),
    ]
    return names, specs


def stratum_lp(model, observed, query, x):
    """(mass, program) of rule-covariate cell ``x``; the program is None at zero mass."""
    sm = build_stratum_model(model, x)
    table, mass = condition(observed, {v.name: xi for v, xi in zip(model.rule_covariates, x)})
    if mass <= 0.0:
        return 0.0, None
    names, specs = _canonical(model)
    lp = build_lp(
        enumerate_response_types(sm),
        with_variables(reorder(table, names), specs),
        query,
        level=sm.assigned,
        guideline_level=sm.assigned_guideline,
    )
    return mass, lp


def interval_close(got, want, tol=TOL) -> bool:
    return abs(got[0] - want[0]) <= tol and abs(got[1] - want[1]) <= tol


def contains(outer, inner, tol=TOL) -> bool:
    return inner[0] >= outer[0] - tol and inner[1] <= outer[1] + tol


def scipy_conditioning(model, observed, query):
    """Weight-summed HiGHS stratum bounds."""
    lower = upper = 0.0
    for x in model.rule_domain():
        mass, lp = stratum_lp(model, observed, query, x)
        if lp is None:
            continue
        ref = scipy_lp_bounds(lp)
        if ref is None:
            raise RuntimeError("HiGHS finds a stratum program infeasible")
        lower += mass * ref[0]
        upper += mass * ref[1]
    return lower, upper


# -- per-workload checks; each returns a list of problems, empty if correct --


def check_study(config, out: dict, with_scipy: bool) -> list:
    problems = []
    truth = out["truth"]
    res = out["results"]
    for name in ("reduction", "conditioning"):
        r = res.get(name, {"error": "missing"})
        if "error" in r:
            problems.append(f"replication {out['index']}: {name} anomaly: {r['error']}")
        elif not r["lower"] - TOL <= truth <= r["upper"] + TOL:
            problems.append(
                f"replication {out['index']}: truth {truth!r} outside {name} "
                f"[{r['lower']!r}, {r['upper']!r}]"
            )
    if problems:
        return problems
    red = (res["reduction"]["lower"], res["reduction"]["upper"])
    cond = (res["conditioning"]["lower"], res["conditioning"]["upper"])
    if not contains(red, cond):
        problems.append(f"replication {out['index']}: conditioning {cond} not inside reduction {red}")
    if with_scipy:
        model = observed_model(config)
        scm = random_scm(config, out["index"])
        observed = marginalize(joint_from_scm(scm), [v.name for v in model.variables])
        problems += compare_with_scipy(model, observed, config.query, red, cond, f"replication {out['index']}")
    return problems


def compare_with_scipy(model, observed, query, red, cond, label) -> list:
    problems = []
    ref = scipy_lp_bounds(reduced_lp(model, observed, query))
    if ref is None or not interval_close(red, ref):
        problems.append(f"{label}: reduction {red} differs from HiGHS {ref}")
    ref = scipy_conditioning(model, observed, query)
    if not interval_close(cond, ref):
        problems.append(f"{label}: conditioning {cond} differs from HiGHS {ref}")
    return problems


def check_strata(request, out: dict, sample: list) -> list:
    """``sample`` lists the stratum indices to re-solve with HiGHS."""
    label = f"request {out['request']}"
    if "error" in out:
        return [f"{label}: {out['error']}"]
    problems = []
    red, cond = out["reduction"], out["conditioning"]
    if not contains(red, cond):
        problems.append(f"{label}: conditioning {cond} not inside reduction {red}")
    lower = upper = 0.0
    for weight, lo, hi, skipped in out["strata"]:
        if not skipped:
            lower += weight * lo
            upper += weight * hi
    if not interval_close(cond, (lower, upper), EXACT_TOL):
        problems.append(f"{label}: conditioning {cond} is not the weight-sum {(lower, upper)} of its strata")
    model, observed, query = request.model, request.observed, request.query
    ref = scipy_lp_bounds(reduced_lp(model, observed, query))
    if ref is None or not interval_close(red, ref):
        problems.append(f"{label}: reduction {red} differs from HiGHS {ref}")
    domain = list(model.rule_domain())
    for i in sample:
        _, lp = stratum_lp(model, observed, query, domain[i])
        if lp is None:
            continue
        ref = scipy_lp_bounds(lp)
        got = out["strata"][i][1:3]
        if ref is None or not interval_close(got, ref):
            problems.append(f"{label}: stratum {domain[i]} {got} differs from HiGHS {ref}")
    return problems


def expected_intervals(model, observed, query) -> dict:
    """Both strategies in-process, plus HiGHS references for them."""
    request = StrategyRequest(model, observed, query)
    red = reduction_bounds(request)
    cond = conditioning_bounds(request)
    red_i, cond_i = (red.lower, red.upper), (cond.lower, cond.upper)
    return {
        "reduction": red_i,
        "conditioning": cond_i,
        "scipy_problems": compare_with_scipy(model, observed, query, red_i, cond_i, "in-process"),
    }


def _interval(res: dict):
    return res["lower"], res["upper"]


def check_bounds_report(report: dict, expected: dict, rows: int) -> list:
    problems = list(expected["scipy_problems"])
    if report["data"]["n_records"] != rows:
        problems.append(f"n_records {report['data']['n_records']} != {rows} rows written")
    for name in ("reduction", "conditioning"):
        got = _interval(report["results"][name])
        if not interval_close(got, expected[name], EXACT_TOL):
            problems.append(f"{name} {got} differs from the in-process {expected[name]}")
    return problems


def check_compare_report(report: dict, expected: dict, rows: int) -> list:
    problems = list(expected["scipy_problems"])
    comp = report["comparison"]
    if report["data"]["n_records"] != rows:
        problems.append(f"n_records {report['data']['n_records']} != {rows} rows written")
    if comp["oracle"] is None:
        problems.append(f"oracle did not run: {comp['oracle_note']}")
    if comp["containment_ok"] is not True:
        problems.append("containment_ok is not true")
    if comp["oracle_matches_conditioning"] is not True:
        problems.append("oracle_matches_conditioning is not true")
    for name in ("reduction", "conditioning"):
        got = _interval(comp[name])
        if not interval_close(got, expected[name], EXACT_TOL):
            problems.append(f"{name} {got} differs from the in-process {expected[name]}")
    return problems
