"""Construction helpers and independent oracles shared by the test modules."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import replace

import numpy as np

from didmiss import Estimate, IvDiagnostics, PanelDataset, RateTable, trimmed_mean
from didmiss.bounds import _bound_result
from didmiss.common import EPS_DENOM, finite
from didmiss.errors import DidMissError, EstimatorError, InputError
from didmiss.estimators import _complete_case
from didmiss.panel import GroupCounts, GroupKey
from didmiss.simulate import (
    _AR,
    _ICR,
    _ITR,
    _NR,
    DECOMPOSITION_LABELS,
    STRATUM_LABELS,
    STRATUM_PAIRS,
    AttDecomposition,
    Cell,
    DgpSpec,
    OracleInput,
    OraclePanel,
    OracleTruth,
    R1Model,
    TrendMixtureReport,
    _checked,
    _pattern_index,
)


#: An oracle table that loads: every value is finite, but the first unit's
#: untreated change y2_0 - y1_true overflows.
OVERFLOWING_ORACLE = (
    "id,d,y1,y2,s,y1_true,y2_1,y2_0\r\n"
    "1,1,-1.7e308,1.7e308,AR,-1.7e308,1.7e308,1.7e308\r\n"
    "2,1,0.5,2.5,AR,0.5,2.5,1.5\r\n"
    "3,0,0.2,1.1,AR,0.2,2.1,1.1\r\n"
    "4,0,0.4,1.3,AR,0.4,2.3,1.3\r\n"
)


def _panel_csv(y1: str, rows: list[tuple[int, str]]) -> str:
    return "id,d,y1,y2\n" + "".join(f"{i},{d},{y1},{y2}\n" for i, (d, y2) in enumerate(rows, 1))


#: Near-tied complete-case changes: the treated arm's bottom trimmed mean
#: (keep 20/21) rounds one step above its top one in monotone mode.
TIED_TRIM_CSV = _panel_csv(
    "0",
    [(1, "0.1")] + [(1, "0.10000000000000002")] * 5 + [(1, "NA")] * 2
    + [(0, "0")] * 5 + [(0, "NA")] * 2,
)

#: The full sample trims nothing, but a resample of ``bootstrap_bounds``
#: with seed 2 meets the same near tie.
TIED_RESAMPLE_CSV = _panel_csv(
    "0.0",
    [(1, "0.3333333333333333")] * 10 + [(1, "NA")] * 4
    + [(0, repr(0.05 * k)) for k in range(12)] + [(0, "NA")] * 2,
)


def make_panel(
    d,
    y1,
    y2,
    aux=None,
    x=None,
    outcome_support=None,
    unit_ids=None,
) -> PanelDataset:
    """Build a PanelDataset from plain Python sequences (NaN marks missing)."""
    return PanelDataset(
        d=np.asarray(d, dtype=np.int8),
        y1=np.asarray(y1, dtype=np.float64),
        y2=np.asarray(y2, dtype=np.float64),
        aux=None if aux is None else np.asarray(aux, dtype=np.int8),
        x=None if x is None else np.asarray(x, dtype=np.int64),
        unit_ids=unit_ids,
        outcome_support=outcome_support,
    )


def brute_trimmed_mean(values, keep: float, side: str) -> float:
    """Independent fractional trimmed mean: explicit per-value weights.

    The i-th most extreme value receives weight min(1, max(0, keep*n - i));
    the result is the weighted mean. Shares no code with the library
    implementation (weights-vector formulation vs. partial-sum formulation).
    """
    v = np.sort(np.asarray(values, dtype=np.float64), kind="stable")
    if side == "top":
        v = v[::-1]
    t = keep * v.size
    w = np.clip(t - np.arange(v.size, dtype=np.float64), 0.0, 1.0)
    return float(np.dot(w, v) / t)


def reference_trimmed_sorted(v: np.ndarray, keep: float, side: str) -> float:
    """``trimmed_mean`` with keep < 1 of the values ``v``, sorted ascending:
    the one-copy trimming formula as it stood before the count kernel took
    it over, kept to pin that kernel's bits."""
    if side == "top":
        v = v[::-1]
    t = keep * v.size
    k = int(np.floor(t))
    frac = t - k
    total = float(v[:k].sum())
    if frac > 0.0 and k < v.size:
        total += frac * float(v[k])
    return total / t


def block_panel(blocks, aux_width: int = 0, outcome_support=None) -> PanelDataset:
    """Expand (count, d, y1, y2[, aux...]) blocks into a PanelDataset.

    Each block repeats a row ``count`` times; y1/y2 may be None for missing.
    Useful for building exact-count fixtures whose rates are round fractions.
    """
    d, y1, y2, aux = [], [], [], []
    for block in blocks:
        count, arm, a, b = block[0], block[1], block[2], block[3]
        rest = list(block[4:]) + [0] * (aux_width - (len(block) - 4))
        for _ in range(count):
            d.append(arm)
            y1.append(np.nan if a is None else a)
            y2.append(np.nan if b is None else b)
            aux.append(rest[:aux_width])
    return make_panel(
        d,
        y1,
        y2,
        aux=aux if aux_width else None,
        outcome_support=outcome_support,
    )


def reference_read_table(text: str, what: str) -> dict[str, tuple[str, ...]]:
    """The CSV reader as one whole-table transposition: every row held at once.

    Lines end at CR, CRLF or LF, as they do in a file opened with ``newline=""``.
    """
    try:
        rows = list(filter(None, csv.reader(io.StringIO(text, newline=""))))
    except csv.Error as exc:
        raise InputError(f"malformed CSV: {exc}") from exc
    if not rows:
        raise InputError(f"empty {what}")
    header = [cell.strip() for cell in rows[0]]
    if len(set(header)) != len(header):
        raise InputError("malformed CSV: duplicate column names in header")
    if len(set(map(len, rows))) > 1:
        i = next(i for i, row in enumerate(rows) if len(row) != len(header))
        raise InputError(
            f"malformed CSV: row {i + 1} has {len(rows[i])} cells, header has {len(header)}"
        )
    return dict(zip(header, list(zip(*rows[1:])) or [()] * len(header)))


def reference_write_table(header, columns) -> str:
    """A table as ``csv.writer`` writes it: whole columns, floats by repr, NaN as NA."""

    def cells(column):
        values = column.tolist() if isinstance(column, np.ndarray) else list(column)
        return ["NA" if isinstance(v, float) and math.isnan(v) else v for v in values]

    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(zip(*map(cells, columns)))
    return buffer.getvalue()


def reference_att_ar_bounds(data: PanelDataset, mode: str):
    """``att_ar_bounds`` sorting an arm's changes again for each trimmed mean."""
    groups = GroupKey(data)
    deltas = [groups.dy[data.complete_case & (data.d == d)] for d in (0, 1)]
    return _bound_result(
        groups.counts().arms,
        lambda d, keep, side: trimmed_mean(deltas[d], keep, side),
        mode,
        data.outcome_support,
    )


def repr_or_error(fn, *args) -> str:
    """repr of ``fn(*args)`` (every float to the bit), or the DidMissError it raised."""
    try:
        return repr(fn(*args))
    except DidMissError as exc:
        return f"{type(exc).__name__}: {exc}"


def reference_rate_table(arms: np.ndarray, aux_counts=()) -> RateTable:
    """``panel._rate_table`` with a numpy reduction or scalar index per figure."""
    n, p_r1, p_r2, p_cond, p_aux = [], [], [], [], []
    for d in (0, 1):
        n_d = arms[d].sum().item()
        if n_d == 0:
            raise InputError("single-arm dataset: both treated and control units are required")
        n_r1 = arms[d, 1].sum().item()
        n.append(n_d)
        p_r1.append(n_r1 / n_d)
        p_r2.append(arms[d, :, 1].sum().item() / n_d)
        p_cond.append(arms[d, 1, 1].item() / n_r1 if n_r1 > 0 else None)
        per_k = []
        for counts in aux_counts:
            levels = []
            for v in (0, 1):
                n_cell = counts[d, 1, :, v].sum().item()
                levels.append(counts[d, 1, 1, v].item() / n_cell if n_cell > 0 else None)
            per_k.append((levels[0], levels[1]))
        p_aux.append(tuple(per_k))
    return RateTable(
        n=(n[0], n[1]),
        p_r1=(p_r1[0], p_r1[1]),
        p_r2=(p_r2[0], p_r2[1]),
        p_r2_given_r1=(p_cond[0], p_cond[1]),
        p_r2_given_aux=(p_aux[0], p_aux[1]),
    )


def reference_instrument_gap(n: np.ndarray, s: np.ndarray, d: int) -> tuple[float, float]:
    """``iv._instrument_gap`` with a numpy reduction or scalar index per figure."""
    means, q = [], []
    for v in (0, 1):
        n_cc = float(n[d, 1, 1, v])
        if n_cc == 0:
            raise EstimatorError(f"empty instrument cell (arm {d}, aux={v}): no complete cases")
        means.append(float(s[d, 1, 1, v]) / n_cc)
        q.append(1.0 - n_cc / float(n[d, 1, :, v].sum()))
    return means[1] - means[0], q[0] - q[1]


def reference_level_base(n: np.ndarray, s: np.ndarray, d: int) -> float:
    """``iv._level_base`` with numpy reductions over the occupied levels."""
    weights = n[d, 1].sum(axis=0).reshape(-1)
    complete = n[d, 1, 1].reshape(-1)
    occupied = weights != 0
    empty = np.flatnonzero(occupied & (complete == 0))
    if empty.size:
        levels = tuple(int(v) for v in np.unravel_index(empty[0], n.shape[3:]))
        raise EstimatorError(
            f"empty instrument cell (arm {d}, aux levels {levels}): "
            "first-wave respondents but no complete cases"
        )
    means = s[d, 1, 1].reshape(-1)[occupied] / complete[occupied]
    return float((weights[occupied] * means).sum()) / float(weights[occupied].sum())


def reference_corrected(c: GroupCounts, arm_gap) -> tuple[Estimate, IvDiagnostics]:
    """``iv._iv_counts``, and the complete-case DID inside it, with a numpy
    reduction or scalar index per figure."""
    arms = c.arms
    for d in (1, 0):
        if arms[d, 1, 1] == 0:
            raise EstimatorError(f"no complete cases in arm {d}")
    means = [float(c.cc_sum[d]) / float(arms[d, 1, 1]) for d in (0, 1)]
    cc = finite(means[1] - means[0], "the complete-case DID")
    share = [float(arms[d, :, 0].sum()) / float(arms[d].sum()) for d in (0, 1)]
    denom, corr, gap = [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]
    for d in (0, 1):
        if share[d] == 0.0:
            continue
        gap[d], denom[d] = arm_gap(d)
        if abs(denom[d]) < EPS_DENOM:
            raise EstimatorError(f"weak instrument in arm {d}")
        base = reference_level_base(c.n[0], c.s[0], d)
        corr[d] = (base - means[d]) + gap[d] / denom[d] * share[d]
    notes = ("estimand: ATT among first-wave respondents (R1 = 1)",) if arms[:, 0].any() else ()
    est = Estimate(
        point=finite(cc + corr[1] - corr[0], "the instrumented DID"),
        n_used=int(arms[1, 1, 1] + arms[0, 1, 1]),
        notes=notes,
    )
    diag = IvDiagnostics(
        denom=(denom[0], denom[1]),
        missing_share=(share[0], share[1]),
        bias_correction=(-corr[0], corr[1]),
        trend_gap=(gap[0], gap[1]),
    )
    return est, diag


def reference_factorize(x: np.ndarray):
    """``panel._factorize`` re-ranking every column, the first one included."""
    index = np.zeros(x.shape[0], dtype=np.intp)
    for column in x.T:
        _, level = np.unique(column, return_inverse=True)
        _, first, index = np.unique(
            index * (int(level.max()) + 1) + level, return_index=True, return_inverse=True
        )
    return tuple(tuple(row) for row in x[first].tolist()), index.reshape(-1)


# -- the simulator and the oracle identities as one pass per unit group --------


def reference_simulate_panel(spec: DgpSpec) -> tuple[PanelDataset, OraclePanel, OracleTruth]:
    """``simulate_panel`` with per-unit masked searchsorted and gathers."""
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    cells = spec.cells()
    n_cells = len(cells)

    d = (rng.random(n) < spec.arm_share(1)).astype(np.int8)
    n_treated = int(d.sum())
    if not 0 < n_treated < n:
        empty = "treated" if n_treated == 0 else "control"
        raise InputError(
            f"a draw of n={n} units has no {empty} unit; both arms are required "
            "(use a larger n or another seed)"
        )
    d_idx = d.astype(np.intp)

    shares = np.array([[c.share[arm] for c in cells] for arm in (0, 1)], dtype=np.float64)
    cum_shares = np.cumsum(shares, axis=1)
    u_cell = rng.random(n)
    cell_idx = np.empty(n, dtype=np.intp)
    for arm in (0, 1):
        mask = d == arm
        cell_idx[mask] = np.searchsorted(cum_shares[arm], u_cell[mask], side="right")
    np.minimum(cell_idx, n_cells - 1, out=cell_idx)

    strata = np.array([[c.strata[arm] for arm in (0, 1)] for c in cells], dtype=np.float64)
    cum_strata = np.cumsum(strata, axis=2)
    u_strat = rng.random(n)
    s = (u_strat[:, None] >= cum_strata[cell_idx, d_idx]).sum(axis=1)
    s = np.minimum(s, 3).astype(np.int8)
    s_idx = s.astype(np.intp)

    eps1 = rng.normal(0.0, spec.noise_sd, n)
    eps2 = rng.normal(0.0, spec.noise_sd, n)

    base = np.array(spec.baseline, dtype=np.float64)  # (4, 2) indexed [s][d]
    base_shift = np.array([c.baseline_shift for c in cells], dtype=np.float64)
    y1 = base[s_idx, d_idx] + base_shift[cell_idx, d_idx] + eps1

    trend = np.array(spec.trend, dtype=np.float64)[s_idx]
    trend = trend + np.array([c.trend_shift for c in cells], dtype=np.float64)[cell_idx, d_idx]
    trend = trend + np.array(spec.arm_trend_delta, dtype=np.float64)[s_idx] * (d == 1)
    y2_0 = y1 + trend + eps2
    effect = np.array(spec.effect, dtype=np.float64)[s_idx]
    effect = effect + np.array([c.effect_shift for c in cells], dtype=np.float64)[cell_idx]
    y2_1 = y2_0 + effect

    r2_1 = np.array([pair[0] for pair in STRATUM_PAIRS], dtype=np.int8)[s_idx]
    r2_0 = np.array([pair[1] for pair in STRATUM_PAIRS], dtype=np.int8)[s_idx]

    if spec.r1_model.kind == "mcar":
        r1 = (rng.random(n) < spec.r1_model.rate).astype(np.int8)
    else:
        r1 = np.ones(n, dtype=np.int8)

    aux = np.zeros((n, len(spec.aux_models)), dtype=np.int8)
    pattern_values = [
        np.array([c.aux_pattern[j] for c in cells], dtype=np.int8)
        for j in range(0 if not cells[0].aux_pattern else len(cells[0].aux_pattern))
    ]
    pattern_slot = 0
    for k, model in enumerate(spec.aux_models):
        if model.kind == "independent":
            aux[:, k] = rng.random(n) < model.p
        else:
            aux[:, k] = pattern_values[pattern_slot][cell_idx]
            pattern_slot += 1

    if cells[0].x_label is not None:
        labels = np.array([c.x_label for c in cells], dtype=np.int64)
        x = labels[cell_idx].reshape(n, 1)
    else:
        x = None

    r2 = np.where(d == 1, r2_1, r2_0)
    y2_obs = np.where(r2.astype(bool), np.where(d == 1, y2_1, y2_0), np.nan)
    y1_obs = np.where(r1.astype(bool), y1, np.nan)

    data = PanelDataset(
        d=d,
        y1=y1_obs,
        y2=y2_obs,
        aux=aux,
        x=None if x is None else x.copy(),
        _validate=False,  # well-formed by construction; both arms checked above
    )
    oracle = OraclePanel(
        d=d.copy(),
        y1=y1_obs.copy(),
        y2=y2_obs.copy(),
        aux=aux.copy(),
        x=x,
        s=s,
        y1_true=y1,
        y2_1=y2_1,
        y2_0=y2_0,
    )

    treated = d == 1
    att = float(np.mean(y2_1[treated] - y2_0[treated]))
    ar_treated = treated & (s == _AR)
    att_ar = (
        float(np.mean(y2_1[ar_treated] - y2_0[ar_treated])) if ar_treated.any() else math.nan
    )
    att_population, att_ar_population, cc_population = spec._population
    pi_table = tuple(
        {STRATUM_PAIRS[code]: spec.pi(arm)[code] for code in range(4)} for arm in (0, 1)
    )
    truth = OracleTruth(
        att=att,
        att_ar=att_ar,
        pi_table=pi_table,
        cc_bias=cc_population - att_population,
        att_population=att_population,
        att_ar_population=att_ar_population,
        cc_population=cc_population,
    )
    return data, oracle, truth


def reference_decompose_att(records: OracleInput) -> AttDecomposition:
    """``decompose_att`` with one boolean-mask pass per group."""
    oracle, _, _ = _checked(records)
    d = oracle.d
    s = oracle.s
    treated = d == 1
    control = ~treated
    n1 = int(treated.sum())
    if n1 == 0 or int(control.sum()) == 0:
        raise EstimatorError("decomposition requires units in both arms")

    shares = {
        STRATUM_PAIRS[code]: float((treated & (s == code)).sum()) / n1 for code in range(4)
    }
    delta0 = oracle.y2_0 - oracle.y1_true  # untreated change, all units
    direct = oracle.y2_1 - oracle.y2_0

    responds_if_treated = (s == _AR) | (s == _ITR)
    term1 = float(np.mean((oracle.y2_1 - oracle.y1_true)[treated] * responds_if_treated[treated]))

    def _stratum_mean(values: np.ndarray, mask: np.ndarray, code: int, role: str) -> float:
        group = mask & (s == code)
        if not group.any():
            raise EstimatorError(
                f"no {role} units in stratum {STRATUM_LABELS[code]}: "
                "its decomposition term is undefined"
            )
        return float(values[group].mean())

    terms = [term1, 0.0, 0.0, 0.0, 0.0]
    if shares[STRATUM_PAIRS[_AR]] > 0:
        terms[1] = -shares[STRATUM_PAIRS[_AR]] * _stratum_mean(delta0, control, _AR, "control")
    if shares[STRATUM_PAIRS[_ITR]] > 0:
        terms[2] = -shares[STRATUM_PAIRS[_ITR]] * _stratum_mean(delta0, control, _ITR, "control")
    if shares[STRATUM_PAIRS[_NR]] > 0:
        terms[3] = shares[STRATUM_PAIRS[_NR]] * _stratum_mean(direct, treated, _NR, "treated")
    if shares[STRATUM_PAIRS[_ICR]] > 0:
        terms[4] = shares[STRATUM_PAIRS[_ICR]] * _stratum_mean(direct, treated, _ICR, "treated")

    total = float(sum(terms))
    att = float(np.mean(direct[treated]))
    deviation = total - att

    # The deviation equals the share-weighted cross-arm gap in untreated
    # changes over the two treated-respondent strata; its standard error
    # treats the shares as fixed.
    var = 0.0
    for code in (_AR, _ITR):
        share = shares[STRATUM_PAIRS[code]]
        if share == 0:
            continue
        for mask in (treated, control):
            group = mask & (s == code)
            n_g = int(group.sum())
            if n_g < 2:
                raise EstimatorError(
                    f"stratum {STRATUM_LABELS[code]} needs at least two units per arm "
                    "for the decomposition tolerance"
                )
            var += share**2 * float(np.var(delta0[group], ddof=1)) / n_g
    se = math.sqrt(var)

    if abs(deviation) > 6.0 * se + 1e-12:
        raise RuntimeError(
            "decomposition identity violated: terms total "
            f"{total:.6f} vs ATT {att:.6f} (deviation {deviation:.6f}, se {se:.6f}); "
            "the generating process does not share trends across arms"
        )
    return AttDecomposition(
        terms=tuple(terms),
        labels=DECOMPOSITION_LABELS,
        total=total,
        att=att,
        deviation=deviation,
        se=se,
        treated_shares=shares,
    )


def reference_check_trend_mixture(records: OracleInput) -> TrendMixtureReport:
    """``check_trend_mixture`` with one boolean-mask pass per group."""
    oracle, _, _ = _checked(records)
    delta0 = oracle.y2_0 - oracle.y1_true
    d = oracle.d
    s = oracle.s

    direct: list[float] = []
    mixture: list[float] = []
    shares: list[dict[tuple[int, int], float]] = []
    trends: list[dict[tuple[int, int], float | None]] = []
    for arm in (0, 1):
        mask = d == arm
        n_arm = int(mask.sum())
        if n_arm == 0:
            raise EstimatorError("trend comparison requires units in both arms")
        direct.append(float(delta0[mask].mean()))
        arm_shares: dict[tuple[int, int], float] = {}
        arm_trends: dict[tuple[int, int], float | None] = {}
        mix = 0.0
        for code in range(4):
            group = mask & (s == code)
            n_g = int(group.sum())
            arm_shares[STRATUM_PAIRS[code]] = n_g / n_arm
            if n_g:
                m = float(delta0[group].mean())
                arm_trends[STRATUM_PAIRS[code]] = m
                mix += (n_g / n_arm) * m
            else:
                arm_trends[STRATUM_PAIRS[code]] = None
        mixture.append(mix)
        shares.append(arm_shares)
        trends.append(arm_trends)

    scale = max(1.0, max(abs(v) for v in direct))
    residual = max(abs(direct[arm] - mixture[arm]) for arm in (0, 1))
    if residual > 1e-9 * scale:
        raise RuntimeError(
            f"stratum-mixture identity violated: residual {residual!r} "
            "exceeds floating-point tolerance"
        )

    var = 0.0
    for arm in (0, 1):
        mask = d == arm
        n_arm = int(mask.sum())
        if n_arm >= 2:
            var += float(np.var(delta0[mask], ddof=1)) / n_arm
    return TrendMixtureReport(
        direct=(direct[0], direct[1]),
        mixture=(mixture[0], mixture[1]),
        mixture_residual=residual,
        stratum_shares=(shares[0], shares[1]),
        stratum_trends=(trends[0], trends[1]),
        pt_gap=direct[1] - direct[0],
        pt_gap_se=math.sqrt(var),
    )


# -- the outcome model's truths, one (cell, stratum) group at a time -----------


def reference_expected_counts(spec: DgpSpec, aux=(), cells: bool = False) -> GroupCounts:
    """``_expected_counts`` as a loop over cells, strata and arms that forms
    each group's mass and mean change from the spec fields."""
    slots = [_pattern_index(spec, k) for k in aux]
    labels = [() if not cells or c.x_label is None else (c.x_label,) for c in spec.cells()]
    keys = sorted(set(labels))
    shape = (len(keys), 2, 2, 2) + (2,) * len(aux)
    n = [0.0] * math.prod(shape)
    s = [0.0] * len(n)
    for cell, label in zip(spec.cells(), labels):
        first = keys.index(label)
        level = 0
        for slot in slots:
            level = 2 * level + cell.aux_pattern[slot]
        for st in range(4):
            effect = spec.effect[st] + cell.effect_shift
            for d in (0, 1):
                w = cell.share[d] * cell.strata[d][st]
                r2 = STRATUM_PAIRS[st][1 - d]
                at = (((2 * first + d) * 2 + 1) * 2 + r2) * 2 ** len(aux) + level
                n[at] += w
                if r2:
                    trend = spec.trend[st] + cell.trend_shift[d]
                    mu = trend + spec.arm_trend_delta[st] + effect if d else trend
                    s[at] += w * mu
    sums = np.array(s).reshape(shape)
    return GroupCounts(
        n=np.array(n).reshape(shape),
        s=sums,
        cc_sum=sums[:, :, 1, 1].swapaxes(0, 1).reshape(2, -1).sum(axis=1),
        cells=tuple(keys),
    )


def reference_population(spec: DgpSpec) -> tuple[float, float, float]:
    """``DgpSpec._population`` with each treated group's mass and effect
    formed from the spec fields."""
    att = ar_num = ar_den = 0.0
    for cell in spec.cells():
        for st in range(4):
            w = cell.share[1] * cell.strata[1][st]
            effect = spec.effect[st] + cell.effect_shift
            att += w * effect
            if st == _AR:
                ar_num += w * effect
                ar_den += w
    try:
        cc = _complete_case(reference_expected_counts(spec)).point
    except EstimatorError:
        cc = math.nan
    return att, ar_num / ar_den if ar_den > 0 else math.nan, cc


def reference_strip_missingness(spec: DgpSpec) -> DgpSpec:
    """``strip_missingness`` with each new cell's fields formed from the spec fields."""
    new_cells = []
    for cell in spec.cells():
        for code in range(4):
            share = (
                cell.share[0] * cell.strata[0][code],
                cell.share[1] * cell.strata[1][code],
            )
            if share[0] <= 0.0 and share[1] <= 0.0:
                continue
            new_cells.append(
                Cell(
                    label=f"{cell.label}/{STRATUM_LABELS[code]}",
                    share=share,
                    strata=((1.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0)),
                    trend_shift=(
                        cell.trend_shift[0] + spec.trend[code] - spec.trend[_AR],
                        cell.trend_shift[1]
                        + spec.trend[code]
                        + spec.arm_trend_delta[code]
                        - spec.trend[_AR],
                    ),
                    effect_shift=cell.effect_shift + spec.effect[code] - spec.effect[_AR],
                    baseline_shift=(
                        cell.baseline_shift[0] + spec.baseline[code][0] - spec.baseline[_AR][0],
                        cell.baseline_shift[1] + spec.baseline[code][1] - spec.baseline[_AR][1],
                    ),
                    x_label=cell.x_label,
                    aux_pattern=cell.aux_pattern,
                )
            )
    p1 = spec.arm_share(1)
    return replace(
        spec,
        joint_sd=((1.0 - p1, 0.0, 0.0, 0.0), (p1, 0.0, 0.0, 0.0)),
        covariate_model=tuple(new_cells),
        r1_model=R1Model("always-observed"),
        arm_trend_delta=(0.0, 0.0, 0.0, 0.0),
    )


def population_lee_bounds(spec: DgpSpec, mode: str) -> tuple[float, float]:
    """The sharp ATT-AR interval that ``att_ar_bounds`` estimates, in the
    population of ``spec``.

    An arm's complete-case Y2 - Y1 is a normal mixture over its responding
    (cell, stratum) groups: each component has the group's trend, plus its
    effect if the arm is treated, and sd ``noise_sd`` (the first-period noise
    cancels). First-wave response has one rate for both arms, so the
    ``p_r1`` terms of the share formulas cancel and the keep shares follow
    from ``Pr(R2 = 1 | D)`` alone:
    - monotone: 1 in the control arm and ``Pr(R2=1|D=0) / Pr(R2=1|D=1)``
      (at most 1) in the treated arm;
    - no-monotone: in each arm the Fréchet floor ``max(0, c + q - 1)`` of the
      always-respondent share over its margins ``Pr(R2(1)=1|D=d) = c`` and
      ``Pr(R2(0)=1|D=d) = q``, over ``Pr(R2=1|D=d)``. Parallel trends of
      missingness make each arm's counterfactual margin the other arm's
      observed rate.
    Quantiles come from bisection on the mixture CDF and trimmed means from
    truncated-normal partial means.
    """
    mass, _, trend, effect = spec._groups
    sd = spec.noise_sd
    responds = [[pair[1 - d] == 1 for pair in STRATUM_PAIRS] for d in (0, 1)]  # R2(d) = 1
    rate = [float(mass[:, d][:, responds[d]].sum()) for d in (0, 1)]  # Pr(R2 = 1 | D = d)
    if mode == "monotone":
        keep = (1.0, min(1.0, rate[0] / rate[1]))
    else:
        floor = max(0.0, rate[0] + rate[1] - 1.0)
        keep = (floor / rate[0], floor / rate[1])

    def cdf(z: float) -> float:
        return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))

    def pdf(z: float) -> float:
        return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

    def trimmed(d: int, p: float, side: str) -> float:
        w = mass[:, d][:, responds[d]].ravel()
        mu = (trend[:, d] + (effect[:, d] if d else 0.0))[:, responds[d]].ravel()
        w = w / w.sum()
        if p == 1.0:
            return float(w @ mu)
        target = p if side == "bottom" else 1.0 - p
        lo, hi = float(mu.min()) - 40.0 * sd, float(mu.max()) + 40.0 * sd
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            below = sum(wi * cdf((mid - mi) / sd) for wi, mi in zip(w, mu))
            lo, hi = (mid, hi) if below < target else (lo, mid)
        q = 0.5 * (lo + hi)
        z = [(q - mi) / sd for mi in mu]
        if side == "bottom":  # E[Y 1{Y <= q}] of each component
            part = sum(wi * (mi * cdf(zi) - sd * pdf(zi)) for wi, mi, zi in zip(w, mu, z))
        else:  # E[Y 1{Y > q}]
            part = sum(wi * (mi * (1.0 - cdf(zi)) + sd * pdf(zi)) for wi, mi, zi in zip(w, mu, z))
        return part / p

    lower = [trimmed(d, keep[d], "bottom") for d in (0, 1)]
    upper = [trimmed(d, keep[d], "top") for d in (0, 1)]
    return lower[1] - upper[0], upper[1] - lower[0]
