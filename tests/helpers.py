"""Test-side glue: a reader for the exported MPS text and a bridge to the
HiGHS mixed-integer solver shipped inside scipy. The file format is the
interchange surface under test; the solver is an independent engine."""

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import lil_matrix


def parse_mps(text: str):
    section = None
    obj_name = None
    senses: dict[str, str] = {}
    row_order: list[str] = []
    cols: dict[str, dict[str, float]] = {}
    rhs: dict[str, float] = {}
    binaries: set[str] = set()
    var_order: list[str] = []
    for line in text.splitlines():
        if not line.strip() or line.startswith("*"):
            continue
        tokens = line.split()
        if line[:1] != " ":
            section = tokens[0]
            continue
        if section == "OBJSENSE":
            assert tokens[0] == "MIN"
        elif section == "ROWS":
            kind, name = tokens
            if kind == "N":
                obj_name = name
            else:
                senses[name] = kind
                row_order.append(name)
        elif section == "COLUMNS":
            if "'MARKER'" in tokens:
                continue
            var, row, value = tokens
            if var not in cols:
                cols[var] = {}
                var_order.append(var)
            cols[var][row] = float(value)
        elif section == "RHS":
            _tag, row, value = tokens
            rhs[row] = float(value)
        elif section == "BOUNDS":
            kind, _bnd, var = tokens
            assert kind == "BV"
            binaries.add(var)
    assert binaries == set(var_order)
    return obj_name, senses, row_order, cols, rhs, var_order


def solve_mps_with_highs(text: str):
    """Objective value (money units, constant included) and variable values
    of the optimal solution of an exported MPS model, or None when HiGHS
    proves the model infeasible."""
    obj_name, senses, row_order, cols, rhs, var_order = parse_mps(text)
    vidx = {v: i for i, v in enumerate(var_order)}
    ridx = {r: i for i, r in enumerate(row_order)}
    c = np.zeros(len(var_order))
    matrix = lil_matrix((len(row_order), len(var_order)))
    for var, entries in cols.items():
        for row, coef in entries.items():
            if row == obj_name:
                c[vidx[var]] = coef
            else:
                matrix[ridx[row], vidx[var]] = coef
    lower = np.full(len(row_order), -np.inf)
    upper = np.full(len(row_order), np.inf)
    for row in row_order:
        bound = rhs.get(row, 0.0)
        i = ridx[row]
        if senses[row] == "E":
            lower[i] = upper[i] = bound
        elif senses[row] == "L":
            upper[i] = bound
        else:
            lower[i] = bound
    result = milp(
        c=c,
        constraints=LinearConstraint(matrix.tocsr(), lower, upper),
        integrality=np.ones(len(var_order)),
        bounds=Bounds(0, 1),
    )
    if result.status == 2:  # proven infeasible
        return None
    assert result.success, result.message
    constant = -rhs.get(obj_name, 0.0)
    values = {v: float(result.x[vidx[v]]) for v in var_order}
    return result.fun + constant, values


def full_assignment(model, plan) -> dict[str, int]:
    """Extend a plan to a complete 0/1 assignment of the model's variables,
    with every auxiliary set to its defining product."""
    from chainplace.ilp import plan_vector

    base = dict(
        zip(
            (v.name for v in model.variables if v.family in "gtlp"),
            plan_vector(
                model.instance,
                plan,
                [v for v in model.variables if v.family in "gtlp"],
            ),
        )
    )
    snap = model.instance.snapshot.deployed
    values = dict(base)
    for var in model.variables:
        if var.family == "x":
            k, i, s, d = var.key
            values[var.name] = (1 if (k, i, s) in snap else 0) * base[
                f"t[{k}][{i}][{d}]"
            ]
        elif var.family == "m":
            f, s, d, i = var.key
            first = model.instance.request(f).chain[0]
            values[var.name] = base[f"g[{f}][{s}]"] * base[f"l[{f}][{d}][{first}][{i}]"]
        elif var.family == "q":
            f, pos, s, d, i, j = var.key
            chain = model.instance.request(f).chain
            values[var.name] = (
                base[f"l[{f}][{s}][{chain[pos]}][{i}]"]
                * base[f"l[{f}][{d}][{chain[pos + 1]}][{j}]"]
            )
    return values
