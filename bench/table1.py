#!/usr/bin/env python3
"""Regenerates BENCH_table1.json, the paper's Table 1 as the registry
measures it, and gates it.

Every spec line of bench/table1.specs runs through lightnet_cli with
wall=0, so the records are deterministic. Each record becomes one table
row: n, D, rounds, messages, words, max_edge_load, the output size, the
exact quality metrics and the bound_* diagnostics the record emits. Per
(construction, parameters, family) the script fits the log-log slope of
rounds in n and puts it next to the theorem's exponent and the slope of the
theorem's expression on the same instances; a slope above both is marked
"above" (a finding to report, not a failure). It exits nonzero on any of:
  - an error record;
  - an exact metric outside a bound its own record emits: bound_X against
    metric X, bound_X_lower and bound_X_upper around X, and a net's
    covering and separation certificate (a bound with no metric of its
    name, such as light_spanner's bound_lightness_band, is reported, not
    checked);
  - a BENCH_budgets.txt line over budget or without a row at default
    parameters;
  - with --compare, a difference from that file in any integer column or
    in a slope. FP metrics and bounds are left out of the compare, because
    FP contraction differs between compilers.

    python3 bench/table1.py [--cli build/lightnet_cli]
                            [--out BENCH_table1.json] [--compare FILE]
"""

import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPECS = os.path.join(ROOT, "bench", "table1.specs")
BUDGETS = os.path.join(ROOT, "BENCH_budgets.txt")
SWEEP_KEYS = ("construction", "topology", "n")
TOLERANCE = 1e-9  # relative slack on bound checks, for FP rounding only
# The row columns --compare holds exact: the keys and the integer columns.
EXACT_COLUMNS = ("construction", "params", "topology", "n", "vertices",
                 "edges", "D", "rounds", "messages", "words",
                 "max_edge_load", "size")


def sqrt_n_plus_d(n, d, k):
    return math.sqrt(n) + d


# construction -> (the round bound's expression, its exponent of n as a
# function of k, None when it has no n term, and the expression as a
# function of (n, D, k)). The sequential baselines send nothing: no entry.
THEOREMS = {
    "light_spanner": ("n^(1/2+1/(4k+2)) + D",
                      lambda k: 0.5 + 1.0 / (4 * k + 2),
                      lambda n, d, k: n ** (0.5 + 1.0 / (4 * k + 2)) + d),
    "slt": ("sqrt(n) + D", lambda k: 0.5, sqrt_n_plus_d),
    "slt_light": ("sqrt(n) + D", lambda k: 0.5, sqrt_n_plus_d),
    "net": ("sqrt(n) + D", lambda k: 0.5, sqrt_n_plus_d),
    "doubling_spanner": ("sqrt(n) + D", lambda k: 0.5, sqrt_n_plus_d),
    "mst_weight_estimate": ("sqrt(n) + D", lambda k: 0.5, sqrt_n_plus_d),
    "baswana_sen": ("3k + 2", lambda k: 0.0, lambda n, d, k: 3 * k + 2),
    "elkin_neiman": ("k + 1", lambda k: 0.0, lambda n, d, k: k + 1),
    "bfs_tree": ("D", lambda k: None, lambda n, d, k: d),
}


def read_specs():
    """The spec lines, without comments and blank lines."""
    lines = []
    with open(SPECS) as f:
        for line in f:
            line = line.split("#", 1)[0].strip()
            if line:
                lines.append(line)
    return lines


def line_params(line):
    """The line's own parameter tokens: '' for a registry-default line."""
    return " ".join(t for t in line.split()
                    if t.split("=", 1)[0] not in SWEEP_KEYS)


def run_line(cli, line):
    out = subprocess.run([cli] + line.split() + ["wall=0"],
                         capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"table1: '{line}' failed: {out.stderr.strip()}")
    return [json.loads(l) for l in out.stdout.splitlines()]


def bound_violations(rec):
    """Each exact metric outside a bound its own record emits."""
    metrics, bad = rec.get("metrics", {}), []
    for key, bound in rec.get("diagnostics", {}).items():
        if not key.startswith("bound_"):
            continue
        name = key[len("bound_"):]
        base = name.rsplit("_", 1)[0]
        if name.endswith("_lower") and base in metrics:
            ok = metrics[base] >= bound * (1 - TOLERANCE)
        elif name.endswith("_upper") and base in metrics:
            ok = metrics[base] <= bound * (1 + TOLERANCE)
        elif name in metrics:
            ok = metrics[name] <= bound * (1 + TOLERANCE)
        else:
            continue
        if not ok:
            bad.append(f"{name} {metrics.get(name, metrics.get(base))} "
                       f"vs {key} {bound}")
    if rec["kind"] == "net":
        for name in ("covering", "separated"):
            if metrics.get(name) != 1:
                bad.append(f"net certificate: {name} is {metrics.get(name)}")
    return bad


def row_of(rec, params):
    metrics = rec.get("metrics", {})
    total = rec["cost"]["total"]
    row = {"construction": rec["construction"], "params": params,
           "topology": rec["topology"], "n": rec["n"],
           "vertices": rec["graph"]["vertices"],
           "edges": rec["graph"]["edges"], "D": rec["graph"]["hop_diameter"],
           "rounds": total["rounds"], "messages": total["messages"],
           "words": total["words"], "max_edge_load": total["max_edge_load"]}
    for size_key in ("edges", "net_size"):
        if size_key in metrics:
            row["size"] = metrics[size_key]
    row["metrics"] = metrics
    row["bounds"] = {k: v for k, v in rec.get("diagnostics", {}).items()
                     if k.startswith("bound_")}
    band = row["bounds"].get("bound_lightness_band")
    if band is not None and "lightness" in metrics:
        row["lightness_over_band"] = round(metrics["lightness"] / band, 3)
    return row


def fit_slope(xs, ys):
    """Least-squares slope of log y on log x, to three decimals."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    sxx = sum((a - mx) ** 2 for a in lx)
    slope = sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sxx
    return round(slope, 3) + 0.0  # + 0.0 turns -0.0 into 0.0


def slopes_of(groups):
    """One slope entry per (construction, params, family) with rounds."""
    out = []
    for (construction, params, family), recs in groups.items():
        theorem = THEOREMS.get(construction)
        if theorem is None or len(recs) < 2:
            continue
        expression, exponent_of, bound_of = theorem
        k = recs[0]["params"]["k"]
        vertices = [r["graph"]["vertices"] for r in recs]
        rounds = [r["cost"]["total"]["rounds"] for r in recs]
        bounds = [bound_of(r["graph"]["vertices"], r["graph"]["hop_diameter"],
                           k) for r in recs]
        slope = fit_slope(vertices, rounds)
        theorem_slope = fit_slope(vertices, bounds)
        exponent = exponent_of(k)
        if exponent is not None:
            exponent = round(exponent, 3)
        # Above means faster than the bare exponent and than the expression
        # on these very instances, whose D may grow faster than n^exponent.
        reference = max(theorem_slope, exponent or 0.0)
        out.append({"construction": construction, "params": params,
                    "topology": family,
                    "n": [min(r["n"] for r in recs), max(r["n"] for r in recs)],
                    "rounds_slope": slope, "theorem": expression,
                    "exponent": exponent, "theorem_slope": theorem_slope,
                    "above": slope > reference})
    return out


def budget_failures(rows):
    defaults = {(r["construction"], r["topology"], r["n"]): r
                for r in rows if r["params"] == ""}
    bad, checked = [], 0
    with open(BUDGETS) as f:
        for line in f:
            if not line.strip() or line.startswith("#"):
                continue
            construction, family, n, budget = line.split()
            row = defaults.get((construction, family, int(n)))
            checked += 1
            if row is None:
                bad.append(f"budget: no default row for {construction} "
                           f"{family} n={n}")
            elif row["messages"] > int(budget):
                bad.append(f"budget: {construction} {family} n={n} sent "
                           f"{row['messages']} messages (budget {budget})")
    return bad, checked


def compared(table):
    """What --compare holds exact: the EXACT_COLUMNS of each row, and the
    slopes (rounded, and fitted from integers only)."""
    return ([{k: r[k] for k in EXACT_COLUMNS if k in r}
             for r in table["rows"]], table["slopes"])


def write_table(path, table):
    """One spec, row or slope per line, so diffs read row by row."""
    with open(path, "w") as f:
        f.write('{"benchmark":"table1"')
        for key in ("specs", "rows", "slopes"):
            f.write(f',\n"{key}":[\n')
            f.write(",\n".join(json.dumps(x, separators=(",", ":"))
                               for x in table[key]))
            f.write("\n]")
        f.write("}\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--cli", default=os.path.join(ROOT, "build",
                                                      "lightnet_cli"))
    parser.add_argument("--out", default=os.path.join(ROOT,
                                                      "BENCH_table1.json"))
    parser.add_argument("--compare", metavar="FILE",
                        help="fail on any integer or slope difference "
                             "from FILE")
    args = parser.parse_args()

    specs = read_specs()
    rows, groups, failures = [], {}, []
    for line in specs:
        params = line_params(line)
        for rec in run_line(args.cli, line):
            where = (f"{rec.get('construction')} {params} "
                     f"{rec.get('topology')} n={rec.get('n')}")
            if "error" in rec:
                failures.append(f"{where}: error {rec['error']}")
                continue
            failures += [f"{where}: {v}" for v in bound_violations(rec)]
            rows.append(row_of(rec, params))
            key = (rec["construction"], params, rec["topology"])
            groups.setdefault(key, []).append(rec)
    table = {"specs": specs, "rows": rows, "slopes": slopes_of(groups)}
    write_table(args.out, table)
    budget_bad, budgets = budget_failures(rows)
    failures += budget_bad

    if args.compare:
        with open(args.compare) as f:
            committed = json.load(f)
        for ours, theirs in zip(compared(table), compared(committed)):
            if ours != theirs:
                first = next((i for i, (a, b) in enumerate(zip(ours, theirs))
                              if a != b), min(len(ours), len(theirs)))
                failures.append(f"differs from {args.compare} at entry "
                                f"{first} of {len(ours)} (committed has "
                                f"{len(theirs)}): "
                                f"{ours[first] if first < len(ours) else '-'}")

    above = [s for s in table["slopes"] if s["above"]]
    print(f"table1: {len(rows)} rows, {len(table['slopes'])} slopes "
          f"({len(above)} above the theorem), {budgets} budget "
          f"lines; wrote {args.out}", file=sys.stderr)
    for s in above:
        print(f"  slope above: {s['construction']} {s['params']} "
              f"{s['topology']} {s['rounds_slope']} (exponent "
              f"{s['exponent']}, {s['theorem']} {s['theorem_slope']})",
              file=sys.stderr)
    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
