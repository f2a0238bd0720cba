"""Instance catalogues and the operation sequence of each workload.

Every instance is built by construction from integer anchors and
hand-computed worst-case slacks; no library solver is called here, so the
library under test receives only the generated inputs.  Instances are
never dropped or resampled because of their outcome or run time.

The data of each workload's catalogue are drawn once from the constant
CATALOGUE_SEED at the sizes listed in README.md; the run's ``--seed`` shuffles
the instance order.  Per-instance cost is heavy-tailed (the
projected-gradient minimum-norm point runs from a hundred to tens of
thousands of steps), so fresh data per seed moved
``ops_per_s`` by 94% between seeds; a fixed catalogue keeps runs
comparable while every instance in it, slow or failing, is kept.
Constraint and row order are left alone because the dense Bland simplex
takes a different pivot path for each order; shuffling constraints moved
``latency_p90_ms`` on ``certify-poly`` by 20% between seeds.

An operation is one public call (or one CLI process).  Each workload
exposes ``make_inputs(api, workdir, seed)`` and ``operations(target,
inst)``, a generator that yields ``Op`` objects and receives each op's
``Outcome`` back, so a later op can depend on an earlier answer (the ball
probes use the radius just computed, ``verify`` replays the certificate
just issued).
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass, field

import numpy as np

INF = float("inf")

# README golden system: radius sqrt(28/3) = 3.0550504633038935.
GOLDEN_ROWS = (((-2.0, -1.0, -2.0), -6.0), ((-1.0, -2.0, -2.0), -6.0),
               ((-1.0, 0.0, 0.0), -3.0), ((0.0, -1.0, 0.0), -3.0),
               ((0.0, 0.0, -1.0), -3.0))
GOLDEN_RHO = math.sqrt(28.0 / 3.0)

BALL_FRACTIONS = (0.5, 0.9, 1.1)     # alpha / rho for the ball probes
CATALOGUE_SEED = 1


def catalogue_rng(name):
    return np.random.default_rng([CATALOGUE_SEED, zlib.crc32(name.encode())])


def shuffled(rng, items):
    return [items[i] for i in rng.permutation(len(items))]


@dataclass
class Op:
    kind: str                  # "radius" | "ball" | "certify" | "verify" | cli command
    call: object               # zero-argument callable; None = not attempted
    meta: dict = field(default_factory=dict)


@dataclass
class Outcome:
    value: object = None
    error: BaseException | None = None

    @property
    def ok(self):
        return self.error is None


def _nonzero_int_vec(rng, n, lo=-5, hi=5):
    a = rng.integers(lo, hi + 1, n).astype(float)
    if not a.any():
        a[int(rng.integers(0, n))] = float(rng.choice([-1, 1]))
    return a


# ---------------------------------------------------------------------------
# radius: nominal singleton systems
# ---------------------------------------------------------------------------

@dataclass
class RadiusInstance:
    rows: list                 # [(a, b)], feasible at an integer anchor
    golden: bool = False


def radius_system(rng, n, p):
    """p integer rows a.x >= b, strictly satisfied at an integer anchor."""
    x0 = rng.integers(-3, 4, n).astype(float)
    rows = []
    for _ in range(p):
        a = _nonzero_int_vec(rng, n)
        rows.append((a, float(a @ x0 - rng.integers(1, 4))))
    return rows


class RadiusWorkload:
    name = "radius"
    n_range = (2, 5)
    extra_rows = (1, 2)        # p in n+1 .. n+2
    size = 24

    def make_inputs(self, api, workdir, seed):
        rng = catalogue_rng(self.name)
        cat = [RadiusInstance([(np.array(a), b) for a, b in GOLDEN_ROWS], True)]
        for _ in range(self.size - 1):
            n = int(rng.integers(self.n_range[0], self.n_range[1] + 1))
            p = n + int(rng.integers(self.extra_rows[0], self.extra_rows[1] + 1))
            cat.append(RadiusInstance(radius_system(rng, n, p)))
        return shuffled(np.random.default_rng(seed), cat)

    def operations(self, api, inst):
        rows = inst.rows
        res = yield Op("radius", lambda: api.radius_of_robust_feasibility(rows))
        for frac in BALL_FRACTIONS:
            if not res.ok:
                # the probe needs the radius it is scaled by
                yield Op("ball", None, {"frac": frac})
                continue
            alpha = frac * res.value.rho
            yield Op("ball", lambda a=alpha: api.ball_robust_feasible(rows, a),
                     {"frac": frac, "alpha": alpha})


# ---------------------------------------------------------------------------
# certify-poly: singleton, polytope and box constraints
# ---------------------------------------------------------------------------

@dataclass
class CertifyInstance:
    problem: object            # robustmolp.UncertainMOLP
    x_bar: np.ndarray
    by_construction: bool      # objective built to be certified
    props: dict


def _bounding_box(api, n, bound=10.0):
    cons = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        cons += [api.Singleton(e.copy(), -bound), api.Singleton(-e, -bound)]
    return cons


def _objective(rng, m, n, normals):
    """(C_bar, u, v): rows in cone(normals) when normals are given (so the
    anchor is certified by construction), else random integers."""
    if normals:
        G = np.array(normals)
        W = rng.integers(0, 4, (m, len(normals))).astype(float)
        W[W.sum(axis=1) == 0, int(rng.integers(0, len(normals)))] = 1.0
        C = W @ G
        v = rng.integers(0, 3, len(normals)).astype(float) @ G
        u = rng.integers(0, 3, m).astype(float)
    else:
        C = rng.integers(-5, 6, (m, n)).astype(float)
        v = rng.integers(-5, 6, n).astype(float)
        u = rng.integers(0, 4, m).astype(float)
    return C, u, v


class CertifyPolyWorkload:
    name = "certify-poly"
    n_range = (3, 8)
    size = 80

    def make_inputs(self, api, workdir, seed):
        rng = catalogue_rng(self.name)
        cat = [self.instance(rng, api, certified=(k % 2 == 0))
               for k in range(self.size)]
        return shuffled(np.random.default_rng(seed), cat)

    def instance(self, rng, api, certified):
        n = int(rng.integers(self.n_range[0], self.n_range[1] + 1))
        m = int(rng.integers(2, 4))
        x = rng.integers(-3, 4, n).astype(float)
        cons, normals, box_rows = [], [], 0
        kinds = ["singleton"] * int(rng.integers(1, 4))
        kinds += ["polytope"] * int(rng.integers(0, 3))
        kinds += ["box"] * int(rng.integers(0, 2))
        tight = [bool(rng.integers(0, 2)) for _ in kinds]
        tight[int(rng.integers(0, len(kinds)))] = True
        for kind, is_tight in zip(kinds, tight):
            if kind == "singleton":
                a = _nonzero_int_vec(rng, n)
                s = 0.0 if is_tight else float(rng.integers(1, 4))
                cons.append(api.Singleton(a, float(a @ x) - s))
                if is_tight:
                    normals.append(a)
            elif kind == "polytope":
                verts = []
                for k in range(int(rng.integers(2, 5))):
                    a = _nonzero_int_vec(rng, n)
                    s = 0.0 if is_tight and k == 0 else float(rng.integers(1, 4))
                    verts.append(np.concatenate([a, [float(a @ x) - s]]))
                    if s == 0.0:
                        normals.append(a)
                cons.append(api.Polytope(tuple(verts)))
            else:
                center = rng.integers(-4, 5, n).astype(float)
                half = rng.integers(0, 3, n).astype(float)
                lo, hi = center - half, center + half
                # worst-case row: the corner minimizing a.x coordinate-wise
                a_min = np.where(x >= 0, lo, hi)
                s = 0.0 if is_tight else float(rng.integers(1, 4))
                b_hi = float(a_min @ x) - s
                cons.append(api.Box(lo, hi, b_hi - 2.0, b_hi))
                box_rows += 2 ** n
                if is_tight and a_min.any():
                    normals.append(a_min)
        cons += _bounding_box(api, n)
        certified = certified and bool(normals)
        C, u, v = _objective(rng, m, n, normals if certified else None)
        problem = api.UncertainMOLP(m, n, C, u, v, tuple(cons))
        rows = sum(2 ** n if c.kind == "box" else
                   len(c.vertices) if c.kind == "polytope" else 1 for c in cons)
        props = {"box_rows": box_rows, "rows": rows}
        return CertifyInstance(problem, x, certified, props)

    def operations(self, api, inst):
        p, x = inst.problem, inst.x_bar
        res = yield Op("certify",
                       lambda: api.certify_weak_efficiency(api.validate_problem(p), x))
        if res.ok and res.value.status == "certified":
            cert = res.value.certificate
            yield Op("verify", lambda: api.verify_certificate(p, x, cert))


# ---------------------------------------------------------------------------
# certify-cone: norm-ball and ellipsoid constraints
# ---------------------------------------------------------------------------

def dual_norm(x, s):
    """Norm conjugate to the s-norm (1 <-> inf, 2 <-> 2)."""
    if s == 1:
        return float(np.abs(x).max())
    if s == 2:
        return float(np.linalg.norm(x))
    return float(np.abs(x).sum())


def _dual_norm_subgradient(y, s):
    """d with ||d||_s = 1 and d.y = dual_norm(y, s); y must be generic."""
    if s == 1:
        d = np.zeros_like(y)
        i = int(np.argmax(np.abs(y)))
        d[i] = np.sign(y[i])
        return d
    if s == 2:
        return y / np.linalg.norm(y)
    return np.sign(y)


def _spd_matrix(rng, n):
    B = rng.integers(-1, 2, (n, n)).astype(float)
    return B @ B.T + np.diag(rng.integers(1, 3, n).astype(float))


class CertifyConeWorkload:
    name = "certify-cone"
    n_range = (1, 4)
    size = 48

    def make_inputs(self, api, workdir, seed):
        rng = catalogue_rng(self.name)
        cat = [self.instance(rng, api, boundary=(k % 2 == 0))
               for k in range(self.size)]
        return shuffled(np.random.default_rng(seed), cat)

    def _concave(self, rng, api, n, x, slack):
        """One concave constraint whose worst-case slack at x equals
        `slack`; returns (constraint, supergradient at x, has s=2 block)."""
        draw = rng.random()
        if draw < 0.3:
            q = int(rng.integers(1, n + 1))
            S = rng.integers(-2, 3, (q, n)).astype(float)
            if not (S @ x).any():
                S[0] = np.sign(x) + (x == 0)
            a0 = _nonzero_int_vec(rng, n)
            # keep the set's interior nonempty: a0 outside the span ellipsoid
            a0 = a0 * (1.0 + 2.0 * np.linalg.norm(S, 2) / np.linalg.norm(a0))
            w = S @ x
            b_hi = float(a0 @ x - np.linalg.norm(w)) - slack
            g = a0 - S.T @ (w / np.linalg.norm(w))
            con = api.Ellipsoid(a0, tuple(S), b_hi - 1.0, b_hi)
            return con, g, True
        s = 2 if draw < 0.8 else (1 if draw < 0.9 else INF)
        Z = _spd_matrix(rng, n)
        Z_inv = np.linalg.inv(Z)
        delta = float(rng.choice([0.5, 1.0]))
        a_bar = _nonzero_int_vec(rng, n)
        zn = {1: np.abs(Z @ a_bar).sum(), 2: np.linalg.norm(Z @ a_bar),
              INF: np.abs(Z @ a_bar).max()}[s]
        if zn < 2.0 * delta:
            a_bar = a_bar * (2.0 * delta / zn)
        y = Z_inv @ x
        b_hi = float(a_bar @ x - delta * dual_norm(y, s)) - slack
        g = a_bar - delta * (Z_inv @ _dual_norm_subgradient(y, s))
        con = api.NormBall(a_bar, Z, delta, s, b_hi - 1.0, b_hi)
        return con, g, s == 2

    def instance(self, rng, api, boundary):
        n = int(rng.integers(self.n_range[0], self.n_range[1] + 1))
        m = int(rng.integers(2, 4))
        x = rng.integers(-3, 4, n).astype(float)
        x[x == 0] = 1.0               # generic anchor: every norm differentiable
        x += rng.integers(0, 2, n) * 0.5
        cons, soc2 = [], False
        n_concave = int(rng.integers(1, 3))
        g_tight = None
        for k in range(n_concave):
            tight = boundary and k == 0
            con, g, is_soc2 = self._concave(
                rng, api, n, x, 0.0 if tight else float(rng.integers(1, 4)))
            cons.append(con)
            soc2 |= is_soc2
            if tight:
                g_tight = g
        for _ in range(int(rng.integers(0, 3))):
            a = _nonzero_int_vec(rng, n)
            cons.append(api.Singleton(a, float(a @ x) - float(rng.integers(1, 4))))
        if boundary:
            c = rng.integers(1, 4, m).astype(float)
            C = np.outer(c, g_tight)
            u = rng.integers(0, 3, m).astype(float)
            v = float(rng.integers(0, 3)) * g_tight
        else:
            C, u, v = _objective(rng, m, n, None)
        problem = api.UncertainMOLP(m, n, C, u, v, tuple(cons))
        props = {"has_soc2": soc2}
        return CertifyInstance(problem, x, boundary, props)

    operations = CertifyPolyWorkload.operations


# ---------------------------------------------------------------------------
# cli: one CLI process per operation
# ---------------------------------------------------------------------------

@dataclass
class CliInstance:
    radius_file: str           # all-singleton problem
    certify_file: str          # problem for certify / certify --oracle / verify
    certify: CertifyInstance
    radius_rows: list


CLI_ORACLE_GRID = 5


class CliWorkload:
    """Problem files written from the three generators above, small sizes."""

    name = "cli"

    size = 6

    def make_inputs(self, api, workdir, seed):
        rng = catalogue_rng(self.name)
        poly, cone = CertifyPolyWorkload(), CertifyConeWorkload()
        cat = []
        for k in range(self.size):
            n = int(rng.integers(2, 4))
            rows = radius_system(rng, n, n + 1)
            if k % 2 == 0:
                cert = poly.instance(rng, api, certified=(k % 4 == 0))
            else:
                cert = cone.instance(rng, api, boundary=(k % 4 == 1))
            cat.append((rows, cert))
        order = np.random.default_rng(seed)
        out = []
        for k, (rows, cert) in enumerate(shuffled(order, cat)):
            rows = shuffled(order, rows)
            n = rows[0][0].size
            rad = api.UncertainMOLP(1, n, np.eye(1, n), [0.0], np.zeros(n),
                                    tuple(api.Singleton(a, b) for a, b in rows))
            paths = []
            for tag, prob in (("radius", rad), ("certify", cert.problem)):
                path = workdir / f"{k:04d}-{tag}.json"
                path.write_text(json.dumps(api.problem_to_dict(prob)),
                                encoding="utf-8")
                paths.append(str(path))
            out.append(CliInstance(paths[0], paths[1], cert, rows))
        return out

    @staticmethod
    def point(x):
        return ",".join(repr(float(t)) for t in x)

    def operations(self, run_cli, inst):
        """run_cli(argv) -> (exit code, parsed JSON report or None, stdout)."""
        res = yield Op("cli-radius", lambda: run_cli(["radius", inst.radius_file, "--json"]))
        rho = None
        if res.ok and res.value[0] == 0 and res.value[1] is not None:
            rho = res.value[1]["payload"]["radius"]
        if rho is None:
            yield Op("cli-feasible", None)
        else:
            alpha = repr(0.5 * rho)
            yield Op("cli-feasible",
                     lambda: run_cli(["feasible", inst.radius_file, "--alpha", alpha, "--json"]),
                     {"alpha": 0.5 * rho})
        pt = self.point(inst.certify.x_bar)
        res = yield Op("cli-certify",
                       lambda: run_cli(["certify", inst.certify_file, f"--point={pt}", "--json"]))
        yield Op("cli-certify-oracle",
                 lambda: run_cli(["certify", inst.certify_file, f"--point={pt}",
                                  "--oracle", str(CLI_ORACLE_GRID), "--json"]))
        if res.ok and res.value[0] == 0:
            # the client keeps the certify report it received and replays it
            cert_file = inst.certify_file.replace(".json", ".cert.json")
            with open(cert_file, "w", encoding="utf-8") as fh:
                fh.write(res.value[2])
            yield Op("cli-verify",
                     lambda: run_cli(["verify", inst.certify_file, f"--point={pt}",
                                      "--cert", cert_file, "--json"]))


WORKLOADS = {w.name: w for w in (RadiusWorkload(), CertifyPolyWorkload(),
                                 CertifyConeWorkload(), CliWorkload())}
