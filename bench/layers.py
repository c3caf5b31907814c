"""The traced run: spans around the library's public calls, and layer probes.

`Tracer` records one span per call (name, layer, start, end, parent) in
memory; nothing is written until the run ends.  `replay` re-issues a job as
the sequence of public calls its `gausslab.cli` handler makes, each call in a
span whose parent is the job span.  A layer's self time is the time of its
spans minus the time their child spans cover.

`probe_metrics` measures the per-layer metrics named in BENCHMARK.json on
inputs that depend only on the seed, so every traced run reports every
metric whatever its workload.  The workload's own replay gives each layer's
share of that workload.
"""

import json
import os
import random
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager

LIBRARY = ("quadform", "exactalg", "fields", "charsum", "heisenberg", "varieties")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, layer, start, end, parent index or None]
        self._stack = []

    @contextmanager
    def span(self, name, layer):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, layer, time.perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][3] = time.perf_counter()

    def call(self, layer, name, fn, *args, **kwargs):
        with self.span(name, layer):
            return fn(*args, **kwargs)

    def self_times(self):
        """Seconds per span of its own duration minus its children's."""
        own = [end - start for _, _, start, end, _ in self.spans]
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def totals(self):
        """{(layer, name): total self seconds} over all spans."""
        out = {}
        for (name, layer, *_), t in zip(self.spans, self.self_times()):
            out[(layer, name)] = out.get((layer, name), 0.0) + t
        return out

    def table(self):
        """Per (layer, name): calls, total and self seconds; the written-out form."""
        rows = {}
        for (name, layer, start, end, _), own in zip(self.spans, self.self_times()):
            row = rows.setdefault(f"{layer}.{name}", [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += own
        return {k: {"calls": c, "total_s": t, "self_s": o} for k, (c, t, o) in sorted(rows.items())}


def _spanned(tr, layer, name, fn):
    spans, stack, clock = tr.spans, tr._stack, time.perf_counter

    def wrapper(*args, **kwargs):
        idx = len(spans)
        spans.append([name, layer, clock(), None, stack[-1] if stack else None])
        stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()
            spans[idx][3] = clock()

    return wrapper


@contextmanager
def instrument(tr):
    """Span every call a library layer makes into a function of another layer.

    For the duration, rebinds the names each layer module imported from a
    sibling layer (for example `zeta` in quadform, `absolute_trace_int` in
    charsum) to wrappers that open a span of the callee's layer, so time a
    quadform call spends in exactalg counts for exactalg.  The library's files
    are not changed; method calls on library objects are not split out.
    """
    import importlib

    saved = []
    try:
        for name in LIBRARY:
            mod = importlib.import_module(f"gausslab.{name}")
            for attr, obj in list(vars(mod).items()):
                layer = getattr(obj, "__module__", None) or ""
                layer = layer.rpartition(".")[2]
                if (callable(obj) and not isinstance(obj, type)
                        and layer in LIBRARY and layer != name):
                    saved.append((mod, attr, obj))
                    setattr(mod, attr, _spanned(tr, layer, attr, obj))
        yield
    finally:
        for mod, attr, obj in saved:
            setattr(mod, attr, obj)


# -- replay: the public calls each handler makes ---------------------------------

def replay(tr, command, job, options):
    """Run one job as its handler's public calls, each in a span of `tr`."""
    import gausslab as g
    from gausslab import fields, quadform

    override = options.get("override", False)
    workers = options.get("workers", 1)

    if command in ("gauss-sum", "gauss-verify"):
        form = tr.call("quadform", "from_json", g.QuadraticForm.from_json, job["form"])
        if command == "gauss-sum":
            tr.call("quadform", "gauss_sum", form.gauss_sum)
            return
        tr.call("quadform", "is_quadratic", form.is_quadratic)
        tau = tr.call("quadform", "gauss_sum", form.gauss_sum)
        if not tr.call("quadform", "is_nondegenerate", form.is_nondegenerate):
            return
        tr.call("exactalg", "abs_square", g.abs_square, tau)
        ratio = tr.call("exactalg", "cyc_arith", lambda: tau * tau / form.group.order)
        tr.call("exactalg", "root_of_unity", g.is_root_of_unity, ratio)
        tr.call("quadform", "recursive", g.recursive_gauss_eval, form)
        if form.group.moduli and all(d == 2 for d in form.group.moduli):
            tr.call("quadform", "char2", g.char2_invariant, form)
    elif command == "heisenberg":
        if "from_datum" in job:
            datum = tr.call("charsum", "from_json", g.QuadDatum.from_json, job["from_datum"])
            group = tr.call("heisenberg", "from_datum", g.heisenberg_from_datum, datum,
                            override=override).group
        else:
            spec = job["pairing"]
            k_group = quadform.FiniteAbelianGroup(spec["moduli"])
            pairing = tr.call("heisenberg", "pairing", g.AlternatingPairing, k_group,
                              spec["a_modulus"], spec["table"])
            group = tr.call("heisenberg", "build", g.build_group, pairing)
        rep = tr.call("heisenberg", "svn", g.stone_von_neumann, group, job.get("psi_unit", 1))
        tr.call("heisenberg", "faithful", g.check_faithful, rep)
        tr.call("heisenberg", "character",
                lambda: [rep.character(x).to_json() for x in group.elements()])
    elif command == "hasse-davenport":
        datum = tr.call("charsum", "from_json", g.QuadDatum.from_json, job["datum"])
        tr.call("charsum", "hd", g.hasse_davenport_check, datum, job["r"],
                n_max=job.get("n_max", 3), workers=workers, override=override)
    elif command == "char-sum":
        datum = tr.call("charsum", "from_json", g.QuadDatum.from_json, job["datum"])
        tr.call("charsum", "char_sum", g.char_sum, datum, job.get("n", 1),
                workers=workers, override=override)
    elif command == "kernel":
        datum = tr.call("charsum", "from_json", g.QuadDatum.from_json, job["datum"])
        tr.call("charsum", "kernel", g.geometric_kernel, datum, override=override)
    elif command == "clb-normalize":
        datum = tr.call("charsum", "from_json", g.QuadDatum.from_json, job["datum"])
        pairing = tr.call("charsum", "symbolic_pairing", g.symbolic_pairing, datum)
        if datum.d == 1:
            canon = tr.call("charsum", "canonical", g.canonical_quadratic, pairing)
            tr.call("charsum", "symbolic_pairing", g.symbolic_pairing, canon)
    elif command == "clb-cocycle":
        f = tr.call("fields", "from_json", fields.FiniteField.from_json, job["field"])
        tr.call("charsum", "cocycle", g.clb_cocycle_identity_check, job["i"],
                f.element(job["a"]), f, job.get("n", 1), override=override)
    elif command == "invariance":
        datum = tr.call("charsum", "from_json", g.QuadDatum.from_json, job["datum"])
        f = datum.field
        mats = [[[f.element(c) for c in row] for row in m] for m in job["matrices"]]
        tr.call("charsum", "invariance", g.invariance_check, datum, mats,
                job.get("n", 1), override=override)
    elif command in ("zeta", "supersingular") and "curve" in job:
        spec = tr.call("varieties", "from_json", g.CurveSpec.from_json, job["curve"])
        b = tr.call("varieties", "betti", g.betti_prediction, spec, override=override)
        tr.call("varieties", "zeta", g.zeta_pipeline, spec, b, override=override)
        if command == "zeta":
            tr.call("varieties", "closure", g.betti_closure_check, spec, override=override)
    elif command == "supersingular":
        spec = tr.call("varieties", "from_json", g.SurfaceSpec.from_json, job["surface"])
        tr.call("varieties", "surface", g.surface_summand_certificates, spec,
                n_max=job.get("n_max", 3), override=override)
        tr.call("varieties", "surface", g.surface_counts, spec, 1, override=override)
    elif command == "endw2-verify":
        from gausslab.varieties import mutated_endomorphism

        f = tr.call("fields", "from_json", fields.FiniteField.from_json, job["field"])
        coeffs = {int(i): f.element(c) for i, c in job["f"].items()}
        r_poly = g.AdditivePolynomial.from_json(f, job["r"]) if job.get("r") else None
        endo = tr.call("varieties", "w2", g.w2_endomorphism, f, coeffs, r_poly)
        n = job.get("n", 1)
        tr.call("varieties", "verify_additive", g.verify_additive, endo, n, override=override)
        bad = mutated_endomorphism(endo, delta_exp=job.get("mutate_exp", 0))
        tr.call("varieties", "verify_additive", g.verify_additive, bad, n, override=override)
    else:
        raise ValueError(f"no replay for command {command!r}")


def layer_shares(tr):
    """Per layer: self seconds, share of all self time, and share of the time
    in the replay's own calls into that layer (children included)."""
    own, calls = {}, {}
    spans = tr.spans
    for (name, layer, start, end, parent), t in zip(spans, tr.self_times()):
        own[layer] = own.get(layer, 0.0) + t
        if parent is not None and spans[parent][1] == "bench":
            calls[layer] = calls.get(layer, 0.0) + end - start
    total_own = sum(own.values()) or 1.0
    total_calls = sum(calls.values()) or 1.0
    return {
        layer: (own[layer], own[layer] / total_own, calls.get(layer, 0.0) / total_calls)
        for layer in sorted(own)
    }


# -- probes ------------------------------------------------------------------------

def _median_time(fn, reps, inner=1):
    """Median seconds per call over `reps` timings of `inner` calls."""
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        for _ in range(inner):
            fn()
        times.append((time.perf_counter() - t) / inner)
    return statistics.median(times)


def _field_probes(rng, reps):
    from gausslab.fields import Embedding, FiniteField, absolute_trace, make_field

    out = {}
    for tag, (p, m) in (("F256", (2, 8)), ("F81", (3, 4))):
        f = make_field(p, m)
        els = list(f.elements())
        xs = [rng.choice(els[1:]) for _ in range(64)]
        pairs = list(zip(xs, xs[1:] + xs[:1]))
        out[f"fields.mul_us.{tag}"] = 1e6 * _median_time(
            lambda: [a * b for a, b in pairs], reps) / len(pairs)
        out[f"fields.frobenius_us.{tag}"] = 1e6 * _median_time(
            lambda: [a.frobenius() for a in xs], reps) / len(xs)
        out[f"fields.trace_us.{tag}"] = 1e6 * _median_time(
            lambda: [absolute_trace(a) for a in xs], reps) / len(xs)
    small = make_field(2, 2)
    out["fields.extension_ms"] = 1000 * _median_time(
        lambda: Embedding(small, FiniteField(2, 8)), reps)
    return out


def _exactalg_probes(rng, reps):
    from gausslab.exactalg import zeta_sum

    out = {}
    for n in (9, 625):
        a = zeta_sum(n, {k: rng.randrange(-3, 4) for k in range(n)})
        b = zeta_sum(n, {k: rng.randrange(-3, 4) for k in range(n)})
        inner = 20 if n == 9 else 1
        out[f"exactalg.cyc_mul_us.N{n}"] = 1e6 * _median_time(lambda: a * b, reps, inner)
    hist = {k: rng.randrange(1, 100) for k in range(9)}
    out["exactalg.zeta_sum_ms"] = 1000 * _median_time(lambda: zeta_sum(9, hist), reps, 20)
    return out


def _battery(seed):
    """Representative jobs for the span-measured call metrics, fixed by seed."""
    from gausslab.corpus import catalog_data, corpus

    from workloads import char_sum_job, curve_seeds, form_job

    s = random.Random(f"battery:{seed}").randrange(8)
    fixtures = corpus()
    catalog = {name: (datum, r) for name, datum, r, _ in catalog_data()}
    hd = [{"datum": catalog[n][0].to_json(), "r": catalog[n][1], "n_max": 3}
          for n in ("diag-x3-f4", "diag-x4-f9")]
    _, curve = curve_seeds(2, 1, 6, s + 1)[s]
    return [
        ("gauss-verify", form_job([25], s).input),
        ("gauss-verify", form_job([2] * 6, s).input),
        ("char-sum", char_sum_job(2, 2, 1, s).input),
        ("char-sum", char_sum_job(3, 1, 1, s).input),
        ("hasse-davenport", hd[0]),
        ("hasse-davenport", hd[1]),
        ("kernel", fixtures["diag-x10-f3-kernel"]["input"]),
        ("invariance", fixtures["unitary-inv-f4"]["input"]),
        ("clb-cocycle", fixtures["clb-cocycle-i1-f4"]["input"]),
        ("heisenberg", fixtures["heis-from-datum-p3"]["input"]),
        ("zeta", {"curve": curve.to_json()}),
        ("supersingular", fixtures["surface-p3"]["input"]),
    ], curve


def _cli_probes(root, env, reps):
    """Cold-start costs of the command line, each in fresh child processes."""
    from gausslab.corpus import corpus

    py = sys.executable
    fixture = corpus()["diag-x3-f4-hd"]
    job_path = os.path.join(root, "bench", "out", "probe-job.json")
    with open(job_path, "w") as fh:
        json.dump(fixture["input"], fh)

    def child(code):
        proc = subprocess.run([py, "-c", code], env=env, cwd=root, capture_output=True,
                              text=True, timeout=120, check=True)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def interpreter():
        t = time.perf_counter()
        subprocess.run([py, "-c", "pass"], env=env, cwd=root, check=True, timeout=60)
        return time.perf_counter() - t

    out = {"cli.interpreter_ms": 1000 * statistics.median(interpreter() for _ in range(reps))}
    imports, firsts, warms, renders = [], [], [], []
    code = (
        "import io, json, os, sys, time\n"
        "t = time.perf_counter(); from gausslab import cli; imp = time.perf_counter() - t\n"
        f"job = json.load(open({job_path!r}))\n"
        "opts = {'ext': None, 'workers': os.cpu_count() or 1, 'seed': 0, 'override': False}\n"
        "t = time.perf_counter(); cli.dispatch('hasse-davenport', job, opts); first = time.perf_counter() - t\n"
        "cli.dispatch('hasse-davenport', job, opts)\n"
        "t = time.perf_counter(); cli.dispatch('hasse-davenport', job, opts); warm = time.perf_counter() - t\n"
        "buf, sys.stdout = sys.stdout, io.StringIO()\n"
        f"t = time.perf_counter(); cli.main(['hasse-davenport', '--input', {job_path!r}]); main = time.perf_counter() - t\n"
        "text, sys.stdout = sys.stdout.getvalue(), buf\n"
        "print(json.dumps([imp, first, warm, main - json.loads(text)['timing_ms'] / 1000]))\n"
    )
    for _ in range(reps):
        imp, first, warm, render = child(code)
        imports.append(imp)
        firsts.append(first)
        warms.append(warm)
        renders.append(render)
    out["cli.import_ms"] = 1000 * statistics.median(imports)
    out["cli.first_dispatch_ms"] = 1000 * statistics.median(firsts)
    out["cli.warm_dispatch_ms"] = 1000 * statistics.median(warms)
    out["cli.render_ms"] = 1000 * statistics.median(renders)
    return out


def probe_metrics(seed, root, env, options, reps=3):
    """Every per-layer metric except the tracing overhead."""
    import gausslab as g
    from gausslab.quadform import FiniteAbelianGroup, QuadraticForm, random_nondegenerate

    from workloads import standard_pairing

    rng = random.Random(f"probes:{seed}")
    out = {}
    for tag, moduli in (("M64", [4, 4, 4]), ("M256", [16, 16]), ("M512", [8, 8, 8])):
        form = random_nondegenerate(FiniteAbelianGroup(moduli), rng.randrange(8))
        out[f"quadform.construct_ms.{tag}"] = 1000 * _median_time(
            lambda: QuadraticForm(form.group, form.value_order, form.exponents), reps)
    out.update(_exactalg_probes(rng, reps))
    out.update(_field_probes(rng, reps))

    battery, curve = _battery(seed)
    tr = Tracer()
    for command, job in battery:
        with tr.span(command, "bench"):
            replay(tr, command, job, options)
    totals = tr.totals()
    for metric, layer, name in (
        ("quadform.from_json_ms", "quadform", "from_json"),
        ("quadform.is_quadratic_ms", "quadform", "is_quadratic"),
        ("quadform.gauss_sum_ms", "quadform", "gauss_sum"),
        ("quadform.recursive_ms", "quadform", "recursive"),
        ("quadform.char2_ms", "quadform", "char2"),
        ("exactalg.abs_square_ms", "exactalg", "abs_square"),
        ("exactalg.root_of_unity_ms", "exactalg", "root_of_unity"),
        ("charsum.char_sum_ms", "charsum", "char_sum"),
        ("charsum.hd_ms", "charsum", "hd"),
        ("charsum.kernel_ms", "charsum", "kernel"),
        ("charsum.invariance_ms", "charsum", "invariance"),
        ("charsum.cocycle_ms", "charsum", "cocycle"),
        ("heisenberg.from_datum_ms", "heisenberg", "from_datum"),
        ("varieties.betti_ms", "varieties", "betti"),
        ("varieties.zeta_ms", "varieties", "zeta"),
        ("varieties.surface_ms", "varieties", "surface"),
    ):
        out[metric] = 1000 * totals.get((layer, name), 0.0)
    points = sum(
        g.QuadDatum.from_json(job["datum"]).field.q ** (job["n"] * job["datum"]["d"])
        for command, job in battery if command == "char-sum"
    )
    out["charsum.points"] = points
    out["charsum.point_us"] = 1000 * out["charsum.char_sum_ms"] / points

    data = g.zeta_pipeline(curve, override=options.get("override", False))
    out["exactalg.weil_certificate_ms"] = 1000 * _median_time(
        lambda: g.weil_certificate(data.l_poly, data.q, 1), reps)
    out["varieties.count_points_ms"] = 1000 * _median_time(
        lambda: g.count_points(curve, data.betti), reps)

    for tag, (moduli, amod) in (("H27", ([3, 3], 3)), ("H32", ([2, 2, 2, 2], 2)),
                                ("H64", ([4, 4], 4))):
        spec = standard_pairing(moduli, amod)
        pairing = g.AlternatingPairing(FiniteAbelianGroup(moduli), amod, spec["table"])
        t = time.perf_counter()
        group = g.build_group(pairing)
        out[f"heisenberg.build_ms.{tag}"] = 1000 * (time.perf_counter() - t)
        if tag != "H32":
            out[f"heisenberg.svn_ms.{tag}"] = 1000 * _median_time(
                lambda: g.stone_von_neumann(group, 1), reps)
    out.update(_cli_probes(root, env, reps))
    return out
