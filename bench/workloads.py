"""Seeded job streams for the three benchmark workloads.

A job is one call of `gausslab.cli.dispatch` (in-process workloads) or one
`python -m gausslab.cli` process (cli-corpus).  Every job has a key that names
its exact input.  Seeds only choose among a finite pool of inputs per slot
(`POOL`), so the expected-output table `expected_digests.json` covers every
seed; `run.py --record-digests` rebuilds it from `pool_jobs`.

Each slot keeps the shape of its input fixed (group, field, Betti number,
extension degree) and lets the seed pick coefficients, so the work per pass
does not depend on the seed.
"""

import random
from dataclasses import dataclass, field
from math import gcd

POOL = 8

# groups: (invariant factors) of the gauss-verify forms; cheap slots first so
# the first job of each command is the warm-up job.  Z/25 and Z/30 take two
# forms per pass so that large-order cyclotomic work (exactalg) is ~20% of it.
CYCLIC_GROUPS = ([16], [9, 9], [25], [25], [30], [30], [5, 25])
WIDE_GROUPS = ([2] * 6, [3] * 4, [4] * 3, [5] * 3, [16, 16], [8, 8, 8])
# standard alternating pairings: (moduli of K, modulus of A); |H| = 8, 27, 32.
# |H| = 64 (a single job of ~8 s) is measured by the traced run only.
PAIRINGS = (([2, 2], 2), ([3, 3], 3), ([2, 2, 2, 2], 2))
# data a*x^(p^i+1) over F_p: (p, i); |H| = 8, 27, 32
DATUM_GROUPS = ((2, 1), (3, 1), (2, 2))

# points: (p, m, d) of the seeded char-sum data, all at n = 4
CHAR_SUM_SLOTS = ((2, 1, 2), (3, 1, 1), (2, 2, 1), (3, 2, 1))
KERNEL_SLOTS = ((2, 2, 1), (3, 1, 2))  # (p, m, i): a*x^(p^i+1)
COCYCLE_SLOTS = (1, 2)  # i, over F_4 at n = 2
# (command, p, m, Betti number) of the seeded random_curve_spec curves
CURVE_SLOTS = (
    ("zeta", 2, 2, 2),
    ("zeta", 2, 1, 6),
    ("supersingular", 2, 1, 2),
    ("supersingular", 3, 1, 2),
)


@dataclass
class Job:
    """One job: `key` names the exact input and indexes the digest table."""

    key: str
    command: str
    input: dict
    expect: dict = field(default_factory=dict)


def _rng(*parts):
    return random.Random(":".join(str(p) for p in parts))


def _form_descriptor(form):
    """The integer-valued descriptor the README documents for forms."""
    g = form.group
    return {
        "invariant_factors": list(g.moduli),
        "value_order": form.value_order,
        "values": {",".join(map(str, g.decode(i))): e for i, e in enumerate(form.exponents)},
    }


def standard_pairing(moduli, a_modulus):
    """The standard alternating pairing sum_k (x_{2k} y_{2k+1} - x_{2k+1} y_{2k})."""
    from gausslab.quadform import FiniteAbelianGroup

    g = FiniteAbelianGroup(moduli)
    tuples = [g.decode(i) for i in range(g.order)]
    table = [
        [
            sum(a[2 * k] * b[2 * k + 1] - a[2 * k + 1] * b[2 * k] for k in range(len(moduli) // 2))
            % a_modulus
            for b in tuples
        ]
        for a in tuples
    ]
    return {"moduli": list(moduli), "a_modulus": a_modulus, "table": table}


def _tag(moduli):
    return "x".join(f"Z{d}" for d in moduli)


def _nonzero(field_, rng):
    return list(rng.choice(list(field_.elements())[1:]).coeffs)


# -- groups -------------------------------------------------------------------

def form_job(moduli, s):
    from gausslab.quadform import FiniteAbelianGroup, random_nondegenerate

    group = FiniteAbelianGroup(moduli)
    form = random_nondegenerate(group, s)
    return Job(
        f"groups/gauss-verify/{_tag(moduli)}/s{s}",
        "gauss-verify",
        {"form": _form_descriptor(form)},
        {"abs_square": str(group.order), "checks": ["recursive-oracle-agrees"]},
    )


def _pairing_job(moduli, a_modulus, psi):
    k_order = 1
    for d in moduli:
        k_order *= d
    dim = round(k_order ** 0.5)
    return Job(
        f"groups/heisenberg/{_tag(moduli)}-A{a_modulus}/psi{psi}",
        "heisenberg",
        {"pairing": standard_pairing(moduli, a_modulus), "psi_unit": psi},
        {"order": a_modulus * k_order, "svn_dim": dim, "faithful": True},
    )


def _datum_job(p, i, a):
    from gausslab.fields import make_field

    f = make_field(p, 1)
    datum = {"field": f.to_json(), "d": 1, "terms": [{"kind": "diag", "j": 0, "i": i, "a": [a]}]}
    kernel = p ** (2 * i)
    return Job(
        f"groups/heisenberg/datum-F{p}-i{i}/a{a}",
        "heisenberg",
        {"from_datum": datum},
        {"order": p * kernel, "svn_dim": p**i, "faithful": True, "kernel_size": kernel},
    )


def _groups_slots():
    """(pool size, factory(pool index) -> Job) per slot of `groups`."""
    slots = []
    for moduli in CYCLIC_GROUPS + WIDE_GROUPS:
        slots.append((POOL, lambda s, m=moduli: form_job(m, s)))
    for moduli, amod in PAIRINGS:
        units = [u for u in range(1, amod) if gcd(u, amod) == 1]
        slots.append((len(units), lambda s, m=moduli, a=amod, us=units: _pairing_job(m, a, us[s])))
    for p, i in DATUM_GROUPS:
        slots.append((p - 1, lambda s, p=p, i=i: _datum_job(p, i, s + 1)))
    return slots


# -- points -------------------------------------------------------------------

def char_sum_job(p, m, d, s):
    from gausslab.fields import make_field

    f = make_field(p, m)
    rng = _rng("char-sum", p, m, d, s)
    terms = [{"kind": "diag", "j": 0, "i": 1, "a": _nonzero(f, rng)}]
    if d == 2:
        terms.append({"kind": "cross", "j": 0, "k": 1, "i": 1, "a": _nonzero(f, rng)})
        terms.append({"kind": "diag", "j": 1, "i": 1, "a": _nonzero(f, rng)})
    else:
        terms.append({"kind": "cross", "j": 0, "k": 0, "i": 0, "a": _nonzero(f, rng)})
    datum = {"field": f.to_json(), "d": d, "terms": terms}
    return Job(f"points/char-sum/F{f.q}-d{d}/s{s}", "char-sum", {"datum": datum, "n": 4}, {"n": 4})


def _kernel_job(p, m, i, s):
    from gausslab.fields import make_field

    f = make_field(p, m)
    a = _nonzero(f, _rng("kernel", p, m, i, s))
    datum = {"field": f.to_json(), "d": 1, "terms": [{"kind": "diag", "j": 0, "i": i, "a": a}]}
    return Job(f"points/kernel/F{f.q}-i{i}/s{s}", "kernel", {"datum": datum}, {"even_p_power": p})


def _cocycle_job(i, s):
    from gausslab.fields import make_field

    f = make_field(2, 2)
    a = _nonzero(f, _rng("cocycle", i, s))
    return Job(
        f"points/clb-cocycle/F4-i{i}/s{s}",
        "clb-cocycle",
        {"field": f.to_json(), "i": i, "a": a, "n": 2},
        {"holds": True},
    )


def _unitary_job(s, matrices):
    """a*x^3 over F_4 under the unitary scalars of the corpus fixture."""
    from gausslab.fields import make_field

    f = make_field(2, 2)
    a = _nonzero(f, _rng("unitary", s))
    datum = {"field": f.to_json(), "d": 1, "terms": [{"kind": "diag", "j": 0, "i": 1, "a": a}]}
    return Job(
        f"points/invariance/unitary-F4/s{s}",
        "invariance",
        {"datum": datum, "matrices": matrices, "n": 2},
        {"invariant": True},
    )


def curve_seeds(p, m, betti, count):
    """The first `count` random_curve_spec seeds whose curve has this Betti number."""
    from gausslab.fields import make_field
    from gausslab.varieties import betti_prediction, random_curve_spec

    f = make_field(p, m)
    out, s = [], 0
    while len(out) < count:
        spec = random_curve_spec(f, s)
        if betti_prediction(spec) == betti:
            out.append((s, spec))
        s += 1
    return out


def _curve_job(command, p, m, betti, s, spec):
    return Job(
        f"points/{command}/F{p**m}-b{betti}/s{s}",
        command,
        {"curve": spec.to_json()},
        {"ok": True, "betti": betti},
    )


def _points_slots():
    from gausslab import corpus
    from gausslab.fields import make_field
    from gausslab.varieties import SurfaceSpec

    slots = []
    # the bundled catalog; the two data whose Galois chain is expected to
    # fail are negative controls: a passing chain counts as a failure
    for name, datum, r, chain in corpus.catalog_data():
        job = Job(
            f"points/hasse-davenport/{name}",
            "hasse-davenport",
            {"datum": datum.to_json(), "r": r, "n_max": 3},
            {"chain": chain},
        )
        slots.append((1, lambda s, j=job: j))
    for p, m, d in CHAR_SUM_SLOTS:
        slots.append((POOL, lambda s, a=(p, m, d): char_sum_job(*a, s)))
    for p, m, i in KERNEL_SLOTS:
        slots.append((POOL, lambda s, a=(p, m, i): _kernel_job(*a, s)))
    fixtures = corpus.corpus()
    unitary = fixtures["unitary-inv-f4"]["input"]["matrices"]
    slots.append((POOL, lambda s: _unitary_job(s, unitary)))
    gl1 = fixtures["gl1-inv-f4"]
    slots.append((1, lambda s: Job("points/invariance/gl1-inv-f4", "invariance", gl1["input"],
                                   {"invariant": True})))
    for i in COCYCLE_SLOTS:
        slots.append((POOL, lambda s, i=i: _cocycle_job(i, s)))
    for command, p, m, betti in CURVE_SLOTS:
        slots.append((
            POOL, lambda s, a=(command, p, m, betti): _curve_job(*a, *curve_seeds(*a[1:], s + 1)[s])
        ))
    for p in (2, 3):
        f = make_field(p, 1)
        job = Job(
            f"points/supersingular/surface-p{p}",
            "supersingular",
            {"surface": SurfaceSpec(f, {0: f.one()}).to_json(), "n_max": 3},
            {"ok": True},
        )
        slots.append((1, lambda s, j=job: j))
    return slots


# -- cli-corpus -----------------------------------------------------------------

def corpus_jobs():
    from gausslab.corpus import corpus

    return [
        Job(f"cli-corpus/{name}", entry["command"], entry["input"], entry.get("expect", {}))
        for name, entry in sorted(corpus().items())
    ]


# -- streams ----------------------------------------------------------------------

WORKLOADS = ("groups", "points", "cli-corpus")


def _slots(workload):
    return _groups_slots() if workload == "groups" else _points_slots()


def stream(workload, seed):
    """(jobs in run order, warm-up jobs) for one run of a workload.

    In-process workloads take one pool entry per slot; the warm-up is the first
    slot of each command.  cli-corpus runs every fixture in a seeded order and
    has no warm-up.
    """
    rng = _rng(workload, seed)
    if workload == "cli-corpus":
        jobs = corpus_jobs()
        rng.shuffle(jobs)
        return jobs, []
    jobs = [factory(rng.randrange(size)) for size, factory in _slots(workload)]
    warmup = {}
    for job in jobs:
        warmup.setdefault(job.command, job)
    rng.shuffle(jobs)
    return jobs, list(warmup.values())


def pool_jobs(workload):
    """Every job any seed can draw, for recording the digest table."""
    if workload == "cli-corpus":
        return corpus_jobs()
    return [factory(s) for size, factory in _slots(workload) for s in range(size)]
