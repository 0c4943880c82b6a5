"""Finitely presented infinite spaces, analyzed at a cutoff with certificates.

A :class:`FamilySpace` has countably many indexed points (plus named extra
points) and a distance rule from a closed catalog.  Infinite claims about
such a space are never guessed: each analyzer first verifies a closed-form
certificate against every in-window instance, and only then uses the
analytic tail meaning of that certificate.  Claims come back tri-state
(True / False / None for undecidable-at-cutoff).

Catalog of rules:

* ``coordinate-projection``      d(x, y) = value(y)
* ``truncated-difference``       d(x, y) = (value(x) - value(y))+
* ``order-characteristic``       d(x, y) = 0 if value(x) <= value(y) else inf
* ``sup-truncated-difference``   d over coordinate vectors, sup of
  truncated coordinate differences over all coordinates

Catalog of value forms for indexed points: ``one_minus_unit``
(n -> 1 - 1/(n+1), an increasing chain with supremum 1) and ``natural``
(n -> n).  The ``sup-truncated-difference`` rule uses the built-in
vector family n -> (inf, ..., inf, 0, 1/(n+1), 1/(n+2), ...).  Two such
vectors x_m and x_k agree on every coordinate below min(m, k) (both inf,
and (inf - inf)+ = 0) and above max(m, k) (both 1/j), so the sup over all
coordinates is the sup over the finitely many from min(m, k) to max(m, k).
Coordinate j of x_m depends on m only through the sign of j - m, so for a
fixed target q the truncated difference at coordinate j takes one value
for every m > j, one at m = j and one for every m < j.  A prefix max and a
suffix max over j therefore give the whole column d(x_1, q), d(x_2, q),
... in one linear sweep (``FamilySpace._vector_column``), and the c^2
pairs of the ``fm.pairwise`` certificate cost O(c^2) in all.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from itertools import accumulate

from .extreal import INF, ONE, ZERO, ExtReal
from .space import PreconditionError, SpaceError, refuse_unknown_keys

VALUE_RULES = ("coordinate-projection", "truncated-difference", "order-characteristic")
RULES = VALUE_RULES + ("sup-truncated-difference",)
VALUE_FORMS = ("one_minus_unit", "natural")
# params keys each rule reads; any other key is rejected, not ignored
VALUE_PARAMS = ("values", "extras")
VECTOR_PARAMS = ("prefix",)
SEQ_KINDS = ("identity", "swap-pairs", "constant", "swap-odd")
# Largest cutoff a family space or gallery fixture accepts; above it they
# raise PreconditionError (exit 3) before any work.  The vector rule's
# certificate is the slowest family check: it compares all c^2 index pairs
# with the closed form, quadratic in the cutoff by the column sweep.
# `qml check` on it took 0.46-0.56 s at cutoff 256, process start included
# (three runs, 2-vCPU VM, Python 3.11).
MAX_CUTOFF = 256


class CertificateError(AssertionError):
    """A certificate failed its in-window verification (bug signal)."""


class UndecidableAtCutoff(ValueError):
    """No certificate covers the requested claim for this rule/sequence."""


# FamilySpace's ``params`` when none is given: a new empty dict each time
_NO_PARAMS = object()


class FamilySpace(namedtuple("FamilySpace", "rule cutoff params")):
    """A family rule truncated at ``cutoff``, with its ``params`` object.

    Equality is identity, as each space owns its caches.  Instances keep
    a ``__dict__`` (no ``__slots__``) for the cached properties below.
    """

    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__

    def __new__(cls, rule, cutoff, params=_NO_PARAMS):
        self = tuple.__new__(cls, (rule, cutoff, {} if params is _NO_PARAMS else params))
        if self.rule not in RULES:
            raise SpaceError(f"unknown family rule {self.rule!r}")
        if self.cutoff < 4:
            raise SpaceError("cutoff must be at least 4")
        _check_params(self.rule, self.params)
        check_cutoff_ceiling(self.cutoff)
        # an extra may not take the label of any x_n: each label names one
        # point, and a witness may name an x_n past the window
        for label in self.params.get("extras", {}):
            n = self.index_of(label)
            if n is not None:
                raise SpaceError(f"extra point {label!r} has the label of "
                                 f"indexed point {n}")
        return self

    # -- points ------------------------------------------------------------

    @property
    def prefix(self) -> str:
        return self.params.get("prefix", "x")

    @cached_property
    def extras(self) -> dict:
        # ``_check_params`` has read every value as rational text, so no
        # extra is infinite
        return {k: ExtReal.parse(v) for k, v in self.params.get("extras", {}).items()}

    def indexed(self, n: int):
        return ("i", n)

    def points(self) -> list:
        """All in-window point descriptors: extras first, then indexed."""
        pts = [("e", k) for k in self.params.get("extras", {})]
        pts += [("i", n) for n in range(1, self.cutoff + 1)]
        return pts

    def label(self, pt) -> str:
        kind, v = pt
        if kind == "e":
            return v
        if self.rule in VALUE_RULES:
            return str(self.value(pt))
        return f"{self.prefix}{v}"

    def index_of(self, label: str) -> int | None:
        """The n whose x_n has this label, or None.

        The label of x_n is ``n/(n+1)``, ``n`` or ``prefix + n``, so n is
        read from the label's digits and accepted only if x_n's label is
        the label itself (``"03/4"`` and ``"3/5"`` name no point).  A label
        too long for ``int`` and ``str`` names none either.
        """
        if self.rule in VALUE_RULES:
            digits = label.partition("/")[0]
        else:
            digits = label[len(self.prefix):] if label.startswith(self.prefix) else ""
        if not (digits.isascii() and digits.isdigit()):
            return None
        try:
            n = int(digits)
            return n if n >= 1 and self.label(self.indexed(n)) == label else None
        except ValueError:
            return None

    def point_by_label(self, label: str):
        if label in self.params.get("extras", {}):
            return ("e", label)
        n = self.index_of(label)
        if n is None or n > self.cutoff:
            raise SpaceError(f"unknown point {label!r}")
        return self.indexed(n)

    # -- values and distances ----------------------------------------------

    def value(self, pt) -> ExtReal:
        """Exact value of a point (value-based rules only)."""
        kind, v = pt
        if kind == "e":
            return self.extras[v]
        if self.params.get("values", "one_minus_unit") == "one_minus_unit":
            return ExtReal(v, v + 1)
        return ExtReal(v)

    def coord(self, pt, j: int) -> ExtReal:
        """Coordinate j of an indexed vector point (sup-trunc-diff rule)."""
        m = _vector_index(pt)
        if j < m:
            return INF
        if j == m:
            return ZERO
        return ExtReal(1, j)

    @cached_property
    def _dist_cache(self) -> dict:
        """Vector rule: target point q -> its column, see ``_vector_column``."""
        return {}

    @cached_property
    def _verified(self) -> dict:
        """Certificate id -> outcome of its in-window check, so each check
        runs once per space however many analyzers read it."""
        return {}

    def dist(self, p, q) -> ExtReal:
        if self.rule == "coordinate-projection":
            return self.value(q)
        if self.rule == "truncated-difference":
            return self.value(p).tsub(self.value(q))
        if self.rule == "order-characteristic":
            return ZERO if self.value(p) <= self.value(q) else INF
        # sup-truncated-difference: one cached column per target point
        m = _vector_index(p)
        col = self._dist_cache.get(q)
        if col is None or m >= len(col):
            col = self._dist_cache[q] = self._vector_column(q, max(self.cutoff, m, q[1]))
        return col[m]

    def _vector_column(self, q, top: int) -> list:
        """[None, d(x_1, q), ..., d(x_top, q)] in one O(top) sweep, for an
        indexed q = x_k with k <= top.

        Coordinate j of x_m is inf for j < m, 0 at j = m and 1/j for
        j > m, so d(x_m, q) is the largest of three terms:

        * a prefix max of (inf - q_j)+ over j < m;
        * (0 - q_m)+;
        * a suffix max of (1/j - q_j)+ over m < j <= top.  Past top, x_m
          and q both have coordinate 1/j, so their difference there is 0.

        Each term is still read off the coordinate definition through
        ``coord`` and ``tsub``: the column does not assume the closed form
        that the ``fm.pairwise`` certificate checks.
        """
        js = range(1, top + 1)
        q_at = [self.coord(q, j) for j in js]
        # coordinate j of some x_m with m > j, with m = j and with m < j
        past = [self.coord(self.indexed(j + 1), j).tsub(qj) for j, qj in zip(js, q_at)]
        diag = [self.coord(self.indexed(j), j).tsub(qj) for j, qj in zip(js, q_at)]
        ahead = [self.coord(self.indexed(j - 1), j).tsub(qj) for j, qj in zip(js, q_at)]
        below = list(accumulate(past, max, initial=ZERO))    # below[i]: j <= i
        above = list(accumulate(reversed(ahead), max, initial=ZERO))[::-1]  # above[i]: j > i
        return [None] + [max(below[m - 1], diag[m - 1], above[m]) for m in js]

    def to_dict(self) -> dict:
        return {"rule": self.rule, "cutoff": self.cutoff, "params": self.params}


def _check_params(rule: str, params) -> None:
    """Reject any ``params`` the rule would not read exactly as written."""
    if not isinstance(params, dict):
        raise SpaceError("'params' must be a JSON object")
    allowed = VALUE_PARAMS if rule in VALUE_RULES else VECTOR_PARAMS
    unknown = sorted(set(params) - set(allowed))
    if unknown:
        raise SpaceError(f"unknown params {unknown} for rule {rule!r} "
                         f"(allowed: {', '.join(allowed)})")
    if params.get("values", "one_minus_unit") not in VALUE_FORMS:
        raise SpaceError(f"unknown value form {params['values']!r}")
    extras = params.get("extras", {})
    if not isinstance(extras, dict):
        raise SpaceError("'extras' must map point labels to rational text")
    for label, text in extras.items():
        try:
            value = ExtReal.parse(text)
        except ValueError as e:
            raise SpaceError(f"extra point {label!r}: {e}") from None
        if value.is_inf:
            raise SpaceError(f"extra point {label!r}: infinity is not a rational")
    if not isinstance(params.get("prefix", "x"), str):
        raise SpaceError("'prefix' must be a string")


def _vector_index(pt) -> int:
    kind, m = pt
    if kind != "i":
        raise SpaceError("vector rules have no extra points")
    return m


def check_cutoff_ceiling(cutoff: int) -> None:
    if cutoff > MAX_CUTOFF:
        raise PreconditionError(f"cutoff {cutoff} exceeds the ceiling {MAX_CUTOFF}")


def family_from_dict(data: dict) -> FamilySpace:
    try:
        rule, cutoff = data["rule"], data["cutoff"]
        params = data.get("params", {})
    except (KeyError, TypeError):
        raise SpaceError("family file needs 'rule', 'cutoff' and optional 'params'") from None
    refuse_unknown_keys(data, ("rule", "cutoff", "params"), "family")
    # a JSON integer only: no text, float or boolean is read as a cutoff
    if isinstance(cutoff, bool) or not isinstance(cutoff, int):
        raise SpaceError(f"cutoff {cutoff!r} is not an integer")
    return FamilySpace(rule, cutoff, params)


class FamilySeq(namedtuple("FamilySeq", "space kind point")):
    """Catalog-form sequence k -> point over a family space (k >= 1);
    ``point`` is the label of a constant sequence's point.  Equality is
    identity, as for ``FamilySpace``."""

    __slots__ = ()
    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__

    def __new__(cls, space, kind, point=None):
        if kind not in SEQ_KINDS:
            raise SpaceError(f"unknown sequence kind {kind!r}")
        if kind == "constant" and point is None:
            raise SpaceError("constant sequences need a point")
        return tuple.__new__(cls, (space, kind, point))

    def term(self, k: int):
        if k < 1:
            raise ValueError("positions start at 1")
        if self.kind == "identity":
            return self.space.indexed(k)
        if self.kind == "swap-pairs":
            return self.space.indexed(k + 1 if k % 2 == 1 else k - 1)
        if self.kind == "swap-odd":
            return self.space.indexed(2 * k)
        return self.space.point_by_label(self.point)

    def window(self) -> int:
        n = self.space.cutoff
        if self.kind == "swap-pairs":
            return n - 1 if n % 2 == 1 else n
        if self.kind == "swap-odd":
            return n // 2
        return n


class Claim(namedtuple("Claim", "value certificates note", defaults=((), ""))):
    """Tri-state verdict: True/False with certificates, or None (undecidable)."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {"value": self.value, "certificates": list(self.certificates),
                "note": self.note}


class FamilyClasses(namedtuple("FamilyClasses", "reflexive pre_cauchy cauchy")):
    __slots__ = ()


class CandidateRejection(namedtuple("CandidateRejection",
                                    "candidate center topology limit required")):
    """Finite witness that a candidate point is not a double-hole limit:
    the ``topology`` whose hole inequality fails at ``center``, the exact
    liminf ``limit`` along the sequence and the distance ``required`` that
    the liminf would need to reach."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {"candidate": self.candidate, "center": self.center,
                "topology": self.topology, "limit": self.limit,
                "required": self.required}


class FamilyCompleteness(namedtuple("FamilyCompleteness",
                                    "complete seq_kind rejections certificates",
                                    defaults=(None, (), ()))):
    """Never claims completeness: False with witnesses, or None."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {"complete": self.complete, "seq_kind": self.seq_kind,
                "rejections": [r.to_dict() for r in self.rejections],
                "certificates": list(self.certificates)}


# ---------------------------------------------------------------------------
# Certificates: each is a named finite verification over the whole window.
# ---------------------------------------------------------------------------

def _check_vector_pairwise(space: FamilySpace) -> bool:
    """d(x_m, x_k) is 0 on the diagonal, 1/k for m < k, inf for m > k.

    Every in-window pair is compared with the closed form through ``dist``.
    The first pair against each x_k computes the whole column d(., x_k) by
    one prefix/suffix-max sweep over the coordinates, since coordinate j
    of x_m depends on m only through the sign of j - m; the other pairs
    read that column.  So the check costs O(c^2), not the O(c^3) of
    summing |m - k| + 1 coordinates for every pair.
    """
    for m in range(1, space.cutoff + 1):
        for k in range(1, space.cutoff + 1):
            got = space.dist(space.indexed(m), space.indexed(k))
            if m == k:
                want = ZERO
            elif m < k:
                want = ExtReal(1, k)
            else:
                want = INF
            if got != want:
                return False
    return True


def _check_chain_increasing(space: FamilySpace) -> bool:
    """Indexed values strictly increase and stay below 1."""
    vals = [space.value(space.indexed(n)) for n in range(1, space.cutoff + 2)]
    return all(a < b for a, b in zip(vals, vals[1:])) and all(v < ONE for v in vals)


def _check_natural_values(space: FamilySpace) -> bool:
    return all(space.value(space.indexed(n)) == ExtReal(n) for n in range(1, space.cutoff + 2))


_CERT_CHECKS = {
    "fm.pairwise": _check_vector_pairwise,
    "chain.increasing_below_one": _check_chain_increasing,
    "naturals.values": _check_natural_values,
}


class Analyzer:
    """Certificate bookkeeping, and the answer for claims no certificate covers.

    This base class serves every rule without a certificate: constant
    sequences are decided from their exact self-distance, and every other
    claim is undecidable at the cutoff (``None`` claims, or
    :class:`UndecidableAtCutoff`).  Each subclass overrides only what its
    certificate decides.
    """

    CERT: str | None = None

    def __init__(self, space: FamilySpace):
        self.space = space

    def cert(self, cert_id: str) -> str:
        verified = self.space._verified
        ok = verified.get(cert_id)
        if ok is None:
            ok = verified[cert_id] = _CERT_CHECKS[cert_id](self.space)
        if not ok:
            raise CertificateError(f"certificate {cert_id} failed in-window verification")
        return cert_id

    def classify(self, seq: FamilySeq) -> FamilyClasses:
        """Tri-state net classes of a sequence."""
        if seq.kind == "constant":
            p = self.space.point_by_label(seq.point)
            zero = self.space.dist(p, p).is_zero()
            claim = Claim(zero, (), "constant sequence: self-distance decides")
            return FamilyClasses(claim, claim, claim)
        missing = Claim(None, (), "no certificate for this rule" if self.CERT is None
                        else f"no certificate for sequence kind {seq.kind}")
        return FamilyClasses(missing, missing, missing)

    def completeness(self) -> FamilyCompleteness:
        return FamilyCompleteness(None)

    def limits(self, seq: FamilySeq, target):
        """Exact (forward, backward, certs) limits of d(x_k, target) and
        d(target, x_k) along the sequence."""
        if seq.kind == "constant":
            p = self.space.point_by_label(seq.point)
            return self.space.dist(p, target), self.space.dist(target, p), ()
        raise UndecidableAtCutoff(f"no limit certificate for {self.space.rule}/{seq.kind}")

    def hole_flags(self, seq: FamilySeq):
        raise UndecidableAtCutoff(f"no limit certificate for {self.space.rule}/{seq.kind}")

    def cauchy_subsequence(self, seq: FamilySeq) -> FamilySeq:
        """Cauchy subsequence of a pre-Cauchy sequence (itself if the
        sequence already certifies Cauchy)."""
        cls = self._pre_cauchy(seq)
        return seq if cls.cauchy.value else self._extract(seq)

    def subnet_equiv(self, seq: FamilySeq) -> Claim:
        """Single-topology convergence agrees between a pre-Cauchy sequence
        and its extracted Cauchy subsequence."""
        cls = self._pre_cauchy(seq)
        if cls.cauchy.value:
            return Claim(True, cls.cauchy.certificates, "subsequence is the sequence itself")
        sub = self._extract(seq)
        a, b = self.hole_flags(seq), self.hole_flags(sub)
        same = all(a[t] == b[t] for t in ("upper_ball", "lower_ball",
                                          "upper_hole", "lower_hole"))
        return Claim(same, tuple(a["certificates"]))

    def _pre_cauchy(self, seq: FamilySeq) -> FamilyClasses:
        cls = self.classify(seq)
        if cls.pre_cauchy.value is None:
            raise UndecidableAtCutoff("pre-Cauchy status undecidable at this cutoff")
        if not cls.pre_cauchy.value:
            raise PreconditionError("sequence is not pre-Cauchy")
        return cls

    def _extract(self, seq: FamilySeq) -> FamilySeq:
        """Cauchy subsequence of a pre-Cauchy sequence that is not Cauchy."""
        raise UndecidableAtCutoff("no extraction certificate for this rule")


class VectorFamilyAnalyzer(Analyzer):
    """The sup-truncated-difference family of all-but-finitely-agreeing
    vectors.  Everything reduces to the verified pairwise closed form.

    Limits of the identity sequence against any x_j: d(x_m, x_j) = inf for
    every m > j and d(x_j, x_m) = 1/m, which tends to 0, so the forward
    limit is inf and the backward limit 0.  The same closed form makes the
    specialization order and the symmetric join discrete (off-diagonal
    distances are 1/k or inf, never 0), so directed sets are singletons and
    Cauchy nets of the join are eventually constant: the order side is
    trivially complete once the certificate holds."""

    CERT = "fm.pairwise"

    def classify(self, seq: FamilySeq) -> FamilyClasses:
        if seq.kind != "identity":
            return super().classify(seq)
        c = self.cert(self.CERT)
        # d(x_m, x_k) = 1/k for m < k, so tail sups vanish in the limit:
        # Cauchy, hence pre-Cauchy and reflexive.
        claim = Claim(True, (c,))
        return FamilyClasses(claim, claim, claim)

    def limits(self, seq: FamilySeq, target):
        if seq.kind != "identity":
            return super().limits(seq, target)
        return INF, ZERO, (self.cert(self.CERT),)

    def completeness(self) -> FamilyCompleteness:
        c = self.cert(self.CERT)
        # liminf_m d(x_{j+1}, x_m) = lim 1/m = 0 < inf = d(x_{j+1}, x_j)
        rejections = tuple(CandidateRejection(
            candidate=self.space.label(self.space.indexed(j)),
            center=self.space.label(self.space.indexed(j + 1)),
            topology="lower_hole", limit="0", required="inf")
            for j in range(1, self.space.cutoff + 1))
        return FamilyCompleteness(False, "identity", rejections, (c,))


class ChainAnalyzer(Analyzer):
    """Truncated-difference space over an increasing chain with extras.

    The chain values increase strictly to 1 without attaining it, so the
    tail limits of (value(c) - value(x_n))+ and (value(x_n) - value(c))+
    are (value(c) - 1)+ and (1 - value(c))+ exactly, and every finite
    subset of the chain is bounded by its largest member (directed).
    """

    CERT = "chain.increasing_below_one"

    def __init__(self, space: FamilySpace):
        if space.rule != "truncated-difference":
            raise SpaceError("chain analysis needs the truncated-difference rule")
        super().__init__(space)

    def classify(self, seq: FamilySeq) -> FamilyClasses:
        if seq.kind != "identity":
            return super().classify(seq)
        c = self.cert(self.CERT)
        # the chain is increasing: d(x_m, x_k) = 0 for m <= k, so every
        # tail sup is 0 and the sequence is Cauchy.
        claim = Claim(True, (c,))
        return FamilyClasses(claim, claim, claim)

    def limits(self, seq: FamilySeq, target):
        if seq.kind != "identity":
            return super().limits(seq, target)
        c = self.cert(self.CERT)
        v = self.space.value(target)
        return ONE.tsub(v), v.tsub(ONE), (c,)

    def chain_suprema(self):
        """Order suprema and metric suprema of the whole chain.

        Upper bounds are the points with value >= 1 (certified: the chain
        approaches 1 without attaining it); metric suprema must also
        reproduce sup_y d(y, z), which tops out at values below 1, so any
        candidate with value above 1 overshoots.
        """
        c = self.cert(self.CERT)
        value, label = self.space.value, self.space.label
        ubs = [pt for pt in self.space.points() if value(pt) >= ONE]
        leq_sups = [pt for pt in ubs if all(value(pt) <= value(z) for z in ubs)]
        d_sups = []
        evidence = {}
        for pt in ubs:
            v = value(pt)
            for z in self.space.points():
                w = value(z)
                # sup over the chain of (value(y) - w)+ equals (1 - w)+ in the
                # limit; the candidate must match it exactly.
                need, got = ONE.tsub(w), v.tsub(w)
                if got != need:
                    evidence[label(pt)] = {"z": label(z), "chain_sup": str(need),
                                           "candidate": str(got)}
                    break
            else:
                d_sups.append(pt)
        return {
            "leq_sups": sorted(label(p) for p in leq_sups),
            "d_sups": sorted(label(p) for p in d_sups),
            "in_window_sup_to_zero": str(value(self.space.indexed(self.space.cutoff))),
            "evidence": evidence,
            "certificates": [c],
        }

    def hole_limit_sets(self):
        """Exact single/double hole limit points of the chain sequence.

        The upper-hole test of a candidate of value v asks (1 - w)+ >=
        (v - w)+ for the value w of every point z, and one test against
        the least-valued point decides it:

        * for v <= 1, v - w <= 1 - w, so the test holds for every w;
        * for v > 1 it holds when w >= v (both sides are 0) and fails when
          w < v (the right side is positive and exceeds the left by
          v - 1 > 0), so it fails for some w exactly when the least w is
          below v, and then it fails at that least w.
        """
        c = self.cert(self.CERT)
        w = self.space.value(self._least_point())
        lower, upper, double = [], [], []
        for pt in self.space.points():
            v = self.space.value(pt)
            lbl = self.space.label(pt)
            # lower hole: (value(c)-1)+ >= (value(c)-v)+ for every point c,
            # including tail chain points; fails iff v < 1.
            lh = v >= ONE
            uh = ONE.tsub(w) >= v.tsub(w)
            if lh:
                lower.append(lbl)
            if uh:
                upper.append(lbl)
            if lh and uh:
                double.append(lbl)
        return {"lower_hole": sorted(lower), "upper_hole": sorted(upper),
                "double_hole": sorted(double), "certificates": [c]}

    def lower_ball_bound_failure(self):
        """Witness that d_low(1) exceeds 1.

        The lower ball of the first chain point at radius 1 contains the
        whole chain (in-window members checked, tail by the chain
        certificate), so its true upper bounds are the points with value
        at least 1; the nearest sits at distance 2 - value(chain_1) > 1.
        """
        c = self.cert(self.CERT)
        value = self.space.value
        x = self.space.indexed(1)
        vx = value(x)
        if any(pt[0] == "i" and value(pt).tsub(vx) >= ONE for pt in self.space.points()):
            raise CertificateError("chain certificate broke: some chain point left the ball")
        # ball values approach 1, so upper bounds must carry value >= 1
        best = min((value(u).tsub(vx) for u in self.space.points() if value(u) >= ONE),
                   default=INF)
        return {"x": self.space.label(x), "r": "1", "value": str(best),
                "exceeds_radius": best > ONE, "certificates": [c]}

    def completeness(self) -> FamilyCompleteness:
        """Every point rejected as a double-hole limit of the chain, or
        the undecided verdict when a point of value exactly 1 exists: that
        point is the chain's double-hole limit (``hole_limit_sets``), so
        no witness rejects it.  Values above 1 fail the upper hole against
        the least-valued point, values below 1 the lower hole against the
        next chain point above them.

        For v = p/q < 1, x_n = n/(n+1) > v exactly when n(q - p) > p, so
        the first chain point above v is x_n with n = q // (q - p), inside
        the window or past it."""
        c = self.cert(self.CERT)
        value, label = self.space.value, self.space.label
        if any(value(pt) == ONE for pt in self.space.points()):
            return FamilyCompleteness(None)
        z = self._least_point()
        w = value(z)
        rejections = []
        for pt in self.space.points():
            v = value(pt)
            if v > ONE:
                # upper-hole failure against the bottom of the chain
                rejections.append(CandidateRejection(
                    label(pt), label(z), "upper_hole", str(ONE.tsub(w)), str(v.tsub(w))))
            else:
                nxt = self.space.indexed(v.den // (v.den - v.num))
                rejections.append(CandidateRejection(
                    label(pt), label(nxt), "lower_hole", "0", str(value(nxt).tsub(v))))
        return FamilyCompleteness(False, "identity", tuple(rejections), (c,))

    def _least_point(self):
        """The first point of least value, in ``points()`` order."""
        return min(self.space.points(), key=self.space.value)


class NaturalOrderAnalyzer(Analyzer):
    """Order-characteristic distance on the naturals; carries the swapped
    pair sequence 2,1,4,3,... whose values still escape to infinity."""

    CERT = "naturals.values"

    def __init__(self, space: FamilySpace):
        if space.rule != "order-characteristic" or \
                space.params.get("values") != "natural" or space.params.get("extras"):
            raise SpaceError("natural-order analysis needs bare naturals")
        super().__init__(space)

    def classify(self, seq: FamilySeq) -> FamilyClasses:
        c = self.cert(self.CERT)
        if seq.kind in ("identity", "swap-odd"):
            # strictly increasing values: all three classes hold
            claim = Claim(True, (c,), "values strictly increase")
            return FamilyClasses(claim, claim, claim)
        if seq.kind == "swap-pairs":
            # values exceed every bound eventually, so tails dominate each
            # fixed term: reflexive and pre-Cauchy.  Adjacent swapped pairs
            # give d = inf at every odd position: not Cauchy.
            w = seq.window()
            witnesses = [(k, k + 1) for k in range(1, w) if k % 2 == 1
                         if self.space.dist(seq.term(k), seq.term(k + 1)).is_inf]
            if not witnesses:
                raise CertificateError("swap sequence lost its inversion pattern")
            ok = Claim(True, (c,), "tail values dominate every fixed term")
            return FamilyClasses(ok, ok, Claim(False, (c,),
                                 f"adjacent inversions at {len(witnesses)} odd positions"))
        return super().classify(seq)

    def _extract(self, seq: FamilySeq) -> FamilySeq:
        """Increasing-index extraction of a Cauchy subsequence.

        Greedy replay of the finite-subset recursion: repeatedly pick the
        first later position within the stated bound of every selected
        term; since the tail sups vanish, the bound at step t is 2^-t,
        which for a 0/inf distance means "comparable upward".
        """
        w = seq.window()
        selected = []
        k = 1
        while k <= w:
            if all(self.space.dist(seq.term(s), seq.term(k)).is_zero() for s in selected):
                selected.append(k)
            k += 1
        # verify the selection is exactly the odd positions, whose induced
        # sequence is the increasing even values: that is the catalog kind
        if selected != list(range(1, w + 1, 2)):
            raise CertificateError("greedy extraction deviated from the odd positions")
        sub = FamilySeq(self.space, "swap-odd")
        sub_cls = self.classify(sub)
        if sub_cls.cauchy.value is not True:
            raise CertificateError("extracted subsequence failed to certify Cauchy")
        return sub

    def hole_flags(self, seq: FamilySeq):
        """The four single-topology limit predicates, as candidate sets.

        Sequence values escape upward, so for every center c the tail of
        d(c, x_k) is 0 and the tail of d(x_k, c) is inf:

        * upper_ball/upper_hole hold for every candidate,
        * lower_ball/lower_hole hold for none (witness center x+1 / any c).
        """
        c = self.cert(self.CERT)
        # in-window verification of the growth bound value(x_k) >= k - 1,
        # which is what makes both tails eventually constant
        w = seq.window()
        for k in range(1, w + 1):
            if seq.term(k)[1] < k - 1:
                raise CertificateError("sequence values stopped growing")
        n_cands = self.space.cutoff
        every = sorted(self.space.label(self.space.indexed(i)) for i in range(1, n_cands + 1))
        return {"upper_ball": every, "upper_hole": every,
                "lower_ball": [], "lower_hole": [], "certificates": [c]}


def analyzer_for(space: FamilySpace) -> Analyzer:
    if space.rule == "sup-truncated-difference":
        return VectorFamilyAnalyzer(space)
    if space.rule == "truncated-difference" and \
            space.params.get("values", "one_minus_unit") == "one_minus_unit":
        return ChainAnalyzer(space)
    if space.rule == "order-characteristic" and space.params.get("values") == "natural" \
            and not space.params.get("extras"):
        return NaturalOrderAnalyzer(space)
    return Analyzer(space)


def classify_family(seq: FamilySeq) -> FamilyClasses:
    """Tri-state net classes of a family sequence.

    Constant sequences are decided directly from the (exact) self-distance;
    everything else needs a certified analyzer, and absent one every claim
    is undecidable rather than guessed.
    """
    return analyzer_for(seq.space).classify(seq)


def cauchy_subsequence_family(seq: FamilySeq) -> FamilySeq:
    """Cauchy subsequence of a pre-Cauchy family sequence (itself if the
    input already certifies Cauchy)."""
    return analyzer_for(seq.space).cauchy_subsequence(seq)


def family_is_complete(space: FamilySpace) -> FamilyCompleteness:
    return analyzer_for(space).completeness()


def family_limits_against(seq: FamilySeq, target_label: str):
    """Certified (forward, backward, certificates) limits of d(x_k, y) and
    d(y, x_k) for a family sequence against a named point."""
    return analyzer_for(seq.space).limits(seq, seq.space.point_by_label(target_label))


def family_subnet_equiv(seq: FamilySeq) -> Claim:
    """Single-topology convergence agrees between a pre-Cauchy family
    sequence and its extracted Cauchy subsequence."""
    return analyzer_for(seq.space).subnet_equiv(seq)
