"""Analysis reports: one document tying all pipeline stages together.

The machine-readable form is canonical JSON (sorted keys, fixed
separators, no floats, no timestamps), so identical inputs produce
byte-identical reports.  Every numeric entry is reproducible by
re-running the corresponding operation on the echoed input document;
:func:`verify_report` does exactly that and pinpoints divergences.
"""

from __future__ import annotations

import json

from .cohomology import betti_numbers, cohomology, trace_is_zero
from .errors import InputError
from .formality import (
    build_twisted_model,
    formality_from_twisted,
    total_model_dump,
)
from .minimal_model import build_minimal_model, serialize_model, verify_quasi_iso
from .monodromy import nilpotent_submodule, oracle_applicable
from .spectral import (
    AlmostAbelianSpec,
    emit_spec,
    modification_hypothesis_holds,
    parse_spec,
)
from .symplectic import (
    CoSymplecticPair,
    closed_two_classes,
    find_symplectic,
    verify_symplectic,
)

FORMAT_VERSION = 1

STAGES = ("unipotent", "cohomology", "model", "formality", "symplectic")


class Analysis:
    """Computes pipeline stages once and shares the intermediate objects."""

    def __init__(self, spec: AlmostAbelianSpec, max_degree: int = 3):
        if max_degree < 1:
            raise InputError("--max-degree must be at least 1")
        self.spec = spec
        self.max_degree = max_degree
        self._model = None
        self._twisted = None

    @property
    def model(self):
        if self._model is None:
            self._model = build_minimal_model(self.spec, self.max_degree)
        return self._model

    @property
    def twisted(self):
        if self._twisted is None:
            self._twisted = build_twisted_model(self.spec, self.model)
        return self._twisted

    # ----- report sections -----------------------------------------------------

    def unipotent_section(self) -> dict:
        dims = {}
        bases = {}
        for k in range(self.spec.n + 1):
            basis = nilpotent_submodule(self.spec, k)
            dims[str(k)] = len(basis)
            bases[str(k)] = [str(v) for v in basis]
        return {"dims": dims, "bases": bases, "oracle_applicable": oracle_applicable(self.spec)}

    def cohomology_section(self) -> dict:
        betti = betti_numbers(self.spec)
        reps = {}
        for k in range(self.spec.n + 2):
            slice_ = cohomology(self.spec, k)
            alpha = f"a{self.spec.n + 1}"
            listed = [str(v) for v in slice_.kernel_reps]
            listed += [f"({v}) ^ {alpha}" for v in slice_.coker_reps]
            reps[str(k)] = listed
        n_total = self.spec.n + 1
        duality = all(betti[k] == betti[n_total - k] for k in range(n_total + 1))
        return {
            "betti": {str(k): b for k, b in enumerate(betti)},
            "representatives": reps,
            "poincare_duality": duality,
            "euler_characteristic": sum((-1) ** k * b for k, b in enumerate(betti)),
        }

    def model_section(self) -> dict:
        model = self.model
        counts = {
            str(d): {"closed": c, "non_closed": nc}
            for d, (c, nc) in model.generator_counts().items()
        }
        quasi = verify_quasi_iso(model)
        return {
            "degree_bound": model.degree_bound,
            "generator_counts": counts,
            "dump": serialize_model(model).splitlines(),
            "quasi_isomorphism": {str(k): v["ok"] for k, v in quasi.items()},
        }

    def formality_section(self) -> dict:
        tm = self.twisted
        verdict = formality_from_twisted(tm, self.max_degree)
        statuses = {}
        witnesses = {}
        for status in verdict.statuses:
            statuses[str(status.degree)] = "pass" if status.passed else "fail"
            if not status.passed:
                witnesses[str(status.degree)] = {
                    "element": tm.model.poly_str(status.witness),
                    "twist": tm.model.poly_str(status.witness_twist),
                }
        return {
            "max_checked_degree": verdict.max_checked_degree,
            "model_bound": verdict.model_bound,
            "statuses": statuses,
            "witnesses": witnesses,
            "summary": verdict.summary(),
            "twist_ambiguity_degrees": tm.ambiguity_degrees,
            "total_model": total_model_dump(tm).splitlines(),
        }

    def symplectic_section(self) -> dict:
        total = self.spec.n + 1
        if total % 2:
            return {"applicable": False, "reason": f"total dimension {total} is odd"}
        closed_basis = [str(v) for v in closed_two_classes(self.spec)]
        witness = find_symplectic(self.spec)
        if witness is None:
            return {
                "applicable": True,
                "closed_two_basis": closed_basis,
                "witness": None,
                "reason": "no invariant form of type F + eta ^ a exists "
                "(exact grid decision, scoped to this construction)",
            }
        ok, certificates = verify_symplectic(self.spec, witness)
        return {
            "applicable": True,
            "closed_two_basis": closed_basis,
            "witness": {
                "two_form": str(witness.pair.two_form),
                "one_form": str(witness.pair.one_form),
                "omega": str(witness.omega),
                "pairing": str(witness.pairing),
                "omega_top": str(witness.omega_top),
                "verified": ok,
                "certificates": certificates,
            },
        }

    def assumptions_section(self) -> dict:
        return {
            "lattice_existence": "asserted by the user"
            + (f" ({self.spec.lattice_label})" if self.spec.lattice_label else ""),
            "modification_hypothesis_holds": modification_hypothesis_holds(self.spec),
            "modification_note": "the completely solvable replacement is trusted "
            "to compute the cohomology of the quotient",
            "unimodular_trace_zero": trace_is_zero(self.spec),
            "finite_type_bound": self.max_degree,
            "symplectic_closedness_condition": "per-element shift kernel on the chosen 2-form",
        }


def build_report(spec: AlmostAbelianSpec, max_degree: int = 3, stages=STAGES) -> dict:
    analysis = Analysis(spec, max_degree)
    report = {
        "format_version": FORMAT_VERSION,
        "generator": {"name": "solvform", "version": "0.1.0"},
        "input": json.loads(emit_spec(spec)),
        "max_degree": max_degree,
        "assumptions": analysis.assumptions_section(),
    }
    if "unipotent" in stages:
        report["unipotent"] = analysis.unipotent_section()
    if "cohomology" in stages:
        report["cohomology"] = analysis.cohomology_section()
    if "model" in stages:
        report["model"] = analysis.model_section()
    if "formality" in stages:
        report["formality"] = analysis.formality_section()
    if "symplectic" in stages:
        report["symplectic"] = analysis.symplectic_section()
    return report


def dumps_canonical(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


def render_text(report: dict) -> str:
    """Human-readable rendering of a report."""
    lines = []
    doc = report["input"]
    lines.append(f"instance: n = {doc['n']}, total dimension {doc['n'] + 1}")
    if doc.get("lattice_label"):
        lines.append(f"lattice: {doc['lattice_label']} (existence asserted, not checked)")
    assumptions = report.get("assumptions", {})
    if assumptions:
        lines.append(
            "unimodular (trace zero): %s" % ("yes" if assumptions.get("unimodular_trace_zero") else "NO")
        )
    if "unipotent" in report:
        dims = report["unipotent"]["dims"]
        lines.append("")
        lines.append("invariant submodule dimensions by degree:")
        lines.append("  " + ", ".join(f"{k}: {v}" for k, v in sorted(dims.items(), key=lambda kv: int(kv[0]))))
        for k, basis in sorted(report["unipotent"]["bases"].items(), key=lambda kv: int(kv[0])):
            if basis:
                lines.append(f"  degree {k}: " + "; ".join(basis))
    if "cohomology" in report:
        betti = report["cohomology"]["betti"]
        lines.append("")
        lines.append(
            "betti numbers: "
            + ", ".join(f"b{k} = {v}" for k, v in sorted(betti.items(), key=lambda kv: int(kv[0])))
        )
        for k, reps in sorted(report["cohomology"]["representatives"].items(), key=lambda kv: int(kv[0])):
            if reps:
                lines.append(f"  H^{k}: " + "; ".join(reps))
        lines.append(f"poincare duality: {report['cohomology']['poincare_duality']}")
    if "model" in report:
        lines.append("")
        lines.extend(report["model"]["dump"])
    if "formality" in report:
        lines.append("")
        lines.extend(report["formality"]["total_model"])
        lines.append("")
        lines.append("formality: " + report["formality"]["summary"])
        for degree, witness in sorted(report["formality"]["witnesses"].items(), key=lambda kv: int(kv[0])):
            lines.append(
                f"  degree {degree} witness: {witness['element']} (twist {witness['twist']})"
            )
        if report["formality"]["twist_ambiguity_degrees"]:
            lines.append(
                "  twist involved a choice in degrees: "
                + ", ".join(str(d) for d in report["formality"]["twist_ambiguity_degrees"])
            )
    if "symplectic" in report:
        section = report["symplectic"]
        lines.append("")
        if not section.get("applicable"):
            lines.append(f"symplectic: not applicable ({section.get('reason')})")
        elif section.get("witness"):
            w = section["witness"]
            lines.append("symplectic witness:")
            lines.append(f"  F = {w['two_form']}")
            lines.append(f"  eta = {w['one_form']}")
            lines.append(f"  omega = {w['omega']}")
            lines.append(f"  top power coefficient = {w['omega_top']} (pairing {w['pairing']})")
            lines.append(f"  independently verified: {w['verified']}")
        else:
            lines.append(f"symplectic: none ({section.get('reason')})")
    return "\n".join(lines) + "\n"


def verify_report(report: dict, spec: AlmostAbelianSpec):
    """Re-derive every checkable claim of a report; list the divergences."""
    mismatches: list[str] = []
    if report.get("format_version") != FORMAT_VERSION:
        return False, [f"unsupported format_version {report.get('format_version')}"]
    try:
        echoed = parse_spec(json.dumps(report["input"]))
    except (KeyError, InputError) as exc:
        return False, [f"report does not echo a valid input: {exc}"]
    if echoed != spec:
        mismatches.append("echoed input differs from the supplied document")
        return False, mismatches
    max_degree = report.get("max_degree")
    if not isinstance(max_degree, int) or isinstance(max_degree, bool) or max_degree < 1:
        return False, ["report lacks a valid max_degree"]
    stages = [s for s in STAGES if s in report]
    fresh = build_report(spec, max_degree, stages=stages)
    for stage in stages:
        if report[stage] != fresh[stage]:
            mismatches.append(_first_divergence(stage, report[stage], fresh[stage]))
    if "symplectic" in report:
        section = report["symplectic"]
        witness = section.get("witness") if isinstance(section, dict) else None
        if isinstance(witness, dict):
            ok = _reverify_witness(spec, witness)
            if not ok:
                mismatches.append("symplectic witness in the report fails re-verification")
    return not mismatches, mismatches


def _first_divergence(stage: str, old, new, path="") -> str:
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) | set(new)):
            if old.get(key) != new.get(key):
                return _first_divergence(stage, old.get(key), new.get(key), f"{path}/{key}")
    return f"{stage}{path}: report has {old!r}, recomputation gives {new!r}"


def _reverify_witness(spec: AlmostAbelianSpec, witness: dict) -> bool:
    from .symplectic import _half_dim, _witness_from_pair

    pair = CoSymplecticPair(
        _parse_form(spec, witness.get("two_form"), 2),
        _parse_form(spec, witness.get("one_form"), 1),
    )
    try:
        rebuilt = _witness_from_pair(spec, _half_dim(spec), pair)
    except InputError:
        return False
    if rebuilt is None:
        return False
    ok, _ = verify_symplectic(spec, rebuilt)
    return ok and str(rebuilt.omega_top) == witness.get("omega_top")


def _parse_form(spec: AlmostAbelianSpec, text, degree: int):
    """Parse the canonical multivector rendering back (rational coefficients)."""
    from fractions import Fraction

    from .exterior import Multivector

    if not isinstance(text, str):
        raise InputError(f"malformed report: witness form {text!r} is not a string")
    text = text.strip()
    if text == "0":
        return Multivector.zero(spec.n, degree)
    terms = []
    normalized = text.replace(" - ", " + -").split(" + ")
    try:
        for chunk in normalized:
            chunk = chunk.strip()
            coeff = Fraction(1)
            if chunk.startswith("-"):
                coeff = Fraction(-1)
                chunk = chunk[1:]
            if "*" in chunk:
                coeff_text, _, chunk = chunk.partition("*")
                coeff *= Fraction(coeff_text)
            if not chunk.startswith("a"):
                raise InputError(f"cannot parse multivector term {chunk!r}")
            body = chunk[1:]
            if body.startswith("("):
                indices = tuple(int(p) for p in body.strip("()").split(","))
            else:
                indices = tuple(int(ch) for ch in body)
            terms.append((indices, coeff))
        return Multivector(spec.n, degree, terms)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"malformed report: cannot parse multivector {text!r}: {exc}") from exc
