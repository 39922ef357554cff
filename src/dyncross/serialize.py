"""JSON encodings of spaces, points, sets, and elements.

Space description::

    {"kind": "finite", "points": ["a", "b"],
     "min_open_nbhd": {"a": ["a"], "b": ["b"]},
     "sigma": {"a": "b", "b": "a"}}
    {"kind": "int_shift", "window": 8}
    {"kind": "pair_swap_tails", "window": 8}

Element description (complex numbers as [re, im] pairs)::

    {"terms": [{"k": 2, "values": {"a": [4, 0], "b": [6, 0]}},
               {"k": 0, "values": {"a": [1, 0], "b": [1, 0]}}]}

Point keys are labels on a finite space; on a tail space, limit names and
a tail name followed by a decimal n ("-3" and "inf" on int_shift, "a1",
"b2" and "origin" on pair_swap_tails), spelt only as ``point_name`` prints
them.  Limit values may be given inside "values" or in a separate
"limits" object; they default to zero.
"""

from __future__ import annotations

import cmath
import json
import math
from typing import Mapping

from .algebra import Element
from .errors import ParseError
from .space import CtsFun, Point, Space, build_space, json_int


def space_to_spec(space: Space) -> dict:
    return space.spec()


def space_from_spec(spec: Mapping) -> Space:
    if not isinstance(spec, Mapping):
        raise ParseError("malformed space description: expected a JSON object, "
                         f"not {type(spec).__name__}")
    try:
        return build_space(spec)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed space description: {exc}") from exc


def point_to_str(space: Space, p: Point) -> str:
    return space.point_name(p)


def point_from_str(space: Space, s: str) -> Point:
    try:
        return space.parse_point(s)
    except ValueError as exc:
        raise ParseError(f"bad point name {s!r}: {exc}") from exc


def _decode_complex(v) -> complex:
    parts = v if isinstance(v, (list, tuple)) else (v, 0)
    if len(parts) != 2 or not all(isinstance(t, (int, float))
                                  and not isinstance(t, bool) for t in parts):
        raise ParseError(f"bad complex value {v!r}; use [re, im]")
    try:
        z = complex(*parts)
    except OverflowError:
        raise ParseError("complex value out of the floating-point range") from None
    if not cmath.isfinite(z):
        raise ParseError(f"non-finite value {v!r}")
    return z


def _term_map(term: Mapping, field: str) -> Mapping:
    raw = term.get(field, {})
    if not isinstance(raw, Mapping):
        raise ParseError(f'"{field}" must map point names to values, '
                         f"not {type(raw).__name__}")
    return raw


def _encode_complex(z: complex):
    return [z.real, z.imag]


def element_to_json(x: Element) -> dict:
    space = x.space
    terms = []
    for k in x.support():
        values, limits = x.coeffs[k].data()
        term = {"k": k,
                "values": {point_to_str(space, p): _encode_complex(v)
                           for p, v in values.items()}}
        if limits:
            term["limits"] = {name: _encode_complex(v)
                              for name, v in sorted(limits.items())}
        terms.append(term)
    return {"terms": terms}


def element_from_json(space: Space, doc: Mapping) -> Element:
    terms = doc.get("terms") if isinstance(doc, Mapping) else None
    if not isinstance(terms, (list, tuple)):
        raise ParseError('element description must be {"terms": [...]}')
    coeffs = {}
    for term in terms:
        try:
            k = json_int(term["k"], "k")
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad term index: {exc}") from exc
        if k in coeffs:
            raise ParseError(f'bad term index: "k" = {k} appears twice')
        values = {}
        limits = {name: 0.0 for name in space.limit_names}
        for key, raw in _term_map(term, "values").items():
            z = _decode_complex(raw)
            if key in space.limit_names:
                limits[key] = z
                continue
            values[point_from_str(space, key)] = z
        for key, raw in _term_map(term, "limits").items():
            if key not in space.limit_names:
                raise ParseError(f"unknown limit name {key!r}")
            limits[key] = _decode_complex(raw)
        # a point left out reads its limit's value, or 0 where no limit is
        fill = {} if space.limit_names else dict.fromkeys(space.window_points, 0.0)
        coeffs[k] = CtsFun(space, {**fill, **values}, limits)
    elem = Element(space, coeffs)
    # every norm is at most the series norm, so a finite one keeps every
    # result finite
    if not math.isfinite(elem.ell1_norm()):
        raise ParseError("the element's series norm is beyond the floating-point range")
    return elem


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
