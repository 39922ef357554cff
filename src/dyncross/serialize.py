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
import sys
from typing import Mapping

import numpy as np

from .algebra import Element
from .errors import ParseError
from .space import FunRows, Point, Space, build_space, json_int, not_continuous

# the largest finite double: a real part within it is a finite value
_MAX = sys.float_info.max


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


def _decode_pair(v) -> list:
    """A value as its [re, im] pair of finite reals: the pair itself where
    it is one already (a list of two ints or floats, not bools, within the
    double range), else the parts of :func:`_decode_complex`, which
    raises for every value that is not a complex number."""
    if type(v) is list and len(v) == 2:
        re, im = v
        if (type(re) in (int, float) and type(im) in (int, float)
                and -_MAX <= re <= _MAX and -_MAX <= im <= _MAX):
            return v
    z = _decode_complex(v)
    return [z.real, z.imag]


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
    """The element of a description: each term's values go straight to the
    vector slots that the space's name table gives their names, into one
    K x P array (:meth:`~dyncross.space.FunRows.from_entries`, which checks
    the continuity of all rows at once).  A name outside the table is read
    by ``parse_point``: a bad name raises there, and any other names a tail
    point beyond the window, where no value but the limit's is continuous."""
    terms = doc.get("terms") if isinstance(doc, Mapping) else None
    if not isinstance(terms, (list, tuple)):
        raise ParseError('element description must be {"terms": [...]}')
    slot_of, limit_names = space.name_slots(), space.limit_names
    nw = space.slot_counts()[0]
    limits_of, rows, slots, pairs = {}, [], [], []
    for term in terms:
        try:
            k = json_int(term["k"], "k")
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad term index: {exc}") from exc
        if k in limits_of:
            raise ParseError(f'bad term index: "k" = {k} appears twice')
        at_limits = [0j] * len(limit_names)
        beyond = False
        for key, raw in _term_map(term, "values").items():
            pair = _decode_pair(raw)
            slot = slot_of.get(key)
            if slot is None:
                point_from_str(space, key)
                beyond = True
            elif slot < nw:
                rows.append(len(limits_of))
                slots.append(slot)
                pairs.append(pair)
            else:
                at_limits[slot - nw] = complex(*pair)
        for key, raw in _term_map(term, "limits").items():
            if key not in limit_names:
                raise ParseError(f"unknown limit name {key!r}")
            at_limits[limit_names.index(key)] = _decode_complex(raw)
        if beyond:
            raise not_continuous(space)
        limits_of[k] = at_limits
    degrees = list(limits_of)
    values = np.array(pairs, dtype=float).reshape(-1, 2).view(complex)[:, 0]
    funs = FunRows.from_entries(
        space, np.reshape(list(limits_of.values()), (len(degrees), len(limit_names))),
        rows, slots, values)
    order = sorted(range(len(degrees)), key=degrees.__getitem__)
    elem = Element.from_rows(space, tuple(degrees[i] for i in order), funs.select(order))
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
