import json
import random
import re
from fractions import Fraction as F

import pytest

from weylalg import (
    AutoWord,
    BElement,
    DomainError,
    Poly,
    RatFunc,
    WeylElement,
    impossibility_sweep,
    normalize_text,
    print_canonical,
    random_tame,
)
from weylalg.cli import dumps_canonical
from helpers import random_poly, random_ratfunc, random_weyl

Hp = Poly.gen()


def canonical_roundtrip(obj, from_json):
    blob = dumps_canonical(obj.to_json())
    rebuilt = from_json(json.loads(blob))
    assert rebuilt == obj
    assert dumps_canonical(rebuilt.to_json()) == blob
    return blob


class TestJson:
    def test_poly_schema(self):
        f = Hp**2 - F(3, 2) * Hp + 1
        assert f.to_json() == {"poly": [[0, "1/1"], [1, "-3/2"], [2, "1/1"]]}

    def test_poly_roundtrip_random(self):
        rng = random.Random(91)
        for _ in range(200):
            canonical_roundtrip(random_poly(rng, 5, 9), Poly.from_json)

    def test_ratfunc_roundtrip_random(self):
        rng = random.Random(92)
        for _ in range(200):
            canonical_roundtrip(random_ratfunc(rng, 4, 7), RatFunc.from_json)

    def test_element_schema(self):
        a = WeylElement({-1: 1, 2: Hp})
        assert a.to_json() == {
            "components": [[-1, {"poly": [[0, "1/1"]]}], [2, {"poly": [[1, "1/1"]]}]]
        }

    def test_weyl_element_roundtrip_random(self):
        rng = random.Random(93)
        for _ in range(300):
            canonical_roundtrip(random_weyl(rng), WeylElement.from_json)

    def test_b_element_roundtrip(self):
        rng = random.Random(94)
        for _ in range(100):
            b = BElement({rng.randint(-3, 3): random_ratfunc(rng, 3, 5, nonzero=True)})
            canonical_roundtrip(b, BElement.from_json)

    def test_autoword_schema(self):
        from weylalg import PhiX

        word = AutoWord((PhiX(3, F(2)),))
        assert word.to_json() == {"word": [{"gen": "PhiX", "n": 3, "lambda": "2/1"}]}

    def test_autoword_roundtrip_random(self):
        for seed in range(100):
            word = random_tame(seed, word_len=6, max_n=4, coeff_height=9)
            canonical_roundtrip(word, AutoWord.from_json)

    def test_sweep_report_json(self):
        report = impossibility_sweep("case-ii", {"p": 2, "q": 2, "max_coeff_deg": 1})
        blob = dumps_canonical(report.to_json())
        parsed = json.loads(blob)
        assert parsed["pattern"] == "case-ii"
        assert all(c["status"] in ("empty", "solutions") for c in parsed["cells"])
        assert dumps_canonical(report.to_json()) == blob


# each element class with the JSON of a constant coefficient c ("3/2") of its ring
each_element_class = pytest.mark.parametrize("cls, coeff", [
    (WeylElement, lambda c: {"poly": [[0, c]]}),
    (BElement, lambda c: {"ratfunc": {"num": [[0, c]], "den": [[0, "1/1"]]}}),
])


class TestRepeatedDegrees:
    """A repeated degree or exponent adds up, in JSON as in the constructors."""

    def test_poly_exponent(self):
        assert Poly.from_json({"poly": [[0, "1/1"], [0, "2/1"]]}) == 3

    @each_element_class
    def test_element_degree(self, cls, coeff):
        blob = {"components": [[1, coeff("1/1")], [-1, coeff("1/2")], [1, coeff("2/1")]]}
        assert cls.from_json(blob) == cls([(1, 1), (-1, F(1, 2)), (1, 2)]) == cls({1: 3, -1: F(1, 2)})
        assert type(cls.from_json(blob)) is cls

    @each_element_class
    def test_element_degree_cancels(self, cls, coeff):
        blob = {"components": [[2, coeff("1/3")], [0, coeff("5/1")], [2, coeff("-1/3")]]}
        rebuilt = cls.from_json(blob)
        assert rebuilt == cls({0: 5}) and rebuilt.support() == {0}
        assert cls.from_json({"components": [[1, coeff("1/1")], [1, coeff("-1/1")]]}).is_zero()


class TestMalformedJson:
    @pytest.mark.parametrize(
        "cls, payload, message",
        [
            (Poly, "{}", '"poly" list'),
            (Poly, '{"poly": 5}', '"poly" list'),
            (Poly, "[]", '"poly" list'),
            (Poly, '{"poly": [[0]]}', "not an [integer, value] pair"),
            (Poly, '{"poly": [["0", "1/1"]]}', "not an [integer, value] pair"),
            (Poly, '{"poly": [[1.5, "1/1"]]}', "not an [integer, value] pair"),
            (Poly, '{"poly": [[-1, "1/1"]]}', "exponent -1 is negative"),
            (Poly, '{"poly": [[0, 2]]}', "must be a rational"),
            (Poly, '{"poly": [[0, "1/0"]]}', "must be a rational"),
            (Poly, '{"poly": [[0, "half"]]}', "must be a rational"),
            (Poly, '{"poly": [[0, "1e5"]]}', "must be a rational"),
            (Poly, '{"poly": [[0, "1.5"]]}', "must be a rational"),
            (Poly, '{"poly": [[0, " 1/2"]]}', "must be a rational"),
            (Poly, '{"poly": [[0, "1_000"]]}', "must be a rational"),
            (RatFunc, '{"ratfunc": {}}', '"num" list'),
            (RatFunc, '{"ratfunc": [[0, "1/1"]]}', '"ratfunc" object'),
            (RatFunc, '{"ratfunc": {"num": [[0, "1/1"]]}}', '"den" list'),
            (RatFunc, '{"ratfunc": {"num": [[0, "1/1"]], "den": []}}', "zero denominator"),
            (WeylElement, '{"x": 1}', '"components" list'),
            (WeylElement, '{"components": [[1]]}', "not an [integer, value] pair"),
            (WeylElement, '{"components": [[1, {"poly": {}}]]}', '"poly" list'),
            (BElement, '{"components": {}}', '"components" list'),
            (BElement, '{"components": [[0, {"poly": [[0, "1/1"]]}]]}', '"ratfunc" object'),
        ],
    )
    def test_raises_domain_error(self, cls, payload, message):
        with pytest.raises(DomainError, match=re.escape(message)):
            cls.from_json(json.loads(payload))


class TestTextRoundTrip:
    def test_parse_print_identity(self):
        rng = random.Random(95)
        for _ in range(300):
            a = random_weyl(rng)
            assert normalize_text(print_canonical(a)) == a
