"""Shared Hypothesis strategies: small gl(1|1), gl(2|1) and gl(1|2) tensors of
evaluation and skew modules, whole-number shifts included."""

from fractions import Fraction

from hypothesis import strategies as st

from gtyangian.glmod import build_module
from gtyangian.patterns import SuperShape
from gtyangian.yangian import evaluation_action, skew_action, tensor_action

SHAPES = {(1, 1): SuperShape(1, 1), (2, 1): SuperShape(2, 1), (1, 2): SuperShape(1, 2)}
# per shape: evaluation weights, then (ambient weight, mu) skews; all of dim <= 4
FACTORS = {
    (1, 1): [(1, 0), (2, 1), (1, 1), (2, 0), ((2, 1, 0), (1,)), ((3, 1, 0), (1,)),
             ((2, 0, 0), (1,)), ((3, 1, 0), (2,))],
    (2, 1): [(1, 0, 0), (1, 1, 0), ((1, 1, 0, 0), (1,)), ((2, 0, 0, 0), (1,)),
             ((1, 1, 1, 0), (1,))],
    (1, 2): [(1, 0, 0), (2, 0, 0), ((1, 1, 0, 0), (1,)), ((2, 0, 0, 0), (1,)),
             ((2, 1, 0, 0), (2,))],
}
SHIFTS = [Fraction(x) for x in (-2, -1, 0, 1, 2)] + [Fraction(1, 2), Fraction(-3, 2), Fraction(1, 3)]


def _factor(shape, spec, h):
    if len(spec) == 2 and isinstance(spec[0], tuple):
        return skew_action(shape, spec[0], spec[1], h)
    return evaluation_action(build_module(shape, spec), h)


@st.composite
def small_tensors(draw):
    key = draw(st.sampled_from(sorted(SHAPES)))
    shape = SHAPES[key]
    specs = draw(st.lists(st.sampled_from(FACTORS[key]), min_size=1, max_size=2))
    return tensor_action([_factor(shape, spec, draw(st.sampled_from(SHIFTS))) for spec in specs])
