import itertools

import pytest
from hypothesis import given, settings, strategies as st

from cycliczeta.errors import ParseError
from cycliczeta.model import (
    EXTRA,
    ComplexArgs,
    Constraint,
    ConstraintSystem,
    DomainSpec,
    IntArgs,
    Shape,
    VarId,
    build_constraints_S,
    build_constraints_S_i,
    build_constraints_S_ij,
    build_constraints_T_i,
    in_domain_EZ_absolute,
    in_domain_W,
    is_integer_point_in_W,
    w_inequalities,
)


def cs_set(cs):
    return {str(c) for c in cs.constraints}


def B(i, j):
    return VarId.block(i, j)


# --- shapes and args -------------------------------------------------------


def test_shape_basics():
    sh = Shape((2, 1))
    assert sh.d == 2
    assert sh.total_depth == 3
    assert sh.positions() == [(1, 1), (1, 2), (2, 1)]
    assert str(sh) == "2,1"
    assert Shape.parse("2,1") == sh
    with pytest.raises(ValueError):
        Shape((0,))


def test_args_roundtrip():
    s = ComplexArgs.parse("1.5+0.5i,2.5+0i;3-1i")
    assert s.shape == Shape((2, 1))
    assert s[(1, 1)] == 1.5 + 0.5j
    assert s[(2, 1)] == 3 - 1j
    assert ComplexArgs.parse(str(s)) == s
    k = IntArgs.parse("1,2;3")
    assert k.weight == 6
    assert IntArgs.parse(str(k)) == k
    with pytest.raises(ParseError):
        ComplexArgs.parse("1.5+0.5i", shape=Shape((2,)))
    with pytest.raises(ValueError):
        IntArgs(Shape((2,)), (0, 2))


# --- constraint constructors (instantiated spec examples) ------------------


def test_S_examples():
    assert cs_set(build_constraints_S(Shape((2,)))) == {"n1_1 < n1_2"}
    assert cs_set(build_constraints_S(Shape((1, 1)))) == {
        "n1_1 <= n2_1",
        "n2_1 <= n1_1",
    }
    assert cs_set(build_constraints_S(Shape((2, 1)))) == {
        "n1_1 < n1_2",
        "n1_1 <= n2_1",
        "n2_1 <= n1_2",
    }


def test_S_ij_examples():
    assert cs_set(build_constraints_S_ij(Shape((1,)), 1, 1)) == {"n1_1 < n"}
    assert cs_set(build_constraints_S_ij(Shape((2,)), 1, 1)) == {
        "n1_1 < n1_2",
        "n1_1 < n",
        "n < n1_2",
    }
    assert cs_set(build_constraints_S_ij(Shape((1, 1)), 1, 1)) == {
        "n2_1 <= n",
        "n1_1 <= n2_1",
        "n1_1 < n",
    }
    with pytest.raises(ValueError):
        build_constraints_S_ij(Shape((2,)), 1, 3)


def test_window_builders_are_memoised():
    shape = Shape((2, 1))
    assert build_constraints_S_ij(shape, 1, 2) is build_constraints_S_ij(Shape((2, 1)), 1, 2)
    assert build_constraints_S_i(shape, 2) is build_constraints_S_i(Shape((2, 1)), 2)
    with pytest.raises(ValueError):  # errors are raised again, not cached
        build_constraints_S_i(shape, 3)
    with pytest.raises(ValueError):
        build_constraints_S_i(shape, 3)


def test_S_i_examples():
    assert cs_set(build_constraints_S_i(Shape((1,)), 1)) == {"n1_1 <= n", "n <= n1_1"}
    assert cs_set(build_constraints_S_i(Shape((2,)), 1)) == {
        "n1_1 < n1_2",
        "n1_1 <= n",
        "n <= n1_2",
    }
    assert cs_set(build_constraints_S_i(Shape((1, 1)), 2)) == {
        "n1_1 <= n2_1",
        "n2_1 <= n1_1",
        "n2_1 <= n",
        "n <= n1_1",
    }


def test_T_i_examples():
    assert cs_set(build_constraints_T_i(Shape((2,)), 1)) == {"n1_1 < n1_2"}
    assert cs_set(build_constraints_T_i(Shape((1, 1)), 2)) == {"n2_1 <= n1_1"}
    assert cs_set(build_constraints_T_i(Shape((2, 1)), 1)) == {
        "n1_1 < n1_2",
        "n1_1 <= n2_1",
    }


def all_shapes(max_total):
    for total in range(1, max_total + 1):
        for d in range(1, total + 1):
            for cuts in itertools.combinations(range(1, total), d - 1):
                bounds = (0,) + cuts + (total,)
                yield Shape(tuple(bounds[t + 1] - bounds[t] for t in range(d)))


def test_no_tautologies_and_no_strict_cycles():
    for shape in all_shapes(4):
        systems = [build_constraints_S(shape)]
        for i in range(1, shape.d + 1):
            systems.append(build_constraints_S_i(shape, i))
            systems.append(build_constraints_T_i(shape, i))
            for j in range(1, shape.r[i - 1] + 1):
                systems.append(build_constraints_S_ij(shape, i, j))
        for cs in systems:
            for c in cs.constraints:
                assert c.lhs != c.rhs
            # construction already rejects strict cycles; rebuild to re-check
            ConstraintSystem(cs.shape, cs.has_extra_var, cs.constraints)


def test_S_ij_block_part_matches_S():
    # Dropping the n-constraints from S_ij and restricting to block variables
    # must reproduce S with at most one cross-block link replaced.
    for shape in all_shapes(4):
        s_cons = cs_set(build_constraints_S(shape))
        for i in range(1, shape.d + 1):
            for j in range(1, shape.r[i - 1] + 1):
                cs = build_constraints_S_ij(shape, i, j)
                block_part = {
                    str(c)
                    for c in cs.constraints
                    if not (c.lhs == EXTRA or c.rhs == EXTRA)
                }
                assert block_part <= s_cons
                missing = s_cons - block_part
                assert len(missing) <= 1


def test_strict_cycle_rejected():
    sh = Shape((2,))
    with pytest.raises(ValueError):
        ConstraintSystem(
            sh,
            False,
            (
                Constraint(B(1, 1), "<", B(1, 2)),
                Constraint(B(1, 2), "<=", B(1, 1)),
            ),
        )


def test_constraints_canonically_sorted():
    sh = Shape((1, 1))
    cs = ConstraintSystem(
        sh,
        True,
        (
            Constraint(EXTRA, "<=", B(1, 1)),
            Constraint(B(1, 1), "<=", B(2, 1)),
            Constraint(B(1, 1), "<", B(2, 1)),
        ),
    )
    assert [str(c) for c in cs.constraints] == [
        "n1_1 < n2_1",
        "n1_1 <= n2_1",
        "n <= n1_1",
    ]


# --- domain W --------------------------------------------------------------


def test_in_domain_W_examples():
    assert in_domain_W(ComplexArgs(Shape((1,)), (2.5,)))
    assert not in_domain_W(ComplexArgs(Shape((2,)), (0.5, 1.2)))
    assert in_domain_W(ComplexArgs(Shape((1, 1)), (1.5, 1.6 + 1.0j)))


def test_in_domain_W_mixed_singleton_boundary():
    # Singleton-block boundary is included in the mixed case.
    s = ComplexArgs(Shape((2, 1)), (1.5, 1.5, 1.0))
    assert in_domain_W(s)
    s2 = ComplexArgs(Shape((2, 1)), (1.5, 1.5, 0.999))
    assert not in_domain_W(s2)


def test_all_singleton_windows():
    # d=3: windows of lengths 1 and 2 plus the full sum.
    ok = ComplexArgs(Shape((1, 1, 1)), (1.4, 1.4, 1.4))
    assert in_domain_W(ok)
    bad = ComplexArgs(Shape((1, 1, 1)), (3.0, 3.0, -0.5))
    assert not in_domain_W(bad)  # window Re(s_3) = -0.5 <= 0


def test_in_domain_EZ_examples():
    assert in_domain_EZ_absolute([2.5])
    assert in_domain_EZ_absolute([1.0, 2.0])
    assert not in_domain_EZ_absolute([0.0, 1.5])


def test_is_integer_point_examples():
    assert is_integer_point_in_W(IntArgs(Shape((2,)), (1, 2)))
    assert not is_integer_point_in_W(IntArgs(Shape((2,)), (2, 1)))
    assert not is_integer_point_in_W(IntArgs(Shape((1, 1)), (1, 1)))


def test_integer_characterization_matches_W_exhaustively():
    # Entries <= 4, total depth <= 5.
    for shape in all_shapes(5):
        t = shape.total_depth
        for vals in itertools.product(range(1, 5), repeat=t):
            k = IntArgs(shape, vals)
            assert is_integer_point_in_W(k) == in_domain_W(k.to_complex()), (shape, vals)


@st.composite
def w_member(draw):
    shape = draw(st.sampled_from(list(all_shapes(4))))
    vals = []
    for (i, j) in shape.positions():
        re = draw(st.floats(min_value=1.0, max_value=4.0, allow_nan=False))
        im = draw(st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
        if j == shape.r[i - 1]:
            re += 1.5  # clear every suffix threshold
        vals.append(complex(re, im))
    return ComplexArgs(shape, tuple(vals))


@settings(max_examples=60, deadline=None)
@given(w_member(), st.lists(st.floats(min_value=0.0, max_value=3.0), min_size=6, max_size=6))
def test_W_monotone_in_real_parts(s, bumps):
    assert in_domain_W(s)
    bumped = tuple(
        complex(v.real + bumps[t % len(bumps)], v.imag) for t, v in enumerate(s.values)
    )
    assert in_domain_W(ComplexArgs(s.shape, bumped))


def test_w_inequalities_describe():
    s = ComplexArgs(Shape((2,)), (0.5, 1.2))
    bad = [q for q in w_inequalities(s) if not q.ok]
    assert bad and "Re(s_{1,1})+Re(s_{1,2})" in bad[0].label
    assert "1.7" in bad[0].describe()


def test_domain_spec():
    sp = DomainSpec(Shape((1, 1)), "W_all_singleton")
    assert sp.contains((1.5, 1.6))
    gen = DomainSpec(Shape((1, 1)), "W_general")
    # the general characterization demands Re >= 1 per singleton block
    assert not gen.contains((0.5, 3.0))
    assert DomainSpec(Shape((2,)), "EZ_absolute").contains((1.0, 2.0))
    with pytest.raises(ValueError):
        DomainSpec(Shape((2,)), "W_all_singleton")
